//! The traced run: a recorder that captures each node's `(now, Input)`
//! stream from the outside of a `StepDriver`, and a replay that feeds the
//! streams through fresh `ReplicaNode`s to time the engine by input kind
//! and the journal path (`encode_delta`, `FramedJournal::append_batch`).
//!
//! Every input a public driver call feeds a node can be read off the
//! driver just before the call: `deliver(0)` hands the oldest pending
//! message to its destination one µs later (or bounces it to a live
//! sender as `CallFailed`), `fire(i)` hands timer `i` to its node at
//! `max(now, fire_at)`, and `inject`/`crash`/`recover` are explicit. The
//! workloads inject no storage faults, so no step happens behind the
//! recorder's back. The replay then re-applies the driver's group-commit
//! rules (flush at the batch cap or on `flush_group_commit`, defer outputs
//! behind buffered deltas, drop the unflushed batch on a crash) and must
//! end with the same durable state, flush count, journal bytes and
//! outputs as the driver, node by node.

use std::hint::black_box;
use std::time::Instant;

use coterie_base::{SimDuration, SimTime};
use coterie_core::engine::encode_delta;
use coterie_core::{
    Durable, DurableDelta, Effect, FramedJournal, Input, ProtocolConfig, ProtocolEvent,
    ReplicaNode, StepDriver,
};
use coterie_quorum::NodeId;

use crate::sim::Call;

/// One entry of a node's recorded stream.
enum Rec {
    /// `step(now, input)`.
    Step(SimTime, Input),
    /// `flush_group_commit` reached the node with deltas buffered.
    Flush,
    /// A crash dropped the node's unflushed batch and deferred effects.
    Drop,
    /// `recover` installed this durable state from checked journal replay.
    Install(Box<Durable>),
}

/// Step kinds timed separately.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// `Deliver` and `CallFailed`.
    Deliver = 0,
    /// `TimerFired`.
    Timer = 1,
    /// `External` (client requests).
    External = 2,
}

fn kind_of(input: &Input) -> Option<Kind> {
    match input {
        Input::Deliver { .. } | Input::CallFailed { .. } => Some(Kind::Deliver),
        Input::TimerFired(_) => Some(Kind::Timer),
        Input::External(_) => Some(Kind::External),
        Input::Boot | Input::BootQuarantined | Input::Crash => None,
    }
}

/// Records a traced run: per-node input streams plus the wall time of
/// every driver call.
#[derive(Default)]
pub struct Recorder {
    streams: Vec<Vec<Rec>>,
    /// Wall time inside driver calls, ns.
    pub call_ns: u64,
    /// Driver calls made.
    pub calls: u64,
    /// Wall time of each `recover()` call, ns.
    pub recover_ns: Vec<u64>,
    /// Sum over calls of the pending-message pool size after the call.
    pub pending_msgs: u64,
    /// Sum over calls of the pending-timer pool size after the call.
    pub pending_timers: u64,
}

impl Recorder {
    /// Begins recording a freshly built cluster (every node has booted).
    pub fn start(&mut self, driver: &StepDriver) {
        self.streams = (0..driver.cluster_size())
            .map(|_| vec![Rec::Step(SimTime::ZERO, Input::Boot)])
            .collect();
    }

    /// Records the inputs `call` is about to feed.
    pub fn before(&mut self, driver: &StepDriver, call: &Call) {
        let now = driver.now();
        let stream = |node: NodeId| node.0 as usize;
        match call {
            Call::Deliver => {
                let env = &driver.pending_messages()[0];
                let at = now + SimDuration::from_micros(1);
                if driver.is_down(env.to) || !driver.connected(env.from, env.to) {
                    if !driver.is_down(env.from) {
                        let input = Input::CallFailed {
                            to: env.to,
                            msg: env.msg.clone(),
                        };
                        self.streams[stream(env.from)].push(Rec::Step(at, input));
                    }
                } else {
                    let input = Input::Deliver {
                        from: env.from,
                        msg: env.msg.clone(),
                        lamport: env.lamport,
                    };
                    self.streams[stream(env.to)].push(Rec::Step(at, input));
                }
            }
            Call::Fire(i) => {
                let t = &driver.pending_timers()[*i];
                let input = Input::TimerFired(t.timer.clone());
                self.streams[stream(t.node)].push(Rec::Step(now.max(t.fire_at), input));
            }
            Call::Flush => {
                for (i, s) in self.streams.iter_mut().enumerate() {
                    let node = NodeId(i as u32);
                    if !driver.is_down(node) && driver.gc_buffered(node) > 0 {
                        s.push(Rec::Flush);
                    }
                }
            }
            Call::Inject(node, request) => {
                let input = Input::External(request.clone());
                self.streams[stream(*node)].push(Rec::Step(now, input));
            }
            Call::Crash(node) => {
                let s = &mut self.streams[stream(*node)];
                s.push(Rec::Drop);
                s.push(Rec::Step(now, Input::Crash));
            }
            Call::Recover(node) => {
                let replay = driver.replay_checked(*node);
                let boot = if replay.verdict.is_bootable() {
                    Input::Boot
                } else {
                    Input::BootQuarantined
                };
                let s = &mut self.streams[stream(*node)];
                s.push(Rec::Install(Box::new(replay.durable)));
                s.push(Rec::Step(now, boot));
            }
        }
    }

    /// Accounts a finished call that took `ns`.
    pub fn after(&mut self, driver: &StepDriver, ns: u64, recover: bool) {
        self.call_ns += ns;
        self.calls += 1;
        if recover {
            self.recover_ns.push(ns);
        }
        self.pending_msgs += driver.pending_messages().len() as u64;
        self.pending_timers += driver.pending_timers().len() as u64;
    }
}

/// Per-layer timings and counts from one replay of the recorded streams.
#[derive(Default)]
pub struct Layers {
    /// Per-step wall time by [`Kind`], ns.
    pub step_ns: [Vec<u64>; 3],
    /// Every replayed step (boots and crashes included).
    pub steps: u64,
    /// Wall time of every replayed step, ns.
    pub busy_ns: u64,
    /// Wall time of `encode_delta` over every persisted delta, ns.
    pub encode_ns: u64,
    /// Persisted deltas.
    pub deltas: u64,
    /// Encoded bytes of those deltas.
    pub delta_bytes: u64,
    /// Wall time of each `append_batch`, ns.
    pub append_ns: Vec<u64>,
    /// Records flushed.
    pub records: u64,
}

impl Layers {
    /// Wall time spent in the journal path (encode plus append), ns.
    pub fn journal_ns(&self) -> u64 {
        self.encode_ns + self.append_ns.iter().sum::<u64>()
    }
}

/// Mirror of one node's journaling host state during replay.
struct Host {
    journal: FramedJournal,
    pending: Vec<DurableDelta>,
    deferred: Vec<ProtocolEvent>,
    outputs: Vec<ProtocolEvent>,
    flushes: u64,
}

impl Host {
    fn flush(&mut self, layers: &mut Layers) {
        if !self.pending.is_empty() {
            let started = Instant::now();
            self.journal.append_batch(&self.pending);
            layers.append_ns.push(started.elapsed().as_nanos() as u64);
            layers.records += self.pending.len() as u64;
            self.flushes += 1;
            self.pending.clear();
        }
        self.outputs.append(&mut self.deferred);
    }
}

impl Recorder {
    /// Replays every stream through fresh engines. With `verify`, compares
    /// each node against `driver` and returns the mismatches.
    pub fn replay(
        &self,
        config: &ProtocolConfig,
        driver: &StepDriver,
        verify: bool,
    ) -> (Layers, Vec<String>) {
        let mut layers = Layers::default();
        let mut mismatches = Vec::new();
        let cap = config.group_commit_max_batch;
        for (i, stream) in self.streams.iter().enumerate() {
            let me = NodeId(i as u32);
            let mut node = ReplicaNode::new(me, config.clone());
            let mut host = Host {
                journal: FramedJournal::new(),
                pending: Vec::new(),
                deferred: Vec::new(),
                outputs: Vec::new(),
                flushes: 0,
            };
            for rec in stream {
                match rec {
                    Rec::Step(at, input) => {
                        let kind = kind_of(input);
                        let input = input.clone();
                        let started = Instant::now();
                        let effects = node.step(*at, input);
                        let ns = started.elapsed().as_nanos() as u64;
                        layers.steps += 1;
                        layers.busy_ns += ns;
                        if let Some(kind) = kind {
                            layers.step_ns[kind as usize].push(ns);
                        }
                        for effect in effects {
                            match effect {
                                Effect::Persist(delta) => {
                                    let started = Instant::now();
                                    let bytes = black_box(encode_delta(&delta));
                                    layers.encode_ns += started.elapsed().as_nanos() as u64;
                                    layers.deltas += 1;
                                    layers.delta_bytes += bytes.len() as u64;
                                    host.pending.push(*delta);
                                    if host.pending.len() >= cap {
                                        host.flush(&mut layers);
                                    }
                                }
                                Effect::Output(event) => {
                                    if host.pending.is_empty() {
                                        host.outputs.push(event);
                                    } else {
                                        host.deferred.push(event);
                                    }
                                }
                                Effect::Send { .. }
                                | Effect::SetTimer { .. }
                                | Effect::CancelTimer(_) => {}
                            }
                        }
                    }
                    Rec::Flush => host.flush(&mut layers),
                    Rec::Drop => {
                        host.pending.clear();
                        host.deferred.clear();
                    }
                    Rec::Install(durable) => node.install_durable((**durable).clone()),
                }
            }
            if verify {
                compare(driver, me, &node, &host, &mut mismatches);
            }
        }
        (layers, mismatches)
    }
}

fn compare(
    driver: &StepDriver,
    me: NodeId,
    node: &ReplicaNode,
    host: &Host,
    mismatches: &mut Vec<String>,
) {
    let i = me.0;
    if node.durable != driver.node(me).durable {
        mismatches.push(format!("replay: node {i} durable state differs"));
    }
    if host.flushes != driver.flushes(me) {
        mismatches.push(format!(
            "replay: node {i} flushed {} times, driver {}",
            host.flushes,
            driver.flushes(me)
        ));
    }
    let journal = driver.journal(me);
    if !journal.bytes().starts_with(host.journal.bytes())
        || journal.committed_records() != host.journal.committed_records()
    {
        mismatches.push(format!("replay: node {i} journal differs"));
    }
    let replayed: Vec<String> = host.outputs.iter().map(|e| format!("{e:?}")).collect();
    let live: Vec<String> = driver
        .outputs()
        .iter()
        .filter(|(_, n, _)| *n == me)
        .map(|(_, _, e)| format!("{e:?}"))
        .collect();
    if replayed != live {
        mismatches.push(format!(
            "replay: node {i} outputs differ ({} replayed, {} live)",
            replayed.len(),
            live.len()
        ));
    }
}
