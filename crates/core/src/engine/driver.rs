//! A substrate-free harness for the engine: hold a whole cluster's worth
//! of [`NodeShell`]s plus their in-flight messages and armed timers, and
//! let the caller decide *which* pending event happens next.
//!
//! This is the building block for schedule exploration: because the driver
//! is `Clone`, an explorer can fork the cluster at any point and try every
//! enabled event from the same state. Each shell journals its node's
//! durable deltas into a [`FramedJournal`] and recovers crashes by
//! replaying it, so crash-replay tests can compare reconstructed durable
//! state against the live engine, and storage faults (failed, torn, or
//! bit-flipped appends) can be injected at the journal boundary
//! deterministically through each shell's failpoints.
//!
//! Flush policy: a shell commits a group-commit batch by itself only at the
//! batch cap. The driver's caller decides when else to flush
//! ([`flush_group_commit`](StepDriver::flush_group_commit)); the fixed
//! [`run_for`](StepDriver::run_for) schedule flushes whenever the message
//! pool drains.

use std::fmt::Write as _;

use coterie_base::{SimDuration, SimTime, TimerId};
use coterie_quorum::NodeId;

use crate::config::ProtocolConfig;
use crate::msg::{ClientRequest, Msg, ProtocolEvent};
use crate::node::{Durable, ReplicaNode, Timer};

use super::failpoint::{sites, FaultKind, FiredFault};
use super::io::Input;
use super::metrics::MetricsRegistry;
use super::shell::{NodeShell, Outbox};
use super::storage::{FramedJournal, FramedReplay};
use super::trace::{TraceRecord, TraceRing};

/// An in-flight protocol message.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// The message.
    pub msg: Msg,
    /// The sender's Lamport stamp (trace metadata carried on the wire).
    pub lamport: u64,
}

/// An armed (not yet fired) timer.
#[derive(Clone, Debug)]
pub struct PendingTimer {
    /// Owning node.
    pub node: NodeId,
    /// Node-unique id (cancellation key).
    pub id: TimerId,
    /// Nominal expiry time.
    pub fire_at: SimTime,
    /// Payload.
    pub timer: Timer,
}

/// One schedulable event, as chosen by an explorer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverEvent {
    /// Deliver the `i`-th pending message.
    Deliver(usize),
    /// Fire the `i`-th pending timer.
    Fire(usize),
    /// Fail-stop a node.
    Crash(NodeId),
    /// Restart a crashed node.
    Recover(NodeId),
}

/// The cluster-wide pools shells release effects into.
#[derive(Clone, Debug, Default)]
struct Pools {
    messages: Vec<Envelope>,
    timers: Vec<PendingTimer>,
    outputs: Vec<(SimTime, NodeId, ProtocolEvent)>,
}

/// The pools as one node's [`Outbox`] at one instant.
struct Outlet<'a> {
    pools: &'a mut Pools,
    node: NodeId,
    now: SimTime,
}

impl Outbox for Outlet<'_> {
    fn send(&mut self, to: NodeId, msg: Msg, lamport: u64) {
        self.pools.messages.push(Envelope {
            from: self.node,
            to,
            msg,
            lamport,
        });
    }

    fn set_timer(&mut self, id: TimerId, delay: SimDuration, timer: Timer) {
        self.pools.timers.push(PendingTimer {
            node: self.node,
            id,
            fire_at: self.now + delay,
            timer,
        });
    }

    fn cancel_timer(&mut self, id: TimerId) {
        let node = self.node;
        self.pools
            .timers
            .retain(|t| !(t.node == node && t.id == id));
    }

    fn output(&mut self, event: ProtocolEvent) {
        self.pools.outputs.push((self.now, self.node, event));
    }
}

/// A cluster of node shells plus the pending-event pools they feed on.
#[derive(Clone, Debug)]
pub struct StepDriver {
    config: ProtocolConfig,
    shells: Vec<NodeShell>,
    now: SimTime,
    pools: Pools,
    /// Partition island id per node; nodes in different islands cannot
    /// exchange messages (deliveries bounce as `CallFailed`).
    partition: Vec<u8>,
}

impl StepDriver {
    /// Builds and boots an `n`-node cluster.
    pub fn new(n: usize, config: ProtocolConfig) -> Self {
        let mut driver = StepDriver {
            shells: (0..n as u32)
                .map(|id| NodeShell::new(NodeId(id), config.clone()))
                .collect(),
            config,
            now: SimTime::ZERO,
            pools: Pools::default(),
            partition: vec![0; n],
        };
        for id in 0..n as u32 {
            driver.start_node(NodeId(id));
        }
        driver
    }

    /// Current driver time (advances only when timers fire or the caller
    /// calls [`advance`](StepDriver::advance)).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Moves time forward without firing anything.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Submits a client request at `node`.
    pub fn inject(&mut self, node: NodeId, request: ClientRequest) {
        assert!(!self.is_down(node), "cannot inject at a down node");
        self.step_node(node, Input::External(request));
    }

    /// The in-flight messages, in send order.
    pub fn pending_messages(&self) -> &[Envelope] {
        &self.pools.messages
    }

    /// The armed timers, in arming order.
    pub fn pending_timers(&self) -> &[PendingTimer] {
        &self.pools.timers
    }

    /// Number of replicas in the cluster.
    pub fn cluster_size(&self) -> usize {
        self.shells.len()
    }

    /// True if `node` is currently crashed.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.shells[node.0 as usize].is_down()
    }

    /// Read access to a node's engine.
    pub fn node(&self, node: NodeId) -> &ReplicaNode {
        &self.shells[node.0 as usize].node
    }

    /// Protocol events emitted so far, in emission order.
    pub fn outputs(&self) -> &[(SimTime, NodeId, ProtocolEvent)] {
        &self.pools.outputs
    }

    /// The per-node framed journal of persisted deltas.
    pub fn journal(&self, node: NodeId) -> &FramedJournal {
        &self.shells[node.0 as usize].journal
    }

    /// Reconstructs `node`'s durable state purely from its journal.
    pub fn replay_journal(&self, node: NodeId) -> Durable {
        self.journal(node).replay(&self.config)
    }

    /// Checked replay of `node`'s journal: durable state plus the framing
    /// verdict (clean / torn tail / quarantined).
    pub fn replay_checked(&self, node: NodeId) -> FramedReplay {
        self.shells[node.0 as usize].replay_checked()
    }

    /// Arms a one-shot storage fault at `node`'s next journal flush.
    pub fn arm_storage_fault(&mut self, node: NodeId, kind: FaultKind) {
        self.shells[node.0 as usize]
            .failpoints
            .arm(sites::JOURNAL_APPEND, kind);
    }

    /// Sets a probabilistic storage-fault rate (per mille per flush) at
    /// `node`'s journal. Zero removes the rate.
    pub fn set_storage_fault_rate(&mut self, node: NodeId, kind: FaultKind, per_mille: u16) {
        self.shells[node.0 as usize]
            .failpoints
            .set_rate(sites::JOURNAL_APPEND, kind, per_mille);
    }

    /// Storage faults that actually fired at `node`, in order.
    pub fn fired_faults(&self, node: NodeId) -> &[FiredFault] {
        self.shells[node.0 as usize].failpoints.fired()
    }

    /// Splits the cluster into partition islands: `islands[i]` is node
    /// `i`'s island id, and messages between different islands bounce as
    /// `CallFailed` (the fail-stop notification — an unreachable peer is
    /// indistinguishable from a crashed one in this model).
    pub fn set_partition(&mut self, islands: Vec<u8>) {
        assert_eq!(islands.len(), self.shells.len(), "one island id per node");
        self.partition = islands;
    }

    /// Heals all partitions.
    pub fn heal_partition(&mut self) {
        self.partition = vec![0; self.shells.len()];
    }

    /// True if `a` and `b` can currently exchange messages.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.partition[a.0 as usize] == self.partition[b.0 as usize]
    }

    /// Delivers the `i`-th pending message. If the destination is down the
    /// message bounces as a `CallFailed` to its sender (the fail-stop
    /// notification of the paper's model); if the sender is down too, the
    /// bounce is dropped.
    ///
    /// Each delivery advances time by 1 µs, so completion timestamps
    /// strictly follow the injection timestamps of the requests that caused
    /// them (the real-time order the 1SR checker's recency rule relies on).
    pub fn deliver(&mut self, i: usize) {
        self.now += SimDuration::from_micros(1);
        let env = self.pools.messages.remove(i);
        if self.is_down(env.to) || !self.connected(env.from, env.to) {
            if !self.is_down(env.from) {
                self.step_node(
                    env.from,
                    Input::CallFailed {
                        to: env.to,
                        msg: env.msg,
                    },
                );
            }
        } else {
            self.step_node(
                env.to,
                Input::Deliver {
                    from: env.from,
                    msg: env.msg,
                    lamport: env.lamport,
                },
            );
        }
    }

    /// Fires the `i`-th pending timer, advancing time to its nominal expiry
    /// if that lies in the future.
    pub fn fire(&mut self, i: usize) {
        let t = self.pools.timers.remove(i);
        debug_assert!(!self.is_down(t.node), "down nodes hold no timers");
        self.now = self.now.max(t.fire_at);
        self.step_node(t.node, Input::TimerFired(t.timer));
    }

    /// Fail-stops `node`: volatile state, armed timers and any batch still
    /// coalescing are lost (the batch as a torn tail); in-flight messages
    /// to it will bounce on delivery.
    pub fn crash(&mut self, node: NodeId) {
        assert!(!self.is_down(node), "node already down");
        self.shells[node.0 as usize].crash(self.now);
        self.drop_timers(node);
    }

    /// Restarts a crashed node from its journal, exactly as a real host
    /// would: the engine's in-memory durable state is discarded and the
    /// checked replay decides how to boot. A clean or torn-tail journal
    /// boots normally (the torn tail is truncated first — it was never
    /// acknowledged). A quarantined journal boots into the stale-rejoin
    /// protocol: the longest intact prefix is installed, the damaged
    /// history is discarded, and the node re-enters the cluster stale.
    pub fn recover(&mut self, node: NodeId) {
        assert!(self.is_down(node), "node not down");
        self.start_node(node);
    }

    /// Runs a fixed, deterministic schedule for `d` of driver time: pending
    /// messages deliver immediately in send order; when none are pending,
    /// the earliest timer due within the window fires (ties broken by node
    /// then id). Returns once no message is in flight and no timer is due.
    ///
    /// This is the "zero-latency network, well-behaved clocks" schedule —
    /// useful as a baseline; the interleaving explorer exists precisely to
    /// try all the *other* schedules.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        loop {
            if !self.pools.messages.is_empty() {
                self.deliver(0);
                continue;
            }
            // Message pool drained: a real host's flush deadline
            // (`group_commit_max_delay`, ~ms) expires before any protocol
            // timer (~tens of ms), so the buffers flush before timers fire.
            if self.flush_group_commit() {
                continue;
            }
            let next = self
                .pools
                .timers
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| (t.fire_at, t.node.0, t.id.0))
                .map(|(i, t)| (i, t.fire_at));
            match next {
                Some((i, at)) if at <= deadline => self.fire(i),
                _ => break,
            }
        }
        self.now = deadline;
    }

    /// Applies one schedulable event.
    pub fn perform(&mut self, event: DriverEvent) {
        match event {
            DriverEvent::Deliver(i) => self.deliver(i),
            DriverEvent::Fire(i) => self.fire(i),
            DriverEvent::Crash(n) => self.crash(n),
            DriverEvent::Recover(n) => self.recover(n),
        }
    }

    fn step_node(&mut self, node: NodeId, input: Input) {
        self.drive(node, |shell, now, out| shell.step(now, input, out));
    }

    fn start_node(&mut self, node: NodeId) {
        self.drive(node, |shell, now, out| shell.start(now, out));
    }

    /// Runs one shell call with the pools as its outbox; a call that
    /// fail-stopped the node takes its armed timers with it.
    fn drive(
        &mut self,
        node: NodeId,
        call: impl FnOnce(&mut NodeShell, SimTime, &mut Outlet<'_>) -> bool,
    ) {
        let now = self.now;
        let mut out = Outlet {
            pools: &mut self.pools,
            node,
            now,
        };
        if !call(&mut self.shells[node.0 as usize], now, &mut out) {
            self.drop_timers(node);
        }
    }

    /// A down node holds no timers.
    fn drop_timers(&mut self, node: NodeId) {
        self.pools.timers.retain(|t| t.node != node);
    }

    /// Flushes every live node's group-commit buffer; returns true if any
    /// node had buffered deltas or deferred effects to release.
    pub fn flush_group_commit(&mut self) -> bool {
        let mut any = false;
        for id in 0..self.shells.len() as u32 {
            let shell = &self.shells[id as usize];
            if !shell.is_down() && shell.has_pending() {
                any = true;
                self.drive(NodeId(id), |shell, now, out| shell.flush(now, out));
            }
        }
        any
    }

    /// Journal flushes (header commits; fsyncs on a real host) performed
    /// by `node` so far. A write-through append is one flush.
    pub fn flushes(&self, node: NodeId) -> u64 {
        self.shells[node.0 as usize].flushes
    }

    /// Attaches a flight recorder of capacity `cap` to every node. Every
    /// engine transition and shell-level journal event from here on is
    /// retained (bounded, oldest dropped first). Tracing is observational:
    /// effects, journals, and digests are byte-identical with or without
    /// it.
    pub fn enable_tracing(&mut self, cap: usize) {
        for shell in &mut self.shells {
            shell.enable_tracing(cap);
        }
    }

    /// True once [`enable_tracing`](StepDriver::enable_tracing) ran.
    pub fn tracing_enabled(&self) -> bool {
        self.shells.iter().any(|s| s.trace_ring().is_some())
    }

    /// `node`'s flight recorder, if tracing is enabled.
    pub fn trace_ring(&self, node: NodeId) -> Option<&TraceRing> {
        self.shells[node.0 as usize].trace_ring()
    }

    /// All retained records, causally merged across nodes (empty when
    /// tracing is disabled).
    pub fn merged_trace(&self) -> Vec<TraceRecord> {
        let rings: Vec<&TraceRing> = self.shells.iter().filter_map(|s| s.trace_ring()).collect();
        super::trace::causal_merge(&rings)
    }

    /// A unified snapshot of the cluster's metrics: every shell's registry
    /// (engine counters plus its journal-flush counter) merged.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for shell in &self.shells {
            merged.merge(&shell.metrics());
        }
        merged
    }

    /// Deltas currently coalescing in `node`'s group-commit buffer.
    pub fn gc_buffered(&self, node: NodeId) -> usize {
        self.shells[node.0 as usize].buffered()
    }

    /// A deterministic digest of the cluster's logical state: engine states,
    /// liveness flags, the pending message/timer pools (order-insensitive,
    /// expiry-time-blind), and the output history. Two drivers with equal
    /// digests behave identically under equal future schedules, so an
    /// explorer can prune revisits.
    pub fn state_digest(&self) -> u64 {
        let mut repr = String::new();
        for (i, shell) in self.shells.iter().enumerate() {
            let _ = write!(
                repr,
                "n{i};down={};isl={};gcp={:?};gcd={:?};",
                shell.is_down(),
                self.partition[i],
                shell.pending_deltas(),
                shell.deferred()
            );
            canonical_node(&mut repr, &shell.node);
        }
        let mut msgs: Vec<String> = self
            .pools
            .messages
            .iter()
            .map(|e| format!("{}>{}:{:?}", e.from.0, e.to.0, e.msg))
            .collect();
        msgs.sort_unstable();
        let mut tmrs: Vec<String> = self
            .pools
            .timers
            .iter()
            .map(|t| format!("{}#{}:{:?}", t.node.0, t.id.0, t.timer))
            .collect();
        tmrs.sort_unstable();
        for s in msgs.iter().chain(tmrs.iter()) {
            repr.push_str(s);
            repr.push('\n');
        }
        let _ = write!(repr, "outs={}", self.pools.outputs.len());
        for (_, n, e) in &self.pools.outputs {
            let _ = write!(repr, ";{}:{e:?}", n.0);
        }
        fnv1a(repr.as_bytes())
    }
}

/// Writes a canonical (iteration-order-independent) textual form of one
/// engine's full state into `out`.
fn canonical_node(out: &mut String, node: &ReplicaNode) {
    let d = &node.durable;
    let _ = write!(
        out,
        "v={},st={},dv={},e={},el={:?},obj={:x},log=({},{}),prep={:?},opc={},lg={:?},qf={};",
        d.version,
        d.stale,
        d.dversion,
        d.enumber,
        d.elist,
        d.object.digest(),
        d.log.len(),
        d.log.newest_version(),
        d.prepared,
        d.op_counter,
        d.last_good,
        d.quarantine_fence,
    );
    // Durable/Volatile keyed state lives in BTree collections, so plain
    // iteration is already in canonical (ascending-key) order.
    let decisions: Vec<_> = d.decisions.iter().map(|(op, c)| (*op, *c)).collect();
    let _ = write!(out, "dec={decisions:?};");

    let v = &node.vol;
    let _ = write!(out, "lock={:?},", v.lock.exclusive_holder());
    let shared: Vec<_> = v.lock.shared_holders().collect();
    let _ = write!(out, "shared={shared:?};");
    let leases: Vec<_> = v.lock_leases.iter().map(|(op, id)| (*op, id.0)).collect();
    let _ = write!(out, "leases={leases:?};");
    sorted_map(out, "writes", &v.writes);
    let _ = write!(out, "write_queue={:?};", v.write_queue);
    sorted_map(out, "reads", &v.reads);
    sorted_map(out, "epochs", &v.epochs);
    let attempts: Vec<_> = v
        .propagator
        .attempts
        .iter()
        .map(|(n, a)| (*n, *a))
        .collect();
    let _ = write!(
        out,
        "prop=({:?},{:?},{attempts:?},{});inc={:?};pep={:?};",
        v.propagator.remaining,
        v.propagator.in_flight,
        v.propagator.kick_armed,
        v.incoming_prop,
        v.pending_epoch_prepare,
    );
    let retry: Vec<_> = v.decision_retry_armed.iter().copied().collect();
    let _ = write!(
        out,
        "eck=({:?},{},{});dra={retry:?};rej={:?};elec={:?};seq={};rng={:?};",
        v.last_epoch_check_seen,
        v.epoch_check_active,
        v.epoch_retry_armed,
        v.rejoin,
        v.election,
        node.timer_seq,
        node.rng,
    );
}

fn sorted_map<V: std::fmt::Debug>(
    out: &mut String,
    label: &str,
    map: &std::collections::BTreeMap<crate::msg::OpId, V>,
) {
    // BTreeMap iterates in key order, so the rendering is canonical as-is.
    let entries: Vec<_> = map.iter().collect();
    let _ = write!(out, "{label}={entries:?};");
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}
