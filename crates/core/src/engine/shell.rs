//! One node's host shell: the engine plus the durability rules every host
//! must apply identically.
//!
//! The paper's fail-stop model (§3) rests on one rule: what survives a
//! crash is exactly what was made stable, and no vote or acknowledgement
//! leaves a node before the state behind it is stable. A [`NodeShell`]
//! implements that rule once, for every host (the [`StepDriver`] and the
//! threaded runtime). It owns one node's
//! [`ReplicaNode`], its [`FramedJournal`], its group-commit buffer, the
//! observable effects held back behind that buffer, its storage
//! [`Failpoints`], an optional trace ring, and its flush counter.
//!
//! Hosts feed it [`Input`]s and receive, through an [`Outbox`], only the
//! effects they may release: sends, timer changes and outputs.
//! [`Effect::Persist`] never leaves the shell:
//!
//! * **Write-through** (`group_commit_max_batch <= 1`): each delta is
//!   appended and committed (one flush) before the rest of its step's
//!   effects are released.
//! * **Group commit**: deltas coalesce in a [`GroupCommitBuffer`] and are
//!   committed as one batch when the batch cap is reached or the host
//!   calls [`flush`](NodeShell::flush). While a delta is buffered, every
//!   send and output is deferred until the covering flush
//!   (ack-before-flush); timer changes stay immediate — they are local,
//!   and the engine tolerates spurious firings.
//! * **Faults**: the failpoint registry is consulted once per flush. A
//!   failed or torn flush fail-stops the node mid-step, dropping everything
//!   deferred behind it. A crash with a non-empty buffer leaves the batch on
//!   media as a torn tail.
//! * **Recovery**: [`start`](NodeShell::start) on a crashed shell replays
//!   the journal, truncates a torn tail (it was never acknowledged) or
//!   resets a quarantined journal to its intact prefix, installs the
//!   replayed state, and boots (normally, or into the stale-rejoin protocol
//!   after a quarantine).
//!
//! *When* to flush a non-full batch is host policy and stays with the host:
//! a zero-latency [`StepDriver`]'s caller flushes when its message pool
//! drains, a LAN `StepDriver` at the `group_commit_max_delay` deadline; the
//! threaded adapter (`JournaledNode`) flushes on an idle inbox or at the
//! `group_commit_max_delay` deadline. Wall-clock timing and the optional
//! `fdatasync` mirror also stay at the host boundary, so this module stays
//! free of clocks and files.
//!
//! [`StepDriver`]: super::driver::StepDriver

use coterie_base::{SimDuration, SimTime, TimerId};
use coterie_quorum::NodeId;

use crate::config::ProtocolConfig;
use crate::msg::{Msg, ProtocolEvent};
use crate::node::{ReplicaNode, Timer};

use super::codec::encode_delta;
use super::failpoint::{sites, Failpoints, FaultKind};
use super::io::{Effect, Input};
use super::metrics::{keys, MetricsRegistry};
use super::storage::{DurableDelta, FramedJournal, FramedReplay, GroupCommitBuffer, ReplayVerdict};
use super::trace::{ReplayClass, TraceEvent, TraceRecord, TraceRing, TraceSink};

/// Where a shell releases the effects its host may act on. The host maps
/// each call onto its substrate (a message pool, a network, a timer
/// service, an output log).
pub trait Outbox {
    /// Send `msg` to `to`; `lamport` is the sender's causal stamp, to be
    /// carried to the receiver's [`Input::Deliver`].
    fn send(&mut self, to: NodeId, msg: Msg, lamport: u64);
    /// Arm timer `id` to fire `timer` after `delay`.
    fn set_timer(&mut self, id: TimerId, delay: SimDuration, timer: Timer);
    /// Cancel timer `id` (a no-op if it already fired).
    fn cancel_timer(&mut self, id: TimerId);
    /// Emit an observable protocol event.
    fn output(&mut self, event: ProtocolEvent);
}

/// One node's engine, journal, group-commit state, failpoints and trace
/// ring (see the module docs). `Clone` forks the whole node, journal
/// included, so explorers can branch a cluster of shells.
#[derive(Clone, Debug)]
pub struct NodeShell {
    /// The engine.
    pub node: ReplicaNode,
    /// The framed journal: this node's only stable storage.
    pub journal: FramedJournal,
    /// Storage faults injected at the journal boundary.
    pub(crate) failpoints: Failpoints,
    /// Journal flushes (header commits; one `fsync` each on real storage)
    /// performed so far. A write-through append is one flush.
    pub flushes: u64,
    /// Deltas journaled but not yet committed (group commit).
    buffer: GroupCommitBuffer,
    /// Sends and outputs held back until the covering flush.
    deferred: Vec<Effect>,
    /// Optional bounded flight recorder.
    tracing: Option<TraceRing>,
    /// True between a crash (or fail-stop) and the next `start`.
    down: bool,
}

impl NodeShell {
    /// A shell around a pristine engine with an empty journal. Nothing runs
    /// until the host calls [`start`](NodeShell::start).
    pub fn new(me: NodeId, config: ProtocolConfig) -> Self {
        let fault_seed = config.seed ^ (u64::from(me.0) << 32);
        NodeShell {
            buffer: GroupCommitBuffer::new(config.group_commit_max_batch),
            node: ReplicaNode::new(me, config),
            journal: FramedJournal::new(),
            failpoints: Failpoints::new(fault_seed),
            flushes: 0,
            deferred: Vec::new(),
            tracing: None,
            down: false,
        }
    }

    /// Boots the node. On a crashed shell this is recovery: the journal is
    /// replayed (checked), a torn tail is truncated, a quarantined journal
    /// is reset to its intact prefix and the node boots into the
    /// stale-rejoin protocol. Returns false if the boot step fail-stopped.
    pub fn start(&mut self, now: SimTime, out: &mut impl Outbox) -> bool {
        if !std::mem::take(&mut self.down) {
            return self.step(now, Input::Boot, out);
        }
        let replay = self.journal.replay_checked(&self.node.config);
        let class = match &replay.verdict {
            ReplayVerdict::Clean => ReplayClass::Clean,
            ReplayVerdict::TornTail { .. } => ReplayClass::TornTail,
            ReplayVerdict::Quarantined { .. } => ReplayClass::Quarantined,
        };
        self.trace_host(now, TraceEvent::JournalReplay { class });
        let boot = if replay.verdict.is_bootable() {
            self.journal.truncate_tail();
            Input::Boot
        } else {
            self.journal.reset_to(&replay.durable, &self.node.config);
            Input::BootQuarantined
        };
        self.node.install_durable(replay.durable);
        self.step(now, boot, out)
    }

    /// Feeds one input to the engine and applies the durability rules to
    /// its effects, releasing what may leave into `out`. Returns false if
    /// the node fail-stopped (a flush fault); the host must then drop the
    /// node's armed timers and treat it as crashed until it restarts it.
    pub fn step(&mut self, now: SimTime, input: Input, out: &mut impl Outbox) -> bool {
        debug_assert!(!self.down, "a down node takes no input");
        for effect in self.engine_step(now, input) {
            if let Effect::Persist(delta) = effect {
                if self.buffer.push(*delta) && !self.flush(now, out) {
                    return false;
                }
            } else if self.buffer.is_empty()
                || !matches!(effect, Effect::Send { .. } | Effect::Output(_))
            {
                release(effect, out);
            } else {
                self.deferred.push(effect);
            }
        }
        true
    }

    /// Commits the buffered batch with one header write, then releases the
    /// effects deferred behind it in their original order. Returns false if
    /// a failpoint made the flush fail or tear: the node has fail-stopped
    /// and nothing deferred was released.
    pub fn flush(&mut self, now: SimTime, out: &mut impl Outbox) -> bool {
        if !self.buffer.is_empty() {
            let batch = self.buffer.pending();
            let records = batch.len() as u64;
            let fault = self.failpoints.check(sites::JOURNAL_APPEND);
            let committed = match fault {
                None => {
                    self.journal.append_batch(batch);
                    true
                }
                Some(FaultKind::AppendFail) => false,
                Some(FaultKind::TornWrite) => {
                    let keep = self.failpoints.draw(framed_len(batch)) as usize;
                    self.journal.append_batch_torn(batch, keep);
                    false
                }
                Some(FaultKind::BitFlip) => {
                    // Appends normally, then silently corrupts one journal
                    // bit: latent damage found by the next replay.
                    self.journal.append_batch(batch);
                    let byte = self.failpoints.draw(self.journal.bytes().len() as u64) as usize;
                    let bit = self.failpoints.draw(8) as u8;
                    self.journal.flip_bit(byte, bit);
                    true
                }
            };
            self.buffer.clear();
            if let Some(kind) = fault {
                self.trace_host(now, TraceEvent::FailpointTrip { kind });
            }
            if !committed {
                // The batch never became stable, so nothing behind it may
                // be observed: fail-stop exactly like a crash between the
                // disk write and the acks it would have covered.
                self.fail_stop(now);
                return false;
            }
            self.flushes += 1;
            let event = if self.node.config.group_commit_max_batch <= 1 {
                TraceEvent::JournalAppend { records }
            } else {
                TraceEvent::JournalFlush { records }
            };
            self.trace_host(now, event);
        }
        for effect in self.deferred.drain(..) {
            release(effect, out);
        }
        true
    }

    /// Fail-stops the node: volatile state is lost, and a batch still
    /// coalescing reaches media only as a torn tail (some prefix of its
    /// bytes, count never bumped). Replay drops it, which is correct
    /// because everything it covered was still deferred.
    pub fn crash(&mut self, now: SimTime) {
        debug_assert!(!self.down, "node already down");
        if !self.buffer.is_empty() {
            let batch = self.buffer.pending();
            let keep = self.failpoints.draw(framed_len(batch)) as usize;
            self.journal.append_batch_torn(batch, keep);
            self.buffer.clear();
        }
        self.fail_stop(now);
    }

    fn fail_stop(&mut self, now: SimTime) {
        self.deferred.clear();
        self.down = true;
        // A crash only wipes volatile state: it emits no effects.
        let _ = self.engine_step(now, Input::Crash);
    }

    fn engine_step(&mut self, now: SimTime, input: Input) -> Vec<Effect> {
        match self.tracing.as_mut() {
            Some(ring) => self.node.step_traced(now, input, ring),
            None => self.node.step(now, input),
        }
    }

    /// True between a crash (or fail-stop) and the next `start`.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Deltas buffered and not yet committed.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// True if a [`flush`](NodeShell::flush) would commit or release
    /// anything.
    pub(crate) fn has_pending(&self) -> bool {
        !self.buffer.is_empty() || !self.deferred.is_empty()
    }

    /// The buffered deltas (state digests).
    pub(crate) fn pending_deltas(&self) -> &[DurableDelta] {
        self.buffer.pending()
    }

    /// The deferred sends and outputs (state digests).
    pub(crate) fn deferred(&self) -> &[Effect] {
        &self.deferred
    }

    /// Checked replay of the journal as it stands: durable state plus the
    /// framing verdict.
    pub fn replay_checked(&self) -> FramedReplay {
        self.journal.replay_checked(&self.node.config)
    }

    /// Attaches a flight recorder keeping the last `cap` trace records.
    /// Tracing is observational: effects, journal bytes and digests are
    /// identical with or without it.
    pub fn enable_tracing(&mut self, cap: usize) {
        self.tracing = Some(TraceRing::new(cap));
    }

    /// The flight recorder, if tracing is enabled.
    pub fn trace_ring(&self) -> Option<&TraceRing> {
        self.tracing.as_ref()
    }

    /// The engine's metrics plus this shell's journal-flush counter.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut merged = self.node.stats.clone();
        merged.add(keys::JOURNAL_FLUSHES, self.flushes);
        merged
    }

    /// Stamps and records a shell-level event (journal flush or replay,
    /// failpoint trip). A no-op without a recorder: host events, unlike
    /// engine events, consume no sequence number in untraced runs, which
    /// nothing there can observe.
    fn trace_host(&mut self, at: SimTime, event: TraceEvent) {
        if let Some(ring) = self.tracing.as_mut() {
            let (seq, lamport) = self.node.trace_stamp();
            ring.record(TraceRecord {
                at,
                node: self.node.me,
                seq,
                lamport,
                event,
            });
        }
    }
}

impl std::ops::Deref for NodeShell {
    type Target = ReplicaNode;

    fn deref(&self) -> &ReplicaNode {
        &self.node
    }
}

/// Hands one released effect to the host.
fn release(effect: Effect, out: &mut impl Outbox) {
    match effect {
        Effect::Send { to, msg, lamport } => out.send(to, msg, lamport),
        Effect::SetTimer { id, delay, timer } => out.set_timer(id, delay, timer),
        Effect::CancelTimer(id) => out.cancel_timer(id),
        Effect::Output(event) => out.output(event),
        // Deltas go to the journal, never to the host.
        Effect::Persist(_) => {}
    }
}

/// On-media size of `batch`'s framed records (the range a torn write cuts).
fn framed_len(batch: &[DurableDelta]) -> u64 {
    batch.iter().map(|d| encode_delta(d).len() as u64 + 8).sum()
}
