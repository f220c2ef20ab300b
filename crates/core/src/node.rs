//! The replica node: durable and volatile state. The event dispatch that
//! drives the protocol lives in [`crate::engine::step`] (the sans-I/O
//! [`ReplicaNode::step`] entry point); hosts adapt it to their substrate
//! (see the `simnet-host` feature).

use crate::config::ProtocolConfig;
use crate::election::ElectionState;
use crate::engine::metrics::{keys, MetricsRegistry};
use crate::engine::rng::Rng64;
use crate::engine::trace::TraceEvent;
use crate::epoch::EpochCoordinator;
use crate::locks::ReplicaLock;
use crate::msg::{Action, ClientRequest, OpId};
use crate::propagate::{IncomingProp, Propagator};
use crate::read::ReadCoordinator;
use crate::store::{PagedObject, WriteLog};
use crate::write::{BatchEntry, WriteCoordinator};
use coterie_base::{SimDuration, SimTime, TimerId};
use coterie_quorum::{NodeId, PlanCache, View};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Timers used by the protocol.
#[derive(Clone, Debug)]
pub enum Timer {
    /// Permission-phase collection timeout for a coordinated operation.
    Collect {
        /// The operation.
        op: OpId,
    },
    /// Two-phase-commit vote timeout.
    Votes {
        /// The operation.
        op: OpId,
    },
    /// Read fetch timeout.
    Fetch {
        /// The operation.
        op: OpId,
    },
    /// Retry a failed client request after contention backoff.
    RetryClient {
        /// Attempt number (1-based for the first retry).
        attempt: u32,
        /// The original request to re-run.
        request: ClientRequest,
    },
    /// Server-side lock lease expiry.
    LockLease {
        /// The holding operation.
        op: OpId,
    },
    /// Periodic check: should this node initiate an epoch check?
    EpochTick,
    /// One-shot fast retry after an aborted epoch change (does not re-arm
    /// the periodic chain).
    EpochRetry,
    /// Continue the propagation task.
    PropKick,
    /// Backoff expiry for a requeued (refused) write batch: release the
    /// held write queue and launch the next round.
    WriteQueueKick,
    /// A propagation offer or transfer went unanswered.
    PropTimeout {
        /// The propagation attempt.
        prop: OpId,
    },
    /// Target-side guard: a permitted propagation never completed.
    PropLease {
        /// The propagation attempt.
        prop: OpId,
    },
    /// A recovered participant re-asks the coordinator for an outcome.
    DecisionRetry {
        /// The in-doubt operation.
        op: OpId,
    },
    /// A quarantined replica re-polls peers that have not answered its
    /// rejoin query (see [`crate::rejoin`]).
    RejoinRetry,
    /// Bully election: answer/announcement window elapsed.
    ElectionTimeout {
        /// The challenge round.
        round: OpId,
    },
    /// Group-commit flush deadline. *Host-owned*: the engine never sets or
    /// handles this timer — the simnet host adapter (`JournaledNode`) arms
    /// it (with a reserved [`TimerId`]) when a delta starts waiting for
    /// companions and intercepts its expiry to flush. It lives in this enum
    /// only so hosts can express it through the ordinary timer plumbing.
    HostFlush,
}

/// State that survives crashes (the paper's per-node protocol state of
/// §4 — version number, epoch number, stale flag, desired version, epoch
/// list — plus the object, the propagation log, and the 2PC artifacts that
/// textbook atomic commit requires to be durable).
#[derive(Clone, Debug, PartialEq)]
pub struct Durable {
    /// Replica version number.
    pub version: u64,
    /// Stale-data flag.
    pub stale: bool,
    /// Desired version number (meaningful only when `stale`).
    pub dversion: u64,
    /// Epoch number.
    pub enumber: u64,
    /// The epoch list (current epoch members, name-ordered).
    pub elist: Vec<NodeId>,
    /// The data item.
    pub object: PagedObject,
    /// Recent writes, for incremental propagation.
    pub log: WriteLog,
    /// A prepared-but-undecided 2PC action, if any. At most one can exist
    /// because preparing requires the exclusive replica lock.
    pub prepared: Option<(OpId, Action)>,
    /// Commit/abort decisions this node made as a 2PC coordinator.
    pub decisions: BTreeMap<OpId, bool>,
    /// Monotonic operation counter (durable so op ids stay unique).
    pub op_counter: u64,
    /// Good list recorded by the most recent write this replica
    /// participated in (safety-threshold extension, §4.1).
    pub last_good: Vec<NodeId>,
    /// Amnesia fence after a journal quarantine: 2PC decision records for
    /// ops this node coordinated with `seq <= quarantine_fence` may have
    /// been lost with the corrupt journal suffix, so decision queries for
    /// such ops (absent from [`decisions`](Durable::decisions)) must stay
    /// *silent* rather than presume abort — a lost commit record presumed
    /// aborted would let a later read miss an acknowledged write. Zero
    /// means the journal has never been quarantined.
    pub quarantine_fence: u64,
    /// True from a quarantined boot until the stale-rejoin handshake
    /// completes. Durable because the handshake itself is not: a crash
    /// during rejoin limbo can replay *clean* (the quarantined boot's own
    /// delta healed the journal), and a normal boot would otherwise resume
    /// as an ordinary stale node whose desired version never received the
    /// rejoin safety bound — the one replica that knows about a lost write
    /// would silently stop looking for it. While set, every boot re-enters
    /// the rejoin poll, and the replica stays in limbo (refusing
    /// permission requests, propagation offers, and 2PC prepares) until
    /// [`finish_rejoin`](crate::rejoin) clears it.
    pub rejoin_pending: bool,
}

impl Durable {
    /// The pristine durable state a node has before its first write: the
    /// base state journal replay starts from.
    pub fn pristine(config: &ProtocolConfig) -> Self {
        Durable {
            version: 0,
            stale: false,
            dversion: 0,
            enumber: 0,
            elist: (0..config.n_replicas as u32).map(NodeId).collect(),
            object: PagedObject::new(config.n_pages),
            log: WriteLog::new(config.log_cap),
            prepared: None,
            decisions: BTreeMap::new(),
            op_counter: 0,
            last_good: Vec::new(),
            quarantine_fence: 0,
            rejoin_pending: false,
        }
    }

    /// The epoch list as a [`View`].
    pub fn epoch_view(&self) -> View {
        View::new(self.elist.iter().copied())
    }
}

/// State wiped by a crash.
///
/// Keyed collections here are `BTreeMap`/`BTreeSet`, never hash maps:
/// timer-expiry handlers and shutdown paths iterate them, and that
/// iteration feeds `Effect` ordering and the explorer's state digests.
/// The engine contract is *same inputs ⇒ byte-identical effects*, which a
/// randomly seeded hash order would silently break (enforced by
/// `coterie-lint`'s `determinism` rule).
#[derive(Debug, Default)]
pub struct Volatile {
    /// The replica lock.
    pub lock: ReplicaLock,
    /// Lock-lease timers, by holder.
    pub lock_leases: BTreeMap<OpId, TimerId>,
    /// Write operations this node is coordinating.
    pub writes: BTreeMap<OpId, WriteCoordinator>,
    /// Client writes waiting to ride the next write round
    /// (coordinator-side batching, DESIGN.md §10). Volatile: a queued write
    /// was never acked, so losing the queue in a crash is a client-visible
    /// timeout, not a durability violation.
    pub write_queue: VecDeque<BatchEntry>,
    /// True while a refused batch sits requeued under contention backoff:
    /// the queue launcher stays quiet until the [`Timer::WriteQueueKick`]
    /// releases it, so the whole batch (plus anything that queued
    /// meanwhile) relaunches as one round instead of fragmenting into
    /// per-client retries.
    pub write_queue_held: bool,
    /// Read operations this node is coordinating.
    pub reads: BTreeMap<OpId, ReadCoordinator>,
    /// Epoch checks this node is coordinating.
    pub epochs: BTreeMap<OpId, EpochCoordinator>,
    /// Outgoing propagation state.
    pub propagator: Propagator,
    /// Incoming (target-side) propagation state.
    pub incoming_prop: Option<IncomingProp>,
    /// A `NewEpoch` prepare waiting for the replica lock. Epoch prepares
    /// are the only lock waiters in the system: writes and reads stay
    /// no-wait, so no hold-and-wait cycle (and hence no deadlock) can
    /// form, while epoch changes stop starving under write load.
    pub pending_epoch_prepare: Option<(OpId, NodeId, Action)>,
    /// When this node last saw an epoch check (initiation suppression).
    pub last_epoch_check_seen: Option<SimTime>,
    /// True while this node has an epoch check of its own in flight.
    pub epoch_check_active: bool,
    /// True while a one-shot epoch retry timer is pending.
    pub epoch_retry_armed: bool,
    /// Ops with a pending decision-retry timer (prevents duplicate chains).
    pub decision_retry_armed: BTreeSet<OpId>,
    /// Bully-election state (used when `initiator` is `Bully`).
    pub election: ElectionState,
    /// In-progress stale-rejoin after a quarantined boot (see
    /// [`crate::rejoin`]). While set, this replica refuses propagation
    /// offers and 2PC prepares — its desired version is not yet known.
    pub rejoin: Option<crate::rejoin::RejoinState>,
    /// Compiled quorum plans, keyed by epoch member set. Purely a cache:
    /// rebuilt on demand after a crash, and stale entries for dead epochs
    /// are harmless (they are simply never looked up again).
    pub plans: PlanCache,
}

impl Clone for Volatile {
    fn clone(&self) -> Self {
        Volatile {
            lock: self.lock.clone(),
            lock_leases: self.lock_leases.clone(),
            writes: self.writes.clone(),
            write_queue: self.write_queue.clone(),
            write_queue_held: self.write_queue_held,
            reads: self.reads.clone(),
            epochs: self.epochs.clone(),
            propagator: self.propagator.clone(),
            incoming_prop: self.incoming_prop.clone(),
            pending_epoch_prepare: self.pending_epoch_prepare.clone(),
            last_epoch_check_seen: self.last_epoch_check_seen,
            epoch_check_active: self.epoch_check_active,
            epoch_retry_armed: self.epoch_retry_armed,
            decision_retry_armed: self.decision_retry_armed.clone(),
            election: self.election.clone(),
            rejoin: self.rejoin.clone(),
            // A pure cache: cloning an empty one is always correct, and the
            // clone (driver forks in the interleaving explorer) rebuilds
            // plans on demand.
            plans: PlanCache::default(),
        }
    }
}

/// A replica node running the dynamic structured coterie protocol.
///
/// This is the sans-I/O engine: feed it [`Input`](crate::engine::Input)s
/// via [`step`](ReplicaNode::step) and apply the returned
/// [`Effect`](crate::engine::Effect)s. `Clone` forks the entire machine —
/// the interleaving explorer uses this to branch schedules.
#[derive(Clone, Debug)]
pub struct ReplicaNode {
    /// This node's name.
    pub me: NodeId,
    /// Shared configuration.
    pub config: ProtocolConfig,
    /// Crash-surviving state.
    pub durable: Durable,
    /// Crash-wiped state.
    pub vol: Volatile,
    /// Run-long counters and histograms, keyed by [`keys`]. Measurement
    /// only: not protocol state, and kept across crashes so readers see
    /// totals for the whole run.
    pub stats: MetricsRegistry,
    /// Engine-owned deterministic RNG (jitter): seeded from
    /// `config.seed ^ me`, advanced only by protocol draws.
    pub(crate) rng: Rng64,
    /// Monotonic timer-id allocator; node-unique for the engine's lifetime.
    pub(crate) timer_seq: u64,
    /// Lamport causal counter: ticked on every send, merged on every
    /// delivery. Carried on the wire (see
    /// [`Effect::Send`](crate::engine::Effect::Send)) so trace records
    /// from different nodes order causally. Advances identically whether
    /// or not a trace sink is attached.
    pub(crate) lamport: u64,
    /// Per-node monotonic trace sequence counter (survives crashes, like
    /// the stats — it is measurement state, not protocol state).
    pub(crate) trace_seq: u64,
    /// Shadow copy of [`durable`](ReplicaNode::durable) as of the last
    /// emitted `Persist`, used to diff out per-step deltas.
    pub(crate) shadow: Durable,
}

/// Context threaded through all protocol handlers (engine-owned).
pub use crate::engine::ctx::NodeCtx;

impl ReplicaNode {
    /// Creates a node with pristine durable state.
    pub fn new(me: NodeId, config: ProtocolConfig) -> Self {
        let durable = Durable::pristine(&config);
        ReplicaNode {
            me,
            rng: Rng64::new(config.seed ^ u64::from(me.0)),
            config,
            shadow: durable.clone(),
            durable,
            vol: Volatile::default(),
            stats: MetricsRegistry::new(),
            timer_seq: 0,
            lamport: 0,
            trace_seq: 0,
        }
    }

    /// The node's current Lamport counter (trace metadata).
    pub fn lamport(&self) -> u64 {
        self.lamport
    }

    /// Stamps a host-level trace event: ticks the per-node sequence
    /// counter and returns `(seq, lamport)`. Hosts use this for events the
    /// engine cannot see (journal appends/flushes/replays, failpoint
    /// trips) so their records interleave correctly with engine-emitted
    /// ones.
    pub fn trace_stamp(&mut self) -> (u64, u64) {
        self.trace_seq += 1;
        (self.trace_seq, self.lamport)
    }

    /// Replaces the durable state wholesale — the recovery path for hosts
    /// that reconstruct it from stable storage
    /// (see [`FramedJournal::replay`](crate::engine::FramedJournal::replay))
    /// instead of trusting the in-memory copy. Resets the persistence
    /// shadow so the next step diffs against the installed state.
    pub fn install_durable(&mut self, durable: Durable) {
        self.shadow = durable.clone();
        self.durable = durable;
    }

    /// Allocates a fresh operation id.
    pub fn next_op(&mut self) -> OpId {
        self.durable.op_counter += 1;
        OpId {
            node: self.me,
            seq: self.durable.op_counter,
        }
    }

    /// All replica names.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        (0..self.config.n_replicas as u32).map(NodeId).collect()
    }

    /// Arms (or re-arms) the lock lease for `op`.
    pub fn arm_lock_lease(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let lease = self.config.lock_lease;
        let id = ctx.set_timer(lease, Timer::LockLease { op });
        self.vol.lock_leases.insert(op, id);
    }

    /// Releases `op`'s lock and lease bookkeeping, then hands the lock to
    /// a waiting epoch prepare if one is queued.
    pub fn release_lock(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        self.vol.lock.release(op);
        ctx.trace(TraceEvent::LockRelease { op });
        if let Some(timer) = self.vol.lock_leases.remove(&op) {
            ctx.cancel_timer(timer);
        }
        self.grant_pending_epoch_prepare(ctx);
    }

    pub(crate) fn handle_lock_lease(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        self.vol.lock_leases.remove(&op);
        // Never break a prepared transaction's lock: 2PC blocks until the
        // outcome is known (textbook behaviour).
        if let Some((prep_op, _)) = &self.durable.prepared {
            if *prep_op == op {
                self.arm_lock_lease(ctx, op);
                return;
            }
        }
        self.vol.lock.release(op);
        ctx.trace(TraceEvent::LockRelease { op });
        self.grant_pending_epoch_prepare(ctx);
    }
}

impl ReplicaNode {
    /// Entry point for client requests (and their retries).
    pub fn start_client_request(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        request: ClientRequest,
        attempt: u32,
    ) {
        if attempt > 0 {
            self.stats.inc(keys::RETRIES);
        }
        match request {
            ClientRequest::Read { id } => self.start_read(ctx, id, attempt),
            ClientRequest::Write { id, write } => self.start_write(ctx, id, write, attempt),
        }
    }

    /// Arms the decision-retry chain for `op`, at most one chain per op.
    pub(crate) fn arm_decision_retry(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        if self.vol.decision_retry_armed.insert(op) {
            let retry = self.config.decision_retry;
            ctx.set_timer(retry, Timer::DecisionRetry { op });
        }
    }

    /// Jittered exponential backoff before retry `attempt`.
    pub fn backoff(&self, ctx: &mut NodeCtx<'_>, attempt: u32) -> SimDuration {
        let base = self.config.retry_backoff;
        let scaled = base * (1u64 << attempt.min(6));
        scaled + SimDuration::from_micros(ctx.rand_below(scaled.micros().max(1)))
    }
}
