//! The write coordinator (§4.1 of the paper and its Appendix pseudo-code).
//!
//! Light path: ask a quorum over the coordinator's epoch list for
//! permission; if the granted responses include a write quorum over the
//! maximum-epoch list and contain a current replica, apply the write to the
//! current ("good") replicas and mark the rest stale, under two-phase
//! commit. Otherwise fall back to `HeavyProcedure`: poll *all* replicas and
//! re-evaluate; if even that fails, abort — "there is no reason to wait for
//! possible epoch change because such an operation can succeed only if it
//! can obtain a quorum as well".
//!
//! The [`WriteMode::WriteAllCurrent`](crate::config::WriteMode) baseline
//! implements the conventional partial-write discipline the paper argues
//! against: a write needs a quorum of *current* replicas, so obsolete
//! quorum members must be synchronously reconciled first.

use crate::classify::Classified;
use crate::config::WriteMode;
use crate::engine::metrics::keys;
use crate::engine::trace::TraceEvent;
use crate::msg::{Action, ClientRequest, FailReason, Msg, OpId, ProtocolEvent, StateTuple};
use crate::node::{NodeCtx, ReplicaNode, Timer};
use crate::store::PartialWrite;
use bytes::Bytes;
use coterie_base::TimerId;
use coterie_quorum::{quorum_seed, NodeId, NodeSet, QuorumKind};
use std::collections::BTreeMap;

/// Phase of a coordinated write.
#[derive(Clone, Debug)]
pub enum WPhase {
    /// Gathering permission-phase responses.
    Collect,
    /// Write-all-current baseline: fetching a reconciliation snapshot from
    /// a current replica before committing.
    FetchBase {
        /// Evaluated responses that triggered the reconciliation.
        classified: Classified,
        /// Obsolete quorum members to reconcile.
        targets: Vec<NodeId>,
        /// The snapshot source.
        source: NodeId,
        /// Fetch timeout.
        timer: TimerId,
    },
    /// Two-phase commit in progress.
    Voting {
        /// Required participants (the quorum responders); all must vote yes.
        participants: Vec<NodeId>,
        /// Required participants that voted yes so far.
        yes: NodeSet,
        /// Best-effort extra current replicas (§4.1 safety threshold);
        /// their no-votes and failures are ignored.
        optional: Vec<NodeId>,
        /// Optional participants that voted yes.
        optional_yes: NodeSet,
        /// The version this write produces.
        new_version: u64,
        /// Nodes being marked stale.
        stale: Vec<NodeId>,
        /// Vote timeout.
        timer: TimerId,
    },
}

/// One client write riding in a (possibly batched) write round.
#[derive(Clone, Debug)]
pub struct BatchEntry {
    /// The client request id (echoed in the response).
    pub client_id: u64,
    /// The write payload.
    pub write: PartialWrite,
    /// Retry attempt (0 for the first try).
    pub attempt: u32,
}

/// Volatile state of one coordinated write round.
#[derive(Clone, Debug)]
pub struct WriteCoordinator {
    /// The operation id.
    pub op: OpId,
    /// The client writes committing in this round, in commit order: entry
    /// `i` produces version `new_version - batch.len() + 1 + i`. A single
    /// entry is the unbatched case; more is coordinator-side write
    /// batching (DESIGN.md §10).
    pub batch: Vec<BatchEntry>,
    /// How many consecutive rounds (this one included) have run under one
    /// permission phase; 0 means this round ran its own permission phase.
    /// Bounded by [`pipeline_window`](crate::config::ProtocolConfig::pipeline_window).
    pub chain_len: u32,
    /// Current phase.
    pub phase: WPhase,
    /// Granted (locked) responses by node.
    pub granted: BTreeMap<NodeId, StateTuple>,
    /// Nodes that answered but refused the lock (busy).
    pub refused: NodeSet,
    /// Nodes that failed (`RPC.CallFailed` or collection timeout).
    pub failed: NodeSet,
    /// Nodes polled so far.
    pub polled: NodeSet,
    /// Whether `HeavyProcedure` has run.
    pub heavy: bool,
    /// Collection timeout, while in `Collect`.
    pub collect_timer: Option<TimerId>,
}

impl WriteCoordinator {
    fn answered(&self) -> NodeSet {
        NodeSet::from_iter(self.granted.keys().copied())
            .union(self.refused)
            .union(self.failed)
    }

    fn collect_done(&self) -> bool {
        self.polled.is_subset_of(self.answered())
    }
}

impl ReplicaNode {
    /// Starts coordinating a client write. With batching enabled, a write
    /// arriving while another round is in flight queues instead of opening
    /// a competing round against the same replicas; the queue drains into
    /// the next round (one permission phase and one 2PC for the whole
    /// batch) when the in-flight round finishes.
    pub(crate) fn start_write(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        client_id: u64,
        write: PartialWrite,
        attempt: u32,
    ) {
        let entry = BatchEntry {
            client_id,
            write,
            attempt,
        };
        if self.config.max_write_batch > 1 && self.config.write_mode == WriteMode::StaleMarking {
            // Batched mode: every write goes through the queue, so an
            // arrival coalesces with an in-flight round's successors and
            // with a requeued batch waiting out its backoff.
            self.vol.write_queue.push_back(entry);
            self.maybe_launch_queued(ctx);
            return;
        }
        self.begin_write_round(ctx, vec![entry]);
    }

    /// Launches the next queued batch if no round is in flight and the
    /// queue is not held under contention backoff.
    pub(crate) fn maybe_launch_queued(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.vol.write_queue.is_empty()
            || self.vol.write_queue_held
            || !self.vol.writes.is_empty()
        {
            return;
        }
        let take = self
            .config
            .max_write_batch
            .max(1)
            .min(self.vol.write_queue.len());
        let batch: Vec<BatchEntry> = self.vol.write_queue.drain(..take).collect();
        self.begin_write_round(ctx, batch);
    }

    /// Opens a write round (permission phase) for `batch`.
    fn begin_write_round(&mut self, ctx: &mut NodeCtx<'_>, batch: Vec<BatchEntry>) {
        let op = self.next_op();
        let view = self.durable.epoch_view();
        let seed = quorum_seed(self.me, op.seq);
        // The quorum function; under write-all-current the conventional
        // discipline polls everyone up front (§1: "the coordinator must
        // either perform the write on all accessible replicas ...").
        let quorum = match self.config.write_mode {
            WriteMode::StaleMarking => {
                self.config
                    .rule
                    .pick_quorum(&view, view.set(), seed, QuorumKind::Write)
            }
            WriteMode::WriteAllCurrent => Some(NodeSet::from_iter(self.all_nodes())),
        };
        let Some(quorum) = quorum else {
            for entry in batch {
                self.stats.inc(keys::WRITES_FAILED);
                ctx.output(ProtocolEvent::Failed {
                    id: entry.client_id,
                    reason: FailReason::NoQuorum,
                });
            }
            // No round went in flight, so nothing will complete later to
            // drain the queue; give queued writes their own (terminal)
            // evaluation now. Bounded: every recursion drains the queue.
            self.maybe_launch_queued(ctx);
            return;
        };
        let timeout = self.config.collect_timeout;
        let timer = ctx.set_timer(timeout, Timer::Collect { op });
        let wc = WriteCoordinator {
            op,
            batch,
            chain_len: 0,
            phase: WPhase::Collect,
            granted: BTreeMap::new(),
            refused: NodeSet::new(),
            failed: NodeSet::new(),
            polled: quorum,
            heavy: matches!(self.config.write_mode, WriteMode::WriteAllCurrent),
            collect_timer: Some(timer),
        };
        for node in quorum.iter() {
            ctx.send(node, Msg::WriteReq { op });
        }
        self.vol.writes.insert(op, wc);
    }

    /// A permission response for a write op.
    pub(crate) fn write_state_resp(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        op: OpId,
        granted: bool,
        state: StateTuple,
    ) {
        let Some(wc) = self.vol.writes.get_mut(&op) else {
            return;
        };
        if !matches!(wc.phase, WPhase::Collect) {
            return; // late response; the lock lease will clean up
        }
        if granted {
            wc.granted.insert(state.node, state);
        } else {
            wc.refused.insert(state.node);
        }
        if wc.collect_done() {
            self.evaluate_write(ctx, op);
        }
    }

    /// `RPC.CallFailed` for a write permission request.
    pub(crate) fn on_write_peer_failed(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, to: NodeId) {
        let Some(wc) = self.vol.writes.get_mut(&op) else {
            return;
        };
        if !matches!(wc.phase, WPhase::Collect) {
            return;
        }
        wc.failed.insert(to);
        if wc.collect_done() {
            self.evaluate_write(ctx, op);
        }
    }

    /// Permission-phase timeout: treat silent nodes as failed.
    pub(crate) fn write_collect_timeout(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let Some(wc) = self.vol.writes.get_mut(&op) else {
            return;
        };
        if !matches!(wc.phase, WPhase::Collect) {
            return;
        }
        wc.collect_timer = None;
        let silent = wc.polled.difference(wc.answered());
        wc.failed = wc.failed.union(silent);
        self.evaluate_write(ctx, op);
    }

    /// The decision core: the paper's `Write` / `HeavyProcedure` branches.
    fn evaluate_write(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let Some(wc) = self.vol.writes.get_mut(&op) else {
            return;
        };
        if let Some(t) = wc.collect_timer.take() {
            ctx.cancel_timer(t);
        }
        let classified = Classified::evaluate(
            &*self.config.rule,
            &mut self.vol.plans,
            &wc.granted,
            QuorumKind::Write,
        );
        match classified {
            Some(c) if c.has_quorum => {
                if !c.has_current_replica() {
                    // "RESPONSES do not contain the response from a current
                    // replica": HeavyProcedure, or abort if already heavy.
                    if wc.heavy {
                        self.finish_write_fail(ctx, op, FailReason::NoCurrentReplica);
                    } else {
                        self.go_heavy_write(ctx, op);
                    }
                    return;
                }
                match self.config.write_mode {
                    WriteMode::StaleMarking => self.start_write_commit(ctx, op, c),
                    WriteMode::WriteAllCurrent => self.start_wac_commit(ctx, op, c),
                }
            }
            _ => {
                if wc.heavy {
                    // Terminal: decide between a retryable contention
                    // failure and a hard quorum failure.
                    let reason = self.write_failure_reason(op);
                    self.finish_write_fail(ctx, op, reason);
                } else if self.write_failure_reason(op) == FailReason::Contention {
                    // Busy (not failed) replicas blocked the quorum. The
                    // heavy procedure exists for *failures*; contention is
                    // better served by releasing everything and retrying
                    // the light path after backoff.
                    self.finish_write_fail(ctx, op, FailReason::Contention);
                } else {
                    self.go_heavy_write(ctx, op);
                }
            }
        }
    }

    /// Would the refused (busy) nodes have completed a quorum? Then the
    /// failure is contention and worth retrying.
    fn write_failure_reason(&mut self, op: OpId) -> FailReason {
        let Some(wc) = self.vol.writes.get(&op) else {
            return FailReason::NoQuorum;
        };
        let optimistic: BTreeMap<NodeId, StateTuple> = wc
            .granted
            .values()
            .cloned()
            .chain(wc.refused.iter().map(|n| StateTuple {
                node: n,
                version: 0,
                dversion: 0,
                stale: false,
                elist: self.durable.elist.clone(),
                enumber: self.durable.enumber,
                last_good: Vec::new(),
                wlocked: false,
                prepared_version: None,
            }))
            .map(|s| (s.node, s))
            .collect();
        match Classified::evaluate(
            &*self.config.rule,
            &mut self.vol.plans,
            &optimistic,
            QuorumKind::Write,
        ) {
            Some(c) if c.has_quorum && !wc.refused.is_empty() => FailReason::Contention,
            _ => FailReason::NoQuorum,
        }
    }

    /// `HeavyProcedure`: poll every replica not yet polled and re-evaluate.
    fn go_heavy_write(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        self.stats.inc(keys::HEAVY_RUNS);
        let all = NodeSet::from_iter(self.all_nodes());
        let Some(wc) = self.vol.writes.get_mut(&op) else {
            return;
        };
        wc.heavy = true;
        let remaining = all.difference(wc.polled);
        if remaining.is_empty() {
            // Nothing new to ask: re-evaluate terminally.
            self.evaluate_write(ctx, op);
            return;
        }
        wc.polled = all;
        let timeout = self.config.collect_timeout;
        wc.collect_timer = Some(ctx.set_timer(timeout, Timer::Collect { op }));
        for node in remaining.iter() {
            ctx.send(node, Msg::WriteReq { op });
        }
    }

    /// Stale-marking commit: `do-update` to GOOD, `mark-stale` to STALE,
    /// under 2PC — plus the §4.1 safety-threshold extras: when GOOD is
    /// smaller than the threshold, additional current replicas (taken from
    /// the previous write's recorded good list) receive the update too,
    /// best-effort and with no prior permission round.
    fn start_write_commit(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, c: Classified) {
        let threshold = self.config.safety_threshold;
        let mut optional: Vec<NodeId> = Vec::new();
        if threshold > 0 && c.good.len() < threshold {
            for &cand in &c.last_good {
                if c.good.len() + optional.len() >= threshold {
                    break;
                }
                if !c.responders.contains(cand) {
                    optional.push(cand);
                }
            }
        }
        let Some(wc) = self.vol.writes.get_mut(&op) else {
            return;
        };
        // lint:allow(panic): caller verified has_current_replica, so a max version exists
        let base_version = c.next_version().expect("has_current_replica checked") - 1;
        // A batch of k writes establishes k consecutive versions; the
        // round's version is the last of them.
        let new_version = base_version + wc.batch.len() as u64;
        let participants: Vec<NodeId> = c.good.iter().chain(c.stale.iter()).copied().collect();
        // The recorded good list: the intended holders of the new version.
        let mut good_list: Vec<NodeId> = c.good.iter().chain(optional.iter()).copied().collect();
        good_list.sort_unstable();
        let timeout = self.config.vote_timeout;
        let timer = ctx.set_timer(timeout, Timer::Votes { op });
        let writes: Vec<PartialWrite> = wc.batch.iter().map(|e| e.write.clone()).collect();
        ctx.trace(TraceEvent::PrepareIssued { op });
        for &node in c.good.iter().chain(optional.iter()) {
            ctx.send(
                node,
                Msg::Prepare {
                    op,
                    action: Action::DoUpdate {
                        writes: writes.clone(),
                        new_version,
                        stale: c.stale.clone(),
                        good: good_list.clone(),
                        base: None,
                    },
                    // Extras were never polled and lock at prepare time;
                    // required participants must still hold the
                    // permission-phase lock.
                    extra: optional.contains(&node),
                },
            );
        }
        for &node in &c.stale {
            ctx.send(
                node,
                Msg::Prepare {
                    op,
                    action: Action::MarkStale {
                        // The desired version equals "the version number
                        // that the up-to-date replicas will have after
                        // performing the current write".
                        desired_version: new_version,
                    },
                    extra: false,
                },
            );
        }
        // The fan-out above is done with these vectors: the phase takes
        // them by move.
        wc.phase = WPhase::Voting {
            participants,
            yes: NodeSet::new(),
            optional,
            optional_yes: NodeSet::new(),
            new_version,
            stale: c.stale,
            timer,
        };
    }

    /// Write-all-current commit: the write goes only to current replicas;
    /// if they alone do not form a write quorum, obsolete members must be
    /// synchronously reconciled first (snapshot fetch + restore).
    fn start_wac_commit(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, c: Classified) {
        let good_set = NodeSet::from_iter(c.good.iter().copied());
        let rule = self.config.rule.clone();
        // One compiled plan covers all three quorum tests below; the clone
        // out of the cache keeps `self.vol` free for the coordinator borrow.
        let plan = self.vol.plans.plan_for(&*rule, &c.view).clone();
        if plan.includes_quorum_with(&*rule, good_set, QuorumKind::Write) {
            // Current replicas form a quorum: release the rest and commit.
            let Some(wc) = self.vol.writes.get_mut(&op) else {
                return;
            };
            let others: Vec<NodeId> = wc
                .granted
                .keys()
                .copied()
                .filter(|n| !good_set.contains(*n))
                .collect();
            for n in others {
                wc.granted.remove(&n);
                ctx.send(n, Msg::Release { op });
            }
            // lint:allow(panic): GOOD is nonempty on this path, so a max version exists
            let base = c.next_version().expect("good nonempty");
            let new_version = base + wc.batch.len() as u64 - 1;
            let timeout = self.config.vote_timeout;
            let timer = ctx.set_timer(timeout, Timer::Votes { op });
            let writes: Vec<PartialWrite> = wc.batch.iter().map(|e| e.write.clone()).collect();
            ctx.trace(TraceEvent::PrepareIssued { op });
            for &node in &c.good {
                ctx.send(
                    node,
                    Msg::Prepare {
                        op,
                        action: Action::DoUpdate {
                            writes: writes.clone(),
                            new_version,
                            stale: Vec::new(),
                            good: c.good.clone(),
                            base: None,
                        },
                        extra: false,
                    },
                );
            }
            wc.phase = WPhase::Voting {
                participants: c.good,
                yes: NodeSet::new(),
                optional: Vec::new(),
                optional_yes: NodeSet::new(),
                new_version,
                stale: Vec::new(),
                timer,
            };
            return;
        }
        // Need reconciliation: choose obsolete granted members until
        // good ∪ targets includes a quorum.
        let mut targets = Vec::new();
        let mut combined = good_set;
        {
            let Some(wc) = self.vol.writes.get(&op) else {
                return;
            };
            let mut candidates: Vec<NodeId> = wc
                .granted
                .keys()
                .copied()
                .filter(|n| !good_set.contains(*n))
                .collect();
            candidates.sort_unstable();
            for n in candidates {
                if plan.includes_quorum_with(&*rule, combined, QuorumKind::Write) {
                    break;
                }
                combined.insert(n);
                targets.push(n);
            }
        }
        if !plan.includes_quorum_with(&*rule, combined, QuorumKind::Write) {
            self.finish_write_fail(ctx, op, FailReason::NoQuorum);
            return;
        }
        // Fetch the snapshot from a current replica (prefer ourselves).
        let source = if c.good.contains(&self.me) {
            self.me
        } else {
            c.good[0]
        };
        self.stats.inc(keys::SYNC_RECONCILIATIONS);
        ctx.output(ProtocolEvent::SyncReconciliation {
            targets: targets.len(),
        });
        if source == self.me {
            let pages = self.durable.object.snapshot();
            let version = self.durable.version;
            self.wac_commit_with_base(ctx, op, c, targets, pages, version);
            return;
        }
        let timeout = self.config.collect_timeout;
        let timer = ctx.set_timer(timeout, Timer::Fetch { op });
        let Some(wc) = self.vol.writes.get_mut(&op) else {
            return;
        };
        wc.phase = WPhase::FetchBase {
            classified: c,
            targets,
            source,
            timer,
        };
        ctx.send(source, Msg::FetchReq { op });
    }

    /// Reconciliation snapshot in hand: run the combined 2PC.
    pub(crate) fn wac_commit_with_base(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        op: OpId,
        c: Classified,
        targets: Vec<NodeId>,
        pages: Vec<Bytes>,
        base_version: u64,
    ) {
        let Some(wc) = self.vol.writes.get_mut(&op) else {
            return;
        };
        let new_version = base_version + wc.batch.len() as u64;
        let participants: Vec<NodeId> = c.good.iter().chain(targets.iter()).copied().collect();
        let participant_set = NodeSet::from_iter(participants.iter().copied());
        // Release granted members not participating.
        let others: Vec<NodeId> = wc
            .granted
            .keys()
            .copied()
            .filter(|n| !participant_set.contains(*n))
            .collect();
        for n in others {
            wc.granted.remove(&n);
            ctx.send(n, Msg::Release { op });
        }
        let timeout = self.config.vote_timeout;
        let timer = ctx.set_timer(timeout, Timer::Votes { op });
        let writes: Vec<PartialWrite> = wc.batch.iter().map(|e| e.write.clone()).collect();
        let good_list: Vec<NodeId> = participants.clone();
        wc.phase = WPhase::Voting {
            participants,
            yes: NodeSet::new(),
            optional: Vec::new(),
            optional_yes: NodeSet::new(),
            new_version,
            stale: Vec::new(),
            timer,
        };
        ctx.trace(TraceEvent::PrepareIssued { op });
        for &node in &c.good {
            ctx.send(
                node,
                Msg::Prepare {
                    op,
                    action: Action::DoUpdate {
                        writes: writes.clone(),
                        new_version,
                        stale: Vec::new(),
                        good: good_list.clone(),
                        base: None,
                    },
                    extra: false,
                },
            );
        }
        for &node in &targets {
            ctx.send(
                node,
                Msg::Prepare {
                    op,
                    action: Action::DoUpdate {
                        writes: writes.clone(),
                        new_version,
                        stale: Vec::new(),
                        good: good_list.clone(),
                        base: Some((pages.clone(), base_version)),
                    },
                    extra: false,
                },
            );
        }
    }

    /// The reconciliation fetch returned.
    pub(crate) fn write_fetch_resp(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        op: OpId,
        version: u64,
        pages: Vec<Bytes>,
    ) {
        let Some(wc) = self.vol.writes.get_mut(&op) else {
            return;
        };
        // Stray responses (the phase already moved on) restore the phase
        // untouched — no check-then-replace panic window.
        let (classified, targets, timer) = match std::mem::replace(&mut wc.phase, WPhase::Collect) {
            WPhase::FetchBase {
                classified,
                targets,
                timer,
                ..
            } => (classified, targets, timer),
            other => {
                wc.phase = other;
                return;
            }
        };
        ctx.cancel_timer(timer);
        // The source's version can only have grown; it remains current.
        self.wac_commit_with_base(ctx, op, classified, targets, pages, version);
    }

    /// Reconciliation fetch failed or timed out.
    pub(crate) fn write_fetch_failed(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        if self
            .vol
            .writes
            .get(&op)
            .is_some_and(|wc| matches!(wc.phase, WPhase::FetchBase { .. }))
        {
            self.finish_write_fail(ctx, op, FailReason::CommitFailed);
        }
    }

    /// A 2PC vote arrived for a write op. Required participants must all
    /// vote yes; optional (safety-threshold) participants are best-effort:
    /// their no-votes and failures simply drop them.
    pub(crate) fn write_vote(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, from: NodeId, yes: bool) {
        let Some(wc) = self.vol.writes.get_mut(&op) else {
            return;
        };
        let WPhase::Voting {
            participants,
            yes: yes_set,
            optional,
            optional_yes,
            timer,
            ..
        } = &mut wc.phase
        else {
            return;
        };
        let is_optional = optional.contains(&from) || optional_yes.contains(from);
        if !yes {
            if is_optional {
                optional.retain(|&n| n != from);
                optional_yes.remove(from);
                return;
            }
            let timer = *timer;
            ctx.cancel_timer(timer);
            self.abort_write_commit(ctx, op);
            return;
        }
        if is_optional {
            optional_yes.insert(from);
        } else {
            yes_set.insert(from);
        }
        let all_yes = participants.iter().all(|p| yes_set.contains(*p));
        if !all_yes {
            return;
        }
        // Commit point: log the decision durably, then notify the required
        // participants plus every optional replica that managed to prepare.
        // (Optional replicas whose yes-vote arrives after this moment learn
        // the outcome through the decision-query path.)
        // Own the coordinator outright: the op is finished either way, and
        // removing it here avoids the replace-then-remove panic pattern.
        let Some(wc) = self.vol.writes.remove(&op) else {
            return;
        };
        let WPhase::Voting {
            participants,
            optional_yes: committed_optional,
            new_version,
            stale,
            timer,
            ..
        } = wc.phase.clone()
        else {
            return;
        };
        ctx.cancel_timer(timer);
        self.durable.decisions.insert(op, true);
        // Pipelined 2PC: with more writes queued and chain budget left,
        // allocate the next round now and ride its lock handoff on this
        // decision. Participants move their exclusive lock from `op` to
        // `next` instead of unlocking, and the next round's prepare follows
        // the decision in the same effect batch — no fresh permission phase
        // and no race against the decision's delivery (same-sender FIFO).
        let chain = self.plan_chain(&wc);
        let next = chain.as_ref().map(|(next_op, _)| *next_op);
        for p in participants
            .iter()
            .copied()
            .chain(committed_optional.iter())
        {
            ctx.send(
                p,
                Msg::Decision {
                    op,
                    commit: true,
                    chain: next,
                },
            );
        }
        // Release any granted nodes that were not participants (heavy polls
        // can grant more than the quorum used).
        let participant_set = NodeSet::from_iter(participants.iter().copied());
        for (&n, _) in wc
            .granted
            .iter()
            .filter(|(n, _)| !participant_set.contains(**n))
        {
            ctx.send(n, Msg::Release { op });
        }
        let touched = participants.len() + committed_optional.len();
        self.stats.add(keys::WRITES_OK, wc.batch.len() as u64);
        if wc.batch.len() > 1 {
            self.stats.add(keys::BATCHED_WRITES, wc.batch.len() as u64);
        }
        self.stats.add(
            keys::REPLICAS_TOUCHED_SUM,
            (touched * wc.batch.len()) as u64,
        );
        self.stats.add(
            keys::MARKED_STALE_SUM,
            (stale.len() * wc.batch.len()) as u64,
        );
        // One ack per batched client write, at its own version.
        let first_version = new_version + 1 - wc.batch.len() as u64;
        for (i, entry) in wc.batch.iter().enumerate() {
            ctx.output(ProtocolEvent::WriteOk {
                id: entry.client_id,
                version: first_version + i as u64,
                replicas_touched: touched,
                marked_stale: stale.len(),
            });
        }
        match chain {
            Some((next_op, batch)) => self.begin_chained_round(
                ctx,
                next_op,
                batch,
                &participants,
                committed_optional,
                new_version,
                stale,
                wc.chain_len + 1,
            ),
            None => self.maybe_launch_queued(ctx),
        }
    }

    /// Decides whether the committing round `wc` chains a successor, and if
    /// so allocates its op id and drains its batch from the queue.
    fn plan_chain(&mut self, wc: &WriteCoordinator) -> Option<(OpId, Vec<BatchEntry>)> {
        if self.config.write_mode != WriteMode::StaleMarking
            || self.config.pipeline_window <= 1
            || wc.chain_len + 1 >= self.config.pipeline_window
            || self.vol.write_queue.is_empty()
        {
            return None;
        }
        let take = self
            .config
            .max_write_batch
            .max(1)
            .min(self.vol.write_queue.len());
        let batch: Vec<BatchEntry> = self.vol.write_queue.drain(..take).collect();
        Some((self.next_op(), batch))
    }

    /// Opens round k+1 directly in the voting phase: its participants are
    /// round k's (they committed, so they hold handed-off locks and are at
    /// exactly `base_version`), and its prepares are already behind round
    /// k's decisions in the network. No permission phase runs. If a handoff
    /// was lost (lease expiry, crash), the participant's duplicate-prepare
    /// and version checks make it vote no and the round degrades to a
    /// normal abort-and-retry.
    #[allow(clippy::too_many_arguments)]
    fn begin_chained_round(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        op: OpId,
        batch: Vec<BatchEntry>,
        participants: &[NodeId],
        committed_optional: NodeSet,
        base_version: u64,
        stale: Vec<NodeId>,
        chain_len: u32,
    ) {
        self.stats.inc(keys::CHAINED_ROUNDS);
        let new_version = base_version + batch.len() as u64;
        let stale_set = NodeSet::from_iter(stale.iter().copied());
        let good_required: Vec<NodeId> = participants
            .iter()
            .copied()
            .filter(|n| !stale_set.contains(*n))
            .collect();
        let optional: Vec<NodeId> = committed_optional.iter().collect();
        let mut good_list: Vec<NodeId> = good_required
            .iter()
            .chain(optional.iter())
            .copied()
            .collect();
        good_list.sort_unstable();
        let writes: Vec<PartialWrite> = batch.iter().map(|e| e.write.clone()).collect();
        let timer = ctx.set_timer(self.config.vote_timeout, Timer::Votes { op });
        ctx.trace(TraceEvent::PrepareIssued { op });
        for &node in good_required.iter().chain(optional.iter()) {
            ctx.send(
                node,
                Msg::Prepare {
                    op,
                    action: Action::DoUpdate {
                        writes: writes.clone(),
                        new_version,
                        stale: stale.clone(),
                        good: good_list.clone(),
                        base: None,
                    },
                    extra: optional.contains(&node),
                },
            );
        }
        for &node in &stale {
            ctx.send(
                node,
                Msg::Prepare {
                    op,
                    action: Action::MarkStale {
                        desired_version: new_version,
                    },
                    extra: false,
                },
            );
        }
        self.vol.writes.insert(
            op,
            WriteCoordinator {
                op,
                batch,
                chain_len,
                phase: WPhase::Voting {
                    participants: participants.to_vec(),
                    yes: NodeSet::new(),
                    optional,
                    optional_yes: NodeSet::new(),
                    new_version,
                    stale,
                    timer,
                },
                granted: BTreeMap::new(),
                refused: NodeSet::new(),
                failed: NodeSet::new(),
                polled: NodeSet::from_iter(participants.iter().copied()),
                heavy: false,
                collect_timer: None,
            },
        );
    }

    /// Vote timeout for a write op.
    pub(crate) fn write_vote_timeout(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        if self
            .vol
            .writes
            .get(&op)
            .is_some_and(|wc| matches!(wc.phase, WPhase::Voting { .. }))
        {
            self.abort_write_commit(ctx, op);
        }
    }

    /// Aborts an in-flight write 2PC and retries or fails the client op.
    fn abort_write_commit(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let Some(wc) = self.vol.writes.remove(&op) else {
            return;
        };
        self.durable.decisions.insert(op, false);
        if let WPhase::Voting { participants, .. } = &wc.phase {
            for &p in participants {
                ctx.send(
                    p,
                    Msg::Decision {
                        op,
                        commit: false,
                        chain: None,
                    },
                );
            }
            let pset = NodeSet::from_iter(participants.iter().copied());
            for &n in wc.granted.keys().filter(|n| !pset.contains(**n)) {
                ctx.send(n, Msg::Release { op });
            }
        }
        self.retry_or_fail_write(ctx, wc, FailReason::CommitFailed);
    }

    /// Releases all granted locks and fails (or retries) the operation.
    fn finish_write_fail(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, reason: FailReason) {
        let Some(mut wc) = self.vol.writes.remove(&op) else {
            return;
        };
        if let Some(t) = wc.collect_timer.take() {
            ctx.cancel_timer(t);
        }
        match &wc.phase {
            WPhase::FetchBase { timer, .. } => ctx.cancel_timer(*timer),
            WPhase::Voting { timer, .. } => ctx.cancel_timer(*timer),
            WPhase::Collect => {}
        }
        for &n in wc.granted.keys() {
            ctx.send(n, Msg::Release { op });
        }
        self.retry_or_fail_write(ctx, wc, reason);
    }

    /// Contention and commit races are retried with backoff; structural
    /// failures (no quorum, no current replica) are reported immediately,
    /// as the paper prescribes.
    fn retry_or_fail_write(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        wc: WriteCoordinator,
        reason: FailReason,
    ) {
        let retryable = matches!(reason, FailReason::Contention | FailReason::CommitFailed);
        if retryable
            && self.config.max_write_batch > 1
            && self.config.write_mode == WriteMode::StaleMarking
        {
            // Requeue the refused batch whole: disbanding it into
            // per-entry retry timers would relaunch that many competing
            // single-write rounds against the same replicas. One kick
            // timer (shortest surviving backoff) holds the queue, then
            // relaunches the batch — plus anything queued meanwhile — as
            // one round.
            let mut min_attempt = u32::MAX;
            for entry in wc.batch.into_iter().rev() {
                if entry.attempt < self.config.max_retries {
                    min_attempt = min_attempt.min(entry.attempt + 1);
                    self.vol.write_queue.push_front(BatchEntry {
                        attempt: entry.attempt + 1,
                        ..entry
                    });
                } else {
                    self.stats.inc(keys::WRITES_FAILED);
                    ctx.output(ProtocolEvent::Failed {
                        id: entry.client_id,
                        reason,
                    });
                }
            }
            if min_attempt != u32::MAX {
                let delay = self.backoff(ctx, min_attempt);
                self.vol.write_queue_held = true;
                ctx.set_timer(delay, Timer::WriteQueueKick);
            } else {
                self.maybe_launch_queued(ctx);
            }
            return;
        }
        for entry in wc.batch {
            if retryable && entry.attempt < self.config.max_retries {
                let delay = self.backoff(ctx, entry.attempt + 1);
                ctx.set_timer(
                    delay,
                    Timer::RetryClient {
                        attempt: entry.attempt + 1,
                        request: ClientRequest::Write {
                            id: entry.client_id,
                            write: entry.write,
                        },
                    },
                );
            } else {
                self.stats.inc(keys::WRITES_FAILED);
                ctx.output(ProtocolEvent::Failed {
                    id: entry.client_id,
                    reason,
                });
            }
        }
        // The failed round is gone; if writes queued behind it, give them
        // their own round now rather than stranding them.
        self.maybe_launch_queued(ctx);
    }

    /// The contention backoff for a requeued batch expired: release the
    /// queue and relaunch.
    pub(crate) fn on_write_queue_kick(&mut self, ctx: &mut NodeCtx<'_>) {
        self.vol.write_queue_held = false;
        self.maybe_launch_queued(ctx);
    }
}
