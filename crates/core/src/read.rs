//! The read coordinator. "The read protocol is similar to the write
//! protocol except it does not update any replicas" (§4): collect shared
//! locks from a read quorum, identify a current replica (non-stale, maximum
//! version, at or above every stale responder's desired version), fetch the
//! object from it, release, and return.

use crate::classify::Classified;
use crate::engine::metrics::keys;
use crate::msg::{ClientRequest, FailReason, Msg, OpId, ProtocolEvent, StateTuple};
use crate::node::{NodeCtx, ReplicaNode, Timer};
use bytes::Bytes;
use coterie_base::TimerId;
use coterie_quorum::{quorum_seed, NodeId, NodeSet, QuorumKind};
use std::collections::BTreeMap;

/// Phase of a coordinated read.
#[derive(Clone, Debug)]
pub enum RPhase {
    /// Gathering permission responses.
    Collect,
    /// Fetching the data from a chosen current replica.
    Fetch {
        /// The chosen replica.
        target: NodeId,
        /// Other current candidates, in case the fetch fails.
        alternates: Vec<NodeId>,
        /// Minimum version the snapshot must carry.
        min_version: u64,
        /// Fetch timeout.
        timer: TimerId,
    },
}

/// Volatile state of one coordinated read.
#[derive(Clone, Debug)]
pub struct ReadCoordinator {
    /// Operation id.
    pub op: OpId,
    /// Client request id.
    pub client_id: u64,
    /// Retry attempt.
    pub attempt: u32,
    /// Current phase.
    pub phase: RPhase,
    /// Granted responses.
    pub granted: BTreeMap<NodeId, StateTuple>,
    /// Busy refusals.
    pub refused: NodeSet,
    /// Failures.
    pub failed: NodeSet,
    /// Nodes polled.
    pub polled: NodeSet,
    /// Whether the heavy (poll-everyone) pass has run.
    pub heavy: bool,
    /// Collection timeout.
    pub collect_timer: Option<TimerId>,
}

impl ReadCoordinator {
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
    /// Starts coordinating a client read.
    pub(crate) fn start_read(&mut self, ctx: &mut NodeCtx<'_>, client_id: u64, attempt: u32) {
        let op = self.next_op();
        let view = self.durable.epoch_view();
        let seed = quorum_seed(self.me, op.seq);
        let Some(quorum) = self
            .config
            .rule
            .pick_quorum(&view, view.set(), seed, QuorumKind::Read)
        else {
            self.stats.inc(keys::READS_FAILED);
            ctx.output(ProtocolEvent::Failed {
                id: client_id,
                reason: FailReason::NoQuorum,
            });
            return;
        };
        let timeout = self.config.collect_timeout;
        let timer = ctx.set_timer(timeout, Timer::Collect { op });
        let rc = ReadCoordinator {
            op,
            client_id,
            attempt,
            phase: RPhase::Collect,
            granted: BTreeMap::new(),
            refused: NodeSet::new(),
            failed: NodeSet::new(),
            polled: quorum,
            heavy: false,
            collect_timer: Some(timer),
        };
        for node in quorum.iter() {
            ctx.send(node, Msg::ReadReq { op });
        }
        self.vol.reads.insert(op, rc);
    }

    /// A permission response for a read op.
    pub(crate) fn read_state_resp(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        op: OpId,
        granted: bool,
        state: StateTuple,
    ) {
        let Some(rc) = self.vol.reads.get_mut(&op) else {
            return;
        };
        if !matches!(rc.phase, RPhase::Collect) {
            return;
        }
        if granted {
            rc.granted.insert(state.node, state);
        } else {
            rc.refused.insert(state.node);
        }
        if rc.collect_done() {
            self.evaluate_read(ctx, op);
        }
    }

    /// `RPC.CallFailed` for a read permission request.
    pub(crate) fn on_read_peer_failed(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, to: NodeId) {
        let Some(rc) = self.vol.reads.get_mut(&op) else {
            return;
        };
        if !matches!(rc.phase, RPhase::Collect) {
            return;
        }
        rc.failed.insert(to);
        if rc.collect_done() {
            self.evaluate_read(ctx, op);
        }
    }

    /// Collection timeout for a read.
    pub(crate) fn read_collect_timeout(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let Some(rc) = self.vol.reads.get_mut(&op) else {
            return;
        };
        if !matches!(rc.phase, RPhase::Collect) {
            return;
        }
        rc.collect_timer = None;
        let silent = rc.polled.difference(rc.answered());
        rc.failed = rc.failed.union(silent);
        self.evaluate_read(ctx, op);
    }

    fn evaluate_read(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let Some(rc) = self.vol.reads.get_mut(&op) else {
            return;
        };
        if let Some(t) = rc.collect_timer.take() {
            ctx.cancel_timer(t);
        }
        let classified = Classified::evaluate(
            &*self.config.rule,
            &mut self.vol.plans,
            &rc.granted,
            QuorumKind::Read,
        );
        match classified {
            Some(c) if c.has_quorum && c.has_current_replica() => {
                // Fetch from a current replica; prefer ourselves (free).
                let mut candidates = c.good.clone();
                if let Some(pos) = candidates.iter().position(|&n| n == self.me) {
                    candidates.swap(0, pos);
                }
                let target = candidates[0];
                let alternates = candidates[1..].to_vec();
                // lint:allow(panic): GOOD is nonempty on this path, so a max version exists
                let min_version = c.max_version.expect("good nonempty");
                if target == self.me {
                    // Local fast path: we hold our own shared lock.
                    let version = self.durable.version;
                    let pages = self.durable.object.snapshot();
                    self.finish_read_ok(ctx, op, version, pages);
                    return;
                }
                let timeout = self.config.collect_timeout;
                let timer = ctx.set_timer(timeout, Timer::Fetch { op });
                rc.phase = RPhase::Fetch {
                    target,
                    alternates,
                    min_version,
                    timer,
                };
                ctx.send(target, Msg::FetchReq { op });
            }
            Some(c) if c.has_quorum => {
                // Quorum but no current replica reachable.
                if rc.heavy {
                    self.finish_read_fail(ctx, op, FailReason::NoCurrentReplica);
                } else {
                    self.go_heavy_read(ctx, op);
                }
            }
            _ => {
                if rc.heavy {
                    let reason = self.read_failure_reason(op);
                    self.finish_read_fail(ctx, op, reason);
                } else if self.read_failure_reason(op) == FailReason::Contention {
                    // Contention, not failure: back off and retry light.
                    self.finish_read_fail(ctx, op, FailReason::Contention);
                } else {
                    self.go_heavy_read(ctx, op);
                }
            }
        }
    }

    fn read_failure_reason(&mut self, op: OpId) -> FailReason {
        let Some(rc) = self.vol.reads.get(&op) else {
            return FailReason::NoQuorum;
        };
        if rc.refused.is_empty() {
            return FailReason::NoQuorum;
        }
        let optimistic = rc
            .granted
            .keys()
            .copied()
            .collect::<NodeSet>()
            .union(rc.refused);
        let view = self.durable.epoch_view();
        let rule = &*self.config.rule;
        if self.vol.plans.plan_for(rule, &view).includes_quorum_with(
            rule,
            optimistic,
            QuorumKind::Read,
        ) {
            FailReason::Contention
        } else {
            FailReason::NoQuorum
        }
    }

    fn go_heavy_read(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        self.stats.inc(keys::HEAVY_RUNS);
        let all = NodeSet::from_iter(self.all_nodes());
        let Some(rc) = self.vol.reads.get_mut(&op) else {
            return;
        };
        rc.heavy = true;
        let remaining = all.difference(rc.polled);
        if remaining.is_empty() {
            self.evaluate_read(ctx, op);
            return;
        }
        rc.polled = all;
        let timeout = self.config.collect_timeout;
        rc.collect_timer = Some(ctx.set_timer(timeout, Timer::Collect { op }));
        for node in remaining.iter() {
            ctx.send(node, Msg::ReadReq { op });
        }
    }

    /// A fetch response for a read op.
    pub(crate) fn read_fetch_resp(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        op: OpId,
        version: u64,
        pages: Vec<Bytes>,
    ) {
        let Some(rc) = self.vol.reads.get_mut(&op) else {
            return;
        };
        let RPhase::Fetch {
            min_version, timer, ..
        } = &rc.phase
        else {
            return;
        };
        // A lower version than promised means the target crashed and lost
        // our shared lock (its state may have rolled forward only): reject
        // and fall back.
        if version < *min_version {
            let timer = *timer;
            ctx.cancel_timer(timer);
            self.read_try_alternate(ctx, op);
            return;
        }
        let timer = *timer;
        ctx.cancel_timer(timer);
        self.finish_read_ok(ctx, op, version, pages);
    }

    /// Fetch failed (target unreachable).
    pub(crate) fn read_fetch_failed(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        if let Some(rc) = self.vol.reads.get_mut(&op) {
            if let RPhase::Fetch { timer, .. } = &rc.phase {
                let timer = *timer;
                ctx.cancel_timer(timer);
                self.read_try_alternate(ctx, op);
            }
        }
    }

    /// Fetch timeout.
    pub(crate) fn read_fetch_timeout(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        if self
            .vol
            .reads
            .get(&op)
            .is_some_and(|rc| matches!(rc.phase, RPhase::Fetch { .. }))
        {
            self.read_try_alternate(ctx, op);
        }
    }

    fn read_try_alternate(&mut self, ctx: &mut NodeCtx<'_>, op: OpId) {
        let Some(rc) = self.vol.reads.get_mut(&op) else {
            return;
        };
        let RPhase::Fetch {
            alternates,
            min_version,
            ..
        } = &mut rc.phase
        else {
            return;
        };
        if alternates.is_empty() {
            self.finish_read_fail(ctx, op, FailReason::CommitFailed);
            return;
        }
        let target = alternates.remove(0);
        let min_version = *min_version;
        let alternates = alternates.clone();
        let timeout = self.config.collect_timeout;
        let timer = ctx.set_timer(timeout, Timer::Fetch { op });
        rc.phase = RPhase::Fetch {
            target,
            alternates,
            min_version,
            timer,
        };
        ctx.send(target, Msg::FetchReq { op });
    }

    fn finish_read_ok(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, version: u64, pages: Vec<Bytes>) {
        let Some(rc) = self.vol.reads.remove(&op) else {
            return;
        };
        for &n in rc.granted.keys() {
            ctx.send(n, Msg::Release { op });
        }
        self.stats.inc(keys::READS_OK);
        let digest = {
            let mut o = crate::store::PagedObject::new(pages.len());
            o.restore(pages.clone());
            o.digest()
        };
        ctx.output(ProtocolEvent::ReadOk {
            id: rc.client_id,
            version,
            digest,
            pages,
        });
    }

    fn finish_read_fail(&mut self, ctx: &mut NodeCtx<'_>, op: OpId, reason: FailReason) {
        let Some(mut rc) = self.vol.reads.remove(&op) else {
            return;
        };
        if let Some(t) = rc.collect_timer.take() {
            ctx.cancel_timer(t);
        }
        if let RPhase::Fetch { timer, .. } = &rc.phase {
            ctx.cancel_timer(*timer);
        }
        for &n in rc.granted.keys() {
            ctx.send(n, Msg::Release { op });
        }
        let retryable = matches!(reason, FailReason::Contention | FailReason::CommitFailed);
        if retryable && rc.attempt < self.config.max_retries {
            let delay = self.backoff(ctx, rc.attempt + 1);
            ctx.set_timer(
                delay,
                Timer::RetryClient {
                    attempt: rc.attempt + 1,
                    request: ClientRequest::Read { id: rc.client_id },
                },
            );
            return;
        }
        self.stats.inc(keys::READS_FAILED);
        ctx.output(ProtocolEvent::Failed {
            id: rc.client_id,
            reason,
        });
    }
}
