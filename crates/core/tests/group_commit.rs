//! Group-commit durability properties (DESIGN.md §10).
//!
//! Two properties anchor the optimisation's correctness argument:
//!
//! 1. *Byte identity*: a journal built by batched appends is
//!    byte-for-byte the journal built by sequential appends of the same
//!    delta sequence — group commit changes **when** the commit pointer
//!    advances, never **what** the journal says. Replay therefore cannot
//!    distinguish the two.
//! 2. *Crash containment*: a crash mid-coalesce loses exactly the
//!    buffered (never-acknowledged) suffix. The recovered replica equals
//!    the committed journal prefix as it stood before the crash — no
//!    flushed delta is lost, no unflushed delta resurrects.
//!
//! Both hosts run the same node shell, so flush accounting must agree
//! between them too (the last test).

use std::sync::Arc;

use bytes::Bytes;
use coterie_core::{
    keys, ClientRequest, Durable, DurableDelta, FaultKind, FramedJournal, JournaledNode, LogEntry,
    MetricsRegistry, OpId, PartialWrite, ProtocolConfig, ProtocolEvent, Rng64, StepDriver,
};
use coterie_quorum::{GridCoterie, MajorityCoterie, NodeId};
use coterie_simnet::{Sim, SimConfig, SimDuration, SimTime};
use proptest::prelude::*;

const N_PAGES: usize = 4;

fn config() -> ProtocolConfig {
    ProtocolConfig::new(Arc::new(GridCoterie::new()), 4).pages(N_PAGES)
}

/// Applies one random mutation to `state` — drawn from the kinds of
/// changes the protocol actually makes — and returns its shadow diff.
fn mutate(state: &mut Durable, rng: &mut Rng64) -> Option<DurableDelta> {
    let old = state.clone();
    match rng.below(6) {
        0 | 1 => {
            // A committed write: pages, version, and log move together.
            let page = rng.below(N_PAGES as u64) as u16;
            let write =
                PartialWrite::new([(page, Bytes::from(rng.next_u64().to_le_bytes().to_vec()))]);
            state.object.apply(&write);
            state.version += 1;
            state.log.push(LogEntry {
                version: state.version,
                write,
            });
        }
        2 => {
            // Stale-marking flip.
            state.stale = !state.stale;
            state.dversion = state.version + rng.below(3);
        }
        3 => {
            // Atomic epoch installation: number and list change together.
            state.enumber += 1;
            state.elist = (0..4).map(NodeId).filter(|_| rng.below(4) > 0).collect();
            state.last_good = state.elist.clone();
        }
        4 => {
            // A coordinator decision record (append-only map).
            state.op_counter += 1;
            let id = OpId {
                node: NodeId(rng.below(4) as u32),
                seq: state.op_counter,
            };
            state.decisions.insert(id, rng.below(2) == 0);
        }
        _ => {
            // Quarantine bookkeeping.
            state.quarantine_fence = state.op_counter;
            state.rejoin_pending = !state.rejoin_pending;
        }
    }
    DurableDelta::diff(&old, state)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched appends produce the byte-identical journal image, and
    /// replaying either image reconstructs the tracked state.
    #[test]
    fn batched_journal_is_byte_identical(seed in any::<u64>(), n in 1usize..48) {
        let config = config();
        let mut rng = Rng64::new(seed);
        let mut state = Durable::pristine(&config);
        let mut deltas = Vec::new();
        while deltas.len() < n {
            if let Some(d) = mutate(&mut state, &mut rng) {
                deltas.push(d);
            }
        }

        let mut sequential = FramedJournal::new();
        for d in &deltas {
            sequential.append_delta(d);
        }
        let mut batched = FramedJournal::new();
        let mut i = 0;
        while i < deltas.len() {
            let end = (i + 1 + rng.below(6) as usize).min(deltas.len());
            batched.append_batch(&deltas[i..end]);
            i = end;
        }

        prop_assert_eq!(sequential.bytes(), batched.bytes());
        prop_assert_eq!(
            sequential.committed_records(),
            batched.committed_records()
        );
        let replay = batched.replay_checked(&config);
        prop_assert!(
            matches!(replay.verdict, coterie_core::ReplayVerdict::Clean),
            "verdict: {:?}",
            replay.verdict
        );
        prop_assert_eq!(replay.durable, state);
    }
}

/// Drives a random schedule on a fully-featured cluster. Returns the ids
/// of acknowledged writes.
fn random_schedule(
    driver: &mut StepDriver,
    rng: &mut Rng64,
    steps: usize,
    torn_flushes: bool,
) -> Vec<u64> {
    let n = driver.cluster_size() as u64;
    let mut next_id = 0u64;
    for _ in 0..steps {
        match rng.below(100) {
            // A crash mid-whatever (possibly mid-coalesce), then the
            // crash-containment check on the recovered replica below.
            0..=3 => {
                let node = NodeId(rng.below(n) as u32);
                if !driver.is_down(node) {
                    // The committed prefix as the disk holds it now;
                    // buffered (unacknowledged) deltas are not in it.
                    let disk_before = driver.replay_journal(node);
                    driver.crash(node);
                    driver.recover(node);
                    let recovered = &driver.node(node).durable;
                    assert_eq!(
                        recovered, &disk_before,
                        "recovery must equal the pre-crash committed prefix: \
                         nothing flushed lost, nothing unflushed resurrected"
                    );
                }
            }
            4..=6 if torn_flushes => {
                // PR-4 failpoint at the journal boundary: the next flush
                // tears, fail-stopping the node with a torn tail.
                driver.arm_storage_fault(NodeId(rng.below(n) as u32), FaultKind::TornWrite);
            }
            7..=14 => {
                let node = NodeId(rng.below(n) as u32);
                if !driver.is_down(node) {
                    next_id += 1;
                    let page = rng.below(N_PAGES as u64) as u16;
                    let write = PartialWrite::new([(
                        page,
                        Bytes::from(rng.next_u64().to_le_bytes().to_vec()),
                    )]);
                    driver.inject(node, ClientRequest::Write { id: next_id, write });
                }
            }
            _ => {
                let msgs = driver.pending_messages().len();
                if msgs > 0 && rng.below(4) > 0 {
                    driver.deliver(rng.below(msgs as u64) as usize);
                } else {
                    let timers = driver.pending_timers().len();
                    if timers > 0 {
                        driver.fire(rng.below(timers as u64) as usize);
                    } else {
                        driver.advance(SimDuration::from_millis(1));
                    }
                }
            }
        }
        // A torn flush fail-stops its node; bring it back through the
        // checked replay so the schedule keeps making progress.
        for i in 0..n {
            let node = NodeId(i as u32);
            if driver.is_down(node) && rng.below(3) == 0 {
                driver.recover(node);
            }
        }
    }
    // Armed one-shot faults can still fire during the drain and fail-stop
    // a node; keep recovering until the cluster quiesces with everyone up.
    loop {
        for i in 0..n {
            let node = NodeId(i as u32);
            if driver.is_down(node) {
                driver.recover(node);
            }
        }
        driver.run_for(SimDuration::from_secs(60));
        if (0..n).all(|i| !driver.is_down(NodeId(i as u32))) {
            break;
        }
    }
    driver
        .outputs()
        .iter()
        .filter_map(|(_, _, e)| match e {
            ProtocolEvent::WriteOk { id, .. } => Some(*id),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A crash mid-coalesce never loses an acknowledged delta and never
    /// resurrects an unacknowledged one: after every crash/recover pair
    /// the replica equals its pre-crash committed prefix (asserted inside
    /// the schedule), and every acknowledged write survives to the final
    /// quiesced state.
    #[test]
    fn crash_mid_coalesce_preserves_exactly_the_committed_prefix(seed in any::<u64>()) {
        let config = config()
            .write_batch(4)
            .pipeline(3)
            .group_commit(8, SimDuration::from_millis(2))
            .rng_seed(seed);
        let mut driver = StepDriver::new(4, config);
        let mut rng = Rng64::new(seed ^ 0xD1CE_CAFE);
        let acked = random_schedule(&mut driver, &mut rng, 400, true);

        // Every acknowledged write is durable cluster-wide: the quiesced
        // maximum version covers all acks, and each node's journal replay
        // equals its live durable state.
        let max_version = (0..4u32)
            .map(|i| driver.node(NodeId(i)).durable.version)
            .max()
            .unwrap_or(0);
        prop_assert!(
            max_version >= acked.len() as u64,
            "{} acked writes but max version {}",
            acked.len(),
            max_version
        );
        for i in 0..4u32 {
            let node = NodeId(i);
            prop_assert_eq!(
                &driver.replay_journal(node),
                &driver.node(node).durable,
                "node {} journal/live divergence",
                i
            );
        }
    }
}

/// Deterministic smoke for the batching + pipelining stats: a burst of
/// writes at one coordinator commits them all, shares rounds, and chains
/// at least one pipelined handoff.
#[test]
fn write_burst_batches_and_chains_rounds() {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3)
        .pages(N_PAGES)
        .write_batch(4)
        .pipeline(4)
        .rng_seed(7);
    let mut driver = StepDriver::new(3, config);
    for id in 1..=8u64 {
        let write =
            PartialWrite::new([((id % N_PAGES as u64) as u16, Bytes::from(vec![id as u8]))]);
        driver.inject(NodeId(0), ClientRequest::Write { id, write });
    }
    driver.run_for(SimDuration::from_secs(5));

    let oks = driver
        .outputs()
        .iter()
        .filter(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { .. }))
        .count();
    assert_eq!(oks, 8, "all writes must commit");
    let stats = &driver.node(NodeId(0)).stats;
    assert!(
        stats.counter(keys::BATCHED_WRITES) >= 2,
        "expected shared rounds, got batched_writes = {}",
        stats.counter(keys::BATCHED_WRITES)
    );
    assert!(
        stats.counter(keys::CHAINED_ROUNDS) >= 1,
        "expected a pipelined handoff, got chained_rounds = {}",
        stats.counter(keys::CHAINED_ROUNDS)
    );
}

/// Flush accounting is the same on every host: a write-through append is
/// one header commit and counts as one flush, a group-commit batch counts
/// as one flush, and the cluster's `journal_flushes` metric is the sum of
/// the per-node counters. Checked in both modes on `StepDriver` and on the
/// simulator host.
#[test]
fn flush_counters_agree_across_hosts() {
    const N: u32 = 3;
    let write = |id: u64| ClientRequest::Write {
        id,
        write: PartialWrite::new([((id % N_PAGES as u64) as u16, Bytes::from(vec![id as u8]))]),
    };
    for group in [1, 8] {
        let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), N as usize)
            .pages(N_PAGES)
            .write_batch(4)
            .group_commit(group, SimDuration::from_millis(2))
            .rng_seed(11);

        let mut driver = StepDriver::new(N as usize, config.clone());
        for id in 1..=12 {
            driver.inject(NodeId(id as u32 % N), write(id));
        }
        driver.run_for(SimDuration::from_secs(5));
        let mut sim = Sim::new(N as usize, SimConfig::default(), |id| {
            JournaledNode::new(id, config.clone())
        });
        for id in 1..=12 {
            let at = SimTime::ZERO + SimDuration::from_millis(id);
            sim.schedule_external(at, NodeId(id as u32 % N), write(id));
        }
        sim.run_for(SimDuration::from_secs(5));

        let hosts = [
            (
                "StepDriver",
                driver.metrics(),
                (0..N)
                    .map(|i| (driver.flushes(NodeId(i)), driver.journal(NodeId(i))))
                    .collect::<Vec<_>>(),
            ),
            (
                "Sim<JournaledNode>",
                (0..N).fold(MetricsRegistry::new(), |mut m, i| {
                    m.merge(&sim.node(NodeId(i)).metrics());
                    m
                }),
                (0..N)
                    .map(|i| (sim.node(NodeId(i)).flushes, &sim.node(NodeId(i)).journal))
                    .collect(),
            ),
        ];
        for (host, metrics, nodes) in hosts {
            let total: u64 = nodes.iter().map(|(flushes, _)| flushes).sum();
            assert!(total > 0, "{host}, batch {group}: nothing flushed");
            assert_eq!(
                metrics.counter(keys::JOURNAL_FLUSHES),
                total,
                "{host}, batch {group}: metric disagrees with the node counters"
            );
            if group == 1 {
                for (i, (flushes, journal)) in nodes.iter().enumerate() {
                    assert_eq!(
                        *flushes,
                        journal.committed_records(),
                        "{host}, node {i}: each write-through append is one flush"
                    );
                }
            }
        }
    }
}
