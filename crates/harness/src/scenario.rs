//! The full-protocol scenario runner: builds a cluster of journaling
//! replicas on a [`StepDriver`] with the timed LAN schedule, injects a
//! workload and a fault plan (crashes, recoveries, partitions and storage
//! faults), collects the outputs, runs the consistency checker, and
//! aggregates metrics. Every crash is recovered by replaying the node's
//! journal.

// Tool-side aggregation; hash maps never feed engine effects.
#![allow(clippy::disallowed_types)]

use crate::checker::{check_run, CheckReport};
use crate::faults::{FaultEvent, FaultPlan};
use crate::metrics::LoadStats;
use crate::workload::Workload;
use coterie_core::{keys, Histogram, MsgClass, ProtocolConfig, ProtocolEvent, StepDriver};
use coterie_quorum::NodeId;
use coterie_simnet::{SimDuration, SimTime};
use serde::Serialize;
use std::collections::HashMap;

/// Everything a scenario needs.
#[derive(Clone)]
pub struct Scenario {
    /// Protocol configuration shared by all replicas.
    pub protocol: ProtocolConfig,
    /// Run seed: the engines' RNG and the LAN's latency draws.
    pub seed: u64,
    /// Pre-generated workload.
    pub workload: Workload,
    /// Pre-generated faults.
    pub faults: FaultPlan,
    /// Extra settling time after the last scheduled event.
    pub drain: SimDuration,
}

/// Aggregated results of one scenario run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ScenarioResult {
    /// Operations issued.
    pub ops_issued: usize,
    /// Committed writes.
    pub writes_ok: u64,
    /// Failed writes.
    pub writes_failed: u64,
    /// Completed reads.
    pub reads_ok: u64,
    /// Failed reads.
    pub reads_failed: u64,
    /// Total messages put on the network.
    pub msgs_sent: u64,
    /// Messages received, by class name.
    pub msgs_by_class: HashMap<String, u64>,
    /// Messages per *completed* operation.
    pub msgs_per_op: f64,
    /// Write latency distribution, microseconds.
    #[serde(skip)]
    pub write_latency: Histogram,
    /// Read latency distribution, microseconds.
    #[serde(skip)]
    pub read_latency: Histogram,
    /// Per-node received-message load.
    pub load: LoadStats,
    /// Client-level retries.
    pub retries: u64,
    /// Heavy-procedure invocations.
    pub heavy_runs: u64,
    /// Epoch changes committed.
    pub epoch_changes: u64,
    /// Propagations completed.
    pub propagations: u64,
    /// Synchronous reconciliations (write-all-current baseline).
    pub sync_reconciliations: u64,
    /// Mean replicas touched per committed write.
    pub replicas_touched_avg: f64,
    /// Mean replicas marked stale per committed write.
    pub marked_stale_avg: f64,
    /// Consistency verdict.
    #[serde(skip)]
    pub check: CheckReport,
}

impl ScenarioResult {
    /// Fraction of issued writes that committed.
    pub fn write_success_rate(&self) -> f64 {
        let total = self.writes_ok + self.writes_failed;
        if total == 0 {
            return 1.0;
        }
        self.writes_ok as f64 / total as f64
    }

    /// Fraction of issued reads that completed.
    pub fn read_success_rate(&self) -> f64 {
        let total = self.reads_ok + self.reads_failed;
        if total == 0 {
            return 1.0;
        }
        self.reads_ok as f64 / total as f64
    }
}

/// Runs a scenario to completion.
pub fn run_scenario(scenario: &Scenario) -> ScenarioResult {
    let n = scenario.protocol.n_replicas;
    let (sim, events) = simulate(scenario);

    // Aggregate.
    let mut result = ScenarioResult {
        ops_issued: scenario.workload.len(),
        ..Default::default()
    };
    for (t, _, e) in &events {
        match e {
            ProtocolEvent::WriteOk { id, .. } => {
                if let Some(op) = scenario.workload.issued.get(id) {
                    result.write_latency.record(t.since(op.at).micros());
                }
            }
            ProtocolEvent::ReadOk { id, .. } => {
                if let Some(op) = scenario.workload.issued.get(id) {
                    result.read_latency.record(t.since(op.at).micros());
                }
            }
            _ => {}
        }
    }
    let mut received = vec![0; n];
    for id in 0..n as u32 {
        let stats = &sim.node(NodeId(id)).stats;
        let writes_ok = stats.counter(keys::WRITES_OK);
        result.writes_ok += writes_ok;
        result.writes_failed += stats.counter(keys::WRITES_FAILED);
        result.reads_ok += stats.counter(keys::READS_OK);
        result.reads_failed += stats.counter(keys::READS_FAILED);
        result.retries += stats.counter(keys::RETRIES);
        result.heavy_runs += stats.counter(keys::HEAVY_RUNS);
        result.epoch_changes += stats.counter(keys::EPOCH_CHANGES);
        result.propagations += stats.counter(keys::PROPAGATIONS_DONE);
        result.sync_reconciliations += stats.counter(keys::SYNC_RECONCILIATIONS);
        for class in MsgClass::ALL {
            let count = stats.counter(keys::msgs_in(class));
            received[id as usize] += count;
            if count > 0 {
                *result
                    .msgs_by_class
                    .entry(format!("{class:?}"))
                    .or_insert(0) += count;
            }
        }
        if writes_ok > 0 {
            result.replicas_touched_avg += stats.counter(keys::REPLICAS_TOUCHED_SUM) as f64;
            result.marked_stale_avg += stats.counter(keys::MARKED_STALE_SUM) as f64;
        }
    }
    if result.writes_ok > 0 {
        result.replicas_touched_avg /= result.writes_ok as f64;
        result.marked_stale_avg /= result.writes_ok as f64;
    }
    let completed = result.writes_ok + result.reads_ok;
    result.msgs_sent = sim.messages_sent().expect("a scenario runs on the LAN");
    result.msgs_per_op = if completed > 0 {
        result.msgs_sent as f64 / completed as f64
    } else {
        0.0
    };
    result.load = LoadStats::new(received);
    result.check = check_run(
        &scenario.workload.issued,
        &events,
        scenario.protocol.n_pages,
    );
    result
}

/// Runs the scenario's workload and fault plan on a LAN driver; returns
/// the driver and every protocol event it emitted.
fn simulate(scenario: &Scenario) -> (StepDriver, Vec<(SimTime, NodeId, ProtocolEvent)>) {
    let n = scenario.protocol.n_replicas;
    // The run seed reaches the engines (protocol jitter is drawn from each
    // engine's own RNG) and the LAN's latency draws.
    let mut sim = StepDriver::lan(n, scenario.protocol.clone().rng_seed(scenario.seed));
    let mut last_event = SimTime::ZERO;
    for (at, node, req) in &scenario.workload.ops {
        sim.schedule_external(*at, *node, req.clone());
        last_event = last_event.max(*at);
    }
    for (at, fault) in &scenario.faults.events {
        match fault {
            FaultEvent::Crash(node) => sim.schedule_crash(*at, *node),
            FaultEvent::Recover(node) => sim.schedule_recover(*at, *node),
            FaultEvent::Partition(islands) => sim.schedule_partition(*at, islands.clone()),
            FaultEvent::StorageFault { node, kind } => {
                sim.schedule_storage_fault(*at, *node, *kind)
            }
        }
        last_event = last_event.max(*at);
    }
    sim.run_until(last_event + scenario.drain);
    let events = sim.take_outputs();
    (sim, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use crate::workload::WorkloadConfig;
    use coterie_core::FaultKind;
    use coterie_quorum::GridCoterie;
    use std::sync::Arc;

    fn base_scenario(seed: u64, faults: FaultPlan) -> Scenario {
        let n = 9;
        let protocol = ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
            .check_period(SimDuration::from_secs(2));
        let workload = Workload::generate(
            &WorkloadConfig {
                ops_per_sec: 20.0,
                duration: SimDuration::from_secs(20),
                seed,
                ..Default::default()
            },
            n,
        );
        Scenario {
            protocol,
            seed,
            workload,
            faults,
            drain: SimDuration::from_secs(10),
        }
    }

    #[test]
    fn fault_free_run_is_consistent_and_complete() {
        let s = base_scenario(1, FaultPlan::default());
        let r = run_scenario(&s);
        assert!(r.check.consistent(), "{:?}", r.check.violations);
        assert!(r.write_success_rate() > 0.99, "{r:?}");
        assert!(r.read_success_rate() > 0.99);
        assert!(r.msgs_per_op > 1.0);
        assert!(r.epoch_changes == 0, "no failures, no epoch changes");
    }

    #[test]
    fn faulty_run_stays_consistent() {
        let n = 9;
        let faults = FaultPlan::generate(
            &FaultConfig {
                lambda_per_sec: 0.05,
                mu_per_sec: 0.5,
                duration: SimDuration::from_secs(20),
                seed: 99,
                ..Default::default()
            },
            n,
        );
        let s = base_scenario(2, faults);
        let r = run_scenario(&s);
        assert!(
            r.check.consistent(),
            "consistency violated under faults: {:?}",
            r.check.violations
        );
        assert!(r.writes_ok > 0);
        assert!(r.epoch_changes > 0, "faults should trigger epoch changes");
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let a = run_scenario(&base_scenario(7, FaultPlan::default()));
        let b = run_scenario(&base_scenario(7, FaultPlan::default()));
        assert_eq!(a.writes_ok, b.writes_ok);
        assert_eq!(a.msgs_sent, b.msgs_sent);
        assert_eq!(a.reads_ok, b.reads_ok);
    }

    #[test]
    fn scripted_bit_flip_quarantines_a_node_that_rejoins() {
        // A bit flip corrupts n4's journal in place; the restart after the
        // crash finds the damage, boots quarantined (stale, 2PC decisions
        // fenced) and rejoins through the stale-rejoin protocol.
        let victim = NodeId(4);
        let faults = FaultPlan::scripted(vec![
            (SimTime(8_000_000), FaultEvent::Crash(victim)),
            (SimTime(9_000_000), FaultEvent::Recover(victim)),
        ])
        .with_storage_fault(victim, SimTime(3_000_000), FaultKind::BitFlip);
        let s = base_scenario(3, faults);
        let (sim, events) = simulate(&s);
        let fired: Vec<_> = sim.fired_faults(victim).iter().map(|f| f.kind).collect();
        assert_eq!(fired, vec![FaultKind::BitFlip], "the scripted fault fires");
        let rejoined = &sim.node(victim).durable;
        assert!(
            rejoined.quarantine_fence > 0,
            "the restart quarantined the journal"
        );
        assert!(!rejoined.rejoin_pending && !rejoined.stale, "{rejoined:?}");
        let newest = (0..9).map(|i| sim.node(NodeId(i)).durable.version).max();
        assert_eq!(
            Some(rejoined.version),
            newest,
            "the rejoined node caught up"
        );

        let check = check_run(&s.workload.issued, &events, s.protocol.n_pages);
        assert!(check.consistent(), "{:?}", check.violations);
    }
}
