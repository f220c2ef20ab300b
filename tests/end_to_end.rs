//! Cross-crate integration tests: the full protocol stack (quorum rules +
//! simulator + replica nodes + harness checker) exercised through the
//! facade crate, including randomized fault schedules with safety
//! invariants checked at every step.

// Test-side bookkeeping; hash maps never feed engine effects.
#![allow(clippy::disallowed_types)]

use dyncoterie::harness::{
    check_run, run_scenario, FaultConfig, FaultPlan, Scenario, Workload, WorkloadConfig,
};
use dyncoterie::protocol::{
    ClientRequest, JournaledNode, PartialWrite, ProtocolConfig, ProtocolEvent,
};
use dyncoterie::quorum::{GridCoterie, MajorityCoterie, NodeId, TreeCoterie, View};
use dyncoterie::simnet::{NodeStatus, Partition, Sim, SimConfig, SimDuration, SimTime};
use std::sync::Arc;

/// Epoch safety: nodes sharing an epoch number must share the epoch list,
/// and every node is a member of its own epoch list (§4.4's preliminary
/// note, which the correctness proof relies on).
fn assert_epoch_safety(sim: &Sim<JournaledNode>) {
    let n = sim.len();
    for a in 0..n as u32 {
        let node_a = sim.node(NodeId(a));
        assert!(
            node_a.durable.elist.contains(&NodeId(a)) || node_a.durable.enumber == 0,
            "node {a} not in its own epoch list"
        );
        for b in (a + 1)..n as u32 {
            let node_b = sim.node(NodeId(b));
            if node_a.durable.enumber == node_b.durable.enumber {
                assert_eq!(
                    node_a.durable.elist, node_b.durable.elist,
                    "nodes {a} and {b} share epoch #{} but disagree on members",
                    node_a.durable.enumber
                );
            }
        }
    }
}

/// The paper's Lemma 1: "At all times, only nodes with the maximum epoch
/// number can form a quorum over their epoch." For every epoch number `e`
/// present in the system, take the nodes currently holding `e`; only the
/// maximum `e` may have a write quorum over its epoch list among them.
/// (Node up/down status is irrelevant to the lemma — it is a statement
/// about the recorded states.)
fn assert_unique_live_epoch(sim: &Sim<JournaledNode>) {
    let rule = GridCoterie::new();
    let n = sim.len();
    let mut by_epoch: std::collections::BTreeMap<u64, (Vec<NodeId>, Vec<NodeId>)> =
        std::collections::BTreeMap::new();
    for id in (0..n as u32).map(NodeId) {
        let node = sim.node(id);
        let entry = by_epoch
            .entry(node.durable.enumber)
            .or_insert_with(|| (node.durable.elist.clone(), Vec::new()));
        entry.1.push(id);
    }
    let max_e = *by_epoch.keys().last().unwrap();
    for (&e, (elist, holders)) in &by_epoch {
        if e == max_e {
            continue;
        }
        let view = View::new(elist.iter().copied());
        let holder_set: dyncoterie::quorum::NodeSet = holders.iter().copied().collect();
        assert!(
            !dyncoterie::quorum::CoterieRule::is_write_quorum(&rule, &view, holder_set),
            "stale epoch #{e} can still form a write quorum: holders {holders:?} of {elist:?}"
        );
    }
}

fn grid_scenario(seed: u64, lambda: f64, secs: u64) -> Scenario {
    let n = 9;
    let protocol = ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
        .check_period(SimDuration::from_secs(2));
    Scenario {
        protocol,
        sim: SimConfig {
            seed,
            ..Default::default()
        },
        workload: Workload::generate(
            &WorkloadConfig {
                ops_per_sec: 25.0,
                duration: SimDuration::from_secs(secs),
                seed: seed ^ 0xABCD,
                ..Default::default()
            },
            n,
        ),
        faults: FaultPlan::generate(
            &FaultConfig {
                lambda_per_sec: lambda,
                mu_per_sec: 0.5,
                duration: SimDuration::from_secs(secs),
                seed: seed ^ 0x5EED,
                ..Default::default()
            },
            n,
        ),
        drain: SimDuration::from_secs(15),
    }
}

#[test]
fn randomized_fault_schedules_stay_serializable() {
    for seed in [1u64, 2, 3, 4, 5] {
        let result = run_scenario(&grid_scenario(seed, 0.04, 25));
        assert!(
            result.check.consistent(),
            "seed {seed}: {:?}",
            result.check.violations
        );
        assert!(result.writes_ok > 0, "seed {seed} committed nothing");
    }
}

#[test]
fn epoch_safety_holds_under_churn() {
    let n = 9;
    let protocol = ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
        .check_period(SimDuration::from_secs(1));
    let mut sim = Sim::new(
        n,
        SimConfig {
            seed: 77,
            ..Default::default()
        },
        |id| JournaledNode::new(id, protocol.clone()),
    );
    let faults = FaultPlan::generate(
        &FaultConfig {
            lambda_per_sec: 0.08,
            mu_per_sec: 0.6,
            duration: SimDuration::from_secs(40),
            seed: 99,
            ..Default::default()
        },
        n,
    );
    for (at, f) in &faults.events {
        match f {
            dyncoterie::harness::FaultEvent::Crash(node) => sim.schedule_crash(*at, *node),
            dyncoterie::harness::FaultEvent::Recover(node) => sim.schedule_recover(*at, *node),
            dyncoterie::harness::FaultEvent::Partition(p) => sim.schedule_partition(*at, p.clone()),
            // Storage faults stay ignored on the simulator (mirrors
            // scenario.rs); the StepDriver nemesis harness injects them.
            dyncoterie::harness::FaultEvent::StorageFault { .. } => {}
        }
    }
    for i in 0..80u64 {
        sim.schedule_external(
            SimTime(i * 500_000),
            NodeId((i % n as u64) as u32),
            ClientRequest::Write {
                id: i,
                write: PartialWrite::new([bytes_of(i)]),
            },
        );
    }
    // Step through the run, re-checking invariants every virtual second.
    for _ in 0..55 {
        sim.run_for(SimDuration::from_secs(1));
        assert_epoch_safety(&sim);
        assert_unique_live_epoch(&sim);
    }
    let events = sim.take_outputs();
    let issued: std::collections::HashMap<u64, dyncoterie::harness::IssuedOp> = (0..80u64)
        .map(|i| {
            (
                i,
                dyncoterie::harness::IssuedOp {
                    id: i,
                    at: SimTime(i * 500_000),
                    coordinator: NodeId((i % n as u64) as u32),
                    write: Some(PartialWrite::new([bytes_of(i)])),
                },
            )
        })
        .collect();
    let report = check_run(&issued, &events, protocol.n_pages);
    assert!(report.consistent(), "{:?}", report.violations);
}

fn bytes_of(i: u64) -> (u16, bytes::Bytes) {
    (0, bytes::Bytes::copy_from_slice(&i.to_le_bytes()))
}

#[test]
fn partition_heal_with_dueling_epoch_coordinators() {
    // Both sides of a healed partition may try to install new epochs at
    // once; epoch numbers and the write-quorum-of-the-old-epoch rule must
    // keep exactly one lineage.
    let n = 5;
    let protocol = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), n)
        .check_period(SimDuration::from_secs(1));
    let mut sim = Sim::new(
        n,
        SimConfig {
            seed: 1234,
            ..Default::default()
        },
        |id| JournaledNode::new(id, protocol.clone()),
    );
    // Partition {3,4} away, let the majority shrink its epoch.
    sim.schedule_partition(
        SimTime(500_000),
        Partition::split(n, &[NodeId(3), NodeId(4)]),
    );
    sim.run_for(SimDuration::from_secs(8));
    assert_eq!(sim.node(NodeId(0)).durable.elist.len(), 3);
    // The minority must still be on the old epoch.
    assert_eq!(sim.node(NodeId(3)).durable.elist.len(), 5);
    assert_epoch_safety(&sim);
    // Heal; multiple epoch ticks race.
    sim.set_partition_now(Partition::connected(n));
    sim.run_for(SimDuration::from_secs(15));
    assert_epoch_safety(&sim);
    for id in 0..n as u32 {
        assert_eq!(
            sim.node(NodeId(id)).durable.elist.len(),
            5,
            "node {id} missed the re-expansion"
        );
    }
    // And the system still works.
    sim.schedule_external(
        sim.now(),
        NodeId(4),
        ClientRequest::Write {
            id: 9,
            write: PartialWrite::new([(1, bytes::Bytes::from_static(b"post-heal"))]),
        },
    );
    sim.run_for(SimDuration::from_secs(2));
    assert!(sim
        .take_outputs()
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: 9, .. })));
}

#[test]
fn tree_coterie_runs_the_full_protocol() {
    // The dynamic protocol is generic over the coterie rule: hierarchical
    // quorum consensus plugs straight in.
    let n = 9;
    let protocol = ProtocolConfig::new(Arc::new(TreeCoterie::new()), n)
        .check_period(SimDuration::from_secs(2));
    let mut sim = Sim::new(
        n,
        SimConfig {
            seed: 5,
            ..Default::default()
        },
        |id| JournaledNode::new(id, protocol.clone()),
    );
    for i in 0..10u64 {
        // Coordinators rotate over the nodes that stay up (node 8 dies).
        sim.schedule_external(
            SimTime(i * 200_000),
            NodeId((i % 8) as u32),
            ClientRequest::Write {
                id: i,
                write: PartialWrite::new([(0, bytes::Bytes::copy_from_slice(&i.to_le_bytes()))]),
            },
        );
    }
    sim.crash_now(NodeId(8));
    sim.run_for(SimDuration::from_secs(15));
    let oks = sim
        .take_outputs()
        .iter()
        .filter(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { .. }))
        .count();
    assert_eq!(oks, 10);
    assert_eq!(sim.status(NodeId(8)), NodeStatus::Down);
    assert_eq!(sim.node(NodeId(0)).durable.elist.len(), 8);
}

#[test]
fn analytic_availability_predicts_protocol_behaviour() {
    // Tie the markov crate to the protocol crate: under heavy sequential
    // failure accumulation the protocol stays writable exactly while the
    // Figure 3 model says it should (epoch >= 3 for the grid rule,
    // given failures spaced wider than the check period).
    let model = dyncoterie::markov::DynamicModel::grid(9, 1.0, 19.0);
    let chain = model.chain();
    // The chain's minimum available epoch is 3.
    let min_epoch = chain
        .states()
        .iter()
        .filter_map(|s| match s {
            dyncoterie::markov::EpochState::Available { up } => Some(*up),
            _ => None,
        })
        .min()
        .unwrap();
    assert_eq!(min_epoch, 3);

    // Protocol: after 6 well-spaced failures the 3-node epoch still
    // commits writes (shown in crates/core tests); the 7th failure blocks
    // the object and brings it to the chain's Blocked row.
    let n = 9;
    let protocol = ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
        .check_period(SimDuration::from_secs(1));
    let mut sim = Sim::new(
        n,
        SimConfig {
            seed: 31,
            ..Default::default()
        },
        |id| JournaledNode::new(id, protocol.clone()),
    );
    for victim in [8u32, 7, 6, 5, 4, 3] {
        sim.crash_now(NodeId(victim));
        sim.run_for(SimDuration::from_secs(6));
    }
    assert_eq!(sim.node(NodeId(0)).durable.elist.len(), 3);
    // One more failure: blocked (any single failure of a 3-epoch whose
    // survivors lack a write quorum blocks; node 1 is the singleton-column
    // member of the {0,1,2} grid, killing IT always blocks).
    sim.crash_now(NodeId(1));
    sim.run_for(SimDuration::from_secs(6));
    sim.take_outputs();
    sim.schedule_external(
        sim.now(),
        NodeId(0),
        ClientRequest::Write {
            id: 1,
            write: PartialWrite::new([(0, bytes::Bytes::from_static(b"x"))]),
        },
    );
    sim.run_for(SimDuration::from_secs(3));
    let events = sim.take_outputs();
    assert!(
        events
            .iter()
            .any(|(_, _, e)| matches!(e, ProtocolEvent::Failed { id: 1, .. })),
        "write should fail with the epoch blocked: {events:?}"
    );
}
