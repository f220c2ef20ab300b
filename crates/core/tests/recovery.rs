//! Targeted crash-recovery tests for the two-phase-commit machinery: the
//! paper relies on textbook atomic commit ([2]); these tests pin down the
//! blocking-2PC behaviours our implementation must get right — durable
//! prepared actions, presumed abort, decision-log recovery, and the lock
//! fencing of in-doubt transactions.

use bytes::Bytes;
use coterie_core::{
    keys, ClientRequest, JournaledNode, Mode, PartialWrite, ProtocolConfig, ProtocolEvent,
};
use coterie_quorum::{GridCoterie, MajorityCoterie, NodeId};
use coterie_simnet::{Sim, SimConfig, SimDuration, SimTime};
use std::sync::Arc;

fn cluster(n: usize, seed: u64, check_secs: u64) -> Sim<JournaledNode> {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), n)
        .check_period(SimDuration::from_secs(check_secs));
    Sim::new(
        n,
        SimConfig {
            seed,
            ..Default::default()
        },
        |id| JournaledNode::new(id, config.clone()),
    )
}

fn w(id: u64, data: &str) -> ClientRequest {
    ClientRequest::Write {
        id,
        write: PartialWrite::new([(0, Bytes::copy_from_slice(data.as_bytes()))]),
    }
}

#[test]
fn coordinator_crash_before_decision_presumed_aborts() {
    let mut sim = cluster(3, 1, 60);
    // Let a write run its permission phase, then kill the coordinator
    // right as prepares go out (~3-5 ms in): participants may have
    // prepared but no decision was logged.
    sim.schedule_external(SimTime::ZERO, NodeId(0), w(1, "doomed"));
    sim.schedule_crash(SimTime(4_000), NodeId(0));
    sim.run_for(SimDuration::from_secs(1));
    // Recover the coordinator: participants (and the coordinator itself,
    // if it prepared) must resolve via the decision log — presumed abort.
    sim.recover_now(NodeId(0));
    sim.run_for(SimDuration::from_secs(5));
    for id in 0..3u32 {
        let node = sim.node(NodeId(id));
        assert!(
            node.durable.prepared.is_none(),
            "node {id} stuck in-doubt after coordinator recovery"
        );
    }
    // Versions are 0 or 1 only (the write either aborted or committed);
    // no replica can have invented other versions.
    for id in 0..3u32 {
        assert!(sim.node(NodeId(id)).durable.version <= 1);
    }
    // A fresh write works afterwards.
    sim.schedule_external(sim.now(), NodeId(1), w(2, "after"));
    sim.run_for(SimDuration::from_secs(2));
    let ok = sim
        .take_outputs()
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: 2, .. }));
    assert!(ok, "system must recover to a writable state");
}

#[test]
fn participant_crash_after_prepare_recovers_the_outcome() {
    let mut sim = cluster(3, 2, 60);
    sim.schedule_external(SimTime::ZERO, NodeId(0), w(1, "x"));
    sim.run_for(SimDuration::from_secs(1));
    let evs = sim.take_outputs();
    assert!(evs
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: 1, .. })));
    // Crash a participant and recover it: no in-doubt state, and its
    // durable replica state is intact.
    let v_before = sim.node(NodeId(1)).durable.version;
    sim.crash_now(NodeId(1));
    sim.recover_now(NodeId(1));
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.node(NodeId(1)).durable.version, v_before);
    assert!(sim.node(NodeId(1)).durable.prepared.is_none());
}

#[test]
fn many_coordinator_crashes_never_wedge_the_system() {
    // Fuzz the vulnerable window: writes arrive steadily while the
    // coordinator of every third write crashes shortly after starting and
    // recovers a second later.
    let mut sim = cluster(5, 3, 4);
    for i in 0..30u64 {
        let coord = NodeId((i % 5) as u32);
        let at = SimTime(i * 400_000);
        sim.schedule_external(at, coord, w(i, &format!("v{i}")));
        if i % 3 == 0 {
            sim.schedule_crash(SimTime(at.micros() + 3_000), coord);
            sim.schedule_recover(SimTime(at.micros() + 1_000_000), coord);
        }
    }
    sim.run_for(SimDuration::from_secs(40));
    // No replica may be left in-doubt or locked out: a final write from
    // every node must succeed.
    for id in 0..5u32 {
        assert!(
            sim.node(NodeId(id)).durable.prepared.is_none(),
            "node {id} left in-doubt"
        );
    }
    sim.take_outputs();
    sim.schedule_external(sim.now(), NodeId(2), w(1000, "final"));
    sim.run_for(SimDuration::from_secs(3));
    assert!(sim
        .take_outputs()
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: 1000, .. })));
    // And the committed-version history is still gap-free: replay versions.
    let max_v = (0..5u32)
        .map(|i| sim.node(NodeId(i)).durable.version)
        .max()
        .unwrap();
    assert!(
        max_v >= 10,
        "most writes should have committed, got {max_v}"
    );
}

#[test]
fn static_mode_never_runs_epoch_checks() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 4).static_mode();
    assert!(matches!(config.mode, Mode::Static));
    let mut sim = Sim::new(
        4,
        SimConfig {
            seed: 4,
            ..Default::default()
        },
        |id| JournaledNode::new(id, config.clone()),
    );
    sim.crash_now(NodeId(3));
    sim.run_for(SimDuration::from_secs(30));
    for id in 0..3u32 {
        assert_eq!(sim.node(NodeId(id)).durable.enumber, 0);
        assert_eq!(sim.node(NodeId(id)).stats.counter(keys::EPOCH_CHANGES), 0);
    }
}

#[test]
fn safety_threshold_extras_receive_the_update() {
    // With threshold = 3 on a 9-node grid, every committed write must land
    // on at least 3 replicas whenever 3 are reachable, even if the quorum's
    // good set was smaller.
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9)
        .check_period(SimDuration::from_secs(2))
        .safety(3);
    let mut sim = Sim::new(
        9,
        SimConfig {
            seed: 5,
            ..Default::default()
        },
        |id| JournaledNode::new(id, config.clone()),
    );
    for i in 0..15u64 {
        sim.schedule_external(
            SimTime(i * 300_000),
            NodeId((i % 9) as u32),
            w(i, &format!("d{i}")),
        );
    }
    sim.run_for(SimDuration::from_secs(10));
    let evs = sim.take_outputs();
    let oks: Vec<usize> = evs
        .iter()
        .filter_map(|(_, _, e)| match e {
            ProtocolEvent::WriteOk {
                replicas_touched, ..
            } => Some(*replicas_touched),
            _ => None,
        })
        .collect();
    assert_eq!(oks.len(), 15);
    // Count holders of the max version: must be >= 3.
    let max_v = (0..9u32)
        .map(|i| sim.node(NodeId(i)).durable.version)
        .max()
        .unwrap();
    let holders = (0..9u32)
        .filter(|&i| sim.node(NodeId(i)).durable.version == max_v)
        .count();
    assert!(holders >= 3, "only {holders} hold the newest version");
}
