//! Targeted tests of the §4.2 propagation protocol: incremental log
//! shipping, the snapshot fallback when the log has been trimmed, the
//! three-way offer handshake, and the locking-mode ablation.

use bytes::Bytes;
use coterie_core::{ClientRequest, JournaledNode, PartialWrite, ProtocolConfig, ProtocolEvent};
use coterie_quorum::{GridCoterie, NodeId};
use coterie_simnet::{Sim, SimConfig, SimDuration, SimTime};
use std::sync::Arc;

fn run_with_config(config: ProtocolConfig, seed: u64, writes: u64) -> Sim<JournaledNode> {
    let n = config.n_replicas;
    let mut sim = Sim::new(
        n,
        SimConfig {
            seed,
            ..Default::default()
        },
        |id| JournaledNode::new(id, config.clone()),
    );
    for i in 0..writes {
        sim.schedule_external(
            SimTime(i * 250_000),
            NodeId((i % n as u64) as u32),
            ClientRequest::Write {
                id: i,
                write: PartialWrite::new([((i % 4) as u16, Bytes::from(format!("payload-{i}")))]),
            },
        );
    }
    sim.run_for(SimDuration::from_secs(writes / 4 + 20));
    sim
}

/// The protocol's actual guarantee: propagation clears every stale flag
/// (replicas that were never marked may legitimately sit behind), at least
/// a write quorum's worth of replicas hold the newest version, and all the
/// newest-version holders agree on content.
fn assert_propagation_converged(sim: &Sim<JournaledNode>, n: usize, version: u64) {
    let versions: Vec<u64> = (0..n as u32)
        .map(|i| sim.node(NodeId(i)).durable.version)
        .collect();
    for i in 0..n as u32 {
        assert!(
            !sim.node(NodeId(i)).durable.stale,
            "replica {i} still stale; versions {versions:?}"
        );
    }
    let holders: Vec<u32> = (0..n as u32)
        .filter(|&i| sim.node(NodeId(i)).durable.version == version)
        .collect();
    assert!(
        holders.len() >= 5,
        "too few replicas at v{version}: {versions:?}"
    );
    let digest = sim.node(NodeId(holders[0])).durable.object.digest();
    for &h in &holders[1..] {
        assert_eq!(
            sim.node(NodeId(h)).durable.object.digest(),
            digest,
            "replica {h} diverged in content"
        );
    }
}

#[test]
fn incremental_log_shipping_converges_everyone() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9).log_capacity(64);
    let sim = run_with_config(config, 1, 24);
    assert_propagation_converged(&sim, 9, 24);
}

#[test]
fn trimmed_log_falls_back_to_snapshots() {
    // log_capacity(1) guarantees any replica more than one write behind
    // needs the snapshot path; convergence must still happen.
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9).log_capacity(1);
    let sim = run_with_config(config, 2, 24);
    assert_propagation_converged(&sim, 9, 24);
}

#[test]
fn paper_locking_mode_also_converges() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9).locking_propagation();
    let sim = run_with_config(config, 3, 24);
    assert_propagation_converged(&sim, 9, 24);
}

#[test]
fn propagation_source_crash_does_not_leave_target_stuck() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9);
    let n = 9;
    let mut sim = Sim::new(
        n,
        SimConfig {
            seed: 4,
            ..Default::default()
        },
        |id| JournaledNode::new(id, config.clone()),
    );
    // A few writes to create stale marks and kick off propagation.
    for i in 0..6u64 {
        sim.schedule_external(
            SimTime(i * 200_000),
            NodeId(i as u32),
            ClientRequest::Write {
                id: i,
                write: PartialWrite::new([(0, Bytes::from(format!("w{i}")))]),
            },
        );
    }
    // Crash every node that could be an early propagation source shortly
    // after the last write, then recover them.
    for v in 0..4u32 {
        sim.schedule_crash(SimTime(1_250_000), NodeId(v));
        sim.schedule_recover(SimTime(4_000_000), NodeId(v));
    }
    sim.run_for(SimDuration::from_secs(40));
    // Everyone eventually converges; nobody is left holding a propagation
    // lock or an in-doubt incoming transfer.
    for i in 0..n as u32 {
        let node = sim.node(NodeId(i));
        assert!(node.vol.incoming_prop.is_none(), "node {i} stuck incoming");
        assert!(!node.durable.stale, "node {i} still stale");
    }
    // System still writable.
    sim.take_outputs();
    sim.schedule_external(
        sim.now(),
        NodeId(5),
        ClientRequest::Write {
            id: 99,
            write: PartialWrite::new([(1, Bytes::from_static(b"post"))]),
        },
    );
    sim.run_for(SimDuration::from_secs(2));
    assert!(sim
        .take_outputs()
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: 99, .. })));
}

#[test]
fn stale_replica_never_serves_reads() {
    // Force a replica stale, then point a read's fetch at the cluster: the
    // read must come back with the newest version, never the stale copy.
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9)
        // Disable propagation-by-delay so staleness persists during the test.
        .check_period(SimDuration::from_secs(600));
    let n = 9;
    let mut sim = Sim::new(
        n,
        SimConfig {
            seed: 6,
            ..Default::default()
        },
        |id| {
            let mut cfg = config.clone();
            cfg.propagation_retry = SimDuration::from_secs(600);
            cfg.propagation_jitter = SimDuration::from_secs(600);
            JournaledNode::new(id, cfg)
        },
    );
    for i in 0..8u64 {
        sim.schedule_external(
            SimTime(i * 200_000),
            NodeId((i % 9) as u32),
            ClientRequest::Write {
                id: i,
                write: PartialWrite::new([(0, Bytes::from(format!("w{i}")))]),
            },
        );
    }
    sim.run_for(SimDuration::from_secs(5));
    // With propagation effectively disabled there must be stale replicas.
    let stale_count = (0..9u32)
        .filter(|&i| sim.node(NodeId(i)).durable.stale)
        .count();
    assert!(stale_count > 0, "expected lingering stale replicas");
    sim.take_outputs();
    // Reads from every coordinator all see version 8.
    for (j, reader) in (0..9u32).enumerate() {
        sim.schedule_external(
            sim.now(),
            NodeId(reader),
            ClientRequest::Read { id: 100 + j as u64 },
        );
    }
    sim.run_for(SimDuration::from_secs(3));
    let evs = sim.take_outputs();
    let mut reads = 0;
    for (_, _, e) in &evs {
        if let ProtocolEvent::ReadOk { version, .. } = e {
            assert_eq!(*version, 8, "a read saw a non-latest version");
            reads += 1;
        }
    }
    assert!(
        reads >= 7,
        "most reads should complete, got {reads}: {evs:?}"
    );
}
