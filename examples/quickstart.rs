//! Quickstart: a 9-replica object under the dynamic grid protocol.
//!
//! Builds a simulated cluster, writes a value, reads it back from another
//! node, kills a replica, lets the epoch-checking protocol adapt, and
//! shows that writes keep working.
//!
//! Run with: `cargo run --example quickstart`

use bytes::Bytes;
use dyncoterie::protocol::{
    ClientRequest, JournaledNode, PartialWrite, ProtocolConfig, ProtocolEvent,
};
use dyncoterie::quorum::{GridCoterie, NodeId};
use dyncoterie::simnet::{Sim, SimConfig, SimDuration, SimTime};
use std::sync::Arc;

fn main() {
    // 1. Nine replicas arranged (logically) in a 3x3 grid; epochs are
    //    re-checked every 2 simulated seconds.
    let n = 9;
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
        .check_period(SimDuration::from_secs(2));
    let mut sim = Sim::new(n, SimConfig::default(), |id| {
        JournaledNode::new(id, config.clone())
    });

    // 2. A client at node 0 writes page 0.
    sim.schedule_external(
        SimTime::ZERO,
        NodeId(0),
        ClientRequest::Write {
            id: 1,
            write: PartialWrite::new([(0, Bytes::from_static(b"hello, coterie"))]),
        },
    );
    sim.run_for(SimDuration::from_millis(200));

    // 3. A client at node 5 reads it back.
    sim.schedule_external(sim.now(), NodeId(5), ClientRequest::Read { id: 2 });
    sim.run_for(SimDuration::from_millis(200));

    for (t, node, event) in sim.take_outputs() {
        match event {
            ProtocolEvent::WriteOk {
                id,
                version,
                replicas_touched,
                marked_stale,
            } => {
                println!("[{t}] write #{id} committed at version {version} (touched {replicas_touched} replicas, marked {marked_stale} stale) via {node:?}")
            }
            ProtocolEvent::ReadOk {
                id, version, pages, ..
            } => println!(
                "[{t}] read #{id} -> version {version}, page 0 = {:?}",
                String::from_utf8_lossy(&pages[0])
            ),
            other => println!("[{t}] {node:?}: {other:?}"),
        }
    }

    // 4. Kill a replica; epoch checking notices and shrinks the epoch so
    //    future quorums avoid the dead node.
    println!("\ncrashing node 8 ...");
    sim.crash_now(NodeId(8));
    sim.run_for(SimDuration::from_secs(8));
    for (t, node, event) in sim.take_outputs() {
        if let ProtocolEvent::EpochInstalled { enumber, members } = event {
            println!(
                "[{t}] {node:?} installed epoch #{enumber} with {} members",
                members.len()
            );
        }
    }

    // 5. Writes still succeed — the static grid protocol could be stuck if
    //    the failure had landed badly; the dynamic protocol adapts.
    sim.schedule_external(
        sim.now(),
        NodeId(3),
        ClientRequest::Write {
            id: 3,
            write: PartialWrite::new([(1, Bytes::from_static(b"still writable"))]),
        },
    );
    sim.run_for(SimDuration::from_millis(500));
    for (t, _, event) in sim.take_outputs() {
        if let ProtocolEvent::WriteOk { id, version, .. } = event {
            println!("[{t}] write #{id} committed at version {version} after the failure");
        }
    }
    println!(
        "\nepoch at node 0: {:?} (epoch #{})",
        sim.node(NodeId(0)).durable.elist,
        sim.node(NodeId(0)).durable.enumber
    );
}
