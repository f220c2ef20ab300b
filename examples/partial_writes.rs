//! Partial writes and stale marking: a file-system-like workload.
//!
//! Models the paper's motivating scenario (§1/§3): the object is a set of
//! pages ("a file"), each write updates only a few pages, and different
//! coordinators use different write quorums. Replicas left behind by a
//! quorum get *marked stale* instead of synchronously reconciled, and the
//! asynchronous propagation protocol catches them up from the write log.
//!
//! Run with: `cargo run --example partial_writes`

use bytes::Bytes;
use dyncoterie::protocol::{
    ClientRequest, JournaledNode, PartialWrite, ProtocolConfig, ProtocolEvent,
};
use dyncoterie::quorum::{GridCoterie, NodeId};
use dyncoterie::simnet::{Sim, SimConfig, SimDuration, SimTime};
use std::sync::Arc;

fn main() {
    let n = 9;
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), n).pages(8);
    let mut sim = Sim::new(n, SimConfig::default(), |id| {
        JournaledNode::new(id, config.clone())
    });

    // Twelve partial writes from rotating coordinators, each touching a
    // different page — like appends to different blocks of a file.
    for i in 0..12u64 {
        sim.schedule_external(
            SimTime(i * 300_000),
            NodeId((i % n as u64) as u32),
            ClientRequest::Write {
                id: i,
                write: PartialWrite::new([(
                    (i % 8) as u16,
                    Bytes::from(format!("block-{i}-data")),
                )]),
            },
        );
    }
    sim.run_for(SimDuration::from_secs(10));

    let mut marked_total = 0usize;
    let mut propagations = 0usize;
    for (t, node, event) in sim.take_outputs() {
        match event {
            ProtocolEvent::WriteOk {
                id,
                version,
                replicas_touched,
                marked_stale,
            } => {
                marked_total += marked_stale;
                println!(
                    "[{t}] write #{id} -> v{version}: quorum of {replicas_touched}, {marked_stale} marked stale"
                );
            }
            ProtocolEvent::Propagated { target, version } => {
                propagations += 1;
                println!(
                    "[{t}] {node:?} propagated missing updates to {target:?} (now v{version})"
                );
            }
            _ => {}
        }
    }
    println!(
        "\n{marked_total} stale marks, {propagations} asynchronous propagations, \
         zero synchronous reconciliations."
    );

    // Every replica that was marked stale has been caught up in the
    // background; read the final state.
    sim.schedule_external(sim.now(), NodeId(4), ClientRequest::Read { id: 100 });
    sim.run_for(SimDuration::from_millis(200));
    for (_, _, event) in sim.take_outputs() {
        if let ProtocolEvent::ReadOk { version, pages, .. } = event {
            println!("\nfinal read: version {version}");
            for (i, page) in pages.iter().enumerate() {
                if !page.is_empty() {
                    println!("  page {i}: {:?}", String::from_utf8_lossy(page));
                }
            }
        }
    }
    let stale_left = (0..n as u32)
        .filter(|&i| sim.node(NodeId(i)).durable.stale)
        .count();
    println!("replicas still stale: {stale_left}");
}
