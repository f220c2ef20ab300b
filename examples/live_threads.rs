//! The dynamic grid protocol on real OS threads.
//!
//! The same `JournaledNode` byte-for-byte that runs on the deterministic
//! simulator here runs on nine OS threads with crossbeam channels and
//! wall-clock timers — writes commit in real milliseconds, a crashed node
//! is voted out of the epoch by the periodic epoch check, and writes keep
//! flowing.
//!
//! Run with: `cargo run --release --example live_threads`

// Demo on the real-thread host: wall-clock reads are the point.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use dyncoterie::protocol::{
    ClientRequest, JournaledNode, PartialWrite, ProtocolConfig, ProtocolEvent,
};
use dyncoterie::quorum::{GridCoterie, NodeId};
use dyncoterie::simnet::{SimDuration, ThreadedRuntime};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let n = 9;
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
        .check_period(SimDuration::from_millis(400));
    let rt = ThreadedRuntime::spawn(n, 7, Duration::from_millis(20), move |id| {
        JournaledNode::new(id, config.clone())
    });

    println!("nine replicas live on nine threads; writing...");
    let started = Instant::now();
    for i in 0..10u64 {
        rt.inject(
            NodeId((i % 9) as u32),
            ClientRequest::Write {
                id: i,
                write: PartialWrite::new([(0, Bytes::from(format!("live-{i}")))]),
            },
        );
        // Wait for the commit so versions stay ordered in this demo.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Some((node, ProtocolEvent::WriteOk { id, version, .. })) =
                rt.recv_output(Duration::from_millis(100))
            {
                if id == i {
                    println!(
                        "  [{:>7.3?}] write #{id} -> v{version} (coordinator {node:?})",
                        started.elapsed()
                    );
                    break;
                }
            }
        }
    }

    println!("\ncrashing node 8; the epoch check (400 ms period) will adapt:");
    rt.crash(NodeId(8));
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Some((node, ProtocolEvent::EpochInstalled { enumber, members })) =
            rt.recv_output(Duration::from_millis(100))
        {
            println!(
                "  [{:>7.3?}] {node:?} installed epoch #{enumber} ({} members)",
                started.elapsed(),
                members.len()
            );
            if members.len() == 8 {
                break;
            }
        }
    }

    rt.inject(
        NodeId(0),
        ClientRequest::Write {
            id: 100,
            write: PartialWrite::new([(1, Bytes::from_static(b"after the crash"))]),
        },
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if let Some((
            _,
            ProtocolEvent::WriteOk {
                id: 100, version, ..
            },
        )) = rt.recv_output(Duration::from_millis(100))
        {
            println!(
                "  [{:>7.3?}] post-crash write committed at v{version}",
                started.elapsed()
            );
            break;
        }
    }

    let nodes = rt.shutdown();
    let versions: Vec<u64> = nodes.iter().map(|nd| nd.durable.version).collect();
    println!("\nfinal replica versions: {versions:?}");
}
