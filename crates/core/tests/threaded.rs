//! The same `JournaledNode` program that runs on the deterministic simulator
//! also runs on real OS threads (crossbeam channels, wall-clock timers):
//! the protocol implementation is substrate-independent.

// Deadline polling against the real-thread host needs the real clock.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use coterie_core::{ClientRequest, JournaledNode, PartialWrite, ProtocolConfig, ProtocolEvent};
use coterie_quorum::{GridCoterie, NodeId};
use coterie_simnet::{SimDuration, ThreadedRuntime};
use std::sync::Arc;
use std::time::Duration;

fn spawn_cluster(n: usize) -> ThreadedRuntime<JournaledNode> {
    // Epoch checks every 500 ms of *wall clock*; timeouts as configured.
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), n)
        .check_period(SimDuration::from_millis(500));
    ThreadedRuntime::spawn(n, 42, Duration::from_millis(20), move |id| {
        JournaledNode::new(id, config.clone())
    })
}

#[test]
fn writes_and_reads_commit_over_real_threads() {
    let rt = spawn_cluster(9);
    for i in 0..5u64 {
        rt.inject(
            NodeId((i % 9) as u32),
            ClientRequest::Write {
                id: i,
                write: PartialWrite::new([(0, Bytes::from(format!("w{i}")))]),
            },
        );
        // Wait for this write's commit before issuing the next (real time,
        // so ordering is not deterministic otherwise).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut committed = false;
        while std::time::Instant::now() < deadline {
            if let Some((_, e)) = rt.recv_output(Duration::from_millis(200)) {
                match e {
                    ProtocolEvent::WriteOk { id, version, .. } if id == i => {
                        assert_eq!(version, i + 1);
                        committed = true;
                        break;
                    }
                    _ => {}
                }
            }
        }
        assert!(committed, "write {i} did not commit over threads");
    }
    // Read from a different node.
    rt.inject(NodeId(7), ClientRequest::Read { id: 99 });
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut read_ok = false;
    while std::time::Instant::now() < deadline {
        if let Some((
            _,
            ProtocolEvent::ReadOk {
                id: 99,
                version,
                pages,
                ..
            },
        )) = rt.recv_output(Duration::from_millis(200))
        {
            assert_eq!(version, 5);
            assert_eq!(pages[0], Bytes::from_static(b"w4"));
            read_ok = true;
            break;
        }
    }
    assert!(read_ok, "read did not complete over threads");
    // Give asynchronous propagation a moment, then check convergence: at
    // least the safety threshold's worth of replicas hold v5 and nobody is
    // left stale.
    std::thread::sleep(Duration::from_millis(1500));
    let nodes = rt.shutdown();
    let holders = nodes.iter().filter(|n| n.durable.version == 5).count();
    assert!(holders >= 2, "only {holders} replicas hold v5");
    assert!(nodes.iter().all(|n| !n.durable.stale), "stale replica left");
}

#[test]
fn epoch_adapts_to_a_crash_over_real_threads() {
    let rt = spawn_cluster(9);
    rt.crash(NodeId(8));
    // Wait for an epoch installation event (check period is 500 ms).
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let mut installed = false;
    while std::time::Instant::now() < deadline {
        if let Some((_, ProtocolEvent::EpochInstalled { members, .. })) =
            rt.recv_output(Duration::from_millis(200))
        {
            if members.len() == 8 {
                installed = true;
                break;
            }
        }
    }
    assert!(installed, "epoch change did not happen over threads");
    // A write still commits.
    rt.inject(
        NodeId(0),
        ClientRequest::Write {
            id: 1,
            write: PartialWrite::new([(0, Bytes::from_static(b"post-crash"))]),
        },
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut committed = false;
    while std::time::Instant::now() < deadline {
        if let Some((_, ProtocolEvent::WriteOk { id: 1, .. })) =
            rt.recv_output(Duration::from_millis(200))
        {
            committed = true;
            break;
        }
    }
    assert!(committed);
    rt.shutdown();
}
