//! An interactive shell driving a live replicated object.
//!
//! Runs nine replicas on real OS threads and lets you poke at them:
//!
//! ```text
//! > write 0 hello-world        # write page 0 via a random coordinator
//! > read                       # quorum read
//! > crash 4                    # kill node 4
//! > recover 4
//! > status                     # per-replica version/stale/epoch view
//! > quit
//! ```
//!
//! Run with: `cargo run --release --example repl`

// Interactive shell on the real-thread host: wall-clock reads are the point.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use dyncoterie::protocol::{
    ClientRequest, JournaledNode, PartialWrite, ProtocolConfig, ProtocolEvent,
};
use dyncoterie::quorum::{GridCoterie, NodeId};
use dyncoterie::simnet::{SimDuration, ThreadedRuntime};
use std::io::{BufRead, Write as _};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 9;

fn main() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), N)
        .check_period(SimDuration::from_millis(500));
    let rt = ThreadedRuntime::spawn(N, 0xC11, Duration::from_millis(20), move |id| {
        JournaledNode::new(id, config.clone())
    });
    println!(
        "dyncoterie repl: {N} replicas (dynamic grid) on {N} threads.\n\
         commands: write <page> <text> | read | crash <id> | recover <id> | quit"
    );

    let stdin = std::io::stdin();
    let mut next_id: u64 = 1;
    let mut coordinator: u32 = 0;
    loop {
        print!("> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        // Drain protocol chatter (epoch installs etc.) before acting.
        for (node, ev) in rt.drain_outputs() {
            report(node, &ev);
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["quit"] | ["exit"] => break,
            ["write", page, rest @ ..] => {
                let Ok(page) = page.parse::<u16>() else {
                    println!("usage: write <page> <text>");
                    continue;
                };
                let text = rest.join(" ");
                let id = next_id;
                next_id += 1;
                coordinator = (coordinator + 1) % N as u32;
                rt.inject(
                    NodeId(coordinator),
                    ClientRequest::Write {
                        id,
                        write: PartialWrite::new([(page, Bytes::from(text))]),
                    },
                );
                wait_for(&rt, id);
            }
            ["read"] => {
                let id = next_id;
                next_id += 1;
                coordinator = (coordinator + 1) % N as u32;
                rt.inject(NodeId(coordinator), ClientRequest::Read { id });
                wait_for(&rt, id);
            }
            ["crash", node] => match node.parse::<u32>() {
                Ok(v) if (v as usize) < N => {
                    rt.crash(NodeId(v));
                    println!("crashed n{v}");
                }
                _ => println!("usage: crash <0..{}>", N - 1),
            },
            ["recover", node] => match node.parse::<u32>() {
                Ok(v) if (v as usize) < N => {
                    rt.recover(NodeId(v));
                    println!("recovered n{v}");
                }
                _ => println!("usage: recover <0..{}>", N - 1),
            },
            [] => {}
            _ => {
                println!("commands: write <page> <text> | read | crash <id> | recover <id> | quit")
            }
        }
    }
    println!("shutting down ...");
    let nodes = rt.shutdown();
    for node in &nodes {
        println!(
            "  n{}: v{} epoch#{} ({} members){}",
            node.me,
            node.durable.version,
            node.durable.enumber,
            node.durable.elist.len(),
            if node.durable.stale { " STALE" } else { "" }
        );
    }
}

fn wait_for(rt: &ThreadedRuntime<JournaledNode>, want: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        let Some((node, ev)) = rt.recv_output(Duration::from_millis(100)) else {
            continue;
        };
        let done = matches!(
            &ev,
            ProtocolEvent::WriteOk { id, .. }
            | ProtocolEvent::ReadOk { id, .. }
            | ProtocolEvent::Failed { id, .. } if *id == want
        );
        report(node, &ev);
        if done {
            return;
        }
    }
    println!("  (timed out waiting for op {want})");
}

fn report(node: NodeId, ev: &ProtocolEvent) {
    match ev {
        ProtocolEvent::WriteOk { id, version, replicas_touched, marked_stale } => println!(
            "  ok: write #{id} -> v{version} via {node:?} ({replicas_touched} replicas, {marked_stale} marked stale)"
        ),
        ProtocolEvent::ReadOk { id, version, pages, .. } => {
            println!("  ok: read #{id} -> v{version} via {node:?}");
            for (i, p) in pages.iter().enumerate() {
                if !p.is_empty() {
                    println!("      page {i}: {:?}", String::from_utf8_lossy(p));
                }
            }
        }
        ProtocolEvent::Failed { id, reason } => println!("  FAILED: op #{id}: {reason:?}"),
        ProtocolEvent::EpochInstalled { enumber, members } => println!(
            "  [epoch] {node:?} installed epoch #{enumber} with {} members",
            members.len()
        ),
        ProtocolEvent::Propagated { target, version } => {
            println!("  [propagation] {node:?} caught {target:?} up to v{version}")
        }
        ProtocolEvent::SyncReconciliation { targets } => {
            println!("  [reconciliation] {targets} targets (write-all-current mode)")
        }
        ProtocolEvent::Rejoined { dversion, enumber } => println!(
            "  [rejoin] {node:?} rejoined epoch #{enumber} stale, awaiting repair to v{dversion}"
        ),
    }
}
