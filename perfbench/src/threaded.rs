//! The threaded workload: a `ThreadedRuntime` of `JournaledNode`s, each
//! mirroring its journal to a real file with one `fdatasync` per flush.
//! One generator thread runs the closed loop through `inject` and
//! `recv_output`; the runtime adds no network delay. A client whose
//! request the protocol gives up on reissues the op, as in the sim
//! workloads, up to `MAX_TRIES` requests inside the window.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coterie_base::{SimDuration, SimTime};
use coterie_core::{keys, Durable, JournaledNode, MetricsRegistry, ProtocolConfig, ProtocolEvent};
use coterie_harness::checker::check_run;
use coterie_harness::workload::IssuedOp;
use coterie_quorum::{GridCoterie, NodeId};
use coterie_simnet::{Application, Ctx, ThreadedRuntime};

use crate::ops::{request_id, Kind, OpGen};
use crate::sim::MAX_TRIES;
use crate::stats::Latencies;

/// Replicas (a 2×2 grid): node threads stay near the two cores a small
/// machine has.
pub const NODES: usize = 4;
/// Logical closed-loop clients.
pub const CLIENTS: usize = 16;
/// Reads per thousand operations.
pub const READ_PERMILLE: u64 = 500;
/// Cluster constructions per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// How long stragglers may finish after the window (uncounted).
const GRACE: Duration = Duration::from_secs(3);

/// The protocol configuration, matching the sim workloads' features.
pub fn config() -> ProtocolConfig {
    ProtocolConfig::new(Arc::new(GridCoterie::new()), NODES)
        .write_batch(16)
        .pipeline(4)
        .group_commit(16, SimDuration::from_millis(2))
}

/// What one threaded run measured.
pub struct Run {
    /// Wall time of each cluster construction (spawn plus journal files).
    pub setup_s: Vec<f64>,
    /// Wall time of the timed window.
    pub window_s: f64,
    /// Ops issued inside the window.
    pub attempted: u64,
    /// Ops completed inside the window.
    pub committed: u64,
    /// Writes among them.
    pub writes: u64,
    /// Window ops still failed after `MAX_TRIES` requests.
    pub failed: u64,
    /// Requests issued inside the window (first tries and retries).
    pub requests: u64,
    /// Requests the protocol gave up on inside the window.
    pub gave_up: u64,
    /// Latency per committed op, from its first request to the reply.
    pub lat: Latencies,
    /// Ops committed in each whole second of the window.
    pub per_second: Vec<u64>,
    /// Longest wall stretch of the window with no committed write, µs.
    pub write_gap_us: u64,
    /// Wall time inside `inject`/`recv_output` during the window, s.
    pub call_s: f64,
    /// The shut-down nodes.
    pub nodes: Vec<JournaledNode>,
    /// Correctness violations.
    pub violations: Vec<String>,
    /// Wall time of the audit, s.
    pub check_s: f64,
}

impl Run {
    /// Every node's metrics merged.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for node in &self.nodes {
            merged.merge(&node.metrics());
        }
        merged
    }
}

fn spawn(config: &ProtocolConfig, seed: u64, dir: &Path) -> ThreadedRuntime<JournaledNode> {
    let node_config = config.clone();
    let dir = dir.to_path_buf();
    ThreadedRuntime::spawn(NODES, seed, Duration::from_millis(20), move |id| {
        let mut node = JournaledNode::new(id, node_config.clone());
        let path = dir.join(format!("n{}.ctj2", id.0));
        match std::fs::File::create(&path) {
            Ok(file) => node.attach_sync_file(file),
            Err(e) => eprintln!("cannot create {}: {e}", path.display()),
        }
        node
    })
}

/// A client's op in flight, across the requests it takes.
struct Open {
    client: usize,
    kind: Kind,
    /// When the client first issued it.
    first: Instant,
    /// Requests issued for it so far.
    tries: u32,
}

/// The closed loop's issuing side.
struct Gen {
    ops: OpGen,
    issued: HashMap<u64, IssuedOp>,
    open: HashMap<u64, Open>,
    read_cursor: u32,
    start: Instant,
    /// Wall time inside runtime calls during the window, ns.
    call_ns: u64,
}

impl Gen {
    /// Issues `client`'s next op.
    fn issue(&mut self, runtime: &ThreadedRuntime<JournaledNode>, client: usize) {
        let kind = self.ops.next_kind();
        let op = Open {
            client,
            kind,
            first: Instant::now(),
            tries: 0,
        };
        self.send(runtime, op);
    }

    /// Sends a request for `op`: writes to node 0, reads round-robin.
    fn send(&mut self, runtime: &ThreadedRuntime<JournaledNode>, mut op: Open) {
        let (request, write) = self.ops.request(op.kind);
        let id = request_id(&request);
        let node = match op.kind {
            Kind::Write(_) => NodeId(0),
            Kind::Read => {
                self.read_cursor = (self.read_cursor + 1) % NODES as u32;
                NodeId(self.read_cursor)
            }
        };
        let now = Instant::now();
        op.tries += 1;
        self.open.insert(id, op);
        self.issued.insert(
            id,
            IssuedOp {
                id,
                at: SimTime(now.duration_since(self.start).as_micros() as u64),
                coordinator: node,
                write,
            },
        );
        runtime.inject(node, request);
        self.call_ns += now.elapsed().as_nanos() as u64;
    }
}

/// Runs the threaded workload for `window` under `seed`, journals under
/// `dir` (created and removed here).
pub fn run(seed: u64, window: Duration, dir: &Path) -> std::io::Result<Run> {
    let config = config();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut runtime = None;
    for k in 0..SETUPS {
        let started = Instant::now();
        std::fs::create_dir_all(dir)?;
        let rt = spawn(&config, seed, dir);
        setup_s.push(started.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            rt.shutdown();
            std::fs::remove_dir_all(dir)?;
        } else {
            runtime = Some(rt);
        }
    }
    let runtime = runtime.expect("SETUPS is positive");

    let mut gen = Gen {
        ops: OpGen::new(seed, READ_PERMILLE, config.n_pages),
        issued: HashMap::new(),
        open: HashMap::new(),
        read_cursor: 0,
        start: Instant::now(),
        call_ns: 0,
    };
    let mut events: Vec<(SimTime, NodeId, ProtocolEvent)> = Vec::new();
    let mut run = Run {
        setup_s,
        window_s: 0.0,
        attempted: 0,
        committed: 0,
        writes: 0,
        failed: 0,
        requests: 0,
        gave_up: 0,
        lat: Latencies::default(),
        per_second: vec![0; window.as_secs() as usize],
        write_gap_us: 0,
        call_s: 0.0,
        nodes: Vec::new(),
        violations: Vec::new(),
        check_s: 0.0,
    };
    let start = gen.start;
    let us = |t: Instant| t.duration_since(start).as_micros() as u64;
    let mut last_write_us = 0u64;
    for client in 0..CLIENTS {
        gen.issue(&runtime, client);
        run.attempted += 1;
        run.requests += 1;
    }

    let mut in_window = true;
    loop {
        if in_window && start.elapsed() >= window {
            in_window = false;
            run.window_s = start.elapsed().as_secs_f64();
        }
        if !in_window && (gen.open.is_empty() || start.elapsed() >= window + GRACE) {
            break;
        }
        let before = Instant::now();
        let received = runtime.recv_output(Duration::from_millis(2));
        let at = Instant::now();
        if in_window {
            gen.call_ns += at.duration_since(before).as_nanos() as u64;
        }
        let Some((from, event)) = received else {
            continue;
        };
        let done = match &event {
            ProtocolEvent::ReadOk { id, .. } | ProtocolEvent::WriteOk { id, .. } => {
                Some((*id, true))
            }
            ProtocolEvent::Failed { id, .. } => Some((*id, false)),
            _ => None,
        };
        events.push((SimTime(us(at)), from, event));
        let Some((id, ok)) = done else {
            continue;
        };
        let Some(op) = gen.open.remove(&id) else {
            continue;
        };
        if !in_window {
            continue;
        }
        if !ok {
            run.gave_up += 1;
            if op.tries < MAX_TRIES {
                gen.send(&runtime, op);
                run.requests += 1;
                continue;
            }
        }
        if ok {
            let ns = at.duration_since(op.first).as_nanos() as u64;
            let is_write = matches!(op.kind, Kind::Write(_));
            run.committed += 1;
            run.lat.record(is_write, ns);
            if let Some(slot) = run
                .per_second
                .get_mut(at.duration_since(start).as_secs() as usize)
            {
                *slot += 1;
            }
            if is_write {
                run.writes += 1;
                run.write_gap_us = run.write_gap_us.max(us(at) - last_write_us);
                last_write_us = us(at);
            }
        } else {
            run.failed += 1;
        }
        gen.issue(&runtime, op.client);
        run.attempted += 1;
        run.requests += 1;
    }
    run.write_gap_us = run
        .write_gap_us
        .max((run.window_s * 1e6) as u64 - last_write_us.min((run.window_s * 1e6) as u64));
    run.call_s = gen.call_ns as f64 / 1e9;
    for (from, event) in runtime.drain_outputs() {
        events.push((SimTime(us(Instant::now())), from, event));
    }
    run.nodes = runtime.shutdown();
    std::fs::remove_dir_all(dir)?;

    let started = Instant::now();
    let report = check_run(&gen.issued, &events, config.n_pages);
    run.violations.extend(
        report
            .violations
            .iter()
            .map(|v| format!("1SR violation: {v:?}")),
    );
    let durable: Vec<&Durable> = run.nodes.iter().map(|n| &n.node.durable).collect();
    run.violations.extend(invariant_violations(&durable));
    if run.committed == 0 {
        run.violations.push("no op committed".to_string());
    }
    run.check_s = started.elapsed().as_secs_f64();
    Ok(run)
}

/// Epoch agreement and current-replica coherence over shut-down nodes:
/// the same invariants the explorer checks on a `StepDriver` cluster.
pub fn invariant_violations(nodes: &[&Durable]) -> Vec<String> {
    let mut violations = Vec::new();
    for (a, da) in nodes.iter().enumerate() {
        for (b, db) in nodes.iter().enumerate().skip(a + 1) {
            if da.enumber == db.enumber && da.elist != db.elist {
                violations.push(format!(
                    "epoch safety: nodes {a} and {b} both in epoch {} but lists {:?} vs {:?}",
                    da.enumber, da.elist, db.elist
                ));
            }
            if da.version == db.version
                && !da.stale
                && !db.stale
                && da.object.digest() != db.object.digest()
            {
                violations.push(format!(
                    "coherence: nodes {a} and {b} both current at version {} with different contents",
                    da.version
                ));
            }
        }
    }
    violations
}

/// A trivial application that answers every injected value at once: the
/// runtime's own hop cost, with no protocol work behind it.
struct Echo;

impl Application for Echo {
    type Msg = ();
    type Timer = ();
    type External = u64;
    type Output = u64;

    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self>) {}
    fn on_crash(&mut self) {}
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: ()) {}
    fn on_call_failed(&mut self, _ctx: &mut Ctx<'_, Self>, _to: NodeId, _msg: ()) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self>, _timer: ()) {}
    fn on_external(&mut self, ctx: &mut Ctx<'_, Self>, value: u64) {
        ctx.output(value);
    }
}

/// Median `inject` → `recv_output` round trip through a one-node runtime
/// hosting [`Echo`], µs, over `rounds` sequential round trips.
pub fn hop_rtt_us(rounds: u64) -> Option<f64> {
    let runtime = ThreadedRuntime::spawn(1, 0, Duration::from_millis(20), |_| Echo);
    let mut rtt = Vec::with_capacity(rounds as usize);
    let mut lost = false;
    for k in 0..rounds {
        let started = Instant::now();
        runtime.inject(NodeId(0), k);
        match runtime.recv_output(Duration::from_secs(1)) {
            Some((_, v)) if v == k => rtt.push(started.elapsed().as_nanos() as u64),
            _ => lost = true,
        }
    }
    runtime.shutdown();
    (!lost).then(|| crate::stats::quantile(&mut rtt, 0.5) / 1e3)
}

/// Journal flush latency quantile from the nodes' `journal_flush_us`
/// histograms, µs.
pub fn flush_us(metrics: &MetricsRegistry, q: f64) -> f64 {
    metrics
        .histogram(keys::JOURNAL_FLUSH_US)
        .map_or(0.0, |h| h.quantile(q) as f64)
}

/// This process's journal directory, under `root`.
pub fn journal_dir(root: &Path) -> PathBuf {
    root.join(format!("run-{}", std::process::id()))
}
