//! The closed-loop generator over a [`StepDriver`] cluster.
//!
//! One thread drives everything: `clients` logical closed-loop clients,
//! each of which issues its next operation as soon as the previous one
//! completes or fails. The schedule is the zero-latency one: pending
//! messages deliver in send order, 1 µs of simulated time per hop.
//!
//! Per driver call the loop decides, in order:
//! 1. fire any timer with `fire_at <= now` (earliest first, ties by node
//!    then id), so timers never starve behind a busy message pool;
//! 2. flush group commit if a delta has waited `group_commit_max_delay`;
//! 3. deliver the oldest pending message;
//! 4. flush group commit once the pool drains;
//! 5. otherwise jump to the next timer or crash-schedule event.
//!
//! A client whose request the protocol gives up on (`ProtocolEvent::Failed`,
//! or a crash of its coordinator) reissues the op as a new request, up to
//! [`MAX_TRIES`] requests per op; only then does the op count as failed.
//! Retries go on through the drain, so the audit sees them settle.
//!
//! The loop never uses `StepDriver::run_for`: that call ends its window at
//! the deadline even when deliveries ran past it, so short windows make
//! simulated time step backwards.
//!
//! Finding due timers without scanning the pending-timer pool: the driver
//! appends new timers at the end of `pending_timers()` and only ever
//! removes entries in place, and timer ids grow per node. So after a call
//! the new timers are exactly the suffix whose ids exceed the newest id
//! seen for their node, and the pool stays sorted by the order the loop
//! first saw each timer. New timers go into a min-heap keyed like the
//! driver's own firing order (expiry, node, id); the heap may also hold
//! timers that already fired or were canceled, and a binary search of the
//! pool by arming order tells the two apart when one reaches the head.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use coterie_base::{SimDuration, SimTime};
use coterie_core::{ClientRequest, PendingTimer, ProtocolConfig, ProtocolEvent, StepDriver};
use coterie_harness::checker::check_run;
use coterie_harness::explore::cluster_invariant_violations;
use coterie_harness::workload::IssuedOp;
use coterie_quorum::{GridCoterie, NodeId};

use crate::ops::{request_id, Kind, OpGen, SplitMix};
use crate::stats::Latencies;
use crate::trace::Recorder;

/// How long stragglers may run after the window so the audit sees
/// complete histories. Their completions are not counted.
const DRAIN: SimDuration = SimDuration::from_secs(5);

/// Requests a client makes for one op before it counts the op as failed.
pub const MAX_TRIES: u32 = 16;

/// Shape of one sim workload.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// Replicas (a square grid).
    pub nodes: usize,
    /// Logical closed-loop clients.
    pub clients: usize,
    /// Reads per thousand operations.
    pub read_permille: u64,
    /// Simulated length of the timed window.
    pub window: SimDuration,
    /// Epoch-check period; `None` keeps the protocol default.
    pub check_period: Option<SimDuration>,
    /// Rolling fail-stop schedule, if any.
    pub crashes: Option<CrashPlan>,
}

/// A rolling fail-stop schedule: every `every` one more non-coordinator
/// replica crashes, and each comes back through checked journal replay
/// `down_for` after it went down.
#[derive(Clone, Copy, Debug)]
pub struct CrashPlan {
    /// Interval between crashes.
    pub every: SimDuration,
    /// Downtime of each crashed replica.
    pub down_for: SimDuration,
}

impl SimSpec {
    /// The protocol configuration: dynamic grid, batching 16, pipelining
    /// 4, group commit 16 (2 ms deadline). The engine keeps its default RNG
    /// seed: the benchmark seed only shapes the inputs.
    pub fn config(&self) -> ProtocolConfig {
        let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), self.nodes)
            .write_batch(16)
            .pipeline(4)
            .group_commit(16, SimDuration::from_millis(2));
        match self.check_period {
            Some(period) => config.check_period(period),
            None => config,
        }
    }
}

/// One public `StepDriver` call.
#[derive(Debug)]
pub enum Call {
    /// `deliver(0)`: the oldest pending message.
    Deliver,
    /// `fire(i)`.
    Fire(usize),
    /// `flush_group_commit()`.
    Flush,
    /// `inject(node, request)`.
    Inject(NodeId, ClientRequest),
    /// `crash(node)`.
    Crash(NodeId),
    /// `recover(node)`.
    Recover(NodeId),
}

fn apply(driver: &mut StepDriver, call: Call) {
    match call {
        Call::Deliver => driver.deliver(0),
        Call::Fire(i) => driver.fire(i),
        Call::Flush => {
            driver.flush_group_commit();
        }
        Call::Inject(node, request) => driver.inject(node, request),
        Call::Crash(node) => driver.crash(node),
        Call::Recover(node) => driver.recover(node),
    }
}

/// Index of candidate timer expiries (see the module docs).
struct TimerIndex {
    /// `(fire_at, node, id, seq)`: the driver's firing order, then the
    /// arming sequence number used to find the timer in the pool.
    heap: BinaryHeap<Reverse<(SimTime, u32, u64, u64)>>,
    /// Newest timer id seen per node.
    newest: Vec<Option<u64>>,
    /// Arming sequence number per node, indexed by timer id (ids are a
    /// dense per-node counter). The pool is sorted by it.
    seq: Vec<Vec<u64>>,
    next_seq: u64,
}

impl TimerIndex {
    fn new(n: usize) -> Self {
        TimerIndex {
            heap: BinaryHeap::new(),
            newest: vec![None; n],
            seq: vec![Vec::new(); n],
            next_seq: 0,
        }
    }

    /// Indexes the timers armed since the last call.
    fn observe(&mut self, timers: &[PendingTimer]) {
        let fresh = timers
            .iter()
            .rev()
            .take_while(|t| self.newest[t.node.0 as usize].is_none_or(|newest| t.id.0 > newest))
            .count();
        for t in &timers[timers.len() - fresh..] {
            let (node, id) = (t.node.0 as usize, t.id.0 as usize);
            if self.seq[node].len() <= id {
                self.seq[node].resize(id + 1, u64::MAX);
            }
            self.seq[node][id] = self.next_seq;
            self.heap
                .push(Reverse((t.fire_at, t.node.0, t.id.0, self.next_seq)));
            self.next_seq += 1;
            self.newest[node] = Some(t.id.0);
        }
    }

    /// A recovered node starts with no timers; accept whatever ids it
    /// arms next.
    fn forget(&mut self, node: NodeId) {
        self.newest[node.0 as usize] = None;
    }

    /// The earliest live timer (pool index, expiry). Index entries for
    /// timers that already fired or were canceled are dropped on the way.
    fn earliest(&mut self, timers: &[PendingTimer]) -> Option<(usize, SimTime)> {
        while let Some(Reverse((at, _, _, seq))) = self.heap.peek().copied() {
            let found =
                timers.binary_search_by_key(&seq, |t| self.seq[t.node.0 as usize][t.id.0 as usize]);
            match found {
                Ok(i) => return Some((i, at)),
                Err(_) => {
                    self.heap.pop();
                }
            }
        }
        None
    }

    /// The pool index of a timer due at `now`, if any.
    fn due(&mut self, timers: &[PendingTimer], now: SimTime) -> Option<usize> {
        match self.heap.peek() {
            Some(Reverse((at, ..))) if *at <= now => {}
            _ => return None,
        }
        match self.earliest(timers) {
            Some((i, at)) if at <= now => Some(i),
            _ => None,
        }
    }
}

/// The rolling crash schedule's state.
struct Faults {
    plan: CrashPlan,
    /// Picks each victim among the live non-coordinator replicas.
    rng: SplitMix,
    next_crash: SimTime,
    recoveries: VecDeque<(SimTime, NodeId)>,
}

impl Faults {
    fn next_event(&self) -> SimTime {
        let recover = self.recoveries.front().map(|(at, _)| *at);
        recover.map_or(self.next_crash, |r| r.min(self.next_crash))
    }
}

/// A client's op, across the requests it takes.
#[derive(Clone, Copy)]
struct ClientOp {
    client: usize,
    kind: Kind,
    /// When the client first issued it.
    first_sim: SimTime,
    first_wall: Instant,
    /// Requests issued for it so far.
    tries: u32,
}

/// A request in flight.
struct Open {
    op: ClientOp,
    node: NodeId,
    issued_sim: SimTime,
}

/// Everything one episode measured, plus the final cluster for the audit.
pub struct Episode {
    /// `StepDriver::new` wall time.
    pub setup_s: f64,
    /// Wall time of the timed window.
    pub window_s: f64,
    /// Wall time of the whole generator loop (window plus drain).
    pub loop_s: f64,
    /// Ops issued inside the window.
    pub attempted: u64,
    /// Ops completed inside the window.
    pub committed: u64,
    /// Writes among them.
    pub writes: u64,
    /// Window ops still failed after `MAX_TRIES` requests.
    pub failed: u64,
    /// Requests issued for window ops (first tries and retries).
    pub requests: u64,
    /// Requests of window ops the protocol gave up on
    /// (`ProtocolEvent::Failed`) or a crash took down with their
    /// coordinator; each made its client retry or fail the op.
    pub gave_up: u64,
    /// Simulated latency per committed op, from its first request to the
    /// reply, µs.
    pub sim_lat_us: Vec<u64>,
    /// Wall latency per committed op, from its first request to the reply.
    pub wall_lat: Latencies,
    /// Longest stretch of simulated window time with no committed write.
    pub write_gap_us: u64,
    /// Crash-schedule recoveries performed.
    pub recoveries: u64,
    /// Epoch member lists installed during the run (first: the initial
    /// full view).
    pub views: Vec<Vec<NodeId>>,
    /// The final cluster.
    pub driver: StepDriver,
    /// Every op issued (window and drain), for the 1SR audit.
    pub issued: Vec<IssuedOp>,
    /// Violations seen by the loop itself (time order) and the audit.
    pub violations: Vec<String>,
}

impl Episode {
    /// The 1SR checker plus the cluster invariants (epoch agreement,
    /// current-replica coherence). Returns the audit's wall time.
    pub fn audit(&mut self) -> f64 {
        let started = Instant::now();
        let issued: HashMap<u64, IssuedOp> =
            self.issued.iter().map(|op| (op.id, op.clone())).collect();
        let n_pages = self.driver.node(NodeId(0)).config.n_pages;
        let report = check_run(&issued, self.driver.outputs(), n_pages);
        self.violations.extend(
            report
                .violations
                .iter()
                .map(|v| format!("1SR violation: {v:?}")),
        );
        self.violations
            .extend(cluster_invariant_violations(&self.driver));
        if self.committed == 0 {
            self.violations.push("no op committed".to_string());
        }
        started.elapsed().as_secs_f64()
    }

    /// Deterministic per-episode values: identical on every run of the
    /// same seed.
    pub fn fingerprint(&self) -> String {
        format!(
            "att={} com={} wr={} fail={} req={} gave_up={} gap={} rec={} lat={:?} out={} counters={:?}",
            self.attempted,
            self.committed,
            self.writes,
            self.failed,
            self.requests,
            self.gave_up,
            self.write_gap_us,
            self.recoveries,
            self.sim_lat_us,
            self.driver.outputs().len(),
            self.driver.metrics().counters().collect::<Vec<_>>(),
        )
    }
}

/// The generator loop's state.
struct Loop<'r> {
    config: ProtocolConfig,
    spec: SimSpec,
    ops: OpGen,
    recorder: Option<&'r mut Recorder>,
    timers: TimerIndex,
    faults: Option<Faults>,
    open: HashMap<u64, Open>,
    idle: Vec<usize>,
    /// Ops whose last request the protocol gave up on, to reissue.
    retry: Vec<ClientOp>,
    down: Vec<bool>,
    read_cursor: usize,
    scanned: usize,
    buffered_since: Option<SimTime>,
    deadline: SimTime,
    refilling: bool,
    prev_now: SimTime,
    ep: EpisodeAcc,
}

/// Accumulators that become the [`Episode`].
#[derive(Default)]
struct EpisodeAcc {
    attempted: u64,
    committed: u64,
    writes: u64,
    failed: u64,
    requests: u64,
    gave_up: u64,
    sim_lat_us: Vec<u64>,
    wall_lat: Latencies,
    last_write: SimTime,
    write_gap_us: u64,
    recoveries: u64,
    views: Vec<Vec<NodeId>>,
    issued: Vec<IssuedOp>,
    violations: Vec<String>,
}

impl Loop<'_> {
    fn call(&mut self, driver: &mut StepDriver, call: Call) {
        if let Call::Recover(node) = call {
            self.timers.forget(node);
        }
        match self.recorder.as_deref_mut() {
            None => apply(driver, call),
            Some(rec) => {
                rec.before(driver, &call);
                let recover = matches!(call, Call::Recover(_));
                let started = Instant::now();
                apply(driver, call);
                let ns = started.elapsed().as_nanos() as u64;
                rec.after(driver, ns, recover);
            }
        }
        self.timers.observe(driver.pending_timers());
        let any_buffered = (0..self.spec.nodes).any(|i| driver.gc_buffered(NodeId(i as u32)) > 0);
        self.buffered_since = match (any_buffered, self.buffered_since) {
            (false, _) => None,
            (true, Some(since)) => Some(since),
            (true, None) => Some(driver.now()),
        };
        self.harvest(driver);
    }

    /// Matches new outputs to open ops and frees their clients.
    fn harvest(&mut self, driver: &StepDriver) {
        let outs = driver.outputs();
        let mut wall: Option<Instant> = None;
        while self.scanned < outs.len() {
            let (at, _, event) = &outs[self.scanned];
            self.scanned += 1;
            let (id, ok) = match event {
                ProtocolEvent::ReadOk { id, .. } | ProtocolEvent::WriteOk { id, .. } => (*id, true),
                ProtocolEvent::Failed { id, .. } => (*id, false),
                ProtocolEvent::EpochInstalled { members, .. } => {
                    if !self.ep.views.contains(members) {
                        self.ep.views.push(members.clone());
                    }
                    continue;
                }
                _ => continue,
            };
            let Some(Open { op, issued_sim, .. }) = self.open.remove(&id) else {
                continue;
            };
            if *at < issued_sim {
                self.ep.violations.push(format!(
                    "op {id} completed at {} µs, before its issue at {} µs",
                    at.0, issued_sim.0
                ));
            }
            if !ok {
                self.gave_up(op);
                continue;
            }
            self.idle.push(op.client);
            if op.first_sim >= self.deadline || *at > self.deadline {
                continue;
            }
            let wall_ns = wall
                .get_or_insert_with(Instant::now)
                .duration_since(op.first_wall);
            let wall_ns = wall_ns.as_nanos() as u64;
            let is_write = matches!(op.kind, Kind::Write(_));
            self.ep.committed += 1;
            self.ep.sim_lat_us.push(at.0 - op.first_sim.0);
            self.ep.wall_lat.record(is_write, wall_ns);
            if is_write {
                self.ep.writes += 1;
                self.ep.write_gap_us = self.ep.write_gap_us.max(at.0 - self.ep.last_write.0);
                self.ep.last_write = *at;
            }
        }
    }

    /// Reissues the ops waiting for a retry, then, while the window is
    /// open, issues the next op of every idle client.
    fn refill(&mut self, driver: &mut StepDriver) {
        while let Some(op) = self.retry.pop() {
            self.issue(driver, op);
        }
        while self.refilling {
            let Some(client) = self.idle.pop() else {
                break;
            };
            self.ep.attempted += 1;
            let op = ClientOp {
                client,
                kind: self.ops.next_kind(),
                first_sim: driver.now(),
                first_wall: Instant::now(),
                tries: 0,
            };
            self.issue(driver, op);
        }
    }

    /// Sends a request for `op`: writes to node 0, reads round-robin.
    fn issue(&mut self, driver: &mut StepDriver, mut op: ClientOp) {
        let (request, write) = self.ops.request(op.kind);
        let id = request_id(&request);
        let node = match op.kind {
            Kind::Write(_) => NodeId(0),
            Kind::Read => self.next_reader(),
        };
        let now = driver.now();
        op.tries += 1;
        if op.first_sim < self.deadline {
            self.ep.requests += 1;
        }
        self.open.insert(
            id,
            Open {
                op,
                node,
                issued_sim: now,
            },
        );
        self.ep.issued.push(IssuedOp {
            id,
            at: now,
            coordinator: node,
            write,
        });
        self.call(driver, Call::Inject(node, request));
    }

    /// The protocol gave up on `op`'s last request: its client retries,
    /// or fails the op after `MAX_TRIES` requests.
    fn gave_up(&mut self, op: ClientOp) {
        let in_window = op.first_sim < self.deadline;
        if in_window {
            self.ep.gave_up += 1;
        }
        if op.tries < MAX_TRIES {
            self.retry.push(op);
            return;
        }
        if in_window {
            self.ep.failed += 1;
        }
        self.idle.push(op.client);
    }

    /// Round-robin over replicas that are up.
    fn next_reader(&mut self) -> NodeId {
        let n = self.spec.nodes;
        for _ in 0..n {
            let node = NodeId((self.read_cursor % n) as u32);
            self.read_cursor += 1;
            if !self.down[node.0 as usize] {
                return node;
            }
        }
        NodeId(0)
    }

    /// A crash loses the requests `node` coordinates: their clients stop
    /// waiting and retry elsewhere.
    fn abandon(&mut self, node: NodeId) {
        let mut lost: Vec<u64> = self
            .open
            .iter()
            .filter(|(_, open)| open.node == node)
            .map(|(id, _)| *id)
            .collect();
        lost.sort_unstable();
        for id in lost {
            if let Some(open) = self.open.remove(&id) {
                self.gave_up(open.op);
            }
        }
    }

    /// Applies the crash-schedule event due at `now`, if any. Returns true
    /// if it made a driver call.
    fn fault_step(&mut self, driver: &mut StepDriver, now: SimTime) -> bool {
        let Some(faults) = self.faults.as_mut() else {
            return false;
        };
        let call = match faults.recoveries.front() {
            Some(&(at, node)) if at <= now => {
                faults.recoveries.pop_front();
                self.down[node.0 as usize] = false;
                self.ep.recoveries += 1;
                Call::Recover(node)
            }
            _ if faults.next_crash <= now => {
                let up: Vec<NodeId> = (1..self.spec.nodes as u32)
                    .map(NodeId)
                    .filter(|n| !self.down[n.0 as usize])
                    .collect();
                let victim = up[faults.rng.below(up.len() as u64) as usize];
                faults.next_crash += faults.plan.every;
                faults
                    .recoveries
                    .push_back((now + faults.plan.down_for, victim));
                self.down[victim.0 as usize] = true;
                self.abandon(victim);
                Call::Crash(victim)
            }
            _ => return false,
        };
        self.call(driver, call);
        true
    }

    /// Runs until the window closes and the stragglers drain. Returns the
    /// wall time of the window and of the whole loop.
    fn run(&mut self, driver: &mut StepDriver) -> (f64, f64) {
        let max_delay = self.config.group_commit_max_delay;
        let drain_end = self.deadline + DRAIN;
        self.timers.observe(driver.pending_timers());
        let started = Instant::now();
        let mut window_s = None;
        self.refill(driver);
        loop {
            let now = driver.now();
            if now < self.prev_now {
                self.ep.violations.push(format!(
                    "simulated time went back from {} µs to {} µs",
                    self.prev_now.0, now.0
                ));
            }
            self.prev_now = now;
            if self.refilling && now >= self.deadline {
                self.refilling = false;
                self.faults = None;
                window_s = Some(started.elapsed().as_secs_f64());
            }
            let settled = self.open.is_empty() && self.retry.is_empty();
            if !self.refilling && (settled || now >= drain_end) {
                break;
            }
            self.refill(driver);
            if self.refilling && self.fault_step(driver, now) {
                continue;
            }
            if let Some(i) = self.timers.due(driver.pending_timers(), now) {
                self.call(driver, Call::Fire(i));
                continue;
            }
            if self
                .buffered_since
                .is_some_and(|since| now >= since + max_delay)
            {
                self.call(driver, Call::Flush);
                continue;
            }
            if !driver.pending_messages().is_empty() {
                self.call(driver, Call::Deliver);
                continue;
            }
            if self.buffered_since.is_some() {
                self.call(driver, Call::Flush);
                continue;
            }
            // Idle at `now`: jump to the next timer or schedule event.
            let next_timer = self.timers.earliest(driver.pending_timers());
            let next_fault = self.faults.as_ref().map(Faults::next_event);
            let horizon = if self.refilling {
                self.deadline
            } else {
                drain_end
            };
            match (next_timer, next_fault) {
                (_, Some(at)) if next_timer.is_none_or(|(_, t)| at < t) && at <= horizon => {
                    driver.advance(at - now);
                }
                (Some((i, at)), _) if at <= horizon => self.call(driver, Call::Fire(i)),
                _ if self.refilling => driver.advance(self.deadline - now),
                _ => break,
            }
        }
        let loop_s = started.elapsed().as_secs_f64();
        (window_s.unwrap_or(loop_s), loop_s)
    }
}

/// Runs one episode of `spec` under `seed`: builds the cluster (timed as
/// set-up), runs the timed window and the drain. With a recorder attached,
/// every driver call is timed and its inputs recorded.
pub fn run_episode(spec: &SimSpec, seed: u64, recorder: Option<&mut Recorder>) -> Episode {
    let config = spec.config();
    let n = spec.nodes;
    let setup = Instant::now();
    let mut driver = StepDriver::new(n, config.clone());
    let setup_s = setup.elapsed().as_secs_f64();
    let mut recorder = recorder;
    if let Some(rec) = recorder.as_deref_mut() {
        rec.start(&driver);
    }
    let faults = spec.crashes.map(|plan| Faults {
        plan,
        rng: SplitMix::new(seed ^ 0xC4A5_11ED),
        next_crash: SimTime::ZERO + plan.every,
        recoveries: VecDeque::new(),
    });
    let mut state = Loop {
        ops: OpGen::new(seed, spec.read_permille, config.n_pages),
        config,
        spec: spec.clone(),
        recorder,
        timers: TimerIndex::new(n),
        faults,
        open: HashMap::new(),
        idle: (0..spec.clients).rev().collect(),
        retry: Vec::new(),
        down: vec![false; n],
        read_cursor: 0,
        scanned: 0,
        buffered_since: None,
        deadline: SimTime::ZERO + spec.window,
        refilling: true,
        prev_now: SimTime::ZERO,
        ep: EpisodeAcc {
            views: vec![(0..n as u32).map(NodeId).collect()],
            ..EpisodeAcc::default()
        },
    };
    let (window_s, loop_s) = state.run(&mut driver);
    let mut acc = state.ep;
    let end = state.deadline.0;
    acc.write_gap_us = acc.write_gap_us.max(end - acc.last_write.0);
    Episode {
        setup_s,
        window_s,
        loop_s,
        attempted: acc.attempted,
        committed: acc.committed,
        writes: acc.writes,
        failed: acc.failed,
        requests: acc.requests,
        gave_up: acc.gave_up,
        sim_lat_us: acc.sim_lat_us,
        wall_lat: acc.wall_lat,
        write_gap_us: acc.write_gap_us,
        recoveries: acc.recoveries,
        views: acc.views,
        driver,
        issued: acc.issued,
        violations: acc.violations,
    }
}
