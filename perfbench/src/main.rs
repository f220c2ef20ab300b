//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it makes a separate traced run and reports the per-layer
//! metrics. Every run audits its outputs; the last stdout line is one JSON
//! object, and the exit code is non-zero if any check failed. See
//! `perfbench/README.md` for the workloads and the metric map.

// The benchmark is a host: wall-clock time is what it measures, and its
// keyed bookkeeping never feeds engine effects.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod calib;
mod layers;
mod ops;
mod report;
mod sim;
mod stats;
mod threaded;
mod trace;

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use coterie_base::SimDuration;
use coterie_core::{ProtocolEvent, StepDriver};
use coterie_quorum::NodeId;
use coterie_simnet::Application;

use report::Report;
use sim::{CrashPlan, SimSpec};
use stats::{interquartile_mean, median, quantile, ratio, Latencies};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
     workloads: sim-grid9-mixed, threaded-grid4-fsync, sim-grid9-crash";

/// 3×3 dynamic grid, 32 clients, 50% writes, no faults.
const MIXED: SimSpec = SimSpec {
    nodes: 9,
    clients: 32,
    read_permille: 500,
    window: SimDuration::from_millis(1_000),
    check_period: None,
    crashes: None,
};

/// `MIXED` plus 200 ms epoch checks and a rolling fail-stop schedule.
const CRASH: SimSpec = SimSpec {
    nodes: 9,
    clients: 32,
    read_permille: 500,
    window: SimDuration::from_millis(3_000),
    check_period: Some(SimDuration::from_millis(200)),
    crashes: Some(CrashPlan {
        every: SimDuration::from_millis(400),
        down_for: SimDuration::from_millis(1_200),
    }),
};

/// Sim episodes per run at least.
const MIN_EPISODES: usize = 2;
/// Extra `StepDriver::new` samples per sim episode for the `setup_s`
/// median, taken between episodes so they see a warm process.
const SIM_SETUPS: usize = 100;
/// Hard stop for measuring, well inside the 180 s run limit.
const RUN_LIMIT: Duration = Duration::from_secs(120);
/// Round trips in the threaded hop probe.
const HOP_ROUNDS: u64 = 2_000;
/// Where the threaded workload keeps its journal files (relative to the
/// working directory; removed at the end of the run).
const JOURNAL_ROOT: &str = ".perfbench-tmp";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "sim-grid9-mixed" => sim_workload(&MIXED, &args),
        "sim-grid9-crash" => sim_workload(&CRASH, &args),
        "threaded-grid4-fsync" => threaded_workload(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    print!("{}", report.human());
    for v in &report.violations {
        println!("VIOLATION: {v}");
    }
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}

fn sim_workload(spec: &SimSpec, args: &Args) -> Report {
    if args.trace {
        sim_traced(spec, args.seed, args.seconds as f64)
    } else {
        sim_end_to_end(spec, args.seed, args.seconds as f64)
    }
}

/// Runs episodes under sub-seeds drawn from `seed` until `seconds` of
/// timed window accumulate, audits each, and reports pooled figures:
/// committed ops over total window time, and exact latency percentiles
/// over every committed op. Distinct sub-seeds average out the op-stream
/// sensitivity of one episode at no extra cost. The machine speed is
/// calibrated between episodes; each episode's times are reported at
/// nominal speed (see `calib`) by the mean of the calibrations before and
/// after it, set-ups by the one before them. The raw throughput goes to
/// the human-readable lines.
fn sim_end_to_end(spec: &SimSpec, seed: u64, seconds: f64) -> Report {
    let started = Instant::now();
    let mut report = Report::default();
    let mut seeds = ops::SplitMix::new(seed);
    let config = spec.config();
    let (mut setups, mut references) = (Vec::new(), Vec::new());
    let mut lat = Latencies::default();
    let (mut committed, mut raw_window, mut window, mut episodes) = (0u64, 0.0, 0.0, 0);
    let mut speed = calib::Speed::measure();
    references.push(speed.reference_ms);
    while episodes < MIN_EPISODES || (raw_window < seconds && started.elapsed() < RUN_LIMIT) {
        for _ in 0..SIM_SETUPS {
            let t = Instant::now();
            black_box(StepDriver::new(spec.nodes, config.clone()));
            setups.push(speed.time(t.elapsed().as_secs_f64()));
        }
        let mut ep = sim::run_episode(spec, seeds.next_u64(), None);
        let after = calib::Speed::measure();
        references.push(after.reference_ms);
        let during = speed.mean(after);
        ep.audit();
        report.violations.append(&mut ep.violations);
        episodes += 1;
        raw_window += ep.window_s;
        window += during.time(ep.window_s);
        committed += ep.committed;
        report.attempted += ep.attempted;
        report.failed += ep.failed;
        setups.push(speed.time(ep.setup_s));
        lat.append(&mut ep.wall_lat.scaled(|ns| during.time(ns)));
        speed = after;
    }
    report.add("setup_s", median(&setups), "s");
    report.add("ops_per_s", committed as f64 / window, "1/s");
    add_latencies(&mut report, &mut lat);
    report.note(format!(
        "raw (unnormalised): ops_per_s = {} 1/s, reference unit = {} ms (nominal {} ms)",
        committed as f64 / raw_window,
        median(&references),
        calib::NOMINAL_MS
    ));
    report
}

/// Ops completed (window and drain) and writes among them, from outputs.
fn completions(outputs: &[(coterie_base::SimTime, NodeId, ProtocolEvent)]) -> (u64, u64) {
    outputs
        .iter()
        .fold((0, 0), |(ops, writes), (_, _, e)| match e {
            ProtocolEvent::WriteOk { .. } => (ops + 1, writes + 1),
            ProtocolEvent::ReadOk { .. } => (ops + 1, writes),
            _ => (ops, writes),
        })
}

/// The traced run: an untraced reference episode, the same episode driven
/// with every call timed and recorded, equivalence checks between them,
/// and replays of the recorded streams for engine and journal timings.
fn sim_traced(spec: &SimSpec, seed: u64, seconds: f64) -> Report {
    let started = Instant::now();
    // The first sub-seed of `sim_end_to_end`: the traced episode is its
    // first episode.
    let seed = ops::SplitMix::new(seed).next_u64();
    let config = spec.config();
    let mut report = Report::default();

    let mut reference = sim::run_episode(spec, seed, None);
    let check_s = reference.audit();
    let mut recorder = trace::Recorder::default();
    let mut traced = sim::run_episode(spec, seed, Some(&mut recorder));
    traced.audit();
    report.violations.append(&mut reference.violations);
    report.violations.append(&mut traced.violations);
    if traced.fingerprint() != reference.fingerprint() {
        report
            .violations
            .push("traced run: deterministic metrics differ from the untraced run".to_string());
    }
    if traced.driver.state_digest() != reference.driver.state_digest() {
        report
            .violations
            .push("traced run: state digest differs from the untraced run".to_string());
    }
    report.attempted = reference.attempted;
    report.failed = reference.failed;

    let (layers, mismatches) = recorder.replay(&config, &traced.driver, true);
    report.violations.extend(mismatches);
    let mut reps = vec![layers];
    while reps.len() < MIN_EPISODES
        || (started.elapsed().as_secs_f64() < seconds && started.elapsed() < RUN_LIMIT)
    {
        reps.push(recorder.replay(&config, &traced.driver, false).0);
    }
    let med = |f: &dyn Fn(&trace::Layers) -> f64| {
        let v: Vec<f64> = reps.iter().map(f).collect();
        median(&v)
    };
    let step_p50 = |k: trace::Kind| {
        let v: Vec<f64> = reps
            .iter()
            .map(|l| quantile(&mut l.step_ns[k as usize].clone(), 0.5))
            .collect();
        median(&v)
    };
    let deliver = step_p50(trace::Kind::Deliver);
    let timer = step_p50(trace::Kind::Timer);
    let external = step_p50(trace::Kind::External);
    let busy_ns = med(&|l| l.busy_ns as f64);
    let journal_ns = med(&|l| l.journal_ns() as f64);
    let encode_ns = med(&|l| l.encode_ns as f64);
    let append_us = med(&|l| quantile(&mut l.append_ns.clone(), 0.5) / 1e3);
    let first = &reps[0];

    let (ops, writes) = completions(traced.driver.outputs());
    let driver = &traced.driver;
    let nodes: Vec<NodeId> = (0..spec.nodes as u32).map(NodeId).collect();
    let journal_bytes: u64 = nodes
        .iter()
        .map(|n| driver.journal(*n).bytes().len() as u64)
        .sum();

    // Recovery cost: every recover() the schedule made, plus one
    // crash-and-recover of each live node on a copy of the final cluster.
    let mut recover_ns = recorder.recover_ns.clone();
    let mut probe = driver.clone();
    for n in nodes.iter().filter(|n| !driver.is_down(**n)) {
        probe.crash(*n);
        let t = Instant::now();
        probe.recover(*n);
        recover_ns.push(t.elapsed().as_nanos() as u64);
    }

    report.add("engine.step_ns_p50.deliver", deliver, "ns");
    report.add("engine.step_ns_p50.timer", timer, "ns");
    report.add("engine.step_ns_p50.external", external, "ns");
    report.add(
        "engine.steps_per_op",
        ratio(first.steps as f64, ops as f64),
        "count",
    );
    report.add("engine.busy_s", busy_ns / 1e9, "s");
    report.add(
        "driver.self_s",
        (recorder.call_ns as f64 - busy_ns - journal_ns) / 1e9,
        "s",
    );
    report.add(
        "driver.pending_msgs_mean",
        ratio(recorder.pending_msgs as f64, recorder.calls as f64),
        "count",
    );
    report.add(
        "driver.pending_timers_mean",
        ratio(recorder.pending_timers as f64, recorder.calls as f64),
        "count",
    );
    report.add(
        "driver.recover_ms_p50",
        quantile(&mut recover_ns, 0.5) / 1e6,
        "ms",
    );
    report.add(
        "codec.encode_ns_per_delta",
        ratio(encode_ns, first.deltas as f64),
        "ns",
    );
    report.add(
        "codec.bytes_per_delta",
        ratio(first.delta_bytes as f64, first.deltas as f64),
        "bytes",
    );
    report.add("journal.append_batch_us_p50", append_us, "us");
    report.add(
        "journal.records_per_flush",
        ratio(first.records as f64, first.append_ns.len() as f64),
        "count",
    );
    report.add(
        "journal.bytes_per_op",
        ratio(journal_bytes as f64, ops as f64),
        "bytes",
    );
    report.add(
        "quorum.eval_ns",
        layers::quorum_eval_ns(&config, &reference.views),
        "ns",
    );
    layers::proto_counts(&mut report, &driver.metrics(), ops, writes);
    report.add("host.flush_us_p50", 0.0, "us");
    report.add("host.flush_us_p99", 0.0, "us");
    add_hop_rtt(&mut report);
    add_outcome(
        &mut report,
        &mut reference.sim_lat_us,
        reference.committed as f64 / spec.window.as_secs_f64(),
        reference.write_gap_us,
        (reference.requests, reference.gave_up),
    );
    report.add(
        "bench.loop_self_s",
        traced.loop_s - recorder.call_ns as f64 / 1e9,
        "s",
    );
    report.add("checker.check_s", check_s, "s");
    report.add(
        "trace.overhead_ratio",
        traced.loop_s / reference.loop_s,
        "ratio",
    );
    report.add(
        "bench.reference_ms",
        calib::Speed::measure().reference_ms,
        "ms",
    );
    report
}

/// The latency metrics, exact over every committed op of the run. Only
/// the write median and p90 are gated: the read median follows the host's
/// thread scheduling on the threaded workload, and on the sim workload the
/// p99s are set by the few ops that back off, which the op stream decides
/// (README).
fn add_latencies(report: &mut Report, lat: &mut Latencies) {
    let s = lat.summary_ms();
    report.add("write_p50_ms", s.write_p50, "ms");
    report.add("write_p90_ms", s.write_p90, "ms");
    report.note(format!(
        "not gated: read_p50_ms = {} ms, write_p99_ms = {} ms, p99_ms = {} ms",
        s.read_p50, s.write_p99, s.p99
    ));
}

fn add_hop_rtt(report: &mut Report) {
    match threaded::hop_rtt_us(HOP_ROUNDS) {
        Some(us) => report.add("threaded.hop_rtt_us_p50", us, "us"),
        None => report
            .violations
            .push("hop probe: an echo round trip was lost".to_string()),
    }
}

/// The deterministic sim outcome (zero on the threaded workload, which
/// has no simulated clock), the write gap, and the protocol's failure
/// share: requests it gave up on per request issued, and the client
/// retries that hid them.
fn add_outcome(
    report: &mut Report,
    sim_lat_us: &mut [u64],
    sim_ops_per_s: f64,
    gap_us: u64,
    (requests, gave_up): (u64, u64),
) {
    report.add("sim_ops_per_s", sim_ops_per_s, "1/s");
    report.add("sim_p50_us", quantile(sim_lat_us, 0.5), "us");
    report.add("sim_p99_us", quantile(sim_lat_us, 0.99), "us");
    report.add(
        "failed_ratio",
        ratio(gave_up as f64, requests as f64),
        "ratio",
    );
    report.add(
        "client.retries_per_op",
        ratio(
            requests.saturating_sub(report.attempted) as f64,
            report.attempted as f64,
        ),
        "count",
    );
    report.add("write_gap_ms", gap_us as f64 / 1e3, "ms");
}

fn threaded_workload(args: &Args) -> Report {
    let mut report = Report::default();
    let root = Path::new(JOURNAL_ROOT);
    let dir = threaded::journal_dir(root);
    let run = threaded::run(args.seed, Duration::from_secs(args.seconds), &dir);
    // Only removes the root if no other run is using it.
    let _ = std::fs::remove_dir(root);
    let mut run = match run {
        Ok(run) => run,
        Err(e) => {
            report.violations.push(format!("journal files: {e}"));
            return report;
        }
    };
    report.violations.append(&mut run.violations);
    report.attempted = run.attempted;
    report.failed = run.failed;
    if !args.trace {
        report.add("setup_s", median(&run.setup_s), "s");
        let per_second: Vec<f64> = run.per_second.iter().map(|n| *n as f64).collect();
        report.add("ops_per_s", interquartile_mean(&per_second), "1/s");
        add_latencies(&mut report, &mut run.lat);
        return report;
    }

    let metrics = run.metrics();
    let records: u64 = run
        .nodes
        .iter()
        .map(|n| n.journal.committed_records())
        .sum();
    let flushes: u64 = run.nodes.iter().map(|n| n.flushes).sum();
    let journal_bytes: u64 = run
        .nodes
        .iter()
        .map(|n| n.journal.bytes().len() as u64)
        .sum();
    let records_per_flush = ratio(records as f64, flushes as f64);
    let deltas: Vec<_> = run
        .nodes
        .iter()
        .flat_map(|n| layers::journal_records(&n.journal))
        .collect();
    let (encode_ns, bytes_per_delta, append_us) =
        layers::journal_path(&deltas, records_per_flush.round() as usize);
    let config = threaded::config();
    let mut views = vec![(0..threaded::NODES as u32).map(NodeId).collect::<Vec<_>>()];
    for n in &run.nodes {
        if !views.contains(&n.node.durable.elist) {
            views.push(n.node.durable.elist.clone());
        }
    }
    let quorum_ns = layers::quorum_eval_ns(&config, &views);
    let (ops, writes) = (run.committed, run.writes);
    layers::proto_counts(&mut report, &metrics, ops, writes);
    // The journaling host's crash path replays the journal and reinstalls
    // durable state: its recovery cost, timed per node after the audit.
    let mut recover_ns: Vec<u64> = run
        .nodes
        .iter_mut()
        .map(|n| {
            let t = Instant::now();
            n.on_crash();
            t.elapsed().as_nanos() as u64
        })
        .collect();

    // The threaded host bypasses StepDriver, and its engine steps run on
    // node threads the benchmark cannot time from outside: those layers
    // read 0 here.
    for name in [
        "engine.step_ns_p50.deliver",
        "engine.step_ns_p50.timer",
        "engine.step_ns_p50.external",
    ] {
        report.add(name, 0.0, "ns");
    }
    report.add("engine.steps_per_op", 0.0, "count");
    report.add("engine.busy_s", 0.0, "s");
    report.add("driver.self_s", 0.0, "s");
    report.add("driver.pending_msgs_mean", 0.0, "count");
    report.add("driver.pending_timers_mean", 0.0, "count");
    report.add(
        "driver.recover_ms_p50",
        quantile(&mut recover_ns, 0.5) / 1e6,
        "ms",
    );
    report.add("codec.encode_ns_per_delta", encode_ns, "ns");
    report.add("codec.bytes_per_delta", bytes_per_delta, "bytes");
    report.add("journal.append_batch_us_p50", append_us, "us");
    report.add("journal.records_per_flush", records_per_flush, "count");
    report.add(
        "journal.bytes_per_op",
        ratio(journal_bytes as f64, ops as f64),
        "bytes",
    );
    report.add("quorum.eval_ns", quorum_ns, "ns");
    report.add("host.flush_us_p50", threaded::flush_us(&metrics, 0.5), "us");
    report.add(
        "host.flush_us_p99",
        threaded::flush_us(&metrics, 0.99),
        "us",
    );
    add_hop_rtt(&mut report);
    add_outcome(
        &mut report,
        &mut [],
        0.0,
        run.write_gap_us,
        (run.requests, run.gave_up),
    );
    report.add("bench.loop_self_s", run.window_s - run.call_s, "s");
    report.add("checker.check_s", run.check_s, "s");
    report.add("trace.overhead_ratio", 1.0, "ratio");
    report.add(
        "bench.reference_ms",
        calib::Speed::measure().reference_ms,
        "ms",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short window of `spec`, so debug-build tests stay fast.
    fn short(spec: &SimSpec, ms: u64) -> SimSpec {
        SimSpec {
            window: SimDuration::from_millis(ms),
            ..spec.clone()
        }
    }

    #[test]
    fn same_seed_repeats_every_deterministic_value() {
        let spec = short(&MIXED, 100);
        let a = sim::run_episode(&spec, 42, None);
        let b = sim::run_episode(&spec, 42, None);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.driver.state_digest(), b.driver.state_digest());
    }

    #[test]
    fn other_seed_issues_another_op_stream() {
        let spec = short(&MIXED, 50);
        let a = sim::run_episode(&spec, 1, None);
        let b = sim::run_episode(&spec, 2, None);
        let writes = |ep: &sim::Episode| -> Vec<String> {
            ep.issued
                .iter()
                .map(|op| format!("{:?}", op.write))
                .collect()
        };
        assert_ne!(writes(&a), writes(&b));
    }

    #[test]
    fn mixed_beats_the_old_slice_cap_and_audits_clean() {
        // The old load driver refilled clients once per 5 ms slice:
        // 32 clients / 5 ms = 6,400 ops per simulated second at most.
        let spec = short(&MIXED, 300);
        let mut ep = sim::run_episode(&spec, 7, None);
        ep.audit();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        // Client retries settle every op; the give-ups stay counted.
        assert_eq!(ep.failed, 0);
        assert!(ep.requests >= ep.attempted + ep.gave_up);
        let sim_ops_per_s = ep.committed as f64 / spec.window.as_secs_f64();
        assert!(sim_ops_per_s > 6_400.0, "{sim_ops_per_s} ops/s");
    }

    #[test]
    fn traced_run_and_replay_match_the_untraced_run() {
        // Crash, then recover, inside the window: every recorded input kind.
        let spec = SimSpec {
            window: SimDuration::from_millis(700),
            crashes: Some(CrashPlan {
                every: SimDuration::from_millis(200),
                down_for: SimDuration::from_millis(250),
            }),
            ..CRASH.clone()
        };
        let mut reference = sim::run_episode(&spec, 3, None);
        let mut recorder = trace::Recorder::default();
        let mut traced = sim::run_episode(&spec, 3, Some(&mut recorder));
        assert!(traced.recoveries > 0, "schedule made no recovery");
        reference.audit();
        traced.audit();
        assert!(
            reference.violations.is_empty(),
            "{:?}",
            reference.violations
        );
        assert_eq!(reference.fingerprint(), traced.fingerprint());
        assert_eq!(
            reference.driver.state_digest(),
            traced.driver.state_digest()
        );
        let (layers, mismatches) = recorder.replay(&spec.config(), &traced.driver, true);
        assert!(mismatches.is_empty(), "{mismatches:?}");
        assert!(layers.steps > 0 && layers.deltas > 0 && !layers.append_ns.is_empty());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut report = Report::default();
        report.attempted = 3;
        report.add("setup_s", 0.5, "s");
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
