//! Per-layer probes shared by the workloads: quorum-plan evaluation,
//! protocol-efficiency counts, and the journal record path.

use std::hint::black_box;
use std::time::Instant;

use coterie_core::engine::{decode_delta, encode_delta};
use coterie_core::{keys, DurableDelta, FramedJournal, MetricsRegistry, MsgClass, ProtocolConfig};
use coterie_quorum::{NodeId, NodeSet, View};

use crate::report::Report;
use crate::stats::{quantile, ratio};

/// Evaluations per quorum probe (read and write checks together).
const QUORUM_EVALS: u64 = 2_000_000;

/// Mean wall time of one compiled `QuorumPlan` read or write check, ns,
/// over every subset of every view the run installed.
pub fn quorum_eval_ns(config: &ProtocolConfig, views: &[Vec<NodeId>]) -> f64 {
    let cases: Vec<_> = views
        .iter()
        .map(|members| {
            let plan = config.rule.compile(&View::new(members.iter().copied()));
            let subsets: Vec<NodeSet> = (0u64..1 << members.len())
                .map(|mask| {
                    NodeSet::from_iter(
                        members
                            .iter()
                            .enumerate()
                            .filter(|(bit, _)| mask >> bit & 1 == 1)
                            .map(|(_, n)| *n),
                    )
                })
                .collect();
            (plan, subsets)
        })
        .collect();
    let per_pass: u64 = cases.iter().map(|(_, s)| 2 * s.len() as u64).sum();
    let passes = QUORUM_EVALS.div_ceil(per_pass.max(1));
    let started = Instant::now();
    for _ in 0..passes {
        for (plan, subsets) in &cases {
            for s in subsets {
                black_box(plan.is_read_quorum(black_box(*s)));
                black_box(plan.is_write_quorum(black_box(*s)));
            }
        }
    }
    started.elapsed().as_nanos() as f64 / (passes * per_pass) as f64
}

/// The protocol-efficiency counts per committed op / write, from a
/// cluster-wide metrics snapshot.
pub fn proto_counts(report: &mut Report, m: &MetricsRegistry, committed: u64, writes: u64) {
    let per_op = |v: u64| ratio(v as f64, committed as f64);
    let per_write = |v: u64| ratio(v as f64, writes as f64);
    let class = |c: MsgClass| m.counter(keys::msgs_in(c));
    let all: u64 = MsgClass::ALL.iter().map(|c| class(*c)).sum();
    report.add("proto.msgs_per_op", per_op(all), "count");
    report.add(
        "proto.permission_msgs_per_op",
        per_op(class(MsgClass::Permission)),
        "count",
    );
    report.add(
        "proto.commit_msgs_per_op",
        per_op(class(MsgClass::Commit)),
        "count",
    );
    report.add(
        "proto.fetch_msgs_per_op",
        per_op(class(MsgClass::Fetch)),
        "count",
    );
    report.add(
        "proto.propagation_msgs_per_op",
        per_op(class(MsgClass::Propagation)),
        "count",
    );
    report.add(
        "proto.retries_per_op",
        per_op(m.counter(keys::RETRIES)),
        "count",
    );
    report.add(
        "proto.flushes_per_op",
        per_op(m.counter(keys::JOURNAL_FLUSHES)),
        "count",
    );
    report.add(
        "proto.batched_writes_per_write",
        per_write(m.counter(keys::BATCHED_WRITES)),
        "count",
    );
    report.add(
        "proto.epoch_changes",
        m.counter(keys::EPOCH_CHANGES) as f64,
        "count",
    );
    report.add(
        "proto.heavy_runs_per_write",
        per_write(m.counter(keys::HEAVY_RUNS)),
        "count",
    );
    report.add(
        "proto.marked_stale_per_write",
        per_write(m.counter(keys::MARKED_STALE_SUM)),
        "count",
    );
    report.add(
        "proto.propagations_done",
        m.counter(keys::PROPAGATIONS_DONE) as f64,
        "count",
    );
}

/// The committed records of a framed journal image, decoded. Layout:
/// a 16-byte header (`CTJ2`, committed count as u64 LE, its CRC32), then
/// `[len: u32 LE | crc32: u32 LE | payload]` per record.
pub fn journal_records(journal: &FramedJournal) -> Vec<DurableDelta> {
    let bytes = journal.bytes();
    let mut records = Vec::new();
    let mut pos = 16;
    for _ in 0..journal.committed_records() {
        let Some(head) = bytes.get(pos..pos + 8) else {
            break;
        };
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break;
        };
        match decode_delta(payload) {
            Ok(delta) => records.push(delta),
            Err(_) => break,
        }
        pos += 8 + len;
    }
    records
}

/// Journal-path timings over `deltas` re-encoded one by one and appended
/// in batches of `batch` records: (encode ns per delta, encoded bytes per
/// delta, median `append_batch` µs).
pub fn journal_path(deltas: &[DurableDelta], batch: usize) -> (f64, f64, f64) {
    let mut bytes = 0u64;
    let started = Instant::now();
    for d in deltas {
        bytes += black_box(encode_delta(d)).len() as u64;
    }
    let encode_ns = started.elapsed().as_nanos() as f64;
    let mut journal = FramedJournal::new();
    let mut append_ns: Vec<u64> = deltas
        .chunks(batch.max(1))
        .map(|chunk| {
            let started = Instant::now();
            journal.append_batch(chunk);
            started.elapsed().as_nanos() as u64
        })
        .collect();
    let n = deltas.len() as f64;
    (
        ratio(encode_ns, n),
        ratio(bytes as f64, n),
        quantile(&mut append_ns, 0.5) / 1e3,
    )
}
