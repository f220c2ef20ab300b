//! The unified metrics registry: `BTreeMap`-keyed counters plus
//! fixed-bucket latency histograms, std-only and deterministic.
//!
//! Every counter the stack used to scatter across per-node stat fields and
//! harness-side accumulators lives here, keyed by the `&'static str`
//! constants in [`keys`]. Histograms use log-linear buckets (16 sub-buckets
//! per octave, values below 16 exact), so quantiles carry at most ~6%
//! relative error while the accumulator stays fixed-size — the same
//! HDR-style layout real metrics systems use. `min`, `max`, `sum`, and
//! `count` are exact.
//!
//! The registry is snapshot-serializable without serde: [`to_json`]
//! hand-rolls a deterministic JSON object (BTreeMap iteration is key
//! order), which serde-equipped crates re-parse for embedding in their own
//! artifacts. It is exposed uniformly: per engine as
//! [`ReplicaNode::stats`](crate::node::ReplicaNode::stats), per node with
//! the journal-flush counter via
//! [`NodeShell::metrics`](super::shell::NodeShell::metrics), per cluster
//! via [`StepDriver::metrics`](super::driver::StepDriver::metrics), and by
//! the simnet/threaded hosts via `JournaledNode::metrics`.
//!
//! [`to_json`]: MetricsRegistry::to_json

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counter and histogram key constants (plus per-class key functions), so
/// every increment site and every reader agree on spelling.
pub mod keys {
    use crate::msg::MsgClass;

    /// Committed writes coordinated by this node.
    pub const WRITES_OK: &str = "writes_ok";
    /// Failed writes coordinated by this node (after retries).
    pub const WRITES_FAILED: &str = "writes_failed";
    /// Completed reads coordinated by this node.
    pub const READS_OK: &str = "reads_ok";
    /// Failed reads coordinated by this node.
    pub const READS_FAILED: &str = "reads_failed";
    /// Client-level retries due to contention.
    pub const RETRIES: &str = "retries";
    /// Times the heavy procedure ran.
    pub const HEAVY_RUNS: &str = "heavy_runs";
    /// Write rounds opened directly in the voting phase by a pipelined
    /// lock handoff.
    pub const CHAINED_ROUNDS: &str = "chained_rounds";
    /// Client writes that committed sharing a round with another write.
    pub const BATCHED_WRITES: &str = "batched_writes";
    /// Replicas written or marked per committed write (sum).
    pub const REPLICAS_TOUCHED_SUM: &str = "replicas_touched_sum";
    /// Replicas marked stale (sum over committed writes).
    pub const MARKED_STALE_SUM: &str = "marked_stale_sum";
    /// Synchronous reconciliations (write-all-current baseline only).
    pub const SYNC_RECONCILIATIONS: &str = "sync_reconciliations";
    /// Propagations completed with this node as the source.
    pub const PROPAGATIONS_DONE: &str = "propagations_done";
    /// Epoch changes committed with this node as the coordinator.
    pub const EPOCH_CHANGES: &str = "epoch_changes";
    /// Journal flushes (header commits; on real storage, fsyncs).
    pub const JOURNAL_FLUSHES: &str = "journal_flushes";
    /// Histogram: wall-clock journal flush latency, microseconds
    /// (threaded hosts only — simulated hosts have no wall clock).
    pub const JOURNAL_FLUSH_US: &str = "journal_flush_us";
    /// Histogram: operation completion latency, microseconds.
    pub const OP_LATENCY_US: &str = "op_latency_us";
    /// Histogram: write completion latency, microseconds.
    pub const WRITE_LATENCY_US: &str = "write_latency_us";

    /// Per-class key for messages received.
    pub fn msgs_in(class: MsgClass) -> &'static str {
        match class {
            MsgClass::Permission => "msgs_in_permission",
            MsgClass::Commit => "msgs_in_commit",
            MsgClass::Fetch => "msgs_in_fetch",
            MsgClass::Propagation => "msgs_in_propagation",
            MsgClass::EpochCheck => "msgs_in_epoch_check",
        }
    }

    /// Per-class key for `CallFailed` bounces.
    pub fn msgs_bounced(class: MsgClass) -> &'static str {
        match class {
            MsgClass::Permission => "msgs_bounced_permission",
            MsgClass::Commit => "msgs_bounced_commit",
            MsgClass::Fetch => "msgs_bounced_fetch",
            MsgClass::Propagation => "msgs_bounced_propagation",
            MsgClass::EpochCheck => "msgs_bounced_epoch_check",
        }
    }
}

/// Values below this are their own (exact) bucket.
const LINEAR: u64 = 16;
/// Sub-buckets per octave above the linear range.
const SUBS: usize = 16;

/// A fixed-layout log-linear histogram (HDR-lite): exact below 16, then 16
/// sub-buckets per power of two, giving at most `1/16` relative error on
/// quantiles. `sum`/`count`/`min`/`max` are exact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket occupancy, lazily grown to the highest bucket seen.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        v as usize
    } else {
        // v >= 16, so the leading-one position is >= 4 and the shift below
        // never underflows.
        let octave = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (octave - 4)) & 0xF) as usize;
        LINEAR as usize + (octave - 4) * SUBS + sub
    }
}

/// Upper bound (inclusive) of bucket `idx` — the quantile representative.
fn bucket_upper(idx: usize) -> u64 {
    if idx < LINEAR as usize {
        idx as u64
    } else {
        let group = (idx - LINEAR as usize) / SUBS;
        let sub = ((idx - LINEAR as usize) % SUBS) as u64;
        let octave = group + 4;
        let width = 1u64 << (octave - 4);
        (LINEAR + sub) * width + width - 1
    }
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot = slot.saturating_add(1);
        }
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (0..=1). Exact at the ends (`min`/`max`); interior
    /// quantiles return the covering bucket's upper bound, clamped into
    /// `[min, max]` — at most ~6% high.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (slot, &c) in self.counts.iter_mut().zip(other.counts.iter()) {
            *slot = slot.saturating_add(c);
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// The unified registry: named counters and named histograms, both in
/// `BTreeMap`s so iteration (and therefore serialization) is canonical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counter `key` by 1.
    pub fn inc(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Adds `n` to counter `key`.
    pub fn add(&mut self, key: &'static str, n: u64) {
        let slot = self.counters.entry(key).or_insert(0);
        *slot = slot.saturating_add(n);
    }

    /// Reads counter `key` (0 if never written).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// All counters, in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Records `value` into histogram `key`.
    pub fn observe(&mut self, key: &'static str, value: u64) {
        self.hists.entry(key).or_default().record(value);
    }

    /// Reads histogram `key`, if any value was ever recorded.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.hists.get(key)
    }

    /// All histograms, in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(k, v)| (*k, v))
    }

    /// Folds `other` into `self`: counters add, histograms merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k).or_default().merge(h);
        }
    }

    /// Deterministic JSON snapshot:
    /// `{"counters":{...},"histograms":{"k":{"count":..,"sum":..,"min":..,
    /// "max":..,"mean":..,"p50":..,"p90":..,"p99":..}}}`.
    /// Keys appear in `BTreeMap` order, so equal registries render to equal
    /// bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{k}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                 \"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip_within_tolerance() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 65_535, 1 << 40] {
            let idx = bucket_index(v);
            let upper = bucket_upper(idx);
            assert!(upper >= v, "upper {upper} < value {v}");
            // Relative error of the representative is bounded by 1/16.
            assert!(
                (upper - v) as f64 <= (v as f64 / 16.0).max(1.0),
                "bucket too wide at {v}: upper {upper}"
            );
        }
    }

    #[test]
    fn quantiles_are_exact_at_ends_and_close_inside() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
        let p50 = h.quantile(0.5) as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.07, "p50 = {p50}");
        let p99 = h.quantile(0.99) as f64;
        assert!((p99 - 990.0).abs() / 990.0 < 0.07, "p99 = {p99}");
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for v in [3u64, 17, 170, 1_700] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 50, 500_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn registry_counters_and_json_are_deterministic() {
        let mut r = MetricsRegistry::new();
        r.inc(keys::WRITES_OK);
        r.add(keys::WRITES_OK, 2);
        r.inc(keys::RETRIES);
        r.observe(keys::OP_LATENCY_US, 100);
        r.observe(keys::OP_LATENCY_US, 200);
        assert_eq!(r.counter(keys::WRITES_OK), 3);
        assert_eq!(r.counter("missing"), 0);
        let mut other = MetricsRegistry::new();
        other.inc(keys::WRITES_OK);
        other.observe(keys::OP_LATENCY_US, 300);
        r.merge(&other);
        assert_eq!(r.counter(keys::WRITES_OK), 4);
        let h = r.histogram(keys::OP_LATENCY_US).expect("histogram exists");
        assert_eq!(h.count(), 3);
        let json = r.to_json();
        assert_eq!(json, r.clone().to_json());
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"writes_ok\":4"));
        assert!(json.contains("\"op_latency_us\":{\"count\":3"));
    }
}
