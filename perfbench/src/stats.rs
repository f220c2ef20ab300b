//! Exact order statistics over the benchmark's own samples.
//!
//! Latency percentiles are computed from every recorded sample (no
//! bucketing): the workspace `Histogram` rounds to ~6.25% buckets, which
//! is too coarse next to the benchmark's regression bounds.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks. Sorts in place; returns 0 for an empty slice.
pub fn quantile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    samples[lo] as f64 + (samples[hi] as f64 - samples[lo] as f64) * frac
}

/// The median of `values` (mean of the middle pair for even lengths);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The interquartile mean: the mean of the middle half of `values`
/// (all of them when there are fewer than four).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    ratio(mid.iter().sum(), mid.len() as f64)
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Wall latencies of committed ops (first request to reply), ns, kept by
/// op kind: with a 50/50 mix the all-op median falls between the read and
/// the write modes and jumps from run to run, so medians are per kind.
#[derive(Default)]
pub struct Latencies {
    /// Committed reads.
    pub reads: Vec<u64>,
    /// Committed writes.
    pub writes: Vec<u64>,
}

impl Latencies {
    /// Records one committed op.
    pub fn record(&mut self, is_write: bool, ns: u64) {
        if is_write {
            self.writes.push(ns);
        } else {
            self.reads.push(ns);
        }
    }

    /// Moves every sample of `other` into `self`.
    pub fn append(&mut self, other: &mut Latencies) {
        self.reads.append(&mut other.reads);
        self.writes.append(&mut other.writes);
    }

    /// Every sample mapped through `f` (e.g. to nominal machine speed).
    pub fn scaled(&self, f: impl Fn(f64) -> f64) -> Latencies {
        let map = |v: &Vec<u64>| v.iter().map(|ns| f(*ns as f64) as u64).collect();
        Latencies {
            reads: map(&self.reads),
            writes: map(&self.writes),
        }
    }

    /// The latency percentiles the benchmark prints, in ms.
    pub fn summary_ms(&mut self) -> Summary {
        let mut all: Vec<u64> = self.reads.iter().chain(&self.writes).copied().collect();
        Summary {
            read_p50: quantile(&mut self.reads, 0.5) / 1e6,
            write_p50: quantile(&mut self.writes, 0.5) / 1e6,
            write_p90: quantile(&mut self.writes, 0.9) / 1e6,
            write_p99: quantile(&mut self.writes, 0.99) / 1e6,
            p99: quantile(&mut all, 0.99) / 1e6,
        }
    }
}

/// Latency percentiles over a run, ms.
pub struct Summary {
    /// Read median.
    pub read_p50: f64,
    /// Write median.
    pub write_p50: f64,
    /// Write 90th percentile.
    pub write_p90: f64,
    /// Write 99th percentile.
    pub write_p99: f64,
    /// All-op 99th percentile.
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut s = vec![40, 10, 30, 20];
        assert_eq!(quantile(&mut s, 0.0), 10.0);
        assert_eq!(quantile(&mut s, 0.5), 25.0);
        assert_eq!(quantile(&mut s, 1.0), 40.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 5.0, 6.0, 7.0, 8.0, 0.0, 9.0]),
            6.5
        );
        assert_eq!(interquartile_mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
