//! Machine-speed calibration.
//!
//! The hosts this benchmark runs on are shared: over minutes the same
//! episode's wall time drifts by a quarter or more, and CPU time drifts with
//! it. A fixed reference workload that shares no code with the program
//! drifts the same way, so the benchmark times it next to every
//! measurement and reports times at a nominal machine speed:
//! `normalised = raw × NOMINAL_MS / reference`. A change that speeds up
//! the program leaves the reference alone and shows in full.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::ops::SplitMix;
use crate::stats::median;

/// The reference unit's median wall time at nominal speed, ms: roughly
/// its time on the 2-vCPU container the bounds were tuned on.
pub const NOMINAL_MS: f64 = 3.0;

/// Reference units timed per calibration.
const UNITS: usize = 9;

/// One unit of reference work: keyed inserts and removals with small heap
/// payloads, then a sort — the kinds of work the protocol stack does.
fn unit() {
    let mut rng = SplitMix::new(0x5EED);
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for i in 0..20_000u64 {
        let k = rng.below(4_096);
        if i % 3 == 2 {
            map.remove(&k);
        } else {
            map.insert(k, vec![(k & 0xFF) as u8; 24 + (k % 64) as usize]);
        }
    }
    let mut v: Vec<u64> = (0..8_192).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    black_box((map, v));
}

/// The machine's current speed relative to nominal.
#[derive(Clone, Copy, Debug)]
pub struct Speed {
    /// Median reference unit time, ms.
    pub reference_ms: f64,
}

impl Speed {
    /// Times the reference unit now.
    pub fn measure() -> Speed {
        let samples: Vec<f64> = (0..UNITS)
            .map(|_| {
                let t = Instant::now();
                unit();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        Speed {
            reference_ms: median(&samples),
        }
    }

    /// The speed between two calibrations.
    pub fn mean(self, other: Speed) -> Speed {
        Speed {
            reference_ms: (self.reference_ms + other.reference_ms) / 2.0,
        }
    }

    /// Scales a measured time to nominal machine speed.
    pub fn time(self, raw: f64) -> f64 {
        raw * NOMINAL_MS / self.reference_ms
    }
}
