//! # coterie-bench
//!
//! Shared fixtures for the Criterion benchmarks. The benches are organized
//! one-per-artifact (see EXPERIMENTS.md):
//!
//! * `table1` — regenerates the paper's Table 1 end to end (closed forms +
//!   GTH solve) and reports the time to do so.
//! * `figures` — grid construction/rendering (Figures 1-2) and the
//!   Figure 3 chain build.
//! * `quorum_ops` — the protocol hot path: `coterie-rule(V, S)` checks and
//!   quorum selection per rule and size (backs E6).
//! * `markov_solve` — GTH steady-state solve scaling.
//! * `protocol_paths` — full simulated write/read operations per rule
//!   (backs E7) and under churn (E8).
//! * `site_model` — Monte-Carlo site-model throughput (backs E5/E9/E10).
//! * `ablations` — design choices DESIGN.md calls out: locking vs
//!   log-shipping propagation, no-wait vs waiting epoch prepares
//!   (via check-period extremes), write-log capacity.

pub mod load;

use coterie_core::{ClientRequest, JournaledNode, PartialWrite, ProtocolConfig};
use coterie_quorum::{CoterieRule, NodeId};
use coterie_simnet::{Sim, SimConfig, SimDuration, SimTime};
use std::sync::Arc;

/// Builds an N-node cluster with the given rule for protocol benches.
pub fn cluster(
    rule: Arc<dyn CoterieRule>,
    n: usize,
    seed: u64,
    configure: impl Fn(ProtocolConfig) -> ProtocolConfig,
) -> Sim<JournaledNode> {
    let config = configure(ProtocolConfig::new(rule, n));
    Sim::new(
        n,
        SimConfig {
            seed,
            ..Default::default()
        },
        |id| JournaledNode::new(id, config.clone()),
    )
}

/// Drives `ops` alternating writes and reads through the cluster and runs
/// to completion; returns committed-op count (for throughput assertions).
pub fn drive_ops(sim: &mut Sim<JournaledNode>, ops: u64, gap: SimDuration) -> u64 {
    let n = sim.len() as u32;
    for i in 0..ops {
        let at = SimTime(i * gap.micros());
        let node = NodeId((i % n as u64) as u32);
        let req = if i % 2 == 0 {
            ClientRequest::Write {
                id: i,
                write: PartialWrite::new([(
                    (i % 8) as u16,
                    bytes::Bytes::copy_from_slice(&i.to_le_bytes()),
                )]),
            }
        } else {
            ClientRequest::Read { id: i }
        };
        sim.schedule_external(at, node, req);
    }
    sim.run_for(SimDuration::from_micros(ops * gap.micros()) + SimDuration::from_secs(2));
    sim.take_outputs()
        .iter()
        .filter(|(_, _, e)| {
            matches!(
                e,
                coterie_core::ProtocolEvent::WriteOk { .. }
                    | coterie_core::ProtocolEvent::ReadOk { .. }
            )
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_quorum::GridCoterie;

    #[test]
    fn fixtures_work() {
        let mut sim = cluster(Arc::new(GridCoterie::new()), 9, 1, |c| c);
        let done = drive_ops(&mut sim, 20, SimDuration::from_millis(50));
        assert_eq!(done, 20);
    }
}
