//! T7 — multi-session concurrency sweep: how much work a fleet of
//! concurrent tuning sessions saves by sharing one cross-session
//! [`SharedPerfDb`] pair (deterministic costs + min-of-K estimates).
//!
//! For each fleet size the cell creates fresh shared tiers and runs the
//! sessions in waves of [`WAVE`] through [`par_waves_in`], flushing both
//! tiers at every wave barrier. Sessions inside a wave therefore all
//! see the snapshot published at the last barrier — never each other's
//! in-flight pending records — so the hit/miss counts, entry counts,
//! and warm-start decisions are pure functions of the seed, independent
//! of worker count or scheduling. (The only timing-dependent counter —
//! flush contention — is reported as 0 by `SharedPerfDb::stats`; callers
//! that want it must opt in via `SharedPerfDb::stats_contended`, which
//! the server surfaces only on the wall-clock telemetry channel.)
//!
//! Each session after the first wave warm-starts: it recenters its PRO
//! simplex on [`warm_start_center`]'s neighbourhood-smoothed pick from
//! the published estimates. Reported per fleet size: the shared-tier
//! hit rate, lookups the shared tier could not serve, distinct
//! published configurations, mean delivered true cost, and the
//! warm-started fraction.

use crate::report::Table;
use harmony_cluster::pool::par_waves_in;
use harmony_cluster::FaultPlan;
use harmony_core::server::{run_resilient_shared, ServerConfig, SharedSession};
use harmony_core::{warm_start_center, Estimator, ProOptimizer};
use harmony_surface::{Gs2Model, Objective, SharedPerfDb};
use harmony_variability::noise::Noise;
use harmony_variability::stream_seed;

/// Fleet sizes swept (concurrent sessions sharing one tier pair).
pub const SESSION_COUNTS: [usize; 6] = [2, 4, 8, 16, 32, 64];
/// Sessions per wave; both tiers flush at every wave barrier.
pub const WAVE: usize = 8;
/// Simulated processors per session.
const PROCS: usize = 8;
/// Variability magnitude ρ for the paper-default noise mix.
const RHO: f64 = 0.1;
/// Neighbours consulted by shared-tier interpolation (matches
/// [`harmony_surface::PerfDatabase`]'s default usage in §6).
pub const K_NEIGHBORS: usize = 4;
/// Samples per estimate — min-of-K as in the paper's §5 policy.
const SAMPLES: usize = 3;

/// One fleet-size cell — the harness fan-out unit: a fleet of
/// `SESSION_COUNTS[ci]` concurrent sessions against fresh shared tiers,
/// on `workers` threads. Returns the row values after the leading
/// fleet-size coordinate, in [`assemble_multi_session`] column order.
///
/// Unlike the other replication cells this one keeps its worker count:
/// its worker-count-independence test is the crate's only run of
/// concurrent sessions on shared tiers under the wave-flush protocol.
pub fn multi_session_cell_in(workers: usize, ci: usize, steps: usize, seed: u64) -> Vec<f64> {
    let sessions = SESSION_COUNTS[ci];
    let gs2 = Gs2Model::paper_scale();
    let noise = Noise::paper_default(RHO);
    let costs = SharedPerfDb::new(gs2.space().clone(), K_NEIGHBORS);
    let estimates = SharedPerfDb::new(gs2.space().clone(), K_NEIGHBORS);
    let outcomes: Vec<(f64, bool)> = par_waves_in(
        workers,
        sessions,
        WAVE,
        |i| {
            let s = stream_seed(stream_seed(seed, 0x75E7), i as u64);
            let cfg = ServerConfig::new(PROCS, steps, Estimator::MinOfK(SAMPLES), s)
                .expect("valid multi-session server config");
            let mut opt = ProOptimizer::with_defaults(gs2.space().clone());
            let center = warm_start_center(&estimates);
            let warmed = center.is_some();
            if let Some(c) = &center {
                opt.recenter(c);
            }
            let out = run_resilient_shared(
                &gs2,
                &noise,
                &mut opt,
                cfg,
                &FaultPlan::none(),
                SharedSession::new(&costs, &estimates),
            )
            .expect("fault-free session terminates Ok");
            (out.best_true_cost, warmed)
        },
        |_| {
            costs.flush();
            estimates.flush();
        },
    );
    costs.flush();
    estimates.flush();
    let stats = costs.stats();
    let mean_cost = outcomes.iter().map(|(c, _)| c).sum::<f64>() / sessions as f64;
    let warm_frac = outcomes.iter().filter(|(_, w)| *w).count() as f64 / sessions as f64;
    vec![
        100.0 * stats.hit_rate(),
        stats.misses as f64,
        stats.entries as f64,
        mean_cost,
        warm_frac,
    ]
}

/// Reassembles the T7 table from per-cell values in [`SESSION_COUNTS`]
/// order.
pub fn assemble_multi_session(cells: &[Vec<f64>]) -> Table {
    assert_eq!(cells.len(), SESSION_COUNTS.len());
    let mut table = Table::new(
        "t7_multi_session",
        &[
            "sessions",
            "shared_hit_pct",
            "shared_misses",
            "shared_entries",
            "mean_best_true_cost",
            "warm_frac",
        ],
    );
    for (ci, vals) in cells.iter().enumerate() {
        let mut row = vec![SESSION_COUNTS[ci] as f64];
        row.extend_from_slice(vals);
        table.push(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_is_worker_count_independent() {
        let a = multi_session_cell_in(1, 0, 6, 77);
        let b = multi_session_cell_in(4, 0, 6, 77);
        let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(to_bits(&a), to_bits(&b));
    }

    #[test]
    fn first_wave_is_cold_later_fleets_warm_start() {
        // fleet of 2 fits in one wave: nothing published yet, no warm
        // starts, and every probe is fresh
        let two = multi_session_cell_in(2, 0, 6, 9);
        assert_eq!(two[4], 0.0, "single-wave fleet cannot warm-start");
        // a 16-session fleet spans 2 waves: the second wave warm-starts
        // and reuses published measurements
        let sixteen = multi_session_cell_in(4, 3, 6, 9);
        assert!(sixteen[4] > 0.0, "later waves should warm-start");
        assert!(sixteen[0] > 0.0, "later waves should hit the shared tier");
    }

    #[test]
    fn assemble_prefixes_fleet_sizes() {
        let cells: Vec<Vec<f64>> = (0..SESSION_COUNTS.len())
            .map(|i| vec![i as f64; 5])
            .collect();
        let t = assemble_multi_session(&cells);
        assert_eq!(t.rows.len(), SESSION_COUNTS.len());
        for (ci, row) in t.rows.iter().enumerate() {
            assert_eq!(row[0], SESSION_COUNTS[ci] as f64);
            assert_eq!(row.len(), 6);
        }
    }
}
