//! Experiment harness regenerating every figure and table of the paper.
//!
//! Each module under [`experiments`] exposes pure functions that
//! compute one artifact's table: a whole `run(cfg)` for the cheap
//! experiments, and per-cell functions plus an `assemble_*` fan-in for
//! the sweeps the harness splits into subtasks. [`harness`] is the one
//! driver: its task graph, run by the `run_all` binary, regenerates
//! every artifact (`run_all --only NAME` for one); the Criterion
//! benchmarks call the same functions at reduced sizes. See `DESIGN.md`
//! §3 for the experiment ↔ paper-artifact index and `EXPERIMENTS.md`
//! for the recorded paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod plot;
pub mod report;

use harmony_cluster::pool::par_map_indexed_in;
use harmony_core::tuner::TuningOutcome;
use harmony_variability::stream_seed;

/// Aggregates of many independent tuning replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvgResult {
    /// Mean `Total_Time(K)` across replications.
    pub mean_total: f64,
    /// Mean normalised total time `(1−ρ)·Total_Time`.
    pub mean_ntt: f64,
    /// Standard error of the NTT mean.
    pub sem_ntt: f64,
    /// Mean *true* cost of the returned best point.
    pub mean_best_true: f64,
    /// Fraction of replications whose optimizer converged in budget.
    pub converged_frac: f64,
    /// Mean objective evaluations consumed.
    pub mean_evals: f64,
    /// Number of replications.
    pub reps: usize,
}

/// Runs `reps` independent replications of a tuning session in parallel
/// (each derives its seed from `base_seed` and its index) and averages.
pub fn average_sessions<F>(reps: usize, base_seed: u64, rho: f64, session: F) -> AvgResult
where
    F: Fn(u64) -> TuningOutcome + Sync,
{
    average_sessions_in(
        harmony_cluster::pool::worker_count(reps),
        reps,
        base_seed,
        rho,
        session,
    )
}

/// [`average_sessions`] with an explicit inner worker count.
///
/// Harness subtasks run their replication loops with `workers == 1` so
/// that the graph pool owns all parallelism (no oversubscription) — the
/// aggregate is bit-identical either way because [`par_map_indexed_in`]
/// returns results in index order and the sums below are left-to-right.
pub fn average_sessions_in<F>(
    workers: usize,
    reps: usize,
    base_seed: u64,
    rho: f64,
    session: F,
) -> AvgResult
where
    F: Fn(u64) -> TuningOutcome + Sync,
{
    assert!(reps > 0, "need at least one replication");
    let rows = par_map_indexed_in(workers, reps, |i| {
        let out = session(stream_seed(base_seed, i as u64));
        (
            out.total_time(),
            out.ntt(rho),
            out.best_true_cost,
            out.converged as u8,
            out.evaluations,
        )
    });
    let n = reps as f64;
    let mean_ntt = rows.iter().map(|r| r.1).sum::<f64>() / n;
    let var_ntt = if reps > 1 {
        rows.iter().map(|r| (r.1 - mean_ntt).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    AvgResult {
        mean_total: rows.iter().map(|r| r.0).sum::<f64>() / n,
        mean_ntt,
        sem_ntt: (var_ntt / n).sqrt(),
        mean_best_true: rows.iter().map(|r| r.2).sum::<f64>() / n,
        converged_frac: rows.iter().map(|r| f64::from(r.3)).sum::<f64>() / n,
        mean_evals: rows.iter().map(|r| r.4 as f64).sum::<f64>() / n,
        reps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_core::{Estimator, OnlineTuner, ProOptimizer, TunerConfig};
    use harmony_params::{ParamDef, ParamSpace};
    use harmony_surface::objective::FnObjective;
    use harmony_variability::noise::Noise;

    #[test]
    fn average_sessions_aggregates() {
        let space = ParamSpace::new(vec![ParamDef::integer("x", -10, 10, 1).unwrap()]).unwrap();
        let obj = FnObjective::new("sq", space.clone(), |p| 1.0 + p[0] * p[0]);
        let rho = 0.2;
        let avg = average_sessions(8, 1, rho, |seed| {
            let tuner = OnlineTuner::new(TunerConfig::paper_default(40, Estimator::Single, seed));
            let mut opt = ProOptimizer::with_defaults(space.clone());
            tuner
                .run(&obj, &Noise::paper_default(rho), &mut opt)
                .unwrap()
        });
        assert_eq!(avg.reps, 8);
        assert!(avg.mean_total > 0.0);
        assert!((avg.mean_ntt - 0.8 * avg.mean_total).abs() < 1e-9);
        assert!(avg.converged_frac > 0.0);
        assert!(avg.mean_best_true >= 1.0);
    }

    #[test]
    fn average_is_deterministic() {
        let space = ParamSpace::new(vec![ParamDef::integer("x", -10, 10, 1).unwrap()]).unwrap();
        let obj = FnObjective::new("sq", space.clone(), |p| 1.0 + p[0] * p[0]);
        let run = || {
            average_sessions(4, 9, 0.1, |seed| {
                let tuner =
                    OnlineTuner::new(TunerConfig::paper_default(30, Estimator::MinOfK(2), seed));
                let mut opt = ProOptimizer::with_defaults(space.clone());
                tuner
                    .run(&obj, &Noise::paper_default(0.1), &mut opt)
                    .unwrap()
            })
        };
        assert_eq!(run(), run());
    }
}
