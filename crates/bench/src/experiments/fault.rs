//! T5 — fault-tolerance sweep: how much tuning quality the resilient
//! server loses under injected client crashes and hangs.
//!
//! Each cell of the (crash, hang) grid runs independent resilient
//! sessions on GS2 (paper scale, PRO, heavy-tailed noise) with a seeded
//! [`FaultPlan`]: clients crash permanently with probability `crash`,
//! reports arrive late (past the deadline) with probability `hang` and
//! are dropped with the same probability, plus a fixed 5% duplicate
//! rate exercising the de-duplication path everywhere. Reported per
//! cell: the fraction of sessions that still terminate `Ok`, the mean
//! best true cost and NTT of those sessions, both as ratios against the
//! fault-free-crash/hang cell, and the mean fault-handling counters.

use crate::report::Table;
use harmony_cluster::pool::par_map_indexed;
use harmony_cluster::FaultPlan;
use harmony_core::server::{run_session, ServerConfig, SessionOptions};
use harmony_core::{Estimator, ProOptimizer, TuningOutcome};
use harmony_surface::{Gs2Model, Objective};
use harmony_variability::noise::Noise;
use harmony_variability::stream_seed;

/// Crash probabilities swept (per client, permanent).
pub const CRASH_RATES: [f64; 4] = [0.0, 0.1, 0.25, 0.5];
/// Hang (= drop) probabilities swept (per report).
pub const HANG_RATES: [f64; 3] = [0.0, 0.1, 0.2];
/// Fixed duplicate-report probability applied to every cell.
pub const DUPLICATE_RATE: f64 = 0.05;

/// Aggregates of one sweep cell.
struct Cell {
    ok_frac: f64,
    best_true: f64,
    ntt: f64,
    retries: f64,
    evicted: f64,
    partial: f64,
}

/// Session parameters shared by every sweep cell.
struct Sweep {
    procs: usize,
    steps: usize,
    reps: usize,
    rho: f64,
    seed: u64,
}

fn run_cell(gs2: &Gs2Model, noise: &Noise, crash: f64, hang: f64, sw: &Sweep) -> Cell {
    let cell_salt = (crash * 1000.0) as u64 * 7919 + (hang * 1000.0) as u64;
    let outcomes: Vec<Option<TuningOutcome>> = par_map_indexed(sw.reps, |i| {
        let s = stream_seed(stream_seed(sw.seed, cell_salt), i as u64);
        let cfg = ServerConfig::new(sw.procs, sw.steps, Estimator::Single, s)
            .expect("valid fault-sweep server config");
        let plan = FaultPlan::new(stream_seed(s, 0xFA17), crash, hang, hang, DUPLICATE_RATE);
        let mut opt = ProOptimizer::with_defaults(gs2.space().clone());
        run_session(
            gs2,
            noise,
            &mut opt,
            cfg,
            SessionOptions {
                plan,
                ..SessionOptions::default()
            },
        )
        .map(|s| s.outcome)
        .ok()
    });
    let ok: Vec<&TuningOutcome> = outcomes.iter().flatten().collect();
    let n = ok.len() as f64;
    let mean = |f: &dyn Fn(&TuningOutcome) -> f64| {
        if ok.is_empty() {
            f64::NAN
        } else {
            ok.iter().map(|o| f(o)).sum::<f64>() / n
        }
    };
    Cell {
        ok_frac: ok.len() as f64 / sw.reps as f64,
        best_true: mean(&|o| o.best_true_cost),
        ntt: mean(&|o| o.ntt(sw.rho)),
        retries: mean(&|o| o.faults.retries as f64),
        evicted: mean(&|o| o.faults.evicted_clients as f64),
        partial: mean(&|o| o.faults.partial_batches as f64),
    }
}

/// The full (crash × hang) sweep; `reps` resilient sessions per cell.
pub fn fault_tolerance(procs: usize, steps: usize, reps: usize, rho: f64, seed: u64) -> Table {
    let gs2 = Gs2Model::paper_scale();
    let noise = Noise::paper_default(rho);
    let mut table = Table::new(
        "table_fault_tolerance",
        &[
            "crash",
            "hang",
            "ok_frac",
            "best_true",
            "best_ratio",
            "ntt",
            "ntt_ratio",
            "retries",
            "evicted",
            "partial_batches",
        ],
    );
    let sw = Sweep {
        procs,
        steps,
        reps,
        rho,
        seed,
    };
    let mut clean: Option<(f64, f64)> = None;
    for crash in CRASH_RATES {
        for hang in HANG_RATES {
            let cell = run_cell(&gs2, &noise, crash, hang, &sw);
            let (base_true, base_ntt) = *clean.get_or_insert((cell.best_true, cell.ntt));
            table.push(vec![
                crash,
                hang,
                cell.ok_frac,
                cell.best_true,
                cell.best_true / base_true,
                cell.ntt,
                cell.ntt / base_ntt,
                cell.retries,
                cell.evicted,
                cell.partial,
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape_and_clean_row() {
        let t = fault_tolerance(8, 25, 2, 0.1, 7);
        assert_eq!(t.rows.len(), CRASH_RATES.len() * HANG_RATES.len());
        // the clean cell is its own baseline
        assert_eq!(t.rows[0][4], 1.0);
        assert_eq!(t.rows[0][6], 1.0);
        // crash/hang-free sessions all terminate
        assert_eq!(t.rows[0][2], 1.0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = fault_tolerance(8, 20, 2, 0.1, 11);
        let b = fault_tolerance(8, 20, 2, 0.1, 11);
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn faulty_cells_record_fault_activity() {
        let t = fault_tolerance(8, 25, 2, 0.1, 13);
        // the harshest cell must show retries or evictions
        let last = t.rows.last().unwrap();
        assert!(
            last[7] > 0.0 || last[8] > 0.0,
            "no fault activity: {last:?}"
        );
    }
}
