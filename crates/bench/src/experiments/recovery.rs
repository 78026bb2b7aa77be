//! T6 — recovery sweep: what checkpointed sessions cost and whether
//! mid-run kills actually resume, over a crash-rate × snapshot-interval
//! grid.
//!
//! Each cell runs paired GS2 sessions per replication: a plain
//! resilient session and a journaled one under the same seed and
//! [`FaultPlan`] (plus a fixed hang/drop/duplicate background exercising
//! every fault path). The journaled outcome must equal the plain one —
//! persistence is observationally free — and a kill at the WAL midpoint
//! followed by a resume must reproduce the outcome byte for byte.
//! Reported per cell: the fraction of sessions terminating `Ok`, the
//! mean NTT with its ratio against the plain runs (1.0 when journalling
//! is exact), the fraction of kill/resume checks that reproduced the
//! outcome bit for bit, and the mean WAL/snapshot footprint.

use crate::report::Table;
use harmony_cluster::FaultPlan;
use harmony_core::server::{run_session, RecoveryConfig, ServerConfig, SessionOptions};
use harmony_core::{Estimator, ProOptimizer, TuningOutcome};
use harmony_recovery::SessionJournal;
use harmony_surface::{Gs2Model, Objective};
use harmony_variability::noise::Noise;
use harmony_variability::stream_seed;

/// Crash probabilities swept (per client, permanent).
pub const CRASH_RATES: [f64; 3] = [0.0, 0.1, 0.25];
/// Snapshot cadences swept (batches between snapshots; 0 = WAL-only).
pub const SNAPSHOT_EVERY: [u64; 3] = [0, 2, 5];
/// Fixed hang (= drop) probability applied to every cell.
pub const HANG_RATE: f64 = 0.05;
/// Fixed duplicate-report probability applied to every cell.
pub const DUPLICATE_RATE: f64 = 0.05;

/// One replication's observations.
struct Rep {
    outcome: Option<TuningOutcome>,
    journal_exact: bool,
    resume_exact: bool,
    wal_bytes: usize,
    snap_bytes: usize,
}

fn run_rep(gs2: &Gs2Model, noise: &Noise, crash: f64, snap: u64, s: u64, sw: &Sweep) -> Rep {
    let cfg = ServerConfig::new(sw.procs, sw.steps, Estimator::Single, s)
        .expect("valid recovery-sweep server config");
    let plan = FaultPlan::new(
        stream_seed(s, 0xFA17),
        crash,
        HANG_RATE,
        HANG_RATE,
        DUPLICATE_RATE,
    );
    let recovery = RecoveryConfig {
        snapshot_every: snap,
    };

    let session = |journal: Option<&mut SessionJournal>| {
        let mut opt = ProOptimizer::with_defaults(gs2.space().clone());
        let opts = SessionOptions {
            plan,
            journal,
            recovery,
            ..SessionOptions::default()
        };
        run_session(gs2, noise, &mut opt, cfg, opts).map(|s| s.outcome)
    };
    let plain = session(None);
    let mut journal = SessionJournal::in_memory();
    let journaled = session(Some(&mut journal));
    let journal_exact = plain == journaled;
    let (wal_bytes, snap_bytes) = journal.size_bytes().unwrap_or((0, 0));

    // kill the session at the WAL midpoint and resume it
    let resume_exact = {
        let records = journal
            .wal_lines()
            .map(|l| l.len().saturating_sub(1))
            .unwrap_or(0);
        let mut part = journal.clone();
        part.truncate_records(records / 2).is_ok() && session(Some(&mut part)) == journaled
    };

    Rep {
        outcome: journaled.ok(),
        journal_exact,
        resume_exact,
        wal_bytes,
        snap_bytes,
    }
}

/// Session parameters shared by every sweep cell.
struct Sweep {
    procs: usize,
    steps: usize,
    reps: usize,
    rho: f64,
    seed: u64,
}

/// Computes one (crash × snapshot) cell — the harness fan-out unit.
/// `ci`/`si` index [`CRASH_RATES`] and [`SNAPSHOT_EVERY`]; returns the
/// raw values in [`assemble_recovery`] column order (without the
/// leading crash/snapshot coordinates). The replications run serially:
/// the task-graph pool owns all parallelism.
pub fn recovery_cell(
    ci: usize,
    si: usize,
    procs: usize,
    steps: usize,
    reps: usize,
    rho: f64,
    seed: u64,
) -> Vec<f64> {
    let gs2 = Gs2Model::paper_scale();
    let noise = Noise::paper_default(rho);
    let sw = Sweep {
        procs,
        steps,
        reps,
        rho,
        seed,
    };
    let crash = CRASH_RATES[ci];
    let snap = SNAPSHOT_EVERY[si];
    let cell_salt = (crash * 1000.0) as u64 * 7919 + snap;
    let reps: Vec<Rep> = (0..sw.reps)
        .map(|i| {
            let s = stream_seed(stream_seed(sw.seed, cell_salt), i as u64);
            run_rep(&gs2, &noise, crash, snap, s, &sw)
        })
        .collect();
    let ok: Vec<&TuningOutcome> = reps.iter().filter_map(|r| r.outcome.as_ref()).collect();
    let ntt = if ok.is_empty() {
        f64::NAN
    } else {
        ok.iter().map(|o| o.ntt(sw.rho)).sum::<f64>() / ok.len() as f64
    };
    let frac =
        |f: &dyn Fn(&Rep) -> bool| reps.iter().filter(|r| f(r)).count() as f64 / sw.reps as f64;
    let mean_kb = |f: &dyn Fn(&Rep) -> usize| {
        reps.iter().map(|r| f(r) as f64).sum::<f64>() / sw.reps as f64 / 1024.0
    };
    vec![
        ok.len() as f64 / sw.reps as f64,
        ntt,
        frac(&|r| r.journal_exact),
        frac(&|r| r.resume_exact),
        mean_kb(&|r| r.wal_bytes),
        mean_kb(&|r| r.snap_bytes),
    ]
}

/// Reassembles the T6 table from per-cell values in canonical (crash
/// outer, snapshot inner) order.
pub fn assemble_recovery(cells: &[Vec<f64>]) -> Table {
    assert_eq!(cells.len(), CRASH_RATES.len() * SNAPSHOT_EVERY.len());
    let mut table = Table::new(
        "table_recovery",
        &[
            "crash",
            "snap_every",
            "ok_frac",
            "ntt",
            "journal_exact",
            "resume_exact",
            "wal_kb",
            "snap_kb",
        ],
    );
    for (ci, &crash) in CRASH_RATES.iter().enumerate() {
        for (si, &snap) in SNAPSHOT_EVERY.iter().enumerate() {
            let mut row = vec![crash, snap as f64];
            row.extend(&cells[ci * SNAPSHOT_EVERY.len() + si]);
            table.push(row);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole sweep computed cell by cell, as the harness does.
    fn sweep(procs: usize, steps: usize, reps: usize, rho: f64, seed: u64) -> Table {
        let n = SNAPSHOT_EVERY.len();
        let cells: Vec<Vec<f64>> = (0..CRASH_RATES.len() * n)
            .map(|p| recovery_cell(p / n, p % n, procs, steps, reps, rho, seed))
            .collect();
        assemble_recovery(&cells)
    }

    #[test]
    fn sweep_shape_and_exactness() {
        let t = sweep(6, 20, 2, 0.1, 7);
        assert_eq!(t.rows.len(), CRASH_RATES.len() * SNAPSHOT_EVERY.len());
        for row in &t.rows {
            // journalling and mid-run resume are observationally exact
            assert_eq!(row[4], 1.0, "journal_exact in {row:?}");
            assert_eq!(row[5], 1.0, "resume_exact in {row:?}");
            // a WAL always accrues
            assert!(row[6] > 0.0);
        }
        // WAL-only cells take no snapshots; snapshotting cells do
        assert_eq!(t.rows[0][7], 0.0);
        assert!(t.rows[1][7] > 0.0);
    }

    #[test]
    fn sweep_is_deterministic_and_merge_exact() {
        let a = sweep(6, 15, 2, 0.1, 11);
        let b = sweep(6, 15, 2, 0.1, 11);
        assert_eq!(a.rows, b.rows);
        // the merge places each cell at its canonical row
        let row = &a.rows[SNAPSHOT_EVERY.len() + 1];
        assert_eq!(row[..2], [CRASH_RATES[1], SNAPSHOT_EVERY[1] as f64]);
        assert_eq!(row[2..], recovery_cell(1, 1, 6, 15, 2, 0.1, 11)[..]);
    }
}
