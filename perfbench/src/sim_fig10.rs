//! `sim_fig10`: the paper's Fig. 10 experiment as a closed loop of
//! in-process `OnlineTuner` PRO sessions on the analytic GS2 model.
//!
//! The loop walks the K × ρ grid rep-major (every cell once per round),
//! so any prefix of whole rounds is a balanced mix of cells. The first
//! `Fig10Config::reps` rounds are the figure's own replications: at the
//! figure's seed their per-cell means must equal
//! `results/fig10_multisample.csv` bit for bit.
//!
//! The traced run also replays `OnlineTuner::run`'s loop through public
//! calls ([`replay`]), charging each call to its layer; every replayed
//! outcome must equal the untraced one.

use crate::report::{us_per, Blocks, EndToEnd, Lap, Report};
use harmony_bench::experiments::fig10::Fig10Config;
use harmony_cluster::{Cluster, SamplingMode, TuningTrace};
use harmony_core::server::ServerError;
use harmony_core::{
    CachedObjective, Estimator, OnlineTuner, Optimizer, ProOptimizer, TunerConfig, TuningOutcome,
};
use harmony_surface::{Gs2Model, Objective};
use harmony_variability::noise::{Noise, NoiseModel};
use harmony_variability::{seeded_rng, stream_seed};
use std::time::{Duration, Instant};

/// The figure's CSV, relative to the repository root.
pub const CSV_PATH: &str = "results/fig10_multisample.csv";

/// The figure's ρ columns this workload sweeps: every other one.
const RHO_COLUMNS: [usize; 5] = [0, 2, 4, 6, 8];

/// Rounds over the grid each set-up runs to warm caches and branch
/// predictors before timing.
const WARMUP_ROUNDS: u64 = 20;

/// One (K, ρ) cell of the grid.
pub struct Cell {
    pub k: usize,
    pub rho: f64,
    noise: Noise,
    seed_base: u64,
}

/// The grid in CSV order (K-major), seeded like the figure.
pub fn grid(cfg: &Fig10Config) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &k in &cfg.ks {
        for &ri in &RHO_COLUMNS {
            let rho = cfg.rhos[ri];
            let noise = if rho == 0.0 {
                Noise::None
            } else {
                Noise::Pareto {
                    alpha: cfg.alpha,
                    rho,
                }
            };
            cells.push(Cell {
                k,
                rho,
                noise,
                seed_base: cfg.seed ^ (k as u64) << 32,
            });
        }
    }
    cells
}

fn tuner(cfg: &Fig10Config, cell: &Cell, rep: u64) -> OnlineTuner {
    OnlineTuner::new(TunerConfig {
        procs: cfg.procs,
        max_steps: cfg.steps,
        estimator: Estimator::MinOfK(cell.k),
        mode: SamplingMode::SequentialSteps,
        seed: stream_seed(cell.seed_base, rep),
        full_occupancy: false,
        exploit_width: 6,
    })
}

/// The cell means the figure committed, in [`grid`] order, parsed from
/// the CSV text (`k` rows, `rho_*` columns).
pub fn expected_cells(csv: &str, cfg: &Fig10Config) -> Result<Vec<f64>, String> {
    let mut rows = csv.lines();
    let header: Vec<&str> = rows.next().ok_or("empty CSV")?.split(',').collect();
    let mut out = Vec::new();
    let body: Vec<Vec<&str>> = rows.map(|l| l.split(',').collect()).collect();
    for &k in &cfg.ks {
        let row = body
            .iter()
            .find(|r| r.first().and_then(|v| v.parse::<f64>().ok()) == Some(k as f64))
            .ok_or(format!("no row for K={k}"))?;
        for &ri in &RHO_COLUMNS {
            let name = format!("rho_{:.2}", cfg.rhos[ri]);
            let col = header
                .iter()
                .position(|h| *h == name)
                .ok_or(format!("no column {name}"))?;
            let v = row
                .get(col)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or(format!("bad value at K={k}, {name}"))?;
            out.push(v);
        }
    }
    Ok(out)
}

/// Cells whose measured mean differs from the committed one in any bit,
/// as `(index, expected, got)`.
pub fn mismatched_cells(expected: &[f64], got: &[f64]) -> Vec<(usize, f64, f64)> {
    assert_eq!(expected.len(), got.len(), "grid sizes differ");
    expected
        .iter()
        .zip(got)
        .enumerate()
        .filter(|(_, (e, g))| e.to_bits() != g.to_bits())
        .map(|(i, (e, g))| (i, *e, *g))
        .collect()
}

/// Per-layer time (ns) and work counts of replayed sessions.
#[derive(Debug, Default)]
pub struct Layers {
    pub sessions: usize,
    pub wall: u64,
    pub untraced_wall: u64,
    pub optimizer: u64,
    pub objective: u64,
    pub spmd: u64,
    pub reduce: u64,
    pub exploit: u64,
    pub tuner: u64,
    pub batches: u64,
    pub draws: u64,
    pub hits: u64,
    pub misses: u64,
}

/// `OnlineTuner::run` rebuilt from public calls, charging each call to
/// its layer on `lap`. Must return exactly what `OnlineTuner::run`
/// returns for the same configuration.
pub fn replay<O, M>(
    cfg: &TunerConfig,
    objective: &O,
    noise: &M,
    optimizer: &mut dyn Optimizer,
    lap: &mut Lap,
    l: &mut Layers,
) -> Result<TuningOutcome, ServerError>
where
    O: Objective + ?Sized,
    M: NoiseModel + ?Sized,
{
    let objective = CachedObjective::new(objective);
    let cluster = Cluster::new(cfg.procs);
    let mut rng = seeded_rng(cfg.seed);
    let mut trace = TuningTrace::new();
    let mut evaluations = 0usize;
    let mut quality_curve: Vec<(usize, f64)> = Vec::new();
    let k = cfg.estimator.samples();
    lap.lap(&mut l.tuner);

    while trace.len() < cfg.max_steps && !optimizer.converged() {
        let batch = optimizer.propose();
        lap.lap(&mut l.optimizer);
        if batch.is_empty() {
            break;
        }
        let costs: Vec<f64> = batch.iter().map(|p| objective.eval(p)).collect();
        lap.lap(&mut l.objective);
        let samples = cluster.run_batch_occupied(
            &costs,
            k,
            cfg.mode,
            noise,
            &mut rng,
            &mut trace,
            cfg.full_occupancy,
        );
        lap.lap(&mut l.spmd);
        evaluations += batch.len() * k;
        let estimates: Vec<f64> = samples.iter().map(|s| cfg.estimator.reduce(s)).collect();
        lap.lap(&mut l.reduce);
        optimizer.observe(&estimates);
        l.batches += 1;
        let rec = optimizer.recommendation();
        lap.lap(&mut l.optimizer);
        if let Some((rec, _)) = rec {
            quality_curve.push((trace.len(), objective.eval(&rec)));
            lap.lap(&mut l.objective);
        }
    }
    l.draws += evaluations as u64;

    let rec = optimizer.recommendation();
    lap.lap(&mut l.optimizer);
    let Some((best_point, best_estimate)) = rec else {
        return Err(ServerError::NoObservations);
    };
    let best_true_cost = objective.eval(&best_point);
    lap.lap(&mut l.objective);

    let width = if cfg.full_occupancy {
        cfg.procs
    } else {
        cfg.exploit_width.clamp(1, cfg.procs)
    };
    let mut exploit_obs = vec![0.0_f64; width];
    while trace.len() < cfg.max_steps {
        noise.observe_n(best_true_cost, &mut rng, &mut exploit_obs);
        let t_k = exploit_obs
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        trace.push(t_k);
        l.draws += width as u64;
    }
    lap.lap(&mut l.exploit);

    l.hits += objective.hits() as u64;
    l.misses += objective.misses() as u64;
    let outcome = TuningOutcome {
        trace,
        steps_budget: cfg.max_steps,
        best_point,
        best_estimate,
        best_true_cost,
        converged: optimizer.converged(),
        evaluations,
        quality_curve,
        faults: Default::default(),
    };
    lap.lap(&mut l.tuner);
    Ok(outcome)
}

/// Runs the workload for at least `seconds` and at least one full set of
/// the figure's replications.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let figure = Fig10Config::default();
    let cfg = Fig10Config {
        seed,
        ..figure.clone()
    };
    // set-up: the model, the grid, the committed figure, and warm-up
    // rounds of sessions off the measured seeds (repeated during the
    // untraced run; the median is reported)
    let setup = || {
        let gs2 = Gs2Model::paper_scale();
        let cells = grid(&cfg);
        let expected = (seed == figure.seed).then(|| {
            std::fs::read_to_string(CSV_PATH)
                .map_err(|e| format!("{CSV_PATH}: {e}"))
                .and_then(|csv| expected_cells(&csv, &figure))
        });
        for round in 0..WARMUP_ROUNDS {
            for cell in &cells {
                let mut opt = ProOptimizer::with_defaults(gs2.space().clone());
                let _ = tuner(&cfg, cell, u64::MAX - round).run(&gs2, &cell.noise, &mut opt);
            }
        }
        (gs2, cells, expected)
    };
    let ((gs2, cells, expected), setup_time) = crate::report::timed(setup);
    let expected = expected.transpose()?;

    let reps = cfg.reps as u64;
    let budget = Duration::from_secs_f64(seconds);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut sums = vec![0.0_f64; cells.len()];
    let mut best_sum = 0.0_f64;
    let mut layers = Layers::default();
    let mut mismatches = 0usize;
    let start = Instant::now();
    let mut blocks = Blocks::new(start, seconds, setup_time);
    let mut rep = 0u64;
    loop {
        for (c, cell) in cells.iter().enumerate() {
            let tuner = tuner(&cfg, cell, rep);
            report.attempted += 1;
            // the replay runs before the untraced session on every other
            // session, so cache warmth favours neither side
            let replay_first = traced && report.attempted.is_multiple_of(2);
            let mut replayed =
                replay_first.then(|| traced_session(&gs2, cell, tuner.config(), &mut layers));
            let t = Instant::now();
            let mut opt = ProOptimizer::with_defaults(gs2.space().clone());
            let result = tuner.run(&gs2, &cell.noise, &mut opt);
            let dt = t.elapsed();
            blocks.record(dt);
            if traced && !replay_first {
                replayed = Some(traced_session(&gs2, cell, tuner.config(), &mut layers));
            }
            if let Some(replayed) = replayed {
                layers.untraced_wall += dt.as_nanos() as u64;
                if replayed != result {
                    mismatches += 1;
                }
            }
            let Ok(out) = result else {
                report.failed += 1;
                continue;
            };
            if rep < reps {
                sums[c] += out.ntt(cell.rho);
                best_sum += out.best_true_cost;
            }
        }
        rep += 1;
        if !traced {
            blocks.setup_if_due(setup);
        }
        if rep >= reps && start.elapsed() >= budget {
            break;
        }
    }
    let means: Vec<f64> = sums.iter().map(|s| s / reps as f64).collect();
    if let Some(expected) = &expected {
        let bad = mismatched_cells(expected, &means);
        report.notes.push(format!(
            "{CSV_PATH}: {} of {} cells reproduced bit for bit",
            means.len() - bad.len(),
            means.len()
        ));
        for (i, e, g) in &bad {
            report.notes.push(format!(
                "  cell K={} rho={}: expected {e:?}, got {g:?}",
                cells[*i].k, cells[*i].rho
            ));
        }
        report.correct &= bad.is_empty();
    }
    if traced {
        report.notes.push(format!(
            "replay loop: {mismatches} of {} outcomes differ from OnlineTuner::run",
            report.attempted
        ));
        report.correct &= mismatches == 0;
        push_layers(&mut report, &layers, blocks.p99());
    } else {
        EndToEnd {
            blocks,
            mean_ntt: sums.iter().sum::<f64>() / (reps as f64 * cells.len() as f64),
            mean_best_cost: best_sum / (reps as f64 * cells.len() as f64),
        }
        .push_into(&mut report);
    }
    Ok(report)
}

/// Replays one session, charging its calls to their layers in `l`.
fn traced_session(
    gs2: &Gs2Model,
    cell: &Cell,
    cfg: &TunerConfig,
    l: &mut Layers,
) -> Result<TuningOutcome, ServerError> {
    let t = Instant::now();
    let mut lap = Lap::start();
    let mut opt = ProOptimizer::with_defaults(gs2.space().clone());
    lap.lap(&mut l.optimizer);
    let out = replay(cfg, gs2, &cell.noise, &mut opt, &mut lap, l);
    l.wall += t.elapsed().as_nanos() as u64;
    l.sessions += 1;
    out
}

fn push_layers(r: &mut Report, l: &Layers, session_ms_p99: f64) {
    let n = l.sessions;
    let named = l.optimizer + l.objective + l.spmd + l.reduce + l.exploit;
    let lookups = (l.hits + l.misses).max(1) as f64;
    r.push("core.optimizer.self_us", us_per(l.optimizer, n), "us");
    r.push(
        "core.optimizer.batches",
        l.batches as f64 / n as f64,
        "count",
    );
    r.push("surface.objective.self_us", us_per(l.objective, n), "us");
    r.push("core.cache.hit_ratio", l.hits as f64 / lookups, "ratio");
    r.push("cluster.spmd.self_us", us_per(l.spmd, n), "us");
    r.push(
        "variability.noise.draws",
        l.draws as f64 / n as f64,
        "count",
    );
    r.push("variability.noise.exploit_us", us_per(l.exploit, n), "us");
    r.push("core.sampling.reduce_us", us_per(l.reduce, n), "us");
    r.push(
        "core.tuner.residual_us",
        us_per(l.wall.saturating_sub(named), n),
        "us",
    );
    r.push("trace.sessions", n as f64, "count");
    r.push("trace.session_ms_p99", session_ms_p99, "ms");
    r.push("trace.session_us", us_per(l.wall, n), "us");
    r.push(
        "trace.coverage",
        named as f64 / l.wall.max(1) as f64,
        "ratio",
    );
    r.push(
        "trace.overhead_frac",
        l.wall as f64 / l.untraced_wall.max(1) as f64 - 1.0,
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_check_fails_on_a_perturbed_cell() {
        let cfg = Fig10Config::default();
        let csv = std::fs::read_to_string(format!("../{CSV_PATH}")).expect("committed CSV");
        let expected = expected_cells(&csv, &cfg).expect("parsable CSV");
        assert_eq!(expected.len(), 25);
        // the three cells named when the check was specified
        assert_eq!(expected[1], 377.93009713112366); // K=1, rho=0.1
        assert_eq!(expected[14], 549.8191202752276); // K=3, rho=0.4
        assert_eq!(expected[20], 328.98620196384434); // K=5, rho=0
        assert!(mismatched_cells(&expected, &expected).is_empty());
        let mut perturbed = expected.clone();
        perturbed[7] = f64::from_bits(perturbed[7].to_bits() + 1);
        assert_eq!(
            mismatched_cells(&expected, &perturbed),
            vec![(7, expected[7], perturbed[7])]
        );
    }

    #[test]
    fn replay_reproduces_online_tuner_outcomes() {
        let cfg = Fig10Config::default();
        let gs2 = Gs2Model::paper_scale();
        for cell in grid(&Fig10Config {
            seed: 11,
            ..cfg.clone()
        }) {
            let tuner = tuner(&cfg, &cell, 3);
            let mut opt = ProOptimizer::with_defaults(gs2.space().clone());
            let direct = tuner.run(&gs2, &cell.noise, &mut opt);
            let mut l = Layers::default();
            let replayed = traced_session(&gs2, &cell, tuner.config(), &mut l);
            assert_eq!(direct, replayed, "K={} rho={}", cell.k, cell.rho);
            let named = l.optimizer + l.objective + l.spmd + l.reduce + l.exploit + l.tuner;
            assert!(named <= l.wall, "laps tile the session");
        }
    }
}
