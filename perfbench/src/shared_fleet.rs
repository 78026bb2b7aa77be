//! `shared_fleet`: repeated fleets of tuning sessions sharing a fresh
//! pair of cross-session tiers (true costs and min-of-K estimates).
//!
//! Sessions run one at a time through `run_resilient_shared`; each
//! warm-starts from the published estimates, and both tiers flush at
//! every wave boundary as in the T7 experiment. Fresh tiers per fleet
//! keep the hit rate independent of run length. The run cycles through
//! [`DISTINCT_FLEETS`] fleet seeds, and every repeat of a fleet must
//! reproduce the first run's tier counters and mean delivered cost.

use crate::report::{us_per, Blocks, EndToEnd, Report, SetupTime};
use harmony_bench::experiments::multi_session::{K_NEIGHBORS, WAVE};
use harmony_cluster::FaultPlan;
use harmony_core::server::{run_resilient_shared, ServerConfig, SharedSession};
use harmony_core::{warm_start_center, Estimator, ProOptimizer};
use harmony_surface::{Gs2Model, Objective, SharedDbStats, SharedPerfDb};
use harmony_variability::noise::Noise;
use harmony_variability::stream_seed;
use std::time::{Duration, Instant};

/// Sessions per fleet.
pub const FLEET: usize = 64;
/// Distinct fleet seeds the run cycles through.
pub const DISTINCT_FLEETS: u64 = 16;
/// Seed of the set-up's warm-up fleet, whatever the run's seed.
const WARMUP_SEED: u64 = 2005;
/// Client threads per session.
const PROCS: usize = 2;
/// Time-step budget per session (T7 at full scale).
const STEPS: usize = 60;
/// Idle throughput of the paper-default noise.
pub const RHO: f64 = 0.1;
/// Min-of-K samples per estimate.
const K: usize = 3;

/// What one fleet produced; equal for every run of the same fleet seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    pub stats: SharedDbStats,
    pub mean_best_cost: f64,
    pub mean_ntt: f64,
    pub warm_frac: f64,
    pub rounds: u64,
}

/// Session latencies, and the time (ns) charged to the layers the
/// benchmark calls directly in traced fleets.
#[derive(Debug)]
pub struct FleetTimes {
    pub blocks: Blocks,
    pub traced_sessions: usize,
    pub warm_ns: u64,
    pub flush_ns: u64,
    pub serve_ns: u64,
    pub untraced_ns: u64,
}

impl FleetTimes {
    /// Empty times of a loop that started at `start` (see [`Blocks::new`]).
    pub fn new(start: Instant, seconds: f64, setup: SetupTime) -> Self {
        FleetTimes {
            blocks: Blocks::new(start, seconds, setup),
            traced_sessions: 0,
            warm_ns: 0,
            flush_ns: 0,
            serve_ns: 0,
            untraced_ns: 0,
        }
    }
}

/// Runs one fleet against fresh tiers, recording its sessions in
/// `times` if given. A traced fleet also splits each session's wall time
/// into warm start, serving and flush.
pub fn fleet(
    gs2: &Gs2Model,
    noise: &Noise,
    fleet_seed: u64,
    traced: bool,
    mut times: Option<&mut FleetTimes>,
) -> FleetResult {
    let costs = SharedPerfDb::new(gs2.space().clone(), K_NEIGHBORS);
    let estimates = SharedPerfDb::new(gs2.space().clone(), K_NEIGHBORS);
    let (mut cost_sum, mut ntt_sum, mut warmed, mut rounds) = (0.0, 0.0, 0usize, 0u64);
    for i in 0..FLEET {
        let s = stream_seed(stream_seed(fleet_seed, 0x75E7), i as u64);
        let cfg = ServerConfig::new(PROCS, STEPS, Estimator::MinOfK(K), s)
            .expect("valid shared_fleet config");
        let t = Instant::now();
        let mut opt = ProOptimizer::with_defaults(gs2.space().clone());
        let center = warm_start_center(&estimates);
        if let Some(c) = &center {
            opt.recenter(c);
        }
        let warm = traced.then(|| t.elapsed());
        let out = run_resilient_shared(
            gs2,
            noise,
            &mut opt,
            cfg,
            &FaultPlan::none(),
            SharedSession::new(&costs, &estimates),
        )
        .expect("fault-free shared session terminates Ok");
        let served = traced.then(|| t.elapsed());
        if (i + 1) % WAVE == 0 {
            costs.flush();
            estimates.flush();
        }
        let total = t.elapsed();
        if let Some(times) = times.as_deref_mut() {
            times.blocks.record(total);
            if let (Some(warm), Some(served)) = (warm, served) {
                times.traced_sessions += 1;
                times.warm_ns += warm.as_nanos() as u64;
                times.serve_ns += (served - warm).as_nanos() as u64;
                times.flush_ns += (total - served).as_nanos() as u64;
            } else {
                times.untraced_ns += total.as_nanos() as u64;
            }
        }
        warmed += usize::from(center.is_some());
        cost_sum += out.best_true_cost;
        ntt_sum += out.ntt(RHO);
        rounds += out.trace.len() as u64;
    }
    // the fleet's closing flush is charged to no session
    costs.flush();
    estimates.flush();
    FleetResult {
        stats: costs.stats(),
        mean_best_cost: cost_sum / FLEET as f64,
        mean_ntt: ntt_sum / FLEET as f64,
        warm_frac: warmed as f64 / FLEET as f64,
        rounds,
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let noise = Noise::paper_default(RHO);
    // set-up: the model and one warm-up fleet against fresh tiers
    // (repeated during the untraced run; the median is reported). The
    // warm-up fleet is the same at every seed, so the set-up does the
    // same work in every run, and its stream is one the measured fleets
    // (streams 0..DISTINCT_FLEETS of the seed) never use
    let setup = || {
        let gs2 = Gs2Model::paper_scale();
        fleet(
            &gs2,
            &noise,
            stream_seed(WARMUP_SEED, u64::MAX),
            false,
            None,
        );
        gs2
    };
    let (gs2, setup_time) = crate::report::timed(setup);

    let budget = Duration::from_secs_f64(seconds);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let start = Instant::now();
    let mut times = FleetTimes::new(start, seconds, setup_time);
    let mut first: Vec<FleetResult> = Vec::new();
    let mut repeats_differ = 0usize;
    let mut fleets = 0u64;
    let mut traced_fleets: Vec<FleetResult> = Vec::new();
    // at least two passes over the fleet seeds, so every fleet is
    // checked against a repeat, and a whole block of sessions
    while fleets < 2 * DISTINCT_FLEETS || times.blocks.whole() == 0 || start.elapsed() < budget {
        let j = fleets % DISTINCT_FLEETS;
        // a traced run pairs each traced fleet with an untraced twin,
        // alternating which runs first
        let modes: &[bool] = match (traced, fleets.is_multiple_of(2)) {
            (false, _) => &[false],
            (true, true) => &[false, true],
            (true, false) => &[true, false],
        };
        for &layered in modes {
            let r = fleet(
                &gs2,
                &noise,
                stream_seed(seed, j),
                layered,
                Some(&mut times),
            );
            report.attempted += FLEET as u64;
            match first.get(j as usize) {
                Some(f) if *f != r => {
                    repeats_differ += 1;
                    report.failed += FLEET as u64;
                }
                Some(_) => {}
                None => first.push(r.clone()),
            }
            if layered {
                traced_fleets.push(r);
            }
        }
        fleets += 1;
        if !traced {
            times.blocks.setup_if_due(setup);
        }
    }

    report.notes.push(format!(
        "{} fleets of {FLEET}: {repeats_differ} repeats differ from the fleet's first run",
        report.attempted / FLEET as u64
    ));
    report.correct &= repeats_differ == 0;
    if traced {
        push_layers(&mut report, &times, &traced_fleets);
    } else {
        let nf = first.len() as f64;
        EndToEnd {
            blocks: times.blocks,
            mean_ntt: first.iter().map(|f| f.mean_ntt).sum::<f64>() / nf,
            mean_best_cost: first.iter().map(|f| f.mean_best_cost).sum::<f64>() / nf,
        }
        .push_into(&mut report);
    }
    Ok(report)
}

fn push_layers(r: &mut Report, t: &FleetTimes, fleets: &[FleetResult]) {
    let n = t.traced_sessions;
    let nf = fleets.len().max(1) as f64;
    let sum = |f: &dyn Fn(&FleetResult) -> u64| fleets.iter().map(f).sum::<u64>();
    let (hits, misses) = (sum(&|f| f.stats.hits), sum(&|f| f.stats.misses));
    let rounds = sum(&|f| f.rounds);
    let wall_ns = t.warm_ns + t.serve_ns + t.flush_ns;
    let untraced_sessions = t.blocks.sessions() - n;
    r.push(
        "surface.sharded.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    r.push("surface.sharded.misses", misses as f64 / nf, "count");
    r.push(
        "surface.sharded.entries",
        sum(&|f| f.stats.entries) as f64 / nf,
        "count",
    );
    r.push("surface.sharded.flush_us", us_per(t.flush_ns, n), "us");
    r.push("core.warm.warm_start_us", us_per(t.warm_ns, n), "us");
    r.push(
        "core.warm.warm_frac",
        fleets.iter().map(|f| f.warm_frac).sum::<f64>() / nf,
        "ratio",
    );
    r.push(
        "core.server.rounds",
        rounds as f64 / n.max(1) as f64,
        "count",
    );
    r.push(
        "core.server.dispatch_us_per_round",
        t.serve_ns as f64 / 1e3 / rounds.max(1) as f64,
        "us",
    );
    r.push("trace.sessions", n as f64, "count");
    r.push("trace.session_ms_p99", t.blocks.p99(), "ms");
    r.push("trace.session_us", us_per(wall_ns, n), "us");
    r.push(
        "trace.coverage",
        (t.flush_ns + t.warm_ns) as f64 / wall_ns.max(1) as f64,
        "ratio",
    );
    r.push(
        "trace.overhead_frac",
        us_per(wall_ns, n) / us_per(t.untraced_ns, untraced_sessions) - 1.0,
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repeated_fleet_reproduces_its_tiers_and_quality() {
        let gs2 = Gs2Model::paper_scale();
        let noise = Noise::paper_default(RHO);
        let ((), setup) = crate::report::timed(|| ());
        let mut times = FleetTimes::new(Instant::now(), 1.0, setup);
        let a = fleet(&gs2, &noise, 3, false, Some(&mut times));
        let b = fleet(&gs2, &noise, 3, true, Some(&mut times));
        assert_eq!(a, b);
        assert!(a.stats.hits > 0 && a.warm_frac > 0.0, "later waves share");
        assert_eq!(times.blocks.sessions(), 2 * FLEET);
        assert_eq!(times.traced_sessions, FLEET);
    }
}
