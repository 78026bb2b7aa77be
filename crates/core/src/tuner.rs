//! The on-line tuning driver: optimizer × objective × noise × cluster.
//!
//! [`OnlineTuner::run`] executes one complete tuning session the way the
//! paper's §6 simulations do: the application must run for (at least)
//! `K = max_steps` barrier-synchronised time steps; every time step runs
//! candidate configurations on the simulated cluster and contributes its
//! worst-case time `T_k` to `Total_Time(K)` (eq. 2). Once the optimizer
//! converges (or stops proposing), the remaining budget *exploits* the
//! incumbent — the tuned application simply keeps running with the best
//! parameters found.
//!
//! Multi-sample estimation (§5.2) is applied here: each proposed point
//! is measured `K` times according to the configured
//! [`Estimator`]/[`SamplingMode`] and only the reduced estimate reaches
//! the optimizer.
//!
//! [`OnlineTuner::run`], [`OnlineTuner::run_traced`],
//! [`OnlineTuner::run_phases`] and [`crate::AdaptiveTuner::run`] are one
//! loop body, differing only in the phase list (one phase for a
//! stationary objective) and the batch sampler (fixed `K` reduced by the
//! estimator, or adaptive rounds). The threaded counterpart, with real
//! client threads, faults, journals and supervision, is
//! [`crate::server::run_session`] configured by
//! [`crate::server::SessionOptions`]; it charges time differently
//! (dense slot packing over live clients, with deadlines), so it keeps
//! its own loop.

use crate::adaptive::AdaptiveSampling;
use crate::cache::CachedObjective;
use crate::optimizer::Optimizer;
use crate::sampling::Estimator;
use crate::server::ServerError;
use harmony_cluster::{Cluster, SamplingMode, TuningTrace};
use harmony_params::Point;
use harmony_surface::Objective;
use harmony_telemetry::{event, Field, Telemetry};
use harmony_variability::noise::NoiseModel;
use harmony_variability::seeded_rng;

/// Configuration of a tuning session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerConfig {
    /// Number of processors `P` in the simulated cluster.
    pub procs: usize,
    /// Time-step budget `K` of eq. 2 — the session reports
    /// `Total_Time(K)` over exactly this many steps.
    pub max_steps: usize,
    /// How raw observations reduce to the estimate fed to the optimizer.
    pub estimator: Estimator,
    /// How multi-sample evaluations are scheduled (§6.2 uses
    /// [`SamplingMode::SequentialSteps`] as the worst case).
    pub mode: SamplingMode,
    /// RNG seed; sessions are fully deterministic given the seed.
    pub seed: u64,
    /// When true, every time step occupies *all* `P` processors (idle
    /// processors rerun scheduled candidates — or the incumbent during
    /// the exploit phase — and only contribute to the barrier max of
    /// eq. 1). This is the physically faithful SPMD model; turning it
    /// off charges each step only its scheduled evaluations.
    pub full_occupancy: bool,
    /// Number of parallel instances of the tuned configuration that
    /// keep running after the optimizer stops (each exploit step costs
    /// the max of this many noise draws, eq. 1). The paper-sim value is
    /// `2N` — the converged simplex's identical vertices stay the points
    /// evaluated every step; using one value for *all* algorithms keeps
    /// cross-algorithm comparisons fair. Ignored (the full `P` is used)
    /// under `full_occupancy`.
    pub exploit_width: usize,
}

impl TunerConfig {
    /// The paper's §6 setup: 64 processors, sequential multi-sampling,
    /// full SPMD occupancy.
    pub fn paper_default(max_steps: usize, estimator: Estimator, seed: u64) -> Self {
        TunerConfig {
            procs: 64,
            max_steps,
            estimator,
            mode: SamplingMode::SequentialSteps,
            seed,
            full_occupancy: true,
            exploit_width: 6,
        }
    }
}

/// Fault-handling counters of one tuning session. All zero on the
/// fault-free paths ([`OnlineTuner`] and a server session with a
/// fault-free plan); populated by
/// [`crate::server::run_session`] when faults fire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reports that missed their deadline (client hang, dropped report,
    /// or client death while running the assignment).
    pub missed_reports: usize,
    /// Assignments re-dispatched to a live client after a miss.
    pub retries: usize,
    /// Slots abandoned after exhausting their retry budget.
    pub abandoned_slots: usize,
    /// Clients permanently evicted after crashing.
    pub evicted_clients: usize,
    /// Batches advanced with `observe_partial` (quorum reached but some
    /// estimates missing).
    pub partial_batches: usize,
    /// Reports the fault plan delivered more than once; the extra copies
    /// are discarded by the `(batch, slot, attempt)` de-duplication rule.
    pub duplicate_reports: usize,
}

impl FaultStats {
    /// `true` when no counter fired — the session saw no fault handling.
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// The record of one tuning session.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct TuningOutcome {
    /// Per-step worst-case times; at least `max_steps` long (the last
    /// algorithm batch may overshoot the budget slightly).
    pub trace: TuningTrace,
    /// The step budget `K` the session was charged for.
    pub steps_budget: usize,
    /// Best point found (by estimate).
    pub best_point: Point,
    /// The estimate that made it best.
    pub best_estimate: f64,
    /// The *true* (noise-free) cost of the best point — what the tuner
    /// actually delivered.
    pub best_true_cost: f64,
    /// Whether the optimizer's own stopping criterion fired.
    pub converged: bool,
    /// Total objective evaluations consumed (all samples).
    pub evaluations: usize,
    /// Quality-over-time: after every optimizer batch, `(steps_consumed,
    /// true cost of the configuration the optimizer would deploy)`. The
    /// last entry equals `best_true_cost` at the end of tuning.
    pub quality_curve: Vec<(usize, f64)>,
    /// Fault-handling counters (all zero on fault-free paths).
    pub faults: FaultStats,
}

impl TuningOutcome {
    /// `Total_Time(K)` — the sum of the first `K = steps_budget` step
    /// times (eq. 2).
    pub fn total_time(&self) -> f64 {
        self.trace
            .total_time_at(self.steps_budget.min(self.trace.len()))
    }

    /// Normalised total time `(1−ρ)·Total_Time` (eq. 23).
    pub fn ntt(&self, rho: f64) -> f64 {
        (1.0 - rho) * self.total_time()
    }

    /// First time step at which the deployed configuration's true cost
    /// dropped to `threshold` or below — the "time to quality" metric
    /// that complements `Total_Time` (a tuner can win eq. 2 while being
    /// slow to good configurations, Fig. 1). `None` when never reached.
    pub fn steps_to_quality(&self, threshold: f64) -> Option<usize> {
        self.quality_curve
            .iter()
            .find(|(_, q)| *q <= threshold)
            .map(|(s, _)| *s)
    }
}

/// Drives optimizers through complete on-line tuning sessions.
#[derive(Debug, Clone, Copy)]
pub struct OnlineTuner {
    cfg: TunerConfig,
}

impl OnlineTuner {
    /// Creates a tuner.
    ///
    /// # Panics
    /// Panics when the budget or processor count is zero.
    pub fn new(cfg: TunerConfig) -> Self {
        assert!(cfg.procs > 0, "tuner needs processors");
        assert!(cfg.max_steps > 0, "tuner needs a positive step budget");
        OnlineTuner { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &TunerConfig {
        &self.cfg
    }

    /// Runs one tuning session to completion.
    ///
    /// The loop: propose → evaluate each point `K` times on the cluster
    /// (recording every consumed time step's `T_k`) → reduce → observe,
    /// until the optimizer converges or the budget is reached; the
    /// remaining steps run the incumbent once per step.
    ///
    /// # Errors
    /// [`ServerError::NoObservations`] when the optimizer never produced
    /// a recommendation (it proposed no batches at all).
    pub fn run<O, M>(
        &self,
        objective: &O,
        noise: &M,
        optimizer: &mut dyn Optimizer,
    ) -> Result<TuningOutcome, ServerError>
    where
        O: Objective + ?Sized,
        M: NoiseModel + ?Sized,
    {
        self.run_traced(objective, noise, optimizer, &Telemetry::disabled())
    }

    /// [`OnlineTuner::run`] with structured tracing: the session becomes
    /// a `tuner.session` span, every optimizer batch emits a
    /// `tuner.batch` event, and the exploit phase, objective cache and
    /// final [`TuningTrace`] metrics are exported at session end.
    ///
    /// The tuner *owns the logical clock*: it is set to the number of
    /// consumed time steps `trace.len()` at every batch boundary, so
    /// identical sessions produce byte-identical traces regardless of
    /// where or when they run. To also record per-iteration optimizer
    /// spans, hand the same handle to the optimizer (e.g.
    /// [`crate::ProOptimizer::set_telemetry`]) before calling this.
    pub fn run_traced<O, M>(
        &self,
        objective: &O,
        noise: &M,
        optimizer: &mut dyn Optimizer,
        tel: &Telemetry,
    ) -> Result<TuningOutcome, ServerError>
    where
        O: Objective + ?Sized,
        M: NoiseModel + ?Sized,
    {
        self.run_loop(None, &[(0, objective)], noise, optimizer, tel)
    }

    /// Runs one session against a *non-stationary* environment: the
    /// objective in force switches at the given step boundaries
    /// (`phases[i] = (start_step, objective)`, starts ascending, first
    /// start 0). The optimizer is **not** reset at boundaries — this is
    /// the scenario that motivates continuous monitoring
    /// (`ProConfig::continuous`): a stop-at-convergence tuner keeps
    /// exploiting a configuration that is no longer good, while a
    /// continuous tuner notices the regression through its re-probes and
    /// walks to the new optimum.
    ///
    /// The reported `best_*` fields refer to the *final* phase's
    /// objective.
    ///
    /// # Errors
    /// [`ServerError::NoObservations`] when the optimizer never produced
    /// a recommendation.
    ///
    /// # Panics
    /// Panics when `phases` is empty or the starts are not ascending
    /// from 0.
    pub fn run_phases<M>(
        &self,
        phases: &[(usize, &dyn Objective)],
        noise: &M,
        optimizer: &mut dyn Optimizer,
    ) -> Result<TuningOutcome, ServerError>
    where
        M: NoiseModel + ?Sized,
    {
        assert!(!phases.is_empty(), "need at least one phase");
        assert_eq!(phases[0].0, 0, "first phase must start at step 0");
        assert!(
            phases.windows(2).all(|w| w[0].0 < w[1].0),
            "phase starts must be strictly ascending"
        );
        let disabled = Telemetry::disabled();
        self.run_loop(None, phases, noise, optimizer, &disabled)
    }

    /// The one in-process session loop: propose → evaluate → sample →
    /// reduce → observe → quality point, until the optimizer converges
    /// or the budget is spent; then the incumbent runs for the rest of
    /// the budget. `phases` lists the objective in force from each start
    /// step on (one phase for a stationary environment). Each batch is
    /// sampled `K` times per point on the cluster's schedule and reduced
    /// by the estimator, or — given an `adaptive` policy — in adaptive
    /// rounds.
    pub(crate) fn run_loop<O, M>(
        &self,
        adaptive: Option<&AdaptiveSampling>,
        phases: &[(usize, &O)],
        noise: &M,
        optimizer: &mut dyn Optimizer,
        tel: &Telemetry,
    ) -> Result<TuningOutcome, ServerError>
    where
        O: Objective + ?Sized,
        M: NoiseModel + ?Sized,
    {
        let c = &self.cfg;
        // objectives are deterministic (noise is applied by the cluster
        // layer), so memoizing repeated probes is exact — converged
        // batches and the quality curve revisit the same points heavily.
        // Phase objectives differ, so each gets its own memo.
        let cached: Vec<(usize, CachedObjective<'_, O>)> = phases
            .iter()
            .map(|&(start, obj)| (start, CachedObjective::new(obj)))
            .collect();
        let phase_at = |step: usize| cached.iter().rposition(|(start, _)| *start <= step);
        let objective_at = |step: usize| &cached[phase_at(step).expect("phase 0 starts at 0")].1;
        let cluster = Cluster::new(c.procs);
        let mut rng = seeded_rng(c.seed);
        let mut trace = TuningTrace::new();
        let mut evaluations = 0usize;
        let mut quality_curve: Vec<(usize, f64)> = Vec::new();
        let session = tel.enabled().then(|| {
            tel.set_clock(0);
            tel.span_open(
                "tuner.session",
                vec![
                    Field::new("procs", c.procs),
                    Field::new("max_steps", c.max_steps),
                    Field::new("k", c.estimator.samples()),
                    Field::new("seed", c.seed),
                ],
            )
        });
        let mut batches = 0usize;

        while trace.len() < c.max_steps && !optimizer.converged() {
            tel.set_clock(trace.len() as u64);
            let batch = optimizer.propose();
            if batch.is_empty() {
                break;
            }
            // the environment during a batch is the one in force at its
            // first step (batches are short relative to phases)
            let objective = objective_at(trace.len());
            let costs: Vec<f64> = batch.iter().map(|p| objective.eval(p)).collect();
            let (estimates, samples) = match adaptive {
                Some(policy) => policy.sample_batch(&cluster, &costs, noise, &mut rng, &mut trace),
                None => {
                    let k = c.estimator.samples();
                    let raw = cluster.run_batch_occupied(
                        &costs,
                        k,
                        c.mode,
                        noise,
                        &mut rng,
                        &mut trace,
                        c.full_occupancy,
                    );
                    (raw.iter().map(|s| c.estimator.reduce(s)).collect(), k)
                }
            };
            evaluations += batch.len() * samples;
            optimizer.observe(&estimates);
            tel.set_clock(trace.len() as u64);
            event!(
                tel,
                "tuner.batch",
                batch = batches,
                points = batch.len(),
                steps = trace.len()
            );
            batches += 1;
            if let Some((rec, _)) = optimizer.recommendation() {
                let current = objective_at(trace.len().saturating_sub(1));
                quality_curve.push((trace.len(), current.eval(&rec)));
            }
        }

        // deploy what the algorithm recommends (its converged vertex),
        // not the luckiest raw observation — under heavy-tailed noise
        // the two can differ substantially
        let Some((best_point, best_estimate)) = optimizer.recommendation() else {
            if let Some(id) = session {
                tel.set_clock(trace.len() as u64);
                event!(tel, "tuner.failed", error = "no_observations");
                tel.span_close(id);
            }
            return Err(ServerError::NoObservations);
        };
        let last = cached.len() - 1;
        let best_true_cost = cached[last].1.eval(&best_point);

        // exploit: the application keeps running with the tuned
        // parameters for the rest of the budget. Under full occupancy
        // every processor runs it and the barrier waits for the slowest
        // of P draws; otherwise `exploit_width` parallel instances keep
        // running (the paper's simulation: the converged simplex's 2N
        // identical vertices stay the points evaluated each step).
        let width = if c.full_occupancy {
            c.procs
        } else {
            c.exploit_width.clamp(1, c.procs)
        };
        // Every step of a phase runs the same cost, evaluated once per
        // phase, so draw each step's observations through the batch
        // observe_n path into one reusable scratch buffer: the per-draw
        // constants (eq. 17's β) derive once per step instead of once
        // per draw, and no step allocates. The uniform stream and the
        // left-to-right max are exactly those of per-draw
        // `execute_step` calls.
        tel.set_clock(trace.len() as u64);
        let exploit_start = trace.len();
        let mut exploit_obs = vec![0.0_f64; width];
        let mut phase = phase_at(trace.len()).unwrap_or(last);
        while trace.len() < c.max_steps {
            let (end, cost) = match cached.get(phase + 1) {
                Some(&(next, _)) => (next.min(c.max_steps), cached[phase].1.eval(&best_point)),
                None => (c.max_steps, best_true_cost),
            };
            while trace.len() < end {
                noise.observe_n(cost, &mut rng, &mut exploit_obs);
                let t_k = exploit_obs
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max);
                trace.push(t_k);
            }
            phase += 1;
        }

        if let Some(id) = session {
            tel.set_clock(trace.len() as u64);
            event!(
                tel,
                "tuner.exploit",
                steps = trace.len() - exploit_start,
                cost = best_true_cost,
                width = width
            );
            event!(
                tel,
                "tuner.done",
                batches = batches,
                evaluations = evaluations,
                best = best_true_cost,
                converged = optimizer.converged()
            );
            for (_, objective) in &cached {
                objective.emit_telemetry(tel);
            }
            trace.emit_telemetry(tel, None);
            tel.span_close(id);
        }

        Ok(TuningOutcome {
            trace,
            steps_budget: c.max_steps,
            best_point,
            best_estimate,
            best_true_cost,
            converged: optimizer.converged(),
            evaluations,
            quality_curve,
            faults: FaultStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RandomSearch;
    use crate::pro::ProOptimizer;
    use harmony_params::{ParamDef, ParamSpace};
    use harmony_surface::objective::FnObjective;
    use harmony_variability::noise::Noise;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("x", -20, 20, 1).unwrap(),
            ParamDef::integer("y", -20, 20, 1).unwrap(),
        ])
        .unwrap()
    }

    fn bowl() -> FnObjective<impl Fn(&Point) -> f64> {
        FnObjective::new("bowl", space(), |p| {
            2.0 + 0.05 * (p[0] * p[0] + p[1] * p[1])
        })
    }

    fn cfg(k: Estimator, steps: usize, seed: u64) -> TunerConfig {
        TunerConfig {
            procs: 64,
            max_steps: steps,
            estimator: k,
            mode: SamplingMode::SequentialSteps,
            seed,
            full_occupancy: false,
            exploit_width: 6,
        }
    }

    #[test]
    fn noise_free_session_finds_optimum_and_fills_budget() {
        let obj = bowl();
        let tuner = OnlineTuner::new(cfg(Estimator::Single, 100, 1));
        let mut opt = ProOptimizer::with_defaults(space());
        let out = tuner.run(&obj, &Noise::None, &mut opt).unwrap();
        assert!(out.converged);
        assert_eq!(out.best_point.as_slice(), &[0.0, 0.0]);
        assert_eq!(out.best_true_cost, 2.0);
        assert!(out.trace.len() >= 100);
        // exploit steps cost exactly the optimum under no noise
        let t = out.trace.step_times();
        assert_eq!(t[t.len() - 1], 2.0);
    }

    #[test]
    fn total_time_counts_exactly_k_steps() {
        let obj = bowl();
        let tuner = OnlineTuner::new(cfg(Estimator::Single, 50, 2));
        let mut opt = ProOptimizer::with_defaults(space());
        let out = tuner.run(&obj, &Noise::None, &mut opt).unwrap();
        let manual: f64 = out.trace.step_times()[..50].iter().sum();
        assert!((out.total_time() - manual).abs() < 1e-12);
        assert!((out.ntt(0.2) - 0.8 * out.total_time()).abs() < 1e-9);
    }

    #[test]
    fn multi_sampling_consumes_k_steps_per_batch() {
        // with no noise and sequential sampling, a session with K=3
        // costs ~3x the time steps per algorithm phase; Total_Time over
        // the same budget is therefore larger (the rho=0 line of Fig 10)
        let obj = bowl();
        let t1 = OnlineTuner::new(cfg(Estimator::Single, 60, 3))
            .run(
                &obj,
                &Noise::None,
                &mut ProOptimizer::with_defaults(space()),
            )
            .unwrap();
        let t3 = OnlineTuner::new(cfg(Estimator::MinOfK(3), 60, 3))
            .run(
                &obj,
                &Noise::None,
                &mut ProOptimizer::with_defaults(space()),
            )
            .unwrap();
        // same steps charged
        assert_eq!(t1.steps_budget, t3.steps_budget);
        // K=3 spends ~3x evaluations before converging
        assert!(t3.evaluations > 2 * t1.evaluations);
        // and wastes budget: total time no better
        assert!(t3.total_time() >= t1.total_time() * 0.99);
    }

    #[test]
    fn min_of_k_beats_single_under_heavy_noise() {
        // the core §5 claim, in miniature: with heavy-tailed noise,
        // min-of-3 estimates steer PRO to a better true cost than
        // single samples, averaged over replications
        let obj = bowl();
        let noise = Noise::Pareto {
            alpha: 1.7,
            rho: 0.35,
        };
        let reps = 30;
        let avg = |est: Estimator| -> f64 {
            (0..reps)
                .map(|r| {
                    let tuner = OnlineTuner::new(cfg(est, 120, 1000 + r));
                    let mut opt = ProOptimizer::with_defaults(space());
                    tuner.run(&obj, &noise, &mut opt).unwrap().best_true_cost
                })
                .sum::<f64>()
                / reps as f64
        };
        let single = avg(Estimator::Single);
        let min3 = avg(Estimator::MinOfK(3));
        assert!(min3 <= single + 0.05, "min3={min3} single={single}");
    }

    #[test]
    fn deterministic_given_seed() {
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let run = |seed| {
            let tuner = OnlineTuner::new(cfg(Estimator::MinOfK(2), 80, seed));
            let mut opt = ProOptimizer::with_defaults(space());
            tuner.run(&obj, &noise, &mut opt).unwrap().total_time()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn works_with_non_converging_optimizers() {
        let obj = bowl();
        let tuner = OnlineTuner::new(cfg(Estimator::Single, 40, 4));
        let mut opt = RandomSearch::new(space(), 8, 4);
        let out = tuner.run(&obj, &Noise::None, &mut opt).unwrap();
        assert!(!out.converged);
        assert!(out.trace.len() >= 40);
        assert!(out.best_true_cost < 25.0);
    }

    #[test]
    fn quality_curve_tracks_descent() {
        let obj = bowl();
        let tuner = OnlineTuner::new(cfg(Estimator::Single, 100, 1));
        let mut opt = ProOptimizer::with_defaults(space());
        let out = tuner.run(&obj, &Noise::None, &mut opt).unwrap();
        assert!(!out.quality_curve.is_empty());
        // steps are non-decreasing; final quality equals the deployed cost
        assert!(out.quality_curve.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(out.quality_curve.last().unwrap().1, out.best_true_cost);
        // noise-free PRO descends: the last quality is the minimum
        let min_q = out
            .quality_curve
            .iter()
            .map(|(_, q)| *q)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min_q, out.best_true_cost);
        // time-to-quality is monotone in the threshold
        let t_loose = out.steps_to_quality(10.0);
        let t_tight = out.steps_to_quality(2.0);
        assert!(t_loose.is_some() && t_tight.is_some());
        assert!(t_loose.unwrap() <= t_tight.unwrap());
        assert_eq!(out.steps_to_quality(0.5), None); // below the optimum
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_session() {
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let tuner = OnlineTuner::new(cfg(Estimator::MinOfK(2), 80, 7));

        let mut plain_opt = ProOptimizer::with_defaults(space());
        let plain = tuner.run(&obj, &noise, &mut plain_opt).unwrap();

        let (tel, sink) = harmony_telemetry::Telemetry::memory();
        let mut traced_opt = ProOptimizer::with_defaults(space());
        traced_opt.set_telemetry(tel.clone());
        let traced = tuner
            .run_traced(&obj, &noise, &mut traced_opt, &tel)
            .unwrap();

        assert_eq!(plain, traced, "telemetry must not perturb the session");
        let summary = harmony_telemetry::Summary::from_records(&sink.take());
        assert_eq!(summary.span_count("tuner.session"), Some(1));
        assert!(summary.span_count("pro.iteration").unwrap() > 0);
        assert!(summary.event_count("tuner.batch").unwrap() > 0);
        assert_eq!(summary.event_count("tuner.done"), Some(1));
        assert_eq!(
            summary.counter_total("trace.steps"),
            Some(traced.trace.len() as u64)
        );
        assert!(summary.counter_total("cache.hits").unwrap() > 0);
    }

    #[test]
    #[should_panic(expected = "positive step budget")]
    fn zero_budget_rejected() {
        OnlineTuner::new(cfg(Estimator::Single, 0, 1));
    }

    #[test]
    fn phased_run_tracks_environment_shift() {
        // phase 1: optimum at (5, 5); phase 2: optimum at (-5, -5).
        // A continuous PRO must end near the *new* optimum.
        let obj_a = FnObjective::new("a", space(), |p| {
            2.0 + 0.05 * ((p[0] - 5.0).powi(2) + (p[1] - 5.0).powi(2))
        });
        let obj_b = FnObjective::new("b", space(), |p| {
            2.0 + 0.05 * ((p[0] + 5.0).powi(2) + (p[1] + 5.0).powi(2))
        });
        let tuner = OnlineTuner::new(cfg(Estimator::Single, 600, 5));
        let pro_cfg = crate::pro::ProConfig {
            continuous: true,
            ..crate::pro::ProConfig::default()
        };
        let mut opt = ProOptimizer::new(space(), pro_cfg);
        let out = tuner
            .run_phases(&[(0, &obj_a), (150, &obj_b)], &Noise::None, &mut opt)
            .unwrap();
        assert!(!out.converged);
        assert_eq!(out.best_point.as_slice(), &[-5.0, -5.0]);
        assert_eq!(out.best_true_cost, 2.0);
    }

    #[test]
    fn stop_at_convergence_misses_environment_shift() {
        // the control: the default (stopping) PRO converges in phase 1
        // and never notices phase 2
        let obj_a = FnObjective::new("a", space(), |p| {
            2.0 + 0.05 * ((p[0] - 5.0).powi(2) + (p[1] - 5.0).powi(2))
        });
        let obj_b = FnObjective::new("b", space(), |p| {
            2.0 + 0.05 * ((p[0] + 5.0).powi(2) + (p[1] + 5.0).powi(2))
        });
        let tuner = OnlineTuner::new(cfg(Estimator::Single, 600, 5));
        let mut opt = ProOptimizer::with_defaults(space());
        let out = tuner
            .run_phases(&[(0, &obj_a), (150, &obj_b)], &Noise::None, &mut opt)
            .unwrap();
        assert!(out.converged);
        assert_eq!(out.best_point.as_slice(), &[5.0, 5.0]); // stale!
        assert!(out.best_true_cost > 2.0);
    }

    /// FNV-1a over the bits of every step time and quality point: a
    /// compact fingerprint that any change to the session loop moves.
    fn fingerprint(out: &TuningOutcome) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for t in out.trace.step_times() {
            mix(t.to_bits());
        }
        for &(step, q) in &out.quality_curve {
            mix(step as u64);
            mix(q.to_bits());
        }
        h
    }

    #[test]
    fn two_phase_sessions_are_pinned() {
        // a noisy two-phase environment: the stopping PRO converges in
        // phase 1 and exploits across the boundary; the continuous PRO
        // keeps proposing batches in phase 2
        let obj_a = FnObjective::new("a", space(), |p| {
            2.0 + 0.05 * ((p[0] - 5.0).powi(2) + (p[1] - 5.0).powi(2))
        });
        let obj_b = FnObjective::new("b", space(), |p| {
            2.0 + 0.05 * ((p[0] + 5.0).powi(2) + (p[1] + 5.0).powi(2))
        });
        let noise = Noise::paper_default(0.2);
        let tuner = OnlineTuner::new(cfg(Estimator::MinOfK(2), 400, 11));
        let phases: [(usize, &dyn Objective); 2] = [(0, &obj_a), (150, &obj_b)];
        let continuous = crate::pro::ProConfig {
            continuous: true,
            ..crate::pro::ProConfig::default()
        };
        let runs = [
            ProOptimizer::with_defaults(space()),
            ProOptimizer::new(space(), continuous),
        ]
        .map(|mut opt| tuner.run_phases(&phases, &noise, &mut opt).unwrap());
        let pins: Vec<_> = runs
            .iter()
            .map(|o| {
                (
                    fingerprint(o),
                    o.trace.len(),
                    o.best_point.as_slice().to_vec(),
                    o.evaluations,
                    o.quality_curve.len(),
                    o.best_true_cost.to_bits(),
                )
            })
            .collect();
        let expected = vec![
            (
                7611070828759436068,
                400,
                vec![5.0, 5.0],
                88,
                16,
                4622945017495814144,
            ),
            (
                10100764325672386017,
                400,
                vec![-5.0, -6.0],
                1604,
                200,
                4611798608418072166,
            ),
        ];
        assert_eq!(pins, expected, "pinned two-phase outcomes");
    }

    #[test]
    fn single_phase_run_phases_equals_run() {
        let obj = bowl();
        let noise = Noise::paper_default(0.3);
        for full_occupancy in [false, true] {
            let tuner = OnlineTuner::new(TunerConfig {
                full_occupancy,
                ..cfg(Estimator::MinOfK(3), 120, 9)
            });
            let mut opt_a = ProOptimizer::with_defaults(space());
            let plain = tuner.run(&obj, &noise, &mut opt_a).unwrap();
            let mut opt_b = ProOptimizer::with_defaults(space());
            let phased = tuner
                .run_phases(&[(0, &obj as &dyn Objective)], &noise, &mut opt_b)
                .unwrap();
            assert_eq!(plain, phased);
        }
    }

    #[test]
    #[should_panic(expected = "first phase must start at step 0")]
    fn phases_must_start_at_zero() {
        let obj = bowl();
        let tuner = OnlineTuner::new(cfg(Estimator::Single, 10, 1));
        let mut opt = ProOptimizer::with_defaults(space());
        let _ = tuner.run_phases(
            &[(5, &obj as &dyn harmony_surface::Objective)],
            &Noise::None,
            &mut opt,
        );
    }
}
