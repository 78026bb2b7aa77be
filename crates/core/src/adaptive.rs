//! Adaptive sample-count selection — the paper's declared future work
//! ("Currently, we are working on optimization algorithms that update K
//! adaptively", §5.2).
//!
//! Fixed `K` must be chosen for the worst comparison the search will
//! ever make (eq. 22 needs the global separation `λ`, which is unknown
//! in practice). The adaptive policy instead samples in *rounds* — one
//! parallel evaluation of the whole candidate batch per time step — and
//! stops as soon as the decision the optimizer is about to take is
//! stable:
//!
//! * at least `min_k` rounds are always taken,
//! * after each round the running per-point minima are updated
//!   (the `L_y^{(k)}` estimators of eq. 13),
//! * sampling stops once the identity of the best candidate has not
//!   changed for `patience` consecutive rounds, or at `max_k`.
//!
//! Easy comparisons (well-separated points) settle at `min_k`; hard
//! ones (close points under heavy noise) automatically buy more
//! samples — exactly the behaviour eq. 22 prescribes, without knowing
//! `λ` up front.
//!
//! [`AdaptiveTuner`] runs the same in-process loop as
//! [`crate::OnlineTuner`] (objective memo, quality curve, batched
//! exploit draws) with [`AdaptiveSampling::sample_batch`] as its batch
//! sampler. Threaded sessions go through
//! [`crate::server::run_session`] and its
//! [`crate::server::SessionOptions`] instead.

use crate::optimizer::Optimizer;
use crate::sampling::Estimator;
use crate::server::ServerError;
use crate::tuner::{OnlineTuner, TunerConfig, TuningOutcome};
use harmony_cluster::{Cluster, TuningTrace};
use harmony_surface::Objective;
use harmony_telemetry::Telemetry;
use harmony_variability::noise::NoiseModel;
use rand::RngCore;

/// The adaptive sampling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveSampling {
    /// Minimum rounds per batch (≥ 1).
    pub min_k: usize,
    /// Maximum rounds per batch (≥ `min_k`).
    pub max_k: usize,
    /// Consecutive rounds the winning candidate must stay the same
    /// before sampling stops.
    pub patience: usize,
}

impl Default for AdaptiveSampling {
    fn default() -> Self {
        AdaptiveSampling {
            min_k: 1,
            max_k: 8,
            patience: 2,
        }
    }
}

impl AdaptiveSampling {
    /// Validates the policy.
    ///
    /// # Panics
    /// Panics when `min_k == 0`, `max_k < min_k`, or `patience == 0`.
    pub fn validate(&self) {
        assert!(self.min_k >= 1, "adaptive sampling needs min_k >= 1");
        assert!(self.max_k >= self.min_k, "max_k must be >= min_k");
        assert!(self.patience >= 1, "patience must be >= 1");
    }

    /// Samples `point_costs` in rounds on `cluster` until the winner is
    /// stable; returns the per-point min estimates and the number of
    /// rounds consumed. Every round appends one `T_k` to `trace`.
    pub fn sample_batch<M: NoiseModel + ?Sized>(
        &self,
        cluster: &Cluster,
        point_costs: &[f64],
        noise: &M,
        rng: &mut dyn RngCore,
        trace: &mut TuningTrace,
    ) -> (Vec<f64>, usize) {
        self.validate();
        assert!(!point_costs.is_empty(), "adaptive sampling of empty batch");
        let mut mins = vec![f64::INFINITY; point_costs.len()];
        let mut stable_rounds = 0usize;
        let mut last_winner = usize::MAX;
        let mut rounds = 0usize;
        while rounds < self.max_k {
            // one round: every candidate evaluated once, in parallel
            // (chunked if the batch exceeds the cluster width)
            for chunk_start in (0..point_costs.len()).step_by(cluster.procs) {
                let chunk_end = (chunk_start + cluster.procs).min(point_costs.len());
                let outcome =
                    cluster.execute_step(&point_costs[chunk_start..chunk_end], noise, rng);
                trace.push(outcome.t_k);
                for (i, &obs) in outcome.observed.iter().enumerate() {
                    let idx = chunk_start + i;
                    if obs < mins[idx] {
                        mins[idx] = obs;
                    }
                }
            }
            rounds += 1;
            let winner = argmin(&mins);
            if winner == last_winner {
                stable_rounds += 1;
            } else {
                stable_rounds = 0;
                last_winner = winner;
            }
            if rounds >= self.min_k && stable_rounds >= self.patience {
                break;
            }
        }
        (mins, rounds)
    }
}

fn argmin(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty batch")
        .0
}

/// Configuration of an adaptive tuning session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveTunerConfig {
    /// Simulated processors.
    pub procs: usize,
    /// Time-step budget `K` of eq. 2.
    pub max_steps: usize,
    /// The adaptive sampling policy.
    pub policy: AdaptiveSampling,
    /// RNG seed.
    pub seed: u64,
    /// Parallel instances of the tuned configuration charged per
    /// exploit step (see `TunerConfig::exploit_width`).
    pub exploit_width: usize,
}

/// The adaptive-K counterpart of [`crate::tuner::OnlineTuner`].
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveTuner {
    cfg: AdaptiveTunerConfig,
}

impl AdaptiveTuner {
    /// Creates the tuner.
    ///
    /// # Panics
    /// Panics on a zero budget/processor count or an invalid policy.
    pub fn new(cfg: AdaptiveTunerConfig) -> Self {
        assert!(cfg.procs > 0, "tuner needs processors");
        assert!(cfg.max_steps > 0, "tuner needs a positive step budget");
        cfg.policy.validate();
        AdaptiveTuner { cfg }
    }

    /// Runs one session; semantics mirror `OnlineTuner::run` with the
    /// fixed-K schedule replaced by per-batch adaptive rounds.
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
        let c = self.cfg;
        // the policy samples every batch, so the fixed-K estimator and
        // sampling mode are never read
        let tuner = OnlineTuner::new(TunerConfig {
            procs: c.procs,
            full_occupancy: false,
            exploit_width: c.exploit_width,
            ..TunerConfig::paper_default(c.max_steps, Estimator::Single, c.seed)
        });
        let disabled = Telemetry::disabled();
        tuner.run_loop(
            Some(&c.policy),
            &[(0, objective)],
            noise,
            optimizer,
            &disabled,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pro::ProOptimizer;
    use harmony_cluster::Cluster;
    use harmony_params::{ParamDef, ParamSpace, Point};
    use harmony_surface::objective::FnObjective;
    use harmony_variability::noise::Noise;
    use harmony_variability::seeded_rng;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("x", -15, 15, 1).unwrap(),
            ParamDef::integer("y", -15, 15, 1).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn noise_free_batches_stop_at_min_rounds() {
        let policy = AdaptiveSampling {
            min_k: 1,
            max_k: 10,
            patience: 2,
        };
        let cluster = Cluster::new(8);
        let mut rng = seeded_rng(1);
        let mut trace = TuningTrace::new();
        let (mins, rounds) = policy.sample_batch(
            &cluster,
            &[3.0, 1.0, 2.0],
            &Noise::None,
            &mut rng,
            &mut trace,
        );
        // winner is immediately stable; patience=2 needs rounds 2..3
        assert!(rounds <= 3, "rounds={rounds}");
        assert_eq!(mins, vec![3.0, 1.0, 2.0]);
        assert_eq!(trace.len(), rounds);
    }

    #[test]
    fn hard_comparisons_buy_more_rounds_than_easy_ones() {
        let policy = AdaptiveSampling {
            min_k: 1,
            max_k: 20,
            patience: 2,
        };
        let cluster = Cluster::new(8);
        let noise = Noise::Pareto {
            alpha: 1.1,
            rho: 0.4,
        };
        let reps = 200;
        let avg_rounds = |costs: &[f64], seed_base: u64| -> f64 {
            let mut total = 0usize;
            for r in 0..reps {
                let mut rng = seeded_rng(seed_base + r);
                let mut trace = TuningTrace::new();
                let (_, rounds) =
                    policy.sample_batch(&cluster, costs, &noise, &mut rng, &mut trace);
                total += rounds;
            }
            total as f64 / reps as f64
        };
        let easy = avg_rounds(&[1.0, 20.0], 10);
        let hard = avg_rounds(&[1.0, 1.05], 10);
        assert!(hard > easy, "hard={hard} easy={easy}");
    }

    #[test]
    fn max_k_caps_sampling() {
        let policy = AdaptiveSampling {
            min_k: 2,
            max_k: 3,
            patience: 50, // never satisfied
        };
        let cluster = Cluster::new(4);
        let mut rng = seeded_rng(2);
        let mut trace = TuningTrace::new();
        let noise = Noise::paper_default(0.4);
        let (_, rounds) = policy.sample_batch(&cluster, &[1.0, 1.01], &noise, &mut rng, &mut trace);
        assert_eq!(rounds, 3);
    }

    #[test]
    fn oversized_batches_chunk_across_steps() {
        let policy = AdaptiveSampling {
            min_k: 1,
            max_k: 1,
            patience: 1,
        };
        let cluster = Cluster::new(2);
        let mut rng = seeded_rng(3);
        let mut trace = TuningTrace::new();
        let (mins, rounds) = policy.sample_batch(
            &cluster,
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            &Noise::None,
            &mut rng,
            &mut trace,
        );
        assert_eq!(rounds, 1);
        assert_eq!(trace.len(), 3); // ceil(5/2) steps for the round
        assert_eq!(mins, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn adaptive_session_finds_optimum() {
        let obj = FnObjective::new("bowl", space(), |p: &Point| {
            2.0 + 0.05 * (p[0] * p[0] + p[1] * p[1])
        });
        let tuner = AdaptiveTuner::new(AdaptiveTunerConfig {
            procs: 16,
            max_steps: 120,
            policy: AdaptiveSampling::default(),
            seed: 4,
            exploit_width: 6,
        });
        let mut opt = ProOptimizer::with_defaults(space());
        let out = tuner
            .run(&obj, &Noise::paper_default(0.2), &mut opt)
            .unwrap();
        assert!(out.best_true_cost < 3.0, "bt={}", out.best_true_cost);
        assert!(out.trace.len() >= 120);
    }

    #[test]
    fn adaptive_spends_fewer_samples_than_fixed_max_k() {
        // the whole point: adaptive uses < max_k samples on average
        let obj = FnObjective::new("bowl", space(), |p: &Point| {
            2.0 + 0.05 * (p[0] * p[0] + p[1] * p[1])
        });
        let noise = Noise::paper_default(0.2);
        let tuner = AdaptiveTuner::new(AdaptiveTunerConfig {
            procs: 64,
            max_steps: 100,
            policy: AdaptiveSampling {
                min_k: 1,
                max_k: 6,
                patience: 2,
            },
            seed: 5,
            exploit_width: 6,
        });
        let mut opt = ProOptimizer::with_defaults(space());
        let out = tuner.run(&obj, &noise, &mut opt).unwrap();
        let fixed6 = crate::tuner::OnlineTuner::new(crate::tuner::TunerConfig {
            procs: 64,
            max_steps: 100,
            estimator: crate::sampling::Estimator::MinOfK(6),
            mode: harmony_cluster::SamplingMode::SequentialSteps,
            seed: 5,
            full_occupancy: false,
            exploit_width: 6,
        });
        let mut opt6 = ProOptimizer::with_defaults(space());
        let out6 = fixed6.run(&obj, &noise, &mut opt6).unwrap();
        assert!(
            out.evaluations < out6.evaluations,
            "adaptive={} fixed6={}",
            out.evaluations,
            out6.evaluations
        );
    }

    #[test]
    #[should_panic(expected = "min_k >= 1")]
    fn zero_min_k_rejected() {
        AdaptiveSampling {
            min_k: 0,
            max_k: 2,
            patience: 1,
        }
        .validate();
    }
}
