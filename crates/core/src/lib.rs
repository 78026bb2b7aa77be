//! Parallel Rank Ordering (PRO) and companion direct-search optimizers
//! for on-line parameter tuning — the primary contribution of
//! Tabatabaee, Tiwari & Hollingsworth, *"Parallel Parameter Tuning for
//! Applications with Performance Variability"* (SC 2005).
//!
//! # Architecture
//!
//! Every algorithm implements the batch **ask/tell** interface
//! [`Optimizer`]: it *proposes* a batch of admissible points, the caller
//! evaluates them (with whatever noise, sampling, and scheduling policy
//! applies) and *observes* the estimates back. This keeps the
//! algorithms pure state machines and puts measurement policy — the
//! paper's other contribution — in one place:
//!
//! * [`pro`] — **Parallel Rank Ordering** (Algorithm 2): reflect all
//!   non-best vertices through the best in parallel, probe the most
//!   promising expansion first, expand or shrink; GSS-class and
//!   projection-aware,
//! * [`sro`] — Sequential Rank Ordering (Algorithm 1),
//! * [`nelder_mead`] — the classical simplex method (the original
//!   Active Harmony optimizer, §3.1),
//! * [`baselines`] — random search, simulated annealing, and a genetic
//!   algorithm (§2 argues these transiently explore too expensively for
//!   on-line use),
//! * [`sampling`] — the estimator layer: single sample, **min-of-K**
//!   (§5), mean-of-K, median-of-K,
//! * [`cache`] — transparent objective memoization ([`CachedObjective`]);
//!   the tuner re-probes the same points constantly and the wrapped
//!   objective is deterministic, so the memo is exact,
//! * [`adaptive`] — the paper's future-work item: per-batch adaptive
//!   sample counts that stop as soon as the pending decision is stable,
//! * [`surrogate`] — the Bayesian-optimization tier: a from-scratch
//!   TPE-style density-ratio surrogate that models the observed
//!   (point, min-of-K estimate) history and proposes each batch from a
//!   deterministic splitmix-seeded candidate pool (benchmarked
//!   head-to-head with PRO/SRO/Nelder–Mead in the T8 experiment),
//! * [`restart`] — multi-start wrapping for global coverage on deceptive
//!   surfaces,
//! * [`logged`] — transparent observation logging and prior-run reuse
//!   (the paper's reference \[3\]): export a session's measurements as a
//!   performance database or warm-start the next session,
//! * [`tuner`] — the on-line tuning driver: runs an optimizer against an
//!   objective + noise model on a simulated SPMD cluster for exactly `K`
//!   time steps, producing the `Total_Time`/NTT record of eq. 2/23,
//! * [`server`] — a fault-tolerant Active-Harmony-style tuning
//!   **server** behind one entry point, [`server::run_session`], with
//!   real client threads exchanging fetch/report
//!   messages over channels, including free parallel multi-sampling
//!   when `P > n` (§5.2); under an injected
//!   [`harmony_cluster::FaultPlan`] it reassigns missed slots, evicts
//!   crashed clients, and advances optimizers on partial batches
//!   ([`Optimizer::observe_partial`]). Sessions can attach a shared
//!   cross-session [`harmony_surface::SharedPerfDb`]
//!   ([`server::SharedSession`]) so concurrent sessions reuse each
//!   other's measurements (cache-before-evaluate) and publish their
//!   estimates back,
//! * [`warm`] — warm-start seeding: a new session picks its simplex
//!   center from neighbours' published estimates, smoothed by §6's
//!   nearest-neighbour interpolation to damp lucky min-of-K outliers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod baselines;
pub mod cache;
pub mod logged;
pub mod nelder_mead;
pub mod optimizer;
pub mod pro;
pub mod restart;
pub mod sampling;
pub mod server;
pub mod sro;
pub mod surrogate;
pub mod tuner;
pub mod warm;

pub use adaptive::{AdaptiveSampling, AdaptiveTuner, AdaptiveTunerConfig};
pub use cache::CachedObjective;
pub use logged::{Logged, ObservationLog};
pub use optimizer::Optimizer;
pub use pro::{ProConfig, ProOptimizer};
pub use restart::{restarting_pro, Restarting};
pub use sampling::Estimator;
pub use server::{
    run_resilient_shared, run_session, run_session_traced, RecoveryConfig, ServerConfig,
    ServerError, SessionOptions, SharedSession, SupervisedOutcome, SupervisorReport,
};
pub use surrogate::{SurrogateConfig, SurrogateOptimizer};
pub use tuner::{FaultStats, OnlineTuner, TunerConfig, TuningOutcome};
pub use warm::warm_start_center;
