//! A fault-tolerant Active-Harmony-style tuning server with real client
//! threads.
//!
//! Active Harmony structures on-line tuning as a central server owning
//! the optimizer state while the application's SPMD processes fetch
//! parameter assignments and report measured performance. This module
//! reproduces that architecture in-process: one server (the calling
//! thread) and `P` client threads exchanging messages over mpsc
//! channels. Each barrier-synchronised time step the server hands every
//! live client one `(point, sample)` evaluation slot, collects the
//! reports, charges the step the worst observation (eq. 1), and advances
//! the optimizer when a batch completes.
//!
//! Unlike [`crate::tuner::OnlineTuner`] (which models §6.2's sequential
//! worst case), the server packs `(point, sample)` slots densely over
//! processors — §5.2's observation that with `P ≥ n·K` processors,
//! multi-sampling is free: "If there are 64 parallel processors running
//! GS2 concurrently, we can set K = 10 with no additional cost."
//!
//! [`run_session`] is the one entry point. Its [`SessionOptions`] attach
//! a fault plan, telemetry, a journal, a supervisor and shared database
//! tiers; the default options run a fault-free, untraced, unjournalled,
//! unsupervised and unshared session.
//!
//! # Fault tolerance
//!
//! The paper's setting — a live application on a shared cluster — is
//! exactly where clients crash and reports go missing, so a session
//! tunes *through* the faults of its [`FaultPlan`] instead of
//! panicking:
//!
//! * every dispatched assignment carries a `(batch, slot, attempt)`
//!   identity and a **deadline**: a report that is late, lost, or whose
//!   client died charges the step the deadline (escalated by the retry
//!   backoff) instead of an observation,
//! * missed assignments are **reassigned** to live clients with bounded
//!   retries; slots that exhaust their retries are abandoned,
//! * duplicate and stale reports are **de-duplicated** by assignment
//!   identity,
//! * crashed clients are permanently **evicted** — the session degrades
//!   to fewer processors instead of dying,
//! * a batch whose surviving estimates satisfy the **quorum** rule
//!   advances the optimizer via [`Optimizer::observe_partial`]
//!   (PRO/SRO/Nelder–Mead substitute the holes with performance-database
//!   interpolations); below quorum the session ends with a typed
//!   [`ServerError`].
//!
//! Fault *timing* is logical, not wall-clock: the client (standing in
//! for the transport/heartbeat layer) reports each delivery outcome
//! explicitly, so the server never blocks on a timer and the same
//! seeds + plan reproduce bit-identical sessions regardless of thread
//! scheduling.
//!
//! Under a fault-free plan the whole machinery reduces to the original
//! behaviour exactly.
//!
//! # Recovery
//!
//! A journalled session resumes by replaying its WAL through the same
//! three steps the live session takes — apply a dispatch round, commit a
//! batch, apply an exploit step — so a resumed session's outcome and
//! (for a WAL-only resume) telemetry are identical to the uninterrupted
//! run's by construction.

use crate::cache::CachedObjective;
use crate::optimizer::Optimizer;
use crate::sampling::Estimator;
use crate::tuner::{FaultStats, TuningOutcome};
use harmony_cluster::fault::{Delivery, FaultPlan};
use harmony_cluster::TuningTrace;
use harmony_params::{ParamSpace, Point};
use harmony_recovery::{
    BatchRecord, Checkpoint, ExploitKind, ExploitRecord, HeaderRecord, HealthTracker, RoundDelta,
    SessionJournal, StateReader, StateWriter, SupervisorConfig, TransitionKind, WalRecord,
    WAL_VERSION,
};
use harmony_surface::{Objective, SharedPerfDb};
use harmony_telemetry::{event, Field, Telemetry};
use harmony_variability::counting::CountingRng;
use harmony_variability::noise::NoiseModel;
use harmony_variability::{seeded_rng, stream_seed};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};

/// Default deadline (in objective-time units) after which a dispatched
/// assignment is declared missed — comfortably above typical
/// observations so the fault-free path never hits it.
pub const DEFAULT_DEADLINE: f64 = 25.0;

/// A typed server failure. The resilient server returns these instead
/// of panicking mid-session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// Every client crashed; no processor is left to run assignments.
    AllClientsDead {
        /// Time step at which the last client died.
        step: usize,
    },
    /// A batch finished below the quorum of surviving estimates.
    QuorumNotReached {
        /// Time step at which the batch gave up.
        step: usize,
        /// Estimates that survived.
        reported: usize,
        /// Estimates the quorum rule required.
        needed: usize,
    },
    /// The optimizer never produced an observable batch.
    NoObservations,
    /// The session journal could not be used to resume: corrupt records,
    /// a configuration mismatch with the WAL header, or state that no
    /// longer replays against the given optimizer.
    Recovery(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::InvalidConfig(why) => write!(f, "invalid server config: {why}"),
            ServerError::AllClientsDead { step } => {
                write!(f, "all clients dead by step {step}")
            }
            ServerError::QuorumNotReached {
                step,
                reported,
                needed,
            } => write!(
                f,
                "batch quorum not reached at step {step}: {reported} of {needed} required estimates"
            ),
            ServerError::NoObservations => {
                write!(f, "session ended before any batch was observed")
            }
            ServerError::Recovery(why) => write!(f, "session recovery failed: {why}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Configuration of a distributed tuning session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Number of client threads (simulated SPMD processes).
    pub procs: usize,
    /// Time-step budget `K`.
    pub max_steps: usize,
    /// Estimator reducing each point's samples.
    pub estimator: Estimator,
    /// Base RNG seed (each client gets a derived stream).
    pub seed: u64,
    /// Time charged to a step for each assignment whose report missed it
    /// (the server waits this long before reassigning).
    pub deadline: f64,
    /// How many times a missed slot is re-dispatched before being
    /// abandoned.
    pub max_retries: u32,
    /// Deadline escalation per retry attempt: attempt `a` charges
    /// `deadline · backoff^a` on a miss (must be ≥ 1).
    pub backoff: f64,
    /// Fraction of a batch's estimates that must survive for the batch
    /// to advance the optimizer (at least one is always required).
    pub quorum: f64,
}

impl ServerConfig {
    /// A validated configuration with default fault-handling policy:
    /// deadline [`DEFAULT_DEADLINE`], 2 retries, 1.5× backoff, 50%
    /// quorum.
    pub fn new(
        procs: usize,
        max_steps: usize,
        estimator: Estimator,
        seed: u64,
    ) -> Result<Self, ServerError> {
        ServerConfig {
            procs,
            max_steps,
            estimator,
            seed,
            deadline: DEFAULT_DEADLINE,
            max_retries: 2,
            backoff: 1.5,
            quorum: 0.5,
        }
        .validated()
    }

    /// Validates every field, returning the config unchanged when sound.
    pub fn validated(self) -> Result<Self, ServerError> {
        let fail = |why: String| Err(ServerError::InvalidConfig(why));
        if self.procs == 0 {
            return fail("server needs at least one client".into());
        }
        if self.max_steps == 0 {
            return fail("server needs a positive step budget".into());
        }
        if !(self.deadline.is_finite() && self.deadline > 0.0) {
            return fail(format!(
                "deadline must be finite and positive, got {}",
                self.deadline
            ));
        }
        if !(self.backoff.is_finite() && self.backoff >= 1.0) {
            return fail(format!("backoff must be ≥ 1, got {}", self.backoff));
        }
        if !(0.0..=1.0).contains(&self.quorum) {
            return fail(format!("quorum must be in [0, 1], got {}", self.quorum));
        }
        Ok(self)
    }
}

/// Identity of one dispatched evaluation: which batch, which
/// `(point, sample)` slot within it, and which retry attempt. The
/// server de-duplicates reports on this triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Assignment {
    batch: u64,
    slot: usize,
    attempt: u32,
}

/// Server→client message.
enum Task {
    /// Evaluate `point`; echo `assign` back in the report.
    Run { assign: Assignment, point: Point },
    /// Shut down the client loop.
    Stop,
}

/// Client→server event. In a real deployment `Lost`/`Died` would be
/// synthesised by the transport's timeout and heartbeat monitors; here
/// the client surfaces them explicitly so fault timing stays logical
/// (deterministic) instead of wall-clock.
enum Event {
    /// A measurement arrived. `late` means it arrived after the
    /// assignment's deadline had already expired (the server discards
    /// the value and treats the slot as missed). `duplicate` marks a
    /// report the fault plan delivered more than once; the server counts
    /// the duplication when it matches the first copy, so the counter
    /// does not depend on whether the extra copy is ever read.
    Report {
        assign: Assignment,
        observed: f64,
        late: bool,
        duplicate: bool,
        /// Reporting client, with its post-task progress meters: tasks
        /// processed and cumulative RNG words consumed. The server
        /// journals the meters so a resumed client can fast-forward to
        /// the exact stream position the killed run reached.
        client: usize,
        serial: usize,
        draws: u64,
    },
    /// The report was dropped in transit; the deadline expired with
    /// nothing to show. The client still ran the task, so its meters
    /// advanced.
    Lost {
        assign: Assignment,
        client: usize,
        serial: usize,
        draws: u64,
    },
    /// The client crashed while running the assignment.
    Died { client: usize, assign: Assignment },
}

/// Section tag of the session snapshot. Bumped from `session` when the
/// supervised section gained the supervisor report, so an older
/// snapshot is rejected instead of misread.
const SNAPSHOT_TAG: &str = "sess.v2";

/// Persistence policy of a checkpointed session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Take a full state snapshot every this many committed batches
    /// (`0` = never; the WAL alone still recovers, by replaying every
    /// record from the start). Snapshots bound replay work at the cost
    /// of snapshot bytes; WAL-only recovery additionally reproduces the
    /// *telemetry trace* byte-identically, because every record is
    /// re-emitted.
    pub snapshot_every: u64,
}

/// What the supervisor did during one session. WAL replay re-derives
/// the counters and a supervised session's snapshots carry them, so a
/// resumed supervised session reports identical numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Whether the session completed in degraded mode (at least one
    /// batch advanced below quorum, or breakers narrowed dispatch).
    pub degraded: bool,
    /// Batches the supervisor forced below quorum instead of failing
    /// with [`ServerError::QuorumNotReached`].
    pub forced_batches: usize,
    /// Circuit-breaker trips (client quarantined from dispatch).
    pub breaker_opens: usize,
    /// Circuit-breaker recoveries (probe succeeded, client readmitted).
    pub breaker_closes: usize,
    /// Narrowest dispatch width any round used (`usize::MAX` when no
    /// round ran).
    pub min_width: usize,
}

/// A [`TuningOutcome`] plus the supervisor's account of the session.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedOutcome {
    /// The tuning result.
    pub outcome: TuningOutcome,
    /// Supervisor counters; `degraded` tells whether the result came
    /// from a full-width run or a degraded one.
    pub supervisor: SupervisorReport,
}

/// The cross-session shared-database handles a session may attach (see
/// [`harmony_surface::SharedPerfDb`]). Both tiers are optional and
/// independent:
///
/// * `costs` — deterministic *true-cost* values. Clients and the
///   server's recommendation probes consult it before evaluating the
///   objective (cache-before-evaluate) and record fresh probes back.
///   Because the objective is deterministic, substitution is exact and
///   tuning outcomes are unchanged bit for bit.
/// * `estimates` — the *noisy* min-of-K batch estimates the optimizer
///   observed, published back so new sessions can warm-start from
///   neighbours' measurements ([`crate::warm`]). Estimates are never
///   substituted for evaluations — they only seed starting points.
///
/// Records stay pending (invisible to readers) until someone calls
/// [`SharedPerfDb::flush`]. Sessions deliberately do **not** flush:
/// multi-session drivers flush at wave barriers so every session in a
/// wave sees the same snapshot regardless of scheduling, which is what
/// keeps aggregate hit counts deterministic.
#[derive(Clone, Copy, Default)]
pub struct SharedSession<'a> {
    /// Shared deterministic true-cost tier.
    pub costs: Option<&'a SharedPerfDb>,
    /// Shared noisy-estimate tier (warm-start seeds).
    pub estimates: Option<&'a SharedPerfDb>,
}

impl<'a> SharedSession<'a> {
    /// No shared tiers: every evaluation probes the objective.
    pub fn none() -> Self {
        SharedSession::default()
    }

    /// Attaches both tiers.
    pub fn new(costs: &'a SharedPerfDb, estimates: &'a SharedPerfDb) -> Self {
        SharedSession {
            costs: Some(costs),
            estimates: Some(estimates),
        }
    }
}

/// Everything a session may attach besides its objective, noise,
/// optimizer and configuration. The default is the fault-free,
/// untraced, unjournalled, unsupervised, unshared session.
#[derive(Default)]
pub struct SessionOptions<'a> {
    /// Faults injected into the clients (see the module docs).
    pub plan: FaultPlan,
    /// Structured tracing: a `server.session` span with one event per
    /// fault-handling decision (miss, retry, abandonment, eviction,
    /// duplicate, partial batch), stamped with the logical clock and
    /// emitted in canonical order, so identical sessions produce
    /// byte-identical traces regardless of thread scheduling.
    pub telemetry: Telemetry,
    /// WAL/snapshot persistence. A non-empty journal **resumes** the
    /// session to an outcome byte-identical to the uninterrupted run's;
    /// a WAL-only resume also re-emits the replayed telemetry, a
    /// snapshot resume skips the pre-snapshot events.
    pub journal: Option<&'a mut SessionJournal>,
    /// Snapshot cadence of a journalled session.
    pub recovery: RecoveryConfig,
    /// Supervision: circuit breakers narrow dispatch around unhealthy
    /// clients, and a batch below quorum is salvaged, then forced
    /// through `observe_partial` as a *degraded* advance instead of
    /// failing. Every transition is a `recovery.*` event.
    pub supervisor: Option<SupervisorConfig>,
    /// Cross-session shared database tiers; the caller flushes them.
    pub shared: SharedSession<'a>,
}

/// Wraps an optimizer so every estimate it observes is also recorded
/// (pending) into the shared estimate tier, paired with the proposal
/// that produced it. Pure pass-through otherwise — checkpointing,
/// convergence, and recommendations all delegate.
struct PublishingOptimizer<'a> {
    inner: &'a mut dyn Optimizer,
    estimates: &'a SharedPerfDb,
    last: Vec<Point>,
}

impl Optimizer for PublishingOptimizer<'_> {
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }

    fn propose(&mut self) -> Vec<Point> {
        let batch = self.inner.propose();
        self.last = batch.clone();
        batch
    }

    fn observe(&mut self, values: &[f64]) {
        for (p, v) in self.last.iter().zip(values) {
            self.estimates.record(p, *v);
        }
        self.inner.observe(values);
    }

    fn observe_partial(&mut self, values: &[Option<f64>]) {
        for (p, v) in self.last.iter().zip(values) {
            if let Some(v) = v {
                self.estimates.record(p, *v);
            }
        }
        self.inner.observe_partial(values);
    }

    fn best(&self) -> Option<(Point, f64)> {
        self.inner.best()
    }

    fn recommendation(&self) -> Option<(Point, f64)> {
        self.inner.recommendation()
    }

    fn converged(&self) -> bool {
        self.inner.converged()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn as_checkpoint(&self) -> Option<&dyn Checkpoint> {
        self.inner.as_checkpoint()
    }

    fn as_checkpoint_mut(&mut self) -> Option<&mut dyn Checkpoint> {
        self.inner.as_checkpoint_mut()
    }
}

/// Runs one distributed tuning session: spawns `cfg.procs` client
/// threads, drives `optimizer` to convergence or budget exhaustion,
/// exploits the incumbent for the remaining steps, and joins all
/// clients on every exit path, including errors. `opts` attaches faults,
/// telemetry, a journal, a supervisor and shared tiers (see
/// [`SessionOptions`]).
///
/// # Errors
/// A typed [`ServerError`] when the configuration is invalid, the fleet
/// dies, a batch misses its quorum, the optimizer never proposes, or
/// the journal cannot be resumed.
pub fn run_session<O, M>(
    objective: &O,
    noise: &M,
    optimizer: &mut dyn Optimizer,
    cfg: ServerConfig,
    opts: SessionOptions<'_>,
) -> Result<SupervisedOutcome, ServerError>
where
    O: Objective + Sync + ?Sized,
    M: NoiseModel + Sync + ?Sized,
{
    let SessionOptions {
        plan,
        telemetry,
        mut journal,
        recovery,
        supervisor,
        shared,
    } = opts;
    let mut publishing;
    let optimizer: &mut dyn Optimizer = match shared.estimates {
        Some(estimates) => {
            publishing = PublishingOptimizer {
                inner: optimizer,
                estimates,
                last: Vec::new(),
            };
            &mut publishing
        }
        None => optimizer,
    };
    let cfg = cfg.validated()?;
    let k = cfg.estimator.samples();
    let resume = match journal.as_deref() {
        Some(j) => scan_journal(j, &cfg, k, supervisor.is_some())?,
        None => ResumePlan::fresh(cfg.procs),
    };
    if resume.fresh {
        if let Some(j) = journal.as_deref_mut() {
            let header = WalRecord::Header(HeaderRecord {
                version: WAL_VERSION,
                procs: cfg.procs,
                max_steps: cfg.max_steps,
                k,
                seed: cfg.seed,
                deadline: cfg.deadline,
                max_retries: cfg.max_retries,
                backoff: cfg.backoff,
                quorum: cfg.quorum,
                supervised: supervisor.is_some(),
            });
            journal_append(j, header)?;
        }
    }
    let plan = &plan;
    std::thread::scope(|scope| {
        let (event_tx, event_rx) = channel::<Event>();
        let clients: Vec<Sender<Task>> = (0..cfg.procs)
            .map(|c| {
                let (task_tx, task_rx) = channel::<Task>();
                let event_tx = event_tx.clone();
                let start = (resume.serials[c], resume.draws[c]);
                scope.spawn(move || {
                    client_loop(
                        c,
                        task_rx,
                        event_tx,
                        objective,
                        noise,
                        cfg.seed,
                        plan,
                        start,
                        shared.costs,
                    )
                });
                task_tx
            })
            .collect();
        drop(event_tx);

        let session = Session {
            cfg,
            k,
            tel: &telemetry,
            clients: &clients,
            events: &event_rx,
            journal,
            snapshot_every: recovery.snapshot_every,
            supervisor,
            shared_costs: shared.costs,
            // objectives are deterministic (noise is applied
            // per-client), so memoizing the recommendation probes is
            // exact — the quality curve and best_true_cost revisit the
            // same points heavily. When a shared cost tier is attached
            // it sits between the memo and the probe.
            objective: match shared.costs {
                Some(db) => CachedObjective::with_shared(objective, db),
                None => CachedObjective::new(objective),
            },
            trace: TuningTrace::new(),
            evaluations: 0,
            quality_curve: Vec::new(),
            fleet: Fleet {
                live: (0..cfg.procs).collect(),
                stats: FaultStats::default(),
                serials: resume.serials.clone(),
                draws: resume.draws.clone(),
            },
            batch_id: 0,
            health: supervisor.map(|sc| HealthTracker::new(cfg.procs, sc)),
            report: SupervisorReport {
                min_width: usize::MAX,
                ..SupervisorReport::default()
            },
        };
        let outcome = session.run(optimizer, &resume);
        // tolerant shutdown: crashed clients have already dropped their
        // receivers, so sends may fail — that is fine, the thread is
        // gone. The scope joins every client on both Ok and Err paths.
        for tx in &clients {
            let _ = tx.send(Task::Stop);
        }
        outcome
    })
}

/// [`run_session`] with its options as positional arguments. Kept
/// because the benchmark harness in `perfbench/` calls it by name.
#[allow(clippy::too_many_arguments)]
pub fn run_session_traced<O, M>(
    objective: &O,
    noise: &M,
    optimizer: &mut dyn Optimizer,
    cfg: ServerConfig,
    plan: &FaultPlan,
    tel: &Telemetry,
    journal: Option<&mut SessionJournal>,
    recovery: RecoveryConfig,
    supervisor: Option<SupervisorConfig>,
) -> Result<SupervisedOutcome, ServerError>
where
    O: Objective + Sync + ?Sized,
    M: NoiseModel + Sync + ?Sized,
{
    let opts = SessionOptions {
        plan: *plan,
        telemetry: tel.clone(),
        journal,
        recovery,
        supervisor,
        shared: SharedSession::none(),
    };
    run_session(objective, noise, optimizer, cfg, opts)
}

/// [`run_session`] with a fault plan and shared tiers only, returning
/// the bare [`TuningOutcome`]. Kept because the benchmark harness in
/// `perfbench/` calls it by name.
pub fn run_resilient_shared<O, M>(
    objective: &O,
    noise: &M,
    optimizer: &mut dyn Optimizer,
    cfg: ServerConfig,
    plan: &FaultPlan,
    shared: SharedSession<'_>,
) -> Result<TuningOutcome, ServerError>
where
    O: Objective + Sync + ?Sized,
    M: NoiseModel + Sync + ?Sized,
{
    let opts = SessionOptions {
        plan: *plan,
        shared,
        ..SessionOptions::default()
    };
    run_session(objective, noise, optimizer, cfg, opts).map(|s| s.outcome)
}

/// One simulated SPMD process: fetch task, run (evaluate objective under
/// local noise), report — with the [`FaultPlan`] deciding whether this
/// client crashes and how each report is delivered.
#[allow(clippy::too_many_arguments)]
fn client_loop<O, M>(
    id: usize,
    tasks: Receiver<Task>,
    events: Sender<Event>,
    objective: &O,
    noise: &M,
    seed: u64,
    plan: &FaultPlan,
    start: (usize, u64),
    shared_costs: Option<&SharedPerfDb>,
) where
    O: Objective + ?Sized,
    M: NoiseModel + ?Sized,
{
    // a resumed client reseeds the same stream and fast-forwards to the
    // meter position the journal recorded, so the noise sequence
    // continues exactly where the killed run left it
    let mut rng = CountingRng::new(seeded_rng(stream_seed(seed, id as u64 + 1)));
    let (start_serial, start_draws) = start;
    rng.fast_forward(start_draws);
    let crash_at = plan.crash_point(id);
    let mut serial = start_serial;
    while let Ok(task) = tasks.recv() {
        match task {
            Task::Run { assign, point } => {
                if crash_at == Some(serial) {
                    // permanent death: surface it (heartbeat monitor)
                    // and never process another task
                    let _ = events.send(Event::Died { client: id, assign });
                    return;
                }
                // cache-before-evaluate: a flushed cross-session entry
                // is the exact deterministic cost, so substituting it
                // skips the probe without changing any outcome
                let cost = match shared_costs {
                    Some(db) => db.query(&point).unwrap_or_else(|| {
                        let c = objective.eval(&point);
                        db.record(&point, c);
                        c
                    }),
                    None => objective.eval(&point),
                };
                let observed = noise.observe(cost, &mut rng);
                serial += 1;
                let draws = rng.draws();
                let report = |late, duplicate| Event::Report {
                    assign,
                    observed,
                    late,
                    duplicate,
                    client: id,
                    serial,
                    draws,
                };
                let sent = match plan.delivery(id, serial - 1) {
                    Delivery::OnTime => events.send(report(false, false)).is_ok(),
                    Delivery::Duplicated => {
                        let _ = events.send(report(false, true));
                        events.send(report(false, true)).is_ok()
                    }
                    Delivery::Late => events.send(report(true, false)).is_ok(),
                    Delivery::Lost => events
                        .send(Event::Lost {
                            assign,
                            client: id,
                            serial,
                            draws,
                        })
                        .is_ok(),
                };
                if !sent {
                    break; // server gone
                }
            }
            Task::Stop => break,
        }
    }
}

/// What a journal scan found: the snapshot to restore (if any), the WAL
/// tail to replay on top of it, and the per-client stream positions
/// (task serials and RNG words) to respawn clients at.
struct ResumePlan {
    fresh: bool,
    snapshot: Option<Vec<u8>>,
    replay: Vec<WalRecord>,
    serials: Vec<usize>,
    draws: Vec<u64>,
}

impl ResumePlan {
    fn fresh(procs: usize) -> Self {
        ResumePlan {
            fresh: true,
            snapshot: None,
            replay: Vec::new(),
            serials: vec![0; procs],
            draws: vec![0; procs],
        }
    }
}

fn recovery_err(why: impl Into<String>) -> ServerError {
    ServerError::Recovery(why.into())
}

fn journal_io(e: std::io::Error) -> ServerError {
    recovery_err(format!("journal I/O: {e}"))
}

fn journal_append(journal: &mut SessionJournal, record: WalRecord) -> Result<(), ServerError> {
    journal.append_record(record).map_err(journal_io)
}

/// Rejects client indices read back from a journal that do not name one
/// of the session's `procs` clients — or, for a live set, that are not
/// strictly ascending — before they can index a client table.
fn check_clients(
    what: &str,
    clients: &[usize],
    procs: usize,
    live_set: bool,
) -> Result<(), String> {
    let in_range = clients.iter().all(|&c| c < procs);
    let ascending = !live_set || clients.windows(2).all(|w| w[0] < w[1]);
    if in_range && ascending {
        Ok(())
    } else {
        Err(format!(
            "{what} {clients:?} is not a valid client set for {procs} clients"
        ))
    }
}

/// Rejects a journalled step time the trace would refuse.
fn check_step(step: f64) -> Result<(), String> {
    if step.is_finite() && step >= 0.0 {
        Ok(())
    } else {
        Err(format!("step time {step}"))
    }
}

/// Checks every client index and step time of one WAL record.
fn check_record(rec: &WalRecord, procs: usize) -> Result<(), String> {
    match rec {
        WalRecord::Batch(b) => {
            check_clients("batch live set", &b.live, procs, true)?;
            for round in &b.rounds {
                check_step(round.step)?;
                check_clients("round clients", &round.clients, procs, false)?;
                check_clients("round evictions", &round.evicted, procs, false)?;
            }
            Ok(())
        }
        WalRecord::Exploit(e) => {
            check_step(e.step)?;
            check_clients("exploit live set", &e.live, procs, true)?;
            check_clients("exploit evictions", &e.pre_evicted, procs, false)?;
            match e.kind {
                ExploitKind::Died(c) => check_clients("exploit death", &[c], procs, false),
                _ => Ok(()),
            }
        }
        WalRecord::Header(_) => Err("unexpected second header".into()),
    }
}

/// Validates the journal against the session parameters and extracts the
/// resume plan. Floats are compared bitwise — the WAL header echoes them
/// as bits, so any drift in configuration fails loudly instead of
/// replaying against different semantics. A torn final line (a kill
/// mid-append) is dropped; corruption anywhere earlier is an error.
fn scan_journal(
    journal: &SessionJournal,
    cfg: &ServerConfig,
    k: usize,
    supervised: bool,
) -> Result<ResumePlan, ServerError> {
    let lines = journal.wal_lines().map_err(journal_io)?;
    if lines.is_empty() {
        return Ok(ResumePlan::fresh(cfg.procs));
    }
    let WalRecord::Header(header) = WalRecord::from_line(&lines[0])
        .map_err(|e| recovery_err(format!("bad WAL header: {e}")))?
    else {
        return Err(recovery_err("first WAL line is not a header"));
    };
    if header.version != WAL_VERSION {
        return Err(recovery_err(format!(
            "WAL version {} (expected {WAL_VERSION})",
            header.version
        )));
    }
    let matches = header.procs == cfg.procs
        && header.max_steps == cfg.max_steps
        && header.k == k
        && header.seed == cfg.seed
        && header.deadline.to_bits() == cfg.deadline.to_bits()
        && header.max_retries == cfg.max_retries
        && header.backoff.to_bits() == cfg.backoff.to_bits()
        && header.quorum.to_bits() == cfg.quorum.to_bits()
        && header.supervised == supervised;
    if !matches {
        return Err(recovery_err(
            "WAL header does not match this session's configuration",
        ));
    }
    let mut records: Vec<WalRecord> = Vec::with_capacity(lines.len() - 1);
    let last = lines.len() - 1;
    for (i, line) in lines.iter().enumerate().skip(1) {
        match WalRecord::from_line(line) {
            Ok(rec) => {
                check_record(&rec, cfg.procs)
                    .map_err(|why| recovery_err(format!("WAL line {i}: {why}")))?;
                records.push(rec);
            }
            // a torn tail is the expected shape of a kill mid-append:
            // the previous commit point is the resume point
            Err(_) if i == last => break,
            Err(e) => return Err(recovery_err(format!("corrupt WAL line {i}: {e}"))),
        }
    }
    let record_batch = |r: &WalRecord| match r {
        WalRecord::Batch(b) => b.batch,
        WalRecord::Exploit(e) => e.batch,
        WalRecord::Header(_) => unreachable!("headers rejected above"),
    };
    let (serials, draws) = match records.last() {
        None => (vec![0; cfg.procs], vec![0; cfg.procs]),
        Some(rec) => {
            let (serials, draws) = match rec {
                WalRecord::Batch(b) => (&b.serials, &b.draws),
                WalRecord::Exploit(e) => (&e.serials, &e.draws),
                WalRecord::Header(_) => unreachable!("headers rejected above"),
            };
            if serials.len() != cfg.procs || draws.len() != cfg.procs {
                return Err(recovery_err("journal meters do not cover every client"));
            }
            (serials.clone(), draws.clone())
        }
    };
    let snapshot = match journal.latest_snapshot().map_err(journal_io)? {
        None => None,
        Some((snap_batch, bytes)) => {
            let max_batch = records.iter().map(record_batch).max().unwrap_or(0);
            if snap_batch > max_batch {
                return Err(recovery_err(format!(
                    "snapshot at batch {snap_batch} is ahead of the WAL (last record {max_batch})"
                )));
            }
            records.retain(|r| record_batch(r) > snap_batch);
            Some(bytes)
        }
    };
    Ok(ResumePlan {
        fresh: false,
        snapshot,
        replay: records,
        serials,
        draws,
    })
}

/// Cumulative fault counters in the WAL's canonical order.
fn stats_to_array(s: &FaultStats) -> [usize; 6] {
    [
        s.missed_reports,
        s.retries,
        s.abandoned_slots,
        s.duplicate_reports,
        s.evicted_clients,
        s.partial_batches,
    ]
}

fn stats_from_array(a: [usize; 6]) -> FaultStats {
    FaultStats {
        missed_reports: a[0],
        retries: a[1],
        abandoned_slots: a[2],
        duplicate_reports: a[3],
        evicted_clients: a[4],
        partial_batches: a[5],
    }
}

/// Running state of the server's fault handling.
struct Fleet {
    /// Indices of clients still alive, ascending.
    live: Vec<usize>,
    stats: FaultStats,
    /// Per-client progress meters (task serials and RNG words), updated
    /// from every received event and journaled at each commit point so
    /// a resumed session respawns clients at the exact stream positions
    /// the killed run reached.
    serials: Vec<usize>,
    draws: Vec<u64>,
}

impl Fleet {
    fn evict(&mut self, client: usize) {
        if let Some(pos) = self.live.iter().position(|&c| c == client) {
            self.live.remove(pos);
            self.stats.evicted_clients += 1;
        }
    }

    /// Folds one received event's progress meters into the fleet.
    /// Events from one client arrive in send order (per-sender FIFO),
    /// so plain assignment is monotonic.
    fn note(&mut self, event: &Event) {
        match *event {
            Event::Report {
                client,
                serial,
                draws,
                ..
            }
            | Event::Lost {
                client,
                serial,
                draws,
                ..
            } => {
                self.serials[client] = serial;
                self.draws[client] = draws;
            }
            Event::Died { .. } => {}
        }
    }
}

/// Emits the terminal `server.*` failure event, closes the session span
/// (auto-closing anything still nested in it), and passes the error
/// through.
fn session_fail(tel: &Telemetry, session: Option<u64>, err: ServerError) -> ServerError {
    if tel.enabled() {
        let name = match &err {
            ServerError::AllClientsDead { .. } => "server.all_dead",
            ServerError::QuorumNotReached { .. } => "server.quorum_fail",
            ServerError::NoObservations => "server.no_observations",
            ServerError::InvalidConfig(_) => "server.invalid_config",
            ServerError::Recovery(_) => "server.recovery_fail",
        };
        tel.event(name, vec![Field::new("error", err.to_string())]);
        if let Some(id) = session {
            tel.span_close(id);
        }
    }
    err
}

/// Emits supervisor breaker transitions in the deterministic order the
/// health tracker produced them, folding trip/recovery counts into the
/// report.
fn emit_transitions(
    tel: &Telemetry,
    transitions: impl IntoIterator<Item = harmony_recovery::Transition>,
    report: &mut SupervisorReport,
) {
    for t in transitions {
        match t.kind {
            TransitionKind::Open => {
                report.breaker_opens += 1;
                event!(tel, "recovery.breaker_open", client = t.client);
            }
            TransitionKind::HalfOpen => {
                event!(tel, "recovery.breaker_probe", client = t.client);
            }
            TransitionKind::Close => {
                report.breaker_closes += 1;
                event!(tel, "recovery.breaker_close", client = t.client);
            }
        }
    }
}

/// The number of surviving estimates a batch of `n` points needs to
/// advance the optimizer: `max(1, ceil(quorum·n))`.
fn quorum_needed(n: usize, quorum: f64) -> usize {
    ((quorum * n as f64).ceil() as usize).max(1)
}

/// Reduces each point's collected samples to its estimate (`None` when
/// every sample of the point was lost).
fn reduce_samples(estimator: Estimator, samples: &[Vec<f64>]) -> Vec<Option<f64>> {
    samples
        .iter()
        .map(|s| (!s.is_empty()).then(|| estimator.reduce_available(s)))
        .collect()
}

/// One dispatch round's effect on the session — a borrowed
/// [`RoundDelta`], taken from the live dispatch or from the WAL, so the
/// live path and replay apply it through the same code.
struct Round<'r> {
    /// Barrier time of the round.
    step: f64,
    /// Clients dispatched to, one per round position.
    clients: &'r [usize],
    /// Per-position: `true` when the slot resolved with an observation.
    ok: &'r [bool],
    /// Clients evicted during the round, ascending.
    evicted: &'r [usize],
    missed: usize,
    retries: usize,
    abandoned: usize,
    duplicates: usize,
}

impl<'r> From<&'r RoundDelta> for Round<'r> {
    fn from(d: &'r RoundDelta) -> Self {
        Round {
            step: d.step,
            clients: &d.clients,
            ok: &d.ok,
            evicted: &d.evicted,
            missed: d.missed,
            retries: d.retries,
            abandoned: d.abandoned,
            duplicates: d.duplicates,
        }
    }
}

impl Round<'_> {
    fn to_delta(&self) -> RoundDelta {
        RoundDelta {
            step: self.step,
            clients: self.clients.to_vec(),
            ok: self.ok.to_vec(),
            evicted: self.evicted.to_vec(),
            missed: self.missed,
            retries: self.retries,
            abandoned: self.abandoned,
            duplicates: self.duplicates,
        }
    }
}

/// How a dispatch treats a missed assignment.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Retry {
    /// Tuning rounds: requeue the slot with the next attempt number
    /// until `max_retries`, then abandon it; an empty fleet is
    /// [`ServerError::AllClientsDead`].
    Requeue,
    /// Supervisor salvage: every dispatch counts as a retry and a miss
    /// is final; an empty fleet ends the salvage quietly.
    Salvage,
}

/// The server side of one session: the optimizer loop over the client
/// channels plus, per [`SessionOptions`], WAL/snapshot persistence with
/// mid-run resume and supervised degraded-mode operation.
struct Session<'a, O: Objective + ?Sized> {
    cfg: ServerConfig,
    k: usize,
    tel: &'a Telemetry,
    clients: &'a [Sender<Task>],
    events: &'a Receiver<Event>,
    journal: Option<&'a mut SessionJournal>,
    snapshot_every: u64,
    supervisor: Option<SupervisorConfig>,
    shared_costs: Option<&'a SharedPerfDb>,
    objective: CachedObjective<'a, O>,
    trace: TuningTrace,
    evaluations: usize,
    quality_curve: Vec<(usize, f64)>,
    fleet: Fleet,
    batch_id: u64,
    health: Option<HealthTracker>,
    report: SupervisorReport,
}

impl<O: Objective + ?Sized> Session<'_, O> {
    /// Runs the session inside its `server.session` span; every error
    /// closes the span behind a terminal event.
    fn run(
        mut self,
        optimizer: &mut dyn Optimizer,
        resume: &ResumePlan,
    ) -> Result<SupervisedOutcome, ServerError> {
        let tel = self.tel;
        let span = tel.enabled().then(|| {
            tel.set_clock(0);
            tel.span_open(
                "server.session",
                vec![
                    Field::new("procs", self.cfg.procs),
                    Field::new("max_steps", self.cfg.max_steps),
                    Field::new("k", self.k),
                    Field::new("seed", self.cfg.seed),
                ],
            )
        });
        let (best_point, best_estimate, best_true_cost) = self
            .drive(optimizer, resume)
            .map_err(|e| session_fail(tel, span, e))?;
        if let Some(id) = span {
            tel.set_clock(self.trace.len() as u64);
            event!(
                tel,
                "server.done",
                batches = self.batch_id,
                evaluations = self.evaluations,
                best = best_true_cost,
                evicted = self.fleet.stats.evicted_clients,
                converged = optimizer.converged()
            );
            self.objective.emit_telemetry(tel);
            self.trace.emit_telemetry(tel, None);
            // Shared-tier flush contention is scheduling-dependent, so it
            // is excluded from SharedPerfDb::stats and only surfaced here
            // when the caller explicitly opted into the wall channel.
            if tel.wall_enabled() {
                if let Some(db) = self.shared_costs {
                    tel.counter("shareddb.contended", db.stats_contended());
                }
            }
            tel.span_close(id);
        }
        self.report.degraded = self.report.forced_batches > 0 || self.report.breaker_opens > 0;
        Ok(SupervisedOutcome {
            outcome: TuningOutcome {
                trace: self.trace,
                steps_budget: self.cfg.max_steps,
                best_point,
                best_estimate,
                best_true_cost,
                converged: optimizer.converged(),
                evaluations: self.evaluations,
                quality_curve: self.quality_curve,
                faults: self.fleet.stats,
            },
            supervisor: self.report,
        })
    }

    /// Resume (snapshot, then WAL tail), tune, exploit. Returns the
    /// deployed point, its estimate and its true cost.
    fn drive(
        &mut self,
        optimizer: &mut dyn Optimizer,
        resume: &ResumePlan,
    ) -> Result<(Point, f64, f64), ServerError> {
        if let Some(bytes) = &resume.snapshot {
            self.restore_snapshot(bytes, optimizer)?;
        }
        for rec in &resume.replay {
            match rec {
                WalRecord::Batch(b) => {
                    self.tel.set_clock(self.trace.len() as u64);
                    let proposed = optimizer.propose().len();
                    if proposed != b.estimates.len() {
                        return Err(recovery_err(format!(
                            "replayed batch {} proposes {proposed} points, WAL has {}",
                            b.batch,
                            b.estimates.len()
                        )));
                    }
                    self.batch_id = b.batch;
                    for round in &b.rounds {
                        self.open_round();
                        self.apply_round(&Round::from(round));
                    }
                    self.evaluations = b.evaluations;
                    self.fleet.live.clone_from(&b.live);
                    self.fleet.stats = stats_from_array(b.stats);
                    self.commit_batch(optimizer, &b.estimates, b.forced);
                }
                WalRecord::Exploit(e) => {
                    self.batch_id = e.batch;
                    self.apply_exploit(e.step, &e.pre_evicted, e.duplicate, e.kind);
                    self.fleet.live.clone_from(&e.live);
                    self.fleet.stats = stats_from_array(e.stats);
                }
                WalRecord::Header(_) => unreachable!("scan_journal rejects stray headers"),
            }
        }
        while self.trace.len() < self.cfg.max_steps && !optimizer.converged() {
            self.tel.set_clock(self.trace.len() as u64);
            let batch = optimizer.propose();
            if batch.is_empty() {
                break;
            }
            self.run_batch(optimizer, &batch)?;
        }
        let Some((best_point, best_estimate)) = optimizer.recommendation() else {
            return Err(ServerError::NoObservations);
        };
        let best_true_cost = self.objective.eval(&best_point);
        self.exploit(&best_point)?;
        Ok((best_point, best_estimate, best_true_cost))
    }

    /// Dispatches one optimizer batch until every `(point, sample)` slot
    /// resolved, salvages it under supervision when it falls below
    /// quorum, journals it, and commits it.
    fn run_batch(
        &mut self,
        optimizer: &mut dyn Optimizer,
        batch: &[Point],
    ) -> Result<(), ServerError> {
        self.batch_id += 1;
        let k = self.k;
        let mut rounds: Vec<RoundDelta> = Vec::new();
        let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(k); batch.len()];
        // flat (point, sample) slots, packed densely over live clients
        let slots = (0..batch.len() * k).map(|s| (s, 0)).collect();
        self.dispatch(batch, slots, Retry::Requeue, &mut samples, &mut rounds)?;
        let mut estimates = reduce_samples(self.cfg.estimator, &samples);
        let reported = |e: &[Option<f64>]| e.iter().flatten().count();
        let needed = quorum_needed(batch.len(), self.cfg.quorum);
        if let Some(sup) = self.supervisor {
            // salvage: re-dispatch each missing point's first sample
            // slot with attempt numbers past the retry budget, so the
            // deadline charge keeps escalating; re-reduce after every
            // salvage round before deciding whether to try again
            let mut salvage = 0u32;
            while reported(&estimates) < needed
                && salvage < sup.salvage_retries
                && !self.fleet.live.is_empty()
            {
                let attempt = self.cfg.max_retries + 1 + salvage;
                let missing = estimates
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.is_none())
                    .map(|(i, _)| (i * k, attempt))
                    .collect();
                self.dispatch(batch, missing, Retry::Salvage, &mut samples, &mut rounds)?;
                estimates = reduce_samples(self.cfg.estimator, &samples);
                salvage += 1;
            }
        }
        let reported = reported(&estimates);
        let forced = reported < needed && reported > 0 && self.supervisor.is_some();
        if reported < needed && !forced {
            return Err(ServerError::QuorumNotReached {
                step: self.trace.len(),
                reported,
                needed,
            });
        }
        let partial = !forced && reported < batch.len();
        if partial {
            self.fleet.stats.partial_batches += 1;
        }
        // write-ahead commit point: the record lands *before* the
        // optimizer advances, so a kill on either side of `observe`
        // replays to the same state
        if let Some(j) = self.journal.as_deref_mut() {
            let record = BatchRecord {
                batch: self.batch_id,
                estimates: estimates.clone(),
                rounds,
                partial,
                forced,
                evaluations: self.evaluations,
                live: self.fleet.live.clone(),
                serials: self.fleet.serials.clone(),
                draws: self.fleet.draws.clone(),
                stats: stats_to_array(&self.fleet.stats),
            };
            journal_append(j, WalRecord::Batch(record))?;
        }
        self.commit_batch(optimizer, &estimates, forced);
        let due = self.snapshot_every > 0 && self.batch_id.is_multiple_of(self.snapshot_every);
        if let (true, Some(ckpt)) = (due && self.journal.is_some(), optimizer.as_checkpoint()) {
            let bytes = self.save_snapshot(ckpt);
            if let Some(j) = self.journal.as_deref_mut() {
                j.put_snapshot(self.batch_id, &bytes).map_err(journal_io)?;
            }
        }
        Ok(())
    }

    /// Dispatches `pending` slots in rounds over the live clients,
    /// folding observations into `samples` and, when journalling, each
    /// round's delta into `rounds`. `retry` decides what a miss does.
    fn dispatch(
        &mut self,
        batch: &[Point],
        mut pending: VecDeque<(usize, u32)>,
        retry: Retry,
        samples: &mut [Vec<f64>],
        rounds: &mut Vec<RoundDelta>,
    ) -> Result<(), ServerError> {
        while !pending.is_empty() {
            if self.fleet.live.is_empty() {
                return match retry {
                    Retry::Requeue => Err(ServerError::AllClientsDead {
                        step: self.trace.len(),
                    }),
                    Retry::Salvage => Ok(()),
                };
            }
            let order = self.open_round();
            let take = order.len().min(pending.len());
            let round: Vec<(usize, u32)> = pending.drain(..take).collect();
            let live_before = self.fleet.live.clone();
            let before = self.fleet.stats;
            if retry == Retry::Salvage {
                self.fleet.stats.retries += round.len();
            }
            let (observed, step) = self.run_round(&round, &order, batch)?;
            let stats = &mut self.fleet.stats;
            for (&(slot, attempt), obs) in round.iter().zip(&observed) {
                match obs {
                    Some(v) => samples[slot / self.k].push(*v),
                    None => {
                        stats.missed_reports += 1;
                        if retry == Retry::Requeue {
                            if attempt < self.cfg.max_retries {
                                stats.retries += 1;
                                pending.push_back((slot, attempt + 1));
                            } else {
                                stats.abandoned_slots += 1;
                            }
                        }
                    }
                }
            }
            let ok: Vec<bool> = observed.iter().map(Option::is_some).collect();
            let evicted: Vec<usize> = live_before
                .into_iter()
                .filter(|c| !self.fleet.live.contains(c))
                .collect();
            let after = self.fleet.stats;
            let delta = Round {
                step,
                clients: &order[..round.len()],
                ok: &ok,
                evicted: &evicted,
                missed: after.missed_reports - before.missed_reports,
                retries: after.retries - before.retries,
                abandoned: after.abandoned_slots - before.abandoned_slots,
                duplicates: after.duplicate_reports - before.duplicate_reports,
            };
            self.apply_round(&delta);
            if self.journal.is_some() {
                rounds.push(delta.to_delta());
            }
        }
        Ok(())
    }

    /// Sends one round of assignments (one per client in `order`) and
    /// collects until every one of them resolves. Returns the
    /// per-assignment observations in round order (`None` = missed) and
    /// the round's barrier time: the worst on-time observation, with
    /// misses charging the backoff-escalated deadline.
    fn run_round(
        &mut self,
        round: &[(usize, u32)],
        order: &[usize],
        batch: &[Point],
    ) -> Result<(Vec<Option<f64>>, f64), ServerError> {
        let cfg = self.cfg;
        let charge = |attempt: u32| cfg.deadline * cfg.backoff.powi(attempt as i32);
        let mut outstanding: HashMap<Assignment, usize> = HashMap::with_capacity(round.len());
        let mut observed: Vec<Option<f64>> = vec![None; round.len()];
        let mut t_k = f64::NEG_INFINITY;
        for (pos, (&client, &(slot, attempt))) in order.iter().zip(round).enumerate() {
            let assign = Assignment {
                batch: self.batch_id,
                slot,
                attempt,
            };
            let point = batch[slot / self.k].clone();
            if self.clients[client]
                .send(Task::Run { assign, point })
                .is_err()
            {
                // client thread already gone (defensive: normally Died
                // is seen first) — immediate miss, evict
                self.fleet.evict(client);
                t_k = t_k.max(charge(attempt));
                continue;
            }
            outstanding.insert(assign, pos);
        }
        while !outstanding.is_empty() {
            let event = self
                .events
                .recv()
                .map_err(|_| ServerError::AllClientsDead {
                    step: self.trace.len(),
                })?;
            self.fleet.note(&event);
            let (assign, obs, duplicate) = match event {
                Event::Report {
                    assign,
                    observed,
                    late: false,
                    duplicate,
                    ..
                } => (assign, Some(observed), duplicate),
                Event::Report { assign, .. } | Event::Lost { assign, .. } => (assign, None, false),
                Event::Died { client, assign } => {
                    self.fleet.evict(client);
                    if outstanding.remove(&assign).is_some() {
                        t_k = t_k.max(charge(assign.attempt));
                    }
                    continue;
                }
            };
            // a non-outstanding assignment is a stale or extra copy of an
            // already-resolved one: de-duplicated by the (batch, slot,
            // attempt) key and discarded silently
            if let Some(pos) = outstanding.remove(&assign) {
                self.evaluations += 1;
                if duplicate {
                    // counted on the matched copy: the extra copy may or
                    // may not ever be read (it can still be in flight at
                    // shutdown), so counting discarded copies would make
                    // the statistic scheduling-dependent
                    self.fleet.stats.duplicate_reports += 1;
                }
                t_k = t_k.max(obs.unwrap_or_else(|| charge(assign.attempt)));
                observed[pos] = obs;
            }
        }
        Ok((observed, t_k))
    }

    /// Opens a dispatch round and returns its dispatch order. An
    /// unsupervised session dispatches to every live client in index
    /// order; a supervised one first advances the breaker clock
    /// (emitting any expiry transitions), then orders closed breakers
    /// first and half-open probes last.
    fn open_round(&mut self) -> Vec<usize> {
        let Some(h) = self.health.as_mut() else {
            return self.fleet.live.clone();
        };
        self.tel.set_clock(self.trace.len() as u64);
        emit_transitions(self.tel, h.begin_round(), &mut self.report);
        h.dispatch_order(&self.fleet.live)
    }

    /// Applies one finished dispatch round: pushes its barrier time,
    /// emits its fault handling in canonical order (evictions ascending,
    /// then the miss/retry/abandon/duplicate deltas), records breaker
    /// outcomes, and tracks the narrowest width. Client events arrive in
    /// scheduling-dependent order, so deriving the emission from the
    /// round's post-state is what keeps traces byte-identical.
    fn apply_round(&mut self, round: &Round<'_>) {
        let tel = self.tel;
        self.trace.push(round.step);
        tel.set_clock(self.trace.len() as u64);
        for &client in round.evicted {
            event!(tel, "server.evict", client = client);
        }
        if round.missed > 0 {
            event!(tel, "server.miss", count = round.missed);
        }
        if round.retries > 0 {
            event!(tel, "server.retry", count = round.retries);
        }
        if round.abandoned > 0 {
            event!(tel, "server.abandon", count = round.abandoned);
        }
        if round.duplicates > 0 {
            tel.counter("server.duplicate_reports", round.duplicates as u64);
        }
        if let Some(h) = self.health.as_mut() {
            let outcomes = round.clients.iter().zip(round.ok);
            let transitions = outcomes.filter_map(|(&c, &ok)| h.record(c, ok));
            emit_transitions(tel, transitions, &mut self.report);
        }
        // per-round batch latency for the metrics layer
        if tel.enabled() {
            tel.sample("server.step_time", round.step);
        }
        self.report.min_width = self.report.min_width.min(round.clients.len());
    }

    /// Advances the optimizer with a batch's estimates — complete,
    /// partial, or forced below quorum by the supervisor — and records
    /// the batch's telemetry and quality point.
    fn commit_batch(
        &mut self,
        optimizer: &mut dyn Optimizer,
        estimates: &[Option<f64>],
        forced: bool,
    ) {
        let tel = self.tel;
        let total = estimates.len();
        let reported = estimates.iter().flatten().count();
        // per-batch estimate dispersion (observed Total_Time spread) for
        // the metrics layer, in canonical slot order
        if tel.enabled() {
            for v in estimates.iter().flatten() {
                tel.sample("server.estimate", *v);
            }
        }
        if forced {
            self.report.forced_batches += 1;
            event!(
                tel,
                "recovery.forced_partial",
                reported = reported,
                total = total
            );
            optimizer.observe_partial(estimates);
        } else if reported == total {
            let complete: Vec<f64> = estimates.iter().flatten().copied().collect();
            optimizer.observe(&complete);
        } else {
            event!(
                tel,
                "server.partial_batch",
                reported = reported,
                total = total
            );
            optimizer.observe_partial(estimates);
        }
        event!(
            tel,
            "server.batch",
            batch = self.batch_id,
            points = total,
            steps = self.trace.len(),
            live = self.fleet.live.len()
        );
        if let Some((rec, _)) = optimizer.recommendation() {
            self.quality_curve
                .push((self.trace.len(), self.objective.eval(&rec)));
        }
    }

    /// Exploit: one live client keeps running the tuned configuration
    /// for the rest of the budget; if it dies the next live client takes
    /// over.
    fn exploit(&mut self, best_point: &Point) -> Result<(), ServerError> {
        let mut pre_evicted: Vec<usize> = Vec::new();
        while self.trace.len() < self.cfg.max_steps {
            let dead = ServerError::AllClientsDead {
                step: self.trace.len(),
            };
            let Some(&runner) = self.fleet.live.first() else {
                return Err(dead);
            };
            self.batch_id += 1;
            let assign = Assignment {
                batch: self.batch_id,
                slot: 0,
                attempt: 0,
            };
            let point = best_point.clone();
            if self.clients[runner]
                .send(Task::Run { assign, point })
                .is_err()
            {
                self.fleet.evict(runner);
                pre_evicted.push(runner);
                continue;
            }
            let (kind, duplicate, step) = loop {
                let event = self.events.recv().map_err(|_| dead.clone())?;
                self.fleet.note(&event);
                let stats = &mut self.fleet.stats;
                match event {
                    Event::Report {
                        assign: a,
                        observed,
                        late,
                        duplicate,
                        ..
                    } if a == assign => {
                        if duplicate {
                            stats.duplicate_reports += 1;
                        }
                        if late {
                            stats.missed_reports += 1;
                            break (ExploitKind::Late, duplicate, self.cfg.deadline);
                        }
                        break (ExploitKind::OnTime, duplicate, observed);
                    }
                    Event::Lost { assign: a, .. } if a == assign => {
                        stats.missed_reports += 1;
                        break (ExploitKind::Lost, false, self.cfg.deadline);
                    }
                    Event::Died { client, assign: a } if a == assign => {
                        stats.missed_reports += 1;
                        self.fleet.evict(client);
                        break (ExploitKind::Died(client), false, self.cfg.deadline);
                    }
                    _ => {} // stale or extra copy: discard silently
                }
            };
            let pre_evicted = std::mem::take(&mut pre_evicted);
            self.apply_exploit(step, &pre_evicted, duplicate, kind);
            if let Some(j) = self.journal.as_deref_mut() {
                let record = ExploitRecord {
                    batch: self.batch_id,
                    step,
                    pre_evicted,
                    duplicate,
                    kind,
                    live: self.fleet.live.clone(),
                    serials: self.fleet.serials.clone(),
                    draws: self.fleet.draws.clone(),
                    stats: stats_to_array(&self.fleet.stats),
                };
                journal_append(j, WalRecord::Exploit(record))?;
            }
        }
        Ok(())
    }

    /// Applies one exploit step: emits the evictions of runners whose
    /// channel was gone, the duplicate and miss handling of the step's
    /// report, and pushes the step time.
    fn apply_exploit(
        &mut self,
        step: f64,
        pre_evicted: &[usize],
        duplicate: bool,
        kind: ExploitKind,
    ) {
        let tel = self.tel;
        tel.set_clock(self.trace.len() as u64);
        for &c in pre_evicted {
            event!(tel, "server.evict", client = c);
        }
        if duplicate {
            tel.counter("server.duplicate_reports", 1);
        }
        match kind {
            ExploitKind::OnTime => {}
            ExploitKind::Late | ExploitKind::Lost => {
                event!(tel, "server.miss", count = 1usize);
            }
            ExploitKind::Died(c) => {
                event!(tel, "server.evict", client = c);
                event!(tel, "server.miss", count = 1usize);
            }
        }
        self.trace.push(step);
    }

    /// Serialises the full mid-session state at a batch boundary:
    /// session progress, the optimizer, the objective memo, and (when
    /// supervised) the health tracker and the supervisor report.
    fn save_snapshot(&self, optimizer: &dyn Checkpoint) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.tag(SNAPSHOT_TAG);
        w.u64(self.batch_id);
        w.f64_slice(self.trace.step_times());
        w.usize(self.evaluations);
        w.usize(self.quality_curve.len());
        for &(step, q) in &self.quality_curve {
            w.usize(step);
            w.f64(q);
        }
        w.usize_slice(&self.fleet.live);
        w.usize_slice(&stats_to_array(&self.fleet.stats));
        optimizer.save_state(&mut w);
        self.objective.save_state(&mut w);
        w.bool(self.health.is_some());
        if let Some(h) = &self.health {
            h.save_state(&mut w);
            let r = &self.report;
            let counts = [
                r.forced_batches,
                r.breaker_opens,
                r.breaker_closes,
                r.min_width,
            ];
            w.usize_slice(&counts);
        }
        w.into_bytes()
    }

    /// Mirror of [`Session::save_snapshot`]: restores the session state
    /// in place. A snapshot of an older layout is rejected by its tag.
    fn restore_snapshot(
        &mut self,
        bytes: &[u8],
        optimizer: &mut dyn Optimizer,
    ) -> Result<(), ServerError> {
        let snap = |e: harmony_recovery::CodecError| recovery_err(format!("snapshot: {e}"));
        let mut r = StateReader::new(bytes).map_err(snap)?;
        r.tag(SNAPSHOT_TAG).map_err(snap)?;
        self.batch_id = r.u64().map_err(snap)?;
        for t_k in r.f64_vec().map_err(snap)? {
            self.trace
                .try_push(t_k)
                .map_err(|e| recovery_err(format!("snapshot trace: {e}")))?;
        }
        self.evaluations = r.usize().map_err(snap)?;
        let n = r.usize().map_err(snap)?;
        self.quality_curve.clear();
        for _ in 0..n {
            let step = r.usize().map_err(snap)?;
            let q = r.f64().map_err(snap)?;
            self.quality_curve.push((step, q));
        }
        self.fleet.live = r.usize_vec().map_err(snap)?;
        check_clients("snapshot live set", &self.fleet.live, self.cfg.procs, true)
            .map_err(recovery_err)?;
        let stats: [usize; 6] = r
            .usize_vec()
            .map_err(snap)?
            .try_into()
            .map_err(|_| recovery_err("snapshot stats arity"))?;
        self.fleet.stats = stats_from_array(stats);
        optimizer
            .as_checkpoint_mut()
            .ok_or_else(|| recovery_err("optimizer is not checkpointable"))?
            .restore_state(&mut r)
            .map_err(snap)?;
        self.objective.restore_state(&mut r).map_err(snap)?;
        let has_health = r.bool().map_err(snap)?;
        match (has_health, self.health.as_mut()) {
            (true, Some(h)) => {
                h.restore_state(&mut r).map_err(snap)?;
                let [forced_batches, breaker_opens, breaker_closes, min_width]: [usize; 4] = r
                    .usize_vec()
                    .map_err(snap)?
                    .try_into()
                    .map_err(|_| recovery_err("snapshot report arity"))?;
                self.report = SupervisorReport {
                    degraded: false,
                    forced_batches,
                    breaker_opens,
                    breaker_closes,
                    min_width,
                };
            }
            (false, None) => {}
            _ => return Err(recovery_err("snapshot supervision flag mismatch")),
        }
        r.finish().map_err(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pro::ProOptimizer;
    use harmony_params::{ParamDef, ParamSpace};
    use harmony_surface::objective::FnObjective;
    use harmony_variability::noise::Noise;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("x", -15, 15, 1).unwrap(),
            ParamDef::integer("y", -15, 15, 1).unwrap(),
        ])
        .unwrap()
    }

    fn bowl() -> FnObjective<impl Fn(&Point) -> f64 + Sync> {
        FnObjective::new("bowl", space(), |p| 1.5 + 0.1 * (p[0] * p[0] + p[1] * p[1]))
    }

    fn cfg(estimator: Estimator, steps: usize, procs: usize) -> ServerConfig {
        ServerConfig::new(procs, steps, estimator, 42).unwrap()
    }

    /// A bowl session under `opts`.
    fn session(
        noise: &Noise,
        opt: &mut dyn Optimizer,
        config: ServerConfig,
        opts: SessionOptions<'_>,
    ) -> Result<SupervisedOutcome, ServerError> {
        run_session(&bowl(), noise, opt, config, opts)
    }

    /// [`session`] reduced to its tuning outcome.
    fn outcome(
        noise: &Noise,
        opt: &mut dyn Optimizer,
        config: ServerConfig,
        opts: SessionOptions<'_>,
    ) -> Result<TuningOutcome, ServerError> {
        session(noise, opt, config, opts).map(|s| s.outcome)
    }

    fn faulty(plan: FaultPlan) -> SessionOptions<'static> {
        SessionOptions {
            plan,
            ..SessionOptions::default()
        }
    }

    fn traced(plan: FaultPlan, tel: &Telemetry) -> SessionOptions<'static> {
        SessionOptions {
            telemetry: tel.clone(),
            ..faulty(plan)
        }
    }

    fn journalled(
        plan: FaultPlan,
        journal: &mut SessionJournal,
        recovery: RecoveryConfig,
    ) -> SessionOptions<'_> {
        SessionOptions {
            journal: Some(journal),
            recovery,
            ..faulty(plan)
        }
    }

    fn supervised(plan: FaultPlan) -> SessionOptions<'static> {
        SessionOptions {
            supervisor: Some(SupervisorConfig::default()),
            ..faulty(plan)
        }
    }

    #[test]
    fn distributed_session_finds_optimum() {
        let mut opt = ProOptimizer::with_defaults(space());
        let out = outcome(
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 80, 8),
            SessionOptions::default(),
        )
        .unwrap();
        assert!(out.converged);
        assert_eq!(out.best_point.as_slice(), &[0.0, 0.0]);
        assert_eq!(out.best_true_cost, 1.5);
        assert!(out.trace.len() >= 80);
        assert!(out.faults.is_clean());
    }

    #[test]
    fn deterministic_given_seed() {
        let noise = Noise::paper_default(0.2);
        let run = || {
            let mut opt = ProOptimizer::with_defaults(space());
            outcome(
                &noise,
                &mut opt,
                cfg(Estimator::MinOfK(2), 60, 4),
                SessionOptions::default(),
            )
            .unwrap()
            .total_time()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shared_session_outcome_is_bit_identical() {
        // the shared cost tier substitutes deterministic true costs, so
        // attaching it — cold or fully warm — must not change a single
        // bit of the outcome, only how many probes reached the objective
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let config = || cfg(Estimator::MinOfK(2), 60, 4);
        let baseline = {
            let mut opt = ProOptimizer::with_defaults(space());
            outcome(&noise, &mut opt, config(), SessionOptions::default()).unwrap()
        };
        let costs = SharedPerfDb::new(space(), 4);
        let estimates = SharedPerfDb::new(space(), 4);
        let shared_run = || {
            let mut opt = ProOptimizer::with_defaults(space());
            run_resilient_shared(
                &obj,
                &noise,
                &mut opt,
                config(),
                &FaultPlan::none(),
                SharedSession::new(&costs, &estimates),
            )
            .unwrap()
        };
        let cold = shared_run();
        assert_eq!(cold, baseline);
        // make the first session's probes visible, then rerun warm
        costs.flush();
        estimates.flush();
        assert!(!costs.is_empty());
        assert!(!estimates.is_empty());
        let hits_before = costs.stats().hits;
        let warm = shared_run();
        assert_eq!(warm, baseline);
        assert!(
            costs.stats().hits > hits_before,
            "warm session never hit the shared tier"
        );
        // published estimates give later sessions a warm-start center
        assert!(crate::warm::warm_start_center(&estimates).is_some());
    }

    #[test]
    fn free_parallel_multisampling() {
        // §5.2: with plenty of processors, K samples cost no extra steps.
        // The 2-D symmetric simplex proposes 4 points; with 64 clients a
        // K=10 batch still fits one step, so the converged trace length
        // matches the K=1 run's.
        let steps = |est: Estimator| {
            let mut opt = ProOptimizer::with_defaults(space());
            let out = outcome(
                &Noise::None,
                &mut opt,
                cfg(est, 50, 64),
                SessionOptions::default(),
            )
            .unwrap();
            out.evaluations
        };
        let e1 = steps(Estimator::Single);
        let e10 = steps(Estimator::MinOfK(10));
        assert!(e10 >= 9 * e1, "e1={e1} e10={e10}");
        // both sessions converged within the same step budget
    }

    #[test]
    fn fewer_procs_than_batch_splits_steps() {
        let mut opt = ProOptimizer::with_defaults(space());
        // 4-point batches on 2 clients: every batch takes 2 steps
        let out = outcome(
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 30, 2),
            SessionOptions::default(),
        )
        .unwrap();
        assert!(out.trace.len() >= 30);
        assert_eq!(out.best_point.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn noisy_distributed_session_stays_reasonable() {
        let noise = Noise::Pareto {
            alpha: 1.7,
            rho: 0.3,
        };
        let mut opt = ProOptimizer::with_defaults(space());
        let out = outcome(
            &noise,
            &mut opt,
            cfg(Estimator::MinOfK(5), 100, 32),
            SessionOptions::default(),
        )
        .unwrap();
        // heavy noise, but min-of-5 keeps the chosen point decent
        assert!(out.best_true_cost < 4.0, "true={}", out.best_true_cost);
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        assert!(matches!(
            ServerConfig::new(0, 10, Estimator::Single, 1),
            Err(ServerError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServerConfig::new(4, 0, Estimator::Single, 1),
            Err(ServerError::InvalidConfig(_))
        ));
        let bad_quorum = ServerConfig {
            quorum: 1.5,
            ..cfg(Estimator::Single, 10, 4)
        };
        assert!(bad_quorum.validated().is_err());
        let bad_deadline = ServerConfig {
            deadline: f64::NAN,
            ..cfg(Estimator::Single, 10, 4)
        };
        assert!(bad_deadline.validated().is_err());
        let bad_backoff = ServerConfig {
            backoff: 0.5,
            ..cfg(Estimator::Single, 10, 4)
        };
        assert!(bad_backoff.validated().is_err());
    }

    #[test]
    fn all_crashed_clients_is_a_typed_error() {
        let mut opt = ProOptimizer::with_defaults(space());
        let plan = FaultPlan::new(3, 1.0, 0.0, 0.0, 0.0);
        let out = outcome(
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 60, 4),
            faulty(plan),
        );
        assert!(matches!(out, Err(ServerError::AllClientsDead { .. })));
    }

    #[test]
    fn total_report_loss_fails_quorum() {
        let mut opt = ProOptimizer::with_defaults(space());
        // every report is dropped: slots exhaust retries, no estimates
        let plan = FaultPlan::new(5, 0.0, 0.0, 1.0, 0.0);
        let out = outcome(
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 60, 8),
            faulty(plan),
        );
        assert!(matches!(out, Err(ServerError::QuorumNotReached { .. })));
    }

    #[test]
    fn session_survives_crashes_by_evicting() {
        let mut opt = ProOptimizer::with_defaults(space());
        // half the clients crash early; the session degrades and finishes
        let plan = FaultPlan::new(12, 0.5, 0.0, 0.0, 0.0);
        let out = outcome(
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 80, 16),
            faulty(plan),
        )
        .expect("session survives partial crashes");
        assert!(out.faults.evicted_clients > 0);
        assert!(out.trace.len() >= 80);
        assert!(out.best_true_cost < 4.0, "true={}", out.best_true_cost);
    }

    #[test]
    fn duplicates_are_deduplicated_and_harmless() {
        let noise = Noise::paper_default(0.2);
        let run = |dup: f64| {
            let mut opt = ProOptimizer::with_defaults(space());
            outcome(
                &noise,
                &mut opt,
                cfg(Estimator::MinOfK(2), 60, 4),
                faulty(FaultPlan::new(9, 0.0, 0.0, 0.0, dup)),
            )
            .expect("duplicate-only plan cannot kill a session")
        };
        let clean = run(0.0);
        let dup = run(1.0);
        assert!(dup.faults.duplicate_reports > 0);
        // identical tuning: duplicates change nothing but the counter
        assert_eq!(clean.trace, dup.trace);
        assert_eq!(clean.best_point, dup.best_point);
        assert_eq!(clean.evaluations, dup.evaluations);
    }

    #[test]
    fn hangs_charge_the_deadline_and_retry() {
        let run = |hang: f64| {
            let mut opt = ProOptimizer::with_defaults(space());
            outcome(
                &Noise::None,
                &mut opt,
                cfg(Estimator::Single, 40, 8),
                faulty(FaultPlan::new(17, 0.0, hang, 0.0, 0.0)),
            )
            .expect("moderate hang rate survivable")
        };
        let clean = run(0.0);
        let hung = run(0.25);
        assert!(hung.faults.missed_reports > 0);
        assert!(hung.faults.retries > 0);
        // misses charge the deadline, so the degraded run is honestly slower
        assert!(hung.total_time() > clean.total_time());
    }

    #[test]
    fn fault_free_resilient_run_matches_run_distributed() {
        let noise = Noise::paper_default(0.3);
        let config = cfg(Estimator::MinOfK(2), 70, 6);
        let mut opt_a = ProOptimizer::with_defaults(space());
        let a = outcome(&noise, &mut opt_a, config, SessionOptions::default()).unwrap();
        let mut opt_b = ProOptimizer::with_defaults(space());
        let b = outcome(&noise, &mut opt_b, config, faulty(FaultPlan::none())).unwrap();
        assert_eq!(a, b);
        assert!(b.faults.is_clean());
    }

    #[test]
    fn traced_session_matches_untraced_and_counts_faults() {
        let plan = FaultPlan::new(12, 0.5, 0.0, 0.0, 0.0);
        let config = cfg(Estimator::Single, 80, 16);

        let mut plain_opt = ProOptimizer::with_defaults(space());
        let plain = outcome(&Noise::None, &mut plain_opt, config, faulty(plan)).unwrap();

        let (tel, sink) = harmony_telemetry::Telemetry::memory();
        let mut traced_opt = ProOptimizer::with_defaults(space());
        let traced = outcome(&Noise::None, &mut traced_opt, config, traced(plan, &tel)).unwrap();

        assert_eq!(plain, traced, "telemetry must not perturb the session");
        let summary = harmony_telemetry::Summary::from_records(&sink.take());
        assert_eq!(summary.span_count("server.session"), Some(1));
        assert_eq!(
            summary.event_count("server.evict"),
            Some(traced.faults.evicted_clients as u64)
        );
        assert_eq!(summary.event_count("server.done"), Some(1));
        assert!(summary.event_count("server.batch").unwrap() > 0);
    }

    #[test]
    fn failed_traced_session_emits_terminal_event() {
        let plan = FaultPlan::new(3, 1.0, 0.0, 0.0, 0.0);
        let (tel, sink) = harmony_telemetry::Telemetry::memory();
        let mut opt = ProOptimizer::with_defaults(space());
        let out = outcome(
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 60, 4),
            traced(plan, &tel),
        );
        assert!(matches!(out, Err(ServerError::AllClientsDead { .. })));
        let summary = harmony_telemetry::Summary::from_records(&sink.take());
        assert_eq!(summary.event_count("server.all_dead"), Some(1));
        // the terminal path closed the session span
        assert_eq!(summary.span_count("server.session"), Some(1));
    }

    #[test]
    fn quorum_needed_rule() {
        assert_eq!(quorum_needed(4, 0.5), 2);
        assert_eq!(quorum_needed(5, 0.5), 3);
        assert_eq!(quorum_needed(4, 0.0), 1);
        assert_eq!(quorum_needed(4, 1.0), 4);
        assert_eq!(quorum_needed(1, 0.5), 1);
    }

    /// An optimizer that never proposes: the session observes nothing.
    struct NeverProposes(ParamSpace);

    impl Optimizer for NeverProposes {
        fn space(&self) -> &ParamSpace {
            &self.0
        }
        fn propose(&mut self) -> Vec<Point> {
            Vec::new()
        }
        fn observe(&mut self, _: &[f64]) {}
        fn best(&self) -> Option<(Point, f64)> {
            None
        }
        fn name(&self) -> &str {
            "never-proposes"
        }
    }

    #[test]
    fn no_observations_is_a_typed_error() {
        let mut opt = NeverProposes(space());
        let out = outcome(
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 10, 2),
            SessionOptions::default(),
        );
        assert!(matches!(out, Err(ServerError::NoObservations)));
    }

    #[test]
    fn fresh_recoverable_run_matches_resilient_and_journals() {
        let noise = Noise::paper_default(0.2);
        let config = cfg(Estimator::MinOfK(2), 60, 8);
        let plan = FaultPlan::new(12, 0.4, 0.0, 0.0, 0.0);

        let mut plain_opt = ProOptimizer::with_defaults(space());
        let plain = outcome(&noise, &mut plain_opt, config, faulty(plan)).unwrap();

        let mut journal = SessionJournal::in_memory();
        let mut opt = ProOptimizer::with_defaults(space());
        let journaled = outcome(
            &noise,
            &mut opt,
            config,
            journalled(plan, &mut journal, RecoveryConfig::default()),
        )
        .unwrap();

        assert_eq!(plain, journaled, "journalling must not perturb the session");
        let lines = journal.wal_lines().unwrap();
        assert!(lines[0].starts_with("{\"t\":\"hdr\""));
        assert!(lines.len() > 1, "batches were journalled");
    }

    #[test]
    fn resume_from_every_kill_point_is_identical() {
        let config = cfg(Estimator::Single, 40, 8);
        let plan = FaultPlan::new(12, 0.3, 0.0, 0.2, 0.0);

        let mut journal = SessionJournal::in_memory();
        let mut opt = ProOptimizer::with_defaults(space());
        let full = outcome(
            &Noise::None,
            &mut opt,
            config,
            journalled(plan, &mut journal, RecoveryConfig::default()),
        )
        .unwrap();

        let records = journal.wal_lines().unwrap().len() - 1;
        assert!(records > 2, "session committed several records");
        for kill in 0..=records {
            let mut part = journal.clone();
            part.truncate_records(kill).unwrap();
            let mut opt = ProOptimizer::with_defaults(space());
            let resumed = outcome(
                &Noise::None,
                &mut opt,
                config,
                journalled(plan, &mut part, RecoveryConfig::default()),
            )
            .unwrap();
            assert_eq!(
                full, resumed,
                "kill after record {kill} must resume exactly"
            );
        }
    }

    #[test]
    fn wal_only_resume_re_emits_identical_telemetry() {
        let config = cfg(Estimator::Single, 30, 8);
        let plan = FaultPlan::new(7, 0.3, 0.0, 0.0, 0.0);

        let (tel, sink) = harmony_telemetry::Telemetry::memory();
        let mut journal = SessionJournal::in_memory();
        let mut opt = ProOptimizer::with_defaults(space());
        let full = outcome(
            &Noise::None,
            &mut opt,
            config,
            SessionOptions {
                telemetry: tel.clone(),
                ..journalled(plan, &mut journal, RecoveryConfig::default())
            },
        )
        .unwrap();
        let full_records = sink.take();

        let mut part = journal.clone();
        assert_eq!(part.truncate_records(3).unwrap(), 3);
        let (tel2, sink2) = harmony_telemetry::Telemetry::memory();
        let mut opt2 = ProOptimizer::with_defaults(space());
        let resumed = outcome(
            &Noise::None,
            &mut opt2,
            config,
            SessionOptions {
                telemetry: tel2.clone(),
                ..journalled(plan, &mut part, RecoveryConfig::default())
            },
        )
        .unwrap();

        assert_eq!(full, resumed);
        assert_eq!(
            full_records,
            sink2.take(),
            "WAL-only resume must replay the exact telemetry stream"
        );
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted_outcome() {
        let config = cfg(Estimator::Single, 40, 8);
        let plan = FaultPlan::new(12, 0.3, 0.0, 0.2, 0.0);
        let recovery = RecoveryConfig { snapshot_every: 2 };

        let mut journal = SessionJournal::in_memory();
        let mut opt = ProOptimizer::with_defaults(space());
        let full = outcome(
            &Noise::None,
            &mut opt,
            config,
            journalled(plan, &mut journal, recovery),
        )
        .unwrap();

        let (wal_bytes, snap_bytes) = journal.size_bytes().unwrap();
        assert!(wal_bytes > 0 && snap_bytes > 0, "snapshots were taken");
        let records = journal.wal_lines().unwrap().len() - 1;
        for kill in (0..=records).step_by(3) {
            let mut part = journal.clone();
            part.truncate_records(kill).unwrap();
            let mut opt = ProOptimizer::with_defaults(space());
            let resumed = outcome(
                &Noise::None,
                &mut opt,
                config,
                journalled(plan, &mut part, recovery),
            )
            .unwrap();
            assert_eq!(full, resumed, "snapshot resume at record {kill}");
        }
    }

    #[test]
    fn torn_final_wal_line_is_dropped_on_resume() {
        let config = cfg(Estimator::Single, 30, 8);
        let plan = FaultPlan::new(7, 0.3, 0.0, 0.0, 0.0);

        let mut journal = SessionJournal::in_memory();
        let mut opt = ProOptimizer::with_defaults(space());
        let full = outcome(
            &Noise::None,
            &mut opt,
            config,
            journalled(plan, &mut journal, RecoveryConfig::default()),
        )
        .unwrap();

        let mut part = journal.clone();
        part.truncate_records(4).unwrap();
        // a kill mid-append leaves a torn, unparsable tail line
        part.append_wal("{\"t\":\"batch\",\"b\":9,\"est\"").unwrap();
        let mut opt2 = ProOptimizer::with_defaults(space());
        let resumed = outcome(
            &Noise::None,
            &mut opt2,
            config,
            journalled(plan, &mut part, RecoveryConfig::default()),
        )
        .unwrap();
        assert_eq!(full, resumed, "torn tail is dropped, not fatal");
    }

    #[test]
    fn config_drift_fails_resume_loudly() {
        let config = cfg(Estimator::Single, 30, 8);
        let plan = FaultPlan::none();

        let mut journal = SessionJournal::in_memory();
        let mut opt = ProOptimizer::with_defaults(space());
        let _ = outcome(
            &Noise::None,
            &mut opt,
            config,
            journalled(plan, &mut journal, RecoveryConfig::default()),
        )
        .unwrap();

        let drifted = ServerConfig { seed: 43, ..config };
        let mut opt2 = ProOptimizer::with_defaults(space());
        let out = outcome(
            &Noise::None,
            &mut opt2,
            drifted,
            journalled(plan, &mut journal, RecoveryConfig::default()),
        );
        assert!(matches!(out, Err(ServerError::Recovery(_))), "{out:?}");
    }

    #[test]
    fn supervised_fault_free_run_matches_resilient() {
        let noise = Noise::paper_default(0.2);
        let config = cfg(Estimator::MinOfK(2), 60, 8);

        let mut plain_opt = ProOptimizer::with_defaults(space());
        let plain = outcome(&noise, &mut plain_opt, config, SessionOptions::default()).unwrap();

        let mut opt = ProOptimizer::with_defaults(space());
        let sup = session(&noise, &mut opt, config, supervised(FaultPlan::none())).unwrap();

        assert_eq!(plain, sup.outcome, "healthy supervision must not perturb");
        assert!(!sup.supervisor.degraded);
        assert_eq!(sup.supervisor.forced_batches, 0);
        assert_eq!(sup.supervisor.breaker_opens, 0);
    }

    #[test]
    fn supervisor_degrades_instead_of_failing_quorum() {
        // every point must report — with half the reports dropped the
        // plain session dies on the first abandoned slot
        let config = ServerConfig {
            quorum: 1.0,
            ..cfg(Estimator::Single, 30, 8)
        };
        let plan = FaultPlan::new(11, 0.0, 0.0, 0.5, 0.0);

        let mut plain_opt = ProOptimizer::with_defaults(space());
        let plain = outcome(&Noise::None, &mut plain_opt, config, faulty(plan));
        assert!(matches!(plain, Err(ServerError::QuorumNotReached { .. })));

        let mut opt = ProOptimizer::with_defaults(space());
        let sup = session(&Noise::None, &mut opt, config, supervised(plan))
            .expect("supervisor completes the session degraded");
        assert!(sup.outcome.trace.len() >= 30);
        assert!(
            sup.supervisor.degraded,
            "forced={} opens={}",
            sup.supervisor.forced_batches, sup.supervisor.breaker_opens
        );
    }

    #[test]
    fn supervised_total_loss_is_still_a_quorum_error() {
        let plan = FaultPlan::new(5, 0.0, 0.0, 1.0, 0.0);
        let mut opt = ProOptimizer::with_defaults(space());
        let out = session(
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 30, 8),
            supervised(plan),
        );
        assert!(matches!(out, Err(ServerError::QuorumNotReached { .. })));
    }

    #[test]
    fn breakers_open_on_repeat_offenders() {
        let config = cfg(Estimator::Single, 60, 4);
        // heavy hangs: some client strings 3 consecutive misses together
        let plan = FaultPlan::new(17, 0.0, 0.6, 0.0, 0.0);
        let mut opt = ProOptimizer::with_defaults(space());
        let sup = session(&Noise::None, &mut opt, config, supervised(plan))
            .expect("hang-only plan is survivable under supervision");
        assert!(sup.supervisor.breaker_opens > 0);
        assert!(sup.supervisor.degraded);
        assert!(sup.supervisor.min_width <= 4);
    }

    /// Telemetry handle over a flight recorder, plus the recorder for
    /// post-mortem inspection.
    fn flight_telemetry() -> (
        harmony_telemetry::Telemetry,
        std::sync::Arc<harmony_telemetry::FlightRecorder>,
    ) {
        let fr = std::sync::Arc::new(harmony_telemetry::FlightRecorder::new(64));
        let tel = harmony_telemetry::Telemetry::with_config(
            fr.clone(),
            harmony_telemetry::TelemetryConfig::default(),
        );
        (tel, fr)
    }

    #[test]
    fn injected_terminal_failures_produce_post_mortems() {
        // every chaos-suite terminal failure mode: total crash, total
        // report loss, and an optimizer that never proposes
        let cases: Vec<(&str, FaultPlan, &str)> = vec![
            (
                "all_dead",
                FaultPlan::new(3, 1.0, 0.0, 0.0, 0.0),
                "server.all_dead",
            ),
            (
                "quorum",
                FaultPlan::new(5, 0.0, 0.0, 1.0, 0.0),
                "server.quorum_fail",
            ),
        ];
        for (label, plan, event) in cases {
            let (tel, fr) = flight_telemetry();
            let mut opt = ProOptimizer::with_defaults(space());
            let out = outcome(
                &Noise::None,
                &mut opt,
                cfg(Estimator::Single, 60, 4),
                traced(plan, &tel),
            );
            assert!(out.is_err(), "{label} plan must fail the session");
            let pms = fr.post_mortems();
            assert!(!pms.is_empty(), "{label}: no post-mortem dumped");
            assert!(
                pms[0].text.contains(event),
                "{label}: post-mortem does not show {event}"
            );
            assert!(pms[0].text.contains("-- metrics --"));
        }

        // no observations: the optimizer proposes nothing at all
        let (tel, fr) = flight_telemetry();
        let mut opt = NeverProposes(space());
        let out = outcome(
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 10, 2),
            traced(FaultPlan::none(), &tel),
        );
        assert!(matches!(out, Err(ServerError::NoObservations)));
        let pms = fr.post_mortems();
        assert!(!pms.is_empty());
        assert_eq!(pms[0].reason, "server.no_observations");
    }

    #[test]
    fn breaker_open_produces_post_mortem_with_health_state() {
        // heavy hangs: breakers open even though the session survives
        let plan = FaultPlan::new(17, 0.0, 0.6, 0.0, 0.0);
        let (tel, fr) = flight_telemetry();
        let mut opt = ProOptimizer::with_defaults(space());
        let sup = session(
            &Noise::None,
            &mut opt,
            cfg(Estimator::Single, 60, 4),
            SessionOptions {
                telemetry: tel.clone(),
                ..supervised(plan)
            },
        )
        .expect("hang-only plan is survivable under supervision");
        assert!(sup.supervisor.breaker_opens > 0);
        let pms = fr.post_mortems();
        assert_eq!(
            pms.len(),
            sup.supervisor.breaker_opens,
            "one post-mortem per breaker open"
        );
        assert!(pms[0].reason.starts_with("recovery.breaker_open"));
        assert!(
            pms[0].text.contains("-- client health --") && pms[0].text.contains(": open"),
            "post-mortem must show the offending client's breaker open"
        );
    }

    #[test]
    fn post_mortems_are_reproducible_across_runs() {
        let plan = FaultPlan::new(3, 1.0, 0.0, 0.0, 0.0);
        let run = || {
            let (tel, fr) = flight_telemetry();
            let mut opt = ProOptimizer::with_defaults(space());
            let _ = outcome(
                &Noise::None,
                &mut opt,
                cfg(Estimator::Single, 60, 4),
                traced(plan, &tel),
            );
            fr.post_mortems()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        // real client threads, but the dump is canonical: byte-identical
        // text on every run
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.text, y.text);
        }
    }
}
