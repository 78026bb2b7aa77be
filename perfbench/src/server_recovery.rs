//! `server_recovery`: journalled, supervised, threaded server sessions
//! against a sparse performance database, each killed at its midpoint
//! and resumed from its own journal.
//!
//! Every session must end `Ok`, and the resumed `SupervisedOutcome` must
//! equal the uninterrupted one. Sessions whose resumed `SupervisorReport`
//! differs are counted on every run (printed, and reported as
//! `recovery.resume.report_mismatch` by the traced run): after a
//! *snapshot* resume the report drops the breaker opens, degraded flag
//! and minimum width accumulated before the snapshot, although its
//! documentation promises identical numbers. That known defect in
//! `core/src/server.rs` is surfaced here, not worked around; it is not
//! counted as a failed operation, so that `failed` stays a count of
//! sessions that returned `Err` or resumed to another `TuningOutcome`.
//!
//! The traced run replays each session's write-ahead log through the
//! public calls of every layer it exercised (WAL parse, journal append,
//! optimizer, checkpoint codec, database) and times the telemetry sink
//! from outside; the session wall left over is the server's dispatch.

use crate::report::{us_per, Blocks, EndToEnd, Report, SetupTime, BLOCK};
use crate::timing_sink::TimingSink;
use harmony_cluster::FaultPlan;
use harmony_core::server::{
    run_session_traced, RecoveryConfig, ServerConfig, ServerError, SupervisedOutcome,
};
use harmony_core::{Estimator, Optimizer, ProOptimizer};
use harmony_params::Point;
use harmony_recovery::{
    restore_from_slice, save_to_vec, ExploitKind, SessionJournal, SupervisorConfig, WalRecord,
};
use harmony_surface::{Gs2Model, Objective, PerfDatabase};
use harmony_telemetry::{FlightRecorder, Sink, Telemetry, TelemetryConfig};
use harmony_variability::noise::Noise;
use harmony_variability::{seeded_rng, stream_seed};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads per session.
const PROCS: usize = 2;
/// Time-step budget per session.
const STEPS: usize = 200;
/// Min-of-K samples per estimate.
const K: usize = 3;
/// Idle throughput of the Pareto noise.
pub const RHO: f64 = 0.2;
/// Lattice share the performance database measured (paper §6).
const COVERAGE: f64 = 0.6;
/// Neighbours the database interpolates from.
const NEIGHBORS: usize = 4;
/// Batches between snapshots.
pub const SNAPSHOT_EVERY: u64 = 4;
/// Records the flight recorder keeps.
const FLIGHT_CAPACITY: usize = 256;
/// Sessions whose quality (NTT, delivered cost) the run reports: a fixed
/// prefix, so the figures are deterministic at a fixed seed.
const QUALITY_SESSIONS: usize = 2000;
/// Databases the sessions cycle through. Each is a different 60% of the
/// lattice with its own optimum; averaging over many keeps the quality
/// figures from hinging on a few draws (over ten seeds `mean_ntt`
/// spread 0.017 with 16 databases, 0.009 with 64).
const DATABASES: u64 = 64;

/// Where the journals live, relative to the repository root.
pub const TMP_ROOT: &str = ".perfbench_tmp";

/// The fixed inputs the sessions share: session `i` tunes against
/// database `i % DATABASES`.
pub struct Inputs {
    pub dbs: Vec<PerfDatabase>,
    pub noise: Noise,
    pub seed: u64,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let gs2 = Gs2Model::paper_scale();
        let dbs = (0..DATABASES)
            .map(|d| {
                let mut rng = seeded_rng(stream_seed(seed, u64::MAX - d));
                PerfDatabase::from_objective(&gs2, COVERAGE, NEIGHBORS, &mut rng)
            })
            .collect();
        Inputs {
            dbs,
            noise: Noise::paper_default(RHO),
            seed,
        }
    }

    /// The inputs with every database's interpolation memo filled over
    /// the whole lattice: the run's set-up.
    pub fn setup(seed: u64) -> Self {
        let inputs = Inputs::new(seed);
        for db in &inputs.dbs {
            for p in db.space().lattice() {
                std::hint::black_box(db.eval(&p));
            }
        }
        inputs
    }

    pub fn db(&self, i: u64) -> &PerfDatabase {
        &self.dbs[(i % DATABASES) as usize]
    }

    pub fn config(&self, i: u64) -> ServerConfig {
        ServerConfig::new(
            PROCS,
            STEPS,
            Estimator::MinOfK(K),
            stream_seed(self.seed, i),
        )
        .expect("valid server_recovery config")
    }

    /// Transient faults only (hangs, drops, duplicates; no crashes).
    pub fn plan(cfg: &ServerConfig) -> FaultPlan {
        FaultPlan::new(cfg.seed, 0.0, 0.05, 0.05, 0.02)
    }

    /// Runs (or resumes) session `i`, journalled in `dir`, with telemetry
    /// into `sink`.
    pub fn session(
        &self,
        i: u64,
        dir: &Path,
        sink: Arc<dyn Sink>,
    ) -> Result<SupervisedOutcome, ServerError> {
        let cfg = self.config(i);
        let db = self.db(i);
        let mut journal = SessionJournal::at_dir(dir)
            .map_err(|e| ServerError::Recovery(format!("journal dir: {e}")))?;
        let mut opt = ProOptimizer::with_defaults(db.space().clone());
        let tel = Telemetry::with_config(sink, TelemetryConfig::default());
        run_session_traced(
            db,
            &self.noise,
            &mut opt,
            cfg,
            &Self::plan(&cfg),
            &tel,
            Some(&mut journal),
            RecoveryConfig {
                snapshot_every: SNAPSHOT_EVERY,
            },
            Some(SupervisorConfig::default()),
        )
    }
}

/// Per-layer totals (ns, counts) from WAL replays, summed over sessions.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WalReplay {
    pub records: u64,
    pub rounds: u64,
    pub missed: u64,
    pub retries: u64,
    pub duplicates: u64,
    pub parse_ns: u64,
    pub append_ns: u64,
    pub optimizer_ns: u64,
    pub db_ns: u64,
    pub db_evals: u64,
    pub db_exact: u64,
    pub save_ns: u64,
    pub restore_ns: u64,
    pub checkpoint_bytes: u64,
    pub checkpoints: u64,
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replays one session's WAL `lines` through each layer's public calls,
/// adding the work to `acc`. Returns the replayed optimizer's final
/// recommendation. `scratch` is a directory the journal appends may use
/// (removed afterwards).
pub fn replay_wal(
    lines: &[String],
    db: &PerfDatabase,
    scratch: &Path,
    acc: &mut WalReplay,
) -> Result<Option<Point>, String> {
    let t = Instant::now();
    let parsed: Result<Vec<WalRecord>, _> = lines.iter().map(|l| WalRecord::from_line(l)).collect();
    acc.parse_ns += elapsed_ns(t);
    let records = parsed.map_err(|e| format!("WAL parse: {e}"))?;
    acc.records += records.len() as u64;

    let copies = records.clone();
    let mut journal = SessionJournal::at_dir(scratch).map_err(|e| format!("scratch: {e}"))?;
    let t = Instant::now();
    for rec in copies {
        journal
            .append_record(rec)
            .map_err(|e| format!("append: {e}"))?;
    }
    acc.append_ns += elapsed_ns(t);
    std::fs::remove_dir_all(scratch).map_err(|e| format!("scratch: {e}"))?;

    let mut opt = ProOptimizer::with_defaults(db.space().clone());
    for rec in &records {
        match rec {
            WalRecord::Header(h) if h.k != K => return Err("WAL header has another K".into()),
            WalRecord::Header(_) => {}
            WalRecord::Batch(b) => {
                let t = Instant::now();
                let batch = opt.propose();
                acc.optimizer_ns += elapsed_ns(t);
                if batch.len() != b.estimates.len() {
                    return Err(format!(
                        "replayed batch {} proposes {} points, WAL has {}",
                        b.batch,
                        batch.len(),
                        b.estimates.len()
                    ));
                }
                // the clients evaluate each point once per sample
                let t = Instant::now();
                for p in &batch {
                    for _ in 0..K {
                        std::hint::black_box(db.eval(p));
                    }
                }
                acc.db_ns += elapsed_ns(t);
                acc.db_evals += (batch.len() * K) as u64;
                acc.db_exact += batch.iter().filter(|p| db.contains(p)).count() as u64 * K as u64;

                let t = Instant::now();
                if !b.forced && b.estimates.iter().all(Option::is_some) {
                    let complete: Vec<f64> = b.estimates.iter().flatten().copied().collect();
                    opt.observe(&complete);
                } else {
                    opt.observe_partial(&b.estimates);
                }
                acc.optimizer_ns += elapsed_ns(t);

                for r in &b.rounds {
                    acc.rounds += 1;
                    acc.missed += r.missed as u64;
                    acc.retries += r.retries as u64;
                    acc.duplicates += r.duplicates as u64;
                }
                if b.batch.is_multiple_of(SNAPSHOT_EVERY) {
                    let t = Instant::now();
                    let bytes = save_to_vec(&opt);
                    acc.save_ns += elapsed_ns(t);
                    let mut restored = ProOptimizer::with_defaults(db.space().clone());
                    let t = Instant::now();
                    restore_from_slice(&mut restored, &bytes)
                        .map_err(|e| format!("restore: {e}"))?;
                    acc.restore_ns += elapsed_ns(t);
                    if save_to_vec(&restored) != bytes {
                        return Err(format!(
                            "checkpoint at batch {} does not round-trip",
                            b.batch
                        ));
                    }
                    acc.checkpoint_bytes += bytes.len() as u64;
                    acc.checkpoints += 1;
                }
            }
            WalRecord::Exploit(e) => {
                acc.rounds += 1;
                acc.missed += u64::from(e.kind != ExploitKind::OnTime);
                acc.duplicates += u64::from(e.duplicate);
            }
        }
    }
    Ok(opt.recommendation().map(|(p, _)| p))
}

/// Traced-run totals beyond the WAL replay.
#[derive(Debug, Default)]
struct Traced {
    replay: WalReplay,
    wall_ns: u64,
    untraced_ns: u64,
    sink_ns: u64,
    sink_records: u64,
    wal_bytes: u64,
    snapshot_bytes: u64,
    fault_missed: u64,
    fault_retries: u64,
    fault_duplicates: u64,
    replay_disagreements: u64,
    /// Sessions whose untraced twin ended differently.
    twin_mismatch: u64,
    /// The traced sessions' p99 latency (per block, median over blocks).
    session_ms_p99: f64,
}

struct Run {
    inputs: Inputs,
    root: PathBuf,
}

impl Run {
    fn dir(&self, name: String) -> PathBuf {
        let d = self.root.join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// One uninterrupted session; returns its outcome and wall time.
    fn full(
        &self,
        i: u64,
        dir: &Path,
        sink: Arc<dyn Sink>,
    ) -> (Result<SupervisedOutcome, ServerError>, Duration) {
        let t = Instant::now();
        let out = self.inputs.session(i, dir, sink);
        (out, t.elapsed())
    }
}

fn recorder() -> Arc<FlightRecorder> {
    Arc::new(FlightRecorder::new(FLIGHT_CAPACITY))
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let root = PathBuf::from(TMP_ROOT).join(format!("server_recovery-{}", std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let (inputs, setup_time) = crate::report::timed(|| Inputs::setup(seed));
    // one untimed journalled warm-up session off the measured seeds
    let warmup = root.join("warmup");
    let _ = inputs.session(u64::MAX, &warmup, recorder());
    let _ = std::fs::remove_dir_all(&warmup);
    let mut run = Run {
        inputs,
        root: root.clone(),
    };
    let result = measure(&mut run, seconds, traced, setup_time);
    let _ = std::fs::remove_dir_all(&root);
    // removes the shared root only when no other run is using it
    let _ = std::fs::remove_dir(TMP_ROOT);
    result
}

fn measure(
    run: &mut Run,
    seconds: f64,
    traced: bool,
    setup_time: SetupTime,
) -> Result<Report, String> {
    let budget = Duration::from_secs_f64(seconds);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut resume_ms = Vec::new();
    let (mut ntt_sum, mut cost_sum) = (0.0_f64, 0.0_f64);
    let (mut errors, mut outcome_mismatch, mut report_mismatch) = (0u64, 0u64, 0u64);
    let mut tr = Traced::default();
    let start = Instant::now();
    let mut blocks = Blocks::new(start, seconds, setup_time);
    let mut i = 0u64;
    // an untraced run reports quality over the first sessions and needs
    // a whole block
    let min_sessions = if traced {
        1
    } else {
        QUALITY_SESSIONS.max(BLOCK)
    };
    while (i as usize) < min_sessions || start.elapsed() < budget {
        report.attempted += 1;
        let dir = run.dir(format!("s{i}"));

        // the traced run also times an untraced twin of every session,
        // alternating which runs first
        let timing = Arc::new(TimingSink::new(recorder()));
        let twin = traced.then(|| run.dir(format!("s{i}-twin")));
        let twin_first = !i.is_multiple_of(2);
        let mut twin_run = None;
        if let (Some(d), true) = (&twin, twin_first) {
            twin_run = Some(run.full(i, d, recorder()));
        }
        let sink: Arc<dyn Sink> = if traced { timing.clone() } else { recorder() };
        let (full, dt) = run.full(i, &dir, sink);
        if let (Some(d), false) = (&twin, twin_first) {
            twin_run = Some(run.full(i, d, recorder()));
        }
        let full = match full {
            Ok(full) => full,
            Err(e) => {
                report.notes.push(format!("session {i}: {e}"));
                errors += 1;
                report.failed += 1;
                blocks.record(dt);
                i += 1;
                continue;
            }
        };
        if (i as usize) < QUALITY_SESSIONS {
            ntt_sum += full.outcome.ntt(RHO);
            cost_sum += full.outcome.best_true_cost;
        }

        // kill at the WAL midpoint, then resume from the same journal
        let mut journal = SessionJournal::at_dir(&dir).map_err(|e| format!("journal: {e}"))?;
        let lines = journal.wal_lines().map_err(|e| format!("journal: {e}"))?;
        let (wal_bytes, snapshot_bytes) =
            journal.size_bytes().map_err(|e| format!("journal: {e}"))?;
        let records = lines.len().saturating_sub(1);
        journal
            .truncate_records(records / 2)
            .map_err(|e| format!("truncate: {e}"))?;
        let (resumed, rt) = run.full(i, &dir, recorder());
        resume_ms.push(rt.as_secs_f64() * 1e3);
        match resumed {
            Ok(r) if r.outcome != full.outcome => {
                outcome_mismatch += 1;
                report.failed += 1;
            }
            Ok(r) if r.supervisor != full.supervisor => report_mismatch += 1,
            Ok(_) => {}
            Err(e) => {
                report.notes.push(format!("resume {i}: {e}"));
                errors += 1;
                report.failed += 1;
            }
        }

        if traced {
            match twin_run {
                Some((Ok(twin), twin_dt)) => {
                    tr.untraced_ns += twin_dt.as_nanos() as u64;
                    tr.wall_ns += dt.as_nanos() as u64;
                    tr.twin_mismatch += u64::from(twin != full);
                }
                Some((Err(e), _)) => {
                    report.notes.push(format!("twin of session {i}: {e}"));
                    errors += 1;
                }
                None => unreachable!("a traced session always runs its twin"),
            }
            tr.sink_ns += timing.nanos();
            tr.sink_records += timing.records();
            tr.wal_bytes += wal_bytes as u64;
            tr.snapshot_bytes += snapshot_bytes as u64;
            let f = &full.outcome.faults;
            tr.fault_missed += f.missed_reports as u64;
            tr.fault_retries += f.retries as u64;
            tr.fault_duplicates += f.duplicate_reports as u64;
            let before = tr.replay.clone();
            let best = replay_wal(
                &lines,
                run.inputs.db(i),
                &run.dir(format!("s{i}-replay")),
                &mut tr.replay,
            )?;
            let r = &tr.replay;
            let agrees = best.as_ref() == Some(&full.outcome.best_point)
                && r.missed - before.missed == f.missed_reports as u64
                && r.retries - before.retries == f.retries as u64
                && r.duplicates - before.duplicates == f.duplicate_reports as u64
                && r.rounds - before.rounds == full.outcome.trace.len() as u64;
            tr.replay_disagreements += u64::from(!agrees);
        }
        for d in std::iter::once(&dir).chain(twin.as_ref()) {
            let _ = std::fs::remove_dir_all(d);
        }
        // the window clock includes the kill and resume
        blocks.record(dt);
        if !traced {
            // the set-up is repeated in place: the old databases are
            // freed first, so the two never coexist in memory
            let inputs = &mut run.inputs;
            blocks.setup_if_due(|| {
                inputs.dbs = Vec::new();
                *inputs = Inputs::setup(inputs.seed);
            });
        }
        i += 1;
    }
    let sessions = i as usize;

    report.notes.push(format!(
        "{sessions} sessions: {errors} errors, {outcome_mismatch} resumed outcomes differ, \
         {report_mismatch} resumed supervisor reports differ (snapshot-resume defect)"
    ));
    if traced {
        report.notes.push(format!(
            "traced: {} untraced twins differ, {} WAL replays disagree with the outcome",
            tr.twin_mismatch, tr.replay_disagreements
        ));
    }
    report.correct &= errors == 0
        && outcome_mismatch == 0
        && tr.twin_mismatch == 0
        && tr.replay_disagreements == 0;
    if traced {
        tr.session_ms_p99 = blocks.p99();
        push_layers(
            &mut report,
            &tr,
            sessions,
            &resume_ms,
            outcome_mismatch,
            report_mismatch,
        );
    } else {
        let n = QUALITY_SESSIONS.min(sessions) as f64;
        EndToEnd {
            blocks,
            mean_ntt: ntt_sum / n,
            mean_best_cost: cost_sum / n,
        }
        .push_into(&mut report);
    }
    Ok(report)
}

fn push_layers(
    r: &mut Report,
    tr: &Traced,
    n: usize,
    resume_ms: &[f64],
    outcome_mismatch: u64,
    report_mismatch: u64,
) {
    let w = &tr.replay;
    let per = |v: u64| v as f64 / n.max(1) as f64;
    // layers that run inside the uninterrupted session; parse and
    // restore run only when a session resumes
    let inside = w.optimizer_ns + w.db_ns + w.append_ns + w.save_ns + tr.sink_ns;
    let dispatch = tr.wall_ns.saturating_sub(inside);
    r.push("core.server.rounds", per(w.rounds), "count");
    r.push(
        "core.server.dispatch_us_per_round",
        dispatch as f64 / 1e3 / w.rounds.max(1) as f64,
        "us",
    );
    r.push("core.server.retries", per(tr.fault_retries), "count");
    r.push("core.server.missed", per(tr.fault_missed), "count");
    r.push("core.server.duplicates", per(tr.fault_duplicates), "count");
    r.push("recovery.journal.records", per(w.records), "count");
    r.push("recovery.journal.append_us", us_per(w.append_ns, n), "us");
    r.push("recovery.journal.wal_bytes", per(tr.wal_bytes), "bytes");
    r.push(
        "recovery.journal.snapshot_bytes",
        per(tr.snapshot_bytes),
        "bytes",
    );
    r.push("recovery.wal.parse_us", us_per(w.parse_ns, n), "us");
    r.push("recovery.codec.save_us", us_per(w.save_ns, n), "us");
    r.push("recovery.codec.restore_us", us_per(w.restore_ns, n), "us");
    r.push(
        "recovery.codec.checkpoint_bytes",
        w.checkpoint_bytes as f64 / w.checkpoints.max(1) as f64,
        "bytes",
    );
    r.push("core.optimizer.self_us", us_per(w.optimizer_ns, n), "us");
    r.push("surface.database.eval_us", us_per(w.db_ns, n), "us");
    r.push(
        "surface.database.exact_hit_ratio",
        w.db_exact as f64 / w.db_evals.max(1) as f64,
        "ratio",
    );
    r.push("telemetry.sink.record_us", us_per(tr.sink_ns, n), "us");
    r.push("telemetry.records", per(tr.sink_records), "count");
    r.push(
        "recovery.resume.outcome_mismatch",
        outcome_mismatch as f64,
        "count",
    );
    r.push(
        "recovery.resume.report_mismatch",
        report_mismatch as f64,
        "count",
    );
    r.push(
        "recovery.resume.ms_p50",
        crate::report::median(resume_ms),
        "ms",
    );
    r.push(
        "recovery.resume.ms_p99",
        crate::report::percentile(resume_ms, 0.99),
        "ms",
    );
    r.push("trace.sessions", n as f64, "count");
    r.push("trace.session_ms_p99", tr.session_ms_p99, "ms");
    r.push("trace.session_us", us_per(tr.wall_ns, n), "us");
    r.push(
        "trace.coverage",
        inside as f64 / tr.wall_ns.max(1) as f64,
        "ratio",
    );
    r.push(
        "trace.overhead_frac",
        tr.wall_ns as f64 / tr.untraced_ns.max(1) as f64 - 1.0,
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing_sink::TimingSink;

    fn scratch(name: &str) -> PathBuf {
        let d = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(TMP_ROOT)
            .join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn timing_sink_forwards_every_record_unchanged() {
        let inputs = Inputs::new(5);
        let root = scratch("sink");
        let mut compared = 0;
        for i in 0..40 {
            let plain = recorder();
            let a = inputs.session(i, &root.join(format!("{i}a")), plain.clone());
            let timed = Arc::new(TimingSink::new(recorder()));
            let b = inputs.session(i, &root.join(format!("{i}b")), timed.clone());
            assert_eq!(a, b, "the sink must not change the session");
            let wrapped = &timed.inner;
            assert_eq!(plain.metrics(), wrapped.metrics());
            assert_eq!(plain.dump("end"), wrapped.dump("end"));
            let pm = plain.post_mortems();
            assert_eq!(pm, wrapped.post_mortems());
            assert!(timed.records() > 0);
            compared += usize::from(!pm.is_empty());
        }
        let _ = std::fs::remove_dir_all(&root);
        assert!(
            compared > 0,
            "no session opened a breaker, so no post-mortem was compared"
        );
    }

    #[test]
    fn wal_replay_counters_agree_with_the_outcome() {
        let inputs = Inputs::new(9);
        let root = scratch("wal");
        let mut faulty = 0;
        for i in 0..12 {
            let dir = root.join(format!("{i}"));
            let out = inputs
                .session(i, &dir, recorder())
                .expect("transient faults only: the session ends Ok");
            let lines = SessionJournal::at_dir(&dir)
                .and_then(|j| j.wal_lines())
                .expect("readable journal");
            let mut acc = WalReplay::default();
            let best = replay_wal(&lines, inputs.db(i), &root.join(format!("{i}r")), &mut acc)
                .expect("replayable WAL");
            let f = out.outcome.faults;
            assert_eq!(acc.missed, f.missed_reports as u64, "session {i}");
            assert_eq!(acc.retries, f.retries as u64, "session {i}");
            assert_eq!(acc.duplicates, f.duplicate_reports as u64, "session {i}");
            assert_eq!(acc.rounds, out.outcome.trace.len() as u64, "session {i}");
            assert_eq!(acc.records, lines.len() as u64);
            assert_eq!(best, Some(out.outcome.best_point), "session {i}");
            faulty += usize::from(!f.is_clean());
        }
        let _ = std::fs::remove_dir_all(&root);
        assert!(faulty > 0, "the fault plan fired in no session");
    }
}
