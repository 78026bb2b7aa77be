//! Chaos suite: property-based tests of the fault-tolerant server.
//!
//! The resilient server is *deterministic by construction* — fault
//! decisions are pure hashes of `(plan seed, client, task serial)` and
//! time is logical, so the same seed and the same [`FaultPlan`] must
//! reproduce the same [`TuningOutcome`] bit for bit regardless of
//! thread scheduling. These tests replay whole sessions to enforce
//! that, plus the ISSUE acceptance bound: a session losing a quarter of
//! its clients and 10% of its reports still tunes GS2 to within 2× of
//! the fault-free best true cost.
//!
//! CI runs this file with an elevated `PROPTEST_CASES` as the chaos
//! step.

use harmony::core::restarting_pro;
use harmony::prelude::*;
use harmony::recovery::{restore_from_slice, save_to_vec, ExploitKind, WalRecord};
use harmony::surface::objective::FnObjective;
use proptest::prelude::*;

fn space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamDef::integer("x", -12, 12, 1).unwrap(),
        ParamDef::integer("y", -12, 12, 1).unwrap(),
    ])
    .unwrap()
}

fn bowl() -> FnObjective<impl Fn(&Point) -> f64 + Sync> {
    FnObjective::new("bowl", space(), |p| 1.0 + 0.1 * (p[0] * p[0] + p[1] * p[1]))
}

fn session(
    seed: u64,
    procs: usize,
    steps: usize,
    plan: &FaultPlan,
) -> Result<TuningOutcome, ServerError> {
    let obj = bowl();
    let mut pro = ProOptimizer::with_defaults(space());
    let cfg = ServerConfig::new(procs, steps, Estimator::Single, seed).unwrap();
    run_session(
        &obj,
        &Noise::paper_default(0.2),
        &mut pro,
        cfg,
        SessionOptions {
            plan: *plan,
            ..SessionOptions::default()
        },
    )
    .map(|s| s.outcome)
}

/// [`session`] through a flight recorder: returns the outcome plus
/// whatever post-mortems the recorder dumped.
fn session_with_flight_recorder(
    seed: u64,
    procs: usize,
    steps: usize,
    plan: &FaultPlan,
) -> (
    Result<TuningOutcome, ServerError>,
    Vec<harmony::telemetry::PostMortem>,
) {
    let obj = bowl();
    let mut pro = ProOptimizer::with_defaults(space());
    let cfg = ServerConfig::new(procs, steps, Estimator::Single, seed).unwrap();
    let recorder = std::sync::Arc::new(FlightRecorder::new(64));
    let tel = Telemetry::with_config(recorder.clone(), TelemetryConfig::default());
    let out = harmony::core::server::run_session(
        &obj,
        &Noise::paper_default(0.2),
        &mut pro,
        cfg,
        SessionOptions {
            plan: *plan,
            telemetry: tel.clone(),
            ..SessionOptions::default()
        },
    )
    .map(|s| s.outcome);
    (out, recorder.take_post_mortems())
}

/// Deterministic pseudo-observations: the bowl cost plus a small
/// seed-hashed perturbation — interesting optimizer trajectories, exact
/// reproducibility, no session machinery needed.
fn pseudo_values(batch: &[Point], seed: u64, round: usize) -> Vec<f64> {
    batch
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let cost = 1.0 + 0.1 * (p[0] * p[0] + p[1] * p[1]);
            let h = stream_seed(seed, (round * 131 + i) as u64) % 1_000;
            cost + h as f64 / 5_000.0
        })
        .collect()
}

/// Advances an optimizer through `batches` ask/tell rounds.
fn drive(opt: &mut dyn Optimizer, seed: u64, from: usize, batches: usize) {
    for b in 0..batches {
        let batch = opt.propose();
        if batch.is_empty() {
            return;
        }
        let values = pseudo_values(&batch, seed, from + b);
        opt.observe(&values);
    }
}

proptest! {
    /// Same seed + same fault plan ⇒ bit-identical outcome (Ok or Err).
    #[test]
    fn replay_is_bit_identical(
        seed in 0u64..2_000,
        plan_seed in 0u64..2_000,
        procs in 2usize..9,
        crash in 0.0f64..0.6,
        hang in 0.0f64..0.3,
        dup in 0.0f64..0.2,
    ) {
        let plan = FaultPlan::new(plan_seed, crash, hang, hang, dup);
        let a = session(seed, procs, 25, &plan);
        let b = session(seed, procs, 25, &plan);
        prop_assert_eq!(a, b);
    }

    /// A fault-free plan reproduces the plain distributed path exactly.
    #[test]
    fn fault_free_plan_matches_run_distributed(
        seed in 0u64..2_000,
        procs in 1usize..9,
    ) {
        let resilient = session(seed, procs, 30, &FaultPlan::none()).unwrap();
        let obj = bowl();
        let mut pro = ProOptimizer::with_defaults(space());
        let cfg = ServerConfig::new(procs, 30, Estimator::Single, seed).unwrap();
        let plain = run_session(&obj, &Noise::paper_default(0.2), &mut pro, cfg, SessionOptions::default()).unwrap().outcome;
        prop_assert_eq!(&resilient, &plain);
        prop_assert!(resilient.faults.is_clean());
    }

    /// Journalled sessions resume bit-identically from a kill at *any*
    /// batch boundary — including failed sessions, which must fail the
    /// same way again — under arbitrary fault plans and snapshot
    /// cadences.
    #[test]
    fn resume_after_random_kill_is_bit_identical(
        seed in 0u64..2_000,
        plan_seed in 0u64..2_000,
        procs in 2usize..9,
        crash in 0.0f64..0.4,
        kill_frac in 0.0f64..1.0,
        snap in 0u64..4,
    ) {
        let plan = FaultPlan::new(plan_seed, crash, 0.0, crash * 0.6, 0.0);
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let cfg = ServerConfig::new(procs, 25, Estimator::Single, seed).unwrap();
        let recovery = RecoveryConfig { snapshot_every: snap };

        let mut journal = SessionJournal::in_memory();
        let mut pro = ProOptimizer::with_defaults(space());
        let full = run_session(&obj, &noise, &mut pro, cfg, SessionOptions { plan, journal: Some(&mut journal), recovery, ..SessionOptions::default() }).map(|s| s.outcome);

        let records = journal.wal_lines().unwrap().len().saturating_sub(1);
        let kill = ((records as f64) * kill_frac) as usize;
        let mut part = journal.clone();
        part.truncate_records(kill).unwrap();
        let mut pro2 = ProOptimizer::with_defaults(space());
        let resumed = run_session(&obj, &noise, &mut pro2, cfg, SessionOptions { plan, journal: Some(&mut part), recovery, ..SessionOptions::default() }).map(|s| s.outcome);
        prop_assert_eq!(full, resumed);
    }

    /// Checkpoint round-trip identity for every optimizer: saving after
    /// a few warm-up batches and restoring into a freshly constructed
    /// twin reproduces the exact future (proposals, observations,
    /// recommendation).
    #[test]
    fn checkpoint_roundtrip_preserves_optimizer_future(
        seed in 0u64..5_000,
        warm in 1usize..8,
        which in 0usize..5,
    ) {
        let make = |which: usize| -> Box<dyn Optimizer> {
            match which {
                0 => Box::new(ProOptimizer::with_defaults(space())),
                1 => Box::new(SroOptimizer::with_defaults(space())),
                2 => Box::new(NelderMead::with_defaults(space())),
                3 => Box::new(SurrogateOptimizer::with_defaults(space(), seed)),
                _ => Box::new(restarting_pro(space(), ProConfig::default(), 3, seed)),
            }
        };
        let mut original = make(which);
        let mut fresh = make(which);

        drive(original.as_mut(), seed, 0, warm);
        let bytes = save_to_vec(original.as_checkpoint().expect("optimizer is checkpointable"));
        restore_from_slice(
            fresh.as_checkpoint_mut().expect("optimizer is checkpointable"),
            &bytes,
        )
        .expect("checkpoint restores cleanly");

        for b in 0..6 {
            let a = original.propose();
            let z = fresh.propose();
            prop_assert_eq!(&a, &z, "proposal {} diverged", b);
            if a.is_empty() {
                break;
            }
            let values = pseudo_values(&a, seed, warm + b);
            original.observe(&values);
            fresh.observe(&values);
        }
        prop_assert_eq!(original.recommendation(), fresh.recommendation());
        prop_assert_eq!(original.converged(), fresh.converged());
    }

    /// Supervised sessions are as deterministic as plain ones: same
    /// seed + plan + supervisor config ⇒ bit-identical outcome and
    /// supervisor report (Ok or Err).
    #[test]
    fn supervised_replay_is_bit_identical(
        seed in 0u64..2_000,
        plan_seed in 0u64..2_000,
        procs in 2usize..9,
        hang in 0.0f64..0.5,
        drop in 0.0f64..0.4,
    ) {
        let plan = FaultPlan::new(plan_seed, 0.0, hang, drop, 0.0);
        let obj = bowl();
        let noise = Noise::paper_default(0.2);
        let cfg = ServerConfig::new(procs, 25, Estimator::Single, seed).unwrap();
        let run = || {
            let mut pro = ProOptimizer::with_defaults(space());
            run_session(&obj, &noise, &mut pro, cfg, SessionOptions { plan, supervisor: Some(SupervisorConfig::default()), ..SessionOptions::default() })
        };
        prop_assert_eq!(run(), run());
    }

    /// Killing every client is a typed error, never a hang or a panic.
    /// The budget (250 steps) comfortably exceeds the worst case in
    /// which every client survives to the crash-serial horizon, so the
    /// session cannot finish before the fleet is gone. Depending on when
    /// the deaths land, the server reports either the empty fleet or a
    /// batch that lost its quorum to the abandoned slots. Either way the
    /// flight recorder must dump a readable post-mortem naming the
    /// terminal event.
    #[test]
    fn total_crash_is_a_typed_error(
        seed in 0u64..2_000,
        plan_seed in 0u64..2_000,
        procs in 1usize..7,
    ) {
        let plan = FaultPlan::new(plan_seed, 1.0, 0.0, 0.0, 0.0);
        let (out, post_mortems) = session_with_flight_recorder(seed, procs, 250, &plan);
        let expected_event = match out {
            Err(ServerError::AllClientsDead { .. }) => "server.all_dead",
            Err(ServerError::QuorumNotReached { .. }) => "server.quorum_fail",
            other => return Err(format!("expected a fleet-death error, got {other:?}")),
        };
        prop_assert!(!post_mortems.is_empty(), "injected failure left no post-mortem");
        prop_assert_eq!(&post_mortems[0].reason, expected_event);
        prop_assert!(post_mortems[0].text.contains("-- metrics --"));
    }
}

/// ISSUE acceptance: exhaustive kill-point sweep. A journaled,
/// supervised, traced session killed after *every* WAL record resumes to
/// a byte-identical outcome and supervisor report at every snapshot
/// cadence. WAL-only mode (cadence 0) also re-emits the full telemetry
/// stream; a snapshot resume skips pre-snapshot events by design.
#[test]
fn every_kill_point_resumes_byte_identically_with_supervision() {
    let obj = bowl();
    let noise = Noise::paper_default(0.2);
    let cfg = ServerConfig::new(6, 30, Estimator::Single, 2005).unwrap();
    let plan = FaultPlan::new(41, 0.2, 0.15, 0.1, 0.05);
    let sup = SupervisorConfig::default();

    for snapshot_every in 0..=3 {
        let recovery = RecoveryConfig { snapshot_every };
        let run = |journal: &mut SessionJournal| {
            let (tel, sink) = Telemetry::memory();
            let mut pro = ProOptimizer::with_defaults(space());
            let out = run_session(
                &obj,
                &noise,
                &mut pro,
                cfg,
                SessionOptions {
                    plan,
                    telemetry: tel.clone(),
                    journal: Some(journal),
                    recovery,
                    supervisor: Some(sup),
                    ..SessionOptions::default()
                },
            );
            (out, sink.take())
        };

        let mut journal = SessionJournal::in_memory();
        let (full, full_trace) = run(&mut journal);
        let records = journal.wal_lines().unwrap().len() - 1;
        assert!(records > 3, "session committed only {records} records");
        for kill in 0..=records {
            let mut part = journal.clone();
            part.truncate_records(kill).unwrap();
            let (resumed, resumed_trace) = run(&mut part);
            assert_eq!(
                full, resumed,
                "cadence {snapshot_every}: kill after record {kill}"
            );
            if snapshot_every == 0 {
                assert_eq!(full_trace, resumed_trace, "telemetry after record {kill}");
            }
        }
    }
}

/// The surrogate tier goes through the same kill matrix as PRO: a
/// journaled, supervised, traced session killed after *every* WAL
/// record resumes to a byte-identical outcome, supervisor report, and
/// telemetry stream.
#[test]
fn surrogate_kill_matrix_resumes_byte_identically() {
    let obj = bowl();
    let noise = Noise::paper_default(0.2);
    let cfg = ServerConfig::new(6, 30, Estimator::Single, 2005).unwrap();
    let plan = FaultPlan::new(41, 0.2, 0.15, 0.1, 0.05);
    let sup = SupervisorConfig::default();

    let run = |journal: &mut SessionJournal| {
        let (tel, sink) = Telemetry::memory();
        let mut opt = SurrogateOptimizer::with_defaults(space(), 2005);
        let out = run_session(
            &obj,
            &noise,
            &mut opt,
            cfg,
            SessionOptions {
                plan,
                telemetry: tel.clone(),
                journal: Some(journal),
                supervisor: Some(sup),
                ..SessionOptions::default()
            },
        );
        (out, sink.take())
    };

    let mut journal = SessionJournal::in_memory();
    let (full, full_trace) = run(&mut journal);
    let records = journal.wal_lines().unwrap().len() - 1;
    assert!(records > 3, "session committed only {records} records");
    for kill in 0..=records {
        let mut part = journal.clone();
        part.truncate_records(kill).unwrap();
        let (resumed, resumed_trace) = run(&mut part);
        assert_eq!(full, resumed, "kill after record {kill}");
        assert_eq!(full_trace, resumed_trace, "telemetry after record {kill}");
    }
}

/// Runs (or resumes) a small supervised, journalled session.
fn journalled(
    journal: &mut SessionJournal,
    recovery: RecoveryConfig,
) -> Result<SupervisedOutcome, ServerError> {
    let mut pro = ProOptimizer::with_defaults(space());
    let opts = SessionOptions {
        plan: FaultPlan::new(5, 0.2, 0.2, 0.1, 0.05),
        journal: Some(journal),
        recovery,
        supervisor: Some(SupervisorConfig::default()),
        ..SessionOptions::default()
    };
    let cfg = ServerConfig::new(4, 40, Estimator::Single, 11).unwrap();
    run_session(&bowl(), &Noise::paper_default(0.2), &mut pro, cfg, opts)
}

/// Applies mutation `m` of [`journal_client_indices_are_checked_on_resume`]
/// to `rec`: a client index equal to `procs` in each place a record names
/// clients, or a duplicated live client. `false` when `rec` has no such
/// place.
fn corrupt_clients(rec: &mut WalRecord, m: usize, procs: usize) -> bool {
    match (rec, m) {
        (WalRecord::Batch(b), 0) => b.live.push(procs),
        (WalRecord::Exploit(e), 0) => e.live.push(procs),
        (WalRecord::Batch(b), 1) if !b.live.is_empty() => b.live.push(b.live[0]),
        (WalRecord::Exploit(e), 1) if !e.live.is_empty() => e.live.push(e.live[0]),
        (WalRecord::Batch(b), 2) => b.rounds[0].clients[0] = procs,
        (WalRecord::Batch(b), 3) => b.rounds[0].evicted.push(procs),
        (WalRecord::Exploit(e), 4) => e.pre_evicted.push(procs),
        (WalRecord::Exploit(e), 5) => e.kind = ExploitKind::Died(procs),
        _ => return false,
    }
    true
}

/// A WAL record naming a client index outside the fleet (or a live set
/// that is not strictly ascending) resumes to a typed recovery error
/// instead of indexing past a client table.
#[test]
fn journal_client_indices_are_checked_on_resume() {
    let mut journal = SessionJournal::in_memory();
    journalled(&mut journal, RecoveryConfig::default()).unwrap();
    let lines = journal.wal_lines().unwrap();
    for m in 0..6 {
        let mut hits = 0;
        for kill in 1..lines.len() {
            let mut rec = WalRecord::from_line(&lines[kill]).unwrap();
            if !corrupt_clients(&mut rec, m, 4) {
                continue;
            }
            hits += 1;
            let mut part = SessionJournal::in_memory();
            for line in &lines[..kill] {
                part.append_wal(line).unwrap();
            }
            part.append_wal(&rec.to_line()).unwrap();
            let out = journalled(&mut part, RecoveryConfig::default());
            assert!(
                matches!(out, Err(ServerError::Recovery(_))),
                "mutation {m} of WAL line {kill}: {out:?}"
            );
        }
        assert!(hits > 0, "no WAL record takes mutation {m}");
    }
}

/// Every single-byte corruption (masks 0x01, 0x80, 0xFF) of a
/// supervised session's snapshot either resumes or fails with a typed
/// error — none panics.
#[test]
fn corrupt_session_snapshots_never_panic_on_resume() {
    let recovery = RecoveryConfig { snapshot_every: 2 };
    let mut journal = SessionJournal::in_memory();
    journalled(&mut journal, recovery).unwrap();
    // keep the WAL up to the first snapshot, so the resumed session
    // restores the mutant and then tunes live on top of it
    journal.truncate_records(2).unwrap();
    let (batch, bytes) = journal
        .latest_snapshot()
        .unwrap()
        .expect("snapshot at batch 2");
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut panicked = Vec::new();
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut mutant = bytes.clone();
            mutant[i] ^= mask;
            let mut part = journal.clone();
            part.put_snapshot(batch, &mutant).unwrap();
            let resume = || journalled(&mut part, recovery);
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(resume)).is_err() {
                panicked.push((i, mask));
            }
        }
    }
    std::panic::set_hook(quiet);
    assert!(panicked.is_empty(), "resume panicked at {panicked:?}");
}

/// Every single-byte corruption (masks 0x01, 0x80, 0xFF) of a header, a
/// batch and an exploit WAL line parses to `Ok` or `Err` without a
/// panic, and a journal holding the flipped line resumes `Ok` or fails
/// with `ServerError::Recovery`. An in-memory journal holds text, so the
/// flipped bytes enter it as lossy UTF-8; a directory journal holding
/// the raw non-UTF-8 bytes fails typed.
#[test]
fn flipped_wal_lines_never_panic() {
    let mut journal = SessionJournal::in_memory();
    journalled(&mut journal, RecoveryConfig::default()).unwrap();
    let lines = journal.wal_lines().unwrap();
    let first = |t: &str| {
        let tag = format!("{{\"t\":\"{t}\"");
        lines
            .iter()
            .position(|l| l.starts_with(&tag))
            .unwrap_or_else(|| panic!("no {t} record"))
    };
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (mut panicked, mut untyped) = (Vec::new(), Vec::new());
    let dir = std::env::temp_dir().join(format!("harmony-wal-flip-{}", std::process::id()));
    for idx in [first("hdr"), first("batch"), first("exploit")] {
        let bytes = lines[idx].as_bytes();
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut mutant = bytes.to_vec();
                mutant[i] ^= mask;
                let line = String::from_utf8_lossy(&mutant).into_owned();
                let parse = || WalRecord::from_line(&line).is_ok();
                if std::panic::catch_unwind(parse).is_err() {
                    panicked.push((idx, i, mask, "parse"));
                }
                let mut part = SessionJournal::in_memory();
                for (j, l) in lines.iter().enumerate() {
                    part.append_wal(if j == idx { &line } else { l }).unwrap();
                }
                let resume = || journalled(&mut part, RecoveryConfig::default());
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(resume)) {
                    Err(_) => panicked.push((idx, i, mask, "resume")),
                    Ok(Ok(_) | Err(ServerError::Recovery(_))) => {}
                    Ok(Err(e)) => untyped.push((idx, i, mask, e.to_string())),
                }
            }
        }
        // the raw bytes in a directory journal: not UTF-8, so not a WAL
        let mut text = Vec::new();
        for (j, l) in lines.iter().enumerate() {
            let start = text.len();
            text.extend_from_slice(l.as_bytes());
            if j == idx {
                text[start + 1] ^= 0x80;
            }
            text.push(b'\n');
        }
        let _ = std::fs::remove_dir_all(&dir);
        let mut raw = SessionJournal::at_dir(&dir).unwrap();
        std::fs::write(dir.join("wal.jsonl"), text).unwrap();
        match journalled(&mut raw, RecoveryConfig::default()) {
            Err(ServerError::Recovery(_)) => {}
            other => untyped.push((idx, 1, 0x80, format!("directory journal: {other:?}"))),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    std::panic::set_hook(quiet);
    assert!(panicked.is_empty(), "panics at {panicked:?}");
    assert!(untyped.is_empty(), "untyped errors: {untyped:?}");
}

/// ISSUE acceptance: 25% crashes + 10% hangs on GS2 still terminates
/// `Ok` with a best true cost within 2× of the fault-free session.
#[test]
fn gs2_survives_quarter_crashes_within_2x() {
    let gs2 = Gs2Model::paper_scale();
    let noise = Noise::paper_default(0.1);
    let run = |plan: &FaultPlan| {
        let mut pro = ProOptimizer::with_defaults(gs2.space().clone());
        let cfg = ServerConfig::new(16, 60, Estimator::Single, 2005).unwrap();
        run_session(
            &gs2,
            &noise,
            &mut pro,
            cfg,
            SessionOptions {
                plan: *plan,
                ..SessionOptions::default()
            },
        )
        .map(|s| s.outcome)
    };
    let clean = run(&FaultPlan::none()).expect("fault-free session terminates");
    let faulty =
        run(&FaultPlan::new(99, 0.25, 0.10, 0.10, 0.05)).expect("faulty session still terminates");
    assert!(
        faulty.faults.evicted_clients > 0,
        "plan injected no crashes"
    );
    assert!(
        faulty.best_true_cost <= 2.0 * clean.best_true_cost,
        "faulty best {} vs clean best {}",
        faulty.best_true_cost,
        clean.best_true_cost
    );
}
