//! Resume from a directory journal (`wal.jsonl` plus the framed
//! `snapshots.bin`).
//!
//! A supervised PRO session with transient faults and a snapshot every
//! 4 batches journals into a directory. Each test copies that journal,
//! kills the copy at a batch boundary with `truncate_records`, damages
//! it where noted, and resumes it: the `SupervisedOutcome` must equal
//! the uninterrupted session's.

use harmony_cluster::FaultPlan;
use harmony_core::server::{
    run_session, RecoveryConfig, ServerConfig, ServerError, SessionOptions, SupervisedOutcome,
};
use harmony_core::{Estimator, ProOptimizer};
use harmony_params::{ParamDef, ParamSpace, Point};
use harmony_recovery::{SessionJournal, SupervisorConfig, WalRecord};
use harmony_surface::objective::FnObjective;
use harmony_variability::noise::Noise;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};

fn space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamDef::integer("x", -40, 40, 1).unwrap(),
        ParamDef::integer("y", -40, 40, 1).unwrap(),
        ParamDef::integer("z", -40, 40, 1).unwrap(),
    ])
    .unwrap()
}

/// Runs (or resumes) the session journalled in `dir`.
fn run(dir: &Path) -> Result<SupervisedOutcome, ServerError> {
    let bowl = FnObjective::new("bowl", space(), |p: &Point| {
        1.0 + 0.1 * ((p[0] - 29.0).powi(2) + (p[1] + 17.0).powi(2) + p[2] * p[2])
    });
    let mut journal = SessionJournal::at_dir(dir).unwrap();
    let mut pro = ProOptimizer::with_defaults(space());
    let cfg = ServerConfig::new(4, 100, Estimator::Single, 17).unwrap();
    run_session(
        &bowl,
        &Noise::paper_default(0.2),
        &mut pro,
        cfg,
        SessionOptions {
            plan: FaultPlan::new(17, 0.0, 0.1, 0.1, 0.05),
            journal: Some(&mut journal),
            recovery: RecoveryConfig { snapshot_every: 4 },
            supervisor: Some(SupervisorConfig::default()),
            ..SessionOptions::default()
        },
    )
}

/// A fresh directory private to one test.
fn temp_root(test: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("harmony-dir-journal-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    root
}

/// Copies the journal files of `from` into a fresh directory `to`.
fn copy_journal(from: &Path, to: &Path) {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

/// The uninterrupted session journalled in `root/full`, with its WAL
/// record count (header excluded).
fn full_session(root: &Path) -> (PathBuf, SupervisedOutcome, usize) {
    let dir = root.join("full");
    let full = run(&dir).expect("transient faults only: the session ends Ok");
    let journal = SessionJournal::at_dir(&dir).unwrap();
    let records = journal.wal_lines().unwrap().len() - 1;
    assert!(records > 8, "session committed several records");
    assert!(journal.size_bytes().unwrap().1 > 0, "snapshots were taken");
    assert!(!full.outcome.faults.is_clean(), "the fault plan fired");
    (dir, full, records)
}

#[test]
fn dir_journal_resumes_identically_at_batch_boundaries() {
    let root = temp_root("kill");
    let (dir, full, records) = full_session(&root);
    for kill in (0..=records).step_by(3) {
        let part = root.join(format!("kill-{kill}"));
        copy_journal(&dir, &part);
        SessionJournal::at_dir(&part)
            .unwrap()
            .truncate_records(kill)
            .unwrap();
        assert_eq!(run(&part).unwrap(), full, "kill after record {kill}");
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn damaged_last_snapshot_frame_falls_back_to_the_previous_one() {
    let root = temp_root("frame");
    let (dir, full, _) = full_session(&root);
    let journal = SessionJournal::at_dir(&dir).unwrap();
    let final_snapshot = journal.latest_snapshot().unwrap().expect("snapshot").0;
    assert!(final_snapshot >= 16, "the session outlives three snapshots");
    // kill right after batch 12 commits: frames 4, 8 and 12 survive, and
    // the resumed session goes live again in time to snapshot batch 16
    let kill = journal
        .wal_lines()
        .unwrap()
        .iter()
        .position(|l| matches!(WalRecord::from_line(l), Ok(WalRecord::Batch(b)) if b.batch == 12))
        .expect("batch 12 was journalled");
    for torn in [true, false] {
        let part = root.join(format!("torn-{torn}"));
        copy_journal(&dir, &part);
        let mut journal = SessionJournal::at_dir(&part).unwrap();
        journal.truncate_records(kill).unwrap();
        let before = journal.latest_snapshot().unwrap().expect("snapshot").0;
        let log = part.join("snapshots.bin");
        let len = fs::metadata(&log).unwrap().len();
        if torn {
            // a kill mid-write leaves the last frame short
            let file = OpenOptions::new().write(true).open(&log).unwrap();
            file.set_len(len - 7).unwrap();
        } else {
            let mut bytes = fs::read(&log).unwrap();
            *bytes.last_mut().unwrap() ^= 0x01;
            fs::write(&log, bytes).unwrap();
        }
        let after = journal.latest_snapshot().unwrap().expect("older frame").0;
        assert_eq!((before, after), (12, 8), "torn={torn}");

        assert_eq!(run(&part).unwrap(), full, "torn={torn}");
        // the resumed session's frames follow whole frames, not garbage
        let resumed = SessionJournal::at_dir(&part).unwrap();
        assert_eq!(
            resumed.latest_snapshot().unwrap().expect("snapshot").0,
            final_snapshot,
            "torn={torn}"
        );
    }
    let _ = fs::remove_dir_all(&root);
}
