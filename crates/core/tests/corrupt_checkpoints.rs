//! Corrupt checkpoints are rejected at restore, never accepted and then
//! panicking later.
//!
//! Each test drives an optimizer for 4 batches, checkpoints it, and
//! flips every byte of the checkpoint with the masks 0x01, 0x80 and
//! 0xFF. Every mutant must either fail to restore with a typed error or
//! survive 6 more propose/observe steps without a panic.

use harmony_core::nelder_mead::NelderMead;
use harmony_core::sro::SroOptimizer;
use harmony_core::{restarting_pro, Optimizer, ProConfig, ProOptimizer};
use harmony_params::{ParamDef, ParamSpace, Point};
use harmony_recovery::{restore_from_slice, save_to_vec, Checkpoint};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamDef::integer("x", -10, 10, 1).unwrap(),
        ParamDef::integer("y", -10, 10, 1).unwrap(),
    ])
    .unwrap()
}

fn bowl(p: &Point) -> f64 {
    1.0 + (p[0] - 3.0).powi(2) + (p[1] + 2.0).powi(2)
}

/// Runs up to `batches` propose/observe rounds (fewer once the
/// optimizer proposes nothing).
fn step<O: Optimizer + ?Sized>(opt: &mut O, batches: usize) {
    for _ in 0..batches {
        let batch = opt.propose();
        if batch.is_empty() {
            return;
        }
        let values: Vec<f64> = batch.iter().map(bowl).collect();
        opt.observe(&values);
    }
}

/// Byte-flips a checkpoint of `make()` taken after 4 batches and returns
/// the mutants that restored `Ok` and then panicked, as
/// `(byte offset, mask, panic message)`.
fn restored_then_panicked<O, F>(make: F) -> Vec<(usize, u8, String)>
where
    O: Optimizer + Checkpoint,
    F: Fn() -> O,
{
    let mut original = make();
    step(&mut original, 4);
    let bytes = save_to_vec(&original);
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut bad = Vec::new();
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut mutant = bytes.clone();
            mutant[i] ^= mask;
            let mut fresh = make();
            if restore_from_slice(&mut fresh, &mutant).is_err() {
                continue;
            }
            if let Err(e) = catch_unwind(AssertUnwindSafe(|| step(&mut fresh, 6))) {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                bad.push((i, mask, msg));
            }
        }
    }
    std::panic::set_hook(quiet);
    bad
}

#[test]
fn pro_rejects_or_survives_every_byte_flip() {
    let bad = restored_then_panicked(|| ProOptimizer::with_defaults(space()));
    assert!(bad.is_empty(), "restored, then panicked: {bad:?}");
}

#[test]
fn sro_rejects_or_survives_every_byte_flip() {
    let bad = restored_then_panicked(|| SroOptimizer::with_defaults(space()));
    assert!(bad.is_empty(), "restored, then panicked: {bad:?}");
}

#[test]
fn nelder_mead_rejects_or_survives_every_byte_flip() {
    let bad = restored_then_panicked(|| NelderMead::with_defaults(space()));
    assert!(bad.is_empty(), "restored, then panicked: {bad:?}");
}

#[test]
fn restarting_pro_rejects_or_survives_every_byte_flip() {
    let bad = restored_then_panicked(|| restarting_pro(space(), ProConfig::default(), 4, 7));
    assert!(bad.is_empty(), "restored, then panicked: {bad:?}");
}
