//! Integration tests pinning [`SharedPerfDb`] to the single-owner
//! [`PerfDatabase`] semantics: lockstep property tests over random
//! operation sequences (interpolation and the warm-start pick), the
//! lifecycle of the memoised warm-start pick, a thread-interleaving
//! equivalence check, and a reader/writer stress test of the lock-free
//! snapshot path.

use harmony_surface::SharedPerfDb;
use proptest::prelude::*;

use harmony_params::{ParamDef, ParamSpace, Point};
use std::collections::BTreeMap;

fn space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamDef::integer("x", 0, 6, 1).unwrap(),
        ParamDef::integer("y", 0, 6, 1).unwrap(),
    ])
    .unwrap()
}

fn pt(x: i64, y: i64) -> Point {
    Point::new(vec![x as f64, y as f64])
}

/// Reference model: keep-min map keyed by coordinates.
fn model_insert(model: &mut BTreeMap<(u64, u64), f64>, p: &Point, v: f64) {
    let k = (p[0].to_bits(), p[1].to_bits());
    let e = model.entry(k).or_insert(v);
    if v < *e {
        *e = v;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random `record`/`flush` sequences leave the sharded database
    /// observationally identical — bit for bit — to a single-owner
    /// [`PerfDatabase`] built by canonical keep-min insertion: every
    /// exact lookup and every interpolation agrees on the full lattice.
    #[test]
    fn lockstep_with_single_owner_database(
        ops in prop::collection::vec(
            (0i64..7, 0i64..7, 0.0f64..100.0, 0usize..4),
            1..80,
        ),
    ) {
        let shared = SharedPerfDb::new(space(), 4);
        let mut model = BTreeMap::new();
        for (x, y, v, flush_sel) in ops {
            let p = pt(x, y);
            shared.record(&p, v);
            model_insert(&mut model, &p, v);
            if flush_sel == 0 {
                shared.flush();
            }
        }
        shared.flush();

        // entry sets agree exactly
        prop_assert_eq!(shared.len(), model.len());
        let single = shared.to_database();
        prop_assert_eq!(single.len(), model.len());

        for p in space().lattice() {
            let k = (p[0].to_bits(), p[1].to_bits());
            // exact lookups agree with the model and the single owner
            let got = shared.query(&p);
            prop_assert_eq!(got, model.get(&k).copied());
            prop_assert_eq!(got, single.get(&p));
            // interpolations are bit-identical to the single owner
            let a = shared.interpolate(&p).map(f64::to_bits);
            let b = single.try_interpolate(&p).map(f64::to_bits);
            prop_assert_eq!(a, b);
        }
    }
}

/// A mixed space — lattice, levels and continuous axes — so the
/// warm-start pick probes every kind of neighbour step.
fn mixed_space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamDef::integer("x", 0, 6, 1).unwrap(),
        ParamDef::levels("z", LEVELS.to_vec()).unwrap(),
        ParamDef::continuous("c", 0.0, 1.0).unwrap(),
    ])
    .unwrap()
}

const LEVELS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

fn mixed_pt(x: i64, z: usize, c8: i64) -> Point {
    Point::new(vec![x as f64, LEVELS[z], c8 as f64 / 8.0])
}

/// The warm-start pick as a direct scan over the canonical entries,
/// every neighbour estimated by the single-owner reference database:
/// the selection [`SharedPerfDb::smoothed_best`] must reproduce.
fn smoothed_best_oracle(db: &SharedPerfDb) -> Option<Point> {
    let entries = db.entries_canonical();
    let reference = db.to_database();
    let space = db.space().clone();
    let mut best: Option<(f64, Point)> = None;
    for (p, v) in &entries {
        let mut sum = *v;
        let mut n = 1.0;
        for (d, def) in space.params().iter().enumerate() {
            let (below, above) = def.neighbors(p[d], 0.05);
            for coord in [below, above].into_iter().flatten() {
                let mut q = p.clone();
                q.as_mut_slice()[d] = coord;
                if !space.is_admissible(&q) {
                    continue;
                }
                if let Some(iv) = reference.try_interpolate_scan(&q) {
                    sum += iv;
                    n += 1.0;
                }
            }
        }
        let score = sum / n;
        if best.as_ref().is_none_or(|(bs, _)| score < *bs) {
            best = Some((score, p.clone()));
        }
    }
    best.map(|(_, p)| p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tiers built by several record/flush rounds — with duplicate keys,
    /// few distinct values (equal scores) and lattice-symmetric layouts
    /// (equal-distance neighbours) — interpolate bit-identically to the
    /// single-owner scan, and pick the same warm-start center as the
    /// direct scan, before and after every flush.
    #[test]
    fn view_matches_single_owner_scan_and_oracle(
        rounds in prop::collection::vec(
            prop::collection::vec((0i64..7, 0usize..4, 0i64..9, 0u8..6), 1..24),
            1..5,
        ),
        k in 1usize..6,
    ) {
        let shared = SharedPerfDb::new(mixed_space(), k);
        for round in rounds {
            for (x, z, c8, v) in round {
                // small integer values force equal scores and ties
                shared.record(&mixed_pt(x, z, c8), f64::from(v));
            }
            prop_assert_eq!(shared.smoothed_best(), smoothed_best_oracle(&shared));
            shared.flush();
            prop_assert_eq!(shared.smoothed_best(), smoothed_best_oracle(&shared));

            let single = shared.to_database();
            for x in 0..7 {
                for z in LEVELS {
                    for c16 in 0..17 {
                        let q = Point::new(vec![x as f64, z, c16 as f64 / 16.0]);
                        let a = shared.interpolate(&q).map(f64::to_bits);
                        let b = single.try_interpolate_scan(&q).map(f64::to_bits);
                        prop_assert_eq!(a, b, "at {:?}", q);
                    }
                }
            }
        }
    }
}

/// The warm-start pick is memoised per published view: pending records
/// leave it alone, and `flush`, `clear` and `restore_state` each
/// publish a fresh view that recomputes it.
#[test]
fn smoothed_best_recomputes_on_every_publish() {
    let db = SharedPerfDb::new(space(), 1);
    assert_eq!(db.smoothed_best(), None);
    db.record(&pt(1, 1), 5.0);
    assert_eq!(db.smoothed_best(), None, "pending records are invisible");
    db.flush();
    assert_eq!(db.smoothed_best(), Some(pt(1, 1)));

    // a much cheaper point stays invisible until the next flush
    db.record(&pt(5, 5), 0.1);
    assert_eq!(db.smoothed_best(), Some(pt(1, 1)));
    db.flush();
    assert_eq!(db.smoothed_best(), Some(pt(5, 5)));

    // a keep-min no-op still republishes, and the pick is unchanged
    db.record(&pt(5, 5), 3.0);
    db.flush();
    assert_eq!(db.smoothed_best(), Some(pt(5, 5)));

    let saved = harmony_recovery::save_to_vec(&db);
    db.clear();
    assert_eq!(db.smoothed_best(), None);

    let mut restored = SharedPerfDb::new(space(), 1);
    restored.record(&pt(3, 3), 0.01);
    restored.flush();
    assert_eq!(restored.smoothed_best(), Some(pt(3, 3)));
    harmony_recovery::restore_from_slice(&mut restored, &saved).unwrap();
    assert_eq!(restored.smoothed_best(), Some(pt(5, 5)));
    assert_eq!(restored.smoothed_best(), smoothed_best_oracle(&restored));
}

/// Eight threads asking for the warm-start pick of one snapshot all get
/// the same point, equal to the direct scan.
#[test]
fn concurrent_smoothed_best_agrees() {
    let db = SharedPerfDb::new(space(), 4);
    for i in 0..40i64 {
        db.record(&pt(i % 7, (i * 3) % 7), ((i * 37) % 23) as f64);
    }
    db.flush();
    let want = smoothed_best_oracle(&db);
    assert!(want.is_some());
    let got: Vec<Option<Point>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8).map(|_| s.spawn(|| db.smoothed_best())).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for g in got {
        assert_eq!(g, want);
    }
}

/// Records arriving from concurrent threads in arbitrary interleavings
/// publish the same state as a serial pass: keep-min merging is
/// commutative, so thread scheduling cannot leak into the snapshot.
#[test]
fn concurrent_interleavings_match_serial_application() {
    let records: Vec<(Point, f64)> = (0..84)
        .map(|i| (pt(i % 7, (i / 7) % 7), ((i * 37) % 23) as f64))
        .collect();

    let serial = SharedPerfDb::new(space(), 4);
    for (p, v) in &records {
        serial.record(p, *v);
    }
    serial.flush();

    for round in 0..8u64 {
        let shared = SharedPerfDb::new(space(), 4);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let shared = &shared;
                let records = &records;
                s.spawn(move || {
                    for (i, (p, v)) in records.iter().enumerate() {
                        if i % 4 == t {
                            shared.record(p, *v);
                        }
                        // interleave flushes differently per round
                        if (i as u64 + round) % 11 == t as u64 {
                            shared.flush();
                        }
                    }
                });
            }
        });
        shared.flush();
        assert_eq!(
            shared.entries_canonical(),
            serial.entries_canonical(),
            "round {round}: interleaving leaked into the published state"
        );
    }
}

/// 8 readers hammer lock-free queries and interpolations while 2
/// writers keep recording and flushing. Readers check the keep-min
/// safety invariants on every observation: published values are finite,
/// never *rise* for a key (keep-min is monotone), and the final
/// canonical snapshot is strictly key-sorted and equal to a serial
/// replay. Iteration count scales with `HARMONY_STRESS_ITERS`.
#[test]
fn readers_never_observe_torn_or_rising_values() {
    let iters: usize = std::env::var("HARMONY_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    let shared = SharedPerfDb::new(space(), 4);
    let probes: Vec<Point> = space().lattice().collect();

    std::thread::scope(|s| {
        for w in 0..2u64 {
            let shared = &shared;
            s.spawn(move || {
                for i in 0..iters as u64 {
                    let x = ((i * 5 + w * 3) % 7) as i64;
                    let y = ((i * 11 + w) % 7) as i64;
                    // values drift downward so keep-min keeps winning
                    let v = 1000.0 - (i + w * 17) as f64 % 997.0;
                    shared.record(&pt(x, y), v);
                    if i % 13 == w {
                        shared.flush();
                    }
                }
                shared.flush();
            });
        }
        for r in 0..8usize {
            let shared = &shared;
            let probes = &probes;
            s.spawn(move || {
                let mut last: BTreeMap<(u64, u64), f64> = BTreeMap::new();
                for i in 0..iters {
                    let p = &probes[(i * 7 + r) % probes.len()];
                    if let Some(v) = shared.query(p) {
                        assert!(v.is_finite(), "torn read: {v}");
                        let k = (p[0].to_bits(), p[1].to_bits());
                        if let Some(&prev) = last.get(&k) {
                            assert!(v <= prev, "published value rose for {p:?}: {prev} -> {v}");
                        }
                        last.insert(k, v);
                    }
                    if i % 17 == r {
                        if let Some(iv) = shared.interpolate(p) {
                            assert!(iv.is_finite(), "torn interpolation: {iv}");
                        }
                    }
                }
            });
        }
    });

    // the final snapshot is canonical: strictly ascending keys
    let entries = shared.entries_canonical();
    assert!(!entries.is_empty());
    let keys: Vec<Vec<u64>> = entries
        .iter()
        .map(|(p, _)| p.iter().map(f64::to_bits).collect())
        .collect();
    for w in keys.windows(2) {
        assert!(w[0] < w[1], "snapshot keys out of order");
    }

    // the whole-tier view equals the union of the shard snapshots that
    // exact-key queries read
    assert_eq!(shared.len() as u64, shared.stats().entries);
    let published: BTreeMap<(u64, u64), f64> = entries
        .iter()
        .map(|(p, v)| ((p[0].to_bits(), p[1].to_bits()), *v))
        .collect();
    for p in space().lattice() {
        let k = (p[0].to_bits(), p[1].to_bits());
        assert_eq!(shared.query(&p), published.get(&k).copied(), "at {p:?}");
    }
    assert_eq!(shared.smoothed_best(), smoothed_best_oracle(&shared));

    // and equals a serial replay of the same record stream
    let replay = SharedPerfDb::new(space(), 4);
    for w in 0..2u64 {
        for i in 0..iters as u64 {
            let x = ((i * 5 + w * 3) % 7) as i64;
            let y = ((i * 11 + w) % 7) as i64;
            let v = 1000.0 - (i + w * 17) as f64 % 997.0;
            replay.record(&pt(x, y), v);
        }
    }
    replay.flush();
    assert_eq!(entries, replay.entries_canonical());
}
