//! Warm-starting new tuning sessions from neighbours' measurements.
//!
//! A session joining an ongoing multi-session tuning effort should not
//! start its simplex at the default center when dozens of neighbours
//! have already published estimates into the shared tier
//! ([`harmony_surface::SharedPerfDb`]). [`warm_start_center`] turns
//! those published estimates into a starting point, and the caller
//! recenters its optimizer there — e.g.
//! [`ProOptimizer::recenter`](crate::pro::ProOptimizer::recenter) —
//! before the session starts.
//!
//! The raw minimum of the published estimates is an *extreme-value
//! biased* record: under min-of-K estimation the luckiest draw ever
//! seen wins, not the best configuration. So instead of trusting it,
//! each published point is scored by its own estimate averaged with the
//! inverse-distance interpolation (§6's mechanism for unmeasured
//! points) one lattice step away in every direction — a lucky outlier
//! surrounded by expensive neighbourhoods scores poorly, while a point
//! inside a genuinely cheap basin keeps its low score. The center is
//! the published point with the lowest smoothed score.
//!
//! The selection lives beside the shared tier's flat read view as
//! [`SharedPerfDb::smoothed_best`]: it is a pure function of the
//! published snapshot, so every session warm-starting from the same
//! flushed state picks the same center regardless of scheduling, and
//! the tier computes it once per flush — later sessions of a wave reuse
//! the memo.

use harmony_params::Point;
use harmony_surface::SharedPerfDb;

/// The starting center for a new session: the published point with the
/// lowest neighbourhood-smoothed estimate (see the module docs), or
/// `None` while nothing is published (cold start — the caller keeps its
/// default initial simplex). The returned point is always admissible:
/// it is one of the published entries.
pub fn warm_start_center(estimates: &SharedPerfDb) -> Option<Point> {
    estimates.smoothed_best()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_params::{ParamDef, ParamSpace};

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("a", 0, 10, 1).unwrap(),
            ParamDef::integer("b", 0, 10, 1).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn empty_tier_gives_no_center() {
        let db = SharedPerfDb::new(space(), 2);
        assert_eq!(warm_start_center(&db), None);
    }

    #[test]
    fn single_entry_is_the_center() {
        let db = SharedPerfDb::new(space(), 1);
        db.record(&Point::from(&[4.0, 7.0][..]), 3.0);
        db.flush();
        assert_eq!(warm_start_center(&db), Some(Point::from(&[4.0, 7.0][..])));
    }

    #[test]
    fn lucky_outlier_loses_to_a_cheap_basin() {
        let db = SharedPerfDb::new(space(), 1);
        // a lucky min-of-K draw at (2,2) surrounded by expensive
        // measurements...
        db.record(&Point::from(&[2.0, 2.0][..]), 1.0);
        for (x, y) in [(1.0, 2.0), (3.0, 2.0), (2.0, 1.0), (2.0, 3.0)] {
            db.record(&Point::from(&[x, y][..]), 50.0);
        }
        // ...versus a consistently cheap basin around (8,8)
        db.record(&Point::from(&[8.0, 8.0][..]), 2.0);
        for (x, y) in [(7.0, 8.0), (9.0, 8.0), (8.0, 7.0), (8.0, 9.0)] {
            db.record(&Point::from(&[x, y][..]), 2.5);
        }
        db.flush();
        let center = warm_start_center(&db).unwrap();
        assert!(
            center[0] >= 7.0 && center[1] >= 7.0,
            "picked the outlier: {center:?}"
        );
        // deterministic: repeated calls agree exactly
        assert_eq!(warm_start_center(&db), Some(center));
    }
}
