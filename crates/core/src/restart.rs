//! Multi-start wrapping for any optimizer: when the inner search
//! converges, restart it from a fresh region and keep the best result
//! across starts.
//!
//! Motivation: PRO is a *local* method — on deceptive surfaces (e.g. a
//! cache-reuse gradient pointing away from a distant better basin, see
//! `examples/kernel_tuning.rs`) it converges to the basin it started
//! in. Restarts buy global coverage while keeping the cheap transient
//! behaviour that makes direct search suitable for on-line tuning —
//! a middle ground between plain PRO and the §2 randomized methods.
//!
//! Restart centers are drawn uniformly from the admissible region; the
//! wrapper is itself an [`Optimizer`], so every driver (fixed-K,
//! adaptive, threaded server) can use it unchanged.

use crate::optimizer::{Incumbent, Optimizer};
use harmony_params::{ParamSpace, Point};
use harmony_recovery::{Checkpoint, CodecError, StateReader, StateWriter};
use harmony_variability::seeded_rng;
use rand::rngs::SmallRng;
use rand::Rng;

/// Builds a fresh inner optimizer around the given start center.
///
/// The factory receives the restart index and a suggested center point;
/// implementations typically build a `ProOptimizer` whose initial
/// simplex is translated to that center (or simply ignore the center
/// and use their own initialisation).
pub type OptimizerFactory = Box<dyn FnMut(usize, &Point) -> Box<dyn Optimizer>>;

/// An [`Optimizer`] that runs its inner optimizer to convergence, then
/// restarts it from a random admissible point, up to `max_starts` times,
/// keeping the global best.
pub struct Restarting {
    space: ParamSpace,
    factory: OptimizerFactory,
    inner: Box<dyn Optimizer>,
    rng: SmallRng,
    starts: usize,
    max_starts: usize,
    incumbent: Incumbent,
    name: String,
    /// Factory arguments that built the *current* inner optimizer, so a
    /// checkpoint restore can rebuild it before restoring its state.
    current_start: usize,
    current_center: Point,
}

impl Restarting {
    /// Creates a restarting wrapper; the first start uses the space
    /// center (the paper's §3.2.3 initialisation), later starts draw
    /// uniform random centers.
    ///
    /// # Panics
    /// Panics when `max_starts == 0`.
    pub fn new(
        space: ParamSpace,
        max_starts: usize,
        seed: u64,
        mut factory: OptimizerFactory,
    ) -> Self {
        assert!(max_starts >= 1, "need at least one start");
        let center = space.center();
        let inner = factory(0, &center);
        let name = format!("restarting-{}", inner.name());
        Restarting {
            space,
            factory,
            inner,
            rng: seeded_rng(seed),
            starts: 1,
            max_starts,
            incumbent: Incumbent::new(),
            name,
            current_start: 0,
            current_center: center,
        }
    }

    /// Starts consumed so far (1 = still in the first).
    pub fn starts(&self) -> usize {
        self.starts
    }

    fn random_center(&mut self) -> Point {
        let unit: Vec<f64> = (0..self.space.dims())
            .map(|_| self.rng.random::<f64>())
            .collect();
        self.space.point_from_unit(&unit)
    }
}

impl Checkpoint for Restarting {
    fn save_state(&self, w: &mut StateWriter) {
        w.tag("restart");
        w.u64_slice(&self.rng.state());
        w.usize(self.starts);
        w.usize(self.current_start);
        w.point(&self.current_center);
        self.incumbent.save_state(w);
        self.inner
            .as_checkpoint()
            .expect("restarting wrapper checkpoints require a checkpointable inner optimizer")
            .save_state(w);
    }

    fn restore_state(&mut self, r: &mut StateReader) -> Result<(), CodecError> {
        r.tag("restart")?;
        let state: [u64; 4] = r
            .u64_vec()?
            .try_into()
            .map_err(|_| CodecError::BadValue("bad rng state length".into()))?;
        self.rng = SmallRng::from_state(state);
        self.starts = r.usize()?;
        self.current_start = r.usize()?;
        self.current_center = r.point()?;
        // later starts recenter their optimizer there, which requires
        // an admissible point
        if self.current_start > 0 && !self.space.is_admissible(&self.current_center) {
            return Err(CodecError::BadValue(format!(
                "inadmissible restart center {:?}",
                self.current_center
            )));
        }
        self.incumbent.restore_state(r)?;
        // rebuild the inner optimizer exactly as the factory originally
        // did, then restore its internal state on top
        self.inner = (self.factory)(self.current_start, &self.current_center);
        match self.inner.as_checkpoint_mut() {
            Some(c) => c.restore_state(r),
            None => Err(CodecError::BadValue(
                "factory built a non-checkpointable optimizer".into(),
            )),
        }
    }
}

impl Optimizer for Restarting {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn propose(&mut self) -> Vec<Point> {
        loop {
            let batch = self.inner.propose();
            if !batch.is_empty() {
                return batch;
            }
            if self.starts >= self.max_starts {
                return Vec::new();
            }
            let center = self.random_center();
            self.inner = (self.factory)(self.starts, &center);
            self.current_start = self.starts;
            self.current_center = center;
            self.starts += 1;
        }
    }

    fn observe(&mut self, values: &[f64]) {
        // mirror the inner proposal so the incumbent sees every estimate
        let batch = self.inner.propose();
        for (p, &v) in batch.iter().zip(values) {
            self.incumbent.offer(p, v);
        }
        self.inner.observe(values);
    }

    fn best(&self) -> Option<(Point, f64)> {
        self.incumbent.get()
    }

    fn recommendation(&self) -> Option<(Point, f64)> {
        // deploy the best across all starts: the inner optimizer's
        // current recommendation competes with earlier starts' results
        match (self.incumbent.get(), self.inner.recommendation()) {
            (Some((gp, gv)), Some((ip, iv))) => {
                if iv <= gv {
                    Some((ip, iv))
                } else {
                    Some((gp, gv))
                }
            }
            (global, inner) => inner.or(global),
        }
    }

    fn converged(&self) -> bool {
        self.starts >= self.max_starts && self.inner.converged()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn as_checkpoint(&self) -> Option<&dyn Checkpoint> {
        // checkpointable exactly when the current inner optimizer is
        self.inner.as_checkpoint().map(|_| self as &dyn Checkpoint)
    }

    fn as_checkpoint_mut(&mut self) -> Option<&mut dyn Checkpoint> {
        if self.inner.as_checkpoint().is_some() {
            Some(self)
        } else {
            None
        }
    }
}

/// Convenience: restarting PRO with translated initial simplexes.
pub fn restarting_pro(
    space: ParamSpace,
    cfg: crate::pro::ProConfig,
    max_starts: usize,
    seed: u64,
) -> Restarting {
    let factory_space = space.clone();
    Restarting::new(
        space,
        max_starts,
        seed,
        Box::new(move |start, center| {
            let mut pro = Box::new(crate::pro::ProOptimizer::new(factory_space.clone(), cfg));
            if start > 0 {
                pro.recenter(center);
            }
            pro
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pro::{ProConfig, ProOptimizer};
    use harmony_params::ParamDef;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("x", 0, 40, 1).unwrap(),
            ParamDef::integer("y", 0, 40, 1).unwrap(),
        ])
        .unwrap()
    }

    /// Deceptive objective: broad shallow basin at (30, 30), deep narrow
    /// basin at (4, 4).
    fn deceptive(p: &Point) -> f64 {
        let shallow = 5.0 + 0.02 * ((p[0] - 30.0).powi(2) + (p[1] - 30.0).powi(2));
        let deep = 1.0 + 2.0 * ((p[0] - 4.0).powi(2) + (p[1] - 4.0).powi(2));
        shallow.min(deep)
    }

    fn drive<O: Optimizer + ?Sized>(opt: &mut O, max_batches: usize) {
        for _ in 0..max_batches {
            let batch = opt.propose();
            if batch.is_empty() {
                break;
            }
            let vals: Vec<f64> = batch.iter().map(deceptive).collect();
            opt.observe(&vals);
        }
    }

    #[test]
    fn single_pro_usually_misses_the_deep_basin() {
        let mut pro = ProOptimizer::with_defaults(space());
        drive(&mut pro, 500);
        let (_, v) = pro.recommendation().unwrap();
        assert!(
            v > 3.0,
            "plain PRO should land in the shallow basin, got {v}"
        );
    }

    #[test]
    fn restarts_find_the_deep_basin() {
        let mut multi = restarting_pro(space(), ProConfig::default(), 12, 7);
        drive(&mut multi, 5_000);
        assert!(multi.converged());
        assert!(multi.starts() == 12);
        let (p, v) = multi.recommendation().unwrap();
        assert!(
            v <= 1.0 + 1e-9,
            "restarts should reach the deep basin, got {v} at {p:?}"
        );
    }

    #[test]
    fn incumbent_spans_starts() {
        let mut multi = restarting_pro(space(), ProConfig::default(), 4, 9);
        drive(&mut multi, 2_000);
        let (_, best) = multi.best().unwrap();
        let (_, rec) = multi.recommendation().unwrap();
        // the recommendation never loses to what some start actually found
        assert!(rec <= best + 1e-9 || rec <= 5.5, "rec={rec} best={best}");
    }

    #[test]
    fn one_start_degenerates_to_inner() {
        let mut single = restarting_pro(space(), ProConfig::default(), 1, 3);
        let mut plain = ProOptimizer::with_defaults(space());
        for _ in 0..400 {
            let a = single.propose();
            let b = plain.propose();
            assert_eq!(a, b);
            if a.is_empty() {
                break;
            }
            let vals: Vec<f64> = a.iter().map(deceptive).collect();
            single.observe(&vals);
            plain.observe(&vals);
        }
        assert_eq!(single.converged(), plain.converged());
    }

    #[test]
    #[should_panic(expected = "at least one start")]
    fn zero_starts_rejected() {
        restarting_pro(space(), ProConfig::default(), 0, 1);
    }

    #[test]
    fn checkpoint_restores_start_index_and_incumbent() {
        // run past at least one restart, snapshot, keep driving; a fresh
        // wrapper restored from the snapshot must continue identically
        let mut multi = restarting_pro(space(), ProConfig::default(), 6, 7);
        drive(&mut multi, 120);
        assert!(multi.starts() > 1, "want a mid-restart snapshot");
        let bytes = harmony_recovery::save_to_vec(
            multi
                .as_checkpoint()
                .expect("restarting pro is checkpointable"),
        );
        let snap_starts = multi.starts();
        let snap_best = multi.best();

        let mut resumed = restarting_pro(space(), ProConfig::default(), 6, 7);
        harmony_recovery::restore_from_slice(
            resumed.as_checkpoint_mut().expect("checkpointable"),
            &bytes,
        )
        .unwrap();
        assert_eq!(resumed.starts(), snap_starts);
        assert_eq!(resumed.best(), snap_best);

        // both copies must propose and evolve identically from here on,
        // including through further RNG-driven restarts
        for _ in 0..2_000 {
            let a = multi.propose();
            let b = resumed.propose();
            assert_eq!(a, b);
            if a.is_empty() {
                break;
            }
            let vals: Vec<f64> = a.iter().map(deceptive).collect();
            multi.observe(&vals);
            resumed.observe(&vals);
        }
        assert_eq!(multi.starts(), resumed.starts());
        assert_eq!(multi.recommendation(), resumed.recommendation());
    }

    #[test]
    fn inadmissible_restart_center_is_rejected() {
        let mut multi = restarting_pro(space(), ProConfig::default(), 6, 7);
        drive(&mut multi, 120);
        assert!(multi.current_start > 0, "want a snapshot after a restart");
        let bytes = harmony_recovery::save_to_vec(&multi);
        // swap the encoded center for an off-lattice point
        let header = StateWriter::new().len();
        let encode = |p: &Point| {
            let mut w = StateWriter::new();
            w.point(p);
            w.into_bytes().split_off(header)
        };
        let center = encode(&multi.current_center);
        let at = bytes
            .windows(center.len())
            .position(|w| w == center.as_slice())
            .expect("center is encoded");
        let mut corrupt = bytes.clone();
        corrupt[at..at + center.len()].copy_from_slice(&encode(&Point::new(vec![0.5, 0.5])));
        let mut resumed = restarting_pro(space(), ProConfig::default(), 6, 7);
        assert!(matches!(
            harmony_recovery::restore_from_slice(&mut resumed, &corrupt),
            Err(CodecError::BadValue(_))
        ));
    }
}
