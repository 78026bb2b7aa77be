//! What one benchmark run reports, and the shared measuring helpers.

use crate::calibrate;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every whole-run output check passed.
    pub correct: bool,
    /// Operations attempted (sessions, or session + resume pairs).
    pub attempted: u64,
    /// Operations that returned `Err` or failed their output check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run), in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (sample counts,
    /// check details).
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Puts the per-layer metrics in [`PER_LAYER`] order, reporting 0
    /// for a layer the workload does no work in.
    ///
    /// # Panics
    /// Panics on a metric missing from [`PER_LAYER`] or with another unit.
    pub fn fill_per_layer(&mut self) {
        for m in &self.metrics {
            assert!(
                PER_LAYER.contains(&(m.name, m.unit)),
                "{} ({}) is not a listed per-layer metric",
                m.name,
                m.unit
            );
        }
        self.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value),
                unit,
            })
            .collect();
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// JSON has no NaN or infinity; a non-finite value is a bug upstream,
/// reported as `null` rather than an unparsable line.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// End-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("sessions_per_s", "1/s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p95", "ms"),
    ("mean_ntt", "s"),
    ("mean_best_cost", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of every workload, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("core.optimizer.self_us", "us"),
    ("core.optimizer.batches", "count"),
    ("surface.objective.self_us", "us"),
    ("core.cache.hit_ratio", "ratio"),
    ("cluster.spmd.self_us", "us"),
    ("variability.noise.draws", "count"),
    ("variability.noise.exploit_us", "us"),
    ("core.sampling.reduce_us", "us"),
    ("core.tuner.residual_us", "us"),
    ("core.server.rounds", "count"),
    ("core.server.dispatch_us_per_round", "us"),
    ("core.server.retries", "count"),
    ("core.server.missed", "count"),
    ("core.server.duplicates", "count"),
    ("recovery.journal.records", "count"),
    ("recovery.journal.append_us", "us"),
    ("recovery.journal.wal_bytes", "bytes"),
    ("recovery.journal.snapshot_bytes", "bytes"),
    ("recovery.wal.parse_us", "us"),
    ("recovery.codec.save_us", "us"),
    ("recovery.codec.restore_us", "us"),
    ("recovery.codec.checkpoint_bytes", "bytes"),
    ("surface.database.eval_us", "us"),
    ("surface.database.exact_hit_ratio", "ratio"),
    ("telemetry.sink.record_us", "us"),
    ("telemetry.records", "count"),
    ("recovery.resume.outcome_mismatch", "count"),
    ("recovery.resume.report_mismatch", "count"),
    ("recovery.resume.ms_p50", "ms"),
    ("recovery.resume.ms_p99", "ms"),
    ("surface.sharded.hit_rate", "ratio"),
    ("surface.sharded.misses", "count"),
    ("surface.sharded.entries", "count"),
    ("surface.sharded.flush_us", "us"),
    ("core.warm.warm_start_us", "us"),
    ("core.warm.warm_frac", "ratio"),
    ("trace.session_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.sessions", "count"),
    ("trace.session_ms_p99", "ms"),
];

/// Sessions per tail block: enough that at least ten lie beyond a
/// block's 99th percentile.
pub const BLOCK: usize = 1000;

/// A measuring window closes once it spans at least this many seconds
/// and holds at least [`WINDOW_MIN`] sessions.
pub const WINDOW_S: f64 = 0.1;

/// Fewest sessions in a measuring window: enough for its 95th
/// percentile to lie below its five slowest sessions.
pub const WINDOW_MIN: usize = 100;

/// Set-ups a run times: the one before the loop, and the rest spread
/// evenly over the loop.
pub const SETUPS: usize = 7;

/// One timed set-up: its wall time, and the calibration kernel's time
/// just before and just after it.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    pub wall_s: f64,
    pub kernel_before_s: f64,
    pub kernel_after_s: f64,
}

impl SetupTime {
    /// The wall time at the reference speed.
    pub fn at_ref_s(&self) -> f64 {
        self.wall_s / calibrate::slowdown(self.kernel_before_s, self.kernel_after_s)
    }
}

/// Runs `setup` once between two calibration kernels and returns its
/// result with its [`SetupTime`].
pub fn timed<T>(setup: impl FnOnce() -> T) -> (T, SetupTime) {
    let kernel_before_s = calibrate::measure();
    let t = Instant::now();
    let out = setup();
    let wall_s = t.elapsed().as_secs_f64();
    let time = SetupTime {
        wall_s,
        kernel_before_s,
        kernel_after_s: calibrate::measure(),
    };
    (out, time)
}

/// Closed-loop session timings, summarised per short window of
/// consecutive sessions: throughput, p50 and p95 of each window. Each
/// window is followed by a run of the calibration kernel (kept out of
/// the window clock), so every window's figures can be scaled to the
/// reference speed by the kernel runs on either side of it. The 99th
/// percentile is taken per block of [`BLOCK`] sessions instead, in wall
/// time. Memory does not grow with machine speed, so neither does the
/// peak RSS.
///
/// It also times the repeated set-ups. Spreading them over the run
/// samples the machine's speed over the same span as the sessions; a
/// set-up's time is kept out of the window clock.
#[derive(Debug)]
pub struct Blocks {
    start: Instant,
    setup_every: f64,
    setups: Vec<SetupTime>,
    window: Vec<f64>,
    begin_s: f64,
    sessions: usize,
    /// Wall figures of each window, and the kernel's time before each
    /// window and after the last (one more entry than windows).
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p95s: Vec<f64>,
    kernels: Vec<f64>,
    tail: Vec<f64>,
    p99s: Vec<f64>,
}

impl Blocks {
    /// Windows of a loop that started at `start` and runs for about
    /// `seconds`, right after the first set-up.
    pub fn new(start: Instant, seconds: f64, setup: SetupTime) -> Self {
        Blocks {
            start,
            setup_every: seconds / SETUPS as f64,
            setups: vec![setup],
            window: Vec::new(),
            begin_s: 0.0,
            sessions: 0,
            rates: Vec::new(),
            p50s: Vec::new(),
            p95s: Vec::new(),
            kernels: vec![setup.kernel_after_s],
            tail: Vec::with_capacity(BLOCK),
            p99s: Vec::new(),
        }
    }

    /// Records a session that just completed after `latency`.
    pub fn record(&mut self, latency: Duration) {
        let ms = latency.as_secs_f64() * 1e3;
        self.sessions += 1;
        self.window.push(ms);
        self.tail.push(ms);
        if self.tail.len() == BLOCK {
            self.p99s.push(percentile(&self.tail, 0.99));
            self.tail.clear();
        }
        let now = self.start.elapsed().as_secs_f64();
        if self.window.len() >= WINDOW_MIN && now - self.begin_s >= WINDOW_S {
            self.rates
                .push(self.window.len() as f64 / (now - self.begin_s));
            self.p50s.push(median(&self.window));
            self.p95s.push(percentile(&self.window, 0.95));
            self.window.clear();
            self.kernels.push(calibrate::measure());
            self.begin_s = self.start.elapsed().as_secs_f64();
        }
    }

    /// Sessions recorded, whole windows or not.
    pub fn sessions(&self) -> usize {
        self.sessions
    }

    /// Repeats the set-up when the next one is due, timing it and
    /// keeping its time out of the window clock. Call between sessions.
    pub fn setup_if_due<T>(&mut self, setup: impl FnOnce() -> T) {
        let due = self.setups.len() as f64 * self.setup_every;
        if self.setups.len() >= SETUPS || self.start.elapsed().as_secs_f64() < due {
            return;
        }
        let t = Instant::now();
        let (out, time) = timed(setup);
        std::hint::black_box(out);
        self.setups.push(time);
        self.begin_s += t.elapsed().as_secs_f64();
    }

    /// Whole windows recorded.
    pub fn whole(&self) -> usize {
        self.rates.len()
    }

    /// How much slower than the reference speed the machine ran during
    /// each window.
    fn slowdowns(&self) -> Vec<f64> {
        self.kernels
            .windows(2)
            .map(|k| calibrate::slowdown(k[0], k[1]))
            .collect()
    }

    /// The 99th percentile of each block of [`BLOCK`] sessions (ten
    /// samples beyond it), median over blocks; 0 before the first whole
    /// block.
    pub fn p99(&self) -> f64 {
        if self.p99s.is_empty() {
            0.0
        } else {
            median(&self.p99s)
        }
    }
}

/// The closed-loop end-to-end metrics every workload reports, in the
/// order `BENCHMARK.json` lists them.
pub struct EndToEnd {
    pub blocks: Blocks,
    pub mean_ntt: f64,
    pub mean_best_cost: f64,
}

impl EndToEnd {
    /// Pushes the metrics. Timings are medians over windows of each
    /// window's figure at the reference speed; `setup_s` is the median
    /// set-up at the reference speed.
    pub fn push_into(&self, r: &mut Report) {
        let b = &self.blocks;
        assert!(b.whole() > 0, "a run measures at least one window");
        let slow = b.slowdowns();
        let at_ref = |v: &[f64], rate: bool| -> Vec<f64> {
            v.iter()
                .zip(&slow)
                .map(|(x, s)| if rate { x * s } else { x / s })
                .collect()
        };
        let (rates, p50s, p95s) = (
            at_ref(&b.rates, true),
            at_ref(&b.p50s, false),
            at_ref(&b.p95s, false),
        );
        let setups: Vec<f64> = b.setups.iter().map(SetupTime::at_ref_s).collect();
        let walls: Vec<f64> = b.setups.iter().map(|s| s.wall_s).collect();
        let range = |v: &[f64]| {
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(0.0, f64::max);
            format!("{lo:.4}..{hi:.4}")
        };
        r.notes.push(format!(
            "sessions: {} in {} windows; machine {} x slower than the reference speed \
             (median {:.3}); median p99 {:.4} ms (wall)",
            b.sessions,
            b.whole(),
            range(&slow),
            median(&slow),
            b.p99(),
        ));
        r.notes.push(format!(
            "wall time, median over windows: {:.4} sessions/s, p50 {:.4} ms, p95 {:.4} ms; \
             {} set-ups {} s",
            median(&b.rates),
            median(&b.p50s),
            median(&b.p95s),
            walls.len(),
            range(&walls),
        ));
        r.push("sessions_per_s", median(&rates), "1/s");
        r.push("session_ms_p50", median(&p50s), "ms");
        r.push("session_ms_p95", median(&p95s), "ms");
        r.push("mean_ntt", self.mean_ntt, "s");
        r.push("mean_best_cost", self.mean_best_cost, "s");
        r.push("setup_s", median(&setups), "s");
        r.push("peak_rss_mb", peak_rss_mb(), "MiB");
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB. Zero when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Chained stopwatch for the traced runs: each [`Lap::lap`] charges the
/// time since the previous lap to one bucket, so consecutive calls
/// share one clock read and the buckets tile the traced interval.
pub struct Lap {
    last: Instant,
}

impl Lap {
    pub fn start() -> Self {
        Lap {
            last: Instant::now(),
        }
    }

    /// Charges the time since the previous lap to `bucket`, in ns.
    #[inline]
    pub fn lap(&mut self, bucket: &mut u64) {
        let now = Instant::now();
        *bucket += (now - self.last).as_nanos() as u64;
        self.last = now;
    }
}

/// Nanosecond total → mean microseconds per session.
pub fn us_per(total_ns: u64, sessions: usize) -> f64 {
    total_ns as f64 / 1e3 / sessions.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    /// `(name, unit)` of every metric object in one section of
    /// `BENCHMARK.json`.
    fn listed(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|m| {
                let (name, rest) = m.split_once('"').expect("quoted name");
                let unit = rest.split("\"unit\": \"").nth(1).expect("unit");
                (
                    name.into(),
                    unit[..unit.find('"').expect("quoted unit")].into(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        r.push("latency_ms", 1.5, "ms");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
