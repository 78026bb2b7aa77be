//! CI gate: measures the overhead a [`harmony_telemetry::NullSink`]
//! handle adds to steady PRO iterations and fails when it exceeds the
//! budget (default 2%).
//!
//! A `NullSink` reports `enabled() == false`, so every instrumented site
//! — the `event!` macro, span opens, counter updates — must reduce to
//! one branch. This binary checks that claim end to end: it interleaves
//! pairs of the same fixed-seed PRO descent with a detached optimizer
//! and with a `NullSink` handle attached, and exits nonzero when the
//! median of the within-pair attached/detached time ratios
//! ([`harmony_bench::harness::paired_overhead`], the estimator the
//! recovery gate uses too) exceeds the limit.
//!
//! With `--metrics` it additionally times a
//! [`harmony_telemetry::MetricsSink`]-attached variant against a
//! realistic (GS2-shaped, deliberately non-trivial) objective and gates
//! the metrics-enabled overhead over the NullSink baseline the same
//! paired way. The metrics path pays for record construction and
//! registry ingestion, so it is measured against a workload whose
//! objective dominates — mirroring real tuning sessions, where the
//! application run dwarfs bookkeeping.
//!
//! Flags: `--reps N` (default 41), `--rounds N` iterations per rep
//! (default 400), `--limit PCT` allowed overhead percent (default 2.0),
//! `--metrics` enable the metrics-enabled gate,
//! `--metrics-limit PCT` its budget (default 2.0).

use harmony_bench::harness::paired_overhead;
use harmony_core::{Optimizer, ProOptimizer};
use harmony_params::{ParamDef, ParamSpace, Point};
use harmony_telemetry::{MetricsSink, Telemetry};
use std::time::Instant;

fn parse_or_die<T: std::str::FromStr>(what: &str, v: Option<&String>) -> T {
    let Some(v) = v else {
        eprintln!("missing value for {what}");
        std::process::exit(2);
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {what}: {v}");
        std::process::exit(2);
    })
}

fn space() -> ParamSpace {
    ParamSpace::new(
        (0..6)
            .map(|i| ParamDef::integer(format!("p{i}"), 0, 1_000, 1).unwrap())
            .collect(),
    )
    .unwrap()
}

/// `rounds` propose/observe cycles (re-seeding on convergence), timed.
/// Returns (seconds, checksum) — the checksum defeats dead-code
/// elimination and double-checks both variants compute the same thing.
/// `work` adds that many serially-dependent flops per objective
/// evaluation, standing in for the application run a real tuning
/// session measures (0 = the raw bookkeeping microbenchmark).
fn run_rounds(rounds: usize, tel: Option<&Telemetry>, work: u32) -> (f64, f64) {
    let space = space();
    let f = |p: &Point| -> f64 {
        let mut v: f64 = p.iter().map(|x| (x - 300.0) * (x - 300.0)).sum();
        for _ in 0..work {
            v = v.mul_add(0.999_999, 1.0e-9);
        }
        v
    };
    let fresh = |space: &ParamSpace| {
        let mut opt = ProOptimizer::with_defaults(space.clone());
        if let Some(tel) = tel {
            opt.set_telemetry(tel.clone());
        }
        opt
    };
    let mut opt = fresh(&space);
    let mut vals: Vec<f64> = Vec::new();
    let mut checksum = 0.0f64;
    let t0 = Instant::now();
    for _ in 0..rounds {
        let batch = opt.propose();
        if batch.is_empty() {
            checksum += opt.best().map_or(0.0, |(_, v)| v);
            opt = fresh(&space);
            continue;
        }
        vals.clear();
        vals.extend(batch.iter().map(f));
        opt.observe(&vals);
    }
    (t0.elapsed().as_secs_f64(), checksum)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps = 41usize;
    let mut rounds = 400usize;
    let mut limit_pct = 2.0f64;
    let mut metrics_gate = false;
    let mut metrics_limit = 2.0f64;
    let mut metrics_work = 20_000u32;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => {
                i += 1;
                reps = parse_or_die("--reps", args.get(i));
            }
            "--rounds" => {
                i += 1;
                rounds = parse_or_die("--rounds", args.get(i));
            }
            "--limit" => {
                i += 1;
                limit_pct = parse_or_die("--limit", args.get(i));
            }
            "--metrics" => {
                metrics_gate = true;
            }
            "--metrics-limit" => {
                i += 1;
                metrics_limit = parse_or_die("--metrics-limit", args.get(i));
            }
            "--metrics-work" => {
                i += 1;
                metrics_work = parse_or_die("--metrics-work", args.get(i));
            }
            a => {
                eprintln!("unknown argument: {a}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let reps = reps.max(3);
    let null = Telemetry::null();

    // warm-up rep of each variant, then interleaved A/B pairs so slow
    // drift (frequency scaling, noisy neighbours) cancels in each ratio
    let (_, base_sum) = run_rounds(rounds, None, 0);
    let (_, null_sum) = run_rounds(rounds, Some(&null), 0);
    assert_eq!(
        base_sum.to_bits(),
        null_sum.to_bits(),
        "NullSink telemetry must not change optimizer behaviour"
    );
    let m = paired_overhead(
        reps,
        |_| run_rounds(rounds, None, 0).0,
        |_| run_rounds(rounds, Some(&null), 0).0,
    );
    let overhead_pct = m.overhead_pct();
    println!(
        "telemetry_overhead: detached median {:.6}s, nullsink median {:.6}s, \
         overhead {overhead_pct:+.2}% (limit {limit_pct:.2}%, {reps} reps x {rounds} rounds)",
        m.base_s, m.treated_s
    );
    let mut failed = overhead_pct > limit_pct;
    if failed {
        eprintln!("FAIL: NullSink overhead {overhead_pct:.2}% exceeds {limit_pct:.2}%");
    }

    if metrics_gate {
        // metrics-enabled gate: a live MetricsSink pays for record
        // construction and registry ingestion, so it is measured
        // against an objective that dominates the loop — the regime a
        // real tuning session runs in, where each evaluation is an
        // application run
        let mtel = Telemetry::new(MetricsSink::new());
        let (_, n_sum) = run_rounds(rounds, Some(&null), metrics_work);
        let (_, m_sum) = run_rounds(rounds, Some(&mtel), metrics_work);
        assert_eq!(
            n_sum.to_bits(),
            m_sum.to_bits(),
            "MetricsSink telemetry must not change optimizer behaviour"
        );
        let m = paired_overhead(
            reps,
            |_| run_rounds(rounds, Some(&null), metrics_work).0,
            |_| run_rounds(rounds, Some(&mtel), metrics_work).0,
        );
        let metrics_pct = m.overhead_pct();
        println!(
            "telemetry_overhead: nullsink median {:.6}s, metrics median {:.6}s, \
             overhead {metrics_pct:+.2}% (limit {metrics_limit:.2}%, work {metrics_work})",
            m.base_s, m.treated_s
        );
        if metrics_pct > metrics_limit {
            eprintln!(
                "FAIL: metrics-enabled overhead {metrics_pct:.2}% exceeds {metrics_limit:.2}%"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
