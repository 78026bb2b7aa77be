//! CI gate: measures the wall-clock overhead session persistence (the
//! write-ahead observation log plus periodic snapshots) adds to a
//! tuning session and fails when it exceeds the budget (default 5%).
//!
//! The journalled path records every batch in the WAL under the
//! default recovery configuration; everything else — proposals,
//! estimates, telemetry — is identical, and the warm-up pair asserts
//! the outcomes are equal before any timing happens. The binary
//! interleaves repetitions of the same fixed-seed GS2 sessions with
//! and without a journal, summarises the slowdown as the median of the
//! within-pair time ratios (adjacent pairs cancel frequency drift; the
//! median discards scheduler outliers), and exits nonzero when that
//! median exceeds the limit.
//!
//! Flags: `--reps N` session pairs (default 151), `--steps N` tuning
//! steps per session (default 30), `--limit PCT` allowed overhead
//! percent (default 5.0).

use harmony_bench::harness::measure_recovery_overhead;

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps = 151usize;
    let mut steps = 30usize;
    let mut limit_pct = 5.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => {
                i += 1;
                reps = parse_or_die("--reps", args.get(i));
            }
            "--steps" => {
                i += 1;
                steps = parse_or_die("--steps", args.get(i));
            }
            "--limit" => {
                i += 1;
                limit_pct = parse_or_die("--limit", args.get(i));
            }
            a => {
                eprintln!("unknown argument: {a}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let m = measure_recovery_overhead(reps, steps);
    let overhead_pct = m.overhead_pct();
    println!(
        "recovery_overhead: plain median {:.6}s, journalled median {:.6}s, \
         overhead {overhead_pct:+.2}% (limit {limit_pct:.2}%, {reps} reps x {steps} steps)",
        m.base_s, m.treated_s
    );
    if overhead_pct > limit_pct {
        eprintln!("FAIL: snapshot/WAL overhead {overhead_pct:.2}% exceeds {limit_pct:.2}%");
        std::process::exit(1);
    }
}
