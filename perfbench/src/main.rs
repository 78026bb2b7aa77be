//! The repository benchmark: closed-loop tuning-session workloads that
//! print end-to-end metrics (untraced run) or per-layer metrics (traced
//! run) and check the program's outputs.
//!
//! ```text
//! perfbench --workload <sim_fig10|server_recovery|shared_fleet|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it through `perfbench/run.py`, which builds it and pins it to one
//! CPU, from the repository root (it reads
//! `results/fig10_multisample.csv` and keeps its journals under
//! `.perfbench_tmp/`). The last stdout line is the JSON result.

mod calibrate;
mod report;
mod server_recovery;
mod shared_fleet;
mod sim_fig10;
mod timing_sink;

use report::Report;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["sim_fig10", "server_recovery", "shared_fleet"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2005,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run(workload: &str, args: &Args) -> Result<Report, String> {
    match workload {
        "sim_fig10" => sim_fig10::run(args.seed, args.seconds, args.trace),
        "server_recovery" => server_recovery::run(args.seed, args.seconds, args.trace),
        "shared_fleet" => shared_fleet::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

fn print(workload: &str, r: &Report) {
    println!("== {workload} ==");
    for note in &r.notes {
        println!("{note}");
    }
    for m in &r.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut combined = Report {
        correct: true,
        ..Report::default()
    };
    for name in &names {
        let r = match run(name, &args) {
            Ok(mut r) => {
                if args.trace {
                    r.fill_per_layer();
                } else {
                    let names: Vec<_> = r.metrics.iter().map(|m| (m.name, m.unit)).collect();
                    assert_eq!(names, report::END_TO_END, "end-to-end metrics out of order");
                }
                r
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print(name, &r);
        if names.len() == 1 {
            combined = r;
        } else {
            // `all` prefixes each metric with its workload; the names
            // must stay `'static`, so they are leaked once per process
            combined.correct &= r.correct;
            combined.attempted += r.attempted;
            combined.failed += r.failed;
            for m in r.metrics {
                let name: &'static str = format!("{name}.{}", m.name).leak();
                combined.push(name, m.value, m.unit);
            }
        }
    }
    println!("{}", combined.to_json());
    ExitCode::SUCCESS
}
