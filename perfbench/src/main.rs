//! The MIX mediator benchmark: one seeded command per workload that sets
//! the program up, measures it for a fixed time in a closed loop, checks
//! every answer against an in-process twin, and prints its metrics — the
//! end-to-end ones with `--trace 0`, the per-layer ones (from a separate
//! traced run) with `--trace 1`. The last line of standard output is the
//! JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload federated-query --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `federated-query`, `view-churn`, `bulk-materialize` (see
//! `README.md`). Scratch files go under `.bench_work/` in the current
//! directory.

mod bulk;
mod churn;
mod federated;
mod harness;
mod layers;
mod oracle;
mod serving;
mod stats;
mod trace;

use harness::{Args, Outcome, Report};
use std::process::{Command, ExitCode, Stdio};

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "federated-query" => serving::run(args, &federated::inputs(args.seed)),
        "bulk-materialize" => {
            let dir = std::path::PathBuf::from(format!(
                ".bench_work/bulk-seed{}-{}",
                args.seed,
                std::process::id()
            ));
            let inputs = bulk::inputs(args.seed, &dir);
            let outcome = inputs.and_then(|i| serving::run(args, &i));
            let _ = std::fs::remove_dir_all(&dir);
            outcome
        }
        "view-churn" => churn::run(args),
        other => Err(format!(
            "unknown workload '{other}' (federated-query, view-churn, bulk-materialize)"
        )),
    }
}

/// Measuring processes per run. Hash seeds and memory layout change per
/// process, so a measured run splits its time over several fresh
/// processes and pools their fastest slices (see `Report::end_to_end`).
fn processes(workload: &str) -> usize {
    match workload {
        "view-churn" => 16,
        "federated-query" => 8,
        _ => 4,
    }
}

/// The measured run: `processes` fresh copies of this program, one after
/// the other, each setting up and measuring for its share of the time.
fn measured(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let n = processes(&args.workload);
    let (mut setup_s, mut windows, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..n {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / n as f64).to_string()])
            .args(["--trace", "0", "--worker"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting a measuring process: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .rev()
            .find(|l| l.starts_with("WORKER "))
            .ok_or_else(|| format!("measuring process ended with {} and no result", out.status))?;
        let (s, w, r) = harness::parse_worker_line(line)?;
        setup_s.extend(s);
        windows.push(w);
        rss.push(r);
    }
    let mut report = Report::end_to_end(&setup_s, &windows, stats::p50(&rss));
    report.notes.push(format!(
        "{n} measuring processes, peak RSS each (MB): {rss:?}"
    ));
    Ok(report)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let worker = argv.iter().any(|a| a == "--worker");
    argv.retain(|a| a != "--worker");
    let args = match Args::parse(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if worker {
        return match run(&args) {
            Ok(Outcome::Measured { setup_s, window }) => {
                println!("{}", harness::worker_line(&setup_s, &window));
                ExitCode::SUCCESS
            }
            Ok(Outcome::Traced(_)) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    } else if args.trace {
        run(&args).and_then(|o| match o {
            Outcome::Traced(r) => Ok(r),
            Outcome::Measured { .. } => Err("the traced run measured nothing".into()),
        })
    } else {
        measured(&args)
    };
    match report {
        Ok(report) if report.attempted > 0 => {
            report.print();
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} operations failed the oracle",
                    report.failed, report.attempted
                );
                ExitCode::FAILURE
            }
        }
        Ok(_) => {
            eprintln!("perfbench: no operation completed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
