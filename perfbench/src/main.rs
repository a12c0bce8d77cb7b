//! perfbench: the repository's benchmark.
//!
//! One command runs a workload (or all three, in one process), prints every
//! metric by name with its unit and sample count, checks that the outputs
//! are correct, and ends standard output with one JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig4-mem --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` reports per-layer metrics from a run that records spans
//! around the benchmark's own calls into each layer. `--manifest` prints
//! the `BENCHMARK.json` the repository root carries.

mod build;
mod churn;
mod client;
mod cpus;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Checked command-line arguments.
struct Args {
    workloads: Vec<&'static workloads::Spec>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, 1u64, metrics::RUN_SECONDS, false);
    while let Some(flag) = argv.next() {
        if flag == "--manifest" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| (1..=600).contains(&s))
                    .ok_or_else(|| bad("expected 1..=600"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required: one of {names:?} or all"))?;
    let workloads = if workload == "all" {
        workloads::WORKLOADS.iter().collect()
    } else {
        vec![workloads::find(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}: one of {names:?} or all"))?]
    };
    Ok(Some(Args {
        workloads,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", metrics::manifest());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Staged files stay inside the working directory and go with the run.
    let staging = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&staging) {
        eprintln!("perfbench: cannot create {}: {e}", staging.display());
        return ExitCode::FAILURE;
    }
    let mut reports: Vec<Report> = Vec::new();
    let mut error = None;
    for spec in &args.workloads {
        let run = match spec.kind {
            workloads::Kind::Build => {
                build::run(spec, args.seed, args.seconds, args.trace, &staging)
            }
            workloads::Kind::Churn => {
                churn::run(spec, args.seed, args.seconds, args.trace, &staging)
            }
        };
        match run {
            Ok(r) => {
                let mismatch = r.metrics.mismatch(args.trace);
                if !mismatch.is_empty() {
                    error = Some(format!(
                        "{}: metric set differs from the manifest: {mismatch:?}",
                        spec.name
                    ));
                    break;
                }
                for line in r.lines() {
                    println!("{line}");
                }
                for f in &r.failures {
                    println!("{:<14} FAILED {f}", spec.name);
                }
                println!("{}", r.envelope());
                reports.push(r);
            }
            Err(e) => {
                error = Some(format!("{}: {e}", spec.name));
                break;
            }
        }
    }
    let _ = std::fs::remove_dir(&staging);
    let _ = std::fs::remove_dir(".perfbench-tmp");
    if let Some(e) = error {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report::result_line(&reports));
    ExitCode::SUCCESS
}
