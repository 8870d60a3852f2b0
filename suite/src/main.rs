//! `suite` — the repository's end-to-end benchmark: four workloads, each
//! measured from outside the program (public crate APIs in-process, or a
//! child `sherlock serve` over TCP), with its inputs generated from
//! `--seed`.
//!
//! ```text
//! suite --workload NAME --seed N --seconds S [--trace 0|1]
//! suite compare [--spec BENCHMARK.json] --parent FILE... --change FILE...
//! ```
//!
//! A run prints notes (sample counts, digests, per-phase tallies), then one
//! `workload metric value unit` line per metric, then the result as one
//! JSON line: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. It exits 1 when a check fails and 2 when the load generator
//! ran too late for the run to measure the daemon. See README.md.

use std::path::PathBuf;
use std::process::ExitCode;

mod compare;
mod daemon;
mod direct;
mod explore;
mod infer;
mod load;
mod report;
mod serve;
mod spans;
mod stats;
mod streams;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "infer-fleet",
    "explore-campaign",
    "serve-ingest",
    "serve-restart",
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                    })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
    })
}

/// A per-run scratch directory inside the current one, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(a: &Args) -> Result<report::Report, String> {
    match a.workload {
        "infer-fleet" => Ok(infer::run(a.seed, a.seconds, a.traced)),
        "explore-campaign" => Ok(explore::run(a.seed, a.seconds, a.traced)),
        serve_workload => {
            let exe = std::env::current_exe().map_err(|e| format!("locating suite: {e}"))?;
            let bin = exe.with_file_name("sherlock");
            if !bin.is_file() {
                return Err(format!(
                    "{} not found: build sherlock-cli into the suite's target directory",
                    bin.display()
                ));
            }
            let work = WorkDir(
                PathBuf::from(".suite_work")
                    .join(format!("{serve_workload}-{}", std::process::id())),
            );
            std::fs::create_dir_all(&work.0)
                .map_err(|e| format!("creating {}: {e}", work.0.display()))?;
            let env = serve::Env {
                bin,
                work: work.0.clone(),
            };
            let result = if serve_workload == "serve-ingest" {
                serve::ingest(&env, a.seed, a.seconds, a.traced)
            } else {
                serve::restart(&env, a.seed, a.seconds, a.traced)
            };
            result.map_err(|e| format!("{serve_workload}: {e}"))
        }
    }
}

fn main() -> ExitCode {
    sherlock_sim::install_sim_panic_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.traced)
    );
    let report = match run(&a) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("{} {note}", a.workload);
    }
    for (name, unit, value) in report.metrics(a.traced) {
        println!("{} {name} {value} {unit}", a.workload);
    }
    for failure in &report.failures {
        eprintln!("check failed: {failure}");
    }
    println!("{}", report.result_json(a.traced));
    if let Some(why) = &report.invalid {
        eprintln!("invalid run: {why}");
        return ExitCode::from(2);
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
