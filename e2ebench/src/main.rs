//! Command-line entry point: `drum-e2ebench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`. See the library docs for the workloads.

use std::path::PathBuf;
use std::process::ExitCode;

use drum_e2ebench::host;
use drum_e2ebench::lockstep::{self, LockstepSpec};
use drum_e2ebench::report::Report;
use drum_e2ebench::soak::{self, SoakSpec};
use drum_e2ebench::sweep::{self, SweepSpec};

/// Workload names, in the order the benchmark definition lists them.
const WORKLOADS: [&str; 4] = ["calm_stream", "flood", "sim_sweep", "soak_live"];

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = "e2ebench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 20040628u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(a: &Args) -> std::io::Result<Report> {
    let trace_path = PathBuf::from(TRACE_DIR).join(format!("{}-seed{}.jsonl", a.workload, a.seed));
    match a.workload.as_str() {
        "calm_stream" => lockstep::run(
            LockstepSpec::calm_stream(),
            a.seed,
            a.seconds,
            3,
            a.trace,
            Some(&trace_path),
        ),
        "flood" => lockstep::run(
            LockstepSpec::flood(),
            a.seed,
            a.seconds,
            3,
            a.trace,
            Some(&trace_path),
        ),
        "sim_sweep" => sweep::run(
            &SweepSpec::figure_3a(),
            a.seed,
            a.seconds,
            a.trace,
            Some(&trace_path),
        ),
        "soak_live" => soak::run(
            SoakSpec::live(),
            a.seed,
            a.seconds,
            a.trace,
            Some(&trace_path),
        ),
        _ => unreachable!("workload validated by parse"),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let knobs = host::drum_vars(std::env::vars());
    if !knobs.is_empty() {
        eprintln!(
            "error: refusing to run with {knobs:?} set; the benchmark measures the default paths (library knobs: {:?})",
            host::LIBRARY_KNOBS
        );
        return ExitCode::from(2);
    }
    for line in host::record() {
        println!("{line}");
    }
    println!(
        "run: workload = {}, seed = {}, seconds = {}, trace = {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    report.require_table(args.trace);
    for line in report.notes() {
        println!("{line}");
    }
    for line in report.lines(args.trace) {
        println!("{line}");
    }
    for f in report.failures() {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", report.json(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload flood --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("flood", 7, 12.0, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload flood --trace 2").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload flood --seconds 0").is_err());
        assert!(args("--workload flood --attack-source").is_err());
    }
}
