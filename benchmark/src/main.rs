//! Runs one benchmark workload and prints its metrics; the last line of
//! standard output is the JSON summary.
//!
//! ```text
//! themis-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--state-dir <dir>] [--trace-out <dir>]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use themis_benchmark::{run, Options, WORKLOADS};

fn parse() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        state_dir: None,
        trace_out: None,
    };
    let (mut seed, mut seconds) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--state-dir" => opts.state_dir = Some(PathBuf::from(value)),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    opts.seed = seed.ok_or("--seed is required")?;
    opts.seconds = seconds.ok_or("--seconds is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("themis-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("themis-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
