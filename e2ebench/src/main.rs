//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints a detail line and then the result line (the
//! last line of standard output), and exits 1 when an output check
//! failed, 2 on a usage error.

use lf_e2ebench::fingerprint::Fingerprint;
use lf_e2ebench::report::{detail_line, result_line};
use lf_e2ebench::run::{run, Options};
use lf_e2ebench::workload::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage: e2ebench --workload <paper-dense|paper-sparse-live|fleet-ci-live> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fp = Fingerprint::current();
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        eprintln!("e2ebench: {:<40} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for f in &outcome.failures {
        eprintln!("e2ebench: check failed: {f}");
    }
    println!("{}", detail_line(&opts, &fp, &outcome));
    println!("{}", result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
