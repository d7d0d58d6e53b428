//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its report; the last line of standard
//! output is the result JSON. `perfbench --record-digests` prints the
//! sim-sweep reference digest table instead.

use std::process::ExitCode;

use tauhls_perfbench::workloads::{sim_sweep, Options};
use tauhls_perfbench::{header, run};

const USAGE: &str = "usage: perfbench --workload <synth-suite|sim-sweep|serve-mix> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --record-digests";

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--record-digests") {
        return match sim_sweep::record_digests() {
            Ok(table) => {
                println!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&workload, &opts).and_then(|mut report| {
        let mut lines = header(&workload, &opts);
        lines.append(&mut report.header);
        report.header = lines;
        report.print(opts.trace)
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
