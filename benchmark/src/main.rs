//! `csq_benchmark` — the repository's one end-to-end benchmark.
//!
//! ```text
//! csq_benchmark run --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out FILE]
//! csq_benchmark stability [--sets 2] [--runs 5] [--seconds S] [--workloads a,b] [--smoke]
//! csq_benchmark compare A.json B.json
//! csq_benchmark manifest
//! ```
//!
//! `run` loads the workload's data, serves it from an in-process
//! `HttpServer` on a real socket, drives it closed-loop from one client
//! thread, checks every answer against `engine::reference` and prints every
//! metric by name and unit; its last line is the result object the driver
//! reads. README.md has the metric and workload tables and the reasons.

use cliquesquare_benchmark::{flag, parsed, report, run, spec};
use std::path::PathBuf;
use std::process::ExitCode;

/// Any `--seed` text is a seed: a number is itself, anything else its
/// FNV-1a hash.
fn seed_of(text: &str) -> u64 {
    text.parse().unwrap_or_else(|_| {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let options = run::Options {
        workload: flag(args, "--workload")
            .ok_or("run needs --workload")?
            .to_string(),
        seed: flag(args, "--seed").map_or(1, seed_of),
        seconds: parsed(args, "--seconds", spec::RUN_SECONDS as f64)?,
        trace: parsed::<u8>(args, "--trace", 0)? != 0,
        smoke: args.iter().any(|a| a == "--smoke"),
        out: flag(args, "--out").map(PathBuf::from),
    };
    let result = run::run(&options)?;
    if let Some(path) = &options.out {
        std::fs::write(path, result.document() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    result.print();
    Ok(result.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("stability") => report::stability(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(a.as_ref(), b.as_ref()),
            _ => Err("compare takes exactly two result files".to_string()),
        },
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        _ => Err(
            "usage: csq_benchmark run|stability|compare|manifest (see benchmark/README.md)"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
