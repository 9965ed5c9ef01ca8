//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cell_noc_swim --seed 42 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the JSON result. The machine
//! record, the result and (traced) the spans are also written under
//! `.perfbench_out/` in the working directory.

use std::path::Path;
use std::process::ExitCode;

use nim_perfbench::{env, result_line, run, summary, Size, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let pinned = env::pinned_vars_set();
    if !pinned.is_empty() {
        eprintln!("error: unset {pinned:?}: each changes the measured code path or size");
        return ExitCode::from(2);
    }
    let machine = env::Machine::detect(Path::new("."));
    let outcome = match run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::full(),
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = result_line(&outcome, args.trace);
    let env_json = machine.to_json(args.seed);
    let out_dir = Path::new(".perfbench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| {
            std::fs::write(
                out_dir.join(format!("{stem}.json")),
                format!("{{\"env\": {env_json},\n\"result\": {result}}}\n"),
            )
        })
        .and_then(|()| {
            if args.trace {
                std::fs::write(
                    out_dir.join(format!("{stem}-spans.json")),
                    outcome.spans.to_json(),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", out_dir.display());
    }
    print!("{}", summary(&args.workload, &outcome));
    println!("env {env_json}");
    println!("{result}");
    ExitCode::SUCCESS
}
