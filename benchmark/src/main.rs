//! `ssr-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <e10-narrow|torus-wide|serve-mixed|all> --seed <n> \
//!     --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Every workload is generated from `--seed`, runs for about
//! `--seconds`, checks its outputs, and prints as its last line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Before it come the host stamp and the exact work
//! counters. The process exits 1 when a correctness check fails and 2
//! on bad arguments. See README.md for the metric definitions.

mod e10;
mod layers;
mod serve;
mod torus;
mod util;

use std::path::PathBuf;

use ssr_campaign::output::Json;
use util::Outcome;

const WORKLOADS: [&str; 3] = ["e10-narrow", "torus-wide", "serve-mixed"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes for a fast end-to-end check of the harness itself.
    pub smoke: bool,
    /// Where spans and temporary files go (inside the working directory).
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn run_one(workload: &str, args: &Args) -> Outcome {
    match workload {
        "e10-narrow" => e10::run(args),
        "torus-wide" => torus::run(args),
        "serve-mixed" => serve::run(args),
        other => unreachable!("workload {other} was validated"),
    }
}

fn result_line(out: &Outcome) -> Json {
    let metrics = out
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let metric = Json::obj([("value", Json::F64(*value)), ("unit", Json::str(*unit))]);
            (name.clone(), metric)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(out.checks.failed == 0)),
        ("attempted", Json::U64(out.checks.attempted.max(1))),
        ("failed", Json::U64(out.checks.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut failed = 0;
    for workload in workloads {
        let mut out = run_one(workload, &args);
        // A metric that is not a number would print as null.
        for (name, value, _) in &out.metrics.0 {
            out.checks
                .check(value.is_finite(), || format!("metric {name} is {value}"));
        }
        println!("{}", util::host_stamp(workload, args.seed, args.trace));
        let counters = Json::Obj(std::mem::take(&mut out.counters.0));
        println!("{}", Json::obj([("counters", counters)]));
        for note in &out.notes {
            println!("{note}");
        }
        println!("{}", result_line(&out));
        failed += out.checks.failed;
    }
    if failed > 0 {
        std::process::exit(1);
    }
}
