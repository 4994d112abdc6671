//! Large-scale convergence driver for the staged step pipeline: runs
//! the SDR composition to termination on rings and tori up to 10⁶
//! nodes at several intra-run thread counts, verifies byte-identity
//! across thread counts and convergence within the Cor. 5 bound, and
//! writes throughput results — including the per-phase wall-time
//! breakdown from the `ssr-obs` metrics snapshot — to
//! `BENCH_SCALE.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p ssr-bench --bin scale --release                # full sweep
//! cargo run -p ssr-bench --bin scale --release -- --smoke     # CI smoke (10⁵ ring)
//! cargo run -p ssr-bench --bin scale --release -- --out PATH  # result path
//! cargo run -p ssr-bench --bin scale --release -- --progress  # live cell progress
//! cargo run -p ssr-bench --bin scale --release -- --metrics PATH # merged metrics JSON
//! cargo run -p ssr-bench --bin scale --release -- --trace DIR # per-cell JSONL traces
//! cargo run -p ssr-bench --bin scale --release -- --report DIR # self-contained HTML report
//! ```
//!
//! `--help` prints the usage line and exits 0; an unknown argument, or
//! a flag without its value, prints it and exits 2 before any work.
//!
//! The workload is `Agreement ∘ SDR` from an adversarial
//! configuration under the synchronous daemon (maximal per-step
//! selections, so the apply/guard kernels see the largest possible
//! fan-out). For every `(topology, n)` cell the run is repeated at
//! each thread count, and both its final configuration and its
//! `RunStats` (steps, moves, rounds, per-process moves, guard
//! evaluations) must equal the sequential run's, so the parallel
//! kernels must evaluate exactly the sequential refresh set — the
//! process exits nonzero on any divergence or non-convergence.
//!
//! Each cell also prints one host-independent line of counted work,
//! `{"counters":{"topology":…,"n":…,"threads":…,"steps":…,"moves":…,
//! "rounds":…,"guard_evals":…}}`, to stdout. CI diffs the smoke run's
//! lines against `crates/bench/tests/golden/scale-smoke-counters.txt`
//! byte for byte.
//!
//! The wall clock (`seconds`, `steps_per_sec`, `moves_per_sec`) times
//! an untraced run. A second run of the same cell carries a timed
//! `PipelineMetrics` trace sink, which costs more than a wide step
//! itself; from it `BENCH_SCALE.json` (schema `bench-scale-v3`) reports
//! where the time went per phase (`select`/`apply`/`guards` nanos) and
//! how often the parallel kernels engaged, and `--trace DIR` writes its
//! events. The process also exits nonzero unless the two runs end in
//! the same configuration and the same `RunStats`. `--trace DIR` is
//! intended for `--smoke`-sized runs — a full 10⁶-node sweep traces
//! gigabytes.

use std::path::Path;
use std::time::Instant;

use ssr_core::toys::Agreement;
use ssr_core::Sdr;
use ssr_graph::{generators, Graph};
use ssr_obs::metrics::MetricsSet;
use ssr_obs::pipeline::{CompositeSink, PipelineMetrics};
use ssr_obs::progress::{Progress, StderrProgress};
use ssr_runtime::{Daemon, RunStats, Simulator, StepOutcome, TraceSink};

/// One measured cell.
struct RunResult {
    topology: &'static str,
    n: usize,
    threads: usize,
    /// Counters and wall time of the untraced run.
    stats: RunStats,
    seconds: f64,
    converged: bool,
    /// The traced rerun's metrics: per-phase wall time and the steps on
    /// which the parallel kernels engaged.
    metrics: MetricsSet,
}

impl RunResult {
    /// Nanos the traced rerun spent in `phase` (select, apply, guards).
    fn phase_nanos(&self, phase: &str) -> u64 {
        let key = format!("phase.{phase}.nanos");
        self.metrics.histogram(&key).map_or(0, |h| h.sum())
    }

    /// Steps on which the parallel `kernel` (apply, guards) engaged.
    fn par_steps(&self, kernel: &str) -> u64 {
        let key = format!("kernel.{kernel}.par_steps");
        self.metrics.counter_value(&key).unwrap_or(0)
    }

    /// `count` per second of the untraced run.
    fn per_sec(&self, count: u64) -> f64 {
        count as f64 / self.seconds.max(1e-9)
    }
}

fn build(topology: &str, n: usize) -> Graph {
    match topology {
        "ring" => generators::ring(n),
        "torus" => {
            let side = ((n as f64).sqrt().round() as usize).max(3);
            generators::torus(side, side)
        }
        other => panic!("unknown topology {other:?}"),
    }
}

type SdrAgreementState = ssr_core::Composed<u32>;

/// Runs the composition to termination (or the Cor. 5 step bound under
/// the synchronous daemon) with `sink` installed, if any; returns the
/// wall time in seconds, whether it converged, and the simulator.
fn run_once(
    g: &Graph,
    threads: usize,
    sink: Option<Box<dyn TraceSink>>,
) -> (f64, bool, Simulator<'_, Sdr<Agreement>>) {
    let algo = Sdr::new(Agreement::new(8));
    let init = algo.arbitrary_config(g, 0x5CA1E);
    let mut sim = Simulator::new(g, algo, init, Daemon::Synchronous, 11);
    sim.set_intra_threads(threads);
    if let Some(sink) = sink {
        sim.set_trace_sink(sink);
    }
    // Synchronous steps are rounds, so Cor. 5 bounds convergence.
    let cap = 3 * g.node_count() as u64 + 16;
    let started = Instant::now();
    let converged = (0..cap).any(|_| sim.step() == StepOutcome::Terminal);
    (started.elapsed().as_secs_f64(), converged, sim)
}

/// Times an untraced run of the cell, then reruns it with the timed
/// metrics sink (and optionally a JSONL event trace) for the phase
/// breakdown. Returns the result, the untraced run's final
/// configuration, and whether the rerun ended in the same
/// configuration and `RunStats`.
fn run_cell(
    g: &Graph,
    topology: &'static str,
    n: usize,
    threads: usize,
    trace_dir: Option<&str>,
) -> (RunResult, Vec<SdrAgreementState>, bool) {
    let (seconds, converged, sim) = run_once(g, threads, None);
    let (stats, fingerprint) = (sim.stats().clone(), sim.states().to_vec());
    drop(sim);
    let trace = trace_dir.map(|dir| format!("{dir}/trace-{topology}-{n}-t{threads}.jsonl"));
    let fold = Some(PipelineMetrics::new());
    let sink = CompositeSink::with_fold(fold, trace.as_deref().map(Path::new));
    let (_, _, mut traced) = run_once(g, threads, sink);
    let agree = traced.stats() == &stats && traced.states() == fingerprint;
    let metrics = traced
        .take_trace_sink()
        .and_then(CompositeSink::into_fold)
        .map(PipelineMetrics::into_metrics)
        .unwrap_or_default();
    let result = RunResult {
        topology,
        n,
        threads,
        stats,
        seconds,
        converged,
        metrics,
    };
    (result, fingerprint, agree)
}

fn json_escape_free(r: &RunResult) -> String {
    format!(
        "{{\"topology\":\"{}\",\"n\":{},\"threads\":{},\"steps\":{},\"moves\":{},\
         \"rounds\":{},\"seconds\":{:.6},\"steps_per_sec\":{:.1},\
         \"moves_per_sec\":{:.1},\"converged\":{},\
         \"phase_nanos\":{{\"select\":{},\"apply\":{},\"guards\":{}}},\
         \"kernel_par_steps\":{{\"apply\":{},\"guards\":{}}}}}",
        r.topology,
        r.n,
        r.threads,
        r.stats.steps,
        r.stats.moves,
        r.stats.completed_rounds,
        r.seconds,
        r.per_sec(r.stats.steps),
        r.per_sec(r.stats.moves),
        r.converged,
        r.phase_nanos("select"),
        r.phase_nanos("apply"),
        r.phase_nanos("guards"),
        r.par_steps("apply"),
        r.par_steps("guards"),
    )
}

const USAGE: &str = "usage: scale [--smoke] [--out PATH] [--progress] [--metrics PATH] \
                     [--trace DIR] [--report DIR]";

/// The command line; see the module docs.
struct Args {
    smoke: bool,
    want_progress: bool,
    out: String,
    metrics_out: Option<String>,
    trace_dir: Option<String>,
    report_dir: Option<String>,
}

/// Parses the flags. `Ok(None)` is `--help`; an unknown argument or a
/// flag without its value is an error, so a misspelt flag never starts
/// a sweep.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        smoke: false,
        want_progress: false,
        out: "BENCH_SCALE.json".into(),
        metrics_out: None,
        trace_dir: None,
        report_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--progress" => args.want_progress = true,
            "--out" => args.out = value()?,
            "--metrics" => args.metrics_out = Some(value()?),
            "--trace" => args.trace_dir = Some(value()?),
            "--report" => args.report_dir = Some(value()?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(args))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Args {
        smoke,
        want_progress,
        out,
        metrics_out,
        trace_dir,
        report_dir,
    } = args;
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir).expect("create --trace directory");
    }

    let (cells, threads_axis): (Vec<(&str, usize)>, Vec<usize>) = if smoke {
        (vec![("ring", 100_000)], vec![1, 2])
    } else {
        (
            vec![
                ("ring", 1_000),
                ("ring", 10_000),
                ("ring", 100_000),
                ("ring", 1_000_000),
                ("torus", 1_000),
                ("torus", 10_000),
                ("torus", 100_000),
                ("torus", 1_000_000),
            ],
            vec![1, 2, 4, 8],
        )
    };

    let mut progress = want_progress.then(StderrProgress::new);
    if let Some(p) = progress.as_mut() {
        p.begin(cells.len() * threads_axis.len());
    }
    let mut merged = MetricsSet::new();
    let mut lines = Vec::new();
    let mut failures = 0usize;
    let mut item = 0usize;
    for &(topology, n) in &cells {
        let g = build(topology, n);
        let mut baseline: Option<(Vec<SdrAgreementState>, RunStats)> = None;
        for &threads in &threads_axis {
            let label = format!("{topology}/n={n}/t={threads}");
            if let Some(p) = progress.as_mut() {
                p.item_started(0, item, &label);
            }
            let (r, fingerprint, agree) = run_cell(&g, topology, n, threads, trace_dir.as_deref());
            println!(
                "{{\"counters\":{{\"topology\":\"{topology}\",\"n\":{n},\"threads\":{threads},\
                 \"steps\":{},\"moves\":{},\"rounds\":{},\"guard_evals\":{}}}}}",
                r.stats.steps, r.stats.moves, r.stats.completed_rounds, r.stats.guard_evals,
            );
            println!(
                "{:>6} n={:<9} threads={} steps={:<8} {:>10.0} steps/s {:>10.0} moves/s converged={} phase s/a/g = {:.2}/{:.2}/{:.2}s",
                topology,
                n,
                threads,
                r.stats.steps,
                r.per_sec(r.stats.steps),
                r.per_sec(r.stats.moves),
                r.converged,
                r.phase_nanos("select") as f64 / 1e9,
                r.phase_nanos("apply") as f64 / 1e9,
                r.phase_nanos("guards") as f64 / 1e9,
            );
            let mut problems = Vec::new();
            if !r.converged {
                problems.push("did not converge");
            }
            if !agree {
                problems.push("ended elsewhere when traced");
            }
            match &baseline {
                None => baseline = Some((fingerprint, r.stats.clone())),
                Some((states, stats)) => {
                    if *states != fingerprint {
                        problems.push("diverged from sequential");
                    }
                    if *stats != r.stats {
                        problems.push("counted other work than sequential");
                    }
                }
            }
            for problem in &problems {
                eprintln!("FAIL: {topology} n={n} threads={threads} {problem}");
            }
            failures += problems.len();
            merged.merge(&r.metrics);
            lines.push(json_escape_free(&r));
            if let Some(p) = progress.as_mut() {
                p.item_done(item, &label, problems.is_empty());
            }
            item += 1;
        }
    }
    if let Some(p) = progress.as_mut() {
        p.finish();
    }

    if let Some(path) = &metrics_out {
        std::fs::write(path, format!("{}\n", merged.to_json())).expect("write --metrics file");
        eprint!("{}", merged.render_table());
        eprintln!("metrics written to {path}");
    }

    let doc = format!(
        "{{\n  \"schema\": \"bench-scale-v3\",\n  \"smoke\": {smoke},\n  \"runs\": [\n    {}\n  ]\n}}\n",
        lines.join(",\n    ")
    );
    std::fs::write(&out, &doc).expect("write BENCH_SCALE.json");
    println!("wrote {out}");
    // --report DIR: drop the sweep (and the merged metrics) into the
    // report directory and render the self-contained HTML page over
    // everything in it — including any --trace files written beneath.
    if let Some(dir) = &report_dir {
        std::fs::create_dir_all(dir).expect("create --report directory");
        let dir = std::path::Path::new(dir);
        std::fs::write(dir.join("BENCH_SCALE.json"), &doc).expect("write report scale copy");
        std::fs::write(dir.join("metrics.json"), format!("{}\n", merged.to_json()))
            .expect("write report metrics copy");
        match ssr_report::load_dir(dir).map(|a| ssr_report::render(&a)) {
            Ok(html) => {
                std::fs::write(dir.join("report.html"), html).expect("write report.html");
                println!("wrote {}", dir.join("report.html").display());
            }
            Err(e) => {
                eprintln!("error: cannot render report: {e}");
                std::process::exit(2);
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} failure(s)");
        std::process::exit(1);
    }
}
