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
//! The workload is `Agreement ∘ SDR` from an adversarial
//! configuration under the synchronous daemon (maximal per-step
//! selections, so the apply/guard kernels see the largest possible
//! fan-out). For every `(topology, n)` cell the run is repeated at
//! each thread count and the final configuration and statistics must
//! match the sequential run exactly — the process exits nonzero on
//! any divergence or non-convergence.
//!
//! Each measured run carries a timed `PipelineMetrics` trace sink, so
//! `BENCH_SCALE.json` (schema `bench-scale-v3`) reports where the wall
//! time went per phase (`select`/`apply`/`guards` nanos) and how often
//! the parallel kernels engaged. `--trace DIR` is intended for
//! `--smoke`-sized runs — a full 10⁶-node sweep traces gigabytes.

use std::time::Instant;

use ssr_core::toys::Agreement;
use ssr_core::Sdr;
use ssr_graph::{generators, Graph};
use ssr_obs::metrics::MetricsSet;
use ssr_obs::pipeline::{CompositeSink, PipelineMetrics};
use ssr_obs::progress::{Progress, StderrProgress};
use ssr_obs::trace::JsonlSink;
use ssr_runtime::{Daemon, Simulator, StepOutcome};

/// One measured run.
struct RunResult {
    topology: &'static str,
    n: usize,
    threads: usize,
    steps: u64,
    moves: u64,
    rounds: u64,
    seconds: f64,
    converged: bool,
    /// Per-phase wall time of the measured run, from the pipeline's
    /// timed trace events.
    phase_select_nanos: u64,
    phase_apply_nanos: u64,
    phase_guards_nanos: u64,
    /// Steps on which the parallel apply/guards kernels engaged.
    apply_par_steps: u64,
    guards_par_steps: u64,
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

fn histogram_sum(m: &MetricsSet, key: &str) -> u64 {
    m.histogram(key).map(|h| h.sum()).unwrap_or(0)
}

/// Runs the composition to termination (or the Cor. 5 step bound under
/// the synchronous daemon) and reports throughput, the per-phase
/// metrics and the final configuration.
fn run_cell(
    g: &Graph,
    topology: &'static str,
    n: usize,
    threads: usize,
    trace_dir: Option<&str>,
) -> (RunResult, Vec<SdrAgreementState>, MetricsSet) {
    let algo = Sdr::new(Agreement::new(8));
    let init = algo.arbitrary_config(g, 0x5CA1E);
    let mut sim = Simulator::new(g, algo, init, Daemon::Synchronous, 11);
    sim.set_intra_threads(threads);
    // Phase-timed metrics on the measured run; optionally a JSONL
    // event trace (timing stays out of the file so traces of the same
    // cell are byte-identical).
    let file = trace_dir.and_then(|dir| {
        JsonlSink::create(format!("{dir}/trace-{topology}-{n}-t{threads}.jsonl")).ok()
    });
    sim.set_trace_sink(Box::new(CompositeSink::new(
        Some(PipelineMetrics::new()),
        file,
    )));
    // Synchronous steps are rounds, so Cor. 5 bounds convergence.
    let cap = 3 * g.node_count() as u64 + 16;
    let started = Instant::now();
    let mut converged = false;
    for _ in 0..cap {
        if let StepOutcome::Terminal = sim.step() {
            converged = true;
            break;
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    let mut cell_metrics = MetricsSet::new();
    if let Some(mut sink) = sim.take_trace_sink() {
        sink.flush();
        if let Some(folded) = sink
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<CompositeSink>())
            .and_then(CompositeSink::take_metrics)
        {
            cell_metrics = folded;
        }
    }
    let result = RunResult {
        topology,
        n,
        threads,
        steps: sim.stats().steps,
        moves: sim.stats().moves,
        rounds: sim.stats().completed_rounds,
        seconds,
        converged,
        phase_select_nanos: histogram_sum(&cell_metrics, "phase.select.nanos"),
        phase_apply_nanos: histogram_sum(&cell_metrics, "phase.apply.nanos"),
        phase_guards_nanos: histogram_sum(&cell_metrics, "phase.guards.nanos"),
        apply_par_steps: cell_metrics
            .counter_value("kernel.apply.par_steps")
            .unwrap_or(0),
        guards_par_steps: cell_metrics
            .counter_value("kernel.guards.par_steps")
            .unwrap_or(0),
    };
    // The full final configuration, compared exactly across thread
    // counts.
    let fingerprint = sim.states().to_vec();
    (result, fingerprint, cell_metrics)
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
        r.steps,
        r.moves,
        r.rounds,
        r.seconds,
        r.steps as f64 / r.seconds.max(1e-9),
        r.moves as f64 / r.seconds.max(1e-9),
        r.converged,
        r.phase_select_nanos,
        r.phase_apply_nanos,
        r.phase_guards_nanos,
        r.apply_par_steps,
        r.guards_par_steps,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let want_progress = args.iter().any(|a| a == "--progress");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_SCALE.json".into());
    let metrics_out = flag_value("--metrics");
    let trace_dir = flag_value("--trace");
    let report_dir = flag_value("--report");
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
        let mut baseline: Option<Vec<SdrAgreementState>> = None;
        for &threads in &threads_axis {
            let label = format!("{topology}/n={n}/t={threads}");
            if let Some(p) = progress.as_mut() {
                p.item_started(0, item, &label);
            }
            let (r, fingerprint, cell_metrics) =
                run_cell(&g, topology, n, threads, trace_dir.as_deref());
            println!(
                "{:>6} n={:<9} threads={} steps={:<8} {:>10.0} steps/s {:>10.0} moves/s converged={} phase s/a/g = {:.2}/{:.2}/{:.2}s",
                topology,
                n,
                threads,
                r.steps,
                r.steps as f64 / r.seconds.max(1e-9),
                r.moves as f64 / r.seconds.max(1e-9),
                r.converged,
                r.phase_select_nanos as f64 / 1e9,
                r.phase_apply_nanos as f64 / 1e9,
                r.phase_guards_nanos as f64 / 1e9,
            );
            let mut ok = true;
            if !r.converged {
                eprintln!("FAIL: {topology} n={n} threads={threads} did not converge");
                failures += 1;
                ok = false;
            }
            match &baseline {
                None => baseline = Some(fingerprint),
                Some(base) => {
                    if *base != fingerprint {
                        eprintln!(
                            "FAIL: {topology} n={n} threads={threads} diverged from sequential"
                        );
                        failures += 1;
                        ok = false;
                    }
                }
            }
            merged.merge(&cell_metrics);
            lines.push(json_escape_free(&r));
            if let Some(p) = progress.as_mut() {
                p.item_done(item, &label, ok);
            }
            item += 1;
        }
    }
    if let Some(p) = progress.as_mut() {
        p.finish();
    }

    let snapshot = merged.snapshot();
    if let Some(path) = &metrics_out {
        std::fs::write(path, format!("{}\n", snapshot.to_json())).expect("write --metrics file");
        eprint!("{}", snapshot.render_table());
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
        std::fs::write(
            dir.join("metrics.json"),
            format!("{}\n", snapshot.to_json()),
        )
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
