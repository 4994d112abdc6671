//! Micro-bench: the step pipeline with observability channels off vs
//! on — the `ssr-obs` zero-cost claim.
//!
//! Three variants of the identical workload (standalone FGA domination
//! on a fixed random graph, driven to termination):
//!
//! * **bare** — no trace sink installed; the step runs its untraced
//!   instantiation, which contains no emit.
//! * **no-op sink** — [`NoTrace`] installed, so every event is built
//!   and immediately discarded; measures the event-construction cost.
//! * **metrics sink** — [`PipelineMetrics::without_timing`], the
//!   deterministic counter/histogram accumulation used by `--metrics`.
//!
//! Besides the criterion groups, `main` runs an explicit check (the
//! `exec_overhead` tripwire pattern) asserting both instrumented paths
//! stay within a small factor of the bare loop — observability must
//! not tax the pipeline when enabled, and must cost *nothing* when
//! disabled.

use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion};
use ssr_alliance::presets;
use ssr_core::Standalone;
use ssr_graph::{generators, Graph};
use ssr_obs::pipeline::PipelineMetrics;
use ssr_runtime::trace::{NoTrace, TraceSink};
use ssr_runtime::{Daemon, Simulator, StepOutcome};

const CAP: u64 = 1_000_000;

fn workload() -> (Graph, ssr_alliance::Fga) {
    let g = generators::random_connected(64, 48, 9);
    let fga = presets::domination(&g).expect("domination is always valid");
    (g, fga)
}

fn run(g: &Graph, fga: &ssr_alliance::Fga, sink: Option<Box<dyn TraceSink>>) -> u64 {
    let alg = Standalone::new(fga.clone());
    let init = alg.initial_config(g);
    let mut sim = Simulator::new(g, alg, init, Daemon::Central, 7);
    if let Some(sink) = sink {
        sim.set_trace_sink(sink);
    }
    let mut steps = 0u64;
    while steps < CAP {
        match sim.step() {
            StepOutcome::Terminal => break,
            StepOutcome::Progress { .. } => steps += 1,
        }
    }
    sim.stats().moves
}

fn bare(g: &Graph, fga: &ssr_alliance::Fga) -> u64 {
    run(g, fga, None)
}

fn noop_sink(g: &Graph, fga: &ssr_alliance::Fga) -> u64 {
    run(g, fga, Some(Box::new(NoTrace)))
}

fn metrics_sink(g: &Graph, fga: &ssr_alliance::Fga) -> u64 {
    run(g, fga, Some(Box::new(PipelineMetrics::without_timing())))
}

fn bench_obs_overhead(c: &mut Criterion) {
    let (g, fga) = workload();
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(30);
    group.bench_function(BenchmarkId::from_parameter("bare-step-loop"), |b| {
        b.iter(|| bare(&g, &fga))
    });
    group.bench_function(BenchmarkId::from_parameter("no-op-trace-sink"), |b| {
        b.iter(|| noop_sink(&g, &fga))
    });
    group.bench_function(BenchmarkId::from_parameter("metrics-sink"), |b| {
        b.iter(|| metrics_sink(&g, &fga))
    });
    group.finish();
}

/// Times all three paths directly and asserts the instrumented loops
/// are not measurably slower than the bare one (generous 1.5× tripwire
/// over medians; all three should be within noise of each other). The
/// 15 samples of each path alternate (bare, no-op, metrics, bare, …),
/// so a change in host speed lands on every path alike.
fn overhead_check() {
    let (g, fga) = workload();
    assert_eq!(bare(&g, &fga), noop_sink(&g, &fga));
    assert_eq!(bare(&g, &fga), metrics_sink(&g, &fga));
    let paths: [fn(&Graph, &ssr_alliance::Fga) -> u64; 3] = [bare, noop_sink, metrics_sink];
    let mut samples = [(); 3].map(|_| Vec::with_capacity(15));
    for _ in 0..15 {
        for (f, s) in paths.iter().zip(samples.iter_mut()) {
            let t = Instant::now();
            std::hint::black_box(f(&g, &fga));
            s.push(t.elapsed().as_nanos());
        }
    }
    let [base, noop, metrics] = samples.map(|mut s| {
        s.sort_unstable();
        s[s.len() / 2]
    });
    let noop_ratio = noop as f64 / base as f64;
    let metrics_ratio = metrics as f64 / base as f64;
    println!(
        "obs_overhead/check: bare {base}ns, no-op sink {noop}ns (ratio {noop_ratio:.3}), \
         metrics sink {metrics}ns (ratio {metrics_ratio:.3})"
    );
    assert!(
        noop_ratio < 1.5,
        "a no-op trace sink must not add measurable overhead \
         (bare {base}ns vs no-op {noop}ns, ratio {noop_ratio:.3})"
    );
    assert!(
        metrics_ratio < 1.5,
        "untimed metrics accumulation must stay within noise of the bare loop \
         (bare {base}ns vs metrics {metrics}ns, ratio {metrics_ratio:.3})"
    );
}

criterion_group!(benches, bench_obs_overhead);

fn main() {
    benches();
    overhead_check();
}
