//! Wall-clock benches for the staged step pipeline itself: the
//! select → apply → guard-refresh phases at different intra-run thread
//! counts, and the narrow single-move step.
//!
//! The wide workload is the composed `Agreement ∘ SDR` family on a
//! ring — small constant-degree neighborhoods, so the kernels (not the
//! cache) dominate — under the synchronous daemon, which maximizes the
//! per-step selection and therefore the work the apply/guard kernels
//! can fan out. The narrow workloads run ring₆₄ from a half-n clock
//! tear under the central daemon: `cfg-unison` (E10's capped baseline
//! cell) and `unison-sdr`, whose guard is the composed one every
//! `I ∘ SDR` family pays for. One mover and a three-node refresh set per
//! step, so the per-step bookkeeping and the guard kernel set the
//! cost. `main` reports each one's ns per step and ns per guard
//! evaluation, then runs an explicit byte-identity tripwire: the
//! parallel pipeline must reproduce the sequential run exactly, state
//! for state and stat for stat.

use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion};
use ssr_baselines::CfgUnison;
use ssr_core::toys::Agreement;
use ssr_core::Sdr;
use ssr_graph::{generators, Graph};
use ssr_runtime::{Algorithm, ConfigView, Daemon, Simulator, StepOutcome};
use ssr_unison::workloads::{unison_tear, unison_tear_plain};
use ssr_unison::{unison_sdr, Unison, UnisonSdr};

const N: usize = 20_000;
const STEPS: u64 = 10;

/// Ring size and step budget of the narrow case (~0.05 s per run).
const NARROW_N: usize = 64;
const NARROW_STEPS: u64 = 200_000;

fn sim_for(g: &Graph, threads: usize) -> Simulator<'_, Sdr<Agreement>> {
    let algo = Sdr::new(Agreement::new(8));
    let init = algo.arbitrary_config(g, 0xA57);
    let mut sim = Simulator::new(g, algo, init, Daemon::Synchronous, 9);
    if threads > 1 {
        sim.set_intra_threads(threads);
    }
    sim
}

fn run_steps(g: &Graph, threads: usize) -> u64 {
    let mut sim = sim_for(g, threads);
    for _ in 0..STEPS {
        if let StepOutcome::Terminal = sim.step() {
            break;
        }
    }
    sim.stats().moves
}

/// The cfg-unison narrow case: ring₆₄ from the half-n tear, central
/// daemon. It stays torn for the whole budget.
fn narrow_cfg(g: &Graph) -> Simulator<'_, CfgUnison> {
    let algo = CfgUnison::for_graph(g);
    let init = unison_tear_plain(g, algo.period(), NARROW_N as u64 / 2);
    Simulator::new(g, algo, init, Daemon::Central, 7)
}

/// The unison-sdr narrow case: the same ring, tear and daemon. The
/// reset repairs the tear early on; unison then never goes silent.
fn narrow_sdr(g: &Graph) -> Simulator<'_, UnisonSdr> {
    let algo = unison_sdr(Unison::for_graph(g));
    let init = unison_tear(g, algo.input().period(), NARROW_N as u64 / 2);
    Simulator::new(g, algo, init, Daemon::Central, 7)
}

/// Runs a narrow case's budget; returns the simulator and the number
/// of guard evaluations (refreshed nodes) it made.
fn narrow_run<A: Algorithm>(mut sim: Simulator<'_, A>) -> (Simulator<'_, A>, u64) {
    let mut evals = 0u64;
    for _ in 0..NARROW_STEPS {
        if let StepOutcome::Terminal = sim.step() {
            break;
        }
        evals += sim.last_refreshed().len() as u64;
    }
    (sim, evals)
}

/// The guard kernel alone: every node's guard on `states`, `rounds`
/// times over. Returns a fold of the guards so nothing is optimized
/// out.
fn guard_kernel<A: Algorithm>(g: &Graph, algo: &A, states: &[A::State], rounds: usize) -> u32 {
    let view = ConfigView::new(g, states);
    let mut acc = 0u32;
    for _ in 0..rounds {
        for u in g.nodes() {
            let guard = algo.guard(u, &view);
            acc = acc.wrapping_add(guard.mask.0 + u32::from(guard.legit));
        }
    }
    acc
}

fn bench_step_pipeline(c: &mut Criterion) {
    let g = generators::ring(N);
    let mut group = c.benchmark_group("step_pipeline");
    group.sample_size(20);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| b.iter(|| run_steps(&g, threads)),
        );
    }
    let ring = generators::ring(NARROW_N);
    group.bench_function(
        BenchmarkId::from_parameter("narrow-cfg-unison-ring64"),
        |b| b.iter(|| narrow_run(narrow_cfg(&ring)).1),
    );
    group.bench_function(
        BenchmarkId::from_parameter("narrow-unison-sdr-ring64"),
        |b| b.iter(|| narrow_run(narrow_sdr(&ring)).1),
    );
    group.finish();
}

/// Median wall time of 15 runs of `f`, in nanoseconds.
fn median_ns(f: &dyn Fn() -> u64) -> f64 {
    let mut samples: Vec<u128> = (0..15)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// A narrow case's per-step and per-guard-evaluation costs: the step
/// loop over its whole budget, and the guard kernel over every node of
/// the configuration the loop ends in.
fn narrow_report<A: Algorithm>(label: &str, build: for<'g> fn(&'g Graph) -> Simulator<'g, A>) {
    let g = generators::ring(NARROW_N);
    let (sim, evals) = narrow_run(build(&g));
    assert_eq!(
        sim.stats().moves,
        NARROW_STEPS,
        "{label}: the run must stay live for the budget"
    );
    let step_ns = median_ns(&|| narrow_run(build(&g)).1) / NARROW_STEPS as f64;

    let states = sim.states();
    let algo = sim.algorithm();
    let rounds = 4_096;
    let kernel_ns = median_ns(&|| u64::from(guard_kernel(&g, algo, states, rounds)))
        / (rounds * NARROW_N) as f64;
    println!(
        "step_pipeline/narrow: {label} ring{NARROW_N} tear, central, {NARROW_STEPS} steps: \
         {step_ns:.1} ns/step, {:.2} guard evals/step, {kernel_ns:.2} ns/guard eval",
        evals as f64 / NARROW_STEPS as f64
    );
}

/// The determinism tripwire: at every thread count the pipeline must
/// produce byte-identical configurations, stats, and daemon state.
fn byte_identity_check() {
    let g = generators::ring(2_500);
    let run = |threads: usize| {
        let mut sim = sim_for(&g, threads);
        // Force the parallel dispatch even for sub-threshold phases so
        // the check exercises the kernels, not the sequential fallback.
        sim.set_par_threshold(0);
        for _ in 0..40 {
            if let StepOutcome::Terminal = sim.step() {
                break;
            }
        }
        (sim.states().to_vec(), sim.stats().clone())
    };
    let baseline = run(1);
    for threads in [2, 4, 8] {
        assert!(
            run(threads) == baseline,
            "parallel step pipeline diverged from sequential at {threads} threads"
        );
    }
    println!("step_pipeline/byte-identity: threads 2/4/8 match sequential");
}

criterion_group!(benches, bench_step_pipeline);

fn main() {
    benches();
    narrow_report("cfg-unison", narrow_cfg);
    narrow_report("unison-sdr", narrow_sdr);
    byte_identity_check();
}
