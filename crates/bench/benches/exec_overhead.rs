//! Micro-bench: the `Execution` path vs the raw `sim.step()` loop —
//! the redesign's zero-cost claim, and the cost of a stop condition.
//!
//! Two workloads, each run identically on both sides, so any gap is
//! pure harness overhead:
//!
//! * standalone FGA domination on a fixed random graph, driven to
//!   termination with a no-op observer;
//! * `cfg-unison` on ring₆₄ from a half-n clock tear under the central
//!   daemon (E10's capped baseline cell: single-move steps), stopped by
//!   `until_legitimate()` (unison safety, which the guard kernel
//!   decides with each mask). It never converges within [`TEAR_CAP`]
//!   steps, so both sides take exactly that many.
//!
//! Besides the criterion groups, `main` runs an explicit check
//! asserting each `Execution` path stays within 1.5× of its raw loop —
//! a tripwire for gross regressions, with enough slack to stay robust
//! on noisy machines. The whole-configuration predicate
//! `until(safety_holds)` costs about 3× the raw loop on the tear, so
//! the second check fails if a family's stop condition goes back to
//! re-reading the whole configuration after every step.

use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion};
use ssr_alliance::presets;
use ssr_baselines::CfgUnison;
use ssr_core::Standalone;
use ssr_graph::{generators, Graph};
use ssr_runtime::{Daemon, Simulator, StepOutcome, TerminationReason};
use ssr_unison::workloads::unison_tear_plain;

const CAP: u64 = 1_000_000;

/// Step budget of the tear case (~0.1 s per run).
const TEAR_CAP: u64 = 200_000;

fn workload() -> (Graph, ssr_alliance::Fga) {
    let g = generators::random_connected(64, 48, 9);
    let fga = presets::domination(&g).expect("domination is always valid");
    (g, fga)
}

fn raw_loop(g: &Graph, fga: &ssr_alliance::Fga) -> u64 {
    let alg = Standalone::new(fga.clone());
    let init = alg.initial_config(g);
    let mut sim = Simulator::new(g, alg, init, Daemon::Central, 7);
    let mut steps = 0u64;
    while steps < CAP {
        match sim.step() {
            StepOutcome::Terminal => break,
            StepOutcome::Progress { .. } => steps += 1,
        }
    }
    sim.stats().moves
}

fn execution_noop(g: &Graph, fga: &ssr_alliance::Fga) -> u64 {
    let alg = Standalone::new(fga.clone());
    let init = alg.initial_config(g);
    let mut sim = Simulator::new(g, alg, init, Daemon::Central, 7);
    sim.execution().cap(CAP).run();
    sim.stats().moves
}

/// The tear case: ring₆₄ and the half-n tear at the cfg-unison period.
fn tear_workload() -> (Graph, Vec<u64>) {
    let g = generators::ring(64);
    let period = CfgUnison::for_graph(&g).period();
    let init = unison_tear_plain(&g, period, 32);
    (g, init)
}

fn tear_raw_loop(g: &Graph, init: &[u64]) -> u64 {
    let mut sim = Simulator::new(
        g,
        CfgUnison::for_graph(g),
        init.to_vec(),
        Daemon::Central,
        7,
    );
    for _ in 0..TEAR_CAP {
        if sim.step() == StepOutcome::Terminal {
            break;
        }
    }
    sim.stats().moves
}

fn tear_until_legitimate(g: &Graph, init: &[u64]) -> u64 {
    let mut sim = Simulator::new(
        g,
        CfgUnison::for_graph(g),
        init.to_vec(),
        Daemon::Central,
        7,
    );
    let out = sim.execution().cap(TEAR_CAP).until_legitimate().run();
    assert_eq!(
        out.reason,
        TerminationReason::CapExhausted,
        "the tear must stay torn for the whole budget"
    );
    sim.stats().moves
}

fn bench_exec_overhead(c: &mut Criterion) {
    let (g, fga) = workload();
    let mut group = c.benchmark_group("exec_overhead");
    group.sample_size(30);
    group.bench_function(BenchmarkId::from_parameter("raw-step-loop"), |b| {
        b.iter(|| raw_loop(&g, &fga))
    });
    group.bench_function(
        BenchmarkId::from_parameter("execution-noop-observer"),
        |b| b.iter(|| execution_noop(&g, &fga)),
    );
    let (g, init) = tear_workload();
    group.bench_function(BenchmarkId::from_parameter("tear-raw-step-loop"), |b| {
        b.iter(|| tear_raw_loop(&g, &init))
    });
    group.bench_function(BenchmarkId::from_parameter("tear-until-legitimate"), |b| {
        b.iter(|| tear_until_legitimate(&g, &init))
    });
    group.finish();
}

/// Median wall times of 15 runs of each of `fs`, in nanoseconds. The
/// samples alternate (one run of each function per round), so a change
/// in host speed lands on every path alike.
fn medians_ns<const K: usize>(fs: [&dyn Fn() -> u64; K]) -> [u128; K] {
    let mut samples = [(); K].map(|_| Vec::with_capacity(15));
    for _ in 0..15 {
        for (f, s) in fs.iter().zip(samples.iter_mut()) {
            let t = Instant::now();
            std::hint::black_box(f());
            s.push(t.elapsed().as_nanos());
        }
    }
    samples.map(|mut s| {
        s.sort_unstable();
        s[s.len() / 2]
    })
}

/// Times an `Execution` path against its raw loop (both warmed once,
/// both doing the same moves) and asserts a generous 1.5× tripwire
/// over medians.
fn check_ratio(name: &str, raw: &dyn Fn() -> u64, exec: &dyn Fn() -> u64) {
    assert_eq!(raw(), exec(), "{name}: both paths must do the same work");
    let [raw_ns, exec_ns] = medians_ns([raw, exec]);
    let ratio = exec_ns as f64 / raw_ns as f64;
    println!("exec_overhead/{name}: raw {raw_ns}ns, execution {exec_ns}ns, ratio {ratio:.3}");
    assert!(
        ratio < 1.5,
        "{name}: the Execution path must stay within 1.5× of the raw loop \
         (raw {raw_ns}ns vs execution {exec_ns}ns, ratio {ratio:.3})"
    );
}

/// The no-op-observer execution should be within noise of the raw
/// loop; so should the legitimacy stop condition, which reads the
/// failing-node count the guard phase keeps.
fn overhead_check() {
    let (g, fga) = workload();
    check_ratio("check", &|| raw_loop(&g, &fga), &|| {
        execution_noop(&g, &fga)
    });
    let (g, init) = tear_workload();
    check_ratio(
        "tear-until-legitimate",
        &|| tear_raw_loop(&g, &init),
        &|| tear_until_legitimate(&g, &init),
    );
}

criterion_group!(benches, bench_exec_overhead);

fn main() {
    benches();
    overhead_check();
}
