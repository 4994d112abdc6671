//! E10 wall-clock: cooperative resets (`U ∘ SDR`) vs uncoordinated
//! local resets (CFG) repairing a clock tear.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ssr_baselines::CfgUnison;
use ssr_bench::workloads::{unison_tear, unison_tear_plain};
use ssr_graph::generators;
use ssr_runtime::{Daemon, Simulator};
use ssr_unison::{spec, unison_sdr, Unison};

// Paths, not rings: on cycles the CFG baseline's reset waves chase
// each other for tens of millions of moves (see E10 in EXPERIMENTS.md),
// which is a finding to record once, not a benchmark to repeat. The
// one-shot ring comparison lives in the `experiments` binary.
fn tear_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("tear_repair");
    group.sample_size(10);
    for n in [16usize, 32, 64] {
        let g = generators::path(n);
        group.bench_with_input(BenchmarkId::new("sdr", n), &n, |b, _| {
            b.iter(|| {
                let algo = unison_sdr(Unison::for_graph(&g));
                let k = algo.input().period();
                let init = unison_tear(&g, k, n as u64 / 2);
                let check = unison_sdr(Unison::for_graph(&g));
                let mut sim = Simulator::new(&g, algo, init, Daemon::Central, 5);
                let out = sim
                    .execution()
                    .cap(50_000_000)
                    .until_all(|u, view| check.is_normal_at(u, view))
                    .run();
                assert!(out.reached);
                black_box(out.moves_at_hit)
            })
        });
        group.bench_with_input(BenchmarkId::new("cfg", n), &n, |b, _| {
            b.iter(|| {
                let algo = CfgUnison::for_graph(&g);
                let k = algo.period();
                let init = unison_tear_plain(&g, k, n as u64 / 2);
                let mut sim = Simulator::new(&g, algo, init, Daemon::Central, 5);
                let out = sim
                    .execution()
                    .cap(50_000_000)
                    .until_all(|u, view| spec::safety_holds_at(u, view, k))
                    .run();
                assert!(out.reached);
                black_box(out.moves_at_hit)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, tear_repair);
criterion_main!(benches);
