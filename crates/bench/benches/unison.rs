//! E4/E5 wall-clock: self-stabilizing unison stabilization, `U ∘ SDR`
//! versus the CFG baseline on identical instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ssr_baselines::CfgUnison;
use ssr_graph::generators;
use ssr_runtime::{Daemon, Simulator};
use ssr_unison::{spec, unison_sdr, Unison};

fn unison_sdr_stabilization(c: &mut Criterion) {
    let mut group = c.benchmark_group("unison_sdr");
    group.sample_size(10);
    for n in [16usize, 32, 64] {
        let g = generators::ring(n);
        group.bench_with_input(BenchmarkId::new("ring", n), &n, |b, _| {
            b.iter(|| {
                let algo = unison_sdr(Unison::for_graph(&g));
                let init = algo.arbitrary_config(&g, 0xE45);
                let check = unison_sdr(Unison::for_graph(&g));
                let mut sim = Simulator::new(&g, algo, init, Daemon::RandomSubset { p: 0.5 }, 5);
                let out = sim
                    .execution()
                    .cap(50_000_000)
                    .until_all(|u, view| check.is_normal_at(u, view))
                    .run();
                assert!(out.reached);
                black_box(out.moves_at_hit)
            })
        });
    }
    group.finish();
}

fn unison_cfg_stabilization(c: &mut Criterion) {
    let mut group = c.benchmark_group("unison_cfg_baseline");
    group.sample_size(10);
    for n in [16usize, 32, 64] {
        let g = generators::ring(n);
        group.bench_with_input(BenchmarkId::new("ring", n), &n, |b, _| {
            b.iter(|| {
                let algo = CfgUnison::for_graph(&g);
                let k = algo.period();
                let init = algo.arbitrary_config(&g, 0xE45);
                let mut sim = Simulator::new(&g, algo, init, Daemon::RandomSubset { p: 0.5 }, 5);
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

criterion_group!(benches, unison_sdr_stabilization, unison_cfg_stabilization);
criterion_main!(benches);
