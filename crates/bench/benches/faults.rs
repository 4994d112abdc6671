//! E11 wall-clock: recovery of `U ∘ SDR` from k corrupted clocks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ssr_graph::generators;
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{Daemon, Simulator};
use ssr_unison::{unison_sdr, Unison};

fn fault_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_recovery");
    group.sample_size(10);
    let n = 32usize;
    let g = generators::ring(n);
    for k in [1usize, 4, 16, 32] {
        group.bench_with_input(BenchmarkId::new("k", k), &k, |b, &k| {
            b.iter(|| {
                let algo = unison_sdr(Unison::for_graph(&g));
                let period = algo.input().period();
                let check = unison_sdr(Unison::for_graph(&g));
                let init = algo.initial_config(&g);
                let mut sim = Simulator::new(&g, algo, init, Daemon::RandomSubset { p: 0.5 }, 1);
                sim.execution().cap(5 * n as u64).run();
                let mut rng = Xoshiro256StarStar::seed_from_u64(k as u64);
                let victims: Vec<_> = g.nodes().take(k).collect();
                for u in victims {
                    let mut s = *sim.state(u);
                    s.inner = rng.below(period);
                    sim.inject(u, s);
                }
                sim.reset_stats();
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

criterion_group!(benches, fault_recovery);
criterion_main!(benches);
