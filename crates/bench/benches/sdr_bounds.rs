//! E1/E2 wall-clock: pure-SDR recovery (over the rule-less Agreement
//! input) from adversarial configurations, across sizes and daemons.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ssr_core::{toys::Agreement, Sdr};
use ssr_graph::generators;
use ssr_runtime::{Daemon, Simulator};

fn sdr_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("sdr_recovery");
    group.sample_size(10);
    for n in [16usize, 32, 64] {
        let g = generators::ring(n);
        group.bench_with_input(BenchmarkId::new("ring", n), &n, |b, _| {
            b.iter(|| {
                let sdr = Sdr::new(Agreement::new(8));
                let init = sdr.arbitrary_config(&g, 0xBE7C);
                let check = Sdr::new(Agreement::new(8));
                let mut sim = Simulator::new(&g, sdr, init, Daemon::RandomSubset { p: 0.5 }, 11);
                let out = sim
                    .execution()
                    .cap(10_000_000)
                    .until_all(|u, view| check.is_normal_at(u, view))
                    .run();
                assert!(out.reached);
                black_box(out.moves_at_hit)
            })
        });
    }
    group.finish();
}

fn sdr_daemons(c: &mut Criterion) {
    let mut group = c.benchmark_group("sdr_daemons");
    group.sample_size(10);
    let g = generators::random_connected(32, 24, 3);
    for daemon in [
        Daemon::Synchronous,
        Daemon::Central,
        Daemon::RandomSubset { p: 0.5 },
        Daemon::PreferHighRules,
    ] {
        group.bench_with_input(
            BenchmarkId::new("daemon", daemon.label()),
            &daemon,
            |b, daemon| {
                b.iter(|| {
                    let sdr = Sdr::new(Agreement::new(8));
                    let init = sdr.arbitrary_config(&g, 0xD43);
                    let check = Sdr::new(Agreement::new(8));
                    let mut sim = Simulator::new(&g, sdr, init, daemon.clone(), 7);
                    let out = sim
                        .execution()
                        .cap(10_000_000)
                        .until_all(|u, view| check.is_normal_at(u, view))
                        .run();
                    assert!(out.reached);
                    black_box(out.rounds_at_hit)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, sdr_recovery, sdr_daemons);
criterion_main!(benches);
