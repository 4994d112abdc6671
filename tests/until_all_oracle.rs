//! Differential oracle for `Execution::until_legitimate`: the stop
//! condition that reads the failing-node count the guard phase keeps
//! (each refreshed node's legitimacy term comes out of the same scan
//! as its mask) must stop every family's run on exactly the step where
//! the whole-configuration predicate (the spec) first holds.
//!
//! Both sides run the same scenario — random connected graph, daemon,
//! seed, intra-run thread count — and must agree on the `RunOutcome`,
//! the `RunStats` and the final configuration. Half the cases resume a
//! simulator after `Simulator::inject`, whose own refresh has to keep
//! the count right: the last step's refresh set does not name the
//! injected nodes.

use proptest::prelude::*;
use ssr_baselines::{CfgUnison, MonoReset, MonoState, Phase};
use ssr_core::{toys::Agreement, Sdr, Standalone};
use ssr_graph::{generators, Graph};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{Algorithm, ConfigView, Daemon, NodeId, Simulator};
use ssr_unison::{spec, unison_sdr, Unison};

/// How one differential case is driven.
struct Drive {
    daemon: Daemon,
    seed: u64,
    threads: usize,
    cap: u64,
    /// `Some(steps)`: run `steps` steps first, then inject the donor's
    /// states at about a third of the nodes and resume.
    resume_after: Option<u64>,
}

/// Runs `algo` from `start` twice — stopped by `until_legitimate()` and
/// by `until(oracle)` — and asserts both runs are identical.
fn differential<A, P>(
    g: &Graph,
    algo: &A,
    start: &[A::State],
    donor: &[A::State],
    d: &Drive,
    oracle: P,
) where
    A: Algorithm + Clone + Sync,
    A::State: Send + Sync,
    P: Fn(&Graph, &[A::State]) -> bool + Copy,
{
    let run = |incremental: bool| {
        let mut sim = Simulator::new(g, algo.clone(), start.to_vec(), d.daemon.clone(), d.seed);
        // Engage the parallel kernels even on these small graphs.
        sim.set_par_threshold(0);
        sim.set_intra_threads(d.threads);
        if let Some(steps) = d.resume_after {
            sim.execution().cap(steps).run();
            for u in g
                .nodes()
                .filter(|u| (u.index() as u64 + d.seed).is_multiple_of(3))
            {
                sim.inject(u, donor[u.index()].clone());
            }
        }
        let exec = sim.execution().cap(d.cap);
        let out = if incremental {
            exec.until_legitimate().run()
        } else {
            exec.until(oracle).run()
        };
        (out, sim.stats().clone(), sim.states().to_vec())
    };
    let (local, whole) = (run(true), run(false));
    assert_eq!(local.0, whole.0, "RunOutcome");
    assert_eq!(local.1, whole.1, "RunStats");
    assert_eq!(local.2, whole.2, "final configuration");
}

/// Arbitrary mono-reset states: any wave phase, any clock.
fn mono_arbitrary(g: &Graph, period: u64, seed: u64) -> Vec<MonoState<u64>> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    g.nodes()
        .map(|_| MonoState {
            phase: match rng.below(4) {
                0 => Phase::Idle,
                1 => Phase::Req,
                2 => Phase::RB,
                _ => Phase::RF,
            },
            inner: rng.below(period),
        })
        .collect()
}

/// Clocks drawn from `0..period`.
fn clocks(g: &Graph, period: u64, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    g.nodes().map(|_| rng.below(period)).collect()
}

/// The differential case for `family` (unison-sdr, cfg-unison, unison,
/// mono-reset, sdr-agreement), from the designated legitimate
/// configuration when `legit`, else from an arbitrary one.
fn check_family(family: usize, g: &Graph, d: &Drive, legit: bool) {
    let (seed, donor_seed) = (d.seed, d.seed ^ 0xD0_D0);
    match family {
        0 => {
            let algo = unison_sdr(Unison::for_graph(g));
            let start = if legit {
                algo.initial_config(g)
            } else {
                algo.arbitrary_config(g, seed)
            };
            let donor = algo.arbitrary_config(g, donor_seed);
            differential(g, &algo, &start, &donor, d, |gr, st| {
                algo.is_normal_config(gr, st)
            });
        }
        1 => {
            let algo = CfgUnison::for_graph(g);
            let k = algo.period();
            let start = if legit {
                algo.initial_config(g)
            } else {
                algo.arbitrary_config(g, seed)
            };
            let donor = algo.arbitrary_config(g, donor_seed);
            differential(g, &algo, &start, &donor, d, |gr, st| {
                spec::safety_holds(gr, st, k)
            });
        }
        2 => {
            let unison = Unison::for_graph(g);
            let k = unison.period();
            let algo = Standalone::new(unison);
            let start = if legit {
                algo.initial_config(g)
            } else {
                clocks(g, k, seed)
            };
            let donor = clocks(g, k, donor_seed);
            differential(g, &algo, &start, &donor, d, |gr, st| {
                spec::safety_holds(gr, st, k)
            });
        }
        3 => {
            let algo = MonoReset::new(g, Unison::for_graph(g), NodeId(0));
            let k = algo.input().period();
            let start = if legit {
                algo.initial_config(g)
            } else {
                mono_arbitrary(g, k, seed)
            };
            let donor = mono_arbitrary(g, k, donor_seed);
            differential(g, &algo, &start, &donor, d, |gr, st| {
                algo.is_normal_config(gr, st)
            });
        }
        _ => {
            let algo = Sdr::new(Agreement::new(5));
            let start = if legit {
                algo.initial_config(g)
            } else {
                algo.arbitrary_config(g, seed)
            };
            let donor = algo.arbitrary_config(g, donor_seed);
            differential(g, &algo, &start, &donor, d, |gr, st| {
                algo.is_normal_config(gr, st)
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `until_legitimate()` ≡ `until(whole-config oracle)` for
    /// unison-sdr, cfg-unison, unison, mono-reset and sdr-agreement,
    /// each on every case.
    #[test]
    fn until_legitimate_matches_the_whole_configuration_oracle(
        n in 2usize..=64,
        extra in 0usize..24,
        graph_seed in 0u64..100_000,
        seed in 0u64..100_000,
        daemon_idx in 0usize..9,
        threads_idx in 0usize..3,
        cap_idx in 0usize..3,
        legit_start in 0u8..2,
        resume in 0u8..2,
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        let d = Drive {
            daemon: Daemon::all_strategies()[daemon_idx].clone(),
            seed,
            threads: [1, 2, 4][threads_idx],
            cap: [0, 40, 20_000][cap_idx],
            resume_after: (resume == 1).then_some(seed % 30),
        };
        for family in 0..5 {
            check_family(family, &g, &d, legit_start == 1);
        }
    }

    /// Unison safety is the conjunction of its node-local terms, on
    /// arbitrary clock vectors; small periods make the wrap-around
    /// `K − 1 → 0` frequent.
    #[test]
    fn safety_holds_iff_it_holds_at_every_node(
        n in 1usize..=64,
        extra in 0usize..24,
        graph_seed in 0u64..100_000,
        period in 2u64..12,
        clock_seed in 0u64..100_000,
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        let c = clocks(&g, period, clock_seed);
        let view = ConfigView::new(&g, &c);
        prop_assert_eq!(
            spec::safety_holds(&g, &c, period),
            g.nodes().all(|u| spec::safety_holds_at(u, &view, period))
        );
    }
}

#[test]
fn safety_at_a_node_wraps_around_the_period() {
    let g = generators::path(3);
    let k = 7;
    for (clocks, holds) in [
        ([6, 0, 1], [true, true, true]),
        ([5, 0, 0], [false, false, true]),
        ([0, 6, 5], [true, true, true]),
        ([1, 6, 6], [false, false, true]),
    ] {
        let view = ConfigView::new(&g, &clocks);
        let at: Vec<bool> = g
            .nodes()
            .map(|u| spec::safety_holds_at(u, &view, k))
            .collect();
        assert_eq!(at, holds, "clocks {clocks:?}");
        assert_eq!(spec::safety_holds(&g, &clocks, k), holds.iter().all(|&h| h));
    }
}
