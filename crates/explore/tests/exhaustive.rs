//! The explorer's ground-truth contract, property-tested:
//!
//! 1. stochastic campaign maxima on tiny graphs never exceed the
//!    exact worst case computed by exhaustive exploration (every
//!    stochastic schedule is one of the enumerated subset sequences);
//! 2. every extracted witness schedule replays byte-identically
//!    through `Execution` (moves, steps, rounds, `TerminationReason`)
//!    — the simulator's §2.4 round accounting and the explorer's
//!    front-product DP are independent implementations that must
//!    agree;
//! 3. parallel exploration is byte-identical to sequential.

use proptest::prelude::*;
use ssr_campaign::{families, AlgorithmSpec, InitPlan, PresetSpec, Scenario, TopologySpec};
use ssr_explore::campaign::{explore_scenario, stochastic_max, ScenarioExploreOptions};
use ssr_explore::{explore, ExploreOptions};
use ssr_runtime::{Daemon, Simulator, TerminationReason};

fn tiny_topology(idx: u8) -> TopologySpec {
    match idx % 5 {
        0 => TopologySpec::Path,
        1 => TopologySpec::Ring,
        2 => TopologySpec::Star,
        3 => TopologySpec::Caterpillar,
        _ => TopologySpec::Wheel,
    }
}

fn tiny_algorithm(idx: u8) -> AlgorithmSpec {
    match idx % 3 {
        0 => families::sdr_agreement(2),
        1 => families::unison_sdr(),
        _ => families::fga_sdr(PresetSpec::Domination),
    }
}

fn scenario(topology: TopologySpec, n: usize, algorithm: AlgorithmSpec, seed: u64) -> Scenario {
    Scenario {
        index: 0,
        topology,
        n,
        algorithm,
        daemon: Daemon::Central,
        init: InitPlan::Arbitrary,
        trial: 0,
        seed,
        step_cap: 2_000_000,
        intra_threads: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Properties 1 + 2 over random tiny scenarios: the exhaustive
    /// record verifies (closure, convergence, bounds, witness
    /// replays), and the stochastic maxima over the same initial
    /// configurations are dominated by the exact worst case.
    #[test]
    fn stochastic_maxima_never_exceed_exact_worst_case(
        topo_idx in 0u8..5,
        algo_idx in 0u8..3,
        n in 4usize..6,
        seed in 0u64..10_000,
    ) {
        let sc = scenario(tiny_topology(topo_idx), n, tiny_algorithm(algo_idx), seed);
        let opts = ScenarioExploreOptions::default();
        let exact = explore_scenario(&sc, &opts).expect("family supported");
        prop_assert!(exact.error.is_none(), "{exact:?}");
        prop_assert!(exact.verified, "closure/convergence must verify: {exact:?}");
        prop_assert!(exact.within_bounds, "exact worst case above paper bound: {exact:?}");
        prop_assert!(exact.replay_ok, "witness replay mismatch: {exact:?}");
        let stoch = stochastic_max(&sc, &opts).expect("family supported");
        prop_assert!(stoch.all_reached);
        prop_assert!(
            stoch.moves <= exact.exact_moves,
            "stochastic moves {} exceed exact worst case {}",
            stoch.moves,
            exact.exact_moves
        );
        prop_assert!(
            stoch.rounds <= exact.exact_rounds,
            "stochastic rounds {} exceed exact worst case {}",
            stoch.rounds,
            exact.exact_rounds
        );
    }

    /// Property 2, pinned directly on the library API: both witnesses
    /// replay to their exact move/step/round counts with
    /// `TerminationReason::PredicateMet`.
    #[test]
    fn witnesses_replay_byte_identically(
        topo_idx in 0u8..5,
        n in 4usize..6,
        seed0 in 0u64..100_000,
    ) {
        use ssr_core::{toys::Agreement, Sdr};
        let g = tiny_topology(topo_idx).build(n, 1);
        let sdr = Sdr::new(Agreement::new(2));
        let check = Sdr::new(Agreement::new(2));
        let inits: Vec<_> = (0..3).map(|k| sdr.arbitrary_config(&g, seed0 + k)).collect();
        let ex = explore(
            &g,
            &sdr,
            &inits,
            |gr, st| check.is_normal_config(gr, st),
            &ExploreOptions::default(),
        )
        .unwrap();
        prop_assert!(ex.verified());
        let worst = ex.worst.unwrap();
        for (w, target) in [
            (&ex.witness_moves, worst.moves),
            (&ex.witness_rounds, worst.rounds),
        ] {
            let Some(w) = w else {
                // Every sampled init was already legitimate.
                prop_assert_eq!(worst.moves, 0);
                continue;
            };
            let verify = Sdr::new(Agreement::new(2));
            let out = w.replay(&g, Sdr::new(Agreement::new(2)), inits[w.init].clone(), move |gr, st| {
                verify.is_normal_config(gr, st)
            });
            prop_assert!(w.matches(&out), "witness {:?} vs outcome {:?}", w, out);
            prop_assert_eq!(out.reason, TerminationReason::PredicateMet);
            // The witness achieves exactly the reported worst case.
            let achieved = if std::ptr::eq(w, ex.witness_moves.as_ref().unwrap()) {
                out.moves_at_hit
            } else {
                out.rounds_at_hit
            };
            prop_assert_eq!(achieved, target);
        }
    }

    /// Property 3: thread counts never change any part of the result —
    /// state counts, verdicts, worst cases, or witness schedules.
    #[test]
    fn parallel_exploration_is_byte_identical(
        topo_idx in 0u8..5,
        algo_idx in 0u8..2,
        seed in 0u64..10_000,
        threads in 2usize..6,
    ) {
        use ssr_core::{toys::Agreement, Sdr};
        use ssr_unison::{unison_sdr, Unison};
        let g = tiny_topology(topo_idx).build(5, seed);
        match algo_idx {
            0 => {
                let algo = Sdr::new(Agreement::new(2));
                let check = Sdr::new(Agreement::new(2));
                let inits: Vec<_> = (0..4).map(|s| algo.arbitrary_config(&g, seed + s)).collect();
                let legit = |gr: &ssr_graph::Graph, st: &[_]| check.is_normal_config(gr, st);
                let seq = explore(&g, &algo, &inits, legit, &ExploreOptions::default()).unwrap();
                let par = explore(
                    &g,
                    &algo,
                    &inits,
                    legit,
                    &ExploreOptions { threads, ..ExploreOptions::default() },
                )
                .unwrap();
                prop_assert_eq!(seq, par);
            }
            _ => {
                let algo = unison_sdr(Unison::for_graph(&g));
                let check = unison_sdr(Unison::for_graph(&g));
                let inits: Vec<_> = (0..4).map(|s| algo.arbitrary_config(&g, seed + s)).collect();
                let legit = |gr: &ssr_graph::Graph, st: &[_]| check.is_normal_config(gr, st);
                let seq = explore(&g, &algo, &inits, legit, &ExploreOptions::default()).unwrap();
                let par = explore(
                    &g,
                    &algo,
                    &inits,
                    legit,
                    &ExploreOptions { threads, ..ExploreOptions::default() },
                )
                .unwrap();
                prop_assert_eq!(seq, par);
            }
        }
    }
}

/// Deterministic anchor for the domination property: a stochastic run
/// driven by every daemon strategy on the exact witness init must stay
/// at or below the witness's own numbers.
#[test]
fn witness_is_a_reachable_stochastic_upper_bound() {
    use ssr_core::{toys::Agreement, Sdr};
    let g = ssr_graph::generators::caterpillar(2, 1);
    let sdr = Sdr::new(Agreement::new(2));
    let check = Sdr::new(Agreement::new(2));
    let inits: Vec<_> = (0..8).map(|s| sdr.arbitrary_config(&g, s)).collect();
    let ex = explore(
        &g,
        &sdr,
        &inits,
        |gr, st| check.is_normal_config(gr, st),
        &ExploreOptions::default(),
    )
    .unwrap();
    let worst = ex.worst.unwrap();
    let w = ex.witness_moves.expect("some init is illegitimate");
    for daemon in Daemon::all_strategies() {
        for seed in 0..5u64 {
            let verify = Sdr::new(Agreement::new(2));
            let algo = Sdr::new(Agreement::new(2));
            let out = Simulator::new(&g, algo, inits[w.init].clone(), daemon.clone(), seed)
                .execution()
                .cap(1_000_000)
                .until(move |gr, st| verify.is_normal_config(gr, st))
                .run();
            assert!(out.reached);
            assert!(
                out.moves_at_hit <= worst.moves,
                "{daemon:?} observed {} moves, exact worst is {}",
                out.moves_at_hit,
                worst.moves
            );
            assert!(out.rounds_at_hit <= worst.rounds);
        }
    }
}
