//! The engine's determinism contract: running any campaign with 1
//! thread and with 4 threads yields identical serialized results, and
//! every record equals the one its scenario gives when run alone on a
//! graph of its own.

use proptest::prelude::*;
use ssr_campaign::{
    families, output, run_scenario, Amount, Campaign, InitPlan, Sweep, TopologySpec,
};
use ssr_runtime::Daemon;

proptest! {
    /// Serialized campaign results are byte-identical across thread
    /// counts, for random quick grids over mixed families/inits.
    #[test]
    fn one_thread_equals_four_threads(
        master_seed in 0u64..10_000,
        trials in 1u64..3,
        size in 5usize..9,
        daemon_pick in 0usize..3,
        init_pick in 0usize..3,
    ) {
        let daemons = match daemon_pick {
            0 => vec![Daemon::Central],
            1 => vec![Daemon::Synchronous, Daemon::Central],
            _ => vec![Daemon::RandomSubset { p: 0.5 }],
        };
        let inits = match init_pick {
            0 => vec![InitPlan::Arbitrary],
            1 => vec![InitPlan::Arbitrary, InitPlan::Normal],
            _ => vec![InitPlan::Tear { gap: Amount::HalfN }],
        };
        let campaign = Campaign::new("prop-determinism")
            .topologies(vec![TopologySpec::Ring, TopologySpec::RandTree])
            .sizes(vec![size])
            .algorithms(vec![families::sdr_agreement(4), families::unison_sdr()])
            .daemons(daemons)
            .inits(inits)
            .trials(trials)
            .step_cap(500_000)
            .seed(master_seed);
        let sequential = Sweep::of(&campaign).threads(1).run();
        let parallel = Sweep::of(&campaign).threads(4).run();
        prop_assert_eq!(&sequential, &parallel);
        prop_assert_eq!(output::jsonl(&sequential), output::jsonl(&parallel));
        prop_assert_eq!(output::csv(&sequential), output::csv(&parallel));
    }
}

proptest! {
    /// The slow oracle for the workers' graph reuse: every record a
    /// sweep returns, at 1 and at 4 threads, equals `run_scenario` of
    /// its scenario — which builds a fresh graph — with the campaign id
    /// stamped. The grids interleave seed-free topologies (whose graph
    /// a worker reuses) with seeded ones (whose graph it must not),
    /// and every cell has several scenarios, so a seeded topology that
    /// claimed to ignore its seed would run on a stale graph.
    #[test]
    fn every_record_equals_its_scenario_run_on_a_fresh_graph(
        master_seed in 0u64..10_000,
        order in 0usize..4,
        small in 5usize..8,
        large in 8usize..11,
        trials in 2u64..4,
    ) {
        let mut topologies = vec![
            TopologySpec::Ring,
            TopologySpec::RandTree,
            TopologySpec::Path,
            TopologySpec::Gnp { per_mille: 400 },
            TopologySpec::Star,
        ];
        topologies.rotate_left(order);
        let campaign = Campaign::new("prop-fresh-graph")
            .topologies(topologies)
            .sizes(vec![small, large])
            .algorithms(vec![families::unison_sdr(), families::sdr_agreement(4)])
            .daemons(vec![Daemon::Central])
            .trials(trials)
            .step_cap(500_000)
            .seed(master_seed);
        let oracle: Vec<_> = campaign
            .scenarios()
            .map(|sc| {
                let mut rec = run_scenario(sc);
                rec.campaign = campaign.id().to_string();
                rec
            })
            .collect();
        for threads in [1, 4] {
            let swept = Sweep::of(&campaign).threads(threads).run();
            prop_assert_eq!(&swept, &oracle, "threads={}", threads);
        }
    }
}

/// A fixed heavier grid (all families, fault plans, adversarial
/// daemons) once — the deterministic anchor for the property above.
#[test]
fn mixed_family_grid_is_thread_invariant() {
    let campaign = Campaign::new("anchor")
        .topologies(vec![
            TopologySpec::Ring,
            TopologySpec::Star,
            TopologySpec::RandSparse,
        ])
        .sizes(vec![6, 9])
        .algorithms(vec![
            families::unison_sdr(),
            families::cfg_unison(),
            families::mono_reset(),
            families::fga_sdr(ssr_campaign::PresetSpec::Domination),
        ])
        .daemons(vec![Daemon::Central, Daemon::RandomSubset { p: 0.3 }])
        .inits(vec![
            InitPlan::Arbitrary,
            InitPlan::CorruptClocks {
                k: Amount::QuarterN,
            },
        ])
        .trials(1)
        .step_cap(2_000_000)
        .seed(0xA11CE);
    let sequential = Sweep::of(&campaign).threads(1).run();
    for threads in [2, 4, 8] {
        assert_eq!(
            output::jsonl(&sequential),
            output::jsonl(&Sweep::of(&campaign).threads(threads).run()),
            "threads={threads}"
        );
    }
    // And the sweep is sound: nothing failed its bound.
    assert!(sequential.iter().all(|r| r.verdict.ok()));
}
