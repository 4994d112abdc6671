//! The intra-run parallelism contract at the campaign level: records
//! are byte-identical at any `intra_threads` value, for every family.
//!
//! Across-run engine determinism (worker threads) is pinned by
//! `determinism.rs`; this file pins the *within-run* axis introduced
//! with the staged step pipeline. Small grids exercise the plumbing
//! (hooks installed, nothing changes); the large-ring test crosses the
//! simulator's parallel-dispatch threshold so the scoped-thread
//! kernels genuinely run.

use ssr_campaign::{
    families, output, run_scenario, Amount, Campaign, InitPlan, PresetSpec, Sweep, TopologySpec,
};
use ssr_runtime::Daemon;

/// A mixed-family grid: every built-in family, fault plans, two
/// daemons.
fn mixed_campaign(intra: Vec<usize>) -> Campaign {
    Campaign::new("intra")
        .topologies(vec![TopologySpec::Ring, TopologySpec::RandSparse])
        .sizes(vec![8])
        .algorithms(vec![
            families::sdr_agreement(4),
            families::unison_sdr(),
            families::cfg_unison(),
            families::mono_reset(),
            families::fga_sdr(PresetSpec::Domination),
            families::fga_standalone(PresetSpec::Defensive),
        ])
        .daemons(vec![Daemon::Central, Daemon::RandomSubset { p: 0.5 }])
        .inits(vec![
            InitPlan::Arbitrary,
            InitPlan::CorruptClocks {
                k: Amount::QuarterN,
            },
        ])
        .step_cap(2_000_000)
        .seed(0x177A)
        .intra_threads(intra)
}

/// Sweeping the thread axis replicates every cell as the *same run*:
/// stripping the grid index, the records at 2, 4, and 8 intra-run
/// threads are byte-identical to the sequential ones.
#[test]
fn mixed_family_records_are_identical_across_intra_threads() {
    let base = Sweep::of(&mixed_campaign(vec![1])).threads(2).run();
    let swept = Sweep::of(&mixed_campaign(vec![1, 2, 4, 8]))
        .threads(2)
        .run();
    assert_eq!(swept.len(), 4 * base.len());
    for (cell, rec) in base.iter().enumerate() {
        for replica in 0..4 {
            let mut other = swept[4 * cell + replica].clone();
            other.index = rec.index;
            assert_eq!(&other, rec, "cell {cell} replica {replica}");
        }
    }
    // Serialized surfaces agree too (JSONL carries the index, so
    // compare the singleton sweep against the base directly).
    let explicit = Sweep::of(&mixed_campaign(vec![1])).threads(4).run();
    assert_eq!(output::jsonl(&base), output::jsonl(&explicit));
    assert_eq!(output::csv(&base), output::csv(&explicit));
}

/// A ring big enough that synchronous steps push thousands of nodes
/// through the apply and guard kernels — past the simulator's
/// parallel-dispatch threshold — so this compares *actually parallel*
/// runs against the sequential one, not just installed-but-idle hooks.
#[test]
fn large_ring_crosses_the_parallel_threshold() {
    let scenario = |threads: usize| ssr_campaign::Scenario {
        index: 0,
        topology: TopologySpec::Ring,
        n: 3_000,
        algorithm: families::unison_sdr(),
        daemon: Daemon::Synchronous,
        init: InitPlan::Arbitrary,
        trial: 0,
        seed: 0xB16,
        step_cap: 400,
        intra_threads: threads,
    };
    let sequential = run_scenario(scenario(1));
    assert!(sequential.steps > 0);
    for threads in [2, 4, 8] {
        let parallel = run_scenario(scenario(threads));
        assert_eq!(parallel, sequential, "threads={threads}");
    }
}
