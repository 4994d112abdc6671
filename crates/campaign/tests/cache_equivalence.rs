//! The cache-consistency contract: a campaign served cold (all
//! misses), warm (all hits), or half-warm (any mix) produces
//! byte-identical JSONL and CSV artifacts, at any thread count — and a
//! fully-warm run never touches the simulator.

use proptest::prelude::*;
use ssr_campaign::{
    families, output, Amount, Campaign, InitPlan, RecordCache, Sweep, TopologySpec,
};
use ssr_runtime::Daemon;

fn quick_grid(master_seed: u64, trials: u64, daemon_pick: usize) -> Campaign {
    let daemons = match daemon_pick {
        0 => vec![Daemon::Central],
        1 => vec![Daemon::Synchronous],
        _ => vec![Daemon::RandomSubset { p: 0.5 }],
    };
    Campaign::new("prop-cache")
        .topologies(vec![TopologySpec::Ring, TopologySpec::Star])
        .sizes(vec![6])
        .algorithms(vec![families::unison_sdr(), families::sdr_agreement(4)])
        .daemons(daemons)
        .inits(vec![
            InitPlan::Arbitrary,
            InitPlan::Tear { gap: Amount::HalfN },
        ])
        .trials(trials)
        .step_cap(500_000)
        .seed(master_seed)
}

fn run_cached(
    campaign: &Campaign,
    threads: usize,
    cache: &RecordCache,
) -> (String, String, Option<u64>) {
    let report = Sweep::of(campaign)
        .threads(threads)
        .metrics()
        .cache(cache, None)
        .run_report();
    (
        output::jsonl(&report.records),
        output::csv(&report.records),
        report.metrics.counter_value("pipeline.steps"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cold vs fully-warm vs half-warm, at 1 and 4 worker threads: six
    /// executions, one byte-for-byte artifact set.
    #[test]
    fn cold_warm_and_half_warm_artifacts_are_byte_identical(
        master_seed in 0u64..10_000,
        trials in 1u64..3,
        daemon_pick in 0usize..3,
    ) {
        let campaign = quick_grid(master_seed, trials, daemon_pick);
        let total = campaign.len();

        // Cold: an empty cache misses everything and simulates.
        let cold_cache = RecordCache::new();
        let (cold_jsonl, cold_csv, cold_steps) = run_cached(&campaign, 1, &cold_cache);
        prop_assert_eq!(cold_cache.misses(), total as u64);
        prop_assert!(cold_steps.unwrap_or(0) > 0, "cold run must simulate");

        // Warm: the same cache now hits everything — zero simulator
        // steps — and returns the same bytes.
        for threads in [1usize, 4] {
            let (jsonl, csv, steps) = run_cached(&campaign, threads, &cold_cache);
            prop_assert_eq!(&jsonl, &cold_jsonl, "warm threads={}", threads);
            prop_assert_eq!(&csv, &cold_csv, "warm threads={}", threads);
            prop_assert_eq!(steps, None, "warm run must not simulate (threads={})", threads);
        }

        // Half-warm: seed a fresh cache with the first half of the
        // grid's records, so the run mixes hits and misses.
        for threads in [1usize, 4] {
            let half_cache = RecordCache::new();
            let records = Sweep::of(&campaign).threads(1).run();
            for (i, rec) in records.iter().take(total / 2).enumerate() {
                half_cache.insert(campaign.scenario(i).fingerprint(), rec);
            }
            let (jsonl, csv, _) = run_cached(&campaign, threads, &half_cache);
            prop_assert_eq!(half_cache.hits(), (total / 2) as u64);
            prop_assert_eq!(half_cache.misses(), (total - total / 2) as u64);
            prop_assert_eq!(&jsonl, &cold_jsonl, "half-warm threads={}", threads);
            prop_assert_eq!(&csv, &cold_csv, "half-warm threads={}", threads);
        }
    }
}

/// The cached entry points are observationally identical to the plain
/// engine: same records, same artifacts — caching is transparent.
#[test]
fn cached_run_equals_uncached_run() {
    let campaign = quick_grid(0xC0FFEE, 2, 0);
    let plain = Sweep::of(&campaign).threads(2).run();
    let cache = RecordCache::new();
    let (jsonl, csv, _) = run_cached(&campaign, 2, &cache);
    assert_eq!(jsonl, output::jsonl(&plain));
    assert_eq!(csv, output::csv(&plain));
    // And a rerun through the now-warm cache still matches.
    let (warm_jsonl, _, steps) = run_cached(&campaign, 2, &cache);
    assert_eq!(warm_jsonl, jsonl);
    assert_eq!(steps, None);
}
