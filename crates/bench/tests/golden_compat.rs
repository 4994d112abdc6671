//! Byte-compatibility pin for the family-registry redesign.
//!
//! The golden files under `tests/golden/` were captured from the
//! pre-registry implementation (the closed `AlgorithmSpec` enum and
//! the per-family `run_scenario` match). This test regenerates the
//! same surfaces through the registry path and demands **byte
//! identity** — labels, columns, and values — at `--threads 1` and
//! `--threads 4` alike:
//!
//! * the full quick-profile experiment tables (`tables_quick.md`,
//!   what the binary prints);
//! * the quick `BENCH_RESULTS.json` document
//!   (`bench_results_quick.json`);
//! * a mixed-family campaign's JSONL and CSV (`campaign.jsonl` /
//!   `campaign.csv`: the seven standard families × four init plans ×
//!   two daemons on three topologies).
//!
//! If a change legitimately alters experiment output, regenerate the
//! goldens with the commands in each constant's doc and say so in the
//! PR.

use ssr_bench::ctx::ExpCtx;
use ssr_bench::experiments::{self, Profile};
use ssr_campaign::{families, output, Amount, Campaign, InitPlan, PresetSpec, Sweep, TopologySpec};
use ssr_runtime::Daemon;

/// `cargo run -p ssr-bench --bin experiments --release -- --quick --threads 2`
const GOLDEN_TABLES: &str = include_str!("golden/tables_quick.md");
/// `… --quick --threads 2 --format json --out …`
const GOLDEN_RESULTS: &str = include_str!("golden/bench_results_quick.json");
/// The fixed mixed-family campaign below, serialized as JSONL.
const GOLDEN_JSONL: &str = include_str!("golden/campaign.jsonl");
/// The fixed mixed-family campaign below, serialized as CSV.
const GOLDEN_CSV: &str = include_str!("golden/campaign.csv");

/// The campaign whose records the JSONL/CSV goldens pin: every
/// standard family (one preset each for the two FGA keys), every init
/// plan, two daemons, mixed topologies/sizes.
fn golden_campaign() -> Campaign {
    Campaign::new("golden-compat")
        .topologies(vec![
            TopologySpec::Ring,
            TopologySpec::Star,
            TopologySpec::RandSparse,
        ])
        .sizes(vec![6, 9])
        .algorithms(vec![
            families::sdr_agreement(4),
            families::unison_sdr(),
            families::unison(),
            families::cfg_unison(),
            families::mono_reset(),
            families::fga_sdr(PresetSpec::Domination),
            families::fga_standalone(PresetSpec::Defensive),
        ])
        .daemons(vec![Daemon::Central, Daemon::RandomSubset { p: 0.5 }])
        .inits(vec![
            InitPlan::Arbitrary,
            InitPlan::Normal,
            InitPlan::Tear { gap: Amount::HalfN },
            InitPlan::CorruptClocks {
                k: Amount::QuarterN,
            },
        ])
        .trials(1)
        .step_cap(2_000_000)
        .seed(0x601D)
}

#[test]
fn campaign_jsonl_and_csv_are_byte_identical_pre_and_post_redesign() {
    let campaign = golden_campaign();
    for threads in [1, 4] {
        let records = Sweep::of(&campaign).threads(threads).run();
        assert_eq!(
            output::jsonl(&records),
            GOLDEN_JSONL,
            "JSONL drifted from the pre-redesign golden (threads={threads})"
        );
        assert_eq!(
            output::csv(&records),
            GOLDEN_CSV,
            "CSV drifted from the pre-redesign golden (threads={threads})"
        );
    }
}

#[test]
fn quick_experiment_tables_and_results_are_byte_identical() {
    for threads in [1, 4] {
        let results = experiments::all(Profile::Quick, &ExpCtx::new(threads));
        let mut rendered = String::new();
        for r in &results {
            rendered.push_str(&experiments::render_result(r));
        }
        rendered.push_str(&experiments::render_footer(&results));
        assert_eq!(
            rendered, GOLDEN_TABLES,
            "experiment tables drifted from the pre-redesign golden (threads={threads})"
        );
        let doc = experiments::results_json(Profile::Quick, true, &results).to_string() + "\n";
        assert_eq!(
            doc, GOLDEN_RESULTS,
            "BENCH_RESULTS.json drifted from the pre-redesign golden (threads={threads})"
        );
    }
}
