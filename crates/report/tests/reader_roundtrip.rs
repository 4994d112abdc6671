//! Property tests pinning the campaign readers against the live
//! writers: the JSONL and CSV records this crate parses are produced
//! by hand-rolled writers in `ssr-campaign`, so each reader must be
//! its writer's exact inverse — including u64 seeds that do not
//! survive an f64 detour, and labels that hold quotes, commas, line
//! breaks and other control characters.
//!
//! The vendored proptest samples primitive ranges only, so composite
//! inputs (records, label strings, option fields) are derived from a
//! seeded [`Xoshiro256StarStar`] inside each case.

use proptest::prelude::*;

use ssr_campaign::output;
use ssr_campaign::{ScenarioRecord, Verdict};
use ssr_report::reader::{parse_campaign_csv, parse_campaign_jsonl, CampaignRow};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::TerminationReason;

/// Label-shaped strings: what topology/algorithm/daemon/init labels
/// actually look like — parens, commas, quotes, backslashes included —
/// plus `\n`, `\r` and other control characters, so both CSV quoting
/// and JSON escaping are exercised.
fn label(rng: &mut Xoshiro256StarStar) -> String {
    const ALPHABET: &[char] = &[
        'a', 'b', 'z', 'A', 'Z', '0', '9', ':', '(', ')', ',', '_', '-', ' ', '"', '\\', '\n',
        '\r', '\t', '\0', '\u{1}', '\u{8}', '\u{c}', '\u{1b}', '\u{1f}', '\u{7f}',
    ];
    let len = 1 + rng.index(23);
    (0..len).map(|_| *rng.choose(ALPHABET)).collect()
}

fn opt_u64(rng: &mut Xoshiro256StarStar) -> Option<u64> {
    rng.chance(0.5).then(|| rng.next_u64())
}

fn record(rng: &mut Xoshiro256StarStar) -> ScenarioRecord {
    let reason = match rng.index(4) {
        0 => None,
        1 => Some(TerminationReason::Terminal),
        2 => Some(TerminationReason::PredicateMet),
        _ => Some(TerminationReason::CapExhausted),
    };
    let verdict = *rng.choose(&[
        Verdict::Pass,
        Verdict::Fail,
        Verdict::NoBound,
        Verdict::Skip,
    ]);
    ScenarioRecord {
        index: rng.index(10_000),
        campaign: label(rng),
        topology: label(rng),
        n: rng.index(1_000_000),
        nodes: rng.next_u64(),
        edges: rng.next_u64(),
        max_degree: rng.next_u64(),
        diameter: rng.next_u64(),
        algorithm: label(rng),
        daemon: label(rng),
        init: label(rng),
        trial: rng.next_u64(),
        seed: rng.next_u64(),
        reached: rng.chance(0.5),
        terminal: rng.chance(0.5),
        reason,
        steps: rng.next_u64(),
        moves: rng.next_u64(),
        rounds: rng.next_u64(),
        max_moves_per_process: rng.next_u64(),
        bound_rounds: opt_u64(rng),
        bound_moves: opt_u64(rng),
        verdict,
    }
}

/// Field-by-field equality between the writer's record and the
/// reader's row.
fn assert_matches(rec: &ScenarioRecord, row: &CampaignRow) {
    assert_eq!(row.campaign, rec.campaign);
    assert_eq!(row.index, rec.index as u64);
    assert_eq!(row.topology, rec.topology);
    assert_eq!(row.n, rec.n as u64);
    assert_eq!(row.nodes, rec.nodes);
    assert_eq!(row.edges, rec.edges);
    assert_eq!(row.max_degree, rec.max_degree);
    assert_eq!(row.diameter, rec.diameter);
    assert_eq!(row.algorithm, rec.algorithm);
    assert_eq!(row.daemon, rec.daemon);
    assert_eq!(row.init, rec.init);
    assert_eq!(row.trial, rec.trial);
    assert_eq!(row.seed, rec.seed, "u64 seed must round-trip exactly");
    assert_eq!(row.reached, rec.reached);
    assert_eq!(row.terminal, rec.terminal);
    assert_eq!(row.reason, rec.reason.map(|r| r.to_string()));
    assert_eq!(row.steps, rec.steps);
    assert_eq!(row.moves, rec.moves);
    assert_eq!(row.rounds, rec.rounds);
    assert_eq!(row.max_moves_per_process, rec.max_moves_per_process);
    assert_eq!(row.bound_rounds, rec.bound_rounds);
    assert_eq!(row.bound_moves, rec.bound_moves);
    assert_eq!(row.verdict, rec.verdict.to_string());
}

proptest! {
    #[test]
    fn campaign_jsonl_round_trips(seed in 0u64..1_000_000, count in 0usize..8) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let records: Vec<ScenarioRecord> = (0..count).map(|_| record(&mut rng)).collect();
        let text = output::jsonl(&records);
        let rows = parse_campaign_jsonl(&text).expect("writer output must parse");
        prop_assert_eq!(rows.len(), records.len());
        for (rec, row) in records.iter().zip(&rows) {
            assert_matches(rec, row);
        }
    }

    #[test]
    fn campaign_csv_round_trips(seed in 0u64..1_000_000, count in 0usize..8) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let records: Vec<ScenarioRecord> = (0..count).map(|_| record(&mut rng)).collect();
        let text = output::csv(&records);
        let rows = parse_campaign_csv(&text).expect("writer output must parse");
        prop_assert_eq!(rows.len(), records.len());
        for (rec, row) in records.iter().zip(&rows) {
            assert_matches(rec, row);
        }
    }
}
