//! Property tests pinning the readers against the live writers: every
//! artifact this crate parses is produced by a hand-rolled writer
//! elsewhere in the workspace, so the reader must be its exact
//! inverse — including u64 seeds that do not survive an f64 detour.
//!
//! The vendored proptest samples primitive ranges only, so composite
//! inputs (records, label strings, option fields) are derived from a
//! seeded [`Xoshiro256StarStar`] inside each case.

use proptest::prelude::*;

use ssr_campaign::output;
use ssr_campaign::{ScenarioRecord, Verdict};
use ssr_obs::metrics::MetricsSet;
use ssr_report::reader::{
    parse_campaign_csv, parse_campaign_jsonl, parse_metrics_json, parse_trace_jsonl, CampaignRow,
    MetricValue,
};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::trace::TraceEvent;
use ssr_runtime::TerminationReason;

/// Label-shaped strings: what topology/algorithm/daemon/init labels
/// actually look like — parens, commas, quotes, backslashes included,
/// so both CSV quoting and JSON escaping are exercised.
fn label(rng: &mut Xoshiro256StarStar) -> String {
    const ALPHABET: &[char] = &[
        'a', 'b', 'z', 'A', 'Z', '0', '9', ':', '(', ')', ',', '_', '-', ' ', '"', '\\',
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

    #[test]
    fn metrics_snapshot_round_trips(
        seed in 0u64..1_000_000,
        counters in 0usize..4,
        gauges in 0usize..3,
        samples in 0usize..32,
    ) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut set = MetricsSet::new();
        let counter_values: Vec<(String, u64)> = (0..counters)
            .map(|i| (format!("c.{i}"), rng.next_u64()))
            .collect();
        for (k, v) in &counter_values {
            // Two increments summing to v exercises accumulation.
            set.inc(k, v / 2);
            set.inc(k, v - v / 2);
        }
        let gauge_values: Vec<(String, Vec<u64>)> = (0..gauges)
            .map(|i| {
                let len = 1 + rng.index(5);
                (format!("g.{i}"), (0..len).map(|_| rng.next_u64()).collect())
            })
            .collect();
        for (k, vs) in &gauge_values {
            for v in vs {
                set.gauge_set(k, *v);
            }
        }
        let sample_values: Vec<u64> = (0..samples).map(|_| rng.below(1 << 40)).collect();
        for v in &sample_values {
            set.observe("h.samples", *v);
        }
        let json = set.snapshot().to_json();
        let doc = parse_metrics_json(&json).expect("snapshot must parse");
        for (k, v) in &counter_values {
            prop_assert_eq!(doc.get(k), Some(&MetricValue::Counter(*v)));
        }
        for (k, vs) in &gauge_values {
            let (min, max, last) = (
                *vs.iter().min().expect("non-empty"),
                *vs.iter().max().expect("non-empty"),
                *vs.last().expect("non-empty"),
            );
            prop_assert_eq!(doc.get(k), Some(&MetricValue::Gauge { min, max, last }));
        }
        if sample_values.is_empty() {
            prop_assert!(doc.get("h.samples").is_none());
        } else {
            match doc.get("h.samples") {
                Some(MetricValue::Histogram { count, sum, min, max, buckets }) => {
                    prop_assert_eq!(*count, sample_values.len() as u64);
                    prop_assert_eq!(*sum, sample_values.iter().sum::<u64>());
                    prop_assert_eq!(*min, *sample_values.iter().min().expect("non-empty"));
                    prop_assert_eq!(*max, *sample_values.iter().max().expect("non-empty"));
                    prop_assert_eq!(
                        buckets.iter().map(|(_, c)| c).sum::<u64>(),
                        sample_values.len() as u64
                    );
                }
                other => panic!("h.samples missing or not a histogram: {other:?}"),
            }
        }
    }

    #[test]
    fn trace_events_round_trip(
        step in 0u64..u64::MAX,
        enabled in 0u32..u32::MAX,
        moves in 0u32..u32::MAX,
        rounds in 0u64..u64::MAX,
    ) {
        let events = [
            TraceEvent::StepStarted { step, enabled },
            TraceEvent::MovesApplied { step, moves },
            TraceEvent::EnabledSetSize { step, enabled },
            TraceEvent::RoundCompleted { step, rounds },
            TraceEvent::RunEnded {
                steps: step,
                moves: u64::from(moves),
                rounds,
                reason: TerminationReason::Terminal,
            },
        ];
        let text: String = events
            .iter()
            .map(|e| format!("{}\n", ssr_obs::trace::event_to_json(e)))
            .collect();
        let rows = parse_trace_jsonl(&text).expect("writer output must parse");
        prop_assert_eq!(rows.len(), events.len());
        prop_assert_eq!(rows[0].step, Some(step));
        prop_assert_eq!(rows[0].enabled, Some(u64::from(enabled)));
        prop_assert_eq!(rows[1].moves, Some(u64::from(moves)));
        prop_assert_eq!(rows[3].rounds, Some(rounds));
        prop_assert_eq!(rows[4].reason.as_deref(), Some("terminal"));
    }

    // History lines: serialize → parse → serialize is the identity, so
    // the store is append-stable (the {:.1} float format is
    // idempotent).
    #[test]
    fn history_line_serialization_is_idempotent(
        seed in 0u64..1_000_000,
        threads in 1u64..64,
        sps in 0.0f64..1.0e9,
        mps in 0.0f64..1.0e9,
    ) {
        use ssr_report::history::{
            entry_to_json_line, parse_history_jsonl, HistoryCell, HistoryEntry,
        };
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let entry = HistoryEntry {
            sha: format!("{:016x}", rng.next_u64()),
            host: label(&mut rng),
            source: "BENCH_SCALE.json".to_string(),
            cells: vec![HistoryCell {
                topology: label(&mut rng),
                n: rng.next_u64(),
                threads,
                steps_per_sec: sps,
                moves_per_sec: mps,
                phase_select_nanos: rng.next_u64(),
                phase_apply_nanos: rng.next_u64(),
                phase_guards_nanos: rng.next_u64(),
            }],
        };
        let line = entry_to_json_line(&entry);
        let parsed = parse_history_jsonl(&line).expect("line must parse");
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(entry_to_json_line(&parsed[0]), line);
    }
}
