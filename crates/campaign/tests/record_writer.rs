//! The record writer against a slow oracle: `output::jsonl` and the
//! journal lines of `CheckpointWriter::append` must give, byte for
//! byte, what [`reference`] renders through the JSON value type — the
//! `Value` a record was built into before records wrote themselves.
//!
//! The generated records stress every branch of the writer: strings
//! holding `"`, `\`, every control character U+0000–U+001F and
//! non-ASCII text; every termination reason (and none) and every
//! verdict; bounds absent, `Some(0)` and `u64::MAX`; integer fields at
//! 0 and `u64::MAX`. Every line must also be free of raw control
//! bytes, which catches an escaper that lets one through on both
//! sides. The vendored proptest samples primitive ranges only, so the
//! records are derived from a seeded [`Xoshiro256StarStar`] inside
//! each case.

use proptest::prelude::*;

use ssr_campaign::checkpoint::{self, record_from_json};
use ssr_campaign::output::{self, Json};
use ssr_campaign::{CheckpointWriter, ScenarioRecord};
use ssr_obs::json;
use ssr_runtime::fingerprint::Fingerprint;
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{TerminationReason, Verdict};

/// The slow oracle: the record as a `Value`, one `String` per key and
/// per string field, rendered by the value type's `Display`.
fn reference(r: &ScenarioRecord) -> Json {
    let opt_u64 = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
    Json::obj([
        ("campaign", Json::str(&r.campaign)),
        ("index", Json::U64(r.index as u64)),
        ("topology", Json::str(&r.topology)),
        ("n", Json::U64(r.n as u64)),
        ("nodes", Json::U64(r.nodes)),
        ("edges", Json::U64(r.edges)),
        ("max_degree", Json::U64(r.max_degree)),
        ("diameter", Json::U64(r.diameter)),
        ("algorithm", Json::str(&r.algorithm)),
        ("daemon", Json::str(&r.daemon)),
        ("init", Json::str(&r.init)),
        ("trial", Json::U64(r.trial)),
        ("seed", Json::U64(r.seed)),
        ("reached", Json::Bool(r.reached)),
        ("terminal", Json::Bool(r.terminal)),
        (
            "reason",
            r.reason.map_or(Json::Null, |v| Json::str(v.to_string())),
        ),
        ("steps", Json::U64(r.steps)),
        ("moves", Json::U64(r.moves)),
        ("rounds", Json::U64(r.rounds)),
        ("max_moves_per_process", Json::U64(r.max_moves_per_process)),
        ("bound_rounds", opt_u64(r.bound_rounds)),
        ("bound_moves", opt_u64(r.bound_moves)),
        ("verdict", Json::str(r.verdict.to_string())),
    ])
}

/// Every control character, the two escaped printables, and text on
/// each UTF-8 width.
fn alphabet() -> Vec<char> {
    let mut chars: Vec<char> = (0..0x20u8).map(char::from).collect();
    chars.extend([
        '"', '\\', '/', ' ', 'a', 'Z', '0', '\u{7f}', 'é', '∘', '€', '😀',
    ]);
    chars
}

fn string(rng: &mut Xoshiro256StarStar, alphabet: &[char]) -> String {
    (0..rng.index(12)).map(|_| *rng.choose(alphabet)).collect()
}

/// 0, `u64::MAX`, or a value of any width.
fn int(rng: &mut Xoshiro256StarStar) -> u64 {
    match rng.index(4) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.next_u64() >> (rng.index(4) * 16),
    }
}

fn bound(rng: &mut Xoshiro256StarStar) -> Option<u64> {
    match rng.index(4) {
        0 => None,
        1 => Some(0),
        _ => Some(int(rng)),
    }
}

fn record(rng: &mut Xoshiro256StarStar, alphabet: &[char]) -> ScenarioRecord {
    ScenarioRecord {
        campaign: string(rng, alphabet),
        index: int(rng) as usize,
        topology: string(rng, alphabet),
        n: int(rng) as usize,
        nodes: int(rng),
        edges: int(rng),
        max_degree: int(rng),
        diameter: int(rng),
        algorithm: string(rng, alphabet),
        daemon: string(rng, alphabet),
        init: string(rng, alphabet),
        trial: int(rng),
        seed: int(rng),
        reached: rng.chance(0.5),
        terminal: rng.chance(0.5),
        reason: *rng.choose(&[
            None,
            Some(TerminationReason::Terminal),
            Some(TerminationReason::PredicateMet),
            Some(TerminationReason::CapExhausted),
        ]),
        steps: int(rng),
        moves: int(rng),
        rounds: int(rng),
        max_moves_per_process: int(rng),
        bound_rounds: bound(rng),
        bound_moves: bound(rng),
        verdict: *rng.choose(&[
            Verdict::Pass,
            Verdict::Fail,
            Verdict::NoBound,
            Verdict::Skip,
        ]),
    }
}

/// A case's records: the first carries the whole alphabet in one
/// string, so every case sees every control character.
fn records(seed: u64) -> Vec<ScenarioRecord> {
    let alphabet = alphabet();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut recs: Vec<ScenarioRecord> = (0..8).map(|_| record(&mut rng, &alphabet)).collect();
    recs[0].campaign = alphabet.iter().collect();
    recs
}

fn no_control_bytes(line: &str) -> bool {
    !line.bytes().any(|b| b < 0x20)
}

proptest! {
    #[test]
    fn jsonl_matches_the_reference_renderer(seed in 0u64..u64::MAX) {
        let recs = records(seed);
        let expected: String = recs.iter().map(|r| format!("{}\n", reference(r))).collect();
        let text = output::jsonl(&recs);
        prop_assert_eq!(&text, &expected);
        for (line, rec) in text.lines().zip(&recs) {
            prop_assert!(no_control_bytes(line), "raw control byte in {:?}", line);
            let parsed = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            prop_assert_eq!(&record_from_json(&parsed).unwrap(), rec);
        }
    }

    #[test]
    fn journal_lines_match_the_reference_renderer(seed in 0u64..u64::MAX) {
        let recs = records(seed);
        let dir = std::env::temp_dir().join(format!("ssr-record-writer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{seed}.jsonl"));
        let _ = std::fs::remove_file(&path);
        let mut expected = format!("{{\"schema\":\"{}\"}}\n", checkpoint::SCHEMA);
        {
            let writer = CheckpointWriter::open(&path).unwrap();
            for (i, rec) in recs.iter().enumerate() {
                let fp = Fingerprint(u128::from(seed) << 64 | i as u128);
                writer.append(fp, rec).unwrap();
                let entry = Json::obj([
                    ("fingerprint", Json::str(fp.to_string())),
                    ("record", reference(rec)),
                ]);
                expected.push_str(&format!("{entry}\n"));
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(&text, &expected);
        prop_assert!(text.lines().all(no_control_bytes), "raw control byte in {:?}", text);
    }
}
