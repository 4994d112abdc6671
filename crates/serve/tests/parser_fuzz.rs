//! Fuzzing the parsers that take outside input: the JSON parser, the
//! campaign spec the service accepts, checkpoint journals (audited and
//! replayed), trace and history lines, and `BENCH_SCALE.json`. Every
//! call must return `Ok` or `Err` — never panic, never overflow the
//! stack — and the valid documents the mutations start from must
//! still parse.
//!
//! The vendored proptest samples primitive ranges only, so the byte
//! strings are derived from a seeded [`Xoshiro256StarStar`] inside each
//! case. The `&str` parsers see the bytes through
//! `String::from_utf8_lossy`; checkpoint replay reads them raw from a
//! file.

use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;

use proptest::prelude::*;

use ssr_campaign::checkpoint::{self, CheckpointWriter};
use ssr_campaign::{engine, families, Campaign, TopologySpec};
use ssr_obs::json;
use ssr_obs::trace::{event_to_json, validate_jsonl_line};
use ssr_report::history::{entry_to_json_line, validate_history_line, HistoryCell, HistoryEntry};
use ssr_report::reader::parse_scale_json;
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::trace::TraceEvent;
use ssr_runtime::{Daemon, TerminationReason};
use ssr_serve::spec;

const SPEC: &str = r#"{"schema":"ssr-campaign-spec/v1","id":"fuzz",
    "topologies":["ring","gnp(250e-3)"],"sizes":[6,8],
    "algorithms":["unison-sdr","fga-sdr:domination(1,0)"],
    "daemons":["central","subset(p=0.25)","aging(3)"],
    "inits":["arbitrary","tear(n/2)","corrupt(2)"],
    "trials":2,"step_cap":500000,"seed":7,"intra_threads":[1,2]}"#;

const SCALE: &str = include_str!("../../../BENCH_SCALE.json");

/// Replacement bytes for the single-byte mutations: JSON's structure,
/// the starts of numbers and escapes, and a byte that is never UTF-8.
const MUTANTS: &[u8] = b"\"\\{}[],:0-e.x \n\xff";

/// A temp file path unique to this process and `tag`.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ssr-parser-fuzz-{}-{tag}.jsonl",
        std::process::id()
    ))
}

/// Every `&str` parser under test, on one input. Only a panic can fail
/// this.
fn feed_str_parsers(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = json::parse(&text);
    let _ = spec::parse(&text);
    let _ = checkpoint::validate(&text);
    let _ = validate_jsonl_line(&text);
    let _ = validate_history_line(&text);
    let _ = parse_scale_json(&text);
}

/// A temp journal that checkpoint replay reads. It is overwritten in
/// place and then cut to length for each input: re-creating or
/// emptying a file before writing it costs milliseconds per input on
/// some file systems (ext4 flushes a file rewritten after a truncate
/// to zero).
struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    fn new(tag: &str) -> Journal {
        let path = temp_path(tag);
        let file = File::create(&path).expect("create temp journal");
        Journal { path, file }
    }

    /// Feeds `bytes` to every parser, checkpoint replay included.
    fn feed(&mut self, bytes: &[u8]) {
        feed_str_parsers(bytes);
        self.file
            .seek(SeekFrom::Start(0))
            .expect("rewind temp journal");
        self.file.write_all(bytes).expect("write temp journal");
        self.file
            .set_len(bytes.len() as u64)
            .expect("cut temp journal");
        let _ = checkpoint::load(&self.path);
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Every prefix of `doc`, every deletion of one byte, and every
/// replacement of one byte by each of [`MUTANTS`].
fn prefixes_and_mutants(doc: &[u8], mut feed: impl FnMut(&[u8])) {
    for cut in 0..doc.len() {
        feed(&doc[..cut]);
    }
    let mut mutant = Vec::with_capacity(doc.len());
    for at in 0..doc.len() {
        mutant.clear();
        mutant.extend_from_slice(doc);
        mutant.remove(at);
        feed(&mutant);
        for &b in MUTANTS {
            mutant.clear();
            mutant.extend_from_slice(doc);
            mutant[at] = b;
            feed(&mutant);
        }
    }
}

/// Noise shaped like JSON: `|`-separated pieces of structure,
/// escapes, numbers, literals and schema tags, multi-byte UTF-8, bytes
/// that are never UTF-8, and raw random bytes.
fn noise(rng: &mut Xoshiro256StarStar) -> Vec<u8> {
    const PIECES: &[u8] = b"{|}|[|]|,|:|\"|\\|\\u|\\ud800|0|7|-|1e|e-3|.|+|true|fals|null| |\n|\"schema\"|\"ssr-campaign-spec/v1\"|\"ssr-checkpoint/v1\"|\"event\"|\"runs\"|\xc3\xa9|\xe2\x88\x98|\xff|\xc3|\x00";
    let pieces: Vec<&[u8]> = PIECES.split(|&b| b == b'|').collect();
    let mut out = Vec::new();
    for _ in 0..rng.index(48) {
        if rng.chance(0.1) {
            out.push(rng.next_u64() as u8);
        } else {
            out.extend_from_slice(rng.choose::<&[u8]>(&pieces));
        }
    }
    out
}

/// The valid documents the prefix and mutation sweeps start from: a
/// campaign spec, a two-record checkpoint journal (written through a
/// temp file named by `tag`, one per test), two trace lines and a
/// history line.
fn valid_documents(tag: &str) -> Vec<(&'static str, Vec<u8>)> {
    let campaign = Campaign::new("fuzz")
        .topologies(vec![TopologySpec::Ring])
        .sizes(vec![6])
        .algorithms(vec![families::unison_sdr()])
        .daemons(vec![Daemon::Central])
        .trials(2)
        .seed(3);
    let journal = temp_path(tag);
    let _ = std::fs::remove_file(&journal);
    {
        let writer = CheckpointWriter::open(&journal).expect("open journal");
        for (i, rec) in engine::run(&campaign, 1).iter().enumerate() {
            writer
                .append(ssr_runtime::Fingerprint(i as u128 + 1), rec)
                .expect("append");
        }
    }
    let journal_bytes = std::fs::read(&journal).expect("read journal");
    std::fs::remove_file(&journal).expect("remove temp journal");
    let trace = [
        TraceEvent::MovesApplied { step: 3, moves: 2 },
        TraceEvent::RunEnded {
            steps: 10,
            moves: 12,
            rounds: 3,
            reason: TerminationReason::Terminal,
        },
    ]
    .iter()
    .map(|e| format!("{}\n", event_to_json(e)))
    .collect::<String>();
    let history = entry_to_json_line(&HistoryEntry {
        sha: "abc123".into(),
        host: "fuzz-host".into(),
        source: "BENCH_SCALE.json".into(),
        cells: vec![HistoryCell {
            topology: "ring".into(),
            n: 1000,
            threads: 2,
            steps_per_sec: 34582.7,
            moves_per_sec: 9098397.2,
            phase_select_nanos: 7038,
            phase_apply_nanos: 44996,
            phase_guards_nanos: 252129,
        }],
    });
    vec![
        ("spec", SPEC.as_bytes().to_vec()),
        ("checkpoint", journal_bytes),
        ("trace", trace.into_bytes()),
        ("history", history.into_bytes()),
    ]
}

#[test]
fn valid_documents_parse() {
    let docs = valid_documents("valid");
    let text = |name: &str| {
        let (_, bytes) = docs.iter().find(|(n, _)| *n == name).expect("document");
        String::from_utf8(bytes.clone()).expect("utf-8")
    };
    assert!(spec::parse(&text("spec")).is_ok());
    assert_eq!(checkpoint::validate(&text("checkpoint")), Ok(2));
    let mut journal = Journal::new("valid-load");
    journal.feed(text("checkpoint").as_bytes());
    assert_eq!(checkpoint::load(&journal.path).map(|e| e.len()), Ok(2));
    for line in text("trace").lines() {
        assert_eq!(validate_jsonl_line(line), Ok(()));
    }
    assert_eq!(validate_history_line(&text("history")), Ok(()));
    assert!(parse_scale_json(SCALE).is_ok());
}

#[test]
fn every_prefix_and_single_byte_mutation_is_handled() {
    let mut journal = Journal::new("sweep");
    for (name, doc) in valid_documents("sweep-source") {
        if name == "checkpoint" {
            prefixes_and_mutants(&doc, |bytes| journal.feed(bytes));
        } else {
            prefixes_and_mutants(&doc, feed_str_parsers);
        }
    }
    // The scale document is large; its prefixes alone cover the reader.
    for cut in (0..SCALE.len()).filter(|&c| SCALE.is_char_boundary(c)) {
        let _ = parse_scale_json(&SCALE[..cut]);
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(seed in 0u64..u64::MAX) {
        let mut journal = Journal::new(&format!("noise-{seed}"));
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..32 {
            journal.feed(&noise(&mut rng));
        }
    }
}
