//! Fuzzing the parsers that take outside input: the service's HTTP
//! request reader (fed from byte slices, no socket), the JSON parser,
//! the campaign spec the service accepts, checkpoint journals (audited
//! and replayed), and every reader that `report render DIR` feeds from
//! files: campaign JSONL and CSV, metrics snapshots, trace lines,
//! `BENCH_RESULTS.json` and `BENCH_SCALE.json`.
//! Every call must return `Ok` or `Err` — never panic, never overflow
//! the stack — and the valid documents the mutations start from must
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
use ssr_campaign::{families, output, Campaign, Sweep, TopologySpec};
use ssr_obs::json;
use ssr_obs::metrics::MetricsSet;
use ssr_obs::trace::{event_to_json, parse_events};
use ssr_report::reader::{
    parse_bench_results, parse_campaign_csv, parse_campaign_jsonl, parse_scale_json,
};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::trace::TraceEvent;
use ssr_runtime::{Daemon, TerminationReason};
use ssr_serve::{http, spec};

const SPEC: &str = r#"{"schema":"ssr-campaign-spec/v1","id":"fuzz",
    "topologies":["ring","gnp(250e-3)"],"sizes":[6,8],
    "algorithms":["unison-sdr","fga-sdr:domination(1,0)"],
    "daemons":["central","subset(p=0.25)","aging(3)"],
    "inits":["arbitrary","tear(n/2)","corrupt(2)"],
    "trials":2,"step_cap":500000,"seed":7,"intra_threads":[1,2]}"#;

const SCALE: &str = include_str!("../../report/tests/golden/bench-scale-v3.json");

const BENCH: &str = r#"{"schema":"ssr-bench-results/v1","profile":"quick","selection":"all",
    "all_pass":true,"groups":[{"id":"E1+E2","title":"t","sizes":[8,16],
    "rounds":12,"moves":40,"bound":72,"verdict":"pass"}]}"#;

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
    let _ = parse_campaign_jsonl(&text);
    let _ = parse_campaign_csv(&text);
    let _ = MetricsSet::from_json(&text);
    let _ = parse_events(&text); // `parse_event`, line by line
    let _ = parse_bench_results(&text);
    let _ = parse_scale_json(&text);
}

/// The HTTP request reader, on one input. Only a panic can fail this.
fn feed_http(bytes: &[u8]) {
    let _ = http::read_request(bytes);
}

/// A request line that gets noise past the reader's first check, into
/// the headers and the body.
const REQUEST_LINE: &[u8] = b"POST /campaigns HTTP/1.1\r\n";

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
    const PIECES: &[u8] = b"{|}|[|]|,|:|\"|\\|\\u|\\ud800|0|7|-|1e|e-3|.|+|true|fals|null| |\n|\"schema\"|\"ssr-campaign-spec/v1\"|\"ssr-checkpoint/v1\"|\"ssr-metrics-v1\"|\"event\"|\"runs\"|\"buckets\"|campaign,|\xc3\xa9|\xe2\x88\x98|\xff|\xc3|\x00";
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
/// campaign spec, a POST of that spec (head plus body), a two-record
/// checkpoint journal (written through a temp file named by `tag`, one
/// per test), one of those records as campaign JSONL and as CSV, a
/// metrics snapshot with a counter, a gauge and a histogram, two trace
/// lines and a one-group bench-results document.
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
    let records = Sweep::of(&campaign).threads(1).run();
    let mut metrics = MetricsSet::new();
    metrics.inc("campaign.scenarios", 2);
    metrics.gauge_set("pipeline.enabled", 5);
    metrics.observe("pipeline.moves_per_step", 6);
    {
        let writer = CheckpointWriter::open(&journal).expect("open journal");
        for (i, rec) in records.iter().enumerate() {
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
    let post = format!(
        "POST /campaigns HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{SPEC}",
        SPEC.len()
    );
    vec![
        ("spec", SPEC.as_bytes().to_vec()),
        ("http", post.into_bytes()),
        ("checkpoint", journal_bytes),
        ("campaign-jsonl", output::jsonl(&records[..1]).into_bytes()),
        ("campaign-csv", output::csv(&records[..1]).into_bytes()),
        ("metrics", metrics.to_json().into_bytes()),
        ("trace", trace.into_bytes()),
        ("bench", BENCH.as_bytes().to_vec()),
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
    let request = http::read_request(text("http").as_bytes()).expect("valid POST");
    assert_eq!(
        (request.method.as_str(), request.path.as_str()),
        ("POST", "/campaigns")
    );
    assert_eq!(request.body, SPEC.as_bytes());
    assert_eq!(checkpoint::validate(&text("checkpoint")), Ok(2));
    let mut journal = Journal::new("valid-load");
    journal.feed(text("checkpoint").as_bytes());
    assert_eq!(checkpoint::load(&journal.path).map(|e| e.len()), Ok(2));
    let rows = parse_campaign_jsonl(&text("campaign-jsonl")).expect("campaign JSONL");
    assert_eq!(rows.len(), 1);
    assert_eq!(parse_campaign_csv(&text("campaign-csv")), Ok(rows));
    assert!(MetricsSet::from_json(&text("metrics")).is_ok());
    assert_eq!(parse_events(&text("trace")).map(|e| e.len()), Ok(2));
    assert!(parse_bench_results(&text("bench")).is_ok());
    assert!(parse_scale_json(SCALE).is_ok());
}

#[test]
fn every_prefix_and_single_byte_mutation_is_handled() {
    let mut journal = Journal::new("sweep");
    for (name, doc) in valid_documents("sweep-source") {
        match name {
            "checkpoint" => prefixes_and_mutants(&doc, |bytes| journal.feed(bytes)),
            "http" => prefixes_and_mutants(&doc, feed_http),
            _ => prefixes_and_mutants(&doc, feed_str_parsers),
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
            let bytes = noise(&mut rng);
            journal.feed(&bytes);
            feed_http(&bytes);
            feed_http(&[REQUEST_LINE, &bytes].concat());
        }
    }
}
