//! Golden pin of the rendered report plus the thread-invariance
//! acceptance check: the artifact builders here are fully
//! deterministic (the campaign engine's determinism contract, fixed
//! metric/trace/scale/history values, no clocks), so the HTML must
//! come out byte-identical on every machine — and the committed golden
//! file catches any unintended change to the renderer.
//!
//! Regenerate the golden after an *intentional* renderer change with:
//!
//! ```text
//! BLESS=1 cargo test -p ssr-report --test report_golden
//! ```

use std::path::{Path, PathBuf};

use ssr_campaign::{engine, families, output, Campaign, InitPlan, TopologySpec};
use ssr_obs::metrics::MetricsSet;
use ssr_obs::trace::event_to_json;
use ssr_report::history::{entry_to_json_line, HistoryCell, HistoryEntry};
use ssr_runtime::trace::TraceEvent;
use ssr_runtime::{Daemon, TerminationReason};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/report.html");

/// A static `bench-scale-v2` slice: two topologies at two thread
/// counts, enough to exercise the phase and scaling sections.
const SCALE_JSON: &str = r#"{
  "schema": "bench-scale-v2",
  "smoke": true,
  "runs": [
    {"topology":"ring","n":1000,"threads":1,"steps":11,"moves":2894,"rounds":11,"seconds":0.000377,"steps_per_sec":29201.0,"moves_per_sec":7682506.0,"converged":true,"conflict_classes_avg":2.00,"soa_heap_bytes":9216,"phase_nanos":{"select":7783,"apply":75238,"guards":273879},"kernel_par_steps":{"apply":0,"guards":0}},
    {"topology":"ring","n":1000,"threads":4,"steps":11,"moves":2894,"rounds":11,"seconds":0.000318,"steps_per_sec":34582.7,"moves_per_sec":9098397.2,"converged":true,"conflict_classes_avg":2.00,"soa_heap_bytes":9216,"phase_nanos":{"select":7038,"apply":44996,"guards":252129},"kernel_par_steps":{"apply":0,"guards":2}},
    {"topology":"torus","n":1024,"threads":1,"steps":13,"moves":31870,"rounds":10,"seconds":0.004,"steps_per_sec":3250.0,"moves_per_sec":7967500.0,"converged":true,"conflict_classes_avg":2.80,"soa_heap_bytes":20480,"phase_nanos":{"select":20000,"apply":900000,"guards":2800000},"kernel_par_steps":{"apply":0,"guards":0}},
    {"topology":"torus","n":1024,"threads":4,"steps":13,"moves":31870,"rounds":10,"seconds":0.003,"steps_per_sec":4333.3,"moves_per_sec":10623333.3,"converged":true,"conflict_classes_avg":2.80,"soa_heap_bytes":20480,"phase_nanos":{"select":18000,"apply":600000,"guards":2100000},"kernel_par_steps":{"apply":3,"guards":5}}
  ]
}
"#;

/// Builds the full artifact set in `dir`, running the campaign at
/// `threads` workers. Everything except the campaign is constant; the
/// campaign is covered by the engine's determinism contract, so the
/// directory contents are independent of `threads`.
fn build_artifact_dir(dir: &Path, threads: usize) {
    std::fs::create_dir_all(dir.join("trace")).expect("create artifact dir");

    let campaign = Campaign::new("golden")
        .topologies(vec![TopologySpec::Ring, TopologySpec::Star])
        .sizes(vec![6, 9])
        .algorithms(vec![families::sdr_agreement(4), families::unison_sdr()])
        .daemons(vec![Daemon::Central, Daemon::Synchronous])
        .inits(vec![InitPlan::Arbitrary])
        .trials(2)
        .step_cap(500_000)
        .seed(2026);
    let records = engine::run(&campaign, threads);
    assert!(!records.is_empty(), "golden campaign produced no records");
    std::fs::write(dir.join("campaign-golden.jsonl"), output::jsonl(&records))
        .expect("write campaign jsonl");

    let mut set = MetricsSet::new();
    set.inc("pipeline.steps", 420);
    set.inc("pipeline.moves", 9000);
    set.gauge_set("pipeline.enabled.last", 17);
    for v in [3, 5, 8, 8, 13, 21, 34] {
        set.observe("pipeline.conflict_classes", v);
    }
    std::fs::write(
        dir.join("metrics.json"),
        format!("{}\n", set.snapshot().to_json()),
    )
    .expect("write metrics");

    let events = [
        TraceEvent::StepStarted {
            step: 0,
            enabled: 6,
        },
        TraceEvent::MovesApplied { step: 0, moves: 4 },
        TraceEvent::StepStarted {
            step: 1,
            enabled: 3,
        },
        TraceEvent::MovesApplied { step: 1, moves: 3 },
        TraceEvent::RoundCompleted { step: 1, rounds: 1 },
        TraceEvent::StepStarted {
            step: 2,
            enabled: 1,
        },
        TraceEvent::MovesApplied { step: 2, moves: 1 },
        TraceEvent::RunEnded {
            steps: 3,
            moves: 8,
            rounds: 2,
            reason: TerminationReason::Terminal,
        },
    ];
    let trace: String = events
        .iter()
        .map(|e| format!("{}\n", event_to_json(e)))
        .collect();
    std::fs::write(dir.join("trace").join("run-0.jsonl"), trace).expect("write trace");

    std::fs::write(dir.join("BENCH_SCALE.json"), SCALE_JSON).expect("write scale");

    let entries = [
        HistoryEntry {
            sha: "aaa111".into(),
            host: "golden-host".into(),
            source: "BENCH_SCALE.json".into(),
            cells: vec![HistoryCell {
                topology: "ring".into(),
                n: 1000,
                threads: 4,
                steps_per_sec: 34582.7,
                moves_per_sec: 9098397.2,
                phase_select_nanos: 7038,
                phase_apply_nanos: 44996,
                phase_guards_nanos: 252129,
            }],
        },
        HistoryEntry {
            sha: "bbb222".into(),
            host: "golden-host".into(),
            source: "BENCH_SCALE.json".into(),
            cells: vec![HistoryCell {
                topology: "ring".into(),
                n: 1000,
                threads: 4,
                steps_per_sec: 35011.2,
                moves_per_sec: 9211042.0,
                phase_select_nanos: 6990,
                phase_apply_nanos: 44010,
                phase_guards_nanos: 249800,
            }],
        },
    ];
    let history: String = entries
        .iter()
        .map(entry_to_json_line)
        .collect::<Vec<_>>()
        .join("\n");
    std::fs::write(dir.join("BENCH_HISTORY.jsonl"), format!("{history}\n")).expect("write history");
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssr-report-golden-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    dir
}

fn render_dir(dir: &Path) -> String {
    let art = ssr_report::load_dir(dir).expect("artifact dir must load");
    ssr_report::render(&art)
}

#[test]
fn report_html_matches_golden() {
    let dir = scratch("pin");
    build_artifact_dir(&dir, 1);
    let html = render_dir(&dir);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(Path::new(GOLDEN_PATH).parent().expect("has parent"))
            .expect("create golden dir");
        std::fs::write(GOLDEN_PATH, &html).expect("bless golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden missing — run with BLESS=1 to create it");
    assert!(
        html == golden,
        "rendered report differs from {GOLDEN_PATH} \
         (intentional renderer change? re-bless with BLESS=1)"
    );
}

/// The acceptance criterion: the same artifact set produced at
/// different intra-run thread counts renders to byte-identical HTML.
#[test]
fn report_is_byte_identical_across_thread_counts() {
    let one = scratch("t1");
    let four = scratch("t4");
    build_artifact_dir(&one, 1);
    build_artifact_dir(&four, 4);
    assert_eq!(
        std::fs::read(one.join("campaign-golden.jsonl")).expect("read"),
        std::fs::read(four.join("campaign-golden.jsonl")).expect("read"),
        "campaign records must be thread-invariant"
    );
    assert_eq!(
        render_dir(&one),
        render_dir(&four),
        "report HTML must be thread-invariant"
    );
}

/// Every chart anchor is present even for this small fixture set, so
/// CI can grep for them.
#[test]
fn report_contains_all_chart_anchors() {
    let dir = scratch("anchors");
    build_artifact_dir(&dir, 1);
    let html = render_dir(&dir);
    for anchor in [
        "id=\"chart-bounds\"",
        "id=\"chart-convergence\"",
        "id=\"chart-phases\"",
        "id=\"chart-scaling\"",
        "id=\"chart-timeline\"",
        "id=\"history\"",
        "id=\"inventory\"",
    ] {
        assert!(html.contains(anchor), "missing {anchor}");
    }
    assert!(html.contains("<svg"), "report should embed SVG charts");
}
