//! Exit-code and output contract of the `report` bin, run as a real
//! binary via `CARGO_BIN_EXE_report`: `render` writes exactly what the
//! library renders for the directory, a malformed artifact fails the
//! render, and an unknown command is a usage error.

use std::path::PathBuf;
use std::process::Command;

use ssr_campaign::{families, output, Campaign, Sweep, TopologySpec};
use ssr_obs::metrics::MetricsSet;
use ssr_runtime::Daemon;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssr-report-cli-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn report_exit(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("spawn report bin")
        .status
        .code()
}

#[test]
fn render_writes_the_library_rendering() {
    let dir = scratch("render");
    let campaign = Campaign::new("cli")
        .topologies(vec![TopologySpec::Ring])
        .sizes(vec![6])
        .algorithms(vec![families::unison_sdr()])
        .daemons(vec![Daemon::Central])
        .trials(2)
        .seed(3);
    let records = Sweep::of(&campaign).threads(1).run();
    std::fs::write(dir.join("campaign-cli.jsonl"), output::jsonl(&records)).expect("write");
    let mut metrics = MetricsSet::new();
    metrics.inc("pipeline.steps", 42);
    let snapshot = format!("{}\n", metrics.to_json());
    std::fs::write(dir.join("metrics.json"), snapshot).expect("write metrics");

    let out = dir.join("out.html");
    let (dir_s, out_s) = (dir.to_str().expect("utf8"), out.to_str().expect("utf8"));
    assert_eq!(report_exit(&["render", dir_s, "--out", out_s]), Some(0));
    let expected = ssr_report::render(&ssr_report::load_dir(&dir).expect("artifact dir loads"));
    assert!(expected.contains("campaign-cli.jsonl") && expected.contains("metrics.json"));
    assert_eq!(
        std::fs::read_to_string(&out).expect("report written"),
        expected
    );

    std::fs::write(dir.join("campaign-cli.jsonl"), "{\"campaign\":\"cli\"}\n").expect("write");
    assert_eq!(report_exit(&["render", dir_s, "--out", out_s]), Some(1));

    assert_eq!(report_exit(&["record"]), Some(2));
}
