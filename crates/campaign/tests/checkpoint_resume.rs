//! Kill-and-resume: a sweep interrupted at an arbitrary point — even
//! mid-write, leaving a torn final line — resumes from its checkpoint
//! journal and produces artifacts byte-identical to an uninterrupted
//! run, re-simulating only what the journal had not yet recorded.

use std::path::{Path, PathBuf};

use ssr_campaign::{
    checkpoint, families, output, Campaign, CheckpointWriter, RecordCache, Sweep, TopologySpec,
};
use ssr_runtime::Daemon;

fn sweep(id: &str) -> Campaign {
    Campaign::new(id)
        .topologies(vec![
            TopologySpec::Ring,
            TopologySpec::Star,
            TopologySpec::Path,
        ])
        .sizes(vec![6])
        .algorithms(vec![families::unison_sdr()])
        .daemons(vec![Daemon::Central])
        .trials(2)
        .step_cap(500_000)
        .seed(0xDEAD)
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssr-resume-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&path);
    path
}

fn run_journaled(campaign: &Campaign, path: &Path, cache: &RecordCache) -> String {
    let writer = CheckpointWriter::open(path).unwrap();
    let records = Sweep::of(campaign)
        .threads(2)
        .cache(cache, Some(&writer))
        .run();
    output::jsonl(&records)
}

/// Simulates the kill at every interesting cut point: after the
/// header, after k whole records, and mid-line (a torn write).
#[test]
fn resuming_from_any_truncation_reproduces_the_uninterrupted_bytes() {
    let campaign = sweep("resume");
    let total = campaign.len();
    let path = temp_journal("cuts");

    // The uninterrupted reference run, journaled in full.
    let reference = run_journaled(&campaign, &path, &RecordCache::new());
    let full = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), total + 1, "header plus one line per scenario");

    for keep in 0..=total {
        // Cut the journal to the header plus `keep` records…
        let mut cut: String = lines[..=keep].join("\n");
        cut.push('\n');
        // …and for interior cuts, also leave a torn half of the next
        // line, as a kill mid-`write` would.
        if keep < total {
            let torn = &lines[keep + 1][..lines[keep + 1].len() / 2];
            cut.push_str(torn);
        }
        std::fs::write(&path, &cut).unwrap();

        // "Restart": a fresh cache replays the journal, the sweep
        // reruns, and only the missing scenarios simulate.
        let cache = RecordCache::new();
        let replayed = checkpoint::replay_into(&path, &cache).unwrap();
        assert_eq!(replayed, keep, "torn tail is dropped on replay");
        let resumed = run_journaled(&campaign, &path, &cache);
        assert_eq!(resumed, reference, "cut at {keep} records");
        assert_eq!(cache.hits(), keep as u64);
        assert_eq!(cache.misses(), (total - keep) as u64);

        // The healed journal is complete and strictly valid again.
        let healed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(checkpoint::validate(&healed).unwrap(), total);
    }
    let _ = std::fs::remove_file(&path);
}

/// The resumed journal also serves a *second* restart: replaying the
/// healed file yields a fully-warm cache and identical bytes again.
#[test]
fn a_second_restart_is_all_hits() {
    let campaign = sweep("resume-twice");
    let path = temp_journal("twice");
    let reference = run_journaled(&campaign, &path, &RecordCache::new());

    let cache = RecordCache::new();
    let replayed = checkpoint::replay_into(&path, &cache).unwrap();
    assert_eq!(replayed, campaign.len());
    let resumed = run_journaled(&campaign, &path, &cache);
    assert_eq!(resumed, reference);
    assert_eq!(cache.misses(), 0, "nothing re-simulates");

    // Journaling on an all-hit run appends nothing: fresh records
    // only. The journal still validates at its original length.
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(checkpoint::validate(&text).unwrap(), campaign.len());
    let _ = std::fs::remove_file(&path);
}
