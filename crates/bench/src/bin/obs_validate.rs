//! Validates observability artifacts against their schemas. Used by
//! CI after running an instrumented experiment.
//!
//! Usage:
//!
//! ```text
//! cargo run -p ssr-bench --bin obs_validate -- PATH [PATH...]
//! cargo run -p ssr-bench --bin obs_validate -- --kind metrics PATH [PATH...]
//! cargo run -p ssr-bench --bin obs_validate -- --kind checkpoint PATH [PATH...]
//! ```
//!
//! `--kind` selects the schema (default `trace`):
//!
//! - `trace` — `.jsonl` event traces (`DESIGN.md` §10): every
//!   non-blank line parses into a `TraceEvent`
//!   (`ssr_obs::trace::parse_event`: a known event carrying its keys
//!   with their types)
//! - `metrics` — `.json` snapshots with schema `ssr-metrics-v1`: the
//!   file parses into a `MetricsSet` (`ssr_obs::MetricsSet::from_json`)
//! - `checkpoint` — `.jsonl` resumable-sweep journals with schema
//!   `ssr-checkpoint/v1` (`DESIGN.md` §13): header line plus one
//!   fingerprinted record per line, strictly (a torn tail fails here
//!   even though resume tolerates it)
//!
//! Each `PATH` is a file of the kind's extension or a directory,
//! walked recursively. Exits nonzero on the first schema violation, on
//! an empty file, or when no matching file is found at all (a
//! directory with zero artifacts usually means the instrumented run
//! silently wrote nothing — that should fail CI, not pass it).

use std::path::{Path, PathBuf};

use ssr_obs::trace::parse_events;
use ssr_obs::MetricsSet;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Trace,
    Metrics,
    Checkpoint,
}

impl Kind {
    fn extension(self) -> &'static str {
        match self {
            Kind::Trace | Kind::Checkpoint => "jsonl",
            Kind::Metrics => "json",
        }
    }

    fn noun(self) -> &'static str {
        match self {
            Kind::Trace => "trace",
            Kind::Metrics => "metrics",
            Kind::Checkpoint => "checkpoint",
        }
    }
}

fn collect(path: &Path, ext: &str, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)?
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for entry in entries {
            collect(&entry, ext, out)?;
        }
    } else if path.extension().is_some_and(|e| e == ext) {
        out.push(path.to_path_buf());
    }
    Ok(())
}

/// Validates one file; returns the unit count (events, metrics or
/// records).
fn validate_file(kind: Kind, path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let count = match kind {
        Kind::Trace => parse_events(&text).map(|events| events.len()),
        Kind::Metrics => MetricsSet::from_json(&text).map(|metrics| metrics.items().len()),
        Kind::Checkpoint => ssr_campaign::checkpoint::validate(&text),
    }
    .map_err(|e| format!("{}: {e}", path.display()))?;
    if count == 0 {
        return Err(format!("{}: empty {} file", path.display(), kind.noun()));
    }
    Ok(count)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = Kind::Trace;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--kind" => {
                kind = match it.next().map(String::as_str) {
                    Some("trace") => Kind::Trace,
                    Some("metrics") => Kind::Metrics,
                    Some("checkpoint") => Kind::Checkpoint,
                    other => {
                        eprintln!("error: --kind needs trace|metrics|checkpoint, got {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: obs_validate [--kind trace|metrics|checkpoint] PATH [PATH...]\n\
                     (each PATH a file of the kind's extension or a directory)"
                );
                std::process::exit(2);
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unrecognized flag {flag:?} (known: --kind)");
                std::process::exit(2);
            }
            p => paths.push(p.to_string()),
        }
    }
    if paths.is_empty() {
        eprintln!("usage: obs_validate [--kind trace|metrics|checkpoint] PATH [PATH...]");
        std::process::exit(2);
    }
    let mut files = Vec::new();
    for arg in &paths {
        let path = Path::new(arg);
        if !path.exists() {
            eprintln!("error: {arg}: no such file or directory");
            std::process::exit(2);
        }
        if let Err(e) = collect(path, kind.extension(), &mut files) {
            eprintln!("error: {arg}: {e}");
            std::process::exit(2);
        }
    }
    if files.is_empty() {
        eprintln!(
            "error: no .{} {} files under {}",
            kind.extension(),
            kind.noun(),
            paths.join(", ")
        );
        std::process::exit(1);
    }
    let mut total = 0usize;
    for file in &files {
        match validate_file(kind, file) {
            Ok(count) => total += count,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "obs_validate: {} {} unit(s) across {} file(s) conform to the schema",
        total,
        kind.noun(),
        files.len()
    );
}
