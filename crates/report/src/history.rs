//! The perf-history store (`BENCH_HISTORY.jsonl`, schema
//! `ssr-history/v1`) and the regression tripwire over it.
//!
//! One line per recorded benchmark run, append-only. Identity comes in
//! from the outside — git SHA and a host fingerprint are caller-passed
//! flags, never ambient state — so a history file is reproducible and
//! the store stays deterministic. Per-cell figures are distilled from a
//! `bench-scale-v2`/`-v3` sweep by [`entry_from_scale`].
//!
//! [`check`] is a pure function from `(baseline, current, tolerance)`
//! to a list of [`Regression`]s: throughput may not fall below
//! `baseline × (1 − tol)`, phase wall-nanos may not rise above
//! `baseline × (1 + tol)`. Baseline selection policy (first entry,
//! `--baseline SHA`) lives in the CLI, not here.

use std::fmt::Write as _;

use ssr_obs::json::{self, Value};
use ssr_obs::metrics::json_string;

use crate::reader::ScaleDoc;

/// The history line schema identifier.
pub const HISTORY_SCHEMA: &str = "ssr-history/v1";

/// Per-`(topology, n, threads)` figures of one recorded run.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryCell {
    /// Topology label.
    pub topology: String,
    /// Node count.
    pub n: u64,
    /// Intra-run thread count.
    pub threads: u64,
    /// Steps per second (higher is better).
    pub steps_per_sec: f64,
    /// Moves per second (higher is better).
    pub moves_per_sec: f64,
    /// Select-phase wall nanos (lower is better).
    pub phase_select_nanos: u64,
    /// Apply-phase wall nanos (lower is better).
    pub phase_apply_nanos: u64,
    /// Guards-phase wall nanos (lower is better).
    pub phase_guards_nanos: u64,
}

impl HistoryCell {
    /// The `(topology, n, threads)` cell key.
    pub fn key(&self) -> String {
        format!("{}/n={}/t={}", self.topology, self.n, self.threads)
    }
}

/// One `ssr-history/v1` line: a recorded benchmark run.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryEntry {
    /// Git SHA of the measured tree (caller-passed).
    pub sha: String,
    /// Host fingerprint (caller-passed; figures are only comparable
    /// within one host).
    pub host: String,
    /// Which artifact the cells were distilled from (e.g. the
    /// `BENCH_SCALE.json` path).
    pub source: String,
    /// Measured cells, in source order.
    pub cells: Vec<HistoryCell>,
}

/// Distills a parsed `bench-scale` sweep into one history entry.
pub fn entry_from_scale(doc: &ScaleDoc, sha: &str, host: &str, source: &str) -> HistoryEntry {
    HistoryEntry {
        sha: sha.to_string(),
        host: host.to_string(),
        source: source.to_string(),
        cells: doc
            .runs
            .iter()
            .map(|r| HistoryCell {
                topology: r.topology.clone(),
                n: r.n,
                threads: r.threads,
                steps_per_sec: r.steps_per_sec,
                moves_per_sec: r.moves_per_sec,
                phase_select_nanos: r.phase_select_nanos,
                phase_apply_nanos: r.phase_apply_nanos,
                phase_guards_nanos: r.phase_guards_nanos,
            })
            .collect(),
    }
}

/// Serializes one entry as a single `ssr-history/v1` JSON line (no
/// trailing newline). Throughput floats carry one decimal, matching
/// the scale writer.
pub fn entry_to_json_line(entry: &HistoryEntry) -> String {
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "{{\"schema\":{},\"sha\":{},\"host\":{},\"source\":{},\"cells\":[",
        json_string(HISTORY_SCHEMA),
        json_string(&entry.sha),
        json_string(&entry.host),
        json_string(&entry.source),
    );
    for (i, c) in entry.cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"topology\":{},\"n\":{},\"threads\":{},\"steps_per_sec\":{:.1},\
             \"moves_per_sec\":{:.1},\"phase_select_nanos\":{},\"phase_apply_nanos\":{},\
             \"phase_guards_nanos\":{}}}",
            json_string(&c.topology),
            c.n,
            c.threads,
            c.steps_per_sec,
            c.moves_per_sec,
            c.phase_select_nanos,
            c.phase_apply_nanos,
            c.phase_guards_nanos,
        );
    }
    s.push_str("]}");
    s
}

fn entry_from_value(v: &Value, what: &str) -> Result<HistoryEntry, String> {
    let schema = json::str_field(v, "schema", what)?;
    if schema != HISTORY_SCHEMA {
        return Err(format!(
            "{what}: schema is `{schema}`, expected `{HISTORY_SCHEMA}`"
        ));
    }
    let mut cells = Vec::new();
    for (i, c) in json::arr(json::field(v, "cells", what)?, &format!("{what}.cells"))?
        .iter()
        .enumerate()
    {
        let cwhat = format!("{what}.cells[{i}]");
        cells.push(HistoryCell {
            topology: json::str_field(c, "topology", &cwhat)?,
            n: json::u64_field(c, "n", &cwhat)?,
            threads: json::u64_field(c, "threads", &cwhat)?,
            steps_per_sec: json::num_field(c, "steps_per_sec", &cwhat)?,
            moves_per_sec: json::num_field(c, "moves_per_sec", &cwhat)?,
            phase_select_nanos: json::u64_field(c, "phase_select_nanos", &cwhat)?,
            phase_apply_nanos: json::u64_field(c, "phase_apply_nanos", &cwhat)?,
            phase_guards_nanos: json::u64_field(c, "phase_guards_nanos", &cwhat)?,
        });
    }
    Ok(HistoryEntry {
        sha: json::str_field(v, "sha", what)?,
        host: json::str_field(v, "host", what)?,
        source: json::str_field(v, "source", what)?,
        cells,
    })
}

/// Parses a `BENCH_HISTORY.jsonl` document, oldest entry first.
pub fn parse_history_jsonl(text: &str) -> Result<Vec<HistoryEntry>, String> {
    json::parse_jsonl(text)?
        .iter()
        .enumerate()
        .map(|(i, v)| entry_from_value(v, &format!("entry[{i}]")))
        .collect()
}

/// Validates one history line (used by `obs_validate --kind history`).
pub fn validate_history_line(line: &str) -> Result<(), String> {
    let v = json::parse(line.trim()).map_err(|e| format!("invalid JSON ({e})"))?;
    entry_from_value(&v, "entry").map(|_| ())
}

/// Relative tolerance bands for [`check`]. A fraction of `0.10` allows
/// 10% degradation before tripping.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerance {
    /// Allowed fractional drop in steps/sec and moves/sec.
    pub throughput_frac: f64,
    /// Allowed fractional rise in per-phase wall nanos.
    pub phase_frac: f64,
}

impl Default for Tolerance {
    /// 15% throughput / 25% phase — tight enough to catch a real
    /// slowdown, loose enough to absorb same-host run-to-run noise.
    fn default() -> Self {
        Tolerance {
            throughput_frac: 0.15,
            phase_frac: 0.25,
        }
    }
}

/// One tripped tolerance band.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// The `(topology, n, threads)` cell key.
    pub cell: String,
    /// The metric that tripped (`steps_per_sec`, `phase_apply_nanos`, …).
    pub metric: String,
    /// Baseline figure.
    pub baseline: f64,
    /// Current figure.
    pub current: f64,
    /// The band edge the current figure crossed.
    pub limit: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} {:.1} vs baseline {:.1} (limit {:.1})",
            self.cell, self.metric, self.current, self.baseline, self.limit
        )
    }
}

/// Compares `current` against `baseline` cell-by-cell. Throughput
/// regresses when it falls below `baseline × (1 − throughput_frac)`;
/// a phase regresses when its nanos rise above
/// `baseline × (1 + phase_frac)` (zero-valued baselines or currents
/// are skipped — untimed sweeps carry no phase signal).
///
/// Errors when the two entries share no `(topology, n, threads)` cell:
/// a gate that compares nothing must fail loudly, not pass silently.
pub fn check(
    baseline: &HistoryEntry,
    current: &HistoryEntry,
    tol: &Tolerance,
) -> Result<Vec<Regression>, String> {
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for cur in &current.cells {
        let Some(base) = baseline
            .cells
            .iter()
            .find(|b| b.topology == cur.topology && b.n == cur.n && b.threads == cur.threads)
        else {
            continue;
        };
        compared += 1;
        let mut floor = |metric: &str, b: f64, c: f64| {
            let limit = b * (1.0 - tol.throughput_frac);
            if c < limit {
                regressions.push(Regression {
                    cell: cur.key(),
                    metric: metric.to_string(),
                    baseline: b,
                    current: c,
                    limit,
                });
            }
        };
        floor("steps_per_sec", base.steps_per_sec, cur.steps_per_sec);
        floor("moves_per_sec", base.moves_per_sec, cur.moves_per_sec);
        let phases = [
            (
                "phase_select_nanos",
                base.phase_select_nanos,
                cur.phase_select_nanos,
            ),
            (
                "phase_apply_nanos",
                base.phase_apply_nanos,
                cur.phase_apply_nanos,
            ),
            (
                "phase_guards_nanos",
                base.phase_guards_nanos,
                cur.phase_guards_nanos,
            ),
        ];
        for (metric, b, c) in phases {
            if b == 0 || c == 0 {
                continue;
            }
            let (b, c) = (b as f64, c as f64);
            let limit = b * (1.0 + tol.phase_frac);
            if c > limit {
                regressions.push(Regression {
                    cell: cur.key(),
                    metric: metric.to_string(),
                    baseline: b,
                    current: c,
                    limit,
                });
            }
        }
    }
    if compared == 0 {
        return Err(format!(
            "no overlapping (topology, n, threads) cells between baseline {} and current {}",
            baseline.sha, current.sha
        ));
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(n: u64, sps: f64, apply: u64) -> HistoryCell {
        HistoryCell {
            topology: "ring".to_string(),
            n,
            threads: 2,
            steps_per_sec: sps,
            moves_per_sec: sps * 2.0,
            phase_select_nanos: 1000,
            phase_apply_nanos: apply,
            phase_guards_nanos: 500,
        }
    }

    fn entry(sha: &str, cells: Vec<HistoryCell>) -> HistoryEntry {
        HistoryEntry {
            sha: sha.to_string(),
            host: "h".to_string(),
            source: "BENCH_SCALE.json".to_string(),
            cells,
        }
    }

    #[test]
    fn line_round_trips() {
        let e = entry("abc123", vec![cell(100, 1234.5, 2000)]);
        let line = entry_to_json_line(&e);
        validate_history_line(&line).unwrap();
        let parsed = parse_history_jsonl(&format!("{line}\n")).unwrap();
        assert_eq!(parsed, vec![e]);
    }

    #[test]
    fn identical_entries_pass() {
        let e = entry("a", vec![cell(100, 1000.0, 2000)]);
        assert!(check(&e, &e, &Tolerance::default()).unwrap().is_empty());
    }

    #[test]
    fn throughput_drop_trips_the_floor() {
        let base = entry("a", vec![cell(100, 1000.0, 2000)]);
        let cur = entry("b", vec![cell(100, 800.0, 2000)]);
        let regs = check(&base, &cur, &Tolerance::default()).unwrap();
        assert_eq!(regs.len(), 2, "{regs:?}"); // steps/sec and moves/sec
        assert_eq!(regs[0].metric, "steps_per_sec");
        // Within a looser band, the same drop passes.
        let loose = Tolerance {
            throughput_frac: 0.5,
            phase_frac: 0.5,
        };
        assert!(check(&base, &cur, &loose).unwrap().is_empty());
    }

    #[test]
    fn phase_rise_trips_the_ceiling() {
        let base = entry("a", vec![cell(100, 1000.0, 2000)]);
        let cur = entry("b", vec![cell(100, 1000.0, 3000)]);
        let regs = check(&base, &cur, &Tolerance::default()).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "phase_apply_nanos");
        assert!(regs[0].to_string().contains("phase_apply_nanos"));
    }

    #[test]
    fn zero_phase_baseline_is_skipped() {
        let mut base = entry("a", vec![cell(100, 1000.0, 0)]);
        base.cells[0].phase_select_nanos = 0;
        base.cells[0].phase_guards_nanos = 0;
        let cur = entry("b", vec![cell(100, 1000.0, 99999)]);
        assert!(check(&base, &cur, &Tolerance::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn disjoint_cells_error() {
        let base = entry("a", vec![cell(100, 1000.0, 2000)]);
        let cur = entry("b", vec![cell(200, 1000.0, 2000)]);
        let err = check(&base, &cur, &Tolerance::default()).unwrap_err();
        assert!(err.contains("no overlapping"), "{err}");
    }

    #[test]
    fn entry_from_scale_distills_cells() {
        let doc = crate::reader::parse_scale_json(
            "{\"schema\": \"bench-scale-v2\", \"smoke\": true, \"runs\": [\
             {\"topology\":\"ring\",\"n\":100,\"threads\":2,\"steps\":5,\"moves\":9,\
             \"rounds\":5,\"seconds\":0.5,\"steps_per_sec\":10.0,\"moves_per_sec\":18.0,\
             \"converged\":true,\"conflict_classes_avg\":2.00,\"soa_heap_bytes\":1024,\
             \"phase_nanos\":{\"select\":1,\"apply\":2,\"guards\":3},\
             \"kernel_par_steps\":{\"apply\":4,\"guards\":5}}]}",
        )
        .unwrap();
        let e = entry_from_scale(&doc, "deadbeef", "ci-x86", "BENCH_SCALE.json");
        assert_eq!(e.cells.len(), 1);
        assert_eq!(e.cells[0].key(), "ring/n=100/t=2");
        assert_eq!(e.cells[0].phase_guards_nanos, 3);
    }
}
