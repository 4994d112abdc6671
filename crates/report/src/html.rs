//! The report renderer: artifact discovery plus a single
//! self-contained HTML document with inline SVG charts.
//!
//! [`load_dir`] walks one directory in sorted filename order and
//! classifies each artifact by extension and a cheap structural sniff;
//! [`render`] turns the loaded set into HTML. Rendering is a pure
//! function of the artifact bytes — no timestamps, no ambient state —
//! so a report over the same artifacts is byte-identical anywhere,
//! which is what makes it diffable in CI.
//!
//! Every chart figure is always emitted under a stable anchor id
//! (`chart-bounds`, `chart-convergence`, `chart-phases`,
//! `chart-scaling`, `chart-timeline`); a figure whose artifact is
//! absent says so in place instead of vanishing, so smoke checks can
//! grep for the full inventory unconditionally.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use ssr_obs::trace::parse_events;
use ssr_obs::{MetricsSet, TraceEvent};

use crate::reader::{self, BenchResultsDoc, CampaignRow, ScaleDoc};
use crate::svg::{self, esc, fmt_num, HBar, Series, VBar};

/// Timeline charts/tables cap at this many steps so a long run cannot
/// balloon the report; the figure notes the truncation.
const TIMELINE_CAP: usize = 200;

/// Everything [`render`] consumes, loaded and already validated.
#[derive(Default)]
pub struct Artifacts {
    /// Campaign record sets, `(file name, rows)`, sorted by name.
    pub campaigns: Vec<(String, Vec<CampaignRow>)>,
    /// Metrics snapshots, `(file name, metrics)`, sorted by name.
    pub metrics: Vec<(String, MetricsSet)>,
    /// Trace files, `(file name, events)`, sorted by name.
    pub traces: Vec<(String, Vec<TraceEvent>)>,
    /// The `BENCH_RESULTS.json` document, if present.
    pub bench: Option<BenchResultsDoc>,
    /// The `BENCH_SCALE.json` document, if present.
    pub scale: Option<ScaleDoc>,
    /// Files that were seen but not recognized (reported, not fatal).
    pub skipped: Vec<String>,
}

impl Artifacts {
    /// Parses `text` as campaign JSONL and adds it under `name`,
    /// keeping `campaigns` sorted by name, as [`load_dir`] does with a
    /// `.jsonl` record file. The campaign service builds its rows from
    /// its stored records instead.
    pub fn push_campaign_jsonl(&mut self, name: &str, text: &str) -> Result<(), String> {
        let rows = reader::parse_campaign_jsonl(text).map_err(|e| format!("{name}: {e}"))?;
        self.campaigns.push((name.to_string(), rows));
        self.campaigns.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(())
    }

    /// Parses `text` as a `ssr-metrics-v1` snapshot and adds it under
    /// `name`, keeping `metrics` sorted by name.
    pub fn push_metrics_json(&mut self, name: &str, text: &str) -> Result<(), String> {
        let snap = MetricsSet::from_json(text).map_err(|e| format!("{name}: {e}"))?;
        self.metrics.push((name.to_string(), snap));
        self.metrics.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(())
    }
}

/// Collects the relative (`/`-joined) paths of every regular file
/// under `dir`, recursively.
fn collect_files(dir: &Path, prefix: &str, out: &mut Vec<String>) -> Result<(), String> {
    for entry in fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = if prefix.is_empty() {
            name
        } else {
            format!("{prefix}/{name}")
        };
        let ty = entry
            .file_type()
            .map_err(|e| format!("cannot stat {rel}: {e}"))?;
        if ty.is_dir() {
            collect_files(&entry.path(), &rel, out)?;
        } else if ty.is_file() {
            out.push(rel);
        }
    }
    Ok(())
}

/// Loads every recognizable artifact under `dir` (recursively, so
/// per-campaign trace subdirectories are found), in sorted
/// relative-path order. A recognized file that fails validation is a
/// hard error; an unrecognized file is merely listed in
/// [`Artifacts::skipped`].
pub fn load_dir(dir: &Path) -> Result<Artifacts, String> {
    let mut names = Vec::new();
    collect_files(dir, "", &mut names)?;
    names.sort();
    let mut art = Artifacts::default();
    for name in names {
        let path = dir.join(&name);
        let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
        if !matches!(ext, "json" | "jsonl" | "csv") {
            continue;
        }
        let text = fs::read_to_string(&path).map_err(|e| format!("cannot read {name}: {e}"))?;
        match ext {
            "jsonl" => {
                let first = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
                if first.contains("\"event\"") {
                    let events = parse_events(&text).map_err(|e| format!("{name}: {e}"))?;
                    art.traces.push((name, events));
                } else if first.contains("\"campaign\"") {
                    art.push_campaign_jsonl(&name, &text)?;
                } else {
                    art.skipped.push(name);
                }
            }
            "json" => {
                if text.contains("ssr-metrics-v1") {
                    art.push_metrics_json(&name, &text)?;
                } else if text.contains("ssr-bench-results/v1") {
                    art.bench = Some(
                        reader::parse_bench_results(&text).map_err(|e| format!("{name}: {e}"))?,
                    );
                } else if text.contains("bench-scale-v") {
                    art.scale =
                        Some(reader::parse_scale_json(&text).map_err(|e| format!("{name}: {e}"))?);
                } else {
                    art.skipped.push(name);
                }
            }
            _ => {
                if text.starts_with("campaign,") {
                    let rows =
                        reader::parse_campaign_csv(&text).map_err(|e| format!("{name}: {e}"))?;
                    art.campaigns.push((name, rows));
                } else {
                    art.skipped.push(name);
                }
            }
        }
    }
    Ok(art)
}

/// Nearest-rank percentile over a sorted slice (matches
/// `ssr_campaign::stats`).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn figure(id: &str, title: &str, note: &str, legend: &str, body: &str, table: &str) -> String {
    let mut s = String::new();
    let _ = write!(s, "<figure id=\"{id}\"><figcaption><h2>{}</h2>", esc(title));
    if !note.is_empty() {
        let _ = write!(s, "<p class=\"note\">{}</p>", esc(note));
    }
    s.push_str("</figcaption>");
    s.push_str(legend);
    s.push_str(body);
    if !table.is_empty() {
        let _ = write!(s, "<details><summary>Data table</summary>{table}</details>");
    }
    s.push_str("</figure>");
    s
}

fn empty_figure(id: &str, title: &str, why: &str) -> String {
    figure(
        id,
        title,
        why,
        "",
        "<p class=\"empty\">No data in this artifact set.</p>",
        "",
    )
}

fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = String::from("<table><thead><tr>");
    for h in headers {
        let _ = write!(s, "<th>{}</th>", esc(h));
    }
    s.push_str("</tr></thead><tbody>");
    for row in rows {
        s.push_str("<tr>");
        for cell in row {
            let _ = write!(s, "<td>{}</td>", esc(cell));
        }
        s.push_str("</tr>");
    }
    s.push_str("</tbody></table>");
    s
}

/// Measured-vs-bound margins per family: worst measured figure as the
/// bar, the closed-form bound as a marker tick.
fn bounds_section(art: &Artifacts) -> String {
    struct Row {
        family: String,
        measured: u64,
        bound: u64,
        unit: &'static str,
        trials: usize,
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut families: Vec<String> = art
        .campaigns
        .iter()
        .flat_map(|(_, rs)| rs.iter())
        .filter(|r| r.bound_rounds.is_some() || r.bound_moves.is_some())
        .map(|r| r.algorithm.clone())
        .collect();
    families.sort();
    families.dedup();
    for family in families {
        let recs: Vec<&CampaignRow> = art
            .campaigns
            .iter()
            .flat_map(|(_, rs)| rs.iter())
            .filter(|r| r.algorithm == family)
            .collect();
        // Prefer the rounds bound when any record carries one; fall
        // back to the moves bound.
        let use_rounds = recs.iter().any(|r| r.bound_rounds.is_some());
        let bounded: Vec<&&CampaignRow> = recs
            .iter()
            .filter(|r| {
                if use_rounds {
                    r.bound_rounds.is_some()
                } else {
                    r.bound_moves.is_some()
                }
            })
            .collect();
        let (measured, bound) = bounded.iter().fold((0u64, 0u64), |(m, b), r| {
            if use_rounds {
                (m.max(r.rounds), b.max(r.bound_rounds.unwrap_or(0)))
            } else {
                (m.max(r.moves), b.max(r.bound_moves.unwrap_or(0)))
            }
        });
        rows.push(Row {
            family,
            measured,
            bound,
            unit: if use_rounds { "rounds" } else { "moves" },
            trials: bounded.len(),
        });
    }
    if let Some(bench) = &art.bench {
        for g in &bench.groups {
            rows.push(Row {
                family: format!("{} ({})", g.id, g.title),
                measured: g.moves,
                bound: g.bound,
                unit: "moves",
                trials: g.sizes.len(),
            });
        }
    }
    if rows.is_empty() {
        return empty_figure(
            "chart-bounds",
            "Measured vs bound",
            "needs campaign records or BENCH_RESULTS.json with bounds",
        );
    }
    let bars: Vec<HBar> = rows
        .iter()
        .map(|r| HBar {
            label: r.family.clone(),
            value: r.measured as f64,
            marker: (r.bound > 0).then_some(r.bound as f64),
            tooltip: format!(
                "{}: worst {} {} of bound {} over {} records",
                r.family, r.unit, r.measured, r.bound, r.trials
            ),
            series: 1,
        })
        .collect();
    let t = table(
        &["family", "unit", "worst measured", "bound", "records"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.family.clone(),
                    r.unit.to_string(),
                    r.measured.to_string(),
                    r.bound.to_string(),
                    r.trials.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    figure(
        "chart-bounds",
        "Measured vs bound",
        "bar = worst measured figure per family; tick = closed-form bound",
        "",
        &svg::hbar_chart(&bars, "rounds / moves"),
        &t,
    )
}

/// Convergence-time distribution across all campaign records: p50/p90/
/// p99 plus a rounds histogram.
fn convergence_section(art: &Artifacts) -> String {
    let mut rounds: Vec<u64> = art
        .campaigns
        .iter()
        .flat_map(|(_, rs)| rs.iter().map(|r| r.rounds))
        .collect();
    if rounds.is_empty() {
        return empty_figure(
            "chart-convergence",
            "Convergence-time distribution",
            "needs campaign records",
        );
    }
    rounds.sort_unstable();
    let (p50, p90, p99) = (
        percentile(&rounds, 50.0),
        percentile(&rounds, 90.0),
        percentile(&rounds, 99.0),
    );
    let max = *rounds.last().unwrap_or(&0);
    let bins = 20usize.min(max as usize + 1).max(1);
    let bin_w = ((max + 1) as f64 / bins as f64).ceil().max(1.0) as u64;
    let mut counts = vec![0u64; bins];
    for &r in &rounds {
        let idx = ((r / bin_w) as usize).min(bins - 1);
        counts[idx] += 1;
    }
    let bars: Vec<VBar> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let lo = i as u64 * bin_w;
            let hi = lo + bin_w - 1;
            VBar {
                label: if bin_w == 1 {
                    lo.to_string()
                } else {
                    format!("{lo}–{hi}")
                },
                value: c as f64,
                tooltip: format!("rounds {lo}–{hi}: {c} runs"),
                series: 3,
            }
        })
        .collect();
    let t = table(
        &["stat", "rounds"],
        &[
            vec!["runs".to_string(), rounds.len().to_string()],
            vec!["min".to_string(), rounds[0].to_string()],
            vec!["p50".to_string(), p50.to_string()],
            vec!["p90".to_string(), p90.to_string()],
            vec!["p99".to_string(), p99.to_string()],
            vec!["max".to_string(), max.to_string()],
        ],
    );
    figure(
        "chart-convergence",
        "Convergence-time distribution",
        &format!(
            "{} runs — rounds p50 {p50}, p90 {p90}, p99 {p99}",
            rounds.len()
        ),
        "",
        &svg::vbar_chart(&bars, "rounds to convergence", "runs"),
        &t,
    )
}

/// Per-phase select/apply/guards wall-time breakdown from the scale
/// sweep, at the largest size per topology.
fn phases_section(art: &Artifacts) -> String {
    let Some(scale) = &art.scale else {
        return empty_figure(
            "chart-phases",
            "Per-phase time breakdown",
            "needs BENCH_SCALE.json (bench-scale-v3)",
        );
    };
    let mut tops: Vec<&str> = scale.runs.iter().map(|r| r.topology.as_str()).collect();
    tops.sort_unstable();
    tops.dedup();
    let mut bars = Vec::new();
    let mut rows = Vec::new();
    for top in tops {
        let max_n = scale
            .runs
            .iter()
            .filter(|r| r.topology == top)
            .map(|r| r.n)
            .max()
            .unwrap_or(0);
        for r in scale
            .runs
            .iter()
            .filter(|r| r.topology == top && r.n == max_n)
        {
            let phases = [
                ("select", r.phase_select_nanos, 1usize),
                ("apply", r.phase_apply_nanos, 2),
                ("guards", r.phase_guards_nanos, 3),
            ];
            for (phase, nanos, slot) in phases {
                let ms = nanos as f64 / 1.0e6;
                bars.push(HBar {
                    label: format!("{top} n={max_n} t={} · {phase}", r.threads),
                    value: ms,
                    marker: None,
                    tooltip: format!(
                        "{top} n={max_n} threads={}: {phase} {} ms",
                        r.threads,
                        fmt_num(ms)
                    ),
                    series: slot,
                });
            }
            rows.push(vec![
                r.cell(),
                fmt_num(r.phase_select_nanos as f64 / 1.0e6),
                fmt_num(r.phase_apply_nanos as f64 / 1.0e6),
                fmt_num(r.phase_guards_nanos as f64 / 1.0e6),
            ]);
        }
    }
    if bars.iter().all(|b| b.value == 0.0) {
        return empty_figure(
            "chart-phases",
            "Per-phase time breakdown",
            "scale sweep carries no phase timings",
        );
    }
    let legend = svg::legend(&[
        ("select".to_string(), 1),
        ("apply".to_string(), 2),
        ("guards".to_string(), 3),
    ]);
    let t = table(&["cell", "select ms", "apply ms", "guards ms"], &rows);
    figure(
        "chart-phases",
        "Per-phase time breakdown",
        "select / apply / guards wall time at the largest size per topology",
        &legend,
        &svg::hbar_chart(&bars, "milliseconds"),
        &t,
    )
}

/// Thread-scaling curves from the scale sweep: steps/sec over thread
/// count, one series per `(topology, n)` (largest sizes first, capped
/// at the 8 categorical slots).
fn scaling_section(art: &Artifacts) -> String {
    let Some(scale) = &art.scale else {
        return empty_figure(
            "chart-scaling",
            "Thread scaling",
            "needs BENCH_SCALE.json (bench-scale-v3)",
        );
    };
    let mut keys: Vec<(String, u64)> = scale
        .runs
        .iter()
        .map(|r| (r.topology.clone(), r.n))
        .collect();
    keys.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    keys.dedup();
    let shown = &keys[..keys.len().min(8)];
    let mut series = Vec::new();
    let mut rows = Vec::new();
    for (slot, (top, n)) in shown.iter().enumerate() {
        let mut points: Vec<(f64, f64)> = scale
            .runs
            .iter()
            .filter(|r| &r.topology == top && r.n == *n)
            .map(|r| {
                rows.push(vec![
                    r.cell(),
                    fmt_num(r.steps_per_sec),
                    fmt_num(r.moves_per_sec),
                    fmt_num(r.seconds),
                ]);
                (r.threads as f64, r.steps_per_sec)
            })
            .collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        series.push(Series {
            name: format!("{top} n={n}"),
            points,
            series: slot + 1,
        });
    }
    let dropped = keys.len().saturating_sub(shown.len());
    let note = if dropped > 0 {
        format!(
            "steps/sec over intra-run threads — largest {} of {} (topology, n) cells shown",
            shown.len(),
            keys.len()
        )
    } else {
        "steps/sec over intra-run threads".to_string()
    };
    let legend = svg::legend(
        &series
            .iter()
            .map(|s| (s.name.clone(), s.series))
            .collect::<Vec<_>>(),
    );
    let t = table(&["cell", "steps/sec", "moves/sec", "seconds"], &rows);
    figure(
        "chart-scaling",
        "Thread scaling",
        &note,
        &legend,
        &svg::line_chart(&series, "threads", "steps/sec"),
        &t,
    )
}

/// Trace-derived run timeline: enabled-set size per step from the
/// first trace file, with per-step moves in the tooltip.
fn timeline_section(art: &Artifacts) -> String {
    let Some((name, events)) = art.traces.first() else {
        return empty_figure(
            "chart-timeline",
            "Run timeline",
            "needs a trace JSONL file (run with --trace)",
        );
    };
    let mut steps: Vec<(u64, u32, u32)> = Vec::new(); // (step, enabled, moves)
    for event in events {
        match *event {
            TraceEvent::StepStarted { step, enabled } => steps.push((step, enabled, 0)),
            TraceEvent::MovesApplied { moves, .. } => {
                if let Some(last) = steps.last_mut() {
                    last.2 = moves;
                }
            }
            _ => {}
        }
    }
    let total = steps.len();
    steps.truncate(TIMELINE_CAP);
    let bars: Vec<VBar> = steps
        .iter()
        .map(|&(step, enabled, moves)| VBar {
            label: step.to_string(),
            value: enabled as f64,
            tooltip: format!("step {step}: {enabled} enabled, {moves} moves applied"),
            series: 7,
        })
        .collect();
    let mut note = format!("{name} — enabled-set size per step");
    let ended = events
        .iter()
        .find(|e| matches!(e, TraceEvent::RunEnded { .. }));
    if let Some(TraceEvent::RunEnded {
        steps,
        moves,
        rounds,
        reason,
    }) = ended
    {
        let _ = write!(
            note,
            " (run: {steps} steps, {moves} moves, {rounds} rounds, {reason})"
        );
    }
    if total > TIMELINE_CAP {
        let _ = write!(note, " — first {TIMELINE_CAP} of {total} steps shown");
    }
    let t = table(
        &["step", "enabled", "moves"],
        &steps
            .iter()
            .map(|&(s, e, m)| vec![s.to_string(), e.to_string(), m.to_string()])
            .collect::<Vec<_>>(),
    );
    figure(
        "chart-timeline",
        "Run timeline",
        &note,
        "",
        &svg::vbar_chart(&bars, "step", "enabled processes"),
        &t,
    )
}

/// Campaign and metrics inventory (what the report was built from).
fn inventory_section(art: &Artifacts) -> String {
    let mut s = String::from("<section id=\"inventory\"><h2>Artifacts</h2><ul>");
    for (name, rows) in &art.campaigns {
        let _ = write!(
            s,
            "<li>campaign <code>{}</code> — {} records</li>",
            esc(name),
            rows.len()
        );
    }
    for (name, snap) in &art.metrics {
        let _ = write!(
            s,
            "<li>metrics <code>{}</code> — {} metrics</li>",
            esc(name),
            snap.items().len()
        );
    }
    for (name, events) in &art.traces {
        let _ = write!(
            s,
            "<li>trace <code>{}</code> — {} events</li>",
            esc(name),
            events.len()
        );
    }
    if let Some(b) = &art.bench {
        let _ = write!(
            s,
            "<li>bench results — profile {}, {} groups, all_pass {}</li>",
            esc(&b.profile),
            b.groups.len(),
            b.all_pass
        );
    }
    if let Some(sc) = &art.scale {
        let _ = write!(
            s,
            "<li>scale sweep — {} cells, smoke {}</li>",
            sc.runs.len(),
            sc.smoke
        );
    }
    for name in &art.skipped {
        let _ = write!(
            s,
            "<li>skipped (unrecognized) <code>{}</code></li>",
            esc(name)
        );
    }
    s.push_str("</ul></section>");
    s
}

/// The stylesheet: validated categorical palette and surface/ink
/// tokens as CSS custom properties, with a selected dark mode behind
/// both `prefers-color-scheme` and an explicit `data-theme` override.
const STYLE: &str = "\
:root{--surface:#fcfcfb;--ink:#0b0b0b;--ink-2:#52514e;--grid:#dcdbd5;\
--series-1:#2a78d6;--series-2:#eb6834;--series-3:#1baf7a;--series-4:#eda100;\
--series-5:#e87ba4;--series-6:#008300;--series-7:#4a3aa7;--series-8:#e34948}\
@media (prefers-color-scheme:dark){:root:not([data-theme=light])\
{--surface:#1a1a19;--ink:#ffffff;--ink-2:#c3c2b7;--grid:#3a3a37;\
--series-1:#3987e5;--series-2:#d95926;--series-3:#199e70;--series-4:#c98500;\
--series-5:#d55181;--series-6:#008300;--series-7:#9085e9;--series-8:#e66767}}\
[data-theme=dark]{--surface:#1a1a19;--ink:#ffffff;--ink-2:#c3c2b7;--grid:#3a3a37;\
--series-1:#3987e5;--series-2:#d95926;--series-3:#199e70;--series-4:#c98500;\
--series-5:#d55181;--series-6:#008300;--series-7:#9085e9;--series-8:#e66767}\
body{background:var(--surface);color:var(--ink);font:15px/1.5 system-ui,sans-serif;\
max-width:920px;margin:2rem auto;padding:0 1rem}\
h1{font-size:1.4rem}h2{font-size:1.1rem;margin:0 0 .25rem}\
figure{margin:2.5rem 0}figcaption .note,p.note{color:var(--ink-2);font-size:.85rem;margin:.1rem 0}\
p.empty{color:var(--ink-2);font-style:italic}\
svg{width:100%;height:auto;display:block;margin-top:.5rem}\
.s1{--c:var(--series-1)}.s2{--c:var(--series-2)}.s3{--c:var(--series-3)}\
.s4{--c:var(--series-4)}.s5{--c:var(--series-5)}.s6{--c:var(--series-6)}\
.s7{--c:var(--series-7)}.s8{--c:var(--series-8)}\
svg rect{fill:var(--c)}svg circle.dot{fill:var(--c);stroke:var(--surface);stroke-width:2}\
svg path.line{stroke:var(--c);stroke-width:2;fill:none}\
svg .grid{stroke:var(--grid);stroke-width:1}\
svg .marker{stroke:var(--ink);stroke-width:2}\
svg text{fill:var(--ink-2);font:11px system-ui,sans-serif}\
svg .axis-label{fill:var(--ink);font-size:12px}\
svg .row-label{fill:var(--ink)}\
.legend{display:flex;gap:1rem;flex-wrap:wrap;font-size:.85rem;color:var(--ink-2)}\
.legend-item{display:inline-flex;align-items:center;gap:.35rem}\
.swatch{width:10px;height:10px;border-radius:2px;display:inline-block;background:var(--c)}\
details{margin-top:.5rem}summary{cursor:pointer;color:var(--ink-2);font-size:.85rem}\
table{border-collapse:collapse;font-size:.85rem;margin-top:.5rem}\
th,td{border:1px solid var(--grid);padding:.25rem .6rem;text-align:left}\
th{color:var(--ink-2);font-weight:600}\
code{font-size:.85em}ul{color:var(--ink-2)}";

/// Renders the loaded artifact set as one self-contained HTML page.
pub fn render(art: &Artifacts) -> String {
    let mut s = String::with_capacity(32 * 1024);
    s.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">");
    s.push_str("<meta name=\"viewport\" content=\"width=device-width,initial-scale=1\">");
    s.push_str("<title>ssr campaign report</title>");
    let _ = write!(s, "<style>{STYLE}</style>");
    s.push_str("</head><body><h1>ssr campaign report</h1>");
    s.push_str(
        "<p class=\"note\">Self-contained report over the stack&#39;s own artifacts. \
         Byte-identical for a given artifact set — diff two reports to diff two runs.</p>",
    );
    s.push_str(&bounds_section(art));
    s.push_str(&convergence_section(art));
    s.push_str(&phases_section(art));
    s.push_str(&scaling_section(art));
    s.push_str(&timeline_section(art));
    s.push_str(&inventory_section(art));
    s.push_str("</body></html>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every chart anchor must be present even over an empty set.
    #[test]
    fn empty_artifact_set_still_emits_all_anchors() {
        let html = render(&Artifacts::default());
        for id in [
            "chart-bounds",
            "chart-convergence",
            "chart-phases",
            "chart-scaling",
            "chart-timeline",
            "inventory",
        ] {
            assert!(html.contains(&format!("id=\"{id}\"")), "missing {id}");
        }
        assert!(html.contains("<!DOCTYPE html>"));
    }

    #[test]
    fn render_is_deterministic() {
        let mut art = Artifacts::default();
        art.campaigns.push((
            "c.jsonl".to_string(),
            reader::parse_campaign_jsonl(
                r#"{"campaign":"c","index":0,"topology":"ring","n":8,"nodes":8,"edges":8,"max_degree":2,"diameter":4,"algorithm":"unison-sdr","daemon":"central","init":"arbitrary","trial":1,"seed":7,"reached":true,"terminal":true,"reason":"terminal","steps":10,"moves":12,"rounds":5,"max_moves_per_process":3,"bound_rounds":24,"bound_moves":null,"verdict":"pass"}"#,
            )
            .unwrap(),
        ));
        let one = render(&art);
        let two = render(&art);
        assert_eq!(one, two);
        assert!(one.contains("unison-sdr"));
        // The bounds marker for bound_rounds=24 is drawn.
        assert!(one.contains("class=\"marker\""));
    }

    #[test]
    fn push_campaign_jsonl_matches_manual_parse_and_sorts() {
        let line = r#"{"campaign":"c","index":0,"topology":"ring","n":8,"nodes":8,"edges":8,"max_degree":2,"diameter":4,"algorithm":"unison-sdr","daemon":"central","init":"arbitrary","trial":1,"seed":7,"reached":true,"terminal":true,"reason":"terminal","steps":10,"moves":12,"rounds":5,"max_moves_per_process":3,"bound_rounds":24,"bound_moves":null,"verdict":"pass"}"#;
        let mut art = Artifacts::default();
        art.push_campaign_jsonl("z.jsonl", line).unwrap();
        art.push_campaign_jsonl("a.jsonl", line).unwrap();
        assert_eq!(art.campaigns.len(), 2);
        assert_eq!(art.campaigns[0].0, "a.jsonl");
        assert_eq!(
            art.campaigns[1].1,
            reader::parse_campaign_jsonl(line).unwrap()
        );
        assert!(art
            .push_campaign_jsonl("bad.jsonl", "{\"nope\":1}")
            .is_err());
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }
}
