//! Typed readers for the artifacts the stack writes: campaign
//! JSONL/CSV, `ssr-metrics-v1` snapshots, trace JSONL (`DESIGN.md`
//! §10), `BENCH_RESULTS.json` (`ssr-bench-results/v1`), and
//! `BENCH_SCALE.json` (`bench-scale-v3`).
//!
//! Every reader is the exact inverse of a hand-rolled writer elsewhere
//! in the workspace, built on the shared recursive-descent parser in
//! [`ssr_obs::json`]; proptests in `tests/reader_roundtrip.rs` pin the
//! round trips against the live writers. Readers validate as they
//! parse — a file that parses is also schema-conformant.

use ssr_obs::json::{self, Value};

/// One campaign scenario record, as written by
/// `ssr_campaign::output::jsonl`/`csv`.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignRow {
    /// Campaign id.
    pub campaign: String,
    /// Grid index of the scenario.
    pub index: u64,
    /// Topology label.
    pub topology: String,
    /// Requested size parameter.
    pub n: u64,
    /// Actual node count.
    pub nodes: u64,
    /// Edge count.
    pub edges: u64,
    /// Maximum degree.
    pub max_degree: u64,
    /// Graph diameter.
    pub diameter: u64,
    /// Algorithm family label.
    pub algorithm: String,
    /// Daemon label.
    pub daemon: String,
    /// Init-plan label.
    pub init: String,
    /// Trial number.
    pub trial: u64,
    /// Derived RNG seed.
    pub seed: u64,
    /// Whether the target predicate was reached.
    pub reached: bool,
    /// Whether the run ended in a terminal configuration.
    pub terminal: bool,
    /// Termination reason (`None` when the run recorded none).
    pub reason: Option<String>,
    /// Steps taken.
    pub steps: u64,
    /// Moves made.
    pub moves: u64,
    /// Rounds completed.
    pub rounds: u64,
    /// Maximum moves by any one process.
    pub max_moves_per_process: u64,
    /// Closed-form round bound, when one applies.
    pub bound_rounds: Option<u64>,
    /// Closed-form move bound, when one applies.
    pub bound_moves: Option<u64>,
    /// Bound verdict (`pass`/`fail`/`no-bound`/`skip`).
    pub verdict: String,
}

fn opt_u64(v: &Value, key: &str, what: &str) -> Result<Option<u64>, String> {
    match json::field(v, key, what)? {
        Value::Null => Ok(None),
        other => other
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{what}.{key} must be an unsigned integer or null")),
    }
}

fn opt_str(v: &Value, key: &str, what: &str) -> Result<Option<String>, String> {
    match json::field(v, key, what)? {
        Value::Null => Ok(None),
        other => other
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("{what}.{key} must be a string or null")),
    }
}

fn campaign_row(v: &Value, what: &str) -> Result<CampaignRow, String> {
    Ok(CampaignRow {
        campaign: json::str_field(v, "campaign", what)?,
        index: json::u64_field(v, "index", what)?,
        topology: json::str_field(v, "topology", what)?,
        n: json::u64_field(v, "n", what)?,
        nodes: json::u64_field(v, "nodes", what)?,
        edges: json::u64_field(v, "edges", what)?,
        max_degree: json::u64_field(v, "max_degree", what)?,
        diameter: json::u64_field(v, "diameter", what)?,
        algorithm: json::str_field(v, "algorithm", what)?,
        daemon: json::str_field(v, "daemon", what)?,
        init: json::str_field(v, "init", what)?,
        trial: json::u64_field(v, "trial", what)?,
        seed: json::u64_field(v, "seed", what)?,
        reached: json::bool_field(v, "reached", what)?,
        terminal: json::bool_field(v, "terminal", what)?,
        reason: opt_str(v, "reason", what)?,
        steps: json::u64_field(v, "steps", what)?,
        moves: json::u64_field(v, "moves", what)?,
        rounds: json::u64_field(v, "rounds", what)?,
        max_moves_per_process: json::u64_field(v, "max_moves_per_process", what)?,
        bound_rounds: opt_u64(v, "bound_rounds", what)?,
        bound_moves: opt_u64(v, "bound_moves", what)?,
        verdict: json::str_field(v, "verdict", what)?,
    })
}

/// Parses campaign JSONL (the `ssr_campaign::output::jsonl` format).
pub fn parse_campaign_jsonl(text: &str) -> Result<Vec<CampaignRow>, String> {
    json::parse_jsonl(text)?
        .iter()
        .enumerate()
        .map(|(i, v)| campaign_row(v, &format!("record[{i}]")))
        .collect()
}

/// The fixed campaign CSV header (`ssr_campaign::output::csv`).
const CSV_COLUMNS: [&str; 23] = [
    "campaign",
    "index",
    "topology",
    "n",
    "nodes",
    "edges",
    "max_degree",
    "diameter",
    "algorithm",
    "daemon",
    "init",
    "trial",
    "seed",
    "reached",
    "terminal",
    "reason",
    "steps",
    "moves",
    "rounds",
    "max_moves_per_process",
    "bound_rounds",
    "bound_moves",
    "verdict",
];

/// Splits one CSV record with RFC-4180 quoting (`""` escapes a quote
/// inside a quoted field). The writer never emits embedded newlines
/// in practice, so records are lines.
fn split_csv(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => fields.push(std::mem::take(&mut field)),
            c => field.push(c),
        }
    }
    fields.push(field);
    fields
}

/// Parses campaign CSV (the `ssr_campaign::output::csv` format,
/// header required).
pub fn parse_campaign_csv(text: &str) -> Result<Vec<CampaignRow>, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty CSV document")?;
    let cols = split_csv(header);
    if cols != CSV_COLUMNS {
        return Err(format!("unexpected CSV header: {header:?}"));
    }
    let mut out = Vec::new();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let what = format!("row {}", i + 1);
        let fields = split_csv(line);
        if fields.len() != CSV_COLUMNS.len() {
            return Err(format!(
                "{what}: {} fields, expected {}",
                fields.len(),
                CSV_COLUMNS.len()
            ));
        }
        let u = |idx: usize| -> Result<u64, String> {
            fields[idx]
                .parse::<u64>()
                .map_err(|_| format!("{what}: field {} is not an integer", CSV_COLUMNS[idx]))
        };
        let b = |idx: usize| -> Result<bool, String> {
            fields[idx]
                .parse::<bool>()
                .map_err(|_| format!("{what}: field {} is not a boolean", CSV_COLUMNS[idx]))
        };
        let opt = |idx: usize| -> Result<Option<u64>, String> {
            if fields[idx].is_empty() {
                Ok(None)
            } else {
                u(idx).map(Some)
            }
        };
        out.push(CampaignRow {
            campaign: fields[0].clone(),
            index: u(1)?,
            topology: fields[2].clone(),
            n: u(3)?,
            nodes: u(4)?,
            edges: u(5)?,
            max_degree: u(6)?,
            diameter: u(7)?,
            algorithm: fields[8].clone(),
            daemon: fields[9].clone(),
            init: fields[10].clone(),
            trial: u(11)?,
            seed: u(12)?,
            reached: b(13)?,
            terminal: b(14)?,
            reason: (!fields[15].is_empty()).then(|| fields[15].clone()),
            steps: u(16)?,
            moves: u(17)?,
            rounds: u(18)?,
            max_moves_per_process: u(19)?,
            bound_rounds: opt(20)?,
            bound_moves: opt(21)?,
            verdict: fields[22].clone(),
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// ssr-metrics-v1
// ---------------------------------------------------------------------

/// One metric value from an `ssr-metrics-v1` snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter.
    Counter(u64),
    /// A gauge with its extrema and last sample.
    Gauge {
        /// Smallest sampled value.
        min: u64,
        /// Largest sampled value.
        max: u64,
        /// Last sampled value.
        last: u64,
    },
    /// A power-of-two-bucket histogram.
    Histogram {
        /// Number of recorded values.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
        /// Smallest recorded value.
        min: u64,
        /// Largest recorded value.
        max: u64,
        /// Non-empty buckets as `(inclusive_upper_bound, count)`.
        buckets: Vec<(u64, u64)>,
    },
}

/// A parsed `ssr-metrics-v1` snapshot, keys in document (sorted)
/// order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsDoc {
    /// `(key, value)` pairs.
    pub metrics: Vec<(String, MetricValue)>,
}

impl MetricsDoc {
    /// The metric under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Sum of histogram `key` (0 when absent or not a histogram).
    pub fn histogram_sum(&self, key: &str) -> u64 {
        match self.get(key) {
            Some(MetricValue::Histogram { sum, .. }) => *sum,
            _ => 0,
        }
    }
}

/// Parses (and thereby validates) an `ssr-metrics-v1` snapshot.
pub fn parse_metrics_json(text: &str) -> Result<MetricsDoc, String> {
    let root = json::parse(text)?;
    let schema = json::str_field(&root, "schema", "document")?;
    if schema != "ssr-metrics-v1" {
        return Err(format!("schema is `{schema}`, expected `ssr-metrics-v1`"));
    }
    let metrics = json::field(&root, "metrics", "document")?;
    let members = json::obj(metrics, "document.metrics")?;
    let mut out = Vec::with_capacity(members.len());
    for (key, m) in members {
        let what = format!("metrics[{key:?}]");
        let value = match json::str_field(m, "type", &what)?.as_str() {
            "counter" => MetricValue::Counter(json::u64_field(m, "value", &what)?),
            "gauge" => MetricValue::Gauge {
                min: json::u64_field(m, "min", &what)?,
                max: json::u64_field(m, "max", &what)?,
                last: json::u64_field(m, "last", &what)?,
            },
            "histogram" => {
                let mut buckets = Vec::new();
                for (i, pair) in json::arr(
                    json::field(m, "buckets", &what)?,
                    &format!("{what}.buckets"),
                )?
                .iter()
                .enumerate()
                {
                    let bwhat = format!("{what}.buckets[{i}]");
                    let pair = json::arr(pair, &bwhat)?;
                    if pair.len() != 2 {
                        return Err(format!("{bwhat} must be a [upper_bound, count] pair"));
                    }
                    let le = pair[0]
                        .as_u64()
                        .ok_or_else(|| format!("{bwhat}[0] must be an unsigned integer"))?;
                    let c = pair[1]
                        .as_u64()
                        .ok_or_else(|| format!("{bwhat}[1] must be an unsigned integer"))?;
                    buckets.push((le, c));
                }
                MetricValue::Histogram {
                    count: json::u64_field(m, "count", &what)?,
                    sum: json::u64_field(m, "sum", &what)?,
                    min: json::u64_field(m, "min", &what)?,
                    max: json::u64_field(m, "max", &what)?,
                    buckets,
                }
            }
            other => {
                return Err(format!(
                    "{what}.type `{other}` is not counter|gauge|histogram"
                ))
            }
        };
        out.push((key.clone(), value));
    }
    Ok(MetricsDoc { metrics: out })
}

// ---------------------------------------------------------------------
// Trace JSONL (DESIGN.md §10)
// ---------------------------------------------------------------------

/// One trace event row (the union of the §10 event fields; absent
/// fields are `None`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceRow {
    /// Event discriminator (`step-started`, `moves-applied`, …).
    pub event: String,
    /// Step index, for per-step events.
    pub step: Option<u64>,
    /// Enabled-set size.
    pub enabled: Option<u64>,
    /// Moves applied this step (or total, for `run-ended`).
    pub moves: Option<u64>,
    /// Rounds completed (or total, for `run-ended`).
    pub rounds: Option<u64>,
    /// Total steps (for `run-ended`).
    pub steps: Option<u64>,
    /// Phase name (for `phase-timed`).
    pub phase: Option<String>,
    /// Phase wall time in nanoseconds (for `phase-timed`).
    pub nanos: Option<u64>,
    /// Termination reason (for `run-ended`).
    pub reason: Option<String>,
}

/// Parses a trace JSONL file; every line is also validated against the
/// §10 event schema via [`ssr_obs::trace::validate_jsonl_line`].
pub fn parse_trace_jsonl(text: &str) -> Result<Vec<TraceRow>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        ssr_obs::trace::validate_jsonl_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let v = json::parse(line.trim()).map_err(|e| format!("line {}: {e}", i + 1))?;
        let opt = |key: &str| v.get(key).and_then(Value::as_u64);
        out.push(TraceRow {
            event: v
                .get("event")
                .and_then(Value::as_str)
                .expect("validated above")
                .to_string(),
            step: opt("step"),
            enabled: opt("enabled"),
            moves: opt("moves"),
            rounds: opt("rounds"),
            steps: opt("steps"),
            phase: v.get("phase").and_then(Value::as_str).map(str::to_string),
            nanos: opt("nanos"),
            reason: v.get("reason").and_then(Value::as_str).map(str::to_string),
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// BENCH_RESULTS.json (ssr-bench-results/v1)
// ---------------------------------------------------------------------

/// One experiment group of a `BENCH_RESULTS.json` document.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchGroup {
    /// Group id (`E1+E2`, …).
    pub id: String,
    /// Human claim title.
    pub title: String,
    /// Swept sizes.
    pub sizes: Vec<u64>,
    /// Headline rounds KPI.
    pub rounds: u64,
    /// Headline moves KPI.
    pub moves: u64,
    /// Headline closed-form bound.
    pub bound: u64,
    /// `pass` / `fail`.
    pub verdict: String,
}

/// A parsed `ssr-bench-results/v1` document.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResultsDoc {
    /// `quick` or `full`.
    pub profile: String,
    /// Whether every group passed.
    pub all_pass: bool,
    /// The experiment groups, in document order.
    pub groups: Vec<BenchGroup>,
}

/// Parses (and thereby validates) a `BENCH_RESULTS.json` document.
pub fn parse_bench_results(text: &str) -> Result<BenchResultsDoc, String> {
    let root = json::parse(text)?;
    let schema = json::str_field(&root, "schema", "document")?;
    if schema != "ssr-bench-results/v1" {
        return Err(format!(
            "schema is `{schema}`, expected `ssr-bench-results/v1`"
        ));
    }
    let mut groups = Vec::new();
    for (i, g) in json::arr(json::field(&root, "groups", "document")?, "groups")?
        .iter()
        .enumerate()
    {
        let what = format!("groups[{i}]");
        let sizes = json::arr(json::field(g, "sizes", &what)?, &format!("{what}.sizes"))?
            .iter()
            .enumerate()
            .map(|(j, s)| {
                s.as_u64()
                    .ok_or_else(|| format!("{what}.sizes[{j}] must be an unsigned integer"))
            })
            .collect::<Result<Vec<u64>, String>>()?;
        groups.push(BenchGroup {
            id: json::str_field(g, "id", &what)?,
            title: json::str_field(g, "title", &what)?,
            sizes,
            rounds: json::u64_field(g, "rounds", &what)?,
            moves: json::u64_field(g, "moves", &what)?,
            bound: json::u64_field(g, "bound", &what)?,
            verdict: json::str_field(g, "verdict", &what)?,
        });
    }
    Ok(BenchResultsDoc {
        profile: json::str_field(&root, "profile", "document")?,
        all_pass: json::bool_field(&root, "all_pass", "document")?,
        groups,
    })
}

// ---------------------------------------------------------------------
// BENCH_SCALE.json (bench-scale-v3)
// ---------------------------------------------------------------------

/// One measured cell of a `bench-scale-v3` sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleRun {
    /// Topology (`ring` / `torus`).
    pub topology: String,
    /// Node count.
    pub n: u64,
    /// Intra-run thread count.
    pub threads: u64,
    /// Steps to convergence.
    pub steps: u64,
    /// Moves to convergence.
    pub moves: u64,
    /// Rounds to convergence.
    pub rounds: u64,
    /// Wall time of the measured run.
    pub seconds: f64,
    /// Steps per second.
    pub steps_per_sec: f64,
    /// Moves per second.
    pub moves_per_sec: f64,
    /// Whether the run converged within the bound.
    pub converged: bool,
    /// Select-phase wall nanos.
    pub phase_select_nanos: u64,
    /// Apply-phase wall nanos.
    pub phase_apply_nanos: u64,
    /// Guards-phase wall nanos.
    pub phase_guards_nanos: u64,
    /// Steps on which the parallel apply kernel engaged.
    pub apply_par_steps: u64,
    /// Steps on which the parallel guards kernel engaged.
    pub guards_par_steps: u64,
}

impl ScaleRun {
    /// The `(topology, n, threads)` cell key.
    pub fn cell(&self) -> String {
        format!("{}/n={}/t={}", self.topology, self.n, self.threads)
    }
}

/// A parsed `bench-scale-v3` document.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleDoc {
    /// Whether this was a `--smoke` run.
    pub smoke: bool,
    /// The measured cells, in document order.
    pub runs: Vec<ScaleRun>,
}

/// Parses (and thereby validates) a `bench-scale-v3` document, the
/// `BENCH_SCALE.json` the `scale` bin writes. Rejects every other
/// schema by name, the retired `bench-scale-v1` with a pointer to the
/// `scale` bin.
pub fn parse_scale_json(text: &str) -> Result<ScaleDoc, String> {
    let root = json::parse(text)?;
    let schema = json::str_field(&root, "schema", "document")?;
    if schema == "bench-scale-v1" {
        return Err(
            "schema is `bench-scale-v1` (no phase/kernel metrics) — re-run the `scale` bin to \
             regenerate a `bench-scale-v3` file"
                .to_string(),
        );
    }
    if schema != "bench-scale-v3" {
        return Err(format!("schema is `{schema}`, expected `bench-scale-v3`"));
    }
    let mut runs = Vec::new();
    for (i, r) in json::arr(json::field(&root, "runs", "document")?, "runs")?
        .iter()
        .enumerate()
    {
        let what = format!("runs[{i}]");
        let phase = json::field(r, "phase_nanos", &what)?;
        let pwhat = format!("{what}.phase_nanos");
        let kernel = json::field(r, "kernel_par_steps", &what)?;
        let kwhat = format!("{what}.kernel_par_steps");
        runs.push(ScaleRun {
            topology: json::str_field(r, "topology", &what)?,
            n: json::u64_field(r, "n", &what)?,
            threads: json::u64_field(r, "threads", &what)?,
            steps: json::u64_field(r, "steps", &what)?,
            moves: json::u64_field(r, "moves", &what)?,
            rounds: json::u64_field(r, "rounds", &what)?,
            seconds: json::num_field(r, "seconds", &what)?,
            steps_per_sec: json::num_field(r, "steps_per_sec", &what)?,
            moves_per_sec: json::num_field(r, "moves_per_sec", &what)?,
            converged: json::bool_field(r, "converged", &what)?,
            phase_select_nanos: json::u64_field(phase, "select", &pwhat)?,
            phase_apply_nanos: json::u64_field(phase, "apply", &pwhat)?,
            phase_guards_nanos: json::u64_field(phase, "guards", &pwhat)?,
            apply_par_steps: json::u64_field(kernel, "apply", &kwhat)?,
            guards_par_steps: json::u64_field(kernel, "guards", &kwhat)?,
        });
    }
    Ok(ScaleDoc {
        smoke: json::bool_field(&root, "smoke", "document")?,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROW: &str = r#"{"campaign":"c","index":3,"topology":"ring","n":8,"nodes":8,"edges":8,"max_degree":2,"diameter":4,"algorithm":"unison-sdr","daemon":"central","init":"arbitrary","trial":1,"seed":18446744073709551615,"reached":true,"terminal":true,"reason":"terminal","steps":10,"moves":12,"rounds":5,"max_moves_per_process":3,"bound_rounds":24,"bound_moves":null,"verdict":"pass"}"#;

    #[test]
    fn campaign_jsonl_row_parses_with_exact_seed() {
        let rows = parse_campaign_jsonl(&format!("{ROW}\n{ROW}\n")).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].seed, u64::MAX);
        assert_eq!(rows[0].bound_rounds, Some(24));
        assert_eq!(rows[0].bound_moves, None);
        assert_eq!(rows[0].reason.as_deref(), Some("terminal"));
    }

    #[test]
    fn campaign_jsonl_rejects_missing_keys() {
        let err = parse_campaign_jsonl("{\"campaign\":\"c\"}\n").unwrap_err();
        assert!(err.contains("missing key"), "{err}");
    }

    #[test]
    fn csv_quoted_fields_round_trip() {
        let text = "campaign,index,topology,n,nodes,edges,max_degree,diameter,algorithm,daemon,\
                    init,trial,seed,reached,terminal,reason,steps,moves,rounds,\
                    max_moves_per_process,bound_rounds,bound_moves,verdict\n\
                    c,0,ring,8,8,8,2,4,\"fga:domination(1,0)\",central,arbitrary,1,7,true,true,,1,2,3,1,,,no-bound\n";
        let rows = parse_campaign_csv(text).unwrap();
        assert_eq!(rows[0].algorithm, "fga:domination(1,0)");
        assert_eq!(rows[0].reason, None);
        assert_eq!(rows[0].bound_rounds, None);
        assert_eq!(rows[0].verdict, "no-bound");
    }

    #[test]
    fn metrics_snapshot_parses() {
        let doc = parse_metrics_json(
            "{\"schema\":\"ssr-metrics-v1\",\"metrics\":{\
             \"a\":{\"type\":\"counter\",\"value\":3},\
             \"g\":{\"type\":\"gauge\",\"min\":1,\"max\":9,\"last\":4},\
             \"h\":{\"type\":\"histogram\",\"count\":2,\"sum\":5,\"min\":2,\"max\":3,\
             \"buckets\":[[3,2]]}}}",
        )
        .unwrap();
        assert_eq!(doc.get("a"), Some(&MetricValue::Counter(3)));
        assert_eq!(doc.histogram_sum("h"), 5);
        assert!(parse_metrics_json("{\"schema\":\"nope\",\"metrics\":{}}").is_err());
    }

    #[test]
    fn trace_rows_parse_and_validate() {
        let rows = parse_trace_jsonl(
            "{\"event\":\"step-started\",\"step\":0,\"enabled\":3}\n\
             {\"event\":\"run-ended\",\"steps\":5,\"moves\":6,\"rounds\":2,\"reason\":\"terminal\"}\n",
        )
        .unwrap();
        assert_eq!(rows[0].event, "step-started");
        assert_eq!(rows[1].reason.as_deref(), Some("terminal"));
        assert!(parse_trace_jsonl("{\"event\":\"mystery\"}\n").is_err());
    }

    #[test]
    fn scale_v1_is_rejected_with_a_pointer() {
        let err =
            parse_scale_json("{\"schema\": \"bench-scale-v1\", \"smoke\": false, \"runs\": []}")
                .unwrap_err();
        assert!(err.contains("re-run"), "{err}");
    }

    #[test]
    fn scale_v3_parses() {
        let doc = parse_scale_json(
            "{\"schema\": \"bench-scale-v3\", \"smoke\": true, \"runs\": [\
             {\"topology\":\"ring\",\"n\":100,\"threads\":2,\"steps\":5,\"moves\":9,\
             \"rounds\":5,\"seconds\":0.5,\"steps_per_sec\":10.0,\"moves_per_sec\":18.0,\
             \"converged\":true,\
             \"phase_nanos\":{\"select\":1,\"apply\":2,\"guards\":3},\
             \"kernel_par_steps\":{\"apply\":4,\"guards\":5}}]}",
        )
        .unwrap();
        assert!(doc.smoke);
        assert_eq!(doc.runs[0].cell(), "ring/n=100/t=2");
        assert_eq!(doc.runs[0].phase_guards_nanos, 3);
        assert_eq!(doc.runs[0].guards_par_steps, 5);
    }

    #[test]
    fn bench_results_parse() {
        let doc = parse_bench_results(
            "{\"schema\":\"ssr-bench-results/v1\",\"profile\":\"quick\",\"selection\":\"all\",\
             \"all_pass\":true,\"groups\":[{\"id\":\"E1+E2\",\"title\":\"t\",\"sizes\":[8,16],\
             \"rounds\":12,\"moves\":40,\"bound\":72,\"verdict\":\"pass\"}]}",
        )
        .unwrap();
        assert_eq!(doc.groups[0].sizes, vec![8, 16]);
        assert!(doc.all_pass);
    }
}
