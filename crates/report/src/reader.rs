//! Typed readers for the artifacts the stack writes that `ssr-obs`
//! does not read itself: campaign JSONL/CSV, `BENCH_RESULTS.json`
//! (`ssr-bench-results/v1`), and `BENCH_SCALE.json`
//! (`bench-scale-v3`). `ssr-metrics-v1` snapshots and trace JSONL
//! (`DESIGN.md` §10) are read next to their writers, into the writers'
//! own types: `ssr_obs::MetricsSet::from_json` and
//! `ssr_obs::trace::parse_event`.
//!
//! Every reader is the exact inverse of a hand-rolled writer elsewhere
//! in the workspace, built on the shared recursive-descent parser in
//! [`ssr_obs::json`]; proptests in `tests/reader_roundtrip.rs` pin the
//! campaign round trips against the live writers. Readers validate as
//! they parse — a file that parses is also schema-conformant.

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

/// How a campaign CSV field reads into the JSON value the JSONL writer
/// gives the same column: an empty optional field is `null`.
#[derive(Clone, Copy)]
enum Cell {
    Str,
    Int,
    Bool,
    OptStr,
    OptInt,
}

/// The fixed campaign CSV header (`ssr_campaign::output::csv`), with
/// each column's [`Cell`].
const CSV_COLUMNS: [(&str, Cell); 23] = [
    ("campaign", Cell::Str),
    ("index", Cell::Int),
    ("topology", Cell::Str),
    ("n", Cell::Int),
    ("nodes", Cell::Int),
    ("edges", Cell::Int),
    ("max_degree", Cell::Int),
    ("diameter", Cell::Int),
    ("algorithm", Cell::Str),
    ("daemon", Cell::Str),
    ("init", Cell::Str),
    ("trial", Cell::Int),
    ("seed", Cell::Int),
    ("reached", Cell::Bool),
    ("terminal", Cell::Bool),
    ("reason", Cell::OptStr),
    ("steps", Cell::Int),
    ("moves", Cell::Int),
    ("rounds", Cell::Int),
    ("max_moves_per_process", Cell::Int),
    ("bound_rounds", Cell::OptInt),
    ("bound_moves", Cell::OptInt),
    ("verdict", Cell::Str),
];

/// Splits `text` into RFC-4180 records of fields: `""` escapes a
/// quote inside a quoted field (the second `"` falls through as data),
/// and a quoted field may hold `,`, `\n` and `\r`. A record ends at
/// `\n` or `\r\n` outside quotes; any other `\r` is data.
fn csv_records(text: &str) -> Vec<Vec<String>> {
    let mut records = Vec::new();
    let (mut record, mut field) = (Vec::new(), String::new());
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if !in_quotes => in_quotes = true,
            '"' if chars.next_if_eq(&'"').is_none() => in_quotes = false,
            ',' if !in_quotes => record.push(std::mem::take(&mut field)),
            '\r' if !in_quotes && chars.peek() == Some(&'\n') => {}
            '\n' if !in_quotes => {
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
            }
            c => field.push(c),
        }
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    records
}

/// Parses campaign CSV (the `ssr_campaign::output::csv` format,
/// header required). Each row becomes the object its JSONL line holds
/// and is read like one. Blank records are skipped; errors count
/// records from the header's 1.
pub fn parse_campaign_csv(text: &str) -> Result<Vec<CampaignRow>, String> {
    let mut records = csv_records(text).into_iter().enumerate();
    let (_, header) = records.next().ok_or("empty CSV document")?;
    if !header
        .iter()
        .map(String::as_str)
        .eq(CSV_COLUMNS.map(|(col, _)| col))
    {
        return Err(format!("unexpected CSV header: {header:?}"));
    }
    let mut out = Vec::new();
    for (i, fields) in records {
        if matches!(fields.as_slice(), [only] if only.trim().is_empty()) {
            continue;
        }
        let what = format!("row {}", i + 1);
        if fields.len() != CSV_COLUMNS.len() {
            return Err(format!(
                "{what}: {} fields, expected {}",
                fields.len(),
                CSV_COLUMNS.len()
            ));
        }
        let mut members = Vec::with_capacity(fields.len());
        for ((col, cell), field) in CSV_COLUMNS.into_iter().zip(fields) {
            let bad = |kind: &str| format!("{what}: field {col} is not {kind}");
            let value = match cell {
                Cell::OptStr | Cell::OptInt if field.is_empty() => Value::Null,
                Cell::Int | Cell::OptInt => {
                    Value::U64(field.parse().map_err(|_| bad("an integer"))?)
                }
                Cell::Bool => Value::Bool(field.parse().map_err(|_| bad("a boolean"))?),
                Cell::Str | Cell::OptStr => Value::Str(field),
            };
            members.push((col.to_string(), value));
        }
        out.push(campaign_row(&Value::Obj(members), &what)?);
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
                    \"c\r\n\"\"d\"\"\",0,ring,8,8,8,2,4,\"fga:domination(1,0)\",central,arbitrary,1,7,true,true,,1,2,3,1,,,no-bound\r\n";
        let rows = parse_campaign_csv(text).unwrap();
        assert_eq!(rows[0].campaign, "c\r\n\"d\"");
        assert_eq!(rows[0].algorithm, "fga:domination(1,0)");
        assert_eq!(rows[0].reason, None);
        assert_eq!(rows[0].bound_rounds, None);
        assert_eq!(rows[0].verdict, "no-bound");
    }

    /// The report reads trace JSONL through `ssr_obs::trace::parse_events`
    /// (see `html::load_dir`), into the runtime's own `TraceEvent`s.
    #[test]
    fn trace_rows_parse_and_validate() {
        use ssr_obs::trace::parse_events;
        use ssr_obs::TraceEvent;
        use ssr_runtime::TerminationReason;

        let events = parse_events(
            "{\"event\":\"step-started\",\"step\":0,\"enabled\":3}\n\
             {\"event\":\"run-ended\",\"steps\":5,\"moves\":6,\"rounds\":2,\"reason\":\"terminal\"}\n",
        )
        .unwrap();
        assert_eq!(
            events,
            [
                TraceEvent::StepStarted {
                    step: 0,
                    enabled: 3
                },
                TraceEvent::RunEnded {
                    steps: 5,
                    moves: 6,
                    rounds: 2,
                    reason: TerminationReason::Terminal,
                },
            ]
        );
        assert!(parse_events("{\"event\":\"mystery\"}\n").is_err());
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
