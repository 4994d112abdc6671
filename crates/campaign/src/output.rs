//! Structured-result writers (JSONL / CSV / JSON values).
//!
//! The build is offline, so instead of serde the records render
//! through [`Json`] — the workspace's one JSON value type,
//! [`ssr_obs::json::Value`], whose deterministic `Display` (insertion
//! ordered keys, shortest round-trip floats) fixes the byte layout of
//! the campaign records, the checkpoint journal and the experiment
//! harness's `BENCH_`-style result files.

use crate::runner::ScenarioRecord;

/// The JSON value the writers render (the parser's [`Value`] type;
/// the name is kept for the writers' callers).
///
/// [`Value`]: ssr_obs::json::Value
pub use ssr_obs::json::Value as Json;

fn opt_u64(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::U64)
}

impl ScenarioRecord {
    /// The record as a JSON object (one JSONL line's worth).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("campaign", Json::str(&self.campaign)),
            ("index", Json::U64(self.index as u64)),
            ("topology", Json::str(&self.topology)),
            ("n", Json::U64(self.n as u64)),
            ("nodes", Json::U64(self.nodes)),
            ("edges", Json::U64(self.edges)),
            ("max_degree", Json::U64(self.max_degree)),
            ("diameter", Json::U64(self.diameter)),
            ("algorithm", Json::str(&self.algorithm)),
            ("daemon", Json::str(&self.daemon)),
            ("init", Json::str(&self.init)),
            ("trial", Json::U64(self.trial)),
            ("seed", Json::U64(self.seed)),
            ("reached", Json::Bool(self.reached)),
            ("terminal", Json::Bool(self.terminal)),
            (
                "reason",
                self.reason.map_or(Json::Null, |r| Json::str(r.to_string())),
            ),
            ("steps", Json::U64(self.steps)),
            ("moves", Json::U64(self.moves)),
            ("rounds", Json::U64(self.rounds)),
            (
                "max_moves_per_process",
                Json::U64(self.max_moves_per_process),
            ),
            ("bound_rounds", opt_u64(self.bound_rounds)),
            ("bound_moves", opt_u64(self.bound_moves)),
            ("verdict", Json::str(self.verdict.to_string())),
        ])
    }
}

/// Serializes records as JSON Lines (one object per line, grid order).
pub fn jsonl(records: &[ScenarioRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&rec.to_json().to_string());
        out.push('\n');
    }
    out
}

const CSV_HEADER: &str = "campaign,index,topology,n,nodes,edges,max_degree,diameter,algorithm,\
                          daemon,init,trial,seed,reached,terminal,reason,steps,moves,rounds,\
                          max_moves_per_process,bound_rounds,bound_moves,verdict";

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serializes records as CSV with a header row (RFC-4180 quoting).
pub fn csv(records: &[ScenarioRecord]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in records {
        let fields: Vec<String> = vec![
            csv_field(&r.campaign),
            r.index.to_string(),
            csv_field(&r.topology),
            r.n.to_string(),
            r.nodes.to_string(),
            r.edges.to_string(),
            r.max_degree.to_string(),
            r.diameter.to_string(),
            csv_field(&r.algorithm),
            csv_field(&r.daemon),
            csv_field(&r.init),
            r.trial.to_string(),
            r.seed.to_string(),
            r.reached.to_string(),
            r.terminal.to_string(),
            r.reason.map(|v| v.to_string()).unwrap_or_default(),
            r.steps.to_string(),
            r.moves.to_string(),
            r.rounds.to_string(),
            r.max_moves_per_process.to_string(),
            r.bound_rounds.map(|v| v.to_string()).unwrap_or_default(),
            r.bound_moves.map(|v| v.to_string()).unwrap_or_default(),
            r.verdict.to_string(),
        ];
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Verdict;

    #[test]
    fn json_escaping() {
        let render = |s: &str| Json::str(s).to_string();
        assert_eq!(render("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(render("\u{1}"), "\"\\u0001\"");
        assert_eq!(render("plain"), "\"plain\"");
    }

    #[test]
    fn json_rendering() {
        let v = Json::obj([
            ("s", Json::str("x\"y")),
            ("n", Json::U64(3)),
            ("f", Json::F64(1.5)),
            ("nan", Json::F64(f64::NAN)),
            ("a", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"s":"x\"y","n":3,"f":1.5,"nan":null,"a":[true,null]}"#
        );
    }

    #[test]
    fn jsonl_one_line_per_record() {
        let mut rec = crate::test_support::record("ring", 8);
        rec.bound_rounds = Some(24);
        rec.verdict = Verdict::Pass;
        let text = jsonl(&[rec.clone(), rec]);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"bound_rounds\":24"));
            assert!(line.contains("\"verdict\":\"pass\""));
        }
    }

    #[test]
    fn csv_quotes_commas() {
        let mut rec = crate::test_support::record("ring", 8);
        rec.algorithm = "fga:domination(1,0)".into();
        let text = csv(&[rec]);
        let mut lines = text.lines();
        assert!(lines.next().unwrap().starts_with("campaign,index,topology"));
        let row = lines.next().unwrap();
        assert!(row.contains("\"fga:domination(1,0)\""));
        // Header and row have the same arity (quoted comma not split).
        let arity = |line: &str| {
            let mut in_quotes = false;
            let mut count = 1;
            for c in line.chars() {
                match c {
                    '"' => in_quotes = !in_quotes,
                    ',' if !in_quotes => count += 1,
                    _ => {}
                }
            }
            count
        };
        assert_eq!(arity(CSV_HEADER), arity(row));
    }
}
