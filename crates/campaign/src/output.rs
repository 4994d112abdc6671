//! Structured-result writers (JSONL / CSV / JSON values).
//!
//! The build is offline, so there is no serde. A record writes its
//! JSON object straight into its output ([`ScenarioRecord::write_json`]),
//! which fixes the byte layout of the campaign JSONL and of the
//! checkpoint journal's records. Everything else renders through
//! [`Json`] — the workspace's one JSON value type,
//! [`ssr_obs::json::Value`], whose deterministic `Display` (insertion
//! ordered keys, shortest round-trip floats) fixes the layout of the
//! experiment harness's `BENCH_`-style result files. Both share one
//! string escaper, `ssr_obs::json::write_string`, and give the same
//! bytes for a record.

use ssr_obs::json::{write_string, write_u64};

use crate::runner::ScenarioRecord;

/// The JSON value the writers render (the parser's [`Value`] type;
/// the name is kept for the writers' callers).
///
/// [`Value`]: ssr_obs::json::Value
pub use ssr_obs::json::Value as Json;

impl ScenarioRecord {
    /// Writes the record as one JSON object (one JSONL line's worth,
    /// without the newline) straight into `out`: keys are literals,
    /// strings go through the one JSON escaper and integers through
    /// `write_u64`, so a record costs no `Value` and no allocation.
    /// The keys come in field order and an absent reason or bound is
    /// `null`; `checkpoint::record_from_json` reads the object back.
    pub fn write_json(&self, out: &mut String) {
        put_str(out, "{\"campaign\":", &self.campaign);
        put_u64(out, ",\"index\":", self.index as u64);
        put_str(out, ",\"topology\":", &self.topology);
        put_u64(out, ",\"n\":", self.n as u64);
        put_u64(out, ",\"nodes\":", self.nodes);
        put_u64(out, ",\"edges\":", self.edges);
        put_u64(out, ",\"max_degree\":", self.max_degree);
        put_u64(out, ",\"diameter\":", self.diameter);
        put_str(out, ",\"algorithm\":", &self.algorithm);
        put_str(out, ",\"daemon\":", &self.daemon);
        put_str(out, ",\"init\":", &self.init);
        put_u64(out, ",\"trial\":", self.trial);
        put_u64(out, ",\"seed\":", self.seed);
        put_bool(out, ",\"reached\":", self.reached);
        put_bool(out, ",\"terminal\":", self.terminal);
        match self.reason {
            Some(r) => put_str(out, ",\"reason\":", r.as_str()),
            None => out.push_str(",\"reason\":null"),
        }
        put_u64(out, ",\"steps\":", self.steps);
        put_u64(out, ",\"moves\":", self.moves);
        put_u64(out, ",\"rounds\":", self.rounds);
        put_u64(
            out,
            ",\"max_moves_per_process\":",
            self.max_moves_per_process,
        );
        put_opt(out, ",\"bound_rounds\":", self.bound_rounds);
        put_opt(out, ",\"bound_moves\":", self.bound_moves);
        put_str(out, ",\"verdict\":", self.verdict.as_str());
        out.push('}');
    }
}

// The record writer's members: `key` is the literal that precedes the
// value, punctuation included (`,"n":`). Writing into a `String`
// cannot fail, so the `fmt::Result`s are dropped.

fn put_str(out: &mut String, key: &str, v: &str) {
    out.push_str(key);
    let _ = write_string(out, v);
}

fn put_u64(out: &mut String, key: &str, v: u64) {
    out.push_str(key);
    let _ = write_u64(out, v);
}

fn put_opt(out: &mut String, key: &str, v: Option<u64>) {
    match v {
        Some(v) => put_u64(out, key, v),
        None => {
            out.push_str(key);
            out.push_str("null");
        }
    }
}

fn put_bool(out: &mut String, key: &str, v: bool) {
    out.push_str(key);
    out.push_str(if v { "true" } else { "false" });
}

/// Serializes records as JSON Lines (one object per line, grid order).
pub fn jsonl(records: &[ScenarioRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        rec.write_json(&mut out);
        out.push('\n');
    }
    out
}

const CSV_HEADER: &str = "campaign,index,topology,n,nodes,edges,max_degree,diameter,algorithm,\
                          daemon,init,trial,seed,reached,terminal,reason,steps,moves,rounds,\
                          max_moves_per_process,bound_rounds,bound_moves,verdict";

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
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
        assert_eq!(
            csv_field("a\rb"),
            "\"a\rb\"",
            "a bare CR is a line break to other readers"
        );
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
