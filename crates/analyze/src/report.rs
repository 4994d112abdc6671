//! `ANALYSIS.json` rendering, validation, and the human table.
//!
//! The workspace is serde-free, so the writer emits JSON by hand with
//! a fixed key order (reports are byte-stable across thread counts —
//! the CI gate `cmp`s two renderings), and [`validate_json`] checks a
//! document against the `ssr-analysis/v1` schema using the shared
//! recursive-descent parser in [`ssr_obs::json`] (which started life
//! here before moving to its one home).

use std::fmt::Write as _;

use ssr_obs::metrics::json_string;
use ssr_runtime::analysis::{Finding, GraphAnalysis, RngAudit, Severity};

use crate::{AnalysisReport, FamilyReport, SCHEMA};

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn opt_str(s: &Option<String>) -> String {
    match s {
        Some(s) => json_string(s),
        None => "null".to_string(),
    }
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"kind\":\"{}\",\"severity\":\"{}\",\"rule\":{},\"graph\":{},\"detail\":{}}}",
        f.kind.code(),
        match f.kind.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        },
        opt_str(&f.rule),
        opt_str(&f.graph),
        json_string(&f.detail),
    )
}

fn findings_json(fs: &[Finding]) -> String {
    let items: Vec<String> = fs.iter().map(finding_json).collect();
    format!("[{}]", items.join(","))
}

fn graph_json(g: &GraphAnalysis) -> String {
    let rules: Vec<String> = g
        .rules
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":{},\"enabled\":{},\"fired_first\":{},\"applies\":{},\
                 \"changed\":{},\"guard_read_dist_max\":{},\"action_read_dist_max\":{},\
                 \"guard_reads_max\":{},\"action_reads_max\":{}}}",
                json_string(&r.name),
                r.enabled,
                r.fired_first,
                r.applies,
                r.changed,
                r.guard_read_dist_max,
                r.action_read_dist_max,
                r.guard_reads_max,
                r.action_reads_max,
            )
        })
        .collect();
    let overlaps: Vec<String> = g
        .overlaps
        .iter()
        .map(|o| {
            format!(
                "{{\"a\":{},\"b\":{},\"together\":{},\"identical\":{}}}",
                o.a, o.b, o.together, o.identical
            )
        })
        .collect();
    format!(
        "{{\"graph\":{},\"nodes\":{},\"configs\":{},\"truncated\":{},\
         \"rules\":[{}],\"overlaps\":[{}],\"findings\":{}}}",
        json_string(&g.graph),
        g.nodes,
        g.configs,
        g.truncated,
        rules.join(","),
        overlaps.join(","),
        findings_json(&g.findings),
    )
}

fn audit_json(a: &RngAudit) -> String {
    format!(
        "{{\"runs\":{},\"steps\":{},\"select_draws\":{},\"apply_draws\":{},\
         \"guards_draws\":{},\"findings\":{}}}",
        a.runs,
        a.steps,
        a.select_draws,
        a.apply_draws,
        a.guards_draws,
        findings_json(&a.findings),
    )
}

fn family_json(f: &FamilyReport) -> String {
    let graphs: Vec<String> = f.graphs.iter().map(graph_json).collect();
    let skipped: Vec<String> = f.skipped.iter().map(|s| json_string(s)).collect();
    format!(
        "{{\"family\":{},\"certified\":{},\"analyzable\":{},\"errors\":{},\
         \"warnings\":{},\"skipped\":[{}],\"graphs\":[{}],\"audit\":{},\"hygiene\":{}}}",
        json_string(&f.family),
        f.certified(),
        f.analyzable,
        f.error_count(),
        f.warning_count(),
        skipped.join(","),
        graphs.join(","),
        audit_json(&f.audit),
        findings_json(&f.hygiene),
    )
}

/// Renders the report in the stable `ssr-analysis/v1` schema: fixed
/// key order, no whitespace variance, trailing newline.
pub fn to_json(report: &AnalysisReport) -> String {
    let families: Vec<String> = report.families.iter().map(family_json).collect();
    format!(
        "{{\"schema\":\"{}\",\"certified\":{},\"families\":[{}]}}\n",
        SCHEMA,
        report.certified(),
        families.join(","),
    )
}

// ---------------------------------------------------------------------
// Human table
// ---------------------------------------------------------------------

/// A fixed-width summary table plus the full finding list — what the
/// `analyze` bin prints.
pub fn human_table(report: &AnalysisReport) -> String {
    let mut out = String::new();
    let width = report
        .families
        .iter()
        .map(|f| f.family.len())
        .max()
        .unwrap_or(6)
        .max(6);
    let _ = writeln!(
        out,
        "{:<width$}  {:>6}  {:>8}  {:>6}  {:>6}  {:>8}  verdict",
        "family", "graphs", "configs", "errors", "warns", "draws"
    );
    for f in &report.families {
        let configs: usize = f.graphs.iter().map(|g| g.configs).sum();
        let _ = writeln!(
            out,
            "{:<width$}  {:>6}  {:>8}  {:>6}  {:>6}  {:>8}  {}",
            f.family,
            f.graphs.len(),
            configs,
            f.error_count(),
            f.warning_count(),
            f.audit.select_draws,
            if f.certified() {
                "certified"
            } else {
                "VIOLATIONS"
            }
        );
    }
    let mut any = false;
    for f in &report.families {
        for finding in f.findings() {
            if !any {
                let _ = writeln!(out, "\nfindings:");
                any = true;
            }
            let _ = writeln!(
                out,
                "  [{}] {} ({}): {}",
                match finding.kind.severity() {
                    Severity::Error => "error",
                    Severity::Warning => "warn ",
                },
                finding.kind.code(),
                f.family,
                finding.detail
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// Validator
// ---------------------------------------------------------------------

use ssr_obs::json::{self, Value};

fn expect_num(v: &Value, key: &str, what: &str) -> Result<f64, String> {
    json::num_field(v, key, what)
}

fn expect_bool(v: &Value, key: &str, what: &str) -> Result<bool, String> {
    json::bool_field(v, key, what)
}

fn expect_str(v: &Value, key: &str, what: &str) -> Result<String, String> {
    json::str_field(v, key, what)
}

const FINDING_CODES: &[&str] = &[
    "non-local-guard",
    "non-local-action",
    "non-commutative",
    "dead-rule",
    "shadowed-rule",
    "no-op-rule",
    "overlapping-rules",
    "disabled-rule-fired",
    "foreign-write",
    "out-of-phase-draw",
    "not-analyzable",
];

fn check_findings(v: &Value, what: &str) -> Result<usize, String> {
    let arr = json::arr(v, what)?;
    for (i, f) in arr.iter().enumerate() {
        let fwhat = format!("{what}[{i}]");
        json::obj(f, &fwhat)?;
        let kind = expect_str(f, "kind", what)?;
        if !FINDING_CODES.contains(&kind.as_str()) {
            return Err(format!(
                "{what}[{i}].kind `{kind}` is not in the vocabulary"
            ));
        }
        let sev = expect_str(f, "severity", what)?;
        if sev != "error" && sev != "warning" {
            return Err(format!("{what}[{i}].severity must be error|warning"));
        }
        expect_str(f, "detail", what)?;
    }
    Ok(arr.len())
}

/// Validates `text` against the `ssr-analysis/v1` schema: structure,
/// key presence/types, the finding vocabulary, and the consistency of
/// the `certified` roll-ups with the findings they summarize. Returns
/// the number of families on success.
pub fn validate_json(text: &str) -> Result<usize, String> {
    let root = json::parse(text)?;
    json::obj(&root, "document")?;
    let schema = expect_str(&root, "schema", "document")?;
    if schema != SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{SCHEMA}`"));
    }
    let overall = expect_bool(&root, "certified", "document")?;
    let families = json::arr(json::field(&root, "families", "document")?, "families")?;
    let mut all_certified = true;
    for (i, fam) in families.iter().enumerate() {
        let what = format!("families[{i}]");
        json::obj(fam, &what)?;
        expect_str(fam, "family", &what)?;
        let certified = expect_bool(fam, "certified", &what)?;
        expect_bool(fam, "analyzable", &what)?;
        let errors = expect_num(fam, "errors", &what)?;
        expect_num(fam, "warnings", &what)?;
        json::arr(
            json::field(fam, "skipped", &what)?,
            &format!("{what}.skipped"),
        )?;
        if certified && errors != 0.0 {
            return Err(format!("{what} is certified but reports {errors} errors"));
        }
        all_certified &= certified;
        for (j, g) in json::arr(
            json::field(fam, "graphs", &what)?,
            &format!("{what}.graphs"),
        )?
        .iter()
        .enumerate()
        {
            let gwhat = format!("{what}.graphs[{j}]");
            json::obj(g, &gwhat)?;
            expect_str(g, "graph", &gwhat)?;
            expect_num(g, "nodes", &gwhat)?;
            expect_num(g, "configs", &gwhat)?;
            expect_bool(g, "truncated", &gwhat)?;
            for (k, r) in json::arr(json::field(g, "rules", &gwhat)?, &format!("{gwhat}.rules"))?
                .iter()
                .enumerate()
            {
                let rwhat = format!("{gwhat}.rules[{k}]");
                json::obj(r, &rwhat)?;
                expect_str(r, "name", &rwhat)?;
                for key in [
                    "enabled",
                    "fired_first",
                    "applies",
                    "changed",
                    "guard_read_dist_max",
                    "action_read_dist_max",
                    "guard_reads_max",
                    "action_reads_max",
                ] {
                    expect_num(r, key, &rwhat)?;
                }
            }
            check_findings(
                json::field(g, "findings", &gwhat)?,
                &format!("{gwhat}.findings"),
            )?;
        }
        let awhat = format!("{what}.audit");
        let audit = json::field(fam, "audit", &what)?;
        json::obj(audit, &awhat)?;
        for key in [
            "runs",
            "steps",
            "select_draws",
            "apply_draws",
            "guards_draws",
        ] {
            expect_num(audit, key, &awhat)?;
        }
        check_findings(
            json::field(audit, "findings", &awhat)?,
            &format!("{awhat}.findings"),
        )?;
        check_findings(
            json::field(fam, "hygiene", &what)?,
            &format!("{what}.hygiene"),
        )?;
    }
    if overall != all_certified {
        return Err("document `certified` disagrees with its families".to_string());
    }
    Ok(families.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_family, fixtures, AnalysisReport};
    use ssr_runtime::analysis::AnalyzeOptions;

    fn fixture_report() -> AnalysisReport {
        AnalysisReport {
            families: vec![
                analyze_family(&fixtures::FarSightFamily, &AnalyzeOptions::default()),
                analyze_family(&fixtures::ShadowedPairFamily, &AnalyzeOptions::default()),
            ],
        }
    }

    #[test]
    fn rendered_report_validates_round_trip() {
        let report = fixture_report();
        let json = to_json(&report);
        assert_eq!(validate_json(&json), Ok(2));
        assert!(json.starts_with("{\"schema\":\"ssr-analysis/v1\""));
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_json("").is_err());
        assert!(validate_json("{}").is_err());
        assert!(validate_json("{\"schema\":\"nope\",\"certified\":true,\"families\":[]}").is_err());
        assert!(validate_json("{\"schema\":\"ssr-analysis/v1\",\"certified\":true").is_err());
        // A certified family reporting errors is inconsistent.
        let bad = "{\"schema\":\"ssr-analysis/v1\",\"certified\":true,\"families\":[\
                   {\"family\":\"x\",\"certified\":true,\"analyzable\":true,\"errors\":2,\
                   \"warnings\":0,\"skipped\":[],\"graphs\":[],\"audit\":{\"runs\":0,\"steps\":0,\
                   \"select_draws\":0,\"apply_draws\":0,\"guards_draws\":0,\"findings\":[]},\
                   \"hygiene\":[]}]}";
        assert!(validate_json(bad).unwrap_err().contains("certified"));
    }

    #[test]
    fn validator_rejects_unknown_finding_kinds() {
        let bad = "{\"schema\":\"ssr-analysis/v1\",\"certified\":false,\"families\":[\
                   {\"family\":\"x\",\"certified\":false,\"analyzable\":true,\"errors\":1,\
                   \"warnings\":0,\"skipped\":[],\"graphs\":[],\"audit\":{\"runs\":0,\"steps\":0,\
                   \"select_draws\":0,\"apply_draws\":0,\"guards_draws\":0,\"findings\":[]},\
                   \"hygiene\":[{\"kind\":\"mystery\",\"severity\":\"error\",\"rule\":null,\
                   \"graph\":null,\"detail\":\"?\"}]}]}";
        assert!(validate_json(bad).unwrap_err().contains("vocabulary"));
    }

    #[test]
    fn human_table_names_every_family_and_verdict() {
        let report = fixture_report();
        let table = human_table(&report);
        assert!(table.contains("fixture-far-sight"));
        assert!(table.contains("fixture-shadowed-pair"));
        assert!(table.contains("VIOLATIONS"));
        assert!(table.contains("non-local-guard"));
        assert!(table.contains("shadowed-rule"));
    }
}
