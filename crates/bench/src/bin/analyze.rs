//! The registry-wide soundness gate (`DESIGN.md` §11): certifies every
//! standard family against the pipeline's three assumptions — locality,
//! non-adjacent commutativity, and select-phase RNG discipline — plus
//! the rule-table hygiene lints, and emits the machine-readable
//! `ANALYSIS.json` report.
//!
//! Usage:
//!
//! ```text
//! cargo run -p ssr-bench --bin analyze --               # gate standard families
//! cargo run -p ssr-bench --bin analyze -- --out ANALYSIS.json
//! cargo run -p ssr-bench --bin analyze -- --fixtures    # self-test on planted violations
//! cargo run -p ssr-bench --bin analyze -- --validate ANALYSIS.json
//! cargo run -p ssr-bench --bin analyze -- --threads 4
//! ```
//!
//! The default mode analyzes [`ssr_campaign::families::standard_families`]
//! and exits nonzero unless **every** label certifies clean (warnings
//! are reported but do not fail the gate). `--fixtures` inverts the
//! contract: it analyzes the planted-violation families shipped with
//! `ssr-analyze` and exits nonzero unless *every* defect is flagged —
//! if the analyzer ever goes blind, CI catches the gate itself
//! regressing. `--validate` re-parses an emitted report against the
//! `ssr-analysis/v1` schema. The report is byte-identical at any
//! `--threads` value.

use std::process::ExitCode;
use std::sync::Arc;

use ssr_analyze::analysis::{AnalyzeOptions, FindingKind};
use ssr_analyze::fixtures::{FarLegitFamily, FarSightFamily, ShadowedPairFamily};
use ssr_analyze::{analyze_registry, human_table, to_json, validate_json};
use ssr_campaign::families::standard_families;
use ssr_runtime::family::FamilyRegistry;

struct Args {
    fixtures: bool,
    out: Option<String>,
    validate: Option<String>,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        fixtures: false,
        out: None,
        validate: None,
        threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fixtures" => args.fixtures = true,
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "--validate" => args.validate = Some(it.next().ok_or("--validate needs a path")?),
            "--threads" => {
                args.threads = it
                    .next()
                    .ok_or("--threads needs a count")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: analyze [--fixtures] [--out FILE] [--validate FILE] \
                     [--threads N]"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// `--validate FILE`: re-parse an emitted report against the schema.
fn validate_mode(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("analyze: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match validate_json(&text) {
        Ok(families) => {
            println!(
                "{path}: valid {} report, {families} families",
                ssr_analyze::SCHEMA
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("analyze: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--fixtures`: the gate's self-test. Exits nonzero unless every
/// planted violation is flagged as an error: a distance-2 guard, a
/// local mask with a distance-2 legitimacy term, and a shadowed rule.
fn fixtures_mode(opts: &AnalyzeOptions, threads: usize) -> ExitCode {
    let mut registry = FamilyRegistry::new();
    registry.register(Arc::new(FarSightFamily));
    registry.register(Arc::new(FarLegitFamily));
    registry.register(Arc::new(ShadowedPairFamily));
    let report = analyze_registry(&registry, opts, threads);
    print!("{}", human_table(&report));
    let caught = |family: &str, kind: FindingKind| {
        report
            .families
            .iter()
            .any(|f| f.family == family && f.findings().any(|x| x.kind == kind))
    };
    let far_sight_caught = caught("fixture-far-sight", FindingKind::NonLocalGuard);
    let far_legit_caught = caught("fixture-far-legit", FindingKind::NonLocalGuard);
    let shadowed_caught = caught("fixture-shadowed-pair", FindingKind::ShadowedRule);
    if far_sight_caught && far_legit_caught && shadowed_caught && !report.certified() {
        println!("self-test ok: all three planted violations flagged");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "analyze: self-test FAILED (far-sight caught: {far_sight_caught}, \
             far-legit caught: {far_legit_caught}, shadowed caught: {shadowed_caught}) \
             — the gate has gone blind"
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let opts = AnalyzeOptions::default();
    if let Some(path) = &args.validate {
        return validate_mode(path);
    }
    if args.fixtures {
        return fixtures_mode(&opts, args.threads);
    }

    let registry = standard_families();
    let report = analyze_registry(&registry, &opts, args.threads);
    print!("{}", human_table(&report));
    let json = to_json(&report);
    if let Err(e) = validate_json(&json) {
        // The emitter and validator ship together; disagreement is a bug.
        eprintln!("analyze: emitted report fails own schema: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("analyze: {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }
    if report.certified() {
        println!("certified: all {} families clean", report.families.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("analyze: soundness violations found (see table above)");
        ExitCode::FAILURE
    }
}
