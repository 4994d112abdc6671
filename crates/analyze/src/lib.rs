//! `ssr-analyze` — mechanical certification of the soundness
//! obligations every registered family owes the step pipeline.
//!
//! The engine's fast paths are *conditionally* correct: incremental
//! guard re-evaluation assumes **locality**, the parallel kernels
//! assume **non-adjacent commutativity**, and deterministic intra-run
//! parallelism assumes **RNG discipline** (DESIGN.md §11). The
//! `ssr-runtime::analysis` instrumentation measures those properties;
//! this crate drives it over a registry:
//!
//! * [`analyze_family`] runs one family over the small-model
//!   [`analysis_suite`] — exhaustive footprint collection on the
//!   single-move closure of the family's seed set, a dynamic replay
//!   audit, and the cross-graph rule-table hygiene lints.
//! * [`analyze_registry`] does that for every label of a
//!   [`FamilyRegistry`], optionally on worker threads, with a
//!   deterministic merge (reports are byte-identical at any thread
//!   count).
//! * [`report`] renders/validates the stable `ANALYSIS.json` schema
//!   (`ssr-analysis/v1`) and a human table.
//! * [`fixtures`] provides planted-violation families — a non-local
//!   guard, a local mask with a non-local legitimacy term, and a
//!   shadowed rule — that the analyzer must flag; the CI gate runs them
//!   as a self-test.
//!
//! # Examples
//!
//! ```
//! use ssr_analyze::{analyze_family, fixtures};
//! use ssr_runtime::{AnalyzeOptions, FindingKind};
//!
//! let report = analyze_family(&fixtures::FarSightFamily, &AnalyzeOptions::default());
//! assert!(!report.certified());
//! assert!(report
//!     .findings()
//!     .any(|f| f.kind == FindingKind::NonLocalGuard));
//! ```

#![forbid(unsafe_code)]

use ssr_graph::{generators, Graph};
use ssr_runtime::analysis::{
    AnalyzeOptions, Finding, FindingKind, GraphAnalysis, OverlapStat, RngAudit, RuleStats, Severity,
};
use ssr_runtime::family::{Family, FamilyRegistry};
use ssr_runtime::pool::par_map;

pub mod fixtures;
pub mod report;

pub use report::{human_table, to_json, validate_json};
pub use ssr_runtime::analysis;

/// The schema identifier stamped into `ANALYSIS.json`.
pub const SCHEMA: &str = "ssr-analysis/v1";

/// The small-model graphs every family is certified on.
///
/// Chosen to keep exhaustive closures affordable while covering the
/// shapes the obligations care about: a path (distance-2 pairs with
/// a cut vertex), a ring (vertex-transitive, distance 2), a star
/// (hub/leaf asymmetry), and a clique (diameter 1, densest overlap
/// of neighborhoods — also what degree-hungry presets need).
pub fn analysis_suite() -> Vec<(&'static str, Graph)> {
    vec![
        ("path3", generators::path(3)),
        ("ring4", generators::ring(4)),
        ("star4", generators::star(4)),
        ("complete4", generators::complete(4)),
    ]
}

/// The full analysis of one family over the suite.
#[derive(Clone, Debug)]
pub struct FamilyReport {
    /// The family label the report belongs to.
    pub family: String,
    /// Whether the family exposed an analysis hook at all.
    pub analyzable: bool,
    /// Per-graph footprint analyses (instantiable suite graphs only).
    pub graphs: Vec<GraphAnalysis>,
    /// The merged dynamic audit across all analyzed graphs.
    pub audit: RngAudit,
    /// Cross-graph rule-table lints (dead/shadowed/no-op/overlapping).
    pub hygiene: Vec<Finding>,
    /// Suite graphs skipped because the family is not instantiable.
    pub skipped: Vec<String>,
}

impl FamilyReport {
    /// Every finding of the report, in deterministic order.
    pub fn findings(&self) -> impl Iterator<Item = &Finding> {
        self.graphs
            .iter()
            .flat_map(|g| g.findings.iter())
            .chain(self.audit.findings.iter())
            .chain(self.hygiene.iter())
    }

    /// Error-severity findings.
    pub fn error_count(&self) -> usize {
        self.findings()
            .filter(|f| f.kind.severity() == Severity::Error)
            .count()
    }

    /// Warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.findings()
            .filter(|f| f.kind.severity() == Severity::Warning)
            .count()
    }

    /// A family is certified iff the analysis ran and produced no
    /// error-severity finding. Warnings do not void certification.
    pub fn certified(&self) -> bool {
        self.analyzable && self.error_count() == 0
    }
}

/// The registry-wide analysis (what `ANALYSIS.json` serializes).
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// One report per registry label, in label order.
    pub families: Vec<FamilyReport>,
}

impl AnalysisReport {
    /// Whether every family certified clean.
    pub fn certified(&self) -> bool {
        self.families.iter().all(FamilyReport::certified)
    }
}

/// Analyzes one family over the [`analysis_suite`]: footprints and the
/// dynamic audit per instantiable graph, then the cross-graph hygiene
/// lints. A family without an analysis hook is reported as an
/// uncertifiable error, not skipped silently.
pub fn analyze_family(family: &dyn Family, opts: &AnalyzeOptions) -> FamilyReport {
    let label = family.label();
    let Some(hook) = family.analysis() else {
        return FamilyReport {
            family: label.clone(),
            analyzable: false,
            graphs: Vec::new(),
            audit: RngAudit::default(),
            hygiene: vec![Finding::new(
                FindingKind::NotAnalyzable,
                None,
                None,
                format!(
                    "family `{label}` has no `Family::analysis()` hook; its \
                     locality/commutativity/RNG obligations cannot be certified"
                ),
            )],
            skipped: Vec::new(),
        };
    };

    let mut graphs = Vec::new();
    let mut audit = RngAudit::default();
    let mut skipped = Vec::new();
    for (name, graph) in analysis_suite() {
        if !family.instantiable(&graph) {
            skipped.push(name.to_string());
            continue;
        }
        graphs.push(hook.footprints(&graph, name, opts));
        audit.merge(hook.audit(&graph, opts));
    }

    let mut hygiene = hygiene_lints(&graphs);
    if graphs.is_empty() {
        hygiene.push(Finding::new(
            FindingKind::NotAnalyzable,
            None,
            None,
            format!("family `{label}` is not instantiable on any suite graph"),
        ));
    }

    FamilyReport {
        family: label,
        analyzable: true,
        graphs,
        audit,
        hygiene,
        skipped,
    }
}

/// The rule-table lints, run on statistics aggregated across every
/// analyzed graph (a rule must be dead/shadowed *everywhere* to be
/// reported — per-graph deadness is expected, e.g. degree-dependent
/// guards).
fn hygiene_lints(graphs: &[GraphAnalysis]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(first) = graphs.first() else {
        return findings;
    };

    let mut rules: Vec<RuleStats> = first.rules.clone();
    for g in &graphs[1..] {
        for (agg, per) in rules.iter_mut().zip(&g.rules) {
            agg.merge(per);
        }
    }
    let mut overlaps: Vec<OverlapStat> = Vec::new();
    for g in graphs {
        for o in &g.overlaps {
            match overlaps.iter_mut().find(|m| m.a == o.a && m.b == o.b) {
                Some(m) => {
                    m.together += o.together;
                    m.identical += o.identical;
                }
                None => overlaps.push(o.clone()),
            }
        }
    }
    overlaps.sort_unstable_by_key(|o| (o.a, o.b));

    for (idx, r) in rules.iter().enumerate() {
        if r.enabled == 0 {
            findings.push(Finding::new(
                FindingKind::DeadRule,
                Some(r.name.clone()),
                None,
                format!(
                    "rule {idx} `{}` was never enabled in any explored \
                     configuration — widen the seed set or remove the rule",
                    r.name
                ),
            ));
        } else if r.fired_first == 0 {
            findings.push(Finding::new(
                FindingKind::ShadowedRule,
                Some(r.name.clone()),
                None,
                format!(
                    "rule {idx} `{}` was enabled {} times but never as the \
                     lowest-index rule — it can never fire under the default \
                     resolution; reorder it below the rule shadowing it",
                    r.name, r.enabled
                ),
            ));
        }
        if r.applies > 0 && r.changed == 0 {
            findings.push(Finding::new(
                FindingKind::NoOpRule,
                Some(r.name.clone()),
                None,
                format!(
                    "rule {idx} `{}` was applied {} times and never changed the \
                     state — its guard should imply a state change",
                    r.name, r.applies
                ),
            ));
        }
    }
    for o in &overlaps {
        if o.together > 0 && o.identical == o.together {
            let (a, b) = (&rules[o.a].name, &rules[o.b].name);
            findings.push(Finding::new(
                FindingKind::OverlappingRules,
                Some(b.clone()),
                None,
                format!(
                    "rules `{a}` and `{b}` were co-enabled {} times, always \
                     with identical next states — one of them is redundant",
                    o.together
                ),
            ));
        }
    }
    findings
}

/// Analyzes every label of `registry` on up to `threads` workers.
///
/// Labels are handed out one at a time and merged back in label order,
/// so the report — and its JSON rendering — is byte-identical at any
/// thread count. A label that fails to resolve is reported as an
/// unanalyzable family (it should be impossible for a well-formed
/// registry, and must fail the gate loudly rather than vanish).
pub fn analyze_registry(
    registry: &FamilyRegistry,
    opts: &AnalyzeOptions,
    threads: usize,
) -> AnalysisReport {
    let labels = registry.labels();
    let one = |label: &str| -> FamilyReport {
        match registry.resolve_label(label) {
            Some(family) => analyze_family(family.as_ref(), opts),
            None => FamilyReport {
                family: label.to_string(),
                analyzable: false,
                graphs: Vec::new(),
                audit: RngAudit::default(),
                hygiene: vec![Finding::new(
                    FindingKind::NotAnalyzable,
                    None,
                    None,
                    format!("label `{label}` did not resolve in the registry"),
                )],
                skipped: Vec::new(),
            },
        }
    };
    AnalysisReport {
        families: par_map(labels.len(), threads, 1, |_| (), |_, i| one(&labels[i])).0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn suite_graphs_are_small_and_named_uniquely() {
        let suite = analysis_suite();
        let mut names: Vec<_> = suite.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len());
        assert!(suite.iter().all(|(_, g)| g.node_count() <= 4));
    }

    #[test]
    fn unanalyzable_family_is_an_error() {
        struct Opaque;
        impl Family for Opaque {
            fn id(&self) -> &str {
                "opaque"
            }
            fn run(
                &self,
                _: &Graph,
                _: &ssr_runtime::InitPlan,
                _: &ssr_runtime::Daemon,
                _: ssr_runtime::RunSeeds,
                _: ssr_runtime::ExecBudget,
                _: Option<&mut dyn ssr_runtime::FamilyProbe>,
            ) -> ssr_runtime::FamilyRunOutcome {
                unimplemented!("never run here")
            }
        }
        let report = analyze_family(&Opaque, &AnalyzeOptions::default());
        assert!(!report.certified());
        assert!(report
            .findings()
            .any(|f| f.kind == FindingKind::NotAnalyzable));
    }

    #[test]
    fn registry_report_preserves_label_order_and_thread_invariance() {
        let mut reg = FamilyRegistry::new();
        reg.register(Arc::new(fixtures::FarSightFamily));
        reg.register(Arc::new(fixtures::ShadowedPairFamily));
        let opts = AnalyzeOptions::default();
        let seq = analyze_registry(&reg, &opts, 1);
        let par = analyze_registry(&reg, &opts, 4);
        assert_eq!(
            seq.families.iter().map(|f| &f.family).collect::<Vec<_>>(),
            vec!["fixture-far-sight", "fixture-shadowed-pair"]
        );
        assert_eq!(report::to_json(&seq), report::to_json(&par));
        assert!(!seq.certified());
    }
}
