//! Planted-violation families the analyzer must flag.
//!
//! These are real, runnable [`Family`] implementations registered in
//! tests and in the CI self-test (`analyze --fixtures`): if the
//! analyzer ever stops reporting them, the gate itself is broken.
//!
//! * [`FarSightFamily`] — a guard that reads two hops away, violating
//!   the §2.2 locality obligation (and, when the far node is itself
//!   enabled, non-adjacent commutativity).
//! * [`FarLegitFamily`] — a local mask whose legitimacy term
//!   ([`Algorithm::guard`]) reads two hops away: the incremental stop
//!   condition re-evaluates only the nodes next to a mover, so the term
//!   owes the same locality as the mask.
//! * [`ShadowedPairFamily`] — a rule that is only ever enabled
//!   together with a lower-index rule, so it can never fire under the
//!   default lowest-index resolution.

use ssr_graph::{Graph, NodeId};
use ssr_runtime::analysis::{
    audit_runs, collect_footprints, rule_names, AnalyzeFamily, AnalyzeOptions, GraphAnalysis,
    RngAudit,
};
use ssr_runtime::family::ProbeBridge;
use ssr_runtime::{
    Algorithm, Daemon, ExecBudget, Execution, Family, FamilyProbe, FamilyRunOutcome, Guard,
    InitPlan, RuleId, RuleMask, RunSeeds, StateView,
};

// ---------------------------------------------------------------------
// FarSight: a non-local guard
// ---------------------------------------------------------------------

/// Flood whose guard peeks **two hops** out: a node catches when any
/// node at distance ≤ 2 is infected. The distance-2 reads are exactly
/// what the locality obligation forbids.
#[derive(Clone, Copy, Debug)]
pub struct FarSight;

impl Algorithm for FarSight {
    type State = bool;

    fn rule_count(&self) -> usize {
        1
    }

    fn rule_name(&self, _: RuleId) -> &'static str {
        "catch@2"
    }

    fn enabled_mask<V: StateView<bool>>(&self, u: NodeId, view: &V) -> RuleMask {
        if *view.state(u) {
            return RuleMask::NONE;
        }
        let g = view.graph();
        let mut infected_nearby = false;
        for &v in g.neighbors(u) {
            if *view.state(v) {
                infected_nearby = true;
            }
            // The planted defect: reading the neighbors' neighbors.
            for &w in g.neighbors(v) {
                if *view.state(w) && w != u {
                    infected_nearby = true;
                }
            }
        }
        RuleMask::from_bool(infected_nearby)
    }

    fn apply<V: StateView<bool>>(&self, _: NodeId, _: &V, _: RuleId) -> bool {
        true
    }
}

/// The registrable family around [`FarSight`].
pub struct FarSightFamily;

fn far_sight_seeds(graph: &Graph) -> Vec<Vec<bool>> {
    let n = graph.node_count();
    let mut seeds = vec![vec![false; n]];
    for i in 0..n {
        let mut s = vec![false; n];
        s[i] = true;
        seeds.push(s);
    }
    seeds
}

impl Family for FarSightFamily {
    fn id(&self) -> &str {
        "fixture-far-sight"
    }

    fn run(
        &self,
        graph: &Graph,
        _init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
        budget: ExecBudget,
        probe: Option<&mut dyn FamilyProbe>,
    ) -> FamilyRunOutcome {
        let mut init = vec![false; graph.node_count()];
        init[0] = true;
        let mut bridge = ProbeBridge::new(probe);
        let report = Execution::of(graph, FarSight)
            .init(init)
            .daemon(daemon.clone())
            .seed(seeds.sim)
            .cap(budget.cap)
            .observe(&mut bridge)
            .run_report();
        FamilyRunOutcome::from_run(&report.outcome, report.sim.stats().steps)
    }

    fn analysis(&self) -> Option<&dyn AnalyzeFamily> {
        Some(self)
    }
}

impl AnalyzeFamily for FarSightFamily {
    fn rule_names(&self, _graph: &Graph) -> Vec<String> {
        rule_names(&FarSight)
    }

    fn footprints(&self, graph: &Graph, graph_name: &str, opts: &AnalyzeOptions) -> GraphAnalysis {
        collect_footprints(graph, graph_name, &FarSight, &far_sight_seeds(graph), opts)
    }

    fn audit(&self, graph: &Graph, opts: &AnalyzeOptions) -> RngAudit {
        audit_runs(graph, &FarSight, &far_sight_seeds(graph), opts)
    }
}

// ---------------------------------------------------------------------
// FarLegit: a local mask with a non-local legitimacy term
// ---------------------------------------------------------------------

/// Flood with a local mask whose legitimacy term peeks **two hops**
/// out: an infected node counts as legitimate once every node within
/// distance 2 is infected. The mask alone would certify; the term's
/// distance-2 reads are the planted defect.
#[derive(Clone, Copy, Debug)]
pub struct FarLegit;

impl Algorithm for FarLegit {
    type State = bool;

    fn rule_count(&self) -> usize {
        1
    }

    fn rule_name(&self, _: RuleId) -> &'static str {
        "catch"
    }

    fn enabled_mask<V: StateView<bool>>(&self, u: NodeId, view: &V) -> RuleMask {
        self.guard(u, view).mask
    }

    fn guard<V: StateView<bool>>(&self, u: NodeId, view: &V) -> Guard {
        let g = view.graph();
        let infected = g.neighbors(u).iter().any(|&v| *view.state(v));
        // The planted defect: the term reads the neighbors' neighbors.
        let legit = *view.state(u)
            && g.neighbors(u)
                .iter()
                .all(|&v| g.neighbors(v).iter().all(|&w| *view.state(w)));
        Guard {
            mask: RuleMask::from_bool(!*view.state(u) && infected),
            legit,
        }
    }

    fn apply<V: StateView<bool>>(&self, _: NodeId, _: &V, _: RuleId) -> bool {
        true
    }
}

/// The registrable family around [`FarLegit`], stopped on its
/// legitimacy term.
pub struct FarLegitFamily;

impl Family for FarLegitFamily {
    fn id(&self) -> &str {
        "fixture-far-legit"
    }

    fn run(
        &self,
        graph: &Graph,
        _init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
        budget: ExecBudget,
        probe: Option<&mut dyn FamilyProbe>,
    ) -> FamilyRunOutcome {
        let mut init = vec![false; graph.node_count()];
        init[0] = true;
        let mut bridge = ProbeBridge::new(probe);
        let report = Execution::of(graph, FarLegit)
            .init(init)
            .daemon(daemon.clone())
            .seed(seeds.sim)
            .cap(budget.cap)
            .observe(&mut bridge)
            .until_legitimate()
            .run_report();
        FamilyRunOutcome::from_run(&report.outcome, report.sim.stats().steps)
    }

    fn analysis(&self) -> Option<&dyn AnalyzeFamily> {
        Some(self)
    }
}

impl AnalyzeFamily for FarLegitFamily {
    fn rule_names(&self, _graph: &Graph) -> Vec<String> {
        rule_names(&FarLegit)
    }

    fn footprints(&self, graph: &Graph, graph_name: &str, opts: &AnalyzeOptions) -> GraphAnalysis {
        collect_footprints(graph, graph_name, &FarLegit, &far_sight_seeds(graph), opts)
    }

    fn audit(&self, graph: &Graph, opts: &AnalyzeOptions) -> RngAudit {
        audit_runs(graph, &FarLegit, &far_sight_seeds(graph), opts)
    }
}

// ---------------------------------------------------------------------
// ShadowedPair: a rule that can never fire first
// ---------------------------------------------------------------------

/// Two rules over a `u8` state with **identical guards** (`state == 0`)
/// and distinct actions. Rule 1 is only ever enabled together with
/// rule 0, so the default lowest-index resolution can never fire it —
/// the planted rule-table defect.
#[derive(Clone, Copy, Debug)]
pub struct ShadowedPair;

impl Algorithm for ShadowedPair {
    type State = u8;

    fn rule_count(&self) -> usize {
        2
    }

    fn rule_name(&self, r: RuleId) -> &'static str {
        ["settle", "shadowed"][r.index()]
    }

    fn enabled_mask<V: StateView<u8>>(&self, u: NodeId, view: &V) -> RuleMask {
        let zero = *view.state(u) == 0;
        RuleMask::from_bool(zero).with_if(RuleId(1), zero)
    }

    fn apply<V: StateView<u8>>(&self, _: NodeId, _: &V, r: RuleId) -> u8 {
        match r.index() {
            0 => 1,
            _ => 2,
        }
    }
}

/// The registrable family around [`ShadowedPair`].
pub struct ShadowedPairFamily;

fn shadowed_seeds(graph: &Graph) -> Vec<Vec<u8>> {
    let n = graph.node_count();
    let mut seeds = vec![vec![0u8; n]];
    for i in 0..n {
        let mut s = vec![1u8; n];
        s[i] = 0;
        seeds.push(s);
    }
    seeds
}

impl Family for ShadowedPairFamily {
    fn id(&self) -> &str {
        "fixture-shadowed-pair"
    }

    fn run(
        &self,
        graph: &Graph,
        _init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
        budget: ExecBudget,
        probe: Option<&mut dyn FamilyProbe>,
    ) -> FamilyRunOutcome {
        let init = vec![0u8; graph.node_count()];
        let mut bridge = ProbeBridge::new(probe);
        let report = Execution::of(graph, ShadowedPair)
            .init(init)
            .daemon(daemon.clone())
            .seed(seeds.sim)
            .cap(budget.cap)
            .observe(&mut bridge)
            .run_report();
        FamilyRunOutcome::from_run(&report.outcome, report.sim.stats().steps)
    }

    fn analysis(&self) -> Option<&dyn AnalyzeFamily> {
        Some(self)
    }
}

impl AnalyzeFamily for ShadowedPairFamily {
    fn rule_names(&self, _graph: &Graph) -> Vec<String> {
        rule_names(&ShadowedPair)
    }

    fn footprints(&self, graph: &Graph, graph_name: &str, opts: &AnalyzeOptions) -> GraphAnalysis {
        collect_footprints(
            graph,
            graph_name,
            &ShadowedPair,
            &shadowed_seeds(graph),
            opts,
        )
    }

    fn audit(&self, graph: &Graph, opts: &AnalyzeOptions) -> RngAudit {
        audit_runs(graph, &ShadowedPair, &shadowed_seeds(graph), opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_family;
    use ssr_runtime::FindingKind;

    #[test]
    fn far_sight_flagged_with_actionable_diagnostics() {
        let report = analyze_family(&FarSightFamily, &AnalyzeOptions::default());
        assert!(!report.certified());
        let non_local: Vec<_> = report
            .findings()
            .filter(|f| f.kind == FindingKind::NonLocalGuard)
            .collect();
        assert!(!non_local.is_empty(), "distance-2 reads must be reported");
        assert!(
            non_local
                .iter()
                .all(|f| f.detail.contains("distance 2") && f.graph.is_some()),
            "diagnostics name the distance and the graph: {non_local:?}"
        );
        // The far node can itself be enabled, so commutativity breaks too.
        assert!(report
            .findings()
            .any(|f| f.kind == FindingKind::NonCommutative));
    }

    #[test]
    fn far_legit_flagged_although_its_mask_is_local() {
        let report = analyze_family(&FarLegitFamily, &AnalyzeOptions::default());
        assert!(!report.certified());
        let non_local: Vec<_> = report
            .findings()
            .filter(|f| f.kind == FindingKind::NonLocalGuard)
            .collect();
        assert!(
            !non_local.is_empty() && non_local.iter().all(|f| f.detail.contains("distance 2")),
            "the legitimacy term's distance-2 reads must be reported: {non_local:?}"
        );
        // Wherever the rule is enabled, the evaluation read N[u] only:
        // the far reads come from the term alone.
        assert!(report
            .graphs
            .iter()
            .all(|g| g.rules[0].enabled > 0 && g.rules[0].guard_read_dist_max <= 1));
    }

    #[test]
    fn shadowed_pair_flagged_with_actionable_diagnostics() {
        let report = analyze_family(&ShadowedPairFamily, &AnalyzeOptions::default());
        assert!(!report.certified());
        let shadowed: Vec<_> = report
            .findings()
            .filter(|f| f.kind == FindingKind::ShadowedRule)
            .collect();
        assert_eq!(shadowed.len(), 1, "exactly rule 1 is shadowed");
        assert_eq!(shadowed[0].rule.as_deref(), Some("shadowed"));
        assert!(
            shadowed[0].detail.contains("lowest-index"),
            "diagnostic explains the default resolution: {}",
            shadowed[0].detail
        );
        // Locality itself is fine in this fixture.
        assert!(!report
            .findings()
            .any(|f| f.kind == FindingKind::NonLocalGuard));
    }

    #[test]
    fn fixtures_are_runnable_families() {
        let g = ssr_graph::generators::ring(5);
        let out = FarSightFamily.run(
            &g,
            &InitPlan::Normal,
            &Daemon::Synchronous,
            RunSeeds {
                init: 7,
                sim: 8,
                fault: 9,
            },
            ExecBudget::steps(1_000),
            None,
        );
        assert!(out.terminal, "far-sight flood terminates");
    }
}
