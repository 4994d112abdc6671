//! Planted-violation families the analyzer must flag.
//!
//! These are real, runnable families ([`TypedFamily`] impls, hence
//! [`Family`](ssr_runtime::Family)s) registered in tests and in the CI
//! self-test (`analyze --fixtures`): if the analyzer ever stops
//! reporting them, the gate itself is broken.
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
use ssr_runtime::{
    Algorithm, Daemon, Guard, InitPlan, RuleId, RuleMask, RunSeeds, Simulator, StateView, Target,
    TypedFamily,
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

/// The registrable family around [`FarSight`]: a flood from node 0,
/// run to termination.
pub struct FarSightFamily;

/// The all-clean configuration and every single-infection one.
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

/// The flood's start: node 0 infected.
fn infected_0(graph: &Graph) -> Vec<bool> {
    let mut init = vec![false; graph.node_count()];
    init[0] = true;
    init
}

impl TypedFamily for FarSightFamily {
    type Algo = FarSight;
    const TARGET: Target = Target::Terminal;

    fn family_id(&self) -> &str {
        "fixture-far-sight"
    }

    fn build(&self, _: &Graph) -> Option<FarSight> {
        Some(FarSight)
    }

    fn start<'g>(
        &self,
        graph: &'g Graph,
        algo: FarSight,
        _: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
    ) -> Simulator<'g, FarSight> {
        Simulator::new(graph, algo, infected_0(graph), daemon.clone(), seeds.sim)
    }

    fn seed_set(&self, graph: &Graph, _: &FarSight, _: u64, _: usize) -> Vec<Vec<bool>> {
        far_sight_seeds(graph)
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

/// The registrable family around [`FarLegit`]: a flood from node 0,
/// stopped on its legitimacy term.
pub struct FarLegitFamily;

impl TypedFamily for FarLegitFamily {
    type Algo = FarLegit;

    fn family_id(&self) -> &str {
        "fixture-far-legit"
    }

    fn build(&self, _: &Graph) -> Option<FarLegit> {
        Some(FarLegit)
    }

    fn start<'g>(
        &self,
        graph: &'g Graph,
        algo: FarLegit,
        _: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
    ) -> Simulator<'g, FarLegit> {
        Simulator::new(graph, algo, infected_0(graph), daemon.clone(), seeds.sim)
    }

    fn seed_set(&self, graph: &Graph, _: &FarLegit, _: u64, _: usize) -> Vec<Vec<bool>> {
        far_sight_seeds(graph)
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

/// The registrable family around [`ShadowedPair`]: all zeros, run to
/// termination.
pub struct ShadowedPairFamily;

impl TypedFamily for ShadowedPairFamily {
    type Algo = ShadowedPair;
    const TARGET: Target = Target::Terminal;

    fn family_id(&self) -> &str {
        "fixture-shadowed-pair"
    }

    fn build(&self, _: &Graph) -> Option<ShadowedPair> {
        Some(ShadowedPair)
    }

    fn start<'g>(
        &self,
        graph: &'g Graph,
        algo: ShadowedPair,
        _: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
    ) -> Simulator<'g, ShadowedPair> {
        let init = vec![0u8; graph.node_count()];
        Simulator::new(graph, algo, init, daemon.clone(), seeds.sim)
    }

    /// All zeros, and every configuration with a single zero.
    fn seed_set(&self, graph: &Graph, _: &ShadowedPair, _: u64, _: usize) -> Vec<Vec<u8>> {
        let n = graph.node_count();
        let mut seeds = vec![vec![0u8; n]];
        for i in 0..n {
            let mut s = vec![1u8; n];
            s[i] = 0;
            seeds.push(s);
        }
        seeds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_family;
    use ssr_runtime::{AnalyzeOptions, ExecBudget, Family, FindingKind};

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
