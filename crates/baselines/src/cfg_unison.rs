//! Couvreur–Francez–Gouda-style unison: local, uncoordinated resets
//! (the baseline/ablation of E5 and E10).

use ssr_graph::{Graph, NodeId};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{Algorithm, Guard, RuleId, RuleMask, StateView};
use ssr_unison::Unison;

/// Increment rule: same guard as Algorithm U.
pub const RULE_CFG_INC: RuleId = RuleId(0);
/// Local reset rule: `c_u := 0` when some neighbor is more than one
/// increment away.
pub const RULE_CFG_RESET: RuleId = RuleId(1);

/// Unison by *uncoordinated local resets* (Couvreur et al. \[20\]), with
/// `K > n²`. Unlike Boulinier's parametric formulation \[11\], a reset
/// goes straight to 0, with no tail of α extra clock values, so rings
/// can livelock and this is not self-stabilizing under the unfair
/// daemon (see the crate docs).
///
/// Rules:
///
/// * `inc`:  `P_ICorrect(u) ∧ P_Up(u) → c_u := (c_u + 1) % K`
/// * `reset`: `¬P_ICorrect(u) → c_u := 0`
///
/// where `P_ICorrect`/`P_Up` are Algorithm U's predicates. Nothing
/// prevents a process from being dragged into several successive reset
/// cascades — which is exactly the move-complexity weakness (measured
/// in experiments E5/E10) that SDR's cooperative reset removes.
#[derive(Clone, Debug)]
pub struct CfgUnison {
    unison: Unison,
}

impl CfgUnison {
    /// CFG unison with explicit period `K` (the analysis wants `K > n²`).
    pub fn new(k: u64) -> Self {
        CfgUnison {
            unison: Unison::new(k),
        }
    }

    /// CFG unison with the smallest analyzed period: `K = n² + 1`.
    pub fn for_graph(graph: &Graph) -> Self {
        let n = graph.node_count() as u64;
        CfgUnison::new(n * n + 1)
    }

    /// The period `K`.
    pub fn period(&self) -> u64 {
        self.unison.period()
    }

    /// An arbitrary (adversarial) clock configuration.
    pub fn arbitrary_config(&self, graph: &Graph, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        graph.nodes().map(|_| rng.below(self.period())).collect()
    }

    /// The designated initial configuration (all clocks zero).
    pub fn initial_config(&self, graph: &Graph) -> Vec<u64> {
        vec![0; graph.node_count()]
    }
}

impl Algorithm for CfgUnison {
    type State = u64;

    fn rule_count(&self) -> usize {
        2
    }

    fn rule_name(&self, rule: RuleId) -> &'static str {
        match rule {
            RULE_CFG_INC => "rule_inc",
            _ => "rule_reset",
        }
    }

    #[inline]
    fn enabled_mask<V: StateView<u64>>(&self, u: NodeId, view: &V) -> RuleMask {
        self.guard(u, view).mask
    }

    /// `inc` when `P_ICorrect(u) ∧ P_Up(u)`, `reset` when
    /// `¬P_ICorrect(u) ∧ c_u ≠ 0`, and the legitimacy term
    /// `P_ICorrect(u)` (unison safety at `u`), decided in one scan of
    /// N(u): a neighbour at `c_u` or `c_u + 1` keeps both predicates,
    /// one at `c_u − 1` breaks `P_Up` only, and any other value breaks
    /// `P_ICorrect`. The scan folds each neighbour in with `&`/`|`
    /// rather than an early exit: in a run, each evaluation lands on a
    /// random mover's neighbourhood, where the exit branches mispredict.
    #[inline]
    fn guard<V: StateView<u64>>(&self, u: NodeId, view: &V) -> Guard {
        let cu = *view.state(u);
        let (next, prev) = (self.unison.succ(cu), self.unison.pred(cu));
        let (mut up, mut correct) = (true, true);
        for &v in view.graph().neighbors(u) {
            let cv = *view.state(v);
            let keeps_up = (cv == cu) | (cv == next);
            up &= keeps_up;
            correct &= keeps_up | (cv == prev);
        }
        Guard {
            mask: RuleMask::NONE
                .with_if(RULE_CFG_INC, correct & up)
                .with_if(RULE_CFG_RESET, !correct & (cu != 0)),
            legit: correct,
        }
    }

    fn apply<V: StateView<u64>>(&self, u: NodeId, view: &V, rule: RuleId) -> u64 {
        match rule {
            RULE_CFG_INC => self.unison.succ(*view.state(u)),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_graph::generators;
    use ssr_runtime::{ConfigView, Daemon, Simulator, StepOutcome};
    use ssr_unison::spec;

    #[test]
    fn period_is_quadratic() {
        let g = generators::ring(7);
        assert_eq!(CfgUnison::for_graph(&g).period(), 50);
    }

    #[test]
    fn reset_rule_fires_on_incoherence() {
        let g = generators::path(2);
        let algo = CfgUnison::new(50);
        let clocks = vec![0u64, 5];
        let v = ConfigView::new(&g, &clocks);
        // Both processes see the tear; both reset (node 0 is already 0,
        // so only node 1 has the reset rule enabled).
        assert!(algo.enabled_mask(NodeId(0), &v).is_empty());
        let m1 = algo.enabled_mask(NodeId(1), &v);
        assert!(m1.contains(RULE_CFG_RESET));
        assert_eq!(algo.apply(NodeId(1), &v, RULE_CFG_RESET), 0);
    }

    #[test]
    fn increment_rule_matches_unison() {
        let g = generators::path(2);
        let algo = CfgUnison::new(50);
        let clocks = vec![3u64, 3];
        let v = ConfigView::new(&g, &clocks);
        assert!(algo.enabled_mask(NodeId(0), &v).contains(RULE_CFG_INC));
        assert_eq!(algo.apply(NodeId(0), &v, RULE_CFG_INC), 4);
    }

    #[test]
    fn stabilizes_from_arbitrary_configs() {
        let g = generators::random_connected(10, 6, 2);
        for seed in 0..6 {
            let algo = CfgUnison::for_graph(&g);
            let k = algo.period();
            let init = algo.arbitrary_config(&g, seed);
            let mut sim = Simulator::new(&g, algo, init, Daemon::RandomSubset { p: 0.5 }, seed);
            let out = sim
                .execution()
                .cap(2_000_000)
                .until(|gr, st| spec::safety_holds(gr, st, k))
                .run();
            assert!(out.reached, "seed {seed}: CFG unison failed to stabilize");
        }
    }

    #[test]
    fn safety_closed_and_live_after_stabilization() {
        let g = generators::ring(8);
        let algo = CfgUnison::for_graph(&g);
        let k = algo.period();
        let init = algo.arbitrary_config(&g, 5);
        let mut sim = Simulator::new(&g, algo, init, Daemon::RoundRobin, 1);
        let out = sim
            .execution()
            .cap(2_000_000)
            .until(|gr, st| spec::safety_holds(gr, st, k))
            .run();
        assert!(out.reached);
        let mut monitor = spec::LivenessMonitor::new(sim.states());
        for _ in 0..10_000 {
            match sim.step() {
                StepOutcome::Terminal => panic!("unison must not terminate"),
                StepOutcome::Progress { .. } => {
                    assert!(spec::safety_holds(&g, sim.states(), k));
                    monitor.observe(sim.states());
                }
            }
        }
        assert!(monitor.all_incremented_at_least(3));
    }

    /// E10's baseline on paths, after a tear of gap ⌊n/2⌋ under the
    /// central daemon: the local resets restore safety. (On rings the
    /// reset waves can chase each other past any cap; see E10.)
    #[test]
    fn repairs_a_half_n_tear_on_paths() {
        for n in [16usize, 32, 64] {
            let g = generators::path(n);
            let algo = CfgUnison::for_graph(&g);
            let k = algo.period();
            let init = ssr_unison::workloads::unison_tear_plain(&g, k, n as u64 / 2);
            assert!(
                !spec::safety_holds(&g, &init, k),
                "n={n}: the tear breaks safety"
            );
            let mut sim = Simulator::new(&g, algo, init, Daemon::Central, 5);
            let out = sim.execution().cap(50_000_000).until_legitimate().run();
            assert!(
                out.reached,
                "n={n}: no safety after {} moves",
                out.moves_at_hit
            );
        }
    }

    /// Not self-stabilizing under the unfair daemon: on ring₄, a
    /// central schedule that activates 2, 1, 0, 3 over and over returns
    /// to its illegitimate start every 12 steps, so repeating it keeps
    /// the run illegitimate forever.
    #[test]
    fn central_schedule_cycles_on_ring4() {
        let g = generators::ring(4);
        let algo = CfgUnison::for_graph(&g);
        assert_eq!(algo.period(), 17);
        let start = vec![2u64, 1, 0, 0];
        let schedule: Vec<Vec<NodeId>> = (0..3)
            .flat_map(|_| [2, 1, 0, 3])
            .map(|u| vec![NodeId(u)])
            .collect();
        let daemon = Daemon::Script {
            steps: std::sync::Arc::new(schedule),
        };
        let mut sim = Simulator::new(&g, algo, start.clone(), daemon, 0);
        for step in 1..=12 {
            assert!(
                matches!(sim.step(), StepOutcome::Progress { activated: 1 }),
                "step {step}"
            );
            assert!(!sim.is_legitimate(), "legitimate after step {step}");
        }
        assert_eq!(sim.states(), start.as_slice());
    }

    #[test]
    fn from_gamma_init_no_resets_needed() {
        let g = generators::grid(3, 3);
        let algo = CfgUnison::for_graph(&g);
        let init = algo.initial_config(&g);
        let mut sim = Simulator::new(&g, algo, init, Daemon::Synchronous, 0);
        for _ in 0..1_000 {
            sim.step();
        }
        assert_eq!(
            sim.stats().moves_per_rule[RULE_CFG_RESET.index()],
            0,
            "no resets from the legitimate initial configuration"
        );
    }
}
