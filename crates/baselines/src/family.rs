//! The baseline algorithm families: CFG-style unison with
//! uncoordinated local resets (label `cfg-unison`) and the
//! mono-initiator reset (label `mono-reset`), registrable in any
//! [`FamilyRegistry`](ssr_runtime::family::FamilyRegistry).
//!
//! Neither baseline has a closed-form paper bound — blowing a step cap
//! is a *finding* (the very pathology §1 motivates cooperation with),
//! not a campaign failure — so both report
//! [`Verdict::NoBound`](ssr_runtime::family::Verdict::NoBound).

use ssr_graph::{Graph, NodeId};
use ssr_runtime::analysis::{
    audit_runs, collect_footprints, AnalyzeFamily, AnalyzeOptions, GraphAnalysis, RngAudit,
};
use ssr_runtime::family::{
    explore_sample_seeds, AlgorithmSpec, ExecBudget, Family, FamilyProbe, FamilyRunOutcome,
    InitPlan, ProbeBridge, RunSeeds,
};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{Daemon, Simulator};
use ssr_unison::workloads::unison_tear_plain;
use ssr_unison::{spec, Unison};

use crate::cfg_unison::CfgUnison;
use crate::mono_reset::{MonoReset, MonoState, Phase};

/// The spec handle `cfg-unison`.
pub fn cfg_unison_spec() -> AlgorithmSpec {
    AlgorithmSpec::plain("cfg-unison")
}

/// The spec handle `mono-reset`.
pub fn mono_reset_spec() -> AlgorithmSpec {
    AlgorithmSpec::plain("mono-reset")
}

/// The CFG-style baseline family: the unison increment rule plus an
/// *uncoordinated local reset* rule — the non-cooperative ablation.
///
/// Init-plan semantics mirror the unison family (`Normal` and
/// `CorruptClocks` from all-zero clocks, `Tear` from the plain-clock
/// gradient, `Arbitrary` from the sampler); the target is the unison
/// safety predicate.
#[derive(Clone, Copy, Debug, Default)]
pub struct CfgUnisonFamily;

impl CfgUnisonFamily {
    /// The analysis seed set: `γ_init`, the torn gradient, and
    /// `samples` arbitrary clock vectors.
    fn seed_set(graph: &Graph, scenario_seed: u64, samples: usize) -> (CfgUnison, Vec<Vec<u64>>) {
        let nn = graph.node_count() as u64;
        let cfg = CfgUnison::for_graph(graph);
        let period = cfg.period();
        let mut inits = vec![
            cfg.initial_config(graph),
            unison_tear_plain(graph, period, (nn / 2).max(1)),
        ];
        for s in explore_sample_seeds(scenario_seed, samples) {
            inits.push(cfg.arbitrary_config(graph, s));
        }
        (cfg, inits)
    }
}

impl Family for CfgUnisonFamily {
    fn id(&self) -> &str {
        "cfg-unison"
    }

    fn run(
        &self,
        graph: &Graph,
        init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
        budget: ExecBudget,
        probe: Option<&mut dyn FamilyProbe>,
    ) -> FamilyRunOutcome {
        let nn = graph.node_count() as u64;
        let cfg = CfgUnison::for_graph(graph);
        let period = cfg.period();
        let init_cfg = match init {
            InitPlan::Normal | InitPlan::CorruptClocks { .. } => cfg.initial_config(graph),
            InitPlan::Tear { gap } => unison_tear_plain(graph, period, gap.resolve(nn)),
            InitPlan::Arbitrary => cfg.arbitrary_config(graph, seeds.init),
        };
        let mut sim = Simulator::new(graph, cfg, init_cfg, daemon.clone(), seeds.sim);
        if let InitPlan::CorruptClocks { k } = init {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seeds.fault);
            ssr_runtime::faults::corrupt_random(
                &mut sim,
                k.resolve(nn).min(nn) as usize,
                &mut rng,
                |_, r| r.below(period),
            );
            sim.reset_stats();
        }
        let mut bridge = ProbeBridge::new(probe);
        bridge.install_trace(&mut sim);
        let out = sim
            .execution()
            .cap(budget.cap)
            .intra_threads(budget.intra_threads)
            .observe(&mut bridge)
            .until_all(|u, view| spec::safety_holds_at(u, view, period))
            .run();
        bridge.collect_trace(&mut sim);
        let mut fo = FamilyRunOutcome::from_run(&out, sim.stats().steps);
        fo.max_moves_per_process = sim.stats().max_moves_per_process();
        // No closed-form bound: blowing the cap is a finding, not a
        // campaign failure.
        fo
    }

    fn analysis(&self) -> Option<&dyn AnalyzeFamily> {
        Some(self)
    }
}

impl AnalyzeFamily for CfgUnisonFamily {
    fn rule_names(&self, graph: &Graph) -> Vec<String> {
        ssr_runtime::analysis::rule_names(&CfgUnison::for_graph(graph))
    }

    fn footprints(&self, graph: &Graph, graph_name: &str, opts: &AnalyzeOptions) -> GraphAnalysis {
        let (algo, inits) = Self::seed_set(graph, opts.scenario_seed, opts.samples);
        collect_footprints(graph, graph_name, &algo, &inits, opts)
    }

    fn audit(&self, graph: &Graph, opts: &AnalyzeOptions) -> RngAudit {
        let (algo, inits) = Self::seed_set(graph, opts.scenario_seed, opts.samples);
        audit_runs(graph, &algo, &inits, opts)
    }
}

/// The mono-initiator reset baseline family (root = node 0): every
/// inconsistency report funnels to one fixed root, which runs a single
/// global broadcast-feedback reset wave.
///
/// The baseline is non-self-stabilizing in general, so every init plan
/// starts from `γ_init`; `CorruptClocks` then corrupts `k` random
/// clocks (phases reset to idle) and measures recovery to the normal
/// configurations.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonoResetFamily;

impl MonoResetFamily {
    /// The analysis seed set: `γ_init` plus `samples` configurations
    /// with arbitrary wave phases and clocks, so every wave rule
    /// (request, broadcast, feedback, completion) gets exercised.
    #[allow(clippy::type_complexity)]
    fn seed_set(
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
    ) -> (MonoReset<Unison>, Vec<Vec<MonoState<u64>>>) {
        let mono = MonoReset::new(graph, Unison::for_graph(graph), NodeId(0));
        let period = mono.input().period();
        let mut inits = vec![mono.initial_config(graph)];
        for s in explore_sample_seeds(scenario_seed, samples) {
            let mut rng = Xoshiro256StarStar::seed_from_u64(s);
            inits.push(
                graph
                    .nodes()
                    .map(|_| MonoState {
                        phase: match rng.below(4) {
                            0 => Phase::Idle,
                            1 => Phase::Req,
                            2 => Phase::RB,
                            _ => Phase::RF,
                        },
                        inner: rng.below(period),
                    })
                    .collect(),
            );
        }
        (mono, inits)
    }
}

impl Family for MonoResetFamily {
    fn id(&self) -> &str {
        "mono-reset"
    }

    fn run(
        &self,
        graph: &Graph,
        init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
        budget: ExecBudget,
        probe: Option<&mut dyn FamilyProbe>,
    ) -> FamilyRunOutcome {
        let nn = graph.node_count() as u64;
        let mono = MonoReset::new(graph, Unison::for_graph(graph), NodeId(0));
        let period = mono.input().period();
        let check = MonoReset::new(graph, Unison::for_graph(graph), NodeId(0));
        let init_cfg = mono.initial_config(graph);
        let mut sim = Simulator::new(graph, mono, init_cfg, daemon.clone(), seeds.sim);
        if let InitPlan::CorruptClocks { k } = init {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seeds.fault);
            ssr_runtime::faults::corrupt_random(
                &mut sim,
                k.resolve(nn).min(nn) as usize,
                &mut rng,
                |_, r| MonoState {
                    phase: Phase::Idle,
                    inner: r.below(period),
                },
            );
            sim.reset_stats();
        }
        let mut bridge = ProbeBridge::new(probe);
        bridge.install_trace(&mut sim);
        let out = sim
            .execution()
            .cap(budget.cap)
            .intra_threads(budget.intra_threads)
            .observe(&mut bridge)
            .until_all(|u, view| check.is_normal_at(u, view))
            .run();
        bridge.collect_trace(&mut sim);
        let mut fo = FamilyRunOutcome::from_run(&out, sim.stats().steps);
        fo.max_moves_per_process = sim.stats().max_moves_per_process();
        fo
    }

    fn analysis(&self) -> Option<&dyn AnalyzeFamily> {
        Some(self)
    }
}

impl AnalyzeFamily for MonoResetFamily {
    fn rule_names(&self, graph: &Graph) -> Vec<String> {
        ssr_runtime::analysis::rule_names(&MonoReset::new(
            graph,
            Unison::for_graph(graph),
            NodeId(0),
        ))
    }

    fn footprints(&self, graph: &Graph, graph_name: &str, opts: &AnalyzeOptions) -> GraphAnalysis {
        let (algo, inits) = Self::seed_set(graph, opts.scenario_seed, opts.samples);
        collect_footprints(graph, graph_name, &algo, &inits, opts)
    }

    fn audit(&self, graph: &Graph, opts: &AnalyzeOptions) -> RngAudit {
        let (algo, inits) = Self::seed_set(graph, opts.scenario_seed, opts.samples);
        audit_runs(graph, &algo, &inits, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_graph::generators;
    use ssr_runtime::family::{Amount, Verdict};

    fn seeds() -> RunSeeds {
        RunSeeds {
            init: 11,
            sim: 12,
            fault: 13,
        }
    }

    #[test]
    fn cfg_baseline_recovers_and_reports_no_bound() {
        let g = generators::ring(8);
        let out = CfgUnisonFamily.run(
            &g,
            &InitPlan::Arbitrary,
            &Daemon::RandomSubset { p: 0.5 },
            seeds(),
            2_000_000.into(),
            None,
        );
        assert_eq!(out.verdict, Verdict::NoBound);
        assert!(out.reached, "small rings recover within the cap");
    }

    #[test]
    fn mono_reset_recovers_from_corruption() {
        let g = generators::ring(8);
        let out = MonoResetFamily.run(
            &g,
            &InitPlan::CorruptClocks {
                k: Amount::Fixed(2),
            },
            &Daemon::RandomSubset { p: 0.5 },
            seeds(),
            2_000_000.into(),
            None,
        );
        assert_eq!(out.verdict, Verdict::NoBound);
        assert!(out.reached, "{out:?}");
    }

    #[test]
    fn baselines_have_no_explore_hook_or_requirements() {
        assert!(Family::explore(&CfgUnisonFamily).is_none());
        assert!(Family::explore(&MonoResetFamily).is_none());
        let g = generators::path(3);
        assert!(CfgUnisonFamily.requirements(&g).is_none());
        assert!(MonoResetFamily.requirements(&g).is_none());
        assert_eq!(cfg_unison_spec().label(), "cfg-unison");
        assert_eq!(mono_reset_spec().label(), "mono-reset");
    }
}
