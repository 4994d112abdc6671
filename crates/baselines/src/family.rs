//! The baseline algorithm families: CFG-style unison with
//! uncoordinated local resets (label `cfg-unison`) and the
//! mono-initiator reset (label `mono-reset`), registrable in any
//! [`FamilyRegistry`](ssr_runtime::family::FamilyRegistry).
//!
//! Both are [`TypedFamily`]s without paper bounds: blowing a step cap
//! is a *finding* (the very pathology §1 motivates cooperation with),
//! not a campaign failure, so the runtime's generic run reports
//! [`Verdict::NoBound`](ssr_runtime::family::Verdict::NoBound). Neither
//! explores; both are analyzed over their seed sets.

use ssr_graph::{Graph, NodeId};
use ssr_runtime::family::{explore_sample_seeds, AlgorithmSpec, InitPlan, RunSeeds, TypedFamily};
use ssr_runtime::faults::corrupt_and_reset;
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{Daemon, Simulator};
use ssr_unison::workloads::unison_tear_plain;
use ssr_unison::Unison;

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

impl TypedFamily for CfgUnisonFamily {
    type Algo = CfgUnison;

    fn family_id(&self) -> &str {
        "cfg-unison"
    }

    fn build(&self, graph: &Graph) -> Option<CfgUnison> {
        Some(CfgUnison::for_graph(graph))
    }

    fn start<'g>(
        &self,
        graph: &'g Graph,
        cfg: CfgUnison,
        init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
    ) -> Simulator<'g, CfgUnison> {
        let nn = graph.node_count() as u64;
        let period = cfg.period();
        let init_cfg = match init {
            InitPlan::Normal | InitPlan::CorruptClocks { .. } => cfg.initial_config(graph),
            InitPlan::Tear { gap } => unison_tear_plain(graph, period, gap.resolve(nn)),
            InitPlan::Arbitrary => cfg.arbitrary_config(graph, seeds.init),
        };
        let mut sim = Simulator::new(graph, cfg, init_cfg, daemon.clone(), seeds.sim);
        if let InitPlan::CorruptClocks { k } = init {
            corrupt_and_reset(&mut sim, k.resolve(nn), seeds.fault, |_, r| r.below(period));
        }
        sim
    }

    /// `γ_init`, the torn gradient, and `samples` arbitrary clock
    /// vectors.
    fn seed_set(
        &self,
        graph: &Graph,
        cfg: &CfgUnison,
        scenario_seed: u64,
        samples: usize,
    ) -> Vec<Vec<u64>> {
        let nn = graph.node_count() as u64;
        let mut inits = vec![
            cfg.initial_config(graph),
            unison_tear_plain(graph, cfg.period(), (nn / 2).max(1)),
        ];
        for s in explore_sample_seeds(scenario_seed, samples) {
            inits.push(cfg.arbitrary_config(graph, s));
        }
        inits
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

impl TypedFamily for MonoResetFamily {
    type Algo = MonoReset<Unison>;

    fn family_id(&self) -> &str {
        "mono-reset"
    }

    fn build(&self, graph: &Graph) -> Option<MonoReset<Unison>> {
        Some(MonoReset::new(graph, Unison::for_graph(graph), NodeId(0)))
    }

    fn start<'g>(
        &self,
        graph: &'g Graph,
        mono: MonoReset<Unison>,
        init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
    ) -> Simulator<'g, MonoReset<Unison>> {
        let nn = graph.node_count() as u64;
        let period = mono.input().period();
        let init_cfg = mono.initial_config(graph);
        let mut sim = Simulator::new(graph, mono, init_cfg, daemon.clone(), seeds.sim);
        if let InitPlan::CorruptClocks { k } = init {
            corrupt_and_reset(&mut sim, k.resolve(nn), seeds.fault, |_, r| MonoState {
                phase: Phase::Idle,
                inner: r.below(period),
            });
        }
        sim
    }

    /// `γ_init` plus `samples` configurations with arbitrary wave
    /// phases and clocks, so every wave rule (request, broadcast,
    /// feedback, completion) gets exercised.
    fn seed_set(
        &self,
        graph: &Graph,
        mono: &MonoReset<Unison>,
        scenario_seed: u64,
        samples: usize,
    ) -> Vec<Vec<MonoState<u64>>> {
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
        inits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_graph::generators;
    use ssr_runtime::family::{Amount, Family, Verdict};

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
