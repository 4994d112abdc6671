//! The unison algorithm families: the self-stabilizing composition
//! `U ∘ SDR` (label `unison-sdr`) and standalone Algorithm U (label
//! `unison`), registrable in any
//! [`FamilyRegistry`](ssr_runtime::family::FamilyRegistry).

use ssr_core::family::max_sdr_moves_per_process;
use ssr_core::{validate, ResetInput, Standalone};
use ssr_graph::Graph;
use ssr_runtime::analysis::{
    audit_runs, collect_footprints, AnalyzeFamily, AnalyzeOptions, GraphAnalysis, RngAudit,
};
use ssr_runtime::exhaustive::ExploreOptions;
use ssr_runtime::family::{
    explore_sample_seeds, explore_with_replay, stochastic_max_runs, AlgorithmSpec, Bounds,
    ExecBudget, ExploreFamily, ExploreReport, Family, FamilyProbe, FamilyRunOutcome, InitPlan,
    ProbeBridge, RunSeeds, StochasticMax, Verdict,
};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{Algorithm, Daemon, Simulator};

use crate::spec;
use crate::unison::{unison_sdr, Unison, UnisonSdr};
use crate::workloads::{unison_tear, unison_tear_plain, warm_up_and_corrupt_clocks};

/// The spec handle `unison-sdr`.
pub fn unison_sdr_spec() -> AlgorithmSpec {
    AlgorithmSpec::plain("unison-sdr")
}

/// The spec handle `unison` (standalone Algorithm U).
pub fn unison_spec() -> AlgorithmSpec {
    AlgorithmSpec::plain("unison")
}

/// The family `U ∘ SDR` — self-stabilizing unison with the paper's
/// sharp bounds (Theorems 6 and 7).
///
/// Init-plan semantics: `Normal` and `CorruptClocks` start from
/// `γ_init` (all-zero clocks; the corruption plan then warms up and
/// corrupts `k` random clocks before measuring recovery), `Tear`
/// builds the clock-gradient discontinuity workload, `Arbitrary` is
/// the adversarial sampler. The target is the set of normal
/// configurations; the verdict checks Thm 7 (rounds) and Thm 6
/// (moves).
#[derive(Clone, Copy, Debug, Default)]
pub struct UnisonSdrFamily;

impl UnisonSdrFamily {
    fn thm_bounds(graph: &Graph) -> Bounds {
        let nn = graph.node_count() as u64;
        let d = ssr_graph::metrics::diameter(graph).max(1) as u64;
        Bounds {
            rounds: Some(spec::theorem7_round_bound(nn)),
            moves: Some(spec::theorem6_move_bound(nn, d)),
        }
    }

    /// The canonical exploration seed set: `γ_init`, the broadcast
    /// chain, the half-n tear, and `samples` adversarial draws.
    fn seed_set(
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
    ) -> (UnisonSdr, Vec<Vec<<UnisonSdr as Algorithm>::State>>) {
        let algo = unison_sdr(Unison::for_graph(graph));
        let nn = graph.node_count() as u64;
        let period = algo.input().period();
        let mut inits = vec![
            algo.initial_config(graph),
            ssr_core::workloads::sdr_broadcast_chain(&algo, graph),
            unison_tear(graph, period, (nn / 2).max(1)),
        ];
        inits.extend(
            explore_sample_seeds(scenario_seed, samples)
                .iter()
                .map(|&s| algo.arbitrary_config(graph, s)),
        );
        (algo, inits)
    }
}

impl Family for UnisonSdrFamily {
    fn id(&self) -> &str {
        "unison-sdr"
    }

    fn bounds(&self, graph: &Graph) -> Bounds {
        Self::thm_bounds(graph)
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
        let algo = unison_sdr(Unison::for_graph(graph));
        let period = algo.input().period();
        let rc = algo.rule_count();
        let init_cfg = match init {
            InitPlan::Normal | InitPlan::CorruptClocks { .. } => algo.initial_config(graph),
            InitPlan::Tear { gap } => unison_tear(graph, period, gap.resolve(nn)),
            InitPlan::Arbitrary => algo.arbitrary_config(graph, seeds.init),
        };
        let mut sim = Simulator::new(graph, algo, init_cfg, daemon.clone(), seeds.sim);
        if let InitPlan::CorruptClocks { k } = init {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seeds.fault);
            warm_up_and_corrupt_clocks(&mut sim, k.resolve(nn), period, &mut rng);
        }
        let mut bridge = ProbeBridge::new(probe);
        bridge.install_trace(&mut sim);
        let out = sim
            .execution()
            .cap(budget.cap)
            .intra_threads(budget.intra_threads)
            .observe(&mut bridge)
            .until_legitimate()
            .run();
        bridge.collect_trace(&mut sim);
        let pp = max_sdr_moves_per_process(graph, sim.stats(), rc);
        let mut fo = FamilyRunOutcome::from_run(&out, sim.stats().steps);
        fo.max_moves_per_process = pp;
        // Thm 7 (rounds) and Thm 6 (moves).
        let bounds = Self::thm_bounds(graph);
        let (rb, mb) = (bounds.rounds.unwrap(), bounds.moves.unwrap());
        fo.bound_rounds = Some(rb);
        fo.bound_moves = Some(mb);
        fo.verdict = if out.reached && out.rounds_at_hit <= rb && out.moves_at_hit <= mb {
            Verdict::Pass
        } else {
            Verdict::Fail
        };
        fo
    }

    fn requirements(&self, graph: &Graph) -> Option<Result<(), String>> {
        Some(
            validate::check_requirements(&Unison::for_graph(graph), graph)
                .map_err(|e| e.to_string()),
        )
    }

    fn explore(&self) -> Option<&dyn ExploreFamily> {
        Some(self)
    }

    fn analysis(&self) -> Option<&dyn AnalyzeFamily> {
        Some(self)
    }
}

impl AnalyzeFamily for UnisonSdrFamily {
    fn rule_names(&self, graph: &Graph) -> Vec<String> {
        ssr_runtime::analysis::rule_names(&unison_sdr(Unison::for_graph(graph)))
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

impl ExploreFamily for UnisonSdrFamily {
    fn bounds(&self, graph: &Graph) -> Bounds {
        Self::thm_bounds(graph)
    }

    fn explore(
        &self,
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
        opts: &ExploreOptions,
    ) -> ExploreReport {
        let (algo, inits) = Self::seed_set(graph, scenario_seed, samples);
        let check = unison_sdr(Unison::for_graph(graph));
        explore_with_replay(
            graph,
            &algo,
            &inits,
            move |gr, st| check.is_normal_config(gr, st),
            opts,
        )
    }

    fn stochastic_max(
        &self,
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
        trials: u64,
        cap: u64,
    ) -> StochasticMax {
        let (algo, inits) = Self::seed_set(graph, scenario_seed, samples);
        let check = unison_sdr(Unison::for_graph(graph));
        stochastic_max_runs(
            graph,
            &algo,
            &inits,
            move |gr, st| check.is_normal_config(gr, st),
            scenario_seed,
            trials,
            cap,
        )
    }
}

/// Standalone Algorithm U (no reset layer), gated on `P_ICorrect` by
/// the shared [`Standalone`] wrapper — the single home of that gate.
///
/// Theorem 5 only speaks from `γ_init`, so `Normal`, `Arbitrary`, and
/// `CorruptClocks` all start there (the corruption plan then corrupts
/// `k` random clocks and measures what recovery U manages *without*
/// resets); `Tear` starts from the plain-clock tear. The target is the
/// unison safety predicate; there is no closed-form bound — U alone is
/// not self-stabilizing, and a run that never recovers is a finding,
/// not a campaign failure.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnisonFamily;

impl UnisonFamily {
    /// The analysis seed set: `γ_init`, the plain-clock tear, and
    /// `samples` uniformly corrupted clock vectors — the standalone
    /// family has no explore hook, so its analysis coverage is built
    /// here directly.
    fn seed_set(
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
    ) -> (Standalone<Unison>, Vec<Vec<u64>>) {
        let unison = Unison::for_graph(graph);
        let period = unison.period();
        let algo = Standalone::new(unison);
        let nn = graph.node_count() as u64;
        let mut inits = vec![
            algo.initial_config(graph),
            unison_tear_plain(graph, period, (nn / 2).max(1)),
        ];
        for s in explore_sample_seeds(scenario_seed, samples) {
            let mut rng = Xoshiro256StarStar::seed_from_u64(s);
            inits.push(
                graph
                    .nodes()
                    .map(|u| algo.inner().arbitrary_state(u, &mut rng))
                    .collect(),
            );
        }
        (algo, inits)
    }
}

impl Family for UnisonFamily {
    fn id(&self) -> &str {
        "unison"
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
        let unison = Unison::for_graph(graph);
        let period = unison.period();
        let algo = Standalone::new(unison);
        let init_cfg = match init {
            InitPlan::Tear { gap } => unison_tear_plain(graph, period, gap.resolve(nn)),
            _ => algo.initial_config(graph),
        };
        let mut sim = Simulator::new(graph, algo, init_cfg, daemon.clone(), seeds.sim);
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
            .until_legitimate()
            .run();
        bridge.collect_trace(&mut sim);
        let mut fo = FamilyRunOutcome::from_run(&out, sim.stats().steps);
        fo.max_moves_per_process = sim.stats().max_moves_per_process();
        // No closed-form bound: U is not self-stabilizing on its own.
        fo
    }

    fn requirements(&self, graph: &Graph) -> Option<Result<(), String>> {
        Some(
            validate::check_requirements(&Unison::for_graph(graph), graph)
                .map_err(|e| e.to_string()),
        )
    }

    fn analysis(&self) -> Option<&dyn AnalyzeFamily> {
        Some(self)
    }
}

impl AnalyzeFamily for UnisonFamily {
    fn rule_names(&self, graph: &Graph) -> Vec<String> {
        ssr_runtime::analysis::rule_names(&Standalone::new(Unison::for_graph(graph)))
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

    fn seeds() -> RunSeeds {
        RunSeeds {
            init: 1,
            sim: 2,
            fault: 3,
        }
    }

    #[test]
    fn unison_sdr_family_passes_all_init_plans() {
        use ssr_runtime::family::Amount;
        let g = generators::ring(8);
        for init in [
            InitPlan::Arbitrary,
            InitPlan::Normal,
            InitPlan::Tear { gap: Amount::HalfN },
            InitPlan::CorruptClocks {
                k: Amount::QuarterN,
            },
        ] {
            let out = UnisonSdrFamily.run(
                &g,
                &init,
                &Daemon::RandomSubset { p: 0.5 },
                seeds(),
                2_000_000.into(),
                None,
            );
            assert_eq!(out.verdict, Verdict::Pass, "{init:?}: {out:?}");
        }
    }

    #[test]
    fn unison_sdr_family_explores_within_bounds() {
        let g = generators::path(4);
        let fam = UnisonSdrFamily;
        let ef = Family::explore(&fam).unwrap();
        let report = ef.explore(&g, 0xE13, 2, &ExploreOptions::default());
        let (summary, replay_ok) = report.result.expect("tiny path fits");
        assert!(summary.verified && replay_ok);
        let bounds = ExploreFamily::bounds(&fam, &g);
        let worst = summary.worst.unwrap();
        assert!(worst.rounds <= bounds.rounds.unwrap());
        assert!(worst.moves <= bounds.moves.unwrap());
    }

    #[test]
    fn standalone_unison_is_safe_from_gamma_init() {
        let g = generators::ring(6);
        let out = UnisonFamily.run(
            &g,
            &InitPlan::Normal,
            &Daemon::Central,
            seeds(),
            100_000.into(),
            None,
        );
        assert!(out.reached, "γ_init satisfies the spec instantly");
        assert_eq!(out.verdict, Verdict::NoBound);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn standalone_unison_cannot_always_repair_a_tear() {
        use ssr_runtime::family::Amount;
        // On a path, the tear edge freezes both sides: U alone has no
        // reset rule, so the run ends without restoring safety — the
        // ablation the reset layer exists for.
        let g = generators::path(8);
        let out = UnisonFamily.run(
            &g,
            &InitPlan::Tear { gap: Amount::HalfN },
            &Daemon::Central,
            seeds(),
            200_000.into(),
            None,
        );
        assert!(!out.reached, "{out:?}");
        assert_eq!(out.verdict, Verdict::NoBound);
    }

    #[test]
    fn family_requirements_pass() {
        let g = generators::star(5);
        assert_eq!(UnisonSdrFamily.requirements(&g), Some(Ok(())));
        assert_eq!(UnisonFamily.requirements(&g), Some(Ok(())));
    }

    #[test]
    fn spec_handles() {
        assert_eq!(unison_sdr_spec().label(), "unison-sdr");
        assert_eq!(unison_spec().label(), "unison");
        assert_eq!(UnisonSdrFamily.id(), "unison-sdr");
        assert_eq!(UnisonFamily.id(), "unison");
    }
}
