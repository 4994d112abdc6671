//! The unison algorithm families: the self-stabilizing composition
//! `U ∘ SDR` (label `unison-sdr`) and standalone Algorithm U (label
//! `unison`), registrable in any
//! [`FamilyRegistry`](ssr_runtime::family::FamilyRegistry).
//!
//! Each is a [`TypedFamily`]; the runtime's blanket impls derive the
//! measured run, the explorer hook and the analysis hook from it.
//! `UnisonSdrFamily` is the template for a new family.

use ssr_core::family::max_sdr_moves_per_process;
use ssr_core::{validate, Standalone};
use ssr_graph::Graph;
use ssr_runtime::family::{
    explore_sample_seeds, AlgorithmSpec, Bounds, InitPlan, RunSeeds, TypedFamily,
};
use ssr_runtime::faults::corrupt_and_reset;
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

/// The §3.5 requirements of Algorithm U on `graph`, the input of both
/// unison families.
fn unison_requirements(graph: &Graph) -> Option<Result<(), String>> {
    Some(validate::check_requirements(&Unison::for_graph(graph), graph).map_err(|e| e.to_string()))
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

impl TypedFamily for UnisonSdrFamily {
    type Algo = UnisonSdr;
    const EXPLORES: bool = true;

    fn family_id(&self) -> &str {
        "unison-sdr"
    }

    fn build(&self, graph: &Graph) -> Option<UnisonSdr> {
        Some(unison_sdr(Unison::for_graph(graph)))
    }

    fn start<'g>(
        &self,
        graph: &'g Graph,
        algo: UnisonSdr,
        init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
    ) -> Simulator<'g, UnisonSdr> {
        let nn = graph.node_count() as u64;
        let period = algo.input().period();
        let init_cfg = match init {
            InitPlan::Normal | InitPlan::CorruptClocks { .. } => algo.initial_config(graph),
            InitPlan::Tear { gap } => unison_tear(graph, period, gap.resolve(nn)),
            InitPlan::Arbitrary => algo.arbitrary_config(graph, seeds.init),
        };
        let mut sim = Simulator::new(graph, algo, init_cfg, daemon.clone(), seeds.sim);
        if let InitPlan::CorruptClocks { k } = init {
            warm_up_and_corrupt_clocks(&mut sim, k.resolve(nn), period, seeds.fault);
        }
        sim
    }

    /// Thm 7 (rounds) and Thm 6 (moves).
    fn paper_bounds(&self, graph: &Graph) -> Bounds {
        let nn = graph.node_count() as u64;
        let d = ssr_graph::metrics::diameter(graph).max(1) as u64;
        Bounds {
            rounds: Some(spec::theorem7_round_bound(nn)),
            moves: Some(spec::theorem6_move_bound(nn, d)),
        }
    }

    fn moves_per_process(&self, sim: &Simulator<'_, UnisonSdr>) -> u64 {
        max_sdr_moves_per_process(sim.graph(), sim.stats(), sim.algorithm().rule_count())
    }

    /// `γ_init`, the broadcast chain, the half-n tear, and `samples`
    /// adversarial draws.
    fn seed_set(
        &self,
        graph: &Graph,
        algo: &UnisonSdr,
        scenario_seed: u64,
        samples: usize,
    ) -> Vec<Vec<<UnisonSdr as Algorithm>::State>> {
        let nn = graph.node_count() as u64;
        let mut inits = vec![
            algo.initial_config(graph),
            ssr_core::workloads::sdr_broadcast_chain(algo, graph),
            unison_tear(graph, algo.input().period(), (nn / 2).max(1)),
        ];
        inits.extend(
            explore_sample_seeds(scenario_seed, samples)
                .iter()
                .map(|&s| algo.arbitrary_config(graph, s)),
        );
        inits
    }

    fn check_requirements(&self, graph: &Graph) -> Option<Result<(), String>> {
        unison_requirements(graph)
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

impl TypedFamily for UnisonFamily {
    type Algo = Standalone<Unison>;

    fn family_id(&self) -> &str {
        "unison"
    }

    fn build(&self, graph: &Graph) -> Option<Standalone<Unison>> {
        Some(Standalone::new(Unison::for_graph(graph)))
    }

    fn start<'g>(
        &self,
        graph: &'g Graph,
        algo: Standalone<Unison>,
        init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
    ) -> Simulator<'g, Standalone<Unison>> {
        let nn = graph.node_count() as u64;
        let period = algo.inner().period();
        let init_cfg = match init {
            InitPlan::Tear { gap } => unison_tear_plain(graph, period, gap.resolve(nn)),
            _ => algo.initial_config(graph),
        };
        let mut sim = Simulator::new(graph, algo, init_cfg, daemon.clone(), seeds.sim);
        if let InitPlan::CorruptClocks { k } = init {
            corrupt_and_reset(&mut sim, k.resolve(nn), seeds.fault, |_, r| r.below(period));
        }
        sim
    }

    /// `γ_init`, the plain-clock tear, and `samples` uniformly
    /// corrupted clock vectors — the standalone family does not
    /// explore, so this set serves the analyzer alone.
    fn seed_set(
        &self,
        graph: &Graph,
        algo: &Standalone<Unison>,
        scenario_seed: u64,
        samples: usize,
    ) -> Vec<Vec<u64>> {
        let nn = graph.node_count() as u64;
        let mut inits = vec![
            algo.initial_config(graph),
            unison_tear_plain(graph, algo.inner().period(), (nn / 2).max(1)),
        ];
        inits.extend(
            explore_sample_seeds(scenario_seed, samples)
                .into_iter()
                .map(|s| validate::arbitrary_standalone_config(algo.inner(), graph, s)),
        );
        inits
    }

    fn check_requirements(&self, graph: &Graph) -> Option<Result<(), String>> {
        unison_requirements(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_graph::generators;
    use ssr_runtime::exhaustive::ExploreOptions;
    use ssr_runtime::family::{ExploreFamily, Family, Verdict};

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
