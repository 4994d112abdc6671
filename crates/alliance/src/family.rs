//! The (f,g)-alliance algorithm families: the silent composition
//! `FGA ∘ SDR` (labels `fga-sdr:<preset>`) and standalone FGA from
//! `γ_init` (labels `fga:<preset>`), one family instance per §6.1
//! preset, registrable in any
//! [`FamilyRegistry`](ssr_runtime::family::FamilyRegistry).
//!
//! Both are [`TypedFamily`]s that run to termination
//! ([`Target::Terminal`]) and add the alliance soundness of the final
//! configuration to the verdict; only `fga-sdr` explores.

use ssr_core::{validate, Standalone};
use ssr_graph::Graph;
use ssr_runtime::family::{
    explore_sample_seeds, AlgorithmSpec, Bounds, InitPlan, RunSeeds, Target, TypedFamily,
};
use ssr_runtime::{Algorithm, Daemon, Simulator};

use crate::fga::{fga_sdr, Fga, FgaSdr, FgaState};
use crate::presets::PresetSpec;
use crate::verify;

/// The spec handle `fga-sdr:<preset>`.
pub fn fga_sdr_spec(preset: PresetSpec) -> AlgorithmSpec {
    AlgorithmSpec::colon("fga-sdr", preset.label())
}

/// The spec handle `fga:<preset>` (standalone FGA).
pub fn fga_standalone_spec(preset: PresetSpec) -> AlgorithmSpec {
    AlgorithmSpec::colon("fga", preset.label())
}

/// Whether the final membership `members` of `fga` is sound: an
/// (f,g)-alliance whose 1-minimality gaps, if any, are explained by the
/// zero-g-slack corner — the checks of
/// [`AllianceObserver`](verify::AllianceObserver).
fn sound_alliance(graph: &Graph, fga: &Fga, members: &[bool]) -> bool {
    verify::is_alliance(graph, fga.f(), fga.g(), members)
        && verify::gap_explained_by_gslack_corner(graph, fga.f(), fga.g(), fga.ids(), members)
}

/// The §3.5 requirements of `preset`'s FGA on `graph` (vacuously fine
/// where the preset is invalid).
fn preset_requirements(preset: PresetSpec, graph: &Graph) -> Option<Result<(), String>> {
    Some(match preset.build(graph) {
        None => Ok(()),
        Some(fga) => validate::check_requirements(&fga, graph).map_err(|e| e.to_string()),
    })
}

/// The family `FGA ∘ SDR` for one (f,g) preset — silent and
/// self-stabilizing (Theorems 11–14).
///
/// `Normal` starts from `γ_init`; every other plan falls back to the
/// adversarial sampler. The run goes to termination (FGA ∘ SDR is
/// silent: legitimate = terminal, Thm 11); the verdict additionally
/// demands the terminal configuration be a sound alliance (the
/// corner-aware 1-minimality check) within Thm 14 (rounds) and Thm 12
/// (moves).
#[derive(Clone, Debug)]
pub struct FgaSdrFamily {
    preset: PresetSpec,
    id: String,
}

impl FgaSdrFamily {
    /// The family for `preset`.
    pub fn new(preset: PresetSpec) -> Self {
        FgaSdrFamily {
            preset,
            id: fga_sdr_spec(preset).label(),
        }
    }
}

impl TypedFamily for FgaSdrFamily {
    type Algo = FgaSdr;
    const TARGET: Target = Target::Terminal;
    const EXPLORES: bool = true;

    fn family_id(&self) -> &str {
        &self.id
    }

    fn build(&self, graph: &Graph) -> Option<FgaSdr> {
        self.preset.build(graph).map(fga_sdr)
    }

    fn start<'g>(
        &self,
        graph: &'g Graph,
        algo: FgaSdr,
        init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
    ) -> Simulator<'g, FgaSdr> {
        let init_cfg = match init {
            InitPlan::Normal => algo.initial_config(graph),
            _ => algo.arbitrary_config(graph, seeds.init),
        };
        Simulator::new(graph, algo, init_cfg, daemon.clone(), seeds.sim)
    }

    /// Thm 14 (rounds) and Thm 12 (moves).
    fn paper_bounds(&self, graph: &Graph) -> Bounds {
        let nn = graph.node_count() as u64;
        let m = graph.edge_count() as u64;
        let delta = graph.max_degree() as u64;
        Bounds {
            rounds: Some(verify::theorem14_round_bound(nn)),
            moves: Some(verify::theorem12_move_bound(nn, m, delta)),
        }
    }

    fn verdict_check(&self, sim: &Simulator<'_, FgaSdr>) -> bool {
        let members = verify::members(sim.states().iter().map(|s| &s.inner));
        sound_alliance(sim.graph(), sim.algorithm().input(), &members)
    }

    /// `γ_init`, the broadcast chain, and `samples` adversarial draws.
    fn seed_set(
        &self,
        graph: &Graph,
        algo: &FgaSdr,
        scenario_seed: u64,
        samples: usize,
    ) -> Vec<Vec<<FgaSdr as Algorithm>::State>> {
        let mut inits = vec![
            algo.initial_config(graph),
            ssr_core::workloads::sdr_broadcast_chain(algo, graph),
        ];
        inits.extend(
            explore_sample_seeds(scenario_seed, samples)
                .iter()
                .map(|&s| algo.arbitrary_config(graph, s)),
        );
        inits
    }

    fn check_requirements(&self, graph: &Graph) -> Option<Result<(), String>> {
        preset_requirements(self.preset, graph)
    }
}

/// Standalone FGA from `γ_init` for one (f,g) preset (Theorems 9/10,
/// Corollaries 11/12), gated on `P_ICorrect` by the shared
/// [`Standalone`] wrapper — the single home of that gate.
///
/// The standalone theorems quantify over `γ_init` only, so every init
/// plan starts there. The verdict checks Cor. 12 (rounds) and Cor. 11
/// (moves) plus the corner-aware alliance soundness.
#[derive(Clone, Debug)]
pub struct FgaStandaloneFamily {
    preset: PresetSpec,
    id: String,
}

impl FgaStandaloneFamily {
    /// The family for `preset`.
    pub fn new(preset: PresetSpec) -> Self {
        FgaStandaloneFamily {
            preset,
            id: fga_standalone_spec(preset).label(),
        }
    }
}

impl TypedFamily for FgaStandaloneFamily {
    type Algo = Standalone<Fga>;
    const TARGET: Target = Target::Terminal;

    fn family_id(&self) -> &str {
        &self.id
    }

    fn build(&self, graph: &Graph) -> Option<Standalone<Fga>> {
        self.preset.build(graph).map(Standalone::new)
    }

    fn start<'g>(
        &self,
        graph: &'g Graph,
        algo: Standalone<Fga>,
        _init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
    ) -> Simulator<'g, Standalone<Fga>> {
        let init_cfg = algo.initial_config(graph);
        Simulator::new(graph, algo, init_cfg, daemon.clone(), seeds.sim)
    }

    /// Cor. 12 (rounds) and Cor. 11 (moves).
    fn paper_bounds(&self, graph: &Graph) -> Bounds {
        let nn = graph.node_count() as u64;
        let m = graph.edge_count() as u64;
        let delta = graph.max_degree() as u64;
        Bounds {
            rounds: Some(verify::corollary12_round_bound(nn)),
            moves: Some(verify::corollary11_move_bound(nn, m, delta)),
        }
    }

    fn verdict_check(&self, sim: &Simulator<'_, Standalone<Fga>>) -> bool {
        let members = verify::members(sim.states());
        sound_alliance(sim.graph(), sim.algorithm().inner(), &members)
    }

    /// `γ_init` plus `samples` arbitrary state vectors: the standalone
    /// theorems quantify over `γ_init` only, but the soundness
    /// obligations the analyzer checks must hold from *any* state.
    fn seed_set(
        &self,
        graph: &Graph,
        algo: &Standalone<Fga>,
        scenario_seed: u64,
        samples: usize,
    ) -> Vec<Vec<FgaState>> {
        let mut inits = vec![algo.initial_config(graph)];
        inits.extend(
            explore_sample_seeds(scenario_seed, samples)
                .into_iter()
                .map(|s| validate::arbitrary_standalone_config(algo.inner(), graph, s)),
        );
        inits
    }

    fn check_requirements(&self, graph: &Graph) -> Option<Result<(), String>> {
        preset_requirements(self.preset, graph)
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
            init: 5,
            sim: 6,
            fault: 7,
        }
    }

    #[test]
    fn fga_families_terminate_within_bounds() {
        let g = generators::ring(8);
        for out in [
            FgaSdrFamily::new(PresetSpec::Domination).run(
                &g,
                &InitPlan::Arbitrary,
                &Daemon::RandomSubset { p: 0.5 },
                seeds(),
                2_000_000.into(),
                None,
            ),
            FgaStandaloneFamily::new(PresetSpec::Domination).run(
                &g,
                &InitPlan::Arbitrary,
                &Daemon::RandomSubset { p: 0.5 },
                seeds(),
                2_000_000.into(),
                None,
            ),
        ] {
            assert_eq!(out.verdict, Verdict::Pass, "{out:?}");
            assert!(out.terminal);
        }
    }

    #[test]
    fn invalid_presets_are_not_instantiable() {
        // 2-domination needs δ ≥ 2 everywhere; a path's endpoints fail.
        let g = generators::path(5);
        let fam = FgaSdrFamily::new(PresetSpec::TwoDomination);
        assert!(!fam.instantiable(&g));
        assert_eq!(fam.requirements(&g), Some(Ok(())), "vacuous off-graph");
        let r = generators::ring(5);
        assert!(fam.instantiable(&r));
        assert_eq!(fam.requirements(&r), Some(Ok(())));
    }

    #[test]
    fn fga_sdr_explores_terminality() {
        let g = generators::path(3);
        let fam = FgaSdrFamily::new(PresetSpec::Domination);
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
    fn spec_handles_round_trip() {
        for preset in PresetSpec::all() {
            let sdr = fga_sdr_spec(preset);
            let alone = fga_standalone_spec(preset);
            assert_eq!(sdr.label().parse::<AlgorithmSpec>().unwrap(), sdr);
            assert_eq!(alone.label().parse::<AlgorithmSpec>().unwrap(), alone);
            assert_eq!(
                PresetSpec::from_label(sdr.params_str().unwrap()),
                Some(preset)
            );
        }
        assert_eq!(
            FgaSdrFamily::new(PresetSpec::Domination).id(),
            "fga-sdr:domination(1,0)"
        );
        assert_eq!(
            FgaStandaloneFamily::new(PresetSpec::Powerful).id(),
            "fga:powerful"
        );
    }
}
