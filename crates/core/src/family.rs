//! Generic [`Family`] scaffolding for SDR compositions: wrap **any**
//! [`ResetInput`] into a registrable, explorable algorithm family with
//! the paper's input-independent bounds checked out of the box.
//!
//! The paper's Corollaries 4 and 5 hold for *every* composition
//! `I ∘ SDR` (≤ `3n` recovery rounds; ≤ `3n + 3` SDR moves per
//! process), so [`composed`] can attach a meaningful verdict to any
//! input algorithm without knowing anything about it. Families with
//! sharper input-specific theorems (`U ∘ SDR`, `FGA ∘ SDR`) implement
//! [`Family`] directly in their home crates instead.
//!
//! This is the "bring your own algorithm" entry point: implement
//! [`ResetInput`], call [`composed`], register the result — no
//! workspace crate needs editing. See `examples/custom_family.rs` at
//! the repository root.

use ssr_graph::Graph;
use ssr_runtime::analysis::{
    audit_runs, collect_footprints, AnalyzeFamily, AnalyzeOptions, GraphAnalysis, RngAudit,
};
use ssr_runtime::exhaustive::{ExploreOptions, ExploreState};
use ssr_runtime::family::{
    explore_sample_seeds, explore_with_replay, stochastic_max_runs, AlgorithmSpec, Bounds,
    ExecBudget, ExploreFamily, ExploreReport, Family, FamilyProbe, FamilyRunOutcome, InitPlan,
    ProbeBridge, RunSeeds, StochasticMax, Verdict,
};
use ssr_runtime::{Algorithm, Daemon, RunStats, Simulator};

use crate::input::ResetInput;
use crate::sdr::{Sdr, RULE_C, RULE_R, RULE_RB, RULE_RF};
use crate::state::Composed;
use crate::toys::Agreement;
use crate::validate;
use crate::workloads::sdr_broadcast_chain;

/// Worst per-process count of SDR-rule moves (Corollary 4's measure),
/// shared by every reset-composed family.
pub fn max_sdr_moves_per_process(g: &Graph, stats: &RunStats, rule_count: usize) -> u64 {
    g.nodes()
        .map(|u| {
            [RULE_RB, RULE_RF, RULE_C, RULE_R]
                .iter()
                .map(|&r| stats.moves_of(u, r, rule_count))
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0)
}

/// A graph-parameterized constructor of the input algorithm (`None`
/// when the input is not instantiable on the graph).
pub type InputFactory<I> = Box<dyn Fn(&Graph) -> Option<I> + Send + Sync>;

/// A graph-parameterized closed-form bound.
type BoundFn = Box<dyn Fn(&Graph) -> u64 + Send + Sync>;

/// A composed algorithm plus its exploration seed set.
type SeedSet<I> = (Sdr<I>, Vec<Vec<Composed<<I as ResetInput>::State>>>);

/// The generic family `I ∘ SDR` for any [`ResetInput`], built by
/// [`composed`].
///
/// Semantics:
///
/// * **init plans** — `Normal` starts from `γ_init`; every other plan
///   falls back to the adversarial sampler
///   ([`Sdr::arbitrary_config`]), the self-stabilization quantifier;
/// * **target** — the normal configurations
///   ([`Sdr::is_normal_config`]), which are exactly SDR's terminal
///   configurations (Theorem 1);
/// * **verdict** — `Pass` iff the target was reached within `3n`
///   rounds (Cor. 5) with ≤ `3n + 3` SDR moves per process (Cor. 4) —
///   bounds that hold for *any* conforming input;
/// * **exploration** — seed set `γ_init` + the broadcast-chain
///   workload + adversarial samples, exhausted against the Cor. 5
///   round bound (plus a family-specific move bound when one was
///   supplied via [`ComposedFamily::with_explore_move_bound`]).
pub struct ComposedFamily<I> {
    id: String,
    make: InputFactory<I>,
    explore_move_bound: Option<BoundFn>,
}

/// Wraps an input-algorithm factory into the generic composed family
/// `I ∘ SDR` with id `id`.
///
/// # Examples
///
/// ```
/// use ssr_core::family::composed;
/// use ssr_core::toys::BoundedCounter;
/// use ssr_runtime::family::{Family, FamilyRegistry};
/// use std::sync::Arc;
///
/// let family = composed("counter-sdr", |_| Some(BoundedCounter::new(3)));
/// assert_eq!(family.id(), "counter-sdr");
/// let mut registry = FamilyRegistry::new();
/// registry.register(Arc::new(family));
/// assert!(registry.resolve_label("counter-sdr").is_some());
/// ```
pub fn composed<I, F>(id: impl Into<String>, make: F) -> ComposedFamily<I>
where
    I: ResetInput,
    F: Fn(&Graph) -> Option<I> + Send + Sync + 'static,
{
    ComposedFamily {
        id: id.into(),
        make: Box::new(make),
        explore_move_bound: None,
    }
}

impl<I: ResetInput> ComposedFamily<I> {
    /// Attaches a closed-form bound on the *total* moves to normality,
    /// checked by exhaustive exploration. Only sound when the input
    /// contributes no unbounded moves of its own (e.g. the rule-less
    /// [`Agreement`] input, where every move is an SDR move).
    #[must_use]
    pub fn with_explore_move_bound<F>(mut self, bound: F) -> Self
    where
        F: Fn(&Graph) -> u64 + Send + Sync + 'static,
    {
        self.explore_move_bound = Some(Box::new(bound));
        self
    }

    fn instantiate(&self, graph: &Graph) -> Sdr<I> {
        Sdr::new((self.make)(graph).unwrap_or_else(|| {
            panic!(
                "family {:?} run on a graph it is not instantiable on \
                 (callers must check Family::instantiable first)",
                self.id
            )
        }))
    }
}

impl<I> Family for ComposedFamily<I>
where
    I: ResetInput + Clone + Send + Sync + 'static,
    I::State: ExploreState + Send + Sync,
{
    fn id(&self) -> &str {
        &self.id
    }

    fn instantiable(&self, graph: &Graph) -> bool {
        (self.make)(graph).is_some()
    }

    fn bounds(&self, graph: &Graph) -> Bounds {
        Bounds {
            rounds: Some(3 * graph.node_count() as u64),
            moves: None,
        }
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
        let sdr = self.instantiate(graph);
        let rc = sdr.rule_count();
        let init = match init {
            InitPlan::Normal => sdr.initial_config(graph),
            _ => sdr.arbitrary_config(graph, seeds.init),
        };
        let mut bridge = ProbeBridge::new(probe);
        let mut sim = Simulator::new(graph, sdr, init, daemon.clone(), seeds.sim);
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
        // Cor. 5 (rounds) and Cor. 4 (per-process SDR moves).
        fo.bound_rounds = Some(3 * nn);
        fo.verdict = if out.reached && out.rounds_at_hit <= 3 * nn && pp <= 3 * nn + 3 {
            Verdict::Pass
        } else {
            Verdict::Fail
        };
        fo
    }

    fn requirements(&self, graph: &Graph) -> Option<Result<(), String>> {
        match (self.make)(graph) {
            // Not instantiable here: vacuously fine on this graph.
            None => Some(Ok(())),
            Some(input) => {
                Some(validate::check_requirements(&input, graph).map_err(|e| e.to_string()))
            }
        }
    }

    fn explore(&self) -> Option<&dyn ExploreFamily> {
        Some(self)
    }

    fn analysis(&self) -> Option<&dyn AnalyzeFamily> {
        Some(self)
    }
}

impl<I> ComposedFamily<I>
where
    I: ResetInput + Clone + Send + Sync + 'static,
    I::State: ExploreState + Send + Sync,
{
    /// The canonical exploration seed set: `γ_init`, the broadcast
    /// chain, and `samples` adversarial draws.
    fn seed_set(&self, graph: &Graph, scenario_seed: u64, samples: usize) -> SeedSet<I> {
        let algo = self.instantiate(graph);
        let mut inits = vec![
            algo.initial_config(graph),
            sdr_broadcast_chain(&algo, graph),
        ];
        inits.extend(
            explore_sample_seeds(scenario_seed, samples)
                .iter()
                .map(|&s| algo.arbitrary_config(graph, s)),
        );
        (algo, inits)
    }
}

impl<I> ExploreFamily for ComposedFamily<I>
where
    I: ResetInput + Clone + Send + Sync + 'static,
    I::State: ExploreState + Send + Sync,
{
    fn bounds(&self, graph: &Graph) -> Bounds {
        Bounds {
            rounds: Some(3 * graph.node_count() as u64),
            moves: self.explore_move_bound.as_ref().map(|f| f(graph)),
        }
    }

    fn explore(
        &self,
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
        opts: &ExploreOptions,
    ) -> ExploreReport {
        let (algo, inits) = self.seed_set(graph, scenario_seed, samples);
        let check = self.instantiate(graph);
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
        let (algo, inits) = self.seed_set(graph, scenario_seed, samples);
        let check = self.instantiate(graph);
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

impl<I> AnalyzeFamily for ComposedFamily<I>
where
    I: ResetInput + Clone + Send + Sync + 'static,
    I::State: ExploreState + Send + Sync,
{
    fn rule_names(&self, graph: &Graph) -> Vec<String> {
        ssr_runtime::analysis::rule_names(&self.instantiate(graph))
    }

    fn footprints(&self, graph: &Graph, graph_name: &str, opts: &AnalyzeOptions) -> GraphAnalysis {
        let (algo, inits) = self.seed_set(graph, opts.scenario_seed, opts.samples);
        collect_footprints(graph, graph_name, &algo, &inits, opts)
    }

    fn audit(&self, graph: &Graph, opts: &AnalyzeOptions) -> RngAudit {
        let (algo, inits) = self.seed_set(graph, opts.scenario_seed, opts.samples);
        audit_runs(graph, &algo, &inits, opts)
    }
}

/// The pure-SDR family over the rule-less [`Agreement`] input (label
/// `sdr-agreement(domain)`): every move is an SDR move, so exhaustive
/// exploration additionally checks the summed Cor. 4 total-move bound
/// `n · (3n + 3)`.
pub fn sdr_agreement_family(domain: u32) -> ComposedFamily<Agreement> {
    composed(sdr_agreement_spec(domain).label(), move |_| {
        Some(Agreement::new(domain))
    })
    .with_explore_move_bound(|g| {
        let nn = g.node_count() as u64;
        nn * (3 * nn + 3)
    })
}

/// The spec handle `sdr-agreement(domain)`.
pub fn sdr_agreement_spec(domain: u32) -> AlgorithmSpec {
    AlgorithmSpec::paren("sdr-agreement", domain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toys::BoundedCounter;
    use ssr_graph::generators;

    fn seeds() -> RunSeeds {
        RunSeeds {
            init: 0xFACE,
            sim: 0xBEEF,
            fault: 0xF00D,
        }
    }

    #[test]
    fn composed_family_passes_generic_bounds() {
        let fam = composed("counter-sdr", |_| Some(BoundedCounter::new(4)));
        let g = generators::ring(8);
        assert!(fam.instantiable(&g));
        let out = fam.run(
            &g,
            &InitPlan::Arbitrary,
            &Daemon::RandomSubset { p: 0.5 },
            seeds(),
            2_000_000.into(),
            None,
        );
        assert_eq!(out.verdict, Verdict::Pass, "{out:?}");
        assert!(out.reached);
        assert_eq!(out.bound_rounds, Some(24));
    }

    #[test]
    fn composed_family_normal_init_is_instant() {
        let fam = composed("counter-sdr", |_| Some(BoundedCounter::new(2)));
        let g = generators::path(4);
        let out = fam.run(
            &g,
            &InitPlan::Normal,
            &Daemon::Central,
            seeds(),
            100_000.into(),
            None,
        );
        assert_eq!(out.rounds, 0, "γ_init is already normal");
        assert_eq!(out.verdict, Verdict::Pass);
    }

    #[test]
    fn composed_family_checks_requirements() {
        let fam = composed("counter-sdr", |_| Some(BoundedCounter::new(3)));
        let g = generators::star(5);
        assert_eq!(fam.requirements(&g), Some(Ok(())));
    }

    #[test]
    fn composed_family_explores_exactly() {
        let fam = sdr_agreement_family(2);
        let g = generators::path(3);
        let ef = Family::explore(&fam).expect("composed families explore");
        let report = ef.explore(&g, 0xE13, 2, &ExploreOptions::default());
        let (summary, replay_ok) = report.result.expect("within limits");
        assert!(summary.verified);
        assert!(replay_ok);
        let worst = summary.worst.unwrap();
        let bounds = ExploreFamily::bounds(&fam, &g);
        assert!(worst.rounds <= bounds.rounds.unwrap());
        assert!(worst.moves <= bounds.moves.unwrap());
        let stoch = ef.stochastic_max(&g, 0xE13, 2, 1, 100_000);
        assert!(stoch.all_reached);
        assert!(stoch.moves <= worst.moves);
        assert!(stoch.rounds <= worst.rounds);
    }

    #[test]
    fn sdr_agreement_labels() {
        assert_eq!(sdr_agreement_spec(8).label(), "sdr-agreement(8)");
        assert_eq!(sdr_agreement_family(8).id(), "sdr-agreement(8)");
    }

    #[test]
    #[should_panic(expected = "not instantiable")]
    fn run_panics_without_instantiability_check() {
        let fam = composed("never", |_| None::<BoundedCounter>);
        let g = generators::path(2);
        let _ = fam.run(
            &g,
            &InitPlan::Normal,
            &Daemon::Central,
            seeds(),
            10.into(),
            None,
        );
    }
}
