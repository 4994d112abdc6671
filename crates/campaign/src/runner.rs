//! The default scenario runner: a registry lookup plus one generic
//! body.
//!
//! [`run_scenario`] expands a [`Scenario`] into one simulation run by
//! resolving its [`AlgorithmSpec`](crate::AlgorithmSpec) against the
//! standard [`FamilyRegistry`](ssr_runtime::family::FamilyRegistry)
//! and delegating to the family's
//! [`run`](ssr_runtime::family::Family::run). Nothing per-family lives
//! here: init-plan semantics, target, paper bounds and verdict checks
//! are the family's
//! [`TypedFamily`](ssr_runtime::family::TypedFamily) impl in its home
//! crate, and the measured-run protocol is the runtime's one generic
//! `Family::run`.
//! [`run_scenario_in`] is the same body against a caller-supplied
//! registry, which is how user-registered families run campaigns
//! without touching any workspace crate. [`Sweep`](crate::Sweep) runs
//! the body through [`run_scenario_probed`] with each worker's
//! [`GraphSlot`], so a run of scenarios on one seed-free topology and
//! size builds its graph, and computes its diameter, once.
//!
//! Custom probes (segment tracking, liveness windows, alliance
//! verification columns) belong to *callers*: run a campaign through
//! [`Sweep::map`](crate::Sweep::map) with your own runner, reusing
//! [`Scenario::seeds`] and [`TopologySpec::build`](crate::TopologySpec)
//! so the determinism contract carries over — and attach
//! `ssr_runtime::Observer`s to the `Execution` instead of hand-rolling
//! a stepping loop. For family-agnostic probes there is also the
//! type-erased [`FamilyProbe`](ssr_runtime::family::FamilyProbe) hook
//! on `Family::run` itself.

use ssr_graph::{metrics, Graph};
use ssr_runtime::family::{ExecBudget, FamilyProbe, FamilyRegistry, FamilyRunOutcome, RunSeeds};
use ssr_runtime::TerminationReason;

use crate::families;
use crate::scenario::{Scenario, TopologySpec};

// Historical home of this type; the runner still re-exports it.
pub use ssr_runtime::family::Verdict;

/// Flat result of one scenario run (serializable via
/// [`crate::output`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioRecord {
    /// Grid index of the scenario.
    pub index: usize,
    /// Campaign id (stamped by [`Sweep::run`](crate::Sweep::run); empty for
    /// records produced by custom runners).
    pub campaign: String,
    /// Topology label.
    pub topology: String,
    /// Nominal size.
    pub n: usize,
    /// Actual node count.
    pub nodes: u64,
    /// Edge count.
    pub edges: u64,
    /// Maximum degree.
    pub max_degree: u64,
    /// Diameter (≥ 1).
    pub diameter: u64,
    /// Algorithm label.
    pub algorithm: String,
    /// Daemon label.
    pub daemon: String,
    /// Init-plan label.
    pub init: String,
    /// Trial number.
    pub trial: u64,
    /// Scenario seed (for exact replay).
    pub seed: u64,
    /// Whether the target predicate was reached.
    pub reached: bool,
    /// Whether the final configuration is terminal.
    pub terminal: bool,
    /// Why the run stopped (cap exhaustion is explicit — never
    /// inferred from step counts); `None` for skipped scenarios that
    /// never ran.
    pub reason: Option<TerminationReason>,
    /// Steps executed.
    pub steps: u64,
    /// Total moves until the target was hit.
    pub moves: u64,
    /// Rounds until the target was hit.
    pub rounds: u64,
    /// Worst per-process move count: *SDR-rule* moves (Cor. 4's
    /// measure) for `sdr-agreement`, other `composed()` families and
    /// `unison-sdr`; all rules otherwise, `fga-sdr` included (its Thm 12
    /// bound is on total moves).
    pub max_moves_per_process: u64,
    /// Closed-form round bound, when the family has one.
    pub bound_rounds: Option<u64>,
    /// Closed-form move bound, when the family has one.
    pub bound_moves: Option<u64>,
    /// Bound-check outcome.
    pub verdict: Verdict,
}

impl ScenarioRecord {
    fn skeleton(sc: &Scenario, g: &Graph) -> Self {
        ScenarioRecord {
            index: sc.index,
            campaign: String::new(),
            topology: sc.topology.label(),
            n: sc.n,
            nodes: g.node_count() as u64,
            edges: g.edge_count() as u64,
            max_degree: g.max_degree() as u64,
            diameter: metrics::diameter(g).max(1) as u64,
            algorithm: sc.algorithm.label(),
            daemon: sc.daemon.label(),
            init: sc.init.label(),
            trial: sc.trial,
            seed: sc.seed,
            reached: false,
            terminal: false,
            reason: None,
            steps: 0,
            moves: 0,
            rounds: 0,
            max_moves_per_process: 0,
            bound_rounds: None,
            bound_moves: None,
            verdict: Verdict::Skip,
        }
    }

    fn apply(&mut self, out: &FamilyRunOutcome) {
        self.reached = out.reached;
        self.terminal = out.terminal;
        self.reason = Some(out.reason);
        self.steps = out.steps;
        self.moves = out.moves;
        self.rounds = out.rounds;
        self.max_moves_per_process = out.max_moves_per_process;
        self.bound_rounds = out.bound_rounds;
        self.bound_moves = out.bound_moves;
        self.verdict = out.verdict;
    }
}

/// A campaign worker's last-built graph, keyed on the topology and
/// size that built it.
///
/// A topology that does not draw from the seed
/// ([`TopologySpec::uses_seed`]) builds the same graph for every
/// scenario of one size, so the slot hands the graph it holds to the
/// next such scenario, with its memoized diameter. A seeded topology
/// builds afresh every time. The slot holds at most one graph: it is
/// emptied before the next one is built.
#[derive(Default)]
pub(crate) struct GraphSlot(Option<(TopologySpec, usize, Graph)>);

impl GraphSlot {
    /// The graph of `sc`, built from `seed` unless the slot already
    /// holds the seed-free graph of its topology and size.
    fn graph(&mut self, sc: &Scenario, seed: u64) -> &Graph {
        let reusable = !sc.topology.uses_seed()
            && matches!(&self.0, Some((t, n, _)) if *t == sc.topology && *n == sc.n);
        if !reusable {
            // The old graph goes before the next one is built.
            self.0 = None;
            self.0 = Some((sc.topology, sc.n, sc.topology.build(sc.n, seed)));
        }
        let (_, _, g) = self.0.as_ref().expect("the slot was just filled");
        g
    }
}

/// Runs one scenario to completion against the standard family
/// registry and checks the applicable paper bound. Pure: the record
/// depends only on the scenario (never on which thread runs it or
/// when).
pub fn run_scenario(sc: Scenario) -> ScenarioRecord {
    run_scenario_in(families::default_registry(), sc)
}

/// [`run_scenario`] against a caller-supplied registry — the body is
/// nothing but a lookup, an instantiability check, and the family's
/// own `run`. Unresolvable or non-instantiable scenarios come back
/// with [`Verdict::Skip`].
pub fn run_scenario_in(registry: &FamilyRegistry, sc: Scenario) -> ScenarioRecord {
    run_scenario_probed(registry, sc, None, &mut GraphSlot::default())
}

/// [`run_scenario_in`] with a [`FamilyProbe`] threaded through to the
/// family's measured execution — how the observability layer
/// ([`crate::obs`]) attaches trace sinks and metrics without touching
/// the record — and the graph taken from `graphs`. The record is
/// identical to the probe-less run on a fresh graph: probes observe,
/// they never steer, and the slot reuses only graphs that the seed
/// does not shape.
pub(crate) fn run_scenario_probed(
    registry: &FamilyRegistry,
    sc: Scenario,
    probe: Option<&mut dyn FamilyProbe>,
    graphs: &mut GraphSlot,
) -> ScenarioRecord {
    let [graph_seed, init_seed, sim_seed, fault_seed] = sc.seeds::<4>();
    let g = graphs.graph(&sc, graph_seed);
    let mut rec = ScenarioRecord::skeleton(&sc, g);
    let Some(family) = registry.resolve(&sc.algorithm) else {
        return rec; // Verdict::Skip
    };
    if !family.instantiable(g) {
        return rec; // Verdict::Skip
    }
    let out = family.run(
        g,
        &sc.init,
        &sc.daemon,
        RunSeeds {
            init: init_seed,
            sim: sim_seed,
            fault: fault_seed,
        },
        ExecBudget::steps(sc.step_cap).with_intra_threads(sc.intra_threads),
        probe,
    );
    rec.apply(&out);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;
    use crate::scenario::{AlgorithmSpec, Amount, InitPlan, PresetSpec, TopologySpec};
    use ssr_runtime::Daemon;

    fn sc(algorithm: AlgorithmSpec, init: InitPlan) -> Scenario {
        Scenario {
            index: 0,
            topology: TopologySpec::Ring,
            n: 8,
            algorithm,
            daemon: Daemon::RandomSubset { p: 0.5 },
            init,
            trial: 0,
            seed: 0xFEED,
            step_cap: 2_000_000,
            intra_threads: 1,
        }
    }

    #[test]
    fn sdr_agreement_passes_its_bounds() {
        let rec = run_scenario(sc(families::sdr_agreement(5), InitPlan::Arbitrary));
        assert_eq!(rec.verdict, Verdict::Pass, "{rec:?}");
        assert!(rec.reached);
        assert_eq!(rec.bound_rounds, Some(3 * rec.nodes));
    }

    #[test]
    fn unison_sdr_all_init_plans_pass() {
        for init in [
            InitPlan::Arbitrary,
            InitPlan::Normal,
            InitPlan::Tear { gap: Amount::HalfN },
            InitPlan::CorruptClocks {
                k: Amount::QuarterN,
            },
        ] {
            let rec = run_scenario(sc(families::unison_sdr(), init));
            assert_eq!(rec.verdict, Verdict::Pass, "{init:?}: {rec:?}");
        }
    }

    #[test]
    fn normal_init_is_instant_for_unison() {
        let rec = run_scenario(sc(families::unison_sdr(), InitPlan::Normal));
        assert_eq!(rec.moves, 0, "γ_init is already normal");
        assert_eq!(rec.rounds, 0);
    }

    #[test]
    fn cfg_baseline_reports_no_bound() {
        let rec = run_scenario(sc(families::cfg_unison(), InitPlan::Arbitrary));
        assert_eq!(rec.verdict, Verdict::NoBound);
        assert!(rec.reached, "small rings recover within the cap");
    }

    #[test]
    fn mono_reset_recovers_from_corruption() {
        let rec = run_scenario(sc(
            families::mono_reset(),
            InitPlan::CorruptClocks {
                k: Amount::Fixed(2),
            },
        ));
        assert_eq!(rec.verdict, Verdict::NoBound);
        assert!(rec.reached, "{rec:?}");
    }

    #[test]
    fn fga_families_terminate_within_bounds() {
        for algorithm in [
            families::fga_sdr(PresetSpec::Domination),
            families::fga_standalone(PresetSpec::Domination),
        ] {
            let rec = run_scenario(sc(algorithm.clone(), InitPlan::Arbitrary));
            assert_eq!(rec.verdict, Verdict::Pass, "{algorithm:?}: {rec:?}");
            assert!(rec.terminal);
        }
    }

    #[test]
    fn unknown_families_are_skipped_not_failed() {
        let rec = run_scenario(sc(AlgorithmSpec::plain("no-such-family"), InitPlan::Normal));
        assert_eq!(rec.verdict, Verdict::Skip);
        assert_eq!(rec.reason, None);
        assert_eq!(rec.algorithm, "no-such-family");
        assert!(rec.verdict.ok(), "skips never fail a campaign");
    }

    #[test]
    fn non_instantiable_presets_are_skipped() {
        // 2-domination needs δ ≥ 2 everywhere; a star's leaves fail.
        let mut scenario = sc(
            families::fga_sdr(PresetSpec::TwoDomination),
            InitPlan::Normal,
        );
        scenario.topology = TopologySpec::Star;
        let rec = run_scenario(scenario);
        assert_eq!(rec.verdict, Verdict::Skip);
    }

    #[test]
    fn record_is_independent_of_everything_but_the_scenario() {
        let a = run_scenario(sc(families::unison_sdr(), InitPlan::Arbitrary));
        let b = run_scenario(sc(families::unison_sdr(), InitPlan::Arbitrary));
        assert_eq!(a, b);
    }

    #[test]
    fn custom_registries_drive_the_same_body() {
        let registry = families::standard_families();
        let a = run_scenario_in(&registry, sc(families::unison_sdr(), InitPlan::Arbitrary));
        let b = run_scenario(sc(families::unison_sdr(), InitPlan::Arbitrary));
        assert_eq!(a, b);
    }
}
