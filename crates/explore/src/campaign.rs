//! Exhaustive mode for `ssr-campaign` scenarios: expand a declarative
//! [`Scenario`] into an exhaustive exploration instead of one
//! stochastic run.
//!
//! [`explore_scenario`] is a drop-in runner for
//! `ssr_campaign::Sweep::map`, mirroring how the stochastic
//! experiments drive the engine — the same topology/size/algorithm
//! axes, the same index-derived seeds, hence the same determinism
//! contract. Scenarios select their family through the **same
//! registry** as the stochastic runner; a family opts into exhaustive
//! sweeps with
//! [`TypedFamily::EXPLORES`](ssr_runtime::family::TypedFamily::EXPLORES),
//! and its [`ExploreFamily`](ssr_runtime::family::ExploreFamily) hook
//! ([`Family::explore`](ssr_runtime::family::Family::explore)) takes
//! the family's fixed *seed set* of initial configurations (the
//! designated `γ_init`, adversarial samples, and the structured
//! worst-case workloads), exhausts every daemon choice from all of
//! them, and reports the exact worst case next to the paper's
//! closed-form bound.
//!
//! [`stochastic_max`] runs the ordinary stochastic simulator over the
//! *same* initial configurations (all daemon strategies × trials) —
//! the observable maxima it returns are guaranteed to be dominated by
//! the exact worst case, which is exactly the cross-validation E13 and
//! the property tests assert.
//!
//! Families without the hook (`cfg-unison`, `mono-reset`, `fga:<…>`,
//! unregistered labels) return `None`, mirroring the `Verdict::Skip`
//! convention of the stochastic runner — and a family registered from
//! *outside* the workspace explores through the identical path (see
//! `examples/custom_family.rs`).

use ssr_campaign::{families, Scenario};
use ssr_graph::Graph;
use ssr_runtime::family::{ExploreReport, FamilyRegistry};

pub use ssr_runtime::family::StochasticMax;

use crate::ExploreOptions;

/// Options for scenario-level exhaustive runs.
#[derive(Clone, Debug)]
pub struct ScenarioExploreOptions {
    /// The underlying explorer configuration.
    pub explore: ExploreOptions,
    /// Number of adversarial (`arbitrary_config`) samples in the
    /// initial seed set, on top of `γ_init` and the structured
    /// worst-case workloads.
    pub init_samples: usize,
    /// Trials per daemon strategy for [`stochastic_max`].
    pub stochastic_trials: u64,
}

impl Default for ScenarioExploreOptions {
    fn default() -> Self {
        ScenarioExploreOptions {
            explore: ExploreOptions::default(),
            init_samples: 4,
            stochastic_trials: 2,
        }
    }
}

/// Flat result of one exhaustive scenario (the explorer's analogue of
/// `ScenarioRecord`).
#[derive(Clone, Debug, PartialEq)]
pub struct ExhaustiveRecord {
    /// Grid index of the scenario.
    pub index: usize,
    /// Topology label.
    pub topology: String,
    /// Nominal size.
    pub n: usize,
    /// Actual node count.
    pub nodes: u64,
    /// Algorithm label.
    pub algorithm: String,
    /// Daemon class explored.
    pub daemon_class: &'static str,
    /// Size of the initial seed set.
    pub init_count: usize,
    /// Distinct configurations reached.
    pub states: u64,
    /// Transitions enumerated.
    pub transitions: u64,
    /// Exact worst-case moves to legitimacy over every schedule.
    pub exact_moves: u64,
    /// Exact worst-case steps.
    pub exact_steps: u64,
    /// Exact worst-case rounds.
    pub exact_rounds: u64,
    /// The paper's closed-form move bound, where one exists.
    pub bound_moves: Option<u64>,
    /// The paper's closed-form round bound.
    pub bound_rounds: Option<u64>,
    /// Convergence + closure exhaustively verified.
    pub verified: bool,
    /// Exact worst cases within every applicable closed-form bound.
    pub within_bounds: bool,
    /// Both witness schedules replayed through `Execution`
    /// byte-identically (moves, steps, rounds, predicate hit).
    pub replay_ok: bool,
    /// The exploration failed (limits); the other fields are zeroed.
    pub error: Option<String>,
}

impl ExhaustiveRecord {
    /// Overall verdict of the row.
    pub fn ok(&self) -> bool {
        self.error.is_none() && self.verified && self.within_bounds && self.replay_ok
    }
}

/// Exhaustively explores a scenario's family through the standard
/// registry; `None` for families without an explore hook (mirroring
/// the `Verdict::Skip` convention of the stochastic runner) or not
/// instantiable on the scenario's graph. The seed-set construction is
/// owned by the family and shared with [`stochastic_max`] — both
/// always operate on identical initial configurations.
pub fn explore_scenario(sc: &Scenario, opts: &ScenarioExploreOptions) -> Option<ExhaustiveRecord> {
    explore_scenario_in(families::default_registry(), sc, opts)
}

/// [`explore_scenario`] against a caller-supplied registry — how
/// user-registered families run exhaustive sweeps without touching
/// any workspace crate.
pub fn explore_scenario_in(
    registry: &FamilyRegistry,
    sc: &Scenario,
    opts: &ScenarioExploreOptions,
) -> Option<ExhaustiveRecord> {
    let [graph_seed, _, _, _] = sc.seeds::<4>();
    let g = sc.topology.build(sc.n, graph_seed);
    let family = registry.resolve(&sc.algorithm)?;
    if !family.instantiable(&g) {
        return None;
    }
    let explorer = family.explore()?;
    let report = explorer.explore(&g, sc.seed, opts.init_samples, &opts.explore);
    let bounds = explorer.bounds(&g);
    Some(finish_record(sc, &g, report, bounds))
}

/// Runs the stochastic simulator over the scenario family's exhaustive
/// seed set: every `Daemon::all_strategies` entry ×
/// [`ScenarioExploreOptions::stochastic_trials`] trials per initial
/// configuration, reporting the observed maxima.
pub fn stochastic_max(sc: &Scenario, opts: &ScenarioExploreOptions) -> Option<StochasticMax> {
    stochastic_max_in(families::default_registry(), sc, opts)
}

/// [`stochastic_max`] against a caller-supplied registry.
pub fn stochastic_max_in(
    registry: &FamilyRegistry,
    sc: &Scenario,
    opts: &ScenarioExploreOptions,
) -> Option<StochasticMax> {
    let [graph_seed, _, _, _] = sc.seeds::<4>();
    let g = sc.topology.build(sc.n, graph_seed);
    let family = registry.resolve(&sc.algorithm)?;
    if !family.instantiable(&g) {
        return None;
    }
    let explorer = family.explore()?;
    Some(explorer.stochastic_max(
        &g,
        sc.seed,
        opts.init_samples,
        opts.stochastic_trials,
        sc.step_cap,
    ))
}

fn finish_record(
    sc: &Scenario,
    g: &Graph,
    report: ExploreReport,
    bounds: ssr_runtime::family::Bounds,
) -> ExhaustiveRecord {
    let (bound_moves, bound_rounds) = (bounds.moves, bounds.rounds);
    let mut rec = ExhaustiveRecord {
        index: sc.index,
        topology: sc.topology.label(),
        n: sc.n,
        nodes: g.node_count() as u64,
        algorithm: sc.algorithm.label(),
        daemon_class: report.daemon_class,
        init_count: report.init_count,
        states: 0,
        transitions: 0,
        exact_moves: 0,
        exact_steps: 0,
        exact_rounds: 0,
        bound_moves,
        bound_rounds,
        verified: false,
        within_bounds: false,
        replay_ok: false,
        error: None,
    };
    match report.result {
        Err(err) => rec.error = Some(err.to_string()),
        Ok((summary, replay_ok)) => {
            rec.states = summary.states;
            rec.transitions = summary.transitions;
            rec.verified = summary.verified;
            rec.replay_ok = replay_ok;
            if let Some(w) = summary.worst {
                rec.exact_moves = w.moves;
                rec.exact_steps = w.steps;
                rec.exact_rounds = w.rounds;
                rec.within_bounds = bound_moves.is_none_or(|b| w.moves <= b)
                    && bound_rounds.is_none_or(|b| w.rounds <= b);
            }
        }
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExploreOptions;
    use ssr_campaign::{AlgorithmSpec, InitPlan, TopologySpec};
    use ssr_runtime::Daemon;

    fn scenario(topology: TopologySpec, n: usize, algorithm: AlgorithmSpec) -> Scenario {
        Scenario {
            index: 0,
            topology,
            n,
            algorithm,
            daemon: Daemon::Central,
            init: InitPlan::Arbitrary,
            trial: 0,
            seed: 0xE13,
            step_cap: 1_000_000,
            intra_threads: 1,
        }
    }

    #[test]
    fn sdr_agreement_scenario_verifies_exactly() {
        let sc = scenario(TopologySpec::Path, 4, families::sdr_agreement(2));
        let rec = explore_scenario(&sc, &ScenarioExploreOptions::default()).expect("supported");
        assert!(rec.ok(), "{rec:?}");
        assert!(rec.exact_rounds <= rec.bound_rounds.unwrap());
        assert!(rec.exact_moves <= rec.bound_moves.unwrap());
        assert!(rec.states > 0);
    }

    #[test]
    fn stochastic_maxima_dominated_by_exact_worst_case() {
        let sc = scenario(TopologySpec::Star, 4, families::sdr_agreement(2));
        let opts = ScenarioExploreOptions::default();
        let rec = explore_scenario(&sc, &opts).unwrap();
        let stoch = stochastic_max(&sc, &opts).unwrap();
        assert!(rec.ok(), "{rec:?}");
        assert!(stoch.all_reached);
        assert!(stoch.moves <= rec.exact_moves, "{stoch:?} vs {rec:?}");
        assert!(stoch.rounds <= rec.exact_rounds, "{stoch:?} vs {rec:?}");
    }

    #[test]
    fn unsupported_families_are_skipped() {
        let sc = scenario(TopologySpec::Ring, 4, families::cfg_unison());
        assert!(explore_scenario(&sc, &ScenarioExploreOptions::default()).is_none());
        assert!(stochastic_max(&sc, &ScenarioExploreOptions::default()).is_none());
        let sc = scenario(TopologySpec::Ring, 4, AlgorithmSpec::plain("unregistered"));
        assert!(explore_scenario(&sc, &ScenarioExploreOptions::default()).is_none());
    }

    #[test]
    fn state_space_limit_reports_an_error_row() {
        let sc = scenario(TopologySpec::Ring, 5, families::unison_sdr());
        let opts = ScenarioExploreOptions {
            explore: ExploreOptions {
                max_states: 10,
                ..ExploreOptions::default()
            },
            ..ScenarioExploreOptions::default()
        };
        let rec = explore_scenario(&sc, &opts).unwrap();
        assert!(rec.error.is_some());
        assert!(!rec.ok());
    }
}
