//! First-class **algorithm families**: the open, string-addressable
//! registry behind every campaign, experiment, and exhaustive sweep.
//!
//! The paper's headline result is that SDR is a *transformer*: it
//! composes with **any** input algorithm satisfying §3.5, not just the
//! two published instantiations. This module makes that generality a
//! property of the API. A [`Family`] is an object-safe description of
//! one runnable algorithm family — its identity ([`Family::id`]),
//! instantiability on a graph, closed-form paper bounds, and a
//! [`Family::run`] entry point. Families register in a
//! [`FamilyRegistry`] under string keys; an [`AlgorithmSpec`] is just a
//! parsed label (`family` + optional `params`) resolved against a
//! registry at run time.
//!
//! Each family is written once, against its concrete algorithm, as a
//! [`TypedFamily`]; blanket impls derive the erased [`Family`],
//! [`ExploreFamily`] and [`AnalyzeFamily`] from it. Erasure stops at
//! the `Family::run` boundary: the one driver is generic over the
//! algorithm, so the step loop is monomorphized.
//!
//! The split of responsibilities:
//!
//! * this module owns the *vocabulary* and the one driver —
//!   [`TypedFamily`], [`Family`], [`FamilyRegistry`], [`AlgorithmSpec`],
//!   [`InitPlan`]/[`Amount`], [`Verdict`], [`FamilyRunOutcome`], and the
//!   erased exploration hook [`ExploreFamily`];
//! * each algorithm crate implements its own families next to the
//!   algorithm (`ssr-core` for SDR compositions via `composed()`,
//!   `ssr-unison`, `ssr-alliance`, `ssr-baselines`);
//! * `ssr-campaign` ships the `standard_families()` builder assembling
//!   the default registry, and its `run_scenario` is nothing but a
//!   registry lookup plus one generic body.
//!
//! Registering your own family requires **no edits to any workspace
//! crate** — see `examples/custom_family.rs` at the repository root.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use ssr_graph::Graph;

use crate::analysis::{
    audit_runs, collect_footprints, AnalyzeFamily, AnalyzeOptions, GraphAnalysis, RngAudit,
};
use crate::exhaustive::{
    explore, Exploration, ExploreError, ExploreOptions, ExploreState, WorstCase,
};
use crate::rng::splitmix64;
use crate::{
    Algorithm, ConfigView, Daemon, Execution, Observer, RunOutcome, Simulator, TerminationReason,
};

// ---------------------------------------------------------------------
// Scenario vocabulary shared by every family
// ---------------------------------------------------------------------

/// A size-relative quantity (fault count, tear gap) resolved against
/// the actual node count at execution time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Amount {
    /// A fixed value.
    Fixed(u64),
    /// `max(n/4, 1)`.
    QuarterN,
    /// `max(n/2, 1)`.
    HalfN,
    /// `n`.
    N,
}

impl Amount {
    /// Resolves against node count `n`.
    pub fn resolve(&self, n: u64) -> u64 {
        match self {
            Amount::Fixed(v) => *v,
            Amount::QuarterN => (n / 4).max(1),
            Amount::HalfN => (n / 2).max(1),
            Amount::N => n,
        }
    }

    /// Symbolic label (size-independent).
    pub fn label(&self) -> String {
        match self {
            Amount::Fixed(v) => v.to_string(),
            Amount::QuarterN => "n/4".into(),
            Amount::HalfN => "n/2".into(),
            Amount::N => "n".into(),
        }
    }

    /// Parses a [`Amount::label`] rendering back (`None` on anything
    /// else).
    pub fn parse_label(s: &str) -> Option<Amount> {
        match s {
            "n/4" => Some(Amount::QuarterN),
            "n/2" => Some(Amount::HalfN),
            "n" => Some(Amount::N),
            _ => s.parse::<u64>().ok().map(Amount::Fixed),
        }
    }
}

/// How the initial configuration of a run is produced.
///
/// Plans that are meaningless for a given algorithm family degrade
/// gracefully: families without an arbitrary-configuration sampler use
/// their `γ_init`, and `Tear`/`CorruptClocks` fall back to `Arbitrary`
/// outside the unison families (each [`Family`] documents its exact
/// rules).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InitPlan {
    /// The algorithm's arbitrary-configuration sampler (transient-fault
    /// soup) — the self-stabilization quantifier.
    Arbitrary,
    /// The algorithm's designated initial configuration (`γ_init` /
    /// all-zero clocks).
    Normal,
    /// A maximal legal clock gradient with a discontinuity of `gap`
    /// in the middle (unison families).
    Tear {
        /// Size of the clock discontinuity.
        gap: Amount,
    },
    /// Start legitimate, let the system run briefly, then corrupt `k`
    /// random clocks and measure recovery (unison families).
    CorruptClocks {
        /// Number of corrupted processes.
        k: Amount,
    },
}

impl InitPlan {
    /// Short label used in records and report tables.
    pub fn label(&self) -> String {
        match self {
            InitPlan::Arbitrary => "arbitrary".into(),
            InitPlan::Normal => "normal".into(),
            InitPlan::Tear { gap } => format!("tear({})", gap.label()),
            InitPlan::CorruptClocks { k } => format!("corrupt({})", k.label()),
        }
    }

    /// Parses a [`InitPlan::label`] rendering back — the inverse used
    /// by campaign-spec deserialization (`None` on anything else).
    pub fn parse_label(s: &str) -> Option<InitPlan> {
        match s {
            "arbitrary" => return Some(InitPlan::Arbitrary),
            "normal" => return Some(InitPlan::Normal),
            _ => {}
        }
        let inner = |prefix: &str| {
            s.strip_prefix(prefix)
                .and_then(|r| r.strip_prefix('('))
                .and_then(|r| r.strip_suffix(')'))
                .and_then(Amount::parse_label)
        };
        if let Some(gap) = inner("tear") {
            return Some(InitPlan::Tear { gap });
        }
        inner("corrupt").map(|k| InitPlan::CorruptClocks { k })
    }
}

/// Outcome of checking a run against its closed-form bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The run reached its target within every applicable bound.
    Pass,
    /// The run missed its target or violated a bound.
    Fail,
    /// The run reached its target; no closed-form bound applies
    /// (baseline families).
    NoBound,
    /// The scenario is not instantiable (e.g. an (f,g) preset invalid
    /// on this graph, or an unregistered family) and was skipped.
    Skip,
}

impl Verdict {
    /// Whether the record counts against a campaign's overall pass.
    pub fn ok(&self) -> bool {
        !matches!(self, Verdict::Fail)
    }

    /// The verdict's name, as records spell it.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::NoBound => "no-bound",
            Verdict::Skip => "skip",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Verdict {
    type Err = String;

    /// Parses the [`fmt::Display`] rendering back — used when replaying
    /// persisted records (checkpoints) into memory.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pass" => Ok(Verdict::Pass),
            "fail" => Ok(Verdict::Fail),
            "no-bound" => Ok(Verdict::NoBound),
            "skip" => Ok(Verdict::Skip),
            other => Err(format!("unknown verdict {other:?}")),
        }
    }
}

/// Closed-form paper bounds of a family on a concrete graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bounds {
    /// Round bound, when one exists.
    pub rounds: Option<u64>,
    /// Move bound, when one exists.
    pub moves: Option<u64>,
}

impl Bounds {
    /// No closed-form bound (baseline families).
    pub const NONE: Bounds = Bounds {
        rounds: None,
        moves: None,
    };
}

/// The seed bundle a family's [`Family::run`] receives — the three
/// scenario sub-seeds that remain after the caller consumed the graph
/// seed (`Scenario::seeds::<4>()` order: graph, init, sim, fault).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSeeds {
    /// Seed for the initial-configuration sampler.
    pub init: u64,
    /// Seed for the simulator's daemon RNG.
    pub sim: u64,
    /// Seed for fault injection (corrupt-clocks plans).
    pub fault: u64,
}

/// The execution budget of one [`Family::run`]: the step cap plus the
/// intra-run worker count for the step pipeline's kernels.
///
/// `From<u64>` keeps call sites terse — `fam.run(g, init, daemon,
/// seeds, 10_000.into(), None)` — while campaigns thread a per-scenario
/// thread count through [`ExecBudget::with_intra_threads`].
///
/// # Examples
///
/// ```
/// use ssr_runtime::ExecBudget;
///
/// let b = ExecBudget::steps(10_000);
/// assert_eq!((b.cap, b.intra_threads), (10_000, 1));
/// let b = b.with_intra_threads(4);
/// assert_eq!(b.intra_threads, 4);
/// assert_eq!(ExecBudget::from(500).cap, 500);
/// assert_eq!(ExecBudget::steps(1).with_intra_threads(0).intra_threads, 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecBudget {
    /// Step cap for the measured run.
    pub cap: u64,
    /// Scoped worker threads for the apply/guard kernels (1 =
    /// sequential; runs are byte-identical at any value).
    pub intra_threads: usize,
}

impl ExecBudget {
    /// A sequential budget of `cap` steps.
    pub fn steps(cap: u64) -> Self {
        ExecBudget {
            cap,
            intra_threads: 1,
        }
    }

    /// Sets the intra-run worker count (clamped to ≥ 1).
    #[must_use]
    pub fn with_intra_threads(mut self, threads: usize) -> Self {
        self.intra_threads = threads.max(1);
        self
    }
}

impl From<u64> for ExecBudget {
    fn from(cap: u64) -> Self {
        ExecBudget::steps(cap)
    }
}

/// Flat, family-agnostic result of one [`Family::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FamilyRunOutcome {
    /// Whether the family's target predicate was reached.
    pub reached: bool,
    /// Whether the final configuration is terminal.
    pub terminal: bool,
    /// Why the run stopped.
    pub reason: TerminationReason,
    /// Steps of the measured run. A warm-up phase (the `CorruptClocks`
    /// plans) ends by zeroing the simulator's counters, so its steps are
    /// not included.
    pub steps: u64,
    /// Total moves until the target was hit.
    pub moves: u64,
    /// Rounds until the target was hit.
    pub rounds: u64,
    /// Worst per-process move count ([`TypedFamily::moves_per_process`]):
    /// SDR-rule moves (Cor. 4's measure) for `composed()` families and
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

// ---------------------------------------------------------------------
// Probes: type-erased trajectory hooks through the family boundary
// ---------------------------------------------------------------------

/// A type-erased trajectory probe attachable to any [`Family::run`].
///
/// Families erase their `Algorithm::State`, so a probe sees the
/// family-agnostic events only: step progress and the final
/// [`RunOutcome`]. Typed probes (segment tracking, alliance
/// verification, liveness windows) stay what they always were —
/// [`Observer`]s attached by callers that construct the concrete
/// algorithm themselves.
pub trait FamilyProbe {
    /// Called after every step of the measured run: cumulative steps
    /// so far and the number of processes activated in this step.
    fn on_step(&mut self, steps: u64, activated: usize) {
        let _ = (steps, activated);
    }

    /// Called once when the measured run ends.
    fn on_run_end(&mut self, outcome: &RunOutcome) {
        let _ = outcome;
    }

    /// A [`TraceSink`](crate::trace::TraceSink) for the *measured*
    /// execution, installed after any warm-up phase. Default `None`: no
    /// tracing through the family boundary.
    fn make_trace_sink(&mut self) -> Option<Box<dyn crate::trace::TraceSink>> {
        None
    }

    /// Hands the sink from [`FamilyProbe::make_trace_sink`] back after
    /// the measured execution, with everything it recorded (use
    /// [`TraceSink::as_any_mut`](crate::trace::TraceSink::as_any_mut)
    /// to recover the concrete type). Default: drop it.
    fn collect_trace_sink(&mut self, sink: Box<dyn crate::trace::TraceSink>) {
        let _ = sink;
    }
}

/// Installs the trace sink `probe` makes, if any, on `sim`: the first
/// half of the pair [`Family::run`] wraps its measured execution in,
/// for runners that drive a [`Simulator`] themselves. Everything `sim`
/// executes until [`collect_probe_sink`] reaches the sink.
pub fn install_probe_sink<A: Algorithm>(probe: &mut dyn FamilyProbe, sim: &mut Simulator<'_, A>) {
    if let Some(sink) = probe.make_trace_sink() {
        sim.set_trace_sink(sink);
    }
}

/// Hands the sink [`install_probe_sink`] installed on `sim` back to
/// `probe` ([`FamilyProbe::collect_trace_sink`]); nothing when `sim`
/// holds none.
pub fn collect_probe_sink<A: Algorithm>(probe: &mut dyn FamilyProbe, sim: &mut Simulator<'_, A>) {
    if let Some(sink) = sim.take_trace_sink() {
        probe.collect_trace_sink(sink);
    }
}

/// Bridges an optional erased [`FamilyProbe`] onto the typed
/// [`Observer`] hooks — the adapter the generic [`Family::run`] of
/// every [`TypedFamily`] attaches to the measured execution.
struct ProbeBridge<'p>(Option<&'p mut dyn FamilyProbe>);

impl<A: Algorithm> Observer<A> for ProbeBridge<'_> {
    fn on_step(&mut self, sim: &Simulator<'_, A>, outcome: &crate::StepOutcome) {
        if let Some(probe) = self.0.as_deref_mut() {
            if let crate::StepOutcome::Progress { activated } = outcome {
                // `TypedFamily::start` zeroes the counters: they count
                // the measured run.
                probe.on_step(sim.stats().steps, *activated);
            }
        }
    }

    fn on_run_end(&mut self, _sim: &Simulator<'_, A>, outcome: &RunOutcome) {
        if let Some(probe) = self.0.as_deref_mut() {
            probe.on_run_end(outcome);
        }
    }
}

// ---------------------------------------------------------------------
// The Family trait
// ---------------------------------------------------------------------

/// An object-safe, registrable algorithm family.
///
/// A family owns everything a campaign needs to turn a declarative
/// scenario into numbers: identity, instantiability, init-plan
/// semantics, the closed-form paper bounds, the bound-check verdict,
/// and the run loop itself. Families implement [`TypedFamily`] and get
/// this trait from its blanket impl, whose `run` constructs the
/// concrete algorithm and drives a fully monomorphized [`Execution`],
/// so the per-step cost is identical to calling the simulator
/// directly.
pub trait Family: Send + Sync {
    /// Stable identifier; for registered families this equals the
    /// label the registry resolves (e.g. `unison-sdr`,
    /// `fga-sdr:domination(1,0)`).
    fn id(&self) -> &str;

    /// Display label for records and tables (defaults to [`Family::id`]).
    fn label(&self) -> String {
        self.id().to_string()
    }

    /// Whether the family can be instantiated on `graph` (e.g. an
    /// (f,g) preset's degree requirement). Non-instantiable scenarios
    /// are skipped, not failed.
    fn instantiable(&self, graph: &Graph) -> bool {
        let _ = graph;
        true
    }

    /// The family's closed-form paper bounds on `graph`
    /// ([`Bounds::NONE`] for baselines).
    fn bounds(&self, graph: &Graph) -> Bounds {
        let _ = graph;
        Bounds::NONE
    }

    /// Runs one scenario to completion: builds the initial
    /// configuration per `init`, drives the run under `daemon` within
    /// `budget.cap` steps (on `budget.intra_threads` intra-run
    /// workers), and reports the flat outcome with the bound-check
    /// verdict filled in.
    fn run(
        &self,
        graph: &Graph,
        init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
        budget: ExecBudget,
        probe: Option<&mut dyn FamilyProbe>,
    ) -> FamilyRunOutcome;

    /// Checks the §3.5 requirements of the family's input algorithm on
    /// `graph`, when the family is an SDR composition. `None` means
    /// the family is not composed (nothing to check); `Some(Err(_))`
    /// means a mis-registered input — the cross-crate requirement
    /// test fails loudly on it.
    fn requirements(&self, graph: &Graph) -> Option<Result<(), String>> {
        let _ = graph;
        None
    }

    /// The family's exhaustive-exploration hook ([`TypedFamily`]s with
    /// [`TypedFamily::EXPLORES`]). `None` opts the family out of
    /// `ssr-explore` sweeps (they skip it, mirroring [`Verdict::Skip`]).
    fn explore(&self) -> Option<&dyn ExploreFamily> {
        None
    }

    /// The family's soundness-analysis hook ([`AnalyzeFamily`]; every
    /// [`TypedFamily`] has one). `None` means the family's
    /// locality/commutativity/RNG obligations cannot be certified —
    /// `ssr-analyze` reports that as an error.
    fn analysis(&self) -> Option<&dyn AnalyzeFamily> {
        None
    }
}

// ---------------------------------------------------------------------
// The erased exploration hook
// ---------------------------------------------------------------------

/// Exhaustive exploration surfaced through the family boundary.
///
/// The blanket impl over [`TypedFamily`] builds the family's canonical
/// *seed set* of initial configurations ([`TypedFamily::seed_set`]:
/// `γ_init`, the structured worst-case workloads, and `samples`
/// adversarial draws from [`explore_sample_seeds`]) and drives the
/// generic [`explore`](crate::exhaustive::explore()) engine plus the
/// stochastic cross-check over exactly that set, toward the family's
/// [`Target`], so "stochastic maxima ≤ exact worst case" is sound by
/// construction.
pub trait ExploreFamily: Send + Sync {
    /// The closed-form `(moves, rounds)` bounds the exact worst cases
    /// are checked against (may differ from [`Family::bounds`]: e.g.
    /// pure SDR has a *total*-move bound only when the input has no
    /// rules of its own).
    fn bounds(&self, graph: &Graph) -> Bounds;

    /// Exhausts every schedule of the selected daemon class from the
    /// canonical seed set, validating worst-case witnesses by replay.
    fn explore(
        &self,
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
        opts: &ExploreOptions,
    ) -> ExploreReport;

    /// Runs the stochastic simulator over the same seed set — every
    /// [`Daemon::all_strategies`] entry × `trials` trials per initial
    /// configuration — reporting the observed maxima.
    fn stochastic_max(
        &self,
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
        trials: u64,
        cap: u64,
    ) -> StochasticMax;
}

/// The type-erased result of one [`ExploreFamily::explore`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreReport {
    /// Size of the initial seed set.
    pub init_count: usize,
    /// Daemon class label that was exhausted.
    pub daemon_class: &'static str,
    /// The erased exploration summary and whether both worst-case
    /// witnesses replayed byte-identically, or the limit error.
    pub result: Result<(ExploreSummary, bool), ExploreError>,
}

/// The type-erased part of an [`Exploration`] a scenario record needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreSummary {
    /// Distinct configurations reached.
    pub states: u64,
    /// Transitions enumerated.
    pub transitions: u64,
    /// Convergence + closure exhaustively verified.
    pub verified: bool,
    /// Exact worst case, when the illegitimate region is well-founded.
    pub worst: Option<WorstCase>,
}

/// Observed maxima of stochastic runs over a family's exhaustive seed
/// set (see [`ExploreFamily::stochastic_max`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StochasticMax {
    /// Maximum moves to legitimacy over all runs.
    pub moves: u64,
    /// Maximum rounds over all runs.
    pub rounds: u64,
    /// Whether every run reached legitimacy within the step cap.
    pub all_reached: bool,
    /// Number of runs performed.
    pub runs: usize,
}

/// Seeds for a family's adversarial exploration samples, derived from
/// the scenario seed — shared by [`ExploreFamily::explore`] and
/// [`ExploreFamily::stochastic_max`] so both operate on the identical
/// initial seed set.
pub fn explore_sample_seeds(scenario_seed: u64, samples: usize) -> Vec<u64> {
    let mut state = scenario_seed ^ 0xE13_5EED;
    (0..samples).map(|_| splitmix64(&mut state)).collect()
}

fn summarize<S>(ex: &Exploration<S>) -> ExploreSummary {
    ExploreSummary {
        states: ex.states as u64,
        transitions: ex.transitions as u64,
        verified: ex.verified(),
        worst: ex.worst,
    }
}

// ---------------------------------------------------------------------
// TypedFamily: what differs between families
// ---------------------------------------------------------------------

/// What a family's runs drive toward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// The legitimacy term of [`Algorithm::guard`] holds at every node
    /// (runs stop with [`Execution::until_legitimate`]).
    Legitimate,
    /// No process is enabled (runs go to termination): the target of
    /// silent families, whose legitimate configurations are terminal.
    Terminal,
}

impl Target {
    /// Whether `states` is on target, decided from the whole
    /// configuration — the predicate of the explorer and the witness
    /// replays. It holds exactly when a run toward the target stops.
    fn holds<A: Algorithm>(self, algo: &A, graph: &Graph, states: &[A::State]) -> bool {
        let view = ConfigView::new(graph, states);
        match self {
            Target::Legitimate => graph.nodes().all(|u| algo.guard(u, &view).legit),
            Target::Terminal => graph
                .nodes()
                .all(|u| algo.enabled_mask(u, &view).is_empty()),
        }
    }

    /// Drives `exec` until the target holds, the configuration is
    /// terminal, or the cap runs out.
    fn run<A: Algorithm, O: Observer<A>>(self, exec: Execution<'_, '_, A, O>) -> RunOutcome {
        match self {
            Target::Legitimate => exec.until_legitimate().run(),
            Target::Terminal => exec.run(),
        }
    }
}

/// A family written against its concrete algorithm: the one trait the
/// workspace's families implement, holding only what differs between
/// them.
///
/// Blanket impls derive the rest: [`Family`], whose one generic
/// [`Family::run`] owns the probe bridge, the trace handoff, the stop
/// condition, the bounds and the verdict; [`ExploreFamily`], the
/// exhaustive and stochastic sweeps of the seed set toward
/// [`TypedFamily::TARGET`]; and [`AnalyzeFamily`], footprints and the
/// replay audit over the same seed set. A run's verdict is
/// [`Verdict::NoBound`] without [`TypedFamily::paper_bounds`], else
/// [`Verdict::Pass`] iff the run reached its target within every stated
/// bound and [`TypedFamily::verdict_check`] holds.
///
/// `UnisonSdrFamily` (`crates/unison/src/family.rs`) is the template;
/// `ssr_core::family::composed` wraps any `ResetInput` into one.
pub trait TypedFamily: Send + Sync {
    /// The algorithm the family runs.
    type Algo: Algorithm<State: ExploreState + Send + Sync> + Clone + Send + Sync;

    /// What the measured run, the explorer, the witness replays and the
    /// stochastic cross-check drive toward.
    const TARGET: Target = Target::Legitimate;

    /// Whether `ssr-explore` sweeps the family ([`Family::explore`]).
    const EXPLORES: bool = false;

    /// The stable identifier ([`Family::id`]; the methods here are
    /// named apart from `Family`'s so both traits can be in scope).
    fn family_id(&self) -> &str;

    /// The algorithm on `graph`, or `None` when the family cannot be
    /// instantiated there ([`Family::instantiable`]).
    fn build(&self, graph: &Graph) -> Option<Self::Algo>;

    /// The simulator a measured run starts from under `init`, with
    /// `algo` built on `graph`, scheduled by `daemon` and seeded by
    /// `seeds.sim`: the plan's configuration, and for `CorruptClocks`
    /// the warm-up and the corruption (drawing from `seeds.fault`),
    /// ending with the counters zeroed.
    fn start<'g>(
        &self,
        graph: &'g Graph,
        algo: Self::Algo,
        init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
    ) -> Simulator<'g, Self::Algo>;

    /// The closed-form paper bounds on `graph` ([`Family::bounds`];
    /// default [`Bounds::NONE`], verdict [`Verdict::NoBound`]).
    fn paper_bounds(&self, graph: &Graph) -> Bounds {
        let _ = graph;
        Bounds::NONE
    }

    /// The bounds exact worst cases are checked against
    /// ([`ExploreFamily::bounds`]; default [`TypedFamily::paper_bounds`]).
    fn explore_bounds(&self, graph: &Graph) -> Bounds {
        self.paper_bounds(graph)
    }

    /// The worst per-process move count of a finished run (default:
    /// over all rules).
    fn moves_per_process(&self, sim: &Simulator<'_, Self::Algo>) -> u64 {
        sim.stats().max_moves_per_process()
    }

    /// A family-specific verdict condition on the finished run, on top
    /// of the target and the bounds (default: none).
    fn verdict_check(&self, sim: &Simulator<'_, Self::Algo>) -> bool {
        let _ = sim;
        true
    }

    /// The canonical seed set on `graph`: the initial configurations
    /// the explorer exhausts, the stochastic cross-check samples, and
    /// the analyzer closes under single moves. `samples` adversarial
    /// draws derive from `scenario_seed` ([`explore_sample_seeds`]).
    fn seed_set(
        &self,
        graph: &Graph,
        algo: &Self::Algo,
        scenario_seed: u64,
        samples: usize,
    ) -> Vec<Vec<<Self::Algo as Algorithm>::State>>;

    /// The §3.5 requirements check of the family's input algorithm
    /// ([`Family::requirements`]; default `None`: not composed).
    fn check_requirements(&self, graph: &Graph) -> Option<Result<(), String>> {
        let _ = graph;
        None
    }
}

/// The family's algorithm on a graph its caller checked.
fn instance<F: TypedFamily>(family: &F, graph: &Graph) -> F::Algo {
    family.build(graph).unwrap_or_else(|| {
        panic!(
            "family {:?} run on a graph it is not instantiable on \
             (callers must check Family::instantiable first)",
            family.family_id()
        )
    })
}

impl<F: TypedFamily> Family for F {
    fn id(&self) -> &str {
        self.family_id()
    }

    fn instantiable(&self, graph: &Graph) -> bool {
        self.build(graph).is_some()
    }

    fn bounds(&self, graph: &Graph) -> Bounds {
        self.paper_bounds(graph)
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
        let mut sim = self.start(graph, instance(self, graph), init, daemon, seeds);
        // The probe's trace sink records the measured run alone, after
        // any warm-up phase of `start`.
        let mut bridge = ProbeBridge(probe);
        if let Some(probe) = bridge.0.as_deref_mut() {
            install_probe_sink(probe, &mut sim);
        }
        sim.set_intra_threads(budget.intra_threads);
        let out = F::TARGET.run(sim.execution().cap(budget.cap).observe(&mut bridge));
        if let Some(probe) = bridge.0.as_deref_mut() {
            collect_probe_sink(probe, &mut sim);
        }
        let bounds = self.paper_bounds(graph);
        let within = |bound: Option<u64>, value| bound.is_none_or(|b| value <= b);
        let verdict = if bounds == Bounds::NONE {
            Verdict::NoBound
        } else if out.reached
            && within(bounds.rounds, out.rounds_at_hit)
            && within(bounds.moves, out.moves_at_hit)
            && self.verdict_check(&sim)
        {
            Verdict::Pass
        } else {
            Verdict::Fail
        };
        FamilyRunOutcome {
            reached: out.reached,
            terminal: out.terminal,
            reason: out.reason,
            steps: sim.stats().steps,
            moves: out.moves_at_hit,
            rounds: out.rounds_at_hit,
            max_moves_per_process: self.moves_per_process(&sim),
            bound_rounds: bounds.rounds,
            bound_moves: bounds.moves,
            verdict,
        }
    }

    fn requirements(&self, graph: &Graph) -> Option<Result<(), String>> {
        self.check_requirements(graph)
    }

    fn explore(&self) -> Option<&dyn ExploreFamily> {
        // A branch on a constant: a family that does not explore never
        // instantiates the explorer.
        if F::EXPLORES {
            Some(self)
        } else {
            None
        }
    }

    fn analysis(&self) -> Option<&dyn AnalyzeFamily> {
        Some(self)
    }
}

impl<F: TypedFamily> ExploreFamily for F {
    fn bounds(&self, graph: &Graph) -> Bounds {
        self.explore_bounds(graph)
    }

    fn explore(
        &self,
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
        opts: &ExploreOptions,
    ) -> ExploreReport {
        let algo = instance(self, graph);
        let inits = self.seed_set(graph, &algo, scenario_seed, samples);
        let on_target = |g: &Graph, st: &[_]| F::TARGET.holds(&algo, g, st);
        let result = explore(graph, &algo, &inits, on_target, opts).map(|ex| {
            // Both worst-case witnesses must replay byte-identically.
            let replay_ok = [&ex.witness_moves, &ex.witness_rounds]
                .into_iter()
                .flatten()
                .all(|w| {
                    w.matches(&w.replay(graph, algo.clone(), inits[w.init].clone(), on_target))
                });
            (summarize(&ex), replay_ok)
        });
        ExploreReport {
            init_count: inits.len(),
            daemon_class: opts.daemon.label(),
            result,
        }
    }

    /// One RNG stream (keyed off `scenario_seed`) spans the whole
    /// `inits × strategies × trials` nest, so results are a pure
    /// function of the scenario.
    fn stochastic_max(
        &self,
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
        trials: u64,
        cap: u64,
    ) -> StochasticMax {
        let algo = instance(self, graph);
        let mut max = StochasticMax {
            all_reached: true,
            ..StochasticMax::default()
        };
        let mut seed_state = scenario_seed ^ 0x570C_4A57;
        for init in self.seed_set(graph, &algo, scenario_seed, samples) {
            for daemon in Daemon::all_strategies() {
                for _ in 0..trials {
                    let seed = splitmix64(&mut seed_state);
                    let mut sim =
                        Simulator::new(graph, algo.clone(), init.clone(), daemon.clone(), seed);
                    let out = F::TARGET.run(sim.execution().cap(cap));
                    max.runs += 1;
                    max.all_reached &= out.reached;
                    if out.reached {
                        max.moves = max.moves.max(out.moves_at_hit);
                        max.rounds = max.rounds.max(out.rounds_at_hit);
                    }
                }
            }
        }
        max
    }
}

impl<F: TypedFamily> AnalyzeFamily for F {
    fn footprints(&self, graph: &Graph, graph_name: &str, opts: &AnalyzeOptions) -> GraphAnalysis {
        let algo = instance(self, graph);
        let inits = self.seed_set(graph, &algo, opts.scenario_seed, opts.samples);
        collect_footprints(graph, graph_name, &algo, &inits, opts)
    }

    fn audit(&self, graph: &Graph, opts: &AnalyzeOptions) -> RngAudit {
        let algo = instance(self, graph);
        let inits = self.seed_set(graph, &algo, opts.scenario_seed, opts.samples);
        audit_runs(graph, &algo, &inits, opts)
    }
}

// ---------------------------------------------------------------------
// AlgorithmSpec: the parsed, registry-addressable label
// ---------------------------------------------------------------------

/// How an [`AlgorithmSpec`]'s parameters attach to its family key in
/// the printed label.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Params {
    /// No parameters: the label is the family key itself.
    None,
    /// Parenthesized suffix: `family(params)` (e.g. `sdr-agreement(8)`).
    Paren(String),
    /// Colon suffix: `family:params` (e.g. `fga-sdr:domination(1,0)`).
    Colon(String),
}

/// A thin, string-addressable handle naming one algorithm family plus
/// its parameters — the open replacement for the former closed enum.
///
/// A spec is plain data: it resolves to a runnable [`Family`] only
/// against a [`FamilyRegistry`]. Labels round-trip exactly through
/// [`FromStr`]/[`fmt::Display`]:
///
/// ```
/// use ssr_runtime::family::AlgorithmSpec;
///
/// for label in ["unison-sdr", "sdr-agreement(8)", "fga-sdr:domination(1,0)"] {
///     let spec: AlgorithmSpec = label.parse().unwrap();
///     assert_eq!(spec.to_string(), label);
/// }
/// let spec: AlgorithmSpec = "fga-sdr:domination(1,0)".parse().unwrap();
/// assert_eq!(spec.family, "fga-sdr");
/// assert_eq!(spec.params_str(), Some("domination(1,0)"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AlgorithmSpec {
    /// The registry key.
    pub family: String,
    /// The parameter suffix, if any.
    pub params: Params,
}

impl AlgorithmSpec {
    /// A parameterless spec: `family`.
    pub fn plain(family: impl Into<String>) -> Self {
        AlgorithmSpec {
            family: family.into(),
            params: Params::None,
        }
    }

    /// A paren-parameterized spec: `family(params)`.
    pub fn paren(family: impl Into<String>, params: impl ToString) -> Self {
        AlgorithmSpec {
            family: family.into(),
            params: Params::Paren(params.to_string()),
        }
    }

    /// A colon-parameterized spec: `family:params`.
    pub fn colon(family: impl Into<String>, params: impl ToString) -> Self {
        AlgorithmSpec {
            family: family.into(),
            params: Params::Colon(params.to_string()),
        }
    }

    /// The parameter string, independent of its attachment style.
    pub fn params_str(&self) -> Option<&str> {
        match &self.params {
            Params::None => None,
            Params::Paren(p) | Params::Colon(p) => Some(p),
        }
    }

    /// The full label (identical to the [`fmt::Display`] rendering,
    /// kept as a method for parity with the other spec types).
    pub fn label(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for AlgorithmSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.params {
            Params::None => write!(f, "{}", self.family),
            Params::Paren(p) => write!(f, "{}({p})", self.family),
            Params::Colon(p) => write!(f, "{}:{p}", self.family),
        }
    }
}

impl FromStr for AlgorithmSpec {
    type Err = std::convert::Infallible;

    /// Every string parses: `a:b` splits at the first colon, a
    /// trailing `(...)` splits as paren parameters, anything else is a
    /// parameterless family key.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some((family, params)) = s.split_once(':') {
            if !params.is_empty() {
                return Ok(AlgorithmSpec::colon(family, params));
            }
        }
        if let Some(stripped) = s.strip_suffix(')') {
            if let Some((family, params)) = stripped.split_once('(') {
                if !family.is_empty() {
                    return Ok(AlgorithmSpec::paren(family, params));
                }
            }
        }
        Ok(AlgorithmSpec::plain(s))
    }
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// A factory resolving a parameter string to a family instance
/// (`None` when the parameters do not parse).
pub type FamilyFactory = Box<dyn Fn(Option<&str>) -> Option<Arc<dyn Family>> + Send + Sync>;

struct Entry {
    key: String,
    exemplars: Vec<String>,
    factory: FamilyFactory,
}

/// The string-keyed, open family registry.
///
/// Keys are family identifiers (`unison-sdr`, `fga-sdr`, …); entries
/// are either single instances ([`FamilyRegistry::register`]) or
/// parameterized factories ([`FamilyRegistry::register_parametric`]).
/// Registration order is preserved (it fixes the order of
/// [`FamilyRegistry::labels`]); registering an existing key replaces
/// the entry, so users can override standard families.
///
/// The standard workspace families are assembled by
/// `ssr_campaign::families::standard_families()`; user code extends
/// the registry freely — see `examples/custom_family.rs`.
#[derive(Default)]
pub struct FamilyRegistry {
    entries: Vec<Entry>,
    index: HashMap<String, usize>,
}

impl FamilyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        FamilyRegistry::default()
    }

    fn insert(&mut self, entry: Entry) {
        match self.index.get(&entry.key) {
            Some(&i) => self.entries[i] = entry,
            None => {
                self.index.insert(entry.key.clone(), self.entries.len());
                self.entries.push(entry);
            }
        }
    }

    /// Registers a single family instance under its [`Family::id`].
    /// Resolution rejects parameters for instance entries.
    pub fn register(&mut self, family: Arc<dyn Family>) {
        let key = family.id().to_string();
        self.insert(Entry {
            exemplars: vec![key.clone()],
            key,
            factory: Box::new(move |params| {
                if params.is_none() {
                    Some(family.clone())
                } else {
                    None
                }
            }),
        });
    }

    /// Registers a parameterized family under `key`. `exemplars` are
    /// representative full labels (used by [`FamilyRegistry::labels`]
    /// and the round-trip tests); `factory` maps a parameter string to
    /// the concrete family instance.
    pub fn register_parametric(
        &mut self,
        key: impl Into<String>,
        exemplars: Vec<String>,
        factory: FamilyFactory,
    ) {
        self.insert(Entry {
            key: key.into(),
            exemplars,
            factory,
        });
    }

    /// Resolves a spec to its family: the `family` key is looked up
    /// and handed the parameter string; as a fallback, the *full*
    /// label is tried as a parameterless key (so instances registered
    /// under labels containing `(`/`:` still resolve).
    pub fn resolve(&self, spec: &AlgorithmSpec) -> Option<Arc<dyn Family>> {
        if let Some(&i) = self.index.get(&spec.family) {
            if let Some(family) = (self.entries[i].factory)(spec.params_str()) {
                return Some(family);
            }
        }
        if spec.params != Params::None {
            if let Some(&i) = self.index.get(&spec.label()) {
                return (self.entries[i].factory)(None);
            }
        }
        None
    }

    /// Parses `label` and resolves it.
    pub fn resolve_label(&self, label: &str) -> Option<Arc<dyn Family>> {
        let spec: AlgorithmSpec = label.parse().expect("AlgorithmSpec parsing is total");
        self.resolve(&spec)
    }

    /// Whether `key` names a registered family (parametric or not).
    pub fn contains(&self, key: &str) -> bool {
        self.index.contains_key(key)
    }

    /// Registered family keys, in registration order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.key.as_str())
    }

    /// Exemplar labels of every registered family, in registration
    /// order — each is guaranteed to resolve.
    pub fn labels(&self) -> Vec<String> {
        self.entries
            .iter()
            .flat_map(|e| e.exemplars.iter().cloned())
            .collect()
    }
}

impl fmt::Debug for FamilyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FamilyRegistry")
            .field("keys", &self.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_graph::generators;

    #[test]
    fn amounts_resolve() {
        assert_eq!(Amount::Fixed(3).resolve(100), 3);
        assert_eq!(Amount::QuarterN.resolve(12), 3);
        assert_eq!(Amount::HalfN.resolve(12), 6);
        assert_eq!(Amount::N.resolve(12), 12);
        assert_eq!(Amount::QuarterN.resolve(1), 1, "clamped to ≥ 1");
    }

    #[test]
    fn init_plan_labels_round_trip() {
        let plans = [
            InitPlan::Arbitrary,
            InitPlan::Normal,
            InitPlan::Tear { gap: Amount::N },
            InitPlan::Tear {
                gap: Amount::Fixed(7),
            },
            InitPlan::CorruptClocks { k: Amount::HalfN },
            InitPlan::CorruptClocks {
                k: Amount::QuarterN,
            },
        ];
        for p in plans {
            assert_eq!(InitPlan::parse_label(&p.label()), Some(p), "{p:?}");
        }
        assert_eq!(InitPlan::parse_label("tear(?)"), None);
        assert_eq!(InitPlan::parse_label("bogus"), None);
        assert_eq!("pass".parse::<Verdict>(), Ok(Verdict::Pass));
        assert!("nope".parse::<Verdict>().is_err());
    }

    #[test]
    fn spec_labels_round_trip() {
        for label in [
            "unison-sdr",
            "cfg-unison",
            "mono-reset",
            "sdr-agreement(8)",
            "fga-sdr:domination(1,0)",
            "fga:2-tuple(2,1)",
            "my-custom-family",
        ] {
            let spec: AlgorithmSpec = label.parse().unwrap();
            assert_eq!(spec.to_string(), label, "round-trip of {label:?}");
            assert_eq!(spec.label(), label);
        }
    }

    #[test]
    fn spec_parsing_splits_family_and_params() {
        let spec: AlgorithmSpec = "sdr-agreement(8)".parse().unwrap();
        assert_eq!(spec.family, "sdr-agreement");
        assert_eq!(spec.params, Params::Paren("8".into()));
        let spec: AlgorithmSpec = "fga-sdr:domination(1,0)".parse().unwrap();
        assert_eq!(spec.family, "fga-sdr");
        assert_eq!(spec.params_str(), Some("domination(1,0)"));
        let spec: AlgorithmSpec = "unison-sdr".parse().unwrap();
        assert_eq!(spec.params, Params::None);
        assert_eq!(spec.params_str(), None);
    }

    /// A minimal test family: flood over `bool` states, from node 0,
    /// under the given id, bounds and extra verdict check.
    struct FloodFamily(&'static str, Bounds, bool);

    fn flood_from_0(graph: &Graph) -> Vec<bool> {
        let mut init = vec![false; graph.node_count()];
        init[0] = true;
        init
    }

    impl TypedFamily for FloodFamily {
        type Algo = crate::exhaustive::testutil::Flood;
        const TARGET: Target = Target::Terminal;

        fn family_id(&self) -> &str {
            self.0
        }

        fn paper_bounds(&self, _: &Graph) -> Bounds {
            self.1
        }

        fn verdict_check(&self, _: &Simulator<'_, Self::Algo>) -> bool {
            self.2
        }

        fn build(&self, _: &Graph) -> Option<Self::Algo> {
            Some(crate::exhaustive::testutil::Flood)
        }

        fn start<'g>(
            &self,
            graph: &'g Graph,
            algo: Self::Algo,
            _init: &InitPlan,
            daemon: &Daemon,
            seeds: RunSeeds,
        ) -> Simulator<'g, Self::Algo> {
            Simulator::new(graph, algo, flood_from_0(graph), daemon.clone(), seeds.sim)
        }

        fn seed_set(&self, graph: &Graph, _: &Self::Algo, _: u64, _: usize) -> Vec<Vec<bool>> {
            vec![flood_from_0(graph)]
        }
    }

    #[test]
    fn registry_resolves_instances_and_parametrics() {
        let mut reg = FamilyRegistry::new();
        reg.register(Arc::new(FloodFamily("flood", Bounds::NONE, true)));
        reg.register_parametric(
            "flood-k",
            vec!["flood-k(2)".into()],
            Box::new(|params| {
                params.and_then(|p| p.parse::<u32>().ok())?;
                Some(Arc::new(FloodFamily("flood", Bounds::NONE, true)) as Arc<dyn Family>)
            }),
        );
        assert!(reg.resolve_label("flood").is_some());
        assert!(reg.resolve_label("flood-k(2)").is_some());
        assert!(reg.resolve_label("flood-k(x)").is_none(), "bad params");
        assert!(reg.resolve_label("flood(3)").is_none(), "instance + params");
        assert!(reg.resolve_label("unknown").is_none());
        assert_eq!(reg.keys().collect::<Vec<_>>(), vec!["flood", "flood-k"]);
        assert_eq!(reg.labels(), vec!["flood", "flood-k(2)"]);
        assert!(reg.contains("flood") && !reg.contains("nope"));
    }

    #[test]
    fn registry_resolves_full_label_instances() {
        // An instance whose id itself contains parens still resolves.
        let mut reg = FamilyRegistry::new();
        reg.register(Arc::new(FloodFamily("weird(7)", Bounds::NONE, true)));
        assert!(reg.resolve_label("weird(7)").is_some());
    }

    #[test]
    fn re_registration_replaces_in_place() {
        let mut reg = FamilyRegistry::new();
        reg.register(Arc::new(FloodFamily("flood", Bounds::NONE, true)));
        reg.register(Arc::new(FloodFamily("flood", Bounds::NONE, true)));
        assert_eq!(reg.keys().count(), 1);
    }

    #[test]
    fn family_run_reports_and_probes() {
        struct Count(u64, bool);
        impl FamilyProbe for Count {
            fn on_step(&mut self, steps: u64, _activated: usize) {
                self.0 = steps;
            }
            fn on_run_end(&mut self, outcome: &RunOutcome) {
                self.1 = outcome.terminal;
            }
        }
        let g = generators::path(4);
        let seeds = RunSeeds {
            init: 0,
            sim: 0,
            fault: 0,
        };
        let budget = ExecBudget::steps(1_000).with_intra_threads(2);
        let (init, daemon) = (InitPlan::Normal, Daemon::Synchronous);
        let mut probe = Count(0, false);
        let flood = FloodFamily("flood", Bounds::NONE, true);
        let out = flood.run(&g, &init, &daemon, seeds, budget, Some(&mut probe));
        assert!(out.terminal && out.reached);
        assert_eq!(out.moves, 3);
        assert_eq!(probe.0, 3, "probe saw every step");
        assert!(probe.1, "probe saw the run end");
        // The one verdict rule: the target within every stated bound,
        // and the family's own check.
        for (rounds, moves, check, verdict) in [
            (None, None, false, Verdict::NoBound),
            (Some(3), Some(3), true, Verdict::Pass),
            (Some(3), Some(3), false, Verdict::Fail),
            (Some(2), None, true, Verdict::Fail),
            (None, Some(2), true, Verdict::Fail),
        ] {
            let flood = FloodFamily("flood", Bounds { rounds, moves }, check);
            let out = flood.run(&g, &init, &daemon, seeds, budget, None);
            assert_eq!(out.verdict, verdict, "{rounds:?} {moves:?} {check}");
        }
    }

    #[test]
    fn sample_seeds_are_stable_and_distinct() {
        let a = explore_sample_seeds(42, 4);
        let b = explore_sample_seeds(42, 4);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
    }
}
