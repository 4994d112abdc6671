//! Executable model of the *locally shared memory model with composite
//! atomicity* (Dijkstra's state model) used by the SDR paper (§2.2–2.5).
//!
//! A distributed [`Algorithm`] is a set of guarded rules per process.
//! A configuration is a vector of per-process states. In each step a
//! *daemon* activates a non-empty subset of the enabled processes; every
//! activated process atomically executes one enabled rule, reading the
//! **old** states of its closed neighborhood and writing only its own
//! state.
//!
//! The [`Simulator`] drives executions and accounts for the two time
//! measures of the paper:
//!
//! * **moves** — rule executions, total / per process / per rule;
//! * **rounds** — via the *neutralization* definition (§2.4): the first
//!   round is the minimal prefix in which every process enabled in the
//!   initial configuration either moves or becomes neutralized
//!   (enabled before a step, not activated, disabled after).
//!
//! [`Daemon`] provides schedules ranging from synchronous to adversarial
//! heuristics; all of them are legal *distributed unfair daemon*
//! executions, so measured times are existential lower bounds that the
//! paper's universal upper bounds must dominate.
//!
//! Runs are driven through the [`exec`] module: an [`Execution`] builder
//! owns the one canonical run loop, and [`Observer`]s plug trajectory
//! probes (segment tracking, liveness windows, verification sampling)
//! into it without forking the loop.
//!
//! Each node's guard evaluation ([`Algorithm::guard`]) returns its
//! enabled rules together with the node-local term of the algorithm's
//! legitimacy predicate, from one scan of `N[u]`. The simulator keeps
//! both for every node and counts the nodes whose term fails, so
//! [`Simulator::is_legitimate`] is O(1) and
//! [`Execution::until_legitimate`] stops a run on the first legitimate
//! configuration without re-reading any state.
//!
//! # Threading contract
//!
//! The batch layers above this crate (`ssr-campaign`) run one
//! simulator per worker thread. Everything needed for that is `Send`
//! by construction and pinned by tests: [`Daemon`], [`RunStats`],
//! [`RunOutcome`], and [`Simulator`] itself whenever the algorithm and
//! its state are `Send`.
//!
//! Within one run, the [`step`](crate::Simulator::step) pipeline can
//! additionally fan its apply and guard kernels out over the
//! [`pool::par_map`] worker pool ([`Simulator::set_intra_threads`] /
//! [`Execution::intra_threads`], `ExecBudget::with_intra_threads` for
//! families). Intra-run parallelism is **deterministic by
//! construction**: all daemon and rule-choice RNG draws happen in the
//! sequential select phase, kernels only read the frozen pre-step
//! configuration, and results merge in a fixed order — so a run is
//! byte-identical at any thread count, and across-run parallelism
//! composes freely with it.
//!
//! # Examples
//!
//! ```
//! use ssr_graph::generators;
//! use ssr_runtime::{Algorithm, Daemon, NodeId, RuleId, RuleMask, Simulator, StateView};
//!
//! /// Toy flood: a node with a `true` neighbor becomes `true`.
//! struct Flood;
//! impl Algorithm for Flood {
//!     type State = bool;
//!     fn rule_count(&self) -> usize { 1 }
//!     fn rule_name(&self, _: RuleId) -> &'static str { "flood" }
//!     fn enabled_mask<V: StateView<bool>>(&self, u: NodeId, view: &V) -> RuleMask {
//!         let infected = view.graph().neighbors(u).iter().any(|&v| *view.state(v));
//!         RuleMask::from_bool(!*view.state(u) && infected)
//!     }
//!     fn apply<V: StateView<bool>>(&self, _: NodeId, _: &V, _: RuleId) -> bool { true }
//! }
//!
//! let g = generators::path(5);
//! let mut init = vec![false; 5];
//! init[0] = true;
//! let mut sim = Simulator::new(&g, Flood, init, Daemon::Synchronous, 42);
//! let out = sim.execution().cap(1_000).run();
//! assert!(out.terminal);
//! assert_eq!(sim.stats().moves, 4);
//! assert_eq!(sim.stats().completed_rounds, 4);
//! ```

#![forbid(unsafe_code)]

mod algorithm;
pub mod analysis;
mod daemon;
pub mod exec;
pub mod exhaustive;
pub mod family;
pub mod faults;
pub mod fingerprint;
pub mod pool;
pub mod report;
pub mod rng;
mod simulator;
mod step;
pub mod trace;

pub use algorithm::{
    iter_ones, Algorithm, ConfigView, Guard, IterOnes, MapView, RuleId, RuleMask, StateView,
};
pub use analysis::{
    AnalyzeFamily, AnalyzeOptions, Finding, FindingKind, GraphAnalysis, OverlapStat, RngAudit,
    RuleStats, Severity, TrackedView,
};
pub use daemon::Daemon;
pub use exec::{
    Execution, Legitimate, NoObserver, NoPredicate, Observer, RunReport, StopCondition,
};
pub use family::{
    AlgorithmSpec, Amount, Bounds, ExecBudget, ExploreFamily, Family, FamilyProbe, FamilyRegistry,
    FamilyRunOutcome, InitPlan, RunSeeds, Verdict,
};
pub use fingerprint::{Canon, Fingerprint, FpEncoder};
pub use simulator::{RunOutcome, RunStats, Simulator, StepOutcome, TerminationReason};
pub use trace::{NoTrace, TraceEvent, TracePhase, TraceSink};

// Re-export the graph handle: every API in this crate speaks `NodeId`.
pub use ssr_graph::NodeId;
