//! Declarative scenario campaigns with a deterministic parallel
//! execution engine.
//!
//! The experiment layer of this workspace needs systematic
//! configuration-space sweeps: topology × size × algorithm family ×
//! daemon × fault plan × seed. This crate turns one such sweep into a
//! [`Campaign`] — a lazily-expanded cartesian grid of [`Scenario`]s —
//! and maps it over the workspace's one worker pool,
//! [`ssr_runtime::pool::par_map`], through one entry point,
//! [`Sweep`], with no dependencies beyond `std`.
//!
//! Results come back as flat [`ScenarioRecord`]s with the paper's
//! closed-form bounds checked where they exist, ready for aggregation
//! ([`stats`]) and serialization as JSONL/CSV ([`output`]).
//!
//! # Determinism contract
//!
//! Parallel and sequential execution produce **byte-identical**
//! results: per-scenario seeds derive from the grid index, runners are
//! pure functions of their scenario, and records are returned in grid
//! order. See `tests/determinism.rs` for the property pinning this.
//!
//! # Examples
//!
//! ```
//! use ssr_campaign::{families, output, Campaign, Sweep, TopologySpec};
//! use ssr_runtime::Daemon;
//!
//! let campaign = Campaign::new("doc-demo")
//!     .topologies(vec![TopologySpec::Ring, TopologySpec::Star])
//!     .sizes(vec![6])
//!     .algorithms(vec![families::unison_sdr()])
//!     .daemons(vec![Daemon::Central])
//!     .trials(2)
//!     .step_cap(1_000_000);
//!
//! let records = Sweep::of(&campaign).threads(2).run();
//! assert_eq!(records.len(), campaign.len());
//! assert!(records.iter().all(|r| r.verdict.ok()));
//! // One JSONL line per run, in grid order, independent of threads.
//! assert_eq!(output::jsonl(&records).lines().count(), records.len());
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod checkpoint;
pub mod engine;
pub mod families;
mod grid;
pub mod obs;
pub mod output;
mod runner;
mod scenario;
pub mod stats;
pub mod workloads;

pub use cache::RecordCache;
pub use checkpoint::CheckpointWriter;
pub use engine::{Sweep, SweepReport};
pub use grid::Campaign;
pub use runner::{run_scenario, run_scenario_in, ScenarioRecord, Verdict};
pub use scenario::{AlgorithmSpec, Amount, InitPlan, Params, PresetSpec, Scenario, TopologySpec};

#[cfg(test)]
pub(crate) mod test_support {
    use crate::runner::{ScenarioRecord, Verdict};
    use ssr_runtime::TerminationReason;

    /// A plausible record for writer/aggregation tests.
    pub fn record(topology: &str, n: usize) -> ScenarioRecord {
        ScenarioRecord {
            index: 0,
            campaign: "test".into(),
            topology: topology.into(),
            n,
            nodes: n as u64,
            edges: n as u64,
            max_degree: 2,
            diameter: (n / 2).max(1) as u64,
            algorithm: "unison-sdr".into(),
            daemon: "central".into(),
            init: "arbitrary".into(),
            trial: 0,
            seed: 1,
            reached: true,
            terminal: false,
            reason: Some(TerminationReason::PredicateMet),
            steps: 5,
            moves: 5,
            rounds: 3,
            max_moves_per_process: 2,
            bound_rounds: None,
            bound_moves: None,
            verdict: Verdict::Pass,
        }
    }
}
