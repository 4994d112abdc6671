//! **ssr** — Self-Stabilizing Distributed Cooperative Reset.
//!
//! A full reproduction of *Devismes & Johnen, “Self-Stabilizing
//! Distributed Cooperative Reset”, ICDCS 2019*: the SDR reset layer,
//! its two instantiations (asynchronous unison and 1-minimal
//! (f,g)-alliance), the computational model they run in, and the
//! baselines they are compared against.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`graph`] | `ssr-graph` | communication graphs, generators, metrics |
//! | [`runtime`] | `ssr-runtime` | composite-atomicity simulator, daemons, rounds/moves, the open algorithm-family registry (`runtime::family`), exhaustive engine (`runtime::exhaustive`) |
//! | [`core`] | `ssr-core` | Algorithm SDR, `ResetInput`, composition, analysis |
//! | [`unison`] | `ssr-unison` | Algorithm U, `U ∘ SDR`, unison spec checkers |
//! | [`alliance`] | `ssr-alliance` | Algorithm FGA, `FGA ∘ SDR`, presets, verifiers |
//! | [`baselines`] | `ssr-baselines` | CFG unison, mono-initiator reset |
//! | [`campaign`] | `ssr-campaign` | scenario campaigns, parallel batch engine, standard family registry (`campaign::families`), JSONL/CSV results |
//! | [`explore`] | `ssr-explore` | exhaustive schedule-space explorer, exact worst-case bounds, witness traces |
//! | [`obs`] | `ssr-obs` | zero-cost tracing sinks, metrics registry, campaign progress |
//! | [`analyze`] | `ssr-analyze` | static soundness certification: footprint analysis, locality/commutativity audit, rule-table lints, `ANALYSIS.json` |
//! | [`report`] | `ssr-report` | typed artifact readers, self-contained HTML/SVG campaign reports |
//! | [`serve`] | `ssr-serve` | long-running campaign service: HTTP/1.1 API, content-addressed result cache, resumable checkpoints, SSE progress |
//!
//! # Quickstart
//!
//! Recover a synchronized clock network from an arbitrary corrupted
//! state (see `examples/quickstart.rs` for the commented version):
//!
//! ```
//! use ssr::graph::generators;
//! use ssr::runtime::{Daemon, Simulator};
//! use ssr::unison::{unison_sdr, Unison};
//!
//! let g = generators::ring(10);
//! let algo = unison_sdr(Unison::for_graph(&g));
//! let init = algo.arbitrary_config(&g, 42); // transient-fault soup
//! let check = unison_sdr(Unison::for_graph(&g));
//! let mut sim = Simulator::new(&g, algo, init, Daemon::Central, 7);
//! let out = sim.execution().cap(1_000_000).until(|gr, st| check.is_normal_config(gr, st)).run();
//! assert!(out.reached && out.rounds_at_hit <= 30); // ≤ 3n rounds
//! ```

#![forbid(unsafe_code)]

pub use ssr_alliance as alliance;
pub use ssr_analyze as analyze;
pub use ssr_baselines as baselines;
pub use ssr_campaign as campaign;
pub use ssr_core as core;
pub use ssr_explore as explore;
pub use ssr_graph as graph;
pub use ssr_obs as obs;
pub use ssr_report as report;
pub use ssr_runtime as runtime;
pub use ssr_serve as serve;
pub use ssr_unison as unison;
