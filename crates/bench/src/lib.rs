//! Experiment harness for the SDR reproduction.
//!
//! Every proven bound / comparison in the paper maps to one experiment
//! (E1–E13, mapped to paper sections in `DESIGN.md` §3 at the
//! repository root). Each experiment is a `ssr-campaign` scenario grid
//! drained by the parallel batch engine — byte-identical output for
//! any worker count — plus a fold turning the records into a table.
//! The [`experiments`] module computes each table, and the
//! `experiments` binary prints them (`--list`, `--threads N`,
//! `--format table|json`). The criterion benches in `benches/` are
//! tripwires on the step loop's overheads (`exec_overhead`,
//! `obs_overhead`, `step_pipeline`), run by CI.
//!
//! All experiments are deterministic given their seeds and run in two
//! profiles: `quick` (small sizes, used by `cargo test`) and full
//! (`cargo run -p ssr-bench --bin experiments --release`).

#![forbid(unsafe_code)]

pub mod ctx;
pub mod experiments;
pub mod workloads;

pub use ctx::ExpCtx;
pub use experiments::{ExpEntry, ExpKpi, ExpResult, Profile};
