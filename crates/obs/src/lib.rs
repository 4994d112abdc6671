//! # ssr-obs — observability for the step pipeline
//!
//! Zero-cost tracing, phase-level metrics, and live campaign progress
//! for the cooperative-reset simulator. Three layers, all strictly
//! opt-in:
//!
//! 1. **Tracing** — the runtime's [`TraceSink`] seam emits typed
//!    events ([`TraceEvent`]) from inside the three-phase step
//!    pipeline. This crate supplies the concrete sinks: a
//!    [`JsonlSink`] writer (schema: `DESIGN.md` §10, read back by
//!    [`trace::parse_event`]),
//!    [`PipelineMetrics`], which folds the stream into the metrics
//!    registry, and [`CompositeSink`], which fans out to both. With no
//!    sink installed, `Simulator::step` checks for a sink once per step
//!    and runs an untraced instantiation of the pipeline, which has no
//!    per-phase branch, emit or clock read; the `obs_overhead` bench
//!    holds a traced no-op sink to within 1.5× of it.
//!
//! 2. **Metrics** — [`MetricsSet`] holds
//!    counters, gauges, and power-of-two-bucket histograms; sets are
//!    accumulated lock-free (by ownership, one per worker) and merged
//!    once the workers return, into one set that is deterministic:
//!    sorted keys, byte-stable JSON (`"schema":"ssr-metrics-v1"`, read
//!    back by [`MetricsSet::from_json`]), and a human table.
//!
//! 3. **Progress** — [`Progress`] reporters stream campaign
//!    completion (done/total, ETA, per-worker state) to stderr
//!    ([`StderrProgress`]) or to the service's subscribers
//!    ([`ProgressBus`]).
//!
//! Determinism contract: everything here is either a pure function of
//! the seeded run (traces and metrics without phase timing) or
//! explicitly wall-clock-bearing (`wants_phase_timing()`, `phase.*`
//! keys, progress ETA). Enabling the deterministic parts never changes
//! a run's results — goldens stay byte-identical.

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod pipeline;
pub mod progress;
pub mod trace;

pub use json::Value as JsonValue;
pub use metrics::{Histogram, Metric, MetricsSet};
pub use pipeline::{CompositeSink, PipelineMetrics};
pub use progress::{BusSnapshot, Progress, ProgressBus, StderrProgress};
pub use trace::JsonlSink;

// The runtime-side seam types, re-exported so downstream code can name
// the whole observability surface through one crate.
pub use ssr_runtime::trace::{NoTrace, TraceEvent, TracePhase, TraceSink};
