//! # ssr-obs — observability for the step pipeline
//!
//! Zero-cost tracing, phase-level metrics, and live campaign progress
//! for the cooperative-reset simulator. Three layers, all strictly
//! opt-in:
//!
//! 1. **Tracing** — the runtime's [`TraceSink`] seam emits typed
//!    events ([`TraceEvent`]) from inside the three-phase step
//!    pipeline. This crate supplies the concrete sinks: a
//!    [`RingSink`] flight recorder, a
//!    [`JsonlSink`] writer (schema: `DESIGN.md`
//!    §10), and [`PipelineMetrics`], which
//!    folds the stream into the metrics registry. With no sink
//!    installed the pipeline's cost is one never-taken branch per
//!    phase — pinned by the `obs_overhead` bench.
//!
//! 2. **Metrics** — [`MetricsSet`] holds
//!    counters, gauges, and power-of-two-bucket histograms; sets are
//!    accumulated lock-free (by ownership, one per worker) and merged
//!    into a [`MetricsHub`], whose snapshot is
//!    deterministic: sorted keys, byte-stable JSON
//!    (`"schema":"ssr-metrics-v1"`), and a human table.
//!
//! 3. **Progress & timelines** — [`Progress`]
//!    reporters stream campaign completion (done/total, ETA,
//!    per-worker state) to stderr or JSONL, and
//!    [`TimelineObserver`] records a
//!    replayable [`RunTimeline`] checkable
//!    against an exhaustive-explorer
//!    [`Witness`](ssr_runtime::exhaustive::Witness).
//!
//! Determinism contract: everything here is either a pure function of
//! the seeded run (traces and metrics without phase timing) or
//! explicitly wall-clock-bearing (`wants_phase_timing()`,
//! `time.*`/`phase.*` keys, progress ETA). Enabling the deterministic
//! parts never changes a run's results — goldens stay byte-identical.
//!
//! See [`observers`] for a worked `Execution::of(...).observe(...)`
//! example.

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod observers;
pub mod pipeline;
pub mod progress;
pub mod timeline;
pub mod trace;

pub use json::Value as JsonValue;
pub use metrics::{Histogram, Metric, MetricsHub, MetricsSet, MetricsSnapshot};
pub use observers::{MetricsObserver, TimelineObserver};
pub use pipeline::{CompositeSink, PipelineMetrics};
pub use progress::{BusSnapshot, JsonlProgress, NoProgress, Progress, ProgressBus, StderrProgress};
pub use timeline::{RunTimeline, TimelineStep};
pub use trace::{JsonlSink, RingSink};

// The runtime-side seam types, re-exported so downstream code can name
// the whole observability surface through one crate.
pub use ssr_runtime::trace::{NoTrace, TraceEvent, TracePhase, TraceSink};
