//! The read path over the stack's own artifacts, and what it buys:
//! self-contained HTML/SVG campaign reports.
//!
//! Everything else in the workspace *writes* artifacts — campaign
//! JSONL/CSV ([`reader::parse_campaign_jsonl`]), `ssr-metrics-v1`
//! snapshots, trace JSONL, `BENCH_RESULTS.json`, `BENCH_SCALE.json`.
//! This crate closes the loop: a deterministic renderer turning one
//! artifact directory into one self-contained HTML page with inline
//! SVG charts ([`html`], [`svg`]). It reads metrics snapshots and
//! traces with `ssr-obs`'s own readers, into the writers' types
//! ([`ssr_obs::MetricsSet::from_json`],
//! [`ssr_obs::trace::parse_event`]), and the other artifacts with the
//! typed readers of [`reader`], built on the shared [`ssr_obs::json`]
//! recursive-descent parser.
//!
//! # Determinism
//!
//! Rendering is a pure function of the artifact bytes: no clocks, no
//! RNG, no locale, sorted directory walks, fixed float formats. Since
//! campaign records and untimed traces/metrics are themselves
//! byte-identical at any intra-run thread count, so is the report —
//! `diff` two reports to diff two runs.

#![forbid(unsafe_code)]

pub mod html;
pub mod reader;
pub mod svg;

pub use html::{load_dir, render, Artifacts};
