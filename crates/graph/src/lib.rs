//! Communication-graph substrate for the SDR reproduction.
//!
//! The paper (§2.1) models the network as a simple undirected connected
//! graph `G = (V, E)` with `n` processes, `m` edges, maximum degree `Δ`,
//! and diameter `D`. Processes access neighbors through *indirect naming*:
//! each process knows its neighbors only through local labels (here:
//! adjacency-list *ports*), and can recognise its own label in a
//! neighbor's list.
//!
//! This crate provides:
//!
//! * [`Graph`] — an immutable, validated CSR (compressed sparse row)
//!   representation of a simple undirected connected graph;
//! * [`GraphBuilder`] — incremental edge-list construction with
//!   validation (no self-loops, no parallel edges, connectivity);
//! * [`generators`] — the standard topology families used by the
//!   experiment harness (rings, paths, stars, trees, grids, tori,
//!   hypercubes, random connected graphs, …);
//! * [`metrics`] — exact graph metrics (diameter, eccentricities,
//!   radius) computed by BFS;
//! * [`Bitset`] — the word-packed per-node flag set the step pipeline
//!   in `ssr-runtime` keeps its round front in.
//!
//! # Examples
//!
//! ```
//! use ssr_graph::{generators, NodeId};
//!
//! let g = generators::ring(5);
//! assert_eq!(g.node_count(), 5);
//! assert_eq!(g.edge_count(), 5);
//! assert_eq!(g.degree(NodeId(0)), 2);
//! assert_eq!(ssr_graph::metrics::diameter(&g), 2);
//! ```

#![forbid(unsafe_code)]

mod bitset;
mod builder;
pub mod generators;
mod graph;
pub mod metrics;

pub use bitset::Bitset;
pub use builder::{GraphBuilder, GraphError};
pub use graph::{Graph, NodeId};
