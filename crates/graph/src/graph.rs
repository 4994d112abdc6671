//! The immutable [`Graph`] type and [`NodeId`] handle.

use std::fmt;
use std::sync::OnceLock;

/// Identifier of a process (node) in the communication graph.
///
/// `NodeId` is an *index handle*, not an application-level identifier.
/// Anonymous-network algorithms (SDR, unison) must not interpret it;
/// identified-network algorithms (FGA) carry a separate id table so that
/// tests can decouple identifiers from indices.
///
/// # Examples
///
/// ```
/// use ssr_graph::NodeId;
/// let u = NodeId(3);
/// assert_eq!(u.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node's index as a `usize`, for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `i` does not fit in `u32`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32::MAX"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A simple undirected connected graph in CSR (compressed sparse row) form.
///
/// Invariants (checked at construction by [`crate::GraphBuilder`]):
///
/// * at least one node;
/// * no self-loops, no parallel edges;
/// * connected;
/// * adjacency lists sorted ascending (deterministic iteration order).
///
/// The adjacency list of `u` is the *port space* of `u`: algorithms may
/// refer to the neighbor behind port `k` of `u` without knowing a global
/// name for it (indirect naming, §2.2 of the paper).
///
/// # Examples
///
/// ```
/// use ssr_graph::{GraphBuilder, NodeId};
///
/// let g = GraphBuilder::new(3)
///     .edge(0, 1)
///     .edge(1, 2)
///     .build()
///     .expect("valid graph");
/// assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
/// assert!(g.are_neighbors(NodeId(0), NodeId(1)));
/// assert!(!g.are_neighbors(NodeId(0), NodeId(2)));
/// ```
#[derive(Clone)]
pub struct Graph {
    /// `offsets[u] .. offsets[u + 1]` indexes `nbrs` for node `u`.
    offsets: Vec<u32>,
    /// Concatenated, per-node-sorted adjacency lists.
    nbrs: Vec<NodeId>,
    /// Number of undirected edges `m`.
    edge_count: usize,
    /// The diameter, once [`crate::metrics::diameter`] has computed
    /// it: a function of the adjacency, so equality and `Debug`
    /// ignore it.
    pub(crate) diameter: OnceLock<u32>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Graph) -> bool {
        self.offsets == other.offsets
            && self.nbrs == other.nbrs
            && self.edge_count == other.edge_count
    }
}

impl Eq for Graph {}

impl Graph {
    pub(crate) fn from_parts(offsets: Vec<u32>, nbrs: Vec<NodeId>, edge_count: usize) -> Self {
        Graph {
            offsets,
            nbrs,
            edge_count,
            diameter: OnceLock::new(),
        }
    }

    /// Number of processes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all node ids `0 .. n`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// The sorted open neighborhood `N(u)`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.offsets[u.index()] as usize;
        let hi = self.offsets[u.index() + 1] as usize;
        &self.nbrs[lo..hi]
    }

    /// Iterator over the closed neighborhood `N[u] = N(u) ∪ {u}`.
    ///
    /// `u` itself is yielded first.
    pub fn closed_neighborhood(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(u).chain(self.neighbors(u).iter().copied())
    }

    /// Degree `δ_u` of node `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    /// Maximum degree `Δ`.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Whether `{u, v} ∈ E`.
    ///
    /// Runs in `O(log δ_u)` (binary search over the sorted list).
    pub fn are_neighbors(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The neighbor of `u` behind local port `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree(u)`.
    #[inline]
    pub fn neighbor_at(&self, u: NodeId, port: usize) -> NodeId {
        self.neighbors(u)[port]
    }

    /// The local port of `v` in `u`'s adjacency list, if `v ∈ N(u)`.
    ///
    /// This realizes the paper's `α_u(v)` indirect-naming map.
    pub fn port_of(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.neighbors(u).binary_search(&v).ok()
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph {{ n: {}, m: {} }}",
            self.node_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        GraphBuilder::new(3)
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn node_id_roundtrip() {
        let u = NodeId::from_index(42);
        assert_eq!(u.index(), 42);
        assert_eq!(format!("{u}"), "42");
        assert_eq!(format!("{u:?}"), "n42");
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn neighbors_sorted() {
        let g = GraphBuilder::new(4)
            .edge(3, 0)
            .edge(0, 2)
            .edge(0, 1)
            .build()
            .unwrap();
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn closed_neighborhood_starts_with_self() {
        let g = triangle();
        let cn: Vec<_> = g.closed_neighborhood(NodeId(1)).collect();
        assert_eq!(cn, vec![NodeId(1), NodeId(0), NodeId(2)]);
    }

    #[test]
    fn ports_roundtrip() {
        let g = triangle();
        for u in g.nodes() {
            for (k, &v) in g.neighbors(u).iter().enumerate() {
                assert_eq!(g.port_of(u, v), Some(k));
                assert_eq!(g.neighbor_at(u, k), v);
            }
        }
        assert_eq!(g.port_of(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn edges_enumerated_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(2)),
            ]
        );
    }

    #[test]
    fn degree_and_max_degree() {
        let g = GraphBuilder::new(4)
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .build()
            .unwrap();
        assert_eq!(g.degree(NodeId(0)), 3);
        assert_eq!(g.degree(NodeId(1)), 1);
        assert_eq!(g.max_degree(), 3);
    }
}
