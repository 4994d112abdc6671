//! Exact graph metrics: BFS distances, eccentricities, diameter.
//!
//! The paper's bounds are stated in terms of `n`, `m`, `Δ` (available on
//! [`Graph`] directly) and the diameter `D` computed here.

use crate::{Graph, NodeId};

/// Single-source BFS distances from `src` (in hops).
///
/// Every node is reachable because [`Graph`] is connected by construction.
///
/// # Examples
///
/// ```
/// use ssr_graph::{generators, metrics, NodeId};
/// let g = generators::path(4);
/// assert_eq!(metrics::bfs_distances(&g, NodeId(0)), vec![0, 1, 2, 3]);
/// ```
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut bfs = Bfs::new(g);
    bfs.run(g, src);
    bfs.dist
}

/// Eccentricity of `u`: its maximum BFS distance to any node.
pub fn eccentricity(g: &Graph, u: NodeId) -> u32 {
    Bfs::new(g).eccentricity(g, u)
}

/// Diameter `D`: the maximum eccentricity, via all-pairs BFS (`O(n·m)`)
/// on the first call for a graph and memoized on it, so a record's
/// skeleton and its family's bounds share one pass.
///
/// # Examples
///
/// ```
/// use ssr_graph::{generators, metrics};
/// assert_eq!(metrics::diameter(&generators::ring(8)), 4);
/// assert_eq!(metrics::diameter(&generators::complete(8)), 1);
/// ```
pub fn diameter(g: &Graph) -> u32 {
    *g.diameter.get_or_init(|| {
        let mut bfs = Bfs::new(g);
        g.nodes().map(|u| bfs.eccentricity(g, u)).max().unwrap_or(0)
    })
}

/// Radius: the minimum eccentricity.
pub fn radius(g: &Graph) -> u32 {
    let mut bfs = Bfs::new(g);
    g.nodes().map(|u| bfs.eccentricity(g, u)).min().unwrap_or(0)
}

/// One distance vector and one queue, reused by every BFS of an
/// all-pairs pass: [`diameter`] allocates twice, not twice per node.
struct Bfs {
    dist: Vec<u32>,
    queue: Vec<NodeId>,
}

impl Bfs {
    fn new(g: &Graph) -> Bfs {
        let n = g.node_count();
        Bfs {
            dist: vec![u32::MAX; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// Fills `dist` with the hop distances from `src`.
    fn run(&mut self, g: &Graph, src: NodeId) {
        let Bfs { dist, queue } = self;
        dist.fill(u32::MAX);
        queue.clear();
        dist[src.index()] = 0;
        queue.push(src);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let du = dist[u.index()];
            for &v in g.neighbors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = du + 1;
                    queue.push(v);
                }
            }
        }
        debug_assert!(
            dist.iter().all(|&d| d != u32::MAX),
            "graph must be connected"
        );
    }

    fn eccentricity(&mut self, g: &Graph, u: NodeId) -> u32 {
        self.run(g, u);
        self.dist.iter().copied().max().unwrap_or(0)
    }
}

/// Summary of the quantities appearing in the paper's bounds.
///
/// # Examples
///
/// ```
/// use ssr_graph::{generators, metrics::GraphProfile};
/// let p = GraphProfile::of(&generators::ring(10));
/// assert_eq!((p.n, p.m, p.max_degree, p.diameter), (10, 10, 2, 5));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphProfile {
    /// Number of processes `n`.
    pub n: usize,
    /// Number of edges `m`.
    pub m: usize,
    /// Maximum degree `Δ`.
    pub max_degree: usize,
    /// Diameter `D`.
    pub diameter: u32,
}

impl GraphProfile {
    /// Computes the profile of `g` (runs all-pairs BFS).
    pub fn of(g: &Graph) -> Self {
        GraphProfile {
            n: g.node_count(),
            m: g.edge_count(),
            max_degree: g.max_degree(),
            diameter: diameter(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_star() {
        let g = generators::star(5);
        assert_eq!(bfs_distances(&g, NodeId(0)), vec![0, 1, 1, 1, 1]);
        assert_eq!(bfs_distances(&g, NodeId(1)), vec![1, 0, 2, 2, 2]);
    }

    #[test]
    fn eccentricity_path_ends() {
        let g = generators::path(5);
        assert_eq!(eccentricity(&g, NodeId(0)), 4);
        assert_eq!(eccentricity(&g, NodeId(2)), 2);
    }

    #[test]
    fn radius_vs_diameter() {
        let g = generators::path(5);
        assert_eq!(radius(&g), 2);
        assert_eq!(diameter(&g), 4);
    }

    #[test]
    fn the_memoized_diameter_is_invisible() {
        let g = generators::ring(9);
        let fresh = g.clone();
        assert_eq!(diameter(&g), 4);
        assert_eq!((g.diameter.get(), fresh.diameter.get()), (Some(&4), None));
        assert_eq!(g, fresh);
        assert_eq!(format!("{g:?}"), format!("{fresh:?}"));
        assert_eq!(diameter(&g.clone()), 4);
    }

    #[test]
    fn single_node_metrics() {
        let g = crate::GraphBuilder::new(1).build().unwrap();
        assert_eq!(diameter(&g), 0);
        assert_eq!(radius(&g), 0);
    }

    #[test]
    fn profile_matches_parts() {
        let g = generators::grid(3, 3);
        let p = GraphProfile::of(&g);
        assert_eq!(p.n, 9);
        assert_eq!(p.m, 12);
        assert_eq!(p.max_degree, 4);
        assert_eq!(p.diameter, 4);
    }
}
