//! Topology generators used throughout the experiment harness.
//!
//! Every generator returns a validated [`Graph`] (simple, undirected,
//! connected). Random generators are fully deterministic given their
//! `seed` (a private splitmix64 stream; the richer simulation PRNG lives
//! in `ssr-runtime::rng` — duplicating the 15-line mixer here keeps the
//! crate layering acyclic).
//!
//! # Examples
//!
//! ```
//! use ssr_graph::generators;
//!
//! let ring = generators::ring(8);
//! let grid = generators::grid(3, 4);
//! let tree = generators::random_tree(20, 0xBEEF);
//! assert_eq!(tree.edge_count(), 19);
//! assert_eq!(grid.node_count(), 12);
//! assert_eq!(ring.edge_count(), 8);
//! ```

use crate::{Graph, GraphBuilder};

/// Minimal splitmix64 stream for the deterministic random generators.
#[derive(Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`), by rejection-free
    /// multiply-shift (slight bias < 2^-32 is irrelevant here).
    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

fn must(b: GraphBuilder) -> Graph {
    b.build().expect("generator produced an invalid graph")
}

/// Path `P_n` (line): `0 - 1 - … - (n-1)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "path requires n > 0");
    must(GraphBuilder::new(n).edges((1..n).map(|i| (i as u32 - 1, i as u32))))
}

/// Ring (cycle) `C_n`.
///
/// # Panics
///
/// Panics if `n < 3` (a cycle needs at least three nodes to stay simple).
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "ring requires n >= 3");
    must(GraphBuilder::new(n).edges((0..n).map(|i| (i as u32, ((i + 1) % n) as u32))))
}

/// Star `K_{1,n-1}`: node 0 is the hub.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "star requires n >= 2");
    must(GraphBuilder::new(n).edges((1..n).map(|i| (0, i as u32))))
}

/// Complete graph `K_n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "complete requires n > 0");
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b = b.edge(u as u32, v as u32);
        }
    }
    must(b)
}

/// Balanced binary tree on `n` nodes (node `i` has parent `(i-1)/2`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn binary_tree(n: usize) -> Graph {
    assert!(n > 0, "binary_tree requires n > 0");
    must(GraphBuilder::new(n).edges((1..n).map(|i| (((i - 1) / 2) as u32, i as u32))))
}

/// `w × h` grid (4-neighborhood).
///
/// # Panics
///
/// Panics if `w == 0` or `h == 0`.
pub fn grid(w: usize, h: usize) -> Graph {
    assert!(w > 0 && h > 0, "grid requires positive dimensions");
    let id = |x: usize, y: usize| (y * w + x) as u32;
    let mut b = GraphBuilder::new(w * h);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b = b.edge(id(x, y), id(x + 1, y));
            }
            if y + 1 < h {
                b = b.edge(id(x, y), id(x, y + 1));
            }
        }
    }
    must(b)
}

/// `w × h` torus (grid with wrap-around rows/columns).
///
/// # Panics
///
/// Panics if `w < 3` or `h < 3` (smaller wrap-arounds create parallel
/// edges).
pub fn torus(w: usize, h: usize) -> Graph {
    assert!(w >= 3 && h >= 3, "torus requires dimensions >= 3");
    let id = |x: usize, y: usize| (y * w + x) as u32;
    let mut b = GraphBuilder::new(w * h);
    for y in 0..h {
        for x in 0..w {
            b = b.edge(id(x, y), id((x + 1) % w, y));
            b = b.edge(id(x, y), id(x, (y + 1) % h));
        }
    }
    must(b)
}

/// `d`-dimensional hypercube `Q_d` on `2^d` nodes.
///
/// # Panics
///
/// Panics if `d == 0` or `d > 20`.
pub fn hypercube(d: usize) -> Graph {
    assert!(d > 0 && d <= 20, "hypercube requires 1 <= d <= 20");
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for bit in 0..d {
            let v = u ^ (1 << bit);
            if u < v {
                b = b.edge(u as u32, v as u32);
            }
        }
    }
    must(b)
}

/// Lollipop graph: a clique of `clique` nodes with a pendant path of
/// `tail` extra nodes attached to clique node 0.
///
/// A classical worst-case topology: large Δ near the clique, large D via
/// the tail.
///
/// # Panics
///
/// Panics if `clique < 2`.
pub fn lollipop(clique: usize, tail: usize) -> Graph {
    assert!(clique >= 2, "lollipop requires clique >= 2");
    let n = clique + tail;
    let mut b = GraphBuilder::new(n);
    for u in 0..clique {
        for v in (u + 1)..clique {
            b = b.edge(u as u32, v as u32);
        }
    }
    for i in 0..tail {
        let prev = if i == 0 { 0 } else { clique + i - 1 };
        b = b.edge(prev as u32, (clique + i) as u32);
    }
    must(b)
}

/// Caterpillar: a spine path of `spine` nodes (`0 … spine-1`), each
/// carrying `legs` pendant leaves, `spine * (1 + legs)` nodes total.
/// Leaf `j` of spine node `i` is node `spine + i * legs + j`.
///
/// Caterpillars mix the high-diameter behavior of paths with star-like
/// local contention at every spine node — a classic small worst-case
/// family for wave algorithms.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine > 0, "caterpillar requires spine > 0");
    let n = spine * (1 + legs);
    let mut b = GraphBuilder::new(n);
    for i in 1..spine {
        b = b.edge(i as u32 - 1, i as u32);
    }
    for i in 0..spine {
        for j in 0..legs {
            b = b.edge(i as u32, (spine + i * legs + j) as u32);
        }
    }
    must(b)
}

/// Wheel `W_n`: node 0 is the hub, nodes `1 … n-1` form a cycle, and
/// every rim node is adjacent to the hub.
///
/// Diameter 2 with maximum degree `n − 1`: the hub sees every reset
/// wave at once while rim waves can still chase each other around the
/// cycle.
///
/// # Panics
///
/// Panics if `n < 4` (the rim needs at least three nodes to stay a
/// simple cycle).
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "wheel requires n >= 4");
    let rim = n - 1;
    let mut b = GraphBuilder::new(n);
    for i in 0..rim {
        let u = (1 + i) as u32;
        let v = (1 + (i + 1) % rim) as u32;
        b = b.edge(u, v);
        b = b.edge(0, u);
    }
    must(b)
}

/// Uniform random labelled tree on `n` nodes (random attachment).
///
/// Each node `i >= 1` attaches to a uniformly random earlier node, which
/// yields a random recursive tree — diameters around `O(log n)`,
/// complementing [`path`] for the high-diameter end.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n > 0, "random_tree requires n > 0");
    let mut rng = SplitMix64::new(seed ^ 0x7EE5_0000);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let parent = rng.below(i as u64) as u32;
        b = b.edge(parent, i as u32);
    }
    must(b)
}

/// Random connected graph: a [`random_tree`] plus `extra` distinct random
/// non-tree edges (fewer if the graph saturates).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_connected(n: usize, extra: usize, seed: u64) -> Graph {
    assert!(n > 0, "random_connected requires n > 0");
    let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00);
    let mut edges: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
    for i in 1..n {
        let parent = rng.below(i as u64) as u32;
        edges.insert((parent.min(i as u32), parent.max(i as u32)));
    }
    let max_edges = n * (n - 1) / 2;
    let target = (edges.len() + extra).min(max_edges);
    let mut attempts = 0usize;
    while edges.len() < target && attempts < 64 * target + 64 {
        attempts += 1;
        let u = rng.below(n as u64) as u32;
        let v = rng.below(n as u64) as u32;
        if u != v {
            edges.insert((u.min(v), u.max(v)));
        }
    }
    must(GraphBuilder::new(n).edges(edges))
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity: samples each edge
/// independently with probability `p`, then links any leftover components
/// with uniformly random bridge edges (so small `p` still yields a valid
/// topology instead of looping forever).
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not within `0.0..=1.0`.
pub fn gnp_connected(n: usize, p: f64, seed: u64) -> Graph {
    assert!(n > 0, "gnp_connected requires n > 0");
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let mut rng = SplitMix64::new(seed ^ 0x6E9_0000);
    let threshold = (p * (u64::MAX as f64)) as u64;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.next_u64() <= threshold {
                edges.push((u as u32, v as u32));
            }
        }
    }
    // Union-find to detect components, then stitch them together.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(u, v) in &edges {
        let (ru, rv) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
        if ru != rv {
            parent[ru] = rv;
        }
    }
    let mut roots: Vec<usize> = (0..n).filter(|&x| find(&mut parent, x) == x).collect();
    while roots.len() > 1 {
        let a = roots[rng.below(roots.len() as u64) as usize];
        let b = loop {
            let b = roots[rng.below(roots.len() as u64) as usize];
            if b != a {
                break b;
            }
        };
        edges.push((a.min(b) as u32, a.max(b) as u32));
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        parent[ra] = rb;
        roots = (0..n).filter(|&x| find(&mut parent, x) == x).collect();
    }
    must(GraphBuilder::new(n).edges(edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(metrics::diameter(&g), 4);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn ring_shape() {
        let g = ring(6);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(metrics::diameter(&g), 3);
        assert!(g.nodes().all(|u| g.degree(u) == 2));
    }

    #[test]
    fn star_shape() {
        let g = star(7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(metrics::diameter(&g), 2);
        assert_eq!(g.max_degree(), 6);
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(metrics::diameter(&g), 1);
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(metrics::diameter(&g), 4);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 4 * 2);
        assert_eq!(metrics::diameter(&g), 5);
    }

    #[test]
    fn torus_shape() {
        let g = torus(4, 4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        assert!(g.nodes().all(|u| g.degree(u) == 4));
        assert_eq!(metrics::diameter(&g), 4);
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        assert_eq!(metrics::diameter(&g), 4);
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(4, 3);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 6 + 3);
        assert_eq!(metrics::diameter(&g), 4);
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(3, 2);
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.edge_count(), 2 + 6); // spine edges + legs
                                           // Spine interior node: 2 spine neighbors + 2 legs.
        assert_eq!(g.degree(crate::NodeId(1)), 4);
        // Leaves are pendant.
        assert_eq!(g.degree(crate::NodeId(8)), 1);
        assert_eq!(metrics::diameter(&g), 4); // leaf-spine-spine-spine-leaf
                                              // Degenerate: no legs is just a path.
        assert_eq!(caterpillar(4, 0), path(4));
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(6);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 10); // 5 rim + 5 spokes
        assert_eq!(g.degree(crate::NodeId(0)), 5);
        assert!((1..6).all(|i| g.degree(crate::NodeId(i)) == 3));
        assert_eq!(metrics::diameter(&g), 2);
        // Smallest wheel: K_4.
        assert_eq!(wheel(4), complete(4));
    }

    #[test]
    fn random_tree_is_tree_and_deterministic() {
        let g1 = random_tree(50, 7);
        let g2 = random_tree(50, 7);
        let g3 = random_tree(50, 8);
        assert_eq!(g1.edge_count(), 49);
        assert_eq!(g1, g2);
        assert_ne!(g1, g3);
    }

    #[test]
    fn random_connected_has_extra_edges() {
        let g = random_connected(30, 10, 3);
        assert!(g.edge_count() >= 30); // 29 tree edges + some extras
    }

    #[test]
    fn gnp_connected_is_connected_even_for_tiny_p() {
        // The builder itself rejects disconnected graphs, so construction
        // succeeding is the assertion.
        let g = gnp_connected(40, 0.01, 11);
        assert_eq!(g.node_count(), 40);
        let dense = gnp_connected(20, 0.9, 11);
        assert!(dense.edge_count() > 150);
    }
}
