//! Declarative scenario descriptions.
//!
//! A [`Scenario`] names one simulation run without executing anything:
//! a topology spec × size, an algorithm family handle, a daemon, an
//! initial configuration plan, and a derived seed. Scenarios are plain
//! data (`Send + Sync`), so a campaign can hand them to worker threads
//! and every worker can expand its scenario into graphs, algorithms,
//! and simulators locally — nothing mutable is ever shared.
//!
//! The algorithm axis is the string-addressable
//! [`AlgorithmSpec`](ssr_runtime::family::AlgorithmSpec) handle,
//! resolved against a
//! [`FamilyRegistry`](ssr_runtime::family::FamilyRegistry) at run
//! time; [`crate::families`] provides the standard registry and
//! convenience constructors for the built-in labels.

use ssr_graph::{generators, Graph};
use ssr_runtime::fingerprint::{Canon, Fingerprint, FpEncoder};
use ssr_runtime::rng::splitmix64;
use ssr_runtime::Daemon;

// The scenario vocabulary lives with the family abstraction in the
// runtime (so family implementations can consume it); campaign keeps
// re-exporting it under the historical paths.
pub use ssr_alliance::presets::PresetSpec;
pub use ssr_runtime::family::{AlgorithmSpec, Amount, InitPlan, Params};

/// Topology family, expanded into a concrete [`Graph`] on demand.
///
/// The first six mirror the classic experiment suite; the rest open
/// additional families for custom sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// Cycle on `max(n, 3)` nodes.
    Ring,
    /// Path on `n` nodes.
    Path,
    /// Star on `max(n, 2)` nodes.
    Star,
    /// Uniform random tree on `n` nodes.
    RandTree,
    /// Random connected graph with `n/2` extra edges beyond a tree.
    RandSparse,
    /// Random connected graph with `2n` extra edges beyond a tree.
    RandDense,
    /// Square grid with side `max(round(sqrt(n)), 2)`.
    Grid,
    /// Square torus with side `max(round(sqrt(n)), 3)`.
    Torus,
    /// Complete graph on `max(n, 2)` nodes.
    Complete,
    /// Hypercube of dimension `floor(log2(max(n, 2)))`.
    Hypercube,
    /// Clique of `max(n/2, 3)` nodes with a tail of the remainder.
    Lollipop,
    /// Caterpillar: spine of `max(n/2, 1)` nodes, one pendant leaf each.
    Caterpillar,
    /// Wheel on `max(n, 4)` nodes: hub 0 plus a rim cycle.
    Wheel,
    /// Connected Erdős–Rényi graph, edge probability `per_mille/1000`.
    Gnp {
        /// Edge probability in thousandths (kept integral so the spec
        /// stays `Eq` and hashable).
        per_mille: u32,
    },
}

impl TopologySpec {
    /// Short label used in records and report tables.
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Ring => "ring".into(),
            TopologySpec::Path => "path".into(),
            TopologySpec::Star => "star".into(),
            TopologySpec::RandTree => "rand-tree".into(),
            TopologySpec::RandSparse => "rand-sparse".into(),
            TopologySpec::RandDense => "rand-dense".into(),
            TopologySpec::Grid => "grid".into(),
            TopologySpec::Torus => "torus".into(),
            TopologySpec::Complete => "complete".into(),
            TopologySpec::Hypercube => "hypercube".into(),
            TopologySpec::Lollipop => "lollipop".into(),
            TopologySpec::Caterpillar => "caterpillar".into(),
            TopologySpec::Wheel => "wheel".into(),
            TopologySpec::Gnp { per_mille } => format!("gnp({per_mille}e-3)"),
        }
    }

    /// Parses a [`TopologySpec::label`] rendering back — the inverse
    /// used by campaign-spec deserialization (`None` on anything else).
    pub fn parse_label(s: &str) -> Option<TopologySpec> {
        match s {
            "ring" => return Some(TopologySpec::Ring),
            "path" => return Some(TopologySpec::Path),
            "star" => return Some(TopologySpec::Star),
            "rand-tree" => return Some(TopologySpec::RandTree),
            "rand-sparse" => return Some(TopologySpec::RandSparse),
            "rand-dense" => return Some(TopologySpec::RandDense),
            "grid" => return Some(TopologySpec::Grid),
            "torus" => return Some(TopologySpec::Torus),
            "complete" => return Some(TopologySpec::Complete),
            "hypercube" => return Some(TopologySpec::Hypercube),
            "lollipop" => return Some(TopologySpec::Lollipop),
            "caterpillar" => return Some(TopologySpec::Caterpillar),
            "wheel" => return Some(TopologySpec::Wheel),
            _ => {}
        }
        s.strip_prefix("gnp(")
            .and_then(|r| r.strip_suffix("e-3)"))
            .and_then(|p| p.parse::<u32>().ok())
            .map(|per_mille| TopologySpec::Gnp { per_mille })
    }

    /// Whether [`TopologySpec::build`] draws from its seed. The random
    /// families do; every other topology is a function of `n` alone,
    /// so a campaign worker builds it once for a run of scenarios of
    /// the same size and reuses it.
    pub fn uses_seed(&self) -> bool {
        match self {
            TopologySpec::RandTree
            | TopologySpec::RandSparse
            | TopologySpec::RandDense
            | TopologySpec::Gnp { .. } => true,
            TopologySpec::Ring
            | TopologySpec::Path
            | TopologySpec::Star
            | TopologySpec::Grid
            | TopologySpec::Torus
            | TopologySpec::Complete
            | TopologySpec::Hypercube
            | TopologySpec::Lollipop
            | TopologySpec::Caterpillar
            | TopologySpec::Wheel => false,
        }
    }

    /// Builds the concrete graph for nominal size `n`.
    ///
    /// `seed` only matters for the random families
    /// ([`TopologySpec::uses_seed`]); deterministic topologies ignore
    /// it.
    pub fn build(&self, n: usize, seed: u64) -> Graph {
        let side = ((n as f64).sqrt().round() as usize).max(2);
        match self {
            TopologySpec::Ring => generators::ring(n.max(3)),
            TopologySpec::Path => generators::path(n.max(1)),
            TopologySpec::Star => generators::star(n.max(2)),
            TopologySpec::RandTree => generators::random_tree(n.max(1), seed),
            TopologySpec::RandSparse => generators::random_connected(n.max(1), n / 2, seed),
            TopologySpec::RandDense => generators::random_connected(n.max(1), 2 * n, seed),
            TopologySpec::Grid => generators::grid(side, side),
            TopologySpec::Torus => generators::torus(side.max(3), side.max(3)),
            TopologySpec::Complete => generators::complete(n.max(2)),
            TopologySpec::Hypercube => {
                let mut d = 0usize;
                while (2usize << d) <= n.max(2) {
                    d += 1;
                }
                generators::hypercube(d.max(1))
            }
            TopologySpec::Lollipop => {
                let clique = (n / 2).max(3);
                generators::lollipop(clique, n.saturating_sub(clique).max(1))
            }
            TopologySpec::Caterpillar => generators::caterpillar((n / 2).max(1), 1),
            TopologySpec::Wheel => generators::wheel(n.max(4)),
            TopologySpec::Gnp { per_mille } => {
                generators::gnp_connected(n.max(2), *per_mille as f64 / 1000.0, seed)
            }
        }
    }
}

impl Canon for TopologySpec {
    fn canon(&self, enc: &mut FpEncoder) {
        match self {
            TopologySpec::Ring => enc.tag(0),
            TopologySpec::Path => enc.tag(1),
            TopologySpec::Star => enc.tag(2),
            TopologySpec::RandTree => enc.tag(3),
            TopologySpec::RandSparse => enc.tag(4),
            TopologySpec::RandDense => enc.tag(5),
            TopologySpec::Grid => enc.tag(6),
            TopologySpec::Torus => enc.tag(7),
            TopologySpec::Complete => enc.tag(8),
            TopologySpec::Hypercube => enc.tag(9),
            TopologySpec::Lollipop => enc.tag(10),
            TopologySpec::Caterpillar => enc.tag(11),
            TopologySpec::Wheel => enc.tag(12),
            TopologySpec::Gnp { per_mille } => {
                enc.tag(13);
                enc.u64(u64::from(*per_mille));
            }
        }
    }
}

/// One fully-specified run: the unit of work a campaign worker drains.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Position in the campaign grid (also the determinism anchor:
    /// the seed is derived from it, never from worker identity).
    pub index: usize,
    /// Topology family.
    pub topology: TopologySpec,
    /// Nominal network size (the actual node count may differ by the
    /// family's clamping rules, see [`TopologySpec::build`]).
    pub n: usize,
    /// Algorithm family handle, resolved against a registry at run
    /// time.
    pub algorithm: AlgorithmSpec,
    /// Daemon strategy.
    pub daemon: Daemon,
    /// Initial-configuration plan.
    pub init: InitPlan,
    /// Trial number within the grid cell.
    pub trial: u64,
    /// Derived per-scenario master seed.
    pub seed: u64,
    /// Step budget for the run.
    pub step_cap: u64,
    /// Intra-run worker threads for the step pipeline (1 =
    /// sequential). Byte-identical results at any value — the axis
    /// exists for throughput sweeps, not semantics.
    pub intra_threads: usize,
}

impl Scenario {
    /// Derives `K` independent sub-seeds from the scenario seed
    /// (graph / init / simulator / faults, in whatever order the
    /// runner assigns them).
    pub fn seeds<const K: usize>(&self) -> [u64; K] {
        let mut state = self.seed;
        std::array::from_fn(|_| splitmix64(&mut state))
    }

    /// The canonical content fingerprint: a stable 128-bit hash over
    /// the byte-canonical encoding of **what this run is** — topology
    /// × size × algorithm × daemon × init plan × seed × step cap.
    ///
    /// Grid bookkeeping is deliberately excluded: `index` and `trial`
    /// say *where* the scenario sits, not what it computes, and
    /// `intra_threads` is seed-transparent (runs are byte-identical at
    /// any value). Two scenarios with equal fingerprints therefore
    /// produce identical [`crate::ScenarioRecord`]s up to those
    /// position fields — the invariant the campaign result cache
    /// ([`crate::cache`]) and the `ssr-checkpoint/v1` store are built
    /// on.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut enc = FpEncoder::new();
        enc.str("ssr-scenario/v1");
        self.topology.canon(&mut enc);
        enc.usize(self.n);
        self.algorithm.canon(&mut enc);
        self.daemon.canon(&mut enc);
        self.init.canon(&mut enc);
        enc.u64(self.seed);
        enc.u64(self.step_cap);
        enc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    #[test]
    fn topology_labels_unique() {
        let all = [
            TopologySpec::Ring,
            TopologySpec::Path,
            TopologySpec::Star,
            TopologySpec::RandTree,
            TopologySpec::RandSparse,
            TopologySpec::RandDense,
            TopologySpec::Grid,
            TopologySpec::Torus,
            TopologySpec::Complete,
            TopologySpec::Hypercube,
            TopologySpec::Lollipop,
            TopologySpec::Caterpillar,
            TopologySpec::Wheel,
            TopologySpec::Gnp { per_mille: 300 },
        ];
        let mut labels: Vec<String> = all.iter().map(|t| t.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn builds_are_connected_and_sized() {
        for spec in [
            TopologySpec::Ring,
            TopologySpec::Path,
            TopologySpec::Star,
            TopologySpec::RandTree,
            TopologySpec::RandSparse,
            TopologySpec::RandDense,
            TopologySpec::Grid,
            TopologySpec::Torus,
            TopologySpec::Complete,
            TopologySpec::Hypercube,
            TopologySpec::Lollipop,
            TopologySpec::Caterpillar,
            TopologySpec::Wheel,
            TopologySpec::Gnp { per_mille: 400 },
        ] {
            let g = spec.build(12, 7);
            assert!(g.node_count() >= 2, "{spec:?} too small");
            // Deterministic given (n, seed).
            let h = spec.build(12, 7);
            assert_eq!(g.node_count(), h.node_count(), "{spec:?} not deterministic");
            assert_eq!(g.edge_count(), h.edge_count(), "{spec:?} not deterministic");
        }
    }

    #[test]
    fn uses_seed_says_which_builds_depend_on_the_seed() {
        for spec in [
            TopologySpec::Ring,
            TopologySpec::Path,
            TopologySpec::Star,
            TopologySpec::RandTree,
            TopologySpec::RandSparse,
            TopologySpec::RandDense,
            TopologySpec::Grid,
            TopologySpec::Torus,
            TopologySpec::Complete,
            TopologySpec::Hypercube,
            TopologySpec::Lollipop,
            TopologySpec::Caterpillar,
            TopologySpec::Wheel,
            TopologySpec::Gnp { per_mille: 300 },
        ] {
            for n in [5, 8, 16] {
                let base = spec.build(n, 0);
                let same = (1..=8).all(|seed| spec.build(n, seed) == base);
                // At n = 5, `RandDense`'s 2n extra edges fill K₅, the
                // one graph every seed builds.
                let saturated = base.edge_count() == n * (n - 1) / 2;
                if spec.uses_seed() {
                    assert!(!same || saturated, "{spec:?} at n={n} ignores its seed");
                } else {
                    assert!(same, "{spec:?} at n={n} draws from its seed");
                }
            }
        }
    }

    #[test]
    fn hypercube_dimension_is_floor_log2() {
        // n = 12 → dimension 3 → 8 nodes.
        let g = TopologySpec::Hypercube.build(12, 0);
        assert_eq!(g.node_count(), 8);
        let g = TopologySpec::Hypercube.build(16, 0);
        assert_eq!(g.node_count(), 16);
    }

    #[test]
    fn preset_labels_match_alliance_presets() {
        let g = generators::ring(8);
        let from_presets: Vec<&str> = ssr_alliance::presets::all_presets(&g)
            .into_iter()
            .map(|(label, _)| label)
            .collect();
        for spec in PresetSpec::all() {
            if spec.build(&g).is_some() {
                assert!(
                    from_presets.contains(&spec.label()),
                    "label {:?} unknown to all_presets",
                    spec.label()
                );
            }
        }
    }

    #[test]
    fn topology_labels_round_trip_through_parse_label() {
        for spec in [
            TopologySpec::Ring,
            TopologySpec::Path,
            TopologySpec::Star,
            TopologySpec::RandTree,
            TopologySpec::RandSparse,
            TopologySpec::RandDense,
            TopologySpec::Grid,
            TopologySpec::Torus,
            TopologySpec::Complete,
            TopologySpec::Hypercube,
            TopologySpec::Lollipop,
            TopologySpec::Caterpillar,
            TopologySpec::Wheel,
            TopologySpec::Gnp { per_mille: 250 },
        ] {
            assert_eq!(TopologySpec::parse_label(&spec.label()), Some(spec));
        }
        assert_eq!(TopologySpec::parse_label("möbius"), None);
        assert_eq!(TopologySpec::parse_label("gnp(xe-3)"), None);
    }

    #[test]
    fn fingerprint_ignores_grid_position_but_not_content() {
        let base = Scenario {
            index: 5,
            topology: TopologySpec::Ring,
            n: 8,
            algorithm: families::unison_sdr(),
            daemon: Daemon::Central,
            init: InitPlan::Arbitrary,
            trial: 0,
            seed: 42,
            step_cap: 1000,
            intra_threads: 1,
        };
        let fp = base.fingerprint();
        let mut moved = base.clone();
        moved.index = 99;
        moved.trial = 3;
        moved.intra_threads = 4;
        assert_eq!(moved.fingerprint(), fp, "position fields are excluded");
        for (what, sc) in [
            ("seed", {
                let mut s = base.clone();
                s.seed = 43;
                s
            }),
            ("cap", {
                let mut s = base.clone();
                s.step_cap = 999;
                s
            }),
            ("n", {
                let mut s = base.clone();
                s.n = 9;
                s
            }),
            ("daemon", {
                let mut s = base.clone();
                s.daemon = Daemon::Synchronous;
                s
            }),
            ("init", {
                let mut s = base.clone();
                s.init = InitPlan::Normal;
                s
            }),
            ("topology", {
                let mut s = base.clone();
                s.topology = TopologySpec::Path;
                s
            }),
        ] {
            assert_ne!(sc.fingerprint(), fp, "{what} must be part of the key");
        }
    }

    #[test]
    fn seed_derivation_is_stable() {
        let sc = Scenario {
            index: 5,
            topology: TopologySpec::Ring,
            n: 8,
            algorithm: families::unison_sdr(),
            daemon: Daemon::Central,
            init: InitPlan::Arbitrary,
            trial: 0,
            seed: 42,
            step_cap: 1000,
            intra_threads: 1,
        };
        let a: [u64; 4] = sc.seeds();
        let b: [u64; 4] = sc.seeds();
        assert_eq!(a, b);
        let mut dedup = a.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4, "sub-seeds must be distinct");
    }
}
