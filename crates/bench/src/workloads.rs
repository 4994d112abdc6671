//! Topology and daemon suites swept by the experiments. The adversarial
//! initial configurations live in `ssr_campaign::workloads`.

use ssr_graph::{generators, Graph};
use ssr_runtime::Daemon;

/// Topology families swept by the experiments (label, builder).
pub fn topology_suite(n: usize, seed: u64) -> Vec<(&'static str, Graph)> {
    let mut out = vec![
        ("ring", generators::ring(n.max(3))),
        ("path", generators::path(n)),
        ("star", generators::star(n.max(2))),
        ("rand-tree", generators::random_tree(n, seed)),
        ("rand-sparse", generators::random_connected(n, n / 2, seed)),
    ];
    let side = ((n as f64).sqrt().round() as usize).max(2);
    out.push(("grid", generators::grid(side, side)));
    out
}

/// The daemon strategies exercised by the sweeps.
pub fn daemon_suite() -> Vec<Daemon> {
    vec![
        Daemon::Synchronous,
        Daemon::Central,
        Daemon::RandomSubset { p: 0.5 },
        Daemon::PreferHighRules,
        Daemon::LexMin,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_campaign::workloads::{sdr_broadcast_chain, unison_tear, unison_tear_plain};
    use ssr_core::{toys::Agreement, Sdr, Status};
    use ssr_runtime::Simulator;

    #[test]
    fn suite_labels_unique() {
        let suite = topology_suite(12, 1);
        let mut labels: Vec<_> = suite.iter().map(|(l, _)| *l).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), suite.len());
    }

    #[test]
    fn tear_has_discontinuity() {
        let g = generators::path(8);
        let states = unison_tear(&g, 9, 4);
        // Left half is a unit gradient; the middle edge jumps by 4.
        assert_eq!(states[3].inner, 3);
        assert_eq!(states[4].inner, 8);
        let plain = unison_tear_plain(&g, 9, 4);
        assert_eq!(plain[4], 8);
    }

    #[test]
    fn daemon_suite_includes_adversaries() {
        assert!(daemon_suite().len() >= 5);
    }

    #[test]
    fn broadcast_chain_is_valid_and_recovers_in_bound() {
        let n = 14usize;
        let g = generators::path(n);
        let sdr = Sdr::new(Agreement::new(3));
        let init = sdr_broadcast_chain(&sdr, &g);
        assert_eq!(init[0].sdr.status, Status::RB);
        assert_eq!(init[n - 1].sdr.status, Status::RF);
        assert_eq!(init[n - 1].sdr.dist, (n - 1) as u32);
        let check = Sdr::new(Agreement::new(3));
        // The chain forces a full feedback climb + completion descent —
        // close to the 3n worst case, but never beyond it, under the
        // slowest (central) schedule.
        let mut sim = Simulator::new(&g, sdr, init, Daemon::Central, 7);
        let out = sim
            .execution()
            .cap(1_000_000)
            .until_all(|u, view| check.is_normal_at(u, view))
            .run();
        assert!(out.reached);
        assert!(out.rounds_at_hit <= 3 * n as u64, "Corollary 5 violated");
        assert!(
            out.rounds_at_hit >= n as u64,
            "the chain should cost at least one full traversal ({} rounds)",
            out.rounds_at_hit
        );
    }
}
