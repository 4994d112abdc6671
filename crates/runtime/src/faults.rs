//! Transient-fault injection (workload generator for recovery
//! experiments, DESIGN.md E11).
//!
//! Self-stabilization quantifies over *arbitrary* initial configurations
//! — equivalently, over arbitrary bursts of transient faults that
//! corrupt process memory but not code (§1). This module corrupts a
//! running [`Simulator`] by overwriting the states of `k` random
//! processes with caller-supplied domain-respecting random states.

use ssr_graph::NodeId;

use crate::algorithm::Algorithm;
use crate::rng::Xoshiro256StarStar;
use crate::simulator::Simulator;

/// Overwrites the states of `k` distinct random processes.
///
/// `corrupt` receives the victim and the RNG and must return a state
/// *within the variable domains* of the algorithm (self-stabilization
/// assumes variables keep their types). Returns the victims.
///
/// # Panics
///
/// Panics if `k` exceeds the node count.
///
/// # Examples
///
/// ```
/// use ssr_graph::generators;
/// use ssr_runtime::{faults, Daemon, Simulator};
/// use ssr_runtime::rng::Xoshiro256StarStar;
/// # use ssr_runtime::{Algorithm, NodeId, RuleId, RuleMask, StateView};
/// # struct Noop;
/// # impl Algorithm for Noop {
/// #     type State = u8;
/// #     fn rule_count(&self) -> usize { 1 }
/// #     fn rule_name(&self, _: RuleId) -> &'static str { "noop" }
/// #     fn enabled_mask<V: StateView<u8>>(&self, _: NodeId, _: &V) -> RuleMask { RuleMask::NONE }
/// #     fn apply<V: StateView<u8>>(&self, _: NodeId, _: &V, _: RuleId) -> u8 { 0 }
/// # }
/// let g = generators::ring(8);
/// let mut sim = Simulator::new(&g, Noop, vec![0u8; 8], Daemon::Central, 1);
/// let mut rng = Xoshiro256StarStar::seed_from_u64(2);
/// let victims = faults::corrupt_random(&mut sim, 3, &mut rng, |_, r| (r.below(7) + 1) as u8);
/// assert_eq!(victims.len(), 3);
/// assert_eq!(sim.states().iter().filter(|&&s| s != 0).count(), 3);
/// ```
pub fn corrupt_random<A: Algorithm>(
    sim: &mut Simulator<'_, A>,
    k: usize,
    rng: &mut Xoshiro256StarStar,
    mut corrupt: impl FnMut(NodeId, &mut Xoshiro256StarStar) -> A::State,
) -> Vec<NodeId> {
    let n = sim.graph().node_count();
    assert!(k <= n, "cannot corrupt more processes than exist");
    // Partial Fisher–Yates over the node ids.
    let mut ids: Vec<NodeId> = sim.graph().nodes().collect();
    for i in 0..k {
        let j = i + rng.index(n - i);
        ids.swap(i, j);
    }
    ids.truncate(k);
    for &u in &ids {
        let state = corrupt(u, rng);
        sim.inject(u, state);
    }
    ids
}

/// The fault of the `CorruptClocks { k }` init plan: [`corrupt_random`]
/// on `k` processes (at most all of them) with an RNG seeded with
/// `fault_seed`, then [`Simulator::reset_stats`], so the run that
/// follows measures recovery alone. Equal seeds pick equal victims on
/// every algorithm, so families share one fault pattern.
pub fn corrupt_and_reset<A: Algorithm>(
    sim: &mut Simulator<'_, A>,
    k: u64,
    fault_seed: u64,
    corrupt: impl FnMut(NodeId, &mut Xoshiro256StarStar) -> A::State,
) {
    let k = k.min(sim.graph().node_count() as u64) as usize;
    corrupt_random(
        sim,
        k,
        &mut Xoshiro256StarStar::seed_from_u64(fault_seed),
        corrupt,
    );
    sim.reset_stats();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{RuleId, RuleMask, StateView};
    use crate::daemon::Daemon;
    use ssr_graph::generators;

    struct Noop;
    impl Algorithm for Noop {
        type State = u8;
        fn rule_count(&self) -> usize {
            1
        }
        fn rule_name(&self, _: RuleId) -> &'static str {
            "noop"
        }
        fn enabled_mask<V: StateView<u8>>(&self, _: NodeId, _: &V) -> RuleMask {
            RuleMask::NONE
        }
        fn apply<V: StateView<u8>>(&self, _: NodeId, _: &V, _: RuleId) -> u8 {
            0
        }
    }

    #[test]
    fn corrupts_exactly_k_distinct_processes() {
        let g = generators::ring(10);
        let mut sim = Simulator::new(&g, Noop, vec![0u8; 10], Daemon::Central, 0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let victims = corrupt_random(&mut sim, 4, &mut rng, |_, _| 9);
        let mut sorted = victims.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert_eq!(sim.states().iter().filter(|&&s| s == 9).count(), 4);
    }

    #[test]
    fn corrupt_zero_is_noop() {
        let g = generators::ring(5);
        let mut sim = Simulator::new(&g, Noop, vec![0u8; 5], Daemon::Central, 0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let victims = corrupt_random(&mut sim, 0, &mut rng, |_, _| 9);
        assert!(victims.is_empty());
        assert!(sim.states().iter().all(|&s| s == 0));
    }

    #[test]
    fn corrupt_all_hits_everyone() {
        let g = generators::ring(6);
        let mut sim = Simulator::new(&g, Noop, vec![0u8; 6], Daemon::Central, 0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        corrupt_random(&mut sim, 6, &mut rng, |u, _| u.0 as u8 + 1);
        assert!(sim.states().iter().all(|&s| s != 0));
    }

    #[test]
    #[should_panic(expected = "cannot corrupt more")]
    fn corrupt_too_many_panics() {
        let g = generators::ring(3);
        let mut sim = Simulator::new(&g, Noop, vec![0u8; 3], Daemon::Central, 0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        corrupt_random(&mut sim, 4, &mut rng, |_, _| 1);
    }
}
