//! Structured unison workloads: clock tears and E11-style clock
//! corruption, shared by the campaign layer, the explorer seed sets,
//! and the experiment harness.

use ssr_core::{Composed, SdrState, Status};
use ssr_graph::Graph;
use ssr_runtime::faults::corrupt_and_reset;
use ssr_runtime::Simulator;

use crate::unison::UnisonSdr;

/// A "clock tear" workload for unison: a maximal legal gradient with a
/// discontinuity of `gap` in the middle — the classic locally-checkable
/// inconsistency (all reset variables clean).
pub fn unison_tear(graph: &Graph, period: u64, gap: u64) -> Vec<Composed<u64>> {
    let n = graph.node_count();
    graph
        .nodes()
        .map(|u| {
            let i = u.index();
            let clock = if i < n / 2 {
                (i as u64) % period
            } else {
                (i as u64 + gap) % period
            };
            Composed::new(SdrState::new(Status::C, 0), clock)
        })
        .collect()
}

/// Plain clock vector version of [`unison_tear`] (for the baseline
/// unison families, which have no reset variables).
pub fn unison_tear_plain(graph: &Graph, period: u64, gap: u64) -> Vec<u64> {
    unison_tear(graph, period, gap)
        .into_iter()
        .map(|c| c.inner)
        .collect()
}

/// E11-style clock corruption: run the legitimate system for `10n`
/// steps, then overwrite the clocks of `k` distinct random processes
/// (reset variables stay clean) and zero the counters so the run
/// measures recovery in isolation. Victims and clocks are drawn as by
/// [`corrupt_and_reset`] with `fault_seed`.
pub fn warm_up_and_corrupt_clocks(
    sim: &mut Simulator<'_, UnisonSdr>,
    k: u64,
    period: u64,
    fault_seed: u64,
) {
    let n = sim.graph().node_count() as u64;
    sim.execution().cap(10 * n).run();
    // Clock-only corruption: keep each victim's reset variables,
    // overwrite its inner clock.
    let snapshot = sim.states().to_vec();
    corrupt_and_reset(sim, k, fault_seed, |u, r| {
        let mut s = snapshot[u.index()];
        s.inner = r.below(period);
        s
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_graph::generators;

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
    fn tear_reset_variables_are_clean() {
        let g = generators::ring(10);
        for s in unison_tear(&g, 11, 5) {
            assert_eq!(s.sdr.status, Status::C);
            assert_eq!(s.sdr.dist, 0);
        }
    }
}
