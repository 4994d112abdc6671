//! Executable unison specification (§5.1) and the paper's bounds.
//!
//! * **Safety** — "the difference between clocks of every two neighbors
//!   is at most one increment at each instant": [`safety_holds`], the
//!   conjunction over all nodes of [`safety_holds_at`].
//! * **Liveness** — "each process increments its clock infinitely
//!   often": probed over finite windows by [`LivenessMonitor`].
//! * **Bounds** — Theorem 6's move bound in closed form
//!   ([`theorem6_move_bound`]) and Theorem 7's round bound
//!   ([`theorem7_round_bound`]).

use ssr_core::ResetInput;
use ssr_graph::{Graph, NodeId};
use ssr_runtime::{Observer, Simulator, StateView, StepOutcome};

use crate::unison::{Unison, UnisonSdr};

/// Whether every edge satisfies `P_Ok` (clock gap at most one,
/// circularly) — the unison safety predicate.
///
/// # Examples
///
/// ```
/// use ssr_graph::generators;
/// use ssr_unison::spec::safety_holds;
///
/// let g = generators::path(3);
/// assert!(safety_holds(&g, &[4, 5, 5], 7));
/// assert!(safety_holds(&g, &[6, 0, 6], 7)); // wrap-around counts as 1
/// assert!(!safety_holds(&g, &[4, 6, 5], 7));
/// ```
pub fn safety_holds(graph: &Graph, clocks: &[u64], period: u64) -> bool {
    let unison = Unison::new(period);
    graph
        .edges()
        .all(|(u, v)| unison.p_ok(clocks[u.index()], clocks[v.index()]))
}

/// Whether every edge at `u` satisfies `P_Ok` — `P_ICorrect(u)` of
/// Algorithm U, the node-local term of [`safety_holds`]: safety holds
/// exactly when this holds at every node. It reads `N[u]` only. The
/// standalone and cfg-unison guards return it as their legitimacy term
/// (`Algorithm::guard`); this is the spec they are tested against.
///
/// # Examples
///
/// ```
/// use ssr_graph::generators;
/// use ssr_runtime::{ConfigView, NodeId};
/// use ssr_unison::spec::safety_holds_at;
///
/// let g = generators::path(3);
/// let clocks = [4, 6, 5];
/// let view = ConfigView::new(&g, &clocks);
/// assert!(!safety_holds_at(NodeId(0), &view, 7)); // the 4–6 edge
/// assert!(safety_holds_at(NodeId(2), &view, 7));
/// ```
pub fn safety_holds_at<V: StateView<u64>>(u: NodeId, view: &V, period: u64) -> bool {
    Unison::new(period).p_icorrect(u, view)
}

/// Number of edges violating safety (for diagnostics).
pub fn safety_violations(graph: &Graph, clocks: &[u64], period: u64) -> usize {
    let unison = Unison::new(period);
    graph
        .edges()
        .filter(|&(u, v)| !unison.p_ok(clocks[u.index()], clocks[v.index()]))
        .count()
}

/// Observes clock histories to check liveness over a finite window.
///
/// Liveness ("increments infinitely often") is not falsifiable in
/// finite time; the monitor reports whether *every* process incremented
/// at least `target` times during the observed window, which is the
/// standard finite probe.
///
/// # Examples
///
/// ```
/// use ssr_unison::spec::LivenessMonitor;
///
/// let mut m = LivenessMonitor::new(&[0, 0]);
/// m.observe(&[1, 0]);
/// m.observe(&[1, 1]);
/// assert!(m.all_incremented_at_least(1));
/// assert!(!m.all_incremented_at_least(2));
/// assert_eq!(m.min_increments(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct LivenessMonitor {
    previous: Vec<u64>,
    increments: Vec<u64>,
}

impl LivenessMonitor {
    /// Starts monitoring from the given clock vector.
    pub fn new(clocks: &[u64]) -> Self {
        LivenessMonitor {
            previous: clocks.to_vec(),
            increments: vec![0; clocks.len()],
        }
    }

    /// Records the clock vector after a step. Each changed clock counts
    /// as one increment (clocks move by single increments per step).
    pub fn observe(&mut self, clocks: &[u64]) {
        for (i, (&old, &new)) in self.previous.iter().zip(clocks).enumerate() {
            if old != new {
                self.increments[i] += 1;
            }
        }
        self.previous.clear();
        self.previous.extend_from_slice(clocks);
    }

    /// Whether every process incremented at least `target` times.
    pub fn all_incremented_at_least(&self, target: u64) -> bool {
        self.increments.iter().all(|&c| c >= target)
    }

    /// The minimum increment count over all processes.
    pub fn min_increments(&self) -> u64 {
        self.increments.iter().copied().min().unwrap_or(0)
    }
}

/// The unison specification as a plug-in [`Observer`] over `U ∘ SDR`:
/// attach it to an execution window after stabilization and it counts
/// per-step safety violations (must stay `0`, Cor. 7) and feeds a
/// [`LivenessMonitor`] (every clock must advance, Lem. 19) — the E6
/// probe, without a hand-rolled stepping loop.
///
/// # Examples
///
/// ```
/// use ssr_graph::generators;
/// use ssr_runtime::{Daemon, Simulator};
/// use ssr_unison::{spec, unison_sdr, Unison};
///
/// let g = generators::ring(6);
/// let algo = unison_sdr(Unison::for_graph(&g));
/// let init = algo.initial_config(&g); // already legitimate
/// let mut sim = Simulator::new(&g, algo, init, Daemon::Synchronous, 3);
/// let mut probe = spec::SpecObserver::watching(&sim);
/// sim.execution().cap(100).observe(&mut probe).run();
/// assert_eq!(probe.safety_violations(), 0);
/// assert!(probe.min_increments() > 0, "all clocks advanced");
/// ```
#[derive(Clone, Debug)]
pub struct SpecObserver {
    period: u64,
    monitor: LivenessMonitor,
    violations: usize,
}

impl SpecObserver {
    /// Starts observing from the clock vector `clocks`.
    pub fn new(clocks: &[u64], period: u64) -> Self {
        SpecObserver {
            period,
            monitor: LivenessMonitor::new(clocks),
            violations: 0,
        }
    }

    /// Starts observing from `sim`'s current configuration, taking the
    /// period from its algorithm.
    pub fn watching(sim: &Simulator<'_, UnisonSdr>) -> Self {
        let clocks: Vec<u64> = sim.states().iter().map(|s| s.inner).collect();
        SpecObserver::new(&clocks, sim.algorithm().input().period())
    }

    /// Safety violations seen so far (edges breaking `P_Ok`, summed
    /// over every observed instant).
    pub fn safety_violations(&self) -> usize {
        self.violations
    }

    /// The minimum per-process increment count over the window.
    pub fn min_increments(&self) -> u64 {
        self.monitor.min_increments()
    }

    /// Whether every process incremented at least `target` times.
    pub fn all_incremented_at_least(&self, target: u64) -> bool {
        self.monitor.all_incremented_at_least(target)
    }

    /// The underlying liveness monitor.
    pub fn monitor(&self) -> &LivenessMonitor {
        &self.monitor
    }
}

impl Observer<UnisonSdr> for SpecObserver {
    fn on_step(&mut self, sim: &Simulator<'_, UnisonSdr>, _outcome: &StepOutcome) {
        let clocks: Vec<u64> = sim.states().iter().map(|s| s.inner).collect();
        self.violations += safety_violations(sim.graph(), &clocks, self.period);
        self.monitor.observe(&clocks);
    }
}

/// Circular distance between two clock values modulo `period`
/// (the number of increments separating them, whichever way is shorter).
pub fn circular_distance(a: u64, b: u64, period: u64) -> u64 {
    let d = (a + period - b) % period;
    d.min(period - d)
}

/// Maximum *edge* drift: the largest circular clock distance across any
/// edge. Safety (`P_Ok` everywhere) is exactly `max_edge_drift ≤ 1`.
///
/// # Examples
///
/// ```
/// use ssr_graph::generators;
/// use ssr_unison::spec::max_edge_drift;
/// let g = generators::path(3);
/// assert_eq!(max_edge_drift(&g, &[0, 4, 5], 9), 4);
/// assert_eq!(max_edge_drift(&g, &[8, 0, 1], 9), 1); // wrap counts as 1
/// ```
pub fn max_edge_drift(graph: &Graph, clocks: &[u64], period: u64) -> u64 {
    graph
        .edges()
        .map(|(u, v)| circular_distance(clocks[u.index()], clocks[v.index()], period))
        .max()
        .unwrap_or(0)
}

/// Theorem 6's closed-form move bound for `U ∘ SDR` stabilization:
/// `(3D + 3)·n² + (3D + 1)·(n − 1) + 1` (the constant behind
/// `O(D·n²)`, from §5.5).
pub fn theorem6_move_bound(n: u64, diameter: u64) -> u64 {
    (3 * diameter + 3) * n * n + (3 * diameter + 1) * (n - 1) + 1
}

/// Theorem 7's stabilization round bound: `3n`.
pub fn theorem7_round_bound(n: u64) -> u64 {
    3 * n
}

/// Lemma 20's per-process move bound for standalone U started outside
/// the legitimate set: `3D` moves per process.
pub fn lemma20_move_bound(diameter: u64) -> u64 {
    3 * diameter
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_graph::generators;

    #[test]
    fn safety_on_legit_configs() {
        let g = generators::ring(4);
        assert!(safety_holds(&g, &[0, 0, 0, 0], 5));
        assert!(safety_holds(&g, &[1, 0, 0, 1], 5));
        assert!(safety_holds(&g, &[4, 0, 4, 4], 5));
        assert!(!safety_holds(&g, &[0, 2, 0, 0], 5));
    }

    #[test]
    fn violation_count() {
        let g = generators::path(4);
        assert_eq!(safety_violations(&g, &[0, 2, 4, 6], 9), 3);
        assert_eq!(safety_violations(&g, &[1, 1, 2, 2], 9), 0);
    }

    #[test]
    fn liveness_monitor_counts() {
        let mut m = LivenessMonitor::new(&[0, 5]);
        m.observe(&[1, 5]);
        m.observe(&[2, 6]);
        m.observe(&[2, 0]); // wrap: 6 -> 0 still one increment
        assert_eq!(m.min_increments(), 2);
        assert!(m.all_incremented_at_least(2));
    }

    #[test]
    fn circular_distance_props() {
        assert_eq!(circular_distance(0, 0, 7), 0);
        assert_eq!(circular_distance(1, 6, 7), 2);
        assert_eq!(circular_distance(6, 1, 7), 2);
        assert_eq!(circular_distance(3, 0, 7), 3);
    }

    #[test]
    fn drift_one_iff_safe() {
        let g = generators::ring(4);
        let safe = [0u64, 1, 1, 0];
        assert!(max_edge_drift(&g, &safe, 5) <= 1);
        assert!(safety_holds(&g, &safe, 5));
        let unsafe_ = [0u64, 2, 1, 0];
        assert!(max_edge_drift(&g, &unsafe_, 5) > 1);
        assert!(!safety_holds(&g, &unsafe_, 5));
    }

    #[test]
    fn bounds_are_monotone_in_n() {
        assert!(theorem6_move_bound(10, 3) < theorem6_move_bound(20, 3));
        assert!(theorem7_round_bound(7) == 21);
        assert_eq!(lemma20_move_bound(4), 12);
    }
}
