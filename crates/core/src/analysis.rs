//! Execution analysis for `I ∘ SDR` (§4): alive/dead roots, reset
//! branches, segments, and the per-segment rule language of
//! Corollary 3.
//!
//! These are *observers*: they never influence the execution, they
//! verify that it conforms to the paper's structural theorems:
//!
//! * Theorem 3 / Remark 4 — alive roots are never created, so the alive
//!   root set shrinks monotonically;
//! * Remark 5 — at most `n + 1` segments per execution;
//! * Corollary 3 — per process and segment, the executed rules form a
//!   word of `(C + ε) · words_I · (RB + R + ε) · (RF + ε)`.

use std::collections::BTreeSet;

use ssr_graph::{Graph, NodeId};
use ssr_runtime::{ConfigView, Observer, RuleId, Simulator, StepOutcome};

use crate::input::ResetInput;
use crate::sdr::{Sdr, RULE_C, RULE_R, RULE_RB, RULE_RF};
use crate::state::Composed;

/// Classification of a composed rule for segment-language checking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleKind {
    /// SDR `rule_C`.
    Clean,
    /// SDR `rule_RB`.
    Broadcast,
    /// SDR `rule_R`.
    Root,
    /// SDR `rule_RF`.
    Feedback,
    /// Any rule of the input algorithm.
    Inner,
}

impl RuleKind {
    /// Classifies a composed rule id.
    pub fn of(rule: RuleId) -> RuleKind {
        match rule {
            RULE_RB => RuleKind::Broadcast,
            RULE_RF => RuleKind::Feedback,
            RULE_C => RuleKind::Clean,
            RULE_R => RuleKind::Root,
            _ => RuleKind::Inner,
        }
    }
}

/// All alive roots (Definition 1) of a configuration.
pub fn alive_roots<I: ResetInput>(
    sdr: &Sdr<I>,
    graph: &Graph,
    states: &[Composed<I::State>],
) -> BTreeSet<NodeId> {
    let view = ConfigView::new(graph, states);
    graph
        .nodes()
        .filter(|&u| sdr.is_alive_root(u, &view))
        .collect()
}

/// All dead roots (Definition 1) of a configuration.
pub fn dead_roots<I: ResetInput>(
    sdr: &Sdr<I>,
    graph: &Graph,
    states: &[Composed<I::State>],
) -> BTreeSet<NodeId> {
    let view = ConfigView::new(graph, states);
    graph
        .nodes()
        .filter(|&u| sdr.is_dead_root(u, &view))
        .collect()
}

/// The reset parents of `u` (Definition 4): neighbors `v` with
/// `RParent(v, u)`.
pub fn reset_parents<I: ResetInput>(
    sdr: &Sdr<I>,
    graph: &Graph,
    states: &[Composed<I::State>],
    u: NodeId,
) -> Vec<NodeId> {
    let view = ConfigView::new(graph, states);
    graph
        .neighbors(u)
        .iter()
        .copied()
        .filter(|&v| sdr.is_reset_parent(v, u, &view))
        .collect()
}

/// The reset children of `v`: neighbors `u` with `RParent(v, u)`.
pub fn reset_children<I: ResetInput>(
    sdr: &Sdr<I>,
    graph: &Graph,
    states: &[Composed<I::State>],
    v: NodeId,
) -> Vec<NodeId> {
    let view = ConfigView::new(graph, states);
    graph
        .neighbors(v)
        .iter()
        .copied()
        .filter(|&u| sdr.is_reset_parent(v, u, &view))
        .collect()
}

/// Maximum depth over all reset branches (Definition 5); the root sits
/// at depth 0, so Lemma 7.1 bounds the result by `n − 1`.
///
/// Returns `None` when the configuration has no branch (no root).
pub fn max_branch_depth<I: ResetInput>(
    sdr: &Sdr<I>,
    graph: &Graph,
    states: &[Composed<I::State>],
) -> Option<usize> {
    let view = ConfigView::new(graph, states);
    let n = graph.node_count();
    // RParent edges strictly increase `dist`, so processing nodes by
    // ascending dist yields a topological order of the branch DAG.
    let mut order: Vec<NodeId> = graph.nodes().collect();
    order.sort_by_key(|&u| states[u.index()].sdr.dist);
    let mut depth: Vec<Option<usize>> = vec![None; n];
    for &u in &order {
        if sdr.is_alive_root(u, &view) || sdr.is_dead_root(u, &view) {
            depth[u.index()] = Some(0);
        }
    }
    for &u in &order {
        for &v in graph.neighbors(u) {
            if sdr.is_reset_parent(v, u, &view) {
                if let Some(dv) = depth[v.index()] {
                    let candidate = dv + 1;
                    if depth[u.index()].is_none_or(|du| du < candidate) {
                        depth[u.index()] = Some(candidate);
                    }
                }
            }
        }
    }
    depth.into_iter().flatten().max()
}

/// Per-process automaton for the segment rule language of Corollary 3:
/// `(rule_C + ε) · words_I · (rule_RB + rule_R + ε) · (rule_RF + ε)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Nothing consumed: `rule_C` still allowed.
    Fresh,
    /// Inside `words_I` (after `rule_C` or an inner move).
    Words,
    /// After `rule_RB`/`rule_R`: only `rule_RF` may follow.
    Reset,
    /// After `rule_RF`: nothing may follow within this segment.
    Done,
}

impl Phase {
    fn advance(self, kind: RuleKind) -> Result<Phase, ()> {
        use Phase::*;
        use RuleKind::*;
        match (self, kind) {
            (Fresh, Clean) => Ok(Words),
            (Fresh | Words, Inner) => Ok(Words),
            (Fresh | Words, Broadcast | Root) => Ok(Reset),
            (Fresh | Words | Reset, Feedback) => Ok(Done),
            _ => Err(()),
        }
    }
}

/// Summary emitted by [`SegmentTracker::report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentReport {
    /// Number of segments observed so far (≥ 1; Remark 5 bounds it by
    /// `n + 1`).
    pub segments: u64,
    /// Alive-root counts at each segment boundary (strictly decreasing).
    pub alive_roots_per_segment: Vec<usize>,
    /// Human-readable descriptions of every violated theorem (empty in
    /// a correct implementation).
    pub violations: Vec<String>,
}

impl SegmentReport {
    /// Whether every checked theorem held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Observes an `I ∘ SDR` execution step by step, checking Theorem 3
/// (alive-root monotonicity), Remark 5 (segment count), and Corollary 3
/// (per-segment rule language).
///
/// Drive it manually:
///
/// ```
/// use ssr_core::{toys::Agreement, Sdr, SegmentTracker};
/// use ssr_graph::generators;
/// use ssr_runtime::{Daemon, Simulator, StepOutcome};
///
/// let g = generators::ring(5);
/// let sdr = Sdr::new(Agreement::new(3));
/// let init = sdr.arbitrary_config(&g, 99);
/// let mut tracker = SegmentTracker::new(&sdr, &g, &init);
/// let mut sim = Simulator::new(&g, sdr, init, Daemon::Central, 1);
/// while let StepOutcome::Progress { .. } = sim.step() {
///     tracker.after_step(
///         sim.algorithm(),
///         sim.graph(),
///         sim.states(),
///         sim.last_activated(),
///     );
/// }
/// let report = tracker.report();
/// assert!(report.ok(), "{:?}", report.violations);
/// assert!(report.segments <= 5 + 1); // Remark 5
/// ```
#[derive(Clone, Debug)]
pub struct SegmentTracker {
    alive: BTreeSet<NodeId>,
    segments: u64,
    alive_history: Vec<usize>,
    phases: Vec<Phase>,
    violations: Vec<String>,
    n: usize,
}

impl SegmentTracker {
    /// Starts tracking from the initial configuration.
    pub fn new<I: ResetInput>(sdr: &Sdr<I>, graph: &Graph, states: &[Composed<I::State>]) -> Self {
        let alive = alive_roots(sdr, graph, states);
        let n = graph.node_count();
        SegmentTracker {
            alive_history: vec![alive.len()],
            alive,
            segments: 1,
            phases: vec![Phase::Fresh; n],
            violations: Vec::new(),
            n,
        }
    }

    /// Records one step: `states` is the configuration *after* the step
    /// and `activated` the `(process, rule)` moves that produced it.
    pub fn after_step<I: ResetInput>(
        &mut self,
        sdr: &Sdr<I>,
        graph: &Graph,
        states: &[Composed<I::State>],
        activated: &[(NodeId, RuleId)],
    ) {
        // Corollary 3: the moves of this step extend the current
        // segment's per-process words (the boundary step still belongs
        // to the segment it ends, Definition 3).
        for &(u, rule) in activated {
            let kind = RuleKind::of(rule);
            match self.phases[u.index()].advance(kind) {
                Ok(next) => self.phases[u.index()] = next,
                Err(()) => self.violations.push(format!(
                    "Corollary 3 violated: {u:?} executed {kind:?} in phase {:?} (segment {})",
                    self.phases[u.index()],
                    self.segments
                )),
            }
        }

        // Theorem 3 / Remark 4: no alive root is ever created.
        let now = alive_roots(sdr, graph, states);
        if !now.is_subset(&self.alive) {
            let created: Vec<_> = now.difference(&self.alive).collect();
            self.violations.push(format!(
                "Theorem 3 violated: alive roots created: {created:?}"
            ));
        }

        // Definition 3: segment boundary when |AR| decreases.
        if now.len() < self.alive.len() {
            self.segments += 1;
            self.alive_history.push(now.len());
            self.phases.fill(Phase::Fresh);
            if self.segments > (self.n as u64) + 1 {
                self.violations.push(format!(
                    "Remark 5 violated: {} segments on {} processes",
                    self.segments, self.n
                ));
            }
        }
        self.alive = now;
    }

    /// The summary so far.
    pub fn report(&self) -> SegmentReport {
        SegmentReport {
            segments: self.segments,
            alive_roots_per_segment: self.alive_history.clone(),
            violations: self.violations.clone(),
        }
    }
}

/// [`SegmentTracker`] as a plug-in [`Observer`]: attach it to an
/// execution and every step feeds the Theorem 3 / Remark 5 /
/// Corollary 3 checks — no hand-rolled stepping loop required.
///
/// # Examples
///
/// ```
/// use ssr_core::{toys::Agreement, Sdr, SegmentObserver};
/// use ssr_graph::generators;
/// use ssr_runtime::{Daemon, Simulator};
///
/// let g = generators::ring(5);
/// let sdr = Sdr::new(Agreement::new(3));
/// let init = sdr.arbitrary_config(&g, 99);
/// let mut probe = SegmentObserver::new(&sdr, &g, &init);
/// let mut sim = Simulator::new(&g, sdr, init, Daemon::Central, 1);
/// sim.execution().cap(100_000).observe(&mut probe).run();
/// let report = probe.report();
/// assert!(report.ok(), "{:?}", report.violations);
/// assert!(report.segments <= 5 + 1); // Remark 5
/// ```
#[derive(Clone, Debug)]
pub struct SegmentObserver {
    tracker: SegmentTracker,
}

impl SegmentObserver {
    /// Starts tracking from the initial configuration (the same
    /// arguments as [`SegmentTracker::new`]).
    pub fn new<I: ResetInput>(sdr: &Sdr<I>, graph: &Graph, states: &[Composed<I::State>]) -> Self {
        SegmentObserver {
            tracker: SegmentTracker::new(sdr, graph, states),
        }
    }

    /// The summary so far.
    pub fn report(&self) -> SegmentReport {
        self.tracker.report()
    }

    /// The underlying tracker (for incremental inspection).
    pub fn tracker(&self) -> &SegmentTracker {
        &self.tracker
    }
}

impl<I: ResetInput> Observer<Sdr<I>> for SegmentObserver {
    fn on_step(&mut self, sim: &Simulator<'_, Sdr<I>>, _outcome: &StepOutcome) {
        self.tracker.after_step(
            sim.algorithm(),
            sim.graph(),
            sim.states(),
            sim.last_activated(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{SdrState, Status};
    use crate::toys::{Agreement, BoundedCounter};
    use ssr_graph::generators;
    use ssr_runtime::{Daemon, Simulator, StepOutcome};

    type St = Composed<u32>;

    fn mk(status: Status, dist: u32, x: u32) -> St {
        Composed::new(SdrState::new(status, dist), x)
    }

    #[test]
    fn alive_roots_found() {
        let g = generators::path(3);
        let sdr = Sdr::new(Agreement::new(3));
        // Node 0: RB root (d=0); node 1: RB d=1 (child); node 2: clean but
        // inconsistent with nobody (all zeros) -> not a root.
        let states = vec![
            mk(Status::RB, 0, 0),
            mk(Status::RB, 1, 0),
            mk(Status::C, 0, 0),
        ];
        let roots = alive_roots(&sdr, &g, &states);
        assert!(roots.contains(&NodeId(0)));
        assert!(!roots.contains(&NodeId(1)));
        assert!(!roots.contains(&NodeId(2)));
    }

    #[test]
    fn dead_roots_found() {
        let g = generators::path(2);
        let sdr = Sdr::new(Agreement::new(3));
        let states = vec![mk(Status::RF, 0, 0), mk(Status::RF, 1, 0)];
        let dead = dead_roots(&sdr, &g, &states);
        assert_eq!(dead.into_iter().collect::<Vec<_>>(), vec![NodeId(0)]);
    }

    #[test]
    fn reset_parent_relation() {
        let g = generators::path(3);
        let sdr = Sdr::new(Agreement::new(3));
        let states = vec![
            mk(Status::RB, 0, 0),
            mk(Status::RB, 1, 0),
            mk(Status::RB, 2, 0),
        ];
        assert_eq!(reset_parents(&sdr, &g, &states, NodeId(1)), vec![NodeId(0)]);
        assert_eq!(reset_parents(&sdr, &g, &states, NodeId(2)), vec![NodeId(1)]);
        assert!(reset_parents(&sdr, &g, &states, NodeId(0)).is_empty());
        assert_eq!(
            reset_children(&sdr, &g, &states, NodeId(0)),
            vec![NodeId(1)]
        );
    }

    #[test]
    fn rf_child_of_rb_parent_is_branch_edge() {
        // Definition 4 allows st_u = RF with st_v = RB (the RB∗RF∗ shape
        // of Lemma 7.2).
        let g = generators::path(2);
        let sdr = Sdr::new(Agreement::new(3));
        let states = vec![mk(Status::RB, 0, 0), mk(Status::RF, 1, 0)];
        assert_eq!(reset_parents(&sdr, &g, &states, NodeId(1)), vec![NodeId(0)]);
    }

    #[test]
    fn branch_depth_bounded_by_lemma_7() {
        let g = generators::path(4);
        let sdr = Sdr::new(Agreement::new(3));
        let states = vec![
            mk(Status::RB, 0, 0),
            mk(Status::RB, 1, 0),
            mk(Status::RB, 2, 0),
            mk(Status::RB, 3, 0),
        ];
        assert_eq!(max_branch_depth(&sdr, &g, &states), Some(3));
        let clean: Vec<St> = (0..4).map(|_| mk(Status::C, 0, 0)).collect();
        assert_eq!(max_branch_depth(&sdr, &g, &clean), None);
    }

    #[test]
    fn rule_kind_classification() {
        assert_eq!(RuleKind::of(RULE_RB), RuleKind::Broadcast);
        assert_eq!(RuleKind::of(RULE_RF), RuleKind::Feedback);
        assert_eq!(RuleKind::of(RULE_C), RuleKind::Clean);
        assert_eq!(RuleKind::of(RULE_R), RuleKind::Root);
        assert_eq!(RuleKind::of(RuleId(4)), RuleKind::Inner);
    }

    #[test]
    fn phase_automaton_accepts_canonical_words() {
        use RuleKind::*;
        let accept = |word: &[RuleKind]| {
            let mut p = Phase::Fresh;
            for &k in word {
                p = p.advance(k).expect("word should be accepted");
            }
        };
        accept(&[Clean, Inner, Inner, Broadcast, Feedback]);
        accept(&[Root, Feedback]);
        accept(&[Inner, Inner]);
        accept(&[Feedback]);
        accept(&[Clean]);
    }

    #[test]
    fn phase_automaton_rejects_bad_words() {
        use RuleKind::*;
        let reject = |word: &[RuleKind]| {
            let mut p = Phase::Fresh;
            let mut failed = false;
            for &k in word {
                match p.advance(k) {
                    Ok(next) => p = next,
                    Err(()) => {
                        failed = true;
                        break;
                    }
                }
            }
            assert!(failed, "word {word:?} should be rejected");
        };
        reject(&[Clean, Clean]);
        reject(&[Broadcast, Inner]);
        reject(&[Feedback, Clean]);
        reject(&[Broadcast, Root]);
        reject(&[Inner, Clean]);
    }

    fn run_tracked(n: usize, seed: u64, daemon: Daemon) -> SegmentReport {
        let g = generators::random_connected(n, n / 2, seed);
        let sdr = Sdr::new(BoundedCounter::new(6));
        let init = sdr.arbitrary_config(&g, seed ^ 0xF00D);
        let mut tracker = SegmentTracker::new(&sdr, &g, &init);
        let mut sim = Simulator::new(&g, sdr, init, daemon, seed);
        for _ in 0..100_000 {
            match sim.step() {
                StepOutcome::Terminal => break,
                StepOutcome::Progress { .. } => tracker.after_step(
                    sim.algorithm(),
                    sim.graph(),
                    sim.states(),
                    sim.last_activated(),
                ),
            }
        }
        tracker.report()
    }

    #[test]
    fn tracked_runs_satisfy_structural_theorems() {
        for seed in 0..8 {
            let report = run_tracked(10, seed, Daemon::RandomSubset { p: 0.5 });
            assert!(report.ok(), "seed {seed}: {:?}", report.violations);
            assert!(report.segments <= 11, "Remark 5 violated");
            // Alive-root counts weakly decrease across boundaries.
            for w in report.alive_roots_per_segment.windows(2) {
                assert!(w[1] < w[0], "boundaries must shrink the root set");
            }
        }
    }

    #[test]
    fn observer_reproduces_manual_tracking() {
        for seed in 0..4 {
            let manual = run_tracked(10, seed, Daemon::RandomSubset { p: 0.5 });
            let g = generators::random_connected(10, 5, seed);
            let sdr = Sdr::new(BoundedCounter::new(6));
            let init = sdr.arbitrary_config(&g, seed ^ 0xF00D);
            let mut probe = SegmentObserver::new(&sdr, &g, &init);
            let mut sim = Simulator::new(&g, sdr, init, Daemon::RandomSubset { p: 0.5 }, seed);
            sim.execution().cap(100_000).observe(&mut probe).run();
            assert_eq!(probe.report(), manual, "seed {seed}");
        }
    }

    #[test]
    fn tracked_runs_under_adversarial_daemons() {
        for daemon in [
            Daemon::PreferHighRules,
            Daemon::PreferLowRules,
            Daemon::LexMin,
        ] {
            let report = run_tracked(8, 3, daemon.clone());
            assert!(report.ok(), "{daemon:?}: {:?}", report.violations);
        }
    }
}
