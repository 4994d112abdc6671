//! Algorithm 1 of the paper: SDR's predicates, macros, and rules, and
//! the composition `I ∘ SDR` as a runtime [`Algorithm`].

use ssr_graph::{Graph, NodeId};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{Algorithm, ConfigView, Guard, MapView, RuleId, RuleMask, StateView};

use crate::input::ResetInput;
use crate::state::{Composed, SdrState, Status};

/// `rule_RB(u) : P_RB(u) → compute(u); reset(u);`
pub const RULE_RB: RuleId = RuleId(0);
/// `rule_RF(u) : P_RF(u) → st_u := RF;`
pub const RULE_RF: RuleId = RuleId(1);
/// `rule_C(u) : P_C(u) → st_u := C;`
pub const RULE_C: RuleId = RuleId(2);
/// `rule_R(u) : P_Up(u) → beRoot(u); reset(u);`
pub const RULE_R: RuleId = RuleId(3);
/// SDR has four rules; composed input rules are offset by this amount.
pub const SDR_RULE_COUNT: usize = 4;

/// Projects the inner component out of a composed state (for
/// [`MapView`]).
fn inner_of<S>(c: &Composed<S>) -> &S {
    &c.inner
}

/// The composition `I ∘ SDR` (§2.5 + Algorithm 1).
///
/// Rules `0..4` are SDR's (`RB`, `RF`, `C`, `R`); rules `4..` are the
/// input algorithm's, gated by `P_Clean(u) ∧ P_ICorrect(u)`
/// (Requirement 2c). All of the paper's predicates are exposed as public
/// methods so analyses and tests can evaluate them on any configuration.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Clone, Debug)]
pub struct Sdr<I> {
    input: I,
}

impl<I: ResetInput> Sdr<I> {
    /// Composes `input` with SDR.
    pub fn new(input: I) -> Self {
        Sdr { input }
    }

    /// The input algorithm.
    pub fn input(&self) -> &I {
        &self.input
    }

    // ---- small accessors ----

    #[inline]
    fn st<V: StateView<Composed<I::State>>>(&self, view: &V, v: NodeId) -> Status {
        view.state(v).sdr.status
    }

    #[inline]
    fn dist<V: StateView<Composed<I::State>>>(&self, view: &V, v: NodeId) -> u32 {
        view.state(v).sdr.dist
    }

    // ---- input-algorithm predicates lifted to composed states ----

    /// `P_ICorrect(u)` of the input algorithm, on the inner components.
    pub fn p_icorrect<V: StateView<Composed<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        let iv = MapView::new(view, inner_of);
        self.input.p_icorrect(u, &iv)
    }

    /// `P_reset(v)` of the input algorithm, on `v`'s inner component.
    pub fn p_reset<V: StateView<Composed<I::State>>>(&self, v: NodeId, view: &V) -> bool {
        self.input.p_reset(v, &view.state(v).inner)
    }

    // ---- Algorithm 1 predicates ----

    /// `P_Correct(u) ≡ st_u = C ⇒ P_ICorrect(u)`.
    pub fn p_correct<V: StateView<Composed<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        self.st(view, u) != Status::C || self.p_icorrect(u, view)
    }

    /// `P_Clean(u) ≡ ∀v ∈ N[u], st_v = C`.
    pub fn p_clean<V: StateView<Composed<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        view.graph()
            .closed_neighborhood(u)
            .all(|v| self.st(view, v) == Status::C)
    }

    /// `P_R1(u) ≡ st_u = C ∧ ¬P_reset(u) ∧ (∃v ∈ N(u) | st_v = RF)`.
    pub fn p_r1<V: StateView<Composed<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        self.st(view, u) == Status::C
            && !self.p_reset(u, view)
            && view
                .graph()
                .neighbors(u)
                .iter()
                .any(|&v| self.st(view, v) == Status::RF)
    }

    /// `P_RB(u) ≡ st_u = C ∧ (∃v ∈ N(u) | st_v = RB)`.
    pub fn p_rb<V: StateView<Composed<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        self.st(view, u) == Status::C
            && view
                .graph()
                .neighbors(u)
                .iter()
                .any(|&v| self.st(view, v) == Status::RB)
    }

    /// `P_RF(u) ≡ st_u = RB ∧ P_reset(u) ∧ (∀v ∈ N(u), (st_v = RB ∧
    /// d_v ≤ d_u) ∨ (st_v = RF ∧ P_reset(v)))`.
    pub fn p_rf<V: StateView<Composed<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        self.st(view, u) == Status::RB
            && self.p_reset(u, view)
            && view.graph().neighbors(u).iter().all(|&v| {
                (self.st(view, v) == Status::RB && self.dist(view, v) <= self.dist(view, u))
                    || (self.st(view, v) == Status::RF && self.p_reset(v, view))
            })
    }

    /// `P_C(u) ≡ st_u = RF ∧ (∀v ∈ N[u], P_reset(v) ∧ ((st_v = RF ∧
    /// d_v ≥ d_u) ∨ (st_v = C)))`.
    pub fn p_c<V: StateView<Composed<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        self.st(view, u) == Status::RF
            && view.graph().closed_neighborhood(u).all(|v| {
                self.p_reset(v, view)
                    && ((self.st(view, v) == Status::RF
                        && self.dist(view, v) >= self.dist(view, u))
                        || self.st(view, v) == Status::C)
            })
    }

    /// `P_R2(u) ≡ st_u ≠ C ∧ ¬P_reset(u)`.
    pub fn p_r2<V: StateView<Composed<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        self.st(view, u) != Status::C && !self.p_reset(u, view)
    }

    /// `P_Up(u) ≡ ¬P_RB(u) ∧ (P_R1(u) ∨ P_R2(u) ∨ ¬P_Correct(u))`.
    pub fn p_up<V: StateView<Composed<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        !self.p_rb(u, view)
            && (self.p_r1(u, view) || self.p_r2(u, view) || !self.p_correct(u, view))
    }

    /// `P_root(u) ≡ st_u = RB ∧ (∀v ∈ N(u), st_v = RB ⇒ d_v ≥ d_u)`
    /// (Definition 1).
    pub fn p_root<V: StateView<Composed<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        self.st(view, u) == Status::RB
            && view.graph().neighbors(u).iter().all(|&v| {
                self.st(view, v) != Status::RB || self.dist(view, v) >= self.dist(view, u)
            })
    }

    /// Alive root (Definition 1): `P_Up(u) ∨ P_root(u)`.
    pub fn is_alive_root<V: StateView<Composed<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        self.p_up(u, view) || self.p_root(u, view)
    }

    /// Dead root (Definition 1): `st_u = RF ∧ (∀v ∈ N(u), st_v ≠ C ⇒
    /// d_v ≥ d_u)`.
    pub fn is_dead_root<V: StateView<Composed<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        self.st(view, u) == Status::RF
            && view
                .graph()
                .neighbors(u)
                .iter()
                .all(|&v| self.st(view, v) == Status::C || self.dist(view, v) >= self.dist(view, u))
    }

    /// `RParent(v, u)` (Definition 4): `v ∈ N(u) ∧ st_u ≠ C ∧
    /// P_reset(u) ∧ d_u > d_v ∧ (st_u = st_v ∨ st_v = RB)`.
    pub fn is_reset_parent<V: StateView<Composed<I::State>>>(
        &self,
        v: NodeId,
        u: NodeId,
        view: &V,
    ) -> bool {
        view.graph().are_neighbors(v, u)
            && self.st(view, u) != Status::C
            && self.p_reset(u, view)
            && self.dist(view, u) > self.dist(view, v)
            && (self.st(view, u) == self.st(view, v) || self.st(view, v) == Status::RB)
    }

    /// Whether `u` satisfies `P_Clean(u) ∧ P_ICorrect(u)`: the spec of
    /// the legitimacy term [`Algorithm::guard`] returns.
    pub fn is_normal_at<V: StateView<Composed<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        self.p_clean(u, view) && self.p_icorrect(u, view)
    }

    /// Whether the configuration is *normal* (Corollary 5 / Theorem 1:
    /// exactly the terminal configurations of SDR).
    pub fn is_normal_config(&self, graph: &Graph, states: &[Composed<I::State>]) -> bool {
        let view = ConfigView::new(graph, states);
        graph.nodes().all(|u| self.is_normal_at(u, &view))
    }

    // ---- configuration constructors ----

    /// The designated initial configuration: every process clean, input
    /// in `γ_init`.
    pub fn initial_config(&self, graph: &Graph) -> Vec<Composed<I::State>> {
        graph
            .nodes()
            .map(|u| Composed::clean(self.input.initial_state(u)))
            .collect()
    }

    /// An adversarial configuration: uniformly random status, distance
    /// in `0..2n`, and input-algorithm states drawn from
    /// [`ResetInput::arbitrary_state`].
    pub fn arbitrary_config(&self, graph: &Graph, seed: u64) -> Vec<Composed<I::State>> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let n = graph.node_count() as u64;
        graph
            .nodes()
            .map(|u| {
                let status = match rng.below(3) {
                    0 => Status::C,
                    1 => Status::RB,
                    _ => Status::RF,
                };
                let dist = rng.below(2 * n) as u32;
                Composed::new(
                    SdrState::new(status, dist),
                    self.input.arbitrary_state(u, &mut rng),
                )
            })
            .collect()
    }

    // ---- macros (§3 Algorithm 1) ----

    /// `compute(u)`: `st_u := RB; d_u := min { d_v | v ∈ N(u), st_v =
    /// RB } + 1`.
    fn compute<V: StateView<Composed<I::State>>>(&self, u: NodeId, view: &V) -> SdrState {
        let min_rb = view
            .graph()
            .neighbors(u)
            .iter()
            .filter(|&&v| self.st(view, v) == Status::RB)
            .map(|&v| self.dist(view, v))
            .min()
            .expect("compute(u) requires an RB neighbor (P_RB guard)");
        SdrState::new(Status::RB, min_rb.saturating_add(1))
    }
}

impl<I: ResetInput> Algorithm for Sdr<I> {
    type State = Composed<I::State>;

    fn rule_count(&self) -> usize {
        SDR_RULE_COUNT + self.input.rule_count()
    }

    fn rule_name(&self, rule: RuleId) -> &'static str {
        match rule {
            RULE_RB => "rule_RB",
            RULE_RF => "rule_RF",
            RULE_C => "rule_C",
            RULE_R => "rule_R",
            r => self.input.rule_name(RuleId(r.0 - SDR_RULE_COUNT as u8)),
        }
    }

    fn enabled_mask<V: StateView<Self::State>>(&self, u: NodeId, view: &V) -> RuleMask {
        self.guard(u, view).mask
    }

    /// SDR's four rules, the input's rules under the Requirement 2c
    /// gate `P_Clean(u) ∧ P_ICorrect(u)`, and that gate as the
    /// legitimacy term (the normal configurations, Theorem 1), decided
    /// from one fold of N(u).
    ///
    /// `st_u` picks the fold. Under `C`, it collects any-RB and any-RF
    /// neighbour: `P_RB` is any-RB, `P_R1` is `¬P_reset(u)` ∧ any-RF,
    /// and `P_Clean` is neither. With an RF neighbour and no `P_R1`,
    /// `P_ICorrect(u)` alone decides between `rule_R` and waiting. When
    /// `P_Clean` holds, the input scans N(u) once, through
    /// [`ResetInput::guard`]: `P_ICorrect(u)` and the input's rules
    /// under it. Under `RB` or `RF`, `P_Clean`, `P_RB` and `P_R1` are
    /// false and `P_Up ≡ P_R2 ≡ ¬P_reset(u)`; when `P_reset(u)` holds,
    /// the fold is the ∀-conjunct of `P_RF` or of `P_C` (`u`'s own
    /// conjunct of `P_C` is `P_reset(u)`), reading `P_reset(v)` only
    /// for the neighbours whose disjunct needs it. The `p_*` predicates
    /// are the specification it is tested against.
    fn guard<V: StateView<Self::State>>(&self, u: NodeId, view: &V) -> Guard {
        // Every mask but the gate's: SDR's rules, outside the normal
        // configurations.
        let sdr = |mask| Guard { mask, legit: false };
        let me = view.state(u).sdr;
        let reset = self.p_reset(u, view);
        let nbrs = view.graph().neighbors(u);
        match me.status {
            Status::C => {
                let (mut any_rb, mut any_rf) = (false, false);
                for &v in nbrs {
                    let st = self.st(view, v);
                    any_rb |= st == Status::RB;
                    any_rf |= st == Status::RF;
                }
                if any_rb {
                    return sdr(RuleMask::just(RULE_RB));
                }
                if any_rf {
                    // P_R1, else ¬P_Correct (P_R2 is false under C);
                    // otherwise `u` waits for the wave to clean.
                    let up = !reset || !self.p_icorrect(u, view);
                    return sdr(RuleMask::NONE.with_if(RULE_R, up));
                }
                // P_Clean: the input's gate and rules, from one scan.
                let input = self.input.guard(u, &MapView::new(view, inner_of));
                if !input.legit {
                    return sdr(RuleMask::just(RULE_R)); // ¬P_Correct
                }
                // P_Clean ∧ P_ICorrect: SDR is disabled (Remark 2) and
                // the input's rules run.
                Guard {
                    mask: RuleMask(input.mask.0 << SDR_RULE_COUNT),
                    legit: true,
                }
            }
            _ if !reset => sdr(RuleMask::just(RULE_R)),
            Status::RB => {
                let rf = nbrs.iter().all(|&v| {
                    let s = view.state(v).sdr;
                    (s.status == Status::RB && s.dist <= me.dist)
                        || (s.status == Status::RF && self.p_reset(v, view))
                });
                sdr(RuleMask::NONE.with_if(RULE_RF, rf))
            }
            Status::RF => {
                let c = nbrs.iter().all(|&v| {
                    let s = view.state(v).sdr;
                    ((s.status == Status::RF && s.dist >= me.dist) || s.status == Status::C)
                        && self.p_reset(v, view)
                });
                sdr(RuleMask::NONE.with_if(RULE_C, c))
            }
        }
    }

    fn apply<V: StateView<Self::State>>(&self, u: NodeId, view: &V, rule: RuleId) -> Self::State {
        let current = view.state(u);
        match rule {
            RULE_RB => Composed::new(self.compute(u, view), self.input.reset_state(u)),
            RULE_RF => Composed::new(
                SdrState::new(Status::RF, current.sdr.dist),
                current.inner.clone(),
            ),
            RULE_C => Composed::new(
                SdrState::new(Status::C, current.sdr.dist),
                current.inner.clone(),
            ),
            RULE_R => Composed::new(SdrState::root(), self.input.reset_state(u)),
            r => {
                let iv = MapView::new(view, inner_of);
                let inner = self.input.apply(u, &iv, RuleId(r.0 - SDR_RULE_COUNT as u8));
                Composed::new(current.sdr, inner)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toys::{Agreement, BoundedCounter};
    use ssr_graph::generators;
    use ssr_runtime::{Daemon, Simulator};

    type St = Composed<u32>;

    fn agreement() -> Sdr<Agreement> {
        Sdr::new(Agreement::new(4))
    }

    fn cfg(states: Vec<St>) -> Vec<St> {
        states
    }

    fn mk(status: Status, dist: u32, x: u32) -> St {
        Composed::new(SdrState::new(status, dist), x)
    }

    /// Path of 3; middle node broadcasting.
    #[test]
    fn p_rb_requires_c_status_and_rb_neighbor() {
        let g = generators::path(3);
        let sdr = agreement();
        let states = cfg(vec![
            mk(Status::C, 0, 0),
            mk(Status::RB, 0, 0),
            mk(Status::RF, 1, 0),
        ]);
        let v = ConfigView::new(&g, &states);
        assert!(sdr.p_rb(NodeId(0), &v));
        assert!(!sdr.p_rb(NodeId(1), &v)); // not status C
        assert!(!sdr.p_rb(NodeId(2), &v)); // not status C
    }

    #[test]
    fn p_clean_examines_closed_neighborhood() {
        let g = generators::path(3);
        let sdr = agreement();
        let states = cfg(vec![
            mk(Status::C, 0, 0),
            mk(Status::C, 0, 0),
            mk(Status::RB, 0, 0),
        ]);
        let v = ConfigView::new(&g, &states);
        assert!(sdr.p_clean(NodeId(0), &v));
        assert!(!sdr.p_clean(NodeId(1), &v)); // neighbor 2 is RB
        assert!(!sdr.p_clean(NodeId(2), &v)); // itself RB
    }

    #[test]
    fn p_rf_needs_all_neighbors_in_reset() {
        let g = generators::path(3);
        let sdr = agreement();
        // Node 1 is RB with d=1; node 0 is RB root (d=0, ≤), node 2 is C.
        let states = cfg(vec![
            mk(Status::RB, 0, 0),
            mk(Status::RB, 1, 0),
            mk(Status::C, 0, 0),
        ]);
        let v = ConfigView::new(&g, &states);
        assert!(!sdr.p_rf(NodeId(1), &v), "a C neighbor blocks the feedback");
        // Replace node 2 with a deeper RF neighbor in reset state.
        let states = cfg(vec![
            mk(Status::RB, 0, 0),
            mk(Status::RB, 1, 0),
            mk(Status::RF, 2, 0),
        ]);
        let v = ConfigView::new(&g, &states);
        assert!(sdr.p_rf(NodeId(1), &v));
        // A deeper RB neighbor (d_v > d_u) blocks the feedback.
        let states = cfg(vec![
            mk(Status::RB, 0, 0),
            mk(Status::RB, 1, 0),
            mk(Status::RB, 2, 0),
        ]);
        let v = ConfigView::new(&g, &states);
        assert!(!sdr.p_rf(NodeId(1), &v));
    }

    #[test]
    fn p_rf_requires_reset_state() {
        let g = generators::path(2);
        let sdr = agreement();
        let states = cfg(vec![mk(Status::RB, 0, 3), mk(Status::RB, 1, 0)]);
        let v = ConfigView::new(&g, &states);
        assert!(!sdr.p_rf(NodeId(0), &v), "P_reset(u) fails (x=3)");
        assert!(sdr.p_rf(NodeId(1), &v));
    }

    #[test]
    fn p_c_propagates_down_from_root() {
        let g = generators::path(3);
        let sdr = agreement();
        // Feedback done everywhere: root (d=0) may clean first.
        let states = cfg(vec![
            mk(Status::RF, 0, 0),
            mk(Status::RF, 1, 0),
            mk(Status::RF, 2, 0),
        ]);
        let v = ConfigView::new(&g, &states);
        assert!(sdr.p_c(NodeId(0), &v));
        assert!(!sdr.p_c(NodeId(1), &v), "shallower RF neighbor blocks");
        // After the root cleans:
        let states = cfg(vec![
            mk(Status::C, 0, 0),
            mk(Status::RF, 1, 0),
            mk(Status::RF, 2, 0),
        ]);
        let v = ConfigView::new(&g, &states);
        assert!(sdr.p_c(NodeId(1), &v));
        assert!(!sdr.p_c(NodeId(2), &v));
    }

    #[test]
    fn p_c_requires_neighbors_reset() {
        let g = generators::path(2);
        let sdr = agreement();
        let states = cfg(vec![mk(Status::RF, 0, 0), mk(Status::C, 0, 2)]);
        let v = ConfigView::new(&g, &states);
        assert!(!sdr.p_c(NodeId(0), &v), "C neighbor not in reset state");
    }

    #[test]
    fn p_up_detects_inconsistency() {
        let g = generators::path(2);
        let sdr = agreement();
        // Agreement(4): x values differ -> ¬P_ICorrect -> ¬P_Correct for C.
        let states = cfg(vec![mk(Status::C, 0, 1), mk(Status::C, 0, 2)]);
        let v = ConfigView::new(&g, &states);
        assert!(sdr.p_up(NodeId(0), &v));
        assert!(sdr.p_up(NodeId(1), &v));
        // Consistent values: nobody wants a reset.
        let states = cfg(vec![mk(Status::C, 0, 2), mk(Status::C, 0, 2)]);
        let v = ConfigView::new(&g, &states);
        assert!(!sdr.p_up(NodeId(0), &v));
    }

    #[test]
    fn p_up_yields_to_existing_broadcast() {
        let g = generators::path(2);
        let sdr = agreement();
        // Node 0 inconsistent but neighbor already broadcasting: join,
        // don't initiate (¬P_RB conjunct of P_Up).
        let states = cfg(vec![mk(Status::C, 0, 1), mk(Status::RB, 0, 0)]);
        let v = ConfigView::new(&g, &states);
        assert!(!sdr.p_up(NodeId(0), &v));
        assert!(sdr.p_rb(NodeId(0), &v));
    }

    #[test]
    fn p_r1_and_p_r2_detect_reset_incoherence() {
        let g = generators::path(2);
        let sdr = agreement();
        // R1: clean process not in reset state adjacent to RF.
        let states = cfg(vec![mk(Status::C, 0, 3), mk(Status::RF, 0, 0)]);
        let v = ConfigView::new(&g, &states);
        assert!(sdr.p_r1(NodeId(0), &v));
        // R2: broadcasting process whose inner state is not reset.
        let states = cfg(vec![mk(Status::RB, 0, 3), mk(Status::C, 0, 0)]);
        let v = ConfigView::new(&g, &states);
        assert!(sdr.p_r2(NodeId(0), &v));
        assert!(!sdr.p_r2(NodeId(1), &v));
    }

    #[test]
    fn rules_pairwise_mutually_exclusive_lemma_5() {
        // Lemma 5 + Remark 2: on any sampled configuration, at most one
        // rule of the composition is enabled per process.
        let g = generators::random_connected(12, 8, 3);
        let sdr = Sdr::new(BoundedCounter::new(6));
        for seed in 0..200 {
            let states = sdr.arbitrary_config(&g, seed);
            let v = ConfigView::new(&g, &states);
            for u in g.nodes() {
                let m = sdr.enabled_mask(u, &v);
                assert!(
                    m.count() <= 1,
                    "seed {seed}, node {u:?}: multiple rules enabled: {m:?}"
                );
            }
        }
    }

    #[test]
    fn terminal_iff_normal_theorem_1() {
        let g = generators::random_connected(10, 5, 1);
        let sdr = Sdr::new(Agreement::new(3));
        for seed in 0..300 {
            let states = sdr.arbitrary_config(&g, seed);
            let v = ConfigView::new(&g, &states);
            let terminal = g.nodes().all(|u| sdr.enabled_mask(u, &v).is_empty());
            let normal = sdr.is_normal_config(&g, &states);
            assert_eq!(terminal, normal, "seed {seed}: Theorem 1 violated");
        }
    }

    #[test]
    fn typical_execution_resets_to_consistency() {
        // §3.3: from all-C with inconsistent inner states, resets drive
        // the system to a normal configuration.
        let g = generators::ring(8);
        let sdr = Sdr::new(Agreement::new(5));
        let states: Vec<St> = (0..8).map(|i| mk(Status::C, 0, i % 5)).collect();
        let check = Sdr::new(Agreement::new(5));
        let mut sim = Simulator::new(&g, sdr, states, Daemon::Synchronous, 0);
        let out = sim
            .execution()
            .cap(10_000)
            .until(|graph, st| check.is_normal_config(graph, st))
            .run();
        assert!(out.reached);
        assert!(out.rounds_at_hit <= 3 * 8, "Corollary 5: ≤ 3n rounds");
        // Agreement resets to 0: afterwards everyone agrees on 0.
        assert!(sim.states().iter().all(|s| s.inner == 0));
    }

    #[test]
    fn stabilizes_from_arbitrary_configs_all_daemons() {
        let g = generators::random_connected(10, 6, 9);
        let n = g.node_count() as u64;
        for daemon in Daemon::all_strategies() {
            for seed in 0..5 {
                let sdr = Sdr::new(BoundedCounter::new(20));
                let init = sdr.arbitrary_config(&g, seed * 31 + 7);
                let check = Sdr::new(BoundedCounter::new(20));
                let mut sim = Simulator::new(&g, sdr, init, daemon.clone(), seed);
                let out = sim
                    .execution()
                    .cap(200_000)
                    .until(|graph, st| check.is_normal_config(graph, st))
                    .run();
                assert!(
                    out.reached,
                    "did not stabilize under {daemon:?} (seed {seed})"
                );
                assert!(
                    out.rounds_at_hit <= 3 * n,
                    "Corollary 5 violated under {daemon:?}: {} > {}",
                    out.rounds_at_hit,
                    3 * n
                );
            }
        }
    }

    #[test]
    fn normal_configs_closed_under_composition() {
        // Corollary 5: the set of normal configurations is closed.
        let g = generators::ring(6);
        let sdr = Sdr::new(BoundedCounter::new(4));
        let init = sdr.initial_config(&g);
        let check = Sdr::new(BoundedCounter::new(4));
        let mut sim = Simulator::new(&g, sdr, init, Daemon::RandomSubset { p: 0.5 }, 2);
        for _ in 0..500 {
            assert!(check.is_normal_config(sim.graph(), sim.states()));
            if let ssr_runtime::StepOutcome::Terminal = sim.step() {
                break;
            }
        }
    }

    #[test]
    fn per_process_sdr_moves_bounded_corollary_4() {
        let g = generators::random_connected(12, 8, 4);
        let n = g.node_count() as u64;
        for seed in 0..10 {
            let sdr = Sdr::new(Agreement::new(3));
            let rc = sdr.rule_count();
            let init = sdr.arbitrary_config(&g, seed);
            let check = Sdr::new(Agreement::new(3));
            let mut sim = Simulator::new(&g, sdr, init, Daemon::RandomSubset { p: 0.4 }, seed);
            let out = sim
                .execution()
                .cap(500_000)
                .until(|graph, st| check.is_normal_config(graph, st))
                .run();
            assert!(out.reached);
            for u in g.nodes() {
                let sdr_moves: u64 = [RULE_RB, RULE_RF, RULE_C, RULE_R]
                    .iter()
                    .map(|&r| sim.stats().moves_of(u, r, rc))
                    .sum();
                assert!(
                    sdr_moves <= 3 * n + 3,
                    "Corollary 4 violated at {u:?}: {sdr_moves} > {}",
                    3 * n + 3
                );
            }
        }
    }

    #[test]
    fn rule_names_cover_composition() {
        let sdr = Sdr::new(BoundedCounter::new(2));
        assert_eq!(sdr.rule_name(RULE_RB), "rule_RB");
        assert_eq!(sdr.rule_name(RULE_RF), "rule_RF");
        assert_eq!(sdr.rule_name(RULE_C), "rule_C");
        assert_eq!(sdr.rule_name(RULE_R), "rule_R");
        assert_eq!(sdr.rule_name(RuleId(4)), "rule_inc");
        assert_eq!(sdr.rule_count(), 5);
    }

    #[test]
    fn initial_config_is_normal() {
        let g = generators::grid(3, 3);
        let sdr = Sdr::new(BoundedCounter::new(5));
        let init = sdr.initial_config(&g);
        assert!(sdr.is_normal_config(&g, &init));
    }
}
