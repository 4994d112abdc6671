//! Algorithm U (Algorithm 2 of the paper) as a [`ResetInput`].

use std::error::Error;
use std::fmt;

use ssr_core::{ResetInput, Sdr};
use ssr_graph::{Graph, NodeId};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{Guard, RuleId, RuleMask, StateView};

/// `rule_U(u) : P_Clean(u) ∧ P_Up(u) → c_u := (c_u + 1) % K`
///
/// (the `P_Clean` conjunct is added by the composition; standalone runs
/// add `P_ICorrect`, which `P_Up` implies).
pub const RULE_U: RuleId = RuleId(0);

/// The composition `U ∘ SDR`.
pub type UnisonSdr = Sdr<Unison>;

/// Composes Algorithm U with SDR (§5.5).
pub fn unison_sdr(unison: Unison) -> UnisonSdr {
    Sdr::new(unison)
}

/// Error returned when a period does not satisfy `K > n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeriodError {
    /// The offending period.
    pub period: u64,
    /// The network size it was checked against.
    pub n: usize,
}

impl fmt::Display for PeriodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unison requires period K > n (got K = {}, n = {})",
            self.period, self.n
        )
    }
}

impl Error for PeriodError {}

/// Algorithm U: each process keeps a periodic clock `c_u ∈ {0…K−1}` and
/// increments it whenever every neighbor is *on time or one ahead*
/// (`P_Up(u) ≡ ∀v ∈ N(u), c_v ∈ {c_u, (c_u+1)%K}`).
///
/// * `P_ICorrect(u) ≡ ∀v ∈ N(u), c_v ∈ {(c_u−1)%K, c_u, (c_u+1)%K}`
/// * `P_reset(u) ≡ c_u = 0`, `reset(u): c_u := 0`
///
/// Starting from all-zero clocks, U solves unison provided `K > n`
/// (Theorem 5); it is **not** self-stabilizing on its own — compose it
/// with SDR via [`unison_sdr`] for that.
///
/// # Examples
///
/// ```
/// use ssr_graph::generators;
/// use ssr_unison::Unison;
///
/// let g = generators::ring(10);
/// let u = Unison::for_graph(&g); // smallest legal period: n + 1
/// assert_eq!(u.period(), 11);
/// assert!(Unison::new(10).validate_for(&g).is_err()); // K = n is illegal
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unison {
    k: u64,
}

impl Unison {
    /// Unison with period `K` (validate against a graph with
    /// [`Unison::validate_for`]).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (a periodic clock needs at least two values).
    #[inline]
    pub fn new(k: u64) -> Self {
        assert!(k >= 2, "period must be at least 2");
        Unison { k }
    }

    /// Unison with the smallest legal period for `graph`: `K = n + 1`.
    pub fn for_graph(graph: &Graph) -> Self {
        Unison::new(graph.node_count() as u64 + 1)
    }

    /// The period `K`.
    pub fn period(&self) -> u64 {
        self.k
    }

    /// Checks the paper's requirement `K > n`.
    ///
    /// # Errors
    ///
    /// Returns a [`PeriodError`] if `K ≤ n`.
    pub fn validate_for(&self, graph: &Graph) -> Result<(), PeriodError> {
        if self.k > graph.node_count() as u64 {
            Ok(())
        } else {
            Err(PeriodError {
                period: self.k,
                n: graph.node_count(),
            })
        }
    }

    /// `c` itself for a clock in `0..K`; `c % K` otherwise. Clocks stay
    /// in range in every run, so the division is off the hot path.
    #[inline]
    fn reduce(&self, c: u64) -> u64 {
        if c < self.k {
            c
        } else {
            c % self.k
        }
    }

    /// `(c + 1) % K`, by compare-and-wrap.
    #[inline]
    pub fn succ(&self, c: u64) -> u64 {
        let c = self.reduce(c);
        if c + 1 == self.k {
            0
        } else {
            c + 1
        }
    }

    /// `(c − 1) % K`, i.e. `(c + K − 1) % K`, by compare-and-wrap.
    #[inline]
    pub fn pred(&self, c: u64) -> u64 {
        let c = self.reduce(c);
        if c == 0 {
            self.k - 1
        } else {
            c - 1
        }
    }

    /// `P_Ok(u, v) ≡ c_v ∈ {(c_u−1)%K, c_u, (c_u+1)%K}`.
    #[inline]
    pub fn p_ok(&self, cu: u64, cv: u64) -> bool {
        cv == cu || cv == self.succ(cu) || cv == self.pred(cu)
    }

    /// `P_Up(u) ≡ ∀v ∈ N(u), c_v ∈ {c_u, (c_u+1)%K}` — `u` is on time
    /// or one increment late w.r.t. every neighbor.
    pub fn p_up<V: StateView<u64>>(&self, u: NodeId, view: &V) -> bool {
        let cu = *view.state(u);
        let next = self.succ(cu);
        view.graph()
            .neighbors(u)
            .iter()
            .all(|&v| *view.state(v) == cu || *view.state(v) == next)
    }
}

impl ResetInput for Unison {
    type State = u64;

    fn rule_count(&self) -> usize {
        1
    }

    fn rule_name(&self, _: RuleId) -> &'static str {
        "rule_U"
    }

    fn enabled_mask<V: StateView<u64>>(&self, u: NodeId, view: &V) -> RuleMask {
        RuleMask::from_bool(self.p_up(u, view))
    }

    fn apply<V: StateView<u64>>(&self, u: NodeId, view: &V, _: RuleId) -> u64 {
        self.succ(*view.state(u))
    }

    /// `P_ICorrect(u) ≡ ∀v ∈ N(u), P_Ok(u, v)`, folded with `&`/`|`
    /// rather than an early exit: it runs on random movers'
    /// neighbourhoods (the SDR gate, the standalone legitimacy term),
    /// where the exit branches mispredict.
    #[inline]
    fn p_icorrect<V: StateView<u64>>(&self, u: NodeId, view: &V) -> bool {
        let cu = *view.state(u);
        let (next, prev) = (self.succ(cu), self.pred(cu));
        view.graph().neighbors(u).iter().fold(true, |ok, &v| {
            let cv = *view.state(v);
            ok & ((cv == cu) | (cv == next) | (cv == prev))
        })
    }

    /// `P_ICorrect(u)` and, under it, `rule_U`'s guard `P_Up(u)`, from
    /// the one scan of N(u) that `CfgUnison::guard` makes: a neighbour
    /// at `c_u` or `c_u + 1` keeps both predicates, one at `c_u − 1`
    /// breaks `P_Up` only, and any other value breaks `P_ICorrect`.
    /// Branch-free, as [`ResetInput::p_icorrect`] is.
    #[inline]
    fn guard<V: StateView<u64>>(&self, u: NodeId, view: &V) -> Guard {
        let cu = *view.state(u);
        let (next, prev) = (self.succ(cu), self.pred(cu));
        let (mut up, mut correct) = (true, true);
        for &v in view.graph().neighbors(u) {
            let cv = *view.state(v);
            let keeps_up = (cv == cu) | (cv == next);
            up &= keeps_up;
            correct &= keeps_up | (cv == prev);
        }
        Guard {
            mask: RuleMask::NONE.with_if(RULE_U, correct & up),
            legit: correct,
        }
    }

    fn p_reset(&self, _: NodeId, state: &u64) -> bool {
        *state == 0
    }

    fn reset_state(&self, _: NodeId) -> u64 {
        0
    }

    fn arbitrary_state(&self, _: NodeId, rng: &mut Xoshiro256StarStar) -> u64 {
        rng.below(self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_core::validate;
    use ssr_graph::generators;
    use ssr_runtime::ConfigView;

    #[test]
    fn period_validation() {
        let g = generators::ring(5);
        assert!(Unison::new(6).validate_for(&g).is_ok());
        let err = Unison::new(5).validate_for(&g).unwrap_err();
        assert_eq!(err, PeriodError { period: 5, n: 5 });
        assert!(err.to_string().contains("K > n"));
    }

    #[test]
    #[should_panic(expected = "period must be at least 2")]
    fn tiny_period_panics() {
        let _ = Unison::new(1);
    }

    #[test]
    fn modular_arithmetic() {
        let u = Unison::new(5);
        assert_eq!(u.succ(4), 0);
        assert_eq!(u.pred(0), 4);
        assert_eq!(u.succ(2), 3);
        assert_eq!(u.pred(3), 2);
    }

    #[test]
    fn p_ok_is_circular() {
        let u = Unison::new(7);
        assert!(u.p_ok(0, 0));
        assert!(u.p_ok(0, 1));
        assert!(u.p_ok(0, 6)); // (0 − 1) mod 7
        assert!(!u.p_ok(0, 2));
        assert!(!u.p_ok(0, 5));
    }

    #[test]
    fn p_up_requires_on_time_or_late() {
        let g = generators::path(3);
        let u = Unison::new(9);
        // Middle process: both neighbors at c or c+1 -> enabled.
        let clocks = vec![4u64, 4, 5];
        let v = ConfigView::new(&g, &clocks);
        assert!(u.p_up(NodeId(1), &v));
        assert!(u.p_up(NodeId(0), &v));
        assert!(!u.p_up(NodeId(2), &v)); // neighbor at 4 = c − 1: u is ahead
    }

    #[test]
    fn wrap_around_increment() {
        let g = generators::path(2);
        let u = Unison::new(3);
        let clocks = vec![2u64, 2];
        let v = ConfigView::new(&g, &clocks);
        assert_eq!(u.apply(NodeId(0), &v, RULE_U), 0);
    }

    #[test]
    fn requirements_2d_2e_hold() {
        let g = generators::random_connected(12, 6, 3);
        validate::check_requirements(&Unison::for_graph(&g), &g).unwrap();
    }

    #[test]
    fn icorrect_closure_probe() {
        // Requirement 2a (Lemma 17): P_ICorrect is closed by U.
        let g = generators::random_connected(10, 5, 8);
        let u = Unison::for_graph(&g);
        for seed in 0..5 {
            let init = validate::arbitrary_standalone_config(&u, &g, seed);
            validate::check_icorrect_closed_on_run(
                &u,
                &g,
                init,
                ssr_runtime::Daemon::RandomSubset { p: 0.5 },
                seed,
                3_000,
            )
            .unwrap();
        }
    }

    #[test]
    fn arbitrary_state_in_period() {
        let u = Unison::new(4);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        for _ in 0..100 {
            assert!(u.arbitrary_state(NodeId(0), &mut rng) < 4);
        }
    }
}
