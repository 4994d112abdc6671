//! The [`ResetInput`] trait — the paper's Requirements on the input
//! algorithm `I` (§3.5) — and the [`Standalone`] wrapper for running an
//! input algorithm on its own from its pre-defined initial configuration.

use ssr_graph::{Graph, NodeId};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{Algorithm, Guard, RuleId, RuleMask, StateView};

/// An input algorithm `I` suitable for composition with SDR.
///
/// The trait encodes §3.5's requirements:
///
/// 1. `I` cannot write SDR's variables — structural: implementations
///    only ever see their own state component.
/// 2. `I` provides `P_ICorrect(u)`, `P_reset(u)`, and `reset(u)`:
///    * (2a) [`ResetInput::p_icorrect`] reads only `I`'s variables
///      (structural: the view carries inner states only) and must be
///      *closed* by `I`'s rules — checked by
///      [`crate::validate::check_requirements`] and property tests;
///    * (2b) [`ResetInput::p_reset`] reads only `u`'s own inner state
///      (structural: it receives exactly that state);
///    * (2c) rules are disabled whenever `¬P_ICorrect(u) ∨ ¬P_Clean(u)`
///      — the composition enforces this by gating
///      [`ResetInput::enabled_mask`], so implementations write their
///      guards *without* the gate. [`ResetInput::guard`] is the
///      `P_ICorrect` half of that gate, written once: [`Sdr`],
///      [`Standalone`] and the mono-initiator baseline call it;
///    * (2d) if every member of `N[u]` satisfies `P_reset`, then
///      `P_ICorrect(u)` holds — semantic, checked by
///      [`crate::validate::check_requirements`];
///    * (2e) executing `reset(u)` establishes `P_reset(u)` — semantic,
///      checked likewise (the reset state is a constant per node here,
///      which is how both of the paper's instantiations behave).
///
/// Implement the definitions: [`ResetInput::enabled_mask`] and
/// [`ResetInput::p_icorrect`] as the paper writes them, predicate by
/// predicate. They are the specification the kernels are tested
/// against. Override the provided [`ResetInput::guard`] only with a
/// kernel that decides both from one scan of N(u), and add the input to
/// `tests/guard_spec.rs`, which holds that kernel to the definitions.
///
/// [`Sdr`]: crate::Sdr
pub trait ResetInput {
    /// Per-process state of the input algorithm.
    type State: Clone + PartialEq + std::fmt::Debug;

    /// Number of rules of `I`.
    fn rule_count(&self) -> usize;

    /// Rule label for traces and reports.
    fn rule_name(&self, rule: RuleId) -> &'static str;

    /// Guards of `I`'s rules, **without** the `P_Clean ∧ P_ICorrect`
    /// gate (the composition conjoins it per Requirement 2c).
    fn enabled_mask<V: StateView<Self::State>>(&self, u: NodeId, view: &V) -> RuleMask;

    /// Action of rule `rule` for process `u`.
    fn apply<V: StateView<Self::State>>(&self, u: NodeId, view: &V, rule: RuleId) -> Self::State;

    /// `P_ICorrect(u)`: `u`'s state is consistent with its neighbors'.
    fn p_icorrect<V: StateView<Self::State>>(&self, u: NodeId, view: &V) -> bool;

    /// `P_ICorrect(u)` as the legitimacy term, and the input's rules
    /// under it as the mask ([`RuleMask::NONE`] when it fails): the
    /// input's half of the Requirement 2c gate. [`Standalone`] runs it
    /// as its whole guard; [`Sdr`](crate::Sdr) runs it under
    /// `P_Clean(u)`.
    ///
    /// The default evaluates [`ResetInput::p_icorrect`], then
    /// [`ResetInput::enabled_mask`] only when it holds (see the trait
    /// docs for overriding it).
    #[inline]
    fn guard<V: StateView<Self::State>>(&self, u: NodeId, view: &V) -> Guard {
        let legit = self.p_icorrect(u, view);
        Guard {
            mask: if legit {
                self.enabled_mask(u, view)
            } else {
                RuleMask::NONE
            },
            legit,
        }
    }

    /// `P_reset(u)`: `u` is in the pre-defined initial state of `I`.
    fn p_reset(&self, u: NodeId, state: &Self::State) -> bool;

    /// The pre-defined state installed by the `reset(u)` macro.
    fn reset_state(&self, u: NodeId) -> Self::State;

    /// `u`'s state in the algorithm's designated initial configuration
    /// `γ_init` (used for non-self-stabilizing standalone runs).
    ///
    /// Defaults to the reset state, which is `γ_init` for both of the
    /// paper's instantiations.
    fn initial_state(&self, u: NodeId) -> Self::State {
        self.reset_state(u)
    }

    /// A uniformly random state *within `I`'s variable domains*, used by
    /// adversarial initial-configuration samplers (self-stabilization
    /// assumes transient faults corrupt values, not types).
    ///
    /// Defaults to the reset state (i.e. no corruption); override to get
    /// meaningful adversarial workloads.
    fn arbitrary_state(&self, u: NodeId, rng: &mut Xoshiro256StarStar) -> Self::State {
        let _ = rng;
        self.reset_state(u)
    }
}

/// Runs an input algorithm *alone* (no reset layer), with its rules
/// gated by `P_ICorrect` only.
///
/// This models the paper's standalone analyses (e.g. Theorem 5: `U` is a
/// correct distributed unison from `γ_init`; Theorem 9/10: `FGA`
/// terminates from `γ_init`): in those sections every process implicitly
/// satisfies `P_Clean` because no reset exists, and the guards of the
/// instantiations all contain `P_ICorrect` (explicitly for FGA,
/// implied for U). Its legitimacy term ([`Algorithm::guard`]) is
/// `P_ICorrect(u)`, so a standalone unison is legitimate exactly when
/// unison safety holds.
///
/// # Examples
///
/// ```
/// use ssr_core::{toys::BoundedCounter, Standalone};
/// use ssr_graph::generators;
/// use ssr_runtime::{Daemon, Simulator};
///
/// let g = generators::path(4);
/// let alg = Standalone::new(BoundedCounter::new(3));
/// let init = alg.initial_config(&g);
/// let mut sim = Simulator::new(&g, alg, init, Daemon::Synchronous, 0);
/// let out = sim.execution().cap(10_000).run();
/// assert!(out.terminal); // counters all reach the cap
/// ```
#[derive(Clone, Debug)]
pub struct Standalone<I> {
    inner: I,
}

impl<I: ResetInput> Standalone<I> {
    /// Wraps `inner` for standalone execution.
    pub fn new(inner: I) -> Self {
        Standalone { inner }
    }

    /// The wrapped input algorithm.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// The designated initial configuration `γ_init`.
    pub fn initial_config(&self, graph: &Graph) -> Vec<I::State> {
        graph.nodes().map(|u| self.inner.initial_state(u)).collect()
    }
}

impl<I: ResetInput> Algorithm for Standalone<I> {
    type State = I::State;

    fn rule_count(&self) -> usize {
        self.inner.rule_count()
    }

    fn rule_name(&self, rule: RuleId) -> &'static str {
        self.inner.rule_name(rule)
    }

    fn enabled_mask<V: StateView<Self::State>>(&self, u: NodeId, view: &V) -> RuleMask {
        self.guard(u, view).mask
    }

    /// The input's rules under the `P_ICorrect(u)` gate, with that gate
    /// as the legitimacy term: [`ResetInput::guard`].
    #[inline]
    fn guard<V: StateView<Self::State>>(&self, u: NodeId, view: &V) -> Guard {
        self.inner.guard(u, view)
    }

    fn apply<V: StateView<Self::State>>(&self, u: NodeId, view: &V, rule: RuleId) -> Self::State {
        self.inner.apply(u, view, rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toys::BoundedCounter;
    use ssr_graph::generators;
    use ssr_runtime::{Daemon, Simulator};

    #[test]
    fn standalone_runs_input_from_gamma_init() {
        let g = generators::ring(5);
        let alg = Standalone::new(BoundedCounter::new(4));
        let init = alg.initial_config(&g);
        assert!(init.iter().all(|&x| x == 0));
        let mut sim = Simulator::new(&g, alg, init, Daemon::RandomSubset { p: 0.7 }, 3);
        let out = sim.execution().cap(100_000).run();
        assert!(out.terminal);
        assert!(sim.states().iter().all(|&x| x == 4));
    }

    #[test]
    fn standalone_gates_on_icorrect() {
        // A locally inconsistent pair (gap 2) freezes both processes.
        let g = generators::path(2);
        let alg = Standalone::new(BoundedCounter::new(9));
        let sim = Simulator::new(&g, alg, vec![0, 2], Daemon::Central, 0);
        assert!(sim.is_terminal());
        assert_eq!(sim.states(), &[0, 2]);
    }

    #[test]
    fn default_initial_state_is_reset_state() {
        let c = BoundedCounter::new(5);
        assert_eq!(c.initial_state(NodeId(0)), c.reset_state(NodeId(0)));
    }
}
