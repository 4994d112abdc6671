//! The [`Algorithm`] trait and read-only state views.
//!
//! A distributed algorithm in the locally shared memory model consists of
//! one local program per process: a finite set of guarded rules
//! `⟨label⟩ : ⟨guard⟩ → ⟨action⟩` (§2.2). Guards read the states of the
//! closed neighborhood only; actions write the process's own state only.
//! Both constraints are enforced structurally: guards and actions receive
//! a [`StateView`] (read-only access keyed by [`NodeId`]) and return the
//! process's new state.

use std::fmt;
use std::marker::PhantomData;

use ssr_graph::{Graph, NodeId};

/// Index of a rule within an algorithm's local program.
///
/// Rule identifiers are only used to label moves (§2.2: "labels are only
/// used to identify rules in the reasoning").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(pub u8);

impl RuleId {
    /// The rule's index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Set of enabled rules at one process, as a bitmask (≤ 32 rules).
///
/// # Examples
///
/// ```
/// use ssr_runtime::{RuleId, RuleMask};
/// let m = RuleMask::just(RuleId(2)).with(RuleId(0));
/// assert!(m.contains(RuleId(0)) && m.contains(RuleId(2)));
/// assert_eq!(m.iter().collect::<Vec<_>>(), vec![RuleId(0), RuleId(2)]);
/// assert_eq!(m.count(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct RuleMask(pub u32);

impl RuleMask {
    /// The empty mask: process disabled.
    pub const NONE: RuleMask = RuleMask(0);

    /// Mask containing exactly `rule`.
    ///
    /// # Panics
    ///
    /// Debug builds panic when `rule.0 >= 32` (the mask would silently
    /// wrap in release).
    #[inline]
    pub fn just(rule: RuleId) -> Self {
        debug_assert!(
            rule.0 < 32,
            "RuleId {} is outside the 32-rule range of RuleMask",
            rule.0
        );
        RuleMask(1 << rule.0)
    }

    /// `just(RuleId(0))` if `b`, else empty — convenient for single-rule
    /// algorithms.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        if b {
            RuleMask(1)
        } else {
            RuleMask(0)
        }
    }

    /// Adds `rule` to the mask.
    ///
    /// # Panics
    ///
    /// Debug builds panic when `rule.0 >= 32` (the mask would silently
    /// wrap in release).
    #[inline]
    #[must_use]
    pub fn with(self, rule: RuleId) -> Self {
        debug_assert!(
            rule.0 < 32,
            "RuleId {} is outside the 32-rule range of RuleMask",
            rule.0
        );
        RuleMask(self.0 | (1 << rule.0))
    }

    /// Adds `rule` when `b` holds.
    #[inline]
    #[must_use]
    pub fn with_if(self, rule: RuleId, b: bool) -> Self {
        if b {
            self.with(rule)
        } else {
            self
        }
    }

    /// Whether the mask contains `rule`.
    #[inline]
    pub fn contains(self, rule: RuleId) -> bool {
        self.0 & (1 << rule.0) != 0
    }

    /// Whether no rule is enabled.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of enabled rules.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Lowest-index enabled rule, if any.
    #[inline]
    pub fn first(self) -> Option<RuleId> {
        if self.0 == 0 {
            None
        } else {
            Some(RuleId(self.0.trailing_zeros() as u8))
        }
    }

    /// Highest-index enabled rule, if any.
    #[inline]
    pub fn last(self) -> Option<RuleId> {
        if self.0 == 0 {
            None
        } else {
            Some(RuleId(31 - self.0.leading_zeros() as u8))
        }
    }

    /// Iterates enabled rules in ascending index order.
    pub fn iter(self) -> impl Iterator<Item = RuleId> {
        iter_ones(self.0).map(|i| RuleId(i as u8))
    }
}

impl IntoIterator for RuleMask {
    type Item = RuleId;
    type IntoIter = std::iter::Map<IterOnes, fn(u32) -> RuleId>;

    fn into_iter(self) -> Self::IntoIter {
        iter_ones(self.0).map(|i| RuleId(i as u8))
    }
}

/// Iterates the set bit positions of `bits` in ascending order — the
/// one place the `trailing_zeros` / clear-lowest-bit idiom lives.
/// [`RuleMask::iter`] and the exhaustive engine's mask decoding both
/// delegate here.
#[inline]
pub fn iter_ones(bits: u32) -> IterOnes {
    IterOnes { bits }
}

/// Iterator returned by [`iter_ones`].
#[derive(Clone, Copy, Debug)]
pub struct IterOnes {
    bits: u32,
}

impl Iterator for IterOnes {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.bits == 0 {
            None
        } else {
            let i = self.bits.trailing_zeros();
            self.bits &= self.bits - 1;
            Some(i)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.bits.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for IterOnes {}

impl fmt::Debug for RuleMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RuleMask[")?;
        let mut first = true;
        for r in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{r:?}")?;
            first = false;
        }
        write!(f, "]")
    }
}

/// Read-only access to a configuration, keyed by node.
///
/// Guards must only inspect the closed neighborhood of the process being
/// evaluated; the view deliberately offers no bulk iteration so that
///"peeking" at remote state would have to be written very explicitly.
pub trait StateView<S> {
    /// The communication graph.
    fn graph(&self) -> &Graph;
    /// The current state of process `v`.
    fn state(&self, v: NodeId) -> &S;
}

/// A [`StateView`] over a plain slice of states (one per node).
#[derive(Clone, Copy, Debug)]
pub struct ConfigView<'a, S> {
    graph: &'a Graph,
    states: &'a [S],
}

impl<'a, S> ConfigView<'a, S> {
    /// Wraps a configuration slice.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != graph.node_count()`.
    pub fn new(graph: &'a Graph, states: &'a [S]) -> Self {
        assert_eq!(
            states.len(),
            graph.node_count(),
            "configuration size must match node count"
        );
        ConfigView { graph, states }
    }
}

impl<S> StateView<S> for ConfigView<'_, S> {
    #[inline]
    fn graph(&self) -> &Graph {
        self.graph
    }

    #[inline]
    fn state(&self, v: NodeId) -> &S {
        &self.states[v.index()]
    }
}

/// Projects a view of composite states onto a component.
///
/// Used by compositions (`I ∘ SDR`): the inner algorithm's predicates see
/// only the inner component of the product state.
///
/// # Examples
///
/// ```
/// use ssr_graph::generators;
/// use ssr_runtime::{ConfigView, MapView, NodeId, StateView};
///
/// let g = generators::path(2);
/// let states = vec![(1u32, "a"), (2u32, "b")];
/// let view = ConfigView::new(&g, &states);
/// let nums = MapView::new(&view, |s: &(u32, &str)| &s.0);
/// assert_eq!(*nums.state(NodeId(1)), 2);
/// ```
#[derive(Clone, Copy)]
pub struct MapView<'a, V, S, T> {
    base: &'a V,
    project: fn(&S) -> &T,
    _outer: PhantomData<fn() -> S>,
}

impl<'a, V, S, T> MapView<'a, V, S, T> {
    /// Wraps `base`, projecting each state through `project`.
    ///
    /// `project` is a plain function pointer (not a closure) so that the
    /// higher-ranked `for<'x> fn(&'x S) -> &'x T` lifetime is explicit.
    pub fn new(base: &'a V, project: fn(&S) -> &T) -> Self {
        MapView {
            base,
            project,
            _outer: PhantomData,
        }
    }
}

impl<V, S, T> StateView<T> for MapView<'_, V, S, T>
where
    V: StateView<S>,
{
    #[inline]
    fn graph(&self) -> &Graph {
        self.base.graph()
    }

    #[inline]
    fn state(&self, v: NodeId) -> &T {
        (self.project)(self.base.state(v))
    }
}

/// One guard evaluation at a process: its enabled rules and its
/// node-local legitimacy term, decided by the same scan of `N[u]`
/// ([`Algorithm::guard`]).
///
/// # Examples
///
/// ```
/// use ssr_runtime::{Guard, RuleId, RuleMask};
/// let g = Guard { mask: RuleMask::just(RuleId(1)), legit: false };
/// assert!(g.mask.contains(RuleId(1)) && !g.legit);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Guard {
    /// The enabled rules.
    pub mask: RuleMask,
    /// Whether the node-local term of the algorithm's legitimacy
    /// predicate holds: the configuration is legitimate exactly when
    /// it holds at every node.
    pub legit: bool,
}

/// A distributed algorithm in the locally shared memory model.
///
/// Implementations define the per-process state type, the rule set, and
/// the guard/action semantics. The [`crate::Simulator`] owns the
/// configuration and calls [`Algorithm::guard`] /
/// [`Algorithm::apply`].
pub trait Algorithm {
    /// Per-process state (the values of the process's shared variables).
    type State: Clone + PartialEq + fmt::Debug;

    /// Number of rules in the local program.
    fn rule_count(&self) -> usize;

    /// Human-readable rule label (for reports and traces).
    fn rule_name(&self, rule: RuleId) -> &'static str;

    /// Evaluates all guards of process `u` on the configuration `view`.
    fn enabled_mask<V: StateView<Self::State>>(&self, u: NodeId, view: &V) -> RuleMask;

    /// Evaluates `u`'s guards and its node-local legitimacy term
    /// together: the one guard kernel the simulator runs on each
    /// refreshed node, and what [`crate::Execution::until_legitimate`]
    /// stops on.
    ///
    /// Like a guard, `legit` must read the closed neighbourhood `N[u]`
    /// only. The default is [`Algorithm::enabled_mask`] with `legit` =
    /// the mask is empty, so a silent algorithm is legitimate exactly
    /// when it is terminal. An algorithm whose legitimacy predicate
    /// its guards already decide (the reset gate of a composition, say)
    /// overrides this to return both from one scan, and then
    /// implements `enabled_mask` as `self.guard(u, view).mask`.
    #[inline]
    fn guard<V: StateView<Self::State>>(&self, u: NodeId, view: &V) -> Guard {
        let mask = self.enabled_mask(u, view);
        Guard {
            mask,
            legit: mask.is_empty(),
        }
    }

    /// Executes `rule`'s action for `u`, returning `u`'s next state.
    ///
    /// Must only be called with a rule contained in
    /// `self.enabled_mask(u, view)`; implementations may panic otherwise.
    fn apply<V: StateView<Self::State>>(&self, u: NodeId, view: &V, rule: RuleId) -> Self::State;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_graph::generators;

    #[test]
    fn rule_mask_basics() {
        let m = RuleMask::NONE;
        assert!(m.is_empty());
        assert_eq!(m.first(), None);
        assert_eq!(m.last(), None);
        let m = m.with(RuleId(3)).with(RuleId(1));
        assert_eq!(m.count(), 2);
        assert_eq!(m.first(), Some(RuleId(1)));
        assert_eq!(m.last(), Some(RuleId(3)));
        assert!(!m.contains(RuleId(0)));
        assert!(m.contains(RuleId(1)));
    }

    #[test]
    fn rule_mask_with_if() {
        let m = RuleMask::NONE
            .with_if(RuleId(2), false)
            .with_if(RuleId(5), true);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![RuleId(5)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the 32-rule range")]
    fn rule_mask_just_rejects_out_of_range_rules() {
        let _ = RuleMask::just(RuleId(32));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the 32-rule range")]
    fn rule_mask_with_rejects_out_of_range_rules() {
        let _ = RuleMask::just(RuleId(0)).with(RuleId(40));
    }

    #[test]
    fn rule_mask_from_bool() {
        assert!(RuleMask::from_bool(false).is_empty());
        assert_eq!(RuleMask::from_bool(true).first(), Some(RuleId(0)));
    }

    #[test]
    fn iter_ones_ascending_and_exact() {
        assert_eq!(iter_ones(0).count(), 0);
        let it = iter_ones(0b1010_0101);
        assert_eq!(it.len(), 4);
        assert_eq!(it.collect::<Vec<_>>(), vec![0, 2, 5, 7]);
        assert_eq!(iter_ones(u32::MAX).count(), 32);
    }

    #[test]
    fn rule_mask_into_iterator_matches_iter() {
        let m = RuleMask::just(RuleId(1)).with(RuleId(6)).with(RuleId(30));
        let via_iter: Vec<_> = m.iter().collect();
        let mut via_for = Vec::new();
        for r in m {
            via_for.push(r);
        }
        assert_eq!(via_iter, via_for);
        assert_eq!(via_for, vec![RuleId(1), RuleId(6), RuleId(30)]);
    }

    #[test]
    fn rule_mask_debug_lists_rules() {
        let m = RuleMask::just(RuleId(0)).with(RuleId(4));
        assert_eq!(format!("{m:?}"), "RuleMask[r0,r4]");
    }

    #[test]
    #[should_panic(expected = "configuration size")]
    fn config_view_validates_length() {
        let g = generators::path(3);
        let states = vec![0u8; 2];
        let _ = ConfigView::new(&g, &states);
    }

    #[test]
    fn map_view_projects() {
        let g = generators::path(3);
        let states = vec![(0u8, 'x'), (1, 'y'), (2, 'z')];
        let v = ConfigView::new(&g, &states);
        let chars = MapView::new(&v, |s: &(u8, char)| &s.1);
        assert_eq!(*chars.state(NodeId(2)), 'z');
        assert_eq!(chars.graph().node_count(), 3);
    }
}
