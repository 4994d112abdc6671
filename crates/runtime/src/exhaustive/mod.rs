//! Bounded exhaustive schedule-space exploration over any
//! [`Algorithm`](crate::Algorithm): exact worst-case bounds, mechanical
//! closure/convergence verification, and replayable counterexample
//! traces.
//!
//! A stochastic simulator observes one schedule per seed; for small
//! graphs (n ≲ 8–10) [`explore`] walks the **full configuration
//! graph** instead — every daemon choice of the selected
//! [`DaemonClass`] at every step — and turns universally-quantified
//! self-stabilization claims into checkable facts: convergence (no
//! illegitimate deadlock or cycle), closure, the exact worst-case
//! moves/steps/rounds to legitimacy, and [`Witness`] schedules that
//! replay step-for-step through [`Execution`](crate::Execution) via
//! [`Daemon::Script`](crate::Daemon).
//!
//! States are deduplicated through the [`ExploreState`] canonical
//! encoding (the `Algorithm::State` bound is deliberately not `Hash`).
//! This module lives in the runtime so that *algorithm families*
//! ([`crate::family`]) can expose exhaustive exploration behind the
//! object-safe [`ExploreFamily`](crate::family::ExploreFamily) hook —
//! the `ssr-explore` crate re-exports everything here and adds the
//! campaign-level drivers on top.

mod encode;
mod engine;
mod witness;

pub use encode::ExploreState;
pub use engine::{
    explore, ClosureViolation, DaemonClass, Exploration, ExploreError, ExploreOptions, WorstCase,
    MAX_ENABLED, MAX_NODES,
};
pub use witness::Witness;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::{Algorithm, RuleId, RuleMask, StateView};
    use ssr_graph::{Graph, NodeId};

    /// Flood of `true` along edges — the shared unit-test algorithm:
    /// one rule, monotone, terminates, and its worst cases are easy to
    /// derive by hand.
    #[derive(Clone)]
    pub struct Flood;

    impl Algorithm for Flood {
        type State = bool;
        fn rule_count(&self) -> usize {
            1
        }
        fn rule_name(&self, _: RuleId) -> &'static str {
            "flood"
        }
        fn enabled_mask<V: StateView<bool>>(&self, u: NodeId, view: &V) -> RuleMask {
            let infected = view.graph().neighbors(u).iter().any(|&v| *view.state(v));
            RuleMask::from_bool(!*view.state(u) && infected)
        }
        fn apply<V: StateView<bool>>(&self, _: NodeId, _: &V, _: RuleId) -> bool {
            true
        }
    }

    /// The flood's legitimate set: everyone infected.
    pub fn all_true(_: &Graph, st: &[bool]) -> bool {
        st.iter().all(|&b| b)
    }
}
