//! Witness schedules: worst-case traces extracted by the explorer,
//! replayable step-for-step through the ordinary execution engine.
//!
//! A [`Witness`] is plain data — the initial configuration's index and
//! the per-step activation sets — plus the exact moves/steps/rounds
//! the explorer accounted for it. [`Witness::replay`] drives the trace
//! back through [`Execution`](crate::Execution) with
//! [`Daemon::Script`], so any [`Observer`](crate::Observer) can watch
//! the worst-case run, and the resulting [`RunOutcome`] must reproduce
//! the explorer's numbers byte for byte (that cross-check is pinned by
//! the property tests: the simulator's round accounting and the
//! explorer's front-product DP are independent implementations of
//! §2.4).

use std::sync::Arc;

use crate::{Algorithm, Daemon, Observer, RunOutcome, Simulator};
use ssr_graph::{Graph, NodeId};

/// A replayable schedule achieving an exact worst case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Index of the starting configuration within the `inits` slice
    /// the explorer was given.
    pub init: usize,
    /// The activation set of each step, in order.
    pub schedule: Vec<Vec<NodeId>>,
    /// Moves this schedule accumulates up to the legitimacy hit.
    pub moves: u64,
    /// Steps up to the hit (`schedule.len()`).
    pub steps: u64,
    /// Rounds at the hit (§2.4, partial round counting as one).
    pub rounds: u64,
}

impl Witness {
    /// The scripted daemon replaying this schedule.
    pub fn daemon(&self) -> Daemon {
        Daemon::Script {
            steps: Arc::new(self.schedule.clone()),
        }
    }

    /// Replays the witness through the [`Execution`](crate::Execution)
    /// of a fresh simulator: same algorithm, the witness's initial
    /// configuration, the scripted daemon (seed 0), capped at the
    /// schedule length, stopping at `legit`.
    ///
    /// Observers attach like on any run via [`Witness::replay_with`].
    pub fn replay<A, P>(&self, graph: &Graph, algo: A, init: Vec<A::State>, legit: P) -> RunOutcome
    where
        A: Algorithm,
        P: FnMut(&Graph, &[A::State]) -> bool,
    {
        self.replay_with(graph, algo, init, legit, crate::NoObserver)
    }

    /// Like [`Witness::replay`], with a probe attached to the run.
    pub fn replay_with<A, P, O>(
        &self,
        graph: &Graph,
        algo: A,
        init: Vec<A::State>,
        legit: P,
        observer: O,
    ) -> RunOutcome
    where
        A: Algorithm,
        P: FnMut(&Graph, &[A::State]) -> bool,
        O: Observer<A>,
    {
        Simulator::new(graph, algo, init, self.daemon(), 0)
            .execution()
            .cap(self.steps)
            .observe(observer)
            .until(legit)
            .run()
    }

    /// Whether a replay outcome reproduces the explorer's accounting
    /// exactly: predicate reached, and identical moves, steps, and
    /// rounds.
    pub fn matches(&self, out: &RunOutcome) -> bool {
        out.reached
            && out.moves_at_hit == self.moves
            && out.steps_used == self.steps
            && out.rounds_at_hit == self.rounds
    }
}

#[cfg(test)]
mod tests {
    use crate::exhaustive::testutil::{all_true, Flood};
    use crate::exhaustive::{explore, ExploreOptions};
    use crate::TerminationReason;

    #[test]
    fn witness_replays_to_its_own_numbers() {
        let g = ssr_graph::generators::star(5);
        let mut init = vec![false; 5];
        init[0] = true;
        let inits = vec![init];
        let ex = explore(&g, &Flood, &inits, all_true, &ExploreOptions::default()).unwrap();
        for w in [ex.witness_moves.unwrap(), ex.witness_rounds.unwrap()] {
            let out = w.replay(&g, Flood, inits[w.init].clone(), all_true);
            assert!(w.matches(&out), "witness {w:?} vs outcome {out:?}");
            assert_eq!(out.reason, TerminationReason::PredicateMet);
        }
    }
}
