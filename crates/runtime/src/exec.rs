//! The execution/observer API: [`Simulator::execution`] builds an
//! [`Execution`], the one way to drive a run to completion, and
//! [`Observer`]s watch it.
//!
//! The paper's claims are *trajectory* properties (alive-root
//! monotonicity, per-segment rule grammars, liveness windows), so
//! measurement must see every step without owning the loop. An
//! [`Observer`] is a passive probe with two hooks, one after each step
//! and one when the run ends; an [`Execution`] wires observers into
//! the canonical run loop. Workloads become "write an observer", never
//! "fork the loop", and the loop itself exists exactly once.
//!
//! # Examples
//!
//! The caller owns the simulator, so a run can stop at a predicate, be
//! resumed with a probe attached, and leave its counters readable:
//!
//! ```
//! use ssr_graph::generators;
//! use ssr_runtime::{
//!     Algorithm, Daemon, NodeId, Observer, RuleId, RuleMask, Simulator, StateView, StepOutcome,
//!     TerminationReason,
//! };
//!
//! /// Toy flood: a node with a `true` neighbor becomes `true`.
//! struct Flood;
//! impl Algorithm for Flood {
//!     type State = bool;
//!     fn rule_count(&self) -> usize { 1 }
//!     fn rule_name(&self, _: RuleId) -> &'static str { "flood" }
//!     fn enabled_mask<V: StateView<bool>>(&self, u: NodeId, view: &V) -> RuleMask {
//!         let infected = view.graph().neighbors(u).iter().any(|&v| *view.state(v));
//!         RuleMask::from_bool(!*view.state(u) && infected)
//!     }
//!     fn apply<V: StateView<bool>>(&self, _: NodeId, _: &V, _: RuleId) -> bool { true }
//! }
//!
//! /// Probe: peak number of processes activated in one step.
//! #[derive(Default)]
//! struct PeakActivation(usize);
//! impl Observer<Flood> for PeakActivation {
//!     fn on_step(&mut self, _sim: &Simulator<'_, Flood>, outcome: &StepOutcome) {
//!         if let StepOutcome::Progress { activated } = outcome {
//!             self.0 = self.0.max(*activated);
//!         }
//!     }
//! }
//!
//! let g = generators::path(5);
//! let mut init = vec![false; 5];
//! init[0] = true;
//! let mut sim = Simulator::new(&g, Flood, init, Daemon::Synchronous, 42);
//! let half = sim.execution().until(|_, states| states[2]).run();
//! assert!(half.reached && half.steps_used == 2);
//!
//! let mut peak = PeakActivation::default();
//! let out = sim.execution().cap(1_000).observe(&mut peak).run();
//! assert!(out.terminal);
//! assert_eq!(out.reason, TerminationReason::Terminal);
//! assert_eq!(peak.0, 1, "a path flood activates one process per step");
//! assert_eq!(sim.stats().moves, 4); // both runs counted
//! ```

use ssr_graph::Graph;

use crate::algorithm::Algorithm;
use crate::simulator::{RunOutcome, Simulator, StepOutcome, TerminationReason};

/// A passive probe attached to an execution.
///
/// Both hooks have an empty default body, so an observer implements
/// only the one it needs; the compiler inlines the other away (the
/// no-op path costs nothing, pinned by the `exec_overhead` bench in
/// `ssr-bench`). Hooks receive the simulator *after* the event: in
/// [`Observer::on_step`], `sim.states()` is the post-step
/// configuration, [`Simulator::last_activated`] names the moves that
/// produced it, and [`Simulator::last_step_completed_round`] says
/// whether it completed a round.
///
/// `&mut O` forwards to `O`, so a probe can be lent to an
/// [`Execution`] and read back afterwards, and a pair `(O1, O2)` runs
/// both, left to right; [`Execution::observe`] builds the pairs.
///
/// # Examples
///
/// ```
/// use ssr_runtime::{Algorithm, Observer, Simulator, StepOutcome};
///
/// /// Counts completed rounds.
/// #[derive(Default)]
/// struct RoundCounter(u64);
/// impl<A: Algorithm> Observer<A> for RoundCounter {
///     fn on_step(&mut self, sim: &Simulator<'_, A>, _outcome: &StepOutcome) {
///         self.0 += u64::from(sim.last_step_completed_round());
///     }
/// }
/// ```
pub trait Observer<A: Algorithm> {
    /// Called after every step that moved (never for the no-op step on
    /// a terminal configuration).
    fn on_step(&mut self, sim: &Simulator<'_, A>, outcome: &StepOutcome) {
        let _ = (sim, outcome);
    }

    /// Called exactly once when the run finishes, whatever the
    /// [`TerminationReason`]: the place to sample the final
    /// configuration (`outcome.terminal` says whether it is terminal).
    fn on_run_end(&mut self, sim: &Simulator<'_, A>, outcome: &RunOutcome) {
        let _ = (sim, outcome);
    }
}

/// The zero-cost default observer: both hooks are no-ops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoObserver;

impl<A: Algorithm> Observer<A> for NoObserver {}

/// Forwarding impl: lend a probe with `&mut` and read it afterwards.
impl<A: Algorithm, O: Observer<A> + ?Sized> Observer<A> for &mut O {
    fn on_step(&mut self, sim: &Simulator<'_, A>, outcome: &StepOutcome) {
        (**self).on_step(sim, outcome);
    }
    fn on_run_end(&mut self, sim: &Simulator<'_, A>, outcome: &RunOutcome) {
        (**self).on_run_end(sim, outcome);
    }
}

/// Pair combinator: both hooks run left to right.
impl<A: Algorithm, O1: Observer<A>, O2: Observer<A>> Observer<A> for (O1, O2) {
    fn on_step(&mut self, sim: &Simulator<'_, A>, outcome: &StepOutcome) {
        self.0.on_step(sim, outcome);
        self.1.on_step(sim, outcome);
    }
    fn on_run_end(&mut self, sim: &Simulator<'_, A>, outcome: &RunOutcome) {
        self.0.on_run_end(sim, outcome);
        self.1.on_run_end(sim, outcome);
    }
}

/// The stop predicate type used when [`Execution::until`] was never
/// called (the `fn` pointer is never invoked — it only fixes the
/// default type parameter).
pub type NoPredicate<A> = fn(&Graph, &[<A as Algorithm>::State]) -> bool;

/// When a run stops: the run loop asks once on the configuration it
/// starts from and once after every step.
///
/// Two forms implement it. Every whole-configuration predicate
/// `FnMut(&Graph, &[A::State]) -> bool` (what [`Execution::until`]
/// takes) re-reads the whole configuration each time; [`Legitimate`]
/// (what [`Execution::until_legitimate`] builds) reads the simulator's
/// count of failing legitimacy terms, which the guard phase keeps.
pub trait StopCondition<A: Algorithm> {
    /// Whether the run stops on `sim`'s current configuration.
    fn holds(&mut self, sim: &Simulator<'_, A>) -> bool;
}

impl<A, P> StopCondition<A> for P
where
    A: Algorithm,
    P: FnMut(&Graph, &[A::State]) -> bool,
{
    fn holds(&mut self, sim: &Simulator<'_, A>) -> bool {
        self(sim.graph(), sim.states())
    }
}

/// The stop condition of [`Execution::until_legitimate`]: it holds
/// once the legitimacy term of [`Algorithm::guard`] holds at every
/// node.
///
/// The term reads the closed neighbourhood `N[u]` only, like a guard
/// (§2.2), so a step can change it only at the nodes of its refresh set
/// (the movers and their neighbours). The guard phase evaluates each of
/// those nodes' masks and terms in one scan and keeps the number of
/// failing nodes ([`Simulator::illegitimate_count`]); `Simulator::new`
/// and [`Simulator::inject`] keep it too. So this condition is one
/// comparison per step, and it is exact, not an approximation: it
/// stops on the same step as the whole-configuration predicate
/// `∀u: guard(u).legit`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Legitimate;

impl<A: Algorithm> StopCondition<A> for Legitimate {
    #[inline]
    fn holds(&mut self, sim: &Simulator<'_, A>) -> bool {
        sim.is_legitimate()
    }
}

/// A run over a simulator the caller owns: built by
/// [`Simulator::execution`], configured fluently, driven by
/// [`Execution::run`].
///
/// The run stops at the first of: the stop condition holding (set with
/// [`until`](Execution::until) or
/// [`until_legitimate`](Execution::until_legitimate); checked on the
/// initial configuration too), a terminal configuration, or the step
/// [`cap`](Execution::cap) running out — reported in
/// [`RunOutcome::reason`]. Attach any number of probes with
/// [`observe`](Execution::observe).
///
/// # Examples
///
/// See the [module documentation](self).
pub struct Execution<'e, 'g, A: Algorithm, O = NoObserver, S = NoPredicate<A>> {
    sim: &'e mut Simulator<'g, A>,
    cap: u64,
    observer: O,
    stop: Option<S>,
}

impl<'g, A: Algorithm> Simulator<'g, A> {
    /// Starts an [`Execution`] over this simulator: the one way to
    /// drive it to completion, with observers and a stop condition.
    /// The step budget defaults to unbounded. Run it again to resume
    /// (warm-up phases, fault injection between runs).
    ///
    /// # Examples
    ///
    /// See the [`crate::exec`] module documentation.
    pub fn execution<'e>(&'e mut self) -> Execution<'e, 'g, A> {
        Execution {
            sim: self,
            cap: u64::MAX,
            observer: NoObserver,
            stop: None,
        }
    }
}

impl<'e, 'g, A: Algorithm, O, S> Execution<'e, 'g, A, O, S> {
    /// Sets the step budget (default: unbounded).
    pub fn cap(mut self, cap: u64) -> Self {
        self.cap = cap;
        self
    }

    /// Attaches a probe; repeated calls nest, so every attached
    /// observer sees every event (earlier attachments fire first).
    pub fn observe<O2: Observer<A>>(self, observer: O2) -> Execution<'e, 'g, A, (O, O2), S> {
        Execution {
            sim: self.sim,
            cap: self.cap,
            observer: (self.observer, observer),
            stop: self.stop,
        }
    }

    /// Stops the run once `predicate` holds (checked on the initial
    /// configuration too, like the classic `run_until`). A second call
    /// replaces the predicate.
    ///
    /// The predicate reads the whole configuration after every step.
    /// When it is the algorithm's legitimacy predicate, the conjunction
    /// of [`Algorithm::guard`]'s node-local terms, prefer
    /// [`until_legitimate`](Execution::until_legitimate).
    pub fn until<Q>(self, predicate: Q) -> Execution<'e, 'g, A, O, Q>
    where
        Q: FnMut(&Graph, &[A::State]) -> bool,
    {
        self.stop_when(predicate)
    }

    /// Stops the run once the configuration is legitimate: the
    /// legitimacy term of [`Algorithm::guard`] holds at every node
    /// (checked on the initial configuration too). A second call
    /// replaces the condition, as does [`until`](Execution::until).
    ///
    /// The guard phase decides each refreshed node's term in the same
    /// scan of `N[u]` as its mask, and keeps the number of failing
    /// nodes, so checking the condition costs one comparison per step;
    /// the run stops on the same step as
    /// `until(|g, s| ∀u: guard(u).legit)` would (see [`Legitimate`]).
    /// An algorithm that does not override [`Algorithm::guard`] is
    /// legitimate exactly when it is terminal.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ssr_graph::generators;
    /// use ssr_runtime::{
    ///     Algorithm, Daemon, Guard, NodeId, RuleId, RuleMask, Simulator, StateView,
    /// };
    ///
    /// /// Flood whose legitimacy term is local agreement: `u` agrees
    /// /// with all of its neighbours.
    /// struct Flood;
    /// impl Algorithm for Flood {
    ///     type State = bool;
    ///     fn rule_count(&self) -> usize { 1 }
    ///     fn rule_name(&self, _: RuleId) -> &'static str { "flood" }
    ///     fn enabled_mask<V: StateView<bool>>(&self, u: NodeId, view: &V) -> RuleMask {
    ///         self.guard(u, view).mask
    ///     }
    ///     /// One scan of N(u) decides both.
    ///     fn guard<V: StateView<bool>>(&self, u: NodeId, view: &V) -> Guard {
    ///         let mine = *view.state(u);
    ///         let (mut infected, mut agree) = (false, true);
    ///         for &v in view.graph().neighbors(u) {
    ///             infected |= *view.state(v);
    ///             agree &= *view.state(v) == mine;
    ///         }
    ///         Guard { mask: RuleMask::from_bool(!mine && infected), legit: agree }
    ///     }
    ///     fn apply<V: StateView<bool>>(&self, _: NodeId, _: &V, _: RuleId) -> bool { true }
    /// }
    ///
    /// let g = generators::path(6);
    /// let mut init = vec![false; 6];
    /// init[0] = true;
    /// let mut sim = Simulator::new(&g, Flood, init, Daemon::Central, 1);
    /// assert_eq!(sim.illegitimate_count(), 2); // nodes 0 and 1 disagree
    /// let out = sim.execution().until_legitimate().run();
    /// assert!(out.reached && out.steps_used == 5);
    /// assert!(sim.is_legitimate());
    /// ```
    pub fn until_legitimate(self) -> Execution<'e, 'g, A, O, Legitimate> {
        self.stop_when(Legitimate)
    }

    fn stop_when<S2>(self, stop: S2) -> Execution<'e, 'g, A, O, S2> {
        Execution {
            sim: self.sim,
            cap: self.cap,
            observer: self.observer,
            stop: Some(stop),
        }
    }
}

impl<A, O, S> Execution<'_, '_, A, O, S>
where
    A: Algorithm,
    O: Observer<A>,
    S: StopCondition<A>,
{
    /// Drives the run and returns how it ended.
    ///
    /// The canonical run loop: each pass asks the stop condition, then
    /// the budget, then steps the simulator, and the loop leaves with
    /// `(reached, reason)`. Whatever ended the run, the [`RunOutcome`]
    /// is built, the trace's run-ended event emitted and
    /// [`Observer::on_run_end`] called in one place, after the loop.
    /// The step sequence, RNG draws and counters are those of the
    /// classic `run_until`/`run_to_termination`, so migrated callers
    /// reproduce their numbers byte for byte.
    pub fn run(self) -> RunOutcome {
        let Execution {
            sim,
            cap,
            mut observer,
            mut stop,
        } = self;
        let mut steps_used = 0u64;
        let (reached, reason) = loop {
            if stop.as_mut().is_some_and(|s| s.holds(sim)) {
                break (true, TerminationReason::PredicateMet);
            }
            if steps_used >= cap {
                // `reached` keeps the classic semantics: a predicate
                // run that exhausts its budget failed; a plain
                // termination run reached its target iff the final
                // configuration is terminal, also when the last
                // in-budget step made it so.
                let terminal = sim.is_terminal();
                let reason = if terminal {
                    TerminationReason::Terminal
                } else {
                    TerminationReason::CapExhausted
                };
                break (stop.is_none() && terminal, reason);
            }
            match sim.step() {
                StepOutcome::Terminal => break (stop.is_none(), TerminationReason::Terminal),
                progress => {
                    steps_used += 1;
                    observer.on_step(sim, &progress);
                }
            }
        };
        let out = RunOutcome {
            reached,
            terminal: sim.is_terminal(),
            steps_used,
            moves_at_hit: sim.stats().moves,
            rounds_at_hit: sim.rounds_now(),
            reason,
        };
        sim.emit_run_ended(&out);
        observer.on_run_end(sim, &out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{RuleId, RuleMask, StateView};
    use crate::daemon::Daemon;
    use ssr_graph::{generators, NodeId};

    /// Flood of `true` along edges (terminates, diameter-bound rounds).
    struct Flood;

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

    fn flood_init(n: usize) -> Vec<bool> {
        let mut init = vec![false; n];
        init[0] = true;
        init
    }

    /// A flood on a path under the synchronous daemon: one move and
    /// one round per step.
    fn flood_sim(g: &Graph, init: Vec<bool>, seed: u64) -> Simulator<'_, Flood> {
        Simulator::new(g, Flood, init, Daemon::Synchronous, seed)
    }

    /// Records every event the two hooks expose, for ordering
    /// assertions: each step's moves, the step, and a completed round;
    /// at the end, a terminal configuration and the reason.
    #[derive(Default)]
    struct EventLog(Vec<String>);

    impl<A: Algorithm> Observer<A> for EventLog {
        fn on_step(&mut self, sim: &Simulator<'_, A>, outcome: &StepOutcome) {
            for (u, rule) in sim.last_activated() {
                self.0.push(format!("move:{u:?}:{rule:?}"));
            }
            self.0.push(format!("step:{outcome:?}"));
            if sim.last_step_completed_round() {
                self.0.push("round".into());
            }
        }
        fn on_run_end(&mut self, _sim: &Simulator<'_, A>, outcome: &RunOutcome) {
            if outcome.terminal {
                self.0.push("terminal".into());
            }
            self.0.push(format!("end:{:?}", outcome.reason));
        }
    }

    #[test]
    fn fresh_run_reaches_terminal() {
        let g = generators::path(4);
        let mut sim = flood_sim(&g, flood_init(4), 7);
        let out = sim.execution().run();
        assert!(out.terminal && out.reached);
        assert_eq!(out.reason, TerminationReason::Terminal);
        assert_eq!(out.steps_used, 3);
    }

    #[test]
    fn predicate_checked_on_initial_configuration() {
        let g = generators::path(3);
        let mut sim = flood_sim(&g, flood_init(3), 0);
        let out = sim.execution().until(|_, states| states[0]).run();
        assert!(out.reached);
        assert_eq!(out.steps_used, 0);
        assert_eq!(out.reason, TerminationReason::PredicateMet);
    }

    #[test]
    fn cap_exhaustion_is_reported() {
        let g = generators::path(6);
        let mut sim = flood_sim(&g, flood_init(6), 0);
        let out = sim.execution().cap(2).until(|_, states| states[5]).run();
        assert!(!out.reached && !out.terminal);
        assert_eq!(out.reason, TerminationReason::CapExhausted);
        assert_eq!(out.steps_used, 2);
    }

    /// Every way a run ends goes through the one exit: each row checks
    /// the outcome and that `on_run_end` saw exactly that outcome,
    /// once.
    #[test]
    fn every_exit_reports_its_outcome_once() {
        use TerminationReason::{CapExhausted, PredicateMet, Terminal};

        /// Keeps every outcome `on_run_end` was called with.
        #[derive(Default)]
        struct Ends(Vec<RunOutcome>);
        impl<A: Algorithm> Observer<A> for Ends {
            fn on_run_end(&mut self, _sim: &Simulator<'_, A>, outcome: &RunOutcome) {
                self.0.push(outcome.clone());
            }
        }

        const NEVER: usize = usize::MAX;
        // (case, path length, nodes initially true, cap, seed, stop
        // once this node is true (`None`: no stop condition; `NEVER`:
        // one that never holds), expected (reached, terminal, reason,
        // steps_used)).
        #[rustfmt::skip]
        let rows = [
            ("stop holds at start, live", 3, 1, u64::MAX, 0, Some(0), (true, false, PredicateMet, 0)),
            ("stop holds at start, terminal", 2, 2, u64::MAX, 0, Some(0), (true, true, PredicateMet, 0)),
            ("cap runs out while live", 6, 1, 2, 0, Some(5), (false, false, CapExhausted, 2)),
            ("cap runs out while live, no stop", 5, 1, 2, 0, None, (false, false, CapExhausted, 2)),
            ("cap lands on termination", 4, 1, 3, 0, None, (true, true, Terminal, 3)),
            ("cap lands on termination, with stop", 4, 1, 3, 0, Some(NEVER), (false, true, Terminal, 3)),
            ("cap zero on a terminal configuration", 2, 2, 0, 0, None, (true, true, Terminal, 0)),
            ("terminal step", 4, 1, u64::MAX, 7, None, (true, true, Terminal, 3)),
            ("terminal step, with stop", 4, 1, u64::MAX, 0, Some(NEVER), (false, true, Terminal, 3)),
            ("terminal at start", 2, 2, u64::MAX, 0, None, (true, true, Terminal, 0)),
            ("stop holds after a step, live", 6, 1, u64::MAX, 0, Some(2), (true, false, PredicateMet, 2)),
            ("stop holds after a step, terminal", 3, 1, u64::MAX, 0, Some(2), (true, true, PredicateMet, 2)),
        ];
        for (case, n, set, cap, seed, until, expect) in rows {
            let g = generators::path(n);
            let mut init = vec![false; n];
            init[..set].fill(true);
            let mut sim = flood_sim(&g, init, seed);
            let mut ends = Ends::default();
            let exec = sim.execution().cap(cap).observe(&mut ends);
            let out = match until {
                Some(i) => exec
                    .until(move |_, s: &[bool]| s.get(i) == Some(&true))
                    .run(),
                None => exec.run(),
            };
            let got = (out.reached, out.terminal, out.reason, out.steps_used);
            assert_eq!(got, expect, "{case}");
            assert_eq!(ends.0, [out], "{case}: one on_run_end, with the outcome");
        }
    }

    #[test]
    fn on_terminal_fires_when_predicate_hits_a_terminal_configuration() {
        // The step satisfying the predicate is also the one that makes
        // the configuration terminal: the end must report both.
        let g = generators::path(3);
        let mut log = EventLog::default();
        let mut sim = flood_sim(&g, flood_init(3), 0);
        let out = sim
            .execution()
            .observe(&mut log)
            .until(|_, states| states[2])
            .run();
        assert!(out.reached && out.terminal);
        assert_eq!(out.reason, TerminationReason::PredicateMet);
        assert_eq!(log.0.iter().filter(|e| *e == "terminal").count(), 1);
        assert_eq!(log.0.last().map(String::as_str), Some("end:PredicateMet"));
    }

    #[test]
    fn on_terminal_fires_when_cap_lands_exactly_on_termination() {
        // Flood on path(4) terminates after exactly 3 steps: with
        // cap(3) the loop exits through the budget check, but the
        // terminal configuration must still reach observers.
        let g = generators::path(4);
        let mut log = EventLog::default();
        let mut sim = flood_sim(&g, flood_init(4), 0);
        let out = sim.execution().cap(3).observe(&mut log).run();
        assert!(out.terminal && out.reached);
        assert_eq!(out.reason, TerminationReason::Terminal);
        assert_eq!(out.steps_used, 3);
        assert_eq!(log.0.iter().filter(|e| *e == "terminal").count(), 1);
        assert_eq!(log.0.last().map(String::as_str), Some("end:Terminal"));
    }

    #[test]
    fn hooks_fire_in_order() {
        let g = generators::path(3);
        let mut log = EventLog::default();
        let mut sim = flood_sim(&g, flood_init(3), 0);
        let out = sim.execution().observe(&mut log).run();
        assert!(out.terminal);
        assert_eq!(
            log.0,
            vec![
                "move:n1:r0",
                "step:Progress { activated: 1 }",
                "round",
                "move:n2:r0",
                "step:Progress { activated: 1 }",
                "round",
                "terminal",
                "end:Terminal",
            ]
        );
    }

    #[test]
    fn observers_compose_as_tuples_and_boxes() {
        let g = generators::path(4);
        let mut a = EventLog::default();
        let mut b = EventLog::default();
        let mut erased = EventLog::default();
        let dynamic: &mut dyn Observer<Flood> = &mut erased;
        let mut sim = flood_sim(&g, flood_init(4), 0);
        let out = sim
            .execution()
            .observe((&mut a, &mut b))
            .observe(dynamic)
            .run();
        assert!(out.terminal);
        assert_eq!(a.0, b.0);
        assert_eq!(a.0, erased.0);
        assert!(!a.0.is_empty());
    }

    #[test]
    fn resumed_execution_shares_counters() {
        let g = generators::path(5);
        let mut sim = Simulator::new(&g, Flood, flood_init(5), Daemon::Synchronous, 0);
        let first = sim.execution().cap(2).run();
        assert_eq!(first.steps_used, 2);
        assert_eq!(first.reason, TerminationReason::CapExhausted);
        let second = sim.execution().run();
        assert!(second.terminal);
        assert_eq!(second.steps_used, 2);
        assert_eq!(sim.stats().moves, 4);
    }

    #[test]
    fn intra_threads_preserves_observer_event_order() {
        // The staged pipeline must leave the moves, steps and rounds
        // the observer sees in the exact sequential order at any
        // thread count.
        let g = generators::random_connected(20, 30, 3);
        let run = |threads: usize| {
            let mut log = EventLog::default();
            let mut init = vec![false; 20];
            init[0] = true;
            let mut sim = Simulator::new(&g, Flood, init, Daemon::RandomSubset { p: 0.6 }, 13);
            sim.set_par_threshold(0); // engage kernels even on tiny steps
            sim.set_intra_threads(threads);
            let out = sim.execution().cap(10_000).observe(&mut log).run();
            assert!(out.terminal);
            log.0
        };
        let seq = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(
                run(threads),
                seq,
                "event order diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn default_legitimacy_is_terminality() {
        // Flood keeps the default guard: legitimate = no rule enabled.
        let g = generators::path(4);
        let mut sim = Simulator::new(&g, Flood, flood_init(4), Daemon::Central, 0);
        assert_eq!(sim.illegitimate_count(), 1, "only node 1 is enabled");
        let out = sim.execution().until_legitimate().run();
        assert!(out.reached && out.terminal);
        assert_eq!(out.reason, TerminationReason::PredicateMet);
        assert_eq!(out.steps_used, 3);
        assert!(sim.is_legitimate());
    }

    #[test]
    fn terminal_cap_zero_matches_classic_semantics() {
        let g = generators::path(2);
        // Already terminal, cap 0: a plain termination run reports
        // reached (the classic `run_to_termination(0)` contract).
        let mut sim = Simulator::new(&g, Flood, vec![true, true], Daemon::Central, 0);
        let out = sim.execution().cap(0).run();
        assert!(out.reached && out.terminal);
        assert_eq!(out.reason, TerminationReason::Terminal);
        assert_eq!(out.steps_used, 0);
    }
}
