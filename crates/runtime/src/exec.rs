//! The execution/observer API: composable trajectory probes and the
//! fluent [`Execution`] builder — the one public way to drive a run to
//! completion.
//!
//! The paper's claims are *trajectory* properties (alive-root
//! monotonicity, per-segment rule grammars, liveness windows), so
//! measurement must see every step without owning the loop. An
//! [`Observer`] is a passive probe with hooks for each execution event;
//! an [`Execution`] wires any number of observers into the canonical
//! run loop. Workloads become "write an observer", never "fork the
//! loop", and the loop itself exists exactly once.
//!
//! # Examples
//!
//! A one-shot run with a custom probe:
//!
//! ```
//! use ssr_graph::generators;
//! use ssr_runtime::{
//!     Algorithm, Daemon, Execution, NodeId, Observer, RuleId, RuleMask, Simulator, StateView,
//!     StepOutcome, TerminationReason,
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
//! let mut peak = PeakActivation::default();
//! let out = Execution::of(&g, Flood)
//!     .init(init)
//!     .daemon(Daemon::Synchronous)
//!     .seed(42)
//!     .cap(1_000)
//!     .observe(&mut peak)
//!     .run();
//! assert!(out.terminal);
//! assert_eq!(out.reason, TerminationReason::Terminal);
//! assert_eq!(peak.0, 1, "a path flood activates one process per step");
//! ```
//!
//! Resuming an existing simulator (fault injection, warm-up phases):
//!
//! ```
//! # use ssr_graph::generators;
//! # use ssr_runtime::{Algorithm, Daemon, NodeId, RuleId, RuleMask, Simulator, StateView};
//! # struct Flood;
//! # impl Algorithm for Flood {
//! #     type State = bool;
//! #     fn rule_count(&self) -> usize { 1 }
//! #     fn rule_name(&self, _: RuleId) -> &'static str { "flood" }
//! #     fn enabled_mask<V: StateView<bool>>(&self, u: NodeId, view: &V) -> RuleMask {
//! #         let infected = view.graph().neighbors(u).iter().any(|&v| *view.state(v));
//! #         RuleMask::from_bool(!*view.state(u) && infected)
//! #     }
//! #     fn apply<V: StateView<bool>>(&self, _: NodeId, _: &V, _: RuleId) -> bool { true }
//! # }
//! let g = generators::path(4);
//! let mut sim = Simulator::new(&g, Flood, vec![true, false, false, false], Daemon::Central, 1);
//! let out = sim.execution().cap(10_000).until(|_, states| states[2]).run();
//! assert!(out.reached && out.steps_used == 2);
//! assert_eq!(sim.stats().moves, 2); // the simulator stays accessible
//! ```

use ssr_graph::{Graph, NodeId};

use crate::algorithm::{Algorithm, RuleId};
use crate::daemon::Daemon;
use crate::simulator::{RunOutcome, Simulator, StepOutcome, TerminationReason};
use crate::step::par::ParHooks;

/// A passive probe attached to an execution.
///
/// Every hook has an empty default body, so an observer implements only
/// the events it cares about; the compiler inlines unused hooks away
/// (the no-op path costs nothing, pinned by the `exec_overhead` bench
/// in `ssr-bench`). Hooks receive the simulator *after* the event, so
/// `sim.states()` is the post-step configuration and
/// [`Simulator::last_activated`] names the moves that produced it.
///
/// Observers compose: tuples run left to right, and
/// `Vec<Box<dyn Observer<A>>>` runs in order — see the table of
/// combinator impls below. `&mut O` forwards to `O`, so a probe can be
/// lent to an [`Execution`] and read back afterwards.
///
/// # Examples
///
/// ```
/// use ssr_runtime::{Algorithm, Observer, Simulator, StepOutcome};
///
/// /// Counts completed rounds through the hook alone.
/// #[derive(Default)]
/// struct RoundCounter(u64);
/// impl<A: Algorithm> Observer<A> for RoundCounter {
///     fn on_round_complete(&mut self, _sim: &Simulator<'_, A>) {
///         self.0 += 1;
///     }
/// }
/// ```
pub trait Observer<A: Algorithm> {
    /// Called after every successful step (never for a no-op step on a
    /// terminal configuration).
    fn on_step(&mut self, sim: &Simulator<'_, A>, outcome: &StepOutcome) {
        let _ = (sim, outcome);
    }

    /// Called once per `(process, rule)` move of a step, before that
    /// step's [`Observer::on_step`].
    fn on_move(&mut self, sim: &Simulator<'_, A>, u: NodeId, rule: RuleId) {
        let _ = (sim, u, rule);
    }

    /// Called after a step that completed a round (§2.4
    /// neutralization-based rounds), following `on_step`.
    fn on_round_complete(&mut self, sim: &Simulator<'_, A>) {
        let _ = sim;
    }

    /// Called (at most once per run) when the run ends on a terminal
    /// configuration — no rule enabled anywhere — whatever stopped the
    /// run: an observed terminal step, a predicate hit, or the budget
    /// running out right as the system went silent.
    fn on_terminal(&mut self, sim: &Simulator<'_, A>) {
        let _ = sim;
    }

    /// Called exactly once when the run finishes, whatever the
    /// [`TerminationReason`] — the place to sample the final
    /// configuration.
    fn on_run_end(&mut self, sim: &Simulator<'_, A>, outcome: &RunOutcome) {
        let _ = (sim, outcome);
    }
}

/// The zero-cost default observer: every hook is a no-op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoObserver;

impl<A: Algorithm> Observer<A> for NoObserver {}

impl<A: Algorithm> Observer<A> for () {}

/// Forwarding impl: lend a probe with `&mut` and read it afterwards.
impl<A: Algorithm, O: Observer<A> + ?Sized> Observer<A> for &mut O {
    fn on_step(&mut self, sim: &Simulator<'_, A>, outcome: &StepOutcome) {
        (**self).on_step(sim, outcome);
    }
    fn on_move(&mut self, sim: &Simulator<'_, A>, u: NodeId, rule: RuleId) {
        (**self).on_move(sim, u, rule);
    }
    fn on_round_complete(&mut self, sim: &Simulator<'_, A>) {
        (**self).on_round_complete(sim);
    }
    fn on_terminal(&mut self, sim: &Simulator<'_, A>) {
        (**self).on_terminal(sim);
    }
    fn on_run_end(&mut self, sim: &Simulator<'_, A>, outcome: &RunOutcome) {
        (**self).on_run_end(sim, outcome);
    }
}

impl<A: Algorithm, O: Observer<A> + ?Sized> Observer<A> for Box<O> {
    fn on_step(&mut self, sim: &Simulator<'_, A>, outcome: &StepOutcome) {
        (**self).on_step(sim, outcome);
    }
    fn on_move(&mut self, sim: &Simulator<'_, A>, u: NodeId, rule: RuleId) {
        (**self).on_move(sim, u, rule);
    }
    fn on_round_complete(&mut self, sim: &Simulator<'_, A>) {
        (**self).on_round_complete(sim);
    }
    fn on_terminal(&mut self, sim: &Simulator<'_, A>) {
        (**self).on_terminal(sim);
    }
    fn on_run_end(&mut self, sim: &Simulator<'_, A>, outcome: &RunOutcome) {
        (**self).on_run_end(sim, outcome);
    }
}

/// A dynamically-sized observer set, run in order.
impl<A: Algorithm, O: Observer<A> + ?Sized> Observer<A> for Vec<Box<O>> {
    fn on_step(&mut self, sim: &Simulator<'_, A>, outcome: &StepOutcome) {
        for o in self {
            o.on_step(sim, outcome);
        }
    }
    fn on_move(&mut self, sim: &Simulator<'_, A>, u: NodeId, rule: RuleId) {
        for o in self {
            o.on_move(sim, u, rule);
        }
    }
    fn on_round_complete(&mut self, sim: &Simulator<'_, A>) {
        for o in self {
            o.on_round_complete(sim);
        }
    }
    fn on_terminal(&mut self, sim: &Simulator<'_, A>) {
        for o in self {
            o.on_terminal(sim);
        }
    }
    fn on_run_end(&mut self, sim: &Simulator<'_, A>, outcome: &RunOutcome) {
        for o in self {
            o.on_run_end(sim, outcome);
        }
    }
}

macro_rules! impl_observer_tuple {
    ($($name:ident),+) => {
        /// Tuple combinator: hooks run left to right.
        impl<A: Algorithm, $($name: Observer<A>),+> Observer<A> for ($($name,)+) {
            fn on_step(&mut self, sim: &Simulator<'_, A>, outcome: &StepOutcome) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.on_step(sim, outcome);)+
            }
            fn on_move(&mut self, sim: &Simulator<'_, A>, u: NodeId, rule: RuleId) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.on_move(sim, u, rule);)+
            }
            fn on_round_complete(&mut self, sim: &Simulator<'_, A>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.on_round_complete(sim);)+
            }
            fn on_terminal(&mut self, sim: &Simulator<'_, A>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.on_terminal(sim);)+
            }
            fn on_run_end(&mut self, sim: &Simulator<'_, A>, outcome: &RunOutcome) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.on_run_end(sim, outcome);)+
            }
        }
    };
}

impl_observer_tuple!(O1);
impl_observer_tuple!(O1, O2);
impl_observer_tuple!(O1, O2, O3);
impl_observer_tuple!(O1, O2, O3, O4);

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
    /// Whether the run stops before its first step, on `sim`'s current
    /// configuration.
    fn holds_at_start(&mut self, sim: &Simulator<'_, A>) -> bool;

    /// Whether the run stops after the step `sim` has just taken.
    fn holds_after_step(&mut self, sim: &Simulator<'_, A>) -> bool;
}

impl<A, P> StopCondition<A> for P
where
    A: Algorithm,
    P: FnMut(&Graph, &[A::State]) -> bool,
{
    fn holds_at_start(&mut self, sim: &Simulator<'_, A>) -> bool {
        self(sim.graph(), sim.states())
    }

    fn holds_after_step(&mut self, sim: &Simulator<'_, A>) -> bool {
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
    fn holds_at_start(&mut self, sim: &Simulator<'_, A>) -> bool {
        sim.is_legitimate()
    }

    #[inline]
    fn holds_after_step(&mut self, sim: &Simulator<'_, A>) -> bool {
        sim.is_legitimate()
    }
}

/// Where an [`Execution`] gets its simulator from.
enum Source<'e, 'g, A: Algorithm> {
    /// Build a fresh simulator from the collected parameters.
    Fresh {
        graph: &'g Graph,
        algo: A,
        init: Option<Vec<A::State>>,
        daemon: Daemon,
        seed: u64,
        random_rule_choice: bool,
    },
    /// Drive a simulator the caller already owns.
    Resumed(&'e mut Simulator<'g, A>),
}

/// Fluent builder for driving a run to completion.
///
/// Two entry points share one run loop:
///
/// * [`Execution::of`] builds a fresh [`Simulator`] from the collected
///   parameters ([`init`](Execution::init) is mandatory,
///   [`daemon`](Execution::daemon) defaults to
///   [`Daemon::Synchronous`], [`seed`](Execution::seed) to `0`,
///   [`cap`](Execution::cap) to `u64::MAX`);
/// * [`Simulator::execution`] resumes a simulator the caller already
///   owns — for warm-up phases, fault injection between runs, or
///   reading stats and states afterwards.
///
/// The run stops at the first of: a terminal configuration, the stop
/// condition holding (set with [`until`](Execution::until) or
/// [`until_legitimate`](Execution::until_legitimate); checked on the
/// initial configuration too), or the step [`cap`](Execution::cap)
/// running out — reported in [`RunOutcome::reason`]. Attach any number
/// of probes with [`observe`](Execution::observe).
///
/// # Examples
///
/// See the [module documentation](self) for a fresh run with a custom
/// observer and a resumed run; [`RunReport`] for keeping the simulator
/// after a fresh run.
pub struct Execution<'e, 'g, A: Algorithm, O = NoObserver, S = NoPredicate<A>> {
    source: Source<'e, 'g, A>,
    cap: u64,
    observer: O,
    stop: Option<S>,
    /// `Some(hooks)` when [`Execution::intra_threads`] was called: the
    /// pre-built kernels to install (inner `None` = explicit sequential).
    intra: Option<Option<ParHooks<A>>>,
}

/// Outcome of [`Execution::run_report`]: the [`RunOutcome`] plus the
/// finished simulator, for callers that need final states or counters.
///
/// # Examples
///
/// ```
/// # use ssr_graph::generators;
/// # use ssr_runtime::{Algorithm, Daemon, Execution, NodeId, RuleId, RuleMask, StateView};
/// # struct Flood;
/// # impl Algorithm for Flood {
/// #     type State = bool;
/// #     fn rule_count(&self) -> usize { 1 }
/// #     fn rule_name(&self, _: RuleId) -> &'static str { "flood" }
/// #     fn enabled_mask<V: StateView<bool>>(&self, u: NodeId, view: &V) -> RuleMask {
/// #         let infected = view.graph().neighbors(u).iter().any(|&v| *view.state(v));
/// #         RuleMask::from_bool(!*view.state(u) && infected)
/// #     }
/// #     fn apply<V: StateView<bool>>(&self, _: NodeId, _: &V, _: RuleId) -> bool { true }
/// # }
/// let g = generators::path(3);
/// let report = Execution::of(&g, Flood)
///     .init(vec![true, false, false])
///     .daemon(Daemon::Synchronous)
///     .run_report();
/// assert!(report.outcome.terminal);
/// assert_eq!(report.sim.stats().moves, 2);
/// ```
pub struct RunReport<'g, A: Algorithm> {
    /// How and where the run ended.
    pub outcome: RunOutcome,
    /// The simulator in its final state.
    pub sim: Simulator<'g, A>,
}

impl<'e, 'g, A: Algorithm> Execution<'e, 'g, A> {
    /// Starts a fresh execution over `graph` running `algo`.
    ///
    /// The initial configuration must be supplied with
    /// [`Execution::init`] before [`run`](Execution::run).
    pub fn of(graph: &'g Graph, algo: A) -> Self {
        Execution {
            source: Source::Fresh {
                graph,
                algo,
                init: None,
                daemon: Daemon::Synchronous,
                seed: 0,
                random_rule_choice: false,
            },
            cap: u64::MAX,
            observer: NoObserver,
            stop: None,
            intra: None,
        }
    }

    /// Resumes `sim` — the builder form of [`Simulator::execution`].
    pub fn resume(sim: &'e mut Simulator<'g, A>) -> Self {
        Execution {
            source: Source::Resumed(sim),
            cap: u64::MAX,
            observer: NoObserver,
            stop: None,
            intra: None,
        }
    }
}

impl<'e, 'g, A: Algorithm, O, S> Execution<'e, 'g, A, O, S> {
    fn fresh_mut(&mut self, what: &str) -> &mut Source<'e, 'g, A> {
        assert!(
            matches!(self.source, Source::Fresh { .. }),
            "{what} can only be set on a fresh execution (`Execution::of`); \
             a resumed execution inherits the simulator's configuration"
        );
        &mut self.source
    }

    /// Sets the initial configuration (mandatory for fresh executions).
    ///
    /// # Panics
    ///
    /// Panics on a resumed execution.
    pub fn init(mut self, init: Vec<A::State>) -> Self {
        let Source::Fresh { init: slot, .. } = self.fresh_mut("the initial configuration") else {
            unreachable!()
        };
        *slot = Some(init);
        self
    }

    /// Sets the daemon (default: [`Daemon::Synchronous`]).
    ///
    /// # Panics
    ///
    /// Panics on a resumed execution.
    pub fn daemon(mut self, daemon: Daemon) -> Self {
        let Source::Fresh { daemon: slot, .. } = self.fresh_mut("the daemon") else {
            unreachable!()
        };
        *slot = daemon;
        self
    }

    /// Sets the simulator seed (default: `0`).
    ///
    /// # Panics
    ///
    /// Panics on a resumed execution.
    pub fn seed(mut self, seed: u64) -> Self {
        let Source::Fresh { seed: slot, .. } = self.fresh_mut("the seed") else {
            unreachable!()
        };
        *slot = seed;
        self
    }

    /// Enables uniformly random rule choice among a process's enabled
    /// rules (see [`Simulator::set_random_rule_choice`]).
    ///
    /// # Panics
    ///
    /// Panics on a resumed execution.
    pub fn random_rule_choice(mut self, random: bool) -> Self {
        let Source::Fresh {
            random_rule_choice: slot,
            ..
        } = self.fresh_mut("random rule choice")
        else {
            unreachable!()
        };
        *slot = random;
        self
    }

    /// Sets the step budget (default: unbounded).
    pub fn cap(mut self, cap: u64) -> Self {
        self.cap = cap;
        self
    }

    /// Runs the step pipeline's apply and guard kernels on `threads`
    /// pool workers (1 or 0 = sequential; the default). Works
    /// on fresh and resumed executions alike, and is byte-identical to
    /// sequential at any thread count — see
    /// [`Simulator::set_intra_threads`].
    pub fn intra_threads(mut self, threads: usize) -> Self
    where
        A: Sync,
        A::State: Send + Sync,
    {
        self.intra = Some(crate::step::par::hooks::<A>(threads));
        self
    }

    /// Attaches a probe; repeated calls nest, so every attached
    /// observer sees every event (earlier attachments fire first).
    pub fn observe<O2: Observer<A>>(self, observer: O2) -> Execution<'e, 'g, A, (O, O2), S> {
        Execution {
            source: self.source,
            cap: self.cap,
            observer: (self.observer, observer),
            stop: self.stop,
            intra: self.intra,
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
            source: self.source,
            cap: self.cap,
            observer: self.observer,
            stop: Some(stop),
            intra: self.intra,
        }
    }
}

impl<'e, 'g, A, O, S> Execution<'e, 'g, A, O, S>
where
    A: Algorithm,
    O: Observer<A>,
    S: StopCondition<A>,
{
    fn build(source: Source<'e, 'g, A>) -> Simulator<'g, A> {
        let Source::Fresh {
            graph,
            algo,
            init,
            daemon,
            seed,
            random_rule_choice,
        } = source
        else {
            unreachable!("build is only called on fresh sources")
        };
        let init = init.expect(
            "Execution::of(..) needs an initial configuration: call .init(states) before .run()",
        );
        let mut sim = Simulator::new(graph, algo, init, daemon, seed);
        sim.set_random_rule_choice(random_rule_choice);
        sim
    }

    /// Drives the run and returns how it ended.
    ///
    /// On a fresh execution the simulator is dropped afterwards — use
    /// [`Execution::run_report`] (or build the [`Simulator`] yourself
    /// and resume it) when final states or counters are needed.
    ///
    /// # Panics
    ///
    /// Panics if this is a fresh execution and [`Execution::init`] was
    /// never called.
    pub fn run(self) -> RunOutcome {
        let Execution {
            source,
            cap,
            mut observer,
            mut stop,
            intra,
        } = self;
        match source {
            Source::Resumed(sim) => {
                if let Some(hooks) = intra {
                    sim.install_par(hooks);
                }
                drive(sim, cap, &mut observer, stop.as_mut())
            }
            fresh @ Source::Fresh { .. } => {
                let mut sim = Self::build(fresh);
                if let Some(hooks) = intra {
                    sim.install_par(hooks);
                }
                drive(&mut sim, cap, &mut observer, stop.as_mut())
            }
        }
    }

    /// Like [`Execution::run`], but hands back the finished simulator
    /// too.
    ///
    /// # Panics
    ///
    /// Panics on a resumed execution (the caller already owns the
    /// simulator) and if [`Execution::init`] was never called.
    pub fn run_report(self) -> RunReport<'g, A> {
        let Execution {
            source,
            cap,
            mut observer,
            mut stop,
            intra,
        } = self;
        assert!(
            matches!(source, Source::Fresh { .. }),
            "run_report is for fresh executions; a resumed execution's caller \
             already owns the simulator — use run() instead"
        );
        let mut sim = Self::build(source);
        if let Some(hooks) = intra {
            sim.install_par(hooks);
        }
        let outcome = drive(&mut sim, cap, &mut observer, stop.as_mut());
        RunReport { outcome, sim }
    }
}

/// The canonical run loop: steps `sim` until the stop condition holds,
/// the configuration is terminal, or `cap` steps elapse, firing
/// observer hooks along the way. Semantics match the classic
/// `run_until`/`run_to_termination` exactly (same step sequence, same
/// RNG draws, same counters) so migrated callers reproduce their
/// pre-observer numbers byte for byte.
pub(crate) fn drive<A, O, S>(
    sim: &mut Simulator<'_, A>,
    cap: u64,
    observer: &mut O,
    mut stop: Option<&mut S>,
) -> RunOutcome
where
    A: Algorithm,
    O: Observer<A> + ?Sized,
    S: StopCondition<A> + ?Sized,
{
    let outcome = |sim: &Simulator<'_, A>, reached, steps_used, reason| RunOutcome {
        reached,
        terminal: sim.is_terminal(),
        steps_used,
        moves_at_hit: sim.stats().moves,
        rounds_at_hit: sim.rounds_now(),
        reason,
    };
    let mut steps_used = 0u64;
    if let Some(s) = stop.as_mut() {
        if s.holds_at_start(sim) {
            if sim.is_terminal() {
                observer.on_terminal(sim);
            }
            let out = outcome(sim, true, steps_used, TerminationReason::PredicateMet);
            sim.emit_run_ended(&out);
            observer.on_run_end(sim, &out);
            return out;
        }
    }
    loop {
        if steps_used >= cap {
            // `reached` keeps the classic semantics: a predicate run
            // that exhausts its budget failed; a plain termination run
            // "reached" iff the final configuration happens to be
            // terminal. A configuration that went terminal on the very
            // last in-budget step still fires `on_terminal`.
            let reached = stop.is_none() && sim.is_terminal();
            let reason = if sim.is_terminal() {
                observer.on_terminal(sim);
                TerminationReason::Terminal
            } else {
                TerminationReason::CapExhausted
            };
            let out = outcome(sim, reached, steps_used, reason);
            sim.emit_run_ended(&out);
            observer.on_run_end(sim, &out);
            return out;
        }
        match sim.step() {
            StepOutcome::Terminal => {
                observer.on_terminal(sim);
                let out = outcome(sim, stop.is_none(), steps_used, TerminationReason::Terminal);
                sim.emit_run_ended(&out);
                observer.on_run_end(sim, &out);
                return out;
            }
            StepOutcome::Progress { activated } => {
                steps_used += 1;
                for i in 0..sim.last_activated().len() {
                    let (u, rule) = sim.last_activated()[i];
                    observer.on_move(sim, u, rule);
                }
                let step_outcome = StepOutcome::Progress { activated };
                observer.on_step(sim, &step_outcome);
                if sim.last_step_completed_round() {
                    observer.on_round_complete(sim);
                }
                if let Some(s) = stop.as_mut() {
                    if s.holds_after_step(sim) {
                        // The hook contract is about the configuration,
                        // not the stop cause: a predicate hit on a
                        // terminal configuration still reports it.
                        if sim.is_terminal() {
                            observer.on_terminal(sim);
                        }
                        let out = outcome(sim, true, steps_used, TerminationReason::PredicateMet);
                        sim.emit_run_ended(&out);
                        observer.on_run_end(sim, &out);
                        return out;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{RuleMask, StateView};
    use ssr_graph::generators;

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

    /// Records every hook invocation, for ordering assertions.
    #[derive(Default)]
    struct EventLog(Vec<String>);

    impl<A: Algorithm> Observer<A> for EventLog {
        fn on_step(&mut self, _sim: &Simulator<'_, A>, outcome: &StepOutcome) {
            self.0.push(format!("step:{outcome:?}"));
        }
        fn on_move(&mut self, _sim: &Simulator<'_, A>, u: NodeId, rule: RuleId) {
            self.0.push(format!("move:{u:?}:{rule:?}"));
        }
        fn on_round_complete(&mut self, _sim: &Simulator<'_, A>) {
            self.0.push("round".into());
        }
        fn on_terminal(&mut self, _sim: &Simulator<'_, A>) {
            self.0.push("terminal".into());
        }
        fn on_run_end(&mut self, _sim: &Simulator<'_, A>, outcome: &RunOutcome) {
            self.0.push(format!("end:{:?}", outcome.reason));
        }
    }

    #[test]
    fn fresh_run_reaches_terminal() {
        let g = generators::path(4);
        let out = Execution::of(&g, Flood)
            .init(flood_init(4))
            .daemon(Daemon::Synchronous)
            .seed(7)
            .run();
        assert!(out.terminal && out.reached);
        assert_eq!(out.reason, TerminationReason::Terminal);
        assert_eq!(out.steps_used, 3);
    }

    #[test]
    fn predicate_checked_on_initial_configuration() {
        let g = generators::path(3);
        let out = Execution::of(&g, Flood)
            .init(flood_init(3))
            .until(|_, states| states[0])
            .run();
        assert!(out.reached);
        assert_eq!(out.steps_used, 0);
        assert_eq!(out.reason, TerminationReason::PredicateMet);
    }

    #[test]
    fn cap_exhaustion_is_reported() {
        let g = generators::path(6);
        let out = Execution::of(&g, Flood)
            .init(flood_init(6))
            .daemon(Daemon::Synchronous)
            .cap(2)
            .until(|_, states| states[5])
            .run();
        assert!(!out.reached && !out.terminal);
        assert_eq!(out.reason, TerminationReason::CapExhausted);
        assert_eq!(out.steps_used, 2);
    }

    #[test]
    fn hooks_fire_in_order() {
        let g = generators::path(3);
        let mut log = EventLog::default();
        let out = Execution::of(&g, Flood)
            .init(flood_init(3))
            .daemon(Daemon::Synchronous)
            .observe(&mut log)
            .run();
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
        let boxed: Vec<Box<dyn Observer<Flood>>> = vec![Box::new(EventLog::default())];
        let out = Execution::of(&g, Flood)
            .init(flood_init(4))
            .daemon(Daemon::Synchronous)
            .observe((&mut a, &mut b))
            .observe(boxed)
            .run();
        assert!(out.terminal);
        assert_eq!(a.0, b.0);
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
    fn run_report_hands_back_the_simulator() {
        let g = generators::path(3);
        let report = Execution::of(&g, Flood)
            .init(flood_init(3))
            .daemon(Daemon::Synchronous)
            .run_report();
        assert!(report.outcome.terminal);
        assert!(report.sim.states().iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "initial configuration")]
    fn fresh_run_requires_init() {
        let g = generators::path(3);
        let _ = Execution::of(&g, Flood).run();
    }

    #[test]
    #[should_panic(expected = "fresh execution")]
    fn resumed_execution_rejects_daemon_override() {
        let g = generators::path(3);
        let mut sim = Simulator::new(&g, Flood, flood_init(3), Daemon::Central, 0);
        let _ = sim.execution().daemon(Daemon::Synchronous);
    }

    #[test]
    #[should_panic(expected = "run_report is for fresh executions")]
    fn resumed_execution_rejects_run_report() {
        let g = generators::path(3);
        let mut sim = Simulator::new(&g, Flood, flood_init(3), Daemon::Central, 0);
        let _ = sim.execution().run_report();
    }

    #[test]
    fn on_terminal_fires_when_predicate_hits_a_terminal_configuration() {
        // The step satisfying the predicate is also the one that makes
        // the configuration terminal: both events must be reported.
        let g = generators::path(3);
        let mut log = EventLog::default();
        let out = Execution::of(&g, Flood)
            .init(flood_init(3))
            .daemon(Daemon::Synchronous)
            .observe(&mut log)
            .until(|_, states| states[2])
            .run();
        assert!(out.reached && out.terminal);
        assert_eq!(out.reason, TerminationReason::PredicateMet);
        assert_eq!(log.0.iter().filter(|e| *e == "terminal").count(), 1);
    }

    #[test]
    fn on_terminal_fires_when_cap_lands_exactly_on_termination() {
        // Flood on path(4) terminates after exactly 3 steps: with
        // cap(3) the loop exits through the budget check, but the
        // terminal event must still reach observers.
        let g = generators::path(4);
        let mut log = EventLog::default();
        let out = Execution::of(&g, Flood)
            .init(flood_init(4))
            .daemon(Daemon::Synchronous)
            .cap(3)
            .observe(&mut log)
            .run();
        assert!(out.terminal && out.reached);
        assert_eq!(out.reason, TerminationReason::Terminal);
        assert_eq!(log.0.iter().filter(|e| *e == "terminal").count(), 1);
    }

    #[test]
    fn intra_threads_preserves_observer_event_order() {
        // The staged pipeline must fire on_move/on_step/on_round_complete
        // in the exact sequential order at any thread count.
        let g = generators::random_connected(20, 30, 3);
        let run = |threads: usize| {
            let mut log = EventLog::default();
            let mut init = vec![false; 20];
            init[0] = true;
            let mut sim = Simulator::new(&g, Flood, init, Daemon::RandomSubset { p: 0.6 }, 13);
            sim.set_par_threshold(0); // engage kernels even on tiny steps
            let out = sim
                .execution()
                .intra_threads(threads)
                .cap(10_000)
                .observe(&mut log)
                .run();
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
