//! The [`Simulator`]: composite-atomicity execution engine with move and
//! round accounting, built on the staged step pipeline in [`crate::step`].

use std::fmt;
use std::time::Instant;

use ssr_graph::{Bitset, Graph, NodeId};

use crate::algorithm::{Algorithm, ConfigView, RuleId, RuleMask};
use crate::daemon::Daemon;
use crate::exec::Execution;
use crate::rng::Xoshiro256StarStar;
use crate::step;
use crate::step::guards::EnabledSet;
use crate::step::par::ParHooks;
use crate::trace::{TraceEvent, TracePhase, TraceSink};

/// Execution counters (§2.4 time measures).
///
/// The per-node vectors (`moves_per_process`, `moves_per_process_rule`)
/// are allocated **lazily** on the first counted move, so a simulator
/// that never steps pays no `O(n · rules)` memory for them. Use
/// [`RunStats::moves_of`] and [`RunStats::max_moves_per_process`]
/// rather than indexing the vectors directly; they treat the
/// unallocated vectors as all-zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Steps taken (configuration transitions).
    pub steps: u64,
    /// Total moves (rule executions; ≥ steps, = steps for central daemons).
    pub moves: u64,
    /// Rounds fully completed (neutralization-based, §2.4).
    pub completed_rounds: u64,
    /// Moves per process (empty until the first tracked move).
    pub moves_per_process: Vec<u64>,
    /// Moves per rule.
    pub moves_per_rule: Vec<u64>,
    /// Moves per (process, rule), flattened as `process * rule_count + rule`
    /// (empty until the first tracked move).
    pub moves_per_process_rule: Vec<u64>,
}

impl RunStats {
    fn new(rules: usize) -> Self {
        RunStats {
            steps: 0,
            moves: 0,
            completed_rounds: 0,
            moves_per_process: Vec::new(),
            moves_per_rule: vec![0; rules],
            moves_per_process_rule: Vec::new(),
        }
    }

    /// Moves executed by process `u` with rule `rule` (0 when per-node
    /// tracking never allocated).
    pub fn moves_of(&self, u: NodeId, rule: RuleId, rule_count: usize) -> u64 {
        self.moves_per_process_rule
            .get(u.index() * rule_count + rule.index())
            .copied()
            .unwrap_or(0)
    }

    /// The maximum per-process move count.
    pub fn max_moves_per_process(&self) -> u64 {
        self.moves_per_process.iter().copied().max().unwrap_or(0)
    }
}

/// Result of a single [`Simulator::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// No process was enabled; the configuration is terminal.
    Terminal,
    /// A step was taken, activating `activated` processes.
    Progress {
        /// Number of processes that moved in this step.
        activated: usize,
    },
}

/// Why a driven run ([`crate::Execution::run`]) stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminationReason {
    /// The configuration is terminal: no rule is enabled anywhere.
    Terminal,
    /// The [`crate::Execution::until`] predicate holds.
    PredicateMet,
    /// The step budget ran out with the system still live — the only
    /// variant where the run was cut short, so experiments test this
    /// instead of inferring exhaustion from step counts.
    CapExhausted,
}

impl fmt::Display for TerminationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TerminationReason::Terminal => "terminal",
            TerminationReason::PredicateMet => "predicate-met",
            TerminationReason::CapExhausted => "cap-exhausted",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for TerminationReason {
    type Err = String;

    /// Parses the [`fmt::Display`] rendering back — used when replaying
    /// persisted records (checkpoints) into memory.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "terminal" => Ok(TerminationReason::Terminal),
            "predicate-met" => Ok(TerminationReason::PredicateMet),
            "cap-exhausted" => Ok(TerminationReason::CapExhausted),
            other => Err(format!("unknown termination reason {other:?}")),
        }
    }
}

/// Result of a driven run ([`crate::Execution::run`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Whether the run's target was met: the predicate for
    /// predicate-bearing runs, termination for plain runs (always
    /// `false` for predicate runs that hit the step bound).
    pub reached: bool,
    /// Whether the final configuration is terminal.
    pub terminal: bool,
    /// Steps taken during this run (not cumulative).
    pub steps_used: u64,
    /// Moves counted up to (and including) the step that reached the
    /// predicate, cumulative over the simulator's lifetime.
    pub moves_at_hit: u64,
    /// Stabilization time in rounds: completed rounds before the hit,
    /// counting a partially elapsed round as one full round.
    pub rounds_at_hit: u64,
    /// Why the run stopped.
    pub reason: TerminationReason,
}

/// Minimum moves per step before the installed parallel kernels run;
/// below it, fork/join overhead outweighs the work split off. On
/// `scale`'s workload (synchronous `Sdr<Agreement>`), two threads break
/// even at about 11,000 to 15,000 moves per step (DESIGN.md §9).
const DEFAULT_PAR_THRESHOLD: usize = 16_384;

/// Composite-atomicity execution engine.
///
/// Owns the configuration and drives the three-phase step pipeline
/// (the `step` module): daemon selection and rule resolution, next-state
/// computation against the frozen pre-step configuration, and guard
/// re-evaluation over the movers' closed neighborhoods (incremental:
/// only nodes whose guards can have changed are re-evaluated).
///
/// The apply and guard phases optionally run on the
/// [`crate::pool::par_map`] pool ([`Simulator::set_intra_threads`]);
/// results come back in index order, so a run is **byte-identical** at
/// any thread count. See the crate-level documentation for an
/// end-to-end example.
pub struct Simulator<'g, A: Algorithm> {
    graph: &'g Graph,
    algo: A,
    daemon: Daemon,
    rng: Xoshiro256StarStar,
    random_rule_choice: bool,
    states: Vec<A::State>,
    /// Masks, enabled set, wait counters and round front, kept by the
    /// guard phase.
    enabled: EnabledSet,
    /// Whether the last step completed a round.
    round_just_completed: bool,
    rr_cursor: usize,
    stats: RunStats,
    /// Installed parallel kernels (`None` = sequential).
    par: Option<ParHooks<A>>,
    /// Minimum moves per step before `par` is used.
    par_threshold: usize,
    /// Installed trace sink (`None` = tracing disabled, the default;
    /// see [`crate::trace`] for the zero-cost contract).
    trace: Option<Box<dyn TraceSink>>,
    /// RNG draws of the most recent step, split by pipeline phase
    /// (select / apply / guards) — the audit trail behind the
    /// "all draws happen in select" determinism contract.
    last_phase_draws: [u64; 3],
    // Scratch buffers (reused across steps).
    last_activated: Vec<(NodeId, RuleId)>,
    next_buf: Vec<A::State>,
    refresh_buf: Vec<NodeId>,
    touched_stamp: Vec<u64>,
    stamp: u64,
}

impl<'g, A: Algorithm> Simulator<'g, A> {
    /// Creates a simulator over `graph` starting from configuration
    /// `init`, scheduled by `daemon`, seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `init.len() != graph.node_count()` or the algorithm
    /// declares more than 32 rules.
    pub fn new(graph: &'g Graph, algo: A, init: Vec<A::State>, daemon: Daemon, seed: u64) -> Self {
        assert_eq!(
            init.len(),
            graph.node_count(),
            "initial configuration size must match node count"
        );
        assert!(algo.rule_count() <= 32, "at most 32 rules are supported");
        let n = graph.node_count();
        let rules = algo.rule_count();
        let (masks, legit) = {
            let view = ConfigView::new(graph, &init);
            graph
                .nodes()
                .map(|u| {
                    let guard = algo.guard(u, &view);
                    (guard.mask, guard.legit)
                })
                .unzip()
        };
        let enabled = EnabledSet::new(masks, legit, daemon.needs_wait_tracking());
        Simulator {
            graph,
            algo,
            daemon,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            random_rule_choice: false,
            states: init,
            enabled,
            round_just_completed: false,
            rr_cursor: 0,
            stats: RunStats::new(rules),
            par: None,
            par_threshold: DEFAULT_PAR_THRESHOLD,
            trace: None,
            last_phase_draws: [0; 3],
            last_activated: Vec::new(),
            next_buf: Vec::new(),
            refresh_buf: Vec::new(),
            touched_stamp: vec![0; n],
            stamp: 0,
        }
    }

    /// When set, a process with several enabled rules executes a
    /// uniformly random one instead of the lowest-index one (the model
    /// leaves this choice nondeterministic, §2.2).
    pub fn set_random_rule_choice(&mut self, random: bool) {
        self.random_rule_choice = random;
    }

    /// Runs the apply and guard kernels on `threads` workers, the
    /// stepping thread among them (1 or 0 restores sequential
    /// execution). Runs are byte-identical at any thread count: same
    /// states, counters, RNG stream, and observer event order.
    ///
    /// Kernels only engage on a step with at least the threshold's
    /// number of moves ([`Simulator::set_par_threshold`]).
    pub fn set_intra_threads(&mut self, threads: usize)
    where
        A: Sync,
        A::State: Send + Sync,
    {
        self.install_par(step::par::hooks::<A>(threads));
    }

    /// The configured intra-run worker count (1 = sequential).
    pub fn intra_threads(&self) -> usize {
        self.par.map_or(1, |h| h.threads)
    }

    /// Minimum number of moves in a step before the installed parallel
    /// kernels run its apply and guard phases; below it the sequential
    /// path runs. Set 0 to force the parallel path (tests).
    pub fn set_par_threshold(&mut self, threshold: usize) {
        self.par_threshold = threshold;
    }

    /// Installs pre-built kernels without `Sync` bounds (the bounds
    /// were paid when the hooks were built).
    pub(crate) fn install_par(&mut self, hooks: Option<ParHooks<A>>) {
        self.par = hooks;
    }

    /// Installs a [`TraceSink`]: every subsequent step emits the typed
    /// event stream documented in [`crate::trace`]. Replaces any
    /// previously installed sink.
    ///
    /// Tracing never changes execution: states, counters, RNG stream,
    /// and observer callbacks are byte-identical with or without a
    /// sink.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Removes and returns the installed trace sink, disabling tracing
    /// (use [`TraceSink::as_any_mut`] to recover the concrete type).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Whether a trace sink is currently installed.
    pub fn has_trace_sink(&self) -> bool {
        self.trace.is_some()
    }

    /// The communication graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The algorithm instance.
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// Current configuration (one state per node).
    pub fn states(&self) -> &[A::State] {
        &self.states
    }

    /// Current state of process `u`.
    pub fn state(&self, u: NodeId) -> &A::State {
        &self.states[u.index()]
    }

    /// Read-only view of the current configuration.
    pub fn view(&self) -> ConfigView<'_, A::State> {
        ConfigView::new(self.graph, &self.states)
    }

    /// Execution counters so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Whether no rule is enabled anywhere (terminal configuration).
    pub fn is_terminal(&self) -> bool {
        self.enabled.list().is_empty()
    }

    /// Number of currently enabled processes.
    pub fn enabled_count(&self) -> usize {
        self.enabled.list().len()
    }

    /// Enabled processes in ascending index order (for tests/reports).
    ///
    /// Allocates; hot paths should reuse a buffer through
    /// [`Simulator::enabled_nodes_sorted_into`].
    pub fn enabled_nodes_sorted(&self) -> Vec<NodeId> {
        let mut v = Vec::new();
        self.enabled_nodes_sorted_into(&mut v);
        v
    }

    /// Writes the enabled processes in ascending index order into
    /// `out` (cleared first), reusing its capacity.
    pub fn enabled_nodes_sorted_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(self.enabled.list());
        out.sort_unstable();
    }

    /// Enabled processes as a bitset (one bit per node).
    pub fn enabled_bits(&self) -> &Bitset {
        self.enabled.bits()
    }

    /// Whether the current configuration is legitimate: the legitimacy
    /// term of [`Algorithm::guard`] holds at every node. O(1): the
    /// guard phase keeps the number of failing nodes.
    pub fn is_legitimate(&self) -> bool {
        self.enabled.illegitimate() == 0
    }

    /// Number of nodes whose legitimacy term ([`Algorithm::guard`])
    /// fails in the current configuration.
    pub fn illegitimate_count(&self) -> usize {
        self.enabled.illegitimate()
    }

    /// The enabled-rule mask of `u` in the current configuration.
    pub fn enabled_mask_of(&self, u: NodeId) -> RuleMask {
        self.enabled.masks()[u.index()]
    }

    /// The `(process, rule)` pairs activated by the most recent step.
    pub fn last_activated(&self) -> &[(NodeId, RuleId)] {
        &self.last_activated
    }

    /// The refresh set of the most recent step: each mover, then its
    /// neighbours, every node once, in the order the guard phase
    /// re-evaluated them. These are exactly the nodes whose closed
    /// neighbourhood the step changed (§2.2), so the only ones whose
    /// mask or legitimacy term it can have changed. Empty before the
    /// first step; [`Simulator::inject`] leaves it as it was (it
    /// re-evaluates the injected node and its neighbours itself).
    pub fn last_refreshed(&self) -> &[NodeId] {
        &self.refresh_buf
    }

    /// RNG draws consumed by the most recent step, split by phase as
    /// `[select, apply, guards]`. The pipeline's determinism contract
    /// is that apply and guards draw nothing — `ssr-analyze` audits
    /// exactly that; `[0, 0, 0]` before the first step.
    pub fn last_step_phase_draws(&self) -> [u64; 3] {
        self.last_phase_draws
    }

    /// Stabilization rounds if the predicate held *now* (partial round
    /// counts as one).
    pub fn rounds_now(&self) -> u64 {
        if self.stats.steps == 0 || self.round_just_completed {
            self.stats.completed_rounds
        } else {
            self.stats.completed_rounds + 1
        }
    }

    /// Overwrites the state of `u` (transient-fault injection) and
    /// restarts round tracking from the resulting configuration.
    ///
    /// Move/round counters are preserved; see [`Simulator::reset_stats`]
    /// to measure recovery in isolation.
    pub fn inject(&mut self, u: NodeId, state: A::State) {
        self.states[u.index()] = state;
        self.stamp += 1;
        let stamp = self.stamp;
        self.refresh_node(u, stamp);
        for &v in self.graph.neighbors(u) {
            self.refresh_node(v, stamp);
        }
        self.enabled.start_round();
    }

    /// Zeroes all counters and restarts round tracking (useful to
    /// measure recovery after [`Simulator::inject`]).
    pub fn reset_stats(&mut self) {
        self.stats = RunStats::new(self.algo.rule_count());
        self.round_just_completed = false;
        self.enabled.start_round();
    }

    /// Executes one step of the pipeline: the daemon activates a
    /// non-empty subset of the enabled processes; each executes one
    /// enabled rule, all reading the pre-step configuration.
    pub fn step(&mut self) -> StepOutcome {
        if self.enabled.list().is_empty() {
            return StepOutcome::Terminal;
        }
        // Tracing: sink taken out for the step (avoids aliasing the
        // pipeline's &mut self borrows) and restored before returning.
        // With no sink installed this is one Option move and a few
        // never-taken branches — the `obs_overhead` tripwire pins it.
        let mut trace = self.trace.take();
        let step_idx = self.stats.steps;
        if let Some(t) = trace.as_deref_mut() {
            t.record(&TraceEvent::StepStarted {
                step: step_idx,
                enabled: self.enabled.list().len() as u32,
            });
        }
        // The clock is read only for sinks that opted into (inherently
        // nondeterministic) phase timing. At each phase boundary it
        // restarts after the sink has returned, so the sink's own time
        // is billed to no phase.
        let mut phase_clock = match trace.as_deref() {
            Some(t) if t.wants_phase_timing() => Some(Instant::now()),
            _ => None,
        };

        // Phase 1 (select): the daemon emits the moves, then the rule
        // pass redraws multi-rule movers' rules. Owns every RNG draw of
        // the step; always sequential.
        let draws_at_start = self.rng.draws();
        self.daemon.select(
            self.enabled.list(),
            self.enabled.masks(),
            self.enabled.waits(),
            &mut self.rr_cursor,
            &mut self.rng,
            &mut self.last_activated,
        );
        if self.random_rule_choice {
            step::select::draw_rules(
                self.enabled.masks(),
                &mut self.rng,
                &mut self.last_activated,
            );
        }
        if let (Some(clock), Some(t)) = (phase_clock.as_mut(), trace.as_deref_mut()) {
            t.record(&TraceEvent::PhaseTimed {
                step: step_idx,
                phase: TracePhase::Select,
                nanos: clock.elapsed().as_nanos() as u64,
                par: false,
            });
            *clock = Instant::now();
        }
        let draws_after_select = self.rng.draws();

        // Phase 2 (apply): next states against the *old* configuration,
        // committed in selection order (composite atomicity — every
        // read saw the pre-step configuration).
        let par = self.par_if(self.last_activated.len());
        match (self.last_activated.as_slice(), par) {
            // One move: no other move reads the mover's old state, so
            // its next state, computed against the current
            // configuration, is written in place.
            (&[(u, rule)], None) => {
                let view = ConfigView::new(self.graph, &self.states);
                let next = self.algo.apply(u, &view, rule);
                self.states[u.index()] = next;
            }
            (moves, par) => {
                let mut next = std::mem::take(&mut self.next_buf);
                step::apply::compute_next_states(
                    self.graph,
                    &self.algo,
                    &self.states,
                    moves,
                    &mut next,
                    par,
                );
                for (&(u, _), next_state) in moves.iter().zip(next.drain(..)) {
                    self.states[u.index()] = next_state;
                }
                self.next_buf = next;
            }
        }
        // Each mover leaves the round front (§2.4).
        let rules = self.algo.rule_count();
        if self.stats.moves_per_process.is_empty() {
            let n = self.graph.node_count();
            self.stats.moves_per_process = vec![0; n];
            self.stats.moves_per_process_rule = vec![0; n * rules];
        }
        for &(u, rule) in &self.last_activated {
            self.enabled.front_remove(u);
            self.stats.moves += 1;
            self.stats.moves_per_rule[rule.index()] += 1;
            self.stats.moves_per_process[u.index()] += 1;
            self.stats.moves_per_process_rule[u.index() * rules + rule.index()] += 1;
        }
        self.stats.steps += 1;
        if let Some(t) = trace.as_deref_mut() {
            if let Some(clock) = phase_clock.as_ref() {
                t.record(&TraceEvent::PhaseTimed {
                    step: step_idx,
                    phase: TracePhase::Apply,
                    nanos: clock.elapsed().as_nanos() as u64,
                    par: par.is_some(),
                });
            }
            t.record(&TraceEvent::MovesApplied {
                step: step_idx,
                moves: self.last_activated.len() as u32,
            });
            if let Some(clock) = phase_clock.as_mut() {
                *clock = Instant::now();
            }
        }
        let draws_after_apply = self.rng.draws();

        // Phase 3 (guards): re-evaluate movers and their neighbors —
        // the only nodes whose guards can have changed (§2.2 locality)
        // — and record each fresh mask (enabled set, waits, round
        // front) as it is computed.
        self.stamp += 1;
        let stamp = self.stamp;
        let mut refresh = std::mem::take(&mut self.refresh_buf);
        if let Some(hooks) = par {
            // The parallel kernel needs the whole list before it starts.
            step::guards::collect_refresh_targets(
                self.graph,
                &self.last_activated,
                &mut self.touched_stamp,
                stamp,
                &mut refresh,
                |_| {},
            );
            step::guards::refresh_par(
                hooks,
                self.graph,
                &self.algo,
                &self.states,
                &refresh,
                &mut self.enabled,
            );
        } else {
            let view = ConfigView::new(self.graph, &self.states);
            let (algo, enabled) = (&self.algo, &mut self.enabled);
            step::guards::collect_refresh_targets(
                self.graph,
                &self.last_activated,
                &mut self.touched_stamp,
                stamp,
                &mut refresh,
                |u| step::guards::refresh_one(algo, &view, enabled, u),
            );
        }

        self.enabled.count_waits(&self.last_activated);

        self.round_just_completed = false;
        if self.enabled.round_done() {
            self.stats.completed_rounds += 1;
            self.round_just_completed = true;
            self.enabled.start_round();
        }

        self.refresh_buf = refresh;
        let draws_at_end = self.rng.draws();
        self.last_phase_draws = [
            draws_after_select - draws_at_start,
            draws_after_apply - draws_after_select,
            draws_at_end - draws_after_apply,
        ];
        let activated = self.last_activated.len();

        if let Some(t) = trace.as_deref_mut() {
            if let Some(clock) = phase_clock {
                t.record(&TraceEvent::PhaseTimed {
                    step: step_idx,
                    phase: TracePhase::Guards,
                    nanos: clock.elapsed().as_nanos() as u64,
                    par: par.is_some(),
                });
            }
            t.record(&TraceEvent::EnabledSetSize {
                step: step_idx,
                enabled: self.enabled.list().len() as u32,
            });
            if self.round_just_completed {
                t.record(&TraceEvent::RoundCompleted {
                    step: step_idx,
                    rounds: self.stats.completed_rounds,
                });
            }
        }
        self.trace = trace;
        StepOutcome::Progress { activated }
    }

    /// Emits [`TraceEvent::RunEnded`] and flushes the sink; called by
    /// the `exec` driver at each of its return sites.
    pub(crate) fn emit_run_ended(&mut self, out: &RunOutcome) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(&TraceEvent::RunEnded {
                steps: self.stats.steps,
                moves: self.stats.moves,
                rounds: self.stats.completed_rounds,
                reason: out.reason,
            });
            t.flush();
        }
    }

    /// Whether the most recent step completed a round (§2.4
    /// neutralization-based rounds). `false` before the first step and
    /// right after [`Simulator::reset_stats`].
    pub fn last_step_completed_round(&self) -> bool {
        self.round_just_completed
    }

    /// Starts a resumed [`Execution`] over this simulator: the fluent
    /// way to drive it to completion with observers and a stop
    /// predicate.
    ///
    /// # Examples
    ///
    /// See the [`crate::exec`] module documentation.
    pub fn execution<'e>(&'e mut self) -> Execution<'e, 'g, A> {
        Execution::resume(self)
    }

    // ---- internals ----

    /// The installed kernels, when the work size warrants them.
    fn par_if(&self, len: usize) -> Option<ParHooks<A>> {
        match self.par {
            Some(h) if len >= self.par_threshold => Some(h),
            _ => None,
        }
    }

    /// Re-evaluates `u`'s guards if not already refreshed at `stamp`.
    fn refresh_node(&mut self, u: NodeId, stamp: u64) {
        if self.touched_stamp[u.index()] == stamp {
            return;
        }
        self.touched_stamp[u.index()] = stamp;
        let view = ConfigView::new(self.graph, &self.states);
        step::guards::refresh_one(&self.algo, &view, &mut self.enabled, u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::StateView;
    use ssr_graph::generators;

    /// A node with all-zero closed neighborhood sets itself to 1.
    ///
    /// On `K_2` both nodes start enabled; activating one *neutralizes*
    /// the other — the canonical test for round accounting.
    struct ZeroBreaker;

    impl Algorithm for ZeroBreaker {
        type State = u8;
        fn rule_count(&self) -> usize {
            1
        }
        fn rule_name(&self, _: RuleId) -> &'static str {
            "break"
        }
        fn enabled_mask<V: StateView<u8>>(&self, u: NodeId, view: &V) -> RuleMask {
            let all_zero = *view.state(u) == 0
                && view
                    .graph()
                    .neighbors(u)
                    .iter()
                    .all(|&v| *view.state(v) == 0);
            RuleMask::from_bool(all_zero)
        }
        fn apply<V: StateView<u8>>(&self, _: NodeId, _: &V, _: RuleId) -> u8 {
            1
        }
    }

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

    fn flood_path(n: usize) -> (Vec<bool>, ssr_graph::Graph) {
        let g = generators::path(n);
        let mut init = vec![false; n];
        init[0] = true;
        (init, g)
    }

    #[test]
    fn phase_draws_confined_to_select() {
        let (init, g) = flood_path(8);
        let mut sim = Simulator::new(&g, Flood, init, Daemon::RandomSubset { p: 0.5 }, 42);
        sim.set_random_rule_choice(true);
        assert_eq!(sim.last_step_phase_draws(), [0, 0, 0]);
        let mut any_select_draws = false;
        while let StepOutcome::Progress { .. } = sim.step() {
            let [select, apply, guards] = sim.last_step_phase_draws();
            any_select_draws |= select > 0;
            assert_eq!((apply, guards), (0, 0), "apply/guards must not draw");
        }
        assert!(any_select_draws, "a random daemon draws during select");
    }

    #[test]
    fn neutralization_counts_one_round_on_k2() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, ZeroBreaker, vec![0, 0], Daemon::LexMin, 1);
        assert_eq!(sim.enabled_count(), 2);
        // One step: node 0 moves, node 1 is neutralized -> round done.
        assert_eq!(sim.step(), StepOutcome::Progress { activated: 1 });
        assert!(sim.is_terminal());
        assert_eq!(sim.stats().completed_rounds, 1);
        assert_eq!(sim.stats().moves, 1);
    }

    #[test]
    fn synchronous_flood_rounds_equal_distance() {
        let (init, g) = flood_path(6);
        let mut sim = Simulator::new(&g, Flood, init, Daemon::Synchronous, 0);
        let out = sim.execution().cap(100).run();
        assert!(out.terminal);
        // Distance from node 0 to node 5 is 5: five rounds, five moves.
        assert_eq!(sim.stats().completed_rounds, 5);
        assert_eq!(sim.stats().moves, 5);
        assert!(sim.states().iter().all(|&b| b));
    }

    #[test]
    fn central_flood_same_rounds_more_steps_possible() {
        let (init, g) = flood_path(6);
        let mut sim = Simulator::new(&g, Flood, init, Daemon::Central, 3);
        let out = sim.execution().cap(100).run();
        assert!(out.terminal);
        // Only one process is ever enabled on a path flood, so the
        // central daemon still needs exactly 5 steps/moves/rounds.
        assert_eq!(sim.stats().moves, 5);
        assert_eq!(sim.stats().completed_rounds, 5);
    }

    #[test]
    fn run_until_predicate_on_initial_config() {
        let (init, g) = flood_path(4);
        let mut sim = Simulator::new(&g, Flood, init, Daemon::Synchronous, 0);
        let out = sim.execution().cap(100).until(|_, states| states[0]).run();
        assert!(out.reached);
        assert_eq!(out.steps_used, 0);
        assert_eq!(out.rounds_at_hit, 0);
    }

    #[test]
    fn run_until_mid_execution() {
        let (init, g) = flood_path(5);
        let mut sim = Simulator::new(&g, Flood, init, Daemon::Synchronous, 0);
        let out = sim.execution().cap(100).until(|_, states| states[2]).run();
        assert!(out.reached);
        assert_eq!(out.steps_used, 2);
        assert_eq!(out.rounds_at_hit, 2);
    }

    #[test]
    fn run_until_respects_step_bound() {
        let (init, g) = flood_path(10);
        let mut sim = Simulator::new(&g, Flood, init, Daemon::Synchronous, 0);
        let out = sim.execution().cap(3).until(|_, states| states[9]).run();
        assert!(!out.reached);
        assert_eq!(out.steps_used, 3);
    }

    #[test]
    fn stats_track_per_process_moves() {
        let (init, g) = flood_path(4);
        let mut sim = Simulator::new(&g, Flood, init, Daemon::Synchronous, 0);
        sim.execution().cap(100).run();
        assert_eq!(sim.stats().moves_per_process, vec![0, 1, 1, 1]);
        assert_eq!(sim.stats().moves_per_rule, vec![3]);
        assert_eq!(sim.stats().max_moves_per_process(), 1);
        assert_eq!(sim.stats().moves_of(NodeId(2), RuleId(0), 1), 1);
    }

    #[test]
    fn per_node_stats_allocate_lazily() {
        let (init, g) = flood_path(3);
        let sim = Simulator::new(&g, Flood, init, Daemon::Synchronous, 0);
        // No step taken yet: nothing allocated.
        assert!(sim.stats().moves_per_process.is_empty());
        assert!(sim.stats().moves_per_process_rule.is_empty());
    }

    #[test]
    fn enabled_nodes_sorted_into_reuses_buffer() {
        let g = generators::path(2);
        let sim = Simulator::new(&g, ZeroBreaker, vec![0, 0], Daemon::LexMin, 1);
        let mut buf = vec![NodeId(9); 7];
        sim.enabled_nodes_sorted_into(&mut buf);
        assert_eq!(buf, vec![NodeId(0), NodeId(1)]);
        assert_eq!(sim.enabled_nodes_sorted(), buf);
    }

    #[test]
    fn enabled_bits_mirror_enabled_list() {
        let (init, g) = flood_path(5);
        let mut sim = Simulator::new(&g, Flood, init, Daemon::Synchronous, 0);
        loop {
            let sorted: Vec<usize> = sim.enabled_bits().iter().collect();
            let mut expected: Vec<usize> = sim
                .enabled_nodes_sorted()
                .iter()
                .map(|u| u.index())
                .collect();
            expected.sort_unstable();
            assert_eq!(sorted, expected);
            if let StepOutcome::Terminal = sim.step() {
                break;
            }
        }
        assert_eq!(sim.enabled_bits().count(), 0);
    }

    #[test]
    fn intra_threads_run_is_byte_identical_to_sequential() {
        let g = generators::random_connected(40, 60, 21);
        let mut init = vec![false; 40];
        init[0] = true;
        let run = |threads: usize| {
            let mut sim = Simulator::new(&g, Flood, init.clone(), Daemon::Synchronous, 7);
            sim.set_intra_threads(threads);
            sim.set_par_threshold(0); // engage kernels even on tiny steps
            sim.execution().cap(10_000).run();
            (sim.stats().clone(), sim.states().to_vec())
        };
        let seq = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), seq, "divergence at {threads} threads");
        }
    }

    #[test]
    fn inject_reactivates() {
        let (init, g) = flood_path(3);
        let mut sim = Simulator::new(&g, Flood, init, Daemon::Synchronous, 0);
        sim.execution().cap(100).run();
        assert!(sim.is_terminal());
        // Faults cannot resurrect a flood (monotone), but injecting a
        // fresh `false` next to a `true` re-enables the rule.
        sim.inject(NodeId(1), false);
        assert!(!sim.is_terminal());
        sim.reset_stats();
        let out = sim.execution().cap(100).run();
        assert!(out.terminal);
        assert_eq!(sim.stats().moves, 1);
    }

    #[test]
    fn terminal_step_is_reported() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, Flood, vec![true, true], Daemon::Central, 0);
        assert!(sim.is_terminal());
        assert_eq!(sim.step(), StepOutcome::Terminal);
        assert_eq!(sim.stats().steps, 0);
    }

    /// The threading contract (see the crate docs): batch layers put
    /// one simulator on each worker thread, so these bounds must never
    /// regress. Compile-time only.
    #[test]
    fn threading_contract_bounds_hold() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Daemon>();
        assert_sync::<Daemon>();
        assert_send::<RunStats>();
        assert_sync::<RunStats>();
        assert_send::<RunOutcome>();
        assert_send::<crate::rng::Xoshiro256StarStar>();
        // Simulator<A> is Send whenever A and A::State are.
        assert_send::<Simulator<'static, Flood>>();
        assert_send::<Simulator<'static, ZeroBreaker>>();
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::random_connected(24, 12, 9);
        let mut init = vec![false; 24];
        init[0] = true;
        let run = |seed: u64| {
            let mut sim = Simulator::new(
                &g,
                Flood,
                init.clone(),
                Daemon::RandomSubset { p: 0.4 },
                seed,
            );
            sim.execution().cap(10_000).run();
            (sim.stats().clone(), sim.states().to_vec())
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn rounds_bounded_by_steps() {
        let g = generators::random_connected(16, 8, 2);
        let mut init = vec![false; 16];
        init[3] = true;
        for daemon in Daemon::all_strategies() {
            let mut sim = Simulator::new(&g, Flood, init.clone(), daemon.clone(), 11);
            let out = sim.execution().cap(10_000).run();
            assert!(out.terminal, "flood must terminate under {daemon:?}");
            assert!(
                sim.stats().completed_rounds <= sim.stats().steps.max(1),
                "rounds cannot exceed steps under {daemon:?}"
            );
            assert!(sim.states().iter().all(|&b| b));
        }
    }

    #[test]
    fn trace_events_cover_the_step_life_cycle() {
        use crate::trace::{TraceEvent, TraceSink};

        #[derive(Default)]
        struct Collect(Vec<TraceEvent>);
        impl TraceSink for Collect {
            fn record(&mut self, e: &TraceEvent) {
                self.0.push(*e);
            }
            fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
                Some(self)
            }
        }

        let (init, g) = flood_path(3);
        let mut sim = Simulator::new(&g, Flood, init, Daemon::Synchronous, 0);
        sim.set_trace_sink(Box::new(Collect::default()));
        let out = sim.execution().cap(100).run();
        assert!(out.terminal);
        let mut sink = sim.take_trace_sink().expect("sink installed");
        let events = &sink
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<Collect>())
            .expect("concrete sink")
            .0;
        // Two steps on a 3-node path flood: per step StepStarted,
        // MovesApplied, EnabledSetSize, RoundCompleted; one RunEnded.
        assert_eq!(
            events[..4],
            [
                TraceEvent::StepStarted {
                    step: 0,
                    enabled: 1
                },
                TraceEvent::MovesApplied { step: 0, moves: 1 },
                TraceEvent::EnabledSetSize {
                    step: 0,
                    enabled: 1
                },
                TraceEvent::RoundCompleted { step: 0, rounds: 1 },
            ]
        );
        assert_eq!(
            events.last(),
            Some(&TraceEvent::RunEnded {
                steps: 2,
                moves: 2,
                rounds: 2,
                reason: TerminationReason::Terminal,
            })
        );
        // No PhaseTimed without opt-in: the default stream is
        // deterministic.
        assert!(events
            .iter()
            .all(|e| !matches!(e, TraceEvent::PhaseTimed { .. })));
        assert_eq!(events.len(), 9);
    }

    #[test]
    fn trace_phase_timing_is_opt_in() {
        use crate::trace::{TraceEvent, TracePhase, TraceSink};

        #[derive(Default)]
        struct Timed(Vec<(u64, TracePhase)>);
        impl TraceSink for Timed {
            fn record(&mut self, e: &TraceEvent) {
                if let TraceEvent::PhaseTimed { step, phase, .. } = e {
                    self.0.push((*step, *phase));
                }
            }
            fn wants_phase_timing(&self) -> bool {
                true
            }
            fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
                Some(self)
            }
        }

        let (init, g) = flood_path(3);
        let mut sim = Simulator::new(&g, Flood, init, Daemon::Synchronous, 0);
        sim.set_trace_sink(Box::new(Timed::default()));
        sim.step();
        let mut sink = sim.take_trace_sink().unwrap();
        let phases = &sink
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<Timed>())
            .unwrap()
            .0;
        assert_eq!(
            phases,
            &[
                (0, TracePhase::Select),
                (0, TracePhase::Apply),
                (0, TracePhase::Guards)
            ]
        );
    }

    #[test]
    fn phase_timing_bills_the_sink_to_no_phase() {
        use crate::trace::{TraceEvent, TraceSink};
        use std::time::Duration;

        /// Opts into timing and busy-waits in every `record`.
        #[derive(Default)]
        struct Slow(Vec<u64>);
        impl TraceSink for Slow {
            fn record(&mut self, e: &TraceEvent) {
                if let TraceEvent::PhaseTimed { nanos, .. } = e {
                    self.0.push(*nanos);
                }
                let t = Instant::now();
                while t.elapsed() < SINK_WAIT {}
            }
            fn wants_phase_timing(&self) -> bool {
                true
            }
            fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
                Some(self)
            }
        }
        const SINK_WAIT: Duration = Duration::from_millis(2);

        let (init, g) = flood_path(3);
        let mut sim = Simulator::new(&g, Flood, init, Daemon::Synchronous, 0);
        sim.set_trace_sink(Box::new(Slow::default()));
        sim.step();
        let mut sink = sim.take_trace_sink().expect("sink installed");
        let nanos = &sink
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<Slow>())
            .expect("concrete sink")
            .0;
        assert_eq!(nanos.len(), 3, "one PhaseTimed per phase");
        for &n in nanos {
            assert!(
                n < SINK_WAIT.as_nanos() as u64,
                "a phase was billed the sink's time: {nanos:?}"
            );
        }
    }

    #[test]
    fn tracing_does_not_change_execution() {
        let g = generators::random_connected(24, 36, 5);
        let mut init = vec![false; 24];
        init[0] = true;
        let run = |traced: bool| {
            let mut sim =
                Simulator::new(&g, Flood, init.clone(), Daemon::RandomSubset { p: 0.5 }, 11);
            if traced {
                sim.set_trace_sink(Box::new(crate::trace::NoTrace));
            }
            sim.execution().cap(10_000).run();
            (sim.stats().clone(), sim.states().to_vec())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn last_activated_reports_moves() {
        let (init, g) = flood_path(3);
        let mut sim = Simulator::new(&g, Flood, init, Daemon::Synchronous, 0);
        sim.step();
        assert_eq!(sim.last_activated(), &[(NodeId(1), RuleId(0))]);
    }
}
