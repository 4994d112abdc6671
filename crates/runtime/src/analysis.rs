//! Footprint instrumentation for the `ssr-analyze` soundness audit.
//!
//! The staged step pipeline and its parallel kernels rest on three
//! obligations every registered family must meet (DESIGN.md §11):
//!
//! 1. **Locality** — guards and actions read nothing beyond the closed
//!    neighborhood of the process being evaluated (§2.2 of the paper).
//!    The incremental guard re-evaluation dirty-set is sound only
//!    under this assumption.
//! 2. **Non-adjacent commutativity** — moves at processes at distance
//!    ≥ 2 have disjoint read/write footprints, the argument behind the
//!    deterministic intra-run parallel kernels.
//! 3. **RNG discipline** — every random draw of a step happens in the
//!    sequential select phase; the apply and guard kernels are
//!    draw-free at any thread count.
//!
//! This module supplies the instrumentation seams and generic drivers:
//! [`TrackedView`] records the exact node read set of every
//! [`Algorithm::guard`]/`apply` evaluation — a guard's reads include
//! those of its legitimacy term, which the simulator's incremental stop
//! condition relies on being local too — [`collect_footprints`] drives an
//! algorithm exhaustively over a small-model universe grown from seed
//! configurations, and [`audit_runs`] replays simulator runs checking
//! the dynamic obligations (fired-while-disabled, foreign writes,
//! out-of-phase draws via [`Simulator::last_step_phase_draws`]).
//! Families expose the drivers through the object-safe
//! [`AnalyzeFamily`] trait, reached via `Family::analysis()` and
//! implemented once for every [`TypedFamily`](crate::family::TypedFamily)
//! over its seed set; the `ssr-analyze` crate aggregates the results,
//! runs the cross-graph hygiene lints, and renders `ANALYSIS.json`.

use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::fmt;

use ssr_graph::{Graph, NodeId};

use crate::algorithm::{Algorithm, RuleMask, StateView};
use crate::daemon::Daemon;
use crate::simulator::{Simulator, StepOutcome};

// ---------------------------------------------------------------------
// TrackedView
// ---------------------------------------------------------------------

/// A [`StateView`] that records which nodes' states are read.
///
/// Reads are observable at node granularity — a process state is the
/// model's atomic register (§2.2), so "which register" is exactly the
/// footprint the locality and commutativity obligations speak about.
/// Topology queries through [`StateView::graph`] are not recorded:
/// the graph is static shared knowledge, not mutable state.
pub struct TrackedView<'a, S> {
    graph: &'a Graph,
    states: &'a [S],
    reads: RefCell<Vec<NodeId>>,
}

impl<'a, S> TrackedView<'a, S> {
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
        TrackedView {
            graph,
            states,
            reads: RefCell::new(Vec::new()),
        }
    }

    /// Clears the recorded read set (call before each evaluation).
    pub fn reset(&self) {
        self.reads.borrow_mut().clear();
    }

    /// The nodes read since the last [`TrackedView::reset`], sorted
    /// and deduplicated.
    pub fn take_reads(&self) -> Vec<NodeId> {
        let mut reads = std::mem::take(&mut *self.reads.borrow_mut());
        reads.sort_unstable_by_key(|u| u.index());
        reads.dedup();
        reads
    }
}

impl<S> StateView<S> for TrackedView<'_, S> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    fn state(&self, v: NodeId) -> &S {
        self.reads.borrow_mut().push(v);
        &self.states[v.index()]
    }
}

// ---------------------------------------------------------------------
// Options, findings, statistics
// ---------------------------------------------------------------------

/// Budget knobs for the footprint collection and the dynamic audit.
#[derive(Clone, Debug)]
pub struct AnalyzeOptions {
    /// Cap on distinct configurations explored per graph (the universe
    /// is the single-move closure of the seed set; `truncated` is set
    /// when the cap bites).
    pub max_configs: usize,
    /// Arbitrary seed-set samples requested from the family (on top of
    /// its structured workloads).
    pub samples: usize,
    /// Scenario seed the family derives its sampled configurations
    /// (and the audit's run seeds) from.
    pub scenario_seed: u64,
    /// Initial configurations replayed per daemon in [`audit_runs`].
    pub audit_runs: usize,
    /// Step cap per audited run.
    pub audit_steps: u64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            max_configs: 2000,
            samples: 6,
            scenario_seed: 0xA11A,
            audit_runs: 3,
            audit_steps: 60,
        }
    }
}

/// How bad a finding is. Errors void certification; warnings do not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// A violated soundness obligation (or an unanalyzable family).
    Error,
    /// A rule-table smell worth a look, not a soundness issue.
    Warning,
}

/// The closed set of defects the analysis reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A guard (its mask or its legitimacy term) read a node outside
    /// the closed neighborhood.
    NonLocalGuard,
    /// A rule action read a node outside the closed neighborhood.
    NonLocalAction,
    /// Co-enabled processes at distance ≥ 2 with overlapping
    /// footprints: one's evaluation read the other's register.
    NonCommutative,
    /// A rule never enabled anywhere in the explored universe.
    DeadRule,
    /// A rule enabled only ever alongside a lower-index one — it can
    /// never fire under the default lowest-index resolution.
    ShadowedRule,
    /// A rule whose action never changed the state when applied.
    NoOpRule,
    /// Two rules that are always co-enabled with identical outcomes.
    OverlappingRules,
    /// A simulator step activated a rule that was not enabled in the
    /// pre-step configuration.
    DisabledRuleFired,
    /// A step changed the state of a process that did not move.
    ForeignWrite,
    /// The apply or guards phase consumed RNG draws.
    OutOfPhaseDraw,
    /// The family offers no `analysis()` hook, so its obligations
    /// cannot be certified.
    NotAnalyzable,
}

impl FindingKind {
    /// Stable machine-readable code (the `ANALYSIS.json` vocabulary).
    pub fn code(self) -> &'static str {
        match self {
            FindingKind::NonLocalGuard => "non-local-guard",
            FindingKind::NonLocalAction => "non-local-action",
            FindingKind::NonCommutative => "non-commutative",
            FindingKind::DeadRule => "dead-rule",
            FindingKind::ShadowedRule => "shadowed-rule",
            FindingKind::NoOpRule => "no-op-rule",
            FindingKind::OverlappingRules => "overlapping-rules",
            FindingKind::DisabledRuleFired => "disabled-rule-fired",
            FindingKind::ForeignWrite => "foreign-write",
            FindingKind::OutOfPhaseDraw => "out-of-phase-draw",
            FindingKind::NotAnalyzable => "not-analyzable",
        }
    }

    /// Whether the finding voids certification.
    pub fn severity(self) -> Severity {
        match self {
            FindingKind::DeadRule | FindingKind::NoOpRule | FindingKind::OverlappingRules => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One reported defect, with enough context to act on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// What went wrong.
    pub kind: FindingKind,
    /// The rule involved, when attributable to one.
    pub rule: Option<String>,
    /// The suite graph the defect was observed on (`None` for
    /// cross-graph aggregates like dead rules).
    pub graph: Option<String>,
    /// Human-readable specifics: nodes, distances, counts.
    pub detail: String,
}

impl Finding {
    /// Shorthand constructor.
    pub fn new(
        kind: FindingKind,
        rule: Option<String>,
        graph: Option<String>,
        detail: impl Into<String>,
    ) -> Self {
        Finding {
            kind,
            rule,
            graph,
            detail: detail.into(),
        }
    }
}

/// Per-rule evaluation statistics over one graph's explored universe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleStats {
    /// The rule's name (`Algorithm::rule_name`).
    pub name: String,
    /// Times the rule appeared in an enabled mask.
    pub enabled: u64,
    /// Times it was the lowest-index enabled rule — what the default
    /// resolution would fire.
    pub fired_first: u64,
    /// Times its action was applied (once per enabled observation).
    pub applies: u64,
    /// Applies that changed the process state.
    pub changed: u64,
    /// Largest read distance observed in guard evaluations that
    /// enabled this rule (≤ 1 ⟺ local).
    pub guard_read_dist_max: u32,
    /// Largest read distance observed in the rule's actions.
    pub action_read_dist_max: u32,
    /// Largest guard read-set size observed.
    pub guard_reads_max: usize,
    /// Largest action read-set size observed.
    pub action_reads_max: usize,
}

impl RuleStats {
    fn new(name: String) -> Self {
        RuleStats {
            name,
            enabled: 0,
            fired_first: 0,
            applies: 0,
            changed: 0,
            guard_read_dist_max: 0,
            action_read_dist_max: 0,
            guard_reads_max: 0,
            action_reads_max: 0,
        }
    }

    /// Folds another graph's statistics for the same rule into this
    /// one (the cross-graph aggregation hygiene lints run on).
    pub fn merge(&mut self, other: &RuleStats) {
        debug_assert_eq!(self.name, other.name);
        self.enabled += other.enabled;
        self.fired_first += other.fired_first;
        self.applies += other.applies;
        self.changed += other.changed;
        self.guard_read_dist_max = self.guard_read_dist_max.max(other.guard_read_dist_max);
        self.action_read_dist_max = self.action_read_dist_max.max(other.action_read_dist_max);
        self.guard_reads_max = self.guard_reads_max.max(other.guard_reads_max);
        self.action_reads_max = self.action_reads_max.max(other.action_reads_max);
    }
}

/// Co-enablement statistics for one rule pair on one graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverlapStat {
    /// Lower rule index of the pair.
    pub a: usize,
    /// Higher rule index of the pair.
    pub b: usize,
    /// Masks in which both rules were enabled.
    pub together: u64,
    /// Co-enabled observations whose two actions produced identical
    /// next states.
    pub identical: u64,
}

/// The footprint analysis of one family on one graph.
#[derive(Clone, Debug)]
pub struct GraphAnalysis {
    /// Suite graph name (`path3`, `ring4`, …).
    pub graph: String,
    /// Node count of the graph.
    pub nodes: usize,
    /// Distinct configurations explored.
    pub configs: usize,
    /// Whether [`AnalyzeOptions::max_configs`] cut the closure short.
    pub truncated: bool,
    /// Per-rule statistics, indexed by rule id.
    pub rules: Vec<RuleStats>,
    /// Co-enablement statistics for every observed rule pair.
    pub overlaps: Vec<OverlapStat>,
    /// Locality/commutativity violations observed on this graph.
    pub findings: Vec<Finding>,
}

/// The dynamic (simulator-replay) audit result for one family.
#[derive(Clone, Debug, Default)]
pub struct RngAudit {
    /// Runs replayed.
    pub runs: u64,
    /// Steps stepped across all runs.
    pub steps: u64,
    /// Draws attributed to the select phase.
    pub select_draws: u64,
    /// Draws attributed to the apply phase (must be 0).
    pub apply_draws: u64,
    /// Draws attributed to the guards phase (must be 0).
    pub guards_draws: u64,
    /// Discipline violations (out-of-phase draws, disabled rules
    /// fired, foreign writes).
    pub findings: Vec<Finding>,
}

impl RngAudit {
    /// Folds another audit (e.g. a different suite graph) into this one.
    pub fn merge(&mut self, other: RngAudit) {
        self.runs += other.runs;
        self.steps += other.steps;
        self.select_draws += other.select_draws;
        self.apply_draws += other.apply_draws;
        self.guards_draws += other.guards_draws;
        self.findings.extend(other.findings);
    }
}

// ---------------------------------------------------------------------
// The erased analysis hook
// ---------------------------------------------------------------------

/// Soundness analysis surfaced through the family boundary.
///
/// The blanket impl over [`TypedFamily`](crate::family::TypedFamily)
/// builds the family's canonical seed set of initial configurations
/// (the same γ_init + structured workloads + sampled draws its explore
/// hook uses) and delegates to the generic
/// [`collect_footprints`]/[`audit_runs`] drivers, so every family is
/// measured by identical machinery.
pub trait AnalyzeFamily: Send + Sync {
    /// Exhaustive footprint collection over the single-move closure of
    /// the family's seed set on `graph`.
    fn footprints(&self, graph: &Graph, graph_name: &str, opts: &AnalyzeOptions) -> GraphAnalysis;

    /// Dynamic replay audit on `graph`: RNG discipline, fired-while-
    /// disabled, foreign writes.
    fn audit(&self, graph: &Graph, opts: &AnalyzeOptions) -> RngAudit;
}

// ---------------------------------------------------------------------
// Generic drivers
// ---------------------------------------------------------------------

/// The rule-name table of `algo`, in rule-id order.
fn rule_names<A: Algorithm>(algo: &A) -> Vec<String> {
    (0..algo.rule_count())
        .map(|r| {
            algo.rule_name(crate::algorithm::RuleId(r as u8))
                .to_string()
        })
        .collect()
}

/// All-pairs BFS distances, flattened row-major (`u32::MAX` when
/// unreachable). Small-model graphs only — O(n²) memory.
pub fn all_distances(graph: &Graph) -> Vec<u32> {
    let n = graph.node_count();
    let mut dist = vec![u32::MAX; n * n];
    let mut queue = VecDeque::new();
    for s in 0..n {
        let row = &mut dist[s * n..(s + 1) * n];
        row[s] = 0;
        queue.clear();
        queue.push_back(NodeId(s as u32));
        while let Some(u) = queue.pop_front() {
            let du = row[u.index()];
            for &v in graph.neighbors(u) {
                if row[v.index()] == u32::MAX {
                    row[v.index()] = du + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    dist
}

/// Exhaustively evaluates `algo` over the single-move closure of
/// `seeds` on `graph`, recording per-rule read footprints and checking
/// the locality and commutativity obligations on every configuration.
///
/// The universe is the set of configurations reachable from the seed
/// set by any sequence of single moves (the central-daemon closure),
/// capped at [`AnalyzeOptions::max_configs`]; every synchronous or
/// distributed step is a composition of such moves over the *same*
/// pre-step view, so checking each single move against each reachable
/// pre-step configuration covers them all.
pub fn collect_footprints<A: Algorithm>(
    graph: &Graph,
    graph_name: &str,
    algo: &A,
    seeds: &[Vec<A::State>],
    opts: &AnalyzeOptions,
) -> GraphAnalysis {
    let n = graph.node_count();
    let dist = all_distances(graph);
    let d = |u: NodeId, v: NodeId| dist[u.index() * n + v.index()];

    let mut stats: Vec<RuleStats> = rule_names(algo).into_iter().map(RuleStats::new).collect();
    let mut overlaps: Vec<OverlapStat> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    // Deduplicated findings: one exemplar per (kind, node, rule) keeps
    // the report actionable instead of repeating one defect per config.
    let mut finding_keys: HashSet<(FindingKind, u32, u32)> = HashSet::new();

    let mut seen: HashSet<String> = HashSet::new();
    let mut frontier: VecDeque<Vec<A::State>> = VecDeque::new();
    for seed in seeds {
        assert_eq!(seed.len(), n, "seed configuration size must match graph");
        if seen.insert(format!("{seed:?}")) {
            frontier.push_back(seed.clone());
        }
    }
    let mut truncated = false;
    let mut configs = 0usize;

    let mut masks = vec![RuleMask::NONE; n];
    let mut guard_reads: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let emit = |findings: &mut Vec<Finding>,
                keys: &mut HashSet<(FindingKind, u32, u32)>,
                kind: FindingKind,
                node: NodeId,
                rule: Option<(u32, String)>,
                detail: String| {
        let rule_idx = rule.as_ref().map_or(u32::MAX, |(i, _)| *i);
        if keys.insert((kind, node.0, rule_idx)) {
            findings.push(Finding::new(
                kind,
                rule.map(|(_, name)| name),
                Some(graph_name.to_string()),
                detail,
            ));
        }
    };

    while let Some(config) = frontier.pop_front() {
        configs += 1;
        let view = TrackedView::new(graph, &config);

        // Pass A: guard evaluation + read recording for every node,
        // through `Algorithm::guard`, so the legitimacy term's reads
        // fall under the same locality gate as the mask's.
        for u in 0..n {
            let u = NodeId(u as u32);
            view.reset();
            masks[u.index()] = algo.guard(u, &view).mask;
            guard_reads[u.index()] = view.take_reads();
        }

        // Pass B: locality + commutativity of the guard reads.
        for u in 0..n {
            let u = NodeId(u as u32);
            let reads = std::mem::take(&mut guard_reads[u.index()]);
            let mut dist_max = 0u32;
            for &v in &reads {
                let dv = d(u, v);
                dist_max = dist_max.max(dv);
                if dv > 1 {
                    emit(
                        &mut findings,
                        &mut finding_keys,
                        FindingKind::NonLocalGuard,
                        u,
                        None,
                        format!(
                            "guard of node {} reads node {} at distance {dv} \
                             (closed neighborhood only, §2.2)",
                            u.0, v.0
                        ),
                    );
                    if !masks[v.index()].is_empty() {
                        emit(
                            &mut findings,
                            &mut finding_keys,
                            FindingKind::NonCommutative,
                            u,
                            None,
                            format!(
                                "nodes {} and {} are co-enabled at distance {dv} \
                                 but {}'s guard reads {}'s register — their moves \
                                 do not commute",
                                u.0, v.0, u.0, v.0
                            ),
                        );
                    }
                }
            }
            for r in masks[u.index()] {
                let s = &mut stats[r.index()];
                s.enabled += 1;
                s.guard_read_dist_max = s.guard_read_dist_max.max(dist_max);
                s.guard_reads_max = s.guard_reads_max.max(reads.len());
            }
            guard_reads[u.index()] = reads;
        }

        // Pass C: apply every enabled rule against the frozen view;
        // action footprints, overlap outcomes, and successor configs.
        for u in 0..n {
            let u = NodeId(u as u32);
            let mask = masks[u.index()];
            if mask.is_empty() {
                continue;
            }
            let first = mask.first().expect("non-empty mask");
            let mut nexts: Vec<(u32, A::State)> = Vec::with_capacity(mask.count() as usize);
            for r in mask {
                view.reset();
                let next = algo.apply(u, &view, r);
                let reads = view.take_reads();
                let s = &mut stats[r.index()];
                s.applies += 1;
                if r == first {
                    s.fired_first += 1;
                }
                let changed = next != config[u.index()];
                if changed {
                    s.changed += 1;
                }
                s.action_reads_max = s.action_reads_max.max(reads.len());
                for &v in &reads {
                    let dv = d(u, v);
                    s.action_read_dist_max = s.action_read_dist_max.max(dv);
                    if dv > 1 {
                        emit(
                            &mut findings,
                            &mut finding_keys,
                            FindingKind::NonLocalAction,
                            u,
                            Some((r.index() as u32, s.name.clone())),
                            format!(
                                "action {} at node {} reads node {} at distance {dv}",
                                s.name, u.0, v.0
                            ),
                        );
                        if !masks[v.index()].is_empty() {
                            emit(
                                &mut findings,
                                &mut finding_keys,
                                FindingKind::NonCommutative,
                                u,
                                Some((r.index() as u32, s.name.clone())),
                                format!(
                                    "action {} at node {} reads co-enabled node {} \
                                     at distance {dv}",
                                    s.name, u.0, v.0
                                ),
                            );
                        }
                    }
                }
                if changed {
                    let mut succ = config.clone();
                    succ[u.index()] = next.clone();
                    if seen.len() < opts.max_configs {
                        if seen.insert(format!("{succ:?}")) {
                            frontier.push_back(succ);
                        }
                    } else {
                        truncated = true;
                    }
                }
                nexts.push((r.index() as u32, next));
            }
            for i in 0..nexts.len() {
                for j in i + 1..nexts.len() {
                    let (a, b) = (nexts[i].0 as usize, nexts[j].0 as usize);
                    let identical = nexts[i].1 == nexts[j].1;
                    match overlaps.iter_mut().find(|o| o.a == a && o.b == b) {
                        Some(o) => {
                            o.together += 1;
                            o.identical += u64::from(identical);
                        }
                        None => overlaps.push(OverlapStat {
                            a,
                            b,
                            together: 1,
                            identical: u64::from(identical),
                        }),
                    }
                }
            }
        }
    }

    overlaps.sort_unstable_by_key(|o| (o.a, o.b));
    GraphAnalysis {
        graph: graph_name.to_string(),
        nodes: n,
        configs,
        truncated,
        rules: stats,
        overlaps,
        findings,
    }
}

/// Replays simulator runs from `inits` under the synchronous, central,
/// and random-subset daemons (random rule choice on, so every RNG code
/// path is exercised), checking after each step that activated rules
/// were enabled before it, that only movers changed state, and that
/// the apply/guards phases drew nothing.
pub fn audit_runs<A: Algorithm + Clone>(
    graph: &Graph,
    algo: &A,
    inits: &[Vec<A::State>],
    opts: &AnalyzeOptions,
) -> RngAudit {
    let n = graph.node_count();
    let daemons = [
        Daemon::Synchronous,
        Daemon::Central,
        Daemon::RandomSubset { p: 0.5 },
    ];
    let mut audit = RngAudit::default();
    for (run_idx, init) in inits.iter().take(opts.audit_runs).enumerate() {
        for (d_idx, daemon) in daemons.iter().enumerate() {
            let seed = opts
                .scenario_seed
                .wrapping_add((run_idx * daemons.len() + d_idx) as u64);
            let mut sim = Simulator::new(graph, algo.clone(), init.clone(), daemon.clone(), seed);
            sim.set_random_rule_choice(true);
            audit.runs += 1;
            let mut pre_masks = vec![RuleMask::NONE; n];
            let mut pre_states: Vec<A::State> = Vec::with_capacity(n);
            for step in 0..opts.audit_steps {
                for (u, mask) in pre_masks.iter_mut().enumerate() {
                    *mask = sim.enabled_mask_of(NodeId(u as u32));
                }
                pre_states.clear();
                pre_states.extend_from_slice(sim.states());
                match sim.step() {
                    StepOutcome::Terminal => break,
                    StepOutcome::Progress { .. } => {}
                }
                audit.steps += 1;
                let [sel, app, grd] = sim.last_step_phase_draws();
                audit.select_draws += sel;
                audit.apply_draws += app;
                audit.guards_draws += grd;
                if app > 0 || grd > 0 {
                    audit.findings.push(Finding::new(
                        FindingKind::OutOfPhaseDraw,
                        None,
                        None,
                        format!(
                            "step {step} under {daemon:?} drew outside select \
                             (apply={app}, guards={grd})"
                        ),
                    ));
                }
                let mut movers = vec![false; n];
                for &(u, r) in sim.last_activated() {
                    movers[u.index()] = true;
                    if !pre_masks[u.index()].contains(r) {
                        audit.findings.push(Finding::new(
                            FindingKind::DisabledRuleFired,
                            Some(algo.rule_name(r).to_string()),
                            None,
                            format!(
                                "step {step} under {daemon:?} fired rule {} at node {} \
                                 which was not enabled before the step",
                                algo.rule_name(r),
                                u.0
                            ),
                        ));
                    }
                }
                for (v, moved) in movers.iter().enumerate() {
                    if !moved && sim.states()[v] != pre_states[v] {
                        audit.findings.push(Finding::new(
                            FindingKind::ForeignWrite,
                            None,
                            None,
                            format!(
                                "step {step} under {daemon:?} changed the state of \
                                 node {v}, which did not move"
                            ),
                        ));
                    }
                }
            }
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::RuleId;
    use ssr_graph::generators;

    /// Flood of `true` along edges — local, terminating.
    #[derive(Clone)]
    struct Flood;

    impl Algorithm for Flood {
        type State = bool;
        fn rule_count(&self) -> usize {
            2
        }
        fn rule_name(&self, r: RuleId) -> &'static str {
            ["catch", "never"][r.index()]
        }
        fn enabled_mask<V: StateView<bool>>(&self, u: NodeId, view: &V) -> RuleMask {
            let infected = view.graph().neighbors(u).iter().any(|&v| *view.state(v));
            RuleMask::from_bool(!*view.state(u) && infected)
        }
        fn apply<V: StateView<bool>>(&self, _: NodeId, _: &V, _: RuleId) -> bool {
            true
        }
    }

    /// A deliberately broken guard: reads the far end of the path.
    #[derive(Clone)]
    struct FarPeek;

    impl Algorithm for FarPeek {
        type State = bool;
        fn rule_count(&self) -> usize {
            1
        }
        fn rule_name(&self, _: RuleId) -> &'static str {
            "peek"
        }
        fn enabled_mask<V: StateView<bool>>(&self, u: NodeId, view: &V) -> RuleMask {
            let far = NodeId((view.graph().node_count() - 1) as u32);
            RuleMask::from_bool(u.0 == 0 && !*view.state(u) && *view.state(far))
        }
        fn apply<V: StateView<bool>>(&self, _: NodeId, _: &V, _: RuleId) -> bool {
            true
        }
    }

    #[test]
    fn tracked_view_records_sorted_dedup_reads() {
        let g = generators::path(4);
        let states = vec![0u8, 1, 2, 3];
        let view = TrackedView::new(&g, &states);
        let _ = view.state(NodeId(2));
        let _ = view.state(NodeId(0));
        let _ = view.state(NodeId(2));
        assert_eq!(view.take_reads(), vec![NodeId(0), NodeId(2)]);
        assert!(view.take_reads().is_empty(), "take drains the buffer");
    }

    #[test]
    fn all_distances_on_path() {
        let g = generators::path(4);
        let d = all_distances(&g);
        assert_eq!(d[3], 3, "path ends are n-1 apart");
        assert_eq!(d[4 + 2], 1);
        assert_eq!(d[2 * 4 + 2], 0);
    }

    #[test]
    fn local_flood_is_clean_and_counts_rules() {
        let g = generators::path(4);
        let mut seed = vec![false; 4];
        seed[0] = true;
        let report = collect_footprints(&g, "path4", &Flood, &[seed], &AnalyzeOptions::default());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(!report.truncated);
        assert_eq!(report.configs, 4, "flood on a path has a linear closure");
        assert!(report.rules[0].enabled > 0);
        assert_eq!(report.rules[0].enabled, report.rules[0].fired_first);
        assert_eq!(report.rules[0].applies, report.rules[0].changed);
        assert!(report.rules[0].guard_read_dist_max <= 1);
        assert_eq!(report.rules[1].enabled, 0, "rule `never` is dead");
    }

    #[test]
    fn far_peek_flagged_non_local_and_non_commutative() {
        let g = generators::path(4);
        // Node 3 infected: node 0's guard reads it at distance 3.
        let mut seed = vec![false; 4];
        seed[3] = true;
        let report = collect_footprints(&g, "path4", &FarPeek, &[seed], &AnalyzeOptions::default());
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::NonLocalGuard && f.detail.contains("distance 3")));
        // Node 3 is never enabled here, so no commutativity overlap.
        assert!(!report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::NonCommutative));
    }

    #[test]
    fn audit_flood_clean_with_all_draws_in_select() {
        let g = generators::ring(5);
        let mut init = vec![false; 5];
        init[0] = true;
        let audit = audit_runs(&g, &Flood, &[init], &AnalyzeOptions::default());
        assert!(audit.findings.is_empty(), "{:?}", audit.findings);
        assert!(audit.steps > 0);
        assert!(audit.select_draws > 0, "random daemons draw in select");
        assert_eq!(audit.apply_draws, 0);
        assert_eq!(audit.guards_draws, 0);
    }

    #[test]
    fn finding_severity_partition() {
        for kind in [
            FindingKind::NonLocalGuard,
            FindingKind::NonLocalAction,
            FindingKind::NonCommutative,
            FindingKind::ShadowedRule,
            FindingKind::DisabledRuleFired,
            FindingKind::ForeignWrite,
            FindingKind::OutOfPhaseDraw,
            FindingKind::NotAnalyzable,
        ] {
            assert_eq!(kind.severity(), Severity::Error, "{kind}");
        }
        for kind in [
            FindingKind::DeadRule,
            FindingKind::NoOpRule,
            FindingKind::OverlappingRules,
        ] {
            assert_eq!(kind.severity(), Severity::Warning, "{kind}");
        }
    }
}
