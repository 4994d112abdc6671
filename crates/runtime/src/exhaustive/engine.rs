//! The exhaustive exploration engine: a layered breadth-first walk of
//! the full configuration graph under *every* daemon choice, with
//! hashed-state deduplication, a sharded parallel frontier, and the
//! exact worst-case analyses on top (longest-path DPs and
//! counterexample extraction).
//!
//! # What is exhaustive here
//!
//! From a finite set of initial configurations, the explorer visits
//! every configuration reachable under the selected [`DaemonClass`]:
//! for the distributed unfair daemon that is **all non-empty subsets**
//! of the enabled processes at every step (the other classes are
//! restrictions — singletons for central, the full set for
//! synchronous). Rule choice within a process is the simulator's
//! default (lowest enabled index); for the SDR compositions this is no
//! restriction at all, since at most one rule is ever enabled per
//! process (Lemma 5). Initial configurations are *not* enumerated
//! exhaustively — the per-node domains are far too large — so every
//! verdict is "for all schedules from these initial configurations".
//!
//! # Analyses
//!
//! * **Convergence**: every reachable configuration stabilizes — no
//!   illegitimate terminal configuration (deadlock) and no cycle
//!   within the illegitimate region (livelock); violations come back
//!   as concrete counterexample configurations.
//! * **Closure**: every successor of a legitimate configuration is
//!   legitimate (checked over the whole reachable legitimate region).
//! * **Exact worst cases**: once the illegitimate region is known to
//!   be acyclic, the worst-case *moves* and *steps* to legitimacy are
//!   longest-path DPs over it, and the worst-case *rounds* is a
//!   longest-path DP over the product of configurations with the
//!   round front (the set of processes enabled at round start that
//!   have neither moved nor been neutralized — exactly the §2.4
//!   neutralization bookkeeping the simulator performs).
//! * **Witnesses**: the maximizing schedules are extracted as
//!   [`Witness`] traces that drive back through the ordinary
//!   [`Execution`](crate::Execution) engine via
//!   [`Daemon::Script`](crate::Daemon), step for step.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::pool::par_map;
use crate::{Algorithm, ConfigView};
use ssr_graph::{Graph, NodeId};

use super::encode::{encode_config, ExploreState};
use super::witness::Witness;

/// Which daemon's choices the explorer enumerates at each step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DaemonClass {
    /// All non-empty subsets of the enabled processes — the
    /// distributed unfair daemon, the paper's weakest (hence
    /// worst-case) assumption. The other classes are restrictions of
    /// this one.
    Distributed,
    /// Exactly one enabled process per step (central daemons).
    Central,
    /// All enabled processes at once (the synchronous daemon).
    Synchronous,
}

impl DaemonClass {
    /// Short label for tables and records.
    pub fn label(&self) -> &'static str {
        match self {
            DaemonClass::Distributed => "distributed",
            DaemonClass::Central => "central",
            DaemonClass::Synchronous => "synchronous",
        }
    }

    /// The activation choices over `e` enabled processes, as bitmasks
    /// over positions `0..e`, in canonical (ascending) order.
    fn position_masks(&self, e: usize) -> Vec<u32> {
        match self {
            DaemonClass::Distributed => (1..(1u32 << e)).collect(),
            DaemonClass::Central => (0..e).map(|i| 1u32 << i).collect(),
            DaemonClass::Synchronous => vec![(1u32 << e) - 1],
        }
    }
}

/// Exploration limits and parallelism knobs.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Which daemon's choices to enumerate.
    pub daemon: DaemonClass,
    /// Worker threads for frontier expansion (results are
    /// byte-identical for any value; see the determinism note on
    /// [`explore`]).
    pub threads: usize,
    /// Abort with [`ExploreError::StateSpaceExceeded`] past this many
    /// distinct states.
    pub max_states: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            daemon: DaemonClass::Distributed,
            threads: 1,
            max_states: 1 << 20,
        }
    }
}

/// Why an exploration could not run (or stop) within its limits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExploreError {
    /// The graph has more nodes than the explorer supports.
    TooManyNodes {
        /// Node count of the offending graph.
        n: usize,
        /// The supported maximum.
        max: usize,
    },
    /// A configuration had too many enabled processes to enumerate all
    /// daemon subsets.
    TooManyEnabled {
        /// Enabled-process count of the offending configuration.
        enabled: usize,
        /// The supported maximum.
        max: usize,
    },
    /// The reachable state space outgrew [`ExploreOptions::max_states`].
    StateSpaceExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// No initial configuration was supplied.
    EmptyInits,
    /// An initial configuration's length differs from the node count.
    ConfigSizeMismatch {
        /// Provided length.
        got: usize,
        /// Expected node count.
        expected: usize,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::TooManyNodes { n, max } => {
                write!(
                    f,
                    "graph has {n} nodes; the explorer supports at most {max}"
                )
            }
            ExploreError::TooManyEnabled { enabled, max } => write!(
                f,
                "{enabled} processes enabled at once; subset enumeration is capped at {max}"
            ),
            ExploreError::StateSpaceExceeded { limit } => {
                write!(f, "reachable state space exceeds the {limit}-state limit")
            }
            ExploreError::EmptyInits => write!(f, "at least one initial configuration is required"),
            ExploreError::ConfigSizeMismatch { got, expected } => write!(
                f,
                "initial configuration has {got} states, expected {expected}"
            ),
        }
    }
}

impl Error for ExploreError {}

/// Exact worst-case measures over all explored schedules, maximized
/// over the supplied initial configurations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorstCase {
    /// Worst total moves until the first legitimate configuration.
    pub moves: u64,
    /// Worst steps (configuration transitions) until legitimacy.
    pub steps: u64,
    /// Worst stabilization rounds (§2.4 neutralization-based, partial
    /// round at the hit counting as one — the simulator's
    /// `rounds_at_hit` semantics, computed exactly on the product of
    /// configurations with round fronts).
    pub rounds: u64,
}

/// A closure counterexample: a legitimate configuration with an
/// illegitimate successor.
#[derive(Clone, Debug, PartialEq)]
pub struct ClosureViolation<S> {
    /// The legitimate configuration.
    pub from: Vec<S>,
    /// The processes whose activation leaves the legitimate set.
    pub activated: Vec<NodeId>,
    /// The illegitimate successor.
    pub to: Vec<S>,
}

/// Result of an exhaustive exploration.
#[derive(Clone, Debug, PartialEq)]
pub struct Exploration<S> {
    /// Distinct (canonicalized) configurations reached.
    pub states: usize,
    /// Transitions generated (one per daemon choice per expanded
    /// configuration).
    pub transitions: usize,
    /// How many of the states are legitimate.
    pub legit_states: usize,
    /// BFS depth (number of frontier layers expanded).
    pub depth: usize,
    /// Illegitimate terminal configurations (deadlocks) found.
    pub deadlocks: usize,
    /// One deadlock configuration, when any exists.
    pub deadlock_example: Option<Vec<S>>,
    /// A cycle within the illegitimate region (livelock), when one
    /// exists: the configurations along the cycle.
    pub cycle: Option<Vec<Vec<S>>>,
    /// Closure violations found (legitimate → illegitimate edges).
    pub closure_violations: usize,
    /// One closure violation, when any exists.
    pub closure_example: Option<ClosureViolation<S>>,
    /// Exact worst case over every explored schedule; `None` when the
    /// illegitimate region has a deadlock or cycle (no finite worst
    /// case exists).
    pub worst: Option<WorstCase>,
    /// A schedule achieving `worst.moves`, replayable through the
    /// simulator. `None` when `worst` is `None` or every initial
    /// configuration is already legitimate.
    pub witness_moves: Option<Witness>,
    /// A schedule achieving `worst.rounds` (same caveats).
    pub witness_rounds: Option<Witness>,
}

impl<S> Exploration<S> {
    /// Whether the exploration proves self-stabilization over the
    /// supplied initial configurations: convergence (no deadlock, no
    /// livelock) and closure both hold.
    pub fn verified(&self) -> bool {
        self.deadlocks == 0 && self.cycle.is_none() && self.closure_violations == 0
    }
}

/// The interned state space built during exploration.
struct Space<S> {
    index: HashMap<Box<[u64]>, u32>,
    configs: Vec<Vec<S>>,
    /// Bitmask (by node index) of enabled processes per state.
    enabled: Vec<u32>,
    legit: Vec<bool>,
    /// Outgoing transitions `(activated node mask, successor)`, stored
    /// for illegitimate states only (legitimate states are expanded
    /// for the closure check but treated as absorbing by the DPs).
    trans: Vec<Vec<(u32, u32)>>,
}

impl<S> Space<S> {
    fn new() -> Self {
        Space {
            index: HashMap::new(),
            configs: Vec::new(),
            enabled: Vec::new(),
            legit: Vec::new(),
            trans: Vec::new(),
        }
    }
}

fn nodes_of_mask(mask: u32) -> Vec<NodeId> {
    crate::algorithm::iter_ones(mask).map(NodeId).collect()
}

/// Largest graph the explorer accepts (masks are `u32`; practical
/// state spaces stop far earlier, around 8–10 nodes).
pub const MAX_NODES: usize = 16;

/// Most simultaneously enabled processes the distributed class will
/// enumerate subsets for (2¹² − 1 successors per configuration).
pub const MAX_ENABLED: usize = 12;

/// Exhaustively explores every schedule of `algo` on `graph` from the
/// configurations in `inits`, classifying states with the `legit`
/// predicate (the paper's legitimate/normal configurations).
///
/// Returns the reached state space's size, convergence and closure
/// verdicts with counterexamples, the exact worst-case
/// moves/steps/rounds to legitimacy, and replayable worst-case
/// witness schedules. See the crate-level documentation for precise
/// semantics.
///
/// # Determinism
///
/// The result is **byte-identical for any `threads` value**: workers
/// only expand states (a pure function of the state), and interning,
/// transition recording, and all analyses happen in a deterministic
/// sequential merge order (frontier position, then canonical subset
/// order).
///
/// # Errors
///
/// [`ExploreError`] on oversized graphs, too many simultaneously
/// enabled processes, a state space past
/// [`ExploreOptions::max_states`], or invalid `inits`.
///
/// # Examples
///
/// ```
/// use ssr_graph::generators;
/// use ssr_runtime::exhaustive::{explore, ExploreOptions};
/// use ssr_runtime::{Algorithm, NodeId, RuleId, RuleMask, StateView};
///
/// /// Toy flood: a node with a `true` neighbor becomes `true`.
/// struct Flood;
/// impl Algorithm for Flood {
///     type State = bool;
///     fn rule_count(&self) -> usize { 1 }
///     fn rule_name(&self, _: RuleId) -> &'static str { "flood" }
///     fn enabled_mask<V: StateView<bool>>(&self, u: NodeId, view: &V) -> RuleMask {
///         let infected = view.graph().neighbors(u).iter().any(|&v| *view.state(v));
///         RuleMask::from_bool(!*view.state(u) && infected)
///     }
///     fn apply<V: StateView<bool>>(&self, _: NodeId, _: &V, _: RuleId) -> bool { true }
/// }
///
/// let g = generators::path(4);
/// let mut init = vec![false; 4];
/// init[0] = true;
/// let all_true = |_: &_, st: &[bool]| st.iter().all(|&b| b);
/// let ex = explore(&g, &Flood, &[init], all_true, &ExploreOptions::default()).unwrap();
/// assert!(ex.verified());
/// // Only one process is ever enabled on the line, so every daemon
/// // agrees: exactly n-1 moves, steps, and rounds.
/// assert_eq!(ex.worst.unwrap().moves, 3);
/// ```
pub fn explore<A, P>(
    graph: &Graph,
    algo: &A,
    inits: &[Vec<A::State>],
    legit: P,
    opts: &ExploreOptions,
) -> Result<Exploration<A::State>, ExploreError>
where
    A: Algorithm + Sync,
    A::State: ExploreState + Send + Sync,
    P: Fn(&Graph, &[A::State]) -> bool,
{
    let n = graph.node_count();
    if n > MAX_NODES {
        return Err(ExploreError::TooManyNodes { n, max: MAX_NODES });
    }
    if inits.is_empty() {
        return Err(ExploreError::EmptyInits);
    }
    for init in inits {
        if init.len() != n {
            return Err(ExploreError::ConfigSizeMismatch {
                got: init.len(),
                expected: n,
            });
        }
    }

    let mut space: Space<A::State> = Space::new();
    let mut scratch = Vec::new();
    let mut transitions = 0usize;
    let mut closure_violations = 0usize;
    let mut closure_example = None;

    // Seed the frontier; remember which state each init interned to.
    let mut init_ids = Vec::with_capacity(inits.len());
    let mut layer: Vec<u32> = Vec::new();
    for init in inits {
        let key = encode_config(init, &mut scratch);
        let (id, is_new) = intern(&mut space, graph, algo, &legit, key, || init.clone());
        init_ids.push(id);
        if is_new {
            layer.push(id);
        }
    }

    // Layered BFS: parallel expansion, deterministic sequential merge.
    let mut depth = 0usize;
    while !layer.is_empty() {
        depth += 1;
        let proposals = expand_layer(graph, algo, opts, &space, &layer)?;
        let mut next = Vec::new();
        for (pos, proposal) in proposals.into_iter().enumerate() {
            let from = layer[pos];
            let from_legit = space.legit[from as usize];
            for (mask, key, config) in proposal {
                transitions += 1;
                let (id, is_new) = intern(&mut space, graph, algo, &legit, key, || config);
                if is_new {
                    next.push(id);
                }
                if from_legit {
                    if !space.legit[id as usize] {
                        closure_violations += 1;
                        if closure_example.is_none() {
                            closure_example = Some(ClosureViolation {
                                from: space.configs[from as usize].clone(),
                                activated: nodes_of_mask(mask),
                                to: space.configs[id as usize].clone(),
                            });
                        }
                    }
                } else {
                    space.trans[from as usize].push((mask, id));
                }
            }
            if space.configs.len() > opts.max_states {
                return Err(ExploreError::StateSpaceExceeded {
                    limit: opts.max_states,
                });
            }
        }
        layer = next;
    }

    Ok(analyze(
        space,
        init_ids,
        transitions,
        depth,
        closure_violations,
        closure_example,
    ))
}

/// Interns `key`, lazily materializing the configuration and its
/// metadata on first sight. Returns `(id, is_new)`.
fn intern<A, P>(
    space: &mut Space<A::State>,
    graph: &Graph,
    algo: &A,
    legit: &P,
    key: Box<[u64]>,
    config: impl FnOnce() -> Vec<A::State>,
) -> (u32, bool)
where
    A: Algorithm,
    P: Fn(&Graph, &[A::State]) -> bool,
{
    use std::collections::hash_map::Entry;
    match space.index.entry(key) {
        Entry::Occupied(e) => (*e.get(), false),
        Entry::Vacant(e) => {
            let id = space.configs.len() as u32;
            let config = config();
            let view = ConfigView::new(graph, &config);
            let mut bits = 0u32;
            for u in graph.nodes() {
                if !algo.enabled_mask(u, &view).is_empty() {
                    bits |= 1 << u.0;
                }
            }
            let lg = legit(graph, &config);
            space.configs.push(config);
            space.enabled.push(bits);
            space.legit.push(lg);
            space.trans.push(Vec::new());
            e.insert(id);
            (id, true)
        }
    }
}

type Proposal<S> = Vec<(u32, Box<[u64]>, Vec<S>)>;

/// Expands every state of `layer` into its successor proposals —
/// `(activated node mask, canonical key, configuration)` per daemon
/// choice — in parallel, returning them in layer order.
fn expand_layer<A>(
    graph: &Graph,
    algo: &A,
    opts: &ExploreOptions,
    space: &Space<A::State>,
    layer: &[u32],
) -> Result<Vec<Proposal<A::State>>, ExploreError>
where
    A: Algorithm + Sync,
    A::State: ExploreState + Send + Sync,
{
    par_map(
        layer.len(),
        opts.threads,
        1,
        |_| Vec::new(),
        |scratch, i| expand_state(graph, algo, opts, space, layer[i], scratch),
    )
    .0
    .into_iter()
    .collect()
}

/// Computes all successor proposals of one state: one per daemon
/// choice, in canonical subset order, each built by overwriting the
/// activated processes with their (pre-computed, composite-atomic)
/// next states.
fn expand_state<A>(
    graph: &Graph,
    algo: &A,
    opts: &ExploreOptions,
    space: &Space<A::State>,
    id: u32,
    scratch: &mut Vec<u64>,
) -> Result<Proposal<A::State>, ExploreError>
where
    A: Algorithm,
    A::State: ExploreState,
{
    let bits = space.enabled[id as usize];
    if bits == 0 {
        return Ok(Vec::new());
    }
    let config = &space.configs[id as usize];
    let view = ConfigView::new(graph, config);
    let enabled_nodes = nodes_of_mask(bits);
    let e = enabled_nodes.len();
    if e > MAX_ENABLED && opts.daemon == DaemonClass::Distributed {
        return Err(ExploreError::TooManyEnabled {
            enabled: e,
            max: MAX_ENABLED,
        });
    }
    // Composite atomicity: every next state reads the *old*
    // configuration, so one application per enabled process covers
    // every subset.
    let nexts: Vec<A::State> = enabled_nodes
        .iter()
        .map(|&u| {
            let rule = algo
                .enabled_mask(u, &view)
                .first()
                .expect("enabled bit implies an enabled rule");
            algo.apply(u, &view, rule)
        })
        .collect();
    let masks = opts.daemon.position_masks(e);
    let mut out = Vec::with_capacity(masks.len());
    for pm in masks {
        let mut cfg = config.clone();
        let mut node_mask = 0u32;
        for i in crate::algorithm::iter_ones(pm) {
            let u = enabled_nodes[i as usize];
            cfg[u.index()] = nexts[i as usize].clone();
            node_mask |= 1 << u.0;
        }
        let key = encode_config(&cfg, scratch);
        out.push((node_mask, key, cfg));
    }
    Ok(out)
}

/// Post-exploration analyses: convergence, longest-path DPs, and
/// witness extraction.
fn analyze<S: Clone>(
    space: Space<S>,
    init_ids: Vec<u32>,
    transitions: usize,
    depth: usize,
    closure_violations: usize,
    closure_example: Option<ClosureViolation<S>>,
) -> Exploration<S> {
    let nstates = space.configs.len();
    let legit_states = space.legit.iter().filter(|&&l| l).count();

    // Deadlocks: illegitimate terminal configurations.
    let mut deadlocks = 0usize;
    let mut deadlock_example = None;
    for s in 0..nstates {
        if !space.legit[s] && space.enabled[s] == 0 {
            deadlocks += 1;
            if deadlock_example.is_none() {
                deadlock_example = Some(space.configs[s].clone());
            }
        }
    }

    // Reverse-topological order of the illegitimate region (Kahn on
    // reversed edges): a state is ready once every illegitimate
    // successor has been processed.
    let mut remaining: Vec<u32> = vec![0; nstates];
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); nstates];
    let mut illegit_count = 0usize;
    for (s, slot) in remaining.iter_mut().enumerate() {
        if space.legit[s] {
            continue;
        }
        illegit_count += 1;
        for &(_, t) in &space.trans[s] {
            if !space.legit[t as usize] {
                *slot += 1;
                preds[t as usize].push(s as u32);
            }
        }
    }
    let mut order: Vec<u32> = Vec::with_capacity(illegit_count);
    let mut queue: Vec<u32> = (0..nstates as u32)
        .filter(|&s| !space.legit[s as usize] && remaining[s as usize] == 0)
        .collect();
    while let Some(s) = queue.pop() {
        order.push(s);
        for &p in &preds[s as usize] {
            remaining[p as usize] -= 1;
            if remaining[p as usize] == 0 {
                queue.push(p);
            }
        }
    }

    let cycle = if order.len() < illegit_count {
        // A cycle of unprocessed states exists; walk unprocessed
        // successors until a state repeats.
        let start = (0..nstates)
            .find(|&s| !space.legit[s] && remaining[s] > 0)
            .expect("unprocessed state exists") as u32;
        let mut seen: HashMap<u32, usize> = HashMap::new();
        let mut path = Vec::new();
        let mut cur = start;
        let cycle_ids = loop {
            if let Some(&i) = seen.get(&cur) {
                break path[i..].to_vec();
            }
            seen.insert(cur, path.len());
            path.push(cur);
            cur = space.trans[cur as usize]
                .iter()
                .find(|&&(_, t)| !space.legit[t as usize] && remaining[t as usize] > 0)
                .expect("a state stuck in Kahn has an unprocessed successor")
                .1;
        };
        Some(
            cycle_ids
                .iter()
                .map(|&s| space.configs[s as usize].clone())
                .collect(),
        )
    } else {
        None
    };

    let converges = deadlocks == 0 && cycle.is_none();
    let (worst, witness_moves, witness_rounds) = if converges {
        let (worst, wm, wr) = worst_cases(&space, &init_ids, &order);
        (Some(worst), wm, wr)
    } else {
        (None, None, None)
    };

    Exploration {
        states: nstates,
        transitions,
        legit_states,
        depth,
        deadlocks,
        deadlock_example,
        cycle,
        closure_violations,
        closure_example,
        worst,
        witness_moves,
        witness_rounds,
    }
}

/// The longest-path DPs (moves and steps over the illegitimate DAG,
/// rounds over its product with round fronts) plus witness schedules.
///
/// Requires convergence: `order` must cover the whole illegitimate
/// region in reverse-topological order, and no deadlocks exist.
fn worst_cases<S: Clone>(
    space: &Space<S>,
    init_ids: &[u32],
    order: &[u32],
) -> (WorstCase, Option<Witness>, Option<Witness>) {
    let nstates = space.configs.len();
    let mut moves = vec![0u64; nstates];
    let mut steps = vec![0u64; nstates];
    let mut choice: Vec<(u32, u32)> = vec![(0, 0); nstates];
    for &s in order {
        let s = s as usize;
        let mut best_m = 0u64;
        let mut best_s = 0u64;
        let mut best_edge = None;
        for &(mask, t) in &space.trans[s] {
            let tl = space.legit[t as usize];
            let m = mask.count_ones() as u64 + if tl { 0 } else { moves[t as usize] };
            let st = 1 + if tl { 0 } else { steps[t as usize] };
            if best_edge.is_none() || m > best_m {
                best_m = m;
                best_edge = Some((mask, t));
            }
            best_s = best_s.max(st);
        }
        moves[s] = best_m;
        steps[s] = best_s;
        choice[s] = best_edge.expect("illegitimate states are never terminal here");
    }

    // Rounds: memoized longest path over (state, round front).
    let mut memo: HashMap<u64, (u64, usize)> = HashMap::new();
    let roots: Vec<u64> = init_ids
        .iter()
        .filter(|&&i| !space.legit[i as usize])
        .map(|&i| pack(i, space.enabled[i as usize]))
        .collect();
    rounds_dp(space, &roots, &mut memo);

    // Maximize each measure over the initial configurations.
    let mut worst = WorstCase::default();
    let mut best_moves_init: Option<usize> = None;
    let mut best_rounds_init: Option<usize> = None;
    for (idx, &id) in init_ids.iter().enumerate() {
        if space.legit[id as usize] {
            continue;
        }
        let m = moves[id as usize];
        if best_moves_init.is_none() || m > worst.moves {
            worst.moves = m;
            best_moves_init = Some(idx);
        }
        worst.steps = worst.steps.max(steps[id as usize]);
        let r = memo[&pack(id, space.enabled[id as usize])].0;
        if best_rounds_init.is_none() || r > worst.rounds {
            worst.rounds = r;
            best_rounds_init = Some(idx);
        }
    }

    let witness_moves = best_moves_init.map(|idx| {
        let start = init_ids[idx];
        let mut schedule = Vec::new();
        let mut total_moves = 0u64;
        let mut front = space.enabled[start as usize];
        let mut completed = 0u64;
        let mut just_completed = false;
        let mut id = start;
        while !space.legit[id as usize] {
            let (mask, t) = choice[id as usize];
            schedule.push(nodes_of_mask(mask));
            total_moves += mask.count_ones() as u64;
            let f2 = front & !mask & space.enabled[t as usize];
            if f2 == 0 {
                completed += 1;
                just_completed = true;
                front = space.enabled[t as usize];
            } else {
                front = f2;
                just_completed = false;
            }
            id = t;
        }
        let steps = schedule.len() as u64;
        let rounds = completed + u64::from(!just_completed);
        Witness {
            init: idx,
            schedule,
            moves: total_moves,
            steps,
            rounds,
        }
    });

    let witness_rounds = best_rounds_init.map(|idx| {
        let start = init_ids[idx];
        let mut schedule = Vec::new();
        let mut total_moves = 0u64;
        let rounds = memo[&pack(start, space.enabled[start as usize])].0;
        let mut key = pack(start, space.enabled[start as usize]);
        loop {
            let (s, f) = unpack(key);
            let (_, edge) = memo[&key];
            let (mask, t) = space.trans[s as usize][edge];
            schedule.push(nodes_of_mask(mask));
            total_moves += mask.count_ones() as u64;
            if space.legit[t as usize] {
                break;
            }
            let f2 = f & !mask & space.enabled[t as usize];
            key = if f2 == 0 {
                pack(t, space.enabled[t as usize])
            } else {
                pack(t, f2)
            };
        }
        let steps = schedule.len() as u64;
        Witness {
            init: idx,
            schedule,
            moves: total_moves,
            steps,
            rounds,
        }
    });

    (worst, witness_moves, witness_rounds)
}

#[inline]
fn pack(state: u32, front: u32) -> u64 {
    ((state as u64) << 32) | front as u64
}

#[inline]
fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Fills `memo` with `(worst additional rounds, argmax edge)` for
/// every `(state, front)` pair reachable from `roots`, by iterative
/// memoized DFS (the product graph is acyclic because the
/// illegitimate configuration graph is).
///
/// Semantics per edge `(mask, t)` from `(s, F)`:
/// `F' = F \ activated \ neutralized`; an empty `F'` completes the
/// round (cost 1, front resets to `enabled(t)`). Hitting a legitimate
/// state costs exactly 1 — the completing round if `F'` is empty, the
/// partial round otherwise (`rounds_at_hit` counts it as one).
fn rounds_dp<S>(space: &Space<S>, roots: &[u64], memo: &mut HashMap<u64, (u64, usize)>) {
    struct Frame {
        key: u64,
        edge: usize,
        best_val: u64,
        best_edge: Option<usize>,
    }
    let mut stack: Vec<Frame> = Vec::new();
    for &root in roots {
        if memo.contains_key(&root) {
            continue;
        }
        stack.push(Frame {
            key: root,
            edge: 0,
            best_val: 0,
            best_edge: None,
        });
        while !stack.is_empty() {
            let top = stack.len() - 1;
            let key = stack[top].key;
            let (s, f) = unpack(key);
            let edges = &space.trans[s as usize];
            let mut edge = stack[top].edge;
            let mut best_val = stack[top].best_val;
            let mut best_edge = stack[top].best_edge;
            let mut pushed = false;
            while edge < edges.len() {
                let (mask, t) = edges[edge];
                let f2 = f & !mask & space.enabled[t as usize];
                let val = if space.legit[t as usize] {
                    Some(1)
                } else {
                    let ckey = if f2 == 0 {
                        pack(t, space.enabled[t as usize])
                    } else {
                        pack(t, f2)
                    };
                    match memo.get(&ckey) {
                        Some(&(v, _)) => Some(if f2 == 0 { 1 + v } else { v }),
                        None => {
                            stack[top].edge = edge;
                            stack[top].best_val = best_val;
                            stack[top].best_edge = best_edge;
                            stack.push(Frame {
                                key: ckey,
                                edge: 0,
                                best_val: 0,
                                best_edge: None,
                            });
                            pushed = true;
                            break;
                        }
                    }
                };
                if let Some(v) = val {
                    if best_edge.is_none() || v > best_val {
                        best_val = v;
                        best_edge = Some(edge);
                    }
                    edge += 1;
                }
            }
            if pushed {
                continue;
            }
            memo.insert(
                key,
                (
                    best_val,
                    best_edge.expect("illegitimate states are never terminal here"),
                ),
            );
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::testutil::{all_true, Flood};
    use crate::{RuleId, RuleMask, StateView};

    #[test]
    fn flood_path_exact_worst_case() {
        // Flood on a path from one end: only one process is ever
        // enabled, so every daemon class agrees — exactly n-1 steps,
        // n-1 moves, n-1 rounds, and n distinct states on the line.
        let g = ssr_graph::generators::path(4);
        let mut init = vec![false; 4];
        init[0] = true;
        let ex = explore(&g, &Flood, &[init], all_true, &ExploreOptions::default()).unwrap();
        assert!(ex.verified());
        assert_eq!(ex.states, 4);
        assert_eq!(
            ex.worst,
            Some(WorstCase {
                moves: 3,
                steps: 3,
                rounds: 3
            })
        );
        let w = ex.witness_moves.unwrap();
        assert_eq!(w.steps, 3);
        assert_eq!(w.schedule.len(), 3);
    }

    #[test]
    fn flood_star_distributed_vs_synchronous() {
        // Flood from the hub of a star: leaves are independent. The
        // synchronous daemon finishes in one step; the distributed
        // daemon can spread the 3 leaf moves over 3 steps but the
        // round closes only when the last front member moves.
        let g = ssr_graph::generators::star(4);
        let mut init = vec![false; 4];
        init[0] = true;
        let sync = explore(
            &g,
            &Flood,
            &[init.clone()],
            all_true,
            &ExploreOptions {
                daemon: DaemonClass::Synchronous,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            sync.worst,
            Some(WorstCase {
                moves: 3,
                steps: 1,
                rounds: 1
            })
        );
        let dist = explore(&g, &Flood, &[init], all_true, &ExploreOptions::default()).unwrap();
        // 3 leaves on/off (minus all-off impossible after a step).
        assert_eq!(
            dist.worst,
            Some(WorstCase {
                moves: 3,
                steps: 3,
                rounds: 1
            })
        );
        assert!(dist.states > sync.states);
    }

    #[test]
    fn already_legitimate_init_has_zero_worst_case() {
        let g = ssr_graph::generators::path(3);
        let ex = explore(
            &g,
            &Flood,
            &[vec![true; 3]],
            all_true,
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(ex.verified());
        assert_eq!(ex.worst, Some(WorstCase::default()));
        assert!(ex.witness_moves.is_none());
    }

    /// A process with `false` and no `true` neighbor is stuck: from
    /// all-`false` the system deadlocks illegitimately.
    #[test]
    fn deadlock_is_detected_with_counterexample() {
        let g = ssr_graph::generators::path(3);
        let ex = explore(
            &g,
            &Flood,
            &[vec![false; 3]],
            all_true,
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(!ex.verified());
        assert_eq!(ex.deadlocks, 1);
        assert_eq!(ex.deadlock_example, Some(vec![false; 3]));
        assert!(ex.worst.is_none());
    }

    /// Blinker: every process is always enabled and flips its bit.
    /// With "all false" as the legitimate set, the central daemon can
    /// cycle forever — a livelock the explorer must expose.
    struct Blinker;

    impl Algorithm for Blinker {
        type State = bool;
        fn rule_count(&self) -> usize {
            1
        }
        fn rule_name(&self, _: RuleId) -> &'static str {
            "flip"
        }
        fn enabled_mask<V: StateView<bool>>(&self, _: NodeId, _: &V) -> RuleMask {
            RuleMask::from_bool(true)
        }
        fn apply<V: StateView<bool>>(&self, u: NodeId, view: &V, _: RuleId) -> bool {
            !*view.state(u)
        }
    }

    #[test]
    fn livelock_cycle_is_detected() {
        let g = ssr_graph::generators::path(2);
        let ex = explore(
            &g,
            &Blinker,
            &[vec![true, true]],
            |_, st| st.iter().all(|&b| !b),
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(!ex.verified());
        let cycle = ex.cycle.expect("blinker livelocks");
        assert!(!cycle.is_empty());
        assert!(ex.worst.is_none());
    }

    /// All-false is legitimate but not closed under Blinker (every
    /// process stays enabled and flips back out).
    #[test]
    fn closure_violation_is_detected() {
        let g = ssr_graph::generators::path(2);
        let ex = explore(
            &g,
            &Blinker,
            &[vec![false, false]],
            |_, st| st.iter().all(|&b| !b),
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(ex.closure_violations > 0);
        let v = ex.closure_example.unwrap();
        assert_eq!(v.from, vec![false, false]);
        assert!(v.to.contains(&true));
    }

    #[test]
    fn limits_are_enforced() {
        let g = ssr_graph::generators::path(3);
        let err = explore(&g, &Flood, &[], all_true, &ExploreOptions::default()).unwrap_err();
        assert_eq!(err, ExploreError::EmptyInits);
        let err = explore(
            &g,
            &Flood,
            &[vec![true; 2]],
            all_true,
            &ExploreOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ExploreError::ConfigSizeMismatch { .. }));
        let mut init = vec![false; 3];
        init[0] = true;
        let err = explore(
            &g,
            &Flood,
            &[init],
            all_true,
            &ExploreOptions {
                max_states: 1,
                ..ExploreOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, ExploreError::StateSpaceExceeded { limit: 1 });
        let big = ssr_graph::generators::path(MAX_NODES + 1);
        let err = explore(
            &big,
            &Flood,
            &[vec![true; MAX_NODES + 1]],
            all_true,
            &ExploreOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ExploreError::TooManyNodes { .. }));
    }

    #[test]
    fn parallel_exploration_is_byte_identical() {
        let g = ssr_graph::generators::star(5);
        let mut init = vec![false; 5];
        init[0] = true;
        let seq = explore(
            &g,
            &Flood,
            &[init.clone()],
            all_true,
            &ExploreOptions::default(),
        )
        .unwrap();
        for threads in [2, 4, 7] {
            let par = explore(
                &g,
                &Flood,
                &[init.clone()],
                all_true,
                &ExploreOptions {
                    threads,
                    ..ExploreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }
}
