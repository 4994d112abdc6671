//! Phase 3: guard re-evaluation over the refresh set.
//!
//! Guards read the closed neighborhood only (§2.2), so after a step
//! exactly the movers and their neighbors can change enabledness or
//! their legitimacy term. The refresh set is walked in the canonical
//! order (each mover, then its neighbors in adjacency order, first
//! touch wins), and each of its nodes is evaluated and recorded once:
//! [`Algorithm::guard`] returns the node's mask and legitimacy term
//! from one scan of `N[u]`, and [`EnabledSet::update`] installs both
//! into every structure that depends on them. [`refresh_one`] is the
//! one sequential kernel (evaluate, then update). On a sequential
//! step, one walk does it all: each node is passed to it on its first
//! touch. On a parallel step, the walk only collects the list; then
//! [`refresh_par`] evaluates the whole list on the kernel (guards
//! depend only on the already-committed states, never on other
//! guards, so evaluation is order-free) and records them in list
//! order. Both record the nodes in the same order, which keeps the
//! enabled-set index byte-identical to the pre-pipeline engine.

use ssr_graph::{Bitset, Graph, NodeId};

use crate::algorithm::{Algorithm, ConfigView, Guard, RuleId, RuleMask};
use crate::step::par::ParHooks;

const NOT_ENABLED: u32 = u32::MAX;

/// Per-node guard bookkeeping: the mask cache, the enabled set, the
/// wait counters, the round front and the legitimacy terms, kept
/// consistent with each other by [`EnabledSet::update`].
pub(crate) struct EnabledSet {
    /// `masks[u]` = the enabled rules of `u` in the current configuration.
    masks: Vec<RuleMask>,
    /// `legit[u]` = `u`'s legitimacy term in the current configuration.
    legit: Vec<bool>,
    /// Nodes whose legitimacy term fails (`legit[u] == false`).
    illegitimate: usize,
    /// Enabled nodes as an indexed set (swap-remove list + position map).
    list: Vec<NodeId>,
    pos: Vec<u32>,
    /// Enabled nodes as a bitset (mirror of `pos != NOT_ENABLED`).
    bits: Bitset,
    /// Steps each process has been continuously enabled (for `Aging`;
    /// empty unless `track_waits`).
    waits: Vec<u32>,
    track_waits: bool,
    /// Round front: processes enabled at round start, still pending.
    /// Always a subset of the enabled set.
    front: Bitset,
    front_count: usize,
}

impl EnabledSet {
    /// The set for a configuration whose guards are `masks` and `legit`
    /// (entry `u` for node `u`): enabled nodes listed in index order,
    /// wait counters at zero, and a round starting.
    pub fn new(masks: Vec<RuleMask>, legit: Vec<bool>, track_waits: bool) -> Self {
        let n = masks.len();
        let mut set = EnabledSet {
            masks,
            illegitimate: legit.iter().filter(|&&l| !l).count(),
            legit,
            list: Vec::with_capacity(n),
            pos: vec![NOT_ENABLED; n],
            bits: Bitset::new(n),
            waits: if track_waits { vec![0; n] } else { Vec::new() },
            track_waits,
            front: Bitset::new(n),
            front_count: 0,
        };
        for (i, mask) in set.masks.iter().enumerate() {
            if !mask.is_empty() {
                set.pos[i] = set.list.len() as u32;
                set.list.push(NodeId(i as u32));
                set.bits.insert(i);
            }
        }
        set.start_round();
        set
    }

    #[inline]
    pub fn masks(&self) -> &[RuleMask] {
        &self.masks
    }

    /// The enabled nodes, in the set's swap-remove order.
    #[inline]
    pub fn list(&self) -> &[NodeId] {
        &self.list
    }

    #[inline]
    pub fn bits(&self) -> &Bitset {
        &self.bits
    }

    #[inline]
    pub fn waits(&self) -> &[u32] {
        &self.waits
    }

    /// Number of nodes whose legitimacy term fails.
    #[inline]
    pub fn illegitimate(&self) -> usize {
        self.illegitimate
    }

    /// Installs `u`'s freshly evaluated guard: its legitimacy term and
    /// the failing count, the mask cache, the enabled list, positions
    /// and bits, the wait counter on an enabledness change, and the
    /// round front, which a node leaves when it is neutralized
    /// (disabled without moving).
    #[inline(always)]
    pub fn update(&mut self, u: NodeId, guard: Guard) {
        let i = u.index();
        // Branch-free: a node that starts holding was counted as
        // failing, one that stops holding was not.
        let held = std::mem::replace(&mut self.legit[i], guard.legit);
        self.illegitimate = self.illegitimate + usize::from(held) - usize::from(guard.legit);
        let mask = guard.mask;
        let was = !self.masks[i].is_empty();
        let now = !mask.is_empty();
        self.masks[i] = mask;
        match (was, now) {
            (false, true) => {
                self.pos[i] = self.list.len() as u32;
                self.list.push(u);
                self.bits.insert(i);
                if self.track_waits {
                    self.waits[i] = 0;
                }
            }
            (true, false) => {
                let pos = self.pos[i] as usize;
                let last = *self.list.last().expect("list non-empty");
                self.list.swap_remove(pos);
                if pos < self.list.len() {
                    self.pos[last.index()] = pos as u32;
                }
                self.pos[i] = NOT_ENABLED;
                self.bits.remove(i);
                if self.track_waits {
                    self.waits[i] = 0;
                }
                // Front members are enabled, so only a node that is
                // disabled right now can be neutralized.
                self.front_remove(u);
            }
            _ => {}
        }
    }

    /// Takes `u` out of the round front (a no-op when it is not in it).
    #[inline]
    pub fn front_remove(&mut self, u: NodeId) {
        if self.front.contains(u.index()) {
            self.front.remove(u.index());
            self.front_count -= 1;
        }
    }

    /// Counts one more step of waiting for every enabled process once a
    /// step's masks are all recorded; the step's movers start over.
    #[inline]
    pub fn count_waits(&mut self, moves: &[(NodeId, RuleId)]) {
        if !self.track_waits {
            return;
        }
        for &u in &self.list {
            self.waits[u.index()] = self.waits[u.index()].saturating_add(1);
        }
        for &(u, _) in moves {
            self.waits[u.index()] = 0;
        }
    }

    /// Whether every process of the round front has moved or been
    /// neutralized.
    #[inline]
    pub fn round_done(&self) -> bool {
        self.front_count == 0
    }

    /// Begins a new round: the front is the set of enabled processes.
    pub fn start_round(&mut self) {
        self.front.clear();
        self.front_count = self.list.len();
        for &u in &self.list {
            self.front.insert(u.index());
        }
    }
}

/// Collects the deduplicated refresh set of a step into `out`
/// (cleared first): each mover, then its neighbors in adjacency
/// order; `touched_stamp` entries are set to `stamp` as nodes are
/// first seen, and `first_touch` is called on each node right after it
/// is recorded. The sequential guard pass evaluates and records each
/// mask there, so one walk does the whole phase.
#[inline]
pub(crate) fn collect_refresh_targets(
    graph: &Graph,
    moves: &[(NodeId, RuleId)],
    touched_stamp: &mut [u64],
    stamp: u64,
    out: &mut Vec<NodeId>,
    mut first_touch: impl FnMut(NodeId),
) {
    out.clear();
    for &(u, _) in moves {
        // One loop body for the mover and its neighbours, so the
        // inlined `first_touch` (a whole guard evaluation) is emitted
        // once.
        for v in std::iter::once(u).chain(graph.neighbors(u).iter().copied()) {
            if touched_stamp[v.index()] != stamp {
                touched_stamp[v.index()] = stamp;
                out.push(v);
                first_touch(v);
            }
        }
    }
}

/// Evaluates `u`'s guard against `view` and records it in `set`: the
/// one sequential guard kernel. The one-walk refresh and `inject` both
/// run it.
#[inline(always)]
pub(crate) fn refresh_one<A: Algorithm>(
    algo: &A,
    view: &ConfigView<'_, A::State>,
    set: &mut EnabledSet,
    u: NodeId,
) {
    set.update(u, algo.guard(u, view));
}

/// The parallel guard pass: computes the guards of every node of
/// `nodes` on the installed kernel, then records them in `set` in list
/// order.
pub(crate) fn refresh_par<A: Algorithm>(
    hooks: ParHooks<A>,
    graph: &Graph,
    algo: &A,
    states: &[A::State],
    nodes: &[NodeId],
    set: &mut EnabledSet,
) {
    let guards = (hooks.guards)(hooks.threads, graph, algo, states, nodes);
    for (&u, guard) in nodes.iter().zip(guards) {
        set.update(u, guard);
    }
}
