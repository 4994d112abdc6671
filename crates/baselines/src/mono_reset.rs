//! A mono-initiator (rooted) reset baseline in the spirit of Arora &
//! Gouda \[4\], for the multi- vs single-initiator comparison experiment.
//!
//! A fixed root owns every reset: inconsistency reports travel up a
//! pre-computed BFS tree (`Req` phase), the root answers with a
//! broadcast reset wave (`RB` down the tree, resetting the input
//! algorithm's state), feedback returns (`RF` up the tree), and a
//! completion wave re-opens the system (`Idle` down the tree).
//!
//! **Substitution note (DESIGN.md):** the original \[4\] also
//! self-stabilizes the spanning tree and handles arbitrary corruption
//! of the wave variables; we pin the tree and measure recovery from
//! *input-state* corruption only. This isolates exactly the property
//! the comparison is about — a single coordinator's round-trip latency
//! versus SDR's concurrent, locally-initiated resets — without
//! re-implementing a second full reset stack.

use std::fmt;

use ssr_core::ResetInput;
use ssr_graph::{Graph, NodeId};
use ssr_runtime::{Algorithm, Guard, RuleId, RuleMask, StateView};

/// Wave phase of a process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Phase {
    /// Not involved in a reset.
    #[default]
    Idle,
    /// Requesting a reset (report travelling toward the root).
    Req,
    /// Reset broadcast received (input state has been reinitialized).
    RB,
    /// Feedback sent (subtree fully reset).
    RF,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Idle => write!(f, "I"),
            Phase::Req => write!(f, "Q"),
            Phase::RB => write!(f, "B"),
            Phase::RF => write!(f, "F"),
        }
    }
}

/// Product state of the mono-initiator composition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MonoState<S> {
    /// Wave phase.
    pub phase: Phase,
    /// Input algorithm state.
    pub inner: S,
}

impl<S: fmt::Display> fmt::Display for MonoState<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}|{}⟩", self.phase, self.inner)
    }
}

/// `rule_Req`: forward an inconsistency report toward the root.
pub const RULE_REQ: RuleId = RuleId(0);
/// `rule_Start`: the root opens a reset wave.
pub const RULE_START: RuleId = RuleId(1);
/// `rule_RBcast`: receive the broadcast, reset the input state.
pub const RULE_RBCAST: RuleId = RuleId(2);
/// `rule_Fb`: feedback once the whole subtree has reset.
pub const RULE_FB: RuleId = RuleId(3);
/// `rule_Done`: completion wave re-opening the system.
pub const RULE_DONE: RuleId = RuleId(4);

const MONO_RULES: usize = 5;

/// Mono-initiator reset composed over an input algorithm `I`
/// (baseline for experiments comparing against `I ∘ SDR`).
#[derive(Clone, Debug)]
pub struct MonoReset<I> {
    input: I,
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
}

impl<I: ResetInput> MonoReset<I> {
    /// Builds the composition over a BFS tree of `graph` rooted at
    /// `root`.
    pub fn new(graph: &Graph, input: I, root: NodeId) -> Self {
        let n = graph.node_count();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[root.index()] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    parent[v.index()] = Some(u);
                    children[u.index()].push(v);
                    queue.push_back(v);
                }
            }
        }
        MonoReset {
            input,
            root,
            parent,
            children,
        }
    }

    /// The input algorithm.
    pub fn input(&self) -> &I {
        &self.input
    }

    /// The reset coordinator.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// All processes idle with consistent input states.
    pub fn is_normal_config(&self, graph: &Graph, states: &[MonoState<I::State>]) -> bool {
        let view = ssr_runtime::ConfigView::new(graph, states);
        graph.nodes().all(|u| self.is_normal_at(u, &view))
    }

    /// Whether `u` is idle with a correct input state — the node-local
    /// term of [`MonoReset::is_normal_config`]; reads `N[u]` only. The
    /// spec of the legitimacy term [`Algorithm::guard`] returns.
    pub fn is_normal_at<V: StateView<MonoState<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        view.state(u).phase == Phase::Idle && self.p_icorrect_at(u, view)
    }

    /// The designated initial configuration: idle, input at `γ_init`.
    pub fn initial_config(&self, graph: &Graph) -> Vec<MonoState<I::State>> {
        graph
            .nodes()
            .map(|u| MonoState {
                phase: Phase::Idle,
                inner: self.input.initial_state(u),
            })
            .collect()
    }

    fn p_icorrect_at<V: StateView<MonoState<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        let iv = ssr_runtime::MapView::new(view, inner_of);
        self.input.p_icorrect(u, &iv)
    }

    fn phase<V: StateView<MonoState<I::State>>>(&self, view: &V, v: NodeId) -> Phase {
        view.state(v).phase
    }

    fn child_requesting<V: StateView<MonoState<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        self.children[u.index()]
            .iter()
            .any(|&c| self.phase(view, c) == Phase::Req)
    }

    fn all_children_fb<V: StateView<MonoState<I::State>>>(&self, u: NodeId, view: &V) -> bool {
        self.children[u.index()]
            .iter()
            .all(|&c| self.phase(view, c) == Phase::RF)
    }
}

fn inner_of<S>(s: &MonoState<S>) -> &S {
    &s.inner
}

impl<I: ResetInput> Algorithm for MonoReset<I> {
    type State = MonoState<I::State>;

    fn rule_count(&self) -> usize {
        MONO_RULES + self.input.rule_count()
    }

    fn rule_name(&self, rule: RuleId) -> &'static str {
        match rule {
            RULE_REQ => "rule_Req",
            RULE_START => "rule_Start",
            RULE_RBCAST => "rule_RBcast",
            RULE_FB => "rule_Fb",
            RULE_DONE => "rule_Done",
            r => self.input.rule_name(RuleId(r.0 - MONO_RULES as u8)),
        }
    }

    fn enabled_mask<V: StateView<Self::State>>(&self, u: NodeId, view: &V) -> RuleMask {
        self.guard(u, view).mask
    }

    /// The wave rules, the gated input rules, and the legitimacy term
    /// `idle ∧ P_ICorrect(u)` ([`MonoReset::is_normal_at`]).
    /// `P_ICorrect(u)` matters only to an idle process (a requesting
    /// root triggers a wave regardless), so it is evaluated once, and
    /// only there.
    fn guard<V: StateView<Self::State>>(&self, u: NodeId, view: &V) -> Guard {
        let phase = self.phase(view, u);
        let is_root = u == self.root;
        let idle = phase == Phase::Idle;
        let icorrect = idle && self.p_icorrect_at(u, view);
        // An idle process with an inconsistency to report, its own or
        // a child's.
        let report = idle && (!icorrect || self.child_requesting(u, view));
        let parent_phase = self.parent[u.index()].map(|p| self.phase(view, p));

        let mut mask = RuleMask::NONE
            .with_if(
                RULE_REQ,
                !is_root && report && parent_phase != Some(Phase::RB),
            )
            .with_if(RULE_START, is_root && (report || phase == Phase::Req))
            .with_if(
                RULE_RBCAST,
                !is_root
                    && matches!(phase, Phase::Idle | Phase::Req)
                    && parent_phase == Some(Phase::RB),
            )
            .with_if(RULE_FB, phase == Phase::RB && self.all_children_fb(u, view))
            .with_if(
                RULE_DONE,
                phase == Phase::RF && (is_root || parent_phase == Some(Phase::Idle)),
            );

        // Input rules run only when the closed neighborhood is idle and
        // the local state is consistent (mirror of SDR's gate).
        if mask.is_empty()
            && icorrect
            && view
                .graph()
                .closed_neighborhood(u)
                .all(|v| self.phase(view, v) == Phase::Idle)
        {
            let iv = ssr_runtime::MapView::new(view, inner_of);
            mask = RuleMask(self.input.enabled_mask(u, &iv).0 << MONO_RULES);
        }
        Guard {
            mask,
            legit: icorrect,
        }
    }

    fn apply<V: StateView<Self::State>>(&self, u: NodeId, view: &V, rule: RuleId) -> Self::State {
        let s = view.state(u);
        match rule {
            RULE_REQ => MonoState {
                phase: Phase::Req,
                inner: s.inner.clone(),
            },
            RULE_START | RULE_RBCAST => MonoState {
                phase: Phase::RB,
                inner: self.input.reset_state(u),
            },
            RULE_FB => MonoState {
                phase: Phase::RF,
                inner: s.inner.clone(),
            },
            RULE_DONE => MonoState {
                phase: Phase::Idle,
                inner: s.inner.clone(),
            },
            r => {
                let iv = ssr_runtime::MapView::new(view, inner_of);
                MonoState {
                    phase: s.phase,
                    inner: self.input.apply(u, &iv, RuleId(r.0 - MONO_RULES as u8)),
                }
            }
        }
    }
}

impl ssr_runtime::exhaustive::ExploreState for Phase {
    #[inline]
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(match self {
            Phase::Idle => 0,
            Phase::Req => 1,
            Phase::RB => 2,
            Phase::RF => 3,
        });
    }
}

impl<S: ssr_runtime::exhaustive::ExploreState> ssr_runtime::exhaustive::ExploreState
    for MonoState<S>
{
    #[inline]
    fn encode(&self, out: &mut Vec<u64>) {
        self.phase.encode(out);
        self.inner.encode(out);
    }
}

#[cfg(test)]
mod encode_tests {
    use super::*;
    use ssr_runtime::exhaustive::ExploreState;

    fn words<S: ExploreState>(s: &S) -> Vec<u64> {
        let mut out = Vec::new();
        s.encode(&mut out);
        out
    }

    #[test]
    fn mono_state_encodes_phase_and_inner() {
        let a = MonoState {
            phase: Phase::Idle,
            inner: 2u64,
        };
        let b = MonoState {
            phase: Phase::RB,
            inner: 2u64,
        };
        assert_ne!(words(&a), words(&b));
        let c = MonoState {
            phase: Phase::Idle,
            inner: 3u64,
        };
        assert_ne!(words(&a), words(&c));
        // All four phases are distinct words.
        let mut seen: Vec<Vec<u64>> = Vec::new();
        for phase in [Phase::Idle, Phase::Req, Phase::RB, Phase::RF] {
            let w = words(&phase);
            assert!(!seen.contains(&w), "{phase:?} collides");
            seen.push(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_core::toys::{Agreement, BoundedCounter};
    use ssr_graph::generators;
    use ssr_runtime::{Daemon, Simulator};

    fn corrupt_inner<I: ResetInput<State = u32>>(
        sim: &mut Simulator<'_, MonoReset<I>>,
        u: NodeId,
        value: u32,
    ) {
        let mut s = *sim.state(u);
        s.inner = value;
        sim.inject(u, s);
    }

    #[test]
    fn tree_structure() {
        let g = generators::path(4);
        let mono = MonoReset::new(&g, Agreement::new(3), NodeId(0));
        assert_eq!(mono.root(), NodeId(0));
        assert_eq!(mono.parent[3], Some(NodeId(2)));
        assert_eq!(mono.children[0], vec![NodeId(1)]);
    }

    #[test]
    fn full_wave_recovers_from_corruption() {
        let g = generators::path(5);
        let mono = MonoReset::new(&g, Agreement::new(4), NodeId(0));
        let check = MonoReset::new(&g, Agreement::new(4), NodeId(0));
        let init = mono.initial_config(&g);
        let mut sim = Simulator::new(&g, mono, init, Daemon::RandomSubset { p: 0.7 }, 3);
        assert!(sim.is_terminal(), "agreement + idle = nothing to do");
        corrupt_inner(&mut sim, NodeId(4), 2);
        let out = sim
            .execution()
            .cap(100_000)
            .until(|gr, st| check.is_normal_config(gr, st))
            .run();
        assert!(out.reached, "mono reset must recover");
        assert!(
            sim.states().iter().all(|s| s.inner == 0),
            "wave reset everyone"
        );
    }

    #[test]
    fn request_travels_to_root_before_wave() {
        let g = generators::path(3);
        let mono = MonoReset::new(&g, Agreement::new(4), NodeId(0));
        let init = mono.initial_config(&g);
        let mut sim = Simulator::new(&g, mono, init, Daemon::LexMin, 0);
        corrupt_inner(&mut sim, NodeId(2), 3);
        // With LexMin the lowest-index enabled process moves; the wave
        // still has to pass through Req at 2 and 1 before the root fires.
        let mut saw_req = false;
        for _ in 0..200 {
            if sim.states().iter().any(|s| s.phase == Phase::Req) {
                saw_req = true;
            }
            if sim.is_terminal() {
                break;
            }
            sim.step();
        }
        assert!(saw_req, "requests must be forwarded to the root");
        assert!(sim.states().iter().all(|s| s.phase == Phase::Idle));
    }

    #[test]
    fn inner_algorithm_resumes_after_wave() {
        let g = generators::ring(6);
        let mono = MonoReset::new(&g, BoundedCounter::new(4), NodeId(0));
        let init = mono.initial_config(&g);
        let mut sim = Simulator::new(&g, mono, init, Daemon::RandomSubset { p: 0.6 }, 9);
        // Corrupt one counter beyond the tolerated drift.
        let mut s = *sim.state(NodeId(3));
        s.inner = 3;
        sim.inject(NodeId(3), s);
        let out = sim.execution().cap(200_000).run();
        assert!(out.terminal);
        // Terminal = all counters at the cap (they restarted from 0).
        assert!(sim.states().iter().all(|s| s.inner == 4));
        assert!(sim.states().iter().all(|s| s.phase == Phase::Idle));
    }

    #[test]
    fn no_wave_without_inconsistency() {
        let g = generators::grid(3, 3);
        let mono = MonoReset::new(&g, BoundedCounter::new(3), NodeId(4));
        let init = mono.initial_config(&g);
        let mut sim = Simulator::new(&g, mono, init, Daemon::Synchronous, 0);
        sim.execution().cap(10_000).run();
        for rule in [RULE_REQ, RULE_START, RULE_RBCAST] {
            assert_eq!(sim.stats().moves_per_rule[rule.index()], 0);
        }
    }
}
