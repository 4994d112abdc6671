//! The apply and guard kernels on the [`crate::pool::par_map`] pool.
//!
//! [`ParHooks`] carries plain `fn` pointers so that installing
//! parallelism is the only place that needs `A: Sync` bounds
//! ([`hooks`]); [`crate::Simulator::step`] calls through the pointers
//! without any extra bounds on its own signature. The pointers are
//! instantiations of [`par_guards`] and [`par_next_states`], which map
//! their input in `threads` contiguous chunks against the shared
//! read-only configuration; `par_map` returns the results in index
//! order, so the output is byte-identical to the sequential loop for
//! any thread count.

use ssr_graph::{Graph, NodeId};

use crate::algorithm::{Algorithm, ConfigView, Guard, RuleId};
use crate::pool::par_map;

/// Guard kernel: `(threads, graph, algo, states, nodes) -> guards`.
type GuardKernel<A> = fn(usize, &Graph, &A, &[<A as Algorithm>::State], &[NodeId]) -> Vec<Guard>;

/// Apply kernel: `(threads, graph, algo, states, moves) -> next states`.
type NextKernel<A> = fn(
    usize,
    &Graph,
    &A,
    &[<A as Algorithm>::State],
    &[(NodeId, RuleId)],
) -> Vec<<A as Algorithm>::State>;

/// Installed parallel kernels plus the worker count.
pub(crate) struct ParHooks<A: Algorithm> {
    pub threads: usize,
    pub guards: GuardKernel<A>,
    pub next: NextKernel<A>,
}

impl<A: Algorithm> Clone for ParHooks<A> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<A: Algorithm> Copy for ParHooks<A> {}

/// Builds the kernels for `threads` workers, or `None` when `threads
/// <= 1` (sequential execution). The `Sync`/`Send` bounds are paid
/// here, once, instead of on every `step()` call.
pub(crate) fn hooks<A>(threads: usize) -> Option<ParHooks<A>>
where
    A: Algorithm + Sync,
    A::State: Send + Sync,
{
    (threads > 1).then_some(ParHooks {
        threads,
        guards: par_guards::<A>,
        next: par_next_states::<A>,
    })
}

/// The [`Algorithm::guard`] of every node of `nodes` (entry `i` is the
/// guard of `nodes[i]`).
pub(crate) fn par_guards<A>(
    threads: usize,
    graph: &Graph,
    algo: &A,
    states: &[A::State],
    nodes: &[NodeId],
) -> Vec<Guard>
where
    A: Algorithm + Sync,
    A::State: Sync,
{
    let view = ConfigView::new(graph, states);
    let chunk = nodes.len().div_ceil(threads);
    par_map(
        nodes.len(),
        threads,
        chunk,
        |_| (),
        |_, i| algo.guard(nodes[i], &view),
    )
    .0
}

/// The next state of every move of `moves` against the frozen
/// configuration `states` (entry `i` is the next state of `moves[i]`).
pub(crate) fn par_next_states<A>(
    threads: usize,
    graph: &Graph,
    algo: &A,
    states: &[A::State],
    moves: &[(NodeId, RuleId)],
) -> Vec<A::State>
where
    A: Algorithm + Sync,
    A::State: Send + Sync,
{
    let view = ConfigView::new(graph, states);
    let chunk = moves.len().div_ceil(threads);
    par_map(
        moves.len(),
        threads,
        chunk,
        |_| (),
        |_, i| {
            let (u, rule) = moves[i];
            algo.apply(u, &view, rule)
        },
    )
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{RuleMask, StateView};
    use ssr_graph::generators;

    /// Next state = sum of closed-neighborhood states (value-sensitive,
    /// so any ordering or chunking mistake changes the output).
    struct NeighborSum;

    impl Algorithm for NeighborSum {
        type State = u64;
        fn rule_count(&self) -> usize {
            1
        }
        fn rule_name(&self, _: RuleId) -> &'static str {
            "sum"
        }
        fn enabled_mask<V: StateView<u64>>(&self, u: NodeId, view: &V) -> RuleMask {
            RuleMask::from_bool(*view.state(u) % 2 == 0)
        }
        fn apply<V: StateView<u64>>(&self, u: NodeId, view: &V, _: RuleId) -> u64 {
            let mut s = *view.state(u);
            for &v in view.graph().neighbors(u) {
                s += *view.state(v);
            }
            s
        }
    }

    #[test]
    fn parallel_kernels_match_sequential_for_any_thread_count() {
        let g = generators::random_connected(37, 50, 5);
        let states: Vec<u64> = (0..37u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let nodes: Vec<NodeId> = g.nodes().collect();
        let moves: Vec<(NodeId, RuleId)> = nodes.iter().map(|&u| (u, RuleId(0))).collect();

        let view = ConfigView::new(&g, &states);
        let seq_guards: Vec<Guard> = nodes.iter().map(|&u| NeighborSum.guard(u, &view)).collect();
        let seq_next: Vec<u64> = moves
            .iter()
            .map(|&(u, r)| NeighborSum.apply(u, &view, r))
            .collect();

        for threads in [1, 2, 3, 4, 8, 64] {
            let guards = par_guards(threads, &g, &NeighborSum, &states, &nodes);
            assert_eq!(guards, seq_guards, "guards differ at {threads} threads");
            let next = par_next_states(threads, &g, &NeighborSum, &states, &moves);
            assert_eq!(next, seq_next, "next states differ at {threads} threads");
        }
    }

    #[test]
    fn empty_inputs_yield_empty_outputs() {
        let g = generators::path(3);
        let states = vec![0u64; 3];
        assert!(par_guards(4, &g, &NeighborSum, &states, &[]).is_empty());
        assert!(par_next_states(4, &g, &NeighborSum, &states, &[]).is_empty());
    }

    #[test]
    fn hooks_gate_on_thread_count() {
        assert!(hooks::<NeighborSum>(0).is_none());
        assert!(hooks::<NeighborSum>(1).is_none());
        let h = hooks::<NeighborSum>(4).expect("parallel hooks");
        assert_eq!(h.threads, 4);
    }
}
