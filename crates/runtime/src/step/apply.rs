//! Phase 2: next-state computation against the frozen configuration.
//!
//! Composite atomicity means every move of a step reads the pre-step
//! configuration; writes land only at the mover itself. The phase is
//! therefore a pure map over the move list — the sequential loop and
//! the chunked `par_map` kernel produce the same vector, and the
//! commit (done by the simulator, in selection order) is identical
//! either way.

use ssr_graph::{Graph, NodeId};

use crate::algorithm::{Algorithm, ConfigView, RuleId};
use crate::step::par::ParHooks;

/// Computes the next state of each `(process, rule)` move into `out`
/// (cleared first; `out[i]` pairs with `moves[i]`). Runs on the
/// installed kernel when `par` is set, else sequentially.
pub(crate) fn compute_next_states<A: Algorithm>(
    graph: &Graph,
    algo: &A,
    states: &[A::State],
    moves: &[(NodeId, RuleId)],
    out: &mut Vec<A::State>,
    par: Option<ParHooks<A>>,
) {
    if let Some(hooks) = par {
        *out = (hooks.next)(hooks.threads, graph, algo, states, moves);
        return;
    }
    out.clear();
    let view = ConfigView::new(graph, states);
    for &(u, rule) in moves {
        out.push(algo.apply(u, &view, rule));
    }
}
