//! The staged step pipeline behind [`crate::Simulator::step`].
//!
//! A composite-atomicity step factors into three phases, each a
//! kernel over flat per-node arrays:
//!
//! 1. **select** ([`select`]) — the daemon emits the step's moves: a
//!    non-empty subset of the enabled set, each process paired with
//!    its lowest-index enabled rule. With random rule choice on, a
//!    second pass redraws each multi-rule mover's rule in place, after
//!    all of the daemon's draws. This phase owns *every* RNG draw of
//!    the step, so it always runs sequentially; determinism follows.
//! 2. **apply** ([`apply`]) — every `(process, rule)` move computes its
//!    next state against the frozen pre-step configuration. Reads
//!    never see a write of the same step (composite atomicity), so the
//!    moves are data-parallel by construction; the merge commits them
//!    in selection order. A step with a single move and no parallel
//!    kernel writes that move in place: no other move reads the
//!    mover's old state, so the result is the same.
//! 3. **guards** ([`guards`]) — only the movers and their neighbors
//!    can change enabledness (§2.2 guard locality), so guard
//!    re-evaluation is a kernel over that refresh set on the CSR
//!    adjacency. Each fresh mask is recorded once, in refresh-list
//!    order, by one update routine that keeps the mask cache, the
//!    enabled set, the wait counters and the round front together.
//!    Without parallel kernels, one walk over the movers'
//!    neighbourhoods evaluates and records each node on its first
//!    touch; a single move's walk is `N[u]` itself and needs no
//!    first-touch marks.
//!
//! The parallel variants of the apply and guard kernels live in
//! [`par`]; they run on the [`crate::pool::par_map`] pool and are
//! **byte-identical** to the sequential path at any thread count: same
//! states, same counters, same RNG stream, same observer event order.
//! The commutativity argument (moves at non-adjacent processes commute;
//! our pipeline never interleaves reads and writes at all) is spelled
//! out in `DESIGN.md` §9.

pub(crate) mod apply;
pub(crate) mod guards;
pub(crate) mod par;
pub(crate) mod select;
