//! Phase 1: the step's moves.
//!
//! The daemon ([`crate::daemon`]) emits the move list itself: each
//! process it picks, paired with its lowest-index enabled rule, in
//! selection order. With random rule choice on, [`draw_rules`] then
//! redraws the rule of every mover with several enabled rules, in
//! place and in selection order. Both are the sequential head of the
//! pipeline and own every RNG draw of the step: first all of the
//! daemon's draws, then one per multi-rule mover. So the random stream
//! is identical no matter how the later phases are parallelized.

use ssr_graph::NodeId;

use crate::algorithm::{RuleId, RuleMask};
use crate::rng::Xoshiro256StarStar;

/// Replaces the rule of every move whose process has several enabled
/// rules by a uniformly drawn one: one RNG draw per such move, in
/// selection order (part of the determinism contract). Moves with a
/// single enabled rule keep it and draw nothing.
#[inline]
pub(crate) fn draw_rules(
    masks: &[RuleMask],
    rng: &mut Xoshiro256StarStar,
    moves: &mut [(NodeId, RuleId)],
) {
    for (u, rule) in moves {
        let mask = masks[u.index()];
        if mask.count() > 1 {
            let k = rng.below(u64::from(mask.count()));
            *rule = mask.iter().nth(k as usize).expect("mask has k-th rule");
        }
    }
}
