//! Differential tests for the unison guard kernels: the division-free
//! `succ`/`pred`/`p_ok`, the single-scan `CfgUnison::enabled_mask` and
//! the hoisted `spec::safety_holds_at` must agree with their `% K`
//! specifications on every input, out-of-range clocks (`c ≥ K`)
//! included.

use proptest::prelude::*;
use ssr_baselines::{CfgUnison, RULE_CFG_INC, RULE_CFG_RESET};
use ssr_core::ResetInput;
use ssr_graph::{generators, Graph};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{Algorithm, ConfigView, NodeId, RuleMask, StateView};
use ssr_unison::{spec, Unison};

/// `(c + 1) % K`.
fn succ_mod(c: u64, k: u64) -> u64 {
    (c + 1) % k
}

/// `(c − 1) % K`, written `(c + K − 1) % K`.
fn pred_mod(c: u64, k: u64) -> u64 {
    (c + k - 1) % k
}

/// `P_Ok(u, v) ≡ c_v ∈ {(c_u−1)%K, c_u, (c_u+1)%K}`.
fn p_ok_mod(cu: u64, cv: u64, k: u64) -> bool {
    cv == cu || cv == succ_mod(cu, k) || cv == pred_mod(cu, k)
}

fn assert_kernels_match(unison: &Unison, c: u64, d: u64) {
    let k = unison.period();
    assert_eq!(unison.succ(c), succ_mod(c, k), "succ({c}) at K = {k}");
    assert_eq!(unison.pred(c), pred_mod(c, k), "pred({c}) at K = {k}");
    assert_eq!(
        unison.p_ok(c, d),
        p_ok_mod(c, d, k),
        "p_ok({c}, {d}) at K = {k}"
    );
}

/// Clocks mostly in `0..K + 3` (so neighbours collide and wrap), and
/// one in eight far out of range.
fn clocks(g: &Graph, period: u64, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    g.nodes()
        .map(|_| {
            if rng.below(8) == 0 {
                rng.below(u64::MAX / 4)
            } else {
                rng.below(period + 3)
            }
        })
        .collect()
}

/// The `% K` specification of cfg-unison's mask: `inc` on
/// `P_ICorrect ∧ P_Up`, `reset` on `¬P_ICorrect ∧ c_u ≠ 0`.
fn cfg_mask_spec(u: NodeId, view: &ConfigView<'_, u64>, k: u64) -> RuleMask {
    let cu = *view.state(u);
    let nbrs = view.graph().neighbors(u);
    let correct = nbrs.iter().all(|&v| p_ok_mod(cu, *view.state(v), k));
    let up = nbrs
        .iter()
        .all(|&v| *view.state(v) == cu || *view.state(v) == succ_mod(cu, k));
    RuleMask::NONE
        .with_if(RULE_CFG_INC, correct && up)
        .with_if(RULE_CFG_RESET, !correct && cu != 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compare-and-wrap `succ`/`pred` and `p_ok` equal the `% K`
    /// formulas, in range and far out of it.
    #[test]
    fn succ_pred_p_ok_equal_the_modular_formulas(
        k in 2u64..64,
        c in 0u64..256,
        d in 0u64..256,
        wide_k in 2u64..(u64::MAX / 4),
        wide_c in 0u64..(u64::MAX / 4),
    ) {
        assert_kernels_match(&Unison::new(k), c, d);
        assert_kernels_match(&Unison::new(k), c % k, d % k);
        let wide = Unison::new(wide_k);
        assert_kernels_match(&wide, wide_c, wide_c.wrapping_add(1));
        assert_kernels_match(&wide, wide_c % wide_k, wide_k - 1);
    }

    /// The single-scan cfg-unison mask equals the mask built from the
    /// predicate-by-predicate `P_ICorrect`/`P_Up` and from their `% K`
    /// forms, on arbitrary clock vectors over random graphs.
    #[test]
    fn cfg_unison_single_scan_mask_matches_its_predicates(
        n in 1usize..=64,
        extra in 0usize..24,
        graph_seed in 0u64..100_000,
        period in 2u64..12,
        clock_seed in 0u64..100_000,
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        let c = clocks(&g, period, clock_seed);
        let view = ConfigView::new(&g, &c);
        let cfg = CfgUnison::new(period);
        let unison = Unison::new(period);
        for u in g.nodes() {
            let correct = unison.p_icorrect(u, &view);
            let by_predicates = RuleMask::NONE
                .with_if(RULE_CFG_INC, correct && unison.p_up(u, &view))
                .with_if(RULE_CFG_RESET, !correct && c[u.index()] != 0);
            let mask = cfg.enabled_mask(u, &view);
            prop_assert_eq!(mask, by_predicates, "node {:?}, clocks {:?}", u, &c);
            prop_assert_eq!(mask, cfg_mask_spec(u, &view, period), "node {:?}", u);
        }
    }

    /// The hoisted `safety_holds_at` equals its per-neighbour `p_ok`
    /// form and the `% K` form.
    #[test]
    fn hoisted_safety_term_matches_per_neighbour_p_ok(
        n in 1usize..=64,
        extra in 0usize..24,
        graph_seed in 0u64..100_000,
        period in 2u64..12,
        clock_seed in 0u64..100_000,
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        let c = clocks(&g, period, clock_seed);
        let view = ConfigView::new(&g, &c);
        let unison = Unison::new(period);
        for u in g.nodes() {
            let cu = c[u.index()];
            let nbrs = g.neighbors(u);
            let per_neighbour = nbrs.iter().all(|&v| unison.p_ok(cu, c[v.index()]));
            let modular = nbrs.iter().all(|&v| p_ok_mod(cu, c[v.index()], period));
            prop_assert_eq!(spec::safety_holds_at(u, &view, period), per_neighbour);
            prop_assert_eq!(per_neighbour, modular);
        }
    }
}

/// Every clock up to `3K` for the smallest periods: `K = 2`, where
/// `succ` and `pred` coincide, and the `K − 1 → 0` wrap.
#[test]
fn small_periods_and_the_wrap_match_exhaustively() {
    for k in 2..=9 {
        let unison = Unison::new(k);
        for c in 0..3 * k {
            for d in 0..3 * k {
                assert_kernels_match(&unison, c, d);
            }
        }
        assert_eq!(unison.succ(k - 1), 0);
        assert_eq!(unison.pred(0), k - 1);
    }
    let two = Unison::new(2);
    assert_eq!((two.succ(0), two.pred(0)), (1, 1));
    assert_eq!((two.succ(1), two.pred(1)), (0, 0));
}
