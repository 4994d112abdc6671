//! FGA's actions against Algorithm 3 as written: on random
//! configurations, `Fga::apply` of every rule at every process must
//! equal the action built from the paper's macros through their public
//! definitions — `realScr` (`real_scr_with_col`), `P_canQuit`
//! (`p_can_quit_with_col`) and `bestPtr` (`best_ptr`) — which the
//! one-scan kernel behind `apply` replaces. `rule_Clr`'s `upd(u)` runs
//! after `col_u := false`, so it reads the new membership bit.

use proptest::prelude::*;
use ssr_alliance::{Fga, FgaState, PresetSpec, RULE_CLR, RULE_P1, RULE_P2, RULE_Q};
use ssr_core::ResetInput;
use ssr_graph::{generators, Graph, NodeId};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{ConfigView, RuleId, StateView};

/// Algorithm 3's action of `rule` at `u`, macro by macro.
fn action(fga: &Fga, u: NodeId, view: &ConfigView<'_, FgaState>, rule: RuleId) -> FgaState {
    let s = *view.state(u);
    // cmpVar(u), against the membership bit `col`.
    let cmp_var = |col| {
        (
            fga.real_scr_with_col(u, view, col),
            fga.p_can_quit_with_col(u, view, col),
        )
    };
    // upd(u): cmpVar(u), then ptr_u := bestPtr(u) on the fresh values.
    let upd = |col| {
        let (scr, can_q) = cmp_var(col);
        FgaState {
            col,
            scr,
            can_q,
            ptr: fga.best_ptr(u, view, scr, can_q),
        }
    };
    let (scr, can_q) = cmp_var(s.col);
    match rule {
        // col_u := false; upd(u).
        RULE_CLR => upd(false),
        // ptr_u := ⊥; cmpVar(u).
        RULE_P1 => FgaState {
            scr,
            can_q,
            ptr: None,
            ..s
        },
        // upd(u).
        RULE_P2 => upd(s.col),
        // cmpVar(u); if realScr(u) ≤ 0 then ptr_u := ⊥.
        RULE_Q => FgaState {
            scr,
            can_q,
            ptr: if scr <= 0 { None } else { s.ptr },
            ..s
        },
        other => unreachable!("FGA has four rules, not {other:?}"),
    }
}

/// A configuration with each `ptr_u` uniform over N[u] and ⊥, and the
/// other variables uniform over their domains.
fn config(g: &Graph, rng: &mut Xoshiro256StarStar) -> Vec<FgaState> {
    g.nodes()
        .map(|u| {
            let nbhd: Vec<NodeId> = g.closed_neighborhood(u).collect();
            FgaState {
                col: rng.below(2) == 0,
                scr: rng.below(3) as i8 - 1,
                can_q: rng.below(2) == 0,
                ptr: nbhd.get(rng.below(nbhd.len() as u64 + 1) as usize).copied(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every rule's action at every process equals Algorithm 3's, for
    /// every preset the graph admits and for shuffled identifiers.
    #[test]
    fn apply_matches_algorithm_3(
        n in 2usize..=12,
        extra in 0usize..8,
        graph_seed in 0u64..100_000,
        seed in 0u64..100_000,
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        // Identifiers out of index order, so bestPtr's minimum is not
        // always the lowest-numbered node.
        let mut ids: Vec<u64> = (0..g.node_count() as u64).map(|i| i * 7 + 3).collect();
        rng.shuffle(&mut ids);
        let shuffled = PresetSpec::Domination
            .build(&g)
            .map(|fga| Fga::with_ids(&g, fga.f().to_vec(), fga.g().to_vec(), ids.clone()));
        let fgas: Vec<Fga> = PresetSpec::all()
            .iter()
            .filter_map(|preset| preset.build(&g))
            .chain(shuffled.map(|fga| fga.expect("same demands, distinct ids")))
            .collect();
        for fga in fgas {
            for _ in 0..8 {
                let states = config(&g, &mut rng);
                let view = ConfigView::new(&g, &states);
                for u in g.nodes() {
                    for rule in [RULE_CLR, RULE_P1, RULE_P2, RULE_Q] {
                        prop_assert_eq!(
                            fga.apply(u, &view, rule),
                            action(&fga, u, &view, rule),
                            "{:?} at {:?} of {:?}", rule, u, states
                        );
                    }
                }
            }
        }
    }
}
