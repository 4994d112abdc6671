//! The fused guard kernels against their specification: on arbitrary
//! configurations, each node's `Algorithm::guard` must return the mask
//! built predicate by predicate and the legitimacy term of the
//! whole-configuration predicate the families stop on.
//!
//! * `I ∘ SDR` (every input the registry composes, plus a toy counter):
//!   the mask from `P_RB`, `P_RF`, `P_C` and `P_Up`, or the input's
//!   rules under the `P_Clean ∧ P_ICorrect` gate, where SDR must be
//!   disabled (Remark 2); `legit` is `is_normal_at`.
//! * cfg-unison: `inc` on `P_ICorrect ∧ P_Up`, `reset` on
//!   `¬P_ICorrect ∧ c_u ≠ 0`; `legit` is `spec::safety_holds_at`.
//! * `ResetInput::guard` of every registered input (unison, agreement,
//!   the toy counter and every FGA preset), called directly and as the
//!   whole guard of `Standalone<I>`: the input's `enabled_mask` under
//!   `P_ICorrect`, with `legit` that gate. `Unison` and `Fga` override
//!   it with one-scan kernels; `Fga`'s states draw `ptr_u` uniformly
//!   over N[u] and ⊥, and its `enabled_mask` and `p_icorrect` stay
//!   predicate by predicate, so the specification never calls the
//!   kernel it checks.
//! * mono-reset: the wave rules as the baseline defines them, on its BFS
//!   tree rebuilt here; `legit` is `is_normal_at`.
//!
//! The graphs are the analyzer's small-model suite plus one random
//! connected graph per case. Configurations are biased towards the
//! cases the fused folds branch on: statuses and phases uniform,
//! distances from a narrow range (so neighbours tie), and about half
//! the inner states at their reset value.

use proptest::prelude::*;
use ssr_alliance::presets::PresetSpec;
use ssr_alliance::FgaState;
use ssr_analyze::analysis_suite;
use ssr_baselines::{CfgUnison, MonoReset, MonoState, Phase, RULE_CFG_INC, RULE_CFG_RESET};
use ssr_core::toys::{Agreement, BoundedCounter};
use ssr_core::{
    Composed, ResetInput, Sdr, SdrState, Standalone, Status, RULE_C, RULE_R, RULE_RB, RULE_RF,
    SDR_RULE_COUNT,
};
use ssr_graph::{generators, Graph, NodeId};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{Algorithm, ConfigView, Guard, MapView, RuleId, RuleMask, StateView};
use ssr_unison::{spec, Unison};

/// Configurations checked per graph and algorithm.
const CONFIGS: u64 = 24;

/// An input state: the reset state half the time, else arbitrary.
fn inner_state<I: ResetInput>(input: &I, u: NodeId, rng: &mut Xoshiro256StarStar) -> I::State {
    if rng.below(2) == 0 {
        input.reset_state(u)
    } else {
        input.arbitrary_state(u, rng)
    }
}

/// An `I ∘ SDR` configuration: any status, distances in `0..3`.
fn sdr_config<I: ResetInput>(input: &I, g: &Graph, seed: u64) -> Vec<Composed<I::State>> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    g.nodes()
        .map(|u| {
            let status = [Status::C, Status::RB, Status::RF][rng.below(3) as usize];
            let sdr = SdrState::new(status, rng.below(3) as u32);
            Composed::new(sdr, inner_state(input, u, &mut rng))
        })
        .collect()
}

/// The guard of `Sdr<I>` as the paper writes it.
fn sdr_spec<I: ResetInput>(
    sdr: &Sdr<I>,
    u: NodeId,
    view: &ConfigView<'_, Composed<I::State>>,
) -> Guard {
    let rules = RuleMask::NONE
        .with_if(RULE_RB, sdr.p_rb(u, view))
        .with_if(RULE_RF, sdr.p_rf(u, view))
        .with_if(RULE_C, sdr.p_c(u, view))
        .with_if(RULE_R, sdr.p_up(u, view));
    let legit = sdr.is_normal_at(u, view);
    if legit {
        assert!(
            rules.is_empty(),
            "Remark 2: SDR enabled under the gate at {u:?}"
        );
        let iv = MapView::new(view, |s: &Composed<I::State>| &s.inner);
        let input = sdr.input().enabled_mask(u, &iv);
        Guard {
            mask: RuleMask(input.0 << SDR_RULE_COUNT),
            legit,
        }
    } else {
        Guard { mask: rules, legit }
    }
}

fn check_sdr<I: ResetInput>(input: I, g: &Graph, seed: u64) {
    let sdr = Sdr::new(input);
    for i in 0..CONFIGS {
        let states = sdr_config(sdr.input(), g, seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let view = ConfigView::new(g, &states);
        for u in g.nodes() {
            let guard = sdr.guard(u, &view);
            assert_eq!(guard, sdr_spec(&sdr, u, &view), "node {u:?} of {states:?}");
            assert_eq!(sdr.enabled_mask(u, &view), guard.mask);
        }
    }
}

/// `ResetInput::guard`, called directly and as `Standalone<I>`'s
/// guard, against its definition, on configurations whose states
/// `draw` picks.
fn check_input<I: ResetInput + Clone>(
    input: &I,
    g: &Graph,
    seed: u64,
    draw: impl Fn(NodeId, &mut Xoshiro256StarStar) -> I::State,
) {
    let standalone = Standalone::new(input.clone());
    for i in 0..CONFIGS {
        let mut rng =
            Xoshiro256StarStar::seed_from_u64(seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let states: Vec<I::State> = g.nodes().map(|u| draw(u, &mut rng)).collect();
        let view = ConfigView::new(g, &states);
        for u in g.nodes() {
            let legit = input.p_icorrect(u, &view);
            let mask = if legit {
                input.enabled_mask(u, &view)
            } else {
                RuleMask::NONE
            };
            let spec = Guard { mask, legit };
            assert_eq!(input.guard(u, &view), spec, "node {u:?} of {states:?}");
            assert_eq!(standalone.guard(u, &view), spec, "node {u:?} of {states:?}");
            assert_eq!(standalone.enabled_mask(u, &view), mask);
        }
    }
}

/// An FGA state with `ptr_u` uniform over N[u] and ⊥, and the other
/// variables leaning towards the values that enable `rule_Clr`
/// (membership, full score), so full approval is drawn often.
fn fga_state(g: &Graph, u: NodeId, rng: &mut Xoshiro256StarStar) -> FgaState {
    let nbhd: Vec<NodeId> = g.closed_neighborhood(u).collect();
    FgaState {
        col: rng.below(4) != 0,
        scr: [1, 1, 0, -1][rng.below(4) as usize],
        can_q: rng.below(2) == 0,
        ptr: nbhd.get(rng.below(nbhd.len() as u64 + 1) as usize).copied(),
    }
}

/// Clocks in `0..K + 2`, so neighbours collide and wrap.
fn clocks(g: &Graph, period: u64, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    g.nodes().map(|_| rng.below(period + 2)).collect()
}

fn check_cfg_unison(g: &Graph, period: u64, seed: u64) {
    let cfg = CfgUnison::new(period);
    let unison = Unison::new(period);
    for i in 0..CONFIGS {
        let c = clocks(g, period, seed ^ i);
        let view = ConfigView::new(g, &c);
        for u in g.nodes() {
            let correct = unison.p_icorrect(u, &view);
            let mask = RuleMask::NONE
                .with_if(RULE_CFG_INC, correct && unison.p_up(u, &view))
                .with_if(RULE_CFG_RESET, !correct && c[u.index()] != 0);
            let legit = spec::safety_holds_at(u, &view, period);
            assert_eq!(
                cfg.guard(u, &view),
                Guard { mask, legit },
                "node {u:?} of {c:?}"
            );
            assert_eq!(cfg.enabled_mask(u, &view), mask);
        }
    }
}

/// Parent and children of every node on the BFS tree from `root`,
/// built the way `MonoReset::new` builds it.
fn bfs_tree(g: &Graph, root: NodeId) -> (Vec<Option<NodeId>>, Vec<Vec<NodeId>>) {
    let n = g.node_count();
    let (mut parent, mut children) = (vec![None; n], vec![Vec::new(); n]);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([root]);
    seen[root.index()] = true;
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                parent[v.index()] = Some(u);
                children[u.index()].push(v);
                queue.push_back(v);
            }
        }
    }
    (parent, children)
}

/// The mono-reset mask as the baseline defines it: rules 0–4 are
/// `Req`, `Start`, `RBcast`, `Fb` and `Done`, then the input's rules
/// on an idle closed neighbourhood with a correct input state.
fn mono_spec_mask(
    mono: &MonoReset<Unison>,
    tree: &(Vec<Option<NodeId>>, Vec<Vec<NodeId>>),
    u: NodeId,
    view: &ConfigView<'_, MonoState<u64>>,
) -> RuleMask {
    let (parent, children) = tree;
    let phase = |v: NodeId| view.state(v).phase;
    let iv = MapView::new(view, |s: &MonoState<u64>| &s.inner);
    let icorrect = mono.input().p_icorrect(u, &iv);
    let child_req = children[u.index()].iter().any(|&c| phase(c) == Phase::Req);
    let all_children_fb = children[u.index()].iter().all(|&c| phase(c) == Phase::RF);
    let parent_phase = parent[u.index()].map(phase);
    let is_root = u == mono.root();
    let me = phase(u);
    let mask = RuleMask::NONE
        .with_if(
            RuleId(0),
            !is_root
                && me == Phase::Idle
                && (!icorrect || child_req)
                && parent_phase != Some(Phase::RB),
        )
        .with_if(
            RuleId(1),
            is_root
                && matches!(me, Phase::Idle | Phase::Req)
                && (!icorrect || child_req || me == Phase::Req),
        )
        .with_if(
            RuleId(2),
            !is_root && matches!(me, Phase::Idle | Phase::Req) && parent_phase == Some(Phase::RB),
        )
        .with_if(RuleId(3), me == Phase::RB && all_children_fb)
        .with_if(
            RuleId(4),
            me == Phase::RF && (is_root || parent_phase == Some(Phase::Idle)),
        );
    let clean = view
        .graph()
        .closed_neighborhood(u)
        .all(|v| phase(v) == Phase::Idle);
    if mask.is_empty() && clean && icorrect {
        RuleMask(mono.input().enabled_mask(u, &iv).0 << 5)
    } else {
        mask
    }
}

fn check_mono_reset(g: &Graph, seed: u64) {
    let mono = MonoReset::new(g, Unison::for_graph(g), NodeId(0));
    let tree = bfs_tree(g, NodeId(0));
    let period = mono.input().period();
    for i in 0..CONFIGS {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ i);
        let states: Vec<MonoState<u64>> = g
            .nodes()
            .map(|_| MonoState {
                phase: [Phase::Idle, Phase::Req, Phase::RB, Phase::RF][rng.below(4) as usize],
                // Mostly near zero, so clocks agree often enough.
                inner: rng.below(3).min(rng.below(period)),
            })
            .collect();
        let view = ConfigView::new(g, &states);
        for u in g.nodes() {
            let mask = mono_spec_mask(&mono, &tree, u, &view);
            let legit = mono.is_normal_at(u, &view);
            assert_eq!(
                mono.guard(u, &view),
                Guard { mask, legit },
                "node {u:?} of {states:?}"
            );
            assert_eq!(mono.enabled_mask(u, &view), mask);
        }
    }
}

/// Every checked algorithm on `g`.
fn check_all(g: &Graph, seed: u64) {
    let agreement = Agreement::new(3);
    check_input(&agreement, g, seed, |u, rng| {
        inner_state(&agreement, u, rng)
    });
    let counter = BoundedCounter::new(3);
    check_input(&counter, g, seed, |u, rng| inner_state(&counter, u, rng));
    let unison = Unison::for_graph(g);
    let period = unison.period();
    check_input(&unison, g, seed, |_, rng| rng.below(period + 2));
    check_sdr(agreement, g, seed);
    check_sdr(counter, g, seed);
    check_sdr(unison, g, seed);
    for preset in PresetSpec::all() {
        if let Some(fga) = preset.build(g) {
            check_input(&fga, g, seed, |u, rng| fga_state(g, u, rng));
            check_sdr(fga, g, seed);
        }
    }
    check_cfg_unison(g, (g.node_count() as u64 + 1).max(3), seed);
    check_cfg_unison(g, 2, seed);
    check_mono_reset(g, seed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each fused guard equals its predicate-by-predicate mask and the
    /// node-local term of its whole-configuration legitimacy predicate,
    /// on the analyzer's suite graphs and a random connected graph.
    #[test]
    fn fused_guards_match_their_specification(
        n in 2usize..=12,
        extra in 0usize..8,
        graph_seed in 0u64..100_000,
        seed in 0u64..100_000,
    ) {
        for (_, g) in analysis_suite() {
            check_all(&g, seed);
        }
        check_all(&generators::random_connected(n, extra, graph_seed), seed);
    }
}
