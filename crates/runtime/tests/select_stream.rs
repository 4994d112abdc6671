//! Pins the select phase's random stream: which `(process, rule)` moves
//! each step makes and how many RNG draws the step takes, under every
//! daemon strategy, with and without random rule choice.
//!
//! None of the standard algorithms ever has two rules enabled at one
//! process, so no other test or golden file sees `random_rule_choice`
//! draw. The toy below has overlapping guards, so several rules are
//! enabled at once at many steps. The digests were recorded once, before
//! the select phase was restructured, and must never be edited: a
//! changed digest means a changed random stream.

use ssr_graph::{generators, NodeId};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{Algorithm, Daemon, RuleId, RuleMask, Simulator, StateView, StepOutcome};

/// Clocks modulo 8 with three overlapping rules:
/// * `tick` — `x ≤` every neighbour: `x := (x + 1) % 8`;
/// * `copy` — some neighbour is at least 2 away: `x :=` the largest
///   neighbour;
/// * `odd` — `x` is odd: `x := (x + 3) % 8`.
///
/// A process holding the minimum clock always has `tick` enabled, so no
/// configuration is terminal.
struct Overlap;

impl Algorithm for Overlap {
    type State = u8;

    fn rule_count(&self) -> usize {
        3
    }

    fn rule_name(&self, rule: RuleId) -> &'static str {
        ["tick", "copy", "odd"][rule.index()]
    }

    fn enabled_mask<V: StateView<u8>>(&self, u: NodeId, view: &V) -> RuleMask {
        let x = *view.state(u);
        let nbrs = view.graph().neighbors(u);
        let tick = nbrs.iter().all(|&v| x <= *view.state(v));
        let copy = nbrs.iter().any(|&v| x.abs_diff(*view.state(v)) >= 2);
        RuleMask::NONE
            .with_if(RuleId(0), tick)
            .with_if(RuleId(1), copy)
            .with_if(RuleId(2), x % 2 == 1)
    }

    fn apply<V: StateView<u8>>(&self, u: NodeId, view: &V, rule: RuleId) -> u8 {
        let x = *view.state(u);
        match rule.0 {
            0 => (x + 1) % 8,
            1 => view
                .graph()
                .neighbors(u)
                .iter()
                .map(|&v| *view.state(v))
                .max()
                .unwrap_or(x),
            _ => (x + 3) % 8,
        }
    }
}

const STEPS: usize = 200;

/// FNV-1a step over one 64-bit word.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Digest of 200 steps' moves and per-phase draws, plus the largest
/// select-phase draw count of any one step.
fn digest(daemon: &Daemon, random_rule_choice: bool) -> (u64, u64) {
    let g = generators::random_connected(16, 10, 0x5E1EC7);
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xC10C);
    let init: Vec<u8> = g.nodes().map(|_| rng.below(8) as u8).collect();
    let mut sim = Simulator::new(&g, Overlap, init, daemon.clone(), 0xD1CE);
    sim.set_random_rule_choice(random_rule_choice);
    let mut h = 0xCBF2_9CE4_8422_2325;
    let mut most_select_draws = 0;
    for step in 0..STEPS {
        let outcome = sim.step();
        assert!(
            matches!(outcome, StepOutcome::Progress { .. }),
            "{daemon:?}: terminal at step {step}"
        );
        for &(u, rule) in sim.last_activated() {
            h = fold(h, u.index() as u64);
            h = fold(h, rule.index() as u64);
        }
        let draws = sim.last_step_phase_draws();
        for d in draws {
            h = fold(h, d);
        }
        most_select_draws = most_select_draws.max(draws[0]);
    }
    (h, most_select_draws)
}

/// Digests recorded before the select phase was restructured, in
/// `Daemon::all_strategies()` order: `(without, with)` random rule
/// choice.
const PINNED: [(u64, u64); 9] = [
    (0x3bfc_235c_04e3_49fb, 0x0c34_a498_9940_c8c2), // sync
    (0x5c83_b8ef_964b_9509, 0xb766_1dc1_a7aa_d819), // central
    (0x15ac_6607_2da4_d141, 0xe0ba_c814_ce76_947f), // round-robin
    (0x1cdc_9fe9_3da3_0b37, 0x01bb_fd17_b6af_267e), // subset(p=0.5)
    (0x997b_8db4_666b_1067, 0xdeb2_c9c7_4c10_294b), // subset(p=0.1)
    (0x49c9_11a8_ad9b_f277, 0xfd9d_1c02_4b96_9c4c), // aging(8)
    (0xbb47_960a_fdb1_f1e1, 0x5e22_9387_f315_993b), // adv-high
    (0x4cbd_6cdb_cb69_64cc, 0x1965_2785_23bf_3c47), // adv-low
    (0x96cb_6737_06f1_3a1d, 0xd45e_766d_2842_d3c7), // lex-min
];

#[test]
fn the_select_stream_matches_its_pinned_digests() {
    let daemons = Daemon::all_strategies();
    assert_eq!(daemons.len(), PINNED.len());
    for (daemon, &want) in daemons.iter().zip(PINNED.iter()) {
        let got = (digest(daemon, false).0, digest(daemon, true).0);
        assert_eq!(
            got,
            want,
            "{}: the select stream changed (digests without, with random rule choice)",
            daemon.label()
        );
    }
}

#[test]
fn random_rule_choice_draws_beyond_the_daemon() {
    // The central daemon draws once per step; a step that also resolves
    // a multi-rule mover at random draws a second time.
    let (_, plain) = digest(&Daemon::Central, false);
    assert_eq!(plain, 1, "without rule choice, central draws exactly once");
    let (_, chosen) = digest(&Daemon::Central, true);
    assert!(chosen > 1, "no step drew a rule: the pin would be vacuous");
}
