//! Shadow guard oracle: after every step, every node's guard is
//! recomputed from scratch and compared with the simulator's
//! incremental state — the mask cache (`enabled_mask_of`), the enabled
//! list, the failing-legitimacy count (`illegitimate_count`) and
//! `is_legitimate` — and the step's transition is replayed against the
//! configuration before it. Rounds and moves are recounted from their
//! definition (§2.4), guard evaluations from the refresh set's (the
//! union of `N[u]` over a step's movers; `N[u]` for each injected
//! node), and all are compared with `RunStats`,
//! `last_step_completed_round` and `rounds_now`. A twin simulator with
//! a no-op trace sink steps in lockstep and must agree on everything,
//! since the traced and the untraced step are two instantiations of one
//! pipeline.
//!
//! The step pipeline re-evaluates only each step's refresh set and
//! records each fresh guard (mask and legitimacy term) once, through
//! one update routine, on the sequential and the parallel guard pass
//! alike; a step with a single move commits it in place, every other
//! step through a staged merge.
//! This checks that bookkeeping and both commits against the
//! definition, for the concrete algorithm behind every standard family
//! label, under every daemon strategy, at 1, 2 and 4 intra-run threads
//! with the parallel kernels forced on, on random connected graphs of
//! up to 64 nodes. Half the cases also inject faults mid-run, which
//! goes through `Simulator::inject`'s own refresh.
//! (`crates/runtime/tests/proptests.rs` keeps the single-toy,
//! single-thread version of the mask check.)

use proptest::prelude::*;
use ssr_alliance::presets::PresetSpec;
use ssr_baselines::{CfgUnison, MonoReset, MonoState, Phase};
use ssr_core::{toys::Agreement, validate, Sdr, Standalone};
use ssr_graph::{generators, Graph, NodeId};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{
    Algorithm, ConfigView, Daemon, NoTrace, Observer, RunStats, Simulator, StepOutcome,
};
use ssr_unison::{unison_sdr, Unison};

/// Steps per run segment.
const STEPS: u64 = 150;

/// Test-only observer: recomputes every guard after each step and
/// asserts the simulator's incremental view agrees with it, checks
/// each step's transition against the configuration it last checked,
/// recounts rounds and moves, and steps the traced twin.
struct ShadowGuards<'g, A: Algorithm> {
    /// The configuration at the last check.
    config: Vec<A::State>,
    /// `RunStats` counted from the moves and the definition of a round.
    stats: RunStats,
    /// The round's pending processes: enabled when it started, and
    /// since then neither moved nor neutralized (disabled).
    front: Vec<NodeId>,
    /// The same run with a [`NoTrace`] sink installed.
    twin: Simulator<'g, A>,
}

impl<A: Algorithm> ShadowGuards<'_, A> {
    /// Checks the masks, enabled set and legitimacy count of the
    /// current configuration, then keeps that configuration for the
    /// next step's transition. Returns the enabled processes.
    fn check(&mut self, sim: &Simulator<'_, A>) -> Vec<NodeId> {
        let view = sim.view();
        let step = sim.stats().steps;
        let mut enabled = Vec::new();
        let mut illegitimate = 0;
        for u in sim.graph().nodes() {
            let fresh = sim.algorithm().guard(u, &view);
            assert_eq!(
                sim.algorithm().enabled_mask(u, &view),
                fresh.mask,
                "enabled_mask and guard disagree at {u:?} after step {step}"
            );
            assert_eq!(
                sim.enabled_mask_of(u),
                fresh.mask,
                "mask cache diverged at {u:?} after step {step}"
            );
            if !fresh.mask.is_empty() {
                enabled.push(u);
            }
            illegitimate += usize::from(!fresh.legit);
        }
        assert_eq!(
            sim.illegitimate_count(),
            illegitimate,
            "failing legitimacy terms after step {step}"
        );
        assert_eq!(sim.is_legitimate(), illegitimate == 0);
        assert_eq!(
            sim.enabled_nodes_sorted(),
            enabled,
            "enabled list after step {step}"
        );
        assert_eq!(sim.is_terminal(), enabled.is_empty());
        self.config = sim.states().to_vec();
        enabled
    }

    /// Checks the last step as a composite-atomicity transition from
    /// the kept configuration: each move's rule was enabled there, each
    /// mover's new state is its rule's action computed there, and no
    /// other node changed.
    fn check_transition(&self, sim: &Simulator<'_, A>) {
        let step = sim.stats().steps;
        let before = ConfigView::new(sim.graph(), &self.config);
        let mut moved = vec![false; self.config.len()];
        for &(u, rule) in sim.last_activated() {
            assert!(!moved[u.index()], "{u:?} moved twice in step {step}");
            moved[u.index()] = true;
            assert!(
                sim.algorithm().enabled_mask(u, &before).contains(rule),
                "{u:?} fired {rule:?}, not enabled before step {step}"
            );
            assert_eq!(
                sim.state(u),
                &sim.algorithm().apply(u, &before, rule),
                "{u:?}'s write in step {step} is not its {rule:?} action on the pre-step configuration"
            );
        }
        for u in sim.graph().nodes().filter(|u| !moved[u.index()]) {
            assert_eq!(
                sim.state(u),
                &self.config[u.index()],
                "{u:?} did not move in step {step} but its state changed"
            );
        }
    }

    /// Counts the last step's moves and guard evaluations (one per
    /// node of the movers' closed neighbourhoods) and advances the
    /// round by the definition: the movers and the processes no longer
    /// `enabled` leave the front; an empty front completes the round,
    /// and the next one starts from the processes enabled now.
    fn count(&mut self, sim: &Simulator<'_, A>, enabled: Vec<NodeId>) {
        let (n, rules) = (self.config.len(), sim.algorithm().rule_count());
        let stats = &mut self.stats;
        if stats.moves_per_process.is_empty() {
            stats.moves_per_process = vec![0; n];
            stats.moves_per_process_rule = vec![0; n * rules];
        }
        stats.steps += 1;
        for &(u, rule) in sim.last_activated() {
            stats.moves += 1;
            stats.moves_per_rule[rule.index()] += 1;
            stats.moves_per_process[u.index()] += 1;
            stats.moves_per_process_rule[u.index() * rules + rule.index()] += 1;
        }
        let mut refreshed: Vec<NodeId> = sim
            .last_activated()
            .iter()
            .flat_map(|&(u, _)| std::iter::once(u).chain(sim.graph().neighbors(u).iter().copied()))
            .collect();
        refreshed.sort_unstable();
        refreshed.dedup();
        stats.guard_evals += refreshed.len() as u64;
        self.front
            .retain(|u| enabled.contains(u) && sim.last_activated().iter().all(|m| m.0 != *u));
        let completed = self.front.is_empty();
        if completed {
            stats.completed_rounds += 1;
            self.front = enabled;
        }
        let step = stats.steps;
        assert_eq!(sim.stats(), stats, "RunStats after step {step}");
        assert_eq!(sim.last_step_completed_round(), completed);
        let partial = u64::from(!completed);
        assert_eq!(
            sim.rounds_now(),
            stats.completed_rounds + partial,
            "rounds_now after step {step}"
        );
    }
}

impl<A: Algorithm> Observer<A> for ShadowGuards<'_, A> {
    fn on_step(&mut self, sim: &Simulator<'_, A>, outcome: &StepOutcome) {
        self.check_transition(sim);
        let enabled = self.check(sim);
        self.count(sim, enabled);
        // Everything a trace sink must not change.
        let twin = &mut self.twin;
        assert_eq!(twin.step(), *outcome);
        let step = sim.stats().steps;
        assert_eq!(
            (twin.states(), twin.stats(), twin.last_activated()),
            (sim.states(), sim.stats(), sim.last_activated()),
            "the traced twin diverged at step {step}"
        );
        assert_eq!(
            (twin.last_step_phase_draws(), twin.rounds_now()),
            (sim.last_step_phase_draws(), sim.rounds_now()),
        );
        assert_eq!(twin.illegitimate_count(), sim.illegitimate_count());
        assert_eq!(twin.enabled_nodes_sorted(), sim.enabled_nodes_sorted());
    }
}

/// How one case is driven.
struct Drive {
    daemon: Daemon,
    seed: u64,
    threads: usize,
    /// Inject a second arbitrary configuration's states at about a
    /// third of the nodes after the first segment, then run another.
    inject: bool,
}

/// Runs `algo` under the shadow oracle from `arbitrary(seed)`.
fn shadowed<A>(g: &Graph, algo: &A, arbitrary: impl Fn(u64) -> Vec<A::State>, d: &Drive)
where
    A: Algorithm + Clone + Sync,
    A::State: Send + Sync,
{
    let new_sim = || {
        let mut sim = Simulator::new(g, algo.clone(), arbitrary(d.seed), d.daemon.clone(), d.seed);
        // Engage the parallel kernels even on these small graphs.
        sim.set_par_threshold(0);
        sim.set_intra_threads(d.threads);
        sim
    };
    let (mut sim, mut twin) = (new_sim(), new_sim());
    twin.set_trace_sink(Box::new(NoTrace));
    let mut shadow = ShadowGuards {
        config: Vec::new(),
        stats: RunStats {
            moves_per_rule: vec![0; algo.rule_count()],
            ..RunStats::default()
        },
        front: Vec::new(),
        twin,
    };
    shadow.front = shadow.check(&sim);
    let segment = |sim: &mut Simulator<'_, A>, shadow: &mut ShadowGuards<'_, A>| {
        sim.execution().cap(STEPS).observe(shadow).run();
    };
    segment(&mut sim, &mut shadow);
    if d.inject {
        let donor = arbitrary(d.seed ^ 0xD0_D0);
        for u in g
            .nodes()
            .filter(|u| (u.index() as u64 + d.seed).is_multiple_of(3))
        {
            sim.inject(u, donor[u.index()].clone());
            shadow.twin.inject(u, donor[u.index()].clone());
            shadow.stats.guard_evals += 1 + g.degree(u) as u64;
        }
        // A fault restarts the round from the configuration it left.
        shadow.front = shadow.check(&sim);
        segment(&mut sim, &mut shadow);
    }
}

/// Arbitrary mono-reset states: any wave phase, any clock.
fn mono_arbitrary(g: &Graph, period: u64, seed: u64) -> Vec<MonoState<u64>> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    g.nodes()
        .map(|_| MonoState {
            phase: match rng.below(4) {
                0 => Phase::Idle,
                1 => Phase::Req,
                2 => Phase::RB,
                _ => Phase::RF,
            },
            inner: rng.below(period),
        })
        .collect()
}

/// Every standard label's algorithm, from arbitrary configurations.
fn check_all_labels(g: &Graph, d: &Drive) {
    let algo = Sdr::new(Agreement::new(5));
    shadowed(g, &algo, |s| algo.arbitrary_config(g, s), d);

    let algo = unison_sdr(Unison::for_graph(g));
    shadowed(g, &algo, |s| algo.arbitrary_config(g, s), d);

    let unison = Unison::for_graph(g);
    let arbitrary = |s| validate::arbitrary_standalone_config(&unison, g, s);
    shadowed(g, &Standalone::new(unison.clone()), arbitrary, d);

    let algo = CfgUnison::for_graph(g);
    shadowed(g, &algo, |s| algo.arbitrary_config(g, s), d);

    let algo = MonoReset::new(g, Unison::for_graph(g), NodeId(0));
    let k = algo.input().period();
    shadowed(g, &algo, |s| mono_arbitrary(g, k, s), d);

    for preset in PresetSpec::all() {
        let Some(fga) = preset.build(g) else {
            continue;
        };
        let arbitrary = |s| validate::arbitrary_standalone_config(&fga, g, s);
        shadowed(g, &Standalone::new(fga.clone()), arbitrary, d);

        let algo = Sdr::new(fga);
        shadowed(g, &algo, |s| algo.arbitrary_config(g, s), d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental masks, enabled set and legitimacy count equal a
    /// from-scratch recomputation after every step, every step is the
    /// composite-atomicity transition of its moves, the move, round
    /// and guard-evaluation counters equal their definition, and a
    /// traced twin steps identically, for every standard label's
    /// algorithm × daemon × intra-run thread count.
    #[test]
    fn incremental_guards_match_a_full_recompute(
        n in 2usize..=64,
        extra in 0usize..24,
        graph_seed in 0u64..100_000,
        seed in 0u64..100_000,
        daemon_idx in 0usize..9,
        threads_idx in 0usize..3,
        inject in 0u8..2,
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        let d = Drive {
            daemon: Daemon::all_strategies()[daemon_idx].clone(),
            seed,
            threads: [1, 2, 4][threads_idx],
            inject: inject == 1,
        };
        check_all_labels(&g, &d);
    }
}
