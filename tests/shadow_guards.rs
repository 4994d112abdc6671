//! Shadow guard oracle: after every step, every node's guard is
//! recomputed from scratch and compared with the simulator's
//! incremental state — the mask cache (`enabled_mask_of`), the enabled
//! bitset and the enabled list, the failing-legitimacy count
//! (`illegitimate_count`) and `is_legitimate` — and the step's
//! transition is replayed against the configuration before it.
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
use ssr_runtime::{Algorithm, ConfigView, Daemon, Observer, Simulator, StepOutcome};
use ssr_unison::{unison_sdr, Unison};

/// Steps per run segment.
const STEPS: u64 = 150;

/// Test-only observer: recomputes every guard after each step and
/// asserts the simulator's incremental view agrees with it, and checks
/// each step's transition against the configuration it last checked.
struct ShadowGuards<S> {
    /// The configuration at the last check.
    config: Vec<S>,
    checks: u64,
}

impl<S: Clone + PartialEq + std::fmt::Debug> ShadowGuards<S> {
    fn new() -> Self {
        ShadowGuards {
            config: Vec::new(),
            checks: 0,
        }
    }

    /// Checks the masks, enabled set and legitimacy count of the
    /// current configuration, then keeps that configuration for the
    /// next step's transition.
    fn check<A: Algorithm<State = S>>(&mut self, sim: &Simulator<'_, A>) {
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
        let bits: Vec<NodeId> = sim
            .enabled_bits()
            .iter()
            .map(|i| NodeId(i as u32))
            .collect();
        assert_eq!(bits, enabled, "enabled bitset after step {step}");
        assert_eq!(
            sim.enabled_nodes_sorted(),
            enabled,
            "enabled list after step {step}"
        );
        assert_eq!(sim.is_terminal(), enabled.is_empty());
        self.config = sim.states().to_vec();
        self.checks += 1;
    }

    /// Checks the last step as a composite-atomicity transition from
    /// the kept configuration: each move's rule was enabled there, each
    /// mover's new state is its rule's action computed there, and no
    /// other node changed.
    fn check_transition<A: Algorithm<State = S>>(&self, sim: &Simulator<'_, A>) {
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
}

impl<A: Algorithm> Observer<A> for ShadowGuards<A::State> {
    fn on_step(&mut self, sim: &Simulator<'_, A>, _outcome: &StepOutcome) {
        self.check_transition(sim);
        self.check(sim);
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
    let mut sim = Simulator::new(g, algo.clone(), arbitrary(d.seed), d.daemon.clone(), d.seed);
    // Engage the parallel kernels even on these small graphs.
    sim.set_par_threshold(0);
    let mut shadow = ShadowGuards::new();
    shadow.check(&sim);
    let segment = |sim: &mut Simulator<'_, A>, shadow: &mut ShadowGuards<A::State>| {
        sim.execution()
            .cap(STEPS)
            .intra_threads(d.threads)
            .observe(shadow)
            .run();
    };
    segment(&mut sim, &mut shadow);
    if d.inject {
        let donor = arbitrary(d.seed ^ 0xD0_D0);
        for u in g
            .nodes()
            .filter(|u| (u.index() as u64 + d.seed).is_multiple_of(3))
        {
            sim.inject(u, donor[u.index()].clone());
        }
        shadow.check(&sim);
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
    /// from-scratch recomputation after every step, and every step is the
    /// composite-atomicity transition of its moves, for every standard
    /// label's algorithm × daemon × intra-run thread count.
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
