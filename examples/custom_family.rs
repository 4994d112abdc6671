//! Bring your own algorithm: define a brand-new input algorithm,
//! compose it with SDR, register it as a first-class family, and run
//! a full stochastic campaign **plus** an E13-style exhaustive
//! schedule-space sweep — without touching a single workspace crate.
//!
//! The paper's headline result is that SDR is a *transformer*: it
//! self-stabilizes **any** input algorithm satisfying the §3.5
//! requirements, not just the published unison/alliance
//! instantiations. This example is that claim at the API level. The
//! input here — `Cooldown`, a relaxation process where local maxima
//! decrement toward zero — exists nowhere in the workspace; ten lines
//! of `ResetInput` plus one `composed()` call give it:
//!
//! * the generic paper verdicts (Cor. 5: ≤ 3n recovery rounds; Cor. 4:
//!   ≤ 3n+3 SDR moves per process) checked on every campaign run,
//! * a registry label (`cooldown`) usable on any campaign axis next to
//!   the standard families,
//! * exhaustive exploration with exact worst cases, witness replay,
//!   and the stochastic-domination cross-check.
//!
//! Run with: `cargo run --release --example custom_family`

use std::sync::Arc;

use ssr::analyze;
use ssr::campaign::{families, Campaign, InitPlan, Scenario, Sweep, TopologySpec};
use ssr::core::family::composed;
use ssr::core::{validate, ResetInput};
use ssr::explore::campaign::{explore_scenario_in, stochastic_max_in, ScenarioExploreOptions};
use ssr::graph::NodeId;
use ssr::runtime::family::{AlgorithmSpec, FamilyRegistry};
use ssr::runtime::rng::Xoshiro256StarStar;
use ssr::runtime::{AnalyzeOptions, Daemon, RuleId, RuleMask, StateView};

/// The new input algorithm: a bounded *relaxation* process. Every
/// process holds `x ∈ {0, …, cap}`; a process that is a local maximum
/// with `x > 0` decrements. The system is silent exactly when every
/// value is zero.
///
/// Requirements (§3.5): 2b/2e — `P_reset ≡ x = 0`, the reset value;
/// 2d — an all-zero closed neighborhood has unit gaps, so
/// `P_ICorrect` holds; 2a — a decrementing local maximum keeps all
/// its own gaps within one (no neighbor exceeds it before the move),
/// so `P_ICorrect` is closed under the rule.
#[derive(Clone, Debug)]
struct Cooldown {
    cap: u32,
}

impl Cooldown {
    fn new(cap: u32) -> Self {
        Cooldown { cap }
    }
}

impl ResetInput for Cooldown {
    type State = u32;

    fn rule_count(&self) -> usize {
        1
    }

    fn rule_name(&self, _: RuleId) -> &'static str {
        "rule_dec"
    }

    fn enabled_mask<V: StateView<u32>>(&self, u: NodeId, view: &V) -> RuleMask {
        let x = *view.state(u);
        let local_max = view
            .graph()
            .neighbors(u)
            .iter()
            .all(|&v| *view.state(v) <= x);
        RuleMask::from_bool(x > 0 && local_max)
    }

    fn apply<V: StateView<u32>>(&self, u: NodeId, view: &V, _: RuleId) -> u32 {
        *view.state(u) - 1
    }

    fn p_icorrect<V: StateView<u32>>(&self, u: NodeId, view: &V) -> bool {
        let x = *view.state(u);
        view.graph()
            .neighbors(u)
            .iter()
            .all(|&v| view.state(v).abs_diff(x) <= 1)
    }

    fn p_reset(&self, _: NodeId, state: &u32) -> bool {
        *state == 0
    }

    fn reset_state(&self, _: NodeId) -> u32 {
        0
    }

    fn arbitrary_state(&self, _: NodeId, rng: &mut Xoshiro256StarStar) -> u32 {
        rng.below(self.cap as u64 + 1) as u32
    }
}

fn main() {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());

    // ---- 1. Compose and register ------------------------------------
    //
    // `composed()` wraps the input into `Cooldown ∘ SDR` with the
    // input-independent Cor. 4/5 verdicts; `Cooldown::State = u32`
    // already has a canonical `ExploreState` encoding, so the family
    // is exhaustively explorable for free. The registry starts from
    // the standard families, so the new label lives next to
    // `unison-sdr` and friends on the same campaign axes.
    let mut registry: FamilyRegistry = families::standard_families();
    registry.register(Arc::new(composed("cooldown", |_| Some(Cooldown::new(2)))));

    let spec: AlgorithmSpec = "cooldown".parse().unwrap();
    assert_eq!(spec.label(), "cooldown", "labels round-trip");
    let family = registry.resolve(&spec).expect("registered");

    // The §3.5 requirement checks guard against mis-registration, and
    // the 2a closure probe samples real executions.
    let g = TopologySpec::Ring.build(8, 0);
    family
        .requirements(&g)
        .expect("composed families are checkable")
        .expect("Cooldown satisfies requirements 2d/2e");
    let input = Cooldown::new(2);
    let init = validate::arbitrary_standalone_config(&input, &g, 7);
    validate::check_icorrect_closed_on_run(&input, &g, init, Daemon::Synchronous, 7, 5_000)
        .expect("requirement 2a holds along executions");
    println!(
        "registered family {:?} — §3.5 requirements verified\n",
        family.id()
    );

    // ---- 2. A full stochastic campaign ------------------------------
    //
    // The new family on a standard grid, side by side with U ∘ SDR:
    // same axes, same engine, same determinism contract — resolved
    // through the caller's registry with `Sweep::registry`.
    let campaign = Campaign::new("cooldown-campaign")
        .topologies(vec![
            TopologySpec::Ring,
            TopologySpec::Star,
            TopologySpec::RandTree,
        ])
        .sizes(vec![6, 10])
        .algorithms(vec![spec.clone(), families::unison_sdr()])
        .daemons(vec![Daemon::Central, Daemon::RandomSubset { p: 0.5 }])
        .inits(vec![InitPlan::Arbitrary, InitPlan::Normal])
        .trials(2)
        .step_cap(2_000_000)
        .seed(0xC001);
    let records = Sweep::of(&campaign)
        .threads(threads)
        .registry(&registry)
        .run();
    println!(
        "campaign '{}': {} runs on {} threads",
        campaign.id(),
        records.len(),
        threads
    );
    for rec in records.iter().filter(|r| r.algorithm == "cooldown").take(4) {
        println!(
            "  {:<9} n={:<2} {:<9} {:<9} rounds={:<3} ≤ 3n={} moves/proc={} verdict={}",
            rec.topology,
            rec.nodes,
            rec.daemon,
            rec.init,
            rec.rounds,
            rec.bound_rounds.unwrap(),
            rec.max_moves_per_process,
            rec.verdict
        );
    }
    assert!(
        records.iter().all(|r| r.verdict.ok()),
        "every run satisfies the generic Cor. 4/5 bounds"
    );
    let worst = records
        .iter()
        .filter(|r| r.algorithm == "cooldown")
        .map(|r| r.rounds)
        .max()
        .unwrap();
    println!("  … worst cooldown recovery over the whole grid: {worst} rounds\n");

    // ---- 3. An E13-style exhaustive sweep ----------------------------
    //
    // Exactly what experiment E13 does for the built-in families:
    // exhaust every distributed-daemon schedule from the family's
    // canonical seed set, check the exact worst case against the
    // closed-form bound, replay the witnesses, and cross-validate that
    // stochastic maxima over the same initial configurations never
    // exceed the exact optimum.
    let opts = ScenarioExploreOptions::default();
    println!("exhaustive sweep (every distributed-daemon schedule):");
    for (topology, n) in [
        (TopologySpec::Path, 4),
        (TopologySpec::Ring, 4),
        (TopologySpec::Star, 4),
        (TopologySpec::Caterpillar, 5),
    ] {
        let sc = Scenario {
            index: 0,
            topology,
            n,
            algorithm: spec.clone(),
            daemon: Daemon::Central,
            init: InitPlan::Arbitrary,
            trial: 0,
            seed: 0xE13,
            step_cap: 1_000_000,
            intra_threads: 1,
        };
        let exact = explore_scenario_in(&registry, &sc, &opts).expect("cooldown explores");
        let stoch = stochastic_max_in(&registry, &sc, &opts).expect("cooldown explores");
        assert!(
            exact.ok(),
            "closure + convergence + bounds + replay: {exact:?}"
        );
        assert!(stoch.all_reached);
        assert!(stoch.moves <= exact.exact_moves && stoch.rounds <= exact.exact_rounds);
        println!(
            "  {:<11} n={} states={:<6} exact moves/rounds={}/{} (bound rounds {}), \
             stochastic max {}/{} — verified",
            exact.topology,
            exact.nodes,
            exact.states,
            exact.exact_moves,
            exact.exact_rounds,
            exact.bound_rounds.unwrap(),
            stoch.moves,
            stoch.rounds
        );
    }

    // ---- 4. Static soundness certification ---------------------------
    //
    // The step pipeline's fast paths are only correct for families
    // that honor locality, non-adjacent commutativity, and RNG
    // discipline (DESIGN.md §11). A registered `composed()` family
    // gets the analysis hook for free — certify it exactly the way
    // the CI gate certifies the standard registry.
    let report = analyze::analyze_family(family.as_ref(), &AnalyzeOptions::default());
    assert!(
        report.analyzable && report.certified(),
        "cooldown must satisfy the §11 soundness obligations: {:?}",
        report.findings().collect::<Vec<_>>()
    );
    println!(
        "static analysis: certified on {} graphs ({} configurations, {} findings)",
        report.graphs.len(),
        report.graphs.iter().map(|g| g.configs).sum::<usize>(),
        report.error_count() + report.warning_count(),
    );

    println!("\nCooldown ∘ SDR: a family the workspace has never heard of, verified end to end.");
}
