//! `e10-narrow`: E10's cooperation ablation grid — `U ∘ SDR` vs
//! `cfg-unison` on ring/path, n ∈ {16, 32, 64}, tear gaps 3 and n/2,
//! central daemon — through `ssr_campaign::engine` at nproc workers,
//! with the baseline step cap scaled down so one grid takes about a
//! third of a second on two cores.
//!
//! A job is one submission of the grid to `engine::run_in`, which
//! simulates every scenario: the workload has cold jobs only. Round k
//! submits its own grid, seeded from the workload seed and k.

use std::hint::black_box;
use std::time::Instant;

use ssr_baselines::CfgUnison;
use ssr_campaign::output::Json;
use ssr_campaign::{
    engine, families, Amount, Campaign, InitPlan, Scenario, ScenarioRecord, TopologySpec, Verdict,
};
use ssr_graph::Graph;
use ssr_obs::pipeline::PipelineMetrics;
use ssr_runtime::family::{ExecBudget, FamilyRegistry, RunSeeds};
use ssr_runtime::{Daemon, Simulator, StepOutcome, TerminationReason};
use ssr_unison::workloads::{unison_tear, unison_tear_plain};
use ssr_unison::{spec, unison_sdr, Unison};

use crate::layers::{self, ReplayStats};
use crate::util::{self, median, mix, secs, Checks, Counters, Metrics, Outcome, Round};
use crate::Args;

/// Set-up takes microseconds, so each round times it this often.
const SETUP_REPS: usize = 200;
/// Per-step spans are sampled every `SAMPLE_EVERY` steps.
pub const SAMPLE_EVERY: u64 = 1024;

struct Sizes {
    sizes: Vec<usize>,
    cap: u64,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            sizes: vec![8, 16],
            cap: 20_000,
        }
    } else {
        Sizes {
            sizes: vec![16, 32, 64],
            cap: 500_000,
        }
    }
}

/// The grid of round `round` for workload seed `seed`.
fn campaign(seed: u64, round: usize, smoke: bool) -> Campaign {
    let s = sizes(smoke);
    Campaign::new("e10-narrow")
        .topologies(vec![TopologySpec::Ring, TopologySpec::Path])
        .sizes(s.sizes)
        .algorithms(vec![families::unison_sdr(), families::cfg_unison()])
        .daemons(vec![Daemon::Central])
        .inits(vec![
            InitPlan::Tear {
                gap: Amount::Fixed(3),
            },
            InitPlan::Tear { gap: Amount::HalfN },
        ])
        .trials(1)
        .step_cap(s.cap)
        .seed(mix(mix(seed, 0xE10), round as u64))
}

/// The E10 verdicts: `U ∘ SDR` passes within its Thm 6/7 bounds, the
/// baseline either recovers or explicitly exhausts its cap.
fn check_records(records: &[ScenarioRecord], expected: usize, checks: &mut Checks) {
    checks.check(records.len() == expected, || {
        format!("{} records for {expected} scenarios", records.len())
    });
    let sdr = families::unison_sdr().label();
    for r in records {
        if r.algorithm == sdr {
            let within = r.verdict == Verdict::Pass
                && r.bound_rounds.is_some_and(|b| r.rounds <= b)
                && r.bound_moves.is_some_and(|b| r.moves <= b);
            checks.check(within, || format!("U∘SDR outside Thm 6/7 bounds: {r:?}"));
        } else {
            let ok = r.reached || r.reason == Some(TerminationReason::CapExhausted);
            checks.check(ok, || format!("cfg neither reached nor capped: {r:?}"));
        }
    }
}

struct Setup {
    registry: FamilyRegistry,
    campaign: Campaign,
}

fn setup(args: &Args, round: usize) -> (Setup, f64) {
    let t = Instant::now();
    let s = Setup {
        registry: families::standard_families(),
        campaign: campaign(args.seed, round, args.smoke),
    };
    (s, secs(t))
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let workers = util::nproc();
    let mut checks = Checks::default();
    // Counters of the rounds every run makes, so that they do not
    // depend on how many rounds fit in `--seconds`.
    let (mut steps, mut moves, mut sim_rounds, mut scenarios) = (0, 0, 0, 0);
    let (rounds, peak_rss_mb) = util::rounds(args.seconds, |k| {
        // Set-up takes microseconds: time it repeatedly.
        let setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup(args, k).1).collect();
        let (s, _) = setup(args, k);
        let t = Instant::now();
        let records = engine::run_in(&s.registry, &s.campaign, workers);
        let wall_s = secs(t);
        check_records(&records, s.campaign.len(), &mut checks);
        let round_steps = records.iter().map(|r| r.steps).sum();
        if k < util::MIN_ROUNDS {
            steps += round_steps;
            moves += records.iter().map(|r| r.moves).sum::<u64>();
            sim_rounds += records.iter().map(|r| r.rounds).sum::<u64>();
            scenarios += records.len() as u64;
        }
        Round {
            setup_s: median(&setups),
            wall_s,
            steps: round_steps,
            cold_ms: vec![wall_s * 1e3],
            ..Round::default()
        }
    });
    let mut counters = Counters::default();
    counters.put("steps", steps);
    counters.put("moves", moves);
    counters.put("rounds", sim_rounds);
    counters.put("scenarios", scenarios);
    let e2e = util::E2e {
        rounds,
        peak_rss_mb,
    };
    Outcome {
        metrics: e2e.metrics(),
        counters,
        checks,
        notes: vec![e2e.samples_note(vec![("workers", Json::U64(workers as u64))])],
    }
}

/// The traced run: a reference pass and a 1-worker pass (determinism),
/// a single-threaded replay of every scenario (exact counters, sampled
/// step and predicate spans), the exec-layer split, kernel timings and
/// the derived step split on the focus scenario, then untraced and
/// traced engine passes in alternation until `--seconds` have passed.
fn traced(args: &Args) -> Outcome {
    let started = Instant::now();
    let workers = util::nproc();
    let mut checks = Checks::default();
    let log = util::SpanLog::new();
    let (s, _) = setup(args, 0);

    let reference = engine::run_in(&s.registry, &s.campaign, workers);
    check_records(&reference, s.campaign.len(), &mut checks);
    let one = engine::run_in(&s.registry, &s.campaign, 1);
    checks.check(one == reference, || {
        "records at 1 worker differ from nproc workers".into()
    });
    let (focus, focus_rec) = focus(&s.campaign, &reference);

    // Replay every scenario outside the family, mirroring its run; the
    // focus scenario's own counts and mid-run configuration are kept.
    let mut replay = ReplayStats::default();
    let mut focused: Option<(Graph, Vec<u64>, ReplayStats)> = None;
    for (sc, rec) in s.campaign.scenarios().zip(&reference) {
        let [graph_seed, _, sim_seed, _] = sc.seeds::<4>();
        let t = Instant::now();
        let g = sc.topology.build(sc.n, graph_seed);
        replay.graph_build_ns += t.elapsed().as_nanos() as u64;
        let nn = g.node_count() as u64;
        let InitPlan::Tear { gap } = sc.init else {
            unreachable!("the grid holds tears only")
        };
        let mut one = ReplayStats::default();
        if sc.algorithm == families::unison_sdr() {
            let algo = unison_sdr(Unison::for_graph(&g));
            let check = unison_sdr(Unison::for_graph(&g));
            let init = unison_tear(&g, algo.input().period(), gap.resolve(nn));
            let t = Instant::now();
            let sim = Simulator::new(&g, algo, init, sc.daemon.clone(), sim_seed);
            replay.sim_init_ns += t.elapsed().as_nanos() as u64;
            layers::replay(sim, sc.step_cap, SAMPLE_EVERY, &mut one, &log, |gr, st| {
                check.is_normal_config(gr, st)
            });
        } else {
            let algo = CfgUnison::for_graph(&g);
            let period = algo.period();
            let init = unison_tear_plain(&g, period, gap.resolve(nn));
            let t = Instant::now();
            let sim = Simulator::new(&g, algo, init, sc.daemon.clone(), sim_seed);
            replay.sim_init_ns += t.elapsed().as_nanos() as u64;
            let mid = layers::replay(sim, sc.step_cap, SAMPLE_EVERY, &mut one, &log, |gr, st| {
                spec::safety_holds(gr, st, period)
            });
            if sc.index == focus.index {
                focused = Some((g, mid, one.clone()));
            }
        }
        checks.check((one.steps, one.moves) == (rec.steps, rec.moves), || {
            format!("replay of scenario {} diverged from its record", sc.index)
        });
        replay.add(&one);
    }
    let (g, mid, focus_stats) = focused.expect("the focus scenario was replayed");
    let split = exec_split(&s.registry, &focus, focus_rec);
    let algo = CfgUnison::for_graph(&g);
    let kernels = layers::kernel_costs(&g, &algo, &mid);
    let sink_ratio = timed_sink_ratio(&g, &algo, &mid);
    let par_speedup = crate::torus::par_speedup(args, &log, &mut checks);

    // Untraced and traced passes alternate, so that drift on the host
    // hits both sides of `trace.overhead` alike.
    let (mut untraced, mut passes) = (Vec::new(), Vec::new());
    while passes.len() < 2 || secs(started) < args.seconds {
        let t = Instant::now();
        let records = engine::run_in(&s.registry, &s.campaign, workers);
        untraced.push(secs(t));
        checks.check(records == reference, || "untraced pass differs".into());
        passes.push(layers::timed_engine_pass(
            &s.registry,
            &s.campaign,
            workers,
            &log,
            SAMPLE_EVERY,
        ));
    }
    let traced_walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();

    let mut metrics = Metrics::default();
    layers::put_step_metrics(
        &mut metrics,
        &replay,
        &focus_stats,
        split.step_ns,
        &kernels,
        par_speedup,
    );
    layers::put_exec_metrics(&mut metrics, &passes, Some(&split), replay.predicate_calls);
    layers::put_engine_metrics(&mut metrics, &passes, workers, s.campaign.len() as u64);
    metrics.put(
        "trace.overhead",
        median(&traced_walls) / median(&untraced),
        "x",
    );
    metrics.put("obs.timed_sink_ratio", sink_ratio, "x");

    let mut counters = Counters::default();
    counters.put("steps", replay.steps);
    counters.put("moves", replay.moves);
    counters.put("rounds", reference.iter().map(|r| r.rounds).sum());
    counters.put("guards.evals", replay.guard_evals);
    counters.put("exec.predicate_calls", replay.predicate_calls);
    counters.put("engine.scenarios", s.campaign.len() as u64);
    counters.put("focus.scenario", focus.index as u64);
    let spans = log
        .write(
            &args
                .out_dir
                .join(format!("spans-e10-narrow-seed{}.jsonl", args.seed)),
        )
        .unwrap_or(0);
    metrics.put("obs.spans", spans as f64, "count");
    let notes = vec![util::note(
        "trace",
        vec![
            ("spans", Json::U64(spans as u64)),
            ("sample_every", Json::U64(SAMPLE_EVERY)),
            ("passes", Json::U64(passes.len() as u64)),
            ("untraced_wall_s", Json::F64(median(&untraced))),
            ("traced_wall_s", Json::F64(median(&traced_walls))),
        ],
    )];
    Outcome {
        metrics: layers::finish(metrics),
        counters,
        checks,
        notes,
    }
}

/// The scenario the step and exec splits are measured on: the
/// `cfg-unison` scenario that took the most steps (usually a capped
/// ring at the largest n), since the baseline's long runs are where the
/// grid's time goes.
fn focus<'r>(campaign: &Campaign, records: &'r [ScenarioRecord]) -> (Scenario, &'r ScenarioRecord) {
    let cfg = families::cfg_unison();
    campaign
        .scenarios()
        .zip(records)
        .filter(|(sc, _)| sc.algorithm == cfg)
        .max_by_key(|(sc, r)| (r.steps, sc.index))
        .expect("the grid has cfg-unison scenarios")
}

/// Per-step costs of the focus scenario, single-threaded and with no
/// clock read inside a loop: `Family::run` as a whole, the same loop
/// driven here (step, then stop predicate), and the steps alone. All
/// three execute the record's step sequence. Medians of three.
fn exec_split(registry: &FamilyRegistry, sc: &Scenario, rec: &ScenarioRecord) -> layers::ExecSplit {
    let InitPlan::Tear { gap } = sc.init else {
        unreachable!("the grid holds tears only")
    };
    let [graph_seed, init_seed, sim_seed, fault_seed] = sc.seeds::<4>();
    let g = sc.topology.build(sc.n, graph_seed);
    let family = registry
        .resolve(&sc.algorithm)
        .expect("cfg-unison is a standard family");
    let algo = CfgUnison::for_graph(&g);
    let period = algo.period();
    let init = unison_tear_plain(&g, period, gap.resolve(g.node_count() as u64));
    let fresh = || Simulator::new(&g, algo.clone(), init.clone(), sc.daemon.clone(), sim_seed);
    let (mut whole, mut looped, mut stepped) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        black_box(family.run(
            &g,
            &sc.init,
            &sc.daemon,
            RunSeeds {
                init: init_seed,
                sim: sim_seed,
                fault: fault_seed,
            },
            ExecBudget::steps(sc.step_cap),
            None,
        ));
        whole.push(secs(t));
        let mut sim = fresh();
        let t = Instant::now();
        let mut held = spec::safety_holds(&g, sim.states(), period);
        let mut steps = 0;
        while !held && steps < sc.step_cap {
            black_box(sim.step());
            held = spec::safety_holds(sim.graph(), sim.states(), period);
            steps += 1;
        }
        looped.push(secs(t));
        let mut sim = fresh();
        let t = Instant::now();
        for _ in 0..rec.steps {
            black_box(sim.step());
        }
        stepped.push(secs(t));
    }
    let per_step = |v: &[f64]| median(v) * 1e9 / rec.steps.max(1) as f64;
    layers::ExecSplit {
        family_ns: per_step(&whole),
        loop_ns: per_step(&looped),
        step_ns: per_step(&stepped),
    }
}

/// Bare `sim.step()` loop on the configuration `init`, with vs
/// without the timed `PipelineMetrics` sink: the instrument cost that
/// `scale` pays on narrow runs.
fn timed_sink_ratio(g: &Graph, algo: &CfgUnison, init: &[u64]) -> f64 {
    const STEPS: u64 = 400_000;
    let run = |with_sink: bool| {
        let mut sim = Simulator::new(g, algo.clone(), init.to_vec(), Daemon::Central, 7);
        if with_sink {
            sim.set_trace_sink(Box::new(PipelineMetrics::new()));
        }
        let t = Instant::now();
        for _ in 0..STEPS {
            if let StepOutcome::Terminal = sim.step() {
                break;
            }
        }
        secs(t)
    };
    let bare: Vec<f64> = (0..3).map(|_| run(false)).collect();
    let timed: Vec<f64> = (0..3).map(|_| run(true)).collect();
    median(&timed) / median(&bare)
}
