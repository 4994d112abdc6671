//! `torus-wide`: `Agreement ∘ SDR` (as in `scale`) from
//! `arbitrary_config` on a 1000×1000 torus under the synchronous
//! daemon, run to termination at nproc intra-run threads.
//!
//! Set-up is the graph build plus `Simulator::new` (the initial guard
//! pass over every node). A round's one job converges the fresh
//! simulator from the arbitrary configuration: the workload has cold
//! jobs only.
//!
//! Each round converges its own configuration, drawn from the workload
//! seed and the round's index. A convergence takes 19 to 21 steps
//! depending on its input, so a single configuration would make a
//! run's figures move by ~10% with the seed; a median over a run's
//! rounds covers a dozen configurations instead.

use std::time::Instant;

use ssr_campaign::output::Json;
use ssr_core::toys::Agreement;
use ssr_core::{Composed, Sdr};
use ssr_graph::{generators, Graph};
use ssr_runtime::{Daemon, Simulator, StepOutcome};

use crate::layers::{self, Kernels, RefreshCounter, ReplayStats};
use crate::util::{self, median, mix, secs, Checks, Counters, Metrics, Outcome, Round};
use crate::Args;

type Algo = Sdr<Agreement>;
type State = Composed<u32>;

fn side(smoke: bool) -> usize {
    if smoke {
        60
    } else {
        1000
    }
}

fn algo() -> Algo {
    Sdr::new(Agreement::new(8))
}

/// Cor. 5: synchronous steps are rounds, so `3n + 16` bounds them.
fn step_bound(g: &Graph) -> u64 {
    3 * g.node_count() as u64 + 16
}

/// Steps `sim` to termination within `cap`; returns (steps, seconds).
fn converge(sim: &mut Simulator<'_, Algo>, cap: u64) -> (u64, f64) {
    let before = sim.stats().steps;
    let t = Instant::now();
    for _ in 0..cap {
        if let StepOutcome::Terminal = sim.step() {
            break;
        }
    }
    (sim.stats().steps - before, secs(t))
}

/// The (configuration, simulator) seeds of round `k`.
fn round_seeds(seed: u64, k: usize) -> (u64, u64) {
    let k = 2 * k as u64;
    (mix(seed, k + 1), mix(seed, k + 2))
}

fn check_converged(
    sim: &Simulator<'_, Algo>,
    steps: u64,
    cap: u64,
    what: &str,
    checks: &mut Checks,
) {
    let ok = sim.is_terminal()
        && steps <= cap
        && sim.algorithm().is_normal_config(sim.graph(), sim.states());
    checks.check(ok, || {
        format!("{what}: not terminal and normal within {cap} steps (took {steps})")
    });
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let threads = util::nproc();
    let side = side(args.smoke);
    let mut checks = Checks::default();
    // Steps and moves of the rounds every run makes, so that the
    // counters do not depend on how many rounds fit in `--seconds`.
    let (mut steps, mut moves) = (0, 0);
    let (rounds, peak_rss_mb) = util::rounds(args.seconds, |k| {
        let (init_seed, sim_seed) = round_seeds(args.seed, k);
        let t = Instant::now();
        let g = generators::torus(side, side);
        let build = secs(t);
        // Input generation stays outside the timed set-up.
        let init = algo().arbitrary_config(&g, init_seed);
        let t = Instant::now();
        let mut sim = Simulator::new(&g, algo(), init, Daemon::Synchronous, sim_seed);
        sim.set_intra_threads(threads);
        let setup_s = build + secs(t);
        let cap = step_bound(&g);
        let (round_steps, wall_s) = converge(&mut sim, cap);
        check_converged(&sim, round_steps, cap, "run", &mut checks);
        if k < util::MIN_ROUNDS {
            steps += round_steps;
            moves += sim.stats().moves;
        }
        Round {
            setup_s,
            wall_s,
            steps: round_steps,
            cold_ms: vec![wall_s * 1e3],
            ..Round::default()
        }
    });
    let mut counters = Counters::default();
    // Synchronous steps are rounds.
    counters.put("steps", steps);
    counters.put("moves", moves);
    let e2e = util::E2e {
        rounds,
        peak_rss_mb,
    };
    Outcome {
        metrics: e2e.metrics(),
        counters,
        checks,
        notes: vec![e2e.samples_note(vec![("intra_threads", Json::U64(threads as u64))])],
    }
}

/// One fully timed convergence: every step is a span, and (when
/// asked) the guard evaluations of every refresh are counted.
struct TimedRun {
    steps: u64,
    moves: u64,
    guard_evals: u64,
    step_ns: Vec<u64>,
    wall_s: f64,
    mid: Vec<State>,
    last: Vec<State>,
}

fn timed_run(
    g: &Graph,
    init: Vec<State>,
    seed: u64,
    threads: usize,
    mid_step: u64,
    count_evals: bool,
    log: &util::SpanLog,
) -> TimedRun {
    let mut sim = Simulator::new(g, algo(), init, Daemon::Synchronous, seed);
    sim.set_intra_threads(threads);
    let mut refresh = RefreshCounter::new(g.node_count());
    let mut step_ns = Vec::new();
    let mut spans = Vec::new();
    let (mut guard_evals, mut mid) = (0, None);
    let start = Instant::now();
    for _ in 0..step_bound(g) {
        let t0 = Instant::now();
        if let StepOutcome::Terminal = sim.step() {
            break;
        }
        let t1 = Instant::now();
        spans.push((t0, t1));
        step_ns.push((t1 - t0).as_nanos() as u64);
        if count_evals {
            guard_evals += refresh.count(&sim);
        }
        if sim.stats().steps == mid_step {
            mid = Some(sim.states().to_vec());
        }
    }
    let end = Instant::now();
    let id = log.record(&format!("converge.t{threads}"), start, end, None, threads);
    for (a, b) in spans {
        log.record("step", a, b, Some(id), threads);
    }
    TimedRun {
        steps: sim.stats().steps,
        moves: sim.stats().moves,
        guard_evals,
        step_ns,
        wall_s: (end - start).as_secs_f64(),
        mid: mid.unwrap_or_else(|| sim.states().to_vec()),
        last: sim.states().to_vec(),
    }
}

/// `step.par_speedup` on round 0's configuration: 1-thread step time ÷
/// nproc-thread step time over one convergence each, whose final
/// configurations must be byte-equal. `e10-narrow`'s traced run reports
/// it, since its own graphs are too small to split.
pub fn par_speedup(args: &Args, log: &util::SpanLog, checks: &mut Checks) -> f64 {
    let threads = util::nproc();
    let side = side(args.smoke);
    let g = generators::torus(side, side);
    let (init_seed, sim_seed) = round_seeds(args.seed, 0);
    let init = algo().arbitrary_config(&g, init_seed);
    let par = timed_run(&g, init.clone(), sim_seed, threads, 0, false, log);
    let one = timed_run(&g, init, sim_seed, 1, 0, false, log);
    checks.check(one.last == par.last, || {
        format!("final configuration differs between 1 and {threads} intra-run threads")
    });
    one.step_ns.iter().sum::<u64>() as f64 / par.step_ns.iter().sum::<u64>().max(1) as f64
}

/// The traced run, repeated until `--seconds` have passed: timed
/// set-up, an untraced convergence, then a convergence with a span per
/// step at nproc threads and one at 1 thread (counting guard
/// evaluations); the three final configurations must be byte-equal.
/// Kernel timings use the configuration halfway through the first run.
fn traced(args: &Args) -> Outcome {
    let started = Instant::now();
    let threads = util::nproc();
    let side = side(args.smoke);
    // Round 0's input, as in the untraced run.
    let (init_seed, sim_seed) = round_seeds(args.seed, 0);
    let mut checks = Checks::default();
    let log = util::SpanLog::new();
    let (mut builds, mut inits, mut untraced, mut traced_walls) = (vec![], vec![], vec![], vec![]);
    let (mut step_ns, mut speedups) = (vec![], vec![]);
    let mut first: Option<(ReplayStats, Kernels)> = None;
    while builds.len() < 2 || secs(started) < args.seconds {
        let t0 = Instant::now();
        let g = generators::torus(side, side);
        let t1 = Instant::now();
        log.record("graph.build", t0, t1, None, 0);
        builds.push((t1 - t0).as_secs_f64());
        let init = algo().arbitrary_config(&g, init_seed);
        let t2 = Instant::now();
        let mut sim = Simulator::new(&g, algo(), init.clone(), Daemon::Synchronous, sim_seed);
        let t3 = Instant::now();
        log.record("sim.init", t2, t3, None, 0);
        inits.push((t3 - t2).as_secs_f64());
        sim.set_intra_threads(threads);
        let cap = step_bound(&g);
        let (steps, wall) = converge(&mut sim, cap);
        untraced.push(wall);
        check_converged(&sim, steps, cap, "untraced run", &mut checks);
        let reference = sim.states().to_vec();
        drop(sim);
        // Guard evaluations are counted on the 1-thread run, so the
        // nproc run carries nothing but its per-step spans.
        let par = timed_run(&g, init.clone(), sim_seed, threads, steps / 2, false, &log);
        let one = timed_run(&g, init, sim_seed, 1, steps / 2, true, &log);
        checks.check(one.last == par.last && par.last == reference, || {
            format!("final configuration differs between 1 and {threads} intra-run threads")
        });
        checks.check(par.steps == steps && one.steps == steps, || {
            "traced runs took different step counts".into()
        });
        traced_walls.push(par.wall_s);
        let par_ns: u64 = par.step_ns.iter().sum();
        step_ns.push(par_ns as f64 / par.step_ns.len().max(1) as f64);
        speedups.push(one.step_ns.iter().sum::<u64>() as f64 / par_ns.max(1) as f64);
        if first.is_none() {
            let stats = ReplayStats {
                steps: par.steps,
                moves: par.moves,
                guard_evals: one.guard_evals,
                ..ReplayStats::default()
            };
            first = Some((stats, layers::kernel_costs(&g, &algo(), &par.mid)));
        }
    }
    let (mut replay, kernels) = first.expect("at least two repetitions ran");
    replay.graph_build_ns = (median(&builds) * 1e9) as u64;
    replay.sim_init_ns = (median(&inits) * 1e9) as u64;
    let mut metrics = Metrics::default();
    layers::put_step_metrics(
        &mut metrics,
        &replay,
        &replay,
        median(&step_ns),
        &kernels,
        median(&speedups),
    );
    metrics.put(
        "trace.overhead",
        median(&traced_walls) / median(&untraced),
        "x",
    );
    let spans = log
        .write(
            &args
                .out_dir
                .join(format!("spans-torus-wide-seed{}.jsonl", args.seed)),
        )
        .unwrap_or(0);
    metrics.put("obs.spans", spans as f64, "count");
    let mut counters = Counters::default();
    counters.put("steps", replay.steps);
    counters.put("moves", replay.moves);
    counters.put("guards.evals", replay.guard_evals);
    let notes = vec![util::note(
        "trace",
        vec![
            ("spans", Json::U64(spans as u64)),
            ("repetitions", Json::U64(builds.len() as u64)),
            ("intra_threads", Json::U64(threads as u64)),
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
