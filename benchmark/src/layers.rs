//! Per-layer measurement, from outside the crates: timed engine
//! passes, a step/predicate-splitting replay, kernel timings on a
//! fixed configuration, and cache/fingerprint costs — plus the one
//! list of per-layer metric names every traced run reports.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ssr_campaign::{engine, Campaign, RecordCache, Scenario, ScenarioRecord};
use ssr_graph::Graph;
use ssr_runtime::family::{ExecBudget, FamilyProbe, FamilyRegistry, RunSeeds};
use ssr_runtime::{Algorithm, ConfigView, Simulator, StepOutcome};

use crate::util::{per_call, Metrics, SpanLog};

/// Every per-layer metric, with its unit, in report order. A traced
/// run reports all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("graph.build_s", "s"),
    ("sim.init_s", "s"),
    ("step.ns_per_step", "ns"),
    ("step.ns_per_move", "ns"),
    ("step.other_ns_per_step", "ns"),
    ("step.steps", "count"),
    ("step.moves", "count"),
    ("step.par_speedup", "x"),
    ("guards.evals", "count"),
    ("guards.kernel_ns_per_eval", "ns"),
    ("apply.kernel_ns_per_move", "ns"),
    ("exec.ns_per_step", "ns"),
    ("exec.ns_per_step.unison-sdr", "ns"),
    ("exec.ns_per_step.cfg-unison", "ns"),
    ("exec.predicate_ns", "ns"),
    ("exec.predicate_calls", "count"),
    ("exec.overhead_share", "ratio"),
    ("engine.worker_utilization", "ratio"),
    ("engine.scenario_ms_max", "ms"),
    ("engine.scenarios", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("fingerprint.ns", "ns"),
    ("checkpoint.append_us", "us"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.replay_us_per_record", "us"),
    ("output.jsonl_us_per_record", "us"),
    ("spec.parse_us", "us"),
    ("http.submit_ms", "ms"),
    ("orchestrator.queue_wait_ms", "ms"),
    ("engine.job_run_ms.cold", "ms"),
    ("engine.job_run_ms.warm", "ms"),
    ("http.records_ms", "ms"),
    ("http.records_retries", "count"),
    ("http.report_ms", "ms"),
    ("report.render_ms", "ms"),
    ("trace.overhead", "x"),
    ("obs.timed_sink_ratio", "x"),
    ("obs.spans", "count"),
];

/// Reorders `metrics` into [`PER_LAYER`] order, filling layers the
/// workload did not touch with 0.
pub fn finish(metrics: Metrics) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        let value = metrics
            .0
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v);
        out.put(name, value, unit);
    }
    debug_assert!(metrics
        .0
        .iter()
        .all(|(n, _, _)| PER_LAYER.iter().any(|(p, _)| p == n)));
    out
}

fn worker_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    thread_local! {
        static ID: Cell<usize> = const { Cell::new(0) };
    }
    ID.with(|id| {
        if id.get() == 0 {
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

/// Samples one exec-loop iteration (observer hook to observer hook:
/// stop predicate, next step, observer dispatch) every `every` steps.
struct SampleProbe {
    every: u64,
    pending: Option<Instant>,
    samples: Vec<(Instant, Instant)>,
}

impl FamilyProbe for SampleProbe {
    fn on_step(&mut self, steps: u64, _activated: usize) {
        // The clock is read on sampled iterations only.
        if let Some(start) = self.pending.take() {
            self.samples.push((start, Instant::now()));
        } else if steps.is_multiple_of(self.every) {
            self.pending = Some(Instant::now());
        }
    }
}

/// What one timed engine pass measured.
#[derive(Default)]
pub struct EnginePass {
    pub wall_s: f64,
    pub scenarios: u64,
    /// Σ per-scenario runner time, and the slowest scenario.
    pub busy_ns: u64,
    pub scenario_ns_max: u64,
    /// Per family label: Σ `Family::run` nanoseconds and Σ steps.
    pub per_label: BTreeMap<String, (u64, u64)>,
    pub graph_build_ns: u64,
}

/// Drains `campaign` through `engine::run_with` on `workers` threads
/// with a runner that mirrors `run_scenario_in` but times the graph
/// build and `Family::run` separately, recording spans as it goes.
pub fn timed_engine_pass(
    registry: &FamilyRegistry,
    campaign: &Campaign,
    workers: usize,
    log: &SpanLog,
    every: u64,
) -> EnginePass {
    let t = Instant::now();
    let results = engine::run_with(campaign, workers, |sc: Scenario| {
        let thread = worker_id();
        let t0 = Instant::now();
        let [graph_seed, init, sim, fault] = sc.seeds::<4>();
        let g = sc.topology.build(sc.n, graph_seed);
        let t1 = Instant::now();
        let family = registry
            .resolve(&sc.algorithm)
            .expect("benchmark grids use registered families");
        let mut probe = SampleProbe {
            every,
            pending: None,
            samples: Vec::new(),
        };
        let out = family.run(
            &g,
            &sc.init,
            &sc.daemon,
            RunSeeds { init, sim, fault },
            ExecBudget::steps(sc.step_cap).with_intra_threads(sc.intra_threads),
            Some(&mut probe),
        );
        let t2 = Instant::now();
        let id = log.record("engine.scenario", t0, t2, None, thread);
        log.record("graph.build", t0, t1, Some(id), thread);
        let run = log.record("family.run", t1, t2, Some(id), thread);
        for &(a, b) in &probe.samples {
            log.record("exec.iteration", a, b, Some(run), thread);
        }
        (
            sc.algorithm.label(),
            out.steps,
            (t2 - t1).as_nanos() as u64,
            (t2 - t0).as_nanos() as u64,
            (t1 - t0).as_nanos() as u64,
        )
    });
    let mut pass = EnginePass {
        wall_s: t.elapsed().as_secs_f64(),
        scenarios: results.len() as u64,
        ..EnginePass::default()
    };
    for (label, steps, run_ns, busy_ns, build_ns) in results {
        let slot = pass.per_label.entry(label).or_default();
        slot.0 += run_ns;
        slot.1 += steps;
        pass.busy_ns += busy_ns;
        pass.scenario_ns_max = pass.scenario_ns_max.max(busy_ns);
        pass.graph_build_ns += build_ns;
    }
    pass
}

/// Counters and sampled timings of [`replay`] runs.
#[derive(Clone, Default)]
pub struct ReplayStats {
    pub steps: u64,
    pub moves: u64,
    pub guard_evals: u64,
    pub predicate_calls: u64,
    pub graph_build_ns: u64,
    pub sim_init_ns: u64,
}

impl ReplayStats {
    pub fn add(&mut self, o: &ReplayStats) {
        self.steps += o.steps;
        self.moves += o.moves;
        self.guard_evals += o.guard_evals;
        self.predicate_calls += o.predicate_calls;
        self.graph_build_ns += o.graph_build_ns;
        self.sim_init_ns += o.sim_init_ns;
    }
}

/// Σ |N[u]| over the union of the movers' closed neighbourhoods: the
/// guard evaluations the step's refresh phase performed.
pub struct RefreshCounter {
    stamp: Vec<u32>,
    epoch: u32,
}

impl RefreshCounter {
    pub fn new(n: usize) -> Self {
        RefreshCounter {
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    pub fn count<A: Algorithm>(&mut self, sim: &Simulator<'_, A>) -> u64 {
        self.epoch += 1;
        let g = sim.graph();
        let mut evals = 0;
        for &(u, _) in sim.last_activated() {
            for v in std::iter::once(u).chain(g.neighbors(u).iter().copied()) {
                if self.stamp[v.index()] != self.epoch {
                    self.stamp[v.index()] = self.epoch;
                    evals += 1;
                }
            }
        }
        evals
    }
}

/// Drives `sim` exactly as the family's `Execution::until(predicate)`
/// does (predicate on the initial configuration, then after every
/// step, within `cap` steps), timing the step and the predicate
/// separately every `every` steps. Returns the configuration at step
/// `cap / 2` (or the final one, for shorter runs).
pub fn replay<A: Algorithm>(
    mut sim: Simulator<'_, A>,
    cap: u64,
    every: u64,
    stats: &mut ReplayStats,
    log: &SpanLog,
    mut predicate: impl FnMut(&Graph, &[A::State]) -> bool,
) -> Vec<A::State> {
    let mut refresh = RefreshCounter::new(sim.graph().node_count());
    let mut mid = None;
    let start = Instant::now();
    let mut samples = Vec::new();
    stats.predicate_calls += 1;
    let mut done = predicate(sim.graph(), sim.states());
    let mut steps = 0;
    while !done && steps < cap {
        let sample = steps.is_multiple_of(every);
        let t0 = sample.then(Instant::now);
        if let StepOutcome::Terminal = sim.step() {
            break;
        }
        let t1 = sample.then(Instant::now);
        done = predicate(sim.graph(), sim.states());
        if let (Some(t0), Some(t1)) = (t0, t1) {
            samples.push((t0, t1, Instant::now()));
        }
        stats.predicate_calls += 1;
        steps += 1;
        stats.guard_evals += refresh.count(&sim);
        if steps == cap / 2 {
            mid = Some(sim.states().to_vec());
        }
    }
    let end = Instant::now();
    let id = log.record("replay", start, end, None, 0);
    for (t0, t1, t2) in samples {
        log.record("step", t0, t1, Some(id), 0);
        log.record("exec.predicate", t1, t2, Some(id), 0);
    }
    stats.steps += sim.stats().steps;
    stats.moves += sim.stats().moves;
    mid.unwrap_or_else(|| sim.states().to_vec())
}

/// Guard and apply kernel costs on one configuration.
pub struct Kernels {
    pub ns_per_eval: f64,
    pub ns_per_move: f64,
}

/// Times `enabled_mask` over every node of `states`, and `apply` over
/// every enabled node, single-threaded.
pub fn kernel_costs<A: Algorithm>(g: &Graph, algo: &A, states: &[A::State]) -> Kernels {
    let view = ConfigView::new(g, states);
    let nodes: Vec<_> = g.nodes().collect();
    let enabled: Vec<_> = nodes
        .iter()
        .filter_map(|&u| algo.enabled_mask(u, &view).first().map(|r| (u, r)))
        .collect();
    let ns_per_eval = per_call(nodes.len(), || {
        for &u in &nodes {
            black_box(algo.enabled_mask(u, &view));
        }
    });
    let ns_per_move = if enabled.is_empty() {
        0.0
    } else {
        per_call(enabled.len(), || {
            for &(u, r) in &enabled {
                black_box(algo.apply(u, &view, r));
            }
        })
    };
    Kernels {
        ns_per_eval,
        ns_per_move,
    }
}

/// Step-layer metrics: the exact counters of the whole workload
/// (`r`), and costs of one run (`run`) — its step time, the kernel costs
/// on its mid-run configuration, and its own guard evaluations and
/// moves, from which the non-kernel share of its steps is derived.
pub fn put_step_metrics(
    m: &mut Metrics,
    r: &ReplayStats,
    run: &ReplayStats,
    ns_per_step: f64,
    k: &Kernels,
    par_speedup: f64,
) {
    let steps = run.steps.max(1) as f64;
    m.put("graph.build_s", r.graph_build_ns as f64 / 1e9, "s");
    m.put("sim.init_s", r.sim_init_ns as f64 / 1e9, "s");
    m.put("step.ns_per_step", ns_per_step, "ns");
    m.put(
        "step.ns_per_move",
        ns_per_step * steps / run.moves.max(1) as f64,
        "ns",
    );
    let kernel_per_step =
        (run.guard_evals as f64 * k.ns_per_eval + run.moves as f64 * k.ns_per_move) / steps;
    m.put(
        "step.other_ns_per_step",
        ns_per_step - kernel_per_step,
        "ns",
    );
    m.put("step.steps", r.steps as f64, "count");
    m.put("step.moves", r.moves as f64, "count");
    m.put("step.par_speedup", par_speedup, "x");
    m.put("guards.evals", r.guard_evals as f64, "count");
    m.put("guards.kernel_ns_per_eval", k.ns_per_eval, "ns");
    m.put("apply.kernel_ns_per_move", k.ns_per_move, "ns");
}

/// Per-step costs of one run measured three ways (see
/// `e10::exec_split`): `Family::run` as a whole, step plus stop
/// predicate, and the step alone.
pub struct ExecSplit {
    pub family_ns: f64,
    pub loop_ns: f64,
    pub step_ns: f64,
}

/// Exec-layer metrics: `Family::run` wall per step (overall and per
/// label) from timed engine passes; predicate cost and the share of
/// `Family::run` spent outside step and predicate from a split.
pub fn put_exec_metrics(
    m: &mut Metrics,
    passes: &[EnginePass],
    split: Option<&ExecSplit>,
    predicate_calls: u64,
) {
    let mut per_label: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for pass in passes {
        for (label, (ns, steps)) in &pass.per_label {
            let slot = per_label.entry(label).or_default();
            slot.0 += ns;
            slot.1 += steps;
        }
    }
    let (run_ns, steps) = per_label
        .values()
        .fold((0, 0), |(a, b), (x, y)| (a + x, b + y));
    m.put(
        "exec.ns_per_step",
        run_ns as f64 / steps.max(1) as f64,
        "ns",
    );
    for label in ["unison-sdr", "cfg-unison"] {
        let v = per_label
            .get(label)
            .map_or(0.0, |(ns, st)| *ns as f64 / (*st).max(1) as f64);
        m.put(&format!("exec.ns_per_step.{label}"), v, "ns");
    }
    if let Some(x) = split {
        m.put("exec.predicate_ns", x.loop_ns - x.step_ns, "ns");
        m.put(
            "exec.overhead_share",
            (x.family_ns - x.loop_ns) / x.family_ns,
            "ratio",
        );
    }
    m.put("exec.predicate_calls", predicate_calls as f64, "count");
}

/// Engine-layer metrics over timed passes: Σ busy ÷ (wall × workers),
/// the slowest scenario, and the scenarios of one pass set.
pub fn put_engine_metrics(m: &mut Metrics, passes: &[EnginePass], workers: usize, scenarios: u64) {
    let busy: u64 = passes.iter().map(|p| p.busy_ns).sum();
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    m.put(
        "engine.worker_utilization",
        busy as f64 / (wall * 1e9 * workers as f64),
        "ratio",
    );
    let slowest = passes.iter().map(|p| p.scenario_ns_max).max().unwrap_or(0);
    m.put("engine.scenario_ms_max", slowest as f64 / 1e6, "ms");
    m.put("engine.scenarios", scenarios as f64, "count");
}

/// Per-call costs of the content-addressed layer.
pub struct CacheCosts {
    pub fingerprint_ns: f64,
    pub insert_ns: f64,
    pub lookup_ns: f64,
}

/// Times `Scenario::fingerprint`, `RecordCache::insert` and
/// `RecordCache::lookup` over every scenario of `campaign` (with its
/// record).
pub fn cache_costs(campaign: &Campaign, records: &[ScenarioRecord]) -> CacheCosts {
    let scenarios: Vec<Scenario> = campaign.scenarios().collect();
    let fps: Vec<_> = scenarios.iter().map(Scenario::fingerprint).collect();
    let n = scenarios.len();
    let fingerprint_ns = per_call(n, || {
        for sc in &scenarios {
            black_box(sc.fingerprint());
        }
    });
    let insert_ns = per_call(n, || {
        let cache = RecordCache::new();
        for (fp, rec) in fps.iter().zip(records) {
            cache.insert(*fp, rec);
        }
        black_box(&cache);
    });
    let cache = RecordCache::new();
    for (fp, rec) in fps.iter().zip(records) {
        cache.insert(*fp, rec);
    }
    let lookup_ns = per_call(n, || {
        for (fp, sc) in fps.iter().zip(&scenarios) {
            black_box(cache.lookup(*fp, sc));
        }
    });
    CacheCosts {
        fingerprint_ns,
        insert_ns,
        lookup_ns,
    }
}
