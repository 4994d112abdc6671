//! Observability never steers: campaign records with every obs channel
//! enabled are identical to a bare run, and the merged metrics
//! snapshot is deterministic across thread counts and equal to a fold
//! per scenario, for the default runner and custom ones alike.

use std::path::{Path, PathBuf};

use ssr_campaign::obs::trace_path;
use ssr_campaign::{
    engine, families, Campaign, CheckpointWriter, RecordCache, Scenario, ScenarioRecord, Sweep,
    TopologySpec,
};
use ssr_core::{toys::Agreement, Sdr};
use ssr_obs::metrics::MetricsSet;
use ssr_obs::pipeline::{CompositeSink, PipelineMetrics};
use ssr_obs::progress::{Progress, ProgressBus};
use ssr_obs::trace::parse_events;
use ssr_obs::TraceEvent;
use ssr_runtime::family::{
    collect_probe_sink, install_probe_sink, ExecBudget, FamilyProbe, RunSeeds,
};
use ssr_runtime::{Daemon, Simulator, TraceSink};

fn tiny() -> Campaign {
    Campaign::new("obs-equivalence")
        .topologies(vec![TopologySpec::Ring, TopologySpec::Star])
        .sizes(vec![6, 8])
        .algorithms(vec![families::unison_sdr(), families::sdr_agreement(4)])
        .daemons(vec![Daemon::Central, Daemon::Synchronous])
        .trials(1)
        .step_cap(500_000)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ssr-obs-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn obs_channels_do_not_change_records() {
    let c = tiny();
    let bare = Sweep::of(&c).threads(2).run();

    let dir = scratch_dir("records");
    let mut bus = ProgressBus::new();
    let observed = Sweep::of(&c)
        .threads(2)
        .metrics()
        .trace_dir(&dir)
        .progress(&mut bus)
        .run();
    assert_eq!(bare, observed, "obs channels must be read-only");

    // Every scenario left behind a trace file that parses.
    for i in 0..c.len() {
        let path = trace_path(&dir, i);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing trace {path:?}: {e}"));
        let events = parse_events(&text).unwrap_or_else(|err| panic!("{path:?}: {err}"));
        assert!(
            matches!(events.last(), Some(TraceEvent::RunEnded { .. })),
            "trace {path:?} must close with run-ended"
        );
    }

    // Every channel at once, against a caller-built registry: the
    // records equal `run_in`'s on a cold cache, and again on the warm
    // one, when every scenario is a hit and the simulator never runs.
    let registry = families::standard_families();
    assert_eq!(engine::run_in(&registry, &c, 2), bare);
    let journal = CheckpointWriter::open(&dir.join("journal.jsonl")).unwrap();
    let cache = RecordCache::new();
    for warm in [false, true] {
        let mut bus = ProgressBus::new();
        let report = Sweep::of(&c)
            .threads(2)
            .registry(&registry)
            .progress(&mut bus)
            .timed_metrics()
            .trace_dir(&dir)
            .cache(&cache, Some(&journal))
            .run_report();
        assert_eq!(report.records, bare, "warm={warm}");
        assert!(bus.snapshot().finished && bus.snapshot().done == c.len());
        let counter = |key: &str| report.metrics.counter_value(key);
        let n = Some(c.len() as u64);
        if warm {
            assert_eq!(counter("campaign.cache_hits"), n);
            assert_eq!(counter("pipeline.steps"), None, "a hit never simulates");
        } else {
            assert_eq!(counter("campaign.cache_misses"), n);
            assert!(counter("pipeline.steps").is_some());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merged_metrics_are_deterministic_across_thread_counts() {
    let c = tiny();
    let snapshot_at = |threads: usize| {
        let report = Sweep::of(&c).threads(threads).metrics().run_report();
        report.metrics.to_json()
    };
    let seq = snapshot_at(1);
    assert!(seq.contains("\"schema\":\"ssr-metrics-v1\""));
    assert!(seq.contains("pipeline.steps"));
    assert!(seq.contains("campaign.scenarios"));
    for threads in [2, 4] {
        assert_eq!(seq, snapshot_at(threads), "threads={threads}");
    }
}

/// A probe with a fold of its own for one scenario, merged into the
/// total when its sink comes back.
struct OwnFold<'m> {
    total: &'m mut MetricsSet,
    trace: Option<PathBuf>,
}

impl FamilyProbe for OwnFold<'_> {
    fn make_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let fold = Some(PipelineMetrics::without_timing());
        CompositeSink::with_fold(fold, self.trace.as_deref())
    }

    fn collect_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        if let Some(fold) = CompositeSink::into_fold(sink) {
            self.total.merge(&fold.into_metrics());
        }
    }
}

/// How a runner simulates a scenario through a probe.
type Runner = fn(&Scenario, &mut dyn FamilyProbe);

/// The default runner's simulation: `sc`'s family, handed the probe.
fn family_runner(sc: &Scenario, probe: &mut dyn FamilyProbe) {
    let [graph_seed, init, sim, fault] = sc.seeds::<4>();
    let g = sc.topology.build(sc.n, graph_seed);
    let registry = families::default_registry();
    let family = registry.resolve(&sc.algorithm).expect("a standard family");
    assert!(family.instantiable(&g));
    family.run(
        &g,
        &sc.init,
        &sc.daemon,
        RunSeeds { init, sim, fault },
        ExecBudget::steps(sc.step_cap).with_intra_threads(sc.intra_threads),
        Some(probe),
    );
}

/// A runner's own simulator, SDR over agreement, with the probe's sink
/// installed around its execution.
fn simulator_runner(sc: &Scenario, probe: &mut dyn FamilyProbe) {
    let [graph_seed, init_seed, sim_seed, _] = sc.seeds::<4>();
    let g = sc.topology.build(sc.n, graph_seed);
    let algo = Sdr::new(Agreement::new(4));
    let init = algo.arbitrary_config(&g, init_seed);
    let mut sim = Simulator::new(&g, algo, init, sc.daemon.clone(), sim_seed);
    install_probe_sink(probe, &mut sim);
    sim.execution().cap(sc.step_cap).until_legitimate().run();
    collect_probe_sink(probe, &mut sim);
}

/// The untimed pipeline metrics of a sweep of `c` through `run`, made
/// the way a sweep made them while each scenario had a fold of its
/// own: every simulated scenario (those not in `hits`) folds into a
/// `PipelineMetrics` that is named and merged into the total alone,
/// next to its trace file in `trace_dir`.
fn fold_per_scenario(
    c: &Campaign,
    hits: &[bool],
    trace_dir: Option<&Path>,
    run: Runner,
) -> MetricsSet {
    let mut total = MetricsSet::new();
    for i in (0..c.len()).filter(|&i| !hits[i]) {
        let mut probe = OwnFold {
            total: &mut total,
            trace: trace_dir.map(|dir| trace_path(dir, i)),
        };
        run(&c.scenario(i), &mut probe);
    }
    assert!(
        total.counter_value("pipeline.steps").is_some(),
        "the reference folded runs"
    );
    total
}

/// The `campaign.*` counters the default runner keeps for `bare`'s
/// records, of which those in `hits` were cache hits; `cached` says
/// whether the sweep had a cache.
fn campaign_counters(bare: &[ScenarioRecord], hits: &[bool], cached: bool) -> MetricsSet {
    let mut total = MetricsSet::new();
    for (rec, &hit) in bare.iter().zip(hits) {
        total.inc("campaign.scenarios", 1);
        if cached {
            let key = if hit {
                "campaign.cache_hits"
            } else {
                "campaign.cache_misses"
            };
            total.inc(key, 1);
        }
        if !rec.verdict.ok() {
            total.inc("campaign.failed", 1);
        }
    }
    total
}

/// Both trace directories hold `c`'s files with the same bytes.
fn assert_same_traces(c: &Campaign, swept: &Path, expected: &Path, what: &str) {
    for i in 0..c.len() {
        let read = |d: &Path| std::fs::read(trace_path(d, i)).unwrap();
        assert_eq!(read(swept), read(expected), "trace {i}, {what}");
    }
}

/// A sweep worker folds every scenario it simulates into one
/// `PipelineMetrics` and names it once; the snapshot must be the one a
/// fold per scenario gives, in the served configuration (progress,
/// metrics, a partly warm cache and its journal) and with traces, whose
/// files must be the per-scenario sinks' bytes.
#[test]
fn one_fold_per_worker_equals_a_fold_per_scenario() {
    let c = tiny();
    let bare = Sweep::of(&c).threads(2).run();
    // Every third scenario is cached, so each worker meets hits
    // between the scenarios it simulates.
    let hits: Vec<bool> = (0..c.len()).map(|i| i % 3 == 1).collect();
    let dir = scratch_dir("fold");
    for threads in [1, 4] {
        let cache = RecordCache::new();
        for (i, rec) in bare.iter().enumerate().filter(|&(i, _)| hits[i]) {
            cache.insert(c.scenario(i).fingerprint(), rec);
        }
        let journal =
            CheckpointWriter::open(&dir.join(format!("journal-{threads}.jsonl"))).unwrap();
        let mut bus = ProgressBus::new();
        let served = Sweep::of(&c)
            .threads(threads)
            .progress(&mut bus)
            .metrics()
            .cache(&cache, Some(&journal))
            .run_report();
        assert_eq!(served.records, bare);
        let mut reference = campaign_counters(&bare, &hits, true);
        reference.merge(&fold_per_scenario(&c, &hits, None, family_runner));
        assert_eq!(
            served.metrics.to_json(),
            reference.to_json(),
            "served, threads={threads}"
        );

        let swept = dir.join(format!("swept-{threads}"));
        let expected = dir.join(format!("expected-{threads}"));
        for d in [&swept, &expected] {
            std::fs::create_dir_all(d).unwrap();
        }
        let traced = Sweep::of(&c)
            .threads(threads)
            .metrics()
            .trace_dir(&swept)
            .run_report();
        let none = vec![false; c.len()];
        let mut reference = campaign_counters(&bare, &none, false);
        let folds = fold_per_scenario(&c, &none, Some(&expected), family_runner);
        reference.merge(&folds);
        let what = format!("traced, threads={threads}");
        assert_eq!(traced.metrics.to_json(), reference.to_json(), "{what}");
        assert_same_traces(&c, &swept, &expected, &what);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A custom runner gets the default runner's probe: the worker's fold
/// and the scenario's trace file, in a directory the first trace
/// creates. Handed to `Family::run` or installed around a simulator of
/// the runner's own, it gives the metrics and trace bytes of a fold
/// per scenario, with no `campaign.*` counter.
#[test]
fn map_runners_fold_and_trace_through_the_lent_probe() {
    let c = tiny();
    let none = vec![false; c.len()];
    let dir = scratch_dir("map");
    for (name, run) in [
        ("family", family_runner as Runner),
        ("simulator", simulator_runner),
    ] {
        for threads in [1, 4] {
            let swept = dir.join(format!("{name}-swept-{threads}"));
            let expected = dir.join(format!("{name}-expected-{threads}"));
            std::fs::create_dir_all(&expected).unwrap();
            let mapped = Sweep::of(&c)
                .threads(threads)
                .metrics()
                .trace_dir(&swept)
                .map(|sc, probe| run(&sc, probe));
            let what = format!("{name} runner, threads={threads}");
            assert_eq!(
                mapped.metrics.to_json(),
                fold_per_scenario(&c, &none, Some(&expected), run).to_json(),
                "{what}"
            );
            assert_same_traces(&c, &swept, &expected, &what);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_sees_every_scenario_exactly_once() {
    #[derive(Default)]
    struct CountingProgress {
        begun: Option<usize>,
        started: Vec<usize>,
        done: Vec<usize>,
        finished: bool,
    }
    impl Progress for CountingProgress {
        fn begin(&mut self, total: usize) {
            self.begun = Some(total);
        }
        fn item_started(&mut self, _worker: usize, index: usize, _label: &str) {
            self.started.push(index);
        }
        fn item_done(&mut self, index: usize, _label: &str, ok: bool) {
            assert!(ok);
            self.done.push(index);
        }
        fn finish(&mut self) {
            self.finished = true;
        }
    }

    // The records path and a custom runner report alike.
    let c = tiny();
    let mut records = CountingProgress::default();
    Sweep::of(&c).threads(3).progress(&mut records).run();
    let mut mapped = CountingProgress::default();
    Sweep::of(&c)
        .threads(3)
        .progress(&mut mapped)
        .map(|sc, _| sc.index);
    for mut p in [records, mapped] {
        assert_eq!(p.begun, Some(c.len()));
        assert!(p.finished);
        p.started.sort_unstable();
        p.done.sort_unstable();
        assert_eq!(p.started, (0..c.len()).collect::<Vec<_>>());
        assert_eq!(p.done, p.started);
    }
}
