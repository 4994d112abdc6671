//! Property-based pins for the observability read-only guarantee: on
//! any seeded run, enabling trace or metrics channels must leave the
//! run's results byte-identical to the bare path — at one *and* four
//! intra-run threads — and two traces of the same seeded run must be
//! byte-identical to each other. And the fixed-slot
//! [`PipelineMetrics`] fold gives the snapshot bytes of a slow
//! reference fold that updates the registry by key on every event;
//! the same event streams and snapshots read back through
//! [`parse_event`] and [`MetricsSet::from_json`] as equal values.

use proptest::prelude::*;
use ssr_graph::{generators, Graph};
use ssr_obs::metrics::MetricsSet;
use ssr_obs::pipeline::{CompositeSink, PipelineMetrics};
use ssr_obs::trace::{event_to_json, parse_event, JsonlSink};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::trace::{TraceEvent, TracePhase, TraceSink};
use ssr_runtime::{
    Algorithm, Daemon, NodeId, RuleId, RuleMask, Simulator, StateView, TerminationReason,
};

/// Toy convergence workload with multi-move synchronous steps: every
/// node below the maximum of its neighborhood adopts that maximum.
struct MaxFlood;

impl Algorithm for MaxFlood {
    type State = u32;
    fn rule_count(&self) -> usize {
        1
    }
    fn rule_name(&self, _: RuleId) -> &'static str {
        "adopt-max"
    }
    fn enabled_mask<V: StateView<u32>>(&self, u: NodeId, view: &V) -> RuleMask {
        let best = view
            .graph()
            .neighbors(u)
            .iter()
            .map(|&v| *view.state(v))
            .max()
            .unwrap_or(0);
        RuleMask::from_bool(best > *view.state(u))
    }
    fn apply<V: StateView<u32>>(&self, u: NodeId, view: &V, _: RuleId) -> u32 {
        view.graph()
            .neighbors(u)
            .iter()
            .map(|&v| *view.state(v))
            .max()
            .unwrap_or(0)
            .max(*view.state(u))
    }
}

fn instance(n: usize, gseed: u64, vseed: u64) -> (Graph, Vec<u32>) {
    let g = generators::random_connected(n, n / 2, gseed);
    let mut rng = Xoshiro256StarStar::seed_from_u64(vseed);
    let init: Vec<u32> = (0..g.node_count()).map(|_| rng.below(64) as u32).collect();
    (g, init)
}

fn daemon(choice: u8) -> Daemon {
    match choice % 4 {
        0 => Daemon::Synchronous,
        1 => Daemon::Central,
        2 => Daemon::RoundRobin,
        _ => Daemon::RandomSubset { p: 0.5 },
    }
}

/// Everything a run "returns": final configuration plus the stats a
/// caller could observe. Observability must never perturb any of it.
type RunRecord = (Vec<u32>, u64, u64, u64, bool);

fn run_once(
    g: &Graph,
    init: &[u32],
    daemon: Daemon,
    threads: usize,
    sink: Option<Box<dyn TraceSink>>,
) -> (RunRecord, Option<Box<dyn TraceSink>>) {
    let mut sim = Simulator::new(g, MaxFlood, init.to_vec(), daemon, 42);
    sim.set_intra_threads(threads);
    if let Some(sink) = sink {
        sim.set_trace_sink(sink);
    }
    let out = sim.execution().cap(10_000).run();
    let record = (
        sim.states().to_vec(),
        sim.stats().steps,
        sim.stats().moves,
        sim.stats().completed_rounds,
        out.terminal,
    );
    let mut sink = sim.take_trace_sink();
    if let Some(s) = sink.as_mut() {
        s.flush();
    }
    (record, sink)
}

fn trace_bytes(sink: Box<dyn TraceSink>) -> Vec<u8> {
    let mut sink = sink;
    let jsonl = sink
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<JsonlSink<Vec<u8>>>())
        .expect("sink is the JsonlSink we installed");
    std::mem::replace(jsonl, JsonlSink::new(Vec::new())).into_writer()
}

/// The slow oracle for [`PipelineMetrics`]: every event updates the
/// registry by key, each key created by the first event that feeds it.
fn reference_fold(events: &[TraceEvent]) -> MetricsSet {
    let mut m = MetricsSet::new();
    for event in events {
        match event {
            TraceEvent::StepStarted { enabled, .. } => {
                m.inc("pipeline.steps", 1);
                m.observe("pipeline.enabled_set", *enabled as u64);
            }
            TraceEvent::PhaseTimed {
                phase, nanos, par, ..
            } => {
                m.observe(&format!("phase.{phase}.nanos"), *nanos);
                if *phase != TracePhase::Select {
                    let kind = if *par { "par_steps" } else { "seq_steps" };
                    m.inc(&format!("kernel.{phase}.{kind}"), 1);
                }
            }
            TraceEvent::MovesApplied { moves, .. } => {
                m.inc("pipeline.moves", *moves as u64);
                m.observe("pipeline.moves_per_step", *moves as u64);
            }
            TraceEvent::EnabledSetSize { .. } => {}
            TraceEvent::RoundCompleted { .. } => m.inc("pipeline.rounds", 1),
            TraceEvent::RunEnded { .. } => m.inc("pipeline.runs", 1),
        }
    }
    m
}

/// Every way a run can end.
const REASONS: [TerminationReason; 3] = [
    TerminationReason::Terminal,
    TerminationReason::PredicateMet,
    TerminationReason::CapExhausted,
];

/// A random event stream: empty one time in four, `PhaseTimed` events
/// (any phase, par or seq) only when `timed`, small and large sizes,
/// step indices and durations (zero-move steps and 0-ns phases
/// included), any [`TerminationReason`].
fn event_stream(rng: &mut Xoshiro256StarStar, timed: bool) -> Vec<TraceEvent> {
    let len = if rng.index(4) == 0 { 0 } else { rng.index(48) };
    let size = |rng: &mut Xoshiro256StarStar| match rng.index(3) {
        0 => 0,
        1 => rng.below(8) as u32,
        _ => rng.next_u64() as u32,
    };
    let mut events = Vec::with_capacity(len);
    let first = rng.next_u64() >> 1;
    for step in first..first + len as u64 {
        let event = match rng.index(if timed { 7 } else { 5 }) {
            0 => TraceEvent::StepStarted {
                step,
                enabled: size(rng),
            },
            1 => TraceEvent::MovesApplied {
                step,
                moves: size(rng),
            },
            2 => TraceEvent::EnabledSetSize {
                step,
                enabled: size(rng),
            },
            3 => TraceEvent::RoundCompleted { step, rounds: step },
            4 => TraceEvent::RunEnded {
                steps: step,
                moves: step,
                rounds: step,
                reason: *rng.choose(&REASONS),
            },
            _ => TraceEvent::PhaseTimed {
                step,
                phase: *rng.choose(&TracePhase::ALL),
                nanos: if rng.chance(0.25) {
                    0
                } else {
                    rng.next_u64() >> rng.index(64)
                },
                par: rng.chance(0.5),
            },
        };
        events.push(event);
    }
    events
}

proptest! {
    /// Fixed slots and the per-event keyed fold give the same snapshot
    /// bytes: same keys present, same counts, same histograms.
    #[test]
    fn fixed_slot_fold_matches_the_keyed_fold(seed in 0u64..u64::MAX) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..16 {
            let timed = rng.chance(0.5);
            let events = event_stream(&mut rng, timed);
            let mut pm = if timed {
                PipelineMetrics::new()
            } else {
                PipelineMetrics::without_timing()
            };
            for event in &events {
                pm.record(event);
            }
            prop_assert_eq!(
                pm.into_metrics().to_json(),
                reference_fold(&events).to_json(),
                "{:?}",
                events
            );
        }
    }
}

proptest! {
    /// Every event of those streams reads back as itself. Sixteen
    /// timed streams per case meet every variant, phase, par flag and
    /// termination reason.
    #[test]
    fn trace_events_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..16 {
            for event in event_stream(&mut rng, true) {
                prop_assert_eq!(parse_event(&event_to_json(&event)), Ok(event));
            }
        }
    }

    /// The keyed fold's snapshots, with a gauge sampled at each
    /// `EnabledSetSize`, read back as themselves.
    #[test]
    fn metrics_snapshot_round_trips(seed in 0u64..u64::MAX) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..16 {
            let timed = rng.chance(0.5);
            let events = event_stream(&mut rng, timed);
            let mut set = reference_fold(&events);
            for event in &events {
                if let TraceEvent::EnabledSetSize { enabled, .. } = event {
                    set.gauge_set("pipeline.enabled", u64::from(*enabled));
                }
            }
            prop_assert_eq!(MetricsSet::from_json(&set.to_json()), Ok(set));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Results with trace and metrics channels enabled are identical to
    /// the bare path, at 1 and 4 intra-run threads alike.
    #[test]
    fn observability_leaves_results_byte_identical(
        n in 3usize..24,
        gseed in 0u64..50,
        vseed in 0u64..50,
        dchoice in 0u8..4,
    ) {
        let (g, init) = instance(n, gseed, vseed);
        let d = daemon(dchoice);
        let (baseline, _) = run_once(&g, &init, d.clone(), 1, None);
        for threads in [1usize, 4] {
            let (bare, _) = run_once(&g, &init, d.clone(), threads, None);
            let (traced, _) = run_once(
                &g,
                &init,
                d.clone(),
                threads,
                Some(Box::new(JsonlSink::new(Vec::new()))),
            );
            let (metered, _) = run_once(
                &g,
                &init,
                d.clone(),
                threads,
                Some(Box::new(PipelineMetrics::without_timing())),
            );
            prop_assert_eq!(&bare, &baseline, "threads must not change results");
            prop_assert_eq!(&traced, &baseline, "tracing must be read-only");
            prop_assert_eq!(&metered, &baseline, "metrics must be read-only");
        }
    }

    /// Two JSONL traces of the same seeded run are byte-identical, and
    /// non-trivial.
    #[test]
    fn same_seeded_run_traces_identically(
        n in 3usize..24,
        gseed in 0u64..50,
        vseed in 0u64..50,
        dchoice in 0u8..4,
    ) {
        let (g, init) = instance(n, gseed, vseed);
        let d = daemon(dchoice);
        let mut traces = Vec::new();
        for _ in 0..2 {
            let (_, sink) = run_once(
                &g,
                &init,
                d.clone(),
                1,
                Some(Box::new(JsonlSink::new(Vec::new()))),
            );
            traces.push(trace_bytes(sink.expect("sink survives the run")));
        }
        prop_assert!(!traces[0].is_empty(), "a run must emit at least RunEnded");
        prop_assert_eq!(&traces[0], &traces[1]);
    }

    /// The untimed pipeline-metrics snapshot is a pure function of the
    /// seeded run: identical JSON at 1 and 4 intra-run threads.
    #[test]
    fn untimed_metrics_are_thread_count_invariant(
        n in 3usize..24,
        gseed in 0u64..50,
        vseed in 0u64..50,
    ) {
        let (g, init) = instance(n, gseed, vseed);
        let mut snapshots = Vec::new();
        for threads in [1usize, 4] {
            let (_, sink) = run_once(
                &g,
                &init,
                Daemon::Synchronous,
                threads,
                CompositeSink::with_fold(Some(PipelineMetrics::without_timing()), None),
            );
            let fold = CompositeSink::into_fold(sink.expect("sink survives the run"))
                .expect("composite sink carries metrics");
            snapshots.push(fold.into_metrics().to_json());
        }
        prop_assert!(snapshots[0].contains("pipeline.steps"));
        prop_assert_eq!(&snapshots[0], &snapshots[1]);
    }
}
