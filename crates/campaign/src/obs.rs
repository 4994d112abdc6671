//! The per-scenario side of a [`Sweep`](crate::engine::Sweep)'s
//! observability channels: the progress label, the trace file name,
//! and the [`FamilyProbe`] that hands a [`CompositeSink`] to each
//! measured execution, a family's or a custom runner's.
//!
//! Observability is strictly read-only with respect to results:
//! records produced with any combination of channels on are identical
//! to a bare sweep (pinned by `tests/obs_equivalence.rs`). Each worker
//! folds every scenario it simulates into one private
//! [`PipelineMetrics`], named and merged once the pool returns, so the
//! merged snapshot is deterministic across thread counts — counters
//! and histograms are partition-independent sums.

use std::path::{Path, PathBuf};

use ssr_obs::pipeline::{CompositeSink, PipelineMetrics};
use ssr_runtime::family::FamilyProbe;
use ssr_runtime::trace::TraceSink;

use crate::scenario::Scenario;

/// The human label of one scenario, used in progress lines.
pub fn scenario_label(sc: &Scenario) -> String {
    format!(
        "{}/{}/n={}#{}",
        sc.algorithm.label(),
        sc.topology.label(),
        sc.n,
        sc.trial
    )
}

/// The trace file of scenario `index` under `dir`:
/// `trace-<index, five digits>.jsonl`.
pub fn trace_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("trace-{index:05}.jsonl"))
}

/// The per-scenario [`FamilyProbe`]: moves the caller's fold into a
/// [`CompositeSink`] for the measured execution, next to the
/// scenario's trace file, and back out when the sink comes back. A
/// sweep's default runner passes one to `Family::run` when metrics or
/// traces are on; a custom runner of
/// [`Sweep::map`](crate::engine::Sweep::map) is lent one for every
/// scenario, and passes it to `Family::run` or wraps a simulator of
/// its own in
/// [`install_probe_sink`](ssr_runtime::family::install_probe_sink) and
/// [`collect_probe_sink`](ssr_runtime::family::collect_probe_sink).
pub struct ObsProbe<'m> {
    fold: &'m mut Option<PipelineMetrics>,
    trace_path: Option<PathBuf>,
}

impl<'m> ObsProbe<'m> {
    /// A probe adding the run's events to `fold` (none when it is
    /// `None`) and writing its JSONL trace to `trace_path`; with
    /// neither, it installs nothing. The fold keeps its own timing
    /// choice.
    pub fn new(fold: &'m mut Option<PipelineMetrics>, trace_path: Option<PathBuf>) -> Self {
        ObsProbe { fold, trace_path }
    }
}

impl FamilyProbe for ObsProbe<'_> {
    fn make_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        // The first trace makes its directory, so a runner that traces
        // nothing leaves none behind. One that cannot be made degrades
        // to no trace: observability never fails a run.
        if let Some(dir) = self.trace_path.as_deref().and_then(Path::parent) {
            let _ = std::fs::create_dir_all(dir);
        }
        CompositeSink::with_fold(self.fold.take(), self.trace_path.as_deref())
    }

    fn collect_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        if let Some(fold) = CompositeSink::into_fold(sink) {
            *self.fold = Some(fold);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{InitPlan, TopologySpec};
    use ssr_runtime::trace::TraceEvent;
    use ssr_runtime::Daemon;

    #[test]
    fn labels_identify_the_scenario() {
        let sc = Scenario {
            index: 3,
            topology: TopologySpec::Ring,
            n: 16,
            algorithm: crate::families::unison_sdr(),
            daemon: Daemon::Central,
            init: InitPlan::Arbitrary,
            trial: 2,
            seed: 7,
            step_cap: 1000,
            intra_threads: 1,
        };
        let label = scenario_label(&sc);
        assert!(label.contains("ring") && label.contains("n=16") && label.ends_with("#2"));
    }

    #[test]
    fn obs_probe_folds_metrics_through_the_sink_round_trip() {
        let mut fold = Some(PipelineMetrics::without_timing());
        for _ in 0..2 {
            let mut probe = ObsProbe::new(&mut fold, None);
            let mut sink = probe.make_trace_sink().expect("metrics channel is on");
            assert!(!sink.wants_phase_timing(), "the fold's timing choice");
            sink.record(&TraceEvent::StepStarted {
                step: 0,
                enabled: 2,
            });
            sink.record(&TraceEvent::MovesApplied { step: 0, moves: 2 });
            probe.collect_trace_sink(sink);
        }
        let metrics = fold.expect("the fold came back").into_metrics();
        assert_eq!(metrics.counter_value("pipeline.steps"), Some(2));
        assert_eq!(metrics.counter_value("pipeline.moves"), Some(4));
    }

    #[test]
    fn probe_without_channels_installs_nothing() {
        let mut fold = None;
        let mut probe = ObsProbe::new(&mut fold, None);
        assert!(probe.make_trace_sink().is_none());
    }

    #[test]
    fn trace_paths_are_stable_per_index() {
        assert_eq!(
            trace_path(Path::new("/tmp/x"), 7),
            PathBuf::from("/tmp/x/trace-00007.jsonl")
        );
    }
}
