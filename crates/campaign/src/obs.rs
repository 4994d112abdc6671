//! The per-scenario side of a [`Sweep`](crate::engine::Sweep)'s
//! observability channels: the progress label, the trace file name,
//! and the [`FamilyProbe`] that hands a [`CompositeSink`] to each
//! family's measured execution.
//!
//! Observability is strictly read-only with respect to results:
//! records produced with any combination of channels on are identical
//! to a bare sweep (pinned by `tests/obs_equivalence.rs`). Each worker
//! folds its scenarios into a private [`MetricsSet`], merged once the
//! pool returns, so the merged snapshot is deterministic across thread
//! counts — counters and histograms are partition-independent sums.

use std::path::{Path, PathBuf};

use ssr_obs::metrics::MetricsSet;
use ssr_obs::pipeline::CompositeSink;
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

/// The per-scenario [`FamilyProbe`]: opens a [`CompositeSink`] for the
/// family's measured execution and folds what comes back into the
/// worker-local metrics; custom runners that call `Family::run`
/// themselves pass one too.
pub struct ObsProbe<'m> {
    worker_metrics: Option<&'m mut MetricsSet>,
    trace_path: Option<PathBuf>,
    phase_timing: bool,
}

impl<'m> ObsProbe<'m> {
    /// A probe folding metrics into `worker_metrics` (with per-phase
    /// wall time when `phase_timing`) and writing the JSONL trace to
    /// `trace_path`; with neither, it installs nothing.
    pub fn new(
        worker_metrics: Option<&'m mut MetricsSet>,
        trace_path: Option<PathBuf>,
        phase_timing: bool,
    ) -> Self {
        ObsProbe {
            worker_metrics,
            trace_path,
            phase_timing,
        }
    }
}

impl FamilyProbe for ObsProbe<'_> {
    fn make_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let metrics = self.worker_metrics.is_some().then_some(self.phase_timing);
        CompositeSink::open(metrics, self.trace_path.as_deref())
    }

    fn collect_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        if let (Some(folded), Some(target)) = (
            CompositeSink::drain(sink),
            self.worker_metrics.as_deref_mut(),
        ) {
            target.merge(&folded);
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
        let mut worker = MetricsSet::new();
        let mut probe = ObsProbe::new(Some(&mut worker), None, false);
        let mut sink = probe.make_trace_sink().expect("metrics channel is on");
        assert!(!sink.wants_phase_timing(), "deterministic by default");
        sink.record(&TraceEvent::StepStarted {
            step: 0,
            enabled: 2,
        });
        sink.record(&TraceEvent::MovesApplied { step: 0, moves: 2 });
        probe.collect_trace_sink(sink);
        assert_eq!(worker.counter_value("pipeline.steps"), Some(1));
        assert_eq!(worker.counter_value("pipeline.moves"), Some(2));
    }

    #[test]
    fn probe_without_channels_installs_nothing() {
        let mut probe = ObsProbe::new(None, None, false);
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
