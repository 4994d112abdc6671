//! Campaign-level observability: live progress, merged pipeline
//! metrics, and per-scenario trace files, attached to the batch engine
//! without disturbing its determinism contract.
//!
//! [`CampaignObs`] bundles the three side channels; pass it to
//! [`engine::run_obs`](crate::engine::run_obs). Observability is
//! strictly read-only with respect to results: records produced with
//! any combination of channels enabled are identical to a bare
//! [`engine::run`](crate::engine::run) (pinned by
//! `tests/obs_equivalence.rs`).
//!
//! Metric accumulation is lock-free by ownership: each worker folds
//! its scenarios into a private [`MetricsSet`] and submits it to the
//! shared [`MetricsHub`] exactly once, when the worker retires. The
//! merged snapshot is deterministic across thread counts — counters
//! and histograms are partition-independent sums.

use std::path::{Path, PathBuf};

use ssr_obs::metrics::{MetricsHub, MetricsSet};
use ssr_obs::pipeline::{CompositeSink, PipelineMetrics};
use ssr_obs::progress::Progress;
use ssr_obs::trace::JsonlSink;
use ssr_runtime::family::FamilyProbe;
use ssr_runtime::trace::TraceSink;

use crate::scenario::Scenario;

/// The observability channels of one campaign run.
///
/// All channels default to off; each is enabled independently. After
/// the run, read the merged metrics via
/// [`CampaignObs::metrics_snapshot`].
#[derive(Default)]
pub struct CampaignObs {
    pub(crate) progress: Option<Box<dyn Progress>>,
    pub(crate) metrics: Option<MetricsHub>,
    pub(crate) trace_dir: Option<PathBuf>,
    /// Whether per-phase wall-time histograms are folded into the
    /// metrics (nondeterministic values; off by default so the merged
    /// snapshot stays a pure function of the campaign).
    pub(crate) phase_timing: bool,
}

impl CampaignObs {
    /// All channels off.
    pub fn new() -> Self {
        CampaignObs::default()
    }

    /// Streams scenario completion through `progress`.
    #[must_use]
    pub fn with_progress(mut self, progress: Box<dyn Progress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Collects merged pipeline metrics (deterministic keys only).
    #[must_use]
    pub fn with_metrics(mut self) -> Self {
        self.metrics = Some(MetricsHub::new());
        self
    }

    /// Collects merged pipeline metrics *including* per-phase
    /// wall-time histograms (`phase.*.nanos` — nondeterministic).
    #[must_use]
    pub fn with_timed_metrics(mut self) -> Self {
        self.metrics = Some(MetricsHub::new());
        self.phase_timing = true;
        self
    }

    /// Writes one JSONL trace per scenario into `dir` as
    /// `trace-<index>.jsonl` (deterministic: no timing events).
    #[must_use]
    pub fn with_trace_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.trace_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Whether any channel needs a [`FamilyProbe`] built per scenario.
    pub(crate) fn wants_probe(&self) -> bool {
        self.metrics.is_some() || self.trace_dir.is_some()
    }

    /// The merged metrics so far (`None` when metrics are off).
    pub fn metrics_snapshot(&self) -> Option<ssr_obs::metrics::MetricsSnapshot> {
        self.metrics.as_ref().map(|hub| hub.snapshot())
    }

    /// Takes the merged metrics out (disabling the channel), for
    /// folding one campaign's results into a longer-lived aggregate.
    pub fn take_metrics(&mut self) -> Option<MetricsSet> {
        self.metrics.take().map(MetricsHub::into_inner)
    }

    /// The trace file path for scenario `index`, when tracing is on.
    pub fn trace_path(&self, index: usize) -> Option<PathBuf> {
        self.trace_dir
            .as_ref()
            .map(|d| d.join(format!("trace-{index:05}.jsonl")))
    }
}

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

/// The per-scenario [`FamilyProbe`]: hands a
/// [`CompositeSink`](ssr_obs::pipeline::CompositeSink) to the family's
/// measured execution and folds what comes back into the worker-local
/// metrics.
pub(crate) struct ObsProbe<'m> {
    worker_metrics: Option<&'m mut MetricsSet>,
    trace_path: Option<PathBuf>,
    phase_timing: bool,
}

impl<'m> ObsProbe<'m> {
    pub(crate) fn new(
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
        let metrics = self.worker_metrics.as_ref().map(|_| {
            if self.phase_timing {
                PipelineMetrics::new()
            } else {
                PipelineMetrics::without_timing()
            }
        });
        // A trace file that cannot be created degrades to "no trace":
        // observability must never fail the campaign.
        let file = self
            .trace_path
            .as_ref()
            .and_then(|p| JsonlSink::create(p).ok());
        let sink = CompositeSink::new(metrics, file);
        if sink.is_empty() {
            return None;
        }
        Some(Box::new(sink))
    }

    fn collect_trace_sink(&mut self, mut sink: Box<dyn TraceSink>) {
        let Some(obs) = sink
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<CompositeSink>())
        else {
            return;
        };
        if let (Some(folded), Some(target)) =
            (obs.take_metrics(), self.worker_metrics.as_deref_mut())
        {
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
        let obs = CampaignObs::new().with_trace_dir("/tmp/x");
        assert_eq!(
            obs.trace_path(7).unwrap(),
            PathBuf::from("/tmp/x/trace-00007.jsonl")
        );
        assert_eq!(CampaignObs::new().trace_path(7), None);
    }
}
