//! [`PipelineMetrics`]: a [`TraceSink`] folding the step pipeline's
//! event stream into the metrics registry — per-phase wall time,
//! moves/step, enabled-set occupancy, and kernel utilization — and
//! [`CompositeSink`], the metrics + trace-file fanout the campaign and
//! bench layers install through the family boundary.

use std::any::Any;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

use ssr_runtime::trace::{TraceEvent, TraceSink};

use crate::metrics::MetricsSet;
use crate::trace::JsonlSink;

/// Folds [`TraceEvent`]s into a [`MetricsSet`] as they stream by.
///
/// Metric keys (see `DESIGN.md` §10 for the full table):
///
/// * `pipeline.steps`, `pipeline.moves`, `pipeline.rounds` — counters;
/// * `pipeline.moves_per_step`, `pipeline.enabled_set` — histograms;
/// * `phase.{select,apply,guards}.nanos` — histograms (phase timing
///   on, the default for this sink);
/// * `kernel.{apply,guards}.par_steps` / `.seq_steps` — counters
///   splitting each parallelizable phase by whether the installed
///   kernels engaged (intra-thread utilization).
///
/// # Examples
///
/// ```
/// use ssr_obs::pipeline::PipelineMetrics;
/// use ssr_runtime::trace::{TraceEvent, TraceSink};
///
/// let mut pm = PipelineMetrics::new();
/// pm.record(&TraceEvent::StepStarted { step: 0, enabled: 4 });
/// pm.record(&TraceEvent::MovesApplied { step: 0, moves: 2 });
/// let m = pm.into_metrics();
/// assert_eq!(m.counter_value("pipeline.steps"), Some(1));
/// assert_eq!(m.counter_value("pipeline.moves"), Some(2));
/// ```
#[derive(Debug, Default)]
pub struct PipelineMetrics {
    metrics: MetricsSet,
    timing: bool,
}

impl PipelineMetrics {
    /// A sink with phase timing **on** (its reason to exist); use
    /// [`PipelineMetrics::without_timing`] for deterministic folds.
    pub fn new() -> Self {
        PipelineMetrics {
            metrics: MetricsSet::new(),
            timing: true,
        }
    }

    /// A deterministic variant: no clock reads, so the folded metrics
    /// are a pure function of the seeded run.
    pub fn without_timing() -> Self {
        PipelineMetrics {
            metrics: MetricsSet::new(),
            timing: false,
        }
    }

    /// Consumes the sink into its metrics.
    pub fn into_metrics(self) -> MetricsSet {
        self.metrics
    }
}

impl TraceSink for PipelineMetrics {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::StepStarted { enabled, .. } => {
                self.metrics.inc("pipeline.steps", 1);
                self.metrics
                    .observe("pipeline.enabled_set", *enabled as u64);
            }
            TraceEvent::PhaseTimed {
                phase, nanos, par, ..
            } => {
                self.metrics
                    .observe(&format!("phase.{phase}.nanos"), *nanos);
                // Select is sequential by design; utilization split
                // only makes sense for the parallelizable phases.
                if phase.as_str() != "select" {
                    let kind = if *par { "par_steps" } else { "seq_steps" };
                    self.metrics.inc(&format!("kernel.{phase}.{kind}"), 1);
                }
            }
            TraceEvent::MovesApplied { moves, .. } => {
                self.metrics.inc("pipeline.moves", *moves as u64);
                self.metrics
                    .observe("pipeline.moves_per_step", *moves as u64);
            }
            TraceEvent::EnabledSetSize { .. } => {}
            TraceEvent::RoundCompleted { .. } => {
                self.metrics.inc("pipeline.rounds", 1);
            }
            TraceEvent::RunEnded { .. } => {
                self.metrics.inc("pipeline.runs", 1);
            }
        }
    }

    fn wants_phase_timing(&self) -> bool {
        self.timing
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

/// The standard composite: fans each event into a metrics fold and/or
/// a JSONL trace file, whichever are enabled. [`CompositeSink::open`]
/// builds it for [`Simulator::set_trace_sink`] and
/// [`CompositeSink::drain`] reads it back once
/// [`Simulator::take_trace_sink`] returns it — the one pair every
/// campaign, experiment and `scale` run goes through.
///
/// [`Simulator::set_trace_sink`]: ssr_runtime::Simulator::set_trace_sink
/// [`Simulator::take_trace_sink`]: ssr_runtime::Simulator::take_trace_sink
pub struct CompositeSink {
    metrics: Option<PipelineMetrics>,
    file: Option<JsonlSink<BufWriter<File>>>,
}

impl CompositeSink {
    /// The sink for the enabled channels: a metrics fold when
    /// `metrics` is `Some(timed)` (`timed` adds the wall-clock
    /// `phase.*.nanos` histograms) and a JSONL trace file at `trace`.
    /// `None` when no channel is on, so callers install nothing. A
    /// trace file that cannot be created degrades to no trace:
    /// observability never fails a run.
    pub fn open(metrics: Option<bool>, trace: Option<&Path>) -> Option<Box<dyn TraceSink>> {
        let metrics = metrics.map(|timed| {
            if timed {
                PipelineMetrics::new()
            } else {
                PipelineMetrics::without_timing()
            }
        });
        let file = trace.and_then(|path| JsonlSink::create(path).ok());
        if metrics.is_none() && file.is_none() {
            return None;
        }
        Some(Box::new(CompositeSink { metrics, file }))
    }

    /// Flushes a sink taken back from a simulator and returns the
    /// metrics it folded: `None` when it is not a [`CompositeSink`] or
    /// its metrics channel was off.
    pub fn drain(mut sink: Box<dyn TraceSink>) -> Option<MetricsSet> {
        sink.flush();
        let composite = sink.as_any_mut()?.downcast_mut::<CompositeSink>()?;
        composite.metrics.take().map(PipelineMetrics::into_metrics)
    }
}

impl TraceSink for CompositeSink {
    fn record(&mut self, event: &TraceEvent) {
        if let Some(m) = &mut self.metrics {
            m.record(event);
        }
        if let Some(f) = &mut self.file {
            f.record(event);
        }
    }

    fn wants_phase_timing(&self) -> bool {
        self.metrics
            .as_ref()
            .is_some_and(|m| m.wants_phase_timing())
            || self.file.as_ref().is_some_and(|f| f.wants_phase_timing())
    }

    fn flush(&mut self) {
        if let Some(f) = &mut self.file {
            f.flush();
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_runtime::trace::TracePhase;
    use ssr_runtime::TerminationReason;

    #[test]
    fn folds_the_full_stream() {
        let mut pm = PipelineMetrics::new();
        pm.record(&TraceEvent::StepStarted {
            step: 0,
            enabled: 5,
        });
        pm.record(&TraceEvent::PhaseTimed {
            step: 0,
            phase: TracePhase::Select,
            nanos: 100,
            par: false,
        });
        pm.record(&TraceEvent::PhaseTimed {
            step: 0,
            phase: TracePhase::Apply,
            nanos: 200,
            par: true,
        });
        pm.record(&TraceEvent::PhaseTimed {
            step: 0,
            phase: TracePhase::Guards,
            nanos: 300,
            par: false,
        });
        pm.record(&TraceEvent::MovesApplied { step: 0, moves: 3 });
        pm.record(&TraceEvent::EnabledSetSize {
            step: 0,
            enabled: 2,
        });
        pm.record(&TraceEvent::RoundCompleted { step: 0, rounds: 1 });
        pm.record(&TraceEvent::RunEnded {
            steps: 1,
            moves: 3,
            rounds: 1,
            reason: TerminationReason::Terminal,
        });
        let m = pm.into_metrics();
        assert_eq!(m.counter_value("pipeline.steps"), Some(1));
        assert_eq!(m.counter_value("pipeline.moves"), Some(3));
        assert_eq!(m.counter_value("pipeline.rounds"), Some(1));
        assert_eq!(m.counter_value("pipeline.runs"), Some(1));
        assert_eq!(m.counter_value("kernel.apply.par_steps"), Some(1));
        assert_eq!(m.counter_value("kernel.guards.seq_steps"), Some(1));
        assert_eq!(m.counter_value("kernel.select.seq_steps"), None);
        assert_eq!(m.histogram("phase.select.nanos").unwrap().sum(), 100);
    }

    #[test]
    fn timing_opt_out_is_deterministic() {
        let pm = PipelineMetrics::without_timing();
        assert!(!pm.wants_phase_timing());
    }

    #[test]
    fn composite_sink_round_trips_through_the_erased_interface() {
        assert!(
            CompositeSink::open(None, None).is_none(),
            "no channel, no sink"
        );
        let mut boxed = CompositeSink::open(Some(false), None).expect("metrics channel on");
        assert!(!boxed.wants_phase_timing());
        boxed.record(&TraceEvent::StepStarted {
            step: 0,
            enabled: 2,
        });
        boxed.record(&TraceEvent::MovesApplied { step: 0, moves: 2 });
        let m = CompositeSink::drain(boxed).expect("metrics channel on");
        assert_eq!(m.counter_value("pipeline.steps"), Some(1));
        assert!(CompositeSink::drain(Box::new(PipelineMetrics::new())).is_none());
        let timed = CompositeSink::open(Some(true), None).unwrap();
        assert!(timed.wants_phase_timing());
    }
}
