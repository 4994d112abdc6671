//! [`PipelineMetrics`]: a [`TraceSink`] folding the step pipeline's
//! event stream into the metrics registry — per-phase wall time,
//! moves/step, enabled-set occupancy, and kernel utilization — and
//! [`CompositeSink`], the metrics + trace-file fanout the campaign and
//! bench layers install through the family boundary.

use std::any::Any;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

use ssr_runtime::trace::{TraceEvent, TracePhase, TraceSink};

use crate::metrics::{Histogram, MetricsSet};
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
/// Events fold into fixed slots — no key lookup or allocation per
/// event — and [`PipelineMetrics::into_metrics`] names them once. A
/// key is present exactly when an event fed it, as if every event had
/// been folded into the set by key: an all-cache-hit sweep registers
/// no `pipeline.steps`.
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
    timing: bool,
    /// One value per `StepStarted`, so its count is `pipeline.steps`.
    enabled_set: Histogram,
    /// One value per `MovesApplied`; `pipeline.moves` is present iff
    /// it is non-empty (a step may apply zero moves).
    moves_per_step: Histogram,
    moves: u64,
    rounds: u64,
    runs: u64,
    /// Indexed by [`TracePhase`] in pipeline order.
    phase_nanos: [Histogram; 3],
    /// `[par_steps, seq_steps]` per [`TracePhase`]; select's are
    /// counted but never reported (it is sequential by design).
    kernel_steps: [[u64; 2]; 3],
}

impl PipelineMetrics {
    /// A sink with phase timing **on** (its reason to exist); use
    /// [`PipelineMetrics::without_timing`] for deterministic folds.
    pub fn new() -> Self {
        PipelineMetrics {
            timing: true,
            ..PipelineMetrics::default()
        }
    }

    /// A deterministic variant: no clock reads, so the folded metrics
    /// are a pure function of the seeded run.
    pub fn without_timing() -> Self {
        PipelineMetrics::default()
    }

    /// Consumes the sink into its metrics.
    pub fn into_metrics(self) -> MetricsSet {
        let mut m = MetricsSet::new();
        let steps = self.enabled_set.count();
        if steps > 0 {
            m.inc("pipeline.steps", steps);
            m.insert_histogram("pipeline.enabled_set", self.enabled_set);
        }
        if self.moves_per_step.count() > 0 {
            m.inc("pipeline.moves", self.moves);
            m.insert_histogram("pipeline.moves_per_step", self.moves_per_step);
        }
        for (key, n) in [
            ("pipeline.rounds", self.rounds),
            ("pipeline.runs", self.runs),
        ] {
            if n > 0 {
                m.inc(key, n);
            }
        }
        for ((phase, nanos), [par, seq]) in TracePhase::ALL
            .into_iter()
            .zip(self.phase_nanos)
            .zip(self.kernel_steps)
        {
            if nanos.count() > 0 {
                m.insert_histogram(&format!("phase.{phase}.nanos"), nanos);
            }
            if phase == TracePhase::Select {
                continue;
            }
            for (kind, n) in [("par_steps", par), ("seq_steps", seq)] {
                if n > 0 {
                    m.inc(&format!("kernel.{phase}.{kind}"), n);
                }
            }
        }
        m
    }
}

impl TraceSink for PipelineMetrics {
    fn record(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::StepStarted { enabled, .. } => {
                self.enabled_set.observe(u64::from(enabled));
            }
            TraceEvent::PhaseTimed {
                phase, nanos, par, ..
            } => {
                self.phase_nanos[phase as usize].observe(nanos);
                self.kernel_steps[phase as usize][usize::from(!par)] += 1;
            }
            TraceEvent::MovesApplied { moves, .. } => {
                self.moves += u64::from(moves);
                self.moves_per_step.observe(u64::from(moves));
            }
            TraceEvent::EnabledSetSize { .. } => {}
            TraceEvent::RoundCompleted { .. } => self.rounds += 1,
            TraceEvent::RunEnded { .. } => self.runs += 1,
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
/// a JSONL trace file, whichever are enabled.
/// [`CompositeSink::with_fold`] moves a fold in, for
/// [`Simulator::set_trace_sink`], and [`CompositeSink::into_fold`]
/// moves it back out once [`Simulator::take_trace_sink`] returns the
/// sink. A campaign worker folds every scenario it simulates into one
/// [`PipelineMetrics`] this way; `scale` gives each traced run a fresh
/// one.
///
/// [`Simulator::set_trace_sink`]: ssr_runtime::Simulator::set_trace_sink
/// [`Simulator::take_trace_sink`]: ssr_runtime::Simulator::take_trace_sink
pub struct CompositeSink {
    metrics: Option<PipelineMetrics>,
    file: Option<JsonlSink<BufWriter<File>>>,
}

impl CompositeSink {
    /// The sink for the enabled channels: `fold`, which keeps its
    /// timing choice and everything it folded before (the events of
    /// this run are added to it), and a JSONL trace file at `trace`.
    /// `None` when neither is on, so callers install nothing. A trace
    /// file that cannot be created degrades to no trace: observability
    /// never fails a run.
    pub fn with_fold(
        fold: Option<PipelineMetrics>,
        trace: Option<&Path>,
    ) -> Option<Box<dyn TraceSink>> {
        let file = trace.and_then(|path| JsonlSink::create(path).ok());
        if fold.is_none() && file.is_none() {
            return None;
        }
        Some(Box::new(CompositeSink {
            metrics: fold,
            file,
        }))
    }

    /// Flushes a sink taken back from a simulator and returns its fold:
    /// `None` when it is not a [`CompositeSink`] or its metrics channel
    /// was off.
    pub fn into_fold(mut sink: Box<dyn TraceSink>) -> Option<PipelineMetrics> {
        sink.flush();
        let composite = sink.as_any_mut()?.downcast_mut::<CompositeSink>()?;
        composite.metrics.take()
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
            CompositeSink::with_fold(None, None).is_none(),
            "no channel, no sink"
        );
        let fold = Some(PipelineMetrics::without_timing());
        let mut boxed = CompositeSink::with_fold(fold, None).expect("metrics channel on");
        assert!(!boxed.wants_phase_timing());
        boxed.record(&TraceEvent::StepStarted {
            step: 0,
            enabled: 2,
        });
        boxed.record(&TraceEvent::MovesApplied { step: 0, moves: 2 });
        let m = CompositeSink::into_fold(boxed).expect("metrics channel on");
        assert_eq!(m.into_metrics().counter_value("pipeline.steps"), Some(1));
        assert!(CompositeSink::into_fold(Box::new(PipelineMetrics::new())).is_none());
        let timed = CompositeSink::with_fold(Some(PipelineMetrics::new()), None).unwrap();
        assert!(timed.wants_phase_timing());
    }

    #[test]
    fn a_fold_carries_across_sinks() {
        let mut fold = Some(PipelineMetrics::without_timing());
        for moves in [2, 3] {
            let mut sink = CompositeSink::with_fold(fold.take(), None).expect("metrics on");
            assert!(!sink.wants_phase_timing(), "the fold's own choice");
            sink.record(&TraceEvent::MovesApplied { step: 0, moves });
            fold = CompositeSink::into_fold(sink);
        }
        let m = fold.expect("the fold came back").into_metrics();
        assert_eq!(m.counter_value("pipeline.moves"), Some(5));
    }
}
