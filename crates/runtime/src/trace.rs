//! The structured-trace seam of the step pipeline: typed events, the
//! [`TraceSink`] consumer trait, and the zero-cost disabled default.
//!
//! The pipeline emits a [`TraceEvent`] stream describing each step's
//! life cycle — selection size, per-phase wall time, applied moves,
//! enabled-set evolution, round completion, and run termination. A
//! [`TraceSink`] consumes the stream; rich sinks (ring buffer, JSONL
//! writer, metrics folding) live in the `ssr-obs` crate so this crate
//! stays dependency-free.
//!
//! # Zero cost when disabled
//!
//! A [`Simulator`](crate::Simulator) has **no sink by default**. The
//! disabled path costs one `Option` discriminant move per step plus a
//! handful of predictable branches — no event is constructed, no clock
//! is read, no allocation happens. The `obs_overhead` bench in
//! `ssr-bench` pins this with the same ratio tripwire as
//! `exec_overhead`.
//!
//! Per-phase wall-clock timing is doubly gated: even with a sink
//! installed, `Instant::now` is only called when the sink opts in via
//! [`TraceSink::wants_phase_timing`] — so deterministic sinks (JSONL
//! traces compared byte-for-byte across runs) never observe
//! nondeterministic values.
//!
//! # Event order
//!
//! Within one step the pipeline emits, in order: `StepStarted`,
//! `PhaseTimed(Select)`*, `PhaseTimed(Apply)`*, `MovesApplied`,
//! `PhaseTimed(Guards)`*, `EnabledSetSize`, `RoundCompleted`
//! (timing events only for opted-in sinks; `RoundCompleted` only when
//! the step completed a §2.4 round). `RunEnded` fires once per driven
//! run, after the last step — a resumed simulator emits one per
//! [`Execution`](crate::Execution) that drives it.

use std::any::Any;
use std::fmt;

use crate::simulator::TerminationReason;

/// The three stages of the staged step pipeline (see `crate::step`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TracePhase {
    /// Daemon choice and rule resolution (sequential, owns all RNG).
    Select,
    /// Next-state computation against the frozen pre-step configuration.
    Apply,
    /// Incremental guard re-evaluation over the movers' neighborhoods.
    Guards,
}

impl TracePhase {
    /// Stable lowercase name used in serialized traces and metric keys.
    pub fn as_str(&self) -> &'static str {
        match self {
            TracePhase::Select => "select",
            TracePhase::Apply => "apply",
            TracePhase::Guards => "guards",
        }
    }

    /// All phases, in pipeline order.
    pub const ALL: [TracePhase; 3] = [TracePhase::Select, TracePhase::Apply, TracePhase::Guards];
}

impl fmt::Display for TracePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured event from the step pipeline.
///
/// `step` is the 0-based index of the step being executed (equal to the
/// simulator's cumulative step counter *before* the step commits), so
/// events of one step share the same index across a resumed run too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A step began: the daemon is about to select among `enabled`
    /// enabled processes.
    StepStarted {
        /// 0-based step index.
        step: u64,
        /// Enabled-set size before the step.
        enabled: u32,
    },
    /// One pipeline phase of the step finished, taking `nanos` wall
    /// time. Only emitted to sinks opting in via
    /// [`TraceSink::wants_phase_timing`].
    PhaseTimed {
        /// 0-based step index.
        step: u64,
        /// Which phase.
        phase: TracePhase,
        /// Wall time in nanoseconds, excluding the time spent in the
        /// sink itself.
        nanos: u64,
        /// Whether the installed parallel kernels ran this phase
        /// (always `false` for `Select`, which is sequential by
        /// design).
        par: bool,
    },
    /// The step's moves were committed.
    MovesApplied {
        /// 0-based step index.
        step: u64,
        /// Number of `(process, rule)` moves in the step.
        moves: u32,
    },
    /// Enabled-set size after the step's guard refresh.
    EnabledSetSize {
        /// 0-based step index.
        step: u64,
        /// Enabled-set size after the step.
        enabled: u32,
    },
    /// The step completed a round (§2.4 neutralization semantics).
    RoundCompleted {
        /// 0-based step index.
        step: u64,
        /// Completed rounds so far (cumulative, including this one).
        rounds: u64,
    },
    /// A driven run ended (fires once per [`crate::Execution`] run).
    RunEnded {
        /// Cumulative steps over the simulator's lifetime.
        steps: u64,
        /// Cumulative moves.
        moves: u64,
        /// Cumulative completed rounds.
        rounds: u64,
        /// Why the run stopped.
        reason: TerminationReason,
    },
}

impl TraceEvent {
    /// Stable kebab-case event name (the `"event"` field of the JSONL
    /// serialization in `ssr-obs`).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::StepStarted { .. } => "step-started",
            TraceEvent::PhaseTimed { .. } => "phase-timed",
            TraceEvent::MovesApplied { .. } => "moves-applied",
            TraceEvent::EnabledSetSize { .. } => "enabled-set-size",
            TraceEvent::RoundCompleted { .. } => "round-completed",
            TraceEvent::RunEnded { .. } => "run-ended",
        }
    }
}

/// A consumer of the step pipeline's [`TraceEvent`] stream.
///
/// Sinks are installed per simulator
/// ([`Simulator::set_trace_sink`](crate::Simulator::set_trace_sink),
/// [`Execution::trace`](crate::Execution::trace)) and owned by it for
/// the duration of the run; take them back with
/// [`Simulator::take_trace_sink`](crate::Simulator::take_trace_sink)
/// to read what they collected. `Send` keeps the simulator's threading
/// contract intact (one simulator per campaign worker).
pub trait TraceSink: Send {
    /// Consumes one event. Called synchronously from the step
    /// pipeline — keep it cheap; buffer, don't block.
    fn record(&mut self, event: &TraceEvent);

    /// Whether the pipeline should measure per-phase wall times for
    /// this sink ([`TraceEvent::PhaseTimed`]). Defaults to `false`:
    /// timing values are nondeterministic, so sinks whose output is
    /// compared byte-for-byte must not see them.
    fn wants_phase_timing(&self) -> bool {
        false
    }

    /// Flushes buffered output (writer-backed sinks). Called once at
    /// run end, after `RunEnded`.
    fn flush(&mut self) {}

    /// Downcast support for taking a concrete sink back out of the
    /// simulator (`None` opts out; concrete sinks in `ssr-obs` return
    /// `Some(self)`).
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        None
    }
}

/// The no-op sink: every event is dropped.
///
/// Installing `NoTrace` is equivalent to installing no sink at all,
/// except that the pipeline still pays the (virtual, empty) `record`
/// calls — which is exactly what the `obs_overhead` bench measures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    fn record(&mut self, _event: &TraceEvent) {}
}

/// A sink forwarding to two sinks in order (left first). Phase timing
/// is measured if either side wants it; sides that did not opt in
/// still receive the events (a fanout cannot filter per side without
/// double-buffering).
pub struct FanoutSink<A, B>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for FanoutSink<A, B> {
    fn record(&mut self, event: &TraceEvent) {
        self.0.record(event);
        self.1.record(event);
    }

    fn wants_phase_timing(&self) -> bool {
        self.0.wants_phase_timing() || self.1.wants_phase_timing()
    }

    fn flush(&mut self) {
        self.0.flush();
        self.1.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(TracePhase::Select.as_str(), "select");
        assert_eq!(TracePhase::Apply.to_string(), "apply");
        assert_eq!(TracePhase::ALL.len(), 3);
    }

    #[test]
    fn event_names_are_stable() {
        let e = TraceEvent::StepStarted {
            step: 0,
            enabled: 1,
        };
        assert_eq!(e.name(), "step-started");
        let e = TraceEvent::RunEnded {
            steps: 1,
            moves: 1,
            rounds: 1,
            reason: TerminationReason::Terminal,
        };
        assert_eq!(e.name(), "run-ended");
    }

    #[test]
    fn no_trace_is_send_and_silent() {
        fn assert_send<T: Send>() {}
        assert_send::<NoTrace>();
        let mut s = NoTrace;
        s.record(&TraceEvent::StepStarted {
            step: 0,
            enabled: 0,
        });
        assert!(!s.wants_phase_timing());
        assert!(s.as_any_mut().is_none());
    }

    #[test]
    fn fanout_forwards_and_merges_timing_wish() {
        struct Count(u64, bool);
        impl TraceSink for Count {
            fn record(&mut self, _: &TraceEvent) {
                self.0 += 1;
            }
            fn wants_phase_timing(&self) -> bool {
                self.1
            }
        }
        let mut f = FanoutSink(Count(0, false), Count(0, true));
        assert!(f.wants_phase_timing());
        f.record(&TraceEvent::StepStarted {
            step: 0,
            enabled: 2,
        });
        assert_eq!((f.0 .0, f.1 .0), (1, 1));
    }
}
