//! The JSONL [`TraceSink`] writer, and the event schema's one writer
//! ([`event_to_json`]) and one reader ([`parse_event`], its inverse).
//!
//! The schema (documented normatively in `DESIGN.md` §10) is one JSON
//! object per line with a mandatory `"event"` discriminator:
//!
//! ```json
//! {"event":"step-started","step":0,"enabled":3}
//! {"event":"phase-timed","step":0,"phase":"select","nanos":1200,"par":false}
//! {"event":"moves-applied","step":0,"moves":2}
//! {"event":"enabled-set-size","step":0,"enabled":2}
//! {"event":"round-completed","step":0,"rounds":1}
//! {"event":"run-ended","steps":10,"moves":12,"rounds":3,"reason":"terminal"}
//! ```
//!
//! Without phase timing, a trace is a pure function of the seeded run:
//! two traces of the same run are byte-identical. A line parses when
//! it is one of these events with its keys and their types; other keys
//! are ignored, so the schema can grow a key without breaking readers
//! of older traces.

use std::any::Any;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use ssr_runtime::trace::{TraceEvent, TracePhase, TraceSink};

use crate::json;
use crate::metrics::json_string;

/// Serializes one event as a single JSON line (no trailing newline).
pub fn event_to_json(event: &TraceEvent) -> String {
    let mut s = String::with_capacity(64);
    let _ = write!(s, "{{\"event\":\"{}\"", event.name());
    match event {
        TraceEvent::StepStarted { step, enabled } => {
            let _ = write!(s, ",\"step\":{step},\"enabled\":{enabled}");
        }
        TraceEvent::PhaseTimed {
            step,
            phase,
            nanos,
            par,
        } => {
            let _ = write!(
                s,
                ",\"step\":{step},\"phase\":\"{phase}\",\"nanos\":{nanos},\"par\":{par}"
            );
        }
        TraceEvent::MovesApplied { step, moves } => {
            let _ = write!(s, ",\"step\":{step},\"moves\":{moves}");
        }
        TraceEvent::EnabledSetSize { step, enabled } => {
            let _ = write!(s, ",\"step\":{step},\"enabled\":{enabled}");
        }
        TraceEvent::RoundCompleted { step, rounds } => {
            let _ = write!(s, ",\"step\":{step},\"rounds\":{rounds}");
        }
        TraceEvent::RunEnded {
            steps,
            moves,
            rounds,
            reason,
        } => {
            let _ = write!(
                s,
                ",\"steps\":{steps},\"moves\":{moves},\"rounds\":{rounds},\"reason\":{}",
                json_string(&reason.to_string())
            );
        }
    }
    s.push('}');
    s
}

/// Parses one trace line: the inverse of [`event_to_json`], so
/// `parse_event(&event_to_json(&e))` is `Ok(e)`. It is the schema
/// check of `DESIGN.md` §10: the line must be a JSON object whose
/// `"event"` names an event the writer emits, with that event's keys
/// and their types. Other keys are ignored, so older `moves-applied`
/// lines that still carry `"conflict_classes"` parse.
pub fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let v = json::parse(line).map_err(|e| format!("invalid JSON ({e})"))?;
    let name = json::str_field(&v, "event", "trace line")?;
    let what = format!("event {name:?}");
    let int = |key: &str| json::u64_field(&v, key, &what);
    let int32 = |key: &str| {
        u32::try_from(int(key)?).map_err(|_| format!("{what}.{key} does not fit in 32 bits"))
    };
    let text = |key: &str| json::str_field(&v, key, &what);
    Ok(match name.as_str() {
        "step-started" => TraceEvent::StepStarted {
            step: int("step")?,
            enabled: int32("enabled")?,
        },
        "phase-timed" => TraceEvent::PhaseTimed {
            step: int("step")?,
            phase: {
                let phase = text("phase")?;
                TracePhase::ALL
                    .into_iter()
                    .find(|p| p.as_str() == phase)
                    .ok_or_else(|| format!("{what}: unknown phase {phase:?}"))?
            },
            nanos: int("nanos")?,
            par: json::bool_field(&v, "par", &what)?,
        },
        "moves-applied" => TraceEvent::MovesApplied {
            step: int("step")?,
            moves: int32("moves")?,
        },
        "enabled-set-size" => TraceEvent::EnabledSetSize {
            step: int("step")?,
            enabled: int32("enabled")?,
        },
        "round-completed" => TraceEvent::RoundCompleted {
            step: int("step")?,
            rounds: int("rounds")?,
        },
        "run-ended" => TraceEvent::RunEnded {
            steps: int("steps")?,
            moves: int("moves")?,
            rounds: int("rounds")?,
            reason: text("reason")?.parse()?,
        },
        _ => return Err(format!("unknown {what}")),
    })
}

/// Parses a whole trace file with [`parse_event`], one event per
/// non-blank line, with 1-based line numbers in errors.
pub fn parse_events(text: &str) -> Result<Vec<TraceEvent>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse_event(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// A sink writing one JSON line per event to any buffered writer —
/// files via [`JsonlSink::create`], or an owned `Vec<u8>` for tests.
///
/// It does not ask for phase timing, so two traces of the same seeded
/// run are byte-identical, unless it shares a [`CompositeSink`] with
/// timed metrics, which adds `phase-timed` lines.
///
/// [`CompositeSink`]: crate::CompositeSink
pub struct JsonlSink<W: Write + Send> {
    writer: W,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps `writer` (supply your own buffering).
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }

    /// Flushes and hands back the writer.
    pub fn into_writer(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

impl<W: Write + Send + 'static> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        // I/O errors must not abort a measurement run; the final flush
        // in the CLI layer surfaces persistent failures.
        let _ = writeln!(self.writer, "{}", event_to_json(event));
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
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
    fn every_event_serializes_and_validates() {
        let events = [
            TraceEvent::StepStarted {
                step: 0,
                enabled: 3,
            },
            TraceEvent::PhaseTimed {
                step: 0,
                phase: TracePhase::Select,
                nanos: 12,
                par: false,
            },
            TraceEvent::MovesApplied { step: 0, moves: 2 },
            TraceEvent::EnabledSetSize {
                step: 0,
                enabled: 2,
            },
            TraceEvent::RoundCompleted { step: 0, rounds: 1 },
            TraceEvent::RunEnded {
                steps: 5,
                moves: 6,
                rounds: 2,
                reason: TerminationReason::CapExhausted,
            },
        ];
        for e in &events {
            assert_eq!(parse_event(&event_to_json(e)), Ok(*e));
        }
    }

    #[test]
    fn validation_rejects_malformed_lines() {
        for line in [
            "not json",
            "[1]",
            "{\"no\":\"event\"}",
            "{\"event\":\"mystery\"}",
            "{\"event\":\"step-started\",\"step\":1}",
            "{\"event\":\"step-started\",\"step\":1,\"enabled\":4294967296}",
            "{\"event\":\"phase-timed\",\"step\":0,\"phase\":\"tea\",\"nanos\":1,\"par\":false}",
            "{\"event\":\"run-ended\",\"steps\":1,\"moves\":1,\"rounds\":1,\"reason\":\"bored\"}",
        ] {
            assert!(parse_event(line).is_err(), "{line}");
        }
        let err = parse_events("\n{\"event\":\"mystery\"}\n").unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let events = [
            TraceEvent::StepStarted {
                step: 0,
                enabled: 1,
            },
            TraceEvent::EnabledSetSize {
                step: 0,
                enabled: 0,
            },
        ];
        let mut sink = JsonlSink::new(Vec::new());
        for e in &events {
            sink.record(e);
        }
        let out = String::from_utf8(sink.into_writer()).unwrap();
        assert_eq!(out.lines().count(), 2);
        // A blank line between events is skipped.
        assert_eq!(
            parse_events(&out.replace('\n', "\n\n")),
            Ok(events.to_vec())
        );
    }
}
