//! The JSONL [`TraceSink`] writer and the JSONL
//! serialization/validation of the event schema.
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
//! two traces of the same run are byte-identical.

use std::any::Any;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use ssr_runtime::trace::{TraceEvent, TraceSink};

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

/// The keys every serialized event of a given name must carry, beyond
/// `"event"` itself — the normative half of the schema check.
fn required_keys(event_name: &str) -> Option<&'static [&'static str]> {
    Some(match event_name {
        "step-started" | "enabled-set-size" => &["step", "enabled"],
        "phase-timed" => &["step", "phase", "nanos", "par"],
        "moves-applied" => &["step", "moves"],
        "round-completed" => &["step", "rounds"],
        "run-ended" => &["steps", "moves", "rounds", "reason"],
        _ => return None,
    })
}

/// Validates one JSONL trace line against the event schema: valid
/// JSON object, known event name, every required key present. Parsing
/// goes through the shared [`crate::json`] recursive-descent parser,
/// so structurally broken lines are rejected, not just missing keys.
pub fn validate_jsonl_line(line: &str) -> Result<(), String> {
    let value =
        crate::json::parse(line.trim()).map_err(|e| format!("invalid JSON ({e}): {line:?}"))?;
    if value.as_obj().is_none() {
        return Err(format!("not a JSON object: {line:?}"));
    }
    let name = value
        .get("event")
        .and_then(crate::json::Value::as_str)
        .ok_or_else(|| format!("missing \"event\" key: {line:?}"))?;
    let keys = required_keys(name).ok_or_else(|| format!("unknown event {name:?} in: {line:?}"))?;
    for key in keys {
        if value.get(key).is_none() {
            return Err(format!("event {name:?} is missing key {key:?}: {line:?}"));
        }
    }
    Ok(())
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
    lines: u64,
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
        JsonlSink { writer, lines: 0 }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
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
        self.lines += 1;
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
        use ssr_runtime::trace::TracePhase;
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
            let line = event_to_json(e);
            validate_jsonl_line(&line).unwrap_or_else(|err| panic!("{err}"));
        }
    }

    #[test]
    fn validation_rejects_malformed_lines() {
        assert!(validate_jsonl_line("not json").is_err());
        assert!(validate_jsonl_line("{\"no\":\"event\"}").is_err());
        assert!(validate_jsonl_line("{\"event\":\"mystery\"}").is_err());
        assert!(validate_jsonl_line("{\"event\":\"step-started\",\"step\":1}").is_err());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&TraceEvent::StepStarted {
            step: 0,
            enabled: 1,
        });
        sink.record(&TraceEvent::EnabledSetSize {
            step: 0,
            enabled: 0,
        });
        assert_eq!(sink.lines(), 2);
        let out = String::from_utf8(sink.into_writer()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in lines {
            validate_jsonl_line(l).unwrap();
        }
    }
}
