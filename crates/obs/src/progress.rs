//! Live campaign progress: scenario completion counts, ETA, and
//! per-worker state, rendered on stderr or streamed to subscribers.
//!
//! A [`Progress`] implementation is driven by the campaign worker pool
//! (behind a mutex — progress is inherently a shared, rate-limited
//! side channel, not a per-step hot path). [`StderrProgress`] renders
//! a human one-liner; [`ProgressBus`] records the `ssr-progress-v1`
//! lines that `ssr-serve` streams to its readers.

use std::io::Write;
use std::time::{Duration, Instant};

use crate::metrics::json_string;

/// Receives campaign life-cycle notifications.
///
/// Call order: one `begin`, then interleaved `item_started` /
/// `item_done` (from the pool's dispatch loop, already serialized),
/// then one `finish`. Implementations must tolerate `item_started`
/// being skipped (sequential drivers may only report completions).
pub trait Progress: Send {
    /// The campaign is starting with `total` work items.
    fn begin(&mut self, total: usize) {
        let _ = total;
    }

    /// Worker `worker` picked up item `index`.
    fn item_started(&mut self, worker: usize, index: usize, label: &str) {
        let _ = (worker, index, label);
    }

    /// Item `index` finished; `ok` is false when the scenario reported
    /// a property violation or error.
    fn item_done(&mut self, index: usize, label: &str, ok: bool) {
        let _ = (index, label, ok);
    }

    /// The campaign is over; flush anything buffered.
    fn finish(&mut self) {}
}

/// Renders `done/total`, percent, elapsed, ETA, and the busy workers'
/// current labels as a single stderr line per (rate-limited) update.
#[derive(Debug)]
pub struct StderrProgress {
    total: usize,
    done: usize,
    failed: usize,
    started: Option<Instant>,
    last_print: Option<Instant>,
    /// What each worker is currently running, as `(item index,
    /// label)` (None = idle). Keyed by index: labels need not be
    /// unique.
    workers: Vec<Option<(usize, String)>>,
    /// Minimum gap between printed updates (the final one always
    /// prints).
    min_interval: Duration,
}

impl StderrProgress {
    /// A reporter printing at most ~5 updates per second.
    pub fn new() -> Self {
        StderrProgress {
            total: 0,
            done: 0,
            failed: 0,
            started: None,
            last_print: None,
            workers: Vec::new(),
            min_interval: Duration::from_millis(200),
        }
    }

    /// Overrides the update rate limit (tests use zero).
    #[must_use]
    pub fn with_min_interval(mut self, min_interval: Duration) -> Self {
        self.min_interval = min_interval;
        self
    }

    /// Completed item count.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Items that finished not-ok.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// The line body (without the leading `\r`): exposed for tests.
    pub fn render_line(&self) -> String {
        let pct = if self.total > 0 {
            100.0 * self.done as f64 / self.total as f64
        } else {
            0.0
        };
        let elapsed = self
            .started
            .map(|t| t.elapsed())
            .unwrap_or_default()
            .as_secs_f64();
        let eta = if self.done > 0 && self.done < self.total {
            let per_item = elapsed / self.done as f64;
            format!(", eta {:.0}s", per_item * (self.total - self.done) as f64)
        } else {
            String::new()
        };
        let busy: Vec<&str> = self
            .workers
            .iter()
            .filter_map(|w| w.as_ref().map(|(_, label)| label.as_str()))
            .collect();
        let mut line = format!(
            "campaign {}/{} ({pct:.0}%), {:.1}s elapsed{eta}",
            self.done, self.total, elapsed
        );
        if self.failed > 0 {
            line.push_str(&format!(", {} failed", self.failed));
        }
        if !busy.is_empty() {
            line.push_str(&format!(" | running: {}", busy.join(", ")));
        }
        line
    }

    fn print(&mut self, force: bool) {
        let due = match self.last_print {
            None => true,
            Some(t) => t.elapsed() >= self.min_interval,
        };
        if !(force || due) {
            return;
        }
        self.last_print = Some(Instant::now());
        eprint!("\r\x1b[2K{}", self.render_line());
        let _ = std::io::stderr().flush();
    }
}

impl Default for StderrProgress {
    fn default() -> Self {
        StderrProgress::new()
    }
}

impl Progress for StderrProgress {
    fn begin(&mut self, total: usize) {
        self.total = total;
        self.done = 0;
        self.failed = 0;
        self.started = Some(Instant::now());
        self.print(true);
    }

    fn item_started(&mut self, worker: usize, index: usize, label: &str) {
        if self.workers.len() <= worker {
            self.workers.resize(worker + 1, None);
        }
        self.workers[worker] = Some((index, label.to_owned()));
    }

    fn item_done(&mut self, index: usize, _label: &str, ok: bool) {
        self.done += 1;
        if !ok {
            self.failed += 1;
        }
        for w in &mut self.workers {
            if w.as_ref().is_some_and(|(i, _)| *i == index) {
                *w = None;
                break;
            }
        }
        self.print(self.done == self.total);
    }

    fn finish(&mut self) {
        self.print(true);
        eprintln!();
    }
}

// ---------------------------------------------------------------------
// ProgressBus: the shared live-event channel behind SSE streaming
// ---------------------------------------------------------------------

/// A point-in-time view of a [`ProgressBus`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BusSnapshot {
    /// Work items announced by `begin`.
    pub total: usize,
    /// Items completed so far.
    pub done: usize,
    /// Completed items that reported not-ok.
    pub failed: usize,
    /// Whether `finish` has been called.
    pub finished: bool,
    /// Number of event lines recorded so far (a cursor for
    /// [`ProgressBus::events_since`]).
    pub events: usize,
}

struct BusState {
    events: Vec<String>,
    snap: BusSnapshot,
}

/// A cloneable, in-memory progress event bus: the campaign side writes
/// through the [`Progress`] impl, any number of readers poll
/// [`ProgressBus::events_since`] — which blocks on a condvar — and
/// stream them on (this is what feeds `ssr-serve`'s
/// `text/event-stream` endpoint).
///
/// Only `begin` and `finish` wake a waiting reader. An item event
/// reaches a reader that is already waiting when its timeout runs out
/// or with the `end` event, and a reader that polls after it gets it
/// at once. So a job shorter than the reader's timeout streams in two
/// batches instead of one wake per scenario; the events and their
/// order are the same either way.
///
/// Events are the `ssr-progress-v1` lines, one JSON object each and a
/// deterministic function of the campaign:
///
/// ```json
/// {"progress":"begin","total":12}
/// {"progress":"item","index":0,"done":1,"total":12,"label":"unison/ring/n=16","ok":true}
/// {"progress":"end","done":12,"total":12,"failed":0}
/// ```
///
/// `item_started` is not recorded: the bus carries completions, not
/// scheduling.
///
/// # Examples
///
/// ```
/// use ssr_obs::progress::{Progress, ProgressBus};
///
/// let mut bus = ProgressBus::new();
/// let reader = bus.clone();
/// bus.begin(2);
/// bus.item_done(0, "ring/n=8#0", true);
/// let (events, cursor) = reader.events_since(0, std::time::Duration::ZERO);
/// assert_eq!(events.len(), 2);
/// assert_eq!(cursor, 2);
/// assert_eq!(events[0], "{\"progress\":\"begin\",\"total\":2}");
/// assert_eq!(reader.snapshot().done, 1);
/// ```
#[derive(Clone)]
pub struct ProgressBus {
    state: std::sync::Arc<(std::sync::Mutex<BusState>, std::sync::Condvar)>,
}

impl ProgressBus {
    /// An empty bus.
    pub fn new() -> Self {
        ProgressBus {
            state: std::sync::Arc::new((
                std::sync::Mutex::new(BusState {
                    events: Vec::new(),
                    snap: BusSnapshot::default(),
                }),
                std::sync::Condvar::new(),
            )),
        }
    }

    /// Applies one event to the counters and appends the line `event`
    /// renders from them; wakes the waiting readers when `wake`.
    fn push(&self, wake: bool, event: impl FnOnce(&mut BusSnapshot) -> String) {
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock().unwrap();
        let line = event(&mut st.snap);
        st.events.push(line);
        st.snap.events = st.events.len();
        if wake {
            cvar.notify_all();
        }
    }

    /// The current counters.
    pub fn snapshot(&self) -> BusSnapshot {
        self.state.0.lock().unwrap().snap.clone()
    }

    /// Event lines recorded after cursor `from`, plus the new cursor.
    ///
    /// Returns at once when there are such lines or the bus is
    /// finished. Otherwise blocks until `begin` or `finish` wakes it or
    /// `timeout` runs out (an item event does not wake it), so a
    /// streaming reader gets a job's items in batches and terminates
    /// promptly at campaign end.
    pub fn events_since(&self, from: usize, timeout: Duration) -> (Vec<String>, usize) {
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock().unwrap();
        let deadline = Instant::now() + timeout;
        while st.events.len() <= from && !st.snap.finished {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let (next, timed_out) = cvar.wait_timeout(st, left).unwrap();
            st = next;
            if timed_out.timed_out() {
                break;
            }
        }
        let events = if st.events.len() > from {
            st.events[from..].to_vec()
        } else {
            Vec::new()
        };
        (events, st.events.len())
    }
}

impl Default for ProgressBus {
    fn default() -> Self {
        ProgressBus::new()
    }
}

impl Progress for ProgressBus {
    fn begin(&mut self, total: usize) {
        self.push(true, |snap| {
            snap.total = total;
            snap.done = 0;
            snap.failed = 0;
            snap.finished = false;
            format!("{{\"progress\":\"begin\",\"total\":{total}}}")
        });
    }

    fn item_done(&mut self, index: usize, label: &str, ok: bool) {
        self.push(false, |snap| {
            snap.done += 1;
            if !ok {
                snap.failed += 1;
            }
            format!(
                "{{\"progress\":\"item\",\"index\":{index},\"done\":{},\"total\":{},\"label\":{},\"ok\":{ok}}}",
                snap.done,
                snap.total,
                json_string(label),
            )
        });
    }

    fn finish(&mut self) {
        self.push(true, |snap| {
            snap.finished = true;
            format!(
                "{{\"progress\":\"end\",\"done\":{},\"total\":{},\"failed\":{}}}",
                snap.done, snap.total, snap.failed,
            )
        });
    }
}

/// Compile-time guard: progress reporters cross the worker-pool
/// boundary.
#[allow(dead_code)]
fn assert_send() {
    fn is_send<T: Send>() {}
    is_send::<StderrProgress>();
    is_send::<ProgressBus>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stderr_progress_tracks_counts_and_workers() {
        let mut p = StderrProgress::new().with_min_interval(Duration::from_secs(3600));
        p.begin(4);
        p.item_started(1, 0, "ring/16");
        assert!(p.render_line().contains("running: ring/16"));
        p.item_done(0, "ring/16", true);
        p.item_done(1, "torus/64", false);
        assert_eq!((p.done(), p.failed()), (2, 1));
        let line = p.render_line();
        assert!(
            line.contains("2/4") && line.contains("50%") && line.contains("1 failed"),
            "{line}"
        );
        assert!(!line.contains("running:"), "{line}");
        p.finish();
    }

    #[test]
    fn bus_streams_events_to_a_blocking_reader() {
        let mut bus = ProgressBus::new();
        let reader = bus.clone();
        let (polled, polls) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            let mut cursor = 0;
            let mut lines = Vec::new();
            loop {
                let (events, next) = reader.events_since(cursor, Duration::from_secs(10));
                cursor = next;
                lines.extend(events);
                let _ = polled.send(cursor);
                if reader.snapshot().finished && cursor == reader.snapshot().events {
                    return lines;
                }
            }
        });
        bus.begin(2);
        // `begin` wakes the reader (or it polls after it); once it has
        // the line, the items follow without waking it.
        while polls.recv().unwrap() == 0 {}
        bus.item_done(0, "a", true);
        bus.item_done(1, "b", false);
        // Give the reader time to block again, so that only `finish`
        // can release it before its 10-s timeout. Had it not blocked
        // yet, it returns at once: the bound holds either way.
        std::thread::sleep(Duration::from_millis(50));
        let finished = Instant::now();
        bus.finish();
        let lines = t.join().unwrap();
        let waited = finished.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "the reader returned {waited:?} after finish"
        );
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "{\"progress\":\"begin\",\"total\":2}");
        assert_eq!(
            lines[1],
            "{\"progress\":\"item\",\"index\":0,\"done\":1,\"total\":2,\"label\":\"a\",\"ok\":true}"
        );
        assert_eq!(
            lines[3],
            "{\"progress\":\"end\",\"done\":2,\"total\":2,\"failed\":1}"
        );
        let snap = bus.snapshot();
        assert_eq!((snap.total, snap.done, snap.failed), (2, 2, 1));
        assert!(snap.finished);
    }

    #[test]
    fn bus_timeout_returns_empty_without_news() {
        let bus = ProgressBus::new();
        let (events, cursor) = bus.events_since(0, Duration::from_millis(10));
        assert!(events.is_empty());
        assert_eq!(cursor, 0);
    }

    /// Two scenarios can share a label (E10 tears the same ring twice);
    /// finishing one must free its own worker's slot only.
    #[test]
    fn finishing_an_item_clears_only_its_own_worker_slot() {
        let mut p = StderrProgress::new().with_min_interval(Duration::from_secs(3600));
        p.begin(2);
        p.item_started(0, 4, "cfg-unison/ring/n=8#0");
        p.item_started(1, 5, "cfg-unison/ring/n=8#0");
        p.item_done(5, "cfg-unison/ring/n=8#0", true);
        assert_eq!(p.workers[0], Some((4, "cfg-unison/ring/n=8#0".to_owned())));
        assert_eq!(p.workers[1], None);
        p.finish();
    }

    #[test]
    fn eta_appears_once_items_complete() {
        let mut p = StderrProgress::new().with_min_interval(Duration::ZERO);
        p.begin(10);
        assert!(!p.render_line().contains("eta"));
        p.item_done(0, "x", true);
        assert!(p.render_line().contains("eta"));
        p.finish();
    }
}
