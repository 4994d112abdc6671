//! The job board: every submitted campaign, queued → running → done,
//! with its live event bus and stored outcome.
//!
//! A [`Job`] is shared between the HTTP handlers (status, SSE,
//! downloads) and the orchestrator thread (execution), so its mutable
//! half sits behind one mutex. A finished job stores its records once,
//! as the typed records the sweep returned (behind an [`Arc`]), next
//! to its metrics snapshot. Every artifact — JSONL, CSV, HTML report —
//! is rendered from those per request, outside the lock, and nothing
//! rendered is kept: rendering is a pure function of the stored
//! records, so serving an artifact twice yields the same bytes.

use std::sync::{Arc, Mutex};

use ssr_campaign::output::Json;
use ssr_campaign::{Campaign, ScenarioRecord};
use ssr_obs::progress::ProgressBus;

/// Where a job is in its life cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting for the orchestrator.
    Queued,
    /// The engine is draining the grid.
    Running,
    /// Finished; artifacts are available.
    Done,
    /// The engine panicked (message retained).
    Failed(String),
}

impl JobPhase {
    fn label(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed(_) => "failed",
        }
    }
}

/// The mutable half of a job, written by the orchestrator.
#[derive(Default)]
pub struct JobOutcome {
    /// Current phase (`Queued` at rest thanks to `Default`).
    phase: Option<JobPhase>,
    /// The records in grid order, once done: their one stored form,
    /// shared with the handlers that render them.
    pub records: Option<Arc<Vec<ScenarioRecord>>>,
    /// Merged metrics snapshot as `ssr-metrics-v1` JSON, once done.
    pub metrics_json: Option<String>,
    /// Scenarios served from the content-addressed store.
    pub cache_hits: u64,
    /// Scenarios that actually ran the simulator.
    pub cache_misses: u64,
    /// Simulator steps executed (zero on an all-hit rerun).
    pub sim_steps: u64,
    /// Records with a non-ok verdict.
    pub failed: u64,
}

/// One submitted campaign.
pub struct Job {
    /// Server-assigned id, also the URL path segment: `<seq>-<spec id>`.
    pub id: String,
    /// The grid to run.
    pub campaign: Campaign,
    /// Live progress events; handlers clone it and read, the engine
    /// writes through the [`ssr_obs::progress::Progress`] impl.
    pub bus: ProgressBus,
    outcome: Mutex<JobOutcome>,
}

impl Job {
    fn new(id: String, campaign: Campaign) -> Arc<Job> {
        Arc::new(Job {
            id,
            campaign,
            bus: ProgressBus::new(),
            outcome: Mutex::new(JobOutcome::default()),
        })
    }

    /// The current phase.
    pub fn phase(&self) -> JobPhase {
        self.outcome
            .lock()
            .unwrap()
            .phase
            .clone()
            .unwrap_or(JobPhase::Queued)
    }

    /// Moves the job to `phase`.
    pub fn set_phase(&self, phase: JobPhase) {
        self.outcome.lock().unwrap().phase = Some(phase);
    }

    /// Runs `f` over the locked outcome (read or write).
    pub fn with_outcome<T>(&self, f: impl FnOnce(&mut JobOutcome) -> T) -> T {
        f(&mut self.outcome.lock().unwrap())
    }

    /// The status document served at `GET /campaigns/<id>`.
    pub fn status_json(&self) -> String {
        let snap = self.bus.snapshot();
        let out = self.outcome.lock().unwrap();
        let phase = out.phase.clone().unwrap_or(JobPhase::Queued);
        let mut doc = Json::obj([
            ("job", Json::str(&self.id)),
            ("campaign", Json::str(self.campaign.id())),
            ("phase", Json::str(phase.label())),
            ("scenarios", Json::U64(self.campaign.len() as u64)),
            ("done", Json::U64(snap.done as u64)),
            ("failed", Json::U64(out.failed)),
            ("cache_hits", Json::U64(out.cache_hits)),
            ("cache_misses", Json::U64(out.cache_misses)),
            ("sim_steps", Json::U64(out.sim_steps)),
        ]);
        if let (Json::Obj(members), JobPhase::Failed(msg)) = (&mut doc, &phase) {
            members.push(("error".to_string(), Json::Str(escape_to_plain(msg))));
        }
        doc.to_string()
    }
}

/// `Json::Str` escapes on render; this only flattens newlines so the
/// status document stays one line per job in listings.
fn escape_to_plain(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ")
}

/// The registry of all jobs, in submission order.
#[derive(Default)]
pub struct JobBoard {
    jobs: Mutex<Vec<Arc<Job>>>,
}

impl JobBoard {
    /// An empty board.
    pub fn new() -> JobBoard {
        JobBoard::default()
    }

    /// Registers a new job for `campaign` under a fresh sequential id
    /// (`0001-<spec id>`, `0002-…`) and returns it.
    pub fn submit(&self, spec_id: &str, campaign: Campaign) -> Arc<Job> {
        let mut jobs = self.jobs.lock().unwrap();
        let id = format!("{:04}-{spec_id}", jobs.len() + 1);
        let job = Job::new(id, campaign);
        jobs.push(job.clone());
        job
    }

    /// Looks a job up by its full id.
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .unwrap()
            .iter()
            .find(|j| j.id == id)
            .cloned()
    }

    /// All jobs, in submission order.
    pub fn all(&self) -> Vec<Arc<Job>> {
        self.jobs.lock().unwrap().clone()
    }

    /// The listing document served at `GET /campaigns`.
    pub fn listing_json(&self) -> String {
        let jobs = self.all();
        let mut s = String::from("{\"jobs\":[");
        for (i, job) in jobs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&job.status_json());
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board_with_two() -> (JobBoard, Arc<Job>, Arc<Job>) {
        let board = JobBoard::new();
        let a = board.submit("alpha", Campaign::new("alpha"));
        let b = board.submit("beta", Campaign::new("beta"));
        (board, a, b)
    }

    #[test]
    fn ids_are_sequential_and_resolvable() {
        let (board, a, b) = board_with_two();
        assert_eq!(a.id, "0001-alpha");
        assert_eq!(b.id, "0002-beta");
        assert!(Arc::ptr_eq(&board.get("0001-alpha").unwrap(), &a));
        assert!(board.get("0003-gamma").is_none());
    }

    #[test]
    fn status_reflects_phase_and_counters() {
        let (_, a, _) = board_with_two();
        assert_eq!(a.phase(), JobPhase::Queued);
        assert!(a.status_json().contains("\"phase\":\"queued\""));
        a.set_phase(JobPhase::Running);
        a.with_outcome(|o| {
            o.cache_hits = 3;
            o.sim_steps = 17;
        });
        let s = a.status_json();
        assert!(s.contains("\"phase\":\"running\""), "{s}");
        assert!(s.contains("\"cache_hits\":3"), "{s}");
        assert!(s.contains("\"sim_steps\":17"), "{s}");
        a.set_phase(JobPhase::Failed("boom\nline2".to_string()));
        let s = a.status_json();
        assert!(
            s.contains("\"phase\":\"failed\"") && s.contains("boom line2"),
            "{s}"
        );
    }

    #[test]
    fn listing_concatenates_all_jobs() {
        let (board, _, _) = board_with_two();
        let listing = board.listing_json();
        assert!(listing.starts_with("{\"jobs\":["));
        assert!(listing.contains("0001-alpha") && listing.contains("0002-beta"));
    }
}
