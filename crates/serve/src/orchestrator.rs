//! The single-lane orchestrator: jobs run FIFO, one at a time, as
//! cached campaign sweeps against one shared content-addressed store.
//!
//! One lane is a feature, not a limitation: the engine already
//! parallelizes *within* a campaign (worker threads over the grid), so
//! a second lane would only interleave two sweeps' cache misses. FIFO
//! also gives the resumability story a simple shape — the checkpoint
//! journal is an append-only merge of completed scenarios in the order
//! they finished, whatever job they belonged to.

use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::Scope;

use ssr_campaign::{checkpoint, CheckpointWriter, RecordCache, Sweep, SweepReport};
use ssr_obs::progress::{Progress, ProgressBus};

use crate::jobs::{Job, JobPhase};

/// The store shared by every job: the in-memory record cache plus the
/// optional on-disk checkpoint journal backing it.
pub struct Store {
    /// Fingerprint → record; hits skip the simulator.
    pub cache: Arc<RecordCache>,
    /// The journal, when the server was started with one.
    pub checkpoint: Option<CheckpointWriter>,
    /// Entries replayed from the journal at boot.
    pub replayed: usize,
}

impl Store {
    /// An empty in-memory store (no journal).
    pub fn in_memory() -> Store {
        Store {
            cache: Arc::new(RecordCache::new()),
            checkpoint: None,
            replayed: 0,
        }
    }

    /// Opens (or creates) the journal at `path`, replaying any
    /// existing entries into the cache first. A torn final line — the
    /// signature of a killed process — is dropped on replay and healed
    /// by the writer, so resuming after a crash is the normal path,
    /// not an error.
    pub fn with_checkpoint(path: PathBuf) -> Result<Store, String> {
        let cache = Arc::new(RecordCache::new());
        let (writer, replayed) = checkpoint::resume(&path, &cache)?;
        Ok(Store {
            cache,
            checkpoint: Some(writer),
            replayed,
        })
    }
}

/// The job's bus as the engine sees it: every event but `finish`,
/// which [`run_job`] emits itself once the artifacts are stored and
/// the phase is `Done`. A reader that sees the stream end can then
/// fetch the records at once.
struct UntilStored(ProgressBus);

impl Progress for UntilStored {
    fn begin(&mut self, total: usize) {
        self.0.begin(total);
    }

    fn item_started(&mut self, worker: usize, index: usize, label: &str) {
        self.0.item_started(worker, index, label);
    }

    fn item_done(&mut self, index: usize, label: &str, ok: bool) {
        self.0.item_done(index, label, ok);
    }
}

/// Runs one job to completion against the store, updating its phase,
/// artifacts, and counters; the bus ends only after that, on success
/// and on panic alike. Called from the orchestrator loop and from
/// tests that want synchronous execution.
///
/// The job's [`Sweep`] runs on a fresh thread spawned on `scope`, one
/// of its own workers, and a panic in it comes back through `join`.
/// When the long-lived orchestrator thread ran its share of the
/// scenarios itself, glibc's malloc arena fragmented across jobs and
/// `serve-mixed` peak RSS rose by 18%.
pub fn run_job<'scope>(
    scope: &'scope Scope<'scope, '_>,
    job: &Job,
    store: &'scope Store,
    threads: usize,
) {
    job.set_phase(JobPhase::Running);
    let campaign = job.campaign.clone();
    let mut bus = UntilStored(job.bus.clone());
    let engine = scope.spawn(move || {
        Sweep::of(&campaign)
            .threads(threads)
            .progress(&mut bus)
            .metrics()
            .cache(&store.cache, store.checkpoint.as_ref())
            .run_report()
    });
    match engine.join() {
        Ok(SweepReport { records, metrics }) => {
            // The records are stored as the sweep returned them, moved
            // into an `Arc`: the lane renders none of the artifacts,
            // each request renders its own (`server.rs`). The metrics
            // are rendered before the job's lock is taken, so status and
            // artifact readers never wait on them.
            let records = Arc::new(records);
            let metrics_json = metrics.to_json();
            let counter = |key: &str| metrics.counter_value(key).unwrap_or(0);
            job.with_outcome(|out| {
                out.cache_hits = counter("campaign.cache_hits");
                out.cache_misses = counter("campaign.cache_misses");
                out.sim_steps = counter("pipeline.steps");
                out.failed = counter("campaign.failed");
                out.records = Some(records);
                out.metrics_json = Some(metrics_json);
            });
            job.set_phase(JobPhase::Done);
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "campaign engine panicked".to_string());
            job.set_phase(JobPhase::Failed(msg));
        }
    }
    // Release the readers blocked on the bus: the phase is final.
    job.bus.clone().finish();
}

/// The orchestrator loop: drains the queue until every sender is
/// dropped, then returns. Dropping the last [`Sender`] is therefore
/// the graceful-shutdown signal — queued jobs still run (drain
/// semantics), new ones can no longer be enqueued. Each job's engine
/// runs on a thread spawned on `scope` ([`run_job`]).
pub fn run_loop<'scope>(
    scope: &'scope Scope<'scope, '_>,
    rx: Receiver<Arc<Job>>,
    store: &'scope Store,
    threads: usize,
) {
    for job in rx {
        run_job(scope, &job, store, threads);
    }
}

/// Convenience: a queue pair typed for the orchestrator.
pub fn queue() -> (Sender<Arc<Job>>, Receiver<Arc<Job>>) {
    std::sync::mpsc::channel()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobBoard;
    use ssr_campaign::{output, Campaign, TopologySpec};
    use ssr_runtime::Daemon;

    fn tiny(id: &str) -> Campaign {
        Campaign::new(id)
            .topologies(vec![TopologySpec::Ring, TopologySpec::Star])
            .sizes(vec![6])
            .algorithms(vec![ssr_campaign::families::unison_sdr()])
            .daemons(vec![Daemon::Central])
            .trials(2)
            .step_cap(500_000)
    }

    #[test]
    fn rerunning_the_same_spec_is_all_hits_and_byte_identical() {
        let board = JobBoard::new();
        let store = Store::in_memory();
        let first = board.submit("t", tiny("t"));
        let second = board.submit("t", tiny("t"));
        std::thread::scope(|scope| {
            run_job(scope, &first, &store, 2);
            run_job(scope, &second, &store, 2);
        });
        assert_eq!(first.phase(), JobPhase::Done);
        assert_eq!(second.phase(), JobPhase::Done);
        let (records1, hits1, steps1) =
            first.with_outcome(|o| (o.records.clone().unwrap(), o.cache_hits, o.sim_steps));
        let (records2, hits2, steps2) =
            second.with_outcome(|o| (o.records.clone().unwrap(), o.cache_hits, o.sim_steps));
        assert_eq!(hits1, 0, "cold run misses everything");
        assert!(steps1 > 0, "cold run actually simulates");
        assert_eq!(
            hits2,
            first.campaign.len() as u64,
            "warm run hits everything"
        );
        assert_eq!(steps2, 0, "warm run never touches the simulator");
        assert_eq!(records1, records2, "the stored records are identical");
        assert_eq!(
            output::jsonl(&records1),
            output::jsonl(&records2),
            "artifacts are byte-identical"
        );
    }

    #[test]
    fn the_loop_drains_and_exits_when_senders_drop() {
        let board = JobBoard::new();
        let store = Store::in_memory();
        let (tx, rx) = queue();
        let job = board.submit("drain", tiny("drain"));
        tx.send(job.clone()).unwrap();
        drop(tx);
        std::thread::scope(|scope| run_loop(scope, rx, &store, 2));
        assert_eq!(job.phase(), JobPhase::Done);
        assert!(job.bus.snapshot().finished);
    }

    #[test]
    fn a_rebooted_store_replays_the_journal_into_the_cache() {
        let dir = std::env::temp_dir().join(format!("ssr-serve-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);

        // First server life: cold sweep, journaled.
        let store = Store::with_checkpoint(path.clone()).unwrap();
        assert_eq!(store.replayed, 0);
        let board = JobBoard::new();
        let cold = board.submit("t", tiny("t"));
        std::thread::scope(|scope| run_job(scope, &cold, &store, 2));
        let cold_records = cold.with_outcome(|o| o.records.clone().unwrap());
        drop(store);

        // Second life: boot replays, the same sweep is all hits.
        let store = Store::with_checkpoint(path.clone()).unwrap();
        assert_eq!(store.replayed, cold.campaign.len());
        let warm = board.submit("t", tiny("t"));
        std::thread::scope(|scope| run_job(scope, &warm, &store, 2));
        let (warm_records, hits, steps) =
            warm.with_outcome(|o| (o.records.clone().unwrap(), o.cache_hits, o.sim_steps));
        assert_eq!(hits, warm.campaign.len() as u64);
        assert_eq!(steps, 0);
        assert_eq!(warm_records, cold_records);
        assert_eq!(output::jsonl(&warm_records), output::jsonl(&cold_records));
        let _ = std::fs::remove_file(&path);
    }
}
