//! [`ExpCtx`]: the execution context threaded through every experiment
//! group — worker count plus the observability channels selected on
//! the `experiments` command line (`--progress`, `--metrics`,
//! `--trace`, `--report`, `--checkpoint`).
//!
//! Campaigns drain through one [`Sweep`] each, carrying whatever
//! channels the context enables, the custom runners of
//! [`ExpCtx::run_with`] included: the sweep lends each of them the
//! scenario's [`ObsProbe`], which they pass to `Family::run` or wrap
//! around a simulator of their own. The context is shared (`&ExpCtx`),
//! and its metrics aggregate merges each sweep's folds under a mutex
//! once per campaign, never per scenario. With no channel enabled
//! every method degrades to the bare sweep — experiments pay nothing
//! for the seam.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ssr_campaign::obs::ObsProbe;
use ssr_campaign::{
    checkpoint, Campaign, CheckpointWriter, RecordCache, Scenario, ScenarioRecord, Sweep,
};
use ssr_obs::metrics::MetricsSet;
use ssr_obs::progress::StderrProgress;

/// Execution context for one `experiments` invocation.
pub struct ExpCtx {
    threads: usize,
    progress: bool,
    /// The aggregate of every campaign's and measured run's metrics,
    /// per-phase wall time included (the phase breakdown is the point
    /// of `--metrics`).
    metrics: Option<Mutex<MetricsSet>>,
    trace_dir: Option<PathBuf>,
    report_dir: Option<PathBuf>,
    /// The content-addressed store behind `--checkpoint`: fingerprint
    /// cache plus the journal it resumes from, and how many entries
    /// the journal replayed at open.
    store: Option<(RecordCache, CheckpointWriter, usize)>,
    /// Campaign records accumulated for the report, as
    /// `(campaign id, JSONL text)` — the exact bytes `--report` will
    /// persist, so the report inherits the records' thread-count
    /// determinism.
    report_rows: Mutex<Vec<(String, String)>>,
}

impl ExpCtx {
    /// A context with all observability channels off.
    pub fn new(threads: usize) -> Self {
        ExpCtx {
            threads,
            progress: false,
            metrics: None,
            trace_dir: None,
            report_dir: None,
            store: None,
            report_rows: Mutex::new(Vec::new()),
        }
    }

    /// Campaign worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Streams per-campaign completion to stderr.
    #[must_use]
    pub fn with_progress(mut self) -> Self {
        self.progress = true;
        self
    }

    /// Accumulates pipeline metrics, `phase.*.nanos` wall-time
    /// histograms included, across all experiment groups.
    #[must_use]
    pub fn with_metrics(mut self) -> Self {
        self.metrics = Some(Mutex::new(MetricsSet::new()));
        self
    }

    /// Writes per-scenario JSONL traces under
    /// `dir/<campaign-id>/trace-<index>.jsonl` (deterministic, unless
    /// metrics are on too: their phase timings reach the files).
    #[must_use]
    pub fn with_trace_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.trace_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Accumulates every drained campaign's records and, on
    /// [`ExpCtx::write_report`], persists them (plus the metrics
    /// snapshot) under `dir` and renders `dir/report.html`. Only
    /// campaigns drained through [`ExpCtx::run`] appear — custom
    /// runners ([`ExpCtx::run_with`]) produce no [`ScenarioRecord`]s
    /// to report, though their metrics and traces are kept.
    #[must_use]
    pub fn with_report_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.report_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Resumes from (and journals into) the `ssr-checkpoint/v1` file
    /// at `path`: existing entries are replayed into a fingerprint
    /// cache so already-completed scenarios are served without
    /// simulating, and every fresh record is appended as it completes.
    /// A torn final line (killed process) is dropped and healed — the
    /// crash-resume path is the normal path.
    pub fn with_checkpoint(mut self, path: impl AsRef<Path>) -> Result<Self, String> {
        let cache = RecordCache::new();
        let (journal, replayed) = checkpoint::resume(path.as_ref(), &cache)?;
        self.store = Some((cache, journal, replayed));
        Ok(self)
    }

    /// Entries replayed from the checkpoint at open (`None` when
    /// `--checkpoint` is off).
    pub fn replayed(&self) -> Option<usize> {
        self.store.as_ref().map(|(_, _, n)| *n)
    }

    /// Remembers `records` for the report channel (no-op when
    /// `--report` is off).
    fn note_report(&self, campaign_id: &str, records: &[ScenarioRecord]) {
        if self.report_dir.is_none() || records.is_empty() {
            return;
        }
        self.report_rows.lock().expect("report poisoned").push((
            campaign_id.to_string(),
            ssr_campaign::output::jsonl(records),
        ));
    }

    /// A sweep of `campaign` with every channel this context enables
    /// but the checkpoint: its workers, progress to `progress`, the
    /// timed metrics fold and traces under `dir/<campaign-id>/`.
    fn sweep<'a>(&self, campaign: &'a Campaign, progress: &'a mut StderrProgress) -> Sweep<'a> {
        let mut sweep = Sweep::of(campaign).threads(self.threads);
        if self.progress {
            sweep = sweep.progress(progress);
        }
        if self.metrics.is_some() {
            sweep = sweep.timed_metrics();
        }
        if let Some(dir) = &self.trace_dir {
            sweep = sweep.trace_dir(dir.join(campaign.id()));
        }
        sweep
    }

    /// Merges one sweep's metrics into the context aggregate.
    fn merge_metrics(&self, metrics: &MetricsSet) {
        if let Some(agg) = &self.metrics {
            agg.lock().expect("metrics poisoned").merge(metrics);
        }
    }

    /// Drains `campaign` through the standard registry with every
    /// channel this context enables.
    pub fn run(&self, campaign: &Campaign) -> Vec<ScenarioRecord> {
        let mut progress = StderrProgress::new();
        let mut sweep = self.sweep(campaign, &mut progress);
        if let Some((cache, journal, _)) = &self.store {
            sweep = sweep.cache(cache, Some(journal));
        }
        let report = sweep.run_report();
        self.merge_metrics(&report.metrics);
        self.note_report(campaign.id(), &report.records);
        report.records
    }

    /// Drains `campaign` through a custom runner ([`Sweep::map`]) with
    /// the channels of [`ExpCtx::run`] but the checkpoint: the runner
    /// reaches the metrics and trace channels through the
    /// [`ObsProbe`] it is lent.
    pub fn run_with<R, F>(&self, campaign: &Campaign, runner: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Scenario, &mut ObsProbe<'_>) -> R + Sync,
    {
        let mut progress = StderrProgress::new();
        let report = self.sweep(campaign, &mut progress).map(runner);
        self.merge_metrics(&report.metrics);
        report.records
    }

    /// The merged metrics accumulated so far (`None` when `--metrics`
    /// is off).
    pub fn metrics_snapshot(&self) -> Option<MetricsSet> {
        self.metrics
            .as_ref()
            .map(|m| m.lock().expect("metrics poisoned").clone())
    }

    /// Persists everything the report channel accumulated — one
    /// `campaign-<id>.jsonl` per drained campaign, `metrics.json` when
    /// `--metrics` is on — under the `--report` directory, then
    /// renders `report.html` over the whole directory (including any
    /// traces `--trace` wrote beneath it). Returns the report path, or
    /// `Ok(None)` when the channel is off.
    pub fn write_report(&self) -> Result<Option<PathBuf>, String> {
        let Some(dir) = &self.report_dir else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for (id, jsonl) in self.report_rows.lock().expect("report poisoned").iter() {
            let path = dir.join(format!("campaign-{id}.jsonl"));
            std::fs::write(&path, jsonl)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        if let Some(snapshot) = self.metrics_snapshot() {
            let path = dir.join("metrics.json");
            std::fs::write(&path, format!("{}\n", snapshot.to_json()))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        let artifacts = ssr_report::load_dir(dir)?;
        let html = ssr_report::render(&artifacts);
        let path = dir.join("report.html");
        std::fs::write(&path, html).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(Some(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_campaign::{families, InitPlan, TopologySpec};
    use ssr_runtime::Daemon;

    fn tiny(id: &str) -> Campaign {
        Campaign::new(id)
            .topologies(vec![TopologySpec::Ring])
            .sizes(vec![8])
            .algorithms(vec![families::unison_sdr()])
            .daemons(vec![Daemon::Central])
            .inits(vec![InitPlan::Arbitrary])
            .trials(2)
            .step_cap(500_000)
    }

    #[test]
    fn bare_context_matches_the_engine() {
        let c = tiny("ctx-bare");
        let ctx = ExpCtx::new(2);
        assert_eq!(ctx.run(&c), Sweep::of(&c).threads(2).run());
        assert_eq!(ctx.metrics_snapshot(), None);
    }

    #[test]
    fn metrics_context_aggregates_without_changing_records() {
        let c = tiny("ctx-metrics");
        let ctx = ExpCtx::new(2).with_metrics();
        let records = ctx.run(&c);
        assert_eq!(records, Sweep::of(&c).threads(2).run());
        let steps = || {
            let snap = ctx.metrics_snapshot().unwrap();
            snap.counter_value("pipeline.steps")
                .unwrap_or_else(|| panic!("{}", snap.to_json()))
        };
        let first = steps();
        // A second campaign folds into the same aggregate.
        ctx.run(&tiny("ctx-metrics-2"));
        assert!(steps() > first);
    }

    #[test]
    fn checkpoint_context_resumes_without_resimulating() {
        let dir = std::env::temp_dir().join(format!("ssr-ctx-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);
        let c = tiny("ctx-ckpt");

        let cold_ctx = ExpCtx::new(2).with_checkpoint(&path).unwrap();
        assert_eq!(cold_ctx.replayed(), Some(0));
        let cold = cold_ctx.run(&c);
        drop(cold_ctx);

        // A fresh context over the same journal replays every record
        // and the rerun never touches the simulator (zero pipeline
        // steps in the metrics it folds).
        let warm_ctx = ExpCtx::new(2)
            .with_metrics()
            .with_checkpoint(&path)
            .unwrap();
        assert_eq!(warm_ctx.replayed(), Some(c.len()));
        let warm = warm_ctx.run(&c);
        assert_eq!(warm, cold, "resumed records are identical");
        let snap = warm_ctx.metrics_snapshot().unwrap();
        assert!(snap.get("pipeline.steps").is_none(), "{}", snap.to_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_with_folds_and_traces_a_direct_simulator() {
        use ssr_campaign::obs::trace_path;
        use ssr_core::{toys::Agreement, Sdr};
        use ssr_runtime::family::{collect_probe_sink, install_probe_sink};
        use ssr_runtime::{Simulator, TraceEvent};

        let dir = std::env::temp_dir().join(format!("ssr-ctx-test-{}", std::process::id()));
        let ctx = ExpCtx::new(2).with_metrics().with_trace_dir(&dir);
        let c = tiny("direct");
        let steps = ctx.run_with(&c, |sc, probe| {
            let g = sc.topology.build(sc.n, sc.seed);
            let algo = Sdr::new(Agreement::new(4));
            let init = algo.arbitrary_config(&g, sc.seed);
            let mut sim = Simulator::new(&g, algo, init, sc.daemon.clone(), sc.seed);
            install_probe_sink(probe, &mut sim);
            sim.execution().cap(sc.step_cap).run();
            collect_probe_sink(probe, &mut sim);
            sim.stats().steps
        });
        let snap = ctx.metrics_snapshot().unwrap();
        assert_eq!(
            snap.counter_value("pipeline.steps"),
            Some(steps.iter().sum())
        );
        assert_eq!(snap.counter_value("pipeline.runs"), Some(c.len() as u64));
        assert!(snap.histogram("phase.apply.nanos").is_some(), "timed");
        assert_eq!(snap.counter_value("campaign.scenarios"), None);
        for (i, &n) in steps.iter().enumerate() {
            let text = std::fs::read_to_string(trace_path(&dir.join("direct"), i)).unwrap();
            let events = ssr_obs::trace::parse_events(&text).unwrap();
            assert!(
                matches!(events.last(), Some(TraceEvent::RunEnded { steps, .. }) if *steps == n),
                "trace {i} closes its run"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
