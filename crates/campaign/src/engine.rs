//! The batch execution engine: [`Sweep`], the one way to map a campaign
//! grid over the [`par_map`] worker pool, one scenario at a time.
//!
//! A sweep mirrors [`ssr_runtime::Execution`]: start from
//! [`Sweep::of`], set worker [`threads`](Sweep::threads), the family
//! [`registry`](Sweep::registry) and any side channel —
//! [`progress`](Sweep::progress), [`metrics`](Sweep::metrics) or
//! [`timed_metrics`](Sweep::timed_metrics),
//! [`trace_dir`](Sweep::trace_dir), and a record
//! [`cache`](Sweep::cache) with an optional checkpoint journal — then
//! finish with [`run`](Sweep::run) (the records),
//! [`run_report`](Sweep::run_report) (the records plus the merged
//! metrics) or [`map`](Sweep::map) (a custom runner's results plus the
//! merged metrics). Every channel is off by default, and a channel
//! that is off does no work per scenario.
//!
//! # Determinism contract
//!
//! Results are **byte-identical across thread counts**:
//!
//! 1. every scenario's seed derives from its grid *index* (not from
//!    worker identity or pop order);
//! 2. the runner is a pure function of the scenario;
//! 3. results are placed back by index, so the returned vector is in
//!    grid order regardless of which worker finished first.
//!
//! The property test in `tests/determinism.rs` pins this down. The
//! channels observe, they never steer: records are identical with any
//! combination of them on (`tests/obs_equivalence.rs`,
//! `tests/cache_equivalence.rs`).

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ssr_obs::metrics::MetricsSet;
use ssr_obs::pipeline::PipelineMetrics;
use ssr_obs::progress::Progress;
use ssr_runtime::family::FamilyRegistry;
use ssr_runtime::pool::par_map;

use crate::cache::RecordCache;
use crate::checkpoint::CheckpointWriter;
use crate::grid::Campaign;
use crate::obs::{scenario_label, trace_path, ObsProbe};
use crate::runner::{self, GraphSlot, ScenarioRecord};
use crate::scenario::Scenario;

/// A configured run of one campaign; see the [module docs](self).
///
/// # Examples
///
/// ```
/// use ssr_campaign::engine::Sweep;
/// use ssr_campaign::{families, Campaign, RecordCache, TopologySpec};
///
/// let campaign = Campaign::new("sweep-demo")
///     .topologies(vec![TopologySpec::Ring])
///     .sizes(vec![6])
///     .algorithms(vec![families::unison_sdr()])
///     .trials(2);
/// let cache = RecordCache::new();
/// let cold = Sweep::of(&campaign).threads(2).metrics().cache(&cache, None).run_report();
/// assert!(cold.metrics.counter_value("pipeline.steps").is_some());
/// // The second pass is all cache hits: the simulator never runs.
/// let warm = Sweep::of(&campaign).metrics().cache(&cache, None).run_report();
/// assert_eq!(warm.records, cold.records);
/// assert_eq!(warm.metrics.counter_value("campaign.cache_hits"), Some(2));
/// assert_eq!(warm.metrics.counter_value("pipeline.steps"), None);
/// ```
pub struct Sweep<'a> {
    campaign: &'a Campaign,
    threads: usize,
    registry: &'a FamilyRegistry,
    progress: Option<&'a mut dyn Progress>,
    /// `Some(timed)` when metrics are on; `timed` adds the wall-clock
    /// `phase.*.nanos` histograms.
    metrics: Option<bool>,
    trace_dir: Option<PathBuf>,
    cache: Option<&'a RecordCache>,
    journal: Option<&'a CheckpointWriter>,
}

/// What [`Sweep::run_report`] and [`Sweep::map`] return.
pub struct SweepReport<R = ScenarioRecord> {
    /// The records (a custom runner's results), in grid order.
    pub records: Vec<R>,
    /// The metrics merged across workers; empty unless
    /// [`Sweep::metrics`] or [`Sweep::timed_metrics`] was set.
    pub metrics: MetricsSet,
}

impl<'a> Sweep<'a> {
    /// A sequential sweep of `campaign` against the standard registry,
    /// every channel off.
    pub fn of(campaign: &'a Campaign) -> Self {
        Sweep {
            campaign,
            threads: 1,
            registry: crate::families::default_registry(),
            progress: None,
            metrics: None,
            trace_dir: None,
            cache: None,
            journal: None,
        }
    }

    /// Runs on up to `threads` workers (clamped to
    /// `[1, campaign.len()]`); the records do not depend on it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Resolves algorithm families against `registry` — how campaigns
    /// run user-registered families (see `examples/custom_family.rs`).
    pub fn registry(mut self, registry: &'a FamilyRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Reports each scenario's start and completion to `progress`,
    /// between one `begin` and one `finish`.
    pub fn progress(mut self, progress: &'a mut dyn Progress) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Merges pipeline and `campaign.*` metrics into the report
    /// (deterministic keys only).
    pub fn metrics(mut self) -> Self {
        self.metrics = Some(false);
        self
    }

    /// Like [`Sweep::metrics`], plus the per-phase wall-time histograms
    /// (`phase.*.nanos`, nondeterministic).
    pub fn timed_metrics(mut self) -> Self {
        self.metrics = Some(true);
        self
    }

    /// Writes one JSONL trace per simulated scenario into `dir`, named
    /// by [`trace_path`]; the first trace creates `dir`.
    pub fn trace_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.trace_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Serves scenarios from `cache` when it holds their fingerprint
    /// (the simulator never runs), and inserts every fresh record —
    /// also appending it to `journal`, when given.
    pub fn cache(mut self, cache: &'a RecordCache, journal: Option<&'a CheckpointWriter>) -> Self {
        self.cache = Some(cache);
        self.journal = journal;
        self
    }

    /// Runs every scenario through the default runner and returns the
    /// records in grid order, each stamped with the campaign id.
    pub fn run(self) -> Vec<ScenarioRecord> {
        self.run_report().records
    }

    /// [`Sweep::run`], plus the merged metrics.
    pub fn run_report(mut self) -> SweepReport {
        let (registry, cache, journal) = (self.registry, self.cache, self.journal);
        let trace_dir = self.trace_dir.take();
        let id = self.campaign.id();
        self.drive(|sc, worker| {
            let graphs = &mut worker.graphs;
            let fp = cache.map(|_| sc.fingerprint());
            let cached = cache.zip(fp).and_then(|(cache, fp)| cache.lookup(fp, &sc));
            let hit = cached.is_some();
            let mut rec = match cached {
                Some(rec) => rec,
                None => {
                    let index = sc.index;
                    let rec = if worker.fold.is_some() || trace_dir.is_some() {
                        let path = trace_dir.as_deref().map(|dir| trace_path(dir, index));
                        let mut probe = ObsProbe::new(&mut worker.fold, path);
                        runner::run_scenario_probed(registry, sc, Some(&mut probe), graphs)
                    } else {
                        runner::run_scenario_probed(registry, sc, None, graphs)
                    };
                    if let Some((cache, fp)) = cache.zip(fp) {
                        cache.insert(fp, &rec);
                        if let Some(journal) = journal {
                            if let Err(e) = journal.append(fp, &rec) {
                                eprintln!("checkpoint append failed: {e}");
                            }
                        }
                    }
                    rec
                }
            };
            if let Some(m) = worker.metrics.as_mut() {
                m.inc("campaign.scenarios", 1);
                if cache.is_some() {
                    let key = if hit {
                        "campaign.cache_hits"
                    } else {
                        "campaign.cache_misses"
                    };
                    m.inc(key, 1);
                }
                if !rec.verdict.ok() {
                    m.inc("campaign.failed", 1);
                }
            }
            rec.campaign = id.to_string();
            let ok = rec.verdict.ok();
            (rec, ok)
        })
    }

    /// Runs every scenario through `runner` and returns its results in
    /// grid order, with the metrics its simulations folded. The runner
    /// gets the [`ObsProbe`] the default runner would: the worker's
    /// metrics fold and the scenario's trace file, reached through
    /// `Family::run` or a simulator of its own (see [`ObsProbe`]); a
    /// runner that leaves it unused writes no trace. No `campaign.*`
    /// counter is kept. The runner must be a pure function of the
    /// scenario for the determinism contract to hold.
    pub fn map<R, F>(mut self, runner: F) -> SweepReport<R>
    where
        R: Send,
        F: Fn(Scenario, &mut ObsProbe<'_>) -> R + Sync,
    {
        let trace_dir = self.trace_dir.take();
        self.drive(|sc, worker| {
            let path = trace_dir.as_deref().map(|dir| trace_path(dir, sc.index));
            (runner(sc, &mut ObsProbe::new(&mut worker.fold, path)), true)
        })
    }

    /// The one pool pass behind [`Sweep::run_report`] and
    /// [`Sweep::map`]: `work` maps a scenario (and the state of the
    /// worker running it) to its result and whether it went ok.
    fn drive<R, W>(self, work: W) -> SweepReport<R>
    where
        R: Send,
        W: Fn(Scenario, &mut Worker) -> (R, bool) + Sync,
    {
        let Sweep {
            campaign,
            threads,
            mut progress,
            metrics,
            ..
        } = self;
        if let Some(p) = progress.as_deref_mut() {
            p.begin(campaign.len());
        }
        let progress = progress.map(Mutex::new);
        let (records, workers) = par_map(
            campaign.len(),
            threads,
            1,
            |id| Worker {
                id,
                metrics: metrics.map(|_| MetricsSet::new()),
                fold: metrics.map(|timed| {
                    if timed {
                        PipelineMetrics::new()
                    } else {
                        PipelineMetrics::without_timing()
                    }
                }),
                graphs: GraphSlot::default(),
            },
            |worker, i| {
                let sc = campaign.scenario(i);
                let Some(progress) = &progress else {
                    return work(sc, worker).0;
                };
                let label = scenario_label(&sc);
                let lock = || progress.lock().expect("progress lock poisoned");
                lock().item_started(worker.id, i, &label);
                let (result, ok) = work(sc, worker);
                lock().item_done(i, &label, ok);
                result
            },
        );
        // One fold per worker, named and merged once: the merge is
        // commutative, so the snapshot is the per-scenario folds' sum.
        let mut merged = MetricsSet::new();
        for worker in workers {
            if let Some(local) = &worker.metrics {
                merged.merge(local);
            }
            if let Some(fold) = worker.fold {
                merged.merge(&fold.into_metrics());
            }
        }
        if let Some(p) = progress {
            p.into_inner().expect("progress lock poisoned").finish();
        }
        SweepReport {
            records,
            metrics: merged,
        }
    }
}

/// One pool worker's state, threaded through every scenario it runs:
/// its id (for progress), its metrics when they are on — the
/// `campaign.*` counters and the one [`PipelineMetrics`] that every
/// scenario it simulates folds into — and the graph it built last.
struct Worker {
    id: usize,
    metrics: Option<MetricsSet>,
    /// Moved into each simulated scenario's sink and back (see
    /// [`ObsProbe`]).
    fold: Option<PipelineMetrics>,
    graphs: GraphSlot,
}

/// `Sweep::of(campaign).threads(threads).registry(registry).run()`,
/// kept because the repository benchmark (`benchmark/`) calls it.
pub fn run_in(
    registry: &FamilyRegistry,
    campaign: &Campaign,
    threads: usize,
) -> Vec<ScenarioRecord> {
    Sweep::of(campaign)
        .threads(threads)
        .registry(registry)
        .run()
}

/// `Sweep::of(campaign).threads(threads).map(runner)`, kept because
/// the repository benchmark (`benchmark/`) calls it.
pub fn run_with<R, F>(campaign: &Campaign, threads: usize, runner: F) -> Vec<R>
where
    R: Send,
    F: Fn(Scenario) -> R + Sync,
{
    Sweep::of(campaign)
        .threads(threads)
        .map(|sc, _| runner(sc))
        .records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TopologySpec;
    use ssr_runtime::Daemon;

    fn tiny() -> Campaign {
        Campaign::new("engine-test")
            .topologies(vec![TopologySpec::Ring, TopologySpec::Star])
            .sizes(vec![6, 8])
            .algorithms(vec![crate::families::sdr_agreement(4)])
            .daemons(vec![Daemon::Central, Daemon::Synchronous])
            .trials(2)
            .step_cap(500_000)
    }

    fn run(c: &Campaign, threads: usize) -> Vec<ScenarioRecord> {
        Sweep::of(c).threads(threads).run()
    }

    #[test]
    fn results_are_in_grid_order() {
        let c = tiny();
        let records = run(&c, 3);
        assert_eq!(records.len(), c.len());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.campaign, "engine-test");
        }
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let c = tiny();
        let seq = run(&c, 1);
        for threads in [2, 4, 7] {
            assert_eq!(seq, run(&c, threads), "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        let c = tiny();
        assert_eq!(run(&c, 0), run(&c, 1));
    }

    #[test]
    fn run_in_matches_run_on_the_standard_registry() {
        let c = tiny();
        let registry = crate::families::standard_families();
        assert_eq!(run_in(&registry, &c, 2), run(&c, 2));
    }

    #[test]
    fn run_with_custom_runner_sees_every_scenario() {
        let c = tiny();
        let indices = Sweep::of(&c).threads(4).map(|sc, _| sc.index).records;
        assert_eq!(indices, (0..c.len()).collect::<Vec<_>>());
        assert_eq!(run_with(&c, 4, |sc| sc.index), indices);
    }
}
