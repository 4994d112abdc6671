//! The batch execution engine: the campaign grid mapped over the
//! [`par_map`] worker pool, one scenario at a time.
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
//! The property test in `tests/determinism.rs` pins this down.

use std::sync::Mutex;

use ssr_obs::metrics::MetricsSet;
use ssr_obs::progress::Progress;
use ssr_runtime::family::FamilyRegistry;
use ssr_runtime::pool::par_map;

use crate::cache::RecordCache;
use crate::checkpoint::CheckpointWriter;
use crate::grid::Campaign;
use crate::obs::{scenario_label, CampaignObs, ObsProbe};
use crate::runner::{self, ScenarioRecord};
use crate::scenario::Scenario;

/// The optional content-addressed layer of a cached run: the record
/// cache consulted before every scenario, plus an optional checkpoint
/// journal appended after every fresh run.
#[derive(Clone, Copy)]
pub struct CacheLayer<'a> {
    /// Fingerprint → record store; hits skip the simulator entirely.
    pub cache: &'a RecordCache,
    /// Journal for crash-resumable sweeps (`ssr-checkpoint/v1`).
    pub checkpoint: Option<&'a CheckpointWriter>,
}

/// Runs every scenario of `campaign` through `runner` on up to
/// `threads` workers (clamped to `[1, campaign.len()]`), returning the
/// results in grid order.
///
/// The runner must be a pure function of the scenario for the
/// determinism contract to hold; it is invoked concurrently from
/// multiple threads, hence `Sync`.
pub fn run_with<R, F>(campaign: &Campaign, threads: usize, runner: F) -> Vec<R>
where
    R: Send,
    F: Fn(Scenario) -> R + Sync,
{
    par_map(
        campaign.len(),
        threads,
        1,
        |_| (),
        |_, i| runner(campaign.scenario(i)),
    )
    .0
}

/// Runs the campaign with the default runner
/// ([`runner::run_scenario`]) and stamps the campaign id into each
/// record.
pub fn run(campaign: &Campaign, threads: usize) -> Vec<ScenarioRecord> {
    run_in(crate::families::default_registry(), campaign, threads)
}

/// Like [`run`], but resolves algorithm families against a
/// caller-supplied registry — the entry point for campaigns over
/// user-registered families (see `examples/custom_family.rs`).
pub fn run_in(
    registry: &FamilyRegistry,
    campaign: &Campaign,
    threads: usize,
) -> Vec<ScenarioRecord> {
    let mut records = run_with(campaign, threads, |sc| {
        runner::run_scenario_in(registry, sc)
    });
    for rec in &mut records {
        rec.campaign = campaign.id().to_string();
    }
    records
}

/// [`run`] with observability channels attached: live progress,
/// merged pipeline metrics, and per-scenario trace files, per
/// whatever `obs` enables. Records are identical to a bare [`run`] —
/// the channels observe, they never steer.
///
/// Scheduling of the side channels: progress notifications go through
/// one mutex (coarse, per scenario — never per step); each worker owns
/// a private [`MetricsSet`], submitted to the hub once the pool
/// returns, so the metrics hot path takes no lock at all.
pub fn run_obs(campaign: &Campaign, threads: usize, obs: &mut CampaignObs) -> Vec<ScenarioRecord> {
    run_core(campaign, threads, obs, None)
}

/// [`run_obs`] with a [`CacheLayer`] consulted per scenario: hits are
/// served from the cache (zero simulator steps — the probe is never
/// even built), misses run normally, then feed the cache and the
/// checkpoint journal. Records are byte-identical to an uncached run
/// (pinned by `tests/cache_equivalence.rs`).
pub fn run_obs_cached(
    campaign: &Campaign,
    threads: usize,
    obs: &mut CampaignObs,
    layer: CacheLayer<'_>,
) -> Vec<ScenarioRecord> {
    run_core(campaign, threads, obs, Some(layer))
}

fn run_core(
    campaign: &Campaign,
    threads: usize,
    obs: &mut CampaignObs,
    layer: Option<CacheLayer<'_>>,
) -> Vec<ScenarioRecord> {
    let registry = crate::families::default_registry();
    if let Some(p) = obs.progress.as_deref_mut() {
        p.begin(campaign.len());
    }
    let wants_probe = obs.wants_probe();
    let phase_timing = obs.phase_timing;
    let trace_dir = obs.trace_dir.as_deref();
    let hub = obs.metrics.as_ref();
    let progress: Mutex<Option<&mut dyn Progress>> = Mutex::new(obs.progress.as_deref_mut());
    // Each worker carries its id and a private `MetricsSet`, merged
    // into the hub once the pool returns.
    let (mut records, workers) = par_map(
        campaign.len(),
        threads,
        1,
        |w| (w, hub.map(|_| MetricsSet::new())),
        |(w, local), i| {
            let sc = campaign.scenario(i);
            let label = scenario_label(&sc);
            if let Some(p) = progress
                .lock()
                .expect("progress lock poisoned")
                .as_deref_mut()
            {
                p.item_started(*w, i, &label);
            }
            let fp = layer.map(|_| sc.fingerprint());
            let cached = match (layer, fp) {
                (Some(layer), Some(fp)) => layer.cache.lookup(fp, &sc),
                _ => None,
            };
            let hit = cached.is_some();
            let rec = if let Some(rec) = cached {
                // Cache hit: the simulator (and the probe feeding
                // pipeline.* metrics) never runs.
                rec
            } else {
                let rec = if wants_probe {
                    let path = trace_dir.map(|d| d.join(format!("trace-{i:05}.jsonl")));
                    let mut probe = ObsProbe::new(local.as_mut(), path, phase_timing);
                    runner::run_scenario_probed(registry, sc, Some(&mut probe))
                } else {
                    runner::run_scenario_in(registry, sc)
                };
                if let (Some(layer), Some(fp)) = (layer, fp) {
                    layer.cache.insert(fp, &rec);
                    if let Some(journal) = layer.checkpoint {
                        if let Err(e) = journal.append(fp, &rec) {
                            eprintln!("checkpoint append failed: {e}");
                        }
                    }
                }
                rec
            };
            if let Some(m) = local.as_mut() {
                m.inc("campaign.scenarios", 1);
                if layer.is_some() {
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
            if let Some(p) = progress
                .lock()
                .expect("progress lock poisoned")
                .as_deref_mut()
            {
                p.item_done(i, &label, rec.verdict.ok());
            }
            rec
        },
    );
    if let Some(hub) = hub {
        for local in workers.iter().filter_map(|(_, local)| local.as_ref()) {
            hub.submit(local);
        }
    }
    if let Some(p) = progress.into_inner().expect("progress lock poisoned") {
        p.finish();
    }
    for rec in &mut records {
        rec.campaign = campaign.id().to_string();
    }
    records
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
        let indices = run_with(&c, 4, |sc| sc.index);
        assert_eq!(indices, (0..c.len()).collect::<Vec<_>>());
    }
}
