//! A custom scenario campaign, not covered by the E1–E12 harness:
//! daemon sensitivity of `U ∘ SDR` recovery on topology families the
//! experiment suite never sweeps (hypercubes, lollipops, dense Gnp).
//!
//! Demonstrates the full campaign workflow: declare a grid, drain it
//! on worker threads, aggregate percentiles per group, and serialize
//! structured results — parallel and sequential execution produce
//! byte-identical output. The second half shows a *custom probe*: an
//! [`Observer`] measuring scheduling contention, attached to the
//! campaign's executions instead of a hand-rolled stepping loop.
//!
//! Run with: `cargo run --release --example campaign`

use ssr::campaign::{families, output, stats, Campaign, Sweep, TopologySpec};
use ssr::runtime::report::Table;
use ssr::runtime::{Daemon, Observer, Simulator, StepOutcome};
use ssr::unison::{unison_sdr, Unison, UnisonSdr};

/// Custom observer: how contended is the schedule? Tracks the peak
/// number of simultaneously-enabled processes and the peak number
/// activated in one step — a measure the default runner has no column
/// for, showing that "new workload" means "write an observer".
struct ContentionProbe {
    peak_enabled: usize,
    peak_activated: usize,
}

impl ContentionProbe {
    /// Samples the initial configuration too — on arbitrary garbage
    /// the trajectory peak is often the very first instant.
    fn attach(sim: &Simulator<'_, UnisonSdr>) -> Self {
        ContentionProbe {
            peak_enabled: sim.enabled_count(),
            peak_activated: 0,
        }
    }
}

impl Observer<UnisonSdr> for ContentionProbe {
    fn on_step(&mut self, sim: &Simulator<'_, UnisonSdr>, outcome: &StepOutcome) {
        if let StepOutcome::Progress { activated } = outcome {
            self.peak_activated = self.peak_activated.max(*activated);
        }
        self.peak_enabled = self.peak_enabled.max(sim.enabled_count());
    }
}

fn main() {
    let campaign = Campaign::new("daemon-sensitivity")
        .topologies(vec![
            TopologySpec::Hypercube,
            TopologySpec::Lollipop,
            TopologySpec::Gnp { per_mille: 300 },
        ])
        .sizes(vec![16, 32])
        .algorithms(vec![families::unison_sdr()])
        .daemons(vec![
            Daemon::Synchronous,
            Daemon::Central,
            Daemon::RandomSubset { p: 0.5 },
            Daemon::PreferHighRules,
        ])
        .trials(4)
        .step_cap(20_000_000)
        .seed(0xCAFE_2026);

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "campaign '{}': {} scenarios on {} worker threads\n",
        campaign.id(),
        campaign.len(),
        threads
    );

    let records = Sweep::of(&campaign).threads(threads).run();

    // Every run must satisfy Thm 6/7 — the campaign runner checks the
    // closed-form bounds per record.
    assert!(
        records.iter().all(|r| r.verdict.ok()),
        "a U ∘ SDR run violated its paper bound"
    );

    // Aggregate: recovery effort per (topology, daemon) group.
    let mut table = Table::new([
        "topology",
        "daemon",
        "runs",
        "rounds p50",
        "rounds p90",
        "rounds max",
        "moves p50",
        "moves max",
    ]);
    for group in stats::summarize_by(&records, |r| format!("{}|{}", r.topology, r.daemon)) {
        let (topology, daemon) = group.key.split_once('|').expect("two-part key");
        table.row_vec(vec![
            topology.to_string(),
            daemon.to_string(),
            group.runs.to_string(),
            group.rounds.p50.to_string(),
            group.rounds.p90.to_string(),
            group.rounds.max.to_string(),
            group.moves.p50.to_string(),
            group.moves.max.to_string(),
        ]);
    }
    println!("{table}");

    // Structured results: the first few JSONL lines (grid order,
    // thread-count invariant).
    let jsonl = output::jsonl(&records);
    println!("sample of the JSONL stream:");
    for line in jsonl.lines().take(3) {
        println!("  {line}");
    }
    println!("  … {} lines total", jsonl.lines().count());

    // The determinism contract, demonstrated end to end.
    let sequential = output::jsonl(&Sweep::of(&campaign).run());
    assert_eq!(jsonl, sequential, "parallel != sequential");
    println!("\nparallel and sequential results are byte-identical ✓");

    // ---- custom probe: scheduling contention per daemon ----
    //
    // A bespoke measurement = a custom runner that attaches an
    // observer to the execution. The engine's determinism contract
    // carries over untouched because the runner stays a pure function
    // of its scenario.
    let probe_campaign = Campaign::new("contention")
        .topologies(vec![TopologySpec::Hypercube, TopologySpec::Lollipop])
        .sizes(vec![16])
        .algorithms(vec![families::unison_sdr()])
        .daemons(vec![
            Daemon::Synchronous,
            Daemon::Central,
            Daemon::RandomSubset { p: 0.5 },
        ])
        .trials(2)
        .step_cap(20_000_000)
        .seed(0xC0_27E2);
    struct ContentionRow {
        topology: String,
        daemon: String,
        peak_enabled: usize,
        peak_activated: usize,
        rounds: u64,
    }
    let rows = Sweep::of(&probe_campaign).threads(threads).map(|sc, _| {
        let [graph_seed, init_seed, sim_seed, _] = sc.seeds::<4>();
        let g = sc.topology.build(sc.n, graph_seed);
        let algo = unison_sdr(Unison::for_graph(&g));
        let check = unison_sdr(Unison::for_graph(&g));
        let init = algo.arbitrary_config(&g, init_seed);
        let mut sim = ssr::runtime::Simulator::new(&g, algo, init, sc.daemon.clone(), sim_seed);
        let mut probe = ContentionProbe::attach(&sim);
        let out = sim
            .execution()
            .cap(sc.step_cap)
            .observe(&mut probe)
            .until(|gr, st| check.is_normal_config(gr, st))
            .run();
        assert!(out.reached, "U ∘ SDR recovers within its bounds");
        ContentionRow {
            topology: sc.topology.label(),
            daemon: sc.daemon.label(),
            peak_enabled: probe.peak_enabled,
            peak_activated: probe.peak_activated,
            rounds: out.rounds_at_hit,
        }
    });
    let mut contention = Table::new([
        "topology",
        "daemon",
        "peak enabled",
        "peak activated",
        "worst rounds",
    ]);
    for pair in rows.records.chunks(2) {
        // trials is the fastest-varying axis: each chunk is one cell.
        contention.row_vec(vec![
            pair[0].topology.clone(),
            pair[0].daemon.clone(),
            pair.iter()
                .map(|r| r.peak_enabled)
                .max()
                .unwrap()
                .to_string(),
            pair.iter()
                .map(|r| r.peak_activated)
                .max()
                .unwrap()
                .to_string(),
            pair.iter().map(|r| r.rounds).max().unwrap().to_string(),
        ]);
    }
    println!("\ncustom observer probe — scheduling contention:\n{contention}");
}
