//! The experiment implementations (E1–E12 of DESIGN.md §3), expressed
//! as [`Campaign`] definitions over the `ssr-campaign` engine, with
//! every trajectory probe attached as an `ssr_runtime::Observer` — no
//! experiment owns a stepping loop.
//!
//! Each experiment builds a declarative scenario grid, drains it on
//! `threads` workers (results are byte-identical for any thread
//! count — the engine's determinism contract), and folds the records
//! into an [`ExpResult`]: a markdown table with one row per
//! configuration, a global `pass` flag (every paper bound held),
//! headline KPIs for machine-readable output, and free-form notes.
//! The `experiments` binary prints these.

use ssr_alliance::verify::AllianceObserver;
use ssr_alliance::{fga_sdr, verify};
use ssr_campaign::{
    families, run_scenario, Amount, Campaign, InitPlan, PresetSpec, ScenarioRecord, TopologySpec,
    Verdict,
};
use ssr_core::{alive_roots, toys::Agreement, Sdr, SegmentObserver, Standalone};
use ssr_explore::campaign::{explore_scenario, stochastic_max, ScenarioExploreOptions};
use ssr_runtime::family::{collect_probe_sink, install_probe_sink};
use ssr_runtime::report::{ratio, Table};
use ssr_runtime::{Daemon, ExecBudget, FamilyRunOutcome, RunSeeds, Simulator, TerminationReason};
use ssr_unison::{spec, unison_sdr, Unison};

use crate::ctx::ExpCtx;
use crate::workloads::daemon_suite;

/// Sweep profile: `Quick` for tests, `Full` for the release harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Small sizes, few trials (seconds in debug builds).
    Quick,
    /// The sizes used by the release harness.
    Full,
}

impl Profile {
    fn sizes(self) -> Vec<usize> {
        match self {
            Profile::Quick => vec![8, 12],
            Profile::Full => vec![16, 32, 64],
        }
    }

    fn small_sizes(self) -> Vec<usize> {
        match self {
            Profile::Quick => vec![8],
            Profile::Full => vec![12, 24, 48],
        }
    }

    fn trials(self) -> u64 {
        match self {
            Profile::Quick => 2,
            Profile::Full => 5,
        }
    }

    fn step_cap(self) -> u64 {
        match self {
            Profile::Quick => 5_000_000,
            Profile::Full => 200_000_000,
        }
    }
}

/// The topology axis shared by the sweeps: ring, path, star, random
/// tree, random sparse graph and grid.
fn exp_topologies() -> Vec<TopologySpec> {
    vec![
        TopologySpec::Ring,
        TopologySpec::Path,
        TopologySpec::Star,
        TopologySpec::RandTree,
        TopologySpec::RandSparse,
        TopologySpec::Grid,
    ]
}

/// Headline numbers for machine-readable results (`--format json`).
#[derive(Clone, Debug, Default)]
pub struct ExpKpi {
    /// Nominal sizes swept.
    pub sizes: Vec<usize>,
    /// Worst stabilization rounds observed.
    pub rounds: u64,
    /// Worst move count observed.
    pub moves: u64,
    /// The operative closed-form bound at the largest configuration
    /// (rounds bound where one exists, otherwise the move bound).
    pub bound: u64,
}

/// One experiment's output.
#[derive(Clone, Debug)]
pub struct ExpResult {
    /// Experiment id (e.g. `"E1+E2"`).
    pub id: &'static str,
    /// Human-readable claim being reproduced.
    pub title: String,
    /// The regenerated table.
    pub table: Table,
    /// Whether every paper bound held on every row.
    pub pass: bool,
    /// Additional observations.
    pub notes: Vec<String>,
    /// Headline numbers for the JSON results file.
    pub kpi: ExpKpi,
}

impl ExpResult {
    fn new(
        id: &'static str,
        title: &str,
        table: Table,
        pass: bool,
        notes: Vec<String>,
        kpi: ExpKpi,
    ) -> Self {
        ExpResult {
            id,
            title: title.to_string(),
            table,
            pass,
            notes,
            kpi,
        }
    }
}

fn fmt_u(x: u64) -> String {
    x.to_string()
}

fn max_of(records: &[&ScenarioRecord], f: impl Fn(&ScenarioRecord) -> u64) -> u64 {
    records.iter().map(|r| f(r)).max().unwrap_or(0)
}

/// E1 + E2 — Corollaries 4 and 5: pure SDR (over the rule-less
/// [`Agreement`] input) recovers within `3n` rounds, each process
/// spending at most `3n + 3` SDR moves.
pub fn e1_e2_sdr_bounds(p: Profile, ctx: &ExpCtx) -> ExpResult {
    let campaign = Campaign::new("e1e2-sdr-bounds")
        .topologies(exp_topologies())
        .sizes(p.sizes())
        .algorithms(vec![families::sdr_agreement(8)])
        .daemons(daemon_suite())
        .inits(vec![InitPlan::Arbitrary])
        .trials(p.trials())
        .step_cap(p.step_cap())
        .seed(0x5D2_E1E2);
    let records = ctx.run(&campaign);
    let mut table = Table::new([
        "topology",
        "n",
        "worst rounds",
        "3n",
        "r-ratio",
        "worst moves/proc",
        "3n+3",
    ]);
    let mut pass = true;
    let mut kpi = ExpKpi {
        sizes: p.sizes(),
        ..ExpKpi::default()
    };
    for &n in &p.sizes() {
        for topo in exp_topologies() {
            let label = topo.label();
            let group: Vec<&ScenarioRecord> = records
                .iter()
                .filter(|r| r.n == n && r.topology == label)
                .collect();
            let nn = group[0].nodes;
            let worst_rounds = max_of(&group, |r| r.rounds);
            let worst_pp = max_of(&group, |r| r.max_moves_per_process);
            pass &= group.iter().all(|r| r.verdict == Verdict::Pass);
            kpi.rounds = kpi.rounds.max(worst_rounds);
            kpi.moves = kpi.moves.max(max_of(&group, |r| r.moves));
            kpi.bound = kpi.bound.max(3 * nn);
            table.row_vec(vec![
                label,
                nn.to_string(),
                fmt_u(worst_rounds),
                fmt_u(3 * nn),
                ratio(worst_rounds as f64, 3.0 * nn as f64),
                fmt_u(worst_pp),
                fmt_u(3 * nn + 3),
            ]);
        }
    }
    ExpResult::new(
        "E1+E2",
        "SDR recovery ≤ 3n rounds (Cor. 5) and ≤ 3n+3 SDR moves per process (Cor. 4)",
        table,
        pass,
        vec![],
        kpi,
    )
}

struct E3Row {
    topology: String,
    n: usize,
    nodes: usize,
    roots0: usize,
    segments: u64,
    violations: usize,
    ok: bool,
    rounds: u64,
    moves: u64,
}

/// E3 — Theorem 3 / Remark 5 / Corollary 3: alive roots never created,
/// ≤ n+1 segments, per-segment rule language respected.
pub fn e3_segments(p: Profile, ctx: &ExpCtx) -> ExpResult {
    let campaign = Campaign::new("e3-segments")
        .topologies(exp_topologies())
        .sizes(p.sizes())
        .algorithms(vec![families::sdr_agreement(6)])
        .daemons(vec![Daemon::RandomSubset { p: 0.5 }])
        .inits(vec![InitPlan::Arbitrary])
        .trials(1)
        .step_cap(p.step_cap())
        .seed(0xE3_000);
    let rows = ctx.run_with(&campaign, |sc, obs| {
        let [graph_seed, init_seed, sim_seed, _] = sc.seeds::<4>();
        let g = sc.topology.build(sc.n, graph_seed);
        let sdr = Sdr::new(Agreement::new(6));
        let init = sdr.arbitrary_config(&g, init_seed);
        let roots0 = alive_roots(&sdr, &g, &init).len();
        let mut probe = SegmentObserver::new(&sdr, &g, &init);
        let mut sim = Simulator::new(&g, sdr, init, sc.daemon.clone(), sim_seed);
        install_probe_sink(obs, &mut sim);
        sim.execution().cap(sc.step_cap).observe(&mut probe).run();
        collect_probe_sink(obs, &mut sim);
        let report = probe.report();
        E3Row {
            topology: sc.topology.label(),
            n: sc.n,
            nodes: g.node_count(),
            roots0,
            segments: report.segments,
            violations: report.violations.len(),
            ok: report.ok(),
            rounds: sim.stats().completed_rounds,
            moves: sim.stats().moves,
        }
    });
    let mut table = Table::new([
        "topology",
        "n",
        "init roots",
        "segments",
        "n+1",
        "violations",
    ]);
    let mut pass = true;
    let mut kpi = ExpKpi {
        sizes: p.sizes(),
        ..ExpKpi::default()
    };
    for &n in &p.sizes() {
        for topo in exp_topologies() {
            let label = topo.label();
            let row = rows
                .iter()
                .find(|r| r.n == n && r.topology == label)
                .expect("one row per grid cell");
            pass &= row.ok && row.segments <= row.nodes as u64 + 1;
            kpi.rounds = kpi.rounds.max(row.rounds);
            kpi.moves = kpi.moves.max(row.moves);
            kpi.bound = kpi.bound.max(row.nodes as u64 + 1);
            table.row_vec(vec![
                label,
                row.nodes.to_string(),
                row.roots0.to_string(),
                row.segments.to_string(),
                (row.nodes + 1).to_string(),
                row.violations.to_string(),
            ]);
        }
    }
    ExpResult::new(
        "E3",
        "Alive-root monotonicity, ≤ n+1 segments, per-segment rule grammar (Thm 3, Rem 5, Cor 3)",
        table,
        pass,
        vec![],
        kpi,
    )
}

/// E4 + E5 — Theorems 6 and 7, with the CFG baseline comparison: the
/// SDR-based unison stabilizes in ≤ 3n rounds and O(D·n²) moves, and
/// beats uncoordinated local resets on moves with a widening gap.
pub fn e4_e5_unison(p: Profile, ctx: &ExpCtx) -> ExpResult {
    let campaign = Campaign::new("e4e5-unison")
        .topologies(exp_topologies())
        .sizes(p.sizes())
        .algorithms(vec![families::unison_sdr(), families::cfg_unison()])
        .daemons(vec![Daemon::RandomSubset { p: 0.5 }])
        .inits(vec![InitPlan::Arbitrary])
        .trials(p.trials())
        .step_cap(p.step_cap())
        .seed(0xE45);
    let records = ctx.run(&campaign);
    let mut table = Table::new([
        "topology",
        "n",
        "D",
        "sdr rounds",
        "3n",
        "sdr moves",
        "T6 bound",
        "cfg moves",
        "cfg/sdr",
    ]);
    let mut pass = true;
    let mut notes = Vec::new();
    let mut prev_ratio: Option<(usize, f64)> = None;
    let mut kpi = ExpKpi {
        sizes: p.sizes(),
        ..ExpKpi::default()
    };
    let sdr_label = families::unison_sdr().label();
    let cfg_label = families::cfg_unison().label();
    for &n in &p.sizes() {
        for topo in exp_topologies() {
            let label = topo.label();
            let cell: Vec<&ScenarioRecord> = records
                .iter()
                .filter(|r| r.n == n && r.topology == label)
                .collect();
            let sdr: Vec<&ScenarioRecord> = cell
                .iter()
                .copied()
                .filter(|r| r.algorithm == sdr_label)
                .collect();
            let cfg: Vec<&ScenarioRecord> = cell
                .iter()
                .copied()
                .filter(|r| r.algorithm == cfg_label)
                .collect();
            let nn = sdr[0].nodes;
            let d = max_of(&sdr, |r| r.diameter);
            let sdr_rounds = max_of(&sdr, |r| r.rounds);
            let sdr_moves = max_of(&sdr, |r| r.moves);
            let cfg_moves = max_of(&cfg, |r| r.moves);
            let bound = max_of(&sdr, |r| r.bound_moves.unwrap_or(0));
            pass &= sdr.iter().all(|r| r.verdict == Verdict::Pass);
            pass &= cfg.iter().all(|r| r.reached);
            kpi.rounds = kpi.rounds.max(sdr_rounds);
            kpi.moves = kpi.moves.max(sdr_moves);
            kpi.bound = kpi.bound.max(3 * nn);
            if label == "ring" {
                let r = cfg_moves as f64 / sdr_moves.max(1) as f64;
                if let Some((pn, pr)) = prev_ratio {
                    notes.push(format!(
                        "ring: cfg/sdr move ratio grows {pr:.2} (n={pn}) → {r:.2} (n={})",
                        nn
                    ));
                }
                prev_ratio = Some((nn as usize, r));
            }
            table.row_vec(vec![
                label,
                nn.to_string(),
                d.to_string(),
                fmt_u(sdr_rounds),
                fmt_u(3 * nn),
                fmt_u(sdr_moves),
                fmt_u(bound),
                fmt_u(cfg_moves),
                ratio(cfg_moves as f64, sdr_moves.max(1) as f64),
            ]);
        }
    }
    notes.push(
        "the paper's comparison is on worst-case bounds: U∘SDR is O(D·n²) vs O(D·n³+α·n²) \
         for the [11]/[20] family; on random (non-worst-case) configurations the specialized \
         min-repair is cheaper in absolute moves, and the cfg/sdr ratio growing with n is \
         the measurable signature of its worse asymptotics"
            .into(),
    );
    ExpResult::new(
        "E4+E5",
        "U ∘ SDR: ≤ 3n rounds (Thm 7), ≤ (3D+3)n²+(3D+1)(n−1)+1 moves (Thm 6), vs CFG baseline",
        table,
        pass,
        notes,
        kpi,
    )
}

struct E6Row {
    topology: String,
    n: usize,
    nodes: usize,
    reached: bool,
    violations: usize,
    min_increments: u64,
    rounds: u64,
    moves: u64,
}

/// E6 — the unison specification holds after stabilization (Cor. 7,
/// Lem. 19): safety at every instant, liveness as minimum increments.
pub fn e6_unison_spec(p: Profile, ctx: &ExpCtx) -> ExpResult {
    let campaign = Campaign::new("e6-unison-spec")
        .topologies(exp_topologies())
        .sizes(p.small_sizes())
        .algorithms(vec![families::unison_sdr()])
        .daemons(vec![Daemon::RoundRobin])
        .inits(vec![InitPlan::Arbitrary])
        .trials(1)
        .step_cap(p.step_cap())
        .seed(0xE6_00);
    let rows = ctx.run_with(&campaign, |sc, obs| {
        let [graph_seed, init_seed, sim_seed, _] = sc.seeds::<4>();
        let g = sc.topology.build(sc.n, graph_seed);
        let algo = unison_sdr(Unison::for_graph(&g));
        let init = algo.arbitrary_config(&g, init_seed);
        let check = unison_sdr(Unison::for_graph(&g));
        let mut sim = Simulator::new(&g, algo, init, sc.daemon.clone(), sim_seed);
        install_probe_sink(obs, &mut sim);
        let out = sim
            .execution()
            .cap(sc.step_cap)
            .until(|gr, st| check.is_normal_config(gr, st))
            .run();
        // The liveness window is pure observation: the spec probe sees
        // every post-stabilization step through the execution API.
        let mut probe = spec::SpecObserver::watching(&sim);
        let window = 200 * g.node_count() as u64;
        sim.execution().cap(window).observe(&mut probe).run();
        collect_probe_sink(obs, &mut sim);
        E6Row {
            topology: sc.topology.label(),
            n: sc.n,
            nodes: g.node_count(),
            reached: out.reached,
            violations: probe.safety_violations(),
            min_increments: probe.min_increments(),
            rounds: out.rounds_at_hit,
            moves: out.moves_at_hit,
        }
    });
    let mut table = Table::new(["topology", "n", "safety violations", "min increments"]);
    let mut pass = true;
    let mut kpi = ExpKpi {
        sizes: p.small_sizes(),
        ..ExpKpi::default()
    };
    for &n in &p.small_sizes() {
        for topo in exp_topologies() {
            let label = topo.label();
            let row = rows
                .iter()
                .find(|r| r.n == n && r.topology == label)
                .expect("one row per grid cell");
            pass &= row.reached && row.violations == 0 && row.min_increments > 0;
            kpi.rounds = kpi.rounds.max(row.rounds);
            kpi.moves = kpi.moves.max(row.moves);
            kpi.bound = kpi.bound.max(3 * row.nodes as u64);
            table.row_vec(vec![
                label,
                row.nodes.to_string(),
                row.violations.to_string(),
                row.min_increments.to_string(),
            ]);
        }
    }
    ExpResult::new(
        "E6",
        "Unison specification after stabilization: zero safety violations, all clocks advance",
        table,
        pass,
        vec![],
        kpi,
    )
}

struct FgaRow {
    topology: String,
    n: usize,
    preset: &'static str,
    nodes: u64,
    edges: u64,
    max_degree: u64,
    terminal: bool,
    rounds: u64,
    moves: u64,
    alliance: bool,
    one_minimal: bool,
    corner_ok: bool,
}

/// E7 — Theorems 9/10, Corollaries 11/12: standalone FGA from γ_init.
pub fn e7_fga_standalone(p: Profile, ctx: &ExpCtx) -> ExpResult {
    let campaign = Campaign::new("e7-fga-standalone")
        .topologies(exp_topologies())
        .sizes(p.small_sizes())
        .algorithms(
            PresetSpec::all()
                .into_iter()
                .map(families::fga_standalone)
                .collect(),
        )
        .daemons(vec![Daemon::RandomSubset { p: 0.5 }])
        .inits(vec![InitPlan::Normal])
        .trials(1)
        .step_cap(p.step_cap())
        .seed(0xE7_00);
    let rows = ctx.run_with(&campaign, |sc, obs| {
        let preset = sc
            .algorithm
            .params_str()
            .and_then(PresetSpec::from_label)
            .expect("axis holds standalone specs only");
        let [graph_seed, _, sim_seed, _] = sc.seeds::<4>();
        let g = sc.topology.build(sc.n, graph_seed);
        let fga = preset.build(&g)?;
        let mut probe = AllianceObserver::new(&fga);
        let alg = Standalone::new(fga);
        let init = alg.initial_config(&g);
        let mut sim = Simulator::new(&g, alg, init, sc.daemon.clone(), sim_seed);
        install_probe_sink(obs, &mut sim);
        let out = sim.execution().cap(sc.step_cap).observe(&mut probe).run();
        collect_probe_sink(obs, &mut sim);
        let v = probe.into_verdict().expect("sampled at run end");
        Some(FgaRow {
            topology: sc.topology.label(),
            n: sc.n,
            preset: preset.label(),
            nodes: g.node_count() as u64,
            edges: g.edge_count() as u64,
            max_degree: g.max_degree() as u64,
            terminal: out.terminal,
            rounds: sim.stats().completed_rounds + 1,
            moves: sim.stats().moves,
            alliance: v.alliance,
            one_minimal: v.one_minimal,
            corner_ok: v.corner_ok,
        })
    });
    let mut table = Table::new([
        "topology",
        "preset",
        "n",
        "rounds",
        "5n+4",
        "moves",
        "C11 bound",
        "1-minimal",
    ]);
    let mut pass = true;
    let mut kpi = ExpKpi {
        sizes: p.small_sizes(),
        ..ExpKpi::default()
    };
    for &n in &p.small_sizes() {
        for topo in exp_topologies() {
            let label = topo.label();
            for preset in PresetSpec::all() {
                let Some(row) = rows
                    .iter()
                    .flatten()
                    .find(|r| r.n == n && r.topology == label && r.preset == preset.label())
                else {
                    continue; // preset invalid on this graph
                };
                let round_bound = verify::corollary12_round_bound(row.nodes);
                let move_bound =
                    verify::corollary11_move_bound(row.nodes, row.edges, row.max_degree);
                pass &= row.terminal
                    && row.alliance
                    && row.corner_ok
                    && row.rounds <= round_bound
                    && row.moves <= move_bound;
                kpi.rounds = kpi.rounds.max(row.rounds);
                kpi.moves = kpi.moves.max(row.moves);
                kpi.bound = kpi.bound.max(round_bound);
                table.row_vec(vec![
                    label.clone(),
                    preset.label().to_string(),
                    row.nodes.to_string(),
                    fmt_u(row.rounds),
                    fmt_u(round_bound),
                    fmt_u(row.moves),
                    fmt_u(move_bound),
                    if row.one_minimal {
                        "yes".into()
                    } else {
                        "corner*".into()
                    },
                ]);
            }
        }
    }
    ExpResult::new(
        "E7",
        "Standalone FGA from γ_init: ≤ 5n+4 rounds (Cor. 12), ≤ 16Δm+36m+24n moves (Cor. 11)",
        table,
        pass,
        vec!["(*) zero-g-slack corner, see ssr-alliance docs".into()],
        kpi,
    )
}

/// E8 (+E12) — Theorems 11–14: FGA ∘ SDR is silent, self-stabilizing,
/// within the round/move bounds.
pub fn e8_fga_sdr(p: Profile, ctx: &ExpCtx) -> ExpResult {
    let campaign = Campaign::new("e8-fga-sdr")
        .topologies(exp_topologies())
        .sizes(p.small_sizes())
        .algorithms(vec![families::fga_sdr(PresetSpec::Domination)])
        .daemons(vec![Daemon::Central])
        .inits(vec![InitPlan::Arbitrary])
        .trials(p.trials())
        .step_cap(p.step_cap())
        .seed(0xE8_00);
    let rows = ctx.run_with(&campaign, |sc, obs| {
        let [graph_seed, init_seed, sim_seed, _] = sc.seeds::<4>();
        let g = sc.topology.build(sc.n, graph_seed);
        let fga = PresetSpec::Domination
            .build(&g)
            .expect("domination always valid");
        let mut probe = AllianceObserver::new(&fga);
        let algo = fga_sdr(fga);
        let init = algo.arbitrary_config(&g, init_seed);
        let mut sim = Simulator::new(&g, algo, init, sc.daemon.clone(), sim_seed);
        install_probe_sink(obs, &mut sim);
        let out = sim.execution().cap(sc.step_cap).observe(&mut probe).run();
        collect_probe_sink(obs, &mut sim);
        let v = probe.into_verdict().expect("sampled at run end");
        FgaRow {
            topology: sc.topology.label(),
            n: sc.n,
            preset: "domination(1,0)",
            nodes: g.node_count() as u64,
            edges: g.edge_count() as u64,
            max_degree: g.max_degree() as u64,
            terminal: out.terminal,
            rounds: sim.stats().completed_rounds + 1,
            moves: sim.stats().moves,
            alliance: v.alliance,
            one_minimal: v.one_minimal,
            corner_ok: v.corner_ok,
        }
    });
    let mut table = Table::new([
        "topology",
        "n",
        "silent",
        "rounds",
        "8n+4",
        "moves",
        "T12 bound",
        "1-minimal",
    ]);
    let mut pass = true;
    let mut kpi = ExpKpi {
        sizes: p.small_sizes(),
        ..ExpKpi::default()
    };
    for &n in &p.small_sizes() {
        for topo in exp_topologies() {
            let label = topo.label();
            let group: Vec<&FgaRow> = rows
                .iter()
                .filter(|r| r.n == n && r.topology == label)
                .collect();
            let nodes = group[0].nodes;
            let round_bound = verify::theorem14_round_bound(nodes);
            let move_bound = group
                .iter()
                .map(|r| verify::theorem12_move_bound(r.nodes, r.edges, r.max_degree))
                .max()
                .unwrap_or(0);
            let worst_rounds = group.iter().map(|r| r.rounds).max().unwrap_or(0);
            let worst_moves = group.iter().map(|r| r.moves).max().unwrap_or(0);
            let all_silent = group.iter().all(|r| r.terminal);
            let all_one_min = group.iter().all(|r| r.one_minimal);
            pass &= all_silent
                && all_one_min
                && group.iter().all(|r| {
                    r.rounds <= round_bound
                        && r.moves <= verify::theorem12_move_bound(r.nodes, r.edges, r.max_degree)
                });
            kpi.rounds = kpi.rounds.max(worst_rounds);
            kpi.moves = kpi.moves.max(worst_moves);
            kpi.bound = kpi.bound.max(round_bound);
            table.row_vec(vec![
                label,
                nodes.to_string(),
                if all_silent {
                    "yes".into()
                } else {
                    "NO".into()
                },
                fmt_u(worst_rounds),
                fmt_u(round_bound),
                fmt_u(worst_moves),
                fmt_u(move_bound),
                if all_one_min {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
    }
    ExpResult::new(
        "E8+E12",
        "FGA ∘ SDR (domination): silent, ≤ 8n+4 rounds (Thm 14), ≤ (n+1)(16mΔ+36m+27n) moves (Thm 12)",
        table,
        pass,
        vec![],
        kpi,
    )
}

/// E9 — the six classical reductions of §6.1, verified against their
/// own definitions.
pub fn e9_presets(p: Profile, ctx: &ExpCtx) -> ExpResult {
    let n = match p {
        Profile::Quick => 9,
        Profile::Full => 16,
    };
    let campaign = Campaign::new("e9-presets")
        .topologies(vec![
            TopologySpec::Torus,
            TopologySpec::Complete,
            TopologySpec::RandDense,
        ])
        .sizes(vec![n])
        .algorithms(
            PresetSpec::all()
                .into_iter()
                .map(families::fga_sdr)
                .collect(),
        )
        .daemons(vec![Daemon::Central])
        .inits(vec![InitPlan::Arbitrary])
        .trials(1)
        .step_cap(p.step_cap())
        .seed(0xE90);
    struct E9Row {
        graph: String,
        preset: PresetSpec,
        members: usize,
        terminal: bool,
        classical: bool,
        one_minimal: bool,
        corner_ok: bool,
        rounds: u64,
        moves: u64,
    }
    let rows = ctx.run_with(&campaign, |sc, obs| {
        let preset = sc
            .algorithm
            .params_str()
            .and_then(PresetSpec::from_label)
            .expect("axis holds FGA∘SDR specs only");
        let [graph_seed, init_seed, sim_seed, _] = sc.seeds::<4>();
        let g = sc.topology.build(sc.n, graph_seed);
        let fga = preset.build(&g)?;
        let mut probe = AllianceObserver::new(&fga);
        let algo = fga_sdr(fga);
        let init = algo.arbitrary_config(&g, init_seed);
        let mut sim = Simulator::new(&g, algo, init, sc.daemon.clone(), sim_seed);
        install_probe_sink(obs, &mut sim);
        let out = sim.execution().cap(sc.step_cap).observe(&mut probe).run();
        collect_probe_sink(obs, &mut sim);
        let v = probe.into_verdict().expect("sampled at run end");
        let classical = match preset {
            PresetSpec::Domination => verify::is_dominating_set(&g, &v.members),
            PresetSpec::TwoDomination => verify::is_k_dominating_set(&g, &v.members, 2),
            PresetSpec::TwoTuple => verify::is_k_tuple_dominating_set(&g, &v.members, 2),
            PresetSpec::Offensive => verify::is_global_offensive_alliance(&g, &v.members),
            PresetSpec::Defensive => verify::is_global_defensive_alliance(&g, &v.members),
            PresetSpec::Powerful => verify::is_global_powerful_alliance(&g, &v.members),
        };
        Some(E9Row {
            graph: sc.topology.label(),
            preset,
            members: v.member_count(),
            terminal: out.terminal,
            classical,
            one_minimal: v.one_minimal,
            corner_ok: v.corner_ok,
            rounds: sim.stats().completed_rounds + 1,
            moves: sim.stats().moves,
        })
    });
    let mut table = Table::new(["graph", "preset", "|A|", "classical ok", "1-minimal"]);
    let mut pass = true;
    let mut kpi = ExpKpi {
        sizes: vec![n],
        ..ExpKpi::default()
    };
    for row in rows.iter().flatten() {
        pass &= row.terminal && row.classical && row.corner_ok;
        kpi.rounds = kpi.rounds.max(row.rounds);
        kpi.moves = kpi.moves.max(row.moves);
        kpi.bound = kpi.bound.max(verify::theorem14_round_bound(n as u64));
        table.row_vec(vec![
            row.graph.clone(),
            row.preset.label().to_string(),
            row.members.to_string(),
            if row.classical {
                "yes".into()
            } else {
                "NO".into()
            },
            if row.one_minimal {
                "yes".into()
            } else {
                "corner*".into()
            },
        ]);
    }
    ExpResult::new(
        "E9",
        "(f,g)-alliance reductions (§6.1 items 1–6) verified against the classical definitions",
        table,
        pass,
        vec!["(*) zero-g-slack corner, see ssr-alliance docs".into()],
        kpi,
    )
}

/// E10 — the cooperation ablation: coordinated resets (`U ∘ SDR`) vs
/// uncoordinated local resets (CFG) on tear workloads.
pub fn e10_ablation(p: Profile, ctx: &ExpCtx) -> ExpResult {
    // Separate, smaller cap for the baseline: it can burn 5+ orders of
    // magnitude more moves than SDR here, and blowing the cap is a
    // *finding*, not a failure.
    let baseline_cap = match p {
        Profile::Quick => 2_000_000,
        Profile::Full => 60_000_000,
    };
    let inits = vec![
        InitPlan::Tear {
            gap: Amount::Fixed(3),
        },
        InitPlan::Tear { gap: Amount::HalfN },
    ];
    let campaign = Campaign::new("e10-ablation")
        .topologies(vec![TopologySpec::Ring, TopologySpec::Path])
        .sizes(p.sizes())
        .algorithms(vec![families::unison_sdr(), families::cfg_unison()])
        .daemons(vec![Daemon::Central])
        .inits(inits.clone())
        .trials(1)
        .step_cap(p.step_cap())
        .seed(0xE10);
    let records = ctx.run_with(&campaign, |mut sc, _| {
        if sc.algorithm == families::cfg_unison() {
            sc.step_cap = baseline_cap;
        }
        run_scenario(sc)
    });
    let mut table = Table::new([
        "topology",
        "n",
        "gap",
        "sdr moves",
        "cfg moves",
        "sdr rounds",
        "cfg rounds",
        "winner",
    ]);
    let mut pass = true;
    let mut kpi = ExpKpi {
        sizes: p.sizes(),
        ..ExpKpi::default()
    };
    let sdr_label = families::unison_sdr().label();
    for &n in &p.sizes() {
        for topo in [TopologySpec::Ring, TopologySpec::Path] {
            let label = topo.label();
            for init in &inits {
                let init_label = init.label();
                let pair: Vec<&ScenarioRecord> = records
                    .iter()
                    .filter(|r| r.n == n && r.topology == label && r.init == init_label)
                    .collect();
                let sdr = pair
                    .iter()
                    .find(|r| r.algorithm == sdr_label)
                    .expect("sdr record");
                let cfg = pair
                    .iter()
                    .find(|r| r.algorithm != sdr_label)
                    .expect("cfg record");
                let InitPlan::Tear { gap } = init else {
                    unreachable!("init axis holds tears only")
                };
                pass &= sdr.verdict == Verdict::Pass;
                kpi.rounds = kpi.rounds.max(sdr.rounds);
                kpi.moves = kpi.moves.max(sdr.moves);
                kpi.bound = kpi.bound.max(sdr.bound_moves.unwrap_or(0));
                // Cap exhaustion is an explicit outcome now, never an
                // inference from step counts or a missed predicate.
                let cfg_capped = cfg.reason == Some(TerminationReason::CapExhausted);
                let (cfg_moves, cfg_rounds) = if !cfg_capped {
                    (fmt_u(cfg.moves), fmt_u(cfg.rounds))
                } else {
                    (format!(">{baseline_cap}"), "—".to_string())
                };
                let winner = if cfg_capped || sdr.moves <= cfg.moves {
                    "sdr"
                } else {
                    "cfg"
                };
                table.row_vec(vec![
                    label.clone(),
                    sdr.nodes.to_string(),
                    gap.resolve(sdr.nodes).to_string(),
                    fmt_u(sdr.moves),
                    cfg_moves,
                    fmt_u(sdr.rounds),
                    cfg_rounds,
                    winner.to_string(),
                ]);
            }
        }
    }
    ExpResult::new(
        "E10",
        "Ablation: cooperative resets vs uncoordinated local resets on clock-tear workloads",
        table,
        pass,
        vec![
            "on acyclic topologies a single benign tear favors the problem-specialized local \
             repair (reset-to-0) by a constant factor; on CYCLES the uncoordinated waves chase \
             each other around the ring (the very pathology §1 motivates cooperation with): \
             at n=32 the ring crossover is ~5 orders of magnitude in moves, and at n=64 the \
             baseline exhausts the step cap while U∘SDR stays within its 3n-round bound"
                .into(),
        ],
        kpi,
    )
}

struct E11Row {
    family: String,
    k: u64,
    out: FamilyRunOutcome,
}

/// E11 — transient-fault recovery: corrupt `k` clocks of a legitimate
/// system, measure recovery; three-way comparison SDR / CFG / mono-
/// initiator reset.
pub fn e11_faults(p: Profile, ctx: &ExpCtx) -> ExpResult {
    let n = match p {
        Profile::Quick => 12,
        Profile::Full => 32,
    };
    let ks = [
        Amount::Fixed(1),
        Amount::Fixed(2),
        Amount::QuarterN,
        Amount::HalfN,
        Amount::N,
    ];
    let campaign = Campaign::new("e11-faults")
        .topologies(vec![TopologySpec::Ring])
        .sizes(vec![n])
        .algorithms(vec![
            families::unison_sdr(),
            families::cfg_unison(),
            families::mono_reset(),
        ])
        .daemons(vec![Daemon::RandomSubset { p: 0.5 }])
        .inits(ks.iter().map(|&k| InitPlan::CorruptClocks { k }).collect())
        .trials(1)
        .step_cap(p.step_cap())
        .seed(0xE11);
    let registry = families::default_registry();
    let rows = ctx.run_with(&campaign, |sc, obs| {
        let [graph_seed, init_seed, sim_seed, _] = sc.seeds::<4>();
        let g = sc.topology.build(sc.n, graph_seed);
        let InitPlan::CorruptClocks { k } = sc.init else {
            unreachable!("init axis holds corruption plans only")
        };
        let k = k.resolve(g.node_count() as u64);
        // The three systems share the fault pattern: the victim RNG is
        // seeded by k alone, so each family corrupts the same clocks.
        let seeds = RunSeeds {
            init: init_seed,
            sim: sim_seed,
            fault: k + 7,
        };
        let family = registry.resolve(&sc.algorithm).expect("a standard family");
        let budget = ExecBudget::steps(sc.step_cap);
        let out = family.run(&g, &sc.init, &sc.daemon, seeds, budget, Some(obs));
        E11Row {
            family: sc.algorithm.label(),
            k,
            out,
        }
    });
    let mut table = Table::new([
        "k faults",
        "sdr rounds",
        "sdr moves",
        "cfg rounds",
        "cfg moves",
        "mono rounds",
        "mono moves",
    ]);
    let mut pass = true;
    let mut kpi = ExpKpi {
        sizes: vec![n],
        ..ExpKpi::default()
    };
    for amount in ks {
        let k = amount.resolve(n as u64);
        let find = |family: &ssr_campaign::AlgorithmSpec| {
            rows.iter()
                .find(|r| r.k == k && r.family == family.label())
                .expect("one row per (k, family)")
        };
        let sdr = &find(&families::unison_sdr()).out;
        let cfg = &find(&families::cfg_unison()).out;
        let mono = &find(&families::mono_reset()).out;
        pass &= sdr.reached && cfg.reached && mono.reached;
        kpi.rounds = kpi.rounds.max(sdr.rounds);
        kpi.moves = kpi.moves.max(sdr.moves);
        kpi.bound = kpi.bound.max(3 * n as u64);
        table.row_vec(vec![
            k.to_string(),
            fmt_u(sdr.rounds),
            fmt_u(sdr.moves),
            fmt_u(cfg.rounds),
            fmt_u(cfg.moves),
            fmt_u(mono.rounds),
            fmt_u(mono.moves),
        ]);
    }
    ExpResult::new(
        "E11",
        "Recovery from k corrupted clocks on a legitimate ring: SDR vs CFG vs mono-initiator",
        table,
        pass,
        vec![format!("ring n = {n}; clock-only corruption, seeds fixed")],
        kpi,
    )
}

/// E13 — exhaustive schedule-space verification on the tiny suite:
/// `ssr-explore` walks *every* distributed-daemon schedule from a
/// fixed seed set of initial configurations, proving closure and
/// convergence mechanically and reporting the **exact** worst-case
/// moves/rounds. The exact values must sit below the paper's
/// closed-form bounds, dominate the stochastic campaign maxima over
/// the same initial configurations, and come with witness schedules
/// that replay byte-identically through `Execution`.
pub fn e13_exhaustive(p: Profile, ctx: &ExpCtx) -> ExpResult {
    let sizes = match p {
        Profile::Quick => vec![4, 5],
        Profile::Full => vec![4, 5, 6],
    };
    let topologies = vec![
        TopologySpec::Path,
        TopologySpec::Ring,
        TopologySpec::Star,
        TopologySpec::Caterpillar,
        TopologySpec::Wheel,
    ];
    let campaign = Campaign::new("e13-exhaustive")
        .topologies(topologies.clone())
        .sizes(sizes.clone())
        .algorithms(vec![
            families::sdr_agreement(2),
            families::unison_sdr(),
            families::fga_sdr(PresetSpec::Domination),
        ])
        .daemons(vec![Daemon::Central]) // the explorer covers all classes itself
        .inits(vec![InitPlan::Arbitrary])
        .trials(1)
        .step_cap(p.step_cap())
        .seed(0xE13);
    // The outer grid is already parallel; each exploration stays
    // sequential (the determinism property of the explorer itself is
    // pinned by its own tests).
    let opts = ScenarioExploreOptions::default();
    let rows = ctx.run_with(&campaign, |sc, _| {
        let exact = explore_scenario(&sc, &opts)?;
        let stoch = stochastic_max(&sc, &opts)?;
        Some((exact, stoch))
    });
    let mut table = Table::new([
        "topology",
        "algorithm",
        "n",
        "states",
        "exact moves",
        "move bound",
        "exact rounds",
        "round bound",
        "campaign max m/r",
        "verified",
    ]);
    let mut pass = true;
    let mut kpi = ExpKpi {
        sizes: sizes.clone(),
        ..ExpKpi::default()
    };
    for row in rows.iter().flatten() {
        let (exact, stoch) = row;
        let dominated = stoch.moves <= exact.exact_moves && stoch.rounds <= exact.exact_rounds;
        let row_ok = exact.ok() && dominated && stoch.all_reached;
        pass &= row_ok;
        kpi.rounds = kpi.rounds.max(exact.exact_rounds);
        kpi.moves = kpi.moves.max(exact.exact_moves);
        kpi.bound = kpi.bound.max(exact.bound_rounds.unwrap_or(0));
        table.row_vec(vec![
            exact.topology.clone(),
            exact.algorithm.clone(),
            exact.nodes.to_string(),
            exact.states.to_string(),
            fmt_u(exact.exact_moves),
            exact.bound_moves.map_or("—".into(), fmt_u),
            fmt_u(exact.exact_rounds),
            exact.bound_rounds.map_or("—".into(), fmt_u),
            format!("{}/{}", stoch.moves, stoch.rounds),
            if row_ok {
                "yes".into()
            } else if let Some(err) = &exact.error {
                format!("NO ({err})")
            } else {
                "NO".into()
            },
        ]);
    }
    ExpResult::new(
        "E13",
        "Exhaustive schedule space on tiny graphs: exact worst cases ≤ closed-form bounds, \
         stochastic maxima ≤ exact, witnesses replay exactly",
        table,
        pass,
        vec![
            "exact worst cases quantify over every distributed-daemon schedule from the seed \
             set of initial configurations (γ_init, broadcast chain, tear, adversarial \
             samples); campaign max m/r is the observed stochastic maximum over the same \
             initial configurations"
                .into(),
        ],
        kpi,
    )
}

/// A catalog entry: group id, one-line claim, the algorithm-family
/// registry keys the group sweeps, and the runner.
pub struct ExpEntry {
    /// Group id (e.g. `"E1+E2"`).
    pub id: &'static str,
    /// One-line description of the claim under test.
    pub claim: &'static str,
    /// Registry keys of the families this group selects through the
    /// standard registry (what `--algorithms` filters on).
    pub families: &'static [&'static str],
    /// Computes the group under an execution context.
    pub run: fn(Profile, &ExpCtx) -> ExpResult,
}

impl ExpEntry {
    /// Whether this group sweeps at least one of `specs`' families.
    pub fn uses_any_family(&self, specs: &[ssr_campaign::AlgorithmSpec]) -> bool {
        specs
            .iter()
            .any(|spec| self.families.contains(&spec.family.as_str()))
    }
}

/// The experiment groups in presentation order, without computing
/// anything — callers can filter by id and run only what they need.
pub fn catalog() -> Vec<ExpEntry> {
    vec![
        ExpEntry {
            id: "E1+E2",
            families: &["sdr-agreement"],
            claim: "SDR recovery ≤ 3n rounds (Cor. 5) and ≤ 3n+3 SDR moves per process (Cor. 4)",
            run: e1_e2_sdr_bounds,
        },
        ExpEntry {
            id: "E3",
            families: &["sdr-agreement"],
            claim: "Alive-root monotonicity, ≤ n+1 segments, segment rule grammar (Thm 3, Rem 5, Cor 3)",
            run: e3_segments,
        },
        ExpEntry {
            id: "E4+E5",
            families: &["unison-sdr", "cfg-unison"],
            claim: "U ∘ SDR ≤ 3n rounds (Thm 7) and ≤ (3D+3)n²+(3D+1)(n−1)+1 moves (Thm 6), vs CFG",
            run: e4_e5_unison,
        },
        ExpEntry {
            id: "E6",
            families: &["unison-sdr"],
            claim: "Unison spec after stabilization: zero safety violations, all clocks advance",
            run: e6_unison_spec,
        },
        ExpEntry {
            id: "E7",
            families: &["fga"],
            claim: "Standalone FGA from γ_init: ≤ 5n+4 rounds (Cor. 12), ≤ 16Δm+36m+24n moves (Cor. 11)",
            run: e7_fga_standalone,
        },
        ExpEntry {
            id: "E8+E12",
            families: &["fga-sdr"],
            claim: "FGA ∘ SDR silent: ≤ 8n+4 rounds (Thm 14), ≤ (n+1)(16mΔ+36m+27n) moves (Thm 12)",
            run: e8_fga_sdr,
        },
        ExpEntry {
            id: "E9",
            families: &["fga-sdr"],
            claim: "The six §6.1 (f,g)-alliance reductions verified against the classical definitions",
            run: e9_presets,
        },
        ExpEntry {
            id: "E10",
            families: &["unison-sdr", "cfg-unison"],
            claim: "Ablation: cooperative vs uncoordinated local resets on clock-tear workloads",
            run: e10_ablation,
        },
        ExpEntry {
            id: "E11",
            families: &["unison-sdr", "cfg-unison", "mono-reset"],
            claim: "Recovery from k corrupted clocks on a ring: SDR vs CFG vs mono-initiator",
            run: e11_faults,
        },
        ExpEntry {
            id: "E13",
            families: &["sdr-agreement", "unison-sdr", "fga-sdr"],
            claim: "Exhaustive schedule space (tiny graphs): exact worst cases ≤ closed-form bounds",
            run: e13_exhaustive,
        },
    ]
}

/// Runs every experiment group in catalog order.
pub fn all(p: Profile, ctx: &ExpCtx) -> Vec<ExpResult> {
    catalog().into_iter().map(|e| (e.run)(p, ctx)).collect()
}

/// One experiment's report exactly as the `experiments` binary prints
/// it (markdown heading, table, notes, verdict line).
pub fn render_result(r: &ExpResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "## {} — {}\n", r.id, r.title).unwrap();
    write!(out, "{}", r.table).unwrap();
    for note in &r.notes {
        writeln!(out, "\n> {note}").unwrap();
    }
    writeln!(
        out,
        "\n**{}**\n",
        if r.pass {
            "PASS — all paper bounds hold"
        } else {
            "FAIL — a bound was violated"
        }
    )
    .unwrap();
    out
}

/// The summary footer the `experiments` binary prints after a table
/// run.
pub fn render_footer(results: &[ExpResult]) -> String {
    format!(
        "=== {} experiment group(s): {} ===\n",
        results.len(),
        if results.iter().all(|r| r.pass) {
            "ALL PASS"
        } else {
            "FAILURES PRESENT"
        }
    )
}

/// One experiment's headline JSON object (the `groups[]` entry of the
/// results file).
pub fn result_json(r: &ExpResult) -> ssr_campaign::output::Json {
    use ssr_campaign::output::Json;
    Json::obj([
        ("id", Json::str(r.id)),
        ("title", Json::str(&r.title)),
        (
            "sizes",
            Json::Arr(r.kpi.sizes.iter().map(|&s| Json::U64(s as u64)).collect()),
        ),
        ("rounds", Json::U64(r.kpi.rounds)),
        ("moves", Json::U64(r.kpi.moves)),
        ("bound", Json::U64(r.kpi.bound)),
        ("verdict", Json::str(if r.pass { "pass" } else { "fail" })),
    ])
}

/// The whole `BENCH_RESULTS.json` document for a set of results —
/// shared by the experiments binary and the byte-compatibility pin in
/// `tests/golden_compat.rs`. `selection_all` marks an unfiltered run.
pub fn results_json(
    profile: Profile,
    selection_all: bool,
    results: &[ExpResult],
) -> ssr_campaign::output::Json {
    use ssr_campaign::output::Json;
    let all_pass = results.iter().all(|r| r.pass);
    Json::obj([
        ("schema", Json::str("ssr-bench-results/v1")),
        (
            "profile",
            Json::str(match profile {
                Profile::Quick => "quick",
                Profile::Full => "full",
            }),
        ),
        (
            "selection",
            if selection_all {
                Json::str("all")
            } else {
                Json::Arr(results.iter().map(|r| Json::str(r.id)).collect())
            },
        ),
        ("all_pass", Json::Bool(all_pass)),
        (
            "groups",
            Json::Arr(results.iter().map(result_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(threads: usize) -> ExpCtx {
        ExpCtx::new(threads)
    }

    #[test]
    fn e1_e2_quick_pass() {
        let r = e1_e2_sdr_bounds(Profile::Quick, &ctx(2));
        assert_eq!(r.id, "E1+E2");
        assert!(r.pass, "{}", r.table);
        assert!(r.kpi.bound > 0 && !r.kpi.sizes.is_empty());
    }

    #[test]
    fn e3_quick_pass() {
        let r = e3_segments(Profile::Quick, &ctx(2));
        assert_eq!(r.id, "E3");
        assert!(r.pass, "{}", r.table);
    }

    #[test]
    fn e4_e5_quick_pass() {
        let r = e4_e5_unison(Profile::Quick, &ctx(2));
        assert_eq!(r.id, "E4+E5");
        assert!(r.pass, "{}", r.table);
    }

    #[test]
    fn e6_quick_pass() {
        let r = e6_unison_spec(Profile::Quick, &ctx(2));
        assert_eq!(r.id, "E6");
        assert!(r.pass, "{}", r.table);
    }

    #[test]
    fn e7_quick_pass() {
        let r = e7_fga_standalone(Profile::Quick, &ctx(2));
        assert_eq!(r.id, "E7");
        assert!(r.pass, "{}", r.table);
    }

    #[test]
    fn e8_quick_pass() {
        let r = e8_fga_sdr(Profile::Quick, &ctx(2));
        assert_eq!(r.id, "E8+E12");
        assert!(r.pass, "{}", r.table);
    }

    #[test]
    fn e9_quick_pass() {
        let r = e9_presets(Profile::Quick, &ctx(2));
        assert_eq!(r.id, "E9");
        assert!(r.pass, "{}", r.table);
    }

    #[test]
    fn e10_quick_pass() {
        let r = e10_ablation(Profile::Quick, &ctx(2));
        assert_eq!(r.id, "E10");
        assert!(r.pass, "{}", r.table);
    }

    #[test]
    fn e11_quick_pass() {
        let r = e11_faults(Profile::Quick, &ctx(2));
        assert_eq!(r.id, "E11");
        assert!(r.pass, "{}", r.table);
    }

    #[test]
    fn e13_quick_pass() {
        let r = e13_exhaustive(Profile::Quick, &ctx(2));
        assert_eq!(r.id, "E13");
        assert!(r.pass, "{}", r.table);
        assert!(r.kpi.bound > 0);
    }

    #[test]
    fn catalog_covers_every_group_once_with_claims() {
        let entries = catalog();
        let ids: Vec<&str> = entries.iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            ["E1+E2", "E3", "E4+E5", "E6", "E7", "E8+E12", "E9", "E10", "E11", "E13"]
        );
        assert!(entries.iter().all(|e| !e.claim.is_empty()));
    }

    /// The acceptance criterion of the campaign port: experiment output
    /// is identical no matter how many workers drained the grid.
    #[test]
    fn experiments_are_thread_invariant() {
        for run in [e1_e2_sdr_bounds, e10_ablation, e11_faults, e13_exhaustive] {
            let a = run(Profile::Quick, &ctx(1));
            let b = run(Profile::Quick, &ctx(4));
            assert_eq!(a.table.to_string(), b.table.to_string());
            assert_eq!(a.pass, b.pass);
            assert_eq!(a.notes, b.notes);
        }
    }
}
