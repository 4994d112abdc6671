//! Prints every reproduction table (E1–E12, mapped to paper claims in
//! `DESIGN.md` §3 at the repository root), running the sweeps on the
//! `ssr-campaign` parallel engine.
//!
//! Usage:
//!
//! ```text
//! cargo run -p ssr-bench --bin experiments --release                 # all tables
//! cargo run -p ssr-bench --bin experiments --release -- e4          # a subset
//! cargo run -p ssr-bench --bin experiments --release -- --only E4,E13 # explicit subset
//! cargo run -p ssr-bench --bin experiments --release -- --quick     # small sweep
//! cargo run -p ssr-bench --bin experiments --release -- --list      # ids + claims
//! cargo run -p ssr-bench --bin experiments --release -- --threads 8 # worker count
//! cargo run -p ssr-bench --bin experiments --release -- --format json
//! cargo run -p ssr-bench --bin experiments --release -- --progress  # live stderr progress
//! cargo run -p ssr-bench --bin experiments --release -- --metrics M.json # pipeline metrics
//! cargo run -p ssr-bench --bin experiments --release -- --trace DIR # per-scenario JSONL traces
//! cargo run -p ssr-bench --bin experiments --release -- --report DIR # self-contained HTML report
//! cargo run -p ssr-bench --bin experiments --release -- --checkpoint J.jsonl # resumable sweep
//! ```
//!
//! `--progress` streams scenario completion (done/total, ETA, busy
//! workers) to stderr; `--metrics PATH` writes the merged pipeline
//! metrics snapshot (schema `ssr-metrics-v1`, human table on stderr);
//! `--trace DIR` writes one JSONL event trace per scenario under
//! `DIR/<campaign-id>/` (schema in `DESIGN.md` §10); `--report DIR`
//! persists the drained campaign records (plus metrics, plus whatever
//! traces land under the same directory) and renders a self-contained
//! `DIR/report.html` (`DESIGN.md` §12). All four are read-only:
//! tables and JSON results stay byte-identical.
//!
//! `--checkpoint PATH` makes the sweep resumable: completed scenarios
//! are journaled to the `ssr-checkpoint/v1` file at `PATH` as they
//! finish, and a restarted run replays the journal first, serving
//! already-done scenarios from the content-addressed cache (same
//! fingerprints and store as `ssr-serve`; `DESIGN.md` §13). The
//! journal never changes results — a resumed run's tables and JSON
//! are byte-identical to an uninterrupted one.
//!
//! `--only E<k>[,E<k>...]` is the flag complement of `--list`: it
//! selects experiment groups by id (case-insensitive, `+`-joined group
//! ids match any part), exactly like bare positional ids, but is
//! explicit enough for CI pipelines.
//!
//! `--algorithms <label,...>` filters by algorithm family instead of
//! group id: labels are parsed as registry handles (`unison-sdr`,
//! `sdr-agreement(8)`, `fga-sdr:domination(1,0)`, …), validated
//! against the standard family registry, and only experiment groups
//! sweeping at least one of the named families run. Both filters
//! compose (intersection).
//!
//! Results are byte-identical for any `--threads` value (the campaign
//! engine's determinism contract). `--format json` additionally writes
//! a `BENCH_`-style results file so performance trajectories can be
//! tracked across checkouts: unfiltered runs write `BENCH_RESULTS.json`
//! (the whole-sweep trajectory record), subset runs only write when an
//! explicit `--out PATH` is given.

use ssr_bench::ctx::ExpCtx;
use ssr_bench::experiments::{self, ExpResult, Profile};
use ssr_campaign::{families, AlgorithmSpec};

/// Splits a `--algorithms` list on commas that are *outside*
/// parentheses, so parameterized labels like `fga-sdr:domination(1,0)`
/// stay whole.
fn split_labels(v: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in v.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&v[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&v[start..]);
    out
}

struct Cli {
    quick: bool,
    list: bool,
    json: bool,
    threads: usize,
    out: Option<String>,
    wanted: Vec<String>,
    algorithms: Vec<AlgorithmSpec>,
    progress: bool,
    metrics: Option<String>,
    trace: Option<String>,
    report: Option<String>,
    checkpoint: Option<String>,
}

fn parse_cli() -> Result<Cli, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        quick: false,
        list: false,
        json: false,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        out: None,
        wanted: Vec::new(),
        algorithms: Vec::new(),
        progress: false,
        metrics: None,
        trace: None,
        report: None,
        checkpoint: None,
    };
    let mut table_format = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => cli.quick = true,
            "--list" => cli.list = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                cli.threads = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&t| t >= 1)
                    .ok_or_else(|| format!("invalid --threads value {v:?}"))?;
            }
            "--format" => {
                let v = it.next().ok_or("--format needs table|json")?;
                match v.as_str() {
                    "table" => {
                        cli.json = false;
                        table_format = true;
                    }
                    "json" => cli.json = true,
                    other => return Err(format!("unknown format {other:?} (table|json)")),
                }
            }
            "--out" => cli.out = Some(it.next().ok_or("--out needs a path")?),
            "--progress" => cli.progress = true,
            "--metrics" => cli.metrics = Some(it.next().ok_or("--metrics needs a path")?),
            "--trace" => cli.trace = Some(it.next().ok_or("--trace needs a directory")?),
            "--report" => cli.report = Some(it.next().ok_or("--report needs a directory")?),
            "--checkpoint" => {
                cli.checkpoint = Some(it.next().ok_or("--checkpoint needs a path")?);
            }
            "--algorithms" => {
                let v = it.next().ok_or("--algorithms needs <label,...>")?;
                let registry = families::default_registry();
                for label in split_labels(&v) {
                    let label = label.trim();
                    if label.is_empty() {
                        continue;
                    }
                    let spec: AlgorithmSpec = label.parse().expect("spec parsing is total");
                    // Bare registry keys (what --list prints, e.g.
                    // `sdr-agreement`) are as valid as fully
                    // parameterized labels; a label WITH parameters
                    // must actually resolve, so typo'd presets or
                    // rejected params fail here, not silently.
                    let valid = if spec.params_str().is_none() {
                        registry.contains(&spec.family)
                    } else {
                        registry.resolve(&spec).is_some()
                    };
                    if !valid {
                        return Err(format!(
                            "unknown algorithm family {label:?} (registered: {})",
                            registry.labels().join(", ")
                        ));
                    }
                    cli.algorithms.push(spec);
                }
                if cli.algorithms.is_empty() {
                    return Err(format!("--algorithms got no labels in {v:?}"));
                }
            }
            "--only" => {
                let v = it.next().ok_or("--only needs E<k>[,E<k>...]")?;
                let ids: Vec<String> = v
                    .split(',')
                    .map(|s| s.trim().to_lowercase())
                    .filter(|s| !s.is_empty())
                    .collect();
                if ids.is_empty() {
                    return Err(format!("--only got no experiment ids in {v:?}"));
                }
                cli.wanted.extend(ids);
            }
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unrecognized flag {flag:?} (known: --quick --list --only E<k>[,E<k>...] \
                     --algorithms <label,...> --threads N --format table|json --out PATH \
                     --progress --metrics PATH --trace DIR --report DIR --checkpoint PATH)"
                ));
            }
            id => cli.wanted.push(id.to_lowercase()),
        }
    }
    // A results path only makes sense for JSON output: imply it, but
    // reject the contradiction `--format table --out PATH` outright.
    if cli.out.is_some() {
        if table_format {
            return Err("--out requires --format json".into());
        }
        cli.json = true;
    }
    Ok(cli)
}

fn main() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };

    if cli.list {
        for entry in experiments::catalog() {
            println!(
                "{:<8} [{}] {}",
                entry.id,
                entry.families.join(", "),
                entry.claim
            );
        }
        return;
    }

    let profile = if cli.quick {
        Profile::Quick
    } else {
        Profile::Full
    };

    // Filter on the catalog's ids, then run only what was selected —
    // in the full profile an unfiltered run takes a long time.
    let selected: Vec<_> = experiments::catalog()
        .into_iter()
        .filter(|entry| {
            cli.wanted.is_empty()
                || entry
                    .id
                    .to_lowercase()
                    .split('+')
                    .any(|part| cli.wanted.iter().any(|w| w == part))
        })
        .filter(|entry| cli.algorithms.is_empty() || entry.uses_any_family(&cli.algorithms))
        .collect();

    if selected.is_empty() {
        eprintln!(
            "error: no experiment group matches ids {:?} / algorithms {:?} \
             (try e1 … e13, --algorithms unison-sdr, or --list)",
            cli.wanted,
            cli.algorithms.iter().map(|a| a.label()).collect::<Vec<_>>()
        );
        std::process::exit(2);
    }

    let mut ctx = ExpCtx::new(cli.threads);
    if cli.progress {
        ctx = ctx.with_progress();
    }
    if cli.metrics.is_some() {
        ctx = ctx.with_metrics();
    }
    if let Some(dir) = &cli.trace {
        ctx = ctx.with_trace_dir(dir);
    }
    if let Some(dir) = &cli.report {
        ctx = ctx.with_report_dir(dir);
    }
    if let Some(path) = &cli.checkpoint {
        ctx = match ctx.with_checkpoint(path) {
            Ok(ctx) => ctx,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let n = ctx.replayed().unwrap_or(0);
        eprintln!("checkpoint: replayed {n} entries from {path}");
    }

    let mut all_pass = true;
    let mut results = Vec::new();
    for entry in &selected {
        let r: ExpResult = (entry.run)(profile, &ctx);
        if !cli.json {
            print!("{}", experiments::render_result(&r));
        }
        all_pass &= r.pass;
        results.push(r);
    }

    if let (Some(path), Some(snapshot)) = (&cli.metrics, ctx.metrics_snapshot()) {
        if let Err(e) = std::fs::write(path, format!("{}\n", snapshot.to_json())) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprint!("{}", snapshot.render_table());
        eprintln!("metrics written to {path}");
    }

    match ctx.write_report() {
        Ok(Some(path)) => eprintln!("report written to {}", path.display()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }

    if cli.json {
        let unfiltered = cli.wanted.is_empty() && cli.algorithms.is_empty();
        let doc = experiments::results_json(profile, unfiltered, &results);
        let text = doc.to_string();
        println!("{text}");
        // The default BENCH_RESULTS.json is the trajectory record for
        // the *whole* sweep — never clobber it with a subset run. An
        // explicit --out always wins.
        let out = match &cli.out {
            Some(path) => Some(path.as_str()),
            None if cli.wanted.is_empty() && cli.algorithms.is_empty() => {
                Some("BENCH_RESULTS.json")
            }
            None => None,
        };
        if let Some(path) = out {
            if let Err(e) = std::fs::write(path, format!("{text}\n")) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("results written to {path}");
        } else {
            eprintln!("subset selection: results not written (pass --out PATH to save them)");
        }
    } else {
        print!("{}", experiments::render_footer(&results));
    }
    if !all_pass {
        std::process::exit(1);
    }
}
