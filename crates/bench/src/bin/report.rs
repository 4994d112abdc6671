//! The campaign-report CLI over `ssr-report`.
//!
//! Usage:
//!
//! ```text
//! # Render one artifact directory as a self-contained HTML page:
//! cargo run -p ssr-bench --bin report -- render DIR [--out PATH]
//! ```
//!
//! `render` is a pure function of the artifact bytes — the HTML is
//! byte-identical for a given artifact set, whatever thread count
//! produced it.
//!
//! Exit codes: 0 ok, 1 failed render, 2 usage error.

use std::path::Path;

fn usage() -> ! {
    eprintln!("usage: report render DIR [--out PATH]");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn cmd_render(args: &[String]) {
    let dir = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| usage());
    let out = flag_value(args, "--out").unwrap_or_else(|| format!("{dir}/report.html"));
    let artifacts = match ssr_report::load_dir(Path::new(dir)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let html = ssr_report::render(&artifacts);
    if let Err(e) = std::fs::write(&out, html) {
        fail(&format!("cannot write {out}: {e}"));
    }
    println!("report written to {out}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    match cmd.as_str() {
        "render" | "--render" => cmd_render(rest),
        "--help" | "-h" => usage(),
        other => fail(&format!("unknown command {other:?} (render)")),
    }
}
