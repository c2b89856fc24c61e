//! Regenerates every figure and table of the paper.
//!
//! ```text
//! figures [--scale small|medium|paper] [--seed N]
//!         [--json PATH]        # full report as JSON
//!         [--csv-dir DIR]      # crowd/crawl datasets as CSV + JSONL
//!         [--attribution]      # factor-attribution tables (extension)
//!         [--fig1 --fig5 ...]  # select individual artifacts
//! ```
//!
//! With no figure flags, everything is printed in paper order.

use pd_bench::Scale;
use pd_core::{Engine, Executor, NullObserver, Report, RunPlan};
use std::sync::Arc;

struct Args {
    scale: Scale,
    seed: u64,
    json: Option<String>,
    csv_dir: Option<String>,
    only: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Paper,
        seed: 1307,
        json: None,
        csv_dir: None,
        only: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                args.scale = Scale::parse(&v).ok_or(format!("unknown scale {v:?}"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--json" => {
                args.json = Some(it.next().ok_or("--json needs a path")?);
            }
            "--csv-dir" => {
                args.csv_dir = Some(it.next().ok_or("--csv-dir needs a directory")?);
            }
            // `--attribution` and the figure flags fall through to the
            // section selector below.
            flag if flag.starts_with("--") => {
                args.only.push(flag.trim_start_matches("--").to_owned());
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(args)
}

fn wants(args: &Args, name: &str) -> bool {
    args.only.is_empty() || args.only.iter().any(|o| o == name)
}

fn print_report(args: &Args, report: &Report) {
    let sections: [(&str, String); 13] = [
        ("t0", report.render_summary()),
        ("fig1", report.render_fig1()),
        ("fig2", report.render_fig2()),
        ("fig3", report.render_fig3()),
        ("fig4", report.render_fig4()),
        ("fig5", report.render_fig5()),
        ("fig6", report.render_fig6()),
        ("fig7", report.render_fig7()),
        ("fig8", report.render_fig8()),
        ("fig9", report.render_fig9()),
        ("fig10", report.render_fig10()),
        ("t1", report.render_tables()),
        ("attribution", report.render_attribution()),
    ];
    for (name, body) in sections {
        // Aliases: --fig6a/--fig6b/--fig8a... select the joint section;
        // --a1 selects the persona line inside t1.
        let selected = wants(args, name)
            || (name == "fig6" && (wants(args, "fig6a") || wants(args, "fig6b")))
            || (name == "fig8"
                && (wants(args, "fig8a") || wants(args, "fig8b") || wants(args, "fig8c")))
            || (name == "t1" && wants(args, "a1"));
        if selected {
            println!("{body}");
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("figures: {e}");
            eprintln!(
                "usage: figures [--scale small|medium|paper] [--seed N] [--json PATH] \
                 [--csv-dir DIR] [--attribution] [--figN ...]"
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "# running pipeline at scale {:?}, seed {} ...",
        args.scale, args.seed
    );
    let started = std::time::Instant::now();
    let mut engine = Engine::from_plan(
        RunPlan::new(args.scale.config(args.seed)),
        Executor::serial(),
        Arc::new(NullObserver),
    );
    let report = engine.run();
    eprintln!("# pipeline finished in {:.1?}", started.elapsed());

    print_report(&args, &report);

    if let Some(path) = &args.json {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => eprintln!("# report JSON written to {path}"),
            Err(e) => {
                eprintln!("figures: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(dir) = &args.csv_dir {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("figures: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        let files = [
            (
                "crowd.csv",
                pd_sheriff::export::to_csv(&engine.crowd().cleaned),
            ),
            (
                "crowd.jsonl",
                pd_sheriff::export::to_jsonl(&engine.crowd().cleaned),
            ),
            (
                "crawl.csv",
                pd_sheriff::export::to_csv(&engine.crawl().store),
            ),
            (
                "crawl.jsonl",
                pd_sheriff::export::to_jsonl(&engine.crawl().store),
            ),
        ];
        for (name, body) in files {
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("figures: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("# dataset written to {}", path.display());
        }
    }
}
