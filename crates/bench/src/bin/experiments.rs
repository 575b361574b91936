//! Prints every reproduced experiment as a paper-vs-measured table.
//!
//! Run with: `cargo run --release -p dms-bench --bin experiments`
//!
//! Optional arguments are experiment ids (case-insensitive): pass
//! `E12` to run and print only that experiment — CI uses this to diff
//! one sweep between `DMS_THREADS=1` and parallel runs. Experiments
//! print in [`dms_bench::EXPERIMENTS`] order; an unknown id exits with
//! code 2 before anything runs.
//!
//! `--metrics-dir <dir>` additionally streams one chunked JSONL
//! run-log per printed experiment to `<dir>/<id>/` — `meta.json`, the
//! records as `chunk-*.jsonl`, `metrics.json`, and a `MANIFEST.json`
//! clean-close marker, written through the bounded-buffer
//! [`dms_sim::RunLogWriter`] rather than one monolithic in-memory
//! JSON string. A sweep's run-log comes from the same run as its
//! table, so the flag adds no simulation work. The run-log
//! directories are deterministic and byte-identical at any
//! `DMS_THREADS`, which CI enforces with a recursive directory diff;
//! `dms-logq` slices and summarises them.
//!
//! The output of this binary is the source of `EXPERIMENTS.md`.

use std::path::PathBuf;

use dms_bench::{ExperimentFn, EXPERIMENTS};
use dms_sim::ParRunner;

fn main() {
    let mut filter: Vec<String> = Vec::new();
    let mut metrics_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--metrics-dir" {
            let dir = args.next().unwrap_or_else(|| {
                eprintln!("--metrics-dir needs a directory argument");
                std::process::exit(2);
            });
            metrics_dir = Some(PathBuf::from(dir));
        } else {
            filter.push(arg);
        }
    }
    let known = |f: &String| EXPERIMENTS.iter().any(|(id, _)| f.eq_ignore_ascii_case(id));
    if let Some(unknown) = filter.iter().find(|f| !known(f)) {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "unknown experiment id `{unknown}`; known ids: {}",
            ids.join(" ")
        );
        std::process::exit(2);
    }
    let selected: Vec<ExperimentFn> = EXPERIMENTS
        .iter()
        .filter(|(id, _)| filter.is_empty() || filter.iter().any(|f| f.eq_ignore_ascii_case(id)))
        .map(|&(_, run)| run)
        .collect();
    if let Some(dir) = &metrics_dir {
        std::fs::create_dir_all(dir).expect("create metrics dir");
    }
    println!("# dms experiment reproductions (seeded, deterministic)\n");
    for exp in ParRunner::new().run(selected.len(), |i| selected[i]()) {
        println!("## {} — {}\n", exp.id, exp.title);
        println!("| metric | paper | measured |");
        println!("|--------|-------|----------|");
        for row in &exp.rows {
            println!("| {} | {} | {} |", row.metric, row.paper, row.measured);
        }
        println!();
        if let Some(dir) = &metrics_dir {
            let log = dms_bench::run_log_for(&exp);
            dms_sim::stream_run_log(&log, dir.join(exp.id)).expect("stream run-log");
        }
    }
}
