//! Command-line contracts of the `experiments`, `bench_guard` and
//! `loadgen` binaries: what they run, and which exit codes CI relies
//! on.

use std::path::{Path, PathBuf};
use std::process::Command;

#[test]
fn experiments_rejects_an_unknown_id_before_running_anything() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("NOPE")
        .output()
        .expect("run experiments");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "printed a document for an unknown id"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("NOPE"));
}

#[test]
fn experiments_runs_only_the_requested_id() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("e17")
        .output()
        .expect("run experiments");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 tables");
    let tables: Vec<&str> = stdout.lines().filter(|l| l.starts_with("## ")).collect();
    assert_eq!(tables.len(), 1, "{tables:?}");
    assert!(tables[0].starts_with("## E17 — "), "{}", tables[0]);
}

/// Writes a minimal `BENCH_experiments.json` timing the given ids.
fn bench_file(dir: &Path, name: &str, ids: &[&str]) -> PathBuf {
    let entries: Vec<String> = ids
        .iter()
        .map(|id| format!("{{\"id\": \"{id}\", \"seconds\": 0.1}}"))
        .collect();
    let path = dir.join(name);
    std::fs::write(
        &path,
        format!("{{\"experiments\": [{}]}}\n", entries.join(", ")),
    )
    .expect("write bench file");
    path
}

#[test]
fn bench_guard_fails_when_a_baseline_experiment_is_missing() {
    let dir = std::env::temp_dir().join(format!("dms_bench_guard_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let baseline = bench_file(&dir, "baseline.json", &["E1", "E2"]);
    let guard = |fresh: &PathBuf| {
        Command::new(env!("CARGO_BIN_EXE_bench_guard"))
            .arg(&baseline)
            .arg(fresh)
            .output()
            .expect("run bench_guard")
    };
    let complete = guard(&bench_file(&dir, "complete.json", &["E1", "E2"]));
    let dropped = guard(&bench_file(&dir, "dropped.json", &["E1"]));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(complete.status.code(), Some(0));
    assert_eq!(dropped.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&dropped.stderr);
    assert!(
        stderr.contains("1 baseline experiments missing"),
        "{stderr}"
    );
}

/// Runs `loadgen` with `args` plus `--runlog <a fresh temp path>`, and
/// reports whether that run-log directory exists afterwards.
fn loadgen_with_runlog(tag: &str, args: &[&str]) -> (std::process::Output, bool) {
    let dir = std::env::temp_dir().join(format!("dms_loadgen_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(args)
        .arg("--runlog")
        .arg(&dir)
        .output()
        .expect("run loadgen");
    let wrote = dir.exists();
    std::fs::remove_dir_all(&dir).ok();
    (out, wrote)
}

/// `--runlog` only names the `--direct` run's log; with `--connect` it
/// used to be accepted, ignored, and the run exited 0 with no log.
/// The flag is refused before any connection is attempted.
#[test]
fn loadgen_refuses_runlog_with_connect() {
    let (out, wrote) = loadgen_with_runlog("connect", &["--connect", "unix:/nonexistent/dms.sock"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--runlog"), "{stderr}");
    assert!(!stderr.contains("connect failed"), "{stderr}");
    assert!(!wrote, "a refused run wrote a run-log directory");
}

/// `--slot-us` paces a socket run; with `--direct` it used to be
/// accepted and ignored. The flag is refused before the run starts.
#[test]
fn loadgen_refuses_slot_us_with_direct() {
    let (out, wrote) = loadgen_with_runlog("direct", &["--direct", "--slot-us", "100"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--slot-us"), "{stderr}");
    assert!(!wrote, "a refused run wrote a run-log directory");
}
