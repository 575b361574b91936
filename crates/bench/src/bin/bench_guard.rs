//! Bench-regression guard: compares a fresh `bench_smoke` timing file
//! against the committed baseline and fails on gross slowdowns.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p dms-bench --bin bench_guard -- \
//!     BENCH_experiments.json fresh.json [--factor 2.0] \
//!     [--min-throughput 30000]
//! ```
//!
//! For every experiment id present in both files the guard checks
//! `new_seconds <= factor * max(baseline_seconds, NOISE_FLOOR)`, and
//! every baseline id must still be timed in the fresh file. The
//! noise floor keeps micro-experiments (sub-50 ms timings where CI
//! jitter dwarfs the signal) from tripping the guard; the factor (2×
//! by default) is deliberately loose — this is a tripwire for
//! accidental O(n²) regressions, not a performance SLO.
//!
//! `--min-throughput X` additionally holds an *absolute* floor: every
//! `server-*` point of the fresh file's `e15_mega_scale` section must
//! report at least `X` sessions/sec/core. Unlike the relative factor,
//! this floor cannot ratchet downward across baseline regenerations —
//! an engine that drops back to seed-era per-session cost fails even
//! if the committed baseline regressed with it.
//!
//! `--max-rss-mib X` holds the complementary *memory* ceiling: every
//! `peak_rss_bytes` sample of the fresh file — the `e15_mega_scale`
//! points and the bounded-sink `e15_instrumented` point — must stay
//! at or below `X` MiB. VmHWM is process-monotone, so the largest run
//! bounds them all; the ceiling is what makes "observability survives
//! a million sessions" an enforced claim rather than a comment.
//!
//! Exits 0 when every experiment is inside the envelope, 1 on any
//! regression or baseline experiment missing from the fresh file, 2 on
//! malformed input.

use dms_sim::JsonValue;

/// Baselines below this many seconds are treated as this many seconds:
/// scheduler jitter on shared CI runners makes ratios of tiny timings
/// meaningless.
const NOISE_FLOOR_SECONDS: f64 = 0.05;

fn fail_usage() -> ! {
    eprintln!(
        "usage: bench_guard <baseline.json> <new.json> [--factor 2.0] \
         [--min-throughput 30000] [--max-rss-mib 1024]"
    );
    std::process::exit(2);
}

/// Extracts `{point -> sessions/sec/core}` from the `e15_mega_scale`
/// section of a `BENCH_experiments.json` tree. Missing section is a
/// hard error when a throughput floor was requested: silently skipping
/// would turn the floor off.
fn e15_throughputs(root: &JsonValue, path: &str) -> Vec<(String, f64)> {
    let Some(points) = root.get("e15_mega_scale").and_then(JsonValue::as_array) else {
        eprintln!("{path}: no `e15_mega_scale` array (needed for --min-throughput)");
        std::process::exit(2);
    };
    let mut out = Vec::new();
    for entry in points {
        let point = entry.get("point").and_then(JsonValue::as_str);
        let throughput = entry
            .get("sessions_per_sec_core")
            .and_then(JsonValue::as_f64);
        match (point, throughput) {
            (Some(point), Some(throughput)) => out.push((point.to_string(), throughput)),
            _ => {
                eprintln!("{path}: malformed e15_mega_scale entry");
                std::process::exit(2);
            }
        }
    }
    out
}

/// Extracts every `{point -> peak_rss_bytes}` sample of a
/// `BENCH_experiments.json` tree: the `e15_mega_scale` points plus the
/// bounded-sink `e15_instrumented` point. Missing sections are a hard
/// error when a ceiling was requested — silently skipping would turn
/// the ceiling off.
fn peak_rss_samples(root: &JsonValue, path: &str) -> Vec<(String, f64)> {
    let Some(points) = root.get("e15_mega_scale").and_then(JsonValue::as_array) else {
        eprintln!("{path}: no `e15_mega_scale` array (needed for --max-rss-mib)");
        std::process::exit(2);
    };
    let mut out = Vec::new();
    let mut push = |label: Option<&str>, rss: Option<f64>| match (label, rss) {
        (Some(label), Some(rss)) => out.push((label.to_string(), rss)),
        _ => {
            eprintln!("{path}: entry without point/peak_rss_bytes");
            std::process::exit(2);
        }
    };
    for entry in points {
        push(
            entry.get("point").and_then(JsonValue::as_str),
            entry.get("peak_rss_bytes").and_then(JsonValue::as_f64),
        );
    }
    let Some(instrumented) = root.get("e15_instrumented") else {
        eprintln!("{path}: no `e15_instrumented` section (needed for --max-rss-mib)");
        std::process::exit(2);
    };
    push(
        Some("instrumented"),
        instrumented
            .get("peak_rss_bytes")
            .and_then(JsonValue::as_f64),
    );
    out
}

/// Extracts `{id -> seconds}` from a `BENCH_experiments.json` tree.
fn experiment_seconds(root: &JsonValue, path: &str) -> Vec<(String, f64)> {
    let Some(experiments) = root.get("experiments").and_then(JsonValue::as_array) else {
        eprintln!("{path}: no `experiments` array");
        std::process::exit(2);
    };
    let mut out = Vec::new();
    for entry in experiments {
        let id = entry.get("id").and_then(JsonValue::as_str);
        let seconds = entry.get("seconds").and_then(JsonValue::as_f64);
        match (id, seconds) {
            (Some(id), Some(seconds)) => out.push((id.to_string(), seconds)),
            _ => {
                eprintln!("{path}: malformed experiments entry");
                std::process::exit(2);
            }
        }
    }
    out
}

fn load(path: &str) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
        eprintln!("{path}: {err}");
        std::process::exit(2);
    });
    JsonValue::parse(&text).unwrap_or_else(|err| {
        eprintln!("{path}: invalid JSON: {err}");
        std::process::exit(2);
    })
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut factor = 2.0f64;
    let mut min_throughput: Option<f64> = None;
    let mut max_rss_mib: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--factor" {
            factor = args
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| fail_usage());
        } else if arg == "--min-throughput" {
            min_throughput = Some(
                args.next()
                    .and_then(|v| v.parse().ok())
                    .filter(|v: &f64| v.is_finite() && *v > 0.0)
                    .unwrap_or_else(|| fail_usage()),
            );
        } else if arg == "--max-rss-mib" {
            max_rss_mib = Some(
                args.next()
                    .and_then(|v| v.parse().ok())
                    .filter(|v: &f64| v.is_finite() && *v > 0.0)
                    .unwrap_or_else(|| fail_usage()),
            );
        } else {
            paths.push(arg);
        }
    }
    if paths.len() != 2 || !(factor.is_finite() && factor >= 1.0) {
        fail_usage();
    }
    let baseline = experiment_seconds(&load(&paths[0]), &paths[0]);
    let fresh_root = load(&paths[1]);
    let fresh = experiment_seconds(&fresh_root, &paths[1]);

    let mut regressions = 0u32;
    let mut compared = 0u32;
    for (id, new_secs) in &fresh {
        let Some((_, base_secs)) = baseline.iter().find(|(b, _)| b == id) else {
            println!("{id:>6}  new experiment, no baseline — skipped");
            continue;
        };
        compared += 1;
        let budget = factor * base_secs.max(NOISE_FLOOR_SECONDS);
        let verdict = if *new_secs > budget {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "{id:>6}  baseline {base_secs:7.3} s  new {new_secs:7.3} s  budget {budget:7.3} s  {verdict}"
        );
    }
    let mut missing = 0u32;
    for (id, _) in &baseline {
        if !fresh.iter().any(|(f, _)| f == id) {
            missing += 1;
            println!("{id:>6}  present in baseline but missing from new run  MISSING");
        }
    }
    let mut floor_failures = 0u32;
    if let Some(floor) = min_throughput {
        let mut server_points = 0u32;
        for (point, throughput) in e15_throughputs(&fresh_root, &paths[1]) {
            if !point.starts_with("server-") {
                continue;
            }
            server_points += 1;
            let verdict = if throughput < floor {
                floor_failures += 1;
                "BELOW FLOOR"
            } else {
                "ok"
            };
            println!(
                "{point:>14}  {throughput:10.0} sessions/s/core  floor {floor:10.0}  {verdict}"
            );
        }
        if server_points == 0 {
            eprintln!("{}: e15_mega_scale has no server-* points", paths[1]);
            std::process::exit(2);
        }
    }
    let mut ceiling_failures = 0u32;
    if let Some(ceiling_mib) = max_rss_mib {
        for (label, rss_bytes) in peak_rss_samples(&fresh_root, &paths[1]) {
            let rss_mib = rss_bytes / (1024.0 * 1024.0);
            let verdict = if rss_mib > ceiling_mib {
                ceiling_failures += 1;
                "OVER CEILING"
            } else {
                "ok"
            };
            println!(
                "{label:>14}  rss {rss_mib:8.1} MiB  ceiling {ceiling_mib:8.1} MiB  {verdict}"
            );
        }
    }
    if regressions > 0 || missing > 0 || floor_failures > 0 || ceiling_failures > 0 {
        if missing > 0 {
            eprintln!(
                "bench_guard: {missing} baseline experiments missing from {}",
                paths[1]
            );
        }
        if regressions > 0 {
            eprintln!(
                "bench_guard: {regressions} of {compared} experiments exceed {factor}x baseline"
            );
        }
        if floor_failures > 0 {
            eprintln!("bench_guard: {floor_failures} E15 server points below the throughput floor");
        }
        if ceiling_failures > 0 {
            eprintln!("bench_guard: {ceiling_failures} E15 points above the peak-RSS ceiling");
        }
        std::process::exit(1);
    }
    println!("bench_guard: {compared} experiments within {factor}x of baseline");
}
