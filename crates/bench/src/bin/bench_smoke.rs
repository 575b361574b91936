//! Timing smoke-run: wall-clock for every experiment plus the two
//! headline performance comparisons of the parallel harness.
//!
//! Run with: `cargo run --release -p dms-bench --bin bench_smoke`
//!
//! Writes `BENCH_experiments.json` in the working directory:
//!
//! * per-experiment wall-clock seconds (sequential, one at a time);
//! * per-point seconds of the E12, E14 (scale-out axis), E16 and E17
//!   sweeps, one `Sweep::run` at a time;
//! * the full `all_experiments()` suite, parallel (all cores) vs
//!   `DMS_THREADS=1`, and the resulting speed-up;
//! * 2¹⁶-sample fGn generation, circulant embedding vs the Hosking
//!   oracle, and the resulting speed-up;
//! * the E12 server with no metrics sink vs an attached sink (the
//!   `None` path is the hot loop and must show no measurable
//!   slowdown);
//! * a `metrics` snapshot: every timing above re-recorded through the
//!   `dms_sim::MetricsRegistry`, which is also how the structured
//!   fields of this file are rendered (`JsonValue`, not hand-glued
//!   strings).
//!
//! Everything is seeded, so the numbers measure time, not variance
//! (the timings themselves vary run to run, of course).

use std::time::Instant;

use dms_analysis::FractionalGaussianNoise;
use dms_bench::{
    all_experiments, E12Arm, E12Point, E12ServerLoad, E14ScaleOut, E15Arm, E15Point, E16GeoTiered,
    E17AdaptiveFleet, Sweep, EXPERIMENTS,
};
use dms_serve::ServeMetricsSink;
use dms_sim::{JsonValue, MetricsRegistry, SimRng};

fn seconds_of(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Times one `S::run` per point of sweep `S` whose label `keep`
/// accepts — the jobs `run_sweep` fans out — printing each and
/// recording it as the gauge `<id>/<label>/seconds`.
fn time_points<S: Sweep>(
    label_of: impl Fn(&S::Point) -> String,
    keep: impl Fn(&str) -> bool,
    registry: &mut MetricsRegistry,
) -> Vec<(String, f64)> {
    println!("\n{} points:", S::ID);
    let mut timed = Vec::new();
    for point in &S::points() {
        let label = label_of(point);
        if !keep(&label) {
            continue;
        }
        let secs = seconds_of(|| {
            std::hint::black_box(S::run(point));
        });
        println!("  {label:<28} {secs:6.3} s");
        registry.gauge_set(&format!("{}/{label}/seconds", S::ID.to_lowercase()), secs);
        timed.push((label, secs));
    }
    timed
}

/// Per-point timings as a `[{point, seconds}]` JSON array.
fn points_json(timed: &[(String, f64)]) -> JsonValue {
    JsonValue::Array(
        timed
            .iter()
            .map(|(label, secs)| {
                JsonValue::Object(vec![
                    ("point".to_string(), JsonValue::from(label.as_str())),
                    ("seconds".to_string(), JsonValue::Float(*secs)),
                ])
            })
            .collect(),
    )
}

fn main() {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("# bench_smoke ({threads} hardware threads)\n");

    // Per-experiment timings, isolated: sequential inside and out
    // (DMS_THREADS=1), so the numbers are comparable across machines.
    std::env::set_var("DMS_THREADS", "1");
    let mut registry = MetricsRegistry::new();
    let mut per_experiment: Vec<(String, f64)> = Vec::new();
    for (id, run) in EXPERIMENTS {
        let mut title = "";
        let secs = seconds_of(|| {
            title = run().title;
        });
        println!("{id:>4}  {secs:7.3} s  {title}");
        per_experiment.push((id.to_string(), secs));
    }

    // Suite wall-clock: sequential (DMS_THREADS=1, still set) vs
    // parallel (cap removed).
    let sequential = seconds_of(|| {
        std::hint::black_box(all_experiments());
    });
    std::env::remove_var("DMS_THREADS");
    let parallel = seconds_of(|| {
        std::hint::black_box(all_experiments());
    });
    let suite_speedup = sequential / parallel.max(1e-9);
    println!(
        "\nsuite: sequential {sequential:.3} s, parallel {parallel:.3} s ({suite_speedup:.2}x)"
    );

    // fGn at 2^16 samples: circulant embedding vs Hosking oracle.
    let n = 1 << 16;
    let fgn = FractionalGaussianNoise::new(0.85).expect("valid");
    let circulant = seconds_of(|| {
        std::hint::black_box(fgn.generate(n, &mut SimRng::new(97)));
    });
    // First Hosking call also pays the coefficient computation; time a
    // second, cache-warm call separately so both costs are recorded.
    let hosking_cold = seconds_of(|| {
        std::hint::black_box(fgn.generate_hosking(n, &mut SimRng::new(97)));
    });
    let hosking_warm = seconds_of(|| {
        std::hint::black_box(fgn.generate_hosking(n, &mut SimRng::new(98)));
    });
    let fgn_speedup = hosking_warm / circulant.max(1e-9);
    println!(
        "fGn n={n}: circulant {circulant:.3} s, hosking {hosking_warm:.3} s warm \
         ({hosking_cold:.3} s cold) -> {fgn_speedup:.1}x"
    );

    // Sweep points one job at a time: the per-point costs the
    // ParRunner balances when each sweep fans out. E12 runs with its
    // per-slot sink attached, as the sweep does.
    let e12_points_timed = time_points::<E12ServerLoad>(|p| p.label(), |_| true, &mut registry);
    // From here on DMS_THREADS=1 keeps the nested fan-outs (E14 shards,
    // E16 region fleets, E17 shard execution, the E15 cluster arm)
    // serial, so the numbers are per-core costs comparable across
    // machines. E14 times the scale-out axis only: one cluster per
    // shard count at the saturated load, nominal jsq arm.
    std::env::set_var("DMS_THREADS", "1");
    let e14_points_timed = time_points::<E14ScaleOut>(
        |p| p.label(),
        |label| label.ends_with("1.05x-jsq-nominal"),
        &mut registry,
    );
    let e16_points_timed = time_points::<E16GeoTiered>(|p| p.label(), |_| true, &mut registry);
    let e17_points_timed = time_points::<E17AdaptiveFleet>(|p| p.label(), |_| true, &mut registry);

    // E15 mega-scale sweep: sessions/sec/core and peak RSS at
    // 10^4/10^5/10^6 sessions, server and 8-shard cluster arms, plus
    // the seed reference engine up to 10^5 as the speed-up baseline.
    // DMS_THREADS=1 (still set) keeps per-core throughput honest on
    // any host; the points run smallest-first so the monotone VmHWM
    // high-water mark attributes to the largest run so far.
    println!("\nE15 mega-scale points (sessions/sec/core at DMS_THREADS=1):");
    struct E15Timed {
        label: String,
        offered: u64,
        seconds: f64,
        throughput: f64,
        peak_rss: u64,
    }
    let mut e15_timed: Vec<E15Timed> = Vec::new();
    for point in dms_bench::e15_points() {
        // Workload generation is shared by every arm and isn't engine
        // work — build it outside the timed window.
        let workload = dms_bench::e15_workload(point.sessions);
        let mut outcome = None;
        let secs = seconds_of(|| {
            outcome = Some(dms_bench::e15_run_point_on(point, &workload, None));
        });
        let o = outcome.expect("point ran");
        let throughput = o.offered as f64 / secs.max(1e-9);
        let peak_rss = dms_bench::peak_rss_bytes().unwrap_or(0);
        println!(
            "  {:<16} {:8.3} s  {:>8} offered  {:>10.0} sessions/s/core  rss {:7.1} MiB",
            point.label(),
            secs,
            o.offered,
            throughput,
            peak_rss as f64 / (1024.0 * 1024.0)
        );
        e15_timed.push(E15Timed {
            label: point.label(),
            offered: o.offered,
            seconds: secs,
            throughput,
            peak_rss,
        });
    }
    let e15_secs = |label: &str| {
        e15_timed
            .iter()
            .find(|t| t.label == label)
            .map(|t| t.seconds)
            .expect("point was timed")
    };
    let e15_speedup_100k = e15_secs("reference-100k") / e15_secs("server-100k").max(1e-9);
    println!("  arena vs reference at 10^5 sessions: {e15_speedup_100k:.1}x");

    // The instrumented 10^6 point: the same run with a bounded metrics
    // sink attached and the aggregates streamed through a chunked
    // RunLogWriter. This is the observability tentpole's proof
    // obligation — constant-memory instrumentation at full scale, with
    // the overhead measured against the plain run above (the VmHWM
    // ceiling on this point is what `bench_guard --max-rss-mib`
    // holds).
    let e15_instrumented = {
        let sessions = *dms_bench::E15_SESSION_COUNTS.last().expect("non-empty");
        let workload = dms_bench::e15_workload(sessions);
        let point = E15Point {
            sessions,
            arm: E15Arm::Server,
        };
        let mut sink = ServeMetricsSink::bounded();
        let mut report = None;
        let secs = seconds_of(|| {
            report = Some(dms_bench::e15_run_point_on(
                point,
                &workload,
                Some(&mut sink),
            ));
        });
        let report = report.expect("point ran");
        let mut registry = MetricsRegistry::new();
        sink.export(&mut registry, "e15/instrumented");
        let dir = std::env::temp_dir().join(format!("dms_e15_instrumented_{}", std::process::id()));
        let mut writer = dms_sim::RunLogWriter::create(&dir).expect("create run-log dir");
        writer.set_meta("experiment", "E15-instrumented");
        writer.set_meta("sessions", sessions.to_string());
        writer
            .record(
                &dms_sim::RunRecord::new("e15-instrumented")
                    .with("offered", report.offered)
                    .with("admitted", report.admitted)
                    .with("deadline_misses", report.deadline_misses),
            )
            .expect("write record");
        writer.finish(&registry).expect("close run-log");
        std::fs::remove_dir_all(&dir).ok();
        let throughput = report.offered as f64 / secs.max(1e-9);
        let peak_rss = dms_bench::peak_rss_bytes().unwrap_or(0);
        let overhead = secs / e15_secs("server-1m").max(1e-9) - 1.0;
        println!(
            "  server-1m instrumented: {:.3} s ({:+.1}% vs plain), {:.0} sessions/s/core, \
             rss {:.1} MiB",
            secs,
            overhead * 100.0,
            throughput,
            peak_rss as f64 / (1024.0 * 1024.0)
        );
        (secs, throughput, peak_rss, overhead)
    };

    // Micro-kernels behind the E15 numbers: the per-slot multiplexer
    // pass and memoised admission, recorded here so the JSON carries
    // them.
    println!("\nmicro-kernels:");
    let micro_timed: Vec<dms_bench::micro::MicroTiming> =
        dms_bench::micro::multiplexer_micro(20_000)
            .into_iter()
            .chain(dms_bench::micro::admission_micro(1 << 20))
            .collect();
    for t in &micro_timed {
        t.print();
    }
    std::env::remove_var("DMS_THREADS");

    // Sink overhead: the heaviest sweep point with no sink (the hot
    // path every experiment takes) vs with a per-slot sink attached.
    // The `None` column is the one that must not regress.
    let overhead_point = E12Point {
        load: 1.5,
        self_similar: true,
        arm: E12Arm::Uncontrolled,
    };
    let none_sink = seconds_of(|| {
        std::hint::black_box(dms_bench::e12_run_point_instrumented(overhead_point, None));
    });
    let with_sink = seconds_of(|| {
        let mut sink = ServeMetricsSink::new();
        std::hint::black_box(dms_bench::e12_run_point_instrumented(
            overhead_point,
            Some(&mut sink),
        ));
    });
    println!(
        "\nE12 sink overhead ({}): none {:.3} s, recording {:.3} s",
        overhead_point.label(),
        none_sink,
        with_sink
    );

    // Loopback serving frontier: the full 10^4-session soak through
    // codec + socketpair + lockstep driver, with the socket run-log
    // asserted byte-identical to direct injection before timing is
    // reported.
    let net = dms_bench::net::net_loopback_perf(dms_bench::net::SOAK_SEED);
    println!(
        "\nnet_loopback_perf: {} sessions, {} frames in {:.3} s -> {:.0} frames/s",
        net.sessions, net.frames, net.seconds, net.frames_per_sec
    );

    // Registry snapshot: the same numbers, recorded through the
    // metrics layer the simulators feed their run-logs from.
    for (id, secs) in &per_experiment {
        registry.gauge_set(&format!("experiment/{id}/seconds"), *secs);
    }
    {
        let mut s = registry.scoped("suite");
        s.gauge_set("sequential_seconds", sequential);
        s.gauge_set("parallel_seconds", parallel);
        s.gauge_set("speedup", suite_speedup);
        s.gauge_set("threads", threads as f64);
    }
    {
        let mut s = registry.scoped("fgn_65536");
        s.gauge_set("circulant_seconds", circulant);
        s.gauge_set("hosking_cold_seconds", hosking_cold);
        s.gauge_set("hosking_warm_seconds", hosking_warm);
        s.gauge_set("speedup", fgn_speedup);
    }
    for t in &e15_timed {
        let mut s = registry.scoped(&format!("e15/{}", t.label));
        s.gauge_set("seconds", t.seconds);
        s.gauge_set("sessions_per_sec_core", t.throughput);
        s.gauge_set("peak_rss_bytes", t.peak_rss as f64);
    }
    registry.gauge_set("e15/arena_vs_reference_speedup_100k", e15_speedup_100k);
    {
        let mut s = registry.scoped("e15_instrumented");
        s.gauge_set("seconds", e15_instrumented.0);
        s.gauge_set("sessions_per_sec_core", e15_instrumented.1);
        s.gauge_set("peak_rss_bytes", e15_instrumented.2 as f64);
        s.gauge_set("overhead_vs_plain", e15_instrumented.3);
    }
    for t in &micro_timed {
        let mut s = registry.scoped(&format!("micro/{}", t.name));
        s.gauge_set("seconds", t.seconds);
        s.gauge_set("ops_per_sec", t.ops_per_sec());
    }
    {
        let mut s = registry.scoped("e12_sink_overhead");
        s.gauge_set("none_seconds", none_sink);
        s.gauge_set("recording_seconds", with_sink);
    }
    {
        let mut s = registry.scoped("net_loopback_perf");
        s.gauge_set("sessions", net.sessions as f64);
        s.gauge_set("frames", net.frames as f64);
        s.gauge_set("seconds", net.seconds);
        s.gauge_set("frames_per_sec", net.frames_per_sec);
    }

    // The workspace is offline and vendors no JSON crate; the file is
    // rendered through the deterministic `JsonValue` tree instead.
    let json = JsonValue::Object(vec![
        (
            "experiments".to_string(),
            JsonValue::Array(
                per_experiment
                    .iter()
                    .map(|(id, secs)| {
                        JsonValue::Object(vec![
                            ("id".to_string(), JsonValue::from(id.as_str())),
                            ("seconds".to_string(), JsonValue::Float(*secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "suite".to_string(),
            JsonValue::Object(vec![
                (
                    "sequential_seconds".to_string(),
                    JsonValue::Float(sequential),
                ),
                ("parallel_seconds".to_string(), JsonValue::Float(parallel)),
                ("speedup".to_string(), JsonValue::Float(suite_speedup)),
                ("threads".to_string(), JsonValue::from(threads)),
            ]),
        ),
        (
            "fgn_65536".to_string(),
            JsonValue::Object(vec![
                ("circulant_seconds".to_string(), JsonValue::Float(circulant)),
                (
                    "hosking_cold_seconds".to_string(),
                    JsonValue::Float(hosking_cold),
                ),
                (
                    "hosking_warm_seconds".to_string(),
                    JsonValue::Float(hosking_warm),
                ),
                ("speedup".to_string(), JsonValue::Float(fgn_speedup)),
            ]),
        ),
        (
            "e12_load_points".to_string(),
            points_json(&e12_points_timed),
        ),
        (
            "e14_scale_out_points".to_string(),
            points_json(&e14_points_timed),
        ),
        (
            "e16_tier_points".to_string(),
            points_json(&e16_points_timed),
        ),
        (
            "e17_adaptive_points".to_string(),
            points_json(&e17_points_timed),
        ),
        (
            "e15_mega_scale".to_string(),
            JsonValue::Array(
                e15_timed
                    .iter()
                    .map(|t| {
                        JsonValue::Object(vec![
                            ("point".to_string(), JsonValue::from(t.label.as_str())),
                            ("offered_sessions".to_string(), JsonValue::from(t.offered)),
                            ("seconds".to_string(), JsonValue::Float(t.seconds)),
                            (
                                "sessions_per_sec_core".to_string(),
                                JsonValue::Float(t.throughput),
                            ),
                            ("peak_rss_bytes".to_string(), JsonValue::from(t.peak_rss)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "e15_arena_vs_reference_speedup_100k".to_string(),
            JsonValue::Float(e15_speedup_100k),
        ),
        (
            "e15_instrumented".to_string(),
            JsonValue::Object(vec![
                ("point".to_string(), JsonValue::from("server-1m")),
                ("seconds".to_string(), JsonValue::Float(e15_instrumented.0)),
                (
                    "sessions_per_sec_core".to_string(),
                    JsonValue::Float(e15_instrumented.1),
                ),
                (
                    "peak_rss_bytes".to_string(),
                    JsonValue::from(e15_instrumented.2),
                ),
                (
                    "overhead_vs_plain".to_string(),
                    JsonValue::Float(e15_instrumented.3),
                ),
            ]),
        ),
        (
            "micro_kernels".to_string(),
            JsonValue::Array(
                micro_timed
                    .iter()
                    .map(|t| {
                        JsonValue::Object(vec![
                            ("name".to_string(), JsonValue::from(t.name)),
                            ("ops".to_string(), JsonValue::from(t.ops)),
                            ("seconds".to_string(), JsonValue::Float(t.seconds)),
                            ("ops_per_sec".to_string(), JsonValue::Float(t.ops_per_sec())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "e12_sink_overhead".to_string(),
            JsonValue::Object(vec![
                ("none_seconds".to_string(), JsonValue::Float(none_sink)),
                ("recording_seconds".to_string(), JsonValue::Float(with_sink)),
            ]),
        ),
        (
            "net_loopback_perf".to_string(),
            JsonValue::Object(vec![
                ("sessions".to_string(), JsonValue::from(net.sessions)),
                ("frames".to_string(), JsonValue::from(net.frames)),
                ("seconds".to_string(), JsonValue::Float(net.seconds)),
                (
                    "frames_per_sec".to_string(),
                    JsonValue::Float(net.frames_per_sec),
                ),
            ]),
        ),
        ("metrics".to_string(), registry.to_json()),
    ]);
    let mut rendered = json.render();
    rendered.push('\n');
    std::fs::write("BENCH_experiments.json", rendered).expect("write BENCH_experiments.json");
    println!("\nwrote BENCH_experiments.json");
}
