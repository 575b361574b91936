//! Golden run-log snapshots: byte-exact guards over the rendered JSON
//! of two representative run-logs.
//!
//! The CI determinism steps already prove each log is identical across
//! `DMS_THREADS` *within one build*; these tests pin the bytes across
//! *commits*. Any change to experiment constants, the metrics schema,
//! the JSON renderer, or the simulators' arithmetic shows up as a
//! golden diff that has to be re-blessed deliberately:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test --test golden_runlogs
//! git diff tests/golden/
//! ```
//!
//! Eight snapshots, chosen for coverage-per-byte:
//!
//! * `E10.json` — the steady-state experiment's full run-log, the
//!   oldest table in the suite (analysis + simulation agreement);
//! * `E10.jsonl` — the same run-log streamed through the chunked
//!   [`dms_sim::RunLogWriter`] (two records per chunk, so rotation is
//!   on the golden path) and re-concatenated: the canonical compact
//!   single-line rendering every streamed run-log directory is made
//!   of;
//! * `E12_selfsim-1.2x-controlled.json` — one E12 server point (fGn
//!   arrivals at 1.2x, predictor admission plus layer shedding), with
//!   its per-slot series: pins the memoised M/M/1/K admission path of
//!   the serving engine on an overloaded link;
//! * `E13_crash-controlled.json` — one E13 point under the full fault
//!   stack with recovery, with its per-slot series: its capacity
//!   re-estimates reset the admission memo mid-run, and its retries
//!   take the re-admission predicate;
//! * `E14_n2_jsq_crash.json` — a single E14 cluster point (two skewed
//!   shards, join-shortest-queue, one shard crashing mid-run), built
//!   through the E14 sweep's own `export` and `record`, so it
//!   exercises the cluster dispatch ledger, fault harvesting,
//!   re-routing, and the recovery gauge end to end;
//! * `E16_tiered_0.6.json` — one E16 geo-tiered point (three edge
//!   regions + shared origin at 0.6x load), pinning the Zipf cache
//!   pass, origin predictor ledger, flash-crowd workload, per-class
//!   last-hop energy tables, and the nested per-region fleet export;
//! * `E17_diurnal_adaptive.json` — the E17 closed-loop fleet on the
//!   diurnal regime, pinning the ambient-trace load generator, the
//!   autoscaler's scale events, the Q16 PI/UCB controller state
//!   series, and the per-slot shard-count series end to end;
//! * `driver_soak.runlog` — the socket driver's text run-log of a
//!   reduced loopback-soak trace, fed by direct injection: pins the
//!   verdict and summary line format, which the soak's socket-vs-direct
//!   comparison cannot see because both sides come from one build, and
//!   the engine's within-slot order under offers injected one slot at
//!   a time.

use std::path::PathBuf;

use dms_bench::net::{soak_driver, SOAK_LOAD, SOAK_SEED};
use dms_bench::{
    e10_steady_state, run_log_for, E12Arm, E12Point, E12ServerLoad, E13Intensity, E13Point,
    E13Resilience, E14Point, E14ScaleOut, E16Arm, E16GeoTiered, E16Point, E17AdaptiveFleet, E17Arm,
    E17Point, E17Regime, Sweep,
};
use dms_cluster::BalancerPolicy;
use dms_net::drive_direct;
use dms_serve::{
    rate_for_load, AdmissionPolicy, ArrivalProcess, CapacityModel, DegradeConfig, ServerConfig,
    SessionTemplate, Workload,
};
use dms_sim::{RunLog, RunLogReader, RunLogWriter, RunRecord, TailState};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares the log's rendered bytes against `tests/golden/<name>`,
/// or rewrites the file when `GOLDEN_REGEN` is set.
fn assert_matches_golden(log: &RunLog, name: &str) {
    let mut rendered = log.to_json_string();
    rendered.push('\n');
    assert_bytes_match_golden(&rendered, name);
}

fn assert_bytes_match_golden(rendered: &str, name: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "missing golden file {} ({err}); regenerate with \
             GOLDEN_REGEN=1 cargo test --test golden_runlogs",
            path.display()
        )
    });
    if rendered != golden {
        let diff_at = rendered
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.len().min(golden.len()));
        let line = golden[..diff_at.min(golden.len())].lines().count();
        panic!(
            "run-log bytes diverge from {} at byte {diff_at} (line ~{line}); \
             if the change is intentional, re-bless with \
             GOLDEN_REGEN=1 cargo test --test golden_runlogs and review the diff",
            path.display()
        );
    }
}

/// One point of sweep `S` rendered into a run-log through the sweep's
/// own `export` and `record`, the code that renders each grid point of
/// the experiment's run-log.
fn point_log<S: Sweep>(point: &S::Point, label: String) -> RunLog {
    let outcome = S::run(point);
    let mut log = RunLog::new();
    log.set_meta("experiment", S::ID);
    log.set_meta("point", label);
    S::export(point, &outcome, log.registry_mut());
    log.push(S::record(point, &outcome));
    log
}

#[test]
fn e10_run_log_matches_golden() {
    assert_matches_golden(&run_log_for(&e10_steady_state()), "E10.json");
}

#[test]
fn e10_streamed_jsonl_chunks_match_golden() {
    let log = run_log_for(&e10_steady_state());
    let dir = std::env::temp_dir().join(format!("dms_golden_jsonl_{}", std::process::id()));
    let mut writer = RunLogWriter::create(&dir)
        .expect("create run-log dir")
        .with_chunk_records(2);
    for (key, value) in log.meta_entries() {
        writer.set_meta(key, value);
    }
    for record in log.records() {
        writer.record(record).expect("write record");
    }
    writer.finish(log.registry()).expect("close run-log");
    let reader = RunLogReader::open(&dir).expect("open run-log dir");
    let mut chunks = String::new();
    for name in reader.chunk_files() {
        chunks.push_str(&std::fs::read_to_string(dir.join(name)).expect("read chunk"));
    }
    // Rotation must actually be on the golden path (3 records, 2 per
    // chunk), and the writer must have closed cleanly.
    assert!(reader.chunk_files().len() > 1, "golden must span chunks");
    assert!(matches!(
        reader.for_each_record(|_| {}).expect("records parse"),
        TailState::Clean
    ));
    std::fs::remove_dir_all(&dir).ok();
    assert_bytes_match_golden(&chunks, "E10.jsonl");
}

#[test]
fn e12_overloaded_server_point_matches_golden() {
    let point = E12Point {
        load: 1.2,
        self_similar: true,
        arm: E12Arm::Controlled,
    };
    let log = point_log::<E12ServerLoad>(&point, point.label());
    assert_matches_golden(&log, "E12_selfsim-1.2x-controlled.json");
}

#[test]
fn e13_crash_recovery_point_matches_golden() {
    let point = E13Point {
        intensity: E13Intensity::Crash,
        arm: E12Arm::Controlled,
    };
    let log = point_log::<E13Resilience>(&point, point.label());
    assert_matches_golden(&log, "E13_crash-controlled.json");
}

#[test]
fn e14_cluster_point_matches_golden() {
    let point = E14Point {
        shards: 2,
        load: 0.7,
        balancer: BalancerPolicy::JoinShortestQueue,
        crash: true,
    };
    let log = point_log::<E14ScaleOut>(&point, point.label());
    assert_matches_golden(&log, "E14_n2_jsq_crash.json");
}

#[test]
fn e16_tiered_point_matches_golden() {
    let point = E16Point {
        arm: E16Arm::Tiered,
        load: 0.6,
    };
    let report = E16GeoTiered::run(&point);
    let mut log = RunLog::new();
    log.set_meta("experiment", "E16");
    log.set_meta("point", point.label());
    report.export(log.registry_mut(), &format!("e16/{}", point.label()));
    log.push(
        RunRecord::new("e16-point")
            .with("label", point.label())
            .with("offered", report.offered())
            .with("edge_hits", report.edge_hits())
            .with("origin_fetches", report.origin_fetches())
            .with("origin_rejected", report.origin_rejected())
            .with("hit_ratio", report.hit_ratio())
            .with("origin_load", report.origin_load())
            .with("delivered_utility", report.delivered_utility())
            .with("energy_j_per_bit", report.energy_per_bit()),
    );
    assert_matches_golden(&log, "E16_tiered_0.6.json");
}

#[test]
fn e17_diurnal_adaptive_point_matches_golden() {
    let point = E17Point {
        regime: E17Regime::Diurnal,
        arm: E17Arm::Adaptive,
    };
    let outcome = E17AdaptiveFleet::run(&point);
    let control = outcome.control.as_ref().expect("adaptive control trace");
    let mut log = RunLog::new();
    log.set_meta("experiment", "E17");
    log.set_meta("point", point.label());
    dms_cluster::AdaptiveReport {
        cluster: outcome.cluster.clone(),
        control: control.clone(),
    }
    .export(log.registry_mut(), &format!("e17/{}", point.label()));
    log.push(
        RunRecord::new("e17-point")
            .with("label", point.label())
            .with("offered", outcome.cluster.offered())
            .with("admitted", outcome.cluster.admitted())
            .with("rejected", outcome.cluster.rejected())
            .with("utility_sum", outcome.cluster.utility_sum())
            .with("shard_slots", outcome.shard_slots())
            .with("utility_per_shard_hour", outcome.utility_per_shard_hour())
            .with(
                "scale_ups",
                control.scale_events.iter().filter(|e| e.up).count() as u64,
            )
            .with(
                "scale_ins",
                control.scale_events.iter().filter(|e| !e.up).count() as u64,
            ),
    );
    assert_matches_golden(&log, "E17_diurnal_adaptive.json");
}

/// The loopback soak's config and trace scaled down to a 20-session
/// link, 10-slot holding times and 150 slots, so the run-log stays a
/// few hundred lines. Offers injected one slot at a time drain after
/// the departures already due in their slot: the driver admits 240 of
/// the 346 offers, where a batch run of the same trace admits 225.
#[test]
fn driver_run_log_matches_golden() {
    let mut template = SessionTemplate::streaming_default().expect("preset valid");
    template.mean_duration_slots = 10.0;
    let capacity = CapacityModel {
        link_bits_per_slot: 20 * template.full_bits(),
        queue_frames: 64,
        occupancy_bound: 8.0,
    };
    let rate = rate_for_load(SOAK_LOAD, &template, capacity.link_bits_per_slot);
    let workload = Workload::generate(ArrivalProcess::Poisson { rate }, template, 150, SOAK_SEED)
        .expect("valid workload");
    let config = ServerConfig {
        capacity,
        policy: AdmissionPolicy::QueuePredictor,
        degrade: Some(DegradeConfig::default()),
        buffer_slots: 4,
        miss_slots: 2,
    };
    let (log, report) = drive_direct(
        soak_driver(&config, &workload),
        SOAK_SEED,
        &workload.sessions,
    )
    .expect("trace is protocol-clean");
    assert!(
        report.admitted > 0 && report.rejected > 0,
        "both verdicts occur"
    );
    assert_bytes_match_golden(&log, "driver_soak.runlog");
}
