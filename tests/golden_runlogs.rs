//! Golden run-log snapshots: byte-exact guards over seven run-log
//! directories, each in the one on-disk format (`dms-runlog/1`:
//! `meta.json`, `chunk-*.jsonl`, `metrics.json`, `MANIFEST.json`)
//! and compared file by file.
//!
//! The CI determinism steps already prove each log is identical across
//! `DMS_THREADS` *within one build*; these tests pin the bytes across
//! *commits*. Any change to experiment constants, the metrics schema,
//! the JSON renderer, or the simulators' arithmetic shows up as a
//! golden diff that has to be re-blessed deliberately:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test --test golden_runlogs
//! git status --porcelain tests/golden/
//! ```
//!
//! With `GOLDEN_REGEN` set each test writes its directory in place,
//! and the writer clears the chunks a previous run left there. The
//! seven snapshots, chosen for coverage-per-byte:
//!
//! * `E10/` — the steady-state experiment's full run-log, the oldest
//!   table in the suite (analysis + simulation agreement), written two
//!   records per chunk so chunk rotation is on the golden path; a
//!   second test reads it back against the same log streamed by
//!   `stream_run_log` in one chunk, so the chunk layout does not
//!   change what a reader sees;
//! * `E12_selfsim-1.2x-controlled/` — one E12 server point (fGn
//!   arrivals at 1.2x, predictor admission plus layer shedding), with
//!   its per-slot series: pins the memoised M/M/1/K admission path of
//!   the serving engine on an overloaded link;
//! * `E13_crash-controlled/` — one E13 point under the full fault
//!   stack with recovery, with its per-slot series: its capacity
//!   re-estimates reset the admission memo mid-run, and its retries
//!   take the re-admission predicate;
//! * `E14_n2_jsq_crash/` — a single E14 cluster point (two skewed
//!   shards, join-shortest-queue, one shard crashing mid-run):
//!   exercises the cluster dispatch ledger, fault harvesting,
//!   re-routing, and the recovery gauge end to end;
//! * `E16_tiered_0.6/` — one E16 geo-tiered point (three edge
//!   regions + shared origin at 0.6x load), pinning the Zipf cache
//!   pass, origin admission ledger, flash-crowd workload, per-class
//!   last-hop energy tables, and the nested per-region fleet export;
//! * `E17_diurnal_adaptive/` — the E17 closed-loop fleet on the
//!   diurnal regime, pinning the ambient-trace load generator, the
//!   autoscaler's scale events, the Q16 PI/UCB controller state
//!   series, and the per-slot shard-count series end to end;
//! * `driver_soak/` — the socket driver's run-log of a reduced
//!   loopback-soak trace, fed by direct injection and written by the
//!   driver itself: pins its `verdict` and `summary` records, which
//!   the soak's socket-vs-direct comparison cannot see because both
//!   sides come from one build, and the engine's within-slot order
//!   under offers injected one slot at a time.
//!
//! The experiment points (E12–E17) each go through their sweep's own
//! `export` and `record`, the code that renders each grid point of the
//! experiment's run-log.

use std::path::{Path, PathBuf};

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
use dms_sim::{stream_run_log, RunLog, RunLogReader, RunLogWriter, TailState};

fn regen() -> bool {
    std::env::var_os("GOLDEN_REGEN").is_some()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Where a test writes golden `name`: in place under `tests/golden/`
/// when `GOLDEN_REGEN` is set, else a temp directory that
/// [`assert_matches_golden`] compares and removes.
fn output_dir(name: &str) -> PathBuf {
    if regen() {
        golden_path(name)
    } else {
        std::env::temp_dir().join(format!("dms-golden-{name}-{}", std::process::id()))
    }
}

/// The sorted file names in `dir`.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|err| {
            panic!(
                "missing golden directory {} ({err}); regenerate with \
                 GOLDEN_REGEN=1 cargo test --test golden_runlogs",
                dir.display()
            )
        })
        .map(|entry| entry.expect("directory entry").file_name())
        .map(|name| name.into_string().expect("UTF-8 file name"))
        .collect();
    names.sort();
    names
}

/// Compares the run-log directory `written` file by file against
/// `tests/golden/<name>/`: the same file names, each byte-identical.
/// A no-op under `GOLDEN_REGEN`, where `written` is the golden.
fn assert_matches_golden(written: &Path, name: &str) {
    if regen() {
        return;
    }
    let golden = golden_path(name);
    assert_eq!(
        file_names(written),
        file_names(&golden),
        "run-log files diverge from {}",
        golden.display()
    );
    for file in file_names(written) {
        let ours = std::fs::read(written.join(&file)).expect("read written file");
        let theirs = std::fs::read(golden.join(&file)).expect("read golden file");
        if ours != theirs {
            let diff_at = ours
                .iter()
                .zip(&theirs)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| ours.len().min(theirs.len()));
            let line = theirs[..diff_at.min(theirs.len())]
                .iter()
                .filter(|&&b| b == b'\n')
                .count()
                + 1;
            panic!(
                "run-log bytes diverge from {}/{file} at byte {diff_at} (line {line}); \
                 if the change is intentional, re-bless with \
                 GOLDEN_REGEN=1 cargo test --test golden_runlogs and review the diff",
                golden.display()
            );
        }
    }
    std::fs::remove_dir_all(written).expect("remove written run-log");
}

/// Streams `log` and compares it against golden `name`.
fn assert_log_matches_golden(log: &RunLog, name: &str) {
    let dir = output_dir(name);
    stream_run_log(log, &dir).expect("stream run-log");
    assert_matches_golden(&dir, name);
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
    let log = run_log_for(&e10_steady_state());
    let dir = std::env::temp_dir().join(format!("dms-golden-E10-whole-{}", std::process::id()));
    let summary = stream_run_log(&log, &dir).expect("stream run-log");
    assert_eq!(summary.chunks, 1, "the default chunk holds the whole log");
    let ours = RunLogReader::open(&dir)
        .and_then(|reader| reader.read_all())
        .expect("read streamed run-log");
    std::fs::remove_dir_all(&dir).expect("remove streamed run-log");
    if regen() {
        return;
    }
    let golden = RunLogReader::open(golden_path("E10"))
        .and_then(|reader| reader.read_all())
        .expect("read golden E10/");
    assert!(
        ours.clean_close && golden.clean_close,
        "both logs close cleanly"
    );
    assert_eq!(ours, golden, "E10 run-log diverges from tests/golden/E10/");
}

#[test]
fn e10_streamed_jsonl_chunks_match_golden() {
    let log = run_log_for(&e10_steady_state());
    let dir = output_dir("E10");
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
    // Rotation must actually be on the golden path (3 records, 2 per
    // chunk), and the writer must have closed cleanly.
    let reader = RunLogReader::open(&dir).expect("open run-log dir");
    assert!(reader.chunk_files().len() > 1, "golden must span chunks");
    assert_eq!(
        reader.for_each_record(|_| {}).expect("records parse"),
        TailState::Clean
    );
    assert_matches_golden(&dir, "E10");
}

#[test]
fn e12_overloaded_server_point_matches_golden() {
    let point = E12Point {
        load: 1.2,
        self_similar: true,
        arm: E12Arm::Controlled,
    };
    let log = point_log::<E12ServerLoad>(&point, point.label());
    assert_log_matches_golden(&log, "E12_selfsim-1.2x-controlled");
}

#[test]
fn e13_crash_recovery_point_matches_golden() {
    let point = E13Point {
        intensity: E13Intensity::Crash,
        arm: E12Arm::Controlled,
    };
    let log = point_log::<E13Resilience>(&point, point.label());
    assert_log_matches_golden(&log, "E13_crash-controlled");
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
    assert_log_matches_golden(&log, "E14_n2_jsq_crash");
}

#[test]
fn e16_tiered_point_matches_golden() {
    let point = E16Point {
        arm: E16Arm::Tiered,
        load: 0.6,
    };
    let log = point_log::<E16GeoTiered>(&point, point.label());
    assert_log_matches_golden(&log, "E16_tiered_0.6");
}

#[test]
fn e17_diurnal_adaptive_point_matches_golden() {
    let point = E17Point {
        regime: E17Regime::Diurnal,
        arm: E17Arm::Adaptive,
    };
    let log = point_log::<E17AdaptiveFleet>(&point, point.label());
    assert_log_matches_golden(&log, "E17_diurnal_adaptive");
}

/// The loopback soak's config and trace scaled down to a 20-session
/// link, 10-slot holding times and 150 slots, so the run-log stays a
/// few hundred records. Offers injected one slot at a time drain after
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
    let dir = output_dir("driver_soak");
    let driver = soak_driver(&config, &workload, Some(&dir)).expect("create run-log dir");
    let report =
        drive_direct(driver, SOAK_SEED, &workload.sessions).expect("trace is protocol-clean");
    assert!(
        report.admitted > 0 && report.rejected > 0,
        "both verdicts occur"
    );
    assert_matches_golden(&dir, "driver_soak");
}
