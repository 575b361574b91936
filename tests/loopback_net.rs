//! The loopback soak, test-suite edition: the full ≥10⁴-session
//! E12-style trace replayed over an in-process socketpair into the
//! lockstep server driver, its run-log directory compared against
//! direct injection's — under both `DMS_THREADS` settings.
//!
//! A single-server session has no `ParRunner` inside it, so the
//! thread knob *shouldn't* matter; this test is what turns "shouldn't"
//! into a regression guard. (CI additionally runs the comparison as
//! real `netserve` / `loadgen` processes over a Unix socket, with
//! `diff -r` over the two directories.)

use std::path::{Path, PathBuf};
use std::thread;

use dms_bench::net::{net_loopback_perf, soak_direct, soak_driver, soak_setup, SOAK_SEED};
use dms_net::{run_loadgen, serve_connection, NetConnection};
use dms_sim::{RunLogReader, RunLogScan};

fn log_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dms-loopback-net-{tag}-{}", std::process::id()))
}

/// Reads a run-log directory back whole, then removes it.
fn take_log(dir: &Path) -> RunLogScan {
    let scan = RunLogReader::open(dir)
        .and_then(|r| r.read_all())
        .expect("run-log reads back");
    std::fs::remove_dir_all(dir).expect("cleanup");
    scan
}

/// One full socket soak; returns the server-side run-log.
fn socket_soak(seed: u64, tag: &str) -> RunLogScan {
    let (config, workload) = soak_setup(seed);
    let dir = log_dir(tag);
    let mut driver = soak_driver(&config, &workload, Some(&dir)).expect("run-log dir");
    let (mut server_conn, mut client_conn) = NetConnection::pair().expect("socketpair");
    let server = thread::spawn(move || {
        serve_connection(&mut server_conn, &mut driver).expect("serves");
    });
    run_loadgen(
        &mut client_conn,
        seed,
        workload.slots,
        &workload.sessions,
        None,
    )
    .expect("loadgen runs");
    server.join().expect("server thread");
    take_log(&dir)
}

#[test]
fn ten_thousand_sessions_over_sockets_match_direct_injection() {
    let (_, workload) = soak_setup(SOAK_SEED);
    assert!(
        workload.sessions.len() >= 10_000,
        "soak trace must carry >= 10^4 sessions, got {}",
        workload.sessions.len()
    );

    let dir = log_dir("direct");
    let direct_report = soak_direct(SOAK_SEED, Some(&dir)).expect("protocol-clean");
    let direct_log = take_log(&dir);
    assert!(direct_log.clean_close, "direct run-log closed cleanly");
    // Both verdicts must actually occur, or the comparison is hollow.
    assert!(direct_report.admitted > 0 && direct_report.rejected > 0);

    // The DMS_THREADS axis: the env var is process-global, so the two
    // settings run sequentially in this one test rather than as
    // parallel #[test]s racing the environment.
    for threads in ["1", "4"] {
        std::env::set_var("DMS_THREADS", threads);
        let socket_log = socket_soak(SOAK_SEED, &format!("socket-t{threads}"));
        assert_eq!(
            socket_log, direct_log,
            "socket run-log diverged from direct injection at DMS_THREADS={threads}"
        );
    }
    std::env::remove_var("DMS_THREADS");
}

#[test]
fn loopback_perf_harness_agrees_with_itself() {
    // The bench helper asserts socket ≡ direct internally; run it
    // once here so the suite catches a divergence even if nobody runs
    // bench_smoke, and sanity-check the counters it reports.
    let timing = net_loopback_perf(SOAK_SEED + 1);
    assert!(timing.sessions >= 10_000);
    assert!(timing.frames > timing.sessions);
    assert!(timing.seconds > 0.0);
}
