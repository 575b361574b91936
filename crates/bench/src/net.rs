//! The loopback soak behind the `netserve` / `loadgen` bins and the
//! `net_loopback_perf` timing in `bench_smoke`.
//!
//! One builder ([`soak_setup`]) produces the exact same server config
//! and E12-style Poisson workload for every consumer — the socket
//! server, the socket client, and the direct-injection arm — so the
//! only thing that can differ between their run-log directories is the
//! transport. At the default load the trace carries ≥10⁴ sessions over
//! 700 slots, the acceptance bar of the soak.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dms_net::{
    drive_direct, run_loadgen, serve_connection, DriverConfig, LoadgenReport, NetConnection,
    NetError, SessionDriver,
};
use dms_serve::{
    rate_for_load, AdmissionPolicy, ArrivalProcess, CapacityModel, DegradeConfig, ServerConfig,
    SessionTemplate, Workload,
};
use dms_sim::{RunLogReader, RunLogScan, RunLogWriter};

/// Slots the soak simulates (the E12 horizon).
pub const SOAK_SLOTS: u64 = 700;
/// Offered load of the soak trace, ×link capacity. 1.2 ⇒ ~11 000
/// sessions: overload enough that both verdicts appear, and past the
/// 10⁴-session bar.
pub const SOAK_LOAD: f64 = 1.2;
/// Default workload seed (`--seed` overrides in the bins).
pub const SOAK_SEED: u64 = 2026;

/// The soak's server config and workload — E12's controlled arm
/// (queue-predictor admission + FGS degradation) at [`SOAK_LOAD`].
///
/// Every run-log consumer must build from here: byte-comparison is
/// only meaningful when both sides saw the same trace.
#[must_use]
pub fn soak_setup(seed: u64) -> (ServerConfig, Workload) {
    let mut template = SessionTemplate::streaming_default().expect("preset valid");
    template.mean_duration_slots = 150.0;
    let capacity = CapacityModel {
        link_bits_per_slot: 2_000 * template.full_bits(),
        queue_frames: 64,
        occupancy_bound: 8.0,
    };
    let rate = rate_for_load(SOAK_LOAD, &template, capacity.link_bits_per_slot);
    let workload = Workload::generate(ArrivalProcess::Poisson { rate }, template, SOAK_SLOTS, seed)
        .expect("valid workload");
    let config = ServerConfig {
        capacity,
        policy: AdmissionPolicy::QueuePredictor,
        degrade: Some(DegradeConfig::default()),
        buffer_slots: 4,
        miss_slots: 2,
    };
    (config, workload)
}

/// A fresh driver over the soak config, streaming its run-log into
/// the directory `runlog` when one is given.
///
/// # Errors
///
/// Any I/O error creating the run-log directory.
pub fn soak_driver(
    config: &ServerConfig,
    workload: &Workload,
    runlog: Option<&Path>,
) -> io::Result<SessionDriver> {
    let mut driver = SessionDriver::new(
        config,
        workload.template,
        workload.slots,
        DriverConfig::default(),
    )
    .expect("valid soak config");
    if let Some(dir) = runlog {
        driver.attach_run_log(RunLogWriter::create(dir)?);
    }
    Ok(driver)
}

/// The direct-injection arm: same trace, no socket. Its run-log, when
/// `runlog` names a directory, is the one the socket arms must match
/// under `diff -r`.
///
/// # Errors
///
/// Run-log I/O errors; the soak trace itself is protocol-clean.
pub fn soak_direct(seed: u64, runlog: Option<&Path>) -> Result<LoadgenReport, NetError> {
    let (config, workload) = soak_setup(seed);
    let driver = soak_driver(&config, &workload, runlog)?;
    drive_direct(driver, seed, &workload.sessions)
}

/// A per-process temp directory for one soak run-log.
fn temp_log_dir(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("dms-soak-{tag}-{seed}-{}", std::process::id()))
}

/// Reads a run-log directory back whole, then removes it.
fn take_log(dir: &Path) -> RunLogScan {
    let scan = RunLogReader::open(dir)
        .and_then(|r| r.read_all())
        .expect("soak run-log reads back");
    std::fs::remove_dir_all(dir).expect("remove soak run-log");
    scan
}

/// Timing of one in-process loopback soak.
#[derive(Debug, Clone, Copy)]
pub struct NetLoopbackTiming {
    /// Sessions offered over the socket.
    pub sessions: u64,
    /// Frames that crossed the socketpair, both directions (hello,
    /// offers, verdicts, shutdown and acks).
    pub frames: u64,
    /// Wall-clock seconds for the whole session.
    pub seconds: f64,
    /// Frames per second through codec + socketpair + engine.
    pub frames_per_sec: f64,
}

/// Runs the full soak over an in-process socketpair and times it:
/// `netserve` ⇄ `loadgen` without processes, the number `bench_smoke`
/// records as `net_loopback_perf`. Both arms stream their run-logs
/// into temp directories; panics if the socket run-log diverges from
/// the direct arm — a perf number for a wrong answer is worse than no
/// number.
#[must_use]
pub fn net_loopback_perf(seed: u64) -> NetLoopbackTiming {
    let (config, workload) = soak_setup(seed);
    let direct_dir = temp_log_dir("direct", seed);
    soak_direct(seed, Some(&direct_dir)).expect("soak trace is protocol-clean");
    let direct_log = take_log(&direct_dir);

    let socket_dir = temp_log_dir("socket", seed);
    let mut driver = soak_driver(&config, &workload, Some(&socket_dir)).expect("run-log dir");
    let (mut server_conn, mut client_conn) = NetConnection::pair().expect("socketpair");
    let start = Instant::now();
    let server = std::thread::spawn(move || {
        serve_connection(&mut server_conn, &mut driver).expect("serves");
    });
    let report = run_loadgen(
        &mut client_conn,
        seed,
        workload.slots,
        &workload.sessions,
        None,
    )
    .expect("loadgen runs");
    server.join().expect("server thread");
    let seconds = start.elapsed().as_secs_f64();

    assert_eq!(
        take_log(&socket_dir),
        direct_log,
        "loopback run-log diverged from direct injection"
    );
    // client→server: hello + offers + shutdown; server→client: hello
    // ack + verdicts + shutdown ack.
    let frames = (2 + report.offered) + (2 + report.admitted + report.rejected);
    NetLoopbackTiming {
        sessions: report.offered,
        frames,
        seconds,
        frames_per_sec: frames as f64 / seconds.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_trace_clears_the_ten_thousand_session_bar() {
        let (_, workload) = soak_setup(SOAK_SEED);
        assert!(
            workload.sessions.len() >= 10_000,
            "soak must offer >= 10^4 sessions, got {}",
            workload.sessions.len()
        );
        assert_eq!(workload.slots, SOAK_SLOTS);
    }

    #[test]
    fn direct_arm_is_reproducible() {
        let [a, b] = ["a", "b"].map(|tag| {
            let dir = temp_log_dir(tag, 7);
            soak_direct(7, Some(&dir)).expect("soak trace is protocol-clean");
            take_log(&dir)
        });
        assert!(a.clean_close && a.records.len() > 10_000);
        assert_eq!(a, b);
    }
}
