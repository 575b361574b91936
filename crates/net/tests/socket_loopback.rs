//! End-to-end loopback over real sockets: a server thread running
//! [`dms_net::serve_connection`] against a loadgen on the other end,
//! over both transports, checked against the transportless
//! [`dms_net::drive_direct`] arm. Each side streams its run-log into a
//! directory of its own; the two must read back equal.

use std::path::{Path, PathBuf};
use std::thread;

use dms_net::{
    connect_with_backoff, drive_direct, run_loadgen, serve_connection, DriverConfig, EndpointAddr,
    Listener, NetConnection, ReconnectPolicy, SessionDriver,
};
use dms_serve::{
    rate_for_load, AdmissionPolicy, ArrivalProcess, CapacityModel, DegradeConfig, ServerConfig,
    SessionTemplate, Workload,
};
use dms_sim::{RunLogReader, RunLogScan, RunLogWriter};

fn setup(load: f64, slots: u64, seed: u64) -> (ServerConfig, Workload) {
    let template = SessionTemplate::streaming_default().expect("preset valid");
    let cfg = ServerConfig {
        capacity: CapacityModel {
            link_bits_per_slot: 20 * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        policy: AdmissionPolicy::QueuePredictor,
        degrade: Some(DegradeConfig::default()),
        buffer_slots: 4,
        miss_slots: 2,
    };
    let rate = rate_for_load(load, &template, cfg.capacity.link_bits_per_slot);
    let workload =
        Workload::generate(ArrivalProcess::Poisson { rate }, template, slots, seed).expect("valid");
    (cfg, workload)
}

/// A driver whose run-log streams into a fresh temp directory named
/// by `tag`.
fn logged_driver(
    cfg: &ServerConfig,
    workload: &Workload,
    driver_cfg: DriverConfig,
    tag: &str,
) -> (SessionDriver, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dms-net-loopback-{tag}-{}", std::process::id()));
    let mut driver =
        SessionDriver::new(cfg, workload.template, workload.slots, driver_cfg).expect("valid");
    driver.attach_run_log(RunLogWriter::create(&dir).expect("create run-log dir"));
    (driver, dir)
}

/// Reads a run-log directory back, then removes it.
fn read_log(dir: &Path) -> RunLogScan {
    let scan = RunLogReader::open(dir)
        .and_then(|r| r.read_all())
        .expect("run-log reads back");
    std::fs::remove_dir_all(dir).expect("cleanup");
    assert!(scan.clean_close, "{} closed cleanly", dir.display());
    scan
}

/// The direct-injection arm's run-log and report.
fn direct_log(
    cfg: &ServerConfig,
    workload: &Workload,
    tag: &str,
) -> (RunLogScan, dms_net::LoadgenReport) {
    let (driver, dir) = logged_driver(cfg, workload, DriverConfig::default(), tag);
    let report = drive_direct(driver, 1, &workload.sessions).expect("direct drives");
    (read_log(&dir), report)
}

/// Runs the workload through a server on `server_conn` while the
/// caller's thread plays loadgen on `client_conn`; returns
/// (run-log, loadgen report).
fn soak_over(
    mut server_conn: NetConnection,
    mut client_conn: NetConnection,
    cfg: &ServerConfig,
    workload: &Workload,
    driver_cfg: DriverConfig,
    tag: &str,
) -> (RunLogScan, dms_net::LoadgenReport) {
    let (mut driver, dir) = logged_driver(cfg, workload, driver_cfg, tag);
    let server = thread::spawn(move || {
        serve_connection(&mut server_conn, &mut driver).expect("serves");
    });
    let report = run_loadgen(
        &mut client_conn,
        1,
        workload.slots,
        &workload.sessions,
        None,
    )
    .expect("loadgen runs");
    server.join().expect("server thread");
    (read_log(&dir), report)
}

#[test]
fn socketpair_run_is_byte_identical_to_direct_injection() {
    let (cfg, workload) = setup(1.2, 300, 5);
    let (direct_log, direct_report) = direct_log(&cfg, &workload, "pair-direct");

    let (server_conn, client_conn) = NetConnection::pair().expect("socketpair");
    let (socket_log, socket_report) = soak_over(
        server_conn,
        client_conn,
        &cfg,
        &workload,
        DriverConfig::default(),
        "pair-socket",
    );

    assert_eq!(
        socket_log, direct_log,
        "run-logs diverged across transports"
    );
    assert_eq!(socket_report, direct_report);
    assert!(direct_report.admitted + direct_report.rejected <= direct_report.offered);
}

#[test]
fn tcp_loopback_matches_direct_injection() {
    let (cfg, workload) = setup(1.0, 150, 9);
    let (direct_log, _) = direct_log(&cfg, &workload, "tcp-direct");

    let listener =
        Listener::bind(&EndpointAddr::Tcp("127.0.0.1:0".into())).expect("binds ephemeral port");
    let addr = listener.local_addr().expect("has addr");
    let accepter = thread::spawn(move || listener.accept().expect("accepts"));
    let client_conn = connect_with_backoff(&addr, &ReconnectPolicy::default()).expect("connects");
    let server_conn = accepter.join().expect("accept thread");

    let (socket_log, _) = soak_over(
        server_conn,
        client_conn,
        &cfg,
        &workload,
        DriverConfig::default(),
        "tcp-socket",
    );
    assert_eq!(socket_log, direct_log);
}

#[test]
fn unix_socket_loopback_matches_direct_injection() {
    let (cfg, workload) = setup(1.0, 150, 13);
    let (direct_log, _) = direct_log(&cfg, &workload, "unix-direct");

    let path = std::env::temp_dir().join(format!("dms-net-test-{}.sock", std::process::id()));
    let addr = EndpointAddr::Unix(path.clone());
    let listener = Listener::bind(&addr).expect("binds");
    let accepter = thread::spawn(move || listener.accept().expect("accepts"));
    let client_conn = connect_with_backoff(&addr, &ReconnectPolicy::default()).expect("connects");
    let server_conn = accepter.join().expect("accept thread");

    let (socket_log, _) = soak_over(
        server_conn,
        client_conn,
        &cfg,
        &workload,
        DriverConfig::default(),
        "unix-socket",
    );
    let _ = std::fs::remove_file(&path);
    assert_eq!(socket_log, direct_log);
}

#[test]
fn heartbeats_and_data_frames_flow_when_enabled() {
    let (cfg, workload) = setup(1.0, 100, 21);
    let driver_cfg = DriverConfig {
        heartbeat_every_slots: 10,
        emit_data: true,
    };
    let (server_conn, client_conn) = NetConnection::pair().expect("socketpair");
    let (log, report) = soak_over(
        server_conn,
        client_conn,
        &cfg,
        &workload,
        driver_cfg,
        "telemetry",
    );

    // 100 slots / heartbeat every 10 → 10 beacons; one Data per slot.
    assert_eq!(report.heartbeats, 10);
    assert_eq!(report.data_frames, 100);
    // Telemetry framing must not leak into the run-log.
    let (plain_log, _) = direct_log(&cfg, &workload, "telemetry-plain");
    assert_eq!(log, plain_log);
}
