//! Memory proportional to live sessions, not to offers: a
//! [`SessionDriver`] with a run-log attached serves N offers, then 10N
//! at the same arrival rate and holding times, so the same live set,
//! in one process. The peak resident set (`VmHWM`) may grow by less
//! than 5% from the first run to the second: the run-log streams to
//! disk through a bounded buffer, and replies are dropped as they are
//! counted.
//!
//! This file holds one test, so it runs in a process of its own and no
//! other test's allocations move the high-water mark.

use std::path::Path;

use dms_net::{DriverConfig, Frame, SessionDriver, PROTOCOL_VERSION};
use dms_serve::{AdmissionPolicy, CapacityModel, DegradeConfig, ServerConfig, SessionTemplate};
use dms_sim::{RunLogReader, RunLogWriter, TailState};

/// Offers per slot; with [`MEAN_HOLD`] the offered load is 1.2x the
/// 100-session link, so both verdicts occur.
const PER_SLOT: u64 = 12;
/// Mean holding time in slots.
const MEAN_HOLD: u64 = 10;

/// The process's peak resident set in KiB, from `/proc/self/status`.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

/// Drives `offers` offers frame by frame through a fresh driver whose
/// run-log streams into `dir`; returns the verdicts sent.
fn serve(offers: u64, dir: &Path) -> u64 {
    let template = SessionTemplate::streaming_default().expect("preset valid");
    let config = ServerConfig {
        capacity: CapacityModel {
            link_bits_per_slot: 100 * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        policy: AdmissionPolicy::QueuePredictor,
        degrade: Some(DegradeConfig::default()),
        buffer_slots: 4,
        miss_slots: 2,
    };
    let slots = offers / PER_SLOT;
    let mut driver =
        SessionDriver::new(&config, template, slots, DriverConfig::default()).expect("valid");
    driver.attach_run_log(RunLogWriter::create(dir).expect("create run-log dir"));

    let mut out = Vec::new();
    let mut verdicts = 0u64;
    let mut send = |driver: &mut SessionDriver, frame: Frame| {
        driver.on_frame(frame, &mut out).expect("protocol-clean");
        verdicts += out
            .drain(..)
            .filter(|f| matches!(f, Frame::Admit { .. } | Frame::Reject { .. }))
            .count() as u64;
    };
    send(
        &mut driver,
        Frame::Hello {
            version: PROTOCOL_VERSION,
            client_id: 1,
            slots,
        },
    );
    for id in 0..offers {
        // Holding times 1..=2*MEAN_HOLD-1, spread by a fixed odd stride.
        let duration_slots = 1 + id.wrapping_mul(7_919) % (2 * MEAN_HOLD - 1);
        let offer = Frame::Offer {
            id,
            arrival_slot: id / PER_SLOT,
            duration_slots,
        };
        send(&mut driver, offer);
    }
    send(&mut driver, Frame::Shutdown { reason: 0 });
    assert!(driver.is_done());
    verdicts
}

/// Checks that the log in `dir` closed cleanly with one record per
/// verdict plus the summary, then removes it.
fn check_log(dir: &Path, verdicts: u64) {
    let reader = RunLogReader::open(dir).expect("open run-log");
    let mut records = 0u64;
    let tail = reader
        .for_each_record(|_| records += 1)
        .expect("reads back");
    std::fs::remove_dir_all(dir).expect("cleanup");
    assert_eq!(tail, TailState::Clean);
    assert_eq!(records, verdicts + 1);
}

#[test]
fn ten_times_the_offers_at_the_same_live_set_keep_the_peak_rss() {
    const N: u64 = 30_000;
    let dir = |tag: &str| {
        std::env::temp_dir().join(format!("dms-driver-memory-{tag}-{}", std::process::id()))
    };
    let (one_dir, ten_dir) = (dir("1x"), dir("10x"));
    // Both runs drive before either log is read back, so the reader's
    // chunk buffer stays out of the two readings.
    assert_eq!(serve(N, &one_dir), N, "every offer is decided");
    let one = vm_hwm_kib();
    assert_eq!(serve(10 * N, &ten_dir), 10 * N, "every offer is decided");
    let ten = vm_hwm_kib();
    check_log(&one_dir, N);
    check_log(&ten_dir, 10 * N);
    let growth = (ten as f64 - one as f64) / one as f64;
    assert!(
        growth < 0.05,
        "VmHWM grew {:.1}% from {N} to {} offers ({one} -> {ten} KiB)",
        growth * 100.0,
        10 * N
    );
}
