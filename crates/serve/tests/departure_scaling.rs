//! Regression guard for departure cost: k departures landing in one
//! slot must cost O(k + n), not O(k·n).
//!
//! The seed engine freed sessions with `Vec::retain`, an O(n) scan per
//! departure — 10^5 sessions leaving in the same slot was ~10^10 probe
//! operations, minutes of wall time even in release builds. The arena
//! ends each departure in O(1): while the engine is settled it frees
//! the slot at once, and otherwise the departure leaves a stale
//! `order` entry that one linear pass sweeps before the next walk of
//! the live set. So the same burst costs O(k + n). The wall-time bound
//! here is deliberately generous (debug builds, shared CI runners);
//! the old quadratic path misses it by orders of magnitude.

use std::time::{Duration, Instant};

use dms_serve::{
    AdmissionPolicy, CapacityModel, ServerConfig, ServerSim, SessionRequest, SessionTemplate,
    Workload,
};

#[test]
fn mass_departure_slot_is_linear() {
    const N: u64 = 100_000;
    let template = SessionTemplate::streaming_default().expect("preset valid");
    // Every session arrives at slot 0 and departs at slot 1: the
    // worst case the retain-based engine had, k = n in one slot.
    let sessions: Vec<SessionRequest> = (0..N)
        .map(|id| SessionRequest {
            id,
            arrival_slot: 0,
            duration_slots: 1,
        })
        .collect();
    let workload = Workload {
        sessions,
        template,
        slots: 4,
    };
    let server = ServerSim::new(ServerConfig {
        capacity: CapacityModel {
            link_bits_per_slot: 10 * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        policy: AdmissionPolicy::AdmitAll,
        degrade: None,
        buffer_slots: 4,
        miss_slots: 2,
    })
    .expect("valid config");

    let start = Instant::now();
    let report = server.run(&workload).expect("runs");
    let elapsed = start.elapsed();

    assert_eq!(report.admitted, N, "admit-all must admit everyone");
    assert_eq!(report.offered, N);
    assert!(
        elapsed < Duration::from_secs(30),
        "mass-departure slot took {elapsed:?}; the engine has gone super-linear"
    );
}
