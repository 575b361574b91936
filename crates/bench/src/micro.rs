//! Micro-benchmarks for two hot kernels of the million-session engine:
//! the per-slot multiplexer pass (arena engine vs the seed reference
//! engine) and admission decisions (direct M/M/1/K evaluation vs the
//! memo's admission frontier).
//!
//! Each function runs both sides of one comparison on identical
//! seeded input and returns the wall-clock timings; `bench_smoke`
//! prints both comparisons and folds them into
//! `BENCH_experiments.json`. The *outputs* of the timed kernels are
//! deterministic — only the seconds vary run to run.

use std::time::Instant;

use dms_serve::{
    AdmissionController, AdmissionMemo, AdmissionPolicy, CapacityModel, ReferenceServerSim,
    ServerConfig, ServerSim, SessionRequest, SessionTemplate, Workload,
};

/// One timed kernel run: a label, how many operations it performed,
/// and how long they took.
#[derive(Debug, Clone)]
pub struct MicroTiming {
    /// Kernel label, stable across runs (keys the JSON output).
    pub name: &'static str,
    /// Operations performed (session-slots multiplexed, admission
    /// decisions taken).
    pub ops: u64,
    /// Wall-clock seconds for all `ops`.
    pub seconds: f64,
}

impl MicroTiming {
    /// Throughput in operations per second.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.seconds.max(1e-12)
    }

    /// Prints the timing as one aligned table line.
    pub fn print(&self) {
        println!(
            "{:<28} {:>12} ops  {:9.4} s  {:>14.0} ops/s",
            self.name,
            self.ops,
            self.seconds,
            self.ops_per_sec()
        );
    }
}

fn timed(name: &'static str, ops: u64, f: impl FnOnce()) -> MicroTiming {
    let start = Instant::now();
    f();
    MicroTiming {
        name,
        ops,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// The dense multiplexer workload: every session arrives at slot 0
/// and stays for the whole horizon, so each slot is one full
/// water-filling pass over all `sessions`.
fn multiplexer_workload(sessions: u64, slots: u64) -> Workload {
    let template = SessionTemplate::streaming_default().expect("preset valid");
    Workload {
        sessions: (0..sessions)
            .map(|id| SessionRequest {
                id,
                arrival_slot: 0,
                duration_slots: slots,
            })
            .collect(),
        template,
        slots,
    }
}

/// Times the per-slot multiplexer pass — `sessions` admit-all
/// sessions water-filled over an undersized link for 64 slots — on
/// the arena engine and the seed reference engine. Ops are
/// session-slots processed.
#[must_use]
pub fn multiplexer_micro(sessions: u64) -> Vec<MicroTiming> {
    const SLOTS: u64 = 64;
    let workload = multiplexer_workload(sessions, SLOTS);
    let config = ServerConfig {
        capacity: CapacityModel {
            // A tenth of full demand: every slot is contended, so the
            // water-fill runs, not the all-full shortcut.
            link_bits_per_slot: sessions * workload.template.full_bits() / 10,
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        policy: AdmissionPolicy::AdmitAll,
        degrade: None,
        buffer_slots: 4,
        miss_slots: 2,
    };
    let ops = sessions * SLOTS;
    let arena = timed("multiplexer/arena", ops, || {
        let report = ServerSim::new(config)
            .expect("valid config")
            .run(&workload)
            .expect("runs");
        std::hint::black_box(report);
    });
    let reference = timed("multiplexer/reference", ops, || {
        let report = ReferenceServerSim::new(config)
            .expect("valid config")
            .run(&workload)
            .expect("runs");
        std::hint::black_box(report);
    });
    vec![arena, reference]
}

/// Frame size the admission micro-benchmark's sessions demand, bits.
const ADMISSION_FRAME_BITS: u64 = 1_000;

/// The admission controller both sides of [`admission_micro`] query:
/// a 1000-session link, K 64, bound 8.
fn admission_controller() -> AdmissionController {
    AdmissionController::new(
        CapacityModel {
            link_bits_per_slot: 1_000 * ADMISSION_FRAME_BITS,
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        AdmissionPolicy::QueuePredictor,
        ADMISSION_FRAME_BITS,
    )
    .expect("valid config")
}

/// The admission queries a serving engine makes over `decisions`
/// arrivals, as `(effective capacity, live sessions)` pairs. Each
/// arrival joins while the predictor admits it and a session departs
/// every third arrival, so the live set climbs from 0 through the
/// admission frontier and then hovers on it. Halfway through, the
/// capacity is re-estimated to half, as under a fade: the live set
/// drains down to the new frontier and hovers there.
fn admission_sweep(ctrl: &AdmissionController, decisions: u64) -> Vec<(u64, u64)> {
    let mut ctrl = ctrl.clone();
    let link = ctrl.model().link_bits_per_slot;
    let mut live = 0u64;
    (0..decisions)
        .map(|i| {
            if i == decisions / 2 {
                ctrl.set_effective_capacity(link / 2);
            }
            let query = (ctrl.effective_capacity(), live);
            if ctrl.would_admit(live * ADMISSION_FRAME_BITS, ADMISSION_FRAME_BITS) {
                live += 1;
            }
            if i % 3 == 2 {
                live = live.saturating_sub(1);
            }
            query
        })
        .collect()
}

/// Times `decisions` admission evaluations along an engine's live set
/// (a climb from 0 through the admission frontier, a hover on it, a
/// capacity re-estimate to half and a hover on the new frontier): the
/// controller's direct M/M/1/K computation vs the [`AdmissionMemo`]
/// in front of the same controller, which the engines consult. The
/// sweep is built untimed; both sides must agree on every verdict.
#[must_use]
pub fn admission_micro(decisions: u64) -> Vec<MicroTiming> {
    let ctrl = admission_controller();
    let sweep = admission_sweep(&ctrl, decisions);
    let direct = timed("admission/direct", decisions, || {
        let mut ctrl = ctrl.clone();
        let mut admitted = 0u64;
        for &(capacity, live) in &sweep {
            ctrl.set_effective_capacity(capacity);
            if ctrl.would_admit(live * ADMISSION_FRAME_BITS, ADMISSION_FRAME_BITS) {
                admitted += 1;
            }
        }
        std::hint::black_box(admitted);
    });
    let memo = timed("admission/memo", decisions, || {
        let mut ctrl = ctrl.clone();
        let mut memo = AdmissionMemo::new();
        let mut admitted = 0u64;
        for &(capacity, live) in &sweep {
            ctrl.set_effective_capacity(capacity);
            if memo.would_admit(&ctrl, live) {
                admitted += 1;
            }
        }
        std::hint::black_box(admitted);
    });
    vec![direct, memo]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplexer_micro_reports_session_slots() {
        let timings = multiplexer_micro(256);
        assert_eq!(timings.len(), 2);
        assert_eq!(timings[0].ops, 256 * 64);
    }

    #[test]
    fn admission_micro_sides_agree() {
        // The timing wrappers discard the verdicts; re-check the whole
        // sweep here so "memoised" stays "same answers, fewer
        // evaluations". The sweep must cross the frontier at both
        // capacities: admissions and refusals at each.
        let mut ctrl = admission_controller();
        let sweep = admission_sweep(&ctrl, 8_192);
        let mut memo = AdmissionMemo::new();
        let mut verdicts = std::collections::BTreeMap::new();
        for &(capacity, live) in &sweep {
            ctrl.set_effective_capacity(capacity);
            let direct = ctrl.would_admit(live * ADMISSION_FRAME_BITS, ADMISSION_FRAME_BITS);
            assert_eq!(
                memo.would_admit(&ctrl, live),
                direct,
                "{live} at {capacity}"
            );
            *verdicts.entry((capacity, direct)).or_insert(0u64) += 1;
        }
        assert_eq!(verdicts.len(), 4, "{verdicts:?}");
        assert_eq!(admission_micro(1_024).len(), 2);
    }
}
