//! Micro-benchmarks for the three hot kernels of the million-session
//! engine: event scheduling (timing wheel vs the seed binary heap),
//! the per-slot multiplexer pass (arena engine vs the seed reference
//! engine), and admission decisions (direct M/M/1/K evaluation vs the
//! count-keyed memo).
//!
//! Each function runs both sides of one comparison on identical
//! seeded input and returns the wall-clock timings; `bench_smoke`
//! prints all three comparisons and folds them into
//! `BENCH_experiments.json`. The *outputs* of the timed kernels are
//! deterministic — only the seconds vary run to run.

use std::time::Instant;

use dms_serve::{
    AdmissionController, AdmissionMemo, AdmissionPolicy, CapacityModel, ReferenceServerSim,
    ServerConfig, ServerSim, SessionRequest, SessionTemplate, Workload,
};
use dms_sim::{EventQueue, HeapEventQueue, SimRng, SimTime};

/// One timed kernel run: a label, how many operations it performed,
/// and how long they took.
#[derive(Debug, Clone)]
pub struct MicroTiming {
    /// Kernel label, stable across runs (keys the JSON output).
    pub name: &'static str,
    /// Operations performed (events scheduled+popped, session-slots
    /// multiplexed, admission decisions taken).
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

/// One schedule/pop regime of the event-queue comparison: `per_slot`
/// events scheduled per slot advance, offsets 0..256 slots ahead, so
/// the steady-state live set is ~`per_slot · 128` events.
fn event_queue_regime(
    names: (&'static str, &'static str),
    events: u64,
    per_slot: u64,
) -> Vec<MicroTiming> {
    let offsets: Vec<u64> = {
        let mut rng = SimRng::new(42).substream("micro-eq", per_slot);
        (0..events).map(|_| rng.below(256) as u64).collect()
    };
    // Interleave schedule and pop so both queues hold a steady live
    // set, like the simulators do, instead of one giant bulk load.
    let wheel = timed(names.0, events, || {
        let mut queue: EventQueue<u32> = EventQueue::with_capacity(1024);
        let mut now = 0u64;
        let mut popped = 0u64;
        for (i, &off) in offsets.iter().enumerate() {
            queue.schedule(SimTime::from_ticks(now + off), i as u32);
            if (i as u64 + 1).is_multiple_of(per_slot) {
                now += 1;
                while let Some(ev) = queue.pop_at_or_before(SimTime::from_ticks(now)) {
                    popped = popped.wrapping_add(u64::from(ev.payload));
                }
            }
        }
        while let Some(ev) = queue.pop() {
            popped = popped.wrapping_add(u64::from(ev.payload));
        }
        std::hint::black_box(popped);
    });
    let heap = timed(names.1, events, || {
        let mut queue: HeapEventQueue<u32> = HeapEventQueue::with_capacity(1024);
        let mut now = 0u64;
        let mut popped = 0u64;
        for (i, &off) in offsets.iter().enumerate() {
            queue.schedule(SimTime::from_ticks(now + off), i as u32);
            if (i as u64 + 1).is_multiple_of(per_slot) {
                now += 1;
                while let Some(ev) = queue.pop_at_or_before(SimTime::from_ticks(now)) {
                    popped = popped.wrapping_add(u64::from(ev.payload));
                }
            }
        }
        while let Some(ev) = queue.pop() {
            popped = popped.wrapping_add(u64::from(ev.payload));
        }
        std::hint::black_box(popped);
    });
    vec![wheel, heap]
}

/// Times `events` schedule+pop cycles through the timing-wheel
/// [`EventQueue`] and the seed [`HeapEventQueue`] on identical
/// arrival patterns in two regimes: a *small* live set (16 events per
/// slot, ~2k live — E12-sized, where the heap fits in cache) and the
/// *mega* live set (2048 per slot, ~256k live — the E15 regime the
/// wheel exists for, where every heap sift walks cold memory). Both
/// queues must drain the same number of events.
#[must_use]
pub fn event_queue_micro(events: u64) -> Vec<MicroTiming> {
    let mut timings = event_queue_regime(
        ("event_queue_small/wheel", "event_queue_small/heap"),
        events,
        16,
    );
    timings.extend(event_queue_regime(
        ("event_queue_mega/wheel", "event_queue_mega/heap"),
        events,
        2_048,
    ));
    timings
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
            // sort + water-fill path runs, not the all-full shortcut.
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

/// Times `decisions` admission evaluations at cycling session counts:
/// the controller's direct M/M/1/K computation vs the count-keyed
/// [`AdmissionMemo`] in front of the same controller (the per-slot
/// batching the engines use). Both sides must agree on every verdict.
#[must_use]
pub fn admission_micro(decisions: u64) -> Vec<MicroTiming> {
    let frame = 1_000u64;
    let ctrl = AdmissionController::new(
        CapacityModel {
            link_bits_per_slot: 1_000 * frame,
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        AdmissionPolicy::QueuePredictor,
        frame,
    )
    .expect("valid config");
    // Counts sweep 0..2000 — half inside the admit region, half out —
    // so the memo sees the full decision surface, not one cached bit.
    let direct = timed("admission/direct", decisions, || {
        let mut admitted = 0u64;
        for i in 0..decisions {
            let count = i % 2_000;
            if ctrl.would_admit(count * frame, frame) {
                admitted += 1;
            }
        }
        std::hint::black_box(admitted);
    });
    let memo = timed("admission/memo", decisions, || {
        let mut memo = AdmissionMemo::new();
        let mut admitted = 0u64;
        for i in 0..decisions {
            let count = i % 2_000;
            if memo.would_admit(&ctrl, count) {
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
    fn event_queue_micro_times_both_regimes() {
        let timings = event_queue_micro(4_096);
        let names: Vec<&str> = timings.iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            [
                "event_queue_small/wheel",
                "event_queue_small/heap",
                "event_queue_mega/wheel",
                "event_queue_mega/heap",
            ]
        );
        for t in &timings {
            assert_eq!(t.ops, 4_096);
            assert!(t.seconds >= 0.0 && t.ops_per_sec() > 0.0);
        }
    }

    #[test]
    fn multiplexer_micro_reports_session_slots() {
        let timings = multiplexer_micro(256);
        assert_eq!(timings.len(), 2);
        assert_eq!(timings[0].ops, 256 * 64);
    }

    #[test]
    fn admission_micro_sides_agree() {
        // The timing wrappers discard the verdicts; re-check a slice
        // of the decision surface here so "memoised" stays "same
        // answers, fewer evaluations".
        let frame = 1_000u64;
        let ctrl = AdmissionController::new(
            CapacityModel {
                link_bits_per_slot: 1_000 * frame,
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            AdmissionPolicy::QueuePredictor,
            frame,
        )
        .expect("valid config");
        let mut memo = AdmissionMemo::new();
        for count in 0..2_000 {
            assert_eq!(
                memo.would_admit(&ctrl, count),
                ctrl.would_admit(count * frame, frame),
                "count {count}"
            );
        }
        assert_eq!(admission_micro(1_024).len(), 2);
    }
}
