//! Property-based tests for the DES kernel and statistics.

use dms_sim::{Engine, EventQueue, Model, OnlineStats, ParRunner, SimRng, SimTime};
use proptest::prelude::*;

/// One step of an arbitrary schedule driven against the queue and its
/// model: schedule at a (possibly huge) time, pop the earliest event,
/// or pop bounded by a horizon.
#[derive(Debug, Clone)]
enum QueueOp {
    Schedule(u64),
    Pop,
    PopAtOrBefore(u64),
}

/// Times mixing dense small values (lots of FIFO ties) with sparse
/// huge ones across the full u64 range. Repeated entries stand in for
/// weights, which the vendored `prop_oneof` lacks.
fn queue_time() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..64, 0u64..64, 0u64..100_000, 0u64..=u64::MAX]
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        queue_time().prop_map(QueueOp::Schedule),
        queue_time().prop_map(QueueOp::Schedule),
        Just(QueueOp::Pop),
        queue_time().prop_map(QueueOp::PopAtOrBefore),
    ]
}

/// A model that records the order in which payloads arrive.
struct Recorder {
    seen: Vec<(u64, u32)>,
}

impl Model for Recorder {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, _q: &mut EventQueue<u32>) {
        self.seen.push((now.ticks(), ev));
    }
}

proptest! {
    /// Events always fire in non-decreasing time order, and equal-time
    /// events fire in insertion order.
    #[test]
    fn event_order_is_time_then_fifo(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut engine = Engine::new(Recorder { seen: vec![] });
        for (i, &t) in times.iter().enumerate() {
            engine.queue_mut().schedule(SimTime::from_ticks(t), i as u32);
        }
        engine.run_to_completion();
        let seen = &engine.into_model().seen;
        prop_assert_eq!(seen.len(), times.len());
        for w in seen.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at t = {}", w[0].0);
            }
        }
    }

    /// Welford statistics match the naive two-pass computation.
    #[test]
    fn online_stats_match_naive(data in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
        let stats: OnlineStats = data.iter().copied().collect();
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((stats.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((stats.variance() - var).abs() <= 1e-5 * var.abs().max(1.0));
    }

    /// The event queue against a sorted-`Vec` model of
    /// `(time, seq, payload)`: driven by an arbitrary interleaving of
    /// schedules and pops (dense ties, full-range u64 times and pops
    /// bounded by horizons), the queue pops exactly the model's front
    /// entry every time.
    #[test]
    fn queue_pop_order_matches_sorted_model(
        ops in proptest::collection::vec(queue_op(), 1..300),
    ) {
        let mut queue = EventQueue::new();
        // Kept sorted by `(time, seq)`; the front is the next pop.
        let mut model: Vec<(SimTime, u64, u32)> = Vec::new();
        let mut next_seq = 0u64;
        for op in ops {
            let (popped, expected) = match op {
                QueueOp::Schedule(t) => {
                    let entry = (SimTime::from_ticks(t), next_seq, next_seq as u32);
                    queue.schedule(entry.0, entry.2);
                    let at = model.partition_point(|e| (e.0, e.1) < (entry.0, entry.1));
                    model.insert(at, entry);
                    next_seq += 1;
                    (None, None)
                }
                QueueOp::Pop => {
                    let expected = (!model.is_empty()).then(|| model.remove(0));
                    (queue.pop(), expected)
                }
                QueueOp::PopAtOrBefore(horizon) => {
                    let horizon = SimTime::from_ticks(horizon);
                    let due = model.first().is_some_and(|e| e.0 <= horizon);
                    let expected = due.then(|| model.remove(0));
                    (queue.pop_at_or_before(horizon), expected)
                }
            };
            prop_assert_eq!(popped.map(|e| (e.time, e.seq, e.payload)), expected);
        }
        // Drain to the end: the tail must agree too.
        for entry in model {
            let ev = queue.pop().expect("model entry pending");
            prop_assert_eq!((ev.time, ev.seq, ev.payload), entry);
        }
        prop_assert!(queue.pop().is_none());
    }

    /// The determinism contract of the parallel layer: for any job count
    /// and seed, 1-, 2- and 8-thread runners produce the identical
    /// merged output (bit-for-bit, including job order).
    #[test]
    fn par_runner_output_is_thread_count_invariant(
        jobs in 0usize..40,
        seed in 0u64..1000,
    ) {
        // A replication-shaped job: seeded sub-stream RNG driving a
        // short random walk, returning floats whose exact bits matter.
        let job = |id: usize| -> Vec<f64> {
            let mut rng = SimRng::new(seed).substream("prop-par", id as u64);
            let len = 1 + id % 7;
            (0..len).map(|_| rng.normal(0.0, 1.0)).collect()
        };
        let seq = ParRunner::with_threads(1).run(jobs, job);
        let par2 = ParRunner::with_threads(2).run(jobs, job);
        let par8 = ParRunner::with_threads(8).run(jobs, job);
        prop_assert_eq!(&seq, &par2, "2 threads diverged from sequential");
        prop_assert_eq!(&seq, &par8, "8 threads diverged from sequential");
    }
}
