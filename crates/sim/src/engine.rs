//! The discrete-event engine: event queue, model trait and run loop.
//!
//! [`EventQueue`] is a binary heap ordered by `(time, insertion
//! order)`. The media and core discrete-event models and the reference
//! server run on it. The serving engine keeps its events in a slot
//! calendar of its own, and the fleet endpoint keeps its retries in
//! per-slot FIFOs.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::time::SimTime;

/// An event scheduled for execution at a given time.
///
/// Events at equal times fire in insertion order (FIFO), which makes
/// simulations deterministic regardless of scheduler internals.
#[derive(Debug)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotone sequence number used as a FIFO tie-breaker.
    pub seq: u64,
    /// The model-defined payload.
    pub payload: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A pending-event set ordered by `(time, insertion order)`.
///
/// A binary min-heap on `(time, seq)`: `schedule` and `pop` are
/// O(log n) in the pending population. Pops come out in
/// non-decreasing time, FIFO within a time, and any time may be
/// scheduled at any point, including one before the last pop.
///
/// # Examples
///
/// ```
/// use dms_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ticks(5), "late");
/// q.schedule(SimTime::from_ticks(1), "early");
/// let ev = q.pop().expect("non-empty");
/// assert_eq!(ev.payload, "early");
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// Events scheduled for the same time fire in the order they were
    /// scheduled.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, payload });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `horizon`.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        let top = self.heap.peek_mut()?;
        if top.time > horizon {
            return None;
        }
        Some(PeekMut::pop(top))
    }
}

/// A simulation model: owns the system state and reacts to events.
///
/// The engine calls [`Model::handle`] once per event; the model mutates
/// its state and may schedule follow-up events on the queue it is handed.
/// See the [crate-level example](crate) for a complete model.
pub trait Model {
    /// The event payload type this model understands.
    type Event;

    /// Processes one event occurring at `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// The simulation driver: repeatedly pops the earliest event and
/// dispatches it to the model.
///
/// # Examples
///
/// See the [crate-level documentation](crate) for a runnable example.
#[derive(Debug)]
pub struct Engine<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    processed: u64,
}

impl<M: Model> Engine<M> {
    /// Creates an engine around `model` with an empty event queue and
    /// the clock at [`SimTime::ZERO`].
    pub fn new(model: M) -> Self {
        Engine {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current simulated time (the timestamp of the last processed event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Mutable access to the event queue (e.g. to seed initial events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<M::Event> {
        &mut self.queue
    }

    /// Consumes the engine and returns the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Processes a single event if one is pending.
    ///
    /// Returns `true` if an event was processed.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(ev) => {
                debug_assert!(
                    ev.time >= self.now,
                    "event queue released an event from the past"
                );
                self.now = ev.time;
                self.processed += 1;
                self.model.handle(self.now, ev.payload, &mut self.queue);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue is fully drained.
    ///
    /// Returns the number of events processed by this call. Use with
    /// models that are guaranteed to quiesce.
    pub fn run_to_completion(&mut self) -> u64 {
        let start = self.processed;
        while self.step() {}
        self.processed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, _q: &mut EventQueue<u32>) {
            self.seen.push((now.ticks(), ev));
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut eng = Engine::new(Recorder { seen: vec![] });
        eng.queue_mut().schedule(SimTime::from_ticks(30), 3);
        eng.queue_mut().schedule(SimTime::from_ticks(10), 1);
        eng.queue_mut().schedule(SimTime::from_ticks(20), 2);
        eng.run_to_completion();
        assert_eq!(eng.into_model().seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut eng = Engine::new(Recorder { seen: vec![] });
        for i in 0..100 {
            eng.queue_mut().schedule(SimTime::from_ticks(7), i);
        }
        eng.run_to_completion();
        let values: Vec<u32> = eng.into_model().seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_tracks_last_event() {
        let mut eng = Engine::new(Recorder { seen: vec![] });
        eng.queue_mut().schedule(SimTime::from_ticks(42), 0);
        eng.run_to_completion();
        assert_eq!(eng.now(), SimTime::from_ticks(42));
    }

    struct SelfScheduler {
        remaining: u32,
    }

    impl Model for SelfScheduler {
        type Event = ();
        fn handle(&mut self, now: SimTime, _ev: (), q: &mut EventQueue<()>) {
            if self.remaining > 0 {
                self.remaining -= 1;
                q.schedule(now + SimTime::from_ticks(1), ());
            }
        }
    }

    #[test]
    fn models_can_schedule_followups() {
        let mut eng = Engine::new(SelfScheduler { remaining: 5 });
        eng.queue_mut().schedule(SimTime::ZERO, ());
        let n = eng.run_to_completion();
        assert_eq!(n, 6); // initial event + 5 follow-ups
        assert_eq!(eng.now(), SimTime::from_ticks(5));
    }

    #[test]
    fn empty_queue_reports_idle() {
        let mut eng = Engine::new(Recorder { seen: vec![] });
        assert!(!eng.step());
        assert_eq!(eng.run_to_completion(), 0);
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(3), "late");
        q.schedule(SimTime::from_ticks(1), "early");
        assert!(q.pop_at_or_before(SimTime::ZERO).is_none());
        let ev = q.pop_at_or_before(SimTime::from_ticks(1)).expect("due");
        assert_eq!(ev.payload, "early");
        assert!(q.pop_at_or_before(SimTime::from_ticks(2)).is_none());
        // A rejected peek leaves the queue undisturbed.
        let ev = q.pop().expect("still pending");
        assert_eq!((ev.time, ev.payload), (SimTime::from_ticks(3), "late"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn zero_delay_followups_fire_in_fifo_order() {
        struct Chainer {
            fired: Vec<u32>,
        }
        impl Model for Chainer {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
                self.fired.push(ev);
                if ev == 1 {
                    // A zero-delay follow-up lands behind pending
                    // same-time events.
                    q.schedule(now, 3);
                }
            }
        }
        let mut eng = Engine::new(Chainer { fired: vec![] });
        eng.queue_mut().schedule(SimTime::from_ticks(4), 1);
        eng.queue_mut().schedule(SimTime::from_ticks(4), 2);
        eng.run_to_completion();
        assert_eq!(eng.now(), SimTime::from_ticks(4));
        assert_eq!(eng.into_model().fired, vec![1, 2, 3]);
    }

    /// Timestamps spread across the full u64 range, scheduled out of
    /// order, pop in exact time order.
    #[test]
    fn full_range_times_pop_in_order() {
        let mut q = EventQueue::new();
        let times = [
            u64::MAX,
            0,
            1 << 8,
            (1 << 16) + 3,
            (1 << 32) + 7,
            1 << 63,
            255,
            256,
            257,
            (1 << 24) - 1,
            1 << 24,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ticks(t), i);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push(ev.time.ticks());
        }
        assert_eq!(popped, sorted);
    }

    /// After the queue drains, an *earlier* time than anything popped
    /// before is scheduled and popped like any other.
    #[test]
    fn drained_queue_accepts_earlier_times() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(1000), "first");
        assert_eq!(q.pop().expect("due").payload, "first");
        q.schedule(SimTime::from_ticks(3), "rewound");
        let ev = q.pop().expect("due");
        assert_eq!((ev.time.ticks(), ev.payload), (3, "rewound"));
    }

    /// Scheduling behind the last pop while later events are pending
    /// still yields global (time, seq) order.
    #[test]
    fn schedule_behind_last_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(100), "a");
        q.schedule(SimTime::from_ticks(500), "b");
        assert_eq!(q.pop().expect("due").payload, "a");
        q.schedule(SimTime::from_ticks(7), "past");
        q.schedule(SimTime::from_ticks(7), "past2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["past", "past2", "b"]);
    }
}
