//! The discrete-event engine: event queue, model trait and run loop.
//!
//! [`EventQueue`] is a hierarchical timing wheel: eight levels of 256
//! buckets, where level `l` hashes an event by byte `l` of its absolute
//! tick count. Together the levels cover the full `u64` time range, so
//! any future timestamp inserts in O(1); popping advances a cursor
//! through per-level occupancy bitmaps (four words per level) and
//! cascades a higher-level bucket down only when the cursor crosses its
//! window boundary, which amortises to O(1) per event. The previous
//! binary-heap implementation survives as [`HeapEventQueue`], the
//! differential oracle that pins the wheel's `(time, insertion-order)`
//! pop order bit-exactly.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// Bits of the tick count consumed per wheel level.
const LEVEL_BITS: u32 = 8;
/// Buckets per level (one per value of the level's byte).
const BUCKETS: usize = 1 << LEVEL_BITS;
/// Mask selecting a level's byte from a tick count.
const LEVEL_MASK: u64 = (BUCKETS - 1) as u64;
/// Levels needed so the wheel spans all 64 bits of [`SimTime`].
const MAX_LEVELS: usize = (u64::BITS / LEVEL_BITS) as usize;
/// Occupancy-bitmap words per level.
const OCC_WORDS: usize = BUCKETS / u64::BITS as usize;

/// One wheel level: 256 buckets plus an occupancy bitmap so the cursor
/// can jump to the next non-empty bucket in a handful of word scans.
#[derive(Debug)]
struct Level<E> {
    buckets: Vec<Vec<ScheduledEvent<E>>>,
    occupied: [u64; OCC_WORDS],
}

impl<E> Level<E> {
    fn new() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, Vec::new);
        Level {
            buckets,
            occupied: [0; OCC_WORDS],
        }
    }

    fn mark(&mut self, idx: usize) {
        self.occupied[idx >> 6] |= 1u64 << (idx & 63);
    }

    fn unmark(&mut self, idx: usize) {
        self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
    }

    /// Lowest occupied bucket index `>= from`, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= BUCKETS {
            return None;
        }
        let mut word = from >> 6;
        let mut bits = self.occupied[word] & (!0u64 << (from & 63));
        loop {
            if bits != 0 {
                return Some((word << 6) + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word == OCC_WORDS {
                return None;
            }
            bits = self.occupied[word];
        }
    }

    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied = [0; OCC_WORDS];
    }
}

/// A pending-event set ordered by `(time, insertion order)`.
///
/// Backed by a hierarchical timing wheel: `schedule` and `pop` are
/// amortised O(1) regardless of the pending population, which is what
/// lets slot-driven simulations carry 10^6 concurrent sessions. The
/// pop order is bit-identical to the old binary-heap implementation
/// (kept as [`HeapEventQueue`] and pinned by differential proptests):
/// strictly non-decreasing time, FIFO within a time.
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
    /// Wheel levels, grown on demand up to [`MAX_LEVELS`]; level `l`
    /// holds events whose highest byte differing from `cursor` is `l`.
    levels: Vec<Level<E>>,
    /// Lower bound on every event stored in the wheel; advances as
    /// events pop. The *consumer's* clock can trail it (the cursor
    /// parks on the next pending event after a drain), so later
    /// schedules may land below it — those go to `backlog`.
    cursor: u64,
    /// Events currently being drained from the front bucket, reversed
    /// so `Vec::pop` yields FIFO order in O(1).
    drain: Vec<ScheduledEvent<E>>,
    /// Events scheduled behind the cursor, ordered by `(time, seq)`.
    /// Every entry is strictly below the cursor while the wheel and
    /// drain buffer hold nothing below it, so the backlog always owns
    /// the queue minimum when non-empty and pops first. Stays tiny in
    /// practice (only near-past times land here), and the worst case is
    /// the seed binary heap's O(log n) — never a wheel rebuild.
    backlog: BinaryHeap<ScheduledEvent<E>>,
    /// Tick count shared by everything in `drain`.
    drain_time: u64,
    /// Exact tick count of the earliest pending event (kept eagerly so
    /// `peek_time` is O(1) and `&self`).
    cached_min: Option<u64>,
    len: usize,
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
        EventQueue {
            levels: Vec::new(),
            cursor: 0,
            drain: Vec::new(),
            drain_time: 0,
            backlog: BinaryHeap::new(),
            cached_min: None,
            len: 0,
            next_seq: 0,
        }
    }

    /// Creates an empty queue sized for a known event population.
    ///
    /// The wheel allocates per-bucket on demand, so unlike the old
    /// binary heap there is no single backing array to pre-size; this
    /// constructor eagerly builds the first wheel level (the hot one)
    /// and pre-reserves the front-bucket drain buffer so steady-state
    /// runs never allocate on the pop path.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::new();
        q.levels.push(Level::new());
        // A single slot's burst is rarely more than a small fraction of
        // the whole population; cap the eager reservation.
        q.drain.reserve(capacity.min(1024));
        q
    }

    /// Reserves room for at least `additional` more pending events.
    ///
    /// Kept for API compatibility with the heap-backed queue; the wheel
    /// grows per-bucket, so this only pre-builds the first level.
    pub fn reserve(&mut self, _additional: usize) {
        if self.levels.is_empty() {
            self.levels.push(Level::new());
        }
    }

    /// Wheel level for an event at tick `t` given the current cursor:
    /// the highest byte in which they differ (0 when equal).
    fn level_for(cursor: u64, t: u64) -> usize {
        match cursor ^ t {
            0 => 0,
            x => ((63 - x.leading_zeros()) / LEVEL_BITS) as usize,
        }
    }

    /// Appends `ev` to its bucket. `ev.time` must be `>= self.cursor`.
    fn place(&mut self, ev: ScheduledEvent<E>) {
        let t = ev.time.ticks();
        debug_assert!(t >= self.cursor, "place() below the cursor");
        let level = Self::level_for(self.cursor, t);
        debug_assert!(level < MAX_LEVELS, "level_for out of range");
        while self.levels.len() <= level {
            self.levels.push(Level::new());
        }
        let idx = ((t >> (LEVEL_BITS * level as u32)) & LEVEL_MASK) as usize;
        let lvl = &mut self.levels[level];
        lvl.buckets[idx].push(ev);
        lvl.mark(idx);
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// Events scheduled for the same time fire in the order they were
    /// scheduled.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(ScheduledEvent { time, seq, payload });
    }

    fn insert(&mut self, ev: ScheduledEvent<E>) {
        let t = ev.time.ticks();
        if self.len == 0 {
            // Empty wheel: park the cursor on the new event so even a
            // "past" timestamp lands in the wheel directly.
            self.cursor = t;
            self.place(ev);
        } else if t < self.cursor {
            // Scheduling behind the search cursor — routine once the
            // cursor has parked on the *next* pending event while the
            // consumer's clock still trails it (e.g. an arrival due
            // sooner than every pending departure). The ordered backlog
            // absorbs it in O(log b); it pops before the wheel, so
            // global (time, seq) order is preserved.
            self.backlog.push(ev);
        } else {
            self.place(ev);
        }
        self.len += 1;
        self.cached_min = Some(match self.cached_min {
            Some(m) => m.min(t),
            None => t,
        });
    }

    /// Advances the cursor to the earliest pending event, cascading
    /// higher-level buckets down as windows are crossed. Requires
    /// `len > 0` and an empty drain buffer; returns the event's ticks
    /// with the cursor parked exactly on it.
    fn find_next(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        debug_assert!(self.drain.is_empty());
        loop {
            // Fast path: a pending bucket in the current 256-tick window.
            let idx0 = (self.cursor & LEVEL_MASK) as usize;
            if let Some(idx) = self.levels.first().and_then(|l0| l0.next_occupied(idx0)) {
                let t = (self.cursor & !LEVEL_MASK) | idx as u64;
                self.cursor = t;
                return Some(t);
            }
            // Climb: the lowest level with an occupied bucket past the
            // cursor's byte holds the earliest window. Buckets at or
            // below the cursor's own byte cannot be occupied (their
            // events would have been hashed to a lower level).
            let mut advanced = false;
            for level in 1..self.levels.len() {
                let shift = LEVEL_BITS * level as u32;
                let here = ((self.cursor >> shift) & LEVEL_MASK) as usize;
                if let Some(idx) = self.levels[level].next_occupied(here + 1) {
                    let above = shift + LEVEL_BITS;
                    let high = if above >= u64::BITS {
                        0
                    } else {
                        (self.cursor >> above) << above
                    };
                    self.cursor = high | ((idx as u64) << shift);
                    // Cascade the bucket down; every event re-hashes to
                    // a strictly lower level, preserving bucket order
                    // (and therefore seq order) as it goes.
                    let mut moved = {
                        let lvl = &mut self.levels[level];
                        lvl.unmark(idx);
                        std::mem::take(&mut lvl.buckets[idx])
                    };
                    for e in moved.drain(..) {
                        self.place(e);
                    }
                    // Hand the allocation back for the next rotation.
                    self.levels[level].buckets[idx] = moved;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                debug_assert!(false, "non-empty wheel with no occupied bucket");
                return None;
            }
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.len == 0 {
            return None;
        }
        // Backlog entries sit strictly below the cursor and the wheel
        // holds nothing below it, so a non-empty backlog owns the
        // minimum outright.
        if let Some(ev) = self.backlog.pop() {
            self.len -= 1;
            self.cached_min = self.refreshed_min();
            return Some(ev);
        }
        if self.drain.is_empty() {
            let t = self.find_next()?;
            let idx = (t & LEVEL_MASK) as usize;
            let l0 = &mut self.levels[0];
            std::mem::swap(&mut l0.buckets[idx], &mut self.drain);
            l0.unmark(idx);
            // Reverse once so each pop is O(1) off the tail; same-time
            // events scheduled mid-drain append to the (now empty)
            // bucket and are picked up after the drain buffer empties,
            // preserving FIFO.
            self.drain.reverse();
            self.drain_time = t;
        }
        let ev = self.drain.pop().expect("drain buffer non-empty");
        self.len -= 1;
        self.cached_min = self.refreshed_min();
        Some(ev)
    }

    /// Recomputes the exact minimum after a pop: backlog first (always
    /// lowest when present), then the in-flight drain buffer, then the
    /// wheel itself.
    fn refreshed_min(&mut self) -> Option<u64> {
        if let Some(b) = self.backlog.peek() {
            return Some(b.time.ticks());
        }
        if self.len == 0 {
            None
        } else if !self.drain.is_empty() {
            Some(self.drain_time)
        } else {
            self.find_next()
        }
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `horizon` — an O(1) bound check against the cached minimum,
    /// which is what [`Engine::run_until`] sits in for every event.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        if self.cached_min? > horizon.ticks() {
            return None;
        }
        self.pop()
    }

    /// Returns a draining iterator over every event due at or before
    /// `horizon`, in `(time, insertion-order)` order.
    ///
    /// Equal-time events come out in exactly the order they were
    /// scheduled — the FIFO contract slotted multiplexers (one
    /// `drain_ready` per slot boundary) rely on for determinism.
    /// Events after `horizon` are left untouched; dropping the iterator
    /// early leaves the remaining due events in the queue.
    pub fn drain_ready(&mut self, horizon: SimTime) -> DrainReady<'_, E> {
        DrainReady {
            queue: self,
            horizon,
        }
    }

    /// Returns the time of the earliest pending event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cached_min.map(SimTime::from_ticks)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        for level in &mut self.levels {
            level.clear();
        }
        self.drain.clear();
        self.backlog.clear();
        self.cached_min = None;
        self.len = 0;
    }
}

/// The retired binary-heap event queue, kept as the differential
/// oracle for the timing wheel (the same role the Hosking fGn sampler
/// plays for the circulant-embedding one): proptests drive both with
/// identical schedules and assert bit-identical pop order. Also the
/// baseline arm of `dms-bench`'s event-queue micro-benchmark.
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        HeapEventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time` (FIFO within a time).
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, payload });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
    }

    /// Removes and returns the earliest event if due at or before `horizon`.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        let top = self.heap.peek_mut()?;
        if top.time > horizon {
            return None;
        }
        Some(std::collections::binary_heap::PeekMut::pop(top))
    }

    /// Returns the time of the earliest pending event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Draining iterator returned by [`EventQueue::drain_ready`]: yields
/// events due at or before the horizon, earliest `(time, seq)` first.
#[derive(Debug)]
pub struct DrainReady<'a, E> {
    queue: &'a mut EventQueue<E>,
    horizon: SimTime,
}

impl<E> Iterator for DrainReady<'_, E> {
    type Item = ScheduledEvent<E>;

    fn next(&mut self) -> Option<ScheduledEvent<E>> {
        self.queue.pop_at_or_before(self.horizon)
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

    /// Like [`Engine::new`], but pre-sizes the event queue for
    /// `capacity` pending events (see [`EventQueue::with_capacity`]).
    pub fn with_capacity(model: M, capacity: usize) -> Self {
        Engine {
            model,
            queue: EventQueue::with_capacity(capacity),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Schedules `payload` at the current simulated time: it fires this
    /// instant, after any already-pending events with the same
    /// timestamp (FIFO tie-breaking).
    pub fn schedule_now(&mut self, payload: M::Event) {
        self.queue.schedule(self.now, payload);
    }

    /// Current simulated time (the timestamp of the last processed event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
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

    /// Runs until the queue drains or the next event would fire after
    /// `horizon`. Events *at* the horizon are processed.
    ///
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let start = self.processed;
        while let Some(ev) = self.queue.pop_at_or_before(horizon) {
            debug_assert!(
                ev.time >= self.now,
                "event queue released an event from the past"
            );
            self.now = ev.time;
            self.processed += 1;
            self.model.handle(self.now, ev.payload, &mut self.queue);
        }
        self.processed - start
    }

    /// Runs until the queue drains or `max_events` have been processed
    /// by this call, whichever comes first.
    ///
    /// Returns the number of events processed by this call.
    pub fn run_events(&mut self, max_events: u64) -> u64 {
        let start = self.processed;
        while self.processed - start < max_events && self.step() {}
        self.processed - start
    }

    /// Runs until the queue is fully drained.
    ///
    /// Returns the number of events processed by this call. Use with
    /// models that are guaranteed to quiesce; otherwise prefer
    /// [`Engine::run_until`].
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
        assert_eq!(eng.model().seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut eng = Engine::new(Recorder { seen: vec![] });
        for i in 0..100 {
            eng.queue_mut().schedule(SimTime::from_ticks(7), i);
        }
        eng.run_to_completion();
        let values: Vec<u32> = eng.model().seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_is_inclusive_of_horizon() {
        let mut eng = Engine::new(Recorder { seen: vec![] });
        eng.queue_mut().schedule(SimTime::from_ticks(5), 1);
        eng.queue_mut().schedule(SimTime::from_ticks(6), 2);
        let n = eng.run_until(SimTime::from_ticks(5));
        assert_eq!(n, 1);
        assert_eq!(eng.model().seen, vec![(5, 1)]);
        assert_eq!(eng.queue_mut().len(), 1);
    }

    #[test]
    fn run_events_caps_processing() {
        let mut eng = Engine::new(Recorder { seen: vec![] });
        for i in 0..10 {
            eng.queue_mut().schedule(SimTime::from_ticks(i), i as u32);
        }
        assert_eq!(eng.run_events(4), 4);
        assert_eq!(eng.processed(), 4);
        assert_eq!(eng.run_events(100), 6);
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
        assert_eq!(eng.run_until(SimTime::MAX), 0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut eng = Engine::with_capacity(Recorder { seen: vec![] }, 64);
        eng.queue_mut().schedule(SimTime::from_ticks(2), 9);
        eng.run_to_completion();
        assert_eq!(eng.model().seen, vec![(2, 9)]);
        let mut q: EventQueue<u32> = EventQueue::with_capacity(8);
        q.reserve(100);
        q.schedule(SimTime::ZERO, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(3), "late");
        q.schedule(SimTime::from_ticks(1), "early");
        assert!(q.pop_at_or_before(SimTime::ZERO).is_none());
        assert_eq!(q.len(), 2, "a rejected peek must not disturb the queue");
        let ev = q.pop_at_or_before(SimTime::from_ticks(1)).expect("due");
        assert_eq!(ev.payload, "early");
        assert!(q.pop_at_or_before(SimTime::from_ticks(2)).is_none());
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(3)));
    }

    /// Pins the ordering contract `drain_ready` gives the session
    /// multiplexer in `dms-serve`: events *at* the horizon drain in
    /// scheduling (FIFO) order, interleaved correctly with earlier
    /// events, and nothing past the horizon moves.
    #[test]
    fn drain_ready_pins_fifo_order_at_horizon_boundary() {
        let mut q = EventQueue::new();
        // Three events exactly at the horizon, scheduled out of order
        // with respect to an earlier and a later event.
        q.schedule(SimTime::from_ticks(10), "at-a");
        q.schedule(SimTime::from_ticks(11), "late");
        q.schedule(SimTime::from_ticks(10), "at-b");
        q.schedule(SimTime::from_ticks(9), "early");
        q.schedule(SimTime::from_ticks(10), "at-c");
        let drained: Vec<&str> = q
            .drain_ready(SimTime::from_ticks(10))
            .map(|ev| ev.payload)
            .collect();
        // Earlier event first, then the horizon events in the exact
        // order they were scheduled — not heap order.
        assert_eq!(drained, vec!["early", "at-a", "at-b", "at-c"]);
        // The post-horizon event is untouched.
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(11)));
        // A fresh drain at a later horizon picks it up.
        let rest: Vec<&str> = q.drain_ready(SimTime::MAX).map(|ev| ev.payload).collect();
        assert_eq!(rest, vec!["late"]);
        assert!(q.is_empty());
    }

    /// Dropping the iterator mid-drain must leave the queue coherent:
    /// the remaining due events keep their FIFO order.
    #[test]
    fn drain_ready_partial_drain_preserves_remainder() {
        let mut q = EventQueue::new();
        for i in 0..6u32 {
            q.schedule(SimTime::from_ticks(4), i);
        }
        {
            let mut it = q.drain_ready(SimTime::from_ticks(4));
            assert_eq!(it.next().expect("due").payload, 0);
            assert_eq!(it.next().expect("due").payload, 1);
        }
        let rest: Vec<u32> = q
            .drain_ready(SimTime::from_ticks(4))
            .map(|ev| ev.payload)
            .collect();
        assert_eq!(rest, vec![2, 3, 4, 5]);
    }

    #[test]
    fn schedule_now_fires_at_current_time_in_fifo_order() {
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
        assert_eq!(eng.model().fired, vec![1, 2, 3]);
        assert_eq!(eng.now(), SimTime::from_ticks(4));
        // Engine-level schedule_now at the post-run clock.
        eng.schedule_now(7);
        eng.run_to_completion();
        assert_eq!(eng.model().fired, vec![1, 2, 3, 7]);
        assert_eq!(eng.now(), SimTime::from_ticks(4));
    }

    /// Far-apart timestamps exercise every wheel level and the cascade
    /// path: events spread across the full u64 range still pop in
    /// exact (time, seq) order.
    #[test]
    fn wheel_cascades_across_all_levels() {
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
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// After the wheel drains, scheduling an *earlier* time than
    /// anything seen before must work: the cursor parks on the new
    /// event instead of forcing a rebuild.
    #[test]
    fn empty_wheel_accepts_earlier_times() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(1000), "first");
        assert_eq!(q.pop().expect("due").payload, "first");
        q.schedule(SimTime::from_ticks(3), "rewound");
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(3)));
        let ev = q.pop().expect("due");
        assert_eq!((ev.time.ticks(), ev.payload), (3, "rewound"));
    }

    /// Scheduling behind the cursor while events are pending routes
    /// through the backlog and still yields global (time, seq) order.
    #[test]
    fn schedule_behind_cursor_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(100), "a");
        q.schedule(SimTime::from_ticks(500), "b");
        assert_eq!(q.pop().expect("due").payload, "a"); // cursor now at 100
        q.schedule(SimTime::from_ticks(7), "past");
        q.schedule(SimTime::from_ticks(7), "past2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["past", "past2", "b"]);
    }

    /// clear() empties the wheel but keeps it usable.
    #[test]
    fn clear_resets_pending_events() {
        let mut q = EventQueue::new();
        for t in [5u64, 1 << 20, 77] {
            q.schedule(SimTime::from_ticks(t), t);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_ticks(2), 2);
        assert_eq!(q.pop().expect("due").payload, 2);
    }

    /// The heap oracle and the wheel agree on a dense interleaved
    /// schedule (the proptest suite widens this to arbitrary ones).
    #[test]
    fn wheel_matches_heap_oracle_on_interleaved_schedule() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let times = [9u64, 3, 3, 1 << 17, 9, 0, 42, 42, 3, 1 << 9, 7, 7, 7];
        for (i, &t) in times.iter().enumerate() {
            wheel.schedule(SimTime::from_ticks(t), i);
            heap.schedule(SimTime::from_ticks(t), i);
        }
        // Interleave pops with additional schedules.
        for round in 0..4u64 {
            let w = wheel.pop().expect("wheel due");
            let h = heap.pop().expect("heap due");
            assert_eq!((w.time, w.seq, w.payload), (h.time, h.seq, h.payload));
            let t = SimTime::from_ticks(50 + round);
            wheel.schedule(t, 100 + round as usize);
            heap.schedule(t, 100 + round as usize);
        }
        loop {
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (Some(w), Some(h)) => {
                    assert_eq!((w.time, w.seq, w.payload), (h.time, h.seq, h.payload));
                }
                (w, h) => panic!("length mismatch: wheel={:?} heap={:?}", w, h),
            }
        }
    }
}
