//! Finite-length queues — the buffer primitive of Producer–Consumer
//! modelling (§2.1 of the paper).
//!
//! Communication between multimedia processes "happens through dedicated
//! buffers that behave like finite-length queues"; the average length of
//! those buffers "is very important as it reflects their utilization over
//! time". [`FiniteQueue`] therefore tracks occupancy statistics alongside
//! the payload itself, and hands a rejected item back to the caller.

use std::collections::VecDeque;

use dms_sim::{SimTime, TimeWeighted};

/// A bounded FIFO queue with occupancy statistics.
///
/// # Examples
///
/// ```
/// use dms_core::FiniteQueue;
/// use dms_sim::SimTime;
///
/// let mut q: FiniteQueue<u32> = FiniteQueue::new(2);
/// assert!(q.push(SimTime::ZERO, 1).is_ok());
/// assert!(q.push(SimTime::ZERO, 2).is_ok());
/// assert!(q.push(SimTime::ZERO, 3).is_err()); // full: dropped
/// assert_eq!(q.pop(SimTime::from_ticks(5)), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct FiniteQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    occupancy: TimeWeighted,
}

/// Error returned when pushing to a full [`FiniteQueue`]; carries the
/// rejected item back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFullError<T>(pub T);

impl<T> std::fmt::Display for QueueFullError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "queue is at capacity; item rejected")
    }
}

impl<T: std::fmt::Debug> std::error::Error for QueueFullError<T> {}

impl<T> FiniteQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity channel cannot carry
    /// data and always indicates a modelling mistake.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least one");
        FiniteQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
            occupancy: TimeWeighted::new(SimTime::ZERO, 0.0),
        }
    }

    /// Maximum number of items the queue can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Attempts to enqueue `item` at simulated time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] (handing the item back) if the queue is
    /// full.
    pub fn push(&mut self, now: SimTime, item: T) -> Result<(), QueueFullError<T>> {
        if self.is_full() {
            return Err(QueueFullError(item));
        }
        self.items.push_back(item);
        self.occupancy.update(now, self.items.len() as f64);
        Ok(())
    }

    /// Dequeues the oldest item, or `None` if empty.
    pub fn pop(&mut self, now: SimTime) -> Option<T> {
        let item = self.items.pop_front();
        if item.is_some() {
            self.occupancy.update(now, self.items.len() as f64);
        }
        item
    }

    /// Time-averaged queue length over `[0, now]` — the "average length
    /// of these buffers" metric of §2.1.
    #[must_use]
    pub fn average_occupancy(&self, now: SimTime) -> f64 {
        self.occupancy.time_average(now)
    }

    /// Largest occupancy ever reached.
    #[must_use]
    pub fn peak_occupancy(&self) -> f64 {
        self.occupancy.peak()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = FiniteQueue::new(3);
        q.push(SimTime::ZERO, 'a').expect("not full");
        q.push(SimTime::ZERO, 'b').expect("not full");
        assert_eq!(q.pop(SimTime::ZERO), Some('a'));
        assert_eq!(q.pop(SimTime::ZERO), Some('b'));
        assert_eq!(q.pop(SimTime::ZERO), None);
    }

    #[test]
    fn full_queue_rejects_and_hands_the_item_back() {
        let mut q = FiniteQueue::new(1);
        q.push(SimTime::ZERO, 1).expect("not full");
        let err = q.push(SimTime::ZERO, 2).expect_err("full");
        assert_eq!(err.0, 2); // rejected item handed back
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _: FiniteQueue<u8> = FiniteQueue::new(0);
    }

    #[test]
    fn occupancy_time_average() {
        let mut q = FiniteQueue::new(4);
        q.push(SimTime::ZERO, ()).expect("not full");
        // one item for 10 ticks, then empty for 10 ticks
        q.pop(SimTime::from_ticks(10));
        assert!((q.average_occupancy(SimTime::from_ticks(20)) - 0.5).abs() < 1e-12);
        assert_eq!(q.peak_occupancy(), 1.0);
    }
}
