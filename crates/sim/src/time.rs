//! Simulation time.
//!
//! Time is kept as an integer tick count ([`SimTime`]) so that event
//! ordering is exact and reproducible — floating-point time would make
//! tie-breaking platform-dependent. The interpretation of one tick
//! (nanosecond, cycle, slot) is chosen by each simulator; helpers for a
//! nanosecond interpretation are provided because most of the `dms`
//! simulators use it.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in simulated time, measured in integer ticks.
///
/// `SimTime` is a transparent newtype over `u64` ([C-NEWTYPE]); arithmetic
/// saturates on overflow so that a runaway schedule cannot wrap around and
/// corrupt event ordering.
///
/// # Examples
///
/// ```
/// use dms_sim::SimTime;
/// let t = SimTime::from_ticks(5) + SimTime::from_ticks(3);
/// assert_eq!(t.ticks(), 8);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from a raw tick count.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Creates a time from seconds, interpreting ticks as nanoseconds.
    ///
    /// Negative or non-finite inputs saturate to [`SimTime::ZERO`].
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((secs * 1e9).round().min(u64::MAX as f64) as u64)
    }

    /// Returns the elapsed ticks since `earlier`, or zero if `earlier`
    /// is in the future.
    #[must_use]
    pub const fn saturating_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl From<u64> for SimTime {
    fn from(ticks: u64) -> Self {
        SimTime(ticks)
    }
}

impl From<SimTime> for u64 {
    fn from(t: SimTime) -> u64 {
        t.0
    }
}

/// Maps wall-clock time onto the simulation's slot axis — the
/// tick↔slot contract `dms-net`'s real-time pacing mode is built on.
///
/// A `TickClock` anchors slot 0 at its creation instant; slot `n`
/// begins exactly `n * slot_duration` later
/// ([`TickClock::deadline_for`]). Note the simulation core never
/// consults a clock: drivers stamp offers with slot numbers
/// and the engine replays the stamps, which is what keeps socket-fed
/// runs byte-deterministic (the clock only *paces*, it never decides).
#[derive(Debug, Clone, Copy)]
pub struct TickClock {
    start: std::time::Instant,
    slot: std::time::Duration,
}

impl TickClock {
    /// Starts a clock whose slot 0 begins now. A zero `slot_duration`
    /// is clamped to 1 ns so the mapping stays monotone.
    #[must_use]
    pub fn new(slot_duration: std::time::Duration) -> Self {
        TickClock {
            start: std::time::Instant::now(),
            slot: slot_duration.max(std::time::Duration::from_nanos(1)),
        }
    }

    /// The instant slot `slot` begins.
    #[must_use]
    pub fn deadline_for(&self, slot: u64) -> std::time::Instant {
        self.start
            + self
                .slot
                .saturating_mul(u32::try_from(slot.min(u64::from(u32::MAX))).unwrap_or(u32::MAX))
    }

    /// Sleeps until slot `slot` begins (returns immediately if the
    /// clock is already past it).
    pub fn sleep_until_slot(&self, slot: u64) {
        let deadline = self.deadline_for(slot);
        let now = std::time::Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_follows_ticks() {
        assert!(SimTime::from_ticks(1) < SimTime::from_ticks(2));
        assert_eq!(SimTime::ZERO, SimTime::from_ticks(0));
        assert!(SimTime::MAX > SimTime::from_ticks(u64::MAX - 1));
    }

    #[test]
    fn addition_saturates() {
        let t = SimTime::MAX + SimTime::from_ticks(10);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let t = SimTime::from_ticks(3) - SimTime::from_ticks(10);
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(
            SimTime::from_ticks(3).saturating_since(SimTime::from_ticks(10)),
            0
        );
        assert_eq!(
            SimTime::from_ticks(10).saturating_since(SimTime::from_ticks(3)),
            7
        );
    }

    #[test]
    fn seconds_convert_to_nanosecond_ticks() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.ticks(), 1_500_000_000);
    }

    #[test]
    fn seconds_saturate_on_bad_input() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::ZERO);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(SimTime::from_ticks(42).to_string(), "t=42");
    }

    #[test]
    fn tick_clock_deadlines_are_monotone() {
        let clock = TickClock::new(std::time::Duration::from_millis(1));
        assert!(clock.deadline_for(1) < clock.deadline_for(2));
        clock.sleep_until_slot(0); // already past: returns immediately
    }
}
