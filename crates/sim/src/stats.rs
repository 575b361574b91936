//! Online statistics for simulation outputs.
//!
//! Multimedia-system metrics are *average-case* quantities (§2 of the
//! paper): mean latency, jitter, buffer occupancy, loss rate. The types
//! here accumulate them in a single pass: [`OnlineStats`] (Welford mean
//! and variance) and [`TimeWeighted`] (time-averaged level processes
//! such as queue lengths).

/// Single-pass mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use dms_sim::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Adds a sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Sample mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count as f64 - 1.0)
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

/// Time-weighted average of a piecewise-constant level process (queue
/// length, battery level, buffer occupancy).
///
/// Record every *change* of the level; the accumulator weights each level
/// by how long it was held.
///
/// # Examples
///
/// ```
/// use dms_sim::{SimTime, TimeWeighted};
/// let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
/// tw.update(SimTime::from_ticks(10), 4.0); // level was 0 for 10 ticks
/// tw.update(SimTime::from_ticks(20), 0.0); // level was 4 for 10 ticks
/// assert_eq!(tw.time_average(SimTime::from_ticks(20)), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeighted {
    last_time: crate::SimTime,
    level: f64,
    weighted_sum: f64,
    start: crate::SimTime,
    peak: f64,
}

impl TimeWeighted {
    /// Starts tracking at `start` with the given initial level.
    #[must_use]
    pub fn new(start: crate::SimTime, initial_level: f64) -> Self {
        TimeWeighted {
            last_time: start,
            level: initial_level,
            weighted_sum: 0.0,
            start,
            peak: initial_level,
        }
    }

    /// Sets the level to `new_level` as of time `now`.
    ///
    /// Times must be non-decreasing; an out-of-order update (`now`
    /// earlier than the last seen time) is ignored entirely — the held
    /// level, peak and clock are all preserved, so the update carries
    /// zero weight *and* cannot retroactively change the level the next
    /// in-order interval is weighted by.
    pub fn update(&mut self, now: crate::SimTime, new_level: f64) {
        if now < self.last_time {
            return;
        }
        let dt = now.saturating_since(self.last_time) as f64;
        self.weighted_sum += self.level * dt;
        self.last_time = now;
        self.level = new_level;
        self.peak = self.peak.max(new_level);
    }

    /// Largest level ever set.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time average of the level over `[start, now]`.
    ///
    /// Returns the current level if no time has elapsed.
    #[must_use]
    pub fn time_average(&self, now: crate::SimTime) -> f64 {
        let held = now.saturating_since(self.last_time) as f64;
        let total = now.saturating_since(self.start) as f64;
        if total == 0.0 {
            return self.level;
        }
        (self.weighted_sum + self.level * held) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimTime;

    #[test]
    fn welford_matches_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s: OnlineStats = data.iter().copied().collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        let naive_var = data.iter().map(|x| (x - 5.0f64).powi(2)).sum::<f64>() / 7.0;
        assert!((s.variance() - naive_var).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.update(SimTime::from_ticks(4), 3.0);
        tw.update(SimTime::from_ticks(8), 0.0);
        // 1.0 for 4 ticks, 3.0 for 4 ticks, 0.0 thereafter
        assert!((tw.time_average(SimTime::from_ticks(8)) - 2.0).abs() < 1e-12);
        assert!((tw.time_average(SimTime::from_ticks(16)) - 1.0).abs() < 1e-12);
        assert_eq!(tw.peak(), 3.0);
    }

    #[test]
    fn time_weighted_zero_duration_returns_level() {
        let tw = TimeWeighted::new(SimTime::from_ticks(5), 7.0);
        assert_eq!(tw.time_average(SimTime::from_ticks(5)), 7.0);
    }

    /// Regression: an out-of-order update used to overwrite `level`
    /// and `peak` even though it contributed zero weight, corrupting
    /// the weighting of the *next* in-order interval.
    #[test]
    fn time_weighted_ignores_out_of_order_updates() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.update(SimTime::from_ticks(10), 5.0);
        // Stale update from the past: must not change anything.
        tw.update(SimTime::from_ticks(5), 100.0);
        assert_eq!(tw.peak(), 5.0);
        // 1.0 for 10 ticks, then 5.0 held for 10 ticks => average 3.0.
        assert!((tw.time_average(SimTime::from_ticks(20)) - 3.0).abs() < 1e-12);
        // An update at exactly the current time is in-order (dt = 0).
        tw.update(SimTime::from_ticks(10), 2.0);
        // 1.0 for 10 ticks, then 2.0 for 10 ticks => average 1.5.
        assert!((tw.time_average(SimTime::from_ticks(20)) - 1.5).abs() < 1e-12);
    }
}
