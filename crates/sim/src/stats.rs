//! Online statistics for simulation outputs.
//!
//! Multimedia-system metrics are *average-case* quantities (§2 of the
//! paper): mean latency, jitter, buffer occupancy, loss rate. The types
//! here accumulate them in a single pass: [`OnlineStats`] (Welford mean /
//! variance, extremes), [`TimeWeighted`] (time-averaged level processes
//! such as queue lengths), [`Histogram`] (distributions and quantiles)
//! and [`Autocorrelation`] (lagged correlation, used to distinguish
//! short-range from long-range-dependent traffic).

use std::fmt;

/// Single-pass mean/variance/extremes accumulator (Welford's algorithm).
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
/// assert_eq!(s.count(), 4);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
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

    /// Smallest sample seen, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample seen, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// A normal-approximation confidence interval for the mean.
    ///
    /// `z` is the standard-normal quantile (1.96 for 95%).
    #[must_use]
    pub fn confidence_interval(&self, z: f64) -> ConfidenceInterval {
        let half = if self.count < 2 {
            f64::INFINITY
        } else {
            z * self.std_dev() / (self.count as f64).sqrt()
        };
        ConfidenceInterval {
            mean: self.mean(),
            half_width: half,
        }
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

/// A symmetric confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Center of the interval.
    pub mean: f64,
    /// Half the interval width.
    pub half_width: f64,
}

impl ConfidenceInterval {
    /// Whether `value` falls inside the interval.
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        (value - self.mean).abs() <= self.half_width
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} ± {:.6}", self.mean, self.half_width)
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

    /// Current level.
    #[must_use]
    pub fn level(&self) -> f64 {
        self.level
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

/// Fixed-bin histogram with under/overflow counters and quantile lookup.
///
/// # Examples
///
/// ```
/// use dms_sim::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// for x in 0..10 {
///     h.record(f64::from(x) + 0.5);
/// }
/// assert_eq!(h.total(), 10);
/// assert!((h.quantile(0.5).unwrap() - 5.0).abs() <= 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram covering `[lo, hi)` with `bins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`, either bound is non-finite, or `bins == 0`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid histogram range"
        );
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records a sample, counting out-of-range values in the
    /// under/overflow buckets.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total samples recorded, including out-of-range ones.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Count of samples that fell below the range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of samples at or above the upper bound.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Bin counts.
    #[must_use]
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Fraction of in-range samples in each bin.
    #[must_use]
    pub fn densities(&self) -> Vec<f64> {
        let n: u64 = self.bins.iter().sum();
        if n == 0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins.iter().map(|&c| c as f64 / n as f64).collect()
    }

    /// Approximate `q`-quantile over in-range samples, interpolated
    /// linearly within the crossing bin (samples are assumed uniform
    /// within a bin — the same model [`Histogram::ccdf`] uses, so
    /// `ccdf(quantile(q)) ≈ 1 - q` on in-range mass).
    ///
    /// Returns `None` if no in-range samples were recorded or `q` is
    /// outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        let n: u64 = self.bins.iter().sum();
        if n == 0 {
            return None;
        }
        let target = q * n as f64;
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        let mut cum = 0.0;
        for (i, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if cum + c >= target {
                let lo_edge = self.lo + w * i as f64;
                // q = 0 (or a target landing exactly on the previous
                // bin boundary) pins to this bin's lower edge.
                return Some(lo_edge + w * ((target - cum).max(0.0) / c).min(1.0));
            }
            cum += c;
        }
        Some(self.hi)
    }

    /// Complementary CDF at `x`: fraction of samples `>= x` (including
    /// overflow samples).
    ///
    /// Bins entirely at or above `x` count in full. The bin containing
    /// `x` contributes the linearly interpolated fraction of its width
    /// above `x` (samples are assumed uniform within a bin), so the
    /// estimate moves continuously as `x` sweeps across a bin instead
    /// of dropping the whole bin at its lower edge. `x <= lo` also
    /// counts the underflow bucket; `x > hi` counts only overflow.
    #[must_use]
    pub fn ccdf(&self, x: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        let mut count = self.overflow as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            let lo_edge = self.lo + w * i as f64;
            let hi_edge = lo_edge + w;
            if lo_edge >= x {
                count += c as f64;
            } else if hi_edge > x {
                // Partial bin containing x: interpolate linearly.
                count += c as f64 * (hi_edge - x) / w;
            }
        }
        if x <= self.lo {
            count += self.underflow as f64;
        }
        count / total as f64
    }

    /// Lower bound of the binned range.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the binned range.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Adds all of `other`'s counts into `self` bin-wise.
    ///
    /// Merging per-shard histograms in any order reproduces the
    /// histogram a single sequential recorder would have built, since
    /// bin counts are sums.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms differ in range or bin count —
    /// counts binned on different grids are not comparable.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len(),
            "cannot merge histograms with different shapes"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
}

/// Sample autocorrelation of a stored series.
///
/// Used to separate short-range-dependent (exponential decay) from
/// long-range-dependent (power-law decay) traffic — the crux of §3.2.
///
/// # Examples
///
/// ```
/// use dms_sim::Autocorrelation;
/// let series: Vec<f64> = (0..64).map(|i| f64::from(i % 2)).collect();
/// let acf = Autocorrelation::of(&series, 2);
/// assert!(acf.at(1).unwrap() < 0.0); // alternating series anti-correlates at lag 1
/// assert!(acf.at(2).unwrap() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Autocorrelation {
    values: Vec<f64>,
}

impl Autocorrelation {
    /// Computes autocorrelation of `series` for lags `1..=max_lag`.
    ///
    /// A constant or too-short series yields all-zero correlations.
    #[must_use]
    pub fn of(series: &[f64], max_lag: usize) -> Self {
        let n = series.len();
        if n < 2 {
            return Autocorrelation {
                values: vec![0.0; max_lag],
            };
        }
        let mean = series.iter().sum::<f64>() / n as f64;
        let var: f64 = series.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        if var <= f64::EPSILON {
            return Autocorrelation {
                values: vec![0.0; max_lag],
            };
        }
        let values = (1..=max_lag)
            .map(|lag| {
                if lag >= n {
                    return 0.0;
                }
                let cov: f64 = (0..n - lag)
                    .map(|i| (series[i] - mean) * (series[i + lag] - mean))
                    .sum::<f64>()
                    / n as f64;
                cov / var
            })
            .collect();
        Autocorrelation { values }
    }

    /// Autocorrelation at `lag` (1-based), or `None` beyond the computed range.
    #[must_use]
    pub fn at(&self, lag: usize) -> Option<f64> {
        if lag == 0 {
            return Some(1.0);
        }
        self.values.get(lag - 1).copied()
    }

    /// All computed lags starting at lag 1.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
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
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert!(s.confidence_interval(1.96).half_width.is_infinite());
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.37).collect();
        let all: OnlineStats = data.iter().copied().collect();
        let mut left: OnlineStats = data[..40].iter().copied().collect();
        let right: OnlineStats = data[40..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = s.clone();
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn confidence_interval_shrinks_with_samples() {
        let small: OnlineStats = (0..10).map(|i| f64::from(i % 3)).collect();
        let large: OnlineStats = (0..1000).map(|i| f64::from(i % 3)).collect();
        assert!(
            large.confidence_interval(1.96).half_width < small.confidence_interval(1.96).half_width
        );
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
        assert_eq!(tw.level(), 0.0);
    }

    #[test]
    fn time_weighted_zero_duration_returns_level() {
        let tw = TimeWeighted::new(SimTime::from_ticks(5), 7.0);
        assert_eq!(tw.time_average(SimTime::from_ticks(5)), 7.0);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(-1.0);
        h.record(0.0);
        h.record(9.99);
        h.record(10.0);
        h.record(100.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[4], 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..1000 {
            h.record(f64::from(i % 100));
        }
        let q1 = h.quantile(0.25).expect("non-empty");
        let q2 = h.quantile(0.5).expect("non-empty");
        let q3 = h.quantile(0.75).expect("non-empty");
        assert!(q1 <= q2 && q2 <= q3);
        assert!(h.quantile(1.5).is_none());
        assert!(Histogram::new(0.0, 1.0, 2).quantile(0.5).is_none());
    }

    /// Regression: `quantile` used to return the crossing bin's *upper
    /// edge* while `ccdf` interpolates within the bin, so the two
    /// disagreed by up to a full bin width (`ccdf(quantile(0.25))` gave
    /// 0.70, not 0.75, on this histogram). This test fails on the
    /// pre-fix code.
    #[test]
    fn histogram_quantile_interpolates_within_the_crossing_bin() {
        // 10 bins over [0, 100), 10 samples each: the interpolated CDF
        // is exactly linear, so quantiles are exact.
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.record(f64::from(i));
        }
        assert_eq!(h.quantile(0.25), Some(25.0)); // pre-fix: 30.0
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.95), Some(95.0));
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        // The two views of the same distribution must agree.
        for q in [0.1, 0.25, 0.33, 0.5, 0.75, 0.9] {
            let x = h.quantile(q).expect("non-empty");
            assert!(
                (h.ccdf(x) - (1.0 - q)).abs() < 1e-9,
                "ccdf(quantile({q})) = {} != {}",
                h.ccdf(x),
                1.0 - q
            );
        }
    }

    #[test]
    fn histogram_quantile_skips_empty_bins() {
        // Mass only in bins [0,1) and [3,4): the quantile must never
        // land inside the empty gap's interior.
        let mut h = Histogram::new(0.0, 4.0, 4);
        for _ in 0..5 {
            h.record(0.5);
            h.record(3.5);
        }
        assert_eq!(h.quantile(0.25), Some(0.5));
        // target = 5 lands exactly on the first bin's full mass: its
        // upper edge, not somewhere in the empty bins.
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(0.75), Some(3.5));
        assert_eq!(h.quantile(1.0), Some(4.0));
    }

    #[test]
    fn ccdf_is_monotone_decreasing() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.record(f64::from(i % 10));
        }
        assert!(h.ccdf(0.0) >= h.ccdf(5.0));
        assert!(h.ccdf(5.0) >= h.ccdf(9.5));
        assert!((h.ccdf(0.0) - 1.0).abs() < 1e-12);
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
        assert_eq!(tw.level(), 5.0);
        assert_eq!(tw.peak(), 5.0);
        // 1.0 for 10 ticks, then 5.0 held for 10 ticks => average 3.0.
        assert!((tw.time_average(SimTime::from_ticks(20)) - 3.0).abs() < 1e-12);
        // An update at exactly the current time is in-order (dt = 0).
        tw.update(SimTime::from_ticks(10), 2.0);
        assert_eq!(tw.level(), 2.0);
    }

    /// Regression: `ccdf` used to drop the entire bin containing `x`,
    /// undercounting the tail by up to one full bin.
    #[test]
    fn ccdf_interpolates_the_partial_bin() {
        // 100 samples, 10 per bin of width 10 over [0, 100).
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.record(f64::from((i % 10) * 10));
        }
        // x = 45 sits mid-bin: 5 full bins above (50%) plus half of
        // the [40, 50) bin (5%). The pre-fix code reported 0.50.
        assert!((h.ccdf(45.0) - 0.55).abs() < 1e-12);
        // Bin edges are unchanged by interpolation.
        assert!((h.ccdf(40.0) - 0.60).abs() < 1e-12);
        assert!((h.ccdf(50.0) - 0.50).abs() < 1e-12);
        // Continuity: sweeping x inside one bin moves the estimate
        // smoothly, never by a whole-bin jump.
        let mut prev = h.ccdf(40.0);
        for step in 1..=10 {
            let next = h.ccdf(40.0 + f64::from(step));
            assert!(next <= prev && prev - next < 0.011 + 1e-12);
            prev = next;
        }
        // Above the range only overflow counts; below, everything.
        assert_eq!(h.ccdf(100.0), 0.0);
        assert_eq!(h.ccdf(-3.0), 1.0);
    }

    #[test]
    fn histogram_merge_equals_sequential() {
        let samples: Vec<f64> = (0..200).map(|i| f64::from(i) * 0.6 - 10.0).collect();
        let mut all = Histogram::new(0.0, 100.0, 20);
        for &x in &samples {
            all.record(x);
        }
        let mut left = Histogram::new(0.0, 100.0, 20);
        let mut right = Histogram::new(0.0, 100.0, 20);
        for &x in &samples[..80] {
            left.record(x);
        }
        for &x in &samples[80..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left, all);
        assert_eq!(left.lo(), 0.0);
        assert_eq!(left.hi(), 100.0);
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn histogram_merge_rejects_mismatched_shapes() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }

    #[test]
    fn autocorrelation_of_constant_is_zero() {
        let acf = Autocorrelation::of(&[5.0; 32], 4);
        assert!(acf.values().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn autocorrelation_lag_zero_is_one() {
        let acf = Autocorrelation::of(&[1.0, 2.0, 3.0], 2);
        assert_eq!(acf.at(0), Some(1.0));
        assert_eq!(acf.at(99), None);
    }
}
