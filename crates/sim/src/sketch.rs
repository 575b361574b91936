//! Bounded-memory streaming aggregates: quantile sketches and
//! deterministic reservoir samples.
//!
//! The million-session engine (E15) made whole-run retention the
//! observability bottleneck: a registry that keeps every raw sample —
//! or even one full-resolution histogram per signal — scales its
//! memory with the run, not with the *summary* the experiment actually
//! reads. The two types here cap that cost:
//!
//! * [`QuantileSketch`] — a log-binned (DDSketch-style) quantile
//!   summary with a guaranteed relative error `alpha`. Memory is
//!   O(occupied buckets), bounded by the dynamic range of the data
//!   (a few hundred buckets for any signal this workspace records),
//!   independent of sample count.
//! * [`Reservoir`] — a bottom-k sample keyed by a *hash priority*
//!   instead of a running RNG, so the retained set is a pure function
//!   of the offered `(key, value)` multiset: sharding the stream and
//!   merging gives bit-identical results to a sequential pass, at any
//!   shard split. This is the deterministic analogue of classic
//!   reservoir sampling the `ParRunner` contract requires.
//!
//! # Determinism
//!
//! Both types hold only exactly-mergeable state — integer counts,
//! min/max (associative, commutative, exact in IEEE 754) and hash
//! priorities. Neither keeps a floating-point *sum*, because summation
//! order changes rounding and would break the merge == sequential
//! bit-identity that CI byte-diffs rely on. `merge` is therefore exact:
//! shards merged in any order equal the sequential recording, which the
//! `proptest_stream` suite checks across arbitrary splits.
//!
//! # Examples
//!
//! ```
//! use dms_sim::{QuantileSketch, Reservoir};
//!
//! let mut s = QuantileSketch::new(0.01);
//! for i in 1..=1000 {
//!     s.record(f64::from(i));
//! }
//! let p50 = s.quantile(0.5).unwrap();
//! assert!((p50 - 500.0).abs() / 500.0 <= 0.012); // within alpha (+rank slack)
//!
//! let mut r = Reservoir::new(4, 7);
//! for key in 0..100u64 {
//!     r.offer(key, key as f64 * 0.5);
//! }
//! assert_eq!(r.len(), 4);
//! ```

use std::collections::BTreeMap;

use crate::metrics::JsonValue;
use crate::rng::splitmix64;

/// Values with magnitude below this record into the zero bucket: the
/// log-bucket index of a denormal-or-smaller value is meaningless for
/// the signals this workspace measures (bits, sessions, utility).
const ZERO_EPSILON: f64 = 1e-12;

// ---------------------------------------------------------------------------
// QuantileSketch
// ---------------------------------------------------------------------------

/// A mergeable log-binned quantile sketch with bounded relative error.
///
/// Positive values land in bucket `ceil(ln(x) / ln(gamma))` where
/// `gamma = (1 + alpha) / (1 - alpha)`; the bucket's representative
/// value `2·gamma^i / (gamma + 1)` (the log-space midpoint) is within
/// relative error `alpha` of every value the bucket covers. Negative
/// values mirror into a second bucket map; near-zero values (magnitude
/// `<= 1e-12`) count in a dedicated zero bucket and report exactly 0.
///
/// Buckets are exact `u64` counts in `BTreeMap`s, so [`merge`] is
/// bin-wise addition — associative, commutative, and bit-identical to
/// sequential recording (see the module docs).
///
/// [`merge`]: QuantileSketch::merge
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Relative-error bound.
    alpha: f64,
    /// `ln(gamma)`, precomputed once from `alpha` (pure function of
    /// it, so identical across all sketches with the same `alpha`).
    ln_gamma: f64,
    /// Bucket index -> count, for positive values.
    positive: BTreeMap<i32, u64>,
    /// Bucket index of `-x` -> count, for negative values.
    negative: BTreeMap<i32, u64>,
    /// Count of near-zero values.
    zero: u64,
    /// Total recorded count (all buckets).
    count: u64,
    /// Exact smallest recorded value.
    min: f64,
    /// Exact largest recorded value.
    max: f64,
}

impl QuantileSketch {
    /// Creates a sketch with relative-error bound `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0 && alpha.is_finite(),
            "sketch alpha must be in (0, 1)"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            ln_gamma: gamma.ln(),
            positive: BTreeMap::new(),
            negative: BTreeMap::new(),
            zero: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Total values recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn bucket_of(&self, magnitude: f64) -> i32 {
        // ceil(ln(x)/ln(gamma)), clamped to i32: the clamp only engages
        // past ~1e9 orders of magnitude, far outside f64's range.
        let raw = (magnitude.ln() / self.ln_gamma).ceil();
        if raw >= f64::from(i32::MAX) {
            i32::MAX
        } else if raw <= f64::from(i32::MIN) {
            i32::MIN
        } else {
            raw as i32
        }
    }

    /// Representative value of positive bucket `i`: the log-space
    /// midpoint `2·gamma^i / (gamma + 1)`, within `alpha` relative
    /// error of every value in `(gamma^(i-1), gamma^i]`.
    fn value_of(&self, bucket: i32) -> f64 {
        let gamma = self.ln_gamma.exp();
        2.0 * (f64::from(bucket) * self.ln_gamma).exp() / (gamma + 1.0)
    }

    /// Records one value. Non-finite values are ignored (JSON cannot
    /// carry them and no signal in the workspace produces them on
    /// purpose).
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x.abs() <= ZERO_EPSILON {
            self.zero += 1;
        } else if x > 0.0 {
            *self.positive.entry(self.bucket_of(x)).or_insert(0) += 1;
        } else {
            *self.negative.entry(self.bucket_of(-x)).or_insert(0) += 1;
        }
    }

    /// Approximate `q`-quantile, or `None` if the sketch is empty or
    /// `q` is outside `[0, 1]`.
    ///
    /// The returned value is within relative error `alpha` of the true
    /// quantile of the recorded multiset (exact 0 for the zero
    /// bucket); `min`/`max` are exact at the extremes.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) || self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        // Ascending order: most-negative first (negative buckets by
        // descending mirrored index), zero, then positive ascending.
        for (&b, &c) in self.negative.iter().rev() {
            cum += c;
            if cum >= target {
                // The smallest value is exact; clamp keeps the
                // estimate inside the observed range.
                return Some((-self.value_of(b)).max(self.min));
            }
        }
        cum += self.zero;
        if cum >= target && self.zero > 0 {
            return Some(0.0);
        }
        for (&b, &c) in &self.positive {
            cum += c;
            if cum >= target {
                return Some(self.value_of(b).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Adds all of `other`'s buckets into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the sketches were built with different `alpha`s —
    /// their buckets lie on different grids.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.alpha == other.alpha,
            "cannot merge sketches with different alpha ({} vs {})",
            self.alpha,
            other.alpha
        );
        for (&b, &c) in &other.positive {
            *self.positive.entry(b).or_insert(0) += c;
        }
        for (&b, &c) in &other.negative {
            *self.negative.entry(b).or_insert(0) += c;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Canonical JSON form: bucket lists in ascending index order
    /// (`BTreeMap` iteration), exact counts, `min`/`max` as recorded.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let buckets = |map: &BTreeMap<i32, u64>| {
            JsonValue::Array(
                map.iter()
                    .map(|(&b, &c)| {
                        JsonValue::Array(vec![JsonValue::Int(i64::from(b)), JsonValue::Uint(c)])
                    })
                    .collect(),
            )
        };
        JsonValue::Object(vec![
            ("alpha".to_string(), JsonValue::Float(self.alpha)),
            ("count".to_string(), JsonValue::Uint(self.count)),
            (
                "min".to_string(),
                if self.count > 0 {
                    JsonValue::Float(self.min)
                } else {
                    JsonValue::Null
                },
            ),
            (
                "max".to_string(),
                if self.count > 0 {
                    JsonValue::Float(self.max)
                } else {
                    JsonValue::Null
                },
            ),
            ("zero".to_string(), JsonValue::Uint(self.zero)),
            ("negative".to_string(), buckets(&self.negative)),
            ("positive".to_string(), buckets(&self.positive)),
        ])
    }
}

// ---------------------------------------------------------------------------
// Reservoir
// ---------------------------------------------------------------------------

/// One retained sample of a [`Reservoir`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReservoirEntry {
    /// Hash priority (smaller survives); a pure function of the
    /// reservoir seed and the entry key.
    pub priority: u64,
    /// Caller-supplied identity (session id, trace index, ...).
    pub key: u64,
    /// The sampled value.
    pub value: f64,
}

impl ReservoirEntry {
    /// The total order entries are ranked by: priority, then key, then
    /// value bits — total, so merge order can never matter.
    fn rank(&self) -> (u64, u64, u64) {
        (self.priority, self.key, self.value.to_bits())
    }
}

/// A deterministic bottom-k sample over keyed values.
///
/// Each offered `(key, value)` gets the hash priority
/// `splitmix64(seed ^ key)`; the reservoir retains the `k` entries
/// with the smallest priorities. Because the priority depends only on
/// the seed and the key — never on arrival order or a running RNG —
/// the retained set is a pure function of the offered multiset:
/// [`merge`] (union, re-truncate) of any sharding equals the
/// sequential pass bit for bit. Keys should be unique per logical
/// item (session ids are); duplicate keys are kept as distinct
/// entries, totally ordered by value bits.
///
/// [`merge`]: Reservoir::merge
#[derive(Debug, Clone, PartialEq)]
pub struct Reservoir {
    k: usize,
    seed: u64,
    offered: u64,
    /// Sorted ascending by [`ReservoirEntry::rank`], at most `k` long.
    entries: Vec<ReservoirEntry>,
}

impl Reservoir {
    /// Creates a reservoir retaining at most `k` entries.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` — a reservoir that can hold nothing is a
    /// configuration bug, not a sample.
    #[must_use]
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "reservoir capacity must be positive");
        Reservoir {
            k,
            seed,
            offered: 0,
            entries: Vec::new(),
        }
    }

    /// Currently retained entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is retained.
    ///
    /// Kept beside the used `len`: clippy's `len_without_is_empty`
    /// requires it.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retained sample, ascending by `(priority, key, value)`.
    #[must_use]
    pub fn samples(&self) -> &[ReservoirEntry] {
        &self.entries
    }

    /// Offers one keyed value.
    pub fn offer(&mut self, key: u64, value: f64) {
        self.offered += 1;
        let entry = ReservoirEntry {
            priority: splitmix64(self.seed ^ key),
            key,
            value,
        };
        if self.entries.len() == self.k && self.entries[self.k - 1].rank() <= entry.rank() {
            return; // cheap common case: not in the bottom k
        }
        let at = self.entries.partition_point(|e| e.rank() <= entry.rank());
        self.entries.insert(at, entry);
        self.entries.truncate(self.k);
    }

    /// Merges `other` into `self`: union of retained entries,
    /// re-truncated to the bottom k.
    ///
    /// # Panics
    ///
    /// Panics if capacities or seeds differ — the retained sets would
    /// not be comparable.
    pub fn merge(&mut self, other: &Reservoir) {
        assert!(
            self.k == other.k && self.seed == other.seed,
            "cannot merge reservoirs with different capacity or seed"
        );
        self.offered += other.offered;
        let mut all = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            if self.entries[i].rank() <= other.entries[j].rank() {
                all.push(self.entries[i]);
                i += 1;
            } else {
                all.push(other.entries[j]);
                j += 1;
            }
        }
        all.extend_from_slice(&self.entries[i..]);
        all.extend_from_slice(&other.entries[j..]);
        all.truncate(self.k);
        self.entries = all;
    }

    /// Canonical JSON form: capacity, seed, offered count and the
    /// retained `[key, value]` pairs in rank order.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("k".to_string(), JsonValue::Uint(self.k as u64)),
            ("seed".to_string(), JsonValue::Uint(self.seed)),
            ("offered".to_string(), JsonValue::Uint(self.offered)),
            (
                "samples".to_string(),
                JsonValue::Array(
                    self.entries
                        .iter()
                        .map(|e| {
                            JsonValue::Array(vec![
                                JsonValue::Uint(e.key),
                                JsonValue::Float(e.value),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Occupied buckets (positive + negative + zero-if-used), read from
    /// the canonical JSON form: the sketch's memory footprint.
    fn occupied_buckets(s: &QuantileSketch) -> usize {
        let json = s.to_json();
        let listed = |key: &str| {
            json.get(key)
                .and_then(JsonValue::as_array)
                .map_or(0, <[_]>::len)
        };
        let zero = json.get("zero").and_then(JsonValue::as_f64).unwrap_or(0.0);
        listed("positive") + listed("negative") + usize::from(zero > 0.0)
    }

    #[test]
    fn sketch_quantile_error_is_within_alpha() {
        let alpha = 0.02;
        let mut s = QuantileSketch::new(alpha);
        let n = 10_000u32;
        for i in 1..=n {
            s.record(f64::from(i));
        }
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let exact = (q * f64::from(n)).ceil().max(1.0);
            let est = s.quantile(q).expect("non-empty");
            let rel = (est - exact).abs() / exact;
            // One rank of discreteness on top of the alpha bound.
            assert!(
                rel <= alpha + 1.0 / exact,
                "q={q}: est {est} vs exact {exact} (rel {rel})"
            );
        }
        assert_eq!(s.quantile(0.0), Some(1.0)); // exact min clamp
        assert_eq!(s.quantile(1.0), Some(f64::from(n))); // exact max
        let buckets = occupied_buckets(&s);
        assert!(buckets < 800, "footprint bounded: {buckets}");
    }

    #[test]
    fn sketch_handles_zero_and_negative_values() {
        let mut s = QuantileSketch::new(0.01);
        for x in [-8.0, -2.0, 0.0, 0.0, 3.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 6);
        let json = s.to_json();
        assert_eq!(json.get("min").and_then(JsonValue::as_f64), Some(-8.0));
        assert_eq!(json.get("max").and_then(JsonValue::as_f64), Some(9.0));
        let median = s.quantile(0.5).expect("non-empty");
        assert_eq!(median, 0.0, "third-ranked value is a zero");
        let low = s.quantile(0.01).expect("non-empty");
        assert!((low - -8.0).abs() / 8.0 <= 0.01 + 1e-12);
        s.record(f64::NAN); // ignored
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn sketch_merge_equals_sequential() {
        let values: Vec<f64> = (0..500).map(|i| (f64::from(i) - 200.0) * 1.7).collect();
        let mut all = QuantileSketch::new(0.01);
        for &x in &values {
            all.record(x);
        }
        let mut left = QuantileSketch::new(0.01);
        let mut right = QuantileSketch::new(0.01);
        for &x in &values[..123] {
            left.record(x);
        }
        for &x in &values[123..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left, all);
        assert_eq!(left.to_json().render(), all.to_json().render());
    }

    #[test]
    #[should_panic(expected = "different alpha")]
    fn sketch_merge_rejects_mismatched_alpha() {
        let mut a = QuantileSketch::new(0.01);
        a.merge(&QuantileSketch::new(0.02));
    }

    #[test]
    fn sketch_empty_is_benign() {
        let s = QuantileSketch::new(0.05);
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.to_json().get("min"), Some(&JsonValue::Null));
        assert_eq!(occupied_buckets(&s), 0);
        assert!(s.to_json().render().contains("\"count\": 0"));
    }

    #[test]
    fn reservoir_is_order_independent() {
        let mut forward = Reservoir::new(8, 42);
        let mut backward = Reservoir::new(8, 42);
        for key in 0..1000u64 {
            forward.offer(key, key as f64);
        }
        for key in (0..1000u64).rev() {
            backward.offer(key, key as f64);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.len(), 8);
        assert!(forward.to_json().render().contains("\"offered\": 1000"));
    }

    #[test]
    fn reservoir_merge_equals_sequential() {
        let mut all = Reservoir::new(5, 9);
        let mut left = Reservoir::new(5, 9);
        let mut right = Reservoir::new(5, 9);
        for key in 0..200u64 {
            all.offer(key, key as f64 * 0.25);
            if key % 3 == 0 {
                left.offer(key, key as f64 * 0.25);
            } else {
                right.offer(key, key as f64 * 0.25);
            }
        }
        left.merge(&right);
        assert_eq!(left, all);
    }

    #[test]
    fn reservoir_keeps_small_streams_whole() {
        let mut r = Reservoir::new(16, 1);
        for key in 0..5u64 {
            r.offer(key, 1.0);
        }
        assert_eq!(r.len(), 5);
        let keys: std::collections::BTreeSet<u64> = r.samples().iter().map(|e| e.key).collect();
        assert_eq!(keys.len(), 5, "all five keys retained");
    }

    #[test]
    #[should_panic(expected = "different capacity or seed")]
    fn reservoir_merge_rejects_mismatched_seed() {
        let mut a = Reservoir::new(4, 1);
        a.merge(&Reservoir::new(4, 2));
    }
}
