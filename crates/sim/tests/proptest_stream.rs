//! Property tests for the streaming aggregates ([`QuantileSketch`],
//! [`Reservoir`]) and the registry merge semantics built on them.
//!
//! The contract under test is the one `ParRunner` extends to metrics:
//! shard a recording any way at all, merge the shards, and the result
//! must equal the sequential recording *bit for bit* — not just
//! statistically. CI leans on this when it byte-diffs run-logs across
//! `DMS_THREADS` settings.

use dms_sim::{MetricsRegistry, QuantileSketch, Reservoir};
use proptest::prelude::*;

/// Values spanning the regimes the sketch treats differently: exact
/// zeros, near-zeros, negatives, and magnitudes across several bins.
fn sketch_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        -1e-13f64..1e-13,
        -100.0f64..100.0,
        -1e6f64..1e6,
        0.001f64..10.0,
    ]
}

proptest! {
    /// Sketch merge equals sequential for arbitrary values split into
    /// arbitrary shards, down to identical JSON bytes.
    #[test]
    fn sketch_merge_equals_sequential_any_split(
        values in proptest::collection::vec(sketch_value(), 0..300),
        shards in proptest::collection::vec(0usize..4, 0..300),
    ) {
        let n = values.len().min(shards.len());
        let mut sequential = QuantileSketch::new(0.02);
        let mut parts = vec![QuantileSketch::new(0.02); 4];
        for i in 0..n {
            sequential.record(values[i]);
            parts[shards[i]].record(values[i]);
        }
        let mut merged = QuantileSketch::new(0.02);
        for part in &parts {
            merged.merge(part);
        }
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(
            merged.to_json().render(),
            sequential.to_json().render()
        );
    }

    /// Sketch quantile estimates stay within the `alpha` relative
    /// error bound (plus one rank of discreteness) of the exact
    /// order statistic, for positive-valued streams.
    #[test]
    fn sketch_quantile_error_bounded(
        values in proptest::collection::vec(0.001f64..1e6, 1..300),
    ) {
        let alpha = 0.02;
        let mut s = QuantileSketch::new(alpha);
        for &x in &values {
            s.record(x);
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize)
                .clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = s.quantile(q).expect("non-empty");
            prop_assert!(
                (est - exact).abs() <= alpha * exact.abs() + 1e-12,
                "q = {q}: est {est} vs exact {exact}"
            );
        }
    }

    /// Reservoir merge equals sequential for arbitrary shard splits —
    /// the retained sample is a pure function of the offered multiset.
    #[test]
    fn reservoir_merge_equals_sequential_any_split(
        values in proptest::collection::vec(-1e6f64..1e6, 0..300),
        shards in proptest::collection::vec(0usize..4, 0..300),
        seed in 0u64..=u64::MAX,
    ) {
        let n = values.len().min(shards.len());
        let mut sequential = Reservoir::new(8, seed);
        let mut parts = vec![Reservoir::new(8, seed); 4];
        for i in 0..n {
            sequential.offer(i as u64, values[i]);
            parts[shards[i]].offer(i as u64, values[i]);
        }
        let mut merged = Reservoir::new(8, seed);
        for part in &parts {
            merged.merge(part);
        }
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(
            merged.to_json().render(),
            sequential.to_json().render()
        );
    }

    /// Offer order never matters: any permutation of the same keyed
    /// stream retains the same sample.
    #[test]
    fn reservoir_is_permutation_invariant(
        values in proptest::collection::vec(-1e3f64..1e3, 1..200),
        rot in 0usize..200,
    ) {
        let n = values.len();
        let rot = rot % n;
        let mut forward = Reservoir::new(6, 99);
        let mut rotated = Reservoir::new(6, 99);
        for i in 0..n {
            forward.offer(i as u64, values[i]);
            let j = (i + rot) % n;
            rotated.offer(j as u64, values[j]);
        }
        prop_assert_eq!(forward, rotated);
    }

    /// The full-registry version of the split property, mixing the
    /// streaming metrics with a counter. Each shard exports the way
    /// producers do: a local sketch and reservoir merged into its
    /// registry.
    #[test]
    fn registry_with_streams_merges_like_sequential(
        values in proptest::collection::vec(-50.0f64..50.0, 0..200),
        shards in proptest::collection::vec(0usize..3, 0..200),
    ) {
        let n = values.len().min(shards.len());
        let export = |reg: &mut MetricsRegistry, items: &[(usize, f64)]| {
            let mut dist = QuantileSketch::new(0.01);
            let mut sample = Reservoir::new(5, 7);
            for &(i, x) in items {
                reg.counter_add("events", 1);
                dist.record(x);
                sample.offer(i as u64, x);
            }
            reg.sketch_merge("dist", &dist);
            reg.reservoir_merge("sample", &sample);
        };
        let all: Vec<(usize, f64)> = (0..n).map(|i| (i, values[i])).collect();
        let mut sequential = MetricsRegistry::new();
        export(&mut sequential, &all);
        let mut merged = MetricsRegistry::new();
        for shard in 0..3 {
            let mine: Vec<(usize, f64)> =
                all.iter().copied().filter(|&(i, _)| shards[i] == shard).collect();
            let mut part = MetricsRegistry::new();
            export(&mut part, &mine);
            merged.merge(&part);
        }
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(
            merged.to_json().render(),
            sequential.to_json().render()
        );
    }
}
