//! Per-slot instrumentation for [`crate::ServerSim`] runs.
//!
//! [`ServeMetricsSink`] is the optional recording side-car of
//! [`crate::ServerSim::run_instrumented`]: when attached it captures
//! one sample per slot of the signals the paper's control argument
//! turns on — admissions, active sessions, playout backlog, the FGS
//! layer cap and deadline misses — plus a running total of bits
//! enqueued into playout buffers (the conservation denominator the
//! property tests check). When no sink is attached the server loop pays
//! one `Option` check per slot and allocates nothing.
//!
//! [`ServeMetricsSink::export`] publishes the captured series into a
//! [`dms_sim::MetricsRegistry`] under a caller-chosen scope, from where
//! they flow into a [`dms_sim::RunLog`].
//!
//! # Bounded mode
//!
//! The default (full) mode keeps one `Vec` entry per slot — fine for
//! the 10^2–10^3-slot experiment sweeps, but memory grows with the
//! run, which is exactly what the million-session E15 arm cannot
//! afford on top of its session state. [`ServeMetricsSink::bounded`]
//! builds a sink that folds every slot sample into O(1)-memory
//! streaming aggregates instead: per-signal [`dms_sim::QuantileSketch`]es,
//! scalar counters, and a deterministic [`dms_sim::Reservoir`] of
//! per-session deadline-miss traces fed by
//! [`ServeMetricsSink::record_departure`]. Exported aggregates merge
//! exactly in a registry (sketch buckets add, reservoirs re-truncate),
//! so per-shard exports merged in job order equal a sequential
//! recording bit for bit — the same `ParRunner` contract the full-mode
//! series obey by concatenation.

use dms_sim::{MetricsRegistry, QuantileSketch, Reservoir};

/// Relative-error bound of every bounded-mode quantile sketch.
pub const SINK_SKETCH_ALPHA: f64 = 0.01;

/// Capacity of the bounded-mode per-session miss reservoir.
pub const SINK_RESERVOIR_K: usize = 64;

/// Seed of the bounded-mode reservoir. One fixed constant for every
/// sink so shard exports are always mergeable; the retained session set
/// is a pure function of this and the offered ids.
pub const SINK_RESERVOIR_SEED: u64 = 0x05ee_d0b5_ed15_7a11;

/// Bounded-memory aggregates of the per-slot signals (see the module
/// docs): what a bounded sink keeps instead of full series.
#[derive(Debug, Clone, PartialEq)]
struct BoundedAggregates {
    slots: u64,
    admitted_total: u64,
    deadline_misses_total: u64,
    active: QuantileSketch,
    backlog_bits: QuantileSketch,
    layer_cap: QuantileSketch,
    utility: QuantileSketch,
    /// Deadline-miss count per departed session, keyed by session id.
    session_misses: Reservoir,
    departed: u64,
}

impl BoundedAggregates {
    fn new() -> Self {
        BoundedAggregates {
            slots: 0,
            admitted_total: 0,
            deadline_misses_total: 0,
            active: QuantileSketch::new(SINK_SKETCH_ALPHA),
            backlog_bits: QuantileSketch::new(SINK_SKETCH_ALPHA),
            layer_cap: QuantileSketch::new(SINK_SKETCH_ALPHA),
            utility: QuantileSketch::new(SINK_SKETCH_ALPHA),
            session_misses: Reservoir::new(SINK_RESERVOIR_K, SINK_RESERVOIR_SEED),
            departed: 0,
        }
    }
}

/// Per-slot instrumentation recorded from one server run: full series
/// by default, bounded streaming aggregates via
/// [`ServeMetricsSink::bounded`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeMetricsSink {
    admitted: Vec<u64>,
    active: Vec<u64>,
    backlog_bits: Vec<u64>,
    layer_cap: Vec<u64>,
    deadline_misses: Vec<u64>,
    utility: Vec<f64>,
    enqueued_bits: u64,
    bounded: Option<BoundedAggregates>,
}

impl ServeMetricsSink {
    /// Creates an empty full-mode sink.
    #[must_use]
    pub fn new() -> Self {
        ServeMetricsSink::default()
    }

    /// Creates a full-mode sink with capacity for `slots` samples per
    /// series.
    #[must_use]
    pub fn with_capacity(slots: usize) -> Self {
        ServeMetricsSink {
            admitted: Vec::with_capacity(slots),
            active: Vec::with_capacity(slots),
            backlog_bits: Vec::with_capacity(slots),
            layer_cap: Vec::with_capacity(slots),
            deadline_misses: Vec::with_capacity(slots),
            utility: Vec::with_capacity(slots),
            enqueued_bits: 0,
            bounded: None,
        }
    }

    /// Creates a bounded-mode sink: O(1) memory however long the run,
    /// at the cost of quantile summaries instead of full series (see
    /// the module docs).
    #[must_use]
    pub fn bounded() -> Self {
        ServeMetricsSink {
            bounded: Some(BoundedAggregates::new()),
            ..ServeMetricsSink::default()
        }
    }

    /// Appends one slot's sample to every series (full mode) or folds
    /// it into the streaming aggregates (bounded mode).
    #[allow(clippy::too_many_arguments)] // one argument per recorded signal
    pub fn record_slot(
        &mut self,
        admitted: u64,
        active: u64,
        backlog_bits: u64,
        layer_cap: u64,
        deadline_misses: u64,
        utility: f64,
        enqueued_bits: u64,
    ) {
        self.enqueued_bits += enqueued_bits;
        if let Some(agg) = self.bounded.as_mut() {
            agg.slots += 1;
            agg.admitted_total += admitted;
            agg.deadline_misses_total += deadline_misses;
            agg.active.record(active as f64);
            agg.backlog_bits.record(backlog_bits as f64);
            agg.layer_cap.record(layer_cap as f64);
            agg.utility.record(utility);
            return;
        }
        self.admitted.push(admitted);
        self.active.push(active);
        self.backlog_bits.push(backlog_bits);
        self.layer_cap.push(layer_cap);
        self.deadline_misses.push(deadline_misses);
        self.utility.push(utility);
    }

    /// Records one session departure: in bounded mode the session's
    /// deadline-miss count is offered to the per-session reservoir
    /// (keyed by session id, so the retained trace set is independent
    /// of departure order and shard split); in full mode this is a
    /// no-op — per-slot series already carry the signal.
    pub fn record_departure(&mut self, session_id: u64, misses: u64) {
        if let Some(agg) = self.bounded.as_mut() {
            agg.departed += 1;
            agg.session_misses.offer(session_id, misses as f64);
        }
    }

    /// Utility summed over the sessions served in each slot — the
    /// signal the E13 resilience sweep reads recovery curves from.
    #[must_use]
    pub fn utility(&self) -> &[f64] {
        &self.utility
    }

    /// Total bits enqueued into playout buffers before capping — the
    /// denominator of the `delivered + dropped + purged ≤ enqueued`
    /// conservation invariant.
    #[must_use]
    pub fn enqueued_bits(&self) -> u64 {
        self.enqueued_bits
    }

    /// Publishes the captured data into `registry` under `scope`.
    ///
    /// Full mode: series `scope/admitted`, `scope/active`,
    /// `scope/backlog_bits`, `scope/layer_cap`, `scope/deadline_misses`,
    /// `scope/utility` and counter `scope/enqueued_bits`. Bounded mode:
    /// counters `scope/slots`, `scope/admitted_total`,
    /// `scope/deadline_misses_total`, `scope/departed`,
    /// `scope/enqueued_bits`; sketches `scope/active`,
    /// `scope/backlog_bits`, `scope/layer_cap`, `scope/utility`; and
    /// the `scope/session_misses` reservoir.
    pub fn export(&self, registry: &mut MetricsRegistry, scope: &str) {
        let mut scoped = registry.scoped(scope);
        scoped.counter_add("enqueued_bits", self.enqueued_bits);
        if let Some(agg) = self.bounded.as_ref() {
            scoped.counter_add("slots", agg.slots);
            scoped.counter_add("admitted_total", agg.admitted_total);
            scoped.counter_add("deadline_misses_total", agg.deadline_misses_total);
            scoped.counter_add("departed", agg.departed);
            scoped.sketch_merge("active", &agg.active);
            scoped.sketch_merge("backlog_bits", &agg.backlog_bits);
            scoped.sketch_merge("layer_cap", &agg.layer_cap);
            scoped.sketch_merge("utility", &agg.utility);
            scoped.reservoir_merge("session_misses", &agg.session_misses);
            return;
        }
        scoped.series_extend("admitted", self.admitted.iter().map(|&v| v as f64));
        scoped.series_extend("active", self.active.iter().map(|&v| v as f64));
        scoped.series_extend("backlog_bits", self.backlog_bits.iter().map(|&v| v as f64));
        scoped.series_extend("layer_cap", self.layer_cap.iter().map(|&v| v as f64));
        scoped.series_extend(
            "deadline_misses",
            self.deadline_misses.iter().map(|&v| v as f64),
        );
        scoped.series_extend("utility", self.utility.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_sim::Metric;

    #[test]
    fn sink_records_and_exports() {
        let mut sink = ServeMetricsSink::with_capacity(2);
        sink.record_slot(1, 3, 4096, 2, 0, 2.75, 8192);
        sink.record_slot(0, 2, 2048, 3, 1, 1.5, 6144);
        assert_eq!(sink.utility(), &[2.75, 1.5]);
        assert_eq!(sink.enqueued_bits(), 14_336);

        let mut registry = MetricsRegistry::new();
        sink.export(&mut registry, "server");
        for (name, values) in [
            ("admitted", vec![1.0, 0.0]),
            ("active", vec![3.0, 2.0]),
            ("backlog_bits", vec![4096.0, 2048.0]),
            ("layer_cap", vec![2.0, 3.0]),
            ("deadline_misses", vec![0.0, 1.0]),
            ("utility", vec![2.75, 1.5]),
        ] {
            let key = format!("server/{name}");
            assert_eq!(registry.get(&key), Some(&Metric::Series(values)), "{key}");
        }
        assert_eq!(
            registry.get("server/enqueued_bits"),
            Some(&Metric::Counter(14_336))
        );
        let dms_sim::JsonValue::Object(keys) = registry.to_json() else {
            panic!("a registry renders as an object");
        };
        assert_eq!(keys.len(), 7);
    }

    #[test]
    fn bounded_sink_aggregates_with_constant_memory() {
        let mut sink = ServeMetricsSink::bounded();
        for slot in 0..10_000u64 {
            sink.record_slot(1, slot % 100, slot * 10, 3, slot % 2, 0.5, 100);
            sink.record_departure(slot, slot % 7);
        }
        // Full-mode series stay empty — nothing grows with the run.
        assert!(sink.active.is_empty() && sink.utility.is_empty());
        assert_eq!(sink.enqueued_bits(), 1_000_000);

        let mut registry = MetricsRegistry::new();
        sink.export(&mut registry, "server");
        for (name, total) in [
            ("slots", 10_000),
            ("admitted_total", 10_000),
            ("deadline_misses_total", 5_000),
            ("departed", 10_000),
        ] {
            let key = format!("server/{name}");
            assert_eq!(registry.get(&key), Some(&Metric::Counter(total)), "{key}");
        }
        let Some(Metric::Sketch(active)) = registry.get("server/active") else {
            panic!("active sketch missing");
        };
        assert_eq!(active.count(), 10_000);
        // Median of slot % 100 is ~50, within the sketch's bound.
        let p50 = active.quantile(0.5).expect("non-empty");
        assert!((p50 - 50.0).abs() <= 2.0, "p50 = {p50}");
        let Some(Metric::Reservoir(r)) = registry.get("server/session_misses") else {
            panic!("session reservoir missing");
        };
        assert_eq!(r.len(), SINK_RESERVOIR_K);
        assert!(r.to_json().render().contains("\"offered\": 10000"));
    }

    #[test]
    fn full_sink_departures_are_a_no_op() {
        let mut a = ServeMetricsSink::new();
        a.record_slot(1, 2, 3, 4, 5, 6.0, 7);
        let mut b = a.clone();
        b.record_departure(1, 2);
        assert_eq!(a, b);
    }
}
