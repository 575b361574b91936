//! Slotted single-buffer queueing simulation — experiment E2.
//!
//! §3.2: self-similar input "has a considerable impact on the queueing
//! performance of the communication architecture since self-similar
//! (or long-range dependent) processes have properties which are
//! completely different from the traditional Markovian processes".
//! [`SlottedQueueSim`] is the minimal apparatus that exposes the
//! difference: feed it per-slot arrival counts (from
//! [`dms_analysis::selfsim`]) and a deterministic per-slot service
//! capacity, and compare loss and occupancy tails across input types at
//! identical utilisation.

use crate::error::NocError;

/// A single finite buffer served at a fixed rate in discrete slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlottedQueueSim {
    /// Buffer capacity in units (e.g. flits).
    pub capacity: usize,
    /// Units served per slot.
    pub service_per_slot: f64,
}

/// Measured queueing behaviour of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SlottedQueueReport {
    /// Total units offered.
    pub offered: f64,
    /// Units dropped at the full buffer.
    pub dropped: f64,
    /// Mean buffer occupancy across slots.
    pub mean_occupancy: f64,
    /// Peak occupancy.
    pub peak_occupancy: f64,
    /// Fraction of slots with occupancy above 90% of capacity.
    pub high_watermark_fraction: f64,
}

impl SlottedQueueReport {
    /// Loss rate: dropped / offered (0 when idle).
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        if self.offered <= 0.0 {
            0.0
        } else {
            self.dropped / self.offered
        }
    }
}

impl SlottedQueueSim {
    /// Creates a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidParameter`] for a zero capacity or a
    /// non-positive service rate.
    pub fn new(capacity: usize, service_per_slot: f64) -> Result<Self, NocError> {
        if capacity == 0 {
            return Err(NocError::InvalidParameter("capacity"));
        }
        if !(service_per_slot.is_finite() && service_per_slot > 0.0) {
            return Err(NocError::InvalidParameter("service_per_slot"));
        }
        Ok(SlottedQueueSim {
            capacity,
            service_per_slot,
        })
    }

    /// Feeds `arrivals[t]` units in slot `t` (arrivals first, then up to
    /// `service_per_slot` units leave) and reports the queueing outcome.
    #[must_use]
    pub fn run(&self, arrivals: &[f64]) -> SlottedQueueReport {
        let cap = self.capacity as f64;
        let mut q = 0.0f64;
        let mut offered = 0.0;
        let mut dropped = 0.0;
        let mut occupancy_sum = 0.0;
        let mut peak = 0.0f64;
        let mut high = 0usize;
        for &a in arrivals {
            let a = a.max(0.0);
            offered += a;
            let admitted = a.min(cap - q);
            dropped += a - admitted;
            q += admitted;
            // Occupancy is observed at the post-arrival instant — the
            // moment that determines loss.
            occupancy_sum += q;
            peak = peak.max(q);
            if q > 0.9 * cap {
                high += 1;
            }
            q = (q - self.service_per_slot).max(0.0);
        }
        let slots = arrivals.len().max(1) as f64;
        SlottedQueueReport {
            offered,
            dropped,
            mean_occupancy: occupancy_sum / slots,
            peak_occupancy: peak,
            high_watermark_fraction: high as f64 / slots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_analysis::{FractionalGaussianNoise, PoissonArrivals};
    use dms_sim::SimRng;

    #[test]
    fn validation() {
        assert!(SlottedQueueSim::new(0, 1.0).is_err());
        assert!(SlottedQueueSim::new(8, 0.0).is_err());
        assert!(SlottedQueueSim::new(8, f64::NAN).is_err());
    }

    #[test]
    fn underload_never_drops() {
        let q = SlottedQueueSim::new(16, 2.0).expect("valid");
        let arrivals = vec![1.0; 1000];
        let r = q.run(&arrivals);
        assert_eq!(r.dropped, 0.0);
        assert_eq!(r.loss_rate(), 0.0);
        assert!(r.mean_occupancy <= 1.0 + 1e-9);
    }

    #[test]
    fn overload_drops_the_excess() {
        let q = SlottedQueueSim::new(4, 1.0).expect("valid");
        let arrivals = vec![2.0; 1000];
        let r = q.run(&arrivals);
        // Steady state: 1 served, 1 dropped per slot once full.
        assert!((r.loss_rate() - 0.5).abs() < 0.01, "loss {}", r.loss_rate());
        assert!((r.peak_occupancy - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_is_benign() {
        let q = SlottedQueueSim::new(4, 1.0).expect("valid");
        let r = q.run(&[]);
        assert_eq!(r.loss_rate(), 0.0);
        assert_eq!(r.mean_occupancy, 0.0);
    }

    #[test]
    fn negative_arrivals_are_clamped() {
        let q = SlottedQueueSim::new(4, 1.0).expect("valid");
        let r = q.run(&[-5.0, 1.0]);
        assert_eq!(r.offered, 1.0);
        assert_eq!(r.dropped, 0.0);
    }

    #[test]
    fn self_similar_input_loses_more_than_poisson_at_equal_load() {
        // The headline E2 effect: identical mean rate and utilisation,
        // drastically different loss, because LRD bursts overwhelm the
        // buffer in a way Poisson arrivals cannot.
        let mut rng = SimRng::new(97);
        let n = 30_000;
        let mean = 3.0;
        let poisson = PoissonArrivals::new(mean)
            .expect("valid")
            .generate(n, &mut rng);
        let lrd = FractionalGaussianNoise::new(0.85)
            .expect("valid")
            .generate_counts(n, mean, 2.5, &mut rng);
        let q = SlottedQueueSim::new(16, mean * 1.25).expect("valid"); // utilisation 0.8
        let rp = q.run(&poisson);
        let rl = q.run(&lrd);
        assert!(
            rl.loss_rate() > 3.0 * rp.loss_rate().max(1e-6),
            "LRD loss {} should dwarf Poisson loss {}",
            rl.loss_rate(),
            rp.loss_rate()
        );
        assert!(rl.high_watermark_fraction > rp.high_watermark_fraction);
    }
}
