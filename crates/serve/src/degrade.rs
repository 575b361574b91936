//! Graceful QoS degradation by FGS layer shedding.
//!
//! Admission control bounds the *mean* load, but long-range-dependent
//! arrivals (§3.2) still pile sessions up in bursts that no mean-based
//! bound prevents. [`LayerController`] is the second line of defence:
//! when the instantaneous full-quality demand of the active sessions
//! overruns the link, it sheds FGS enhancement planes server-wide —
//! every session keeps its mandatory base layer and loses quality
//! *fine-granularly* instead of missing deadlines. This is the E11
//! property ("graceful degradation, no cliffs") raised to server scale,
//! and the server-side dual of the client-feedback truncation of
//! [`dms_wireless::fgs`].
//!
//! Hysteresis (separate shed/restore thresholds, restore only once the
//! backlog has drained) keeps the controller from oscillating at a
//! threshold.

use dms_media::fgs::BIT_PLANES;

use crate::error::ServeError;

/// Fixed-point (Q16) gains for the feedback shedding controller.
///
/// The closed-loop alternative to the hysteresis thresholds: instead
/// of stepping one plane per overloaded slot, a PI law on the
/// *measured* per-slot deadline-miss rate computes the shed depth
/// directly. All arithmetic is `i64` integer math on Q16 fixed-point
/// values so the controller is bit-deterministic on every platform —
/// the same property that keeps the cluster run-logs byte-identical
/// at any `DMS_THREADS`.
///
/// Per slot, with `m` the previous slot's miss count over `n` active
/// sessions (both integers):
///
/// ```text
/// r  = (m << 16) / max(n, 1)                    // miss rate, Q16
/// e  = r - target_miss_q16                      // error, Q16
/// I  = clamp(I + e, 0, integral_max_q16)        // anti-windup
/// s  = clamp((kp·e + ki·I) >> 32, 0, BIT_PLANES - min_layers)
/// layers = BIT_PLANES - s
/// ```
///
/// The target is strictly positive so the integral *unwinds* at
/// `target` per slot once misses stop; the `[0, integral_max]` clamp
/// is the anti-windup — the integral can never demand more shed than
/// `(ki·integral_max) >> 32` planes, and never goes negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PiConfig {
    /// Proportional gain, Q16 (`6.0` ≈ one plane shed per 0.17 of
    /// instantaneous miss rate above target).
    pub kp_q16: i64,
    /// Integral gain, Q16.
    pub ki_q16: i64,
    /// Miss-rate setpoint, Q16; must be in `(0, 1]` so the loop has
    /// headroom to unwind.
    pub target_miss_q16: i64,
    /// Anti-windup clamp on the accumulated error, Q16.
    pub integral_max_q16: i64,
}

impl Default for PiConfig {
    fn default() -> Self {
        PiConfig {
            kp_q16: 6 << 16,
            ki_q16: 1 << 16,
            // ~2% target miss rate.
            target_miss_q16: 1_311,
            // With ki = 1.0 the integral term alone can shed at most
            // every enhancement plane, never more.
            integral_max_q16: (BIT_PLANES as i64) << 16,
        }
    }
}

impl PiConfig {
    /// Validates gains and bounds.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), ServeError> {
        const GAIN_MAX: i64 = 1 << 32;
        if !(0..=GAIN_MAX).contains(&self.kp_q16) {
            return Err(ServeError::InvalidParameter("kp_q16"));
        }
        if !(0..=GAIN_MAX).contains(&self.ki_q16) {
            return Err(ServeError::InvalidParameter("ki_q16"));
        }
        if self.kp_q16 == 0 && self.ki_q16 == 0 {
            return Err(ServeError::InvalidParameter("kp_q16"));
        }
        if !(1..=(1i64 << 16)).contains(&self.target_miss_q16) {
            return Err(ServeError::InvalidParameter("target_miss_q16"));
        }
        if self.integral_max_q16 < 0 {
            return Err(ServeError::InvalidParameter("integral_max_q16"));
        }
        Ok(())
    }
}

/// Configuration of the layer-shedding controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeConfig {
    /// Shed one plane when demand/capacity exceeds this (e.g. `1.0`).
    pub shed_above: f64,
    /// Restore one plane when demand/capacity falls below this *and*
    /// the backlog has drained. Must be `< shed_above`.
    pub restore_below: f64,
    /// Planes the controller will never shed below (0 = base layer
    /// only is acceptable under extreme overload).
    pub min_layers: usize,
    /// Closed-loop PI shedding on the measured deadline-miss rate.
    /// `None` keeps the open-loop hysteresis law above, bit for bit.
    pub pi: Option<PiConfig>,
    /// Warm-up: the server rejects every arrival offered before this
    /// slot (a freshly provisioned shard serves nothing while it
    /// fills caches / pages in state). `0` = always warm.
    pub warmup_slots: u64,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            shed_above: 1.0,
            restore_below: 0.9,
            min_layers: 0,
            pi: None,
            warmup_slots: 0,
        }
    }
}

impl DegradeConfig {
    /// Validates thresholds and bounds.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if !(self.shed_above.is_finite() && self.shed_above > 0.0) {
            return Err(ServeError::InvalidParameter("shed_above"));
        }
        if !(self.restore_below.is_finite()
            && self.restore_below > 0.0
            && self.restore_below < self.shed_above)
        {
            return Err(ServeError::InvalidParameter("restore_below"));
        }
        if self.min_layers > BIT_PLANES {
            return Err(ServeError::InvalidParameter("min_layers"));
        }
        if let Some(pi) = &self.pi {
            pi.validate()?;
        }
        Ok(())
    }
}

/// The server-wide enhancement-layer cap, adapted once per slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerController {
    config: DegradeConfig,
    layers: usize,
    /// PI accumulated error, Q16 (unused by the hysteresis law).
    integral_q16: i64,
}

impl LayerController {
    /// Creates a controller starting at full quality ([`BIT_PLANES`]
    /// enhancement planes allowed).
    ///
    /// # Errors
    ///
    /// Propagates [`DegradeConfig::validate`] failures.
    pub fn new(config: DegradeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        Ok(LayerController {
            config,
            layers: BIT_PLANES,
            integral_q16: 0,
        })
    }

    /// PI accumulated error, Q16 (`0` for the hysteresis law).
    ///
    /// Test access: `pi_anti_windup_respects_clamps` and
    /// `pi_step_response_sheds_then_recovers_without_overshoot` watch
    /// the integral's clamp through it.
    #[must_use]
    pub fn integral_q16(&self) -> i64 {
        self.integral_q16
    }

    /// Observes one slot — `full_demand_bits` is what the active
    /// sessions would request at *full* quality, `backlog_bits` the
    /// bits still queued from previous slots — and returns the layer
    /// cap to serve the coming slot with.
    ///
    /// Shedding reacts to the full-quality pressure (so the controller
    /// converges to the deepest cut that relieves the link instead of
    /// flapping), restoring additionally waits for the backlog to
    /// drain.
    pub fn observe(
        &mut self,
        full_demand_bits: u64,
        capacity_bits: u64,
        backlog_bits: u64,
    ) -> usize {
        let util = full_demand_bits as f64 / capacity_bits.max(1) as f64;
        if util > self.config.shed_above {
            // One plane per slot: sheds within BIT_PLANES slots of a
            // burst onset, without overreacting to a single spike.
            if self.layers > self.config.min_layers {
                self.layers -= 1;
            }
        } else if util < self.config.restore_below && backlog_bits == 0 && self.layers < BIT_PLANES
        {
            self.layers += 1;
        }
        self.layers
    }

    /// Observes one slot with closed-loop feedback: `prev_misses`
    /// deadline misses over `prev_active` active sessions on the
    /// *previous* slot (the freshest measurement the controller can
    /// act on without seeing the future). Dispatches to the PI law
    /// when [`DegradeConfig::pi`] is set, otherwise falls back to the
    /// hysteresis law — bit for bit, so every existing run is
    /// untouched.
    pub fn observe_feedback(
        &mut self,
        full_demand_bits: u64,
        capacity_bits: u64,
        backlog_bits: u64,
        prev_misses: u64,
        prev_active: u64,
    ) -> usize {
        let Some(pi) = self.config.pi else {
            return self.observe(full_demand_bits, capacity_bits, backlog_bits);
        };
        // Q16 miss rate; misses <= active (one miss per session per
        // slot), so r <= 1<<16 and every product below fits i64.
        let rate_q16 = ((prev_misses as i64) << 16) / prev_active.max(1) as i64;
        let error_q16 = rate_q16 - pi.target_miss_q16;
        self.integral_q16 = (self.integral_q16 + error_q16).clamp(0, pi.integral_max_q16);
        let raw_planes = (pi.kp_q16 * error_q16 + pi.ki_q16 * self.integral_q16) >> 32;
        let max_shed = (BIT_PLANES - self.config.min_layers) as i64;
        self.layers = BIT_PLANES - raw_planes.clamp(0, max_shed) as usize;
        self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(LayerController::new(DegradeConfig::default()).is_ok());
        let mut c = DegradeConfig::default();
        c.restore_below = 1.5; // >= shed_above
        assert!(LayerController::new(c).is_err());
        let mut c = DegradeConfig::default();
        c.min_layers = BIT_PLANES + 1;
        assert!(LayerController::new(c).is_err());
        let mut c = DegradeConfig::default();
        c.shed_above = f64::NAN;
        assert!(LayerController::new(c).is_err());
    }

    #[test]
    fn sheds_one_plane_per_overloaded_slot_down_to_floor() {
        let mut ctl = LayerController::new(DegradeConfig {
            min_layers: 1,
            ..DegradeConfig::default()
        })
        .expect("valid");
        for expect in (1..BIT_PLANES).rev() {
            assert_eq!(ctl.observe(150, 100, 10), expect);
        }
        // At the floor: stays put no matter how hard the overload.
        assert_eq!(ctl.observe(1_000, 100, 10), 1);
        assert_eq!(ctl.observe(1_000, 100, 10), 1);
    }

    #[test]
    fn restores_only_after_backlog_drains() {
        let mut ctl = LayerController::new(DegradeConfig::default()).expect("valid");
        // Overload sheds one layer.
        assert_eq!(ctl.observe(150, 100, 0), BIT_PLANES - 1);
        // Load is light again but the backlog hasn't drained: hold.
        assert_eq!(ctl.observe(50, 100, 7), BIT_PLANES - 1);
        // Backlog gone: restore.
        assert_eq!(ctl.observe(50, 100, 0), BIT_PLANES);
        // Never exceeds the plane count.
        assert_eq!(ctl.observe(50, 100, 0), BIT_PLANES);
    }

    #[test]
    fn feedback_without_pi_is_the_hysteresis_law_bit_for_bit() {
        let mut a = LayerController::new(DegradeConfig::default()).expect("valid");
        let mut b = LayerController::new(DegradeConfig::default()).expect("valid");
        let trace = [
            (150u64, 100u64, 0u64, 3u64, 10u64),
            (150, 100, 5, 9, 10),
            (50, 100, 0, 0, 10),
            (95, 100, 2, 1, 10),
        ];
        for &(demand, cap, backlog, misses, active) in &trace {
            assert_eq!(
                a.observe(demand, cap, backlog),
                b.observe_feedback(demand, cap, backlog, misses, active)
            );
        }
        assert_eq!(a, b);
        assert_eq!(b.integral_q16(), 0);
    }

    #[test]
    fn pi_validation() {
        let ok = PiConfig::default();
        assert!(ok.validate().is_ok());
        assert!(PiConfig { kp_q16: -1, ..ok }.validate().is_err());
        assert!(PiConfig {
            kp_q16: 0,
            ki_q16: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(PiConfig {
            target_miss_q16: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(PiConfig {
            integral_max_q16: -5,
            ..ok
        }
        .validate()
        .is_err());
        // An invalid PI block fails the whole degrade config.
        let cfg = DegradeConfig {
            pi: Some(PiConfig {
                target_miss_q16: 0,
                ..ok
            }),
            ..DegradeConfig::default()
        };
        assert!(LayerController::new(cfg).is_err());
    }

    /// Step response of the PI loop: a sustained 50% miss rate drives
    /// the shed to the floor within a handful of slots; once misses
    /// stop, the integral unwinds at `target` per slot and the cap
    /// recovers fully, never overshooting `BIT_PLANES`.
    #[test]
    fn pi_step_response_sheds_then_recovers_without_overshoot() {
        let pi = PiConfig::default();
        let mut ctl = LayerController::new(DegradeConfig {
            pi: Some(pi),
            ..DegradeConfig::default()
        })
        .expect("valid");
        // Onset: the proportional term alone sheds several planes on
        // the very first overloaded slot.
        let first = ctl.observe_feedback(0, 1, 0, 50, 100);
        assert!(first < BIT_PLANES, "P term reacts immediately");
        // Sustained overload: the integral winds up to the clamp and
        // the cap settles at the floor.
        let mut prev = first;
        for _ in 0..20 {
            prev = ctl.observe_feedback(0, 1, 0, 50, 100);
        }
        assert_eq!(prev, 0);
        assert_eq!(ctl.integral_q16(), pi.integral_max_q16);
        // Recovery: zero misses unwind the integral; the cap climbs
        // monotonically back to full quality and stays there.
        for _ in 0..400 {
            let l = ctl.observe_feedback(0, 1, 0, 0, 100);
            assert!(l >= prev, "recovery is monotone");
            assert!(l <= BIT_PLANES, "no overshoot past full quality");
            prev = l;
        }
        assert_eq!(prev, BIT_PLANES);
        assert_eq!(ctl.integral_q16(), 0);
    }

    /// Anti-windup: however long the overload lasts, the integral
    /// never exceeds its clamp and the output never sheds below
    /// `min_layers`.
    #[test]
    fn pi_anti_windup_respects_clamps() {
        let pi = PiConfig::default();
        let mut ctl = LayerController::new(DegradeConfig {
            min_layers: 2,
            pi: Some(pi),
            ..DegradeConfig::default()
        })
        .expect("valid");
        for _ in 0..10_000 {
            let l = ctl.observe_feedback(0, 1, 0, 100, 100);
            assert!(l >= 2, "output clamp holds the floor");
            assert!(ctl.integral_q16() <= pi.integral_max_q16);
            assert!(ctl.integral_q16() >= 0);
        }
        // Bounded recovery: the clamped integral unwinds in
        // `integral_max / target` slots, not "however long the
        // overload lasted".
        let budget = (pi.integral_max_q16 / pi.target_miss_q16 + BIT_PLANES as i64) as usize;
        let mut level = 0;
        for _ in 0..budget * 2 {
            level = ctl.observe_feedback(0, 1, 0, 0, 100);
        }
        assert_eq!(level, BIT_PLANES);
    }

    #[test]
    fn hysteresis_band_holds_steady() {
        let mut ctl = LayerController::new(DegradeConfig::default()).expect("valid");
        let level = ctl.observe(150, 100, 0);
        // Utilisation inside (restore_below, shed_above): no movement.
        for _ in 0..10 {
            assert_eq!(ctl.observe(95, 100, 0), level);
        }
    }
}
