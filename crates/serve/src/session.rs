//! The multi-session server: slotted multiplexing of admitted sessions
//! over one shared link.
//!
//! [`ServerSim`] runs an open-loop [`Workload`] through
//! a slotted server: every slot it drains the slot's arrivals from a
//! slot-ordered arrival queue, then its departures and retries from a
//! per-slot calendar (together, scheduling order),
//! asks the [`crate::AdmissionController`] about each
//! arrival, lets the [`crate::LayerController`] pick
//! the slot's FGS layer cap, and then divides the link capacity over
//! the active sessions with a max-min fair water-filling allocation.
//! Since PR 7 the loop itself lives in the incremental
//! [`ServerEngine`]; this runner injects the whole workload up front
//! and steps the engine to the horizon.
//!
//! A session that falls further than the deadline allowance behind is
//! charged a *deadline miss* for the slot (utility zero, stale bits
//! purged) — the client skipped ahead. Everything the report exposes is
//! a deterministic function of `(config, workload)`, which is what lets
//! experiment E12 shard (seed × load) points across
//! [`dms_sim::ParRunner`] and still diff byte-for-byte against a
//! single-threaded run.

use dms_sim::FaultPlan;

use crate::admission::{AdmissionPolicy, CapacityModel};
use crate::degrade::DegradeConfig;
use crate::engine::ServerEngine;
use crate::error::ServeError;
use crate::faults::{FaultReport, RecoveryConfig};
use crate::metrics::ServeMetricsSink;
use crate::workload::Workload;

/// Full configuration of one server run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Link capacity and admission bound.
    pub capacity: CapacityModel,
    /// How arrivals are vetted.
    pub policy: AdmissionPolicy,
    /// Layer-shedding QoS controller; `None` disables degradation
    /// (sessions always request every decodable layer).
    pub degrade: Option<DegradeConfig>,
    /// Per-session playout buffer, in slots of full-quality demand.
    pub buffer_slots: u64,
    /// Deadline allowance: a backlog beyond this many slots of
    /// full-quality demand is a miss. Must be `< buffer_slots`.
    pub miss_slots: u64,
}

impl ServerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] naming the offending
    /// field; propagates nested validations.
    pub fn validate(&self) -> Result<(), ServeError> {
        self.capacity.validate()?;
        if let Some(d) = self.degrade {
            d.validate()?;
        }
        if self.miss_slots == 0 {
            return Err(ServeError::InvalidParameter("miss_slots"));
        }
        if self.buffer_slots <= self.miss_slots {
            return Err(ServeError::InvalidParameter("buffer_slots"));
        }
        Ok(())
    }

    /// Validates the configuration against a concrete per-slot demand
    /// and returns the `(buffer, miss)` bit thresholds.
    ///
    /// The thresholds are `buffer_slots * full_bits` and
    /// `miss_slots * full_bits`; both products are `checked_mul`s, so a
    /// large-but-individually-valid config fails loudly instead of
    /// silently wrapping in release builds.
    ///
    /// # Errors
    ///
    /// Propagates [`ServerConfig::validate`]; returns
    /// [`ServeError::InvalidParameter`] naming the slot count whose
    /// threshold overflows `u64`.
    pub fn validate_for(&self, full_bits: u64) -> Result<(u64, u64), ServeError> {
        self.validate()?;
        let buffer_bits = self
            .buffer_slots
            .checked_mul(full_bits)
            .ok_or(ServeError::InvalidParameter("buffer_slots"))?;
        let miss_bits = self
            .miss_slots
            .checked_mul(full_bits)
            .ok_or(ServeError::InvalidParameter("miss_slots"))?;
        Ok((buffer_bits, miss_bits))
    }
}

/// What one server run measured.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerReport {
    /// Sessions the workload offered.
    pub offered: u64,
    /// Sessions admitted / rejected by the controller.
    pub admitted: u64,
    /// Sessions turned away at arrival.
    pub rejected: u64,
    /// Active session-slots served (the denominator of the rates).
    pub session_slots: u64,
    /// Session-slots charged as deadline misses.
    pub deadline_misses: u64,
    /// Sum of per-session-slot utilities (misses contribute zero).
    pub utility_sum: f64,
    /// Bits actually delivered over the link.
    pub delivered_bits: u64,
    /// Bits dropped because a session's playout buffer overflowed.
    pub buffer_dropped_bits: u64,
    /// Stale bits purged by deadline-miss skips.
    pub purged_bits: u64,
    /// Slot-mean of the M/M/1/K-predicted occupancy (frames).
    pub predicted_occupancy: f64,
    /// Slot-mean of the measured backlog (frames) — the predictor's
    /// ground truth.
    pub measured_occupancy: f64,
    /// Slot-mean FGS layer cap actually served (quality ceiling).
    pub mean_layers: f64,
    /// Slots simulated.
    pub slots: u64,
}

impl ServerReport {
    /// Deadline misses per active session-slot (0 for an idle run).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.session_slots == 0 {
            return 0.0;
        }
        self.deadline_misses as f64 / self.session_slots as f64
    }

    /// Mean per-session-slot utility in `[0, 1]` (0 for an idle run).
    #[must_use]
    pub fn mean_utility(&self) -> f64 {
        if self.session_slots == 0 {
            return 0.0;
        }
        self.utility_sum / self.session_slots as f64
    }

    /// Fraction of offered sessions turned away.
    #[must_use]
    pub fn rejection_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.rejected as f64 / self.offered as f64
    }
}

/// The slotted multi-session server simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSim {
    config: ServerConfig,
}

impl ServerSim {
    /// Creates a server for a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`ServerConfig::validate`] failures.
    pub fn new(config: ServerConfig) -> Result<Self, ServeError> {
        config.validate()?;
        Ok(ServerSim { config })
    }

    /// Runs `workload` to its horizon and reports what happened.
    ///
    /// Arrivals are pre-scheduled in generation order, before any
    /// departure, so they all take the engine's arrival queue: same-slot
    /// arrivals drain FIFO by session id and always ahead of same-slot
    /// departures (departures are scheduled later, at admission time) —
    /// admission is thus deliberately conservative at the slot edge.
    ///
    /// # Errors
    ///
    /// Propagates template validation errors; fails if the config's
    /// buffer/deadline thresholds overflow at this template's demand
    /// ([`ServerConfig::validate_for`]).
    pub fn run(&self, workload: &Workload) -> Result<ServerReport, ServeError> {
        self.run_instrumented(workload, None)
    }

    /// Runs `workload` under a compiled [`FaultPlan`]: link-rate
    /// degradation windows scale the slot capacity, slot stalls zero
    /// it, corruption bursts lose a fraction of each slot's grants in
    /// flight, and crash bursts abort active sessions (releasing their
    /// buffer reservations into `lost_to_fault_bits` — nothing leaks).
    ///
    /// With `Some(recovery)` the server additionally *recovers*:
    /// crashed and playout-timed-out sessions retry admission with
    /// exponential backoff, the multiplexer detects stalls, and
    /// admission control re-plans against the measured effective
    /// capacity whenever the link is not keeping up. With `None` the
    /// faults land on the nominal server (the uncontrolled arm of
    /// experiment E13).
    ///
    /// An empty plan reproduces [`ServerSim::run`] exactly — the fault
    /// path adds no randomness (the plan pre-compiled all of it), so
    /// faulted runs shard across `dms_sim::ParRunner` byte-identically
    /// just like nominal ones.
    ///
    /// # Errors
    ///
    /// Same contract as [`ServerSim::run`]; additionally propagates
    /// [`RecoveryConfig::validate`] failures.
    pub fn run_faulted(
        &self,
        workload: &Workload,
        faults: &FaultPlan,
        recovery: Option<&RecoveryConfig>,
        sink: Option<&mut ServeMetricsSink>,
    ) -> Result<FaultReport, ServeError> {
        if let Some(rec) = recovery {
            rec.validate()?;
        }
        self.run_core(workload, Some(faults), recovery, sink)
    }

    /// [`ServerSim::run`] with an optional per-slot metrics sink.
    ///
    /// With `Some(sink)`, one sample per slot of admissions / active
    /// sessions / end-of-slot backlog / layer cap / deadline misses is
    /// recorded, plus the total bits enqueued into playout buffers.
    /// With `None` the loop does no recording work beyond a single
    /// `Option` check per slot — no allocation, no extra branching.
    ///
    /// # Errors
    ///
    /// Same contract as [`ServerSim::run`].
    pub fn run_instrumented(
        &self,
        workload: &Workload,
        sink: Option<&mut ServeMetricsSink>,
    ) -> Result<ServerReport, ServeError> {
        Ok(self.run_core(workload, None, None, sink)?.base)
    }

    /// The one slotted server loop every public runner delegates to —
    /// now a thin batch driver over the incremental
    /// [`ServerEngine`]: inject every workload offer up front, step to
    /// the horizon, finish. The engine is the offer-source seam shared
    /// with `dms-net`'s socket driver, so synthetic and socket offers
    /// run the same admission/multiplexing/recovery code path; its
    /// slot loop is bit-identical to the seed implementation (pinned
    /// against [`crate::ReferenceServerSim`] by differential proptests
    /// and the golden run-logs).
    fn run_core(
        &self,
        workload: &Workload,
        faults: Option<&FaultPlan>,
        recovery: Option<&RecoveryConfig>,
        mut sink: Option<&mut ServeMetricsSink>,
    ) -> Result<FaultReport, ServeError> {
        let mut engine = ServerEngine::with_faults(
            &self.config,
            workload.template,
            workload.slots,
            faults,
            recovery,
        )?;
        for &req in &workload.sessions {
            engine.offer(req);
        }
        while engine.step_slot(sink.as_deref_mut()) {}
        Ok(engine.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{rate_for_load, ArrivalProcess, SessionTemplate};

    fn config(sessions: u64, template: &SessionTemplate, policy: AdmissionPolicy) -> ServerConfig {
        ServerConfig {
            capacity: CapacityModel {
                link_bits_per_slot: sessions * template.full_bits(),
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy,
            degrade: Some(DegradeConfig::default()),
            buffer_slots: 4,
            miss_slots: 2,
        }
    }

    fn run_at_load(load: f64, policy: AdmissionPolicy, degrade: bool, seed: u64) -> ServerReport {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let mut cfg = config(20, &template, policy);
        if !degrade {
            cfg.degrade = None;
        }
        let rate = rate_for_load(load, &template, cfg.capacity.link_bits_per_slot);
        let workload = Workload::generate(ArrivalProcess::Poisson { rate }, template, 600, seed)
            .expect("valid");
        ServerSim::new(cfg)
            .expect("valid")
            .run(&workload)
            .expect("runs")
    }

    #[test]
    fn config_validation() {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let good = config(10, &template, AdmissionPolicy::AdmitAll);
        assert!(ServerSim::new(good).is_ok());
        let mut c = good;
        c.miss_slots = 0;
        assert!(ServerSim::new(c).is_err());
        let mut c = good;
        c.buffer_slots = c.miss_slots; // buffer must exceed allowance
        assert!(ServerSim::new(c).is_err());
        let mut c = good;
        c.capacity.link_bits_per_slot = 0;
        assert!(ServerSim::new(c).is_err());
    }

    #[test]
    fn light_load_serves_everyone_at_full_quality() {
        let r = run_at_load(0.5, AdmissionPolicy::QueuePredictor, true, 7);
        assert!(r.admitted > 0);
        assert_eq!(r.rejected, 0, "half-load must admit everyone");
        assert_eq!(r.deadline_misses, 0);
        assert!(r.mean_utility() > 0.99, "utility {}", r.mean_utility());
        assert!(r.buffer_dropped_bits == 0);
        assert!(r.measured_occupancy < 1.0);
    }

    #[test]
    fn uncontrolled_overload_collapses() {
        let r = run_at_load(1.5, AdmissionPolicy::AdmitAll, false, 7);
        assert_eq!(r.rejected, 0);
        assert!(
            r.miss_rate() > 0.2,
            "sustained 1.5x overload must miss deadlines, got {}",
            r.miss_rate()
        );
        assert!(r.purged_bits > 0);
    }

    #[test]
    fn controlled_overload_stays_bounded() {
        let uncontrolled = run_at_load(1.5, AdmissionPolicy::AdmitAll, false, 7);
        let controlled = run_at_load(1.5, AdmissionPolicy::QueuePredictor, true, 7);
        assert!(controlled.rejected > 0, "overload must turn sessions away");
        assert!(
            controlled.miss_rate() < uncontrolled.miss_rate() / 5.0,
            "controlled {} vs uncontrolled {}",
            controlled.miss_rate(),
            uncontrolled.miss_rate()
        );
        assert!(
            controlled.mean_utility() > uncontrolled.mean_utility(),
            "controlled {} vs uncontrolled {}",
            controlled.mean_utility(),
            uncontrolled.mean_utility()
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let a = run_at_load(1.2, AdmissionPolicy::QueuePredictor, true, 42);
        let b = run_at_load(1.2, AdmissionPolicy::QueuePredictor, true, 42);
        assert_eq!(a, b);
        let c = run_at_load(1.2, AdmissionPolicy::QueuePredictor, true, 43);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn predictor_tracks_measured_occupancy_under_poisson() {
        let r = run_at_load(0.8, AdmissionPolicy::QueuePredictor, true, 11);
        // Both should be small and same order of magnitude; the
        // prediction is of the *transmit queue*, the measurement of the
        // playout backlog, so only coarse agreement is expected.
        assert!(r.predicted_occupancy > 0.0);
        assert!(r.predicted_occupancy < f64::from(r.slots as u32));
        assert!(
            r.measured_occupancy < 8.0,
            "measured {}",
            r.measured_occupancy
        );
    }

    /// Regression: `run` used to compute `buffer_slots * full_bits` /
    /// `miss_slots * full_bits` unchecked, so a large-but-valid config
    /// silently wrapped in release builds (and aborted in debug).
    #[test]
    fn huge_slot_thresholds_fail_validation_instead_of_wrapping() {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let mut cfg = config(10, &template, AdmissionPolicy::QueuePredictor);
        cfg.buffer_slots = u64::MAX;
        cfg.miss_slots = u64::MAX - 1;
        // Slot counts alone are valid (buffer > miss > 0)...
        let sim = ServerSim::new(cfg).expect("slot counts alone are valid");
        assert!(cfg.validate().is_ok());
        // ...but the bit thresholds overflow at this template's demand.
        assert!(matches!(
            cfg.validate_for(template.full_bits()),
            Err(ServeError::InvalidParameter("buffer_slots"))
        ));
        let workload = Workload::generate(ArrivalProcess::Poisson { rate: 0.5 }, template, 10, 1)
            .expect("valid");
        assert!(matches!(
            sim.run(&workload),
            Err(ServeError::InvalidParameter("buffer_slots"))
        ));
        // The largest non-overflowing threshold still validates.
        let mut cfg = config(10, &template, AdmissionPolicy::QueuePredictor);
        cfg.buffer_slots = u64::MAX / template.full_bits();
        cfg.miss_slots = cfg.buffer_slots - 1;
        assert!(cfg.validate_for(template.full_bits()).is_ok());
    }

    #[test]
    fn instrumented_run_matches_report_and_plain_run() {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let cfg = config(20, &template, AdmissionPolicy::QueuePredictor);
        let rate = rate_for_load(1.2, &template, cfg.capacity.link_bits_per_slot);
        let workload =
            Workload::generate(ArrivalProcess::Poisson { rate }, template, 600, 7).expect("valid");
        let sim = ServerSim::new(cfg).expect("valid");
        let plain = sim.run(&workload).expect("runs");
        let mut sink = crate::metrics::ServeMetricsSink::with_capacity(600);
        let instrumented = sim
            .run_instrumented(&workload, Some(&mut sink))
            .expect("runs");
        assert_eq!(plain, instrumented, "sink must not perturb the run");
        assert_eq!(
            sink.utility().len() as u64,
            plain.slots,
            "one sample per slot"
        );
        let mut registry = dms_sim::MetricsRegistry::new();
        sink.export(&mut registry, "server");
        let total = |name: &str| match registry.get(&format!("server/{name}")) {
            Some(dms_sim::Metric::Series(values)) => values.iter().sum::<f64>(),
            other => panic!("{name} is not an exported series: {other:?}"),
        };
        assert_eq!(total("admitted"), plain.admitted as f64);
        assert_eq!(total("deadline_misses"), plain.deadline_misses as f64);
        assert_eq!(
            total("active"),
            plain.session_slots as f64,
            "active session-slots must match the report"
        );
        // Conservation: everything accounted leaving the buffers is
        // bounded by what entered them.
        assert!(
            plain.delivered_bits + plain.buffer_dropped_bits + plain.purged_bits
                <= sink.enqueued_bits()
        );
    }

    fn faulted_setup(load: f64) -> (ServerConfig, Workload) {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let cfg = config(20, &template, AdmissionPolicy::QueuePredictor);
        let rate = rate_for_load(load, &template, cfg.capacity.link_bits_per_slot);
        let workload =
            Workload::generate(ArrivalProcess::Poisson { rate }, template, 600, 7).expect("valid");
        (cfg, workload)
    }

    #[test]
    fn empty_fault_plan_reproduces_the_nominal_run() {
        let (cfg, workload) = faulted_setup(1.2);
        let sim = ServerSim::new(cfg).expect("valid");
        let nominal = sim.run(&workload).expect("runs");
        let faulted = sim
            .run_faulted(&workload, &dms_sim::FaultPlan::none(600), None, None)
            .expect("runs");
        assert_eq!(faulted.base, nominal, "no faults must change nothing");
        assert_eq!(faulted.crashed, 0);
        assert_eq!(faulted.lost_to_fault_bits, 0);
        assert_eq!(faulted.stall_slots, 0);
    }

    #[test]
    fn link_degradation_costs_utility_and_is_accounted() {
        let (cfg, workload) = faulted_setup(0.8);
        let sim = ServerSim::new(cfg).expect("valid");
        let plan = dms_sim::FaultPlan::compile(
            &[dms_sim::FaultSpec::LinkDegradation {
                start_slot: 200,
                duration_slots: 60,
                factor: 0.2,
            }],
            600,
            1,
        )
        .expect("valid");
        let nominal = sim.run(&workload).expect("runs");
        let faulted = sim.run_faulted(&workload, &plan, None, None).expect("runs");
        assert_eq!(faulted.degraded_slots, 60);
        assert!(
            faulted.base.utility_sum < nominal.utility_sum,
            "a 60-slot 0.2x fade must cost utility"
        );
        assert!(
            faulted.base.mean_layers < nominal.mean_layers,
            "the shedding controller must react to the faded link"
        );
    }

    #[test]
    fn crash_releases_reservations_and_recovery_readmits() {
        let (cfg, workload) = faulted_setup(0.8);
        let sim = ServerSim::new(cfg).expect("valid");
        let plan = dms_sim::FaultPlan::compile(
            &[dms_sim::FaultSpec::CrashBurst {
                slot: 300,
                fraction: 0.5,
            }],
            600,
            1,
        )
        .expect("valid");
        let recovery = crate::faults::RecoveryConfig::default();
        let without = sim.run_faulted(&workload, &plan, None, None).expect("runs");
        assert!(without.crashed > 0, "half the active set must crash");
        assert_eq!(without.retries, 0);
        let with = sim
            .run_faulted(&workload, &plan, Some(&recovery), None)
            .expect("runs");
        assert_eq!(with.crashed, without.crashed, "same plan, same victims");
        assert!(with.retries > 0, "recovery must schedule retries");
        assert!(
            with.readmitted > 0,
            "at 0.8x load retried sessions must fit again"
        );
        assert!(
            with.base.session_slots > without.base.session_slots,
            "readmitted sessions serve slots the unrecovered run loses"
        );
        // First-offer ledger is untouched by retries.
        assert_eq!(with.base.admitted + with.base.rejected, with.base.offered);
    }

    #[test]
    fn stalls_are_detected_and_capacity_reestimated() {
        let (cfg, workload) = faulted_setup(0.8);
        let sim = ServerSim::new(cfg).expect("valid");
        let plan = dms_sim::FaultPlan::compile(
            &[dms_sim::FaultSpec::SlotStalls {
                start_slot: 300,
                duration_slots: 6,
            }],
            600,
            1,
        )
        .expect("valid");
        let recovery = crate::faults::RecoveryConfig::default();
        let faulted = sim
            .run_faulted(&workload, &plan, Some(&recovery), None)
            .expect("runs");
        assert_eq!(faulted.stall_slots, 6);
        assert!(
            faulted.stalls_detected >= 1,
            "a 6-slot stall exceeds the 3-slot window"
        );
        assert!(
            faulted.capacity_reestimates >= 2,
            "estimate must drop into the stall and restore after it"
        );
    }

    #[test]
    fn corruption_loses_bits_in_flight() {
        let (cfg, workload) = faulted_setup(0.8);
        let sim = ServerSim::new(cfg).expect("valid");
        let plan = dms_sim::FaultPlan::compile(
            &[dms_sim::FaultSpec::CorruptionBurst {
                start_slot: 200,
                duration_slots: 50,
                p_good_to_bad: 1.0,
                p_bad_to_good: 0.0,
                loss_good: 0.0,
                loss_bad: 0.3,
            }],
            600,
            1,
        )
        .expect("valid");
        let nominal = sim.run(&workload).expect("runs");
        let faulted = sim.run_faulted(&workload, &plan, None, None).expect("runs");
        assert!(faulted.lost_to_fault_bits > 0);
        assert!(faulted.base.delivered_bits < nominal.delivered_bits);
        assert!(faulted.base.utility_sum < nominal.utility_sum);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let (cfg, workload) = faulted_setup(1.0);
        let sim = ServerSim::new(cfg).expect("valid");
        let specs = [
            dms_sim::FaultSpec::LinkDegradation {
                start_slot: 150,
                duration_slots: 40,
                factor: 0.5,
            },
            dms_sim::FaultSpec::CrashBurst {
                slot: 250,
                fraction: 0.3,
            },
            dms_sim::FaultSpec::CorruptionBurst {
                start_slot: 150,
                duration_slots: 40,
                p_good_to_bad: 0.01,
                p_bad_to_good: 0.1,
                loss_good: 0.001,
                loss_bad: 0.5,
            },
        ];
        let recovery = crate::faults::RecoveryConfig::default();
        let run = || {
            let plan = dms_sim::FaultPlan::compile(&specs, 600, 99).expect("valid");
            sim.run_faulted(&workload, &plan, Some(&recovery), None)
                .expect("runs")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_workload_reports_idle() {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let workload = Workload {
            sessions: Vec::new(),
            template,
            slots: 50,
        };
        let cfg = config(10, &template, AdmissionPolicy::QueuePredictor);
        let r = ServerSim::new(cfg)
            .expect("valid")
            .run(&workload)
            .expect("runs");
        assert_eq!(r.session_slots, 0);
        assert_eq!(r.miss_rate(), 0.0);
        assert_eq!(r.mean_utility(), 0.0);
        assert_eq!(r.rejection_rate(), 0.0);
        assert_eq!(r.delivered_bits, 0);
    }
}
