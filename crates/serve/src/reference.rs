//! The pre-arena server implementation, retained as a differential
//! oracle and perf baseline.
//!
//! [`ReferenceServerSim`] is the seed `ServerSim` hot loop, verbatim:
//! a `Vec<ActiveSession>` active set paying O(n) `retain` per
//! departure, a per-offer admission-predictor call per arrival, and the
//! binary-heap event queue ([`dms_sim::EventQueue`]). It exists for two
//! reasons:
//!
//! * **Correctness** — the arena-backed [`crate::ServerSim`] must
//!   produce *byte-identical* reports (float accumulation order
//!   included) on any `(config, workload, fault plan)`; the
//!   differential proptests in `tests/proptest_serve.rs` drive both
//!   implementations and compare.
//! * **Honest speedup** — the E15 mega-scale sweep reports throughput
//!   relative to this implementation, measured in-tree rather than
//!   against a number remembered from an old commit.
//!
//! Keep this file boring: it should only change when the *semantics*
//! of the server change, never for performance.

use dms_sim::{EventQueue, FaultEvent, FaultPlan, SimTime};

use crate::admission::AdmissionController;
use crate::degrade::LayerController;
use crate::error::ServeError;
use crate::faults::{FaultReport, RecoveryConfig};
use crate::metrics::ServeMetricsSink;
use crate::session::{ServerConfig, ServerReport};
use crate::workload::Workload;

/// Event payload of the reference server's slotted event loop.
#[derive(Debug, Clone, Copy)]
enum RefEvent {
    /// Index into `workload.sessions`.
    Arrive(usize),
    /// Activation to deactivate.
    Depart(u64),
    /// A crashed or timed-out session re-offering itself after backoff.
    Retry {
        idx: usize,
        attempt: u32,
        remaining: u64,
    },
}

#[derive(Debug)]
struct ActiveSession {
    id: u64,
    act: u64,
    idx: usize,
    depart_slot: u64,
    consecutive_misses: u64,
    attempt: u32,
    backlog_bits: u64,
}

/// The seed (pre-arena) slotted multi-session server. See the module
/// docs for why it is kept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceServerSim {
    config: ServerConfig,
}

impl ReferenceServerSim {
    /// Creates a reference server for a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`ServerConfig::validate`] failures, and returns
    /// [`ServeError::InvalidParameter`] for the one degrade
    /// configuration the seed loop does not model, the PI shedding law
    /// (`pi`). It runs the hysteresis law only.
    pub fn new(config: ServerConfig) -> Result<Self, ServeError> {
        config.validate()?;
        if config.degrade.is_some_and(|d| d.pi.is_some()) {
            return Err(ServeError::InvalidParameter("pi"));
        }
        Ok(ReferenceServerSim { config })
    }

    /// Seed equivalent of [`crate::ServerSim::run`].
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::ServerSim::run`].
    pub fn run(&self, workload: &Workload) -> Result<ServerReport, ServeError> {
        Ok(self.run_core(workload, None, None, None)?.base)
    }

    /// Seed equivalent of [`crate::ServerSim::run_faulted`].
    ///
    /// Test oracle: the differential proptests in
    /// `tests/proptest_serve.rs` (such as
    /// `arena_engine_matches_reference_faulted`) compare the engine's
    /// faulted runs against it.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::ServerSim::run_faulted`].
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

    /// The seed slot loop, kept byte-for-byte semantically identical to
    /// the pre-arena `ServerSim::run_core`.
    #[allow(clippy::too_many_lines)] // verbatim seed loop, kept linear for auditability
    fn run_core(
        &self,
        workload: &Workload,
        faults: Option<&FaultPlan>,
        recovery: Option<&RecoveryConfig>,
        mut sink: Option<&mut ServeMetricsSink>,
    ) -> Result<FaultReport, ServeError> {
        let template = workload.template;
        template.validate()?;
        let cfg = &self.config;
        let full_bits = template.full_bits();
        let (buffer_bits, miss_bits) = cfg.validate_for(full_bits)?;
        let nominal_bits = cfg.capacity.link_bits_per_slot;

        let mut admission = AdmissionController::new(cfg.capacity, cfg.policy, full_bits)?;
        let mut degrade = cfg.degrade.map(LayerController::new).transpose()?;

        let mut queue = EventQueue::with_capacity(workload.sessions.len() * 2);
        for (idx, s) in workload.sessions.iter().enumerate() {
            queue.schedule(SimTime::from_ticks(s.arrival_slot), RefEvent::Arrive(idx));
        }

        let mut active: Vec<ActiveSession> = Vec::new();
        let mut due: Vec<RefEvent> = Vec::new();
        let mut grants: Vec<u64> = Vec::new();
        let mut order: Vec<usize> = Vec::new();
        let mut report = FaultReport {
            base: ServerReport {
                offered: workload.sessions.len() as u64,
                slots: workload.slots,
                ..ServerReport::default()
            },
            ..FaultReport::default()
        };

        let fault_events = faults.map_or(&[][..], FaultPlan::events);
        let mut fault_cursor = 0usize;
        let mut link_factor = 1.0f64;
        let mut next_act = 0u64;
        let mut stall_streak = 0u64;

        for slot in 0..workload.slots {
            let now = SimTime::from_ticks(slot);
            let admitted_before = admission.admitted();
            let misses_before = report.base.deadline_misses;
            let utility_before = report.base.utility_sum;

            // 1. Apply this slot's scheduled faults, in plan order.
            let mut stalled = false;
            let mut corrupt_loss = 0.0f64;
            while fault_cursor < fault_events.len() && fault_events[fault_cursor].slot <= slot {
                match fault_events[fault_cursor].event {
                    FaultEvent::LinkRate { factor } => link_factor = factor,
                    FaultEvent::LinkRestore => link_factor = 1.0,
                    FaultEvent::SlotStall => stalled = true,
                    FaultEvent::Corrupt { loss } => corrupt_loss = loss,
                    FaultEvent::SessionCrash { fraction } => {
                        let victims =
                            ((active.len() as f64 * fraction).ceil() as usize).min(active.len());
                        for victim in active.drain(active.len() - victims..) {
                            report.crashed += 1;
                            report.lost_to_fault_bits += victim.backlog_bits;
                            if let Some(rec) = recovery {
                                let remaining = victim.depart_slot.saturating_sub(slot);
                                if victim.attempt < rec.max_retries && remaining > 0 {
                                    report.retries += 1;
                                    queue.schedule(
                                        SimTime::from_ticks(
                                            slot.saturating_add(rec.backoff_slots(victim.attempt)),
                                        ),
                                        RefEvent::Retry {
                                            idx: victim.idx,
                                            attempt: victim.attempt,
                                            remaining,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
                fault_cursor += 1;
            }

            // 2. Drain due arrivals / departures / retries.
            due.clear();
            while let Some(ev) = queue.pop_at_or_before(now) {
                due.push(ev.payload);
            }
            for &ev in &due {
                match ev {
                    RefEvent::Arrive(idx) => {
                        let req = workload.sessions[idx];
                        let active_bits = active.len() as u64 * full_bits;
                        if admission.decide(active_bits, full_bits) {
                            let act = next_act;
                            next_act += 1;
                            let depart_slot = slot + req.duration_slots;
                            active.push(ActiveSession {
                                id: req.id,
                                act,
                                idx,
                                depart_slot,
                                consecutive_misses: 0,
                                attempt: 0,
                                backlog_bits: 0,
                            });
                            queue.schedule(SimTime::from_ticks(depart_slot), RefEvent::Depart(act));
                        }
                    }
                    RefEvent::Depart(act) => active.retain(|s| s.act != act),
                    RefEvent::Retry {
                        idx,
                        attempt,
                        remaining,
                    } => {
                        let active_bits = active.len() as u64 * full_bits;
                        if admission.would_admit(active_bits, full_bits) {
                            report.readmitted += 1;
                            let act = next_act;
                            next_act += 1;
                            let depart_slot = slot.saturating_add(remaining);
                            active.push(ActiveSession {
                                id: workload.sessions[idx].id,
                                act,
                                idx,
                                depart_slot,
                                consecutive_misses: 0,
                                attempt: attempt + 1,
                                backlog_bits: 0,
                            });
                            queue.schedule(SimTime::from_ticks(depart_slot), RefEvent::Depart(act));
                        } else {
                            report.retry_rejected += 1;
                            if let Some(rec) = recovery {
                                if attempt + 1 < rec.max_retries {
                                    report.retries += 1;
                                    queue.schedule(
                                        SimTime::from_ticks(
                                            slot.saturating_add(rec.backoff_slots(attempt + 1)),
                                        ),
                                        RefEvent::Retry {
                                            idx,
                                            attempt: attempt + 1,
                                            remaining,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
            }

            let full_demand = active.len() as u64 * full_bits;
            report.base.predicted_occupancy += admission.predicted_occupancy(full_demand);

            // 3. This slot's effective capacity under the fault state.
            let capacity_now = if stalled {
                report.stall_slots += 1;
                0
            } else if link_factor >= 1.0 {
                nominal_bits
            } else {
                report.degraded_slots += 1;
                (nominal_bits as f64 * link_factor).round() as u64
            };

            let carried: u64 = active.iter().map(|s| s.backlog_bits).sum();
            let layers = match degrade.as_mut() {
                Some(ctl) => ctl.observe(full_demand, capacity_now, carried),
                None => template.max_layers,
            };
            report.base.mean_layers += layers.min(template.max_layers) as f64;

            let demand = template.demand_bits(layers);
            let enqueued = demand * active.len() as u64;
            let mut backlog_after = 0u64;
            let mut served = 0u64;
            if !active.is_empty() {
                for s in &mut active {
                    let want = s.backlog_bits + demand;
                    let capped = want.min(buffer_bits);
                    report.base.buffer_dropped_bits += want - capped;
                    s.backlog_bits = capped;
                }

                order.clear();
                order.extend(0..active.len());
                order.sort_by_key(|&i| (active[i].backlog_bits, active[i].id));
                grants.clear();
                grants.resize(active.len(), 0);
                let mut remaining = capacity_now;
                let mut left = order.len() as u64;
                for &i in &order {
                    let share = remaining / left;
                    let grant = active[i].backlog_bits.min(share);
                    grants[i] = grant;
                    remaining -= grant;
                    left -= 1;
                }

                report.base.session_slots += active.len() as u64;
                for (s, &grant) in active.iter_mut().zip(&grants) {
                    s.backlog_bits -= grant;
                    served += grant;
                    let corrupted = if corrupt_loss > 0.0 {
                        ((grant as f64 * corrupt_loss).round() as u64).min(grant)
                    } else {
                        0
                    };
                    report.base.delivered_bits += grant - corrupted;
                    report.lost_to_fault_bits += corrupted;
                    if s.backlog_bits > miss_bits {
                        report.base.deadline_misses += 1;
                        report.base.purged_bits += s.backlog_bits - miss_bits;
                        s.backlog_bits = miss_bits;
                        s.consecutive_misses += 1;
                    } else {
                        s.consecutive_misses = 0;
                        report.base.utility_sum +=
                            template.utility((grant - corrupted).min(full_bits));
                    }
                    backlog_after += s.backlog_bits;
                }

                // 4. Playout-deadline timeout.
                if let Some(rec) = recovery {
                    let mut i = 0;
                    while i < active.len() {
                        if active[i].consecutive_misses >= rec.timeout_miss_slots {
                            let victim = active.remove(i);
                            report.timed_out += 1;
                            backlog_after -= victim.backlog_bits;
                            report.lost_to_fault_bits += victim.backlog_bits;
                            let remaining = victim.depart_slot.saturating_sub(slot + 1);
                            if victim.attempt < rec.max_retries && remaining > 0 {
                                report.retries += 1;
                                queue.schedule(
                                    SimTime::from_ticks(
                                        slot.saturating_add(rec.backoff_slots(victim.attempt)),
                                    ),
                                    RefEvent::Retry {
                                        idx: victim.idx,
                                        attempt: victim.attempt,
                                        remaining,
                                    },
                                );
                            }
                        } else {
                            i += 1;
                        }
                    }
                }

                report.base.measured_occupancy += backlog_after as f64 / full_bits as f64;
            }

            // 5. Stall detection + capacity re-estimation (recovery only).
            if let Some(rec) = recovery {
                if full_demand > 0 && served == 0 {
                    stall_streak += 1;
                    if stall_streak == rec.stall_window_slots {
                        report.stalls_detected += 1;
                    }
                } else {
                    stall_streak = 0;
                }
                let estimate = if backlog_after > 0 {
                    served
                } else {
                    nominal_bits
                };
                if estimate != admission.effective_capacity() {
                    admission.set_effective_capacity(estimate);
                    report.capacity_reestimates += 1;
                }
            }

            if let Some(s) = sink.as_deref_mut() {
                s.record_slot(
                    admission.admitted() - admitted_before,
                    active.len() as u64,
                    backlog_after,
                    layers.min(template.max_layers) as u64,
                    report.base.deadline_misses - misses_before,
                    report.base.utility_sum - utility_before,
                    enqueued,
                );
            }
        }

        report.base.admitted = admission.admitted();
        report.base.rejected = admission.rejected();
        if report.base.slots > 0 {
            report.base.predicted_occupancy /= report.base.slots as f64;
            report.base.measured_occupancy /= report.base.slots as f64;
            report.base.mean_layers /= report.base.slots as f64;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AdmissionPolicy, CapacityModel};
    use crate::degrade::{DegradeConfig, PiConfig};

    fn config(degrade: DegradeConfig) -> ServerConfig {
        ServerConfig {
            capacity: CapacityModel {
                link_bits_per_slot: 1 << 20,
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy: AdmissionPolicy::QueuePredictor,
            degrade: Some(degrade),
            buffer_slots: 4,
            miss_slots: 2,
        }
    }

    /// The seed loop runs only the hysteresis law, so a configuration
    /// asking for the PI law is refused rather than run under a law it
    /// does not ask for.
    #[test]
    fn unmodelled_degrade_laws_are_typed_errors() {
        let pi = DegradeConfig {
            pi: Some(PiConfig::default()),
            ..DegradeConfig::default()
        };
        assert_eq!(
            ReferenceServerSim::new(config(pi)).err(),
            Some(ServeError::InvalidParameter("pi"))
        );
        assert!(ReferenceServerSim::new(config(DegradeConfig::default())).is_ok());
    }
}
