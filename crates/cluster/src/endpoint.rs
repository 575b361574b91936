//! The fleet endpoint: the workspace's only cluster dispatcher.
//!
//! [`FleetEndpoint`] accepts offers one at a time in non-decreasing
//! slot order. The batch [`ClusterSim::dispatch`](crate::ClusterSim::dispatch)
//! and the adaptive [`AdaptiveSim::dispatch`](crate::AdaptiveSim::dispatch)
//! feed it sorted workloads. Both produce bit-identical routing for
//! the same offers because they *are* the same code path. Retries
//! and re-offers merge by one `(slot, arrival-order)` discipline: a
//! dynamic offer strictly earlier than the next injected offer routes
//! first; ties go to the injected offer (initial offers precede
//! dynamic ones at equal slots).
//!
//! Dynamic offers wait in a *retry calendar*: one FIFO per slot before
//! the horizon, indexed by slot, and a cursor at the first slot that
//! may hold one. Routing files retries at least one slot ahead, so a
//! slot's FIFO is complete before it routes and routes whole. A
//! retry or re-offer due at or after the horizon can never route: it
//! is counted as a balancer rejection when it is filed and never
//! enters the calendar. Counting it then is exact: an expired offer
//! changes nothing but that counter (it would reach neither the
//! balancer nor the controller), so it need not wait its turn.
//!
//! Two kinds of *edge* interleave with the offers: shard deaths from
//! the fault list and, when [`AdaptiveSim`](crate::AdaptiveSim)
//! attaches its controller, control boundaries. An edge at slot `b`
//! fires once no offer before `b` remains — after every offer at
//! `b - 1`, before any offer at `b`. A death and a scale-in drain take
//! a shard down through one path: the balancer routes around it from
//! `b`, the sessions in flight on it are re-offered to the survivors
//! with their remaining duration, and its reservations are released.
//! Re-offers land after `b`, possibly before the calendar's cursor,
//! which then moves back to them. Since every edge at or before a slot
//! fires with its first offer, later offers at that slot skip the
//! merge.

use std::borrow::Cow;

use dms_serve::{RecoveryConfig, ServeError, SessionRequest, SessionTemplate, Workload};

use crate::adaptive::Controller;
use crate::balancer::{Balancer, Route, ShardState};
use crate::cluster::{ClusterConfig, DispatchReport, ShardFault};

/// One offer in the dispatch stream; its slot is where it is filed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Offer {
    id: u64,
    duration_slots: u64,
    attempt: u32,
}

/// The incremental cluster dispatcher: offers in (non-decreasing slot
/// order), per-shard workloads and a routing ledger out.
#[derive(Debug)]
pub struct FleetEndpoint {
    slots: u64,
    template: SessionTemplate,
    recovery: RecoveryConfig,
    states: Vec<ShardState>,
    /// One balancer per controller arm; a static fleet has exactly one.
    balancers: Vec<Balancer>,
    /// The adaptive fleet's control loop. `None` on every other path,
    /// which then does no controller work at all.
    controller: Option<Controller>,
    /// Shard deaths in slot order; each taken down exactly once, when
    /// the offer stream passes its slot.
    deaths: Vec<(u64, usize)>,
    next_death: usize,
    /// The retry calendar: `calendar[s]` holds the retries and
    /// take-down re-offers due at slot `s`, first in first out, for
    /// every slot before the horizon.
    calendar: Vec<Vec<Offer>>,
    /// No offer waits in `calendar` before this slot.
    calendar_cursor: u64,
    sessions: Vec<Vec<SessionRequest>>,
    /// Per shard, `(arrival, depart, id)` of the sessions a take-down
    /// could strand. Recorded only where one can strike — a shard with
    /// a fault `down_from`, or any shard under a controller — so a
    /// static fault-free fleet holds none.
    in_flight: Vec<Vec<(u64, u64, u64)>>,
    report: DispatchReport,
    /// Slot of the latest injected offer; `None` before the first.
    last_offer_slot: Option<u64>,
    /// Every shard has released the reservations departing before
    /// this slot.
    released_to: u64,
}

impl FleetEndpoint {
    /// Builds an endpoint whose balancer routes around the shard
    /// deaths in `faults` (empty, or one entry per shard).
    /// `per_shard_hint` pre-sizes the per-shard session lists.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] on a fault-list length
    /// mismatch; propagates config/template validation.
    pub fn with_faults(
        config: &ClusterConfig,
        template: SessionTemplate,
        slots: u64,
        faults: &[ShardFault],
        per_shard_hint: usize,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        template.validate()?;
        if !faults.is_empty() && faults.len() != config.shards.len() {
            return Err(ServeError::InvalidParameter("faults"));
        }
        let shard_count = config.shards.len();
        let states: Vec<ShardState> = config
            .shards
            .iter()
            .enumerate()
            .map(|(i, cfg)| {
                ShardState::new(
                    cfg.capacity,
                    template.full_bits(),
                    faults.get(i).and_then(|f| f.down_from),
                    slots,
                )
            })
            .collect::<Result<_, _>>()?;
        let mut deaths: Vec<(u64, usize)> = faults
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.down_from.map(|d| (d, i)))
            .collect();
        deaths.sort_unstable();
        Ok(FleetEndpoint {
            slots,
            template,
            recovery: config.recovery,
            states,
            balancers: vec![Balancer::new(config.balancer, config.seed)],
            controller: None,
            deaths,
            next_death: 0,
            calendar: vec![Vec::new(); usize::try_from(slots).expect("slot horizon fits usize")],
            calendar_cursor: 0,
            sessions: (0..shard_count)
                .map(|_| Vec::with_capacity(per_shard_hint))
                .collect(),
            in_flight: vec![Vec::new(); shard_count],
            report: DispatchReport {
                shard_sessions: vec![0; shard_count],
                ..DispatchReport::default()
            },
            last_offer_slot: None,
            released_to: 0,
        })
    }

    /// Attaches the adaptive fleet's control loop before the first
    /// offer: one balancer per controller arm (seeded like the
    /// config's), spare shards parked until provisioned.
    pub(crate) fn attach(&mut self, controller: Controller, seed: u64) {
        self.balancers = controller
            .arms()
            .iter()
            .map(|&policy| Balancer::new(policy, seed))
            .collect();
        controller.park(&mut self.states);
        self.controller = Some(controller);
    }

    /// Offers one session to the fleet. Offers must arrive in
    /// non-decreasing `slot` order — same-slot offers keep call order,
    /// exactly like the batch pass keeps workload order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] if `slot` goes
    /// backwards.
    pub fn offer(&mut self, id: u64, slot: u64, duration_slots: u64) -> Result<(), ServeError> {
        match self.last_offer_slot {
            Some(last) if slot < last => return Err(ServeError::InvalidParameter("offer_slot")),
            // The first offer at this slot advanced the stream to it.
            Some(last) if slot == last => {}
            _ => {
                self.last_offer_slot = Some(slot);
                self.advance(Some(slot));
            }
        }
        self.report.offered += 1;
        if slot >= self.slots || duration_slots == 0 {
            // Past the end of the run or nothing to play: a rejection,
            // never a session the shards saw — keeps
            // `admitted + rejected == offered` exact at the cluster
            // level.
            self.report.balancer_rejected += 1;
            return Ok(());
        }
        self.route(
            slot,
            Offer {
                id,
                duration_slots,
                attempt: 0,
            },
        );
        Ok(())
    }

    /// Offers every session of `workload` in arrival order.
    /// `Workload::generate` emits arrivals in slot order, and those are
    /// offered in place; a hand-built workload out of order is offered
    /// from a stable-sorted copy, preserving workload order among
    /// same-slot offers — the endpoint's FIFO contract.
    pub(crate) fn offer_workload(&mut self, workload: &Workload) -> Result<(), ServeError> {
        let mut sessions = Cow::Borrowed(workload.sessions.as_slice());
        if !sessions.is_sorted_by_key(|s| s.arrival_slot) {
            sessions.to_mut().sort_by_key(|s| s.arrival_slot);
        }
        for s in sessions.iter() {
            self.offer(s.id, s.arrival_slot, s.duration_slots)?;
        }
        Ok(())
    }

    /// Runs the stream to completion — remaining deaths harvested,
    /// remaining retries resolved — and returns the per-shard
    /// workloads plus the ledger. The batch
    /// [`ClusterSim::dispatch`](crate::ClusterSim::dispatch) is
    /// exactly `offer()` over a sorted workload followed by this.
    #[must_use]
    pub fn finish(self) -> (Vec<Workload>, DispatchReport) {
        let (workloads, report, _) = self.finish_controlled();
        (workloads, report)
    }

    /// [`FleetEndpoint::finish`] that also hands back the attached
    /// controller, its final partial window closed at the horizon.
    pub(crate) fn finish_controlled(
        mut self,
    ) -> (Vec<Workload>, DispatchReport, Option<Controller>) {
        self.advance(None);
        if let Some(controller) = self.controller.as_mut() {
            controller.close(self.slots, &mut self.states);
        }
        let (template, slots) = (self.template, self.slots);
        let workloads = self
            .sessions
            .into_iter()
            .map(|s| Workload {
                sessions: s,
                template,
                slots,
            })
            .collect();
        (workloads, self.report, self.controller)
    }

    /// Processes edges and dynamic offers that must precede the next
    /// injected offer (`upcoming = Some(slot)`) or the end of the
    /// stream (`None`). An edge — a shard death or a control boundary
    /// — fires once no offer before its slot remains; a dynamic offer
    /// routes only while strictly earlier than the next injected one.
    fn advance(&mut self, upcoming: Option<u64>) {
        // The calendar holds only slots before the horizon.
        let end = upcoming.map_or(self.slots, |u| u.min(self.slots));
        loop {
            while self.calendar_cursor < end
                && self.calendar[self.calendar_cursor as usize].is_empty()
            {
                self.calendar_cursor += 1;
            }
            let waiting = self.calendar_cursor < end;
            let next_slot = if waiting {
                Some(self.calendar_cursor)
            } else {
                upcoming
            };
            let reached = |edge: u64| next_slot.is_none_or(|s| s >= edge);
            if let Some(&(death_slot, _)) = self.deaths.get(self.next_death) {
                if reached(death_slot) {
                    self.harvest_death();
                    continue;
                }
            }
            // Boundaries before the horizon only. No caller combines a
            // controller with deaths, so the two edge kinds never race.
            if let Some(controller) = self.controller.as_mut() {
                let b = controller.next_boundary();
                if b < self.slots && reached(b) {
                    if let Some(shard) = controller.step(b, true, &mut self.states) {
                        self.take_down(shard, b);
                    }
                    continue;
                }
            }
            if !waiting {
                break;
            }
            // Every edge up to this slot has fired, and routing files
            // only later slots: the FIFO routes whole.
            let slot = self.calendar_cursor;
            for offer in std::mem::take(&mut self.calendar[slot as usize]) {
                self.route(slot, offer);
            }
        }
    }

    /// Files a retry or re-offer due at `slot`. One due at or after
    /// the horizon can never route, so it is a rejection now.
    fn file(&mut self, slot: u64, offer: Offer) {
        if slot >= self.slots {
            self.report.balancer_rejected += 1;
            return;
        }
        self.calendar[slot as usize].push(offer);
        self.calendar_cursor = self.calendar_cursor.min(slot);
    }

    /// Takes the next shard death from the fault list down.
    fn harvest_death(&mut self) {
        let (death_slot, shard) = self.deaths[self.next_death];
        self.next_death += 1;
        self.take_down(shard, death_slot);
    }

    /// Takes `shard` down at slot `b` — a crash death or a scale-in
    /// drain alike. The balancer routes around it from `b`; the
    /// sessions then in flight on it are re-offered to the survivors
    /// with their remaining duration after the first backoff delay
    /// (the cross-shard leg of the retry path); its reservations are
    /// released.
    fn take_down(&mut self, shard: usize, b: u64) {
        self.states[shard].set_down_from(Some(b));
        let due = b.saturating_add(self.recovery.backoff_slots(0));
        for (arrival, depart, id) in std::mem::take(&mut self.in_flight[shard]) {
            // Active at the edge, like the in-shard crash burst:
            // arrived before `b`, with playout left past it.
            if arrival < b && depart > b {
                self.report.rerouted += 1;
                self.file(
                    due,
                    Offer {
                        id,
                        duration_slots: depart - b,
                        attempt: 1,
                    },
                );
            }
        }
        self.states[shard].release_all();
    }

    /// Routes one offer due at `slot` (before the horizon, with
    /// playout left) through the active balancer.
    fn route(&mut self, slot: u64, offer: Offer) {
        // Once per slot: a second release at the same slot frees
        // nothing, as a reservation made below departs after its
        // offer's slot, never behind the release cursor.
        if slot > self.released_to {
            for state in &mut self.states {
                state.release_until(slot);
            }
            self.released_to = slot;
        }
        let arm = self.controller.as_ref().map_or(0, Controller::arm);
        let route = self.balancers[arm].route(&mut self.states, slot);
        if let Some(controller) = self.controller.as_mut() {
            controller.observe(route, &mut self.states);
        }
        match route {
            Route::To(shard) => {
                // The duration may come from a peer: saturate, as the
                // serve engine does, rather than wrap the reservation.
                let depart = slot.saturating_add(offer.duration_slots);
                self.states[shard].reserve(depart);
                self.sessions[shard].push(SessionRequest {
                    id: offer.id,
                    arrival_slot: slot,
                    duration_slots: offer.duration_slots,
                });
                self.report.shard_sessions[shard] += 1;
                self.report.dispatched += 1;
                if self.controller.is_some() || self.states[shard].dies() {
                    self.in_flight[shard].push((slot, depart, offer.id));
                }
            }
            Route::Refused => {
                if offer.attempt < self.recovery.max_retries {
                    self.report.retries += 1;
                    let due = slot.saturating_add(self.recovery.backoff_slots(offer.attempt));
                    self.file(
                        due,
                        Offer {
                            attempt: offer.attempt + 1,
                            ..offer
                        },
                    );
                } else {
                    self.report.balancer_rejected += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::BalancerPolicy;
    use crate::cluster::ClusterSim;
    use dms_serve::{
        rate_for_load, AdmissionPolicy, ArrivalProcess, CapacityModel, DegradeConfig, ServerConfig,
    };
    use dms_sim::FaultPlan;

    fn shard_config(sessions: u64, template: &SessionTemplate) -> ServerConfig {
        ServerConfig {
            capacity: CapacityModel {
                link_bits_per_slot: sessions * template.full_bits(),
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy: AdmissionPolicy::AdmitAll,
            degrade: Some(DegradeConfig::default()),
            buffer_slots: 4,
            miss_slots: 2,
        }
    }

    fn workload(load: f64, capacity_sessions: u64, slots: u64, seed: u64) -> Workload {
        let mut template = SessionTemplate::streaming_default().expect("preset valid");
        template.mean_duration_slots = 40.0;
        let rate = rate_for_load(load, &template, capacity_sessions * template.full_bits());
        Workload::generate(ArrivalProcess::Poisson { rate }, template, slots, seed)
            .expect("valid workload")
    }

    fn config(shards: Vec<ServerConfig>, balancer: BalancerPolicy) -> ClusterConfig {
        ClusterConfig {
            shards,
            balancer,
            recovery: RecoveryConfig::default(),
            seed: 99,
        }
    }

    /// The seam contract, cluster edition: incremental offers through
    /// the endpoint must reproduce the batch dispatch bit for bit —
    /// including under shard deaths and every balancer policy.
    #[test]
    fn endpoint_matches_batch_dispatch() {
        let wl = workload(1.3, 200, 120, 42);
        let template = wl.template;
        let faults = [
            ShardFault::default(),
            ShardFault {
                plan: FaultPlan::none(120),
                down_from: Some(60),
            },
        ];
        for balancer in [
            BalancerPolicy::RoundRobin,
            BalancerPolicy::JoinShortestQueue,
            BalancerPolicy::PowerOfTwoChoices,
        ] {
            for fault_arm in [&[][..], &faults[..]] {
                let cfg = config(
                    vec![shard_config(150, &template), shard_config(50, &template)],
                    balancer,
                );
                let sim = ClusterSim::new(cfg.clone()).expect("valid");
                let (batch_wls, batch_report) =
                    sim.dispatch(&wl, fault_arm).expect("dispatch runs");

                let mut ep = FleetEndpoint::with_faults(&cfg, template, wl.slots, fault_arm, 64)
                    .expect("valid");
                let mut order: Vec<usize> = (0..wl.sessions.len()).collect();
                order.sort_by_key(|&i| wl.sessions[i].arrival_slot);
                for &i in &order {
                    let s = wl.sessions[i];
                    ep.offer(s.id, s.arrival_slot, s.duration_slots)
                        .expect("sorted offers");
                }
                let (ep_wls, ep_report) = ep.finish();
                assert_eq!(ep_report, batch_report, "{balancer:?}");
                assert_eq!(ep_wls.len(), batch_wls.len());
                for (a, b) in ep_wls.iter().zip(&batch_wls) {
                    assert_eq!(a.sessions, b.sessions, "{balancer:?}");
                }
            }
        }
    }

    #[test]
    fn offers_must_not_go_backwards() {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let cfg = config(
            vec![shard_config(100, &template)],
            BalancerPolicy::RoundRobin,
        );
        let mut ep = FleetEndpoint::with_faults(&cfg, template, 100, &[], 64).expect("valid");
        ep.offer(1, 10, 5).expect("in order");
        assert_eq!(
            ep.offer(2, 9, 5).unwrap_err(),
            ServeError::InvalidParameter("offer_slot")
        );
    }

    /// A peer can send any duration: `slot + duration` saturates
    /// instead of wrapping the reservation into the past, where it
    /// would be released at once and skew routing.
    #[test]
    fn huge_duration_saturates_the_reservation() {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let cfg = config(
            vec![shard_config(100, &template), shard_config(100, &template)],
            BalancerPolicy::JoinShortestQueue,
        );
        let mut ep = FleetEndpoint::with_faults(&cfg, template, 100, &[], 64).expect("valid");
        ep.offer(1, 5, u64::MAX).expect("in order");
        ep.offer(2, 6, 10).expect("in order");
        let (_, report) = ep.finish();
        assert_eq!(report.shard_sessions, vec![1, 1]);
    }

    /// A fault-free endpoint without a controller records no in-flight
    /// victims, however saturated: at 10^6 sessions that list would be
    /// the fleet dispatch's largest allocation.
    #[test]
    fn static_path_records_no_in_flight_victims() {
        let wl = workload(1.5, 80, 200, 13);
        let template = wl.template;
        let cfg = config(
            vec![shard_config(40, &template), shard_config(40, &template)],
            BalancerPolicy::JoinShortestQueue,
        );
        let mut ep = FleetEndpoint::with_faults(&cfg, template, wl.slots, &[], 64).expect("valid");
        ep.offer_workload(&wl).expect("sorted offers");
        ep.advance(None);
        assert!(ep.report.retries > 0, "a 1.5x-load fleet saturates");
        assert!(ep.report.dispatched > 0);
        assert!(ep.in_flight.iter().all(Vec::is_empty));
    }
}
