//! The fleet dispatcher against a naive oracle.
//!
//! `FleetEndpoint` releases reservations once per slot, counts them in
//! sessions, caches each shard's JSQ fraction, rebuilds its live-shard
//! list once per slot, answers its mirror predicates from an admission
//! frontier, files retries in a slot-indexed calendar (counting one due
//! past the horizon as rejected when it is filed) and merges edges once
//! per distinct offer slot. The batch `ClusterSim::dispatch` runs that
//! same code, so comparing the two cannot catch a change to it. The
//! oracle here shares none of it: before every offer it drops departed
//! reservations from a plain `(depart, bits)` list, recomputes every
//! fraction, rebuilds the live list and asks `AdmissionController`
//! directly. Retries and death re-offers wait in a map by slot, expire
//! when they come up, and merge into the offer stream by the documented
//! rule: an offer routes in `(slot, arrival order)` order, injected
//! offers before dynamic ones at equal slots, and a shard death at slot
//! `b` fires once no offer before `b` remains.

use std::collections::{BTreeMap, VecDeque};

use dms_cluster::{
    BalancerPolicy, ClusterConfig, ClusterSim, DispatchReport, FleetEndpoint, ShardFault,
};
use dms_serve::{
    rate_for_load, AdmissionController, AdmissionPolicy, ArrivalProcess, CapacityModel,
    RecoveryConfig, ServerConfig, SessionRequest, SessionTemplate, Workload,
};
use dms_sim::SimRng;
use proptest::prelude::*;

/// One offer in the oracle's stream.
#[derive(Debug, Clone, Copy)]
struct Offer {
    slot: u64,
    id: u64,
    duration_slots: u64,
    attempt: u32,
}

/// The naive dispatcher: every piece of state in its plainest form.
struct Oracle {
    slots: u64,
    bits: u64,
    recovery: RecoveryConfig,
    policy: BalancerPolicy,
    rr_cursor: usize,
    rng: SimRng,
    mirrors: Vec<AdmissionController>,
    /// Per shard, `(depart, bits)` of every unreleased reservation.
    reservations: Vec<Vec<(u64, u64)>>,
    down_from: Vec<Option<u64>>,
    /// Per shard, `(arrival, depart, id)` of every session routed to it.
    in_flight: Vec<Vec<(u64, u64, u64)>>,
    /// Retries and re-offers by slot, first in first out.
    dynamic: BTreeMap<u64, VecDeque<Offer>>,
    sessions: Vec<Vec<SessionRequest>>,
    report: DispatchReport,
}

impl Oracle {
    fn new(config: &ClusterConfig, template: &SessionTemplate, slots: u64) -> Self {
        let bits = template.full_bits();
        let n = config.shards.len();
        Oracle {
            slots,
            bits,
            recovery: config.recovery,
            policy: config.balancer,
            rr_cursor: 0,
            rng: SimRng::new(config.seed).substream("cluster-p2c", 0),
            mirrors: config
                .shards
                .iter()
                .map(|s| {
                    AdmissionController::new(s.capacity, AdmissionPolicy::QueuePredictor, bits)
                        .expect("valid shard")
                })
                .collect(),
            reservations: vec![Vec::new(); n],
            down_from: vec![None; n],
            in_flight: vec![Vec::new(); n],
            dynamic: BTreeMap::new(),
            sessions: vec![Vec::new(); n],
            report: DispatchReport {
                shard_sessions: vec![0; n],
                ..DispatchReport::default()
            },
        }
    }

    fn reserved(&self, shard: usize) -> u64 {
        self.reservations[shard].iter().map(|&(_, b)| b).sum()
    }

    fn fraction(&self, shard: usize) -> f64 {
        self.reserved(shard) as f64 / self.mirrors[shard].model().link_bits_per_slot as f64
    }

    fn admits(&self, shard: usize) -> bool {
        self.mirrors[shard].would_admit(self.reserved(shard), self.bits)
    }

    fn occupancy_with(&self, shard: usize) -> f64 {
        self.mirrors[shard].predicted_occupancy(self.reserved(shard) + self.bits)
    }

    fn schedule(&mut self, offer: Offer) {
        self.dynamic.entry(offer.slot).or_default().push_back(offer);
    }

    /// The shard an offer at `slot` goes to, or `None` if refused.
    fn pick(&mut self, slot: u64) -> Option<usize> {
        let live: Vec<usize> = (0..self.mirrors.len())
            .filter(|&i| self.down_from[i].is_none_or(|d| slot < d))
            .collect();
        if live.is_empty() {
            return None;
        }
        match self.policy {
            BalancerPolicy::RoundRobin => {
                let pick = live[self.rr_cursor % live.len()];
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
                Some(pick)
            }
            BalancerPolicy::JoinShortestQueue => {
                let mut pick = live[0];
                for &i in &live[1..] {
                    if self.fraction(i) < self.fraction(pick) {
                        pick = i;
                    }
                }
                self.admits(pick).then_some(pick)
            }
            BalancerPolicy::PowerOfTwoChoices => {
                let a = live[self.rng.below(live.len())];
                let b = live[self.rng.below(live.len())];
                let pick = if self.occupancy_with(b) < self.occupancy_with(a) {
                    b
                } else {
                    a
                };
                self.admits(pick).then_some(pick)
            }
        }
    }

    fn route(&mut self, offer: Offer) {
        if offer.slot >= self.slots || offer.duration_slots == 0 {
            self.report.balancer_rejected += 1;
            return;
        }
        for list in &mut self.reservations {
            list.retain(|&(depart, _)| depart >= offer.slot);
        }
        match self.pick(offer.slot) {
            Some(shard) => {
                let depart = offer.slot.saturating_add(offer.duration_slots);
                self.reservations[shard].push((depart, self.bits));
                self.in_flight[shard].push((offer.slot, depart, offer.id));
                self.sessions[shard].push(SessionRequest {
                    id: offer.id,
                    arrival_slot: offer.slot,
                    duration_slots: offer.duration_slots,
                });
                self.report.shard_sessions[shard] += 1;
                self.report.dispatched += 1;
            }
            None if offer.attempt < self.recovery.max_retries => {
                self.report.retries += 1;
                self.schedule(Offer {
                    slot: offer
                        .slot
                        .saturating_add(self.recovery.backoff_slots(offer.attempt)),
                    attempt: offer.attempt + 1,
                    ..offer
                });
            }
            None => self.report.balancer_rejected += 1,
        }
    }

    fn take_down(&mut self, shard: usize, b: u64) {
        self.down_from[shard] = Some(b);
        for (arrival, depart, id) in std::mem::take(&mut self.in_flight[shard]) {
            if arrival < b && depart > b {
                self.report.rerouted += 1;
                self.schedule(Offer {
                    slot: b.saturating_add(self.recovery.backoff_slots(0)),
                    id,
                    duration_slots: depart - b,
                    attempt: 1,
                });
            }
        }
        self.reservations[shard].clear();
    }

    fn dispatch(
        mut self,
        workload: &Workload,
        faults: &[ShardFault],
    ) -> (Vec<Vec<SessionRequest>>, DispatchReport) {
        let mut injected = workload.sessions.clone();
        injected.sort_by_key(|s| s.arrival_slot);
        let mut injected = injected.into_iter().peekable();
        let mut deaths: Vec<(u64, usize)> = faults
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.down_from.map(|d| (d, i)))
            .collect();
        deaths.sort_unstable();
        let mut deaths = deaths.into_iter().peekable();
        loop {
            let next_injected = injected.peek().map(|s| s.arrival_slot);
            let next_dynamic = self.dynamic.keys().next().copied();
            let next_offer = match (next_injected, next_dynamic) {
                (Some(i), Some(d)) => Some(i.min(d)),
                (i, d) => i.or(d),
            };
            if let Some(&(b, shard)) = deaths.peek() {
                if next_offer.is_none_or(|s| s >= b) {
                    deaths.next();
                    self.take_down(shard, b);
                    continue;
                }
            }
            let dynamic_first = match (next_injected, next_dynamic) {
                (Some(i), Some(d)) => d < i,
                (None, Some(_)) => true,
                (_, None) => false,
            };
            if dynamic_first {
                let mut entry = self.dynamic.first_entry().expect("peeked non-empty");
                let offer = entry.get_mut().pop_front().expect("no empty slot is kept");
                if entry.get().is_empty() {
                    entry.remove();
                }
                self.route(offer);
            } else if let Some(s) = injected.next() {
                self.report.offered += 1;
                self.route(Offer {
                    slot: s.arrival_slot,
                    id: s.id,
                    duration_slots: s.duration_slots,
                    attempt: 0,
                });
            } else {
                break;
            }
        }
        (self.sessions, self.report)
    }
}

const POLICIES: [BalancerPolicy; 3] = [
    BalancerPolicy::RoundRobin,
    BalancerPolicy::JoinShortestQueue,
    BalancerPolicy::PowerOfTwoChoices,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The endpoint routes exactly as the naive oracle does: the same
    /// per-shard workloads and the same dispatch ledger, over fleets of
    /// 1–8 shards of unequal capacity, loads 0.3–1.8, every policy,
    /// and up to three shard deaths at independent slots: slot 0, any
    /// slot of the run (where take-down re-offers land before retries
    /// already waiting), or at and past the horizon. A third of the
    /// cases back off by `u64::MAX` slots, the largest base
    /// `RecoveryConfig` accepts: every retry and re-offer then
    /// saturates past the horizon and expires as a balancer rejection.
    /// Both the batch `ClusterSim::dispatch` and a `FleetEndpoint`
    /// offered one session per call must match.
    #[test]
    fn endpoint_matches_the_naive_oracle(
        capacities in proptest::collection::vec(4u64..41, 1..9),
        bound in 1.0f64..16.0,
        load in 0.3f64..1.8,
        policy in 0usize..3,
        deaths in proptest::collection::vec((0usize..8, 0u8..3, 0u64..160), 0..=3),
        recovery in (prop_oneof![1u64..6, 1u64..6, Just(u64::MAX)], 1u64..3, 0u32..5),
        slots in 80u64..160,
        duration in 10.0f64..40.0,
        seed in 0u64..1_000_000,
    ) {
        let mut template = SessionTemplate::streaming_default().expect("preset valid");
        template.mean_duration_slots = duration;
        let shards: Vec<ServerConfig> = capacities
            .iter()
            .map(|&sessions| ServerConfig {
                capacity: CapacityModel {
                    link_bits_per_slot: sessions * template.full_bits(),
                    queue_frames: 64,
                    occupancy_bound: bound,
                },
                policy: AdmissionPolicy::AdmitAll,
                degrade: None,
                buffer_slots: 4,
                miss_slots: 2,
            })
            .collect();
        let total: u64 = capacities.iter().sum();
        let rate = rate_for_load(load, &template, total * template.full_bits());
        let workload = Workload::generate(ArrivalProcess::Poisson { rate }, template, slots, seed)
            .expect("valid workload");
        let config = ClusterConfig {
            shards,
            balancer: POLICIES[policy],
            recovery: RecoveryConfig {
                backoff_base_slots: recovery.0,
                backoff_factor: recovery.1,
                max_retries: recovery.2,
                ..RecoveryConfig::default()
            },
            seed,
        };
        let mut faults = Vec::new();
        if !deaths.is_empty() {
            faults = vec![ShardFault::default(); capacities.len()];
            for &(shard, at, x) in &deaths {
                faults[shard % capacities.len()].down_from = Some(match at {
                    0 => 0,
                    1 => x % slots,
                    _ => slots + x % 40,
                });
            }
        }

        let (workloads, report) = ClusterSim::new(config.clone())
            .expect("valid config")
            .dispatch(&workload, &faults)
            .expect("dispatch runs");
        let (sessions, oracle) =
            Oracle::new(&config, &template, slots).dispatch(&workload, &faults);
        prop_assert_eq!(&report, &oracle);
        prop_assert_eq!(workloads.len(), sessions.len());
        for (shard, (w, s)) in workloads.iter().zip(&sessions).enumerate() {
            prop_assert_eq!(&w.sessions, s, "shard {}", shard);
        }

        let mut endpoint = FleetEndpoint::with_faults(&config, template, slots, &faults, 0)
            .expect("valid config");
        let mut offers = workload.sessions.clone();
        offers.sort_by_key(|s| s.arrival_slot);
        for s in &offers {
            endpoint
                .offer(s.id, s.arrival_slot, s.duration_slots)
                .expect("offers in slot order");
        }
        let (workloads, report) = endpoint.finish();
        prop_assert_eq!(&report, &oracle);
        for (shard, (w, s)) in workloads.iter().zip(&sessions).enumerate() {
            prop_assert_eq!(&w.sessions, s, "shard {} per call", shard);
        }
    }
}
