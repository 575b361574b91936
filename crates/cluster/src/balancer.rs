//! Pluggable session balancers over the shard set.
//!
//! The paper's §2.2 methodology — cheap analytical models consulted at
//! runtime — extends from one server to a fleet: the balancer holds a
//! *mirror* M/M/1/K admission predictor per shard
//! ([`dms_serve::AdmissionController`] with the
//! [`AdmissionPolicy::QueuePredictor`] policy) and routes each arriving
//! session with nothing more than those predictors plus a per-shard
//! reserved-capacity ledger. Shard replicas themselves run admit-all:
//! in this cluster the admission intelligence lives entirely at the
//! balancer, which is what makes the smart policies *global* admission
//! control rather than N local ones.
//!
//! Each `ShardState` keeps its reservations as bits per departure
//! slot, from a release cursor up to the horizon: a reservation adds
//! its bits to one slot and a release pops each slot it passes, both in
//! O(1), where a heap of reservations paid O(log n) per push and pop.
//! It also keeps its JSQ fraction, recomputed only when its reserved
//! bits change, and its mirror's admission frontier
//! ([`AdmissionMemo`]), so a routing decision does no M/M/1/K
//! evaluation and no division. The `Balancer` rebuilds its list of
//! live shards once per slot, not once per offer.
//!
//! All three policies are deterministic functions of the dispatch
//! history: round-robin keeps a cursor, join-shortest-queue compares
//! ledgers, and power-of-two-choices draws its candidate pair from a
//! seeded [`SimRng`] substream that advances once per decision. The
//! dispatcher calls them from a single sequential pass over the offer
//! stream, so routing is byte-identical at any `DMS_THREADS`.

use std::collections::VecDeque;

use dms_serve::{AdmissionController, AdmissionMemo, AdmissionPolicy, CapacityModel, ServeError};
use dms_sim::SimRng;

/// Which balancing policy routes sessions to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancerPolicy {
    /// Cycle through the live shards in index order, blind to load.
    /// The skew baseline: it overloads small shards exactly as an
    /// oblivious fronted would.
    RoundRobin,
    /// Route to the live shard with the lowest *reserved fraction*
    /// (reserved bits over shard capacity), then admit only if that
    /// shard's mirror predictor accepts the added demand.
    JoinShortestQueue,
    /// Draw two live candidates from a seeded stream, keep the one
    /// with the lower predicted M/M/1/K occupancy, admit through its
    /// mirror predictor. Classic power-of-two-choices: almost all of
    /// JSQ's balance for a fraction of its state inspection.
    PowerOfTwoChoices,
}

impl BalancerPolicy {
    /// Stable label used in metric scopes and experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BalancerPolicy::RoundRobin => "rr",
            BalancerPolicy::JoinShortestQueue => "jsq",
            BalancerPolicy::PowerOfTwoChoices => "p2c",
        }
    }
}

/// The balancer's view of one shard: the mirror admission predictor
/// plus the reserved-capacity ledger it feeds.
#[derive(Debug, Clone)]
pub(crate) struct ShardState {
    /// Mirror M/M/1/K predictor over this shard's capacity model. The
    /// shard replica itself runs admit-all; this mirror is the *only*
    /// admission decision for sessions routed by the smart policies.
    mirror: AdmissionController,
    /// Capacity of the shard, bits per slot (for load normalisation).
    capacity_bits: u64,
    /// Aggregate full-quality demand of sessions currently routed
    /// here, bits per slot.
    reserved_bits: u64,
    /// `reserved_bits / capacity_bits`, the JSQ metric, updated
    /// wherever `reserved_bits` changes.
    fraction: f64,
    /// Memo over the mirror's M/M/1/K evaluations. Every offer in this
    /// cluster demands exactly `frame_bits`, so the reserved ledger
    /// stays a whole number of frames and the mirror's predicate and
    /// occupancy depend only on the session count: the predicate is
    /// one comparison against the admission frontier, searched once
    /// per capacity, and each occupancy is evaluated once per count.
    memo: AdmissionMemo,
    /// Reserved bits by departure slot: `departures[i]` departs at
    /// `cursor + i`. A reservation departing at or after `horizon` is
    /// never released before [`ShardState::release_all`] (the
    /// endpoint releases no later than the horizon), so it is not
    /// stored.
    departures: VecDeque<u64>,
    /// Every departure before this slot has been released.
    cursor: u64,
    /// Reserved bits whose departure was already behind the cursor;
    /// the next release frees them.
    overdue: u64,
    /// The endpoint's horizon in slots.
    horizon: u64,
    /// First slot at which the shard is dead, if it dies.
    down_from: Option<u64>,
    /// First slot at which the shard serves traffic; `None` = from
    /// slot 0. The autoscaler parks spare shards at `u64::MAX` and
    /// rewrites this on activation.
    up_from: Option<u64>,
}

impl ShardState {
    pub(crate) fn new(
        capacity: CapacityModel,
        frame_bits: u64,
        down_from: Option<u64>,
        horizon: u64,
    ) -> Result<Self, ServeError> {
        Ok(ShardState {
            mirror: AdmissionController::new(
                capacity,
                AdmissionPolicy::QueuePredictor,
                frame_bits,
            )?,
            capacity_bits: capacity.link_bits_per_slot,
            reserved_bits: 0,
            fraction: 0.0,
            memo: AdmissionMemo::new(),
            // Sized once to the most slots it can hold, so a
            // reservation never reallocates it.
            departures: VecDeque::with_capacity(
                usize::try_from(horizon).expect("slot horizon fits usize"),
            ),
            cursor: 0,
            overdue: 0,
            horizon,
            down_from,
            up_from: None,
        })
    }

    /// Whether the shard serves traffic at `slot`.
    pub(crate) fn alive(&self, slot: u64) -> bool {
        self.up_from.is_none_or(|u| slot >= u) && self.down_from.is_none_or(|d| slot < d)
    }

    /// Whether the shard dies at some point of the run.
    pub(crate) fn dies(&self) -> bool {
        self.down_from.is_some()
    }

    /// Re-stamps the first dead slot (scale-in decision).
    pub(crate) fn set_down_from(&mut self, slot: Option<u64>) {
        self.down_from = slot;
    }

    /// Re-stamps the first served slot (spare parking / activation).
    pub(crate) fn set_up_from(&mut self, slot: Option<u64>) {
        self.up_from = slot;
    }

    /// Predicted mean M/M/1/K occupancy of the *currently* reserved
    /// set — the autoscaler's load signal. Memoised on the
    /// frame-aligned path exactly like the routing predicates, and
    /// bit-identical to the direct evaluation.
    pub(crate) fn current_occupancy(&mut self) -> f64 {
        let frame = self.mirror.frame_bits();
        if self.reserved_bits.is_multiple_of(frame) {
            self.memo
                .predicted_occupancy(&self.mirror, self.reserved_bits / frame)
        } else {
            self.mirror.predicted_occupancy(self.reserved_bits)
        }
    }

    /// Releases reservations of sessions departing *before* `slot`.
    /// Strictly before: the server drains same-slot departures after
    /// same-slot arrivals, so a session departing at `slot` still
    /// holds capacity against arrivals at `slot`. Calls take
    /// non-decreasing slots.
    pub(crate) fn release_until(&mut self, slot: u64) {
        let mut freed = std::mem::take(&mut self.overdue);
        while self.cursor < slot {
            let Some(bits) = self.departures.pop_front() else {
                self.cursor = slot;
                break;
            };
            freed += bits;
            self.cursor += 1;
        }
        if freed > 0 {
            self.set_reserved(self.reserved_bits.saturating_sub(freed));
        }
    }

    /// Releases *every* reservation at once: when a shard is taken
    /// down or the endpoint shuts down, nothing keeps holding
    /// admission capacity.
    pub(crate) fn release_all(&mut self) {
        self.departures.clear();
        self.overdue = 0;
        self.set_reserved(0);
    }

    /// Records a routed session occupying `bits` until `depart_slot`.
    pub(crate) fn reserve(&mut self, depart_slot: u64, bits: u64) {
        self.set_reserved(self.reserved_bits + bits);
        if depart_slot >= self.horizon {
            return;
        }
        let Some(ahead) = depart_slot.checked_sub(self.cursor) else {
            self.overdue += bits;
            return;
        };
        let i = ahead as usize;
        if i >= self.departures.len() {
            self.departures.resize(i + 1, 0);
        }
        self.departures[i] += bits;
    }

    /// Aggregate full-quality demand currently reserved, bits per slot.
    pub(crate) fn reserved_bits(&self) -> u64 {
        self.reserved_bits
    }

    /// Sets the reserved bits and the JSQ fraction with them.
    fn set_reserved(&mut self, bits: u64) {
        self.reserved_bits = bits;
        self.fraction = bits as f64 / self.capacity_bits as f64;
    }

    /// Predicted mean occupancy if `bits` more demand joins. Served
    /// from the memo's per-count cache on the frame-aligned hot path
    /// (both P2C candidates of every offer); bit-identical to the
    /// direct evaluation.
    fn occupancy_with(&mut self, bits: u64) -> f64 {
        let frame = self.mirror.frame_bits();
        if bits == frame && self.reserved_bits.is_multiple_of(frame) {
            self.memo
                .predicted_occupancy(&self.mirror, self.reserved_bits / frame + 1)
        } else {
            self.mirror.predicted_occupancy(self.reserved_bits + bits)
        }
    }

    /// Mirror admission predicate for `bits` more demand, answered
    /// from the memo's admission frontier on the frame-aligned hot
    /// path. Also the bandit's dispatch-time "good routing" oracle
    /// (`pub(crate)` for `adaptive`); pure modulo the memo's frontier
    /// search, whose verdicts equal the direct evaluation.
    pub(crate) fn would_admit(&mut self, bits: u64) -> bool {
        let frame = self.mirror.frame_bits();
        if bits == frame && self.reserved_bits.is_multiple_of(frame) {
            self.memo
                .would_admit(&self.mirror, self.reserved_bits / frame)
        } else {
            self.mirror.would_admit(self.reserved_bits, bits)
        }
    }
}

/// The routing decision for one offered session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Dispatch to this shard index.
    To(usize),
    /// Every live shard's predictor refused (or no shard is live);
    /// the dispatcher sends the offer through the retry/backoff path.
    Refused,
}

/// Sequential balancer state: policy plus the little it carries
/// between decisions (RR cursor, P2C candidate stream).
#[derive(Debug)]
pub(crate) struct Balancer {
    policy: BalancerPolicy,
    cursor: usize,
    rng: SimRng,
    /// Indices of the shards alive at `live_slot`, reused across
    /// every routing decision so the dispatch hot loop never
    /// allocates.
    live: Vec<usize>,
    /// The slot `live` was built for; `None` before the first route.
    live_slot: Option<u64>,
}

impl Balancer {
    pub(crate) fn new(policy: BalancerPolicy, seed: u64) -> Self {
        Balancer {
            policy,
            cursor: 0,
            rng: SimRng::new(seed).substream("cluster-p2c", 0),
            live: Vec::new(),
            live_slot: None,
        }
    }

    /// Picks a shard for a session demanding `bits` per slot arriving
    /// at `slot`. Callers route in non-decreasing slot order, have
    /// released every shard up to `slot` ([`ShardState::release_until`];
    /// once per slot is enough), and change a shard's up/down stamps
    /// only at a slot edge `b`, before any route at `b`, with effect
    /// from `b` on — so the live list is rebuilt only when `slot`
    /// moves. Takes the shards mutably so the per-shard memos can fill
    /// lazily; the decisions are pure functions of the same state as
    /// before.
    pub(crate) fn route(&mut self, shards: &mut [ShardState], slot: u64, bits: u64) -> Route {
        if self.live_slot != Some(slot) {
            self.live.clear();
            self.live
                .extend((0..shards.len()).filter(|&i| shards[i].alive(slot)));
            self.live_slot = Some(slot);
        }
        if self.live.is_empty() {
            return Route::Refused;
        }
        match self.policy {
            BalancerPolicy::RoundRobin => {
                // Oblivious: no mirror consultation, no refusal. The
                // cursor indexes the *live* list so a dead shard drops
                // out of rotation without stalling it.
                let pick = self.live[self.cursor % self.live.len()];
                self.cursor = self.cursor.wrapping_add(1);
                Route::To(pick)
            }
            BalancerPolicy::JoinShortestQueue => {
                let pick = self
                    .live
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        shards[a]
                            .fraction
                            .total_cmp(&shards[b].fraction)
                            .then(a.cmp(&b))
                    })
                    .expect("live set is non-empty");
                if shards[pick].would_admit(bits) {
                    Route::To(pick)
                } else {
                    Route::Refused
                }
            }
            BalancerPolicy::PowerOfTwoChoices => {
                // Two draws from the candidate stream even when the
                // live set is a singleton, so the stream position (and
                // with it every later decision) does not depend on
                // when shards die.
                let ia = self.rng.below(self.live.len());
                let a = self.live[ia];
                let ib = self.rng.below(self.live.len());
                let b = self.live[ib];
                // Same comparison (and evaluation order) as the seed:
                // `b` strictly better wins, ties keep `a`.
                let occ_b = shards[b].occupancy_with(bits);
                let occ_a = shards[a].occupancy_with(bits);
                let pick = if occ_b < occ_a { b } else { a };
                if shards[pick].would_admit(bits) {
                    Route::To(pick)
                } else {
                    Route::Refused
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(sessions: u64) -> CapacityModel {
        CapacityModel {
            link_bits_per_slot: sessions * 1_000,
            queue_frames: 64,
            occupancy_bound: 8.0,
        }
    }

    fn states(caps: &[u64]) -> Vec<ShardState> {
        caps.iter()
            .map(|&c| ShardState::new(model(c), 1_000, None, 100).expect("valid"))
            .collect()
    }

    #[test]
    fn round_robin_cycles_live_shards() {
        let mut shards = states(&[100, 100, 100]);
        let mut b = Balancer::new(BalancerPolicy::RoundRobin, 7);
        let picks: Vec<Route> = (0..6).map(|_| b.route(&mut shards, 0, 1_000)).collect();
        assert_eq!(
            picks,
            vec![
                Route::To(0),
                Route::To(1),
                Route::To(2),
                Route::To(0),
                Route::To(1),
                Route::To(2)
            ]
        );
    }

    #[test]
    fn jsq_prefers_emptier_shard_and_refuses_when_full() {
        let mut shards = states(&[100, 100]);
        shards[0].reserve(50, 40_000);
        let mut b = Balancer::new(BalancerPolicy::JoinShortestQueue, 7);
        assert_eq!(b.route(&mut shards, 0, 1_000), Route::To(1));
        // Saturate both far past the occupancy bound: refused.
        shards[0].reserve(50, 90_000);
        shards[1].reserve(50, 130_000);
        assert_eq!(b.route(&mut shards, 0, 1_000), Route::Refused);
    }

    #[test]
    fn dead_shards_drop_out_of_every_policy() {
        let mut shards = states(&[100, 100]);
        shards[0].down_from = Some(10);
        for policy in [
            BalancerPolicy::RoundRobin,
            BalancerPolicy::JoinShortestQueue,
            BalancerPolicy::PowerOfTwoChoices,
        ] {
            let mut b = Balancer::new(policy, 7);
            for _ in 0..8 {
                assert_eq!(b.route(&mut shards, 10, 1_000), Route::To(1), "{policy:?}");
            }
        }
    }

    #[test]
    fn release_is_strict_at_the_slot_edge() {
        let mut shards = states(&[100]);
        shards[0].reserve(5, 1_000);
        shards[0].release_until(5);
        assert_eq!(shards[0].reserved_bits, 1_000, "departing slot still holds");
        shards[0].release_until(6);
        assert_eq!(shards[0].reserved_bits, 0);
    }

    proptest::proptest! {
        /// The slot-indexed ledger holds exactly what a plain list of
        /// `(depart, bits)` reservations holds, over reservations
        /// departing behind the release cursor, before the horizon and
        /// at or after it, non-decreasing releases up to the horizon,
        /// and full releases. It never stores more slots than the
        /// horizon, and the cached JSQ fraction has the bits of the
        /// recomputed one after every operation.
        #[test]
        fn release_ledger_matches_a_list(
            horizon in 1u64..64,
            ops in proptest::collection::vec((0u8..10, 0u64..80, 1u64..5_000), 1..200),
        ) {
            let mut state = ShardState::new(model(100), 1_000, None, horizon).expect("valid");
            let mut list: Vec<(u64, u64)> = Vec::new();
            let mut released_to = 0u64;
            for (kind, x, bits) in ops {
                match kind {
                    0..=5 => {
                        state.reserve(x, bits);
                        list.push((x, bits));
                    }
                    6..=8 => {
                        released_to = (released_to + x % 4).min(horizon);
                        state.release_until(released_to);
                        list.retain(|&(depart, _)| depart >= released_to);
                    }
                    _ => {
                        state.release_all();
                        list.clear();
                    }
                }
                proptest::prop_assert_eq!(
                    state.reserved_bits,
                    list.iter().map(|&(_, b)| b).sum::<u64>()
                );
                proptest::prop_assert_eq!(
                    state.fraction.to_bits(),
                    (state.reserved_bits as f64 / state.capacity_bits as f64).to_bits()
                );
                proptest::prop_assert!(state.departures.len() as u64 <= horizon);
            }
        }
    }
}
