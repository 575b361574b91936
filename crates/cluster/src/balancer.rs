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
//! Every session reserves the same demand, one full-quality frame of
//! the mirror per slot, so each `ShardState` counts sessions, not bits:
//! reserved sessions, sessions departing in each slot before the
//! horizon, and sessions whose departure was already behind the
//! release cursor. A reservation adds one session to its departure
//! slot in O(1), and a release sums the slots it passes. The mirror's
//! predicate and occupancy depend only on the count, so both come from
//! its [`AdmissionMemo`] by count: a routing decision does no M/M/1/K
//! evaluation and no division. The JSQ fraction, reserved bits
//! (`sessions × frame bits`) over capacity bits, is cached and
//! recomputed only when the count changes. The `Balancer` rebuilds its
//! list of live shards once per slot, not once per offer.
//!
//! JSQ's winner changes on almost every offer when the shards carry
//! nearly equal load, so the pick scans the live shards with a strict
//! `<` and selects by value ([`std::hint::select_unpredictable`])
//! rather than by a branch the processor would mispredict. It picks the
//! lowest fraction and, among equal fractions, the lowest index — the
//! order of `total_cmp` then index — because fractions are finite and at
//! least `+0.0`, where `<` agrees with `total_cmp`, and the live list is
//! in index order.
//!
//! All three policies are deterministic functions of the dispatch
//! history: round-robin keeps a cursor, join-shortest-queue compares
//! ledgers, and power-of-two-choices draws its candidate pair from a
//! seeded [`SimRng`] substream that advances once per decision. The
//! dispatcher calls them from a single sequential pass over the offer
//! stream, so routing is byte-identical at any `DMS_THREADS`.

use std::hint::select_unpredictable;

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
/// plus the reserved-capacity ledger it feeds, in sessions of one
/// mirror frame each.
#[derive(Debug, Clone)]
pub(crate) struct ShardState {
    /// Mirror M/M/1/K predictor over this shard's capacity model. The
    /// shard replica itself runs admit-all; this mirror is the *only*
    /// admission decision for sessions routed by the smart policies.
    mirror: AdmissionController,
    /// Capacity of the shard, bits per slot (for load normalisation).
    capacity_bits: u64,
    /// Sessions currently routed here.
    reserved: u64,
    /// `reserved × frame bits / capacity_bits`, the JSQ metric, updated
    /// wherever `reserved` changes.
    fraction: f64,
    /// Memo over the mirror's M/M/1/K evaluations, looked up by
    /// session count: the predicate is one comparison against the
    /// admission frontier, searched once per capacity, and each
    /// occupancy is evaluated once per count.
    memo: AdmissionMemo,
    /// Sessions by departure slot, one entry per slot before the
    /// endpoint's horizon. A reservation departing at or after the
    /// horizon is never released before [`ShardState::release_all`]
    /// (the endpoint releases no later than the horizon), so it is not
    /// stored.
    departures: Vec<u64>,
    /// Every departure before this slot has been released; entries
    /// before it are stale.
    cursor: u64,
    /// Sessions whose departure was already behind the cursor; the
    /// next release frees them.
    overdue: u64,
    /// First slot at which the shard is dead, if it dies.
    down_from: Option<u64>,
    /// First slot at which the shard serves traffic; `None` = from
    /// slot 0. The autoscaler parks spare shards at `u64::MAX` and
    /// rewrites this on activation.
    up_from: Option<u64>,
}

impl ShardState {
    /// A shard of `capacity` whose sessions each demand `frame_bits`
    /// per slot, released by an endpoint whose horizon is `horizon`.
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
            reserved: 0,
            fraction: 0.0,
            memo: AdmissionMemo::new(),
            departures: vec![0; usize::try_from(horizon).expect("slot horizon fits usize")],
            cursor: 0,
            overdue: 0,
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
    /// set — the autoscaler's load signal. Memoised like the routing
    /// predicates, and bit-identical to the direct evaluation.
    pub(crate) fn current_occupancy(&mut self) -> f64 {
        self.memo.predicted_occupancy(&self.mirror, self.reserved)
    }

    /// Releases reservations of sessions departing *before* `slot`.
    /// Strictly before: the server drains same-slot departures after
    /// same-slot arrivals, so a session departing at `slot` still
    /// holds capacity against arrivals at `slot`. Calls take
    /// non-decreasing slots.
    pub(crate) fn release_until(&mut self, slot: u64) {
        let mut freed = std::mem::take(&mut self.overdue);
        if self.cursor < slot {
            let (from, to) = (self.slot_index(self.cursor), self.slot_index(slot));
            freed += self.departures[from..to].iter().sum::<u64>();
            self.cursor = slot;
        }
        if freed > 0 {
            self.set_reserved(self.reserved - freed);
        }
    }

    /// Releases *every* reservation at once: when a shard is taken
    /// down or the endpoint shuts down, nothing keeps holding
    /// admission capacity.
    pub(crate) fn release_all(&mut self) {
        let from = self.slot_index(self.cursor);
        self.departures[from..].fill(0);
        self.overdue = 0;
        self.set_reserved(0);
    }

    /// Records one routed session holding its frame until
    /// `depart_slot`.
    pub(crate) fn reserve(&mut self, depart_slot: u64) {
        self.set_reserved(self.reserved + 1);
        let i = self.slot_index(depart_slot);
        if i == self.departures.len() {
            return;
        }
        if depart_slot < self.cursor {
            self.overdue += 1;
        } else {
            self.departures[i] += 1;
        }
    }

    /// Index of `slot` in `departures`, the horizon at or past it.
    fn slot_index(&self, slot: u64) -> usize {
        usize::try_from(slot).map_or(self.departures.len(), |i| i.min(self.departures.len()))
    }

    /// Aggregate full-quality demand currently reserved, bits per slot.
    pub(crate) fn reserved_bits(&self) -> u64 {
        self.reserved * self.mirror.frame_bits()
    }

    /// Sets the reserved count and the JSQ fraction with it.
    fn set_reserved(&mut self, sessions: u64) {
        self.reserved = sessions;
        self.fraction = self.reserved_bits() as f64 / self.capacity_bits as f64;
    }

    /// Predicted mean occupancy if one more session joins (both P2C
    /// candidates of every offer), from the memo's per-count cache.
    fn occupancy_with_one_more(&mut self) -> f64 {
        self.memo
            .predicted_occupancy(&self.mirror, self.reserved + 1)
    }

    /// Mirror admission predicate for one more session, answered from
    /// the memo's admission frontier. Also the bandit's dispatch-time
    /// "good routing" oracle (`pub(crate)` for `adaptive`); pure modulo
    /// the memo's frontier search, whose verdicts equal the direct
    /// evaluation.
    pub(crate) fn would_admit(&mut self) -> bool {
        self.memo.would_admit(&self.mirror, self.reserved)
    }
}

/// The first index of the lowest fraction among `candidates`, given in
/// index order (see the module doc), selected by value.
fn lowest_fraction(mut candidates: impl Iterator<Item = (usize, f64)>) -> usize {
    let (mut pick, mut best) = candidates.next().expect("live set is non-empty");
    for (i, f) in candidates {
        let lower = f < best;
        pick = select_unpredictable(lower, i, pick);
        best = select_unpredictable(lower, f, best);
    }
    pick
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

    /// Picks a shard for a session arriving at `slot`. Callers route
    /// in non-decreasing slot order, have released every shard up to
    /// `slot` ([`ShardState::release_until`]; once per slot is enough),
    /// and change a shard's up/down stamps only at a slot edge `b`,
    /// before any route at `b`, with effect from `b` on — so the live
    /// list is rebuilt only when `slot` moves. Takes the shards mutably
    /// so the per-shard memos can fill lazily; the decisions are pure
    /// functions of the same state as before.
    pub(crate) fn route(&mut self, shards: &mut [ShardState], slot: u64) -> Route {
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
                let pick = lowest_fraction(self.live.iter().map(|&i| (i, shards[i].fraction)));
                if shards[pick].would_admit() {
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
                let occ_b = shards[b].occupancy_with_one_more();
                let occ_a = shards[a].occupancy_with_one_more();
                let pick = if occ_b < occ_a { b } else { a };
                if shards[pick].would_admit() {
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

    const FRAME: u64 = 1_000;

    fn model(sessions: u64) -> CapacityModel {
        CapacityModel {
            link_bits_per_slot: sessions * FRAME,
            queue_frames: 64,
            occupancy_bound: 8.0,
        }
    }

    fn states(caps: &[u64]) -> Vec<ShardState> {
        caps.iter()
            .map(|&c| ShardState::new(model(c), FRAME, None, 100).expect("valid"))
            .collect()
    }

    fn reserve_n(state: &mut ShardState, depart_slot: u64, sessions: u64) {
        for _ in 0..sessions {
            state.reserve(depart_slot);
        }
    }

    #[test]
    fn round_robin_cycles_live_shards() {
        let mut shards = states(&[100, 100, 100]);
        let mut b = Balancer::new(BalancerPolicy::RoundRobin, 7);
        let picks: Vec<Route> = (0..6).map(|_| b.route(&mut shards, 0)).collect();
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
        reserve_n(&mut shards[0], 50, 40);
        let mut b = Balancer::new(BalancerPolicy::JoinShortestQueue, 7);
        assert_eq!(b.route(&mut shards, 0), Route::To(1));
        // Saturate both far past the occupancy bound: refused.
        reserve_n(&mut shards[0], 50, 90);
        reserve_n(&mut shards[1], 50, 130);
        assert_eq!(b.route(&mut shards, 0), Route::Refused);
    }

    /// Equal fractions go to the lowest live index, as the
    /// `total_cmp`-then-index minimum did, whether every shard is live
    /// or not.
    #[test]
    fn jsq_breaks_ties_to_the_lowest_live_index() {
        let mut b = Balancer::new(BalancerPolicy::JoinShortestQueue, 7);
        let mut shards = states(&[100, 50, 100, 50]);
        assert_eq!(b.route(&mut shards, 0), Route::To(0));
        // 0.02 on shards 0, 1 and 2, 0.0 on 3.
        reserve_n(&mut shards[0], 50, 2);
        reserve_n(&mut shards[1], 50, 1);
        reserve_n(&mut shards[2], 50, 2);
        assert_eq!(b.route(&mut shards, 0), Route::To(3));
        reserve_n(&mut shards[3], 50, 1);
        assert_eq!(b.route(&mut shards, 0), Route::To(0));

        let mut b = Balancer::new(BalancerPolicy::JoinShortestQueue, 7);
        let mut shards = states(&[100, 50, 100, 50]);
        shards[0].down_from = Some(0);
        // All empty: the first live shard.
        assert_eq!(b.route(&mut shards, 0), Route::To(1));
        reserve_n(&mut shards[1], 50, 1);
        reserve_n(&mut shards[2], 50, 2);
        assert_eq!(b.route(&mut shards, 0), Route::To(3));
        reserve_n(&mut shards[3], 50, 1);
        // 0.02 on every live shard.
        assert_eq!(b.route(&mut shards, 0), Route::To(1));
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
                assert_eq!(b.route(&mut shards, 10), Route::To(1), "{policy:?}");
            }
        }
    }

    #[test]
    fn release_is_strict_at_the_slot_edge() {
        let mut shards = states(&[100]);
        shards[0].reserve(5);
        shards[0].release_until(5);
        assert_eq!(shards[0].reserved, 1, "departing slot still holds");
        shards[0].release_until(6);
        assert_eq!(shards[0].reserved, 0);
    }

    proptest::proptest! {
        /// The session-count ledger holds exactly what a plain list of
        /// `(depart, bits)` reservations holds, over reservations
        /// departing behind the release cursor, before the horizon and
        /// at or after it, non-decreasing releases up to the horizon,
        /// and full releases. It never stores more slots than the
        /// horizon, and the cached JSQ fraction has the bits of the
        /// fraction recomputed from the list's bits after every
        /// operation.
        #[test]
        fn release_ledger_matches_a_list(
            horizon in 1u64..64,
            ops in proptest::collection::vec((0u8..10, 0u64..80, 1u64..5), 1..200),
        ) {
            let mut state = ShardState::new(model(100), FRAME, None, horizon).expect("valid");
            let mut list: Vec<(u64, u64)> = Vec::new();
            let mut released_to = 0u64;
            for (kind, x, sessions) in ops {
                match kind {
                    0..=5 => {
                        reserve_n(&mut state, x, sessions);
                        list.extend((0..sessions).map(|_| (x, FRAME)));
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
                let bits: u64 = list.iter().map(|&(_, b)| b).sum();
                proptest::prop_assert_eq!(state.reserved_bits(), bits);
                proptest::prop_assert_eq!(state.reserved, list.len() as u64);
                proptest::prop_assert_eq!(
                    state.fraction.to_bits(),
                    (bits as f64 / state.capacity_bits as f64).to_bits()
                );
                proptest::prop_assert_eq!(state.departures.len() as u64, horizon);
            }
        }
    }
}
