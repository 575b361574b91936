//! Analytical admission control (§2.2 used online).
//!
//! The paper's §2.2 point is that analytical steady-state models are
//! cheap enough to consult *during* design; a streaming server can go
//! one step further and consult them per admission decision. The
//! controller models the shared transmit path as an M/M/1/K queue
//! ([`dms_analysis::MM1KQueue`]) in units of full-quality session
//! frames: service rate `μ = C / full_bits` frames per slot, arrival
//! rate `λ = aggregate admitted demand / full_bits`. A candidate is
//! admitted only if the *predicted mean occupancy* of the resulting
//! session set stays under the configured bound.
//!
//! The prediction is knowingly optimistic for self-similar traffic —
//! exactly the §3.2 mismatch experiment E12 measures by comparing the
//! predicted occupancy against the measured one. The safety property
//! (never admit a set whose prediction exceeds the bound, rejection
//! monotone in offered load) is property-tested in
//! `tests/proptest_serve.rs`.

use dms_analysis::MM1KQueue;

use crate::error::ServeError;

/// The server capacity model admission decisions are made against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityModel {
    /// Shared link capacity, bits per slot.
    pub link_bits_per_slot: u64,
    /// System size `K` of the M/M/1/K predictor, in frames.
    pub queue_frames: u32,
    /// Admission bound on the predicted mean occupancy, frames. Must
    /// not exceed `queue_frames`.
    pub occupancy_bound: f64,
}

impl CapacityModel {
    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.link_bits_per_slot == 0 {
            return Err(ServeError::InvalidParameter("link_bits_per_slot"));
        }
        if self.queue_frames == 0 {
            return Err(ServeError::InvalidParameter("queue_frames"));
        }
        if !(self.occupancy_bound > 0.0 && self.occupancy_bound <= f64::from(self.queue_frames)) {
            return Err(ServeError::InvalidParameter("occupancy_bound"));
        }
        Ok(())
    }
}

/// Whether (and how) sessions are vetted before activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// No control: every session is admitted (the collapse baseline).
    AdmitAll,
    /// Admit only while the M/M/1/K-predicted mean occupancy of the
    /// admitted set stays under the capacity model's bound.
    QueuePredictor,
}

/// The admission controller: stateless prediction plus accept/reject
/// bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionController {
    model: CapacityModel,
    policy: AdmissionPolicy,
    /// Reference frame size used to convert bits to "frames", bits.
    frame_bits: u64,
    /// Capacity the predictor currently believes in, bits per slot.
    /// Starts at the nominal `model.link_bits_per_slot`; fault-aware
    /// runs lower it via [`AdmissionController::set_effective_capacity`]
    /// so admission re-plans against what the link actually delivers.
    effective_bits: u64,
    admitted: u64,
    rejected: u64,
}

impl AdmissionController {
    /// Creates a controller for sessions whose full-quality per-slot
    /// demand is `frame_bits`.
    ///
    /// # Errors
    ///
    /// Propagates capacity-model validation; rejects `frame_bits == 0`.
    pub fn new(
        model: CapacityModel,
        policy: AdmissionPolicy,
        frame_bits: u64,
    ) -> Result<Self, ServeError> {
        model.validate()?;
        if frame_bits == 0 {
            return Err(ServeError::InvalidParameter("frame_bits"));
        }
        Ok(AdmissionController {
            model,
            policy,
            frame_bits,
            effective_bits: model.link_bits_per_slot,
            admitted: 0,
            rejected: 0,
        })
    }

    /// The capacity model decisions are made against.
    #[must_use]
    pub fn model(&self) -> &CapacityModel {
        &self.model
    }

    /// The capacity the predictor currently plans against, bits/slot.
    #[must_use]
    pub fn effective_capacity(&self) -> u64 {
        self.effective_bits
    }

    /// Re-estimates the capacity the predictor plans against (the
    /// multiplexer's measured service rate under faults). A zero
    /// estimate fails closed: the predictor saturates and the
    /// `QueuePredictor` policy rejects everything, whatever the bound,
    /// until capacity returns.
    pub fn set_effective_capacity(&mut self, bits_per_slot: u64) {
        self.effective_bits = bits_per_slot;
    }

    /// Predicted mean queue occupancy (frames) if the admitted set
    /// demands `demand_bits` per slot in aggregate. Zero demand means
    /// an empty queue; demand is otherwise fed to the M/M/1/K formulas
    /// (which remain defined past `ρ = 1`).
    #[must_use]
    pub fn predicted_occupancy(&self, demand_bits: u64) -> f64 {
        if demand_bits == 0 {
            return 0.0;
        }
        let mu = self.effective_bits as f64 / self.frame_bits as f64;
        let lambda = demand_bits as f64 / self.frame_bits as f64;
        MM1KQueue::new(lambda, mu, self.model.queue_frames)
            .map(|q| q.mean_queue_length())
            // Unreachable with validated inputs; fail closed (treat as
            // saturated) rather than admit blindly.
            .unwrap_or(f64::from(self.model.queue_frames))
    }

    /// The admission predicate without the bookkeeping: would a
    /// candidate demanding `candidate_bits` join a set already
    /// demanding `active_bits`? Used for *re*-admissions (session
    /// retries after a crash), which must not perturb the
    /// first-offer `admitted + rejected == offered` ledger.
    #[must_use]
    pub fn would_admit(&self, active_bits: u64, candidate_bits: u64) -> bool {
        match self.policy {
            AdmissionPolicy::AdmitAll => true,
            // At zero capacity the prediction is `K`, which a bound of
            // `K` would pass: refuse outright instead.
            AdmissionPolicy::QueuePredictor => {
                self.effective_bits > 0
                    && self.predicted_occupancy(active_bits + candidate_bits)
                        <= self.model.occupancy_bound
            }
        }
    }

    /// Decides whether a candidate with full-quality demand
    /// `candidate_bits` joins a set already demanding `active_bits` per
    /// slot, and records the outcome.
    pub fn decide(&mut self, active_bits: u64, candidate_bits: u64) -> bool {
        let admit = self.would_admit(active_bits, candidate_bits);
        if admit {
            self.admitted += 1;
        } else {
            self.rejected += 1;
        }
        admit
    }

    /// Sessions admitted so far.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Sessions rejected so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The reference frame size decisions are denominated in, bits.
    #[must_use]
    pub fn frame_bits(&self) -> u64 {
        self.frame_bits
    }
}

/// Memo entries beyond this session count fall through to the direct
/// computation — a backstop against unbounded growth, far above any
/// admissible set the predictor lets through.
const MEMO_MAX_SESSIONS: u64 = 1 << 21;

/// The admission frontier covers loads `ρ` up to `1 + 512/(K + 1)`,
/// where `ρ^(K+1) < e^512` cannot overflow an `f64`.
const FRONTIER_LOAD_HEADROOM: u64 = 512;

/// Memo over an [`AdmissionController`]'s M/M/1/K evaluations, for hot
/// loops where every candidate demands the same `frame_bits`: the
/// predicate and the occupancy prediction then depend only on the
/// resulting *session count*.
///
/// The predicate is kept as an **admission frontier**: the first
/// session count the predictor refuses. A bisection finds it once per
/// effective capacity, in at most 22 evaluations, and from then on a
/// verdict is one comparison, `count < frontier`. That equals the
/// direct call because the admitted counts form one interval from 0:
///
/// * `count` sessions admit one more iff `L(ρ) <= bound`, with
///   `ρ = (count + 1)·frame_bits / effective` and `L` the M/M/1/K mean
///   occupancy, which rises strictly with `ρ`;
/// * the computed `L` keeps that order from count to count: its
///   rounding error, about 1e-13 near the bound, is far below its rise
///   per count there (at K 64 and bound 8: 2.6e-3 at a 31,250-session
///   link, 3.2e-4 at 250,000), so the predicate changes value once;
/// * the frontier covers only counts whose load stays within
///   `1 + 512/(K + 1)` (and whose demand fits a `u64`). Beyond `f64`
///   overflow of `ρ^(K+1)` the evaluation yields 0 or NaN in narrow
///   bands of load, and the computed predicate is no longer monotone.
///   Counts past that ceiling, or at 2^21 and above, take the direct
///   path, so an admit-everything predicate leaves the frontier at the
///   ceiling, never a refusal.
///
/// `tests/proptest_serve.rs` checks every verdict against the direct
/// call over random capacity models and query orders.
///
/// Predicted occupancies enter reports bit for bit, so they stay cached
/// per count: each is the return of the identical pure call. The memo
/// resets whenever the controller's effective capacity moved since the
/// last call; a re-estimate under faults costs one new search.
#[derive(Debug, Clone, Default)]
pub struct AdmissionMemo {
    /// Effective capacity the cached entries were computed against.
    effective_bits: u64,
    /// `(frontier, ceiling)` at that capacity, once searched: the
    /// first refused count below `ceiling` (or `ceiling` itself), and
    /// the count from which the frontier no longer answers.
    frontier: Option<(u64, u64)>,
    /// Predicted occupancy by active session count; NaN = unknown.
    occupancy: Vec<f64>,
}

impl AdmissionMemo {
    /// Creates an empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn sync(&mut self, ctrl: &AdmissionController) {
        if self.effective_bits != ctrl.effective_bits {
            self.frontier = None;
            self.occupancy.clear();
            self.effective_bits = ctrl.effective_bits;
        }
    }

    /// Memoised [`AdmissionController::would_admit`] for one candidate
    /// of `frame_bits` demand joining `active_sessions` sessions of the
    /// same demand.
    pub fn would_admit(&mut self, ctrl: &AdmissionController, active_sessions: u64) -> bool {
        if ctrl.policy == AdmissionPolicy::AdmitAll {
            return true;
        }
        self.sync(ctrl);
        let (frontier, ceiling) = *self.frontier.get_or_insert_with(|| search_frontier(ctrl));
        if active_sessions < ceiling {
            active_sessions < frontier
        } else {
            ctrl.would_admit(active_sessions * ctrl.frame_bits, ctrl.frame_bits)
        }
    }

    /// Memoised [`AdmissionController::decide`]: same predicate as
    /// [`AdmissionMemo::would_admit`], plus the accept/reject ledger.
    pub fn decide(&mut self, ctrl: &mut AdmissionController, active_sessions: u64) -> bool {
        let admit = self.would_admit(ctrl, active_sessions);
        if admit {
            ctrl.admitted += 1;
        } else {
            ctrl.rejected += 1;
        }
        admit
    }

    /// Memoised [`AdmissionController::predicted_occupancy`] for an
    /// admitted set of `sessions` full-quality sessions.
    pub fn predicted_occupancy(&mut self, ctrl: &AdmissionController, sessions: u64) -> f64 {
        if sessions >= MEMO_MAX_SESSIONS {
            return ctrl.predicted_occupancy(sessions * ctrl.frame_bits);
        }
        self.sync(ctrl);
        let idx = sessions as usize;
        if self.occupancy.len() <= idx {
            self.occupancy.resize(idx + 1, f64::NAN);
        }
        if self.occupancy[idx].is_nan() {
            self.occupancy[idx] = ctrl.predicted_occupancy(sessions * ctrl.frame_bits);
        }
        self.occupancy[idx]
    }
}

/// Bisects the admission frontier of `ctrl`: returns the first count
/// below the ceiling that the predictor refuses (the ceiling if none
/// is), and the ceiling — the first count past the frontier's load
/// range ([`FRONTIER_LOAD_HEADROOM`]) or whose demand overflows a
/// `u64`, capped at [`MEMO_MAX_SESSIONS`].
fn search_frontier(ctrl: &AdmissionController) -> (u64, u64) {
    let frame = ctrl.frame_bits;
    let k = u128::from(ctrl.model.queue_frames) + 1;
    // `c < by_load` implies `(c + 1)·frame·(K + 1) <= effective·(K + 1 + 512)`.
    let by_load = u128::from(ctrl.effective_bits) * (k + u128::from(FRONTIER_LOAD_HEADROOM))
        / (u128::from(frame) * k);
    let ceiling = MEMO_MAX_SESSIONS
        .min(u64::MAX / frame)
        .min(u64::try_from(by_load).unwrap_or(u64::MAX));
    let (mut lo, mut hi) = (0, ceiling);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if ctrl.would_admit(mid * frame, frame) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo, ceiling)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CapacityModel {
        CapacityModel {
            link_bits_per_slot: 100_000,
            queue_frames: 64,
            occupancy_bound: 8.0,
        }
    }

    #[test]
    fn validation_rejects_bad_models() {
        let mut m = model();
        m.link_bits_per_slot = 0;
        assert!(AdmissionController::new(m, AdmissionPolicy::AdmitAll, 10).is_err());
        let mut m = model();
        m.queue_frames = 0;
        assert!(AdmissionController::new(m, AdmissionPolicy::AdmitAll, 10).is_err());
        let mut m = model();
        m.occupancy_bound = 100.0; // > queue_frames
        assert!(AdmissionController::new(m, AdmissionPolicy::AdmitAll, 10).is_err());
        assert!(AdmissionController::new(model(), AdmissionPolicy::AdmitAll, 0).is_err());
    }

    #[test]
    fn admit_all_never_rejects() {
        let mut c =
            AdmissionController::new(model(), AdmissionPolicy::AdmitAll, 1_000).expect("valid");
        for k in 0..100 {
            assert!(c.decide(k * 1_000_000, 1_000_000));
        }
        assert_eq!(c.admitted(), 100);
        assert_eq!(c.rejected(), 0);
    }

    #[test]
    fn predictor_admits_light_load_and_rejects_overload() {
        let mut c = AdmissionController::new(model(), AdmissionPolicy::QueuePredictor, 1_000)
            .expect("valid");
        // 50% utilisation: mean occupancy ≈ 1 frame, well under bound 8.
        assert!(c.decide(49_000, 1_000));
        // Far past capacity: occupancy ≈ K, rejected.
        assert!(!c.decide(300_000, 1_000));
        assert_eq!((c.admitted(), c.rejected()), (1, 1));
    }

    #[test]
    fn predicted_occupancy_is_monotone_in_demand() {
        let c = AdmissionController::new(model(), AdmissionPolicy::QueuePredictor, 1_000)
            .expect("valid");
        let mut last = -1.0;
        for demand in (0..=40).map(|k| k * 10_000) {
            let occ = c.predicted_occupancy(demand);
            assert!(occ >= last, "occupancy must not decrease with demand");
            assert!(occ <= f64::from(c.model().queue_frames));
            last = occ;
        }
    }

    #[test]
    fn would_admit_matches_decide_without_bookkeeping() {
        let mut c = AdmissionController::new(model(), AdmissionPolicy::QueuePredictor, 1_000)
            .expect("valid");
        for active in [0u64, 49_000, 150_000, 300_000] {
            let preview = c.would_admit(active, 1_000);
            assert_eq!(preview, c.decide(active, 1_000));
        }
        assert_eq!(c.admitted() + c.rejected(), 4, "only decide() records");
    }

    #[test]
    fn capacity_reestimate_shifts_the_predictor() {
        let mut c = AdmissionController::new(model(), AdmissionPolicy::QueuePredictor, 1_000)
            .expect("valid");
        assert_eq!(c.effective_capacity(), 100_000);
        assert!(c.would_admit(49_000, 1_000));
        // Halve the believed capacity: the same set now looks saturated.
        c.set_effective_capacity(50_000);
        assert_eq!(c.effective_capacity(), 50_000);
        assert!(!c.would_admit(49_000, 1_000));
        // Zero capacity fails closed — predictor pegs at K, rejects all.
        c.set_effective_capacity(0);
        assert_eq!(
            c.predicted_occupancy(1_000),
            f64::from(c.model().queue_frames)
        );
        assert!(!c.would_admit(0, 1_000));
        // Restoring the nominal capacity restores the decision.
        c.set_effective_capacity(c.model().link_bits_per_slot);
        assert!(c.would_admit(49_000, 1_000));
        // A bound of K itself, which the saturated prediction meets,
        // must not open the predicate at zero capacity.
        let mut m = model();
        m.occupancy_bound = f64::from(m.queue_frames);
        let mut c =
            AdmissionController::new(m, AdmissionPolicy::QueuePredictor, 1_000).expect("valid");
        assert!(c.would_admit(10_000, 1_000));
        c.set_effective_capacity(0);
        assert_eq!(c.predicted_occupancy(11_000), f64::from(m.queue_frames));
        assert!(!c.would_admit(10_000, 1_000));
        assert!(!c.would_admit(0, 0));
        assert!(!AdmissionMemo::new().would_admit(&c, 10));
    }

    #[test]
    fn empty_set_predicts_empty_queue() {
        let c = AdmissionController::new(model(), AdmissionPolicy::QueuePredictor, 1_000)
            .expect("valid");
        assert_eq!(c.predicted_occupancy(0), 0.0);
    }

    #[test]
    fn memo_matches_direct_calls_bit_for_bit() {
        let mut c = AdmissionController::new(model(), AdmissionPolicy::QueuePredictor, 1_000)
            .expect("valid");
        let mut memo = AdmissionMemo::new();
        // Two passes over the same counts: the first fills the memo,
        // the second must serve every answer from cache — and both must
        // equal the direct controller calls exactly.
        for _ in 0..2 {
            for count in 0..200u64 {
                assert_eq!(
                    memo.would_admit(&c, count),
                    c.would_admit(count * 1_000, 1_000),
                    "predicate diverged at count {count}"
                );
                let direct = c.predicted_occupancy(count * 1_000);
                let memoised = memo.predicted_occupancy(&c, count);
                assert_eq!(
                    memoised.to_bits(),
                    direct.to_bits(),
                    "occupancy diverged at count {count}"
                );
            }
        }
        // decide() keeps the same ledger as the controller's own.
        let before = (c.admitted(), c.rejected());
        let admit = memo.decide(&mut c, 10);
        assert!(admit);
        assert_eq!(c.admitted(), before.0 + 1);
        assert_eq!(c.rejected(), before.1);
        assert!(!memo.decide(&mut c, 2_000));
        assert_eq!(c.rejected(), before.1 + 1);
    }

    #[test]
    fn memo_invalidates_on_capacity_reestimate() {
        let mut c = AdmissionController::new(model(), AdmissionPolicy::QueuePredictor, 1_000)
            .expect("valid");
        let mut memo = AdmissionMemo::new();
        assert!(memo.would_admit(&c, 49));
        let occ_full = memo.predicted_occupancy(&c, 49);
        // Halving the believed capacity must flush the cached entries:
        // the same count now predicts a saturated queue.
        c.set_effective_capacity(50_000);
        assert!(!memo.would_admit(&c, 49));
        let occ_half = memo.predicted_occupancy(&c, 49);
        assert!(occ_half > occ_full);
        assert_eq!(occ_half.to_bits(), c.predicted_occupancy(49_000).to_bits());
        // And restoring it flushes again, back to the original values.
        c.set_effective_capacity(c.model().link_bits_per_slot);
        assert!(memo.would_admit(&c, 49));
        assert_eq!(
            memo.predicted_occupancy(&c, 49).to_bits(),
            occ_full.to_bits()
        );
    }

    /// The frontier of a fresh memo over `ctrl`, and its ceiling.
    fn frontier_of(ctrl: &AdmissionController) -> (u64, u64) {
        let mut memo = AdmissionMemo::new();
        memo.would_admit(ctrl, 0);
        memo.frontier.expect("searched on the first query")
    }

    /// At the benchmark's link sizes (K 64, bound 8) the frontier
    /// answers exactly what the direct predicate answers: every count
    /// within 4096 of the frontier, and every 64th up to twice it.
    #[test]
    fn frontier_matches_direct_at_the_benchmark_links() {
        let frame = crate::SessionTemplate::streaming_default()
            .expect("preset valid")
            .full_bits();
        for sessions in [5_000u64, 10_000, 31_250, 250_000] {
            let c = AdmissionController::new(
                CapacityModel {
                    link_bits_per_slot: sessions * frame,
                    queue_frames: 64,
                    occupancy_bound: 8.0,
                },
                AdmissionPolicy::QueuePredictor,
                frame,
            )
            .expect("valid");
            let (frontier, ceiling) = frontier_of(&c);
            assert!(frontier > 0 && frontier < sessions && ceiling > 2 * frontier);
            assert!(c.would_admit((frontier - 1) * frame, frame));
            assert!(!c.would_admit(frontier * frame, frame));
            let mut memo = AdmissionMemo::new();
            let near = frontier.saturating_sub(4_096)..=frontier + 4_096;
            for count in near.chain((0..=2 * frontier).step_by(64)) {
                assert_eq!(
                    memo.would_admit(&c, count),
                    c.would_admit(count * frame, frame),
                    "{sessions}-session link, count {count}"
                );
            }
        }
    }

    /// A predicate that admits every count under the ceiling leaves
    /// the frontier at the ceiling: the ceiling is where the memo stops
    /// answering, not a refusal.
    #[test]
    fn admit_everything_leaves_the_frontier_at_the_ceiling() {
        let mut m = model();
        m.occupancy_bound = f64::from(m.queue_frames);
        let c = AdmissionController::new(m, AdmissionPolicy::QueuePredictor, 1_000).expect("valid");
        let (frontier, ceiling) = frontier_of(&c);
        assert_eq!(frontier, ceiling);
        let mut memo = AdmissionMemo::new();
        for count in [0, ceiling - 1, ceiling, ceiling + 1, MEMO_MAX_SESSIONS] {
            assert!(c.would_admit(count * 1_000, 1_000), "count {count}");
            assert!(memo.would_admit(&c, count), "count {count}");
        }
    }

    /// Past `f64` overflow the computed predicate is not monotone: at
    /// K 256 on a 100-frame link it refuses 1581 sessions but admits
    /// 1582 (the mean occupancy evaluates to 0 there). The frontier
    /// stops short of such loads, so the memo still agrees.
    #[test]
    fn frontier_stops_short_of_float_overflow() {
        let c = AdmissionController::new(
            CapacityModel {
                link_bits_per_slot: 100_000,
                queue_frames: 256,
                occupancy_bound: 8.0,
            },
            AdmissionPolicy::QueuePredictor,
            1_000,
        )
        .expect("valid");
        assert!(!c.would_admit(1_581_000, 1_000));
        assert!(c.would_admit(1_582_000, 1_000));
        let (frontier, ceiling) = frontier_of(&c);
        assert!(frontier < ceiling && ceiling < 1_581);
        let mut memo = AdmissionMemo::new();
        assert!(!memo.would_admit(&c, 1_581));
        assert!(memo.would_admit(&c, 1_582));
    }

    /// Counts whose demand would overflow a `u64` are never probed.
    #[test]
    fn frontier_search_never_overflows_the_demand() {
        let frame = u64::MAX / 2_000;
        let mut m = model();
        m.link_bits_per_slot = 1_000 * frame;
        let c = AdmissionController::new(m, AdmissionPolicy::QueuePredictor, frame).expect("valid");
        let (frontier, ceiling) = frontier_of(&c);
        assert_eq!(ceiling, u64::MAX / frame);
        assert!(c.would_admit((frontier - 1) * frame, frame));
        assert!(!c.would_admit(frontier * frame, frame));
    }

    #[test]
    fn memo_admit_all_short_circuits() {
        let mut c =
            AdmissionController::new(model(), AdmissionPolicy::AdmitAll, 1_000).expect("valid");
        let mut memo = AdmissionMemo::new();
        assert!(memo.would_admit(&c, u64::MAX));
        assert!(memo.decide(&mut c, MEMO_MAX_SESSIONS + 1));
        assert_eq!(c.admitted(), 1);
    }
}
