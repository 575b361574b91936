//! Recovery policy and fault-run reporting for the streaming server.
//!
//! The fault *schedule* lives in [`dms_sim::FaultPlan`] — this module
//! holds the serve-side halves: [`RecoveryConfig`], the
//! retry/backoff/timeout policy a faulted server runs under, and
//! [`FaultReport`], the [`crate::ServerReport`] extension that accounts
//! for everything a fault can do to a session (crashes, timeouts,
//! retries, corrupted bits, stalls, capacity re-estimates).
//!
//! [`corruption_burst`] bridges the `dms-media` Gilbert–Elliott channel
//! vocabulary (`ChannelModel`, the paper's Fig.-1 error automaton) onto
//! the shared [`FaultSpec`] vocabulary, so the same two-state chain
//! that corrupts packets in `dms-media` stream simulations corrupts
//! slot grants here.

use dms_media::ChannelModel;
use dms_sim::FaultSpec;

use crate::error::ServeError;
use crate::session::ServerReport;

/// Retry/backoff/timeout policy for sessions hit by faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// First-retry delay after a crash or timeout, slots (≥ 1).
    pub backoff_base_slots: u64,
    /// Multiplier applied to the delay per further attempt (≥ 1).
    pub backoff_factor: u64,
    /// Retry attempts per session before giving up (0 disables retry).
    pub max_retries: u32,
    /// Playout-deadline-aware timeout: a session missing its deadline
    /// this many *consecutive* slots is aborted and (if attempts
    /// remain) re-queued — the client gave up on the stalled stream.
    pub timeout_miss_slots: u64,
    /// Slots of zero service under positive demand before the
    /// multiplexer counts a stall episode.
    pub stall_window_slots: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            backoff_base_slots: 4,
            backoff_factor: 2,
            max_retries: 3,
            timeout_miss_slots: 8,
            stall_window_slots: 3,
        }
    }
}

impl RecoveryConfig {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.backoff_base_slots == 0 {
            return Err(ServeError::InvalidParameter("backoff_base_slots"));
        }
        if self.backoff_factor == 0 {
            return Err(ServeError::InvalidParameter("backoff_factor"));
        }
        if self.timeout_miss_slots == 0 {
            return Err(ServeError::InvalidParameter("timeout_miss_slots"));
        }
        if self.stall_window_slots == 0 {
            return Err(ServeError::InvalidParameter("stall_window_slots"));
        }
        Ok(())
    }

    /// Backoff delay before retry attempt number `attempt` (0-based):
    /// `base * factor^attempt`, saturating.
    #[must_use]
    pub fn backoff_slots(&self, attempt: u32) -> u64 {
        let mut delay = self.backoff_base_slots;
        for _ in 0..attempt {
            delay = delay.saturating_mul(self.backoff_factor);
        }
        delay
    }

    /// Total slots a session can spend backing off across all its
    /// retries — the horizon within which recovery must either restore
    /// service or give up (`Σ base·factor^a` for `a < max_retries`).
    #[must_use]
    pub fn backoff_horizon_slots(&self) -> u64 {
        (0..self.max_retries)
            .map(|a| self.backoff_slots(a))
            .fold(0u64, u64::saturating_add)
    }
}

/// What one *faulted* server run measured: the nominal
/// [`ServerReport`] plus the fault/recovery ledger.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultReport {
    /// The nominal accounting (admissions, misses, utility, bits).
    pub base: ServerReport,
    /// Session activations killed by crash bursts.
    pub crashed: u64,
    /// Session activations aborted by the playout-deadline timeout.
    pub timed_out: u64,
    /// Retry attempts scheduled (crash + timeout victims with attempts
    /// left).
    pub retries: u64,
    /// Retries re-admitted into the active set.
    pub readmitted: u64,
    /// Retries the admission controller turned away (they back off
    /// again if attempts remain).
    pub retry_rejected: u64,
    /// Bits lost to faults: crashed/timed-out backlogs plus bits
    /// corrupted in flight.
    pub lost_to_fault_bits: u64,
    /// Slots the server spent stalled by a fault.
    pub stall_slots: u64,
    /// Stall episodes flagged by the multiplexer's detector (zero
    /// service under positive demand for a full stall window).
    pub stalls_detected: u64,
    /// Slots on which the capacity re-estimator changed the admission
    /// controller's effective capacity.
    pub capacity_reestimates: u64,
    /// Slots served under degraded link capacity (fault factor < 1).
    pub degraded_slots: u64,
}

/// A [`FaultSpec::CorruptionBurst`] window driven by a `dms-media`
/// Gilbert–Elliott [`ChannelModel`] — one automaton step per slot, the
/// state's loss probability applied to the slot's delivered bits.
///
/// # Errors
///
/// Propagates [`ChannelModel::validate`] failures (as
/// [`ServeError::InvalidParameter`] naming the probability field).
pub fn corruption_burst(
    channel: &ChannelModel,
    start_slot: u64,
    duration_slots: u64,
) -> Result<FaultSpec, ServeError> {
    channel
        .validate()
        .map_err(|_| ServeError::InvalidParameter("channel"))?;
    Ok(FaultSpec::CorruptionBurst {
        start_slot,
        duration_slots,
        p_good_to_bad: channel.p_good_to_bad,
        p_bad_to_good: channel.p_bad_to_good,
        loss_good: channel.loss_good,
        loss_bad: channel.loss_bad,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_zero_fields() {
        assert!(RecoveryConfig::default().validate().is_ok());
        for patch in [
            |c: &mut RecoveryConfig| c.backoff_base_slots = 0,
            |c: &mut RecoveryConfig| c.backoff_factor = 0,
            |c: &mut RecoveryConfig| c.timeout_miss_slots = 0,
            |c: &mut RecoveryConfig| c.stall_window_slots = 0,
        ] {
            let mut c = RecoveryConfig::default();
            patch(&mut c);
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn backoff_is_exponential_and_horizon_sums_it() {
        let c = RecoveryConfig::default();
        assert_eq!(c.backoff_slots(0), 4);
        assert_eq!(c.backoff_slots(1), 8);
        assert_eq!(c.backoff_slots(2), 16);
        assert_eq!(c.backoff_horizon_slots(), 4 + 8 + 16);
        let none = RecoveryConfig {
            max_retries: 0,
            ..RecoveryConfig::default()
        };
        assert_eq!(none.backoff_horizon_slots(), 0);
        let huge = RecoveryConfig {
            backoff_base_slots: u64::MAX,
            backoff_factor: u64::MAX,
            max_retries: 5,
            ..RecoveryConfig::default()
        };
        assert_eq!(huge.backoff_horizon_slots(), u64::MAX, "saturates");
    }

    #[test]
    fn corruption_burst_carries_the_channel_params() {
        let ch = ChannelModel::bursty_wireless(1);
        let spec = corruption_burst(&ch, 100, 50).expect("valid channel");
        match spec {
            FaultSpec::CorruptionBurst {
                start_slot,
                duration_slots,
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                assert_eq!((start_slot, duration_slots), (100, 50));
                assert_eq!(p_good_to_bad, ch.p_good_to_bad);
                assert_eq!(p_bad_to_good, ch.p_bad_to_good);
                assert_eq!(loss_good, ch.loss_good);
                assert_eq!(loss_bad, ch.loss_bad);
            }
            other => panic!("wrong spec: {other:?}"),
        }
        let mut bad = ch;
        bad.loss_bad = 1.5;
        assert!(corruption_burst(&bad, 0, 1).is_err());
    }
}
