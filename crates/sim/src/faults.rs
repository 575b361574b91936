//! Deterministic fault injection: declarative fault specifications
//! compiled into a replayable schedule of concrete fault events.
//!
//! The paper's §5 thesis is that a multimedia system must stay
//! *gracefully usable* while parts of it fail — channels fade, server
//! slots stall, sessions crash. [`FaultPlan`] is the single fault
//! engine every crate shares: callers describe *what* should go wrong
//! declaratively ([`FaultSpec`]), and `compile` turns the description
//! into a sorted schedule of [`FaultEvent`]s. All randomness (the
//! Gilbert–Elliott corruption states) is drawn **at compile time** from
//! a seeded [`SimRng`], so a compiled plan replays byte-identically no
//! matter how the runs that consume it are sharded across threads
//! (`DMS_THREADS` has no way to perturb it).
//!
//! Consumers walk [`FaultPlan::events`] with a slot cursor, as the
//! `dms-serve` multiplexer does.
//!
//! ## Example
//!
//! A transient link fault compiled and replayed:
//!
//! ```
//! use dms_sim::{FaultEvent, FaultPlan, FaultSpec};
//!
//! let plan = FaultPlan::compile(
//!     &[FaultSpec::LinkDegradation { start_slot: 10, duration_slots: 5, factor: 0.5 }],
//!     100,
//!     7,
//! )
//! .expect("valid spec");
//! assert_eq!(plan.events().len(), 2); // degrade at 10, restore at 15
//! assert_eq!(plan.events()[0].slot, 10);
//! assert!(matches!(plan.events()[0].event, FaultEvent::LinkRate { .. }));
//! ```

use crate::rng::SimRng;

/// Error raised by fault-plan compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// A spec field is out of range; carries the field name.
    InvalidParameter(&'static str),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::InvalidParameter(name) => write!(f, "invalid fault parameter: {name}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// One concrete fault occurrence — the fault-event vocabulary shared by
/// every crate that injects link and session faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The shared link drops to `factor` (in `[0, 1]`) of its nominal
    /// capacity, until a later `LinkRate`/`LinkRestore` event.
    LinkRate {
        /// Fraction of nominal capacity still available.
        factor: f64,
    },
    /// The link returns to nominal capacity.
    LinkRestore,
    /// The server serves nothing in this slot (a scheduling stall or
    /// pause; one event per stalled slot).
    SlotStall,
    /// A correlated crash: this fraction of the currently active
    /// sessions abort immediately, releasing their reservations.
    SessionCrash {
        /// Fraction of active sessions that crash, in `(0, 1]`.
        fraction: f64,
    },
    /// Burst corruption: this fraction of the bits transmitted in the
    /// slot is corrupted in flight and lost (one event per affected
    /// slot, emitted by the Gilbert–Elliott automaton).
    Corrupt {
        /// Fraction of transmitted bits lost to corruption, in `[0, 1]`.
        loss: f64,
    },
}

/// A declarative fault to inject, compiled by [`FaultPlan::compile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// Link-rate degradation window: capacity is scaled by `factor`
    /// during `[start_slot, start_slot + duration_slots)`.
    LinkDegradation {
        /// First degraded slot.
        start_slot: u64,
        /// Window length in slots (≥ 1).
        duration_slots: u64,
        /// Fraction of nominal capacity left, in `[0, 1]`.
        factor: f64,
    },
    /// Server slot stalls: one [`FaultEvent::SlotStall`] per slot in
    /// `[start_slot, start_slot + duration_slots)`.
    SlotStalls {
        /// First stalled slot.
        start_slot: u64,
        /// Stall length in slots (≥ 1).
        duration_slots: u64,
    },
    /// A correlated session-crash burst at `slot`.
    CrashBurst {
        /// Slot the burst strikes.
        slot: u64,
        /// Fraction of active sessions crashed, in `(0, 1]`.
        fraction: f64,
    },
    /// Burst packet corruption over a window, driven by the Fig.-1
    /// Gilbert–Elliott error automaton (`dms_media::stream`'s channel
    /// vocabulary): the two-state chain is stepped once per slot at
    /// compile time, and slots whose state loses bits emit a
    /// [`FaultEvent::Corrupt`] with that state's loss fraction.
    CorruptionBurst {
        /// First affected slot.
        start_slot: u64,
        /// Window length in slots (≥ 1).
        duration_slots: u64,
        /// Probability of switching Good → Bad per slot.
        p_good_to_bad: f64,
        /// Probability of switching Bad → Good per slot.
        p_bad_to_good: f64,
        /// Fraction of bits lost per slot while Good.
        loss_good: f64,
        /// Fraction of bits lost per slot while Bad.
        loss_bad: f64,
    },
}

impl FaultSpec {
    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), FaultError> {
        let probability = |name, v: f64| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(FaultError::InvalidParameter(name))
            }
        };
        match *self {
            FaultSpec::LinkDegradation {
                duration_slots,
                factor,
                ..
            } => {
                if duration_slots == 0 {
                    return Err(FaultError::InvalidParameter("duration_slots"));
                }
                probability("factor", factor)
            }
            FaultSpec::SlotStalls { duration_slots, .. } => {
                if duration_slots == 0 {
                    return Err(FaultError::InvalidParameter("duration_slots"));
                }
                Ok(())
            }
            FaultSpec::CrashBurst { fraction, .. } => {
                if fraction > 0.0 && fraction <= 1.0 {
                    Ok(())
                } else {
                    Err(FaultError::InvalidParameter("fraction"))
                }
            }
            FaultSpec::CorruptionBurst {
                duration_slots,
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
                ..
            } => {
                if duration_slots == 0 {
                    return Err(FaultError::InvalidParameter("duration_slots"));
                }
                probability("p_good_to_bad", p_good_to_bad)?;
                probability("p_bad_to_good", p_bad_to_good)?;
                probability("loss_good", loss_good)?;
                probability("loss_bad", loss_bad)
            }
        }
    }
}

/// One scheduled entry of a compiled [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// Slot the event strikes.
    pub slot: u64,
    /// What happens.
    pub event: FaultEvent,
}

/// A compiled, replayable fault schedule.
///
/// Events are sorted by slot; equal-slot events keep the order of the
/// specs that produced them (stable sort), so a plan is a pure function
/// of `(specs, horizon, seed)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<ScheduledFault>,
    horizon_slots: u64,
}

impl FaultPlan {
    /// An empty plan (no faults) over the given horizon.
    #[must_use]
    pub fn none(horizon_slots: u64) -> Self {
        FaultPlan {
            events: Vec::new(),
            horizon_slots,
        }
    }

    /// Compiles `specs` into a schedule over `[0, horizon_slots)`,
    /// drawing all randomness from a sub-stream of `seed`.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultSpec::validate`] failures.
    pub fn compile(specs: &[FaultSpec], horizon_slots: u64, seed: u64) -> Result<Self, FaultError> {
        let mut rng = SimRng::new(seed).substream("fault-plan", 0);
        for spec in specs {
            spec.validate()?;
        }
        let mut events: Vec<ScheduledFault> = Vec::new();
        let mut push = |slot: u64, event: FaultEvent| {
            if slot < horizon_slots {
                events.push(ScheduledFault { slot, event });
            }
        };
        for spec in specs {
            match *spec {
                FaultSpec::LinkDegradation {
                    start_slot,
                    duration_slots,
                    factor,
                } => {
                    push(start_slot, FaultEvent::LinkRate { factor });
                    push(
                        start_slot.saturating_add(duration_slots),
                        FaultEvent::LinkRestore,
                    );
                }
                FaultSpec::SlotStalls {
                    start_slot,
                    duration_slots,
                } => {
                    for s in start_slot..start_slot.saturating_add(duration_slots) {
                        push(s, FaultEvent::SlotStall);
                    }
                }
                FaultSpec::CrashBurst { slot, fraction } => {
                    push(slot, FaultEvent::SessionCrash { fraction });
                }
                FaultSpec::CorruptionBurst {
                    start_slot,
                    duration_slots,
                    p_good_to_bad,
                    p_bad_to_good,
                    loss_good,
                    loss_bad,
                } => {
                    // Step the Gilbert–Elliott automaton once per slot of
                    // the window; every draw happens here, at compile
                    // time, so the schedule replays identically.
                    let mut bad = false;
                    for s in start_slot..start_slot.saturating_add(duration_slots) {
                        let loss = if bad { loss_bad } else { loss_good };
                        if loss > 0.0 {
                            push(s, FaultEvent::Corrupt { loss });
                        }
                        let flip = rng.chance(if bad { p_bad_to_good } else { p_good_to_bad });
                        if flip {
                            bad = !bad;
                        }
                    }
                }
            }
        }
        events.sort_by_key(|e| e.slot); // stable: spec order kept within a slot
        Ok(FaultPlan {
            events,
            horizon_slots,
        })
    }

    /// The compiled schedule, sorted by slot.
    #[must_use]
    pub fn events(&self) -> &[ScheduledFault] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(FaultSpec::LinkDegradation {
            start_slot: 0,
            duration_slots: 0,
            factor: 0.5
        }
        .validate()
        .is_err());
        assert!(FaultSpec::LinkDegradation {
            start_slot: 0,
            duration_slots: 1,
            factor: 1.5
        }
        .validate()
        .is_err());
        assert!(FaultSpec::SlotStalls {
            start_slot: 0,
            duration_slots: 0
        }
        .validate()
        .is_err());
        assert!(FaultSpec::CrashBurst {
            slot: 0,
            fraction: 0.0
        }
        .validate()
        .is_err());
        assert!(FaultSpec::CorruptionBurst {
            start_slot: 0,
            duration_slots: 5,
            p_good_to_bad: -0.1,
            p_bad_to_good: 0.5,
            loss_good: 0.0,
            loss_bad: 0.5
        }
        .validate()
        .is_err());
        assert!(FaultPlan::compile(
            &[FaultSpec::CrashBurst {
                slot: 3,
                fraction: 2.0
            }],
            10,
            1
        )
        .is_err());
    }

    #[test]
    fn degradation_window_compiles_to_rate_and_restore() {
        let plan = FaultPlan::compile(
            &[FaultSpec::LinkDegradation {
                start_slot: 5,
                duration_slots: 3,
                factor: 0.25,
            }],
            100,
            1,
        )
        .expect("valid");
        assert_eq!(
            plan.events(),
            &[
                ScheduledFault {
                    slot: 5,
                    event: FaultEvent::LinkRate { factor: 0.25 }
                },
                ScheduledFault {
                    slot: 8,
                    event: FaultEvent::LinkRestore
                },
            ]
        );
    }

    #[test]
    fn events_past_the_horizon_are_clipped() {
        let plan = FaultPlan::compile(
            &[
                FaultSpec::LinkDegradation {
                    start_slot: 95,
                    duration_slots: 20,
                    factor: 0.5,
                },
                FaultSpec::SlotStalls {
                    start_slot: 98,
                    duration_slots: 10,
                },
                FaultSpec::CrashBurst {
                    slot: 200,
                    fraction: 0.5,
                },
            ],
            100,
            1,
        )
        .expect("valid");
        assert!(plan.events().iter().all(|e| e.slot < 100));
        // The degrade fires, its restore falls past the horizon, and
        // only the in-horizon stalls survive.
        assert_eq!(plan.events().len(), 1 + 2);
    }

    #[test]
    fn plans_are_deterministic_and_sorted() {
        let specs = [
            FaultSpec::CorruptionBurst {
                start_slot: 10,
                duration_slots: 50,
                p_good_to_bad: 0.2,
                p_bad_to_good: 0.3,
                loss_good: 0.0,
                loss_bad: 0.5,
            },
            FaultSpec::SlotStalls {
                start_slot: 20,
                duration_slots: 5,
            },
        ];
        let a = FaultPlan::compile(&specs, 200, 42).expect("valid");
        let b = FaultPlan::compile(&specs, 200, 42).expect("valid");
        assert_eq!(a, b);
        let c = FaultPlan::compile(&specs, 200, 43).expect("valid");
        assert_ne!(a, c, "different seeds must differ");
        assert!(a.events().windows(2).all(|w| w[0].slot <= w[1].slot));
    }

    #[test]
    fn corruption_burst_follows_the_gilbert_automaton() {
        // A chain pinned to the Bad state loses `loss_bad` every slot.
        let plan = FaultPlan::compile(
            &[FaultSpec::CorruptionBurst {
                start_slot: 0,
                duration_slots: 10,
                p_good_to_bad: 1.0,
                p_bad_to_good: 0.0,
                loss_good: 0.0,
                loss_bad: 0.5,
            }],
            10,
            7,
        )
        .expect("valid");
        // Slot 0 is Good (lossless, no event); every later slot is Bad.
        assert_eq!(plan.events().len(), 9);
        assert!(plan
            .events()
            .iter()
            .all(|e| e.event == FaultEvent::Corrupt { loss: 0.5 }));
        // A lossless chain emits nothing at all.
        let clean = FaultPlan::compile(
            &[FaultSpec::CorruptionBurst {
                start_slot: 0,
                duration_slots: 10,
                p_good_to_bad: 0.5,
                p_bad_to_good: 0.5,
                loss_good: 0.0,
                loss_bad: 0.0,
            }],
            10,
            7,
        )
        .expect("valid");
        assert!(clean.events().is_empty());
    }

    #[test]
    fn empty_plan_is_empty() {
        let plan = FaultPlan::none(50);
        assert!(plan.events().is_empty());
        let compiled = FaultPlan::compile(&[], 50, 1).expect("valid");
        assert_eq!(compiled.events(), plan.events());
    }
}
