//! # dms-ambient — ambient multimedia in smart spaces
//!
//! §5 of the paper: ambient multimedia systems must "operate with
//! limited resources and failing parts"; and "since users tend to
//! behave non-deterministically, there is room for stochastic modeling
//! based on capturing the uncertainty in users behavior" \[34\]. This
//! crate implements both halves (experiment E11):
//!
//! * [`user`] — user-activity Markov models with per-state service
//!   demands, analysed through `dms-analysis` for their stationary
//!   behaviour;
//! * [`faults`] — sensor populations with exponential failures and
//!   k-of-n service redundancy \[33\];
//! * [`smartspace`] — the combined stochastic QoS evaluation: expected
//!   delivered utility = Σ over user states of π(state) × availability
//!   of the services that state needs.
//!
//! ## Example
//!
//! ```
//! use dms_ambient::user::UserBehaviorModel;
//!
//! # fn main() -> Result<(), dms_ambient::AmbientError> {
//! let user = UserBehaviorModel::home_preset()?;
//! let pi = user.stationary()?;
//! assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod faults;
pub mod smartspace;
pub mod user;

pub use error::AmbientError;
pub use faults::SensorPopulation;
pub use smartspace::{SmartSpace, SmartSpaceReport};
pub use user::UserBehaviorModel;
