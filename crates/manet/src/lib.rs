//! # dms-manet — mobile ad hoc networks of multimedia hosts
//!
//! §4.2 of the paper: "In MANETs, every multimedia host has to perform
//! the functions of a router. So if some hosts die early due to lack of
//! energy, thereby causing the network to become fragmented, then it may
//! not be possible for other hosts in the network to communicate ...
//! It is therefore critical to develop energy-aware routing protocols
//! for MANETs whose aim is to maximize the network lifetime."
//!
//! * [`node`] — hosts with position, finite battery and the first-order
//!   radio model `E_tx = e_el·k + e_amp·k·d^α`, `E_rx = e_el·k`;
//! * [`network`] — unit-disk connectivity over a random deployment,
//!   aliveness and fragmentation checks;
//! * [`routing`] — the two §4.2 protocol families: **Minimum-Power
//!   Routing** \[30\] (repeatedly drains the cheapest paths) and the
//!   lifetime-aware family — **battery-cost routing** \[31\] and
//!   **lifetime-prediction routing** \[32\] — plus a max–min-residual
//!   baseline;
//! * [`lifetime`] — the experiment-E9 driver: random traffic sessions
//!   until a fixed fraction of hosts die, measuring network lifetime,
//!   delivered traffic and fragmentation.
//!
//! ## Example
//!
//! ```
//! use dms_manet::lifetime::{LifetimeConfig, run_lifetime};
//! use dms_manet::routing::Protocol;
//!
//! # fn main() -> Result<(), dms_manet::ManetError> {
//! let cfg = LifetimeConfig {
//!     nodes: 20,
//!     side_m: 600.0,
//!     battery_j: 1.0,
//!     ..LifetimeConfig::reference()
//! };
//! let mpr = run_lifetime(&cfg, Protocol::MinimumPower, 1)?;
//! let lpr = run_lifetime(&cfg, Protocol::LifetimePrediction, 1)?;
//! assert!(lpr.lifetime_rounds >= mpr.lifetime_rounds);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod lifetime;
pub mod network;
pub mod node;
pub mod routing;

pub use error::ManetError;
pub use lifetime::{run_lifetime, LifetimeConfig, LifetimeReport};
pub use network::Manet;
pub use node::{Node, RadioParams};
pub use routing::Protocol;
