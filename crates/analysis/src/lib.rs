//! # dms-analysis — analytical evaluation of multimedia systems
//!
//! §2.2 of the paper: "the steady-state behavior of a multimedia system
//! can be estimated using explicit simulation or analytical methods";
//! "once the steady-state probability distribution is determined,
//! different performance measures such as throughput, response time,
//! power consumption, etc. can be easily derived". This crate supplies
//! the analytical half of that pairing:
//!
//! * [`markov`] — discrete-time Markov chains with power-iteration and
//!   Gauss–Seidel stationary-distribution solvers;
//! * [`ctmc`] — continuous-time Markov chains with uniformisation-based
//!   stationary and transient solutions (the tractable core of §2.2's
//!   timed formalisms);
//! * [`queue`] — closed-form M/M/1/K results used to cross-check the
//!   simulators;
//! * [`prodcons`] — the Producer–Consumer buffer chain of §2.1 as a
//!   birth–death DTMC, with throughput/loss/occupancy derived from π;
//! * [`selfsim`] — self-similar (long-range dependent) traffic
//!   generation: exact fractional Gaussian noise (Hosking) and
//!   aggregated Pareto ON/OFF sources (§3.2);
//! * [`hurst`] — Hurst-parameter estimators (rescaled-range,
//!   aggregate-variance and periodogram) to verify self-similarity of
//!   generated and measured traffic.
//!
//! ## Example
//!
//! Analyse a producer–consumer buffer and confirm Little-law-consistent
//! results:
//!
//! ```
//! # fn main() -> Result<(), dms_analysis::AnalysisError> {
//! use dms_analysis::prodcons::ProducerConsumerChain;
//!
//! let chain = ProducerConsumerChain::new(0.3, 0.5, 8)?;
//! let perf = chain.performance()?;
//! assert!(perf.throughput > 0.0 && perf.throughput <= 0.3);
//! assert!(perf.loss_rate < 0.05);
//! # Ok(())
//! # }
//! ```

pub mod ctmc;
pub mod error;
pub mod fft;
pub mod hurst;
pub mod markov;
pub mod prodcons;
pub mod queue;
pub mod selfsim;

pub use ctmc::ContinuousMarkovChain;
pub use error::AnalysisError;
pub use hurst::{aggregate_variance_hurst, periodogram_hurst, rescaled_range_hurst};
pub use markov::DiscreteMarkovChain;
pub use prodcons::ProducerConsumerChain;
pub use queue::MM1KQueue;
pub use selfsim::{FractionalGaussianNoise, OnOffAggregate, PoissonArrivals};
