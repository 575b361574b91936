//! # dms-wireless — wireless networking substrate
//!
//! §4 of the paper: battery-powered multimedia systems spend their
//! energy on *computation* (scaled by DVFS) and *communication* (scaled
//! by modulation level, transmit power and codec complexity). This
//! crate implements those trade-offs:
//!
//! * [`modulation`] — BPSK/QPSK/16-QAM/64-QAM with closed-form
//!   BER-vs-SNR curves ("different modulation schemes result in
//!   different BER vs. received SNR characteristics");
//! * [`channel`] — a slow-fading SNR trace generator;
//! * [`arq`] — retransmission energetics and optimal packet sizing
//!   (§2.1's "how much retransmission can be afforded");
//! * [`fec`] — a convolutional-code-style model trading coding gain
//!   against decoder complexity (the base-band knob of §4);
//! * [`transceiver`] — the transceiver energy model and the **dynamic
//!   modulation/power scaling policy** of \[26\] (experiment E6, ≈12%
//!   energy reduction);
//! * [`dvfs`] — an XScale-class DVFS processor model \[24\]\[28\];
//! * [`jscc`] — **joint source-channel coding** for image transmission
//!   \[27\] (experiment E7, ≈60% energy saving);
//! * [`fgs`] — **energy-aware MPEG-4 FGS streaming** with client
//!   feedback and the normalised-decoding-load rule \[28\] (experiment
//!   E8, ≈15% client communication-energy reduction).
//!
//! ## Example
//!
//! Pick the cheapest modulation/power pair for a 10⁻⁵ BER at 20 dB
//! channel gain-to-noise:
//!
//! ```
//! use dms_wireless::transceiver::{AdaptivePolicy, Transceiver};
//!
//! # fn main() -> Result<(), dms_wireless::WirelessError> {
//! let radio = Transceiver::default_radio()?;
//! let policy = AdaptivePolicy::new(1e-5)?;
//! let choice = policy.choose(&radio, 20.0).expect("feasible at 20 dB");
//! assert!(choice.energy_j > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod arq;
pub mod channel;
pub mod dvfs;
pub mod error;
pub mod fec;
pub mod fgs;
pub mod jscc;
pub mod modulation;
pub mod transceiver;

pub use arq::ArqLink;
pub use channel::FadingChannel;
pub use dvfs::DvfsCpu;
pub use error::WirelessError;
pub use fec::FecScheme;
pub use fgs::{FgsStreamReport, FgsStreamer, StreamingPolicy};
pub use jscc::{JsccOptimizer, JsccReport};
pub use modulation::Modulation;
pub use transceiver::{AdaptivePolicy, Transceiver, TxChoice};
