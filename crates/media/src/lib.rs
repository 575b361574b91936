//! # dms-media — multimedia application models
//!
//! The workloads the paper's methodology is exercised on:
//!
//! * [`trace_gen`] — GOP-structured synthetic video traces (I/P/B frame
//!   sizes with lognormal marginals and a long-range-dependent scene
//!   process), substituting for real MPEG-2/4 bitstreams;
//! * [`stream`] — the generic multimedia stream of **Fig. 1(a)**:
//!   Source → Tx buffer → lossy Channel (two-state error automaton) →
//!   Rx buffer → Sink, simulated on the `dms-sim` kernel;
//! * [`mpeg2`] — the MPEG-2 decoder of **Fig. 1(b)** as a process graph
//!   (receive → VLD → {IDCT, MV} → display through buffers B2–B4) plus a
//!   pipeline simulator that measures the B3/B4 occupancy the paper
//!   highlights;
//! * [`fgs`] — MPEG-4 Fine-Granularity-Scalability layering (base layer
//!   plus bit-plane enhancement) with a PSNR rate–quality model, feeding
//!   the energy-aware streaming experiment (E8);
//! * [`image`] — a quantiser/rate–distortion image-codec model for the
//!   joint source-channel coding experiment (E7);
//! * [`sync`] — inter-stream (lip) synchronisation: skew measurement
//!   and sink-side sync buffering for audio/video pairs (§2.1's
//!   temporal-relationship example).
//!
//! ## Example
//!
//! Generate one second of 30 fps video and inspect its burstiness:
//!
//! ```
//! # fn main() -> Result<(), dms_media::MediaError> {
//! use dms_media::trace_gen::VideoTraceGenerator;
//! use dms_sim::SimRng;
//!
//! let gen = VideoTraceGenerator::cif_mpeg2()?;
//! let frames = gen.generate(30, &mut SimRng::new(7));
//! assert_eq!(frames.len(), 30);
//! let i_frame = frames.iter().map(|f| f.bytes).max().expect("non-empty");
//! let min = frames.iter().map(|f| f.bytes).min().expect("non-empty");
//! assert!(i_frame > min); // I frames dominate B frames
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod fgs;
pub mod image;
pub mod mpeg2;
pub mod stream;
pub mod sync;
pub mod trace_gen;

pub use error::MediaError;
pub use fgs::{FgsEncoder, FgsFrame};
pub use image::{ImageModel, QuantizerChoice};
pub use mpeg2::{DecoderPipelineReport, DecoderPipelineSim};
pub use stream::{ChannelModel, StreamConfig, StreamReport, StreamSim};
pub use sync::{LipSyncScenario, MediaPath, SyncReport};
pub use trace_gen::{Frame, FrameKind, VideoTraceGenerator};
