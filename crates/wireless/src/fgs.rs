//! Energy-aware MPEG-4 FGS streaming — experiment E8.
//!
//! After \[28\]: "a low energy MPEG-4 FGS streaming policy using a
//! client-feedback method ... the client decoding aptitude in each
//! timeslot is communicated to the server, and the server subsequently
//! determines the additional amount of data in the form of enhancement
//! layers on top of the MPEG-4 base layer. ... a video streaming system
//! that maintains this normalized load at unity produces the optimum
//! video quality with no energy waste. ... the authors report an average
//! of 15% communication energy reduction in the client."
//!
//! Two policies over the same [`dms_media::fgs`] stream:
//!
//! * [`StreamingPolicy::FullRate`] — the server pushes every enhancement
//!   bit; the client runs at maximum frequency and discards whatever it
//!   cannot decode before the frame deadline (received ≠ useful);
//! * [`StreamingPolicy::ClientFeedback`] — the client reports its
//!   decoding aptitude, the server truncates the enhancement layer to
//!   exactly that amount, and the client DVFS-scales so its normalised
//!   decoding load sits at unity.

use dms_media::fgs::FgsFrame;

use crate::dvfs::DvfsCpu;
use crate::error::WirelessError;

/// The streaming policy under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamingPolicy {
    /// Server sends everything; client decodes at maximum frequency and
    /// drops the excess.
    FullRate,
    /// Client-feedback truncation + DVFS at unit normalised load.
    ClientFeedback,
}

/// Outcome of streaming one session.
#[derive(Debug, Clone, PartialEq)]
pub struct FgsStreamReport {
    /// Frames streamed.
    pub frames: usize,
    /// Mean delivered PSNR, dB.
    pub mean_psnr_db: f64,
    /// Client communication (receive) energy, joules.
    pub comm_energy_j: f64,
    /// Client computation (decode) energy, joules.
    pub compute_energy_j: f64,
    /// Mean normalised decoding load (decode time / slot time).
    pub mean_normalized_load: f64,
    /// Bits received by the client.
    pub bits_received: u64,
    /// Bits received but never decoded (FullRate waste).
    pub bits_wasted: u64,
}

impl FgsStreamReport {
    /// Total client energy.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.comm_energy_j + self.compute_energy_j
    }
}

/// The client/server streaming model.
#[derive(Debug, Clone, PartialEq)]
pub struct FgsStreamer {
    cpu: DvfsCpu,
    /// Client receive energy per bit, joules.
    rx_energy_per_bit_j: f64,
    /// Decode cost: fixed cycles per frame.
    cycles_per_frame: f64,
    /// Decode cost: cycles per received bit.
    cycles_per_bit: f64,
    /// Frame rate in frames per second.
    fps: f64,
}

impl FgsStreamer {
    /// Creates a streamer.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidParameter`] for non-positive
    /// energies, costs or frame rate.
    pub fn new(
        cpu: DvfsCpu,
        rx_energy_per_bit_j: f64,
        cycles_per_frame: f64,
        cycles_per_bit: f64,
        fps: f64,
    ) -> Result<Self, WirelessError> {
        if !(rx_energy_per_bit_j.is_finite() && rx_energy_per_bit_j > 0.0) {
            return Err(WirelessError::InvalidParameter("rx_energy_per_bit_j"));
        }
        if !(cycles_per_frame.is_finite() && cycles_per_frame >= 0.0) {
            return Err(WirelessError::InvalidParameter("cycles_per_frame"));
        }
        if !(cycles_per_bit.is_finite() && cycles_per_bit > 0.0) {
            return Err(WirelessError::InvalidParameter("cycles_per_bit"));
        }
        if !(fps.is_finite() && fps > 0.0) {
            return Err(WirelessError::InvalidParameter("fps"));
        }
        Ok(FgsStreamer {
            cpu,
            rx_energy_per_bit_j,
            cycles_per_frame,
            cycles_per_bit,
            fps,
        })
    }

    /// An XScale-class client at 30 fps with 0.2 nJ/bit receive energy.
    ///
    /// The decode-cost constants put the client's full-speed aptitude at
    /// roughly 85% of a typical frame's total bits, which is what makes
    /// full-rate streaming wasteful.
    ///
    /// # Errors
    ///
    /// Never fails in practice; keeps the constructor signature uniform.
    pub fn xscale_client() -> Result<Self, WirelessError> {
        FgsStreamer::new(DvfsCpu::xscale()?, 0.2e-9, 2.0e6, 450.0, 30.0)
    }

    /// Bits the client can decode in one slot at CPU frequency `hz`.
    #[must_use]
    pub fn aptitude_bits(&self, hz: f64) -> u64 {
        let slot_s = 1.0 / self.fps;
        let budget = hz * slot_s - self.cycles_per_frame;
        (budget / self.cycles_per_bit).max(0.0) as u64
    }

    /// Streams `frames` under `policy`.
    #[must_use]
    pub fn stream(&self, frames: &[FgsFrame], policy: StreamingPolicy) -> FgsStreamReport {
        let slot_s = 1.0 / self.fps;
        let max = self.cpu.max_point();
        let max_aptitude = self.aptitude_bits(max.frequency_hz);
        let mut psnr_sum = 0.0;
        let mut comm = 0.0;
        let mut compute = 0.0;
        let mut load_sum = 0.0;
        let mut received = 0u64;
        let mut wasted = 0u64;
        for f in frames {
            match policy {
                StreamingPolicy::FullRate => {
                    // Everything arrives; decoding is capped by the
                    // full-speed aptitude.
                    let rx = f.total_bits();
                    let decodable = rx.min(max_aptitude.max(f.base_bits));
                    let (_, psnr) = f.truncate_to(decodable);
                    psnr_sum += psnr;
                    comm += rx as f64 * self.rx_energy_per_bit_j;
                    let cycles = self.cycles_per_frame + decodable as f64 * self.cycles_per_bit;
                    compute += cycles * self.cpu.energy_per_cycle_j(max);
                    load_sum += (cycles / max.frequency_hz) / slot_s;
                    received += rx;
                    wasted += rx - decodable;
                }
                StreamingPolicy::ClientFeedback => {
                    // Feedback: server truncates to the client's
                    // full-speed aptitude; client then picks the slowest
                    // DVFS point that decodes it in time (normalised
                    // load → 1).
                    let target = max_aptitude.max(f.base_bits);
                    let (rx, psnr) = f.truncate_to(target);
                    psnr_sum += psnr;
                    comm += rx as f64 * self.rx_energy_per_bit_j;
                    let cycles = self.cycles_per_frame + rx as f64 * self.cycles_per_bit;
                    let point = self
                        .cpu
                        .slowest_feasible(cycles.ceil() as u64, slot_s)
                        .unwrap_or(max);
                    compute += cycles * self.cpu.energy_per_cycle_j(point);
                    load_sum += (cycles / point.frequency_hz) / slot_s;
                    received += rx;
                }
            }
        }
        let n = frames.len().max(1) as f64;
        FgsStreamReport {
            frames: frames.len(),
            mean_psnr_db: psnr_sum / n,
            comm_energy_j: comm,
            compute_energy_j: compute,
            mean_normalized_load: load_sum / n,
            bits_received: received,
            bits_wasted: wasted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_media::fgs::FgsEncoder;
    use dms_media::trace_gen::VideoTraceGenerator;
    use dms_sim::SimRng;

    fn frames(n: usize) -> Vec<FgsFrame> {
        let gen = VideoTraceGenerator::cif_mpeg2().expect("preset valid");
        let enc = FgsEncoder::streaming_default().expect("preset valid");
        enc.encode(&gen, n, &mut SimRng::new(21))
    }

    fn streamer() -> FgsStreamer {
        FgsStreamer::xscale_client().expect("preset valid")
    }

    #[test]
    fn validation() {
        let cpu = DvfsCpu::xscale().expect("preset valid");
        assert!(FgsStreamer::new(cpu.clone(), 0.0, 1.0, 1.0, 30.0).is_err());
        assert!(FgsStreamer::new(cpu.clone(), 1e-9, -1.0, 1.0, 30.0).is_err());
        assert!(FgsStreamer::new(cpu.clone(), 1e-9, 1.0, 0.0, 30.0).is_err());
        assert!(FgsStreamer::new(cpu, 1e-9, 1.0, 1.0, 0.0).is_err());
    }

    #[test]
    fn aptitude_grows_with_frequency() {
        let s = streamer();
        assert!(s.aptitude_bits(800e6) > s.aptitude_bits(400e6));
        assert_eq!(s.aptitude_bits(0.0), 0);
    }

    #[test]
    fn equal_quality_between_policies() {
        let s = streamer();
        let fs = frames(300);
        let full = s.stream(&fs, StreamingPolicy::FullRate);
        let smart = s.stream(&fs, StreamingPolicy::ClientFeedback);
        // The client decodes the same bits either way, so quality matches.
        assert!(
            (full.mean_psnr_db - smart.mean_psnr_db).abs() < 1e-9,
            "{} vs {}",
            full.mean_psnr_db,
            smart.mean_psnr_db
        );
    }

    #[test]
    fn headline_fifteen_percent_comm_saving() {
        // E8: ≈15% client communication-energy reduction at equal
        // quality. Band 8–30% allows for trace variability.
        let s = streamer();
        let fs = frames(1000);
        let full = s.stream(&fs, StreamingPolicy::FullRate);
        let smart = s.stream(&fs, StreamingPolicy::ClientFeedback);
        let saving = 1.0 - smart.comm_energy_j / full.comm_energy_j;
        assert!(
            (0.08..=0.30).contains(&saving),
            "comm saving {:.1}% outside band",
            saving * 100.0
        );
    }

    #[test]
    fn feedback_also_saves_compute_via_dvfs() {
        let s = streamer();
        let fs = frames(300);
        let full = s.stream(&fs, StreamingPolicy::FullRate);
        let smart = s.stream(&fs, StreamingPolicy::ClientFeedback);
        assert!(smart.compute_energy_j <= full.compute_energy_j);
    }

    #[test]
    fn normalized_load_moves_towards_unity() {
        let s = streamer();
        let fs = frames(300);
        let full = s.stream(&fs, StreamingPolicy::FullRate);
        let smart = s.stream(&fs, StreamingPolicy::ClientFeedback);
        // Feedback + DVFS pushes the load to (just under) 1; full rate at
        // max frequency leaves it lower.
        assert!(smart.mean_normalized_load <= 1.0 + 1e-9);
        assert!(smart.mean_normalized_load > full.mean_normalized_load);
    }

    #[test]
    fn no_waste_under_feedback() {
        let s = streamer();
        let fs = frames(100);
        let full = s.stream(&fs, StreamingPolicy::FullRate);
        let smart = s.stream(&fs, StreamingPolicy::ClientFeedback);
        assert!(full.bits_wasted > 0, "full-rate should over-send");
        assert_eq!(smart.bits_wasted, 0);
        assert!(smart.bits_received < full.bits_received);
    }

    #[test]
    fn empty_session_is_benign() {
        let s = streamer();
        let r = s.stream(&[], StreamingPolicy::ClientFeedback);
        assert_eq!(r.frames, 0);
        assert_eq!(r.total_energy_j(), 0.0);
    }
}
