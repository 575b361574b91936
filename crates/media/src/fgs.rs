//! MPEG-4 Fine-Granularity Scalability (FGS) layering.
//!
//! §4.1 / \[28\]\[29\]: an FGS encoder produces a *base layer* that must be
//! delivered intact plus an *enhancement layer* of bit planes that can be
//! truncated anywhere — "the server subsequently determines the
//! additional amount of data in the form of enhancement layers on top of
//! the MPEG-4 base layer". [`FgsEncoder`] layers a video trace into
//! [`FgsFrame`]s; each frame knows how to truncate itself to a bit
//! budget and what PSNR the received portion yields.

use dms_sim::SimRng;

use crate::error::MediaError;
use crate::trace_gen::VideoTraceGenerator;

/// Number of enhancement bit planes an FGS frame carries.
pub const BIT_PLANES: usize = 6;

/// One FGS-coded frame: a mandatory base layer plus truncatable
/// enhancement bit planes.
#[derive(Debug, Clone, PartialEq)]
pub struct FgsFrame {
    /// Display index.
    pub index: u64,
    /// Base-layer size in bits.
    pub base_bits: u64,
    /// Per-plane enhancement sizes in bits (most significant plane
    /// first; later planes refine less but cost similar bits).
    pub plane_bits: [u64; BIT_PLANES],
    /// PSNR delivered by the base layer alone, in dB.
    pub base_psnr_db: f64,
    /// Extra PSNR delivered by each complete plane, in dB (diminishing).
    pub plane_psnr_db: [f64; BIT_PLANES],
}

impl FgsFrame {
    /// Total enhancement bits available.
    #[must_use]
    pub fn enhancement_bits(&self) -> u64 {
        self.plane_bits.iter().sum()
    }

    /// Total frame size in bits.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.base_bits + self.enhancement_bits()
    }

    /// Truncates the enhancement layer to fit `budget_bits` (the base
    /// layer is always included) and returns `(bits_sent, psnr_db)`.
    ///
    /// Partial planes contribute PSNR proportionally — the defining
    /// property of *fine*-granularity scalability.
    ///
    /// If the budget cannot even fit the base layer, the base layer is
    /// sent anyway (it is mandatory) and its PSNR returned.
    #[must_use]
    pub fn truncate_to(&self, budget_bits: u64) -> (u64, f64) {
        let mut sent = self.base_bits;
        let mut psnr = self.base_psnr_db;
        let mut remaining = budget_bits.saturating_sub(self.base_bits);
        for (bits, gain) in self.plane_bits.iter().zip(&self.plane_psnr_db) {
            if remaining == 0 || *bits == 0 {
                break;
            }
            let take = (*bits).min(remaining);
            sent += take;
            psnr += gain * take as f64 / *bits as f64;
            remaining -= take;
        }
        (sent, psnr)
    }
}

/// Layers a video trace into FGS frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FgsEncoder {
    /// Fraction of each frame's bits allocated to the base layer.
    base_fraction: f64,
    /// PSNR of the base layer, in dB.
    base_psnr_db: f64,
    /// Total PSNR headroom of the full enhancement layer, in dB.
    enhancement_psnr_db: f64,
}

impl FgsEncoder {
    /// Creates an encoder.
    ///
    /// # Errors
    ///
    /// Returns [`MediaError::InvalidProbability`] if `base_fraction`
    /// leaves `(0, 1)`, or [`MediaError::InvalidParameter`] for
    /// non-positive PSNR figures.
    pub fn new(
        base_fraction: f64,
        base_psnr_db: f64,
        enhancement_psnr_db: f64,
    ) -> Result<Self, MediaError> {
        if !(base_fraction > 0.0 && base_fraction < 1.0) {
            return Err(MediaError::InvalidProbability(
                "base_fraction",
                base_fraction,
            ));
        }
        if !(base_psnr_db.is_finite() && base_psnr_db > 0.0) {
            return Err(MediaError::InvalidParameter("base_psnr_db"));
        }
        if !(enhancement_psnr_db.is_finite() && enhancement_psnr_db > 0.0) {
            return Err(MediaError::InvalidParameter("enhancement_psnr_db"));
        }
        Ok(FgsEncoder {
            base_fraction,
            base_psnr_db,
            enhancement_psnr_db,
        })
    }

    /// A typical streaming configuration: 30% base layer at 30 dB, with
    /// 12 dB of enhancement headroom.
    ///
    /// # Errors
    ///
    /// Never fails in practice; keeps the constructor signature uniform.
    pub fn streaming_default() -> Result<Self, MediaError> {
        FgsEncoder::new(0.3, 30.0, 12.0)
    }

    /// Encodes `count` frames of a video trace into FGS frames.
    #[must_use]
    pub fn encode(
        &self,
        gen: &VideoTraceGenerator,
        count: usize,
        rng: &mut SimRng,
    ) -> Vec<FgsFrame> {
        gen.generate(count, rng)
            .into_iter()
            .map(|f| {
                let total_bits = f.bytes * 8;
                let base_bits = (total_bits as f64 * self.base_fraction).round() as u64;
                let enh_total = total_bits - base_bits;
                // Bit planes: roughly equal bit cost, geometrically
                // diminishing PSNR contribution (each plane halves the
                // residual error).
                let per_plane = enh_total / BIT_PLANES as u64;
                let mut plane_bits = [per_plane; BIT_PLANES];
                plane_bits[BIT_PLANES - 1] += enh_total - per_plane * BIT_PLANES as u64;
                let mut plane_psnr_db = [0.0; BIT_PLANES];
                let norm: f64 = (0..BIT_PLANES).map(|k| 0.5f64.powi(k as i32)).sum();
                for (k, p) in plane_psnr_db.iter_mut().enumerate() {
                    *p = self.enhancement_psnr_db * 0.5f64.powi(k as i32) / norm;
                }
                FgsFrame {
                    index: f.index,
                    base_bits,
                    plane_bits,
                    base_psnr_db: self.base_psnr_db,
                    plane_psnr_db,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> FgsFrame {
        let gen = VideoTraceGenerator::cif_mpeg2().expect("preset valid");
        let enc = FgsEncoder::streaming_default().expect("preset valid");
        enc.encode(&gen, 1, &mut SimRng::new(1)).remove(0)
    }

    #[test]
    fn encoder_validation() {
        assert!(FgsEncoder::new(0.0, 30.0, 12.0).is_err());
        assert!(FgsEncoder::new(1.0, 30.0, 12.0).is_err());
        assert!(FgsEncoder::new(0.3, 0.0, 12.0).is_err());
        assert!(FgsEncoder::new(0.3, 30.0, -1.0).is_err());
    }

    #[test]
    fn bits_are_conserved_by_layering() {
        let f = frame();
        assert_eq!(f.total_bits(), f.base_bits + f.enhancement_bits());
        assert!(f.base_bits > 0);
        assert!(f.enhancement_bits() > 0);
    }

    #[test]
    fn base_fraction_is_respected() {
        let gen = VideoTraceGenerator::cif_mpeg2().expect("preset valid");
        let enc = FgsEncoder::new(0.3, 30.0, 12.0).expect("valid");
        let frames = enc.encode(&gen, 200, &mut SimRng::new(2));
        for f in &frames {
            let frac = f.base_bits as f64 / f.total_bits() as f64;
            assert!((frac - 0.3).abs() < 0.01, "fraction {frac}");
        }
    }

    #[test]
    fn truncation_monotone_in_budget() {
        let f = frame();
        let mut last_psnr = 0.0;
        let mut last_sent = 0;
        for budget in [
            0,
            f.base_bits,
            f.base_bits + 100,
            f.total_bits() / 2,
            f.total_bits(),
            u64::MAX,
        ] {
            let (sent, psnr) = f.truncate_to(budget);
            assert!(psnr >= last_psnr, "PSNR must not decrease with budget");
            assert!(sent >= last_sent);
            last_psnr = psnr;
            last_sent = sent;
        }
    }

    #[test]
    fn zero_budget_still_sends_base_layer() {
        let f = frame();
        let (sent, psnr) = f.truncate_to(0);
        assert_eq!(sent, f.base_bits);
        assert!((psnr - f.base_psnr_db).abs() < 1e-12);
    }

    #[test]
    fn full_budget_reaches_max_psnr() {
        let f = frame();
        let (sent, psnr) = f.truncate_to(u64::MAX);
        assert_eq!(sent, f.total_bits());
        let all_planes = f.base_psnr_db + f.plane_psnr_db.iter().sum::<f64>();
        assert!((psnr - all_planes).abs() < 1e-9);
    }

    #[test]
    fn planes_have_diminishing_returns() {
        let f = frame();
        for k in 1..BIT_PLANES {
            assert!(
                f.plane_psnr_db[k] < f.plane_psnr_db[k - 1],
                "plane {k} should refine less than plane {}",
                k - 1
            );
        }
    }

    #[test]
    fn partial_plane_contributes_partially() {
        let f = frame();
        let half_plane = f.base_bits + f.plane_bits[0] / 2;
        let (_, psnr) = f.truncate_to(half_plane);
        let expected = f.base_psnr_db + f.plane_psnr_db[0] * 0.5;
        assert!(
            (psnr - expected).abs() < 0.1,
            "psnr {psnr} vs expected ≈ {expected}"
        );
    }
}
