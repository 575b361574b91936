//! GOP-structured synthetic video traces.
//!
//! Substitutes for the real MPEG-2 bitstreams the paper's studies used
//! (§2.2 notes "a few minutes of compressed MPEG-2 video can easily
//! require a few Gbytes of input data to simulate"). Frame sizes follow
//! the well-documented structure of encoded video: a repeating GOP
//! pattern (e.g. `IBBPBBPBBPBB`), lognormal size marginals per frame
//! type with `I > P > B`, and a slowly-varying scene-activity process
//! that induces the long-range dependence real video exhibits (the
//! traffic-analysis premise of §3.2 / \[19\]).

use dms_sim::SimRng;

use crate::error::MediaError;

/// The coding type of a video frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Intra-coded: largest, self-contained.
    I,
    /// Predicted from a previous reference.
    P,
    /// Bidirectionally predicted: smallest.
    B,
}

/// One encoded video frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    /// Display index of the frame.
    pub index: u64,
    /// Coding type.
    pub kind: FrameKind,
    /// Encoded size in bytes.
    pub bytes: u64,
}

/// A synthetic video-trace generator.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dms_media::MediaError> {
/// use dms_media::trace_gen::VideoTraceGenerator;
/// use dms_sim::SimRng;
///
/// let gen = VideoTraceGenerator::new("IBBPBBPBBPBB", 12_000.0, 5_000.0, 2_200.0, 0.3)?;
/// let trace = gen.generate(120, &mut SimRng::new(1));
/// assert_eq!(trace.len(), 120);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VideoTraceGenerator {
    pattern: Vec<FrameKind>,
    mean_i: f64,
    mean_p: f64,
    mean_b: f64,
    /// Lognormal shape (sigma of the underlying normal).
    sigma: f64,
    /// AR(1) coefficient of the scene-activity process, near 1 for
    /// strong long-range-looking correlation.
    scene_persistence: f64,
    /// Standard deviation of the scene-activity innovations.
    scene_sigma: f64,
}

impl VideoTraceGenerator {
    /// Creates a generator from a GOP pattern and per-type mean sizes.
    ///
    /// `sigma` is the lognormal shape parameter of frame-size variation
    /// (typical encoded video: 0.2–0.5).
    ///
    /// # Errors
    ///
    /// * [`MediaError::BadGopPattern`] for an empty pattern, characters
    ///   outside `IPB`, or a pattern not starting with `I`.
    /// * [`MediaError::InvalidParameter`] for non-positive means or a
    ///   negative/non-finite `sigma`.
    pub fn new(
        pattern: &str,
        mean_i: f64,
        mean_p: f64,
        mean_b: f64,
        sigma: f64,
    ) -> Result<Self, MediaError> {
        let kinds: Option<Vec<FrameKind>> = pattern
            .chars()
            .map(|c| match c {
                'I' => Some(FrameKind::I),
                'P' => Some(FrameKind::P),
                'B' => Some(FrameKind::B),
                _ => None,
            })
            .collect();
        let kinds = kinds.ok_or_else(|| MediaError::BadGopPattern(pattern.into()))?;
        if kinds.first() != Some(&FrameKind::I) {
            return Err(MediaError::BadGopPattern(pattern.into()));
        }
        for (name, v) in [("mean_i", mean_i), ("mean_p", mean_p), ("mean_b", mean_b)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(MediaError::InvalidParameter(match name {
                    "mean_i" => "mean_i",
                    "mean_p" => "mean_p",
                    _ => "mean_b",
                }));
            }
        }
        if !(sigma.is_finite() && sigma >= 0.0) {
            return Err(MediaError::InvalidParameter("sigma"));
        }
        Ok(VideoTraceGenerator {
            pattern: kinds,
            mean_i,
            mean_p,
            mean_b,
            sigma,
            scene_persistence: 0.995,
            scene_sigma: 0.05,
        })
    }

    /// A CIF-resolution MPEG-2 preset (≈1.5 Mbit/s at 30 fps):
    /// `IBBPBBPBBPBB` GOP, I ≈ 14 KB, P ≈ 6 KB, B ≈ 2.5 KB.
    ///
    /// # Errors
    ///
    /// Never fails in practice; the `Result` keeps the constructor
    /// signature uniform.
    pub fn cif_mpeg2() -> Result<Self, MediaError> {
        VideoTraceGenerator::new("IBBPBBPBBPBB", 14_000.0, 6_000.0, 2_500.0, 0.3)
    }

    /// Generates `count` frames.
    #[must_use]
    pub fn generate(&self, count: usize, rng: &mut SimRng) -> Vec<Frame> {
        // Scene-activity multiplier: exp of an AR(1) process, so scenes
        // with high activity inflate every frame type together. The
        // near-unit persistence yields correlation over hundreds of
        // frames, i.e. LRD-like behaviour at trace scale.
        let mut activity = 0.0f64;
        let mut frames = Vec::with_capacity(count);
        for i in 0..count {
            activity = self.scene_persistence * activity + rng.normal(0.0, self.scene_sigma);
            let kind = self.pattern[i % self.pattern.len()];
            let mean = self.mean_of(kind) * activity.exp();
            // Lognormal with the requested mean: mu = ln(mean) - sigma²/2.
            let mu = mean.ln() - self.sigma * self.sigma / 2.0;
            let bytes = rng.lognormal(mu, self.sigma).round().max(1.0) as u64;
            frames.push(Frame {
                index: i as u64,
                kind,
                bytes,
            });
        }
        frames
    }

    /// Generates `count` frames and returns just the byte sizes — the
    /// form the traffic analyses consume.
    #[must_use]
    pub fn generate_sizes(&self, count: usize, rng: &mut SimRng) -> Vec<f64> {
        self.generate(count, rng)
            .into_iter()
            .map(|f| f.bytes as f64)
            .collect()
    }

    fn mean_of(&self, kind: FrameKind) -> f64 {
        match kind {
            FrameKind::I => self.mean_i,
            FrameKind::P => self.mean_p,
            FrameKind::B => self.mean_b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_analysis::aggregate_variance_hurst;

    #[test]
    fn pattern_validation() {
        assert!(VideoTraceGenerator::new("", 1.0, 1.0, 1.0, 0.1).is_err());
        assert!(VideoTraceGenerator::new("PBB", 1.0, 1.0, 1.0, 0.1).is_err());
        assert!(VideoTraceGenerator::new("IXB", 1.0, 1.0, 1.0, 0.1).is_err());
        assert!(VideoTraceGenerator::new("IBBP", 1.0, 1.0, 1.0, 0.1).is_ok());
    }

    #[test]
    fn parameter_validation() {
        assert!(VideoTraceGenerator::new("I", 0.0, 1.0, 1.0, 0.1).is_err());
        assert!(VideoTraceGenerator::new("I", 1.0, -1.0, 1.0, 0.1).is_err());
        assert!(VideoTraceGenerator::new("I", 1.0, 1.0, 1.0, -0.1).is_err());
        assert!(VideoTraceGenerator::new("I", 1.0, 1.0, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn gop_pattern_repeats() {
        let gen = VideoTraceGenerator::cif_mpeg2().expect("preset valid");
        let frames = gen.generate(24, &mut SimRng::new(1));
        assert_eq!(frames[0].kind, FrameKind::I);
        assert_eq!(frames[12].kind, FrameKind::I);
        assert_eq!(frames[3].kind, FrameKind::P);
        assert_eq!(frames[1].kind, FrameKind::B);
    }

    #[test]
    fn frame_type_size_ordering() {
        let gen = VideoTraceGenerator::cif_mpeg2().expect("preset valid");
        let frames = gen.generate(1200, &mut SimRng::new(2));
        let mean_of = |k: FrameKind| {
            let sizes: Vec<u64> = frames
                .iter()
                .filter(|f| f.kind == k)
                .map(|f| f.bytes)
                .collect();
            sizes.iter().sum::<u64>() as f64 / sizes.len() as f64
        };
        assert!(mean_of(FrameKind::I) > mean_of(FrameKind::P));
        assert!(mean_of(FrameKind::P) > mean_of(FrameKind::B));
    }

    #[test]
    fn mean_size_in_expected_ballpark() {
        let gen = VideoTraceGenerator::cif_mpeg2().expect("preset valid");
        let sizes = gen.generate_sizes(6000, &mut SimRng::new(3));
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        // IBBPBBPBBPBB: one I, three P and eight B frames per GOP.
        let expected = (14_000.0 + 3.0 * 6_000.0 + 8.0 * 2_500.0) / 12.0;
        // Scene modulation inflates variance; allow a wide band.
        assert!(
            mean > expected * 0.5 && mean < expected * 2.0,
            "mean {mean}, expected ≈ {expected}"
        );
    }

    #[test]
    fn trace_is_long_range_dependent() {
        let gen = VideoTraceGenerator::cif_mpeg2().expect("preset valid");
        let sizes = gen.generate_sizes(8192, &mut SimRng::new(4));
        let h = aggregate_variance_hurst(&sizes).expect("long enough");
        assert!(h > 0.6, "video trace should look LRD, got H = {h}");
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = VideoTraceGenerator::cif_mpeg2().expect("preset valid");
        let a = gen.generate(64, &mut SimRng::new(5));
        let b = gen.generate(64, &mut SimRng::new(5));
        assert_eq!(a, b);
    }

    #[test]
    fn frames_are_indexed_and_positive() {
        let gen = VideoTraceGenerator::cif_mpeg2().expect("preset valid");
        let frames = gen.generate(100, &mut SimRng::new(6));
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.index, i as u64);
            assert!(f.bytes >= 1);
        }
    }
}
