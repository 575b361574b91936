//! Inter-stream synchronisation (lip-sync).
//!
//! §2.1: "a multimedia application can be reduced to a set of different
//! media streams ... that satisfy a particular temporal relationship.
//! For instance, in order to enforce lip-synchronization, the audio and
//! video streams needs to be synchronized at precise time instances."
//!
//! [`LipSyncScenario`] models matched audio/video presentation units
//! travelling over independent jittery paths and measures the *skew*
//! (video arrival − audio arrival) per unit. The classic tolerance is
//! ±80 ms for unnoticeable skew; a sink-side synchronisation buffer
//! trades end-to-end latency for in-sync fraction, which
//! [`LipSyncScenario::optimal_offset`] quantifies.

use dms_sim::SimRng;

use crate::error::MediaError;

/// One media path: fixed transit delay plus slowly varying jitter
/// (AR(1) in milliseconds, clamped non-negative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaPath {
    /// Mean one-way delay in milliseconds.
    pub mean_delay_ms: f64,
    /// Standard deviation of the delay jitter, in milliseconds.
    pub jitter_ms: f64,
    /// AR(1) persistence of the jitter process in `[0, 1)`.
    pub persistence: f64,
}

impl MediaPath {
    /// Creates a path.
    ///
    /// # Errors
    ///
    /// Returns [`MediaError::InvalidParameter`] for a negative delay or
    /// jitter, or persistence outside `[0, 1)`.
    pub fn new(mean_delay_ms: f64, jitter_ms: f64, persistence: f64) -> Result<Self, MediaError> {
        if !(mean_delay_ms.is_finite() && mean_delay_ms >= 0.0) {
            return Err(MediaError::InvalidParameter("mean_delay_ms"));
        }
        if !(jitter_ms.is_finite() && jitter_ms >= 0.0) {
            return Err(MediaError::InvalidParameter("jitter_ms"));
        }
        if !(0.0..1.0).contains(&persistence) {
            return Err(MediaError::InvalidParameter("persistence"));
        }
        Ok(MediaPath {
            mean_delay_ms,
            jitter_ms,
            persistence,
        })
    }

    /// Generates per-unit arrival delays (ms) for `units` units.
    fn delays(&self, units: usize, rng: &mut SimRng) -> Vec<f64> {
        let innov = self.jitter_ms * (1.0 - self.persistence * self.persistence).sqrt();
        let mut state = if self.jitter_ms > 0.0 {
            rng.normal(0.0, self.jitter_ms)
        } else {
            0.0
        };
        (0..units)
            .map(|_| {
                let d = (self.mean_delay_ms + state).max(0.0);
                state = self.persistence * state
                    + if self.jitter_ms > 0.0 {
                        rng.normal(0.0, innov)
                    } else {
                        0.0
                    };
                d
            })
            .collect()
    }
}

/// Measured synchronisation quality of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncReport {
    /// Mean skew (video − audio) in milliseconds; positive = video late.
    pub mean_skew_ms: f64,
    /// Skew standard deviation (the inter-stream jitter), ms.
    pub skew_std_ms: f64,
    /// Largest absolute skew observed, ms.
    pub max_abs_skew_ms: f64,
    /// Fraction of units with |skew| within the tolerance.
    pub in_sync_fraction: f64,
    /// Units evaluated.
    pub units: usize,
}

/// An audio+video pair of streams that must present together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LipSyncScenario {
    /// The audio path.
    pub audio: MediaPath,
    /// The video path (typically slower and jitterier — bigger packets,
    /// §2's video/audio asymmetry).
    pub video: MediaPath,
    /// Presentation units to simulate.
    pub units: usize,
}

impl LipSyncScenario {
    /// A streaming preset: audio 20 ms ± 3 ms, video 45 ms ± 15 ms,
    /// 3000 units.
    ///
    /// # Errors
    ///
    /// Never fails in practice; keeps the constructor signature uniform.
    pub fn streaming_default() -> Result<Self, MediaError> {
        Ok(LipSyncScenario {
            audio: MediaPath::new(20.0, 3.0, 0.9)?,
            video: MediaPath::new(45.0, 15.0, 0.9)?,
            units: 3000,
        })
    }

    /// Per-unit skews (video − audio arrival), in milliseconds, with the
    /// audio stream delayed by `audio_offset_ms` at the sink (the
    /// synchronisation buffer).
    #[must_use]
    pub fn skews(&self, audio_offset_ms: f64, seed: u64) -> Vec<f64> {
        let root = SimRng::new(seed);
        let mut audio_rng = root.substream("lipsync-audio", 0);
        let mut video_rng = root.substream("lipsync-video", 0);
        let audio = self.audio.delays(self.units, &mut audio_rng);
        let video = self.video.delays(self.units, &mut video_rng);
        audio
            .iter()
            .zip(&video)
            .map(|(a, v)| v - (a + audio_offset_ms))
            .collect()
    }

    /// Evaluates synchronisation at a given sink-side audio offset.
    #[must_use]
    pub fn evaluate(&self, audio_offset_ms: f64, tolerance_ms: f64, seed: u64) -> SyncReport {
        let skews = self.skews(audio_offset_ms, seed);
        let n = skews.len().max(1) as f64;
        let mean = skews.iter().sum::<f64>() / n;
        let var = skews.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        let max_abs = skews.iter().fold(0.0f64, |m, s| m.max(s.abs()));
        let in_sync = skews.iter().filter(|s| s.abs() <= tolerance_ms).count() as f64 / n;
        SyncReport {
            mean_skew_ms: mean,
            skew_std_ms: var.sqrt(),
            max_abs_skew_ms: max_abs,
            in_sync_fraction: in_sync,
            units: skews.len(),
        }
    }

    /// The sink-side audio delay that maximises the in-sync fraction
    /// (grid search over the observed skew range) — i.e. the size of the
    /// synchronisation buffer worth paying for.
    #[must_use]
    pub fn optimal_offset(&self, tolerance_ms: f64, seed: u64) -> f64 {
        let skews = self.skews(0.0, seed);
        if skews.is_empty() {
            return 0.0;
        }
        let lo = skews.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = skews.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut best = (0.0, 0usize);
        let steps = 200;
        for k in 0..=steps {
            let offset = lo + (hi - lo) * k as f64 / steps as f64;
            let hits = skews
                .iter()
                .filter(|s| (*s - offset).abs() <= tolerance_ms)
                .count();
            if hits > best.1 {
                best = (offset, hits);
            }
        }
        best.0.max(0.0) // a negative offset would mean delaying video instead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_validation() {
        assert!(MediaPath::new(-1.0, 1.0, 0.5).is_err());
        assert!(MediaPath::new(1.0, -1.0, 0.5).is_err());
        assert!(MediaPath::new(1.0, 1.0, 1.0).is_err());
        assert!(MediaPath::new(0.0, 0.0, 0.0).is_ok());
    }

    #[test]
    fn jitterless_paths_have_constant_skew() {
        let s = LipSyncScenario {
            audio: MediaPath::new(20.0, 0.0, 0.0).expect("valid"),
            video: MediaPath::new(45.0, 0.0, 0.0).expect("valid"),
            units: 100,
        };
        let r = s.evaluate(0.0, 80.0, 1);
        assert!((r.mean_skew_ms - 25.0).abs() < 1e-9);
        assert_eq!(r.skew_std_ms, 0.0);
        assert_eq!(r.in_sync_fraction, 1.0);
        // Offsetting audio by exactly the skew centres it at zero.
        let r = s.evaluate(25.0, 1.0, 1);
        assert!((r.mean_skew_ms).abs() < 1e-9);
        assert_eq!(r.in_sync_fraction, 1.0);
    }

    #[test]
    fn default_scenario_is_mostly_in_sync_at_80ms() {
        let s = LipSyncScenario::streaming_default().expect("preset valid");
        let r = s.evaluate(0.0, 80.0, 7);
        assert!(r.in_sync_fraction > 0.95, "fraction {}", r.in_sync_fraction);
        assert!(r.mean_skew_ms > 0.0, "video should lag audio on average");
    }

    #[test]
    fn tighter_tolerance_is_harder() {
        let s = LipSyncScenario::streaming_default().expect("preset valid");
        let loose = s.evaluate(0.0, 80.0, 3).in_sync_fraction;
        let tight = s.evaluate(0.0, 10.0, 3).in_sync_fraction;
        assert!(tight < loose);
    }

    #[test]
    fn optimal_offset_improves_tight_sync() {
        let s = LipSyncScenario::streaming_default().expect("preset valid");
        let tolerance = 15.0;
        let before = s.evaluate(0.0, tolerance, 5).in_sync_fraction;
        let offset = s.optimal_offset(tolerance, 5);
        let after = s.evaluate(offset, tolerance, 5).in_sync_fraction;
        assert!(offset > 0.0, "audio should be buffered to wait for video");
        assert!(
            after > before,
            "sync buffer must help: {before} -> {after} (offset {offset} ms)"
        );
        assert!(after > 0.6, "after {after}");
    }

    #[test]
    fn more_jitter_less_sync() {
        let calm = LipSyncScenario {
            audio: MediaPath::new(20.0, 1.0, 0.5).expect("valid"),
            video: MediaPath::new(25.0, 2.0, 0.5).expect("valid"),
            units: 2000,
        };
        let wild = LipSyncScenario {
            audio: MediaPath::new(20.0, 1.0, 0.5).expect("valid"),
            video: MediaPath::new(25.0, 60.0, 0.5).expect("valid"),
            units: 2000,
        };
        let tol = 40.0;
        assert!(
            wild.evaluate(0.0, tol, 9).in_sync_fraction
                < calm.evaluate(0.0, tol, 9).in_sync_fraction
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let s = LipSyncScenario::streaming_default().expect("preset valid");
        assert_eq!(s.skews(0.0, 11), s.skews(0.0, 11));
        assert_ne!(s.skews(0.0, 11), s.skews(0.0, 12));
    }
}
