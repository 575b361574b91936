//! Image source model with a rate–distortion characteristic.
//!
//! Substrate for the joint source-channel coding experiment (E7, \[27\]):
//! the optimiser there trades *quantiser rate* (bits per pixel) against
//! *FEC redundancy* and *transmit power*. The image side of that
//! trade-off is the classical high-rate quantisation law
//! `D(R) = σ² · 2^(−2R)`: each extra bit per pixel quarters the mean
//! squared error.

use crate::error::MediaError;

/// A quantiser operating point: bits per pixel.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct QuantizerChoice {
    /// Bits spent per pixel (source rate `R`).
    pub bits_per_pixel: f64,
}

impl QuantizerChoice {
    /// Creates a choice.
    ///
    /// # Errors
    ///
    /// Returns [`MediaError::InvalidParameter`] for a non-positive or
    /// non-finite rate.
    pub fn new(bits_per_pixel: f64) -> Result<Self, MediaError> {
        if !(bits_per_pixel.is_finite() && bits_per_pixel > 0.0) {
            return Err(MediaError::InvalidParameter("bits_per_pixel"));
        }
        Ok(QuantizerChoice { bits_per_pixel })
    }
}

/// A greyscale image source characterised by its dimensions and pixel
/// variance (activity).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dms_media::MediaError> {
/// use dms_media::image::{ImageModel, QuantizerChoice};
///
/// let img = ImageModel::new(256, 256, 2500.0)?;
/// let q = QuantizerChoice::new(2.0)?;
/// assert_eq!(img.encoded_bits(q), 256 * 256 * 2);
/// assert!(img.psnr_with_errors_db(q, 0.0) > 20.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageModel {
    width: u32,
    height: u32,
    variance: f64,
}

impl ImageModel {
    /// Creates an image model.
    ///
    /// # Errors
    ///
    /// Returns [`MediaError::InvalidParameter`] for zero dimensions or a
    /// non-positive variance.
    pub fn new(width: u32, height: u32, variance: f64) -> Result<Self, MediaError> {
        if width == 0 || height == 0 {
            return Err(MediaError::InvalidParameter("dimensions"));
        }
        if !(variance.is_finite() && variance > 0.0) {
            return Err(MediaError::InvalidParameter("variance"));
        }
        Ok(ImageModel {
            width,
            height,
            variance,
        })
    }

    /// Pixel count.
    #[must_use]
    pub fn pixels(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// Total encoded size for a quantiser choice, in bits.
    #[must_use]
    pub fn encoded_bits(&self, q: QuantizerChoice) -> u64 {
        (self.pixels() as f64 * q.bits_per_pixel).ceil() as u64
    }

    /// Quantisation mean-squared error at rate `q`:
    /// `D(R) = σ² · 2^(−2R)`.
    #[must_use]
    pub fn quantization_mse(&self, q: QuantizerChoice) -> f64 {
        self.variance * 2.0f64.powf(-2.0 * q.bits_per_pixel)
    }

    /// PSNR (dB) when, additionally, a fraction `residual_ber` of the
    /// encoded bits arrive flipped. Each flipped bit corrupts its pixel
    /// with an expected squared error of `σ²` (a bit error destroys the
    /// pixel's information), so the distortions add:
    /// `D = D_q + ber · bpp · σ²` (capped at `σ²`, the error of guessing
    /// the mean).
    #[must_use]
    pub fn psnr_with_errors_db(&self, q: QuantizerChoice, residual_ber: f64) -> f64 {
        let ber = residual_ber.clamp(0.0, 1.0);
        let channel_mse = (ber * q.bits_per_pixel * self.variance).min(self.variance);
        mse_to_psnr_db(self.quantization_mse(q) + channel_mse)
    }
}

/// Converts mean-squared error to PSNR in dB (255-peak).
#[must_use]
pub fn mse_to_psnr_db(mse: f64) -> f64 {
    if mse <= 0.0 {
        return f64::INFINITY;
    }
    10.0 * (255.0f64 * 255.0 / mse).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img() -> ImageModel {
        ImageModel::new(128, 128, 2500.0).expect("valid")
    }

    #[test]
    fn validation() {
        assert!(ImageModel::new(0, 10, 1.0).is_err());
        assert!(ImageModel::new(10, 0, 1.0).is_err());
        assert!(ImageModel::new(10, 10, 0.0).is_err());
        assert!(QuantizerChoice::new(0.0).is_err());
        assert!(QuantizerChoice::new(f64::NAN).is_err());
    }

    #[test]
    fn each_extra_bit_quarters_mse() {
        let img = img();
        let d1 = img.quantization_mse(QuantizerChoice::new(1.0).expect("valid"));
        let d2 = img.quantization_mse(QuantizerChoice::new(2.0).expect("valid"));
        assert!((d1 / d2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn psnr_increases_with_rate() {
        let img = img();
        let mut last = 0.0;
        for bpp in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let p = img.psnr_with_errors_db(QuantizerChoice::new(bpp).expect("valid"), 0.0);
            assert!(p > last, "PSNR must rise with rate");
            last = p;
        }
    }

    #[test]
    fn each_extra_bit_adds_about_six_db() {
        let img = img();
        let p2 = img.psnr_with_errors_db(QuantizerChoice::new(2.0).expect("valid"), 0.0);
        let p3 = img.psnr_with_errors_db(QuantizerChoice::new(3.0).expect("valid"), 0.0);
        assert!((p3 - p2 - 6.02).abs() < 0.1, "got {}", p3 - p2);
    }

    #[test]
    fn channel_errors_degrade_psnr() {
        let img = img();
        let q = QuantizerChoice::new(2.0).expect("valid");
        let clean = img.psnr_with_errors_db(q, 0.0);
        let noisy = img.psnr_with_errors_db(q, 1e-3);
        let very_noisy = img.psnr_with_errors_db(q, 1e-1);
        assert!((clean - mse_to_psnr_db(img.quantization_mse(q))).abs() < 1e-12);
        assert!(noisy < clean);
        assert!(very_noisy < noisy);
    }

    #[test]
    fn channel_mse_saturates_at_variance() {
        let img = img();
        let q = QuantizerChoice::new(8.0).expect("valid");
        // Even a catastrophic BER can't make MSE exceed σ² + D_q.
        let floor = img.psnr_with_errors_db(q, 1.0);
        let expected = mse_to_psnr_db(img.quantization_mse(q) + 2500.0);
        assert!((floor - expected).abs() < 1e-9);
    }

    #[test]
    fn encoded_bits_scale_with_pixels() {
        let small = ImageModel::new(64, 64, 100.0).expect("valid");
        let big = ImageModel::new(128, 128, 100.0).expect("valid");
        let q = QuantizerChoice::new(1.5).expect("valid");
        assert_eq!(big.encoded_bits(q), 4 * small.encoded_bits(q));
    }

    #[test]
    fn zero_mse_maps_to_infinite_psnr() {
        assert!(mse_to_psnr_db(0.0).is_infinite());
        assert!(mse_to_psnr_db(-1.0).is_infinite());
    }
}
