//! Iterative radix-2 fast Fourier transform.
//!
//! A small, dependency-free complex FFT used by the circulant-embedding
//! fGn sampler in [`crate::selfsim`]: power-of-two lengths only,
//! in-place Cooley–Tukey with bit-reversal permutation, twiddles
//! computed per stage from `sin_cos` (no accumulating recurrence
//! error). `O(n log n)` time, `O(1)` extra space.

/// A complex number in Cartesian form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Creates `re + i·im`.
    #[must_use]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    fn mul(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

/// In-place forward DFT, `X_k = Σ_j x_j e^{−2πi jk/n}`, unnormalised.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    transform(data, -1.0);
}

fn transform(data: &mut [Complex], sign: f64) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length {n} must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies, doubling the transform length each stage.
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let angle = sign * std::f64::consts::TAU / len as f64;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let (sin, cos) = (angle * k as f64).sin_cos();
                let w = Complex::new(cos, sin);
                let even = data[start + k];
                let odd = data[start + k + half].mul(w);
                data[start + k] = Complex::new(even.re + odd.re, even.im + odd.im);
                data[start + k + half] = Complex::new(even.re - odd.re, even.im - odd.im);
            }
        }
        len *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex, b: Complex, tol: f64) {
        assert!(
            (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol,
            "{a:?} != {b:?}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        fft_in_place(&mut [Complex::ZERO; 3]);
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut data = vec![Complex::ZERO; 8];
        data[0].re = 1.0;
        fft_in_place(&mut data);
        for z in &data {
            assert_close(*z, Complex::new(1.0, 0.0), 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let mut data: Vec<Complex> = (0..n)
            .map(|j| {
                Complex::new(
                    (std::f64::consts::TAU * 3.0 * j as f64 / n as f64).cos(),
                    0.0,
                )
            })
            .collect();
        fft_in_place(&mut data);
        for (k, z) in data.iter().enumerate() {
            let mag = (z.re * z.re + z.im * z.im).sqrt();
            if k == 3 || k == n - 3 {
                assert!((mag - n as f64 / 2.0).abs() < 1e-9, "bin {k}: {mag}");
            } else {
                assert!(mag < 1e-9, "bin {k}: {mag}");
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        let input: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64).sqrt(), (i as f64 * 0.3).sin()))
            .collect();
        let n = input.len();
        let naive: Vec<Complex> = (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, x) in input.iter().enumerate() {
                    let angle = -std::f64::consts::TAU * (j * k) as f64 / n as f64;
                    let (sin, cos) = angle.sin_cos();
                    acc.re += x.re * cos - x.im * sin;
                    acc.im += x.re * sin + x.im * cos;
                }
                acc
            })
            .collect();
        let mut fast = input;
        fft_in_place(&mut fast);
        for (a, b) in fast.iter().zip(&naive) {
            assert_close(*a, *b, 1e-9);
        }
    }
}
