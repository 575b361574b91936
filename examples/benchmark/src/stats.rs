//! Order statistics of timing samples, and the output digest.

/// Sorts samples ascending (total order, so NaN cannot panic the sort).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Linear-interpolated quantile `q` in `[0, 1]` of ascending samples;
/// 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// Median of `f` over repetitions.
pub fn median_by<R>(reps: &[R], f: impl Fn(&R) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Smallest sample; 0 for none.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Smallest `f` over repetitions.
pub fn min_by<R>(reps: &[R], f: impl Fn(&R) -> f64) -> f64 {
    min(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Mean of samples; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over 64-bit words: a stable digest of a run's exact outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn float(&mut self, v: f64) -> &mut Self {
        self.word(v.to_bits())
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert!((quantile(&s, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn mean_and_ratio_handle_empty_input() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
        assert_eq!(min(&[]), 0.0);
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn digest_depends_on_every_word_and_order() {
        let d = |words: &[u64]| {
            let mut g = Digest::default();
            for &w in words {
                g.word(w);
            }
            g.value()
        };
        assert_eq!(d(&[1, 2]), d(&[1, 2]));
        assert_ne!(d(&[1, 2]), d(&[2, 1]));
        assert_ne!(d(&[1, 2]), d(&[1, 3]));
    }
}
