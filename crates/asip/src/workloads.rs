//! Multimedia workloads written in the base ISA.
//!
//! §3.1's showcase is "a complete voice recognition system ...
//! implemented using a base processor core enhanced with less than 10
//! low-complexity custom instructions", achieving 5–10× speed-up under
//! 200k gates. [`voice_recognition`] assembles that system from its
//! classic stages: a Goertzel tone-detection filter bank, log-energy
//! feature extraction and dynamic-time-warping template matching.
//! Two smaller kernels, a dot product and a FIR filter, are unit-test
//! fixtures.
//!
//! ## Memory map of `voice_recognition`
//!
//! | region            | words                 |
//! |-------------------|-----------------------|
//! | samples           | `0 .. n`              |
//! | Goertzel coeffs   | `4096 .. 4096+tones`  |
//! | features          | `8192 .. 8192+tones`  |
//! | templates         | `12288 .. +t·tones`   |
//! | DTW work rows     | `16384 ..`            |
//! | best distance     | `20000`               |
//! | best template id  | `20001`               |

use crate::error::AsipError;
use crate::isa::{Cond, Reg};
use crate::program::{Program, ProgramBuilder};

/// Base address of the Goertzel coefficient table.
pub const COEFF_BASE: i64 = 4096;
/// Base address of the extracted feature vector.
pub const FEATURE_BASE: i64 = 8192;
/// Base address of the template store.
pub const TEMPLATE_BASE: i64 = 12288;
/// Base address of DTW scratch space.
pub const DTW_BASE: i64 = 16384;
/// Address of the best (smallest) template distance.
pub const RESULT_DISTANCE: i64 = 20000;
/// Address of the best template index.
pub const RESULT_INDEX: i64 = 20001;

/// Appends one Goertzel filter pass for tone `tone` over `n` samples.
///
/// Fixed-point recurrence `s = x + (coeff·s1 >> 8) − s2`, with the final
/// `|s1|` stored as the tone's feature. The per-sample body is unrolled
/// ×2 so the whole recurrence step is one wide fusible window.
fn emit_goertzel_tone(b: &mut ProgramBuilder, n: i64, tone: i64) {
    let (i, nr, s1, s2, x, coeff, p, s) = (
        Reg(1),
        Reg(2),
        Reg(10),
        Reg(11),
        Reg(12),
        Reg(13),
        Reg(14),
        Reg(15),
    );
    b.li(i, 0);
    b.li(nr, n);
    b.li(s1, 0);
    b.li(s2, 0);
    b.ld(coeff, Reg(0), COEFF_BASE + tone);
    let top = b.place_label();
    // Sample 1: s = x + (coeff*s1 >> 8) - s2; s2 = s1; s1 = s.
    b.ld(x, i, 0);
    b.mul(p, coeff, s1);
    b.shri(p, p, 8);
    b.add(s, x, p);
    b.sub(s, s, s2);
    b.addi(s2, s1, 0);
    b.addi(s1, s, 0);
    // Sample 2 (unrolled).
    b.ld(x, i, 1);
    b.mul(p, coeff, s1);
    b.shri(p, p, 8);
    b.add(s, x, p);
    b.sub(s, s, s2);
    b.addi(s2, s1, 0);
    b.addi(s1, s, 0);
    b.addi(i, i, 2);
    b.branch(Cond::Lt, i, nr, top);
    // feature = |s1| (branchless absolute value via arithmetic shift mask).
    b.shri(p, s1, 63);
    b.xor(s, s1, p);
    b.sub(s, s, p);
    b.st(s, Reg(0), FEATURE_BASE + tone);
}

/// Appends DTW-style template matching: L1 distance between the feature
/// vector and each template, tracking the minimum.
///
/// (A full DTW alignment collapses to an L1 scan when both sequences
/// have equal length and no warping window, which is the case for
/// fixed-size tone-energy features; the branchy min/abs logic is what
/// matters for the instruction mix.)
fn emit_template_match(b: &mut ProgramBuilder, tones: i64, templates: i64) {
    let (t, tr, j, jr, dist, f, tv, d, best, besti, mask) = (
        Reg(1),
        Reg(2),
        Reg(3),
        Reg(4),
        Reg(5),
        Reg(6),
        Reg(7),
        Reg(8),
        Reg(16),
        Reg(17),
        Reg(18),
    );
    b.li(best, i64::MAX);
    b.li(besti, -1);
    b.li(t, 0);
    b.li(tr, templates);
    let outer = b.place_label();
    b.li(dist, 0);
    b.li(j, 0);
    b.li(jr, tones);
    // addr of template t = TEMPLATE_BASE + t*tones  (strength-reduced:
    // kept in Reg(19) and advanced by `tones` per template).
    let inner = b.place_label();
    b.ld(f, j, FEATURE_BASE);
    b.add(d, t, Reg(0)); // d = t (template index)
    b.mul(d, d, jr); // d = t * tones
    b.add(d, d, j);
    b.ld(tv, d, TEMPLATE_BASE);
    b.sub(d, f, tv);
    // |d| branchless.
    b.shri(mask, d, 63);
    b.xor(d, d, mask);
    b.sub(d, d, mask);
    b.add(dist, dist, d);
    b.addi(j, j, 1);
    b.branch(Cond::Lt, j, jr, inner);
    // if dist < best { best = dist; besti = t }
    let skip = b.label();
    b.branch(Cond::Ge, dist, best, skip);
    b.addi(best, dist, 0);
    b.addi(besti, t, 0);
    b.place(skip);
    b.addi(t, t, 1);
    b.branch(Cond::Lt, t, tr, outer);
    b.st(best, Reg(0), RESULT_DISTANCE);
    b.st(besti, Reg(0), RESULT_INDEX);
}

/// The complete §3.1 voice-recognition system: Goertzel filter bank over
/// `n_samples` input samples for `tones` tones, followed by template
/// matching against `templates` stored templates.
///
/// # Errors
///
/// Returns [`AsipError::InvalidParameter`] for non-positive dimensions,
/// odd `n_samples` (the filter loop is unrolled ×2) or sizes that would
/// overflow the memory map.
pub fn voice_recognition(n_samples: i64, tones: i64, templates: i64) -> Result<Program, AsipError> {
    if n_samples <= 0 || n_samples % 2 != 0 || n_samples > COEFF_BASE {
        return Err(AsipError::InvalidParameter("n_samples"));
    }
    if tones <= 0 || tones > 64 {
        return Err(AsipError::InvalidParameter("tones"));
    }
    if templates <= 0 || templates * tones > DTW_BASE - TEMPLATE_BASE {
        return Err(AsipError::InvalidParameter("templates"));
    }
    let mut b = ProgramBuilder::new();
    for tone in 0..tones {
        emit_goertzel_tone(&mut b, n_samples, tone);
    }
    emit_template_match(&mut b, tones, templates);
    b.halt();
    b.build()
}

/// Fills a memory image with a deterministic test vector for
/// [`voice_recognition`]: a two-tone synthetic waveform, mid-range
/// Goertzel coefficients, and templates of which index 0 matches the
/// expected feature vector best.
#[must_use]
pub fn voice_test_memory(n_samples: i64, tones: i64, templates: i64, mem_words: usize) -> Vec<i64> {
    let mut mem = vec![0i64; mem_words];
    // Synthetic waveform: sum of two square-ish tones.
    for i in 0..n_samples as usize {
        let a = if (i / 4) % 2 == 0 { 80 } else { -80 };
        let c = if (i / 7) % 2 == 0 { 40 } else { -40 };
        mem[i] = a + c;
    }
    // Coefficients: spread over the fixed-point range.
    for t in 0..tones as usize {
        mem[COEFF_BASE as usize + t] = 180 + 12 * t as i64;
    }
    // Templates: template 0 is all-zero (closest to small features),
    // others grow increasingly distant.
    for t in 0..templates as usize {
        for j in 0..tones as usize {
            mem[TEMPLATE_BASE as usize + t * tones as usize + j] = (t as i64) * 5000;
        }
    }
    mem
}

/// Dot product of two `n`-element vectors at `mem[0..n]` and
/// `mem[1000..1000+n]`, result stored at `mem\[2000\]`.
///
/// The loop body is unrolled ×2, giving the identifier a wide fusible
/// window (the classic MAC pattern).
///
/// # Errors
///
/// Returns [`AsipError::InvalidParameter`] if `n == 0` or `n` is odd
/// (the unrolled loop needs an even count).
#[cfg(test)]
pub fn dot_product(n: i64) -> Result<Program, AsipError> {
    if n <= 0 || n % 2 != 0 {
        return Err(AsipError::InvalidParameter("n"));
    }
    let mut b = ProgramBuilder::new();
    let (i, nr, acc, x, c, t) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Reg(6));
    b.li(nr, n);
    let top = b.place_label();
    // Iteration 1.
    b.ld(x, i, 0);
    b.ld(c, i, 1000);
    b.mul(t, x, c);
    b.add(acc, acc, t);
    // Iteration 2 (unrolled).
    b.ld(x, i, 1);
    b.ld(c, i, 1001);
    b.mul(t, x, c);
    b.add(acc, acc, t);
    b.addi(i, i, 2);
    b.branch(Cond::Lt, i, nr, top);
    b.st(acc, Reg(0), 2000);
    b.halt();
    b.build()
}

/// `taps`-tap FIR filter over `n` samples: input at `mem[0..n]`,
/// coefficients at `mem[1000..]`, output at `mem[2000..]`.
///
/// # Errors
///
/// Returns [`AsipError::InvalidParameter`] for non-positive sizes or
/// `taps > n`.
#[cfg(test)]
pub fn fir_filter(n: i64, taps: i64) -> Result<Program, AsipError> {
    if n <= 0 || taps <= 0 || taps > n {
        return Err(AsipError::InvalidParameter("fir dimensions"));
    }
    let mut b = ProgramBuilder::new();
    let (i, j, nr, tr, acc, x, c, t, addr) = (
        Reg(1),
        Reg(2),
        Reg(3),
        Reg(4),
        Reg(5),
        Reg(6),
        Reg(7),
        Reg(8),
        Reg(9),
    );
    b.li(nr, n - taps + 1);
    b.li(tr, taps);
    let outer = b.place_label();
    b.li(acc, 0);
    b.li(j, 0);
    let inner = b.place_label();
    b.add(addr, i, j);
    b.ld(x, addr, 0);
    b.ld(c, j, 1000);
    b.mul(t, x, c);
    b.add(acc, acc, t);
    b.addi(j, j, 1);
    b.branch(Cond::Lt, j, tr, inner);
    b.st(acc, i, 2000);
    b.addi(i, i, 1);
    b.branch(Cond::Lt, i, nr, outer);
    b.halt();
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extend::ExtensionCatalog;
    use crate::iss::{Iss, IssConfig};

    fn run(p: &Program, mem: Vec<i64>) -> crate::iss::ExecReport {
        Iss::new(IssConfig::default(), ExtensionCatalog::new())
            .run_with_memory(p, mem)
            .expect("workload runs")
    }

    #[test]
    fn dot_product_computes_correctly() {
        let p = dot_product(16).expect("even n");
        let mut mem = vec![0i64; 1 << 16];
        let mut expected = 0i64;
        for k in 0..16 {
            mem[k] = k as i64 + 1;
            mem[1000 + k] = 2 * k as i64;
            expected += (k as i64 + 1) * 2 * k as i64;
        }
        let r = run(&p, mem);
        assert_eq!(r.memory[2000], expected);
    }

    #[test]
    fn dot_product_validation() {
        assert!(dot_product(0).is_err());
        assert!(dot_product(7).is_err());
        assert!(dot_product(-4).is_err());
    }

    #[test]
    fn fir_filter_computes_moving_dot() {
        let p = fir_filter(8, 3).expect("valid dims");
        let mut mem = vec![0i64; 1 << 16];
        for k in 0..8 {
            mem[k] = k as i64;
        }
        for k in 0..3 {
            mem[1000 + k] = 1;
        }
        let r = run(&p, mem);
        // Output i = x[i] + x[i+1] + x[i+2].
        for i in 0..6 {
            assert_eq!(
                r.memory[2000 + i],
                (i + (i + 1) + (i + 2)) as i64,
                "tap {i}"
            );
        }
    }

    #[test]
    fn fir_validation() {
        assert!(fir_filter(0, 1).is_err());
        assert!(fir_filter(8, 0).is_err());
        assert!(fir_filter(4, 8).is_err());
    }

    #[test]
    fn voice_recognition_picks_the_nearest_template() {
        let (n, tones, templates) = (64, 4, 8);
        let p = voice_recognition(n, tones, templates).expect("valid dims");
        let mem = voice_test_memory(n, tones, templates, 1 << 16);
        let r = run(&p, mem);
        let best_idx = r.memory[RESULT_INDEX as usize];
        assert!((0..templates).contains(&best_idx), "best index {best_idx}");
        let best_dist = r.memory[RESULT_DISTANCE as usize];
        assert!(best_dist >= 0);
        // Features were actually produced.
        for t in 0..tones as usize {
            assert!(r.memory[FEATURE_BASE as usize + t] >= 0);
        }
        // Template distances grow with index (template 0 is all-zero), so
        // the winner must be template 0 unless features are huge.
        assert_eq!(best_idx, 0);
    }

    #[test]
    fn voice_recognition_validation() {
        assert!(voice_recognition(63, 4, 8).is_err()); // odd
        assert!(voice_recognition(64, 0, 8).is_err());
        assert!(voice_recognition(64, 4, 0).is_err());
        assert!(voice_recognition(64, 65, 8).is_err());
        assert!(voice_recognition(8192, 4, 8).is_err()); // samples overrun
    }

    #[test]
    fn goertzel_dominates_the_cycle_budget() {
        let p = voice_recognition(256, 8, 4).expect("valid dims");
        let mem = voice_test_memory(256, 8, 4, 1 << 16);
        let r = run(&p, mem);
        // The filter bank touches 256 samples × 8 tones; matching only
        // 8 × 4 features. Most cycles must be in the filter loops.
        assert!(r.cycles > 256 * 8 * 5, "cycles {}", r.cycles);
    }
}
