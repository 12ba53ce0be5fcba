//! Discrete Fourier transforms.
//!
//! The interpolation method recovers polynomial coefficients from samples on
//! the unit circle through the inverse DFT (paper eq. (5)):
//!
//! ```text
//! p̂_i = (1/K) Σ_{k=0}^{K-1} P(s_k) · e^{-2πjik/K},   s_k = e^{2πjk/K}
//! ```
//!
//! `K = n+1` is arbitrary (the polynomial order is whatever the circuit
//! gives), so three algorithms are provided behind one [`Dft`] plan:
//!
//! * direct `O(K²)` evaluation with exact index reduction (`j·k mod K`)
//!   and fused multiply-adds,
//! * iterative radix-2 Cooley–Tukey for powers of two,
//! * Bluestein's chirp-z algorithm for everything else above a size cutoff.
//!
//! **The direct path's exactness contract.** Bin `i` of the direct
//! transform is the chain `acc ← x_k · w_{(i·k) mod n} + acc` over
//! `k = 0..n`, each step a complex multiply-add whose four real
//! operations are single-rounding fused multiply-adds. Two things make
//! its output a fixed function of its input, independent of how it is
//! compiled:
//!
//! * the twiddle index is reduced exactly — a running index stepped by
//!   `i` and wrapped by one conditional subtraction visits exactly
//!   `(i·k) mod n`, so every angle comes from the same table entry;
//! * `f64::mul_add` is correctly rounded under either dispatch. On
//!   x86-64 CPUs with FMA (probed once per process) the loop runs in a
//!   copy compiled for that instruction set, where each fused
//!   multiply-add is one instruction; elsewhere it runs in the generic
//!   copy, where it is the libm `fma` call. Both round once, so both
//!   give the same bits.
//!
//! The unit tests hold both copies, and the dispatched entry point, to a
//! verbatim `(i·k) % n` reference bit for bit at every size up to the
//! Bluestein cutoff, on random, extreme-range and special (±0,
//! subnormal, ±∞, NaN) inputs.
//!
//! A double-double direct transform ([`dft_direct_dd`]) serves as the
//! high-precision oracle in tests: the paper's `1e-13·max` error floor
//! (§2.2) is a property of *f64* DFTs and the oracle lets tests measure it.

use crate::complex::Complex;
use crate::dd::DdComplex;
use std::f64::consts::PI;

/// Size above which non-power-of-two transforms switch from the direct
/// algorithm to Bluestein. Below this the direct transform is both faster
/// and slightly more accurate.
const BLUESTEIN_CUTOFF: usize = 96;

/// A DFT plan for a fixed size `n`.
///
/// ```
/// use refgen_numeric::{Complex, dft::Dft};
/// let plan = Dft::new(4);
/// let x = vec![Complex::real(1.0); 4];
/// let spec = plan.forward(&x);
/// assert!((spec[0].re - 4.0).abs() < 1e-12);
/// assert!(spec[1].abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct Dft {
    n: usize,
    kind: Kind,
}

#[derive(Clone, Debug)]
enum Kind {
    Direct { twiddle: Vec<Complex> },
    Radix2 { rev: Vec<u32>, twiddle: Vec<Complex> },
    Bluestein(Box<Bluestein>),
}

#[derive(Clone, Debug)]
struct Bluestein {
    /// Chirp `w_j = e^{-πj·j²/n}`, reduced exactly mod 2n.
    chirp: Vec<Complex>,
    /// FFT of the zero-padded conjugate-chirp kernel.
    kernel_fft: Vec<Complex>,
    /// Inner power-of-two plan.
    inner: Dft,
    m: usize,
}

impl Dft {
    /// Creates a plan for size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "DFT size must be positive");
        let kind = if n.is_power_of_two() {
            Kind::Radix2 { rev: bit_reversal(n), twiddle: forward_twiddles(n) }
        } else if n <= BLUESTEIN_CUTOFF {
            Kind::Direct { twiddle: forward_twiddles(n) }
        } else {
            Kind::Bluestein(Box::new(Bluestein::new(n)))
        };
        Dft { n, kind }
    }

    /// The transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the plan size is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward transform: `X_i = Σ_k x_k e^{-2πjik/n}`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()`.
    pub fn forward(&self, x: &[Complex]) -> Vec<Complex> {
        assert_eq!(x.len(), self.n, "input length mismatch");
        match &self.kind {
            Kind::Direct { twiddle } => direct(x, twiddle),
            Kind::Radix2 { rev, twiddle } => {
                let mut buf = x.to_vec();
                radix2_in_place(&mut buf, rev, twiddle);
                buf
            }
            Kind::Bluestein(b) => b.forward(x),
        }
    }

    /// Inverse transform: `x_k = (1/n) Σ_i X_i e^{+2πjik/n}`.
    ///
    /// This is the paper's eq. (5) up to its sign convention: applying
    /// [`Dft::forward`] to unit-circle samples and dividing by `n` is
    /// identical to this inverse applied to conjugated samples.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()`.
    pub fn inverse(&self, x: &[Complex]) -> Vec<Complex> {
        assert_eq!(x.len(), self.n, "input length mismatch");
        // inverse(x) = conj(forward(conj(x))) / n
        let conj_in: Vec<Complex> = x.iter().map(|z| z.conj()).collect();
        let mut out = self.forward(&conj_in);
        let scale = 1.0 / self.n as f64;
        for z in &mut out {
            *z = z.conj().scale(scale);
        }
        out
    }
}

/// The `n` forward twiddles `e^{-2πjk/n}`, `k = 0..n`.
fn forward_twiddles(n: usize) -> Vec<Complex> {
    (0..n).map(|k| Complex::cis(-2.0 * PI * (k as f64) / (n as f64))).collect()
}

/// Direct `O(n²)` transform, dispatched once per process: on x86-64 CPUs
/// with FMA the loop runs through [`direct_fma`], elsewhere through
/// [`direct_generic`]. Both give the same bits (see the module docs).
fn direct(x: &[Complex], twiddle: &[Complex]) -> Vec<Complex> {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: FMA support was verified at runtime.
        return unsafe { direct_fma(x, twiddle) };
    }
    direct_generic(x, twiddle)
}

#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    use std::sync::OnceLock;
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| std::arch::is_x86_feature_detected!("fma"))
}

/// [`direct_loop`] compiled with the FMA instruction set, so each
/// `f64::mul_add` is one `vfmadd` instead of a libm `fma` call.
///
/// # Safety
///
/// The CPU must support FMA (see [`fma_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn direct_fma(x: &[Complex], twiddle: &[Complex]) -> Vec<Complex> {
    direct_loop(x, twiddle)
}

fn direct_generic(x: &[Complex], twiddle: &[Complex]) -> Vec<Complex> {
    direct_loop(x, twiddle)
}

#[inline(always)]
fn direct_loop(x: &[Complex], twiddle: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    let twiddle = &twiddle[..n];
    let mut out = Vec::with_capacity(n);
    // Four bins advance together: each bin's chain of dependent
    // multiply-adds runs in its own `k` order, and the four chains overlap.
    let mut first = 0;
    while first + 4 <= n {
        out.extend(direct_bins::<4>(x, twiddle, first));
        first += 4;
    }
    for i in first..n {
        out.extend(direct_bins::<1>(x, twiddle, i));
    }
    out
}

/// Bins `first..first + B` of the direct transform, each accumulated over
/// `k = 0..n` in order. Each bin's `idx` runs through `(i·k) mod n`
/// exactly: each step adds `i < n` to a value below `n`, so one
/// conditional subtraction reduces it.
#[inline(always)]
fn direct_bins<const B: usize>(x: &[Complex], twiddle: &[Complex], first: usize) -> [Complex; B] {
    let n = x.len();
    let mut acc = [Complex::ZERO; B];
    let mut idx = [0; B];
    for &xk in x {
        for b in 0..B {
            acc[b] = xk.mul_add(twiddle[idx[b]], acc[b]);
            idx[b] += first + b;
            if idx[b] >= n {
                idx[b] -= n;
            }
        }
    }
    acc
}

fn bit_reversal(n: usize) -> Vec<u32> {
    let bits = n.trailing_zeros();
    if bits == 0 {
        return vec![0];
    }
    (0..n as u32).map(|i| i.reverse_bits() >> (32 - bits)).collect()
}

fn radix2_in_place(buf: &mut [Complex], rev: &[u32], twiddle: &[Complex]) {
    let n = buf.len();
    for (i, &r) in rev.iter().enumerate() {
        let j = r as usize;
        if i < j {
            buf.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let stride = n / len;
        let half = len / 2;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let w = twiddle[k * stride];
                let a = buf[start + k];
                let b = buf[start + k + half] * w;
                buf[start + k] = a + b;
                buf[start + k + half] = a - b;
            }
        }
        len <<= 1;
    }
}

impl Bluestein {
    fn new(n: usize) -> Self {
        let m = (2 * n - 1).next_power_of_two();
        // w_j = e^{-πj j²/n}; reduce j² mod 2n exactly so the angle argument
        // stays small (j² overflows the accurate range of f64 trig quickly).
        let chirp: Vec<Complex> = (0..n)
            .map(|j| {
                let jj = ((j as u128 * j as u128) % (2 * n as u128)) as f64;
                Complex::cis(-PI * jj / n as f64)
            })
            .collect();
        let mut kernel = vec![Complex::ZERO; m];
        kernel[0] = chirp[0].conj();
        for j in 1..n {
            let c = chirp[j].conj();
            kernel[j] = c;
            kernel[m - j] = c;
        }
        let inner = Dft::new(m);
        let kernel_fft = inner.forward(&kernel);
        Bluestein { chirp, kernel_fft, inner, m }
    }

    fn forward(&self, x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        let mut a = vec![Complex::ZERO; self.m];
        for j in 0..n {
            a[j] = x[j] * self.chirp[j];
        }
        let mut fa = self.inner.forward(&a);
        for (v, k) in fa.iter_mut().zip(&self.kernel_fft) {
            *v *= *k;
        }
        let conv = self.inner.inverse(&fa);
        (0..n).map(|k| conv[k] * self.chirp[k]).collect()
    }
}

/// Direct forward DFT in double-double precision (test oracle).
///
/// Twiddles come from [`DdComplex::cis_fraction`], accurate to ~1e-26, so
/// the result is trustworthy far below the f64 round-off floor.
pub fn dft_direct_dd(x: &[DdComplex]) -> Vec<DdComplex> {
    let n = x.len() as i64;
    (0..n)
        .map(|i| {
            let mut acc = DdComplex::ZERO;
            for (k, &xk) in x.iter().enumerate() {
                let tw = DdComplex::cis_fraction(-(i * k as i64), n);
                acc += xk * tw;
            }
            acc
        })
        .collect()
}

/// The `K` unit-circle interpolation points `s_k = e^{2πjk/K}` of eq. (5).
///
/// The lower half-circle is generated as **exact bitwise conjugates** of the
/// upper half: `s_{K−i} = conj(s_i)` for `0 < i < K/2`. Mathematically the
/// two are identical; computing `cos`/`sin` at the two angles separately
/// would differ in the last bits, while negating the imaginary part is
/// exact. This is what lets conjugate-symmetric samplers (real-coefficient
/// systems, where `D(s̄) = conj(D(s))`) solve only the closed upper half of
/// a point set and mirror the rest bit-identically.
pub fn unit_circle_points(k: usize) -> Vec<Complex> {
    let mut pts: Vec<Complex> =
        (0..k).map(|i| Complex::cis(2.0 * PI * (i as f64) / (k as f64))).collect();
    // For even K the half-circle point i = K/2 is its own partner; it keeps
    // its directly computed value (`cis(π)` sits a ULP above the real axis,
    // which conveniently keeps samples off exact negative-real-axis
    // polynomial roots) and is never mirrored.
    for i in 1..k.div_ceil(2) {
        pts[k - i] = pts[i].conj();
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dd::Dd;

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max)
    }

    /// Reference naive DFT without twiddle tables.
    fn naive(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|k| x[k] * Complex::cis(-2.0 * PI * (i as f64) * (k as f64) / (n as f64)))
                    .sum()
            })
            .collect()
    }

    fn random_signal(n: usize, seed: u64) -> Vec<Complex> {
        // Small deterministic LCG; avoids a rand dependency in unit tests.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        (0..n).map(|_| Complex::new(next(), next())).collect()
    }

    #[test]
    fn impulse_transforms_to_ones() {
        for n in [1, 2, 5, 8, 49, 97, 128, 200] {
            let mut x = vec![Complex::ZERO; n];
            x[0] = Complex::ONE;
            let plan = Dft::new(n);
            let spec = plan.forward(&x);
            for z in spec {
                assert!((z - Complex::ONE).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn matches_naive_all_algorithms() {
        for n in [3, 4, 7, 16, 31, 49, 64, 97, 120, 130, 257] {
            let x = random_signal(n, n as u64);
            let plan = Dft::new(n);
            let got = plan.forward(&x);
            let want = naive(&x);
            let scale: f64 = x.iter().map(|z| z.abs()).sum();
            assert!(max_err(&got, &want) < 1e-11 * scale.max(1.0), "n={n}");
        }
    }

    #[test]
    fn forward_inverse_round_trip() {
        for n in [1, 2, 6, 8, 49, 100, 129, 256] {
            let x = random_signal(n, 7 * n as u64 + 1);
            let plan = Dft::new(n);
            let back = plan.inverse(&plan.forward(&x));
            assert!(max_err(&back, &x) < 1e-11, "n={n}");
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 97;
        let x = random_signal(n, 42);
        let plan = Dft::new(n);
        let spec = plan.forward(&x);
        let et: f64 = x.iter().map(|z| z.abs_sq()).sum();
        let ef: f64 = spec.iter().map(|z| z.abs_sq()).sum::<f64>() / n as f64;
        assert!((et - ef).abs() < 1e-10 * et);
    }

    #[test]
    fn polynomial_coefficient_recovery() {
        // P(s) = 3 - 2s + 0.5 s² sampled on the unit circle; eq. (5) recovers
        // its coefficients via forward/n.
        let coeffs = [Complex::real(3.0), Complex::real(-2.0), Complex::real(0.5)];
        let k = coeffs.len();
        let pts = unit_circle_points(k);
        let samples: Vec<Complex> = pts
            .iter()
            .map(|&s| coeffs.iter().rev().fold(Complex::ZERO, |acc, &c| acc * s + c))
            .collect();
        let plan = Dft::new(k);
        let rec = plan.forward(&samples);
        for (i, &c) in coeffs.iter().enumerate() {
            assert!((rec[i].scale(1.0 / k as f64) - c).abs() < 1e-13);
        }
    }

    #[test]
    fn oversampled_recovery_pads_zeros() {
        // K > n+1: higher coefficients must be ~0 (the paper's order test).
        let coeffs = [Complex::real(1.0), Complex::real(4.0)];
        let k = 9;
        let pts = unit_circle_points(k);
        let samples: Vec<Complex> = pts.iter().map(|&s| coeffs[0] + coeffs[1] * s).collect();
        let rec = Dft::new(k).forward(&samples);
        for (i, z) in rec.iter().enumerate().skip(2) {
            assert!(z.abs() / (k as f64) < 1e-13, "i={i}");
        }
    }

    #[test]
    fn dd_oracle_matches_f64_within_floor() {
        let n = 49;
        let x = random_signal(n, 5);
        let xd: Vec<DdComplex> = x.iter().map(|z| DdComplex::from_f64(z.re, z.im)).collect();
        let f = Dft::new(n).forward(&x);
        let d = dft_direct_dd(&xd);
        for (a, b) in f.iter().zip(&d) {
            let err = ((a.re - b.re.to_f64()).powi(2) + (a.im - b.im.to_f64()).powi(2)).sqrt();
            assert!(err < 1e-12, "err={err}");
        }
    }

    #[test]
    fn dd_oracle_exposes_f64_error_floor() {
        // Plant coefficients spanning 20 decades; the f64 DFT loses the small
        // ones (error ~1e-16·max) while the dd oracle keeps them. This is the
        // paper's §2.2 phenomenon in miniature.
        let n = 8;
        let coeffs: Vec<f64> = (0..n).map(|i| 10f64.powi(-(3 * i as i32))).collect();
        let pts = unit_circle_points(n);
        let samples: Vec<Complex> = pts
            .iter()
            .map(|&s| coeffs.iter().rev().fold(Complex::ZERO, |acc, &c| acc * s + Complex::real(c)))
            .collect();
        let samples_dd: Vec<DdComplex> = (0..n)
            .map(|k| {
                // dd-accurate interpolation points: the oracle must not
                // inherit the f64 points' ~1e-17 angle error.
                let sd = DdComplex::cis_fraction(k as i64, n as i64);
                let mut acc = DdComplex::ZERO;
                for &c in coeffs.iter().rev() {
                    acc = acc * sd + DdComplex::new(Dd::from(c), Dd::ZERO);
                }
                acc
            })
            .collect();
        let f = Dft::new(n).forward(&samples);
        let d = dft_direct_dd(&samples_dd);
        // dd recovers the 1e-21 coefficient to good relative accuracy...
        let c7_dd = d[7].re.to_f64() / n as f64;
        assert!((c7_dd - 1e-21).abs() / 1e-21 < 1e-6, "dd got {c7_dd}");
        // ...while f64 drowns it in round-off from the 1e0 coefficient.
        let c7_f64 = f[7].re / n as f64;
        assert!((c7_f64 - 1e-21).abs() / 1e-21 > 1e-2, "f64 got {c7_f64}");
    }

    #[test]
    fn unit_circle_points_are_unit() {
        for &s in &unit_circle_points(49) {
            assert!((s.abs() - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn unit_circle_points_are_exactly_conjugate_paired() {
        for k in [1usize, 2, 3, 4, 7, 8, 9, 41] {
            let pts = unit_circle_points(k);
            for i in 1..k {
                if 2 * i == k {
                    // The half-circle point is its own partner and is
                    // never mirrored.
                    continue;
                }
                let (a, b) = (pts[i], pts[k - i]);
                // Bitwise equality, not approximate: mirroring depends on it.
                assert_eq!(a.re.to_bits(), b.conj().re.to_bits(), "k={k}, i={i}");
                assert_eq!(a.im.to_bits(), b.conj().im.to_bits(), "k={k}, i={i}");
                // …and the points still match their defining angles.
                let theta = 2.0 * PI * (i as f64) / (k as f64);
                assert!((a - Complex::cis(theta)).abs() < 1e-15, "k={k}, i={i}");
            }
        }
    }

    /// The direct transform as it was written before the running twiddle
    /// index and the FMA dispatch, kept verbatim as the identity
    /// reference.
    fn direct_reference(x: &[Complex], twiddle: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut acc = Complex::ZERO;
            for (k, &xk) in x.iter().enumerate() {
                acc = xk.mul_add(twiddle[(i * k) % n], acc);
            }
            out.push(acc);
        }
        out
    }

    /// Seeded signals of length `n`: plain random values, random values
    /// spread over the whole exponent range, and random values salted with
    /// ±0, subnormals, ±∞ and NaN.
    fn identity_signals(n: usize) -> Vec<Vec<Complex>> {
        const SPECIALS: [f64; 8] = [
            0.0,
            -0.0,
            5e-324,
            -2.5e-310,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let plain = random_signal(n, 3 * n as u64);
        let spread: Vec<Complex> = random_signal(n, 3 * n as u64 + 1)
            .iter()
            .zip(random_signal(n, 3 * n as u64 + 2))
            .map(|(z, e)| z.scale(2f64.powi((e.re * 1900.0) as i32)))
            .collect();
        let mut salted = random_signal(n, 3 * n as u64 + 3);
        for (k, z) in salted.iter_mut().enumerate() {
            let pick = (k * 7 + n) % 11;
            if pick < SPECIALS.len() {
                z.re = SPECIALS[pick];
            }
            if (pick + 5) % 11 < SPECIALS.len() {
                z.im = SPECIALS[(pick + 5) % 11];
            }
        }
        vec![plain, spread, salted]
    }

    #[track_caller]
    fn assert_same_bits(got: &[Complex], want: &[Complex], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        let same = |a: f64, b: f64| (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits();
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(same(g.re, w.re) && same(g.im, w.im), "{what}, bin {i}: {g:?} vs {w:?}");
        }
    }

    /// The running twiddle index is the exact `(i·k) mod n`, and the
    /// fused multiply-add rounds once under either dispatch: the
    /// dispatched transform, the generic copy and (where the CPU has it)
    /// the FMA copy all reproduce the reference bit for bit.
    #[test]
    fn direct_paths_match_reference_bit_for_bit() {
        for n in 1..=96 {
            let twiddle = forward_twiddles(n);
            for (j, x) in identity_signals(n).iter().enumerate() {
                let want = direct_reference(x, &twiddle);
                assert_same_bits(&direct(x, &twiddle), &want, &format!("dispatched, n={n}/{j}"));
                assert_same_bits(
                    &direct_generic(x, &twiddle),
                    &want,
                    &format!("generic, n={n}/{j}"),
                );
                #[cfg(target_arch = "x86_64")]
                if fma_available() {
                    // SAFETY: FMA support was verified at runtime.
                    let got = unsafe { direct_fma(x, &twiddle) };
                    assert_same_bits(&got, &want, &format!("fma, n={n}/{j}"));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        Dft::new(8).forward(&[Complex::ZERO; 4]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_size_panics() {
        Dft::new(0);
    }
}
