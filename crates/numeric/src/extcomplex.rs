//! Extended-range complex numbers.
//!
//! An [`ExtComplex`] is a [`Complex`] mantissa paired with a shared `i64`
//! binary exponent, normalized so `max(|re|, |im|) ∈ [1, 2)`. It is the
//! representation of every denormalized network-function coefficient in this
//! workspace, and of determinant values accumulated during the LU
//! factorization (whose magnitudes reach `1e±124` *before* denormalization
//! and `1e-522` after, per the paper's Tables 2–3).

use crate::complex::Complex;
use crate::extfloat::{pow2, ExtFloat};
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An extended-range complex number `m · 2^e` with complex mantissa `m`.
///
/// ```
/// use refgen_numeric::{Complex, ExtComplex};
/// let z = ExtComplex::from_complex(Complex::new(1e-200, 2e-200));
/// let w = z * z * z; // far below f64 range
/// assert!((w.norm().log10() + 599.0).abs() < 1.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ExtComplex {
    mantissa: Complex,
    exponent: i64,
}

impl ExtComplex {
    /// Zero.
    pub const ZERO: ExtComplex = ExtComplex { mantissa: Complex::ZERO, exponent: 0 };
    /// One.
    pub const ONE: ExtComplex = ExtComplex { mantissa: Complex::ONE, exponent: 0 };

    /// Creates from a complex mantissa and binary exponent, normalizing.
    pub fn new(mantissa: Complex, exponent: i64) -> Self {
        ExtComplex { mantissa, exponent }.normalized()
    }

    /// Converts a plain [`Complex`] exactly.
    pub fn from_complex(z: Complex) -> Self {
        ExtComplex { mantissa: z, exponent: 0 }.normalized()
    }

    /// Converts a real `f64` exactly.
    pub fn from_f64(x: f64) -> Self {
        ExtComplex::from_complex(Complex::real(x))
    }

    /// Builds from extended-range real and imaginary parts.
    pub fn from_parts(re: ExtFloat, im: ExtFloat) -> Self {
        if re.is_zero() && im.is_zero() {
            return ExtComplex::ZERO;
        }
        let e = re_im_common_exponent(re, im);
        let rm = shift_to(re, e);
        let im_ = shift_to(im, e);
        ExtComplex::new(Complex::new(rm, im_), e)
    }

    /// The complex mantissa, with `max(|re|,|im|) ∈ [1,2)` unless zero.
    #[inline]
    pub fn mantissa(self) -> Complex {
        self.mantissa
    }

    /// The shared binary exponent.
    #[inline]
    pub fn exponent(self) -> i64 {
        self.exponent
    }

    fn normalized(self) -> Self {
        let m = self.mantissa;
        if m.re == 0.0 && m.im == 0.0 {
            return ExtComplex::ZERO;
        }
        if !m.is_finite() {
            return ExtComplex { mantissa: m, exponent: 0 };
        }
        // Normalize on the dominant component.
        let mut m = m;
        let mut exponent = self.exponent;
        let mut dom = m.re.abs().max(m.im.abs());
        if dom < f64::MIN_POSITIVE {
            // A subnormal dominant component's shift (up to 1074) has no
            // finite `2^-shift`: pre-scale both components into the normal
            // range first, exactly, as `ExtFloat` does.
            let k = pow2(200);
            m = Complex::new(m.re * k, m.im * k);
            exponent -= 200;
            dom *= k;
        }
        // `dom` is normal here, so its exponent field is its binary exponent.
        let shift = ((dom.to_bits() >> 52) & 0x7ff) as i64 - 1023;
        if shift == 0 {
            return ExtComplex { mantissa: m, exponent };
        }
        let k = pow2(-shift);
        ExtComplex { mantissa: Complex::new(m.re * k, m.im * k), exponent: exponent + shift }
    }

    /// Returns `true` if the value is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.mantissa.re == 0.0 && self.mantissa.im == 0.0
    }

    /// Returns `true` if the mantissa is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.mantissa.is_finite()
    }

    /// Extended-range real part.
    pub fn re(self) -> ExtFloat {
        ExtFloat::new(self.mantissa.re, self.exponent)
    }

    /// Extended-range imaginary part.
    pub fn im(self) -> ExtFloat {
        ExtFloat::new(self.mantissa.im, self.exponent)
    }

    /// Magnitude `|z|` as an [`ExtFloat`].
    pub fn norm(self) -> ExtFloat {
        ExtFloat::new(self.mantissa.abs(), self.exponent)
    }

    /// Argument (phase) of the mantissa — the exponent is real and positive,
    /// so this is the argument of the value.
    pub fn arg(self) -> f64 {
        self.mantissa.arg()
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        ExtComplex { mantissa: self.mantissa.conj(), exponent: self.exponent }
    }

    /// Converts to a plain [`Complex`], saturating/flushing out of range.
    pub fn to_complex(self) -> Complex {
        if self.is_zero() {
            return Complex::ZERO;
        }
        if self.exponent > 1030 {
            return Complex::new(
                self.mantissa.re * f64::INFINITY,
                self.mantissa.im * f64::INFINITY,
            );
        }
        if self.exponent < -1080 {
            return Complex::ZERO;
        }
        let half = self.exponent / 2;
        let a = pow2(half);
        let b = pow2(self.exponent - half);
        Complex::new(self.mantissa.re * a * b, self.mantissa.im * a * b)
    }

    /// Scales by an extended-range real factor.
    pub fn scale_ext(self, k: ExtFloat) -> Self {
        ExtComplex::new(self.mantissa.scale(k.mantissa()), self.exponent + k.exponent())
    }

    /// `self · 2^k` — exact exponent shift.
    pub fn ldexp(self, k: i64) -> Self {
        if self.is_zero() {
            return self;
        }
        ExtComplex { mantissa: self.mantissa, exponent: self.exponent + k }
    }

    /// Integer power by binary exponentiation.
    pub fn powi(self, n: i64) -> Self {
        if n == 0 {
            return ExtComplex::ONE;
        }
        let mut base = if n < 0 { ExtComplex::ONE / self } else { self };
        let mut k = n.unsigned_abs();
        let mut acc = ExtComplex::ONE;
        while k > 0 {
            if k & 1 == 1 {
                acc *= base;
            }
            base = base * base;
            k >>= 1;
        }
        acc
    }

    /// Mantissa shifted so the value equals `mantissa · 2^target_exp`.
    ///
    /// Returns 0.0 when the shift underflows f64 (more than ~120 binary
    /// digits below the target). Used to bring a set of coefficients to a
    /// common exponent before an f64-domain DFT.
    pub fn mantissa_at_exponent(self, target_exp: i64) -> Complex {
        if self.is_zero() {
            return Complex::ZERO;
        }
        let shift = self.exponent - target_exp;
        if shift < -1060 {
            return Complex::ZERO;
        }
        if shift > 1020 {
            return Complex::new(
                self.mantissa.re * f64::INFINITY,
                self.mantissa.im * f64::INFINITY,
            );
        }
        let k = pow2(shift);
        Complex::new(self.mantissa.re * k, self.mantissa.im * k)
    }
}

/// Deferred-normalization accumulator for long products of plain
/// [`Complex`] factors — the determinant fold of an LU pivot sequence.
///
/// The eager fold `det = det * ExtComplex::from_complex(pivot)` pays two
/// normalizations (exponent-bit extraction plus a scaling multiply each)
/// per factor — pure bookkeeping that dominates the sequential replay's
/// determinant cost. `ExtProduct` multiplies the raw factor into an
/// unnormalized complex mantissa and re-extracts the exponent only when
/// the mantissa's dominant component leaves a safe magnitude window,
/// which for well-scaled pivot sequences is once every ~100 factors
/// instead of every factor.
///
/// **Bit-identity.** [`ExtProduct::value`] equals the eager fold's result
/// bit for bit, by construction: every `f64` operation both schemes
/// perform commutes with exact power-of-two rescaling as long as no
/// intermediate is subnormal or overflows. The fast path is guarded so
/// that this always holds — it requires every nonzero component of both
/// the factor and the running mantissa to lie in `[2⁻¹²⁸, 2¹²⁸]`. Within
/// that window the deferred scheme's products lie in `[2⁻²⁵⁶, 2²⁵⁸]` and
/// its nonzero sums are `≥ 2⁻³⁰⁹`; the eager scheme's corresponding
/// intermediates are bounded below by `≥ 2⁻⁵⁶⁷` (the drift between the
/// two scalings is at most `2¹²⁹`) — all normal in both schemes, so
/// rounding commutes with the scaling and the mantissas differ by an
/// exact power of two at every step. A factor or accumulator component
/// outside the window (zero overall, subnormal-adjacent, huge, or
/// non-finite) takes the exact eager step for that factor instead.
///
/// ```
/// use refgen_numeric::{Complex, ExtComplex, ExtProduct};
/// let pivots = [Complex::new(3.0e100, -2.0e-80), Complex::new(-1.5e-90, 4.0e120)];
/// let mut fast = ExtProduct::ONE;
/// let mut eager = ExtComplex::ONE;
/// for &p in &pivots {
///     fast.mul_complex(p);
///     eager = eager * ExtComplex::from_complex(p);
/// }
/// assert_eq!(fast.value().mantissa(), eager.mantissa());
/// assert_eq!(fast.value().exponent(), eager.exponent());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ExtProduct {
    mantissa: Complex,
    exponent: i64,
}

/// Lower edge of the fast-path magnitude window: `2⁻¹²⁸`.
const WINDOW_LO: f64 = f64::from_bits((1023 - 128) << 52);
/// Upper edge of the fast-path magnitude window: `2¹²⁸`.
const WINDOW_HI: f64 = f64::from_bits((1023 + 128) << 52);

impl ExtProduct {
    /// The empty product.
    pub const ONE: ExtProduct = ExtProduct { mantissa: Complex::ONE, exponent: 0 };

    /// A component is fast-path safe when it is zero or its magnitude is
    /// inside the window (NaN/∞ fail both arms).
    #[inline(always)]
    fn safe(x: f64) -> bool {
        let a = x.abs();
        x == 0.0 || (WINDOW_LO..=WINDOW_HI).contains(&a)
    }

    /// Multiplies the accumulated product by a plain complex factor,
    /// bit-identical to `acc * ExtComplex::from_complex(z)` on the eager
    /// [`ExtComplex`] chain.
    #[inline]
    pub fn mul_complex(&mut self, z: Complex) {
        let m = self.mantissa;
        if Self::safe(z.re)
            && Self::safe(z.im)
            && Self::safe(m.re)
            && Self::safe(m.im)
            && (z.re != 0.0 || z.im != 0.0)
            && (m.re != 0.0 || m.im != 0.0)
        {
            let p = m * z;
            let dom = p.re.abs().max(p.im.abs());
            if (WINDOW_LO..=WINDOW_HI).contains(&dom) {
                self.mantissa = p;
                return;
            }
            if dom == 0.0 {
                // Exact complex product of nonzero factors is never zero,
                // but the rounded component sums can both be: the eager
                // chain lands on exactly zero too (its sums are the same
                // values at a shifted scale).
                *self = ExtProduct { mantissa: Complex::ZERO, exponent: 0 };
                return;
            }
            // Dominant component drifted out of the window: re-extract its
            // binary exponent and rescale — exact, `dom` is normal here.
            let delta = ((dom.to_bits() >> 52) & 0x7ff) as i64 - 1023;
            let k = f64::from_bits(((1023 - delta) as u64) << 52);
            self.mantissa = Complex::new(p.re * k, p.im * k);
            self.exponent += delta;
            return;
        }
        // Out-of-window factor or accumulator: take the exact eager step.
        // The deferred state differs from the eager chain's by an exact
        // power of two, which `ExtComplex::new` removes, so this re-syncs
        // the two schemes bit for bit.
        let eager = ExtComplex::new(m, self.exponent) * ExtComplex::from_complex(z);
        self.mantissa = eager.mantissa;
        self.exponent = eager.exponent;
    }

    /// The accumulated product, normalized — bit-identical to the eager
    /// `fold(ExtComplex::ONE, |d, z| d * ExtComplex::from_complex(z))`.
    #[inline]
    pub fn value(self) -> ExtComplex {
        ExtComplex::new(self.mantissa, self.exponent)
    }
}

fn re_im_common_exponent(re: ExtFloat, im: ExtFloat) -> i64 {
    match (re.is_zero(), im.is_zero()) {
        (true, true) => 0,
        (false, true) => re.exponent(),
        (true, false) => im.exponent(),
        (false, false) => re.exponent().max(im.exponent()),
    }
}

fn shift_to(x: ExtFloat, e: i64) -> f64 {
    if x.is_zero() {
        return 0.0;
    }
    let shift = x.exponent() - e;
    if shift < -1060 {
        0.0
    } else {
        x.mantissa() * pow2(shift)
    }
}

impl Default for ExtComplex {
    fn default() -> Self {
        ExtComplex::ZERO
    }
}

impl From<Complex> for ExtComplex {
    fn from(z: Complex) -> Self {
        ExtComplex::from_complex(z)
    }
}

impl From<f64> for ExtComplex {
    fn from(x: f64) -> Self {
        ExtComplex::from_f64(x)
    }
}

impl From<ExtFloat> for ExtComplex {
    fn from(x: ExtFloat) -> Self {
        ExtComplex::new(Complex::real(x.mantissa()), x.exponent())
    }
}

impl Neg for ExtComplex {
    type Output = ExtComplex;
    #[inline]
    fn neg(self) -> ExtComplex {
        ExtComplex { mantissa: -self.mantissa, exponent: self.exponent }
    }
}

impl Mul for ExtComplex {
    type Output = ExtComplex;
    #[inline]
    fn mul(self, rhs: ExtComplex) -> ExtComplex {
        ExtComplex::new(self.mantissa * rhs.mantissa, self.exponent + rhs.exponent)
    }
}

impl Div for ExtComplex {
    type Output = ExtComplex;
    #[inline]
    fn div(self, rhs: ExtComplex) -> ExtComplex {
        ExtComplex::new(self.mantissa / rhs.mantissa, self.exponent - rhs.exponent)
    }
}

impl Mul<Complex> for ExtComplex {
    type Output = ExtComplex;
    #[inline]
    fn mul(self, rhs: Complex) -> ExtComplex {
        ExtComplex::new(self.mantissa * rhs, self.exponent)
    }
}

impl Div<Complex> for ExtComplex {
    type Output = ExtComplex;
    #[inline]
    fn div(self, rhs: Complex) -> ExtComplex {
        ExtComplex::new(self.mantissa / rhs, self.exponent)
    }
}

impl Add for ExtComplex {
    type Output = ExtComplex;
    fn add(self, rhs: ExtComplex) -> ExtComplex {
        if self.is_zero() {
            return rhs;
        }
        if rhs.is_zero() {
            return self;
        }
        let (hi, lo) = if self.exponent >= rhs.exponent { (self, rhs) } else { (rhs, self) };
        let shift = hi.exponent - lo.exponent;
        if shift > 120 {
            return hi;
        }
        let k = pow2(-shift);
        ExtComplex::new(
            Complex::new(hi.mantissa.re + lo.mantissa.re * k, hi.mantissa.im + lo.mantissa.im * k),
            hi.exponent,
        )
    }
}

impl Sub for ExtComplex {
    type Output = ExtComplex;
    #[inline]
    fn sub(self, rhs: ExtComplex) -> ExtComplex {
        self + (-rhs)
    }
}

impl AddAssign for ExtComplex {
    fn add_assign(&mut self, rhs: ExtComplex) {
        *self = *self + rhs;
    }
}

impl SubAssign for ExtComplex {
    fn sub_assign(&mut self, rhs: ExtComplex) {
        *self = *self - rhs;
    }
}

impl MulAssign for ExtComplex {
    fn mul_assign(&mut self, rhs: ExtComplex) {
        *self = *self * rhs;
    }
}

impl DivAssign for ExtComplex {
    fn div_assign(&mut self, rhs: ExtComplex) {
        *self = *self / rhs;
    }
}

impl Sum for ExtComplex {
    fn sum<I: Iterator<Item = ExtComplex>>(iter: I) -> ExtComplex {
        iter.fold(ExtComplex::ZERO, |a, b| a + b)
    }
}

impl Product for ExtComplex {
    fn product<I: Iterator<Item = ExtComplex>>(iter: I) -> ExtComplex {
        iter.fold(ExtComplex::ONE, |a, b| a * b)
    }
}

impl PartialEq for ExtComplex {
    fn eq(&self, other: &Self) -> bool {
        self.re() == other.re() && self.im() == other.im()
    }
}

impl fmt::Display for ExtComplex {
    /// Paper-table style: `-2.77330e-339+j1.00000e-345`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prec = f.precision().unwrap_or(5);
        let re = self.re();
        let im = self.im();
        if im.signum() < 0.0 {
            write!(f, "{re:.prec$}-j{:.prec$}", -im)
        } else {
            write!(f, "{re:.prec$}+j{im:.prec$}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: ExtComplex, b: ExtComplex, rel: f64) {
        if a.is_zero() && b.is_zero() {
            return;
        }
        let diff = (a - b).norm();
        let scale = a.norm().max_abs(b.norm());
        assert!(
            (diff / scale).to_f64() <= rel,
            "a={a}, b={b}, rel diff {}",
            (diff / scale).to_f64()
        );
    }

    #[test]
    fn round_trip_complex() {
        let z = Complex::new(-3.5e-7, 2.25e3);
        let e = ExtComplex::from_complex(z);
        let back = e.to_complex();
        assert!((back - z).abs() < 1e-20);
    }

    #[test]
    fn subnormal_inputs_normalize_and_round_trip() {
        for (re, im) in [(5e-324, 0.0), (1e-310, 0.0), (1e-310, 3e-320), (-3e-320, 2.5e-309)] {
            let z = Complex::new(re, im);
            let e = ExtComplex::from_complex(z);
            let m = e.mantissa();
            assert!(m.is_finite(), "{z:?}: mantissa {m:?}");
            assert!((1.0..2.0).contains(&m.re.abs().max(m.im.abs())), "{z:?}: {e:?}");
            // Same exponent as the dominant part through `ExtFloat`.
            let dom = ExtFloat::from_f64(re.abs().max(im.abs()));
            assert_eq!(e.exponent(), dom.exponent(), "{z:?}");
            let back = e.to_complex();
            assert_eq!((back.re.to_bits(), back.im.to_bits()), (re.to_bits(), im.to_bits()));
        }
    }

    #[test]
    fn normal_inputs_keep_their_normalization() {
        // Before the subnormal pre-scale, normalization read the dominant
        // component's exponent through `ExtFloat::from_f64` and scaled by
        // `2^-shift`; normal inputs must still take exactly that path.
        let reference = |z: Complex| {
            let shift = ExtFloat::from_f64(z.re.abs().max(z.im.abs())).exponent();
            let k = 2f64.powi(-shift as i32);
            (Complex::new(z.re * k, z.im * k), shift)
        };
        for (re, im) in [
            (3.0, -40.0),
            (f64::MIN_POSITIVE, 5e-324),
            (-1e-300, 1e-310),
            (1.5, 0.0),
            (0.0, -7e300),
            (f64::MAX, -f64::MAX),
        ] {
            let z = Complex::new(re, im);
            let e = ExtComplex::from_complex(z);
            let (m, shift) = reference(z);
            assert_eq!(
                (e.mantissa().re.to_bits(), e.mantissa().im.to_bits(), e.exponent()),
                (m.re.to_bits(), m.im.to_bits(), shift),
                "{z:?}"
            );
        }
    }

    #[test]
    fn normalization_dominant_component() {
        let e = ExtComplex::from_complex(Complex::new(3.0, -40.0));
        let dom = e.mantissa().re.abs().max(e.mantissa().im.abs());
        assert!((1.0..2.0).contains(&dom));
    }

    #[test]
    fn arithmetic_matches_complex_in_range() {
        let a = Complex::new(1.3, -0.7);
        let b = Complex::new(-2.0, 0.25);
        let ea = ExtComplex::from_complex(a);
        let eb = ExtComplex::from_complex(b);
        assert_close(ea * eb, ExtComplex::from_complex(a * b), 1e-15);
        assert_close(ea + eb, ExtComplex::from_complex(a + b), 1e-15);
        assert_close(ea - eb, ExtComplex::from_complex(a - b), 1e-15);
        assert_close(ea / eb, ExtComplex::from_complex(a / b), 1e-15);
    }

    #[test]
    fn products_beyond_f64_range() {
        let z = ExtComplex::from_complex(Complex::new(1e-200, 1e-200));
        let w = z.powi(5); // |w| ~ 1e-1000 · 2^{5/2}
        assert!(w.norm().log10() < -990.0);
        let back = w / z / z / z / z;
        assert_close(back, z, 1e-12);
    }

    #[test]
    fn from_parts_mixed_exponents() {
        let re = ExtFloat::from_pow10(-400);
        let im = -ExtFloat::from_pow10(-395);
        let z = ExtComplex::from_parts(re, im);
        assert!((z.re().log10() + 400.0).abs() < 1e-6);
        assert!((z.im().log10() + 395.0).abs() < 1e-6);
        assert!(z.im().signum() < 0.0);
        // Real part far below the imaginary part is still preserved
        // (shift < 120 binary digits ≈ 36 decades).
        let z2 = ExtComplex::from_parts(ExtFloat::from_pow10(-430), ExtFloat::from_pow10(-400));
        assert!((z2.re().log10() + 430.0).abs() < 1e-6);
    }

    #[test]
    fn powi_zero_and_negative() {
        let z = ExtComplex::from_complex(Complex::new(2.0, 1.0));
        assert_eq!(z.powi(0), ExtComplex::ONE);
        assert_close(z.powi(-2) * z.powi(2), ExtComplex::ONE, 1e-13);
    }

    #[test]
    fn mantissa_at_exponent_alignment() {
        let a = ExtComplex::from_f64(3.0);
        let m = a.mantissa_at_exponent(2);
        assert!((m.re - 0.75).abs() < 1e-15);
        // Underflow flush.
        let tiny = ExtComplex::new(Complex::ONE, -2000);
        assert_eq!(tiny.mantissa_at_exponent(0), Complex::ZERO);
    }

    #[test]
    fn display_paper_style() {
        let z = ExtComplex::from_parts(
            ExtFloat::from_f64(-2.7733) * ExtFloat::from_pow10(-339),
            ExtFloat::ZERO,
        );
        let s = format!("{z}");
        assert!(s.starts_with("-2.7733") && s.contains("e-339"), "{s}");
    }

    #[test]
    fn sum_preserves_small_terms_within_window() {
        // Terms spanning 30 decades must all contribute.
        let terms: Vec<ExtComplex> = (0..4)
            .map(|k| ExtComplex::from_f64(1.0).scale_ext(ExtFloat::from_pow10(-10 * k)))
            .collect();
        let s: ExtComplex = terms.iter().copied().sum();
        let expect = 1.0 + 1e-10 + 1e-20 + 1e-30;
        assert!((s.re().to_f64() - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn conj_and_arg() {
        let z = ExtComplex::from_complex(Complex::new(1.0, 1.0));
        assert!((z.arg() - std::f64::consts::FRAC_PI_4).abs() < 1e-15);
        assert!((z.conj().arg() + std::f64::consts::FRAC_PI_4).abs() < 1e-15);
    }

    /// The eager reference fold the deferred product must reproduce.
    fn eager_fold(pivots: &[Complex]) -> ExtComplex {
        pivots.iter().fold(ExtComplex::ONE, |d, &z| d * ExtComplex::from_complex(z))
    }

    fn deferred_fold(pivots: &[Complex]) -> ExtComplex {
        let mut p = ExtProduct::ONE;
        for &z in pivots {
            p.mul_complex(z);
        }
        p.value()
    }

    #[track_caller]
    fn assert_bit_identical(pivots: &[Complex]) {
        let a = deferred_fold(pivots);
        let b = eager_fold(pivots);
        assert_eq!(
            (a.mantissa().re.to_bits(), a.mantissa().im.to_bits(), a.exponent()),
            (b.mantissa().re.to_bits(), b.mantissa().im.to_bits(), b.exponent()),
            "deferred {a} vs eager {b} for {pivots:?}"
        );
    }

    #[test]
    fn ext_product_edge_pivots_match_eager() {
        let sub = f64::MIN_POSITIVE / 8.0; // subnormal
        let cases: &[&[Complex]] = &[
            &[],
            &[Complex::ZERO],
            &[Complex::new(2.0, 3.0), Complex::ZERO, Complex::new(1.0, 1.0)],
            &[Complex::new(sub, 0.0), Complex::new(0.0, sub)],
            &[Complex::new(1e308, -1e308), Complex::new(1e308, 1e308)],
            &[Complex::new(1e-300, 1.0), Complex::new(1.0, 1e-300)],
            &[Complex::new(f64::MAX, f64::MIN_POSITIVE), Complex::new(-3.0, 4.0)],
            // Drifts far out of the window in one direction.
            &[Complex::new(1e100, 0.0); 8],
            &[Complex::new(1e-100, 1e-100); 8],
            // Recessive component collapses relative to the dominant.
            &[Complex::new(1.0, 1e-40), Complex::new(1.0, -1e-40), Complex::new(1e-120, 1e20)],
        ];
        for pivots in cases {
            assert_bit_identical(pivots);
        }
    }

    #[test]
    fn ext_product_long_well_scaled_chain() {
        // A realistic pivot sequence: magnitudes drifting over many decades.
        let mut pivots = Vec::new();
        let mut x = 1.37f64;
        for k in 0..400 {
            x = (x * 1103.515245 + 1.2345).fract() + 0.5; // deterministic, in [0.5, 1.5)
            let mag = 10f64.powf(((k % 13) as f64 - 6.0) * 2.0);
            pivots.push(Complex::new(x * mag, (1.0 - x) * mag));
        }
        assert_bit_identical(&pivots);
    }

    mod ext_product_props {
        use super::*;
        use proptest::prelude::*;

        /// One pivot component: spans zero, subnormal, extreme, and
        /// ordinary magnitudes with both signs.
        fn component() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(0.0),
                (-1.0f64..1.0).prop_map(|m| m * f64::MIN_POSITIVE), // subnormal
                (-400i32..400, -1.0f64..1.0).prop_map(|(e, m)| m * 10f64.powi(e.clamp(-307, 307))),
                -8.0f64..8.0,
            ]
        }

        fn pivot() -> impl Strategy<Value = Complex> {
            (component(), component()).prop_map(|(re, im)| Complex::new(re, im))
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            #[test]
            fn deferred_fold_is_bit_identical(pivots in proptest::collection::vec(pivot(), 0..40)) {
                assert_bit_identical(&pivots);
            }
        }
    }
}
