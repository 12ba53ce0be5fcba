//! Extended-range real floating point.
//!
//! The adaptive-scaling algorithm recovers polynomial coefficients whose
//! magnitudes span *hundreds* of decades: the paper's µA741 denominator runs
//! from `≈1e-90` (`p₀`) down to `≈1e-522` (`p₄₈`), while the normalized
//! coefficients inside one interpolation reach `1e+124`. Neither end fits in
//! an `f64` (`≈1e±308`), so all denormalized quantities in this workspace are
//! carried as an [`ExtFloat`]: an `f64` mantissa `m` with `1 ≤ |m| < 2`
//! paired with an `i64` binary exponent `e`, representing `m · 2^e`.
//!
//! The mantissa keeps full `f64` precision (53 bits); only the exponent range
//! is extended. Normalization is exact (pure exponent-bit manipulation), so
//! multiplication and division lose no accuracy relative to `f64`.

use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// log10(2), used to convert binary exponents to decimal for display.
pub(crate) const LOG10_2: f64 = std::f64::consts::LOG10_2;

/// `2^k`, exact wherever it is representable.
///
/// For `k ∈ [−1022, 1023]` the power is a normal `f64` built straight from
/// its exponent bits — the same value `2f64.powi(k)` returns, without the
/// runtime exponentiation loop. Outside that range (`|k| ≤ 1080`) the power
/// is the product of two in-range halves: `∞` above the range, the exact
/// subnormal down to `2⁻¹⁰⁷⁴`, and `0` below it.
#[inline]
pub(crate) fn pow2(k: i64) -> f64 {
    debug_assert!(k.abs() <= 1080);
    if (-1022..=1023).contains(&k) {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else {
        let half = k / 2;
        2f64.powi(half as i32) * 2f64.powi((k - half) as i32)
    }
}

/// An extended-range real number `m · 2^e` with `1 ≤ |m| < 2` (or `m = 0`).
///
/// ```
/// use refgen_numeric::ExtFloat;
/// let x = ExtFloat::from_f64(1.0e-300);
/// let y = x * x * x; // 1e-900: unrepresentable in f64, fine here
/// assert!((y.log10() + 900.0).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ExtFloat {
    mantissa: f64,
    exponent: i64,
}

impl ExtFloat {
    /// Zero.
    pub const ZERO: ExtFloat = ExtFloat { mantissa: 0.0, exponent: 0 };
    /// One.
    pub const ONE: ExtFloat = ExtFloat { mantissa: 1.0, exponent: 0 };

    /// Creates an `ExtFloat` from a raw mantissa/exponent pair, normalizing.
    ///
    /// The value represented is `mantissa · 2^exponent`.
    pub fn new(mantissa: f64, exponent: i64) -> Self {
        ExtFloat { mantissa, exponent }.normalized()
    }

    /// Converts an `f64` exactly.
    pub fn from_f64(x: f64) -> Self {
        ExtFloat { mantissa: x, exponent: 0 }.normalized()
    }

    /// Builds `10^p` for an integer decimal exponent (accurate to f64
    /// precision in the mantissa, exact in range).
    pub fn from_pow10(p: i64) -> Self {
        // 10^p = 2^(p·log2(10)); split into exact binary exponent and an
        // in-range f64 residual so no intermediate overflows.
        let l2 = (p as f64) * std::f64::consts::LOG2_10;
        let e = l2.floor() as i64;
        let frac = l2 - (e as f64);
        ExtFloat::new(frac.exp2(), e)
    }

    /// The mantissa `m`, with `1 ≤ |m| < 2` unless the value is zero.
    #[inline]
    pub fn mantissa(self) -> f64 {
        self.mantissa
    }

    /// The binary exponent `e`.
    #[inline]
    pub fn exponent(self) -> i64 {
        self.exponent
    }

    fn normalized(self) -> Self {
        let m = self.mantissa;
        if m == 0.0 {
            return ExtFloat::ZERO;
        }
        if !m.is_finite() {
            return ExtFloat { mantissa: m, exponent: 0 };
        }
        let mut m = m;
        let mut e = self.exponent;
        // Pre-scale subnormals into the normal range so the exponent bits are
        // meaningful.
        if m.abs() < f64::MIN_POSITIVE {
            m *= 2f64.powi(200);
            e -= 200;
        }
        let bits = m.to_bits();
        let raw_exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
        if raw_exp != 0 {
            // Rescale mantissa to [1,2) by zeroing the exponent field: exact.
            let new_bits = (bits & !(0x7ffu64 << 52)) | (1023u64 << 52);
            m = f64::from_bits(new_bits);
            e += raw_exp;
        }
        ExtFloat { mantissa: m, exponent: e }
    }

    /// Returns `true` if the value is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.mantissa == 0.0
    }

    /// Returns `true` if the mantissa is finite (the type itself never
    /// overflows through arithmetic on finite inputs).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.mantissa.is_finite()
    }

    /// Returns `true` if the mantissa is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.mantissa.is_nan()
    }

    /// Sign: `-1.0`, `0.0`, or `1.0`.
    pub fn signum(self) -> f64 {
        if self.is_zero() {
            0.0
        } else {
            self.mantissa.signum()
        }
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        ExtFloat { mantissa: self.mantissa.abs(), exponent: self.exponent }
    }

    /// Converts to `f64`, saturating to `±inf` / flushing to `0` outside the
    /// representable range.
    pub fn to_f64(self) -> f64 {
        if self.is_zero() || !self.mantissa.is_finite() {
            return self.mantissa;
        }
        if self.exponent > 1030 {
            return f64::INFINITY * self.mantissa.signum();
        }
        if self.exponent < -1080 {
            return 0.0;
        }
        // Split the exponent so each factor stays in range.
        let half = self.exponent / 2;
        self.mantissa * pow2(half) * pow2(self.exponent - half)
    }

    /// Base-10 logarithm of the absolute value.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn log10(self) -> f64 {
        assert!(!self.is_zero(), "log10 of zero ExtFloat");
        (self.exponent as f64) * LOG10_2 + self.mantissa.abs().log10()
    }

    /// Base-2 logarithm of the absolute value (`-inf` for zero).
    pub fn log2(self) -> f64 {
        if self.is_zero() {
            return f64::NEG_INFINITY;
        }
        (self.exponent as f64) + self.mantissa.abs().log2()
    }

    /// Builds `10^x` for a real decimal exponent.
    pub fn exp10(x: f64) -> Self {
        let l2 = x * std::f64::consts::LOG2_10;
        let e = l2.floor() as i64;
        ExtFloat::new((l2 - e as f64).exp2(), e)
    }

    /// Integer power by binary exponentiation.
    ///
    /// The multiplication tree is the textbook one — `acc *= base` on each
    /// set bit of `|n|`, `base *= base` per bit, starting from `1/self`
    /// when `n < 0` — but it runs on bare `f64` mantissas with the binary
    /// exponents summed beside them, and normalizes once at the end. That
    /// gives exactly the bits of normalizing after every product:
    /// normalized mantissas have `1 ≤ |m| < 2`, so every running value has
    /// `|m| ≥ 1`, and a running value is renormalized exactly (its exponent
    /// bits moved into the exponent) as soon as it reaches `2^511`. Every
    /// product therefore stays below `2^1022`, in the normal range where
    /// scaling by `2^k` commutes with rounding: each product rounds to the
    /// normalized product times an exact power of two. Zero, `±∞` and NaN
    /// take the same path; the final normalization maps them to the values
    /// the per-product normalization gives (zero to [`ExtFloat::ZERO`],
    /// non-finite mantissas to exponent 0).
    pub fn powi(self, n: i64) -> Self {
        const RENORM_AT: f64 = f64::from_bits((1023 + 511) << 52);
        let renorm = |x: ExtFloat| if x.mantissa.abs() < RENORM_AT { x } else { x.normalized() };
        let mut base = if n < 0 { ExtFloat::ONE / self } else { self };
        let mut acc = ExtFloat::ONE;
        let mut k = n.unsigned_abs();
        while k > 0 {
            if k & 1 == 1 {
                acc = renorm(ExtFloat {
                    mantissa: acc.mantissa * base.mantissa,
                    exponent: acc.exponent + base.exponent,
                });
            }
            k >>= 1;
            if k > 0 {
                base = renorm(ExtFloat {
                    mantissa: base.mantissa * base.mantissa,
                    exponent: 2 * base.exponent,
                });
            }
        }
        acc.normalized()
    }

    /// Square root.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative.
    pub fn sqrt(self) -> Self {
        assert!(self.signum() >= 0.0, "sqrt of negative ExtFloat");
        if self.is_zero() {
            return ExtFloat::ZERO;
        }
        if self.exponent % 2 == 0 {
            ExtFloat::new(self.mantissa.sqrt(), self.exponent / 2)
        } else {
            ExtFloat::new((self.mantissa * 2.0).sqrt(), (self.exponent - 1) / 2)
        }
    }

    /// `self · 2^k` — exact exponent shift.
    #[inline]
    pub fn ldexp(self, k: i64) -> Self {
        if self.is_zero() {
            return self;
        }
        ExtFloat { mantissa: self.mantissa, exponent: self.exponent + k }
    }

    /// Returns the larger of two values by magnitude.
    pub fn max_abs(self, other: Self) -> Self {
        if self.abs() >= other.abs() {
            self
        } else {
            other
        }
    }
}

impl Default for ExtFloat {
    fn default() -> Self {
        ExtFloat::ZERO
    }
}

impl From<f64> for ExtFloat {
    fn from(x: f64) -> Self {
        ExtFloat::from_f64(x)
    }
}

impl Neg for ExtFloat {
    type Output = ExtFloat;
    #[inline]
    fn neg(self) -> ExtFloat {
        ExtFloat { mantissa: -self.mantissa, exponent: self.exponent }
    }
}

impl Mul for ExtFloat {
    type Output = ExtFloat;
    #[inline]
    fn mul(self, rhs: ExtFloat) -> ExtFloat {
        ExtFloat::new(self.mantissa * rhs.mantissa, self.exponent + rhs.exponent)
    }
}

impl Div for ExtFloat {
    type Output = ExtFloat;
    #[inline]
    fn div(self, rhs: ExtFloat) -> ExtFloat {
        ExtFloat::new(self.mantissa / rhs.mantissa, self.exponent - rhs.exponent)
    }
}

impl Add for ExtFloat {
    type Output = ExtFloat;
    fn add(self, rhs: ExtFloat) -> ExtFloat {
        if self.is_zero() {
            return rhs;
        }
        if rhs.is_zero() {
            return self;
        }
        let (hi, lo) = if self.exponent >= rhs.exponent { (self, rhs) } else { (rhs, self) };
        let shift = hi.exponent - lo.exponent;
        if shift > 120 {
            // The smaller operand is below one ulp of the larger.
            return hi;
        }
        let lo_m = lo.mantissa * pow2(-shift);
        ExtFloat::new(hi.mantissa + lo_m, hi.exponent)
    }
}

impl Sub for ExtFloat {
    type Output = ExtFloat;
    #[inline]
    fn sub(self, rhs: ExtFloat) -> ExtFloat {
        self + (-rhs)
    }
}

impl AddAssign for ExtFloat {
    fn add_assign(&mut self, rhs: ExtFloat) {
        *self = *self + rhs;
    }
}

impl SubAssign for ExtFloat {
    fn sub_assign(&mut self, rhs: ExtFloat) {
        *self = *self - rhs;
    }
}

impl MulAssign for ExtFloat {
    fn mul_assign(&mut self, rhs: ExtFloat) {
        *self = *self * rhs;
    }
}

impl DivAssign for ExtFloat {
    fn div_assign(&mut self, rhs: ExtFloat) {
        *self = *self / rhs;
    }
}

impl Sum for ExtFloat {
    fn sum<I: Iterator<Item = ExtFloat>>(iter: I) -> ExtFloat {
        iter.fold(ExtFloat::ZERO, |a, b| a + b)
    }
}

impl Product for ExtFloat {
    fn product<I: Iterator<Item = ExtFloat>>(iter: I) -> ExtFloat {
        iter.fold(ExtFloat::ONE, |a, b| a * b)
    }
}

impl PartialEq for ExtFloat {
    fn eq(&self, other: &Self) -> bool {
        self.partial_cmp(other) == Some(Ordering::Equal)
    }
}

impl PartialOrd for ExtFloat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        if self.is_nan() || other.is_nan() {
            return None;
        }
        let sa = self.signum();
        let sb = other.signum();
        if sa != sb {
            return sa.partial_cmp(&sb);
        }
        if sa == 0.0 {
            return Some(Ordering::Equal);
        }
        // Same nonzero sign: compare magnitudes via (exponent, |mantissa|),
        // flipping for negative values.
        let mag = match self.exponent.cmp(&other.exponent) {
            Ordering::Equal => self.mantissa.abs().partial_cmp(&other.mantissa.abs())?,
            ord => ord,
        };
        Some(if sa > 0.0 { mag } else { mag.reverse() })
    }
}

impl fmt::Display for ExtFloat {
    /// Scientific notation with a *decimal* exponent, e.g. `-2.77330e-339`.
    ///
    /// The decimal mantissa is reconstructed through logarithms, so display
    /// (not arithmetic) is accurate to ~15 digits; use `{:.N}` to select the
    /// printed precision (default 5).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prec = f.precision().unwrap_or(5);
        if self.is_zero() {
            return write!(f, "{:.*}e0", prec, 0.0);
        }
        if !self.mantissa.is_finite() {
            return write!(f, "{}", self.mantissa);
        }
        let d = self.log10();
        let mut ip = d.floor();
        let mut mant = 10f64.powf(d - ip);
        // Guard against 9.99999… rounding up to 10 at the printed precision.
        if mant + 0.5 * 10f64.powi(-(prec as i32)) >= 10.0 {
            mant = 1.0;
            ip += 1.0;
        }
        let sign = if self.mantissa < 0.0 { "-" } else { "" };
        write!(f, "{sign}{mant:.prec$}e{}", ip as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `pow2` before the exponent-bit fast path, kept verbatim as the
    /// identity reference.
    fn pow2_reference(k: i64) -> f64 {
        if k.abs() <= 1000 {
            2f64.powi(k as i32)
        } else {
            let half = k / 2;
            2f64.powi(half as i32) * 2f64.powi((k - half) as i32)
        }
    }

    #[test]
    fn pow2_is_bit_identical_to_powi() {
        for k in -1080i64..=1080 {
            let got = pow2(k);
            assert_eq!(got.to_bits(), pow2_reference(k).to_bits(), "k={k}");
            if (-1074..=-1024).contains(&k) {
                // `powi` forms 1/2^|k|, whose denominator overflows here,
                // and returns 0; `pow2` keeps the exact subnormal power.
                assert_eq!(2f64.powi(k as i32), 0.0, "k={k}");
                assert_eq!(got.to_bits(), 1u64 << (k + 1074), "k={k}");
            } else {
                assert_eq!(got.to_bits(), 2f64.powi(k as i32).to_bits(), "k={k}");
            }
        }
    }

    /// `powi` as it was before it ran on bare mantissas — normalizing after
    /// every product — kept verbatim as the identity reference.
    fn powi_reference(x: ExtFloat, n: i64) -> ExtFloat {
        if n == 0 {
            return ExtFloat::ONE;
        }
        let mut base = if n < 0 { ExtFloat::ONE / x } else { x };
        let mut k = n.unsigned_abs();
        let mut acc = ExtFloat::ONE;
        while k > 0 {
            if k & 1 == 1 {
                acc *= base;
            }
            base = base * base;
            k >>= 1;
        }
        acc
    }

    /// Mantissa bits and exponent, every NaN as one value: which NaN an
    /// operation on a NaN returns is not specified.
    fn ext_bits(x: ExtFloat) -> (u64, i64) {
        let m = x.mantissa();
        (if m.is_nan() { f64::NAN.to_bits() } else { m.to_bits() }, x.exponent())
    }

    fn assert_powi_matches_reference(x: ExtFloat) {
        for n in -2100i64..=2100 {
            assert_eq!(ext_bits(x.powi(n)), ext_bits(powi_reference(x, n)), "{x:?}^{n}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 96,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// Bit identity with the per-product normalization over random
        /// mantissas and exponents, including values built from subnormal
        /// `f64`s and exponents far outside the `f64` range.
        #[test]
        fn powi_is_bit_identical_to_reference(
            bits in proptest::prelude::any::<u64>(),
            subnormal in 0u64..(1u64 << 52),
            exponent in -100_000i64..100_000,
            kind in 0u8..3,
        ) {
            let x = match kind {
                0 => ExtFloat::from_f64(f64::from_bits(bits)),
                1 => ExtFloat::from_f64(f64::from_bits(subnormal | (bits & (1 << 63)))),
                _ => ExtFloat::new(f64::from_bits(bits & !(0x7ffu64 << 52) | (1023 << 52)), exponent),
            };
            assert_powi_matches_reference(x);
        }
    }

    #[test]
    fn powi_special_values_match_reference() {
        let specials = [
            ExtFloat::ZERO,
            -ExtFloat::ZERO,
            ExtFloat::ONE,
            -ExtFloat::ONE,
            ExtFloat::from_f64(f64::INFINITY),
            ExtFloat::from_f64(f64::NEG_INFINITY),
            ExtFloat::from_f64(f64::INFINITY).ldexp(7),
            ExtFloat::from_f64(f64::NAN),
            ExtFloat::from_f64(5e-324),
            ExtFloat::from_f64(-f64::MAX),
            ExtFloat::new(1.9999999999999998, -3000),
            // Mantissas 2^t with t just above 1/2: the 10th square lands
            // just past 2^512 and the running product of the lower bits
            // just past 2^511, so at n = 2047 a later renormalization
            // would let the product overflow.
            ExtFloat::from_f64(2f64.powf(0.5003)),
            ExtFloat::from_f64(-(2f64.powf(0.5005))),
            ExtFloat::from_f64(2f64.powf(0.5009)),
        ];
        for x in specials {
            assert_powi_matches_reference(x);
        }
        assert_eq!(ext_bits(ExtFloat::from_f64(f64::NAN).powi(0)), ext_bits(ExtFloat::ONE));
        assert_eq!(ext_bits(ExtFloat::ZERO.powi(-3)), ext_bits(ExtFloat::from_f64(f64::INFINITY)));
    }

    /// The window denormalization factor `f^i · g^{M−i}` at scales far
    /// from 1: every product is bit-identical to the reference's.
    #[test]
    fn powi_denormalization_products_match_reference() {
        let scales = [1e-300, 3.7e-300, 1e-150, 0.3, 1.0, 7.9e4, 1e150, 2.2e300, 1e300];
        for &f in &scales {
            for &g in &scales {
                let (fe, ge) = (ExtFloat::from_f64(f), ExtFloat::from_f64(g));
                for m in [0i64, 1, 7, 48, 129] {
                    for i in 0..=m {
                        let got = fe.powi(i) * ge.powi(m - i);
                        let want = powi_reference(fe, i) * powi_reference(ge, m - i);
                        assert_eq!(ext_bits(got), ext_bits(want), "f={f}, g={g}, M={m}, i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn normalization_invariant() {
        for &x in &[1.0, -1.0, 0.5, 3.75, 1e308, -1e-308, 5e-320, 123456.789] {
            let e = ExtFloat::from_f64(x);
            assert!(e.mantissa().abs() >= 1.0 && e.mantissa().abs() < 2.0, "x={x}: {e:?}");
            assert_eq!(e.to_f64(), x, "round trip for {x}");
        }
    }

    #[test]
    fn zero_round_trip() {
        let z = ExtFloat::from_f64(0.0);
        assert!(z.is_zero());
        assert_eq!(z.to_f64(), 0.0);
        assert_eq!(z + ExtFloat::ONE, ExtFloat::ONE);
        assert_eq!(ExtFloat::ONE * z, ExtFloat::ZERO);
    }

    #[test]
    fn multiplication_extends_range() {
        let x = ExtFloat::from_f64(1e-300);
        let y = x * x * x; // 1e-900
        assert!((y.log10() + 900.0).abs() < 1e-8);
        let z = y / x / x;
        assert!(((z.to_f64() - 1e-300) / 1e-300).abs() < 1e-12);
    }

    #[test]
    fn addition_aligns_exponents() {
        let a = ExtFloat::from_f64(1.0);
        let b = ExtFloat::from_f64(3.0);
        assert_eq!((a + b).to_f64(), 4.0);
        let tiny = ExtFloat::from_f64(1e-40);
        assert_eq!((a + tiny).to_f64(), 1.0 + 1e-40);
        // Below one ulp: absorbed.
        let sub_ulp = ExtFloat::from_f64(1e-60);
        assert_eq!((a + sub_ulp).to_f64(), 1.0);
    }

    #[test]
    fn subtraction_cancellation() {
        let a = ExtFloat::from_f64(1.0000000000000002);
        let b = ExtFloat::ONE;
        let d = a - b;
        assert!((d.to_f64() - 2.220446049250313e-16).abs() < 1e-30);
    }

    #[test]
    fn comparison_total_order_on_finite() {
        let vals = [
            ExtFloat::new(-1.0, 900),
            ExtFloat::new(-1.0, -900),
            ExtFloat::ZERO,
            ExtFloat::new(1.5, -2000),
            ExtFloat::new(1.0, -5),
            ExtFloat::ONE,
            ExtFloat::new(1.9, 0),
            ExtFloat::new(1.0, 900),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        }
        assert!(ExtFloat::new(-1.0, 900) < ExtFloat::new(-1.0, -900));
        assert!(ExtFloat::new(-1.0, -900) < ExtFloat::new(1.0, -2000));
    }

    #[test]
    fn powi_and_sqrt() {
        let x = ExtFloat::from_f64(10.0);
        assert!((x.powi(100).log10() - 100.0).abs() < 1e-10);
        assert!((x.powi(-100).log10() + 100.0).abs() < 1e-10);
        let s = x.powi(100).sqrt();
        assert!((s.log10() - 50.0).abs() < 1e-10);
        let odd = ExtFloat::new(1.5, 7);
        let r = odd.sqrt();
        assert!(((r * r).log2() - odd.log2()).abs() < 1e-12);
    }

    #[test]
    fn from_pow10_matches_log() {
        for &p in &[-522i64, -90, -13, 0, 6, 118, 124, 300] {
            let v = ExtFloat::from_pow10(p);
            assert!((v.log10() - p as f64).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn exp10_matches() {
        let v = ExtFloat::exp10(-339.442);
        assert!((v.log10() + 339.442).abs() < 1e-9);
    }

    #[test]
    fn display_decimal_exponent() {
        let v = ExtFloat::from_f64(-2.7733) * ExtFloat::from_pow10(-339);
        let s = format!("{v}");
        assert!(s.starts_with("-2.7733") && s.ends_with("e-339"), "{s}");
        assert_eq!(format!("{}", ExtFloat::ZERO), "0.00000e0");
        let nearly_ten = ExtFloat::from_f64(9.999999999);
        let s = format!("{nearly_ten:.3}");
        assert_eq!(s, "1.000e1");
    }

    #[test]
    fn to_f64_saturation() {
        assert_eq!(ExtFloat::new(1.0, 5000).to_f64(), f64::INFINITY);
        assert_eq!(ExtFloat::new(-1.0, 5000).to_f64(), f64::NEG_INFINITY);
        assert_eq!(ExtFloat::new(1.0, -5000).to_f64(), 0.0);
    }

    #[test]
    fn subnormal_input() {
        let x = 5e-324; // smallest positive subnormal
        let e = ExtFloat::from_f64(x);
        assert!(e.mantissa().abs() >= 1.0 && e.mantissa().abs() < 2.0);
        assert_eq!(e.to_f64(), x);
    }

    #[test]
    fn ldexp_shifts() {
        let x = ExtFloat::from_f64(1.5);
        assert_eq!(x.ldexp(10).to_f64(), 1.5 * 1024.0);
        assert!(ExtFloat::ZERO.ldexp(10).is_zero());
    }

    #[test]
    #[should_panic(expected = "sqrt of negative")]
    fn sqrt_negative_panics() {
        let _ = ExtFloat::from_f64(-1.0).sqrt();
    }

    #[test]
    #[should_panic(expected = "log10 of zero")]
    fn log10_zero_panics() {
        let _ = ExtFloat::ZERO.log10();
    }
}
