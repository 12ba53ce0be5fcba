//! Double-precision complex numbers.
//!
//! Implemented locally (rather than pulling a numerics crate) so the whole
//! reproduction is self-contained; the LU factorization, DFT, and polynomial
//! evaluation all run on this type.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// ```
/// use refgen_numeric::Complex;
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// assert_eq!(a * b, Complex::new(5.0, 5.0));
/// ```
// `repr(C)` pins the (re, im) field order in memory.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `j`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{jθ}` — a point on the unit circle. These are the interpolation
    /// points of the paper's eq. (5).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Magnitude `|z|`, computed with `hypot` to avoid premature
    /// overflow/underflow.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`.
    #[inline]
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Uses Smith's algorithm to stay accurate when the components have very
    /// different magnitudes.
    #[inline]
    pub fn inv(self) -> Self {
        Complex::ONE / self
    }

    /// Integer power by repeated squaring.
    pub fn powi(self, mut n: i32) -> Self {
        if n == 0 {
            return Complex::ONE;
        }
        let mut base = if n < 0 { self.inv() } else { self };
        if n < 0 {
            n = -n;
        }
        let mut acc = Complex::ONE;
        let mut k = n as u32;
        while k > 0 {
            if k & 1 == 1 {
                acc *= base;
            }
            base *= base;
            k >>= 1;
        }
        acc
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return Complex::ZERO;
        }
        let r = self.abs();
        let re = ((r + self.re) / 2.0).sqrt();
        let im_mag = ((r - self.re) / 2.0).sqrt();
        Complex::new(re, if self.im >= 0.0 { im_mag } else { -im_mag })
    }

    /// Complex exponential `e^z`.
    pub fn exp(self) -> Self {
        Complex::from_polar(self.re.exp(), self.im)
    }

    /// Returns `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// Fused multiply-add: `self * b + c`, with `mul_add` on the components
    /// for one fewer rounding per component pair.
    #[inline]
    pub fn mul_add(self, b: Complex, c: Complex) -> Self {
        Complex::new(
            self.re.mul_add(b.re, (-self.im).mul_add(b.im, c.re)),
            self.re.mul_add(b.im, self.im.mul_add(b.re, c.im)),
        )
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl Div for Complex {
    type Output = Complex;
    /// Smith's algorithm: scale by the larger component of the divisor.
    fn div(self, rhs: Complex) -> Complex {
        if rhs.re.abs() >= rhs.im.abs() {
            if rhs.re == 0.0 && rhs.im == 0.0 {
                return Complex::new(self.re / 0.0, self.im / 0.0);
            }
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Complex::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Complex::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Add<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: f64) -> Complex {
        Complex::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: f64) -> Complex {
        Complex::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl Product for Complex {
    fn product<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ONE, |a, b| a * b)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 || self.im.is_nan() {
            write!(f, "{}+j{}", self.re, self.im)
        } else {
            write!(f, "{}-j{}", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn basic_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
        assert_eq!(a * b, Complex::new(-4.0, -5.5));
        assert!(close((a / b) * b, a, 1e-15));
    }

    #[test]
    fn division_by_zero_gives_non_finite() {
        let z = Complex::ONE / Complex::ZERO;
        assert!(!z.is_finite());
    }

    #[test]
    fn conjugate_and_abs() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.conj(), Complex::new(3.0, 4.0));
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.abs_sq(), 25.0);
    }

    #[test]
    fn abs_avoids_overflow() {
        let z = Complex::new(1e200, 1e200);
        assert!((z.abs() / (1e200 * std::f64::consts::SQRT_2) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.5, 1.0);
        assert!((z.abs() - 2.5).abs() < 1e-14);
        assert!((z.arg() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn cis_on_unit_circle() {
        for k in 0..17 {
            let theta = 2.0 * std::f64::consts::PI * (k as f64) / 17.0;
            let z = Complex::cis(theta);
            assert!((z.abs() - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let z = Complex::new(0.8, 0.6);
        let mut acc = Complex::ONE;
        for n in 0..12 {
            assert!(close(z.powi(n), acc, 1e-13));
            acc *= z;
        }
        assert!(close(z.powi(-3), (z * z * z).inv(), 1e-13));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (-4.0, 0.0), (1.0, 1.0), (-2.0, -3.0), (0.0, 2.0)] {
            let z = Complex::new(re, im);
            let r = z.sqrt();
            assert!(close(r * r, z, 1e-14), "sqrt({z}) = {r}");
            assert!(r.re >= 0.0 || (r.re == 0.0 && r.im >= 0.0) || r.re.abs() < 1e-300);
        }
    }

    #[test]
    fn exp_of_j_pi_is_minus_one() {
        let z = Complex::new(0.0, std::f64::consts::PI).exp();
        assert!(close(z, Complex::new(-1.0, 0.0), 1e-14));
    }

    #[test]
    fn inv_of_tiny_and_huge() {
        let tiny = Complex::new(1e-300, 0.0);
        assert!((tiny.inv().re - 1e300).abs() / 1e300 < 1e-12);
        let z = Complex::new(1e200, -1e200);
        assert!(close(z.inv() * z, Complex::ONE, 1e-12));
    }

    #[test]
    fn sum_and_product_impls() {
        let v = [Complex::new(1.0, 1.0), Complex::new(2.0, -1.0)];
        let s: Complex = v.iter().copied().sum();
        let p: Complex = v.iter().copied().product();
        assert_eq!(s, Complex::new(3.0, 0.0));
        assert_eq!(p, Complex::new(3.0, 1.0));
    }

    #[test]
    fn display_format() {
        assert_eq!(Complex::new(1.5, -2.0).to_string(), "1.5-j2");
        assert_eq!(Complex::new(-1.0, 0.5).to_string(), "-1+j0.5");
    }

    #[test]
    fn mul_add_matches_naive() {
        let a = Complex::new(1.25, -0.5);
        let b = Complex::new(2.0, 3.0);
        let c = Complex::new(-1.0, 4.0);
        assert!(close(a.mul_add(b, c), a * b + c, 1e-15));
    }
}
