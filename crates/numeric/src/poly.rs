//! Polynomials over [`Complex`] and [`ExtComplex`].
//!
//! Network functions in this workspace are ratios of polynomials in the
//! complex frequency `s`. Coefficients recovered by the interpolation engine
//! span hundreds of decades, so the primary container is [`ExtPoly`]
//! (extended-range coefficients); [`Poly`] is the plain-f64 workhorse used
//! inside a single interpolation window and for root finding.
//!
//! Root finding uses the Aberth–Ehrlich simultaneous iteration with initial
//! radii from the Newton polygon of the coefficient magnitudes — the only
//! scheme that behaves when `|p_i/p_{i+1}|` spans 6–12 decades per step, as
//! is typical for integrated circuits (paper §2.2).

use crate::complex::Complex;
use crate::extcomplex::ExtComplex;
use crate::extfloat::ExtFloat;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A polynomial with [`Complex`] coefficients, `c[i]` multiplying `s^i`.
///
/// ```
/// use refgen_numeric::{Complex, Poly};
/// let p = Poly::from_real(&[6.0, -5.0, 1.0]); // (s-2)(s-3)
/// let r = p.roots(1e-12, 100);
/// let mut re: Vec<f64> = r.iter().map(|z| z.re).collect();
/// re.sort_by(|a, b| a.partial_cmp(b).unwrap());
/// assert!((re[0] - 2.0).abs() < 1e-9 && (re[1] - 3.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Poly {
    coeffs: Vec<Complex>,
}

impl Poly {
    /// Creates a polynomial from coefficients in ascending power order.
    pub fn new(coeffs: Vec<Complex>) -> Self {
        let mut p = Poly { coeffs };
        p.trim();
        p
    }

    /// Creates from real coefficients.
    pub fn from_real(coeffs: &[f64]) -> Self {
        Poly::new(coeffs.iter().map(|&c| Complex::real(c)).collect())
    }

    /// Builds the monic polynomial `∏ (s − r_k)` from its roots.
    pub fn from_roots(roots: &[Complex]) -> Self {
        let mut coeffs = vec![Complex::ONE];
        for &r in roots {
            let mut next = vec![Complex::ZERO; coeffs.len() + 1];
            for (i, &c) in coeffs.iter().enumerate() {
                next[i + 1] += c;
                next[i] -= c * r;
            }
            coeffs = next;
        }
        Poly::new(coeffs)
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// Coefficients in ascending power order (empty for the zero polynomial).
    pub fn coeffs(&self) -> &[Complex] {
        &self.coeffs
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    fn trim(&mut self) {
        while let Some(&last) = self.coeffs.last() {
            if last == Complex::ZERO {
                self.coeffs.pop();
            } else {
                break;
            }
        }
    }

    /// Horner evaluation at `s`.
    pub fn eval(&self, s: Complex) -> Complex {
        self.coeffs.iter().rev().fold(Complex::ZERO, |acc, &c| acc.mul_add(s, c))
    }

    /// Derivative.
    pub fn derivative(&self) -> Poly {
        if self.coeffs.len() <= 1 {
            return Poly::zero();
        }
        Poly::new(
            self.coeffs[1..].iter().enumerate().map(|(i, &c)| c.scale((i + 1) as f64)).collect(),
        )
    }

    /// All complex roots via Aberth–Ehrlich iteration.
    ///
    /// `tol` is the relative correction-size stopping tolerance; `max_iter`
    /// bounds the iteration count. Leading/trailing zero coefficients are
    /// handled (roots at the origin are returned exactly).
    ///
    /// Returns an empty vector for constant or zero polynomials.
    pub fn roots(&self, tol: f64, max_iter: usize) -> Vec<Complex> {
        let mut coeffs = self.coeffs.clone();
        if coeffs.len() <= 1 {
            return Vec::new();
        }
        // Strip roots at the origin.
        let mut origin_roots = 0;
        while coeffs.first().is_some_and(|c| *c == Complex::ZERO) {
            coeffs.remove(0);
            origin_roots += 1;
        }
        let n = coeffs.len() - 1;
        let mut roots = vec![Complex::ZERO; origin_roots];
        if n == 0 {
            return roots;
        }
        let p = Poly { coeffs };
        let dp = p.derivative();
        let mut z = newton_polygon_starts(&p.coeffs);
        for _ in 0..max_iter {
            let mut done = true;
            let snapshot = z.clone();
            for i in 0..n {
                let zi = snapshot[i];
                let pv = p.eval(zi);
                let dv = dp.eval(zi);
                if pv == Complex::ZERO {
                    continue;
                }
                let newton =
                    if dv == Complex::ZERO { Complex::new(tol.max(1e-12), 0.0) } else { pv / dv };
                let mut sum = Complex::ZERO;
                for (j, &zj) in snapshot.iter().enumerate() {
                    if j != i {
                        let d = zi - zj;
                        if d != Complex::ZERO {
                            sum += d.inv();
                        }
                    }
                }
                let denom = Complex::ONE - newton * sum;
                let step = if denom == Complex::ZERO { newton } else { newton / denom };
                z[i] = zi - step;
                if step.abs() > tol * (1.0 + zi.abs()) {
                    done = false;
                }
            }
            if done {
                break;
            }
        }
        roots.extend(z);
        roots
    }
}

/// Initial root guesses from the Newton polygon (upper convex hull of
/// `(i, log|c_i|)`), which estimates root moduli even when coefficients span
/// hundreds of decades. Guesses are spread on circles with an irrational
/// angular offset to break symmetry.
fn newton_polygon_starts(coeffs: &[Complex]) -> Vec<Complex> {
    let n = coeffs.len() - 1;
    let logs: Vec<f64> = coeffs
        .iter()
        .map(|c| if c.abs() == 0.0 { f64::NEG_INFINITY } else { c.abs().ln() })
        .collect();
    // Upper convex hull over points (i, logs[i]).
    let mut hull: Vec<usize> = Vec::new();
    for i in 0..=n {
        if logs[i] == f64::NEG_INFINITY {
            continue;
        }
        while hull.len() >= 2 {
            let a = hull[hull.len() - 2];
            let b = hull[hull.len() - 1];
            // Remove b if it is below segment a..i.
            let slope_ab = (logs[b] - logs[a]) / ((b - a) as f64);
            let slope_ai = (logs[i] - logs[a]) / ((i - a) as f64);
            if slope_ab <= slope_ai {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(i);
    }
    let mut starts = Vec::with_capacity(n);
    let golden = 0.618033988749895 * std::f64::consts::TAU;
    let mut idx = 0usize;
    for w in hull.windows(2) {
        let (a, b) = (w[0], w[1]);
        let k = b - a;
        // Roots on this hull edge have modulus ≈ exp(-(slope)).
        let r = ((logs[a] - logs[b]) / k as f64).exp();
        for t in 0..k {
            let theta = golden * (idx as f64 + 1.0) + (t as f64) / (k as f64);
            starts.push(Complex::from_polar(r, theta));
            idx += 1;
        }
    }
    // Degenerate hull (e.g. single nonzero coefficient run): fall back to a
    // unit-ish circle.
    while starts.len() < n {
        let theta = golden * (starts.len() as f64 + 1.0);
        starts.push(Complex::from_polar(1.0, theta));
    }
    starts
}

impl Add for &Poly {
    type Output = Poly;
    fn add(self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = vec![Complex::ZERO; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            out[i] += c;
        }
        for (i, &c) in rhs.coeffs.iter().enumerate() {
            out[i] += c;
        }
        Poly::new(out)
    }
}

impl Sub for &Poly {
    type Output = Poly;
    fn sub(self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = vec![Complex::ZERO; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            out[i] += c;
        }
        for (i, &c) in rhs.coeffs.iter().enumerate() {
            out[i] -= c;
        }
        Poly::new(out)
    }
}

impl Mul for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &Poly) -> Poly {
        if self.coeffs.is_empty() || rhs.coeffs.is_empty() {
            return Poly::zero();
        }
        let mut out = vec![Complex::ZERO; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in rhs.coeffs.iter().enumerate() {
                out[i + j] = a.mul_add(b, out[i + j]);
            }
        }
        Poly::new(out)
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.coeffs.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.coeffs.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "({c})·s^{i}")?;
        }
        Ok(())
    }
}

/// A polynomial with [`ExtComplex`] coefficients — the container for
/// denormalized network-function coefficients, whose magnitudes (`1e-90` …
/// `1e-522` for the µA741 denominator) do not fit in `f64`.
#[derive(Clone, Debug, Default)]
pub struct ExtPoly {
    coeffs: Vec<ExtComplex>,
}

impl ExtPoly {
    /// Creates from coefficients in ascending power order.
    pub fn new(coeffs: Vec<ExtComplex>) -> Self {
        let mut p = ExtPoly { coeffs };
        p.trim();
        p
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        ExtPoly { coeffs: Vec::new() }
    }

    /// Coefficients in ascending power order.
    pub fn coeffs(&self) -> &[ExtComplex] {
        &self.coeffs
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    fn trim(&mut self) {
        while self.coeffs.last().is_some_and(|c| c.is_zero()) {
            self.coeffs.pop();
        }
    }

    /// Horner evaluation at a plain complex point (each step in extended
    /// range, so neither the point powers nor the partial sums can overflow).
    pub fn eval(&self, s: Complex) -> ExtComplex {
        let se = ExtComplex::from_complex(s);
        self.coeffs.iter().rev().fold(ExtComplex::ZERO, |acc, &c| acc * se + c)
    }

    /// Derivative.
    pub fn derivative(&self) -> ExtPoly {
        if self.coeffs.len() <= 1 {
            return ExtPoly::zero();
        }
        ExtPoly::new(
            self.coeffs[1..]
                .iter()
                .enumerate()
                .map(|(i, &c)| c.scale_ext(ExtFloat::from_f64((i + 1) as f64)))
                .collect(),
        )
    }

    /// Substitutes `s → a·s` with an extended-range factor: `c_i → c_i·a^i`.
    fn scale_variable_ext(&self, a: ExtFloat) -> ExtPoly {
        let mut pw = ExtFloat::ONE;
        ExtPoly::new(
            self.coeffs
                .iter()
                .map(|&c| {
                    let r = c.scale_ext(pw);
                    pw *= a;
                    r
                })
                .collect(),
        )
    }

    /// The largest coefficient magnitude, or zero for the zero polynomial.
    fn max_coeff_norm(&self) -> ExtFloat {
        self.coeffs.iter().map(|c| c.norm()).fold(ExtFloat::ZERO, |a, b| if b > a { b } else { a })
    }

    /// Normalizes to a plain [`Poly`] plus the common extended-range factor
    /// that was divided out: `self = factor · poly`.
    ///
    /// Coefficients more than ~300 decades below the maximum flush to zero in
    /// the `Poly` image — callers needing the full range should stay in
    /// `ExtPoly`.
    ///
    /// Returns `None` for the zero polynomial.
    fn to_scaled_poly(&self) -> Option<(ExtFloat, Poly)> {
        let max = self.max_coeff_norm();
        if max.is_zero() {
            return None;
        }
        let e = max.exponent();
        let coeffs = self.coeffs.iter().map(|c| c.mantissa_at_exponent(e)).collect();
        Some((ExtFloat::new(1.0, e), Poly::new(coeffs)))
    }

    /// Roots of the polynomial.
    ///
    /// Because coefficients can span hundreds of decades, the variable is
    /// first rescaled by `a` = the geometric mean of consecutive-coefficient
    /// ratios (bringing root moduli near 1), roots are found in f64, then
    /// scaled back. Roots whose moduli differ by more than ~±300 decades from
    /// the centroid may lose relative accuracy.
    pub fn roots(&self, tol: f64, max_iter: usize) -> Vec<ExtComplex> {
        let n = match self.degree() {
            Some(n) if n >= 1 => n,
            _ => return Vec::new(),
        };
        let first = self.coeffs.iter().find(|c| !c.is_zero());
        let last = self.coeffs.last();
        let (f, l) = match (first, last) {
            (Some(f), Some(l)) => (*f, *l),
            _ => return Vec::new(),
        };
        // Geometric mean root modulus: |c_0/c_n|^{1/n}.
        let log_ratio = (f.norm() / l.norm()).log10() / n as f64;
        let a = ExtFloat::exp10(log_ratio); // s = a·σ
        let scaled = self.scale_variable_ext(a);
        let (_, p) = match scaled.to_scaled_poly() {
            Some(x) => x,
            None => return Vec::new(),
        };
        p.roots(tol, max_iter)
            .into_iter()
            .map(|sigma| ExtComplex::from_complex(sigma).scale_ext(a))
            .collect()
    }
}

impl fmt::Display for ExtPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.coeffs.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.coeffs.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "({c})·s^{i}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_horner() {
        let p = Poly::from_real(&[1.0, 2.0, 3.0]); // 1 + 2s + 3s²
        assert_eq!(p.eval(Complex::real(2.0)), Complex::real(17.0));
        assert_eq!(p.eval(Complex::ZERO), Complex::real(1.0));
        let at_j = p.eval(Complex::I); // 1 + 2j - 3
        assert!((at_j - Complex::new(-2.0, 2.0)).abs() < 1e-15);
    }

    #[test]
    fn degree_and_trim() {
        let p = Poly::from_real(&[1.0, 0.0, 0.0]);
        assert_eq!(p.degree(), Some(0));
        assert_eq!(Poly::zero().degree(), None);
        assert_eq!(Poly::from_real(&[]).degree(), None);
    }

    #[test]
    fn derivative_rule() {
        let p = Poly::from_real(&[5.0, 3.0, 2.0, 1.0]);
        let d = p.derivative();
        assert_eq!(d.coeffs(), Poly::from_real(&[3.0, 4.0, 3.0]).coeffs());
        assert_eq!(Poly::from_real(&[7.0]).derivative().degree(), None);
    }

    #[test]
    fn roots_quadratic() {
        // (s-2)(s-3)
        let p = Poly::from_real(&[6.0, -5.0, 1.0]);
        let mut r = p.roots(1e-13, 200);
        r.sort_by(|a, b| a.re.partial_cmp(&b.re).unwrap());
        assert!((r[0] - Complex::real(2.0)).abs() < 1e-9);
        assert!((r[1] - Complex::real(3.0)).abs() < 1e-9);
    }

    #[test]
    fn roots_complex_pair() {
        // s² + 1
        let p = Poly::from_real(&[1.0, 0.0, 1.0]);
        let r = p.roots(1e-13, 200);
        assert_eq!(r.len(), 2);
        for z in r {
            assert!((z.abs() - 1.0).abs() < 1e-9);
            assert!(z.re.abs() < 1e-9);
        }
    }

    #[test]
    fn roots_at_origin() {
        // s²(s-1)
        let p = Poly::from_real(&[0.0, 0.0, -1.0, 1.0]);
        let r = p.roots(1e-13, 200);
        let zeros = r.iter().filter(|z| z.abs() < 1e-12).count();
        assert_eq!(zeros, 2);
        assert!(r.iter().any(|z| (*z - Complex::ONE).abs() < 1e-9));
    }

    #[test]
    fn roots_wide_spread() {
        // Roots at -1e-3, -1e3: coefficients (1e0? ) p = (s+1e-3)(s+1e3)
        // = s² + 1000.001 s + 1 — 6 decades of root spread.
        let p = Poly::from_real(&[1.0, 1000.001, 1.0]);
        let mut r = p.roots(1e-13, 400);
        r.sort_by(|a, b| a.abs().partial_cmp(&b.abs()).unwrap());
        assert!((r[0].re + 1e-3).abs() < 1e-9, "{:?}", r);
        assert!((r[1].re + 1e3).abs() < 1e-3, "{:?}", r);
    }

    #[test]
    fn roots_of_high_degree_unit_circle() {
        // s^12 - 1: all roots on the unit circle.
        let mut c = vec![0.0; 13];
        c[0] = -1.0;
        c[12] = 1.0;
        let r = Poly::from_real(&c).roots(1e-13, 500);
        assert_eq!(r.len(), 12);
        for z in &r {
            assert!((z.abs() - 1.0).abs() < 1e-7, "{z}");
        }
        // And they are distinct.
        for i in 0..12 {
            for j in 0..i {
                assert!((r[i] - r[j]).abs() > 1e-3);
            }
        }
    }

    #[test]
    fn poly_arithmetic_operators() {
        let a = Poly::from_real(&[1.0, 2.0]); // 1 + 2s
        let b = Poly::from_real(&[3.0, 0.0, 1.0]); // 3 + s²
        assert_eq!((&a + &b).coeffs(), Poly::from_real(&[4.0, 2.0, 1.0]).coeffs());
        assert_eq!((&b - &a).coeffs(), Poly::from_real(&[2.0, -2.0, 1.0]).coeffs());
        // (1+2s)(3+s²) = 3 + 6s + s² + 2s³
        assert_eq!((&a * &b).coeffs(), Poly::from_real(&[3.0, 6.0, 1.0, 2.0]).coeffs());
        // Cancellation trims degree.
        assert_eq!((&a - &a).degree(), None);
        assert_eq!((&a * &Poly::zero()).degree(), None);
    }

    #[test]
    fn from_roots_round_trip() {
        let roots = [Complex::real(-1.0), Complex::real(-3.0), Complex::new(0.0, 2.0)];
        let p = Poly::from_roots(&roots);
        assert_eq!(p.degree(), Some(3));
        for &r in &roots {
            assert!(p.eval(r).abs() < 1e-12);
        }
        // Leading coefficient is 1 (monic).
        assert_eq!(*p.coeffs().last().unwrap(), Complex::ONE);
        // Multiplication agrees with from_roots of the union.
        let q = Poly::from_roots(&roots[..2]);
        let lin = Poly::from_roots(&roots[2..]);
        let prod = &q * &lin;
        for (x, y) in prod.coeffs().iter().zip(p.coeffs()) {
            assert!((*x - *y).abs() < 1e-12);
        }
    }

    #[test]
    fn ext_poly_eval_extreme_coeffs() {
        // p(s) = 1e-90 + 1e-200·s; at s = 1 both contribute.
        let p = ExtPoly::new(vec![
            ExtComplex::from_f64(1.0).scale_ext(ExtFloat::from_pow10(-90)),
            ExtComplex::from_f64(1.0).scale_ext(ExtFloat::from_pow10(-200)),
        ]);
        let v = p.eval(Complex::ONE);
        assert!((v.norm().log10() + 90.0).abs() < 1e-6);
        // At s = 1e150 the second term dominates: 1e-50.
        let v2 = p.eval(Complex::real(1e150));
        assert!((v2.norm().log10() + 50.0).abs() < 1e-6);
    }

    #[test]
    fn ext_poly_derivative() {
        let p = ExtPoly::new(vec![
            ExtComplex::from_f64(5.0),
            ExtComplex::from_f64(3.0),
            ExtComplex::from_f64(2.0),
        ]);
        let d = p.derivative();
        assert_eq!(d.degree(), Some(1));
        // d/ds (5 + 3s + 2s²) = 3 + 4s; at s = 2: 11.
        let v = d.eval(Complex::real(2.0));
        assert!((v.re().to_f64() - 11.0).abs() < 1e-12);
        assert!(ExtPoly::new(vec![ExtComplex::from_f64(7.0)]).derivative().degree().is_none());
    }

    #[test]
    fn ext_poly_scale_variable() {
        let p = ExtPoly::new(vec![
            ExtComplex::from_f64(2.0),
            ExtComplex::from_f64(3.0),
            ExtComplex::from_f64(4.0),
        ]);
        let q = p.scale_variable_ext(ExtFloat::from_pow10(9));
        assert!((q.coeffs()[0].norm().log10() - 2f64.log10()).abs() < 1e-9);
        assert!((q.coeffs()[1].norm().log10() - (9.0 + 3f64.log10())).abs() < 1e-9);
        assert!((q.coeffs()[2].norm().log10() - (18.0 + 4f64.log10())).abs() < 1e-9);
    }

    #[test]
    fn ext_poly_to_scaled_poly() {
        let p = ExtPoly::new(vec![
            ExtComplex::from_f64(1.0).scale_ext(ExtFloat::from_pow10(-400)),
            ExtComplex::from_f64(5.0).scale_ext(ExtFloat::from_pow10(-395)),
        ]);
        let (factor, poly) = p.to_scaled_poly().unwrap();
        // factor·poly == p at a probe point (evaluated in log space).
        let probe = Complex::real(0.7);
        let direct = p.eval(probe);
        let via = ExtComplex::from_complex(poly.eval(probe)).scale_ext(factor);
        assert!(((direct.norm() / via.norm()).log10()).abs() < 1e-9);
        assert!(ExtPoly::zero().to_scaled_poly().is_none());
    }

    #[test]
    fn ext_poly_roots_extreme_range() {
        // (s + 1e6)(s + 1e-6) scaled by 1e-300:
        // 1e-300·(s² + (1e6+1e-6)s + 1)
        let k = ExtFloat::from_pow10(-300);
        let p = ExtPoly::new(vec![
            ExtComplex::from_f64(1.0).scale_ext(k),
            ExtComplex::from_f64(1e6 + 1e-6).scale_ext(k),
            ExtComplex::from_f64(1.0).scale_ext(k),
        ]);
        let mut r = p.roots(1e-13, 400);
        r.sort_by(|a, b| a.norm().partial_cmp(&b.norm()).unwrap());
        assert!((r[0].norm().log10() + 6.0).abs() < 1e-6, "{}", r[0]);
        assert!((r[1].norm().log10() - 6.0).abs() < 1e-6, "{}", r[1]);
    }

    #[test]
    fn ext_poly_zero_cases() {
        assert!(ExtPoly::zero().roots(1e-13, 100).is_empty());
        assert!(ExtPoly::new(vec![ExtComplex::from_f64(3.0)]).roots(1e-13, 100).is_empty());
        assert!(ExtPoly::zero().max_coeff_norm().is_zero());
    }
}
