//! Dense complex matrices — reference implementation and test oracle.
//!
//! Circuit matrices in this workspace are solved by the sparse LU in
//! [`crate::lu`]; the dense path exists to cross-check it (same answers,
//! different code), to provide a brute-force cofactor determinant for tiny
//! systems, and to serve examples that don't care about performance.

use refgen_numeric::{Complex, ExtComplex};

/// A dense square complex matrix in row-major storage.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    dim: usize,
    data: Vec<Complex>,
}

impl DenseMatrix {
    /// Creates a `dim × dim` zero matrix.
    pub fn zeros(dim: usize) -> Self {
        DenseMatrix { dim, data: vec![Complex::ZERO; dim * dim] }
    }

    /// Creates the identity matrix.
    pub fn identity(dim: usize) -> Self {
        let mut m = DenseMatrix::zeros(dim);
        for i in 0..dim {
            m.set(i, i, Complex::ONE);
        }
        m
    }

    /// Builds from a row-major nested array of real values (test helper).
    pub fn from_real_rows(rows: &[&[f64]]) -> Self {
        let dim = rows.len();
        let mut m = DenseMatrix::zeros(dim);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), dim, "row {i} has wrong length");
            for (j, &v) in r.iter().enumerate() {
                m.set(i, j, Complex::real(v));
            }
        }
        m
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Complex {
        assert!(row < self.dim && col < self.dim);
        self.data[row * self.dim + col]
    }

    /// Sets element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: Complex) {
        assert!(row < self.dim && col < self.dim);
        self.data[row * self.dim + col] = value;
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim`.
    pub fn mul_vec(&self, x: &[Complex]) -> Vec<Complex> {
        assert_eq!(x.len(), self.dim);
        (0..self.dim).map(|i| (0..self.dim).map(|j| self.get(i, j) * x[j]).sum()).collect()
    }

    /// Determinant through LU with partial pivoting, accumulated in extended
    /// range (no overflow for pivot products spanning hundreds of decades).
    ///
    /// Returns [`ExtComplex::ZERO`] for singular matrices.
    pub fn det(&self) -> ExtComplex {
        let mut a = self.clone();
        let n = self.dim;
        let mut det = ExtComplex::ONE;
        for k in 0..n {
            // Partial pivoting on column k.
            let mut piv = k;
            let mut best = a.get(k, k).abs();
            for r in (k + 1)..n {
                let v = a.get(r, k).abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best == 0.0 {
                return ExtComplex::ZERO;
            }
            if piv != k {
                for c in 0..n {
                    let tmp = a.get(k, c);
                    a.set(k, c, a.get(piv, c));
                    a.set(piv, c, tmp);
                }
                det = -det;
            }
            let pivot = a.get(k, k);
            det *= ExtComplex::from_complex(pivot);
            for r in (k + 1)..n {
                let f = a.get(r, k) / pivot;
                if f == Complex::ZERO {
                    continue;
                }
                for c in k..n {
                    let v = a.get(r, c) - f * a.get(k, c);
                    a.set(r, c, v);
                }
            }
        }
        det
    }

    /// Solves `A·x = b` through LU with partial pivoting.
    ///
    /// Returns `None` if the matrix is numerically singular.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim`.
    pub fn solve(&self, b: &[Complex]) -> Option<Vec<Complex>> {
        assert_eq!(b.len(), self.dim);
        let n = self.dim;
        let mut a = self.clone();
        let mut x = b.to_vec();
        for k in 0..n {
            let mut piv = k;
            let mut best = a.get(k, k).abs();
            for r in (k + 1)..n {
                let v = a.get(r, k).abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best == 0.0 {
                return None;
            }
            if piv != k {
                for c in 0..n {
                    let tmp = a.get(k, c);
                    a.set(k, c, a.get(piv, c));
                    a.set(piv, c, tmp);
                }
                x.swap(k, piv);
            }
            let pivot = a.get(k, k);
            for r in (k + 1)..n {
                let f = a.get(r, k) / pivot;
                if f == Complex::ZERO {
                    continue;
                }
                for c in k..n {
                    let v = a.get(r, c) - f * a.get(k, c);
                    a.set(r, c, v);
                }
                x[r] = x[r] - f * x[k];
            }
        }
        // Back substitution (index form mirrors the math; the row slice
        // and solution vector advance together).
        #[allow(clippy::needless_range_loop)]
        for k in (0..n).rev() {
            let mut s = x[k];
            for c in (k + 1)..n {
                s -= a.get(k, c) * x[c];
            }
            x[k] = s / a.get(k, k);
        }
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force determinant by cofactor expansion over the columns in
    /// `cols`, from row `row` down — `O(n!)`, an oracle for small `n`.
    fn det_cofactor(m: &DenseMatrix, row: usize, cols: &[usize]) -> ExtComplex {
        if cols.is_empty() {
            return ExtComplex::ONE;
        }
        let mut acc = ExtComplex::ZERO;
        for (i, &c) in cols.iter().enumerate() {
            let a = m.get(row, c);
            if a == Complex::ZERO {
                continue;
            }
            let rest: Vec<usize> = cols.iter().copied().filter(|&x| x != c).collect();
            let term = ExtComplex::from_complex(a) * det_cofactor(m, row + 1, &rest);
            acc = if i % 2 == 0 { acc + term } else { acc - term };
        }
        acc
    }

    #[test]
    fn det_known_values() {
        let m = DenseMatrix::from_real_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!((m.det().to_complex() - Complex::real(-2.0)).abs() < 1e-13);
        assert!((DenseMatrix::identity(5).det().to_complex() - Complex::ONE).abs() < 1e-13);
    }

    #[test]
    fn det_singular_is_zero() {
        let m = DenseMatrix::from_real_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(m.det().is_zero());
    }

    #[test]
    fn det_matches_cofactor_oracle() {
        let m = DenseMatrix::from_real_rows(&[
            &[2.0, -1.0, 0.0, 3.0],
            &[1.0, 0.5, -2.0, 1.0],
            &[0.0, 4.0, 1.0, -1.0],
            &[3.0, 0.0, 2.0, 2.0],
        ]);
        let a = m.det();
        let b = det_cofactor(&m, 0, &[0, 1, 2, 3]);
        assert!(((a - b).norm() / a.norm()).to_f64() < 1e-12);
    }

    #[test]
    fn det_no_overflow_extreme_diagonal() {
        // Product of diagonal = 1e-400 — underflows f64, fine in ExtComplex.
        let mut m = DenseMatrix::identity(4);
        for i in 0..4 {
            m.set(i, i, Complex::real(1e-100));
        }
        let d = m.det();
        assert!((d.norm().log10() + 400.0).abs() < 1e-9);
    }

    #[test]
    fn solve_round_trip() {
        let m =
            DenseMatrix::from_real_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, -1.0], &[0.0, -1.0, 2.0]]);
        let x_true = vec![Complex::real(1.0), Complex::new(0.0, 2.0), Complex::real(-1.5)];
        let b = m.mul_vec(&x_true);
        let x = m.solve(&b).unwrap();
        for (a, t) in x.iter().zip(&x_true) {
            assert!((*a - *t).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_singular_returns_none() {
        let m = DenseMatrix::from_real_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(m.solve(&[Complex::ONE, Complex::ONE]).is_none());
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the leading diagonal: fails without row exchange.
        let m = DenseMatrix::from_real_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = m.solve(&[Complex::real(2.0), Complex::real(3.0)]).unwrap();
        assert!((x[0] - Complex::real(3.0)).abs() < 1e-14);
        assert!((x[1] - Complex::real(2.0)).abs() < 1e-14);
    }
}
