//! Coordinate-format sparse matrix assembly.

use refgen_numeric::Complex;

/// A square sparse matrix under assembly, in coordinate (triplet) form.
///
/// MNA stamping adds several contributions to the same position (every
/// element connected to a node stamps into that node's diagonal); duplicates
/// accumulate additively, matching that convention.
///
/// ```
/// use refgen_numeric::Complex;
/// use refgen_sparse::Triplets;
///
/// let mut t = Triplets::new(3);
/// t.add(0, 0, Complex::real(1.0));
/// t.add(0, 0, Complex::real(2.0)); // accumulates: a00 = 3
/// assert_eq!(t.get(0, 0), Complex::real(3.0));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Triplets {
    dim: usize,
    entries: Vec<(usize, usize, Complex)>,
}

impl Triplets {
    /// Creates an empty `dim × dim` matrix.
    pub fn new(dim: usize) -> Self {
        Triplets { dim, entries: Vec::new() }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of raw (pre-accumulation) entries.
    pub fn raw_len(&self) -> usize {
        self.entries.len()
    }

    /// Adds `value` at `(row, col)`, accumulating with prior entries there.
    ///
    /// Zero values are kept (they preserve the symbolic pattern, which
    /// matters when a reused [`PivotOrder`](crate::PivotOrder) must stay
    /// valid across numeric re-evaluations).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn add(&mut self, row: usize, col: usize, value: Complex) {
        assert!(
            row < self.dim && col < self.dim,
            "entry ({row},{col}) out of range for dim {}",
            self.dim
        );
        self.entries.push((row, col, value));
    }

    /// Raw entries in insertion order.
    pub fn entries(&self) -> &[(usize, usize, Complex)] {
        &self.entries
    }

    /// Clears the matrix for reassembly at a (possibly new) dimension,
    /// keeping the entry buffer's allocation. This is what lets a sweep
    /// re-stamp the same pattern at a new frequency point with zero heap
    /// traffic.
    pub fn reset(&mut self, dim: usize) {
        self.dim = dim;
        self.entries.clear();
    }

    /// Accumulated value at `(row, col)` (zero if absent).
    pub fn get(&self, row: usize, col: usize) -> Complex {
        self.entries.iter().filter(|&&(r, c, _)| r == row && c == col).map(|&(_, _, v)| v).sum()
    }

    /// Converts to a dense matrix (test/oracle use).
    pub fn to_dense(&self) -> crate::dense::DenseMatrix {
        let mut d = crate::dense::DenseMatrix::zeros(self.dim);
        for &(r, c, v) in &self.entries {
            let cur = d.get(r, c);
            d.set(r, c, cur + v);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation() {
        let mut t = Triplets::new(2);
        t.add(1, 0, Complex::real(1.5));
        t.add(1, 0, Complex::new(0.5, 2.0));
        assert_eq!(t.get(1, 0), Complex::new(2.0, 2.0));
        assert_eq!(t.get(0, 1), Complex::ZERO);
        assert_eq!(t.raw_len(), 2);
    }

    #[test]
    fn get_is_independent_of_insertion_order() {
        let mut t = Triplets::new(3);
        t.add(0, 2, Complex::ONE);
        t.add(0, 1, Complex::real(2.0));
        t.add(0, 2, Complex::real(3.0));
        assert_eq!(t.get(0, 1), Complex::real(2.0));
        assert_eq!(t.get(0, 2), Complex::real(4.0));
        assert!((0..3).all(|c| t.get(1, c) == Complex::ZERO));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut t = Triplets::new(2);
        t.add(2, 0, Complex::ONE);
    }

    #[test]
    fn to_dense_matches() {
        let mut t = Triplets::new(2);
        t.add(0, 0, Complex::real(1.0));
        t.add(0, 0, Complex::real(1.0));
        t.add(1, 0, Complex::real(3.0));
        let d = t.to_dense();
        assert_eq!(d.get(0, 0), Complex::real(2.0));
        assert_eq!(d.get(1, 0), Complex::real(3.0));
        assert_eq!(d.get(1, 1), Complex::ZERO);
    }
}
