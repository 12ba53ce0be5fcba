//! The Markowitz factorization as it was before it ran on a reusable
//! workspace and stored L and U flat, kept verbatim as the identity
//! reference: one `Vec` per row, per column list and per L/U step, all
//! allocated per call.
//!
//! The tier below holds [`SparseLu::factor`] and [`SparseLu::refactor`]
//! to it bit for bit — pivot order, `solve` output, determinant,
//! `fill_in`, `structural_fill` and the step of a `Singular` failure — with
//! the cases run back to back on one thread, so the per-thread workspace
//! sees dimensions grow and shrink and a singular early exit followed by a
//! regular matrix.

use super::{FactorError, PivotOrder, SparseLu};
use crate::triplets::Triplets;
use proptest::prelude::*;
use refgen_numeric::{Complex, ExtComplex, ExtProduct};

/// The parent factorization's result, with its per-step L and U rows.
struct ReferenceLu {
    n: usize,
    order: PivotOrder,
    lcols: Vec<Vec<(usize, Complex)>>,
    urows: Vec<Vec<(usize, Complex)>>,
    pivots: Vec<Complex>,
    det: ExtComplex,
    fill_in: usize,
    skipped_zero: bool,
}

impl ReferenceLu {
    fn structural_fill(&self) -> Option<usize> {
        (!self.skipped_zero).then_some(self.fill_in)
    }

    fn solve(&self, b: &[Complex]) -> Vec<Complex> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let mut work = b.to_vec();
        for k in 0..self.n {
            let t = work[self.order.rows[k]];
            if t == Complex::ZERO {
                continue;
            }
            for &(r2, l) in &self.lcols[k] {
                work[r2] -= l * t;
            }
        }
        let mut x = vec![Complex::ZERO; self.n];
        for k in (0..self.n).rev() {
            let mut s = work[self.order.rows[k]];
            for &(c, v) in &self.urows[k] {
                s -= v * x[c];
            }
            x[self.order.cols[k]] = s / self.pivots[k];
        }
        x
    }
}

fn factor_reference(a: &Triplets, u: f64) -> Result<ReferenceLu, FactorError> {
    factor_impl(a, PivotStrategy::Markowitz { threshold: u })
}

fn refactor_reference(a: &Triplets, order: &PivotOrder) -> Result<ReferenceLu, FactorError> {
    if order.dim() != a.dim() {
        return Err(FactorError::OrderMismatch { expected: order.dim(), actual: a.dim() });
    }
    factor_impl(a, PivotStrategy::Fixed(order.clone()))
}

/// In-place accumulation of duplicate columns in a sorted row.
fn merge_sorted_duplicates(row: &mut Vec<(usize, Complex)>) {
    let mut w = 0usize;
    for i in 0..row.len() {
        let (c, v) = row[i];
        if w > 0 && row[w - 1].0 == c {
            row[w - 1].1 += v;
        } else {
            row[w] = (c, v);
            w += 1;
        }
    }
    row.truncate(w);
}

enum PivotStrategy {
    Markowitz { threshold: f64 },
    Fixed(PivotOrder),
}

/// One stored entry of an active row, with its magnitude cached: the
/// pivot search reads `|a|` for every entry of every dirty row, and an
/// entry's value only changes when an elimination updates it.
#[derive(Clone, Copy)]
struct Entry {
    col: usize,
    val: Complex,
    mag: f64,
}

impl Entry {
    fn new(col: usize, val: Complex) -> Entry {
        Entry { col, val, mag: val.abs() }
    }
}

/// A pivot candidate: Markowitz count, column and magnitude.
#[derive(Clone, Copy)]
struct Candidate {
    mark: usize,
    col: usize,
    mag: f64,
}

impl Candidate {
    /// The selection rule's comparison: a strictly smaller Markowitz
    /// count, or an equal count with a strictly larger magnitude.
    fn beats(self, best: Candidate) -> bool {
        self.mark < best.mark || (self.mark == best.mark && self.mag > best.mag)
    }
}

/// One row's cached contribution to the pivot search.
#[derive(Clone, Copy)]
struct RowBest {
    /// The row's winner under the selection rule, scanning its columns in
    /// ascending order from no prior best.
    best: Candidate,
    /// What the row offers against an earlier row's best of the same
    /// count: the first largest non-NaN magnitude at `best.mark`. It is
    /// `best` itself unless `best.mag` is NaN (a NaN never loses a tie
    /// and never wins one, so the row-major scan passes over it).
    tie: Option<Candidate>,
}

/// Scans one active row under the selection rule. `None` when the row
/// holds no usable candidate (empty, or all entries zero).
fn row_best(row: &[Entry], col_rows: &[Vec<usize>], threshold: f64) -> Option<RowBest> {
    let row_max = row.iter().map(|e| e.mag).fold(0.0, f64::max);
    if row_max == 0.0 {
        return None;
    }
    let r_nnz = row.iter().filter(|e| e.val != Complex::ZERO).count();
    let mut best: Option<Candidate> = None;
    let mut non_nan_best: Option<Candidate> = None;
    for e in row {
        if e.mag < threshold * row_max || e.mag == 0.0 {
            continue;
        }
        let cand = Candidate {
            mark: (r_nnz - 1) * col_rows[e.col].len().saturating_sub(1),
            col: e.col,
            mag: e.mag,
        };
        if best.is_none_or(|b| cand.beats(b)) {
            best = Some(cand);
        }
        if !cand.mag.is_nan() && non_nan_best.is_none_or(|b| cand.beats(b)) {
            non_nan_best = Some(cand);
        }
    }
    let best = best?;
    Some(RowBest { best, tie: non_nan_best.filter(|t| t.mark == best.mark) })
}

/// Markowitz pivot selection over the cached row bests: exactly the
/// candidate a row-major scan of every active entry would pick.
fn select_markowitz(bests: &[Option<RowBest>]) -> Option<(usize, usize)> {
    let mut pick: Option<(usize, Candidate)> = None;
    for (r, rb) in bests.iter().enumerate() {
        let Some(rb) = rb else { continue };
        pick = match pick {
            None => Some((r, rb.best)),
            Some((_, p)) if rb.best.mark < p.mark => Some((r, rb.best)),
            Some((_, p)) => match rb.tie {
                Some(t) if t.beats(p) => Some((r, t)),
                _ => pick,
            },
        };
    }
    pick.map(|(r, c)| (r, c.col))
}

fn factor_impl(a: &Triplets, strategy: PivotStrategy) -> Result<ReferenceLu, FactorError> {
    let n = a.dim();
    // Column-sorted rows, duplicates summed in insertion order (the sort
    // is stable) onto a zero start: `ZERO + v` turns a `-0.0` component
    // into `+0.0`, as accumulating into a fresh zero entry does.
    let mut raw: Vec<Vec<(usize, Complex)>> = vec![Vec::new(); n];
    for &(r, c, v) in a.entries() {
        raw[r].push((c, Complex::ZERO + v));
    }
    let mut rows: Vec<Vec<Entry>> = Vec::with_capacity(n);
    for mut row in raw {
        row.sort_by_key(|&(c, _)| c);
        merge_sorted_duplicates(&mut row);
        rows.push(row.into_iter().map(|(c, v)| Entry::new(c, v)).collect());
    }
    // col_rows[c]: the active rows holding a (possibly zero) entry in
    // column c — so `col_rows[c].len()` is the column count.
    let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (r, row) in rows.iter().enumerate() {
        for e in row {
            col_rows[e.col].push(r);
        }
    }
    let threshold = match strategy {
        PivotStrategy::Markowitz { threshold } => Some(threshold),
        PivotStrategy::Fixed(_) => None,
    };
    let mut bests: Vec<Option<RowBest>> = match threshold {
        Some(u) => rows.iter().map(|row| row_best(row, &col_rows, u)).collect(),
        None => Vec::new(),
    };
    let mut dirty = vec![false; n];
    let mut dirty_rows: Vec<usize> = Vec::new();
    let mut merged: Vec<Entry> = Vec::new();

    let mut order_rows = Vec::with_capacity(n);
    let mut order_cols = Vec::with_capacity(n);
    let mut lcols = Vec::with_capacity(n);
    let mut urows = Vec::with_capacity(n);
    let mut pivots = Vec::with_capacity(n);
    let mut det_mag = ExtProduct::ONE;
    let mut skipped_zero = false;
    let initial_nnz: usize = rows.iter().map(|r| r.len()).sum();

    for step in 0..n {
        let (pr, pc) = match &strategy {
            PivotStrategy::Markowitz { .. } => {
                select_markowitz(&bests).ok_or(FactorError::Singular { step })?
            }
            PivotStrategy::Fixed(ord) => (ord.rows[step], ord.cols[step]),
        };
        let pivot = match rows[pr].binary_search_by_key(&pc, |e| e.col) {
            Ok(pos) => rows[pr][pos].val,
            Err(_) => Complex::ZERO,
        };
        if pivot == Complex::ZERO {
            return Err(FactorError::Singular { step });
        }
        det_mag.mul_complex(pivot);
        order_rows.push(pr);
        order_cols.push(pc);
        pivots.push(pivot);

        // Detach the pivot row; record U (without the pivot entry).
        let prow = std::mem::take(&mut rows[pr]);
        for e in &prow {
            let list = &mut col_rows[e.col];
            let at = list.iter().position(|&r| r == pr).expect("pivot row listed in its columns");
            list.swap_remove(at);
        }
        let urow: Vec<(usize, Complex)> =
            prow.iter().filter(|e| e.col != pc).map(|e| (e.col, e.val)).collect();

        // Eliminate column pc from the remaining rows, in ascending order.
        let mut targets = std::mem::take(&mut col_rows[pc]);
        targets.sort_unstable();
        let mut lcol = Vec::with_capacity(targets.len());
        for &r2 in &targets {
            let row2 = &mut rows[r2];
            let Ok(pos) = row2.binary_search_by_key(&pc, |e| e.col) else { continue };
            let a_rc = row2.remove(pos).val;
            if a_rc == Complex::ZERO {
                skipped_zero = true;
                continue;
            }
            let l = a_rc / pivot;
            lcol.push((r2, l));
            // Merge `row2 − l·urow` (both sorted by column) into `merged`.
            merged.clear();
            let mut i = 0;
            for &(c, v) in &urow {
                while i < row2.len() && row2[i].col < c {
                    merged.push(row2[i]);
                    i += 1;
                }
                let delta = l * v;
                if i < row2.len() && row2[i].col == c {
                    let mut val = row2[i].val;
                    val -= delta;
                    merged.push(Entry::new(c, val));
                    i += 1;
                } else {
                    merged.push(Entry::new(c, -delta));
                    col_rows[c].push(r2);
                }
            }
            merged.extend_from_slice(&row2[i..]);
            std::mem::swap(row2, &mut merged);
        }
        lcols.push(lcol);
        urows.push(urow);

        // Only rows whose entries or column counts moved need a new best:
        // the targets, and every row listed under a pivot-row column.
        if let Some(u) = threshold {
            bests[pr] = None;
            for &r in targets.iter().chain(prow.iter().flat_map(|e| &col_rows[e.col])) {
                if !std::mem::replace(&mut dirty[r], true) {
                    dirty_rows.push(r);
                }
            }
            for r in dirty_rows.drain(..) {
                dirty[r] = false;
                bests[r] = row_best(&rows[r], &col_rows, u);
            }
        }
    }

    let order = PivotOrder { rows: order_rows, cols: order_cols };
    let det = det_mag.value() * Complex::real(order.sign());
    let final_nnz: usize = urows.iter().map(|u| u.len() + 1).sum::<usize>()
        + lcols.iter().map(|l| l.len()).sum::<usize>();
    Ok(ReferenceLu {
        n,
        order,
        lcols,
        urows,
        pivots,
        det,
        fill_in: final_nnz.saturating_sub(initial_nnz),
        skipped_zero,
    })
}

/// A random matrix full of ties: small-integer values, duplicate triplets,
/// stored zeros, subnormals, pairs that cancel to an exact zero and, with
/// `special`,
/// infinite and NaN values. Low densities leave empty rows and columns.
fn tie_heavy(dim: usize, seed: u64, density_pct: u64, special: bool) -> Triplets {
    let mut t = Triplets::new(dim);
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(4711);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    for r in 0..dim {
        for c in 0..dim {
            if next() % 100 >= density_pct {
                continue;
            }
            let v = match next() % 9 {
                0 => Complex::ZERO,
                1 => Complex::new(0.0, (next() % 3) as f64 - 1.0),
                2 => Complex::real(10.0),
                3 => Complex::new(1.0 + (next() % 1000) as f64 * 1e-3, 0.5),
                // A row holding only subnormal magnitudes has a threshold
                // that rounds to zero.
                4 => Complex::real(5e-324),
                _ => Complex::real((next() % 5) as f64 - 2.0),
            };
            t.add(r, c, v);
            match next() % 6 {
                0 => t.add(r, c, v),
                1 => t.add(r, c, -v),
                2 if special => t.add(r, c, Complex::real(specials[(next() % 3) as usize])),
                _ => {}
            }
        }
    }
    t
}

/// `a` at new values on the same positions: every raw value rescaled, and
/// roughly one in eight zeroed (prescribed pivots that die at their step).
fn revalued(a: &Triplets, seed: u64) -> Triplets {
    let mut t = Triplets::new(a.dim());
    for (i, &(r, c, v)) in a.entries().iter().enumerate() {
        let h = (seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15)) >> 7;
        t.add(
            r,
            c,
            if h.is_multiple_of(8) { Complex::ZERO } else { v.scale(1.0 + (h % 13) as f64) },
        );
    }
    t
}

/// A pseudo-random permutation of `0..n` (Fisher–Yates on `seed`).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        perm.swap(i, (state >> 33) as usize % (i + 1));
    }
    perm
}

/// `a` without row `r`'s entries: structurally singular, so the
/// elimination exits early.
fn without_row(a: &Triplets, r: usize) -> Triplets {
    let mut t = Triplets::new(a.dim());
    for &(row, c, v) in a.entries() {
        if row != r {
            t.add(row, c, v);
        }
    }
    t
}

/// The bits of `z`, every NaN as one value: which NaN an operation on a
/// NaN returns is not specified, and an optimizer may swap the operands of
/// a commutative operation, which changes the NaN's sign bit.
fn bits(z: Complex) -> (u64, u64) {
    let canonical = |x: f64| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() };
    (canonical(z.re), canonical(z.im))
}

fn det_bits(d: ExtComplex) -> ((u64, u64), i64) {
    (bits(d.mantissa()), d.exponent())
}

/// Bit identity of one factorization with the reference's: order,
/// determinant, fill, certified fill and `solve`, or the same error.
fn assert_same(
    got: Result<SparseLu, FactorError>,
    want: Result<ReferenceLu, FactorError>,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(lu), Ok(reference)) => {
            prop_assert_eq!(lu.order(), &reference.order);
            prop_assert_eq!(det_bits(lu.det()), det_bits(reference.det));
            prop_assert_eq!(lu.fill_in(), reference.fill_in);
            prop_assert_eq!(lu.structural_fill(), reference.structural_fill());
            let b: Vec<Complex> =
                (0..lu.dim()).map(|i| Complex::new(1.0 + i as f64, 0.5 - i as f64)).collect();
            let x: Vec<_> = lu.solve(&b).into_iter().map(bits).collect();
            let want: Vec<_> = reference.solve(&b).into_iter().map(bits).collect();
            prop_assert_eq!(x, want);
        }
        (Err(got), Err(want)) => prop_assert_eq!(got, want),
        (got, want) => prop_assert!(
            false,
            "outcomes diverge: {:?} vs {:?}",
            got.map(|lu| lu.order().clone()),
            want.map(|r| r.order)
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 384, ..ProptestConfig::default() })]

    /// Each case factors several matrices back to back on this thread —
    /// dimensions growing and shrinking — and after every matrix a
    /// structurally singular copy (early exit) followed by the matrix
    /// again. `factor` runs at a random threshold; `refactor` replays the
    /// recorded order at the same and at new values, and a random
    /// diagonal order whose pivots are often structurally absent.
    #[test]
    fn workspace_factorization_matches_parent_reference(
        dims in prop::collection::vec(0usize..24, 2..6),
        seed in 0u64..1_000_000,
        density in 5u64..90,
        u_tenths in 1u32..=10,
        special in any::<bool>(),
    ) {
        let u = f64::from(u_tenths) / 10.0;
        for (k, &dim) in dims.iter().enumerate() {
            let seed = seed.wrapping_add(7919 * k as u64);
            let a = tie_heavy(dim, seed, density, special);
            let reference = factor_reference(&a, u);
            let recorded = reference.as_ref().ok().map(|r| r.order.clone());
            assert_same(SparseLu::factor_with_threshold(&a, u), reference)?;
            if dim > 0 {
                let singular = without_row(&a, seed as usize % dim);
                assert_same(
                    SparseLu::factor_with_threshold(&singular, u),
                    factor_reference(&singular, u),
                )?;
                assert_same(SparseLu::factor_with_threshold(&a, u), factor_reference(&a, u))?;
            }
            let b = revalued(&a, seed);
            let diagonal = PivotOrder::diagonal(permutation(dim, seed));
            for order in recorded.iter().chain([&diagonal]) {
                assert_same(SparseLu::refactor(&a, order), refactor_reference(&a, order))?;
                assert_same(SparseLu::refactor(&b, order), refactor_reference(&b, order))?;
            }
            let other = PivotOrder::diagonal(permutation(dim + 1, seed));
            assert_same(SparseLu::refactor(&a, &other), refactor_reference(&a, &other))?;
        }
    }
}
