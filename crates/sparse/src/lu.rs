//! Sparse LU factorization with Markowitz pivoting.
//!
//! # The selection rule
//!
//! The pivot order is a contract: cached plans, compiled programs and the
//! committed reference data all depend on it, so [`SparseLu::factor`]
//! picks exactly this pivot at every step.
//!
//! * **Candidates**: every stored entry of an active row with
//!   `|a| ≠ 0` and `|a| ≥ u·max|row|` (threshold stability; `u` defaults
//!   to [`DEFAULT_PIVOT_THRESHOLD`]).
//! * **Cost**: the Markowitz count `(r_nnz − 1)·(c_nnz − 1)`, a classic
//!   fill-in heuristic from circuit simulation. `r_nnz` counts the
//!   row's nonzero values; `c_nnz` counts the column's stored entries in
//!   active rows, explicit zeros included.
//! * **Tie-break**: the smallest count wins; among equal counts a
//!   strictly larger `|a|` wins; among equal counts and magnitudes, the
//!   first candidate in row-major order (row, then column, ascending).
//!   A NaN magnitude never wins a tie against an earlier candidate and
//!   is never displaced by a later one at the same count.
//!
//! # Cost per step
//!
//! Rows are column-sorted `Vec`s holding each entry's `|a|` beside its
//! value; column counts are the lengths of per-column row lists, so
//! reading one is O(1). Each row caches its largest magnitude and nonzero
//! count (rebuilt by the merge that updates the row), its best candidate
//! under the rule, and that candidate's count. A step takes the minimum of
//! the `n` cached counts, breaks the tie among the rows holding it,
//! eliminates, and then rescans only the rows it touched: the elimination
//! targets, plus every row of every column in the pivot row (their column
//! counts moved). The cost of a step is O(n) plus the lengths of those
//! dirty rows, instead of a rescan of the whole active matrix. All of
//! this state lives in a per-thread workspace reused across calls (see
//! [`SparseLu`]).
//!
//! The resulting [`PivotOrder`] can be reused for fast *numeric
//! refactorization*: the interpolation engine factors the same circuit
//! matrix at dozens of frequency points, and only the first
//! factorization pays for pivot search.
//!
//! The determinant is accumulated as an
//! [`refgen_numeric::ExtComplex`] — the product of pivots of a
//! scaled MNA matrix reaches `1e±124` and beyond (paper Table 2), which must
//! not overflow.

use crate::triplets::Triplets;
use refgen_numeric::{Complex, ExtComplex, ExtProduct};
use std::cell::RefCell;
use std::fmt;

/// Default threshold-pivoting parameter: candidates must satisfy
/// `|a| ≥ u·max|row|`. `0.1` is the customary compromise between stability
/// and sparsity (a pure-stability choice would be `1.0`).
pub const DEFAULT_PIVOT_THRESHOLD: f64 = 0.1;

/// Errors from LU factorization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FactorError {
    /// The matrix is structurally or numerically singular; `step` is the
    /// elimination step (0-based) at which no usable pivot remained.
    Singular {
        /// Elimination step at which factorization failed.
        step: usize,
    },
    /// A reused pivot order does not match the matrix dimension.
    OrderMismatch {
        /// Dimension implied by the pivot order.
        expected: usize,
        /// Actual matrix dimension.
        actual: usize,
    },
    /// A [`FactorProgram`](crate::FactorProgram) compile passed its
    /// budget: the order fills the pattern so heavily that the program
    /// would need more update ops or value slots than the pattern's
    /// budget allows.
    TooLarge {
        /// The budget's update-op limit.
        ops: usize,
        /// The budget's slot limit.
        slots: usize,
    },
}

impl fmt::Display for FactorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactorError::Singular { step } => {
                write!(f, "matrix is singular at elimination step {step}")
            }
            FactorError::OrderMismatch { expected, actual } => {
                write!(f, "pivot order is for dimension {expected}, matrix has {actual}")
            }
            FactorError::TooLarge { ops, slots } => write!(
                f,
                "compiled program exceeds its budget of {ops} update ops or {slots} slots"
            ),
        }
    }
}

impl std::error::Error for FactorError {}

/// A recorded pivot sequence: at step `k` the pivot sits at original
/// position `(rows[k], cols[k])`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PivotOrder {
    rows: Vec<usize>,
    cols: Vec<usize>,
}

impl PivotOrder {
    /// A symmetric (diagonal-pivot) order: step `k` pivots on
    /// `(perm[k], perm[k])`. This is the shape fill-reducing symbolic
    /// orderings over the pattern graph produce
    /// ([`minimum_degree`](crate::ordering::minimum_degree)); whether the
    /// prescribed diagonal pivots actually exist in the filled pattern is
    /// checked by [`FactorProgram::compile`](crate::FactorProgram::compile).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..perm.len()`.
    pub fn diagonal(perm: Vec<usize>) -> PivotOrder {
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            assert!(
                p < perm.len() && !std::mem::replace(&mut seen[p], true),
                "diagonal order is not a permutation of 0..{}",
                perm.len()
            );
        }
        PivotOrder { rows: perm.clone(), cols: perm }
    }

    /// Pivot row (original index) for each elimination step.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Pivot column (original index) for each elimination step.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The dimension this order was produced for.
    pub fn dim(&self) -> usize {
        self.rows.len()
    }

    /// Sign of the combined row/column permutation (`+1.0` or `-1.0`).
    pub(crate) fn sign(&self) -> f64 {
        permutation_sign(&self.rows) * permutation_sign(&self.cols)
    }
}

fn permutation_sign(perm: &[usize]) -> f64 {
    let mut seen = vec![false; perm.len()];
    let mut sign = 1.0;
    for start in 0..perm.len() {
        if seen[start] {
            continue;
        }
        let mut len = 0;
        let mut i = start;
        while !seen[i] {
            seen[i] = true;
            i = perm[i];
            len += 1;
        }
        if len % 2 == 0 {
            sign = -sign;
        }
    }
    sign
}

/// An LU factorization of a sparse complex matrix.
///
/// See the [crate docs](crate) for an end-to-end example.
///
/// The elimination runs on a per-thread workspace (active rows, column
/// lists, cached row bests, merge, pivot-row and target buffers) that is
/// reset at every call and keeps the capacity of the largest
/// factorization seen on that thread, so a stream of factorizations
/// allocates little beyond the result. L and U are stored flat, step by
/// step.
#[derive(Clone, Debug)]
pub struct SparseLu {
    n: usize,
    order: PivotOrder,
    /// Where each step's L and U entries start, plus one end entry:
    /// step `k`'s multipliers `(original row, l)`, eliminating column
    /// `cols[k]`, are `lents[starts[k].0..starts[k + 1].0]`, and its pivot
    /// row (original column indices, *excluding* the pivot entry itself)
    /// is `uents[starts[k].1..starts[k + 1].1]`.
    starts: Vec<(usize, usize)>,
    lents: Vec<(usize, Complex)>,
    uents: Vec<(usize, Complex)>,
    pivots: Vec<Complex>,
    det: ExtComplex,
    fill_in: usize,
    /// `true` when some elimination step met an exact-zero entry in its
    /// pivot column and skipped that row (no multiplier, no merge): the
    /// numeric fill then undercounts the structural fill.
    skipped_zero: bool,
}

impl SparseLu {
    /// Factors with Markowitz pivoting at the default stability threshold.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Singular`] if no nonzero pivot remains at some
    /// elimination step.
    pub fn factor(a: &Triplets) -> Result<SparseLu, FactorError> {
        Self::factor_with_threshold(a, DEFAULT_PIVOT_THRESHOLD)
    }

    /// Factors with a caller-chosen threshold `u ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Singular`] if the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not in `(0, 1]`.
    pub fn factor_with_threshold(a: &Triplets, u: f64) -> Result<SparseLu, FactorError> {
        assert!(u > 0.0 && u <= 1.0, "pivot threshold must be in (0,1], got {u}");
        factor_impl(a, PivotStrategy::Markowitz { threshold: u })
    }

    /// Refactors numerically with a previously recorded pivot order — no
    /// pivot search. This element-by-element replay is the reference that
    /// the compiled replay ([`FactorProgram`](crate::FactorProgram)) of
    /// the same order is tested against, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::OrderMismatch`] on dimension mismatch and
    /// [`FactorError::Singular`] if a prescribed pivot is exactly zero (the
    /// caller should fall back to a fresh [`SparseLu::factor`]).
    pub fn refactor(a: &Triplets, order: &PivotOrder) -> Result<SparseLu, FactorError> {
        if order.dim() != a.dim() {
            return Err(FactorError::OrderMismatch { expected: order.dim(), actual: a.dim() });
        }
        factor_impl(a, PivotStrategy::Fixed(order.clone()))
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The pivot order used, reusable via [`SparseLu::refactor`].
    pub fn order(&self) -> &PivotOrder {
        &self.order
    }

    /// Determinant (sign-corrected for the row/column permutations), in
    /// extended range.
    pub fn det(&self) -> ExtComplex {
        self.det
    }

    /// Number of fill-in entries created during elimination.
    pub fn fill_in(&self) -> usize {
        self.fill_in
    }

    /// The fill-in of the value-blind elimination under this factorization's
    /// order — what [`FactorProgram::compile`](crate::FactorProgram::compile)
    /// reports for the same positions and order — when this factorization
    /// can certify it: `Some(fill_in)` when no elimination step skipped an
    /// exact-zero entry of its pivot column, because both eliminations
    /// then merge exactly the same rows. `None` when one did: a skipped
    /// entry creates no fill here but does in the compiled program.
    pub fn structural_fill(&self) -> Option<usize> {
        (!self.skipped_zero).then_some(self.fill_in)
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &[Complex]) -> Vec<Complex> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let mut work = b.to_vec();
        // Forward elimination replay: y[k] lives at work[order.rows[k]].
        for k in 0..self.n {
            let t = work[self.order.rows[k]];
            if t == Complex::ZERO {
                continue;
            }
            for &(r2, l) in &self.lents[self.starts[k].0..self.starts[k + 1].0] {
                work[r2] -= l * t;
            }
        }
        // Back substitution in original column coordinates.
        let mut x = vec![Complex::ZERO; self.n];
        for k in (0..self.n).rev() {
            let mut s = work[self.order.rows[k]];
            for &(c, v) in &self.uents[self.starts[k].1..self.starts[k + 1].1] {
                s -= v * x[c];
            }
            x[self.order.cols[k]] = s / self.pivots[k];
        }
        x
    }
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

/// What the selection rule reads of a row as a whole: its largest
/// magnitude (NaN magnitudes ignored) and its count of nonzero values.
/// Both are order-free, so a merge can build them entry by entry.
#[derive(Clone, Copy, Default)]
struct RowSummary {
    max: f64,
    nnz: usize,
}

impl RowSummary {
    fn add(&mut self, e: &Entry) {
        self.max = f64::max(self.max, e.mag);
        self.nnz += usize::from(e.val != Complex::ZERO);
    }

    fn of(row: &[Entry]) -> RowSummary {
        let mut summary = RowSummary::default();
        row.iter().for_each(|e| summary.add(e));
        summary
    }
}

/// Scans one active row, summarized by `summary`, under the selection
/// rule. `None` when the row holds no usable candidate (empty, or all
/// entries zero).
fn row_best(
    row: &[Entry],
    summary: RowSummary,
    col_rows: &[Vec<usize>],
    threshold: f64,
) -> Option<RowBest> {
    if summary.max == 0.0 {
        return None;
    }
    let floor = threshold * summary.max;
    // `usize::MAX` marks "no candidate yet": every real count is smaller,
    // so the first candidate beats it.
    let none = Candidate { mark: usize::MAX, col: 0, mag: 0.0 };
    let (mut best, mut non_nan_best) = (none, none);
    for e in row {
        if e.mag < floor || e.mag == 0.0 {
            continue;
        }
        let cand = Candidate {
            mark: (summary.nnz - 1) * col_rows[e.col].len().saturating_sub(1),
            col: e.col,
            mag: e.mag,
        };
        if cand.beats(best) {
            best = cand;
        }
        if !cand.mag.is_nan() && cand.beats(non_nan_best) {
            non_nan_best = cand;
        }
    }
    (best.mark != usize::MAX)
        .then(|| RowBest { best, tie: (non_nan_best.mark == best.mark).then_some(non_nan_best) })
}

/// A row's key for the pivot search's first pass: its Markowitz count
/// clamped to `u32::MAX − 1`, or `u32::MAX` without a candidate. Narrow
/// keys let the minimum over all rows vectorize; a count too large for
/// one only clamps, and the second pass compares the exact counts.
fn mark_of(best: &Option<RowBest>) -> u32 {
    best.map_or(u32::MAX, |b| u32::try_from(b.best.mark).unwrap_or(u32::MAX - 1).min(u32::MAX - 1))
}

/// Markowitz pivot selection over the cached row bests: exactly the
/// candidate a row-major scan of every active entry would pick.
///
/// Only rows at the minimum count can matter — the first of them
/// displaces any earlier pick, and a later one competes on magnitude at
/// the same count — so a first pass takes the minimum of `marks` (see
/// [`mark_of`]), and the second runs the row-major rule over the rows
/// holding it, on their exact counts.
fn select_markowitz(bests: &[Option<RowBest>], marks: &[u32]) -> Option<(usize, usize)> {
    let min = marks.iter().fold(u32::MAX, |m, &k| m.min(k));
    if min == u32::MAX {
        return None;
    }
    let mut pick: Option<(usize, Candidate)> = None;
    for (r, _) in marks.iter().enumerate().filter(|&(_, &k)| k == min) {
        let rb = bests[r].expect("a row with a key has a best");
        pick = match pick {
            Some((_, p)) if rb.best.mark > p.mark => pick,
            Some((_, p)) if rb.best.mark == p.mark => match rb.tie {
                Some(t) if t.beats(p) => Some((r, t)),
                _ => pick,
            },
            _ => Some((r, rb.best)),
        };
    }
    pick.map(|(r, c)| (r, c.col))
}

/// The Markowitz elimination's working state, reused across calls on one
/// thread. Only the first `n` rows and column lists of the current call
/// are live; [`Workspace::reset`] clears them at entry, so nothing from an
/// earlier call — finished or exited early — reaches the next one.
#[derive(Default)]
struct Workspace {
    /// Active rows, column-sorted, duplicates merged, and their summaries.
    rows: Vec<Vec<Entry>>,
    summaries: Vec<RowSummary>,
    /// `col_rows[c]`: the active rows holding a (possibly zero) entry in
    /// column `c` — so `col_rows[c].len()` is the column count.
    col_rows: Vec<Vec<usize>>,
    /// Each active row's cached best candidate (Markowitz strategy only),
    /// and its pivot-search key ([`mark_of`]).
    bests: Vec<Option<RowBest>>,
    marks: Vec<u32>,
    /// The rows a step must rescan: `dirty` flags them, `dirty_rows`
    /// lists them.
    dirty: Vec<bool>,
    dirty_rows: Vec<usize>,
    /// Merge buffer: the updated target row, swapped in place of the old.
    merged: Vec<Entry>,
    /// The detached pivot row of the current step.
    prow: Vec<Entry>,
    /// The elimination targets of the current step.
    targets: Vec<usize>,
}

impl Workspace {
    fn reset(&mut self, n: usize) {
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
            self.col_rows.resize_with(n, Vec::new);
        }
        self.rows[..n].iter_mut().for_each(Vec::clear);
        self.col_rows[..n].iter_mut().for_each(Vec::clear);
        self.summaries.clear();
        self.bests.clear();
        self.marks.clear();
        self.dirty.clear();
        self.dirty.resize(n, false);
        self.dirty_rows.clear();
        self.merged.clear();
        self.prow.clear();
        self.targets.clear();
    }
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::default();
}

fn factor_impl(a: &Triplets, strategy: PivotStrategy) -> Result<SparseLu, FactorError> {
    WORKSPACE.with(|ws| eliminate(a, &strategy, &mut ws.borrow_mut()))
}

fn eliminate(
    a: &Triplets,
    strategy: &PivotStrategy,
    ws: &mut Workspace,
) -> Result<SparseLu, FactorError> {
    let n = a.dim();
    ws.reset(n);
    let Workspace {
        rows,
        summaries,
        col_rows,
        bests,
        marks,
        dirty,
        dirty_rows,
        merged,
        prow,
        targets,
    } = ws;
    let (rows, col_rows) = (&mut rows[..n], &mut col_rows[..n]);
    // Column-sorted rows, duplicates summed in insertion order (the sort
    // is stable) onto a zero start: `ZERO + v` turns a `-0.0` component
    // into `+0.0`, as accumulating into a fresh zero entry does.
    for &(r, c, v) in a.entries() {
        rows[r].push(Entry { col: c, val: Complex::ZERO + v, mag: 0.0 });
    }
    for row in rows.iter_mut() {
        row.sort_by_key(|e| e.col);
        merge_sorted_duplicates(row);
    }
    for (r, row) in rows.iter().enumerate() {
        for e in row {
            col_rows[e.col].push(r);
        }
    }
    let threshold = match strategy {
        PivotStrategy::Markowitz { threshold } => Some(*threshold),
        PivotStrategy::Fixed(_) => None,
    };
    summaries.extend(rows.iter().map(|row| RowSummary::of(row)));
    if let Some(u) = threshold {
        bests.extend(
            rows.iter().zip(&*summaries).map(|(row, &sum)| row_best(row, sum, col_rows, u)),
        );
        marks.extend(bests.iter().map(mark_of));
    }

    let mut order_rows = Vec::with_capacity(n);
    let mut order_cols = Vec::with_capacity(n);
    let mut starts = Vec::with_capacity(n + 1);
    let mut lents = Vec::new();
    let mut uents: Vec<(usize, Complex)> = Vec::new();
    let mut pivots = Vec::with_capacity(n);
    let mut det_mag = ExtProduct::ONE;
    let mut skipped_zero = false;
    let initial_nnz: usize = rows.iter().map(|r| r.len()).sum();

    for step in 0..n {
        let (pr, pc) = match strategy {
            PivotStrategy::Markowitz { .. } => {
                select_markowitz(bests, marks).ok_or(FactorError::Singular { step })?
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
        prow.clear();
        std::mem::swap(prow, &mut rows[pr]);
        for e in prow.iter() {
            let list = &mut col_rows[e.col];
            let at = list.iter().position(|&r| r == pr).expect("pivot row listed in its columns");
            list.swap_remove(at);
        }
        let ustart = uents.len();
        starts.push((lents.len(), ustart));
        uents.extend(prow.iter().filter(|e| e.col != pc).map(|e| (e.col, e.val)));
        let urow = &uents[ustart..];

        // Eliminate column pc from the remaining rows, in ascending order.
        targets.clear();
        std::mem::swap(targets, &mut col_rows[pc]);
        targets.sort_unstable();
        for &r2 in targets.iter() {
            let row2 = &mut rows[r2];
            let Ok(pos) = row2.binary_search_by_key(&pc, |e| e.col) else { continue };
            let a_rc = row2.remove(pos).val;
            if a_rc == Complex::ZERO {
                skipped_zero = true;
                continue;
            }
            let l = a_rc / pivot;
            lents.push((r2, l));
            // Merge `row2 − l·urow` (both sorted by column) into `merged`,
            // summarizing it on the way.
            merged.clear();
            let mut summary = RowSummary::default();
            let mut push = |e: Entry| {
                summary.add(&e);
                merged.push(e);
            };
            let mut i = 0;
            for &(c, v) in urow {
                while i < row2.len() && row2[i].col < c {
                    push(row2[i]);
                    i += 1;
                }
                let delta = l * v;
                if i < row2.len() && row2[i].col == c {
                    let mut val = row2[i].val;
                    val -= delta;
                    push(Entry::new(c, val));
                    i += 1;
                } else {
                    push(Entry::new(c, -delta));
                    col_rows[c].push(r2);
                }
            }
            row2[i..].iter().for_each(|&e| push(e));
            std::mem::swap(row2, merged);
            summaries[r2] = summary;
        }

        // Only rows whose entries or column counts moved need a new best:
        // the targets, and every row listed under a pivot-row column.
        if let Some(u) = threshold {
            (bests[pr], marks[pr]) = (None, u32::MAX);
            for &r in targets.iter().chain(prow.iter().flat_map(|e| &col_rows[e.col])) {
                if !std::mem::replace(&mut dirty[r], true) {
                    dirty_rows.push(r);
                }
            }
            for r in dirty_rows.drain(..) {
                dirty[r] = false;
                bests[r] = row_best(&rows[r], summaries[r], col_rows, u);
                marks[r] = mark_of(&bests[r]);
            }
        }
    }
    starts.push((lents.len(), uents.len()));

    let order = PivotOrder { rows: order_rows, cols: order_cols };
    let det = det_mag.value() * Complex::real(order.sign());
    let final_nnz = uents.len() + n + lents.len();
    Ok(SparseLu {
        n,
        order,
        starts,
        lents,
        uents,
        pivots,
        det,
        fill_in: final_nnz.saturating_sub(initial_nnz),
        skipped_zero,
    })
}

/// In-place accumulation of duplicate columns in a sorted row, then each
/// merged entry's magnitude.
fn merge_sorted_duplicates(row: &mut Vec<Entry>) {
    let mut w = 0usize;
    for i in 0..row.len() {
        let e = row[i];
        if w > 0 && row[w - 1].col == e.col {
            row[w - 1].val += e.val;
        } else {
            row[w] = e;
            w += 1;
        }
    }
    row.truncate(w);
    for e in row.iter_mut() {
        e.mag = e.val.abs();
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FactorProgram, ProgramScratch};

    fn bits(z: Complex) -> [u64; 2] {
        [z.re.to_bits(), z.im.to_bits()]
    }

    fn det_bits(d: ExtComplex) -> ([u64; 2], i64) {
        (bits(d.mantissa()), d.exponent())
    }

    fn tri(dim: usize, entries: &[(usize, usize, f64)]) -> Triplets {
        let mut t = Triplets::new(dim);
        for &(r, c, v) in entries {
            t.add(r, c, Complex::real(v));
        }
        t
    }

    #[test]
    fn solve_small_system() {
        let a = tri(
            3,
            &[
                (0, 0, 4.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        );
        let lu = SparseLu::factor(&a).unwrap();
        let x_true = vec![Complex::real(1.0), Complex::real(-2.0), Complex::real(0.5)];
        let b = a.to_dense().mul_vec(&x_true);
        let x = lu.solve(&b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((*got - *want).abs() < 1e-12);
        }
    }

    #[test]
    fn det_matches_dense() {
        let a = tri(
            4,
            &[
                (0, 0, 2.0),
                (0, 3, 1.0),
                (1, 1, -1.0),
                (1, 2, 0.5),
                (2, 0, 3.0),
                (2, 2, 4.0),
                (3, 1, 1.0),
                (3, 3, -2.0),
            ],
        );
        let lu = SparseLu::factor(&a).unwrap();
        let dense = a.to_dense().det();
        let diff = (lu.det() - dense).norm();
        assert!((diff / dense.norm()).to_f64() < 1e-12, "{} vs {}", lu.det(), dense);
    }

    #[test]
    fn det_sign_permutation() {
        // Anti-diagonal identity: det = sign of reversal permutation.
        for n in 2..7 {
            let mut t = Triplets::new(n);
            for i in 0..n {
                t.add(i, n - 1 - i, Complex::ONE);
            }
            let lu = SparseLu::factor(&t).unwrap();
            let expect = if (n * (n - 1) / 2) % 2 == 0 { 1.0 } else { -1.0 };
            assert!(
                (lu.det().to_complex() - Complex::real(expect)).abs() < 1e-12,
                "n={n}: {}",
                lu.det()
            );
        }
    }

    #[test]
    fn singular_detected() {
        let a = tri(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)]);
        match SparseLu::factor(&a) {
            Err(FactorError::Singular { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
        // Structurally singular: empty row.
        let b = tri(2, &[(0, 0, 1.0)]);
        assert!(matches!(SparseLu::factor(&b), Err(FactorError::Singular { .. })));
    }

    #[test]
    fn complex_entries() {
        let mut t = Triplets::new(2);
        t.add(0, 0, Complex::new(0.0, 1.0));
        t.add(0, 1, Complex::real(1.0));
        t.add(1, 0, Complex::real(1.0));
        t.add(1, 1, Complex::new(0.0, -1.0));
        // det = (j)(-j) - 1 = 1 - 1 = 0 → singular
        assert!(SparseLu::factor(&t).is_err());
        // Perturb to make it regular.
        t.add(1, 1, Complex::real(0.5));
        let lu = SparseLu::factor(&t).unwrap();
        let dense = t.to_dense().det();
        assert!(((lu.det() - dense).norm() / dense.norm()).to_f64() < 1e-12);
    }

    #[test]
    fn refactor_same_values_matches() {
        let a = tri(
            3,
            &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (1, 0, 1.0), (2, 2, 5.0), (2, 1, -1.0)],
        );
        let lu = SparseLu::factor(&a).unwrap();
        let re = SparseLu::refactor(&a, lu.order()).unwrap();
        assert!(((lu.det() - re.det()).norm()).to_f64() < 1e-12);
        let b = vec![Complex::ONE; 3];
        let x1 = lu.solve(&b);
        let x2 = re.solve(&b);
        for (p, q) in x1.iter().zip(&x2) {
            assert!((*p - *q).abs() < 1e-13);
        }
    }

    #[test]
    fn refactor_new_values_same_pattern() {
        let mut a = Triplets::new(2);
        a.add(0, 0, Complex::real(1.0));
        a.add(1, 1, Complex::real(1.0));
        a.add(0, 1, Complex::real(0.25));
        let lu = SparseLu::factor(&a).unwrap();
        // New values, same pattern.
        let mut b = Triplets::new(2);
        b.add(0, 0, Complex::real(3.0));
        b.add(1, 1, Complex::real(-2.0));
        b.add(0, 1, Complex::real(1.0));
        let re = SparseLu::refactor(&b, lu.order()).unwrap();
        assert!((re.det().to_complex() - Complex::real(-6.0)).abs() < 1e-12);
    }

    #[test]
    fn refactor_dimension_mismatch() {
        let a = tri(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let lu = SparseLu::factor(&a).unwrap();
        let b = tri(3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        assert!(matches!(
            SparseLu::refactor(&b, lu.order()),
            Err(FactorError::OrderMismatch { expected: 2, actual: 3 })
        ));
    }

    #[test]
    fn extreme_scale_determinant() {
        // Diagonal with huge spread: det = 1e-100·1e100·1e-200 = 1e-200…
        // then another 1e-200 → product 1e-400, beyond f64.
        let mut t = Triplets::new(4);
        for (i, &v) in [1e-100, 1e100, 1e-200, 1e-200].iter().enumerate() {
            t.add(i, i, Complex::real(v));
        }
        let lu = SparseLu::factor(&t).unwrap();
        assert!((lu.det().norm().log10() + 400.0).abs() < 1e-9);
    }

    #[test]
    fn markowitz_prefers_sparse_pivot() {
        // An arrow matrix: dense first row/col. Markowitz should not pick
        // the (0,0) corner first (that fills everything); after factoring,
        // fill-in must stay small.
        let n = 12;
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, Complex::real(2.0));
        }
        for i in 1..n {
            t.add(0, i, Complex::real(1.0));
            t.add(i, 0, Complex::real(1.0));
        }
        let lu = SparseLu::factor(&t).unwrap();
        assert!(lu.fill_in() <= 2, "fill-in {}", lu.fill_in());
        // Compare determinant with the dense oracle.
        let dense = t.to_dense().det();
        assert!(((lu.det() - dense).norm() / dense.norm()).to_f64() < 1e-12);
    }

    /// The compiled replay of a recorded order reproduces the prescribed-
    /// order reference [`SparseLu::refactor`] bit for bit: determinant and
    /// solve vector.
    #[test]
    fn program_replay_matches_refactor_bits() {
        let a = tri(
            4,
            &[
                (0, 0, 2.0),
                (0, 3, 1.0),
                (1, 1, -1.0),
                (1, 2, 0.5),
                (2, 0, 3.0),
                (2, 2, 4.0),
                (3, 1, 1.0),
                (3, 3, -2.0),
            ],
        );
        let order = SparseLu::factor(&a).unwrap().order().clone();
        let reference = SparseLu::refactor(&a, &order).unwrap();
        let program = FactorProgram::for_triplets(&a, &order).unwrap();
        let mut scratch = ProgramScratch::new();
        program.refactor(&a, &mut scratch).unwrap();
        assert_eq!(det_bits(scratch.det()), det_bits(reference.det()));
        let b = vec![Complex::real(1.0), Complex::real(-2.0), Complex::real(0.5), Complex::ONE];
        let mut x = Vec::new();
        program.solve_into(&mut scratch, &b, &mut x);
        let want: Vec<_> = reference.solve(&b).into_iter().map(bits).collect();
        assert_eq!(x.into_iter().map(bits).collect::<Vec<_>>(), want);
    }

    /// A prescribed pivot zeroed at new values: the reference reports
    /// `Singular` at that pivot's step, and the compiled replay dies at the
    /// same step.
    #[test]
    fn zeroed_pivot_is_singular_at_its_step_in_both_paths() {
        let a = tri(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]);
        let order = SparseLu::factor(&a).unwrap().order().clone();
        let (pr, pc) = (order.rows()[0], order.cols()[0]);
        let mut zeroed = Triplets::new(2);
        for &(r, c, v) in a.entries() {
            zeroed.add(r, c, if (r, c) == (pr, pc) { Complex::ZERO } else { v });
        }
        let want = SparseLu::refactor(&zeroed, &order).unwrap_err();
        assert_eq!(want, FactorError::Singular { step: 0 });
        let program = FactorProgram::for_triplets(&a, &order).unwrap();
        assert_eq!(program.refactor(&zeroed, &mut ProgramScratch::new()), Err(want));
    }

    /// A stored exact zero in a later pivot column: the first step pivots
    /// on (2,2) and meets row 1's zero at (1,2), which the numeric
    /// elimination skips (no multiplier, no fill) while the compiled
    /// program merges the pivot row into row 1 and creates (1,1). The
    /// factorization must refuse to certify its fill.
    #[test]
    fn skipped_exact_zero_voids_structural_fill() {
        let a =
            tri(3, &[(0, 0, 2.0), (0, 1, 4.0), (1, 0, 1.0), (1, 2, 0.0), (2, 1, 0.0), (2, 2, 2.0)]);
        let lu = SparseLu::factor(&a).unwrap();
        assert_eq!((lu.order().rows()[0], lu.order().cols()[0]), (2, 2));
        let program = FactorProgram::for_triplets(&a, lu.order()).unwrap();
        assert_eq!((lu.fill_in(), program.fill_in()), (0, 1));
        assert_eq!(lu.structural_fill(), None);
        // Without the stored zero nothing is skipped, and the fill agrees.
        let b = tri(3, &[(0, 0, 2.0), (0, 1, 4.0), (1, 0, 1.0), (2, 2, 2.0)]);
        let lu = SparseLu::factor(&b).unwrap();
        let program = FactorProgram::for_triplets(&b, lu.order()).unwrap();
        assert_eq!(lu.structural_fill(), Some(program.fill_in()));
    }

    #[test]
    fn permutation_sign_helper() {
        assert_eq!(permutation_sign(&[0, 1, 2]), 1.0);
        assert_eq!(permutation_sign(&[1, 0, 2]), -1.0);
        assert_eq!(permutation_sign(&[1, 2, 0]), 1.0);
        assert_eq!(permutation_sign(&[]), 1.0);
    }

    #[test]
    fn dim_zero_matrix() {
        let t = Triplets::new(0);
        let lu = SparseLu::factor(&t).unwrap();
        assert_eq!(lu.det().to_complex(), Complex::ONE);
        assert!(lu.solve(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn solve_wrong_length_panics() {
        let t = tri(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        SparseLu::factor(&t).unwrap().solve(&[Complex::ONE]);
    }
}
