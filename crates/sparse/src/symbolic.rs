//! Compiled symbolic LU kernels: do the structural work once, replay it as
//! a flat instruction stream at every numeric point.
//!
//! Replaying a recorded [`PivotOrder`] element by element
//! ([`SparseLu::refactor`](crate::SparseLu::refactor)) skips the pivot
//! *search*, but still pays a per-point *structural* tax: triplet scatter
//! into per-row vectors, a sort per row, a binary search for every pivot
//! and a sorted-row merge for every update — even though the fill pattern
//! is identical at every point of a sweep.
//! A [`FactorProgram`] hoists all of that to compile time (the
//! Sparse-1.3/KLU split classic circuit simulators use for exactly this
//! workload):
//!
//! 1. **Symbolic factorization** — elimination is simulated on the
//!    sparsity pattern alone, computing the complete fill-in pattern of
//!    `L + U` ahead of time.
//! 2. **Slot layout** — every entry of the filled pattern gets one index
//!    ("slot") in a flat value array; a precomputed *stamp map* sends each
//!    raw input entry directly to its slot.
//! 3. **Instruction stream** — the elimination is encoded as flat arrays
//!    of precomputed slot indices: one pivot slot per step, one `(row,
//!    slot)` pair per multiplier, one `(dest, src)` pair per update.
//!
//! Numeric refactorization ([`FactorProgram::refactor`] /
//! [`FactorProgram::refactor_values`]) is then *scatter-then-replay* into
//! a reusable [`ProgramScratch`]: **zero sorting, zero searching, zero
//! insertion, zero allocation** in the steady state — a branch-free
//! linear pass over the instruction stream. See the
//! [crate docs](crate) for the phase diagram relating the three phases.
//!
//! # Batched kernel tiers
//!
//! The batched entry point ([`FactorProgram::eval_points`]) evaluates one
//! affine matrix `K₀ + σ·K₁` at many points. It pads its lanes to blocks
//! of eight, stores each slot of a block as eight real parts, then eight
//! imaginary parts (§[`BatchScratch`]), and takes each block through one
//! fused pass before the next: stamp, replay, sign fold and, given a
//! right-hand side, solve. Every pass runs on one instruction-set tier
//! detected once per process: AVX-512F if the CPU has it, else AVX, else
//! the scalar loops. One kernel body serves every tier; only the
//! registers that hold a block's plane of eight real (or imaginary) parts
//! differ:
//!
//! | tier | one plane of a block | mask of a comparison |
//! |---|---|---|
//! | AVX-512F | one 512-bit register | `__mmask8` |
//! | AVX | two 256-bit registers | two compare results |
//! | scalar | `[f64; 8]`, loops over the lanes | `[bool; 8]` |
//!
//! Each kernel step is one IEEE operation per lane, applied in the order
//! of the one-lane replay's scalar `Complex` arithmetic — never an FMA —
//! so every tier's live lanes are bit for bit the scalar ones:
//!
//! | kernel | per block |
//! |---|---|
//! | stamp `K₀ + σ·K₁` | per raw entry, `σ·k1` (four multiplies, two sums), `+ k0`, then `+=` into the slot |
//! | pivot capture and determinant fold | per step: a lane with an exact-zero pivot dies; in the easy range the [`ExtComplex`] normalization is a power-of-two scale built from the exponent bits, vectorized; any other live lane reruns the one-lane sequence |
//! | elimination `l = a / pivot`, `dest −= l·src` | Smith's divisor terms (the arm mask `\|re\| ≥ \|im\|`, false on NaN like the scalar `>=`, the ratio and the denominator) once per step; per multiplier both arms' numerators, selected, then two divides; per op four multiplies and four adds or subtracts per plane |
//! | forward step `work −= vals·y` | the product and subtract, then the old `work` kept in each lane whose `y` is exactly zero, as the one-lane solve skips it; a step whose eight `y` are zero is skipped |
//! | back step `acc −= vals·x`, `x = acc / pivot` | the product and subtract in U-row order, then Smith's division |
//!
//! Padded lanes sit at `σ = 0`: they replay `K₀`, take a zero right-hand
//! side and are never read. The one-lane replay
//! ([`FactorProgram::refactor_values`], [`FactorProgram::solve_into`]) is
//! scalar on every tier.
//!
//! # Example
//!
//! ```
//! use refgen_numeric::Complex;
//! use refgen_sparse::{FactorProgram, ProgramScratch, SparseLu, Triplets};
//!
//! # fn main() -> Result<(), refgen_sparse::FactorError> {
//! let mut a = Triplets::new(2);
//! a.add(0, 0, Complex::real(2.0));
//! a.add(0, 1, Complex::real(1.0));
//! a.add(1, 0, Complex::real(1.0));
//! a.add(1, 1, Complex::real(3.0));
//! let order = SparseLu::factor(&a)?.order().clone(); // pivot search, once
//! let program = FactorProgram::for_triplets(&a, &order)?; // symbolic, once
//!
//! let mut scratch = ProgramScratch::new();
//! let mut x = Vec::new();
//! program.refactor(&a, &mut scratch)?; // flat replay: no sort/search/insert
//! program.solve_into(&mut scratch, &[Complex::real(3.0), Complex::real(4.0)], &mut x);
//! assert!((x[0] - Complex::real(1.0)).abs() < 1e-12);
//! assert!((scratch.det().to_complex() - Complex::real(5.0)).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

use crate::lu::{FactorError, PivotOrder};
use crate::triplets::Triplets;
use refgen_numeric::stats::max_keeping_nan;
use refgen_numeric::{Complex, ExtComplex, ExtProduct};
use std::cell::RefCell;
use std::ops::{AddAssign, Div, Mul, SubAssign};

pub use batch::BatchScratch;

/// An element type a [`FactorProgram`] replays and solves in: [`Complex`]
/// for the frequency-domain samplers, `f64` for a real matrix such as the
/// transient companion matrix `K₀ + γ·K₁`. One elimination loop and one
/// solve loop serve both.
///
/// On complex values whose imaginary parts are all zero, the real part of
/// each complex operation the program performs (multiply, subtract, Smith
/// division) is the `f64` operation on the real parts, so a real replay
/// reproduces the real part of the complex one. The one possible
/// difference is the sign of an exact zero.
pub trait Scalar:
    Copy + Default + PartialEq + AddAssign + SubAssign + Mul<Output = Self> + Div<Output = Self>
{
    /// The additive identity.
    const ZERO: Self;

    /// The value as a complex number (determinants are complex).
    fn to_complex(self) -> Complex;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;

    fn to_complex(self) -> Complex {
        Complex::real(self)
    }
}

impl Scalar for Complex {
    const ZERO: Complex = Complex::ZERO;

    fn to_complex(self) -> Complex {
        self
    }
}

/// One multiplier of the elimination: the entry at `slot` (original
/// position `(row, pivot column)`) is divided by the pivot and then drives
/// the updates in `ops[ops_start..ops_end]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LEntry {
    /// Original row index the multiplier eliminates (needed by the solve's
    /// forward pass).
    row: u32,
    /// Slot holding `a_{row,pc}` before, and the multiplier `l` after.
    slot: u32,
    /// First update op of this multiplier.
    ops_start: u32,
    /// One past the last update op of this multiplier.
    ops_end: u32,
}

/// One precomputed update: `vals[dest] -= l · vals[src]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Op {
    dest: u32,
    src: u32,
}

/// A compiled symbolic factorization of one `(sparsity pattern,
/// [`PivotOrder`])` pair. See the [module docs](self).
///
/// The program is immutable and `Sync`: a parallel executor shares one
/// program across workers, each owning a [`ProgramScratch`]. Compilation is
/// **value-independent** — any matrix with the same raw entry positions
/// (in the same input order) replays the same program, which is what lets
/// a Monte-Carlo fleet of same-topology variants compile once.
///
/// Two programs are equal when every field is: the same compile of the
/// same `(dim, positions, order)` gives equal programs.
#[derive(Clone, Debug, PartialEq)]
pub struct FactorProgram {
    n: usize,
    slots: usize,
    /// The raw input positions the program was compiled for, in input
    /// order (debug validation of [`FactorProgram::refactor`] callers).
    positions: Vec<(u32, u32)>,
    /// Stamp map: raw input entry `i` accumulates into `vals[scatter[i]]`.
    scatter: Vec<u32>,
    /// Slot of the pivot entry, per elimination step.
    pivot_slots: Vec<u32>,
    /// Pivot row (original index) per step.
    pivot_rows: Vec<u32>,
    /// Pivot column (original index) per step.
    pivot_cols: Vec<u32>,
    /// Range into `lents` per step.
    lranges: Vec<(u32, u32)>,
    lents: Vec<LEntry>,
    ops: Vec<Op>,
    /// Range into `uents` per step: the pivot-free U row.
    uranges: Vec<(u32, u32)>,
    /// `(original column, slot)` per stored U entry, pivot excluded.
    uents: Vec<(u32, u32)>,
    fill_in: usize,
    sign: f64,
}

impl FactorProgram {
    /// Compiles the program for the pattern given by `positions` (raw
    /// `(row, col)` entry positions, duplicates allowed — they accumulate
    /// into one slot) under `order`.
    ///
    /// Slot numbering is part of the program: each distinct position takes
    /// the next slot at its first occurrence in `positions`, then each
    /// fill-in entry takes the next slot in the order elimination creates
    /// it.
    ///
    /// The symbolic elimination runs on a per-thread workspace (position
    /// grouping, per-row `(col, slot)` lists, column lists, active flags
    /// and merge buffers) that is reset at every call and keeps the
    /// capacity of the largest compile seen on that thread, so a compile
    /// allocates only the program it returns.
    ///
    /// The compile stops once the program outgrows a budget set by the
    /// pattern's size: `4·dim·nnz` update ops and `32·nnz` slots (at
    /// least 2²⁰ and 2¹⁶), `nnz` being `positions.len()`, so an order
    /// that fills the pattern catastrophically ends in a typed error
    /// instead of exhausting memory.
    ///
    /// # Errors
    ///
    /// [`FactorError::OrderMismatch`] when `order` is for a different
    /// dimension, [`FactorError::Singular`] when a prescribed pivot
    /// position is **structurally** absent from the filled pattern (every
    /// numeric replay would fail at that step regardless of values), and
    /// [`FactorError::TooLarge`] when the program would pass its budget.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range for `dim`.
    pub fn compile(
        dim: usize,
        positions: &[(usize, usize)],
        order: &PivotOrder,
    ) -> Result<FactorProgram, FactorError> {
        Self::compile_within(
            dim,
            positions,
            order,
            CompileBudget::for_pattern(dim, positions.len()),
        )
    }

    /// [`FactorProgram::compile`] under an explicit budget.
    pub(crate) fn compile_within(
        dim: usize,
        positions: &[(usize, usize)],
        order: &PivotOrder,
        budget: CompileBudget,
    ) -> Result<FactorProgram, FactorError> {
        if order.dim() != dim {
            return Err(FactorError::OrderMismatch { expected: order.dim(), actual: dim });
        }
        for &(r, c) in positions {
            assert!(r < dim && c < dim, "position ({r},{c}) out of range for dim {dim}");
        }
        COMPILE_WORKSPACE.with(|ws| compile_on(dim, positions, order, budget, &mut ws.borrow_mut()))
    }

    /// Compiles the program for `a`'s raw entry positions (in entry order,
    /// so [`FactorProgram::refactor`] accepts any same-pattern matrix).
    ///
    /// # Errors
    ///
    /// See [`FactorProgram::compile`].
    pub fn for_triplets(a: &Triplets, order: &PivotOrder) -> Result<FactorProgram, FactorError> {
        let positions: Vec<(usize, usize)> = a.entries().iter().map(|&(r, c, _)| (r, c)).collect();
        Self::compile(a.dim(), &positions, order)
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of value slots (nonzeros of `L + U`, fill-in included).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Fill-in entries the elimination creates (precomputed, so numeric
    /// replay never inserts).
    pub fn fill_in(&self) -> usize {
        self.fill_in
    }

    /// Total update instructions in the stream — the inner-loop work of
    /// one numeric replay.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Multipliers the elimination computes (L-entries) — one division
    /// each per numeric replay.
    pub fn multiplier_count(&self) -> usize {
        self.lents.len()
    }

    /// Bytes the program holds: its own size plus the capacity of every
    /// array it owns.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        std::mem::size_of::<Self>()
            + bytes(&self.positions)
            + bytes(&self.scatter)
            + bytes(&self.pivot_slots)
            + bytes(&self.pivot_rows)
            + bytes(&self.pivot_cols)
            + bytes(&self.lranges)
            + bytes(&self.lents)
            + bytes(&self.ops)
            + bytes(&self.uranges)
            + bytes(&self.uents)
    }

    /// Raw input entries the compiled stamp map expects per replay (the
    /// exact item count [`FactorProgram::refactor_values`] requires, and
    /// the length of [`FactorProgram::eval_points`]' coefficient slices).
    pub fn raw_entries(&self) -> usize {
        self.scatter.len()
    }

    /// Numeric refactorization of `a` (same positions the program was
    /// compiled for, values free to differ): scatter every raw entry
    /// through the stamp map, then replay the instruction stream.
    ///
    /// # Errors
    ///
    /// [`FactorError::Singular`] when a prescribed pivot is exactly zero
    /// at this matrix's values (the caller falls back to a fresh
    /// [`SparseLu::factor`](crate::SparseLu::factor); the prescribed-order
    /// reference [`SparseLu::refactor`](crate::SparseLu::refactor) fails at
    /// the same step).
    ///
    /// # Panics
    ///
    /// Panics if `a`'s dimension or raw entry count differs from the
    /// compiled pattern (debug builds additionally verify every position).
    pub fn refactor(&self, a: &Triplets, scratch: &mut ProgramScratch) -> Result<(), FactorError> {
        assert_eq!(a.dim(), self.n, "matrix dimension differs from compiled pattern");
        assert_eq!(
            a.raw_len(),
            self.scatter.len(),
            "raw entry count differs from compiled pattern"
        );
        debug_assert!(
            a.entries()
                .iter()
                .zip(&self.positions)
                .all(|(&(r, c, _), &(pr, pc))| r == pr as usize && c == pc as usize),
            "entry positions differ from compiled pattern"
        );
        self.refactor_values(a.entries().iter().map(|&(_, _, v)| v), scratch)
    }

    /// As [`FactorProgram::refactor`], with the values supplied directly in
    /// compiled-position order — the zero-copy path sweep plans use to
    /// stamp `K₀ + s·K₁` straight into the slot array without assembling a
    /// [`Triplets`] at all. The values may be of either [`Scalar`] type;
    /// the replay runs in that type (a real replay's determinant is real).
    ///
    /// # Errors
    ///
    /// See [`FactorProgram::refactor`].
    ///
    /// # Panics
    ///
    /// Panics if `values` yields a different number of items than the
    /// compiled pattern has raw entries.
    pub fn refactor_values<T, I>(
        &self,
        values: I,
        scratch: &mut ProgramScratch<T>,
    ) -> Result<(), FactorError>
    where
        T: Scalar,
        I: IntoIterator<Item = T>,
    {
        self.scatter_values(values, scratch);
        self.replay(scratch)
    }

    /// As [`FactorProgram::refactor_values`], returning the replay's
    /// **element growth**: the largest magnitude among U's entries, pivots
    /// included, over the largest magnitude among A's. Wilkinson's
    /// backward-error bound for LU is proportional to this factor, so it
    /// certifies whether an order recorded on one matrix stays stable on
    /// another of the same pattern. One extra pass over the slots before
    /// and after the replay; the factorization left in `scratch` is the
    /// one [`FactorProgram::refactor_values`] leaves.
    ///
    /// # Errors
    ///
    /// See [`FactorProgram::refactor`].
    ///
    /// # Panics
    ///
    /// See [`FactorProgram::refactor_values`].
    pub fn refactor_growth<I>(
        &self,
        values: I,
        scratch: &mut ProgramScratch,
    ) -> Result<f64, FactorError>
    where
        I: IntoIterator<Item = Complex>,
    {
        self.scatter_values(values, scratch);
        // A NaN magnitude propagates (`f64::max` would drop it), so a
        // non-finite factorization never reads as a small growth.
        let max = |m: f64, v: Complex| max_keeping_nan(m, v.abs());
        let max_a = scratch.vals.iter().fold(0.0, |m, &v| max(m, v));
        self.replay(scratch)?;
        let u_slots = self.pivot_slots.iter().chain(self.uents.iter().map(|(_, slot)| slot));
        let max_u = u_slots.fold(0.0, |m, &slot| max(m, scratch.vals[slot as usize]));
        Ok(max_u / max_a)
    }

    /// Clears `scratch` and scatters one value per raw entry through the
    /// stamp map.
    fn scatter_values<T, I>(&self, values: I, scratch: &mut ProgramScratch<T>)
    where
        T: Scalar,
        I: IntoIterator<Item = T>,
    {
        scratch.begin(self);
        let mut count = 0usize;
        for v in values {
            // Indexing `scatter[count]` (rather than zipping, which would
            // silently truncate) makes a too-long iterator panic just like
            // a too-short one.
            scratch.vals[self.scatter[count] as usize] += v;
            count += 1;
        }
        assert_eq!(count, self.scatter.len(), "value count differs from compiled pattern");
    }

    /// The branch-free elimination replay.
    fn replay<T: Scalar>(&self, scratch: &mut ProgramScratch<T>) -> Result<(), FactorError> {
        let vals = &mut scratch.vals;
        // Deferred-normalization fold: bit-identical to
        // `det *= ExtComplex::from_complex(pivot)` per pivot, without the
        // per-factor exponent extraction (see `ExtProduct`).
        let mut det = ExtProduct::ONE;
        for step in 0..self.n {
            let pivot = vals[self.pivot_slots[step] as usize];
            if pivot == T::ZERO {
                return Err(FactorError::Singular { step });
            }
            det.mul_complex(pivot.to_complex());
            let (ls, le) = self.lranges[step];
            for ent in &self.lents[ls as usize..le as usize] {
                let l = vals[ent.slot as usize] / pivot;
                vals[ent.slot as usize] = l;
                for op in &self.ops[ent.ops_start as usize..ent.ops_end as usize] {
                    let d = l * vals[op.src as usize];
                    vals[op.dest as usize] -= d;
                }
            }
        }
        scratch.det = det.value() * Complex::real(self.sign);
        scratch.factored = true;
        Ok(())
    }

    /// Solves `A·x = b` with the factorization last replayed into
    /// `scratch`, writing into `x` (cleared and refilled; both `x` and the
    /// internal forward-elimination buffer retain their allocations), in
    /// the scratch's element type. The back substitution runs over the
    /// precompiled pivot-free U entries — no per-entry pivot test.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` holds no successful replay of this program or
    /// `b.len()` differs from the dimension.
    pub fn solve_into<T: Scalar>(&self, scratch: &mut ProgramScratch<T>, b: &[T], x: &mut Vec<T>) {
        assert!(scratch.factored, "scratch holds no factorization");
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        scratch.work.clear();
        scratch.work.extend_from_slice(b);
        // Forward elimination replay: y[k] lives at work[pivot_rows[k]].
        for step in 0..self.n {
            let t = scratch.work[self.pivot_rows[step] as usize];
            if t == T::ZERO {
                continue;
            }
            let (ls, le) = self.lranges[step];
            for ent in &self.lents[ls as usize..le as usize] {
                scratch.work[ent.row as usize] -= scratch.vals[ent.slot as usize] * t;
            }
        }
        // Back substitution in original column coordinates.
        x.clear();
        x.resize(self.n, T::ZERO);
        for step in (0..self.n).rev() {
            let mut s = scratch.work[self.pivot_rows[step] as usize];
            let (us, ue) = self.uranges[step];
            for &(c, slot) in &self.uents[us as usize..ue as usize] {
                s -= scratch.vals[slot as usize] * x[c as usize];
            }
            x[self.pivot_cols[step] as usize] = s / scratch.vals[self.pivot_slots[step] as usize];
        }
    }
}

/// The most update ops and value slots a [`FactorProgram::compile`] may
/// produce for one pattern.
///
/// A pattern of `dim` unknowns and `nnz` raw entries gets `4·dim·nnz` ops
/// (at least 2²⁰) and `32·nnz` slots (at least 2¹⁶): room for every
/// elimination step to update each entry four times over, and for fill
/// up to 31 times the pattern. Every order the workspace's circuits
/// compile stays within both — the heaviest, a 1 000-node random RC mesh,
/// takes 2.05·dim·nnz ops and 20.8·nnz slots; the 32×32 grid mesh
/// 0.047·dim·nnz and 4.7·nnz — while the AMD program of a 4 096-node
/// random mesh with 6 000 extra edges would take 7.0·dim·nnz ops
/// (697 M, 5.6 GB) and 71·nnz slots, and stops at its budget instead of
/// exhausting memory. The op limit also keeps op indices within `u32`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CompileBudget {
    /// Update-op limit.
    pub(crate) ops: usize,
    /// Value-slot limit.
    pub(crate) slots: usize,
}

impl CompileBudget {
    /// The budget of a pattern with `dim` unknowns and `nnz` raw entries.
    pub(crate) fn for_pattern(dim: usize, nnz: usize) -> CompileBudget {
        let ops = dim.saturating_mul(nnz).saturating_mul(4).max(1 << 20);
        CompileBudget {
            ops: ops.min(u32::MAX as usize),
            slots: nnz.saturating_mul(32).max(1 << 16),
        }
    }

    fn exceeded(self) -> FactorError {
        FactorError::TooLarge { ops: self.ops, slots: self.slots }
    }
}

/// [`FactorProgram::compile`]'s working buffers, reused across calls on
/// one thread. Only the first `dim` rows and column lists of the current
/// call are live; [`CompileWorkspace::reset`] clears them at entry, so
/// nothing from an earlier call — finished or failed — reaches the next.
#[derive(Default)]
struct CompileWorkspace {
    /// Row `r`'s raw entries are `by_row[row_start[r]..row_start[r + 1]]`,
    /// in input order.
    row_start: Vec<usize>,
    by_row: Vec<usize>,
    /// Per column: `(row + 1, leader)` of the first raw entry seen at that
    /// column in the row being grouped.
    seen: Vec<(usize, usize)>,
    /// The first raw entry at each raw entry's position.
    leader: Vec<usize>,
    /// Per-row `(col, slot)` lists sorted by column: the symbolic
    /// elimination's working pattern, with each entry's slot beside it.
    rows: Vec<Vec<(usize, u32)>>,
    /// `col_rows[c]`: the rows that have held an entry in column `c`, in
    /// the order they gained it (eliminated rows are skipped on use).
    col_rows: Vec<Vec<usize>>,
    row_active: Vec<bool>,
    /// Merge buffer: the updated target row, swapped in place of the old.
    merged: Vec<(usize, u32)>,
    /// The current step's pivot row.
    prow: Vec<(usize, u32)>,
    /// The current step's elimination targets.
    targets: Vec<usize>,
}

impl CompileWorkspace {
    fn reset(&mut self, dim: usize, raw: usize) {
        if self.rows.len() < dim {
            self.rows.resize_with(dim, Vec::new);
            self.col_rows.resize_with(dim, Vec::new);
        }
        self.rows[..dim].iter_mut().for_each(Vec::clear);
        self.col_rows[..dim].iter_mut().for_each(Vec::clear);
        self.row_start.clear();
        self.row_start.resize(dim + 1, 0);
        self.by_row.clear();
        self.by_row.resize(raw, 0);
        self.seen.clear();
        self.seen.resize(dim, (0, 0));
        self.leader.clear();
        self.leader.resize(raw, 0);
        self.row_active.clear();
        self.row_active.resize(dim, true);
        self.merged.clear();
        self.prow.clear();
        self.targets.clear();
    }
}

thread_local! {
    static COMPILE_WORKSPACE: RefCell<CompileWorkspace> = RefCell::default();
}

/// The body of [`FactorProgram::compile`] (arguments already validated).
fn compile_on(
    dim: usize,
    positions: &[(usize, usize)],
    order: &PivotOrder,
    budget: CompileBudget,
    ws: &mut CompileWorkspace,
) -> Result<FactorProgram, FactorError> {
    ws.reset(dim, positions.len());
    let CompileWorkspace {
        row_start,
        by_row,
        seen,
        leader,
        rows,
        col_rows,
        row_active,
        merged,
        prow,
        targets,
    } = ws;
    let (rows, col_rows) = (&mut rows[..dim], &mut col_rows[..dim]);
    let slot_count = |n: usize| u32::try_from(n).expect("pattern exceeds u32 slots");
    // Group raw entries by row (a counting sort, stable in input order),
    // then find each entry's leader — the first occurrence of its
    // position — within its row.
    for &(r, _) in positions {
        row_start[r + 1] += 1;
    }
    for r in 0..dim {
        row_start[r + 1] += row_start[r];
    }
    for (i, &(r, _)) in positions.iter().enumerate() {
        by_row[row_start[r]] = i;
        row_start[r] += 1;
    }
    for r in (1..=dim).rev() {
        row_start[r] = row_start[r - 1];
    }
    row_start[0] = 0;
    for r in 0..dim {
        for &i in &by_row[row_start[r]..row_start[r + 1]] {
            let c = positions[i].1;
            leader[i] = if seen[c].0 == r + 1 {
                seen[c].1
            } else {
                seen[c] = (r + 1, i);
                i
            };
        }
    }
    // Leaders take slots in input order; every entry scatters into its
    // leader's slot.
    let mut scatter: Vec<u32> = Vec::with_capacity(positions.len());
    let mut slots = 0usize;
    for (i, &l) in leader.iter().enumerate() {
        let slot = if l == i {
            slots += 1;
            slot_count(slots - 1)
        } else {
            scatter[l]
        };
        scatter.push(slot);
    }
    for (r, row) in rows.iter_mut().enumerate() {
        let group = &by_row[row_start[r]..row_start[r + 1]];
        row.extend(
            group.iter().filter(|&&i| leader[i] == i).map(|&i| (positions[i].1, scatter[i])),
        );
        row.sort_unstable_by_key(|&(c, _)| c);
    }
    for (r, row) in rows.iter().enumerate() {
        for &(c, _) in row {
            col_rows[c].push(r);
        }
    }
    let initial_nnz = slots;

    let mut pivot_slots = Vec::with_capacity(dim);
    let mut pivot_rows = Vec::with_capacity(dim);
    let mut pivot_cols = Vec::with_capacity(dim);
    let mut lranges = Vec::with_capacity(dim);
    let mut lents: Vec<LEntry> = Vec::new();
    let mut ops: Vec<Op> = Vec::new();
    let mut uranges = Vec::with_capacity(dim);
    let mut uents: Vec<(u32, u32)> = Vec::new();

    // Symbolic elimination: the structure of the prescribed-order
    // elimination in `SparseLu::refactor`, on positions instead of values.
    for step in 0..dim {
        let pr = order.rows()[step];
        let pc = order.cols()[step];
        let Ok(ppos) = rows[pr].binary_search_by_key(&pc, |&(c, _)| c) else {
            return Err(FactorError::Singular { step });
        };
        row_active[pr] = false;
        pivot_slots.push(rows[pr][ppos].1);
        pivot_rows.push(pr as u32);
        pivot_cols.push(pc as u32);

        // rows[pr] is final at its own pivot step (updates only reach rows
        // that are still active): record the pivot-free U row.
        prow.clear();
        prow.extend_from_slice(&rows[pr]);
        let ustart = uents.len() as u32;
        uents.extend(prow.iter().filter(|&&(c, _)| c != pc).map(|&(c, slot)| (c as u32, slot)));
        uranges.push((ustart, uents.len() as u32));

        let lstart = lents.len() as u32;
        targets.clear();
        std::mem::swap(targets, &mut col_rows[pc]);
        for &r2 in targets.iter() {
            if !row_active[r2] {
                continue;
            }
            let row2 = &mut rows[r2];
            let Ok(pos) = row2.binary_search_by_key(&pc, |&(c, _)| c) else {
                continue;
            };
            // The eliminated entry leaves U's pattern (its slot stays,
            // holding the multiplier — the entry of L this step makes).
            let lslot = row2.remove(pos).1;
            // One op per pivot-row entry but the pivot. The op array
            // grows as usual but never past the budget, so a compile that
            // stops at it has not allocated beyond it.
            let new_ops = prow.len() - 1;
            if ops.len() + new_ops > budget.ops {
                return Err(budget.exceeded());
            }
            if ops.capacity() - ops.len() < new_ops {
                let target = (2 * ops.capacity()).clamp(ops.len() + new_ops, budget.ops);
                ops.reserve_exact(target - ops.len());
            }
            let ops_start = ops.len() as u32;
            // Merge the pivot row's pattern into row2 (both sorted by
            // column), one update op per pivot-row entry.
            merged.clear();
            let mut i = 0;
            for &(c, src) in prow.iter() {
                if c == pc {
                    continue;
                }
                while i < row2.len() && row2[i].0 < c {
                    merged.push(row2[i]);
                    i += 1;
                }
                let dest = if i < row2.len() && row2[i].0 == c {
                    i += 1;
                    row2[i - 1].1
                } else {
                    // Fill-in: a brand-new slot, discovered once at
                    // compile time instead of at every point.
                    if slots >= budget.slots {
                        return Err(budget.exceeded());
                    }
                    slots += 1;
                    col_rows[c].push(r2);
                    slot_count(slots - 1)
                };
                merged.push((c, dest));
                ops.push(Op { dest, src });
            }
            merged.extend_from_slice(&row2[i..]);
            std::mem::swap(row2, merged);
            lents.push(LEntry {
                row: r2 as u32,
                slot: lslot,
                ops_start,
                ops_end: ops.len() as u32,
            });
        }
        std::mem::swap(targets, &mut col_rows[pc]);
        lranges.push((lstart, lents.len() as u32));
    }

    Ok(FactorProgram {
        n: dim,
        slots,
        positions: positions.iter().map(|&(r, c)| (r as u32, c as u32)).collect(),
        scatter,
        pivot_slots,
        pivot_rows,
        pivot_cols,
        lranges,
        lents,
        ops,
        uranges,
        uents,
        fill_in: slots - initial_nnz,
        sign: order.sign(),
    })
}

/// Per-executor mutable state for [`FactorProgram`] execution: the flat
/// slot-value array, the forward-elimination buffer, and the determinant
/// of the last successful replay, in element type `T` ([`Scalar`]). All
/// buffers retain capacity across points — the steady state performs
/// **zero heap allocation**. One scratch per worker thread; the program is
/// shared.
#[derive(Clone, Debug, Default)]
pub struct ProgramScratch<T = Complex> {
    vals: Vec<T>,
    work: Vec<T>,
    det: ExtComplex,
    factored: bool,
}

impl<T: Scalar> ProgramScratch<T> {
    /// An empty scratch; buffers size themselves on first use.
    pub fn new() -> ProgramScratch<T> {
        ProgramScratch::default()
    }

    /// Determinant of the last successful replay (sign-corrected for the
    /// compiled order's permutations), in extended range.
    ///
    /// # Panics
    ///
    /// Panics if no replay has succeeded yet.
    pub fn det(&self) -> ExtComplex {
        assert!(self.factored, "scratch holds no factorization");
        self.det
    }

    /// Clears the slot array for a new replay of `program`, retaining
    /// capacity (a `resize` within capacity is a plain linear fill).
    fn begin(&mut self, program: &FactorProgram) {
        self.factored = false;
        self.vals.clear();
        self.vals.resize(program.slots, T::ZERO);
    }
}

mod batch;

#[cfg(test)]
mod compile_reference;

#[cfg(test)]
mod tests {
    use super::batch::{BatchTier, BLOCK};
    use super::*;
    use crate::lu::SparseLu;

    fn bits(z: Complex) -> [u64; 2] {
        [z.re.to_bits(), z.im.to_bits()]
    }

    fn det_bits(d: ExtComplex) -> ([u64; 2], i64) {
        (bits(d.mantissa()), d.exponent())
    }

    /// Replays `program` on `t` and checks determinant and solve bits
    /// against the prescribed-order reference [`SparseLu::refactor`].
    fn assert_program_matches_refactor(
        program: &FactorProgram,
        t: &Triplets,
        order: &PivotOrder,
        b: &[Complex],
        scratch: &mut ProgramScratch,
    ) {
        let reference = SparseLu::refactor(t, order).unwrap();
        program.refactor(t, scratch).unwrap();
        assert_eq!(det_bits(scratch.det()), det_bits(reference.det()));
        let mut x = Vec::new();
        program.solve_into(scratch, b, &mut x);
        let want: Vec<_> = reference.solve(b).into_iter().map(bits).collect();
        assert_eq!(x.into_iter().map(bits).collect::<Vec<_>>(), want);
    }

    fn tri(dim: usize, entries: &[(usize, usize, f64)]) -> Triplets {
        let mut t = Triplets::new(dim);
        for &(r, c, v) in entries {
            t.add(r, c, Complex::real(v));
        }
        t
    }

    /// An arrow matrix with fill-in: the program must reproduce the
    /// reference refactorization across a sweep of values, reusing one
    /// scratch.
    #[test]
    fn program_matches_refactor_across_value_sweep() {
        let n = 10;
        let build = |w: f64| {
            let mut t = Triplets::new(n);
            for i in 0..n {
                t.add(i, i, Complex::new(2.0 + i as f64, w));
            }
            for i in 1..n {
                t.add(0, i, Complex::real(1.0));
                t.add(i, 0, Complex::new(0.5, -w));
            }
            t
        };
        let order = SparseLu::factor(&build(0.1)).unwrap().order().clone();
        let program = FactorProgram::for_triplets(&build(0.1), &order).unwrap();
        assert_eq!(program.dim(), n);

        let mut scratch = ProgramScratch::new();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 1.0)).collect();
        for k in 0..12 {
            let t = build(0.1 + 0.3 * k as f64);
            assert_program_matches_refactor(&program, &t, &order, &b, &mut scratch);
        }
    }

    /// A real matrix replays and solves in `f64` to the real parts of its
    /// complex replay and solve, bit for bit, through the same program:
    /// fill-in, negative entries, a right-hand side with exact zeros (the
    /// forward pass skips them), and a real zero pivot failing at the same
    /// step.
    #[test]
    fn real_replay_matches_complex_real_parts() {
        let n = 9;
        let entries = |w: f64| {
            let mut e = Vec::new();
            for i in 0..n {
                e.push((i, i, 3.0 + w * i as f64));
            }
            for i in 1..n {
                e.push((0, i, -1.0 / i as f64));
                e.push((i, 0, 0.5 - w));
                e.push((i, (i + 3) % n, w - 0.25 * i as f64));
            }
            e
        };
        let order = SparseLu::factor(&tri(n, &entries(0.7))).unwrap().order().clone();
        let program = FactorProgram::for_triplets(&tri(n, &entries(0.7)), &order).unwrap();
        let mut complex = ProgramScratch::new();
        let mut real = ProgramScratch::<f64>::new();
        let (mut xc, mut xr) = (Vec::new(), Vec::new());
        for w in [0.7, -1.3, 2.9] {
            let e = entries(w);
            program.refactor(&tri(n, &e), &mut complex).unwrap();
            program.refactor_values(e.iter().map(|&(_, _, v)| v), &mut real).unwrap();
            let (dc, dr) = (complex.det(), real.det());
            assert_eq!(dc.mantissa().re.to_bits(), dr.mantissa().re.to_bits());
            assert_eq!(dc.exponent(), dr.exponent());
            let b: Vec<f64> = (0..n).map(|i| if i % 3 == 0 { 0.0 } else { w - i as f64 }).collect();
            let bc: Vec<Complex> = b.iter().map(|&v| Complex::real(v)).collect();
            program.solve_into(&mut complex, &bc, &mut xc);
            program.solve_into(&mut real, &b, &mut xr);
            let want: Vec<u64> = xc.iter().map(|z| z.re.to_bits()).collect();
            assert_eq!(xr.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want, "w = {w}");
        }
        let (pr, pc) = (order.rows()[0], order.cols()[0]);
        let zeroed =
            entries(0.7).into_iter().map(|(r, c, v)| if (r, c) == (pr, pc) { 0.0 } else { v });
        assert_eq!(
            program.refactor_values(zeroed, &mut real),
            Err(FactorError::Singular { step: 0 })
        );
    }

    /// Element growth of a replay: `[[ε, 1], [1, 1]]` pivoted on `ε` first
    /// grows U to `|1 − 1/ε|`; the swapped order keeps every U entry at
    /// most 1. The factorization left behind is `refactor`'s, bit for bit,
    /// and a zero prescribed pivot is the same typed error.
    #[test]
    fn refactor_growth_measures_u_over_a() {
        let eps = 1e-6;
        let t = tri(2, &[(0, 0, eps), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        let growth = |order: PivotOrder, t: &Triplets| {
            let program = FactorProgram::for_triplets(t, &order).unwrap();
            let mut scratch = ProgramScratch::new();
            let values = t.entries().iter().map(|&(_, _, v)| v);
            let g = program.refactor_growth(values, &mut scratch);
            if g.is_ok() {
                let mut plain = ProgramScratch::new();
                program.refactor(t, &mut plain).unwrap();
                assert_eq!(det_bits(scratch.det()), det_bits(plain.det()));
            }
            g
        };
        let small_first = growth(PivotOrder::diagonal(vec![0, 1]), &t).unwrap();
        assert!((small_first - (1.0 / eps - 1.0)).abs() <= 1e-6 / eps, "growth {small_first}");
        let swapped = PivotOrder::diagonal(vec![1, 0]);
        assert!(growth(swapped, &t).unwrap() <= 1.0);
        let singular = tri(2, &[(0, 0, 0.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        assert!(matches!(
            growth(PivotOrder::diagonal(vec![0, 1]), &singular),
            Err(FactorError::Singular { step: 0 })
        ));
    }

    /// A cyclic bidiagonal pattern fills in a cascade under diagonal
    /// pivoting: eliminating `(0,0)` fills `(n−1,1)`, eliminating `(1,1)`
    /// fills `(n−1,2)`, and so on. The compiled program must discover every
    /// fill slot at compile time and still match the reference replay.
    #[test]
    fn fill_in_cascade_is_precompiled() {
        let n = 8;
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, Complex::real(4.0 + i as f64));
            t.add(i, (i + 1) % n, Complex::real(1.0));
        }
        let lu = SparseLu::factor(&t).unwrap();
        let program = FactorProgram::for_triplets(&t, lu.order()).unwrap();
        assert_eq!(program.fill_in(), lu.fill_in(), "compile-time fill matches numeric fill");
        assert!(program.fill_in() > 0, "cyclic pattern must fill");
        assert!(program.op_count() > 0);

        let b: Vec<Complex> = (0..n).map(|i| Complex::new(1.0, i as f64)).collect();
        assert_program_matches_refactor(&program, &t, lu.order(), &b, &mut ProgramScratch::new());
    }

    #[test]
    fn duplicate_entries_accumulate_through_stamp_map() {
        let mut a = Triplets::new(2);
        a.add(0, 0, Complex::real(1.0));
        a.add(0, 0, Complex::real(1.0)); // accumulates: a00 = 2
        a.add(0, 1, Complex::real(1.0));
        a.add(1, 1, Complex::real(3.0));
        let order = SparseLu::factor(&a).unwrap().order().clone();
        let program = FactorProgram::for_triplets(&a, &order).unwrap();
        let mut scratch = ProgramScratch::new();
        program.refactor(&a, &mut scratch).unwrap();
        assert!((scratch.det().to_complex() - Complex::real(6.0)).abs() < 1e-12);
    }

    /// Slot numbering on an unsorted pattern with a repeated position:
    /// distinct positions in first-occurrence order, then fill-in.
    #[test]
    fn slots_follow_first_occurrence_then_fill_order() {
        let positions = [(1, 0), (0, 0), (0, 2), (1, 1), (2, 2), (0, 0)];
        let order = PivotOrder::diagonal(vec![0, 1, 2]);
        let program = FactorProgram::compile(3, &positions, &order).unwrap();
        assert_eq!(program.scatter, [0, 1, 2, 3, 4, 1]);
        assert_eq!(program.pivot_slots, [1, 3, 4]);
        // Eliminating row 1 by row 0 fills (1, 2) into the next slot.
        assert_eq!((program.slots(), program.fill_in()), (6, 1));
        let (dest, src) = (program.ops[0].dest, program.ops[0].src);
        assert_eq!((program.lents[0].slot, dest, src), (0, 5, 2));
    }

    #[test]
    fn singular_replay_reports_same_step_and_scratch_recovers() {
        let a = tri(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]);
        let order = SparseLu::factor(&a).unwrap().order().clone();
        let program = FactorProgram::for_triplets(&a, &order).unwrap();
        let zeroed = tri(2, &[(0, 0, 0.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 0.0)]);
        let mut scratch = ProgramScratch::new();
        let got = program.refactor(&zeroed, &mut scratch);
        let want = SparseLu::refactor(&zeroed, &order);
        match (got, want) {
            (Err(FactorError::Singular { step: a }), Err(FactorError::Singular { step: b })) => {
                assert_eq!(a, b, "error parity: same failing elimination step");
            }
            other => panic!("expected matching Singular, got {other:?}"),
        }
        // The same scratch stays usable afterwards.
        program.refactor(&a, &mut scratch).unwrap();
        assert!((scratch.det().to_complex() - Complex::real(-2.0)).abs() < 1e-12);
    }

    #[test]
    fn structurally_absent_pivot_fails_at_compile_time() {
        // An order recorded for a denser pattern dies symbolically on a
        // sparser one — at compile time, not at every numeric point.
        let dense = tri(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]);
        let order = SparseLu::factor(&dense).unwrap().order().clone();
        let sparse = tri(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let positions: Vec<(usize, usize)> =
            sparse.entries().iter().map(|&(r, c, _)| (r, c)).collect();
        match FactorProgram::compile(2, &positions, &order) {
            Ok(_) => {
                // The dense order may happen to pivot down the diagonal, in
                // which case compiling succeeds — accept either, but a
                // compiled program must then replay fine.
            }
            Err(FactorError::Singular { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A compile stops with `TooLarge` exactly when its op or slot count
    /// would pass the budget: the budget of the program's own counts
    /// compiles the same program, one op or one slot less does not.
    #[test]
    fn compile_stops_at_its_budget() {
        let n = 12;
        let mut positions: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for i in 1..n {
            positions.extend([(0, i), (i, 0)]);
        }
        // The hub first fills the arrow completely.
        let order = PivotOrder::diagonal((0..n).collect());
        let program = FactorProgram::compile(n, &positions, &order).unwrap();
        let (ops, slots) = (program.op_count(), program.slots());
        assert_eq!((ops, slots), ((1..n).map(|k| k * k).sum(), n * n));
        let exact = CompileBudget { ops, slots };
        let within = FactorProgram::compile_within(n, &positions, &order, exact).unwrap();
        assert_eq!((within.ops.len(), within.slots, within.fill_in), (ops, slots, program.fill_in));
        assert_eq!(within.scatter, program.scatter);
        for budget in
            [CompileBudget { ops: ops - 1, slots }, CompileBudget { ops, slots: slots - 1 }]
        {
            assert_eq!(
                FactorProgram::compile_within(n, &positions, &order, budget).unwrap_err(),
                FactorError::TooLarge { ops: budget.ops, slots: budget.slots }
            );
        }
        // The workspace is reset after a stopped compile.
        let again = FactorProgram::compile(n, &positions, &order).unwrap();
        assert_eq!((again.ops.len(), again.slots), (ops, slots));
    }

    /// The default budget: floors for small patterns, `4·dim·nnz` ops and
    /// `32·nnz` slots beyond them, and op indices within `u32`.
    #[test]
    fn compile_budget_scales_with_the_pattern() {
        assert_eq!(
            CompileBudget::for_pattern(10, 30),
            CompileBudget { ops: 1 << 20, slots: 1 << 16 }
        );
        // The 32×32 grid mesh: 1 025 unknowns, 4 994 entries.
        assert_eq!(
            CompileBudget::for_pattern(1025, 4994),
            CompileBudget { ops: 4 * 1025 * 4994, slots: 32 * 4994 }
        );
        assert_eq!(CompileBudget::for_pattern(1 << 20, 1 << 24).ops, u32::MAX as usize);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = tri(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let order = SparseLu::factor(&a).unwrap().order().clone();
        assert!(matches!(
            FactorProgram::compile(3, &[(0, 0), (1, 1), (2, 2)], &order),
            Err(FactorError::OrderMismatch { expected: 2, actual: 3 })
        ));
    }

    #[test]
    fn dim_zero_program() {
        let t = Triplets::new(0);
        let order = SparseLu::factor(&t).unwrap().order().clone();
        let program = FactorProgram::for_triplets(&t, &order).unwrap();
        let mut scratch = ProgramScratch::new();
        program.refactor(&t, &mut scratch).unwrap();
        assert_eq!(scratch.det().to_complex(), Complex::ONE);
        let mut x = Vec::new();
        program.solve_into(&mut scratch, &[], &mut x);
        assert!(x.is_empty());
        let mut batch = BatchScratch::new();
        x.push(Complex::ONE);
        program.eval_points(&[], &[], &[Complex::ONE; 3], Some((&[], &mut x)), &mut batch);
        assert_eq!(batch.lane_det(2).unwrap().to_complex(), Complex::ONE);
        assert!(x.is_empty());
    }

    #[test]
    #[should_panic]
    fn too_many_values_panics() {
        let a = tri(1, &[(0, 0, 2.0)]);
        let order = SparseLu::factor(&a).unwrap().order().clone();
        let program = FactorProgram::for_triplets(&a, &order).unwrap();
        let _ = program.refactor_values([Complex::ONE, Complex::ONE], &mut ProgramScratch::new());
    }

    #[test]
    #[should_panic(expected = "value count differs")]
    fn too_few_values_panics() {
        let a = tri(2, &[(0, 0, 2.0), (1, 1, 2.0)]);
        let order = SparseLu::factor(&a).unwrap().order().clone();
        let program = FactorProgram::for_triplets(&a, &order).unwrap();
        let _ = program.refactor_values([Complex::ONE], &mut ProgramScratch::new());
    }

    /// A complex number's bits with every NaN as one value: which NaN an
    /// operation returns is not part of the contract.
    fn canon(z: Complex) -> [u64; 2] {
        let part = |v: f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
        [part(z.re), part(z.im)]
    }

    /// Every kernel tier this CPU supports, each skipped tier noted once.
    fn supported_tiers() -> Vec<BatchTier> {
        let (run, skip): (Vec<BatchTier>, Vec<BatchTier>) =
            BatchTier::ALL.iter().partition(|t| t.supported());
        for tier in skip {
            println!("skipping the {} kernel tier: this CPU lacks it", tier.name());
        }
        run
    }

    /// One batch of [`FactorProgram::eval_points`]: the affine matrix
    /// `K₀ + σ·K₁` in compiled-position order, one `σ` per lane, and the
    /// right-hand side every lane shares.
    struct Points {
        k0: Vec<Complex>,
        k1: Vec<Complex>,
        sigmas: Vec<Complex>,
        rhs: Vec<Complex>,
    }

    /// A lane's one-lane replay: its dead step, or its determinant, slot
    /// values and solution, every NaN canonical.
    type LaneReplay = Result<(([u64; 2], i64), Vec<[u64; 2]>, Vec<[u64; 2]>), usize>;

    /// The one-lane [`FactorProgram::refactor_values`] of `k0[e] + σ·k1[e]`
    /// and [`FactorProgram::solve_into`] of the shared right-hand side.
    fn one_lane(program: &FactorProgram, points: &Points, s: Complex) -> LaneReplay {
        let mut one = ProgramScratch::new();
        let values = points.k0.iter().zip(&points.k1).map(|(&a, &b)| a + s * b);
        match program.refactor_values(values, &mut one) {
            Ok(()) => {
                let mut x = Vec::new();
                program.solve_into(&mut one, &points.rhs, &mut x);
                let d = one.det();
                let slots = one.vals.iter().map(|&v| canon(v)).collect();
                Ok(((canon(d.mantissa()), d.exponent()), slots, x.into_iter().map(canon).collect()))
            }
            Err(FactorError::Singular { step }) => Err(step),
            Err(e) => panic!("unexpected {e:?}"),
        }
    }

    /// Runs `points` through the batched pass on every tier in `tiers`,
    /// with the right-hand side and without it, in `batch`, and holds each
    /// lane to its one-lane replay: the same dead step, or the same
    /// determinant and solution bits, and in the last block (the only one
    /// whose slots the scratch keeps) the same slot values. Returns the
    /// number of dead lanes.
    fn assert_tiers_match_one_lane(
        what: &str,
        tiers: &[BatchTier],
        program: &FactorProgram,
        points: &Points,
        batch: &mut BatchScratch,
    ) -> usize {
        let (n, lanes) = (program.dim(), points.sigmas.len());
        let want: Vec<_> = points.sigmas.iter().map(|&s| one_lane(program, points, s)).collect();
        let last_block = (lanes - 1) / BLOCK * BLOCK;
        let mut x = Vec::new();
        for &tier in tiers {
            for solve in [true, false] {
                let (k0, k1, sigmas) = (&points.k0, &points.k1, &points.sigmas);
                let rhs = solve.then_some((&points.rhs[..], &mut x));
                program.eval_points_on(tier, k0, k1, sigmas, rhs, batch);
                let at = |lane: usize| {
                    format!(
                        "{what}, {} tier, {lanes} lanes, solve {solve}, lane {lane}",
                        tier.name()
                    )
                };
                for (lane, want) in want.iter().enumerate() {
                    let (det, slots, want_x) = match want {
                        Err(step) => {
                            assert_eq!(
                                batch.lane_det(lane).unwrap_err(),
                                FactorError::Singular { step: *step },
                                "{}",
                                at(lane)
                            );
                            continue;
                        }
                        Ok(lane_want) => lane_want,
                    };
                    let got =
                        batch.lane_det(lane).unwrap_or_else(|e| panic!("{}: {e:?}", at(lane)));
                    assert_eq!((canon(got.mantissa()), got.exponent()), *det, "{}: det", at(lane));
                    if solve {
                        let got_x: Vec<_> = (0..n).map(|c| canon(x[c * lanes + lane])).collect();
                        assert_eq!(&got_x, want_x, "{}: solution", at(lane));
                    }
                    if lane >= last_block {
                        let got_slots: Vec<_> =
                            (0..program.slots).map(|s| canon(batch.slot(s, lane))).collect();
                        assert_eq!(&got_slots, slots, "{}: slots", at(lane));
                    }
                }
            }
        }
        want.iter().filter(|w| w.is_err()).count()
    }

    /// A batch of `lanes` points on `t`'s pattern under `order`.
    /// - `K₁` is `t`'s values, zero at every third entry; `K₀` is a
    ///   wobbled copy with exact and signed zeros off the diagonal.
    /// - `σ` lies on the unit circle, or near 1e150 or 1e−150, or has a
    ///   signed-zero real part; some lanes sit at exactly zero (they
    ///   replay `K₀`) and some at NaN.
    /// - From two lanes on, lane `2·lanes/3` is planted dead: every raw
    ///   entry at the first pivot's position gets `k0[e] = −σ·k1[e]`, so
    ///   that lane's first pivot is exactly zero and no other lane's is.
    /// - The right-hand side has exact and signed zeros, so the forward
    ///   pass skips steps.
    fn tier_points(t: &Triplets, order: &PivotOrder, lanes: usize) -> Points {
        let entries = t.entries();
        let mut k1: Vec<Complex> = entries
            .iter()
            .enumerate()
            .map(|(e, &(_, _, v))| if e % 3 == 2 { Complex::ZERO } else { v })
            .collect();
        let mut k0: Vec<Complex> = entries
            .iter()
            .enumerate()
            .map(|(e, &(r, c, v))| match (r == c, e % 5) {
                (false, 0) => Complex::ZERO,
                (false, 1) => Complex::new(-0.0, -0.0),
                _ => v + Complex::new(0.01 * (e * 7 % 11) as f64, -0.02 * (e * 3 % 5) as f64),
            })
            .collect();
        let mut sigmas: Vec<Complex> = (0..lanes)
            .map(|k| {
                let cis = Complex::cis(2.0 * std::f64::consts::PI * k as f64 / lanes as f64);
                match k % 6 {
                    1 => cis * Complex::real(1e150),
                    2 => cis * Complex::real(1e-150),
                    3 => Complex::new(-0.0, 0.25 * k as f64),
                    4 if k % 12 == 4 => Complex::ZERO,
                    5 if k % 12 == 11 => Complex::new(f64::NAN, f64::NAN),
                    _ => cis,
                }
            })
            .collect();
        if lanes >= 2 {
            let dead = 2 * lanes / 3;
            sigmas[dead] = Complex::new(0.3, -0.7);
            let pivot = (order.rows()[0], order.cols()[0]);
            for (e, &(r, c, _)) in entries.iter().enumerate() {
                if (r, c) == pivot {
                    if k1[e] == Complex::ZERO {
                        k1[e] = Complex::new(1.5, 0.5);
                    }
                    k0[e] = -(sigmas[dead] * k1[e]);
                }
            }
        }
        let n = t.dim();
        let rhs = (0..n)
            .map(|row| match row % 4 {
                0 => Complex::ZERO,
                1 if row + 1 < n => Complex::new(-0.0, -0.0),
                _ => Complex::new((row + 1) as f64, 0.5 - row as f64),
            })
            .collect();
        Points { k0, k1, sigmas, rhs }
    }

    /// The test matrices: the arrow matrix of the sweep tests, again with
    /// duplicate positions (they accumulate into one slot, in input
    /// order), a pseudo-random sparse pattern, 5×5 and 7×7 grid stencils
    /// and a cyclic pattern with a tiny diagonal.
    fn tier_patterns() -> Vec<(&'static str, Triplets)> {
        let arrow_n = 10;
        let mut arrow = Vec::new();
        for i in 0..arrow_n {
            arrow.push((i, i, Complex::new(2.0 + i as f64, 0.1)));
        }
        for i in 1..arrow_n {
            arrow.push((0, i, Complex::real(1.0)));
            arrow.push((i, 0, Complex::new(0.5, -0.1)));
        }
        let mut arrow_dup = arrow.clone();
        for (r, c) in [(0, 0), (2, 2), (3, 0), (2, 2)] {
            arrow_dup.push((r, c, Complex::new(0.75 + r as f64, -0.25 * c as f64)));
        }
        let random_n = 24;
        let mut random: Vec<(usize, usize, Complex)> =
            (0..random_n).map(|i| (i, i, Complex::new(6.0 + 0.25 * i as f64, -1.5))).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % m
        };
        while random.len() < random_n * 4 {
            let (r, c) = (next(random_n), next(random_n));
            if random.iter().all(|&(r2, c2, _)| (r2, c2) != (r, c)) {
                let v =
                    Complex::new(next(200) as f64 / 100.0 - 1.0, next(200) as f64 / 100.0 - 1.0);
                random.push((r, c, v));
            }
        }
        let grid = |side: usize| {
            let mut grid = Vec::new();
            for i in 0..side * side {
                let (x, y) = (i % side, i / side);
                grid.push((i, i, Complex::new(4.5, 0.3 * x as f64 - 0.2 * y as f64)));
                if x + 1 < side {
                    grid.push((i, i + 1, Complex::new(-1.0, 0.05)));
                    grid.push((i + 1, i, Complex::new(-1.0, -0.05)));
                }
                if y + 1 < side {
                    grid.push((i, i + side, Complex::real(-1.0)));
                    grid.push((i + side, i, Complex::real(-1.0)));
                }
            }
            (side * side, grid)
        };
        let triplets = |(n, entries): (usize, Vec<(usize, usize, Complex)>)| {
            let mut t = Triplets::new(n);
            for (r, c, v) in entries {
                t.add(r, c, v);
            }
            t
        };
        // Tiny diagonal entries: Markowitz's threshold pivots off the
        // diagonal, so its order permutes rows against columns.
        let cyclic_n = 7;
        let mut cyclic = Vec::new();
        for i in 0..cyclic_n {
            cyclic.push((i, i, Complex::new(1e-9, 0.0)));
            cyclic.push((i, (i + 1) % cyclic_n, Complex::new(1.0 + 0.125 * i as f64, 0.5)));
            cyclic.push((i, (i + 3) % cyclic_n, Complex::new(0.25, -0.125 * i as f64)));
        }
        vec![
            ("arrow", triplets((arrow_n, arrow))),
            ("arrow with duplicates", triplets((arrow_n, arrow_dup))),
            ("random", triplets((random_n, random))),
            ("grid", triplets(grid(5))),
            ("grid7", triplets(grid(7))),
            ("cyclic", triplets((cyclic_n, cyclic))),
        ]
    }

    /// The program of `t` under its natural diagonal order (the arrow's
    /// hub first fills it dense).
    fn diagonal_program(t: &Triplets) -> (PivotOrder, FactorProgram) {
        let order = PivotOrder::diagonal((0..t.dim()).collect());
        let program = FactorProgram::for_triplets(t, &order).unwrap();
        (order, program)
    }

    /// The arrow matrix's value sweep on the detected tier, five lanes
    /// (one padded block): every lane matches its one-lane replay,
    /// determinant, solution and slots.
    #[test]
    fn batched_replay_is_bit_identical_to_one_lane() {
        let (_, t) = tier_patterns().swap_remove(0);
        let order = SparseLu::factor(&t).unwrap().order().clone();
        let program = FactorProgram::for_triplets(&t, &order).unwrap();
        // `t` at `w` holds `2 + i + w·j` on the diagonal and `0.5 − w·j`
        // below it: `K₁` is `±j` there.
        let k0: Vec<Complex> = t.entries().iter().map(|&(_, _, v)| Complex::real(v.re)).collect();
        let k1: Vec<Complex> = t
            .entries()
            .iter()
            .map(|&(r, c, _)| match r.cmp(&c) {
                std::cmp::Ordering::Equal => Complex::new(0.0, 1.0),
                std::cmp::Ordering::Greater => Complex::new(0.0, -1.0),
                std::cmp::Ordering::Less => Complex::ZERO,
            })
            .collect();
        let sigmas = (0..5).map(|k| Complex::real(0.1 + 0.3 * k as f64)).collect();
        let rhs = (0..t.dim()).map(|i| Complex::new(i as f64, 1.0)).collect();
        let points = Points { k0, k1, sigmas, rhs };
        let tier = [BatchTier::detected()];
        let dead = assert_tiers_match_one_lane(
            "arrow",
            &tier,
            &program,
            &points,
            &mut BatchScratch::new(),
        );
        assert_eq!(dead, 0);
    }

    /// A lane whose first pivot is exactly zero at its `σ` dies alone, as
    /// the one-lane `Singular` error, and the surviving lanes stay
    /// bit-identical to their one-lane replays.
    #[test]
    fn dead_lane_is_isolated_and_reports_one_lane_step() {
        let a = tri(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]);
        let order = SparseLu::factor(&a).unwrap().order().clone();
        let program = FactorProgram::for_triplets(&a, &order).unwrap();
        let pivot = (order.rows()[0], order.cols()[0]);
        let e = a.entries().iter().position(|&(r, c, _)| (r, c) == pivot).unwrap();
        let mut k0: Vec<Complex> = a.entries().iter().map(|&(_, _, v)| v).collect();
        let mut k1 = vec![Complex::ZERO; k0.len()];
        (k0[e], k1[e]) = (Complex::real(-0.5), Complex::ONE);
        let sigmas = [0.25, 0.5, 2.0].map(Complex::real).to_vec();
        let points = Points { k0, k1, sigmas, rhs: vec![Complex::ONE, Complex::real(2.0)] };
        let mut batch = BatchScratch::new();
        let mut x = Vec::new();
        let (k0, k1) = (&points.k0, &points.k1);
        program.eval_points(k0, k1, &points.sigmas, Some((&points.rhs, &mut x)), &mut batch);
        assert_eq!(batch.lane_det(1).unwrap_err(), FactorError::Singular { step: 0 });
        assert!(batch.lane_det(0).is_ok() && batch.lane_det(2).is_ok());
        let tiers = supported_tiers();
        assert_eq!(assert_tiers_match_one_lane("2×2", &tiers, &program, &points, &mut batch), 1);
    }

    /// Every kernel tier — called directly, not through the detected one —
    /// against the one-lane replay, at lane counts 1..=17, 31..=33 and 64
    /// (every fill of a first and second block, and several blocks), on
    /// five patterns up to a few hundred slots under their natural order
    /// and their Markowitz order (some of which are odd permutations, so
    /// every block's sign fold shows), with a planted dead lane (in the
    /// second block or later from 12 lanes on), signed zeros, values near
    /// 1e±150 and NaN lanes. One scratch serves every program, dirty from
    /// the start, and comes back to the first pattern at the end: a pass
    /// must not read a slot or block it has not written.
    #[test]
    fn every_tier_matches_one_lane_replay() {
        let tiers = supported_tiers();
        let patterns = tier_patterns();
        let mut batch = BatchScratch::new();
        let (_, big) = diagonal_program(&patterns[4].1);
        assert!(big.slots() >= 300, "a pattern of 300+ slots");
        let poison = vec![Complex::new(f64::NAN, 7.0); big.raw_entries()];
        big.eval_points(&poison, &poison, &[Complex::ONE; 40], None, &mut batch);
        let mut odd = false;
        for (name, t) in patterns.iter().chain(&patterns[..1]) {
            let (order, program) = diagonal_program(t);
            assert!(program.fill_in() > 0, "{name}: the pattern should fill");
            let markowitz = SparseLu::factor(t).unwrap().order().clone();
            for (order, program) in [
                (order, program),
                (markowitz.clone(), FactorProgram::for_triplets(t, &markowitz).unwrap()),
            ] {
                odd |= program.sign < 0.0;
                let (mut planted, mut dead) = (0, 0);
                for lanes in (1..=17).chain(31..=33).chain([64]) {
                    let points = tier_points(t, &order, lanes);
                    dead +=
                        assert_tiers_match_one_lane(name, &tiers, &program, &points, &mut batch);
                    planted += usize::from(lanes >= 2);
                }
                assert!(dead >= planted, "{name}: {planted} lanes planted dead, {dead} died");
            }
        }
        assert!(odd, "no order is an odd permutation");
    }

    /// Padded lanes sit at `σ = 0`: they replay `K₀`, so their slots are
    /// the one-lane replay of `K₀`; with `K₀ = 0` they meet a zero pivot
    /// and turn NaN. Either way they stay out of the pivot fold and the
    /// solutions, so every live lane still equals its one-lane replay, on
    /// every tier.
    #[test]
    fn padded_lanes_hit_zero_pivots_and_stay_unread() {
        let tiers = supported_tiers();
        let (_, t) = tier_patterns().swap_remove(2);
        let (order, program) = diagonal_program(&t);
        let mut batch = BatchScratch::new();
        for lanes in [1, 3, 5, 11] {
            let mut points = tier_points(&t, &order, lanes);
            assert_tiers_match_one_lane("padded", &tiers, &program, &points, &mut batch);
            let (_, k0_slots, _) =
                one_lane(&program, &points, Complex::ZERO).expect("K₀ is regular");
            let slots = |batch: &BatchScratch, pad| -> Vec<_> {
                (0..program.slots).map(|s| canon(batch.slot(s, pad))).collect()
            };
            for &tier in &tiers {
                let (k0, k1) = (&points.k0, &points.k1);
                program.eval_points_on(tier, k0, k1, &points.sigmas, None, &mut batch);
                for pad in lanes..lanes.next_multiple_of(BLOCK) {
                    assert_eq!(slots(&batch, pad), k0_slots, "{} tier, pad {pad}", tier.name());
                }
            }
            points.k0.fill(Complex::ZERO);
            assert_tiers_match_one_lane("padded, K₀ = 0", &tiers, &program, &points, &mut batch);
            for pad in lanes..lanes.next_multiple_of(BLOCK) {
                let last = batch.slot(program.slots - 1, pad);
                assert!(last.re.is_nan() && last.im.is_nan(), "pad {pad}: {last:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane 5 out of range for 5 lanes")]
    fn lane_det_past_the_last_lane_panics() {
        let a = tri(1, &[(0, 0, 2.0)]);
        let order = SparseLu::factor(&a).unwrap().order().clone();
        let program = FactorProgram::for_triplets(&a, &order).unwrap();
        let mut batch = BatchScratch::new();
        program.eval_points(&[Complex::ONE], &[Complex::ONE], &[Complex::ONE; 5], None, &mut batch);
        let _ = batch.lane_det(5);
    }

    /// Prints the tier the batched kernels dispatch to on this CPU (run
    /// with `--nocapture` to see which tier an optimized run verified).
    #[test]
    fn reports_dispatched_tier() {
        let tier = BatchTier::detected();
        println!("batched kernel tier: {}, split-complex {BLOCK}-lane blocks", tier.name());
        assert!(tier.supported());
        assert_eq!(Some(&tier), BatchTier::ALL.iter().find(|t| t.supported()));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_batch_panics() {
        let a = tri(1, &[(0, 0, 2.0)]);
        let order = SparseLu::factor(&a).unwrap().order().clone();
        let program = FactorProgram::for_triplets(&a, &order).unwrap();
        program.eval_points(&[Complex::ONE], &[Complex::ONE], &[], None, &mut BatchScratch::new());
    }

    #[test]
    #[should_panic(expected = "no factorization")]
    fn solve_before_replay_panics() {
        let a = tri(1, &[(0, 0, 1.0)]);
        let order = SparseLu::factor(&a).unwrap().order().clone();
        let program = FactorProgram::for_triplets(&a, &order).unwrap();
        program.solve_into(&mut ProgramScratch::new(), &[Complex::ONE], &mut Vec::new());
    }
}
