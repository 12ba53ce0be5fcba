//! Sparse complex linear algebra for the `refgen` workspace.
//!
//! The paper notes its algorithm "has been implemented using sparse matrix
//! techniques" — circuit matrices are extremely sparse (a handful of entries
//! per row), and the interpolation method re-factors the *same pattern* at
//! every interpolation point. This crate provides:
//!
//! * [`Triplets`] — a coordinate-format assembly container (duplicate
//!   entries accumulate, as MNA stamping produces them).
//! * [`SparseLu`] — LU factorization with Markowitz pivoting (fill-reducing,
//!   threshold-stabilized), a recorded [`PivotOrder`], solve, and a
//!   determinant accumulated as an
//!   [`ExtComplex`](refgen_numeric::ExtComplex) so products of pivots
//!   spanning hundreds of decades never overflow.
//!   [`SparseLu::refactor`] replays a prescribed order element by element:
//!   the reference the compiled replay is tested against.
//! * [`FactorProgram`] — the compiled symbolic kernel: fill-in pattern,
//!   slot layout, and elimination instruction stream precomputed once per
//!   `(pattern, order)`, so each numeric point is scatter-then-replay with
//!   zero sorting, searching, insertion, or allocation.
//! * [`BatchScratch`] — the batched execution state:
//!   [`FactorProgram::eval_points`] evaluates one affine matrix
//!   `K₀ + σ·K₁` at N points ("lanes"), one pass per block of eight
//!   lanes that stamps the block, replays the instruction stream over it
//!   and, given a right-hand side, solves it before the next block.
//! * [`ordering`] — approximate-minimum-degree symbolic ordering over the
//!   pattern graph, the fill-reducing alternative for mesh-scale circuits.
//! * [`dense`] — a dense LU reference implementation used as a test oracle
//!   and for tiny systems.
//!
//! # The three pivot orderings
//!
//! Three distinct orderings can govern a factorization, selected by cost:
//!
//! 1. **Probe Markowitz** — the default. One numeric
//!    [`SparseLu::factor`] records a threshold-stabilized Markowitz order;
//!    near-optimal on tree-like and op-amp-sized patterns, and numerically
//!    informed (it saw actual magnitudes). Used whenever its predicted
//!    fill is acceptable. The selection rule is a contract (see
//!    [`lu`]): the smallest count `(r_nnz − 1)·(c_nnz − 1)` among entries
//!    with `|a| ≥ u·max|row|`, then the strictly larger `|a|`, then the
//!    first in row-major order. Each row caches its best candidate, so a
//!    step costs O(n) plus a rescan of the rows it touched.
//! 2. **Fresh Markowitz at one point** — when a recorded order hits an
//!    exact zero pivot at some point, that point alone climbs the sweep
//!    engine's singular-recovery ladder, whose first rung is a fresh
//!    value-aware Markowitz factorization at that point; the next point
//!    replays the recorded order again. Purely numeric circumstance, same
//!    algorithm.
//! 3. **AMD** ([`ordering::minimum_degree`]) — purely symbolic
//!    approximate minimum degree on the symmetrized pattern. Selected when
//!    the probe order's realized fill crosses the sweep engine's
//!    threshold (mesh-scale patterns), after validating that the compiled
//!    order factors the probe point and actually reduces fill. On large
//!    patterns the sweep engine computes AMD first and skips the probe
//!    when AMD's own fill crosses the threshold.
//!
//! # The three phases
//!
//! Factorization work splits into phases with sharply different reuse
//! lifetimes — pay each one at the widest scope possible:
//!
//! ```text
//!                    once per          once per process    once per
//!                    TOPOLOGY          per (pattern,       POINT (σ, s)
//!                                      order)
//!                   ┌───────────────┐ ┌─────────────────┐ ┌──────────────────┐
//!  SYMBOLIC PHASE   │ Markowitz     │ │ FactorProgram:: │ │                  │
//!  (structure only) │ pivot search  │▶│ compile         │ │                  │
//!                   │ → PivotOrder  │ │ fill-in pattern │ │                  │
//!                   └───────────────┘ │ slot layout     │ │                  │
//!                                     │ stamp map       │ │                  │
//!                                     │ op stream       │ │                  │
//!                                     └─────────────────┘ │                  │
//!  NUMERIC PHASE                                          │ scatter values   │
//!  (values, no structure)                                 │ replay op stream │
//!                                                         │ → L, U, det      │
//!  SOLVE PHASE                                            │ forward replay   │
//!  (one RHS)                                              │ back-substitute  │
//!                                                         │ → x              │
//!                                                         └──────────────────┘
//!  SparseLu::factor ────────────▶ does all three per call (probe / fallback);
//!                                  search cost O(n) + touched rows per step
//!  FactorProgram::refactor ─────▶ numeric + solve, structure fully compiled
//! ```
//!
//! Every order the sweep and transient engines replay is compiled into a
//! [`FactorProgram`]; [`SparseLu::refactor`] is the prescribed-order
//! reference that the program's bits are tested against. The middle
//! column is a pure function of the dimension, the raw positions and the
//! order, so `refgen_mna` keeps each AMD order and each compiled program
//! (or its compile's [`FactorError::TooLarge`]) in one byte-bounded,
//! least-recently-used memo per process, from a pattern's second plan
//! on: a process that plans a pattern again and again pays only the
//! value-dependent checks (the Markowitz probe, replays at probe points),
//! not the ordering or the compile.
//!
//! The interpolation engine factors the same pattern at dozens of points
//! per window and across whole Monte-Carlo fleets, so the per-point column
//! must contain nothing but arithmetic — that is what [`FactorProgram`]
//! guarantees by construction (its replay is a linear pass over
//! precomputed slot indices).
//!
//! # Lane layout: batching is orthogonal to threading
//!
//! The per-point column above has a second axis: one instruction stream
//! can drive N points of one affine matrix at once. [`BatchScratch`] pads
//! the lanes to blocks of eight and stores each slot of a block
//! **split-complex**: the eight lanes' real parts, then their imaginary
//! parts, one 64-byte-aligned pair of cache lines. Each block is one fused
//! pass — stamp, replay, solve — so the fetch/decode cost of the stream
//! is paid once per eight lanes instead of once per lane, and the scratch
//! holds one block of slots at any lane count: the solve reads a block
//! the replay has just left in cache.
//!
//! ```text
//!                  block 0 (lanes 0–7), then block 1 (lanes 8–15) in the same slots, …
//!  slot 0   [re₀ … re₇][im₀ … im₇]
//!  slot 1   [re₀ … re₇][im₀ … im₇]
//!    ⋮       ↑ one refactor op = eight complex multiply-subtracts:
//!              four multiplies and four adds or subtracts per plane
//!              (one 512-bit register per plane on AVX-512F, two 256-bit
//!              on AVX, a loop over eight lanes otherwise)
//! ```
//!
//! The two parallel axes compose but never interact:
//!
//! * **Batching** (lanes, this crate) — N points per instruction
//!   traversal, inside one worker. A lane hitting a zero pivot dies alone
//!   ([`BatchScratch::lane_det`] reports its `Singular { step }`); its
//!   neighbours are unaffected.
//! * **Threading** (`refgen_exec`) — workers each own a scratch and share
//!   the immutable program.
//!
//! **Determinism contract**: per live lane, batched execution performs the
//! exact scalar operation sequence of a one-lane replay. The vectorized
//! Smith division computes both arms' numerators in their scalar operand
//! order and selects each lane's arm; the vectorized stamp, update and
//! solve use no FMA contraction; and the vectorized determinant fold
//! reproduces the extended-range normalization with exact bit-built
//! powers of two (easy-range lanes) or the scalar sequence itself
//! (everything else). Padded lanes replay `K₀` (`σ = 0`) and are never
//! read.
//! Results are **bit-identical** at every lane count and thread count —
//! the property the whole test tier pins.
//!
//! # Example
//!
//! ```
//! use refgen_numeric::Complex;
//! use refgen_sparse::{SparseLu, Triplets};
//!
//! # fn main() -> Result<(), refgen_sparse::FactorError> {
//! let mut a = Triplets::new(2);
//! a.add(0, 0, Complex::real(2.0));
//! a.add(0, 1, Complex::real(1.0));
//! a.add(1, 1, Complex::real(3.0));
//! let lu = SparseLu::factor(&a)?;
//! let x = lu.solve(&[Complex::real(3.0), Complex::real(3.0)]);
//! assert!((x[0] - Complex::real(1.0)).abs() < 1e-12);
//! assert!((x[1] - Complex::real(1.0)).abs() < 1e-12);
//! assert!((lu.det().to_complex() - Complex::real(6.0)).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod dense;
pub mod lu;
pub mod ordering;
pub mod symbolic;
pub mod triplets;

pub use dense::DenseMatrix;
pub use lu::{FactorError, PivotOrder, SparseLu};
pub use ordering::minimum_degree;
pub use symbolic::{BatchScratch, FactorProgram, ProgramScratch, Scalar};
pub use triplets::Triplets;
