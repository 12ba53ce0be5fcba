//! The plan/execute seam for repeated evaluation of one MNA system.
//!
//! Every consumer that evaluates the same `(MnaSystem, Scale)` pair at many
//! complex frequencies — the interpolation engine's unit-circle sampling,
//! the AC simulator's frequency sweep — used to pay full price per point:
//! re-stamp the matrix into fresh allocations, then a full Markowitz pivot
//! search. A [`SweepPlan`] hoists everything point-independent out of the
//! loop, built **once** per `(MnaSystem, Scale)`:
//!
//! * the **sparsity pattern** as an affine template `A(s) = K₀ + s·K₁`
//!   (every MNA stamp is constant or linear in `s`), so per-point assembly
//!   is one multiply-add per entry into a reused buffer. The template is
//!   rescaled from the system's stamp table, which [`MnaSystem::new`]
//!   compiles once per circuit with the positions, the duplicate merge
//!   and the pattern fingerprint already resolved: a plan build pays one
//!   pass over the raw stamps, with no assembly, lookup or sort. The plan
//!   keeps `K₀` and `K₁` as contiguous arrays, so batched evaluation
//!   stamps, replays and solves a whole lane group of points in one pass
//!   per block of eight lanes ([`FactorProgram::eval_points`]);
//! * the **RHS template** (the excitation vector is frequency-independent);
//! * a **pivot order** — from one probe factorization, or on large mesh
//!   patterns from the symbolic AMD ordering (see [`OrderingMode::Auto`]),
//!   always selected through a [`PlanCache`]: the caller's, shared by
//!   every plan of one topology, or a fresh one of the plan's own for
//!   [`SweepPlan::new`] and [`SweepPlan::for_determinant`] — held
//!   together with the **compiled symbolic kernel**
//!   ([`FactorProgram`]) built from
//!   `(pattern, pivot order)`: fill-in, slot layout, and the elimination
//!   instruction stream are computed once per plan build, or not at all
//!   when a byte-bounded process-wide memo holds them (it keeps the AMD
//!   orders and programs of patterns planned again, see
//!   [`SYMBOLIC_MEMO_BYTES`]; the probe and every numeric check run on
//!   every plan), and every point stamps `K₀ + s·K₁` straight into flat
//!   slots and replays — no pivot search, and zero sorting, searching,
//!   insertion, or allocation per point ([`SweepStats::compiled_hits`]
//!   counts these replays);
//! * a **conjugate-symmetry flag**: when every `K₀`/`K₁` entry and the RHS
//!   are real (true for every supported element), `D(s̄) = conj(D(s))`
//!   exactly, so batched samplers may solve only the closed upper half of
//!   a conjugate-paired point set and mirror the rest bit-identically
//!   (IEEE arithmetic is conjugate-equivariant; see
//!   [`SweepPlan::conjugate_symmetric`]).
//!
//! Execution state lives in a [`SweepScratch`] — reused triplet buffer,
//! program scratch, solution vector, and hit counters — so the steady
//! state allocates nothing. The plan itself is immutable and
//! `Sync`: a parallel executor shares one plan across workers, each owning
//! a scratch, and every point's result depends only on `(plan, s)` — which
//! is what makes batched sampling bit-identical at any thread count.
//!
//! # Example
//!
//! ```
//! use refgen_circuit::library::rc_ladder;
//! use refgen_mna::{
//!     MnaSystem, OrderingMode, PlanCache, Scale, SweepPlan, SweepScratch, TransferSpec,
//! };
//! use refgen_numeric::Complex;
//!
//! # fn main() -> Result<(), refgen_mna::MnaError> {
//! let circuit = rc_ladder(4, 1e3, 1e-9);
//! let sys = MnaSystem::new(&circuit)?;
//! let spec = TransferSpec::voltage_gain("VIN", "out");
//! let plan = SweepPlan::new(&sys, Scale::unit(), &spec)?;
//! let mut scratch = SweepScratch::new();
//! for k in 0..32 {
//!     let s = Complex::new(0.0, 1e5 * (k + 1) as f64);
//!     let r = plan.eval_at(s, &mut scratch)?; // refactor + solve, no search
//!     assert!(r.response.abs() <= 1.0 + 1e-9); // passive ladder
//! }
//! // Every point after the plan's probe reused the recorded pivot order.
//! assert_eq!(scratch.stats().compiled_hits, 32);
//! assert_eq!(scratch.stats().fresh_factorizations, 0);
//!
//! // `SweepPlan::new` selected its order through a fresh plan cache of
//! // its own; plans built through one shared cache probe once per cell.
//! let cache = PlanCache::new();
//! for scale in [Scale::unit(), Scale::new(1.2, 1.0)] {
//!     let mode = OrderingMode::Auto;
//!     let cached = SweepPlan::new_cached_with_ordering(&sys, scale, &spec, &cache, mode)?;
//!     assert_eq!(cached.ordering_choice(), plan.ordering_choice());
//! }
//! assert_eq!((cache.pivot_searches(), cache.shared_hits()), (1, 1));
//! # Ok(())
//! # }
//! ```
//!
//! Determinant-only sampling (the denominator polynomial of the paper's
//! eq. (9)) skips the solve entirely:
//!
//! ```
//! use refgen_circuit::library::rc_ladder;
//! use refgen_mna::{MnaSystem, Scale, SweepPlan, SweepScratch};
//! use refgen_numeric::Complex;
//!
//! # fn main() -> Result<(), refgen_mna::MnaError> {
//! let sys = MnaSystem::new(&rc_ladder(4, 1e3, 1e-9))?;
//! let plan = SweepPlan::for_determinant(&sys, Scale::new(1e9, 1e3));
//! let mut scratch = SweepScratch::new();
//! let d = plan.eval_det(Complex::ONE, &mut scratch);
//! assert!(!d.is_zero());
//! # Ok(())
//! # }
//! ```

use crate::error::MnaError;
use crate::faults;
use crate::system::{MnaSystem, Scale, StampTable};
use crate::transfer::{OutputSpec, TransferResponse, TransferSpec};
use refgen_numeric::{Complex, ExtComplex};
use refgen_sparse::{FactorError, FactorProgram, PivotOrder, ProgramScratch, SparseLu, Triplets};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Which symbolic ordering strategy a plan build uses for its compiled
/// kernel. See the crate docs of `refgen_sparse` for the three orderings
/// and their trade-offs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OrderingMode {
    /// Pick by pattern size and fill.
    /// - Below dimension 256, probe Markowitz, and switch to AMD when the
    ///   probe order's realized fill crosses the mesh threshold *and* AMD
    ///   actually reduces it.
    /// - From dimension 256 on, compute AMD first and adopt it without a
    ///   probe when its own fill crosses the mesh threshold. Otherwise
    ///   probe and decide as below dimension 256, reusing the AMD program.
    ///
    /// AMD is adopted only when its replay at the generic probe point
    /// meets no zero pivot.
    #[default]
    Auto,
    /// Always the probe Markowitz order (pre-mesh behaviour).
    Markowitz,
    /// Force the AMD order whenever it compiles and factors the probe
    /// point; fall back to Markowitz only if it cannot.
    Amd,
}

/// Which ordering a built plan actually adopted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectedOrdering {
    /// The probe-recorded Markowitz order.
    Markowitz,
    /// The AMD order from `refgen_sparse::ordering::minimum_degree`.
    Amd,
}

/// The outcome of a plan build's ordering selection: what was adopted and
/// the realized fill-in figures that drove the choice (compare these to
/// see what AMD bought on a given pattern).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderingChoice {
    /// The adopted ordering.
    pub selected: SelectedOrdering,
    /// Fill-in slots of the probe-Markowitz order: the probe
    /// factorization's certified structural fill
    /// ([`SparseLu::structural_fill`]) when it has one, which equals the
    /// compiled program's [`FactorProgram::fill_in`] without compiling it;
    /// otherwise the fill of the program compiled from the probe order.
    /// `None` when no probe ran: Auto adopted AMD on a large mesh pattern
    /// without one (see [`OrderingMode::Auto`]).
    pub markowitz_fill: Option<usize>,
    /// Fill-in slots of the compiled AMD program (`None` when AMD was
    /// never attempted — [`OrderingMode::Markowitz`], or Auto below
    /// dimension 256 with the probe's fill under the threshold).
    pub amd_fill: Option<usize>,
}

/// Counters a [`SweepScratch`] accumulates across evaluations: how often
/// the recorded pivot order was replayed numerically versus how often a
/// full Markowitz pivot search had to run, and how far down the
/// singular-recovery ladder any point had to climb.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use = "sweep accounting is the observable the determinism tiers pin — read it or drop it explicitly"]
pub struct SweepStats {
    /// Evaluations that replayed the plan's recorded pivot order through
    /// its compiled symbolic kernel ([`FactorProgram`]), the cheap path.
    /// Batched lanes ([`SweepPlan::eval_batch`]) count one hit per live
    /// lane, exactly like sequential points. Every evaluation is either a
    /// compiled hit or a fresh factorization.
    pub compiled_hits: u64,
    /// Evaluations that paid a full Markowitz factorization (no usable
    /// order, or the recorded order hit an exact zero pivot). On a plan
    /// with a compiled kernel each one ends at exactly one ladder rung:
    /// `recovered_fresh`, `recovered_reordered` or `unrecoverable`.
    pub fresh_factorizations: u64,
    /// Points rescued at rung 1 of the singular-recovery ladder: a
    /// prescribed-order replay reported a singular pivot and the fresh
    /// value-aware Markowitz factorization succeeded anyway.
    pub recovered_fresh: u64,
    /// Points rescued at rung 2: fresh Markowitz failed too, and a kernel
    /// recompiled under the *alternate* ordering family (AMD for a
    /// Markowitz plan, Markowitz for an AMD plan) factored the point.
    pub recovered_reordered: u64,
    /// Points where every rung failed — surfaced to callers as the typed
    /// per-point [`MnaError::Unrecoverable`].
    pub unrecoverable: u64,
}

impl std::ops::Add for SweepStats {
    type Output = SweepStats;

    /// Field-wise sum: the accounting of two disjoint sets of evaluations.
    fn add(self, rhs: SweepStats) -> SweepStats {
        SweepStats {
            compiled_hits: self.compiled_hits + rhs.compiled_hits,
            fresh_factorizations: self.fresh_factorizations + rhs.fresh_factorizations,
            recovered_fresh: self.recovered_fresh + rhs.recovered_fresh,
            recovered_reordered: self.recovered_reordered + rhs.recovered_reordered,
            unrecoverable: self.unrecoverable + rhs.unrecoverable,
        }
    }
}

impl std::ops::Sub for SweepStats {
    type Output = SweepStats;

    /// Field-wise difference: what a scratch counted between two reads of
    /// its [`SweepScratch::stats`] (`after - before`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any field of `rhs` exceeds `self`'s.
    fn sub(self, rhs: SweepStats) -> SweepStats {
        SweepStats {
            compiled_hits: self.compiled_hits - rhs.compiled_hits,
            fresh_factorizations: self.fresh_factorizations - rhs.fresh_factorizations,
            recovered_fresh: self.recovered_fresh - rhs.recovered_fresh,
            recovered_reordered: self.recovered_reordered - rhs.recovered_reordered,
            unrecoverable: self.unrecoverable - rhs.unrecoverable,
        }
    }
}

/// Per-executor mutable state for [`SweepPlan`] evaluation: reused
/// assembly/factorization/solve buffers plus [`SweepStats`] counters.
///
/// One scratch per thread; the plan is shared. Every evaluation replays
/// the *plan's* pivot order, and a point where that order dies (exact zero
/// pivot) climbs the singular-recovery ladder on its own, so results are a
/// pure function of `(plan, s)` — what batched sampling needs for
/// thread-count-independent output.
#[derive(Clone, Debug, Default)]
pub struct SweepScratch {
    triplets: Triplets,
    prog: ProgramScratch,
    x: Vec<Complex>,
    stats: SweepStats,
}

impl SweepScratch {
    /// An empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        SweepScratch::default()
    }

    /// The same scratch as [`SweepScratch::new`]: scratches no longer
    /// adopt fallback pivot orders.
    #[deprecated(note = "scratches no longer adopt fallback orders; use `SweepScratch::new`")]
    pub fn adopting() -> Self {
        SweepScratch::new()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }
}

/// Where a factorization for one evaluation point lives.
enum Factored {
    /// In the scratch's program scratch (compiled-kernel replay
    /// succeeded). Carries the kernel that replayed: the plan's own, or
    /// the ladder's alternate-ordering kernel.
    Program(Arc<FactorProgram>),
    /// A fresh Markowitz factorization (fallback path).
    Fresh(SparseLu),
}

/// Resolved output observation: matrix rows instead of node names.
#[derive(Clone, Copy, Debug)]
enum PlanOutput {
    Node(Option<usize>),
    Differential(Option<usize>, Option<usize>),
}

/// Resolved transfer-function drive: source amplitude + output rows.
#[derive(Clone, Copy, Debug)]
struct PlanDrive {
    amp: f64,
    out: PlanOutput,
}

impl PlanDrive {
    fn response_from(&self, x: &[Complex]) -> Complex {
        let v = |row: Option<usize>| row.map(|r| x[r]).unwrap_or(Complex::ZERO);
        let out = match self.out {
            PlanOutput::Node(r) => v(r),
            PlanOutput::Differential(p, m) => v(p) - v(m),
        };
        out / self.amp
    }

    /// As [`PlanDrive::response_from`], reading one lane of a column-major
    /// batched solution (`x[col·lanes + lane]`) — the identical scalar
    /// operations, so the result is bit-identical to the one-lane path.
    fn response_from_lane(&self, x: &[Complex], lanes: usize, lane: usize) -> Complex {
        let v = |row: Option<usize>| row.map(|r| x[r * lanes + lane]).unwrap_or(Complex::ZERO);
        let out = match self.out {
            PlanOutput::Node(r) => v(r),
            PlanOutput::Differential(p, m) => v(p) - v(m),
        };
        out / self.amp
    }
}

/// A compiled evaluation plan for one `(MnaSystem, Scale)` pair. See the
/// [module docs](self) for the architecture and examples.
#[derive(Clone, Debug)]
pub struct SweepPlan {
    dim: usize,
    scale: Scale,
    /// `(row, col, constant, s-coefficient)` per stamped position, sorted
    /// and with duplicates merged; the matrix at `s` holds
    /// `constant + s·coefficient` at each position.
    pattern: Vec<(usize, usize, Complex, Complex)>,
    /// The pattern's constants and `s`-coefficients as two contiguous
    /// arrays, in pattern order — what the batched pass
    /// ([`FactorProgram::eval_points`]) stamps from, built once per plan.
    k0: Vec<Complex>,
    k1: Vec<Complex>,
    rhs: Vec<Complex>,
    /// The recorded pivot order and the symbolic kernel compiled from
    /// `(pattern, order)` — the kernel is shared by reference across
    /// [`PlanCache`] hits (symbolic analysis is value- and
    /// scale-independent). `None` when no order was usable (a singular
    /// probe).
    compiled: Option<(PivotOrder, Arc<FactorProgram>)>,
    /// `true` when every `K₀`/`K₁` entry and every RHS entry is real, so
    /// `D(s̄) = conj(D(s))` holds exactly (see the [module docs](self)).
    conjugate_symmetric: bool,
    drive: Option<PlanDrive>,
    /// The ordering-selection outcome (`None` when the probe was singular
    /// and the plan carries no order at all).
    ordering: Option<OrderingChoice>,
}

/// What one ordering selection produced: the adopted order, its compiled
/// kernel, and the choice record.
#[derive(Clone, Debug)]
struct PlanSelection {
    order: PivotOrder,
    program: Arc<FactorProgram>,
    choice: OrderingChoice,
}

/// A cell of a [`PlanCache`] grid: a scale's offset from its anchor's
/// opening scale in whole [`PlanCache::CELL_DECADES`], per axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cell {
    f: i32,
    g: i32,
}

impl Cell {
    /// The cell of the anchor's opening scale, whose selection is the
    /// anchor's own ordering selection.
    const ROOT: Cell = Cell { f: 0, g: 0 };
}

/// The nominal system every selection of one pattern is computed from,
/// held by its stamp table, and its opening scale.
#[derive(Clone, Debug)]
struct Anchor {
    fingerprint: u64,
    dim: usize,
    stamps: Arc<StampTable>,
    scale: Scale,
}

impl Anchor {
    /// The cell `scale` falls in: the nearest whole cell offset per axis.
    fn cell(&self, scale: Scale) -> Cell {
        let index = |x: f64, x0: f64| ((x / x0).log10() / PlanCache::CELL_DECADES).round() as i32;
        Cell { f: index(scale.f, self.scale.f), g: index(scale.g, self.scale.g) }
    }

    /// The scale at the centre of `cell`; the opening scale for the root.
    fn centre(&self, cell: Cell) -> Scale {
        let step = |i: i32| 10f64.powf(f64::from(i) * PlanCache::CELL_DECADES);
        Scale { f: self.scale.f * step(cell.f), g: self.scale.g * step(cell.g) }
    }
}

/// One certified or probed cell of a [`PlanCache`]: the selection every
/// plan of `(fingerprint, mode)` whose scale falls in `cell` receives
/// (`None` when the anchor's probe there is singular).
#[derive(Debug)]
struct CacheEntry {
    fingerprint: u64,
    /// The ordering mode the entry was built under: a forced-AMD build
    /// must never hand its order to a Markowitz-mode plan or vice versa.
    mode: OrderingMode,
    cell: Cell,
    selection: Option<PlanSelection>,
}

/// What a [`PlanCache`] guards with its lock.
#[derive(Debug, Default)]
struct CacheState {
    anchors: Vec<Anchor>,
    entries: Vec<CacheEntry>,
}

impl CacheState {
    fn entry(&self, fingerprint: u64, mode: OrderingMode, cell: Cell) -> Option<&CacheEntry> {
        self.entries
            .iter()
            .find(|e| e.fingerprint == fingerprint && e.mode == mode && e.cell == cell)
    }

    /// Records `selection` as the cell's and returns it.
    fn record(
        &mut self,
        fingerprint: u64,
        mode: OrderingMode,
        cell: Cell,
        selection: Option<PlanSelection>,
    ) -> Option<PlanSelection> {
        self.entries.push(CacheEntry { fingerprint, mode, cell, selection: selection.clone() });
        selection
    }

    /// The anchor of `sys`'s pattern, adopting `(sys, scale)` when the
    /// pattern has none yet.
    fn anchor(&mut self, sys: &MnaSystem, scale: Scale) -> Anchor {
        let fingerprint = sys.pattern_fingerprint();
        if let Some(anchor) = self.anchors.iter().find(|a| a.fingerprint == fingerprint) {
            return anchor.clone();
        }
        let stamps = Arc::clone(sys.stamp_table());
        let anchor = Anchor { fingerprint, dim: sys.dim(), stamps, scale };
        self.anchors.push(anchor.clone());
        anchor
    }
}

/// Shares pivot orders and compiled programs between [`SweepPlan`]s of
/// the **same topology**: every window of a session, and every variant
/// of a Monte-Carlo or sensitivity fleet, where a pivot search per plan
/// would dominate.
///
/// **Anchor.** Each sparsity pattern (keyed by its fingerprint: the
/// dimension plus a hash of every stamped position, so same-dimension
/// circuits of different topology never share) has one anchor, a nominal
/// system and its opening scale, and every order the cache hands out for
/// that pattern is computed from the anchor alone. A session registers
/// its circuit; a fleet registers its base circuit, then the
/// lowest-index variant of every other pattern, before it fans out
/// ([`PlanCache::register_anchor`]). A pattern planned without a
/// registered anchor adopts the first system and scale planned.
///
/// **Cells.** Scales fall into a fixed grid of cells, one
/// [`PlanCache::CELL_DECADES`] wide per axis and centred on the anchor's
/// opening scale; entries are keyed by `(fingerprint, mode, cell)`.
///
/// **Gate.** The root cell's selection is the anchor's ordering selection
/// at its opening scale (a probe, or on large mesh patterns an unprobed
/// AMD order; see [`OrderingMode::Auto`]). Every other cell is certified
/// once, at its centre with the anchor's values: a replay of the root's
/// program must meet no zero pivot and keep element growth within
/// [`PlanCache::GROWTH_BOUND`]. A cell that passes shares the root's
/// order and `Arc`'d program; one that fails runs its own selection on
/// the anchor at the cell centre under the plan's [`OrderingMode`]. Either way a plan's order is a function of its
/// `(anchor, cell)` only, never of visit order, thread count or what the
/// cache already holds, so results are bit-identical however a fleet is
/// scheduled.
///
/// Pivot-order *replay* on a variant's own values only fails on an
/// exact-zero prescribed pivot, in which case the point climbs the
/// singular-recovery ladder: a fresh Markowitz factorization
/// ([`SweepStats::recovered_fresh`]), then a recompile under the
/// alternate ordering ([`SweepStats::recovered_reordered`]). A shared
/// order is an optimization, never a correctness hazard.
///
/// The cache is `Sync`; lookups, gates and probes are lock-protected and
/// happen at plan-build time (never inside point evaluation).
#[derive(Debug, Default)]
pub struct PlanCache {
    state: Mutex<CacheState>,
    searches: AtomicUsize,
    shared: AtomicUsize,
    compiled: AtomicUsize,
}

impl PlanCache {
    /// Width of a cell, in decades per scale axis. The scale walk's
    /// windows step by ten or more decades on one axis, so most windows
    /// land in cells of their own, while a verify re-interpolation
    /// (±0.2 decades) shares its window's cell.
    pub const CELL_DECADES: f64 = 1.0;

    /// The largest element growth — `max|U|` (pivots included) over
    /// `max|A|` — a replay of the root order may show at a cell centre and
    /// still certify the cell.
    ///
    /// Wilkinson's bound puts the backward error of LU at a small multiple
    /// of `n·u·ρ·max|A|`, with `u` the unit round-off and `ρ` the growth.
    /// At `ρ ≤ 10` a certified order loses at most one decade more than a
    /// growth-free factorization: on the µA741 (`n = 41`) that is
    /// `n·u·ρ ≈ 4.6e-14`, still below the `10^{-13}` floor
    /// (`refgen_core`'s `RefgenConfig::NOISE_DECADES`) that the engine's
    /// validity test already assumes lost to round-off in every window.
    /// The Markowitz probe's own orders grow by at most 1.83 across the
    /// µA741 scale walk.
    ///
    /// The bound gates only reuse across cells, never the ordering
    /// choice: a symbolic AMD order does not pivot for size, and on
    /// `grid_rc_mesh(32, 32, 7)` its program grows by 6.5e3 at the
    /// generic probe point (the Markowitz probe's by 1.0), yet an AMD
    /// sweep of that mesh over 1–30 MHz still matches a fresh LU to
    /// 9.0e-15 relative. A cell whose replay of such a root grows past
    /// the bound runs its own selection.
    pub const GROWTH_BOUND: f64 = 10.0;

    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Registers `sys` at its opening `scale` as the anchor of its
    /// sparsity pattern, unless the pattern has one already: the first
    /// registration wins, and later ones change nothing.
    pub fn register_anchor(&self, sys: &MnaSystem, scale: Scale) {
        self.lock_state().anchor(sys, scale);
    }

    /// Ordering selections run from scratch by plans built through this
    /// cache — each one a Markowitz probe factorization (a full pivot
    /// search), or on a large mesh pattern an AMD order that made the
    /// probe unnecessary. The number a fleet is trying to keep at "one
    /// per topology".
    pub fn pivot_searches(&self) -> usize {
        self.searches.load(Ordering::Relaxed)
    }

    /// Plan builds that reused a recorded order instead of probing, the
    /// first build in a certified cell included.
    pub fn shared_hits(&self) -> usize {
        self.shared.load(Ordering::Relaxed)
    }

    /// Ordering selections recorded through this cache, each holding one
    /// [`FactorProgram`] — the count of recorded selections, not of
    /// compile calls (a selection may need none, one or two programs
    /// while choosing, and each comes from the process-wide symbolic memo,
    /// [`SYMBOLIC_MEMO_BYTES`], compiled unless the memo holds it).
    /// Symbolic analysis is value- and scale-independent, so a whole
    /// fleet of same-topology plans records **one** when every cell it
    /// visits certifies — cache hits hand out the same `Arc`'d program the
    /// root selection stored.
    pub fn programs_compiled(&self) -> usize {
        self.compiled.load(Ordering::Relaxed)
    }

    /// Number of recorded `(pattern, mode, cell)` entries.
    pub fn len(&self) -> usize {
        self.lock_state().entries.len()
    }

    /// Locks the cache state, recovering it from a poisoned lock: entries
    /// are pushed only after a selection has been fully built, so a panic
    /// while the lock was held (say, inside a probe) leaves the state
    /// complete and valid — it just lacks the half-built entry.
    fn lock_state(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The recorded selection of the cell `scale` falls in for `sys`'s
    /// pattern under `mode`, certifying or probing the cell first if it
    /// has none.
    fn selection_for(
        &self,
        sys: &MnaSystem,
        scale: Scale,
        mode: OrderingMode,
    ) -> Option<PlanSelection> {
        self.selection_with(sys, scale, mode, select_ordering)
    }

    /// [`PlanCache::selection_for`] with the probe as a parameter.
    fn selection_with(
        &self,
        sys: &MnaSystem,
        scale: Scale,
        mode: OrderingMode,
        select: impl Fn(
            usize,
            &[(usize, usize, Complex, Complex)],
            OrderingMode,
        ) -> Option<PlanSelection>,
    ) -> Option<PlanSelection> {
        // The lock is held across gate, probe and record: concurrent
        // misses on one cell — a fleet's variants planned in parallel —
        // serialize into one gate or probe plus hits, which keeps the
        // counters deterministic at any thread count.
        let mut state = self.lock_state();
        let anchor = state.anchor(sys, scale);
        let cell = anchor.cell(scale);
        if let Some(entry) = state.entry(anchor.fingerprint, mode, cell) {
            if entry.selection.is_some() {
                self.shared.fetch_add(1, Ordering::Relaxed);
            }
            return entry.selection.clone();
        }
        let probe = |cell: Cell| {
            self.searches.fetch_add(1, Ordering::Relaxed);
            let selection = select(anchor.dim, &anchor.stamps.affine(anchor.centre(cell)), mode);
            if selection.is_some() {
                self.compiled.fetch_add(1, Ordering::Relaxed);
            }
            selection
        };
        let selection = if cell == Cell::ROOT {
            probe(cell)
        } else {
            let root = match state.entry(anchor.fingerprint, mode, Cell::ROOT) {
                Some(entry) => entry.selection.clone(),
                None => state.record(anchor.fingerprint, mode, Cell::ROOT, probe(Cell::ROOT)),
            };
            let centre = anchor.stamps.affine(anchor.centre(cell));
            match root.filter(|root| certifies(&root.program, &centre)) {
                Some(root) => {
                    self.shared.fetch_add(1, Ordering::Relaxed);
                    Some(root)
                }
                None => probe(cell),
            }
        };
        state.record(anchor.fingerprint, mode, cell, selection)
    }
}

/// The cell gate: `true` when a replay of `program` on `pattern` at the
/// generic probe point meets no zero pivot and keeps element growth within
/// [`PlanCache::GROWTH_BOUND`].
fn certifies(program: &FactorProgram, pattern: &[(usize, usize, Complex, Complex)]) -> bool {
    let s = generic_probe();
    let values = pattern.iter().map(|&(_, _, k0, k1)| k0 + s * k1);
    program
        .refactor_growth(values, &mut ProgramScratch::new())
        .is_ok_and(|growth| growth <= PlanCache::GROWTH_BOUND)
}

/// The affine stamp pattern `A(s) = K₀ + s·K₁` of `(sys, scale)`,
/// deduplicated and sorted by position: one pass over the system's stamp
/// table ([`MnaSystem::affine_pattern`]). Shared with the transient engine
/// ([`crate::transient`]), whose companion matrix is this same pattern
/// evaluated at one real point `s = γ`.
pub(crate) fn affine_pattern(
    sys: &MnaSystem,
    scale: Scale,
) -> (usize, Vec<(usize, usize, Complex, Complex)>) {
    (sys.dim(), sys.affine_pattern(scale))
}

/// The generic probe point: angle of one radian on the unit circle — an
/// irrational fraction of the circle, so it never coincides with a DFT
/// sampling point.
fn generic_probe() -> Complex {
    Complex::new(1f64.cos(), 1f64.sin())
}

/// One probe factorization at the generic point, recording the pivot order
/// every evaluation will replay. `None` when the probe is singular.
fn probe_order(dim: usize, pattern: &[(usize, usize, Complex, Complex)]) -> Option<PivotOrder> {
    probe_order_at(dim, pattern, generic_probe())
}

/// Probe factorization of `K₀ + s·K₁` at an arbitrary point, recording the
/// pivot order. The transient engine probes at its real companion point
/// `s = γ` — the exact matrix every step replays.
pub(crate) fn probe_order_at(
    dim: usize,
    pattern: &[(usize, usize, Complex, Complex)],
    probe: Complex,
) -> Option<PivotOrder> {
    probe_at(dim, pattern, probe).map(|lu| lu.order().clone())
}

/// The probe factorization itself (`None` when singular).
fn probe_at(
    dim: usize,
    pattern: &[(usize, usize, Complex, Complex)],
    probe: Complex,
) -> Option<SparseLu> {
    let mut probe_t = Triplets::new(dim);
    for &(r, c, k0, k1) in pattern {
        probe_t.add(r, c, k0 + probe * k1);
    }
    SparseLu::factor(&probe_t).ok()
}

/// The symbolic kernel for `(pattern, order)`, `None` when the program
/// would pass its compile budget ([`FactorError::TooLarge`]): the plan
/// then replays no program. [`FactorProgram::compile`]'s other failures, a
/// dimension mismatch or a structurally absent pivot, cannot happen for an
/// order a probe just recorded on this very pattern — the only orders
/// compiled here.
///
/// The program comes from the process-wide [symbolic memo](SYMBOLIC_MEMO_BYTES):
/// a pattern and order the memo holds (a failed compile included) is not
/// compiled again, and every plan of it shares one `Arc`'d program.
/// Compilation is a pure function of the dimension, the positions and the
/// order, so a memoized program is the one a compile would return.
pub(crate) fn compile_program(
    dim: usize,
    pattern: &[(usize, usize, Complex, Complex)],
    order: &PivotOrder,
) -> Option<Arc<FactorProgram>> {
    let positions = positions_of(pattern);
    let compile = || Analysis {
        order: order.clone(),
        program: FactorProgram::compile(dim, &positions, order).map(Arc::new),
    };
    SYMBOLIC_MEMO.analysis(dim, &positions, Some(order), compile).program.ok()
}

/// The AMD order of `pattern`'s positions and the program compiled from
/// it (or the compile's failure), through the process-wide symbolic memo:
/// both are pure functions of the dimension and the positions.
fn amd_analysis(dim: usize, pattern: &[(usize, usize, Complex, Complex)]) -> Analysis {
    let positions = positions_of(pattern);
    let analyze = || {
        let order = refgen_sparse::ordering::minimum_degree(dim, &positions);
        let program = FactorProgram::compile(dim, &positions, &order).map(Arc::new);
        Analysis { order, program }
    };
    SYMBOLIC_MEMO.analysis(dim, &positions, None, analyze)
}

/// The positions of an affine pattern, in pattern order.
fn positions_of(pattern: &[(usize, usize, Complex, Complex)]) -> Vec<(usize, usize)> {
    pattern.iter().map(|&(r, c, _, _)| (r, c)).collect()
}

/// The byte budget of the process-wide symbolic memo, which keeps the
/// value-independent half of plan building — the AMD order of a pattern
/// and the [`FactorProgram`] compiled from a pattern under an order, or the
/// compile's typed failure ([`FactorError::TooLarge`]) — so that a process
/// planning one topology many times (the windows of a session, a stream of
/// sessions or sweeps, a transient per run) orders and compiles it once.
///
/// Every value-dependent step still runs on every plan: the Markowitz
/// probe, AMD's validation replay at the generic probe point, the
/// [`PlanCache`] cell gates and the recovery ladder. A lookup hits only on
/// exact equality of dimension, position list and order, so a plan's output
/// is bit for bit the same whether the memo was cold or warm.
///
/// A key whose compile succeeded is kept only when it is asked for a
/// second time: the first request builds, returns its analysis and
/// remembers only the key's hash (the last [`SEEN_KEYS`] of them), so a
/// process planning a stream of distinct patterns keeps no program and
/// its allocator recycles each program's memory for the next, while a
/// pattern planned again is held from its second plan on. A failed
/// compile has no program to keep and is the costliest to repeat (a
/// `TooLarge` compile runs up to its budget), so it is kept at once.
///
/// Retained bytes — each entry's key, order and program
/// ([`FactorProgram::heap_bytes`]) — never exceed this budget: the least
/// recently used entries are evicted first, and an entry larger than the
/// whole budget is returned without being kept. The budget holds about
/// two dozen AMD programs of the 32×32 grid mesh (2.6 MB each), one of
/// the 64×64 grid (37 MB), or thousands of µA741-sized ones (8 KB).
pub const SYMBOLIC_MEMO_BYTES: usize = 64 << 20;

/// How many hashes of keys asked for once the symbolic memo remembers
/// (8 KiB, apart from [`SYMBOLIC_MEMO_BYTES`]); the oldest is forgotten
/// first.
const SEEN_KEYS: usize = 1024;

/// The process-wide symbolic memo (see [`SYMBOLIC_MEMO_BYTES`]).
static SYMBOLIC_MEMO: SymbolicMemo = SymbolicMemo::new(SYMBOLIC_MEMO_BYTES);

/// Size and counters of the process-wide symbolic memo (see
/// [`SYMBOLIC_MEMO_BYTES`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SymbolicMemoStats {
    /// Entries held now.
    pub entries: usize,
    /// Bytes the held entries retain; never more than
    /// [`SYMBOLIC_MEMO_BYTES`].
    pub bytes: usize,
    /// Lookups answered from a held entry since the process started.
    pub hits: u64,
    /// Lookups that ordered or compiled since the process started.
    pub misses: u64,
}

/// The process-wide symbolic memo's current size and counters.
pub fn symbolic_memo_stats() -> SymbolicMemoStats {
    SYMBOLIC_MEMO.stats()
}

/// Drops every entry of the process-wide symbolic memo and forgets the
/// keys it has seen (its counters keep counting), so the next plan of any
/// pattern orders and compiles from scratch and is not kept: a cold start
/// for measurements and tests. Plans already built keep their programs.
pub fn clear_symbolic_memo() {
    SYMBOLIC_MEMO.clear();
}

/// The value-independent analysis of one pattern under one order: the
/// order and the program compiled from it, or the compile's failure.
#[derive(Clone, Debug)]
struct Analysis {
    order: PivotOrder,
    program: Result<Arc<FactorProgram>, FactorError>,
}

/// One memoized analysis and its key: the dimension, the position list
/// and the order, or for an AMD entry (`amd`) the positions alone, whose
/// AMD order is part of the value.
#[derive(Debug)]
struct MemoEntry {
    hash: u64,
    dim: usize,
    positions: Vec<(usize, usize)>,
    amd: bool,
    analysis: Analysis,
    bytes: usize,
    last_used: u64,
}

/// What a [`SymbolicMemo`] guards with its lock.
#[derive(Debug)]
struct MemoState {
    /// Held entries by key hash (keys whose hashes collide share a
    /// bucket).
    entries: BTreeMap<u64, Vec<MemoEntry>>,
    held: usize,
    bytes: usize,
    /// Hashes of keys asked for once and not held, oldest first.
    seen: VecDeque<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl MemoState {
    /// The held analysis of the entry `hash` and `matches` select, marked
    /// as used now.
    fn touch(&mut self, hash: u64, matches: impl Fn(&MemoEntry) -> bool) -> Option<Analysis> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entries.get_mut(&hash)?.iter_mut().find(|e| matches(e))?;
        entry.last_used = clock;
        Some(entry.analysis.clone())
    }

    /// `true` when the key `hash` was asked for before and is not held:
    /// it is forgotten as seen, to be held. Otherwise the hash is
    /// remembered as seen once, and `false`.
    fn seen_before(&mut self, hash: u64) -> bool {
        if let Some(i) = self.seen.iter().position(|&h| h == hash) {
            self.seen.remove(i);
            return true;
        }
        if self.seen.len() == SEEN_KEYS {
            self.seen.pop_front();
        }
        self.seen.push_back(hash);
        false
    }

    /// Holds `entry` unless it alone passes `budget`, evicting the least
    /// recently used entries until the held bytes fit.
    fn insert(&mut self, entry: MemoEntry, budget: usize) {
        if entry.bytes > budget {
            return;
        }
        self.held += 1;
        self.bytes += entry.bytes;
        self.entries.entry(entry.hash).or_default().push(entry);
        while self.bytes > budget {
            let (hash, i) = self
                .entries
                .iter()
                .flat_map(|(&hash, bucket)| {
                    bucket.iter().enumerate().map(move |(i, e)| (hash, i, e))
                })
                .min_by_key(|(_, _, e)| e.last_used)
                .map(|(hash, i, _)| (hash, i))
                .expect("held bytes come from held entries");
            let bucket = self.entries.get_mut(&hash).expect("the oldest entry's bucket");
            self.bytes -= bucket.swap_remove(i).bytes;
            self.held -= 1;
            if bucket.is_empty() {
                self.entries.remove(&hash);
            }
        }
    }
}

/// A byte-bounded, least-recently-used memo of [`Analysis`] values, keyed
/// by dimension, positions and order (see [`SYMBOLIC_MEMO_BYTES`]).
#[derive(Debug)]
struct SymbolicMemo {
    budget: usize,
    state: Mutex<MemoState>,
}

impl SymbolicMemo {
    const fn new(budget: usize) -> SymbolicMemo {
        let state = MemoState {
            entries: BTreeMap::new(),
            held: 0,
            bytes: 0,
            seen: VecDeque::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        };
        SymbolicMemo { budget, state: Mutex::new(state) }
    }

    /// Locks the state, recovering it from a poisoned lock: an entry is
    /// pushed only once built, so a panic under the lock leaves the state
    /// valid.
    fn lock(&self) -> MutexGuard<'_, MemoState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The analysis of `positions` under `order` (under their AMD order
    /// when `order` is `None`): the held one, or the one `build` returns,
    /// which the memo then holds if the key was asked for before (see
    /// [`SYMBOLIC_MEMO_BYTES`]). `build` runs outside the lock; when two
    /// threads build one held key at once, the first insert wins and both
    /// get its value.
    fn analysis(
        &self,
        dim: usize,
        positions: &[(usize, usize)],
        order: Option<&PivotOrder>,
        build: impl FnOnce() -> Analysis,
    ) -> Analysis {
        let hash = memo_hash(dim, positions, order);
        let matches = |e: &MemoEntry| {
            e.dim == dim
                && e.amd == order.is_none()
                && e.positions == positions
                && order.is_none_or(|order| *order == e.analysis.order)
        };
        {
            let mut state = self.lock();
            if let Some(held) = state.touch(hash, matches) {
                state.hits += 1;
                return held;
            }
            state.misses += 1;
        }
        let analysis = build();
        let mut state = self.lock();
        if let Some(held) = state.touch(hash, matches) {
            return held;
        }
        if analysis.program.is_ok() && !state.seen_before(hash) {
            return analysis;
        }
        let order_bytes = 2 * analysis.order.dim() * std::mem::size_of::<usize>();
        let program_bytes = analysis.program.as_ref().map_or(0, |p| p.heap_bytes());
        let bytes = std::mem::size_of::<MemoEntry>()
            + std::mem::size_of_val(positions)
            + order_bytes
            + program_bytes;
        let entry = MemoEntry {
            hash,
            dim,
            positions: positions.to_vec(),
            amd: order.is_none(),
            analysis: analysis.clone(),
            bytes,
            last_used: state.clock,
        };
        state.insert(entry, self.budget);
        analysis
    }

    fn stats(&self) -> SymbolicMemoStats {
        let state = self.lock();
        SymbolicMemoStats {
            entries: state.held,
            bytes: state.bytes,
            hits: state.hits,
            misses: state.misses,
        }
    }

    fn clear(&self) {
        let mut state = self.lock();
        state.entries.clear();
        state.held = 0;
        state.seen.clear();
        state.bytes = 0;
    }
}

/// A 64-bit hash of a memo key: the dimension, every position and, for
/// an order key, every pivot, one word per pair. Consecutive words go to
/// four independent multiply chains, so a key hashes at about four words
/// per chain step.
fn memo_hash(dim: usize, positions: &[(usize, usize)], order: Option<&PivotOrder>) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let pair = |a: usize, b: usize| (a as u64) << 32 ^ b as u64;
    let mut lanes = [K, K ^ 1, K ^ 2, K ^ 3];
    let mut words = 0usize;
    let mut mix = |word: u64| {
        let lane = &mut lanes[words % 4];
        *lane = (*lane ^ word).wrapping_mul(K).rotate_left(29);
        words += 1;
    };
    mix(dim as u64);
    positions.iter().for_each(|&(r, c)| mix(pair(r, c)));
    match order {
        None => mix(u64::MAX),
        Some(order) => order.rows().iter().zip(order.cols()).for_each(|(&r, &c)| mix(pair(r, c))),
    }
    lanes.iter().fold(0, |h, &lane| (h ^ lane).wrapping_mul(K).rotate_left(29))
}

/// The mesh regime's fill threshold: fill beyond the raw pattern size (or
/// the dimension, whichever is larger) marks patterns where replay cost
/// is fill-dominated and a symbolic reordering can pay. Auto attempts AMD
/// once the Markowitz probe's fill exceeds it, and from
/// [`AMD_FIRST_DIM`] on adopts AMD unprobed once AMD's own fill does.
fn amd_fill_threshold(dim: usize, nnz: usize) -> usize {
    dim.max(nnz)
}

/// The dimension from which Auto computes AMD before the Markowitz probe.
/// Read from the ordering corpus of `tests/mesh_scaling.rs`: every
/// pattern there up to dimension 201 (the op-amps, ladders, grids to
/// 12×12 and random meshes to 200 nodes) keeps the probe order under the
/// probe-first rule, and every grid from 16×16 (dimension 257) adopts
/// AMD, so from here on the probe would only learn a fill it discards:
/// skipping it cuts the default plan build of a 32×32 grid about
/// fourfold (the `plan_mesh1024_auto` row of `perf_snapshot`).
const AMD_FIRST_DIM: usize = 256;

/// The full ordering selection for one `(pattern, mode)`. Returns `None`
/// only when no usable order exists — the probe is singular, or the
/// program of every order it would adopt passes its compile budget — and
/// the plan then carries none: every point pays a fresh Markowitz
/// factorization.
///
/// * Auto from [`AMD_FIRST_DIM`] on first tries AMD
///   ([`try_amd_program`]) and adopts it, unprobed, when its fill
///   exceeds [`amd_fill_threshold`]: the mesh regime, where the probe
///   would only learn a fill it then discards.
/// * Otherwise it probes Markowitz and — per mode — evaluates the AMD
///   alternative (reusing the one already tried) and adopts it if it
///   compiles, factors the probe point, and (in Auto mode) actually
///   reduces fill. A singular probe gives `None`.
///
/// Only the winning ordering's program is compiled: the Markowitz fill
/// that drives the choice comes from the probe factorization whenever it
/// certifies it ([`SparseLu::structural_fill`]), so a selection that
/// adopts AMD never compiles the Markowitz program it would discard. A
/// probe that skipped an exact-zero entry compiles the Markowitz program
/// up front for its fill, as every selection once did.
fn select_ordering(
    dim: usize,
    pattern: &[(usize, usize, Complex, Complex)],
    mode: OrderingMode,
) -> Option<PlanSelection> {
    let threshold = amd_fill_threshold(dim, pattern.len());
    let amd_selection = |(order, program): (PivotOrder, Arc<FactorProgram>), markowitz_fill| {
        let amd_fill = Some(program.fill_in());
        let choice = OrderingChoice { selected: SelectedOrdering::Amd, markowitz_fill, amd_fill };
        PlanSelection { order, program, choice }
    };
    // `Some(result)` once AMD has been tried, so the probe path reuses it.
    let tried = match (mode == OrderingMode::Auto && dim >= AMD_FIRST_DIM)
        .then(|| try_amd_program(dim, pattern))
    {
        Some(Some(amd)) if amd.1.fill_in() > threshold => return Some(amd_selection(amd, None)),
        tried => tried,
    };
    let probe = probe_at(dim, pattern, generic_probe())?;
    let (markowitz_fill, markowitz_program) = match probe.structural_fill() {
        Some(fill) => (fill, None),
        None => {
            let program = compile_program(dim, pattern, probe.order())?;
            (program.fill_in(), Some(program))
        }
    };
    let attempt = match mode {
        OrderingMode::Markowitz => false,
        OrderingMode::Amd => true,
        OrderingMode::Auto => markowitz_fill > threshold,
    };
    let amd = match tried {
        Some(tried) => tried,
        None if attempt => try_amd_program(dim, pattern),
        None => None,
    };
    let amd_fill = amd.as_ref().map(|(_, program)| program.fill_in());
    if let Some(amd) = amd.filter(|(_, program)| {
        attempt && (mode == OrderingMode::Amd || program.fill_in() < markowitz_fill)
    }) {
        return Some(amd_selection(amd, Some(markowitz_fill)));
    }
    let program = match markowitz_program {
        Some(program) => program,
        None => compile_program(dim, pattern, probe.order())?,
    };
    Some(PlanSelection {
        order: probe.order().clone(),
        program,
        choice: OrderingChoice {
            selected: SelectedOrdering::Markowitz,
            markowitz_fill: Some(markowitz_fill),
            amd_fill,
        },
    })
}

/// The AMD order for `pattern` and its compiled program (both from the
/// symbolic memo, [`amd_analysis`]), validated numerically at the generic
/// probe point on every call: the prescribed diagonal pivots must exist in
/// the filled pattern *and* be numerically nonzero there. `None` means
/// AMD is unusable on this pattern — its program is over the compile
/// budget or fails the probe point — so keep Markowitz.
fn try_amd_program(
    dim: usize,
    pattern: &[(usize, usize, Complex, Complex)],
) -> Option<(PivotOrder, Arc<FactorProgram>)> {
    let Analysis { order, program } = amd_analysis(dim, pattern);
    let program = program.ok()?;
    let probe = generic_probe();
    let mut scratch = ProgramScratch::new();
    program
        .refactor_values(pattern.iter().map(|&(_, _, k0, k1)| k0 + probe * k1), &mut scratch)
        .ok()?;
    Some((order, program))
}

/// `true` when the affine pattern and RHS are entirely real, so the
/// evaluated matrix satisfies `A(s̄) = conj(A(s))` and every derived
/// quantity is conjugate-equivariant.
fn pattern_is_real(pattern: &[(usize, usize, Complex, Complex)], rhs: &[Complex]) -> bool {
    pattern.iter().all(|&(_, _, k0, k1)| k0.im == 0.0 && k1.im == 0.0)
        && rhs.iter().all(|v| v.im == 0.0)
}

impl SweepPlan {
    /// Builds a full plan: determinant *and* transfer evaluation.
    ///
    /// Resolves the spec's source and output once, extracts the affine
    /// pattern, and selects the pivot order every evaluation will replay
    /// ([`OrderingMode::Auto`]) through a fresh local [`PlanCache`], whose
    /// anchor is `(sys, scale)` itself: one probe factorization at a
    /// generic unit-circle point, or — on a mesh pattern of dimension 256
    /// and up — an AMD order validated at that point, with no probe. If no
    /// order is usable (the probe is singular) the plan still works — each
    /// evaluation then runs its own Markowitz factorization.
    ///
    /// # Errors
    ///
    /// The spec-resolution errors of
    /// [`MnaSystem::resolve_source`] and [`MnaError::NoSuchNode`] for
    /// unknown output nodes.
    pub fn new(sys: &MnaSystem, scale: Scale, spec: &TransferSpec) -> Result<SweepPlan, MnaError> {
        Self::new_cached_with_ordering(sys, scale, spec, &PlanCache::new(), OrderingMode::default())
    }

    /// As [`SweepPlan::new`] with an explicit [`OrderingMode`], sharing
    /// pivot orders through `cache`: the plan takes the selection of its
    /// plan cell (same pattern fingerprint and ordering mode, scale within
    /// the cell), which the cache computes once from the pattern's anchor
    /// — the fleet path where one pivot search serves a whole topology.
    /// See [`PlanCache`].
    ///
    /// # Errors
    ///
    /// See [`SweepPlan::new`].
    pub fn new_cached_with_ordering(
        sys: &MnaSystem,
        scale: Scale,
        spec: &TransferSpec,
        cache: &PlanCache,
        mode: OrderingMode,
    ) -> Result<SweepPlan, MnaError> {
        let (_source, amp) = sys.resolve_source(&spec.input)?;
        let row_of = |name: &str| -> Result<Option<usize>, MnaError> {
            let id = sys
                .circuit()
                .find_node(name)
                .ok_or_else(|| MnaError::NoSuchNode { name: name.to_string() })?;
            Ok(sys.node_row(id))
        };
        let out = match &spec.output {
            OutputSpec::Node(n) => PlanOutput::Node(row_of(n)?),
            OutputSpec::Differential(p, m) => PlanOutput::Differential(row_of(p)?, row_of(m)?),
        };
        Ok(Self::build(sys, scale, Some(PlanDrive { amp, out }), cache, mode))
    }

    /// Builds a determinant-only plan ([`SweepPlan::eval_at`] is
    /// unavailable): no transfer spec needed, no RHS solve ever performed.
    /// The pivot order comes from a fresh local [`PlanCache`], as for
    /// [`SweepPlan::new`].
    pub fn for_determinant(sys: &MnaSystem, scale: Scale) -> SweepPlan {
        Self::build(sys, scale, None, &PlanCache::new(), OrderingMode::default())
    }

    /// As [`SweepPlan::for_determinant`] with an explicit
    /// [`OrderingMode`], sharing pivot orders through `cache` (see
    /// [`SweepPlan::new_cached_with_ordering`]).
    pub fn for_determinant_cached_with_ordering(
        sys: &MnaSystem,
        scale: Scale,
        cache: &PlanCache,
        mode: OrderingMode,
    ) -> SweepPlan {
        Self::build(sys, scale, None, cache, mode)
    }

    fn build(
        sys: &MnaSystem,
        scale: Scale,
        drive: Option<PlanDrive>,
        cache: &PlanCache,
        mode: OrderingMode,
    ) -> SweepPlan {
        let (dim, pattern) = affine_pattern(sys, scale);
        let (compiled, ordering) = match cache.selection_for(sys, scale, mode) {
            Some(sel) => (Some((sel.order, sel.program)), Some(sel.choice)),
            None => (None, None),
        };
        let rhs = sys.rhs();
        let conjugate_symmetric = pattern_is_real(&pattern, &rhs);
        let (k0, k1) = pattern.iter().map(|&(_, _, k0, k1)| (k0, k1)).unzip();
        SweepPlan {
            dim,
            scale,
            pattern,
            k0,
            k1,
            rhs,
            compiled,
            conjugate_symmetric,
            drive,
            ordering,
        }
    }

    /// The scale this plan stamps with.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The pivot order the plan replays: the probe factorization's, or the
    /// adopted AMD order (`None` when the probe was singular).
    pub fn order(&self) -> Option<&PivotOrder> {
        self.compiled.as_ref().map(|(order, _)| order)
    }

    /// The compiled symbolic kernel this plan evaluates through (`None`
    /// when the probe was singular). [`PlanCache`] hits share one program
    /// by reference — compare with [`std::ptr::eq`] to verify.
    pub fn program(&self) -> Option<&FactorProgram> {
        self.compiled.as_ref().map(|(_, program)| &**program)
    }

    /// The outcome of this plan's ordering selection: which ordering was
    /// adopted and the fill figures that drove the choice (`None` when
    /// the probe factorization was singular and no order exists).
    pub fn ordering_choice(&self) -> Option<OrderingChoice> {
        self.ordering
    }

    /// `true` when this plan replays a kernel compiled from the AMD
    /// ordering.
    fn amd_selected(&self) -> bool {
        matches!(self.ordering, Some(OrderingChoice { selected: SelectedOrdering::Amd, .. }))
    }

    /// `true` when the plan's affine pattern `K₀ + s·K₁` and RHS are
    /// entirely real, which makes every evaluation conjugate-equivariant:
    /// `D(s̄) = conj(D(s))` and `x(s̄) = conj(x(s))` **bit-exactly** (IEEE
    /// negation is exact and complex `+`, `−`, `×`, `÷` commute with
    /// conjugation). Samplers use this to solve only the closed upper half
    /// of a conjugate-paired point set and mirror the rest.
    pub fn conjugate_symmetric(&self) -> bool {
        self.conjugate_symmetric
    }

    /// The values of `A(s) = K₀ + s·K₁`, in pattern order.
    fn values_at(&self, s: Complex) -> impl Iterator<Item = Complex> + '_ {
        self.k0.iter().zip(&self.k1).map(move |(&k0, &k1)| k0 + s * k1)
    }

    /// Stamps `A(s)` into the scratch's reused triplet buffer.
    fn assemble_into(&self, s: Complex, t: &mut Triplets) {
        t.reset(self.dim);
        for (&(r, c, _, _), v) in self.pattern.iter().zip(self.values_at(s)) {
            t.add(r, c, v);
        }
    }

    /// Factors at `s` by compiled-kernel replay — rung 0 of the
    /// singular-recovery ladder. A replay that reports a singular pivot
    /// escalates through [`SweepPlan::recover`] (fresh Markowitz, then the
    /// alternate-ordering recompile) before the point is allowed to fail.
    fn factor(&self, s: Complex, scratch: &mut SweepScratch) -> Result<Factored, FactorError> {
        let s = faults::poison_point(s);
        let Some((_, program)) = &self.compiled else {
            // No prescribed order at all (singular probe): rung 0 was
            // never attempted, so a rung-1 success is not a recovery.
            self.assemble_into(s, &mut scratch.triplets);
            return self.recover(s, scratch, false);
        };
        // Stamp K₀ + s·K₁ straight into the program's slot array — no
        // triplet buffer, no sort, no search, no insert, no alloc.
        let replay = program.refactor_values(self.values_at(s), &mut scratch.prog);
        if replay.is_ok() && !faults::poison_replay() {
            scratch.stats.compiled_hits += 1;
            return Ok(Factored::Program(Arc::clone(program)));
        }
        // Compiled replay died (exact zero pivot): climb the ladder.
        self.assemble_into(s, &mut scratch.triplets);
        self.recover(s, scratch, true)
    }

    /// Rungs 1–2 of the singular-recovery ladder; `scratch.triplets` must
    /// hold `A(s)` and `replay_died` marks whether rung 0 (a
    /// prescribed-order replay) ran and reported a singular pivot.
    ///
    /// Rung 1 is the fresh value-aware Markowitz factorization: pivots are
    /// chosen on the actual values at `s`, so an exact zero under the
    /// prescribed order is simply pivoted around. Rung 2 recompiles a
    /// kernel under the *other* ordering family (AMD ↔ Markowitz) and
    /// replays it at `s` — a different elimination order meets different
    /// pivots, which rescues patterns whose Markowitz search itself is
    /// cornered. Only when both rungs fail does the point error.
    fn recover(
        &self,
        s: Complex,
        scratch: &mut SweepScratch,
        replay_died: bool,
    ) -> Result<Factored, FactorError> {
        scratch.stats.fresh_factorizations += 1;
        let fresh = if faults::poison_fresh() {
            Err(FactorError::Singular { step: 0 })
        } else {
            SparseLu::factor(&scratch.triplets)
        };
        match fresh {
            Ok(lu) => {
                if replay_died {
                    scratch.stats.recovered_fresh += 1;
                }
                Ok(Factored::Fresh(lu))
            }
            Err(err) => {
                if let Some(program) = self.alternate_program() {
                    let replay = if faults::poison_alternate() {
                        Err(FactorError::Singular { step: 0 })
                    } else {
                        program.refactor_values(self.values_at(s), &mut scratch.prog)
                    };
                    if replay.is_ok() {
                        scratch.stats.recovered_reordered += 1;
                        return Ok(Factored::Program(program));
                    }
                }
                scratch.stats.unrecoverable += 1;
                Err(err)
            }
        }
    }

    /// The ladder's rung-2 challenger: a kernel compiled under the *other*
    /// ordering family from the plan's selection — AMD when the plan
    /// pivots by Markowitz (or carries no selection at all), a fresh
    /// Markowitz probe order when the plan pivots by AMD. Rung 2 is a cold
    /// path (reached only after a fresh factorization already failed at
    /// this point): its probe and AMD validation run on every call, and
    /// only the value-independent order and program come from the symbolic
    /// memo, so the result is a pure function of the plan, keeping recovery
    /// deterministic at any thread count.
    fn alternate_program(&self) -> Option<Arc<FactorProgram>> {
        if self.amd_selected() {
            let order = probe_order(self.dim, &self.pattern)?;
            compile_program(self.dim, &self.pattern, &order)
        } else {
            try_amd_program(self.dim, &self.pattern).map(|(_, program)| program)
        }
    }

    /// Determinant `D(s)` of the (scaled) MNA matrix — the denominator
    /// sample of the paper's eq. (9). A singular matrix yields
    /// `ExtComplex::ZERO`, matching [`MnaSystem::det`].
    pub fn eval_det(&self, s: Complex, scratch: &mut SweepScratch) -> ExtComplex {
        match self.factor(s, scratch) {
            Ok(Factored::Program(_)) => scratch.prog.det(),
            Ok(Factored::Fresh(lu)) => lu.det(),
            Err(_) => ExtComplex::ZERO,
        }
    }

    /// Evaluates the transfer function at `s`: `H`, `D`, and `N = H·D`
    /// from one factorization and one solve, matching
    /// [`MnaSystem::transfer`] — at refactorization speed.
    ///
    /// # Errors
    ///
    /// [`MnaError::Unrecoverable`] when every rung of the singular-recovery
    /// ladder fails at `s` — replay, fresh Markowitz, *and* the
    /// alternate-ordering recompile.
    ///
    /// # Panics
    ///
    /// Panics if the plan was built with [`SweepPlan::for_determinant`].
    pub fn eval_at(
        &self,
        s: Complex,
        scratch: &mut SweepScratch,
    ) -> Result<TransferResponse, MnaError> {
        let drive = self.drive.as_ref().expect("determinant-only plan cannot evaluate a transfer");
        let (denominator, response) = match self.factor(s, scratch) {
            Ok(Factored::Program(program)) => {
                let (prog, x) = (&mut scratch.prog, &mut scratch.x);
                program.solve_into(prog, &self.rhs, x);
                (prog.det(), drive.response_from(x))
            }
            Ok(Factored::Fresh(lu)) => {
                let x = lu.solve(&self.rhs);
                (lu.det(), drive.response_from(&x))
            }
            Err(e) => return Err(MnaError::ladder_exhausted(e, format!("s = {s}"))),
        };
        Ok(TransferResponse { response, denominator, numerator: denominator * response })
    }

    /// Batched [`SweepPlan::eval_at`]: evaluates the transfer at every
    /// point of `sigmas` through **one** call of the batched pass
    /// ([`FactorProgram::eval_points`]), which stamps, replays and solves
    /// each block of eight points in turn (point `k` is lane `k` of a
    /// [`BatchScratch`](refgen_sparse::BatchScratch)). Per point, the
    /// result — value, error, and [`SweepStats`] accounting — is
    /// **bit-identical** to a sequential `eval_at` with a fresh
    /// scratch: live lanes perform the exact one-lane
    /// operation sequence, and a lane whose prescribed pivot is exactly
    /// zero falls back to the identical sequential path (failed replay,
    /// then fresh Markowitz) without disturbing its neighbours.
    ///
    /// Plans without a compiled kernel (singular probe, or a program over
    /// its compile budget), and one-point batches, evaluate each point
    /// sequentially — same results, no batching to amortize (a one-lane
    /// batched replay and solve, which computes a whole block of eight
    /// lanes, costs 1.7–2.0 times a one-point one on a 1 025-unknown RC
    /// mesh on an AVX-512F host).
    ///
    /// # Panics
    ///
    /// Panics if `sigmas` is empty or the plan was built with
    /// [`SweepPlan::for_determinant`].
    pub fn eval_batch(
        &self,
        sigmas: &[Complex],
        scratch: &mut SweepBatchScratch,
    ) -> Vec<Result<TransferResponse, MnaError>> {
        let drive = self.drive.as_ref().expect("determinant-only plan cannot evaluate a transfer");
        assert!(!sigmas.is_empty(), "batch needs at least one point");
        let Some(program) = self.program().filter(|_| sigmas.len() > 1) else {
            return sigmas.iter().map(|&s| self.eval_at(s, &mut scratch.fallback)).collect();
        };
        let lanes = sigmas.len();
        // Lane `k` at `sigmas[k]`, fault-poisoned like a one-point
        // evaluation; every lane solves the one (frequency-independent) RHS.
        scratch.sigmas.clear();
        scratch.sigmas.extend(sigmas.iter().map(|&s| faults::poison_point(s)));
        let solve = Some((&self.rhs[..], &mut scratch.x));
        program.eval_points(&self.k0, &self.k1, &scratch.sigmas, solve, &mut scratch.batch);
        sigmas
            .iter()
            .enumerate()
            .map(|(lane, &s)| match scratch.batch.lane_det(lane) {
                Ok(denominator) if !faults::poison_replay() => {
                    scratch.stats.compiled_hits += 1;
                    let response = drive.response_from_lane(&scratch.x, lanes, lane);
                    Ok(TransferResponse {
                        response,
                        denominator,
                        numerator: denominator * response,
                    })
                }
                // Dead lane (exact zero pivot, or an injected replay
                // fault): the sequential path for this exact point — its
                // compiled replay dies at the same step (bit-identical
                // pivots), then climbs the recovery ladder, accounting
                // included. The lane is masked, never fatal to its
                // neighbours.
                _ => self.eval_at(s, &mut scratch.fallback),
            })
            .collect()
    }

    /// Batched [`SweepPlan::eval_det`]: determinants at every point of
    /// `sigmas` through one call of the batched pass, bit-identical
    /// per point to the sequential path (dead lanes fall back exactly like
    /// sequential evaluations, reporting `ExtComplex::ZERO` only if every
    /// rung of the recovery ladder fails). Like [`SweepPlan::eval_batch`],
    /// plans without a compiled kernel and one-point batches evaluate
    /// sequentially.
    ///
    /// # Panics
    ///
    /// Panics if `sigmas` is empty.
    pub fn eval_det_batch(
        &self,
        sigmas: &[Complex],
        scratch: &mut SweepBatchScratch,
    ) -> Vec<ExtComplex> {
        assert!(!sigmas.is_empty(), "batch needs at least one point");
        let Some(program) = self.program().filter(|_| sigmas.len() > 1) else {
            return sigmas.iter().map(|&s| self.eval_det(s, &mut scratch.fallback)).collect();
        };
        scratch.sigmas.clear();
        scratch.sigmas.extend(sigmas.iter().map(|&s| faults::poison_point(s)));
        program.eval_points(&self.k0, &self.k1, &scratch.sigmas, None, &mut scratch.batch);
        sigmas
            .iter()
            .enumerate()
            .map(|(lane, &s)| match scratch.batch.lane_det(lane) {
                Ok(det) if !faults::poison_replay() => {
                    scratch.stats.compiled_hits += 1;
                    det
                }
                _ => self.eval_det(s, &mut scratch.fallback),
            })
            .collect()
    }
}

/// Per-executor mutable state for batched plan evaluation
/// ([`SweepPlan::eval_batch`] / [`SweepPlan::eval_det_batch`]): the
/// sparse batch scratch, reused point and solution buffers, and a sequential
/// [`SweepScratch`] that serves dead lanes the exact fallback path a
/// sequential evaluation would take.
#[derive(Debug, Default)]
pub struct SweepBatchScratch {
    batch: refgen_sparse::BatchScratch,
    /// The lanes' (fault-poisoned) evaluation points.
    sigmas: Vec<Complex>,
    /// The lanes' solutions, column-major (`x[col·lanes + lane]`).
    x: Vec<Complex>,
    /// Serves dead lanes, which replicate the sequential path bit for bit.
    fallback: SweepScratch,
    stats: SweepStats,
}

impl SweepBatchScratch {
    /// An empty scratch; buffers size themselves on first use and the lane
    /// count follows each batched call.
    pub fn new() -> SweepBatchScratch {
        SweepBatchScratch::default()
    }

    /// Counters accumulated so far — batched lanes and sequential
    /// fallbacks combined, so totals match a sequential sweep of the same
    /// points exactly.
    pub fn stats(&self) -> SweepStats {
        self.stats + self.fallback.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refgen_circuit::library::{rc_ladder, ua741};
    use refgen_circuit::Circuit;

    /// A transfer plan of `sys` at `scale` under `mode`, through a fresh
    /// plan cache.
    fn plan_under(
        sys: &MnaSystem,
        scale: Scale,
        spec: &TransferSpec,
        mode: OrderingMode,
    ) -> SweepPlan {
        SweepPlan::new_cached_with_ordering(sys, scale, spec, &PlanCache::new(), mode).unwrap()
    }

    fn spec() -> TransferSpec {
        TransferSpec::voltage_gain("VIN", "out")
    }

    #[test]
    fn plan_matches_direct_transfer() {
        let c = ua741();
        let sys = MnaSystem::new(&c).unwrap();
        let scale = Scale::new(1e9, 1e3);
        let plan = SweepPlan::new(&sys, scale, &spec()).unwrap();
        let mut scratch = SweepScratch::new();
        for k in 0..16 {
            let theta = 2.0 * std::f64::consts::PI * k as f64 / 16.0;
            let s = Complex::new(theta.cos(), theta.sin());
            let fast = plan.eval_at(s, &mut scratch).unwrap();
            let slow = sys.transfer(s, scale, &spec()).unwrap();
            let rel = (fast.response - slow.response).abs() / slow.response.abs();
            assert!(rel < 1e-9, "response at point {k}: rel {rel:.2e}");
            let drel =
                ((fast.denominator - slow.denominator).norm() / slow.denominator.norm()).to_f64();
            assert!(drel < 1e-9, "determinant at point {k}: rel {drel:.2e}");
            let nrel = ((fast.numerator - slow.numerator).norm() / slow.numerator.norm()).to_f64();
            assert!(nrel < 1e-9, "numerator at point {k}: rel {nrel:.2e}");
        }
        // Every point replayed the probe's pivot order through the
        // compiled kernel.
        assert_eq!(scratch.stats().compiled_hits, 16);
        assert_eq!(scratch.stats().fresh_factorizations, 0);
    }

    /// Every supported element stamps real `K₀`/`K₁` and the excitation is
    /// real, so plans detect conjugate symmetry — and evaluation really is
    /// conjugate-equivariant, bit for bit.
    #[test]
    fn real_patterns_are_conjugate_symmetric_bit_exactly() {
        for circuit in [ua741(), rc_ladder(6, 1e3, 1e-9)] {
            let sys = MnaSystem::new(&circuit).unwrap();
            let scale = Scale::new(1e9, 1e3);
            let plan = SweepPlan::new(&sys, scale, &spec()).unwrap();
            assert!(plan.conjugate_symmetric(), "MNA stamps and RHS are real");
            let mut scratch = SweepScratch::new();
            for k in 0..8 {
                let theta = 2.0 * std::f64::consts::PI * (k as f64 + 0.3) / 8.0;
                let s = Complex::new(theta.cos(), theta.sin());
                let up = plan.eval_at(s, &mut scratch).unwrap();
                let dn = plan.eval_at(s.conj(), &mut scratch).unwrap();
                assert_eq!(up.response.conj(), dn.response, "response at point {k}");
                assert_eq!(up.denominator.conj(), dn.denominator, "determinant at point {k}");
                assert_eq!(up.numerator.conj(), dn.numerator, "numerator at point {k}");
            }
        }
    }

    #[test]
    fn plan_det_matches_system_det() {
        let c = rc_ladder(6, 1e3, 1e-9);
        let sys = MnaSystem::new(&c).unwrap();
        let scale = Scale::new(1e9, 1e3);
        let plan = SweepPlan::for_determinant(&sys, scale);
        let mut scratch = SweepScratch::new();
        for k in 0..7 {
            let theta = 2.0 * std::f64::consts::PI * k as f64 / 7.0;
            let s = Complex::new(theta.cos(), theta.sin());
            let fast = plan.eval_det(s, &mut scratch);
            let slow = sys.det(s, scale).unwrap();
            let rel = ((fast - slow).norm() / slow.norm()).to_f64();
            assert!(rel < 1e-10, "point {k}: rel {rel:.2e}");
        }
        assert!(scratch.stats().compiled_hits > 0);
    }

    #[test]
    fn det_only_plan_is_zero_on_singular_system() {
        // Two parallel V sources: singular at every s; probe fails, every
        // eval falls back and reports a zero determinant, like
        // MnaSystem::det.
        let mut c = Circuit::new();
        c.add_vsource("V1", "a", "0", 1.0).unwrap();
        c.add_vsource("V2", "a", "0", 1.0).unwrap();
        c.add_resistor("R1", "a", "0", 1e3).unwrap();
        c.add_capacitor("C1", "a", "0", 1e-9).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let plan = SweepPlan::for_determinant(&sys, Scale::unit());
        assert!(plan.order().is_none(), "probe of a singular system records no order");
        let mut scratch = SweepScratch::new();
        assert!(plan.eval_det(Complex::ONE, &mut scratch).is_zero());
        assert_eq!(scratch.stats().fresh_factorizations, 1);
    }

    /// A pivot order recorded at one frequency dies (exact zero pivot) at
    /// another where the matrix's *numeric* pattern changes — here a node
    /// whose diagonal is purely capacitive after a VCCS cancels its
    /// conductances, so it vanishes at DC. Every DC point climbs the
    /// ladder on its own (one fresh factorization each), and a generic
    /// point still replays the plan's compiled kernel.
    #[test]
    fn dead_order_costs_one_fresh_factorization_per_point() {
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "a", 1e3).unwrap();
        c.add_capacitor("C1", "a", "0", 1.0).unwrap();
        // gm exactly cancels the two conductances on node a's diagonal.
        c.add_vccs("G1", "a", "0", "a", "0", -2e-3).unwrap();
        c.add_resistor("R3", "a", "b", 1e3).unwrap();
        c.add_resistor("R4", "b", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        // Pinned to the probe order: this test documents Markowitz-probe
        // pivot mechanics (the DC-vanishing capacitor diagonal), which an
        // AMD order would pivot around.
        let plan = plan_under(
            &sys,
            Scale::unit(),
            &TransferSpec::voltage_gain("VIN", "b"),
            OrderingMode::Markowitz,
        );

        // The probe (|s| = 1, so |s·C| = 1 dominates the mS-range
        // conductances) pivots on node a's capacitor-only diagonal.
        let mut scratch = SweepScratch::new();
        for _ in 0..3 {
            plan.eval_at(Complex::ZERO, &mut scratch).unwrap();
        }
        plan.eval_at(Complex::new(0.3, 1.1), &mut scratch).unwrap();
        let stats = scratch.stats();
        assert_eq!(stats.fresh_factorizations, 3, "one fallback per DC point: {stats:?}");
        assert_eq!(stats.recovered_fresh, 3, "{stats:?}");
        assert_eq!(stats.compiled_hits, 1, "the generic point replays the plan's kernel");
    }

    #[test]
    fn spec_errors_surface_at_plan_build() {
        let c = rc_ladder(2, 1e3, 1e-9);
        let sys = MnaSystem::new(&c).unwrap();
        assert!(matches!(
            SweepPlan::new(&sys, Scale::unit(), &TransferSpec::voltage_gain("VX", "out")),
            Err(MnaError::NoSuchSource { .. })
        ));
        assert!(matches!(
            SweepPlan::new(&sys, Scale::unit(), &TransferSpec::voltage_gain("VIN", "nowhere")),
            Err(MnaError::NoSuchNode { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "determinant-only plan")]
    fn det_only_plan_panics_on_eval_at() {
        let sys = MnaSystem::new(&rc_ladder(2, 1e3, 1e-9)).unwrap();
        let plan = SweepPlan::for_determinant(&sys, Scale::unit());
        let _ = plan.eval_at(Complex::ONE, &mut SweepScratch::new());
    }

    /// A four-node RC chain with one bridging capacitor from `bridge` to
    /// node `c`.
    fn bridged_chain(bridge: &str, farads: f64) -> Circuit {
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "a", 1e3).unwrap();
        c.add_resistor("R2", "a", "b", 2e3).unwrap();
        c.add_resistor("R3", "b", "out", 3e3).unwrap();
        c.add_resistor("R4", "out", "0", 4e3).unwrap();
        c.add_capacitor("CX", bridge, "out", farads).unwrap();
        c
    }

    /// A variant whose only change is its source amplitude shares the
    /// cached order and program, and its plan normalizes by the
    /// *variant's* amplitude: H(0) of the RC low-pass is 1 regardless of
    /// drive.
    #[test]
    fn cached_plan_tracks_changed_source_amplitude() {
        let low_pass = |volts: f64| {
            let mut c = Circuit::new();
            c.add_vsource("VIN", "in", "0", volts).unwrap();
            c.add_resistor("R1", "in", "out", 1e3).unwrap();
            c.add_capacitor("C1", "out", "0", 1e-9).unwrap();
            MnaSystem::new(&c).unwrap()
        };
        let cache = PlanCache::new();
        let mode = OrderingMode::default();
        let plan = |sys: &MnaSystem| {
            SweepPlan::new_cached_with_ordering(sys, Scale::unit(), &spec(), &cache, mode).unwrap()
        };
        let base = plan(&low_pass(1.0));
        let scaled = plan(&low_pass(2.5));
        assert_eq!((cache.pivot_searches(), cache.shared_hits()), (1, 1));
        assert!(std::ptr::eq(scaled.program().unwrap(), base.program().unwrap()));
        let mut scratch = SweepScratch::new();
        let r = scaled.eval_at(Complex::ZERO, &mut scratch).unwrap();
        assert!((r.response - Complex::ONE).abs() < 1e-12, "H(0) = {}", r.response);
    }

    /// A cross-coupled transconductor pair: node `x` and node `y` each
    /// drive the other through `gm`. At the anchor scale the
    /// transconductances dominate and the root order pivots on them; where
    /// the capacitors dominate instead (conductance scale down, or
    /// frequency scale up), that order's replay grows past the gate.
    fn cross_coupled(c1: f64, gm: f64) -> Circuit {
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R0", "in", "x", 1e3).unwrap();
        c.add_capacitor("C1", "x", "0", c1).unwrap();
        c.add_resistor("R1", "x", "0", 1e6).unwrap();
        c.add_vccs("G1", "x", "0", "y", "0", gm).unwrap();
        c.add_vccs("G2", "y", "0", "x", "0", gm).unwrap();
        c.add_resistor("R2", "y", "0", 1e6).unwrap();
        c.add_capacitor("C2", "y", "0", 1e-9).unwrap();
        c
    }

    /// Scales of `anchor`'s cells: one decade apart, centred on it.
    fn cell_scale(anchor: Scale, df: i32, dg: i32) -> Scale {
        Scale::new(anchor.f * 10f64.powi(df), anchor.g * 10f64.powi(dg))
    }

    /// Within a cell every plan shares one selection, by reference; a
    /// cell whose gate passes shares the root's, counted as a hit; a cell
    /// whose gate fails probes the anchor at its centre and records an
    /// order of its own.
    #[test]
    fn gate_failing_cell_probes_its_own_order() {
        let sys = MnaSystem::new(&cross_coupled(1e-9, 1e-2)).unwrap();
        let anchor = Scale::new(1e9, 1e3);
        let cache = PlanCache::new();
        cache.register_anchor(&sys, anchor);
        let mode = OrderingMode::default();
        let plan =
            |scale| SweepPlan::for_determinant_cached_with_ordering(&sys, scale, &cache, mode);
        let root = plan(anchor);
        assert_eq!((cache.pivot_searches(), cache.shared_hits()), (1, 0));

        // A verify-style scale (±0.2 decades) is in the root cell.
        let nearby = plan(Scale::new(anchor.f * 10f64.powf(0.2), anchor.g / 10f64.powf(0.2)));
        assert!(std::ptr::eq(nearby.program().unwrap(), root.program().unwrap()));
        // Ten decades up in conductance, the root order certifies.
        let certified = plan(cell_scale(anchor, 0, 10));
        assert!(std::ptr::eq(certified.program().unwrap(), root.program().unwrap()));
        assert_eq!((cache.pivot_searches(), cache.shared_hits()), (1, 2));

        // Ten decades down in conductance, it does not.
        let failing = cell_scale(anchor, 0, -10);
        let probed = plan(failing);
        assert_eq!((cache.pivot_searches(), cache.programs_compiled()), (2, 2));
        assert_ne!(probed.order(), root.order(), "the cell records its own order");
        let centre = sys.affine_pattern(failing);
        assert!(!certifies(root.program().unwrap(), &centre), "the root order fails there");
        assert!(certifies(probed.program().unwrap(), &centre), "its own order passes");
        // The cell's other plans reuse its order, without another probe.
        let again = plan(Scale::new(failing.f * 10f64.powf(0.3), failing.g * 10f64.powf(-0.4)));
        assert!(std::ptr::eq(again.program().unwrap(), probed.program().unwrap()));
        assert_eq!(cache.pivot_searches(), 2);
        assert_eq!(cache.len(), 3);
    }

    /// A plan's order is a function of `(anchor, cell)`: two caches with
    /// one anchor that plan different-valued variants over the same cells
    /// in opposite orders hold identical selections, plan for plan, with
    /// identical counters.
    #[test]
    fn opposite_visit_orders_give_identical_selections() {
        let nominal = MnaSystem::new(&cross_coupled(1e-9, 1e-2)).unwrap();
        let anchor = Scale::new(1e9, 1e3);
        let cells = [(0, 0), (0, -10), (10, 0), (-3, -6), (0, -10), (5, 5), (0, 0)];
        let visits: Vec<(MnaSystem, Scale)> = cells
            .iter()
            .enumerate()
            .map(|(k, &(df, dg))| {
                let variant = cross_coupled(1e-9 * (1.0 + 0.3 * k as f64), 1e-2 / (1.0 + k as f64));
                let shift = 10f64.powf(0.1 * k as f64 - 0.3);
                let scale = cell_scale(anchor, df, dg);
                (MnaSystem::new(&variant).unwrap(), Scale::new(scale.f * shift, scale.g / shift))
            })
            .collect();
        let run = |order: &mut dyn Iterator<Item = usize>| {
            let cache = PlanCache::new();
            cache.register_anchor(&nominal, anchor);
            let mut orders = vec![None; visits.len()];
            for k in order {
                let (sys, scale) = &visits[k];
                let plan = SweepPlan::for_determinant_cached_with_ordering(
                    sys,
                    *scale,
                    &cache,
                    OrderingMode::default(),
                );
                orders[k] = plan.order().cloned();
            }
            let counters = (cache.pivot_searches(), cache.shared_hits(), cache.len());
            (orders, counters)
        };
        let forward = run(&mut (0..visits.len()));
        let backward = run(&mut (0..visits.len()).rev());
        assert_eq!(forward, backward);
        assert!(forward.1 .0 >= 2, "test premise: a cell fails its gate");
    }

    /// The gate rejects an order whose replay meets an exact-zero pivot,
    /// and one whose replay grows past [`PlanCache::GROWTH_BOUND`].
    #[test]
    fn zero_pivot_fails_the_gate() {
        let entry = |r, c, v: f64| (r, c, Complex::real(v), Complex::ZERO);
        let pattern =
            |a00: f64| vec![entry(0, 0, a00), entry(0, 1, 1.0), entry(1, 0, 1.0), entry(1, 1, 2.0)];
        let program = compile_program(2, &pattern(1.0), &PivotOrder::diagonal(vec![0, 1])).unwrap();
        assert!(certifies(&program, &pattern(1.0)));
        assert!(!certifies(&program, &pattern(0.0)), "zero pivot");
        assert!(!certifies(&program, &pattern(1e-3)), "growth ≈ 1000");
    }

    /// The fleet shape the batch-session layer is built on: 64
    /// same-topology µA741 variants planned through one [`PlanCache`]
    /// anchored on the base circuit — exactly **one** pivot search for the
    /// whole fleet, every evaluation a pivot-order replay (asserted via
    /// [`SweepStats`]).
    #[test]
    fn ua741_fleet_costs_one_pivot_search_per_topology() {
        use refgen_circuit::perturb::{Perturbation, VariantSet};

        let base = ua741();
        let scale = Scale::new(1e9, 1e3);
        let cache = PlanCache::new();
        let mode = OrderingMode::default();
        let base_sys = MnaSystem::new(&base).unwrap();
        cache.register_anchor(&base_sys, scale);
        let plan =
            SweepPlan::new_cached_with_ordering(&base_sys, scale, &spec(), &cache, mode).unwrap();
        let base_program = plan.program().expect("probe order compiles");

        let fleet =
            VariantSet::new(Perturbation::all_relative(0.04), 64).seed(7).generate(&base).unwrap();
        let mut scratch = SweepScratch::new();
        let points = 16usize;
        for circuit in &fleet {
            let sys = MnaSystem::new(circuit).unwrap();
            let variant =
                SweepPlan::new_cached_with_ordering(&sys, scale, &spec(), &cache, mode).unwrap();
            // The cache hands out the one compiled program by reference:
            // the whole fleet shares a single symbolic analysis.
            assert!(
                std::ptr::eq(variant.program().unwrap(), base_program),
                "a cache hit must carry the compiled program, not recompile"
            );
            for k in 0..points {
                let theta = 2.0 * std::f64::consts::PI * k as f64 / points as f64;
                let s = Complex::new(theta.cos(), theta.sin());
                variant.eval_at(s, &mut scratch).unwrap();
            }
        }
        assert_eq!(cache.pivot_searches(), 1, "the one base probe must serve all 64 variants");
        let stats = scratch.stats();
        assert_eq!(stats.fresh_factorizations, 0, "{stats:?}");
        assert_eq!(stats.compiled_hits, 64 * points as u64, "every evaluation ran compiled");
    }

    /// The acceptance shape: 64 same-topology µA741 variants planned
    /// through one [`PlanCache`] compile exactly **one** `FactorProgram`
    /// (and pay exactly one pivot search) — symbolic analysis is value-
    /// and scale-independent, so the fleet shares a single compiled kernel.
    #[test]
    fn ua741_fleet_compiles_exactly_one_program_through_cache() {
        use refgen_circuit::perturb::{Perturbation, VariantSet};

        let base = ua741();
        let scale = Scale::new(1e9, 1e3);
        let cache = PlanCache::new();
        let mode = OrderingMode::default();
        let fleet =
            VariantSet::new(Perturbation::all_relative(0.04), 64).seed(11).generate(&base).unwrap();
        let mut scratch = SweepScratch::new();
        let mut first_program: Option<*const FactorProgram> = None;
        for circuit in &fleet {
            let sys = MnaSystem::new(circuit).unwrap();
            let plan =
                SweepPlan::new_cached_with_ordering(&sys, scale, &spec(), &cache, mode).unwrap();
            let program = plan.program().expect("every variant plan carries the shared program")
                as *const FactorProgram;
            assert_eq!(*first_program.get_or_insert(program), program, "one Arc'd program");
            plan.eval_at(Complex::new(0.6, 0.8), &mut scratch).unwrap();
        }
        assert_eq!(cache.pivot_searches(), 1, "one probe for the whole fleet");
        assert_eq!(cache.programs_compiled(), 1, "one symbolic compilation for the whole fleet");
        assert_eq!(cache.shared_hits(), 63);
        assert_eq!(scratch.stats().compiled_hits, 64, "every variant evaluates compiled");
    }

    /// Same dimension, different topology: the cache must *not* share a
    /// pivot order (the pattern fingerprint, not the dimension, is the
    /// sharing identity).
    #[test]
    fn plan_cache_never_shares_across_topologies() {
        // Both circuits: 4 non-ground nodes + 1 V branch → dim 5, but the
        // elements connect differently.
        let ladder = rc_ladder(3, 1e3, 1e-9);
        let mut star = Circuit::new();
        star.add_vsource("VIN", "in", "0", 1.0).unwrap();
        star.add_resistor("R1", "in", "hub", 1e3).unwrap();
        star.add_resistor("R2", "hub", "out", 1e3).unwrap();
        star.add_resistor("R3", "hub", "x", 1e3).unwrap();
        star.add_capacitor("C1", "x", "0", 1e-9).unwrap();
        star.add_capacitor("C2", "out", "0", 1e-9).unwrap();
        star.add_capacitor("C3", "in", "out", 1e-9).unwrap();
        let a = MnaSystem::new(&ladder).unwrap();
        let b = MnaSystem::new(&star).unwrap();
        assert_eq!(a.dim(), b.dim(), "test premise: equal dimensions");

        let cache = PlanCache::new();
        let mode = OrderingMode::default();
        let scale = Scale::new(1e9, 1e3);
        let _pa = SweepPlan::for_determinant_cached_with_ordering(&a, scale, &cache, mode);
        let _pb = SweepPlan::for_determinant_cached_with_ordering(&b, scale, &cache, mode);
        assert_eq!(cache.pivot_searches(), 2, "each topology probes its own order");
        assert_eq!(cache.shared_hits(), 0);
        // The same topologies, revisited, do share.
        let _pa2 = SweepPlan::for_determinant_cached_with_ordering(&a, scale, &cache, mode);
        let _pb2 = SweepPlan::for_determinant_cached_with_ordering(&b, scale, &cache, mode);
        assert_eq!(cache.pivot_searches(), 2);
        assert_eq!(cache.shared_hits(), 2);

        // The bridging capacitor moves from node `a` to node `in`: same
        // dimension, same entry count, different positions.
        let base = MnaSystem::new(&bridged_chain("a", 1e-9)).unwrap();
        let moved = MnaSystem::new(&bridged_chain("in", 1e-9)).unwrap();
        let (dim_a, pat_a) = affine_pattern(&base, scale);
        let (dim_b, pat_b) = affine_pattern(&moved, scale);
        assert_eq!((dim_a, pat_a.len()), (dim_b, pat_b.len()), "test premise: equal shapes");
        let _pc = SweepPlan::for_determinant_cached_with_ordering(&base, scale, &cache, mode);
        let _pd = SweepPlan::for_determinant_cached_with_ordering(&moved, scale, &cache, mode);
        assert_eq!(cache.pivot_searches(), 4, "each position set probes its own order");
        assert_eq!(cache.shared_hits(), 2);
    }

    /// A panic inside a probe poisons the cache's lock mid-build; the
    /// cache must drop that half-built entry and keep serving lookups and
    /// new probes.
    #[test]
    fn plan_cache_survives_a_panicking_build() {
        let cache = PlanCache::new();
        let mode = OrderingMode::default();
        let sys = MnaSystem::new(&ua741()).unwrap();
        let scale = Scale::new(1e9, 1e3);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.selection_with(&sys, scale, mode, |_, _, _| panic!("probe panicked"))
        }));
        assert!(panicked.is_err());
        assert!(cache.state.is_poisoned(), "test premise: the build panicked under the lock");
        assert!(cache.is_empty(), "the half-built entry is dropped");

        let p1 = SweepPlan::new_cached_with_ordering(&sys, scale, &spec(), &cache, mode).unwrap();
        assert_eq!(cache.len(), 1, "a later probe records its entry");
        let p2 = SweepPlan::new_cached_with_ordering(&sys, scale, &spec(), &cache, mode).unwrap();
        assert_eq!(cache.shared_hits(), 1, "and a later lookup finds it");
        assert_eq!(p1.order(), p2.order());
    }

    /// Once the process has planned a topology, two separately parsed
    /// netlists of it plan through one memoized program, shared by
    /// reference, and that program is the one a fresh compile returns: the
    /// µA741 under its Markowitz probe order and a 16×16 grid mesh under
    /// the AMD order Auto adopts unprobed.
    #[test]
    fn separately_parsed_netlists_share_one_memoized_program() {
        use refgen_circuit::library::grid_rc_mesh;
        use refgen_circuit::{parse_netlist, to_spice};
        for (circuit, scale) in
            [(ua741(), Scale::new(1e9, 1e3)), (grid_rc_mesh(16, 16, 41), Scale::unit())]
        {
            let text = to_spice(&circuit);
            let plans: Vec<SweepPlan> = (0..3)
                .map(|_| {
                    let parsed = parse_netlist(&text).unwrap().circuit;
                    SweepPlan::new(&MnaSystem::new(&parsed).unwrap(), scale, &spec()).unwrap()
                })
                .collect();
            let (a, b) = (plans[1].program().unwrap(), plans[2].program().unwrap());
            assert!(std::ptr::eq(a, b), "one memoized program for both plans");
            let (dim, pattern) = affine_pattern(&MnaSystem::new(&circuit).unwrap(), scale);
            let fresh =
                FactorProgram::compile(dim, &positions_of(&pattern), plans[0].order().unwrap());
            assert_eq!(a, &fresh.unwrap(), "the memoized program equals a fresh compile");
        }
    }

    /// A lookup hits only on the exact key: the same dimension with other
    /// positions, or the same positions under another order, build their
    /// own analyses, and an AMD entry never answers an order lookup. Each
    /// key is asked for twice, so the memo holds it.
    #[test]
    fn memo_never_shares_across_positions_or_orders() {
        let memo = SymbolicMemo::new(SYMBOLIC_MEMO_BYTES);
        let builds = std::cell::Cell::new(0);
        let lookup = |positions: &[(usize, usize)], order: Option<&PivotOrder>| {
            memo.analysis(3, positions, order, || {
                builds.set(builds.get() + 1);
                let order = order
                    .cloned()
                    .unwrap_or_else(|| refgen_sparse::ordering::minimum_degree(3, positions));
                let program = FactorProgram::compile(3, positions, &order).map(Arc::new);
                Analysis { order, program }
            })
        };
        let held = |positions: &[(usize, usize)], order: Option<&PivotOrder>| {
            lookup(positions, order);
            lookup(positions, order)
        };
        let chain = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)];
        let star = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (2, 2)];
        let natural = PivotOrder::diagonal(vec![0, 1, 2]);
        let reversed = PivotOrder::diagonal(vec![2, 1, 0]);
        let first = held(&chain, Some(&natural)).program.unwrap();
        assert!(Arc::ptr_eq(&first, &lookup(&chain, Some(&natural)).program.unwrap()));
        assert_eq!(builds.get(), 2, "the exact key hits once held");
        let other_positions = held(&star, Some(&natural)).program.unwrap();
        let other_order = held(&chain, Some(&reversed)).program.unwrap();
        let amd = held(&chain, None);
        assert_eq!(builds.get(), 8, "each other key builds its own analysis");
        for program in [&other_positions, &other_order, amd.program.as_ref().unwrap()] {
            assert!(!Arc::ptr_eq(&first, program));
        }
        // The AMD entry answers AMD lookups only, even for the order it holds.
        assert!(Arc::ptr_eq(amd.program.as_ref().unwrap(), &lookup(&chain, None).program.unwrap()));
        let by_order = held(&chain, Some(&amd.order)).program.unwrap();
        assert!(!Arc::ptr_eq(amd.program.as_ref().unwrap(), &by_order));
        assert_eq!(2 * memo.stats().entries, builds.get(), "each held key built twice");

        // Through the planning path: same dimension, other positions.
        let base = MnaSystem::new(&bridged_chain("a", 1e-9)).unwrap();
        let moved = MnaSystem::new(&bridged_chain("in", 1e-9)).unwrap();
        let scale = Scale::new(1e9, 1e3);
        let (pa, pb) =
            (SweepPlan::for_determinant(&base, scale), SweepPlan::for_determinant(&moved, scale));
        assert_eq!(pa.dim(), pb.dim(), "test premise: equal dimensions");
        assert!(!std::ptr::eq(pa.program().unwrap(), pb.program().unwrap()));
    }

    /// The memo's retained bytes never pass its budget: after more
    /// patterns than fit, the least recently used entries are gone, a
    /// recently used one stays, and an entry larger than the whole budget
    /// is returned without being kept. The process-wide memo is within its
    /// constant budget too.
    #[test]
    fn memo_retains_at_most_its_budget() {
        let analyze = |dim: usize| {
            let sys = MnaSystem::new(&rc_ladder(dim, 1e3, 1e-9)).unwrap();
            let (dim, pattern) = affine_pattern(&sys, Scale::unit());
            let order = probe_order(dim, &pattern).unwrap();
            (dim, positions_of(&pattern), order)
        };
        let patterns: Vec<_> = (2..24).map(analyze).collect();
        let one =
            |memo: &SymbolicMemo,
             (dim, positions, order): &(usize, Vec<(usize, usize)>, PivotOrder)| {
                memo.analysis(*dim, positions, Some(order), || Analysis {
                    order: order.clone(),
                    program: FactorProgram::compile(*dim, positions, order).map(Arc::new),
                })
            };
        // Asked for twice, so the memo holds it.
        let twice = |memo: &SymbolicMemo, pattern| {
            one(memo, pattern);
            one(memo, pattern);
        };
        let probe = SymbolicMemo::new(SYMBOLIC_MEMO_BYTES);
        twice(&probe, &patterns[10]);
        let budget = 5 * probe.stats().bytes;
        let memo = SymbolicMemo::new(budget);
        for (k, pattern) in patterns.iter().enumerate() {
            twice(&memo, pattern);
            // Keep the first pattern recently used.
            one(&memo, &patterns[0]);
            let stats = memo.stats();
            assert!(stats.bytes <= budget, "pattern {k}: {stats:?} over {budget}");
            let held = memo.lock().entries.values().flatten().map(|e| e.bytes).sum::<usize>();
            assert_eq!(stats.bytes, held);
        }
        let held = memo.stats();
        assert!(held.entries < patterns.len() && held.entries >= 3, "{held:?}");
        let misses = held.misses;
        one(&memo, &patterns[0]);
        one(&memo, &patterns[patterns.len() - 1]);
        assert_eq!(memo.stats().misses, misses, "the recently used entries stay");
        one(&memo, &patterns[1]);
        assert_eq!(memo.stats().misses, misses + 1, "the least recently used one is gone");

        let tiny = SymbolicMemo::new(64);
        twice(&tiny, &patterns[3]);
        assert_eq!((tiny.stats().entries, tiny.stats().bytes), (0, 0), "too large to keep");

        let global = symbolic_memo_stats();
        assert!(global.bytes <= SYMBOLIC_MEMO_BYTES, "{global:?}");
    }

    /// A compile that passes its budget is memoized as its typed failure,
    /// at its first request: a later lookup returns the same `TooLarge`
    /// without compiling again,
    /// and the planning path's `compile_program` reports it as no program.
    #[test]
    fn memoized_too_large_comes_back_without_a_recompile() {
        // An arrow pattern eliminated hub first fills completely: 300²
        // slots against a budget of 2¹⁶.
        let n = 300;
        let mut positions: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        positions.extend((1..n).flat_map(|i| [(0, i), (i, 0)]));
        let order = PivotOrder::diagonal((0..n).collect());
        let memo = SymbolicMemo::new(SYMBOLIC_MEMO_BYTES);
        let compiles = std::cell::Cell::new(0);
        let lookup = || {
            memo.analysis(n, &positions, Some(&order), || {
                compiles.set(compiles.get() + 1);
                Analysis {
                    order: order.clone(),
                    program: FactorProgram::compile(n, &positions, &order).map(Arc::new),
                }
            })
        };
        let first = lookup().program.unwrap_err();
        assert!(matches!(first, FactorError::TooLarge { .. }), "{first:?}");
        assert_eq!(lookup().program.unwrap_err(), first);
        assert_eq!(compiles.get(), 1, "the failure is memoized");
        assert_eq!((memo.stats().hits, memo.stats().misses), (1, 1));

        let pattern: Vec<_> =
            positions.iter().map(|&(r, c)| (r, c, Complex::ONE, Complex::ZERO)).collect();
        assert!(compile_program(n, &pattern, &order).is_none());
        assert!(compile_program(n, &pattern, &order).is_none());
    }

    /// A key asked for once is built and returned but not kept, so a
    /// stream of one-off patterns holds no program; its second request
    /// builds again and is kept. The memo remembers the last
    /// [`SEEN_KEYS`] keys asked for once, forgetting the oldest first.
    #[test]
    fn memo_keeps_a_key_from_its_second_request_on() {
        let sys = MnaSystem::new(&rc_ladder(6, 1e3, 1e-9)).unwrap();
        let (dim, pattern) = affine_pattern(&sys, Scale::unit());
        let (positions, order) = (positions_of(&pattern), probe_order(dim, &pattern).unwrap());
        let memo = SymbolicMemo::new(SYMBOLIC_MEMO_BYTES);
        let lookup = || {
            memo.analysis(dim, &positions, Some(&order), || Analysis {
                order: order.clone(),
                program: FactorProgram::compile(dim, &positions, &order).map(Arc::new),
            })
        };
        let once = lookup().program.unwrap();
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.bytes, stats.misses), (0, 0, 1));
        let second = lookup().program.unwrap();
        assert!(!Arc::ptr_eq(&once, &second), "the second request builds again");
        assert_eq!(once, second);
        assert!(Arc::ptr_eq(&second, &lookup().program.unwrap()), "and is kept");
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 2));

        let mut state = memo.lock();
        assert!((0..SEEN_KEYS as u64).all(|h| !state.seen_before(h)), "each seen once");
        assert_eq!(state.seen.len(), SEEN_KEYS);
        assert!(state.seen_before(0), "a key seen before is admitted and forgotten as seen");
        assert!(!state.seen_before(u64::MAX), "a new key is remembered");
        assert!(!state.seen_before(u64::MAX - 1), "the next one makes room for itself");
        assert!(!state.seen_before(1), "by forgetting the oldest key");
        assert_eq!(state.seen.len(), SEEN_KEYS);
    }

    /// FNV-1a over a value's `Debug` text, streamed so a mesh-sized
    /// program never materializes as one string.
    fn debug_fingerprint(value: &impl std::fmt::Debug) -> u64 {
        struct Fnv(u64);
        impl std::fmt::Write for Fnv {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                for &b in s.as_bytes() {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
                Ok(())
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        std::fmt::Write::write_fmt(&mut h, format_args!("{value:?}")).unwrap();
        h.0
    }

    /// Pinned fingerprints of the probe's pivot order and the program
    /// compiled from it: the Markowitz selection rule and the slot
    /// numbering of `FactorProgram::compile` are contracts, so a rewrite
    /// of either must reproduce these exactly (µA741 at two window
    /// scales, and a 32×32 RC mesh under both its Markowitz and its AMD
    /// order).
    #[test]
    fn probe_orders_and_programs_match_pinned_fingerprints() {
        let fingerprint = |sys: &MnaSystem, scale: Scale, amd: bool| {
            let (dim, pattern) = affine_pattern(sys, scale);
            let order = if amd {
                let positions: Vec<(usize, usize)> =
                    pattern.iter().map(|&(r, c, _, _)| (r, c)).collect();
                refgen_sparse::ordering::minimum_degree(dim, &positions)
            } else {
                probe_order(dim, &pattern).expect("regular probe")
            };
            let program = compile_program(dim, &pattern, &order).expect("compiles");
            (debug_fingerprint(&order), debug_fingerprint(&program))
        };
        let ua = MnaSystem::new(&ua741()).unwrap();
        let mesh = MnaSystem::new(&refgen_circuit::library::grid_rc_mesh(32, 32, 1)).unwrap();
        let got = [
            fingerprint(&ua, Scale::new(1e9, 1e3), false),
            fingerprint(&ua, Scale::new(1e13, 1e2), false),
            fingerprint(&mesh, Scale::new(1e9, 1e3), false),
            fingerprint(&mesh, Scale::new(1e9, 1e3), true),
        ];
        let want = [
            (0x106a_121f_f6e3_eb47, 0x3517_af4b_2720_1940),
            (0x0bef_7080_6892_988d, 0x46f6_986d_ed4d_4f4c),
            (0x752d_7856_2eef_1fa7, 0x4e01_ac7c_a9cd_da7a),
            (0x5ff6_3c33_ea8a_e725, 0x8491_325a_ac8c_1ff9),
        ];
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "case {k}: {got:#x?}");
        }
    }

    /// The VCCS-cancelled-diagonal regression for the plan's adopted
    /// order: after a DC point climbs the ladder, near-DC points replay
    /// the plan's own kernel and produce the same values as a fresh
    /// factorization of each point would.
    #[test]
    fn adopted_order_kernel_reproduces_fresh_values() {
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "a", 1e3).unwrap();
        c.add_capacitor("C1", "a", "0", 1.0).unwrap();
        c.add_vccs("G1", "a", "0", "a", "0", -2e-3).unwrap();
        c.add_resistor("R3", "a", "b", 1e3).unwrap();
        c.add_resistor("R4", "b", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let spec = TransferSpec::voltage_gain("VIN", "b");
        let plan = SweepPlan::new(&sys, Scale::unit(), &spec).unwrap();

        let mut scratch = SweepScratch::new();
        plan.eval_at(Complex::ZERO, &mut scratch).unwrap(); // climbs the ladder
        let before = scratch.stats();
        let probe_points: Vec<Complex> =
            (1..5).map(|k| Complex::new(1e-7 * k as f64, 0.0)).collect();
        for &s in &probe_points {
            let got = plan.eval_at(s, &mut scratch).unwrap();
            let want = sys.transfer(s, Scale::unit(), &spec).unwrap();
            let rel = (got.response - want.response).abs() / want.response.abs();
            assert!(rel < 1e-12, "s = {s}: rel {rel:.2e}");
        }
        let after = scratch.stats();
        assert_eq!(after.compiled_hits - before.compiled_hits, 4, "near-DC points replay");
        assert_eq!(after.fresh_factorizations, before.fresh_factorizations);
    }

    /// `eval_batch` / `eval_det_batch` over any lane width are bit-identical
    /// to sequential `eval_at` / `eval_det` — values and accounting.
    #[test]
    fn eval_batch_is_bit_identical_to_sequential() {
        let sys = MnaSystem::new(&ua741()).unwrap();
        let scale = Scale::new(1e9, 1e3);
        let plan = SweepPlan::new(&sys, scale, &spec()).unwrap();
        let points: Vec<Complex> = (0..12)
            .map(|k| {
                let theta = 2.0 * std::f64::consts::PI * (k as f64 + 0.21) / 12.0;
                Complex::new(theta.cos(), theta.sin())
            })
            .collect();

        let mut seq = SweepScratch::new();
        let want: Vec<TransferResponse> =
            points.iter().map(|&s| plan.eval_at(s, &mut seq).unwrap()).collect();
        let want_dets: Vec<ExtComplex> =
            points.iter().map(|&s| plan.eval_det(s, &mut seq)).collect();

        for width in [1usize, 3, 8] {
            let mut batch = SweepBatchScratch::new();
            let mut got = Vec::new();
            let mut got_dets = Vec::new();
            for chunk in points.chunks(width) {
                got.extend(plan.eval_batch(chunk, &mut batch));
                got_dets.extend(plan.eval_det_batch(chunk, &mut batch));
            }
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    format!("{:?}", g.as_ref().unwrap()),
                    format!("{w:?}"),
                    "width {width}, point {k}"
                );
            }
            for (k, (g, w)) in got_dets.iter().zip(&want_dets).enumerate() {
                assert_eq!(format!("{g:?}"), format!("{w:?}"), "width {width}, det point {k}");
            }
            assert_eq!(batch.stats(), seq.stats(), "width {width}: accounting parity");
        }
    }

    /// A batch containing a point where the plan's pivot order dies (the
    /// VCCS circuit at DC) must fall back for that lane alone, matching
    /// the sequential path — values, errors, and stats.
    #[test]
    fn eval_batch_dead_lane_falls_back_like_sequential() {
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "a", 1e3).unwrap();
        c.add_capacitor("C1", "a", "0", 1.0).unwrap();
        c.add_vccs("G1", "a", "0", "a", "0", -2e-3).unwrap();
        c.add_resistor("R3", "a", "b", 1e3).unwrap();
        c.add_resistor("R4", "b", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        // Pinned to the probe order: this test documents Markowitz-probe
        // pivot mechanics (the DC-vanishing capacitor diagonal), which an
        // AMD order would pivot around.
        let plan = plan_under(
            &sys,
            Scale::unit(),
            &TransferSpec::voltage_gain("VIN", "b"),
            OrderingMode::Markowitz,
        );
        let points =
            [Complex::new(0.3, 1.1), Complex::ZERO, Complex::new(-0.4, 0.9), Complex::ZERO];

        let mut seq = SweepScratch::new();
        let want: Vec<TransferResponse> =
            points.iter().map(|&s| plan.eval_at(s, &mut seq).unwrap()).collect();

        let mut batch = SweepBatchScratch::new();
        let got = plan.eval_batch(&points, &mut batch);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(format!("{:?}", g.as_ref().unwrap()), format!("{w:?}"), "point {k}");
        }
        let stats = batch.stats();
        assert_eq!(stats, seq.stats(), "accounting parity with the sequential sweep");
        assert_eq!(stats.fresh_factorizations, 2, "both DC lanes fell back alone");
        assert_eq!(stats.compiled_hits, 2);
    }

    #[test]
    fn forced_amd_matches_markowitz_values() {
        let c = refgen_circuit::library::random_rc_mesh(40, 60, 7);
        let sys = MnaSystem::new(&c).unwrap();
        let scale = Scale::new(1e6, 1e3);
        let mk = plan_under(&sys, scale, &spec(), OrderingMode::Markowitz);
        let amd = plan_under(&sys, scale, &spec(), OrderingMode::Amd);
        assert_eq!(
            mk.ordering_choice().unwrap().selected,
            SelectedOrdering::Markowitz,
            "forced markowitz"
        );
        assert_eq!(
            amd.ordering_choice().unwrap().selected,
            SelectedOrdering::Amd,
            "forced amd must adopt on a mesh"
        );
        let mut sa = SweepScratch::new();
        let mut sb = SweepScratch::new();
        for k in 0..8 {
            let theta = 2.0 * std::f64::consts::PI * (k as f64 + 0.3) / 8.0;
            let s = Complex::new(theta.cos(), theta.sin());
            let a = mk.eval_at(s, &mut sa).unwrap();
            let b = amd.eval_at(s, &mut sb).unwrap();
            let rel = (a.response - b.response).abs() / a.response.abs().max(1e-300);
            assert!(rel < 1e-9, "point {k}: rel {rel:.2e}");
        }
    }

    #[test]
    fn auto_mode_picks_amd_on_meshes_only() {
        // A ladder is tree-like: Markowitz fill stays tiny, Auto keeps it.
        let ladder = MnaSystem::new(&rc_ladder(6, 1e3, 1e-9)).unwrap();
        let scale = Scale::new(1e6, 1e3);
        let plan = SweepPlan::new(&ladder, scale, &spec()).unwrap();
        let choice = plan.ordering_choice().unwrap();
        assert_eq!(choice.selected, SelectedOrdering::Markowitz);
        // A dense-ish random mesh crosses the fill threshold; Auto must
        // switch iff AMD actually reduces fill (the recorded numbers let
        // the test assert the contract rather than a particular topology).
        let mesh = MnaSystem::new(&refgen_circuit::library::random_rc_mesh(60, 150, 3)).unwrap();
        let plan = SweepPlan::new(&mesh, scale, &spec()).unwrap();
        let choice = plan.ordering_choice().unwrap();
        if choice.selected == SelectedOrdering::Amd {
            let (mf, af) = (choice.markowitz_fill.unwrap(), choice.amd_fill.unwrap());
            assert!(af < mf, "auto adopted amd without a fill win: {af} vs {mf}");
        }
    }

    /// The selection rule recomputed from compiled programs: compile the
    /// AMD program and the Markowitz program, read their fills, and apply
    /// the rule — Auto from [`AMD_FIRST_DIM`] on adopts AMD unprobed when
    /// its fill exceeds the mesh threshold; otherwise Auto tries AMD once
    /// the Markowitz fill exceeds it and adopts it only for strictly less
    /// fill. The reference the one-program selection must reproduce —
    /// order, program fill and choice.
    fn select_ordering_compiling_both(
        dim: usize,
        pattern: &[(usize, usize, Complex, Complex)],
        mode: OrderingMode,
    ) -> Option<(PivotOrder, usize, OrderingChoice)> {
        let threshold = amd_fill_threshold(dim, pattern.len());
        let amd = try_amd_program(dim, pattern).map(|(order, program)| (order, program.fill_in()));
        let amd_first = mode == OrderingMode::Auto && dim >= AMD_FIRST_DIM;
        let amd_choice = |markowitz_fill, amd_fill| OrderingChoice {
            selected: SelectedOrdering::Amd,
            markowitz_fill,
            amd_fill: Some(amd_fill),
        };
        if let Some((amd_order, amd_fill)) =
            amd.clone().filter(|&(_, fill)| amd_first && fill > threshold)
        {
            return Some((amd_order, amd_fill, amd_choice(None, amd_fill)));
        }
        let order = probe_order(dim, pattern)?;
        let markowitz_fill = compile_program(dim, pattern, &order)?.fill_in();
        let attempt = match mode {
            OrderingMode::Markowitz => false,
            OrderingMode::Amd => true,
            OrderingMode::Auto => markowitz_fill > threshold,
        };
        if let Some((amd_order, amd_fill)) = amd
            .clone()
            .filter(|&(_, fill)| attempt && (mode == OrderingMode::Amd || fill < markowitz_fill))
        {
            return Some((amd_order, amd_fill, amd_choice(Some(markowitz_fill), amd_fill)));
        }
        let choice = OrderingChoice {
            selected: SelectedOrdering::Markowitz,
            markowitz_fill: Some(markowitz_fill),
            amd_fill: amd.filter(|_| attempt || amd_first).map(|(_, fill)| fill),
        };
        Some((order, markowitz_fill, choice))
    }

    fn assert_selection_matches_reference(
        dim: usize,
        pattern: &[(usize, usize, Complex, Complex)],
    ) {
        for mode in [OrderingMode::Auto, OrderingMode::Markowitz, OrderingMode::Amd] {
            let got = select_ordering(dim, pattern, mode)
                .map(|sel| (sel.order, sel.program.fill_in(), sel.choice));
            assert_eq!(got, select_ordering_compiling_both(dim, pattern, mode), "{mode:?}");
        }
    }

    /// Compiling only the winning ordering changes no selection: order,
    /// program and [`OrderingChoice`] equal the compile-both reference
    /// under every mode, on patterns that keep Markowitz, that adopt AMD
    /// after the probe and that reject it, on a grid that Auto gives to
    /// AMD without a probe (dimension 257), and on a 400-section ladder
    /// above [`AMD_FIRST_DIM`] whose AMD fill sends Auto on to the probe.
    #[test]
    fn one_program_selection_matches_compile_both_reference() {
        use refgen_circuit::library::{grid_rc_mesh, random_rc_mesh};
        let scale = Scale::new(1e6, 1e3);
        for circuit in [ua741(), rc_ladder(6, 1e3, 1e-9), random_rc_mesh(60, 150, 3)] {
            let (dim, pattern) = affine_pattern(&MnaSystem::new(&circuit).unwrap(), scale);
            assert_selection_matches_reference(dim, &pattern);
        }
        let (dim, pattern) =
            affine_pattern(&MnaSystem::new(&grid_rc_mesh(16, 16, 9256)).unwrap(), Scale::unit());
        assert!(dim >= AMD_FIRST_DIM);
        assert_selection_matches_reference(dim, &pattern);
        let auto = select_ordering(dim, &pattern, OrderingMode::Auto).unwrap().choice;
        assert_eq!((auto.selected, auto.markowitz_fill), (SelectedOrdering::Amd, None));
        let (dim, pattern) =
            affine_pattern(&MnaSystem::new(&rc_ladder(400, 1e3, 1e-9)).unwrap(), scale);
        assert!(dim >= AMD_FIRST_DIM);
        assert_selection_matches_reference(dim, &pattern);
        let auto = select_ordering(dim, &pattern, OrderingMode::Auto).unwrap().choice;
        assert_eq!(auto.selected, SelectedOrdering::Markowitz);
        assert!(auto.markowitz_fill.is_some() && auto.amd_fill.is_some(), "{auto:?}");
    }

    /// A probe whose elimination skips a stored exact zero cannot certify
    /// its fill (it reports 0 where the compiled program fills 1): the
    /// selection compiles the Markowitz program for the fill, exactly as
    /// the reference does.
    #[test]
    fn uncertified_probe_fill_falls_back_to_the_compiled_fill() {
        let real = |v: f64| Complex::real(v);
        let pattern: Vec<(usize, usize, Complex, Complex)> =
            [(0, 0, 2.0), (0, 1, 4.0), (1, 0, 1.0), (1, 2, 0.0), (2, 1, 0.0), (2, 2, 2.0)]
                .into_iter()
                .map(|(r, c, v)| (r, c, real(v), Complex::ZERO))
                .collect();
        let probe = probe_at(3, &pattern, generic_probe()).unwrap();
        assert_eq!((probe.fill_in(), probe.structural_fill()), (0, None));
        assert_selection_matches_reference(3, &pattern);
        let choice = select_ordering(3, &pattern, OrderingMode::Markowitz).unwrap().choice;
        assert_eq!(choice.markowitz_fill, Some(1));
    }

    #[test]
    fn cache_keeps_ordering_modes_separate() {
        let c = refgen_circuit::library::random_rc_mesh(40, 60, 7);
        let sys = MnaSystem::new(&c).unwrap();
        let scale = Scale::new(1e6, 1e3);
        let cache = PlanCache::new();
        let mk = SweepPlan::new_cached_with_ordering(
            &sys,
            scale,
            &spec(),
            &cache,
            OrderingMode::Markowitz,
        )
        .unwrap();
        let amd =
            SweepPlan::new_cached_with_ordering(&sys, scale, &spec(), &cache, OrderingMode::Amd)
                .unwrap();
        assert_eq!(mk.ordering_choice().unwrap().selected, SelectedOrdering::Markowitz);
        assert_eq!(amd.ordering_choice().unwrap().selected, SelectedOrdering::Amd);
        // A second plan per mode must hit the cache entry for *its* mode.
        let mk2 = SweepPlan::new_cached_with_ordering(
            &sys,
            scale,
            &spec(),
            &cache,
            OrderingMode::Markowitz,
        )
        .unwrap();
        assert_eq!(mk2.ordering_choice(), mk.ordering_choice());
        let amd2 =
            SweepPlan::new_cached_with_ordering(&sys, scale, &spec(), &cache, OrderingMode::Amd)
                .unwrap();
        assert_eq!(amd2.ordering_choice(), amd.ordering_choice());
    }

    fn circle_points(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|k| {
                let theta = 2.0 * std::f64::consts::PI * (k as f64 + 0.37) / n as f64;
                Complex::new(theta.cos(), theta.sin())
            })
            .collect()
    }

    /// The identities the merged counters rest on, checked on a fresh
    /// scratch after `points` run through `eval_at`, and through
    /// `eval_batch` and `eval_det_batch` at widths 1, 3 and 32: every
    /// point is either a compiled replay or a fresh factorization, and on
    /// a plan with a program every fresh factorization ends at exactly one
    /// rung of the recovery ladder.
    fn assert_accounting_identities(plan: &SweepPlan, points: &[Complex]) {
        let check = |stats: SweepStats, at: &str| {
            let solved = stats.compiled_hits + stats.fresh_factorizations;
            assert_eq!(solved, points.len() as u64, "{at}: {stats:?}");
            if plan.program().is_some() {
                let rungs = stats.recovered_fresh + stats.recovered_reordered + stats.unrecoverable;
                assert_eq!(stats.fresh_factorizations, rungs, "{at}: {stats:?}");
            }
        };
        let mut one = SweepScratch::new();
        for &s in points {
            let _ = plan.eval_at(s, &mut one);
        }
        check(one.stats(), "eval_at");
        for width in [1usize, 3, 32] {
            let (mut transfer, mut det) = (SweepBatchScratch::new(), SweepBatchScratch::new());
            for chunk in points.chunks(width) {
                let _ = plan.eval_batch(chunk, &mut transfer);
                let _ = plan.eval_det_batch(chunk, &mut det);
            }
            check(transfer.stats(), &format!("eval_batch, width {width}"));
            check(det.stats(), &format!("eval_det_batch, width {width}"));
        }
    }

    #[test]
    fn ladder_rung1_rescues_dead_replays_with_fresh_markowitz() {
        let sys = MnaSystem::new(&ua741()).unwrap();
        let plan = SweepPlan::new(&sys, Scale::new(1e9, 1e3), &spec()).unwrap();
        let points = circle_points(6);
        let mut clean_scratch = SweepScratch::new();
        let clean: Vec<TransferResponse> =
            points.iter().map(|&s| plan.eval_at(s, &mut clean_scratch).unwrap()).collect();

        let _guard = faults::install(
            faults::FaultPlan::new().fault_variant(7, faults::FaultKind::ReplayZeroPivot),
        );
        let _scope = faults::FaultScope::variant(7);
        let mut scratch = SweepScratch::new();
        for (k, &s) in points.iter().enumerate() {
            let r = plan.eval_at(s, &mut scratch).unwrap();
            let rel = (r.response - clean[k].response).abs() / clean[k].response.abs();
            assert!(rel < 1e-9, "recovered point {k} drifted: rel {rel:.2e}");
        }
        let stats = scratch.stats();
        assert_eq!(stats.compiled_hits, 0, "every replay was injected dead: {stats:?}");
        assert_eq!(stats.recovered_fresh, points.len() as u64, "{stats:?}");
        assert_eq!(stats.recovered_reordered, 0, "{stats:?}");
        assert_eq!(stats.unrecoverable, 0, "{stats:?}");
        assert_accounting_identities(&plan, &points);
    }

    #[test]
    fn ladder_rung2_rescues_via_alternate_ordering() {
        let sys = MnaSystem::new(&ua741()).unwrap();
        let plan = SweepPlan::new(&sys, Scale::new(1e9, 1e3), &spec()).unwrap();
        let points = circle_points(4);
        let mut clean_scratch = SweepScratch::new();
        let clean: Vec<TransferResponse> =
            points.iter().map(|&s| plan.eval_at(s, &mut clean_scratch).unwrap()).collect();

        let _guard = faults::install(
            faults::FaultPlan::new().fault_variant(3, faults::FaultKind::FreshSingular),
        );
        let _scope = faults::FaultScope::variant(3);
        let mut scratch = SweepScratch::new();
        for (k, &s) in points.iter().enumerate() {
            let r = plan.eval_at(s, &mut scratch).unwrap();
            let rel = (r.response - clean[k].response).abs() / clean[k].response.abs();
            assert!(rel < 1e-9, "reordered point {k} drifted: rel {rel:.2e}");
        }
        let stats = scratch.stats();
        assert_eq!(stats.recovered_reordered, points.len() as u64, "{stats:?}");
        assert_eq!(stats.recovered_fresh, 0, "{stats:?}");
        assert_eq!(stats.unrecoverable, 0, "{stats:?}");
        assert_accounting_identities(&plan, &points);
    }

    #[test]
    fn exhausted_ladder_is_a_typed_per_point_failure() {
        let sys = MnaSystem::new(&ua741()).unwrap();
        let plan = SweepPlan::new(&sys, Scale::new(1e9, 1e3), &spec()).unwrap();
        let _guard =
            faults::install(faults::FaultPlan::new().fault_variant(5, faults::FaultKind::Singular));
        let _scope = faults::FaultScope::variant(5);
        let mut scratch = SweepScratch::new();
        let s = Complex::new(0.6, 0.8);
        match plan.eval_at(s, &mut scratch) {
            Err(MnaError::Unrecoverable { rung, .. }) => assert_eq!(rung, 3),
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
        // Determinant sampling reports the singular-matrix convention.
        assert_eq!(plan.eval_det(s, &mut scratch), ExtComplex::ZERO);
        let stats = scratch.stats();
        assert_eq!(stats.unrecoverable, 2, "{stats:?}");
        assert_eq!(stats.recovered_fresh + stats.recovered_reordered, 0, "{stats:?}");
        assert_accounting_identities(&plan, &circle_points(4));
    }

    /// A faulted lane in the batched path is masked — it takes the exact
    /// sequential ladder, bit for bit, accounting included — and never
    /// disturbs its neighbours.
    #[test]
    fn faulted_batch_lanes_match_sequential_ladder_bitwise() {
        let sys = MnaSystem::new(&ua741()).unwrap();
        let plan = SweepPlan::new(&sys, Scale::new(1e9, 1e3), &spec()).unwrap();
        let points = circle_points(4);
        let _guard = faults::install(
            faults::FaultPlan::new().fault_variant(2, faults::FaultKind::ReplayZeroPivot),
        );
        let _scope = faults::FaultScope::variant(2);
        let mut batch = SweepBatchScratch::new();
        let batched = plan.eval_batch(&points, &mut batch);
        let mut seq = SweepScratch::new();
        for (k, (&s, b)) in points.iter().zip(&batched).enumerate() {
            let r = plan.eval_at(s, &mut seq).unwrap();
            let b = b.as_ref().unwrap();
            assert_eq!(b.response.re.to_bits(), r.response.re.to_bits(), "lane {k}");
            assert_eq!(b.response.im.to_bits(), r.response.im.to_bits(), "lane {k}");
            assert_eq!(b.denominator, r.denominator, "lane {k}");
        }
        let bs = batch.stats();
        assert_eq!(bs.recovered_fresh, points.len() as u64, "{bs:?}");
        assert_eq!(bs, seq.stats(), "batched accounting must match sequential");
        assert_accounting_identities(&plan, &points);
    }

    /// The contract shared opening windows rest on: the denominator a
    /// transfer evaluation reports (`ExtComplex::ZERO` where it fails) is
    /// bit for bit the determinant-only plan's sample, with the same
    /// accounting — one lane at a time (`eval_at` vs `eval_det`) and
    /// batched (`eval_batch` vs `eval_det_batch`) at several lane widths,
    /// on clean points, on points where the recorded order dies, and under
    /// every replay fault kind and a NaN-stamped point.
    #[test]
    fn transfer_denominator_is_the_det_sample_bitwise() {
        fn det_bits(d: ExtComplex) -> (u64, u64, i64) {
            (d.mantissa().re.to_bits(), d.mantissa().im.to_bits(), d.exponent())
        }
        fn denominator(r: Result<TransferResponse, MnaError>) -> (u64, u64, i64) {
            det_bits(r.map_or(ExtComplex::ZERO, |t| t.denominator))
        }
        fn check(sys: &MnaSystem, spec: &TransferSpec, scale: Scale, points: &[Complex], at: &str) {
            let cache = PlanCache::new();
            let mode = OrderingMode::Markowitz;
            let det_plan =
                SweepPlan::for_determinant_cached_with_ordering(sys, scale, &cache, mode);
            let plan = SweepPlan::new_cached_with_ordering(sys, scale, spec, &cache, mode).unwrap();
            let (mut a, mut b) = (SweepScratch::new(), SweepScratch::new());
            for (k, &s) in points.iter().enumerate() {
                let got = denominator(plan.eval_at(s, &mut a));
                assert_eq!(
                    got,
                    det_bits(det_plan.eval_det(s, &mut b)),
                    "{at}: one lane, point {k}"
                );
            }
            assert_eq!(a.stats(), b.stats(), "{at}: one-lane accounting");
            for width in [1usize, 3, 8] {
                let (mut a, mut b) = (SweepBatchScratch::new(), SweepBatchScratch::new());
                for (c, chunk) in points.chunks(width).enumerate() {
                    let got: Vec<_> =
                        plan.eval_batch(chunk, &mut a).into_iter().map(denominator).collect();
                    let want: Vec<_> =
                        det_plan.eval_det_batch(chunk, &mut b).into_iter().map(det_bits).collect();
                    assert_eq!(got, want, "{at}: width {width}, chunk {c}");
                }
                assert_eq!(a.stats(), b.stats(), "{at}: width {width} accounting");
            }
        }

        let sys = MnaSystem::new(&ua741()).unwrap();
        let scale = Scale::new(1e9, 1e3);
        let points = circle_points(12);
        check(&sys, &spec(), scale, &points, "clean");

        // Dead lanes: the VCCS circuit's recorded order dies at DC.
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "a", 1e3).unwrap();
        c.add_capacitor("C1", "a", "0", 1.0).unwrap();
        c.add_vccs("G1", "a", "0", "a", "0", -2e-3).unwrap();
        c.add_resistor("R3", "a", "b", 1e3).unwrap();
        c.add_resistor("R4", "b", "0", 1e3).unwrap();
        let vccs = MnaSystem::new(&c).unwrap();
        let dc = [Complex::new(0.3, 1.1), Complex::ZERO, Complex::new(-0.4, 0.9), Complex::ZERO];
        check(&vccs, &TransferSpec::voltage_gain("VIN", "b"), Scale::unit(), &dc, "dead lanes");

        // Injected faults: every ladder depth, plus one NaN-stamped point.
        let kinds = [
            faults::FaultKind::ReplayZeroPivot,
            faults::FaultKind::FreshSingular,
            faults::FaultKind::Singular,
        ];
        for (variant, kind) in kinds.into_iter().enumerate() {
            let _guard = faults::install(
                faults::FaultPlan::new().fault_variant(variant, kind).nan_stamp_at(points[5]),
            );
            let _scope = faults::FaultScope::variant(variant);
            check(&sys, &spec(), scale, &points, &format!("{kind:?}"));
        }
        let _guard = faults::install(faults::FaultPlan::new().nan_stamp_at(points[5]));
        let _scope = faults::FaultScope::variant(0);
        check(&sys, &spec(), scale, &points, "NaN stamp");
    }
}
