//! Configuration for the adaptive interpolation algorithm.

pub use refgen_mna::OrderingMode;

/// The executor a configuration once chose between per-batch scoped
/// threads and a persistent worker pool. Every configuration now runs on
/// the pool (`refgen_exec::WorkerPool`), whose output was bit-identical to
/// the scoped executor's, so the choice is gone; the name stays so that
/// code which still names a kind keeps compiling.
#[deprecated(note = "every configuration runs on the worker pool; the executor choice is a no-op")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Formerly: scoped threads spawned per batch.
    Scoped,
    /// Formerly: a persistent worker pool.
    Pool,
}

/// How a fleet session ([`BatchSession`](crate::BatchSession)) treats a
/// failing variant.
///
/// `FailFast` preserves the historical semantics: the first per-variant
/// error aborts the whole run (and a panicking variant unwinds it).
/// `Contain` turns each failure into a typed per-variant
/// [`VariantOutcome::Failed`](crate::VariantOutcome::Failed) — including
/// quarantined job panics — while every surviving variant's solution,
/// diagnostics, and accounting stay **bit-identical** to a fault-free run
/// of the surviving circuits alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// The first failing variant aborts the fleet (historical behavior).
    #[default]
    FailFast,
    /// Failures are contained per variant; survivors are unaffected.
    Contain,
}

/// Tuning knobs for [`AdaptiveInterpolator`](crate::AdaptiveInterpolator).
///
/// The defaults mirror the paper: coefficients are accepted with
/// [`RefgenConfig::SIG_DIGITS`] `= 6` significant digits against a
/// machine noise floor of `10^{-13}·max_i|p'_i|`
/// ([`RefgenConfig::NOISE_DECADES`]; §2.2/§3.2), the tuning factor `r` of
/// eq. (14) is zero, and the problem-size reduction of eq. (17) is on.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`RefgenConfig::default`] or the [builder](RefgenConfig::builder) —
/// `RefgenConfig::builder().verify(false).reduce(false).build()` — so new
/// knobs can be added without breaking downstream code.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub struct RefgenConfig {
    /// The paper's tuning factor `r` in eqs. (14)–(15): extra decades of
    /// window overlap margin when stepping the scale factors.
    pub tuning_r: f64,
    /// Hard cap on the number of interpolations per polynomial, verify
    /// windows included. A walk step or gap repair opens its window only
    /// when its whole checked pair fits. With [`RefgenConfig::verify`] on,
    /// every step takes two windows of the budget, and the cap must be at
    /// least 2 to hold the opening pair.
    pub max_interpolations: usize,
    /// Apply the problem-size reduction of eq. (17) (fewer interpolation
    /// points once head/tail coefficients are known).
    pub reduce: bool,
    /// How many bisection attempts (eq. (16)) to repair a window gap.
    pub gap_retries: u32,
    /// Cross-verify every window by re-interpolating at a slightly
    /// perturbed scale and accepting only coefficients that agree — the
    /// paper's §3.1 "only coefficients equal in both interpolations are
    /// valid" criterion, applied adaptively. Costs one extra interpolation
    /// per window; turn off to reproduce the paper's exact
    /// interpolation-count/CPU-time structure (Tables 2–3).
    pub verify: bool,
    /// Cap on the scale-step tilt, in decades per coefficient index.
    /// Beyond ~8 the element-value imbalance of the scaled matrix starts
    /// eroding the LU determinant itself (the paper's §3.2 warning about
    /// too-large individual scale factors). Once a step is clamped, every
    /// escalating stall retry after it is clamped to the same scale; those
    /// retries are skipped (see [`RefgenConfig::STALL_RETRIES`]). Must be
    /// positive; `f64::INFINITY` removes the cap.
    pub max_step_decades_per_index: f64,
    /// Worker threads for batched unit-circle sampling and for fleet
    /// variants: each window's points are independent numeric
    /// refactorizations and each variant an independent solve, mapped by
    /// one `refgen_exec::WorkerPool` per solve (or per fleet) with
    /// deterministic, index-ordered collection — solver output is
    /// **bit-identical at any thread count**. The pool spawns its threads
    /// once and reuses them for every window and polynomial. `0` means
    /// "use the available hardware parallelism"; the default is `1`
    /// (single-threaded: nothing is spawned, every batch runs inline).
    pub threads: usize,
    /// Exploit conjugate symmetry in window sampling: the MNA pattern's
    /// `K₀`/`K₁` and RHS are real for every supported element, so
    /// `D(s̄) = conj(D(s))` **exactly**, and IEEE complex arithmetic is
    /// conjugate-equivariant — the sampler solves only the closed upper
    /// half of each window's conjugate-paired σ set and mirrors the rest
    /// **bit-identically**, halving solves per window. Output is identical
    /// either way; only wall-clock time changes. Default `true`.
    pub conjugate_mirror: bool,
    /// Lane width for batched window sampling and for the direct AC sweep
    /// of [`ac_sweep_with_config`](crate::ac_sweep_with_config): how many
    /// points one call of the compiled symbolic kernel's batched pass
    /// takes (`refgen_sparse`'s `BatchScratch` lanes, stamped, replayed
    /// and solved in blocks of eight). Every width runs the same loop; a one-point lane group
    /// (every group at width `1`) replays the one-point path. Batching is
    /// orthogonal to [`RefgenConfig::threads`] — lanes amortize
    /// instruction fetch inside one worker, threads fan groups across
    /// workers — and per live lane the batched kernel performs the exact
    /// scalar operation sequence of a one-point evaluation, so output is
    /// **bit-identical at any lane width**. Default `32`.
    pub lane_width: usize,
    /// Pivot-ordering policy for the sampling plans:
    /// [`OrderingMode::Auto`] lets the sweep engine keep the numeric
    /// Markowitz probe order unless its realized fill crosses the
    /// mesh-scale threshold, at which point a validated
    /// approximate-minimum-degree order takes over (on patterns of
    /// dimension 256 and up AMD is tried first, and a mesh skips the
    /// probe);
    /// [`OrderingMode::Markowitz`]/[`OrderingMode::Amd`] force one side.
    /// The selection is symbolic-phase only — every ordering feeds the
    /// same compiled kernel, and per-point output is bit-identical for a
    /// fixed selection. Default [`OrderingMode::Auto`].
    pub ordering: OrderingMode,
    /// How fleet sessions treat failing variants: abort on the first error
    /// ([`FaultPolicy::FailFast`], the historical default) or contain each
    /// failure as a typed per-variant outcome while survivors complete
    /// bit-identically ([`FaultPolicy::Contain`]). Single-circuit solves
    /// ignore this knob.
    pub fault_policy: FaultPolicy,
}

impl Default for RefgenConfig {
    fn default() -> Self {
        RefgenConfig {
            tuning_r: 0.0,
            max_interpolations: 64,
            reduce: true,
            gap_retries: 3,
            verify: true,
            max_step_decades_per_index: 8.0,
            threads: 1,
            conjugate_mirror: true,
            // `32`: a µA741 window's points (at most 21) fit one batch.
            // The batched pass stamps, replays and solves one block of
            // eight lanes at a time in one block of slots per worker,
            // whatever the width (~3 MiB on the 1 025-unknown grid RC
            // mesh's ~24 000 slots), so a 95-point
            // `AcAnalysis::sweep_fast` of that mesh costs the same at
            // widths 8 and 32 (see `sweep_fast`), both far ahead of
            // width 1.
            lane_width: 32,
            ordering: OrderingMode::Auto,
            fault_policy: FaultPolicy::default(),
        }
    }
}

impl RefgenConfig {
    /// Desired significant digits `σ` in accepted coefficients.
    pub const SIG_DIGITS: u32 = 6;

    /// Decades of dynamic range assumed lost to round-off in one
    /// interpolation (the paper's `13` in `10^{-13}·max|pᵢ|`).
    pub const NOISE_DECADES: f64 = 13.0;

    /// How many escalating re-tilts to try when an adaptive step yields no
    /// new coefficients, before declaring the remaining ones zero. An
    /// attempt whose stepped scale repeats the previous attempt's bit for
    /// bit (the step clamped by
    /// [`RefgenConfig::max_step_decades_per_index`]) would compute the
    /// same rejected window again, so it is skipped: it opens no window
    /// and uses none of the [`RefgenConfig::max_interpolations`] budget.
    pub const STALL_RETRIES: u32 = 3;

    /// Starts a [`RefgenConfigBuilder`] from the paper defaults.
    pub fn builder() -> RefgenConfigBuilder {
        RefgenConfigBuilder { config: RefgenConfig::default() }
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if limits are zero, `max_interpolations` cannot hold the
    /// opening window and its verify window, or
    /// `max_step_decades_per_index` is not positive (`NaN` included).
    pub fn assert_valid(&self) {
        assert!(self.max_interpolations > 0, "max_interpolations must be positive");
        assert!(
            !self.verify || self.max_interpolations >= 2,
            "max_interpolations must be at least 2 with verify on (the opening window and its \
             verify window)"
        );
        assert!(self.tuning_r >= 0.0, "tuning_r must be non-negative");
        assert!(self.lane_width >= 1, "lane_width must be at least 1");
        assert!(
            self.max_step_decades_per_index > 0.0,
            "max_step_decades_per_index must be positive, got {}",
            self.max_step_decades_per_index
        );
    }
}

// `SIG_DIGITS` must leave a usable window below the noise floor.
const _: () = assert!((RefgenConfig::SIG_DIGITS as f64) < RefgenConfig::NOISE_DECADES);

/// Chainable constructor for [`RefgenConfig`], starting from the paper
/// defaults. One setter per knob; [`RefgenConfigBuilder::build`] validates.
///
/// ```
/// use refgen_core::RefgenConfig;
///
/// let cfg = RefgenConfig::builder().verify(false).reduce(false).build();
/// assert!(!cfg.verify && !cfg.reduce);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct RefgenConfigBuilder {
    config: RefgenConfig,
}

impl RefgenConfigBuilder {
    /// The paper's tuning factor `r` of eqs. (14)–(15).
    #[must_use]
    pub fn tuning_r(mut self, tuning_r: f64) -> Self {
        self.config.tuning_r = tuning_r;
        self
    }

    /// Hard cap on interpolations per polynomial.
    #[must_use]
    pub fn max_interpolations(mut self, max_interpolations: usize) -> Self {
        self.config.max_interpolations = max_interpolations;
        self
    }

    /// Apply the problem-size reduction of eq. (17).
    #[must_use]
    pub fn reduce(mut self, reduce: bool) -> Self {
        self.config.reduce = reduce;
        self
    }

    /// Bisection attempts (eq. (16)) to repair a window gap.
    #[must_use]
    pub fn gap_retries(mut self, gap_retries: u32) -> Self {
        self.config.gap_retries = gap_retries;
        self
    }

    /// Cross-verify every window at a perturbed scale.
    #[must_use]
    pub fn verify(mut self, verify: bool) -> Self {
        self.config.verify = verify;
        self
    }

    /// Cap on the scale-step tilt, in decades per coefficient index.
    #[must_use]
    pub fn max_step_decades_per_index(mut self, decades: f64) -> Self {
        self.config.max_step_decades_per_index = decades;
        self
    }

    /// Worker threads for batched window sampling (`0` = available
    /// hardware parallelism). Output is bit-identical at any value; only
    /// wall-clock time changes.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Does nothing: every configuration runs on the worker pool (see
    /// [`ExecutorKind`]).
    #[deprecated(
        note = "every configuration runs on the worker pool; the executor choice is a no-op"
    )]
    #[allow(deprecated)]
    #[must_use]
    pub fn executor(self, _executor: ExecutorKind) -> Self {
        self
    }

    /// Solve only the closed upper half of each window's conjugate-paired
    /// σ set and mirror the rest (real-pattern systems only; output is
    /// bit-identical either way). `false` forces the full sweep.
    #[must_use]
    pub fn conjugate_mirror(mut self, conjugate_mirror: bool) -> Self {
        self.config.conjugate_mirror = conjugate_mirror;
        self
    }

    /// Lane width for batched window sampling (how many σ points one call
    /// of the compiled kernel's batched pass takes; at `1` every call is
    /// a one-point evaluation). Output is bit-identical at any width.
    #[must_use]
    pub fn lane_width(mut self, lane_width: usize) -> Self {
        self.config.lane_width = lane_width;
        self
    }

    /// Pivot-ordering policy for sampling plans (auto-select, or force
    /// Markowitz / approximate minimum degree). Symbolic phase only;
    /// output is bit-identical for a fixed selection.
    #[must_use]
    pub fn ordering(mut self, ordering: OrderingMode) -> Self {
        self.config.ordering = ordering;
        self
    }

    /// How fleet sessions treat failing variants (abort on first error, or
    /// contain each failure per variant).
    #[must_use]
    pub fn fault_policy(mut self, fault_policy: FaultPolicy) -> Self {
        self.config.fault_policy = fault_policy;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics when the knobs are inconsistent
    /// (see [`RefgenConfig::assert_valid`]).
    pub fn build(self) -> RefgenConfig {
        self.config.assert_valid();
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides_and_validates() {
        let cfg = RefgenConfig::builder()
            .tuning_r(1.5)
            .max_interpolations(7)
            .reduce(false)
            .gap_retries(1)
            .verify(false)
            .max_step_decades_per_index(6.0)
            .threads(4)
            .conjugate_mirror(false)
            .lane_width(4)
            .ordering(OrderingMode::Amd)
            .fault_policy(FaultPolicy::Contain)
            .build();
        assert_eq!(cfg.ordering, OrderingMode::Amd);
        assert_eq!(cfg.fault_policy, FaultPolicy::Contain);
        assert_eq!(cfg.threads, 4);
        assert!(!cfg.conjugate_mirror);
        assert_eq!(cfg.lane_width, 4);
        assert_eq!(cfg.tuning_r, 1.5);
        assert_eq!(cfg.max_interpolations, 7);
        assert!(!cfg.reduce && !cfg.verify);
        assert_eq!(cfg.gap_retries, 1);
        assert_eq!(cfg.max_step_decades_per_index, 6.0);
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(RefgenConfig::builder().build(), RefgenConfig::default());
    }

    /// Code that still names an executor kind builds the configuration it
    /// would have built without naming one.
    #[test]
    #[allow(deprecated)]
    fn deprecated_executor_choice_is_a_no_op() {
        for kind in [ExecutorKind::Scoped, ExecutorKind::Pool] {
            assert_eq!(
                RefgenConfig::builder().executor(kind).threads(4).build(),
                RefgenConfig::builder().threads(4).build(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn default_matches_paper() {
        let c = RefgenConfig::default();
        assert_eq!(RefgenConfig::SIG_DIGITS, 6);
        assert_eq!(RefgenConfig::NOISE_DECADES, 13.0);
        assert_eq!(c.threads, 1);
        assert!(c.conjugate_mirror);
        assert_eq!(c.lane_width, 32);
        assert_eq!(c.ordering, OrderingMode::Auto);
        assert_eq!(c.fault_policy, FaultPolicy::FailFast);
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "at least 2 with verify on")]
    fn rejects_a_budget_without_room_for_the_verify_window() {
        RefgenConfig::builder().max_interpolations(1).build();
    }

    #[test]
    fn one_window_budget_is_valid_without_verify() {
        RefgenConfig::builder().max_interpolations(1).verify(false).build();
    }

    #[test]
    #[should_panic(expected = "max_step_decades_per_index must be positive")]
    fn rejects_a_negative_step_cap() {
        RefgenConfig::builder().max_step_decades_per_index(-1.0).build();
    }

    #[test]
    #[should_panic(expected = "max_step_decades_per_index must be positive")]
    fn rejects_a_zero_step_cap() {
        RefgenConfig::builder().max_step_decades_per_index(0.0).build();
    }

    #[test]
    #[should_panic(expected = "max_step_decades_per_index must be positive")]
    fn rejects_a_nan_step_cap() {
        RefgenConfig::builder().max_step_decades_per_index(f64::NAN).build();
    }

    #[test]
    fn an_infinite_step_cap_is_valid() {
        RefgenConfig::builder().max_step_decades_per_index(f64::INFINITY).build();
    }

    #[test]
    #[should_panic(expected = "lane_width")]
    fn rejects_zero_lane_width() {
        RefgenConfig::builder().lane_width(0).build();
    }
}
