//! Batch sessions: Monte-Carlo / sensitivity fleets over one topology.
//!
//! A [`BatchSession`] solves a whole fleet of same-topology circuit
//! variants — generated from a seeded [`VariantSet`] or supplied
//! explicitly — through **one** [`SamplingRuntime`]: its worker pool
//! spawns once for the fleet, and the shared plan cache means one pivot
//! search per *topology* (plus one per plan cell whose growth gate
//! fails), not per variant: every cell's order is computed from the
//! topology's anchor, the base circuit. The topology itself is built once
//! too: every variant's [`MnaSystem`] is compiled
//! [on the base's stamp topology](MnaSystem::with_topology_of), so a
//! variant whose raw stamps match the base's fills in only its values,
//! and shares the base's merge of duplicate positions and its memoized
//! degree bounds (a variant that does not match builds its own). The
//! sharing lasts for one `solve_all`. Progress is
//! streamed as [`Diagnostic::VariantSolved`] events, and the aggregate
//! [`BatchReport`] carries per-coefficient mean/variance plus the
//! per-variant cost accounting.
//!
//! Every fleet, whatever its solver and thread count, runs one path:
//! **variant-major**. Whole variants are mapped over the runtime's pool
//! (inline at one thread), each worker solving through
//! [`Solver::solve_system`] on a single-threaded
//! [`SamplingRuntime::variant_worker`] runtime that shares the fleet's
//! plan cache. Inside each variant, `config.lane_width` unit-circle
//! points go through one call of the compiled kernel's batched pass
//! (see `refgen_sparse::BatchScratch`'s lane layout). The two axes
//! compose but never interact with results.
//!
//! Determinism: variants are generated from a fixed seed, every variant's
//! plan cells are anchored before any variant plans, the pool collects in
//! index order, and both pivot-order replay and batched lane replay are
//! value-exact — so a batch run is **bit-identical** at any thread count
//! and any lane width (`tests/fleet_oracle.rs` asserts it against
//! closed-form statistics). Each variant solves into a sink; its recorded
//! diagnostics are replayed to the session observer afterwards, in variant
//! order, so the observer stream is the same at any thread count too.
//!
//! Fault containment: every variant's solve runs under `catch_unwind`,
//! whatever the policy, and every variant is solved before any result is
//! settled, in variant order. Under the default
//! [`FaultPolicy::FailFast`](crate::FaultPolicy) a fleet is
//! all-or-nothing — the lowest-index failing variant decides the run, at
//! any thread count: its error is returned, or its panic re-raised with
//! the original payload.
//! Under [`FaultPolicy::Contain`](crate::FaultPolicy) each variant's
//! failure (a typed solve error, or a quarantined panic) becomes a
//! [`VariantOutcome::Failed`] entry, which streams nothing to the
//! observer, and the fleet keeps going; the
//! [`BatchReport`] then aggregates over the survivors only, with the
//! failed indices accounted exactly in
//! [`BatchReport::failed_variants`]. Containment never perturbs
//! surviving variants: their solutions, diagnostics, and accounting are
//! bit-identical to a fleet that never contained the failed circuits
//! (`tests/fault_containment.rs` pins this across thread counts and lane
//! widths).
//!
//! # Example
//!
//! ```
//! use refgen_circuit::library::rc_ladder;
//! use refgen_circuit::perturb::{ElementClass, Perturbation, VariantSet};
//! use refgen_core::Session;
//! use refgen_mna::TransferSpec;
//!
//! # fn main() -> Result<(), refgen_core::RefgenError> {
//! let base = rc_ladder(4, 1e3, 1e-9);
//! let tolerances = Perturbation::new()
//!     .relative(ElementClass::Resistors, 0.05)
//!     .relative(ElementClass::Capacitors, 0.10);
//! let run = Session::for_circuit(&base)
//!     .spec(TransferSpec::voltage_gain("VIN", "out"))
//!     .variants(VariantSet::new(tolerances, 16).seed(7))
//!     .solve_all()?;
//! assert_eq!(run.solutions().len(), 16);
//! assert_eq!(run.report.variants, 16);
//! // Every variant recovered the full 4th-order denominator…
//! assert!(run.solutions().iter().all(|s| s.network.denominator.degree() == Some(4)));
//! // …and the per-coefficient spread is available directly.
//! assert!(run.report.denominator[1].variance.to_f64() > 0.0);
//! # Ok(())
//! # }
//! ```

use crate::adaptive::{opening_scale, AdaptiveInterpolator};
use crate::config::{FaultPolicy, RefgenConfig};
use crate::diagnostic::{Diagnostic, NullObserver, Observer};
use crate::error::RefgenError;
use crate::runtime::SamplingRuntime;
use crate::solver::{Solution, Solver};
use refgen_circuit::perturb::VariantSet;
use refgen_circuit::Circuit;
use refgen_exec::JobPanic;
use refgen_mna::{faults, MnaError, MnaSystem, TransferSpec};
use refgen_numeric::{ExtComplex, ExtFloat};
use std::any::Any;
use std::panic::AssertUnwindSafe;

/// Where a batch session's fleet comes from.
pub(crate) enum VariantInput<'a> {
    /// Generate from a seeded tolerance recipe at solve time.
    Generated(VariantSet),
    /// Caller-supplied circuits, borrowed (the session never needs
    /// ownership). They should share the base circuit's topology for plan
    /// reuse and stamp-topology sharing to engage; differing topologies
    /// still solve correctly, each paying its own pivot searches (the plan
    /// cache keys on the sparsity pattern, never just the dimension) and
    /// its own stamp merge.
    Explicit(&'a [Circuit]),
}

/// A configured fleet solve. Built by
/// [`Session::variants`](crate::Session::variants) /
/// [`Session::variant_circuits`](crate::Session::variant_circuits); see
/// the [module docs](self) for the example and guarantees.
pub struct BatchSession<'a> {
    pub(crate) circuit: &'a Circuit,
    pub(crate) spec: Option<TransferSpec>,
    pub(crate) config: RefgenConfig,
    pub(crate) solver: Option<Box<dyn Solver + 'a>>,
    pub(crate) observer: Option<&'a mut dyn Observer>,
    pub(crate) variants: VariantInput<'a>,
}

/// Mean/variance of one recovered coefficient across a fleet
/// (population statistics of the real parts — the imaginary parts of
/// recovered coefficients are round-off diagnostics), in extended range.
///
/// Each coefficient index is aligned to the largest binary exponent it
/// takes across the survivors, and its mean and variance are computed in
/// `f64` there, so coefficients far outside `f64`'s range (the deep µA741
/// tails reach below 1e−300) keep their spread. Where every value fits
/// `f64`, both figures are bit for bit the plain `f64` computation: the
/// alignment is a power of two.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoeffStats {
    /// Sample mean.
    pub mean: ExtFloat,
    /// Population variance (`Σ(x−mean)²/n`).
    pub variance: ExtFloat,
}

impl CoeffStats {
    /// Population standard deviation.
    pub fn std_dev(&self) -> ExtFloat {
        self.variance.sqrt()
    }
}

/// Aggregate outcome of a [`BatchSession::solve_all`] fleet.
///
/// All per-variant vectors and all coefficient moments range over the
/// **surviving** variants only (in fleet order); contained failures are
/// accounted exactly through [`BatchReport::variants_attempted`] and
/// [`BatchReport::failed_variants`]. Under
/// [`FaultPolicy::FailFast`](crate::FaultPolicy) every attempted variant
/// survives, so `variants == variants_attempted` and `failed_variants`
/// is empty.
#[derive(Clone, Debug)]
#[must_use = "fleet accounting is the fault-containment ledger — read it or drop it explicitly"]
pub struct BatchReport {
    /// Number of variants solved (the survivors).
    pub variants: usize,
    /// Number of variants the fleet attempted, including contained
    /// failures: `variants + failed_variants.len()`.
    pub variants_attempted: usize,
    /// Fleet indices of the variants that failed under
    /// [`FaultPolicy::Contain`](crate::FaultPolicy), ascending. Empty
    /// under `FailFast` (the first failure aborts the run instead).
    pub failed_variants: Vec<usize>,
    /// Per-coefficient statistics of the denominator polynomials
    /// (ascending powers; fleets whose variants disagree on degree are
    /// padded with zeros to the longest).
    pub denominator: Vec<CoeffStats>,
    /// Per-coefficient statistics of the numerator polynomials.
    pub numerator: Vec<CoeffStats>,
    /// Interpolation points each variant's solve spent, in fleet order.
    pub variant_points: Vec<usize>,
    /// Pivot-order reuses (refactorization hits) per variant, in fleet
    /// order — the per-variant totals behind every
    /// [`Diagnostic::SamplingBatched`] stream, summing to
    /// [`BatchReport::total_refactor_hits`].
    pub variant_refactor_hits: Vec<u64>,
    /// Fleet-wide pivot-order reuses.
    pub total_refactor_hits: u64,
    /// Full Markowitz pivot searches the fleet performed (probe
    /// factorizations through the shared plan cache): one for the
    /// anchor's own opening scale, plus one per plan cell whose growth
    /// gate fails — independent of fleet size.
    pub pivot_searches: usize,
    /// Plan builds that reused a recorded pivot order instead of probing.
    pub shared_plan_hits: usize,
    /// Symbolic `FactorProgram`s compiled across the fleet. Same-topology
    /// fleets compile exactly one and replay it for every variant.
    pub programs_compiled: usize,
    /// Stamp topologies the fleet built (sorted and merged its raw stamps
    /// for): one for the base circuit, plus one per variant whose raw
    /// stamps differ from the base's. A generated fleet builds one.
    pub topologies: usize,
    /// Degree-bound pairs computed across those topologies: one per
    /// topology, output and set of excited rows the solver asked for
    /// ([`MnaSystem::degree_bounds`]), however many variants asked.
    pub degree_bounds_computed: usize,
}

/// What one variant of a fleet produced.
///
/// Under [`FaultPolicy::FailFast`](crate::FaultPolicy) (the default)
/// every outcome of a returned [`BatchRun`] is `Solved` — a failure
/// aborts `solve_all` instead. Under
/// [`FaultPolicy::Contain`](crate::FaultPolicy) failed variants are
/// carried here, in place, with the error, the failing evaluation point
/// (when the solve died per-point), and the recovery-ladder rung
/// reached.
#[derive(Debug)]
pub enum VariantOutcome {
    /// The variant solved completely. Boxed: a [`Solution`] carries its
    /// full diagnostic trail, which would otherwise dominate the size of
    /// every `Failed` entry in the outcome vector.
    Solved(Box<Solution>),
    /// The variant failed and was contained; the rest of the fleet is
    /// unaffected.
    Failed {
        /// The typed failure. A quarantined panic arrives as
        /// [`RefgenError::VariantPanicked`]; an exhausted
        /// singular-recovery ladder as
        /// [`RefgenError::Mna`]`(`[`MnaError::Unrecoverable`]`)`.
        error: RefgenError,
        /// The evaluation point the solve died at, when the failure was
        /// per-point ([`MnaError::Unrecoverable`]); `None` for
        /// session-level failures and quarantined panics.
        point: Option<String>,
        /// Recovery-ladder rungs exhausted before the failure (3 when
        /// the full ladder ran dry; 0 when the failure never entered
        /// the ladder).
        rung: u8,
    },
}

impl VariantOutcome {
    /// The solution, if this variant solved.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            VariantOutcome::Solved(s) => Some(s),
            VariantOutcome::Failed { .. } => None,
        }
    }

    /// `true` for [`VariantOutcome::Solved`].
    pub fn is_solved(&self) -> bool {
        matches!(self, VariantOutcome::Solved(_))
    }

    /// The error, if this variant failed.
    pub fn error(&self) -> Option<&RefgenError> {
        match self {
            VariantOutcome::Solved(_) => None,
            VariantOutcome::Failed { error, .. } => Some(error),
        }
    }

    /// Wraps a failure, extracting per-point provenance from
    /// [`MnaError::Unrecoverable`] errors.
    fn failed(error: RefgenError) -> VariantOutcome {
        let (point, rung) = match &error {
            RefgenError::Mna(MnaError::Unrecoverable { at, rung, .. }) => (Some(at.clone()), *rung),
            _ => (None, 0),
        };
        VariantOutcome::Failed { error, point, rung }
    }
}

/// Everything a finished fleet produced: one [`VariantOutcome`] per
/// attempted variant, in fleet order, plus the aggregate
/// [`BatchReport`].
#[derive(Debug)]
pub struct BatchRun {
    /// One outcome per attempted variant, in fleet order. All `Solved`
    /// except under [`FaultPolicy::Contain`](crate::FaultPolicy) with
    /// actual failures.
    pub outcomes: Vec<VariantOutcome>,
    /// Aggregate statistics and cost accounting (over the survivors).
    pub report: BatchReport,
}

impl BatchRun {
    /// The surviving solutions, in fleet order. Under the default
    /// [`FaultPolicy::FailFast`](crate::FaultPolicy) this is every
    /// variant.
    pub fn solutions(&self) -> Vec<&Solution> {
        self.outcomes.iter().filter_map(VariantOutcome::solution).collect()
    }
}

impl<'a> BatchSession<'a> {
    /// Solves every variant through one shared runtime.
    ///
    /// The session's solver (default: the adaptive interpolator built
    /// from the session config) runs once per variant via
    /// [`Solver::solve_system`], on the session config's worker pool. Once
    /// every variant has solved, each solved variant's recorded
    /// diagnostics and then its [`Diagnostic::VariantSolved`] are streamed
    /// to the session observer, in variant order; a failed variant streams
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`RefgenError::SpecMissing`] without a spec;
    /// [`RefgenError::EmptyFleet`] for a zero-variant fleet;
    /// variant-generation failures as [`RefgenError::Mna`]. Under the
    /// default [`FaultPolicy::FailFast`](crate::FaultPolicy), the error of
    /// the lowest-index failing variant, after every variant has been
    /// attempted (fleet solves are all-or-nothing —
    /// a legitimately unsolvable variant is a modeling problem the caller
    /// should see, not a silently shortened fleet). Under
    /// [`FaultPolicy::Contain`](crate::FaultPolicy) per-variant failures
    /// — including quarantined solve panics — never abort the fleet;
    /// they are returned in place as [`VariantOutcome::Failed`].
    ///
    /// # Panics
    ///
    /// Under [`FaultPolicy::FailFast`](crate::FaultPolicy), when the
    /// lowest-index failing variant panicked: its panic is re-raised with
    /// the original payload, at any thread count.
    pub fn solve_all(self) -> Result<BatchRun, RefgenError> {
        let spec = self.spec.ok_or(RefgenError::SpecMissing)?;
        let generated;
        let circuits: &[Circuit] = match self.variants {
            VariantInput::Generated(vs) => {
                generated = vs
                    .generate(self.circuit)
                    .map_err(|e| RefgenError::Mna(MnaError::Circuit(e)))?;
                &generated
            }
            VariantInput::Explicit(circuits) => circuits,
        };
        if circuits.is_empty() {
            return Err(RefgenError::EmptyFleet);
        }
        let contain = self.config.fault_policy == FaultPolicy::Contain;
        let mut null = NullObserver;
        let observer: &mut dyn Observer = match self.observer {
            Some(o) => o,
            None => &mut null,
        };
        let solver =
            self.solver.unwrap_or_else(|| Box::new(AdaptiveInterpolator::new(self.config)));

        // One runtime for the fleet: pool threads spawn here (once), and
        // the plan cache accumulates pivot orders across every variant.
        let runtime = SamplingRuntime::new(&self.config);

        // Every variant's system is compiled once, here, on the base
        // circuit's stamp topology: a variant whose raw stamps match the
        // base's fills in only its values and shares the base's merge order
        // and memoized degree bounds; any other builds a topology of its
        // own. Every pattern's plan cells are anchored before any variant
        // plans: on the base circuit, then on the lowest-index variant of
        // each other pattern. A plan's pivot order is then a function of
        // its anchor and cell alone, whichever variant asks first and on
        // whatever thread.
        let base = MnaSystem::new(self.circuit).ok();
        let systems: Vec<Result<MnaSystem, MnaError>> = runtime.pool().par_map_indexed(
            circuits,
            || (),
            |_, circuit, _| match &base {
                Some(base) => MnaSystem::with_topology_of(circuit, base),
                None => MnaSystem::new(circuit),
            },
        );
        for sys in base.iter().chain(systems.iter().filter_map(|sys| sys.as_ref().ok())) {
            if sys.circuit().reactive_count() > 0 {
                runtime.plan_cache().register_anchor(sys, opening_scale(sys).1);
            }
        }

        // Whole variants are the unit of parallelism. Each worker solves
        // through its own single-threaded
        // [`SamplingRuntime::variant_worker`] runtime, planning through the
        // fleet's cache, into a sink; the recorded diagnostics reach the
        // session observer in variant order, in `settle`.
        let results = runtime.pool().par_map_indexed(
            &systems,
            || runtime.variant_worker(),
            |variant, sys, worker| {
                solve_one(variant, || {
                    let sys = sys.as_ref().map_err(|e| RefgenError::Mna(e.clone()))?;
                    solver.solve_system(sys, &spec, &mut NullObserver, worker)
                })
            },
        );
        let mut outcomes = Vec::with_capacity(circuits.len());
        for (variant, result) in results.into_iter().enumerate() {
            settle(variant, result, contain, observer, &mut outcomes)?;
        }

        // The report ranges over the survivors only, in fleet order —
        // which makes every survivor-side figure identical to a
        // fault-free run of just the surviving circuits.
        let solved: Vec<&Solution> = outcomes.iter().filter_map(VariantOutcome::solution).collect();
        // The systems that built a stamp topology: the base, and each
        // variant that did not match it.
        let unshared = |sys: &&MnaSystem| base.as_ref().is_none_or(|b| !sys.shares_topology(b));
        let topologies: Vec<&MnaSystem> =
            base.iter().chain(systems.iter().flatten().filter(unshared)).collect();
        let failed_variants: Vec<usize> =
            outcomes.iter().enumerate().filter(|(_, o)| !o.is_solved()).map(|(i, _)| i).collect();
        let report = BatchReport {
            variants: solved.len(),
            variants_attempted: outcomes.len(),
            failed_variants,
            denominator: coefficient_stats(&solved, |s| s.network.denominator.coeffs()),
            numerator: coefficient_stats(&solved, |s| s.network.numerator.coeffs()),
            variant_points: solved.iter().map(|s| s.total_points()).collect(),
            variant_refactor_hits: solved.iter().map(|s| s.refactor_hits()).collect(),
            total_refactor_hits: solved.iter().map(|s| s.refactor_hits()).sum(),
            pivot_searches: runtime.pivot_searches(),
            shared_plan_hits: runtime.shared_plan_hits(),
            programs_compiled: runtime.programs_compiled(),
            topologies: topologies.len(),
            degree_bounds_computed: topologies.iter().map(|s| s.degree_bounds_computed()).sum(),
        };
        Ok(BatchRun { outcomes, report })
    }
}

/// How one variant's solve ended without a solution.
enum VariantFailure {
    /// A typed solve error.
    Error(RefgenError),
    /// A caught panic, with its original payload.
    Panic(Box<dyn Any + Send>),
}

/// Runs `solve` for one variant with its fault scope armed on the
/// executing thread, under `catch_unwind` whatever the fault policy, so a
/// panicking variant (scripted or genuine) becomes a
/// [`VariantFailure::Panic`] that [`settle`] handles in variant order.
///
/// The scope gives the deterministic fault-injection tier
/// ([`refgen_mna::faults`]) the variant's fleet index — with no plan
/// installed every query is an inert atomic load.
fn solve_one(
    variant: usize,
    solve: impl FnOnce() -> Result<Solution, RefgenError>,
) -> Result<Solution, VariantFailure> {
    let solved = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let _scope = faults::FaultScope::variant(variant);
        if faults::scripted_panic() {
            panic!("injected fault: scripted panic for variant {variant}");
        }
        solve()
    }));
    solved.map_err(VariantFailure::Panic)?.map_err(VariantFailure::Error)
}

/// Records variant `variant`'s result, called in variant order: a solution
/// replays its recorded diagnostics to `observer`, streams
/// [`Diagnostic::VariantSolved`] and joins `outcomes`. A failure streams
/// nothing; it is
/// contained as [`VariantOutcome::Failed`] (a panic as
/// [`RefgenError::VariantPanicked`]) when `contain` is set; otherwise it
/// decides the fleet: an error is returned, a panic re-raised with its
/// original payload.
fn settle(
    variant: usize,
    result: Result<Solution, VariantFailure>,
    contain: bool,
    observer: &mut dyn Observer,
    outcomes: &mut Vec<VariantOutcome>,
) -> Result<(), RefgenError> {
    match result {
        Ok(solution) => {
            for diagnostic in solution.diagnostics() {
                observer.on_diagnostic(diagnostic);
            }
            observer.on_diagnostic(&Diagnostic::VariantSolved {
                variant,
                total_points: solution.total_points(),
                refactor_hits: solution.refactor_hits(),
            });
            outcomes.push(VariantOutcome::Solved(Box::new(solution)));
        }
        Err(VariantFailure::Error(error)) if contain => {
            outcomes.push(VariantOutcome::failed(error))
        }
        Err(VariantFailure::Panic(payload)) if contain => {
            let message = JobPanic::from_payload(payload).message;
            outcomes.push(VariantOutcome::failed(RefgenError::VariantPanicked { message }));
        }
        Err(VariantFailure::Error(error)) => return Err(error),
        Err(VariantFailure::Panic(payload)) => std::panic::resume_unwind(payload),
    }
    Ok(())
}

/// Per-index population mean/variance over one polynomial of every
/// solution, zero-padded to the longest coefficient vector. Each index is
/// computed in `f64` on the real parts scaled by `2^−E`, `E` the largest
/// exponent among them, and scaled back (see [`CoeffStats`]).
fn coefficient_stats(
    solutions: &[&Solution],
    poly: impl Fn(&Solution) -> &[ExtComplex],
) -> Vec<CoeffStats> {
    let len = solutions.iter().map(|s| poly(s).len()).max().unwrap_or(0);
    let n = solutions.len() as f64;
    (0..len)
        .map(|i| {
            let re = |s: &&Solution| poly(s).get(i).map_or(ExtFloat::ZERO, |c| c.re());
            let top = solutions.iter().map(re).filter(|x| !x.is_zero()).map(ExtFloat::exponent);
            let e = top.max().unwrap_or(0);
            let values = solutions.iter().map(|s| re(s).ldexp(-e).to_f64());
            let mean = values.clone().sum::<f64>() / n;
            let variance = values.map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
            CoeffStats {
                mean: ExtFloat::from_f64(mean).ldexp(e),
                variance: ExtFloat::from_f64(variance).ldexp(2 * e),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::CollectObserver;
    use crate::session::Session;
    use refgen_circuit::library::rc_ladder;
    use refgen_circuit::perturb::Perturbation;

    fn spec() -> TransferSpec {
        TransferSpec::voltage_gain("VIN", "out")
    }

    fn small_fleet() -> VariantSet {
        VariantSet::new(Perturbation::all_relative(0.05), 6).seed(11)
    }

    #[test]
    fn batch_without_spec_is_typed_error() {
        let base = rc_ladder(3, 1e3, 1e-9);
        match Session::for_circuit(&base).variants(small_fleet()).solve_all() {
            Err(RefgenError::SpecMissing) => {}
            other => panic!("expected SpecMissing, got {:?}", other.map(|_| "ok")),
        }
    }

    #[test]
    fn batch_streams_variant_solved_and_accounts_hits() {
        let base = rc_ladder(4, 1e3, 1e-9);
        let mut obs = CollectObserver::new();
        let run = Session::for_circuit(&base)
            .spec(spec())
            .observer(&mut obs)
            .variants(small_fleet())
            .solve_all()
            .unwrap();
        assert_eq!(run.solutions().len(), 6);
        assert_eq!(run.report.variants_attempted, 6);
        assert!(run.report.failed_variants.is_empty());
        let solved: Vec<_> = obs
            .events
            .iter()
            .filter_map(|d| match d {
                Diagnostic::VariantSolved { variant, total_points, refactor_hits } => {
                    Some((*variant, *total_points, *refactor_hits))
                }
                _ => None,
            })
            .collect();
        assert_eq!(solved.len(), 6);
        for (i, (variant, points, hits)) in solved.into_iter().enumerate() {
            assert_eq!(variant, i);
            assert_eq!(points, run.report.variant_points[i]);
            assert_eq!(hits, run.report.variant_refactor_hits[i]);
            // The per-variant totals in the report equal the sum of the
            // variant's own SamplingBatched stream — the accounting the
            // satellite fix surfaces.
            let streamed: u64 = run.solutions()[i]
                .diagnostics()
                .filter_map(|d| match d {
                    Diagnostic::SamplingBatched { compiled_hits, .. } => Some(*compiled_hits),
                    _ => None,
                })
                .sum();
            assert_eq!(streamed, hits, "variant {i}");
        }
        assert_eq!(
            run.report.total_refactor_hits,
            run.report.variant_refactor_hits.iter().sum::<u64>()
        );
    }

    #[test]
    fn plan_reuse_keeps_pivot_searches_fleet_size_independent() {
        let base = rc_ladder(5, 1e3, 1e-9);
        let searches_of = |count: usize| {
            Session::for_circuit(&base)
                .spec(spec())
                .variants(VariantSet::new(Perturbation::all_relative(0.05), count).seed(3))
                .solve_all()
                .unwrap()
                .report
        };
        let small = searches_of(2);
        let large = searches_of(12);
        assert_eq!(
            small.pivot_searches, large.pivot_searches,
            "pivot searches must not scale with fleet size"
        );
        assert!(large.shared_plan_hits > small.shared_plan_hits);
        // Same topology → one compiled symbolic program, fleet-size
        // independent.
        assert_eq!(small.programs_compiled, large.programs_compiled);
    }

    #[test]
    fn explicit_circuits_and_stats_shape() {
        let base = rc_ladder(3, 1e3, 1e-9);
        let fleet = small_fleet().generate(&base).unwrap();
        let run =
            Session::for_circuit(&base).spec(spec()).variant_circuits(&fleet).solve_all().unwrap();
        assert_eq!(run.report.variants, 6);
        assert_eq!(run.report.denominator.len(), 4); // degree 3 → 4 coefficients
        assert_eq!(run.report.numerator.len(), 1); // ladder numerator is constant
        for stats in &run.report.denominator {
            assert!(stats.variance >= ExtFloat::ZERO);
            assert!(stats.std_dev() >= ExtFloat::ZERO);
        }
        // The perturbation actually moved the coefficients.
        assert!(run.report.denominator[1].variance > ExtFloat::ZERO);
    }

    /// One variant path for every solver: a fleet fanned across four
    /// workers — under the adaptive solver and under two baselines — must
    /// reproduce its one-thread run bit for bit at every lane width: the
    /// observer stream, every solution's coefficients and recorded
    /// diagnostics, and the whole [`BatchReport`].
    #[test]
    fn fanned_fleet_accounting_matches_sequential_exactly() {
        use crate::baseline::{MultiScaleGridSolver, StaticScalingSolver};
        let base = rc_ladder(5, 1e3, 1e-9);
        let fleet =
            VariantSet::new(Perturbation::all_relative(0.05), 9).seed(21).generate(&base).unwrap();
        type MakeSolver = fn(RefgenConfig) -> Box<dyn Solver>;
        let solvers: [MakeSolver; 3] = [
            |config| Box::new(AdaptiveInterpolator::new(config)),
            |config| Box::new(StaticScalingSolver::heuristic(config)),
            |config| Box::new(MultiScaleGridSolver::new(1e3, 1e15, 16, config)),
        ];
        for make_solver in solvers {
            let run_with = |threads: usize, lanes: usize| {
                let config = RefgenConfig::builder().threads(threads).lane_width(lanes).build();
                let mut obs = CollectObserver::new();
                let run = Session::for_circuit(&base)
                    .spec(spec())
                    .config(config)
                    .solver(make_solver(config))
                    .observer(&mut obs)
                    .variant_circuits(&fleet)
                    .solve_all()
                    .unwrap();
                let stream: Vec<String> = obs.events.iter().map(ToString::to_string).collect();
                let solutions: Vec<String> = run
                    .solutions()
                    .iter()
                    .map(|s| {
                        let diagnostics: Vec<_> = s.diagnostics().collect();
                        let (den, num) =
                            (s.network.denominator.coeffs(), s.network.numerator.coeffs());
                        format!("{}|{den:?}|{num:?}|{diagnostics:?}", s.method)
                    })
                    .collect();
                (format!("{:?}", run.report), solutions, stream)
            };
            let (report, solutions, stream) = run_with(1, 1);
            let method = make_solver(RefgenConfig::default()).name();
            assert_eq!(solutions.len(), 9, "{method}");
            assert!(solutions.iter().all(|s| s.starts_with(method)), "{method}");
            assert_eq!(stream.iter().filter(|e| e.starts_with("variant ")).count(), 9, "{method}");
            for lanes in [1, 4, 8] {
                // The 9-variant fleet leaves workers uneven shares at
                // every width. Debug text of f64 round-trips: equal text
                // is equal bits.
                let (got_report, got_solutions, got_stream) = run_with(4, lanes);
                assert_eq!(got_stream, stream, "{method}, lanes {lanes}: observer stream");
                assert_eq!(got_solutions, solutions, "{method}, lanes {lanes}: solutions");
                assert_eq!(got_report, report, "{method}, lanes {lanes}: report");
            }
        }
    }

    #[test]
    fn zero_variant_fleet_is_typed_error() {
        let base = rc_ladder(3, 1e3, 1e-9);
        // Explicit empty circuit list…
        let empty: Vec<Circuit> = Vec::new();
        match Session::for_circuit(&base).spec(spec()).variant_circuits(&empty).solve_all() {
            Err(RefgenError::EmptyFleet) => {}
            other => panic!("expected EmptyFleet, got {:?}", other.map(|_| "ok")),
        }
        // …and a generated set that produces zero variants.
        let none = VariantSet::new(Perturbation::all_relative(0.05), 0).seed(1);
        match Session::for_circuit(&base).spec(spec()).variants(none).solve_all() {
            Err(RefgenError::EmptyFleet) => {}
            other => panic!("expected EmptyFleet, got {:?}", other.map(|_| "ok")),
        }
    }

    #[test]
    fn contained_panic_becomes_typed_outcome_and_fleet_survives() {
        use crate::config::FaultPolicy;
        use refgen_mna::faults::{FaultKind, FaultPlan};
        let base = rc_ladder(4, 1e3, 1e-9);
        // Victim index 13 exceeds every other fleet size in this test
        // binary, so tests running concurrently while the plan is
        // installed never arm a matching scope.
        let fleet =
            VariantSet::new(Perturbation::all_relative(0.05), 14).seed(11).generate(&base).unwrap();
        let plan = FaultPlan::new().fault_variant(13, FaultKind::Panic);
        let _guard = refgen_mna::faults::install(plan);
        let run = Session::for_circuit(&base)
            .spec(spec())
            .config(
                crate::config::RefgenConfig::builder().fault_policy(FaultPolicy::Contain).build(),
            )
            .variant_circuits(&fleet)
            .solve_all()
            .unwrap();
        assert_eq!(run.report.variants, 13);
        assert_eq!(run.report.variants_attempted, 14);
        assert_eq!(run.report.failed_variants, vec![13]);
        match &run.outcomes[13] {
            VariantOutcome::Failed {
                error: RefgenError::VariantPanicked { message },
                point,
                rung,
            } => {
                assert!(message.contains("scripted panic for variant 13"), "{message}");
                assert_eq!((point.as_deref(), *rung), (None, 0));
            }
            other => panic!("expected quarantined panic, got {other:?}"),
        }
    }

    #[test]
    fn variant_generation_failures_are_typed() {
        // An absolute rule large enough to cross zero on some draw.
        let mut base = Circuit::new();
        base.add_vsource("VIN", "in", "0", 1.0).unwrap();
        base.add_resistor("R1", "in", "out", 1.0).unwrap();
        base.add_capacitor("C1", "out", "0", 1e-9).unwrap();
        let rules =
            Perturbation::new().absolute(refgen_circuit::perturb::ElementClass::Resistors, 50.0);
        let result = Session::for_circuit(&base)
            .spec(spec())
            .variants(VariantSet::new(rules, 64).seed(5))
            .solve_all();
        assert!(
            matches!(result, Err(RefgenError::Mna(MnaError::Circuit(_)))),
            "zero-crossing absolute tolerance must surface as a typed error"
        );
    }
}
