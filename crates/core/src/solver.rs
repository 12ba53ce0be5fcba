//! The [`Solver`] abstraction: one interface over every way this workspace
//! can answer "give me `H(s)` for this circuit and spec".
//!
//! The paper's adaptive algorithm and the three conventional baselines it
//! is compared against differ only in how they recover one polynomial from
//! a compiled MNA system, so that is all a [`Solver`] implements
//! ([`Solver::recover_polynomial`]). Compiling the circuit, building the
//! [`SamplingRuntime`], recovering the denominator and then the numerator,
//! and assembling the [`Solution`] are written once, as provided methods of
//! the trait. Consumers — SBG/SDG error control, the experiment runners,
//! fleets, user code — are written once against `&dyn Solver` and can swap
//! methods freely. Construction is most convenient through
//! [`Session`](crate::session::Session).

use crate::adaptive::{NetworkFunction, PolyReport, RunReport};
use crate::config::RefgenConfig;
use crate::diagnostic::{Diagnostic, NullObserver, Observer};
use crate::error::RefgenError;
use crate::runtime::SamplingRuntime;
use crate::window::PolyKind;
use refgen_circuit::Circuit;
use refgen_mna::{MnaSystem, TransferSpec};
use refgen_numeric::ExtPoly;

/// The answer a [`Solver`] produces: a recovered network function plus the
/// full diagnostic trail of how it was obtained.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The recovered `H(s) = N(s)/D(s)` with per-polynomial run reports.
    pub network: NetworkFunction,
    /// Name of the method that produced it (see [`Solver::name`]).
    pub method: &'static str,
}

impl Solution {
    /// All diagnostics, denominator first (the recovery order), then
    /// numerator.
    pub fn diagnostics(&self) -> impl Iterator<Item = &Diagnostic> {
        self.network
            .report
            .denominator
            .diagnostics
            .iter()
            .chain(self.network.report.numerator.diagnostics.iter())
    }

    /// Diagnostics of [`Severity::Warning`](crate::diagnostic::Severity)
    /// across both polynomials.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics().filter(|d| d.severity() == crate::diagnostic::Severity::Warning)
    }

    /// Total interpolation points spent across both polynomials — the
    /// paper's CPU-cost currency.
    pub fn total_points(&self) -> usize {
        self.network.report.numerator.total_points + self.network.report.denominator.total_points
    }

    /// Total sampling points (both polynomials) that reused their window
    /// plan's recorded pivot order — evidence the plan/execute engine's
    /// cheap numeric-refactorization path carried the solve.
    pub fn refactor_hits(&self) -> u64 {
        self.network.report.numerator.refactor_hits + self.network.report.denominator.refactor_hits
    }
}

impl std::ops::Deref for Solution {
    type Target = NetworkFunction;

    fn deref(&self) -> &NetworkFunction {
        &self.network
    }
}

/// One recovered polynomial and the report of how it was recovered.
pub type PolyRecovery = (ExtPoly, PolyReport);

/// A reference-generation method: anything that can recover the
/// polynomials of a network function from a compiled MNA system.
///
/// Implementations in this crate:
///
/// * [`AdaptiveInterpolator`](crate::AdaptiveInterpolator) — the paper's
///   adaptive-scaling sequence of interpolations;
/// * [`UnitCircleSolver`](crate::baseline::UnitCircleSolver) — one plain
///   unit-circle interpolation (Table 1a baseline);
/// * [`StaticScalingSolver`](crate::baseline::StaticScalingSolver) — one
///   interpolation at a fixed scale (Table 1b baseline);
/// * [`MultiScaleGridSolver`](crate::baseline::MultiScaleGridSolver) — the
///   §3.1 pre-chosen grid of scales.
///
/// A method writes only what is its own: [`Solver::name`],
/// [`Solver::config`] and [`Solver::recover_polynomial`], one polynomial
/// on a compiled system through a caller-supplied observer and
/// [`SamplingRuntime`]. [`Solver::recover_network`] recovers the
/// denominator, then the numerator; a method that shares work between the
/// two (the adaptive driver shares its opening windows) overrides it. The
/// `solve*` methods are written once, here: they compile the system, build
/// a runtime from [`Solver::config`] when the caller supplies none, and
/// [`Solver::solve_system`] assembles the [`Solution`]. No implementation
/// overrides them.
///
/// `Sync`, so one solver serves every worker of a fleet
/// ([`BatchSession`](crate::BatchSession)).
pub trait Solver: Sync {
    /// Short stable identifier (`"adaptive"`, `"unit-circle"`, …) used in
    /// reports and bench labels.
    fn name(&self) -> &'static str;

    /// The configuration the method samples under; the runtime of a
    /// [`Solver::solve`] or [`Solver::solve_polynomial`] is built from it.
    fn config(&self) -> &RefgenConfig;

    /// Recovers the `kind` polynomial of `spec` on `sys`, streaming
    /// [`Diagnostic`] events to `observer` and sampling through `runtime`
    /// (worker pool + plan cache).
    ///
    /// # Errors
    ///
    /// Method-specific; see each implementation. All errors are typed
    /// [`RefgenError`]s.
    fn recover_polynomial(
        &self,
        sys: &MnaSystem,
        spec: &TransferSpec,
        kind: PolyKind,
        observer: &mut dyn Observer,
        runtime: &SamplingRuntime,
    ) -> Result<PolyRecovery, RefgenError>;

    /// Recovers the denominator, then the numerator, as
    /// `(denominator, numerator)`.
    ///
    /// # Errors
    ///
    /// See [`Solver::recover_polynomial`].
    fn recover_network(
        &self,
        sys: &MnaSystem,
        spec: &TransferSpec,
        observer: &mut dyn Observer,
        runtime: &SamplingRuntime,
    ) -> Result<(PolyRecovery, PolyRecovery), RefgenError> {
        let denominator =
            self.recover_polynomial(sys, spec, PolyKind::Denominator, observer, runtime)?;
        let numerator =
            self.recover_polynomial(sys, spec, PolyKind::Numerator, observer, runtime)?;
        Ok((denominator, numerator))
    }

    /// Recovers the network function of `spec` on a compiled system
    /// through `runtime` — the seam a [`BatchSession`](crate::BatchSession)
    /// solves every variant through.
    ///
    /// # Errors
    ///
    /// See [`Solver::recover_polynomial`].
    fn solve_system(
        &self,
        sys: &MnaSystem,
        spec: &TransferSpec,
        observer: &mut dyn Observer,
        runtime: &SamplingRuntime,
    ) -> Result<Solution, RefgenError> {
        let ((denominator, den_report), (numerator, num_report)) =
            self.recover_network(sys, spec, observer, runtime)?;
        let report = RunReport {
            numerator: num_report,
            denominator: den_report,
            admittance_degree: sys.admittance_degree(),
        };
        Ok(Solution {
            network: NetworkFunction { numerator, denominator, report },
            method: self.name(),
        })
    }

    /// Recovers the network function without streaming diagnostics (they
    /// are still recorded in the [`Solution`]).
    ///
    /// # Errors
    ///
    /// [`RefgenError::Mna`] when the circuit does not compile, otherwise
    /// see [`Solver::recover_polynomial`].
    fn solve(&self, circuit: &Circuit, spec: &TransferSpec) -> Result<Solution, RefgenError> {
        self.solve_observed(circuit, spec, &mut NullObserver)
    }

    /// Recovers the network function, streaming [`Diagnostic`] events to
    /// `observer` as the solve progresses.
    ///
    /// # Errors
    ///
    /// See [`Solver::solve`].
    fn solve_observed(
        &self,
        circuit: &Circuit,
        spec: &TransferSpec,
        observer: &mut dyn Observer,
    ) -> Result<Solution, RefgenError> {
        self.solve_with_runtime(circuit, spec, observer, &SamplingRuntime::new(self.config()))
    }

    /// Recovers the network function through a caller-supplied
    /// [`SamplingRuntime`], so several solves share one worker pool and
    /// one pivot-order cache. Sharing never changes the result.
    ///
    /// # Errors
    ///
    /// See [`Solver::solve`].
    fn solve_with_runtime(
        &self,
        circuit: &Circuit,
        spec: &TransferSpec,
        observer: &mut dyn Observer,
        runtime: &SamplingRuntime,
    ) -> Result<Solution, RefgenError> {
        self.solve_system(&MnaSystem::new(circuit)?, spec, observer, runtime)
    }

    /// Recovers a single polynomial of the network function: half the
    /// work of a full solve, and the only way to analyse circuits where
    /// the other polynomial cannot be sampled at all (e.g. a singular
    /// system whose determinant is identically zero).
    ///
    /// # Errors
    ///
    /// See [`Solver::solve`].
    fn solve_polynomial(
        &self,
        circuit: &Circuit,
        spec: &TransferSpec,
        kind: PolyKind,
        observer: &mut dyn Observer,
    ) -> Result<PolyRecovery, RefgenError> {
        let sys = MnaSystem::new(circuit)?;
        self.recover_polynomial(&sys, spec, kind, observer, &SamplingRuntime::new(self.config()))
    }
}

/// Forwards the methods an implementation writes, so a lent or boxed
/// solver keeps its own [`Solver::recover_network`].
macro_rules! forward_solver {
    ($($target:ty),*) => {$(
        impl<S: Solver + ?Sized> Solver for $target {
            fn name(&self) -> &'static str {
                (**self).name()
            }

            fn config(&self) -> &RefgenConfig {
                (**self).config()
            }

            fn recover_polynomial(
                &self,
                sys: &MnaSystem,
                spec: &TransferSpec,
                kind: PolyKind,
                observer: &mut dyn Observer,
                runtime: &SamplingRuntime,
            ) -> Result<PolyRecovery, RefgenError> {
                (**self).recover_polynomial(sys, spec, kind, observer, runtime)
            }

            fn recover_network(
                &self,
                sys: &MnaSystem,
                spec: &TransferSpec,
                observer: &mut dyn Observer,
                runtime: &SamplingRuntime,
            ) -> Result<(PolyRecovery, PolyRecovery), RefgenError> {
                (**self).recover_network(sys, spec, observer, runtime)
            }
        }
    )*};
}

forward_solver!(&S, Box<S>);
