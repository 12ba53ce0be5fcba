//! The [`Session`] builder: the front door to reference generation.
//!
//! A session owns everything one solve needs — circuit, transfer spec,
//! configuration, the solver to use, and an optional diagnostic observer —
//! and is assembled by method chaining:
//!
//! ```
//! use refgen_circuit::library::rc_ladder;
//! use refgen_core::{RefgenConfig, Session};
//! use refgen_mna::TransferSpec;
//!
//! # fn main() -> Result<(), refgen_core::RefgenError> {
//! let circuit = rc_ladder(8, 1e3, 1e-9);
//! let solution = Session::for_circuit(&circuit)
//!     .spec(TransferSpec::voltage_gain("VIN", "out"))
//!     .config(RefgenConfig::builder().verify(false).build())
//!     .solve()?;
//! assert_eq!(solution.network.denominator.degree(), Some(8));
//! # Ok(())
//! # }
//! ```

use crate::adaptive::{AdaptiveInterpolator, PolyReport};
use crate::config::RefgenConfig;
use crate::diagnostic::{NullObserver, Observer};
use crate::error::RefgenError;
use crate::fleet::{BatchSession, VariantInput};
use crate::solver::{Solution, Solver};
use crate::window::PolyKind;
use refgen_circuit::perturb::VariantSet;
use refgen_circuit::Circuit;
use refgen_mna::TransferSpec;
use refgen_numeric::ExtPoly;

/// A configured reference-generation run. See the [module docs](self).
///
/// Unless [`Session::solver`] overrides it, solving uses the paper's
/// [`AdaptiveInterpolator`] built from the session's [`RefgenConfig`].
pub struct Session<'a> {
    circuit: &'a Circuit,
    spec: Option<TransferSpec>,
    config: RefgenConfig,
    solver: Option<Box<dyn Solver + 'a>>,
    observer: Option<&'a mut dyn Observer>,
}

impl<'a> Session<'a> {
    /// Starts a session on `circuit` with default configuration.
    pub fn for_circuit(circuit: &'a Circuit) -> Self {
        Session {
            circuit,
            spec: None,
            config: RefgenConfig::default(),
            solver: None,
            observer: None,
        }
    }

    /// Sets the transfer-function specification (required before
    /// [`Session::solve`]).
    #[must_use]
    pub fn spec(mut self, spec: TransferSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Adopts the `.TF` card of a parsed netlist's
    /// [`AnalysisSpec`](refgen_circuit::AnalysisSpec) as this session's
    /// transfer-function specification, so a whole analysis can be driven
    /// from one file. A spec without a `.TF` card leaves the session
    /// unchanged (and [`Session::solve`] will report the missing spec).
    #[must_use]
    pub fn analysis(mut self, analysis: &refgen_circuit::AnalysisSpec) -> Self {
        if let Some(tf) = analysis.tf() {
            self.spec = Some(TransferSpec::from(tf));
        }
        self
    }

    /// Sets the configuration used when the session builds its own
    /// [`AdaptiveInterpolator`]. A [`Session::solver`] samples under its
    /// own [`Solver::config`] instead; a fleet still takes its worker
    /// count (`threads`) and `fault_policy` from this one.
    #[must_use]
    pub fn config(mut self, config: RefgenConfig) -> Self {
        self.config = config;
        self
    }

    /// Uses `solver` instead of the default adaptive interpolator. Accepts
    /// any [`Solver`] by value — pass `&solver` to lend one instead.
    ///
    /// A fleet ([`Session::variants`], [`Session::variant_circuits`]) runs
    /// it on every variant through the one variant path of
    /// [`BatchSession::solve_all`], whatever the solver: variants fan out
    /// over the session config's `threads`, failures settle under its
    /// `fault_policy` (under `FailFast`, the lowest-index failure decides
    /// once every variant has been attempted), and the observer receives
    /// the same stream at any thread count — each solved variant's
    /// recorded diagnostics, replayed in variant order, and nothing from a
    /// failed one.
    #[must_use]
    pub fn solver(mut self, solver: impl Solver + 'a) -> Self {
        self.solver = Some(Box::new(solver));
        self
    }

    /// Streams [`Diagnostic`](crate::Diagnostic) events to `observer`
    /// during the solve.
    #[must_use]
    pub fn observer(mut self, observer: &'a mut dyn Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Turns this session into a [`BatchSession`] over a seeded fleet of
    /// same-topology variants of the session circuit — the Monte-Carlo /
    /// sensitivity entry point. Spec, config, solver and observer set on
    /// the session carry over; finish with [`BatchSession::solve_all`].
    #[must_use]
    pub fn variants(self, variants: VariantSet) -> BatchSession<'a> {
        self.into_batch(VariantInput::Generated(variants))
    }

    /// As [`Session::variants`] with caller-built variant circuits,
    /// borrowed (e.g. one-at-a-time
    /// [`scaled_variant`](refgen_circuit::perturb) probes for
    /// finite-difference sensitivities). Plan reuse engages for the
    /// same-topology ones.
    #[must_use]
    pub fn variant_circuits(self, circuits: &'a [Circuit]) -> BatchSession<'a> {
        self.into_batch(VariantInput::Explicit(circuits))
    }

    fn into_batch(self, variants: VariantInput<'a>) -> BatchSession<'a> {
        BatchSession {
            circuit: self.circuit,
            spec: self.spec,
            config: self.config,
            solver: self.solver,
            observer: self.observer,
            variants,
        }
    }

    /// Splits off what a transient run needs (used by
    /// [`Session::transient`](crate::transient)).
    pub(crate) fn into_transient_parts(self) -> (&'a Circuit, Option<&'a mut dyn Observer>) {
        (self.circuit, self.observer)
    }

    #[allow(clippy::type_complexity)]
    fn into_parts(
        self,
    ) -> Result<
        (&'a Circuit, TransferSpec, Box<dyn Solver + 'a>, Option<&'a mut dyn Observer>),
        RefgenError,
    > {
        let spec = self.spec.ok_or(RefgenError::SpecMissing)?;
        let solver = self
            .solver
            .unwrap_or_else(|| Box::new(AdaptiveInterpolator::new(self.config)) as Box<dyn Solver>);
        Ok((self.circuit, spec, solver, self.observer))
    }

    /// Runs the solve.
    ///
    /// # Errors
    ///
    /// [`RefgenError::SpecMissing`] when no [`Session::spec`] was given,
    /// otherwise whatever the selected solver reports.
    pub fn solve(self) -> Result<Solution, RefgenError> {
        let (circuit, spec, solver, observer) = self.into_parts()?;
        let mut null = NullObserver;
        solver.solve_observed(circuit, &spec, observer.unwrap_or(&mut null))
    }

    /// Recovers only one polynomial of the network function (numerator or
    /// denominator) — cheaper than [`Session::solve`] for solvers that can
    /// sample a single polynomial, and the only way to analyse circuits
    /// where the other polynomial cannot be sampled at all.
    ///
    /// # Errors
    ///
    /// See [`Session::solve`].
    pub fn solve_polynomial(self, kind: PolyKind) -> Result<(ExtPoly, PolyReport), RefgenError> {
        let (circuit, spec, solver, observer) = self.into_parts()?;
        let mut null = NullObserver;
        solver.solve_polynomial(circuit, &spec, kind, observer.unwrap_or(&mut null))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::StaticScalingSolver;
    use crate::diagnostic::{CollectObserver, Diagnostic};
    use refgen_circuit::library::rc_ladder;

    fn spec() -> TransferSpec {
        TransferSpec::voltage_gain("VIN", "out")
    }

    #[test]
    fn analysis_card_drives_session() {
        // A whole analysis from one netlist: the `.TF` card supplies the
        // spec that Session::spec would otherwise hand-build.
        let netlist = refgen_circuit::parse_netlist(
            "VIN in 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n.tf V(out) VIN\n.end\n",
        )
        .unwrap();
        let solved = Session::for_circuit(&netlist.circuit)
            .analysis(&netlist.analysis)
            .solve()
            .unwrap()
            .network;
        let by_hand = Session::for_circuit(&netlist.circuit).spec(spec()).solve().unwrap().network;
        assert_eq!(solved.denominator.coeffs().len(), by_hand.denominator.coeffs().len());
        // Without a `.TF` card the spec stays unset and solve() reports it.
        let bare =
            refgen_circuit::parse_netlist("VIN in 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n").unwrap();
        assert!(matches!(
            Session::for_circuit(&bare.circuit).analysis(&bare.analysis).solve(),
            Err(RefgenError::SpecMissing)
        ));
    }

    #[test]
    fn default_session_is_adaptive() {
        let c = rc_ladder(6, 1e3, 1e-9);
        let s = Session::for_circuit(&c).spec(spec()).solve().unwrap();
        assert_eq!(s.method, "adaptive");
        assert_eq!(s.network.denominator.degree(), Some(6));
    }

    #[test]
    fn missing_spec_is_typed_error() {
        let c = rc_ladder(2, 1e3, 1e-9);
        match Session::for_circuit(&c).solve() {
            Err(RefgenError::SpecMissing) => {}
            other => panic!("expected SpecMissing, got {other:?}"),
        }
    }

    #[test]
    fn custom_solver_and_observer_chain() {
        let c = rc_ladder(4, 1e3, 1e-9);
        let mut obs = CollectObserver::new();
        let solution = Session::for_circuit(&c)
            .spec(spec())
            .solver(StaticScalingSolver::heuristic(RefgenConfig::default()))
            .observer(&mut obs)
            .solve()
            .unwrap();
        assert_eq!(solution.method, "static-scaling");
        assert!(obs.count_where(|d| matches!(d, Diagnostic::WindowOpened { .. })) >= 2);
        // Streamed events and recorded events are the same stream.
        assert_eq!(obs.events.len(), solution.diagnostics().count());
    }

    #[test]
    fn lent_solver_by_reference() {
        let c = rc_ladder(3, 1e3, 1e-9);
        let solver = AdaptiveInterpolator::default();
        let a = Session::for_circuit(&c).spec(spec()).solver(&solver).solve().unwrap();
        let b = Session::for_circuit(&c).spec(spec()).solver(&solver).solve().unwrap();
        assert_eq!(a.network.denominator.degree(), b.network.denominator.degree());
    }

    #[test]
    fn single_polynomial_path() {
        let c = rc_ladder(5, 1e3, 1e-9);
        let (poly, report) =
            Session::for_circuit(&c).spec(spec()).solve_polynomial(PolyKind::Denominator).unwrap();
        assert_eq!(poly.degree(), Some(5));
        assert_eq!(report.kind, PolyKind::Denominator);
        assert!(report.total_points > 0);
    }
}
