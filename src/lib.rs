//! # refgen — numerical reference generation for symbolic analysis
//!
//! Facade crate for the reproduction of *"An Algorithm for Numerical
//! Reference Generation in Symbolic Analysis of Large Analog Circuits"*
//! (I. García-Vargas, M. Galán, F. V. Fernández, A. Rodríguez-Vázquez,
//! DATE 1997). It re-exports the workspace crates:
//!
//! * [`numeric`] — complex / extended-range / double-double arithmetic,
//!   DFTs, polynomials.
//! * [`exec`] — dependency-free worker pool with deterministic,
//!   index-ordered collection (the batched-sampling engine's workers).
//! * [`sparse`] — sparse complex LU with exponent-tracked determinants.
//! * [`circuit`] — netlists, device models, benchmark circuit generators.
//! * [`mna`] — modified nodal analysis assembly and AC simulation.
//! * [`core`] — the paper's adaptive-scaling interpolation algorithm
//!   behind the `Solver`/`Session` API.
//! * [`symbolic`] — SBG/SDG consumers that use the numerical references.
//!
//! …and bundles the everyday names in [`prelude`].
//!
//! # Quickstart
//!
//! A [`Session`](core::Session) owns one solve — circuit, spec, config,
//! solver, observer — and is assembled by chaining:
//!
//! ```
//! use refgen::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = library::rc_ladder(6, 1e3, 1e-9);
//! let solution = Session::for_circuit(&circuit)
//!     .spec(TransferSpec::voltage_gain("VIN", "out"))
//!     .solve()?;
//! assert_eq!(solution.network.denominator.coeffs().len(), 7); // 6th order
//! # Ok(())
//! # }
//! ```
//!
//! Any [`Solver`](core::Solver) slots into the same session — the paper's
//! adaptive algorithm (the default), or the conventional baselines it is
//! compared against — and an [`Observer`](core::Observer) receives typed
//! [`Diagnostic`](core::Diagnostic) events while the solve runs:
//!
//! ```
//! use refgen::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = library::rc_ladder(6, 1e3, 1e-9);
//! let mut observer = CollectObserver::new();
//! let solution = Session::for_circuit(&circuit)
//!     .spec(TransferSpec::voltage_gain("VIN", "out"))
//!     .config(RefgenConfig::builder().verify(false).build())
//!     .observer(&mut observer)
//!     .solve()?;
//! assert_eq!(solution.method, "adaptive");
//! assert!(!observer.events.is_empty());
//! # Ok(())
//! # }
//! ```

pub use refgen_circuit as circuit;
pub use refgen_core as core;
pub use refgen_exec as exec;
pub use refgen_mna as mna;
pub use refgen_numeric as numeric;
pub use refgen_sparse as sparse;
pub use refgen_symbolic as symbolic;

/// The everyday names: `use refgen::prelude::*;` is enough for the common
/// build-circuit → session → solution → validate workflow.
pub mod prelude {
    pub use refgen_circuit::perturb::{scaled_variant, ElementClass, Perturbation, VariantSet};
    pub use refgen_circuit::{
        library, parse_netlist, parse_spice, to_spice, AcCard, AnalysisCard, AnalysisSpec, Circuit,
        Netlist, SweepGrid, TfCard, TfOutput, TranCard, Waveform,
    };
    pub use refgen_core::baseline::{
        multi_scale_grid, static_interpolation, MultiScaleGridSolver, StaticScalingSolver,
        UnitCircleSolver,
    };
    pub use refgen_core::{
        validate_against_ac, AdaptiveInterpolator, BatchReport, BatchRun, BatchSession, CoeffStats,
        CollectObserver, Diagnostic, FaultPolicy, NetworkFunction, NullObserver, Observer,
        PartialFractions, PolyKind, RefgenConfig, RefgenError, RichardsonCheck, SamplingRuntime,
        Session, Severity, Solution, Solver, StepMetrics, TransientAnalysis, TransientResult,
        ValidationReport, VariantOutcome,
    };
    pub use refgen_exec::WorkerPool;
    pub use refgen_mna::{
        log_space, unwrap_phase, AcAnalysis, AcPoint, IntegrationMethod, PlanCache, Scale,
        SweepPlan, SweepScratch, TransferSpec, TransientPlan, TransientScratch, TransientStats,
    };
    pub use refgen_sparse::{FactorProgram, ProgramScratch};
}
