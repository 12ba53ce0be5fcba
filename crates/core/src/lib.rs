//! The paper's contribution: **adaptive-scaling polynomial interpolation**
//! for numerical reference generation — exposed behind one [`Solver`]
//! interface and driven through the [`Session`] builder.
//!
//! Given a linear(ized) circuit and a transfer-function specification, this
//! crate recovers the exact numerator and denominator coefficients of
//!
//! ```text
//! H(s) = N(s)/D(s) = Σ fᵢ·sⁱ / Σ gⱼ·sʲ
//! ```
//!
//! by sampling `D(s_k) = det(Y_MNA)` and `N(s_k) = H(s_k)·D(s_k)` on the
//! unit circle and inverting the DFT (eq. (5)) — with the crucial twist that
//! a *single* interpolation can only resolve ~13 decades of coefficient
//! spread before f64 round-off drowns the rest (§2.2, Table 1a). The
//! [`AdaptiveInterpolator`] therefore performs a *sequence* of
//! interpolations whose frequency/conductance scale factors are derived
//! from each previous result (eqs. (12)–(16)), so the valid windows tile
//! the whole coefficient range with minimal overlap, and shrinks later
//! interpolations to only the unknown coefficients (eq. (17)).
//!
//! # The API at a glance
//!
//! * [`Session`] — the front door: owns circuit, spec, config, solver and
//!   observer, assembled by method chaining, finished by
//!   [`Session::solve`].
//! * [`Solver`] / [`Solution`] — the seam every method implements: the
//!   adaptive algorithm and the three conventional baselines
//!   ([`baseline::UnitCircleSolver`], [`baseline::StaticScalingSolver`],
//!   [`baseline::MultiScaleGridSolver`]) are interchangeable
//!   `&dyn Solver`s, which is what lets SBG/SDG consumers and the
//!   experiment runners swap methods freely.
//! * [`Observer`] / [`Diagnostic`] — typed progress events (window opened,
//!   coefficients declared zero, gap repaired, cross-check mismatch…)
//!   streamed during the solve and recorded in every [`Solution`].
//! * [`RefgenConfig`] — tuning knobs, built by chaining:
//!   `RefgenConfig::builder().verify(false).build()`.
//!
//! # The plan/execute sampling engine
//!
//! Every window's unit-circle sampling — the algorithm's hot path — runs
//! on a plan/execute engine: a [`SweepPlan`](refgen_mna::SweepPlan) is
//! compiled once per window (sparsity pattern, RHS template, recorded
//! pivot order), then executed over all points with reused per-worker
//! scratch state: numeric refactorization instead of a pivot search per
//! point, and zero steady-state allocation. The
//! `RefgenConfig::builder().threads(n)` knob fans the points out over the
//! `n` threads of a persistent worker pool (`0` = available parallelism;
//! default `1`) from the dependency-free `refgen_exec`, with **bit-identical
//! output at every thread count** — results are collected in index order
//! and each point is a pure function of the plan. Per-window cost and
//! pivot-order reuse are reported as [`Diagnostic::SamplingBatched`]
//! events and accumulated in [`PolyReport::refactor_hits`].
//!
//! Modules:
//!
//! * [`config`] — tuning knobs (`σ` significant digits, the `1e-13` noise
//!   floor, the `r` tuning factor, reduction on/off) + builder.
//! * [`window`] — one interpolation: sampling, exponent alignment, IDFT,
//!   validity window (eq. (12)).
//! * [`scaling`] — initial heuristics and scale-factor updates
//!   (eqs. (13)–(16)).
//! * [`adaptive`] — the paper's driver; produces a [`NetworkFunction`].
//! * [`baseline`] — the conventional methods the paper compares against,
//!   as raw window inspectors and as [`Solver`]s.
//! * [`diagnostic`] — the typed event stream and observer trait.
//! * [`solver`] — the [`Solver`]/[`Solution`] abstraction.
//! * [`session`] — the [`Session`] builder.
//! * [`validate`] — Bode comparison against the independent AC simulator
//!   (Fig. 2).
//!
//! # Example
//!
//! ```
//! use refgen_circuit::library::rc_ladder;
//! use refgen_core::Session;
//! use refgen_mna::TransferSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = rc_ladder(8, 1e3, 1e-9);
//! let solution = Session::for_circuit(&circuit)
//!     .spec(TransferSpec::voltage_gain("VIN", "out"))
//!     .solve()?;
//! assert_eq!(solution.network.denominator.degree(), Some(8));
//! assert_eq!(solution.network.numerator.degree(), Some(0));
//! # Ok(())
//! # }
//! ```
//!
//! Attaching an observer and swapping the method:
//!
//! ```
//! use refgen_circuit::library::rc_ladder;
//! use refgen_core::baseline::StaticScalingSolver;
//! use refgen_core::{CollectObserver, RefgenConfig, Session};
//! use refgen_mna::TransferSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = rc_ladder(8, 1e3, 1e-9);
//! let mut observer = CollectObserver::new();
//! let solution = Session::for_circuit(&circuit)
//!     .spec(TransferSpec::voltage_gain("VIN", "out"))
//!     .solver(StaticScalingSolver::heuristic(RefgenConfig::default()))
//!     .observer(&mut observer)
//!     .solve()?;
//! assert_eq!(solution.method, "static-scaling");
//! assert!(!observer.events.is_empty());
//! # Ok(())
//! # }
//! ```
//!
//! # Failure semantics
//!
//! Failures split into two scopes, and the split decides what a fleet
//! can contain:
//!
//! * **Per-point** — one evaluation point of one variant's sampling
//!   died. The sparse engine first climbs the *singular-recovery
//!   ladder*: a dead pivot-order replay is retried with a fresh
//!   value-aware Markowitz factorization (rung 1), then with a
//!   recompiled program under the alternate ordering family —
//!   AMD ↔ Markowitz (rung 2). Rescued points are exact solves (no
//!   accuracy loss), counted in
//!   [`SweepStats`](refgen_mna::SweepStats)`::{recovered_fresh,
//!   recovered_reordered}` and surfaced as
//!   [`Diagnostic::SolveRecovered`]. Only an exhausted ladder becomes
//!   an error: [`MnaError`](refgen_mna::MnaError)`::Unrecoverable`,
//!   carrying the point and the rung count.
//! * **Per-session** — the request itself is unanswerable:
//!   [`RefgenError::SpecMissing`], [`RefgenError::EmptyFleet`],
//!   [`RefgenError::EmptyGrid`], [`RefgenError::Unscalable`],
//!   [`RefgenError::NoReactiveElements`], or adaptive-loop exhaustion
//!   ([`RefgenError::DidNotConverge`] / [`RefgenError::Gap`]). These
//!   are raised before or instead of a result, never contained.
//!
//! Fleet solves choose how per-variant failures propagate via
//! [`RefgenConfig::fault_policy`]: under [`FaultPolicy::FailFast`]
//! (default) the first failing variant aborts [`BatchSession::solve_all`]
//! with its error; under [`FaultPolicy::Contain`] each failure — an
//! exhausted ladder, any other typed solve error, or a panicking solve
//! job (quarantined as [`RefgenError::VariantPanicked`]) — becomes a
//! [`VariantOutcome::Failed`] entry while every other variant proceeds,
//! bit-identical to a fleet that never contained the failures.
//!
//! All of it is testable deterministically: the
//! [`refgen_mna::faults`] tier injects seeded zero pivots, NaN stamps
//! and scripted panics, gated so an unarmed process
//! pays one atomic load per query.

pub mod adaptive;
pub mod baseline;
mod batch;
pub mod config;
pub mod diagnostic;
pub mod error;
pub mod fleet;
pub mod runtime;
pub mod scaling;
pub mod session;
pub mod solver;
pub mod timedomain;
pub mod transient;
pub mod validate;
pub mod window;

pub use adaptive::{AdaptiveInterpolator, NetworkFunction, PolyKind, PolyReport, RunReport};
#[allow(deprecated)]
pub use config::ExecutorKind;
pub use config::{FaultPolicy, OrderingMode, RefgenConfig, RefgenConfigBuilder};
pub use diagnostic::{CollectObserver, Diagnostic, NullObserver, Observer, Severity};
pub use error::RefgenError;
pub use fleet::{BatchReport, BatchRun, BatchSession, CoeffStats, VariantOutcome};
pub use refgen_mna::faults;
pub use runtime::SamplingRuntime;
pub use session::Session;
pub use solver::{Solution, Solver};
pub use timedomain::{PartialFractions, TimeDomainError};
pub use transient::{RichardsonCheck, StepMetrics, TransientAnalysis, TransientResult};
pub use validate::{ac_sweep_with_config, validate_against_ac, ValidationReport};
pub use window::Window;

pub use scaling::{initial_scale, ScalePolicy};
