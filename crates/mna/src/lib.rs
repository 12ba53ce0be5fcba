//! Modified nodal analysis (MNA) for the `refgen` workspace.
//!
//! Builds the paper's eq. (7), `Y_MNA · X = E`, from a
//! [`Circuit`](refgen_circuit::Circuit), with two features specific to the
//! reproduction:
//!
//! * **Scale hooks** ([`Scale`]): every capacitor is stamped as `f·C` and
//!   every resistive admittance (conductance, transconductance) as `g·G`.
//!   This realizes the coefficient scaling of the paper's eq. (11),
//!   `p'_i = p_i·f^i·g^{M-i}`, purely through element values.
//! * **Stamp table**: [`MnaSystem::new`] compiles every element into raw
//!   stamps once — a position, a value source (`g/R`, `g·G`, `s·f·C`,
//!   `s·f·L` or a constant) and a sign — together with the merge of
//!   duplicate positions. [`MnaSystem::assemble`], the sweep plans and the
//!   transient plan all stamp from this one table; a new scale is one
//!   pass over it. The merge depends only on the stamps' positions and
//!   kinds, so [`MnaSystem::with_topology_of`] compiles a same-topology
//!   variant on its base's merge and fills in only the variant's values.
//! * **Admittance degree** `M`: the number of admittance factors in every
//!   term of `det(Y_MNA)`, needed to *denormalize* interpolated
//!   coefficients. [`MnaSystem::admittance_degree`] derives it structurally
//!   (`M = #nodes − 1 − #branches`) and
//!   [`MnaSystem::measured_admittance_degree`] cross-checks it numerically
//!   via `det(λ·Y)/det(Y) = λ^M`.
//! * **Structural degree bounds**: [`MnaSystem::degree_bounds`] bounds the
//!   degrees of both polynomials by maximum-weight perfect matchings of the
//!   pattern, reactive positions weighing 1 — independent of every value
//!   but which sources are nonzero, computed on request and memoized on
//!   the stamp topology.
//!
//! The [`ac`] module is the workspace's stand-in for the "commercial
//! electrical simulator" of the paper's Fig. 2: a direct complex LU solve
//! per frequency point, sharing no code with the interpolation engine.
//!
//! The [`sweep`] module is the plan/execute seam for *repeated* evaluation
//! of one system: a [`SweepPlan`] compiles the sparsity pattern, RHS
//! template, and a recorded pivot order once per `(MnaSystem, Scale)`, and
//! [`SweepPlan::eval_at`]/[`SweepPlan::eval_det`] evaluate points through a
//! reusable [`SweepScratch`] with no pivot search and no steady-state
//! allocation. Both the AC fast sweep and `refgen_core`'s batched
//! unit-circle sampling execute on it. For same-topology *fleets*
//! (Monte-Carlo and sensitivity variants of one circuit), [`PlanCache`]
//! shares recorded pivot orders and compiled programs across plans — one
//! pivot search per topology, not per variant.
//!
//! The [`transient`] module rides the same seam in the time domain: for a
//! fixed step `h` the companion-model matrix of backward-Euler or
//! trapezoidal integration is the affine pattern evaluated at one real
//! point `γ` (`1/h` resp. `2/h`), so a [`TransientPlan`] probes and
//! compiles once per `(system, Δt, method)` and every step is
//! stamp-history → replay → back-substitute with zero allocation.
//!
//! # Example
//!
//! ```
//! use refgen_circuit::library::rc_ladder;
//! use refgen_mna::{MnaSystem, TransferSpec, Scale};
//! use refgen_numeric::Complex;
//!
//! # fn main() -> Result<(), refgen_mna::MnaError> {
//! let circuit = rc_ladder(3, 1e3, 1e-9);
//! let sys = MnaSystem::new(&circuit)?;
//! let spec = TransferSpec::voltage_gain("VIN", "out");
//! // DC gain of an RC ladder is 1.
//! let h = sys.transfer(Complex::ZERO, Scale::unit(), &spec)?;
//! assert!((h.response - Complex::ONE).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod ac;
mod degree;
pub mod error;
pub mod faults;
pub mod sensitivity;
pub mod sweep;
pub mod system;
pub mod transfer;
pub mod transient;

#[cfg(test)]
mod stamp_table_tests;

pub use ac::{log_space, unwrap_phase, AcAnalysis, AcPoint};
pub use degree::DegreeBounds;
pub use error::MnaError;
pub use sensitivity::Sensitivity;
pub use sweep::{
    clear_symbolic_memo, symbolic_memo_stats, OrderingChoice, OrderingMode, PlanCache,
    SelectedOrdering, SweepBatchScratch, SweepPlan, SweepScratch, SweepStats, SymbolicMemoStats,
    SYMBOLIC_MEMO_BYTES,
};
pub use system::{MnaSystem, Scale};
pub use transfer::{OutputSpec, TransferResponse, TransferSpec};
pub use transient::{
    IntegrationMethod, TransientPlan, TransientScratch, TransientState, TransientStats,
};
