//! Error type for the interpolation engine.

use refgen_mna::MnaError;
use std::fmt;

/// Errors from numerical reference generation.
///
/// `#[non_exhaustive]`: downstream matches need a wildcard arm so new
/// solver backends can add failure modes.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RefgenError {
    /// MNA construction or evaluation failed.
    Mna(MnaError),
    /// A [`Session`](crate::Session) was asked to solve without a
    /// [`TransferSpec`](refgen_mna::TransferSpec).
    SpecMissing,
    /// The circuit contains elements simultaneous conductance scaling
    /// cannot handle uniformly (inductors, CCVS). Raised only by the
    /// fixed-scale [baselines](crate::baseline); the adaptive driver
    /// falls back to frequency-only scaling instead.
    Unscalable,
    /// The circuit has no capacitors: the network function is a constant and
    /// needs no interpolation (callers can evaluate at any single point).
    NoReactiveElements,
    /// The adaptive loop exhausted `max_interpolations` with coefficients
    /// still missing.
    DidNotConverge {
        /// Indices of coefficients never captured by a valid window.
        missing: Vec<usize>,
    },
    /// A window gap could not be repaired by eq. (16) bisection.
    Gap {
        /// Lowest missing coefficient index.
        lo: usize,
        /// Highest missing coefficient index.
        hi: usize,
    },
    /// A fleet session was asked to solve zero variants (an empty explicit
    /// circuit list, or a [`VariantSet`](refgen_circuit::perturb::VariantSet)
    /// generating none).
    EmptyFleet,
    /// A sweep front end was handed an empty frequency grid.
    EmptyGrid,
    /// A variant's solve job panicked and was quarantined under
    /// [`FaultPolicy::Contain`](crate::FaultPolicy::Contain); the payload
    /// message is preserved. Never returned under `FailFast`, where the
    /// panic propagates.
    VariantPanicked {
        /// The panic payload rendered as text.
        message: String,
    },
    /// A transient run's node voltage overflowed to ±∞ or became NaN.
    NonFiniteTransient {
        /// The node whose sample went non-finite first (the first in MNA
        /// row order at the earliest such time).
        node: String,
        /// The time of that sample, in seconds.
        time: f64,
    },
}

impl fmt::Display for RefgenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefgenError::Mna(e) => write!(f, "{e}"),
            RefgenError::SpecMissing => {
                write!(f, "session has no transfer spec; call Session::spec before solving")
            }
            RefgenError::Unscalable => write!(
                f,
                "circuit contains inductors or CCVS elements, which break uniform \
                 admittance scaling (transform them first)"
            ),
            RefgenError::NoReactiveElements => {
                write!(f, "circuit has no capacitors; the network function is constant")
            }
            RefgenError::DidNotConverge { missing } => write!(
                f,
                "interpolation finished with {} coefficients never validated by any window",
                missing.len()
            ),
            RefgenError::Gap { lo, hi } => {
                write!(f, "unrepairable window gap over coefficients {lo}..={hi}")
            }
            RefgenError::EmptyFleet => {
                write!(f, "fleet session has zero variants; nothing to solve")
            }
            RefgenError::EmptyGrid => {
                write!(f, "sweep was handed an empty frequency grid; nothing to evaluate")
            }
            RefgenError::VariantPanicked { message } => {
                write!(f, "variant solve panicked (quarantined): {message}")
            }
            RefgenError::NonFiniteTransient { node, time } => {
                write!(f, "transient went non-finite at node {node}, t = {time:e} s")
            }
        }
    }
}

impl std::error::Error for RefgenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RefgenError::Mna(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MnaError> for RefgenError {
    fn from(e: MnaError) -> Self {
        RefgenError::Mna(e)
    }
}
