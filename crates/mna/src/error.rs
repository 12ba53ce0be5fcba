//! Error type for MNA assembly and analysis.

use refgen_circuit::CircuitError;
use refgen_sparse::FactorError;
use std::fmt;

/// Errors from MNA construction, evaluation, or AC analysis.
#[derive(Clone, Debug, PartialEq)]
pub enum MnaError {
    /// The circuit failed structural validation.
    Circuit(CircuitError),
    /// The system matrix was singular at the given complex frequency.
    Singular {
        /// Human-readable frequency description.
        at: String,
    },
    /// Every rung of the singular-recovery ladder failed at one point:
    /// the prescribed-order replay, the fresh value-aware Markowitz
    /// factorization, *and* the alternate-ordering recompile all reported
    /// a singular pivot. This is the typed **per-point** failure a
    /// contained fleet surfaces per variant instead of aborting the run.
    Unrecoverable {
        /// Human-readable point description (e.g. `s = …` or `… Hz`).
        at: String,
        /// Elimination step of the first rung's singular pivot.
        step: usize,
        /// Ladder rungs exhausted before giving up (always 3 today:
        /// replay → fresh → reorder).
        rung: u8,
    },
    /// The transfer-function input could not be resolved to an independent
    /// source.
    NoSuchSource {
        /// The requested source or node name.
        name: String,
    },
    /// The requested source exists but has zero AC amplitude.
    ZeroAmplitudeSource {
        /// The source name.
        name: String,
    },
    /// A named output node does not exist.
    NoSuchNode {
        /// The missing node name.
        name: String,
    },
    /// A controlled source references a branch that carries no MNA branch
    /// equation (should be caught by validation; kept for defense in depth).
    NoSuchBranch {
        /// The missing branch name.
        name: String,
    },
    /// A transient plan was asked for a non-positive or non-finite time
    /// step.
    InvalidTimeStep {
        /// The offending Δt, seconds.
        dt: f64,
    },
    /// An AC analysis was asked for a NaN or infinite frequency.
    InvalidFrequency {
        /// The offending frequency, hertz.
        freq_hz: f64,
    },
}

impl fmt::Display for MnaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MnaError::Circuit(e) => write!(f, "invalid circuit: {e}"),
            MnaError::Singular { at } => write!(f, "singular MNA matrix at {at}"),
            MnaError::Unrecoverable { at, step, rung } => write!(
                f,
                "unrecoverably singular MNA matrix at {at}: \
                 {rung} recovery rungs exhausted (first zero pivot at elimination step {step})"
            ),
            MnaError::NoSuchSource { name } => {
                write!(f, "no independent source matches `{name}`")
            }
            MnaError::ZeroAmplitudeSource { name } => {
                write!(f, "source `{name}` has zero AC amplitude")
            }
            MnaError::NoSuchNode { name } => write!(f, "no node named `{name}`"),
            MnaError::NoSuchBranch { name } => write!(f, "no branch equation for `{name}`"),
            MnaError::InvalidTimeStep { dt } => {
                write!(f, "transient time step must be positive and finite, got {dt}")
            }
            MnaError::InvalidFrequency { freq_hz } => {
                write!(f, "AC frequency must be finite, got {freq_hz} Hz")
            }
        }
    }
}

impl std::error::Error for MnaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MnaError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for MnaError {
    fn from(e: CircuitError) -> Self {
        MnaError::Circuit(e)
    }
}

impl MnaError {
    /// Wraps a factorization failure as a singularity at a described point.
    pub fn from_factor(err: FactorError, at: impl Into<String>) -> Self {
        let _ = err;
        MnaError::Singular { at: at.into() }
    }

    /// Wraps a factorization failure that survived the whole
    /// singular-recovery ladder as the typed per-point
    /// [`MnaError::Unrecoverable`].
    pub(crate) fn ladder_exhausted(err: FactorError, at: impl Into<String>) -> Self {
        let step = match err {
            FactorError::Singular { step } => step,
            _ => 0,
        };
        MnaError::Unrecoverable { at: at.into(), step, rung: 3 }
    }
}
