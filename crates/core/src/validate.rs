//! Bode validation against the independent AC simulator (paper Fig. 2).
//!
//! The paper demonstrates correctness by overlaying the Bode diagram
//! computed from interpolated coefficients on one from a commercial
//! electrical simulator and observing "perfect matching". The equivalent
//! here compares [`NetworkFunction`] evaluation against
//! [`refgen_mna::AcAnalysis`] — a direct per-frequency LU solve sharing no
//! code with the interpolation path.

use crate::adaptive::NetworkFunction;
use crate::config::RefgenConfig;
use crate::error::RefgenError;
use refgen_circuit::Circuit;
use refgen_mna::{AcAnalysis, AcPoint, TransferSpec};

/// Outcome of a Bode cross-validation.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// Frequencies compared (hertz).
    pub freqs_hz: Vec<f64>,
    /// Largest magnitude discrepancy, in dB.
    pub max_mag_err_db: f64,
    /// Largest phase discrepancy, in degrees (wrapped difference).
    pub max_phase_err_deg: f64,
    /// Frequency at which the magnitude error peaks.
    pub worst_freq_hz: f64,
}

impl ValidationReport {
    /// `true` if the match is within the given tolerances everywhere.
    pub fn matches_within(&self, mag_db: f64, phase_deg: f64) -> bool {
        self.max_mag_err_db <= mag_db && self.max_phase_err_deg <= phase_deg
    }
}

/// Compares interpolated-coefficient evaluation against the AC simulator
/// over a frequency grid. A non-finite response of `nf` (a NaN or an
/// infinity, e.g. from an all-zero denominator) is a mismatch: both errors
/// read infinite, with `worst_freq_hz` at the first such frequency.
///
/// # Errors
///
/// Propagates circuit/spec errors from the AC side.
pub fn validate_against_ac(
    nf: &NetworkFunction,
    circuit: &Circuit,
    spec: &TransferSpec,
    freqs_hz: &[f64],
) -> Result<ValidationReport, RefgenError> {
    let ac = AcAnalysis::new(circuit, spec.clone())?;
    let mut max_mag = 0.0f64;
    let mut max_phase = 0.0f64;
    let mut worst = freqs_hz.first().copied().unwrap_or(0.0);
    for &f in freqs_hz {
        let sim = ac.at(f)?;
        let poly = nf.response_at_hz(f);
        if !poly.is_finite() {
            if max_mag < f64::INFINITY {
                worst = f;
            }
            max_mag = f64::INFINITY;
            max_phase = f64::INFINITY;
            continue;
        }
        let mag_err = (20.0 * poly.abs().log10() - sim.mag_db()).abs();
        let mut dphase = poly.arg().to_degrees() - sim.phase_deg();
        while dphase > 180.0 {
            dphase -= 360.0;
        }
        while dphase < -180.0 {
            dphase += 360.0;
        }
        if mag_err > max_mag {
            max_mag = mag_err;
            worst = f;
        }
        max_phase = max_phase.max(dphase.abs());
    }
    Ok(ValidationReport {
        freqs_hz: freqs_hz.to_vec(),
        max_mag_err_db: max_mag,
        max_phase_err_deg: max_phase,
        worst_freq_hz: worst,
    })
}

/// Sweeps the independent AC simulator over `freqs_hz` through the
/// compiled direct sweep ([`AcAnalysis::sweep_fast`]), batching
/// [`RefgenConfig::lane_width`] frequencies per pass through the lane
/// kernels. The output is bit-identical at every lane width; no other
/// configuration field changes the sweep.
///
/// # Errors
///
/// [`RefgenError::EmptyGrid`] for an empty `freqs_hz`; otherwise
/// propagates circuit/spec errors and the first singular frequency.
pub fn ac_sweep_with_config(
    circuit: &Circuit,
    spec: &TransferSpec,
    freqs_hz: &[f64],
    config: &RefgenConfig,
) -> Result<Vec<AcPoint>, RefgenError> {
    if freqs_hz.is_empty() {
        return Err(RefgenError::EmptyGrid);
    }
    Ok(AcAnalysis::new(circuit, spec.clone())?.sweep_fast(freqs_hz, config.lane_width)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveInterpolator;
    use crate::solver::Solver;
    use refgen_circuit::library::{positive_feedback_ota, rc_ladder};
    use refgen_mna::log_space;

    #[test]
    fn empty_grid_is_typed_error() {
        let c = rc_ladder(3, 1e3, 1e-9);
        let spec = TransferSpec::voltage_gain("VIN", "out");
        match ac_sweep_with_config(&c, &spec, &[], &RefgenConfig::default()) {
            Err(RefgenError::EmptyGrid) => {}
            other => panic!("expected EmptyGrid, got {:?}", other.map(|_| "ok")),
        }
    }

    /// A polynomial whose response is not finite reads as an infinite
    /// error from its first frequency on, never as a match: an all-zero
    /// denominator (the response is `-∞ + NaN·j`, whose NaN phase error
    /// `f64::max` used to drop) and an all-zero numerator over it (0/0, a
    /// NaN response that used to report 0 dB and match).
    #[test]
    fn non_finite_response_is_a_mismatch() {
        let c = rc_ladder(3, 1e3, 1e-9);
        let spec = TransferSpec::voltage_gain("VIN", "out");
        let mut nf = AdaptiveInterpolator::default().solve(&c, &spec).unwrap().network;
        let freqs = log_space(1e3, 1e7, 20);
        nf.denominator = refgen_numeric::ExtPoly::zero();
        let mut zero_over_zero = nf.clone();
        zero_over_zero.numerator = refgen_numeric::ExtPoly::zero();
        assert!(zero_over_zero.response_at_hz(freqs[0]).is_nan());
        for nf in [nf, zero_over_zero] {
            let rep = validate_against_ac(&nf, &c, &spec, &freqs).unwrap();
            assert!(!rep.matches_within(1.0, 10.0));
            assert_eq!((rep.max_mag_err_db, rep.max_phase_err_deg), (f64::INFINITY, f64::INFINITY));
            assert_eq!(rep.worst_freq_hz, freqs[0]);
        }
    }

    #[test]
    fn ladder_bode_matches() {
        let c = rc_ladder(12, 1e3, 1e-9);
        let spec = TransferSpec::voltage_gain("VIN", "out");
        let nf = AdaptiveInterpolator::default().solve(&c, &spec).unwrap();
        let freqs = log_space(1.0, 1e9, 120);
        let rep = validate_against_ac(&nf, &c, &spec, &freqs).unwrap();
        assert!(
            rep.matches_within(1e-3, 0.1),
            "mag err {} dB at {} Hz, phase err {}°",
            rep.max_mag_err_db,
            rep.worst_freq_hz,
            rep.max_phase_err_deg
        );
    }

    #[test]
    fn butterworth_lc_ladder_maximally_flat() {
        // End-to-end frequency-only mode check against the closed form:
        // |H(jω)| = ½/√(1+(ω/ωc)^{2n}) for the doubly-terminated ladder.
        let n = 5;
        let f_c = 1e6;
        let c = refgen_circuit::library::lc_ladder_lowpass(n, 50.0, f_c);
        let spec = TransferSpec::voltage_gain("VIN", "out");
        let nf = AdaptiveInterpolator::default().solve(&c, &spec).unwrap();
        assert_eq!(nf.denominator.degree(), Some(n));
        for f in log_space(1e4, 1e8, 40) {
            let want = 0.5 / (1.0 + (f / f_c).powi(2 * n as i32)).sqrt();
            let got = nf.response_at_hz(f).abs();
            assert!(
                (got - want).abs() / want < 1e-6,
                "at {f:.3e} Hz: got {got:.6e}, want {want:.6e}"
            );
        }
        // And the independent AC path agrees too.
        let rep = validate_against_ac(&nf, &c, &spec, &log_space(1e4, 1e8, 60)).unwrap();
        assert!(rep.matches_within(1e-6, 1e-4), "mag err {}", rep.max_mag_err_db);
    }

    #[test]
    fn ota_bode_matches() {
        let c = positive_feedback_ota();
        let spec = TransferSpec::voltage_gain("VIN", "out");
        let nf = AdaptiveInterpolator::default().solve(&c, &spec).unwrap();
        let freqs = log_space(1.0, 1e10, 150);
        let rep = validate_against_ac(&nf, &c, &spec, &freqs).unwrap();
        assert!(
            rep.matches_within(0.01, 0.5),
            "mag err {} dB at {} Hz, phase err {}°",
            rep.max_mag_err_db,
            rep.worst_freq_hz,
            rep.max_phase_err_deg
        );
    }
}
