//! Time-domain evaluation of recovered network functions.
//!
//! Once the exact coefficients are available (the whole point of reference
//! generation), the transfer function factors into partial fractions and
//! impulse/step responses come for free:
//!
//! ```text
//! H(s) = d + Σ_k  r_k / (s − p_k),     r_k = N(p_k) / D′(p_k)
//! h(t) = Σ_k r_k·e^{p_k·t}                         (plus d·δ(t))
//! y_step(t) = d + Σ_k (r_k/p_k)·(e^{p_k·t} − 1)
//! ```
//!
//! This is a downstream capability the paper's references enable (a SPICE
//! transient would need thousands of solves; here it is a closed form).

use crate::adaptive::NetworkFunction;
use refgen_numeric::Complex;
use std::fmt;

/// Errors from partial-fraction expansion.
#[derive(Clone, Debug, PartialEq)]
pub enum TimeDomainError {
    /// Two poles are (numerically) coincident; simple-pole residues would
    /// be meaningless.
    RepeatedPoles {
        /// The offending pole value.
        pole: Complex,
    },
    /// `deg N > deg D`: not a proper rational function.
    Improper,
    /// A pole at (or numerically at) the origin: the step response diverges.
    PoleAtOrigin,
    /// The denominator is zero or constant.
    NoDynamics,
}

impl fmt::Display for TimeDomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeDomainError::RepeatedPoles { pole } => {
                write!(f, "repeated pole near {pole}; simple-pole expansion unavailable")
            }
            TimeDomainError::Improper => write!(f, "numerator degree exceeds denominator"),
            TimeDomainError::PoleAtOrigin => write!(f, "pole at the origin"),
            TimeDomainError::NoDynamics => write!(f, "denominator has no roots"),
        }
    }
}

impl std::error::Error for TimeDomainError {}

/// A simple-pole partial-fraction expansion of `H(s)`.
#[derive(Clone, Debug)]
pub struct PartialFractions {
    /// Direct (constant) term `d` — nonzero only when `deg N = deg D`.
    pub direct: Complex,
    /// `(pole, residue)` pairs.
    pub terms: Vec<(Complex, Complex)>,
}

impl PartialFractions {
    /// Evaluates `H(s)` from the expansion (round-trip check).
    pub fn eval(&self, s: Complex) -> Complex {
        let mut acc = self.direct;
        for &(p, r) in &self.terms {
            acc += r / (s - p);
        }
        acc
    }

    /// Impulse response `h(t) = Σ r_k·e^{p_k t}` for `t ≥ 0` (the `d·δ(t)`
    /// part, if any, is not representable pointwise and is omitted).
    pub fn impulse_response(&self, t: f64) -> f64 {
        self.terms.iter().map(|&(p, r)| (r * (p.scale(t)).exp()).re).sum()
    }

    /// Step response `y(t) = d + Σ (r_k/p_k)(e^{p_k t} − 1)` for `t ≥ 0`.
    pub fn step_response(&self, t: f64) -> f64 {
        let mut acc = self.direct.re;
        for &(p, r) in &self.terms {
            acc += ((r / p) * ((p.scale(t)).exp() - Complex::ONE)).re;
        }
        acc
    }

    /// The steady-state (t → ∞) step value, assuming all poles are stable.
    pub fn final_value(&self) -> f64 {
        let mut acc = self.direct.re;
        for &(p, r) in &self.terms {
            acc += (-(r / p)).re;
        }
        acc
    }
}

impl NetworkFunction {
    /// Expands `H(s)` into simple-pole partial fractions.
    ///
    /// # Errors
    ///
    /// See [`TimeDomainError`]: requires a proper rational function with
    /// distinct nonzero poles in the f64-representable range.
    pub fn partial_fractions(&self) -> Result<PartialFractions, TimeDomainError> {
        let deg_d = self.denominator.degree().ok_or(TimeDomainError::NoDynamics)?;
        if deg_d == 0 {
            return Err(TimeDomainError::NoDynamics);
        }
        let deg_n = self.numerator.degree().unwrap_or(0);
        if deg_n > deg_d {
            return Err(TimeDomainError::Improper);
        }
        let poles: Vec<Complex> =
            self.denominator.roots(1e-13, 600).iter().map(|p| p.to_complex()).collect();
        // Distinctness / origin checks.
        let scale = poles.iter().map(|p| p.abs()).fold(0.0f64, f64::max);
        for (i, &p) in poles.iter().enumerate() {
            if p.abs() < 1e-12 * scale.max(1.0) {
                return Err(TimeDomainError::PoleAtOrigin);
            }
            for &q in &poles[..i] {
                // A double root splits under the Aberth iteration by about
                // √eps of its magnitude (≈ 1e-8 relative) — the residues
                // `N(p)/D′(p)` at such a near-coincident pair are huge and
                // cancel catastrophically long before the poles touch
                // exactly. Cluster detection therefore triggers well above
                // the split scale, at 1e-6 of the pole magnitude.
                if (p - q).abs() < 1e-6 * scale {
                    return Err(TimeDomainError::RepeatedPoles { pole: p });
                }
            }
        }
        let dprime = self.denominator.derivative();
        let mut terms = Vec::with_capacity(poles.len());
        for &p in &poles {
            let n = self.numerator.eval(p);
            let dp = dprime.eval(p);
            terms.push((p, (n / dp).to_complex()));
        }
        let direct = if deg_n == deg_d {
            (*self.numerator.coeffs().last().expect("deg checked")
                / *self.denominator.coeffs().last().expect("deg checked"))
            .to_complex()
        } else {
            Complex::ZERO
        };
        Ok(PartialFractions { direct, terms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveInterpolator;
    use crate::solver::Solver;
    use refgen_circuit::library::rc_ladder;
    use refgen_circuit::Circuit;
    use refgen_mna::TransferSpec;

    fn spec() -> TransferSpec {
        TransferSpec::voltage_gain("VIN", "out")
    }

    #[test]
    fn single_rc_step_is_exponential() {
        let (r, c) = (1e3, 1e-9);
        let tau = r * c;
        let circuit = rc_ladder(1, r, c);
        let nf = AdaptiveInterpolator::default().solve(&circuit, &spec()).unwrap();
        let pf = nf.partial_fractions().unwrap();
        assert_eq!(pf.terms.len(), 1);
        for t in [0.0, 0.5 * tau, tau, 3.0 * tau, 10.0 * tau] {
            let want = 1.0 - (-t / tau).exp();
            let got = pf.step_response(t);
            assert!((got - want).abs() < 1e-9, "t={t}: {got} vs {want}");
        }
        assert!((pf.final_value() - 1.0).abs() < 1e-9);
        // Impulse response h(t) = (1/τ)e^{-t/τ}.
        let h0 = pf.impulse_response(0.0);
        assert!((h0 - 1.0 / tau).abs() / (1.0 / tau) < 1e-9);
    }

    #[test]
    fn expansion_round_trips_transfer_function() {
        let circuit = rc_ladder(6, 2e3, 0.5e-9);
        let nf = AdaptiveInterpolator::default().solve(&circuit, &spec()).unwrap();
        let pf = nf.partial_fractions().unwrap();
        for f in [1e3, 1e5, 1e6, 1e7] {
            let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
            let direct = nf.eval(s);
            let via_pf = pf.eval(s);
            // Residues inherit the Aberth root accuracy (~1e-9 relative on
            // the poles), which amplifies in the deep stop band.
            assert!(
                (direct - via_pf).abs() / direct.abs() < 1e-4,
                "at {f} Hz: {direct} vs {via_pf}"
            );
        }
    }

    #[test]
    fn rlc_step_rings_and_settles() {
        // Underdamped series RLC: Q ≈ 10 → strong overshoot, settles to 1.
        let (r, l, cap) = (10.0, 1e-6, 1e-9);
        let mut circuit = Circuit::new();
        circuit.add_vsource("VIN", "in", "0", 1.0).unwrap();
        circuit.add_resistor("R1", "in", "a", r).unwrap();
        circuit.add_inductor("L1", "a", "out", l).unwrap();
        circuit.add_capacitor("C1", "out", "0", cap).unwrap();
        let nf = AdaptiveInterpolator::default().solve(&circuit, &spec()).unwrap();
        let pf = nf.partial_fractions().unwrap();
        let w0 = 1.0 / (l * cap).sqrt();
        // Peak of a 2nd-order step ≈ 1 + exp(−πζ/√(1−ζ²)), ζ = 1/(2Q).
        let q = (l / cap).sqrt() / r;
        let zeta = 1.0 / (2.0 * q);
        let overshoot = (-std::f64::consts::PI * zeta / (1.0 - zeta * zeta).sqrt()).exp();
        let t_peak = std::f64::consts::PI / (w0 * (1.0 - zeta * zeta).sqrt());
        let got = pf.step_response(t_peak);
        assert!((got - (1.0 + overshoot)).abs() < 1e-6, "peak {got} vs {}", 1.0 + overshoot);
        assert!((pf.step_response(1e3 / w0) - 1.0).abs() < 1e-9, "settles to 1");
        assert!((pf.final_value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn critically_damped_rlc_is_typed_repeated_pole_error() {
        // Series RLC at critical damping R = 2√(L/C): D(s) has an exact
        // double root at −R/(2L). The Aberth solver separates it by only
        // ~√eps, so simple-pole residues would be enormous and cancelling;
        // the expansion must refuse with the typed error instead.
        let (l, cap) = (1e-6f64, 1e-9f64);
        let r = 2.0 * (l / cap).sqrt(); // ≈ 63.246 Ω
        let mut circuit = Circuit::new();
        circuit.add_vsource("VIN", "in", "0", 1.0).unwrap();
        circuit.add_resistor("R1", "in", "a", r).unwrap();
        circuit.add_inductor("L1", "a", "out", l).unwrap();
        circuit.add_capacitor("C1", "out", "0", cap).unwrap();
        let nf = AdaptiveInterpolator::default().solve(&circuit, &spec()).unwrap();
        match nf.partial_fractions() {
            Err(TimeDomainError::RepeatedPoles { pole }) => {
                let want = -r / (2.0 * l);
                assert!(
                    (pole.re - want).abs() < 1e-3 * want.abs() && pole.im.abs() < 1e-3 * want.abs(),
                    "clustered pole {pole} should sit near the double root {want:e}"
                );
            }
            other => panic!("expected RepeatedPoles, got {other:?}"),
        }
    }

    #[test]
    fn error_cases() {
        // Band-pass (series C): H has a zero at 0 but also... a pole at
        // origin never occurs for RC dividers; construct an integrator-like
        // circuit: C-only divider → D(s) = s·(C1+C2)·…, pole at origin.
        let mut circuit = Circuit::new();
        circuit.add_vsource("VIN", "in", "0", 1.0).unwrap();
        circuit.add_capacitor("C1", "in", "out", 1e-9).unwrap();
        circuit.add_capacitor("C2", "out", "0", 1e-9).unwrap();
        // A resistor keeps the node from floating at DC… intentionally
        // omitted: the capacitive divider has H = C1/(C1+C2) with
        // denominator s·(C1+C2) — degree 1 with root at 0 after
        // normalization? The MNA determinant is s·(C1+C2)·(V-branch
        // factors), numerator s·C1: both have the s factor, and the
        // interpolation recovers them faithfully; partial fractions must
        // then reject the origin pole.
        let nf = AdaptiveInterpolator::default().solve(&circuit, &spec()).unwrap();
        match nf.partial_fractions() {
            Err(TimeDomainError::PoleAtOrigin) => {}
            other => panic!("expected PoleAtOrigin, got {other:?}"),
        }
    }
}
