//! Transfer-function specification and evaluation.
//!
//! The paper computes, at each interpolation point `s_k` (eqs. 8–10):
//!
//! * `H(s_k)` from the LU solve of `Y·X = E`,
//! * `D(s_k) = det(Y)`,
//! * `N(s_k) = H(s_k)·D(s_k)`,
//!
//! sharing one factorization. [`MnaSystem::transfer`] implements exactly
//! that.

use crate::error::MnaError;
use crate::system::{MnaSystem, Scale};
use refgen_circuit::ElementKind;
use refgen_numeric::{Complex, ExtComplex};

/// What to observe as the transfer-function output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OutputSpec {
    /// Voltage at a named node (w.r.t. ground).
    Node(String),
    /// Differential voltage `v(p) − v(m)`.
    Differential(String, String),
}

/// A transfer-function specification: which source excites the circuit and
/// what is observed.
///
/// The response is normalized by the source amplitude, so for a voltage
/// source input this is a voltage gain and for a current source input a
/// transimpedance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransferSpec {
    /// Input: an independent source name, or a node name to which exactly
    /// one independent source is attached.
    pub input: String,
    /// Observed output.
    pub output: OutputSpec,
}

impl TransferSpec {
    /// Voltage gain `v(output)/input`, with `input` a source name (`"VIN"`)
    /// or the node it drives (`"in"`).
    pub fn voltage_gain(input: &str, output: &str) -> Self {
        TransferSpec { input: input.to_string(), output: OutputSpec::Node(output.to_string()) }
    }

    /// Differential output `[v(p) − v(m)]/input`.
    pub fn differential_gain(input: &str, p: &str, m: &str) -> Self {
        TransferSpec {
            input: input.to_string(),
            output: OutputSpec::Differential(p.to_string(), m.to_string()),
        }
    }
}

/// A parsed `.TF` card maps directly onto a transfer-function
/// specification: the card's source excites the circuit, its `V(…)`
/// output is observed.
impl From<&refgen_circuit::TfCard> for TransferSpec {
    fn from(card: &refgen_circuit::TfCard) -> Self {
        use refgen_circuit::TfOutput;
        let output = match &card.output {
            TfOutput::Node(n) => OutputSpec::Node(n.clone()),
            TfOutput::Differential(p, m) => OutputSpec::Differential(p.clone(), m.clone()),
        };
        TransferSpec { input: card.source.clone(), output }
    }
}

/// The result of evaluating a transfer function at one complex frequency.
#[derive(Clone, Copy, Debug)]
pub struct TransferResponse {
    /// `H(s)` — output normalized by source amplitude.
    pub response: Complex,
    /// `D(s) = det(Y_MNA(s))`, extended range.
    pub denominator: ExtComplex,
    /// `N(s) = H(s)·D(s)`, extended range.
    pub numerator: ExtComplex,
}

impl MnaSystem {
    /// Resolves a [`TransferSpec`] input to `(source element name,
    /// amplitude)`: the input is a source's name (any case) or, failing
    /// that, a node with exactly one attached source.
    ///
    /// # Errors
    ///
    /// [`MnaError::NoSuchSource`] when nothing matches,
    /// [`MnaError::ZeroAmplitudeSource`] when the matched source has zero
    /// AC amplitude.
    pub fn resolve_source(&self, input: &str) -> Result<(String, f64), MnaError> {
        // A source's own name (any case) first; otherwise (no element, or
        // one that is not a source) a node name with exactly one attached
        // source.
        let found = match self.circuit().element(input).filter(|el| el.is_source()) {
            Some(el) => el,
            None => {
                let node = self
                    .circuit()
                    .find_node(input)
                    .ok_or_else(|| MnaError::NoSuchSource { name: input.to_string() })?;
                let mut matches = self
                    .circuit()
                    .elements()
                    .iter()
                    .filter(|el| el.is_source() && (el.nodes.0 == node || el.nodes.1 == node));
                let found = matches
                    .next()
                    .ok_or_else(|| MnaError::NoSuchSource { name: input.to_string() })?;
                if matches.next().is_some() {
                    return Err(MnaError::NoSuchSource { name: format!("{input} (ambiguous)") });
                }
                found
            }
        };
        let amp = match found.kind {
            ElementKind::VSource { ac } | ElementKind::ISource { ac } => ac,
            _ => unreachable!("filtered to sources"),
        };
        if amp == 0.0 {
            return Err(MnaError::ZeroAmplitudeSource { name: found.name.clone() });
        }
        Ok((found.name.clone(), amp))
    }

    /// Evaluates the transfer function at complex frequency `s` under the
    /// given scaling, returning `H`, `D`, and `N = H·D` from a single LU
    /// factorization (paper eqs. 8–10).
    ///
    /// # Errors
    ///
    /// [`MnaError::Singular`] if the matrix cannot be factored, plus the
    /// resolution errors of [`MnaSystem::resolve_source`] and
    /// [`MnaError::NoSuchNode`] for unknown output nodes.
    pub fn transfer(
        &self,
        s: Complex,
        scale: Scale,
        spec: &TransferSpec,
    ) -> Result<TransferResponse, MnaError> {
        let (_source, amp) = self.resolve_source(&spec.input)?;
        let lu = self.factor(s, scale)?;
        let x = lu.solve(&self.rhs());
        let out = self.output_voltage(&x, &spec.output)?;
        let response = out / amp;
        let denominator = lu.det();
        let numerator = denominator * response;
        Ok(TransferResponse { response, denominator, numerator })
    }

    fn output_voltage(&self, x: &[Complex], out: &OutputSpec) -> Result<Complex, MnaError> {
        let node_v = |name: &str| -> Result<Complex, MnaError> {
            let id = self
                .circuit()
                .find_node(name)
                .ok_or_else(|| MnaError::NoSuchNode { name: name.to_string() })?;
            Ok(match self.node_row(id) {
                Some(r) => x[r],
                None => Complex::ZERO, // ground
            })
        };
        match out {
            OutputSpec::Node(n) => node_v(n),
            OutputSpec::Differential(p, m) => Ok(node_v(p)? - node_v(m)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refgen_circuit::library::rc_ladder;
    use refgen_circuit::Circuit;

    #[test]
    fn rc_first_order_response() {
        let c = rc_ladder(1, 1e3, 1e-9);
        let sys = MnaSystem::new(&c).unwrap();
        let spec = TransferSpec::voltage_gain("VIN", "out");
        let w0 = 1.0 / (1e3 * 1e-9);
        // H(jω0) = 1/(1+j) → magnitude 1/√2, phase −45°.
        let r = sys.transfer(Complex::new(0.0, w0), Scale::unit(), &spec).unwrap();
        assert!((r.response.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        assert!((r.response.arg() + std::f64::consts::FRAC_PI_4).abs() < 1e-9);
    }

    #[test]
    fn numerator_identity() {
        let c = rc_ladder(3, 2e3, 0.5e-9);
        let sys = MnaSystem::new(&c).unwrap();
        let spec = TransferSpec::voltage_gain("VIN", "out");
        let s = Complex::new(1e4, 7e5);
        let r = sys.transfer(s, Scale::unit(), &spec).unwrap();
        let expect = r.denominator * r.response;
        let rel = ((r.numerator - expect).norm() / expect.norm()).to_f64();
        assert!(rel < 1e-14);
    }

    #[test]
    fn input_by_node_name() {
        let c = rc_ladder(2, 1e3, 1e-9);
        let sys = MnaSystem::new(&c).unwrap();
        let by_source = TransferSpec::voltage_gain("VIN", "out");
        let by_node = TransferSpec::voltage_gain("in", "out");
        let s = Complex::new(0.0, 1e5);
        let a = sys.transfer(s, Scale::unit(), &by_source).unwrap();
        let b = sys.transfer(s, Scale::unit(), &by_node).unwrap();
        assert!((a.response - b.response).abs() < 1e-15);
    }

    #[test]
    fn amplitude_normalization() {
        // A 2 V source must give the same H as a 1 V source.
        let mut c = Circuit::new();
        c.add_vsource("V1", "in", "0", 2.0).unwrap();
        c.add_resistor("R1", "in", "out", 1e3).unwrap();
        c.add_resistor("R2", "out", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let spec = TransferSpec::voltage_gain("V1", "out");
        let r = sys.transfer(Complex::ZERO, Scale::unit(), &spec).unwrap();
        assert!((r.response - Complex::real(0.5)).abs() < 1e-12);
    }

    #[test]
    fn differential_output() {
        let mut c = Circuit::new();
        c.add_vsource("V1", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "p", 1e3).unwrap();
        c.add_resistor("R2", "p", "0", 1e3).unwrap();
        c.add_resistor("R3", "in", "m", 1e3).unwrap();
        c.add_resistor("R4", "m", "0", 3e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let spec = TransferSpec::differential_gain("V1", "p", "m");
        let r = sys.transfer(Complex::ZERO, Scale::unit(), &spec).unwrap();
        // v(p) = 0.5, v(m) = 0.75 → diff = −0.25.
        assert!((r.response - Complex::real(-0.25)).abs() < 1e-12);
    }

    #[test]
    fn transimpedance_with_current_input() {
        let mut c = Circuit::new();
        c.add_isource("IIN", "0", "n", 1e-3).unwrap();
        c.add_resistor("R1", "n", "0", 2e3).unwrap();
        c.add_capacitor("C1", "n", "0", 1e-12).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let spec = TransferSpec::voltage_gain("IIN", "n");
        let r = sys.transfer(Complex::ZERO, Scale::unit(), &spec).unwrap();
        // v(n)/i = R = 2 kΩ.
        assert!((r.response - Complex::real(2e3)).abs() < 1e-9);
    }

    #[test]
    fn error_cases() {
        let c = rc_ladder(1, 1e3, 1e-9);
        let sys = MnaSystem::new(&c).unwrap();
        let bad_src = TransferSpec::voltage_gain("VMISSING", "out");
        assert!(matches!(
            sys.transfer(Complex::ZERO, Scale::unit(), &bad_src),
            Err(MnaError::NoSuchSource { .. })
        ));
        let bad_out = TransferSpec::voltage_gain("VIN", "nowhere");
        assert!(matches!(
            sys.transfer(Complex::ZERO, Scale::unit(), &bad_out),
            Err(MnaError::NoSuchNode { .. })
        ));
        // R1 is not a source.
        let not_src = TransferSpec::voltage_gain("R1", "out");
        assert!(matches!(
            sys.transfer(Complex::ZERO, Scale::unit(), &not_src),
            Err(MnaError::NoSuchSource { .. })
        ));
    }

    #[test]
    fn non_source_element_name_falls_back_to_its_node() {
        // Element names match in any case, so `r1` finds the resistor
        // `R1`; it is not a source, so node `r1` (one source on it) decides.
        let mut c = Circuit::new();
        c.add_vsource("VIN", "r1", "0", 1.0).unwrap();
        c.add_resistor("R1", "r1", "out", 1e3).unwrap();
        c.add_resistor("R2", "out", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        for input in ["r1", "R1", "vin"] {
            assert_eq!(sys.resolve_source(input).unwrap(), ("VIN".to_string(), 1.0), "{input}");
        }
    }

    #[test]
    fn tf_card_converts_to_spec() {
        use refgen_circuit::{TfCard, TfOutput};
        let card = TfCard { output: TfOutput::Node("out".into()), source: "VIN".into() };
        assert_eq!(TransferSpec::from(&card), TransferSpec::voltage_gain("VIN", "out"));
        let card =
            TfCard { output: TfOutput::Differential("p".into(), "m".into()), source: "I1".into() };
        assert_eq!(TransferSpec::from(&card), TransferSpec::differential_gain("I1", "p", "m"));
    }

    #[test]
    fn zero_amplitude_rejected() {
        let mut c = Circuit::new();
        c.add_vsource("V1", "in", "0", 0.0).unwrap();
        c.add_resistor("R1", "in", "out", 1e3).unwrap();
        c.add_resistor("R2", "out", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let spec = TransferSpec::voltage_gain("V1", "out");
        assert!(matches!(
            sys.transfer(Complex::ZERO, Scale::unit(), &spec),
            Err(MnaError::ZeroAmplitudeSource { .. })
        ));
    }
}
