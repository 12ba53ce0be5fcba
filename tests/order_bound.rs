//! The structural order bound: a maximum-weight perfect matching of the
//! MNA pattern, reactive positions weighing 1
//! ([`MnaSystem::degree_bounds`]), caps each polynomial's degree for every
//! value set. The adaptive loop ends its ascent there and sizes its
//! windows from it, so the tier holds it from three sides:
//!
//! * **tight** — on the paper's circuits, the ladders, the biquads, a
//!   capacitor loop and the golden AC netlists it equals the recovered
//!   degree, and nothing is left for stall detection;
//! * **sound** — at dimension ≤ 14 it is at least the degree of the exact
//!   symbolic expansion, which shares no code with the matching;
//! * **fallback** — where value cancellation lowers the true degree below
//!   the bound, stall detection still declares the rest zero.

use refgen::mna::{DegreeBounds, MnaSystem, OutputSpec};
use refgen::prelude::*;
use refgen::symbolic::det::MAX_DIM;
use refgen::symbolic::{symbolic_numerator, symbolic_polynomial, SymbolicError};

mod support;

fn out() -> TransferSpec {
    TransferSpec::voltage_gain("VIN", "out")
}

/// Three capacitors in a loop (two independent states) between two
/// resistors.
fn capacitor_loop() -> Circuit {
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).unwrap();
    c.add_resistor("R1", "in", "a", 1e3).unwrap();
    c.add_capacitor("C1", "a", "out", 1e-9).unwrap();
    c.add_capacitor("C2", "out", "0", 1e-9).unwrap();
    c.add_capacitor("C3", "a", "0", 1e-9).unwrap();
    c.add_resistor("R2", "out", "0", 1e3).unwrap();
    c
}

/// One circuit of the tier's corpus, with the `(D, N)` degrees where the
/// paper or the circuit's construction states them.
struct Case {
    name: &'static str,
    circuit: Circuit,
    spec: TransferSpec,
    stated: Option<(usize, usize)>,
}

fn corpus() -> Vec<Case> {
    let case = |name, circuit, stated| Case { name, circuit, spec: out(), stated };
    let mut cases = vec![
        case("ua741", library::ua741(), Some((39, 36))),
        case("ota", library::positive_feedback_ota(), Some((9, 7))),
        case("miller", library::miller_two_stage_opamp(2e-12, 5e-12), Some((4, 4))),
        case("rc_ladder12", library::rc_ladder(12, 1e3, 1e-9), Some((12, 0))),
        case("lc_ladder5", library::lc_ladder_lowpass(5, 50.0, 1e6), Some((5, 0))),
        case("tow_thomas", library::tow_thomas_biquad(10e3, 5.0, 1e5), None),
        case("capacitor_loop", capacitor_loop(), Some((2, 1))),
    ];
    for name in ["rc_prototype", "rc_cascade", "rlc_butterworth", "sallen_key"] {
        let netlist = support::golden::golden_netlist(name);
        let spec = TransferSpec::from(netlist.analysis.tf().expect(".TF card"));
        cases.push(Case { name, circuit: netlist.circuit, spec, stated: None });
    }
    cases
}

/// The bound equals the recovered degree of both polynomials, the report
/// carries it, and the ascent ends at the bound without a stall: no
/// coefficient at or above the degree is declared zero. (The descending
/// phase may still declare vanishing low coefficients, such as the
/// capacitor loop's `N(0) = 0`.)
#[test]
fn bound_is_the_recovered_degree() {
    for Case { name, circuit, spec, stated } in corpus() {
        let sys = MnaSystem::new(&circuit).unwrap();
        let bounds = sys.degree_bounds(&spec.output);
        let solution = Session::for_circuit(&circuit).spec(spec.clone()).solve().unwrap();
        let nf = &solution.network;
        let degrees = (nf.denominator.degree().unwrap(), nf.numerator.degree().unwrap());
        let want = DegreeBounds { denominator: Some(degrees.0), numerator: Some(degrees.1) };
        assert_eq!(bounds, want, "{name}");
        if let Some(stated) = stated {
            assert_eq!(degrees, stated, "{name}");
        }
        let reports = [&nf.report.denominator, &nf.report.numerator];
        assert_eq!(reports.map(|r| r.order_bound), [degrees.0, degrees.1], "{name}");
        for (report, degree) in reports.into_iter().zip([degrees.0, degrees.1]) {
            let top = report.declared_zero.iter().max();
            assert!(top.is_none_or(|&i| i < degree), "{name}: {:?} {top:?}", report.kind);
        }
        let stall = |d: &Diagnostic| matches!(d, Diagnostic::CoefficientsDeclaredZero { lo, .. } if *lo > 0);
        assert!(!solution.diagnostics().any(stall), "{name}");
    }
}

/// At dimension ≤ [`MAX_DIM`] the exact symbolic expansion gives each
/// polynomial's degree independently of the matching; the bound is never
/// below it. The expansion's term table grows with the element count, not
/// the dimension: a polynomial whose table passes its cap (the OTA's
/// denominator: dimension 11, 37 capacitors) returns
/// [`SymbolicError::TooManyTerms`] and is left to the tightness test.
#[test]
fn bound_holds_the_symbolic_degree() {
    let degree = |terms: Vec<refgen::symbolic::CoefficientTerms>| {
        terms.iter().filter(|c| !c.terms.is_empty()).map(|c| c.power).max()
    };
    let mut checked = 0;
    for Case { name, circuit, spec, .. } in corpus() {
        let sys = MnaSystem::new(&circuit).unwrap();
        if sys.dim() > MAX_DIM {
            continue;
        }
        let bounds = sys.degree_bounds(&spec.output);
        match symbolic_polynomial(&circuit, PolyKind::Denominator) {
            Err(SymbolicError::Unsupported { .. }) => continue,
            Err(SymbolicError::TooManyTerms { .. }) => {}
            other => {
                let den = degree(other.unwrap());
                assert!(
                    bounds.denominator >= den,
                    "{name}: D bound {bounds:?} vs symbolic {den:?}"
                );
                checked += 1;
            }
        }
        let OutputSpec::Node(node) = &spec.output else { continue };
        match symbolic_numerator(&circuit, &spec.input, node) {
            Err(SymbolicError::TooManyTerms { .. }) => {}
            other => {
                let num = degree(other.unwrap());
                assert!(bounds.numerator >= num, "{name}: N bound {bounds:?} vs symbolic {num:?}");
                checked += 1;
            }
        }
    }
    assert!(checked >= 10, "only {checked} polynomials are small enough");
}

/// Value cancellation below the bound: the numerator's `s²` terms cancel,
/// so the ascent stalls short of the bound, and stall detection declares
/// the top coefficient zero as before. The recovered function still
/// matches the AC simulator.
#[test]
fn stall_detection_covers_value_cancellation() {
    let (circuit, spec) = support::cancelling_highpass_pair();
    let sys = MnaSystem::new(&circuit).unwrap();
    assert_eq!(sys.degree_bounds(&spec.output).numerator, Some(2));
    let solution = Session::for_circuit(&circuit).spec(spec.clone()).solve().unwrap();
    let nf = &solution.network;
    assert_eq!(nf.report.numerator.order_bound, 2);
    assert_eq!(nf.numerator.degree(), Some(1));
    assert_eq!(nf.denominator.degree(), Some(2));
    let stall = Diagnostic::CoefficientsDeclaredZero { kind: PolyKind::Numerator, lo: 2, hi: 2 };
    assert!(solution.diagnostics().any(|d| *d == stall), "{:?}", nf.report.numerator);
    let ac = AcAnalysis::new(&circuit, spec).unwrap();
    for f in [1e3, 1e5, 3e5, 1e7] {
        let sim = ac.at(f).unwrap().response;
        let got = nf.response_at_hz(f);
        assert!((got - sim).abs() <= 1e-9 * sim.abs(), "at {f} Hz: {got} vs {sim}");
    }
}
