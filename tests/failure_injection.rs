//! Failure injection: the engine must report pathological inputs as typed
//! errors (or recover gracefully), never panic or return silent garbage.

use refgen::mna::{MnaError, MnaSystem};
use refgen::numeric::Complex;
use refgen::prelude::*;

fn spec() -> TransferSpec {
    TransferSpec::voltage_gain("VIN", "out")
}

#[test]
fn capacitor_loop_drops_order() {
    // Three caps in a loop contribute only two independent states. The
    // structural order bound sees the loop: it is 2, not the reactive
    // count 3, so the ascent ends at the true order with no stall window
    // and nothing declared zero.
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).unwrap();
    c.add_resistor("R1", "in", "a", 1e3).unwrap();
    c.add_capacitor("C1", "a", "out", 1e-9).unwrap();
    c.add_capacitor("C2", "out", "0", 1e-9).unwrap();
    c.add_capacitor("C3", "a", "0", 1e-9).unwrap(); // closes the loop with C1+C2
    c.add_resistor("R2", "out", "0", 1e3).unwrap();
    assert_eq!(c.reactive_count(), 3);
    let (den, rep) =
        Session::for_circuit(&c).spec(spec()).solve_polynomial(PolyKind::Denominator).unwrap();
    assert_eq!(den.degree(), Some(2), "cap loop: order 2");
    assert_eq!(rep.order_bound, 2, "the bound sees the loop");
    assert!(rep.declared_zero.is_empty(), "{rep:?}");
    assert!(!rep
        .diagnostics
        .iter()
        .any(|d| matches!(d, Diagnostic::CoefficientsDeclaredZero { .. })));
    // Every window is the opening window or its verify re-interpolation,
    // and both cover the whole polynomial: no stall window opens.
    assert_eq!(rep.windows.len(), 2, "{:?}", rep.windows);
    assert!(rep.windows.iter().all(|w| w.region == Some((0, 2))), "{:?}", rep.windows);
}

#[test]
fn dangling_output_node_is_reported() {
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).unwrap();
    c.add_resistor("R1", "in", "0", 1e3).unwrap();
    c.add_capacitor("C1", "in", "0", 1e-9).unwrap();
    match Session::for_circuit(&c).spec(spec()).solve() {
        Err(RefgenError::Mna(MnaError::NoSuchNode { name })) => assert_eq!(name, "out"),
        other => panic!("expected NoSuchNode, got {other:?}"),
    }
}

#[test]
fn singular_circuit_two_voltage_sources() {
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).unwrap();
    c.add_vsource("V2", "in", "0", 2.0).unwrap();
    c.add_resistor("R1", "in", "out", 1e3).unwrap();
    c.add_capacitor("C1", "out", "0", 1e-9).unwrap();
    // Two parallel V sources make Y singular at every frequency; the
    // denominator samples are exactly zero and the engine reports a zero
    // polynomial rather than crashing.
    let (den, rep) =
        Session::for_circuit(&c).spec(spec()).solve_polynomial(PolyKind::Denominator).unwrap();
    assert!(den.degree().is_none(), "zero polynomial");
    assert!(rep.diagnostics.iter().any(|d| matches!(d, Diagnostic::AllSamplesZero { .. })));
}

#[test]
fn extreme_element_values_still_recover() {
    // Values at the edges of physical plausibility: aF caps against MΩ —
    // coefficient ratios ~1e13 per step, the worst case for one window.
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).unwrap();
    c.add_resistor("R1", "in", "a", 1e7).unwrap();
    c.add_capacitor("C1", "a", "0", 1e-18).unwrap();
    c.add_resistor("R2", "a", "out", 1e6).unwrap();
    c.add_capacitor("C2", "out", "0", 5e-18).unwrap();
    let nf = Session::for_circuit(&c).spec(spec()).solve().unwrap().network;
    assert_eq!(nf.denominator.degree(), Some(2));
    // Cross-check at the (very high) pole frequencies.
    let ac = refgen::mna::AcAnalysis::new(&c, spec()).unwrap();
    for f in [1e9, 3e10, 1e12] {
        let sim = ac.at(f).unwrap().response;
        let poly = nf.response_at_hz(f);
        assert!((poly - sim).abs() / sim.abs() < 1e-7, "at {f} Hz");
    }
}

#[test]
fn inverting_gm_stage_with_miller_cap() {
    // A common-source-style inverting stage (VCCS pulls the output node
    // down for positive input) produces sign-mixed numerator coefficients
    // and the classic RHP Miller zero — both must come out of the engine.
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).unwrap();
    c.add_resistor("R1", "in", "a", 1e4).unwrap();
    c.add_vccs("GM1", "out", "0", "a", "0", 1e-3).unwrap();
    c.add_resistor("RL", "out", "0", 1e5).unwrap();
    c.add_capacitor("CM", "a", "out", 1e-12).unwrap(); // Miller
    c.add_capacitor("CA", "a", "0", 1e-13).unwrap();
    c.add_capacitor("CO", "out", "0", 1e-12).unwrap();
    let nf = Session::for_circuit(&c).spec(spec()).solve().unwrap().network;
    // Inverting gain ≈ −gm·RL at DC.
    assert!(nf.dc_gain().re < -50.0, "dc {}", nf.dc_gain());
    // Miller RHP zero shows up in the numerator (sign change at gm/CM).
    let zeros = nf.zeros();
    assert!(
        zeros.iter().any(|z| z.to_complex().re > 0.0),
        "expected the RHP Miller zero, zeros: {zeros:?}"
    );
}

#[test]
fn mna_scale_rejects_nonsense() {
    let result = std::panic::catch_unwind(|| Scale::new(-1.0, 1.0));
    assert!(result.is_err(), "negative scale must panic");
    let result = std::panic::catch_unwind(|| Scale::new(1.0, f64::NAN));
    assert!(result.is_err(), "NaN scale must panic");
}

#[test]
fn tiny_budget_is_a_typed_error() {
    let c = library::ua741();
    let cfg = RefgenConfig::builder().max_interpolations(2).verify(false).build();
    match Session::for_circuit(&c).spec(spec()).config(cfg).solve_polynomial(PolyKind::Denominator)
    {
        Err(RefgenError::DidNotConverge { missing }) => assert!(!missing.is_empty()),
        other => panic!("expected DidNotConverge, got {:?}", other.map(|_| "ok")),
    }
}

#[test]
fn det_at_exact_pole_frequency() {
    // Evaluating the determinant exactly at a pole: D = 0 there; the MNA
    // layer must return a zero determinant, not an error.
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).unwrap();
    c.add_resistor("R1", "in", "out", 1e3).unwrap();
    c.add_capacitor("C1", "out", "0", 1e-9).unwrap();
    let sys = MnaSystem::new(&c).unwrap();
    let pole = Complex::real(-1.0 / (1e3 * 1e-9));
    let d = sys.det(pole, Scale::unit()).unwrap();
    // Not exactly zero in floating point, but far below the off-pole level.
    let off = sys.det(pole.scale(2.0), Scale::unit()).unwrap();
    assert!((d.norm() / off.norm()).to_f64() < 1e-9, "{d} vs {off}");
}
