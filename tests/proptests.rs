//! Property-based tests across the whole pipeline.

use proptest::prelude::*;
use refgen::circuit::library::random_rc_mesh;
use refgen::mna::MnaSystem;
use refgen::prelude::*;

fn spec() -> TransferSpec {
    TransferSpec::voltage_gain("VIN", "out")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any random RC mesh's recovered network function must agree with the
    /// independent AC simulator at arbitrary frequencies.
    #[test]
    fn random_mesh_references_match_ac(
        nodes in 3usize..9,
        extra in 0usize..6,
        seed in 0u64..1_000_000,
        freq_exp in 0.0f64..9.0,
    ) {
        let circuit = random_rc_mesh(nodes, extra, seed);
        let nf = Session::for_circuit(&circuit)
            .spec(spec())
            .solve()
            .expect("RC meshes always recover")
            .network;
        let ac = AcAnalysis::new(&circuit, spec()).expect("valid circuit");
        let f = 10f64.powf(freq_exp);
        let sim = ac.at(f).expect("solves").response;
        let poly = nf.response_at_hz(f);
        let rel = (poly - sim).abs() / sim.abs().max(1e-30);
        prop_assert!(rel < 1e-6, "rel {rel:.2e} at {f:.2e} Hz (seed {seed})");
    }

    /// Degree equals the number of independent grounded caps (one per
    /// internal node in the mesh generator), and the DC gain is 1 (pure
    /// resistive divider… the mesh has no DC path to ground except through
    /// the backbone, so H(0) = 1 only when no shunt R exists — instead
    /// check H(0) is finite and coefficients are sign-coherent).
    #[test]
    fn random_mesh_structure(
        nodes in 3usize..8,
        extra in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let circuit = random_rc_mesh(nodes, extra, seed);
        let nf = Session::for_circuit(&circuit).spec(spec()).solve().expect("recovers").network;
        // One grounded cap per non-input node.
        prop_assert_eq!(nf.denominator.degree(), Some(nodes - 1));
        let h0 = nf.dc_gain();
        prop_assert!(h0.is_finite());
        prop_assert!((h0.re - 1.0).abs() < 1e-6, "no shunt R: H(0) = 1, got {h0}");
        // Denominator coefficients all share p0's sign (RC network ⇒ all
        // poles on the negative real axis ⇒ no sign alternation).
        let sign = nf.denominator.coeffs()[0].re().signum();
        for c in nf.denominator.coeffs() {
            prop_assert!(c.re().signum() == sign);
        }
    }

    /// The structural order bound holds each random mesh's recovered
    /// degree, never exceeds the reactive-element count, and is the bound
    /// the report carries: degree ≤ bound ≤ reactive count, for both
    /// polynomials.
    #[test]
    fn random_mesh_degree_within_structural_bound(
        nodes in 3usize..9,
        extra in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        let circuit = random_rc_mesh(nodes, extra, seed);
        let sys = MnaSystem::new(&circuit).expect("valid circuit");
        let bounds = sys.degree_bounds(&spec().output);
        let nf = Session::for_circuit(&circuit).spec(spec()).solve().expect("recovers").network;
        for (bound, poly, report) in [
            (bounds.denominator, &nf.denominator, &nf.report.denominator),
            (bounds.numerator, &nf.numerator, &nf.report.numerator),
        ] {
            let bound = bound.expect("an RC mesh's pattern has a perfect matching");
            prop_assert!(poly.degree().is_some_and(|d| d <= bound), "{:?} > {bound}", poly.degree());
            prop_assert!(bound <= circuit.reactive_count());
            prop_assert_eq!(report.order_bound, bound);
        }
    }

    /// Netlist writer/parser round-trip preserves every element.
    #[test]
    fn netlist_round_trip(
        nodes in 2usize..12,
        extra in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let circuit = random_rc_mesh(nodes, extra, seed);
        let text = to_spice(&circuit);
        let back = parse_spice(&text).expect("own output parses");
        prop_assert_eq!(circuit.elements().len(), back.elements().len());
        for (a, b) in circuit.elements().iter().zip(back.elements()) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(&a.kind, &b.kind);
        }
    }

    /// Poles of any RC mesh lie strictly in the left half plane, on the
    /// real axis (RC networks have real negative poles).
    #[test]
    fn random_mesh_poles_real_negative(
        nodes in 3usize..7,
        seed in 0u64..1_000_000,
    ) {
        let circuit = random_rc_mesh(nodes, 2, seed);
        let nf = Session::for_circuit(&circuit).spec(spec()).solve().expect("recovers").network;
        for p in nf.poles() {
            let z = p.to_complex();
            prop_assert!(z.re < 0.0, "pole {z} not in LHP");
            prop_assert!(z.im.abs() < 1e-4 * z.re.abs(), "pole {z} not real");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `Pwl` is exact at every breakpoint, exactly linear between adjacent
    /// breakpoints, and clamps outside the table.
    #[test]
    fn pwl_is_piecewise_linear_exact(
        n in 2usize..8,
        t0 in -1.0f64..1.0,
        steps in proptest::collection::vec(0.01f64..2.0, 8),
        values in proptest::collection::vec(-5.0f64..5.0, 8),
        frac in 0.0f64..1.0,
        seg in 0usize..7,
    ) {
        // Strictly increasing times from positive steps.
        let mut t = t0;
        let points: Vec<(f64, f64)> = (0..n)
            .map(|k| {
                let p = (t, values[k]);
                t += steps[k];
                p
            })
            .collect();
        let w = Waveform::Pwl { points: points.clone() };
        // Exact at breakpoints.
        for &(tk, vk) in &points {
            prop_assert_eq!(w.eval(tk), vk, "breakpoint at {}", tk);
        }
        // Exactly the linear interpolant inside a segment.
        let seg = seg % (n - 1);
        let ((ta, va), (tb, vb)) = (points[seg], points[seg + 1]);
        let tm = ta + frac * (tb - ta);
        if tm > ta && tm < tb {
            let want = va + (vb - va) * (tm - ta) / (tb - ta);
            prop_assert!((w.eval(tm) - want).abs() <= 1e-12 * want.abs().max(1.0));
        }
        // Clamped outside.
        prop_assert_eq!(w.eval(points[0].0 - 1.0), points[0].1);
        prop_assert_eq!(w.eval(points[n - 1].0 + 1.0), points[n - 1].1);
    }

    /// `Pulse` honors its rise/fall ramps: mid-edge values interpolate
    /// between `v1` and `v2`, the plateau holds `v2` exactly, the value
    /// before and at `delay` is exactly `v1`, and the train repeats with
    /// `period`.
    #[test]
    fn pulse_edges_honor_rise_and_fall(
        v1 in -3.0f64..3.0,
        v2 in -3.0f64..3.0,
        delay in 0.0f64..1e-3,
        rise in 1e-9f64..1e-4,
        fall in 1e-9f64..1e-4,
        width in 1e-6f64..1e-3,
        frac in 0.001f64..0.999,
    ) {
        let period = 2.0 * (rise + width + fall);
        let w = Waveform::Pulse { v1, v2, delay, rise, fall, width, period };
        prop_assert_eq!(w.eval(delay), v1, "holds v1 through the delay");
        prop_assert_eq!(w.eval(delay - 1e-9), v1);
        // Mid-rise: linear between v1 and v2.
        let want_rise = v1 + (v2 - v1) * frac;
        let got_rise = w.eval(delay + frac * rise);
        prop_assert!((got_rise - want_rise).abs() <= 1e-9 * want_rise.abs().max(1.0));
        // Plateau holds v2 exactly.
        prop_assert_eq!(w.eval(delay + rise + frac * width), v2);
        // Mid-fall: linear between v2 and v1.
        let want_fall = v2 + (v1 - v2) * frac;
        let got_fall = w.eval(delay + rise + width + frac * fall);
        prop_assert!((got_fall - want_fall).abs() <= 1e-9 * want_fall.abs().max(1.0));
        // One full period later the same phase repeats bit-identically
        // when the phase arithmetic is exact; allow f64 modulo noise.
        let t = delay + rise + frac * width;
        prop_assert!((w.eval(t + period) - w.eval(t)).abs() <= 1e-9 * v2.abs().max(1.0));
    }

    /// `Sin` matches the closed form after `delay` and holds the offset
    /// exactly before it.
    #[test]
    fn sin_matches_closed_form_and_holds_before_delay(
        vo in -2.0f64..2.0,
        va in 0.1f64..5.0,
        freq_hz in 1.0f64..1e6,
        delay in 0.0f64..1e-2,
        theta in 0.0f64..1e3,
        tau in 0.0f64..1e-2,
        before in 1e-12f64..1.0,
    ) {
        let w = Waveform::Sin { vo, va, freq_hz, delay, theta };
        prop_assert_eq!(w.eval(delay - before), vo, "holds vo before the delay");
        // Evaluate the closed form at the representable offset `t − delay`
        // so the comparison is bit-exact.
        let t = delay + tau;
        let tau_eff = t - delay;
        let want = vo
            + va * (-theta * tau_eff).exp()
                * (2.0 * std::f64::consts::PI * freq_hz * tau_eff).sin();
        prop_assert_eq!(w.eval(t), want, "closed form at tau = {}", tau_eff);
        prop_assert_eq!(w.initial_value(), w.eval(0.0));
    }
}
