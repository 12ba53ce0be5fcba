//! Benchmark circuit generators.
//!
//! Two of these reproduce the paper's examples:
//!
//! * [`positive_feedback_ota`] — the cross-coupled OTA of **Fig. 1**, built
//!   so its voltage-gain denominator is 9th order (the paper's "estimate on
//!   the upper bound of the polynomial order for this circuit is 9").
//! * [`ua741`] — a transistor-level µA741-class operational amplifier
//!   (19 BJTs, 30 pF Miller compensation), the paper's large example whose
//!   denominator coefficients span hundreds of decades (Tables 2–3).
//!
//! The paper's exact device data is not published; parameters here come from
//! textbook operating points. The rest are scalability workloads: RC
//! ladders of arbitrary order, active filters, and randomized RC meshes.
//!
//! # Conventions
//!
//! Every generator drives the circuit with an independent source named
//! `VIN` (or `IIN`), places the input at node `in` and the observable output
//! at node `out`, so a single transfer-function specification
//! (`v(out)/v(in)`) works across the library.

use crate::models::{BjtSmallSignal, MosSmallSignal};
use crate::netlist::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An `n`-section RC ladder low-pass: `in —R— l1 —R— … —R— out`, one
/// capacitor to ground per section. The voltage-gain denominator has order
/// exactly `n`, which makes the ladder the calibration workload for the
/// interpolation engine (its exact coefficients are independently computable
/// by an ABCD recurrence).
///
/// # Panics
///
/// Panics if `n == 0` or values are not positive.
pub fn rc_ladder(n: usize, r_ohms: f64, c_farads: f64) -> Circuit {
    assert!(n > 0, "ladder needs at least one section");
    assert!(r_ohms > 0.0 && c_farads > 0.0);
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).expect("fresh circuit");
    let mut prev = "in".to_string();
    for k in 1..=n {
        let node = if k == n { "out".to_string() } else { format!("l{k}") };
        c.add_resistor(&format!("R{k}"), &prev, &node, r_ohms).expect("unique");
        c.add_capacitor(&format!("C{k}"), &node, "0", c_farads).expect("unique");
        prev = node;
    }
    c
}

/// An RC ladder whose section values spread geometrically (`R_k = R·ρ^k`,
/// `C_k = C·γ^k`) — used to stress the adaptive algorithm with
/// monotonically drifting coefficient ratios.
///
/// # Panics
///
/// Panics if `n == 0` or any value is not positive.
pub fn graded_rc_ladder(n: usize, r0: f64, c0: f64, r_ratio: f64, c_ratio: f64) -> Circuit {
    assert!(n > 0 && r0 > 0.0 && c0 > 0.0 && r_ratio > 0.0 && c_ratio > 0.0);
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).expect("fresh circuit");
    let mut prev = "in".to_string();
    let mut r = r0;
    let mut cap = c0;
    for k in 1..=n {
        let node = if k == n { "out".to_string() } else { format!("l{k}") };
        c.add_resistor(&format!("R{k}"), &prev, &node, r).expect("unique");
        c.add_capacitor(&format!("C{k}"), &node, "0", cap).expect("unique");
        prev = node;
        r *= r_ratio;
        cap *= c_ratio;
    }
    c
}

/// The positive-feedback OTA of the paper's **Fig. 1**, expanded to its
/// small-signal equivalent.
///
/// Topology: differential pair (M1/M2, gate resistances create internal
/// gate nodes), cascodes (M1C/M2C), diode loads (M3/M4) with a
/// cross-coupled positive-feedback pair (M5/M6, `gm5 < gm3` keeping the net
/// load conductance positive), a common-source second stage (M7) with
/// current-source load (M9) and Miller capacitor, and a source-follower
/// output (M8) driving the load.
///
/// The inverting input is AC-grounded, so `v(out)/v(in)` is the
/// differential voltage gain of the paper's Table 1. The denominator is
/// 9th order: states at `M1_g`, `M2_g`, `tail`, `y1`, `y2`, `x1`, `x2`,
/// `o1`, `out`.
pub fn positive_feedback_ota() -> Circuit {
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).expect("fresh circuit");

    // Input differential pair: 10 µA per side, 200 mV overdrive.
    let pair =
        MosSmallSignal::from_operating_point(10e-6, 0.2, 0.05, 30e-15).with_gate_resistance(1e3);
    pair.expand(&mut c, "M1", "y1", "in", "tail", "0").expect("expand M1");
    pair.expand(&mut c, "M2", "y2", "0", "tail", "0").expect("expand M2");

    // Tail current source: output conductance and junction capacitance.
    c.add_conductance("gtail", "tail", "0", 1e-6).expect("unique");
    c.add_capacitor("ctail", "tail", "0", 50e-15).expect("unique");

    // Cascodes (gates at AC ground).
    let casc = MosSmallSignal::from_operating_point(10e-6, 0.2, 0.05, 25e-15);
    casc.expand(&mut c, "M1C", "x1", "0", "y1", "0").expect("expand M1C");
    casc.expand(&mut c, "M2C", "x2", "0", "y2", "0").expect("expand M2C");

    // Diode-connected loads.
    let load = MosSmallSignal::from_operating_point(10e-6, 0.25, 0.04, 20e-15);
    load.expand(&mut c, "M3", "x1", "x1", "0", "0").expect("expand M3");
    load.expand(&mut c, "M4", "x2", "x2", "0", "0").expect("expand M4");

    // Cross-coupled positive-feedback pair (the "positive feedback" of the
    // paper's OTA): partial cancellation of the diode loads.
    let cross = MosSmallSignal::from_operating_point(8e-6, 0.25, 0.04, 18e-15);
    cross.expand(&mut c, "M5", "x1", "x2", "0", "0").expect("expand M5");
    cross.expand(&mut c, "M6", "x2", "x1", "0", "0").expect("expand M6");

    // Second stage: common source with current-source load.
    let cs = MosSmallSignal::from_operating_point(100e-6, 0.25, 0.08, 100e-15);
    cs.expand(&mut c, "M7", "o1", "x2", "0", "0").expect("expand M7");
    let csload = MosSmallSignal::from_operating_point(100e-6, 0.3, 0.08, 80e-15);
    csload.expand(&mut c, "M9", "o1", "0", "0", "0").expect("expand M9");
    c.add_capacitor("CC", "x2", "o1", 1e-12).expect("unique");

    // Source-follower output buffer into the load.
    let buf = MosSmallSignal::from_operating_point(200e-6, 0.25, 0.06, 120e-15);
    buf.expand(&mut c, "M8", "0", "o1", "out", "0").expect("expand M8");
    c.add_conductance("glbias", "out", "0", 8e-4).expect("unique");
    c.add_capacitor("CL", "out", "0", 10e-12).expect("unique");

    c
}

/// BJT process corners used by [`ua741`]: 1960s bipolar — fast vertical
/// NPNs, slow lateral PNPs (the PNP `fT` of a few MHz is what sets the 741's
/// phase margin story).
struct BjtProcess;

impl BjtProcess {
    fn npn(ic: f64) -> BjtSmallSignal {
        BjtSmallSignal::from_bias(ic, 200.0, 100.0, 400e6, 0.5e-12).with_base_resistance(200.0)
    }
    fn pnp(ic: f64) -> BjtSmallSignal {
        BjtSmallSignal::from_bias(ic, 50.0, 50.0, 5e6, 1.0e-12).with_base_resistance(300.0)
    }
}

/// A transistor-level µA741-class operational amplifier, linearized at its
/// textbook operating point, in the unity-feedback-free open-loop
/// configuration the paper analyzes (voltage gain `v(out)/v(in)`, inverting
/// input AC-grounded).
///
/// Device inventory (19 BJTs — protection devices Q15/Q21–Q24, off at the
/// quiescent point, are omitted):
///
/// * input stage: Q1/Q2 (NPN followers), Q3/Q4 (lateral PNP common base),
///   Q5/Q6/Q7 (mirror load with 1 kΩ degeneration, R3 = 50 kΩ);
/// * bias: Q8/Q9 (PNP mirror), Q10 (Widlar, R4 = 5 kΩ), Q11/Q12 (diodes),
///   R5 = 39 kΩ;
/// * gain stage: Q16 (EF, R9 = 50 kΩ), Q17 (CE, R10 = 100 Ω) with the
///   famous 30 pF Miller capacitor;
/// * output: Q13 (PNP current-source load), VBE multiplier Q18/Q19
///   (R11 = 4.5 kΩ, R12 = 7.5 kΩ), class-AB pair Q14/Q20 with 27 Ω / 22 Ω
///   emitter resistors, 2 kΩ‖50 pF load.
///
/// Every transistor contributes `cπ + cµ` behind a base resistance, so the
/// denominator order lands in the forties — the same size class as the
/// paper's 48th-order µA741 denominator (Tables 2–3).
pub fn ua741() -> Circuit {
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).expect("fresh circuit");

    // --- Input stage ------------------------------------------------------
    // Q1/Q2 emitter followers into the PNP common-base pair Q3/Q4.
    BjtProcess::npn(9.5e-6).expand(&mut c, "Q1", "c18", "in", "e1").expect("Q1");
    BjtProcess::npn(9.5e-6).expand(&mut c, "Q2", "c18", "0", "e2").expect("Q2");
    BjtProcess::pnp(9.5e-6).expand(&mut c, "Q3", "x1", "bq3", "e1").expect("Q3");
    BjtProcess::pnp(9.5e-6).expand(&mut c, "Q4", "x2", "bq3", "e2").expect("Q4");
    // Mirror load Q5/Q6 with emitter degeneration, helper Q7.
    BjtProcess::npn(9.5e-6).expand(&mut c, "Q5", "x1", "bq56", "e5").expect("Q5");
    BjtProcess::npn(9.5e-6).expand(&mut c, "Q6", "x2", "bq56", "e6").expect("Q6");
    BjtProcess::npn(10e-6).expand(&mut c, "Q7", "0", "x1", "bq56").expect("Q7");
    c.add_resistor("R1", "e5", "0", 1e3).expect("R1");
    c.add_resistor("R2", "e6", "0", 1e3).expect("R2");
    c.add_resistor("R3", "bq56", "0", 50e3).expect("R3");

    // --- Bias network -----------------------------------------------------
    BjtProcess::pnp(19e-6).expand(&mut c, "Q8", "c18", "c18", "0").expect("Q8");
    BjtProcess::pnp(19e-6).expand(&mut c, "Q9", "bq3", "c18", "0").expect("Q9");
    BjtProcess::npn(19e-6).expand(&mut c, "Q10", "bq3", "b1011", "e10").expect("Q10");
    BjtProcess::npn(730e-6).expand(&mut c, "Q11", "b1011", "b1011", "0").expect("Q11");
    BjtProcess::pnp(730e-6).expand(&mut c, "Q12", "b1213", "b1213", "0").expect("Q12");
    c.add_resistor("R4", "e10", "0", 5e3).expect("R4");
    c.add_resistor("R5", "b1213", "b1011", 39e3).expect("R5");

    // --- Gain stage -------------------------------------------------------
    BjtProcess::npn(16e-6).expand(&mut c, "Q16", "0", "x2", "b17").expect("Q16");
    BjtProcess::npn(550e-6).expand(&mut c, "Q17", "t2", "b17", "e17").expect("Q17");
    c.add_resistor("R9", "b17", "0", 50e3).expect("R9");
    c.add_resistor("R10", "e17", "0", 100.0).expect("R10");
    // Miller compensation: base of Q16 to collector of Q17.
    c.add_capacitor("CC", "x2", "t2", 30e-12).expect("CC");

    // --- Output stage -----------------------------------------------------
    BjtProcess::pnp(550e-6).expand(&mut c, "Q13", "t1", "b1213", "0").expect("Q13");
    // VBE multiplier between the two output-device bases.
    BjtProcess::npn(165e-6).expand(&mut c, "Q18", "t1", "n18", "t2").expect("Q18");
    BjtProcess::npn(15e-6).expand(&mut c, "Q19", "t1", "t1", "n18").expect("Q19");
    c.add_resistor("R11", "t1", "n18", 4.5e3).expect("R11");
    c.add_resistor("R12", "n18", "t2", 7.5e3).expect("R12");
    // Class-AB output pair.
    BjtProcess::npn(150e-6).expand(&mut c, "Q14", "0", "t1", "e14").expect("Q14");
    BjtProcess::pnp(150e-6).expand(&mut c, "Q20", "0", "t2", "e20").expect("Q20");
    c.add_resistor("R6", "e14", "out", 27.0).expect("R6");
    c.add_resistor("R7", "e20", "out", 22.0).expect("R7");
    c.add_resistor("RL", "out", "0", 2e3).expect("RL");
    c.add_capacitor("CL", "out", "0", 50e-12).expect("CL");

    c
}

/// A Tow-Thomas biquad band-pass/low-pass filter realized with three
/// finite-gain inverting amplifiers (VCVS of gain `−a0`). `f0` is the pole
/// frequency, `q` the quality factor. Output `out` is the band-pass node.
///
/// Exercises the VCVS branch-equation path of the MNA and interpolation
/// engines (the denominator stays 2nd order for large `a0`, with parasitic
/// high-order terms created by the finite gains).
///
/// # Panics
///
/// Panics unless `f0 > 0`, `q > 0`, `a0 > 0`.
pub fn tow_thomas_biquad(f0: f64, q: f64, a0: f64) -> Circuit {
    assert!(f0 > 0.0 && q > 0.0 && a0 > 0.0);
    let cap = 1e-9;
    let r = 1.0 / (2.0 * std::f64::consts::PI * f0 * cap);
    let rq = q * r;
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).expect("fresh circuit");
    // Amplifier 1: lossy integrator (band-pass output at `out`).
    c.add_resistor("R1", "in", "m1", r).expect("R1");
    c.add_resistor("RQ", "out", "m1", rq).expect("RQ");
    c.add_resistor("R3", "v3", "m1", r).expect("R3");
    c.add_capacitor("C1", "m1", "out", cap).expect("C1");
    c.add_vcvs("E1", "out", "0", "0", "m1", a0).expect("E1");
    // Amplifier 2: integrator (low-pass output v2).
    c.add_resistor("R2", "out", "m2", r).expect("R2");
    c.add_capacitor("C2", "m2", "v2", cap).expect("C2");
    c.add_vcvs("E2", "v2", "0", "0", "m2", a0).expect("E2");
    // Amplifier 3: unity inverter closing the loop.
    c.add_resistor("RI1", "v2", "m3", r).expect("RI1");
    c.add_resistor("RI2", "v3", "m3", r).expect("RI2");
    c.add_vcvs("E3", "v3", "0", "0", "m3", a0).expect("E3");
    c
}

/// A Sallen-Key low-pass section with a unity-gain VCVS buffer.
///
/// # Panics
///
/// Panics unless `f0 > 0` and `q > 0`.
pub fn sallen_key_lowpass(f0: f64, q: f64) -> Circuit {
    assert!(f0 > 0.0 && q > 0.0);
    // Equal-R design: C1 = 2Q/(ω0·R), C2 = 1/(2Q·ω0·R).
    let r = 10e3;
    let w0 = 2.0 * std::f64::consts::PI * f0;
    let c1 = 2.0 * q / (w0 * r);
    let c2 = 1.0 / (2.0 * q * w0 * r);
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).expect("fresh circuit");
    c.add_resistor("R1", "in", "a", r).expect("R1");
    c.add_resistor("R2", "a", "b", r).expect("R2");
    c.add_capacitor("C1", "a", "out", c1).expect("C1");
    c.add_capacitor("C2", "b", "0", c2).expect("C2");
    c.add_vcvs("E1", "out", "0", "b", "0", 1.0).expect("E1");
    c
}

/// A classic two-stage Miller-compensated CMOS opamp (five-transistor first
/// stage + common-source second stage), linearized at its operating point,
/// in open loop with the inverting input AC-grounded.
///
/// The canonical teaching example for pole splitting: the Miller capacitor
/// `cc` sets the dominant pole at `≈ gm1/(A2·cc)` and pushes the output
/// pole to `≈ gm6/CL`, with a right-half-plane zero at `gm6/cc` — all of
/// which fall out of the recovered coefficients.
///
/// # Panics
///
/// Panics unless `cc` and `cl` are positive.
pub fn miller_two_stage_opamp(cc: f64, cl: f64) -> Circuit {
    assert!(cc > 0.0 && cl > 0.0);
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).expect("fresh circuit");
    // Differential pair M1/M2 (10 µA per side) with mirror load M3/M4.
    let pair = MosSmallSignal::from_operating_point(10e-6, 0.2, 0.04, 40e-15);
    pair.expand(&mut c, "M1", "x1", "in", "tail", "0").expect("M1");
    pair.expand(&mut c, "M2", "x2", "0", "tail", "0").expect("M2");
    let mirror = MosSmallSignal::from_operating_point(10e-6, 0.25, 0.04, 30e-15);
    mirror.expand(&mut c, "M3", "x1", "x1", "0", "0").expect("M3");
    mirror.expand(&mut c, "M4", "x2", "x1", "0", "0").expect("M4");
    // Tail current source output impedance.
    c.add_conductance("gtail", "tail", "0", 0.8e-6).expect("unique");
    c.add_capacitor("ctail", "tail", "0", 40e-15).expect("unique");
    // Second stage: common source M6 with current-source load M7.
    let cs = MosSmallSignal::from_operating_point(100e-6, 0.25, 0.06, 150e-15);
    cs.expand(&mut c, "M6", "out", "x2", "0", "0").expect("M6");
    let load = MosSmallSignal::from_operating_point(100e-6, 0.3, 0.06, 100e-15);
    load.expand(&mut c, "M7", "out", "0", "0", "0").expect("M7");
    // Miller compensation and load.
    c.add_capacitor("CC", "x2", "out", cc).expect("unique");
    c.add_capacitor("CL", "out", "0", cl).expect("unique");
    c
}

/// A doubly-terminated Butterworth LC-ladder low-pass of order `n` with
/// cutoff `f_cutoff` (hertz) and termination `r_term` on both ports.
///
/// Prototype values follow the classical `g_k = 2·sin((2k−1)π/2n)` formula;
/// the DC gain through the matched divider is 1/2 and
/// `|H(jω)| = ½/√(1+(ω/ωc)^{2n})` — maximally flat, which the tests verify.
/// Exercises the frequency-only scaling mode of the interpolation engine
/// (inductors break admittance homogeneity).
///
/// # Panics
///
/// Panics unless `n ≥ 1`, `r_term > 0`, `f_cutoff > 0`.
pub fn lc_ladder_lowpass(n: usize, r_term: f64, f_cutoff: f64) -> Circuit {
    assert!(n >= 1 && r_term > 0.0 && f_cutoff > 0.0);
    let wc = 2.0 * std::f64::consts::PI * f_cutoff;
    // Chain nodes: the last one (carrying the load) is named `out`.
    let last = n / 2;
    let node_name = |i: usize| if i == last { "out".to_string() } else { format!("n{i}") };
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).expect("fresh circuit");
    c.add_resistor("RS", "in", &node_name(0), r_term).expect("unique");
    let mut node = 0usize;
    for k in 1..=n {
        let g = 2.0 * ((2 * k - 1) as f64 * std::f64::consts::PI / (2 * n) as f64).sin();
        if k % 2 == 1 {
            // Odd positions: shunt capacitor at the current node.
            c.add_capacitor(&format!("C{k}"), &node_name(node), "0", g / (r_term * wc))
                .expect("unique");
        } else {
            // Even positions: series inductor to the next node.
            c.add_inductor(
                &format!("L{k}"),
                &node_name(node),
                &node_name(node + 1),
                g * r_term / wc,
            )
            .expect("unique");
            node += 1;
        }
    }
    c.add_resistor("RL", "out", "0", r_term).expect("unique");
    c
}

/// A randomized RC mesh: a chain backbone from `in` to `out` guaranteeing
/// connectivity, plus `extra_edges` random resistors and one grounded
/// capacitor per internal node, with values log-uniform over IC-like ranges
/// (`R ∈ [1 kΩ, 1 MΩ]`, `C ∈ [10 fF, 10 pF]`). Deterministic in `seed`.
///
/// Used by property tests (coefficient recovery must hold on arbitrary RC
/// topologies) and scalability benches.
///
/// # Panics
///
/// Panics if `nodes < 2`.
pub fn random_rc_mesh(nodes: usize, extra_edges: usize, seed: u64) -> Circuit {
    assert!(nodes >= 2, "need at least in and out");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).expect("fresh circuit");
    let name_of = |i: usize, n: usize| -> String {
        if i == 0 {
            "in".to_string()
        } else if i == n - 1 {
            "out".to_string()
        } else {
            format!("n{i}")
        }
    };
    let log_uniform = |rng: &mut StdRng, lo: f64, hi: f64| -> f64 {
        let l = rng.gen_range(lo.ln()..hi.ln());
        l.exp()
    };
    for i in 1..nodes {
        let a = name_of(i - 1, nodes);
        let b = name_of(i, nodes);
        let r = log_uniform(&mut rng, 1e3, 1e6);
        c.add_resistor(&format!("Rb{i}"), &a, &b, r).expect("unique");
    }
    for i in 1..nodes {
        let node = name_of(i, nodes);
        let cap = log_uniform(&mut rng, 10e-15, 10e-12);
        c.add_capacitor(&format!("Cg{i}"), &node, "0", cap).expect("unique");
    }
    for k in 0..extra_edges {
        let i = rng.gen_range(0..nodes);
        let j = rng.gen_range(0..nodes);
        if i == j {
            continue;
        }
        let a = name_of(i, nodes);
        let b = name_of(j, nodes);
        let r = log_uniform(&mut rng, 1e3, 1e6);
        c.add_resistor(&format!("Rx{k}"), &a, &b, r).expect("unique");
    }
    c
}

/// A `rows × cols` two-dimensional RC grid — the mesh-scale ordering
/// stress case. Every grid point carries a grounded capacitor; horizontal
/// and vertical neighbors are joined by resistors (values log-uniform over
/// the same IC-like ranges as [`random_rc_mesh`]). `VIN` drives the
/// `(0, 0)` corner (`in`); the response is read at the opposite corner
/// (`out`).
///
/// Unlike [`random_rc_mesh`] — whose chain backbone keeps even large
/// instances nearly tree-like — the five-point grid pattern is the classic
/// case where greedy Markowitz ordering fills super-linearly while nested-
/// dissection-like orders (which approximate minimum degree discovers) stay
/// near `O(n log n)`. Construction is `O(rows · cols)`. Deterministic in
/// `seed`.
///
/// # Panics
///
/// Panics unless `rows ≥ 1`, `cols ≥ 1` and `rows · cols ≥ 2`.
pub fn grid_rc_mesh(rows: usize, cols: usize, seed: u64) -> Circuit {
    assert!(rows >= 1 && cols >= 1 && rows * cols >= 2, "grid needs at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).expect("fresh circuit");
    let name_of = |r: usize, cc: usize| -> String {
        if (r, cc) == (0, 0) {
            "in".to_string()
        } else if (r, cc) == (rows - 1, cols - 1) {
            "out".to_string()
        } else {
            format!("n{r}_{cc}")
        }
    };
    let log_uniform = |rng: &mut StdRng, lo: f64, hi: f64| -> f64 {
        let l = rng.gen_range(lo.ln()..hi.ln());
        l.exp()
    };
    for r in 0..rows {
        for cc in 0..cols {
            let here = name_of(r, cc);
            if cc + 1 < cols {
                let right = name_of(r, cc + 1);
                let res = log_uniform(&mut rng, 1e3, 1e6);
                c.add_resistor(&format!("Rh{r}_{cc}"), &here, &right, res).expect("unique");
            }
            if r + 1 < rows {
                let down = name_of(r + 1, cc);
                let res = log_uniform(&mut rng, 1e3, 1e6);
                c.add_resistor(&format!("Rv{r}_{cc}"), &here, &down, res).expect("unique");
            }
            let cap = log_uniform(&mut rng, 10e-15, 10e-12);
            c.add_capacitor(&format!("Cg{r}_{cc}"), &here, "0", cap).expect("unique");
        }
    }
    c
}

/// Parameterized `.SUBCKT` building blocks for netlist-defined workloads.
///
/// Prepend this text to a top-level fragment (see [`netlist_with_library`])
/// to instantiate:
///
/// * `opamp inp inn out` — single-pole opamp macromodel
///   (`gm=1m rp=100meg cp=159p`): DC gain `gm·rp = 1e5`, dominant pole
///   ≈ 10 Hz, unity-gain bandwidth ≈ 1 MHz, ideal output buffer.
/// * `sallen_key in out` — unity-gain Sallen-Key low-pass biquad
///   (`r1=10k r2=10k c1=4n c2=390p`): f₀ ≈ 12.7 kHz, Q ≈ 1.6, built on a
///   nested `opamp` instance.
/// * `rc_lowpass in out` — four-section RC ladder (`r=1k c=1n`).
/// * `rlc_lowpass in out` — third-order Butterworth LC ladder
///   (`rs=50 rl=50 c1=31.83n l2=159.15u c3=31.83n`, cutoff 100 kHz).
///   Contains inductors, so it is a workload for the independent AC path,
///   not the interpolation engine.
pub const SUBCKT_LIBRARY: &str = "\
* refgen .SUBCKT building-block library
.subckt opamp inp inn out gm=1m rp=100meg cp=159p
RIN inp inn 10meg
G1 0 p inp inn {gm}
RP p 0 {rp}
CP p 0 {cp}
EOUT out 0 p 0 1
.ends opamp
.subckt sallen_key in out r1=10k r2=10k c1=4n c2=390p
R1 in a {r1}
R2 a b {r2}
C1 a out {c1}
C2 b 0 {c2}
XOP b out out opamp
.ends sallen_key
.subckt rc_lowpass in out r=1k c=1n
R1 in n1 {r}
C1 n1 0 {c}
R2 n1 n2 {r}
C2 n2 0 {c}
R3 n2 n3 {r}
C3 n3 0 {c}
R4 n3 out {r}
C4 out 0 {c}
.ends rc_lowpass
.subckt rlc_lowpass in out rs=50 rl=50 c1=31.83n l2=159.15u c3=31.83n
RS in a {rs}
C1 a 0 {c1}
L2 a out {l2}
C3 out 0 {c3}
RL out 0 {rl}
.ends rlc_lowpass
";

/// Prepends [`SUBCKT_LIBRARY`] to a top-level netlist fragment, yielding a
/// complete netlist for [`crate::parser::parse_netlist`].
pub fn netlist_with_library(top: &str) -> String {
    let mut out = String::with_capacity(SUBCKT_LIBRARY.len() + top.len() + 1);
    out.push_str(SUBCKT_LIBRARY);
    out.push_str(top);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementKind;
    use crate::parser::parse_spice;

    #[test]
    fn ladder_structure() {
        let c = rc_ladder(6, 1e3, 1e-9);
        c.validate().unwrap();
        assert_eq!(c.capacitor_values().len(), 6);
        assert_eq!(c.conductance_values().len(), 6);
        assert!(c.find_node("out").is_some());
        assert_eq!(c.reactive_count(), 6);
    }

    #[test]
    fn grid_mesh_structure() {
        let c = grid_rc_mesh(8, 8, 42);
        c.validate().unwrap();
        // 64 grid points: one grounded cap each, 2·8·7 neighbor resistors.
        assert_eq!(c.capacitor_values().len(), 64);
        assert_eq!(c.conductance_values().len(), 112);
        assert!(c.find_node("in").is_some());
        assert!(c.find_node("out").is_some());
        // Deterministic in the seed.
        let d = grid_rc_mesh(8, 8, 42);
        assert_eq!(c.capacitor_values(), d.capacitor_values());
        let e = grid_rc_mesh(8, 8, 43);
        assert_ne!(c.capacitor_values(), e.capacitor_values());
        // Degenerate shapes stay valid.
        grid_rc_mesh(1, 2, 0).validate().unwrap();
        grid_rc_mesh(2, 1, 0).validate().unwrap();
    }

    #[test]
    fn graded_ladder_values_drift() {
        let c = graded_rc_ladder(4, 1e3, 1e-12, 2.0, 0.5);
        let caps = c.capacitor_values();
        assert!((caps[0] / caps[3] - 8.0).abs() < 1e-9);
        c.validate().unwrap();
    }

    #[test]
    fn ota_is_ninth_order_by_capacitor_nodes() {
        let c = positive_feedback_ota();
        c.validate().unwrap();
        // 9 state nodes as documented; capacitor count exceeds the order
        // (parallel caps merge), but each of the 9 nodes carries capacitance.
        for node in ["M1_g", "M2_g", "tail", "y1", "y2", "x1", "x2", "o1", "out"] {
            assert!(c.find_node(node).is_some(), "missing state node {node}");
        }
        assert!(c.capacitor_values().len() >= 9);
        // Element magnitudes in the IC ranges the paper quotes (ratios of
        // consecutive coefficients land in 1e6..1e12).
        for g in c.conductance_values() {
            assert!(g > 1e-7 && g < 1e-1, "conductance {g}");
        }
        for cap in c.capacitor_values() {
            assert!(cap > 1e-15 && cap < 1e-10, "capacitance {cap}");
        }
    }

    #[test]
    fn ua741_structure() {
        let c = ua741();
        c.validate().unwrap();
        // 19 BJTs × (cπ + cµ) + CC + CL. Diode-connected devices keep their
        // cµ because the base resistance separates b′ from the collector.
        assert_eq!(c.capacitor_values().len(), 19 * 2 + 2);
        // 30 pF Miller cap present.
        assert!(c.capacitor_values().iter().any(|&v| (v - 30e-12).abs() < 1e-18));
        // Conductances span the µA-to-mA decades.
        let gs = c.conductance_values();
        let min = gs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = gs.iter().cloned().fold(0.0, f64::max);
        assert!(min < 1e-5 && max > 1e-3, "range {min}..{max}");
    }

    #[test]
    fn biquad_and_sallen_key_validate() {
        let b = tow_thomas_biquad(10e3, 5.0, 1e5);
        b.validate().unwrap();
        assert_eq!(b.capacitor_values().len(), 2);
        let s = sallen_key_lowpass(1e3, 0.707);
        s.validate().unwrap();
        assert_eq!(s.capacitor_values().len(), 2);
    }

    #[test]
    fn miller_opamp_structure() {
        let c = miller_two_stage_opamp(2e-12, 5e-12);
        c.validate().unwrap();
        assert!(c.capacitor_values().iter().any(|&v| (v - 2e-12).abs() < 1e-20));
        // State nodes: tail, x1, x2, out.
        for node in ["tail", "x1", "x2", "out"] {
            assert!(c.find_node(node).is_some(), "{node}");
        }
        assert!(!c.has_inductors());
    }

    #[test]
    fn lc_ladder_structure() {
        for n in [1usize, 2, 3, 5, 6] {
            let c = lc_ladder_lowpass(n, 50.0, 1e6);
            c.validate().unwrap();
            assert_eq!(c.reactive_count(), n, "n={n}");
            assert_eq!(c.capacitor_values().len(), n.div_ceil(2));
            assert_eq!(c.inductor_values().len(), n / 2);
            assert!(c.has_inductors() == (n >= 2));
            assert!(c.find_node("out").is_some());
        }
    }

    #[test]
    fn random_mesh_deterministic_and_valid() {
        let a = random_rc_mesh(12, 8, 42);
        let b = random_rc_mesh(12, 8, 42);
        a.validate().unwrap();
        assert_eq!(a.elements().len(), b.elements().len());
        for (x, y) in a.elements().iter().zip(b.elements()) {
            assert_eq!(x.kind, y.kind);
        }
        let c = random_rc_mesh(12, 8, 43);
        // Different seed ⇒ different values (overwhelmingly likely).
        let same = a.elements().iter().zip(c.elements()).all(|(x, y)| x.kind == y.kind);
        assert!(!same);
    }

    #[test]
    #[should_panic(expected = "at least one section")]
    fn empty_ladder_panics() {
        rc_ladder(0, 1.0, 1.0);
    }

    #[test]
    fn subckt_library_blocks_parse_and_validate() {
        for top in [
            "VIN in 0 AC 1\nX1 in out sallen_key\nRL out 0 1meg\n",
            "VIN in 0 AC 1\nX1 in out rc_lowpass\nRL out 0 1meg\n",
            "VIN in 0 AC 1\nX1 in out rlc_lowpass\n",
            "VIN in 0 AC 1\nRG in inn 10k\nRF out inn 10k\nXA 0 inn out opamp\n",
        ] {
            let c = parse_spice(&netlist_with_library(top)).unwrap();
            c.validate().unwrap();
        }
    }

    #[test]
    fn sallen_key_block_structure() {
        let top = "VIN in 0 AC 1\nX1 in out sallen_key\nRL out 0 1meg\n";
        let c = parse_spice(&netlist_with_library(top)).unwrap();
        // The biquad nests an opamp instance: flattened names compose.
        for name in ["X1.R1", "X1.C2", "X1.XOP.RP", "X1.XOP.EOUT"] {
            assert!(c.element(name).is_some(), "{name}");
        }
        assert!(c.find_node("X1.a").is_some());
        assert!(c.find_node("X1.XOP.p").is_some());
    }

    #[test]
    fn subckt_library_overrides_apply() {
        let top = "VIN in 0 AC 1\nX1 in out sallen_key c1=8n r2=20k\nRL out 0 1meg\n";
        let c = parse_spice(&netlist_with_library(top)).unwrap();
        match c.element("X1.C1").unwrap().kind {
            ElementKind::Capacitor { farads } => assert_eq!(farads, 8e-9),
            ref other => panic!("{other:?}"),
        }
        match c.element("X1.R2").unwrap().kind {
            ElementKind::Resistor { ohms } => assert_eq!(ohms, 2e4),
            ref other => panic!("{other:?}"),
        }
        // Untouched defaults stay put.
        match c.element("X1.C2").unwrap().kind {
            ElementKind::Capacitor { farads } => assert!((farads - 390e-12).abs() < 1e-24),
            ref other => panic!("{other:?}"),
        }
    }
}
