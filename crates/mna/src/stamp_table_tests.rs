//! Bit-identity tier for the stamp table.
//!
//! [`MnaSystem::assemble`] and the affine pattern are computed from the
//! stamp table compiled in [`MnaSystem::new`]. This tier holds both to a
//! reference implementation kept here verbatim: per-element `stamp`
//! helpers that assemble by walking the circuit, and an affine extraction
//! that assembles at `s = 0` and `s = 1`, sorts by position and merges
//! duplicates. Every value is compared through `to_bits`, so a different
//! rounding, a flipped zero sign or a different duplicate-merge order
//! fails.

use crate::sweep::affine_pattern;
use crate::system::{MnaSystem, Scale};
use refgen_circuit::library::{
    grid_rc_mesh, lc_ladder_lowpass, positive_feedback_ota, rc_ladder, tow_thomas_biquad, ua741,
};
use refgen_circuit::{Circuit, Element, ElementKind};
use refgen_numeric::Complex;
use refgen_sparse::Triplets;

type Pattern = Vec<(usize, usize, Complex, Complex)>;

// ---- Reference: assembly by walking the circuit element by element ----

fn reference_assemble(sys: &MnaSystem, s: Complex, scale: Scale) -> Triplets {
    let mut t = Triplets::new(sys.dim());
    for el in sys.circuit().elements() {
        reference_stamp(sys, &mut t, el, s, scale);
    }
    t
}

fn reference_stamp(sys: &MnaSystem, t: &mut Triplets, el: &Element, s: Complex, scale: Scale) {
    let branch = |name: &str| sys.branch_row(name).expect("branch exists");
    let (p, m) = el.nodes;
    let rp = sys.node_row(p);
    let rm = sys.node_row(m);
    match &el.kind {
        ElementKind::Resistor { ohms } => {
            stamp_admittance(t, rp, rm, Complex::real(scale.g / ohms));
        }
        ElementKind::Conductance { siemens } => {
            stamp_admittance(t, rp, rm, Complex::real(scale.g * siemens));
        }
        ElementKind::Capacitor { farads } => {
            stamp_admittance(t, rp, rm, s * (scale.f * farads));
        }
        ElementKind::Vccs { gm, control } => {
            let y = Complex::real(scale.g * gm);
            let (cp, cm) = (sys.node_row(control.0), sys.node_row(control.1));
            stamp_transadmittance(t, rp, rm, cp, cm, y);
        }
        ElementKind::VSource { .. } => {
            let row = branch(&el.name);
            stamp_branch_voltage(t, row, rp, rm);
        }
        ElementKind::Vcvs { gain, control } => {
            let row = branch(&el.name);
            stamp_branch_voltage(t, row, rp, rm);
            let (cp, cm) = (sys.node_row(control.0), sys.node_row(control.1));
            if let Some(c) = cp {
                t.add(row, c, Complex::real(-gain));
            }
            if let Some(c) = cm {
                t.add(row, c, Complex::real(*gain));
            }
        }
        ElementKind::Cccs { gain, control_branch } => {
            let col = branch(control_branch);
            if let Some(r) = rp {
                t.add(r, col, Complex::real(*gain));
            }
            if let Some(r) = rm {
                t.add(r, col, Complex::real(-gain));
            }
        }
        ElementKind::Ccvs { ohms, control_branch } => {
            let row = branch(&el.name);
            stamp_branch_voltage(t, row, rp, rm);
            let col = branch(control_branch);
            t.add(row, col, Complex::real(-ohms));
        }
        ElementKind::Inductor { henries } => {
            let row = branch(&el.name);
            stamp_branch_voltage(t, row, rp, rm);
            t.add(row, row, -(s * (scale.f * *henries)));
        }
        ElementKind::ISource { .. } => {}
    }
}

fn stamp_admittance(t: &mut Triplets, rp: Option<usize>, rm: Option<usize>, y: Complex) {
    if let Some(i) = rp {
        t.add(i, i, y);
        if let Some(j) = rm {
            t.add(i, j, -y);
        }
    }
    if let Some(j) = rm {
        t.add(j, j, y);
        if let Some(i) = rp {
            t.add(j, i, -y);
        }
    }
}

fn stamp_transadmittance(
    t: &mut Triplets,
    rp: Option<usize>,
    rm: Option<usize>,
    cp: Option<usize>,
    cm: Option<usize>,
    y: Complex,
) {
    for (node, sign_n) in [(rp, 1.0), (rm, -1.0)] {
        let Some(r) = node else { continue };
        for (ctrl, sign_c) in [(cp, 1.0), (cm, -1.0)] {
            let Some(c) = ctrl else { continue };
            t.add(r, c, y.scale(sign_n * sign_c));
        }
    }
}

fn stamp_branch_voltage(t: &mut Triplets, row: usize, rp: Option<usize>, rm: Option<usize>) {
    if let Some(i) = rp {
        t.add(row, i, Complex::ONE);
        t.add(i, row, Complex::ONE);
    }
    if let Some(j) = rm {
        t.add(row, j, -Complex::ONE);
        t.add(j, row, -Complex::ONE);
    }
}

// ---- Reference: affine extraction by two assemblies, sort and merge ----

/// The raw `(row, col, K₀, K₁)` entries in assembly order.
fn reference_raw_affine(sys: &MnaSystem, scale: Scale) -> Pattern {
    let t0 = reference_assemble(sys, Complex::ZERO, scale);
    let t1 = reference_assemble(sys, Complex::ONE, scale);
    t0.entries()
        .iter()
        .zip(t1.entries())
        .map(|(&(r0, c0, v0), &(r1, c1, v1))| {
            assert_eq!((r0, c0), (r1, c1), "stamp positions must align");
            (r0, c0, v0, v1 - v0)
        })
        .collect()
}

fn reference_affine_pattern(sys: &MnaSystem, scale: Scale) -> Pattern {
    let mut pattern = reference_raw_affine(sys, scale);
    pattern.sort_unstable_by_key(|&(r, c, _, _)| (r, c));
    let mut w = 0usize;
    for i in 0..pattern.len() {
        let (r, c, k0, k1) = pattern[i];
        if w > 0 && pattern[w - 1].0 == r && pattern[w - 1].1 == c {
            pattern[w - 1].2 += k0;
            pattern[w - 1].3 += k1;
        } else {
            pattern[w] = (r, c, k0, k1);
            w += 1;
        }
    }
    pattern.truncate(w);
    pattern
}

fn reference_fingerprint(dim: usize, pattern: &Pattern) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(dim as u64);
    for &(r, c, _, _) in pattern {
        mix(r as u64);
        mix(c as u64);
    }
    h
}

// ---- Comparison ----

fn bits(z: Complex) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

fn assert_patterns_identical(got: &Pattern, want: &Pattern, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: entry count");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (g.0, g.1, bits(g.2), bits(g.3)),
            (w.0, w.1, bits(w.2), bits(w.3)),
            "{what}: entry {k}: got {g:?}, want {w:?}"
        );
    }
}

/// Checks `affine_pattern`, the fingerprint, and `assemble` at every `s`
/// against the reference, bit for bit.
fn assert_table_matches_reference(
    sys: &MnaSystem,
    scales: &[Scale],
    points: &[Complex],
    name: &str,
) {
    for &scale in scales {
        let want = reference_affine_pattern(sys, scale);
        let (dim, got) = affine_pattern(sys, scale);
        assert_eq!(dim, sys.dim(), "{name}");
        assert_patterns_identical(&got, &want, &format!("{name} affine at {scale:?}"));
        assert_eq!(sys.pattern_fingerprint(), reference_fingerprint(dim, &want), "{name}");
        for &s in points {
            let got = sys.assemble(s, scale);
            let want = reference_assemble(sys, s, scale);
            assert_eq!(got.dim(), want.dim(), "{name}");
            assert_eq!(got.raw_len(), want.raw_len(), "{name}");
            for (k, (g, w)) in got.entries().iter().zip(want.entries()).enumerate() {
                assert_eq!(
                    (g.0, g.1, bits(g.2)),
                    (w.0, w.1, bits(w.2)),
                    "{name} assemble at s = {s}, {scale:?}: raw entry {k}"
                );
            }
        }
    }
}

// ---- Seeded inputs ----

/// SplitMix64: a dependency-free seeded generator.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// A random mantissa times `10^e`, `e` uniform in `[lo, hi)`.
    fn magnitude(&mut self, lo: f64, hi: f64) -> f64 {
        self.uniform(1.0, 10.0) * 10f64.powf(self.uniform(lo, hi).floor())
    }

    fn signed(&mut self, lo: f64, hi: f64) -> f64 {
        let m = self.magnitude(lo, hi);
        if self.below(2) == 0 {
            m
        } else {
            -m
        }
    }
}

/// Scales with both factors spread over ±15 decades, plus the unit scale.
fn random_scales(rng: &mut Rng, n: usize) -> Vec<Scale> {
    let mut scales = vec![Scale::unit()];
    for _ in 0..n {
        let f = 10f64.powf(rng.uniform(-15.0, 15.0));
        let g = 10f64.powf(rng.uniform(-15.0, 15.0));
        scales.push(Scale::new(f, g));
    }
    scales
}

/// Random complex points, plus the two the affine extraction samples.
fn random_points(rng: &mut Rng, n: usize) -> Vec<Complex> {
    let mut points = vec![Complex::ZERO, Complex::ONE, Complex::new(0.0, -1.0)];
    for _ in 0..n {
        points.push(Complex::new(rng.signed(-6.0, 6.0), rng.signed(-6.0, 6.0)));
    }
    points
}

/// A seeded random circuit using every element kind. Terminals include
/// ground; node `n1` carries a cluster of parallel elements of disparate
/// magnitude, so its diagonal sums depend on the merge order.
fn random_circuit(rng: &mut Rng) -> Circuit {
    let nodes = 3 + rng.below(5);
    let node = |k: usize| if k == 0 { "0".to_string() } else { format!("n{k}") };
    let mut c = Circuit::new();
    let mut vsources = vec!["V0".to_string()];
    c.add_vsource("V0", &node(1 + rng.below(nodes)), "0", rng.signed(-1.0, 1.0)).unwrap();
    for (k, exp) in [-3.0, 2.0, 7.0, -1.0].into_iter().enumerate() {
        let v = rng.magnitude(exp, exp + 1.0);
        match k % 3 {
            0 => c.add_resistor(&format!("RP{k}"), "n1", "0", v).unwrap(),
            1 => c.add_conductance(&format!("GP{k}"), "n1", "0", v).unwrap(),
            _ => c.add_capacitor(&format!("CP{k}"), "n1", "0", v * 1e-12).unwrap(),
        }
    }
    c.add_vccs("GPX", "n1", "0", "n1", "0", rng.signed(-2.0, 2.0)).unwrap();
    // Two distinct terminals, ground allowed.
    let pair = |rng: &mut Rng| {
        let p = rng.below(nodes + 1);
        let mut m = rng.below(nodes + 1);
        if m == p {
            m = (p + 1 + rng.below(nodes)) % (nodes + 1);
        }
        (node(p), node(m))
    };
    for k in 0..(10 + rng.below(12)) {
        let (p, m) = pair(rng);
        let name = format!("X{k}");
        match rng.below(10) {
            0 => c.add_resistor(&format!("R{name}"), &p, &m, rng.magnitude(-2.0, 8.0)),
            1 => c.add_conductance(&format!("G{name}"), &p, &m, rng.magnitude(-8.0, 2.0)),
            2 => c.add_capacitor(&format!("C{name}"), &p, &m, rng.magnitude(-15.0, -3.0)),
            3 => c.add_inductor(&format!("L{name}"), &p, &m, rng.magnitude(-9.0, 0.0)),
            4 => {
                let (cp, cm) = pair(rng);
                c.add_vccs(&format!("G{name}"), &p, &m, &cp, &cm, rng.signed(-6.0, 0.0))
            }
            5 => {
                let (cp, cm) = pair(rng);
                c.add_vcvs(&format!("E{name}"), &p, &m, &cp, &cm, rng.signed(-1.0, 3.0))
            }
            6 => {
                let ctrl = &vsources[rng.below(vsources.len())];
                c.add_cccs(&format!("F{name}"), &p, &m, ctrl, rng.signed(-1.0, 2.0))
            }
            7 => {
                let ctrl = &vsources[rng.below(vsources.len())];
                c.add_ccvs(&format!("H{name}"), &p, &m, ctrl, rng.signed(0.0, 4.0))
            }
            8 => {
                vsources.push(format!("V{name}"));
                c.add_vsource(&format!("V{name}"), &p, &m, rng.signed(-1.0, 1.0))
            }
            _ => c.add_isource(&format!("I{name}"), &p, &m, rng.signed(-6.0, -2.0)),
        }
        .unwrap();
    }
    // Every node gets a leak to ground and a link to its successor, so
    // none floats.
    for k in 1..=nodes {
        c.add_resistor(&format!("RL{k}"), &node(k), "0", rng.magnitude(3.0, 9.0)).unwrap();
        let next = node(k % nodes + 1);
        c.add_capacitor(&format!("CL{k}"), &node(k), &next, rng.magnitude(-13.0, -9.0)).unwrap();
    }
    c
}

// ---- Tests ----

#[test]
fn table_matches_reference_on_random_circuits() {
    let mut rng = Rng(0x5eed_0013);
    for case in 0..48 {
        let circuit = random_circuit(&mut rng);
        let sys = MnaSystem::new(&circuit).unwrap();
        let scales = random_scales(&mut rng, 6);
        let points = random_points(&mut rng, 4);
        assert_table_matches_reference(&sys, &scales, &points, &format!("random case {case}"));
    }
}

#[test]
fn table_matches_reference_on_library_circuits() {
    let mut rng = Rng(0x1ab_0013);
    for (name, circuit) in [
        ("ua741", ua741()),
        ("ota", positive_feedback_ota()),
        ("rc_ladder", rc_ladder(12, 1e3, 1e-9)),
        ("lc_ladder", lc_ladder_lowpass(5, 50.0, 1e6)),
        ("biquad", tow_thomas_biquad(10e3, 2.0, 1e4)),
        ("mesh", grid_rc_mesh(8, 8, 3)),
    ] {
        let sys = MnaSystem::new(&circuit).unwrap();
        let scales = random_scales(&mut rng, 8);
        let points = random_points(&mut rng, 3);
        assert_table_matches_reference(&sys, &scales, &points, name);
    }
}

/// The random circuits are able to catch a wrong merge order: summing
/// each position's duplicates in reverse changes at least one pattern
/// entry's bits. Without this, the tier above could pass a table that
/// merges in any order.
#[test]
fn random_circuits_are_merge_order_sensitive() {
    let mut rng = Rng(0x5eed_0013);
    let mut sensitive = 0;
    for _ in 0..48 {
        let sys = MnaSystem::new(&random_circuit(&mut rng)).unwrap();
        for scale in random_scales(&mut rng, 6) {
            let want = reference_affine_pattern(&sys, scale);
            let mut raw = reference_raw_affine(&sys, scale);
            raw.sort_unstable_by_key(|&(r, c, _, _)| (r, c));
            let mut reversed: Pattern = Vec::new();
            for group in raw.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
                let (r, c, mut k0, mut k1) = group[group.len() - 1];
                for &(_, _, d0, d1) in group[..group.len() - 1].iter().rev() {
                    k0 += d0;
                    k1 += d1;
                }
                reversed.push((r, c, k0, k1));
            }
            let differs = reversed
                .iter()
                .zip(&want)
                .any(|(a, b)| (bits(a.2), bits(a.3)) != (bits(b.2), bits(b.3)));
            sensitive += usize::from(differs);
        }
        // Draw what the identity test draws, so both see the same cases.
        let _ = random_points(&mut rng, 4);
    }
    // 48 circuits × 7 scales; most cases must be able to tell.
    assert!(sensitive >= 168, "only {sensitive} of 336 (circuit, scale) cases are order-sensitive");
}

/// A value variant compiled on its base's topology shares it and stamps
/// exactly what the reference stamps for the variant; a circuit whose raw
/// stamps differ in kind (a capacitor where a resistor stood, on the same
/// positions and so the same fingerprint) or in count builds a topology
/// of its own.
#[test]
fn variants_share_their_base_topology() {
    use refgen_circuit::{Perturbation, VariantSet};
    let mut rng = Rng(0x5eed_0033);
    for case in 0..24 {
        let circuit = random_circuit(&mut rng);
        let base = MnaSystem::new(&circuit).unwrap();
        let variants =
            VariantSet::new(Perturbation::all_relative(0.2), 2).seed(case).generate(&circuit);
        for (k, variant) in variants.unwrap().iter().enumerate() {
            let sys = MnaSystem::with_topology_of(variant, &base).unwrap();
            let name = format!("random case {case}, variant {k}");
            assert!(sys.shares_topology(&base), "{name}");
            let (scales, points) = (random_scales(&mut rng, 3), random_points(&mut rng, 2));
            assert_table_matches_reference(&sys, &scales, &points, &name);
        }
    }

    let base = MnaSystem::new(&rc_ladder(2, 1e3, 1e-9)).unwrap();
    let mut swapped = Circuit::new();
    swapped.add_vsource("VIN", "in", "0", 1.0).unwrap();
    swapped.add_resistor("R1", "in", "l1", 1e3).unwrap();
    swapped.add_capacitor("C1", "l1", "0", 1e-9).unwrap();
    swapped.add_capacitor("CR2", "l1", "out", 1e-9).unwrap();
    swapped.add_capacitor("C2", "out", "0", 1e-9).unwrap();
    let mut extra = rc_ladder(2, 1e3, 1e-9);
    extra.add_capacitor("CX", "in", "out", 1e-12).unwrap();
    let mut rng = Rng(0x5eed_0034);
    for (name, circuit) in [("swapped", &swapped), ("extra", &extra)] {
        let sys = MnaSystem::with_topology_of(circuit, &base).unwrap();
        assert!(!sys.shares_topology(&base), "{name}");
        let (scales, points) = (random_scales(&mut rng, 3), random_points(&mut rng, 2));
        assert_table_matches_reference(&sys, &scales, &points, name);
    }
    let swapped = MnaSystem::new(&swapped).unwrap();
    assert_eq!(swapped.pattern_fingerprint(), base.pattern_fingerprint());
    let same = MnaSystem::with_topology_of(&rc_ladder(2, 2e3, 1e-9), &base).unwrap();
    assert!(same.shares_topology(&base));
}
