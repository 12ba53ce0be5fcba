//! Helpers shared by the integration-test binaries: the one solution
//! comparator of the configuration-invariance tiers, the golden-curve
//! loader, and circuits more than one tier drives.
#![allow(dead_code)]

pub mod golden;

use refgen::prelude::*;

/// Two first-order high-pass RC sections driven by `VIN` (C1 = 1 nF,
/// R1 = 1 kΩ into `a`; C2 = 2 nF, R2 = 3 kΩ into `b`), read as `a − b`.
/// The numerator `s·τ₁(1 + s·τ₂) − s·τ₂(1 + s·τ₁)` has structural bound 2,
/// but its `s²` terms cancel by value: its degree is 1.
pub fn cancelling_highpass_pair() -> (Circuit, TransferSpec) {
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).unwrap();
    c.add_capacitor("C1", "in", "a", 1e-9).unwrap();
    c.add_resistor("R1", "a", "0", 1e3).unwrap();
    c.add_capacitor("C2", "in", "b", 2e-9).unwrap();
    c.add_resistor("R2", "b", "0", 3e3).unwrap();
    (c, TransferSpec::differential_gain("VIN", "a", "b"))
}

/// Asserts `got` reproduces the reference solve `want` bit for bit:
/// method, coefficient bits, window trail, report fields and every
/// `Diagnostic`.
///
/// The lone sanctioned difference is the `threads` field of
/// `Diagnostic::SamplingBatched`, which reports the worker count used.
/// When `full_sweep` is set, `got` ran with `conjugate_mirror = false`
/// against a mirrored `want`: each batch then mirrors nothing and solves
/// exactly the points `want` solved or mirrored, and the polynomial's
/// `refactor_hits` grows by the points `want` mirrored.
pub fn assert_same_solution(ctx: &str, want: &Solution, got: &Solution, full_sweep: bool) {
    assert_eq!(want.method, got.method, "{ctx}: method");
    // Debug formatting of f64 round-trips, so equal strings ⇔ equal bits.
    assert_eq!(
        format!("{:?}", want.network.denominator.coeffs()),
        format!("{:?}", got.network.denominator.coeffs()),
        "{ctx}: denominator coefficients differ"
    );
    assert_eq!(
        format!("{:?}", want.network.numerator.coeffs()),
        format!("{:?}", got.network.numerator.coeffs()),
        "{ctx}: numerator coefficients differ"
    );
    let (rw, rg) = (&want.network.report, &got.network.report);
    assert_eq!(rw.admittance_degree, rg.admittance_degree, "{ctx}: admittance degree");
    for (pw, pg) in [(&rw.denominator, &rg.denominator), (&rw.numerator, &rg.numerator)] {
        let ctx = format!("{ctx}/{:?}", pw.kind);
        assert_eq!(pw.kind, pg.kind, "{ctx}");
        assert_eq!(format!("{:?}", pw.windows), format!("{:?}", pg.windows), "{ctx}: windows");
        assert_eq!(pw.declared_zero, pg.declared_zero, "{ctx}: declared_zero");
        assert_eq!(pw.order_bound, pg.order_bound, "{ctx}: order_bound");
        assert_eq!(pw.effective_degree, pg.effective_degree, "{ctx}: effective_degree");
        assert_eq!(pw.total_points, pg.total_points, "{ctx}: total_points");
        assert_eq!(pw.diagnostics.len(), pg.diagnostics.len(), "{ctx}: diagnostic counts");
        let mut mirrored_by_want = 0;
        for (i, (dw, dg)) in pw.diagnostics.iter().zip(&pg.diagnostics).enumerate() {
            match (dw, dg) {
                (
                    Diagnostic::SamplingBatched {
                        points: p1, compiled_hits: c1, mirrored: m1, ..
                    },
                    Diagnostic::SamplingBatched {
                        points: p2, compiled_hits: c2, mirrored: m2, ..
                    },
                ) => {
                    assert_eq!(p1, p2, "{ctx}: batch {i} point counts");
                    let want_cost = if full_sweep { (c1 + m1, 0) } else { (*c1, *m1) };
                    assert_eq!(want_cost, (*c2, *m2), "{ctx}: batch {i} (compiled, mirrored)");
                    mirrored_by_want += m1;
                }
                _ => assert_eq!(dw, dg, "{ctx}: diagnostic {i}"),
            }
        }
        let extra = if full_sweep { mirrored_by_want } else { 0 };
        assert_eq!(pw.refactor_hits + extra, pg.refactor_hits, "{ctx}: refactor_hits");
    }
}

/// [`assert_same_solution`] over outcomes: typed failures must be
/// identical too.
pub fn assert_same_outcome(
    ctx: &str,
    want: &Result<Solution, RefgenError>,
    got: &Result<Solution, RefgenError>,
    full_sweep: bool,
) {
    match (want, got) {
        (Ok(a), Ok(b)) => assert_same_solution(ctx, a, b, full_sweep),
        (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{ctx}: errors"),
        (a, b) => panic!(
            "{ctx}: outcome changed: {:?} vs {:?}",
            a.as_ref().map(|s| s.method),
            b.as_ref().map(|s| s.method)
        ),
    }
}

/// Asserts a fleet run reproduces the reference fleet: every survivor
/// through [`assert_same_solution`], in fleet order, and the
/// survivor-side accounting of the report. With `plan_counters` the
/// runtime-global plan-cache counters (`pivot_searches`,
/// `shared_plan_hits`, `programs_compiled`) and the fleet's `topologies`
/// and `degree_bounds_computed` must match as well — not so
/// under injected faults, where victims touch the shared cache before
/// dying.
pub fn assert_same_fleet(
    ctx: &str,
    want: &BatchRun,
    got: &BatchRun,
    full_sweep: bool,
    plan_counters: bool,
) {
    let (sw, sg) = (want.solutions(), got.solutions());
    assert_eq!(sw.len(), sg.len(), "{ctx}: survivor counts");
    for (i, (a, b)) in sw.iter().zip(&sg).enumerate() {
        assert_same_solution(&format!("{ctx}: variant {i}"), a, b, full_sweep);
    }
    let (rw, rg) = (&want.report, &got.report);
    assert_eq!(rw.variants, rg.variants, "{ctx}: variants");
    assert_eq!(format!("{:?}", rw.denominator), format!("{:?}", rg.denominator), "{ctx}");
    assert_eq!(format!("{:?}", rw.numerator), format!("{:?}", rg.numerator), "{ctx}");
    assert_eq!(rw.variant_points, rg.variant_points, "{ctx}: variant_points");
    let hits: Vec<u64> = sg.iter().map(|s| s.refactor_hits()).collect();
    assert_eq!(rg.variant_refactor_hits, hits, "{ctx}: variant_refactor_hits");
    assert_eq!(rg.total_refactor_hits, hits.iter().sum::<u64>(), "{ctx}: total_refactor_hits");
    if !full_sweep {
        assert_eq!(rw.variant_refactor_hits, rg.variant_refactor_hits, "{ctx}");
    }
    if plan_counters {
        assert_eq!(rw.pivot_searches, rg.pivot_searches, "{ctx}: pivot_searches");
        assert_eq!(rw.shared_plan_hits, rg.shared_plan_hits, "{ctx}: shared_plan_hits");
        assert_eq!(rw.programs_compiled, rg.programs_compiled, "{ctx}: programs_compiled");
        assert_eq!(rw.topologies, rg.topologies, "{ctx}: topologies");
        assert_eq!(
            rw.degree_bounds_computed, rg.degree_bounds_computed,
            "{ctx}: degree_bounds_computed"
        );
    }
}
