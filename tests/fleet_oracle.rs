//! The variance-oracle tier: Monte-Carlo batch sessions over an analytic
//! RC ladder, checked against **closed-form** coefficient statistics.
//!
//! For a conductance-built 2-section ladder (`VIN`, `G1`, `C1`, `G2`,
//! `C2`) the MNA determinant is, up to one global sign,
//!
//! ```text
//! D(s) = G1·G2 + s·(C1·G2 + C2·G2 + C2·G1) + s²·C1·C2
//! ```
//!
//! Under independent uniform relative tolerances — every conductance
//! multiplied by `a = 1 + t_g·u`, every capacitor by `b = 1 + t_c·u`,
//! `u ~ U[−1, 1)` — each coefficient is a small polynomial in independent
//! multipliers, so its exact mean and variance follow from the moments
//! `E[a] = 1`, `E[a²] = 1 + t_g²/3` alone. A batch session must reproduce
//! those statistics within Monte-Carlo tolerance at a fixed seed — and
//! reproduce them **bit-identically** across `threads ∈ {1, 4}` and
//! across batched-replay lane widths `∈ {1, 4, 8}` (inline and fanned
//! variants alike).

mod support;

use refgen::prelude::*;

const TG: f64 = 0.15; // conductance relative tolerance
const TC: f64 = 0.20; // capacitor relative tolerance
const N: usize = 256; // fleet size
const SEED: u64 = 20260727;

const G1: f64 = 1e-3;
const G2: f64 = 2.5e-4;
const C1: f64 = 1e-9;
const C2: f64 = 4e-10;

/// Second moment of a uniform relative multiplier `1 + t·u`, `u ~ U[−1,1)`.
fn m2(t: f64) -> f64 {
    1.0 + t * t / 3.0
}

/// The conductance-built ladder (conductances perturb multiplicatively,
/// which keeps the closed forms in product-of-moments shape).
fn base_circuit() -> Circuit {
    let mut c = Circuit::new();
    c.add_vsource("VIN", "in", "0", 1.0).unwrap();
    c.add_conductance("G1", "in", "l1", G1).unwrap();
    c.add_capacitor("C1", "l1", "0", C1).unwrap();
    c.add_conductance("G2", "l1", "out", G2).unwrap();
    c.add_capacitor("C2", "out", "0", C2).unwrap();
    c
}

fn tolerances() -> Perturbation {
    Perturbation::new()
        .relative(ElementClass::Conductances, TG)
        .relative(ElementClass::Capacitors, TC)
}

fn run_batch(threads: usize, lanes: usize) -> BatchRun {
    let base = base_circuit();
    Session::for_circuit(&base)
        .spec(TransferSpec::voltage_gain("VIN", "out"))
        .config(RefgenConfig::builder().threads(threads).lane_width(lanes).build())
        .variants(VariantSet::new(tolerances(), N).seed(SEED))
        .solve_all()
        .expect("oracle fleet solves")
}

/// Closed-form `(mean, variance)` of each denominator coefficient, up to
/// the determinant's global sign.
fn closed_form() -> [(f64, f64); 3] {
    let (mg, mc) = (m2(TG), m2(TC));
    // p0 = G1·G2·a1·a2
    let p0 = G1 * G2;
    let var0 = p0 * p0 * (mg * mg - 1.0);
    // p2 = C1·C2·b1·b2
    let p2 = C1 * C2;
    let var2 = p2 * p2 * (mc * mc - 1.0);
    // p1 = T1 + T2 + T3 with T1 = C1G2·b1a2, T2 = C2G2·b2a2, T3 = C2G1·b2a1.
    let (t1, t2, t3) = (C1 * G2, C2 * G2, C2 * G1);
    let p1 = t1 + t2 + t3;
    let var_term = |t: f64| t * t * (mc * mg - 1.0);
    // Shared multipliers: T1,T2 share a2; T2,T3 share b2; T1,T3 share none.
    let cov12 = t1 * t2 * (mg - 1.0);
    let cov23 = t2 * t3 * (mc - 1.0);
    let var1 = var_term(t1) + var_term(t2) + var_term(t3) + 2.0 * (cov12 + cov23);
    [(p0, var0), (p1, var1), (p2, var2)]
}

#[test]
fn monte_carlo_statistics_match_closed_form() {
    let run = run_batch(1, 1);
    assert_eq!(run.report.variants, N);
    assert_eq!(run.report.denominator.len(), 3);

    // The MNA determinant carries one global sign; resolve it from the
    // measured p0 (all ladder coefficients share it).
    let sign = run.report.denominator[0].mean.signum();
    // Every figure here is within f64 range, where the extended-range
    // statistics are exactly the plain f64 ones.
    let oracle = closed_form();
    for (i, ((want_mean, want_var), got)) in oracle.iter().zip(&run.report.denominator).enumerate()
    {
        // Mean: the MC standard error is sd/√N; 4 standard errors is a
        // comfortably deterministic bound at this fixed seed.
        let se = (want_var / N as f64).sqrt();
        let (mean, variance) = (got.mean.to_f64(), got.variance.to_f64());
        let mean_err = (sign * mean - want_mean).abs();
        assert!(
            mean_err <= 4.0 * se,
            "p{i} mean: got {:.6e}, oracle {want_mean:.6e}, err {mean_err:.2e} > 4se {:.2e}",
            sign * mean,
            4.0 * se,
        );
        // Variance: the estimator's own relative spread is ~√(2/N) ≈ 9 %;
        // 30 % is ≳3σ with kurtosis headroom.
        let var_rel = (variance - want_var).abs() / want_var;
        assert!(
            var_rel <= 0.30,
            "p{i} variance: got {:.6e}, oracle {want_var:.6e}, rel {var_rel:.3}",
            variance,
        );
    }

    // Fleet cost accounting: the pivot searches of one solve's plan
    // cells, regardless of the 256 variants.
    let single = Session::for_circuit(&base_circuit())
        .spec(TransferSpec::voltage_gain("VIN", "out"))
        .variants(VariantSet::new(tolerances(), 1).seed(SEED))
        .solve_all()
        .expect("single-variant fleet solves")
        .report;
    assert_eq!(
        run.report.pivot_searches, single.pivot_searches,
        "pivot searches must be fleet-size independent"
    );
    assert!(run.report.shared_plan_hits > single.shared_plan_hits);
    assert_eq!(run.report.total_refactor_hits, run.report.variant_refactor_hits.iter().sum());
}

/// The determinism acceptance for batch sessions: coefficients, recorded
/// diagnostics, variance statistics, and cost accounting are bit-identical
/// across `threads ∈ {1, 4}` × batched-replay lane widths `∈ {1, 4, 8}` —
/// the grid that covers inline and fanned variants, per-point sampling,
/// and lane-chunked sampling with odd tails.
#[test]
fn batch_is_bit_identical_across_threads_executors_and_lanes() {
    let reference = run_batch(1, 1);
    for threads in [1, 4] {
        for lanes in [1, 4, 8] {
            if (threads, lanes) == (1, 1) {
                continue;
            }
            let label = format!("{threads}t/{lanes}l");
            let run = run_batch(threads, lanes);
            support::assert_same_fleet(&label, &reference, &run, false, true);
        }
    }
}

/// A µA741-class fleet through the full batch session: every variant
/// recovers the 39th-order denominator, and plan sharing keeps the pivot
/// searches at the single-solve count — independent of fleet size.
#[test]
fn ua741_batch_session_amortizes_pivot_searches() {
    let base = library::ua741();
    let spec = TransferSpec::voltage_gain("VIN", "out");
    let cfg = RefgenConfig::builder().verify(false).build();
    let run_fleet = |count: usize| {
        Session::for_circuit(&base)
            .spec(spec.clone())
            .config(cfg)
            .variants(VariantSet::new(Perturbation::all_relative(0.03), count).seed(9))
            .solve_all()
            .expect("µA741 fleet solves")
    };
    let single = run_fleet(1);
    let fleet = run_fleet(6);
    for (i, s) in fleet.solutions().iter().enumerate() {
        assert_eq!(s.network.denominator.degree(), Some(39), "variant {i} lost denominator order");
    }
    assert_eq!(
        fleet.report.pivot_searches, single.report.pivot_searches,
        "µA741 fleet must reuse the single-solve pivot searches"
    );
    // The shared orders did real work: the fleet's extra five variants
    // planned all their windows without probing.
    assert!(fleet.report.shared_plan_hits >= 5 * single.report.pivot_searches);
}

/// The µA741's deep coefficients lie far below `f64`'s range (D[39]
/// near 1e−330) and their squared spreads further still: computed on
/// plain `f64` values, the variance of D[12] and above and the mean of
/// D[30] and above flushed to zero. Every coefficient's statistics must
/// be nonzero and equal an `f64` computation on the real parts scaled by
/// the index's largest binary exponent.
#[test]
fn ua741_statistics_keep_every_coefficients_spread() {
    let run = Session::for_circuit(&library::ua741())
        .spec(TransferSpec::voltage_gain("VIN", "out"))
        .variants(VariantSet::new(Perturbation::all_relative(0.05), 8).seed(3))
        .solve_all()
        .expect("µA741 fleet solves");
    let solutions = run.solutions();
    let n = solutions.len() as f64;
    let moments = |x: &[f64]| {
        let mean = x.iter().sum::<f64>() / n;
        (mean, x.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n)
    };
    let report = &run.report;
    for (kind, stats) in
        [(PolyKind::Denominator, &report.denominator), (PolyKind::Numerator, &report.numerator)]
    {
        let coeffs = |s: &&Solution| match kind {
            PolyKind::Denominator => s.network.denominator.coeffs().to_vec(),
            PolyKind::Numerator => s.network.numerator.coeffs().to_vec(),
        };
        let coeffs: Vec<_> = solutions.iter().map(coeffs).collect();
        assert!(coeffs.iter().all(|c| c.len() == stats.len()), "{kind:?}");
        for (i, got) in stats.iter().enumerate() {
            let re: Vec<_> = coeffs.iter().map(|c| c[i].re()).collect();
            let e = re.iter().map(|x| x.exponent()).max().unwrap();
            let scaled: Vec<f64> = re.iter().map(|x| x.ldexp(-e).to_f64()).collect();
            let (mean, variance) = moments(&scaled);
            assert!(!got.mean.is_zero() && !got.variance.is_zero(), "{kind:?}[{i}]: {got:?}");
            assert_eq!(got.mean.ldexp(-e).to_f64().to_bits(), mean.to_bits(), "{kind:?}[{i}]");
            let got_variance = got.variance.ldexp(-2 * e).to_f64();
            assert_eq!(got_variance.to_bits(), variance.to_bits(), "{kind:?}[{i}]");
        }
    }
    // Where the plain f64 computation stays in range it is unchanged.
    let d0: Vec<f64> =
        solutions.iter().map(|s| s.network.denominator.coeffs()[0].re().to_f64()).collect();
    let d = &report.denominator[0];
    assert_eq!((d.mean.to_f64(), d.variance.to_f64()), moments(&d0));
}
