//! Reproduces the paper's **Table 1** on the positive-feedback OTA
//! (Fig. 1): the round-off failure of plain unit-circle interpolation, and
//! the partial rescue by a fixed 1e9 frequency scale factor — both through
//! the baseline `Solver` types.
//!
//! ```text
//! cargo run --release --example ota_table1
//! ```

use refgen::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = library::positive_feedback_ota();
    let spec = TransferSpec::voltage_gain("VIN", "out");
    let cfg = RefgenConfig::default();

    // The true coefficients, from the adaptive algorithm, for comparison.
    let truth = Session::for_circuit(&circuit).spec(spec.clone()).config(cfg).solve()?.network;
    let order = truth.denominator.degree().expect("OTA has dynamics");
    println!("true denominator order: {order} (paper's OTA estimate: 9)");
    println!(
        "structural order bounds: D {}, N {} (of {} reactive elements)\n",
        truth.report.denominator.order_bound,
        truth.report.numerator.order_bound,
        circuit.reactive_count(),
    );

    // (a) unit-circle interpolation, no scaling — Table 1a.
    let a = UnitCircleSolver::new(cfg).interpolation(&circuit, &spec)?;
    println!("Table 1a — no scaling: coefficient magnitudes vs truth");
    println!("{:>4} {:>14} {:>14} {:>9}", "s^i", "interpolated", "true", "rel.err");
    for i in 0..=order {
        let got = a.denormalized(PolyKind::Denominator, i).expect("in range");
        let want = truth.denominator.coeffs()[i];
        let rel = ((got - want).norm() / want.norm()).to_f64();
        println!(
            "{:>4} {:>14.3} {:>14.3} {:>9.1e}{}",
            format!("s{i}"),
            got.re(),
            want.re(),
            rel,
            if rel > 1e-3 { "   <-- garbage" } else { "" },
        );
    }
    let (lo, hi) = a.denominator.region.expect("window exists");
    println!("--> only p{lo}..p{hi} survive round-off (paper: most of Table 1a is invalid)\n");

    // (b) frequency scale factor 1e9 — Table 1b.
    let b = StaticScalingSolver::with_scale(Scale::new(1e9, 1.0), cfg)
        .interpolation(&circuit, &spec)?;
    println!("Table 1b — frequency scale 1e9: the valid window widens");
    println!("{:>4} {:>16} {:>7} {:>9}", "s^i", "normalized", "valid", "rel.err");
    for i in 0..=order {
        let norm = b.denominator.normalized_at(i).expect("in range");
        let got = b.denormalized(PolyKind::Denominator, i).expect("in range");
        let want = truth.denominator.coeffs()[i];
        let rel = ((got - want).norm() / want.norm()).to_f64();
        println!(
            "{:>4} {:>16.4} {:>7} {:>9.1e}",
            format!("s{i}"),
            norm.re(),
            if b.denominator.is_valid(i) { "yes" } else { "no" },
            rel,
        );
    }
    let (lo, hi) = b.denominator.region.expect("window exists");
    println!("--> valid region p{lo}..p{hi}: one fixed scale still cannot cover everything;");
    println!("    the adaptive algorithm (see ua741_adaptive) closes the rest.");

    // The same comparison, one line per method, through the Solver trait.
    println!("\nas `&dyn Solver`s (unit-circle truncates; adaptive recovers all):");
    let solvers: [&dyn Solver; 3] = [
        &UnitCircleSolver::new(cfg),
        &StaticScalingSolver::with_scale(Scale::new(1e9, 1.0), cfg),
        &AdaptiveInterpolator::new(cfg),
    ];
    for solver in solvers {
        match solver.solve(&circuit, &spec) {
            Ok(s) => println!(
                "  {:>16}: degree {:?}, {} points",
                s.method,
                s.network.denominator.degree(),
                s.total_points()
            ),
            Err(e) => println!("  {:>16}: failed — {e}", solver.name()),
        }
    }
    Ok(())
}
