//! Reproduces the paper's **Tables 2–3**: the µA741 denominator recovered
//! by successive adaptively-scaled interpolations, with the eq. (17)
//! problem reduction shrinking each iteration.
//!
//! ```text
//! cargo run --release --example ua741_adaptive
//! ```

use refgen::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = library::ua741();
    let spec = TransferSpec::voltage_gain("VIN", "out");
    println!(
        "µA741-class opamp: {} elements, {} capacitors",
        circuit.elements().len(),
        circuit.capacitor_values().len()
    );

    // verify=false mirrors the paper's iteration structure exactly.
    let cfg = RefgenConfig::builder().verify(false).build();
    let (den, report) = Session::for_circuit(&circuit)
        .spec(spec.clone())
        .config(cfg)
        .solve_polynomial(PolyKind::Denominator)?;

    println!(
        "\ndenominator degree {} (structural order bound {}, of {} reactive elements); \
         {} interpolations, {} points total",
        den.degree().expect("non-trivial"),
        report.order_bound,
        circuit.reactive_count(),
        report.windows.len(),
        report.total_points,
    );
    println!("\nper-iteration structure (cf. paper Tables 2a, 2b, 3):");
    for (k, w) in report.windows.iter().enumerate() {
        println!(
            "  {}: f = {:.3e}  g = {:.3e}  {:>3} pts{}  region {:?}",
            k + 1,
            w.scale.f,
            w.scale.g,
            w.points,
            if w.reduced { " (reduced)" } else { "          " },
            w.region,
        );
    }

    println!("\ncoefficients span {} decades:", {
        let first = den.coeffs().first().expect("nonempty").norm().log10();
        let last = den.coeffs().last().expect("nonempty").norm().log10();
        (first - last).round() as i64
    });
    for (i, c) in den.coeffs().iter().enumerate() {
        if i % 4 == 0 || i + 1 == den.coeffs().len() {
            println!("  p{i:<3} = {:.5}", c.re());
        }
    }

    // The same run without reduction, to show the §3.3 saving.
    let (_, rep_nr) = Session::for_circuit(&circuit)
        .spec(spec)
        .config(RefgenConfig::builder().verify(false).reduce(false).build())
        .solve_polynomial(PolyKind::Denominator)?;
    println!(
        "\neq. (17) reduction: {} points vs {} without — the paper's \
         3.9s/2.3s/0.9s per-iteration CPU-time decrease",
        report.total_points, rep_nr.total_points
    );
    Ok(())
}
