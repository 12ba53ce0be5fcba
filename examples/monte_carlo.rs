//! Monte-Carlo tolerance analysis as a batch session.
//!
//! One `BatchSession` solves a fleet of process corners of the Miller
//! opamp — every R/G/C/gm value under a uniform relative tolerance — on a
//! persistent worker pool with one compiled plan cache: threads spawn
//! once for the whole fleet and the pivot search that normally starts
//! every window plan happens once per *topology*, on the base circuit,
//! and every window whose plan cell passes the growth gate replays that
//! order, in every corner. The aggregate `BatchReport` delivers per-coefficient
//! mean/σ directly; the per-corner `Solution`s still carry full network
//! functions, so derived metrics (DC gain, GBW, phase margin) come from
//! the same run.
//!
//! ```text
//! cargo run --release --example monte_carlo
//! ```

use refgen::prelude::*;

/// Unity-gain crossover by bisection on |H|.
fn gbw_hz(nf: &NetworkFunction) -> f64 {
    let (mut lo, mut hi): (f64, f64) = (1e3, 1e10);
    for _ in 0..60 {
        let mid = (lo * hi).sqrt();
        if nf.response_at_hz(mid).abs() > 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo * hi).sqrt()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = library::miller_two_stage_opamp(2e-12, 5e-12);
    let corners = 100;
    // ±8.6 % uniform ≈ the σ = 5 % log-normal spread of the old per-corner
    // loop, now expressed as a tolerance recipe on element classes.
    let tolerances = Perturbation::all_relative(0.086);

    let mut progress = |d: &Diagnostic| {
        if let Diagnostic::VariantSolved { variant, refactor_hits, .. } = d {
            if (variant + 1) % 25 == 0 {
                eprintln!(
                    "  corner {:>3} solved ({refactor_hits} pivot-order reuses)",
                    variant + 1
                );
            }
        }
    };
    let run = Session::for_circuit(&base)
        .spec(TransferSpec::voltage_gain("VIN", "out"))
        .observer(&mut progress)
        .variants(VariantSet::new(tolerances, corners).seed(20260612))
        .solve_all()?;

    // Derived metrics per corner, straight from the batch's solutions.
    let mut dc = Vec::with_capacity(corners);
    let mut gbw = Vec::with_capacity(corners);
    let mut pm = Vec::with_capacity(corners);
    for s in run.solutions() {
        let nf = &s.network;
        dc.push(20.0 * nf.dc_gain().abs().log10());
        let f_u = gbw_hz(nf);
        gbw.push(f_u);
        // Phase margin: 180° minus the lag accumulated from DC to the
        // unity-gain crossover (the DC reference removes the inverting
        // stage's 180° offset).
        let lag = (nf.response_at_hz(f_u) / nf.dc_gain()).arg().to_degrees();
        pm.push(180.0 - lag.abs());
    }

    let stats = |v: &[f64]| {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
        let mut sorted = v.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        (mean, var.sqrt(), sorted[0], sorted[v.len() - 1])
    };
    println!("Miller opamp, {corners} Monte-Carlo corners (±8.6 % uniform on all values):\n");
    for (name, v, unit) in
        [("DC gain", &dc, "dB"), ("GBW", &gbw, "Hz"), ("phase margin", &pm, "deg")]
    {
        let (mean, std, min, max) = stats(v);
        println!(
            "{name:>13}: mean {mean:>12.4e} {unit:<4} σ {std:>10.3e}  range [{min:.4e}, {max:.4e}]"
        );
    }

    // Coefficient-level spread comes from the batch report for free.
    println!("\nDenominator coefficient spread (first five, relative σ):");
    for (i, c) in run.report.denominator.iter().take(5).enumerate() {
        let rel = if c.mean.is_zero() { 0.0 } else { (c.std_dev() / c.mean.abs()).to_f64() };
        println!("  p{i}: mean {:>12.4}   σ/|mean| {rel:.3}", c.mean);
    }
    println!(
        "\nFleet cost: {} corners, {} pivot searches total ({} plan reuses), \
         {} pivot-order replays.",
        run.report.variants,
        run.report.pivot_searches,
        run.report.shared_plan_hits,
        run.report.total_refactor_hits,
    );
    println!(
        "Each corner is a full coefficient recovery — an analog opamp \
         characterized across process spread without a single SPICE sweep."
    );
    Ok(())
}
