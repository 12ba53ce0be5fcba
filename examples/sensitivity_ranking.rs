//! Sensitivity ranking as a finite-difference batch session, cross-checked
//! against adjoint sensitivities.
//!
//! Which elements actually matter? Two independent answers:
//!
//! 1. **Finite differences on recovered coefficients** — one
//!    `BatchSession` solves ±1 % one-at-a-time variants of every
//!    perturbable OTA element (all same-topology, so the whole fleet
//!    shares one plan cache and worker pool) and ranks elements by the
//!    normalized DC-gain difference quotient `|Δ|H(0)|/H(0)| / (Δx/x)`.
//! 2. **Adjoint analysis** — two factorizations per frequency give
//!    `∂H/∂x` for every element at once; the worst-case normalized
//!    magnitude over the band is the classical ranking.
//!
//! The rankings agree at the top (and both correlate with what
//! `sbg_simplify` removes first); the finite-difference column is the one
//! that generalizes to *any* scalar metric of the recovered network
//! function.
//!
//! ```text
//! cargo run --release --example sensitivity_ranking
//! ```

use refgen::mna::MnaSystem;
use refgen::numeric::Complex;
use refgen::prelude::*;
use std::collections::HashMap;

const REL_STEP: f64 = 0.01;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = library::positive_feedback_ota();
    let spec = TransferSpec::voltage_gain("VIN", "out");

    // --- 1: finite differences through one batch session ---------------
    // Two variants (up/down) per perturbable element, in one fleet.
    let names: Vec<String> = circuit
        .elements()
        .iter()
        .filter(|el| scaled_variant(&circuit, &el.name, 1.0 + REL_STEP).is_ok())
        .map(|el| el.name.clone())
        .collect();
    let mut fleet = Vec::with_capacity(2 * names.len());
    for name in &names {
        fleet.push(scaled_variant(&circuit, name, 1.0 + REL_STEP)?);
        fleet.push(scaled_variant(&circuit, name, 1.0 - REL_STEP)?);
    }
    let run =
        Session::for_circuit(&circuit).spec(spec.clone()).variant_circuits(&fleet).solve_all()?;

    let mut fd: Vec<(String, f64)> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let up = run.solutions()[2 * i].network.dc_gain().abs();
            let down = run.solutions()[2 * i + 1].network.dc_gain().abs();
            let mid = 0.5 * (up + down);
            // Central difference of ln|H(0)| w.r.t. ln x.
            let s = (up - down) / (2.0 * REL_STEP * mid);
            (name.clone(), s.abs())
        })
        .collect();
    fd.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));

    // --- 2: adjoint worst-case over the band ----------------------------
    let sys = MnaSystem::new(&circuit)?;
    let mut worst: HashMap<String, f64> = HashMap::new();
    for f in log_space(1e3, 1e9, 25) {
        let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
        for item in sys.sensitivities(s, Scale::unit(), &spec)? {
            let mag = item.normalized.abs();
            let e = worst.entry(item.element).or_insert(0.0);
            if mag > *e {
                *e = mag;
            }
        }
    }
    let mut adjoint: Vec<(String, f64)> = worst.into_iter().collect();
    adjoint.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));

    println!(
        "OTA sensitivity ranking — finite-difference fleet ({} solves, {} pivot searches) \
         vs adjoint band worst-case:\n",
        run.report.variants, run.report.pivot_searches,
    );
    println!(
        "{:>4} {:>12} {:>14}   {:>12} {:>14}",
        "rank", "FD element", "|dln|H0|/dlnx|", "adjoint", "max |S|"
    );
    for i in 0..8.min(fd.len()) {
        println!(
            "{:>4} {:>12} {:>14.4e}   {:>12} {:>14.4e}",
            i + 1,
            fd[i].0,
            fd[i].1,
            adjoint[i].0,
            adjoint[i].1,
        );
    }
    println!("\n{:>12}   safest to simplify (finite-difference tail):", "");
    for (name, s) in fd.iter().rev().take(6).collect::<Vec<_>>().iter().rev() {
        println!("{name:>12} {s:>14.4e}");
    }
    println!(
        "\nCompare with `cargo run --example sbg_simplify`: SBG removes elements \
         from the bottom of this list."
    );
    Ok(())
}
