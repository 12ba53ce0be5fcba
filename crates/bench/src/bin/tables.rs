//! Prints every table and figure of the paper in paper-like format.
//!
//! ```text
//! cargo run --release -p refgen-bench --bin tables
//! ```

use refgen_bench::{
    ablation_grid_vs_adaptive, ablation_threads, compare_solvers, fig2, solver_roster,
    standard_spec, table1, tables_2_3,
};
use refgen_core::{PolyKind, RefgenConfig};

fn main() {
    print_table1();
    print_tables_2_3();
    print_fig2();
    print_ablation();
    print_thread_scaling();
    print_solver_comparison();
}

fn print_table1() {
    let t = table1();
    println!("==============================================================");
    println!("Table 1a — OTA transfer-function coefficients, interpolation");
    println!("points on the unit circle (NO scaling): round-off failure");
    println!("==============================================================");
    println!("{:>4} {:>28} {:>28}", "s^i", "Numerator", "Denominator");
    let n = t.unscaled.denominator.normalized.len();
    for i in 0..n {
        let num = t.unscaled.denormalized(PolyKind::Numerator, i);
        let den = t.unscaled.denormalized(PolyKind::Denominator, i);
        println!(
            "{:>4} {:>28} {:>28}",
            format!("s{i}"),
            num.map(|c| format!("{c:.4}")).unwrap_or_default(),
            den.map(|c| format!("{c:.4}")).unwrap_or_default(),
        );
    }
    let (lo, hi) = t.unscaled.denominator.region.expect("window exists");
    println!("--> valid region without scaling: p{lo}..p{hi} only\n");

    println!("==============================================================");
    println!("Table 1b — OTA normalized coefficients, frequency scale 1e9");
    println!("(* marks coefficients above the error level = valid)");
    println!("==============================================================");
    println!("{:>4}  {:>30} {:>30}", "s^i", "Numerator (normalized)", "Denominator (normalized)");
    for i in 0..n {
        let num = t.scaled.numerator.normalized_at(i);
        let den = t.scaled.denominator.normalized_at(i);
        let nv = t.scaled.numerator.is_valid(i);
        let dv = t.scaled.denominator.is_valid(i);
        println!(
            "{:>4}  {:>29}{} {:>29}{}",
            format!("s{i}"),
            num.map(|c| format!("{c:.4}")).unwrap_or_default(),
            if nv { "*" } else { " " },
            den.map(|c| format!("{c:.4}")).unwrap_or_default(),
            if dv { "*" } else { " " },
        );
    }
    let (lo, hi) = t.scaled.denominator.region.expect("window exists");
    println!("--> valid denominator region with f = 1e9: p{lo}..p{hi}\n");
}

fn print_tables_2_3() {
    let e = tables_2_3();
    println!("==============================================================");
    println!("Tables 2–3 — µA741 denominator coefficients per adaptive");
    println!("interpolation (normalized and denormalized)");
    println!("==============================================================");
    println!(
        "structural order bound {} → effective degree {:?}; admittance degree M = {}",
        e.network.report.denominator.order_bound,
        e.network.denominator.degree(),
        e.network.report.admittance_degree,
    );
    for (k, it) in e.iterations.iter().enumerate() {
        println!(
            "\n-- interpolation {} : f = {:.4e}, g = {:.4e}, {} points{} --",
            k + 1,
            it.scale.f,
            it.scale.g,
            it.points,
            if it.reduced { " (reduced, eq. 17)" } else { "" },
        );
        match it.region {
            Some((lo, hi)) => {
                println!("   valid region: s^{lo} .. s^{hi}");
                println!("{:>5} {:>28} {:>28}", "s^i", "Normalized", "Denormalized");
                for &(i, norm, den) in &it.coefficients {
                    println!(
                        "{:>5} {:>28} {:>28}",
                        format!("s{i}"),
                        format!("{:.5}", norm.re()),
                        format!("{:.5}", den.re()),
                    );
                }
            }
            None => println!("   no valid region (stall probe)"),
        }
    }
    println!(
        "\ntotal interpolation points: {} with reduction, {} without (§3.3)",
        e.points_with_reduction, e.points_without_reduction
    );
    println!();
}

fn print_fig2() {
    let f = fig2(100);
    println!("==============================================================");
    println!("Fig. 2 — µA741 voltage-gain Bode: interpolated vs simulator");
    println!("==============================================================");
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>12}",
        "freq (Hz)", "mag_int(dB)", "mag_sim(dB)", "ph_int(deg)", "ph_sim(deg)"
    );
    for i in (0..f.interpolated.freqs_hz.len()).step_by(5) {
        println!(
            "{:>12.3e} {:>12.3} {:>12.3} {:>12.1} {:>12.1}",
            f.interpolated.freqs_hz[i],
            f.interpolated.mag_db[i],
            f.simulator.mag_db[i],
            f.interpolated.phase_deg[i],
            f.simulator.phase_deg[i],
        );
    }
    println!(
        "--> worst discrepancy: {:.3e} dB magnitude, {:.3e}° phase (\"perfect matching\")\n",
        f.max_mag_err_db, f.max_phase_err_deg
    );
}

fn print_ablation() {
    let pts = ablation_grid_vs_adaptive(&[8, 16, 24, 32, 40]);
    println!("==============================================================");
    println!("Ablation — adaptive (§3.2) vs multi-scale grid (§3.1), RC");
    println!("ladders, denominator recovery cost in interpolation points");
    println!("==============================================================");
    println!(
        "{:>6} {:>16} {:>16} {:>18} {:>12}",
        "order", "adaptive pts", "adaptive wins", "smallest full grid", "grid pts"
    );
    for p in pts {
        println!(
            "{:>6} {:>16} {:>16} {:>18} {:>12}",
            p.order,
            p.adaptive_points,
            p.adaptive_windows,
            p.grid_count.map(|c| c.to_string()).unwrap_or_else(|| "none ≤64".into()),
            p.grid_points.map(|c| c.to_string()).unwrap_or_else(|| "—".into()),
        );
    }
    println!();
}

fn print_thread_scaling() {
    let pts = ablation_threads(&[1, 2, 4, 0]);
    println!("==============================================================");
    println!("Thread scaling — µA741 denominator recovery on the batched");
    println!("plan/execute sampling engine (bit-identical output per row)");
    println!("==============================================================");
    println!(
        "{:>8} {:>12} {:>8} {:>14} {:>10}",
        "threads", "wall (ms)", "points", "refactor hits", "degree"
    );
    let base = pts[0].wall.as_secs_f64();
    for p in pts {
        let label = if p.threads == 0 { "auto".to_string() } else { p.threads.to_string() };
        println!(
            "{:>8} {:>12.2} {:>8} {:>14} {:>10}  ({:.2}x)",
            label,
            p.wall.as_secs_f64() * 1e3,
            p.total_points,
            p.refactor_hits,
            p.degree.map(|d| d.to_string()).unwrap_or_else(|| "zero".into()),
            base / p.wall.as_secs_f64(),
        );
    }
    println!();
}

fn print_solver_comparison() {
    println!("==============================================================");
    println!("Solver roster — every method on every benchmark circuit, via");
    println!("the common Solver trait (degree / points / pivot-order reuse");
    println!("/ typed failure)");
    println!("==============================================================");
    let spec = standard_spec();
    let roster = solver_roster(RefgenConfig::default());
    println!(
        "{:>14} {:>18} {:>10} {:>8} {:>8}  outcome",
        "circuit", "method", "degree", "points", "hits"
    );
    for (name, circuit) in [
        ("ladder12", refgen_circuit::library::rc_ladder(12, 1e3, 1e-9)),
        ("ota", refgen_circuit::library::positive_feedback_ota()),
        ("ua741", refgen_circuit::library::ua741()),
    ] {
        for o in compare_solvers(&circuit, &spec, &roster) {
            match &o.result {
                Ok(s) => println!(
                    "{:>14} {:>18} {:>10} {:>8} {:>8}  ok{}",
                    name,
                    o.method,
                    s.network
                        .denominator
                        .degree()
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "zero".into()),
                    s.total_points(),
                    s.refactor_hits(),
                    if s.warnings().next().is_some() { " (with warnings)" } else { "" },
                ),
                Err(e) => println!(
                    "{:>14} {:>18} {:>10} {:>8} {:>8}  failed: {e}",
                    name, o.method, "—", "—", "—"
                ),
            }
        }
    }
    println!();
}
