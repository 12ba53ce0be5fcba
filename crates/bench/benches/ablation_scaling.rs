//! Ablation benches for the reproduction's design choices:
//!
//! * adaptive scale selection vs. the naive multi-scale grid;
//! * eq. (17) problem reduction on/off;
//! * window cross-verification on/off (our addition, not in the paper);
//! * scaling of recovery cost with circuit order.
//!
//! Every configuration is just a differently-built solver driven through
//! the one generic denominator-recovery closure — the `Solver` seam is
//! what lets a config ablation and a method ablation share a loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use refgen_bench::{paper_config, standard_spec};
use refgen_circuit::library::rc_ladder;
use refgen_circuit::Circuit;
use refgen_core::baseline::MultiScaleGridSolver;
use refgen_core::{AdaptiveInterpolator, PolyKind, RefgenConfig, Session, Solver};
use std::hint::black_box;

/// One denominator recovery through the `Solver` seam.
fn recover_denominator(solver: &dyn Solver, circuit: &Circuit) -> usize {
    let spec = standard_spec();
    Session::for_circuit(black_box(circuit))
        .spec(spec)
        .solver(solver)
        .solve_polynomial(PolyKind::Denominator)
        .expect("recovers")
        .1
        .total_points
}

fn bench_adaptive_vs_grid(c: &mut Criterion) {
    let circuit = rc_ladder(20, 1e3, 1e-9);
    let cfg = paper_config();
    let solvers: Vec<(&str, Box<dyn Solver>)> = vec![
        ("adaptive", Box::new(AdaptiveInterpolator::new(cfg))),
        ("grid16", Box::new(MultiScaleGridSolver::new(1e3, 1e15, 16, cfg))),
    ];
    let mut group = c.benchmark_group("ablation_adaptive_vs_grid_ladder20");
    group.sample_size(20);
    for (name, solver) in &solvers {
        group
            .bench_function(*name, |b| b.iter(|| black_box(recover_denominator(solver, &circuit))));
    }
    group.finish();
}

fn bench_config_ablations(c: &mut Criterion) {
    let circuit = rc_ladder(24, 1e3, 1e-9);
    let mut group = c.benchmark_group("ablation_config_ladder24");
    group.sample_size(20);
    for (name, cfg) in [
        ("baseline", paper_config()),
        ("no_reduction", RefgenConfig::builder().verify(false).reduce(false).build()),
        ("verified", RefgenConfig::default()),
        ("tuning_r2", RefgenConfig::builder().verify(false).tuning_r(2.0).build()),
    ] {
        let solver = AdaptiveInterpolator::new(cfg);
        group
            .bench_function(name, |b| b.iter(|| black_box(recover_denominator(&solver, &circuit))));
    }
    group.finish();
}

fn bench_order_scaling(c: &mut Criterion) {
    let solver = AdaptiveInterpolator::new(paper_config());
    let mut group = c.benchmark_group("ablation_order_scaling");
    group.sample_size(10);
    for n in [8usize, 16, 32, 48] {
        let circuit = rc_ladder(n, 1e3, 1e-9);
        group.bench_with_input(BenchmarkId::from_parameter(n), &circuit, |b, circuit| {
            b.iter(|| black_box(recover_denominator(&solver, circuit)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_adaptive_vs_grid, bench_config_ablations, bench_order_scaling);
criterion_main!(benches);
