//! Fig. 2 bench: evaluating the µA741 Bode diagram from interpolated
//! coefficients (cheap polynomial evaluation) versus the electrical
//! simulator (one sparse LU per frequency) — the payoff of having the
//! coefficients at all, which is what makes references usable inside
//! SBG/SDG inner loops.

use criterion::{criterion_group, criterion_main, Criterion};
use refgen_bench::standard_spec;
use refgen_circuit::library::ua741;
use refgen_core::{RefgenConfig, Session};
use refgen_mna::{log_space, AcAnalysis};
use std::hint::black_box;

fn bench_fig2(c: &mut Criterion) {
    let circuit = ua741();
    let spec = standard_spec();
    let nf = Session::for_circuit(&circuit)
        .spec(spec.clone())
        .solve()
        .expect("µA741 interpolates")
        .network;
    let ac = AcAnalysis::new(&circuit, spec).expect("valid circuit");
    let freqs = log_space(1.0, 1e8, 400);

    let mut group = c.benchmark_group("fig2_bode_400pts");
    group.bench_function("interpolated_polynomials", |b| {
        b.iter(|| black_box(nf.bode(black_box(&freqs))))
    });
    group.sample_size(20);
    group.bench_function("electrical_simulator", |b| {
        b.iter(|| black_box(ac.sweep(black_box(&freqs)).expect("sweeps")))
    });
    let lanes = RefgenConfig::default().lane_width;
    group.bench_function("electrical_simulator_reused_pivots", |b| {
        b.iter(|| black_box(ac.sweep_fast(black_box(&freqs), lanes).expect("sweeps")))
    });
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
