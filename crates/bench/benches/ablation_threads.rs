//! Thread-scaling ablation for the plan/execute sampling engine.
//!
//! Two granularities, both on the µA741-class circuit (the paper's
//! Tables 2–3 workload):
//!
//! * **window sampling** — the 41-point determinant batch of the first
//!   adaptive iteration, unplanned (a Markowitz factorization per point,
//!   the pre-refactor cost) vs. planned (pivot-order replay) at 1/2/4/auto
//!   threads. This isolates two claims: pivot reuse makes the
//!   single-threaded path faster, and the worker pool scales it. The pool
//!   is built outside the timed loop, as a solve builds it once for all
//!   its windows.
//! * **full recovery** — the complete denominator recovery through
//!   `Session`, sweeping `RefgenConfig::threads`. Every run asserts
//!   `refactor_hits > 0` (the cheap path is actually active) and the
//!   recovered degree, so a silently broken engine cannot post a fast time.
//!
//! Interpreting the numbers: the planned-vs-unplanned gap is pure
//! pivot-order reuse (~an order of magnitude on the µA741). The
//! `planned_N` rows additionally need N hardware cores to separate — on a
//! single-CPU box (`std::thread::available_parallelism() == 1`, common in
//! build containers) they can only measure the pool's per-batch dispatch
//! overhead (one channel send per worker), not a speedup.

use criterion::{criterion_group, criterion_main, Criterion};
use refgen_bench::{standard_spec, ua741_sampling_cost, ua741_sampling_cost_planned, ua741_system};
use refgen_circuit::library::ua741;
use refgen_core::{PolyKind, RefgenConfig, Session};
use refgen_exec::WorkerPool;
use refgen_mna::Scale;
use std::hint::black_box;

fn bench_window_sampling(c: &mut Criterion) {
    let sys = ua741_system();
    let scale = Scale::new(1e9, 1e3);
    let points = 41; // the first µA741 iteration's K
    let mut group = c.benchmark_group("ablation_threads_window41");
    group.sample_size(20);
    group.bench_function("unplanned", |b| {
        b.iter(|| black_box(ua741_sampling_cost(&sys, scale, points)))
    });
    for threads in [1usize, 2, 4, 0] {
        let label = if threads == 0 { "planned_auto".into() } else { format!("planned_{threads}") };
        let pool = WorkerPool::new(threads);
        group.bench_function(label, |b| {
            b.iter(|| black_box(ua741_sampling_cost_planned(&sys, scale, points, &pool)))
        });
    }
    group.finish();
}

fn bench_full_recovery(c: &mut Criterion) {
    let circuit = ua741();
    let spec = standard_spec();
    let mut group = c.benchmark_group("ablation_threads_full_recovery");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 0] {
        let cfg = RefgenConfig::builder().verify(false).threads(threads).build();
        let label = if threads == 0 { "auto".into() } else { format!("{threads}") };
        group.bench_function(label, |b| {
            b.iter(|| {
                let (poly, report) = Session::for_circuit(black_box(&circuit))
                    .spec(spec.clone())
                    .config(cfg)
                    .solve_polynomial(PolyKind::Denominator)
                    .expect("recovers");
                assert!(report.refactor_hits > 0, "pivot-order reuse must be active");
                black_box(poly.degree())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_window_sampling, bench_full_recovery);
criterion_main!(benches);
