//! Fleet bench: naive per-variant solving vs. the batch-session engine.
//!
//! The workload is the Monte-Carlo shape (a seeded fleet of ±5 %
//! same-topology variants), measured two ways per circuit:
//!
//! * **naive** — one independent `Session` per variant: every variant
//!   builds its own runtime and pays its own probe pivot searches.
//! * **batched** — one `BatchSession` over a persistent worker pool with
//!   a shared plan cache: threads spawn once per fleet, pivot searches
//!   stay at the single-solve count regardless of fleet size. Measured
//!   twice: with lane width forced to 1 (per-point sampling) and at the
//!   default lane width (lane-batched instruction-stream replay), so the
//!   lane-amortization contribution is visible on its own.
//!
//! The gap isolates exactly the two amortizations this PR adds. Both
//! paths assert the recovered denominator degree, so a silently broken
//! engine cannot post a fast time. Every config here runs at one thread,
//! so the gap is the pivot-search and lane amortization alone, which are
//! hardware-independent.

use criterion::{criterion_group, criterion_main, Criterion};
use refgen_bench::{fleet_batched, fleet_naive, fleet_variants, standard_spec};
use refgen_circuit::library::{rc_ladder, ua741};
use refgen_circuit::Circuit;
use refgen_core::RefgenConfig;
use std::hint::black_box;

fn bench_circuit(c: &mut Criterion, label: &str, base: &Circuit, fleet_size: usize, degree: usize) {
    let spec = standard_spec();
    let naive_cfg = RefgenConfig::builder().verify(false).build();
    // Lane width 1 forces per-point sampling inside every variant; the
    // default-width config batches `lane_width` unit-circle points per
    // instruction-stream replay. Results are bit-identical — the gap is
    // the lane-amortization (and AVX) contribution alone.
    let scalar_cfg = RefgenConfig::builder().verify(false).lane_width(1).build();
    let pool_cfg = RefgenConfig::builder().verify(false).build();
    let variants = fleet_variants(base, fleet_size, 4242);
    let mut group = c.benchmark_group(format!("fleet_{label}_{fleet_size}v"));
    group.sample_size(10);
    group.bench_function("naive_per_variant", |b| {
        b.iter(|| {
            let solutions = fleet_naive(black_box(&variants), &spec, naive_cfg);
            assert!(solutions.iter().all(|s| s.network.denominator.degree() == Some(degree)));
            solutions.len()
        })
    });
    group.bench_function("batched_pool_scalar_lanes", |b| {
        b.iter(|| {
            let run = fleet_batched(black_box(base), black_box(&variants), &spec, scalar_cfg);
            assert!(run.solutions().iter().all(|s| s.network.denominator.degree() == Some(degree)));
            run.report.pivot_searches
        })
    });
    group.bench_function("batched_pool_plan_reuse", |b| {
        b.iter(|| {
            let run = fleet_batched(black_box(base), black_box(&variants), &spec, pool_cfg);
            assert!(run.solutions().iter().all(|s| s.network.denominator.degree() == Some(degree)));
            run.report.pivot_searches
        })
    });
    group.finish();
}

fn bench_ladder_fleet(c: &mut Criterion) {
    bench_circuit(c, "ladder16", &rc_ladder(16, 1e3, 1e-9), 24, 16);
}

fn bench_ua741_fleet(c: &mut Criterion) {
    bench_circuit(c, "ua741", &ua741(), 8, 39);
}

criterion_group!(benches, bench_ladder_fleet, bench_ua741_fleet);
criterion_main!(benches);
