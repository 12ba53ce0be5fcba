//! Property tests for the pool contract: the persistent [`WorkerPool`]
//! and a plain sequential map must be indistinguishable for any pure map
//! function — for arbitrary item counts and worker counts, including more
//! workers than items and empty work lists — and a panicking map function
//! must propagate with its payload.

use proptest::prelude::*;
use refgen_exec::WorkerPool;

/// A deterministic map whose per-item result exercises the scratch without
/// depending on scheduling: the scratch is a reusable buffer, not carried
/// state.
fn mapper(i: usize, x: &f64, buf: &mut Vec<f64>) -> (usize, f64) {
    buf.clear();
    buf.extend((0..5).map(|k| x.powi(k) + k as f64));
    (i, buf.iter().sum::<f64>() * (i as f64 + 1.0))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn pool_equals_scoped_equals_sequential(
        items in prop::collection::vec(-4.0f64..4.0, 0..40),
        workers in 0usize..9,
    ) {
        let sequential: Vec<(usize, f64)> =
            items.iter().enumerate().map(|(i, x)| mapper(i, x, &mut Vec::new())).collect();
        let pool = WorkerPool::new(workers);
        let pooled = pool.par_map_indexed(&items, Vec::new, mapper);
        // f64 equality is intentional: the contract is bit-identity, not
        // approximate agreement.
        prop_assert_eq!(&pooled, &sequential);
    }

    #[test]
    fn one_pool_many_batches(
        batches in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 0..12), 1..6),
        workers in 1usize..5,
    ) {
        // A single pool reused across differently-sized batches (the batch
        // session shape) must match per-batch sequential maps.
        let pool = WorkerPool::new(workers);
        for items in &batches {
            let sequential: Vec<(usize, f64)> =
                items.iter().enumerate().map(|(i, x)| mapper(i, x, &mut Vec::new())).collect();
            let pooled = pool.par_map_indexed(items, Vec::new, mapper);
            prop_assert_eq!(pooled, sequential);
        }
    }
}

#[test]
#[should_panic(expected = "pool executor panic")]
fn pool_panics_propagate() {
    let pool = WorkerPool::new(4);
    let items: Vec<usize> = (0..32).collect();
    pool.par_map_indexed(
        &items,
        || (),
        |i, _, _| {
            if i == 9 {
                panic!("pool executor panic");
            }
        },
    );
}

#[test]
fn workers_exceeding_items_never_deadlock() {
    for items in [0usize, 1, 2, 3] {
        let list: Vec<usize> = (0..items).collect();
        for workers in [1usize, 2, 8, 64] {
            let pool = WorkerPool::new(workers);
            let out = pool.par_map_indexed(&list, || (), |i, &x, _| i + x);
            assert_eq!(out.len(), items, "items {items}, workers {workers}");
        }
    }
}
