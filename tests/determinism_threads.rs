//! Determinism acceptance for the plan/execute sampling engine: every
//! solver, driven through `Session`, produces **bit-identical** output at
//! `threads = 1` and `threads = 4` — coefficients, diagnostics order, and
//! report fields. Batched sampling collects per-point results in index
//! order and each point is a pure function of the window plan, so the
//! thread count may only change wall-clock time, never a single bit of
//! the answer.
//!
//! The comparison goes through [`support::assert_same_outcome`], whose
//! lone sanctioned difference is the `threads` field of
//! `Diagnostic::SamplingBatched`. `tests/config_matrix.rs` crosses the
//! thread count with the other execution knobs.

mod support;

use refgen::prelude::*;

fn run(circuit: &Circuit, threads: usize) -> Vec<Result<Solution, RefgenError>> {
    let cfg = RefgenConfig::builder().threads(threads).build();
    let roster: [Box<dyn Solver>; 4] = [
        Box::new(AdaptiveInterpolator::new(cfg)),
        Box::new(UnitCircleSolver::new(cfg)),
        Box::new(StaticScalingSolver::heuristic(cfg)),
        Box::new(MultiScaleGridSolver::new(1e3, 1e15, 16, cfg)),
    ];
    roster
        .into_iter()
        .map(|solver| {
            Session::for_circuit(circuit)
                .spec(TransferSpec::voltage_gain("VIN", "out"))
                .solver(solver)
                .solve()
        })
        .collect()
}

fn assert_thread_invariant(name: &str, circuit: &Circuit) {
    let one = run(circuit, 1);
    let four = run(circuit, 4);
    assert_eq!(one.len(), four.len());
    for (i, (a, b)) in one.iter().zip(&four).enumerate() {
        let ctx = format!("{name}/solver {i}");
        support::assert_same_outcome(&ctx, a, b, false);
        // The engine's cheap path must carry real solves (pivot-order
        // reuse, not silent fallback).
        if let Ok(s) = a {
            assert!(s.refactor_hits() > 0, "{ctx}: no pivot-order reuse at threads = 1");
        }
    }
}

#[test]
fn rc_ladder_is_bit_identical_across_thread_counts() {
    assert_thread_invariant("ladder12", &library::rc_ladder(12, 1e3, 1e-9));
}

#[test]
fn ua741_is_bit_identical_across_thread_counts() {
    assert_thread_invariant("ua741", &library::ua741());
}
