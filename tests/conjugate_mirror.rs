//! Conjugate-pair sampling acceptance: solving only the closed upper half
//! of every window's σ set and mirroring the rest (`conjugate_mirror =
//! true`, the default) produces **bit-identical** solutions to the full
//! sweep (`conjugate_mirror = false`) — coefficients, regions, window
//! trails, and diagnostics, across thread counts, for all four solvers.
//!
//! The sanctioned differences are exactly the sampling-cost fields, as
//! [`support::assert_same_solution`] documents: mirrored points cost no
//! solve, so each full-sweep batch mirrors nothing and solves every point
//! the mirrored run solved or mirrored.

mod support;

use refgen::prelude::*;

fn run(circuit: &Circuit, threads: usize, mirror: bool) -> Vec<Result<Solution, RefgenError>> {
    let cfg = RefgenConfig::builder().threads(threads).conjugate_mirror(mirror).build();
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

fn assert_mirror_invariant(name: &str, circuit: &Circuit) {
    for threads in [1usize, 4] {
        let on = run(circuit, threads, true);
        let off = run(circuit, threads, false);
        assert_eq!(on.len(), off.len());
        let mut mirrored_somewhere = 0u64;
        for (i, (a, b)) in on.iter().zip(&off).enumerate() {
            let ctx = format!("{name}/solver {i}/t{threads}");
            // Typed failures must be identical too (unit-circle on
            // the µA741 legitimately cannot cover the range).
            support::assert_same_outcome(&ctx, a, b, true);
            if let Ok(s) = a {
                mirrored_somewhere += s
                    .diagnostics()
                    .filter_map(|d| match d {
                        Diagnostic::SamplingBatched { mirrored, .. } => Some(*mirrored),
                        _ => None,
                    })
                    .sum::<u64>();
            }
        }
        assert!(
            mirrored_somewhere > 0,
            "{name}/t{threads}: mirroring never engaged — \
             the halving being tested is not happening"
        );
    }
}

#[test]
fn rc_ladder_mirroring_is_bit_identical() {
    assert_mirror_invariant("ladder10", &library::rc_ladder(10, 1e3, 1e-9));
}

#[test]
fn ua741_mirroring_is_bit_identical() {
    assert_mirror_invariant("ua741", &library::ua741());
}
