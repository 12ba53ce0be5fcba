//! [`FactorProgram::compile`] as it was before it ran on a reusable
//! workspace — a global sort to group positions, one `Vec` per row and
//! column list, binary-search-and-insert for fill — kept verbatim as the
//! identity reference. The tier below holds the workspace compile to it
//! field by field, slot numbering included, with the cases run back to
//! back on one thread.

use super::{FactorProgram, LEntry, Op};
use crate::lu::{FactorError, PivotOrder};
use crate::ordering::minimum_degree;
use crate::{SparseLu, Triplets};
use proptest::prelude::*;
use refgen_numeric::Complex;

fn compile_reference(
    dim: usize,
    positions: &[(usize, usize)],
    order: &PivotOrder,
) -> Result<FactorProgram, FactorError> {
    if order.dim() != dim {
        return Err(FactorError::OrderMismatch { expected: order.dim(), actual: dim });
    }
    for &(r, c) in positions {
        assert!(r < dim && c < dim, "position ({r},{c}) out of range for dim {dim}");
    }
    let slot_count = |n: usize| u32::try_from(n).expect("pattern exceeds u32 slots");
    // Group raw entries by position, each group led by the position's
    // first occurrence; leaders take slots in input order.
    let mut by_position: Vec<usize> = (0..positions.len()).collect();
    by_position.sort_unstable_by_key(|&i| (positions[i], i));
    let same_position = |&a: &usize, &b: &usize| positions[a] == positions[b];
    let mut leader = vec![0; positions.len()];
    for group in by_position.chunk_by(same_position) {
        for &i in group {
            leader[i] = group[0];
        }
    }
    let mut scatter: Vec<u32> = Vec::with_capacity(positions.len());
    let mut slots = 0usize;
    for (i, &l) in leader.iter().enumerate() {
        let slot = if l == i {
            slots += 1;
            slot_count(slots - 1)
        } else {
            scatter[l]
        };
        scatter.push(slot);
    }
    // Per-row `(col, slot)` lists sorted by column: the symbolic
    // elimination's working pattern, with each entry's slot beside it.
    let mut rows: Vec<Vec<(usize, u32)>> = vec![Vec::new(); dim];
    for group in by_position.chunk_by(same_position) {
        let (r, c) = positions[group[0]];
        rows[r].push((c, scatter[group[0]]));
    }
    let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); dim];
    for (r, row) in rows.iter().enumerate() {
        for &(c, _) in row {
            col_rows[c].push(r);
        }
    }
    let initial_nnz = slots;
    let mut row_active = vec![true; dim];

    let mut pivot_slots = Vec::with_capacity(dim);
    let mut pivot_rows = Vec::with_capacity(dim);
    let mut pivot_cols = Vec::with_capacity(dim);
    let mut lranges = Vec::with_capacity(dim);
    let mut lents: Vec<LEntry> = Vec::new();
    let mut ops: Vec<Op> = Vec::new();
    let mut uranges = Vec::with_capacity(dim);
    let mut uents: Vec<(u32, u32)> = Vec::new();

    // Symbolic elimination: the structure of the prescribed-order
    // elimination in `SparseLu::refactor`, on positions instead of
    // values.
    for step in 0..dim {
        let pr = order.rows()[step];
        let pc = order.cols()[step];
        let Ok(ppos) = rows[pr].binary_search_by_key(&pc, |&(c, _)| c) else {
            return Err(FactorError::Singular { step });
        };
        row_active[pr] = false;
        pivot_slots.push(rows[pr][ppos].1);
        pivot_rows.push(pr as u32);
        pivot_cols.push(pc as u32);

        // rows[pr] is final at its own pivot step (updates only reach
        // rows that are still active): record the pivot-free U row.
        let ustart = uents.len() as u32;
        for &(c, slot) in &rows[pr] {
            if c != pc {
                uents.push((c as u32, slot));
            }
        }
        uranges.push((ustart, uents.len() as u32));

        let lstart = lents.len() as u32;
        let prow = std::mem::take(&mut rows[pr]);
        let targets = std::mem::take(&mut col_rows[pc]);
        for &r2 in &targets {
            if !row_active[r2] {
                continue;
            }
            let Ok(pos) = rows[r2].binary_search_by_key(&pc, |&(c, _)| c) else {
                continue;
            };
            // The eliminated entry leaves U's pattern (its slot stays,
            // holding the multiplier — the entry of L this step makes).
            let lslot = rows[r2].remove(pos).1;
            let ops_start = ops.len() as u32;
            for &(c, src) in &prow {
                if c == pc {
                    continue;
                }
                let dest = match rows[r2].binary_search_by_key(&c, |&(cc, _)| cc) {
                    Ok(at) => rows[r2][at].1,
                    Err(ins) => {
                        // Fill-in: a brand-new slot, discovered once at
                        // compile time instead of at every point.
                        let slot = slot_count(slots);
                        slots += 1;
                        rows[r2].insert(ins, (c, slot));
                        col_rows[c].push(r2);
                        slot
                    }
                };
                ops.push(Op { dest, src });
            }
            lents.push(LEntry {
                row: r2 as u32,
                slot: lslot,
                ops_start,
                ops_end: ops.len() as u32,
            });
        }
        rows[pr] = prow;
        col_rows[pc] = targets;
        lranges.push((lstart, lents.len() as u32));
    }

    Ok(FactorProgram {
        n: dim,
        slots,
        positions: positions.iter().map(|&(r, c)| (r as u32, c as u32)).collect(),
        scatter,
        pivot_slots,
        pivot_rows,
        pivot_cols,
        lranges,
        lents,
        ops,
        uranges,
        uents,
        fill_in: slots - initial_nnz,
        sign: order.sign(),
    })
}

/// Every field of two programs, equal — `Err` when one differs.
fn assert_same_program(got: &FactorProgram, want: &FactorProgram) -> Result<(), TestCaseError> {
    let lents = |p: &FactorProgram| -> Vec<_> {
        p.lents
            .iter()
            .map(|&LEntry { row, slot, ops_start, ops_end }| (row, slot, ops_start, ops_end))
            .collect()
    };
    let ops = |p: &FactorProgram| -> Vec<_> {
        p.ops.iter().map(|&Op { dest, src }| (dest, src)).collect()
    };
    prop_assert_eq!(got.n, want.n);
    prop_assert_eq!(got.slots, want.slots);
    prop_assert_eq!(&got.positions, &want.positions);
    prop_assert_eq!(&got.scatter, &want.scatter);
    prop_assert_eq!(&got.pivot_slots, &want.pivot_slots);
    prop_assert_eq!(&got.pivot_rows, &want.pivot_rows);
    prop_assert_eq!(&got.pivot_cols, &want.pivot_cols);
    prop_assert_eq!(&got.lranges, &want.lranges);
    prop_assert_eq!(lents(got), lents(want));
    prop_assert_eq!(ops(got), ops(want));
    prop_assert_eq!(&got.uranges, &want.uranges);
    prop_assert_eq!(&got.uents, &want.uents);
    prop_assert_eq!(got.fill_in, want.fill_in);
    prop_assert_eq!(got.sign.to_bits(), want.sign.to_bits());
    Ok(())
}

fn assert_same_compile(
    dim: usize,
    positions: &[(usize, usize)],
    order: &PivotOrder,
) -> Result<(), TestCaseError> {
    match (FactorProgram::compile(dim, positions, order), compile_reference(dim, positions, order))
    {
        (Ok(got), Ok(want)) => assert_same_program(&got, &want)?,
        (Err(got), Err(want)) => prop_assert_eq!(got, want),
        (got, want) => prop_assert!(
            false,
            "outcomes diverge: {:?} vs {:?}",
            got.map(|p| p.slots),
            want.map(|p| p.slots)
        ),
    }
    Ok(())
}

/// Random raw positions in random input order, each drawn position
/// repeated up to twice more (duplicates accumulate into one slot).
fn random_positions(dim: usize, seed: u64, density_pct: u64) -> Vec<(usize, usize)> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(99);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut positions = Vec::new();
    for r in 0..dim {
        for c in 0..dim {
            if next() % 100 < density_pct || (r == c && next() % 4 != 0) {
                for _ in 0..=next() % 3 {
                    positions.push((r, c));
                }
            }
        }
    }
    for i in (1..positions.len()).rev() {
        positions.swap(i, next() as usize % (i + 1));
    }
    positions
}

/// A pseudo-random permutation of `0..n` (Fisher–Yates on `seed`).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        perm.swap(i, (state >> 33) as usize % (i + 1));
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 384, ..ProptestConfig::default() })]

    /// Each case compiles several patterns back to back on this thread —
    /// dimensions growing and shrinking — under the Markowitz probe order
    /// of the pattern at made-up values, the AMD order, a random diagonal
    /// order (often structurally singular) and an order of the wrong
    /// dimension.
    #[test]
    fn workspace_compile_matches_parent_reference(
        dims in prop::collection::vec(0usize..28, 2..6),
        seed in 0u64..1_000_000,
        density in 3u64..60,
    ) {
        for (k, &dim) in dims.iter().enumerate() {
            let seed = seed.wrapping_add(7919 * k as u64);
            let positions = random_positions(dim, seed, density);
            let mut t = Triplets::new(dim);
            for (i, &(r, c)) in positions.iter().enumerate() {
                t.add(r, c, Complex::new(1.0 + (i % 7) as f64, (i % 3) as f64 - 1.0));
            }
            let mut orders = vec![
                minimum_degree(dim, &positions),
                PivotOrder::diagonal(permutation(dim, seed)),
                PivotOrder::diagonal(permutation(dim + 1, seed)),
            ];
            if let Ok(lu) = SparseLu::factor(&t) {
                orders.push(lu.order().clone());
            }
            for order in &orders {
                assert_same_compile(dim, &positions, order)?;
            }
        }
    }
}
