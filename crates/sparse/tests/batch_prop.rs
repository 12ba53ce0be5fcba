//! Property tests for the batched kernel: driving N lanes
//! through one instruction-stream traversal must be **bit-identical** to N
//! independent one-lane replays — determinants, solution vectors, and
//! per-lane `Singular { step }` parity under injected zero pivots.

use proptest::prelude::*;
use refgen_numeric::Complex;
use refgen_sparse::{BatchScratch, FactorError, FactorProgram, ProgramScratch, SparseLu, Triplets};

/// Random sparse complex matrix with a guaranteed-nonzero diagonal band
/// (so most cases are regular) plus random off-diagonal fill.
fn random_matrix(dim: usize, seed: u64, density_pct: u64) -> Triplets {
    let mut t = Triplets::new(dim);
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(12345);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    for i in 0..dim {
        let re = ((next() >> 11) as f64) / ((1u64 << 53) as f64) + 0.5;
        let im = ((next() >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
        t.add(i, i, Complex::new(re * 4.0, im));
    }
    for r in 0..dim {
        for c in 0..dim {
            if r == c {
                continue;
            }
            if next() % 100 < density_pct {
                let re = ((next() >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
                let im = ((next() >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
                t.add(r, c, Complex::new(re, im));
            }
        }
    }
    t
}

/// Same-pattern value variant `k`: every raw entry perturbed
/// deterministically, like a Monte-Carlo fleet rebind.
fn variant(base: &Triplets, k: usize) -> Triplets {
    let mut t = Triplets::new(base.dim());
    for (i, &(r, c, v)) in base.entries().iter().enumerate() {
        let bump = 1.0 + ((k + 1) as f64) * ((i + 1) as f64) / (base.raw_len() as f64 + 3.0) / 7.0;
        t.add(r, c, v.scale(bump) + Complex::new(0.0, 0.01 * (k as f64) * bump));
    }
    t
}

fn bits(v: Complex) -> (u64, u64) {
    (v.re.to_bits(), v.im.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// `refactor_batch`/`solve_batch` over N lanes ≡ N independent
    /// `ProgramScratch` replays, bit for bit, at lane widths spanning the
    /// vectorized pairs and the odd scalar tail.
    #[test]
    fn batched_lanes_are_bit_identical_to_independent_replays(
        dim in 1usize..11,
        seed in 0u64..100_000,
        density in 20u64..75,
        lanes in 1usize..9,
    ) {
        let base = random_matrix(dim, seed, density);
        let lu = match SparseLu::factor(&base) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        let program = FactorProgram::for_triplets(&base, lu.order()).unwrap();
        let mats: Vec<Triplets> = (0..lanes).map(|k| variant(&base, k)).collect();

        let mut batch = BatchScratch::new();
        program.refactor_batch(
            mats.iter().map(|m| m.entries().iter().map(|&(_, _, v)| v)),
            &mut batch,
        );
        let b: Vec<Complex> =
            (0..dim).map(|i| Complex::new(1.0 + i as f64, 0.5 - i as f64)).collect();
        let mut brhs = Vec::with_capacity(dim * lanes);
        for &v in &b {
            for _ in 0..lanes {
                brhs.push(v);
            }
        }
        let mut bx = Vec::new();
        program.solve_batch(&mut batch, &brhs, &mut bx);

        let mut scratch = ProgramScratch::new();
        let mut x = Vec::new();
        for (lane, m) in mats.iter().enumerate() {
            match program.refactor(m, &mut scratch) {
                Ok(()) => {
                    prop_assert_eq!(batch.singular_step(lane), None, "lane {} lives", lane);
                    prop_assert_eq!(
                        format!("{:?}", batch.lane_det(lane).unwrap()),
                        format!("{:?}", scratch.det()),
                        "lane {} det bits (dim {}, seed {})", lane, dim, seed
                    );
                    program.solve_into(&mut scratch, &b, &mut x);
                    for (col, &want) in x.iter().enumerate() {
                        prop_assert_eq!(
                            bits(bx[col * lanes + lane]),
                            bits(want),
                            "lane {} col {} (dim {}, seed {})", lane, col, dim, seed
                        );
                    }
                }
                Err(FactorError::Singular { step }) => {
                    prop_assert_eq!(batch.singular_step(lane), Some(step));
                }
                Err(other) => prop_assert!(false, "unexpected one-lane error {:?}", other),
            }
        }
    }

    /// Injected zero pivots: one victim lane's pivot entries are zeroed so
    /// it dies mid-elimination; its recorded step must equal the one-lane
    /// `Singular { step }`, and every surviving lane must stay bit-identical
    /// to its independent replay.
    #[test]
    fn injected_zero_pivot_dies_alone_with_step_parity(
        dim in 2usize..10,
        seed in 0u64..100_000,
        lanes in 2usize..8,
        victim_lane in 0usize..8,
        victim_step in 0usize..10,
    ) {
        let base = random_matrix(dim, seed, 40);
        let lu = match SparseLu::factor(&base) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        let program = FactorProgram::for_triplets(&base, lu.order()).unwrap();
        let victim_lane = victim_lane % lanes;
        let step = victim_step % dim;
        let (pr, pc) = (lu.order().rows()[step], lu.order().cols()[step]);
        let mats: Vec<Triplets> = (0..lanes)
            .map(|k| {
                let v = variant(&base, k);
                if k != victim_lane {
                    return v;
                }
                // Zero every raw entry at the victim step's pivot position.
                let mut z = Triplets::new(dim);
                for &(r, c, val) in v.entries() {
                    z.add(r, c, if (r, c) == (pr, pc) { Complex::ZERO } else { val });
                }
                z
            })
            .collect();

        let mut batch = BatchScratch::new();
        program.refactor_batch(
            mats.iter().map(|m| m.entries().iter().map(|&(_, _, v)| v)),
            &mut batch,
        );
        let mut scratch = ProgramScratch::new();
        for (lane, m) in mats.iter().enumerate() {
            match program.refactor(m, &mut scratch) {
                Ok(()) => {
                    prop_assert_eq!(batch.singular_step(lane), None);
                    prop_assert_eq!(
                        format!("{:?}", batch.lane_det(lane).unwrap()),
                        format!("{:?}", scratch.det()),
                        "surviving lane {} (dim {}, seed {})", lane, dim, seed
                    );
                }
                Err(FactorError::Singular { step: want }) => {
                    prop_assert_eq!(
                        batch.singular_step(lane),
                        Some(want),
                        "lane {} step parity (dim {}, seed {})", lane, dim, seed
                    );
                    let det_err_matches = matches!(
                        batch.lane_det(lane),
                        Err(FactorError::Singular { step }) if step == want
                    );
                    prop_assert!(det_err_matches);
                }
                Err(other) => prop_assert!(false, "unexpected one-lane error {:?}", other),
            }
        }
    }
}
