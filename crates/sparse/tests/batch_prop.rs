//! Property tests for the batched entry point
//! ([`FactorProgram::eval_points`]): evaluating `K₀ + σ·K₁` at N points in
//! one pass over blocks of eight lanes must be **bit-identical** to N
//! independent one-lane replays and solves — determinants, solution
//! vectors, and per-lane `Singular { step }` parity under zero pivots
//! planted through `σ`.

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

fn bits(v: Complex) -> (u64, u64) {
    (v.re.to_bits(), v.im.to_bits())
}

/// A pseudo-random value in `[−1, 1)²` from `state`.
fn next_complex(state: &mut u64) -> Complex {
    let mut unit = || {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 52) as f64) - 1.0
    };
    Complex::new(unit(), unit())
}

/// `K₀` (the base matrix's values), a random `K₁` on the same pattern,
/// `lanes` random points `σ` and a right-hand side with exact zeros.
fn random_points(
    base: &Triplets,
    seed: u64,
    lanes: usize,
) -> (Vec<Complex>, Vec<Complex>, Vec<Complex>, Vec<Complex>) {
    let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
    let k0 = base.entries().iter().map(|&(_, _, v)| v).collect();
    let k1 = (0..base.raw_len()).map(|_| next_complex(&mut state)).collect();
    let sigmas = (0..lanes).map(|_| next_complex(&mut state).scale(3.0)).collect();
    let rhs = (0..base.dim())
        .map(|i| if i % 3 == 1 { Complex::ZERO } else { next_complex(&mut state) })
        .collect();
    (k0, k1, sigmas, rhs)
}

/// One lane's one-lane replay: `Ok((det, x))` or the dead step.
type OneLane = Result<(String, Vec<(u64, u64)>), usize>;

/// The one-lane `refactor_values` of `k0[e] + σ·k1[e]` and `solve_into`
/// of `rhs`.
fn one_lane(
    program: &FactorProgram,
    (k0, k1): (&[Complex], &[Complex]),
    s: Complex,
    rhs: &[Complex],
) -> OneLane {
    let mut scratch = ProgramScratch::new();
    match program.refactor_values(k0.iter().zip(k1).map(|(&a, &b)| a + s * b), &mut scratch) {
        Ok(()) => {
            let mut x = Vec::new();
            program.solve_into(&mut scratch, rhs, &mut x);
            Ok((format!("{:?}", scratch.det()), x.into_iter().map(bits).collect()))
        }
        Err(FactorError::Singular { step }) => Err(step),
        Err(other) => panic!("unexpected one-lane error {other:?}"),
    }
}

/// The batched pass over `sigmas` with `rhs` (and, on the second run,
/// without it) in `batch`, lane by lane in the shape of [`one_lane`].
fn batched(
    program: &FactorProgram,
    (k0, k1): (&[Complex], &[Complex]),
    sigmas: &[Complex],
    rhs: &[Complex],
    batch: &mut BatchScratch,
) -> Vec<OneLane> {
    let (n, lanes) = (program.dim(), sigmas.len());
    let mut x = Vec::new();
    program.eval_points(k0, k1, sigmas, None, batch);
    let dets: Vec<_> = (0..lanes).map(|lane| batch.lane_det(lane)).collect();
    program.eval_points(k0, k1, sigmas, Some((rhs, &mut x)), batch);
    (0..lanes)
        .map(|lane| {
            let det = batch.lane_det(lane);
            assert_eq!(format!("{det:?}"), format!("{:?}", dets[lane]), "lane {lane}");
            match det {
                Ok(d) => {
                    Ok((format!("{d:?}"), (0..n).map(|col| bits(x[col * lanes + lane])).collect()))
                }
                Err(FactorError::Singular { step }) => Err(step),
                Err(other) => panic!("unexpected batched error {other:?}"),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// `eval_points` over 1–33 lanes (several blocks and a padded tail)
    /// ≡ that many independent one-lane replays and solves, bit for bit,
    /// with the right-hand side and without. The scratch then serves a
    /// second program of another size and comes back to the first, which
    /// must give the same bits again.
    #[test]
    fn batched_lanes_are_bit_identical_to_independent_replays(
        dim in 1usize..11,
        seed in 0u64..100_000,
        density in 20u64..75,
        lanes in 1usize..34,
    ) {
        let base = random_matrix(dim, seed, density);
        let lu = match SparseLu::factor(&base) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        let program = FactorProgram::for_triplets(&base, lu.order()).unwrap();
        let (k0, k1, sigmas, rhs) = random_points(&base, seed, lanes);
        let want: Vec<OneLane> =
            sigmas.iter().map(|&s| one_lane(&program, (&k0, &k1), s, &rhs)).collect();
        let mut batch = BatchScratch::new();
        let got = batched(&program, (&k0, &k1), &sigmas, &rhs, &mut batch);
        prop_assert_eq!(&got, &want, "dim {}, seed {}, {} lanes", dim, seed, lanes);

        let other_base = random_matrix(dim + 3, seed + 1, density);
        let other = SparseLu::factor(&other_base)
            .map(|lu| FactorProgram::for_triplets(&other_base, lu.order()).unwrap());
        if let Some(other) = other.ok().filter(|other| other.slots() != program.slots()) {
            let (o0, o1, osig, orhs) = random_points(&other_base, seed + 1, lanes + 5);
            let other_want: Vec<OneLane> =
                osig.iter().map(|&s| one_lane(&other, (&o0, &o1), s, &orhs)).collect();
            let other_got = batched(&other, (&o0, &o1), &osig, &orhs, &mut batch);
            prop_assert_eq!(other_got, other_want, "second program, seed {}", seed);
        }
        let again = batched(&program, (&k0, &k1), &sigmas, &rhs, &mut batch);
        prop_assert_eq!(again, want, "back to the first program, seed {}", seed);
    }

    /// A zero pivot planted through `σ`: at the victim step's pivot entry
    /// `k0[e] = −σᵥ·k1[e]`, so the victim lane's raw entry there is exactly
    /// zero (a pivot of step 0 dies there; a later step's pivot may not).
    /// Every lane, victim or not, keeps its one-lane dead step or its
    /// determinant and solution bits.
    #[test]
    fn injected_zero_pivot_dies_alone_with_step_parity(
        dim in 2usize..10,
        seed in 0u64..100_000,
        lanes in 2usize..34,
        victim_lane in 0usize..33,
        victim_step in 0usize..10,
    ) {
        let base = random_matrix(dim, seed, 40);
        let lu = match SparseLu::factor(&base) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        let program = FactorProgram::for_triplets(&base, lu.order()).unwrap();
        let victim = victim_lane % lanes;
        let step = victim_step % dim;
        let pivot = (lu.order().rows()[step], lu.order().cols()[step]);
        let (mut k0, k1, sigmas, rhs) = random_points(&base, seed, lanes);
        for (e, &(r, c, _)) in base.entries().iter().enumerate() {
            if (r, c) == pivot {
                k0[e] = -(sigmas[victim] * k1[e]);
            }
        }
        let want: Vec<OneLane> =
            sigmas.iter().map(|&s| one_lane(&program, (&k0, &k1), s, &rhs)).collect();
        if step == 0 {
            prop_assert_eq!(&want[victim], &Err(0), "the victim's first pivot is zero");
        }
        let got = batched(&program, (&k0, &k1), &sigmas, &rhs, &mut BatchScratch::new());
        prop_assert_eq!(got, want, "dim {}, seed {}, victim {} at step {}", dim, seed, victim, step);
    }
}
