//! Property-based tests: sparse LU against the dense oracle on random
//! matrices, and the compiled symbolic kernel against both replay paths.

use proptest::prelude::*;
use refgen_numeric::{Complex, ExtComplex, ExtProduct};
use refgen_sparse::{FactorError, FactorProgram, ProgramScratch, SparseLu, Triplets};
use std::collections::{BTreeMap, BTreeSet};

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

/// A full-scan reference Markowitz factorization: at every step it
/// rescans every entry of every active row of a `BTreeMap` matrix and
/// recounts each candidate's column. The selection rule is the contract
/// `SparseLu::factor` must reproduce exactly: minimum `(r_nnz−1)(c_nnz−1)`
/// (`r_nnz` counts nonzero values, `c_nnz` stored entries, zeros
/// included) among entries with `|a| ≥ u·max|row|` and `|a| ≠ 0`, then a
/// strictly larger `|a|`, then the first in row-major scan order.
struct ReferenceLu {
    rows: Vec<usize>,
    cols: Vec<usize>,
    lcols: Vec<Vec<(usize, Complex)>>,
    urows: Vec<Vec<(usize, Complex)>>,
    pivots: Vec<Complex>,
    det: ExtComplex,
    fill_in: usize,
}

fn permutation_sign(perm: &[usize]) -> f64 {
    let mut seen = vec![false; perm.len()];
    let mut sign = 1.0;
    for start in 0..perm.len() {
        let mut len = 0;
        let mut i = start;
        while !seen[i] {
            seen[i] = true;
            i = perm[i];
            len += 1;
        }
        if len > 0 && len % 2 == 0 {
            sign = -sign;
        }
    }
    sign
}

fn reference_factor(a: &Triplets, u: f64) -> Result<ReferenceLu, FactorError> {
    let n = a.dim();
    let mut rows: Vec<BTreeMap<usize, Complex>> = vec![BTreeMap::new(); n];
    for &(r, c, v) in a.entries() {
        *rows[r].entry(c).or_insert(Complex::ZERO) += v;
    }
    let mut col_rows: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for (r, row) in rows.iter().enumerate() {
        for &c in row.keys() {
            col_rows[c].insert(r);
        }
    }
    let mut row_active = vec![true; n];
    let initial_nnz: usize = rows.iter().map(|r| r.len()).sum();
    let mut out = ReferenceLu {
        rows: Vec::new(),
        cols: Vec::new(),
        lcols: Vec::new(),
        urows: Vec::new(),
        pivots: Vec::new(),
        det: ExtComplex::ONE,
        fill_in: 0,
    };
    let mut det_mag = ExtProduct::ONE;
    for step in 0..n {
        let mut best: Option<(usize, usize, usize, f64)> = None;
        for (r, row) in rows.iter().enumerate() {
            if !row_active[r] || row.is_empty() {
                continue;
            }
            let row_max = row.values().map(|v| v.abs()).fold(0.0, f64::max);
            if row_max == 0.0 {
                continue;
            }
            let r_nnz = row.values().filter(|v| **v != Complex::ZERO).count();
            for (&c, &v) in row {
                let mag = v.abs();
                if mag < u * row_max || mag == 0.0 {
                    continue;
                }
                let c_nnz = col_rows[c].iter().filter(|&&rr| row_active[rr]).count();
                let mark = (r_nnz - 1) * c_nnz.saturating_sub(1);
                if best.is_none_or(|(_, _, bm, bmag)| mark < bm || (mark == bm && mag > bmag)) {
                    best = Some((r, c, mark, mag));
                }
            }
        }
        let (pr, pc, _, _) = best.ok_or(FactorError::Singular { step })?;
        let pivot = rows[pr][&pc];
        det_mag.mul_complex(pivot);
        out.rows.push(pr);
        out.cols.push(pc);
        out.pivots.push(pivot);
        row_active[pr] = false;
        let prow = std::mem::take(&mut rows[pr]);
        for &c in prow.keys() {
            col_rows[c].remove(&pr);
        }
        let urow: Vec<(usize, Complex)> =
            prow.iter().filter(|&(&c, _)| c != pc).map(|(&c, &v)| (c, v)).collect();
        let targets: Vec<usize> = col_rows[pc].iter().copied().collect();
        let mut lcol = Vec::new();
        for r2 in targets {
            let a_rc = rows[r2].remove(&pc).unwrap_or(Complex::ZERO);
            col_rows[pc].remove(&r2);
            if a_rc == Complex::ZERO {
                continue;
            }
            let l = a_rc / pivot;
            lcol.push((r2, l));
            for &(c, v) in &urow {
                let delta = l * v;
                match rows[r2].get_mut(&c) {
                    Some(e) => *e -= delta,
                    None => {
                        rows[r2].insert(c, -delta);
                        col_rows[c].insert(r2);
                    }
                }
            }
        }
        out.lcols.push(lcol);
        out.urows.push(urow);
    }
    let sign = permutation_sign(&out.rows) * permutation_sign(&out.cols);
    out.det = det_mag.value() * Complex::real(sign);
    let final_nnz: usize = out.urows.iter().map(|u| u.len() + 1).sum::<usize>()
        + out.lcols.iter().map(|l| l.len()).sum::<usize>();
    out.fill_in = final_nnz.saturating_sub(initial_nnz);
    Ok(out)
}

impl ReferenceLu {
    fn solve(&self, b: &[Complex]) -> Vec<Complex> {
        let n = b.len();
        let mut work = b.to_vec();
        for k in 0..n {
            let t = work[self.rows[k]];
            if t == Complex::ZERO {
                continue;
            }
            for &(r2, l) in &self.lcols[k] {
                work[r2] -= l * t;
            }
        }
        let mut x = vec![Complex::ZERO; n];
        for k in (0..n).rev() {
            let mut s = work[self.rows[k]];
            for &(c, v) in &self.urows[k] {
                s -= v * x[c];
            }
            x[self.cols[k]] = s / self.pivots[k];
        }
        x
    }
}

fn complex_bits(z: Complex) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

/// Tie-heavy random matrix: small-integer values (so Markowitz counts,
/// magnitudes and the threshold test tie constantly), duplicate triplets,
/// explicit structural zeros, pairs that cancel to an exact zero, and —
/// with `special` — a sprinkling of infinite and NaN values.
fn tie_heavy_matrix(dim: usize, seed: u64, density_pct: u64, special: bool) -> Triplets {
    let mut t = Triplets::new(dim);
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(777);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    for r in 0..dim {
        for c in 0..dim {
            if next() % 100 >= density_pct {
                continue;
            }
            let v = match next() % 8 {
                0 => Complex::ZERO,
                1 => Complex::new(0.0, (next() % 3) as f64 - 1.0),
                2 => Complex::real(10.0),
                _ => Complex::real((next() % 5) as f64 - 2.0),
            };
            t.add(r, c, v);
            match next() % 6 {
                0 => t.add(r, c, v),
                1 => t.add(r, c, -v),
                2 if special => t.add(r, c, Complex::real(specials[(next() % 3) as usize])),
                _ => {}
            }
        }
    }
    t
}

/// `SparseLu::factor_with_threshold` ≡ the full-scan reference, bit for
/// bit: pivot order, fill-in, determinant, solve vector, and the step of
/// a `Singular` failure.
fn assert_matches_reference(t: &Triplets, u: f64) -> Result<(), TestCaseError> {
    let dim = t.dim();
    match (SparseLu::factor_with_threshold(t, u), reference_factor(t, u)) {
        (Ok(lu), Ok(reference)) => {
            prop_assert_eq!(lu.order().rows(), &reference.rows[..]);
            prop_assert_eq!(lu.order().cols(), &reference.cols[..]);
            prop_assert_eq!(lu.fill_in(), reference.fill_in);
            let (d, r) = (lu.det(), reference.det);
            prop_assert_eq!(complex_bits(d.mantissa()), complex_bits(r.mantissa()));
            prop_assert_eq!(d.exponent(), r.exponent());
            let b: Vec<Complex> =
                (0..dim).map(|i| Complex::new(1.0 + i as f64, 0.5 - i as f64)).collect();
            let x: Vec<(u64, u64)> = lu.solve(&b).into_iter().map(complex_bits).collect();
            let want: Vec<(u64, u64)> = reference.solve(&b).into_iter().map(complex_bits).collect();
            prop_assert_eq!(x, want);
        }
        (Err(got), Err(want)) => prop_assert_eq!(got, want),
        (got, want) => prop_assert!(
            false,
            "outcomes diverge: {:?} vs {:?}",
            got.map(|lu| lu.order().clone()),
            want.map(|r| r.rows)
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn determinant_matches_dense(dim in 1usize..12, seed in 0u64..100_000, density in 10u64..70) {
        let t = random_matrix(dim, seed, density);
        let dense = t.to_dense().det();
        match SparseLu::factor(&t) {
            Ok(lu) => {
                let rel = ((lu.det() - dense).norm()
                    / dense.norm().max_abs(lu.det().norm()))
                .to_f64();
                prop_assert!(rel < 1e-9, "rel {rel:.2e} (dim {dim}, seed {seed})");
            }
            Err(_) => {
                // Sparse declared singular: dense determinant must be tiny
                // relative to the matrix scale.
                prop_assert!(dense.norm().to_f64() < 1e-6);
            }
        }
    }

    #[test]
    fn solve_residual_small(dim in 1usize..12, seed in 0u64..100_000) {
        let t = random_matrix(dim, seed, 40);
        let lu = match SparseLu::factor(&t) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        let b: Vec<Complex> = (0..dim)
            .map(|i| Complex::new(1.0 + i as f64, (i as f64) - 0.5))
            .collect();
        let x = lu.solve(&b);
        let ax = t.to_dense().mul_vec(&x);
        let resid: f64 = ax.iter().zip(&b).map(|(p, q)| (*p - *q).abs()).sum();
        let scale: f64 = b.iter().map(|v| v.abs()).sum();
        prop_assert!(resid < 1e-9 * scale, "residual {resid:.2e}");
    }

    #[test]
    fn refactor_reproduces_factor(dim in 1usize..10, seed in 0u64..100_000) {
        let t = random_matrix(dim, seed, 35);
        let lu = match SparseLu::factor(&t) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        let re = SparseLu::refactor(&t, lu.order()).expect("same matrix refactors");
        let rel = ((lu.det() - re.det()).norm() / lu.det().norm()).to_f64();
        prop_assert!(rel < 1e-12);
        let b = vec![Complex::ONE; dim];
        for (p, q) in lu.solve(&b).iter().zip(re.solve(&b)) {
            prop_assert!((*p - q).abs() < 1e-10);
        }
    }

    /// Tentpole equivalence: `FactorProgram` execution ≡ `SparseLu::refactor`
    /// ≡ a fresh Markowitz factorization on random fill-heavy patterns —
    /// determinants, solve vectors, and fill accounting.
    #[test]
    fn compiled_program_matches_both_replay_paths(
        dim in 1usize..12,
        seed in 0u64..100_000,
        density in 30u64..80,
    ) {
        let t = random_matrix(dim, seed, density);
        let lu = match SparseLu::factor(&t) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        let program = FactorProgram::for_triplets(&t, lu.order())
            .expect("order recorded on this pattern compiles");
        prop_assert_eq!(program.fill_in(), lu.fill_in(), "compile-time fill = numeric fill");
        prop_assert_eq!(lu.structural_fill(), Some(program.fill_in()), "no zero was skipped");

        // Same matrix, then a same-pattern matrix with fresh values: the
        // program must track SparseLu::refactor on both.
        let mut t2 = Triplets::new(dim);
        for (i, &(r, c, v)) in t.entries().iter().enumerate() {
            let bump = 1.0 + ((i as f64) + 1.0) / (t.raw_len() as f64 + 2.0);
            t2.add(r, c, v.scale(bump) + Complex::new(0.0, 0.125 * bump));
        }
        let mut scratch = ProgramScratch::new();
        let mut x = Vec::new();
        for m in [&t, &t2] {
            let reference = match SparseLu::refactor(m, lu.order()) {
                Ok(re) => re,
                Err(e) => {
                    // Error parity: the program must die the same way.
                    let got = program.refactor(m, &mut scratch);
                    prop_assert_eq!(got, Err(e));
                    continue;
                }
            };
            program.refactor(m, &mut scratch).expect("refactor succeeded, replay must too");
            let drel = ((scratch.det() - reference.det()).norm()
                / reference.det().norm())
            .to_f64();
            prop_assert!(drel < 1e-10, "det rel {drel:.2e} (dim {dim}, seed {seed})");
            // …and against the fully fresh factorization of the same values.
            if let Ok(fresh) = SparseLu::factor(m) {
                let frel =
                    ((scratch.det() - fresh.det()).norm() / fresh.det().norm()).to_f64();
                prop_assert!(frel < 1e-9, "fresh det rel {frel:.2e}");
            }
            let b: Vec<Complex> =
                (0..dim).map(|i| Complex::new(1.0 + i as f64, 0.5 - i as f64)).collect();
            program.solve_into(&mut scratch, &b, &mut x);
            for (p, q) in x.iter().zip(reference.solve(&b)) {
                prop_assert!((*p - q).abs() < 1e-9, "solve divergence (dim {dim}, seed {seed})");
            }
        }
    }

    /// Error parity under injected zero pivots: when a value replay dies,
    /// the program and the workspace replay report `Singular` at the same
    /// elimination step.
    #[test]
    fn compiled_program_error_parity_on_zeroed_pivots(
        dim in 2usize..10,
        seed in 0u64..100_000,
        victim in 0usize..10,
    ) {
        let t = random_matrix(dim, seed, 40);
        let lu = match SparseLu::factor(&t) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        let program = FactorProgram::for_triplets(&t, lu.order()).unwrap();
        // Zero every raw entry at the victim step's pivot position.
        let step = victim % dim;
        let (pr, pc) = (lu.order().rows()[step], lu.order().cols()[step]);
        let mut zeroed = Triplets::new(dim);
        for &(r, c, v) in t.entries() {
            zeroed.add(r, c, if (r, c) == (pr, pc) { Complex::ZERO } else { v });
        }
        let mut scratch = ProgramScratch::new();
        let got = program.refactor(&zeroed, &mut scratch);
        let want = SparseLu::refactor(&zeroed, lu.order()).map(|_| ());
        match (got, want) {
            (Ok(()), Ok(())) => {}
            (
                Err(FactorError::Singular { step: a }),
                Err(FactorError::Singular { step: b }),
            ) => prop_assert_eq!(a, b, "both die, and at the same step"),
            (g, w) => prop_assert!(false, "outcomes diverge: {g:?} vs {w:?}"),
        }
    }

    #[test]
    fn row_scaling_scales_determinant(dim in 1usize..9, seed in 0u64..100_000, k in 1u32..20) {
        // Multiplying one row by 2^k multiplies det by exactly 2^k.
        let t = random_matrix(dim, seed, 40);
        let lu = match SparseLu::factor(&t) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        let factor = 2f64.powi(k as i32);
        let mut t2 = Triplets::new(dim);
        for &(r, c, v) in t.entries() {
            t2.add(r, c, if r == 0 { v.scale(factor) } else { v });
        }
        let lu2 = SparseLu::factor(&t2).expect("scaled matrix regular");
        let got = (lu2.det().norm() / lu.det().norm()).log2();
        prop_assert!((got - k as f64).abs() < 1e-9, "got 2^{got}, want 2^{k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn markowitz_matches_full_scan_reference(
        dim in 1usize..10,
        seed in 0u64..1_000_000,
        density in 10u64..90,
        u_tenths in 1u32..=10,
    ) {
        let t = tie_heavy_matrix(dim, seed, density, false);
        assert_matches_reference(&t, f64::from(u_tenths) / 10.0)?;
    }

    /// Whenever a factorization certifies its fill (no exact-zero entry
    /// skipped), the certificate is the compiled program's fill for the
    /// same positions and order — on tie-heavy patterns full of stored
    /// zeros and exact cancellations, where skips are common.
    #[test]
    fn certified_fill_is_the_compiled_fill(
        dim in 1usize..10,
        seed in 0u64..1_000_000,
        density in 10u64..90,
    ) {
        let t = tie_heavy_matrix(dim, seed, density, false);
        let Ok(lu) = SparseLu::factor(&t) else { return Ok(()) };
        if let Some(fill) = lu.structural_fill() {
            let program = FactorProgram::for_triplets(&t, lu.order())
                .expect("order recorded on this pattern compiles");
            prop_assert_eq!(fill, program.fill_in());
        }
    }

    /// The same identity when entries overflow to infinity or hold NaN:
    /// a NaN magnitude never wins or loses a tie, and the cached search
    /// must skip it exactly where the full scan does.
    #[test]
    fn markowitz_matches_full_scan_reference_with_non_finite_entries(
        dim in 1usize..8,
        seed in 0u64..1_000_000,
        density in 20u64..90,
    ) {
        let t = tie_heavy_matrix(dim, seed, density, true);
        assert_matches_reference(&t, 0.1)?;
    }
}
