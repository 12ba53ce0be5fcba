//! Fill-reducing symbolic ordering over the sparsity pattern.
//!
//! The sweep engine's default pivot order comes from one numeric Markowitz
//! probe — locally greedy on `(row count − 1)·(col count − 1)` with a
//! stability threshold. On tree-like or op-amp-sized patterns that is
//! near-optimal, but on mesh graphs its fill-in grows super-linearly and
//! the compiled replay drowns in fill slots. This module provides the
//! classic cure: an **approximate minimum degree** (AMD-style) ordering
//! computed purely symbolically on the pattern graph, via quotient-graph
//! elimination with element absorption and the one-pass approximate
//! external-degree update.
//!
//! The ordering is *symmetric* (diagonal pivots, [`PivotOrder::diagonal`])
//! over the symmetrized pattern `A + Aᵀ`, which matches MNA matrices:
//! their pattern is structurally symmetric even where values are not
//! (controlled sources). One MNA wrinkle drives a non-standard constraint:
//! ideal-source branch rows have **no structural diagonal**, and plain
//! minimum degree would eliminate exactly those first (they have the
//! smallest degree), prescribing a pivot that does not exist. A variable
//! is therefore *eligible* only once its diagonal is structurally present
//! or has received fill — eliminating any neighbor fills `(i, i)` — which
//! is tracked exactly during the symbolic elimination.
//!
//! The result is deterministic: ties break on the lowest variable index,
//! independent of hash order (all scratch structures are index-based).
//! Consumers validate the order by compiling it
//! ([`FactorProgram::compile`](crate::FactorProgram::compile) fails if a
//! prescribed pivot is structurally absent) and replaying it at one
//! point, then judge its realized
//! [`fill_in`](crate::FactorProgram::fill_in): against the numeric probe
//! order's, or — on large patterns, where the sweep engine computes AMD
//! before any probe — against a mesh threshold, adopting AMD unprobed
//! when its fill alone marks the pattern as a mesh.

use crate::lu::PivotOrder;

/// Computes an approximate-minimum-degree elimination order for the given
/// pattern, as a diagonal [`PivotOrder`] consumable by
/// [`FactorProgram::compile`](crate::FactorProgram::compile).
///
/// `positions` lists the structural nonzeros `(row, col)`; duplicates and
/// diagonal entries are fine. The pattern is symmetrized internally.
///
/// The order always contains every variable. If the pattern forces an
/// ineligible elimination (a variable whose diagonal never becomes
/// structurally available — possible only on patterns no LU with that
/// pivot sequence could factor anyway), the variable is emitted last and
/// compilation of the order will report the failure.
///
/// # Panics
///
/// Panics if any position index is `≥ dim`.
pub fn minimum_degree(dim: usize, positions: &[(usize, usize)]) -> PivotOrder {
    let n = dim;
    if n == 0 {
        return PivotOrder::diagonal(Vec::new());
    }

    // --- Symmetrized adjacency (upper+lower, no diagonal, deduplicated).
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut has_diag = vec![false; n];
    for &(r, c) in positions {
        assert!(r < n && c < n, "position ({r},{c}) out of range for dim {n}");
        if r == c {
            has_diag[r] = true;
        } else {
            adj[r].push(c as u32);
            adj[c].push(r as u32);
        }
    }
    for row in &mut adj {
        row.sort_unstable();
        row.dedup();
    }

    // --- Quotient-graph state. Element `p` is created when variable `p`
    // is eliminated; `elem_bound[p]` is its boundary L_p (live variables).
    let mut var_elems: Vec<Vec<u32>> = vec![Vec::new(); n]; // E_i
    let mut elem_bound: Vec<Vec<u32>> = vec![Vec::new(); n]; // L_e
    let mut absorbed = vec![false; n];
    let mut degree: Vec<usize> = adj.iter().map(|a| a.len()).collect();
    // The pivot key `(ineligible << 31) | degree` per live variable, and
    // `u32::MAX` once eliminated: the least key is the minimum-degree
    // eligible variable (ineligible ones only when none is eligible), and
    // its first position the lowest index among ties.
    assert!(n < 1 << 31, "dimension {n} exceeds the pivot key's degree field");
    let mut key: Vec<u32> =
        (0..n).map(|i| (u32::from(!has_diag[i]) << 31) | degree[i] as u32).collect();

    // Scratch: marker for set membership in the current L_p, and the
    // one-pass |L_e \ L_p| counters (w-trick), both stamped per step.
    let mut in_lp = vec![false; n];
    let mut w: Vec<i64> = vec![-1; n];
    let mut perm = Vec::with_capacity(n);

    for _step in 0..n {
        // Select the minimum-degree *eligible* variable, lowest index on
        // ties; fall back to ineligible ones only when none is eligible.
        // Two flat passes over `key` (a minimum, then its first position)
        // vectorize where one branchy tuple scan does not.
        let least = key.iter().copied().min().expect("dimension is nonzero");
        let p = key.iter().position(|&k| k == least).expect("the minimum is present");
        key[p] = u32::MAX;
        perm.push(p);

        // Form L_p = (A_p ∪ ⋃_{e ∈ E_p} L_e) \ {p}: every member is live
        // (adjacency lists and element boundaries are pruned on
        // elimination/absorption, see below).
        let mut lp: Vec<u32> = Vec::new();
        for &j in &adj[p] {
            if !in_lp[j as usize] {
                in_lp[j as usize] = true;
                lp.push(j);
            }
        }
        for &e in &var_elems[p] {
            if absorbed[e as usize] {
                continue;
            }
            for &j in &elem_bound[e as usize] {
                if j as usize != p && !in_lp[j as usize] {
                    in_lp[j as usize] = true;
                    lp.push(j);
                }
            }
            // e's live boundary is a subset of L_p ∪ {p}: absorb it.
            absorbed[e as usize] = true;
        }
        lp.sort_unstable();

        // One-pass approximate set differences: after this loop,
        // w[e] = |L_e \ L_p| for every live element touching L_p.
        for &i in &lp {
            for &e in &var_elems[i as usize] {
                if absorbed[e as usize] {
                    continue;
                }
                if w[e as usize] < 0 {
                    w[e as usize] = elem_bound[e as usize].len() as i64;
                }
                w[e as usize] -= 1;
            }
        }

        // Update each boundary variable: prune its adjacency of L_p ∪ {p}
        // (now covered by element p), compress its element list, refresh
        // the approximate external degree, and record the diagonal fill
        // the numeric update `a[i][i] -= a[i][p]·a[p][i]/a[p][p]` creates.
        for &iu in &lp {
            let i = iu as usize;
            adj[i].retain(|&j| j as usize != p && !in_lp[j as usize]);
            let mut elem_deg = 0usize;
            var_elems[i].retain(|&e| {
                if absorbed[e as usize] {
                    return false;
                }
                // |L_e \ L_p| = 0 ⇒ e's boundary is inside L_p: element p
                // supersedes it everywhere, absorb it too.
                if w[e as usize] == 0 {
                    absorbed[e as usize] = true;
                    return false;
                }
                elem_deg += w[e as usize] as usize;
                true
            });
            var_elems[i].push(p as u32);
            let d = adj[i].len() + (lp.len() - 1) + elem_deg;
            // Clamp by the exact upper bounds AMD uses: the previous
            // degree plus the new clique, and the number of live variables.
            degree[i] = d.min(degree[i] + lp.len() - 1).min(n - perm.len());
            // The fill on (i, i) makes i eligible: its key drops the flag.
            key[i] = degree[i] as u32;
        }

        // Reset the per-step scratch (only the touched entries).
        for &i in &lp {
            in_lp[i as usize] = false;
            for &e in &var_elems[i as usize] {
                w[e as usize] = -1;
            }
        }
        elem_bound[p] = lp;
    }

    PivotOrder::diagonal(perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::FactorProgram;

    /// Dense-banded pattern of a 1-D chain (tridiagonal): any order works,
    /// natural order is fill-free, AMD must match that (zero fill).
    fn tridiagonal(n: usize) -> Vec<(usize, usize)> {
        let mut p = Vec::new();
        for i in 0..n {
            p.push((i, i));
            if i + 1 < n {
                p.push((i, i + 1));
                p.push((i + 1, i));
            }
        }
        p
    }

    /// 2-D five-point grid pattern, the classic fill-in stress case.
    fn grid(rows: usize, cols: usize) -> Vec<(usize, usize)> {
        let idx = |r: usize, c: usize| r * cols + c;
        let mut p = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let i = idx(r, c);
                p.push((i, i));
                if c + 1 < cols {
                    p.push((i, idx(r, c + 1)));
                    p.push((idx(r, c + 1), i));
                }
                if r + 1 < rows {
                    p.push((i, idx(r + 1, c)));
                    p.push((idx(r + 1, c), i));
                }
            }
        }
        p
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(minimum_degree(0, &[]).dim(), 0);
        let o = minimum_degree(1, &[(0, 0)]);
        assert_eq!(o.rows(), &[0]);
        assert_eq!(o.cols(), &[0]);
    }

    #[test]
    fn tridiagonal_is_fill_free() {
        let pat = tridiagonal(32);
        let order = minimum_degree(32, &pat);
        let prog = FactorProgram::compile(32, &pat, &order).expect("compiles");
        assert_eq!(prog.fill_in(), 0, "minimum degree must not fill a tree");
    }

    #[test]
    fn grid_beats_natural_order() {
        let pat = grid(12, 12);
        let n = 144;
        let amd = minimum_degree(n, &pat);
        let natural = PivotOrder::diagonal((0..n).collect());
        let p_amd = FactorProgram::compile(n, &pat, &amd).expect("amd compiles");
        let p_nat = FactorProgram::compile(n, &pat, &natural).expect("natural compiles");
        assert!(
            p_amd.fill_in() * 2 < p_nat.fill_in(),
            "amd fill {} vs natural {}",
            p_amd.fill_in(),
            p_nat.fill_in()
        );
    }

    #[test]
    fn deterministic() {
        let pat = grid(9, 7);
        let a = minimum_degree(63, &pat);
        let b = minimum_degree(63, &pat);
        assert_eq!(a, b);
    }

    #[test]
    fn missing_diagonal_deferred_until_filled() {
        // Variable 2 has no structural diagonal (an ideal-source branch
        // row): degree-first would pick it first and prescribe a
        // nonexistent pivot. It must wait until a neighbor's elimination
        // fills (2,2).
        let pat = vec![(0, 0), (1, 1), (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)];
        let order = minimum_degree(3, &pat);
        assert_ne!(order.rows()[0], 2, "ineligible variable picked first");
        let prog = FactorProgram::compile(3, &pat, &order).expect("order must compile");
        assert!(prog.fill_in() >= 1); // the (2,2) fill itself
    }

    #[test]
    fn duplicates_and_asymmetry_tolerated() {
        let pat = vec![(0, 0), (0, 0), (1, 1), (2, 2), (0, 2), (1, 0), (0, 1)];
        let order = minimum_degree(3, &pat);
        assert_eq!(order.dim(), 3);
        // Every variable appears exactly once (PivotOrder::diagonal
        // already asserts the permutation property).
        let mut seen = order.rows().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
