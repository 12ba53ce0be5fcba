//! Structural degree bounds of the network-function polynomials.
//!
//! `D(s) = det(K₀ + s·K₁)` expands into one term per perfect matching of
//! the pattern's row/column graph, and a term's degree in `s` is the
//! number of its entries where `K₁` is nonzero. So `deg D` is at most the
//! maximum weight of a perfect matching whose edges weigh 1 where a
//! reactive stamp (`s·f·C`, `s·f·L`) lands and 0 elsewhere (Murota,
//! "Computing the degree of determinants via combinatorial relaxation",
//! SIAM J. Comput. 1995). For RLC networks this is the classical order of
//! complexity: reactive elements minus capacitor-only loops and
//! inductor-only cutsets.
//!
//! By Cramer's rule the numerator of `v(out)/source` is the same
//! determinant with the output column replaced by the excitation vector,
//! which is constant in `s`; a differential output is the difference of
//! two such determinants, so its bound is the larger of the two.
//!
//! The denominator bound depends only on the pattern and on which
//! positions are reactive. The numerator bound also depends on which rows
//! the independent sources excite, so one element value does move it: a
//! source's amplitude, through whether it is zero. Neither depends on any
//! other value, so both hold for every value set of one topology with the
//! same excited rows. Value cancellation (a balanced bridge, matched time
//! constants) can still leave the true degree lower. They are computed on
//! request only ([`MnaSystem::new`] does not pay for them) and memoized on
//! the stamp topology, by output columns and excited rows, so the
//! same-topology variants of a fleet compute them once.

use crate::system::MnaSystem;
use crate::transfer::OutputSpec;
use refgen_numeric::Complex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Mutex, PoisonError};

/// Structural degree bounds of a transfer function's two polynomials, from
/// [`MnaSystem::degree_bounds`]. `None` where the pattern has no perfect
/// matching: the polynomial is identically zero for every value set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegreeBounds {
    /// Bound on `deg D(s)`, the degree of `det(Y_MNA)`.
    pub denominator: Option<usize>,
    /// Bound on `deg N(s)`, the numerator of the requested output.
    pub numerator: Option<usize>,
}

impl MnaSystem {
    /// Upper bounds on the degrees of `D(s)` and of the numerator `N(s)` of
    /// `output`: maximum-weight perfect matchings of the pattern, reactive
    /// positions weighing 1. For the numerator the output column is
    /// replaced by the nonzeros of [`MnaSystem::rhs`] (weight 0), taking
    /// the larger over both columns of a differential output; ground
    /// terminals contribute no column, and a name that is not a node of the
    /// circuit gives `None`.
    ///
    /// The numerator bound is not value-independent: it reads which
    /// sources have a nonzero amplitude. A source at zero amplitude
    /// excites no row, so a variant that zeroes one can get a different
    /// (or no) numerator bound than its base. Each bound is computed once
    /// per stamp topology, output columns and set of excited rows, and
    /// memoized on the topology: every system that
    /// [shares it](MnaSystem::shares_topology) reads the memo.
    pub fn degree_bounds(&self, output: &OutputSpec) -> DegreeBounds {
        let terminals = match output {
            OutputSpec::Node(n) => [Some(n), None],
            OutputSpec::Differential(p, m) => [Some(p), Some(m)],
        };
        let columns: Vec<usize> = terminals
            .into_iter()
            .flatten()
            .filter_map(|name| self.circuit().find_node(name).and_then(|id| self.node_row(id)))
            .collect();
        let excited: Vec<bool> = self.rhs().iter().map(|&e| e != Complex::ZERO).collect();
        // Held while computing, so concurrent variants compute each bound
        // once: the first computes it, the others wait and read it.
        let mut memo = self.topology().bounds.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = memo.iter().find(|e| e.columns == columns && e.excited == excited) {
            return entry.bounds;
        }
        let rows = Rows::new(self.dim(), self.reactive_pattern());
        let mut search = Search::default();
        let numerator = columns
            .iter()
            .filter_map(|&col| rows.max_weight_perfect_matching(Some((col, &excited)), &mut search))
            .max();
        let denominator = rows.max_weight_perfect_matching(None, &mut search);
        let bounds = DegreeBounds { denominator, numerator };
        memo.push(BoundsEntry { columns, excited, bounds });
        bounds
    }

    /// How many degree-bound pairs have been computed on this system's
    /// stamp topology: one per distinct output columns and excited rows
    /// [`MnaSystem::degree_bounds`] was asked for, by any system sharing
    /// the topology.
    pub fn degree_bounds_computed(&self) -> usize {
        self.topology().bounds.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// The degree bounds computed on one stamp topology.
pub(crate) type BoundsMemo = Mutex<Vec<BoundsEntry>>;

/// One memoized [`MnaSystem::degree_bounds`] result and what it was
/// computed for, besides the topology.
#[derive(Debug)]
pub(crate) struct BoundsEntry {
    /// The numerator's output columns.
    columns: Vec<usize>,
    /// Per row: whether [`MnaSystem::rhs`] is nonzero there.
    excited: Vec<bool>,
    bounds: DegreeBounds,
}

/// A square pattern by rows: each entry's column and whether it is heavy
/// (weight 1; the rest weigh 0).
struct Rows {
    starts: Vec<usize>,
    entries: Vec<(usize, bool)>,
}

impl Rows {
    /// The `n × n` pattern of `entries`, given in row order, each position
    /// at most once.
    fn new(n: usize, entries: impl Iterator<Item = (usize, usize, bool)>) -> Rows {
        let mut starts = vec![0usize; n + 1];
        let entries: Vec<(usize, bool)> = entries
            .map(|(r, c, heavy)| {
                starts[r + 1] += 1;
                (c, heavy)
            })
            .collect();
        for r in 0..n {
            starts[r + 1] += starts[r];
        }
        Rows { starts, entries }
    }

    /// The entries of row `i` as `(column, cost)` with cost `1 − weight`;
    /// `replaced = (col, rows)` swaps column `col` for weight-0 entries in
    /// the flagged rows.
    fn edges<'a>(
        &'a self,
        i: usize,
        replaced: Option<(usize, &'a [bool])>,
    ) -> impl Iterator<Item = (usize, i64)> + 'a {
        let out = replaced.map(|(c, _)| c);
        let extra = replaced.filter(|&(_, rows)| rows[i]).map(|(c, _)| (c, 1));
        self.entries[self.starts[i]..self.starts[i + 1]]
            .iter()
            .filter(move |&&(c, _)| Some(c) != out)
            .map(|&(c, heavy)| (c, i64::from(!heavy)))
            .chain(extra)
    }

    /// The maximum weight of a perfect matching (with `replaced` as in
    /// [`Rows::edges`]), or `None` when there is none. `search` is scratch
    /// reused between calls.
    ///
    /// Solved as the minimum-cost assignment with costs `1 − weight` by
    /// shortest augmenting paths over the entries alone (no dense matrix):
    /// dual potentials `u` (rows) and `v` (columns) keep every reduced cost
    /// `cost − u − v` nonnegative and every matched edge tight. The rows'
    /// cheapest costs start `u`, and a greedy pass matches tight edges to
    /// free columns, so only the rows it leaves run a Dijkstra search.
    fn max_weight_perfect_matching(
        &self,
        replaced: Option<(usize, &[bool])>,
        search: &mut Search,
    ) -> Option<usize> {
        let n = self.starts.len() - 1;
        // A call that returned early may have left any of these behind.
        let Search { rows, cols, reached, scanned, heap } = search;
        rows.clear();
        rows.resize(n, RowState { u: 0, mate: FREE });
        cols.clear();
        cols.resize(n, ColState { v: 0, mate: FREE, dist: i64::MAX, pred: FREE, done: false });
        reached.clear();
        scanned.clear();
        heap.clear();
        for (i, row) in rows.iter_mut().enumerate() {
            let u = self.edges(i, replaced).map(|(_, c)| c).min()?;
            row.u = u;
            if let Some((j, _)) =
                self.edges(i, replaced).find(|&(j, c)| c == u && cols[j].mate == FREE)
            {
                row.mate = j;
                cols[j].mate = i;
            }
        }
        for root in 0..n {
            if rows[root].mate != FREE {
                continue;
            }
            // Dijkstra over columns; a matched column continues through its
            // mate at the same distance (matched edges are tight).
            let (mut i, mut di) = (root, 0);
            scanned.push((root, 0));
            let end = loop {
                for (j, c) in self.edges(i, replaced) {
                    let d = di + c - rows[i].u - cols[j].v;
                    let col = &mut cols[j];
                    if d < col.dist {
                        if col.dist == i64::MAX {
                            reached.push(j);
                        }
                        (col.dist, col.pred) = (d, i);
                        heap.push(Reverse((d, j)));
                    }
                }
                let j = loop {
                    let Reverse((d, j)) = heap.pop()?;
                    if !cols[j].done && d == cols[j].dist {
                        break j;
                    }
                };
                cols[j].done = true;
                if cols[j].mate == FREE {
                    break j;
                }
                (i, di) = (cols[j].mate, cols[j].dist);
                scanned.push((i, di));
            };
            // Shift the potentials so the path found is tight, then flip it.
            let length = cols[end].dist;
            for &(i, di) in scanned.iter() {
                rows[i].u += length - di;
            }
            for &j in reached.iter() {
                let col = &mut cols[j];
                if col.done {
                    col.v -= length - col.dist;
                }
                (col.dist, col.done) = (i64::MAX, false);
            }
            let mut j = end;
            loop {
                let i = cols[j].pred;
                let next = rows[i].mate;
                rows[i].mate = j;
                cols[j].mate = i;
                if i == root {
                    break;
                }
                j = next;
            }
            reached.clear();
            scanned.clear();
            heap.clear();
        }
        // Every matched edge is tight, so the matching costs Σu + Σv.
        let cost: i64 = rows.iter().map(|r| r.u).chain(cols.iter().map(|c| c.v)).sum();
        Some(n - cost as usize)
    }
}

/// The unmatched marker of [`RowState::mate`] and [`ColState::mate`].
const FREE: usize = usize::MAX;

/// A row's dual potential and matched column.
#[derive(Clone, Copy, Debug)]
struct RowState {
    u: i64,
    mate: usize,
}

/// A column's dual potential, matched row and Dijkstra label.
#[derive(Clone, Copy, Debug)]
struct ColState {
    v: i64,
    mate: usize,
    dist: i64,
    pred: usize,
    done: bool,
}

/// Scratch of [`Rows::max_weight_perfect_matching`]: the row and column
/// states and the search's reached columns, scanned rows and heap.
#[derive(Default)]
struct Search {
    rows: Vec<RowState>,
    cols: Vec<ColState>,
    reached: Vec<usize>,
    scanned: Vec<(usize, i64)>,
    heap: BinaryHeap<Reverse<(i64, usize)>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use refgen_circuit::library::{lc_ladder_lowpass, rc_ladder};
    use refgen_circuit::Circuit;

    /// The maximum over every permutation, or `None` when none is covered.
    fn brute_force(n: usize, entries: &[(usize, usize, bool)]) -> Option<usize> {
        let weight = |r: usize, c: usize| {
            entries.iter().find(|&&(i, j, _)| (i, j) == (r, c)).map(|&(_, _, h)| usize::from(h))
        };
        let mut perm: Vec<usize> = (0..n).collect();
        let mut best = None;
        permute(&mut perm, 0, &mut |p| {
            let w: Option<usize> = p.iter().enumerate().map(|(r, &c)| weight(r, c)).sum();
            best = best.max(w);
        });
        best
    }

    fn permute(p: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
        if k == p.len() {
            visit(p);
            return;
        }
        for i in k..p.len() {
            p.swap(k, i);
            permute(p, k + 1, visit);
            p.swap(k, i);
        }
    }

    /// Random sparse patterns up to 7 × 7, dense to nearly empty, against
    /// the maximum over all permutations — matched, unmatched and
    /// imperfect alike — through one scratch, so each case also starts
    /// from whatever the previous one (possibly imperfect) left behind.
    #[test]
    fn matches_brute_force_on_random_patterns() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut imperfect = 0;
        let mut search = Search::default();
        for case in 0..600 {
            let n = 1 + case % 7;
            let density = 20 + next() % 70;
            let mut entries = Vec::new();
            for r in 0..n {
                for c in 0..n {
                    if next() % 100 < density {
                        entries.push((r, c, next() % 3 == 0));
                    }
                }
            }
            let want = brute_force(n, &entries);
            imperfect += usize::from(want.is_none());
            let got = Rows::new(n, entries.iter().copied())
                .max_weight_perfect_matching(None, &mut search);
            assert_eq!(got, want, "case {case}: {entries:?}");
        }
        assert!(imperfect > 0, "some patterns have no perfect matching");
    }

    fn out() -> OutputSpec {
        OutputSpec::Node("out".into())
    }

    #[test]
    fn ladders_reach_their_element_count() {
        for n in [1, 4, 12] {
            let sys = MnaSystem::new(&rc_ladder(n, 1e3, 1e-9)).unwrap();
            // The ladder's output column replaced by the source row: the
            // numerator is the constant product of conductances.
            let want = DegreeBounds { denominator: Some(n), numerator: Some(0) };
            assert_eq!(sys.degree_bounds(&out()), want);
        }
        let lc = MnaSystem::new(&lc_ladder_lowpass(5, 50.0, 1e6)).unwrap();
        assert_eq!(lc.degree_bounds(&out()).denominator, Some(5));
    }

    /// A zero-amplitude source excites no row, so a same-topology variant
    /// with `VIN` at zero gets the bounds a standalone build of it gets,
    /// not its base's memoized ones; each pair is computed once per
    /// topology.
    #[test]
    fn zero_amplitude_source_keys_its_own_bounds() {
        // `rc_ladder(4, ohms, 1 nF)` with `VIN` at amplitude `vin`.
        let ladder = |vin: f64, ohms: f64| {
            let mut c = Circuit::new();
            c.add_vsource("VIN", "in", "0", vin).unwrap();
            for (k, (a, b)) in
                [("in", "l1"), ("l1", "l2"), ("l2", "l3"), ("l3", "out")].into_iter().enumerate()
            {
                c.add_resistor(&format!("R{k}"), a, b, ohms).unwrap();
                c.add_capacitor(&format!("C{k}"), b, "0", 1e-9).unwrap();
            }
            c
        };
        let base = MnaSystem::new(&ladder(1.0, 1e3)).unwrap();
        let zero = ladder(0.0, 2e3);
        let variant = MnaSystem::with_topology_of(&zero, &base).unwrap();
        assert!(variant.shares_topology(&base));
        let standalone = MnaSystem::new(&zero).unwrap();
        assert!(!standalone.shares_topology(&base));

        let driven = base.degree_bounds(&out());
        assert_eq!(driven, DegreeBounds { denominator: Some(4), numerator: Some(0) });
        let silent_bounds = variant.degree_bounds(&out());
        assert_eq!(silent_bounds, standalone.degree_bounds(&out()));
        assert_eq!(silent_bounds, DegreeBounds { denominator: Some(4), numerator: None });
        assert_eq!(base.degree_bounds(&out()), driven);
        assert_eq!(variant.degree_bounds(&out()), silent_bounds);
        assert_eq!((base.degree_bounds_computed(), variant.degree_bounds_computed()), (2, 2));
        assert_eq!(standalone.degree_bounds_computed(), 1);
    }

    /// Three capacitors in a loop hold two independent states; the
    /// coupling capacitor gives the numerator its degree-one term.
    #[test]
    fn capacitor_loop_loses_one_order() {
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "a", 1e3).unwrap();
        c.add_capacitor("C1", "a", "out", 1e-9).unwrap();
        c.add_capacitor("C2", "out", "0", 1e-9).unwrap();
        c.add_capacitor("C3", "a", "0", 1e-9).unwrap();
        c.add_resistor("R2", "out", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        assert_eq!(c.reactive_count(), 3);
        let want = DegreeBounds { denominator: Some(2), numerator: Some(1) };
        assert_eq!(sys.degree_bounds(&out()), want);
    }

    /// A differential output takes the larger column; a ground terminal
    /// and an unknown node contribute none; two parallel voltage sources
    /// leave no perfect matching.
    #[test]
    fn numerator_columns_and_degenerate_patterns() {
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "a", 1e3).unwrap();
        c.add_capacitor("C1", "a", "0", 1e-9).unwrap();
        c.add_capacitor("C2", "in", "b", 1e-9).unwrap();
        c.add_resistor("R2", "b", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let bound = |o: OutputSpec| sys.degree_bounds(&o).numerator;
        assert_eq!(bound(OutputSpec::Node("a".into())), Some(1));
        assert_eq!(bound(OutputSpec::Node("b".into())), Some(2));
        assert_eq!(bound(OutputSpec::Differential("a".into(), "b".into())), Some(2));
        assert_eq!(bound(OutputSpec::Differential("a".into(), "0".into())), Some(1));
        assert_eq!(bound(OutputSpec::Node("0".into())), None);
        assert_eq!(bound(OutputSpec::Node("nowhere".into())), None);

        let mut singular = Circuit::new();
        singular.add_vsource("V1", "a", "0", 1.0).unwrap();
        singular.add_vsource("V2", "a", "0", 1.0).unwrap();
        singular.add_capacitor("C1", "a", "0", 1e-9).unwrap();
        let sys = MnaSystem::new(&singular).unwrap();
        assert_eq!(sys.degree_bounds(&OutputSpec::Node("a".into())).denominator, None);
    }
}
