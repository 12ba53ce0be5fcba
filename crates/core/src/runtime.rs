//! Shared sampling resources for one solve — or one fleet of solves.
//!
//! Three costs of the plan/execute sampling engine are worth paying
//! **once** rather than per window:
//!
//! * **worker threads** — the runtime owns a persistent
//!   [`WorkerPool`] of `config.threads` threads, spawned once (none at one
//!   thread), so no window pays a thread spawn/join (~100 µs at 4
//!   workers);
//! * **pivot searches** — the runtime's [`PlanCache`] hands every window
//!   plan the pivot order of its plan cell, computed once from the cell's
//!   anchor (the session's circuit, or a fleet's base circuit): the
//!   opening scale's probe, shared by every cell whose growth gate it
//!   passes. A verify re-interpolation and every same-topology variant of
//!   a batch session replay a recorded order instead of probing their
//!   own.
//!
//! Two more costs are paid once per **process**: the per-size window
//! tables. Every interpolation of `K` points uses the same unit-circle
//! points `σ_k`, the same [`Dft`] plan and, under the eq. (17) reduction,
//! the same power columns `σ_k^i` (subtracting the known coefficient `i`)
//! and `conj(σ_k)^{k_lo}` (the shift down to the lowest unknown), and the
//! same conjugate-pair partition of the points into solved and mirrored
//! ones. They depend on `K` alone, so `window_tables` builds them once
//! per `K` for the whole process, each power column on first use, and
//! every later window of that size — in any session, fleet or thread —
//! reads them. Tables sit in a vector indexed by `K`, and each table's
//! columns in a vector indexed by `(exponent, conjugated)` of write-once
//! cells, so reading a column neither hashes nor locks.
//!
//! A [`SamplingRuntime`] is created per [`Session::solve`](crate::Session)
//! by default, which already amortizes across every window of both
//! polynomials. A [`BatchSession`](crate::BatchSession) creates **one**
//! runtime for its whole fleet — that is the "one pivot search per
//! topology, threads spawned once" configuration the batch engine exists
//! for. Sharing never changes results: the pool collects in index order,
//! pivot-order replay is value-exact, a plan's order depends only on its
//! anchor and cell, and a table holds exactly the values a window would
//! compute for itself, so solver output is bit-identical with or without
//! a shared runtime, at any thread count.

use crate::batch::ConjugateRoles;
use crate::config::RefgenConfig;
use refgen_exec::WorkerPool;
use refgen_mna::PlanCache;
use refgen_numeric::dft::{unit_circle_points, Dft};
use refgen_numeric::Complex;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Worker pool and plan cache shared by every sampling batch of one solve
/// (or one batch session). See the [module docs](self).
///
/// The plan cache sits behind an [`Arc`] so a fleet session can hand each
/// variant worker its own [`SamplingRuntime::variant_worker`] runtime —
/// single-threaded inside, but planning through the **same** cache as
/// every other worker.
#[derive(Debug)]
pub struct SamplingRuntime {
    pool: WorkerPool,
    plans: Arc<PlanCache>,
}

/// The tables of one interpolation size `K`: everything a window computes
/// from `K` alone. Built by exactly the calls a window made for itself
/// before, so reading a table gives the same bits.
#[derive(Debug)]
pub(crate) struct SizeTables {
    /// The `K` interpolation points, [`unit_circle_points`]`(K)`.
    pub sigmas: Vec<Complex>,
    /// The size-`K` DFT plan of eq. (5).
    pub dft: Dft,
    /// Which points a conjugate-mirrored window solves, and where every
    /// point's sample comes from.
    pub conjugate: ConjugateRoles,
    /// Power columns indexed by `(exponent, conjugated)` as
    /// `2·exponent + conjugated`, for every exponent up to the one the
    /// tables were built for: `σ_k.powi(e)` or `σ_k.conj().powi(e)` for
    /// every point `k`, each built on first use.
    powers: Box<[OnceLock<Box<[Complex]>>]>,
    /// The bases `Complex::powi` multiplies in, indexed like `powers` by
    /// `(j, conjugated)`: `σ_k` (or `conj(σ_k)`) squared `j` times.
    squares: Box<[OnceLock<Box<[Complex]>>]>,
}

impl SizeTables {
    /// Tables for `k_points` points with power columns up to exponent
    /// `max_exponent`.
    fn new(k_points: usize, max_exponent: usize) -> SizeTables {
        let sigmas = unit_circle_points(k_points);
        let conjugate = ConjugateRoles::new(&sigmas);
        let cells = |n: usize| (0..2 * n).map(|_| OnceLock::new()).collect();
        SizeTables {
            sigmas,
            dft: Dft::new(k_points),
            conjugate,
            powers: cells(max_exponent + 1),
            squares: cells(max_exponent.max(1).ilog2() as usize + 1),
        }
    }

    /// The largest exponent these tables hold columns for.
    fn max_exponent(&self) -> usize {
        self.powers.len() / 2 - 1
    }

    /// The column `σ_k^e` over every point `k` of this size.
    ///
    /// # Panics
    ///
    /// Panics if `e` exceeds the exponent the tables were built for.
    pub fn powers(&self, e: usize) -> &[Complex] {
        self.column(e, false)
    }

    /// The column `conj(σ_k)^e` over every point `k` of this size.
    ///
    /// # Panics
    ///
    /// Panics if `e` exceeds the exponent the tables were built for.
    pub fn conj_powers(&self, e: usize) -> &[Complex] {
        self.column(e, true)
    }

    /// `Complex::powi(e)` starts from `acc = 1` and multiplies in its
    /// base `b_j` (the point squared `j` times) for each set bit `j` of
    /// `e`, lowest first. Its product before the highest bit `h` is
    /// therefore the column of `e − 2^h`, so the column of `e` is that
    /// column times `b_h`, point by point: the same products in the same
    /// order, each made once per table instead of once per column.
    fn column(&self, e: usize, conj: bool) -> &[Complex] {
        self.powers[2 * e + usize::from(conj)].get_or_init(|| {
            if e == 0 {
                return vec![Complex::ONE; self.sigmas.len()].into();
            }
            let h = e.ilog2() as usize;
            let rest = self.column(e - (1 << h), conj);
            rest.iter().zip(self.square(h, conj)).map(|(&a, &b)| a * b).collect()
        })
    }

    /// The bases `b_j` of [`SizeTables::column`]: `b_0` is the points
    /// themselves (conjugated or not), `b_j = b_{j−1}·b_{j−1}`.
    fn square(&self, j: usize, conj: bool) -> &[Complex] {
        self.squares[2 * j + usize::from(conj)].get_or_init(|| {
            if j == 0 {
                return self.sigmas.iter().map(|&s| if conj { s.conj() } else { s }).collect();
            }
            self.square(j - 1, conj).iter().map(|&b| b * b).collect()
        })
    }
}

impl SamplingRuntime {
    /// Builds the runtime a configuration asks for: a [`WorkerPool`] of
    /// `config.threads` workers (its threads spawn here, once) and an
    /// empty plan cache.
    pub fn new(config: &RefgenConfig) -> SamplingRuntime {
        SamplingRuntime { pool: WorkerPool::new(config.threads), plans: Arc::default() }
    }

    /// A per-variant worker runtime: a one-thread pool, which spawns
    /// nothing (a fleet parallelizes *across* variants, so each variant's
    /// own sampling must not nest threads),
    /// sharing **this** runtime's plan cache. Pivot searches, shared-plan
    /// hits, and compiled programs all accumulate on the parent.
    pub fn variant_worker(&self) -> SamplingRuntime {
        SamplingRuntime { pool: WorkerPool::new(1), plans: Arc::clone(&self.plans) }
    }

    /// The pool sampling batches and fleet variants fan out on.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The shared pivot-order cache window plans build through.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// Probe factorizations (full pivot searches) performed so far — the
    /// quantity plan sharing drives toward one per topology.
    pub fn pivot_searches(&self) -> usize {
        self.plans.pivot_searches()
    }

    /// Plan builds that reused a recorded pivot order instead of probing.
    pub fn shared_plan_hits(&self) -> usize {
        self.plans.shared_hits()
    }

    /// Ordering selections, each holding one compiled symbolic kernel
    /// (`FactorProgram`), recorded through the plan cache so far — like
    /// pivot searches, plan sharing drives this toward one per topology:
    /// one per plan cell whose growth gate fails, plus the anchor's own,
    /// for a whole fleet of same-topology variants. A recorded kernel is
    /// compiled only when the process-wide symbolic memo does not hold it
    /// already (`refgen_mna::SYMBOLIC_MEMO_BYTES`).
    pub fn programs_compiled(&self) -> usize {
        self.plans.programs_compiled()
    }
}

/// The window tables of interpolation size `k_points`, with power columns
/// up to at least `max_exponent`, built on the process's first request.
/// A request for a larger exponent than the recorded tables hold replaces
/// them with larger ones; windows still reading the old tables keep them,
/// and both hold the same bits.
pub(crate) fn window_tables(k_points: usize, max_exponent: usize) -> Arc<SizeTables> {
    static WINDOWS: Mutex<Vec<Option<Arc<SizeTables>>>> = Mutex::new(Vec::new());
    let lock = || WINDOWS.lock().unwrap_or_else(PoisonError::into_inner);
    let fits = |t: &&Arc<SizeTables>| t.max_exponent() >= max_exponent;
    if let Some(tables) = lock().get(k_points).and_then(Option::as_ref).filter(fits) {
        return Arc::clone(tables);
    }
    // Built outside the lock; a concurrent builder of the same size builds
    // the same values, and the first one recorded wins.
    let built = Arc::new(SizeTables::new(k_points, max_exponent));
    let mut windows = lock();
    if windows.len() <= k_points {
        windows.resize(k_points + 1, None);
    }
    let slot = &mut windows[k_points];
    match slot.as_ref().filter(fits) {
        Some(tables) => Arc::clone(tables),
        None => Arc::clone(slot.insert(built)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RefgenConfig;

    #[test]
    fn runtime_reflects_config() {
        let three = SamplingRuntime::new(&RefgenConfig::builder().threads(3).build());
        assert_eq!(three.pool().threads(), 3);
        assert_eq!(three.pivot_searches(), 0);
        let default = SamplingRuntime::new(&RefgenConfig::default());
        assert_eq!(default.pool().threads(), 1);
    }

    #[test]
    fn variant_worker_is_single_threaded_and_shares_plans() {
        let parent = SamplingRuntime::new(&RefgenConfig::builder().threads(4).build());
        let worker = parent.variant_worker();
        assert_eq!(worker.pool().threads(), 1);
        // Same cache object, not a copy.
        assert!(std::ptr::eq(parent.plan_cache() as *const _, worker.plan_cache() as *const _));
    }

    /// A request for a larger exponent than the recorded tables hold
    /// replaces them with larger tables of the same bits; smaller requests
    /// then read the larger ones, and the old tables stay valid. (`K` = 997
    /// is a size no other test of this process asks for.)
    #[test]
    fn window_tables_grow_for_a_larger_exponent() {
        let bits = |zs: &[Complex]| -> Vec<(u64, u64)> {
            zs.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let small = window_tables(997, 3);
        assert!(Arc::ptr_eq(&small, &window_tables(997, 2)));
        let large = window_tables(997, 40);
        assert!(!Arc::ptr_eq(&small, &large));
        assert!(Arc::ptr_eq(&large, &window_tables(997, 5)));
        for e in [0, 3] {
            assert_eq!(bits(small.conj_powers(e)), bits(large.conj_powers(e)));
        }
        let direct: Vec<Complex> = large.sigmas.iter().map(|s| s.powi(40)).collect();
        assert_eq!(bits(large.powers(40)), bits(&direct));
    }

    #[test]
    fn window_tables_are_shared_and_hold_the_direct_values() {
        let bits = |zs: &[Complex]| -> Vec<(u64, u64)> {
            zs.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for k_points in [1, 6, 7, 16, 49] {
            let tables = window_tables(k_points, 70);
            // One table per size for the whole process, every thread
            // included.
            let elsewhere = std::thread::spawn(move || window_tables(k_points, 70)).join();
            assert!(Arc::ptr_eq(&tables, &elsewhere.unwrap()));
            let sigmas = unit_circle_points(k_points);
            assert_eq!(bits(&tables.sigmas), bits(&sigmas));
            assert_eq!(tables.dft.len(), k_points);
            // Exponents 0..=70 in a scrambled order: each column is built
            // from lower ones and the shared squarings, whichever came
            // first, and must still be `powi`'s bits.
            for e in (0..=70).map(|i| (i * 37) % 71) {
                let direct: Vec<Complex> = sigmas.iter().map(|s| s.powi(e as i32)).collect();
                let conj: Vec<Complex> = sigmas.iter().map(|s| s.conj().powi(e as i32)).collect();
                assert_eq!(bits(tables.powers(e)), bits(&direct), "K={k_points}, e={e}");
                assert_eq!(bits(tables.conj_powers(e)), bits(&conj), "K={k_points}, e={e}");
                // Built once, then shared.
                let again = window_tables(k_points, e);
                assert!(std::ptr::eq(tables.powers(e), again.powers(e)));
            }
        }
    }
}
