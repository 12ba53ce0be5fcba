//! Shared sampling resources for one solve — or one fleet of solves.
//!
//! Two costs of the plan/execute sampling engine are worth paying **once**
//! rather than per window:
//!
//! * **worker threads** — under
//!   [`ExecutorKind::Pool`](refgen_exec::ExecutorKind::Pool) the runtime
//!   owns a persistent `refgen_exec::WorkerPool`, so the per-window
//!   scoped-thread spawn/join (~100 µs at 4 workers) disappears from the
//!   steady state;
//! * **pivot searches** — the runtime's [`PlanCache`] shares recorded
//!   pivot orders between window plans built at nearby scales, so a
//!   verify re-interpolation (±0.2 decades) and every same-topology
//!   variant of a batch session replay one recorded order instead of
//!   probing their own;
//! * **per-size window tables** — every interpolation of `K` points uses
//!   the same unit-circle points `σ_k`, the same [`Dft`] plan and, under
//!   the eq. (17) reduction, the same power columns `σ_k^i` (subtracting
//!   the known coefficient `i`) and `conj(σ_k)^{k_lo}` (the shift down to
//!   the lowest unknown), and the same conjugate-pair partition of the
//!   points into solved and mirrored ones. The runtime builds them once
//!   per `K`, each power column on first use, and every later window of
//!   that size — the verify re-interpolation and every variant of a fleet
//!   included — reads them.
//!
//! A [`SamplingRuntime`] is created per [`Session::solve`](crate::Session)
//! by default, which already amortizes across every window of both
//! polynomials. A [`BatchSession`](crate::BatchSession) creates **one**
//! runtime for its whole fleet — that is the "one pivot search per
//! topology, threads spawned once" configuration the batch engine exists
//! for. Sharing never changes results: executors collect in index order,
//! pivot-order replay is value-exact and a cached table holds exactly the
//! values a window would compute for itself, so solver output is
//! bit-identical with or without a shared runtime, at any thread count,
//! under either executor kind.

use crate::batch::ConjugateRoles;
use crate::config::RefgenConfig;
use refgen_exec::Executor;
use refgen_mna::PlanCache;
use refgen_numeric::dft::{unit_circle_points, Dft};
use refgen_numeric::Complex;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, PoisonError};

/// Executor, plan cache and per-size window tables shared by every
/// sampling batch of one solve (or one batch session). See the
/// [module docs](self).
///
/// The plan cache and the window tables sit behind one [`Arc`] so a fleet
/// session can hand each variant worker its own
/// [`SamplingRuntime::variant_worker`] runtime — single-threaded inside,
/// but planning through the **same** cache and reading the **same**
/// tables as every other worker.
#[derive(Debug)]
pub struct SamplingRuntime {
    executor: Executor,
    shared: Arc<Shared>,
}

/// What every runtime derived from one [`SamplingRuntime::new`] shares.
#[derive(Debug, Default)]
struct Shared {
    plans: PlanCache,
    /// Per-size window tables, keyed by the interpolation size `K`.
    windows: Mutex<HashMap<usize, Arc<SizeTables>>>,
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
    /// Power columns by `(exponent, conjugated)`: `σ_k.powi(e)` or
    /// `σ_k.conj().powi(e)` for every point `k`, each built on first use.
    powers: Mutex<HashMap<(usize, bool), Column>>,
}

/// One value per interpolation point, shared between windows.
type Column = Arc<[Complex]>;

impl SizeTables {
    /// The column `σ_k^e` over every point `k` of this size.
    pub fn powers(&self, e: usize) -> Column {
        self.column(e, false)
    }

    /// The column `conj(σ_k)^e` over every point `k` of this size.
    pub fn conj_powers(&self, e: usize) -> Column {
        self.column(e, true)
    }

    fn column(&self, e: usize, conj: bool) -> Column {
        cached(&self.powers, (e, conj), || {
            self.sigmas.iter().map(|&s| if conj { s.conj() } else { s }.powi(e as i32)).collect()
        })
    }
}

/// The value under `key`, built by `build` outside the lock on first use.
/// A concurrent builder of the same key computes the same value, and the
/// first insert wins. The map only ever receives finished values, so a
/// lock poisoned by a panicking builder still guards valid entries.
fn cached<K: Eq + Hash, V: Clone>(
    map: &Mutex<HashMap<K, V>>,
    key: K,
    build: impl FnOnce() -> V,
) -> V {
    let lock = || map.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(value) = lock().get(&key) {
        return value.clone();
    }
    let value = build();
    lock().entry(key).or_insert(value).clone()
}

impl SamplingRuntime {
    /// Builds the runtime a configuration asks for: an
    /// [`Executor`] of `config.executor` kind with `config.threads`
    /// workers (pool threads spawn here, once), an empty plan cache and no
    /// window tables yet.
    pub fn new(config: &RefgenConfig) -> SamplingRuntime {
        SamplingRuntime {
            executor: Executor::new(config.executor, config.threads),
            shared: Arc::default(),
        }
    }

    /// A per-variant worker runtime: a single-threaded scoped executor
    /// (the variant-major fleet path parallelizes *across* variants, so
    /// each variant's own sampling must not nest threads) sharing **this**
    /// runtime's plan cache and window tables. Pivot searches, shared-plan
    /// hits, and compiled programs all accumulate on the parent.
    pub fn variant_worker(&self) -> SamplingRuntime {
        SamplingRuntime { executor: Executor::scoped(1), shared: Arc::clone(&self.shared) }
    }

    /// The executor sampling batches fan out on.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The shared pivot-order cache window plans build through.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.shared.plans
    }

    /// The window tables of interpolation size `k_points`, built on first
    /// request.
    pub(crate) fn window_tables(&self, k_points: usize) -> Arc<SizeTables> {
        cached(&self.shared.windows, k_points, || {
            let sigmas = unit_circle_points(k_points);
            let conjugate = ConjugateRoles::new(&sigmas);
            Arc::new(SizeTables {
                sigmas,
                dft: Dft::new(k_points),
                conjugate,
                powers: Mutex::default(),
            })
        })
    }

    /// Probe factorizations (full pivot searches) performed so far — the
    /// quantity plan sharing drives toward one per topology.
    pub fn pivot_searches(&self) -> usize {
        self.shared.plans.pivot_searches()
    }

    /// Plan builds that reused a recorded pivot order instead of probing.
    pub fn shared_plan_hits(&self) -> usize {
        self.shared.plans.shared_hits()
    }

    /// Compiled symbolic kernels (`FactorProgram`s) built through the
    /// plan cache so far — like pivot searches, plan sharing drives this
    /// toward one per topology per scale region: a whole fleet of
    /// same-topology variants compiles once.
    pub fn programs_compiled(&self) -> usize {
        self.shared.plans.programs_compiled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RefgenConfig;
    use refgen_exec::ExecutorKind;

    #[test]
    fn runtime_reflects_config() {
        let scoped = SamplingRuntime::new(
            &RefgenConfig::builder().threads(3).executor(ExecutorKind::Scoped).build(),
        );
        assert!(!scoped.executor().is_pool());
        assert_eq!(scoped.executor().threads(), 3);
        assert_eq!(scoped.pivot_searches(), 0);

        let pooled = SamplingRuntime::new(
            &RefgenConfig::builder().threads(2).executor(ExecutorKind::Pool).build(),
        );
        assert!(pooled.executor().is_pool());
        assert_eq!(pooled.executor().threads(), 2);
    }

    #[test]
    fn variant_worker_is_single_threaded_and_shares_plans() {
        let parent = SamplingRuntime::new(
            &RefgenConfig::builder().threads(4).executor(ExecutorKind::Pool).build(),
        );
        let worker = parent.variant_worker();
        assert!(!worker.executor().is_pool());
        assert_eq!(worker.executor().threads(), 1);
        // Same cache object, not a copy.
        assert!(std::ptr::eq(parent.plan_cache() as *const _, worker.plan_cache() as *const _));
    }

    #[test]
    fn window_tables_are_shared_and_hold_the_direct_values() {
        let parent = SamplingRuntime::new(&RefgenConfig::default());
        let worker = parent.variant_worker();
        let bits = |zs: &[Complex]| -> Vec<(u64, u64)> {
            zs.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for k_points in [1, 6, 7, 16] {
            let tables = parent.window_tables(k_points);
            // One table per size, reached from every derived runtime.
            assert!(Arc::ptr_eq(&tables, &worker.window_tables(k_points)));
            let sigmas = unit_circle_points(k_points);
            assert_eq!(bits(&tables.sigmas), bits(&sigmas));
            assert_eq!(tables.dft.len(), k_points);
            for e in [0, 1, 3, 11] {
                let direct: Vec<Complex> = sigmas.iter().map(|s| s.powi(e as i32)).collect();
                let conj: Vec<Complex> = sigmas.iter().map(|s| s.conj().powi(e as i32)).collect();
                assert_eq!(bits(&tables.powers(e)), bits(&direct), "K={k_points}, e={e}");
                assert_eq!(bits(&tables.conj_powers(e)), bits(&conj), "K={k_points}, e={e}");
                // Built once, then shared.
                let again = worker.window_tables(k_points).powers(e);
                assert!(Arc::ptr_eq(&tables.powers(e), &again));
            }
        }
    }
}
