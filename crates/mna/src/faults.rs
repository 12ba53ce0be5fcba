//! Deterministic fault injection for the sweep engine's recovery ladder.
//!
//! Real fleets die in ways a clean test corpus never exercises: a variant
//! whose perturbed values land on an exact zero pivot mid-replay, a NaN
//! creeping into a stamp, a worker that panics outright. This module
//! injects exactly those faults **deterministically**, so the containment
//! machinery ([`SweepPlan`](crate::SweepPlan)'s singular-recovery ladder,
//! `refgen_core`'s `FaultPolicy::Contain`, `refgen_exec`'s panic
//! quarantine) can be proven to degrade gracefully — and to leave every
//! *unfaulted* result bit-identical to a fault-free run.
//!
//! # Model
//!
//! A [`FaultPlan`] is a passive description: which fleet variants fail in
//! which way ([`FaultKind`]) and which evaluation points get NaN stamps.
//! Nothing fires until the plan is [`install`]ed (a process-global slot,
//! serialized across tests by a guard) **and** the executing thread has
//! armed a [`FaultScope`] naming the variant it is solving. Both gates exist for hygiene: an installed
//! plan cannot perturb unrelated tests running concurrently in the same
//! process, and un-scoped product code pays one relaxed atomic load per
//! query.

use refgen_numeric::Complex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};

/// How a faulted variant fails. Kinds are ordered by how deep into the
/// singular-recovery ladder they reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Prescribed-order replays (compiled kernel or recorded pivot order)
    /// report a singular pivot; the fresh value-aware Markowitz
    /// factorization is untouched, so the ladder recovers at rung 1.
    ReplayZeroPivot,
    /// Replays *and* fresh Markowitz factorizations report singular; the
    /// alternate-ordering recompile is untouched, so the ladder recovers
    /// at rung 2.
    FreshSingular,
    /// Every factorization path reports singular: the ladder is exhausted
    /// and the variant dies with a typed per-point failure.
    Singular,
    /// The variant's solve job panics before doing any work (quarantined
    /// under `FaultPolicy::Contain`, propagated under `FailFast`).
    Panic,
}

/// A seeded, deterministic description of what to break. See the
/// [module docs](self) for the firing rules.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    variants: BTreeMap<usize, FaultKind>,
    /// Bit patterns of evaluation points whose stamps are poisoned.
    nan_points: Vec<(u64, u64)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing until directives are added).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Marks fleet variant `variant` to fail as `kind`.
    #[must_use]
    pub fn fault_variant(mut self, variant: usize, kind: FaultKind) -> FaultPlan {
        self.variants.insert(variant, kind);
        self
    }

    /// Marks every variant in `variants` to fail as `kind`.
    #[must_use]
    pub fn fault_variants(mut self, variants: &[usize], kind: FaultKind) -> FaultPlan {
        for &v in variants {
            self.variants.insert(v, kind);
        }
        self
    }

    /// Poisons every matrix stamp of evaluations at exactly `s` (bit-wise
    /// match) with NaN — the injected-round-off scenario: the poisoned
    /// point reports a non-finite result and no other point changes.
    #[must_use]
    pub fn nan_stamp_at(mut self, s: Complex) -> FaultPlan {
        self.nan_points.push((s.re.to_bits(), s.im.to_bits()));
        self
    }

    /// Deterministically picks `count` distinct victim variants in
    /// `1..fleet` from `seed` (variant 0 is never picked: fleet sessions
    /// solve it first to warm the shared plan cache, and the containment
    /// oracle relies on that warm-up being identical with and without
    /// faults). Sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics unless `count < fleet` and `fleet > 1`.
    pub fn seeded_variants(seed: u64, fleet: usize, count: usize) -> Vec<usize> {
        assert!(fleet > 1 && count < fleet, "need count < fleet and fleet > 1");
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut picked: Vec<usize> = Vec::with_capacity(count);
        while picked.len() < count {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let idx = 1 + ((state >> 33) as usize) % (fleet - 1);
            if !picked.contains(&idx) {
                picked.push(idx);
            }
        }
        picked.sort_unstable();
        picked
    }
}

/// The process-global installed plan. `None` almost always; fault tests
/// hold the slot through an [`InstalledFaults`] guard.
static PLAN: RwLock<Option<FaultPlan>> = RwLock::new(None);
/// Fast-path gate: product code pays one relaxed load when no plan is
/// installed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Serializes installers: two fault tests in one test binary take turns
/// instead of clobbering each other's plan.
static INSTALL: Mutex<()> = Mutex::new(());

thread_local! {
    /// The variant index the current thread is solving, when inside a
    /// [`FaultScope`].
    static SCOPE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Holds an installed [`FaultPlan`] active; dropping it disarms and clears
/// the global slot. Also holds the installer serialization lock, so keep
/// the guard alive for exactly the duration of the faulted run.
#[must_use = "faults fire only while the guard is alive"]
pub struct InstalledFaults {
    _serial: MutexGuard<'static, ()>,
}

/// Installs `plan` as the process-global fault plan and arms injection.
/// Blocks until any previously installed plan is dropped (installers are
/// serialized). Directives still fire only on threads inside a
/// [`FaultScope`].
pub fn install(plan: FaultPlan) -> InstalledFaults {
    let serial = INSTALL.lock().unwrap_or_else(PoisonError::into_inner);
    *PLAN.write().unwrap_or_else(PoisonError::into_inner) = Some(plan);
    ARMED.store(true, Ordering::SeqCst);
    InstalledFaults { _serial: serial }
}

impl Drop for InstalledFaults {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *PLAN.write().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Arms fault directives for one variant on the current thread; dropping
/// the scope restores the previous arming (scopes nest).
pub struct FaultScope {
    prev: Option<usize>,
}

impl FaultScope {
    /// Enters the scope of fleet variant `index` on this thread.
    pub fn variant(index: usize) -> FaultScope {
        let prev = SCOPE.with(|s| s.replace(Some(index)));
        FaultScope { prev }
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        let prev = self.prev;
        SCOPE.with(|s| s.set(prev));
    }
}

/// The fault kind armed for the current thread's scope, if any.
fn active_kind() -> Option<FaultKind> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let variant = SCOPE.with(|s| s.get())?;
    PLAN.read()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .and_then(|p| p.variants.get(&variant).copied())
}

/// `true` when prescribed-order replays must report a singular pivot.
pub fn poison_replay() -> bool {
    matches!(
        active_kind(),
        Some(FaultKind::ReplayZeroPivot | FaultKind::FreshSingular | FaultKind::Singular)
    )
}

/// `true` when fresh Markowitz factorizations must report singular.
pub fn poison_fresh() -> bool {
    matches!(active_kind(), Some(FaultKind::FreshSingular | FaultKind::Singular))
}

/// `true` when the alternate-ordering recompile must report singular too.
pub fn poison_alternate() -> bool {
    matches!(active_kind(), Some(FaultKind::Singular))
}

/// `true` when the current variant's job is scripted to panic.
pub fn scripted_panic() -> bool {
    matches!(active_kind(), Some(FaultKind::Panic))
}

/// Poisons an evaluation point listed in the plan's NaN-stamp set: since
/// `NaN·0 = NaN` in IEEE arithmetic, returning an all-NaN `s` turns
/// **every** affine stamp `k₀ + s·k₁` non-finite, exactly as if the stamp
/// values themselves were corrupted. Unlisted (or un-scoped) points pass
/// through untouched.
pub fn poison_point(s: Complex) -> Complex {
    if !ARMED.load(Ordering::Relaxed) {
        return s;
    }
    if SCOPE.with(|sc| sc.get()).is_none() {
        return s;
    }
    let key = (s.re.to_bits(), s.im.to_bits());
    let hit = PLAN
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .is_some_and(|p| p.nan_points.contains(&key));
    if hit {
        Complex::new(f64::NAN, f64::NAN)
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_process_injects_nothing() {
        // No install, no scope: every query is inert.
        assert!(!poison_replay());
        assert!(!poison_fresh());
        assert!(!poison_alternate());
        assert!(!scripted_panic());
        let s = Complex::new(0.25, -1.5);
        assert_eq!(poison_point(s), s);
    }

    #[test]
    fn directives_fire_only_inside_matching_scope() {
        let plan = FaultPlan::new()
            .fault_variant(3, FaultKind::ReplayZeroPivot)
            .fault_variant(5, FaultKind::Singular)
            .nan_stamp_at(Complex::new(1.0, 2.0));
        let _guard = install(plan);
        // Armed but un-scoped: still inert.
        assert!(!poison_replay());
        {
            let _scope = FaultScope::variant(3);
            assert!(poison_replay());
            assert!(!poison_fresh());
            assert!(!poison_alternate());
            assert!(poison_point(Complex::new(1.0, 2.0)).re.is_nan());
            let clean = Complex::new(1.0, 2.000000001);
            assert_eq!(poison_point(clean), clean);
            {
                let _inner = FaultScope::variant(5);
                assert!(poison_replay() && poison_fresh() && poison_alternate());
            }
            // Scope nesting restored.
            assert!(poison_replay() && !poison_fresh());
        }
        assert!(!poison_replay());
    }

    #[test]
    fn seeded_victims_are_deterministic_and_never_variant_zero() {
        let a = FaultPlan::seeded_variants(42, 64, 4);
        let b = FaultPlan::seeded_variants(42, 64, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted, distinct: {a:?}");
        assert!(a.iter().all(|&v| (1..64).contains(&v)), "never variant 0: {a:?}");
        let c = FaultPlan::seeded_variants(43, 64, 4);
        assert_ne!(a, c, "different seeds pick different victims");
    }

    #[test]
    fn install_guard_disarms_on_drop() {
        {
            let _guard = install(FaultPlan::new().fault_variant(0, FaultKind::Panic));
            let _scope = FaultScope::variant(0);
            assert!(scripted_panic());
        }
        let _scope = FaultScope::variant(0);
        assert!(!scripted_panic());
    }
}
