//! Batched evaluation of one window's unit-circle samples — the execute
//! half of the plan/execute sampling engine.
//!
//! [`interpolate_window`](crate::window::interpolate_window) builds one
//! [`BatchSampler`] per sampled window: a compiled
//! [`SweepPlan`](refgen_mna::SweepPlan) for the window's
//! `(MnaSystem, Scale)` pair, shared read-only across
//! [`WorkerPool::par_map_indexed`](refgen_exec::WorkerPool::par_map_indexed)
//! workers that each own a
//! [`SweepBatchScratch`](refgen_mna::SweepBatchScratch). Its one method,
//! [`BatchSampler::sample`], runs one loop. It yields `D(σ)` from a
//! determinant-only plan, and `D(σ)` with `N(σ)` from one transfer
//! evaluation per point from a transfer plan (the opening windows the
//! two polynomials share, and every numerator window). Five properties
//! matter:
//!
//! * **Pivot-order reuse** — the plan records one pivot order at build
//!   time and compiles a `FactorProgram` from it; every sample is a flat
//!   instruction-stream replay into the worker's reused scratch (no pivot
//!   search, no sorting/searching/insertion, no steady-state allocation).
//!   This holds at `threads = 1` too: the sequential path is the same code
//!   with one worker.
//! * **Conjugate-pair halving** — when the plan's pattern and RHS are real
//!   ([`SweepPlan::conjugate_symmetric`]) and the configuration allows it,
//!   only the closed upper half of the window's conjugate-paired σ set is
//!   solved; every lower-half point is the exact complex conjugate of its
//!   partner. IEEE arithmetic is conjugate-equivariant and
//!   `unit_circle_points` generates the pairs bit-exactly, so mirrored
//!   output is **bit-identical** to the full sweep — only wall-clock
//!   changes (`conjugate_mirror = false` forces the full sweep).
//!   The partition depends on the window size `K` alone, so it is built
//!   once per size ([`ConjugateRoles`], held by the runtime's window
//!   tables).
//! * **Lane batching** — the solved points are chunked into
//!   `config.lane_width` groups, each group through **one** call of the
//!   compiled kernel's batched pass ([`SweepPlan::eval_batch`] /
//!   [`SweepPlan::eval_det_batch`], which stamp `K₀ + σ·K₁` from the
//!   plan's coefficient arrays, replay and solve one block of eight lanes
//!   after another); per live lane the batched replay performs the exact
//!   scalar operation sequence of a one-point evaluation, dead lanes
//!   fall back to it verbatim, and a one-point group (every group at lane
//!   width `1`) takes the one-point path outright, so output is
//!   bit-identical at every lane width. Batching composes with, and is
//!   orthogonal to, threading: groups fan out across the same pool.
//! * **Determinism** — every sample is a pure function of `(plan, σ)`,
//!   mirroring depends only on the σ values, and results are collected
//!   in index order, so solver output is bit-identical at any thread
//!   count.
//! * **Honest accounting** — the batch reports its solved points'
//!   [`SweepStats`] (compiled replays, fresh factorizations and ladder
//!   rescues), the worker threads it used and how many points were
//!   mirrored ([`BatchRun`]), surfaced as
//!   [`Diagnostic::SamplingBatched`](crate::Diagnostic) through the normal
//!   emit path.

use crate::config::RefgenConfig;
use crate::error::RefgenError;
use crate::runtime::{SamplingRuntime, SizeTables};
use refgen_mna::{
    MnaError, MnaSystem, OrderingChoice, Scale, SweepBatchScratch, SweepPlan, SweepStats,
    TransferResponse, TransferSpec,
};
use refgen_numeric::{Complex, ExtComplex};
use std::collections::HashMap;

/// How one batch ran: the worker threads it reports
/// (`min(threads, solved points)` after resolving `threads = 0`, counted
/// per point rather than per lane chunk, so the figure is independent of
/// `lane_width`), its solved points' accounting, and the points mirrored
/// from a conjugate partner instead of solved.
pub(crate) type BatchRun = (usize, SweepStats, u64);

/// How one requested σ point is obtained: solved directly (index into the
/// solve list) or mirrored from a solved conjugate partner.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Role {
    Direct(usize),
    Mirror(usize),
}

/// The conjugate-pair partition of one σ set: a fixed function of the σ
/// values alone, so it is identical at any thread count — and, since every window of size `K` samples the same
/// [`unit_circle_points`](refgen_numeric::dft::unit_circle_points), built
/// once per size.
#[derive(Debug)]
pub(crate) struct ConjugateRoles {
    /// The points to solve: the closed upper half-circle in first-seen
    /// order, then any lower-half point without an exact partner.
    pub solve: Vec<Complex>,
    /// Per σ point, in order, where its sample comes from.
    pub roles: Vec<Role>,
}

impl ConjugateRoles {
    pub fn new(sigmas: &[Complex]) -> ConjugateRoles {
        let bits = |s: Complex| (s.re.to_bits(), s.im.to_bits());
        let mut solve: Vec<Complex> = Vec::with_capacity(sigmas.len());
        let mut upper: HashMap<(u64, u64), usize> = HashMap::with_capacity(sigmas.len());
        for &s in sigmas {
            if s.im >= 0.0 {
                upper.entry(bits(s)).or_insert_with(|| {
                    solve.push(s);
                    solve.len() - 1
                });
            }
        }
        let roles = sigmas
            .iter()
            .map(|&s| {
                if s.im >= 0.0 {
                    Role::Direct(upper[&bits(s)])
                } else if let Some(&k) = upper.get(&bits(s.conj())) {
                    Role::Mirror(k)
                } else {
                    // No exact partner in the set (not a conjugate-paired
                    // grid): solve it directly.
                    solve.push(s);
                    Role::Direct(solve.len() - 1)
                }
            })
            .collect();
        ConjugateRoles { solve, roles }
    }
}

/// One σ point's samples: `D(σ)` (`ExtComplex::ZERO` where every
/// recovery rung failed — exactly what [`SweepPlan::eval_det`] reports
/// there) and, from a transfer plan, `N(σ)` or the point's error.
type PointSample = (ExtComplex, Option<Result<ExtComplex, MnaError>>);

/// A transfer evaluation as the point's two samples.
fn split(r: Result<TransferResponse, MnaError>) -> PointSample {
    match r {
        Ok(t) => (t.denominator, Some(Ok(t.numerator))),
        Err(e) => (ExtComplex::ZERO, Some(Err(e))),
    }
}

/// The samples at the conjugate point. Exact: conjugation only negates
/// the mantissa's imaginary component, and an error carries over.
fn conj((den, num): PointSample) -> PointSample {
    (den.conj(), num.map(|n| n.map(ExtComplex::conj)))
}

/// A window's sampling plan: evaluates the network function at scaled
/// unit-circle points, in parallel, deterministically.
pub(crate) struct BatchSampler {
    plan: SweepPlan,
    /// The plan evaluates the transfer (it was built with a spec), so
    /// every point yields `N(σ)` next to `D(σ)`.
    transfer: bool,
    /// Conjugate-pair halving is active: the configuration asked for it
    /// and the plan's pattern/RHS are real.
    mirror: bool,
    /// Lane width for batched replay (`config.lane_width`): solved points
    /// are chunked into groups of this size, each group driven through
    /// one call of the batched pass (a one-point group replays the
    /// one-point path). Results are bit-identical at every width.
    lanes: usize,
}

impl BatchSampler {
    /// Compiles the plan for one window of `sys` at `scale` — a
    /// determinant-only plan without a `spec` (a denominator-only solve
    /// may have no resolvable source at all), a transfer plan with one —
    /// sharing pivot orders *and compiled symbolic kernels* through the
    /// runtime's plan cache (one probe + one `FactorProgram` for the
    /// anchor of each topology, and one more per plan cell whose growth
    /// gate fails — every other window, verify re-interpolations and
    /// batch-session variants reuse both).
    pub fn new(
        sys: &MnaSystem,
        spec: Option<&TransferSpec>,
        scale: Scale,
        config: &RefgenConfig,
        runtime: &SamplingRuntime,
    ) -> Result<BatchSampler, RefgenError> {
        let cache = runtime.plan_cache();
        let plan = match spec {
            None => {
                SweepPlan::for_determinant_cached_with_ordering(sys, scale, cache, config.ordering)
            }
            Some(spec) => {
                SweepPlan::new_cached_with_ordering(sys, scale, spec, cache, config.ordering)?
            }
        };
        let mirror = config.conjugate_mirror && plan.conjugate_symmetric();
        let lanes = config.lane_width.max(1);
        Ok(BatchSampler { plan, transfer: spec.is_some(), mirror, lanes })
    }

    /// The plan's pivot-ordering decision with the system dimension, for
    /// the ordering diagnostic (`None` when the probe was singular and no
    /// order could be recorded).
    pub fn ordering(&self) -> Option<(usize, OrderingChoice)> {
        self.plan.ordering_choice().map(|c| (self.plan.dim(), c))
    }

    /// Samples every σ of `tables` on the runtime's pool, in σ order: the
    /// denominator `D(σ)` (a singular point is a legitimate zero sample)
    /// and, from a transfer plan, the numerator `N(σ)` or the point's
    /// error — both from **one** transfer evaluation per solved point,
    /// whose factorization *is* the determinant's, accounting included.
    /// A determinant-only plan returns no numerator samples.
    ///
    /// The solve list — with mirroring active, the size's closed upper
    /// half-circle; otherwise every σ — is chunked into lane-width
    /// groups, each group one [`SweepPlan::eval_batch`] /
    /// [`SweepPlan::eval_det_batch`] call, and every other point is
    /// mirrored from its solved partner (a mirrored point inherits its
    /// partner's failure).
    pub fn sample(
        &self,
        tables: &SizeTables,
        runtime: &SamplingRuntime,
    ) -> (Vec<ExtComplex>, Vec<Result<ExtComplex, MnaError>>, BatchRun) {
        let solve: &[Complex] = if self.mirror { &tables.conjugate.solve } else { &tables.sigmas };
        let pool = runtime.pool();
        // Reported per point regardless of lane chunking, so diagnostics
        // stay bit-identical across lane widths.
        let threads = refgen_exec::effective_threads(pool.threads(), solve.len());
        let plan = &self.plan;
        let chunks: Vec<&[Complex]> = solve.chunks(self.lanes).collect();
        let per_chunk: Vec<(Vec<PointSample>, SweepStats)> =
            pool.par_map_indexed(&chunks, SweepBatchScratch::new, |_, chunk, scratch| {
                let before = scratch.stats();
                let values = if self.transfer {
                    plan.eval_batch(chunk, scratch).into_iter().map(split).collect()
                } else {
                    plan.eval_det_batch(chunk, scratch).into_iter().map(|d| (d, None)).collect()
                };
                (values, scratch.stats() - before)
            });
        let mut counters = SweepStats::default();
        let mut values = Vec::with_capacity(solve.len());
        for (chunk, job) in per_chunk {
            counters = counters + job;
            values.extend(chunk);
        }

        let mut mirrored = 0u64;
        let samples: Vec<PointSample> = if self.mirror {
            let roles = &tables.conjugate.roles;
            roles
                .iter()
                .map(|role| match *role {
                    Role::Direct(k) => values[k].clone(),
                    Role::Mirror(k) => {
                        mirrored += 1;
                        conj(values[k].clone())
                    }
                })
                .collect()
        } else {
            values
        };
        let (den, num): (Vec<_>, Vec<_>) = samples.into_iter().unzip();
        (den, num.into_iter().flatten().collect(), (threads, counters, mirrored))
    }
}
