//! Batched evaluation of one window's unit-circle samples — the execute
//! half of the plan/execute sampling engine.
//!
//! [`interpolate_window`](crate::window::interpolate_window) builds one
//! [`BatchSampler`] per sampled window: a compiled
//! [`SweepPlan`](refgen_mna::SweepPlan) for the window's
//! `(MnaSystem, Scale)` pair, shared read-only across
//! [`WorkerPool::par_map_indexed`](refgen_exec::WorkerPool::par_map_indexed)
//! workers that each own a
//! [`SweepScratch`](refgen_mna::SweepScratch). It samples the determinant,
//! the numerator, or — for the opening windows both polynomials share —
//! both from one transfer evaluation per point
//! ([`BatchSampler::sample_transfer`]). Five properties matter:
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
//! * **Lane batching** — with `config.lane_width > 1` the solved points
//!   are chunked into lane-width groups, each group replayed through the
//!   compiled kernel in **one** instruction-stream traversal
//!   ([`SweepPlan::eval_batch`] / [`SweepPlan::eval_det_batch`], which
//!   stamp `K₀ + σ·K₁` point-major from the plan's coefficient arrays in
//!   one vector pass); per live lane the batched replay performs the exact
//!   scalar operation sequence of a one-point evaluation and dead lanes
//!   fall back to it verbatim, so output is bit-identical at every lane
//!   width. Batching composes
//!   with, and is orthogonal to, threading: chunks fan out across the
//!   same pool.
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
    MnaError, MnaSystem, OrderingChoice, Scale, SweepBatchScratch, SweepPlan, SweepScratch,
    SweepStats, TransferResponse, TransferSpec,
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

/// One point's sample; a mirrored point takes its partner's conjugate.
trait Sample: Clone + Send {
    fn conj(self) -> Self;
}

impl Sample for ExtComplex {
    fn conj(self) -> Self {
        // Exact: conjugation only negates the mantissa's imaginary
        // component.
        ExtComplex::conj(self)
    }
}

impl Sample for Result<ExtComplex, MnaError> {
    fn conj(self) -> Self {
        self.map(ExtComplex::conj)
    }
}

impl Sample for (ExtComplex, Result<ExtComplex, MnaError>) {
    fn conj(self) -> Self {
        (self.0.conj(), self.1.conj())
    }
}

/// A transfer evaluation split into the two polynomials' samples: the
/// denominator `D(σ)` (`ExtComplex::ZERO` where every recovery rung
/// failed — exactly what [`SweepPlan::eval_det`] reports there) and the
/// numerator `N(σ)` or the point's error.
fn split(r: Result<TransferResponse, MnaError>) -> (ExtComplex, Result<ExtComplex, MnaError>) {
    match r {
        Ok(t) => (t.denominator, Ok(t.numerator)),
        Err(e) => (ExtComplex::ZERO, Err(e)),
    }
}

/// A window's sampling plan: evaluates the network function at scaled
/// unit-circle points, in parallel, deterministically.
pub(crate) struct BatchSampler {
    plan: SweepPlan,
    /// Conjugate-pair halving is active: the configuration asked for it
    /// and the plan's pattern/RHS are real.
    mirror: bool,
    /// Lane width for batched replay (`config.lane_width`):
    /// solved points are chunked into groups of this size, each group
    /// driven through one instruction-stream traversal. `1` keeps the
    /// per-point path; results are bit-identical at every width.
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
        Ok(BatchSampler { plan, mirror, lanes })
    }

    /// The plan's pivot-ordering decision with the system dimension, for
    /// the ordering diagnostic (`None` when the probe was singular and no
    /// order could be recorded).
    pub fn ordering(&self) -> Option<(usize, OrderingChoice)> {
        self.plan.ordering_choice().map(|c| (self.plan.dim(), c))
    }

    /// The determinant `D(σ)` at every σ of `tables` (a singular point is
    /// a legitimate zero sample).
    pub fn sample_det(
        &self,
        tables: &SizeTables,
        runtime: &SamplingRuntime,
    ) -> (Vec<ExtComplex>, BatchRun) {
        self.sample(tables, runtime, SweepPlan::eval_det, SweepPlan::eval_det_batch)
    }

    /// The numerator `N(σ)` at every σ of `tables`.
    ///
    /// # Errors
    ///
    /// The lowest-index point's [`MnaError`], if any point fails. A
    /// mirrored point inherits its partner's failure.
    pub fn sample_numerator(
        &self,
        tables: &SizeTables,
        runtime: &SamplingRuntime,
    ) -> Result<(Vec<ExtComplex>, BatchRun), RefgenError> {
        let (values, run) = self.sample(
            tables,
            runtime,
            |plan, s, scratch| plan.eval_at(s, scratch).map(|t| t.numerator),
            |plan, chunk, scratch| {
                plan.eval_batch(chunk, scratch)
                    .into_iter()
                    .map(|r| r.map(|t| t.numerator))
                    .collect()
            },
        );
        let values = values.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok((values, run))
    }

    /// Both polynomials at every σ of `tables` from **one** transfer
    /// evaluation per solved point: the denominator samples (bit for bit
    /// what [`BatchSampler::sample_det`] gives — the transfer's
    /// factorization *is* the determinant's, accounting included) and the
    /// numerator samples with their per-point errors, in σ order.
    pub fn sample_transfer(
        &self,
        tables: &SizeTables,
        runtime: &SamplingRuntime,
    ) -> (Vec<ExtComplex>, Vec<Result<ExtComplex, MnaError>>, BatchRun) {
        let (values, run) = self.sample(
            tables,
            runtime,
            |plan, s, scratch| split(plan.eval_at(s, scratch)),
            |plan, chunk, scratch| plan.eval_batch(chunk, scratch).into_iter().map(split).collect(),
        );
        let (den, num) = values.into_iter().unzip();
        (den, num, run)
    }

    /// Evaluates every σ of `tables` on the runtime's pool, `one`
    /// point at a time at lane width 1 and `batch` per lane group
    /// otherwise, returning samples in σ order. With mirroring active,
    /// only the size's solve list is evaluated and the rest mirrored.
    fn sample<T: Sample>(
        &self,
        tables: &SizeTables,
        runtime: &SamplingRuntime,
        one: impl Fn(&SweepPlan, Complex, &mut SweepScratch) -> T + Sync,
        batch: impl Fn(&SweepPlan, &[Complex], &mut SweepBatchScratch) -> Vec<T> + Sync,
    ) -> (Vec<T>, BatchRun) {
        let solve: &[Complex] = if self.mirror { &tables.conjugate.solve } else { &tables.sigmas };
        let pool = runtime.pool();
        // Reported per point regardless of lane chunking, so diagnostics
        // stay bit-identical across lane widths.
        let threads = refgen_exec::effective_threads(pool.threads(), solve.len());
        let plan = &self.plan;
        let mut counters = SweepStats::default();
        let mut count = |job: SweepStats| counters = counters + job;
        let values: Vec<T> = if self.lanes > 1 {
            // Batched replay: chunk the solve list into lane-width groups,
            // each group one instruction-stream traversal through the
            // compiled kernel. Per live lane the replay performs the exact
            // scalar operation sequence of the per-point path, and dead
            // lanes fall back to it verbatim, so every value (and every
            // counter) below is bit-identical to the `lanes == 1` branch.
            let chunks: Vec<&[Complex]> = solve.chunks(self.lanes).collect();
            let per_chunk: Vec<(Vec<T>, SweepStats)> =
                pool.par_map_indexed(&chunks, SweepBatchScratch::new, |_, chunk, scratch| {
                    let before = scratch.stats();
                    let values = batch(plan, chunk, scratch);
                    (values, scratch.stats() - before)
                });
            per_chunk
                .into_iter()
                .flat_map(|(values, job)| {
                    count(job);
                    values
                })
                .collect()
        } else {
            let per_point: Vec<(T, SweepStats)> =
                pool.par_map_indexed(solve, SweepScratch::new, |_, &sigma, scratch| {
                    let before = scratch.stats();
                    let value = one(plan, sigma, scratch);
                    (value, scratch.stats() - before)
                });
            per_point
                .into_iter()
                .map(|(value, job)| {
                    count(job);
                    value
                })
                .collect()
        };

        let mut mirrored = 0u64;
        let samples = if self.mirror {
            let roles = &tables.conjugate.roles;
            roles
                .iter()
                .map(|role| match *role {
                    Role::Direct(k) => values[k].clone(),
                    Role::Mirror(k) => {
                        mirrored += 1;
                        values[k].clone().conj()
                    }
                })
                .collect()
        } else {
            values
        };
        (samples, (threads, counters, mirrored))
    }
}
