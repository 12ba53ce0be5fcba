//! The outside-in layer trace.
//!
//! Spans here are taken in the benchmark's own code, around calls into the
//! library's public API; nothing inside the library is instrumented. A
//! traced operation runs in three parts:
//!
//! 1. **front end** — the netlist text is parsed (and, for a fleet, the
//!    seeded variants generated);
//! 2. **engine** — the same public call the untraced operation makes
//!    (`Session::solve`, `BatchSession::solve_all`, the AC sweep, the
//!    transient run), timed as one span, with the counts the library
//!    reports for it: plan-cache misses (pivot searches) and hits,
//!    compiled programs, solved and mirrored points, compiled replays;
//! 3. **layer replay** — the engine's lower layers are called again, one by
//!    one, on the same inputs and in the engine's order: MNA assembly
//!    (`MnaSystem::new`), planning (`SweepPlan` / `TransientPlan`: affine
//!    pattern extraction, pivot ordering, program compilation, through a
//!    plan cache like the engine's), and compiled replay + solve at the
//!    points the engine evaluated. Each gets a span.
//!
//! `attributed_share` is the replayed layers' time over the engine span:
//! what is left (interpolation control, IDFT, validity, waveform recording)
//! is the engine's own time. The replay follows the public API, so a
//! change that moves work between layers inside the engine shows in the
//! engine span and the counts first, and in the replayed layers only once
//! the public calls change too.

use crate::median;
use refgen::circuit::Circuit;
use refgen::core::{Diagnostic, PolyKind, RefgenConfig, SamplingRuntime, Solution};
use refgen::mna::{MnaSystem, PlanCache, SweepBatchScratch, SweepPlan, TransferSpec};
use refgen::numeric::dft::unit_circle_points;
use refgen::numeric::Complex;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Spans and counts of one traced operation.
#[derive(Clone, Debug, Default)]
pub struct OpTrace {
    pub front_end: Duration,
    pub engine: Duration,
    pub mna: Duration,
    pub plan: Duration,
    pub replay: Duration,
    /// Sampling plans the engine built (one per interpolation window).
    pub plans_built: u64,
    /// Plan-cache misses: full Markowitz pivot searches.
    pub pivot_searches: u64,
    /// Plan builds that reused a cached pivot order.
    pub cache_hits: u64,
    pub programs_compiled: u64,
    /// Points the engine solved (mirrored points excluded).
    pub solves: u64,
    /// Points taken as the conjugate of a solved partner.
    pub mirrored: u64,
    /// Solves served by a compiled elimination program.
    pub compiled_hits: u64,
    /// Σ over replayed solves of the program's instruction count.
    pub kernel_ops: u64,
    /// Solves performed by the layer replay.
    pub kernel_solves: u64,
}

impl OpTrace {
    /// Runs `f` and adds its duration to the span `pick` selects.
    pub fn span<T>(&mut self, pick: fn(&mut OpTrace) -> &mut Duration, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        *pick(self) += t0.elapsed();
        out
    }

    /// Adds the plan-cache counters of `runtime`.
    pub fn count_runtime(&mut self, runtime: &SamplingRuntime) {
        self.pivot_searches += runtime.pivot_searches() as u64;
        self.cache_hits += runtime.shared_plan_hits() as u64;
        self.programs_compiled += runtime.programs_compiled() as u64;
    }

    /// Adds the sampling counters `solution` recorded, one
    /// `SamplingBatched` event per interpolation window.
    pub fn count_solution(&mut self, solution: &Solution) {
        for d in solution.diagnostics() {
            if let Diagnostic::SamplingBatched { points, compiled_hits, mirrored, .. } = *d {
                self.plans_built += 1;
                self.solves += points as u64 - mirrored;
                self.mirrored += mirrored;
                self.compiled_hits += compiled_hits;
            }
        }
    }
}

/// Replays the layers of an adaptive solve of `circuit` that produced
/// `solution`: MNA assembly, then for every interpolation window in the
/// engine's order (denominator first) its plan through `cache` and the
/// replay of its solved σ points in lane-width groups.
pub fn replay_session(
    circuit: &Circuit,
    spec: &TransferSpec,
    config: &RefgenConfig,
    solution: &Solution,
    cache: &PlanCache,
    t: &mut OpTrace,
) -> Result<(), String> {
    let sys = t.span(|t| &mut t.mna, || MnaSystem::new(circuit)).map_err(|e| e.to_string())?;
    let report = &solution.network.report;
    let mut scratch = SweepBatchScratch::new();
    for (kind, windows) in [
        (PolyKind::Denominator, &report.denominator.windows),
        (PolyKind::Numerator, &report.numerator.windows),
    ] {
        for w in windows {
            let plan = t
                .span(
                    |t| &mut t.plan,
                    || match kind {
                        PolyKind::Denominator => {
                            Ok(SweepPlan::for_determinant_cached_with_ordering(
                                &sys,
                                w.scale,
                                cache,
                                config.ordering,
                            ))
                        }
                        PolyKind::Numerator => SweepPlan::new_cached_with_ordering(
                            &sys,
                            w.scale,
                            spec,
                            cache,
                            config.ordering,
                        ),
                    },
                )
                .map_err(|e| e.to_string())?;
            let mirror = config.conjugate_mirror && plan.conjugate_symmetric();
            let sigmas: Vec<Complex> = unit_circle_points(w.points)
                .into_iter()
                .filter(|s| !mirror || s.im >= 0.0)
                .collect();
            t.span(
                |t| &mut t.replay,
                || -> Result<(), String> {
                    for chunk in sigmas.chunks(config.lane_width.max(1)) {
                        match kind {
                            PolyKind::Denominator => {
                                black_box(plan.eval_det_batch(chunk, &mut scratch));
                            }
                            PolyKind::Numerator => {
                                for r in plan.eval_batch(chunk, &mut scratch) {
                                    black_box(r.map_err(|e| e.to_string())?);
                                }
                            }
                        }
                    }
                    Ok(())
                },
            )?;
            let ops = plan.program().map_or(0, |p| p.op_count() as u64);
            t.kernel_ops += ops * sigmas.len() as u64;
            t.kernel_solves += sigmas.len() as u64;
        }
    }
    Ok(())
}

/// The per-layer metrics: medians over the traced operations of a run,
/// times rescaled by each operation's machine-speed factor.
pub fn summarize(traces: &[OpTrace], factors: &[f64]) -> Vec<(&'static str, &'static str, f64)> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let per_op = |f: &dyn Fn(&OpTrace) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
    let timed = |f: &dyn Fn(&OpTrace) -> Duration| {
        median(&traces.iter().zip(factors).map(|(t, k)| ms(f(t)) * k).collect::<Vec<_>>())
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        ("front_end_ms", "ms", timed(&|t| t.front_end)),
        ("engine_ms", "ms", timed(&|t| t.engine)),
        ("mna_ms", "ms", timed(&|t| t.mna)),
        ("plan_ms", "ms", timed(&|t| t.plan)),
        ("replay_ms", "ms", timed(&|t| t.replay)),
        (
            "attributed_share",
            "ratio",
            per_op(&|t| ratio(ms(t.mna + t.plan + t.replay), ms(t.engine))),
        ),
        (
            "replay_us_per_solve",
            "us",
            median(
                &traces
                    .iter()
                    .zip(factors)
                    .map(|(t, k)| ratio(ms(t.replay) * 1e3 * k, t.kernel_solves as f64))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("plans_built", "count", per_op(&|t| t.plans_built as f64)),
        ("pivot_searches", "count", per_op(&|t| t.pivot_searches as f64)),
        ("plan_cache_hits", "count", per_op(&|t| t.cache_hits as f64)),
        ("programs_compiled", "count", per_op(&|t| t.programs_compiled as f64)),
        ("solves", "count", per_op(&|t| t.solves as f64)),
        ("mirrored", "count", per_op(&|t| t.mirrored as f64)),
        ("compiled_share", "ratio", per_op(&|t| ratio(t.compiled_hits as f64, t.solves as f64))),
        (
            "kernel_ops_per_solve",
            "count",
            per_op(&|t| ratio(t.kernel_ops as f64, t.kernel_solves as f64)),
        ),
    ]
}
