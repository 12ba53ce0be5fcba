//! Typed diagnostic events and the [`Observer`] seam.
//!
//! Every solver in this crate narrates its progress as a stream of
//! [`Diagnostic`] values: one per interpolation window, plus the notable
//! decisions the paper's algorithm takes along the way (declaring trailing
//! coefficients zero, repairing a window gap by eq. (16) bisection,
//! rejecting a coefficient that disagrees between overlapping windows).
//! The same events are both
//!
//! * **streamed** to an [`Observer`] while the solve runs — the hook the
//!   ROADMAP's progress-reporting and parallel-sampling items need — and
//! * **accumulated** in the per-polynomial
//!   [`PolyReport`](crate::adaptive::PolyReport), so a finished
//!   [`Solution`](crate::solver::Solution) can be audited after the fact.
//!
//! They replace the free-form `Vec<String>` warnings of earlier revisions:
//! callers match on variants instead of grepping message text.

use crate::window::PolyKind;
use refgen_mna::Scale;
use std::fmt;

/// How serious a [`Diagnostic`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Normal algorithm progress (e.g. a window opened).
    Info,
    /// Something a careful caller should look at (e.g. a cross-check
    /// mismatch between overlapping windows).
    Warning,
}

/// One typed event emitted during a solve.
///
/// The enum is `#[non_exhaustive]`: future solvers may add variants, so
/// downstream `match`es need a wildcard arm.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Diagnostic {
    /// One interpolation window was computed (paper eq. (5) + eq. (12)).
    WindowOpened {
        /// Which polynomial was being recovered.
        kind: PolyKind,
        /// Scale factors of this interpolation.
        scale: Scale,
        /// Interpolation points spent (`K`).
        points: usize,
        /// Valid region captured (global coefficient indices, inclusive),
        /// or `None` when the window validated nothing.
        region: Option<(usize, usize)>,
        /// Whether the eq. (17) problem-size reduction was in effect.
        reduced: bool,
    },
    /// A contiguous range of coefficients was declared zero after adaptive
    /// re-tilts stalled — the paper's §3.3 true-order detection.
    CoefficientsDeclaredZero {
        /// Which polynomial.
        kind: PolyKind,
        /// Lowest declared index (inclusive).
        lo: usize,
        /// Highest declared index (inclusive).
        hi: usize,
    },
    /// A gap between two valid windows was closed by eq. (16) bisection.
    GapRepaired {
        /// Which polynomial.
        kind: PolyKind,
        /// Lowest coefficient index of the repaired gap.
        lo: usize,
        /// Highest coefficient index of the repaired gap.
        hi: usize,
    },
    /// A coefficient covered by two overlapping windows disagreed beyond
    /// the configured tolerance; the higher-quality value was kept.
    CrossCheckMismatch {
        /// Which polynomial.
        kind: PolyKind,
        /// Global coefficient index.
        index: usize,
        /// Relative disagreement between the two denormalized values.
        rel_err: f64,
    },
    /// Every sample of the polynomial was exactly zero (e.g. a degenerate
    /// circuit whose determinant vanishes identically).
    AllSamplesZero {
        /// Which polynomial.
        kind: PolyKind,
    },
    /// One window's unit-circle samples were evaluated as a batch on the
    /// plan/execute engine (one `SweepPlan` per window, executed by
    /// `refgen_exec`). Fires right after the window's
    /// [`Diagnostic::WindowOpened`].
    ///
    /// The counters report only work this window performed. The
    /// numerator's opening window and its verify window take the samples
    /// the denominator's windows at the same scale and size already
    /// computed (see the [adaptive module docs](crate::adaptive)); such a
    /// shared window reports its `points` with zero `threads`,
    /// `compiled_hits` and `mirrored`, and the solves stay counted once, on
    /// the denominator's window.
    SamplingBatched {
        /// Points evaluated in the batch (conjugate-mirrored points
        /// included — they cost no solve but are part of the window).
        points: usize,
        /// `min(threads, solved points)`, after resolving the
        /// `threads = 0` auto knob, whatever the lane chunking: a 20-point
        /// window at lane width 32 runs one chunk and still reports 4 at
        /// `threads = 4`.
        threads: usize,
        /// Solved points that replayed the window plan's recorded pivot
        /// order through the compiled symbolic kernel (`FactorProgram`):
        /// flat instruction-stream replay with zero per-point sorting,
        /// searching, insertion, or heap allocation. The remainder paid a
        /// fresh Markowitz factorization.
        compiled_hits: u64,
        /// Points obtained as exact complex conjugates of a solved partner
        /// (`D(s̄) = conj(D(s))` on real-pattern systems) instead of their
        /// own factorization — the conjugate-pair halving.
        mirrored: u64,
    },
    /// A companion-model transient run finished
    /// ([`TransientAnalysis`](crate::TransientAnalysis)): the time-domain
    /// analogue of [`Diagnostic::SamplingBatched`], proving the run stayed
    /// on the compiled fast path.
    TransientStepped {
        /// Time steps integrated.
        steps: u64,
        /// Numeric factorizations that replayed the recorded pivot order —
        /// exactly one per run (the companion matrix is step-invariant).
        refactor_hits: u64,
        /// Linear solves that ran through the compiled `FactorProgram`
        /// (`steps` for backward Euler, `steps + 1` for the trapezoidal
        /// rule's startup primer).
        compiled_hits: u64,
    },
    /// The sampling plan for a pattern chose its pivot ordering: either
    /// the numeric Markowitz probe order was kept, or a validated
    /// approximate-minimum-degree order was adopted — when the probe's
    /// realized fill crossed the mesh-scale threshold, when the
    /// configuration forced it, or, on patterns of dimension 256 and up,
    /// when AMD's own fill crossed the threshold and no probe ran (see
    /// `refgen_mna::OrderingMode::Auto`).
    /// Fires when the reported decision differs from the previous window's
    /// (windows in plan cells that pass the growth gate share the anchor's
    /// cached selection and its choice, so repeats are suppressed).
    OrderingSelected {
        /// System dimension (MNA matrix rows).
        dim: usize,
        /// Fill-in slots the Markowitz probe order realizes (`None` when
        /// AMD was adopted without a probe).
        markowitz_fill: Option<usize>,
        /// Fill-in slots the AMD order realizes, when one was computed and
        /// passed validation (`None` when Markowitz won without a
        /// challenger).
        amd_fill: Option<usize>,
        /// Whether the AMD order was adopted.
        amd: bool,
    },
    /// One variant of a [`BatchSession`](crate::BatchSession) fleet
    /// finished solving. Streamed to the batch observer between variants —
    /// the progress hook for long Monte-Carlo runs — and aggregated in
    /// [`BatchReport`](crate::BatchReport).
    VariantSolved {
        /// Zero-based index of the variant in the fleet.
        variant: usize,
        /// Interpolation points the variant's solve spent.
        total_points: usize,
        /// Sampling points that reused a recorded pivot order during the
        /// variant's solve.
        refactor_hits: u64,
    },
    /// Sampling points inside one batch were rescued by the
    /// singular-recovery ladder instead of failing: a prescribed-order
    /// replay reported a singular pivot and a deeper rung (fresh
    /// value-aware Markowitz, or a recompile under the alternate ordering)
    /// factored the point. Fires right after the batch's
    /// [`Diagnostic::SamplingBatched`], only when any recovery happened —
    /// a warning, because repeated rescues mean the plan's recorded order
    /// is a poor fit for the variant's values.
    SolveRecovered {
        /// Points recovered by a fresh Markowitz factorization (rung 1).
        fresh: u64,
        /// Points recovered by the alternate-ordering recompile (rung 2).
        reordered: u64,
    },
}

impl Diagnostic {
    /// Severity classification: progress events are [`Severity::Info`],
    /// anything that signals degraded trust is [`Severity::Warning`].
    pub fn severity(&self) -> Severity {
        match self {
            Diagnostic::WindowOpened { .. }
            | Diagnostic::GapRepaired { .. }
            | Diagnostic::SamplingBatched { .. }
            | Diagnostic::TransientStepped { .. }
            | Diagnostic::OrderingSelected { .. }
            | Diagnostic::VariantSolved { .. } => Severity::Info,
            Diagnostic::CoefficientsDeclaredZero { .. }
            | Diagnostic::CrossCheckMismatch { .. }
            | Diagnostic::AllSamplesZero { .. }
            | Diagnostic::SolveRecovered { .. } => Severity::Warning,
        }
    }

    /// The polynomial this event concerns (`None` for events that are not
    /// tied to one polynomial, like [`Diagnostic::SamplingBatched`]).
    pub fn poly_kind(&self) -> Option<PolyKind> {
        match self {
            Diagnostic::WindowOpened { kind, .. }
            | Diagnostic::CoefficientsDeclaredZero { kind, .. }
            | Diagnostic::GapRepaired { kind, .. }
            | Diagnostic::CrossCheckMismatch { kind, .. }
            | Diagnostic::AllSamplesZero { kind } => Some(*kind),
            Diagnostic::SamplingBatched { .. }
            | Diagnostic::TransientStepped { .. }
            | Diagnostic::OrderingSelected { .. }
            | Diagnostic::VariantSolved { .. }
            | Diagnostic::SolveRecovered { .. } => None,
        }
    }
}

fn kind_name(kind: PolyKind) -> &'static str {
    match kind {
        PolyKind::Numerator => "numerator",
        PolyKind::Denominator => "denominator",
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Diagnostic::WindowOpened { kind, scale, points, region, reduced } => write!(
                f,
                "{}: window at f = {:.3e}, g = {:.3e} ({points} pts{}) valid over {:?}",
                kind_name(*kind),
                scale.f,
                scale.g,
                if *reduced { ", reduced" } else { "" },
                region,
            ),
            Diagnostic::CoefficientsDeclaredZero { kind, lo, hi } => write!(
                f,
                "{}: coefficients {lo}..={hi} declared zero after adaptive stall",
                kind_name(*kind)
            ),
            Diagnostic::GapRepaired { kind, lo, hi } => {
                write!(f, "{}: window gap {lo}..={hi} repaired by bisection", kind_name(*kind))
            }
            Diagnostic::CrossCheckMismatch { kind, index, rel_err } => write!(
                f,
                "{}: coefficient {index} disagrees between windows (rel {rel_err:.2e})",
                kind_name(*kind)
            ),
            Diagnostic::AllSamplesZero { kind } => {
                write!(f, "{}: all samples are exactly zero", kind_name(*kind))
            }
            Diagnostic::SamplingBatched { points, threads, compiled_hits, mirrored } => {
                write!(
                    f,
                    "sampled {points} points on {threads} thread{} \
                     ({compiled_hits} compiled, {mirrored} mirrored)",
                    if *threads == 1 { "" } else { "s" },
                )
            }
            Diagnostic::TransientStepped { steps, refactor_hits, compiled_hits } => write!(
                f,
                "transient: {steps} steps ({refactor_hits} numeric factorization{}, \
                 {compiled_hits} compiled solves)",
                if *refactor_hits == 1 { "" } else { "s" },
            ),
            Diagnostic::OrderingSelected { dim, markowitz_fill, amd_fill, amd } => {
                let name = if *amd { "amd" } else { "markowitz" };
                let fill = |fill: &Option<usize>| fill.map_or("–".to_string(), |n| n.to_string());
                write!(
                    f,
                    "ordering for dim {dim}: {name} (fill markowitz {}, amd {})",
                    fill(markowitz_fill),
                    fill(amd_fill)
                )
            }
            Diagnostic::VariantSolved { variant, total_points, refactor_hits } => write!(
                f,
                "variant {variant} solved: {total_points} points \
                 ({refactor_hits} pivot-order reuses)"
            ),
            Diagnostic::SolveRecovered { fresh, reordered } => write!(
                f,
                "recovered {} points from dead pivot replays \
                 ({fresh} by fresh factorization, {reordered} by reordering)",
                fresh + reordered
            ),
        }
    }
}

/// Receives [`Diagnostic`] events while a solve runs.
///
/// Implementations must be cheap: events fire from inside the adaptive
/// loop. The provided implementations are [`NullObserver`] (discard) and
/// [`CollectObserver`] (record everything).
pub trait Observer {
    /// Called once per event, in execution order.
    fn on_diagnostic(&mut self, diagnostic: &Diagnostic);
}

/// Discards every event — the default when no observer is attached.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_diagnostic(&mut self, _diagnostic: &Diagnostic) {}
}

/// Records every event in order; the standard test/audit observer.
#[derive(Clone, Debug, Default)]
pub struct CollectObserver {
    /// Everything received so far, in execution order.
    pub events: Vec<Diagnostic>,
}

impl CollectObserver {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        CollectObserver::default()
    }

    /// Events of [`Severity::Warning`].
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.events.iter().filter(|d| d.severity() == Severity::Warning)
    }

    /// Number of events matching a predicate.
    pub fn count_where(&self, pred: impl Fn(&Diagnostic) -> bool) -> usize {
        self.events.iter().filter(|d| pred(d)).count()
    }
}

impl Observer for CollectObserver {
    fn on_diagnostic(&mut self, diagnostic: &Diagnostic) {
        self.events.push(diagnostic.clone());
    }
}

/// Every closure `FnMut(&Diagnostic)` is an observer, so ad-hoc hooks need
/// no named type: `session.observer(&mut |d: &Diagnostic| eprintln!("{d}"))`.
impl<F: FnMut(&Diagnostic)> Observer for F {
    fn on_diagnostic(&mut self, diagnostic: &Diagnostic) {
        self(diagnostic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Diagnostic> {
        vec![
            Diagnostic::WindowOpened {
                kind: PolyKind::Denominator,
                scale: Scale::new(1e9, 1e3),
                points: 41,
                region: Some((0, 5)),
                reduced: false,
            },
            Diagnostic::CoefficientsDeclaredZero { kind: PolyKind::Denominator, lo: 6, hi: 9 },
            Diagnostic::GapRepaired { kind: PolyKind::Numerator, lo: 2, hi: 3 },
            Diagnostic::CrossCheckMismatch { kind: PolyKind::Denominator, index: 4, rel_err: 1e-3 },
            Diagnostic::AllSamplesZero { kind: PolyKind::Numerator },
            Diagnostic::SamplingBatched { points: 41, threads: 4, compiled_hits: 20, mirrored: 20 },
            Diagnostic::TransientStepped { steps: 600, refactor_hits: 1, compiled_hits: 601 },
            Diagnostic::OrderingSelected {
                dim: 4096,
                markowitz_fill: Some(250_000),
                amd_fill: Some(40_000),
                amd: true,
            },
            Diagnostic::VariantSolved { variant: 7, total_points: 96, refactor_hits: 90 },
            Diagnostic::SolveRecovered { fresh: 3, reordered: 1 },
        ]
    }

    #[test]
    fn severity_split() {
        let events = sample_events();
        assert_eq!(events[0].severity(), Severity::Info);
        assert_eq!(events[1].severity(), Severity::Warning);
        assert_eq!(events[2].severity(), Severity::Info);
        assert_eq!(events[3].severity(), Severity::Warning);
        assert_eq!(events[4].severity(), Severity::Warning);
        assert_eq!(events[5].severity(), Severity::Info);
        assert_eq!(events[6].severity(), Severity::Info);
        assert_eq!(events[7].severity(), Severity::Info);
        assert_eq!(events[8].severity(), Severity::Info);
        assert_eq!(events[9].severity(), Severity::Warning);
    }

    #[test]
    fn collector_records_in_order() {
        let mut obs = CollectObserver::new();
        for e in sample_events() {
            obs.on_diagnostic(&e);
        }
        assert_eq!(obs.events, sample_events());
        assert_eq!(obs.warnings().count(), 4);
        assert_eq!(obs.count_where(|d| d.poly_kind() == Some(PolyKind::Numerator)), 2);
        assert_eq!(obs.count_where(|d| d.poly_kind().is_none()), 5);
    }

    #[test]
    fn closures_are_observers() {
        let mut seen = 0usize;
        {
            let mut hook = |_d: &Diagnostic| seen += 1;
            for e in sample_events() {
                hook.on_diagnostic(&e);
            }
        }
        assert_eq!(seen, 10);
    }

    /// A probed selection prints its Markowitz fill as a bare number in
    /// both texts; an unprobed one prints `–` and `None`.
    #[test]
    fn ordering_text_marks_a_skipped_probe() {
        let event = |markowitz_fill| Diagnostic::OrderingSelected {
            dim: 1025,
            markowitz_fill,
            amd_fill: Some(18_683),
            amd: true,
        };
        let (probed, unprobed) = (event(Some(20_260)), event(None));
        assert_eq!(
            probed.to_string(),
            "ordering for dim 1025: amd (fill markowitz 20260, amd 18683)"
        );
        assert_eq!(
            unprobed.to_string(),
            "ordering for dim 1025: amd (fill markowitz –, amd 18683)"
        );
        assert_eq!(
            format!("{probed:?}"),
            "OrderingSelected { dim: 1025, markowitz_fill: Some(20260), amd_fill: Some(18683), amd: true }"
        );
        assert_eq!(
            format!("{unprobed:?}"),
            "OrderingSelected { dim: 1025, markowitz_fill: None, amd_fill: Some(18683), amd: true }"
        );
    }

    #[test]
    fn display_is_informative() {
        for e in sample_events() {
            let s = e.to_string();
            match e.poly_kind() {
                Some(_) => {
                    assert!(s.contains("numerator") || s.contains("denominator"), "{s}")
                }
                None => assert!(
                    s.contains("points")
                        || s.contains("thread")
                        || s.contains("steps")
                        || s.contains("ordering"),
                    "{s}"
                ),
            }
        }
    }
}
