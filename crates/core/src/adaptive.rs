//! The adaptive-scaling driver (paper §3.2–§3.3).
//!
//! Per polynomial (numerator, denominator):
//!
//! 1. First interpolation at the heuristic scale factors
//!    (`f = 1/mean(C)`, `g = 1/mean(G)`) — aims the widest valid window.
//! 2. **Descending walk** (only if the first window missed `p₀`): from the
//!    first window, step the scale by eq. (15) toward the coefficients
//!    below the known range.
//! 3. **Ascending walk**: from the first window again, step by eq. (14)
//!    toward the coefficients above the known range. Running the descent
//!    first completes the head, so the ascent's eq. (17) reduction is
//!    legal from its first step.
//!
//! Both walks are one loop, parameterized by direction. Each step
//! interpolates again — with the problem-size reduction of eq. (17) when
//! the known coefficients allow it — and merges the new valid window if it
//! advances past the known range. A gap it leaves next to the known range
//! is repaired by eq. (16) bisection. If escalating re-tilts advance nothing,
//! the unknown coefficients on that side are *declared zero* (cf. §3.3
//! "neglecting high order coefficients"). A re-tilt whose clamped scale
//! repeats the previous attempt's is skipped: it would recompute the same
//! rejected window.
//!
//! Every coefficient is denormalized as `p_i = p'_i/(f^i·g^{M−i})`
//! (eq. (13)) in extended-range arithmetic and cross-checked between
//! overlapping windows.
//!
//! **Order bound.** Each polynomial's degree is bounded before any
//! sampling by its structural bound from [`MnaSystem::degree_bounds`] (a
//! maximum-weight matching of the pattern, reactive positions weighing 1),
//! capped by the reactive-element count. Both bounds are asked for once
//! per network function, and computed once per stamp topology, output and
//! set of excited rows (a fleet's same-topology variants share them). The ascent ends as soon as the accepted coefficients
//! reach the bound; the indices above it are structural zeros, never
//! accepted from a window and never declared. A window interpolates two
//! indices beyond the bound (still capped by the reactive-element count);
//! exactly to the bound, the µA741's agreement with the AC simulator
//! worsened. Stall detection stays as the fallback for the coefficients
//! that value cancellation zeroes below the bound.
//!
//! **Shared opening windows.** A full network function recovers the
//! denominator `D(s)` (eq. (9)) and then the numerator `N(s) = H(s)·D(s)`
//! (eq. (10)) from samples at the same scaled unit-circle points: both
//! chains open at the heuristic scale with the same `K` — one more than the
//! larger of the two polynomials' window orders — and verify at the same
//! perturbed scale. So the denominator's opening window and its verify
//! window sample the transfer function once per point —
//! `D(σ)` is the transfer's own determinant, bit for bit what determinant
//! sampling gives — and hand the `N(σ)` samples, per-point errors
//! included, to the numerator's opening window and verify window at the
//! same `(scale, K)`. The hand-off is a value owned by the one call; a
//! single-polynomial solve ([`Solver::solve_polynomial`]) samples on its
//! own. Coefficients are unchanged; only the numerator's shared windows
//! report no solves of their own (see
//! [`Diagnostic::SamplingBatched`]).

use crate::config::RefgenConfig;
use crate::diagnostic::{Diagnostic, Observer, Severity};
use crate::error::RefgenError;
use crate::runtime::SamplingRuntime;
use crate::scaling::{
    gap_repair_scale, initial_scale, initial_scale_frequency_only, step_scale_with_policy,
    Direction, ScalePolicy,
};
use crate::solver::{PolyRecovery, Solver};
use crate::window::{interpolate_window, Reduction, Sampler, SharedOpening, Window};
use refgen_circuit::ElementKind;
use refgen_mna::{MnaSystem, Scale, TransferSpec};
use refgen_numeric::{Complex, ExtComplex, ExtPoly};
use std::collections::{BTreeMap, BTreeSet};

pub use crate::window::PolyKind;

/// Summary of one interpolation performed during a run.
#[derive(Clone, Copy, Debug)]
pub struct WindowSummary {
    /// Scale factors used.
    pub scale: Scale,
    /// Interpolation points spent (`K`).
    pub points: usize,
    /// Valid region captured (global coefficient indices, inclusive).
    pub region: Option<(usize, usize)>,
    /// Whether eq. (17) reduction was in effect.
    pub reduced: bool,
}

/// Per-polynomial run report.
#[derive(Clone, Debug)]
pub struct PolyReport {
    /// Which polynomial.
    pub kind: PolyKind,
    /// Every interpolation, in execution order.
    pub windows: Vec<WindowSummary>,
    /// Coefficient indices at or below [`PolyReport::order_bound`] that
    /// stall detection declared zero (value cancellation). The indices
    /// above the bound are structural zeros and are not listed.
    pub declared_zero: Vec<usize>,
    /// Typed events recorded during recovery, in execution order — the
    /// same stream an [`Observer`] receives live.
    pub diagnostics: Vec<Diagnostic>,
    /// The a-priori order bound: the structural degree bound of the
    /// polynomial (a maximum-weight matching of the MNA pattern, see
    /// [`MnaSystem::degree_bounds`]), capped by the number of
    /// reactive elements. The baseline solvers, which reproduce the
    /// paper's comparison, report the reactive-element count.
    pub order_bound: usize,
    /// Degree of the recovered polynomial.
    pub effective_degree: Option<usize>,
    /// Total interpolation points across all windows (the cost the
    /// reduction of eq. (17) shrinks — §3.3's CPU-time story).
    pub total_points: usize,
    /// Total sampling points (across all windows) that reused their
    /// window plan's recorded pivot order — numeric refactorization
    /// instead of a Markowitz pivot search. Deterministic: the same solve
    /// reports the same count at any thread count.
    pub refactor_hits: u64,
}

impl PolyReport {
    /// An empty report for `kind` under the order bound `order_bound`.
    pub(crate) fn new(kind: PolyKind, order_bound: usize) -> PolyReport {
        PolyReport {
            kind,
            windows: Vec::new(),
            declared_zero: Vec::new(),
            diagnostics: Vec::new(),
            order_bound,
            effective_degree: None,
            total_points: 0,
            refactor_hits: 0,
        }
    }

    /// Diagnostics of [`Severity::Warning`] — the events worth a second
    /// look (declared zeros, cross-check mismatches, all-zero samples).
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity() == Severity::Warning)
    }

    /// Records `diagnostic` and streams it to `observer` — the single
    /// write path for both trails, which is what keeps the recorded
    /// diagnostics and the live stream identical.
    pub(crate) fn emit(&mut self, observer: &mut dyn Observer, diagnostic: Diagnostic) {
        observer.on_diagnostic(&diagnostic);
        self.diagnostics.push(diagnostic);
    }

    /// Accounts one computed window (summary + point/refactor totals) and
    /// emits its [`Diagnostic::WindowOpened`] + `SamplingBatched` pair —
    /// the single write path every solver uses, which is what keeps their
    /// diagnostic streams structurally identical.
    pub(crate) fn record_window(&mut self, observer: &mut dyn Observer, w: &Window) {
        self.windows.push(WindowSummary {
            scale: w.scale,
            points: w.points,
            region: w.region,
            reduced: w.reduced,
        });
        self.total_points += w.points;
        self.refactor_hits += w.stats.compiled_hits;
        let kind = self.kind;
        self.emit(
            observer,
            Diagnostic::WindowOpened {
                kind,
                scale: w.scale,
                points: w.points,
                region: w.region,
                reduced: w.reduced,
            },
        );
        self.emit(
            observer,
            Diagnostic::SamplingBatched {
                points: w.points,
                threads: w.threads,
                compiled_hits: w.stats.compiled_hits,
                mirrored: w.mirrored,
            },
        );
        // Recovery is exceptional by construction, so the event is only
        // emitted when the ladder actually fired — fault-free streams are
        // byte-identical to pre-ladder builds.
        let (fresh, reordered) = (w.stats.recovered_fresh, w.stats.recovered_reordered);
        if fresh + reordered > 0 {
            self.emit(observer, Diagnostic::SolveRecovered { fresh, reordered });
        }
        // One ordering event per *decision*, not per window: windows in
        // cells that pass the growth gate share the anchor's cached
        // selection (and therefore a choice), so only a change from the
        // previously reported selection is news.
        if let Some((dim, choice)) = w.ordering {
            let event = Diagnostic::OrderingSelected {
                dim,
                markowitz_fill: choice.markowitz_fill,
                amd_fill: choice.amd_fill,
                amd: choice.selected == refgen_mna::SelectedOrdering::Amd,
            };
            let last = self
                .diagnostics
                .iter()
                .rev()
                .find(|d| matches!(d, Diagnostic::OrderingSelected { .. }));
            if last != Some(&event) {
                self.emit(observer, event);
            }
        }
    }
}

/// The admittance degree of the polynomial being recovered — shared by
/// every solver's denormalization. The numerator cofactor of a
/// current-source-driven transfer function has one admittance factor fewer
/// (a node row *and* a node column are struck, removing one admittance).
pub(crate) fn poly_admittance_degree(
    sys: &MnaSystem,
    spec: &TransferSpec,
    kind: PolyKind,
) -> Result<i64, RefgenError> {
    if sys.has_unscalable_elements() {
        // Frequency-only mode: g ≡ 1, so the admittance degree never
        // enters a denormalization factor. Return 0 for definiteness.
        return Ok(0);
    }
    let m = sys.admittance_degree();
    if kind == PolyKind::Denominator {
        return Ok(m);
    }
    let (source, _) = sys.resolve_source(&spec.input)?;
    let is_current = matches!(
        sys.circuit().element(&source).map(|e| &e.kind),
        Some(ElementKind::ISource { .. })
    );
    Ok(if is_current { m - 1 } else { m })
}

/// Full run report for a network function.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Numerator recovery report.
    pub numerator: PolyReport,
    /// Denominator recovery report.
    pub denominator: PolyReport,
    /// The admittance degree `M` used for denormalization.
    pub admittance_degree: i64,
}

/// A recovered network function `H(s) = N(s)/D(s)` with extended-range
/// coefficients — the *numerical reference* SBG/SDG error control consumes.
#[derive(Clone, Debug)]
pub struct NetworkFunction {
    /// Numerator polynomial `N(s)`.
    pub numerator: ExtPoly,
    /// Denominator polynomial `D(s)`.
    pub denominator: ExtPoly,
    /// How the recovery went.
    pub report: RunReport,
}

impl NetworkFunction {
    /// Evaluates `H(s)` at a complex frequency.
    pub fn eval(&self, s: Complex) -> Complex {
        let n = self.numerator.eval(s);
        let d = self.denominator.eval(s);
        (n / d).to_complex()
    }

    /// Evaluates at `s = j·2πf` for `f` in hertz.
    pub fn response_at_hz(&self, freq_hz: f64) -> Complex {
        self.eval(Complex::new(0.0, 2.0 * std::f64::consts::PI * freq_hz))
    }

    /// Bode data `(freq, magnitude dB, phase deg)` over a frequency grid.
    pub fn bode(&self, freqs_hz: &[f64]) -> Vec<(f64, f64, f64)> {
        freqs_hz
            .iter()
            .map(|&f| {
                let h = self.response_at_hz(f);
                (f, 20.0 * h.abs().log10(), h.arg().to_degrees())
            })
            .collect()
    }

    /// DC gain `H(0)`.
    pub fn dc_gain(&self) -> Complex {
        self.eval(Complex::ZERO)
    }

    /// Poles (denominator roots), extended range.
    pub fn poles(&self) -> Vec<ExtComplex> {
        self.denominator.roots(1e-12, 500)
    }

    /// Zeros (numerator roots), extended range.
    pub fn zeros(&self) -> Vec<ExtComplex> {
        self.numerator.roots(1e-12, 500)
    }
}

/// The scale policy of `sys` and the scale both polynomials' walks open
/// at. Inductors/CCVS break admittance homogeneity: such circuits fall
/// back to exact frequency-only scaling (see [`ScalePolicy`]).
///
/// # Panics
///
/// Panics if the circuit has no reactive elements (the solver's preflight
/// rejects those first).
pub(crate) fn opening_scale(sys: &MnaSystem) -> (ScalePolicy, Scale) {
    if sys.has_unscalable_elements() {
        (ScalePolicy::FrequencyOnly, initial_scale_frequency_only(sys.circuit()))
    } else {
        (ScalePolicy::Simultaneous, initial_scale(sys.circuit()))
    }
}

/// `true` when a stall retry's stepped `scale` equals the previous
/// attempt's bit for bit. Between attempts nothing the window depends on
/// changes (the accepted and declared sets only grow when an attempt is
/// taken), so the retry would compute the previous window again and be
/// rejected the same way. Once eq. (14)'s step is clamped by
/// [`RefgenConfig::max_step_decades_per_index`], every later attempt is
/// clamped to the same scale too.
fn repeats(previous: Option<Scale>, scale: Scale) -> bool {
    previous
        .is_some_and(|p| p.f.to_bits() == scale.f.to_bits() && p.g.to_bits() == scale.g.to_bits())
}

/// Indices a window interpolates beyond the structural order bound. The
/// coefficients there are structural zeros, so they only sample the
/// round-off floor. Interpolating exactly to the bound (no margin, the
/// fewest points) worsened the µA741's agreement with the AC simulator in
/// 8 of 9 solves when the bound was introduced.
const WINDOW_MARGIN: usize = 2;

/// How far one polynomial's windows reach.
#[derive(Clone, Copy, Debug)]
struct Orders {
    /// The structural degree bound, capped by the reactive-element count:
    /// every coefficient above it is zero for every value set.
    bound: usize,
    /// The highest index a window interpolates:
    /// `min(bound + WINDOW_MARGIN, reactive_count)`. The opening windows of
    /// a network function interpolate to their [`SharedOpening::order`].
    window: usize,
}

impl Orders {
    /// The orders of the denominator and the numerator of `spec`.
    fn of(sys: &MnaSystem, spec: &TransferSpec) -> (Orders, Orders) {
        let reactive = sys.circuit().reactive_count();
        let orders = |structural: Option<usize>| {
            let bound = structural.map_or(reactive, |b| b.min(reactive));
            Orders { bound, window: (bound + WINDOW_MARGIN).min(reactive) }
        };
        let bounds = sys.degree_bounds(&spec.output);
        (orders(bounds.denominator), orders(bounds.numerator))
    }
}

/// `region` without the indices above `bound`: structural zeros are never
/// accepted.
fn below_bound(region: Option<(usize, usize)>, bound: usize) -> Option<(usize, usize)> {
    region.filter(|&(lo, _)| lo <= bound).map(|(lo, hi)| (lo, hi.min(bound)))
}

#[derive(Clone, Copy, Debug)]
struct Accepted {
    value: ExtComplex,
    quality: f64,
}

/// The paper's algorithm, configured. Solve through [`Solver`].
///
/// Circuits containing inductors or CCVS elements are handled in
/// frequency-only scaling mode ([`ScalePolicy::FrequencyOnly`]); all other
/// circuits use the paper's simultaneous scaling.
///
/// Its solves fail with
///
/// * [`RefgenError::NoReactiveElements`] for purely resistive circuits,
/// * [`RefgenError::DidNotConverge`]/[`RefgenError::Gap`] when the
///   adaptive loop cannot tile the coefficient range,
/// * [`RefgenError::Mna`] for invalid circuits or specs.
#[derive(Clone, Debug)]
pub struct AdaptiveInterpolator {
    config: RefgenConfig,
}

impl Default for AdaptiveInterpolator {
    fn default() -> Self {
        AdaptiveInterpolator::new(RefgenConfig::default())
    }
}

impl AdaptiveInterpolator {
    /// Creates an interpolator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`RefgenConfig::assert_valid`]).
    pub fn new(config: RefgenConfig) -> Self {
        config.assert_valid();
        AdaptiveInterpolator { config }
    }

    fn preflight(&self, sys: &MnaSystem, spec: &TransferSpec) -> Result<(), RefgenError> {
        if sys.circuit().reactive_count() == 0 {
            return Err(RefgenError::NoReactiveElements);
        }
        // Resolve the source now so spec errors surface before any sampling.
        sys.resolve_source(&spec.input).map_err(RefgenError::from)?;
        Ok(())
    }

    /// Recovers one polynomial; `opening` is the hand-off its opening
    /// window (and that window's verify re-interpolation) shares with the
    /// other polynomial's, when both are recovered.
    #[allow(clippy::too_many_arguments)]
    fn recover(
        &self,
        sys: &MnaSystem,
        spec: &TransferSpec,
        kind: PolyKind,
        orders: Orders,
        observer: &mut dyn Observer,
        runtime: &SamplingRuntime,
        opening: Option<&mut SharedOpening>,
    ) -> Result<(ExtPoly, PolyReport), RefgenError> {
        let m_adm = poly_admittance_degree(sys, spec, kind)?;
        let (policy, scale0) = opening_scale(sys);
        // The circuit anchors its pattern's plan cells, unless a fleet
        // registered its anchors first.
        runtime.plan_cache().register_anchor(sys, scale0);
        let mut walk = Walk {
            interp: self,
            sampler: Sampler { sys, spec, kind },
            orders,
            m_adm,
            policy,
            runtime,
            observer,
            report: PolyReport::new(kind, orders.bound),
            accepted: BTreeMap::new(),
            declared: BTreeSet::new(),
        };
        // The opening windows interpolate to the order both chains share.
        let first = opening.as_deref().map_or(orders, |o| Orders { window: o.order(), ..orders });
        let w0 = walk.run_checked(scale0, first, None, opening)?;
        if w0.all_zero() {
            walk.report.emit(walk.observer, Diagnostic::AllSamplesZero { kind });
            return Ok((ExtPoly::zero(), walk.report));
        }
        walk.accept(&w0);
        // Both directions start from the opening window. The descent runs
        // first (it returns at once when the opening window reached p₀):
        // a complete head makes the ascent's eq. (17) reduction legal from
        // its first step.
        walk.walk(Direction::Descending, w0.clone())?;
        walk.walk(Direction::Ascending, w0)?;
        walk.finish()
    }

    /// Denormalizes and merges a window's valid region into the accepted
    /// set, preferring higher-quality (more significant digits) values and
    /// recording consistency warnings for disagreeing overlaps.
    fn accept_window(
        &self,
        w: &Window,
        m_adm: i64,
        accepted: &mut BTreeMap<usize, Accepted>,
        report: &mut PolyReport,
        observer: &mut dyn Observer,
    ) {
        let Some((lo, hi)) = w.region else { return };
        for i in lo..=hi {
            let value = w.denormalized(i, m_adm).expect("region within window");
            let quality = w.quality(i);
            match accepted.get(&i) {
                Some(old) => {
                    let rel = ((old.value - value).norm() / old.value.norm().max_abs(value.norm()))
                        .to_f64();
                    let tol = 10f64.powi(-(RefgenConfig::SIG_DIGITS as i32) + 3);
                    if rel > tol {
                        let kind = report.kind;
                        report.emit(
                            observer,
                            Diagnostic::CrossCheckMismatch { kind, index: i, rel_err: rel },
                        );
                    }
                    if quality > old.quality {
                        accepted.insert(i, Accepted { value, quality });
                    }
                }
                None => {
                    accepted.insert(i, Accepted { value, quality });
                }
            }
        }
    }
}

/// One polynomial's walk over scales: what every window of it reads, and
/// the accepted and declared coefficients it grows.
struct Walk<'a> {
    interp: &'a AdaptiveInterpolator,
    sampler: Sampler<'a>,
    orders: Orders,
    m_adm: i64,
    policy: ScalePolicy,
    runtime: &'a SamplingRuntime,
    observer: &'a mut dyn Observer,
    report: PolyReport,
    accepted: BTreeMap<usize, Accepted>,
    declared: BTreeSet<usize>,
}

impl Walk<'_> {
    /// The coefficients a walk in `direction` has yet to cover, `None`
    /// once it is done: those below the lowest accepted index going down,
    /// those above the highest up to the order bound going up.
    fn unknown(&self, direction: Direction) -> Option<(usize, usize)> {
        match direction {
            Direction::Descending => {
                let bottom = *self.accepted.keys().next()?;
                (bottom > 0).then(|| (0, bottom - 1))
            }
            Direction::Ascending => {
                let top = *self.accepted.keys().next_back()?;
                (top < self.orders.bound).then(|| (top + 1, self.orders.bound))
            }
        }
    }

    /// `true` while the [`RefgenConfig::max_interpolations`] budget
    /// admits another checked window: its main window and, with `verify`
    /// on, its verify window.
    fn has_budget(&self) -> bool {
        let config = &self.interp.config;
        self.report.windows.len() + 1 + usize::from(config.verify) <= config.max_interpolations
    }

    /// The §3.2–§3.3 walk in `direction`, from the window `last`: step the
    /// scale by eq. (14) going up or eq. (15) going down while
    /// coefficients remain unknown that way, repair a skipped gap by
    /// eq. (16) bisection, and accept each window that advances. When
    /// [`RefgenConfig::STALL_RETRIES`] escalating re-tilts advance
    /// nothing, the unknown coefficients are declared zero by value
    /// cancellation (true-order detection, §3.3).
    fn walk(&mut self, direction: Direction, mut last: Window) -> Result<(), RefgenError> {
        while let Some(unknown) = self.unknown(direction) {
            if !self.has_budget() {
                break;
            }
            let reduction = self.reduction(direction, unknown);
            let mut previous = None;
            let mut stepped = false;
            for attempt in 0..=RefgenConfig::STALL_RETRIES {
                if !self.has_budget() {
                    break;
                }
                let extra = attempt as f64 * RefgenConfig::NOISE_DECADES;
                let scale = step_scale_with_policy(
                    &last,
                    direction,
                    extra,
                    &self.interp.config,
                    self.policy,
                );
                if repeats(previous, scale) {
                    continue;
                }
                previous = Some(scale);
                let w = self.run_checked(scale, self.orders, reduction.as_ref(), None)?;
                let Some((lo, hi)) = w.region else { continue };
                if hi < unknown.0 || lo > unknown.1 {
                    continue;
                }
                // The coefficients between the accepted ones and the new
                // window, with the scales that bracket them (lower-index
                // side first).
                let gap = match direction {
                    Direction::Descending => {
                        (hi < unknown.1).then(|| ((hi + 1, unknown.1), (w.scale, last.scale)))
                    }
                    Direction::Ascending => {
                        (lo > unknown.0).then(|| ((unknown.0, lo - 1), (last.scale, w.scale)))
                    }
                };
                if let Some((gap, (lo_side, hi_side))) = gap {
                    self.repair_gap(lo_side, hi_side, gap)?;
                }
                self.accept(&w);
                last = w;
                stepped = true;
                break;
            }
            if !stepped {
                let (lo, hi) = unknown;
                let kind = self.report.kind;
                self.report
                    .emit(self.observer, Diagnostic::CoefficientsDeclaredZero { kind, lo, hi });
                self.declared.extend(lo..=hi);
                break;
            }
        }
        Ok(())
    }

    /// The eq. (17) reduction for a step toward `unknown`: legal when
    /// accepted ∪ declared covers every other index up to the order bound
    /// (declared zeros, like the structural zeros above the bound,
    /// subtract nothing and are omitted). Going up, the unknowns run to
    /// the window order.
    fn reduction(&self, direction: Direction, (k, l): (usize, usize)) -> Option<Reduction> {
        let known = |i: &usize| self.accepted.contains_key(i) || self.declared.contains(i);
        let legal = self.interp.config.reduce
            && (0..=self.orders.bound).filter(|i| !(k..=l).contains(i)).all(|i| known(&i));
        legal.then(|| Reduction {
            k,
            l: match direction {
                Direction::Descending => l,
                Direction::Ascending => self.orders.window,
            },
            known: self.accepted.iter().map(|(&i, a)| (i, a.value)).collect(),
        })
    }

    /// Runs one window and records it in the report.
    fn run_window(
        &mut self,
        scale: Scale,
        order: usize,
        reduction: Option<&Reduction>,
        opening: Option<&mut SharedOpening>,
    ) -> Result<Window, RefgenError> {
        let w = interpolate_window(
            &self.sampler,
            scale,
            order,
            self.m_adm,
            reduction,
            &self.interp.config,
            self.runtime,
            opening,
        )?;
        self.report.record_window(self.observer, &w);
        Ok(w)
    }

    /// Runs a window and, when `config.verify` is set, re-interpolates at a
    /// slightly perturbed scale and trims the valid region to coefficients
    /// whose denormalized values agree — the paper's "equal in both
    /// interpolations" acceptance criterion. This is what rejects coherent
    /// round-off artifacts that pass the magnitude and reality tests. Both
    /// windows interpolate to `orders.window`, and the region never reaches
    /// above `orders.bound`.
    fn run_checked(
        &mut self,
        scale: Scale,
        orders: Orders,
        reduction: Option<&Reduction>,
        mut opening: Option<&mut SharedOpening>,
    ) -> Result<Window, RefgenError> {
        let order = orders.window;
        let mut w = self.run_window(scale, order, reduction, opening.as_deref_mut())?;
        let Some((lo, hi)) = w.region else { return Ok(w) };
        if !self.interp.config.verify {
            w.region = below_bound(w.region, orders.bound);
            return Ok(w);
        }
        let delta = 10f64.powf(0.2);
        let scale2 = match self.policy {
            ScalePolicy::Simultaneous => Scale::new(scale.f * delta, scale.g / delta),
            // g must stay 1 in frequency-only mode (g-denormalization is
            // not valid for these circuits).
            ScalePolicy::FrequencyOnly => Scale::new(scale.f * delta * delta, 1.0),
        };
        let w2 = self.run_window(scale2, order, reduction, opening)?;
        let tol = 10f64.powi(-(RefgenConfig::SIG_DIGITS as i32) + 2);
        let m_adm = self.m_adm;
        let agrees = |i: usize| -> bool {
            match (w.denormalized(i, m_adm), w2.denormalized(i, m_adm)) {
                (Some(a), Some(b)) if !a.is_zero() && !b.is_zero() => {
                    let rel = ((a - b).norm() / a.norm().max_abs(b.norm())).to_f64();
                    rel <= tol
                }
                (Some(a), Some(b)) => a.is_zero() && b.is_zero(),
                _ => false,
            }
        };
        if !agrees(w.max_idx) {
            w.region = None;
            return Ok(w);
        }
        let mut new_lo = w.max_idx;
        while new_lo > lo && agrees(new_lo - 1) {
            new_lo -= 1;
        }
        let mut new_hi = w.max_idx;
        while new_hi < hi && agrees(new_hi + 1) {
            new_hi += 1;
        }
        w.region = below_bound(Some((new_lo, new_hi)), orders.bound);
        Ok(w)
    }

    /// Merges a window's valid region into the accepted coefficients.
    fn accept(&mut self, w: &Window) {
        self.interp.accept_window(
            w,
            self.m_adm,
            &mut self.accepted,
            &mut self.report,
            self.observer,
        );
    }

    /// Repairs a window gap by eq. (16) bisection between the bracketing
    /// scale pairs.
    fn repair_gap(
        &mut self,
        scale_lo_side: Scale,
        scale_hi_side: Scale,
        gap: (usize, usize),
    ) -> Result<(), RefgenError> {
        let kind = self.report.kind;
        let mut queue = vec![(scale_lo_side, scale_hi_side, 0u32)];
        while let Some((a, b, depth)) = queue.pop() {
            if (gap.0..=gap.1).all(|i| self.accepted.contains_key(&i)) {
                break;
            }
            if depth >= self.interp.config.gap_retries || !self.has_budget() {
                continue;
            }
            let mid = gap_repair_scale(a, b);
            let w = self.run_checked(mid, self.orders, None, None)?;
            self.accept(&w);
            queue.push((a, mid, depth + 1));
            queue.push((mid, b, depth + 1));
        }
        let still: Vec<usize> =
            (gap.0..=gap.1).filter(|i| !self.accepted.contains_key(i)).collect();
        if still.is_empty() {
            self.report.emit(self.observer, Diagnostic::GapRepaired { kind, lo: gap.0, hi: gap.1 });
            Ok(())
        } else {
            Err(RefgenError::Gap { lo: still[0], hi: *still.last().expect("non-empty") })
        }
    }

    /// Checks coverage of `0..=bound` and assembles the polynomial.
    fn finish(mut self) -> Result<(ExtPoly, PolyReport), RefgenError> {
        let bound = self.orders.bound;
        let missing: Vec<usize> = (0..=bound)
            .filter(|i| !self.accepted.contains_key(i) && !self.declared.contains(i))
            .collect();
        if !missing.is_empty() {
            return Err(RefgenError::DidNotConverge { missing });
        }
        self.report.declared_zero = self.declared.into_iter().collect();
        let coeffs: Vec<ExtComplex> = (0..=bound)
            .map(|i| self.accepted.get(&i).map_or(ExtComplex::ZERO, |a| a.value))
            .collect();
        let poly = ExtPoly::new(coeffs);
        self.report.effective_degree = poly.degree();
        Ok((poly, self.report))
    }
}

impl Solver for AdaptiveInterpolator {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn config(&self) -> &RefgenConfig {
        &self.config
    }

    /// Samples only the requested polynomial — half the work of a full
    /// solve, and robust to circuits where the other polynomial cannot be
    /// sampled (e.g. a singular system).
    fn recover_polynomial(
        &self,
        sys: &MnaSystem,
        spec: &TransferSpec,
        kind: PolyKind,
        observer: &mut dyn Observer,
        runtime: &SamplingRuntime,
    ) -> Result<PolyRecovery, RefgenError> {
        self.preflight(sys, spec)?;
        let orders = match (kind, Orders::of(sys, spec)) {
            (PolyKind::Denominator, (den, _)) => den,
            (PolyKind::Numerator, (_, num)) => num,
        };
        self.recover(sys, spec, kind, orders, observer, runtime, None)
    }

    /// Both chains open at the same scale and size: the denominator's
    /// opening windows sample the transfer once for both (see the
    /// [module docs](self)).
    fn recover_network(
        &self,
        sys: &MnaSystem,
        spec: &TransferSpec,
        observer: &mut dyn Observer,
        runtime: &SamplingRuntime,
    ) -> Result<(PolyRecovery, PolyRecovery), RefgenError> {
        self.preflight(sys, spec)?;
        let (den, num) = Orders::of(sys, spec);
        let mut opening = SharedOpening::new(den.window.max(num.window));
        let mut recover = |kind, orders| {
            self.recover(sys, spec, kind, orders, observer, runtime, Some(&mut opening))
        };
        let denominator = recover(PolyKind::Denominator, den)?;
        Ok((denominator, recover(PolyKind::Numerator, num)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::NullObserver;
    use refgen_circuit::library::{graded_rc_ladder, positive_feedback_ota, rc_ladder};
    use refgen_circuit::Circuit;
    use refgen_numeric::ExtFloat;

    fn spec() -> TransferSpec {
        TransferSpec::voltage_gain("VIN", "out")
    }

    /// Exact ladder denominator coefficients via the ABCD chain recurrence
    /// (see `tests/` for the dd-precision version): for the unit ladder
    /// (R = C = 1) the recursion over sections is exact in small integers.
    fn unit_ladder_denominator(n: usize) -> Vec<f64> {
        // State: (A(s), B(s)) polynomials such that V_in = A·V_out,
        // I_in = … — derive by walking the ladder from the output end:
        // v_{k} = v_{k-1}·(1 + sRC) + i_{k-1}·R; i_k = i_{k-1} + sC·v_k.
        // With R = C = 1 and rational bookkeeping in f64 (coefficients are
        // small integers for moderate n).
        let mut v = vec![1.0]; // v(out) = 1
        let mut i = vec![0.0, 1.0]; // i through the last cap = s·C·v = s
        for _ in 1..n {
            // v_new = v + R·i ; i_new = i + s·C·v_new
            let mut v_new = vec![0.0; v.len().max(i.len())];
            for (k, &c) in v.iter().enumerate() {
                v_new[k] += c;
            }
            for (k, &c) in i.iter().enumerate() {
                v_new[k] += c;
            }
            let mut i_new = vec![0.0; v_new.len() + 1];
            for (k, &c) in i.iter().enumerate() {
                i_new[k] += c;
            }
            for (k, &c) in v_new.iter().enumerate() {
                i_new[k + 1] += c;
            }
            v = v_new;
            i = i_new;
        }
        // v(in) = v + R·i — the denominator polynomial (numerator is 1).
        let mut d = vec![0.0; v.len().max(i.len())];
        for (k, &c) in v.iter().enumerate() {
            d[k] += c;
        }
        for (k, &c) in i.iter().enumerate() {
            d[k] += c;
        }
        d
    }

    #[test]
    fn unit_ladder_exact_coefficients() {
        // R = C = 1 ladder: compare against the exact integer recurrence.
        let n = 6;
        let c = rc_ladder(n, 1.0, 1.0);
        let nf = AdaptiveInterpolator::default().solve(&c, &spec()).unwrap();
        let want = unit_ladder_denominator(n);
        let got = nf.denominator.coeffs();
        assert_eq!(got.len(), want.len());
        // The MNA determinant equals the ladder polynomial up to a constant
        // (source-branch sign/element product), so compare ratios to p0.
        let p0 = got[0].re().to_f64();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            let ratio = g.re().to_f64() / p0;
            let rel = (ratio - w).abs() / w;
            assert!(rel < 1e-9, "coeff {i}: got ratio {ratio} want {w}");
            assert!(g.im().to_f64().abs() < 1e-9 * g.re().to_f64().abs(), "imag of coeff {i}");
        }
        // Numerator of the ladder is a constant (degree 0) and H(0) = 1.
        assert_eq!(nf.numerator.degree(), Some(0));
        assert!((nf.dc_gain() - Complex::ONE).abs() < 1e-9);
    }

    #[test]
    fn ic_valued_ladder_needs_multiple_windows() {
        // R = 1 kΩ, C = 1 nF over 30 sections at IC-like values forces the
        // coefficient spread well past 13 decades.
        let n = 30;
        let c = rc_ladder(n, 1e3, 1e-9);
        let nf = AdaptiveInterpolator::default().solve(&c, &spec()).unwrap();
        assert_eq!(nf.denominator.degree(), Some(n));
        let rep = &nf.report.denominator;
        assert!(
            rep.windows.len() >= 2,
            "expected multiple interpolations, got {}",
            rep.windows.len()
        );
        // All coefficients of an RC-ladder denominator share one sign (the
        // MNA determinant carries a global ± from the source branch).
        let sign = nf.denominator.coeffs()[0].re().signum();
        for (i, coeff) in nf.denominator.coeffs().iter().enumerate() {
            assert!(coeff.re().signum() == sign, "coefficient {i} flipped sign");
        }
        // Consecutive-coefficient ratios are ~G/C = 1e6 per step (the
        // paper's §2.2 argument), modulated by the ladder's combinatorial
        // factors (up to ~n²/2 ≈ 10^2.7 near the ends).
        for w in nf.denominator.coeffs().windows(2) {
            let ratio = (w[0].norm() / w[1].norm()).log10();
            assert!(ratio > 2.5 && ratio < 9.5, "ratio 1e{ratio:.1}");
        }
    }

    #[test]
    fn scaled_ladder_matches_unit_ladder_analytically() {
        // D(s) for (R, C) relates to the unit ladder by s → RC·s and a
        // factor g^M: check coefficient *ratios* p_i/p_0 = unit_i·(RC)^i.
        let n = 8;
        let (r, cap) = (1e3, 1e-9);
        let c = rc_ladder(n, r, cap);
        let nf = AdaptiveInterpolator::default().solve(&c, &spec()).unwrap();
        let unit = unit_ladder_denominator(n);
        let got = nf.denominator.coeffs();
        let rc = ExtFloat::from_f64(r * cap);
        for i in 1..=n {
            let expect = ExtFloat::from_f64(unit[i] / unit[0]) * rc.powi(i as i64);
            let actual = got[i].norm() / got[0].norm();
            let rel = ((actual / expect).log10()).abs();
            assert!(rel < 1e-6, "i={i}: ratio off by 1e{rel:.2}");
        }
    }

    #[test]
    fn ota_ninth_order_denominator() {
        let c = positive_feedback_ota();
        let nf = AdaptiveInterpolator::default().solve(&c, &spec()).unwrap();
        // 9 state nodes → denominator order 9 (the paper's OTA estimate).
        assert_eq!(nf.denominator.degree(), Some(9), "report: {:?}", nf.report.denominator);
        // Consecutive-coefficient ratios within the paper's 1e6..1e12 band.
        let coeffs = nf.denominator.coeffs();
        for (i, w) in coeffs.windows(2).enumerate() {
            if w[1].is_zero() {
                continue;
            }
            let ratio = (w[0].norm() / w[1].norm()).log10();
            assert!(ratio > 5.0 && ratio < 13.0, "ratio p{i}/p{} = 1e{ratio:.1}", i + 1);
        }
    }

    #[test]
    fn reduction_reduces_point_counts() {
        let c = rc_ladder(24, 1e3, 1e-9);
        let with = AdaptiveInterpolator::new(RefgenConfig { reduce: true, ..Default::default() })
            .solve_polynomial(&c, &spec(), PolyKind::Denominator, &mut NullObserver)
            .unwrap()
            .1;
        let without =
            AdaptiveInterpolator::new(RefgenConfig { reduce: false, ..Default::default() })
                .solve_polynomial(&c, &spec(), PolyKind::Denominator, &mut NullObserver)
                .unwrap()
                .1;
        assert!(
            with.total_points < without.total_points,
            "reduced {} vs unreduced {}",
            with.total_points,
            without.total_points
        );
        // Reduced windows after the first must use fewer points each.
        for w in with.windows.iter().skip(1).filter(|w| w.reduced) {
            assert!(w.points <= 24);
        }
    }

    #[test]
    fn graded_ladder_still_converges() {
        let c = graded_rc_ladder(12, 1e3, 1e-12, 1.8, 0.6);
        let nf = AdaptiveInterpolator::default().solve(&c, &spec()).unwrap();
        assert_eq!(nf.denominator.degree(), Some(12));
        let warnings: Vec<_> = nf.report.denominator.warnings().collect();
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn numerator_with_zeros() {
        // A twin-T-ish notch: numerator has interior structure. Build a
        // simple band-pass RC (series C, shunt R): N(s) has a zero at 0.
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_capacitor("C1", "in", "out", 1e-9).unwrap();
        c.add_resistor("R1", "out", "0", 1e3).unwrap();
        c.add_capacitor("C2", "out", "0", 1e-10).unwrap();
        let nf = AdaptiveInterpolator::default().solve(&c, &spec()).unwrap();
        // H = sRC1/(1 + sR(C1+C2)): numerator degree 1 with p0 = 0.
        assert_eq!(nf.numerator.degree(), Some(1));
        assert!(
            nf.numerator.coeffs()[0].is_zero() || {
                let r = (nf.numerator.coeffs()[0].norm() / nf.numerator.coeffs()[1].norm()).log10();
                r < -6.0
            }
        );
        // And the zero at the origin shows up in the roots.
        let zeros = nf.zeros();
        assert_eq!(zeros.len(), 1);
    }

    #[test]
    fn rejects_capless() {
        let mut c2 = Circuit::new();
        c2.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c2.add_resistor("R1", "in", "out", 1e3).unwrap();
        c2.add_resistor("R2", "out", "0", 1e3).unwrap();
        assert!(matches!(
            AdaptiveInterpolator::default().solve(&c2, &spec()).map(|s| s.method),
            Err(RefgenError::NoReactiveElements)
        ));
    }

    #[test]
    fn inductor_circuit_uses_frequency_only_mode() {
        // Series RL: H(s) = R/(R + sL), pole at -R/L = -5e7 rad/s.
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_inductor("L1", "in", "out", 1e-6).unwrap();
        c.add_resistor("R1", "out", "0", 50.0).unwrap();
        let nf = AdaptiveInterpolator::default().solve(&c, &spec()).unwrap();
        assert_eq!(nf.denominator.degree(), Some(1));
        // Frequency-only mode pins g at 1 in every window.
        for w in &nf.report.denominator.windows {
            assert_eq!(w.scale.g, 1.0);
        }
        let poles = nf.poles();
        assert_eq!(poles.len(), 1);
        let p = poles[0].to_complex();
        assert!((p.re + 5e7).abs() / 5e7 < 1e-6, "pole {p}");
        assert!((nf.dc_gain() - Complex::ONE).abs() < 1e-9);
    }

    #[test]
    fn series_rlc_resonator() {
        // Series RLC driven by V source, output across C:
        // H(s) = 1/(1 + sRC + s²LC). f0 = 1/(2π√(LC)), Q = (1/R)·√(L/C).
        let (r, l, cap) = (10.0, 1e-6, 1e-9);
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "a", r).unwrap();
        c.add_inductor("L1", "a", "out", l).unwrap();
        c.add_capacitor("C1", "out", "0", cap).unwrap();
        let nf = AdaptiveInterpolator::default().solve(&c, &spec()).unwrap();
        assert_eq!(nf.denominator.degree(), Some(2));
        // Coefficient ratios: d1/d0 = RC, d2/d0 = LC.
        let d = nf.denominator.coeffs();
        let d1 = (d[1] / d[0]).re().to_f64();
        let d2 = (d[2] / d[0]).re().to_f64();
        assert!((d1 - r * cap).abs() / (r * cap) < 1e-6, "d1 {d1}");
        assert!((d2 - l * cap).abs() / (l * cap) < 1e-6, "d2 {d2}");
        // Resonant peaking: |H(jω0)| = Q = √(L/C)/R ≈ 3.16.
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * cap).sqrt());
        let q = (l / cap).sqrt() / r;
        let h = nf.response_at_hz(f0);
        assert!((h.abs() - q).abs() / q < 1e-6, "peak {} vs Q {q}", h.abs());
    }

    #[test]
    fn ccvs_circuit_recovers() {
        // A CCVS-loaded RC: transresistance feedback.
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "a", 1e3).unwrap();
        c.add_capacitor("C1", "a", "0", 1e-9).unwrap();
        c.add_ccvs("H1", "b", "0", "VIN", 2e3).unwrap();
        c.add_resistor("R2", "b", "out", 1e3).unwrap();
        c.add_capacitor("C2", "out", "0", 1e-9).unwrap();
        let nf = AdaptiveInterpolator::default().solve(&c, &spec()).unwrap();
        assert!(nf.denominator.degree().is_some());
        // Cross-check against the AC simulator at a few frequencies.
        let ac = refgen_mna::AcAnalysis::new(&c, spec()).unwrap();
        for f in [1e2, 1e5, 1e7] {
            let sim = ac.at(f).unwrap().response;
            let poly = nf.response_at_hz(f);
            assert!((poly - sim).abs() / sim.abs() < 1e-8, "at {f} Hz");
        }
    }

    #[test]
    fn transimpedance_with_current_source_input() {
        // Current-source input exercises the numerator cofactor's reduced
        // admittance degree (M_N = M − 1): H = v(out)/i has units of Ω.
        let mut c = Circuit::new();
        c.add_isource("IIN", "0", "in", 1e-3).unwrap();
        c.add_resistor("R1", "in", "0", 2e3).unwrap();
        c.add_capacitor("C1", "in", "0", 1e-9).unwrap();
        c.add_resistor("R2", "in", "out", 5e3).unwrap();
        c.add_capacitor("C2", "out", "0", 0.2e-9).unwrap();
        c.add_resistor("R3", "out", "0", 10e3).unwrap();
        let spec = TransferSpec::voltage_gain("IIN", "out");
        let nf = AdaptiveInterpolator::default().solve(&c, &spec).unwrap();
        // DC transimpedance: v(out)/i with the resistive divider:
        // in-node sees R1 ∥ (R2+R3) = 2k ∥ 15k; out = v(in)·R3/(R2+R3).
        let rin = 1.0 / (1.0 / 2e3 + 1.0 / 15e3);
        let want = rin * 10e3 / 15e3;
        assert!((nf.dc_gain().re - want).abs() / want < 1e-9, "dc {} vs {want}", nf.dc_gain().re);
        // Against the AC simulator at speed.
        let ac = refgen_mna::AcAnalysis::new(&c, spec).unwrap();
        for f in [1e3, 1e5, 1e6, 1e8] {
            let sim = ac.at(f).unwrap().response;
            let poly = nf.response_at_hz(f);
            assert!((poly - sim).abs() / sim.abs() < 1e-9, "at {f} Hz");
        }
    }

    #[test]
    fn vcvs_biquad_through_engine() {
        // Tow-Thomas uses three VCVS branches: exercises branch-equation
        // homogeneity (M = dim − 2B) inside the interpolation engine.
        let c = refgen_circuit::library::tow_thomas_biquad(10e3, 5.0, 1e5);
        let spec = spec();
        let nf = AdaptiveInterpolator::default().solve(&c, &spec).unwrap();
        let ac = refgen_mna::AcAnalysis::new(&c, spec).unwrap();
        for f in [1e2, 9e3, 10e3, 11e3, 1e6] {
            let sim = ac.at(f).unwrap().response;
            let poly = nf.response_at_hz(f);
            assert!((poly - sim).abs() / sim.abs() < 1e-7, "at {f} Hz: {poly} vs {sim}");
        }
        // Band-pass resonance at f0 with the expected Q-peaking.
        let peak = nf.response_at_hz(10e3).abs();
        assert!(peak > 3.0 * nf.response_at_hz(1e2).abs());
    }

    #[test]
    fn differential_output_through_engine() {
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "p", 1e3).unwrap();
        c.add_capacitor("C1", "p", "0", 1e-9).unwrap();
        c.add_resistor("R2", "in", "m", 1e3).unwrap();
        c.add_capacitor("C2", "m", "0", 2e-9).unwrap();
        let spec = TransferSpec::differential_gain("VIN", "p", "m");
        let nf = AdaptiveInterpolator::default().solve(&c, &spec).unwrap();
        // H = 1/(1+sτ1) − 1/(1+sτ2): zero DC gain, band-pass-ish shape.
        assert!(nf.dc_gain().abs() < 1e-9);
        let ac = refgen_mna::AcAnalysis::new(&c, spec).unwrap();
        for f in [1e4, 2e5, 1e7] {
            let sim = ac.at(f).unwrap().response;
            let poly = nf.response_at_hz(f);
            assert!((poly - sim).abs() / sim.abs() < 1e-8, "at {f} Hz");
        }
    }

    #[test]
    fn budget_exhaustion_reports_missing() {
        // One interpolation cannot tile a 30-section IC-valued ladder.
        let c = rc_ladder(30, 1e3, 1e-9);
        let cfg = RefgenConfig { max_interpolations: 1, verify: false, ..Default::default() };
        match AdaptiveInterpolator::new(cfg).solve_polynomial(
            &c,
            &spec(),
            PolyKind::Denominator,
            &mut NullObserver,
        ) {
            Err(RefgenError::DidNotConverge { missing }) => {
                assert!(!missing.is_empty());
            }
            other => panic!("expected DidNotConverge, got {:?}", other.map(|_| "ok")),
        }
    }

    /// The budget caps every window opened, verify windows included: a
    /// checked window is opened only when its verify window fits too.
    #[test]
    fn budget_caps_every_window_opened() {
        use crate::diagnostic::CollectObserver;
        let c = rc_ladder(30, 1e3, 1e-9);
        for verify in [true, false] {
            for budget in 2..=8 {
                let cfg = RefgenConfig::builder().max_interpolations(budget).verify(verify).build();
                let interp = AdaptiveInterpolator::new(cfg);
                let (mut den, mut full) = (CollectObserver::new(), CollectObserver::new());
                let _ = interp.solve_polynomial(&c, &spec(), PolyKind::Denominator, &mut den);
                let _ = interp.solve_observed(&c, &spec(), &mut full);
                for kind in [PolyKind::Denominator, PolyKind::Numerator] {
                    for (events, solve) in [(&den.events, "polynomial"), (&full.events, "full")] {
                        let opened = events
                            .iter()
                            .filter(|d| matches!(d, Diagnostic::WindowOpened { kind: k, .. } if *k == kind))
                            .count();
                        assert!(
                            opened <= budget,
                            "{solve} solve, verify {verify}: {opened} {kind:?} windows on a budget of {budget}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn solve_system_reuses_system() {
        let c = rc_ladder(4, 1e3, 1e-9);
        let sys = MnaSystem::new(&c).unwrap();
        let interp = AdaptiveInterpolator::default();
        let runtime = SamplingRuntime::new(&interp.config);
        let a = interp.solve_system(&sys, &spec(), &mut NullObserver, &runtime).unwrap();
        let b = interp.solve(&c, &spec()).unwrap();
        for (x, y) in a.denominator.coeffs().iter().zip(b.denominator.coeffs()) {
            assert!(((*x - *y).norm() / y.norm()).to_f64() < 1e-12);
        }
    }

    #[test]
    fn accept_window_flags_cross_check_mismatch() {
        use crate::diagnostic::CollectObserver;
        // Two overlapping windows that disagree on coefficient 0 by 1%:
        // far beyond the acceptance tolerance, so the merge must emit a
        // CrossCheckMismatch and keep the higher-quality value.
        let interp = AdaptiveInterpolator::default();
        let window = |v: f64, quality_decades: f64| Window {
            scale: Scale::unit(),
            offset: 0,
            normalized: vec![ExtComplex::new(Complex::new(v, 0.0), 0)],
            threshold: ExtFloat::from_f64(v) * ExtFloat::exp10(-quality_decades),
            max_idx: 0,
            region: Some((0, 0)),
            points: 1,
            reduced: false,
            noise_floor: ExtFloat::ZERO,
            threads: 1,
            stats: refgen_mna::SweepStats::default(),
            mirrored: 0,
            ordering: None,
        };
        let mut accepted = BTreeMap::new();
        let mut report = PolyReport {
            kind: PolyKind::Denominator,
            windows: Vec::new(),
            declared_zero: Vec::new(),
            diagnostics: Vec::new(),
            order_bound: 0,
            effective_degree: None,
            total_points: 0,
            refactor_hits: 0,
        };
        let mut obs = CollectObserver::new();
        interp.accept_window(&window(1.0, 9.0), 0, &mut accepted, &mut report, &mut obs);
        assert!(obs.events.is_empty(), "first window has nothing to disagree with");
        interp.accept_window(&window(1.01, 5.0), 0, &mut accepted, &mut report, &mut obs);
        let mismatches: Vec<_> = obs
            .events
            .iter()
            .filter(|d| matches!(d, Diagnostic::CrossCheckMismatch { .. }))
            .collect();
        assert_eq!(mismatches.len(), 1, "events: {:?}", obs.events);
        match mismatches[0] {
            Diagnostic::CrossCheckMismatch { kind, index, rel_err } => {
                assert_eq!(*kind, PolyKind::Denominator);
                assert_eq!(*index, 0);
                assert!((rel_err - 0.01).abs() < 1e-3, "rel {rel_err}");
            }
            _ => unreachable!(),
        }
        // Streamed and recorded trails agree, and the better value wins.
        assert_eq!(report.diagnostics, obs.events);
        let kept = accepted.get(&0).expect("still accepted").value;
        assert!((kept.to_complex().re - 1.0).abs() < 1e-12, "higher quality kept: {kept:?}");
    }

    /// The µA741's stall retries clamp at `max_step_decades_per_index`,
    /// so escalating attempts land on the previous attempt's scale; those
    /// are skipped. And the numerator's opening window and verify window
    /// take the denominator's transfer samples: they report no solves of
    /// their own, while the denominator's windows at the same scales
    /// report them — at lane width 1 and batched alike, with identical
    /// coefficients.
    #[test]
    fn ua741_skips_repeated_retries_and_shares_opening_windows() {
        let c = refgen_circuit::library::ua741();
        let mut coefficients = Vec::new();
        for lanes in [1, 32] {
            let cfg = RefgenConfig::builder().threads(1).lane_width(lanes).build();
            let nf = AdaptiveInterpolator::new(cfg).solve(&c, &spec()).unwrap();
            for rep in [&nf.report.denominator, &nf.report.numerator] {
                for pair in rep.windows.windows(2) {
                    let same = pair[0].scale.f.to_bits() == pair[1].scale.f.to_bits()
                        && pair[0].scale.g.to_bits() == pair[1].scale.g.to_bits();
                    assert!(!same, "{:?}: a window repeats its predecessor's scale", rep.kind);
                }
            }
            let batches = |rep: &PolyReport| -> Vec<(usize, u64, u64)> {
                rep.diagnostics
                    .iter()
                    .filter_map(|d| match *d {
                        Diagnostic::SamplingBatched { points, compiled_hits, mirrored, .. } => {
                            Some((points, compiled_hits, mirrored))
                        }
                        _ => None,
                    })
                    .collect()
            };
            let (den, num) = (batches(&nf.report.denominator), batches(&nf.report.numerator));
            let (d0, n0) = (&nf.report.denominator.windows, &nf.report.numerator.windows);
            for w in 0..2 {
                assert_eq!(d0[w].scale, n0[w].scale, "lanes {lanes}: opening window {w}");
                assert_eq!(num[w], (den[w].0, 0, 0), "lanes {lanes}: shared window {w}");
                assert!(den[w].1 > 0, "lanes {lanes}: the denominator window solved");
            }
            assert!(num[2..].iter().all(|&(_, hits, _)| hits > 0), "later windows sample");
            coefficients.push(format!("{:?} {:?}", nf.denominator.coeffs(), nf.numerator.coeffs()));
        }
        assert_eq!(coefficients[0], coefficients[1], "lane width changes no coefficient bit");
    }

    #[test]
    fn network_function_evaluation() {
        let c = rc_ladder(1, 1e3, 1e-9);
        let nf = AdaptiveInterpolator::default().solve(&c, &spec()).unwrap();
        // H(0) = 1; pole at -1/RC.
        assert!((nf.dc_gain() - Complex::ONE).abs() < 1e-9);
        let poles = nf.poles();
        assert_eq!(poles.len(), 1);
        let p = poles[0].to_complex();
        assert!((p.re + 1e6).abs() / 1e6 < 1e-6, "pole {p}");
        // |H| at the pole frequency.
        let h = nf.response_at_hz(1e6 / (2.0 * std::f64::consts::PI));
        assert!((h.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6);
    }
}
