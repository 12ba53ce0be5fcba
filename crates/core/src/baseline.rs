//! The conventional interpolation methods the paper compares against —
//! both as raw window inspectors and as [`Solver`] implementations.
//!
//! Raw inspectors (paper-table data, garbage coefficients included):
//!
//! * [`static_interpolation`] — one interpolation at a fixed [`Scale`].
//!   With `Scale::unit()` this is the classical unit-circle method whose
//!   round-off failure Table 1a demonstrates; with a hand-picked frequency
//!   scale it reproduces Table 1b.
//! * [`multi_scale_grid`] — the §3.1 strawman: a pre-chosen grid of scale
//!   factors, merging whatever windows happen to be valid. The ablation
//!   bench compares its interpolation count and coverage against the
//!   adaptive algorithm.
//!
//! Solver wrappers ([`UnitCircleSolver`], [`StaticScalingSolver`],
//! [`MultiScaleGridSolver`]) answer the same question as the adaptive
//! algorithm through the common [`Solver`] trait, with the baselines'
//! honest semantics: a valid window (or merged grid coverage) must reach
//! coefficient 0, interior holes are a typed
//! [`RefgenError::DidNotConverge`], and the uncovered *tail* is
//! optimistically declared zero with a warning-severity
//! [`Diagnostic::CoefficientsDeclaredZero`] — these methods cannot tell a
//! true zero from a coefficient drowned in round-off, which is exactly the
//! failure mode the paper's adaptive sequence exists to fix.

use crate::adaptive::{poly_admittance_degree, PolyReport};
use crate::config::RefgenConfig;
use crate::diagnostic::{Diagnostic, Observer};
use crate::error::RefgenError;
use crate::runtime::SamplingRuntime;
use crate::scaling::initial_scale;
use crate::solver::{PolyRecovery, Solver};
use crate::window::{interpolate_window, PolyKind, Sampler, Window};
use refgen_circuit::Circuit;
use refgen_mna::{MnaSystem, Scale, TransferSpec};
use refgen_numeric::{ExtComplex, ExtPoly};

/// Result of a single fixed-scale interpolation of both polynomials.
#[derive(Clone, Debug)]
pub struct StaticInterpolation {
    /// Scale used.
    pub scale: Scale,
    /// Numerator window (normalized coefficients + validity).
    pub numerator: Window,
    /// Denominator window.
    pub denominator: Window,
    /// Admittance degree used for denormalization.
    pub admittance_degree: i64,
}

impl StaticInterpolation {
    /// Denormalized coefficient `p_i = p'_i/(f^i·g^{M−i})` of the selected
    /// polynomial, regardless of validity (Table 1a prints the garbage too).
    pub fn denormalized(&self, kind: PolyKind, i: usize) -> Option<ExtComplex> {
        let w = match kind {
            PolyKind::Numerator => &self.numerator,
            PolyKind::Denominator => &self.denominator,
        };
        w.denormalized(i, self.admittance_degree)
    }
}

/// The order every window of a fixed-scale method interpolates to (the
/// reactive-element count), rejecting inputs no fixed-scale method can
/// handle.
fn static_order(sys: &MnaSystem) -> Result<usize, RefgenError> {
    if sys.has_unscalable_elements() {
        return Err(RefgenError::Unscalable);
    }
    match sys.circuit().reactive_count() {
        0 => Err(RefgenError::NoReactiveElements),
        n_max => Ok(n_max),
    }
}

/// One interpolation at a fixed scale with `K = reactive_count + 1` points.
///
/// # Errors
///
/// Propagates MNA errors; rejects unscalable circuits.
pub fn static_interpolation(
    circuit: &Circuit,
    spec: &TransferSpec,
    scale: Scale,
    config: &RefgenConfig,
) -> Result<StaticInterpolation, RefgenError> {
    let sys = MnaSystem::new(circuit)?;
    let n_max = static_order(&sys)?;
    let m = sys.admittance_degree();
    let runtime = SamplingRuntime::new(config);
    let den = interpolate_window(
        &Sampler { sys: &sys, spec, kind: PolyKind::Denominator },
        scale,
        n_max,
        m,
        None,
        config,
        &runtime,
        None,
    )?;
    let num = interpolate_window(
        &Sampler { sys: &sys, spec, kind: PolyKind::Numerator },
        scale,
        n_max,
        m,
        None,
        config,
        &runtime,
        None,
    )?;
    Ok(StaticInterpolation { scale, numerator: num, denominator: den, admittance_degree: m })
}

/// Converts one fixed-scale [`Window`] into a polynomial + report under the
/// baseline semantics described in the [module docs](self).
fn poly_from_window(
    w: &Window,
    m_adm: i64,
    n_max: usize,
    kind: PolyKind,
    observer: &mut dyn Observer,
) -> Result<(ExtPoly, PolyReport), RefgenError> {
    let mut report = PolyReport::new(kind, n_max);
    report.record_window(observer, w);
    let Some((lo, hi)) = w.region else {
        if w.threshold.is_zero() {
            // Every sample was exactly zero: the polynomial is zero.
            report.emit(observer, Diagnostic::AllSamplesZero { kind });
            return Ok((ExtPoly::zero(), report));
        }
        return Err(RefgenError::DidNotConverge { missing: (0..=n_max).collect() });
    };
    if lo > 0 {
        // The low-order head never validated: no complete answer exists.
        return Err(RefgenError::DidNotConverge { missing: (0..lo).collect() });
    }
    if hi < n_max {
        report.emit(observer, Diagnostic::CoefficientsDeclaredZero { kind, lo: hi + 1, hi: n_max });
        report.declared_zero = (hi + 1..=n_max).collect();
    }
    let coeffs: Vec<ExtComplex> = (0..=n_max)
        .map(|i| {
            if i > hi {
                return ExtComplex::ZERO;
            }
            w.denormalized(i, m_adm).expect("region within window")
        })
        .collect();
    let poly = ExtPoly::new(coeffs);
    report.effective_degree = poly.degree();
    Ok((poly, report))
}

/// One polynomial at a fixed scale (`None`: the circuit's heuristic
/// initial scale), denormalized with *that polynomial's* admittance degree
/// (the numerator cofactor of a current-source-driven spec has one
/// admittance factor fewer — same rule the adaptive driver applies).
fn static_polynomial(
    sys: &MnaSystem,
    spec: &TransferSpec,
    kind: PolyKind,
    scale: Option<Scale>,
    config: &RefgenConfig,
    observer: &mut dyn Observer,
    runtime: &SamplingRuntime,
) -> Result<PolyRecovery, RefgenError> {
    let n_max = static_order(sys)?;
    let scale = scale.unwrap_or_else(|| initial_scale(sys.circuit()));
    let m_poly = poly_admittance_degree(sys, spec, kind)?;
    let sampler = Sampler { sys, spec, kind };
    let w = interpolate_window(&sampler, scale, n_max, m_poly, None, config, runtime, None)?;
    poly_from_window(&w, m_poly, n_max, kind, observer)
}

/// Table 1a's method as a [`Solver`]: one interpolation on the raw unit
/// circle, no scaling at all. Succeeds only on circuits whose coefficient
/// spread fits a single window — the paper's §2.2 point is that IC-valued
/// circuits do not.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitCircleSolver {
    config: RefgenConfig,
}

impl UnitCircleSolver {
    /// Creates the solver.
    pub fn new(config: RefgenConfig) -> Self {
        UnitCircleSolver { config }
    }

    /// Raw window data at the unit scale (for paper-table printing).
    ///
    /// # Errors
    ///
    /// See [`static_interpolation`].
    pub fn interpolation(
        &self,
        circuit: &Circuit,
        spec: &TransferSpec,
    ) -> Result<StaticInterpolation, RefgenError> {
        static_interpolation(circuit, spec, Scale::unit(), &self.config)
    }
}

impl Solver for UnitCircleSolver {
    fn name(&self) -> &'static str {
        "unit-circle"
    }

    fn config(&self) -> &RefgenConfig {
        &self.config
    }

    fn recover_polynomial(
        &self,
        sys: &MnaSystem,
        spec: &TransferSpec,
        kind: PolyKind,
        observer: &mut dyn Observer,
        runtime: &SamplingRuntime,
    ) -> Result<PolyRecovery, RefgenError> {
        let scale = Some(Scale::unit());
        static_polynomial(sys, spec, kind, scale, &self.config, observer, runtime)
    }
}

/// Table 1b's method as a [`Solver`]: one interpolation at a single static
/// scale — either a fixed, hand-picked [`Scale`] or the paper's initial
/// heuristic (`f = 1/mean(C)`, `g = 1/mean(G)`).
#[derive(Clone, Copy, Debug)]
pub struct StaticScalingSolver {
    scale: Option<Scale>,
    config: RefgenConfig,
}

impl StaticScalingSolver {
    /// Uses the heuristic initial scale of the circuit under solve.
    pub fn heuristic(config: RefgenConfig) -> Self {
        StaticScalingSolver { scale: None, config }
    }

    /// Uses a fixed, hand-picked scale (Table 1b's `f = 1e9`).
    pub fn with_scale(scale: Scale, config: RefgenConfig) -> Self {
        StaticScalingSolver { scale: Some(scale), config }
    }

    /// The scale this solver would use on `circuit`.
    fn scale_for(&self, circuit: &Circuit) -> Scale {
        self.scale.unwrap_or_else(|| initial_scale(circuit))
    }

    /// Raw window data at this solver's scale (for paper-table printing).
    ///
    /// # Errors
    ///
    /// See [`static_interpolation`].
    pub fn interpolation(
        &self,
        circuit: &Circuit,
        spec: &TransferSpec,
    ) -> Result<StaticInterpolation, RefgenError> {
        static_interpolation(circuit, spec, self.scale_for(circuit), &self.config)
    }
}

impl Solver for StaticScalingSolver {
    fn name(&self) -> &'static str {
        "static-scaling"
    }

    fn config(&self) -> &RefgenConfig {
        &self.config
    }

    fn recover_polynomial(
        &self,
        sys: &MnaSystem,
        spec: &TransferSpec,
        kind: PolyKind,
        observer: &mut dyn Observer,
        runtime: &SamplingRuntime,
    ) -> Result<PolyRecovery, RefgenError> {
        static_polynomial(sys, spec, kind, self.scale, &self.config, observer, runtime)
    }
}

/// Coverage outcome of the naive multi-scale grid of §3.1.
#[derive(Clone, Debug)]
pub struct GridOutcome {
    /// Scales attempted.
    pub scales: Vec<Scale>,
    /// For each coefficient index, whether some window validated it.
    pub covered: Vec<bool>,
    /// Total interpolation points spent.
    pub total_points: usize,
    /// Merged denormalized denominator coefficients (best-quality window
    /// per index; `None` where uncovered).
    pub denominator: Vec<Option<ExtComplex>>,
}

impl GridOutcome {
    /// `true` when every coefficient was captured by some window.
    pub fn complete(&self) -> bool {
        self.covered.iter().all(|&c| c)
    }
}

/// Merged grid recovery of one polynomial: per-index best value + coverage
/// (per-window summaries/diagnostics are the caller's `on_window` job).
struct GridPoly {
    scales: Vec<Scale>,
    covered: Vec<bool>,
    total_points: usize,
    best: Vec<Option<(f64, ExtComplex)>>,
}

/// Runs the §3.1 grid on one polynomial, merging valid windows.
#[allow(clippy::too_many_arguments)]
fn grid_recover(
    sys: &MnaSystem,
    spec: &TransferSpec,
    kind: PolyKind,
    f_lo: f64,
    f_hi: f64,
    count: usize,
    config: &RefgenConfig,
    runtime: &SamplingRuntime,
    mut on_window: impl FnMut(&Window),
) -> Result<GridPoly, RefgenError> {
    assert!(count >= 2 && f_lo > 0.0 && f_hi > f_lo);
    let n_max = sys.circuit().reactive_count();
    let m = poly_admittance_degree(sys, spec, kind)?;
    let gs = sys.circuit().conductance_values();
    let g = 1.0 / refgen_numeric::stats::mean(&gs).expect("conductances exist");
    let sampler = Sampler { sys, spec, kind };

    let mut out = GridPoly {
        scales: Vec::with_capacity(count),
        covered: vec![false; n_max + 1],
        total_points: 0,
        best: vec![None; n_max + 1],
    };
    for i in 0..count {
        let t = i as f64 / (count - 1) as f64;
        let f = 10f64.powf(f_lo.log10() + t * (f_hi.log10() - f_lo.log10()));
        let scale = Scale::new(f, g);
        out.scales.push(scale);
        let w = interpolate_window(&sampler, scale, n_max, m, None, config, runtime, None)?;
        out.total_points += w.points;
        on_window(&w);
        if let Some((lo, hi)) = w.region {
            for idx in lo..=hi {
                out.covered[idx] = true;
                let q = w.quality(idx);
                let keep = out.best[idx].map(|(oldq, _)| q > oldq).unwrap_or(true);
                if keep {
                    out.best[idx] = Some((q, w.denormalized(idx, m).expect("in region")));
                }
            }
        }
    }
    Ok(out)
}

/// Runs the §3.1 strawman on the denominator: a log-spaced grid of
/// `count` frequency scale factors between `f_lo` and `f_hi` (conductance
/// scale fixed at the mean heuristic), merging valid windows.
///
/// The paper's §3.1 point is precisely that this either wastes
/// interpolations (grid too fine) or leaves holes (grid too coarse) —
/// the ablation bench quantifies both against the adaptive algorithm.
///
/// # Errors
///
/// Propagates MNA errors.
///
/// # Panics
///
/// Panics if `count < 2` or the bounds are not positive/ordered.
pub fn multi_scale_grid(
    circuit: &Circuit,
    spec: &TransferSpec,
    f_lo: f64,
    f_hi: f64,
    count: usize,
    config: &RefgenConfig,
) -> Result<GridOutcome, RefgenError> {
    let sys = MnaSystem::new(circuit)?;
    static_order(&sys)?;
    let runtime = SamplingRuntime::new(config);
    let g = grid_recover(
        &sys,
        spec,
        PolyKind::Denominator,
        f_lo,
        f_hi,
        count,
        config,
        &runtime,
        |_| {},
    )?;
    Ok(GridOutcome {
        scales: g.scales,
        covered: g.covered,
        total_points: g.total_points,
        denominator: g.best.into_iter().map(|b| b.map(|(_, v)| v)).collect(),
    })
}

/// The §3.1 naive multi-scale grid as a [`Solver`]: `count` log-spaced
/// frequency scales between `f_lo` and `f_hi`, valid windows merged by
/// quality. Same prefix-coverage semantics as the other baselines; interior
/// coverage holes (the "grid too coarse" failure) are a typed
/// [`RefgenError::DidNotConverge`].
#[derive(Clone, Copy, Debug)]
pub struct MultiScaleGridSolver {
    /// Lowest frequency scale of the grid.
    pub f_lo: f64,
    /// Highest frequency scale of the grid.
    pub f_hi: f64,
    /// Number of grid points.
    pub count: usize,
    config: RefgenConfig,
}

impl MultiScaleGridSolver {
    /// Creates the solver.
    ///
    /// # Panics
    ///
    /// Panics if `count < 2` or the bounds are not positive/ordered
    /// (checked again at solve time).
    pub fn new(f_lo: f64, f_hi: f64, count: usize, config: RefgenConfig) -> Self {
        assert!(count >= 2 && f_lo > 0.0 && f_hi > f_lo);
        MultiScaleGridSolver { f_lo, f_hi, count, config }
    }
}

impl Solver for MultiScaleGridSolver {
    fn name(&self) -> &'static str {
        "multi-scale-grid"
    }

    fn config(&self) -> &RefgenConfig {
        &self.config
    }

    /// Merged grid recovery of one polynomial, reported under the baseline
    /// prefix-coverage semantics.
    fn recover_polynomial(
        &self,
        sys: &MnaSystem,
        spec: &TransferSpec,
        kind: PolyKind,
        observer: &mut dyn Observer,
        runtime: &SamplingRuntime,
    ) -> Result<PolyRecovery, RefgenError> {
        let n_max = static_order(sys)?;
        let mut report = PolyReport::new(kind, n_max);
        let g = grid_recover(
            sys,
            spec,
            kind,
            self.f_lo,
            self.f_hi,
            self.count,
            &self.config,
            runtime,
            |w| {
                report.record_window(observer, w);
            },
        )?;
        // Contiguous covered prefix; interior holes are a hard error.
        let prefix = g.covered.iter().take_while(|&&c| c).count();
        if prefix == 0 || g.covered[prefix..].contains(&true) {
            let missing = (0..=n_max).filter(|&i| !g.covered[i]).collect();
            return Err(RefgenError::DidNotConverge { missing });
        }
        let hi = prefix - 1;
        if hi < n_max {
            report.emit(
                observer,
                Diagnostic::CoefficientsDeclaredZero { kind, lo: hi + 1, hi: n_max },
            );
            report.declared_zero = (hi + 1..=n_max).collect();
        }
        let coeffs: Vec<ExtComplex> = (0..=n_max)
            .map(|i| if i > hi { ExtComplex::ZERO } else { g.best[i].expect("covered").1 })
            .collect();
        let poly = ExtPoly::new(coeffs);
        report.effective_degree = poly.degree();
        Ok((poly, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveInterpolator;
    use crate::diagnostic::NullObserver;
    use refgen_circuit::library::{positive_feedback_ota, rc_ladder};

    fn spec() -> TransferSpec {
        TransferSpec::voltage_gain("VIN", "out")
    }

    #[test]
    fn unit_circle_fails_on_ota() {
        // Table 1a's phenomenon: with no scaling, only the lowest OTA
        // coefficients survive.
        let c = positive_feedback_ota();
        let cfg = RefgenConfig::default();
        let si = static_interpolation(&c, &spec(), Scale::unit(), &cfg).unwrap();
        let (lo, hi) = si.denominator.region.unwrap();
        assert_eq!(lo, 0);
        assert!(hi <= 2, "unit-circle interpolation should lose p3.., got {:?}", (lo, hi));
    }

    #[test]
    fn frequency_scaling_recovers_more() {
        // Table 1b: a 1e9-ish frequency scale widens the valid window.
        let c = positive_feedback_ota();
        let cfg = RefgenConfig::default();
        let unscaled = static_interpolation(&c, &spec(), Scale::unit(), &cfg).unwrap();
        let scaled = static_interpolation(&c, &spec(), Scale::new(1e9, 1.0), &cfg).unwrap();
        let w0 = unscaled.denominator.region.unwrap();
        let w1 = scaled.denominator.region.unwrap();
        assert!(w1.1 - w1.0 > w0.1 - w0.0, "scaled window {w1:?} should beat unscaled {w0:?}");
    }

    #[test]
    fn static_matches_adaptive_where_valid() {
        let c = rc_ladder(10, 1e3, 1e-9);
        let cfg = RefgenConfig::default();
        let si = static_interpolation(&c, &spec(), Scale::new(1e9, 1e3), &cfg).unwrap();
        let nf = AdaptiveInterpolator::default().solve(&c, &spec()).unwrap();
        let (lo, hi) = si.denominator.region.unwrap();
        for i in lo..=hi {
            let a = si.denormalized(PolyKind::Denominator, i).unwrap();
            let b = nf.denominator.coeffs()[i];
            let rel = ((a - b).norm() / b.norm()).to_f64();
            assert!(rel < 1e-6, "i={i}, rel={rel:.2e}");
        }
    }

    #[test]
    fn coarse_grid_leaves_holes_fine_grid_wastes_points() {
        let c = rc_ladder(20, 1e3, 1e-9);
        let cfg = RefgenConfig::default();
        // A 2-point grid at the extremes puts the windows so far apart that
        // the middle coefficients are never valid in either.
        let coarse = multi_scale_grid(&c, &spec(), 1e2, 1e16, 2, &cfg).unwrap();
        assert!(!coarse.complete(), "coarse grid should leave holes");
        // A dense grid covers it but spends far more points than adaptive.
        let dense = multi_scale_grid(&c, &spec(), 1e3, 1e15, 24, &cfg).unwrap();
        let adaptive = AdaptiveInterpolator::default()
            .solve_polynomial(&c, &spec(), PolyKind::Denominator, &mut NullObserver)
            .unwrap()
            .1;
        let covered = |grid: &GridOutcome| grid.covered.iter().filter(|&&c| c).count();
        assert!(covered(&dense) > covered(&coarse));
        if dense.complete() {
            assert!(
                adaptive.total_points < dense.total_points,
                "adaptive {} vs grid {}",
                adaptive.total_points,
                dense.total_points
            );
        }
    }

    #[test]
    fn static_solver_solves_small_ladder() {
        // The heuristic scale normalizes a uniform ladder's coefficients to
        // O(1): one window covers everything and the Solution matches the
        // adaptive one.
        let c = rc_ladder(6, 1e3, 1e-9);
        let cfg = RefgenConfig::default();
        let s = StaticScalingSolver::heuristic(cfg).solve(&c, &spec()).unwrap();
        let a = AdaptiveInterpolator::new(cfg).solve(&c, &spec()).unwrap();
        assert_eq!(s.network.denominator.degree(), Some(6));
        for (x, y) in s.network.denominator.coeffs().iter().zip(a.network.denominator.coeffs()) {
            let rel = ((*x - *y).norm() / y.norm()).to_f64();
            assert!(rel < 1e-6, "rel {rel:.2e}");
        }
    }

    #[test]
    fn unit_circle_solver_truncates_with_diagnostic() {
        // On the OTA the unit-circle window reaches only p2: the solver
        // declares the tail zero and says so in a typed event.
        let c = positive_feedback_ota();
        let s = UnitCircleSolver::new(RefgenConfig::default()).solve(&c, &spec()).unwrap();
        let den = &s.network.report.denominator;
        assert!(!den.declared_zero.is_empty());
        assert!(den
            .diagnostics
            .iter()
            .any(|d| matches!(d, Diagnostic::CoefficientsDeclaredZero { .. })));
        // The truncated degree undershoots the adaptive truth (9).
        assert!(s.network.denominator.degree().unwrap() < 9);
    }

    #[test]
    fn grid_solver_covers_what_the_free_function_covers() {
        let c = rc_ladder(12, 1e3, 1e-9);
        let cfg = RefgenConfig::default();
        let solver = MultiScaleGridSolver::new(1e3, 1e15, 16, cfg);
        let s = solver.solve(&c, &spec()).unwrap();
        assert_eq!(s.method, "multi-scale-grid");
        assert_eq!(s.network.denominator.degree(), Some(12));
        let truth = AdaptiveInterpolator::new(cfg).solve(&c, &spec()).unwrap();
        for (x, y) in s.network.denominator.coeffs().iter().zip(truth.network.denominator.coeffs())
        {
            let rel = ((*x - *y).norm() / y.norm()).to_f64();
            assert!(rel < 1e-5, "rel {rel:.2e}");
        }
    }

    #[test]
    fn baseline_solvers_match_adaptive_on_current_source_input() {
        // Current-source input: the numerator cofactor has admittance
        // degree M−1, and the baselines must denormalize with that same
        // per-polynomial degree — otherwise every numerator coefficient
        // (hence the whole transfer function) is off by a factor g.
        let mut c = refgen_circuit::Circuit::new();
        c.add_isource("IIN", "0", "in", 1e-3).unwrap();
        c.add_resistor("R1", "in", "0", 2e3).unwrap();
        c.add_capacitor("C1", "in", "0", 1e-9).unwrap();
        c.add_resistor("R2", "in", "out", 5e3).unwrap();
        c.add_capacitor("C2", "out", "0", 0.2e-9).unwrap();
        c.add_resistor("R3", "out", "0", 10e3).unwrap();
        let spec = TransferSpec::voltage_gain("IIN", "out");
        let cfg = RefgenConfig::default();
        let truth = AdaptiveInterpolator::new(cfg).solve(&c, &spec).unwrap();
        let solvers: [&dyn Solver; 2] =
            [&StaticScalingSolver::heuristic(cfg), &MultiScaleGridSolver::new(1e6, 1e12, 8, cfg)];
        for solver in solvers {
            let got = solver.solve(&c, &spec).unwrap();
            for f in [1e3, 1e5, 1e7] {
                let a = truth.network.response_at_hz(f);
                let b = got.network.response_at_hz(f);
                assert!((a - b).abs() / a.abs() < 1e-6, "{} at {f} Hz: {a} vs {b}", got.method);
            }
        }
    }

    #[test]
    fn solve_polynomial_overrides_spend_one_polynomial_only() {
        // `solve_polynomial` must not silently fall back to a full
        // two-sided solve: a single-polynomial recovery costs exactly the
        // windows of that polynomial (half the full solve for the static
        // methods).
        let c = rc_ladder(6, 1e3, 1e-9);
        let cfg = RefgenConfig::default();
        for solver in [
            &StaticScalingSolver::heuristic(cfg) as &dyn Solver,
            &MultiScaleGridSolver::new(1e3, 1e15, 8, cfg),
        ] {
            let full = solver.solve(&c, &spec()).unwrap();
            let (_, den_only) = solver
                .solve_polynomial(&c, &spec(), PolyKind::Denominator, &mut NullObserver)
                .unwrap();
            assert_eq!(
                den_only.total_points,
                full.network.report.denominator.total_points,
                "{}",
                solver.name()
            );
            assert!(den_only.total_points < full.total_points(), "{}", solver.name());
        }
    }

    #[test]
    fn grid_solver_reports_holes_as_typed_error() {
        let c = rc_ladder(20, 1e3, 1e-9);
        let solver = MultiScaleGridSolver::new(1e2, 1e16, 2, RefgenConfig::default());
        match solver.solve(&c, &spec()) {
            Err(RefgenError::DidNotConverge { missing }) => assert!(!missing.is_empty()),
            other => panic!("expected DidNotConverge, got {:?}", other.map(|_| "ok")),
        }
    }
}
