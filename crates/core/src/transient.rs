//! Transient analysis through the [`Session`] front door.
//!
//! The heavy lifting — companion-model stamping, the one-factorization
//! stepping contract — lives in [`refgen_mna::transient`]; this module is
//! the runner that turns a parsed `.TRAN` card into node waveforms:
//!
//! ```text
//!   TranCard ──► TransientAnalysis ──► TransientPlan (γ = 1/h or 2/h)
//!                      │                     │ step × N
//!                      │                     ▼
//!                      │               node waveforms ──► StepMetrics
//!                      │                     │
//!                      └── cross_check ──────┴──► RichardsonCheck
//!                          (re-run at h/2 through the *shared* program)
//! ```
//!
//! Two cross-checks close the loop with the paper's frequency-domain path:
//!
//! * the step-halving **Richardson** mode re-integrates at `h/2` — free of
//!   extra pivot searches because [`TransientPlan::with_dt`] shares the
//!   compiled program — and reports the observed deviation, an a-posteriori
//!   truncation-error estimate;
//! * the root `transient_oracle` tier drives the stepper against
//!   [`PartialFractions::step_response`](crate::PartialFractions), the
//!   closed form recovered by the symbolic interpolation engine.
//!
//! Each run emits one [`Diagnostic::TransientStepped`] through the observer
//! seam, carrying the same plan-reuse counters
//! ([`TransientStats`]) the sampling engine
//! reports via `SamplingBatched`.

use crate::diagnostic::{Diagnostic, NullObserver, Observer};
use crate::error::RefgenError;
use crate::session::Session;
use refgen_circuit::{Circuit, NodeId, TranCard};
use refgen_mna::{IntegrationMethod, MnaSystem, TransientPlan, TransientScratch, TransientStats};
use refgen_numeric::stats::max_keeping_nan;

/// A configured transient run: time axis, integration method, and the
/// optional Richardson cross-check. Build one from a parsed `.TRAN` card
/// (or via `From<TranCard>`) and hand it to [`Session::transient`].
#[derive(Clone, Debug)]
pub struct TransientAnalysis {
    card: TranCard,
    method: IntegrationMethod,
    cross_check: bool,
}

impl From<TranCard> for TransientAnalysis {
    fn from(card: TranCard) -> Self {
        TransientAnalysis::new(card)
    }
}

impl TransientAnalysis {
    /// A transient run over `card`'s time axis with the default
    /// trapezoidal rule and no cross-check.
    pub fn new(card: TranCard) -> Self {
        TransientAnalysis { card, method: IntegrationMethod::Trapezoidal, cross_check: false }
    }

    /// Selects the integration method (default
    /// [`IntegrationMethod::Trapezoidal`]).
    #[must_use]
    pub fn method(mut self, method: IntegrationMethod) -> Self {
        self.method = method;
        self
    }

    /// Enables the step-halving Richardson cross-check: the run is
    /// repeated at `Δt/2` through the **shared** compiled program and the
    /// largest deviation at the coarse time points is reported as a
    /// [`RichardsonCheck`] on the result.
    #[must_use]
    pub fn cross_check(mut self, cross_check: bool) -> Self {
        self.cross_check = cross_check;
        self
    }

    /// Runs the analysis on `circuit`, streaming a
    /// [`Diagnostic::TransientStepped`] to `observer` when done.
    ///
    /// # Errors
    ///
    /// [`RefgenError::Mna`] when the system cannot be assembled, the time
    /// step is invalid, or the companion matrix is singular;
    /// [`RefgenError::NonFiniteTransient`] when a node voltage overflows to
    /// ±∞ or becomes NaN, in the run or in its cross-check.
    pub fn run(
        &self,
        circuit: &Circuit,
        observer: &mut dyn Observer,
    ) -> Result<TransientResult, RefgenError> {
        let sys = MnaSystem::new(circuit)?;
        let plan = TransientPlan::new(&sys, self.card.tstep, self.method)?;
        let times = self.card.times();
        // Non-ground nodes in MNA row order, by name.
        let rows: Vec<(String, usize)> = (1..circuit.node_count())
            .filter_map(|i| {
                let id = NodeId(i);
                sys.node_row(id).map(|row| (circuit.node_name(id).to_string(), row))
            })
            .collect();

        let (waves, stats) = integrate(&plan, &times, &rows)?;

        let cross_check = if self.cross_check {
            let dt_half = self.card.tstep * 0.5;
            let fine_plan = plan.with_dt(dt_half)?;
            let steps = times.len() - 1;
            let fine_times: Vec<f64> =
                (0..=2 * steps).map(|k| self.card.tstart + dt_half * k as f64).collect();
            let (fine, _) = integrate(&fine_plan, &fine_times, &rows)?;
            let max_abs_dev = max_abs_deviation(&waves, &fine);
            Some(RichardsonCheck { dt_half, max_abs_dev, order: self.method.order() })
        } else {
            None
        };

        observer.on_diagnostic(&Diagnostic::TransientStepped {
            steps: stats.steps,
            refactor_hits: stats.refactor_hits,
            compiled_hits: stats.compiled_hits,
        });

        Ok(TransientResult {
            times,
            names: rows.into_iter().map(|(n, _)| n).collect(),
            waves,
            stats,
            method: self.method,
            dt: self.card.tstep,
            cross_check,
        })
    }
}

/// Steps `plan` over `times`, recording the named node rows, and stops at
/// the first non-finite sample it records.
fn integrate(
    plan: &TransientPlan,
    times: &[f64],
    rows: &[(String, usize)],
) -> Result<(Vec<Vec<f64>>, TransientStats), RefgenError> {
    let mut state = plan.initial_state(times[0]);
    let mut scratch = TransientScratch::new();
    let mut waves = vec![Vec::with_capacity(times.len()); rows.len()];
    let mut record = |time: f64, solution: &[f64]| {
        for (wave, (node, row)) in waves.iter_mut().zip(rows) {
            let v = solution[*row];
            if !v.is_finite() {
                return Err(RefgenError::NonFiniteTransient { node: node.clone(), time });
            }
            wave.push(v);
        }
        Ok(())
    };
    record(times[0], state.solution())?;
    for &t in &times[1..] {
        plan.step(t, &mut state, &mut scratch)?;
        record(t, state.solution())?;
    }
    Ok((waves, scratch.stats()))
}

/// The largest `|coarse[k] − fine[2k]|` over every node and coarse time
/// point. A NaN deviation makes the result NaN, so two runs that both went
/// non-finite never read as agreeing.
fn max_abs_deviation(coarse: &[Vec<f64>], fine: &[Vec<f64>]) -> f64 {
    coarse
        .iter()
        .zip(fine)
        .flat_map(|(c, f)| c.iter().zip(f.iter().step_by(2)))
        .map(|(&c, &f)| (c - f).abs())
        .fold(0.0, max_keeping_nan)
}

/// The outcome of a step-halving Richardson cross-check.
#[derive(Clone, Copy, Debug)]
pub struct RichardsonCheck {
    /// The halved step size the verification run used.
    pub dt_half: f64,
    /// Largest absolute deviation between the two runs over every node and
    /// coarse time point. Non-finite when either run has a non-finite
    /// sample at a coarse time point: NaN when any deviation is NaN.
    pub max_abs_dev: f64,
    /// The method's convergence order `p` (used by
    /// [`RichardsonCheck::error_estimate`]).
    pub order: u32,
}

impl RichardsonCheck {
    /// Richardson estimate of the coarse run's global truncation error:
    /// for an order-`p` method, `err ≈ dev / (1 − 2^{−p})`.
    pub fn error_estimate(&self) -> f64 {
        self.max_abs_dev / (1.0 - 0.5f64.powi(self.order as i32))
    }
}

/// Scalar descriptors of one node's step-like waveform.
#[derive(Clone, Copy, Debug)]
pub struct StepMetrics {
    /// The last sample (the settled value for a stable run).
    pub final_value: f64,
    /// The largest sample; NaN when any sample is NaN.
    pub peak: f64,
    /// `max(0, peak − final)/|final|` in percent — the upward excursion
    /// beyond the settled value. `None` when the ratio is undefined: a
    /// zero final value (a high-pass pulse response settles at 0, where
    /// any excursion is an infinite percentage) or a non-finite final
    /// value or peak. Never NaN.
    pub overshoot_pct: Option<f64>,
    /// Time from 10 % to 90 % of the final value (linear interpolation
    /// between samples); `None` when the waveform never crosses both.
    pub rise_time: Option<f64>,
    /// First time after which every sample stays within a ±2 % band of the
    /// final value; `None` when even the last sample is outside the band.
    /// The band is relative to `|final|` when that is nonzero; for a
    /// **zero final value** it falls back to ±2 % of the waveform's peak
    /// magnitude (the natural scale of a pulse that returns to zero), and
    /// an identically-zero waveform settles at `times[0]`. A non-finite
    /// final value never settles (`None`).
    pub settling_time: Option<f64>,
}

impl StepMetrics {
    /// Computes the metrics for one sampled waveform (`times` and `wave`
    /// must have equal, nonzero length).
    pub fn from_waveform(times: &[f64], wave: &[f64]) -> StepMetrics {
        assert_eq!(times.len(), wave.len(), "one sample per time point");
        assert!(!wave.is_empty(), "metrics need at least one sample");
        let final_value = *wave.last().expect("nonempty");
        let peak = wave.iter().copied().fold(f64::NEG_INFINITY, max_keeping_nan);
        let overshoot_pct = (final_value != 0.0 && final_value.is_finite() && peak.is_finite())
            .then(|| ((peak - final_value) / final_value.abs()).max(0.0) * 100.0);
        StepMetrics {
            final_value,
            peak,
            overshoot_pct,
            rise_time: rise_time(times, wave, final_value),
            settling_time: settling_time(times, wave, final_value),
        }
    }
}

/// First 10 % → 90 % crossing span, linearly interpolated.
fn rise_time(times: &[f64], wave: &[f64], final_value: f64) -> Option<f64> {
    let t_lo = crossing(times, wave, 0.1 * final_value)?;
    let t_hi = crossing(times, wave, 0.9 * final_value)?;
    (t_hi >= t_lo).then_some(t_hi - t_lo)
}

/// First time the waveform reaches `level` (toward it from the start).
fn crossing(times: &[f64], wave: &[f64], level: f64) -> Option<f64> {
    if level == 0.0 {
        return Some(times[0]);
    }
    let reached = |v: f64| {
        if level > 0.0 {
            v >= level
        } else {
            v <= level
        }
    };
    let k = wave.iter().position(|&v| reached(v))?;
    if k == 0 {
        return Some(times[0]);
    }
    let (v0, v1) = (wave[k - 1], wave[k]);
    let frac = if v1 == v0 { 1.0 } else { (level - v0) / (v1 - v0) };
    Some(times[k - 1] + frac * (times[k] - times[k - 1]))
}

/// First time after which the waveform stays inside the ±2 % band around
/// `final_value` (see [`StepMetrics::settling_time`] for the degenerate
/// semantics: zero final value uses the peak magnitude as the band scale,
/// non-finite never settles).
fn settling_time(times: &[f64], wave: &[f64], final_value: f64) -> Option<f64> {
    if !final_value.is_finite() {
        return None;
    }
    let scale = if final_value == 0.0 {
        wave.iter().fold(0.0f64, |a, &v| if v.is_finite() { a.max(v.abs()) } else { a })
    } else {
        final_value.abs()
    };
    if scale == 0.0 {
        // Identically zero waveform: settled from the first sample.
        return Some(times[0]);
    }
    let band = 0.02 * scale;
    // A NaN sample is out of band (never settled), so the comparison must
    // not swallow it.
    let out_of_band = |v: f64| {
        let d = (v - final_value).abs();
        d.is_nan() || d > band
    };
    match wave.iter().rposition(|&v| out_of_band(v)) {
        None => Some(times[0]),
        Some(k) if k + 1 < times.len() => Some(times[k + 1]),
        Some(_) => None,
    }
}

/// Node waveforms and run counters from one [`TransientAnalysis`].
#[derive(Clone, Debug)]
pub struct TransientResult {
    times: Vec<f64>,
    names: Vec<String>,
    waves: Vec<Vec<f64>>,
    /// Plan-reuse counters for the primary run (cross-check runs keep
    /// their own and are not merged in).
    pub stats: TransientStats,
    /// The integration method that produced the waveforms.
    pub method: IntegrationMethod,
    /// The (uniform) step size, seconds.
    pub dt: f64,
    /// Present when [`TransientAnalysis::cross_check`] was enabled.
    pub cross_check: Option<RichardsonCheck>,
}

impl TransientResult {
    /// The uniform time axis, including the initial point.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// One node's sampled voltage waveform.
    pub fn node(&self, name: &str) -> Option<&[f64]> {
        let k = self.names.iter().position(|n| n == name)?;
        Some(&self.waves[k])
    }

    /// Every `(node name, waveform)` pair, in MNA row order.
    pub fn nodes(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.names.iter().map(String::as_str).zip(self.waves.iter().map(Vec::as_slice))
    }

    /// Step metrics for one node's waveform.
    pub fn metrics(&self, name: &str) -> Option<StepMetrics> {
        Some(StepMetrics::from_waveform(&self.times, self.node(name)?))
    }
}

impl<'a> Session<'a> {
    /// Runs a transient analysis on the session circuit, driven by a
    /// `.TRAN` card (or a configured [`TransientAnalysis`]). The session's
    /// observer receives the run's [`Diagnostic::TransientStepped`]; spec,
    /// config, and solver are not consulted — time stepping needs no
    /// transfer function.
    ///
    /// # Errors
    ///
    /// See [`TransientAnalysis::run`].
    pub fn transient(
        self,
        analysis: impl Into<TransientAnalysis>,
    ) -> Result<TransientResult, RefgenError> {
        let (circuit, observer) = self.into_transient_parts();
        let mut null = NullObserver;
        analysis.into().run(circuit, observer.unwrap_or(&mut null))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::CollectObserver;
    use refgen_circuit::library::rc_ladder;
    use refgen_circuit::{parse_netlist, Waveform};

    fn step_wave() -> Waveform {
        Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 0.0,
            rise: 0.0,
            fall: 0.0,
            width: f64::INFINITY,
            period: f64::INFINITY,
        }
    }

    #[test]
    fn session_transient_tracks_rc_analytic() {
        let mut c = rc_ladder(1, 1e3, 1e-9);
        c.set_waveform("VIN", step_wave()).unwrap();
        let tau = 1e-6;
        let card = TranCard { tstep: tau / 100.0, tstop: 10.0 * tau, tstart: 0.0 };
        let mut obs = CollectObserver::new();
        let result = Session::for_circuit(&c)
            .observer(&mut obs)
            .transient(TransientAnalysis::new(card).cross_check(true))
            .unwrap();
        let wave = result.node("out").unwrap();
        for (k, (&t, &v)) in result.times().iter().zip(wave).enumerate() {
            let want = 1.0 - (-t / tau).exp();
            assert!((v - want).abs() < 5e-5, "step {k}: {v} vs {want}");
        }
        // Metrics of a first-order step: no overshoot, rise = τ·ln 9,
        // settling at τ·ln 50.
        let m = result.metrics("out").unwrap();
        assert!((m.final_value - 1.0).abs() < 1e-3);
        assert_eq!(m.overshoot_pct, Some(0.0));
        let rise = m.rise_time.unwrap();
        assert!((rise - tau * 9.0f64.ln()).abs() < 0.03 * tau, "rise {rise}");
        let settle = m.settling_time.unwrap();
        assert!((settle - tau * 50.0f64.ln()).abs() < 0.03 * tau, "settle {settle}");
        // The Richardson check bounds the observed truncation error.
        let check = result.cross_check.unwrap();
        assert!(check.max_abs_dev > 0.0 && check.error_estimate() < 1e-4, "{check:?}");
        // One TransientStepped event with the plan-reuse counters.
        let stepped = obs
            .events
            .iter()
            .find_map(|d| match d {
                Diagnostic::TransientStepped { steps, refactor_hits, compiled_hits } => {
                    Some((*steps, *refactor_hits, *compiled_hits))
                }
                _ => None,
            })
            .expect("TransientStepped streamed");
        assert_eq!(stepped.0, 1000);
        assert_eq!(stepped.1, 1, "one numeric factorization for the whole run");
        assert_eq!(stepped.2, 1001, "TR: one primer solve + one per step");
    }

    #[test]
    fn netlist_tran_card_drives_session_end_to_end() {
        let netlist = parse_netlist(
            "* RC step\n\
             VIN in 0 AC 1 PULSE(0 1)\n\
             R1 in out 1e3\n\
             C1 out 0 1e-9\n\
             .tran 2e-8 4e-6\n\
             .end\n",
        )
        .unwrap();
        let card = netlist.analysis.tran().expect(".TRAN parsed").clone();
        let result = Session::for_circuit(&netlist.circuit).transient(card).unwrap();
        assert_eq!(result.times().len(), 201);
        let wave = result.node("out").unwrap();
        assert!((wave.last().unwrap() - (1.0 - (-4.0f64).exp())).abs() < 1e-4);
        assert!(result.cross_check.is_none());
    }

    #[test]
    fn zero_final_value_highpass_pulse_metrics() {
        // The pulse response of an AC-coupled (high-pass) path: spikes up,
        // decays through a negative lobe, and settles at exactly zero.
        // Relative overshoot is undefined at a zero final value — `None`,
        // never NaN — and the settling band falls back to ±2 % of the
        // peak magnitude instead of an unreachable zero-width band.
        let times: Vec<f64> = (0..=100).map(|k| k as f64 * 1e-3).collect();
        let mut wave: Vec<f64> = (0..=100)
            .map(|k| (-(k as f64) / 8.0).exp() - 0.4 * (-(k as f64) / 25.0).exp())
            .collect();
        for v in wave.iter_mut().skip(90) {
            *v = 0.0;
        }
        let m = StepMetrics::from_waveform(&times, &wave);
        assert_eq!(m.final_value, 0.0);
        assert!(m.overshoot_pct.is_none(), "overshoot vs 0 is undefined: {:?}", m.overshoot_pct);
        let settle = m.settling_time.expect("decayed pulse settles in the peak-relative band");
        assert!(settle.is_finite() && settle > 0.0 && settle < *times.last().unwrap());

        // Identically-zero waveform: settled from the first sample.
        let z = StepMetrics::from_waveform(&times, &vec![0.0; times.len()]);
        assert_eq!(z.settling_time, Some(times[0]));
        assert!(z.overshoot_pct.is_none());

        // Sign-changing (falling) step to a negative final value keeps a
        // defined, finite overshoot relative to |final|.
        let fall: Vec<f64> = (0..=100).map(|k| -1.0 + (-(k as f64) / 8.0).exp()).collect();
        let f = StepMetrics::from_waveform(&times, &fall);
        let pct = f.overshoot_pct.expect("nonzero final value");
        assert!(pct.is_finite() && pct >= 0.0);

        // Non-finite samples poison nothing into NaN: overshoot and
        // settling are both `None`.
        let bad = StepMetrics::from_waveform(&[0.0, 1.0], &[0.5, f64::NAN]);
        assert!(bad.overshoot_pct.is_none());
        assert!(bad.settling_time.is_none());
    }

    #[test]
    fn deviation_keeps_nan() {
        let nan = f64::NAN;
        let coarse = vec![vec![0.0, 1.0, 2.0], vec![0.0, 0.0, 0.0]];
        let mut fine = vec![vec![0.0, 9.0, 1.5, 9.0, 2.0], vec![0.0; 5]];
        assert_eq!(max_abs_deviation(&coarse, &fine), 0.5);
        // A NaN early on survives a larger finite deviation after it.
        fine[0][2] = nan;
        fine[1][4] = 7.0;
        assert!(max_abs_deviation(&coarse, &fine).is_nan());
        // Two runs that are NaN throughout do not agree perfectly.
        let all_nan = vec![vec![nan; 3]];
        assert!(max_abs_deviation(&all_nan, &[vec![nan; 5]]).is_nan());
        // An infinite sample on one side only reads infinite.
        let inf = vec![vec![0.0, f64::INFINITY, 1.0]];
        assert_eq!(max_abs_deviation(&inf, &[vec![0.0; 5]]), f64::INFINITY);
    }

    #[test]
    fn nan_sample_mid_waveform_has_no_peak_or_overshoot() {
        let m = StepMetrics::from_waveform(&[0.0, 1.0, 2.0, 3.0], &[0.0, f64::NAN, 2.0, 1.0]);
        assert!(m.peak.is_nan(), "peak {}", m.peak);
        assert!(m.overshoot_pct.is_none(), "overshoot {:?}", m.overshoot_pct);
        assert!(m.settling_time.is_some(), "the NaN lies before the last out-of-band sample");
    }

    #[test]
    fn overflowing_run_is_a_typed_error() {
        // A 1e300 V step at 0.25 µs through a gain of 1e10 overflows `out`
        // to ±∞ at the first time point after the edge, 0.3 µs.
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        let edge = Waveform::Pulse {
            v1: 0.0,
            v2: 1e300,
            delay: 2.5e-7,
            rise: 0.0,
            fall: 0.0,
            width: f64::INFINITY,
            period: f64::INFINITY,
        };
        c.set_waveform("VIN", edge).unwrap();
        c.add_resistor("R1", "in", "a", 1e3).unwrap();
        c.add_capacitor("C1", "a", "0", 1e-9).unwrap();
        c.add_vcvs("E1", "out", "0", "a", "0", 1e10).unwrap();
        c.add_resistor("RL", "out", "0", 1e3).unwrap();
        let card = TranCard { tstep: 1e-7, tstop: 1e-6, tstart: 0.0 };
        let time = card.times()[3];
        for cross_check in [false, true] {
            let run = Session::for_circuit(&c)
                .transient(TransientAnalysis::new(card.clone()).cross_check(cross_check));
            match run {
                Err(RefgenError::NonFiniteTransient { node, time: at }) => {
                    assert_eq!((node.as_str(), at), ("out", time), "cross-check {cross_check}")
                }
                other => panic!("cross-check {cross_check}: expected a typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn underdamped_rlc_metrics_show_overshoot() {
        // Series RLC, Q = 10: overshoot ≈ exp(−πζ/√(1−ζ²)).
        let netlist = parse_netlist(
            "VIN in 0 AC 1 PULSE(0 1)\n\
             R1 in a 10\n\
             L1 a out 1e-6\n\
             C1 out 0 1e-9\n\
             .end\n",
        )
        .unwrap();
        let w0 = 1.0f64 / (1e-6f64 * 1e-9).sqrt();
        let q = (1e-6f64 / 1e-9).sqrt() / 10.0; // ≈ 3.16
        let zeta = 1.0 / (2.0 * q);
        let card =
            TranCard { tstep: 0.002 / w0 * std::f64::consts::TAU, tstop: 1.6e-6, tstart: 0.0 };
        let result = Session::for_circuit(&netlist.circuit)
            .transient(TransientAnalysis::new(card).method(IntegrationMethod::Trapezoidal))
            .unwrap();
        let m = result.metrics("out").unwrap();
        let want = 100.0 * (-std::f64::consts::PI * zeta / (1.0 - zeta * zeta).sqrt()).exp();
        let overshoot = m.overshoot_pct.expect("nonzero final value");
        assert!((overshoot - want).abs() < 1.0, "overshoot {overshoot} vs {want}");
        // Ring-down envelope e^{−t·R/2L} enters the ±2 % band at
        // t ≈ ln(50)·2L/R ≈ 0.78 µs.
        let settle = m.settling_time.unwrap();
        let envelope = 50.0f64.ln() * 2.0 * 1e-6 / 10.0;
        assert!(
            settle > 0.5 * envelope && settle < 1.5 * envelope,
            "settle {settle} vs envelope estimate {envelope}"
        );
    }

    #[test]
    fn backward_euler_is_selectable() {
        let mut c = rc_ladder(1, 1e3, 1e-9);
        c.set_waveform("VIN", step_wave()).unwrap();
        let card = TranCard { tstep: 1e-8, tstop: 1e-6, tstart: 0.0 };
        let result = Session::for_circuit(&c)
            .transient(TransientAnalysis::new(card).method(IntegrationMethod::BackwardEuler))
            .unwrap();
        assert_eq!(result.method, IntegrationMethod::BackwardEuler);
        assert_eq!(result.stats.compiled_hits, result.stats.steps, "BE has no primer solve");
    }
}
