//! AC small-signal analysis — the reproduction's "electrical simulator".
//!
//! The paper's Fig. 2 validates interpolated coefficients against a
//! commercial electrical simulator. What such a simulator does for `.AC` is
//! exactly this module: stamp the MNA matrix at `s = j·2πf`, LU-solve, and
//! record magnitude/phase — a code path completely independent of the
//! interpolation engine, which is what makes the comparison meaningful.

use crate::error::MnaError;
use crate::sweep::{SweepBatchScratch, SweepPlan};
use crate::system::{MnaSystem, Scale};
use crate::transfer::TransferSpec;
use refgen_circuit::Circuit;
use refgen_numeric::Complex;

/// One point of an AC sweep.
#[derive(Clone, Copy, Debug)]
pub struct AcPoint {
    /// Frequency in hertz.
    pub freq_hz: f64,
    /// Complex response `H(j·2πf)`.
    pub response: Complex,
}

impl AcPoint {
    /// Floor returned by [`AcPoint::mag_db`] for zero (or NaN) magnitude
    /// responses. The quietest *representable* nonzero response is
    /// `20·log10(f64::MIN_POSITIVE) ≈ −6160 dB`, and deep-stopband
    /// responses of high-order filters are real data down there (a
    /// 30-section RC ladder passes −2000 dB), so the floor sits below the
    /// entire normal f64 range: only exact zeros, subnormal dust and NaN
    /// clamp. The value stays finite so Bode data remains plottable and
    /// comparable without `-inf`/NaN poisoning downstream arithmetic
    /// (max-error folds, CSV output).
    pub const MAG_DB_FLOOR: f64 = -6200.0;

    /// Magnitude in decibels, clamped to [`AcPoint::MAG_DB_FLOOR`].
    ///
    /// A transfer function with an exact transmission zero at the sampled
    /// frequency has `|H| = 0`, whose raw `20·log10` is `-inf`; a NaN
    /// response (overflowed solve) has no decibel value at all. Both map
    /// to the documented finite floor.
    pub fn mag_db(&self) -> f64 {
        // f64::max ignores a NaN argument, so this clamps -inf *and* NaN.
        (20.0 * self.response.abs().log10()).max(Self::MAG_DB_FLOOR)
    }

    /// Phase in degrees, in `(−180, 180]`.
    pub fn phase_deg(&self) -> f64 {
        self.response.arg().to_degrees()
    }
}

/// An AC analysis bound to a circuit and transfer spec.
///
/// ```
/// use refgen_circuit::library::rc_ladder;
/// use refgen_mna::{AcAnalysis, TransferSpec, log_space};
///
/// # fn main() -> Result<(), refgen_mna::MnaError> {
/// let circuit = rc_ladder(2, 1e3, 1e-9);
/// let ac = AcAnalysis::new(&circuit, TransferSpec::voltage_gain("VIN", "out"))?;
/// let pts = ac.sweep(&log_space(1.0, 1e8, 50))?;
/// assert!(pts[0].mag_db().abs() < 0.1); // flat at DC
/// assert!(pts.last().unwrap().mag_db() < -40.0); // rolls off
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct AcAnalysis {
    system: MnaSystem,
    spec: TransferSpec,
}

impl AcAnalysis {
    /// Compiles the circuit and binds the transfer spec.
    ///
    /// # Errors
    ///
    /// Propagates circuit validation failures.
    pub fn new(circuit: &Circuit, spec: TransferSpec) -> Result<Self, MnaError> {
        Ok(AcAnalysis { system: MnaSystem::new(circuit)?, spec })
    }

    /// The compiled MNA system.
    pub fn system(&self) -> &MnaSystem {
        &self.system
    }

    /// Evaluates the response at a single frequency (hertz).
    ///
    /// # Errors
    ///
    /// [`MnaError::InvalidFrequency`] for a NaN or infinite frequency,
    /// [`MnaError::Singular`] at frequencies where the matrix degenerates,
    /// plus spec-resolution errors.
    pub fn at(&self, freq_hz: f64) -> Result<AcPoint, MnaError> {
        check_frequencies(&[freq_hz])?;
        let r = self.system.transfer(j_omega(freq_hz), Scale::unit(), &self.spec)?;
        Ok(AcPoint { freq_hz, response: r.response })
    }

    /// Sweeps a frequency grid.
    ///
    /// # Errors
    ///
    /// [`MnaError::InvalidFrequency`] for the grid's first NaN or infinite
    /// frequency, before any point is solved; otherwise fails on the first
    /// singular frequency point.
    pub fn sweep(&self, freqs_hz: &[f64]) -> Result<Vec<AcPoint>, MnaError> {
        check_frequencies(freqs_hz)?;
        freqs_hz.iter().map(|&f| self.at(f)).collect()
    }

    /// Sweeps the grid of a parsed `.AC` card
    /// ([`refgen_circuit::AcCard`]) — the netlist-driven form of
    /// [`AcAnalysis::sweep`].
    ///
    /// # Errors
    ///
    /// As for [`AcAnalysis::sweep`].
    pub fn sweep_card(&self, card: &refgen_circuit::AcCard) -> Result<Vec<AcPoint>, MnaError> {
        self.sweep(&card.frequencies())
    }

    /// Sweeps a frequency grid through a [`SweepPlan`]: one ordering
    /// selection (the plan's probe factorization, or on a large mesh the
    /// AMD order that replaces it, see [`crate::OrderingMode::Auto`]) and
    /// then a compiled-kernel replay per point — what production circuit
    /// simulators do.
    ///
    /// `lanes` is the lane width. The grid is cut into consecutive chunks
    /// of `lanes` frequencies (one frequency per chunk at width `1` or
    /// `0`), and [`SweepPlan::eval_batch`] stamps, replays and solves each
    /// chunk through the batched kernels, one block of eight lanes after
    /// another (a one-point chunk takes the one-point replay,
    /// [`SweepPlan::eval_at`]). Each block is solved right after its
    /// replay, while its slots are still in cache, so a 32-lane chunk
    /// costs what four 8-lane chunks do. On a 1 025-unknown RC mesh swept
    /// at 95 frequencies on an AVX-512F host, widths 8 and 32 cost the
    /// same per frequency, within the host's noise, and about a third of
    /// width 1.
    ///
    /// The output is **bit-identical at every width**, errors included:
    /// every point is a pure function of the plan and its frequency. A
    /// point where the recorded order hits an exact zero pivot climbs the
    /// singular-recovery ladder alone, and the points after it replay the
    /// plan's order again.
    ///
    /// # Errors
    ///
    /// [`MnaError::InvalidFrequency`] for the grid's first NaN or infinite
    /// frequency, before the plan is built, as [`AcAnalysis::sweep`]
    /// reports it; otherwise fails on the first frequency where every rung
    /// of the ladder fails (replay, fresh Markowitz and the
    /// alternate-ordering recompile), or on spec-resolution errors.
    pub fn sweep_fast(&self, freqs_hz: &[f64], lanes: usize) -> Result<Vec<AcPoint>, MnaError> {
        check_frequencies(freqs_hz)?;
        let plan = SweepPlan::new(&self.system, Scale::unit(), &self.spec)?;
        let mut points = Vec::with_capacity(freqs_hz.len());
        let lanes = lanes.max(1);
        let mut batch = SweepBatchScratch::new();
        let mut sigmas = Vec::with_capacity(lanes);
        for chunk in freqs_hz.chunks(lanes) {
            sigmas.clear();
            sigmas.extend(chunk.iter().map(|&f| j_omega(f)));
            for (&freq_hz, r) in chunk.iter().zip(plan.eval_batch(&sigmas, &mut batch)) {
                let r = r.map_err(|e| at_frequency(e, freq_hz))?;
                points.push(AcPoint { freq_hz, response: r.response });
            }
        }
        Ok(points)
    }
}

/// Rejects a grid holding a NaN or infinite frequency (the first one), so
/// every AC path reports it alike and before any solve.
fn check_frequencies(freqs_hz: &[f64]) -> Result<(), MnaError> {
    match freqs_hz.iter().find(|f| !f.is_finite()) {
        Some(&freq_hz) => Err(MnaError::InvalidFrequency { freq_hz }),
        None => Ok(()),
    }
}

/// The sweep point `s = j·2πf` of frequency `f` (hertz).
fn j_omega(freq_hz: f64) -> Complex {
    Complex::new(0.0, 2.0 * std::f64::consts::PI * freq_hz)
}

/// Reports a sweep point's failure at its frequency, not the raw complex
/// `s`.
fn at_frequency(e: MnaError, freq_hz: f64) -> MnaError {
    match e {
        MnaError::Singular { .. } => MnaError::Singular { at: format!("{freq_hz} Hz") },
        MnaError::Unrecoverable { step, rung, .. } => {
            MnaError::Unrecoverable { at: format!("{freq_hz} Hz"), step, rung }
        }
        other => other,
    }
}

/// `n` logarithmically spaced frequencies from `start` to `stop` inclusive.
///
/// # Panics
///
/// Panics unless `start`, `stop` are positive, `start < stop`, `n ≥ 2`.
pub fn log_space(start: f64, stop: f64, n: usize) -> Vec<f64> {
    assert!(start > 0.0 && stop > start && n >= 2);
    let l0 = start.log10();
    let l1 = stop.log10();
    (0..n).map(|i| 10f64.powf(l0 + (l1 - l0) * (i as f64) / ((n - 1) as f64))).collect()
}

/// Unwraps a phase sequence (degrees) so it is continuous: whenever the
/// step between consecutive samples exceeds 180°, the whole turns that
/// bring it back into `[−180°, 180°]` are accumulated as a correction. A
/// NaN or infinite step has no turn count and is left uncorrected. Used
/// for Bode plots like the paper's Fig. 2, whose phase runs from 0 down to
/// −800°.
pub fn unwrap_phase(phases_deg: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(phases_deg.len());
    let mut offset = 0.0;
    for (i, &p) in phases_deg.iter().enumerate() {
        if i > 0 {
            let d = p - phases_deg[i - 1];
            // Closed form: subtracting one turn at a time never ends once
            // 360° is below the step's ulp.
            let turns = if !d.is_finite() || d.abs() <= 180.0 {
                0.0
            } else if d > 0.0 {
                ((d - 180.0) / 360.0).ceil()
            } else {
                ((d + 180.0) / 360.0).floor()
            };
            offset -= 360.0 * turns;
        }
        out.push(p + offset);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use refgen_circuit::library::{rc_ladder, sallen_key_lowpass, tow_thomas_biquad, ua741};

    #[test]
    fn log_space_endpoints() {
        let f = log_space(1.0, 1e6, 7);
        assert_eq!(f.len(), 7);
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f[6] - 1e6).abs() < 1e-6);
        assert!((f[3] - 1e3).abs() < 1e-9);
    }

    #[test]
    fn mag_db_clamps_zero_and_nan_to_floor() {
        let zero = AcPoint { freq_hz: 1.0, response: Complex::ZERO };
        assert_eq!(zero.mag_db(), AcPoint::MAG_DB_FLOOR);
        assert!(zero.mag_db().is_finite());
        let nan = AcPoint { freq_hz: 1.0, response: Complex::new(f64::NAN, 0.0) };
        assert_eq!(nan.mag_db(), AcPoint::MAG_DB_FLOOR);
        // Subnormal dust below the floor clamps too…
        let dust = AcPoint { freq_hz: 1.0, response: Complex::new(1e-320, 0.0) };
        assert_eq!(dust.mag_db(), AcPoint::MAG_DB_FLOOR);
        // …while every normal-range magnitude passes through untouched,
        // including legitimate deep-stopband data.
        let unity = AcPoint { freq_hz: 1.0, response: Complex::ONE };
        assert!(unity.mag_db().abs() < 1e-12);
        let small = AcPoint { freq_hz: 1.0, response: Complex::new(1e-3, 0.0) };
        assert!((small.mag_db() + 60.0).abs() < 1e-9);
        let stopband = AcPoint { freq_hz: 1.0, response: Complex::new(1e-200, 0.0) };
        assert!((stopband.mag_db() + 4000.0).abs() < 1e-6);
    }

    #[test]
    fn rc_pole_location() {
        let c = rc_ladder(1, 1e3, 1e-9);
        let ac = AcAnalysis::new(&c, TransferSpec::voltage_gain("VIN", "out")).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let p = ac.at(f0).unwrap();
        assert!((p.mag_db() + 3.0103).abs() < 0.01);
        assert!((p.phase_deg() + 45.0).abs() < 0.01);
    }

    #[test]
    fn sweep_card_matches_explicit_grid() {
        use refgen_circuit::{AcCard, SweepGrid};
        let c = rc_ladder(2, 1e3, 1e-9);
        let ac = AcAnalysis::new(&c, TransferSpec::voltage_gain("VIN", "out")).unwrap();
        let card = AcCard { grid: SweepGrid::Decade, points: 5, fstart_hz: 1e3, fstop_hz: 1e6 };
        let by_card = ac.sweep_card(&card).unwrap();
        let by_grid = ac.sweep(&card.frequencies()).unwrap();
        assert_eq!(by_card.len(), by_grid.len());
        for (a, b) in by_card.iter().zip(&by_grid) {
            assert_eq!(a.freq_hz, b.freq_hz);
            assert_eq!(a.response, b.response);
        }
    }

    #[test]
    fn sallen_key_peaking() {
        // Q = 5 gives ≈ 20·log10(5) = 14 dB of peaking near f0.
        let c = sallen_key_lowpass(10e3, 5.0);
        let ac = AcAnalysis::new(&c, TransferSpec::voltage_gain("VIN", "out")).unwrap();
        let peak = ac.at(10e3).unwrap().mag_db();
        assert!((peak - 14.0).abs() < 0.3, "peak {peak}");
        let dc = ac.at(1.0).unwrap().mag_db();
        assert!(dc.abs() < 0.01);
    }

    #[test]
    fn biquad_bandpass_resonance() {
        let c = tow_thomas_biquad(10e3, 5.0, 1e5);
        let ac = AcAnalysis::new(&c, TransferSpec::voltage_gain("VIN", "out")).unwrap();
        let at_f0 = ac.at(10e3).unwrap().mag_db();
        let below = ac.at(1e3).unwrap().mag_db();
        let above = ac.at(100e3).unwrap().mag_db();
        assert!(at_f0 > below + 10.0, "f0 {at_f0} below {below}");
        assert!(at_f0 > above + 10.0, "f0 {at_f0} above {above}");
    }

    #[test]
    fn ua741_open_loop_shape() {
        let c = ua741();
        let ac = AcAnalysis::new(&c, TransferSpec::voltage_gain("VIN", "out")).unwrap();
        let dc = ac.at(0.1).unwrap().mag_db();
        // Open-loop DC gain of a 741-class opamp: roughly 90–115 dB.
        assert!(dc > 80.0 && dc < 130.0, "dc gain {dc} dB");
        // Dominant pole: gain falls by >15 dB from 0.1 Hz to 100 Hz.
        let g100 = ac.at(100.0).unwrap().mag_db();
        assert!(dc - g100 > 15.0, "dc {dc} vs 100 Hz {g100}");
        // Unity-gain crossover in the 0.1–10 MHz region.
        let g_100k = ac.at(1e5).unwrap().mag_db();
        let g_10m = ac.at(1e7).unwrap().mag_db();
        assert!(g_100k > 0.0 && g_10m < 0.0, "crossover between 0.1 and 10 MHz");
    }

    #[test]
    fn sweep_fast_matches_sweep() {
        let c = ua741();
        let ac = AcAnalysis::new(&c, TransferSpec::voltage_gain("VIN", "out")).unwrap();
        let freqs = log_space(1.0, 1e8, 40);
        let slow = ac.sweep(&freqs).unwrap();
        let fast = ac.sweep_fast(&freqs, 32).unwrap();
        for (a, b) in slow.iter().zip(&fast) {
            let rel = (a.response - b.response).abs() / a.response.abs();
            assert!(rel < 1e-9, "at {} Hz: rel {rel:.2e}", a.freq_hz);
        }
    }

    #[test]
    fn sweep_fast_handles_differential_output() {
        let c = rc_ladder(4, 1e3, 1e-9);
        let ac = AcAnalysis::new(&c, TransferSpec::differential_gain("VIN", "out", "l1")).unwrap();
        let freqs = log_space(1e2, 1e8, 20);
        let slow = ac.sweep(&freqs).unwrap();
        let fast = ac.sweep_fast(&freqs, 32).unwrap();
        for (a, b) in slow.iter().zip(&fast) {
            assert!((a.response - b.response).abs() < 1e-12 + 1e-9 * a.response.abs());
        }
    }

    /// Injected NaN stamps corrupt chosen sweep points and only those:
    /// each poisoned point reports a non-finite response, and every clean
    /// point is bit-identical to an unfaulted sweep.
    #[test]
    fn nan_stamps_poison_only_their_sweep_points() {
        use crate::faults;
        let c = ua741();
        let ac = AcAnalysis::new(&c, TransferSpec::voltage_gain("VIN", "out")).unwrap();
        let freqs = log_space(10.0, 1e7, 30);
        let clean = ac.sweep_fast(&freqs, 32).unwrap();
        // Addressed by the exact `s` the sweep evaluates: s = j·2πf.
        let poisoned = [7usize, 19usize];
        let mut plan = faults::FaultPlan::new();
        for &k in &poisoned {
            plan = plan.nan_stamp_at(Complex::new(0.0, 2.0 * std::f64::consts::PI * freqs[k]));
        }
        let _guard = faults::install(plan);
        let _scope = faults::FaultScope::variant(0);
        let faulted = ac.sweep_fast(&freqs, 32).unwrap();
        for (k, (c, f)) in clean.iter().zip(&faulted).enumerate() {
            let finite = f.response.re.is_finite() && f.response.im.is_finite();
            if poisoned.contains(&k) {
                assert!(!finite, "injected NaN stamp must poison point {k}");
            } else {
                assert_eq!(c.response.re.to_bits(), f.response.re.to_bits(), "point {k}");
                assert_eq!(c.response.im.to_bits(), f.response.im.to_bits(), "point {k}");
            }
        }
    }

    /// The sequential sweep `sweep_fast` ran before it batched, kept as
    /// the oracle: one scratch, one `eval_at` per frequency, errors
    /// reported at their frequency.
    fn sequential_oracle(ac: &AcAnalysis, freqs_hz: &[f64]) -> Result<Vec<AcPoint>, MnaError> {
        let plan = SweepPlan::new(&ac.system, Scale::unit(), &ac.spec)?;
        let mut scratch = crate::sweep::SweepScratch::new();
        freqs_hz
            .iter()
            .map(|&f| {
                let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
                let r = plan.eval_at(s, &mut scratch).map_err(|e| match e {
                    MnaError::Singular { .. } => MnaError::Singular { at: format!("{f} Hz") },
                    MnaError::Unrecoverable { step, rung, .. } => {
                        MnaError::Unrecoverable { at: format!("{f} Hz"), step, rung }
                    }
                    other => other,
                })?;
                Ok(AcPoint { freq_hz: f, response: r.response })
            })
            .collect()
    }

    fn point_bits(points: &[AcPoint]) -> Vec<[u64; 3]> {
        points
            .iter()
            .map(|p| [p.freq_hz.to_bits(), p.response.re.to_bits(), p.response.im.to_bits()])
            .collect()
    }

    /// `sweep_fast` at widths 1, 3, 32 and 95 equals the sequential oracle
    /// bit for bit — every point, or the identical error.
    fn assert_sweep_matches_oracle(ac: &AcAnalysis, freqs_hz: &[f64]) {
        let want = sequential_oracle(ac, freqs_hz);
        for lanes in [1, 3, 32, 95] {
            match (ac.sweep_fast(freqs_hz, lanes), &want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(point_bits(&got), point_bits(want), "width {lanes}");
                }
                (Err(got), Err(want)) => assert_eq!(&got, want, "width {lanes}"),
                (got, want) => panic!(
                    "width {lanes}: outcomes diverge: {:?} vs {:?}",
                    got.map(|p| p.len()),
                    want.as_ref().map(|p| p.len())
                ),
            }
        }
    }

    #[test]
    fn batched_sweep_matches_oracle_on_ua741() {
        let ac = AcAnalysis::new(&ua741(), TransferSpec::voltage_gain("VIN", "out")).unwrap();
        assert_sweep_matches_oracle(&ac, &log_space(1.0, 1e8, 95));
    }

    #[test]
    fn batched_sweep_matches_oracle_on_grid_meshes() {
        use refgen_circuit::library::grid_rc_mesh;
        for side in [16, 32] {
            let mesh = grid_rc_mesh(side, side, 9000 + side as u64);
            let ac = AcAnalysis::new(&mesh, TransferSpec::voltage_gain("VIN", "out")).unwrap();
            assert_sweep_matches_oracle(&ac, &log_space(1e6, 3e7, 95));
        }
    }

    /// The recorded order of this circuit dies at DC (the VCCS cancels
    /// node a's conductances): each 0 Hz lane climbs the recovery ladder
    /// alone, and its neighbours and every later point replay the plan's
    /// order, exactly as the one-point oracle does.
    #[test]
    fn dead_points_climb_the_ladder_alone() {
        let mut c = refgen_circuit::Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "a", 1e3).unwrap();
        c.add_capacitor("C1", "a", "0", 1.0).unwrap();
        c.add_vccs("G1", "a", "0", "a", "0", -2e-3).unwrap();
        c.add_resistor("R3", "a", "b", 1e3).unwrap();
        c.add_resistor("R4", "b", "0", 1e3).unwrap();
        let ac = AcAnalysis::new(&c, TransferSpec::voltage_gain("VIN", "b")).unwrap();
        let mut freqs = log_space(1e-3, 1e3, 90);
        // 0 Hz mid-chunk at widths 3 and 32, and again further on.
        freqs.insert(40, 0.0);
        freqs.insert(70, 0.0);
        assert_sweep_matches_oracle(&ac, &freqs);
    }

    /// A NaN or infinite frequency is one typed error naming it, from the
    /// one-point evaluation, the sequential sweep and the batched sweep at
    /// every width alike — on a ladder and on a grid mesh, wherever it
    /// sits in the grid.
    #[test]
    fn non_finite_frequency_is_one_typed_error() {
        use refgen_circuit::library::grid_rc_mesh;
        let is_invalid = |r: Result<Vec<AcPoint>, MnaError>, bad: f64, what: &str| match r {
            Err(MnaError::InvalidFrequency { freq_hz }) => {
                assert_eq!(freq_hz.to_bits(), bad.to_bits(), "{what}")
            }
            other => panic!("{what}: expected InvalidFrequency({bad}), got {other:?}"),
        };
        let ladder =
            AcAnalysis::new(&rc_ladder(3, 1e3, 1e-9), TransferSpec::voltage_gain("VIN", "out"))
                .unwrap();
        let mesh =
            AcAnalysis::new(&grid_rc_mesh(4, 4, 1), TransferSpec::voltage_gain("VIN", "out"))
                .unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            is_invalid(ladder.at(bad).map(|p| vec![p]), bad, "at");
            for (name, ac) in [("ladder", &ladder), ("mesh", &mesh)] {
                for grid in [vec![1.0, bad, 2.0], vec![1.0, bad], vec![bad]] {
                    is_invalid(ac.sweep(&grid), bad, &format!("{name} sweep {grid:?}"));
                    for lanes in [1, 3, 32] {
                        let what = format!("{name} sweep_fast {grid:?} width {lanes}");
                        is_invalid(ac.sweep_fast(&grid, lanes), bad, &what);
                    }
                }
            }
        }
        // The first non-finite frequency is the one named.
        is_invalid(ladder.sweep_fast(&[1.0, f64::INFINITY, f64::NAN], 32), f64::INFINITY, "first");
        assert!(MnaError::InvalidFrequency { freq_hz: f64::NAN }.to_string().contains("NaN Hz"));
    }

    /// Fault scopes: replay faults send every lane down the recovery
    /// ladder, and an exhausted ladder fails the sweep with the oracle's
    /// error, at the oracle's frequency.
    #[test]
    fn batched_sweep_matches_oracle_under_faults() {
        use crate::faults::{self, FaultKind, FaultPlan, FaultScope};
        let ac = AcAnalysis::new(&ua741(), TransferSpec::voltage_gain("VIN", "out")).unwrap();
        let freqs = log_space(10.0, 1e7, 40);
        for kind in [FaultKind::ReplayZeroPivot, FaultKind::Singular] {
            let _guard = faults::install(FaultPlan::new().fault_variant(3, kind));
            let _scope = FaultScope::variant(3);
            assert_sweep_matches_oracle(&ac, &freqs);
        }
    }

    #[test]
    fn unwrap_phase_continuity() {
        let raw = vec![170.0, -170.0, -150.0, 150.0];
        let un = unwrap_phase(&raw);
        assert_eq!(un[0], 170.0);
        assert!((un[1] - 190.0).abs() < 1e-12);
        assert!((un[2] - 210.0).abs() < 1e-12);
        // Raw step +300 is really −60: continues from 210 down to 150.
        assert!((un[3] - 150.0).abs() < 1e-12);
        // Every unwrapped step is now ≤ 180° in magnitude.
        for w in un.windows(2) {
            assert!((w[1] - w[0]).abs() <= 180.0);
        }
    }

    /// Steps too large for single turns, and steps with no turn count,
    /// finish: a huge step is corrected in closed form, a NaN or infinite
    /// one is left as it is.
    #[test]
    fn unwrap_phase_finishes_on_huge_and_non_finite_steps() {
        let huge = unwrap_phase(&[0.0, 1e20]);
        assert_eq!(huge[0], 0.0);
        assert!(huge[1].abs() <= 180.0 + 1e20 * f64::EPSILON, "{}", huge[1]);
        assert_eq!(unwrap_phase(&[0.0, f64::INFINITY]), [0.0, f64::INFINITY]);
        let nan = unwrap_phase(&[0.0, f64::NAN]);
        assert_eq!(nan[0], 0.0);
        assert!(nan[1].is_nan());
        // A non-finite sample moves no later one.
        assert_eq!(unwrap_phase(&[0.0, f64::NAN, 10.0])[2], 10.0);
        assert_eq!(unwrap_phase(&[0.0, f64::NEG_INFINITY, 10.0])[2], 10.0);
    }

    #[test]
    #[should_panic]
    fn log_space_bad_args() {
        log_space(10.0, 1.0, 5);
    }
}
