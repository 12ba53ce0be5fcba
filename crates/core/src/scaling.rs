//! Scale-factor selection: initial heuristics and the adaptive updates of
//! eqs. (13)–(16).

use crate::config::RefgenConfig;
use crate::window::Window;
use refgen_circuit::Circuit;
use refgen_mna::Scale;
use refgen_numeric::stats::mean;

/// Direction of an adaptive scale step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Move the valid window toward higher powers of `s` (eq. (14)).
    Ascending,
    /// Move toward lower powers (eq. (15)).
    Descending,
}

/// How the two scale knobs are used.
///
/// The paper's simultaneous scaling splits each tilt between `f` and `g`
/// (§3.2 last ¶), which requires every determinant term to carry the same
/// number of admittance factors. Circuits with inductors or CCVS break that
/// homogeneity, but frequency scaling alone is a pure variable substitution
/// `s → f·σ` and remains exact for *any* linear circuit — so those circuits
/// are handled in [`ScalePolicy::FrequencyOnly`] mode with `g` pinned at 1
/// (an extension the paper defers to "transformation methods").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalePolicy {
    /// `f′ = f·√q`, `g′ = g/√q` — the paper's simultaneous scaling.
    Simultaneous,
    /// `f′ = f·q`, `g ≡ 1` — exact for every element kind.
    FrequencyOnly,
}

/// The paper's first-interpolation heuristic (§3.2): frequency scale factor
/// `f = 1/mean(C)`, conductance scale factor `g = 1/mean(G)`, which aims the
/// widest window at O(1) normalized element values.
///
/// # Panics
///
/// Panics if the circuit has no capacitors or no conductances (callers
/// check [`RefgenError::NoReactiveElements`](crate::RefgenError) first).
pub fn initial_scale(circuit: &Circuit) -> Scale {
    let caps = circuit.capacitor_values();
    let gs = circuit.conductance_values();
    let mc = mean(&caps).expect("circuit has capacitors");
    // Conductance-free circuits (pure capacitive dividers) scale with g = 1.
    let mg = mean(&gs).unwrap_or(1.0);
    Scale::new(1.0 / mc, 1.0 / mg)
}

/// Initial scale for [`ScalePolicy::FrequencyOnly`]: `g = 1` and `f` at the
/// geometric mean of the reactive elements' natural frequencies
/// (`G_mean/C` per capacitor, `1/(G_mean·L)` per inductor), which centres
/// the first valid window the same way the paper's mean heuristic does.
///
/// # Panics
///
/// Panics if the circuit has no reactive elements.
pub fn initial_scale_frequency_only(circuit: &Circuit) -> Scale {
    let gs = circuit.conductance_values();
    let g_mean = mean(&gs).unwrap_or(1.0);
    let mut logs: Vec<f64> = Vec::new();
    for c in circuit.capacitor_values() {
        logs.push((g_mean / c).ln());
    }
    for l in circuit.inductor_values() {
        logs.push((1.0 / (g_mean * l)).ln());
    }
    assert!(!logs.is_empty(), "circuit has reactive elements");
    let f0 = (logs.iter().sum::<f64>() / logs.len() as f64).exp();
    Scale::new(f0, 1.0)
}

/// Computes the next scale pair from the last window (eqs. (13)–(15)).
///
/// For an ascending step with last-valid index `e` and window maximum at
/// `m`, `q` solves `|p'_e|·q^e = |p'_m|·q^m·10^{13+r}` — after re-scaling,
/// the old last coefficient sits `13+r` decades above the old maximum, so
/// the new window starts right where the old one ended (minimal overlap).
/// `policy` decides where the tilt goes: [`ScalePolicy::Simultaneous`]
/// splits it between both knobs (`f′ = f·√q`, `g′ = g/√q`), the paper's
/// guard against huge individual factors.
///
/// `extra_decades` escalates the step on stall retries (0 for the first
/// attempt).
pub fn step_scale_with_policy(
    window: &Window,
    direction: Direction,
    extra_decades: f64,
    config: &RefgenConfig,
    policy: ScalePolicy,
) -> Scale {
    let (lo, hi) = window.region.expect("step_scale requires a window with a valid region");
    let m = window.max_idx;
    let decades = RefgenConfig::NOISE_DECADES + config.tuning_r + extra_decades;
    let log_q = match direction {
        Direction::Ascending => {
            let e = hi;
            if e > m {
                let ratio = (window.normalized_at(m).unwrap().norm()
                    / window.normalized_at(e).unwrap().norm())
                .log10();
                (ratio + decades) / (e - m) as f64
            } else {
                // Degenerate window (max is the last valid): push the whole
                // noise span per index.
                decades
            }
        }
        Direction::Descending => {
            let b = lo;
            if b < m {
                let ratio = (window.normalized_at(m).unwrap().norm()
                    / window.normalized_at(b).unwrap().norm())
                .log10();
                -((ratio + decades) / (m - b) as f64)
            } else {
                -decades
            }
        }
    };
    let log_q = log_q.clamp(-config.max_step_decades_per_index, config.max_step_decades_per_index);
    match policy {
        ScalePolicy::Simultaneous => {
            let sqrt_q = 10f64.powf(log_q / 2.0);
            Scale::new(window.scale.f * sqrt_q, window.scale.g / sqrt_q)
        }
        ScalePolicy::FrequencyOnly => {
            let q = 10f64.powf(log_q);
            Scale::new(window.scale.f * q, 1.0)
        }
    }
}

/// Gap-repair scale factors (eq. (16)): geometric means of the bracketing
/// windows' factors.
pub fn gap_repair_scale(a: Scale, b: Scale) -> Scale {
    let f = 10f64.powf((a.f.log10() + b.f.log10()) / 2.0);
    let g = 10f64.powf((a.g.log10() + b.g.log10()) / 2.0);
    Scale::new(f, g)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's simultaneous step.
    fn step_scale(w: &Window, direction: Direction, extra: f64, cfg: &RefgenConfig) -> Scale {
        step_scale_with_policy(w, direction, extra, cfg, ScalePolicy::Simultaneous)
    }
    use refgen_circuit::library::rc_ladder;
    use refgen_numeric::{Complex, ExtComplex, ExtFloat};

    fn synthetic_window(scale: Scale, norms_log10: &[f64], offset: usize) -> Window {
        // Build a window directly from desired |p'_i| decades.
        let normalized: Vec<ExtComplex> = norms_log10
            .iter()
            .map(|&d| ExtComplex::from_complex(Complex::real(1.0)).scale_ext(ExtFloat::exp10(d)))
            .collect();
        let mut max_idx = 0;
        for (i, &d) in norms_log10.iter().enumerate() {
            if d > norms_log10[max_idx] {
                max_idx = i;
            }
        }
        let max = ExtFloat::exp10(norms_log10[max_idx]);
        let threshold = max * ExtFloat::exp10(-7.0);
        let valid: Vec<bool> =
            norms_log10.iter().map(|&d| ExtFloat::exp10(d) >= threshold).collect();
        let mut lo = max_idx;
        while lo > 0 && valid[lo - 1] {
            lo -= 1;
        }
        let mut hi = max_idx;
        while hi + 1 < valid.len() && valid[hi + 1] {
            hi += 1;
        }
        Window {
            scale,
            offset,
            normalized,
            threshold,
            max_idx: offset + max_idx,
            region: Some((offset + lo, offset + hi)),
            points: norms_log10.len(),
            reduced: false,
            noise_floor: max * ExtFloat::exp10(-13.0),
            threads: 1,
            stats: refgen_mna::SweepStats::default(),
            mirrored: 0,
            ordering: None,
        }
    }

    #[test]
    fn initial_scale_heuristic() {
        let c = rc_ladder(3, 1e3, 1e-9);
        let s = initial_scale(&c);
        assert!((s.f - 1e9).abs() / 1e9 < 1e-12);
        assert!((s.g - 1e3).abs() / 1e3 < 1e-12);
    }

    #[test]
    fn ascending_step_tilts_up() {
        // Window: p0..p4 valid, max at p1, p4 is 6 decades below max.
        let w = synthetic_window(Scale::new(1e9, 1e3), &[-1.0, 0.0, -2.0, -4.0, -6.0, -20.0], 0);
        assert_eq!(w.region, Some((0, 4)));
        let cfg = RefgenConfig::default();
        let s2 = step_scale(&w, Direction::Ascending, 0.0, &cfg);
        // q^(e−m) = 10^{6+13} over e−m = 3 → q = 10^{19/3}; split between
        // the two knobs.
        let q = 10f64.powf(19.0 / 3.0);
        assert!((s2.f / (1e9 * q.sqrt()) - 1.0).abs() < 1e-9);
        assert!((s2.g * q.sqrt() / 1e3 - 1.0).abs() < 1e-9);
        // Tilt f/g increased by exactly q.
        assert!(((s2.f / s2.g) / (1e6 * q) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn descending_step_tilts_down() {
        // Window: p2..p5 valid (offset 2), max at global 4.
        let w = synthetic_window(Scale::new(1e9, 1e3), &[-5.0, -2.0, 0.0, -1.0], 2);
        assert_eq!(w.region, Some((2, 5)));
        assert_eq!(w.max_idx, 4);
        let cfg = RefgenConfig::default();
        let s2 = step_scale(&w, Direction::Descending, 0.0, &cfg);
        assert!(s2.f < 1e9, "f must shrink, got {}", s2.f);
        assert!(s2.g > 1e3, "g must grow, got {}", s2.g);
        // q^(m−b) = 10^{5+13}, m−b = 2 → q = 10^{-9}, clamped to the
        // per-index LU-health cap.
        let q = 10f64.powf(-cfg.max_step_decades_per_index);
        assert!(((s2.f / s2.g) / (1e6 * q) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_single_coefficient_window() {
        let w = synthetic_window(Scale::new(1e9, 1e3), &[0.0, -30.0, -30.0], 0);
        assert_eq!(w.region, Some((0, 0)));
        let cfg = RefgenConfig::default();
        let s2 = step_scale(&w, Direction::Ascending, 0.0, &cfg);
        // The full noise span (13 decades per index) is clamped to the
        // LU-health cap.
        let q = 10f64.powf(cfg.max_step_decades_per_index);
        assert!(((s2.f / s2.g) / (1e6 * q) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn extra_decades_escalate_until_clamp() {
        // A window wide enough that the base step stays under the clamp.
        let w = synthetic_window(Scale::new(1e9, 1e3), &[0.0, -1.5, -3.0, -4.5, -6.0, -30.0], 0);
        assert_eq!(w.region, Some((0, 4)));
        let cfg = RefgenConfig::default();
        let s1 = step_scale(&w, Direction::Ascending, 0.0, &cfg);
        let s2 = step_scale(&w, Direction::Ascending, 10.0, &cfg);
        assert!(s2.f / s2.g > s1.f / s1.g);
        // And the clamp bounds arbitrarily large escalation.
        let s3 = step_scale(&w, Direction::Ascending, 1e6, &cfg);
        let max_q = 10f64.powf(cfg.max_step_decades_per_index);
        assert!((s3.f / s3.g) / 1e6 <= max_q * (1.0 + 1e-9));
    }

    #[test]
    fn gap_repair_geometric_mean() {
        let a = Scale::new(1e10, 1e2);
        let b = Scale::new(1e14, 1e-2);
        let m = gap_repair_scale(a, b);
        assert!((m.f - 1e12).abs() / 1e12 < 1e-9);
        assert!((m.g - 1.0).abs() < 1e-9);
    }
}
