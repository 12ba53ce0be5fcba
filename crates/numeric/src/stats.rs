//! Small statistical helpers used when choosing scale factors.
//!
//! The paper's first interpolation uses "the inverse of the mean value of the
//! capacitors as frequency scale factor" and likewise for conductances
//! (§3.2), so means — arithmetic and geometric — are needed on element-value
//! collections.

/// Arithmetic mean of a slice. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Geometric mean of a slice of positive values, computed in log space so no
/// intermediate product can overflow. Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if any element is not strictly positive.
pub fn geometric_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geometric mean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    Some((log_sum / xs.len() as f64).exp())
}

/// `f64::max` that keeps a NaN operand instead of dropping it: once either
/// operand is NaN the result is NaN, so a fold over values that include a
/// NaN ends at NaN rather than at the largest finite value.
pub fn max_keeping_nan(m: f64, v: f64) -> f64 {
    if v > m || v.is_nan() {
        v
    } else {
        m
    }
}

/// Geometric mean of two values in log10 space — the paper's eq. (16) uses
/// exactly this for the gap-repair scale factors.
pub fn log10_midpoint(a: f64, b: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "log10 midpoint requires positive values");
    10f64.powf((a.log10() + b.log10()) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn max_keeping_nan_never_drops_a_nan() {
        assert_eq!(max_keeping_nan(1.0, 2.0), 2.0);
        assert_eq!(max_keeping_nan(2.0, 1.0), 2.0);
        assert!(max_keeping_nan(1.0, f64::NAN).is_nan());
        assert!(max_keeping_nan(f64::NAN, 3.0).is_nan());
        assert!([0.5, f64::NAN, 9.0].into_iter().fold(0.0, max_keeping_nan).is_nan());
    }

    #[test]
    fn geometric_mean_basic() {
        let g = geometric_mean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), None);
    }

    #[test]
    fn geometric_mean_no_overflow() {
        let g = geometric_mean(&[1e300, 1e-300, 1e300, 1e-300]).unwrap();
        assert!((g - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log10_midpoint_is_geometric() {
        let m = log10_midpoint(1e-3, 1e5);
        assert!((m - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_nonpositive() {
        geometric_mean(&[1.0, 0.0]);
    }
}
