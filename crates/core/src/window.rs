//! One polynomial interpolation: batched sampling, exponent alignment,
//! inverse DFT, and the validity window of eq. (12).
//!
//! Sampling runs on the plan/execute engine: one `BatchSampler` (the
//! crate-private `batch` module) per window compiles a
//! [`SweepPlan`](refgen_mna::SweepPlan) (sparsity pattern, RHS template,
//! recorded pivot order) and evaluates all unit-circle points through
//! reused per-worker scratches — numeric refactorization instead of a
//! Markowitz pivot search per point, on [`RefgenConfig::threads`] workers
//! with bit-identical output at any thread count.
//!
//! Everything a window needs that depends on its size `K` alone — the
//! unit-circle points, the [`Dft`] plan and the power columns `σ_k^i` /
//! `conj(σ_k)^{k_lo}` of the eq. (17) reduction — comes from the
//! [`SamplingRuntime`]'s per-size window tables, built once per `K` and
//! shared by every window of that size in the solve (the verify
//! re-interpolation included) and, in a batch session, by every variant.
//!
//! The two polynomials of one network function open at the same scale
//! with the same `K`, so their opening windows share one sampling batch
//! (see the [adaptive module docs](crate::adaptive)).
//!
//! A window's *order* is the highest coefficient index it interpolates:
//! `K = order + 1` unreduced. The adaptive driver sets it from the
//! polynomial's structural degree bound plus a small margin.

use crate::batch::{BatchRun, BatchSampler};
use crate::config::RefgenConfig;
use crate::error::RefgenError;
use crate::runtime::{window_tables, SamplingRuntime, SizeTables};
use refgen_mna::{MnaError, MnaSystem, OrderingChoice, Scale, SweepStats, TransferSpec};
use refgen_numeric::dft::Dft;
use refgen_numeric::{Complex, ExtComplex, ExtFloat};

/// Which polynomial of the network function is being recovered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolyKind {
    /// `N(s) = H(s)·D(s)` (paper eq. (10)).
    Numerator,
    /// `D(s) = det(Y_MNA)` (paper eq. (9)).
    Denominator,
}

/// One polynomial of a compiled system, samplable at scaled unit-circle
/// points (the [`BatchSampler`] compiles a per-window plan from this).
pub(crate) struct Sampler<'a> {
    pub sys: &'a MnaSystem,
    pub spec: &'a TransferSpec,
    pub kind: PolyKind,
}

/// The opening windows the two polynomials of one network function share.
///
/// Both recovery chains open at the same heuristic scale with the same
/// `K = order + 1` points — [`SharedOpening::order`] is the larger of the
/// two polynomials' window orders — and verify at the same perturbed
/// scale, while one transfer evaluation yields `D(σ)` *and*
/// `N(σ) = H(σ)·D(σ)` from a single factorization. So the denominator
/// chain samples its opening windows through the transfer and leaves the
/// numerator samples (errors included) here, and a numerator window at
/// the same `(scale, K)` takes them instead of sampling again. The denominator samples are bit for bit
/// what determinant sampling gives, so no coefficient changes. A value of
/// this type is owned by one network-function call and passed to the
/// opening windows of its two chains only.
#[derive(Debug)]
pub(crate) struct SharedOpening {
    order: usize,
    windows: Vec<SharedWindow>,
}

/// One denominator opening window's numerator samples, in σ order.
#[derive(Debug)]
struct SharedWindow {
    scale: Scale,
    numerator: Vec<Result<ExtComplex, MnaError>>,
    ordering: PlanOrdering,
}

/// A sampling plan's pivot-ordering decision with the system dimension
/// (`None` when the probe was singular).
type PlanOrdering = Option<(usize, OrderingChoice)>;

impl SharedOpening {
    /// An empty hand-off for opening windows of order `order`.
    pub(crate) fn new(order: usize) -> SharedOpening {
        SharedOpening { order, windows: Vec::new() }
    }

    /// The window order both polynomials' opening windows interpolate to.
    pub(crate) fn order(&self) -> usize {
        self.order
    }

    /// Removes and returns the samples left for `(scale, k_points)`, if
    /// any (scales compared bit for bit).
    fn take(&mut self, scale: Scale, k_points: usize) -> Option<SharedWindow> {
        let same =
            |s: Scale| s.f.to_bits() == scale.f.to_bits() && s.g.to_bits() == scale.g.to_bits();
        let i = self.windows.iter().position(|w| same(w.scale) && w.numerator.len() == k_points)?;
        Some(self.windows.swap_remove(i))
    }
}

/// Known coefficients used by the problem-size reduction of eq. (17): the
/// unknown range is `[k, l]` and everything outside it in `0..=order` is
/// in `known` (declared-zero and structural-zero coefficients may simply be
/// omitted — subtracting zero is a no-op).
#[derive(Clone, Debug, Default)]
pub(crate) struct Reduction {
    /// Lowest unknown coefficient index.
    pub k: usize,
    /// Highest unknown coefficient index.
    pub l: usize,
    /// Denormalized known coefficients outside `[k, l]`.
    pub known: Vec<(usize, ExtComplex)>,
}

/// The result of one interpolation: normalized coefficients `p'_i` over a
/// global index range, with the validity window of eq. (12).
#[derive(Clone, Debug)]
pub struct Window {
    /// Scale factors used.
    pub scale: Scale,
    /// Global coefficient index of `normalized[0]`.
    pub offset: usize,
    /// Normalized coefficients `p'_i = p_i·f^i·g^{M−i}` (complex — the
    /// imaginary parts are a round-off diagnostic, cf. Table 1a).
    pub normalized: Vec<ExtComplex>,
    /// Validity threshold `10^{−(13−σ)}·max_i|p'_i|`.
    pub threshold: ExtFloat,
    /// Global index of the largest normalized coefficient (the
    /// "dark-shadowed" coefficient of Table 2).
    pub max_idx: usize,
    /// The selected contiguous valid region (global indices, inclusive), or
    /// `None` when every sample was zero.
    pub region: Option<(usize, usize)>,
    /// Number of interpolation points spent.
    pub points: usize,
    /// Whether eq. (17) reduction was applied.
    pub reduced: bool,
    /// Absolute round-off floor of this interpolation:
    /// `10^{−NOISE_DECADES}·S` ([`RefgenConfig::NOISE_DECADES`]), where
    /// `S` is the largest magnitude that entered the computation (raw
    /// samples and subtracted known terms).
    /// Coefficients below this are indistinguishable from noise no matter
    /// how they compare to the window maximum.
    pub noise_floor: ExtFloat,
    /// Worker threads the sampling batch reports: `min(threads, solved
    /// points)` after resolving `threads = 0`, whatever the lane chunking
    /// (a 20-point window at lane width 32 runs one chunk and still
    /// reports 4 at `threads = 4`). Zero when the window took shared
    /// samples and ran no batch.
    pub threads: usize,
    /// The solved sampling points' accounting: compiled replays of the
    /// window plan's recorded pivot order, fresh factorizations and the
    /// recovery-ladder rescues among them.
    pub stats: SweepStats,
    /// Sampling points obtained as exact conjugates of a solved partner
    /// (conjugate-pair halving) instead of their own factorization.
    pub mirrored: u64,
    /// The sampling plan's pivot-ordering decision — system dimension plus
    /// the recorded fill numbers — feeding
    /// [`Diagnostic::OrderingSelected`](crate::Diagnostic::OrderingSelected).
    /// `None` when the plan carries no recorded choice (singular probe).
    pub ordering: Option<(usize, OrderingChoice)>,
}

impl Window {
    /// Normalized coefficient at global index `i`, if inside this window.
    pub fn normalized_at(&self, i: usize) -> Option<ExtComplex> {
        i.checked_sub(self.offset).and_then(|j| self.normalized.get(j)).copied()
    }

    /// Denormalized coefficient `p_i = p'_i/(f^i·g^{M−i})` (eq. (13)) at
    /// global index `i` for admittance degree `m_adm`, if inside this
    /// window.
    pub(crate) fn denormalized(&self, i: usize, m_adm: i64) -> Option<ExtComplex> {
        let p = self.normalized_at(i)?;
        Some(p.scale_ext(ExtFloat::ONE / normalization(self.scale, i, m_adm)))
    }

    /// `true` if global index `i` passes the eq. (12) validity test.
    pub fn is_valid(&self, i: usize) -> bool {
        match self.normalized_at(i) {
            Some(c) => !c.is_zero() && c.norm() >= self.threshold,
            None => false,
        }
    }

    /// Significant margin of coefficient `i`: decades above the validity
    /// threshold (≥ 0 for valid coefficients). Higher = more digits.
    pub fn quality(&self, i: usize) -> f64 {
        match self.normalized_at(i) {
            Some(c) if !c.is_zero() && !self.threshold.is_zero() => {
                (c.norm() / self.threshold).log10()
            }
            _ => f64::NEG_INFINITY,
        }
    }

    /// `true` when every sample (hence every coefficient) was exactly zero.
    pub fn all_zero(&self) -> bool {
        self.region.is_none()
    }
}

/// The eq. (13) normalization factor `f^i·g^{M−i}` of coefficient `i` at
/// `scale` for admittance degree `m_adm`: a window's coefficients are
/// `p'_i = p_i·f^i·g^{M−i}`.
pub(crate) fn normalization(scale: Scale, i: usize, m_adm: i64) -> ExtFloat {
    ExtFloat::from_f64(scale.f).powi(i as i64) * ExtFloat::from_f64(scale.g).powi(m_adm - i as i64)
}

/// Performs one interpolation of eq. (5), optionally reduced per eq. (17).
///
/// * `order` — the highest coefficient index interpolated, at least the
///   polynomial's degree (sets `K = order + 1` when unreduced).
/// * `m_adm` — admittance degree used to renormalize known coefficients
///   into the current scaling during reduction.
/// * `opening` — the hand-off of an opening window (unreduced, shared by
///   both polynomials; see [`SharedOpening`]), `None` for every other
///   window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn interpolate_window(
    sampler: &Sampler<'_>,
    scale: Scale,
    order: usize,
    m_adm: i64,
    reduction: Option<&Reduction>,
    config: &RefgenConfig,
    runtime: &SamplingRuntime,
    opening: Option<&mut SharedOpening>,
) -> Result<Window, RefgenError> {
    debug_assert!(opening.is_none() || reduction.is_none(), "opening windows are unreduced");
    let (k_lo, k_hi) = match reduction {
        Some(r) => {
            debug_assert!(r.k <= r.l && r.l <= order);
            (r.k, r.l)
        }
        None => (0, order),
    };
    let k_points = k_hi - k_lo + 1;
    let tables = window_tables(k_points, order);

    // Renormalized known coefficients for subtraction: p̃_i = p_i·f^i·g^{M−i}.
    let renorm_known: Vec<(usize, ExtComplex)> = reduction
        .map(|r| {
            r.known.iter().map(|&(i, c)| (i, c.scale_ext(normalization(scale, i, m_adm)))).collect()
        })
        .unwrap_or_default();

    // Sample as one batch on the plan/execute engine (pivot-order reuse,
    // config.threads workers, index-ordered results), then subtract knowns
    // and shift down by σ^{k_lo}. Track the largest magnitude that enters
    // the computation: the sampling and subtraction round-off is relative
    // to it.
    let (raw_samples, (threads, stats, mirrored), ordering) =
        sample_window(sampler, scale, &tables, opening, config, runtime)?;
    let mut raw_mag = ExtFloat::ZERO;
    for &(_, c) in &renorm_known {
        raw_mag = raw_mag.max_abs(c.norm());
    }
    let known_powers: Vec<_> = renorm_known.iter().map(|&(i, c)| (c, tables.powers(i))).collect();
    // |σ| = 1, so σ^{−k} = conj(σ)^k exactly.
    let shift = (k_lo > 0).then(|| tables.conj_powers(k_lo));
    let mut samples = Vec::with_capacity(k_points);
    for (k, &raw) in raw_samples.iter().enumerate() {
        let mut v = raw;
        raw_mag = raw_mag.max_abs(v.norm());
        for (c, powers) in &known_powers {
            if !subtraction_changes(v, *c) {
                continue;
            }
            v -= *c * powers[k];
        }
        if let Some(shift) = &shift {
            v = v * shift[k];
        }
        samples.push(v);
    }
    let noise_floor = if raw_mag.is_zero() {
        ExtFloat::ZERO
    } else {
        raw_mag * ExtFloat::exp10(-RefgenConfig::NOISE_DECADES)
    };

    let (normalized, threshold, max_idx, region) = coefficients(&samples, &tables.dft, noise_floor);
    Ok(Window {
        scale,
        offset: k_lo,
        normalized,
        threshold,
        max_idx: k_lo + max_idx,
        region: region.map(|(lo, hi)| (k_lo + lo, k_lo + hi)),
        points: k_points,
        reduced: reduction.is_some(),
        noise_floor,
        threads,
        stats,
        mirrored,
        ordering,
    })
}

/// One window's raw samples of its polynomial at the σ points of
/// `tables`, how the batch ran, and the plan's ordering decision.
///
/// An opening window of the denominator samples through the transfer and
/// leaves the numerator samples in `opening`. An opening window of the
/// numerator takes them when they match its `(scale, K)`: it runs no batch
/// and reports zero threads, solves and mirrored points — the denominator
/// window reported them — but the same ordering decision.
fn sample_window(
    sampler: &Sampler<'_>,
    scale: Scale,
    tables: &SizeTables,
    opening: Option<&mut SharedOpening>,
    config: &RefgenConfig,
    runtime: &SamplingRuntime,
) -> Result<(Vec<ExtComplex>, BatchRun, PlanOrdering), RefgenError> {
    let Sampler { sys, spec, kind } = *sampler;
    match (kind, opening) {
        (PolyKind::Denominator, Some(opening)) => {
            let batch = BatchSampler::new(sys, Some(spec), scale, config, runtime)?;
            let (samples, numerator, run) = batch.sample(tables, runtime);
            let ordering = batch.ordering();
            opening.windows.push(SharedWindow { scale, numerator, ordering });
            Ok((samples, run, ordering))
        }
        (PolyKind::Denominator, None) => {
            let batch = BatchSampler::new(sys, None, scale, config, runtime)?;
            let (samples, _, run) = batch.sample(tables, runtime);
            Ok((samples, run, batch.ordering()))
        }
        (PolyKind::Numerator, opening) => {
            if let Some(shared) = opening.and_then(|o| o.take(scale, tables.sigmas.len())) {
                let samples = shared.numerator.into_iter().collect::<Result<Vec<_>, _>>()?;
                return Ok((samples, (0, SweepStats::default(), 0), shared.ordering));
            }
            let batch = BatchSampler::new(sys, Some(spec), scale, config, runtime)?;
            let (_, numerator, run) = batch.sample(tables, runtime);
            let samples = numerator.into_iter().collect::<Result<Vec<_>, _>>()?;
            Ok((samples, run, batch.ordering()))
        }
    }
}

/// `false` when `v − c·σ^i` is bit for bit `v` for every unit-circle power
/// `σ^i`, so the eq. (17) subtraction can skip it: `c` is zero, or the
/// product — whose exponent is at most `c.exponent() + 1`, since
/// `|σ^i| = 1` — lies more than 120 binary orders below `v`, where
/// `ExtComplex` addition returns `v` unchanged. A zero `v` always
/// changes (it takes the negated product, even a signed zero).
fn subtraction_changes(v: ExtComplex, c: ExtComplex) -> bool {
    v.is_zero() || !(c.is_zero() || c.exponent() + 121 < v.exponent())
}

/// The inverse DFT of eq. (5) over the prepared samples, and the validity
/// window of eq. (12): the normalized coefficients, the validity
/// threshold, the index of the largest coefficient and the valid region
/// around it (both window-local; the region is `None` when nothing in the
/// window can be trusted).
fn coefficients(
    samples: &[ExtComplex],
    dft: &Dft,
    noise_floor: ExtFloat,
) -> (Vec<ExtComplex>, ExtFloat, usize, Option<(usize, usize)>) {
    let k_points = samples.len();
    // Exponent alignment: bring all samples to the largest exponent. Samples
    // more than ~36 decades below the maximum flush to zero — which is far
    // below the f64 round-off floor being modeled, so nothing of value is
    // lost.
    let e0 = samples.iter().filter(|s| !s.is_zero()).map(|s| s.exponent()).max();
    let Some(e0) = e0 else {
        // All samples exactly zero: the polynomial is zero on this range.
        return (vec![ExtComplex::ZERO; k_points], ExtFloat::ZERO, 0, None);
    };
    let mantissas: Vec<Complex> = samples.iter().map(|s| s.mantissa_at_exponent(e0)).collect();

    // Inverse DFT per eq. (5): coefficients = forward(samples)/K.
    let spectrum = dft.forward(&mantissas);
    let inv_k = 1.0 / k_points as f64;
    let normalized: Vec<ExtComplex> =
        spectrum.iter().map(|&c| ExtComplex::new(c.scale(inv_k), e0)).collect();

    // Validity window (eq. (12)), on each coefficient's magnitude computed
    // once.
    let norms: Vec<ExtFloat> = normalized.iter().map(|c| c.norm()).collect();
    let mut max_idx = 0usize;
    let mut max_norm = ExtFloat::ZERO;
    for (j, &n) in norms.iter().enumerate() {
        if n > max_norm {
            max_norm = n;
            max_idx = j;
        }
    }
    // The validity threshold is `10^{SIG_DIGITS}` above the *absolute*
    // round-off floor. For a plain full interpolation the samples and the
    // largest coefficient have comparable magnitudes, so this coincides
    // with the paper's `10^{−13+σ}·max_i|p'_i|` criterion (eq. (12)); for
    // reduced interpolations it additionally rejects windows whose entire
    // content is subtraction residue — which is how the true polynomial
    // order is detected (§3.3).
    let threshold = noise_floor * ExtFloat::exp10(RefgenConfig::SIG_DIGITS as f64);
    if max_norm.is_zero() || max_norm < threshold {
        return (normalized, threshold, max_idx, None);
    }
    // Second validity criterion, straight from the paper's §2.2 discussion
    // of Table 1a: the circuit's coefficients are real, so a recovered
    // coefficient whose imaginary part is comparable to its real part is
    // round-off garbage regardless of magnitude. (This is what rejects
    // whole windows when an extreme tilt has degraded the LU itself.)
    let imag_tol = ExtFloat::from_f64(10f64.powf(-(RefgenConfig::SIG_DIGITS as f64) / 2.0));
    let valid: Vec<bool> = normalized
        .iter()
        .zip(&norms)
        .map(|(c, &n)| {
            if c.is_zero() || n < threshold {
                return false;
            }
            let im = c.im().abs();
            let re = c.re().abs();
            im <= re * imag_tol
        })
        .collect();
    if !valid[max_idx] {
        // The dominant coefficient itself fails the reality test: nothing
        // in this window can be trusted.
        return (normalized, threshold, max_idx, None);
    }
    // Contiguous run containing the maximum.
    let mut lo = max_idx;
    while lo > 0 && valid[lo - 1] {
        lo -= 1;
    }
    let mut hi = max_idx;
    while hi + 1 < valid.len() && valid[hi + 1] {
        hi += 1;
    }
    (normalized, threshold, max_idx, Some((lo, hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use refgen_circuit::library::rc_ladder;
    use refgen_mna::MnaSystem;

    fn ladder_sampler(n: usize) -> (MnaSystem, TransferSpec) {
        let c = rc_ladder(n, 1e3, 1e-9);
        (MnaSystem::new(&c).unwrap(), TransferSpec::voltage_gain("VIN", "out"))
    }

    /// One window through a fresh per-call runtime (what a standalone
    /// solve does).
    fn interp(
        sampler: &Sampler<'_>,
        scale: Scale,
        order: usize,
        m_adm: i64,
        reduction: Option<&Reduction>,
        config: &RefgenConfig,
    ) -> Result<Window, RefgenError> {
        interpolate_window(
            sampler,
            scale,
            order,
            m_adm,
            reduction,
            config,
            &SamplingRuntime::new(config),
            None,
        )
    }

    #[test]
    fn uniform_ladder_single_window_covers_all() {
        // With the natural scale (f = 1/RC·…) a uniform ladder's normalized
        // coefficients are all O(1): one window captures everything.
        let (sys, spec) = ladder_sampler(5);
        let sampler = Sampler { sys: &sys, spec: &spec, kind: PolyKind::Denominator };
        let scale = Scale::new(1.0 / 1e-9, 1e3); // caps → 1, conductances → 1
        let cfg = RefgenConfig::default();
        let w = interp(&sampler, scale, 5, sys.admittance_degree(), None, &cfg).unwrap();
        assert_eq!(w.region, Some((0, 5)));
        assert_eq!(w.points, 6);
        assert!(!w.reduced);
        for i in 0..=5 {
            assert!(w.is_valid(i), "coefficient {i}");
            assert!(w.quality(i) > 0.0);
        }
    }

    #[test]
    fn numerator_of_ladder_is_constant() {
        // v(out)·D = N: for an RC ladder N(s) is the constant ∏G (no zeros).
        let (sys, spec) = ladder_sampler(4);
        let sampler = Sampler { sys: &sys, spec: &spec, kind: PolyKind::Numerator };
        let scale = Scale::new(1e9, 1e3);
        let cfg = RefgenConfig::default();
        let w = interp(&sampler, scale, 4, sys.admittance_degree(), None, &cfg).unwrap();
        let (lo, hi) = w.region.unwrap();
        assert_eq!((lo, hi), (0, 0), "only p0 valid, got {:?}", w.region);
        assert!(w.quality(0) > 5.0);
        assert!(!w.is_valid(1));
    }

    #[test]
    fn unscaled_interpolation_loses_small_coefficients() {
        // The §2.2 phenomenon: with unit scaling, an IC-valued ladder's
        // higher coefficients fall below the round-off floor.
        let (sys, spec) = ladder_sampler(6);
        let sampler = Sampler { sys: &sys, spec: &spec, kind: PolyKind::Denominator };
        let cfg = RefgenConfig::default();
        let w = interp(&sampler, Scale::unit(), 6, sys.admittance_degree(), None, &cfg).unwrap();
        let (lo, hi) = w.region.unwrap();
        // p0 (no caps) dominates; the window must NOT reach p6
        // (ratio per step is g/c = 1e-3/1e-9 = 1e6 → floor hit by p3).
        assert_eq!(lo, 0);
        assert!(hi < 3, "window {:?}", w.region);
    }

    #[test]
    fn reduction_matches_full_interpolation() {
        let (sys, spec) = ladder_sampler(5);
        let sampler = Sampler { sys: &sys, spec: &spec, kind: PolyKind::Denominator };
        let cfg = RefgenConfig::default();
        let m = sys.admittance_degree();
        let scale = Scale::new(1e9, 1e3);
        let full = interp(&sampler, scale, 5, m, None, &cfg).unwrap();
        // Denormalize p0, p1 from the full window and hand them to a reduced
        // interpolation of p2..p5.
        let denorm = |i: usize| full.denormalized(i, m).unwrap();
        let red = Reduction { k: 2, l: 5, known: vec![(0, denorm(0)), (1, denorm(1))] };
        let reduced = interp(&sampler, scale, 5, m, Some(&red), &cfg).unwrap();
        assert_eq!(reduced.points, 4);
        assert!(reduced.reduced);
        for i in 2..=5 {
            let a = full.normalized_at(i).unwrap();
            let b = reduced.normalized_at(i).unwrap();
            let rel = ((a - b).norm() / a.norm()).to_f64();
            assert!(rel < 1e-9, "i={i}, rel={rel}");
        }
    }

    #[test]
    fn sequential_sampling_reuses_pivot_order() {
        // Even at threads = 1, every solved point of a window must replay
        // the window plan's recorded pivot order — through the compiled
        // kernel — and the lower half-circle must be mirrored, not solved
        // (the counters prove all three).
        let (sys, spec) = ladder_sampler(8);
        let cfg = RefgenConfig { threads: 1, conjugate_mirror: true, ..RefgenConfig::default() };
        for kind in [PolyKind::Denominator, PolyKind::Numerator] {
            let sampler = Sampler { sys: &sys, spec: &spec, kind };
            let w = interp(&sampler, Scale::new(1e9, 1e3), 8, sys.admittance_degree(), None, &cfg)
                .unwrap();
            assert_eq!(w.points, 9);
            assert_eq!(w.threads, 1);
            // 9 conjugate-paired points: σ₀ is real, σ₁..σ₄ are solved,
            // σ₅..σ₈ are their exact conjugates.
            assert_eq!(w.mirrored, 4, "{kind:?}: lower half-circle is mirrored");
            assert_eq!(w.stats.compiled_hits, 5, "{kind:?}: every solve runs the compiled kernel");
            assert_eq!(w.stats.fresh_factorizations, 0, "{kind:?}: no solve searches pivots");
        }
        // With mirroring off, every point is its own solve.
        let full = RefgenConfig { threads: 1, conjugate_mirror: false, ..RefgenConfig::default() };
        let sampler = Sampler { sys: &sys, spec: &spec, kind: PolyKind::Denominator };
        let w = interp(&sampler, Scale::new(1e9, 1e3), 8, sys.admittance_degree(), None, &full)
            .unwrap();
        assert_eq!((w.stats.compiled_hits, w.mirrored), (9, 0));
    }

    #[test]
    fn mirrored_window_is_bit_identical_to_full_sweep() {
        let (sys, spec) = ladder_sampler(9);
        let m = sys.admittance_degree();
        for kind in [PolyKind::Denominator, PolyKind::Numerator] {
            let sampler = Sampler { sys: &sys, spec: &spec, kind };
            let run = |mirror: bool| {
                let cfg = RefgenConfig { conjugate_mirror: mirror, ..RefgenConfig::default() };
                interp(&sampler, Scale::new(1e9, 1e3), 9, m, None, &cfg).unwrap()
            };
            let on = run(true);
            let off = run(false);
            assert!(on.mirrored > 0 && off.mirrored == 0);
            // Debug formatting of f64 round-trips, so equal strings mean
            // bit-equal coefficients.
            assert_eq!(
                format!("{:?}", on.normalized),
                format!("{:?}", off.normalized),
                "{kind:?}: mirroring must not change a single bit"
            );
            assert_eq!(on.region, off.region);
        }
    }

    #[test]
    fn parallel_sampling_is_bit_identical() {
        let (sys, spec) = ladder_sampler(10);
        let m = sys.admittance_degree();
        for kind in [PolyKind::Denominator, PolyKind::Numerator] {
            let sampler = Sampler { sys: &sys, spec: &spec, kind };
            let run = |threads: usize| {
                let cfg = RefgenConfig { threads, ..RefgenConfig::default() };
                interp(&sampler, Scale::new(1e9, 1e3), 10, m, None, &cfg).unwrap()
            };
            let one = run(1);
            assert_eq!(one.threads, 1);
            for threads in [2, 4, 0] {
                let w = run(threads);
                // Debug formatting of f64 round-trips, so equal strings
                // mean bit-equal coefficients.
                assert_eq!(
                    format!("{:?}", w.normalized),
                    format!("{:?}", one.normalized),
                    "{kind:?} at threads = {threads}"
                );
                assert_eq!(w.region, one.region);
                assert_eq!(w.stats, one.stats);
                assert!(w.threads >= 1);
            }
        }
    }

    /// Every subtraction `subtraction_changes` lets the eq. (17) loop skip
    /// leaves the sample bit for bit unchanged: exponent gaps straddling
    /// the 120-bit cut-off, zero and non-finite operands, and every power
    /// of a window's unit-circle points.
    #[test]
    fn skipped_subtractions_are_exact_noops() {
        let mantissas = [
            Complex::new(1.0, 0.0),
            Complex::new(-1.999_999_999, 1.5),
            Complex::new(0.3, -1.25),
            Complex::new(-0.0, 1.0),
        ];
        let sigmas = refgen_numeric::dft::unit_circle_points(9);
        let bits =
            |z: ExtComplex| (z.mantissa().re.to_bits(), z.mantissa().im.to_bits(), z.exponent());
        let mut skipped = 0;
        for &vm in &mantissas {
            for ve in [-300i64, 0, 7, 450] {
                let mut vs = vec![ExtComplex::new(vm, ve), ExtComplex::ZERO];
                vs.push(ExtComplex::new(Complex::new(f64::NAN, 1.0), ve));
                for v in vs {
                    for &cm in &mantissas {
                        for gap in 115..=126 {
                            for c in [ExtComplex::new(cm, ve - gap), ExtComplex::ZERO] {
                                if subtraction_changes(v, c) {
                                    continue;
                                }
                                skipped += 1;
                                for i in 0..12 {
                                    for s in &sigmas {
                                        let out = v - c * s.powi(i);
                                        assert_eq!(bits(out), bits(v), "v {v:?}, c {c:?}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(skipped > 0);
        // The skip is conservative at the edge: a gap of 121 binary orders
        // is still subtracted.
        let v = ExtComplex::new(Complex::ONE, 0);
        assert!(subtraction_changes(v, ExtComplex::new(Complex::ONE, -121)));
        assert!(!subtraction_changes(v, ExtComplex::new(Complex::ONE, -122)));
        assert!(subtraction_changes(ExtComplex::ZERO, ExtComplex::ZERO));
    }

    /// The opening windows a network function shares: the denominator
    /// sampled through the transfer and the numerator taking its samples
    /// are bit for bit the windows each polynomial samples on its own, at
    /// every lane width, with mirroring on and off. The shared numerator
    /// window reports no work of its own and the same ordering decision;
    /// a numerator window at another scale samples itself.
    #[test]
    fn shared_opening_windows_match_own_sampling() {
        let sys = MnaSystem::new(&refgen_circuit::library::ua741()).unwrap();
        let spec = TransferSpec::voltage_gain("VIN", "out");
        let n = sys.circuit().reactive_count();
        let m = sys.admittance_degree();
        let scale = Scale::new(1e9, 1e3);
        let den = Sampler { sys: &sys, spec: &spec, kind: PolyKind::Denominator };
        let num = Sampler { sys: &sys, spec: &spec, kind: PolyKind::Numerator };
        for lanes in [1, 3, 32] {
            for mirror in [true, false] {
                let cfg =
                    RefgenConfig::builder().lane_width(lanes).conjugate_mirror(mirror).build();
                let at = format!("lanes {lanes}, mirror {mirror}");
                let own_den = interp(&den, scale, n, m, None, &cfg).unwrap();
                let own_num = interp(&num, scale, n, m, None, &cfg).unwrap();
                let runtime = SamplingRuntime::new(&cfg);
                let mut opening = SharedOpening::new(n);
                let window = |sampler: &Sampler<'_>, opening: &mut SharedOpening| {
                    let o = Some(opening);
                    interpolate_window(sampler, scale, n, m, None, &cfg, &runtime, o).unwrap()
                };
                let shared_den = window(&den, &mut opening);
                let shared_num = window(&num, &mut opening);
                assert!(opening.windows.is_empty(), "{at}: the hand-off was taken");
                for (own, shared) in [(&own_den, &shared_den), (&own_num, &shared_num)] {
                    assert_eq!(format!("{:?}", own.normalized), format!("{:?}", shared.normalized));
                    assert_eq!(own.region, shared.region, "{at}");
                    assert_eq!(own.ordering, shared.ordering, "{at}");
                }
                let counters = |w: &Window| (w.threads, w.stats, w.mirrored);
                assert_eq!(counters(&own_den), counters(&shared_den), "{at}");
                assert_eq!(counters(&shared_num), (0, SweepStats::default(), 0), "{at}");
                // Samples left at `scale` do not serve a window elsewhere.
                let mut left = SharedOpening::new(n);
                window(&den, &mut left);
                let elsewhere = Scale::new(2e9, 5e2);
                let own = interpolate_window(&num, elsewhere, n, m, None, &cfg, &runtime, None);
                let asked = interpolate_window(
                    &num,
                    elsewhere,
                    n,
                    m,
                    None,
                    &cfg,
                    &runtime,
                    Some(&mut left),
                );
                let (own, asked) = (own.unwrap(), asked.unwrap());
                assert_eq!(left.windows.len(), 1, "{at}: the hand-off stays for its own scale");
                assert_eq!(format!("{:?}", own.normalized), format!("{:?}", asked.normalized));
                assert_eq!(counters(&own), counters(&asked), "{at}: nothing to take");
                assert!(asked.stats.compiled_hits > 0, "{at}");
            }
        }
    }

    #[test]
    fn zero_polynomial_detected() {
        // Numerator sampling on an output node isolated from the input by
        // the element pattern is never exactly zero here; instead test the
        // all-zero path directly through a reduction that subtracts
        // everything.
        let (sys, spec) = ladder_sampler(2);
        let sampler = Sampler { sys: &sys, spec: &spec, kind: PolyKind::Numerator };
        let cfg = RefgenConfig::default();
        let m = sys.admittance_degree();
        let scale = Scale::new(1e9, 1e3);
        let full = interp(&sampler, scale, 2, m, None, &cfg).unwrap();
        // Numerator is the constant p0: subtract it and interpolate 1..2.
        let p0 = full.denormalized(0, m).unwrap();
        let red = Reduction { k: 1, l: 2, known: vec![(0, p0)] };
        let w = interp(&sampler, scale, 2, m, Some(&red), &cfg).unwrap();
        // Residual coefficients are pure round-off: many decades below the
        // unreduced p0 level.
        if let Some((lo, hi)) = w.region {
            for i in lo..=hi {
                let resid = w.normalized_at(i).unwrap().norm();
                let rel = (resid / full.normalized_at(0).unwrap().norm()).log10();
                assert!(rel < -9.0, "i={i}, rel=1e{rel:.1}");
            }
        }
    }
}
