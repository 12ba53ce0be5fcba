//! The lane-batched stamp, replay and solve of [`FactorProgram`]: eight
//! lanes per block, split into real and imaginary planes, one kernel body
//! compiled for each instruction-set tier.
//!
//! [`FactorProgram::eval_points`] is the one batched entry point. It pads
//! its lanes to blocks of [`BLOCK`], and takes each block through the
//! whole pass before it moves on to the next: stamp `K₀ + σ·K₁`, replay,
//! fold the order's sign into the live lanes' determinants, and, given a
//! right-hand side, solve. Within a block each slot — and each row and
//! column of a solve — is one [`Split`]: the eight lanes' real parts, then
//! their imaginary parts, two 64-byte-aligned cache lines. A
//! [`BatchScratch`] holds one block of slots at any lane count, so a block
//! is still in cache when its solve reads it back.
//!
//! Every kernel is written once, over a [`Vector`]: one plane of a block
//! in a tier's registers. The scalar tier's vector is a [`Part`] (loops
//! over eight lanes), AVX's two 256-bit registers and AVX-512F's one
//! 512-bit register. Each vector method is one IEEE operation per lane,
//! and the kernels apply them in the order of the scalar `Complex`
//! arithmetic of the one-lane replay, never as an FMA, so every tier's
//! live lanes are bit for bit the one-lane results.
//!
//! Padded lanes sit at `σ = 0`, so they replay `K₀`, not zeros, and take a
//! zero right-hand side. They are never read: the pivot fold leaves them
//! out, so they are never reported dead either.

use super::FactorProgram;
use crate::lu::FactorError;
use refgen_numeric::{Complex, ExtComplex};

/// Lanes per block.
pub(super) const BLOCK: usize = 8;

/// Sentinel in [`BlockDets::singular`]: the lane is still live.
const LANE_LIVE: u32 = u32::MAX;

/// One plane of a block: its eight lanes' real or imaginary parts, one
/// 64-byte cache line.
#[repr(C, align(64))]
#[derive(Clone, Copy, Debug, Default)]
struct Part([f64; BLOCK]);

/// One slot (or row, or column) of a block: eight complex lanes, real
/// parts first.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default)]
struct Split {
    re: Part,
    im: Part,
}

impl Split {
    /// Lane `k`'s value.
    fn lane(&self, k: usize) -> Complex {
        Complex::new(self.re.0[k], self.im.0[k])
    }

    /// Sets lane `k`'s value.
    fn set_lane(&mut self, k: usize, v: Complex) {
        (self.re.0[k], self.im.0[k]) = (v.re, v.im);
    }

    /// The first `values.len()` lanes set from `values`, the rest zero.
    fn from_lanes(values: impl IntoIterator<Item = Complex>) -> Split {
        let mut s = Split::default();
        for (k, v) in values.into_iter().enumerate() {
            s.set_lane(k, v);
        }
        s
    }
}

/// A block's determinant accumulators: per lane, the normalized
/// [`ExtComplex`] mantissa (split, so the fold runs vectorized) and
/// exponent, and the first singular step. Reassembling through
/// [`ExtComplex::new`], whose normalization is idempotent, is bit-identical
/// to having stored the `ExtComplex` whole.
#[derive(Clone, Copy, Debug)]
struct BlockDets {
    mant: Split,
    exp: [i64; BLOCK],
    /// First singular step per lane, [`LANE_LIVE`] while alive.
    singular: [u32; BLOCK],
}

impl BlockDets {
    /// Every lane live, with determinant one.
    const START: BlockDets = BlockDets {
        mant: Split { re: Part([1.0; BLOCK]), im: Part([0.0; BLOCK]) },
        exp: [0; BLOCK],
        singular: [LANE_LIVE; BLOCK],
    };
}

/// The instruction-set tier the batched kernels run on (see the
/// [module docs](super#batched-kernel-tiers)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BatchTier {
    /// The scalar loops: the reference every other tier matches bit for
    /// bit.
    Scalar,
    /// 256-bit AVX: a plane in two registers.
    #[cfg(target_arch = "x86_64")]
    Avx,
    /// 512-bit AVX-512F: a plane in one register.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl BatchTier {
    /// Every tier, fastest first: the dispatch order.
    pub(crate) const ALL: &'static [BatchTier] = &[
        #[cfg(target_arch = "x86_64")]
        BatchTier::Avx512,
        #[cfg(target_arch = "x86_64")]
        BatchTier::Avx,
        BatchTier::Scalar,
    ];

    /// The fastest tier this CPU supports, detected once per process.
    pub(crate) fn detected() -> BatchTier {
        use std::sync::OnceLock;
        static TIER: OnceLock<BatchTier> = OnceLock::new();
        *TIER.get_or_init(|| {
            *BatchTier::ALL.iter().find(|t| t.supported()).expect("the scalar tier runs anywhere")
        })
    }

    /// Whether this CPU can run the tier's kernels.
    pub(crate) fn supported(self) -> bool {
        match self {
            BatchTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            BatchTier::Avx => std::arch::is_x86_feature_detected!("avx"),
            #[cfg(target_arch = "x86_64")]
            BatchTier::Avx512 => {
                BatchTier::Avx.supported() && std::arch::is_x86_feature_detected!("avx512f")
            }
        }
    }

    /// The tier's name, as its target feature is spelled.
    pub(crate) fn name(self) -> &'static str {
        match self {
            BatchTier::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            BatchTier::Avx => "avx",
            #[cfg(target_arch = "x86_64")]
            BatchTier::Avx512 => "avx512f",
        }
    }

    /// Stamps one block into `vals` and replays it on this tier; `live`
    /// flags the block's real lanes.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks the tier or `vals` does not hold the
    /// program's slots.
    fn replay_block(
        self,
        program: &FactorProgram,
        stamp: Stamp<'_>,
        vals: &mut [Split],
        dets: &mut BlockDets,
        live: u8,
    ) {
        assert!(self.supported(), "CPU lacks the {} kernel tier", self.name());
        assert_eq!(vals.len(), program.slots, "scratch holds another program's slots");
        // SAFETY: the tier is supported, and `vals` holds the program's
        // slots, which its compiled indices lie below.
        unsafe {
            match self {
                BatchTier::Scalar => replay::<Part>(program, stamp, vals, dets, live),
                #[cfg(target_arch = "x86_64")]
                BatchTier::Avx => x86::replay_avx(program, stamp, vals, dets, live),
                #[cfg(target_arch = "x86_64")]
                BatchTier::Avx512 => x86::replay_avx512(program, stamp, vals, dets, live),
            }
        }
    }

    /// Solves one block on this tier: `work` holds the block's right-hand
    /// sides by row and is consumed, `x` receives its solutions by column.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks the tier or a buffer does not fit the
    /// program.
    fn solve_block(
        self,
        program: &FactorProgram,
        vals: &[Split],
        work: &mut [Split],
        x: &mut [Split],
    ) {
        assert!(self.supported(), "CPU lacks the {} kernel tier", self.name());
        // SAFETY: the tier is supported; `solve` indexes with bounds checks.
        unsafe {
            match self {
                BatchTier::Scalar => solve::<Part>(program, vals, work, x),
                #[cfg(target_arch = "x86_64")]
                BatchTier::Avx => x86::solve_avx(program, vals, work, x),
                #[cfg(target_arch = "x86_64")]
                BatchTier::Avx512 => x86::solve_avx512(program, vals, work, x),
            }
        }
    }
}

/// The stamp `K₀ + σ·K₁` of one block: one coefficient pair per raw
/// entry, one `σ` per lane.
#[derive(Clone, Copy)]
struct Stamp<'a> {
    k0: &'a [Complex],
    k1: &'a [Complex],
    sigma: Split,
}

/// One plane of a block in a tier's registers. Each method is one IEEE
/// operation per lane.
///
/// `splat` and `load` may only run on a CPU that has the implementing
/// tier; no value of a vector type exists otherwise, which keeps the
/// other methods sound.
trait Vector: Copy {
    /// Per-lane flags of a comparison.
    type Mask: Copy;

    /// `v` in every lane.
    ///
    /// # Safety
    ///
    /// The CPU must have the tier.
    unsafe fn splat(v: f64) -> Self;

    /// The lanes of `p`.
    ///
    /// # Safety
    ///
    /// The CPU must have the tier.
    unsafe fn load(p: &Part) -> Self;

    fn store(self, p: &mut Part);
    fn add(self, b: Self) -> Self;
    fn sub(self, b: Self) -> Self;
    fn mul(self, b: Self) -> Self;
    fn div(self, b: Self) -> Self;
    fn abs(self) -> Self;
    /// The larger of each lane pair, for inputs without NaN (the pivot
    /// fold discards the lanes that hold one).
    fn max(self, b: Self) -> Self;
    /// `self >= b` per lane, false on NaN like the scalar `>=`.
    fn ge(self, b: Self) -> Self::Mask;
    /// `self < b` per lane, false on NaN.
    fn lt(self, b: Self) -> Self::Mask;
    /// `self == b` per lane, false on NaN, `−0 == +0`, like the scalar `==`.
    fn eq(self, b: Self) -> Self::Mask;
    fn and(a: Self::Mask, b: Self::Mask) -> Self::Mask;
    /// `a` where `m` is set, else `b`.
    fn select(m: Self::Mask, a: Self, b: Self) -> Self;
    /// `m` as one bit per lane, lane 0 lowest.
    fn bits(m: Self::Mask) -> u8;
}

impl Part {
    #[inline(always)]
    fn zip(self, b: Part, f: impl Fn(f64, f64) -> f64) -> Part {
        Part(std::array::from_fn(|k| f(self.0[k], b.0[k])))
    }

    #[inline(always)]
    fn test(self, b: Part, f: impl Fn(f64, f64) -> bool) -> [bool; BLOCK] {
        std::array::from_fn(|k| f(self.0[k], b.0[k]))
    }
}

/// The scalar tier: loops over the eight lanes, the operation-order
/// reference.
impl Vector for Part {
    type Mask = [bool; BLOCK];

    #[inline(always)]
    unsafe fn splat(v: f64) -> Part {
        Part([v; BLOCK])
    }
    #[inline(always)]
    unsafe fn load(p: &Part) -> Part {
        *p
    }
    #[inline(always)]
    fn store(self, p: &mut Part) {
        *p = self;
    }
    #[inline(always)]
    fn add(self, b: Part) -> Part {
        self.zip(b, |x, y| x + y)
    }
    #[inline(always)]
    fn sub(self, b: Part) -> Part {
        self.zip(b, |x, y| x - y)
    }
    #[inline(always)]
    fn mul(self, b: Part) -> Part {
        self.zip(b, |x, y| x * y)
    }
    #[inline(always)]
    fn div(self, b: Part) -> Part {
        self.zip(b, |x, y| x / y)
    }
    #[inline(always)]
    fn abs(self) -> Part {
        self.zip(self, |x, _| x.abs())
    }
    #[inline(always)]
    fn max(self, b: Part) -> Part {
        self.zip(b, f64::max)
    }
    #[inline(always)]
    fn ge(self, b: Part) -> [bool; BLOCK] {
        self.test(b, |x, y| x >= y)
    }
    #[inline(always)]
    fn lt(self, b: Part) -> [bool; BLOCK] {
        self.test(b, |x, y| x < y)
    }
    #[inline(always)]
    fn eq(self, b: Part) -> [bool; BLOCK] {
        self.test(b, |x, y| x == y)
    }
    #[inline(always)]
    fn and(a: [bool; BLOCK], b: [bool; BLOCK]) -> [bool; BLOCK] {
        std::array::from_fn(|k| a[k] && b[k])
    }
    #[inline(always)]
    fn select(m: [bool; BLOCK], a: Part, b: Part) -> Part {
        Part(std::array::from_fn(|k| if m[k] { a.0[k] } else { b.0[k] }))
    }
    #[inline(always)]
    fn bits(m: [bool; BLOCK]) -> u8 {
        m.iter().rev().fold(0, |bits, &f| bits << 1 | f as u8)
    }
}

/// A block's eight complex lanes in a tier's registers.
#[derive(Clone, Copy)]
struct Cx<V> {
    re: V,
    im: V,
}

impl<V: Vector> Cx<V> {
    /// # Safety
    ///
    /// The CPU must have `V`'s tier.
    #[inline(always)]
    unsafe fn load(s: &Split) -> Self {
        Cx { re: V::load(&s.re), im: V::load(&s.im) }
    }

    /// # Safety
    ///
    /// The CPU must have `V`'s tier.
    #[inline(always)]
    unsafe fn splat(z: Complex) -> Self {
        Cx { re: V::splat(z.re), im: V::splat(z.im) }
    }

    #[inline(always)]
    fn store(self, s: &mut Split) {
        self.re.store(&mut s.re);
        self.im.store(&mut s.im);
    }

    #[inline(always)]
    fn add(self, b: Self) -> Self {
        Cx { re: self.re.add(b.re), im: self.im.add(b.im) }
    }

    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        Cx { re: self.re.sub(b.re), im: self.im.sub(b.im) }
    }

    /// `self · b`, the scalar `Complex` multiply's four products and two
    /// sums.
    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        Cx {
            re: self.re.mul(b.re).sub(self.im.mul(b.im)),
            im: self.re.mul(b.im).add(self.im.mul(b.re)),
        }
    }

    /// Both parts scaled by the real `s`.
    #[inline(always)]
    fn scale(self, s: V) -> Self {
        Cx { re: self.re.mul(s), im: self.im.mul(s) }
    }

    #[inline(always)]
    fn select(m: V::Mask, a: Self, b: Self) -> Self {
        Cx { re: V::select(m, a.re, b.re), im: V::select(m, a.im, b.im) }
    }
}

/// Smith's division by one divisor per lane, with the divisor-only terms
/// computed once. Each lane takes the scalar `Complex` division's arm
/// (`|d.re| ≥ |d.im|`, false on NaN like the scalar `>=`), and both arms
/// are computed in their scalar operand order, then selected.
///
/// The scalar `0 / 0` branch is not replicated: a divisor here is always
/// a pivot, and a lane whose pivot is exactly zero is dead or padding.
struct Divisor<V: Vector> {
    re_arm: V::Mask,
    /// `d.im / d.re` or `d.re / d.im`.
    r: V,
    /// `d.re + d.im·r` or `d.re·r + d.im`.
    den: V,
}

impl<V: Vector> Divisor<V> {
    #[inline(always)]
    fn new(d: Cx<V>) -> Self {
        let re_arm = d.re.abs().ge(d.im.abs());
        let r = V::select(re_arm, d.im, d.re).div(V::select(re_arm, d.re, d.im));
        let den = V::select(re_arm, d.re.add(d.im.mul(r)), d.re.mul(r).add(d.im));
        Divisor { re_arm, r, den }
    }

    /// `n / d`: `(n.re + n.im·r, n.im − n.re·r)` or `(n.re·r + n.im,
    /// n.im·r − n.re)`, each part divided by the denominator.
    #[inline(always)]
    fn divide(&self, n: Cx<V>) -> Cx<V> {
        let (re_r, im_r) = (n.re.mul(self.r), n.im.mul(self.r));
        let re = V::select(self.re_arm, n.re.add(im_r), re_r.add(n.im));
        let im = V::select(self.re_arm, n.im.sub(re_r), im_r.sub(n.re));
        Cx { re: re.div(self.den), im: im.div(self.den) }
    }
}

/// `2^−e` and `e = ⌊log₂ dom⌋` per lane, from the exponent field of a
/// normal `dom` below `2^1023` (other lanes get values the caller
/// discards). Multiplying by the bit-built `2^−e` only shifts exponents,
/// so it is exact.
///
/// # Safety
///
/// The CPU must have `V`'s tier.
#[inline(always)]
unsafe fn power_of_two<V: Vector>(dom: V) -> (V, [i64; BLOCK]) {
    let mut d = Part::default();
    dom.store(&mut d);
    let biased = d.0.map(|v| (v.to_bits() >> 52) as i64);
    let scale = Part(biased.map(|b| f64::from_bits(((2046 - b) as u64) << 52)));
    (V::load(&scale), biased.map(|b| b - 1023))
}

/// One step's pivot capture and determinant fold for one block: records
/// each live lane's first exact-zero pivot (killing the lane, clearing
/// its bit of `live`) and folds live pivots into the determinants.
///
/// For a finite pivot whose dominant part is normal and below `2^1023`,
/// the [`ExtComplex`] normalization of `from_complex` and `Mul` reduces to
/// scaling by a power of two and accumulating its exponent, which this
/// performs vectorized ([`power_of_two`]), the complex product in the
/// scalar operand order. A lane outside that range in the pivot or the
/// product — a zero or non-finite pivot, a subnormal, an overflow —
/// reruns the one-lane sequence from its old value ([`fold_lane`]).
///
/// # Safety
///
/// The CPU must have `V`'s tier.
#[inline(always)]
unsafe fn fold_pivots<V: Vector>(step: usize, pivot: &Split, dets: &mut BlockDets, live: &mut u8) {
    let (min_norm, max_norm) = (V::splat(f64::MIN_POSITIVE), V::splat(f64::from_bits(2046 << 52)));
    let window = |re: V, im: V, dom: V| {
        V::bits(V::and(V::and(re.lt(max_norm), im.lt(max_norm)), dom.ge(min_norm)))
    };
    let p = Cx::<V>::load(pivot);
    let (p_re, p_im) = (p.re.abs(), p.im.abs());
    let p_dom = p_re.max(p_im);
    let (p_scale, p_exp) = power_of_two(p_dom);
    let m = Cx::load(&dets.mant).mul(p.scale(p_scale));
    let (m_re, m_im) = (m.re.abs(), m.im.abs());
    let m_dom = m_re.max(m_im);
    let (m_scale, m_exp) = power_of_two(m_dom);
    let fast = window(p_re, p_im, p_dom) & window(m_re, m_im, m_dom) & *live;
    let old = dets.mant;
    m.scale(m_scale).store(&mut dets.mant);
    for lane in 0..BLOCK {
        let bit = 1 << lane;
        if fast & bit != 0 {
            dets.exp[lane] += p_exp[lane] + m_exp[lane];
        } else if *live & bit != 0 {
            dets.mant.set_lane(lane, old.lane(lane));
            if !fold_lane(step, lane, pivot.lane(lane), dets) {
                *live &= !bit;
            }
        }
    }
}

/// One live lane of the pivot fold, the one-lane replay's sequence:
/// returns whether the lane survives the step.
fn fold_lane(step: usize, lane: usize, pivot: Complex, dets: &mut BlockDets) -> bool {
    if pivot == Complex::ZERO {
        dets.singular[lane] = step as u32;
        return false;
    }
    let d = ExtComplex::new(dets.mant.lane(lane), dets.exp[lane]) * ExtComplex::from_complex(pivot);
    dets.mant.set_lane(lane, d.mantissa());
    dets.exp[lane] = d.exponent();
    true
}

/// One block's replay: the stamp, then per step the pivot fold and
/// Smith's pivot terms, and per L entry the multipliers `l = a /
/// pivot` (stored back into the entry's slot) and every `dest −= l·src`
/// of the entry — four multiplies and four adds or subtracts per plane.
///
/// # Safety
///
/// The CPU must have `V`'s tier, and `vals` must hold the program's
/// slots.
#[inline(always)]
unsafe fn replay<V: Vector>(
    program: &FactorProgram,
    Stamp { k0, k1, sigma }: Stamp<'_>,
    vals: &mut [Split],
    dets: &mut BlockDets,
    mut live: u8,
) {
    vals.fill(Split::default());
    let s = Cx::<V>::load(&sigma);
    for ((&slot, &a), &b) in program.scatter.iter().zip(k0).zip(k1) {
        // `+= a + σ·b`, the scalar operand order.
        let v = &mut vals[slot as usize];
        Cx::load(v).add(Cx::splat(a).add(s.mul(Cx::splat(b)))).store(v);
    }
    let v = vals.as_mut_ptr();
    for step in 0..program.n {
        // SAFETY (every `v.add`): compiled slots lie below
        // `program.slots == vals.len()`, and an op's `dest` and `src`
        // differ, so no two live references overlap.
        let pivot = &*v.add(program.pivot_slots[step] as usize);
        fold_pivots::<V>(step, pivot, dets, &mut live);
        let div = Divisor::<V>::new(Cx::load(pivot));
        let (ls, le) = program.lranges[step];
        for ent in &program.lents[ls as usize..le as usize] {
            let e = &mut *v.add(ent.slot as usize);
            let l = div.divide(Cx::load(e));
            l.store(e);
            for op in &program.ops[ent.ops_start as usize..ent.ops_end as usize] {
                let src = Cx::load(&*v.add(op.src as usize));
                let dest = &mut *v.add(op.dest as usize);
                Cx::load(dest).sub(l.mul(src)).store(dest);
            }
        }
    }
}

/// One block's solve: the forward pass `work[row] −= vals[slot]·y` per
/// L entry, each lane whose `y` is exactly zero left as it was (the
/// one-lane solve skips it, and subtracting `l·0` could still flip a
/// signed zero), a step whose every lane is zero skipped whole; then the
/// back substitution `acc −= vals[slot]·x[col]` over each U row in order
/// and `x[pivot col] = acc / vals[pivot slot]`.
///
/// # Safety
///
/// The CPU must have `V`'s tier.
#[inline(always)]
unsafe fn solve<V: Vector>(
    program: &FactorProgram,
    vals: &[Split],
    work: &mut [Split],
    x: &mut [Split],
) {
    let zero = V::splat(0.0);
    for step in 0..program.n {
        let y = Cx::<V>::load(&work[program.pivot_rows[step] as usize]);
        let skip = V::and(y.re.eq(zero), y.im.eq(zero));
        if V::bits(skip) == u8::MAX {
            continue;
        }
        let (ls, le) = program.lranges[step];
        for ent in &program.lents[ls as usize..le as usize] {
            let w = &mut work[ent.row as usize];
            let old = Cx::load(w);
            let new = old.sub(Cx::load(&vals[ent.slot as usize]).mul(y));
            Cx::select(skip, old, new).store(w);
        }
    }
    for step in (0..program.n).rev() {
        let mut acc = Cx::<V>::load(&work[program.pivot_rows[step] as usize]);
        let (us, ue) = program.uranges[step];
        for &(c, slot) in &program.uents[us as usize..ue as usize] {
            acc = acc.sub(Cx::load(&vals[slot as usize]).mul(Cx::load(&x[c as usize])));
        }
        let pivot = Cx::load(&vals[program.pivot_slots[step] as usize]);
        Divisor::new(pivot).divide(acc).store(&mut x[program.pivot_cols[step] as usize]);
    }
}

/// The AVX and AVX-512F vectors, and the kernels compiled for each.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{replay, solve, BlockDets, FactorProgram, Part, Split, Stamp, Vector, BLOCK};
    use std::arch::x86_64::{
        __m256d, __m512d, __mmask8, _mm256_add_pd, _mm256_and_pd, _mm256_andnot_pd,
        _mm256_blendv_pd, _mm256_cmp_pd, _mm256_div_pd, _mm256_load_pd, _mm256_max_pd,
        _mm256_movemask_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_store_pd, _mm256_sub_pd,
        _mm512_abs_pd, _mm512_add_pd, _mm512_cmp_pd_mask, _mm512_div_pd, _mm512_load_pd,
        _mm512_mask_blend_pd, _mm512_max_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_store_pd,
        _mm512_sub_pd, _CMP_EQ_OQ, _CMP_GE_OQ, _CMP_LT_OQ,
    };

    /// A plane in two 256-bit AVX registers.
    #[derive(Clone, Copy)]
    pub(super) struct Avx([__m256d; 2]);

    impl Avx {
        #[inline(always)]
        fn zip(self, b: Avx, f: impl Fn(__m256d, __m256d) -> __m256d) -> Avx {
            Avx([f(self.0[0], b.0[0]), f(self.0[1], b.0[1])])
        }
    }

    // SAFETY (every `unsafe` block below): a value of `Avx` exists only on
    // a CPU with AVX (see `Vector`), and `Part` is 64-byte aligned.
    impl Vector for Avx {
        type Mask = [__m256d; 2];

        #[inline(always)]
        unsafe fn splat(v: f64) -> Avx {
            Avx([_mm256_set1_pd(v); 2])
        }
        #[inline(always)]
        unsafe fn load(p: &Part) -> Avx {
            let p = p.0.as_ptr();
            Avx([_mm256_load_pd(p), _mm256_load_pd(p.add(BLOCK / 2))])
        }
        #[inline(always)]
        fn store(self, p: &mut Part) {
            let p = p.0.as_mut_ptr();
            unsafe {
                _mm256_store_pd(p, self.0[0]);
                _mm256_store_pd(p.add(BLOCK / 2), self.0[1]);
            }
        }
        #[inline(always)]
        fn add(self, b: Avx) -> Avx {
            self.zip(b, |x, y| unsafe { _mm256_add_pd(x, y) })
        }
        #[inline(always)]
        fn sub(self, b: Avx) -> Avx {
            self.zip(b, |x, y| unsafe { _mm256_sub_pd(x, y) })
        }
        #[inline(always)]
        fn mul(self, b: Avx) -> Avx {
            self.zip(b, |x, y| unsafe { _mm256_mul_pd(x, y) })
        }
        #[inline(always)]
        fn div(self, b: Avx) -> Avx {
            self.zip(b, |x, y| unsafe { _mm256_div_pd(x, y) })
        }
        #[inline(always)]
        fn abs(self) -> Avx {
            self.zip(self, |x, _| unsafe { _mm256_andnot_pd(_mm256_set1_pd(-0.0), x) })
        }
        #[inline(always)]
        fn max(self, b: Avx) -> Avx {
            self.zip(b, |x, y| unsafe { _mm256_max_pd(x, y) })
        }
        #[inline(always)]
        fn ge(self, b: Avx) -> [__m256d; 2] {
            self.zip(b, |x, y| unsafe { _mm256_cmp_pd::<_CMP_GE_OQ>(x, y) }).0
        }
        #[inline(always)]
        fn lt(self, b: Avx) -> [__m256d; 2] {
            self.zip(b, |x, y| unsafe { _mm256_cmp_pd::<_CMP_LT_OQ>(x, y) }).0
        }
        #[inline(always)]
        fn eq(self, b: Avx) -> [__m256d; 2] {
            self.zip(b, |x, y| unsafe { _mm256_cmp_pd::<_CMP_EQ_OQ>(x, y) }).0
        }
        #[inline(always)]
        fn and(a: [__m256d; 2], b: [__m256d; 2]) -> [__m256d; 2] {
            Avx(a).zip(Avx(b), |x, y| unsafe { _mm256_and_pd(x, y) }).0
        }
        #[inline(always)]
        fn select(m: [__m256d; 2], a: Avx, b: Avx) -> Avx {
            let pick = |k: usize| unsafe { _mm256_blendv_pd(b.0[k], a.0[k], m[k]) };
            Avx([pick(0), pick(1)])
        }
        #[inline(always)]
        fn bits(m: [__m256d; 2]) -> u8 {
            unsafe { (_mm256_movemask_pd(m[0]) | _mm256_movemask_pd(m[1]) << 4) as u8 }
        }
    }

    /// A plane in one 512-bit AVX-512F register.
    #[derive(Clone, Copy)]
    pub(super) struct Avx512(__m512d);

    // SAFETY (every `unsafe` block below): a value of `Avx512` exists only
    // on a CPU with AVX-512F (see `Vector`), and `Part` is 64-byte aligned.
    impl Vector for Avx512 {
        type Mask = __mmask8;

        #[inline(always)]
        unsafe fn splat(v: f64) -> Avx512 {
            Avx512(_mm512_set1_pd(v))
        }
        #[inline(always)]
        unsafe fn load(p: &Part) -> Avx512 {
            Avx512(_mm512_load_pd(p.0.as_ptr()))
        }
        #[inline(always)]
        fn store(self, p: &mut Part) {
            unsafe { _mm512_store_pd(p.0.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn add(self, b: Avx512) -> Avx512 {
            Avx512(unsafe { _mm512_add_pd(self.0, b.0) })
        }
        #[inline(always)]
        fn sub(self, b: Avx512) -> Avx512 {
            Avx512(unsafe { _mm512_sub_pd(self.0, b.0) })
        }
        #[inline(always)]
        fn mul(self, b: Avx512) -> Avx512 {
            Avx512(unsafe { _mm512_mul_pd(self.0, b.0) })
        }
        #[inline(always)]
        fn div(self, b: Avx512) -> Avx512 {
            Avx512(unsafe { _mm512_div_pd(self.0, b.0) })
        }
        #[inline(always)]
        fn abs(self) -> Avx512 {
            Avx512(unsafe { _mm512_abs_pd(self.0) })
        }
        #[inline(always)]
        fn max(self, b: Avx512) -> Avx512 {
            Avx512(unsafe { _mm512_max_pd(self.0, b.0) })
        }
        #[inline(always)]
        fn ge(self, b: Avx512) -> __mmask8 {
            unsafe { _mm512_cmp_pd_mask::<_CMP_GE_OQ>(self.0, b.0) }
        }
        #[inline(always)]
        fn lt(self, b: Avx512) -> __mmask8 {
            unsafe { _mm512_cmp_pd_mask::<_CMP_LT_OQ>(self.0, b.0) }
        }
        #[inline(always)]
        fn eq(self, b: Avx512) -> __mmask8 {
            unsafe { _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(self.0, b.0) }
        }
        #[inline(always)]
        fn and(a: __mmask8, b: __mmask8) -> __mmask8 {
            a & b
        }
        #[inline(always)]
        fn select(m: __mmask8, a: Avx512, b: Avx512) -> Avx512 {
            Avx512(unsafe { _mm512_mask_blend_pd(m, b.0, a.0) })
        }
        #[inline(always)]
        fn bits(m: __mmask8) -> u8 {
            m
        }
    }

    /// [`replay`] compiled for AVX.
    ///
    /// # Safety
    ///
    /// As for [`replay`] on the AVX tier.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn replay_avx(
        program: &FactorProgram,
        stamp: Stamp<'_>,
        vals: &mut [Split],
        dets: &mut BlockDets,
        live: u8,
    ) {
        replay::<Avx>(program, stamp, vals, dets, live)
    }

    /// [`replay`] compiled for AVX-512F.
    ///
    /// # Safety
    ///
    /// As for [`replay`] on the AVX-512F tier.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn replay_avx512(
        program: &FactorProgram,
        stamp: Stamp<'_>,
        vals: &mut [Split],
        dets: &mut BlockDets,
        live: u8,
    ) {
        replay::<Avx512>(program, stamp, vals, dets, live)
    }

    /// [`solve`] compiled for AVX.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn solve_avx(
        program: &FactorProgram,
        vals: &[Split],
        work: &mut [Split],
        x: &mut [Split],
    ) {
        solve::<Avx>(program, vals, work, x)
    }

    /// [`solve`] compiled for AVX-512F.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn solve_avx512(
        program: &FactorProgram,
        vals: &[Split],
        work: &mut [Split],
        x: &mut [Split],
    ) {
        solve::<Avx512>(program, vals, work, x)
    }
}

impl FactorProgram {
    /// Evaluates **one** affine matrix `K₀ + σ·K₁` at many points, one
    /// lane per point: raw entry `e` of lane `k` takes the value
    /// `k0[e] + sigmas[k]·k1[e]`. For each block of eight lanes it stamps
    /// those values, replays the instruction stream, folds the order's
    /// sign into the live lanes' determinants ([`BatchScratch::lane_det`])
    /// and, when `solve` gives a right-hand side shared by every lane,
    /// solves the block against it. Then it moves on to the next block.
    /// The solutions land column-major in `solve`'s vector
    /// (`x[col·lanes + lane]`, cleared and refilled).
    ///
    /// Per live lane the arithmetic is **operation for operation** that of
    /// a one-lane [`FactorProgram::refactor_values`] fed `k0[e] + σ·k1[e]`
    /// and a [`FactorProgram::solve_into`] (the forward pass's exact-zero
    /// skip included), with no FMA contraction, so results are
    /// bit-identical at any lane count. A lane whose prescribed pivot is
    /// exactly zero dies at that step: [`BatchScratch::lane_det`] reports
    /// the one-lane `Singular { step }`, the other lanes are unaffected,
    /// and the dead lane's solution is garbage that callers must not read.
    ///
    /// # Panics
    ///
    /// Panics if `sigmas` is empty, or a coefficient slice's length
    /// differs from the compiled pattern's raw entry count, or the
    /// right-hand side's from the dimension.
    pub fn eval_points(
        &self,
        k0: &[Complex],
        k1: &[Complex],
        sigmas: &[Complex],
        solve: Option<(&[Complex], &mut Vec<Complex>)>,
        scratch: &mut BatchScratch,
    ) {
        self.eval_points_on(BatchTier::detected(), k0, k1, sigmas, solve, scratch);
    }

    /// [`FactorProgram::eval_points`] on a given kernel tier.
    ///
    /// # Panics
    ///
    /// As [`FactorProgram::eval_points`], and if the CPU lacks `tier`.
    pub(crate) fn eval_points_on(
        &self,
        tier: BatchTier,
        k0: &[Complex],
        k1: &[Complex],
        sigmas: &[Complex],
        mut solve: Option<(&[Complex], &mut Vec<Complex>)>,
        scratch: &mut BatchScratch,
    ) {
        assert!(!sigmas.is_empty(), "batch needs at least one lane");
        assert_eq!(k0.len(), self.scatter.len(), "k0 length differs from compiled pattern");
        assert_eq!(k1.len(), self.scatter.len(), "k1 length differs from compiled pattern");
        let (n, lanes) = (self.n, sigmas.len());
        scratch.lanes = lanes;
        scratch.vals.resize(self.slots, Split::default());
        scratch.dets.clear();
        if let Some((rhs, x)) = &mut solve {
            assert_eq!(rhs.len(), n, "rhs length mismatch");
            x.clear();
            x.resize(n * lanes, Complex::ZERO);
            scratch.work.resize(n, Split::default());
            scratch.sol.resize(n, Split::default());
        }
        for (b, sigmas) in sigmas.chunks(BLOCK).enumerate() {
            let (count, mut dets) = (sigmas.len(), BlockDets::START);
            let stamp = Stamp { k0, k1, sigma: Split::from_lanes(sigmas.iter().copied()) };
            let live = ((1u16 << count) - 1) as u8;
            tier.replay_block(self, stamp, &mut scratch.vals, &mut dets, live);
            for k in 0..count {
                if dets.singular[k] == LANE_LIVE {
                    let d =
                        ExtComplex::new(dets.mant.lane(k), dets.exp[k]) * Complex::real(self.sign);
                    dets.mant.set_lane(k, d.mantissa());
                    dets.exp[k] = d.exponent();
                }
            }
            scratch.dets.push(dets);
            if let Some((rhs, x)) = &mut solve {
                for (w, &v) in scratch.work.iter_mut().zip(rhs.iter()) {
                    *w = Split::from_lanes(std::iter::repeat_n(v, count));
                }
                tier.solve_block(self, &scratch.vals, &mut scratch.work, &mut scratch.sol);
                for (col, s) in scratch.sol.iter().enumerate() {
                    for k in 0..count {
                        x[col * lanes + b * BLOCK + k] = s.lane(k);
                    }
                }
            }
        }
    }
}

/// Per-executor mutable state for [`FactorProgram::eval_points`]: the
/// slot values of one block of eight lanes, whatever the lane count, one
/// block's rows and columns for the solve, and each block's determinant
/// accumulators.
///
/// # Lane layout
///
/// Lanes are padded to blocks of eight. Within a block, each slot holds
/// the eight lanes' real parts and then their imaginary parts — one
/// 64-byte-aligned pair of cache lines — so every instruction of the
/// replay and the solve applies to eight lanes of contiguous, aligned
/// memory. A block is stamped, replayed and solved before the next one
/// reuses its slots. Padded lanes replay `K₀` (`σ = 0`) and are never
/// read. The layout is private: lanes are reached only through
/// [`BatchScratch::lane_det`] and the column-major solutions of
/// [`FactorProgram::eval_points`].
///
/// # Per-lane failure
///
/// One dead lane does not kill the batch: a lane hitting an exact-zero
/// pivot records its first failing step, which
/// [`BatchScratch::lane_det`] reports as the one-lane
/// `FactorError::Singular { step }`, while the other lanes proceed
/// bit-identically to one-lane replays.
///
/// All buffers retain capacity across calls; one scratch per worker
/// thread, the program shared.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    /// Lane count of the last batch.
    lanes: usize,
    /// One block's slot values: the last block's, once a batch is done.
    vals: Vec<Split>,
    /// Per block: determinant accumulators and first singular steps.
    dets: Vec<BlockDets>,
    /// One block's rows during a solve (right-hand sides, then the
    /// forward pass's `y`).
    work: Vec<Split>,
    /// One block's solution columns during a solve.
    sol: Vec<Split>,
}

impl BatchScratch {
    /// An empty scratch; buffers size themselves on first use.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    /// Determinant of `lane` from the last [`FactorProgram::eval_points`]
    /// (sign-corrected, extended-range), or the same `Singular { step }`
    /// error a one-lane replay of that lane's values would have returned.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range for the last batch (or no batch
    /// has run).
    pub fn lane_det(&self, lane: usize) -> Result<ExtComplex, FactorError> {
        assert!(lane < self.lanes, "lane {lane} out of range for {} lanes", self.lanes);
        let (dets, k) = (&self.dets[lane / BLOCK], lane % BLOCK);
        match dets.singular[k] {
            LANE_LIVE => Ok(ExtComplex::new(dets.mant.lane(k), dets.exp[k])),
            step => Err(FactorError::Singular { step: step as usize }),
        }
    }

    /// Lane `lane`'s value in slot `slot` after the last batch, which
    /// keeps only its last block's slots.
    #[cfg(test)]
    pub(super) fn slot(&self, slot: usize, lane: usize) -> Complex {
        assert_eq!(lane / BLOCK + 1, self.dets.len(), "lane {lane} is not in the last block");
        self.vals[slot].lane(lane % BLOCK)
    }
}
