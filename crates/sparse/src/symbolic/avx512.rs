//! The AVX-512F tier of [`FactorProgram`](super::FactorProgram)'s batched
//! kernels: four complex lanes per 512-bit register.
//!
//! Every kernel performs, per live lane, the scalar reference's operation
//! sequence exactly — the same multiplies, adds and subtracts on the same
//! operands in the same order, no FMA contraction — so results are bit
//! for bit those of the scalar loops in [`super`]. Two rules carry that:
//!
//! * AVX's `addsub` (subtract in the real slot, add in the imaginary one)
//!   is a full add merged with a masked subtract over the real slots
//!   ([`addsub`]). Flipping the sign bit of one operand and adding would
//!   give the same numbers but flip a NaN operand's sign.
//! * A lane count that is not a multiple of four runs its last one to
//!   three lanes through zero-masked loads and masked stores: the masked-off
//!   slots compute on zeros and are never written back.
//!
//! Kernels work through the lanes in blocks of up to [`BLOCK_LANES`], so a
//! block's per-lane operands (multipliers expanded to `[re, re]` and
//! `[im, im]`, forward-pass `y`, back-substitution accumulators) are built
//! once and reused across the op list instead of being rebuilt per op.
//! Each kernel body is compiled once per register count of a block (one
//! to eight), so the operands live in registers, only the last register
//! is masked, and a few-lane batch pays for no more registers than it
//! fills. Lanes are independent and each kernel's ops within one step
//! touch disjoint destinations, so the block order changes no result.
//!
//! Every kernel requires AVX-512F (the callers dispatch on
//! [`BatchTier`](super::BatchTier)) and reads its arrays through raw
//! pointers, trusting the compiled program's slot, row and column indices
//! to lie within them.

use super::{LEntry, Op};
use refgen_numeric::Complex;
use std::arch::x86_64::{
    __m512d, __mmask8, _mm512_abs_pd, _mm512_add_pd, _mm512_cmp_pd_mask, _mm512_div_pd,
    _mm512_mask_add_pd, _mm512_mask_blend_pd, _mm512_mask_mul_pd, _mm512_mask_storeu_pd,
    _mm512_mask_sub_pd, _mm512_maskz_loadu_pd, _mm512_movedup_pd, _mm512_mul_pd, _mm512_permute_pd,
    _mm512_setzero_pd, _mm512_sub_pd, _CMP_EQ_OQ, _CMP_GE_OQ,
};

/// Complex lanes per 512-bit register.
const REG_LANES: usize = 4;
/// Most registers of per-lane operands a kernel keeps.
const BLOCK_REGS: usize = 8;
/// Lanes per block: 32, the default lane width, fits one block.
const BLOCK_LANES: usize = REG_LANES * BLOCK_REGS;

/// One block of lanes: its first lane, its register count (one to
/// [`BLOCK_REGS`]) and the element mask of its last register.
#[derive(Clone, Copy)]
struct Block {
    start: usize,
    regs: usize,
    tail: __mmask8,
}

/// The blocks covering `lanes` lanes.
fn blocks(lanes: usize) -> impl Iterator<Item = Block> {
    (0..lanes).step_by(BLOCK_LANES).map(move |start| {
        let live = (lanes - start).min(BLOCK_LANES);
        let regs = live.div_ceil(REG_LANES);
        let last = live - (regs - 1) * REG_LANES;
        Block { start, regs, tail: ((1u32 << (2 * last)) - 1) as __mmask8 }
    })
}

/// Register `r` of a block of `R`: its first lane within the block and
/// its element mask (all eight elements but in the last register).
#[inline(always)]
fn reg<const R: usize>(r: usize, tail: __mmask8) -> (usize, __mmask8) {
    (r * REG_LANES, if r + 1 == R { tail } else { 0xFF })
}

/// Calls `$kernel::<R>(args)` with `R` the block's register count.
macro_rules! per_block {
    ($b:expr, $kernel:ident($($arg:expr),* $(,)?)) => {
        match $b.regs {
            1 => $kernel::<1>($($arg),*),
            2 => $kernel::<2>($($arg),*),
            3 => $kernel::<3>($($arg),*),
            4 => $kernel::<4>($($arg),*),
            5 => $kernel::<5>($($arg),*),
            6 => $kernel::<6>($($arg),*),
            7 => $kernel::<7>($($arg),*),
            _ => $kernel::<8>($($arg),*),
        }
    };
}

/// Loads the complex lanes at `p` under element mask `m` (masked-off
/// elements read as zero and are never touched in memory).
///
/// # Safety
///
/// The lanes `m` selects must lie within one live allocation.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn load(p: *const Complex, m: __mmask8) -> __m512d {
    _mm512_maskz_loadu_pd(m, p.cast::<f64>())
}

/// Stores the elements of `v` selected by `m` to the complex lanes at `p`.
///
/// # Safety
///
/// The lanes `m` selects must lie within one live allocation that
/// nothing else borrows.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn store(p: *mut Complex, m: __mmask8, v: __m512d) {
    _mm512_mask_storeu_pd(p.cast::<f64>(), m, v);
}

/// `[a.re − b.re, a.im + b.im]` per lane: AVX's `addsub` as an add merged
/// with a masked subtract over the real (even) elements.
#[target_feature(enable = "avx512f")]
#[inline]
fn addsub(a: __m512d, b: __m512d) -> __m512d {
    _mm512_mask_sub_pd(_mm512_add_pd(a, b), 0x55, a, b)
}

/// `[a.re, a.re]` and `[a.im, a.im]` per lane.
#[target_feature(enable = "avx512f")]
#[inline]
fn expand(a: __m512d) -> (__m512d, __m512d) {
    (_mm512_movedup_pd(a), _mm512_permute_pd::<0xFF>(a))
}

/// `[b.im, b.re]` per lane.
#[target_feature(enable = "avx512f")]
#[inline]
fn swap(b: __m512d) -> __m512d {
    _mm512_permute_pd::<0x55>(b)
}

/// The complex product `a · b` per lane from `a` expanded ([`expand`]):
/// `addsub(a.re·b, a.im·b_swapped)` is `(a.re·b.re − a.im·b.im,
/// a.re·b.im + a.im·b.re)`, operand for operand the scalar `Complex`
/// multiply.
#[target_feature(enable = "avx512f")]
#[inline]
fn mul(are: __m512d, aim: __m512d, b: __m512d) -> __m512d {
    addsub(_mm512_mul_pd(are, b), _mm512_mul_pd(aim, swap(b)))
}

/// `n / d` per lane, Smith's algorithm without branches. Each lane's arm
/// is a mask (`|d.re| ≥ |d.im|`, false on NaN like the scalar `>=`), and
/// masked operations pick each arm's operands in the scalar order:
///
/// * `r = small / big` is `d.im / d.re` or `d.re / d.im`;
/// * the denominator is `d.re + d.im·r` or `d.re·r + d.im` — the two arms'
///   additions, each with its own operand order;
/// * the quotient parts are `(n.re + n.im·r, n.im − n.re·r)` or
///   `(n.re·r + n.im, n.im·r − n.re)`, each divided by the denominator.
///
/// The scalar `0 / 0` branch is not replicated: a divisor here is always
/// a pivot, and a lane whose pivot is exactly zero is already dead.
#[target_feature(enable = "avx512f")]
#[inline]
fn div(n: __m512d, d: __m512d) -> __m512d {
    let (dre, dim) = expand(d);
    let take_re = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(_mm512_abs_pd(dre), _mm512_abs_pd(dim));
    let big = _mm512_mask_blend_pd(take_re, dim, dre);
    let small = _mm512_mask_blend_pd(take_re, dre, dim);
    let r = _mm512_div_pd(small, big);
    let sr = _mm512_mul_pd(small, r);
    let den = _mm512_mask_add_pd(_mm512_add_pd(sr, big), take_re, big, sr);
    let nsw = swap(n);
    let x = _mm512_mask_mul_pd(n, !take_re, n, r);
    let y = _mm512_mask_mul_pd(nsw, take_re, nsw, r);
    // Real parts `x + y`, imaginary parts `x − y`.
    _mm512_div_pd(_mm512_mask_sub_pd(_mm512_add_pd(x, y), 0xAA, x, y), den)
}

/// One elimination step: per [`LEntry`], the multipliers `l = a / pivot`
/// (stored back into the entry's slot), then `dest −= l · src` for every
/// op of the entry. The scalar reference is `eliminate_step_scalar`.
///
/// # Safety
///
/// The CPU must support AVX-512F; every slot of `lents` and `ops` must be
/// below `vals.len() / lanes`, and `pivot_lane.len() == lanes`.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn eliminate_step(
    lents: &[LEntry],
    ops: &[Op],
    vals: &mut [Complex],
    pivot_lane: &[Complex],
    lanes: usize,
) {
    debug_assert_eq!(pivot_lane.len(), lanes);
    debug_assert!(lents.iter().all(|ent| {
        let ops = &ops[ent.ops_start as usize..ent.ops_end as usize];
        let top = ops.iter().map(|op| op.dest.max(op.src)).fold(ent.slot, u32::max);
        (top as usize + 1) * lanes <= vals.len()
    }));
    let (vp, pp) = (vals.as_mut_ptr(), pivot_lane.as_ptr());
    for b in blocks(lanes) {
        per_block!(b, eliminate_block(lents, ops, vp, pp, lanes, b));
    }
}

/// [`eliminate_step`] on one block of `R` registers, `vp` and `pp` being
/// `vals` and `pivot_lane`.
///
/// # Safety
///
/// As for [`eliminate_step`], and `b` must be one of `blocks(lanes)`.
#[target_feature(enable = "avx512f")]
unsafe fn eliminate_block<const R: usize>(
    lents: &[LEntry],
    ops: &[Op],
    vp: *mut Complex,
    pp: *const Complex,
    lanes: usize,
    b: Block,
) {
    let pp = pp.add(b.start);
    let zero = _mm512_setzero_pd();
    for ent in lents {
        let lp = vp.add(ent.slot as usize * lanes + b.start);
        let mut l = [(zero, zero); R];
        for (r, l) in l.iter_mut().enumerate() {
            let (o, m) = reg::<R>(r, b.tail);
            let q = div(load(lp.add(o), m), load(pp.add(o), m));
            store(lp.add(o), m, q);
            *l = expand(q);
        }
        for op in &ops[ent.ops_start as usize..ent.ops_end as usize] {
            let sp = vp.add(op.src as usize * lanes + b.start);
            let dp = vp.add(op.dest as usize * lanes + b.start);
            for (r, &(lre, lim)) in l.iter().enumerate() {
                let (o, m) = reg::<R>(r, b.tail);
                let prod = mul(lre, lim, load(sp.add(o), m));
                store(dp.add(o), m, _mm512_sub_pd(load(dp.add(o), m), prod));
            }
        }
    }
}

/// One forward step of the batched solve: `work[row] −= vals[slot] · y`
/// per [`LEntry`], skipping each lane whose `y` is exactly zero (both
/// parts `== 0`, so `−0` counts, NaN does not) by leaving it out of the
/// store mask — bit-identical to the one-lane solve not executing the
/// subtraction. The scalar reference is `forward_step_scalar`.
///
/// # Safety
///
/// The CPU must support AVX-512F; every slot of `lents` must be below
/// `vals.len() / lanes`, every row below `work.len() / lanes`, and
/// `y.len() == lanes`.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn forward_step(
    lents: &[LEntry],
    vals: &[Complex],
    work: &mut [Complex],
    y: &[Complex],
    lanes: usize,
) {
    debug_assert_eq!(y.len(), lanes);
    debug_assert!(lents.iter().all(|ent| {
        (ent.slot as usize + 1) * lanes <= vals.len()
            && (ent.row as usize + 1) * lanes <= work.len()
    }));
    let (vp, wp, yp) = (vals.as_ptr(), work.as_mut_ptr(), y.as_ptr());
    for b in blocks(lanes) {
        per_block!(b, forward_block(lents, vp, wp, yp, lanes, b));
    }
}

/// [`forward_step`] on one block of `R` registers, `vp`, `wp` and `yp`
/// being `vals`, `work` and `y`.
///
/// # Safety
///
/// As for [`forward_step`], and `b` must be one of `blocks(lanes)`.
#[target_feature(enable = "avx512f")]
unsafe fn forward_block<const R: usize>(
    lents: &[LEntry],
    vp: *const Complex,
    wp: *mut Complex,
    yp: *const Complex,
    lanes: usize,
    b: Block,
) {
    let zero = _mm512_setzero_pd();
    // Per register: `y`, and the store mask keeping the lanes whose `y`
    // is not exactly zero.
    let mut y = [(zero, 0); R];
    for (r, y) in y.iter_mut().enumerate() {
        let (o, m) = reg::<R>(r, b.tail);
        let t = load(yp.add(b.start + o), m);
        let z = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(t, zero);
        let lane_zero = z & (z >> 1) & 0x55;
        *y = (t, m & !(lane_zero | lane_zero << 1));
    }
    for ent in lents {
        let ep = vp.add(ent.slot as usize * lanes + b.start);
        let rp = wp.add(ent.row as usize * lanes + b.start);
        for (r, &(t, keep)) in y.iter().enumerate() {
            let (o, m) = reg::<R>(r, b.tail);
            let (vre, vim) = expand(load(ep.add(o), m));
            let prod = mul(vre, vim, t);
            store(rp.add(o), keep, _mm512_sub_pd(load(rp.add(o), m), prod));
        }
    }
}

/// One back-substitution step of the batched solve: the accumulator
/// `acc −= vals[slot] · x[col]` over the step's U entries in order, then
/// `x[pivot col] = acc / vals[pivot slot]`, with `ps`/`pc` the pivot
/// slot's and column's first lane. The accumulators stay in registers
/// across the U row; `acc` itself is read, not written. The scalar
/// reference is `back_step_scalar`.
///
/// # Safety
///
/// The CPU must support AVX-512F; every slot of `uents` and `ps / lanes`
/// must be below `vals.len() / lanes`, every column and `pc / lanes`
/// below `x.len() / lanes`, and `acc.len() == lanes`.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn back_step(
    uents: &[(u32, u32)],
    vals: &[Complex],
    x: &mut [Complex],
    acc: &[Complex],
    ps: usize,
    pc: usize,
    lanes: usize,
) {
    debug_assert_eq!(acc.len(), lanes);
    debug_assert!(ps + lanes <= vals.len() && pc + lanes <= x.len());
    debug_assert!(uents.iter().all(|&(c, slot)| {
        (slot as usize + 1) * lanes <= vals.len() && (c as usize + 1) * lanes <= x.len()
    }));
    let (vp, xp, ap) = (vals.as_ptr(), x.as_mut_ptr(), acc.as_ptr());
    for b in blocks(lanes) {
        per_block!(b, back_block(uents, vp, xp, ap, ps, pc, lanes, b));
    }
}

/// [`back_step`] on one block of `R` registers, `vp`, `xp` and `ap` being
/// `vals`, `x` and `acc`.
///
/// # Safety
///
/// As for [`back_step`], and `b` must be one of `blocks(lanes)`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn back_block<const R: usize>(
    uents: &[(u32, u32)],
    vp: *const Complex,
    xp: *mut Complex,
    ap: *const Complex,
    ps: usize,
    pc: usize,
    lanes: usize,
    b: Block,
) {
    let mut s = [_mm512_setzero_pd(); R];
    for (r, s) in s.iter_mut().enumerate() {
        let (o, m) = reg::<R>(r, b.tail);
        *s = load(ap.add(b.start + o), m);
    }
    for &(c, slot) in uents {
        let ep = vp.add(slot as usize * lanes + b.start);
        let cp = xp.add(c as usize * lanes + b.start);
        for (r, s) in s.iter_mut().enumerate() {
            let (o, m) = reg::<R>(r, b.tail);
            let (are, aim) = expand(load(ep.add(o), m));
            *s = _mm512_sub_pd(*s, mul(are, aim, load(cp.add(o), m)));
        }
    }
    let (dp, qp) = (vp.add(ps + b.start), xp.add(pc + b.start));
    for (r, &s) in s.iter().enumerate() {
        let (o, m) = reg::<R>(r, b.tail);
        store(qp.add(o), m, div(s, load(dp.add(o), m)));
    }
}
