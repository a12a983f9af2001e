//! NEON kernels (aarch64).
//!
//! NEON is part of the aarch64 baseline, so the dispatcher installs
//! this table unconditionally on that architecture. The bit-identity
//! strategy matches the AVX2 backend: the scalar reference's eight
//! accumulator lanes map onto two `float32x4_t` registers (lanes 0..4
//! and 4..8), every step is an explicit multiply followed by an add
//! (`vmulq_f32` + `vaddq_f32`, never `vfmaq_f32` — FMA would skip the
//! intermediate rounding and break bit-identity), the reduction spills
//! both registers to `[f32; 8]` and sums left-to-right, and the tail
//! loop is the same scalar code. u8→f32 widening (`vmovl_u8` →
//! `vmovl_u16` → `vcvtq_f32_u32`) is exact. The f32 and byte-row
//! kernels share one body per operation, which loads bytes and
//! reinterprets them: on little-endian aarch64 an `&[f32]` viewed as
//! bytes is a stored row. The module is compiled for little-endian
//! aarch64 only (big-endian targets keep the scalar table).
//!
//! The SQ4 kernel uses `vqtbl1q_u8` to look up all 16 low (then high)
//! nibbles of a dimension's packed byte row in one shot, widening into
//! four u16×8 accumulators (rows 0..8, 8..16, 16..24, 24..32).
//!
//! The SQ4 plane builder evaluates table entries with the scalar
//! operation sequence: one code of four dimensions per `float32x4_t`
//! for the extremes, one dimension's 16 codes as four `float32x4_t` for
//! the table. NEON's `vminq_f32` / `vmaxq_f32` propagate NaN, so NaN
//! lanes are first replaced by the ±∞ seed of the scalar `if v < lo`
//! loop; the running extremes then see numbers only. The rounding does the same before
//! clamping to `[0, 255]`, truncates, and compares the exact remainder
//! to one half, as `round_to_u8` does.

#![allow(unsafe_code)]

use super::scalar::{assert_row_len, centroids_of, le_at, CHECK_AT};
use super::{as_le_bytes, Argmin, Kernels};
use crate::sq4::{PlaneEntry, PlaneSums, SQ4_BLOCK};
use crate::sq8::Sq8Params;
use core::arch::aarch64::*;

pub(super) static NEON: Kernels = Kernels {
    backend: "neon",
    dot,
    l2_sq,
    l2_sq_le,
    dot_le,
    norm_sq_le,
    l2_sq_u8,
    dot_u8,
    dot_norm_u8,
    sq4_accumulate,
    sq4_plane,
    centroid_argmin,
};

fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_le(a, as_le_bytes(b))
}

fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    l2_sq_le(a, as_le_bytes(b))
}

fn l2_sq_le(a: &[f32], row: &[u8]) -> f32 {
    assert_row_len(row, a.len());
    // SAFETY: NEON is baseline on aarch64, and both rows hold
    // `a.len()` f32s (asserted).
    unsafe { l2_sq_impl(as_le_bytes(a), row) }
}

fn dot_le(a: &[f32], row: &[u8]) -> f32 {
    assert_row_len(row, a.len());
    // SAFETY: as above.
    unsafe { dot_impl(as_le_bytes(a), row) }
}

fn norm_sq_le(row: &[u8]) -> f32 {
    assert_row_len(row, row.len() / 4);
    // SAFETY: as above.
    unsafe { dot_impl(row, row) }
}

fn l2_sq_u8(qm: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
    // SAFETY: NEON is baseline on aarch64.
    unsafe { l2_sq_u8_impl(qm, scale, codes) }
}

fn dot_u8(qs: &[f32], codes: &[u8]) -> f32 {
    // SAFETY: as above.
    unsafe { dot_u8_impl(qs, codes) }
}

fn dot_norm_u8(qs: &[f32], min: &[f32], scale: &[f32], codes: &[u8]) -> (f32, f32) {
    // SAFETY: as above.
    unsafe { dot_norm_u8_impl(qs, min, scale, codes) }
}

fn sq4_accumulate(lut: &[u8], packed: &[u8], dim: usize, out: &mut [u16; SQ4_BLOCK]) {
    // SAFETY: as above.
    unsafe { sq4_accumulate_impl(lut, packed, dim, out) }
}

fn sq4_plane(
    entry: PlaneEntry,
    query: &[f32],
    params: &Sq8Params,
    mins: &mut [f32],
    lut: &mut [u8],
) -> (f32, f32) {
    // SAFETY: as above.
    unsafe { sq4_plane_impl(entry, query, params, mins, lut) }
}

fn centroid_argmin(x: &[f32], centroids: &[f32], scales: Option<&[f32]>, check: bool) -> Argmin {
    let rows = centroids_of(x, centroids, scales);
    // SAFETY: NEON is baseline on aarch64; every row of `rows` holds
    // `x.len()` f32s.
    unsafe { centroid_argmin_impl(x, rows, scales, check) }
}

/// Spills the two 4-lane accumulators (scalar lanes 0..4 and 4..8)
/// and reduces them in scalar lane order.
#[target_feature(enable = "neon")]
unsafe fn hsum(acc0: float32x4_t, acc1: float32x4_t) -> f32 {
    let mut lanes = [0.0f32; 8];
    vst1q_f32(lanes.as_mut_ptr(), acc0);
    vst1q_f32(lanes.as_mut_ptr().add(4), acc1);
    lanes.iter().sum()
}

/// Widens u8 codes `p[0..4]` to f32 exactly.
#[target_feature(enable = "neon")]
unsafe fn load_codes4(p: *const u8) -> float32x4_t {
    let mut four = [0u8; 8];
    core::ptr::copy_nonoverlapping(p, four.as_mut_ptr(), 4);
    let wide = vmovl_u16(vget_low_u16(vmovl_u8(vld1_u8(four.as_ptr()))));
    vcvtq_f32_u32(wide)
}

/// Four f32s from the 16 bytes at `p`, at any alignment: loaded as
/// bytes (a misaligned `*const f32` would be undefined behaviour) and
/// reinterpreted, which on a little-endian target yields the stored
/// components.
#[target_feature(enable = "neon")]
unsafe fn load4(p: *const u8) -> float32x4_t {
    vreinterpretq_f32_u8(vld1q_u8(p))
}

/// `Σ aᵢ·bᵢ` over two rows of little-endian f32s.
///
/// # Safety
/// `a.len() == b.len()`, a multiple of 4.
#[target_feature(enable = "neon")]
unsafe fn dot_impl(a: &[u8], b: &[u8]) -> f32 {
    let dim = a.len() / 4;
    let n = dim - dim % 8;
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0;
    while i < n {
        let (a0, a1) = (load4(pa.add(4 * i)), load4(pa.add(4 * i + 16)));
        let (b0, b1) = (load4(pb.add(4 * i)), load4(pb.add(4 * i + 16)));
        acc0 = vaddq_f32(acc0, vmulq_f32(a0, b0));
        acc1 = vaddq_f32(acc1, vmulq_f32(a1, b1));
        i += 8;
    }
    let mut sum = hsum(acc0, acc1);
    for j in n..dim {
        sum += le_at(a, j) * le_at(b, j);
    }
    sum
}

/// `Σ (aᵢ−bᵢ)²` over two rows of little-endian f32s.
///
/// # Safety
/// As for [`dot_impl`].
#[target_feature(enable = "neon")]
unsafe fn l2_sq_impl(a: &[u8], b: &[u8]) -> f32 {
    let dim = a.len() / 4;
    let n = dim - dim % 8;
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0;
    while i < n {
        let d0 = vsubq_f32(load4(pa.add(4 * i)), load4(pb.add(4 * i)));
        let d1 = vsubq_f32(load4(pa.add(4 * i + 16)), load4(pb.add(4 * i + 16)));
        acc0 = vaddq_f32(acc0, vmulq_f32(d0, d0));
        acc1 = vaddq_f32(acc1, vmulq_f32(d1, d1));
        i += 8;
    }
    let mut sum = hsum(acc0, acc1);
    for j in n..dim {
        let d = le_at(a, j) - le_at(b, j);
        sum += d * d;
    }
    sum
}

/// `acc + (a − b)²` over the four f32s at `a` and at `b`.
#[target_feature(enable = "neon")]
#[inline]
unsafe fn add_sq4(acc: float32x4_t, a: *const f32, b: *const f32) -> float32x4_t {
    let d = vsubq_f32(vld1q_f32(a), vld1q_f32(b));
    vaddq_f32(acc, vmulq_f32(d, d))
}

/// [`scalar::centroid_argmin`](super::scalar::centroid_argmin) with
/// the loop over centroids inside one NEON function: each centroid's
/// lanes as in [`l2_sq_impl`], the check one [`hsum`] after the first
/// [`CHECK_AT`] components.
///
/// # Safety
/// Every row of `rows` is `x.len()` long.
#[target_feature(enable = "neon")]
unsafe fn centroid_argmin_impl(
    x: &[f32],
    rows: std::slice::ChunksExact<'_, f32>,
    scales: Option<&[f32]>,
    check: bool,
) -> Argmin {
    let dim = x.len();
    let n = dim - dim % 8;
    let check = check && dim > CHECK_AT;
    let px = x.as_ptr();
    let mut best = Argmin::NONE;
    for (i, c) in rows.enumerate() {
        let s = scales.map_or(1.0, |s| s[i]);
        let pc = c.as_ptr();
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut j = 0;
        if check {
            while j < CHECK_AT {
                acc0 = add_sq4(acc0, px.add(j), pc.add(j));
                acc1 = add_sq4(acc1, px.add(j + 4), pc.add(j + 4));
                j += 8;
            }
            if s > 0.0 && hsum(acc0, acc1) * s >= best.score {
                best.dropped += 1;
                continue;
            }
        }
        while j < n {
            acc0 = add_sq4(acc0, px.add(j), pc.add(j));
            acc1 = add_sq4(acc1, px.add(j + 4), pc.add(j + 4));
            j += 8;
        }
        let mut sum = hsum(acc0, acc1);
        for t in n..dim {
            let d = x[t] - c[t];
            sum += d * d;
        }
        best.offer(i, scales.map_or(sum, |_| sum * s));
    }
    best
}

#[target_feature(enable = "neon")]
unsafe fn l2_sq_u8_impl(qm: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(qm.len(), codes.len());
    debug_assert_eq!(scale.len(), codes.len());
    let n = qm.len() - qm.len() % 8;
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0;
    while i < n {
        let c0 = load_codes4(codes.as_ptr().add(i));
        let c1 = load_codes4(codes.as_ptr().add(i + 4));
        let d0 = vsubq_f32(
            vld1q_f32(qm.as_ptr().add(i)),
            vmulq_f32(vld1q_f32(scale.as_ptr().add(i)), c0),
        );
        let d1 = vsubq_f32(
            vld1q_f32(qm.as_ptr().add(i + 4)),
            vmulq_f32(vld1q_f32(scale.as_ptr().add(i + 4)), c1),
        );
        acc0 = vaddq_f32(acc0, vmulq_f32(d0, d0));
        acc1 = vaddq_f32(acc1, vmulq_f32(d1, d1));
        i += 8;
    }
    let mut sum = hsum(acc0, acc1);
    for j in n..qm.len() {
        let d = qm[j] - scale[j] * codes[j] as f32;
        sum += d * d;
    }
    sum
}

#[target_feature(enable = "neon")]
unsafe fn dot_u8_impl(qs: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(qs.len(), codes.len());
    let n = qs.len() - qs.len() % 8;
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0;
    while i < n {
        let c0 = load_codes4(codes.as_ptr().add(i));
        let c1 = load_codes4(codes.as_ptr().add(i + 4));
        acc0 = vaddq_f32(acc0, vmulq_f32(vld1q_f32(qs.as_ptr().add(i)), c0));
        acc1 = vaddq_f32(acc1, vmulq_f32(vld1q_f32(qs.as_ptr().add(i + 4)), c1));
        i += 8;
    }
    let mut sum = hsum(acc0, acc1);
    for j in n..qs.len() {
        sum += qs[j] * codes[j] as f32;
    }
    sum
}

#[target_feature(enable = "neon")]
unsafe fn dot_norm_u8_impl(qs: &[f32], min: &[f32], scale: &[f32], codes: &[u8]) -> (f32, f32) {
    debug_assert_eq!(qs.len(), codes.len());
    let n = qs.len() - qs.len() % 8;
    let mut dot0 = vdupq_n_f32(0.0);
    let mut dot1 = vdupq_n_f32(0.0);
    let mut norm0 = vdupq_n_f32(0.0);
    let mut norm1 = vdupq_n_f32(0.0);
    let mut i = 0;
    while i < n {
        let c0 = load_codes4(codes.as_ptr().add(i));
        let c1 = load_codes4(codes.as_ptr().add(i + 4));
        let x0 = vaddq_f32(
            vld1q_f32(min.as_ptr().add(i)),
            vmulq_f32(vld1q_f32(scale.as_ptr().add(i)), c0),
        );
        let x1 = vaddq_f32(
            vld1q_f32(min.as_ptr().add(i + 4)),
            vmulq_f32(vld1q_f32(scale.as_ptr().add(i + 4)), c1),
        );
        dot0 = vaddq_f32(dot0, vmulq_f32(vld1q_f32(qs.as_ptr().add(i)), c0));
        dot1 = vaddq_f32(dot1, vmulq_f32(vld1q_f32(qs.as_ptr().add(i + 4)), c1));
        norm0 = vaddq_f32(norm0, vmulq_f32(x0, x0));
        norm1 = vaddq_f32(norm1, vmulq_f32(x1, x1));
        i += 8;
    }
    let mut sum_dot = hsum(dot0, dot1);
    let mut sum_norm = hsum(norm0, norm1);
    for j in n..qs.len() {
        let x = min[j] + scale[j] * codes[j] as f32;
        sum_dot += qs[j] * codes[j] as f32;
        sum_norm += x * x;
    }
    (sum_dot, sum_norm)
}

#[target_feature(enable = "neon")]
unsafe fn sq4_accumulate_impl(lut: &[u8], packed: &[u8], dim: usize, out: &mut [u16; SQ4_BLOCK]) {
    debug_assert_eq!(lut.len(), dim * 16);
    debug_assert_eq!(packed.len(), dim * 16);
    let low_mask = vdupq_n_u8(0x0F);
    let mut acc = [vdupq_n_u16(0); 4];
    for d in 0..dim {
        let code_bytes = vld1q_u8(packed.as_ptr().add(d * 16));
        let table = vld1q_u8(lut.as_ptr().add(d * 16));
        let lo = vandq_u8(code_bytes, low_mask);
        let hi = vshrq_n_u8(code_bytes, 4);
        let vals_lo = vqtbl1q_u8(table, lo); // rows 0..16
        let vals_hi = vqtbl1q_u8(table, hi); // rows 16..32
        acc[0] = vaddw_u8(acc[0], vget_low_u8(vals_lo));
        acc[1] = vaddw_u8(acc[1], vget_high_u8(vals_lo));
        acc[2] = vaddw_u8(acc[2], vget_low_u8(vals_hi));
        acc[3] = vaddw_u8(acc[3], vget_high_u8(vals_hi));
    }
    for (q, a) in acc.iter().enumerate() {
        vst1q_u16(out.as_mut_ptr().add(q * 8), *a);
    }
}

/// Four table entries, lane by lane: `x = min + scale·c` (multiply,
/// then add), then the entry. The lanes are four of one dimension's
/// codes, or one code of four dimensions.
#[inline]
#[target_feature(enable = "neon")]
unsafe fn plane_entries4(
    entry: PlaneEntry,
    q: float32x4_t,
    min: float32x4_t,
    scale: float32x4_t,
    c: float32x4_t,
) -> float32x4_t {
    let x = vaddq_f32(min, vmulq_f32(scale, c));
    match entry {
        PlaneEntry::Residual => {
            let r = vsubq_f32(q, x);
            vmulq_f32(r, r)
        }
        PlaneEntry::Product => vmulq_f32(q, x),
        PlaneEntry::Square => vmulq_f32(x, x),
    }
}

/// `x` with every NaN lane replaced by the matching lane of `fill`.
#[inline]
#[target_feature(enable = "neon")]
unsafe fn unnan(x: float32x4_t, fill: float32x4_t) -> float32x4_t {
    vbslq_f32(vceqq_f32(x, x), x, fill)
}

/// `round_to_u8` of four lanes, as u32 in `0..=255`.
#[inline]
#[target_feature(enable = "neon")]
unsafe fn round_to_u8x4(x: float32x4_t) -> uint32x4_t {
    let zero = vdupq_n_f32(0.0);
    let x = vminq_f32(vmaxq_f32(unnan(x, zero), zero), vdupq_n_f32(255.0));
    let t = vcvtq_u32_f32(x);
    let frac = vsubq_f32(x, vcvtq_f32_u32(t));
    // A true compare is all ones, i.e. u32::MAX: subtracting it (with
    // wrap-around) rounds up.
    vsubq_u32(t, vcgeq_f32(frac, vdupq_n_f32(0.5)))
}

/// `src` (at most four floats) in the low lanes, zeros above: a
/// ragged tail computes its padding lanes and drops them.
#[inline]
#[target_feature(enable = "neon")]
unsafe fn load_padded4(src: &[f32]) -> float32x4_t {
    if src.len() == 4 {
        return vld1q_f32(src.as_ptr());
    }
    let mut lanes = [0.0f32; 4];
    lanes[..src.len()].copy_from_slice(src);
    vld1q_f32(lanes.as_ptr())
}

#[target_feature(enable = "neon")]
unsafe fn sq4_plane_impl(
    entry: PlaneEntry,
    query: &[f32],
    params: &Sq8Params,
    mins: &mut [f32],
    lut: &mut [u8],
) -> (f32, f32) {
    let dim = query.len();
    debug_assert_eq!(params.dim(), dim);
    debug_assert_eq!(mins.len(), dim);
    debug_assert_eq!(lut.len(), dim * 16);
    let code_values: [f32; 16] = core::array::from_fn(|c| c as f32);
    let c0 = vld1q_f32(code_values.as_ptr());
    let c1 = vld1q_f32(code_values.as_ptr().add(4));
    let c2 = vld1q_f32(code_values.as_ptr().add(8));
    let c3 = vld1q_f32(code_values.as_ptr().add(12));
    let (inf, ninf) = (vdupq_n_f32(f32::INFINITY), vdupq_n_f32(f32::NEG_INFINITY));
    let mut sums = PlaneSums::new();
    // The extremes of four dimensions' tables at once, one lane each:
    // a vertical min / max over the 16 codes in two interleaved chains,
    // NaN entries replaced by the identity first.
    let ranges = || params.min.iter().zip(&params.scale);
    let chunks = params.min.chunks(4).zip(params.scale.chunks(4));
    for ((q, (min, scale)), lo_out) in query.chunks(4).zip(chunks).zip(mins.chunks_mut(4)) {
        let (q, min, scale) = (load_padded4(q), load_padded4(min), load_padded4(scale));
        let (mut lo0, mut lo1, mut hi0, mut hi1) = (inf, inf, ninf, ninf);
        let mut c = vdupq_n_f32(0.0);
        for _ in 0..8 {
            let e0 = plane_entries4(entry, q, min, scale, c);
            c = vaddq_f32(c, vdupq_n_f32(1.0));
            let e1 = plane_entries4(entry, q, min, scale, c);
            c = vaddq_f32(c, vdupq_n_f32(1.0));
            (lo0, lo1) = (
                vminq_f32(lo0, unnan(e0, inf)),
                vminq_f32(lo1, unnan(e1, inf)),
            );
            (hi0, hi1) = (
                vmaxq_f32(hi0, unnan(e0, ninf)),
                vmaxq_f32(hi1, unnan(e1, ninf)),
            );
        }
        let (lo, hi) = (vminq_f32(lo0, lo1), vmaxq_f32(hi0, hi1));
        let (mut los, mut his) = ([0.0f32; 4], [0.0f32; 4]);
        vst1q_f32(los.as_mut_ptr(), lo);
        vst1q_f32(his.as_mut_ptr(), hi);
        for (j, out) in lo_out.iter_mut().enumerate() {
            *out = los[j];
            sums.add(los[j], his[j]);
        }
    }
    let Some(delta) = sums.delta(dim) else {
        lut.fill(0);
        return (sums.bias, 0.0);
    };
    let inv = vdupq_n_f32(1.0 / delta);
    let dims = query.iter().zip(ranges()).zip(mins.iter());
    for (codes, ((&q, (&min, &scale)), &lo)) in lut.chunks_exact_mut(16).zip(dims) {
        let (q, min, scale) = (vdupq_n_f32(q), vdupq_n_f32(min), vdupq_n_f32(scale));
        let lo = vdupq_n_f32(lo);
        let e0 = plane_entries4(entry, q, min, scale, c0);
        let e1 = plane_entries4(entry, q, min, scale, c1);
        let e2 = plane_entries4(entry, q, min, scale, c2);
        let e3 = plane_entries4(entry, q, min, scale, c3);
        let t0 = round_to_u8x4(vmulq_f32(vsubq_f32(e0, lo), inv));
        let t1 = round_to_u8x4(vmulq_f32(vsubq_f32(e1, lo), inv));
        let t2 = round_to_u8x4(vmulq_f32(vsubq_f32(e2, lo), inv));
        let t3 = round_to_u8x4(vmulq_f32(vsubq_f32(e3, lo), inv));
        let w0 = vcombine_u16(vmovn_u32(t0), vmovn_u32(t1));
        let w1 = vcombine_u16(vmovn_u32(t2), vmovn_u32(t3));
        // `codes` is a 16-byte chunk of `lut`.
        vst1q_u8(
            codes.as_mut_ptr(),
            vcombine_u8(vmovn_u16(w0), vmovn_u16(w1)),
        );
    }
    (sums.bias, delta)
}
