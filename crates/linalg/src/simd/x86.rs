//! AVX2 kernels (x86_64).
//!
//! Installed by the dispatcher only after
//! `is_x86_feature_detected!("avx2")` succeeds. Each kernel mirrors
//! the scalar reference lane-for-lane: the eight f32 accumulator lanes
//! of one `__m256` replay the eight scalar `acc[i]` lanes with the same
//! multiply-then-add sequence (deliberately *not* `_mm256_fmadd_ps` —
//! FMA skips the intermediate rounding the scalar loop performs and
//! would break bit-identity), the horizontal reduction spills to
//! `[f32; 8]` and sums left-to-right like `acc.iter().sum()`, and the
//! tail loop is the same scalar code. u8→f32 widening uses
//! `_mm256_cvtepu8_epi32` + `_mm256_cvtepi32_ps`, both exact. The f32
//! and byte-row kernels share one body per operation: x86 is
//! little-endian, so an `&[f32]` viewed as bytes is a stored row, and
//! `loadu` reads either at any alignment.
//!
//! The SQ4 kernel is the fastscan shuffle: 16 packed code bytes hold
//! one dimension of all 32 rows (low nibbles = rows 0..16, high
//! nibbles = rows 16..32); `_mm256_shuffle_epi8` looks up all 32
//! 4-bit codes in the broadcast 16-entry LUT at once, and the u8
//! values widen into two u16×16 accumulators. Integer math — exact by
//! construction, no rounding concerns.
//!
//! The SQ4 plane builder evaluates table entries with the scalar
//! operation sequence: one code of eight dimensions per `__m256` for
//! the extremes, one dimension's 16 codes as two `__m256` for the
//! table. Its extremes rely
//! on `_mm256_min_ps(a, b)` returning `b` unless `a < b` (and
//! `_mm256_max_ps` likewise): folding the entries in as the *first*
//! operand against a ±∞ seed never lets a NaN in, exactly like the
//! scalar `if v < lo`. The rounding clamps to `[0, 255]` first (NaN
//! lands on 0 by the same operand rule), then truncates and compares
//! the exact remainder to one half, as `round_to_u8` does.

#![allow(unsafe_code)]

use super::scalar::{assert_row_len, centroids_of, le_at, CHECK_AT};
use super::{as_le_bytes, Argmin, Kernels};
use crate::sq4::{PlaneEntry, PlaneSums, SQ4_BLOCK};
use crate::sq8::Sq8Params;
use core::arch::x86_64::*;

pub(super) static AVX2: Kernels = Kernels {
    backend: "avx2",
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
    // SAFETY: this table is only installed after AVX2 detection, and
    // both rows hold `a.len()` f32s (asserted).
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
    // SAFETY: as above.
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
    // SAFETY: as above; every row of `rows` holds `x.len()` f32s.
    unsafe { centroid_argmin_impl(x, rows, scales, check) }
}

/// Spills an 8-lane accumulator and reduces it in scalar lane order.
#[target_feature(enable = "avx2")]
unsafe fn hsum(acc: __m256) -> f32 {
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    lanes.iter().sum()
}

/// Widens 8 u8 codes (loaded from `p`) to f32 exactly.
#[target_feature(enable = "avx2")]
unsafe fn load_codes8(p: *const u8) -> __m256 {
    let bytes = _mm_loadl_epi64(p as *const __m128i);
    _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes))
}

/// Eight f32s from the 32 bytes at `p`: `loadu` takes any alignment,
/// and x86 is little-endian, so the lanes are the stored components.
#[target_feature(enable = "avx2")]
unsafe fn load8(p: *const u8) -> __m256 {
    _mm256_loadu_ps(p as *const f32)
}

/// `Σ aᵢ·bᵢ` over two rows of little-endian f32s.
///
/// # Safety
/// AVX2 is available and `a.len() == b.len()`, a multiple of 4.
#[target_feature(enable = "avx2")]
unsafe fn dot_impl(a: &[u8], b: &[u8]) -> f32 {
    let dim = a.len() / 4;
    let n = dim - dim % 8;
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i < n {
        let va = load8(a.as_ptr().add(4 * i));
        let vb = load8(b.as_ptr().add(4 * i));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        i += 8;
    }
    let mut sum = hsum(acc);
    for j in n..dim {
        sum += le_at(a, j) * le_at(b, j);
    }
    sum
}

/// `Σ (aᵢ−bᵢ)²` over two rows of little-endian f32s.
///
/// # Safety
/// As for [`dot_impl`].
#[target_feature(enable = "avx2")]
unsafe fn l2_sq_impl(a: &[u8], b: &[u8]) -> f32 {
    let dim = a.len() / 4;
    let n = dim - dim % 8;
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i < n {
        let va = load8(a.as_ptr().add(4 * i));
        let vb = load8(b.as_ptr().add(4 * i));
        let d = _mm256_sub_ps(va, vb);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        i += 8;
    }
    let mut sum = hsum(acc);
    for j in n..dim {
        let d = le_at(a, j) - le_at(b, j);
        sum += d * d;
    }
    sum
}

/// `acc + (a − b)²` over the eight f32s at `a` and at `b`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn add_sq8(acc: __m256, a: *const f32, b: *const f32) -> __m256 {
    let d = _mm256_sub_ps(_mm256_loadu_ps(a), _mm256_loadu_ps(b));
    _mm256_add_ps(acc, _mm256_mul_ps(d, d))
}

/// [`scalar::centroid_argmin`](super::scalar::centroid_argmin) with
/// the loop over centroids inside one AVX2 function: each centroid's
/// lanes as in [`l2_sq_impl`], the check one [`hsum`] after the first
/// [`CHECK_AT`] components.
///
/// # Safety
/// AVX2 is available and every row of `rows` is `x.len()` long.
#[target_feature(enable = "avx2")]
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
        let mut acc = _mm256_setzero_ps();
        let mut j = 0;
        if check {
            while j < CHECK_AT {
                acc = add_sq8(acc, px.add(j), pc.add(j));
                j += 8;
            }
            if s > 0.0 && hsum(acc) * s >= best.score {
                best.dropped += 1;
                continue;
            }
        }
        while j < n {
            acc = add_sq8(acc, px.add(j), pc.add(j));
            j += 8;
        }
        let mut sum = hsum(acc);
        for t in n..dim {
            let d = x[t] - c[t];
            sum += d * d;
        }
        best.offer(i, scales.map_or(sum, |_| sum * s));
    }
    best
}

#[target_feature(enable = "avx2")]
unsafe fn l2_sq_u8_impl(qm: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(qm.len(), codes.len());
    debug_assert_eq!(scale.len(), codes.len());
    let n = qm.len() - qm.len() % 8;
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i < n {
        let vq = _mm256_loadu_ps(qm.as_ptr().add(i));
        let vs = _mm256_loadu_ps(scale.as_ptr().add(i));
        let vc = load_codes8(codes.as_ptr().add(i));
        let d = _mm256_sub_ps(vq, _mm256_mul_ps(vs, vc));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        i += 8;
    }
    let mut sum = hsum(acc);
    for j in n..qm.len() {
        let d = qm[j] - scale[j] * codes[j] as f32;
        sum += d * d;
    }
    sum
}

#[target_feature(enable = "avx2")]
unsafe fn dot_u8_impl(qs: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(qs.len(), codes.len());
    let n = qs.len() - qs.len() % 8;
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i < n {
        let vq = _mm256_loadu_ps(qs.as_ptr().add(i));
        let vc = load_codes8(codes.as_ptr().add(i));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(vq, vc));
        i += 8;
    }
    let mut sum = hsum(acc);
    for j in n..qs.len() {
        sum += qs[j] * codes[j] as f32;
    }
    sum
}

#[target_feature(enable = "avx2")]
unsafe fn dot_norm_u8_impl(qs: &[f32], min: &[f32], scale: &[f32], codes: &[u8]) -> (f32, f32) {
    debug_assert_eq!(qs.len(), codes.len());
    let n = qs.len() - qs.len() % 8;
    let mut acc_dot = _mm256_setzero_ps();
    let mut acc_norm = _mm256_setzero_ps();
    let mut i = 0;
    while i < n {
        let vq = _mm256_loadu_ps(qs.as_ptr().add(i));
        let vm = _mm256_loadu_ps(min.as_ptr().add(i));
        let vs = _mm256_loadu_ps(scale.as_ptr().add(i));
        let vc = load_codes8(codes.as_ptr().add(i));
        let x = _mm256_add_ps(vm, _mm256_mul_ps(vs, vc));
        acc_dot = _mm256_add_ps(acc_dot, _mm256_mul_ps(vq, vc));
        acc_norm = _mm256_add_ps(acc_norm, _mm256_mul_ps(x, x));
        i += 8;
    }
    let mut sum_dot = hsum(acc_dot);
    let mut sum_norm = hsum(acc_norm);
    for j in n..qs.len() {
        let x = min[j] + scale[j] * codes[j] as f32;
        sum_dot += qs[j] * codes[j] as f32;
        sum_norm += x * x;
    }
    (sum_dot, sum_norm)
}

#[target_feature(enable = "avx2")]
unsafe fn sq4_accumulate_impl(lut: &[u8], packed: &[u8], dim: usize, out: &mut [u16; SQ4_BLOCK]) {
    debug_assert_eq!(lut.len(), dim * 16);
    debug_assert_eq!(packed.len(), dim * 16);
    let low_mask = _mm256_set1_epi8(0x0F);
    let zero = _mm256_setzero_si256();
    let mut acc_lo = zero;
    let mut acc_hi = zero;
    for d in 0..dim {
        let code_bytes = _mm_loadu_si128(packed.as_ptr().add(d * 16) as *const __m128i);
        let lut_row = _mm_loadu_si128(lut.as_ptr().add(d * 16) as *const __m128i);
        let lut2 = _mm256_broadcastsi128_si256(lut_row);
        // Lane 0 = low nibbles (rows 0..16), lane 1 = high nibbles
        // (rows 16..32); mask after combining so one AND serves both.
        let hi = _mm_srli_epi16(code_bytes, 4);
        let idx = _mm256_and_si256(_mm256_set_m128i(hi, code_bytes), low_mask);
        let vals = _mm256_shuffle_epi8(lut2, idx);
        // unpack{lo,hi}_epi8 interleave within each 128-bit lane, so
        // acc_lo carries rows 0..8 | 16..24 and acc_hi rows 8..16 |
        // 24..32 as u16; the spill below undoes that mapping.
        acc_lo = _mm256_add_epi16(acc_lo, _mm256_unpacklo_epi8(vals, zero));
        acc_hi = _mm256_add_epi16(acc_hi, _mm256_unpackhi_epi8(vals, zero));
    }
    let mut lo16 = [0u16; 16];
    let mut hi16 = [0u16; 16];
    _mm256_storeu_si256(lo16.as_mut_ptr() as *mut __m256i, acc_lo);
    _mm256_storeu_si256(hi16.as_mut_ptr() as *mut __m256i, acc_hi);
    out[..8].copy_from_slice(&lo16[..8]);
    out[8..16].copy_from_slice(&hi16[..8]);
    out[16..24].copy_from_slice(&lo16[8..]);
    out[24..32].copy_from_slice(&hi16[8..]);
}

/// Eight table entries, lane by lane: `x = min + scale·c` (multiply,
/// then add), then the entry. The lanes are one dimension's codes, or
/// one code of eight dimensions.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn plane_entries8(
    entry: PlaneEntry,
    q: __m256,
    min: __m256,
    scale: __m256,
    c: __m256,
) -> __m256 {
    let x = _mm256_add_ps(min, _mm256_mul_ps(scale, c));
    match entry {
        PlaneEntry::Residual => {
            let r = _mm256_sub_ps(q, x);
            _mm256_mul_ps(r, r)
        }
        PlaneEntry::Product => _mm256_mul_ps(q, x),
        PlaneEntry::Square => _mm256_mul_ps(x, x),
    }
}

/// `round_to_u8` of eight lanes, as i32 in `0..=255`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn round_to_u8x8(x: __m256) -> __m256i {
    let x = _mm256_min_ps(_mm256_max_ps(x, _mm256_setzero_ps()), _mm256_set1_ps(255.0));
    let t = _mm256_cvttps_epi32(x);
    let frac = _mm256_sub_ps(x, _mm256_cvtepi32_ps(t));
    let up = _mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5));
    // A true compare is all ones, i.e. −1: subtracting it rounds up.
    _mm256_sub_epi32(t, _mm256_castps_si256(up))
}

/// `src` (at most eight floats) in the low lanes, zeros above: a
/// ragged tail computes its padding lanes and drops them.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_padded8(src: &[f32]) -> __m256 {
    if src.len() == 8 {
        return _mm256_loadu_ps(src.as_ptr());
    }
    let mut lanes = [0.0f32; 8];
    lanes[..src.len()].copy_from_slice(src);
    _mm256_loadu_ps(lanes.as_ptr())
}

#[target_feature(enable = "avx2")]
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
    let c0 = _mm256_setr_ps(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0);
    let c1 = _mm256_setr_ps(8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0);
    let mut sums = PlaneSums::new();
    // The extremes of eight dimensions' tables at once, one lane each:
    // a vertical min / max over the 16 codes, in two interleaved chains.
    // Each running extreme is the second operand, so a NaN entry leaves
    // it as it was, and none is ever NaN.
    let ranges = || params.min.iter().zip(&params.scale);
    let chunks = params.min.chunks(8).zip(params.scale.chunks(8));
    for ((q, (min, scale)), lo_out) in query.chunks(8).zip(chunks).zip(mins.chunks_mut(8)) {
        let (q, min, scale) = (load_padded8(q), load_padded8(min), load_padded8(scale));
        let (mut lo0, mut lo1) = (_mm256_set1_ps(f32::INFINITY), _mm256_set1_ps(f32::INFINITY));
        let (mut hi0, mut hi1) = (
            _mm256_set1_ps(f32::NEG_INFINITY),
            _mm256_set1_ps(f32::NEG_INFINITY),
        );
        let mut c = _mm256_setzero_ps();
        for _ in 0..8 {
            let e0 = plane_entries8(entry, q, min, scale, c);
            c = _mm256_add_ps(c, _mm256_set1_ps(1.0));
            let e1 = plane_entries8(entry, q, min, scale, c);
            c = _mm256_add_ps(c, _mm256_set1_ps(1.0));
            (lo0, lo1) = (_mm256_min_ps(e0, lo0), _mm256_min_ps(e1, lo1));
            (hi0, hi1) = (_mm256_max_ps(e0, hi0), _mm256_max_ps(e1, hi1));
        }
        let (lo, hi) = (_mm256_min_ps(lo0, lo1), _mm256_max_ps(hi0, hi1));
        let (mut los, mut his) = ([0.0f32; 8], [0.0f32; 8]);
        _mm256_storeu_ps(los.as_mut_ptr(), lo);
        _mm256_storeu_ps(his.as_mut_ptr(), hi);
        for (j, out) in lo_out.iter_mut().enumerate() {
            *out = los[j];
            sums.add(los[j], his[j]);
        }
    }
    let Some(delta) = sums.delta(dim) else {
        lut.fill(0);
        return (sums.bias, 0.0);
    };
    let inv = _mm256_set1_ps(1.0 / delta);
    let dims = query.iter().zip(ranges()).zip(mins.iter());
    for (codes, ((&q, (&min, &scale)), &lo)) in lut.chunks_exact_mut(16).zip(dims) {
        let (q, min, scale) = (
            _mm256_set1_ps(q),
            _mm256_set1_ps(min),
            _mm256_set1_ps(scale),
        );
        let lo = _mm256_set1_ps(lo);
        let e0 = plane_entries8(entry, q, min, scale, c0);
        let e1 = plane_entries8(entry, q, min, scale, c1);
        let t0 = round_to_u8x8(_mm256_mul_ps(_mm256_sub_ps(e0, lo), inv));
        let t1 = round_to_u8x8(_mm256_mul_ps(_mm256_sub_ps(e1, lo), inv));
        // u16 lanes [t0 0..4, t1 0..4 | t0 4..8, t1 4..8], put in code
        // order, then narrowed to the 16 bytes of the table.
        let w = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_packus_epi32(t0, t1));
        let bytes = _mm_packus_epi16(_mm256_castsi256_si128(w), _mm256_extracti128_si256::<1>(w));
        // `codes` is a 16-byte chunk of `lut`; the store is unaligned.
        _mm_storeu_si128(codes.as_mut_ptr() as *mut __m128i, bytes);
    }
    (sums.bias, delta)
}
