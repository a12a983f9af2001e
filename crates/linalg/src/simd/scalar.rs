//! Portable scalar reference kernels.
//!
//! These are the fixed-width multi-accumulator loops the crate shipped
//! with before runtime dispatch existed; LLVM autovectorizes them at
//! the target baseline (SSE2 on x86_64). They remain the semantic
//! ground truth: every SIMD backend must reproduce their results
//! bit-for-bit (see the [module docs](super) for why that holds).

use crate::sq4::{round_to_u8, PlaneEntry, PlaneSums, SQ4_BLOCK};
use crate::sq8::Sq8Params;

use super::Argmin;

/// Accumulator width. Eight lanes matches one AVX2 register of f32
/// (and two NEON registers), which is what makes the vector forms
/// bit-identical: each vector lane replays exactly one scalar lane.
pub(crate) const LANES: usize = 8;

/// Components [`centroid_argmin`] sums before its one check: two
/// chunks of lanes, so every backend checks the same partial sums.
pub(crate) const CHECK_AT: usize = 2 * LANES;

/// Inner product `Σ aᵢ·bᵢ`. Slices must have equal length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len() - a.len() % LANES;
    let mut acc = [0.0f32; LANES];
    for (ca, cb) in a[..n].chunks_exact(LANES).zip(b[..n].chunks_exact(LANES)) {
        for i in 0..LANES {
            acc[i] += ca[i] * cb[i];
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for i in n..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// Squared Euclidean distance `Σ (aᵢ−bᵢ)²`.
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len() - a.len() % LANES;
    let mut acc = [0.0f32; LANES];
    add_sq_lanes(&mut acc, &a[..n], &b[..n]);
    let mut sum: f32 = acc.iter().sum();
    for i in n..a.len() {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Adds `(aᵢ−bᵢ)²` into lane `i % LANES`, over whole chunks of lanes.
#[inline(always)]
fn add_sq_lanes(acc: &mut [f32; LANES], a: &[f32], b: &[f32]) {
    for (ca, cb) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        for i in 0..LANES {
            let d = ca[i] - cb[i];
            acc[i] += d * d;
        }
    }
}

/// The nearest of a flat `k × x.len()` centroid matrix to `x`, scored
/// `l2_sq(x, cᵢ) · sᵢ` (`l2_sq` alone without `scales`), first index on
/// ties. With `check`, a centroid whose first 16 (`CHECK_AT`) components
/// already score at least the best so far is dropped (see the
/// [module docs](super) for why that never changes the answer).
pub fn centroid_argmin(
    x: &[f32],
    centroids: &[f32],
    scales: Option<&[f32]>,
    check: bool,
) -> Argmin {
    let dim = x.len();
    let n = dim - dim % LANES;
    let check = check && dim > CHECK_AT;
    let mut best = Argmin::NONE;
    for (i, c) in centroids_of(x, centroids, scales).enumerate() {
        let s = scales.map_or(1.0, |s| s[i]);
        let mut acc = [0.0f32; LANES];
        let mut from = 0;
        if check {
            add_sq_lanes(&mut acc, &x[..CHECK_AT], &c[..CHECK_AT]);
            let partial: f32 = acc.iter().sum();
            if s > 0.0 && partial * s >= best.score {
                best.dropped += 1;
                continue;
            }
            from = CHECK_AT;
        }
        add_sq_lanes(&mut acc, &x[from..n], &c[from..n]);
        let mut sum: f32 = acc.iter().sum();
        for j in n..dim {
            let d = x[j] - c[j];
            sum += d * d;
        }
        best.offer(i, scales.map_or(sum, |_| sum * s));
    }
    best
}

/// The centroids of `centroids`, each `x.len()` long, after checking
/// the shapes every backend's [`centroid_argmin`] relies on.
pub(crate) fn centroids_of<'a>(
    x: &[f32],
    centroids: &'a [f32],
    scales: Option<&[f32]>,
) -> std::slice::ChunksExact<'a, f32> {
    let dim = x.len();
    assert!(dim > 0, "centroid search of an empty vector");
    assert_eq!(centroids.len() % dim, 0, "centroid matrix is not k × {dim}");
    if let Some(s) = scales {
        assert_eq!(s.len(), centroids.len() / dim, "one scale per centroid");
    }
    centroids.chunks_exact(dim)
}

/// Component `i` of a row of little-endian f32s.
#[inline(always)]
pub(crate) fn le_at(row: &[u8], i: usize) -> f32 {
    f32::from_le_bytes(row[4 * i..4 * i + 4].try_into().expect("4-byte component"))
}

/// Panics unless `row` holds exactly `dim` f32s: the SIMD kernels load
/// it unchecked.
#[inline(always)]
pub(crate) fn assert_row_len(row: &[u8], dim: usize) {
    let len = row.len();
    assert_eq!(len, 4 * dim, "row of {len} bytes is not {dim} f32s");
}

/// [`l2_sq`] of `a` and a row of `a.len()` little-endian f32s at any
/// alignment, bit-identical to [`l2_sq`] on the decoded row.
pub fn l2_sq_le(a: &[f32], row: &[u8]) -> f32 {
    assert_row_len(row, a.len());
    let n = a.len() - a.len() % LANES;
    let mut acc = [0.0f32; LANES];
    for (ca, cb) in a[..n].chunks_exact(LANES).zip(row.chunks_exact(4 * LANES)) {
        for i in 0..LANES {
            let d = ca[i] - le_at(cb, i);
            acc[i] += d * d;
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for (i, &x) in a.iter().enumerate().skip(n) {
        let d = x - le_at(row, i);
        sum += d * d;
    }
    sum
}

/// [`dot`] of `a` and a row of `a.len()` little-endian f32s, likewise.
pub fn dot_le(a: &[f32], row: &[u8]) -> f32 {
    assert_row_len(row, a.len());
    let n = a.len() - a.len() % LANES;
    let mut acc = [0.0f32; LANES];
    for (ca, cb) in a[..n].chunks_exact(LANES).zip(row.chunks_exact(4 * LANES)) {
        for i in 0..LANES {
            acc[i] += ca[i] * le_at(cb, i);
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for (i, &x) in a.iter().enumerate().skip(n) {
        sum += x * le_at(row, i);
    }
    sum
}

/// A row's own squared norm: [`dot`] of the decoded row with itself.
pub fn norm_sq_le(row: &[u8]) -> f32 {
    assert_row_len(row, row.len() / 4);
    let dim = row.len() / 4;
    let n = dim - dim % LANES;
    let mut acc = [0.0f32; LANES];
    for c in row[..4 * n].chunks_exact(4 * LANES) {
        for (i, acc) in acc.iter_mut().enumerate() {
            let x = le_at(c, i);
            *acc += x * x;
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for i in n..dim {
        let x = le_at(row, i);
        sum += x * x;
    }
    sum
}

/// Asymmetric L2 between a prepared query (`qm = query − min`) and one
/// u8 code row: `Σ (qmᵢ − scaleᵢ·cᵢ)²`.
pub fn l2_sq_u8(qm: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(qm.len(), codes.len());
    debug_assert_eq!(scale.len(), codes.len());
    let n = qm.len() - qm.len() % LANES;
    let mut acc = [0.0f32; LANES];
    for ((cq, cs), cc) in qm[..n]
        .chunks_exact(LANES)
        .zip(scale[..n].chunks_exact(LANES))
        .zip(codes[..n].chunks_exact(LANES))
    {
        for i in 0..LANES {
            let d = cq[i] - cs[i] * cc[i] as f32;
            acc[i] += d * d;
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for i in n..qm.len() {
        let d = qm[i] - scale[i] * codes[i] as f32;
        sum += d * d;
    }
    sum
}

/// Asymmetric inner product between a prepared query (`qs = query ·
/// scale`, element-wise) and one u8 code row: `Σ qsᵢ·cᵢ`.
pub fn dot_u8(qs: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(qs.len(), codes.len());
    let n = qs.len() - qs.len() % LANES;
    let mut acc = [0.0f32; LANES];
    for (cq, cc) in qs[..n]
        .chunks_exact(LANES)
        .zip(codes[..n].chunks_exact(LANES))
    {
        for i in 0..LANES {
            acc[i] += cq[i] * cc[i] as f32;
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for i in n..qs.len() {
        sum += qs[i] * codes[i] as f32;
    }
    sum
}

/// Fused asymmetric inner product and decoded squared norm for cosine:
/// returns `(Σ qsᵢ·cᵢ, Σ (minᵢ + scaleᵢ·cᵢ)²)` in one pass.
pub fn dot_norm_u8(qs: &[f32], min: &[f32], scale: &[f32], codes: &[u8]) -> (f32, f32) {
    debug_assert_eq!(qs.len(), codes.len());
    let n = qs.len() - qs.len() % LANES;
    let mut acc_dot = [0.0f32; LANES];
    let mut acc_norm = [0.0f32; LANES];
    for (((cq, cm), cs), cc) in qs[..n]
        .chunks_exact(LANES)
        .zip(min[..n].chunks_exact(LANES))
        .zip(scale[..n].chunks_exact(LANES))
        .zip(codes[..n].chunks_exact(LANES))
    {
        for i in 0..LANES {
            let x = cm[i] + cs[i] * cc[i] as f32;
            acc_dot[i] += cq[i] * cc[i] as f32;
            acc_norm[i] += x * x;
        }
    }
    let mut sum_dot: f32 = acc_dot.iter().sum();
    let mut sum_norm: f32 = acc_norm.iter().sum();
    for i in n..qs.len() {
        let x = min[i] + scale[i] * codes[i] as f32;
        sum_dot += qs[i] * codes[i] as f32;
        sum_norm += x * x;
    }
    (sum_dot, sum_norm)
}

/// SQ4 fastscan reference: per-row u16 LUT sums over one packed block.
///
/// `lut` holds 16 u8 entries per dimension (`16·dim` bytes), `packed`
/// is the register-interleaved block from [`crate::sq4`]: for each
/// dimension `d`, byte `d·16 + j` carries row `j`'s code in its low
/// nibble and row `j+16`'s code in its high nibble. `out[j]` is
/// overwritten with `Σ_d lut[d·16 + code(j, d)]`.
///
/// Plain (non-wrapping) u16 additions: [`crate::sq4`] picks the LUT
/// quantization step so that `Σ_d max_c lut[d][c] ≤ 65535`, which
/// bounds the sum for *any* code row, valid or corrupt.
pub fn sq4_accumulate(lut: &[u8], packed: &[u8], dim: usize, out: &mut [u16; SQ4_BLOCK]) {
    debug_assert_eq!(lut.len(), dim * 16);
    debug_assert_eq!(packed.len(), dim * 16);
    *out = [0u16; SQ4_BLOCK];
    for d in 0..dim {
        let l = &lut[d * 16..d * 16 + 16];
        let p = &packed[d * 16..d * 16 + 16];
        for j in 0..16 {
            let b = p[j];
            out[j] += l[(b & 0x0F) as usize] as u16;
            out[j + 16] += l[(b >> 4) as usize] as u16;
        }
    }
}

/// SQ4 plane build reference: fills `lut` (`16·dim` bytes) with the
/// quantized tables `entry(q_d, min_d + scale_d·c)` and returns the
/// plane's `(bias, delta)`; `mins` (`dim` floats) is scratch. The
/// entries are evaluated twice — once for the per-table extremes, once
/// to quantize against them — rather than stored. Extremes are plain
/// compares, so like `f32::min`/`max` they never pick a NaN.
pub fn sq4_plane(
    entry: PlaneEntry,
    query: &[f32],
    params: &Sq8Params,
    mins: &mut [f32],
    lut: &mut [u8],
) -> (f32, f32) {
    match entry {
        PlaneEntry::Residual => plane(query, params, mins, lut, |q, x| (q - x) * (q - x)),
        PlaneEntry::Product => plane(query, params, mins, lut, |q, x| q * x),
        PlaneEntry::Square => plane(query, params, mins, lut, |_, x| x * x),
    }
}

#[inline(always)]
fn plane(
    query: &[f32],
    params: &Sq8Params,
    mins: &mut [f32],
    lut: &mut [u8],
    entry: impl Fn(f32, f32) -> f32,
) -> (f32, f32) {
    let dim = query.len();
    debug_assert_eq!(params.dim(), dim);
    debug_assert_eq!(mins.len(), dim);
    debug_assert_eq!(lut.len(), dim * 16);
    let ranges = || params.min.iter().zip(&params.scale);
    let mut sums = PlaneSums::new();
    for ((&q, (&min, &scale)), lo_out) in query.iter().zip(ranges()).zip(mins.iter_mut()) {
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for c in 0..16 {
            let v = entry(q, min + scale * c as f32);
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        *lo_out = lo;
        sums.add(lo, hi);
    }
    let Some(delta) = sums.delta(dim) else {
        lut.fill(0);
        return (sums.bias, 0.0);
    };
    let inv = 1.0 / delta;
    let dims = query.iter().zip(ranges()).zip(mins.iter());
    for (codes, ((&q, (&min, &scale)), &lo)) in lut.chunks_exact_mut(16).zip(dims) {
        for (c, code) in codes.iter_mut().enumerate() {
            *code = round_to_u8((entry(q, min + scale * c as f32) - lo) * inv);
        }
    }
    (sums.bias, delta)
}
