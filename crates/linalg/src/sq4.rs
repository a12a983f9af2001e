//! SQ4 fastscan: 4-bit codes in register-interleaved blocks, scored
//! through quantized lookup tables.
//!
//! Where SQ8 stores one u8 per dimension and scores rows with
//! asymmetric f32×u8 kernels, SQ4 halves the payload again (one nibble
//! per dimension, 8× smaller than f32) and replaces float arithmetic
//! with the PQ-fastscan technique: because a dimension only has 16
//! possible codes, the per-dimension contribution of *any* metric is a
//! 16-entry table computed once per (query, partition) — scanning a
//! row is table lookups and additions. Packing 32 rows into one
//! register-interleaved block lets a single `_mm256_shuffle_epi8` /
//! `vqtbl1q_u8` resolve the lookup for all 32 rows of a dimension at
//! once (see [`crate::simd`]).
//!
//! # Block layout
//!
//! A block holds [`SQ4_BLOCK`] = 32 rows as `16·dim` bytes: for each
//! dimension `d`, bytes `d·16 .. d·16+16` hold the 32 codes of that
//! dimension — byte `j` carries row `j`'s code in its low nibble and
//! row `j+16`'s code in its high nibble. That is exactly the operand
//! shape the in-register shuffle wants, so scans run on stored bytes
//! with no transpose.
//!
//! # Quantized LUTs and exactness
//!
//! f32 table entries would force float accumulation and re-introduce
//! backend-dependent rounding. Instead each plane of tables is
//! quantized to u8 against a per-plane affine `(bias, delta)`:
//! `entry ≈ bias_d + delta·q` with one shared `delta` chosen so that
//! every possible row sum fits in a u16 (`delta ≥ ΣrangeΔ/(65535 −
//! dim)`) and no single entry exceeds 255 (`delta ≥ maxΔ/255`). The
//! kernel then sums u8 lookups into u16 — *integer-exact on every
//! backend* — and the final score is the shared scalar float
//! expression `bias + delta·sum`, so SIMD and scalar dispatch are
//! bit-identical by construction. The price is a bounded LUT
//! quantization error of at most `delta·dim/2` per plane
//! ([`Sq4Scorer::lut_error_bound`]), absorbed by the exact f32 re-rank
//! like the 4-bit quantization error itself.

use crate::distance::Metric;
use crate::simd::{self, Kernels};
use crate::sq8::Sq8Params;

/// Quantization levels per dimension (nibble codes `0..=15`).
pub const SQ4_LEVELS: u32 = 15;

/// Rows per packed block.
pub const SQ4_BLOCK: usize = 32;

/// Packed payload size of one block: 16 bytes per dimension.
pub fn sq4_block_bytes(dim: usize) -> usize {
    dim * 16
}

/// Trains per-dimension affine ranges for 4-bit codes. SQ4 reuses
/// [`Sq8Params`] as its range representation (same catalog blob
/// format); only the level count differs.
pub fn sq4_train(data: &[f32], dim: usize) -> Sq8Params {
    Sq8Params::train_with_levels(data, dim, SQ4_LEVELS)
}

/// Writes `code` (`0..=15`) for row `slot` (`0..32`), dimension `d`,
/// into a packed block buffer.
#[inline]
pub fn set_block_code(packed: &mut [u8], d: usize, slot: usize, code: u8) {
    debug_assert!(slot < SQ4_BLOCK);
    debug_assert!(code <= 15);
    let byte = &mut packed[d * 16 + (slot & 15)];
    if slot < 16 {
        *byte = (*byte & 0xF0) | (code & 0x0F);
    } else {
        *byte = (*byte & 0x0F) | (code << 4);
    }
}

/// Reads the code of row `slot`, dimension `d`, from a packed block.
#[inline]
pub fn get_block_code(packed: &[u8], d: usize, slot: usize) -> u8 {
    debug_assert!(slot < SQ4_BLOCK);
    let b = packed[d * 16 + (slot & 15)];
    if slot < 16 {
        b & 0x0F
    } else {
        b >> 4
    }
}

/// One quantized lookup-table plane: u8 entries plus the affine
/// `(bias, delta)` that maps integer row sums back to floats.
struct Plane {
    /// 16 u8 entries per dimension (`16·dim` bytes).
    lut: Vec<u8>,
    /// `Σ_d min_c entry[d][c]` — the constant part of every row sum.
    bias: f32,
    /// LUT quantization step; `0` for degenerate planes (every entry
    /// decodes to its per-dimension minimum).
    delta: f32,
}

/// `x.round().clamp(0.0, 255.0) as u8` without the libm call: the cast
/// truncates and saturates (NaN and negatives to 0, anything above to
/// 255) and `x − trunc(x)` is exact, so comparing it to one half rounds
/// half away from zero exactly as `round` does.
#[inline]
fn round_to_u8(x: f32) -> u8 {
    let t = x as u8;
    t.saturating_add((x - t as f32 >= 0.5) as u8)
}

/// Quantizes one plane of `dim` 16-entry tables. Built once per (query,
/// probed partition), so it is on the query path: no libm calls, and
/// plain compares for the per-table extremes — like `f32::min`/`max`
/// they never pick a NaN. The tests hold it, bit for bit, to the
/// straightforward `quantize_plane_reference`.
fn quantize_plane(entries: &[f32], dim: usize) -> Plane {
    // u16 accumulation headroom assumes `dim` is far below the sum
    // budget; real vector dims are.
    debug_assert!(dim < 32_768);
    debug_assert_eq!(entries.len(), dim * 16);
    let mut mins = Vec::with_capacity(dim);
    let mut bias = 0.0f32;
    let mut max_range = 0.0f32;
    let mut total_range = 0.0f32;
    let mut finite = true;
    for row in entries.chunks_exact(16) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in row {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        finite &= lo.is_finite() && hi.is_finite();
        mins.push(lo);
        bias += lo;
        let r = hi - lo;
        if r > max_range {
            max_range = r;
        }
        total_range += r;
    }
    if dim == 0 {
        return Plane {
            lut: Vec::new(),
            bias: 0.0,
            delta: 0.0,
        };
    }
    // `delta ≥ max_range/255` keeps every entry in u8;
    // `delta ≥ total_range/(65535 − dim)` keeps every possible row sum
    // (≤ Σ_d round(range_d/delta) ≤ total/delta + dim/2) in u16 — so
    // the integer kernel can never overflow, even on corrupt codes.
    let delta = (max_range / 255.0).max(total_range / (65_535 - dim) as f32);
    if !finite || !delta.is_finite() || delta <= 0.0 {
        // Degenerate plane (constant entries, or non-finite query /
        // range products): all lookups decode to the per-dimension
        // minimum. Scores collapse to `bias`; re-rank still fixes the
        // final answer.
        return Plane {
            lut: vec![0u8; dim * 16],
            bias,
            delta: 0.0,
        };
    }
    let inv = 1.0 / delta;
    let mut lut = vec![0u8; dim * 16];
    let tables = lut.chunks_exact_mut(16).zip(entries.chunks_exact(16));
    for ((codes, row), &lo) in tables.zip(&mins) {
        for (code, &e) in codes.iter_mut().zip(row) {
            *code = round_to_u8((e - lo) * inv);
        }
    }
    Plane { lut, bias, delta }
}

/// The quantized plane of per-dimension tables `entry(q_d, x)` over the
/// 16 decoded values `x = min_d + scale_d·c` of dimension `d`.
fn plane_of(query: &[f32], params: &Sq8Params, entry: impl Fn(f32, f32) -> f32) -> Plane {
    let dim = params.dim();
    let mut entries = vec![0.0f32; dim * 16];
    let dims = query.iter().zip(params.min.iter().zip(&params.scale));
    for (table, (&q, (&min, &scale))) in entries.chunks_exact_mut(16).zip(dims) {
        for (c, e) in table.iter_mut().enumerate() {
            *e = entry(q, min + scale * c as f32);
        }
    }
    quantize_plane(&entries, dim)
}

/// A query prepared against one partition's 4-bit ranges: scores
/// packed 32-row blocks without decoding them.
#[derive(Debug)]
pub struct Sq4Scorer {
    metric: Metric,
    dim: usize,
    kernels: &'static Kernels,
    /// L2: per-dim squared residual tables. Dot/Cosine: per-dim
    /// `q_d·decode(c)` tables.
    main: Plane,
    /// Cosine only: per-dim `decode(c)²` tables (decoded squared
    /// norm).
    norm2: Option<Plane>,
    /// Cosine: `‖q‖`.
    qnorm: f32,
}

impl std::fmt::Debug for Plane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plane")
            .field("bias", &self.bias)
            .field("delta", &self.delta)
            .finish()
    }
}

impl Sq4Scorer {
    /// Prepares `query` against `params` with the runtime-dispatched
    /// kernel backend.
    pub fn new(metric: Metric, query: &[f32], params: &Sq8Params) -> Sq4Scorer {
        Sq4Scorer::with_kernels(metric, query, params, simd::kernels())
    }

    /// [`Sq4Scorer::new`] pinned to an explicit backend (bench /
    /// cross-backend test hook). All backends produce bit-identical
    /// scores regardless — the kernel is integer-exact.
    pub fn with_kernels(
        metric: Metric,
        query: &[f32],
        params: &Sq8Params,
        kernels: &'static Kernels,
    ) -> Sq4Scorer {
        let dim = params.dim();
        debug_assert_eq!(query.len(), dim);
        let main = match metric {
            Metric::L2 => plane_of(query, params, |q, x| (q - x) * (q - x)),
            Metric::Dot | Metric::Cosine => plane_of(query, params, |q, x| q * x),
        };
        let norm2 = (metric == Metric::Cosine).then(|| plane_of(query, params, |_, x| x * x));
        Sq4Scorer {
            metric,
            dim,
            kernels,
            main,
            norm2,
            qnorm: (kernels.dot)(query, query).sqrt(),
        }
    }

    /// Scores one packed 32-row block, writing a score per slot
    /// (lower = more similar, matching [`Metric::distance`]'s
    /// orientation). Dead slots get whatever their stale nibbles sum
    /// to; callers mask them by liveness.
    pub fn score_block(&self, packed: &[u8], out: &mut [f32; SQ4_BLOCK]) {
        debug_assert_eq!(packed.len(), sq4_block_bytes(self.dim));
        let mut sums = [0u16; SQ4_BLOCK];
        (self.kernels.sq4_accumulate)(&self.main.lut, packed, self.dim, &mut sums);
        match self.metric {
            Metric::L2 => {
                for j in 0..SQ4_BLOCK {
                    out[j] = self.main.bias + self.main.delta * sums[j] as f32;
                }
            }
            Metric::Dot => {
                for j in 0..SQ4_BLOCK {
                    out[j] = -(self.main.bias + self.main.delta * sums[j] as f32);
                }
            }
            Metric::Cosine => {
                let plane2 = self.norm2.as_ref().expect("cosine scorer has norm plane");
                let mut sums2 = [0u16; SQ4_BLOCK];
                (self.kernels.sq4_accumulate)(&plane2.lut, packed, self.dim, &mut sums2);
                for j in 0..SQ4_BLOCK {
                    let dotv = self.main.bias + self.main.delta * sums[j] as f32;
                    // Entries of the norm plane are squares, so bias
                    // and delta are non-negative: no sqrt of a
                    // negative here.
                    let n2 = plane2.bias + plane2.delta * sums2[j] as f32;
                    let denom = self.qnorm * n2.sqrt();
                    out[j] = if denom <= f32::EPSILON {
                        1.0
                    } else {
                        1.0 - dotv / denom
                    };
                }
            }
        }
    }

    /// The exact (unquantized-LUT) score for one row of nibble codes —
    /// what [`Sq4Scorer::score_block`] approximates. Equals the metric
    /// distance between the query and the decoded row (up to the usual
    /// f32 evaluation-order differences). Test/verification hook, not
    /// a scan path.
    pub fn reference_score(&self, params: &Sq8Params, query: &[f32], codes: &[u8]) -> f32 {
        debug_assert_eq!(codes.len(), self.dim);
        let mut dec = Vec::with_capacity(self.dim);
        params.decode_into(codes, &mut dec);
        match self.metric {
            Metric::L2 => crate::distance::l2_sq(query, &dec),
            Metric::Dot => -crate::distance::dot(query, &dec),
            Metric::Cosine => {
                let n2 = crate::distance::dot(&dec, &dec);
                let denom = self.qnorm * n2.sqrt();
                if denom <= f32::EPSILON {
                    1.0
                } else {
                    1.0 - crate::distance::dot(query, &dec) / denom
                }
            }
        }
    }

    /// Worst-case LUT quantization error of the two accumulated
    /// planes, `(main, norm²)`: each plane's row sum is within
    /// `delta·dim/2` of its exact value (half a LUT step per
    /// dimension). The second entry is 0 for non-cosine metrics.
    pub fn lut_error_bound(&self) -> (f32, f32) {
        let half = self.dim as f32 * 0.5;
        (
            self.main.delta * half,
            self.norm2.as_ref().map_or(0.0, |p| p.delta * half),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::scalar_kernels;
    use proptest::prelude::*;

    /// The LUT build as first written — libm `round`, `f32::min`/`max`,
    /// indexed loops — kept as the oracle for [`quantize_plane`].
    fn quantize_plane_reference(entries: &[f32], dim: usize) -> Plane {
        debug_assert!(dim < 32_768);
        let mut mins = vec![0.0f32; dim];
        let mut bias = 0.0f32;
        let mut max_range = 0.0f32;
        let mut total_range = 0.0f32;
        let mut finite = true;
        for d in 0..dim {
            let row = &entries[d * 16..d * 16 + 16];
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for &v in row {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            finite &= lo.is_finite() && hi.is_finite();
            mins[d] = lo;
            bias += lo;
            let r = hi - lo;
            max_range = max_range.max(r);
            total_range += r;
        }
        if dim == 0 {
            return Plane {
                lut: Vec::new(),
                bias: 0.0,
                delta: 0.0,
            };
        }
        let delta = (max_range / 255.0).max(total_range / (65_535 - dim) as f32);
        if !finite || !delta.is_finite() || delta <= 0.0 {
            return Plane {
                lut: vec![0u8; dim * 16],
                bias,
                delta: 0.0,
            };
        }
        let inv = 1.0 / delta;
        let mut lut = vec![0u8; dim * 16];
        for d in 0..dim {
            for c in 0..16 {
                let q = ((entries[d * 16 + c] - mins[d]) * inv).round();
                lut[d * 16 + c] = q.clamp(0.0, 255.0) as u8;
            }
        }
        Plane { lut, bias, delta }
    }

    /// The planes [`Sq4Scorer::with_kernels`] used to build, table
    /// loops included: `(main, norm²)`.
    fn reference_planes(
        metric: Metric,
        query: &[f32],
        params: &Sq8Params,
    ) -> (Plane, Option<Plane>) {
        let dim = params.dim();
        let decode = |d: usize, c: usize| params.min[d] + params.scale[d] * c as f32;
        let plane = |entry: &dyn Fn(usize, usize) -> f32| {
            let mut e = vec![0.0f32; dim * 16];
            for d in 0..dim {
                for c in 0..16 {
                    e[d * 16 + c] = entry(d, c);
                }
            }
            quantize_plane_reference(&e, dim)
        };
        let main = match metric {
            Metric::L2 => plane(&|d, c| {
                let r = query[d] - decode(d, c);
                r * r
            }),
            Metric::Dot | Metric::Cosine => plane(&|d, c| query[d] * decode(d, c)),
        };
        let norm2 = (metric == Metric::Cosine).then(|| plane(&|d, c| decode(d, c) * decode(d, c)));
        (main, norm2)
    }

    /// A float from every regime the LUT build must survive: ordinary,
    /// tiny, huge (products overflow), signed zeros, ±inf and NaN.
    fn any_float() -> impl Strategy<Value = f32> {
        prop_oneof![
            8 => -10.0f32..10.0,
            2 => -1e-30f32..1e-30,
            2 => -3e38f32..3e38,
            1 => Just(0.0f32),
            1 => Just(-0.0f32),
            1 => Just(f32::INFINITY),
            1 => Just(f32::NEG_INFINITY),
            1 => Just(f32::NAN),
        ]
    }

    /// Mostly ordinary floats with the occasional hostile one, or one
    /// constant (a degenerate range).
    fn floats() -> impl Strategy<Value = Vec<f32>> {
        prop_oneof![
            4 => proptest::collection::vec(-10.0f32..10.0, 300..=300),
            2 => proptest::collection::vec(prop_oneof![20 => -10.0f32..10.0, 1 => any_float()], 300..=300),
            1 => proptest::collection::vec(any_float(), 300..=300),
            1 => any_float().prop_map(|x| vec![x; 300]),
        ]
    }

    fn assert_same_plane(got: &Plane, want: &Plane, what: &str) {
        assert_eq!(got.lut, want.lut, "{what}: lut");
        assert_eq!(got.bias.to_bits(), want.bias.to_bits(), "{what}: bias");
        assert_eq!(got.delta.to_bits(), want.delta.to_bits(), "{what}: delta");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn lut_build_is_bit_identical_to_the_reference(
            dim in 1usize..=300,
            query in floats(),
            min in floats(),
            scale in floats(),
        ) {
            let params = Sq8Params {
                min: min[..dim].to_vec(),
                scale: scale[..dim].to_vec(),
            };
            for metric in [Metric::L2, Metric::Dot, Metric::Cosine] {
                let scorer = Sq4Scorer::new(metric, &query[..dim], &params);
                let (main, norm2) = reference_planes(metric, &query[..dim], &params);
                assert_same_plane(&scorer.main, &main, &format!("{metric} main"));
                prop_assert_eq!(scorer.norm2.is_some(), norm2.is_some());
                if let (Some(got), Some(want)) = (&scorer.norm2, &norm2) {
                    assert_same_plane(got, want, "cosine norm²");
                }
            }
        }
    }

    #[test]
    fn round_to_u8_is_round_then_clamp() {
        let reference = |x: f32| x.round().clamp(0.0, 255.0) as u8;
        // Every multiple of 1/1024 across the range and a step past it…
        for i in 0..=(257 * 1024) {
            let x = i as f32 / 1024.0;
            assert_eq!(round_to_u8(x), reference(x), "{x}");
        }
        // …the floats either side of each tie, and a sweep of all bit
        // patterns (negatives, huge values, infinities, NaNs).
        for k in 0..=256 {
            let tie = k as f32 + 0.5;
            for x in [
                f32::from_bits(tie.to_bits() - 1),
                tie,
                f32::from_bits(tie.to_bits() + 1),
            ] {
                assert_eq!(round_to_u8(x), reference(x), "{x}");
            }
        }
        for bits in (0..=u32::MAX).step_by(65_521) {
            let x = f32::from_bits(bits);
            assert_eq!(round_to_u8(x), reference(x), "{x} ({bits:#x})");
        }
    }

    fn pseudo_vec(seed: u64, dim: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..dim)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    fn matrix(seed: u64, n: usize, dim: usize) -> Vec<f32> {
        (0..n)
            .flat_map(|i| pseudo_vec(seed + i as u64, dim))
            .collect()
    }

    fn pack_rows(rows: &[Vec<u8>], dim: usize) -> Vec<u8> {
        assert!(rows.len() <= SQ4_BLOCK);
        let mut packed = vec![0u8; sq4_block_bytes(dim)];
        for (slot, codes) in rows.iter().enumerate() {
            for (d, &c) in codes.iter().enumerate() {
                set_block_code(&mut packed, d, slot, c);
            }
        }
        packed
    }

    #[test]
    fn block_codes_round_trip() {
        let dim = 7;
        let mut packed = vec![0u8; sq4_block_bytes(dim)];
        for slot in 0..SQ4_BLOCK {
            for d in 0..dim {
                set_block_code(&mut packed, d, slot, ((slot * 5 + d * 3) % 16) as u8);
            }
        }
        for slot in 0..SQ4_BLOCK {
            for d in 0..dim {
                assert_eq!(
                    get_block_code(&packed, d, slot),
                    ((slot * 5 + d * 3) % 16) as u8,
                    "slot {slot} d {d}"
                );
            }
        }
        // Overwriting a slot must not disturb its nibble neighbor.
        set_block_code(&mut packed, 0, 3, 9);
        set_block_code(&mut packed, 0, 19, 4);
        assert_eq!(get_block_code(&packed, 0, 3), 9);
        assert_eq!(get_block_code(&packed, 0, 19), 4);
    }

    #[test]
    fn scores_match_reference_within_documented_bound() {
        for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
            for dim in [1usize, 5, 24, 96] {
                let data = matrix(7, SQ4_BLOCK, dim);
                let p = sq4_train(&data, dim);
                let enc = p.encoder(SQ4_LEVELS);
                let rows: Vec<Vec<u8>> = data
                    .chunks_exact(dim)
                    .map(|row| {
                        let mut c = Vec::new();
                        enc.encode_row(row, &mut c);
                        c
                    })
                    .collect();
                let packed = pack_rows(&rows, dim);
                let q = pseudo_vec(4242, dim);
                let scorer = Sq4Scorer::new(metric, &q, &p);
                let (err_main, err_norm) = scorer.lut_error_bound();
                let mut out = [0.0f32; SQ4_BLOCK];
                scorer.score_block(&packed, &mut out);
                for (j, codes) in rows.iter().enumerate() {
                    let want = scorer.reference_score(&p, &q, codes);
                    let got = out[j];
                    // Propagate the per-plane sum error through the
                    // final score expression (exact for L2/Dot; for
                    // cosine bound the dot and norm errors separately
                    // against the decoded quantities).
                    let tol = match metric {
                        Metric::L2 | Metric::Dot => err_main + 1e-4 * (1.0 + want.abs()),
                        Metric::Cosine => {
                            let mut dec = Vec::new();
                            p.decode_into(codes, &mut dec);
                            let n2 = crate::distance::dot(&dec, &dec);
                            let qn = crate::distance::norm(&q);
                            let denom = (qn * n2.sqrt()).max(f32::EPSILON);
                            let dotv = crate::distance::dot(&q, &dec).abs();
                            // |Δ(dot/denom)| ≤ err_dot/denom +
                            // |dot|·|Δdenom|/denom² with |Δ√n2| ≤
                            // err_norm/√n2 (for n2 not near zero).
                            let ddenom = qn * (err_norm / n2.sqrt().max(f32::EPSILON));
                            err_main / denom
                                + dotv * ddenom / (denom * denom)
                                + 1e-3 * (1.0 + want.abs())
                        }
                    };
                    assert!(
                        (got - want).abs() <= tol,
                        "{metric} dim={dim} row {j}: {got} vs {want} (tol {tol})"
                    );
                }
            }
        }
    }

    #[test]
    fn dispatched_and_scalar_scores_are_bit_identical() {
        for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
            for dim in [3usize, 17, 64] {
                let data = matrix(31, SQ4_BLOCK, dim);
                let p = sq4_train(&data, dim);
                let enc = p.encoder(SQ4_LEVELS);
                let rows: Vec<Vec<u8>> = data
                    .chunks_exact(dim)
                    .map(|row| {
                        let mut c = Vec::new();
                        enc.encode_row(row, &mut c);
                        c
                    })
                    .collect();
                let packed = pack_rows(&rows, dim);
                let q = pseudo_vec(99, dim);
                let fast = Sq4Scorer::new(metric, &q, &p);
                let slow = Sq4Scorer::with_kernels(metric, &q, &p, scalar_kernels());
                let mut a = [0.0f32; SQ4_BLOCK];
                let mut b = [0.0f32; SQ4_BLOCK];
                fast.score_block(&packed, &mut a);
                slow.score_block(&packed, &mut b);
                for j in 0..SQ4_BLOCK {
                    assert_eq!(a[j].to_bits(), b[j].to_bits(), "{metric} dim={dim} row {j}");
                }
            }
        }
    }

    #[test]
    fn degenerate_ranges_produce_finite_scores() {
        // Constant data → zero scale everywhere → degenerate planes.
        let dim = 6;
        let data: Vec<f32> = vec![2.5; dim * 8];
        let p = sq4_train(&data, dim);
        assert!(p.scale.iter().all(|&s| s == 0.0));
        let packed = vec![0u8; sq4_block_bytes(dim)];
        let q = pseudo_vec(5, dim);
        for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
            let scorer = Sq4Scorer::new(metric, &q, &p);
            let mut out = [0.0f32; SQ4_BLOCK];
            scorer.score_block(&packed, &mut out);
            assert!(out.iter().all(|s| s.is_finite()), "{metric}");
        }
    }

    #[test]
    fn partial_blocks_score_live_slots_correctly() {
        // Only 5 of 32 slots populated; the rest stay zero-nibble.
        let dim = 12;
        let data = matrix(77, 5, dim);
        let p = sq4_train(&data, dim);
        let enc = p.encoder(SQ4_LEVELS);
        let rows: Vec<Vec<u8>> = data
            .chunks_exact(dim)
            .map(|row| {
                let mut c = Vec::new();
                enc.encode_row(row, &mut c);
                c
            })
            .collect();
        let packed = pack_rows(&rows, dim);
        let q = pseudo_vec(13, dim);
        let scorer = Sq4Scorer::new(Metric::L2, &q, &p);
        let (err, _) = scorer.lut_error_bound();
        let mut out = [0.0f32; SQ4_BLOCK];
        scorer.score_block(&packed, &mut out);
        for (j, codes) in rows.iter().enumerate() {
            let want = scorer.reference_score(&p, &q, codes);
            assert!((out[j] - want).abs() <= err + 1e-4 * (1.0 + want.abs()));
        }
    }
}
