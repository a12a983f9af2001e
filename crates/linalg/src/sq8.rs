//! SQ8 scalar quantization: per-dimension affine u8 codes and the
//! asymmetric distance kernels that score them.
//!
//! A vector `x` is encoded against per-dimension ranges `[min_d,
//! min_d + 255·scale_d]` as `c_d = round((x_d − min_d)/scale_d)`,
//! clamped to `0..=255` — 4× fewer bytes than f32. Queries stay in
//! full precision: the *asymmetric* kernels compare an f32 query
//! against u8 codes by folding the affine decode `min_d + scale_d·c_d`
//! into per-dimension coefficients prepared once per (query,
//! partition), so the inner loop over codes is a fixed-width
//! multi-accumulator sum served by the runtime-dispatched kernels in
//! [`crate::simd`] (AVX2/NEON with u8 → f32 widening, or the scalar
//! reference — all backends produce bit-identical results).
//!
//! Quantized distances are approximations; callers keep an enlarged
//! candidate pool and re-rank the survivors against the exact f32
//! vectors.

use crate::distance::Metric;
use crate::simd::{self, Kernels};

/// Quantization levels per dimension (u8 codes).
pub const SQ8_LEVELS: u32 = 255;

/// Per-dimension affine quantization ranges for one partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8Params {
    /// Per-dimension lower bound of the trained range.
    pub min: Vec<f32>,
    /// Per-dimension step `(max − min)/255`; `0` for constant
    /// dimensions (every code decodes to `min`).
    pub scale: Vec<f32>,
}

impl Sq8Params {
    /// Trains ranges over a row-major matrix of vectors (`data.len()`
    /// must be a multiple of `dim`). An empty matrix yields the
    /// degenerate all-zero range.
    pub fn train(data: &[f32], dim: usize) -> Sq8Params {
        Sq8Params::train_with_levels(data, dim, SQ8_LEVELS)
    }

    /// [`Sq8Params::train`] generalized over the number of code levels
    /// (255 for SQ8, 15 for the SQ4 codec in [`crate::sq4`]): a single
    /// fused min/max pass over the data, then one pass over dimensions
    /// to derive steps.
    pub fn train_with_levels(data: &[f32], dim: usize, levels: u32) -> Sq8Params {
        debug_assert_eq!(data.len() % dim.max(1), 0);
        debug_assert!(levels > 0);
        let mut min = vec![f32::INFINITY; dim];
        let mut max = vec![f32::NEG_INFINITY; dim];
        for row in data.chunks_exact(dim) {
            for d in 0..dim {
                min[d] = min[d].min(row[d]);
                max[d] = max[d].max(row[d]);
            }
        }
        let mut scale = vec![0.0f32; dim];
        for d in 0..dim {
            if !min[d].is_finite() || !max[d].is_finite() {
                // Non-finite coordinates (empty input, or a NaN/inf
                // value in some row) admit no range: neutralize the
                // dimension so it cannot poison every row's score —
                // codes decode to 0 here and the exact re-rank pass
                // absorbs the per-row error.
                min[d] = 0.0;
                max[d] = 0.0;
            }
            // Divide before subtracting: `max − min` itself can
            // overflow to infinity for extreme finite ranges.
            let step = max[d] / levels as f32 - min[d] / levels as f32;
            scale[d] = if step > 0.0 && step.is_finite() {
                step
            } else {
                0.0
            };
        }
        Sq8Params { min, scale }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Encodes `v` into codes appended to `out`. Values outside the
    /// trained range clamp to the nearest representable code (the
    /// exact re-rank pass absorbs the resulting error).
    ///
    /// Canonical quantization formula: `((x − min) · (1/scale))
    /// .round()`, clamped — multiply by the reciprocal, exactly like
    /// the bulk [`Sq8Encoder`], so that both paths produce identical
    /// codes (reciprocal-multiply and division round differently in
    /// f32; fsck's bit-exact re-encode check relies on there being
    /// only one formula).
    pub fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        debug_assert_eq!(v.len(), self.dim());
        out.reserve(v.len());
        for ((&x, &min), &scale) in v.iter().zip(&self.min).zip(&self.scale) {
            let c = if scale > 0.0 {
                ((x - min) * (1.0 / scale)).round()
            } else {
                0.0
            };
            out.push(c.clamp(0.0, SQ8_LEVELS as f32) as u8);
        }
    }

    /// Builds a bulk encoder with the per-dimension reciprocals
    /// hoisted out of the row loop (`levels` = 255 for SQ8, 15 for
    /// SQ4). Produces codes bit-identical to
    /// [`Sq8Params::encode_into`] (for `levels = 255`).
    pub fn encoder(&self, levels: u32) -> Sq8Encoder {
        Sq8Encoder {
            min: self.min.clone(),
            inv: self
                .scale
                .iter()
                .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
                .collect(),
            levels: levels as f32,
        }
    }

    /// Decodes codes back to f32 values appended to `out`.
    pub fn decode_into(&self, codes: &[u8], out: &mut Vec<f32>) {
        debug_assert_eq!(codes.len(), self.dim());
        out.reserve(codes.len());
        for (d, &c) in codes.iter().enumerate() {
            out.push(self.min[d] + self.scale[d] * c as f32);
        }
    }

    /// The worst-case per-dimension reconstruction error for in-range
    /// values: half a quantization step.
    pub fn max_abs_error(&self, d: usize) -> f32 {
        self.scale[d] * 0.5
    }
}

/// Bulk row encoder with precomputed per-dimension reciprocals.
///
/// Encoding a partition divides by `scale` once per element in the
/// naive form; flush/rebuild profiles show that division. This form
/// multiplies by a hoisted `1/scale` instead — the *same* reciprocal
/// multiply [`Sq8Params::encode_into`] performs per element, so both
/// produce bit-identical codes. It also reports whether any dimension
/// clamped, which feeds the maintainer's quantizer range-drift
/// detection.
#[derive(Debug, Clone)]
pub struct Sq8Encoder {
    min: Vec<f32>,
    /// `1/scale` per dimension; `0` for constant dimensions.
    inv: Vec<f32>,
    /// Highest representable code (255 for SQ8, 15 for SQ4).
    levels: f32,
}

impl Sq8Encoder {
    /// Encodes one row, appending `dim` codes to `out`. Returns `true`
    /// if any dimension fell outside the trained range and clamped
    /// (out-of-range against a zero-width range counts too).
    pub fn encode_row(&self, v: &[f32], out: &mut Vec<u8>) -> bool {
        debug_assert_eq!(v.len(), self.min.len());
        out.reserve(v.len());
        let mut clamped = false;
        for ((&x, &min), &inv) in v.iter().zip(&self.min).zip(&self.inv) {
            let c = if inv > 0.0 {
                let c = ((x - min) * inv).round();
                clamped |= c < 0.0 || c > self.levels;
                c
            } else {
                clamped |= x != min;
                0.0
            };
            out.push(c.clamp(0.0, self.levels) as u8);
        }
        clamped
    }
}

/// Asymmetric squared-L2 between a prepared query and u8 codes:
/// `Σ_d (qm_d − scale_d·c_d)²` where `qm_d = q_d − min_d`. Folding the
/// partition's `min` into the query keeps the decode out of the inner
/// loop. Dispatches to the runtime-selected backend ([`crate::simd`]);
/// all backends are bit-identical.
#[inline]
pub fn l2_sq_u8(qm: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
    (simd::kernels().l2_sq_u8)(qm, scale, codes)
}

/// Asymmetric inner-product partial `Σ_d qs_d·c_d` where `qs_d =
/// q_d·scale_d`; the caller adds the constant `⟨q, min⟩` term.
/// Runtime-dispatched like [`l2_sq_u8`].
#[inline]
pub fn dot_u8(qs: &[f32], codes: &[u8]) -> f32 {
    (simd::kernels().dot_u8)(qs, codes)
}

/// One pass computing both `Σ_d qs_d·c_d` (the variable part of
/// `⟨q, decode(c)⟩`) and `Σ_d (min_d + scale_d·c_d)²` (the decoded
/// vector's squared norm) — the two ingredients of cosine distance.
/// Runtime-dispatched like [`l2_sq_u8`].
#[inline]
pub fn dot_norm_u8(qs: &[f32], min: &[f32], scale: &[f32], codes: &[u8]) -> (f32, f32) {
    (simd::kernels().dot_norm_u8)(qs, min, scale, codes)
}

/// A query prepared against one partition's quantization ranges:
/// scores raw u8 code rows under any [`Metric`] without decoding them.
#[derive(Debug, Clone)]
pub struct Sq8Scorer {
    metric: Metric,
    /// L2: `q − min`. Dot/Cosine: `q·scale` (element-wise).
    a: Vec<f32>,
    /// L2: `scale`. Cosine: `min`.
    b: Vec<f32>,
    /// Cosine: `scale`.
    c: Vec<f32>,
    /// Dot/Cosine: the constant `⟨q, min⟩` term.
    bias: f32,
    /// Cosine: `‖q‖`.
    qnorm: f32,
    /// Kernel backend scoring this query (dispatched or pinned).
    kernels: &'static Kernels,
}

impl Sq8Scorer {
    /// Prepares `query` against `params` for repeated scoring with the
    /// runtime-dispatched kernel backend.
    pub fn new(metric: Metric, query: &[f32], params: &Sq8Params) -> Sq8Scorer {
        Sq8Scorer::with_kernels(metric, query, params, simd::kernels())
    }

    /// [`Sq8Scorer::new`] pinned to an explicit backend — benches and
    /// the cross-backend proptests use this to compare the dispatched
    /// table against [`crate::simd::scalar_kernels`] in-process.
    pub fn with_kernels(
        metric: Metric,
        query: &[f32],
        params: &Sq8Params,
        kernels: &'static Kernels,
    ) -> Sq8Scorer {
        debug_assert_eq!(query.len(), params.dim());
        match metric {
            Metric::L2 => Sq8Scorer {
                metric,
                a: query.iter().zip(&params.min).map(|(q, m)| q - m).collect(),
                b: params.scale.clone(),
                c: Vec::new(),
                bias: 0.0,
                qnorm: 0.0,
                kernels,
            },
            Metric::Dot => Sq8Scorer {
                metric,
                a: query
                    .iter()
                    .zip(&params.scale)
                    .map(|(q, s)| q * s)
                    .collect(),
                b: Vec::new(),
                c: Vec::new(),
                bias: (kernels.dot)(query, &params.min),
                qnorm: 0.0,
                kernels,
            },
            Metric::Cosine => Sq8Scorer {
                metric,
                a: query
                    .iter()
                    .zip(&params.scale)
                    .map(|(q, s)| q * s)
                    .collect(),
                b: params.min.clone(),
                c: params.scale.clone(),
                bias: (kernels.dot)(query, &params.min),
                qnorm: (kernels.dot)(query, query).sqrt(),
                kernels,
            },
        }
    }

    /// Approximate distance between the prepared query and one code
    /// row (lower = more similar, matching [`Metric::distance`]).
    #[inline]
    pub fn score(&self, codes: &[u8]) -> f32 {
        match self.metric {
            Metric::L2 => (self.kernels.l2_sq_u8)(&self.a, &self.b, codes),
            Metric::Dot => -(self.bias + (self.kernels.dot_u8)(&self.a, codes)),
            Metric::Cosine => {
                let (d, n2) = (self.kernels.dot_norm_u8)(&self.a, &self.b, &self.c, codes);
                let denom = self.qnorm * n2.sqrt();
                if denom <= f32::EPSILON {
                    1.0
                } else {
                    1.0 - (self.bias + d) / denom
                }
            }
        }
    }

    /// Scores a contiguous block of code rows (`codes.len()` must be a
    /// multiple of the dimension), appending one score per row to
    /// `out`. Bit-identical to calling [`Sq8Scorer::score`] row by
    /// row, with the metric dispatch hoisted out of the loop so the row
    /// kernel runs back-to-back over the block. A partition scan scores
    /// each code row with [`Sq8Scorer::score`] where its leaf lends it;
    /// this form times the row kernel alone over rows laid end to end.
    pub fn score_chunk(&self, codes: &[u8], out: &mut Vec<f32>) {
        let dim = self.a.len().max(1);
        debug_assert_eq!(codes.len() % dim, 0);
        out.reserve(codes.len() / dim);
        match self.metric {
            Metric::L2 => out.extend(
                codes
                    .chunks_exact(dim)
                    .map(|row| (self.kernels.l2_sq_u8)(&self.a, &self.b, row)),
            ),
            Metric::Dot => out.extend(
                codes
                    .chunks_exact(dim)
                    .map(|row| -(self.bias + (self.kernels.dot_u8)(&self.a, row))),
            ),
            Metric::Cosine => out.extend(codes.chunks_exact(dim).map(|row| {
                let (d, n2) = (self.kernels.dot_norm_u8)(&self.a, &self.b, &self.c, row);
                let denom = self.qnorm * n2.sqrt();
                if denom <= f32::EPSILON {
                    1.0
                } else {
                    1.0 - (self.bias + d) / denom
                }
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        for dim in [1, 7, 16, 33, 96] {
            let data = matrix(1, 40, dim);
            let p = Sq8Params::train(&data, dim);
            for row in data.chunks_exact(dim) {
                let mut codes = Vec::new();
                p.encode_into(row, &mut codes);
                let mut back = Vec::new();
                p.decode_into(&codes, &mut back);
                for d in 0..dim {
                    let err = (row[d] - back[d]).abs();
                    assert!(
                        err <= p.max_abs_error(d) + 1e-5,
                        "dim={dim} d={d}: err {err} > {}",
                        p.max_abs_error(d)
                    );
                }
            }
        }
    }

    #[test]
    fn constant_dimension_has_zero_scale_and_exact_decode() {
        let data = vec![3.0, 1.0, 3.0, 2.0, 3.0, -1.0]; // dim 2, col 0 constant
        let p = Sq8Params::train(&data, 2);
        assert_eq!(p.scale[0], 0.0);
        let mut codes = Vec::new();
        p.encode_into(&[3.0, 0.5], &mut codes);
        assert_eq!(codes[0], 0);
        let mut back = Vec::new();
        p.decode_into(&codes, &mut back);
        assert_eq!(back[0], 3.0);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let data = matrix(2, 20, 8);
        let p = Sq8Params::train(&data, 8);
        let far: Vec<f32> = (0..8).map(|_| 1e6).collect();
        let mut codes = Vec::new();
        p.encode_into(&far, &mut codes);
        assert!(codes.iter().all(|&c| c == 255));
        let near: Vec<f32> = (0..8).map(|_| -1e6).collect();
        codes.clear();
        p.encode_into(&near, &mut codes);
        assert!(codes.iter().all(|&c| c == 0));
    }

    #[test]
    fn empty_training_set_degenerates() {
        let p = Sq8Params::train(&[], 4);
        assert_eq!(p.min, vec![0.0; 4]);
        assert_eq!(p.scale, vec![0.0; 4]);
    }

    #[test]
    fn non_finite_coordinates_cannot_poison_a_partition() {
        // One bad row must not turn every other row's score into NaN.
        let dim = 4;
        let mut data = matrix(9, 10, dim);
        data[2] = f32::INFINITY; // row 0, dim 2
        data[dim + 1] = f32::NAN; // row 1, dim 1
        let p = Sq8Params::train(&data, dim);
        assert!(p.min.iter().all(|m| m.is_finite()));
        assert!(p.scale.iter().all(|s| s.is_finite()));
        let q = pseudo_vec(1, dim);
        let scorer = Sq8Scorer::new(Metric::L2, &q, &p);
        for row in data.chunks_exact(dim).skip(2) {
            let mut codes = Vec::new();
            p.encode_into(row, &mut codes);
            assert!(scorer.score(&codes).is_finite());
        }
        // Extreme finite ranges do not overflow the step computation.
        let wide = vec![f32::MAX, -1.0, f32::MIN, 1.0]; // dim 2
        let p = Sq8Params::train(&wide, 2);
        assert!(p.scale.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn scorer_approximates_exact_distance() {
        for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
            for dim in [5, 16, 48, 67] {
                let data = matrix(3, 64, dim);
                let p = Sq8Params::train(&data, dim);
                let q = pseudo_vec(999, dim);
                let scorer = Sq8Scorer::new(metric, &q, &p);
                for row in data.chunks_exact(dim) {
                    let mut codes = Vec::new();
                    p.encode_into(row, &mut codes);
                    let mut dec = Vec::new();
                    p.decode_into(&codes, &mut dec);
                    // The scorer must match the decoded-vector distance
                    // (the quantization error itself is absorbed by
                    // re-ranking, not by the kernel).
                    let want = metric.distance(&q, &dec);
                    let got = scorer.score(&codes);
                    let tol = 1e-3 * (1.0 + want.abs());
                    assert!(
                        (got - want).abs() <= tol,
                        "{metric} dim={dim}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn score_chunk_is_bit_identical_to_row_at_a_time() {
        for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
            // Row counts exercise the 4-row interleave and its 1–3 row
            // remainder; dims exercise the LANES tail.
            for (n, dim) in [(1, 7), (3, 16), (4, 5), (9, 48), (64, 67), (130, 96)] {
                let data = matrix(11, n, dim);
                let p = Sq8Params::train(&data, dim);
                let q = pseudo_vec(777, dim);
                let scorer = Sq8Scorer::new(metric, &q, &p);
                let mut block = Vec::with_capacity(n * dim);
                for row in data.chunks_exact(dim) {
                    let mut codes = Vec::new();
                    p.encode_into(row, &mut codes);
                    block.extend_from_slice(&codes);
                }
                let mut chunked = Vec::new();
                scorer.score_chunk(&block, &mut chunked);
                let rowwise: Vec<f32> = block.chunks_exact(dim).map(|c| scorer.score(c)).collect();
                assert_eq!(chunked.len(), n, "{metric} n={n} dim={dim}");
                for (i, (&c, &r)) in chunked.iter().zip(&rowwise).enumerate() {
                    assert_eq!(
                        c.to_bits(),
                        r.to_bits(),
                        "{metric} n={n} dim={dim} row {i}: {c} vs {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn bulk_encoder_is_bit_identical_to_encode_into_and_flags_clamps() {
        for dim in [1, 7, 16, 33, 96] {
            let data = matrix(21, 40, dim);
            let p = Sq8Params::train(&data, dim);
            let enc = p.encoder(SQ8_LEVELS);
            for row in data.chunks_exact(dim) {
                let mut a = Vec::new();
                p.encode_into(row, &mut a);
                let mut b = Vec::new();
                let clamped = enc.encode_row(row, &mut b);
                assert_eq!(a, b, "dim={dim}");
                assert!(!clamped, "in-range row reported as clamped (dim={dim})");
            }
            let far: Vec<f32> = (0..dim).map(|_| 1e7).collect();
            let mut codes = Vec::new();
            assert!(enc.encode_row(&far, &mut codes));
        }
        // Zero-scale dimensions: only values off the constant clamp.
        let p = Sq8Params::train(&[3.0, 3.0, 3.0], 1);
        let enc = p.encoder(SQ8_LEVELS);
        let mut codes = Vec::new();
        assert!(!enc.encode_row(&[3.0], &mut codes));
        assert!(enc.encode_row(&[4.0], &mut codes));
    }

    #[test]
    fn scorer_ranks_like_exact_on_separated_data() {
        // Clustered data: quantized ranking must agree with exact
        // ranking on well-separated points.
        let dim = 16;
        let mut data = Vec::new();
        for i in 0..32 {
            let c = (i % 4) as f32 * 10.0;
            let mut v = pseudo_vec(50 + i, dim);
            for x in &mut v {
                *x += c;
            }
            data.extend_from_slice(&v);
        }
        let p = Sq8Params::train(&data, dim);
        let q: Vec<f32> = vec![10.0; dim];
        let scorer = Sq8Scorer::new(Metric::L2, &q, &p);
        let mut approx: Vec<(usize, f32)> = Vec::new();
        let mut exact: Vec<(usize, f32)> = Vec::new();
        for (i, row) in data.chunks_exact(dim).enumerate() {
            let mut codes = Vec::new();
            p.encode_into(row, &mut codes);
            approx.push((i, scorer.score(&codes)));
            exact.push((i, Metric::L2.distance(&q, row)));
        }
        approx.sort_by(|a, b| a.1.total_cmp(&b.1));
        exact.sort_by(|a, b| a.1.total_cmp(&b.1));
        let a8: std::collections::HashSet<usize> = approx[..8].iter().map(|&(i, _)| i).collect();
        let e8: std::collections::HashSet<usize> = exact[..8].iter().map(|&(i, _)| i).collect();
        assert!(a8.intersection(&e8).count() >= 7, "{a8:?} vs {e8:?}");
    }
}
