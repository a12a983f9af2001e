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
//!
//! # What a plane costs
//!
//! A scan builds one plane per (query, probed partition) — twice that
//! for cosine — so the build is a per-partition fixed cost, paid before
//! the first block is scored. It is the `sq4_plane` entry of the
//! dispatched [`Kernels`] table: the AVX2 and NEON forms take the
//! NaN-ignoring table extremes of eight (NEON: four) dimensions at once,
//! one lane each, with a vertical min / max over the 16 codes, then
//! evaluate each dimension's 16 entries and round the quantized entries
//! in vector registers too; only the dimension-ordered sums of
//! `PlaneSums` stay scalar. At dim 128 that is ≈ 1.35 µs on AVX2
//! (≈ 1.5 µs when the extremes were taken one dimension at a time,
//! with a horizontal reduction each) against ≈ 7.7 µs for the scalar
//! loop, and it writes into buffers
//! the scorer owns ([`Sq4Scorer::prepare`]), so a scan that re-targets one
//! scorer across its partitions allocates nothing per partition. Every
//! backend is held bit for bit — `lut` bytes, `bias` and `delta` bits,
//! NaN / ±∞ / −0.0 included — to the libm reference in the tests.

use crate::distance::Metric;
use crate::simd::{self, Kernels};
use crate::sq8::Sq8Params;

/// Quantization levels per dimension (nibble codes `0..=15`).
pub const SQ4_LEVELS: u32 = 15;

/// Rows per packed block.
pub const SQ4_BLOCK: usize = 32;

/// SQ4 supports dimensions strictly below this. The LUT step keeps
/// every row sum under `65 535`, with `dim/2` of that budget reserved
/// for rounding (see [`Sq4Scorer::prepare`]); past this bound the
/// reserve would eat half the budget and, at `dim ≥ 65 535`, the u16
/// sums would overflow outright.
pub const SQ4_MAX_DIM: usize = 32_768;

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
/// `(bias, delta)` that maps integer row sums back to floats. A scorer
/// rebuilds its planes in place for every partition it is prepared
/// against, so `lut` is allocated once per scorer, not per partition.
#[derive(Default)]
struct Plane {
    /// 16 u8 entries per dimension (`16·dim` bytes).
    lut: Vec<u8>,
    /// `Σ_d min_c entry[d][c]` — the constant part of every row sum.
    bias: f32,
    /// LUT quantization step; `0` for degenerate planes (every entry
    /// decodes to its per-dimension minimum).
    delta: f32,
}

impl Plane {
    /// Rebuilds this plane for `query` against `params` with the
    /// backend's plane kernel; `mins` is the kernel's per-dimension
    /// scratch.
    fn build(
        &mut self,
        kernels: &Kernels,
        entry: PlaneEntry,
        query: &[f32],
        params: &Sq8Params,
        mins: &mut Vec<f32>,
    ) {
        let dim = params.dim();
        self.lut.resize(dim * 16, 0);
        mins.resize(dim, 0.0);
        (self.bias, self.delta) = (kernels.sq4_plane)(entry, query, params, mins, &mut self.lut);
    }
}

/// What one plane tabulates: the per-dimension term `entry(q_d, x)` of
/// a metric, for the 16 decoded values `x = min_d + scale_d·c` of
/// dimension `d`. Every backend evaluates `x` and the entry with these
/// exact operations (multiply, then add; no FMA), so a plane's floats
/// are the same bits everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneEntry {
    /// `(q − x)²`: L2 residuals.
    Residual,
    /// `q·x`: the Dot and Cosine numerator.
    Product,
    /// `x²`: the Cosine decoded squared norm.
    Square,
}

/// The sequential half of a plane build, shared by every backend: the
/// per-dimension extremes arrive in dimension order and are summed in
/// that order, so `bias` and `delta` cannot depend on how a backend
/// found the extremes (only on their values). Extremes ignore NaN
/// entries, like `if v < lo`; all-NaN tables give `(+∞, −∞)`.
pub(crate) struct PlaneSums {
    pub bias: f32,
    max_range: f32,
    total_range: f32,
    finite: bool,
}

impl PlaneSums {
    pub fn new() -> PlaneSums {
        PlaneSums {
            bias: 0.0,
            max_range: 0.0,
            total_range: 0.0,
            finite: true,
        }
    }

    /// Folds in the next dimension's table minimum `lo` and maximum
    /// `hi`.
    #[inline(always)]
    pub fn add(&mut self, lo: f32, hi: f32) {
        self.finite &= lo.is_finite() && hi.is_finite();
        self.bias += lo;
        let r = hi - lo;
        if r > self.max_range {
            self.max_range = r;
        }
        self.total_range += r;
    }

    /// The LUT step of a `dim`-dimension plane, or `None` when the
    /// plane is degenerate (constant entries, or non-finite query /
    /// range products): then every lookup decodes to the per-dimension
    /// minimum, scores collapse to `bias`, and re-rank still fixes the
    /// final answer.
    ///
    /// `delta ≥ max_range/255` keeps every entry in u8; `delta ≥
    /// total_range/(65535 − dim)` keeps every possible row sum (≤
    /// `Σ_d round(range_d/delta)` ≤ `total/delta + dim/2`) in u16 — so
    /// the integer kernel can never overflow, even on corrupt codes.
    /// That needs `dim < SQ4_MAX_DIM` ([`Sq4Scorer::prepare`] asserts it).
    #[inline]
    pub fn delta(&self, dim: usize) -> Option<f32> {
        debug_assert!(dim < SQ4_MAX_DIM);
        let delta = (self.max_range / 255.0).max(self.total_range / (65_535 - dim) as f32);
        (self.finite && delta.is_finite() && delta > 0.0).then_some(delta)
    }
}

/// `x.round().clamp(0.0, 255.0) as u8` without the libm call: the cast
/// truncates and saturates (NaN and negatives to 0, anything above to
/// 255) and `x − trunc(x)` is exact, so comparing it to one half rounds
/// half away from zero exactly as `round` does. The SIMD plane kernels
/// clamp to `[0, 255]` first and then do the same.
#[inline(always)]
pub(crate) fn round_to_u8(x: f32) -> u8 {
    let t = x as u8;
    t.saturating_add((x - t as f32 >= 0.5) as u8)
}

/// A query prepared against one partition's 4-bit ranges: scores
/// packed 32-row blocks without decoding them. [`Sq4Scorer::prepare`]
/// re-targets it at another partition in place, so a scan builds one
/// scorer per query and reuses its tables across partitions.
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
    /// The plane kernel's per-dimension scratch.
    mins: Vec<f32>,
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
    /// planes and scores regardless — the plane build is held to one
    /// reference bit for bit and the block kernel is integer-exact.
    pub fn with_kernels(
        metric: Metric,
        query: &[f32],
        params: &Sq8Params,
        kernels: &'static Kernels,
    ) -> Sq4Scorer {
        let mut scorer = Sq4Scorer {
            metric,
            dim: 0,
            kernels,
            main: Plane::default(),
            norm2: (metric == Metric::Cosine).then(Plane::default),
            qnorm: 0.0,
            mins: Vec::new(),
        };
        scorer.prepare(query, params);
        scorer
    }

    /// Re-prepares this scorer for `query` against `params` (another
    /// partition's ranges, or another query), rebuilding its planes in
    /// the buffers it already owns: once they have grown to the
    /// dimension, preparing allocates nothing.
    ///
    /// # Panics
    ///
    /// If `params.dim() ≥` [`SQ4_MAX_DIM`]: the u16 row sums of the
    /// block kernel have no headroom left there.
    pub fn prepare(&mut self, query: &[f32], params: &Sq8Params) {
        let dim = params.dim();
        assert!(
            dim < SQ4_MAX_DIM,
            "SQ4 supports dim < {SQ4_MAX_DIM}, got {dim}"
        );
        debug_assert_eq!(query.len(), dim);
        self.dim = dim;
        let main = match self.metric {
            Metric::L2 => PlaneEntry::Residual,
            Metric::Dot | Metric::Cosine => PlaneEntry::Product,
        };
        let (kernels, mins) = (self.kernels, &mut self.mins);
        self.main.build(kernels, main, query, params, mins);
        if let Some(norm2) = &mut self.norm2 {
            norm2.build(kernels, PlaneEntry::Square, query, params, mins);
            self.qnorm = (kernels.dot)(query, query).sqrt();
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
    /// indexed loops — kept as the oracle for every backend's
    /// `sq4_plane`.
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

    /// Which part of `got` differs from `want`, if any.
    fn plane_diff(got: &Plane, want: &Plane) -> Option<&'static str> {
        if got.lut != want.lut {
            Some("lut")
        } else if got.bias.to_bits() != want.bias.to_bits() {
            Some("bias")
        } else if got.delta.to_bits() != want.delta.to_bits() {
            Some("delta")
        } else {
            None
        }
    }

    /// The first way `scorer`'s planes differ from the reference planes
    /// of `query` against `params`, if any.
    fn plane_mismatch(scorer: &Sq4Scorer, query: &[f32], params: &Sq8Params) -> Option<String> {
        let (main, norm2) = reference_planes(scorer.metric, query, params);
        let what = format!("{} {}", scorer.kernels.backend, scorer.metric);
        if let Some(part) = plane_diff(&scorer.main, &main) {
            return Some(format!("{what} main: {part}"));
        }
        match (&scorer.norm2, &norm2) {
            (Some(got), Some(want)) => plane_diff(got, want).map(|p| format!("{what} norm²: {p}")),
            (None, None) => None,
            _ => Some(format!("{what}: norm² plane presence")),
        }
    }

    /// Every backend available in this process: the dispatched one and
    /// the scalar reference (the same table when dispatch is scalar).
    fn backends() -> [&'static Kernels; 2] {
        [simd::kernels(), scalar_kernels()]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn lut_build_is_bit_identical_to_the_reference(
            // Never a multiple of 8 on the fixed picks: a vector
            // backend may not lean on whole registers of dimensions.
            dim in prop_oneof![
                Just(1usize), Just(3), Just(17), Just(130), Just(300), 1usize..=300
            ],
            query in floats(),
            min in floats(),
            scale in floats(),
        ) {
            let params = Sq8Params {
                min: min[..dim].to_vec(),
                scale: scale[..dim].to_vec(),
            };
            let query = &query[..dim];
            // The planes a scorer last built for other ranges — another
            // dimension, other bytes — must not leak into a re-prepare.
            let other = Sq8Params {
                min: scale.clone(),
                scale: min.clone(),
            };
            for kernels in backends() {
                for metric in [Metric::L2, Metric::Dot, Metric::Cosine] {
                    let mut scorer = Sq4Scorer::with_kernels(metric, query, &params, kernels);
                    prop_assert_eq!(plane_mismatch(&scorer, query, &params), None);
                    scorer.prepare(&min, &other);
                    scorer.prepare(query, &params);
                    prop_assert_eq!(plane_mismatch(&scorer, query, &params), None);
                }
            }
        }
    }

    /// `scalar::sq4_plane` with its extremes taken the way
    /// `_mm256_min_ps(lo, v)` / `_mm256_max_ps(hi, v)` take them: the
    /// second operand wins unless the first compares strictly better, so
    /// a NaN entry *replaces* the running extreme. `zero_pick` decides a
    /// tie between zeros of either sign.
    fn mutant_plane(
        entry: PlaneEntry,
        query: &[f32],
        params: &Sq8Params,
        mins: &mut [f32],
        lut: &mut [u8],
        nan_pick: bool,
        zero_pick: fn(f32, f32) -> f32,
    ) -> (f32, f32) {
        let value = |d: usize, c: usize| {
            let (q, x) = (query[d], params.min[d] + params.scale[d] * c as f32);
            match entry {
                PlaneEntry::Residual => (q - x) * (q - x),
                PlaneEntry::Product => q * x,
                PlaneEntry::Square => x * x,
            }
        };
        // The running extreme is kept unless the entry compares
        // strictly better — or, NaN-picking, unless it compares strictly
        // worse.
        type Fold = fn(f32, f32) -> f32;
        let (lo_of, hi_of): (Fold, Fold) = if nan_pick {
            (
                |lo, v| if lo < v { lo } else { v },
                |hi, v| if hi > v { hi } else { v },
            )
        } else {
            (
                |lo, v| if v < lo { v } else { lo },
                |hi, v| if v > hi { v } else { hi },
            )
        };
        let mut sums = PlaneSums::new();
        for (d, lo_out) in mins.iter_mut().enumerate() {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for c in 0..16 {
                let v = value(d, c);
                let zeros = |acc: f32| v == 0.0 && acc == 0.0;
                lo = if zeros(lo) {
                    zero_pick(lo, v)
                } else {
                    lo_of(lo, v)
                };
                hi = if zeros(hi) {
                    zero_pick(hi, v)
                } else {
                    hi_of(hi, v)
                };
            }
            *lo_out = lo;
            sums.add(lo, hi);
        }
        let Some(delta) = sums.delta(query.len()) else {
            lut.fill(0);
            return (sums.bias, 0.0);
        };
        for (d, (codes, &lo)) in lut.chunks_exact_mut(16).zip(mins.iter()).enumerate() {
            for (c, code) in codes.iter_mut().enumerate() {
                *code = round_to_u8((value(d, c) - lo) * (1.0 / delta));
            }
        }
        (sums.bias, delta)
    }

    fn mutant(name: &'static str, sq4_plane: crate::simd::Sq4PlaneFn) -> &'static Kernels {
        Box::leak(Box::new(Kernels {
            backend: name,
            sq4_plane,
            ..*scalar_kernels()
        }))
    }

    /// A product plane whose first table is `[0, 0, NaN × 14]` (`0·x`
    /// with `x` overflowing to ∞ from code 2 on) next to an ordinary
    /// table: the reference skips the NaNs, a NaN-picking port ends
    /// that table on NaN.
    fn nan_table_case() -> ([f32; 2], Sq8Params) {
        let params = Sq8Params {
            min: vec![1.0, 1.0],
            scale: vec![3e38, 0.5],
        };
        ([0.0, 1.0], params)
    }

    #[test]
    fn the_plane_check_catches_a_nan_picking_extreme() {
        let nan_picking = mutant("nan-pick", |e, q, p, m, l| {
            mutant_plane(e, q, p, m, l, true, |kept, _| kept)
        });
        let faithful = mutant("faithful", |e, q, p, m, l| {
            mutant_plane(e, q, p, m, l, false, |kept, _| kept)
        });
        let (query, params) = nan_table_case();
        for metric in [Metric::Dot, Metric::Cosine] {
            for kernels in backends().into_iter().chain([faithful]) {
                let scorer = Sq4Scorer::with_kernels(metric, &query, &params, kernels);
                assert_eq!(plane_mismatch(&scorer, &query, &params), None, "{metric}");
            }
            let scorer = Sq4Scorer::with_kernels(metric, &query, &params, nan_picking);
            let caught = plane_mismatch(&scorer, &query, &params);
            // The NaN-ended table makes the whole plane degenerate.
            assert_eq!(
                caught.as_deref(),
                Some(&*format!("nan-pick {metric} main: lut"))
            );
        }
    }

    /// Which zero a backend keeps as a table's extreme when `−0.0` and
    /// `+0.0` tie (a vector min / max is free to pick either) is not
    /// observable: `bias` accumulates from `+0.0`, so a `−0.0` term
    /// leaves it unchanged, and the extreme otherwise enters only
    /// differences (`hi − lo`, `entry − lo`) whose zero sign rounds to
    /// code 0 either way. So the check above cannot catch a
    /// sign-of-zero drift; this test pins why it need not.
    #[test]
    fn the_sign_of_a_zero_extreme_cannot_reach_the_plane() {
        let negative = mutant("zero-neg", |e, q, p, m, l| {
            mutant_plane(e, q, p, m, l, false, |a, b| {
                if b.is_sign_negative() {
                    b
                } else {
                    a
                }
            })
        });
        let positive = mutant("zero-pos", |e, q, p, m, l| {
            mutant_plane(e, q, p, m, l, false, |a, b| {
                if b.is_sign_positive() {
                    b
                } else {
                    a
                }
            })
        });
        // `q = ±0` against ranges straddling zero: every entry of those
        // tables is a zero of either sign; the last table is ordinary.
        let query = [0.0, -0.0, 0.0, 1.5];
        let params = Sq8Params {
            min: vec![-2.0, -7.0, 3.0, -1.0],
            scale: vec![1.0, 0.5, -1.0, 0.25],
        };
        for kernels in [negative, positive].into_iter().chain(backends()) {
            for metric in [Metric::Dot, Metric::Cosine] {
                let scorer = Sq4Scorer::with_kernels(metric, &query, &params, kernels);
                assert_eq!(plane_mismatch(&scorer, &query, &params), None);
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
