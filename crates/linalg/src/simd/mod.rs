//! Runtime-dispatched SIMD kernels.
//!
//! The paper credits much of MicroNN's scan throughput to "SIMD
//! accelerated floating point operations during query processing" (§1).
//! This module supplies that acceleration portably: every hot kernel
//! exists in a scalar reference form ([`scalar`]) and, where the build
//! target supports it, a hand-written `std::arch` form (AVX2 on
//! x86_64, NEON on little-endian aarch64). One [`Kernels`] table of
//! function pointers is selected at first use — via
//! `is_x86_feature_detected!("avx2")` on x86_64, unconditionally on
//! aarch64 (NEON is baseline there) — and cached in a `OnceLock`.
//!
//! # Bit-identity contract
//!
//! The SIMD f32 and SQ8 kernels are **bit-identical** to the scalar
//! reference, not merely close: the scalar loops already accumulate in
//! eight independent lanes (`LANES = 8`), and the vector forms perform
//! the same per-lane multiply-then-add sequence (no FMA contraction),
//! reduce the eight partial sums in the same left-to-right order, and
//! share the same scalar tail loop. Each backend's byte-row kernels
//! (`l2_sq_le`, `dot_le`, `norm_sq_le`) score a stored little-endian
//! row where it lies, at any alignment, and are bit-identical to that
//! backend's `l2_sq` / `dot` on the decoded row: the scalar reference
//! keeps both forms, and a vector backend runs its f32 kernels through
//! the byte-row bodies (the proptest below holds every backend to
//! both, and holds `Metric::distance` on a decoded row — the re-rank
//! oracle's and the centroid scans' arithmetic — to
//! `RowScorer::distance` on its bytes). The
//! SQ4 block kernel is integer-only (u8 lookups summed into u16), so it
//! is exact on every backend by construction. The SQ4 plane build is
//! held to the same standard: every backend evaluates each table entry with the scalar
//! operation sequence, finds the per-table extremes without ever
//! picking a NaN (the only freedom a vector min / max takes is the sign
//! of a zero extreme, which cannot reach the output), sums them in
//! dimension order through the one shared `PlaneSums`, and rounds with
//! the scalar `round_to_u8` rule — so `lut` bytes, `bias` bits and
//! `delta` bits match.
//!
//! The centroid search (`centroid_argmin`, the nearest-centroid step of
//! k-means training and of assigning a vector to a partition) returns
//! the first index of the least `l2_sq(x, cᵢ) · sᵢ` and that score,
//! bit-identical to a plain loop over the scalar `l2_sq`: each vector
//! backend sums a centroid in `l2_sq`'s lanes, reduction and tail. With
//! its check on, it sums the first 16 components and drops the centroid
//! if that partial sum (reduced in the same lane order) times `sᵢ` is
//! already at least the best score so far. That cannot change the
//! answer: every lane only adds squares, which are ≥ 0, and adding a
//! non-negative float never lowers a sum, so the partial sum is at most
//! the final one; multiplying by `sᵢ > 0` keeps that order; and the
//! plain loop takes a centroid only on a strictly smaller score, so one
//! whose final score is ≥ the best could never have been taken. A NaN
//! makes the comparison false, so nothing is dropped on it, and a
//! centroid whose scale is ≤ 0 or NaN is never dropped at all (its
//! score need not grow with the sum). Every backend checks the same partial
//! sums, so even the count of dropped centroids agrees. Partial cosine
//! and dot sums are not monotone, so no kernel drops on them.
//!
//! Consequently query results and trained centroids do not depend on
//! which backend the dispatcher picked — the proptests in
//! `tests/proptest_linalg.rs`, `sq4.rs` and below assert bit equality
//! across backends.
//!
//! # Forcing a backend
//!
//! Set `MICRONN_KERNELS=scalar` in the environment before first use to
//! pin the portable reference path (CI runs the whole suite once per
//! arm; two traced ledger runs, one pinned, compare the `linalg.*`
//! rows). Tests use [`scalar_kernels`] directly for in-process A/B.

pub mod scalar;

#[cfg(all(target_arch = "aarch64", target_endian = "little"))]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

/// The bytes of `v`: on a little-endian target, the stored row `v`
/// encodes to, so the vector backends run their f32 kernels through
/// the byte-row bodies.
#[cfg(any(
    target_arch = "x86_64",
    all(target_arch = "aarch64", target_endian = "little")
))]
#[allow(unsafe_code)]
fn as_le_bytes(v: &[f32]) -> &[u8] {
    // SAFETY: an f32 is 4 initialized bytes, u8 needs no alignment, and
    // the borrow keeps `v` alive and unchanged.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast(), 4 * v.len()) }
}

use crate::sq4::{PlaneEntry, SQ4_BLOCK};
use crate::sq8::Sq8Params;
use std::sync::OnceLock;

/// Signature of the fused SQ8 dot + decoded-norm kernel:
/// `(qs, min, scale, codes) -> (dot, decoded ‖v‖²)`.
pub type DotNormU8Fn = fn(&[f32], &[f32], &[f32], &[u8]) -> (f32, f32);

/// Signature of the SQ4 plane build:
/// `(entry, query, ranges, mins scratch, lut) -> (bias, delta)`.
pub type Sq4PlaneFn = fn(PlaneEntry, &[f32], &Sq8Params, &mut [f32], &mut [u8]) -> (f32, f32);

/// Signature of the centroid search:
/// `(x, centroids, scales, check) -> nearest`.
pub type CentroidArgminFn = fn(&[f32], &[f32], Option<&[f32]>, bool) -> Argmin;

/// The answer of a centroid search ([`Kernels::centroid_argmin`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Argmin {
    /// The first centroid with the least score; 0 when none scored
    /// below +∞ (every score +∞ or NaN).
    pub index: usize,
    /// That centroid's score, +∞ when none won.
    pub score: f32,
    /// Centroids the check dropped before their last component.
    pub dropped: usize,
}

impl Argmin {
    /// No centroid seen yet.
    pub(crate) const NONE: Argmin = Argmin {
        index: 0,
        score: f32::INFINITY,
        dropped: 0,
    };

    /// Takes centroid `i` if it scores strictly less than the best so
    /// far, so the first of equal scores wins and a NaN never does.
    #[inline(always)]
    pub(crate) fn offer(&mut self, i: usize, score: f32) {
        if score < self.score {
            self.index = i;
            self.score = score;
        }
    }
}

/// Dispatch table of hot kernels, selected once per process.
///
/// All entries obey the bit-identity contract described in the
/// [module docs](self): calling any entry through [`kernels`] or
/// [`scalar_kernels`] yields the same bits.
pub struct Kernels {
    /// Name of the backend: `"avx2"`, `"neon"`, or `"scalar"`.
    pub backend: &'static str,
    /// Inner product `Σ aᵢ·bᵢ` (slices must have equal length).
    pub dot: fn(&[f32], &[f32]) -> f32,
    /// Squared Euclidean distance `Σ (aᵢ−bᵢ)²`.
    pub l2_sq: fn(&[f32], &[f32]) -> f32,
    /// `l2_sq(query, row)` of a stored row: `row` holds `query.len()`
    /// little-endian f32s at any alignment (a blob lent from its page)
    /// and is scored where it lies, bit-identical to `l2_sq` on the
    /// decoded row. Panics on any other length.
    pub l2_sq_le: fn(&[f32], &[u8]) -> f32,
    /// `dot(query, row)` of a stored row, likewise.
    pub dot_le: fn(&[f32], &[u8]) -> f32,
    /// `dot(row, row)` of a stored row (the cosine norm), likewise.
    pub norm_sq_le: fn(&[u8]) -> f32,
    /// Asymmetric SQ8 L2: `Σ (qmᵢ − scaleᵢ·cᵢ)²` against u8 codes.
    pub l2_sq_u8: fn(&[f32], &[f32], &[u8]) -> f32,
    /// Asymmetric SQ8 inner product `Σ qsᵢ·cᵢ` against u8 codes.
    pub dot_u8: fn(&[f32], &[u8]) -> f32,
    /// Fused SQ8 dot + decoded squared norm (cosine support).
    pub dot_norm_u8: DotNormU8Fn,
    /// SQ4 fastscan: per-row u16 LUT sums over one packed 32-row block.
    ///
    /// `(lut, packed, dim, out)` — `lut` holds 16 u8 entries per
    /// dimension, `packed` is the register-interleaved nibble block
    /// (`16·dim` bytes), and `out[j]` receives `Σ_d lut[d][code(j,d)]`
    /// for each of the 32 rows. Integer-exact on every backend; LUT
    /// construction (`crate::sq4`) guarantees the sums fit in u16.
    pub sq4_accumulate: fn(&[u8], &[u8], usize, &mut [u16; SQ4_BLOCK]),
    /// SQ4 plane build: one quantized 16-entry table per dimension.
    ///
    /// `(entry, query, params, mins, lut)` — writes the `16·dim` u8
    /// entries of `round((entry(q_d, x_c) − min_d)/delta)` into `lut`
    /// (all zeros for a degenerate plane) and returns `(bias, delta)`;
    /// `mins` is `dim` floats of scratch. See `crate::sq4` for the
    /// quantization and [`scalar::sq4_plane`] for the reference loop.
    pub sq4_plane: Sq4PlaneFn,
    /// Centroid search: the first index of the least `l2_sq(x, cᵢ) · sᵢ`
    /// over a flat `k × x.len()` matrix (`l2_sq` alone when `scales` is
    /// `None`), each sum in `l2_sq`'s lane order. With `check`, a
    /// centroid whose first 16 components (of more than 16) already
    /// score at least the best so far is dropped and counted in
    /// [`Argmin::dropped`]; see the [module docs](self) for why that
    /// never changes the answer. Panics on an empty `x`, a matrix that
    /// is not `k × x.len()`, or not one scale per row.
    pub centroid_argmin: CentroidArgminFn,
}

impl std::fmt::Debug for Kernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernels")
            .field("backend", &self.backend)
            .finish()
    }
}

static SCALAR: Kernels = Kernels {
    backend: "scalar",
    dot: scalar::dot,
    l2_sq: scalar::l2_sq,
    l2_sq_le: scalar::l2_sq_le,
    dot_le: scalar::dot_le,
    norm_sq_le: scalar::norm_sq_le,
    l2_sq_u8: scalar::l2_sq_u8,
    dot_u8: scalar::dot_u8,
    dot_norm_u8: scalar::dot_norm_u8,
    sq4_accumulate: scalar::sq4_accumulate,
    sq4_plane: scalar::sq4_plane,
    centroid_argmin: scalar::centroid_argmin,
};

/// The portable scalar reference table (always available).
pub fn scalar_kernels() -> &'static Kernels {
    &SCALAR
}

/// The process-wide kernel table, detected once on first call.
///
/// Honors `MICRONN_KERNELS=scalar` (checked only on the first call;
/// later changes to the environment have no effect).
pub fn kernels() -> &'static Kernels {
    static SELECTED: OnceLock<&'static Kernels> = OnceLock::new();
    SELECTED.get_or_init(select)
}

fn select() -> &'static Kernels {
    if let Ok(v) = std::env::var("MICRONN_KERNELS") {
        if v.eq_ignore_ascii_case("scalar") {
            return &SCALAR;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return &x86::AVX2;
        }
    }
    #[cfg(all(target_arch = "aarch64", target_endian = "little"))]
    {
        // NEON is mandatory on aarch64; no runtime probe needed.
        return &neon::NEON;
    }
    #[allow(unreachable_code)]
    &SCALAR
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{Metric, RowScorer};
    use proptest::prelude::*;

    fn pseudo_vec(seed: u64, dim: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..dim)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn dispatched_f32_kernels_are_bit_identical_to_scalar() {
        let k = kernels();
        let s = scalar_kernels();
        for dim in [1usize, 3, 7, 8, 9, 16, 31, 64, 127, 768] {
            let a = pseudo_vec(dim as u64 + 1, dim);
            let b = pseudo_vec(dim as u64 + 2, dim);
            assert_eq!(
                (k.dot)(&a, &b).to_bits(),
                (s.dot)(&a, &b).to_bits(),
                "dot dim {dim} backend {}",
                k.backend
            );
            assert_eq!(
                (k.l2_sq)(&a, &b).to_bits(),
                (s.l2_sq)(&a, &b).to_bits(),
                "l2_sq dim {dim} backend {}",
                k.backend
            );
        }
    }

    #[test]
    fn dispatched_sq8_kernels_are_bit_identical_to_scalar() {
        let k = kernels();
        let s = scalar_kernels();
        for dim in [1usize, 5, 8, 13, 32, 96, 129] {
            let qm = pseudo_vec(dim as u64 + 3, dim);
            let sc = pseudo_vec(dim as u64 + 4, dim);
            let mn = pseudo_vec(dim as u64 + 5, dim);
            let codes: Vec<u8> = (0..dim).map(|i| (i * 37 % 256) as u8).collect();
            assert_eq!(
                (k.l2_sq_u8)(&qm, &sc, &codes).to_bits(),
                (s.l2_sq_u8)(&qm, &sc, &codes).to_bits(),
                "l2_sq_u8 dim {dim}"
            );
            assert_eq!(
                (k.dot_u8)(&qm, &codes).to_bits(),
                (s.dot_u8)(&qm, &codes).to_bits(),
                "dot_u8 dim {dim}"
            );
            let (d0, n0) = (k.dot_norm_u8)(&qm, &mn, &sc, &codes);
            let (d1, n1) = (s.dot_norm_u8)(&qm, &mn, &sc, &codes);
            assert_eq!(d0.to_bits(), d1.to_bits(), "dot_norm_u8 dot dim {dim}");
            assert_eq!(n0.to_bits(), n1.to_bits(), "dot_norm_u8 norm dim {dim}");
        }
    }

    #[test]
    fn dispatched_sq4_sums_match_scalar_exactly() {
        let k = kernels();
        let s = scalar_kernels();
        for dim in [1usize, 2, 7, 24, 96, 128] {
            let lut: Vec<u8> = (0..dim * 16).map(|i| (i * 131 % 251) as u8).collect();
            let packed: Vec<u8> = (0..dim * 16).map(|i| (i * 57 % 256) as u8).collect();
            let mut a = [0u16; SQ4_BLOCK];
            let mut b = [0u16; SQ4_BLOCK];
            (k.sq4_accumulate)(&lut, &packed, dim, &mut a);
            (s.sq4_accumulate)(&lut, &packed, dim, &mut b);
            assert_eq!(a, b, "sq4 dim {dim} backend {}", k.backend);
        }
    }

    /// A float from every regime the byte-row kernels must agree on:
    /// ordinary, denormal, huge (squares overflow), signed zeros, ±inf
    /// and NaN of either sign.
    fn any_float() -> impl Strategy<Value = f32> {
        prop_oneof![
            8 => -10.0f32..10.0,
            2 => -1e-38f32..1e-38,
            1 => Just(f32::from_bits(1)),
            2 => -3e38f32..3e38,
            1 => Just(0.0f32),
            1 => Just(-0.0f32),
            1 => Just(f32::INFINITY),
            1 => Just(f32::NEG_INFINITY),
            1 => Just(f32::NAN),
            1 => Just(-f32::NAN),
        ]
    }

    /// Mostly ordinary floats with the occasional hostile one, or all
    /// hostile.
    fn floats() -> impl Strategy<Value = Vec<f32>> {
        prop_oneof![
            4 => proptest::collection::vec(-10.0f32..10.0, 300..=300),
            2 => proptest::collection::vec(prop_oneof![20 => -10.0f32..10.0, 1 => any_float()], 300..=300),
            1 => proptest::collection::vec(any_float(), 300..=300),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn byte_row_kernels_are_bit_identical_to_the_f32_kernels(
            dim in prop_oneof![
                Just(1usize), Just(7), Just(8), Just(9), Just(129), Just(300), 1usize..=300
            ],
            offset in 0usize..4,
            query in floats(),
            row in floats(),
        ) {
            let (query, row) = (&query[..dim], &row[..dim]);
            // The row's bytes start `offset` bytes into the buffer, so
            // every alignment of a lent blob is covered.
            let mut buf = vec![0xA5u8; offset];
            buf.extend(row.iter().flat_map(|x| x.to_le_bytes()));
            let bytes = &buf[offset..];
            // Bit for bit, except a NaN's sign and payload: Rust leaves
            // those unspecified, and the optimizer may commute an add
            // and carry the other NaN through.
            let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan();
            let s = scalar_kernels();
            for k in [kernels(), s] {
                let b = k.backend;
                for (what, got, own, reference) in [
                    ("l2", (k.l2_sq_le)(query, bytes), (k.l2_sq)(query, row), (s.l2_sq)(query, row)),
                    ("dot", (k.dot_le)(query, bytes), (k.dot)(query, row), (s.dot)(query, row)),
                    ("norm", (k.norm_sq_le)(bytes), (k.dot)(row, row), (s.dot)(row, row)),
                ] {
                    prop_assert!(same(got, own), "{} {} {} vs {}", b, what, got, own);
                    prop_assert!(same(got, reference), "{} {} {} vs scalar {}", b, what, got, reference);
                }
            }
            // A scan scores the stored bytes in place; the re-rank
            // oracle and the centroid scans score decoded rows. Both
            // answer the same.
            for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
                let decoded = metric.distance(query, row);
                let in_place = RowScorer::new(metric, query).distance(bytes);
                prop_assert!(same(decoded, in_place), "{} {} vs {}", metric, decoded, in_place);
            }
        }
    }

    /// The search every backend's `centroid_argmin` stands in for:
    /// score every centroid in full with the scalar `l2_sq`, keep the
    /// first strictly least score.
    fn plain_argmin(x: &[f32], centroids: &[f32], scales: Option<&[f32]>) -> (usize, f32) {
        let mut best = (0, f32::INFINITY);
        for (i, c) in centroids.chunks_exact(x.len()).enumerate() {
            let d = (scalar_kernels().l2_sq)(x, c);
            let score = scales.map_or(d, |s| d * s[i]);
            if score < best.1 {
                best = (i, score);
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn centroid_argmin_is_bit_identical_to_the_plain_loop(
            dim in prop_oneof![
                Just(1usize), Just(7), Just(15), Just(16), Just(17), Just(24), Just(129), 1usize..=300
            ],
            k in prop_oneof![Just(1usize), 2usize..=16, 1usize..=300],
            x in floats(),
            pool in proptest::collection::vec(floats(), 3..=3),
            picks in proptest::collection::vec((0usize..8, any::<u32>()), 300..=300),
            scale_kind in 0usize..7,
        ) {
            let x = &x[..dim];
            // Centroid `i` is a window of a random row, a copy of an
            // earlier centroid, `x` itself (an exact tie at 0), `x`
            // with one component moved (ties until that component), or
            // `x` shifted a little everywhere (a close one).
            let mut centroids: Vec<f32> = Vec::with_capacity(k * dim);
            for (i, &(kind, r)) in picks[..k].iter().enumerate() {
                let r = r as usize;
                match kind {
                    0..=2 => {
                        let from = r % (301 - dim);
                        centroids.extend_from_slice(&pool[kind][from..from + dim]);
                    }
                    3 if i > 0 => {
                        let from = (r % i) * dim;
                        centroids.extend_from_within(from..from + dim);
                    }
                    5 => {
                        centroids.extend_from_slice(x);
                        let at = centroids.len() - dim + r % dim;
                        centroids[at] += 1.0 + (r % 7) as f32;
                    }
                    6 => centroids.extend(x.iter().map(|v| v + 0.125 * (r % 5) as f32)),
                    _ => centroids.extend_from_slice(x),
                }
            }
            // Per-centroid scales: none, all 1, all equal, ordinary,
            // some huge, some ≤ 0 (−0.0 included), some NaN or +∞.
            let scales: Vec<f32> = (picks[..k].iter())
                .map(|&(_, r)| {
                    let ordinary = 1.0 + (r % 1000) as f32 / 250.0;
                    match (scale_kind, r % 4) {
                        (1, _) => 1.0,
                        (2, _) => 1.75,
                        (4, 0) => 1e30,
                        (5, 0) => 0.0,
                        (5, 1) => -1.5,
                        (5, 2) => -0.0,
                        (6, 0) => f32::NAN,
                        (6, 1) => f32::INFINITY,
                        _ => ordinary,
                    }
                })
                .collect();
            let scales = (scale_kind > 0).then_some(&scales[..]);
            let (index, score) = plain_argmin(x, &centroids, scales);
            let s = scalar_kernels();
            for check in [false, true] {
                let reference = (s.centroid_argmin)(x, &centroids, scales, check);
                for k in [kernels(), s] {
                    let got = (k.centroid_argmin)(x, &centroids, scales, check);
                    prop_assert_eq!(got.index, index, "{} check {}", k.backend, check);
                    prop_assert_eq!(
                        got.score.to_bits(), score.to_bits(),
                        "{} check {}: {} vs {}", k.backend, check, got.score, score
                    );
                    // Every backend checks the same partial sums.
                    prop_assert_eq!(got.dropped, reference.dropped, "{} dropped", k.backend);
                }
                if !check {
                    prop_assert_eq!(reference.dropped, 0);
                }
            }
        }
    }

    #[test]
    fn the_check_drops_what_cannot_win_and_nothing_else() {
        let dim = 40;
        let x = vec![0.0f32; dim];
        // Centroid 0 is `x`; centroid 1 differs only after the check,
        // so it reaches it tied; centroid 2 is already farther at it.
        let mut centroids = vec![0.0f32; 3 * dim];
        centroids[dim + 30] = 1.0;
        centroids[2 * dim] = 1.0;
        for k in [kernels(), scalar_kernels()] {
            let on = (k.centroid_argmin)(&x, &centroids, None, true);
            assert_eq!(
                (on.index, on.score, on.dropped),
                (0, 0.0, 2),
                "{}",
                k.backend
            );
            let off = (k.centroid_argmin)(&x, &centroids, None, false);
            assert_eq!((off.index, off.dropped), (0, 0), "{}", k.backend);
            // A negative or NaN scale is never dropped: its score falls
            // or stays NaN as the sum grows.
            let scales = [1.0, -1.0, f32::NAN];
            let found = (k.centroid_argmin)(&x, &centroids, Some(&scales), true);
            assert_eq!((found.index, found.dropped), (1, 0), "{}", k.backend);
            assert_eq!(found.score, -1.0);
        }
    }

    #[test]
    #[should_panic(expected = "is not 16 f32s")]
    fn a_short_row_is_refused_before_any_load() {
        let query = [1.0f32; 16];
        (kernels().l2_sq_le)(&query, &[0u8; 60]);
    }

    #[test]
    fn backend_name_is_reported() {
        assert!(["avx2", "neon", "scalar"].contains(&kernels().backend));
    }
}
