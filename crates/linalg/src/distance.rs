//! Distance kernels.
//!
//! The paper leverages "SIMD accelerated floating point operations
//! during query processing" (§1) via a hardware linear-algebra library.
//! The public kernels here dispatch to the runtime-selected backend in
//! [`crate::simd`] — hand-written AVX2/NEON where the CPU supports it,
//! otherwise the scalar reference loops ([`crate::simd::scalar`]) that
//! LLVM autovectorizes at the target baseline. Every backend is
//! bit-identical, so callers never observe which one ran. Batched
//! variants amortize the query vector across a whole partition scan.

/// Distance metric of an index. The paper's datasets use L2 and cosine
/// (Table 2); inner product is included for completeness (MIPS-style
/// recommendation workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Squared Euclidean distance (monotonic in L2; avoids the sqrt).
    #[default]
    L2,
    /// Cosine distance `1 - cos(a, b)`.
    Cosine,
    /// Negative inner product (smaller = more similar).
    Dot,
}

impl Metric {
    /// Distance between two vectors (lower = more similar for all
    /// metrics).
    #[inline]
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::L2 => l2_sq(a, b),
            Metric::Cosine => cosine_distance(a, b),
            Metric::Dot => -dot(a, b),
        }
    }

    /// Distance using precomputed norms: cosine divides by
    /// `norm_a · norm_b`, the other metrics ignore them. With
    /// `norm_a = norm(a)` and `norm_b = norm(b)` it is, bit for bit,
    /// [`Metric::distance`] and [`RowScorer::distance`] of `b`'s bytes;
    /// a batch group scan scores each decoded row with it, computing
    /// each norm once.
    #[inline]
    pub fn distance_with_norms(&self, a: &[f32], b: &[f32], norm_a: f32, norm_b: f32) -> f32 {
        match self {
            Metric::L2 => l2_sq(a, b),
            Metric::Cosine => {
                let denom = norm_a * norm_b;
                if denom <= f32::EPSILON {
                    1.0
                } else {
                    1.0 - dot(a, b) / denom
                }
            }
            Metric::Dot => -dot(a, b),
        }
    }

    /// Whether [`Metric::distance_with_norms`] reads its norms.
    #[inline]
    pub fn needs_norms(&self) -> bool {
        matches!(self, Metric::Cosine)
    }

    /// Parse from the names used in dataset descriptors ("l2",
    /// "cosine", "dot").
    pub fn parse(name: &str) -> Option<Metric> {
        Some(match name.to_ascii_lowercase().as_str() {
            "l2" | "euclidean" => Metric::L2,
            "cosine" | "angular" => Metric::Cosine,
            "dot" | "ip" | "inner" => Metric::Dot,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Metric::L2 => "L2",
            Metric::Cosine => "cosine",
            Metric::Dot => "dot",
        })
    }
}

/// Inner product `⟨a, b⟩` (runtime-dispatched, bit-identical across
/// backends).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    (crate::simd::kernels().dot)(a, b)
}

/// Squared Euclidean distance `‖a − b‖²` (runtime-dispatched,
/// bit-identical across backends).
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    (crate::simd::kernels().l2_sq)(a, b)
}

/// Euclidean norm `‖a‖`.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine distance `1 − cos(a, b)`; degenerate (zero) vectors are at
/// distance 1 from everything.
#[inline]
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    let denom = norm(a) * norm(b);
    if denom <= f32::EPSILON {
        1.0
    } else {
        1.0 - dot(a, b) / denom
    }
}

/// Normalizes `v` to unit length in place (no-op for zero vectors).
pub fn normalize(v: &mut [f32]) {
    let n = norm(v);
    if n > f32::EPSILON {
        let inv = 1.0 / n;
        for x in v {
            *x *= inv;
        }
    }
}

/// Distances from one query to every row of a row-major matrix,
/// appended to `out`. This is the batched kernel of a partition scan:
/// the query stays in registers/L1 across all rows.
pub fn distances_one_to_many(
    metric: Metric,
    query: &[f32],
    rows: &[f32],
    dim: usize,
    out: &mut Vec<f32>,
) {
    debug_assert_eq!(query.len(), dim);
    debug_assert_eq!(rows.len() % dim.max(1), 0);
    // Resolve the dispatch table once for the whole scan instead of
    // per row.
    let k = crate::simd::kernels();
    let qn = if metric.needs_norms() {
        norm(query)
    } else {
        0.0
    };
    for row in rows.chunks_exact(dim) {
        let d = match metric {
            Metric::L2 => (k.l2_sq)(query, row),
            Metric::Dot => -(k.dot)(query, row),
            Metric::Cosine => {
                let rn = (k.dot)(row, row).sqrt();
                let denom = qn * rn;
                if denom <= f32::EPSILON {
                    1.0
                } else {
                    1.0 - (k.dot)(query, row) / denom
                }
            }
        };
        out.push(d);
    }
}

/// One query's distances to stored rows, each read where it lies: a
/// row is `4·dim` little-endian bytes at any alignment (an f32 vector
/// blob lent from its page), scored by the byte-row kernels without
/// being decoded or copied. Bit-identical to [`Metric::distance`] and
/// [`distances_one_to_many`] on the decoded row.
pub struct RowScorer<'q> {
    kernels: &'static crate::simd::Kernels,
    metric: Metric,
    query: &'q [f32],
    /// `‖query‖`, for cosine.
    query_norm: f32,
}

impl<'q> RowScorer<'q> {
    /// A scorer of rows against `query` under `metric`, with the
    /// process's kernel table.
    pub fn new(metric: Metric, query: &'q [f32]) -> RowScorer<'q> {
        let query_norm = if metric.needs_norms() {
            norm(query)
        } else {
            0.0
        };
        RowScorer {
            kernels: crate::simd::kernels(),
            metric,
            query,
            query_norm,
        }
    }

    /// The distance from the query to `row`.
    ///
    /// # Panics
    /// Unless `row` holds exactly `query.len()` f32s; callers check a
    /// stored blob's length first and report a bad one as an error.
    #[inline]
    pub fn distance(&self, row: &[u8]) -> f32 {
        let k = self.kernels;
        match self.metric {
            Metric::L2 => (k.l2_sq_le)(self.query, row),
            Metric::Dot => -(k.dot_le)(self.query, row),
            Metric::Cosine => {
                let denom = self.query_norm * (k.norm_sq_le)(row).sqrt();
                if denom <= f32::EPSILON {
                    1.0
                } else {
                    1.0 - (k.dot_le)(self.query, row) / denom
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_l2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
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

    #[test]
    fn kernels_match_naive_for_odd_dims() {
        for dim in [1, 3, 7, 8, 9, 15, 16, 17, 96, 127, 128, 200, 784] {
            let a = pseudo_vec(1, dim);
            let b = pseudo_vec(2, dim);
            let tol = 1e-3 * dim as f32;
            assert!(
                (dot(&a, &b) - naive_dot(&a, &b)).abs() < tol,
                "dot dim={dim}"
            );
            assert!(
                (l2_sq(&a, &b) - naive_l2(&a, &b)).abs() < tol,
                "l2 dim={dim}"
            );
        }
    }

    #[test]
    fn metric_properties() {
        let a = pseudo_vec(3, 64);
        let b = pseudo_vec(4, 64);
        // L2: symmetric, zero on identity.
        assert_eq!(Metric::L2.distance(&a, &a), 0.0);
        assert!((Metric::L2.distance(&a, &b) - Metric::L2.distance(&b, &a)).abs() < 1e-5);
        // Cosine of identical vectors ~ 0, opposite ~ 2.
        let neg: Vec<f32> = a.iter().map(|x| -x).collect();
        assert!(Metric::Cosine.distance(&a, &a).abs() < 1e-5);
        assert!((Metric::Cosine.distance(&a, &neg) - 2.0).abs() < 1e-5);
        // Scaling invariance of cosine.
        let scaled: Vec<f32> = a.iter().map(|x| 3.5 * x).collect();
        assert!(Metric::Cosine.distance(&a, &scaled).abs() < 1e-4);
        // Dot: more aligned = smaller.
        assert!(Metric::Dot.distance(&a, &a) < Metric::Dot.distance(&a, &neg));
    }

    #[test]
    fn cosine_handles_zero_vectors() {
        let z = vec![0.0f32; 16];
        let a = pseudo_vec(5, 16);
        assert_eq!(Metric::Cosine.distance(&z, &a), 1.0);
        assert_eq!(Metric::Cosine.distance(&z, &z), 1.0);
    }

    #[test]
    fn normalize_unit_length() {
        let mut a = pseudo_vec(6, 50);
        normalize(&mut a);
        assert!((norm(&a) - 1.0).abs() < 1e-5);
        let mut z = vec![0.0f32; 8];
        normalize(&mut z);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn one_to_many_matches_pairwise() {
        let dim = 48;
        let q = pseudo_vec(7, dim);
        let rows: Vec<f32> = (0..10).flat_map(|i| pseudo_vec(100 + i, dim)).collect();
        for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
            let mut out = Vec::new();
            distances_one_to_many(metric, &q, &rows, dim, &mut out);
            assert_eq!(out.len(), 10);
            for (i, row) in rows.chunks_exact(dim).enumerate() {
                assert!(
                    (out[i] - metric.distance(&q, row)).abs() < 1e-4,
                    "{metric} row {i}"
                );
            }
        }
    }

    #[test]
    fn row_scorer_is_bit_identical_to_the_decoded_row() {
        let dim = 37;
        let q = pseudo_vec(11, dim);
        let rows: Vec<f32> = (0..6).flat_map(|i| pseudo_vec(200 + i, dim)).collect();
        let zero = vec![0.0f32; dim];
        for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
            let mut batched = Vec::new();
            distances_one_to_many(metric, &q, &rows, dim, &mut batched);
            let scorer = RowScorer::new(metric, &q);
            for (row, &want) in rows.chunks_exact(dim).zip(&batched) {
                let bytes: Vec<u8> = row.iter().flat_map(|x| x.to_le_bytes()).collect();
                let got = scorer.distance(&bytes);
                assert_eq!(got.to_bits(), want.to_bits(), "{metric}");
                assert_eq!(
                    got.to_bits(),
                    metric.distance(&q, row).to_bits(),
                    "{metric}"
                );
            }
            let zero_bytes = vec![0u8; 4 * dim];
            let want = metric.distance(&q, &zero).to_bits();
            assert_eq!(
                scorer.distance(&zero_bytes).to_bits(),
                want,
                "{metric} zero row"
            );
        }
    }

    #[test]
    fn metric_parse_and_display() {
        assert_eq!(Metric::parse("L2"), Some(Metric::L2));
        assert_eq!(Metric::parse("cosine"), Some(Metric::Cosine));
        assert_eq!(Metric::parse("angular"), Some(Metric::Cosine));
        assert_eq!(Metric::parse("ip"), Some(Metric::Dot));
        assert_eq!(Metric::parse("hamming"), None);
        assert_eq!(Metric::L2.to_string(), "L2");
    }

    #[test]
    fn distance_with_norms_matches_direct() {
        let a = pseudo_vec(8, 32);
        let b = pseudo_vec(9, 32);
        let d1 = Metric::Cosine.distance(&a, &b);
        let d2 = Metric::Cosine.distance_with_norms(&a, &b, norm(&a), norm(&b));
        assert!((d1 - d2).abs() < 1e-5);
    }
}
