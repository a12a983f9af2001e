//! The strip `A·Bᵀ` kernel, timed by the ledger.
//!
//! The paper's multi-query optimization computes "distances between
//! queries and the vectors in the partition … via a single matrix
//! multiplication" (§3.4). No query path here runs one: a batch group
//! scan reads each partition once for its whole group, decodes each row
//! once and scores it for every member with the single-query kernels,
//! so a batch answers exactly what single-query search answers.
//! [`gemm_nt`] stays for the ledger's `linalg.gemm_nt_gflops` row,
//! which calls it.

use crate::distance::dot;

/// Strip width: how many A-rows (queries) share one pass over B. Large
/// enough to amortize B traffic, small enough that the strip of
/// accumulators stays in cache.
const STRIP: usize = 8;

/// `out[i * b_rows + j] = ⟨a_i, b_j⟩` for row-major `a (a_rows × dim)`
/// and `b (b_rows × dim)`. `out` must have length `a_rows * b_rows`.
///
/// A strip loop of [`dot`] calls, not a blocked GEMM. No query path
/// calls it; it is kept for the ledger's `linalg.gemm_nt_gflops` row.
pub fn gemm_nt(a: &[f32], a_rows: usize, b: &[f32], b_rows: usize, dim: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), a_rows * dim);
    debug_assert_eq!(b.len(), b_rows * dim);
    debug_assert_eq!(out.len(), a_rows * b_rows);
    let mut ai = 0;
    while ai < a_rows {
        let strip = (a_rows - ai).min(STRIP);
        for (j, brow) in b.chunks_exact(dim.max(1)).enumerate() {
            for q in 0..strip {
                let arow = &a[(ai + q) * dim..(ai + q + 1) * dim];
                out[(ai + q) * b_rows + j] = dot(arow, brow);
            }
        }
        ai += strip;
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

    #[test]
    fn gemm_matches_pairwise_dot() {
        for (q, n, d) in [
            (1, 1, 4),
            (3, 7, 16),
            (8, 20, 33),
            (17, 5, 96),
            (2, 100, 128),
        ] {
            let a: Vec<f32> = (0..q).flat_map(|i| pseudo_vec(i as u64, d)).collect();
            let b: Vec<f32> = (0..n)
                .flat_map(|j| pseudo_vec(1000 + j as u64, d))
                .collect();
            let mut out = vec![0.0; q * n];
            gemm_nt(&a, q, &b, n, d, &mut out);
            for i in 0..q {
                for j in 0..n {
                    let want = dot(&a[i * d..(i + 1) * d], &b[j * d..(j + 1) * d]);
                    assert!(
                        (out[i * n + j] - want).abs() < 1e-3,
                        "({q},{n},{d}) at ({i},{j})"
                    );
                }
            }
        }
    }
}
