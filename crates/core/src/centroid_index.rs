//! Two-level centroid index — the extension the paper sketches in
//! §3.2: "To scale to even larger collections, the centroid table
//! itself could also be indexed."
//!
//! With `k = |X|/t` partitions, `FindNearestCentroids` scans `k`
//! centroids per query — ~100k for DEEPImage-scale data, which §4.3.3
//! observes starting to dominate batch latency. This module clusters
//! the centroids themselves (≈`√k` super-clusters via Lloyd's, cheap:
//! the centroid matrix is small) so probe selection inspects the
//! nearest super-clusters' members only: `O(√k + candidates)` instead
//! of `O(k)` distance computations.
//!
//! Probe quality is preserved by over-expansion: super-clusters are
//! visited nearest-first until the candidate pool reaches a multiple
//! of the requested probe count, then exact centroid distances rank
//! the pool. The index is derived data — rebuilt in memory whenever
//! the cached quantizer reloads — so it needs no persistence and can
//! never drift from the centroid table.

use micronn_cluster::{lloyd, Clustering, LloydConfig};
use micronn_linalg::TopK;

/// Partition count from which the loaded quantizer carries a
/// [`CentroidIndex`]; below it, probe selection scans every centroid.
pub(crate) const THRESHOLD: usize = 2048;
/// Over-expansion factor: candidate pool size relative to `n` probes.
const EXPANSION: usize = 4;
/// Minimum candidate pool regardless of `n`.
const MIN_POOL: usize = 64;

/// A super-clustering over the IVF centroids.
pub(crate) struct CentroidIndex {
    supers: Clustering,
    /// Member centroid indexes per super-cluster.
    members: Vec<Vec<u32>>,
    /// Per-super-cluster radius: the largest metric distance from the
    /// super centroid to any member centroid. Lets probe selection
    /// lower-bound the best distance reachable inside an unvisited
    /// super-cluster.
    radii: Vec<f32>,
}

impl CentroidIndex {
    /// Builds the two-level index over `clustering`'s centroids.
    pub fn build(clustering: &Clustering, seed: u64) -> CentroidIndex {
        let k = clustering.k();
        // Target ≈ √k members per super-cluster → ≈ √k super-clusters.
        let target = (k as f64).sqrt().ceil().max(1.0) as usize;
        let supers = lloyd::train(
            clustering.centroids(),
            clustering.dim(),
            &LloydConfig {
                target_cluster_size: target,
                seed,
                metric: clustering.metric(),
                max_iterations: 15,
            },
        );
        let assignments = lloyd::assign_all(clustering.centroids(), clustering.dim(), &supers);
        let mut members = vec![Vec::new(); supers.k()];
        let mut radii = vec![0f32; supers.k()];
        for (ci, &s) in assignments.iter().enumerate() {
            members[s as usize].push(ci as u32);
            let d = supers
                .metric()
                .distance(supers.centroid(s as usize), clustering.centroid(ci));
            radii[s as usize] = radii[s as usize].max(d);
        }
        CentroidIndex {
            supers,
            members,
            radii,
        }
    }

    /// Number of super-clusters.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn super_count(&self) -> usize {
        self.supers.k()
    }

    /// The `n` nearest centroids to `x`, ascending by distance,
    /// searched through the hierarchy. Returns the same format as
    /// [`Clustering::nearest_n`]; may differ from the exact answer only
    /// when a near centroid hides in a far super-cluster (bounded by
    /// the over-expansion policy).
    pub fn nearest_n(&self, clustering: &Clustering, x: &[f32], n: usize) -> Vec<(usize, f32)> {
        let pool_target = (n * EXPANSION).max(MIN_POOL);
        let super_order = self.supers.nearest_n(x, self.supers.k());
        let mut top = TopK::new(n.min(clustering.k()));
        let mut pooled = 0usize;
        // Metrics without a triangle inequality (raw inner products)
        // admit no sound radius bound: for those, fall back to the
        // plain candidate-count cutoff (approximate, like the original
        // over-expansion policy) instead of degenerating into a full
        // O(k) scan that would defeat the two-level index.
        let prunable = matches!(
            clustering.metric(),
            micronn_linalg::Metric::L2 | micronn_linalg::Metric::Cosine
        );
        for (si, ds) in super_order {
            if pooled >= pool_target && top.len() >= top.k() {
                if !prunable {
                    break;
                }
                // Skip any super-cluster that cannot improve the current
                // result set. This matters when a query is
                // near-equidistant from several super-clusters: the
                // nearest-first order is then arbitrary among ties and a
                // bare candidate-count cutoff would drop half the true
                // neighbours. `continue`, not `break`: the bound depends
                // on each super-cluster's own radius, so it is not
                // monotone in visit order — a later, slightly farther
                // super-cluster with a larger radius may still reach
                // inside the current top-n.
                if !Self::may_contain_closer(
                    clustering.metric(),
                    ds,
                    self.radii[si],
                    top.threshold(),
                ) {
                    continue;
                }
            }
            for &ci in &self.members[si] {
                let d = clustering
                    .metric()
                    .distance(x, clustering.centroid(ci as usize));
                top.push(ci as u64, d);
            }
            pooled += self.members[si].len();
        }
        top.into_sorted()
            .into_iter()
            .map(|nb| (nb.id as usize, nb.distance))
            .collect()
    }

    /// Whether a super-cluster at distance `ds` with member radius `r`
    /// could hold a centroid that improves on `worst`.
    ///
    /// For L2 (squared distances) the triangle inequality gives the
    /// exact lower bound `(√ds − √r)²` on any member's distance. For
    /// cosine the angular triangle inequality gives the equivalent
    /// bound `1 − cos(θ_super − θ_radius)`. Raw inner products bound
    /// nothing (member norms are unconstrained), so dot never prunes.
    ///
    /// The comparison is `<=` (tie-conservative): a member at exactly
    /// `worst` can still displace the current k-th candidate through
    /// the deterministic smaller-id tie-break, so exact f32 ties agree
    /// with the flat index across the super-index threshold.
    fn may_contain_closer(metric: micronn_linalg::Metric, ds: f32, r: f32, worst: f32) -> bool {
        match metric {
            micronn_linalg::Metric::L2 => {
                let gap = ds.max(0.0).sqrt() - r.max(0.0).sqrt();
                if gap <= 0.0 {
                    return true;
                }
                gap * gap <= worst
            }
            micronn_linalg::Metric::Cosine => {
                // Cosine distance 1 − cos θ is monotone in the angle,
                // and angles obey the triangle inequality regardless of
                // vector norms.
                let theta_s = (1.0 - ds).clamp(-1.0, 1.0).acos();
                let theta_r = (1.0 - r).clamp(-1.0, 1.0).acos();
                let lower = 1.0 - (theta_s - theta_r).max(0.0).cos();
                lower <= worst
            }
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micronn_linalg::Metric;

    /// A clustering of `k` centroids laid out as blobs so the two-level
    /// structure is meaningful.
    fn big_clustering(k: usize, dim: usize) -> Clustering {
        let mut state = 7u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let mut data = Vec::with_capacity(k * dim);
        for i in 0..k {
            let blob = (i % 16) as f32 * 8.0;
            for _ in 0..dim {
                data.push(blob + next());
            }
        }
        Clustering::new(data, dim, Metric::L2)
    }

    #[test]
    fn builds_sqrt_scaled_hierarchy() {
        let c = big_clustering(1024, 8);
        let idx = CentroidIndex::build(&c, 1);
        // ≈ √1024 = 32 super-clusters.
        assert!(
            idx.super_count() >= 16 && idx.super_count() <= 64,
            "got {}",
            idx.super_count()
        );
        // Every centroid appears exactly once.
        let total: usize = idx.members.iter().map(Vec::len).sum();
        assert_eq!(total, 1024);
    }

    #[test]
    fn hierarchical_probe_selection_matches_exact_closely() {
        let c = big_clustering(1024, 8);
        let idx = CentroidIndex::build(&c, 1);
        let mut agree = 0usize;
        let mut total = 0usize;
        for qi in 0..20 {
            let q: Vec<f32> = (0..8).map(|j| ((qi * 16 + j) % 16) as f32 * 8.0).collect();
            let exact: std::collections::HashSet<usize> =
                c.nearest_n(&q, 8).into_iter().map(|(i, _)| i).collect();
            let approx = idx.nearest_n(&c, &q, 8);
            assert_eq!(approx.len(), 8);
            // Sorted ascending.
            for w in approx.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
            agree += approx.iter().filter(|(i, _)| exact.contains(i)).count();
            total += 8;
        }
        let overlap = agree as f64 / total as f64;
        assert!(overlap >= 0.9, "probe overlap with exact: {overlap}");
    }

    #[test]
    fn pruning_is_tie_conservative() {
        // A super-cluster whose best reachable distance exactly equals
        // the current worst must NOT be pruned: its member could win
        // the deterministic id tie-break.
        let worst = 4.0;
        // gap² == worst exactly: ds = (2 + 1)² = 9, r = 1 → gap = 2.
        assert!(CentroidIndex::may_contain_closer(
            Metric::L2,
            9.0,
            1.0,
            worst
        ));
        // Strictly farther super-clusters still prune.
        assert!(!CentroidIndex::may_contain_closer(
            Metric::L2,
            16.0,
            0.25,
            worst
        ));
        // Cosine: θ_s − θ_r == θ_worst boundary is kept.
        let worst = 1.0 - (0.5f32).cos();
        let ds = 1.0 - (0.75f32).cos();
        let r = 1.0 - (0.25f32).cos();
        assert!(CentroidIndex::may_contain_closer(
            Metric::Cosine,
            ds,
            r,
            worst
        ));
        // Dot never prunes.
        assert!(CentroidIndex::may_contain_closer(
            Metric::Dot,
            100.0,
            0.0,
            0.0
        ));
    }

    #[test]
    fn small_clustering_degenerates_gracefully() {
        let c = big_clustering(4, 8);
        let idx = CentroidIndex::build(&c, 1);
        let got = idx.nearest_n(&c, &[0.0; 8], 10);
        assert_eq!(got.len(), 4, "clamped to k");
    }

    #[test]
    fn nearest_first_super_visit_finds_own_centroid() {
        let c = big_clustering(256, 8);
        let idx = CentroidIndex::build(&c, 1);
        // Query at an exact centroid: it must be the first result.
        for ci in [0usize, 100, 255] {
            let q = c.centroid(ci).to_vec();
            let got = idx.nearest_n(&c, &q, 4);
            assert_eq!(got[0].0, ci, "centroid {ci} not found first");
            assert_eq!(got[0].1, 0.0);
        }
    }
}
