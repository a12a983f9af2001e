//! The trained quantizer: cluster centroids plus nearest-centroid
//! queries ("FindNearestCentroids" of Algorithm 2).

use micronn_linalg::{kernels, Metric, TopK};

/// A trained clustering: `k` centroids of dimension `dim` under a
/// metric. This is the IVF quantizer persisted to the centroids table.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    centroids: Vec<f32>,
    k: usize,
    dim: usize,
    metric: Metric,
}

impl Clustering {
    /// Builds a clustering from a flat `k × dim` centroid matrix.
    pub fn new(centroids: Vec<f32>, dim: usize, metric: Metric) -> Clustering {
        assert!(dim > 0);
        assert_eq!(centroids.len() % dim, 0);
        let k = centroids.len() / dim;
        Clustering {
            centroids,
            k,
            dim,
            metric,
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The metric centroid distances are measured in.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Centroid `i`.
    #[inline]
    pub fn centroid(&self, i: usize) -> &[f32] {
        &self.centroids[i * self.dim..(i + 1) * self.dim]
    }

    /// The flat centroid matrix.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// Mutable centroid access (used by incremental maintenance to
    /// fold delta vectors into a centroid's running mean, per \[1\]).
    pub fn centroid_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.centroids[i * self.dim..(i + 1) * self.dim]
    }

    /// Nearest centroid to `x` and its distance, the first on ties.
    /// Panics if `k == 0`.
    ///
    /// Under L2 this is the dispatched centroid search with its check
    /// on: an L2 sum only grows as components are added, so a centroid
    /// whose first 16 components already reach the best distance so
    /// far cannot win and is dropped, and the answer is the full loop's
    /// bit for bit. Partial cosine and dot sums can still fall, so
    /// those metrics score every centroid in full.
    pub fn nearest(&self, x: &[f32]) -> (usize, f32) {
        assert!(self.k > 0, "empty clustering");
        debug_assert_eq!(x.len(), self.dim);
        if self.metric == Metric::L2 {
            let a = (kernels().centroid_argmin)(x, &self.centroids, None, true);
            return (a.index, a.score);
        }
        let mut best = (0usize, f32::INFINITY);
        for i in 0..self.k {
            let d = self.metric.distance(x, self.centroid(i));
            if d < best.1 {
                best = (i, d);
            }
        }
        best
    }

    /// The `n` nearest centroids to `x`, ascending by distance: the
    /// probe selection of every ANN search, at every partition count
    /// (Algorithm 2's FindNearestCentroids scans the whole table).
    pub fn nearest_n(&self, x: &[f32], n: usize) -> Vec<(usize, f32)> {
        let mut top = TopK::new(n.min(self.k));
        for i in 0..self.k {
            top.push(i as u64, self.metric.distance(x, self.centroid(i)));
        }
        top.into_sorted()
            .into_iter()
            .map(|nb| (nb.id as usize, nb.distance))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_clustering() -> Clustering {
        // Four centroids on a 2-D grid.
        Clustering::new(
            vec![0.0, 0.0, 10.0, 0.0, 0.0, 10.0, 10.0, 10.0],
            2,
            Metric::L2,
        )
    }

    #[test]
    fn nearest_picks_closest() {
        let c = grid_clustering();
        assert_eq!(c.k(), 4);
        assert_eq!(c.nearest(&[1.0, 1.0]).0, 0);
        assert_eq!(c.nearest(&[9.0, 1.0]).0, 1);
        assert_eq!(c.nearest(&[1.0, 9.0]).0, 2);
        assert_eq!(c.nearest(&[9.0, 9.0]).0, 3);
        let (_, d) = c.nearest(&[0.0, 0.0]);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn nearest_n_is_sorted_and_bounded() {
        let c = grid_clustering();
        let probes = c.nearest_n(&[1.0, 1.0], 3);
        assert_eq!(probes.len(), 3);
        assert_eq!(probes[0].0, 0);
        assert!(probes[0].1 <= probes[1].1 && probes[1].1 <= probes[2].1);
        // Asking for more than k clamps.
        assert_eq!(c.nearest_n(&[0.0, 0.0], 99).len(), 4);
    }

    #[test]
    fn centroid_mut_updates() {
        let mut c = grid_clustering();
        c.centroid_mut(0)[0] = 100.0;
        assert_eq!(c.centroid(0), &[100.0, 0.0]);
        assert_ne!(c.nearest(&[1.0, 1.0]).0, 0, "moved centroid lost its point");
    }

    #[test]
    fn cosine_metric_respected() {
        // Two directions; cosine ignores magnitude.
        let c = Clustering::new(vec![1.0, 0.0, 0.0, 1.0], 2, Metric::Cosine);
        assert_eq!(c.nearest(&[100.0, 1.0]).0, 0);
        assert_eq!(c.nearest(&[0.5, 60.0]).0, 1);
    }
}
