//! Full-memory Lloyd's k-means over a small in-memory set: one
//! oversized partition's rows when a split re-clusters it locally.
//! Index builds never buffer the collection; they run mini-batch
//! k-means ([`crate::minibatch`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use micronn_linalg::Metric;

use crate::model::Clustering;

/// Training stops early once the mean squared centroid movement per
/// dimension falls below this.
const TOLERANCE: f64 = 1e-4;

/// Configuration for [`train`].
#[derive(Debug, Clone)]
pub struct LloydConfig {
    /// Target vectors per cluster; `k = max(1, n/t)`.
    pub target_cluster_size: usize,
    /// Maximum iterations.
    pub max_iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Distance metric.
    pub metric: Metric,
}

impl Default for LloydConfig {
    fn default() -> Self {
        LloydConfig {
            target_cluster_size: 100,
            max_iterations: 25,
            seed: 0x5EED,
            metric: Metric::L2,
        }
    }
}

/// Trains k-means over the full in-memory matrix `data (n × dim)`.
/// Deterministic given the seed.
pub fn train(data: &[f32], dim: usize, cfg: &LloydConfig) -> Clustering {
    assert!(dim > 0);
    assert_eq!(data.len() % dim, 0);
    let n = data.len() / dim;
    assert!(n > 0, "cannot cluster an empty vector set");
    let k = (n / cfg.target_cluster_size.max(1)).max(1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // k-means++ init: each next centroid is sampled proportionally to
    // its squared distance from the chosen set, avoiding the local
    // minima plain random seeding falls into.
    let mut centroids = Vec::with_capacity(k * dim);
    let first = rng.gen_range(0..n);
    centroids.extend_from_slice(&data[first * dim..(first + 1) * dim]);
    let mut d2: Vec<f64> = data
        .chunks_exact(dim)
        .map(|x| micronn_linalg::l2_sq(x, &centroids[..dim]) as f64)
        .collect();
    while centroids.len() < k * dim {
        let total: f64 = d2.iter().sum();
        let id = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        };
        let new_c = &data[id * dim..(id + 1) * dim];
        centroids.extend_from_slice(new_c);
        for (i, x) in data.chunks_exact(dim).enumerate() {
            let d = micronn_linalg::l2_sq(x, new_c) as f64;
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    let mut clustering = Clustering::new(centroids, dim, cfg.metric);

    let mut assignments = vec![0usize; n];
    let mut sums = vec![0f64; k * dim];
    let mut counts = vec![0usize; k];
    for _iter in 0..cfg.max_iterations {
        // Assignment step (the full-collection pass mini-batch avoids).
        for (i, x) in data.chunks_exact(dim).enumerate() {
            assignments[i] = clustering.nearest(x).0;
        }
        // Update step: arithmetic means.
        sums.iter_mut().for_each(|s| *s = 0.0);
        counts.iter_mut().for_each(|c| *c = 0);
        for (i, x) in data.chunks_exact(dim).enumerate() {
            let c = assignments[i];
            counts[c] += 1;
            for (s, &v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(x) {
                *s += v as f64;
            }
        }
        let mut movement = 0f64;
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: reseed to a random point.
                let id = rng.gen_range(0..n);
                let centroid = clustering.centroid_mut(c);
                centroid.copy_from_slice(&data[id * dim..(id + 1) * dim]);
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            let centroid = clustering.centroid_mut(c);
            for (j, cv) in centroid.iter_mut().enumerate() {
                let new = (sums[c * dim + j] * inv) as f32;
                movement += ((new - *cv) as f64).powi(2);
                *cv = new;
            }
        }
        let mean_movement = movement / (k * dim) as f64;
        if mean_movement < TOLERANCE {
            break;
        }
    }
    clustering
}

/// Assigns every vector to its plain nearest centroid.
pub fn assign_all(data: &[f32], dim: usize, clustering: &Clustering) -> Vec<u32> {
    data.chunks_exact(dim)
        .map(|x| clustering.nearest(x).0 as u32)
        .collect()
}

/// Mean distance of each vector to its assigned centroid (inertia /
/// n): the tests' clustering-quality scalar.
#[cfg(test)]
fn mean_assignment_distance(data: &[f32], dim: usize, clustering: &Clustering) -> f64 {
    let n = data.len() / dim;
    if n == 0 {
        return 0.0;
    }
    let total: f64 = data
        .chunks_exact(dim)
        .map(|x| clustering.nearest(x).1 as f64)
        .sum();
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(centers: &[(f32, f32)], per: usize, spread: f32) -> Vec<f32> {
        let mut state = 777u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let mut data = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per {
                data.push(cx + spread * next());
                data.push(cy + spread * next());
            }
        }
        data
    }

    #[test]
    fn recovers_blob_centers() {
        let centers = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0)];
        let data = blobs(&centers, 300, 1.5);
        let c = train(
            &data,
            2,
            &LloydConfig {
                target_cluster_size: 300,
                ..Default::default()
            },
        );
        assert_eq!(c.k(), 3);
        for &(cx, cy) in &centers {
            let (_, d) = c.nearest(&[cx, cy]);
            assert!(d < 4.0, "missed center ({cx},{cy}): {d}");
        }
        let mad = mean_assignment_distance(&data, 2, &c);
        assert!(mad < 2.0, "tight blobs => small inertia, got {mad}");
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs(&[(0.0, 0.0), (10.0, 10.0)], 100, 1.0);
        let cfg = LloydConfig {
            target_cluster_size: 50,
            ..Default::default()
        };
        assert_eq!(train(&data, 2, &cfg), train(&data, 2, &cfg));
    }

    #[test]
    fn assign_all_matches_nearest() {
        let data = blobs(&[(0.0, 0.0), (20.0, 20.0)], 50, 1.0);
        let c = train(
            &data,
            2,
            &LloydConfig {
                target_cluster_size: 50,
                ..Default::default()
            },
        );
        let a = assign_all(&data, 2, &c);
        assert_eq!(a.len(), 100);
        for (i, x) in data.chunks_exact(2).enumerate() {
            assert_eq!(a[i] as usize, c.nearest(x).0);
        }
    }

    #[test]
    fn more_clusters_reduce_inertia() {
        let data = blobs(&[(0.0, 0.0), (8.0, 0.0), (0.0, 8.0), (8.0, 8.0)], 200, 2.0);
        let coarse = train(
            &data,
            2,
            &LloydConfig {
                target_cluster_size: 800, // k=1
                ..Default::default()
            },
        );
        let fine = train(
            &data,
            2,
            &LloydConfig {
                target_cluster_size: 100, // k=8
                ..Default::default()
            },
        );
        assert!(
            mean_assignment_distance(&data, 2, &fine) < mean_assignment_distance(&data, 2, &coarse)
        );
    }
}
