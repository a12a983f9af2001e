//! Synthetic stand-ins for the paper's evaluation datasets (Table 2).
//!
//! The real corpora (MNIST, NYTimes, SIFT, GLOVE, GIST, DEEPImage and
//! Apple's InternalA) cannot ship with this reproduction, so each is
//! replaced by a seeded Gaussian-mixture generator with the same
//! dimensionality and metric and a configurable row count. IVF
//! behaviour — recall vs probes, partition locality, batch scaling —
//! is driven by dimension, metric and clusterability, all of which the
//! generator reproduces; absolute latencies differ from the paper's
//! hardware anyway.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use micronn_linalg::{normalize, Metric};

/// Description of one benchmark dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Name used in tables and reports (mirrors Table 2).
    pub name: &'static str,
    /// Vector dimensionality (exactly the paper's).
    pub dim: usize,
    /// Number of base vectors.
    pub n_vectors: usize,
    /// Number of query vectors.
    pub n_queries: usize,
    /// Distance metric (exactly the paper's).
    pub metric: Metric,
    /// Latent mixture components (clusterability knob).
    pub clusters: usize,
    /// Within-cluster standard deviation relative to the unit cube.
    pub spread: f32,
    /// Generator seed.
    pub seed: u64,
}

/// A generated dataset: base vectors plus query vectors, row-major.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub spec: DatasetSpec,
    pub vectors: Vec<f32>,
    pub queries: Vec<f32>,
}

impl Dataset {
    /// Base vector `i`.
    pub fn vector(&self, i: usize) -> &[f32] {
        &self.vectors[i * self.spec.dim..(i + 1) * self.spec.dim]
    }

    /// Query vector `i`.
    pub fn query(&self, i: usize) -> &[f32] {
        &self.queries[i * self.spec.dim..(i + 1) * self.spec.dim]
    }

    /// Number of base vectors.
    pub fn len(&self) -> usize {
        self.spec.n_vectors
    }

    /// True when the dataset has no base vectors.
    pub fn is_empty(&self) -> bool {
        self.spec.n_vectors == 0
    }
}

/// The seven datasets of Table 2. `scale` multiplies the paper's row
/// counts (1.0 = paper scale; the bench harness defaults to a laptop
///-friendly fraction). Dimensions, metrics and query counts are the
/// paper's own.
pub fn table2_specs(scale: f64) -> Vec<DatasetSpec> {
    let n = |paper: usize| ((paper as f64 * scale) as usize).max(1000);
    let q = |paper: usize| ((paper as f64 * scale.max(0.02)) as usize).clamp(50, paper);
    vec![
        DatasetSpec {
            name: "MNIST",
            dim: 784,
            n_vectors: n(60_000),
            n_queries: q(10_000),
            metric: Metric::L2,
            clusters: 10,
            spread: 0.18,
            seed: 0xA001,
        },
        DatasetSpec {
            name: "NYTimes",
            dim: 256,
            n_vectors: n(290_000),
            n_queries: q(10_000),
            metric: Metric::Cosine,
            clusters: 60,
            spread: 0.12,
            seed: 0xA002,
        },
        DatasetSpec {
            name: "SIFT",
            dim: 128,
            n_vectors: n(1_000_000),
            n_queries: q(10_000),
            metric: Metric::L2,
            clusters: 120,
            spread: 0.10,
            seed: 0xA003,
        },
        DatasetSpec {
            name: "GLOVE",
            dim: 200,
            n_vectors: n(1_183_514),
            n_queries: q(10_000),
            metric: Metric::L2,
            clusters: 100,
            spread: 0.12,
            seed: 0xA004,
        },
        DatasetSpec {
            name: "GIST",
            dim: 960,
            n_vectors: n(1_000_000),
            n_queries: q(1_000),
            metric: Metric::L2,
            clusters: 80,
            spread: 0.15,
            seed: 0xA005,
        },
        DatasetSpec {
            name: "DEEPImage",
            dim: 96,
            n_vectors: n(10_000_000),
            n_queries: q(10_000),
            metric: Metric::Cosine,
            clusters: 150,
            spread: 0.10,
            seed: 0xA006,
        },
        DatasetSpec {
            name: "InternalA",
            dim: 512,
            n_vectors: n(150_000),
            n_queries: q(1_000),
            metric: Metric::Cosine,
            clusters: 40,
            spread: 0.13,
            seed: 0xA007,
        },
    ]
}

/// The InternalA stand-in at a chosen scale (Figures 8–10 use it).
pub fn internal_a(scale: f64) -> DatasetSpec {
    table2_specs(scale).into_iter().last().expect("seven specs")
}

/// Samples a standard normal via Box–Muller (keeps the dependency set
/// to plain `rand`).
pub fn gaussian(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Generates the dataset for a spec: a Gaussian mixture with
/// `spec.clusters` components; queries are drawn from the same mixture
/// (so query difficulty matches the base distribution, like the real
/// benchmarks' held-out queries). Cosine-metric datasets are
/// L2-normalized, mirroring embedding-model output.
pub fn generate(spec: &DatasetSpec) -> Dataset {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let dim = spec.dim;
    // Mixture centers spread over the unit cube.
    let mut centers = vec![0f32; spec.clusters * dim];
    for c in centers.iter_mut() {
        *c = rng.gen_range(-1.0..1.0);
    }
    let draw = |rng: &mut StdRng, out: &mut Vec<f32>| {
        let c = rng.gen_range(0..spec.clusters);
        let base = &centers[c * dim..(c + 1) * dim];
        let start = out.len();
        for &b in base {
            out.push(b + spec.spread * gaussian(rng));
        }
        if spec.metric == Metric::Cosine {
            normalize(&mut out[start..start + dim]);
        }
    };
    let mut vectors = Vec::with_capacity(spec.n_vectors * dim);
    for _ in 0..spec.n_vectors {
        draw(&mut rng, &mut vectors);
    }
    let mut queries = Vec::with_capacity(spec.n_queries * dim);
    for _ in 0..spec.n_queries {
        draw(&mut rng, &mut queries);
    }
    Dataset {
        spec: spec.clone(),
        vectors,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micronn_linalg::norm;

    #[test]
    fn table2_mirrors_paper_shapes() {
        let specs = table2_specs(1.0);
        assert_eq!(specs.len(), 7);
        let by_name = |n: &str| specs.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("MNIST").dim, 784);
        assert_eq!(by_name("MNIST").n_vectors, 60_000);
        assert_eq!(by_name("SIFT").dim, 128);
        assert_eq!(by_name("SIFT").n_vectors, 1_000_000);
        assert_eq!(by_name("GIST").dim, 960);
        assert_eq!(by_name("GIST").n_queries, 1_000);
        assert_eq!(by_name("DEEPImage").n_vectors, 10_000_000);
        assert_eq!(by_name("NYTimes").metric, Metric::Cosine);
        assert_eq!(by_name("InternalA").dim, 512);
        assert_eq!(by_name("InternalA").n_vectors, 150_000);
    }

    #[test]
    fn scaling_shrinks_rows_not_dims() {
        let full = table2_specs(1.0);
        let small = table2_specs(0.01);
        for (f, s) in full.iter().zip(&small) {
            assert_eq!(f.dim, s.dim);
            assert_eq!(f.metric, s.metric);
            assert!(s.n_vectors <= f.n_vectors);
            assert!(s.n_vectors >= 1000, "floor applies");
        }
    }

    #[test]
    fn generation_is_deterministic_and_shaped() {
        let spec = DatasetSpec {
            name: "test",
            dim: 24,
            n_vectors: 500,
            n_queries: 20,
            metric: Metric::L2,
            clusters: 5,
            spread: 0.1,
            seed: 42,
        };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.vectors, b.vectors);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.vectors.len(), 500 * 24);
        assert_eq!(a.queries.len(), 20 * 24);
        assert_eq!(a.vector(3).len(), 24);
    }

    #[test]
    fn cosine_datasets_are_normalized() {
        let spec = DatasetSpec {
            name: "test",
            dim: 32,
            n_vectors: 100,
            n_queries: 10,
            metric: Metric::Cosine,
            clusters: 4,
            spread: 0.1,
            seed: 7,
        };
        let d = generate(&spec);
        for i in 0..100 {
            let n = norm(d.vector(i));
            assert!((n - 1.0).abs() < 1e-4, "row {i}: |v| = {n}");
        }
    }

    #[test]
    fn mixture_is_clusterable() {
        // Points from the same component are closer to each other than
        // to other components on average — the property IVF exploits.
        let spec = DatasetSpec {
            name: "test",
            dim: 16,
            n_vectors: 400,
            n_queries: 1,
            metric: Metric::L2,
            clusters: 4,
            spread: 0.05,
            seed: 9,
        };
        let d = generate(&spec);
        // Nearest neighbour of each point should be much closer than a
        // random pair.
        let mut nn_sum = 0.0f64;
        let mut rand_sum = 0.0f64;
        for i in 0..50 {
            let q = d.vector(i);
            let mut best = f32::INFINITY;
            for j in 0..d.len() {
                if j == i {
                    continue;
                }
                best = best.min(micronn_linalg::l2_sq(q, d.vector(j)));
            }
            nn_sum += best as f64;
            rand_sum += micronn_linalg::l2_sq(q, d.vector((i * 37 + 101) % d.len())) as f64;
        }
        assert!(nn_sum * 4.0 < rand_sum, "nn {nn_sum} vs random {rand_sum}");
    }

    #[test]
    fn gaussian_moments_sane() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let (mut sum, mut sq) = (0f64, 0f64);
        for _ in 0..n {
            let g = gaussian(&mut rng) as f64;
            sum += g;
            sq += g * g;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
