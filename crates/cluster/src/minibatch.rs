//! Mini-batch k-means with flexible balance constraints — the paper's
//! Algorithm 1.
//!
//! Two deviations from textbook k-means make the quantizer fit
//! on-device constraints (§3.1):
//!
//! 1. **Mini-batches** (Sculley \[35\]): each iteration samples a small
//!    uniform batch through the streaming [`VectorSource`], so memory
//!    is `O(batch + k·dim)` instead of `O(n·dim)` — this is what
//!    Figures 6b and 8b measure.
//! 2. **Balance penalty** (Liu et al. \[22\]): the `NEAREST` step scales
//!    each centroid's distance by a factor that grows with the
//!    cluster's current size, so "vectors are spread out among nearby
//!    clusters instead of creating a few 'mega' clusters".
//!
//! Centroids update with per-center learning rate `η = 1/v[c]`
//! (Algorithm 1 lines 9–13); the final pass assigns every vector to a
//! centroid, optionally re-applying the balance penalty.
//!
//! Under L2 the `NEAREST` step is the dispatched centroid search
//! (`Kernels::centroid_argmin`), which drops a centroid once the sum
//! of its first 16 squared differences, times its penalty, already
//! reaches the best score so far. An L2 sum only grows as components
//! are added and the penalty is positive, so the dropped centroid
//! could not have won: assignments and centroids are bit-identical to
//! scoring every centroid in full. Partial cosine and dot sums can
//! still fall, so those metrics keep the full loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::collections::HashSet;

use micronn_linalg::{kernels, Metric};

use crate::model::Clustering;
use crate::source::{SourceError, VectorSource};

/// Configuration for [`train`].
#[derive(Debug, Clone)]
pub struct MiniBatchConfig {
    /// Target vectors per cluster `t`; `k = max(1, n/t)`. The paper
    /// defaults to 100 vectors per cluster.
    pub target_cluster_size: usize,
    /// Mini-batch size `s`. Figure 8 sweeps this from 0.04% to 100% of
    /// the collection.
    pub batch_size: usize,
    /// Number of iterations `n`; `0` picks enough iterations to touch
    /// roughly five times the collection size in samples.
    pub iterations: usize,
    /// Balance penalty weight λ; `0` disables balancing.
    pub balance_lambda: f32,
    /// Whether the final full assignment pass also applies the balance
    /// penalty (keeps partition sizes near the target).
    pub balanced_assignment: bool,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Distance metric.
    pub metric: Metric,
}

impl Default for MiniBatchConfig {
    fn default() -> Self {
        MiniBatchConfig {
            target_cluster_size: 100,
            batch_size: 1024,
            iterations: 0,
            balance_lambda: 0.5,
            balanced_assignment: true,
            seed: 0x5EED,
            metric: Metric::L2,
        }
    }
}

/// The balance factor `1 + λ · v[c]/scale` of a centroid holding
/// `count` samples.
#[inline]
fn penalty(lambda: f32, count: u64, scale: f32) -> f32 {
    1.0 + lambda * count as f32 / scale
}

/// `NEAREST(C, v, x)` under cosine or dot: index of the centroid
/// minimizing the size-penalized distance. L2 runs the dispatched
/// centroid search instead (see [`train`]).
fn nearest_penalized(
    clustering: &Clustering,
    counts: &[u64],
    x: &[f32],
    lambda: f32,
    scale: f32,
) -> usize {
    let mut best = 0usize;
    let mut best_score = f32::INFINITY;
    for (i, &count) in counts.iter().enumerate().take(clustering.k()) {
        let d = clustering.metric().distance(x, clustering.centroid(i));
        // Cosine/dot distances can be negative or zero; shift into a
        // positive range so the multiplicative penalty stays monotone.
        let base = d - match clustering.metric() {
            Metric::L2 => 0.0,
            Metric::Cosine => -2.0,
            Metric::Dot => f32::MIN_POSITIVE, // handled by additive path below
        };
        let score = if lambda > 0.0 {
            match clustering.metric() {
                Metric::Dot => d + lambda * (count as f32 / scale),
                _ => base * penalty(lambda, count, scale),
            }
        } else {
            d
        };
        if score < best_score {
            best_score = score;
            best = i;
        }
    }
    best
}

/// Switches the L2 centroid search's partial-sum check on and off, one
/// batch at a time. The check costs a partial sum per centroid and pays
/// only where it drops centroids, which depends on how far apart the
/// clusters lie: it stays on while the last checked batch dropped at
/// least a quarter of its (sample, centroid) pairs, and is tried again
/// every [`REPROBE`](Self::REPROBE)th batch. Answers never depend on it.
#[derive(Debug, Default)]
struct CheckSwitch {
    /// Batches ended so far.
    batch: usize,
    /// Batches that checked.
    checked: usize,
    off: bool,
    pairs: usize,
    dropped: usize,
}

impl CheckSwitch {
    const REPROBE: usize = 8;

    /// Whether the current batch checks.
    fn check(&self) -> bool {
        !self.off || self.batch % Self::REPROBE == 0
    }

    /// Counts one search over `k` centroids that dropped `dropped`.
    fn record(&mut self, dropped: usize, k: usize) {
        self.pairs += k;
        self.dropped += dropped;
    }

    /// Ends the current batch; a batch that checked decides whether the
    /// next one does.
    fn end_batch(&mut self) {
        if self.check() {
            self.checked += 1;
            self.off = 4 * self.dropped < self.pairs;
        }
        self.batch += 1;
        (self.pairs, self.dropped) = (0, 0);
    }
}

/// Rows of [`assign_all`] per batch of its [`CheckSwitch`].
const ASSIGN_SWITCH_ROWS: usize = 256;

/// Whether every component of `x` is finite.
fn finite(x: &[f32]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// Trains a quantizer over `source` (Algorithm 1). Deterministic for a
/// given seed.
///
/// Under L2, lines 7–8 run the centroid search of the module docs. The
/// counts stay frozen for the whole batch, so each centroid's penalty
/// is computed once per batch; whether to check partial sums is
/// decided per batch, from how many centroids the last check dropped.
///
/// A sample with a non-finite component neither seeds nor moves a
/// centroid: it scores NaN or +∞ against every centroid, so it would
/// fall to centroid 0 and write its NaN or ∞ there for good.
pub fn train<S: VectorSource + ?Sized>(
    source: &S,
    cfg: &MiniBatchConfig,
) -> Result<Clustering, SourceError> {
    train_switched(source, cfg, &mut CheckSwitch::default())
}

fn train_switched<S: VectorSource + ?Sized>(
    source: &S,
    cfg: &MiniBatchConfig,
    switch: &mut CheckSwitch,
) -> Result<Clustering, SourceError> {
    let n = source.len();
    let dim = source.dim();
    if n == 0 {
        return Err(SourceError::msg("cannot cluster an empty vector set"));
    }
    let k = (n / cfg.target_cluster_size.max(1)).max(1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Line 2: initialize each centroid with a random x ∈ X (distinct
    // ids where possible).
    let mut init_ids: Vec<usize> = Vec::with_capacity(k);
    let mut seen = HashSet::with_capacity(k);
    while init_ids.len() < k {
        let id = rng.gen_range(0..n);
        if seen.insert(id) || seen.len() >= n {
            init_ids.push(id);
        }
    }
    let mut centroids = Vec::with_capacity(k * dim);
    source.gather(&init_ids, &mut centroids)?;
    reseed_non_finite(source, &mut rng, &mut seen, &init_ids, &mut centroids)?;
    let mut clustering = Clustering::new(centroids, dim, cfg.metric);

    let batch = cfg.batch_size.clamp(1, n);
    let iterations = if cfg.iterations > 0 {
        cfg.iterations
    } else {
        // Enough iterations to sample ~5 × n points overall.
        (5 * n).div_ceil(batch).clamp(10, 400)
    };

    let lambda = cfg.balance_lambda;
    let search = (cfg.metric == Metric::L2).then_some(kernels().centroid_argmin);
    let mut counts = vec![0u64; k];
    let mut penalties: Vec<f32> = Vec::with_capacity(k);
    let mut ids = vec![0usize; batch];
    let mut buf: Vec<f32> = Vec::with_capacity(batch * dim);
    let mut assigned: Vec<Option<usize>> = vec![None; batch];
    for _iter in 0..iterations {
        // Line 6: M ← s examples picked uniformly at random.
        for id in ids.iter_mut() {
            *id = rng.gen_range(0..n);
        }
        source.gather(&ids, &mut buf)?;
        // Lines 7–8: cache the penalized nearest centroid per sample,
        // against the counts as they stood before the batch.
        let total: u64 = counts.iter().sum();
        let scale = (total as f32 / k as f32).max(1.0);
        penalties.clear();
        if lambda > 0.0 {
            penalties.extend(counts.iter().map(|&c| penalty(lambda, c, scale)));
        }
        let scales = (lambda > 0.0).then_some(&penalties[..]);
        let check = switch.check();
        for (slot, x) in buf.chunks_exact(dim).enumerate() {
            assigned[slot] = finite(x).then(|| match search {
                Some(search) => {
                    let found = search(x, clustering.centroids(), scales, check);
                    switch.record(found.dropped, k);
                    found.index
                }
                None => nearest_penalized(&clustering, &counts, x, lambda, scale),
            });
        }
        switch.end_batch();
        // Lines 9–13: per-center learning-rate updates.
        for (slot, x) in buf.chunks_exact(dim).enumerate() {
            let Some(c) = assigned[slot] else { continue };
            counts[c] += 1;
            let eta = 1.0 / counts[c] as f32;
            let centroid = clustering.centroid_mut(c);
            for (cv, xv) in centroid.iter_mut().zip(x) {
                *cv = (1.0 - eta) * *cv + eta * xv;
            }
        }
    }
    Ok(clustering)
}

/// Line 2 for the seeds that drew a vector with a non-finite
/// component: each draws another id (distinct where possible) until it
/// holds a finite vector. Draws nothing when every seed is finite, and
/// leaves the rest as they are once every vector proved non-finite.
fn reseed_non_finite<S: VectorSource + ?Sized>(
    source: &S,
    rng: &mut StdRng,
    seen: &mut HashSet<usize>,
    init_ids: &[usize],
    centroids: &mut [f32],
) -> Result<(), SourceError> {
    let n = source.len();
    let mut bad = HashSet::new();
    let mut row = Vec::new();
    for (seed, &first) in centroids.chunks_exact_mut(source.dim()).zip(init_ids) {
        let mut id = first;
        while !finite(seed) {
            bad.insert(id);
            if bad.len() >= n {
                return Ok(());
            }
            id = loop {
                let id = rng.gen_range(0..n);
                if !bad.contains(&id) && (seen.insert(id) || seen.len() >= n) {
                    break id;
                }
            };
            source.gather(&[id], &mut row)?;
            seed.copy_from_slice(&row);
        }
    }
    Ok(())
}

/// Final assignment pass (Algorithm 1 lines 14–16): streams the whole
/// collection in chunks and maps each vector id to its partition.
/// With `balanced` the running-count penalty of \[22\] is applied so
/// partition sizes stay near `n/k`.
///
/// Under L2 each row runs the centroid search as in [`train`]; only
/// the penalty of the centroid a row joins changes, so only that one
/// is recomputed, and every 256 rows count as one batch in deciding
/// whether to check.
pub fn assign_all<S: VectorSource + ?Sized>(
    source: &S,
    clustering: &Clustering,
    lambda: f32,
    chunk: usize,
) -> Result<Vec<u32>, SourceError> {
    assign_all_switched(
        source,
        clustering,
        lambda,
        chunk,
        &mut CheckSwitch::default(),
    )
}

fn assign_all_switched<S: VectorSource + ?Sized>(
    source: &S,
    clustering: &Clustering,
    lambda: f32,
    chunk: usize,
    switch: &mut CheckSwitch,
) -> Result<Vec<u32>, SourceError> {
    let n = source.len();
    let dim = source.dim();
    let k = clustering.k();
    let mut out = Vec::with_capacity(n);
    let mut counts = vec![0u64; k];
    let target = (n as f32 / k as f32).max(1.0);
    let balanced = lambda > 0.0;
    let mut penalties = vec![penalty(lambda, 0, target); if balanced { k } else { 0 }];
    let search = (clustering.metric() == Metric::L2).then_some(kernels().centroid_argmin);
    let chunk = chunk.max(1);
    let mut buf: Vec<f32> = Vec::with_capacity(chunk * dim);
    let mut ids: Vec<usize> = Vec::with_capacity(chunk);
    let mut start = 0usize;
    while start < n {
        let end = (start + chunk).min(n);
        ids.clear();
        ids.extend(start..end);
        source.gather(&ids, &mut buf)?;
        for (row, x) in (start..).zip(buf.chunks_exact(dim)) {
            let c = match search {
                Some(search) => {
                    let scales = balanced.then_some(&penalties[..]);
                    let found = search(x, clustering.centroids(), scales, switch.check());
                    switch.record(found.dropped, k);
                    if (row + 1) % ASSIGN_SWITCH_ROWS == 0 {
                        switch.end_batch();
                    }
                    found.index
                }
                None if balanced => nearest_penalized(clustering, &counts, x, lambda, target),
                None => clustering.nearest(x).0,
            };
            counts[c] += 1;
            if balanced {
                penalties[c] = penalty(lambda, counts[c], target);
            }
            out.push(c as u32);
        }
        start = end;
    }
    Ok(out)
}

/// Coefficient of variation of partition sizes (std/mean) — the
/// imbalance measure the balance constraint is meant to minimize.
pub fn size_cv(assignments: &[u32], k: usize) -> f64 {
    if assignments.is_empty() || k == 0 {
        return 0.0;
    }
    let mut counts = vec![0f64; k];
    for &a in assignments {
        counts[a as usize] += 1.0;
    }
    let mean = assignments.len() as f64 / k as f64;
    let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / k as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SliceSource;

    /// Gaussian-ish blobs around `centers` using a cheap LCG.
    fn blobs(centers: &[(f32, f32)], per: usize, spread: f32, skew: Option<&[usize]>) -> Vec<f32> {
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let mut data = Vec::new();
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            let count = skew.map_or(per, |s| s[ci]);
            for _ in 0..count {
                data.push(cx + spread * next());
                data.push(cy + spread * next());
            }
        }
        data
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let centers = [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (50.0, 50.0)];
        let data = blobs(&centers, 250, 2.0, None);
        let src = SliceSource::new(&data, 2);
        let cfg = MiniBatchConfig {
            target_cluster_size: 250,
            batch_size: 64,
            ..Default::default()
        };
        let c = train(&src, &cfg).unwrap();
        assert_eq!(c.k(), 4);
        // Every true center has a trained centroid nearby.
        for &(cx, cy) in &centers {
            let (_, d) = c.nearest(&[cx, cy]);
            assert!(d < 25.0, "no centroid near ({cx},{cy}): d²={d}");
        }
        // Points assign to consistent clusters with high purity.
        let assignments = assign_all(&src, &c, 0.0, 128).unwrap();
        for blob in 0..4 {
            let slice = &assignments[blob * 250..(blob + 1) * 250];
            let mut hist = [0usize; 4];
            for &a in slice {
                hist[a as usize] += 1;
            }
            let purity = *hist.iter().max().unwrap() as f64 / 250.0;
            assert!(purity > 0.9, "blob {blob} purity {purity}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs(&[(0.0, 0.0), (10.0, 10.0)], 200, 1.0, None);
        let src = SliceSource::new(&data, 2);
        let cfg = MiniBatchConfig {
            target_cluster_size: 100,
            batch_size: 32,
            iterations: 30,
            ..Default::default()
        };
        let a = train(&src, &cfg).unwrap();
        let b = train(&src, &cfg).unwrap();
        assert_eq!(a, b);
        let c = train(
            &src,
            &MiniBatchConfig {
                seed: 999,
                ..cfg.clone()
            },
        )
        .unwrap();
        assert_ne!(a, c, "different seed, different init");
    }

    #[test]
    fn balance_penalty_reduces_size_variance_on_skewed_data() {
        // One huge blob + two small ones: unbalanced k-means makes a
        // mega-cluster; the penalty spreads it across centroids.
        let data = blobs(
            &[(0.0, 0.0), (40.0, 0.0), (0.0, 40.0)],
            0,
            4.0,
            Some(&[1600, 200, 200]),
        );
        let src = SliceSource::new(&data, 2);
        let base = MiniBatchConfig {
            target_cluster_size: 200, // k = 10
            batch_size: 128,
            iterations: 60,
            ..Default::default()
        };
        let unbalanced_cfg = MiniBatchConfig {
            balance_lambda: 0.0,
            balanced_assignment: false,
            ..base.clone()
        };
        let balanced_cfg = MiniBatchConfig {
            balance_lambda: 1.0,
            ..base
        };
        let cu = train(&src, &unbalanced_cfg).unwrap();
        let cb = train(&src, &balanced_cfg).unwrap();
        let au = assign_all(&src, &cu, 0.0, 256).unwrap();
        let ab = assign_all(&src, &cb, 1.0, 256).unwrap();
        let cv_u = size_cv(&au, cu.k());
        let cv_b = size_cv(&ab, cb.k());
        assert!(
            cv_b < cv_u,
            "balance constraint must reduce size variation: {cv_b:.3} vs {cv_u:.3}"
        );
        // Balancing is "flexible" (soft) in [22]: it spreads mega
        // clusters across nearby centroids but does not force global
        // equality across distant blobs.
        assert!(cv_b < 0.9, "balanced CV should be moderate: {cv_b:.3}");
    }

    #[test]
    fn k_derived_from_target_size() {
        let data = blobs(&[(0.0, 0.0)], 1000, 1.0, None);
        let src = SliceSource::new(&data, 2);
        let cfg = MiniBatchConfig {
            target_cluster_size: 100,
            batch_size: 64,
            iterations: 10,
            ..Default::default()
        };
        let c = train(&src, &cfg).unwrap();
        assert_eq!(c.k(), 10);
        // Tiny collection: k clamps to 1.
        let tiny = blobs(&[(0.0, 0.0)], 5, 1.0, None);
        let tiny_src = SliceSource::new(&tiny, 2);
        let c = train(&tiny_src, &cfg).unwrap();
        assert_eq!(c.k(), 1);
    }

    #[test]
    fn empty_source_is_an_error() {
        let src = SliceSource::new(&[], 4);
        assert!(train(&src, &MiniBatchConfig::default()).is_err());
    }

    /// `n` rows of a Gaussian mixture: `components` centres drawn in
    /// `[-1, 1]^dim`, each row a centre plus `spread` times standard
    /// normal noise per component.
    fn mixture(n: usize, dim: usize, components: usize, spread: f32, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centres: Vec<f32> = (0..components * dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut data = Vec::with_capacity(n * dim);
        for _ in 0..n {
            let c = rng.gen_range(0..components);
            for &centre in &centres[c * dim..(c + 1) * dim] {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
                data.push(centre + spread * z);
            }
        }
        data
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The loops the L2 centroid search replaced, scoring every
    /// centroid in full, kept to hold the search to them bit for bit.
    mod full_loop {
        use super::super::*;
        use crate::source::SliceSource;

        pub fn nearest(clustering: &Clustering, x: &[f32]) -> (usize, f32) {
            let mut best = (0usize, f32::INFINITY);
            for i in 0..clustering.k() {
                let d = clustering.metric().distance(x, clustering.centroid(i));
                if d < best.1 {
                    best = (i, d);
                }
            }
            best
        }

        fn nearest_penalized(
            clustering: &Clustering,
            counts: &[u64],
            x: &[f32],
            lambda: f32,
            scale: f32,
        ) -> usize {
            let mut best = 0usize;
            let mut best_score = f32::INFINITY;
            for (i, &count) in counts.iter().enumerate() {
                let d = clustering.metric().distance(x, clustering.centroid(i));
                let score = if lambda > 0.0 {
                    d * (1.0 + lambda * count as f32 / scale)
                } else {
                    d
                };
                if score < best_score {
                    best_score = score;
                    best = i;
                }
            }
            best
        }

        pub fn train(source: &SliceSource<'_>, cfg: &MiniBatchConfig) -> Clustering {
            let (n, dim) = (source.len(), source.dim());
            let k = (n / cfg.target_cluster_size.max(1)).max(1);
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let mut init_ids: Vec<usize> = Vec::with_capacity(k);
            let mut seen = HashSet::with_capacity(k);
            while init_ids.len() < k {
                let id = rng.gen_range(0..n);
                if seen.insert(id) || seen.len() >= n {
                    init_ids.push(id);
                }
            }
            let mut centroids = Vec::new();
            source.gather(&init_ids, &mut centroids).unwrap();
            let mut clustering = Clustering::new(centroids, dim, cfg.metric);
            let batch = cfg.batch_size.clamp(1, n);
            let iterations = (5 * n).div_ceil(batch).clamp(10, 400);
            let mut counts = vec![0u64; k];
            let mut ids = vec![0usize; batch];
            let mut buf = Vec::new();
            let mut assigned = vec![0usize; batch];
            for _ in 0..iterations {
                for id in ids.iter_mut() {
                    *id = rng.gen_range(0..n);
                }
                source.gather(&ids, &mut buf).unwrap();
                let total: u64 = counts.iter().sum();
                let scale = (total as f32 / k as f32).max(1.0);
                for (slot, x) in buf.chunks_exact(dim).enumerate() {
                    let lambda = cfg.balance_lambda;
                    assigned[slot] = nearest_penalized(&clustering, &counts, x, lambda, scale);
                }
                for (slot, x) in buf.chunks_exact(dim).enumerate() {
                    let c = assigned[slot];
                    counts[c] += 1;
                    let eta = 1.0 / counts[c] as f32;
                    for (cv, xv) in clustering.centroid_mut(c).iter_mut().zip(x) {
                        *cv = (1.0 - eta) * *cv + eta * xv;
                    }
                }
            }
            clustering
        }

        pub fn assign_all(
            source: &SliceSource<'_>,
            clustering: &Clustering,
            lambda: f32,
        ) -> Vec<u32> {
            let (n, k) = (source.len(), clustering.k());
            let mut counts = vec![0u64; k];
            let target = (n as f32 / k as f32).max(1.0);
            let mut buf = Vec::new();
            source
                .gather(&(0..n).collect::<Vec<_>>(), &mut buf)
                .unwrap();
            let mut out = Vec::with_capacity(n);
            for x in buf.chunks_exact(source.dim()) {
                let c = if lambda > 0.0 {
                    nearest_penalized(clustering, &counts, x, lambda, target)
                } else {
                    nearest(clustering, x).0
                };
                counts[c] += 1;
                out.push(c as u32);
            }
            out
        }
    }

    /// `train`, `assign_all` and `Clustering::nearest` under L2 answer
    /// what scoring every centroid in full answers, bit for bit, on a
    /// separable mixture — where the check drops most centroids and
    /// stays on — and an overlapping one, where it drops too few and
    /// only the re-probes check.
    #[test]
    fn the_l2_search_matches_the_full_loop_bit_for_bit() {
        // 37 components: the check after 16, whole lanes up to 32, a
        // tail of 5.
        let (n, dim) = (4096, 37);
        for (spread, stays_on) in [(0.15f32, true), (1.0, false)] {
            let data = mixture(n, dim, 32, spread, 7);
            let src = SliceSource::new(&data, dim);
            let cfg = MiniBatchConfig {
                batch_size: 256,
                ..Default::default()
            };
            let mut switch = CheckSwitch::default();
            let trained = train_switched(&src, &cfg, &mut switch).unwrap();
            let full = full_loop::train(&src, &cfg);
            assert_eq!(
                bits(trained.centroids()),
                bits(full.centroids()),
                "spread {spread}"
            );
            let reprobes = switch.batch.div_ceil(CheckSwitch::REPROBE);
            if stays_on {
                assert_eq!(switch.checked, switch.batch, "spread {spread}");
            } else {
                assert!(
                    switch.checked <= reprobes + 1,
                    "spread {spread}: {switch:?}"
                );
            }
            for lambda in [0.0, 0.5] {
                let mut switch = CheckSwitch::default();
                let got = assign_all_switched(&src, &full, lambda, 1000, &mut switch).unwrap();
                assert_eq!(
                    got,
                    full_loop::assign_all(&src, &full, lambda),
                    "λ {lambda}"
                );
                assert_eq!(switch.batch, n / ASSIGN_SWITCH_ROWS);
                if stays_on {
                    assert_eq!(switch.checked, switch.batch, "spread {spread} λ {lambda}");
                } else {
                    assert!(switch.checked < switch.batch, "spread {spread} λ {lambda}");
                }
            }
            for x in data.chunks_exact(dim) {
                let (i, d) = full.nearest(x);
                let (fi, fd) = full_loop::nearest(&full, x);
                assert_eq!((i, d.to_bits()), (fi, fd.to_bits()));
            }
        }
    }

    #[test]
    fn non_finite_rows_neither_seed_nor_move_a_centroid() {
        let dim = 8;
        let mut data = mixture(3000, dim, 8, 0.2, 3);
        // One row in ten is hostile: all NaN, one ±∞ component, one NaN.
        for (i, row) in data
            .chunks_exact_mut(dim)
            .enumerate()
            .filter(|(i, _)| i % 10 == 3)
        {
            match i / 10 % 4 {
                0 => row.fill(f32::NAN),
                1 => row[i % dim] = f32::INFINITY,
                2 => row[i % dim] = f32::NEG_INFINITY,
                _ => row[i % dim] = f32::NAN,
            }
        }
        let src = SliceSource::new(&data, dim);
        for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
            let cfg = MiniBatchConfig {
                metric,
                ..Default::default()
            };
            let c = train(&src, &cfg).unwrap();
            assert_eq!(c.k(), 30);
            assert!(
                c.centroids().iter().all(|v| v.is_finite()),
                "{metric}: a trained centroid is not finite"
            );
            // Every row still lands in a partition, the hostile ones too.
            let assignments = assign_all(&src, &c, 0.5, 512).unwrap();
            assert_eq!(assignments.len(), 3000);
            assert!(assignments.iter().all(|&a| (a as usize) < c.k()));
        }
        // Nothing finite to draw: the seeds stay as drawn, and training
        // still ends.
        let nans = [f32::NAN; 4 * 50];
        let c = train(&SliceSource::new(&nans, 4), &MiniBatchConfig::default()).unwrap();
        assert_eq!(c.k(), 1);
    }

    #[test]
    fn size_cv_measures_imbalance() {
        assert_eq!(size_cv(&[0, 0, 1, 1], 2), 0.0);
        let skewed = size_cv(&[0, 0, 0, 1], 2);
        assert!(skewed > 0.4);
        assert_eq!(size_cv(&[], 4), 0.0);
    }
}
