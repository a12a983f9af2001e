//! Partition lifecycle maintenance: local split and merge
//! re-clustering (§3.6, extended).
//!
//! The paper's incremental maintenance keeps the delta store small but
//! has only one answer to partition *growth*: a full rebuild. Under a
//! sustained update stream that is the wrong trade — a rebuild rewrites
//! every row while the damage is local to the handful of partitions the
//! stream actually touched. This module adds the two local moves the
//! rebuild was standing in for:
//!
//! * [`MicroNN::split_partition`] — re-cluster **one** oversized
//!   partition's rows with the build's own Algorithm 1 (mini-batch
//!   k-means with balance constraints), the whole partition as one
//!   batch (a partition is bounded, so this is cheap), keep the largest
//!   sub-cluster under the existing partition id and move the rest into
//!   freshly allocated partitions.
//! * [`MicroNN::merge_partition`] — fold **one** undersized partition
//!   into the surviving partition with the nearest centroid, updating
//!   the target's centroid to the size-weighted mean.
//!
//! Both run as a single write transaction, so a crash at any point
//! recovers to either the old or the new index through the storage
//! engine's WAL — there is no intermediate state in which a vector is
//! unreachable or doubly indexed. Quantized (SQ8/SQ4) catalogs retrain the
//! quantization ranges of exactly the touched partitions and rewrite
//! their code rows in the same transaction, so compressed-domain scans
//! never see codes encoded under stale ranges. The index epoch is
//! bumped on commit, invalidating the shared centroid/quant/stats
//! caches: the next query reloads the quantizer from the committed
//! centroid table, as after a flush, retrain or rebuild.

use micronn_cluster::{MiniBatchConfig, SliceSource};

use super::{MERGE_LIMIT, SPLIT_LIMIT};
use crate::build::{BALANCE_LAMBDA, CLUSTERING_SEED};
use crate::catalog::{CentroidRow, Counter};
use crate::config::Config;
use crate::db::{MicroNN, DELTA_PARTITION};
use crate::error::{Error, Result};

/// Outcome of one partition split.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitReport {
    /// The partition that was split (it survives, re-centred on its
    /// largest sub-cluster).
    pub partition: i64,
    /// Newly created partition ids.
    pub new_partitions: Vec<i64>,
    /// Rows moved out of the split partition.
    pub rows_moved: usize,
    /// Wall-clock time.
    pub total_time: std::time::Duration,
}

/// Outcome of one partition merge.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeReport {
    /// The partition that was dissolved.
    pub partition: i64,
    /// The surviving partition its rows moved into.
    pub target: i64,
    /// Rows moved (the dissolved partition's population).
    pub rows_moved: usize,
    /// Wall-clock time.
    pub total_time: std::time::Duration,
}

/// Size above which a partition is split: `SPLIT_LIMIT × target`.
pub(crate) fn split_threshold(cfg: &Config) -> u64 {
    (SPLIT_LIMIT * cfg.target_partition_size as f64).floor() as u64
}

/// Size below which a partition is merged: `MERGE_LIMIT × target`.
pub(crate) fn merge_threshold(cfg: &Config) -> u64 {
    (MERGE_LIMIT * cfg.target_partition_size as f64).ceil() as u64
}

/// The split candidate the policy prefers: the largest partition over
/// the split threshold (splitting the worst offender first shrinks the
/// scan-cost tail fastest). `None` when nothing is oversized.
pub(crate) fn pick_split(cfg: &Config, sizes: &[(i64, u64)]) -> Option<i64> {
    let limit = split_threshold(cfg);
    sizes
        .iter()
        .filter(|&&(_, s)| s > limit && s >= 2)
        .max_by_key(|&&(pid, s)| (s, std::cmp::Reverse(pid)))
        .map(|&(pid, _)| pid)
}

/// The merge candidate the policy prefers: the smallest partition under
/// the merge threshold *that fits into at least one surviving
/// neighbour* without pushing it over the split limit. Merging needs a
/// surviving neighbour, so `None` when fewer than two partitions exist.
/// The fit requirement prevents a livelock the background maintainer
/// could otherwise enter: merging a small, well-separated cluster into
/// a full neighbour forces a split that re-isolates the same cluster,
/// forever.
pub(crate) fn pick_merge(cfg: &Config, sizes: &[(i64, u64)]) -> Option<i64> {
    let limit = merge_threshold(cfg);
    if sizes.len() < 2 {
        return None;
    }
    let split_at = split_threshold(cfg);
    sizes
        .iter()
        .filter(|&&(pid, s)| {
            s < limit
                && sizes
                    .iter()
                    .any(|&(other, os)| other != pid && os + s <= split_at)
        })
        .min_by_key(|&&(pid, s)| (s, pid))
        .map(|&(pid, _)| pid)
}

impl MicroNN {
    /// Splits one oversized partition by local re-clustering: the
    /// partition's rows (bounded by construction, ~`SPLIT_LIMIT ×
    /// target_partition_size`) are re-clustered in memory with the
    /// build's Algorithm 1 (`micronn_cluster::train` and `assign_all`,
    /// the whole partition as one batch), the largest sub-cluster stays
    /// under the existing partition id (re-centred), and each remaining
    /// sub-cluster moves into a freshly allocated partition. A row with
    /// a NaN or ∞ component moves to a sub-cluster but neither seeds
    /// nor moves its centroid. One atomic write transaction; quantized
    /// catalogs retrain quantization ranges for exactly the touched
    /// partitions.
    pub fn split_partition(&self, partition: i64) -> Result<SplitReport> {
        let start = std::time::Instant::now();
        if partition == DELTA_PARTITION {
            return Err(Error::Config("cannot split the delta store".into()));
        }
        let span = self.maint_span("maintain_split");
        let inner = &*self.inner;
        let t = &inner.tables;
        let mut w = t.begin_write(&inner.db)?;
        if t.centroid(&w, partition)?.is_none() {
            return Err(Error::Config(format!(
                "cannot split partition {partition}: it does not exist"
            )));
        }
        let members = t.members(&w, partition)?;
        let n = members.len();
        if n < 2 {
            return Err(Error::Config(format!(
                "cannot split partition {partition}: it holds {n} vector(s)"
            )));
        }

        // Local re-clustering with the build's Algorithm 1, the whole
        // partition as one batch. Aim for sub-clusters of ~target size
        // but always at least two, so the split makes progress.
        let dim = inner.dim;
        let target = inner.cfg.target_partition_size.max(1);
        let k_new = ((n + target / 2) / target).max(2);
        let mut flat = Vec::with_capacity(n * dim);
        for m in &members {
            flat.extend_from_slice(&m.vector);
        }
        let rows = SliceSource::new(&flat, dim);
        let local = micronn_cluster::train(
            &rows,
            &MiniBatchConfig {
                target_cluster_size: (n / k_new).max(1),
                batch_size: n,
                iterations: 0,
                balance_lambda: BALANCE_LAMBDA,
                seed: CLUSTERING_SEED ^ partition as u64,
                metric: inner.metric,
            },
        )?;
        let mut assignments = micronn_cluster::assign_all(&rows, &local, BALANCE_LAMBDA, n)?;
        let k2 = local.k();
        let mut counts = vec![0usize; k2];
        for &a in &assignments {
            counts[a as usize] += 1;
        }
        // Degenerate data (e.g. duplicate vectors, which score alike
        // against every centroid) can collapse every row into one
        // sub-cluster; a split must still make progress, so fall back
        // to an even positional partition of the rows. Each centroid is
        // the mean of its finite rows: a NaN or ∞ row moves none.
        let mut centroids: Vec<Vec<f32>> = (0..k2).map(|c| local.centroid(c).to_vec()).collect();
        if counts.iter().filter(|&&c| c > 0).count() < 2 {
            let chunk = n.div_ceil(k_new);
            counts = vec![0; k_new];
            centroids = vec![vec![0.0; dim]; k_new];
            let mut finite = vec![0usize; k_new];
            for (i, a) in assignments.iter_mut().enumerate() {
                let c = (i / chunk).min(k_new - 1);
                *a = c as u32;
                counts[c] += 1;
                let x = &members[i].vector;
                if x.iter().all(|v| v.is_finite()) {
                    finite[c] += 1;
                    for (acc, v) in centroids[c].iter_mut().zip(x) {
                        *acc += v;
                    }
                }
            }
            for (c, centroid) in centroids.iter_mut().enumerate() {
                let inv = 1.0 / finite[c].max(1) as f32;
                centroid.iter_mut().for_each(|x| *x *= inv);
            }
        }
        let k2 = counts.len();

        // The largest sub-cluster keeps the existing partition id (its
        // rows stay in place); the other non-empty ones move into fresh
        // ids. Empty sub-clusters (possible under degenerate local
        // clusterings) get no partition: a split never creates an
        // immediately-mergeable empty partition.
        let keep = (0..k2).max_by_key(|&c| counts[c]).unwrap_or(0);
        let mut next_pid = t.counter(&w, Counter::NEXT_PID)?;
        if next_pid == 0 {
            // Pre-lifecycle file: derive the counter from the catalog.
            let sizes = t.partition_sizes(&w)?;
            next_pid = sizes.iter().map(|&(pid, _)| pid).max().unwrap_or(0) + 1;
        }
        let mut pid_of = vec![partition; k2];
        let mut new_partitions = Vec::with_capacity(k2 - 1);
        for (c, pid) in pid_of.iter_mut().enumerate() {
            if c != keep && counts[c] > 0 {
                *pid = next_pid;
                new_partitions.push(next_pid);
                next_pid += 1;
            }
        }

        // Move the rows whose sub-cluster got a new id.
        let mut moved = 0usize;
        for (m, &a) in members.iter().zip(&assignments) {
            let new_p = pid_of[a as usize];
            if new_p != partition {
                w.relocate(partition, new_p, m.vid)?;
                moved += 1;
            }
        }

        // Centroid rows: re-centre the surviving partition, insert the
        // new ones (empty sub-clusters excluded).
        let live: Vec<usize> = (0..k2).filter(|&c| c == keep || counts[c] > 0).collect();
        for &c in &live {
            let row = CentroidRow {
                partition: pid_of[c],
                centroid: centroids[c].clone(),
                size: counts[c] as i64,
            };
            w.put_centroid(&row)?;
        }

        // Codec epilogue: every touched partition's content changed, so
        // its quantization ranges are retrained and codes rewritten.
        w.clear_partition_codes(partition)?;
        for &c in &live {
            crate::codec::encode_partition(&mut w, pid_of[c])?;
        }

        let k = t.counter(&w, Counter::PARTITIONS)?;
        w.set_counter(Counter::PARTITIONS, k + new_partitions.len() as i64)?;
        w.set_counter(Counter::NEXT_PID, next_pid)?;
        w.bump_epoch()?;
        w.commit()?;
        // The split re-encoded every touched partition under fresh
        // ranges: its drift counter starts over.
        inner.reset_drift(partition);
        // Free the stale quantizer now; the next query reloads it at
        // the new epoch.
        inner.centroid_cache.clear();
        self.maint_finish(span, moved as u64);

        Ok(SplitReport {
            partition,
            new_partitions,
            rows_moved: moved,
            total_time: start.elapsed(),
        })
    }

    /// Merges one undersized partition into its nearest surviving
    /// neighbour: its rows move, the target's centroid shifts to the
    /// size-weighted mean of the two, and the dissolved partition's
    /// centroid (and, for SQ8 catalogs, its codes and quantization
    /// ranges) are removed. Among neighbours the nearest one *with
    /// room* (merged size within the split limit) is preferred, so a
    /// merge does not immediately hand the ladder a split; the overall
    /// nearest is the fallback when every neighbour is full. One atomic
    /// write transaction.
    pub fn merge_partition(&self, partition: i64) -> Result<MergeReport> {
        let start = std::time::Instant::now();
        if partition == DELTA_PARTITION {
            return Err(Error::Config("cannot merge the delta store".into()));
        }
        let span = self.maint_span("maintain_merge");
        let inner = &*self.inner;
        let t = &inner.tables;
        let mut w = t.begin_write(&inner.db)?;
        let Some(source) = t.centroid(&w, partition)? else {
            return Err(Error::Config(format!(
                "cannot merge partition {partition}: it does not exist"
            )));
        };

        // Nearest surviving neighbour by centroid distance, preferring
        // one the merged rows still fit into.
        let room = split_threshold(&inner.cfg).saturating_sub(source.size.max(0) as u64);
        let mut best: Option<(i64, f32)> = None;
        let mut best_fitting: Option<(i64, f32)> = None;
        for c in t.centroids(&w)? {
            if c.partition == partition {
                continue;
            }
            let d = inner.metric.distance(&source.centroid, &c.centroid);
            if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                best = Some((c.partition, d));
            }
            let fits = c.size.max(0) as u64 <= room;
            if fits && best_fitting.map(|(_, bd)| d < bd).unwrap_or(true) {
                best_fitting = Some((c.partition, d));
            }
        }
        let Some((target, _)) = best_fitting.or(best) else {
            return Err(Error::Config(format!(
                "cannot merge partition {partition}: no surviving neighbour"
            )));
        };

        // Move every row into the target partition.
        let members = t.members(&w, partition)?;
        for m in &members {
            w.relocate(partition, target, m.vid)?;
        }

        // Target centroid: size-weighted mean of the two centroids.
        // Sizes stay in integer arithmetic — only the weight is
        // floating-point — so the stored counts remain exact.
        let mut target_row = t
            .centroid(&w, target)?
            .ok_or_else(|| Error::Config("merge target centroid vanished".into()))?;
        let m_t = target_row.size.max(0);
        let m_s = members.len() as i64;
        if m_t + m_s > 0 {
            let w_s = m_s as f32 / (m_t + m_s) as f32;
            for (ct, cs) in target_row.centroid.iter_mut().zip(&source.centroid) {
                *ct += w_s * (cs - *ct);
            }
        }
        target_row.size = m_t + m_s;
        w.put_centroid(&target_row)?;
        w.remove_centroid(partition)?;

        // Codec epilogue: the dissolved partition's codes and ranges go
        // away; the grown target is re-encoded under fresh ranges.
        w.clear_partition_codes(partition)?;
        if !members.is_empty() {
            crate::codec::encode_partition(&mut w, target)?;
        }

        let k = t.counter(&w, Counter::PARTITIONS)?;
        w.set_counter(Counter::PARTITIONS, (k - 1).max(1))?;
        w.bump_epoch()?;
        w.commit()?;
        // The dissolved partition is gone and the target was re-encoded
        // under fresh ranges: both drift counters start over.
        inner.reset_drift(partition);
        inner.reset_drift(target);
        // As after a split: the next query reloads at the new epoch.
        inner.centroid_cache.clear();
        self.maint_finish(span, members.len() as u64);

        Ok(MergeReport {
            partition,
            target,
            rows_moved: members.len(),
            total_time: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micronn_linalg::Metric;

    fn cfg() -> Config {
        let mut c = Config::new(4, Metric::L2);
        c.target_partition_size = 100;
        c
    }

    #[test]
    fn thresholds_follow_config() {
        let c = cfg();
        assert_eq!(split_threshold(&c), 150);
        assert_eq!(merge_threshold(&c), 25);
        let mut c = cfg();
        c.target_partition_size = 7;
        assert_eq!(split_threshold(&c), 10);
        assert_eq!(merge_threshold(&c), 2);
    }

    #[test]
    fn pick_split_prefers_largest_offender() {
        let c = cfg();
        let sizes = vec![(1, 120), (2, 200), (3, 180), (4, 150)];
        assert_eq!(pick_split(&c, &sizes), Some(2));
        // Exactly at the threshold is not oversized.
        assert_eq!(pick_split(&c, &[(1, 150)]), None);
        assert_eq!(pick_split(&c, &[]), None);
    }

    #[test]
    fn pick_merge_prefers_smallest_and_needs_a_neighbour() {
        let c = cfg();
        let sizes = vec![(1, 120), (2, 3), (3, 10), (4, 24)];
        assert_eq!(pick_merge(&c, &sizes), Some(2));
        // Exactly at the threshold is not undersized.
        assert_eq!(pick_merge(&c, &[(1, 25), (2, 100)]), None);
        // A lone partition can never merge.
        assert_eq!(pick_merge(&c, &[(1, 0)]), None);
        // No neighbour has room under the split limit (150): merging
        // would only hand the ladder a split that re-creates the small
        // partition — skip it.
        assert_eq!(pick_merge(&c, &[(1, 10), (2, 145)]), None);
        // One neighbour with room is enough.
        assert_eq!(pick_merge(&c, &[(1, 10), (2, 145), (3, 120)]), Some(1));
    }
}
