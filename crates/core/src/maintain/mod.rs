//! Incremental index maintenance, the index monitor, and the partition
//! lifecycle (§3.6, extended).
//!
//! The delta store is scanned by every query, so "query latency can
//! grow if the delta-store grows too large". [`MicroNN::flush_delta`]
//! implements the paper's "simplified form of incremental index
//! maintenance that flushes vectors from the delta-store by assigning
//! them to the IVF index partition with the closest centroid and
//! updates the centroids to reflect the partition content" (a running
//! mean, after \[1\] / VLAD). Flushing touches only the delta rows plus
//! the centroid table — the tiny I/O footprint Figure 10d plots against
//! a full rebuild.
//!
//! The "IndexMonitor" half: partition sizes change as deltas are folded
//! in and assets deleted, so [`MicroNN::maintenance_status`] watches
//! the per-partition size statistics and escalates through a ladder of
//! increasingly expensive responses:
//!
//! 1. **flush** — fold the delta store into the nearest partitions;
//! 2. **split / merge** ([`lifecycle`]) — locally re-cluster one
//!    oversized partition, or fold one undersized partition into its
//!    nearest neighbour, touching only that partition's rows;
//! 3. **full rebuild** — the paper's growth trigger (average partition
//!    size past 1.5 × its post-build baseline), now a rare
//!    fallback rather than the only answer to growth;
//! 4. **quantizer retrain** — for quantized codecs, a partition whose
//!    stored ranges have drifted (too many flushed rows clamped during
//!    encoding — more than a tenth of them) gets its
//!    ranges retrained and codes rewritten, restoring quantization
//!    quality without touching any other partition.
//!
//! [`MicroNN::maybe_maintain`] walks that ladder until the index is
//! healthy (or a bounded number of actions have run) and returns every
//! action taken plus the final status, so a caller never has to poll
//! for follow-up work the previous action uncovered. The
//! [`maintainer::IndexMaintainer`] drives the same
//! loop from a dedicated background thread, cooperating with concurrent
//! searches and updates through the storage engine's snapshot
//! isolation.

pub mod lifecycle;
pub mod maintainer;

pub use lifecycle::{MergeReport, SplitReport};
pub use maintainer::{IndexMaintainer, MaintainerOptions, MaintainerStats};

use std::sync::Arc;

use crate::catalog::{CentroidRow, Counter, Member};
use crate::db::{LoadedIndex, MicroNN, DELTA_PARTITION};
use crate::error::{Error, Result};
use crate::RebuildReport;

/// Quantizer range-drift threshold for quantized codecs: once the
/// fraction of flushed rows that clamped against a partition's stored
/// ranges exceeds this, the maintainer retrains that partition's
/// ranges.
const RANGE_DRIFT_LIMIT: f64 = 0.1;

/// The paper's growth trigger: a full rebuild is due once the average
/// partition size reaches this multiple of its post-build baseline
/// (+50 %).
const GROWTH_LIMIT: f64 = 1.5;

/// Lifecycle maintenance splits a partition once it holds more than
/// `SPLIT_LIMIT × target_partition_size` vectors.
pub const SPLIT_LIMIT: f64 = 1.5;

/// Lifecycle maintenance merges a partition once it holds fewer than
/// `MERGE_LIMIT × target_partition_size` vectors.
pub const MERGE_LIMIT: f64 = 0.25;

/// What the index monitor thinks should happen next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceStatus {
    /// Index is healthy.
    Healthy,
    /// The index has never been built and holds vectors.
    NeedsBuild,
    /// The delta store exceeds the flush threshold.
    NeedsFlush,
    /// At least one partition exceeds `SPLIT_LIMIT ×
    /// target_partition_size`: a local split is due (lifecycle
    /// maintenance only).
    NeedsSplit,
    /// At least one partition holds fewer than `MERGE_LIMIT ×
    /// target_partition_size` vectors: a local merge is due (lifecycle
    /// maintenance only).
    NeedsMerge,
    /// Average partition size grew past 1.5 × its post-build
    /// baseline and no local operation can fix it: a full rebuild is
    /// due.
    NeedsRebuild,
    /// A quantized partition's stored ranges have drifted: too large a
    /// fraction of recently flushed rows clamped during encoding, so
    /// its ranges should be retrained (quantized codecs only).
    NeedsRetrain,
}

/// One maintenance operation performed by [`MicroNN::maybe_maintain`].
#[derive(Debug, Clone)]
pub enum MaintenanceAction {
    /// The delta store was folded into the IVF index.
    Flushed(FlushReport),
    /// One oversized partition was split by local re-clustering.
    Split(SplitReport),
    /// One undersized partition was merged into its nearest neighbour.
    Merged(MergeReport),
    /// The whole index was rebuilt.
    Rebuilt(RebuildReport),
    /// One partition's drifted quantization ranges were retrained.
    Retrained(RetrainReport),
}

/// Everything one [`MicroNN::maybe_maintain`] call did: the actions in
/// execution order plus the monitor's status after the last one, so
/// follow-up work a flush uncovered (e.g. a partition pushed past the
/// split limit) is surfaced instead of silently deferred to the next
/// call.
#[derive(Debug, Clone)]
pub struct MaintenanceReport {
    /// Actions performed, in order. Empty when the index was healthy.
    pub actions: Vec<MaintenanceAction>,
    /// Monitor verdict after the final action ran ([`MaintenanceStatus::Healthy`]
    /// unless the per-call action cap was hit).
    pub status: MaintenanceStatus,
    /// Wall-clock time of the whole pass.
    pub total_time: std::time::Duration,
}

impl MaintenanceReport {
    /// Number of delta flushes performed.
    pub fn flushes(&self) -> usize {
        self.count(|a| matches!(a, MaintenanceAction::Flushed(_)))
    }

    /// Number of partition splits performed.
    pub fn splits(&self) -> usize {
        self.count(|a| matches!(a, MaintenanceAction::Split(_)))
    }

    /// Number of partition merges performed.
    pub fn merges(&self) -> usize {
        self.count(|a| matches!(a, MaintenanceAction::Merged(_)))
    }

    /// Number of full rebuilds performed.
    pub fn rebuilds(&self) -> usize {
        self.count(|a| matches!(a, MaintenanceAction::Rebuilt(_)))
    }

    /// Number of quantizer range retrains performed.
    pub fn retrains(&self) -> usize {
        self.count(|a| matches!(a, MaintenanceAction::Retrained(_)))
    }

    fn count(&self, f: impl Fn(&MaintenanceAction) -> bool) -> usize {
        self.actions.iter().filter(|a| f(a)).count()
    }
}

/// Outcome of one quantizer range retrain ([`MicroNN::retrain_partition`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainReport {
    /// The partition whose ranges were retrained.
    pub partition: i64,
    /// Vectors re-encoded under the fresh ranges (`0` when the
    /// partition had been retired before the retrain ran — the stale
    /// drift counter is simply discarded).
    pub encoded: usize,
    /// Wall-clock time.
    pub total_time: std::time::Duration,
}

/// Outcome of one delta flush.
#[derive(Debug, Clone, PartialEq)]
pub struct FlushReport {
    /// Vectors moved out of the delta store.
    pub flushed: usize,
    /// Distinct partitions that received vectors (their centroids were
    /// updated).
    pub partitions_touched: usize,
    /// Wall-clock time.
    pub total_time: std::time::Duration,
}

impl MicroNN {
    /// Folds the delta store into the IVF index: each staged vector
    /// moves to the partition with the nearest centroid, whose centroid
    /// shifts by the running-mean update. One atomic transaction.
    pub fn flush_delta(&self) -> Result<FlushReport> {
        let start = std::time::Instant::now();
        let span = self.maint_span("maintain_flush");
        let inner = &*self.inner;
        let t = &inner.tables;
        let mut w = t.begin_write(&inner.db)?;
        let Some(index) = inner.clustering(&w)? else {
            return Err(Error::Config(
                "cannot flush delta: index has never been built".into(),
            ));
        };
        // A writer's index is never published to the cache, so this is
        // its only handle: take the centroid matrix over, no copy.
        let LoadedIndex {
            mut clustering,
            partitions,
            ..
        } = Arc::into_inner(index).expect("a writer's index is never shared");

        // Current partition sizes, in the centroid-scan order the
        // (uncached, in-transaction) index load above produced.
        let mut sizes: Vec<i64> = (t.partition_sizes(&w)?.iter())
            .map(|&(_, size)| size as i64)
            .collect();

        // Materialize the (small) delta store.
        let staged = t.members(&w, DELTA_PARTITION)?;
        let flushed = staged.len();

        // BTreeMap: centroid/code rows are persisted in ascending
        // partition order (ascending ci — the partitions vec comes from
        // an ascending-pid centroid scan), keeping the page-write
        // stream deterministic (the crash-injection harness enumerates
        // its operations). Each bucket keeps its rows in staged (vid)
        // order for the codec append below.
        let mut dest: std::collections::BTreeMap<usize, Vec<Member>> =
            std::collections::BTreeMap::new();
        for m in staged {
            let (ci, _) = clustering.nearest(&m.vector);
            w.relocate(DELTA_PARTITION, partitions[ci], m.vid)?;
            // Running-mean centroid update [1]: c ← c + (x − c)/(m+1).
            // A vector with a NaN or ∞ component joins the partition but
            // moves no centroid: the centroid would keep it for good.
            let n = sizes[ci];
            if m.vector.iter().all(|v| v.is_finite()) {
                let centroid = clustering.centroid_mut(ci);
                let eta = 1.0 / (n as f32 + 1.0);
                for (cv, xv) in centroid.iter_mut().zip(&m.vector) {
                    *cv += eta * (xv - *cv);
                }
            }
            sizes[ci] = n + 1;
            dest.entry(ci).or_default().push(m);
        }

        // Persist the moved centroids and sizes.
        for &ci in dest.keys() {
            let row = CentroidRow {
                partition: partitions[ci],
                centroid: clustering.centroid(ci).to_vec(),
                size: sizes[ci],
            };
            w.put_centroid(&row)?;
        }
        // Codec-aware epilogue: the rows just moved into each touched
        // partition are encoded *under its existing ranges* — a flush
        // is incremental, so it must not pay a full per-partition
        // retrain. Rows that clamp against the stored ranges feed the
        // per-partition drift counters (after commit); the maintainer
        // retrains a partition once its clamped fraction crosses
        // `RANGE_DRIFT_LIMIT`. A partition with no stored ranges yet
        // (first flush after its creation) gets a full encode, which
        // trains them. F32 catalogs have no ranges, and the encode is a
        // no-op.
        let mut drift_updates: Vec<(i64, u64, u64)> = Vec::new();
        for (&ci, rows) in &dest {
            let pid = partitions[ci];
            match t.params(&w, pid)? {
                Some(params) => {
                    let clamped = crate::codec::append_partition(&mut w, pid, &params, rows)?;
                    drift_updates.push((pid, clamped as u64, rows.len() as u64));
                }
                None => {
                    crate::codec::encode_partition(&mut w, pid)?;
                }
            }
        }
        w.set_counter(Counter::DELTA_COUNT, 0)?;
        w.bump_epoch()?;
        let partitions_touched = dest.len();
        w.commit()?;
        // Drift counters reflect only committed appends: fold them in
        // after the transaction is durable.
        for (pid, clamped, appended) in drift_updates {
            inner.note_drift(pid, clamped, appended);
        }
        self.maint_finish(span, flushed as u64);

        Ok(FlushReport {
            flushed,
            partitions_touched,
            total_time: start.elapsed(),
        })
    }

    /// The index monitor's verdict on the current index state.
    ///
    /// Without lifecycle maintenance this is exactly the paper's
    /// monitor: build, growth-triggered rebuild, or flush. With
    /// [`crate::Config::lifecycle`] enabled, per-partition size checks
    /// slot in between — a flush is still preferred (it may change the
    /// size picture), then splits, then merges, and the growth rebuild
    /// only fires when no local operation applies.
    pub fn maintenance_status(&self) -> Result<MaintenanceStatus> {
        Ok(self.maintenance_verdict()?.0)
    }

    /// [`MicroNN::maintenance_status`] plus the lifecycle candidate the
    /// verdict was based on (the partition to split or merge), computed
    /// from one snapshot so status and candidate can never disagree.
    fn maintenance_verdict(&self) -> Result<(MaintenanceStatus, Option<i64>)> {
        let inner = &*self.inner;
        let t = &inner.tables;
        let r = inner.db.begin_read();
        let k = t.counter(&r, Counter::PARTITIONS)?;
        let delta = t.counter(&r, Counter::DELTA_COUNT)? as u64;
        let total = t.vector_count(&r)?;
        if k == 0 {
            return Ok(if total > 0 {
                (MaintenanceStatus::NeedsBuild, None)
            } else {
                (MaintenanceStatus::Healthy, None)
            });
        }
        let baseline = t.counter(&r, Counter::BASELINE_AVG)? as f64 / 1000.0;
        let current_avg = (total - delta.min(total)) as f64 / k as f64;
        let growing = baseline > 0.0 && current_avg >= GROWTH_LIMIT * baseline;
        if growing && !inner.cfg.lifecycle {
            return Ok((MaintenanceStatus::NeedsRebuild, None));
        }
        if delta as usize >= inner.cfg.delta_flush_threshold {
            return Ok((MaintenanceStatus::NeedsFlush, None));
        }
        if inner.cfg.lifecycle {
            let sizes = t.partition_sizes(&r)?;
            if let Some(pid) = lifecycle::pick_split(&inner.cfg, &sizes) {
                return Ok((MaintenanceStatus::NeedsSplit, Some(pid)));
            }
            if let Some(pid) = lifecycle::pick_merge(&inner.cfg, &sizes) {
                return Ok((MaintenanceStatus::NeedsMerge, Some(pid)));
            }
        }
        if growing {
            return Ok((MaintenanceStatus::NeedsRebuild, None));
        }
        // Quantizer range drift is the cheapest concern: only consulted
        // once sizes are healthy. The candidate may be stale (partition
        // retired since its counter accumulated); `retrain_partition`
        // self-heals by discarding the counter.
        if inner.quantized() {
            if let Some((pid, _)) = inner.drift_candidate(RANGE_DRIFT_LIMIT) {
                return Ok((MaintenanceStatus::NeedsRetrain, Some(pid)));
            }
        }
        Ok((MaintenanceStatus::Healthy, None))
    }

    /// Retrains one partition's quantization ranges from its current
    /// f32 members and rewrites its codes — the maintainer's response
    /// to range drift (too many flushed rows clamping against stored
    /// ranges). A retired partition is a no-op that discards the stale
    /// drift counter. Errors on non-quantized catalogs.
    pub fn retrain_partition(&self, partition: i64) -> Result<RetrainReport> {
        let start = std::time::Instant::now();
        let span = self.maint_span("maintain_retrain");
        let inner = &*self.inner;
        if !inner.quantized() {
            return Err(Error::Config(
                "codec f32 has no quantization ranges to retrain".into(),
            ));
        }
        let t = &inner.tables;
        let mut w = t.begin_write(&inner.db)?;
        if t.centroid(&w, partition)?.is_none() {
            // Partition retired (split/merge/rebuild) after its drift
            // counter accumulated: nothing to retrain.
            w.rollback();
            inner.reset_drift(partition);
            return Ok(RetrainReport {
                partition,
                encoded: 0,
                total_time: start.elapsed(),
            });
        }
        let encoded = crate::codec::encode_partition(&mut w, partition)?;
        w.bump_epoch()?;
        w.commit()?;
        inner.reset_drift(partition);
        self.maint_finish(span, encoded as u64);
        Ok(RetrainReport {
            partition,
            encoded,
            total_time: start.elapsed(),
        })
    }

    /// Runs maintenance until the monitor reports a healthy index (or a
    /// bounded number of actions have run): delta flushes, lifecycle
    /// splits/merges, and — as a last resort — a full rebuild, in the
    /// order the monitor requests them. Returns every action performed
    /// plus the final status, so follow-up work one action uncovers
    /// (e.g. a flush pushing a partition past the split limit) runs in
    /// the same pass instead of waiting for the next call.
    pub fn maybe_maintain(&self) -> Result<MaintenanceReport> {
        /// Upper bound on actions per pass: keeps one call from
        /// monopolising the writer lock under pathological churn; the
        /// returned status tells the caller whether work remains.
        const MAX_ACTIONS: usize = 32;
        /// Lifecycle candidates come from a snapshot that a concurrent
        /// writer (or a second maintenance driver, e.g. the background
        /// maintainer racing a `micronnctl maintain`) can invalidate
        /// before the write transaction starts; such stale picks fail
        /// with a transient `Config` error and are simply re-picked
        /// from a fresh verdict (the budget bounds *consecutive*
        /// failures; it resets on every successful action). Any other
        /// error kind — and a `Config` error that keeps repeating — is
        /// a real failure and is surfaced instead of retried.
        const MAX_STALE_RETRIES: usize = 3;
        let start = std::time::Instant::now();
        let mut actions = Vec::new();
        let mut stale = 0usize;
        let (mut status, mut candidate) = self.maintenance_verdict()?;
        while actions.len() < MAX_ACTIONS {
            match (status, candidate) {
                (MaintenanceStatus::Healthy, _) => break,
                (MaintenanceStatus::NeedsBuild | MaintenanceStatus::NeedsRebuild, _) => {
                    actions.push(MaintenanceAction::Rebuilt(self.rebuild()?));
                    stale = 0;
                }
                (MaintenanceStatus::NeedsFlush, _) => {
                    actions.push(MaintenanceAction::Flushed(self.flush_delta()?));
                    stale = 0;
                }
                (MaintenanceStatus::NeedsSplit, Some(pid)) => match self.split_partition(pid) {
                    Ok(report) => {
                        actions.push(MaintenanceAction::Split(report));
                        stale = 0;
                    }
                    Err(Error::Config(_)) if stale < MAX_STALE_RETRIES => stale += 1,
                    Err(e) => return Err(e),
                },
                (MaintenanceStatus::NeedsMerge, Some(pid)) => match self.merge_partition(pid) {
                    Ok(report) => {
                        actions.push(MaintenanceAction::Merged(report));
                        stale = 0;
                    }
                    Err(Error::Config(_)) if stale < MAX_STALE_RETRIES => stale += 1,
                    Err(e) => return Err(e),
                },
                (MaintenanceStatus::NeedsRetrain, Some(pid)) => {
                    // Safe against stale candidates: a retired
                    // partition is a no-op that clears its counter, so
                    // the next verdict moves on.
                    actions.push(MaintenanceAction::Retrained(self.retrain_partition(pid)?));
                    stale = 0;
                }
                // The verdict never reports a lifecycle status without
                // its candidate.
                (
                    MaintenanceStatus::NeedsSplit
                    | MaintenanceStatus::NeedsMerge
                    | MaintenanceStatus::NeedsRetrain,
                    None,
                ) => break,
            }
            (status, candidate) = self.maintenance_verdict()?;
        }
        Ok(MaintenanceReport {
            actions,
            status,
            total_time: start.elapsed(),
        })
    }

    /// Rebuilds attribute statistics (`ANALYZE`) for the hybrid query
    /// optimizer without touching the index.
    pub fn analyze(&self) -> Result<()> {
        let t = &self.inner.tables;
        let mut w = t.begin_write(&self.inner.db)?;
        w.analyze_attrs()?;
        w.bump_epoch()?;
        w.commit()?;
        Ok(())
    }

    /// Point-in-time statistics of the index.
    pub fn stats(&self) -> Result<crate::stats::DbStats> {
        let inner = &*self.inner;
        let t = &inner.tables;
        let r = inner.db.begin_read();
        let total = t.vector_count(&r)?;
        let delta = t.counter(&r, Counter::DELTA_COUNT)? as u64;
        let k = t.counter(&r, Counter::PARTITIONS)? as u64;
        let epoch = t.counter(&r, Counter::EPOCH)?;
        let baseline = t.counter(&r, Counter::BASELINE_AVG)? as f64 / 1000.0;
        let sizes = t.partition_sizes(&r)?;
        Ok(crate::stats::DbStats {
            total_vectors: total,
            delta_vectors: delta,
            partitions: k,
            avg_partition_size: if k > 0 {
                (total - delta.min(total)) as f64 / k as f64
            } else {
                0.0
            },
            min_partition_size: sizes.iter().map(|&(_, s)| s).min().unwrap_or(0),
            max_partition_size: sizes.iter().map(|&(_, s)| s).max().unwrap_or(0),
            baseline_partition_size: baseline,
            epoch,
            row_changes: t.row_changes(),
            store: inner.db.store().stats(),
            resident_bytes: inner.db.store().resident_bytes(),
        })
    }
}
