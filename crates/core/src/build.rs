//! Full index construction (§3.1).
//!
//! Building streams the vector collection through mini-batch k-means
//! (Algorithm 1) — never buffering more than one mini-batch of vectors
//! — then rewrites the `vectors` tree bottom up in `(new partition,
//! vid)` order, so each partition becomes one contiguous key range on
//! its own full leaves. The leaves take the page ids the old tree held
//! in ascending order, so a partition's leaves sit on consecutive pages
//! wherever those ids run on, and a cold scan reads them in a few I/Os
//! (the paper's "clustered on disk", §3.2). The whole
//! rebuild is **one write transaction**: concurrent readers keep their
//! snapshots of the old index and flip atomically to the new one at
//! commit (the consistency requirement of §2.1). Transactions larger
//! than memory spill dirty pages to the WAL.

use std::time::Instant;

use micronn_cluster::{MiniBatchConfig, SourceError, VectorSource};
use micronn_storage::PageRead;

use crate::catalog::{CentroidRow, Counter, Tables};
use crate::db::{Inner, MicroNN};
use crate::error::Result;

/// Mini-batch size for index-construction clustering.
const CLUSTERING_BATCH_SIZE: usize = 1024;
/// Balance-constraint weight λ of Algorithm 1, in a build and a split.
pub(crate) const BALANCE_LAMBDA: f32 = 0.5;
/// RNG seed of every clustering the index runs: the build and a
/// split's local re-clustering (xor the partition id).
pub(crate) const CLUSTERING_SEED: u64 = 0x5EED;

/// Outcome of a full index build.
#[derive(Debug, Clone, PartialEq)]
pub struct RebuildReport {
    /// Vectors clustered.
    pub vectors: usize,
    /// Partitions created.
    pub partitions: usize,
    /// Rows whose partition assignment changed (and were rewritten).
    pub moved_rows: usize,
    /// Wall-clock spent training the quantizer.
    pub train_time: std::time::Duration,
    /// Total wall-clock of the rebuild.
    pub total_time: std::time::Duration,
}

/// A [`VectorSource`] streaming vectors out of the clustered vector
/// table by `(partition, vid)` key — the bridge between the relational
/// store and the clustering crate.
pub(crate) struct TableVectorSource<'a, R: PageRead + ?Sized> {
    pub tables: &'a Tables,
    pub reader: &'a R,
    pub keys: &'a [(i64, i64)],
}

impl<R: PageRead + ?Sized> VectorSource for TableVectorSource<'_, R> {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn dim(&self) -> usize {
        self.tables.dim()
    }

    fn gather(&self, ids: &[usize], out: &mut Vec<f32>) -> std::result::Result<(), SourceError> {
        out.clear();
        out.reserve(ids.len() * self.dim());
        let mut fetch = self.tables.vector_reader(self.reader);
        for &id in ids {
            let key = *self
                .keys
                .get(id)
                .ok_or_else(|| SourceError::msg(format!("vector index {id} out of range")))?;
            if !fetch.append(key, out).map_err(SourceError::new)? {
                return Err(SourceError::msg(format!(
                    "vector {key:?} vanished mid-build"
                )));
            }
        }
        Ok(())
    }
}

/// Per-rebuild overrides of the clustering parameters (the Figure 8
/// mini-batch sweep rebuilds one index under many batch sizes).
#[derive(Debug, Clone, Default)]
pub struct RebuildOptions {
    /// Mini-batch size; `None` = the default (1024). A batch as large
    /// as the collection samples all of it every iteration, which the
    /// paper's Figure 8 calls a "100% batch" that "resembles a regular
    /// k-means algorithm" (§4.3.2): the batch buffer then holds every
    /// vector at once.
    pub batch_size: Option<usize>,
}

impl MicroNN {
    /// Builds (or fully rebuilds) the IVF index from the current vector
    /// collection, folding the delta store in. Runs as one atomic write
    /// transaction; readers are never blocked.
    pub fn rebuild(&self) -> Result<RebuildReport> {
        self.rebuild_with(&RebuildOptions::default())
    }

    /// [`MicroNN::rebuild`] with clustering-parameter overrides.
    pub fn rebuild_with(&self, opts: &RebuildOptions) -> Result<RebuildReport> {
        let start = Instant::now();
        let span = self.maint_span("maintain_rebuild");
        let inner: &Inner = &self.inner;
        let t = &inner.tables;
        let mut w = t.begin_write(&inner.db)?;

        // Collect the key list (partition, vid) — metadata only, the
        // vectors themselves stay on disk.
        let keys = t.vector_keys(&w)?;
        if keys.is_empty() {
            w.rollback();
            return Ok(RebuildReport {
                vectors: 0,
                partitions: 0,
                moved_rows: 0,
                train_time: std::time::Duration::ZERO,
                total_time: start.elapsed(),
            });
        }

        // Train the quantizer (Algorithm 1) over the streaming source.
        let mb = MiniBatchConfig {
            target_cluster_size: inner.cfg.target_partition_size,
            batch_size: opts.batch_size.unwrap_or(CLUSTERING_BATCH_SIZE),
            iterations: 0, // auto: ~5 samples per vector
            balance_lambda: BALANCE_LAMBDA,
            seed: CLUSTERING_SEED,
            metric: inner.metric,
        };
        let train_start = Instant::now();
        let (clustering, assignments) = {
            let source = TableVectorSource {
                tables: t,
                reader: &w,
                keys: &keys,
            };
            let clustering = micronn_cluster::train(&source, &mb)?;
            // Assignment streams in chunks sized to ~2 MiB of vectors,
            // keeping construction memory near the mini-batch bound the
            // paper claims (Figure 6b).
            let chunk = (2 * 1024 * 1024 / (inner.dim * 4)).clamp(64, 4096);
            let assignments =
                micronn_cluster::assign_all(&source, &clustering, BALANCE_LAMBDA, chunk)?;
            (clustering, assignments)
        };
        let train_time = train_start.elapsed();
        let k = clustering.k();

        // Replace the centroid table.
        let mut sizes = vec![0i64; k];
        for &a in &assignments {
            sizes[a as usize] += 1;
        }
        let centroids: Vec<CentroidRow> = (sizes.iter().enumerate())
            .map(|(c, &size)| CentroidRow {
                partition: c as i64 + 1,
                centroid: clustering.centroid(c).to_vec(),
                size,
            })
            .collect();
        w.replace_centroids(&centroids)?;

        // Rewrite `vectors` in (new partition, vid) order: each partition
        // one contiguous key range on its own full leaves, laid on
        // ascending page ids. Rows are read at the snapshot this
        // transaction began from — nothing has committed since, the
        // writer lock is held — and the reader is gone before commit.
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_unstable_by_key(|&i| (assignments[i as usize], keys[i as usize].1));
        let moves = order
            .iter()
            .map(|&i| (keys[i as usize], assignments[i as usize] as i64 + 1));
        let moved = {
            let old = inner.db.begin_read();
            w.rewrite_vectors(&old, moves)?
        };

        // Codec-aware epilogue (a no-op under F32): a rebuild moves rows
        // between partitions, so every partition's quantization ranges
        // are retrained and its codes rewritten from scratch.
        w.clear_codes()?;
        for c in 0..k {
            crate::codec::encode_partition(&mut w, c as i64 + 1)?;
        }

        // Refresh statistics for the hybrid optimizer and bump the
        // index epoch (invalidates centroid/stats caches).
        w.analyze_attrs()?;
        w.bump_epoch()?;
        w.set_counter(Counter::PARTITIONS, k as i64)?;
        w.set_counter(Counter::DELTA_COUNT, 0)?;
        // Partition ids 1..=k are in use; splits allocate from here.
        w.set_counter(Counter::NEXT_PID, k as i64 + 1)?;
        // Baseline average partition size, scaled ×1000 for integer
        // storage (the growth trigger compares ratios).
        let avg_x1000 = (keys.len() as f64 / k as f64 * 1000.0) as i64;
        w.set_counter(Counter::BASELINE_AVG, avg_x1000)?;
        w.commit()?;
        // Every partition was re-encoded under fresh ranges.
        inner.clear_drift();
        self.maint_finish(span, keys.len() as u64);

        Ok(RebuildReport {
            vectors: keys.len(),
            partitions: k,
            moved_rows: moved,
            train_time,
            total_time: start.elapsed(),
        })
    }
}
