//! Pinned read snapshots: a [`Snapshot`] freezes one committed view of
//! the index and answers any number of queries against it.
//!
//! [`MicroNN::snapshot`] pins the current committed state (MVCC at the
//! store layer: the commit seq is registered in the reader registry,
//! which retains every page version the snapshot can see). Every query
//! issued through the handle resolves pages, centroid/quantization
//! caches, and planner statistics at that seq — concurrent upserts,
//! deletes, flushes, splits, merges, and retrains are invisible until
//! a fresh snapshot (or any plain [`MicroNN::search`], which pins its
//! own snapshot per call) observes them.
//!
//! Snapshots are cheap (no page copying — old page versions are kept
//! in the WAL/pool until the reader registry releases them) but pin
//! WAL space: the checkpointer cannot reclaim log segments a live
//! snapshot still reads. Drop the handle when done; dropping
//! deregisters the reader and lets version GC advance.

use micronn_rel::Expr;
use micronn_storage::{Occupancy, PageRead, ReadTxn};

use crate::batch::BatchResponse;
use crate::db::MicroNN;
use crate::error::Result;
use crate::hybrid::SearchRequest;
use crate::integrity::IntegrityReport;
use crate::search::SearchResponse;

/// One frozen, committed view of the index (see the [module
/// docs](crate::snapshot)). Created by [`MicroNN::snapshot`]; holds a
/// registered reader at the store layer until dropped.
pub struct Snapshot {
    pub(crate) db: MicroNN,
    pub(crate) r: ReadTxn,
}

// Every read below pins its own snapshot for the one call.
impl MicroNN {
    /// Pins the current committed state and returns a handle that
    /// answers queries against it, unaffected by concurrent writes and
    /// maintenance.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            db: self.clone(),
            r: self.inner.db.begin_read(),
        }
    }

    /// Top-`k` approximate nearest neighbours with default parameters.
    pub fn search(&self, query: &[f32], k: usize) -> Result<SearchResponse> {
        self.snapshot().search(query, k)
    }

    /// Executes a full [`SearchRequest`] (ANN, hybrid, plan control).
    pub fn search_with(&self, req: &SearchRequest) -> Result<SearchResponse> {
        self.snapshot().search_with(req)
    }

    /// Exact (exhaustive) K-nearest-neighbour search, optionally
    /// filtered.
    pub fn exact(&self, query: &[f32], k: usize, filter: Option<&Expr>) -> Result<SearchResponse> {
        self.snapshot().exact(query, k, filter)
    }

    /// Executes a batch of ANN queries with multi-query optimization.
    pub fn batch_search(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        probes: Option<usize>,
    ) -> Result<BatchResponse> {
        self.snapshot().batch_search(queries, k, probes)
    }

    /// Walks the whole catalog from one read snapshot and cross-checks
    /// every inter-table invariant (see the [module docs](crate::integrity)
    /// for the list). Returns the counters and violations; errors only
    /// on I/O or row-decoding failures that prevent the walk itself.
    pub fn verify_integrity(&self) -> Result<IntegrityReport> {
        self.snapshot().verify_integrity()
    }

    /// [`Snapshot::tree_fill`] at the current committed state.
    pub fn tree_fill(&self) -> Result<Vec<(String, Occupancy)>> {
        self.snapshot().tree_fill()
    }

    /// Number of stored vectors.
    pub fn len(&self) -> Result<u64> {
        self.snapshot().len()
    }

    /// True when no vectors are stored.
    pub fn is_empty(&self) -> Result<bool> {
        self.snapshot().is_empty()
    }
}

impl Snapshot {
    /// The commit sequence number this snapshot is pinned at. Two
    /// snapshots with equal seqs see bit-identical data.
    pub fn seq(&self) -> u64 {
        self.r.committed_snapshot().unwrap_or(0)
    }

    /// [`MicroNN::search`] at this snapshot.
    pub fn search(&self, query: &[f32], k: usize) -> Result<SearchResponse> {
        self.search_with(&SearchRequest::new(query.to_vec(), k))
    }

    /// Number of vectors visible at this snapshot.
    pub fn len(&self) -> Result<u64> {
        self.db.inner.tables.vector_count(&self.r)
    }

    /// True when no vectors are visible at this snapshot.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("seq", &self.seq())
            .finish()
    }
}
