//! The checkpoint: folding committed WAL records into the main file
//! when no reader holds an older snapshot, bounding WAL growth. Each
//! page copied records its image's seq as its main-file version.
//!
//! Under a durable [`SyncMode`] the order is: WAL fsync (only when the
//! group commit has not yet covered the watermark), main-file writes,
//! main-file fsync, WAL truncation and its fsync. No page reaches the
//! main file before the commit that wrote it is durable in the WAL.

use std::sync::Arc;

use super::readers::gc_page_versions;
use super::{Store, StoreInner, SyncMode};
use crate::error::Result;
use crate::page::PAGE_SIZE;
use crate::pool::Access;

impl Store {
    /// Attempts a checkpoint: folds committed WAL frames into the main
    /// file and truncates the WAL. Returns `true` if performed, `false`
    /// if skipped because a reader still needs an older snapshot or the
    /// WAL is empty. Takes the writer lock.
    pub fn checkpoint(&self) -> Result<bool> {
        let _guard = self.inner.writer.lock();
        checkpoint_locked(&self.inner)
    }
}

/// Folds WAL frames into the main file. Caller holds the writer lock.
pub(super) fn checkpoint_locked(inner: &StoreInner) -> Result<bool> {
    let mx = {
        let index = inner.wal.index();
        if index.frame_count() == 0 {
            return Ok(false);
        }
        index.committed_seq()
    };
    // A reader below the watermark would observe checkpointed (newer)
    // pages through its main-file fallback; refuse until it finishes.
    {
        let readers = inner.readers.lock();
        if let Some((&oldest, _)) = readers.iter().next() {
            if oldest < mx {
                return Ok(false);
            }
        }
    }
    let trace_start = inner.trace_start();
    let durable = !matches!(inner.opts.sync, SyncMode::Off);
    // Frames up to the watermark may be published but not yet synced:
    // the committer appends under the writer lock and joins the group
    // fsync after releasing it, and its auto-checkpoint runs in between.
    // A power cut could keep main-file writes of such a commit while
    // dropping its WAL records — half a transaction no recovery can
    // undo — so the WAL is synced first. A committer waiting on the
    // group fsync then finds its commit covered.
    let wal_synced = durable && inner.wal.sync_committed(mx)?;
    if wal_synced {
        inner.stats.syncs.inc();
    }
    let mut targets = inner.wal.index().latest_per_page(mx);
    // Ascending page order: better write locality, and — with the WAL
    // index map being unordered — a deterministic operation stream for
    // the crash-injection harness.
    targets.sort_unstable_by_key(|&(page, _, _)| page);
    for &(page, offset, seq) in &targets {
        // Scan access: folding frames back must not perturb which
        // entries the pool considers hot.
        let data = match inner.pool.get_with((page, seq), Access::Scan) {
            Some(d) => d,
            None => {
                inner.stats.wal_reads.inc();
                Arc::new(inner.wal.read_frame(offset)?)
            }
        };
        inner
            .main
            .write_all_at(&data[..], page as u64 * PAGE_SIZE as u64)?;
        inner.stats.main_writes.inc();
        inner.base_version.write().insert(page, seq);
    }
    // Make the file length match the committed page count even if the
    // tail pages were freed (never written back).
    let page_count = inner.committed.read().meta.page_count;
    let want_len = page_count as u64 * PAGE_SIZE as u64;
    if inner.main.len()? < want_len {
        inner.main.set_len(want_len)?;
    }
    if durable {
        // The main file must be durable before the WAL disappears.
        inner.main.sync()?;
        inner.stats.syncs.inc();
    }
    // The WAL's own fsync after truncation stays out of
    // `StoreStats::syncs` (see `IoStats::syncs`).
    inner.wal.reset(durable)?;
    inner.stats.checkpoints.inc();
    // Every live snapshot is at or above the watermark now, so cached
    // page versions superseded below it are unreachable: collect them.
    gc_page_versions(inner, mx);
    // The WAL's fsync when frames were still unsynced, the main
    // file's, then the WAL's after its truncation.
    let fsyncs = if durable {
        2 + u64::from(wal_synced)
    } else {
        0
    };
    inner.record_span(trace_start, "checkpoint", targets.len() as u64, fsyncs);
    Ok(true)
}
