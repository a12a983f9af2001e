//! Transaction model, readers: the registry of pinned snapshots, the
//! floor below which cached page versions are collected, and [`ReadTxn`].
//!
//! * [`Store::begin_read`] captures the WAL's committed sequence number
//!   as a snapshot, registering it in the reader registry *under the
//!   committed-state lock* so no commit/checkpoint pair can slip
//!   between capture and registration. Deregistration lives in a drop
//!   guard ([`ReadTxn`]'s only non-`Copy` field), so a panic or early
//!   return can never leak a registration and pin the snapshot floor
//!   forever.
//! * Readers never touch the writer mutex, so searches and maintenance
//!   never wait on each other.
//! * [`crate::WriteTxn::commit`] queues, under its commit seq, the
//!   version each page it publishes had at the transaction's begin
//!   snapshot; when the oldest registered snapshot advances (a reader
//!   guard drops) or a checkpoint ends, the commits at or below the new
//!   floor are popped and exactly their keys dropped (see
//!   [`crate::pool`]). A reader drop with nothing due touches neither
//!   the pool nor the committed-state lock.

use std::collections::btree_map::Entry;
use std::sync::Arc;

use super::resolve::{cached, cached_run, resolve, Run};
use super::{Meta, PageRead, Store, StoreInner};
use crate::error::{Result, StorageError};
use crate::page::{PageData, PageId};
use crate::pool::Access;

impl Store {
    /// Begins a snapshot-isolated read transaction. Never blocks: the
    /// snapshot is captured and registered while *holding* the
    /// committed-state read lock, so a commit + checkpoint pair cannot
    /// overwrite pages this snapshot resolves through the main file
    /// before the registration lands.
    pub fn begin_read(&self) -> ReadTxn {
        let committed = self.inner.committed.read();
        let snapshot = committed.seq;
        let meta = committed.meta;
        *self.inner.readers.lock().entry(snapshot).or_insert(0) += 1;
        drop(committed);
        self.inner.stats.reader_pins.inc();
        ReadTxn {
            guard: ReaderGuard {
                inner: Arc::clone(&self.inner),
                snapshot,
            },
            meta,
        }
    }

    /// Number of currently registered reader transactions. The stress
    /// suites assert this drains to zero — a leaked registration would
    /// pin the snapshot floor and block checkpoints forever.
    pub fn active_readers(&self) -> usize {
        self.inner.readers.lock().values().sum()
    }

    /// Oldest registered reader snapshot, if any reader is active.
    pub fn oldest_reader_snapshot(&self) -> Option<u64> {
        self.inner.readers.lock().keys().next().copied()
    }
}

/// Deregistration guard for one reader-registry entry. Created *before*
/// any fallible work in [`Store::begin_read`] and dropped exactly once
/// with the [`ReadTxn`], so no error or panic path can leave a stale
/// registration pinning the snapshot floor (which would block
/// checkpoints and version GC forever).
struct ReaderGuard {
    inner: Arc<StoreInner>,
    snapshot: u64,
}

impl Drop for ReaderGuard {
    fn drop(&mut self) {
        let inner = &*self.inner;
        // The floor when no reader remains. Read *before* deregistering
        // (a reader that registers after this line pins a snapshot at
        // or above it), never while holding `readers` (`begin_read`
        // takes that lock under the committed lock), and only when the
        // GC queue holds something that could be due.
        let committed = inner.pool.gc_pending().then(|| inner.committed.read().seq);
        let mut readers = inner.readers.lock();
        let was_oldest = readers.keys().next() == Some(&self.snapshot);
        if let Entry::Occupied(mut pins) = readers.entry(self.snapshot) {
            *pins.get_mut() -= 1;
            if *pins.get() == 0 {
                pins.remove();
            }
        }
        let oldest = readers.keys().next().copied();
        drop(readers);
        if let Some(committed) = committed.filter(|_| was_oldest && oldest != Some(self.snapshot)) {
            // The oldest snapshot moved up: page versions superseded at
            // or below the new floor are unreachable by every current
            // and future reader.
            gc_page_versions(inner, oldest.unwrap_or(committed).min(committed));
        }
    }
}

/// Drops the buffer-pool page versions superseded by commits at or
/// below `floor`, which must not exceed any registered snapshot (the
/// pool is a cache, so a too-high floor could only cost re-reads and a
/// late re-insert, never correctness — but the floors passed here are
/// exact). Passes that drop pages record a `version_gc` span.
pub(super) fn gc_page_versions(inner: &StoreInner, floor: u64) {
    let trace_start = inner.trace_start();
    let (examined, dropped) = inner.pool.gc(floor);
    inner.stats.version_gc_examined.add(examined as u64);
    if dropped > 0 {
        inner.stats.version_gc_pages.add(dropped as u64);
        inner.record_span(trace_start, "version_gc", dropped as u64, 0);
    }
}

/// A snapshot-isolated read transaction. `Sync`: one transaction can be
/// shared across the worker threads of a parallel partition scan so all
/// workers observe the same snapshot (Algorithm 2).
pub struct ReadTxn {
    guard: ReaderGuard,
    meta: Meta,
}

impl ReadTxn {
    /// The WAL sequence number this transaction reads at.
    pub fn snapshot(&self) -> u64 {
        self.guard.snapshot
    }

    /// Database page count visible to this snapshot.
    pub fn page_count(&self) -> u32 {
        self.meta.page_count
    }

    /// First page of the freelist at this snapshot (`0`: empty). Each
    /// free page links the next at byte offset 4.
    pub fn freelist_head(&self) -> PageId {
        self.meta.freelist_head
    }

    /// The store and snapshot to read page `id` at, if this snapshot
    /// has that page.
    fn at(&self, id: PageId) -> Result<(&StoreInner, u64)> {
        if id >= self.meta.page_count {
            return Err(StorageError::PageOutOfBounds(id));
        }
        Ok((&self.guard.inner, self.guard.snapshot))
    }
}

impl PageRead for ReadTxn {
    fn page(&self, id: PageId) -> Result<Arc<PageData>> {
        let (inner, snapshot) = self.at(id)?;
        resolve(inner, id, snapshot, Access::Point, None)
    }

    fn page_scan(&self, id: PageId) -> Result<Arc<PageData>> {
        let (inner, snapshot) = self.at(id)?;
        resolve(inner, id, snapshot, Access::Scan, None)
    }

    fn page_scan_run(
        &self,
        id: PageId,
        then: &mut dyn Iterator<Item = PageId>,
        ahead: &mut Vec<(PageId, Arc<PageData>)>,
    ) -> Result<Arc<PageData>> {
        let (inner, snapshot) = self.at(id)?;
        let run = Run {
            then,
            ahead,
            page_count: self.meta.page_count,
        };
        if let Ok(hit) = cached(inner, id, snapshot, Access::Scan) {
            cached_run(inner, snapshot, Access::Scan, run);
            return Ok(hit);
        }
        resolve(inner, id, snapshot, Access::Scan, Some(run))
    }

    fn root(&self, slot: usize) -> PageId {
        self.meta.roots[slot]
    }

    fn committed_snapshot(&self) -> Option<u64> {
        Some(self.guard.snapshot)
    }
}
