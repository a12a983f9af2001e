//! Transaction model, the writer: what [`WriteTxn`] logs, and when its
//! commit is acknowledged.
//!
//! [`Store::begin_write`] allocates a transaction id and takes the
//! writer mutex (write transactions are fully serialized, as in the
//! paper). Mutations are copy-on-write into a private dirty set;
//! [`WriteTxn::commit`] appends the pages whose bytes changed to the WAL
//! as one `Begin`/`PagePut`.../`Commit` record run and returns the
//! commit sequence number. A dirty page still equal to its
//! begin-snapshot image is not logged, and the header page is logged
//! only when the page count, freelist or roots moved (or the transaction
//! spilled). Dropping the transaction without committing discards it
//! (rollback).
//!
//! ## Durability
//!
//! Both files are accessed exclusively through the [`crate::vfs::Vfs`]
//! layer. Under [`SyncMode::Normal`] every commit publishes its frames
//! under the writer lock, then — with the lock released — joins a
//! **group fsync** ([`crate::wal::Wal`]'s group commit) before
//! acknowledging. A checkpoint — the auto-checkpoint a commit runs
//! between its append and its group fsync included — syncs the WAL
//! before it copies a page into the main file, and the main file
//! before it truncates the log, so the main file never holds a page
//! of a commit that a power cut could still drop from the WAL. This
//! ordering is what the crash-injection harness
//! ([`crate::sim::SimVfs`], the `failure_injection` suite, and
//! `crates/core/tests/crash_recovery.rs` above this crate) verifies by
//! cutting power at every write and fsync and dropping arbitrary
//! subsets of unsynced writes: an acknowledged commit is always
//! durable, while a published-but-unsynced commit may be lost (it was
//! never acked).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use super::checkpoint::checkpoint_locked;
use super::resolve::{cached, load, load_page, resolve, resolve_version, Run};
use super::{Meta, PageRead, Store, StoreInner, SyncMode};
use crate::error::{Result, StorageError};
use crate::hash::PageMap;
use crate::page::{page_type, PageData, PageId};
use crate::pool::{Access, PoolKey};

impl Store {
    /// Begins the (single) write transaction, blocking until any other
    /// writer finishes. Reads within the transaction see the latest
    /// committed state plus the transaction's own writes.
    pub fn begin_write(&self) -> Result<WriteTxn> {
        // Contended acquisitions are tallied: on the intended hot path
        // only writers and checkpoints ever touch this mutex, so the
        // counter staying flat proves readers never block a writer.
        let guard = match Mutex::try_lock_arc(&self.inner.writer) {
            Some(g) => g,
            None => {
                self.inner.stats.writer_lock_waits.inc();
                Mutex::lock_arc(&self.inner.writer)
            }
        };
        // Defensive: discard unpublished records a crashed/aborted
        // spilling transaction may have left behind.
        self.inner.wal.truncate_unpublished()?;
        let txid = self.inner.next_txid.fetch_add(1, Ordering::Relaxed);
        let committed = self.inner.committed.read();
        let snapshot = committed.seq;
        let meta = committed.meta;
        drop(committed);
        Ok(WriteTxn {
            inner: Arc::clone(&self.inner),
            _guard: guard,
            txid,
            snapshot,
            begin_meta: meta,
            meta,
            dirty: PageMap::default(),
            pre: PageMap::default(),
            spilled: PageMap::default(),
            done: false,
        })
    }
}

/// The exclusive write transaction. Mutations are copy-on-write into a
/// private dirty set; nothing is visible to readers until
/// [`WriteTxn::commit`] publishes the batch atomically via the WAL.
pub struct WriteTxn {
    inner: Arc<StoreInner>,
    _guard: parking_lot::ArcMutexGuard<parking_lot::RawMutex, ()>,
    /// Transaction id stamped into this transaction's WAL records.
    txid: u64,
    snapshot: u64,
    /// Header metadata at the begin snapshot: commit writes the header
    /// page only when `meta` has moved away from it.
    begin_meta: Meta,
    meta: Meta,
    dirty: PageMap<PageId, Arc<PageData>>,
    /// The begin-snapshot image of each dirty page [`WriteTxn::page_mut`]
    /// copied in: commit drops a dirty page still equal to it. Allocated,
    /// freed and spilled pages have none, and a spill clears the map.
    pre: PageMap<PageId, Arc<PageData>>,
    /// Pages spilled to unpublished WAL records: `page -> image offset`.
    spilled: PageMap<PageId, u64>,
    done: bool,
}

impl WriteTxn {
    /// The committed sequence number this transaction started from.
    pub fn snapshot(&self) -> u64 {
        self.snapshot
    }

    /// Mutable access to a page, copying it into the dirty set on first
    /// touch.
    pub fn page_mut(&mut self, id: PageId) -> Result<&mut PageData> {
        if !self.dirty.contains_key(&id) {
            self.maybe_spill()?;
            let data = self.read_page_internal(id)?;
            if !self.spilled.contains_key(&id) {
                self.pre.insert(id, Arc::clone(&data));
            }
            self.dirty.insert(id, data);
        }
        let arc = self.dirty.get_mut(&id).expect("just inserted");
        Ok(Arc::make_mut(arc))
    }

    /// Cache spill: once the in-memory dirty set exceeds the configured
    /// budget, append it to the WAL *without* a commit marker. Readers
    /// cannot see spilled frames; crash recovery discards them; commit
    /// publishes them atomically together with the final batch.
    fn maybe_spill(&mut self) -> Result<()> {
        let threshold = self.inner.opts.spill_after_pages;
        if threshold == 0 || self.dirty.len() < threshold {
            return Ok(());
        }
        self.pre.clear();
        let mut pages: Vec<(PageId, Arc<PageData>)> = self.dirty.drain().collect();
        pages.sort_by_key(|(id, _)| *id);
        let refs: Vec<(PageId, &PageData)> = pages.iter().map(|(id, p)| (*id, &**p)).collect();
        let placed = self.inner.wal.spill(self.txid, &refs)?;
        self.inner.stats.wal_writes.add(refs.len() as u64);
        for ((id, _), (offset, _seq)) in pages.iter().zip(placed) {
            self.spilled.insert(*id, offset);
        }
        Ok(())
    }

    /// Allocates a page (reusing the freelist when possible) and
    /// returns its id with a zeroed image in the dirty set.
    ///
    /// A freelist head that is not a free page, links past the end of
    /// the file, or outnumbers the free-page count is a
    /// [`StorageError::Corrupt`]: handing such a page out would zero
    /// whatever lives there at commit.
    pub fn allocate_page(&mut self) -> Result<PageId> {
        self.inner.stats.pages_allocated.inc();
        self.maybe_spill()?;
        if self.meta.freelist_head != 0 {
            let id = self.meta.freelist_head;
            let head = self.read_page_internal(id)?;
            let next = head.get_u32(4);
            if head.page_type() != page_type::FREE
                || next >= self.meta.page_count
                || self.meta.freelist_count == 0
            {
                return Err(StorageError::Corrupt(format!(
                    "freelist head {id}: type {}, next {next}, {} free pages counted",
                    head.page_type(),
                    self.meta.freelist_count
                )));
            }
            self.meta.freelist_head = next;
            self.meta.freelist_count -= 1;
            self.claim_page(id)?;
            return Ok(id);
        }
        let id = self.meta.page_count;
        self.meta.page_count += 1;
        self.dirty.insert(id, Arc::new(PageData::zeroed()));
        Ok(id)
    }

    /// Gives page `id` — one the caller owns, such as a page of a tree
    /// it is rewriting — a zeroed image in the dirty set without reading
    /// what it held: the state [`WriteTxn::allocate_page`] leaves a page
    /// in.
    pub fn claim_page(&mut self, id: PageId) -> Result<()> {
        debug_assert_ne!(id, 0, "the header page is never claimed");
        if id >= self.meta.page_count {
            return Err(StorageError::PageOutOfBounds(id));
        }
        self.maybe_spill()?;
        self.pre.remove(&id);
        self.dirty.insert(id, Arc::new(PageData::zeroed()));
        Ok(())
    }

    /// Returns a page to the freelist.
    pub fn free_page(&mut self, id: PageId) -> Result<()> {
        debug_assert_ne!(id, 0, "header page is never freed");
        self.inner.stats.pages_freed.inc();
        self.maybe_spill()?;
        let next = self.meta.freelist_head;
        let mut p = PageData::zeroed();
        p[0] = page_type::FREE;
        p.put_u32(4, next);
        self.pre.remove(&id);
        self.dirty.insert(id, Arc::new(p));
        self.meta.freelist_head = id;
        self.meta.freelist_count += 1;
        Ok(())
    }

    /// Stores a B+tree root id in header slot `slot`.
    pub fn set_root(&mut self, slot: usize, root: PageId) {
        self.meta.roots[slot] = root;
    }

    /// Database page count as seen by this transaction (including
    /// allocations it has made).
    pub fn page_count(&self) -> u32 {
        self.meta.page_count
    }

    fn read_page_internal(&self, id: PageId) -> Result<Arc<PageData>> {
        if let Some(p) = self.dirty.get(&id) {
            return Ok(Arc::clone(p));
        }
        if let Some(&offset) = self.spilled.get(&id) {
            self.inner.stats.wal_reads.inc();
            return Ok(Arc::new(load_page(&self.inner, id, Some(offset))?));
        }
        if id >= self.meta.page_count {
            return Err(StorageError::PageOutOfBounds(id));
        }
        resolve(&self.inner, id, self.snapshot, Access::Point)
    }

    /// Atomically publishes all dirty pages (including any spilled
    /// earlier), then joins the group fsync (under [`SyncMode::Normal`]
    /// and up) before acknowledging. The writer lock is released before
    /// the fsync wait, so the next committer appends concurrently and
    /// shares a sync with this one instead of issuing its own.
    ///
    /// Only pages whose bytes changed are logged: a dirty page equal to
    /// its begin-snapshot image is dropped, and the header page is
    /// written only when the meta (page count, freelist, roots) moved or
    /// the transaction spilled. The newest header image on disk therefore
    /// always carries the committed meta, which is what reopen reads.
    ///
    /// Returns the commit sequence number — the snapshot at which this
    /// transaction's effects become visible. A transaction left with
    /// nothing to log commits as a no-op and returns its begin snapshot.
    pub fn commit(mut self) -> Result<u64> {
        let touched = !self.dirty.is_empty() || !self.spilled.is_empty();
        let pre = std::mem::take(&mut self.pre);
        let before = self.dirty.len();
        self.dirty
            .retain(|id, data| pre.get(id).map_or(true, |old| old != data));
        let mut elided = before - self.dirty.len();
        if self.meta != self.begin_meta || !self.spilled.is_empty() {
            let mut header = PageData::zeroed();
            self.meta.encode(&mut header);
            self.dirty.insert(0, Arc::new(header));
        } else if touched {
            elided += 1;
        }
        self.inner.stats.commit_pages_elided.add(elided as u64);
        if self.dirty.is_empty() {
            self.done = true;
            return Ok(self.snapshot);
        }
        let trace_start = self.inner.trace_start();

        let mut pages: Vec<(PageId, Arc<PageData>)> = self.dirty.drain().collect();
        pages.sort_by_key(|(id, _)| *id);
        let refs: Vec<(PageId, &PageData)> = pages.iter().map(|(id, p)| (*id, &**p)).collect();
        let (commit_seq, placed) =
            self.inner
                .wal
                .append_commit(self.txid, &refs, self.meta.page_count)?;
        let frames = refs.len() as u64;
        self.inner.stats.wal_writes.add(frames);
        self.inner.stats.commits.inc();

        // Warm the pool with the images we just wrote, keyed at each
        // record's own seq: the next reads of these pages are
        // near-certain. What each page (dirty, spilled, or both: queued
        // once) resolved to under the begin snapshot is unreachable once
        // the floor reaches this commit: queue it before the commit
        // becomes visible below, so no reader can pin (and release) the
        // commit ahead of its GC entry.
        let prev = |id: PageId| (id, resolve_version(&self.inner, id, self.snapshot).0);
        let mut superseded: Vec<PoolKey> = Vec::with_capacity(pages.len() + self.spilled.len());
        for ((id, data), (_offset, seq)) in pages.into_iter().zip(placed) {
            self.spilled.remove(&id);
            superseded.push(prev(id));
            self.inner.pool.insert((id, seq), data);
        }
        superseded.extend(self.spilled.keys().map(|&id| prev(id)));
        self.inner.pool.note_superseded(commit_seq, superseded);

        {
            let mut committed = self.inner.committed.write();
            committed.seq = commit_seq;
            committed.meta = self.meta;
        }
        self.done = true;

        // Opportunistic auto-checkpoint while we still hold the writer
        // lock. It syncs the WAL through this commit before touching
        // the main file, so the group-sync wait below returns at once.
        let threshold = self.inner.opts.checkpoint_after_frames;
        if threshold > 0 && self.inner.wal.index().frame_count() >= threshold {
            let _ = checkpoint_locked(&self.inner)?;
        }

        // Release the writer lock (Drop is a no-op now that `done` is
        // set), then make the commit durable before acknowledging. An
        // error here means *unacked*, not rolled back: the commit is
        // published and will survive unless power is lost.
        let inner = Arc::clone(&self.inner);
        let sync_off = matches!(inner.opts.sync, SyncMode::Off);
        drop(self);
        let issued = !sync_off && inner.wal.sync_committed(commit_seq)?;
        if issued {
            inner.stats.syncs.inc();
        }
        // The span covers append + publish + group-fsync wait; no
        // fsync under SyncMode::Off or when a concurrent leader's sync
        // covered this commit (group commit).
        inner.record_span(trace_start, "wal_group_commit", frames, u64::from(issued));
        Ok(commit_seq)
    }

    /// Explicit rollback; equivalent to dropping the transaction, which
    /// is what it does.
    pub fn rollback(self) {}
}

impl PageRead for WriteTxn {
    fn page(&self, id: PageId) -> Result<Arc<PageData>> {
        self.read_page_internal(id)
    }

    fn page_scan_run(
        &self,
        id: PageId,
        then: &mut dyn Iterator<Item = PageId>,
        ahead: &mut Vec<(PageId, Arc<PageData>)>,
    ) -> Result<Arc<PageData>> {
        let own = |id: &PageId| self.dirty.contains_key(id) || self.spilled.contains_key(id);
        if own(&id) || id >= self.meta.page_count {
            return self.read_page_internal(id);
        }
        let miss = match cached(&self.inner, id, self.snapshot, Access::Point) {
            Ok(hit) => return Ok(hit),
            Err(miss) => miss,
        };
        let run = Run {
            then: &mut then.take_while(|id| !own(id)),
            ahead,
            page_count: self.meta.page_count,
        };
        load(
            &self.inner,
            id,
            self.snapshot,
            Access::Point,
            miss,
            Some(run),
        )
    }

    fn root(&self, slot: usize) -> PageId {
        self.meta.roots[slot]
    }
}

impl Drop for WriteTxn {
    fn drop(&mut self) {
        // Uncommitted changes evaporate: in-memory pages are dropped
        // and spilled (unpublished) WAL frames are truncated away.
        if !self.done && !self.spilled.is_empty() {
            let _ = self.inner.wal.truncate_unpublished();
        }
    }
}
