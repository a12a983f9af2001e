//! The page store: single-writer / multi-reader transactions over a
//! paged file with a write-ahead log and a bounded buffer pool.
//!
//! This is the component the paper obtains from SQLite (§3.2): MicroNN
//! "allows concurrent clients: a single writer (performing upserts,
//! deletes, and index rebuilds) and multiple readers across threads",
//! each reader seeing a snapshot-isolated view (§2.1 requirement 2).
//!
//! This module opens and creates a [`Store`] and owns the header
//! format. Each submodule owns one decision: `resolve`, which version of
//! a page a snapshot sees and how its image reaches the pool; `readers`,
//! the registry behind [`ReadTxn`] and the version-GC floor; `txn`, what
//! a [`WriteTxn`] logs; `checkpoint`, folding the WAL into the main file.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use micronn_telemetry::{SinkCell, Span};
use parking_lot::{Mutex, RwLock};

use crate::error::{Result, StorageError};
use crate::hash::PageMap;
use crate::page::{PageData, PageId, PAGE_SIZE};
use crate::pool::BufferPool;
use crate::stats::{IoStats, StoreStats};
use crate::vfs::{OpenMode, StdVfs, Vfs, VfsFile};
use crate::wal::Wal;

mod checkpoint;
mod readers;
mod resolve;
mod txn;

pub use readers::ReadTxn;
pub use txn::WriteTxn;

/// Magic prefix of the main database file.
const DB_MAGIC: u64 = 0x4D49_4352_4F4E_4E31; // "MICRONN1"
/// On-disk format version.
const DB_FORMAT: u32 = 1;

/// Number of named B+tree root slots in the header page. The relational
/// layer uses slot 0 for its catalog; the rest are spare.
pub const NUM_ROOTS: usize = 8;

// Header-page field offsets.
const OFF_MAGIC: usize = 0;
const OFF_FORMAT: usize = 8;
const OFF_PAGE_COUNT: usize = 12;
const OFF_FREELIST_HEAD: usize = 16;
const OFF_FREELIST_COUNT: usize = 20;
const OFF_ROOTS: usize = 24;

/// Durability level for commits and checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Never fsync. Fast; safe against process crash (the WAL is still
    /// written) but not against power loss. Used by tests and benches.
    Off,
    /// Group-fsync the WAL before acknowledging each commit, and sync
    /// the main file before WAL truncation. Survives power loss. The
    /// default.
    Normal,
    /// Like `Normal` plus an fsync of the WAL header on creation and
    /// the main file on every checkpoint write batch.
    Full,
}

/// Tunables for opening a [`Store`].
#[derive(Clone)]
pub struct StoreOptions {
    /// Buffer-pool budget in bytes. This is the paper's main memory
    /// lever: the "Small DUT" and "Large DUT" profiles differ in pool
    /// size (Figures 4, 5, 8).
    pub pool_bytes: usize,
    /// Durability mode.
    pub sync: SyncMode,
    /// Auto-checkpoint once the WAL holds at least this many frames
    /// (checked after each commit). `0` disables auto-checkpointing.
    pub checkpoint_after_frames: usize,
    /// Write transactions spill dirty pages to the WAL (unpublished,
    /// invisible to readers) once this many are held in memory, so even
    /// a full index rebuild runs in bounded memory — the same cache
    /// spill SQLite performs for transactions larger than its page
    /// cache. `0` disables spilling.
    pub spill_after_pages: usize,
    /// Ignored: the store has no readahead worker and reads every page
    /// on the thread that needs it. Kept, defaulting to `0`, only so
    /// callers that still set it compile; the next benchmark change
    /// (ROADMAP item 11(e)) removes it.
    pub prefetch_queue_pages: usize,
    /// The file system every byte of store I/O goes through:
    /// [`StdVfs`] in production, [`crate::sim::SimVfs`] in the
    /// crash-injection harnesses.
    pub vfs: Arc<dyn Vfs>,
    /// Mount point for span tracing: WAL group commits and checkpoints
    /// record [`micronn_telemetry::Span`]s (duration, bytes, fsyncs)
    /// when a sink is installed. Disabled (and overhead-free) by
    /// default; the layer above typically shares one cell across the
    /// store and the query executor.
    pub trace: Arc<SinkCell>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            pool_bytes: 8 * 1024 * 1024,
            sync: SyncMode::Normal,
            checkpoint_after_frames: 2048,
            spill_after_pages: 4096,
            prefetch_queue_pages: 0,
            vfs: StdVfs::handle(),
            trace: Arc::new(SinkCell::new()),
        }
    }
}

impl std::fmt::Debug for StoreOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreOptions")
            .field("pool_bytes", &self.pool_bytes)
            .field("sync", &self.sync)
            .field("checkpoint_after_frames", &self.checkpoint_after_frames)
            .field("spill_after_pages", &self.spill_after_pages)
            .field("vfs", &self.vfs.name())
            .field("trace", &self.trace.enabled())
            .finish()
    }
}

/// Durable header metadata, mirrored in memory for fast access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Meta {
    page_count: u32,
    freelist_head: u32,
    freelist_count: u32,
    roots: [u32; NUM_ROOTS],
}

impl Meta {
    fn fresh() -> Meta {
        Meta {
            page_count: 1, // page 0 is the header
            freelist_head: 0,
            freelist_count: 0,
            roots: [0; NUM_ROOTS],
        }
    }

    fn decode(p: &PageData) -> Result<Meta> {
        if p.get_u64(OFF_MAGIC) != DB_MAGIC {
            return Err(StorageError::BadHeader("magic mismatch".into()));
        }
        if p.get_u32(OFF_FORMAT) != DB_FORMAT {
            return Err(StorageError::BadHeader(format!(
                "format {} unsupported",
                p.get_u32(OFF_FORMAT)
            )));
        }
        let mut roots = [0u32; NUM_ROOTS];
        for (i, r) in roots.iter_mut().enumerate() {
            *r = p.get_u32(OFF_ROOTS + i * 4);
        }
        let meta = Meta {
            page_count: p.get_u32(OFF_PAGE_COUNT),
            freelist_head: p.get_u32(OFF_FREELIST_HEAD),
            freelist_count: p.get_u32(OFF_FREELIST_COUNT),
            roots,
        };
        // An empty freelist has neither a head nor a count; a non-empty
        // one has both, and its head is a page of the file.
        if meta.freelist_head >= meta.page_count
            || (meta.freelist_head == 0) != (meta.freelist_count == 0)
        {
            return Err(StorageError::BadHeader(format!(
                "freelist head {} with {} free pages in a {}-page file",
                meta.freelist_head, meta.freelist_count, meta.page_count
            )));
        }
        Ok(meta)
    }

    fn encode(&self, p: &mut PageData) {
        p.put_u64(OFF_MAGIC, DB_MAGIC);
        p.put_u32(OFF_FORMAT, DB_FORMAT);
        p.put_u32(OFF_PAGE_COUNT, self.page_count);
        p.put_u32(OFF_FREELIST_HEAD, self.freelist_head);
        p.put_u32(OFF_FREELIST_COUNT, self.freelist_count);
        for (i, r) in self.roots.iter().enumerate() {
            p.put_u32(OFF_ROOTS + i * 4, *r);
        }
    }
}

/// Committed state published to new transactions.
struct Committed {
    seq: u64,
    meta: Meta,
}

struct StoreInner {
    main: Box<dyn VfsFile>,
    path: PathBuf,
    wal: Wal,
    pool: BufferPool,
    stats: IoStats,
    opts: StoreOptions,
    committed: RwLock<Committed>,
    /// Single-writer token; held for the lifetime of a [`WriteTxn`].
    writer: Arc<Mutex<()>>,
    /// Write-transaction id allocator; ids are process-local and only
    /// need to be unique, not dense.
    next_txid: AtomicU64,
    /// Active reader snapshots: `snapshot -> count`.
    readers: Mutex<BTreeMap<u64, usize>>,
    /// For each page copied into the main file by a checkpoint, the WAL
    /// seq of the image now in the main file. Pages absent here carry
    /// version `0` (unchanged since open).
    base_version: RwLock<PageMap<PageId, u64>>,
}

impl StoreInner {
    /// Wires up a store over an opened main file and WAL, committed at
    /// the WAL's last commit with a fresh header; `syncs` is what
    /// opening them fsynced, the first entry of the tally.
    fn new(
        main: Box<dyn VfsFile>,
        path: PathBuf,
        wal: Wal,
        syncs: u64,
        opts: StoreOptions,
    ) -> Self {
        let stats = IoStats::default();
        stats.syncs.add(syncs);
        let seq = wal.index().committed_seq();
        StoreInner {
            main,
            path,
            pool: BufferPool::new(opts.pool_bytes),
            stats,
            committed: RwLock::new(Committed {
                seq,
                meta: Meta::fresh(),
            }),
            writer: Arc::new(Mutex::new(())),
            next_txid: AtomicU64::new(1),
            readers: Mutex::new(BTreeMap::new()),
            base_version: RwLock::new(PageMap::default()),
            wal,
            opts,
        }
    }

    /// Start of a traced region; `None` (no clock read) when disabled.
    fn trace_start(&self) -> Option<Instant> {
        self.opts.trace.enabled().then(Instant::now)
    }

    /// Records the region begun at `t0` as a span over `pages` images.
    fn record_span(&self, t0: Option<Instant>, name: &'static str, pages: u64, fsyncs: u64) {
        if let Some(t0) = t0 {
            self.opts.trace.record(Span {
                bytes: pages * PAGE_SIZE as u64,
                items: pages,
                fsyncs,
                ..Span::new(name, t0.elapsed())
            });
        }
    }
}

/// Read access to pages at some transaction's snapshot. Implemented by
/// both [`ReadTxn`] and [`WriteTxn`] so the B+tree and everything above
/// it work identically in either context.
pub trait PageRead {
    /// Fetches the page image visible to this transaction.
    fn page(&self, id: PageId) -> Result<Arc<PageData>>;
    /// Like [`PageRead::page`], but tagged as part of a bulk scan:
    /// implementations backed by a cache admit the image with the
    /// scan hint so sweeps cannot displace the hot working set.
    fn page_scan(&self, id: PageId) -> Result<Arc<PageData>> {
        self.page(id)
    }
    /// [`PageRead::page_scan`] for the leaf a range scan walks onto
    /// next, given the leaves it walks onto after that, in order
    /// (`then`). A store may hand over some of those with `id`, pushed
    /// in order onto `ahead`, from where the caller takes them instead
    /// of fetching them. When it misses `id` in its cache, it may read
    /// the file-adjacent ones in the same I/O, caching each and counting
    /// it as a miss. When it hits `id`, it may take the ones it has
    /// cached, up to the first it has not, counting each as a hit; the
    /// caller fetches that one itself. Either way a page counts what it
    /// would fetched alone. The default reads `id` alone.
    fn page_scan_run(
        &self,
        id: PageId,
        then: &mut dyn Iterator<Item = PageId>,
        ahead: &mut Vec<(PageId, Arc<PageData>)>,
    ) -> Result<Arc<PageData>> {
        let _ = (then, ahead);
        self.page_scan(id)
    }
    /// Root page stored in header slot `slot`.
    fn root(&self, slot: usize) -> PageId;
    /// When this transaction's view is *exactly* the committed state at
    /// some sequence number, that number; `None` for views that may
    /// include uncommitted mutations (write transactions). Snapshot-
    /// keyed caches above the store use this to decide whether a value
    /// derived through this view may be published for other readers.
    fn committed_snapshot(&self) -> Option<u64> {
        None
    }
}

impl<R: PageRead + ?Sized> PageRead for &R {
    fn page(&self, id: PageId) -> Result<Arc<PageData>> {
        (**self).page(id)
    }
    fn page_scan(&self, id: PageId) -> Result<Arc<PageData>> {
        (**self).page_scan(id)
    }
    fn page_scan_run(
        &self,
        id: PageId,
        then: &mut dyn Iterator<Item = PageId>,
        ahead: &mut Vec<(PageId, Arc<PageData>)>,
    ) -> Result<Arc<PageData>> {
        (**self).page_scan_run(id, then, ahead)
    }
    fn root(&self, slot: usize) -> PageId {
        (**self).root(slot)
    }
    fn committed_snapshot(&self) -> Option<u64> {
        (**self).committed_snapshot()
    }
}

/// An embedded, WAL-backed page store. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Store {
    inner: Arc<StoreInner>,
}

impl Store {
    /// Creates a new database at `path` (fails if it already exists).
    pub fn create(path: impl AsRef<Path>, opts: StoreOptions) -> Result<Store> {
        let path = path.as_ref().to_owned();
        let main = opts.vfs.open(&path, OpenMode::CreateNew)?;
        let mut header = PageData::zeroed();
        Meta::fresh().encode(&mut header);
        main.write_all_at(&header[..], 0)?;
        let durable = !matches!(opts.sync, SyncMode::Off);
        if durable {
            main.sync()?;
        }
        let full = matches!(opts.sync, SyncMode::Full);
        let wal = Wal::create(&*opts.vfs, &wal_path(&path), full)?;
        let syncs = u64::from(durable) + u64::from(full);
        Ok(Store {
            inner: Arc::new(StoreInner::new(main, path, wal, syncs, opts)),
        })
    }

    /// Opens an existing database, running WAL crash recovery.
    pub fn open(path: impl AsRef<Path>, opts: StoreOptions) -> Result<Store> {
        let path = path.as_ref().to_owned();
        let main = opts.vfs.open(&path, OpenMode::Open)?;
        let full = matches!(opts.sync, SyncMode::Full);
        let opened = Wal::open(&*opts.vfs, &wal_path(&path), full)?;
        let seq = opened.wal.index().committed_seq();
        let mut inner = StoreInner::new(main, path, opened.wal, opened.syncs, opts);
        // The authoritative header is page 0 as the committed snapshot
        // sees it, read like any other page: a file too short to hold
        // it is corrupt, not an I/O error.
        let (_, from_wal) = resolve::resolve_version(&inner, 0, seq);
        let header = resolve::load_page(&inner, 0, from_wal)?;
        inner.committed.get_mut().meta = Meta::decode(&header)?;
        Ok(Store {
            inner: Arc::new(inner),
        })
    }

    /// Latest committed sequence number (the snapshot a read
    /// transaction beginning now would pin).
    pub fn committed_seq(&self) -> u64 {
        self.inner.committed.read().seq
    }

    /// Current I/O counters. Evictions are tallied inside the pool;
    /// surface them here so stats deltas report cache pressure.
    pub fn stats(&self) -> StoreStats {
        let mut s = self.inner.stats.snapshot();
        s.pool_evictions = self.inner.pool.evictions();
        s
    }

    /// The live counter block behind [`Store::stats`], for
    /// re-registration into a [`micronn_telemetry::Registry`]
    /// (see [`IoStats::register_into`]). Note `pool_evictions` is
    /// tallied inside the pool and only folded in by [`Store::stats`].
    pub fn io(&self) -> &IoStats {
        &self.inner.stats
    }

    /// Bytes of page images resident in the buffer pool.
    pub fn resident_bytes(&self) -> usize {
        self.inner.pool.resident_bytes()
    }

    /// Drops all cached pages (the paper's ColdStart scenario).
    pub fn purge_cache(&self) {
        self.inner.pool.purge();
    }

    /// Database size in pages (latest committed).
    pub fn page_count(&self) -> u32 {
        self.inner.committed.read().meta.page_count
    }

    /// Pages sitting on the freelist (latest committed).
    pub fn freelist_len(&self) -> u32 {
        self.inner.committed.read().meta.freelist_count
    }

    /// Frames currently in the WAL.
    pub fn wal_frames(&self) -> usize {
        self.inner.wal.index().frame_count()
    }

    /// Path of the main database file.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// Flushes everything to the main file and syncs (best effort if
    /// readers pin old snapshots). Call before dropping for a tidy
    /// single-file database; not required for durability.
    pub fn close(self) -> Result<()> {
        let _ = self.checkpoint()?;
        Ok(())
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("path", &self.inner.path)
            .field("pages", &self.page_count())
            .finish()
    }
}

fn wal_path(main: &Path) -> PathBuf {
    let mut os = main.as_os_str().to_owned();
    os.push("-wal");
    PathBuf::from(os)
}

#[cfg(test)]
mod gc_tests;

#[cfg(test)]
mod tests;
