//! The page store: single-writer / multi-reader transactions over a
//! paged file with a write-ahead log and a bounded buffer pool.
//!
//! This is the component the paper obtains from SQLite (§3.2): MicroNN
//! "allows concurrent clients: a single writer (performing upserts,
//! deletes, and index rebuilds) and multiple readers across threads",
//! each reader seeing a snapshot-isolated view (§2.1 requirement 2).
//!
//! ## Transaction model (MVCC)
//!
//! * [`Store::begin_read`] captures the WAL's committed sequence number
//!   as a snapshot, registering it in the reader registry *under the
//!   committed-state lock* so no commit/checkpoint pair can slip
//!   between capture and registration. Page reads resolve to the
//!   newest WAL record at or below the snapshot, else the main file.
//!   Deregistration lives in a drop guard ([`ReadTxn`]'s only
//!   non-`Copy` field), so a panic or early return can never leak a
//!   registration and pin the snapshot floor forever.
//! * [`Store::begin_write`] allocates a transaction id and takes the
//!   writer mutex (write transactions are fully serialized, as in the
//!   paper); readers never touch that mutex, so searches and
//!   maintenance never wait on each other. Mutations are copy-on-write
//!   into a private dirty set; [`WriteTxn::commit`] appends the pages
//!   whose bytes changed to the WAL as one `Begin`/`PagePut`.../`Commit`
//!   record run and returns the commit sequence number. A dirty page
//!   still equal to its begin-snapshot image is not logged, and the
//!   header page is logged only when the page count, freelist or roots
//!   moved (or the transaction spilled). Dropping the transaction
//!   without committing discards it (rollback).
//! * The buffer pool keys entries by `(page, version)`, so many
//!   versions of one page coexist. [`WriteTxn::commit`] queues, under
//!   its commit seq, the version each page it publishes had at the
//!   transaction's begin snapshot; when the oldest registered snapshot
//!   advances (a reader guard drops) or a checkpoint ends, the commits
//!   at or below the new floor are popped and exactly their keys
//!   dropped (see [`crate::pool`]). A reader drop with nothing due
//!   touches neither the pool nor the committed-state lock.
//! * A checkpoint folds committed records into the main file when no
//!   reader holds an older snapshot, bounding WAL growth.
//!
//! ## Durability
//!
//! Both files are accessed exclusively through the
//! [`crate::vfs::Vfs`] layer. Under [`SyncMode::Normal`] every
//! commit publishes its frames under the writer lock, then — with the
//! lock released — joins a **group fsync** ([`crate::wal::Wal`]'s
//! group commit) before acknowledging; a checkpoint syncs the main
//! file before truncating the log. This ordering is what the
//! crash-injection harness ([`crate::sim::SimVfs`], the
//! `failure_injection` suite, and `crates/core/tests/crash_recovery.rs`
//! above this crate) verifies by cutting power at every write and
//! fsync and dropping arbitrary subsets of unsynced writes: an
//! acknowledged commit is always durable, while a published-but-
//! unsynced commit may be lost (it was never acked).
//!
//! ## Reads
//!
//! Every page is read on the thread that needs it: a buffer-pool miss
//! is served by the transaction that hit it, and a `Store` spawns no
//! thread of its own. Scans tag their reads `Scan` so sweeps recycle
//! the pool's probationary window instead of the hot set.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use micronn_telemetry::{SinkCell, Span};
use parking_lot::{Mutex, RwLock};

use crate::btree::node;
use crate::error::{Result, StorageError};
use crate::hash::PageMap;
use crate::page::page_type;
use crate::page::{PageData, PageId, PAGE_SIZE};
use crate::pool::{Access, BufferPool, PoolKey};
use crate::stats::{IoStats, StoreStats};
use crate::vfs::{OpenMode, StdVfs, Vfs, VfsFile};
use crate::wal::Wal;

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
        let meta = Meta::fresh();
        let mut header = PageData::zeroed();
        meta.encode(&mut header);
        main.write_all_at(&header[..], 0)?;
        let durable = !matches!(opts.sync, SyncMode::Off);
        if durable {
            main.sync()?;
        }
        let full = matches!(opts.sync, SyncMode::Full);
        let wal = Wal::create(&*opts.vfs, &wal_path(&path), full)?;
        let syncs = u64::from(durable) + u64::from(full);
        Ok(Store::assemble(main, path, wal, meta, 0, syncs, opts))
    }

    /// Opens an existing database, running WAL crash recovery.
    pub fn open(path: impl AsRef<Path>, opts: StoreOptions) -> Result<Store> {
        let path = path.as_ref().to_owned();
        let main = opts.vfs.open(&path, OpenMode::Open)?;
        let opened = Wal::open(
            &*opts.vfs,
            &wal_path(&path),
            matches!(opts.sync, SyncMode::Full),
        )?;
        let wal = opened.wal;
        // The authoritative header is the newest committed version of
        // page 0, which may live in the WAL.
        let snapshot = wal.index().committed_seq();
        let header = match wal.index().find(0, snapshot) {
            Some(frame) => wal.read_frame(frame)?,
            None => {
                let mut p = PageData::zeroed();
                main.read_exact_at(&mut p[..], 0)?;
                p
            }
        };
        let meta = Meta::decode(&header)?;
        let syncs = opened.syncs;
        Ok(Store::assemble(
            main, path, wal, meta, snapshot, syncs, opts,
        ))
    }

    /// Opens `path`, creating it first if it does not exist.
    pub fn open_or_create(path: impl AsRef<Path>, opts: StoreOptions) -> Result<Store> {
        if opts.vfs.exists(path.as_ref()) {
            Store::open(path, opts)
        } else {
            Store::create(path, opts)
        }
    }

    /// Wires up a store over an opened main file and WAL; `syncs` is
    /// what opening them fsynced, the first entry of the tally.
    fn assemble(
        main: Box<dyn VfsFile>,
        path: PathBuf,
        wal: Wal,
        meta: Meta,
        seq: u64,
        syncs: u64,
        opts: StoreOptions,
    ) -> Store {
        let stats = IoStats::default();
        IoStats::add(&stats.syncs, syncs);
        Store {
            inner: Arc::new(StoreInner {
                main,
                path,
                pool: BufferPool::new(opts.pool_bytes),
                stats,
                committed: RwLock::new(Committed { seq, meta }),
                writer: Arc::new(Mutex::new(())),
                next_txid: AtomicU64::new(1),
                readers: Mutex::new(BTreeMap::new()),
                base_version: RwLock::new(PageMap::default()),
                wal,
                opts,
            }),
        }
    }

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
        IoStats::bump(&self.inner.stats.reader_pins);
        ReadTxn {
            guard: ReaderGuard {
                inner: Arc::clone(&self.inner),
                snapshot,
            },
            meta,
        }
    }

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
                IoStats::bump(&self.inner.stats.writer_lock_waits);
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

    /// Latest committed sequence number (the snapshot a read
    /// transaction beginning now would pin).
    pub fn committed_seq(&self) -> u64 {
        self.inner.committed.read().seq
    }

    /// Attempts a checkpoint: folds committed WAL frames into the main
    /// file and truncates the WAL. Returns `true` if performed, `false`
    /// if skipped because a reader still needs an older snapshot or the
    /// WAL is empty. Takes the writer lock.
    pub fn checkpoint(&self) -> Result<bool> {
        let _guard = Mutex::lock_arc(&self.inner.writer);
        checkpoint_locked(&self.inner)
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

/// The version of page `id` visible at `snapshot` — the pool key's
/// second half — and, when that image lives in the WAL, its offset.
/// The newest WAL record at or below the snapshot wins, else the main
/// file. Offset and seq come from one index lookup so a concurrent
/// checkpoint reset cannot slip between them.
fn resolve_version(inner: &StoreInner, id: PageId, snapshot: u64) -> (u64, Option<u64>) {
    match inner.wal.index().find_versioned(id, snapshot) {
        Some((offset, seq)) => (seq, Some(offset)),
        None => {
            let base = inner.base_version.read().get(&id).copied().unwrap_or(0);
            (base, None)
        }
    }
}

/// Reads the image [`resolve_version`] located — the WAL frame at
/// `from_wal`, else the main file — and checks it: the one door through
/// which bytes from disk reach the buffer pool, so the B+tree's
/// zero-copy accessors never see an image that was not validated once.
/// Kept out of line so the pool-hit path of [`resolve_page`] stays small.
#[inline(never)]
fn load_page(inner: &StoreInner, id: PageId, from_wal: Option<u64>) -> Result<PageData> {
    let p = match from_wal {
        Some(offset) => inner.wal.read_frame(offset)?,
        None => {
            let mut p = PageData::zeroed();
            inner
                .main
                .read_exact_at(&mut p[..], id as u64 * PAGE_SIZE as u64)
                .map_err(|e| {
                    if e.kind() == std::io::ErrorKind::UnexpectedEof {
                        StorageError::Corrupt(format!("page {id} missing from main file"))
                    } else {
                        StorageError::Io(e)
                    }
                })?;
            p
        }
    };
    checked_image(p, id)
}

/// [`load_page`] for a main-file page a scan missed, reading in the same
/// call the pages the scan walks onto after it (`run.then`), each only
/// while it is the next page id of the file, resolves to the main file
/// at this snapshot and is not cached — [`MAX_RUN_PAGES`] in all at
/// most. So no read bridges a gap, and no page is read that the scan
/// would find cached. The pages after `id` count as one pool miss and
/// one main-file read each, enter the pool with `access`, and go onto
/// `run.ahead`; a page that fails its check ends the run there, left for
/// the scan to read and report alone.
#[inline(never)]
fn load_run(
    inner: &StoreInner,
    id: PageId,
    snapshot: u64,
    access: Access,
    run: Run<'_>,
) -> Result<PageData> {
    let mut keys: Vec<PoolKey> = Vec::new();
    for next in run.then {
        let adjacent = next == id + 1 + keys.len() as PageId;
        if keys.len() + 1 == MAX_RUN_PAGES || !adjacent || next >= run.page_count {
            break;
        }
        let (version, from_wal) = resolve_version(inner, next, snapshot);
        if from_wal.is_some() || inner.pool.contains((next, version)) {
            break;
        }
        keys.push((next, version));
    }
    if keys.is_empty() {
        return load_page(inner, id, None);
    }
    RUN_BYTES.with_borrow_mut(|buf| {
        let len = (1 + keys.len()) * PAGE_SIZE;
        if buf.len() < len {
            buf.resize(len, 0);
        }
        let bytes = &mut buf[..len];
        if inner
            .main
            .read_exact_at(bytes, id as u64 * PAGE_SIZE as u64)
            .is_err()
        {
            // A short or failed read of the run: read the page alone, so
            // an error names it.
            return load_page(inner, id, None);
        }
        let mut images = bytes.chunks_exact(PAGE_SIZE);
        let first = checked_image(PageData::from_bytes(images.next().expect("one page")), id)?;
        for (&key, image) in keys.iter().zip(images) {
            let Ok(p) = checked_image(PageData::from_bytes(image), key.0) else {
                break;
            };
            IoStats::bump(&inner.stats.pool_misses);
            IoStats::bump(&inner.stats.main_reads);
            let data = Arc::new(p);
            inner.pool.insert_with(key, Arc::clone(&data), access);
            run.ahead.push((key.0, data));
        }
        Ok(first)
    })
}

thread_local! {
    /// Where [`load_run`] reads a run, kept per thread so it is zero
    /// filled once, not on every read.
    static RUN_BYTES: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Structural validation of an image fresh from disk, keyed on its page
/// type: B+tree nodes get [`node::validate`] (`O(cells)`, paid once per
/// load instead of on every fetch); other page kinds carry no offsets
/// that are followed without a check.
fn checked_image(p: PageData, id: PageId) -> Result<PageData> {
    if matches!(
        p.page_type(),
        page_type::BTREE_LEAF | page_type::BTREE_INTERIOR
    ) {
        node::validate(&p, id)?;
    }
    Ok(p)
}

/// Longest main-file read a scan miss makes, in pages: the leaf that
/// missed plus up to fifteen leaves the scan walks onto after it.
const MAX_RUN_PAGES: usize = 16;

/// What [`PageRead::page_scan_run`] passes down to [`load_run`].
struct Run<'a> {
    /// The pages the scan walks onto after the one it missed, in order.
    then: &'a mut dyn Iterator<Item = PageId>,
    /// Where the pages read after the missed one go, in order.
    ahead: &'a mut Vec<(PageId, Arc<PageData>)>,
    /// Page count of the reading transaction: no page at or past it is
    /// read.
    page_count: u32,
}

/// Resolves a page image at `snapshot`, going through the buffer pool.
/// `access` is the cache-admission hint: `Scan` for bulk sweeps.
fn resolve_page(
    inner: &StoreInner,
    id: PageId,
    snapshot: u64,
    access: Access,
) -> Result<Arc<PageData>> {
    resolve(inner, id, snapshot, access, None)
}

/// The pool's image of `id` at `snapshot`, counted as a hit: the first
/// step of [`resolve`] alone, which a scan takes before it deals with
/// the pages it walks onto next — on a hit it hands over those the pool
/// holds ([`cached_run`]), on a miss it reads them along ([`load_run`]).
#[inline]
fn cached(inner: &StoreInner, id: PageId, snapshot: u64, access: Access) -> Option<Arc<PageData>> {
    let (version, _) = resolve_version(inner, id, snapshot);
    let data = inner.pool.get_with((id, version), access)?;
    IoStats::bump(&inner.stats.pool_hits);
    Some(data)
}

/// The hit counterpart of [`load_run`]: after a scan hit, hands over
/// the pages the scan walks onto next (`run.then`, at most
/// [`MAX_RUN_PAGES`]` - 1`) that the pool holds, in order onto
/// `run.ahead`, each counted as one hit — so the scan pays for its
/// pool lookups once per run instead of once per page. Their versions
/// are resolved under one read guard of the WAL index and one of the
/// checkpoint versions, taken in [`resolve_version`]'s order; the
/// images are then taken under one pool lock, up to the first page
/// that is not resident, which the scan then fetches itself.
fn cached_run(inner: &StoreInner, snapshot: u64, access: Access, run: Run<'_>) {
    let mut keys = [(0, 0); MAX_RUN_PAGES - 1];
    let mut len = 0;
    {
        let index = inner.wal.index();
        let base = inner.base_version.read();
        for next in run.then.take(keys.len()) {
            if next >= run.page_count {
                break;
            }
            let version = match index.find_versioned(next, snapshot) {
                Some((_, seq)) => seq,
                None => base.get(&next).copied().unwrap_or(0),
            };
            keys[len] = (next, version);
            len += 1;
        }
    }
    // Room for the longest run at once, so a walk's handed-over pages
    // cost it one allocation, not one per run that outgrows the last.
    run.ahead.reserve(MAX_RUN_PAGES - 1);
    let found = inner.pool.get_run(&keys[..len], access, |(id, _), data| {
        run.ahead.push((id, data));
    });
    IoStats::add(&inner.stats.pool_hits, found as u64);
}

/// [`resolve_page`], given with `run` the pages a scan walks onto next:
/// a miss in the main file then reads a run of them along
/// ([`load_run`]).
fn resolve(
    inner: &StoreInner,
    id: PageId,
    snapshot: u64,
    access: Access,
    mut run: Option<Run<'_>>,
) -> Result<Arc<PageData>> {
    // Two attempts: when the oldest registered reader sits exactly at
    // the checkpoint watermark, a concurrent checkpoint may reset the
    // WAL between version resolution and the frame read. The second
    // attempt re-resolves against the post-reset state (the image now
    // lives in the main file).
    let mut last_err = None;
    for attempt in 0..2 {
        let (version, from_wal) = resolve_version(inner, id, snapshot);
        if let Some(data) = inner.pool.get_with((id, version), access) {
            IoStats::bump(&inner.stats.pool_hits);
            return Ok(data);
        }
        if attempt == 0 {
            IoStats::bump(&inner.stats.pool_misses);
        }
        IoStats::bump(match from_wal {
            Some(_) => &inner.stats.wal_reads,
            None => &inner.stats.main_reads,
        });
        let loaded = match (from_wal, run.take()) {
            (None, Some(run)) => load_run(inner, id, snapshot, access, run),
            _ => load_page(inner, id, from_wal),
        };
        match loaded {
            Ok(p) => {
                let data = Arc::new(p);
                inner
                    .pool
                    .insert_with((id, version), Arc::clone(&data), access);
                return Ok(data);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("two attempts always record an error"))
}

/// Folds WAL frames into the main file. Caller holds the writer lock.
fn checkpoint_locked(inner: &StoreInner) -> Result<bool> {
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
    let mut targets = inner.wal.index().latest_per_page(mx);
    // Ascending page order: better write locality, and — with the WAL
    // index map being unordered — a deterministic operation stream for
    // the crash-injection harness.
    targets.sort_unstable_by_key(|&(page, _, _)| page);
    let durable = !matches!(inner.opts.sync, SyncMode::Off);
    for &(page, offset, seq) in &targets {
        // Scan access: folding frames back must not perturb which
        // entries the pool considers hot.
        let data = match inner.pool.get_with((page, seq), Access::Scan) {
            Some(d) => d,
            None => {
                IoStats::bump(&inner.stats.wal_reads);
                Arc::new(inner.wal.read_frame(offset)?)
            }
        };
        inner
            .main
            .write_all_at(&data[..], page as u64 * PAGE_SIZE as u64)?;
        IoStats::bump(&inner.stats.main_writes);
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
        IoStats::bump(&inner.stats.syncs);
    }
    // The WAL's own fsync after truncation stays out of
    // `StoreStats::syncs` (see `IoStats::syncs`).
    inner.wal.reset(durable)?;
    if durable {
        // Frames up to the watermark are now durable via the main
        // file; committers waiting on a group fsync for them can ack
        // without one.
        inner.wal.note_durable(mx);
    }
    IoStats::bump(&inner.stats.checkpoints);
    // Every live snapshot is at or above the watermark now, so cached
    // page versions superseded below it are unreachable: collect them.
    gc_page_versions(inner, mx);
    // The main file's fsync, then the WAL's after its truncation.
    let fsyncs = if durable { 2 } else { 0 };
    inner.record_span(trace_start, "checkpoint", targets.len() as u64, fsyncs);
    Ok(true)
}

// ---------------------------------------------------------------------------
// Read transactions
// ---------------------------------------------------------------------------

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
fn gc_page_versions(inner: &StoreInner, floor: u64) {
    let trace_start = inner.trace_start();
    let (examined, dropped) = inner.pool.gc(floor);
    IoStats::add(&inner.stats.version_gc_examined, examined as u64);
    if dropped > 0 {
        IoStats::add(&inner.stats.version_gc_pages, dropped as u64);
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
}

impl PageRead for ReadTxn {
    fn page(&self, id: PageId) -> Result<Arc<PageData>> {
        if id >= self.meta.page_count {
            return Err(StorageError::PageOutOfBounds(id));
        }
        resolve_page(&self.guard.inner, id, self.guard.snapshot, Access::Point)
    }

    fn page_scan(&self, id: PageId) -> Result<Arc<PageData>> {
        if id >= self.meta.page_count {
            return Err(StorageError::PageOutOfBounds(id));
        }
        resolve_page(&self.guard.inner, id, self.guard.snapshot, Access::Scan)
    }

    fn page_scan_run(
        &self,
        id: PageId,
        then: &mut dyn Iterator<Item = PageId>,
        ahead: &mut Vec<(PageId, Arc<PageData>)>,
    ) -> Result<Arc<PageData>> {
        if id >= self.meta.page_count {
            return Err(StorageError::PageOutOfBounds(id));
        }
        let (inner, snapshot) = (&*self.guard.inner, self.guard.snapshot);
        let run = Run {
            then,
            ahead,
            page_count: self.meta.page_count,
        };
        if let Some(hit) = cached(inner, id, snapshot, Access::Scan) {
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

// ---------------------------------------------------------------------------
// Write transactions
// ---------------------------------------------------------------------------

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
            if id >= self.meta.page_count {
                return Err(StorageError::PageOutOfBounds(id));
            }
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
        IoStats::add(&self.inner.stats.wal_writes, refs.len() as u64);
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
        IoStats::bump(&self.inner.stats.pages_allocated);
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
        IoStats::bump(&self.inner.stats.pages_freed);
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
            IoStats::bump(&self.inner.stats.wal_reads);
            let p = self.inner.wal.read_unpublished_frame(offset)?;
            return Ok(Arc::new(checked_image(p, id)?));
        }
        if id >= self.meta.page_count {
            return Err(StorageError::PageOutOfBounds(id));
        }
        resolve_page(&self.inner, id, self.snapshot, Access::Point)
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
        IoStats::add(&self.inner.stats.commit_pages_elided, elided as u64);
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
        IoStats::add(&self.inner.stats.wal_writes, frames);
        IoStats::bump(&self.inner.stats.commits);

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
        // lock. A synced checkpoint advances the durable watermark, so
        // the group-sync wait below usually returns immediately.
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
            IoStats::bump(&inner.stats.syncs);
        }
        // The span covers append + publish + group-fsync wait; no
        // fsync under SyncMode::Off or when a concurrent leader's sync
        // covered this commit (group commit).
        inner.record_span(trace_start, "wal_group_commit", frames, u64::from(issued));
        Ok(commit_seq)
    }

    /// Explicit rollback; equivalent to dropping the transaction.
    pub fn rollback(mut self) {
        self.dirty.clear();
        if !self.spilled.is_empty() {
            let _ = self.inner.wal.truncate_unpublished();
            self.spilled.clear();
        }
        self.done = true;
    }
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
        if let Some(hit) = cached(&self.inner, id, self.snapshot, Access::Point) {
            return Ok(hit);
        }
        let run = Run {
            then: &mut then.take_while(|id| !own(id)),
            ahead,
            page_count: self.meta.page_count,
        };
        resolve(&self.inner, id, self.snapshot, Access::Point, Some(run))
    }

    fn root(&self, slot: usize) -> PageId {
        self.meta.roots[slot]
    }
}

impl Drop for WriteTxn {
    fn drop(&mut self) {
        // Uncommitted changes evaporate: in-memory pages are dropped
        // and spilled (unpublished) WAL frames are truncated away.
        if !self.done {
            self.dirty.clear();
            if !self.spilled.is_empty() {
                let _ = self.inner.wal.truncate_unpublished();
                self.spilled.clear();
            }
        }
    }
}

#[cfg(test)]
mod gc_tests;

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> StoreOptions {
        StoreOptions {
            sync: SyncMode::Off,
            ..Default::default()
        }
    }

    fn fill(txn: &mut WriteTxn, id: PageId, b: u8) {
        let p = txn.page_mut(id).unwrap();
        p[100] = b;
        p[0] = page_type::OVERFLOW; // arbitrary non-zero type for tests
    }

    #[test]
    fn create_write_reopen() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        {
            let store = Store::create(&path, opts()).unwrap();
            let mut txn = store.begin_write().unwrap();
            let p = txn.allocate_page().unwrap();
            assert_eq!(p, 1);
            fill(&mut txn, p, 42);
            txn.set_root(0, p);
            txn.commit().unwrap();
        }
        let store = Store::open(&path, opts()).unwrap();
        let read = store.begin_read();
        assert_eq!(read.root(0), 1);
        assert_eq!(read.page(1).unwrap()[100], 42);
    }

    #[test]
    fn snapshot_isolation_under_concurrent_commit() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let p = txn.allocate_page().unwrap();
        fill(&mut txn, p, 1);
        txn.commit().unwrap();

        let reader = store.begin_read(); // snapshot at version 1
        let mut txn = store.begin_write().unwrap();
        fill(&mut txn, p, 2);
        txn.commit().unwrap();

        // Old reader still sees version 1; a fresh reader sees 2.
        assert_eq!(reader.page(p).unwrap()[100], 1);
        assert_eq!(store.begin_read().page(p).unwrap()[100], 2);
        // And the old reader's view is stable across repeated reads.
        assert_eq!(reader.page(p).unwrap()[100], 1);
    }

    #[test]
    fn rollback_discards_changes() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let p = txn.allocate_page().unwrap();
        fill(&mut txn, p, 9);
        txn.commit().unwrap();

        let mut txn = store.begin_write().unwrap();
        fill(&mut txn, p, 77);
        drop(txn); // rollback

        assert_eq!(store.begin_read().page(p).unwrap()[100], 9);
        // Page count also rolled back on an allocation-only txn.
        let before = store.page_count();
        let mut txn = store.begin_write().unwrap();
        txn.allocate_page().unwrap();
        txn.rollback();
        assert_eq!(store.page_count(), before);
    }

    #[test]
    fn freelist_reuses_pages() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let a = txn.allocate_page().unwrap();
        let b = txn.allocate_page().unwrap();
        fill(&mut txn, a, 1);
        fill(&mut txn, b, 2);
        txn.commit().unwrap();

        let mut txn = store.begin_write().unwrap();
        txn.free_page(a).unwrap();
        txn.commit().unwrap();
        assert_eq!(store.freelist_len(), 1);

        let mut txn = store.begin_write().unwrap();
        let c = txn.allocate_page().unwrap();
        assert_eq!(c, a, "freed page is reused");
        // Reused page starts zeroed.
        assert_eq!(txn.page(c).unwrap()[100], 0);
        fill(&mut txn, c, 3);
        txn.commit().unwrap();
        assert_eq!(store.freelist_len(), 0);
        assert_eq!(store.page_count(), 3); // header + 2
    }

    #[test]
    fn checkpoint_folds_wal_and_preserves_data() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let store = Store::create(&path, opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let p = txn.allocate_page().unwrap();
        fill(&mut txn, p, 5);
        txn.set_root(0, p);
        txn.commit().unwrap();
        assert!(store.wal_frames() > 0);
        assert!(store.checkpoint().unwrap());
        assert_eq!(store.wal_frames(), 0);
        // Data readable after checkpoint (from main file now).
        assert_eq!(store.begin_read().page(p).unwrap()[100], 5);
        // And after a full reopen with an empty WAL.
        drop(store);
        let store = Store::open(&path, opts()).unwrap();
        let r = store.begin_read();
        assert_eq!(r.root(0), p);
        assert_eq!(r.page(p).unwrap()[100], 5);
    }

    #[test]
    fn checkpoint_blocked_by_old_reader() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let p = txn.allocate_page().unwrap();
        fill(&mut txn, p, 1);
        txn.commit().unwrap();

        let old_reader = store.begin_read();
        let mut txn = store.begin_write().unwrap();
        fill(&mut txn, p, 2);
        txn.commit().unwrap();

        assert!(!store.checkpoint().unwrap(), "old reader pins the WAL");
        assert_eq!(old_reader.page(p).unwrap()[100], 1);
        drop(old_reader);
        assert!(store.checkpoint().unwrap());
        assert_eq!(store.begin_read().page(p).unwrap()[100], 2);
    }

    #[test]
    fn crash_recovery_after_commits_without_checkpoint() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        {
            let store = Store::create(&path, opts()).unwrap();
            for i in 0..10u8 {
                let mut txn = store.begin_write().unwrap();
                let p = if i == 0 {
                    txn.allocate_page().unwrap()
                } else {
                    1
                };
                fill(&mut txn, p, i);
                txn.commit().unwrap();
            }
            // Dropped without checkpoint => main file is stale; the WAL
            // carries everything. Simulates a process crash.
        }
        let store = Store::open(&path, opts()).unwrap();
        assert_eq!(store.begin_read().page(1).unwrap()[100], 9);
    }

    /// Seq of the newest WAL image of `id`, if the WAL holds one.
    fn logged_at(store: &Store, id: PageId) -> Option<u64> {
        let index = store.inner.wal.index();
        index.find_versioned(id, u64::MAX).map(|(_, seq)| seq)
    }

    #[test]
    fn rewriting_a_page_to_its_bytes_commits_as_a_noop() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let p = txn.allocate_page().unwrap();
        fill(&mut txn, p, 5);
        let seq = txn.commit().unwrap();

        let before = store.stats();
        let frames = store.wal_frames();
        // Same bytes, written straight or through an intermediate value.
        for detour in [None, Some(9)] {
            let mut txn = store.begin_write().unwrap();
            if let Some(b) = detour {
                fill(&mut txn, p, b);
            }
            fill(&mut txn, p, 5);
            assert_eq!(txn.commit().unwrap(), seq, "the begin snapshot");
        }
        let delta = store.stats().since(&before);
        assert_eq!((delta.wal_writes, delta.commits), (0, 0));
        assert_eq!(store.wal_frames(), frames);
        assert_eq!(store.committed_seq(), seq);
        assert_eq!(
            delta.commit_pages_elided, 4,
            "the page and the header, twice"
        );
        assert_eq!(store.begin_read().page(p).unwrap()[100], 5);
    }

    #[test]
    fn one_page_edit_logs_one_frame_and_survives_reopen_and_a_torn_tail() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let (a, b) = {
            let store = Store::create(&path, opts()).unwrap();
            let mut txn = store.begin_write().unwrap();
            let (a, b, c) = (
                txn.allocate_page().unwrap(),
                txn.allocate_page().unwrap(),
                txn.allocate_page().unwrap(),
            );
            for id in [a, b, c] {
                fill(&mut txn, id, 1);
            }
            txn.set_root(0, a);
            txn.set_root(3, b);
            txn.commit().unwrap();
            let mut txn = store.begin_write().unwrap();
            txn.free_page(c).unwrap();
            txn.commit().unwrap();
            let header = logged_at(&store, 0);
            for v in 2..=4u8 {
                let before = store.stats();
                let mut txn = store.begin_write().unwrap();
                fill(&mut txn, a, v);
                txn.commit().unwrap();
                let delta = store.stats().since(&before);
                assert_eq!(delta.wal_writes, 1, "one frame, no header");
                assert_eq!(delta.commit_pages_elided, 1, "the header");
            }
            assert_eq!(logged_at(&store, 0), header, "no header since the free");
            (a, b)
            // Dropped without a checkpoint: the WAL carries everything.
        };
        let check = |want: u8| {
            let store = Store::open(&path, opts()).unwrap();
            assert_eq!(store.page_count(), 4);
            assert_eq!(store.freelist_len(), 1);
            let r = store.begin_read();
            assert_eq!((r.root(0), r.root(3)), (a, b));
            assert_eq!(r.page(a).unwrap()[100], want);
        };
        check(4);
        // Tear the last commit: reopen falls back one commit, and the
        // header it reads is still the one the free logged.
        let wal = wal_path(&path);
        let len = std::fs::metadata(&wal).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len - 100).unwrap();
        drop(f);
        check(3);
    }

    #[test]
    fn allocate_free_and_set_root_each_write_the_header() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        type Op = fn(&mut WriteTxn);
        let ops: [(Op, u64); 3] = [
            (
                |t| {
                    t.allocate_page().unwrap();
                },
                2,
            ),
            (|t| t.free_page(1).unwrap(), 2),
            (|t| t.set_root(2, 7), 1),
        ];
        for (op, frames) in ops {
            let (header, before) = (logged_at(&store, 0), store.stats());
            let mut txn = store.begin_write().unwrap();
            op(&mut txn);
            txn.commit().unwrap();
            assert_eq!(store.stats().since(&before).wal_writes, frames);
            assert!(logged_at(&store, 0) > header, "the header is logged");
        }
        assert_eq!((store.page_count(), store.freelist_len()), (2, 1));
        assert_eq!(store.begin_read().root(2), 7);
    }

    #[test]
    fn spilled_pages_are_never_elided() {
        let dir = tempfile::tempdir().unwrap();
        let mut o = opts();
        o.spill_after_pages = 2;
        let store = Store::create(dir.path().join("db"), o).unwrap();
        let mut txn = store.begin_write().unwrap();
        let ids: Vec<PageId> = (0..5).map(|_| txn.allocate_page().unwrap()).collect();
        for &id in &ids {
            fill(&mut txn, id, 7);
        }
        let seq = txn.commit().unwrap();

        // Rewrite all five to their own bytes. Pages 1–4 spill (two at a
        // time) and are logged as they are; page 5 is still in memory at
        // commit and is dropped. Page 1, touched again after its spill,
        // has no pre-image and is logged again.
        let before = store.stats();
        let mut txn = store.begin_write().unwrap();
        for &id in ids.iter().chain(&ids[..1]) {
            fill(&mut txn, id, 7);
        }
        txn.commit().unwrap();
        let delta = store.stats().since(&before);
        assert_eq!(delta.wal_writes, 4 + 1 + 1, "spilled, page 1 again, header");
        assert_eq!(delta.commit_pages_elided, 1);
        for &id in &ids[..4] {
            assert!(logged_at(&store, id) > Some(seq), "page {id} was spilled");
        }
        assert!(logged_at(&store, ids[4]) < Some(seq), "page 5 was elided");
        assert!(
            logged_at(&store, 0) > Some(seq),
            "a spilled txn logs the header"
        );
        let r = store.begin_read();
        assert!(ids.iter().all(|&id| r.page(id).unwrap()[100] == 7));
    }

    #[test]
    fn auto_checkpoint_triggers() {
        let dir = tempfile::tempdir().unwrap();
        let mut o = opts();
        o.checkpoint_after_frames = 4;
        let store = Store::create(dir.path().join("db"), o).unwrap();
        for i in 0..6u8 {
            let mut txn = store.begin_write().unwrap();
            let p = if i == 0 {
                txn.allocate_page().unwrap()
            } else {
                1
            };
            fill(&mut txn, p, i);
            txn.commit().unwrap();
        }
        assert!(store.stats().checkpoints >= 1);
        assert_eq!(store.begin_read().page(1).unwrap()[100], 5);
    }

    #[test]
    fn out_of_bounds_page_is_an_error() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let read = store.begin_read();
        assert!(matches!(
            read.page(99),
            Err(StorageError::PageOutOfBounds(99))
        ));
    }

    #[test]
    fn writer_reads_own_uncommitted_writes() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let p = txn.allocate_page().unwrap();
        fill(&mut txn, p, 33);
        assert_eq!(txn.page(p).unwrap()[100], 33);
        // Readers can't see it pre-commit (page doesn't even exist).
        assert!(store.begin_read().page(p).is_err());
        txn.commit().unwrap();
        assert_eq!(store.begin_read().page(p).unwrap()[100], 33);
    }

    #[test]
    fn concurrent_readers_during_writes() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let p = txn.allocate_page().unwrap();
        fill(&mut txn, p, 0);
        txn.commit().unwrap();

        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let r = store.begin_read();
                        let v1 = r.page(p).unwrap()[100];
                        let v2 = r.page(p).unwrap()[100];
                        assert_eq!(v1, v2, "snapshot must be stable");
                    }
                });
            }
            for i in 1..50u8 {
                let mut txn = store.begin_write().unwrap();
                fill(&mut txn, p, i);
                txn.commit().unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(store.begin_read().page(p).unwrap()[100], 49);
    }

    #[test]
    fn spilling_txn_commits_atomically() {
        let dir = tempfile::tempdir().unwrap();
        let mut o = opts();
        o.spill_after_pages = 8; // force heavy spilling
        let store = Store::create(dir.path().join("db"), o).unwrap();
        // Seed one page so a concurrent reader has something stable.
        let mut txn = store.begin_write().unwrap();
        let first = txn.allocate_page().unwrap();
        fill(&mut txn, first, 255);
        txn.commit().unwrap();

        let reader = store.begin_read();
        let mut txn = store.begin_write().unwrap();
        let mut pages = vec![];
        for i in 0..100u8 {
            let p = txn.allocate_page().unwrap();
            fill(&mut txn, p, i);
            pages.push(p);
        }
        // Also rewrite the seeded page.
        fill(&mut txn, first, 1);
        // Mid-transaction: the writer sees its own writes (spilled or
        // not), the reader sees nothing.
        assert_eq!(txn.page(pages[0]).unwrap()[100], 0);
        assert_eq!(txn.page(first).unwrap()[100], 1);
        assert_eq!(reader.page(first).unwrap()[100], 255);
        let spilled_writes = store.stats().wal_writes;
        assert!(
            spilled_writes >= 64,
            "expected spills, got {spilled_writes}"
        );
        txn.commit().unwrap();

        assert_eq!(reader.page(first).unwrap()[100], 255, "old snapshot stable");
        let r = store.begin_read();
        for (i, &p) in pages.iter().enumerate() {
            assert_eq!(r.page(p).unwrap()[100], i as u8);
        }
        assert_eq!(r.page(first).unwrap()[100], 1);
    }

    #[test]
    fn spilled_txn_rolls_back_cleanly() {
        let dir = tempfile::tempdir().unwrap();
        let mut o = opts();
        o.spill_after_pages = 4;
        let store = Store::create(dir.path().join("db"), o).unwrap();
        let mut txn = store.begin_write().unwrap();
        let p = txn.allocate_page().unwrap();
        fill(&mut txn, p, 9);
        txn.commit().unwrap();
        let frames_before = store.wal_frames();

        let mut txn = store.begin_write().unwrap();
        for i in 0..50u8 {
            let q = txn.allocate_page().unwrap();
            fill(&mut txn, q, i);
        }
        fill(&mut txn, p, 200);
        drop(txn); // rollback: spilled frames must be truncated away

        assert_eq!(store.wal_frames(), frames_before);
        assert_eq!(store.begin_read().page(p).unwrap()[100], 9);
        assert_eq!(store.page_count(), 2);
        // A subsequent transaction works normally.
        let mut txn = store.begin_write().unwrap();
        fill(&mut txn, p, 77);
        txn.commit().unwrap();
        assert_eq!(store.begin_read().page(p).unwrap()[100], 77);
    }

    #[test]
    fn crash_mid_spill_recovers_to_last_commit() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        {
            let mut o = opts();
            o.spill_after_pages = 4;
            let store = Store::create(&path, o).unwrap();
            let mut txn = store.begin_write().unwrap();
            let p = txn.allocate_page().unwrap();
            fill(&mut txn, p, 42);
            txn.commit().unwrap();

            let mut txn = store.begin_write().unwrap();
            for i in 0..40u8 {
                let q = txn.allocate_page().unwrap();
                fill(&mut txn, q, i);
            }
            // Simulate a hard crash: leak the transaction so neither
            // rollback truncation nor commit runs.
            std::mem::forget(txn);
        }
        let store = Store::open(&path, opts()).unwrap();
        let r = store.begin_read();
        assert_eq!(store.page_count(), 2, "uncommitted allocations discarded");
        assert_eq!(r.page(1).unwrap()[100], 42);
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        use crate::sim::SimVfs;
        let sim = SimVfs::new();
        let o = StoreOptions {
            sync: SyncMode::Normal,
            checkpoint_after_frames: 0, // keep checkpoint syncs out of the count
            vfs: sim.handle(),
            ..Default::default()
        };
        let store = Store::create("/gc-db", o).unwrap();
        let mut txn = store.begin_write().unwrap();
        let p = txn.allocate_page().unwrap();
        fill(&mut txn, p, 0);
        txn.commit().unwrap();

        // A slow disk widens the window in which committers pile up
        // behind the in-flight leader fsync.
        sim.set_sync_delay(std::time::Duration::from_millis(2));
        let (_, syncs_before, _) = sim.recorded();
        const THREADS: usize = 8;
        const COMMITS: usize = 6;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let store = store.clone();
                s.spawn(move || {
                    for i in 0..COMMITS {
                        let mut txn = store.begin_write().unwrap();
                        let q = txn.allocate_page().unwrap();
                        fill(&mut txn, q, (t * COMMITS + i) as u8);
                        txn.commit().unwrap();
                    }
                });
            }
        });
        let (_, syncs_after, _) = sim.recorded();
        let issued = syncs_after - syncs_before;
        let total = (THREADS * COMMITS) as u64;
        assert!(issued > 0, "durable commits must fsync");
        assert!(
            issued * 2 <= total,
            "group commit must batch: {issued} fsyncs for {total} commits"
        );
        // Every commit's allocation landed.
        assert_eq!(store.page_count(), 2 + total as u32);
    }

    /// `StoreStats::syncs` tallies every fsync the VFS sees except the
    /// WAL's after a checkpoint truncates it — through create, commits
    /// under `Normal` and `Full`, a checkpoint, and reopens, one of them
    /// over a torn WAL header that the open recreates and syncs.
    #[test]
    fn sync_tally_matches_the_vfs() {
        use crate::sim::SimVfs;
        let sim = SimVfs::new();
        let opts = |sync| StoreOptions {
            sync,
            checkpoint_after_frames: 0,
            vfs: sim.handle(),
            ..Default::default()
        };
        let synced = || sim.recorded().1;
        // The VFS's syncs since the store was opened at `base`.
        let check = |store: &Store, base: u64, what: &str| {
            let s = store.stats();
            assert_eq!(s.syncs + s.checkpoints, synced() - base, "{what}: {s:?}");
        };
        let commit = |store: &Store, byte: u8| {
            let mut txn = store.begin_write().unwrap();
            let p = txn.allocate_page().unwrap();
            fill(&mut txn, p, byte);
            txn.commit().unwrap();
        };

        let store = Store::create("/sync-db", opts(SyncMode::Normal)).unwrap();
        assert_eq!(store.stats().syncs, 1, "the main file's");
        check(&store, 0, "create");
        (0..3).for_each(|i| commit(&store, i));
        check(&store, 0, "normal commits");
        drop(store);

        let base = synced();
        let store = Store::open("/sync-db", opts(SyncMode::Full)).unwrap();
        check(&store, base, "reopen");
        (3..6).for_each(|i| commit(&store, i));
        check(&store, base, "full commits");
        assert!(store.checkpoint().unwrap());
        check(&store, base, "checkpoint");
        drop(store);

        let wal = sim.handle().open(Path::new("/sync-db-wal"), OpenMode::Open);
        wal.unwrap().set_len(8).unwrap();
        let base = synced();
        let store = Store::open("/sync-db", opts(SyncMode::Full)).unwrap();
        assert_eq!(store.stats().syncs, 1, "the recreated WAL header's");
        check(&store, base, "reopen over a torn WAL header");
        commit(&store, 6);
        check(&store, base, "commit after recovery");
        assert_eq!(store.page_count(), 8, "header and seven pages");
    }

    #[test]
    fn stats_report_pool_evictions_under_budget_pressure() {
        let dir = tempfile::tempdir().unwrap();
        let mut o = opts();
        o.pool_bytes = 4 * PAGE_SIZE; // room for only a few pages
        let store = Store::create(dir.path().join("db"), o).unwrap();
        let before = store.stats();
        let mut txn = store.begin_write().unwrap();
        for i in 0..32u8 {
            let p = txn.allocate_page().unwrap();
            fill(&mut txn, p, i);
        }
        txn.commit().unwrap(); // warming the pool overflows the budget
        let evicted = store.stats().since(&before).pool_evictions;
        assert!(evicted > 0, "evictions must surface in StoreStats");
    }

    /// Counts `read_exact_at` calls on the files of a wrapped VFS.
    struct ReadCalls(Arc<AtomicU64>);

    struct CountedFile(Box<dyn VfsFile>, Arc<AtomicU64>);

    impl Vfs for ReadCalls {
        fn name(&self) -> &'static str {
            "read-calls"
        }
        fn open(&self, path: &Path, mode: OpenMode) -> std::io::Result<Box<dyn VfsFile>> {
            let file = StdVfs.open(path, mode)?;
            Ok(Box::new(CountedFile(file, Arc::clone(&self.0))))
        }
        fn exists(&self, path: &Path) -> bool {
            StdVfs.exists(path)
        }
    }

    impl VfsFile for CountedFile {
        fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.read_exact_at(buf, offset)
        }
        fn write_all_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
            self.0.write_all_at(buf, offset)
        }
        fn sync(&self) -> std::io::Result<()> {
            self.0.sync()
        }
        fn set_len(&self, len: u64) -> std::io::Result<()> {
            self.0.set_len(len)
        }
        fn len(&self) -> std::io::Result<u64> {
            self.0.len()
        }
    }

    /// A tree rewritten onto ascending page ids and checkpointed: a cold
    /// scan reads runs of leaves in single calls yet counts every page
    /// as one miss, touching exactly the pages a warm scan touches —
    /// also for a range that ends mid-tree. Before the checkpoint the
    /// leaves live in the WAL and are read one at a time.
    #[test]
    fn a_cold_scan_reads_runs_of_leaves_and_counts_each_page() {
        use crate::btree::BTree;
        use std::ops::{Bound, RangeBounds};
        let dir = tempfile::tempdir().unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        let store = Store::create(
            dir.path().join("db"),
            StoreOptions {
                vfs: Arc::new(ReadCalls(Arc::clone(&calls))),
                ..opts()
            },
        )
        .unwrap();
        let key = |i: u32| format!("k{i:06}").into_bytes();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        for i in 0..3000u32 {
            tree.insert(&mut txn, &key(i * 7 % 3000), &[7; 300])
                .unwrap();
        }
        txn.commit().unwrap();
        let mut txn = store.begin_write().unwrap();
        let old = store.begin_read();
        let cells = (0..3000).map(|i| Ok::<_, StorageError>((key(i), vec![i as u8; 300], false)));
        tree.rewrite(&mut txn, cells).unwrap();
        drop(old);
        txn.commit().unwrap();

        // Scans the rows from `start` up to `end`, counting what they do.
        let scan = |start: Bound<Vec<u8>>, end: Bound<Vec<u8>>| {
            let (before, calls_before) = (store.stats(), calls.load(Ordering::Relaxed));
            let r = store.begin_read();
            let mut rows = 0;
            for kv in tree.range(&r, start, end).unwrap() {
                kv.unwrap();
                rows += 1;
            }
            let io = store.stats().since(&before);
            (rows, io, calls.load(Ordering::Relaxed) - calls_before)
        };
        let (rows, wal_cold, wal_calls) = {
            store.purge_cache();
            scan(Bound::Unbounded, Bound::Unbounded)
        };
        assert_eq!(rows, 3000);
        assert_eq!(
            wal_calls, wal_cold.wal_reads,
            "one call per WAL page: {wal_cold:?}"
        );
        assert!(store.checkpoint().unwrap());

        // What a scan of a range is bound to read: the interior pages of
        // its descent, the leaf the descent lands on, and the leaves
        // after it up to the last that holds a key in range — none past.
        let r = store.begin_read();
        let depth = tree.depth(&r).unwrap() as u64;
        let bound_to_read = |start: &Bound<Vec<u8>>, end: &Bound<Vec<u8>>| {
            let seek = match start {
                Bound::Included(k) | Bound::Excluded(k) => k.as_slice(),
                Bound::Unbounded => &[],
            };
            let mut id = tree.root();
            let mut leaf = r.page(id).unwrap();
            while leaf.page_type() == page_type::BTREE_INTERIOR {
                id = node::interior_descend(&leaf, seek);
                leaf = r.page(id).unwrap();
            }
            let range = (
                start.as_ref().map(Vec::as_slice),
                end.as_ref().map(Vec::as_slice),
            );
            let (mut leaves, mut through) = (0, 1);
            while id != 0 {
                let leaf = r.page(id).unwrap();
                leaves += 1;
                let mut keys = (0..node::ncells(&leaf)).map(|i| node::leaf_key(&leaf, i));
                if keys.any(|k| range.contains(k)) {
                    through = leaves;
                }
                id = node::right_ptr(&leaf);
            }
            depth - 1 + through
        };
        assert!(depth >= 2 && bound_to_read(&Bound::Unbounded, &Bound::Unbounded) > 200);

        let prefix = (
            Bound::Included(b"k0012".to_vec()),
            Bound::Excluded(b"k0013".to_vec()),
        );
        let bounds = [
            (Bound::Unbounded, Bound::Unbounded, 3000),
            (Bound::Unbounded, Bound::Excluded(key(1234)), 1234),
            (prefix.0, prefix.1, 100),
        ];
        for (start, end, want_rows) in bounds {
            let at = format!("{start:?}..{end:?}");
            scan(start.clone(), end.clone());
            // Warm: one hit per page the walk is bound to visit, however
            // many the store handed over at once.
            let (rows, warm, warm_calls) = scan(start.clone(), end.clone());
            assert_eq!(rows, want_rows, "{at}");
            assert_eq!((warm.pool_misses, warm_calls), (0, 0), "{at}: {warm:?}");
            assert_eq!(warm.pool_hits, bound_to_read(&start, &end), "{at}");
            store.purge_cache();
            let (rows, cold, cold_calls) = scan(start.clone(), end.clone());
            assert_eq!(rows, want_rows, "{at}");
            assert_eq!(cold.disk_reads(), cold.pool_misses, "{cold:?}");
            assert_eq!(cold.pool_hits + cold.pool_misses, warm.pool_hits, "{at}");
            // The long scans read runs of leaves; the prefix scan's ten
            // pages take a descent and a run or two.
            assert!(
                cold_calls * 6 < cold.main_reads || want_rows == 100 && cold_calls <= 4,
                "{cold_calls} calls for {} pages",
                cold.main_reads
            );
        }
    }

    #[test]
    fn a_header_with_an_impossible_freelist_does_not_open() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let store = Store::create(&path, opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let a = txn.allocate_page().unwrap();
        fill(&mut txn, a, 1);
        txn.commit().unwrap();
        store.close().unwrap();
        let header = |head: u32, count: u32| {
            let mut p = PageData::zeroed();
            let f = StdVfs.open(&path, OpenMode::Open).unwrap();
            f.read_exact_at(&mut p[..], 0).unwrap();
            p.put_u32(OFF_FREELIST_HEAD, head);
            p.put_u32(OFF_FREELIST_COUNT, count);
            f.write_all_at(&p[..], 0).unwrap();
        };
        for (head, count) in [(2, 1), (a, 0), (0, 3)] {
            header(head, count);
            let err = Store::open(&path, opts()).unwrap_err();
            assert!(
                matches!(err, StorageError::BadHeader(_)),
                "{head}/{count}: {err}"
            );
        }
        header(0, 0);
        Store::open(&path, opts()).unwrap();
    }

    /// A freelist head naming a live page is refused at allocation, and
    /// the page keeps its bytes.
    #[test]
    fn allocating_from_a_corrupt_freelist_is_an_error() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let store = Store::create(&path, opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let (a, b) = (txn.allocate_page().unwrap(), txn.allocate_page().unwrap());
        fill(&mut txn, a, 1);
        fill(&mut txn, b, 2);
        txn.commit().unwrap();
        let mut txn = store.begin_write().unwrap();
        txn.free_page(b).unwrap();
        txn.commit().unwrap();
        store.close().unwrap();
        let f = StdVfs.open(&path, OpenMode::Open).unwrap();
        let mut p = PageData::zeroed();
        f.read_exact_at(&mut p[..], 0).unwrap();
        p.put_u32(OFF_FREELIST_HEAD, a);
        f.write_all_at(&p[..], 0).unwrap();

        let store = Store::open(&path, opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let err = txn.allocate_page().unwrap_err();
        assert!(
            matches!(err, StorageError::Corrupt(ref m) if m.contains(&format!("head {a}"))),
            "{err}"
        );
        drop(txn);
        assert_eq!(store.begin_read().page(a).unwrap()[100], 1);
    }

    #[test]
    fn cold_start_purge_forces_disk_reads() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let p = txn.allocate_page().unwrap();
        fill(&mut txn, p, 7);
        txn.commit().unwrap();
        store.checkpoint().unwrap();

        let _ = store.begin_read().page(p).unwrap();
        let warm = store.stats();
        let _ = store.begin_read().page(p).unwrap();
        let warm2 = store.stats();
        assert_eq!(warm2.since(&warm).disk_reads(), 0, "warm read is cached");

        store.purge_cache();
        let _ = store.begin_read().page(p).unwrap();
        let cold = store.stats();
        assert!(cold.since(&warm2).disk_reads() >= 1, "cold read hits disk");
    }
}
