//! Record-oriented write-ahead log: `Begin` / `PagePut` / `Commit`.
//!
//! This mirrors SQLite's WAL-mode design, which the paper names as the
//! mechanism behind MicroNN's ACID semantics (§3.6), extended with
//! explicit transaction records so every byte in the log is owned by a
//! transaction id:
//!
//! * `Begin(txid)` opens a transaction's run of records.
//! * `PagePut(txid, page)` carries one full page image — the unit of
//!   both logging and buffer-pool caching.
//! * `Commit(txid, db_size)` seals the run; its sequence number is the
//!   transaction's **commit sequence**, the snapshot LSN readers pin.
//!
//! Readers never block writers and vice versa:
//!
//! * A **reader** captures the sequence number of the last committed
//!   record when its transaction begins (its *snapshot*) and resolves
//!   every page to the newest `PagePut` at or below that snapshot,
//!   falling back to the main database file.
//! * The single **writer** appends records and only then publishes them
//!   to the shared in-memory WAL index, so a torn append is invisible.
//! * A **checkpoint** copies committed page images back into the main
//!   file once no reader depends on an older snapshot, then truncates
//!   the log.
//!
//! On open, the log is scanned front to back; records are accepted
//! while their checksums validate, and a transaction's `PagePut`s
//! become visible only when its `Commit` record is reached — this is
//! crash recovery. A torn record, a checksum mismatch, or a record
//! whose txid does not match the open `Begin` ends the scan, and the
//! file is truncated back to the last `Commit`. All file I/O goes
//! through the [`crate::vfs::Vfs`] layer, so the crash-injection
//! backend ([`crate::sim::SimVfs`]) can interrupt any write or fsync
//! and the recovery scan is exercised against torn records, lost
//! unsynced writes, and interrupted checkpoints — not just clean
//! shutdowns.
//!
//! # Group commit
//!
//! Durability is decoupled from publication. A committer appends and
//! publishes its records under the writer lock ([`Wal::append_commit`]),
//! then — with the lock released — waits for its sequence number to
//! become durable ([`Wal::sync_committed`]). The first committer to
//! arrive becomes the **leader**: it snapshots the published watermark
//! and issues one fsync covering every record appended so far.
//! Committers that arrive while a sync is in flight wait for the next
//! group sync instead of issuing their own, so N concurrent commits
//! cost far fewer than N fsyncs. A commit is only acknowledged after
//! its sequence number is at or below the synced watermark; a
//! published-but-not-yet-synced commit is visible to concurrent
//! readers but unacked, exactly the window a power cut may lose.

use std::path::Path;

use crate::checksum::fnv1a;
use crate::error::{Result, StorageError};
use crate::hash::PageMap;
use crate::page::{PageData, PageId, PAGE_SIZE};
use crate::vfs::{OpenMode, Vfs, VfsFile};

/// Magic prefix of a WAL file (format 2: record-oriented).
const WAL_MAGIC: u64 = 0x4D4E_4E57_414C_3032; // "MNNWAL02"
/// Size of the WAL file header.
pub const WAL_HEADER: u64 = 16;
/// Size of every record header. `PagePut` records are followed by one
/// page image; `Begin` and `Commit` records are header-only.
pub const RECORD_HEADER: u64 = 40;
/// Total on-disk footprint of one `PagePut` record.
pub const PAGE_RECORD_SIZE: u64 = RECORD_HEADER + PAGE_SIZE as u64;

/// Record kinds, stored in the first header field.
const KIND_BEGIN: u32 = 1;
const KIND_PAGE_PUT: u32 = 2;
const KIND_COMMIT: u32 = 3;

/// Metadata of one committed `PagePut` record, kept in the in-memory
/// WAL index.
#[derive(Debug, Clone, Copy)]
struct FrameMeta {
    page: PageId,
    /// Global monotonically increasing version; never reused, not even
    /// across checkpoints, so buffer-pool keys stay unambiguous.
    seq: u64,
    /// Byte offset of the page image in the WAL file.
    offset: u64,
}

/// In-memory index over the WAL file: which page images exist, where
/// they live, and where the committed watermark sits.
#[derive(Debug)]
pub struct WalIndex {
    /// Committed `PagePut` records in file order.
    frames: Vec<FrameMeta>,
    /// Frame indexes per page, ascending (and therefore ascending in seq).
    by_page: PageMap<PageId, Vec<u32>>,
    /// Sequence number of the newest committed record; `0` = empty log.
    committed_seq: u64,
    /// Database size in pages after the newest commit; `0` = unknown
    /// (no commits in the log).
    db_size: u32,
    /// Byte offset one past the last published `Commit` record.
    published_end: u64,
}

impl Default for WalIndex {
    fn default() -> Self {
        WalIndex {
            frames: Vec::new(),
            by_page: PageMap::default(),
            committed_seq: 0,
            db_size: 0,
            published_end: WAL_HEADER,
        }
    }
}

impl WalIndex {
    /// Finds the newest image of `page` visible at `snapshot`
    /// (`seq <= snapshot`): its byte offset and its record's sequence
    /// number, from one lookup — callers must not fetch the seq through
    /// a second index acquisition, since a checkpoint reset could empty
    /// the index in between.
    pub fn find_versioned(&self, page: PageId, snapshot: u64) -> Option<(u64, u64)> {
        let list = self.by_page.get(&page)?;
        // Records per page are ascending in seq: binary search for the
        // last one at or below the snapshot.
        let mut lo = 0usize;
        let mut hi = list.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.frames[list[mid] as usize].seq <= snapshot {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            None
        } else {
            let m = self.frames[list[lo - 1] as usize];
            Some((m.offset, m.seq))
        }
    }

    /// Latest committed sequence number.
    pub fn committed_seq(&self) -> u64 {
        self.committed_seq
    }

    /// Number of committed page images currently in the log.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Database page count recorded by the newest commit, if any.
    pub fn db_size(&self) -> Option<u32> {
        if self.db_size == 0 {
            None
        } else {
            Some(self.db_size)
        }
    }

    /// For checkpointing: the newest image per page among records with
    /// `seq <= upto`, as `(page, image offset, seq)`.
    pub fn latest_per_page(&self, upto: u64) -> Vec<(PageId, u64, u64)> {
        let mut out = Vec::with_capacity(self.by_page.len());
        for (&page, list) in &self.by_page {
            for &fi in list.iter().rev() {
                let m = self.frames[fi as usize];
                if m.seq <= upto {
                    out.push((page, m.offset, m.seq));
                    break;
                }
            }
        }
        out
    }
}

/// Unpublished tail state: the physical end of the file (which may
/// extend past the published index with spilled records), the txid
/// whose `Begin` record opens the unpublished run, if any, and the
/// `PagePut`s appended since the last publish.
#[derive(Default)]
struct PendingTail {
    /// Byte offset one past the last appended record.
    end: u64,
    /// Transaction whose `Begin` is already in the unpublished region.
    begun: Option<u64>,
    /// The unpublished `PagePut` records in file order, as
    /// [`Wal::append_records`] placed them: [`Wal::publish`] indexes
    /// these instead of reading the record headers back.
    frames: Vec<FrameMeta>,
}

impl PendingTail {
    /// An empty tail ending at `end`.
    fn at(end: u64) -> PendingTail {
        PendingTail {
            end,
            ..PendingTail::default()
        }
    }
}

/// The write-ahead log: an append-only record file plus the in-memory
/// [`WalIndex`]. All mutating operations are called with the store's
/// writer lock held; reads are lock-free on the file (pread). The one
/// exception is [`Wal::sync_committed`], which runs *outside* the
/// writer lock so concurrent committers can share one group fsync.
pub struct Wal {
    file: Box<dyn VfsFile>,
    index: parking_lot::RwLock<WalIndex>,
    /// Next sequence number to assign; strictly increasing for the
    /// lifetime of the process (seeded past recovered records on open).
    next_seq: parking_lot::Mutex<u64>,
    /// Physical tail of the file, including appended but not yet
    /// published (spilled) records. `end >= index.published_end`.
    pending_tail: parking_lot::Mutex<PendingTail>,
    /// Group-commit state: the durable watermark and the leader flag.
    /// Uses `std::sync` because waiters need a condition variable.
    group: GroupCommit,
}

struct GroupState {
    /// Highest sequence number known durable (covered by an fsync of
    /// the WAL, or carried into the main file by a synced checkpoint).
    synced_seq: u64,
    /// True while some committer's fsync is in flight.
    leader_active: bool,
}

struct GroupCommit {
    state: std::sync::Mutex<GroupState>,
    cv: std::sync::Condvar,
}

impl GroupCommit {
    fn new(synced_seq: u64) -> GroupCommit {
        GroupCommit {
            state: std::sync::Mutex::new(GroupState {
                synced_seq,
                leader_active: false,
            }),
            cv: std::sync::Condvar::new(),
        }
    }
}

/// Outcome of opening a WAL file.
pub struct WalOpen {
    pub wal: Wal,
    /// Number of torn/uncommitted page records discarded by recovery.
    pub discarded_frames: u64,
    /// fsyncs issued while opening: one when a missing or torn log was
    /// recreated with a synced header.
    pub syncs: u64,
}

impl Wal {
    /// Creates a fresh WAL at `path`, truncating any existing file.
    /// `sync_header` makes the header durable immediately — the extra
    /// safety of [`crate::SyncMode::Full`]; under `Normal`/`Off` the
    /// header reaches disk with the first group fsync instead.
    pub fn create(vfs: &dyn Vfs, path: &Path, sync_header: bool) -> Result<Wal> {
        let file = vfs.open(path, OpenMode::CreateTruncate)?;
        let mut hdr = [0u8; WAL_HEADER as usize];
        hdr[..8].copy_from_slice(&WAL_MAGIC.to_le_bytes());
        hdr[8..12].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        file.write_all_at(&hdr, 0)?;
        if sync_header {
            file.sync()?;
        }
        Ok(Wal {
            file,
            index: parking_lot::RwLock::new(WalIndex::default()),
            next_seq: parking_lot::Mutex::new(1),
            pending_tail: parking_lot::Mutex::new(PendingTail::at(WAL_HEADER)),
            group: GroupCommit::new(0),
        })
    }

    /// Opens an existing WAL, replaying committed transactions into the
    /// index (crash recovery). Creates the file if missing
    /// (`sync_header` as in [`Wal::create`]).
    pub fn open(vfs: &dyn Vfs, path: &Path, sync_header: bool) -> Result<WalOpen> {
        let fresh = || -> Result<WalOpen> {
            Ok(WalOpen {
                wal: Wal::create(vfs, path, sync_header)?,
                discarded_frames: 0,
                syncs: u64::from(sync_header),
            })
        };
        if !vfs.exists(path) {
            return fresh();
        }
        let file = vfs.open(path, OpenMode::Open)?;
        let len = file.len()?;
        if len < WAL_HEADER {
            // Torn header: treat as empty.
            drop(file);
            return fresh();
        }
        let mut hdr = [0u8; WAL_HEADER as usize];
        file.read_exact_at(&mut hdr, 0)?;
        let magic = u64::from_le_bytes(hdr[..8].try_into().unwrap());
        if magic != WAL_MAGIC {
            return Err(StorageError::BadHeader("wal magic mismatch".into()));
        }
        let page_size = u32::from_le_bytes(hdr[8..12].try_into().unwrap());
        if page_size as usize != PAGE_SIZE {
            return Err(StorageError::BadHeader(format!(
                "wal page size {page_size} != {PAGE_SIZE}"
            )));
        }

        let mut index = WalIndex::default();
        // PagePuts of the transaction currently being scanned; becomes
        // visible only when its Commit record is reached.
        let mut pending: Vec<FrameMeta> = Vec::new();
        let mut open_txid: Option<u64> = None;
        let mut committed_end = WAL_HEADER;
        let mut max_seq = 0u64;
        let mut parsed_pages = 0u64;
        let mut published_pages = 0u64;
        let mut rh = [0u8; RECORD_HEADER as usize];
        let mut img = vec![0u8; PAGE_SIZE];
        let mut pos = WAL_HEADER;
        loop {
            if pos + RECORD_HEADER > len {
                break; // torn record header
            }
            file.read_exact_at(&mut rh, pos)?;
            let kind = u32::from_le_bytes(rh[0..4].try_into().unwrap());
            let page = u32::from_le_bytes(rh[4..8].try_into().unwrap());
            let db_size = u32::from_le_bytes(rh[8..12].try_into().unwrap());
            let txid = u64::from_le_bytes(rh[16..24].try_into().unwrap());
            let seq = u64::from_le_bytes(rh[24..32].try_into().unwrap());
            let stored_ck = u64::from_le_bytes(rh[32..40].try_into().unwrap());
            let body: &[u8] = match kind {
                KIND_PAGE_PUT => {
                    if pos + PAGE_RECORD_SIZE > len {
                        parsed_pages += 1; // torn page image: discarded
                        break;
                    }
                    file.read_exact_at(&mut img, pos + RECORD_HEADER)?;
                    &img
                }
                KIND_BEGIN | KIND_COMMIT => &[],
                _ => break, // unknown kind: torn/garbage tail
            };
            if record_checksum(kind, page, db_size, txid, seq, body) != stored_ck {
                if kind == KIND_PAGE_PUT {
                    parsed_pages += 1; // corrupt page record: discarded
                }
                break; // torn record: stop recovery here
            }
            max_seq = max_seq.max(seq);
            match kind {
                KIND_BEGIN => {
                    pending.clear();
                    open_txid = Some(txid);
                    pos += RECORD_HEADER;
                }
                KIND_PAGE_PUT => {
                    if open_txid != Some(txid) {
                        break; // record outside its transaction: torn
                    }
                    parsed_pages += 1;
                    pending.push(FrameMeta {
                        page,
                        seq,
                        offset: pos + RECORD_HEADER,
                    });
                    pos += PAGE_RECORD_SIZE;
                }
                _ => {
                    // Commit: publish the pending run atomically.
                    if open_txid != Some(txid) {
                        break;
                    }
                    for m in pending.drain(..) {
                        let fi = index.frames.len() as u32;
                        index.by_page.entry(m.page).or_default().push(fi);
                        index.frames.push(m);
                        published_pages += 1;
                    }
                    index.committed_seq = seq;
                    index.db_size = db_size;
                    open_txid = None;
                    pos += RECORD_HEADER;
                    committed_end = pos;
                }
            }
        }
        let discarded = parsed_pages - published_pages;
        // Truncate any torn/uncommitted tail so appends stay contiguous.
        file.set_len(committed_end)?;
        index.published_end = committed_end;
        let next = max_seq.max(index.committed_seq) + 1;
        // Everything recovery accepted is on disk by definition; seed
        // the durable watermark there so only new commits fsync.
        let synced = index.committed_seq;
        Ok(WalOpen {
            wal: Wal {
                file,
                index: parking_lot::RwLock::new(index),
                next_seq: parking_lot::Mutex::new(next),
                pending_tail: parking_lot::Mutex::new(PendingTail::at(committed_end)),
                group: GroupCommit::new(synced),
            },
            discarded_frames: discarded,
            syncs: 0,
        })
    }

    /// Appends one transaction's remaining dirty pages as `PagePut`
    /// records followed by a `Commit` record (preceded by a `Begin`
    /// unless [`Wal::spill`] already wrote one for `txid`), then
    /// publishes the whole run — including earlier spilled records — to
    /// the index. Returns the commit sequence number and each page's
    /// `(image offset, seq)`. Called with the writer lock held.
    /// Durability is separate: call [`Wal::sync_committed`] (after
    /// releasing the writer lock) before acking.
    pub fn append_commit(
        &self,
        txid: u64,
        pages: &[(PageId, &PageData)],
        db_size: u32,
    ) -> Result<(u64, Vec<(u64, u64)>)> {
        assert!(!pages.is_empty(), "empty commits are elided by the store");
        let (placed, commit_seq) = self.append_records(txid, pages, Some(db_size))?;
        let commit_seq = commit_seq.expect("commit record was appended");
        self.publish(db_size, commit_seq);
        Ok((commit_seq, placed))
    }

    /// Blocks until every record up to `upto` is durable, issuing at
    /// most one fsync per *group* of waiting committers: the first
    /// arrival leads and syncs the whole published log; later arrivals
    /// wait for that sync (or the next) to cover them. Returns whether
    /// this caller issued an fsync itself, for I/O accounting. Called
    /// *without* the writer lock, so commits already published keep
    /// flowing while a sync is in flight.
    pub fn sync_committed(&self, upto: u64) -> Result<bool> {
        let mut issued = false;
        let mut st = self.group.state.lock().expect("group lock poisoned");
        loop {
            if st.synced_seq >= upto {
                return Ok(issued);
            }
            if st.leader_active {
                st = self.group.cv.wait(st).expect("group lock poisoned");
                continue;
            }
            st.leader_active = true;
            drop(st);
            // Snapshot the published watermark after taking leadership:
            // the fsync below makes every record appended before this
            // point durable, so the whole group is covered at once.
            let target = self.index.read().committed_seq();
            let res = self.file.sync();
            st = self.group.state.lock().expect("group lock poisoned");
            st.leader_active = false;
            self.group.cv.notify_all();
            match res {
                Ok(()) => {
                    st.synced_seq = st.synced_seq.max(target);
                    issued = true;
                }
                // Waiters retake leadership and surface their own error.
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Appends `PagePut` records *without* a `Commit` and without
    /// publishing: the cache-spill path for transactions larger than
    /// memory (e.g. a full index rebuild). The transaction's `Begin`
    /// record is written ahead of the first spilled batch. Spilled
    /// records are invisible to readers and discarded by crash recovery
    /// until a later [`Wal::append_commit`] publishes everything.
    /// Returns `(image offset, seq)` per page. Called with the writer
    /// lock held.
    pub fn spill(&self, txid: u64, pages: &[(PageId, &PageData)]) -> Result<Vec<(u64, u64)>> {
        let (placed, _) = self.append_records(txid, pages, None)?;
        Ok(placed)
    }

    /// Discards all unpublished records (rollback of a spilling
    /// transaction): truncates the file back to the published tail.
    /// Called with the writer lock held.
    pub fn truncate_unpublished(&self) -> Result<()> {
        let published_end = self.index.read().published_end;
        let mut tail = self.pending_tail.lock();
        if tail.end > published_end {
            self.file.set_len(published_end)?;
        }
        *tail = PendingTail::at(published_end);
        Ok(())
    }

    /// Appends a run of records for `txid`: a lazy `Begin` (first
    /// append of this transaction since the last publish/rollback),
    /// one `PagePut` per page, and — when `commit_db_size` is set — a
    /// trailing `Commit`. Returns each page's `(image offset, seq)`
    /// plus the commit seq, if any. One pwrite: a torn append is a pure
    /// prefix, which recovery handles.
    #[allow(clippy::type_complexity)]
    fn append_records(
        &self,
        txid: u64,
        pages: &[(PageId, &PageData)],
        commit_db_size: Option<u32>,
    ) -> Result<(Vec<(u64, u64)>, Option<u64>)> {
        let (start_off, base_seq, need_begin) = {
            let mut tail = self.pending_tail.lock();
            let need_begin = tail.begun != Some(txid);
            let records =
                pages.len() as u64 + u64::from(need_begin) + u64::from(commit_db_size.is_some());
            let bytes = pages.len() as u64 * PAGE_RECORD_SIZE
                + (records - pages.len() as u64) * RECORD_HEADER;
            let mut ns = self.next_seq.lock();
            let base = *ns;
            *ns += records;
            let start = tail.end;
            tail.end += bytes;
            tail.begun = Some(txid);
            (start, base, need_begin)
        };
        let mut buf = Vec::with_capacity(
            pages.len() * PAGE_RECORD_SIZE as usize + 2 * RECORD_HEADER as usize,
        );
        let mut seq = base_seq;
        let mut frames = Vec::with_capacity(pages.len());
        if need_begin {
            push_record(&mut buf, KIND_BEGIN, 0, 0, txid, seq, &[]);
            seq += 1;
        }
        for &(page, data) in pages {
            let offset = start_off + buf.len() as u64 + RECORD_HEADER;
            push_record(&mut buf, KIND_PAGE_PUT, page, 0, txid, seq, &data[..]);
            frames.push(FrameMeta { page, seq, offset });
            seq += 1;
        }
        let commit_seq = commit_db_size.map(|db_size| {
            push_record(&mut buf, KIND_COMMIT, 0, db_size, txid, seq, &[]);
            seq
        });
        self.file.write_all_at(&buf, start_off)?;
        let placed = frames.iter().map(|m| (m.offset, m.seq)).collect();
        self.pending_tail.lock().frames.extend(frames);
        Ok((placed, commit_seq))
    }

    /// Publishes every appended-but-unpublished record up to the
    /// current pending tail: readers beginning after this see the new
    /// snapshot. The `PagePut`s to index (spilled ones included) come
    /// from the list [`Wal::append_records`] kept, so publishing reads
    /// nothing back from the file.
    fn publish(&self, db_size: u32, commit_seq: u64) {
        let mut tail = self.pending_tail.lock();
        tail.begun = None;
        let mut index = self.index.write();
        for m in tail.frames.drain(..) {
            let fi = index.frames.len() as u32;
            index.by_page.entry(m.page).or_default().push(fi);
            index.frames.push(m);
        }
        index.committed_seq = commit_seq;
        index.db_size = db_size;
        index.published_end = tail.end;
    }

    /// Reads the page image at `image_offset` (from
    /// [`WalIndex::find_versioned`] / [`WalIndex::latest_per_page`], or
    /// [`Wal::spill`] for the writer that spilled it) into `page`.
    pub fn read_frame(&self, image_offset: u64, page: &mut PageData) -> Result<()> {
        self.file.read_exact_at(&mut page[..], image_offset)?;
        Ok(())
    }

    /// Shared read access to the index.
    pub fn index(&self) -> parking_lot::RwLockReadGuard<'_, WalIndex> {
        self.index.read()
    }

    /// Truncates the log back to an empty state after a checkpoint has
    /// copied all page images into the main file. Called with the
    /// writer lock held and no readers below the checkpointed snapshot.
    pub fn reset(&self, sync: bool) -> Result<()> {
        self.file.set_len(WAL_HEADER)?;
        if sync {
            self.file.sync()?;
        }
        *self.pending_tail.lock() = PendingTail::at(WAL_HEADER);
        let mut index = self.index.write();
        let committed = index.committed_seq;
        let db_size = index.db_size;
        *index = WalIndex::default();
        // The committed watermark survives the reset: snapshots are
        // logical versions, not file offsets.
        index.committed_seq = committed;
        index.db_size = db_size;
        Ok(())
    }
}

/// Serializes one record (header + optional page image) into `buf`.
fn push_record(
    buf: &mut Vec<u8>,
    kind: u32,
    page: PageId,
    db_size: u32,
    txid: u64,
    seq: u64,
    body: &[u8],
) {
    let ck = record_checksum(kind, page, db_size, txid, seq, body);
    buf.extend_from_slice(&kind.to_le_bytes());
    buf.extend_from_slice(&page.to_le_bytes());
    buf.extend_from_slice(&db_size.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes()); // reserved
    buf.extend_from_slice(&txid.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&ck.to_le_bytes());
    buf.extend_from_slice(body);
}

/// Checksum covering the record header fields and the page image
/// (empty for `Begin`/`Commit` records).
fn record_checksum(kind: u32, page: PageId, db_size: u32, txid: u64, seq: u64, body: &[u8]) -> u64 {
    let mut hdr = [0u8; 28];
    hdr[0..4].copy_from_slice(&kind.to_le_bytes());
    hdr[4..8].copy_from_slice(&page.to_le_bytes());
    hdr[8..12].copy_from_slice(&db_size.to_le_bytes());
    hdr[12..20].copy_from_slice(&txid.to_le_bytes());
    hdr[20..28].copy_from_slice(&seq.to_le_bytes());
    let h = fnv1a(0, &hdr);
    fnv1a(h, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;

    fn page_filled(b: u8) -> PageData {
        let mut p = PageData::zeroed();
        p.iter_mut().for_each(|x| *x = b);
        p
    }

    /// The first byte of the frame image at `offset`.
    fn frame_byte(wal: &Wal, offset: u64) -> u8 {
        let mut page = PageData::zeroed();
        wal.read_frame(offset, &mut page).unwrap();
        page[0]
    }

    fn create(path: &Path) -> Wal {
        Wal::create(&StdVfs, path, true).unwrap()
    }

    fn reopen(path: &Path) -> WalOpen {
        Wal::open(&StdVfs, path, true).unwrap()
    }

    /// [`Wal::append_commit`] followed, when `sync` is set, by
    /// [`Wal::sync_committed`]: the commit seq.
    fn commit(
        wal: &Wal,
        txid: u64,
        pages: &[(PageId, &PageData)],
        db_size: u32,
        sync: bool,
    ) -> Result<u64> {
        let (commit_seq, _) = wal.append_commit(txid, pages, db_size)?;
        if sync {
            wal.sync_committed(commit_seq)?;
        }
        Ok(commit_seq)
    }

    #[test]
    fn commit_and_lookup() {
        let dir = tempfile::tempdir().unwrap();
        let wal = create(&dir.path().join("w.wal"));
        let p1 = page_filled(1);
        let p2 = page_filled(2);
        let seq = commit(&wal, 1, &[(5, &p1), (9, &p2)], 10, false).unwrap();
        // Begin + two PagePuts + Commit consume four seqs.
        assert_eq!(seq, 4);
        let idx = wal.index();
        assert_eq!(idx.committed_seq(), 4);
        assert_eq!(idx.db_size(), Some(10));
        let f5 = idx.find_versioned(5, seq).unwrap().0;
        let f9 = idx.find_versioned(9, seq).unwrap().0;
        drop(idx);
        assert_eq!(frame_byte(&wal, f5), 1);
        assert_eq!(frame_byte(&wal, f9), 2);
    }

    #[test]
    fn snapshot_sees_only_older_records() {
        let dir = tempfile::tempdir().unwrap();
        let wal = create(&dir.path().join("w.wal"));
        let old = page_filled(1);
        let new = page_filled(2);
        let snap1 = commit(&wal, 1, &[(5, &old)], 10, false).unwrap();
        let snap2 = commit(&wal, 2, &[(5, &new)], 10, false).unwrap();
        let idx = wal.index();
        let f_old = idx.find_versioned(5, snap1).unwrap().0;
        let f_new = idx.find_versioned(5, snap2).unwrap().0;
        assert_ne!(f_old, f_new);
        drop(idx);
        assert_eq!(frame_byte(&wal, f_old), 1);
        assert_eq!(frame_byte(&wal, f_new), 2);
        // A snapshot taken before any commit sees nothing.
        assert!(wal.index().find_versioned(5, 0).is_none());
    }

    #[test]
    fn recovery_replays_committed_transactions() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("w.wal");
        {
            let wal = create(&path);
            commit(&wal, 1, &[(1, &page_filled(7))], 3, true).unwrap();
            commit(
                &wal,
                2,
                &[(2, &page_filled(8)), (1, &page_filled(9))],
                3,
                true,
            )
            .unwrap();
            // Dropped without checkpoint: simulates a crash.
        }
        let opened = reopen(&path);
        assert_eq!(opened.discarded_frames, 0);
        let wal = opened.wal;
        let idx = wal.index();
        assert_eq!(idx.frame_count(), 3);
        let snap = idx.committed_seq();
        let f1 = idx.find_versioned(1, snap).unwrap().0;
        drop(idx);
        assert_eq!(frame_byte(&wal, f1), 9, "newest version wins");
    }

    #[test]
    fn recovery_discards_torn_tail() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("w.wal");
        {
            let wal = create(&path);
            commit(&wal, 1, &[(1, &page_filled(7))], 3, true).unwrap();
            commit(&wal, 2, &[(2, &page_filled(8))], 3, true).unwrap();
        }
        // Corrupt the second transaction's page image -> checksum fails.
        {
            use std::os::unix::fs::FileExt;
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            // First txn: Begin + PagePut + Commit; second txn's image
            // sits one Begin + one record header past that.
            let off = WAL_HEADER
                + (RECORD_HEADER + PAGE_RECORD_SIZE + RECORD_HEADER) // txn 1
                + RECORD_HEADER // txn 2 Begin
                + RECORD_HEADER // txn 2 PagePut header
                + 100;
            f.write_all_at(&[0xFF], off).unwrap();
        }
        let opened = reopen(&path);
        assert_eq!(opened.discarded_frames, 1);
        let idx = opened.wal.index();
        assert_eq!(idx.frame_count(), 1);
        assert!(idx.find_versioned(2, idx.committed_seq()).is_none());
        assert!(idx.find_versioned(1, idx.committed_seq()).is_some());
    }

    #[test]
    fn recovery_discards_uncommitted_spill() {
        // A Begin + PagePuts with no trailing Commit (a spilling
        // transaction that crashed) must be invisible after recovery.
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("w.wal");
        {
            let wal = create(&path);
            commit(&wal, 1, &[(1, &page_filled(7))], 3, true).unwrap();
            wal.spill(2, &[(4, &page_filled(9)), (5, &page_filled(10))])
                .unwrap();
        }
        let opened = reopen(&path);
        assert_eq!(opened.discarded_frames, 2);
        let idx = opened.wal.index();
        assert_eq!(idx.frame_count(), 1);
        assert!(idx.find_versioned(4, u64::MAX).is_none());
        assert!(idx.find_versioned(1, idx.committed_seq()).is_some());
    }

    #[test]
    fn spill_then_commit_publishes_atomically() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("w.wal");
        let wal = create(&path);
        wal.spill(7, &[(4, &page_filled(9))]).unwrap();
        assert_eq!(wal.index().frame_count(), 0, "spill is unpublished");
        let (seq, placed) = wal.append_commit(7, &[(5, &page_filled(10))], 6).unwrap();
        assert_eq!(placed.len(), 1);
        let idx = wal.index();
        assert_eq!(idx.frame_count(), 2, "spilled + committed published");
        assert_eq!(idx.committed_seq(), seq);
        let f4 = idx.find_versioned(4, seq).unwrap().0;
        drop(idx);
        assert_eq!(frame_byte(&wal, f4), 9);
        // Recovery agrees: the whole transaction is visible.
        drop(wal);
        let opened = reopen(&path);
        assert_eq!(opened.discarded_frames, 0);
        assert_eq!(opened.wal.index().frame_count(), 2);
    }

    #[test]
    fn corrupted_commit_record_hides_whole_transaction() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("w.wal");
        {
            let wal = create(&path);
            commit(&wal, 1, &[(1, &page_filled(7))], 3, true).unwrap();
            commit(&wal, 2, &[(2, &page_filled(8))], 3, true).unwrap();
        }
        // Flip the stored checksum of the final Commit record (the last
        // 8 bytes of the file).
        {
            use std::os::unix::fs::FileExt;
            let f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            let len = std::fs::metadata(&path).unwrap().len();
            let mut ck = [0u8; 8];
            f.read_exact_at(&mut ck, len - 8).unwrap();
            ck.iter_mut().for_each(|b| *b ^= 0xA5);
            f.write_all_at(&ck, len - 8).unwrap();
        }
        let opened = reopen(&path);
        assert_eq!(opened.discarded_frames, 1);
        let idx = opened.wal.index();
        assert_eq!(idx.frame_count(), 1);
        assert!(
            idx.find_versioned(2, u64::MAX).is_none(),
            "uncommitted txn hidden"
        );
    }

    #[test]
    fn truncate_unpublished_discards_spill() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("w.wal");
        let wal = create(&path);
        let c1 = commit(&wal, 1, &[(1, &page_filled(7))], 3, false).unwrap();
        wal.spill(2, &[(4, &page_filled(9))]).unwrap();
        wal.truncate_unpublished().unwrap();
        assert_eq!(wal.index().frame_count(), 1);
        // The next transaction writes a fresh Begin and commits fine.
        let c2 = commit(&wal, 3, &[(5, &page_filled(1))], 6, false).unwrap();
        assert!(c2 > c1);
        let opened = reopen(&path);
        assert_eq!(opened.wal.index().frame_count(), 2);
    }

    /// `(page, seq, offset)` of every indexed record, in file order.
    fn indexed(wal: &Wal) -> Vec<(PageId, u64, u64)> {
        let idx = wal.index();
        idx.frames
            .iter()
            .map(|m| (m.page, m.seq, m.offset))
            .collect()
    }

    #[test]
    fn publishing_from_memory_indexes_what_recovery_reads() {
        use crate::sim::SimVfs;
        let sim = SimVfs::new();
        let path = Path::new("/w.wal");
        let wal = Wal::create(&sim, path, false).unwrap();
        let writes = || sim.recorded().0;
        commit(
            &wal,
            1,
            &[(1, &page_filled(1)), (2, &page_filled(2))],
            3,
            false,
        )
        .unwrap();
        wal.spill(2, &[(3, &page_filled(3))]).unwrap();
        wal.truncate_unpublished().unwrap(); // rolled back: never indexed
        wal.spill(3, &[(4, &page_filled(4)), (5, &page_filled(5))])
            .unwrap();
        wal.spill(3, &[(6, &page_filled(6))]).unwrap();
        let before = writes();
        commit(&wal, 3, &[(7, &page_filled(7))], 8, false).unwrap();
        assert_eq!(writes() - before, 1, "a commit is one pwrite");
        commit(&wal, 4, &[(1, &page_filled(9))], 8, false).unwrap();
        assert_eq!(indexed(&wal).len(), 7);
        let recovered = Wal::open(&sim, path, false).unwrap().wal;
        assert_eq!(indexed(&wal), indexed(&recovered));

        wal.reset(false).unwrap();
        wal.spill(5, &[(3, &page_filled(3))]).unwrap();
        commit(&wal, 5, &[(2, &page_filled(2))], 8, false).unwrap();
        let recovered = Wal::open(&sim, path, false).unwrap().wal;
        assert_eq!(indexed(&wal).len(), 2);
        assert_eq!(indexed(&wal), indexed(&recovered));
    }

    #[test]
    fn reset_preserves_watermark() {
        let dir = tempfile::tempdir().unwrap();
        let wal = create(&dir.path().join("w.wal"));
        let snap = commit(&wal, 1, &[(1, &page_filled(1))], 2, false).unwrap();
        wal.reset(false).unwrap();
        let idx = wal.index();
        assert_eq!(idx.frame_count(), 0);
        assert_eq!(idx.committed_seq(), snap);
        assert!(
            idx.find_versioned(1, snap).is_none(),
            "records gone after reset"
        );
        drop(idx);
        // Sequence numbers keep increasing after a reset.
        let snap2 = commit(&wal, 2, &[(1, &page_filled(2))], 2, false).unwrap();
        assert!(snap2 > snap);
    }

    #[test]
    fn sync_committed_is_idempotent_past_watermark() {
        let dir = tempfile::tempdir().unwrap();
        let wal = create(&dir.path().join("w.wal"));
        let seq = commit(&wal, 1, &[(1, &page_filled(1))], 2, false).unwrap();
        assert!(wal.sync_committed(seq).unwrap(), "first caller syncs");
        assert!(
            !wal.sync_committed(seq).unwrap(),
            "watermark already covers seq: no second fsync"
        );
    }

    #[test]
    fn latest_per_page_respects_upto() {
        let dir = tempfile::tempdir().unwrap();
        let wal = create(&dir.path().join("w.wal"));
        let s1 = commit(&wal, 1, &[(1, &page_filled(1))], 2, false).unwrap();
        let _s2 = commit(&wal, 2, &[(1, &page_filled(2))], 2, false).unwrap();
        let idx = wal.index();
        let upto_s1 = idx.latest_per_page(s1);
        assert_eq!(upto_s1.len(), 1);
        // The page record's seq is below the commit record's seq.
        assert!(upto_s1[0].2 < s1);
        let all = idx.latest_per_page(u64::MAX);
        assert_eq!(all.len(), 1);
        assert!(all[0].2 > s1);
    }
}
