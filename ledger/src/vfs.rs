//! `CountingVfs`: the ledger's view of the device.
//!
//! Wraps [`StdVfs`] and counts and times every read, write, truncate
//! and sync, per file kind (main database file vs write-ahead log).
//! Syncs are **counted, not issued**: on a shared sandbox the cost of a
//! disk flush is the host's noise, while the number of flushes a
//! workload asks for is exact and portable. Both sides of any
//! comparison run under this same policy.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use micronn_storage::{OpenMode, StdVfs, Vfs, VfsFile};

/// Whether `path` names a write-ahead log (`<main>-wal`) rather than
/// a main database file.
fn is_wal(path: &Path) -> bool {
    path.as_os_str().to_string_lossy().ends_with("-wal")
}

/// Live counters of one file kind. Statistics only: nothing is
/// published through them, so every access is `Relaxed`.
#[derive(Debug, Default)]
struct Counters {
    reads: AtomicU64,
    read_bytes: AtomicU64,
    writes: AtomicU64,
    write_bytes: AtomicU64,
    syncs: AtomicU64,
    truncates: AtomicU64,
    busy_ns: AtomicU64,
}

/// A point-in-time copy of one file kind's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileStats {
    /// `read_exact_at` calls.
    pub reads: u64,
    /// Bytes those reads returned.
    pub read_bytes: u64,
    /// `write_all_at` calls.
    pub writes: u64,
    /// Bytes those writes carried.
    pub write_bytes: u64,
    /// `sync` calls (counted, never issued).
    pub syncs: u64,
    /// `set_len` calls.
    pub truncates: u64,
    /// Wall-clock nanoseconds spent inside the wrapped calls.
    pub busy_ns: u64,
}

impl FileStats {
    fn since(&self, earlier: &FileStats) -> FileStats {
        FileStats {
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            syncs: self.syncs - earlier.syncs,
            truncates: self.truncates - earlier.truncates,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

impl std::ops::AddAssign for FileStats {
    fn add_assign(&mut self, d: FileStats) {
        self.reads += d.reads;
        self.read_bytes += d.read_bytes;
        self.writes += d.writes;
        self.write_bytes += d.write_bytes;
        self.syncs += d.syncs;
        self.truncates += d.truncates;
        self.busy_ns += d.busy_ns;
    }
}

/// Counters of both file kinds at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsStats {
    pub main: FileStats,
    pub wal: FileStats,
}

impl std::ops::AddAssign for VfsStats {
    fn add_assign(&mut self, d: VfsStats) {
        self.main += d.main;
        self.wal += d.wal;
    }
}

impl VfsStats {
    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &VfsStats) -> VfsStats {
        VfsStats {
            main: self.main.since(&earlier.main),
            wal: self.wal.since(&earlier.wal),
        }
    }

    /// Read calls on either file.
    pub fn reads(&self) -> u64 {
        self.main.reads + self.wal.reads
    }

    /// Bytes read from either file.
    pub fn read_bytes(&self) -> u64 {
        self.main.read_bytes + self.wal.read_bytes
    }

    /// Bytes written to either file.
    pub fn write_bytes(&self) -> u64 {
        self.main.write_bytes + self.wal.write_bytes
    }

    /// Sync calls on either file.
    pub fn syncs(&self) -> u64 {
        self.main.syncs + self.wal.syncs
    }

    /// Nanoseconds spent inside any wrapped call.
    pub fn busy_ns(&self) -> u64 {
        self.main.busy_ns + self.wal.busy_ns
    }
}

/// The counting file system; see the module docs. Cheap to clone into
/// [`micronn_storage::StoreOptions::vfs`] through [`CountingVfs::handle`].
#[derive(Debug, Default)]
pub struct CountingVfs {
    main: Arc<Counters>,
    wal: Arc<Counters>,
}

impl CountingVfs {
    /// A fresh counter set behind an `Arc`, ready to be mounted.
    pub fn new() -> Arc<CountingVfs> {
        Arc::new(CountingVfs::default())
    }

    /// This VFS as the trait object `StoreOptions` wants.
    pub fn handle(self: &Arc<Self>) -> Arc<dyn Vfs> {
        Arc::clone(self) as Arc<dyn Vfs>
    }

    /// Current totals.
    pub fn stats(&self) -> VfsStats {
        VfsStats {
            main: snapshot(&self.main),
            wal: snapshot(&self.wal),
        }
    }
}

fn snapshot(c: &Counters) -> FileStats {
    FileStats {
        reads: c.reads.load(Ordering::Relaxed),
        read_bytes: c.read_bytes.load(Ordering::Relaxed),
        writes: c.writes.load(Ordering::Relaxed),
        write_bytes: c.write_bytes.load(Ordering::Relaxed),
        syncs: c.syncs.load(Ordering::Relaxed),
        truncates: c.truncates.load(Ordering::Relaxed),
        busy_ns: c.busy_ns.load(Ordering::Relaxed),
    }
}

impl Vfs for CountingVfs {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        let counters = Arc::clone(if is_wal(path) { &self.wal } else { &self.main });
        Ok(Box::new(CountingFile {
            file: StdVfs.open(path, mode)?,
            counters,
        }))
    }

    fn exists(&self, path: &Path) -> bool {
        StdVfs.exists(path)
    }
}

struct CountingFile {
    file: Box<dyn VfsFile>,
    counters: Arc<Counters>,
}

impl CountingFile {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.counters
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl VfsFile for CountingFile {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.counters
            .read_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.timed(|| self.file.read_exact_at(buf, offset))
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .write_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.timed(|| self.file.write_all_at(buf, offset))
    }

    fn sync(&self) -> io::Result<()> {
        // Counted, not issued: see the module docs.
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.counters.truncates.fetch_add(1, Ordering::Relaxed);
        self.timed(|| self.file.set_len(len))
    }

    fn len(&self) -> io::Result<u64> {
        self.file.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micronn_storage::{Store, StoreOptions, SyncMode, PAGE_SIZE};

    /// A scripted commit + checkpoint: the VFS counts must agree with
    /// what the store says it did.
    #[test]
    fn counts_match_store_stats_for_commit_and_checkpoint() {
        let dir = crate::scratch_dir("vfs-test");
        let vfs = CountingVfs::new();
        let opts = StoreOptions {
            sync: SyncMode::Normal,
            checkpoint_after_frames: 0,
            prefetch_queue_pages: 0,
            vfs: vfs.handle(),
            ..Default::default()
        };
        let store = Store::create(dir.join("t.mnn"), opts).unwrap();
        let created = vfs.stats();
        let base = store.stats();

        // One commit dirtying 5 fresh pages (+ the header page).
        let mut txn = store.begin_write().unwrap();
        for i in 0..5u8 {
            let p = txn.allocate_page().unwrap();
            txn.page_mut(p).unwrap()[64] = i + 1;
        }
        txn.commit().unwrap();
        let after_commit = vfs.stats().since(&created);
        let st = store.stats().since(&base);
        assert_eq!(st.commits, 1);
        assert_eq!(st.wal_writes, 6, "5 pages + header");
        assert_eq!(after_commit.wal.writes, 1, "one pwrite per commit run");
        assert!(
            after_commit.wal.write_bytes > st.wal_writes * PAGE_SIZE as u64,
            "frames plus record headers"
        );
        assert!(after_commit.wal.write_bytes < (st.wal_writes + 1) * PAGE_SIZE as u64);
        assert_eq!(after_commit.main.writes, 0, "commits never touch main");
        assert_eq!(st.syncs, 1);
        assert_eq!(after_commit.syncs(), st.syncs, "the group-commit fsync");

        // Checkpoint: every committed frame lands in the main file.
        assert!(store.checkpoint().unwrap());
        let after_ckpt = vfs.stats().since(&created);
        let st = store.stats().since(&base);
        assert_eq!(st.checkpoints, 1);
        assert_eq!(st.main_writes, 6);
        assert_eq!(after_ckpt.main.writes, st.main_writes);
        assert_eq!(
            after_ckpt.main.write_bytes,
            st.main_writes * PAGE_SIZE as u64
        );
        // The store tallies the main-file sync of a checkpoint; the
        // sync that follows the WAL truncation is issued but untallied.
        assert_eq!(st.syncs, 2);
        assert_eq!(after_ckpt.main.syncs, 1);
        assert_eq!(after_ckpt.wal.syncs, 2);
        assert_eq!(after_ckpt.syncs(), st.syncs + st.checkpoints);
        assert_eq!(after_ckpt.wal.truncates, 1, "WAL reset");

        // Reads: a purged pool must fetch through the VFS, page-sized.
        store.purge_cache();
        let before = vfs.stats();
        let base = store.stats();
        let r = store.begin_read();
        use micronn_storage::PageRead;
        let _ = r.page(1).unwrap();
        let reads = vfs.stats().since(&before);
        let st = store.stats().since(&base);
        assert_eq!(st.main_reads, 1);
        assert_eq!(reads.main.reads, 1);
        assert_eq!(reads.main.read_bytes, PAGE_SIZE as u64);
        assert!(reads.busy_ns() > 0, "reads are timed");
        drop(r);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_is_counted_not_issued() {
        let dir = crate::scratch_dir("vfs-sync");
        let vfs = CountingVfs::new();
        let f = vfs.open(&dir.join("x-wal"), OpenMode::CreateNew).unwrap();
        f.write_all_at(b"abc", 0).unwrap();
        f.sync().unwrap();
        f.sync().unwrap();
        let s = vfs.stats();
        assert_eq!(s.wal.syncs, 2);
        assert_eq!(s.wal.write_bytes, 3);
        assert_eq!(s.main, FileStats::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
