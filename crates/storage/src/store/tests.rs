//! Store tests: transactions, recovery, checkpoints, the commit's
//! elision of unchanged pages, sync accounting and run reads.

use std::sync::atomic::Ordering;

use super::*;
use crate::btree::node;
use crate::page::page_type;

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
