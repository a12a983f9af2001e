//! What a warm ANN query costs when the buffer pool holds about a tenth
//! of the file, in exact counts: the pool misses it pays, the WAL
//! frames it re-reads (the delta's leaves live in the WAL until a
//! checkpoint) and the page-sized allocations it makes.
//!
//! A full pool refills the frames it evicts in place, so once it is
//! full a miss allocates no page. A scan page that the next query hits
//! again earns a second chance, so the delta leaves every query scans
//! stay cached instead of being re-read from the WAL each time. The
//! database runs on [`SimVfs`] with one scan worker, so every count is
//! exact.
//! This binary counts with its own allocator, so it holds one test
//! only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use micronn::{Config, Metric, MicroNN, SearchRequest, SyncMode, VectorRecord};
use micronn_storage::{OpenMode, SimVfs, Vfs, PAGE_SIZE};

/// Counts the page-sized allocations of the thread that asked for
/// counting.
struct Counting;

static PAGE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if size == PAGE_SIZE && COUNTED.with(Cell::get) {
        PAGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method hands its arguments, unchanged, to the same
// method of `System`, so the caller's side of the `GlobalAlloc` contract
// is exactly what `System` is owed and `System` keeps the implementor's
// side; `note` touches no allocator state and allocates nothing (a
// const-initialised `Cell<bool>` has no lazy initialiser or destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded as received; see the impl.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded as received; see the impl.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded as received; see the impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received; see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const DIM: usize = 16;
const ROWS: i64 = 3000;
/// Rows upserted after the checkpoint: the live delta, in the WAL.
const DELTA: i64 = 60;
const POOL_BYTES: usize = 80 * 1024;
const PROBES: usize = 4;
const QUERIES: usize = 8;

/// `(pool misses, WAL reads, page-sized allocations)` of one pass of
/// the `QUERIES` queries once the pool is full.
const COUNTS: (u64, u64, usize) = (151, 10, 0);

fn vector(i: i64) -> Vec<f32> {
    (0..DIM as i64)
        .map(|d| ((i * 7 + d * 13) % 23) as f32 + (i % 10) as f32 * 10.0)
        .collect()
}

fn file_len(sim: &SimVfs, path: &Path) -> u64 {
    sim.open(path, OpenMode::Open).unwrap().len().unwrap()
}

#[test]
fn a_tight_pool_query_misses_reads_and_allocates_exact_counts() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("tight.mnn");
    let sim = SimVfs::new();
    let mut cfg = Config::new(DIM, Metric::L2);
    cfg.store.vfs = sim.handle();
    cfg.store.sync = SyncMode::Off;
    cfg.store.pool_bytes = POOL_BYTES;
    // The delta stays in the WAL: no checkpoint but the explicit one.
    cfg.store.checkpoint_after_frames = 0;
    (cfg.target_partition_size, cfg.workers) = (100, 1);
    cfg.delta_flush_threshold = usize::MAX;
    (cfg.trace, cfg.slow_query_ms) = (false, None);
    let db = MicroNN::create(&path, cfg).unwrap();
    let records: Vec<_> = (0..ROWS).map(|i| VectorRecord::new(i, vector(i))).collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();
    db.checkpoint().unwrap();
    let delta: Vec<_> = (ROWS..ROWS + DELTA)
        .map(|i| VectorRecord::new(i, vector(i * 3 + 1)))
        .collect();
    db.upsert_batch(&delta).unwrap();
    let file = file_len(&sim, &path);
    assert!(
        (8..=12).contains(&(file / POOL_BYTES as u64)),
        "the pool holds about a tenth of the {file}-byte file"
    );

    let requests: Vec<_> = (0..QUERIES as i64)
        .map(|q| SearchRequest::new(vector(q * 37 + 5), 10).with_probes(PROBES))
        .collect();
    // Twice to fill the pool and settle it, then once counted.
    for _ in 0..2 {
        for req in &requests {
            db.search_with(req).unwrap();
        }
    }
    let io = db.io_stats();
    assert!(io.pool_evictions > 0, "the pool is full");
    let before = PAGE_ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    for req in &requests {
        db.search_with(req).unwrap();
    }
    COUNTED.with(|c| c.set(false));
    let allocations = PAGE_ALLOCATIONS.load(Ordering::Relaxed) - before;
    let io = db.io_stats().since(&io);
    let got = (io.pool_misses, io.wal_reads, allocations);
    assert_eq!(got, COUNTS, "got {got:?}");
}
