//! What a warm ANN query costs, in exact counts, for each codec.
//!
//! A partition scan lends each row (an f32 row, an SQ8 code row, an SQ4
//! block) from its pinned leaf to the members' scorers, which offer
//! every score to their heaps at once: no scan copies a row into a
//! buffer first. So a warm query's allocations are a few per probed
//! partition (its heaps and scorers), not a few per row: scanning 383
//! rows instead of 87 costs at most four more. The counts here are
//! exact: a change that allocates per row, or scans a different set of
//! rows, moves them. This binary counts with its own allocator, so it
//! holds one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use micronn::{
    Config, Metric, MicroNN, PlanUsed, SearchRequest, SyncMode, VectorCodec, VectorRecord,
};

/// Counts the allocations (and growing reallocations) of the thread
/// that asked for counting.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method hands its arguments, unchanged, to the same
// method of `System`, so the caller's side of the `GlobalAlloc` contract
// is exactly what `System` is owed and `System` keeps the implementor's
// side; `note` touches no allocator state and allocates nothing (a
// const-initialised `Cell<bool>` has no lazy initialiser or destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded as received; see the impl.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded as received; see the impl.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
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

const DIM: usize = 8;
const ROWS: i64 = 400;
const K: usize = 10;
const PROBES: usize = 4;

/// `(codec, target partition size, allocations, vectors scanned, bytes
/// scanned)` of one warm ANN query.
const COUNTS: [(VectorCodec, usize, usize, usize, usize); 6] = [
    (VectorCodec::F32, 20, 57, 87, 2784),
    (VectorCodec::F32, 80, 60, 383, 12256),
    (VectorCodec::Sq8, 20, 70, 87, 1976),
    (VectorCodec::Sq8, 80, 74, 383, 4344),
    (VectorCodec::Sq4, 20, 62, 87, 1920),
    (VectorCodec::Sq4, 80, 63, 383, 3072),
];

/// `(allocations, vectors scanned, bytes scanned)` of one warm ANN
/// query at `PROBES` probes over a fresh `codec` index of `ROWS` rows.
fn query(dir: &tempfile::TempDir, codec: VectorCodec, target: usize) -> (usize, usize, usize) {
    let mut cfg = Config::new(DIM, Metric::L2);
    cfg.store.sync = SyncMode::Off;
    (cfg.codec, cfg.target_partition_size, cfg.workers) = (codec, target, 1);
    // The query path's own counts: no spans or slow-query records, even
    // where the environment turns tracing on.
    (cfg.trace, cfg.slow_query_ms) = (false, None);
    let db = MicroNN::create(dir.path().join(format!("{codec}-{target}.mnn")), cfg).unwrap();
    let records: Vec<_> = (0..ROWS)
        .map(|i| {
            let v = (0..DIM)
                .map(|d| ((i * 7 + d as i64 * 13) % 23) as f32)
                .collect();
            VectorRecord::new(i, v)
        })
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();

    let req = SearchRequest::new(vec![0.5; DIM], K).with_probes(PROBES);
    // Once to bring every page into the pool, once counted.
    let warmed = db.search_with(&req).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let resp = db.search_with(&req).unwrap();
    COUNTED.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(resp.info.plan, PlanUsed::Ann);
    assert_eq!(resp.results, warmed.results);
    assert_eq!(resp.results.len(), K);
    let info = resp.info;
    (allocations, info.vectors_scanned, info.bytes_scanned)
}

#[test]
fn a_warm_ann_query_allocates_and_scans_exact_counts() {
    let dir = tempfile::tempdir().unwrap();
    let got: Vec<_> = COUNTS
        .iter()
        .map(|&(codec, target, ..)| {
            let (allocations, vectors, bytes) = query(&dir, codec, target);
            (codec, target, allocations, vectors, bytes)
        })
        .collect();
    assert_eq!(got, COUNTS, "got {got:?}");
}
