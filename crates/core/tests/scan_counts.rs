//! What a warm ANN query costs, in exact counts, for each codec.
//!
//! A partition scan lends each row (an f32 row, an SQ8 code row, an SQ4
//! block) from its pinned leaf to the members' scorers, which offer
//! every score at once to the member's heap — one heap per query per
//! scan worker, not one per probed partition. So a warm query's
//! allocations are a few per probed partition (its scorers), not a few
//! per row: scanning 383 rows instead of 87 costs at most four more.
//! The pool page references are every page the query fetched, each
//! time it fetched it; at k = 100 the re-rank fetches one leaf for
//! each of its 383 candidates. A forced post-filter query is counted
//! too, at one wave of partitions and at two: its scan collects each
//! wave's rows the heap would accept into one list per scan worker,
//! and its join probes them nearest first. The counts here are exact:
//! a change that allocates per row, or scans, probes or fetches a
//! different set of rows, moves them.
//! This binary counts with its own allocator, so it holds one test
//! only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use micronn::{
    AttributeDef, Config, Expr, Metric, MicroNN, PlanPreference, PlanUsed, SearchRequest, SyncMode,
    ValueType, VectorCodec, VectorRecord,
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
const PROBES: usize = 4;

/// `(codec, target partition size, k, allocations, vectors scanned,
/// bytes scanned, pool page references)` of one warm ANN query.
/// Page references are the pool's hits plus misses: every leaf, overflow
/// and interior page the query fetched, each time it fetched it.
const COUNTS: [(VectorCodec, usize, usize, usize, usize, usize, u64); 7] = [
    (VectorCodec::F32, 20, 10, 43, 87, 2784, 11),
    (VectorCodec::F32, 80, 10, 46, 383, 12256, 19),
    (VectorCodec::Sq8, 20, 10, 60, 87, 1976, 52),
    (VectorCodec::Sq8, 80, 10, 64, 383, 4344, 59),
    (VectorCodec::Sq4, 20, 10, 51, 87, 1920, 52),
    (VectorCodec::Sq4, 80, 10, 52, 383, 3072, 53),
    (VectorCodec::Sq4, 80, 100, 52, 383, 14048, 396),
];

/// `(codec, probes, allocations, vectors scanned, candidates probed)`
/// of one warm forced post-filter top-10 query for `n = 0` over the
/// target-20 index: 5 partitions (the delta included) are one wave of
/// `default_probes + 1 = 9`, 17 partitions are two.
const POST_FILTER: [(VectorCodec, usize, usize, usize, usize); 6] = [
    (VectorCodec::F32, 4, 43, 87, 29),
    (VectorCodec::F32, 16, 106, 349, 29),
    (VectorCodec::Sq8, 4, 60, 87, 87),
    (VectorCodec::Sq8, 16, 154, 349, 121),
    (VectorCodec::Sq4, 4, 51, 87, 87),
    (VectorCodec::Sq4, 16, 105, 349, 121),
];

/// A fresh `codec` index of `ROWS` rows, each with an attribute `n`
/// cycling through 0, 1, 2, built with one scan worker.
fn built(dir: &tempfile::TempDir, codec: VectorCodec, target: usize, name: &str) -> MicroNN {
    let mut cfg = Config::new(DIM, Metric::L2);
    cfg.store.sync = SyncMode::Off;
    (cfg.codec, cfg.target_partition_size, cfg.workers) = (codec, target, 1);
    cfg.attributes = vec![AttributeDef::new("n", ValueType::Integer)];
    // The query path's own counts: no spans or slow-query records, even
    // where the environment turns tracing on.
    (cfg.trace, cfg.slow_query_ms) = (false, None);
    let db = MicroNN::create(dir.path().join(name), cfg).unwrap();
    let records: Vec<_> = (0..ROWS)
        .map(|i| {
            let v = (0..DIM)
                .map(|d| ((i * 7 + d as i64 * 13) % 23) as f32)
                .collect();
            VectorRecord::new(i, v).with_attr("n", i % 3)
        })
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();
    db
}

/// `(allocations, vectors scanned, bytes scanned, page references)` of
/// one warm top-`k` ANN query at `PROBES` probes over a fresh `codec`
/// index of `ROWS` rows.
fn query(
    dir: &tempfile::TempDir,
    codec: VectorCodec,
    target: usize,
    k: usize,
) -> (usize, usize, usize, u64) {
    let db = built(dir, codec, target, &format!("{codec}-{target}-{k}.mnn"));
    let req = SearchRequest::new(vec![0.5; DIM], k).with_probes(PROBES);
    // Once to bring every page into the pool, once counted.
    let warmed = db.search_with(&req).unwrap();
    let (io, before) = (db.io_stats(), ALLOCATIONS.load(Ordering::Relaxed));
    COUNTED.with(|c| c.set(true));
    let resp = db.search_with(&req).unwrap();
    COUNTED.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let io = db.io_stats().since(&io);
    assert_eq!(io.pool_misses, 0, "warm");
    assert_eq!(resp.info.plan, PlanUsed::Ann);
    assert_eq!(resp.results, warmed.results);
    assert_eq!(resp.results.len(), k.min(resp.info.vectors_scanned));
    let info = resp.info;
    let pages = io.pool_hits + io.pool_misses;
    (allocations, info.vectors_scanned, info.bytes_scanned, pages)
}

/// `(allocations, vectors scanned, candidates probed)` of one warm
/// forced post-filter top-10 query at `probes` probes.
fn post_filter(db: &MicroNN, probes: usize) -> (usize, usize, usize) {
    let req = SearchRequest::new(vec![0.5; DIM], 10)
        .with_probes(probes)
        .with_filter(Expr::eq("n", 0))
        .with_plan(PlanPreference::ForcePostFilter);
    let warmed = db.search_with(&req).unwrap();
    let (io, before) = (db.io_stats(), ALLOCATIONS.load(Ordering::Relaxed));
    COUNTED.with(|c| c.set(true));
    let resp = db.search_with(&req).unwrap();
    COUNTED.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(db.io_stats().since(&io).pool_misses, 0, "warm");
    assert_eq!(resp.info.plan, PlanUsed::PostFilter);
    assert_eq!(resp.results, warmed.results);
    assert_eq!(resp.results.len(), 10);
    (allocations, resp.info.vectors_scanned, resp.info.candidates)
}

#[test]
fn a_warm_ann_query_allocates_and_scans_exact_counts() {
    let dir = tempfile::tempdir().unwrap();
    let got: Vec<_> = COUNTS
        .iter()
        .map(|&(codec, target, k, ..)| {
            let (allocations, vectors, bytes, pages) = query(&dir, codec, target, k);
            (codec, target, k, allocations, vectors, bytes, pages)
        })
        .collect();
    let post: Vec<_> = POST_FILTER
        .iter()
        .map(|&(codec, probes, ..)| {
            let db = built(&dir, codec, 20, &format!("{codec}-post-{probes}.mnn"));
            let (allocations, vectors, candidates) = post_filter(&db, probes);
            (codec, probes, allocations, vectors, candidates)
        })
        .collect();
    assert_eq!(got, COUNTS, "got {got:?}");
    assert_eq!(post, POST_FILTER, "got {post:?}");
}
