//! What a pre-filter query costs, in exact counts.
//!
//! The plan answers `bucket < limit` from the `bucket` index: one walk
//! of the qualifying entries, then per qualifying row one `assets`
//! lookup and one `vectors` lookup, each a single leaf reference under
//! interior pages its point reader keeps pinned. It reads no `attrs`
//! row and allocates nothing per row. So, warm, a query references
//! `2 × qualifying + a constant` pool pages and makes a constant number
//! of allocations, the same at 5 qualifying rows as at 50. This binary
//! counts with its own allocator, so it holds one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use micronn::{
    AttributeDef, Config, Expr, Metric, MicroNN, PlanPreference, PlanUsed, SearchRequest, SyncMode,
    ValueType, VectorRecord,
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
const ROWS: i64 = 100;
const K: usize = 10;

/// Allocations per warm pre-filter query, whatever the qualifying count.
const ALLOCATIONS_PER_QUERY: usize = 11;
/// Pool page references per warm pre-filter query beyond two per
/// qualifying row: the index walk's and the point readers' first
/// descents.
const PAGES_PER_QUERY: u64 = 4;

/// `(qualifying rows, allocations, pool page references)` of one warm
/// pre-filter query for `bucket < limit`.
fn query(db: &MicroNN, limit: i64) -> (usize, usize, u64) {
    let req = SearchRequest::new(vec![0.5; DIM], K)
        .with_filter(Expr::lt("bucket", limit))
        .with_plan(PlanPreference::ForcePreFilter);
    // Once to bring every page into the pool, once counted.
    let warmed = db.search_with(&req).unwrap();
    let (io, before) = (db.io_stats(), ALLOCATIONS.load(Ordering::Relaxed));
    COUNTED.with(|c| c.set(true));
    let resp = db.search_with(&req).unwrap();
    COUNTED.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let io = db.io_stats().since(&io);
    assert_eq!(resp.info.plan, PlanUsed::PreFilter);
    assert_eq!(resp.results, warmed.results);
    assert_eq!(resp.results.len(), K.min(resp.info.candidates));
    assert_eq!(io.pool_misses, 0, "warm");
    (resp.info.candidates, allocations, io.pool_hits)
}

#[test]
fn a_pre_filter_query_allocates_a_constant_and_reads_two_pages_a_row() {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = Config::new(DIM, Metric::L2);
    cfg.store.sync = SyncMode::Off;
    cfg.target_partition_size = 20;
    cfg.attributes = vec![AttributeDef::indexed("bucket", ValueType::Integer)];
    // The query path's own counts: no spans or slow-query records, even
    // where the environment turns tracing on.
    (cfg.trace, cfg.slow_query_ms) = (false, None);
    let db = MicroNN::create(dir.path().join("db.mnn"), cfg).unwrap();
    let records: Vec<_> = (0..ROWS)
        .map(|i| {
            let v = (0..DIM)
                .map(|d| ((i * 7 + d as i64 * 13) % 23) as f32)
                .collect();
            VectorRecord::new(i, v).with_attr("bucket", i)
        })
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();

    let (few, few_allocs, few_pages) = query(&db, 5);
    let (many, many_allocs, many_pages) = query(&db, 50);
    assert_eq!((few, many), (5, 50));
    assert_eq!(
        (few_allocs, many_allocs),
        (ALLOCATIONS_PER_QUERY, ALLOCATIONS_PER_QUERY),
        "allocations must not follow the qualifying rows"
    );
    assert_eq!(
        (few_pages, many_pages),
        (2 * 5 + PAGES_PER_QUERY, 2 * 50 + PAGES_PER_QUERY),
        "pool pages must be two per qualifying row plus a constant"
    );
}
