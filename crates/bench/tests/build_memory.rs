//! Figure 6b's claim as a test: the streaming build's memory does not
//! grow with the collection (MicroNN §3.1). Rebuilding 4× the rows
//! under the same page-cache and spill budgets, both far below the
//! file, raises the rebuild's heap peak by less than half the raw
//! vector bytes added: only per-row metadata (the key list and the
//! assignments) grows with the row count. The Lloyd's k-means rebuild
//! that `RebuildOptions` used to offer gathered every vector into one
//! buffer and fails this test.

use micronn::{Config, Metric, MicroNN, StoreOptions, SyncMode, VectorRecord};
use micronn_bench::TrackingAlloc;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

const DIM: usize = 256;
const N: usize = 2048;

/// Rows `ids` of a seeded uniform dataset.
fn rows(ids: std::ops::Range<usize>) -> Vec<VectorRecord> {
    let mut s = ids.start as u64 + 1;
    ids.map(|i| {
        let v = (0..DIM)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 40) as f32 / (1u64 << 24) as f32
            })
            .collect();
        VectorRecord::new(i as i64, v)
    })
    .collect()
}

/// Heap peak of one rebuild from an empty page cache, above the heap
/// live before it.
fn rebuild_peak(db: &MicroNN) -> usize {
    db.purge_caches();
    TrackingAlloc::reset_peak();
    let base = TrackingAlloc::live();
    db.rebuild().unwrap();
    TrackingAlloc::peak().saturating_sub(base)
}

#[test]
fn rebuild_peak_does_not_grow_with_the_collection() {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = Config::new(DIM, Metric::L2);
    // 1 MiB of cache and 512 KiB of dirty pages; the file is ~10 MiB.
    cfg.store = StoreOptions {
        pool_bytes: 1 << 20,
        spill_after_pages: 128,
        sync: SyncMode::Off,
        ..Default::default()
    };
    cfg.target_partition_size = 500; // cheap clustering in debug
    cfg.workers = 1;
    let db = MicroNN::create(dir.path().join("b.mnn"), cfg).unwrap();
    db.upsert_batch(&rows(0..N)).unwrap();
    let small = rebuild_peak(&db);
    db.upsert_batch(&rows(N..4 * N)).unwrap();
    let large = rebuild_peak(&db);
    let added = 3 * N * DIM * 4;
    assert!(
        large.saturating_sub(small) < added / 2,
        "rebuild peak grew {small} -> {large} B for {added} raw vector bytes added"
    );
}
