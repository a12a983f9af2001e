//! Buffer-pool behaviour observed through the public API: scan
//! resistance with a pool smaller than one partition, pages read by a
//! clustered scan vs point lookups, and a cold search reading exactly
//! the pages it misses.

use micronn::{Config, Metric, MicroNN, SearchRequest, SyncMode, VectorRecord};

const DIM: usize = 64;

/// Deterministic clustered vectors around well-separated centers.
fn clustered(n: usize, n_centers: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
    };
    (0..n)
        .map(|i| {
            let c = (i % n_centers) as f32 * 10.0;
            (0..DIM).map(|_| c + next()).collect()
        })
        .collect()
}

fn populate(db: &MicroNN, vectors: &[Vec<f32>]) {
    let records: Vec<VectorRecord> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| VectorRecord::new(i as i64, v.clone()))
        .collect();
    db.upsert_batch(&records).unwrap();
}

/// With a pool budget far below one partition's footprint, an
/// exhaustive scan must churn through the probationary segment only:
/// the point-lookup working set promoted to the protected segment
/// beforehand survives the scan and is served without disk reads
/// afterwards.
#[test]
fn full_scan_does_not_evict_point_working_set() {
    let dir = tempfile::tempdir().unwrap();
    let mut c = Config::new(DIM, Metric::L2);
    c.store.sync = SyncMode::Off;
    // ~15 cached pages; one partition (500 rows x ~280 B) spans ~35+
    // leaf pages, so a single partition scan overflows the pool.
    c.store.pool_bytes = 64 * 1024;
    c.target_partition_size = 500;
    let db = MicroNN::create(dir.path().join("db.mnn"), c).unwrap();
    let vectors = clustered(2000, 4, 7);
    populate(&db, &vectors);
    db.rebuild().unwrap();
    db.checkpoint().unwrap();
    db.purge_caches();

    // Warm the point working set: the first lookup admits the pages to
    // probation, the second promotes them to the protected segment.
    for _ in 0..3 {
        assert!(db.get_vector(1234).unwrap().is_some());
    }

    // An exhaustive scan pushes every partition through the pool.
    let before_scan = db.io_stats();
    let exact = db.exact(&vectors[42], 10, None).unwrap();
    assert_eq!(exact.results.len(), 10);
    let after_scan = db.io_stats();
    let scan = after_scan.since(&before_scan);
    assert!(
        scan.pool_evictions > 0,
        "scan exceeded the pool budget: {scan:?}"
    );

    // The protected working set survived: the same point lookup is
    // served entirely from the pool.
    assert!(db.get_vector(1234).unwrap().is_some());
    let after_lookup = db.io_stats();
    let lookup = after_lookup.since(&after_scan);
    assert_eq!(
        lookup.disk_reads(),
        0,
        "post-scan point lookup hit disk: {lookup:?}"
    );
    assert!(lookup.pool_hits > 0);
    assert_eq!(lookup.pool_misses, 0);
}

/// The reason `vectors` is clustered on `(partition, vid)` (§3.1):
/// scanning the probed partitions reads fewer pages than fetching the
/// same number of rows by point lookup. Extra workers are off, so both
/// sides are exact page counts.
#[test]
fn clustered_scan_reads_fewer_pages_than_point_lookups() {
    let dir = tempfile::tempdir().unwrap();
    let mut c = Config::new(DIM, Metric::L2);
    c.store.sync = SyncMode::Off;
    c.workers = 1;
    c.target_partition_size = 100;
    let db = MicroNN::create(dir.path().join("db.mnn"), c).unwrap();
    let vectors = clustered(2000, 8, 5);
    populate(&db, &vectors);
    db.rebuild().unwrap();
    db.checkpoint().unwrap();

    db.purge_caches();
    let before = db.io_stats();
    let req = SearchRequest::new(vectors[0].clone(), 100).with_probes(4);
    let rows = db.search_with(&req).unwrap().info.vectors_scanned;
    let scan_reads = db.io_stats().since(&before).disk_reads();

    db.purge_caches();
    let before = db.io_stats();
    for i in 0..rows {
        let id = (i * 7919 % vectors.len()) as i64;
        assert!(db.get_vector(id).unwrap().is_some());
    }
    let lookup_reads = db.io_stats().since(&before).disk_reads();
    println!("{rows} rows: scan {scan_reads} pages, point lookups {lookup_reads} pages");
    assert!(scan_reads > 0);
    assert!(
        lookup_reads > 2 * scan_reads,
        "clustered layout must win: scan {scan_reads} vs lookups {lookup_reads}"
    );
}

/// Every page a search reads comes from one of its own pool misses,
/// read on the thread that missed it: with the store's default options
/// a cold multi-probe search reads exactly the pages it misses, and
/// repeating it from cold moves every counter by the same amount.
#[test]
fn cold_search_reads_exactly_what_it_misses() {
    let dir = tempfile::tempdir().unwrap();
    let mut c = Config::new(DIM, Metric::L2);
    c.target_partition_size = 100;
    c.default_probes = 6;
    // One scan worker: two workers missing the same interior page at
    // once would both read it, and the two deltas could differ.
    c.workers = 1;
    let db = MicroNN::create(dir.path().join("db.mnn"), c).unwrap();
    let vectors = clustered(2000, 8, 11);
    populate(&db, &vectors);
    db.rebuild().unwrap();
    db.checkpoint().unwrap();

    let cold_search = || {
        db.purge_caches();
        let before = db.io_stats();
        let resp = db.search(&vectors[3], 10).unwrap();
        assert_eq!(resp.results.len(), 10);
        assert!(resp.info.partitions_scanned > 1, "{:?}", resp.info);
        db.io_stats().since(&before)
    };
    let first = cold_search();
    assert!(first.pool_misses > 0, "a cold search misses: {first:?}");
    assert_eq!(first.disk_reads(), first.pool_misses, "{first:?}");
    assert_eq!(cold_search(), first);
}
