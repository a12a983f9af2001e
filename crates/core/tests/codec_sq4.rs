//! End-to-end behaviour of the SQ4 fastscan codec: blocked 4-bit
//! quantized scans + exact re-rank, recall against exact and F32
//! search, bytes-scanned reduction (~8× raw payload, ≥ 6× end to end
//! with re-rank reads), catalog persistence, hybrid plans, batch MQO,
//! update consistency, and the quantizer range-drift → retrain loop.

use micronn::{
    AttributeDef, Config, Expr, MaintenanceStatus, Metric, MicroNN, PlanPreference, PlanUsed,
    SearchRequest, SyncMode, ValueType, VectorCodec, VectorRecord,
};
use micronn_datasets::{generate, DatasetSpec};

const DIM: usize = 24;
const K: usize = 10;

fn dataset(n: usize, seed: u64) -> micronn_datasets::Dataset {
    generate(&DatasetSpec {
        name: "synthetic-sq4",
        dim: DIM,
        n_vectors: n,
        n_queries: 25,
        metric: Metric::L2,
        clusters: 12,
        spread: 0.08,
        seed,
    })
}

fn config(codec: VectorCodec) -> Config {
    let mut c = Config::new(DIM, Metric::L2);
    c.store.sync = SyncMode::Off;
    c.target_partition_size = 50;
    c.default_probes = 16;
    c.codec = codec;
    // 4-bit codes are coarser than 8-bit ones, so the exact re-rank
    // pool carries more of the recall budget.
    c.rerank_factor = 6;
    c
}

fn build(
    dir: &std::path::Path,
    name: &str,
    codec: VectorCodec,
    ds: &micronn_datasets::Dataset,
) -> MicroNN {
    let db = MicroNN::create(dir.join(name), config(codec)).unwrap();
    let records: Vec<VectorRecord> = (0..ds.len())
        .map(|i| VectorRecord::new(i as i64, ds.vector(i).to_vec()))
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();
    db
}

fn recall(got: &[micronn::SearchResult], truth: &[micronn::SearchResult]) -> f64 {
    let truth_ids: std::collections::HashSet<i64> = truth.iter().map(|r| r.asset_id).collect();
    got.iter()
        .filter(|r| truth_ids.contains(&r.asset_id))
        .count() as f64
        / truth.len() as f64
}

fn mean_recall_vs_exact(db: &MicroNN, ds: &micronn_datasets::Dataset) -> f64 {
    let nq = ds.spec.n_queries;
    let mut total = 0.0;
    for qi in 0..nq {
        let q = ds.query(qi);
        let exact = db.exact(q, K, None).unwrap();
        let approx = db.search(q, K).unwrap();
        total += recall(&approx.results, &exact.results);
    }
    total / nq as f64
}

#[test]
fn sq4_recall_at_10_vs_exact_including_after_maintenance() {
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(3000, 42);
    let db = build(dir.path(), "sq4.mnn", VectorCodec::Sq4, &ds);

    let r = mean_recall_vs_exact(&db, &ds);
    assert!(r >= 0.95, "SQ4 recall@10 vs exact after build: {r}");

    // Streaming updates: new vectors land in the delta store (scanned
    // in full precision) and a flush appends their 4-bit codes into
    // the touched partitions' blocks under the existing ranges.
    let extra = dataset(400, 77);
    let records: Vec<VectorRecord> = (0..extra.len())
        .map(|i| VectorRecord::new(50_000 + i as i64, extra.vector(i).to_vec()))
        .collect();
    db.upsert_batch(&records).unwrap();
    let r = mean_recall_vs_exact(&db, &ds);
    assert!(r >= 0.95, "SQ4 recall@10 with staged delta: {r}");

    let flush = db.flush_delta().unwrap();
    assert_eq!(flush.flushed, 400);
    let r = mean_recall_vs_exact(&db, &ds);
    assert!(r >= 0.95, "SQ4 recall@10 after delta flush: {r}");

    // Full rebuild retrains every partition's ranges and repacks all
    // blocks from scratch.
    db.rebuild().unwrap();
    let r = mean_recall_vs_exact(&db, &ds);
    assert!(r >= 0.95, "SQ4 recall@10 after rebuild: {r}");

    // The mirror invariants hold through all of the above.
    let rep = db.verify_integrity().unwrap();
    assert!(rep.is_clean(), "{:?}", rep.errors);
}

#[test]
fn sq4_matches_f32_results_and_scans_6x_fewer_bytes() {
    // Shape chosen so blocks are near-full right after the build:
    // target 96 rows/partition = 3 exact 32-row blocks, measured
    // before any delta churn dilutes occupancy.
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(4096, 7);
    let mk = |codec| {
        let mut c = config(codec);
        c.target_partition_size = 96;
        c.default_probes = 64; // every partition: worst case for bytes
        c.rerank_factor = 4;
        c
    };
    let f32_db = MicroNN::create(dir.path().join("f32.mnn"), mk(VectorCodec::F32)).unwrap();
    let sq4_db = MicroNN::create(dir.path().join("sq4.mnn"), mk(VectorCodec::Sq4)).unwrap();
    let records: Vec<VectorRecord> = (0..ds.len())
        .map(|i| VectorRecord::new(i as i64, ds.vector(i).to_vec()))
        .collect();
    for db in [&f32_db, &sq4_db] {
        db.upsert_batch(&records).unwrap();
        db.rebuild().unwrap();
    }

    let mut agree = 0.0;
    let (mut f32_bytes, mut sq4_bytes) = (0usize, 0usize);
    for qi in 0..ds.spec.n_queries {
        let q = ds.query(qi);
        let a = f32_db.search(q, K).unwrap();
        let b = sq4_db.search(q, K).unwrap();
        assert_eq!(b.results.len(), K);
        // Re-ranked distances are exact: every shared hit carries the
        // same f32 distance in both catalogs.
        let a_by_id: std::collections::HashMap<i64, f32> =
            a.results.iter().map(|r| (r.asset_id, r.distance)).collect();
        for hit in &b.results {
            if let Some(&d) = a_by_id.get(&hit.asset_id) {
                assert_eq!(hit.distance, d, "asset {}", hit.asset_id);
            }
        }
        agree += recall(&b.results, &a.results);
        f32_bytes += a.info.bytes_scanned;
        sq4_bytes += b.info.bytes_scanned;
        assert_eq!(a.info.reranked, 0);
        // The re-rank pool is bounded by rerank_factor · k.
        assert!(b.info.reranked <= 4 * K);
    }
    let agree = agree / ds.spec.n_queries as f64;
    assert!(agree >= 0.95, "SQ4 recall@10 vs the F32 path: {agree}");
    let ratio = f32_bytes as f64 / sq4_bytes.max(1) as f64;
    assert!(
        ratio >= 6.0,
        "bytes-scanned reduction: {f32_bytes} vs {sq4_bytes} ({ratio:.2}x)"
    );
}

#[test]
fn sq4_catalog_persists_and_open_validates() {
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(600, 3);
    let path = dir.path().join("sq4.mnn");
    {
        let db = build(dir.path(), "sq4.mnn", VectorCodec::Sq4, &ds);
        assert_eq!(db.codec(), VectorCodec::Sq4);
    }
    // Reopening with a default config restores the persisted codec.
    let mut cfg = Config::default();
    cfg.store.sync = SyncMode::Off;
    let db = MicroNN::open(&path, cfg).unwrap();
    assert_eq!(db.codec(), VectorCodec::Sq4);
    let got = db.search(ds.query(0), K).unwrap();
    assert_eq!(got.results.len(), K);
    assert!(got.info.reranked > 0, "quantized pipeline active");
    drop(db);

    // A full-precision catalog cannot be opened as quantized: the
    // blocks were never written.
    let f32_path = dir.path().join("f32.mnn");
    {
        let _ = build(dir.path(), "f32.mnn", VectorCodec::F32, &ds);
    }
    let mut cfg = Config::default();
    cfg.store.sync = SyncMode::Off;
    cfg.codec = VectorCodec::Sq4;
    let err = MicroNN::open(&f32_path, cfg);
    assert!(err.is_err(), "sq4-on-f32 open must fail");

    // Nor can an SQ4 catalog be reinterpreted as SQ8: the code-table
    // layouts differ.
    let mut cfg = Config::default();
    cfg.store.sync = SyncMode::Off;
    cfg.codec = VectorCodec::Sq8;
    let err = MicroNN::open(&path, cfg);
    assert!(err.is_err(), "sq8-on-sq4 open must fail");
}

#[test]
fn sq4_hybrid_filters_respected_by_quantized_scans() {
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(2000, 11);
    let mut cfg = config(VectorCodec::Sq4);
    cfg.attributes = vec![AttributeDef::indexed("parity", ValueType::Integer)];
    let db = MicroNN::create(dir.path().join("h.mnn"), cfg).unwrap();
    let records: Vec<VectorRecord> = (0..ds.len())
        .map(|i| {
            VectorRecord::new(i as i64, ds.vector(i).to_vec()).with_attr("parity", (i % 2) as i64)
        })
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();

    let q = ds.query(1);
    let filter = Expr::eq("parity", 0i64);
    let truth = db.exact(q, K, Some(&filter)).unwrap();
    assert!(truth.results.iter().all(|r| r.asset_id % 2 == 0));

    // Post-filtering keeps only qualifying slots in the candidate pool.
    let post = db
        .search_with(
            &SearchRequest::new(q.to_vec(), K)
                .with_filter(filter.clone())
                .with_plan(PlanPreference::ForcePostFilter),
        )
        .unwrap();
    assert_eq!(post.info.plan, PlanUsed::PostFilter);
    assert!(post.results.iter().all(|r| r.asset_id % 2 == 0));
    assert!(recall(&post.results, &truth.results) >= 0.9);

    // Pre-filtering stays exact (full recall) under any codec.
    let pre = db
        .search_with(
            &SearchRequest::new(q.to_vec(), K)
                .with_filter(filter)
                .with_plan(PlanPreference::ForcePreFilter),
        )
        .unwrap();
    assert_eq!(recall(&pre.results, &truth.results), 1.0);
}

#[test]
fn sq4_batch_mqo_matches_single_query_pipeline() {
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(2000, 13);
    let db = build(dir.path(), "b.mnn", VectorCodec::Sq4, &ds);
    let queries: Vec<Vec<f32>> = (0..ds.spec.n_queries)
        .map(|qi| ds.query(qi).to_vec())
        .collect();
    let batched = db.batch_search(&queries, K, Some(16)).unwrap();
    let sequential = db.batch_search_sequential(&queries, K, Some(16)).unwrap();
    assert!(batched.bytes_scanned > 0);
    for (b, s) in batched.results.iter().zip(&sequential) {
        // Identical probe sets, identical integer LUT scoring,
        // identical exact re-rank: the MQO path must reproduce the
        // single-query pipeline exactly.
        let b_ids: Vec<i64> = b.iter().map(|r| r.asset_id).collect();
        let s_ids: Vec<i64> = s.iter().map(|r| r.asset_id).collect();
        assert_eq!(b_ids, s_ids);
        for (x, y) in b.iter().zip(s) {
            assert_eq!(x.distance, y.distance);
        }
    }
}

#[test]
fn sq4_upsert_replace_and_delete_stay_consistent() {
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(800, 17);
    let db = build(dir.path(), "u.mnn", VectorCodec::Sq4, &ds);

    // Replace an indexed vector: its block slot is tombstoned, so the
    // stale nibbles must never resurface in results.
    let probe: Vec<f32> = vec![9.0; DIM];
    db.upsert(VectorRecord::new(5, probe.clone())).unwrap();
    let hit = db.search(&probe, 1).unwrap();
    assert_eq!(hit.results[0].asset_id, 5);
    let old = db.search(ds.vector(5), K).unwrap();
    assert!(
        old.results
            .iter()
            .all(|r| r.asset_id != 5 || r.distance > 1.0),
        "stale quantized code for a replaced vector"
    );

    // Flush re-fills tombstoned slots; the replacement stays findable.
    db.flush_delta().unwrap();
    let hit = db.search(&probe, 1).unwrap();
    assert_eq!(hit.results[0].asset_id, 5);

    // Delete tombstones the slot again and drops the asset.
    db.delete(5).unwrap();
    let gone = db.search(&probe, K).unwrap();
    assert!(gone.results.iter().all(|r| r.asset_id != 5));

    // Tombstone churn must not break the codes ↔ vectors mirror.
    let rep = db.verify_integrity().unwrap();
    assert!(rep.is_clean(), "{:?}", rep.errors);
}

#[test]
fn sq4_range_drift_triggers_background_retrain() {
    // Two tight, well-separated clusters; ranges trained on them are
    // narrow, so flushing far-out-of-range rows clamps every
    // dimension and must push the drift fraction past the limit.
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = Config::new(8, Metric::L2);
    cfg.store.sync = SyncMode::Off;
    cfg.target_partition_size = 100;
    cfg.default_probes = 4;
    cfg.codec = VectorCodec::Sq4;
    let db = MicroNN::create(dir.path().join("d.mnn"), cfg).unwrap();
    let jitter = |i: i64, j: usize| ((i * 7 + j as i64) % 11) as f32 * 0.01 - 0.05;
    for i in 0..200i64 {
        let base = if i < 100 { 0.0f32 } else { 10.0 };
        let v: Vec<f32> = (0..8).map(|j| base + jitter(i, j)).collect();
        db.upsert(VectorRecord::new(i, v)).unwrap();
    }
    db.rebuild().unwrap();
    assert_eq!(db.maintenance_status().unwrap(), MaintenanceStatus::Healthy);

    // 24 rows at 1.0 per dim: nearest to the 0-cluster's centroid but
    // far outside its trained ranges — every encode clamps.
    for i in 1000..1024i64 {
        let v: Vec<f32> = (0..8).map(|j| 1.0 + jitter(i, j) * 0.1).collect();
        db.upsert(VectorRecord::new(i, v)).unwrap();
    }
    db.flush_delta().unwrap();
    assert_eq!(
        db.maintenance_status().unwrap(),
        MaintenanceStatus::NeedsRetrain,
        "clamped flush must surface as range drift"
    );

    let report = db.maybe_maintain().unwrap();
    assert_eq!(report.retrains(), 1, "{:?}", report.actions);
    assert_eq!(report.status, MaintenanceStatus::Healthy);
    assert_eq!(db.maintenance_status().unwrap(), MaintenanceStatus::Healthy);

    // Fresh ranges cover the drifted rows: the fsck re-encode check
    // passes and the new rows are findable through quantized scans.
    let rep = db.verify_integrity().unwrap();
    assert!(rep.is_clean(), "{:?}", rep.errors);
    let probe: Vec<f32> = vec![1.0; 8];
    let hits = db.search(&probe, 5).unwrap();
    assert!(
        hits.results.iter().any(|r| r.asset_id >= 1000),
        "{:?}",
        hits.results
    );
}

#[test]
fn sq4_crash_recovery_preserves_blocks_and_ranges() {
    // Blocks and quantization ranges are written in the same write
    // transactions as the rows they mirror, so WAL replay restores a
    // consistent quantized catalog.
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(1200, 23);
    let path = dir.path().join("crash.mnn");
    {
        let db = build(dir.path(), "crash.mnn", VectorCodec::Sq4, &ds);
        db.upsert(VectorRecord::new(99_777, vec![3.5; DIM]))
            .unwrap();
        // Dropped without checkpoint: the WAL carries everything.
        let _ = db;
    }
    let mut cfg = Config::default();
    cfg.store.sync = SyncMode::Off;
    let db = MicroNN::open(&path, cfg).unwrap();
    assert_eq!(db.codec(), VectorCodec::Sq4);
    assert_eq!(db.len().unwrap(), 1201);
    // The delta insert survives (full-precision delta scan)...
    let hit = db.search(&[3.5; DIM], 1).unwrap();
    assert_eq!(hit.results[0].asset_id, 99_777);
    // ...and the quantized pipeline still meets the recall bar.
    let r = mean_recall_vs_exact(&db, &ds);
    assert!(r >= 0.95, "SQ4 recall@10 after WAL recovery: {r}");
}
