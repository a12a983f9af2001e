//! End-to-end behaviour of a quantized codec's scan + exact-rerank
//! pipeline, written once for both quantized codecs: recall against
//! exact and F32 search, bytes-scanned reduction, catalog persistence,
//! hybrid plans, batch MQO, update consistency, the quantizer
//! range-drift → retrain loop, and WAL recovery. `codec_sq8.rs` and
//! `codec_sq4.rs` run it, each with its codec's [`Suite`].

use micronn::{
    AttributeDef, Config, Expr, MaintenanceStatus, Metric, MicroNN, PlanPreference, PlanUsed,
    SearchRequest, SyncMode, ValueType, VectorCodec, VectorRecord,
};
use micronn_datasets::{generate, Dataset, DatasetSpec};

const DIM: usize = 24;
const K: usize = 10;

/// One quantized codec and what its suite asserts that the other's
/// does not.
pub struct Suite {
    pub codec: VectorCodec,
    /// The other quantized codec: a file of one must not open as the
    /// other, since their code-table layouts differ.
    pub other: VectorCodec,
    /// The default re-rank pool factor.
    pub rerank_factor: usize,
    /// Lower bound on the F32 ÷ quantized scan-bytes ratio, re-rank
    /// reads included.
    pub min_bytes_ratio: f64,
    /// The catalog that ratio is measured on: (rows, target partition
    /// size, probes), re-rank factor 4.
    pub bytes_shape: (usize, usize, usize),
}

fn dataset(n: usize, seed: u64) -> Dataset {
    generate(&DatasetSpec {
        name: "synthetic-quantized",
        dim: DIM,
        n_vectors: n,
        n_queries: 25,
        metric: Metric::L2,
        clusters: 12,
        spread: 0.08,
        seed,
    })
}

fn records(ds: &Dataset) -> Vec<VectorRecord> {
    (0..ds.len())
        .map(|i| VectorRecord::new(i as i64, ds.vector(i).to_vec()))
        .collect()
}

fn recall(got: &[micronn::SearchResult], truth: &[micronn::SearchResult]) -> f64 {
    let truth_ids: std::collections::HashSet<i64> = truth.iter().map(|r| r.asset_id).collect();
    got.iter()
        .filter(|r| truth_ids.contains(&r.asset_id))
        .count() as f64
        / truth.len() as f64
}

fn mean_recall_vs_exact(db: &MicroNN, ds: &Dataset) -> f64 {
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

fn assert_clean(db: &MicroNN) {
    let rep = db.verify_integrity().unwrap();
    assert!(rep.is_clean(), "{:?}", rep.errors);
}

/// A config that opens whatever codec the file was created with.
fn reopen_config() -> Config {
    let mut cfg = Config::default();
    cfg.store.sync = SyncMode::Off;
    cfg
}

impl Suite {
    fn config(&self, codec: VectorCodec) -> Config {
        let mut c = Config::new(DIM, Metric::L2);
        c.store.sync = SyncMode::Off;
        c.target_partition_size = 50;
        c.default_probes = 16;
        c.codec = codec;
        c.rerank_factor = self.rerank_factor;
        c
    }

    fn build(
        &self,
        dir: &std::path::Path,
        name: &str,
        codec: VectorCodec,
        ds: &Dataset,
    ) -> MicroNN {
        let db = MicroNN::create(dir.join(name), self.config(codec)).unwrap();
        db.upsert_batch(&records(ds)).unwrap();
        db.rebuild().unwrap();
        db
    }

    pub fn recall_at_10_vs_exact_including_after_maintenance(&self) {
        let dir = tempfile::tempdir().unwrap();
        let ds = dataset(3000, 42);
        let db = self.build(dir.path(), "q.mnn", self.codec, &ds);
        let codec = self.codec;

        let r = mean_recall_vs_exact(&db, &ds);
        assert!(r >= 0.95, "{codec} recall@10 vs exact after build: {r}");

        // Streaming updates: new vectors land in the delta store (scanned
        // in full precision) and a flush appends their codes to the
        // touched partitions under the existing ranges.
        let extra = dataset(400, 77);
        let records: Vec<VectorRecord> = (0..extra.len())
            .map(|i| VectorRecord::new(50_000 + i as i64, extra.vector(i).to_vec()))
            .collect();
        db.upsert_batch(&records).unwrap();
        let r = mean_recall_vs_exact(&db, &ds);
        assert!(r >= 0.95, "{codec} recall@10 with staged delta: {r}");

        let flush = db.flush_delta().unwrap();
        assert_eq!(flush.flushed, 400);
        let r = mean_recall_vs_exact(&db, &ds);
        assert!(r >= 0.95, "{codec} recall@10 after delta flush: {r}");

        // Full rebuild retrains every partition's ranges and rewrites
        // every code from scratch.
        db.rebuild().unwrap();
        let r = mean_recall_vs_exact(&db, &ds);
        assert!(r >= 0.95, "{codec} recall@10 after rebuild: {r}");

        // The mirror invariants hold through all of the above.
        assert_clean(&db);
    }

    pub fn matches_f32_results_and_scans_fewer_bytes(&self) {
        let (rows, target, probes) = self.bytes_shape;
        let dir = tempfile::tempdir().unwrap();
        let ds = dataset(rows, 7);
        let mk = |codec| {
            let mut c = self.config(codec);
            c.target_partition_size = target;
            c.default_probes = probes;
            c.rerank_factor = 4;
            c
        };
        let f32_db = MicroNN::create(dir.path().join("f32.mnn"), mk(VectorCodec::F32)).unwrap();
        let q_db = MicroNN::create(dir.path().join("q.mnn"), mk(self.codec)).unwrap();
        for db in [&f32_db, &q_db] {
            db.upsert_batch(&records(&ds)).unwrap();
            db.rebuild().unwrap();
        }

        let mut agree = 0.0;
        let (mut f32_bytes, mut q_bytes) = (0usize, 0usize);
        for qi in 0..ds.spec.n_queries {
            let q = ds.query(qi);
            let a = f32_db.search(q, K).unwrap();
            let b = q_db.search(q, K).unwrap();
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
            q_bytes += b.info.bytes_scanned;
            assert_eq!(a.info.reranked, 0);
            // The re-rank pool is bounded by rerank_factor · k.
            assert!(b.info.reranked <= 4 * K);
        }
        let codec = self.codec;
        let agree = agree / ds.spec.n_queries as f64;
        assert!(agree >= 0.95, "{codec} recall@10 vs the F32 path: {agree}");
        let ratio = f32_bytes as f64 / q_bytes.max(1) as f64;
        assert!(
            ratio >= self.min_bytes_ratio,
            "{codec} bytes-scanned reduction: {f32_bytes} vs {q_bytes} ({ratio:.2}x)"
        );
    }

    pub fn catalog_persists_and_open_validates(&self) {
        let dir = tempfile::tempdir().unwrap();
        let ds = dataset(600, 3);
        let path = dir.path().join("q.mnn");
        {
            let db = self.build(dir.path(), "q.mnn", self.codec, &ds);
            assert_eq!(db.codec(), self.codec);
        }
        // Reopening with a default config restores the persisted codec.
        let db = MicroNN::open(&path, reopen_config()).unwrap();
        assert_eq!(db.codec(), self.codec);
        let got = db.search(ds.query(0), K).unwrap();
        assert_eq!(got.results.len(), K);
        assert!(got.info.reranked > 0, "quantized pipeline active");
        drop(db);

        // A full-precision catalog cannot be opened as quantized: the
        // codes were never written.
        let f32_path = dir.path().join("f32.mnn");
        {
            let _ = self.build(dir.path(), "f32.mnn", VectorCodec::F32, &ds);
        }
        let mut cfg = reopen_config();
        cfg.codec = self.codec;
        let err = MicroNN::open(&f32_path, cfg);
        assert!(err.is_err(), "{}-on-f32 open must fail", self.codec);

        // Nor can this catalog be reinterpreted as the other quantized
        // codec: the code-table layouts differ.
        let mut cfg = reopen_config();
        cfg.codec = self.other;
        let err = MicroNN::open(&path, cfg);
        assert!(
            err.is_err(),
            "{}-on-{} open must fail",
            self.other,
            self.codec
        );
    }

    pub fn hybrid_filters_respected_by_quantized_scans(&self) {
        let dir = tempfile::tempdir().unwrap();
        let ds = dataset(2000, 11);
        let mut cfg = self.config(self.codec);
        cfg.attributes = vec![AttributeDef::indexed("parity", ValueType::Integer)];
        let db = MicroNN::create(dir.path().join("h.mnn"), cfg).unwrap();
        let records: Vec<VectorRecord> = (0..ds.len())
            .map(|i| {
                VectorRecord::new(i as i64, ds.vector(i).to_vec())
                    .with_attr("parity", (i % 2) as i64)
            })
            .collect();
        db.upsert_batch(&records).unwrap();
        db.rebuild().unwrap();

        let q = ds.query(1);
        let filter = Expr::eq("parity", 0i64);
        let truth = db.exact(q, K, Some(&filter)).unwrap();
        assert!(truth.results.iter().all(|r| r.asset_id % 2 == 0));

        // Post-filtering keeps only qualifying rows in the candidate pool.
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

    pub fn batch_mqo_matches_single_query_pipeline(&self) {
        let dir = tempfile::tempdir().unwrap();
        let ds = dataset(2000, 13);
        let db = self.build(dir.path(), "b.mnn", self.codec, &ds);
        let queries: Vec<Vec<f32>> = (0..ds.spec.n_queries)
            .map(|qi| ds.query(qi).to_vec())
            .collect();
        let batched = db.batch_search(&queries, K, Some(16)).unwrap();
        assert!(batched.bytes_scanned > 0);
        for (b, q) in batched.results.iter().zip(&queries) {
            let req = SearchRequest::new(q.clone(), K).with_probes(16);
            let s = &db.search_with(&req).unwrap().results;
            // Identical probe sets, identical quantized scoring, identical
            // exact re-rank: the MQO path must reproduce the single-query
            // pipeline exactly.
            let b_ids: Vec<i64> = b.iter().map(|r| r.asset_id).collect();
            let s_ids: Vec<i64> = s.iter().map(|r| r.asset_id).collect();
            assert_eq!(b_ids, s_ids);
            for (x, y) in b.iter().zip(s) {
                assert_eq!(x.distance, y.distance);
            }
        }
    }

    pub fn upsert_replace_and_delete_stay_consistent(&self) {
        let dir = tempfile::tempdir().unwrap();
        let ds = dataset(800, 17);
        let db = self.build(dir.path(), "u.mnn", self.codec, &ds);

        // Replace an indexed vector: its old code (an SQ8 row, or an
        // SQ4 slot that is tombstoned) must never resurface in results.
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

        // Flush moves the replacement into the index (SQ4 re-fills
        // tombstoned slots); it stays findable.
        db.flush_delta().unwrap();
        let hit = db.search(&probe, 1).unwrap();
        assert_eq!(hit.results[0].asset_id, 5);

        // Delete drops the asset from quantized scans.
        db.delete(5).unwrap();
        let gone = db.search(&probe, K).unwrap();
        assert!(gone.results.iter().all(|r| r.asset_id != 5));

        // Tombstone churn must not break the codes ↔ vectors mirror.
        assert_clean(&db);
    }

    pub fn range_drift_triggers_background_retrain(&self) {
        // Two tight, well-separated clusters; ranges trained on them are
        // narrow, so flushing far-out-of-range rows clamps every
        // dimension and must push the drift fraction past the limit.
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = Config::new(8, Metric::L2);
        cfg.store.sync = SyncMode::Off;
        cfg.target_partition_size = 100;
        cfg.default_probes = 4;
        cfg.codec = self.codec;
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
        assert_clean(&db);
        let probe: Vec<f32> = vec![1.0; 8];
        let hits = db.search(&probe, 5).unwrap();
        assert!(
            hits.results.iter().any(|r| r.asset_id >= 1000),
            "{:?}",
            hits.results
        );
    }

    pub fn crash_recovery_preserves_codes_and_ranges(&self) {
        // Codes and quantization ranges are written in the same write
        // transactions as the rows they mirror, so WAL replay restores a
        // consistent quantized catalog.
        let dir = tempfile::tempdir().unwrap();
        let ds = dataset(1200, 23);
        let path = dir.path().join("crash.mnn");
        {
            let db = self.build(dir.path(), "crash.mnn", self.codec, &ds);
            db.upsert(VectorRecord::new(99_777, vec![3.5; DIM]))
                .unwrap();
            // Dropped without checkpoint: the WAL carries everything.
            let _ = db;
        }
        let db = MicroNN::open(&path, reopen_config()).unwrap();
        assert_eq!(db.codec(), self.codec);
        assert_eq!(db.len().unwrap(), 1201);
        // The delta insert survives (full-precision delta scan)...
        let hit = db.search(&[3.5; DIM], 1).unwrap();
        assert_eq!(hit.results[0].asset_id, 99_777);
        // ...and the quantized pipeline still meets the recall bar.
        let r = mean_recall_vs_exact(&db, &ds);
        assert!(
            r >= 0.95,
            "{} recall@10 after WAL recovery: {r}",
            self.codec
        );
    }
}
