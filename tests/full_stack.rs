//! Cross-crate integration tests: the full stack from the page store
//! through the relational layer to the vector database, exercised with
//! the synthetic evaluation workloads.

use micronn::{
    AttributeDef, Config, Expr, Metric, MicroNN, SearchRequest, SyncMode, ValueType, VectorRecord,
};
use micronn_datasets::{filtered_tags, generate, ground_truth, recall, DatasetSpec};

fn small_spec(name: &'static str, dim: usize, n: usize, metric: Metric) -> DatasetSpec {
    DatasetSpec {
        name,
        dim,
        n_vectors: n,
        n_queries: 30,
        metric,
        clusters: 12,
        spread: 0.12,
        seed: 0xD15C,
    }
}

fn build_db(dir: &std::path::Path, spec: &DatasetSpec) -> (MicroNN, micronn_datasets::Dataset) {
    let data = generate(spec);
    let mut cfg = Config::new(spec.dim, spec.metric);
    cfg.store.sync = SyncMode::Off;
    cfg.target_partition_size = 64;
    cfg.default_probes = 6;
    let db = MicroNN::create(dir.join(format!("{}.mnn", spec.name)), cfg).unwrap();
    let records: Vec<VectorRecord> = (0..data.len())
        .map(|i| VectorRecord::new(i as i64, data.vector(i).to_vec()))
        .collect();
    for chunk in records.chunks(2000) {
        db.upsert_batch(chunk).unwrap();
    }
    db.rebuild().unwrap();
    (db, data)
}

#[test]
fn recall_against_ground_truth_l2_and_cosine() {
    let dir = tempfile::tempdir().unwrap();
    for spec in [
        small_spec("l2ds", 32, 4000, Metric::L2),
        small_spec("cosds", 48, 4000, Metric::Cosine),
    ] {
        let (db, data) = build_db(dir.path(), &spec);
        let truth = ground_truth(&data, 10, 4);
        let mut total = 0.0;
        let probes = (db.stats().unwrap().partitions as usize / 2).max(4);
        for (qi, t) in truth.iter().enumerate().take(data.spec.n_queries) {
            let got = db
                .search_with(&SearchRequest::new(data.query(qi).to_vec(), 10).with_probes(probes))
                .unwrap();
            let ids: Vec<i64> = got.results.iter().map(|r| r.asset_id).collect();
            total += recall(&ids, t);
        }
        let avg = total / data.spec.n_queries as f64;
        assert!(avg >= 0.9, "{}: recall {avg}", spec.name);
    }
}

#[test]
fn durability_of_a_full_vector_workload_across_crash() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("crash.mnn");
    let spec = small_spec("crash", 24, 2000, Metric::L2);
    let data = generate(&spec);
    {
        let mut cfg = Config::new(spec.dim, spec.metric);
        cfg.store.sync = SyncMode::Off;
        cfg.attributes = vec![AttributeDef::indexed("tag", ValueType::Text)];
        let db = MicroNN::create(&path, cfg).unwrap();
        let records: Vec<VectorRecord> = (0..data.len())
            .map(|i| {
                VectorRecord::new(i as i64, data.vector(i).to_vec())
                    .with_attr("tag", if i % 2 == 0 { "even" } else { "odd" })
            })
            .collect();
        db.upsert_batch(&records).unwrap();
        db.rebuild().unwrap();
        db.delete_batch(&[0, 1, 2]).unwrap();
        db.upsert(VectorRecord::new(50_000, vec![9.0; 24]).with_attr("tag", "special"))
            .unwrap();
        // No checkpoint, no clean close: WAL recovery must restore all
        // of it.
    }
    let mut cfg = Config::default();
    cfg.store.sync = SyncMode::Off;
    let db = MicroNN::open(&path, cfg).unwrap();
    assert_eq!(db.len().unwrap(), 2000 - 3 + 1);
    assert!(!db.contains(1).unwrap());
    assert!(db.contains(50_000).unwrap());
    // Index survives: hybrid search over the recovered attribute index.
    let got = db
        .search_with(&SearchRequest::new(vec![9.0; 24], 1).with_filter(Expr::eq("tag", "special")))
        .unwrap();
    assert_eq!(got.results[0].asset_id, 50_000);
}

#[test]
fn hybrid_workload_end_to_end_with_fts() {
    let dir = tempfile::tempdir().unwrap();
    let workload = filtered_tags(4000, 24, 120, 4, 4, 0xF00D);
    let mut cfg = Config::new(workload.dim, workload.metric);
    cfg.store.sync = SyncMode::Off;
    cfg.attributes = vec![AttributeDef::full_text("tags")];
    let db = MicroNN::create(dir.path().join("tags.mnn"), cfg).unwrap();
    let records: Vec<VectorRecord> = workload
        .assets
        .iter()
        .map(|a| VectorRecord::new(a.asset_id, a.vector.clone()).with_attr("tags", a.tags.clone()))
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();

    for bin in &workload.bins {
        for q in bin.iter().take(2) {
            let filter = q
                .tags
                .iter()
                .skip(1)
                .fold(Expr::matches("tags", q.tags[0].clone()), |acc, t| {
                    acc.and(Expr::matches("tags", t.clone()))
                });
            let got = db
                .search_with(&SearchRequest::new(q.vector.clone(), 10).with_filter(filter.clone()))
                .unwrap();
            // Every hit must genuinely carry all query tags.
            for hit in &got.results {
                let attrs = db.get_attributes(hit.asset_id).unwrap().unwrap();
                let tags = attrs
                    .iter()
                    .find(|(n, _)| n == "tags")
                    .and_then(|(_, v)| v.as_text().map(str::to_owned))
                    .unwrap();
                let set: std::collections::HashSet<&str> = tags.split(' ').collect();
                assert!(
                    q.tags.iter().all(|t| set.contains(t.as_str())),
                    "hit {} lacks a query tag",
                    hit.asset_id
                );
            }
        }
    }
}

#[test]
fn reader_snapshot_stable_through_rebuild_and_updates() {
    // The §2.1 consistency requirement, observed at the public API:
    // results from one logical reader (here: repeated searches pinned
    // by a long-lived read txn in another thread) stay consistent while
    // the writer rebuilds.
    let dir = tempfile::tempdir().unwrap();
    let spec = small_spec("consistency", 16, 3000, Metric::L2);
    let (db, data) = build_db(dir.path(), &spec);

    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        let db2 = db.clone();
        let q = data.query(0).to_vec();
        let barrier = &barrier;
        s.spawn(move || {
            barrier.wait();
            for _ in 0..50 {
                let got = db2.search(&q, 10).unwrap();
                assert_eq!(got.results.len(), 10);
                for w in got.results.windows(2) {
                    assert!(w[0].distance <= w[1].distance);
                }
            }
        });
        barrier.wait();
        for i in 0..300 {
            db.upsert(VectorRecord::new(
                90_000 + i,
                data.vector((i as usize) % data.len()).to_vec(),
            ))
            .unwrap();
        }
        db.rebuild().unwrap();
    });
    assert_eq!(db.len().unwrap(), 3300);
}

#[test]
fn device_profiles_bound_cache_memory() {
    use micronn_bench::DeviceProfile;
    let dir = tempfile::tempdir().unwrap();
    let spec = small_spec("profile", 64, 5000, Metric::L2);
    let data = generate(&spec);
    let mut resident = Vec::new();
    for profile in [DeviceProfile::Small, DeviceProfile::Large] {
        let mut cfg = Config::new(spec.dim, spec.metric);
        cfg.store = profile.store_options();
        cfg.workers = profile.workers();
        let db = MicroNN::create(dir.path().join(format!("{profile:?}.mnn")), cfg).unwrap();
        let records: Vec<VectorRecord> = (0..data.len())
            .map(|i| VectorRecord::new(i as i64, data.vector(i).to_vec()))
            .collect();
        db.upsert_batch(&records).unwrap();
        db.rebuild().unwrap();
        for qi in 0..20 {
            db.search(data.query(qi), 10).unwrap();
        }
        let stats = db.stats().unwrap();
        assert!(
            stats.resident_bytes <= profile.store_options().pool_bytes + 64 * 1024,
            "{profile:?}: resident {} exceeds pool budget",
            stats.resident_bytes
        );
        resident.push(stats.resident_bytes);
    }
    // The small profile must actually cap memory below the large one.
    assert!(resident[0] < resident[1]);
}

#[test]
fn cold_start_vs_warm_cache_io() {
    let dir = tempfile::tempdir().unwrap();
    let spec = small_spec("coldwarm", 32, 4000, Metric::L2);
    let (db, data) = build_db(dir.path(), &spec);
    db.checkpoint().unwrap();

    // Warm up.
    for qi in 0..10 {
        db.search(data.query(qi), 10).unwrap();
    }
    let warm_before = db.stats().unwrap().store;
    db.search(data.query(0), 10).unwrap();
    let warm_reads = db.stats().unwrap().store.since(&warm_before).disk_reads();

    db.purge_caches();
    let cold_before = db.stats().unwrap().store;
    db.search(data.query(0), 10).unwrap();
    let cold_reads = db.stats().unwrap().store.since(&cold_before).disk_reads();
    assert!(
        cold_reads > warm_reads + 5,
        "cold start must hit disk: cold {cold_reads} vs warm {warm_reads}"
    );
}
