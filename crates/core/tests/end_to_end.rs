//! End-to-end behaviour of the MicroNN vector database: build, search
//! recall, hybrid plans, batch MQO, incremental maintenance, and
//! durability.

use micronn::{
    AttributeDef, Config, Expr, MaintenanceAction, MaintenanceStatus, Metric, MicroNN,
    PlanPreference, PlanUsed, SearchRequest, SyncMode, ValueType, VectorRecord,
};

const DIM: usize = 16;

/// Deterministic clustered vectors: `n` points around `n_centers`
/// well-separated centers.
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

fn config() -> Config {
    let mut c = Config::new(DIM, Metric::L2);
    c.store.sync = SyncMode::Off;
    c.target_partition_size = 50;
    c.default_probes = 4;
    c.attributes = vec![
        AttributeDef::indexed("location", ValueType::Text),
        AttributeDef::indexed("taken_at", ValueType::Integer),
        AttributeDef::full_text("tags"),
    ];
    c
}

fn populate(db: &MicroNN, vectors: &[Vec<f32>]) {
    let records: Vec<VectorRecord> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let loc = if i % 100 == 0 { "Seattle" } else { "NYC" };
            let tags = if i % 50 == 0 {
                "rare cat"
            } else {
                "common dog"
            };
            VectorRecord::new(i as i64, v.clone())
                .with_attr("location", loc)
                .with_attr("taken_at", i as i64)
                .with_attr("tags", tags)
        })
        .collect();
    db.upsert_batch(&records).unwrap();
}

fn recall(got: &[micronn::SearchResult], truth: &[micronn::SearchResult]) -> f64 {
    let truth_ids: std::collections::HashSet<i64> = truth.iter().map(|r| r.asset_id).collect();
    got.iter()
        .filter(|r| truth_ids.contains(&r.asset_id))
        .count() as f64
        / truth.len() as f64
}

#[test]
fn build_then_ann_search_has_high_recall() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("db.mnn"), config()).unwrap();
    let vectors = clustered(2000, 8, 1);
    populate(&db, &vectors);
    let report = db.rebuild().unwrap();
    assert_eq!(report.vectors, 2000);
    assert!(report.partitions >= 20, "k = n/t = 40-ish");
    assert_eq!(db.delta_len().unwrap(), 0, "delta folded into the index");

    let mut total_recall = 0.0;
    for qi in 0..20 {
        let q = &vectors[qi * 97];
        let exact = db.exact(q, 10, None).unwrap();
        let approx = db.search(q, 10).unwrap();
        assert_eq!(approx.results.len(), 10);
        total_recall += recall(&approx.results, &exact.results);
        // Scanning fewer vectors than exhaustive is the whole point.
        assert!(approx.info.vectors_scanned < exact.info.vectors_scanned);
    }
    let avg = total_recall / 20.0;
    assert!(avg >= 0.9, "recall@10 with 4/40 probes: {avg}");
}

#[test]
fn more_probes_more_recall() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("db.mnn"), config()).unwrap();
    let vectors = clustered(1500, 6, 2);
    populate(&db, &vectors);
    db.rebuild().unwrap();
    let stats = db.stats().unwrap();
    let all = stats.partitions as usize;

    let mut recalls = Vec::new();
    for probes in [1, all / 2, all] {
        let mut sum = 0.0;
        for qi in 0..10 {
            let q = &vectors[qi * 131];
            let exact = db.exact(q, 10, None).unwrap();
            let got = db
                .search_with(&SearchRequest::new(q.clone(), 10).with_probes(probes))
                .unwrap();
            sum += recall(&got.results, &exact.results);
        }
        recalls.push(sum / 10.0);
    }
    assert!(recalls[0] <= recalls[2] + 1e-9);
    assert!(
        (recalls[2] - 1.0).abs() < 1e-9,
        "all probes == exact: {recalls:?}"
    );
}

#[test]
fn delta_inserts_visible_immediately_and_after_flush() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("db.mnn"), config()).unwrap();
    let vectors = clustered(800, 4, 3);
    populate(&db, &vectors);
    db.rebuild().unwrap();

    // Insert a far-away outlier after the build: it must be findable
    // right away (delta scan), then survive a flush.
    let outlier = vec![500.0f32; DIM];
    db.upsert(VectorRecord::new(9999, outlier.clone())).unwrap();
    assert_eq!(db.delta_len().unwrap(), 1);
    let hit = db.search(&outlier, 1).unwrap();
    assert_eq!(hit.results[0].asset_id, 9999);
    assert_eq!(hit.results[0].distance, 0.0);

    let flush = db.flush_delta().unwrap();
    assert_eq!(flush.flushed, 1);
    assert_eq!(db.delta_len().unwrap(), 0);
    // Needs enough probes to reach the (moved) partition; exhaustive
    // must certainly find it.
    let hit = db.exact(&outlier, 1, None).unwrap();
    assert_eq!(hit.results[0].asset_id, 9999);
    // And the nearest-centroid partition now contains it: a 1-probe
    // search from the outlier's own position finds it.
    let hit = db
        .search_with(&SearchRequest::new(outlier.clone(), 1).with_probes(1))
        .unwrap();
    assert_eq!(hit.results[0].asset_id, 9999);
}

#[test]
fn upsert_replaces_and_delete_removes_from_search() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("db.mnn"), config()).unwrap();
    let vectors = clustered(500, 4, 4);
    populate(&db, &vectors);
    db.rebuild().unwrap();

    // Move asset 7 to a distinctive location.
    let probe = vec![77.0f32; DIM];
    db.upsert(VectorRecord::new(7, probe.clone())).unwrap();
    let hit = db.search(&probe, 1).unwrap();
    assert_eq!(hit.results[0].asset_id, 7);
    // Old position no longer returns asset 7 as an exact-0 match.
    let old = db.exact(&vectors[7], 1, None).unwrap();
    assert_ne!(old.results[0].asset_id, 7);

    db.delete(7).unwrap();
    let gone = db.exact(&probe, 5, None).unwrap();
    assert!(gone.results.iter().all(|r| r.asset_id != 7));
    assert_eq!(db.len().unwrap(), 499);
}

#[test]
fn hybrid_plans_agree_on_results_and_prefilter_has_full_recall() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("db.mnn"), config()).unwrap();
    let vectors = clustered(2000, 8, 5);
    populate(&db, &vectors);
    db.rebuild().unwrap();

    let q = vectors[150].clone();
    // 1% of rows.
    let filter = Expr::eq("location", "Seattle");
    // Ground truth: exact search restricted to the filter.
    let truth = db.exact(&q, 10, Some(&filter)).unwrap();
    assert!(
        truth.results.iter().all(|r| r.asset_id % 100 == 0),
        "filter respected by exact scan"
    );

    let pre = db
        .search_with(
            &SearchRequest::new(q.clone(), 10)
                .with_filter(filter.clone())
                .with_plan(PlanPreference::ForcePreFilter),
        )
        .unwrap();
    assert_eq!(pre.info.plan, PlanUsed::PreFilter);
    assert_eq!(
        recall(&pre.results, &truth.results),
        1.0,
        "pre-filtering guarantees 100% recall"
    );
    assert!(pre.results.iter().all(|r| r.asset_id % 100 == 0));

    let post = db
        .search_with(
            &SearchRequest::new(q.clone(), 10)
                .with_filter(filter.clone())
                .with_plan(PlanPreference::ForcePostFilter),
        )
        .unwrap();
    assert_eq!(post.info.plan, PlanUsed::PostFilter);
    // Post-filtering returns only qualifying rows but may miss some.
    assert!(post.results.iter().all(|r| r.asset_id % 100 == 0));
    assert!(recall(&post.results, &truth.results) <= 1.0);
}

#[test]
fn optimizer_picks_pre_for_rare_and_post_for_common_filters() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("db.mnn"), config()).unwrap();
    let vectors = clustered(3000, 8, 6);
    populate(&db, &vectors);
    db.rebuild().unwrap(); // also runs ANALYZE

    // "rare" tag: 2% of rows; F_IVF = 4 * 50 / 3000 ≈ 6.7%.
    let rare = Expr::matches("tags", "rare");
    assert!(db.estimate_filter_selectivity(&rare).unwrap() < 0.067);
    assert_eq!(db.explain_plan(&rare, None).unwrap(), PlanUsed::PreFilter);

    // "common" tag: 98% of rows.
    let common = Expr::matches("tags", "common");
    assert!(db.estimate_filter_selectivity(&common).unwrap() > 0.5);
    assert_eq!(
        db.explain_plan(&common, None).unwrap(),
        PlanUsed::PostFilter
    );

    // Auto executes the chosen plan.
    let q = vectors[0].clone();
    let got = db
        .search_with(&SearchRequest::new(q.clone(), 10).with_filter(rare))
        .unwrap();
    assert_eq!(got.info.plan, PlanUsed::PreFilter);
    let got = db
        .search_with(&SearchRequest::new(q, 10).with_filter(common))
        .unwrap();
    assert_eq!(got.info.plan, PlanUsed::PostFilter);
}

#[test]
fn fts_match_filter_works_end_to_end() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("db.mnn"), config()).unwrap();
    let vectors = clustered(1000, 4, 7);
    populate(&db, &vectors);
    db.rebuild().unwrap();
    let q = vectors[100].clone();
    let got = db
        .search_with(&SearchRequest::new(q, 20).with_filter(Expr::matches("tags", "rare cat")))
        .unwrap();
    assert!(!got.results.is_empty());
    assert!(got.results.iter().all(|r| r.asset_id % 50 == 0));
}

#[test]
fn batch_mqo_matches_sequential_results() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("db.mnn"), config()).unwrap();
    let vectors = clustered(1500, 6, 8);
    populate(&db, &vectors);
    db.rebuild().unwrap();

    let queries: Vec<Vec<f32>> = (0..64).map(|i| vectors[i * 23].clone()).collect();
    let batched = db.batch_search(&queries, 10, Some(4)).unwrap();
    assert_eq!(batched.results.len(), 64);
    for (b, q) in batched.results.iter().zip(&queries) {
        let req = SearchRequest::new(q.clone(), 10).with_probes(4);
        let s = &db.search_with(&req).unwrap().results;
        // A group scan scores each row with the single-query arithmetic:
        // same ids, same distance bits, same order.
        let bits = |rs: &[micronn::SearchResult]| -> Vec<(i64, u32)> {
            rs.iter()
                .map(|r| (r.asset_id, r.distance.to_bits()))
                .collect()
        };
        assert_eq!(bits(b), bits(s), "MQO must not change results");
    }
    // The MQO property: every partition scanned at most once for the
    // whole batch.
    let stats = db.stats().unwrap();
    assert!(batched.partitions_scanned <= stats.partitions as usize + 1);
}

#[test]
fn monitor_triggers_flush_then_growth_rebuild() {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = config();
    cfg.delta_flush_threshold = 100;
    // The paper's baseline monitor: growth has exactly one answer — a
    // full rebuild. Lifecycle split/merge maintenance is exercised by
    // the dedicated `maintenance_churn` suite.
    cfg.lifecycle = false;
    let db = MicroNN::create(dir.path().join("db.mnn"), cfg).unwrap();
    let vectors = clustered(1000, 4, 9);
    populate(&db, &vectors);
    assert_eq!(
        db.maintenance_status().unwrap(),
        MaintenanceStatus::NeedsBuild
    );
    let report = db.maybe_maintain().unwrap();
    assert_eq!(report.status, MaintenanceStatus::Healthy);
    match &report.actions[..] {
        [MaintenanceAction::Rebuilt(r)] => assert_eq!(r.vectors, 1000),
        other => panic!("expected rebuild, got {other:?}"),
    }
    assert_eq!(db.maintenance_status().unwrap(), MaintenanceStatus::Healthy);

    // Stage more than the flush threshold.
    let extra = clustered(150, 4, 10);
    for (i, v) in extra.iter().enumerate() {
        db.upsert(VectorRecord::new(5000 + i as i64, v.clone()))
            .unwrap();
    }
    assert_eq!(
        db.maintenance_status().unwrap(),
        MaintenanceStatus::NeedsFlush
    );
    let report = db.maybe_maintain().unwrap();
    match &report.actions[..] {
        // A flush, plus — if folding the delta pushed average growth
        // past the limit — the chained follow-up rebuild (the monitor
        // never leaves work silently pending).
        [MaintenanceAction::Flushed(f)] => assert_eq!(f.flushed, 150),
        [MaintenanceAction::Flushed(f), MaintenanceAction::Rebuilt(_)] => {
            assert_eq!(f.flushed, 150)
        }
        other => panic!("expected flush, got {other:?}"),
    }
    assert_eq!(report.status, MaintenanceStatus::Healthy);

    // Keep inserting + flushing until average partition size grows 50%
    // past baseline: the monitor must demand a full rebuild.
    let mut next_id = 10_000i64;
    let mut saw_rebuild_request = false;
    for round in 0..12 {
        let wave = clustered(120, 4, 100 + round);
        for v in &wave {
            db.upsert(VectorRecord::new(next_id, v.clone())).unwrap();
            next_id += 1;
        }
        match db.maintenance_status().unwrap() {
            MaintenanceStatus::NeedsRebuild => {
                saw_rebuild_request = true;
                break;
            }
            MaintenanceStatus::NeedsFlush => {
                db.flush_delta().unwrap();
            }
            MaintenanceStatus::Healthy => {}
            // Lifecycle is disabled in this test; F32 never retrains.
            MaintenanceStatus::NeedsBuild
            | MaintenanceStatus::NeedsSplit
            | MaintenanceStatus::NeedsMerge
            | MaintenanceStatus::NeedsRetrain => unreachable!(),
        }
        // Growth check also applies post-flush.
        if db.maintenance_status().unwrap() == MaintenanceStatus::NeedsRebuild {
            saw_rebuild_request = true;
            break;
        }
    }
    assert!(saw_rebuild_request, "growth limit must trigger a rebuild");
    match &db.maybe_maintain().unwrap().actions[..] {
        [MaintenanceAction::Rebuilt(_)] => {}
        other => panic!("expected rebuild, got {other:?}"),
    }
    assert_eq!(db.maintenance_status().unwrap(), MaintenanceStatus::Healthy);
}

#[test]
fn flush_preserves_search_correctness() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("db.mnn"), config()).unwrap();
    let vectors = clustered(600, 4, 11);
    populate(&db, &vectors);
    db.rebuild().unwrap();
    let extra = clustered(200, 4, 12);
    let extra_records: Vec<VectorRecord> = extra
        .iter()
        .enumerate()
        .map(|(i, v)| VectorRecord::new(20_000 + i as i64, v.clone()))
        .collect();
    db.upsert_batch(&extra_records).unwrap();

    // Exact results before and after the flush must be identical: a
    // flush relocates rows but changes no content.
    let q = extra[17].clone();
    let before = db.exact(&q, 15, None).unwrap();
    db.flush_delta().unwrap();
    let after = db.exact(&q, 15, None).unwrap();
    let ids =
        |r: &micronn::SearchResponse| r.results.iter().map(|x| x.asset_id).collect::<Vec<_>>();
    assert_eq!(ids(&before), ids(&after));
    assert_eq!(db.len().unwrap(), 800);
}

#[test]
fn concurrent_searches_during_writes_and_rebuild() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("db.mnn"), config()).unwrap();
    let vectors = clustered(1200, 6, 13);
    populate(&db, &vectors);
    db.rebuild().unwrap();

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        // Readers hammer searches while the writer mutates + rebuilds.
        for t in 0..3 {
            let db = db.clone();
            let stop = &stop;
            let q = vectors[t * 100].clone();
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let got = db.search(&q, 10).unwrap();
                    assert!(got.results.len() <= 10);
                    assert!(!got.results.is_empty());
                    // Distances sorted ascending.
                    for w in got.results.windows(2) {
                        assert!(w[0].distance <= w[1].distance);
                    }
                }
            });
        }
        for i in 0..200 {
            db.upsert(VectorRecord::new(
                30_000 + i,
                vectors[(i as usize) % vectors.len()].clone(),
            ))
            .unwrap();
        }
        db.rebuild().unwrap();
        for i in 0..100 {
            db.delete(30_000 + i).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(db.len().unwrap(), 1200 + 100);
}

#[test]
fn crash_without_checkpoint_recovers_index() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("db.mnn");
    let vectors = clustered(600, 4, 14);
    {
        let db = MicroNN::create(&path, config()).unwrap();
        populate(&db, &vectors);
        db.rebuild().unwrap();
        db.upsert(VectorRecord::new(777, vec![3.5; DIM])).unwrap();
        // Dropped without checkpoint: the WAL carries everything.
    }
    let mut cfg = Config::default();
    cfg.store.sync = SyncMode::Off;
    let db = MicroNN::open(&path, cfg).unwrap();
    assert_eq!(db.len().unwrap(), 601);
    let hit = db.search(&[3.5; DIM], 1).unwrap();
    assert_eq!(hit.results[0].asset_id, 777);
    // Index is intact: recall sanity on an indexed query.
    let exact = db.exact(&vectors[42], 10, None).unwrap();
    let approx = db.search(&vectors[42], 10).unwrap();
    assert!(recall(&approx.results, &exact.results) >= 0.5);
}

#[test]
fn search_unbuilt_index_scans_delta_only() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("db.mnn"), config()).unwrap();
    let vectors = clustered(50, 2, 15);
    populate(&db, &vectors);
    // No rebuild: brute-force over the delta gives exact results.
    let got = db.search(&vectors[3], 5).unwrap();
    assert_eq!(got.results[0].asset_id, 3);
    assert_eq!(got.results[0].distance, 0.0);
    let exact = db.exact(&vectors[3], 5, None).unwrap();
    assert_eq!(
        got.results.iter().map(|r| r.asset_id).collect::<Vec<_>>(),
        exact.results.iter().map(|r| r.asset_id).collect::<Vec<_>>()
    );
}

#[test]
fn large_centroid_table_probes_and_reloads() {
    // 2 112 vectors in partitions of one give a table of 2 112
    // centroids, which probe selection scans in full (Algorithm 2), so
    // recall stays near the exact answer; and after a flush and a
    // split, the live handle reloads the quantizer from the committed
    // centroid table, so it answers bit for bit as a freshly reopened
    // handle does.
    const DIM8: usize = 8;
    let vectors: Vec<Vec<f32>> = (clustered(2112, 264, 21).into_iter())
        .map(|v| v[..DIM8].to_vec())
        .collect();
    let records: Vec<VectorRecord> = (vectors.iter().enumerate())
        .map(|(i, v)| VectorRecord::new(i as i64, v.clone()))
        .collect();
    let queries: Vec<&Vec<f32>> = (0..15).map(|qi| &vectors[qi * 139]).collect();
    let answers = |db: &MicroNN| -> Vec<Vec<(i64, u32)>> {
        (queries.iter())
            .map(|q| {
                let got = db.search(q, 10).unwrap().results;
                got.iter()
                    .map(|r| (r.asset_id, r.distance.to_bits()))
                    .collect()
            })
            .collect()
    };
    for metric in [Metric::L2, Metric::Dot] {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("t.mnn");
        let mut cfg = Config::new(DIM8, metric);
        cfg.store.sync = SyncMode::Off;
        cfg.target_partition_size = 1;
        cfg.default_probes = 32;
        let db = MicroNN::create(&path, cfg.clone()).unwrap();
        db.upsert_batch(&records).unwrap();
        // One-row mini-batches keep training 2 112 centroids cheap in a
        // debug build.
        let one_row = micronn::RebuildOptions {
            batch_size: Some(1),
        };
        db.rebuild_with(&one_row).unwrap();
        assert!(db.stats().unwrap().partitions >= 2048);
        if metric == Metric::L2 {
            let mut total = 0.0;
            for q in &queries {
                let exact = db.exact(q, 10, None).unwrap();
                let approx = db.search(q, 10).unwrap();
                total += recall(&approx.results, &exact.results);
            }
            let mean = total / queries.len() as f64;
            assert!(mean >= 0.9, "probe selection recall {mean}");
        }

        // A flushed near-duplicate gives one partition a second row.
        let twin: Vec<f32> = vectors[7].iter().map(|x| x + 1e-3).collect();
        db.upsert(VectorRecord::new(9_999, twin)).unwrap();
        db.flush_delta().unwrap();
        // Load the quantizer at this epoch, split under it, then compare
        // with a handle that never held it.
        answers(&db);
        let sizes = db.partition_sizes().unwrap();
        let (pid, _) = sizes.into_iter().find(|&(_, s)| s >= 2).unwrap();
        db.split_partition(pid).unwrap();
        let live = answers(&db);
        drop(db);
        let reopened = MicroNN::open(&path, cfg).unwrap();
        assert_eq!(live, answers(&reopened), "{metric:?}");
    }
}

#[test]
fn row_changes_incremental_far_below_rebuild() {
    // The Figure 10d claim: incremental maintenance touches a tiny
    // fraction of the rows a full rebuild rewrites.
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("db.mnn"), config()).unwrap();
    let vectors = clustered(1000, 4, 16);
    populate(&db, &vectors);
    db.rebuild().unwrap();
    let after_build = db.stats().unwrap().row_changes;

    let extra = clustered(30, 4, 17);
    for (i, v) in extra.iter().enumerate() {
        db.upsert(VectorRecord::new(40_000 + i as i64, v.clone()))
            .unwrap();
    }
    let before_flush = db.stats().unwrap().row_changes;
    db.flush_delta().unwrap();
    let flush_changes = db.stats().unwrap().row_changes - before_flush;

    let before_rebuild = db.stats().unwrap().row_changes;
    db.rebuild().unwrap();
    let rebuild_changes = db.stats().unwrap().row_changes - before_rebuild;
    assert!(
        (flush_changes as f64) < 0.2 * rebuild_changes as f64,
        "flush {flush_changes} vs rebuild {rebuild_changes}"
    );
    assert!(after_build > 0);
}
