//! Maintenance churn suite: the partition lifecycle (split/merge) and
//! the background `IndexMaintainer` under a sustained upsert/delete
//! stream.
//!
//! The stream is deliberately skewed — most inserts land in a few "hot"
//! clusters (driving partitions over the split limit) while deletes
//! drain the "cold" clusters (driving partitions under the merge
//! limit) — so a run exercises every lifecycle transition. Asserted
//! invariants:
//!
//! * the maintainer performs splits and merges but **zero** full
//!   rebuilds;
//! * stored per-partition sizes match the actual row counts exactly,
//!   and every partition respects the configured split/merge bounds
//!   once the index is healthy;
//! * recall@10 of the lifecycle-maintained index stays within 2% of a
//!   freshly rebuilt index;
//! * SQ8 catalogs keep codes and quantization ranges consistent with
//!   the rows they mirror after any number of splits and merges.
//!
//! Scale: `MICRONN_CHURN_OPS` bounds the stream length (CI sets a small
//! value, like `PROPTEST_CASES`); the default keeps a local run under a
//! few seconds per codec/worker combination.

use std::collections::{HashMap, HashSet};

use micronn::maintain::{MERGE_LIMIT, SPLIT_LIMIT};
use micronn::{
    Config, MaintainerOptions, MaintenanceAction, MaintenanceStatus, Metric, MicroNN, SyncMode,
    VectorCodec, VectorRecord,
};
use micronn_linalg::Sq8Params;
use micronn_rel::{blob_to_f32, Value};

const DIM: usize = 16;
const K: usize = 10;
const TARGET: usize = 50;
const CLUSTERS: i64 = 12;
/// Hot clusters receive the insert stream; the rest are drained.
const HOT: i64 = 4;

fn churn_ops() -> usize {
    std::env::var("MICRONN_CHURN_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4000)
}

fn config(codec: VectorCodec, workers: usize) -> Config {
    let mut c = Config::new(DIM, Metric::L2);
    c.store.sync = SyncMode::Off;
    c.target_partition_size = TARGET;
    c.delta_flush_threshold = 64;
    c.default_probes = 8;
    c.codec = codec;
    c.workers = workers;
    c
}

/// Deterministic point near `cluster`'s center (well-separated grid).
fn vec_for(id: i64, cluster: i64) -> Vec<f32> {
    let mut state = (id as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
    };
    let cx = (cluster % 4) as f32 * 20.0;
    let cy = (cluster / 4) as f32 * 20.0;
    (0..DIM)
        .map(|d| match d % 2 {
            0 => cx + next(),
            _ => cy + next(),
        })
        .collect()
}

fn split_bound(cfg: &Config) -> u64 {
    (SPLIT_LIMIT * cfg.target_partition_size as f64).floor() as u64
}

fn merge_bound(cfg: &Config) -> u64 {
    (MERGE_LIMIT * cfg.target_partition_size as f64).ceil() as u64
}

/// Mean recall@K of the ANN path against exact search over a fixed
/// query set.
fn mean_recall(db: &MicroNN, queries: &[Vec<f32>], probes: usize) -> f64 {
    let mut total = 0.0;
    for q in queries {
        let exact = db.exact(q, K, None).unwrap();
        let approx = db
            .search_with(&micronn::SearchRequest::new(q.clone(), K).with_probes(probes))
            .unwrap();
        let truth: HashSet<i64> = exact.results.iter().map(|r| r.asset_id).collect();
        let hits = approx
            .results
            .iter()
            .filter(|r| truth.contains(&r.asset_id))
            .count();
        total += hits as f64 / truth.len().max(1) as f64;
    }
    total / queries.len() as f64
}

/// Actual row count per indexed partition, by scanning the vectors
/// table (the delta store is excluded and returned separately).
fn actual_partition_sizes(db: &MicroNN) -> (HashMap<i64, u64>, u64) {
    let r = db.database().begin_read();
    let vectors = db.database().open_table(&r, "vectors").unwrap();
    let mut sizes: HashMap<i64, u64> = HashMap::new();
    let mut delta = 0u64;
    for row in vectors.scan(&r).unwrap() {
        let row = row.unwrap();
        let p = row[0].as_integer().unwrap();
        if p == micronn::DELTA_PARTITION {
            delta += 1;
        } else {
            *sizes.entry(p).or_default() += 1;
        }
    }
    (sizes, delta)
}

/// SQ8 invariant: every indexed vector row has exactly one code row
/// encoded under the partition's current quantization ranges, and no
/// code row is stale (its vector gone or moved).
fn check_sq8_consistency(db: &MicroNN) {
    let r = db.database().begin_read();
    let vectors = db.database().open_table(&r, "vectors").unwrap();
    let codes = db.database().open_table(&r, "codes").unwrap();
    let quants = db.database().open_table(&r, "quants").unwrap();

    let mut code_keys: HashSet<(i64, i64)> = HashSet::new();
    for row in codes.scan(&r).unwrap() {
        let row = row.unwrap();
        code_keys.insert((row[0].as_integer().unwrap(), row[1].as_integer().unwrap()));
    }

    let mut params: HashMap<i64, Sq8Params> = HashMap::new();
    let mut indexed_rows = 0usize;
    for row in vectors.scan(&r).unwrap() {
        let row = row.unwrap();
        let p = row[0].as_integer().unwrap();
        if p == micronn::DELTA_PARTITION {
            continue;
        }
        indexed_rows += 1;
        let vid = row[1].as_integer().unwrap();
        assert!(
            code_keys.contains(&(p, vid)),
            "vector ({p},{vid}) has no quantized code"
        );
        let vec = blob_to_f32(row[3].as_blob().unwrap()).unwrap();
        let q = params.entry(p).or_insert_with(|| {
            let qrow = quants
                .get(&r, &[Value::Integer(p)])
                .unwrap()
                .unwrap_or_else(|| panic!("partition {p} has no quantization ranges"));
            let vals = blob_to_f32(qrow[1].as_blob().unwrap()).unwrap();
            let (min, scale) = vals.split_at(DIM);
            Sq8Params {
                min: min.to_vec(),
                scale: scale.to_vec(),
            }
        });
        let code_row = codes
            .get(&r, &[Value::Integer(p), Value::Integer(vid)])
            .unwrap()
            .unwrap();
        let stored = code_row[3].as_blob().unwrap().to_vec();
        let mut fresh = Vec::with_capacity(DIM);
        q.encode_into(&vec, &mut fresh);
        assert_eq!(
            stored, fresh,
            "code for ({p},{vid}) is stale vs the partition's current ranges"
        );
    }
    assert_eq!(
        code_keys.len(),
        indexed_rows,
        "orphaned quantized codes exist"
    );
}

/// Calls `maybe_maintain` until the index is healthy; returns the
/// splits and merges done. One call stops after a fixed action budget
/// and says whether work remains, so a maintainer that fell behind the
/// stream (a loaded box) can leave more than one call's worth. Eight
/// calls bound the work: never converging still fails.
fn maintain_until_healthy(db: &MicroNN) -> (u64, u64) {
    let (mut splits, mut merges) = (0, 0);
    for _ in 0..8 {
        let report = db.maybe_maintain().unwrap();
        assert_eq!(report.rebuilds(), 0);
        splits += report.splits() as u64;
        merges += report.merges() as u64;
        if report.status == MaintenanceStatus::Healthy {
            return (splits, merges);
        }
    }
    panic!("maintenance did not converge to Healthy");
}

/// The churn harness: sustained skewed upsert/delete stream with the
/// background maintainer enabled; returns the db for extra checks.
fn run_churn(codec: VectorCodec, workers: usize) -> (tempfile::TempDir, MicroNN) {
    let ops = churn_ops();
    let dir = tempfile::tempdir().unwrap();
    let cfg = config(codec, workers);
    let db = MicroNN::create(dir.path().join("churn.mnn"), cfg.clone()).unwrap();

    // Base collection: 1500 vectors spread over all clusters.
    let base = 1500i64;
    let records: Vec<VectorRecord> = (0..base)
        .map(|i| VectorRecord::new(i, vec_for(i, i % CLUSTERS)))
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();

    let maintainer = db.start_maintainer(MaintainerOptions {
        interval: std::time::Duration::from_millis(1),
    });

    // The stream: ~70% hot-cluster inserts, ~30% deletes draining the
    // cold clusters first (then recycling old hot inserts), with
    // periodic searches racing the maintainer.
    let cold_victims: Vec<i64> = (0..base).filter(|i| i % CLUSTERS >= HOT).collect();
    let mut cold_idx = 0usize;
    let mut hot_victim = base;
    let mut next_id = base;
    for i in 0..ops {
        if i % 10 < 7 {
            let cluster = (i as i64) % HOT;
            db.upsert(VectorRecord::new(next_id, vec_for(next_id, cluster)))
                .unwrap();
            next_id += 1;
        } else if cold_idx < cold_victims.len() {
            db.delete(cold_victims[cold_idx]).unwrap();
            cold_idx += 1;
        } else if hot_victim < next_id {
            db.delete(hot_victim).unwrap();
            hot_victim += 1;
        }
        if i % 250 == 0 {
            let q = vec_for(7 * i as i64 + 1, (i as i64) % CLUSTERS);
            let resp = db.search(&q, K).unwrap();
            assert!(resp.results.len() <= K);
        }
    }

    let stats = maintainer.stop();
    assert_eq!(stats.errors, 0, "maintainer errors: {:?}", stats.last_error);
    assert_eq!(
        stats.rebuilds, 0,
        "lifecycle maintenance must avoid full rebuilds"
    );

    // Drive the index to Healthy and count what the final passes did.
    let (final_splits, final_merges) = maintain_until_healthy(&db);
    let splits = stats.splits + final_splits;
    let merges = stats.merges + final_merges;
    assert!(splits >= 1, "hot-cluster growth must trigger splits");
    assert!(merges >= 1, "cold-cluster drain must trigger merges");

    // Partition-size invariants: stored sizes are exact and within the
    // lifecycle bounds.
    let stored: HashMap<i64, u64> = db.partition_sizes().unwrap().into_iter().collect();
    let (actual, delta) = actual_partition_sizes(&db);
    assert_eq!(delta, db.delta_len().unwrap(), "delta count drifted");
    assert_eq!(stored.len(), actual.len(), "phantom or missing partitions");
    for (pid, n) in &actual {
        assert_eq!(
            stored.get(pid),
            Some(n),
            "stored size of partition {pid} drifted"
        );
    }
    let total: u64 = actual.values().sum();
    assert_eq!(total + delta, db.len().unwrap());
    for (pid, &n) in &stored {
        assert!(
            n <= split_bound(&cfg),
            "healthy index left partition {pid} oversized ({n})"
        );
        // Undersized partitions may legitimately remain when no
        // neighbour has room under the split limit (the policy refuses
        // merges that would immediately force a split).
        let has_room = stored
            .iter()
            .any(|(other, &os)| other != pid && os + n <= split_bound(&cfg));
        assert!(
            n >= merge_bound(&cfg) || !has_room,
            "healthy index left mergeable partition {pid} undersized ({n})"
        );
    }

    // SQ8 catalogs must be internally consistent right after the
    // lifecycle settles (post-splits, post-merges, pre-rebuild).
    if codec.is_quantized() {
        check_sq8_consistency(&db);
    }

    // Recall@10 within 2% of a freshly rebuilt index, over queries that
    // hit both the churned (hot) and drained (cold) regions. Probes
    // match the fig10 churn phase's operating point (~40% of the
    // partitions); enough queries to keep the comparison stable across
    // timing-dependent maintenance interleavings.
    let queries: Vec<Vec<f32>> = (0..60)
        .map(|qi| vec_for(1_000_000 + qi, qi % CLUSTERS))
        .collect();
    let probes = 24;
    let lifecycle_recall = mean_recall(&db, &queries, probes);
    db.rebuild().unwrap();
    let rebuilt_recall = mean_recall(&db, &queries, probes);
    assert!(
        lifecycle_recall >= rebuilt_recall - 0.02,
        "lifecycle recall {lifecycle_recall:.4} vs rebuilt {rebuilt_recall:.4}"
    );

    (dir, db)
}

#[test]
fn churn_f32_workers_1() {
    run_churn(VectorCodec::F32, 1);
}

#[test]
fn churn_f32_workers_8() {
    run_churn(VectorCodec::F32, 8);
}

#[test]
fn churn_sq8_workers_1() {
    run_churn_sq8_with_consistency(1);
}

#[test]
fn churn_sq8_workers_8() {
    run_churn_sq8_with_consistency(8);
}

/// SQ8 churn: identical harness, plus the code/quant-range consistency
/// check both after the lifecycle settles and after the comparison
/// rebuild.
fn run_churn_sq8_with_consistency(workers: usize) -> (tempfile::TempDir, MicroNN) {
    let (dir, db) = run_churn(VectorCodec::Sq8, workers);
    // run_churn ends with a full rebuild (for the recall comparison);
    // codes must be consistent after it too.
    check_sq8_consistency(&db);
    // ...and after more lifecycle operations on top of the rebuild.
    for i in 0..300i64 {
        db.upsert(VectorRecord::new(5_000_000 + i, vec_for(5_000_000 + i, 0)))
            .unwrap();
    }
    maintain_until_healthy(&db);
    check_sq8_consistency(&db);
    (dir, db)
}

#[test]
fn split_and_merge_preserve_exact_results() {
    let dir = tempfile::tempdir().unwrap();
    let cfg = config(VectorCodec::F32, 2);
    let db = MicroNN::create(dir.path().join("sm.mnn"), cfg).unwrap();
    let records: Vec<VectorRecord> = (0..900i64)
        .map(|i| VectorRecord::new(i, vec_for(i, i % CLUSTERS)))
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();

    let q = vec_for(424_242, 1);
    let before = db.exact(&q, 25, None).unwrap();
    let k_before = db.stats().unwrap().partitions;

    // Split the largest partition, whatever its size: a split is a pure
    // re-arrangement — exact results must be bit-identical.
    let (pid, size) = db
        .partition_sizes()
        .unwrap()
        .into_iter()
        .max_by_key(|&(_, s)| s)
        .unwrap();
    assert!(size >= 2);
    let split = db.split_partition(pid).unwrap();
    assert_eq!(split.partition, pid);
    assert!(!split.new_partitions.is_empty());
    assert!(db.stats().unwrap().partitions > k_before);
    let after_split = db.exact(&q, 25, None).unwrap();
    assert_eq!(
        before.results, after_split.results,
        "split changed search content"
    );

    // Merge the smallest partition into its neighbour: same guarantee.
    let (small, _) = db
        .partition_sizes()
        .unwrap()
        .into_iter()
        .min_by_key(|&(_, s)| s)
        .unwrap();
    let merge = db.merge_partition(small).unwrap();
    assert_eq!(merge.partition, small);
    assert_ne!(merge.target, small);
    let after_merge = db.exact(&q, 25, None).unwrap();
    assert_eq!(
        before.results, after_merge.results,
        "merge changed search content"
    );
    // The dissolved partition is gone from the catalog.
    assert!(db
        .partition_sizes()
        .unwrap()
        .iter()
        .all(|&(pid, _)| pid != small));

    // ANN search still works across the modified catalog.
    let resp = db.search(&q, K).unwrap();
    assert_eq!(resp.results.len(), K);

    // Lifecycle ops are invalid on the delta store and missing ids.
    assert!(db.split_partition(micronn::DELTA_PARTITION).is_err());
    assert!(db.merge_partition(999_999).is_err());
}

#[test]
fn flush_chains_into_split_within_one_report() {
    // Satellite regression: a delta flush that pushes a partition past
    // the split limit must surface (and run) the follow-up work in the
    // same maybe_maintain call, not silently wait for the next one.
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = config(VectorCodec::F32, 2);
    cfg.delta_flush_threshold = 40;
    let db = MicroNN::create(dir.path().join("chain.mnn"), cfg).unwrap();
    let records: Vec<VectorRecord> = (0..600i64)
        .map(|i| VectorRecord::new(i, vec_for(i, i % CLUSTERS)))
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();

    // Concentrate well past the split limit onto one cluster, staged in
    // the delta store.
    for i in 0..120i64 {
        db.upsert(VectorRecord::new(10_000 + i, vec_for(10_000 + i, 0)))
            .unwrap();
    }
    let report = db.maybe_maintain().unwrap();
    assert_eq!(report.status, MaintenanceStatus::Healthy);
    assert!(report.flushes() >= 1, "delta past threshold must flush");
    assert!(
        report.splits() >= 1,
        "flush-induced growth must chain into a split: {:?}",
        report
            .actions
            .iter()
            .map(|a| match a {
                MaintenanceAction::Flushed(_) => "flush",
                MaintenanceAction::Split(_) => "split",
                MaintenanceAction::Merged(_) => "merge",
                MaintenanceAction::Rebuilt(_) => "rebuild",
                MaintenanceAction::Retrained(_) => "retrain",
            })
            .collect::<Vec<_>>()
    );
    assert_eq!(report.rebuilds(), 0, "no rebuild needed for local growth");
}

#[test]
fn lifecycle_survives_reopen() {
    // Splits allocate partition ids from a persisted counter; after a
    // reopen the lifecycle must keep allocating fresh ids and searches
    // must see every row.
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("reopen.mnn");
    {
        let db = MicroNN::create(&path, config(VectorCodec::F32, 2)).unwrap();
        let records: Vec<VectorRecord> = (0..700i64)
            .map(|i| VectorRecord::new(i, vec_for(i, i % CLUSTERS)))
            .collect();
        db.upsert_batch(&records).unwrap();
        db.rebuild().unwrap();
        for i in 0..150i64 {
            db.upsert(VectorRecord::new(20_000 + i, vec_for(20_000 + i, 2)))
                .unwrap();
        }
        let report = db.maybe_maintain().unwrap();
        assert_eq!(report.status, MaintenanceStatus::Healthy);
    }
    let mut cfg = Config::default();
    cfg.store.sync = SyncMode::Off;
    let db = MicroNN::open(&path, cfg).unwrap();
    assert_eq!(db.len().unwrap(), 850);
    // Force more splits after the reopen; partition ids must not
    // collide (collisions would corrupt sizes or lose rows).
    for i in 0..150i64 {
        db.upsert(VectorRecord::new(30_000 + i, vec_for(30_000 + i, 2)))
            .unwrap();
    }
    let report = db.maybe_maintain().unwrap();
    assert_eq!(report.status, MaintenanceStatus::Healthy);
    assert_eq!(db.len().unwrap(), 1000);
    let sizes = db.partition_sizes().unwrap();
    let ids: HashSet<i64> = sizes.iter().map(|&(p, _)| p).collect();
    assert_eq!(ids.len(), sizes.len(), "duplicate partition ids");
    let total: u64 = sizes.iter().map(|&(_, s)| s).sum();
    assert_eq!(total + db.delta_len().unwrap(), 1000);
}
