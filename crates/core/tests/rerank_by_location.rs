//! The quantized re-rank fetches each candidate at the location its scan
//! read it from, and gives the answer the `assets` lookup gave.
//!
//! With the `rerank-oracle` feature (on for this crate's tests) every
//! re-rank is re-run by `micronn::rerank_oracle`: the same candidate
//! pool, each candidate located through `assets` at the same snapshot,
//! compared bit for bit. This test arms it and drives SQ8 and SQ4
//! catalogs, at one and two workers, through everything that moves a
//! row — replace-upserts, deletes, delta flushes, splits, merges,
//! retrains — checking every ANN, forced post-filter and batch answer
//! after each step, plus a pinned snapshot read after its candidates'
//! rows moved.

use micronn::{
    rerank_oracle, AttributeDef, Config, Expr, Metric, MicroNN, PlanPreference, SearchRequest,
    SearchResult, Snapshot, SyncMode, ValueType, VectorCodec, VectorRecord,
};

const DIM: usize = 12;
const ROWS: usize = 700;
const K: usize = 6;
const PROBES: usize = 4;
const QUERIES: usize = 6;

fn config(codec: VectorCodec, workers: usize) -> Config {
    let mut c = Config::new(DIM, Metric::L2);
    c.store.sync = SyncMode::Off;
    c.target_partition_size = 40;
    c.codec = codec;
    c.rerank_factor = 3;
    c.workers = workers;
    c.attributes = vec![AttributeDef::indexed("bucket", ValueType::Integer)];
    c
}

/// splitmix64.
fn mix(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit(x: u64) -> f32 {
    (mix(x) >> 40) as f32 / (1u64 << 24) as f32
}

/// Version `gen` of row `i`: a point near one of 12 centres.
fn vector(i: usize, gen: u64) -> Vec<f32> {
    let s = (i as u64) << 8 | gen;
    let centre = mix(s) % 12;
    (0..DIM as u64)
        .map(|j| unit(centre * 29 + j) * 4.0 + unit(s * 31 + j) * 0.4)
        .collect()
}

fn record(i: usize, gen: u64) -> VectorRecord {
    VectorRecord::new(i as i64, vector(i, gen)).with_attr("bucket", (mix(i as u64) % 4) as i64)
}

fn queries() -> Vec<Vec<f32>> {
    (0..QUERIES).map(|q| vector(10_000 + q, 7)).collect()
}

/// Every answer one snapshot gives: per query an ANN and a forced
/// post-filter search, then one batch over all queries — checking that
/// each of their re-ranks agreed with the oracle.
fn answers(snap: &Snapshot, what: &str) -> Vec<Vec<(i64, u32)>> {
    let bits = |r: &[SearchResult]| -> Vec<(i64, u32)> {
        r.iter()
            .map(|r| (r.asset_id, r.distance.to_bits()))
            .collect()
    };
    let before = rerank_oracle::checked();
    let mut out = Vec::new();
    for q in queries() {
        let ann = SearchRequest::new(q.clone(), K).with_probes(PROBES);
        let post = ann
            .clone()
            .with_filter(Expr::lt("bucket", 2))
            .with_plan(PlanPreference::ForcePostFilter);
        for req in [ann, post] {
            let got = snap.search_with(&req).unwrap();
            assert!(got.info.reranked > 0, "{what}: the search re-ranked");
            out.push(bits(&got.results));
        }
    }
    let batch = snap.batch_search(&queries(), K, Some(PROBES)).unwrap();
    out.extend(batch.results.iter().map(|r| bits(r)));
    let mismatches = rerank_oracle::take_mismatches();
    assert!(mismatches.is_empty(), "{what}: {mismatches:#?}");
    let checked = rerank_oracle::checked() - before;
    assert!(checked >= 3 * QUERIES, "{what}: {checked} re-ranks checked");
    out
}

fn largest_and_smallest(db: &MicroNN) -> (i64, i64) {
    let sizes = db.partition_sizes().unwrap();
    let largest = sizes.iter().max_by_key(|&&(p, s)| (s, p)).unwrap().0;
    let smallest = sizes.iter().min_by_key(|&&(p, s)| (s, p)).unwrap().0;
    (largest, smallest)
}

fn rerank_follows_every_move(codec: VectorCodec, workers: usize) {
    rerank_oracle::arm();
    let check = |snap: &Snapshot, step: &str| answers(snap, &format!("{codec} ×{workers}: {step}"));
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("db.mnn"), config(codec, workers)).unwrap();
    let recs: Vec<VectorRecord> = (0..ROWS).map(|i| record(i, 0)).collect();
    db.upsert_batch(&recs).unwrap();
    db.rebuild().unwrap();
    check(&db.snapshot(), "after rebuild");

    // Replace-upserts and deletes: replaced rows leave their partition
    // for the delta, deleted rows leave the index.
    let replaced: Vec<VectorRecord> = (0..ROWS).step_by(9).map(|i| record(i, 1)).collect();
    db.upsert_batch(&replaced).unwrap();
    let deleted: Vec<i64> = (4..ROWS as i64).step_by(13).collect();
    db.delete_batch(&deleted).unwrap();
    let pinned = db.snapshot();
    let at_pin = check(&pinned, "after replace and delete");

    // Move the pinned answers' rows: replace each candidate the pin
    // returned, then flush them into partitions. The pin must still
    // re-rank from where its own snapshot had them.
    let ids: std::collections::BTreeSet<i64> = at_pin.iter().flatten().map(|&(id, _)| id).collect();
    let moved: Vec<VectorRecord> = ids.iter().map(|&id| record(id as usize, 2)).collect();
    db.upsert_batch(&moved).unwrap();
    db.flush_delta().unwrap();
    assert_eq!(check(&pinned, "pinned, rows moved"), at_pin);
    check(&db.snapshot(), "after flush");
    drop(pinned);

    let (largest, _) = largest_and_smallest(&db);
    db.split_partition(largest).unwrap();
    check(&db.snapshot(), "after split");
    let (_, smallest) = largest_and_smallest(&db);
    db.merge_partition(smallest).unwrap();
    check(&db.snapshot(), "after merge");
    let (largest, _) = largest_and_smallest(&db);
    db.retrain_partition(largest).unwrap();
    check(&db.snapshot(), "after retrain");
}

/// One test, so the process-wide oracle log is this test's alone.
#[test]
fn rerank_by_location_matches_the_assets_oracle() {
    for codec in [VectorCodec::Sq8, VectorCodec::Sq4] {
        for workers in [1, 2] {
            rerank_follows_every_move(codec, workers);
        }
    }
}
