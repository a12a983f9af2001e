//! The score-first post-filter join returns the filter-first answer.
//!
//! A filtered scan scores a wave of partitions without probing, then
//! probes the wave's rows nearest first until the top-k is full and
//! rejects the next row. The reference here never runs that
//! code: it is a copy of the index with the *failing rows deleted*
//! (a delete touches neither centroids nor quantization ranges),
//! queried **unfiltered** with the same probes — "rows that fail the
//! predicate are dropped before anything else", literally. The filtered
//! query on the full index must match it bit for bit: same ids, same
//! f32 distance bits, for every codec, metric, selectivity, probe count
//! and worker count.

use proptest::prelude::*;

use micronn::{
    AttributeDef, Config, Expr, Metric, MicroNN, PlanPreference, QueryInfo, SearchRequest,
    SearchResult, SyncMode, ValueType, VectorCodec, VectorRecord,
};

const DIM: usize = 12;
const INDEXED: usize = 900;
const STAGED: usize = 60;
const BUCKETS: i64 = 1000;
/// `bucket < limit`: ~0.5 %, ~30 %, every row, no row.
const LIMITS: [i64; 4] = [5, 300, BUCKETS, 0];

fn config(codec: VectorCodec, metric: Metric, workers: usize) -> Config {
    let mut c = Config::new(DIM, metric);
    c.store.sync = SyncMode::Off;
    c.target_partition_size = 40;
    c.codec = codec;
    c.rerank_factor = 3;
    c.workers = workers;
    c.attributes = vec![AttributeDef::indexed("bucket", ValueType::Integer)];
    c
}

/// splitmix64: the test's only randomness beyond proptest's own draws.
fn mix(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit(x: u64) -> f32 {
    (mix(x) >> 40) as f32 / (1u64 << 24) as f32
}

/// Row `i`: a point near one of 16 centres, and its bucket.
fn row(seed: u64, i: usize) -> (Vec<f32>, i64) {
    let s = seed ^ (i as u64) << 20;
    let centre = mix(s) % 16;
    let v = (0..DIM as u64)
        .map(|j| unit(centre * 31 + j) * 4.0 + unit(s + j + 1) * 0.3 + 0.05)
        .collect();
    (v, (mix(s ^ 0xB0C) % BUCKETS as u64) as i64)
}

fn records(seed: u64, ids: std::ops::Range<usize>) -> Vec<VectorRecord> {
    ids.map(|i| {
        let (v, bucket) = row(seed, i);
        VectorRecord::new(i as i64, v).with_attr("bucket", bucket)
    })
    .collect()
}

/// Builds the full index at `dir/full.mnn` (indexed partitions plus a
/// live delta) and, per limit, the reference copy with every row
/// failing `bucket < limit` deleted.
fn build(dir: &std::path::Path, codec: VectorCodec, metric: Metric, seed: u64, limit: i64) {
    let full = MicroNN::create(dir.join("full.mnn"), config(codec, metric, 1)).unwrap();
    full.upsert_batch(&records(seed, 0..INDEXED)).unwrap();
    full.rebuild().unwrap();
    full.upsert_batch(&records(seed, INDEXED..INDEXED + STAGED))
        .unwrap();
    full.backup_to(dir.join("passing.mnn")).unwrap();
    let passing = MicroNN::open(dir.join("passing.mnn"), config(codec, metric, 1)).unwrap();
    let failing: Vec<i64> = (0..INDEXED + STAGED)
        .filter(|&i| row(seed, i).1 >= limit)
        .map(|i| i as i64)
        .collect();
    passing.delete_batch(&failing).unwrap();
}

fn assert_bit_identical(got: &[SearchResult], want: &[SearchResult], what: &str) {
    let show = |r: &[SearchResult]| -> Vec<(i64, u32)> {
        r.iter()
            .map(|r| (r.asset_id, r.distance.to_bits()))
            .collect()
    };
    assert_eq!(show(got), show(want), "{what}");
}

fn post_filter(q: &[f32], k: usize, probes: usize, limit: i64) -> SearchRequest {
    SearchRequest::new(q.to_vec(), k)
        .with_probes(probes)
        .with_filter(Expr::lt("bucket", limit))
        .with_plan(PlanPreference::ForcePostFilter)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn post_filter_equals_filter_first(
        codec in prop_oneof![
            Just(VectorCodec::F32), Just(VectorCodec::Sq8), Just(VectorCodec::Sq4)
        ],
        metric in prop_oneof![Just(Metric::L2), Just(Metric::Cosine), Just(Metric::Dot)],
        limit in prop_oneof![
            Just(LIMITS[0]), Just(LIMITS[1]), Just(LIMITS[2]), Just(LIMITS[3])
        ],
        k in 1usize..13,
        seed in any::<u64>(),
    ) {
        let dir = tempfile::tempdir().unwrap();
        build(dir.path(), codec, metric, seed, limit);
        let passing = (0..INDEXED + STAGED).filter(|&i| row(seed, i).1 < limit).count();
        let reference =
            MicroNN::open(dir.path().join("passing.mnn"), config(codec, metric, 1)).unwrap();
        let handles = [1, 4].map(|workers| {
            MicroNN::open(dir.path().join("full.mnn"), config(codec, metric, workers)).unwrap()
        });
        for qi in 0..6u64 {
            // Half the queries sit on a stored row, half in between.
            let (mut q, _) = row(seed, (mix(seed ^ qi) % INDEXED as u64) as usize);
            if qi % 2 == 1 {
                q.iter_mut().for_each(|x| *x += 0.4);
            }
            for probes in [3, usize::MAX] {
                let what = format!(
                    "{codec:?} {metric:?} limit {limit} k {k} probes {probes} seed {seed} q{qi}"
                );
                let want = reference
                    .search_with(&SearchRequest::new(q.clone(), k).with_probes(probes))
                    .unwrap();
                let mut infos: Vec<QueryInfo> = Vec::new();
                for db in &handles {
                    let got = db.search_with(&post_filter(&q, k, probes, limit)).unwrap();
                    assert_bit_identical(&got.results, &want.results, &what);
                    prop_assert!(got.info.filtered_out <= got.info.candidates);
                    prop_assert!(got.info.candidates <= got.info.vectors_scanned);
                    infos.push(got.info);
                }
                prop_assert_eq!(infos[0], infos[1], "counters at 1 vs 4 workers: {}", what);
                if probes == usize::MAX {
                    // Every partition probed: fewer than k passing rows
                    // means all of them come back.
                    prop_assert_eq!(want.results.len(), k.min(passing), "{}", what);
                    if codec == VectorCodec::F32 {
                        let exact = handles[1]
                            .exact(&q, k, Some(&Expr::lt("bucket", limit)))
                            .unwrap();
                        assert_bit_identical(&exact.results, &want.results, &what);
                    }
                }
            }
        }
    }
}

/// Rows tied with the heap's bound are still probed: with the same
/// vector stored under many ids — some indexed, some in the delta, some
/// failing the filter — the lowest passing ids win, whether the twins
/// share one wave or the delta's come a wave after the bound is set.
#[test]
fn ties_at_the_bound_keep_the_lower_id() {
    for codec in [VectorCodec::F32, VectorCodec::Sq8, VectorCodec::Sq4] {
        let dir = tempfile::tempdir().unwrap();
        let db =
            MicroNN::create(dir.path().join("ties.mnn"), config(codec, Metric::L2, 4)).unwrap();
        let twin = vec![1.5f32; DIM];
        // Background rows, then twins under odd ids in the index …
        let mut rows = records(7, 0..400);
        rows.extend(
            (0..20)
                .map(|i| VectorRecord::new(1001 + 2 * i, twin.clone()).with_attr("bucket", i % 2)),
        );
        db.upsert_batch(&rows).unwrap();
        db.rebuild().unwrap();
        // … and under the interleaved even ids in the delta, which is
        // scanned last: in the one wave of four probes, or — with every
        // partition probed, more than one wave of the default eight plus
        // the delta — a wave after the twins' partition has put the
        // bound at distance zero.
        let staged: Vec<VectorRecord> = (0..20)
            .map(|i| VectorRecord::new(1000 + 2 * i, twin.clone()).with_attr("bucket", i % 2))
            .collect();
        db.upsert_batch(&staged).unwrap();
        // `bucket < 1` passes twins with even `i`: ids 1000, 1001,
        // 1004, 1005, 1008, … — the five lowest are expected.
        for probes in [4, usize::MAX] {
            let got = db.search_with(&post_filter(&twin, 5, probes, 1)).unwrap();
            let ids: Vec<i64> = got.results.iter().map(|r| r.asset_id).collect();
            assert_eq!(
                ids,
                vec![1000, 1001, 1004, 1005, 1008],
                "{codec:?} {probes}"
            );
            assert!(got.results.iter().all(|r| r.distance == 0.0), "{codec:?}");
            assert_eq!(got.info.partitions_scanned > 9, probes > 4, "{codec:?}");
        }
    }
}

#[test]
fn k_zero_probes_nothing() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(
        dir.path().join("k0.mnn"),
        config(VectorCodec::F32, Metric::L2, 2),
    )
    .unwrap();
    db.upsert_batch(&records(3, 0..300)).unwrap();
    db.rebuild().unwrap();
    let got = db
        .search_with(&post_filter(&row(3, 0).0, 0, 4, 300))
        .unwrap();
    assert!(got.results.is_empty());
    assert_eq!((got.info.candidates, got.info.filtered_out), (0, 0));
    assert!(got.info.vectors_scanned > 0, "rows are still scored");
}

/// The join probes nearest first and stops at the `k`-th passing row.
/// With eight probes at the default eight (one wave, delta included),
/// the rows that pass are exactly the candidate pool, and under F32 the
/// rows probed are exactly those an unfiltered ranking of the same
/// partitions puts up to and including its `k`-th passing row. The
/// scan-side counters equal the unfiltered scan's.
#[test]
fn most_scanned_rows_are_never_probed() {
    const K: usize = 10;
    let passes = |asset: i64| row(11, asset as usize).1 < 300;
    for codec in [VectorCodec::F32, VectorCodec::Sq8, VectorCodec::Sq4] {
        let dir = tempfile::tempdir().unwrap();
        // Partitions of ~125 rows: eight probes scan about a thousand.
        let mut cfg = config(codec, Metric::L2, 1);
        cfg.target_partition_size = 125;
        let scan_k = match codec {
            VectorCodec::F32 => K,
            _ => K * cfg.rerank_factor,
        };
        let db = MicroNN::create(dir.path().join("lazy.mnn"), cfg).unwrap();
        db.upsert_batch(&records(11, 0..2000)).unwrap();
        db.rebuild().unwrap();
        for qi in 0..8 {
            let q = row(11, qi * 37).0;
            let got = db.search_with(&post_filter(&q, K, 8, 300)).unwrap();
            let plain = db
                .search_with(&SearchRequest::new(q.clone(), K).with_probes(8))
                .unwrap();
            let (f, p) = (got.info, plain.info);
            assert_eq!(got.results.len(), K, "{codec:?}");
            assert_eq!(f.vectors_scanned, p.vectors_scanned, "{codec:?}");
            assert_eq!(
                f.bytes_scanned - f.reranked * DIM * 4,
                p.bytes_scanned - p.reranked * DIM * 4,
                "{codec:?}: scan bytes, re-rank fetches aside"
            );
            assert_eq!(p.candidates, 0, "no filter, no probes");
            // Every scanned row, ranked: the candidate pool is wide
            // enough to hold them all, so every codec returns them.
            let ranked = db
                .search_with(&SearchRequest::new(q, f.vectors_scanned).with_probes(8))
                .unwrap()
                .results;
            assert_eq!(ranked.len(), f.vectors_scanned, "{codec:?}");
            let passing = ranked.iter().filter(|r| passes(r.asset_id)).count();
            assert_eq!(
                f.candidates - f.filtered_out,
                scan_k.min(passing),
                "{codec:?} q{qi}: the passing probes fill the pool and stop"
            );
            if codec == VectorCodec::F32 {
                let kth = ranked
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| passes(r.asset_id))
                    .nth(K - 1)
                    .map_or(ranked.len(), |(rank, _)| rank + 1);
                assert_eq!(f.candidates, kth, "q{qi}: rows ranked up to the k-th pass");
            }
        }
    }
}
