//! Executor-layer guarantees: worker-count-independent results,
//! deterministic first-error reporting, and concurrent
//! search-vs-update safety.
//!
//! The unified scan executor promises that (1) every query path
//! returns **bit-identical** ids and distances whatever the scan-pool
//! size, for both codecs; (2) a failing partition surfaces a *stable*
//! error — the first by partition/query index — rather than whichever
//! worker lost the race; (3) searches running concurrently with
//! streaming updates observe consistent snapshots; and (4) a batch
//! answers each query exactly as single-query search does.

use micronn::{
    AttributeDef, Config, Expr, Metric, MicroNN, PlanPreference, SearchRequest, SyncMode,
    ValueType, VectorCodec, VectorRecord,
};
use micronn_datasets::{generate, DatasetSpec};
use micronn_rel::Value;

const DIM: usize = 24;
const K: usize = 10;

fn dataset(n: usize, seed: u64) -> micronn_datasets::Dataset {
    generate(&DatasetSpec {
        name: "synthetic-exec",
        dim: DIM,
        n_vectors: n,
        n_queries: 20,
        metric: Metric::L2,
        clusters: 12,
        spread: 0.08,
        seed,
    })
}

fn config(codec: VectorCodec, workers: usize) -> Config {
    let mut c = Config::new(DIM, Metric::L2);
    c.store.sync = SyncMode::Off;
    c.target_partition_size = 50;
    c.default_probes = 12;
    c.codec = codec;
    c.rerank_factor = 4;
    c.workers = workers;
    c.attributes = vec![AttributeDef::indexed("g", ValueType::Integer)];
    c
}

/// Creates, fills, and rebuilds an index at `path` (workers = 1 for
/// the build; worker count is a runtime knob, not part of the file).
fn build(path: &std::path::Path, codec: VectorCodec, ds: &micronn_datasets::Dataset) {
    let db = MicroNN::create(path, config(codec, 1)).unwrap();
    let records: Vec<VectorRecord> = (0..ds.len())
        .map(|i| VectorRecord::new(i as i64, ds.vector(i).to_vec()).with_attr("g", (i % 5) as i64))
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();
}

/// Asserts two result lists agree exactly: same ids, same f32
/// distance bits, same order.
fn assert_bit_identical(a: &[micronn::SearchResult], b: &[micronn::SearchResult], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: result counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.asset_id, y.asset_id, "{what}: id at rank {i}");
        assert_eq!(
            x.distance.to_bits(),
            y.distance.to_bits(),
            "{what}: distance at rank {i} ({} vs {})",
            x.distance,
            y.distance
        );
    }
}

fn workers_are_bit_identical(codec: VectorCodec) {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("det.mnn");
    let ds = dataset(2500, 99);
    build(&path, codec, &ds);
    // Stage some delta vectors too, so every scan crosses both the
    // indexed partitions and the (always full-precision) delta store.
    let db_seed = MicroNN::open(&path, config(codec, 1)).unwrap();
    let extra = dataset(150, 7);
    let staged: Vec<VectorRecord> = (0..extra.len())
        .map(|i| {
            VectorRecord::new(90_000 + i as i64, extra.vector(i).to_vec())
                .with_attr("g", (i % 5) as i64)
        })
        .collect();
    db_seed.upsert_batch(&staged).unwrap();
    drop(db_seed);

    let w1 = MicroNN::open(&path, config(codec, 1)).unwrap();
    let w8 = MicroNN::open(&path, config(codec, 8)).unwrap();
    let filter = Expr::eq("g", Value::Integer(3));
    // k = 100 as well: the heaps then take nearly every row a probed
    // partition holds.
    for k in [K, 100] {
        for qi in 0..ds.spec.n_queries {
            let q = ds.query(qi);
            // Plain ANN.
            let a = w1.search(q, k).unwrap();
            let b = w8.search(q, k).unwrap();
            assert_bit_identical(&a.results, &b.results, &format!("plain k{k}"));
            // Every counter is summed from per-worker tallies after the
            // scan: the sums cannot depend on which worker scanned what.
            assert_eq!(a.info, b.info, "plain counters");
            // Filtered, post-filter plan forced (a wave's partitions are
            // scored in parallel, then joined).
            let req = SearchRequest::new(q.to_vec(), k)
                .with_filter(filter.clone())
                .with_plan(PlanPreference::ForcePostFilter);
            let a = w1.search_with(&req).unwrap();
            let b = w8.search_with(&req).unwrap();
            assert_bit_identical(&a.results, &b.results, "post-filter");
            // What the join probes depends only on the fixed waves and the
            // heap as each wave begins, and the join itself is sequential:
            // never on scheduling.
            assert_eq!(a.info, b.info, "post-filter counters");
            // Filtered, optimizer's choice.
            let req = SearchRequest::new(q.to_vec(), k).with_filter(filter.clone());
            let a = w1.search_with(&req).unwrap();
            let b = w8.search_with(&req).unwrap();
            assert_eq!(a.info, b.info, "plan choice and counters");
            assert_bit_identical(&a.results, &b.results, "auto-filter");
            // Exhaustive exact.
            let a = w1.exact(q, k, None).unwrap();
            let b = w8.exact(q, k, None).unwrap();
            assert_bit_identical(&a.results, &b.results, "exact");
            assert_eq!(a.info, b.info, "exact counters");
            let a = w1.exact(q, k, Some(&filter)).unwrap();
            let b = w8.exact(q, k, Some(&filter)).unwrap();
            assert_bit_identical(&a.results, &b.results, "exact filtered");
            assert_eq!(a.info, b.info, "exact filtered counters");
        }
        // Batch MQO: per-query lists and every aggregate counter a
        // batch reports must match.
        let batch: Vec<Vec<f32>> = (0..ds.spec.n_queries)
            .map(|qi| ds.query(qi).to_vec())
            .collect();
        let a = w1.batch_search(&batch, k, None).unwrap();
        let b = w8.batch_search(&batch, k, None).unwrap();
        assert_eq!(a.partitions_scanned, b.partitions_scanned);
        assert_eq!(a.distance_computations, b.distance_computations);
        assert_eq!(a.bytes_scanned, b.bytes_scanned);
        for (qi, (x, y)) in a.results.iter().zip(&b.results).enumerate() {
            assert_bit_identical(x, y, &format!("batch q{qi}"));
        }
    }
}

/// Telemetry must be an observer, never a participant: the same index
/// queried with full tracing armed (collecting sink + slow-query log
/// at threshold 0) returns bit-identical results and identical
/// execution counters to an untraced handle.
fn tracing_is_transparent(codec: VectorCodec) {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("trace.mnn");
    let ds = dataset(1500, 77);
    build(&path, codec, &ds);

    let plain = MicroNN::open(&path, config(codec, 4)).unwrap();
    let mut traced_cfg = config(codec, 4);
    traced_cfg.slow_query_ms = Some(0);
    let traced = MicroNN::open(&path, traced_cfg).unwrap();
    traced.set_trace_sink(Some(std::sync::Arc::new(micronn::CollectingSink::new())));

    let filter = Expr::eq("g", Value::Integer(1));
    for qi in 0..ds.spec.n_queries {
        let q = ds.query(qi);
        let a = plain.search(q, K).unwrap();
        let b = traced.search(q, K).unwrap();
        assert_bit_identical(&a.results, &b.results, "traced plain");
        assert_eq!(a.info, b.info, "traced plain counters");
        let req = SearchRequest::new(q.to_vec(), K)
            .with_filter(filter.clone())
            .with_plan(PlanPreference::ForcePostFilter);
        let a = plain.search_with(&req).unwrap();
        let b = traced.search_with(&req).unwrap();
        assert_bit_identical(&a.results, &b.results, "traced post-filter");
        assert_eq!(a.info, b.info, "traced post-filter counters");
        let a = plain.exact(q, K, None).unwrap();
        let b = traced.exact(q, K, None).unwrap();
        assert_bit_identical(&a.results, &b.results, "traced exact");
        assert_eq!(a.info, b.info, "traced exact counters");
    }
    let batch: Vec<Vec<f32>> = (0..ds.spec.n_queries)
        .map(|qi| ds.query(qi).to_vec())
        .collect();
    let a = plain.batch_search(&batch, K, None).unwrap();
    let b = traced.batch_search(&batch, K, None).unwrap();
    assert_eq!(a.partitions_scanned, b.partitions_scanned);
    assert_eq!(a.distance_computations, b.distance_computations);
    assert_eq!(a.bytes_scanned, b.bytes_scanned);
    for (qi, (x, y)) in a.results.iter().zip(&b.results).enumerate() {
        assert_bit_identical(x, y, &format!("traced batch q{qi}"));
    }
    assert!(
        !traced.slow_queries().is_empty(),
        "threshold 0 must populate the slow log"
    );
}

#[test]
fn tracing_is_transparent_f32() {
    tracing_is_transparent(VectorCodec::F32);
}

#[test]
fn tracing_is_transparent_sq8() {
    tracing_is_transparent(VectorCodec::Sq8);
}

#[test]
fn tracing_is_transparent_sq4() {
    tracing_is_transparent(VectorCodec::Sq4);
}

#[test]
fn workers_1_and_8_bit_identical_f32() {
    workers_are_bit_identical(VectorCodec::F32);
}

#[test]
fn workers_1_and_8_bit_identical_sq8() {
    workers_are_bit_identical(VectorCodec::Sq8);
}

#[test]
fn workers_1_and_8_bit_identical_sq4() {
    // Integer LUT scoring is bit-identical across worker counts *and*
    // across SIMD backends (the kernels accumulate the same u16 sums);
    // CI re-runs this suite with MICRONN_KERNELS=scalar to pin the
    // cross-dispatch half of the invariant.
    workers_are_bit_identical(VectorCodec::Sq4);
}

/// `batch_search` answers exactly what `search` answers: for every
/// metric and codec, with a live delta, at k = 10 and k = 100, each
/// query's batch list is its single-query list at the same probe count
/// — ids, distance bits and order. A batch of one reports that query's counters.
#[test]
fn batch_answers_are_the_single_query_answers() {
    let ds = generate(&DatasetSpec {
        name: "synthetic-batch",
        dim: DIM,
        n_vectors: 1500,
        n_queries: 44,
        metric: Metric::L2,
        clusters: 12,
        spread: 0.08,
        seed: 5,
    });
    // The delta's clusters are its own, and a third of the queries
    // aim at them: its full-precision rows reach every codec's answers.
    let staged = dataset(120, 6);
    let probes = 4;
    let queries: Vec<Vec<f32>> = (0..ds.spec.n_queries)
        .map(|qi| ds.query(qi).to_vec())
        .chain((0..staged.spec.n_queries).map(|qi| staged.query(qi).to_vec()))
        .collect();
    let records = |ds: &micronn_datasets::Dataset, base: i64| -> Vec<VectorRecord> {
        (0..ds.len())
            .map(|i| VectorRecord::new(base + i as i64, ds.vector(i).to_vec()))
            .collect()
    };
    let (indexed, delta) = (records(&ds, 0), records(&staged, 90_000));
    for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
        for codec in [VectorCodec::F32, VectorCodec::Sq8, VectorCodec::Sq4] {
            let dir = tempfile::tempdir().unwrap();
            let mut cfg = config(codec, 2);
            cfg.metric = metric;
            let db = MicroNN::create(dir.path().join("batch.mnn"), cfg).unwrap();
            db.upsert_batch(&indexed).unwrap();
            db.rebuild().unwrap();
            db.upsert_batch(&delta).unwrap();
            assert!(db.stats().unwrap().delta_vectors > 0, "a live delta");

            for k in [K, 100] {
                let batch = db.batch_search(&queries, k, Some(probes)).unwrap();
                for (qi, (got, q)) in batch.results.iter().zip(&queries).enumerate() {
                    let req = SearchRequest::new(q.clone(), k).with_probes(probes);
                    let want = db.search_with(&req).unwrap().results;
                    let what = format!("{metric} {codec} k{k} q{qi}");
                    assert_bit_identical(got, &want, &what);
                }
            }

            // A batch of one is that query's search, counters included:
            // the same partitions and bytes, and the same moves of the
            // distance and re-rank counters (re-rank is counted apart).
            let counters = || {
                let t = db.telemetry();
                let c = |name| t.counter(name).unwrap();
                (
                    c("micronn_distance_computations_total"),
                    c("micronn_reranked_total"),
                )
            };
            let req = SearchRequest::new(queries[0].clone(), K).with_probes(probes);
            let before = counters();
            let one = db.batch_search(&queries[..1], K, Some(probes)).unwrap();
            let mid = counters();
            let lone = db.search_with(&req).unwrap();
            let after = counters();
            let what = format!("{metric} {codec} batch of one");
            assert_bit_identical(&one.results[0], &lone.results, &what);
            assert_eq!(
                one.partitions_scanned, lone.info.partitions_scanned,
                "{what}"
            );
            assert_eq!(one.bytes_scanned, lone.info.bytes_scanned, "{what}");
            assert_eq!(mid.0 - before.0, after.0 - mid.0, "{what}: distances");
            assert_eq!(mid.1 - before.1, after.1 - mid.1, "{what}: re-ranked");
        }
    }
}

/// Returns the two smallest indexed (non-delta) partition ids.
fn two_smallest_partitions(db: &MicroNN) -> (i64, i64) {
    let raw = db.database();
    let r = raw.begin_read();
    let centroids = raw.open_table(&r, "centroids").unwrap();
    let mut pids: Vec<i64> = centroids
        .scan(&r)
        .unwrap()
        .map(|row| row.unwrap()[0].as_integer().unwrap())
        .collect();
    pids.sort_unstable();
    assert!(pids.len() >= 2, "need at least two partitions");
    (pids[0], pids[1])
}

/// Plants a vector row with a wrong-length blob inside `partition`,
/// bypassing the MicroNN API (the injected fault of the regression
/// test).
fn corrupt_partition(db: &MicroNN, partition: i64, blob_len: usize) {
    let raw = db.database();
    let mut txn = raw.begin_write().unwrap();
    let r = raw.begin_read();
    let vectors = raw.open_table(&r, "vectors").unwrap();
    drop(r);
    vectors
        .upsert(
            &mut txn,
            vec![
                Value::Integer(partition),
                Value::Integer(8_000_000 + blob_len as i64),
                Value::Integer(8_000_000 + blob_len as i64),
                Value::Blob(vec![0u8; blob_len]),
            ],
        )
        .unwrap();
    txn.commit().unwrap();
}

#[test]
fn injected_failing_partition_reports_stable_first_error() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("err.mnn");
    let ds = dataset(3000, 4242);
    build(&path, VectorCodec::F32, &ds);

    let db = MicroNN::open(&path, config(VectorCodec::F32, 1)).unwrap();
    let (pa, pb) = two_smallest_partitions(&db);
    // Two failing partitions with *distinguishable* errors: the lower
    // partition id holds a 3-byte blob, the higher a 5-byte blob. The
    // executor must always surface the lower-index failure, never
    // whichever worker happened to fail first.
    corrupt_partition(&db, pa, 3);
    corrupt_partition(&db, pb, 5);
    drop(db);

    for workers in [1usize, 8] {
        let db = MicroNN::open(&path, config(VectorCodec::F32, workers)).unwrap();
        let batch: Vec<Vec<f32>> = (0..8).map(|qi| ds.query(qi).to_vec()).collect();
        for _ in 0..10 {
            // Probe every partition so both corrupted ones are in the
            // batch's group map.
            let err = db.batch_search(&batch, K, Some(10_000)).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("has 3 bytes"),
                "workers={workers}: expected the lower partition's error, got: {msg}"
            );
            // Exhaustive exact search crosses both partitions too and
            // must agree on which error wins.
            let err = db.exact(ds.query(0), K, None).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("has 3 bytes"),
                "workers={workers} exact: got: {msg}"
            );
        }
    }
}

#[test]
fn concurrent_searches_with_updates_complete_consistently() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("conc.mnn");
    let ds = dataset(2000, 11);
    build(&path, VectorCodec::F32, &ds);
    let db = MicroNN::open(&path, config(VectorCodec::F32, 4)).unwrap();

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        // Readers: plain, filtered, batch, and exact searches racing
        // the writer. Every search must succeed and return a
        // well-formed, sorted result set from one snapshot.
        let mut readers = Vec::new();
        for t in 0..3usize {
            let db = db.clone();
            let ds = &ds;
            let stop = &stop;
            readers.push(s.spawn(move || {
                let filter = Expr::eq("g", Value::Integer(2));
                let mut iters = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || iters < 30 {
                    let q = ds.query((iters + t) % ds.spec.n_queries);
                    let resp = db.search(q, K).unwrap();
                    check_well_formed(&resp.results);
                    let resp = db
                        .search_with(&SearchRequest::new(q.to_vec(), K).with_filter(filter.clone()))
                        .unwrap();
                    check_well_formed(&resp.results);
                    let resp = db.exact(q, K, None).unwrap();
                    check_well_formed(&resp.results);
                    let batch = vec![q.to_vec(), ds.query(0).to_vec()];
                    let resp = db.batch_search(&batch, K, None).unwrap();
                    for list in &resp.results {
                        check_well_formed(list);
                    }
                    iters += 1;
                    if iters >= 200 {
                        break; // safety valve if the writer is slow
                    }
                }
            }));
        }
        // Writer: streaming upserts, deletes, and delta flushes.
        let fresh = dataset(600, 555);
        for round in 0..6 {
            let records: Vec<VectorRecord> = (0..100)
                .map(|i| {
                    let src = round * 100 + i;
                    VectorRecord::new(70_000 + src as i64, fresh.vector(src).to_vec())
                        .with_attr("g", (src % 5) as i64)
                })
                .collect();
            db.upsert_batch(&records).unwrap();
            let doomed: Vec<i64> = (0..40).map(|i| (round * 40 + i) as i64).collect();
            db.delete_batch(&doomed).unwrap();
            if round % 2 == 1 {
                db.flush_delta().unwrap();
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader panicked");
        }
    });
    // The handle is still fully usable afterwards.
    let resp = db.search(ds.query(0), K).unwrap();
    assert_eq!(resp.results.len(), K);
}

/// A result list must be deduplicated, sorted by (distance, id), and
/// bounded by `K` — the invariants of one consistent snapshot.
fn check_well_formed(results: &[micronn::SearchResult]) {
    assert!(results.len() <= K);
    let mut seen = std::collections::HashSet::new();
    for w in results.windows(2) {
        assert!(
            (w[0].distance, w[0].asset_id) <= (w[1].distance, w[1].asset_id),
            "results not sorted: {w:?}"
        );
    }
    for r in results {
        assert!(seen.insert(r.asset_id), "duplicate id {}", r.asset_id);
        assert!(r.distance.is_finite());
    }
}

/// Every query path's answers, pinned across commits and SIMD
/// backends: 32 queries over an integer-valued catalog with a live
/// delta, for each codec under each metric, through plain ANN,
/// `batch_search` of the same queries, a forced post-filter and
/// `exact`, at k = 10 and at k = 100. The data and queries are small
/// integers, so every exact f32 distance is the same whatever order a
/// kernel sums in. A `rerank_factor` of 1 re-ranks only the scan's own
/// top `k`, so a quantized scan's ranking shows in its answers; at
/// k = 100 the heap takes nearly every row two probes reach. The
/// FNV-1a hash of each case's `(asset_id, distance bits)` answers at
/// each k is a constant.
#[test]
fn golden_answers_are_pinned() {
    const GOLDEN: [(VectorCodec, Metric, u64); 9] = [
        (VectorCodec::F32, Metric::L2, 0xe255_2a2b_ed5d_6008),
        (VectorCodec::F32, Metric::Cosine, 0x6b24_4446_f9bf_c568),
        (VectorCodec::F32, Metric::Dot, 0x3718_49af_f22b_cbc3),
        (VectorCodec::Sq8, Metric::L2, 0x254a_3642_5da6_db00),
        (VectorCodec::Sq8, Metric::Cosine, 0x7b02_23e1_5124_7b40),
        (VectorCodec::Sq8, Metric::Dot, 0x711c_e5cf_150b_6213),
        (VectorCodec::Sq4, Metric::L2, 0x4510_39a8_5560_0954),
        (VectorCodec::Sq4, Metric::Cosine, 0xc49c_edc3_7504_371d),
        (VectorCodec::Sq4, Metric::Dot, 0xcdfa_224f_882a_311b),
    ];
    // The same cases at k = 100, in the same order.
    const GOLDEN_K100: [u64; 9] = [
        0x8624_9deb_57d5_de88,
        0xd53d_ae65_e7bb_f2b7,
        0xab20_f880_f1c4_cddf,
        0x8624_9deb_57d5_de88,
        0xd53d_ae65_e7bb_f2b7,
        0x521f_7983_b8da_2713,
        0xf7a7_7f89_107c_0a90,
        0xd8da_d93b_8a27_c48b,
        0xb9d3_95a9_2a12_70ab,
    ];
    const DIM: usize = 12;
    let row = |i: i64| -> Vec<f32> {
        (0..DIM as i64)
            .map(|d| ((i * 7 + d * 13 + (i / 23) * (d + 3)) % 23 - 11) as f32)
            .collect()
    };
    let records = |ids: std::ops::Range<i64>| -> Vec<VectorRecord> {
        ids.map(|i| VectorRecord::new(i, row(i)).with_attr("g", i % 5))
            .collect()
    };
    let queries: Vec<Vec<f32>> = (0..32i64)
        .map(|q| {
            (0..DIM as i64)
                .map(|d| ((q * 5 + d * 11) % 19 - 9) as f32)
                .collect()
        })
        .collect();
    let fnv = |h: &mut u64, results: &[micronn::SearchResult]| {
        for r in results {
            let bytes = (r.asset_id as u64).to_le_bytes();
            for b in bytes.into_iter().chain(r.distance.to_bits().to_le_bytes()) {
                *h = (*h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
    };
    let (mut got, mut got_k100) = (Vec::new(), Vec::new());
    for &(codec, metric, _) in &GOLDEN {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = Config::new(DIM, metric);
        cfg.store.sync = SyncMode::Off;
        (cfg.codec, cfg.target_partition_size) = (codec, 40);
        (cfg.default_probes, cfg.rerank_factor, cfg.workers) = (2, 1, 1);
        cfg.attributes = vec![AttributeDef::indexed("g", ValueType::Integer)];
        let db = MicroNN::create(dir.path().join("golden.mnn"), cfg).unwrap();
        db.upsert_batch(&records(0..600)).unwrap();
        db.rebuild().unwrap();
        db.upsert_batch(&records(600..660)).unwrap();
        assert!(db.stats().unwrap().delta_vectors > 0, "a live delta");

        let [k10, k100] = [K, 100].map(|k| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for q in &queries {
                fnv(&mut h, &db.search(q, k).unwrap().results);
            }
            for list in &db.batch_search(&queries, k, None).unwrap().results {
                fnv(&mut h, list);
            }
            for q in &queries {
                let req = SearchRequest::new(q.clone(), k)
                    .with_filter(Expr::eq("g", Value::Integer(2)))
                    .with_plan(PlanPreference::ForcePostFilter);
                fnv(&mut h, &db.search_with(&req).unwrap().results);
                fnv(&mut h, &db.exact(q, k, None).unwrap().results);
            }
            h
        });
        got.push((codec, metric, k10));
        got_k100.push(k100);
    }
    assert_eq!(got, GOLDEN, "answers moved; got {got:#x?}");
    assert_eq!(
        got_k100, GOLDEN_K100,
        "k = 100 answers moved; got {got_k100:#x?}"
    );
}
