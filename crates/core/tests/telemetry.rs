//! End-to-end telemetry: per-codec `bytes_scanned` accounting, the
//! per-stage trace spans, WAL group-commit spans, the slow-query log,
//! and the registry snapshot/exporters — driven through the public API
//! exactly as an embedding application would.

use std::sync::Arc;

use micronn::{
    CollectingSink, Config, Metric, MicroNN, SearchRequest, Span, SyncMode, VectorCodec,
    VectorRecord,
};
use micronn_datasets::{generate, DatasetSpec};

const DIM: usize = 16;
const K: usize = 8;

fn dataset(n: usize, seed: u64) -> micronn_datasets::Dataset {
    generate(&DatasetSpec {
        name: "synthetic-telemetry",
        dim: DIM,
        n_vectors: n,
        n_queries: 8,
        metric: Metric::L2,
        clusters: 8,
        spread: 0.1,
        seed,
    })
}

fn config(codec: VectorCodec) -> Config {
    let mut c = Config::new(DIM, Metric::L2);
    c.store.sync = SyncMode::Off;
    c.target_partition_size = 64;
    c.default_probes = 4;
    c.codec = codec;
    c.rerank_factor = 4;
    c.workers = 2;
    c
}

/// Builds an index of `n` vectors and rebuilds so the delta store is
/// empty — every scanned row then has the codec's storage layout.
fn build(codec: VectorCodec, n: usize) -> (tempfile::TempDir, MicroNN) {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("t.mnn"), config(codec)).unwrap();
    let ds = dataset(n, 21);
    let records: Vec<VectorRecord> = (0..n)
        .map(|i| VectorRecord::new(i as i64, ds.vector(i).to_vec()))
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();
    (dir, db)
}

// ---------------------------------------------------------------------------
// Satellite: per-codec bytes_scanned accounting, pinning the documented
// formula on `QueryInfo::bytes_scanned` (stats.rs) for every codec.
// ---------------------------------------------------------------------------

#[test]
fn bytes_scanned_f32_is_4_dim_per_row() {
    let (_dir, db) = build(VectorCodec::F32, 600);
    let q = dataset(600, 21).query(0).to_vec();
    // Exact scan touches every row exactly once, full precision.
    let resp = db.exact(&q, K, None).unwrap();
    assert_eq!(resp.info.vectors_scanned, 600);
    assert_eq!(resp.info.reranked, 0);
    assert_eq!(resp.info.bytes_scanned, 600 * 4 * DIM);
    // ANN scans a subset, still 4·dim per row and no re-rank.
    let resp = db.search(&q, K).unwrap();
    assert!(resp.info.vectors_scanned > 0);
    assert_eq!(resp.info.reranked, 0);
    assert_eq!(resp.info.bytes_scanned, resp.info.vectors_scanned * 4 * DIM);
}

#[test]
fn bytes_scanned_sq8_is_dim_per_row_plus_rerank() {
    let (_dir, db) = build(VectorCodec::Sq8, 600);
    let q = dataset(600, 21).query(0).to_vec();
    let resp = db.search(&q, K).unwrap();
    assert!(resp.info.vectors_scanned > 0);
    assert!(resp.info.reranked > 0, "quantized search must re-rank");
    assert_eq!(
        resp.info.bytes_scanned,
        resp.info.vectors_scanned * DIM + resp.info.reranked * 4 * DIM
    );
}

#[test]
fn bytes_scanned_sq4_is_16_dim_per_block_plus_rerank() {
    let (_dir, db) = build(VectorCodec::Sq4, 600);
    let q = dataset(600, 21).query(0).to_vec();
    let resp = db.search(&q, K).unwrap();
    assert!(resp.info.vectors_scanned > 0);
    assert!(resp.info.reranked > 0, "quantized search must re-rank");
    // Fastscan reads whole interleaved blocks (32 rows packed at dim/2
    // bytes each = 16·dim bytes), so the scan share must be an exact
    // multiple of the block size and cover every scanned vector.
    let scan_bytes = resp.info.bytes_scanned - resp.info.reranked * 4 * DIM;
    let block_bytes = 16 * DIM;
    assert_eq!(
        scan_bytes % block_bytes,
        0,
        "SQ4 scan bytes must be whole blocks (got {scan_bytes})"
    );
    let blocks = scan_bytes / block_bytes;
    assert!(
        blocks * 32 >= resp.info.vectors_scanned,
        "{blocks} blocks cannot hold {} scanned vectors",
        resp.info.vectors_scanned
    );
    assert!(blocks >= 1);
}

// ---------------------------------------------------------------------------
// Tentpole integration: stage spans, WAL group-commit spans, slow-query
// log, and snapshot counters observed end to end.
// ---------------------------------------------------------------------------

#[test]
fn trace_spans_wal_commits_and_slow_log_observed_end_to_end() {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = config(VectorCodec::Sq8);
    // A real durable write path, so commits go through group commit.
    cfg.store.sync = SyncMode::Normal;
    // Threshold 0 ms: every query lands in the slow-query log.
    cfg.slow_query_ms = Some(0);
    let db = MicroNN::create(dir.path().join("e2e.mnn"), cfg).unwrap();

    let sink = Arc::new(CollectingSink::new());
    db.set_trace_sink(Some(sink.clone()));

    let ds = dataset(500, 5);
    let records: Vec<VectorRecord> = (0..500)
        .map(|i| VectorRecord::new(i as i64, ds.vector(i).to_vec()))
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();

    let q = ds.query(0).to_vec();
    let single = db.search(&q, K).unwrap();
    assert_eq!(single.results.len(), K);
    let batch: Vec<Vec<f32>> = (0..4).map(|i| ds.query(i).to_vec()).collect();
    db.batch_search(&batch, K, None).unwrap();

    let spans: Vec<Span> = sink.take();
    let by_name = |n: &str| -> Vec<&Span> { spans.iter().filter(|s| s.name == n).collect() };

    // WAL group commits carry frame bytes; SyncMode::Normal fsyncs.
    let commits = by_name("wal_group_commit");
    assert!(!commits.is_empty(), "no wal_group_commit spans recorded");
    assert!(commits.iter().all(|s| s.bytes > 0 && s.items > 0));
    assert!(
        commits.iter().any(|s| s.fsyncs > 0),
        "SyncMode::Normal must fsync at least one group commit"
    );

    // The rebuild emitted a maintenance span attributing its write I/O.
    let rebuilds = by_name("maintain_rebuild");
    assert_eq!(rebuilds.len(), 1);
    assert_eq!(rebuilds[0].items, 500);
    assert!(rebuilds[0].bytes > 0);

    // Query stages: probe selection and partition scan always run; the
    // quantized pipeline re-ranks. Stage clocks must be nonzero.
    for name in ["probe_select", "partition_scan", "rerank"] {
        let stages = by_name(name);
        assert!(!stages.is_empty(), "missing {name} span");
        assert!(
            stages.iter().any(|s| !s.duration.is_zero()),
            "all {name} spans have zero duration"
        );
    }
    let queries = by_name("query");
    assert!(!queries.is_empty());
    assert!(queries.iter().all(|s| s.detail.contains("plan=")));
    let batches = by_name("batch");
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].items, 4);

    // Slow-query log: threshold 0 captures everything, stages included.
    let slow = db.slow_queries();
    assert!(!slow.is_empty(), "slow-query log is empty at threshold 0");
    let rec = slow.last().unwrap();
    assert!(!rec.stages.is_empty(), "slow record has no stage breakdown");
    assert!(rec.partitions_scanned > 0);
    assert!(rec.bytes_scanned > 0);

    // Registry snapshot: counters flowed, histograms recorded, and the
    // store's I/O counters are re-registered live.
    let snap = db.telemetry();
    assert!(snap.counter("micronn_queries_total").unwrap() >= 1);
    assert_eq!(snap.counter("micronn_batches_total"), Some(1));
    assert!(snap.counter("micronn_slow_queries_total").unwrap() >= 1);
    assert!(snap.counter("micronn_vectors_scanned_total").unwrap() > 0);
    assert!(snap.counter("micronn_distance_computations_total").unwrap() > 0);
    assert!(snap.counter("micronn_maintenance_rebuild_total").unwrap() == 1);
    assert!(snap.counter("micronn_store_wal_writes").unwrap() > 0);
    let lat = snap.histogram("micronn_query_latency_ns").unwrap();
    assert!(lat.count >= 1);
    assert!(lat.p50() > 0.0);

    // Exporters render the same snapshot.
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE micronn_queries_total counter"));
    assert!(prom.contains("micronn_query_latency_ns_bucket{le=\"+Inf\"}"));
    let json = snap.to_json();
    assert!(json.contains("\"micronn_queries_total\""));
    assert!(json.contains("\"p99\""));
}

#[test]
fn query_counters_flow_without_any_sink() {
    // The always-on flow: no sink, no slow-query threshold — counters
    // and the latency histogram still populate.
    let (_dir, db) = build(VectorCodec::F32, 300);
    let q = dataset(300, 21).query(1).to_vec();
    for _ in 0..5 {
        db.search(&q, K).unwrap();
    }
    let snap = db.telemetry();
    assert_eq!(snap.counter("micronn_queries_total"), Some(5));
    assert_eq!(snap.histogram("micronn_query_latency_ns").unwrap().count, 5);
    assert!(snap.counter("micronn_partitions_scanned_total").unwrap() > 0);
    // No sink, no threshold: nothing detailed was collected.
    assert!(db.slow_queries().is_empty());
    assert_eq!(snap.counter("micronn_slow_queries_total"), Some(0));
}

#[test]
fn filter_join_stage_appears_for_hybrid_plans() {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = config(VectorCodec::F32);
    cfg.attributes = vec![micronn::AttributeDef::indexed(
        "g",
        micronn::ValueType::Integer,
    )];
    let db = MicroNN::create(dir.path().join("f.mnn"), cfg).unwrap();
    let ds = dataset(400, 9);
    let records: Vec<VectorRecord> = (0..400)
        .map(|i| VectorRecord::new(i as i64, ds.vector(i).to_vec()).with_attr("g", (i % 4) as i64))
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();

    let sink = Arc::new(CollectingSink::new());
    db.set_trace_sink(Some(sink.clone()));
    let filter = micronn::Expr::eq("g", micronn::Value::Integer(2));
    // Both physical plans must surface a filter_join stage.
    for plan in [
        micronn::PlanPreference::ForcePreFilter,
        micronn::PlanPreference::ForcePostFilter,
    ] {
        let req = SearchRequest::new(ds.query(0).to_vec(), K)
            .with_filter(filter.clone())
            .with_plan(plan);
        db.search_with(&req).unwrap();
        let spans = sink.take();
        assert!(
            spans.iter().any(|s| s.name == "filter_join"),
            "{plan:?}: no filter_join span in {:?}",
            spans.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }
}

/// `micronn_filter_probes_total` is the sum of the post-filter join's
/// `QueryInfo::candidates`, beside `micronn_filtered_out_total`; a
/// pre-filter plan's examined set and an unfiltered query add nothing.
#[test]
fn filter_probes_counter_sums_the_join_candidates() {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = config(VectorCodec::Sq4);
    cfg.attributes = vec![micronn::AttributeDef::indexed(
        "g",
        micronn::ValueType::Integer,
    )];
    let db = MicroNN::create(dir.path().join("p.mnn"), cfg).unwrap();
    let ds = dataset(400, 9);
    let records: Vec<VectorRecord> = (0..400)
        .map(|i| VectorRecord::new(i as i64, ds.vector(i).to_vec()).with_attr("g", (i % 4) as i64))
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();

    let filter = micronn::Expr::eq("g", micronn::Value::Integer(2));
    let (mut probes, mut rejected) = (0, 0);
    for qi in 0..4 {
        let q = ds.query(qi).to_vec();
        let post = SearchRequest::new(q.clone(), K)
            .with_filter(filter.clone())
            .with_plan(micronn::PlanPreference::ForcePostFilter);
        let info = db.search_with(&post).unwrap().info;
        assert!(info.candidates > info.filtered_out, "q{qi}: some rows pass");
        probes += info.candidates as u64;
        rejected += info.filtered_out as u64;
        let pre = post.with_plan(micronn::PlanPreference::ForcePreFilter);
        assert!(db.search_with(&pre).unwrap().info.candidates > 0);
        db.search(&q, K).unwrap();
    }
    let snap = db.telemetry();
    assert_eq!(snap.counter("micronn_filter_probes_total"), Some(probes));
    assert_eq!(snap.counter("micronn_filtered_out_total"), Some(rejected));
    assert!(snap
        .to_prometheus()
        .contains("# TYPE micronn_filter_probes_total counter"));
}

#[test]
fn slow_log_is_a_bounded_ring() {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = config(VectorCodec::F32);
    cfg.slow_query_ms = Some(0);
    let db = MicroNN::create(dir.path().join("ring.mnn"), cfg).unwrap();
    let ds = dataset(200, 3);
    let records: Vec<VectorRecord> = (0..200)
        .map(|i| VectorRecord::new(i as i64, ds.vector(i).to_vec()))
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();
    let q = ds.query(0).to_vec();
    for _ in 0..200 {
        db.search(&q, K).unwrap();
    }
    let slow = db.slow_queries();
    assert!(slow.len() <= 128, "ring exceeded capacity: {}", slow.len());
    assert!(slow.len() >= 100, "ring nearly full expected");
}

#[test]
fn maintenance_spans_cover_flush_and_counters_registry() {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = config(VectorCodec::F32);
    cfg.delta_flush_threshold = 1_000_000; // manual control
    let db = MicroNN::create(dir.path().join("m.mnn"), cfg).unwrap();
    let ds = dataset(300, 13);
    let records: Vec<VectorRecord> = (0..300)
        .map(|i| VectorRecord::new(i as i64, ds.vector(i).to_vec()))
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();

    let sink = Arc::new(CollectingSink::new());
    db.set_trace_sink(Some(sink.clone()));
    // Stage and flush: the span's item count is the flushed rows.
    let extra: Vec<VectorRecord> = (0..40)
        .map(|i| VectorRecord::new(10_000 + i as i64, ds.vector(i as usize).to_vec()))
        .collect();
    db.upsert_batch(&extra).unwrap();
    let report = db.flush_delta().unwrap();
    assert_eq!(report.flushed, 40);
    let spans = sink.take();
    let flush = spans
        .iter()
        .find(|s| s.name == "maintain_flush")
        .expect("no maintain_flush span");
    assert_eq!(flush.items, 40);

    let snap = db.telemetry();
    assert_eq!(snap.counter("micronn_maintenance_flush_total"), Some(1));
    assert_eq!(snap.counter("micronn_maintenance_rebuild_total"), Some(1));
    assert!(snap.counter("micronn_maintenance_actions_total").unwrap() >= 2);
    assert!(
        snap.counter("micronn_maintenance_bytes_written_total")
            .unwrap()
            > 0
    );
}

// ---------------------------------------------------------------------------
// Version GC is proportional to the garbage: a read-only stretch does no
// GC work at all, and a commit's superseded pages go with the next query.
// ---------------------------------------------------------------------------

#[test]
fn version_gc_counters_flat_on_a_quiescent_index_and_move_after_an_upsert() {
    let (_dir, db) = build(VectorCodec::F32, 600);
    let ds = dataset(600, 21);
    let q = ds.query(0).to_vec();
    // The first query's reader drop collects what the build queued.
    db.search(&q, K).unwrap();

    let before = db.io_stats();
    for _ in 0..1000 {
        db.search(&q, K).unwrap();
    }
    let quiet = db.io_stats().since(&before);
    assert!(quiet.reader_pins >= 1000);
    assert_eq!(
        quiet.version_gc_examined, 0,
        "read-only stretch did GC work"
    );
    assert_eq!(quiet.version_gc_pages, 0);

    db.upsert(VectorRecord::new(10_000, ds.vector(0).to_vec()))
        .unwrap();
    db.search(&q, K).unwrap();
    let moved = db.io_stats().since(&before);
    assert!(
        moved.version_gc_examined > 0,
        "the upsert's pages were queued"
    );
    assert!(moved.version_gc_pages > 0, "and their old versions dropped");
    assert!(moved.version_gc_pages <= moved.version_gc_examined);
    let snap = db.telemetry();
    assert_eq!(
        snap.counter("micronn_store_version_gc_examined"),
        Some(db.io_stats().version_gc_examined)
    );
}

// ---------------------------------------------------------------------------
// A commit logs only the pages it changed: an identical replace-upsert
// leaves the header, the `vectors` row-count leaf and the `attrs` leaf
// unlogged, and the tally reaches the registry and the CLI.
// ---------------------------------------------------------------------------

#[test]
fn identical_replace_upsert_elides_pages_and_the_cli_lists_the_tally() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("elide.mnn");
    let mut cfg = config(VectorCodec::F32);
    cfg.attributes = vec![micronn::AttributeDef::indexed(
        "g",
        micronn::ValueType::Integer,
    )];
    let db = MicroNN::create(&path, cfg).unwrap();
    let ds = dataset(300, 4);
    let record = |i: usize| {
        VectorRecord::new(i as i64, ds.vector(i).to_vec()).with_attr("g", (i % 4) as i64)
    };
    db.upsert_batch(&(0..300).map(record).collect::<Vec<_>>())
        .unwrap();
    db.rebuild().unwrap();
    // The first replace moves asset 7 into the delta; the second is the
    // steady state a streaming re-upsert sees.
    db.upsert(record(7)).unwrap();
    let before = db.io_stats();
    db.upsert(record(7)).unwrap();
    let delta = db.io_stats().since(&before);
    assert_eq!(delta.commits, 1);
    assert!(
        delta.commit_pages_elided >= 3,
        "header, row-count leaf and attrs leaf: {delta:?}"
    );
    assert_eq!(
        db.telemetry().counter("micronn_store_commit_pages_elided"),
        Some(db.io_stats().commit_pages_elided)
    );
    drop(db);

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_micronnctl"))
        .arg("stats")
        .arg(&path)
        .args(["--format", "json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(
        json.contains("\"micronn_store_commit_pages_elided\""),
        "{json}"
    );
}
