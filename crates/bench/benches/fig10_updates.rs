//! Figure 10: full vs incremental index rebuild on a growing collection
//! (§4.3.4).
//!
//! Protocol (paper): bootstrap the index with 50% of InternalA, then at
//! each epoch insert 3% of the remaining vectors and run a 128-query
//! recall@100 batch before and after maintenance. The *FullBuild*
//! strategy rebuilds the whole index every epoch; the *Incremental*
//! strategy flushes the delta into the nearest partitions (updating
//! centroids by running mean) and only full-rebuilds when the average
//! partition size has grown 50% past its baseline. Reported per epoch:
//! (a) average single-query latency, (b) recall@100, (c) rebuild time,
//! (d) number of database row changes.
//!
//! Expected shape: comparable latency and recall (small incremental
//! recall deviation, corrected at the triggered rebuild) with the
//! incremental strategy touching a tiny fraction of the rows (<2% in
//! the paper).
//!
//! **Lifecycle extension** (§3.6 extended): a second phase runs a
//! sustained upsert/delete churn stream (`MICRONN_BENCH_CHURN_OPS`,
//! default 50,000 ops) with the background `IndexMaintainer` enabled
//! and reports, alongside the recall@10 trajectory over the stream:
//! (1) the number of full rebuilds (expected: **zero** — growth is
//! absorbed by local splits/merges), (2) recall@10 against a freshly
//! rebuilt index (expected within 2%), and (3) disk bytes written per
//! maintenance operation vs one full rebuild (expected ≤ 10%).
//! Maintenance I/O is attributed by the maintainer itself, which
//! samples the store's write counters around each pass — tight under
//! the engine's single-writer protocol.

use micronn::{Config, DeviceProfile, MaintainerOptions, MaintenanceStatus, MicroNN, VectorRecord};
use micronn_bench::{mean_recall_at, sample_ground_truth};
use micronn_datasets::{generate, internal_a, Dataset};

#[global_allocator]
static ALLOC: micronn_bench::TrackingAlloc = micronn_bench::TrackingAlloc;

const K: usize = 100;
const EPOCHS: usize = 18;
const QUERY_BATCH: usize = 128;

struct EpochRow {
    latency_ms: f64,
    recall: f64,
    rebuild_s: f64,
    row_changes: u64,
}

fn run_strategy(dataset: &Dataset, incremental: bool) -> Vec<EpochRow> {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = Config::new(dataset.spec.dim, dataset.spec.metric);
    cfg.store = DeviceProfile::Large.store_options();
    cfg.target_partition_size = 100;
    cfg.default_probes = 8;
    cfg.delta_flush_threshold = 1;
    // The paper's protocol: growth has exactly one answer (a full
    // rebuild). The lifecycle split/merge alternative is measured by
    // the churn phase below.
    cfg.lifecycle = false;
    let db = MicroNN::create(dir.path().join("fig10.mnn"), cfg).unwrap();

    let n = dataset.len();
    let bootstrap = n / 2;
    let per_epoch = ((n - bootstrap) * 3 / 100).max(1);

    let mut batch = Vec::new();
    for i in 0..bootstrap {
        batch.push(VectorRecord::new(i as i64, dataset.vector(i).to_vec()));
        if batch.len() == 2000 {
            db.upsert_batch(&batch).unwrap();
            batch.clear();
        }
    }
    db.upsert_batch(&batch).unwrap();
    db.rebuild().unwrap();

    let gt = sample_ground_truth(dataset, K, QUERY_BATCH.min(dataset.spec.n_queries));
    let mut next = bootstrap;
    let mut rows = Vec::new();
    for _epoch in 0..EPOCHS {
        // Insert this epoch's 3%.
        let end = (next + per_epoch).min(n);
        let recs: Vec<VectorRecord> = (next..end)
            .map(|i| VectorRecord::new(i as i64, dataset.vector(i).to_vec()))
            .collect();
        db.upsert_batch(&recs).unwrap();
        next = end;

        // Maintenance under the chosen strategy.
        let before_changes = db.stats().unwrap().row_changes;
        let (_, dur) = micronn_bench::time(|| {
            if incremental {
                // Flush; rebuild only when the monitor demands it.
                if db.maintenance_status().unwrap() == MaintenanceStatus::NeedsRebuild {
                    db.rebuild().unwrap();
                } else {
                    db.flush_delta().unwrap();
                }
            } else {
                db.rebuild().unwrap();
            }
        });
        let row_changes = db.stats().unwrap().row_changes - before_changes;

        // Query batch: adjust probes so the number of vectors scanned
        // stays roughly constant as partitions grow (the paper keeps
        // "the target number of vectors scanned same throughout").
        let stats = db.stats().unwrap();
        let target_scan = 24.0 * 100.0; // 24 probes x target size
        let probes = ((target_scan / stats.avg_partition_size.max(1.0)).round() as usize)
            .clamp(1, stats.partitions.max(1) as usize);
        let queries: Vec<Vec<f32>> = (0..gt.len()).map(|qi| dataset.query(qi).to_vec()).collect();
        let (resp, d) = micronn_bench::time(|| db.batch_search(&queries, K, Some(probes)).unwrap());
        assert_eq!(resp.results.len(), gt.len());
        let latency_ms = d.as_secs_f64() * 1e3 / gt.len() as f64;
        let recall = mean_recall_at(&db, dataset, &gt, K, gt.len(), probes);
        rows.push(EpochRow {
            latency_ms,
            recall,
            rebuild_s: dur.as_secs_f64(),
            row_changes,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Lifecycle churn phase
// ---------------------------------------------------------------------------

/// Churn stream length (one op = one upsert or one delete).
fn churn_ops() -> usize {
    std::env::var("MICRONN_BENCH_CHURN_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000)
}

struct ChurnOutcome {
    /// Disk bytes written by maintenance passes (store write counters
    /// sampled around each pass by the maintainer; the single-writer
    /// protocol keeps attribution tight).
    maintenance_bytes: u64,
    /// Maintenance operations performed (flushes + splits + merges).
    maintenance_ops: u64,
    /// Full rebuilds performed (the acceptance bar is zero).
    rebuilds: u64,
    /// `(op index, recall@10)` samples over the stream.
    trajectory: Vec<(usize, f64)>,
    db: MicroNN,
    _dir: tempfile::TempDir,
}

fn churn_recall(db: &MicroNN, dataset: &Dataset, queries: usize, probes: usize) -> f64 {
    let k = 10;
    let mut total = 0.0;
    for qi in 0..queries {
        let q = dataset.query(qi % dataset.spec.n_queries);
        let exact = db.exact(q, k, None).unwrap();
        let truth: std::collections::HashSet<i64> =
            exact.results.iter().map(|r| r.asset_id).collect();
        let got = db
            .search_with(&micronn::SearchRequest::new(q.to_vec(), k).with_probes(probes))
            .unwrap();
        let hits = got
            .results
            .iter()
            .filter(|r| truth.contains(&r.asset_id))
            .count();
        total += hits as f64 / truth.len().max(1) as f64;
    }
    total / queries as f64
}

/// Runs the churn stream (70% inserts, 30% deletes of the oldest live
/// assets) with the background `IndexMaintainer` enabled; maintenance
/// I/O comes from the maintainer's own per-pass store-counter samples.
fn run_churn(dataset: &Dataset) -> ChurnOutcome {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = Config::new(dataset.spec.dim, dataset.spec.metric);
    cfg.store = DeviceProfile::Large.store_options();
    cfg.target_partition_size = 100;
    cfg.delta_flush_threshold = 256;
    cfg.lifecycle = true;
    let db = MicroNN::create(dir.path().join("churn.mnn"), cfg).unwrap();

    let n = dataset.len();
    let bootstrap = n / 2;
    let mut batch = Vec::new();
    for i in 0..bootstrap {
        batch.push(VectorRecord::new(i as i64, dataset.vector(i).to_vec()));
        if batch.len() == 2000 {
            db.upsert_batch(&batch).unwrap();
            batch.clear();
        }
    }
    db.upsert_batch(&batch).unwrap();
    db.rebuild().unwrap();

    let maintainer = db.start_maintainer(MaintainerOptions {
        interval: std::time::Duration::from_millis(2),
    });

    let ops = churn_ops();
    let probes = 24;
    let sample_every = (ops / 8).max(1);
    let mut trajectory = Vec::new();
    let mut next_id = bootstrap as i64;
    let mut oldest = 0i64;
    for i in 0..ops {
        if i % 10 < 7 {
            // Recycle dataset vectors under fresh asset ids: the stream
            // follows the base distribution, growing partitions evenly.
            let v = dataset.vector(next_id as usize % n).to_vec();
            db.upsert(VectorRecord::new(next_id, v)).unwrap();
            next_id += 1;
        } else {
            db.delete(oldest).unwrap();
            oldest += 1;
        }
        if i % sample_every == 0 {
            trajectory.push((i, churn_recall(&db, dataset, 16, probes)));
        }
    }

    // Stop the background thread first, then drive the ladder to
    // Healthy so the run ends on a settled index; the foreground is
    // idle here, so sampling store counters around the final pass
    // attributes its bytes exactly too.
    let stats = maintainer.stop();
    let io_before = db.stats().unwrap().store;
    let final_report = db.maybe_maintain().unwrap();
    let final_bytes = db.stats().unwrap().store.since(&io_before).disk_writes()
        * micronn_storage::PAGE_SIZE as u64;
    assert_eq!(stats.errors, 0, "maintainer error: {:?}", stats.last_error);
    let maintenance_ops = stats.flushes
        + stats.splits
        + stats.merges
        + (final_report.flushes() + final_report.splits() + final_report.merges()) as u64;
    let rebuilds = stats.rebuilds + final_report.rebuilds() as u64;
    ChurnOutcome {
        maintenance_bytes: stats.bytes_written + final_bytes,
        maintenance_ops,
        rebuilds,
        trajectory,
        db,
        _dir: dir,
    }
}

fn lifecycle_churn_phase(dataset: &Dataset) {
    let ops = churn_ops();
    println!(
        "\nLifecycle churn: {} upsert/delete ops with the background IndexMaintainer\n",
        ops
    );
    let run = run_churn(dataset);

    let widths = [8usize, 10];
    micronn_bench::print_header(&["op", "recall@10"], &widths);
    for &(i, r) in &run.trajectory {
        micronn_bench::print_row(&[i.to_string(), format!("{r:.3}")], &widths);
    }

    // Recall vs a fresh rebuild of the same collection.
    let probes = 24;
    let lifecycle_recall = churn_recall(&run.db, dataset, 32, probes);
    let rebuild_before = run.db.stats().unwrap().store;
    run.db.rebuild().unwrap();
    let rebuild_bytes = run
        .db
        .stats()
        .unwrap()
        .store
        .since(&rebuild_before)
        .disk_writes()
        * micronn_storage::PAGE_SIZE as u64;
    let rebuilt_recall = churn_recall(&run.db, dataset, 32, probes);

    // Maintenance I/O, amortized per maintenance op.
    let per_op = run.maintenance_bytes / run.maintenance_ops.max(1);
    let ratio = per_op as f64 / rebuild_bytes.max(1) as f64;
    println!(
        "\nmaintenance ops: {} (rebuilds: {}), total maintenance I/O {:.1} MiB",
        run.maintenance_ops,
        run.rebuilds,
        run.maintenance_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "bytes written per maintenance op: {} KiB vs full rebuild {} KiB ({:.1}%)",
        per_op / 1024,
        rebuild_bytes / 1024,
        ratio * 100.0
    );
    println!(
        "recall@10: lifecycle {lifecycle_recall:.3} vs fresh rebuild {rebuilt_recall:.3} \
         (gap {:+.4})",
        rebuilt_recall - lifecycle_recall
    );
    assert_eq!(
        run.rebuilds, 0,
        "lifecycle churn must complete without a full rebuild"
    );
    assert!(
        lifecycle_recall >= rebuilt_recall - 0.02,
        "lifecycle recall must stay within 2% of a fresh rebuild"
    );
    assert!(
        ratio <= 0.10,
        "per-maintenance-op I/O must be <= 10% of a full rebuild ({ratio:.3})"
    );
}

fn main() {
    let mut spec = internal_a(micronn_bench::bench_scale().max(0.05));
    let cap: usize = std::env::var("MICRONN_BENCH_MAX_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    spec.n_vectors = spec.n_vectors.min(cap);
    spec.n_queries = QUERY_BATCH;
    let dataset = generate(&spec);
    println!(
        "Figure 10: full vs incremental rebuild on InternalA ({} x {}d), {} epochs of +3%\n",
        dataset.len(),
        spec.dim,
        EPOCHS
    );

    let full = run_strategy(&dataset, false);
    let incr = run_strategy(&dataset, true);

    let widths = [6usize, 10, 10, 9, 9, 11, 11, 12, 12];
    micronn_bench::print_header(
        &[
            "epoch",
            "lat full",
            "lat incr",
            "rec full",
            "rec incr",
            "build full",
            "build incr",
            "rows full",
            "rows incr",
        ],
        &widths,
    );
    let mut total_full_rows = 0u64;
    let mut total_incr_rows = 0u64;
    for (e, (f, i)) in full.iter().zip(&incr).enumerate() {
        micronn_bench::print_row(
            &[
                e.to_string(),
                format!("{:.2}", f.latency_ms),
                format!("{:.2}", i.latency_ms),
                format!("{:.3}", f.recall),
                format!("{:.3}", i.recall),
                format!("{:.2}s", f.rebuild_s),
                format!("{:.2}s", i.rebuild_s),
                f.row_changes.to_string(),
                i.row_changes.to_string(),
            ],
            &widths,
        );
        total_full_rows += f.row_changes;
        total_incr_rows += i.row_changes;
    }
    let io_fraction = total_incr_rows as f64 / total_full_rows.max(1) as f64;
    // Exclude the growth-triggered full rebuild epochs (row changes an
    // order of magnitude above a flush) to isolate the flush footprint.
    let flush_median = {
        let mut v: Vec<u64> = incr.iter().map(|r| r.row_changes).collect();
        v.sort_unstable();
        v[v.len() / 2]
    };
    let (mut flush_rows, mut flush_full_rows) = (0u64, 0u64);
    for (f, i) in full.iter().zip(&incr) {
        if i.row_changes <= flush_median * 5 {
            flush_rows += i.row_changes;
            flush_full_rows += f.row_changes;
        }
    }
    let flush_fraction = flush_rows as f64 / flush_full_rows.max(1) as f64;
    let mean_gap: f64 = full
        .iter()
        .zip(&incr)
        .map(|(f, i)| f.recall - i.recall)
        .sum::<f64>()
        / full.len() as f64;
    println!(
        "\nincremental I/O footprint: {:.1}% of full rebuild rows overall; {:.1}% for flush-only epochs (paper: <2%)",
        io_fraction * 100.0,
        flush_fraction * 100.0
    );
    println!(
        "mean recall gap (full - incremental): {mean_gap:.4} (paper: small, corrected at rebuild)"
    );
    assert!(
        total_incr_rows < total_full_rows / 2,
        "incremental maintenance must touch far fewer rows"
    );
    assert!(
        mean_gap < 0.08,
        "incremental recall must stay close to full rebuild (gap {mean_gap})"
    );
    println!("expected shape (paper Fig.10): comparable latency/recall; tiny incremental I/O;");
    println!("incremental build cost spikes only at the growth-triggered full rebuild");

    lifecycle_churn_phase(&dataset);
}
