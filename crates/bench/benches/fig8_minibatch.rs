//! Figure 8: impact of the mini-batch size on clustering quality (8a:
//! recall of top-100 search) and on memory during index construction
//! (8b), on the InternalA workload (§4.3.2).
//!
//! Protocol follows the paper: the probe count `n` is tuned to reach
//! 90% recall on the index trained with the *smallest* batch size and
//! held fixed across all batch sizes, so every configuration performs
//! roughly the same number of distance computations.
//!
//! Expected shape: recall flat from 0.04% of the collection all the way
//! to 100% (≈ full k-means), while construction memory grows with the
//! batch size.

use micronn::{Config, DeviceProfile, MicroNN, RebuildOptions};
use micronn_bench::{ingest, mean_recall_at, mib, sample_ground_truth, tune_probes, TrackingAlloc};
use micronn_datasets::{generate, internal_a};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

const K: usize = 100;

fn main() {
    // InternalA stand-in, sized per the bench cap.
    let mut spec = internal_a(micronn_bench::bench_scale().max(0.05));
    let cap: usize = std::env::var("MICRONN_BENCH_MAX_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    spec.n_vectors = spec.n_vectors.min(cap);
    spec.n_queries = micronn_bench::bench_queries();
    let dataset = generate(&spec);
    let n = dataset.len();
    println!(
        "Figure 8: mini-batch size sweep on InternalA ({n} x {}d, cosine)\n",
        spec.dim
    );

    let gt = sample_ground_truth(&dataset, K, spec.n_queries);

    // One database, re-clustered under each batch size.
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = Config::new(spec.dim, spec.metric);
    // Small profile: a 4 MiB pool + 2 MiB spill keep the fixed
    // overheads low enough that the mini-batch buffer dominates the
    // memory axis, as in the paper's Figure 8b.
    cfg.store = DeviceProfile::Small.store_options();
    cfg.target_partition_size = 100;
    let db = MicroNN::create(dir.path().join("fig8.mnn"), cfg).unwrap();
    ingest(&db, &dataset);

    // The paper's percentages of the training set.
    let percentages = [0.05f64, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0];
    let mut fixed_probes = None;
    let widths = [10usize, 10, 10, 12, 14, 12];
    micronn_bench::print_header(
        &[
            "batch %",
            "batch",
            "probes",
            "recall@100",
            "peak MiB",
            "build s",
        ],
        &widths,
    );
    for &pct in &percentages {
        let batch = ((n as f64 * pct / 100.0) as usize).max(8);
        db.purge_caches();
        TrackingAlloc::reset_peak();
        let base = TrackingAlloc::live();
        // At 100% every iteration samples the whole collection, which
        // "resembles a regular k-means algorithm" (§4.3.2).
        let (report, dur) = micronn_bench::time(|| {
            db.rebuild_with(&RebuildOptions {
                batch_size: Some(batch),
            })
            .expect("rebuild")
        });
        let peak = TrackingAlloc::peak().saturating_sub(base);

        // Tune n on the smallest batch, then hold it fixed (§4.3.2).
        // Tuning to 95% leaves slack so per-configuration clustering
        // variance at a fixed n stays above the 90% line.
        let probes = match fixed_probes {
            Some(p) => p,
            None => {
                let (p, _) = tune_probes(&db, &dataset, &gt, K, gt.len(), 0.95);
                fixed_probes = Some(p);
                p
            }
        };
        let recall = mean_recall_at(&db, &dataset, &gt, K, gt.len(), probes);
        micronn_bench::print_row(
            &[
                format!("{pct}"),
                batch.to_string(),
                probes.to_string(),
                format!("{recall:.3}"),
                mib(peak),
                format!("{:.2}", dur.as_secs_f64()),
            ],
            &widths,
        );
        assert!(report.partitions > 0);
        assert!(
            recall >= 0.75,
            "recall must stay high across batch sizes, got {recall} at {pct}%"
        );
    }
    println!("\nexpected shape (paper Fig.8): recall flat across batch sizes;");
    println!("construction memory grows with the batch (100% ≈ regular k-means)");
}
