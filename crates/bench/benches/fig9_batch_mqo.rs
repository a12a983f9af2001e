//! Figure 9: impact of multi-query optimization on batch processing
//! (§4.3.3): (9a) time to process a query batch relative to one query
//! at a time, (9b) amortized single-query latency vs batch size.
//!
//! Also checks the §3.4 claim: ≥30% amortized latency reduction at
//! batch size 512 on the InternalA workload.
//!
//! Expected shape: total batch time grows sub-linearly in batch size,
//! so amortized latency falls; gains diminish once the query×centroid
//! matrix dominates (the paper observes this on DEEPImage's ≈100k
//! centroids).

use micronn::{DeviceProfile, SearchRequest};
use micronn_bench::{build_micronn, scaled_specs};
use micronn_datasets::generate;

#[global_allocator]
static ALLOC: micronn_bench::TrackingAlloc = micronn_bench::TrackingAlloc;

const K: usize = 100;
const BATCHES: [usize; 5] = [1, 16, 64, 256, 512];

fn main() {
    let specs = scaled_specs();
    println!(
        "Figure 9: batch MQO scaling (k={K}, default probes) — scale {}\n",
        micronn_bench::bench_scale()
    );
    let widths = [12usize, 8, 10, 12, 14, 12];
    micronn_bench::print_header(
        &[
            "dataset",
            "batch",
            "total ms",
            "per-query ms",
            "vs sequential",
            "speedup",
        ],
        &widths,
    );
    let mut internal_a_cut = None;
    for spec in &specs {
        let dataset = generate(spec);
        let bench = build_micronn(&dataset, DeviceProfile::Large, 100);
        let db = &bench.db;

        // Build the query batches by cycling the dataset's queries.
        let make_batch = |size: usize| -> Vec<Vec<f32>> {
            (0..size)
                .map(|i| dataset.query(i % spec.n_queries).to_vec())
                .collect()
        };

        // Baseline: single-query latency (warmed).
        let warmup = make_batch(8);
        db.batch_search(&warmup, K, None).unwrap();
        let single_batch = make_batch(16);
        let (_, d) = micronn_bench::time(|| {
            for q in &single_batch {
                db.search_with(&SearchRequest::new(q.clone(), K)).unwrap();
            }
        });
        let single_ms = d.as_secs_f64() * 1e3 / single_batch.len() as f64;

        for &bs in &BATCHES {
            let queries = make_batch(bs);
            let (resp, d) = micronn_bench::time(|| db.batch_search(&queries, K, None).unwrap());
            assert_eq!(resp.results.len(), bs);
            let total_ms = d.as_secs_f64() * 1e3;
            let per_query = total_ms / bs as f64;
            let sequential_est = single_ms * bs as f64;
            let speedup = single_ms / per_query;
            micronn_bench::print_row(
                &[
                    spec.name.to_string(),
                    bs.to_string(),
                    format!("{total_ms:.2}"),
                    format!("{per_query:.3}"),
                    format!("{:.0}%", 100.0 * total_ms / sequential_est),
                    format!("{speedup:.2}x"),
                ],
                &widths,
            );
            if spec.name == "InternalA" && bs == 512 {
                internal_a_cut = Some(1.0 - per_query / single_ms);
            }
        }
        println!();
    }
    if let Some(cut) = internal_a_cut {
        println!(
            "§3.4 claim check — InternalA amortized latency cut at batch 512: {:.0}% (paper: >30%)",
            cut * 100.0
        );
        assert!(
            cut > 0.0,
            "batched execution must amortize per-query latency"
        );
    }
    println!("expected shape (paper Fig.9): sub-linear batch scaling; amortized latency falls with batch size");
}
