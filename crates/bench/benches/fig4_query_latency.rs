//! Figure 4: mean ANN query latency at 90% recall@100 across all
//! datasets, for three scenarios (§4.2.1):
//!
//! * **InMemory** — the same MicroNN index with a page cache larger
//!   than the file and every page resident (latency lower bound);
//! * **MicroNN-WarmCache** — disk-resident MicroNN with a warmed page
//!   cache (the long-lived-application pattern);
//! * **MicroNN-ColdStart** — every query starts with purged caches (the
//!   application-bootstrap pattern).
//!
//! Each scenario runs under the Large and Small device profiles
//! (buffer-pool budget + worker count). MicroNN scenarios report
//! p50/p99 latency plus the buffer-pool hit rate over the measured
//! region, so the warm-vs-cold gap is attributable: warm queries
//! should run near-100% from the pool, cold queries mostly from disk.
//! Expected shape (paper): cold start an order of magnitude slower;
//! warm cache within small factors of InMemory.
//!
//! The MicroNN p50/p99 figures come from telemetry histogram snapshots
//! (`micronn_bench::hist_percentile_ms`), which asserts agreement with
//! the exact `percentile` of the raw samples to within one bucket
//! width on every row printed.

use micronn::{DeviceProfile, MicroNN, SearchRequest};
use micronn_bench::{
    build_micronn, build_resident, hist_percentile_ms, latency_histogram_ns, sample_ground_truth,
    scaled_specs, tune_probes,
};
use micronn_datasets::generate;

#[global_allocator]
static ALLOC: micronn_bench::TrackingAlloc = micronn_bench::TrackingAlloc;

const K: usize = 100;

fn main() {
    let specs = scaled_specs();
    let nq = micronn_bench::bench_queries();
    println!(
        "Figure 4: query latency (ms) for 90% recall@{K} — scale {}\n",
        micronn_bench::bench_scale()
    );
    for profile in [DeviceProfile::Large, DeviceProfile::Small] {
        println!("== {profile:?} DUT ==");
        let widths = [12usize, 7, 8, 10, 14, 14, 10, 10];
        micronn_bench::print_header(
            &[
                "dataset",
                "n",
                "probes",
                "InMemory",
                "Warm p50/p99",
                "Cold p50/p99",
                "hit% w/c",
                "recall",
            ],
            &widths,
        );
        for spec in &specs {
            let dataset = generate(spec);
            let gt = sample_ground_truth(&dataset, K, nq);

            // One query's latency in ms.
            let query_ms = |db: &MicroNN, qi: usize, probes: usize| {
                let req = SearchRequest::new(dataset.query(qi).to_vec(), K).with_probes(probes);
                micronn_bench::time(|| db.search_with(&req).unwrap())
                    .1
                    .as_secs_f64()
                    * 1e3
            };

            // --- InMemory baseline: the same index, every page resident
            let (mem, _) = build_resident(&dataset, profile, 100);
            let (mem_probes, _) = tune_probes(&mem.db, &dataset, &gt, K, nq, 0.9);
            let mem_lat: Vec<f64> = (0..gt.len())
                .map(|qi| query_ms(&mem.db, qi, mem_probes))
                .collect();
            drop(mem);

            // --- MicroNN disk-resident -------------------------------
            let bench = build_micronn(&dataset, profile, 100);
            let db = &bench.db;
            let (probes, achieved) = tune_probes(db, &dataset, &gt, K, nq, 0.9);

            // WarmCache: run the query set once to warm, then measure.
            for qi in 0..gt.len() {
                query_ms(db, qi, probes);
            }
            let warm_io_start = db.io_stats();
            let warm_lat: Vec<f64> = (0..gt.len()).map(|qi| query_ms(db, qi, probes)).collect();
            let warm_io = db.io_stats().since(&warm_io_start);

            // ColdStart: purge all caches before each query; the paper
            // samples fewer queries here (it measures one query per
            // cold start).
            db.checkpoint().ok();
            let mut cold_lat = Vec::new();
            let cold_io_start = db.io_stats();
            for qi in 0..gt.len().min(10) {
                db.purge_caches();
                cold_lat.push(query_ms(db, qi, probes));
            }
            let cold_io = db.io_stats().since(&cold_io_start);

            // Report MicroNN latencies from telemetry histogram
            // snapshots; hist_percentile_ms() asserts each one agrees
            // with the exact percentile() within one bucket width.
            let warm_hist = latency_histogram_ns(&warm_lat);
            let cold_hist = latency_histogram_ns(&cold_lat);
            let m_mem = micronn_bench::median(&mem_lat);
            let m_warm = hist_percentile_ms(&warm_hist, &warm_lat, 50.0);
            let m_cold = hist_percentile_ms(&cold_hist, &cold_lat, 50.0);
            let p99_warm = hist_percentile_ms(&warm_hist, &warm_lat, 99.0);
            let p99_cold = hist_percentile_ms(&cold_hist, &cold_lat, 99.0);
            micronn_bench::print_row(
                &[
                    spec.name.to_string(),
                    dataset.len().to_string(),
                    probes.to_string(),
                    format!("{m_mem:.2}"),
                    format!("{m_warm:.2}/{p99_warm:.2}"),
                    format!("{m_cold:.2}/{p99_cold:.2}"),
                    format!(
                        "{:.0}/{:.0}",
                        warm_io.hit_ratio() * 100.0,
                        cold_io.hit_ratio() * 100.0
                    ),
                    format!("{achieved:.2}"),
                ],
                &widths,
            );
            assert!(
                m_cold >= m_warm * 0.8,
                "{}: cold start should not beat warm cache",
                spec.name
            );
        }
        println!();
    }
    println!("expected shape (paper): Cold >> Warm ≈ small-factor of InMemory");
}
