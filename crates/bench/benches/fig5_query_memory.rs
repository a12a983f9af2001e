//! Figure 5: memory usage during query processing (§4.2.1).
//!
//! For each dataset: the InMemory baseline (the same index with every
//! page resident) holds every vector in RAM, while MicroNN serves the
//! same queries out of its bounded page cache — "two orders of
//! magnitude less" memory at paper scale. Peak heap bytes are measured
//! with the tracking allocator; MicroNN's pool residency is alongside.
//!
//! A second table compares vector-payload bytes scanned per query
//! under the F32, SQ8, and SQ4 codecs: quantized scans read u8 codes
//! (or register-interleaved 4-bit blocks) plus a small exact re-rank
//! pool instead of full f32 rows, so the same probe budget touches
//! ≥ 3× fewer bytes under SQ8 and ≥ 6× fewer scan bytes under SQ4.

use micronn::{MicroNN, SearchRequest, VectorCodec};
use micronn_bench::{
    build_micronn, build_micronn_codec, build_resident, mib, sample_ground_truth, scaled_specs,
    tune_probes, DeviceProfile, TrackingAlloc,
};
use micronn_datasets::generate;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

const K: usize = 100;

fn main() {
    let specs = scaled_specs();
    let nq = micronn_bench::bench_queries();
    println!(
        "Figure 5: peak memory (MiB) during query processing — scale {}\n",
        micronn_bench::bench_scale()
    );
    for profile in [DeviceProfile::Large, DeviceProfile::Small] {
        println!(
            "== {profile:?} DUT (pool budget {} MiB) ==",
            mib(profile.store_options().pool_bytes)
        );
        let widths = [12usize, 8, 14, 14, 12, 10];
        micronn_bench::print_header(
            &[
                "dataset",
                "n",
                "InMemory",
                "MicroNN",
                "pool resid.",
                "ratio",
            ],
            &widths,
        );
        for spec in &specs {
            let dataset = generate(spec);
            let gt = sample_ground_truth(&dataset, K, nq.min(15));

            let run_queries = |db: &MicroNN, probes: usize| {
                for qi in 0..gt.len() {
                    let req = SearchRequest::new(dataset.query(qi).to_vec(), K);
                    db.search_with(&req.with_probes(probes)).unwrap();
                }
            };

            // --- InMemory: the query-phase peak counts the resident
            // pages, which are live during queries.
            let base = TrackingAlloc::live();
            let (mem, _) = build_resident(&dataset, profile, 100);
            TrackingAlloc::reset_peak();
            run_queries(&mem.db, 8);
            let mem_peak = TrackingAlloc::peak().saturating_sub(base);
            drop(mem);

            // --- MicroNN: build, then measure only the query phase.
            let bench = build_micronn(&dataset, profile, 100);
            let db = &bench.db;
            let (probes, _) = tune_probes(db, &dataset, &gt, K, gt.len(), 0.9);
            db.purge_caches(); // start the phase from a cold cache
            TrackingAlloc::reset_peak();
            let live_before = TrackingAlloc::live();
            run_queries(db, probes);
            let micro_peak = TrackingAlloc::peak() - live_before.min(TrackingAlloc::peak());
            let pool = db.stats().unwrap().resident_bytes;

            let ratio = mem_peak as f64 / micro_peak.max(1) as f64;
            micronn_bench::print_row(
                &[
                    spec.name.to_string(),
                    dataset.len().to_string(),
                    mib(mem_peak),
                    mib(micro_peak),
                    mib(pool),
                    format!("{ratio:.1}x"),
                ],
                &widths,
            );
            // The figure's claim is about *scaling*: InMemory grows
            // with the dataset while MicroNN stays flat at the pool
            // budget. Flatness always holds; superiority only once the
            // raw data outgrows the cache (guaranteed at paper scale).
            let raw_bytes = dataset.vectors.len() * 4;
            let budget = profile.store_options().pool_bytes;
            assert!(
                pool <= budget + 64 * 1024,
                "{}: pool stays within budget",
                spec.name
            );
            assert!(
                mem_peak >= raw_bytes,
                "{}: InMemory must hold all vectors resident",
                spec.name
            );
            if raw_bytes > 2 * budget {
                assert!(
                    micro_peak < mem_peak,
                    "{}: MicroNN must use less query memory once data outgrows the cache",
                    spec.name
                );
            }
        }
        println!();
    }
    // --- Bytes scanned per query: F32 vs SQ8 vs SQ4 (same probes). ---
    // Measured at k = 10: the quantized pipelines read u8 codes (SQ8)
    // or 16·dim-byte interleaved blocks (SQ4) plus a fixed
    // `rerank_factor·k` exact pool, so the reduction approaches 4×
    // (SQ8) / 8× (SQ4, block-padding aside) as the scanned set grows
    // past the pool. Tiny smoke-scale datasets can sit below that
    // regime; the assertions apply once a query scans meaningfully
    // more rows than it re-ranks.
    println!("== bytes scanned per query: F32 vs SQ8 vs SQ4 codec (k=10) ==");
    const K_BYTES: usize = 10;
    let widths = [12usize, 8, 12, 12, 12, 12, 7, 7];
    micronn_bench::print_header(
        &[
            "dataset",
            "n",
            "F32 KiB/q",
            "SQ8 KiB/q",
            "SQ4 KiB/q",
            "reranked/q",
            "sq8",
            "sq4",
        ],
        &widths,
    );
    for spec in &specs {
        let dataset = generate(spec);
        let gt = sample_ground_truth(&dataset, K_BYTES, nq.min(10));
        let f32_db = build_micronn(&dataset, DeviceProfile::Large, 100);
        let sq8_db = build_micronn_codec(&dataset, DeviceProfile::Large, 100, VectorCodec::Sq8);
        let sq4_db = build_micronn_codec(&dataset, DeviceProfile::Large, 100, VectorCodec::Sq4);
        let partitions = f32_db.db.stats().unwrap().partitions.max(1) as usize;
        let (tuned, _) = tune_probes(&f32_db.db, &dataset, &gt, K_BYTES, gt.len(), 0.9);
        // Probe enough rows that the scan, not the re-rank tail,
        // dominates the byte count (the paper-scale regime).
        let probes = tuned.max(16).min(partitions);
        let (mut f32_bytes, mut sq8_bytes, mut reranked, mut scanned) =
            (0usize, 0usize, 0usize, 0usize);
        let (mut sq4_bytes, mut reranked4, mut scanned4) = (0usize, 0usize, 0usize);
        for qi in 0..gt.len() {
            let req = SearchRequest::new(dataset.query(qi).to_vec(), K_BYTES).with_probes(probes);
            f32_bytes += f32_db.db.search_with(&req).unwrap().info.bytes_scanned;
            let got = sq8_db.db.search_with(&req).unwrap();
            sq8_bytes += got.info.bytes_scanned;
            reranked += got.info.reranked;
            scanned += got.info.vectors_scanned;
            let got4 = sq4_db.db.search_with(&req).unwrap();
            sq4_bytes += got4.info.bytes_scanned;
            reranked4 += got4.info.reranked;
            scanned4 += got4.info.vectors_scanned;
        }
        let ratio = f32_bytes as f64 / sq8_bytes.max(1) as f64;
        let ratio4 = f32_bytes as f64 / sq4_bytes.max(1) as f64;
        micronn_bench::print_row(
            &[
                spec.name.to_string(),
                dataset.len().to_string(),
                format!("{:.1}", f32_bytes as f64 / gt.len() as f64 / 1024.0),
                format!("{:.1}", sq8_bytes as f64 / gt.len() as f64 / 1024.0),
                format!("{:.1}", sq4_bytes as f64 / gt.len() as f64 / 1024.0),
                format!("{:.1}", reranked as f64 / gt.len() as f64),
                format!("{ratio:.1}x"),
                format!("{ratio4:.1}x"),
            ],
            &widths,
        );
        if scanned >= 12 * reranked.max(1) {
            assert!(
                ratio >= 3.0,
                "{}: SQ8 must scan >= 3x fewer payload bytes ({ratio:.2}x)",
                spec.name
            );
        }
        if scanned4 >= 12 * reranked4.max(1) {
            // The SQ4 acceptance bound is on the *scan* payload (the
            // nibble blocks themselves): the exact re-rank tail is a
            // fixed per-query cost shared by every quantized codec, so
            // it is subtracted before comparing against the 1/6 bound.
            let sq4_scan = sq4_bytes.saturating_sub(4 * spec.dim * reranked4);
            let scan_ratio4 = f32_bytes as f64 / sq4_scan.max(1) as f64;
            assert!(
                scan_ratio4 >= 6.0,
                "{}: SQ4 must scan >= 6x fewer payload bytes ({scan_ratio4:.2}x)",
                spec.name
            );
        }
    }
    println!();
    println!(
        "expected shape (paper): MicroNN flat at the pool budget; InMemory grows with the dataset"
    );
    println!("(the 'two orders of magnitude' gap appears at paper scale: rerun with FULL_SCALE=1)");
    println!("SQ8 codec: same probes, >= 3x fewer payload bytes scanned (codes + exact re-rank)");
    println!("SQ4 codec: same probes, >= 6x fewer scan bytes (nibble blocks + exact re-rank)");
}
