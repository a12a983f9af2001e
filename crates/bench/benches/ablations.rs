//! Ablations of MicroNN design choices (MicroNN §3):
//!
//! 1. **Balance constraint** (Algorithm 1's size penalty): partition
//!    size variance and recall with λ = 0 vs λ > 0.
//! 2. **Clustered layout**: pages read for a contiguous partition scan
//!    vs fetching the same rows by scattered point lookups — the reason
//!    the vector table is clustered on `(partition, vid)`.
//! 3. **Delta-store growth**: query latency as the unflushed delta
//!    grows — the motivation for incremental maintenance.
//! 4. **Per-thread heaps + merge** vs a single shared heap under a
//!    mutex (Algorithm 2's design).
//! 5. **Scan workers**: ANN at probes 8 / 32 / 128, `exact` and a
//!    batch of 64, with 1 vs 2 workers on one 16 384 × 128 build.

use std::sync::atomic::Ordering;

use micronn::{Config, DeviceProfile, MicroNN, SearchRequest, VectorRecord};
use micronn_bench::{build_micronn, ingest, sample_ground_truth, tune_probes};
use micronn_cluster::{assign_all, size_cv, train, MiniBatchConfig, SliceSource};
use micronn_datasets::{generate, internal_a, table2_specs};
use micronn_linalg::{merge_all, TopK};

#[global_allocator]
static ALLOC: micronn_bench::TrackingAlloc = micronn_bench::TrackingAlloc;

fn main() {
    let mut spec = internal_a(micronn_bench::bench_scale().max(0.04));
    spec.n_vectors = spec.n_vectors.min(8_000);
    spec.n_queries = 20;
    spec.dim = 128; // keep the ablation fast; dim is not the variable
    let dataset = generate(&spec);

    // ------------------------------------------------------------------
    println!("Ablation 1: balance constraint (λ) vs partition-size variance\n");
    let widths = [8usize, 12, 12];
    micronn_bench::print_header(&["lambda", "size CV", "recall@100"], &widths);
    let gt = sample_ground_truth(&dataset, 100, 20);
    for lambda in [0.0f32, 0.5, 1.0] {
        let src = SliceSource::new(&dataset.vectors, spec.dim);
        let cfg = MiniBatchConfig {
            target_cluster_size: 100,
            batch_size: 1024,
            balance_lambda: lambda,
            balanced_assignment: lambda > 0.0,
            metric: spec.metric,
            ..Default::default()
        };
        let clustering = train(&src, &cfg).unwrap();
        let assignments = assign_all(&src, &clustering, lambda, 4096).unwrap();
        let cv = size_cv(&assignments, clustering.k());
        // Recall with a fixed probe budget over this partitioning.
        let mut partitions: Vec<Vec<u32>> = vec![Vec::new(); clustering.k()];
        for (i, &a) in assignments.iter().enumerate() {
            partitions[a as usize].push(i as u32);
        }
        let probes = 8.min(clustering.k());
        let mut total_recall = 0.0;
        for (qi, truth) in gt.iter().enumerate() {
            let q = dataset.query(qi);
            let mut top = TopK::new(100);
            for (ci, _) in clustering.nearest_n(q, probes) {
                for &m in &partitions[ci] {
                    let m = m as usize;
                    let row = &dataset.vectors[m * spec.dim..(m + 1) * spec.dim];
                    top.push(m as u64, spec.metric.distance(q, row));
                }
            }
            let ids: Vec<i64> = top.into_sorted().iter().map(|n| n.id as i64).collect();
            total_recall += micronn_datasets::recall(&ids, truth);
        }
        micronn_bench::print_row(
            &[
                format!("{lambda}"),
                format!("{cv:.3}"),
                format!("{:.3}", total_recall / gt.len() as f64),
            ],
            &widths,
        );
    }
    println!("-> the penalty trades a little recall for much lower size variance\n");

    // ------------------------------------------------------------------
    println!("Ablation 2: clustered partition scan vs scattered point lookups\n");
    let bench = build_micronn(&dataset, DeviceProfile::Small, 100);
    let db = &bench.db;
    db.checkpoint().unwrap();
    // Contiguous scan of the probe partitions:
    db.purge_caches();
    let before = db.stats().unwrap().store;
    let q = dataset.query(0).to_vec();
    let resp = db
        .search_with(&SearchRequest::new(q.clone(), 100).with_probes(8))
        .unwrap();
    let scan_reads = db.stats().unwrap().store.since(&before).disk_reads();
    let rows = resp.info.vectors_scanned;
    // Scattered: fetch the same number of random vectors by asset id.
    db.purge_caches();
    let before = db.stats().unwrap().store;
    let mut fetched = 0usize;
    let mut i = 0usize;
    while fetched < rows {
        if db.get_vector((i % dataset.len()) as i64).unwrap().is_some() {
            fetched += 1;
        }
        i = i.wrapping_add(2_654_435_761); // pseudo-random walk
    }
    let scattered_reads = db.stats().unwrap().store.since(&before).disk_reads();
    println!("  rows fetched:           {rows}");
    println!("  clustered scan reads:   {scan_reads} pages");
    println!("  scattered lookup reads: {scattered_reads} pages");
    println!(
        "-> clustering cuts page reads by {:.1}x\n",
        scattered_reads as f64 / scan_reads.max(1) as f64
    );
    assert!(scattered_reads > scan_reads, "clustered layout must win");

    // ------------------------------------------------------------------
    println!("Ablation 3: delta-store growth vs query latency\n");
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = Config::new(spec.dim, spec.metric);
    cfg.store = DeviceProfile::Large.store_options();
    cfg.target_partition_size = 100;
    let db = MicroNN::create(dir.path().join("delta.mnn"), cfg).unwrap();
    ingest(&db, &dataset);
    db.rebuild().unwrap();
    let (probes, _) = {
        let gt = sample_ground_truth(&dataset, 100, 10);
        tune_probes(&db, &dataset, &gt, 100, 10, 0.9)
    };
    let widths = [12usize, 12, 14];
    micronn_bench::print_header(&["delta size", "latency ms", "vectors scanned"], &widths);
    let mut next_id = 1_000_000i64;
    for target_delta in [0usize, 500, 2000, 8000] {
        while (db.delta_len().unwrap() as usize) < target_delta {
            let i = (next_id as usize * 13) % dataset.len();
            db.upsert(VectorRecord::new(next_id, dataset.vector(i).to_vec()))
                .unwrap();
            next_id += 1;
        }
        // Warm, then measure.
        let q = dataset.query(1).to_vec();
        db.search_with(&SearchRequest::new(q.clone(), 100).with_probes(probes))
            .unwrap();
        let mut lat = Vec::new();
        let mut scanned = 0usize;
        for _ in 0..5 {
            let (r, d) = micronn_bench::time(|| {
                db.search_with(&SearchRequest::new(q.clone(), 100).with_probes(probes))
                    .unwrap()
            });
            lat.push(d.as_secs_f64() * 1e3);
            scanned = r.info.vectors_scanned;
        }
        let (m, _) = micronn_bench::mean_std(&lat);
        micronn_bench::print_row(
            &[
                target_delta.to_string(),
                format!("{m:.2}"),
                scanned.to_string(),
            ],
            &widths,
        );
    }
    println!("-> every query scans the whole delta: latency grows until a flush\n");

    // ------------------------------------------------------------------
    println!("Ablation 4: per-thread heaps + merge vs one shared locked heap\n");
    let n_items = 2_000_000usize;
    let k = 100;
    let threads = 4;
    let items: Vec<f32> = (0..n_items)
        .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % 1_000_000) as f32)
        .collect();
    // Per-thread heaps (Algorithm 2's design).
    let (merged, per_thread_time) = micronn_bench::time(|| {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let heaps: Vec<TopK> = std::thread::scope(|s| {
            (0..threads)
                .map(|_| {
                    let next = &next;
                    let items = &items;
                    s.spawn(move || {
                        let mut top = TopK::new(k);
                        loop {
                            let chunk = next.fetch_add(65536, Ordering::Relaxed);
                            if chunk >= items.len() {
                                return top;
                            }
                            for (j, &d) in items[chunk..(chunk + 65536).min(items.len())]
                                .iter()
                                .enumerate()
                            {
                                top.push((chunk + j) as u64, d);
                            }
                        }
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        merge_all(heaps, k)
    });
    // Single shared heap under a mutex.
    let (shared, shared_time) = micronn_bench::time(|| {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let heap = parking_lot::Mutex::new(TopK::new(k));
        std::thread::scope(|s| {
            for _ in 0..threads {
                let next = &next;
                let items = &items;
                let heap = &heap;
                s.spawn(move || loop {
                    let chunk = next.fetch_add(65536, Ordering::Relaxed);
                    if chunk >= items.len() {
                        return;
                    }
                    for (j, &d) in items[chunk..(chunk + 65536).min(items.len())]
                        .iter()
                        .enumerate()
                    {
                        heap.lock().push((chunk + j) as u64, d);
                    }
                });
            }
        });
        heap.into_inner().into_sorted()
    });
    assert_eq!(
        merged.iter().map(|n| n.id).collect::<Vec<_>>(),
        shared.iter().map(|n| n.id).collect::<Vec<_>>(),
        "both strategies find the same top-k"
    );
    println!(
        "  per-thread heaps + merge: {:.1} ms",
        per_thread_time.as_secs_f64() * 1e3
    );
    println!(
        "  shared locked heap:       {:.1} ms",
        shared_time.as_secs_f64() * 1e3
    );
    println!(
        "-> contention-free per-thread heaps are {:.1}x faster\n",
        shared_time.as_secs_f64() / per_thread_time.as_secs_f64()
    );

    // ------------------------------------------------------------------
    println!("Ablation 5: scan workers, 1 vs 2 (fresh handles on one build)\n");
    let mut spec = table2_specs(1.0).swap_remove(2); // SIFT: 128-d, L2
    (spec.n_vectors, spec.n_queries) = (16_384, 64);
    let dataset = generate(&spec);
    let queries: Vec<Vec<f32>> = (0..64).map(|i| dataset.query(i).to_vec()).collect();
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("workers.mnn");
    let mut cfg = Config::new(spec.dim, spec.metric);
    cfg.store = DeviceProfile::Large.store_options(); // the file fits the pool
    let db = MicroNN::create(&path, cfg.clone()).unwrap();
    ingest(&db, &dataset);
    db.rebuild().unwrap();
    drop(db);
    // One pass over the queries per row: ANN at probes 8 / 32 / 128,
    // `exact`, then all of them as one batch.
    let rows = ["ANN 8", "ANN 32", "ANN 128", "exact", "batch 64"];
    let pass = |db: &MicroNN, row: usize| {
        if row == 4 {
            db.batch_search(&queries, 10, None).unwrap();
            return;
        }
        for q in &queries {
            let req = SearchRequest::new(q.clone(), 10).with_probes([8, 32, 128][row.min(2)]);
            match row {
                3 => db.exact(q, 10, None),
                _ => db.search_with(&req),
            }
            .unwrap();
        }
    };
    println!("query (probes)  1 worker ms  2 workers ms  change");
    for (row, name) in rows.iter().enumerate() {
        // ms per query: the best of 15 passes on a fresh handle.
        let [one, two] = [1, 2].map(|workers| {
            let mut cfg = cfg.clone();
            cfg.workers = workers;
            let db = MicroNN::open(&path, cfg).unwrap();
            let best = (0..15).map(|_| micronn_bench::time(|| pass(&db, row)).1);
            best.min().unwrap().as_secs_f64() * 1e3 / queries.len() as f64
        });
        let change = (two / one - 1.0) * 100.0;
        println!("{name:>14}  {one:>11.3}  {two:>12.3}  {change:>+5.0}%");
    }
    println!("-> on a 2-core box, a second worker pays off once a query scans enough rows");
}
