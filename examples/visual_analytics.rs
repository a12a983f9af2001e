//! Visual analytics (Example 2 of the paper): batch related-item
//! grouping over an asset collection.
//!
//! A background analytics job processes *many* target assets at once to
//! build topically-related groups. The batch multi-query optimizer
//! shares partition scans across the whole batch (one disk pass per
//! partition, each row decoded once and scored for every query of its
//! group), which is where the paper's ≥30% amortized latency cut at
//! batch 512 comes from.
//!
//! ```sh
//! cargo run --release --example visual_analytics
//! ```

use micronn::{Config, Metric, MicroNN, SyncMode, VectorRecord};
use micronn_datasets::{generate, DatasetSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("micronn-analytics-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;

    // A scaled-down InternalA-like corpus (512-d cosine).
    let spec = DatasetSpec {
        name: "analytics",
        dim: 512,
        n_vectors: 12_000,
        n_queries: 512,
        metric: Metric::Cosine,
        clusters: 40,
        spread: 0.13,
        seed: 0xBEEF,
    };
    println!("generating {} x {}-d corpus...", spec.n_vectors, spec.dim);
    let data = generate(&spec);

    let mut config = Config::new(spec.dim, spec.metric);
    config.store.sync = SyncMode::Off;
    config.target_partition_size = 100;
    config.default_probes = 8;
    let db = MicroNN::create(dir.join("assets.mnn"), config)?;
    let records: Vec<VectorRecord> = (0..data.len())
        .map(|i| VectorRecord::new(i as i64, data.vector(i).to_vec()))
        .collect();
    for chunk in records.chunks(2000) {
        db.upsert_batch(chunk)?;
    }
    let report = db.rebuild()?;
    println!(
        "index: {} partitions in {:?}\n",
        report.partitions, report.total_time
    );

    // The analytics job: find the 20 nearest assets for 512 targets.
    let targets: Vec<Vec<f32>> = (0..spec.n_queries)
        .map(|i| data.query(i).to_vec())
        .collect();

    println!("batch sizes vs amortized per-query latency (k=20, n=8):");
    println!(
        "{:>10} {:>14} {:>16} {:>12}",
        "batch", "total (ms)", "per query (ms)", "speedup"
    );
    let mut sequential_per_query = 0.0f64;
    for &batch_size in &[1usize, 32, 128, 512] {
        let batch = &targets[..batch_size];
        let t = std::time::Instant::now();
        let response = db.batch_search(batch, 20, None)?;
        let total = t.elapsed().as_secs_f64() * 1e3;
        let per_query = total / batch_size as f64;
        if batch_size == 1 {
            sequential_per_query = per_query;
        }
        println!(
            "{:>10} {:>14.2} {:>16.3} {:>11.2}x",
            batch_size,
            total,
            per_query,
            sequential_per_query / per_query
        );
        assert_eq!(response.results.len(), batch_size);
    }

    // Build the topical groups from the batch results.
    let t = std::time::Instant::now();
    let response = db.batch_search(&targets, 20, None)?;
    println!(
        "\nfull batch of {} targets in {:?} ({} partitions scanned once, {} distance computations)",
        targets.len(),
        t.elapsed(),
        response.partitions_scanned,
        response.distance_computations
    );

    // Union-find style grouping: targets sharing ≥ 5 of their top-20
    // related assets are considered one topical group.
    let mut group_of: Vec<usize> = (0..targets.len()).collect();
    fn find(g: &mut Vec<usize>, i: usize) -> usize {
        if g[i] != i {
            let root = find(g, g[i]);
            g[i] = root;
        }
        g[i]
    }
    let sets: Vec<std::collections::HashSet<i64>> = response
        .results
        .iter()
        .map(|rs| rs.iter().map(|r| r.asset_id).collect())
        .collect();
    for i in 0..targets.len() {
        for j in (i + 1)..targets.len() {
            if sets[i].intersection(&sets[j]).count() >= 5 {
                let (a, b) = (find(&mut group_of, i), find(&mut group_of, j));
                if a != b {
                    group_of[a] = b;
                }
            }
        }
    }
    let mut group_sizes = std::collections::HashMap::new();
    for i in 0..targets.len() {
        *group_sizes.entry(find(&mut group_of, i)).or_insert(0usize) += 1;
    }
    let mut sizes: Vec<usize> = group_sizes.values().copied().collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "built {} topical groups; largest: {:?}",
        sizes.len(),
        &sizes[..sizes.len().min(8)]
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
