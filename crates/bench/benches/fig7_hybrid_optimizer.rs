//! Figure 7: effectiveness of the hybrid query optimizer (§4.3.1).
//!
//! Queries over a tagged corpus (Big-ANN Filtered Search stand-in) are
//! binned by true predicate selectivity decade; each bin runs under the
//! pre-filtering, post-filtering, and optimizer strategies, reporting
//! average latency (7a) and recall@100 (7b).
//!
//! Expected shape (paper): post-filtering an order of magnitude faster
//! but with collapsed recall on selective predicates; pre-filtering
//! 100% recall with latency growing with the qualifying count; the
//! optimizer tracking the better of the two on both axes.

use micronn::{AttributeDef, Config, Expr, MicroNN, PlanPreference, SearchRequest, VectorRecord};
use micronn_bench::{mean_std, DeviceProfile};
use micronn_datasets::filtered_tags;

#[global_allocator]
static ALLOC: micronn_bench::TrackingAlloc = micronn_bench::TrackingAlloc;

const K: usize = 100;

fn main() {
    // The paper uses n=40 probes and an average partition size of 500
    // on 10M vectors; scaled down proportionally here.
    let n_assets: usize = std::env::var("MICRONN_BENCH_MAX_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30_000);
    let per_bin = 10; // the paper samples 10 queries per decade bin
    println!("Figure 7: hybrid optimizer on {n_assets} tagged vectors\n");
    let workload = filtered_tags(n_assets, 64, 400, per_bin, 6, 0xF17);

    let dir = tempfile::tempdir().unwrap();
    let mut cfg = Config::new(workload.dim, workload.metric);
    cfg.store = DeviceProfile::Large.store_options();
    cfg.target_partition_size = 100;
    // Paper setting scaled: n=40 probes over ~20k partitions of size
    // 500 becomes ~24 probes over ~300 partitions of size 100 here.
    cfg.default_probes = 24;
    cfg.attributes = vec![AttributeDef::full_text("tags")];
    let db = MicroNN::create(dir.path().join("tags.mnn"), cfg).unwrap();
    let records: Vec<VectorRecord> = workload
        .assets
        .iter()
        .map(|a| VectorRecord::new(a.asset_id, a.vector.clone()).with_attr("tags", a.tags.clone()))
        .collect();
    for chunk in records.chunks(2000) {
        db.upsert_batch(chunk).unwrap();
    }
    db.rebuild().unwrap();

    let widths = [12usize, 6, 11, 11, 11, 9, 9, 9, 12];
    micronn_bench::print_header(
        &[
            "selectivity",
            "qs",
            "pre ms",
            "post ms",
            "opt ms",
            "pre rec",
            "post rec",
            "opt rec",
            "plans chosen",
        ],
        &widths,
    );

    for (decade, bin) in workload.bins.iter().enumerate() {
        if bin.is_empty() {
            continue;
        }
        let mut lat = [Vec::new(), Vec::new(), Vec::new()];
        let mut rec = [Vec::new(), Vec::new(), Vec::new()];
        let mut pre_chosen = 0usize;
        for q in bin {
            let filter = q
                .tags
                .iter()
                .skip(1)
                .fold(Expr::matches("tags", q.tags[0].clone()), |acc, t| {
                    acc.and(Expr::matches("tags", t.clone()))
                });
            let truth = db.exact(&q.vector, K, Some(&filter)).unwrap();
            let truth_ids: std::collections::HashSet<i64> =
                truth.results.iter().map(|r| r.asset_id).collect();
            for (slot, plan) in [
                PlanPreference::ForcePreFilter,
                PlanPreference::ForcePostFilter,
                PlanPreference::Auto,
            ]
            .into_iter()
            .enumerate()
            {
                let (resp, d) = micronn_bench::time(|| {
                    db.search_with(
                        &SearchRequest::new(q.vector.clone(), K)
                            .with_filter(filter.clone())
                            .with_plan(plan),
                    )
                    .unwrap()
                });
                lat[slot].push(d.as_secs_f64() * 1e3);
                let r = if truth_ids.is_empty() {
                    1.0
                } else {
                    resp.results
                        .iter()
                        .filter(|h| truth_ids.contains(&h.asset_id))
                        .count() as f64
                        / truth_ids.len() as f64
                };
                rec[slot].push(r);
                if plan == PlanPreference::Auto && resp.info.plan == micronn::PlanUsed::PreFilter {
                    pre_chosen += 1;
                }
            }
        }
        let sel_label = format!("1e-{}", decade + 1);
        let (pre_ms, _) = mean_std(&lat[0]);
        let (post_ms, _) = mean_std(&lat[1]);
        let (opt_ms, _) = mean_std(&lat[2]);
        let (pre_r, _) = mean_std(&rec[0]);
        let (post_r, _) = mean_std(&rec[1]);
        let (opt_r, _) = mean_std(&rec[2]);
        micronn_bench::print_row(
            &[
                sel_label,
                bin.len().to_string(),
                format!("{pre_ms:.2}"),
                format!("{post_ms:.2}"),
                format!("{opt_ms:.2}"),
                format!("{pre_r:.2}"),
                format!("{post_r:.2}"),
                format!("{opt_r:.2}"),
                format!("{}pre/{}post", pre_chosen, bin.len() - pre_chosen),
            ],
            &widths,
        );
        // Invariants from the paper's analysis.
        assert!(
            (pre_r - 1.0).abs() < 1e-9,
            "pre-filtering must reach 100% recall"
        );
        assert!(
            opt_r >= post_r - 1e-9,
            "optimizer recall must not fall below post-filtering"
        );
    }
    println!("\nexpected shape (paper Fig.7): pre slower but recall 1.0; post fast but recall");
    println!("collapses at high selectivity; optimizer switches plans near F_IVF = n*t/|R|");
}
