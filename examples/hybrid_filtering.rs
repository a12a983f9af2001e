//! Hybrid query optimizer walkthrough: how pre-filtering,
//! post-filtering, and the optimizer behave across predicate
//! selectivities (a miniature of the paper's Figure 7).
//!
//! ```sh
//! cargo run --release --example hybrid_filtering
//! ```

use micronn::{
    AttributeDef, Config, Expr, MicroNN, PlanPreference, SearchRequest, SyncMode, VectorRecord,
};
use micronn_datasets::filtered_tags;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("micronn-hybrid-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;

    // Tagged corpus with Zipfian tag frequencies (stand-in for the
    // Big-ANN Filtered Search track; see `micronn_datasets::tags`).
    println!("generating tagged corpus...");
    let workload = filtered_tags(20_000, 64, 300, 6, 5, 0xF17);

    let mut config = Config::new(workload.dim, workload.metric);
    config.store.sync = SyncMode::Off;
    config.default_probes = 8;
    config.attributes = vec![AttributeDef::full_text("tags")];
    let db = MicroNN::create(dir.join("tagged.mnn"), config)?;
    let records: Vec<VectorRecord> = workload
        .assets
        .iter()
        .map(|a| VectorRecord::new(a.asset_id, a.vector.clone()).with_attr("tags", a.tags.clone()))
        .collect();
    for chunk in records.chunks(2000) {
        db.upsert_batch(chunk)?;
    }
    db.rebuild()?;

    println!(
        "\n{:>12} {:>12} {:>10} | {:>9} {:>9} {:>9} | {:>9} {:>9}",
        "selectivity",
        "plan chosen",
        "est.F",
        "pre(ms)",
        "post(ms)",
        "opt(ms)",
        "pre.rec",
        "post.rec"
    );
    for bin in workload.bins.iter() {
        let Some(q) = bin.first() else { continue };
        let filter = q
            .tags
            .iter()
            .skip(1)
            .fold(Expr::matches("tags", q.tags[0].clone()), |acc, t| {
                acc.and(Expr::matches("tags", t.clone()))
            });

        // Ground truth within the filter.
        let truth = db.exact(&q.vector, 100, Some(&filter))?;
        let truth_ids: std::collections::HashSet<i64> =
            truth.results.iter().map(|r| r.asset_id).collect();
        let recall = |resp: &micronn::SearchResponse| {
            if truth_ids.is_empty() {
                return 1.0;
            }
            resp.results
                .iter()
                .filter(|r| truth_ids.contains(&r.asset_id))
                .count() as f64
                / truth_ids.len() as f64
        };

        let run = |plan: PlanPreference| -> Result<(f64, micronn::SearchResponse), micronn::Error> {
            let t = std::time::Instant::now();
            let resp = db.search_with(
                &SearchRequest::new(q.vector.clone(), 100)
                    .with_filter(filter.clone())
                    .with_plan(plan),
            )?;
            Ok((t.elapsed().as_secs_f64() * 1e3, resp))
        };
        let (pre_ms, pre) = run(PlanPreference::ForcePreFilter)?;
        let (post_ms, post) = run(PlanPreference::ForcePostFilter)?;
        let (opt_ms, opt) = run(PlanPreference::Auto)?;
        let est = db.estimate_filter_selectivity(&filter)?;
        println!(
            "{:>12.2e} {:>12} {:>10.2e} | {:>9.2} {:>9.2} {:>9.2} | {:>9.2} {:>9.2}",
            q.selectivity,
            opt.info.plan.to_string(),
            est,
            pre_ms,
            post_ms,
            opt_ms,
            recall(&pre),
            recall(&post),
        );
    }

    println!("\npre-filtering always reaches recall 1.0; post-filtering is fast but");
    println!("starves on selective predicates; the optimizer switches between them");
    println!("at F_IVF = n*t/|R| (Eq. 2 of the paper).");

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
