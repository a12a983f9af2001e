//! One benchmark run: inputs → build → rounds → verdict → metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use micronn::{MicroNN, SearchRequest};
use micronn_bench::TrackingAlloc;
use micronn_storage::StoreOptions;

use crate::build::{build, STAGE_REBUILD, STAGE_REOPEN};
use crate::inputs::{Inputs, Scale, BUILD_CHUNKS, K, ROW_USER_BYTES};
use crate::layers;
use crate::model::Checker;
use crate::quiet::{lower_quartile, percentile, Minima};
use crate::report::{verdict, Metrics, Mode, Outcome};
use crate::rounds::{
    Pass, Requests, Session, PHASE_BETWEEN, PHASE_COLD, PHASE_MAINTAIN, PHASE_READ, PHASE_WRITE,
};
use crate::trace::Recorder;
use crate::workload::Workload;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Rounds of the gated pass (from `--seconds`, see
    /// [`crate::report::rounds_for`]).
    pub rounds: usize,
    pub scale: Scale,
    pub mode: Mode,
}

/// A directory under `ledger/out`, removed when the run ends however
/// it ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and
        // never read again.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the end of a run establishes.
struct Closing {
    recall_at_10: f64,
    /// Main file plus WAL, after the last checkpoint.
    file_bytes: u64,
    live_rows: u64,
    reopened_clean: bool,
    /// Traced runs only.
    variants: Option<Variants>,
    checker: Checker,
}

/// Quiet `ann_ms` of the final state under fresh handles that each
/// differ from the run's configuration in one setting.
struct Variants {
    /// The run's configuration: 1 scan worker, no readahead worker.
    plain_ms: f64,
    workers2_ms: f64,
    readahead_ms: f64,
    /// Pages the readahead worker read, per query.
    prefetch_reads_per_query: f64,
}

/// Quiet `ann_ms` of a fresh handle: one warming pass, then `repeats`
/// measured ones.
fn fresh_ann_ms(db: &MicroNN, requests: &[SearchRequest], repeats: usize) -> f64 {
    let mut min = Minima::default();
    for rep in 0..=repeats {
        for (i, req) in requests.iter().enumerate() {
            let t0 = Instant::now();
            let _ = db.search_with(req);
            if rep > 0 {
                min.record(i, t0.elapsed().as_secs_f64());
            }
        }
    }
    min.mean() * 1e3
}

/// Recall against the model, file size, then reopen + integrity check.
fn close(
    mut s: Session<'_>,
    dir: &Path,
    variant_repeats: Option<usize>,
) -> Result<Closing, String> {
    let mut total = 0.0;
    for req in &s.requests.ann {
        match s.db.search_with(req) {
            Ok(resp) => {
                let truth: Vec<i64> = s
                    .model
                    .topk(&req.query, K, None)
                    .iter()
                    .map(|t| t.0)
                    .collect();
                let got: Vec<i64> = resp.results.iter().map(|r| r.asset_id).collect();
                total += micronn_datasets::recall(&got, &truth);
            }
            Err(e) => s.checker.note("recall", Err(e.to_string())),
        }
    }
    let recall_at_10 = total / s.requests.ann.len() as f64;

    // The last round ended on a checkpoint: main file + emptied WAL.
    let main = dir.join("db.mnn");
    let len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let file_bytes = len(&main) + len(&dir.join("db.mnn-wal"));

    drop(s.db);
    let open = |workers, readahead| {
        let mut cfg = s.workload.config(&s.scale, s.vfs.handle(), workers);
        if readahead {
            cfg.store.prefetch_queue_pages = StoreOptions::default().prefetch_queue_pages;
        }
        MicroNN::open(&main, cfg).map_err(|e| format!("final reopen: {e}"))
    };
    let mut variants = None;
    if let Some(repeats) = variant_repeats {
        let ann = &s.requests.ann;
        let workers2_ms = fresh_ann_ms(&open(2, false)?, ann, repeats);
        let ahead = open(1, true)?;
        let readahead_ms = fresh_ann_ms(&ahead, ann, repeats);
        let prefetch_reads = ahead.io_stats().prefetch_reads;
        drop(ahead);
        variants = Some(Variants {
            plain_ms: fresh_ann_ms(&open(1, false)?, ann, repeats),
            workers2_ms,
            readahead_ms,
            prefetch_reads_per_query: prefetch_reads as f64 / ((repeats + 1) * ann.len()) as f64,
        });
    }
    let reopened = open(1, false)?;
    let report = reopened
        .verify_integrity()
        .map_err(|e| format!("verify_integrity: {e}"))?;
    let rows = reopened.len().map_err(|e| format!("len: {e}"))?;
    let live_rows = s.model.len() as u64;
    let reopened_clean = report.is_clean() && rows == live_rows;
    if !reopened_clean {
        eprintln!("ledger: reopen not clean: {report}; {rows} rows, model has {live_rows}");
    }
    Ok(Closing {
        recall_at_10,
        file_bytes,
        live_rows,
        reopened_clean,
        variants,
        checker: s.checker,
    })
}

/// Folds one build's stage times into the per-stage minima.
fn record_stages(min: &mut Minima, secs: &[f64]) {
    for (i, s) in secs.iter().enumerate() {
        min.record(i, *s);
    }
}

/// Rounds of each of the traced run's two passes.
fn traced_rounds(rounds: usize) -> usize {
    (rounds / 3).max(2)
}

/// Runs the plan and returns its outcome.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let w = plan.workload;
    let scale = plan.scale;
    let script_rounds = match plan.mode {
        Mode::EndToEnd => plan.rounds,
        Mode::PerLayer => 2 * traced_rounds(plan.rounds),
    };
    let inputs = Inputs::generate(plan.seed, &scale, w.shape, script_rounds);
    let requests = Requests::new(&inputs, &scale);
    let model = inputs.base_model();
    let dir = RunDir(crate::scratch_dir(&format!("{}-{}", w.name, plan.seed)));
    let mkdir = |name: &str| -> Result<PathBuf, String> {
        let path = dir.0.join(name);
        std::fs::create_dir(&path).map_err(|e| format!("mkdir {}: {e}", path.display()))?;
        Ok(path)
    };

    // Everything the harness itself keeps live is allocated by now.
    let harness_live = TrackingAlloc::live();
    let kept = mkdir("kept")?;
    let built = build(w, &scale, &inputs, &kept)?;
    let mut stage_min = Minima::default();
    record_stages(&mut stage_min, &built.stage_secs);
    TrackingAlloc::reset_peak();
    let mut session = Session {
        workload: w,
        scale,
        inputs: &inputs,
        requests: &requests,
        db: built.db,
        vfs: built.vfs,
        model,
        checker: Checker::new(),
        recorder: None,
        peak_bytes: 0,
    };

    let (metrics, closing) = match plan.mode {
        Mode::EndToEnd => {
            // The other builds are spaced through the rounds, each into
            // a throwaway directory with its own VFS counters; the
            // round loop keeps them out of the memory peak.
            let extra = scale.builds.saturating_sub(1);
            let mut done = 0;
            let pass = session.run_pass(0, plan.rounds, |r| {
                while done < extra && (r + 1) * (extra + 1) >= (done + 1) * plan.rounds {
                    let scratch = mkdir(&format!("scratch{done}"))?;
                    let b = build(w, &scale, &inputs, &scratch)?;
                    record_stages(&mut stage_min, &b.stage_secs);
                    drop(b);
                    std::fs::remove_dir_all(&scratch).map_err(|e| format!("rm: {e}"))?;
                    done += 1;
                }
                Ok(())
            })?;
            let peak_bytes = session.peak_bytes;
            let closing = close(session, &kept, None)?;
            log_phases(plan, &pass, &stage_min);
            let peak = peak_bytes.saturating_sub(harness_live);
            let m = end_to_end_metrics(&scale, &pass, &closing, stage_min.sum(), peak);
            (m, closing)
        }
        Mode::PerLayer => {
            let n = traced_rounds(plan.rounds);
            let t0 = Instant::now();
            let _ = session.db.search_with(&requests.ann[0]);
            let first_query_secs = t0.elapsed().as_secs_f64();

            let untraced = session.run_pass(0, n, |_| Ok(()))?;
            let recorder = Recorder::new();
            session.db.set_trace_sink(Some(recorder.sink()));
            session.recorder = Some(recorder);
            let traced = session.run_pass(n, n, |_| Ok(()))?;
            session.db.set_trace_sink(None);
            let mut recorder = session.recorder.take().expect("installed above");

            let mut m = Metrics::new(Mode::PerLayer);
            let kernels = layers::measure(&mut m, &mut recorder, &session.db, &inputs, &dir.0)?;
            write_trace(plan, &recorder, n)?;
            let closing = close(session, &kept, Some(n))?;
            let v = closing.variants.as_ref().expect("asked for above");
            m.set("core.scan_workers2_speedup", v.plain_ms / v.workers2_ms);
            m.set("storage.readahead_speedup", v.plain_ms / v.readahead_ms);
            m.set(
                "storage.prefetch_reads_per_query",
                v.prefetch_reads_per_query,
            );
            m.set("storage.open_ms", stage_min.best(STAGE_REOPEN) * 1e3);
            m.set("core.open_first_query_ms", first_query_secs * 1e3);
            m.set("cluster.train_s", built.train_secs);
            m.set("core.rebuild_s", stage_min.best(STAGE_REBUILD));
            let ingest_secs: f64 = (1..=BUILD_CHUNKS).map(|i| stage_min.best(i)).sum();
            m.set(
                "core.bulk_ingest_rows_per_s",
                scale.rows as f64 / ingest_secs,
            );
            round_metrics(&mut m, &untraced, &traced, kernels.scan_ns_per_row(w.codec));
            (m, closing)
        }
    };

    let checker = &closing.checker;
    if let Some(why) = checker.first_failure() {
        eprintln!("ledger: first failed operation: {why}");
    }
    Ok(Outcome {
        correct: verdict(
            checker.failed(),
            closing.recall_at_10,
            closing.reopened_clean,
        ),
        attempted: checker.attempted(),
        failed: checker.failed(),
        metrics,
    })
}

/// Writes the spans out and prints the top of the self-time table.
fn write_trace(plan: &Plan, recorder: &Recorder, n: usize) -> Result<(), String> {
    let w = plan.workload;
    let trace_path = crate::out_root().join(format!("trace-{}.json", w.name));
    recorder
        .write_json(&trace_path, w.name, plan.seed)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    eprintln!(
        "ledger: {} seed {}: 2 x {n} rounds, {} spans -> {}",
        w.name,
        plan.seed,
        recorder.spans().len(),
        trace_path.display()
    );
    for (name, spans, total, own) in recorder.self_times().iter().take(12) {
        eprintln!(
            "ledger:   {name:<30} {spans:>7} spans, total {:>9.1} ms, self {:>9.1} ms",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    Ok(())
}

/// Where the run's time went, and how many repeats each kind of fixed
/// input got.
fn log_phases(plan: &Plan, pass: &Pass, stage_min: &Minima) {
    eprintln!(
        "ledger: {} seed {}: {} rounds in {:.1}s (read {:.1} of which queries {:.1}, cold+rewarm {:.1}, write {:.1}, maintain+checkpoint {:.1}, builds {:.1}); \
         repeats per input: query {}, cold {}, write slot {}, build stage {}",
        plan.workload.name,
        plan.seed,
        pass.maintain_secs.len(),
        pass.wall_secs,
        pass.phase_secs[PHASE_READ],
        pass.db_secs,
        pass.phase_secs[PHASE_COLD],
        pass.phase_secs[PHASE_WRITE],
        pass.phase_secs[PHASE_MAINTAIN],
        pass.phase_secs[PHASE_BETWEEN],
        pass.ann.min_repeats(),
        pass.cold.min_repeats(),
        pass.upsert.min_repeats(),
        stage_min.min_repeats(),
    );
}

/// The 14 gated metrics of one pass.
fn end_to_end_metrics(
    scale: &Scale,
    pass: &Pass,
    closing: &Closing,
    setup_secs: f64,
    peak_bytes: usize,
) -> Metrics {
    let mut m = Metrics::new(Mode::EndToEnd);
    m.set("setup_s", setup_secs);
    m.set("ann_ms", pass.ann_ms());
    m.set("postfilter_ms", pass.post.mean() * 1e3);
    m.set("prefilter_ms", pass.pre.mean() * 1e3);
    m.set(
        "batch_query_ms",
        pass.batch.mean() * 1e3 / scale.batch as f64,
    );
    m.set("cold_ms", pass.cold.mean() * 1e3);
    m.set("upsert_ms", pass.upsert.mean() * 1e3);
    // A round's write cost, part by part: every write slot at its
    // fastest repeat, plus a quiet maintenance call and checkpoint.
    let round_secs = pass.upsert.sum()
        + lower_quartile(&pass.maintain_secs)
        + lower_quartile(&pass.checkpoint_secs);
    let slice_rows = pass.rows_written as f64 / pass.maintain_secs.len() as f64;
    m.set("ingest_rows_per_s", slice_rows / round_secs);
    m.set("recall_at_10", closing.recall_at_10);
    let queries = pass.ann_pooled.len() as f64;
    m.set("scan_bytes_per_query", pass.ann_bytes as f64 / queries);
    m.set(
        "pages_per_query",
        (pass.ann_pool_hits + pass.ann_pool_misses) as f64 / queries,
    );
    m.set("peak_mem_mb", peak_bytes as f64 / (1u64 << 20) as f64);
    m.set(
        "space_amp",
        closing.file_bytes as f64 / (closing.live_rows * ROW_USER_BYTES) as f64,
    );
    m.set(
        "write_amp",
        pass.vfs.write_bytes() as f64 / pass.user_bytes as f64,
    );
    m
}

/// The per-layer metrics that come out of the rounds. Counts and
/// pooled percentiles are taken from the untraced pass, stage spans
/// from the traced one.
fn round_metrics(m: &mut Metrics, u: &Pass, traced: &Pass, kernel_ns_per_row: f64) {
    let queries = u.ann_pooled.len() as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.set(
        "storage.pool_hit_ratio",
        ratio(u.ann_pool_hits, u.ann_pool_hits + u.ann_pool_misses),
    );
    m.set(
        "storage.pool_evictions_per_query",
        u.ann_evictions as f64 / queries,
    );
    m.set(
        "storage.vfs_reads_per_query",
        u.ann_vfs.reads() as f64 / queries,
    );
    m.set(
        "storage.vfs_read_bytes_per_query",
        u.ann_vfs.read_bytes() as f64 / queries,
    );
    m.set("storage.wal_commit_us", traced.wal_commit.mean() * 1e6);
    m.set(
        "storage.wal_bytes_per_commit",
        ratio(u.write_vfs.wal.write_bytes, u.commits),
    );
    m.set(
        "storage.fsyncs_per_commit",
        ratio(u.write_vfs.syncs(), u.commits),
    );
    m.set(
        "storage.checkpoint_ms",
        lower_quartile(&u.checkpoint_secs) * 1e3,
    );
    m.set(
        "storage.checkpoint_pages",
        ratio(u.checkpoint_pages, u.checkpoint_secs.len() as u64),
    );
    m.set(
        "storage.vfs_write_bytes_per_row",
        ratio(u.vfs.write_bytes(), u.rows_written),
    );
    m.set(
        "storage.vfs_busy_share",
        u.vfs.busy_ns() as f64 * 1e-9 / u.wall_secs,
    );

    m.set("core.probe_select_us", traced.probe_select.mean() * 1e6);
    m.set("core.partition_scan_us", traced.partition_scan.mean() * 1e6);
    m.set("core.rerank_us", traced.rerank.mean() * 1e6);
    m.set("core.filter_join_us", traced.filter_join.mean() * 1e6);
    m.set(
        "core.span_coverage",
        ratio(traced.ann_stage_ns, traced.ann_wall_ns),
    );
    m.set("core.unspanned_us", traced.unspanned.mean() * 1e6);
    m.set(
        "core.scan_efficiency",
        u.ann_rows as f64 / queries * kernel_ns_per_row * 1e-9 / traced.partition_scan.mean(),
    );
    m.set(
        "core.rows_scanned_per_result",
        ratio(u.ann_rows, u.ann_results),
    );
    m.set(
        "core.partitions_per_query",
        u.ann_partitions as f64 / queries,
    );
    m.set("core.reranked_per_query", u.ann_reranked as f64 / queries);
    m.set(
        "core.filtered_out_share",
        ratio(u.post_filtered, u.post_filtered + u.post_scanned),
    );
    m.set(
        "core.optimizer_agreement",
        ratio(u.plan_agreed, u.plan_asked),
    );
    // Maintenance actions are rare per round: pool both passes.
    let both =
        |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> { f(u).iter().chain(f(traced)).copied().collect() };
    for (ms, count, secs) in [
        ("core.flush_ms", "core.flush_count", both(|p| &p.flush_secs)),
        ("core.split_ms", "core.split_count", both(|p| &p.split_secs)),
        ("core.merge_ms", "core.merge_count", both(|p| &p.merge_secs)),
        (
            "core.retrain_ms",
            "core.retrain_count",
            both(|p| &p.retrain_secs),
        ),
    ] {
        m.set(ms, lower_quartile(&secs) * 1e3);
        m.set(count, secs.len() as f64);
    }
    let delta: u64 = u.delta_at_read.iter().sum();
    m.set(
        "core.delta_rows_at_read",
        ratio(delta, u.delta_at_read.len() as u64),
    );
    m.set("core.ann_p50_ms", percentile(&u.ann_pooled, 50.0) * 1e3);
    m.set("core.ann_p99_ms", percentile(&u.ann_pooled, 99.0) * 1e3);
    m.set("core.ann_samples", u.ann_pooled.len() as f64);
    m.set(
        "core.upsert_p99_ms",
        percentile(&u.upsert_pooled, 99.0) * 1e3,
    );
    m.set("core.upsert_samples", u.upsert_pooled.len() as f64);
    m.set(
        "telemetry.trace_overhead_ratio",
        traced.ann_ms() / u.ann_ms(),
    );
}
