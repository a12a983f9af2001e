//! The round loop.
//!
//! Load shape: a closed loop driven by this one thread, with
//! `Config::workers = 1` and the store's readahead worker switched
//! off, so the process runs one thread. Work is fixed by round count,
//! so every count a run reports repeats exactly for a given seed.
//!
//! A round is: read pass (every query once as plain ANN, once as a
//! forced post-filter at 30 % selectivity, twice as a forced pre-filter
//! at 0.5 % and twice through `batch_search`) → write
//! slice (single-row commits; the same op type sits at the same slot
//! every round) → one timed maintenance call → one timed
//! `checkpoint()`. Every few rounds the read pass is followed by cold
//! probes (`purge_caches()` then one query) and an untimed re-warm
//! pass. The churn workload splits its write slice around the read
//! pass, so every query also scans a live delta.

use std::sync::Arc;
use std::time::Instant;

use micronn::{
    Expr, MaintenanceAction, MicroNN, PlanPreference, PlanUsed, SearchRequest, SearchResponse,
};
use micronn_bench::TrackingAlloc;

use crate::inputs::{
    record, user_bytes, Inputs, Scale, BUCKETS, BUCKET_ATTR, K, POST_FILTER_BELOW,
    PRE_FILTER_BELOW, PROBES,
};
use crate::model::{Asked, BucketBelow, Checker, Expect, Model, Op};
use crate::quiet::Minima;
use crate::trace::{self, Recorder};
use crate::vfs::{CountingVfs, VfsStats};
use crate::workload::Workload;

/// The three query classes of the read pass, as prepared requests.
pub struct Requests {
    pub ann: Vec<SearchRequest>,
    post: Vec<SearchRequest>,
    pre: Vec<SearchRequest>,
    batches: Vec<Vec<Vec<f32>>>,
    post_filter: Expr,
    pre_filter: Expr,
}

impl Requests {
    pub fn new(inputs: &Inputs, scale: &Scale) -> Requests {
        let post_filter = Expr::lt(BUCKET_ATTR, POST_FILTER_BELOW);
        let pre_filter = Expr::lt(BUCKET_ATTR, PRE_FILTER_BELOW);
        let class = |filter: Option<&Expr>, plan| -> Vec<SearchRequest> {
            // The filtered classes run on the first half of the queries:
            // a post-filter query costs over twice an ANN query, and the
            // run has a time budget.
            let n = if filter.is_some() {
                inputs.queries.len().div_ceil(2)
            } else {
                inputs.queries.len()
            };
            inputs.queries[..n]
                .iter()
                .map(|q| {
                    let req = SearchRequest::new(q.clone(), K)
                        .with_probes(PROBES)
                        .with_plan(plan);
                    match filter {
                        Some(f) => req.with_filter(f.clone()),
                        None => req,
                    }
                })
                .collect()
        };
        Requests {
            ann: class(None, PlanPreference::Auto),
            post: class(Some(&post_filter), PlanPreference::ForcePostFilter),
            pre: class(Some(&pre_filter), PlanPreference::ForcePreFilter),
            batches: inputs
                .queries
                .chunks(scale.batch)
                .map(<[_]>::to_vec)
                .collect(),
            post_filter,
            pre_filter,
        }
    }
}

/// Everything one pass over some rounds measured. Timings are seconds.
#[derive(Default)]
pub struct Pass {
    pub ann: Minima,
    pub post: Minima,
    pub pre: Minima,
    pub batch: Minima,
    pub cold: Minima,
    pub upsert: Minima,
    /// Every timed ANN call, in order: the pooled percentiles and the
    /// query count come from here.
    pub ann_pooled: Vec<f64>,
    pub upsert_pooled: Vec<f64>,
    /// Per round: the maintenance call.
    pub maintain_secs: Vec<f64>,
    // Counters over the timed ANN loops.
    pub ann_bytes: u64,
    pub ann_rows: u64,
    pub ann_partitions: u64,
    pub ann_reranked: u64,
    pub ann_results: u64,
    /// Page references of the timed ANN loops, split by outcome.
    pub ann_pool_hits: u64,
    pub ann_pool_misses: u64,
    pub ann_evictions: u64,
    pub ann_vfs: VfsStats,
    pub post_scanned: u64,
    pub post_filtered: u64,
    pub plan_agreed: u64,
    pub plan_asked: u64,
    // Stage spans per query; only a traced pass fills these.
    pub probe_select: Minima,
    pub partition_scan: Minima,
    pub rerank: Minima,
    pub filter_join: Minima,
    pub wal_commit: Minima,
    /// Per ANN query: harness wall clock minus the database's own
    /// `query` span, i.e. time no span of the database accounts for.
    pub unspanned: Minima,
    pub ann_stage_ns: u64,
    pub ann_wall_ns: u64,
    // Write side.
    pub commits: u64,
    pub write_vfs: VfsStats,
    pub rows_written: u64,
    pub user_bytes: u64,
    pub checkpoint_secs: Vec<f64>,
    pub checkpoint_pages: u64,
    pub flush_secs: Vec<f64>,
    pub split_secs: Vec<f64>,
    pub merge_secs: Vec<f64>,
    pub retrain_secs: Vec<f64>,
    pub delta_at_read: Vec<u64>,
    /// Whole-pass wall clock and VFS traffic.
    pub wall_secs: f64,
    pub vfs: VfsStats,
    /// Wall clock per phase, checks included: where a run's time goes.
    pub phase_secs: [f64; 5],
    /// Seconds inside timed read-pass calls (the rest of the read
    /// phase is the harness checking results).
    pub db_secs: f64,
}

pub const PHASE_READ: usize = 0;
pub const PHASE_COLD: usize = 1;
pub const PHASE_WRITE: usize = 2;
pub const PHASE_MAINTAIN: usize = 3;
/// Whatever `after_round` does: the spaced-out builds.
pub const PHASE_BETWEEN: usize = 4;

impl Pass {
    /// Mean per-query milliseconds of a query class's quiet estimate.
    pub fn ann_ms(&self) -> f64 {
        self.ann.mean() * 1e3
    }
}

/// The database under test plus everything needed to drive and check
/// it.
pub struct Session<'a> {
    pub workload: &'static Workload,
    pub scale: Scale,
    pub inputs: &'a Inputs,
    pub requests: &'a Requests,
    pub db: MicroNN,
    pub vfs: Arc<CountingVfs>,
    pub model: Model,
    pub checker: Checker,
    /// Installed for a traced pass; `None` means plain timing.
    pub recorder: Option<Recorder>,
    /// High-water mark of heap bytes over the rounds seen so far.
    pub peak_bytes: usize,
}

impl Session<'_> {
    /// Folds the allocator's current peak into the session's.
    fn fold_peak(&mut self) {
        self.peak_bytes = self.peak_bytes.max(TrackingAlloc::peak());
    }

    fn search(&mut self, req: &SearchRequest) -> (Result<SearchResponse, String>, trace::Call) {
        let db = &self.db;
        let (resp, call) = trace::call(&mut self.recorder, "core.search_with", || {
            db.search_with(req)
        });
        (resp.map_err(|e| e.to_string()), call)
    }

    /// One query class of the read pass.
    fn query_class(&mut self, pass: &mut Pass, class: Class) {
        let requests = self.requests;
        let (set, filter, expect) = match class {
            Class::Ann => (&requests.ann, None, Expect::Approximate),
            Class::Post => (
                &requests.post,
                Some(BucketBelow(POST_FILTER_BELOW)),
                Expect::Approximate,
            ),
            Class::Pre => (
                &requests.pre,
                Some(BucketBelow(PRE_FILTER_BELOW)),
                Expect::Exact,
            ),
        };
        let io0 = self.db.io_stats();
        let vfs0 = self.vfs.stats();
        for (i, req) in set.iter().enumerate() {
            let (resp, call) = self.search(req);
            let resp = match resp {
                Ok(r) => r,
                Err(e) => {
                    self.checker.note(class.name(), Err(e));
                    continue;
                }
            };
            let wanted = match class {
                Class::Ann => PlanUsed::Ann,
                Class::Post => PlanUsed::PostFilter,
                Class::Pre => PlanUsed::PreFilter,
            };
            if resp.info.plan != wanted {
                self.checker.note(
                    class.name(),
                    Err(format!("ran plan {}, asked for {wanted}", resp.info.plan)),
                );
            } else {
                let asked = Asked {
                    query: &req.query,
                    k: K,
                    filter,
                    expect,
                };
                self.checker
                    .check_query(class.name(), &self.model, &asked, &resp.results);
            }
            pass.db_secs += call.secs;
            match class {
                Class::Ann => {
                    pass.ann.record(i, call.secs);
                    pass.ann_pooled.push(call.secs);
                    pass.ann_bytes += resp.info.bytes_scanned as u64;
                    pass.ann_rows += resp.info.vectors_scanned as u64;
                    pass.ann_partitions += resp.info.partitions_scanned as u64;
                    pass.ann_reranked += resp.info.reranked as u64;
                    pass.ann_results += resp.results.len() as u64;
                    if !call.stages.is_empty() {
                        let stages =
                            ["probe_select", "partition_scan", "rerank"].map(|s| call.stage_ns(s));
                        pass.probe_select.record(i, stages[0] as f64 * 1e-9);
                        pass.partition_scan.record(i, stages[1] as f64 * 1e-9);
                        pass.rerank.record(i, stages[2] as f64 * 1e-9);
                        pass.ann_stage_ns += stages.iter().sum::<u64>();
                        pass.ann_wall_ns += (call.secs * 1e9) as u64;
                        let spanned = call.stage_ns("query") as f64 * 1e-9;
                        pass.unspanned.record(i, (call.secs - spanned).max(0.0));
                    }
                }
                Class::Post => {
                    pass.post.record(i, call.secs);
                    pass.post_scanned += resp.info.vectors_scanned as u64;
                    pass.post_filtered += resp.info.filtered_out as u64;
                    if !call.stages.is_empty() {
                        pass.filter_join
                            .record(i, call.stage_ns("filter_join") as f64 * 1e-9);
                    }
                }
                Class::Pre => pass.pre.record(i, call.secs),
            }
        }
        if class == Class::Ann {
            let io = self.db.io_stats().since(&io0);
            pass.ann_pool_hits += io.pool_hits;
            pass.ann_pool_misses += io.pool_misses;
            pass.ann_evictions += io.pool_evictions;
            pass.ann_vfs += self.vfs.stats().since(&vfs0);
        }
    }

    fn batches(&mut self, pass: &mut Pass) {
        let requests = self.requests;
        for (b, batch) in requests.batches.iter().enumerate() {
            let db = &self.db;
            let (resp, call) = trace::call(&mut self.recorder, "core.batch_search", || {
                db.batch_search(batch, K, Some(PROBES))
            });
            pass.batch.record(b, call.secs);
            pass.db_secs += call.secs;
            match resp {
                Ok(r) if r.results.len() == batch.len() => {
                    for (q, results) in batch.iter().zip(&r.results) {
                        self.checker
                            .check_query("batch", &self.model, &Asked::ann(q, K), results);
                    }
                }
                Ok(r) => self.checker.note(
                    "batch",
                    Err(format!(
                        "{} result lists for {} queries",
                        r.results.len(),
                        batch.len()
                    )),
                ),
                Err(e) => self.checker.note("batch", Err(e.to_string())),
            }
        }
    }

    /// The timed read pass.
    fn read_pass(&mut self, pass: &mut Pass) {
        let delta = self.db.delta_len().unwrap_or(u64::MAX);
        pass.delta_at_read.push(delta);
        // Would `Auto` have picked the plans this pass forces?
        for (filter, forced) in [
            (&self.requests.post_filter, PlanUsed::PostFilter),
            (&self.requests.pre_filter, PlanUsed::PreFilter),
        ] {
            pass.plan_asked += 1;
            if self.db.explain_plan(filter, Some(PROBES)).ok() == Some(forced) {
                pass.plan_agreed += 1;
            }
        }
        for class in [Class::Ann, Class::Post] {
            self.query_class(pass, class);
        }
        // The two cheapest classes run twice: the pre-filter's point
        // lookups and the 64-query batches (only four inputs, each
        // long) were the noisiest timings at one repeat per round.
        for _ in 0..2 {
            self.query_class(pass, Class::Pre);
            self.batches(pass);
        }
    }

    /// Untimed re-warm after cold probes: brings back into the pool
    /// every page a read pass touches, for a fraction of its cost. The
    /// ANN queries cover the probed partitions' scan pages and the
    /// centroid and quantizer caches; one exhaustive scan filtered on
    /// a predicate every row passes touches every full-precision
    /// vector and every attribute row; one pre-filter query touches
    /// the index range all pre-filter queries share.
    fn rewarm(&mut self) {
        let requests = self.requests;
        for req in &requests.ann {
            let _ = self.db.search_with(req);
        }
        let every_row = Expr::lt(BUCKET_ATTR, BUCKETS);
        let _ = self.db.exact(&requests.ann[0].query, K, Some(&every_row));
        let _ = self.db.search_with(&requests.pre[0]);
    }

    /// `purge_caches()` then one query, for the first few queries.
    fn cold_probes(&mut self, pass: &mut Pass) {
        let requests = self.requests;
        let scale = self.scale;
        for _ in 0..scale.cold_repeats {
            for (i, req) in requests.ann[..scale.cold_queries].iter().enumerate() {
                let db = &self.db;
                trace::call(&mut self.recorder, "core.purge_caches", || {
                    db.purge_caches()
                });
                let (resp, call) = self.search(req);
                pass.cold.record(i, call.secs);
                match resp {
                    Ok(r) => self.checker.check_query(
                        "cold",
                        &self.model,
                        &Asked::ann(&req.query, K),
                        &r.results,
                    ),
                    Err(e) => self.checker.note("cold", Err(e)),
                }
            }
        }
    }

    /// Applies `ops` (slots `first_slot..`) as single-row commits.
    fn write_slice(&mut self, pass: &mut Pass, ops: &[Op], first_slot: usize) {
        let io0 = self.db.io_stats();
        let vfs0 = self.vfs.stats();
        for (i, op) in ops.iter().enumerate() {
            let slot = first_slot + i;
            let db = &self.db;
            let (outcome, call) = match op {
                Op::Upsert { .. } => {
                    let rec = record(op);
                    trace::call(&mut self.recorder, "core.upsert", || {
                        db.upsert(rec).map_err(|e| e.to_string())
                    })
                }
                Op::Delete { id } => {
                    trace::call(&mut self.recorder, "core.delete", || match db.delete(*id) {
                        Ok(true) => Ok(()),
                        Ok(false) => Err(format!("id {id} was not there to delete")),
                        Err(e) => Err(e.to_string()),
                    })
                }
            };
            self.checker.note("write", outcome);
            self.model.apply(op);
            pass.upsert.record(slot, call.secs);
            pass.upsert_pooled.push(call.secs);
            if !call.stages.is_empty() {
                pass.wal_commit
                    .record(slot, call.stage_ns("wal_group_commit") as f64 * 1e-9);
            }
            pass.rows_written += 1;
            pass.user_bytes += user_bytes(op);
        }
        pass.commits += self.db.io_stats().since(&io0).commits;
        pass.write_vfs += self.vfs.stats().since(&vfs0);
    }

    /// The round's one maintenance call.
    fn maintain(&mut self, pass: &mut Pass) {
        let db = &self.db;
        let secs = if self.workload.churns() {
            let (report, call) = trace::call(&mut self.recorder, "core.maybe_maintain", || {
                db.maybe_maintain()
            });
            match report {
                Ok(report) => {
                    for action in &report.actions {
                        match action {
                            MaintenanceAction::Flushed(r) => {
                                pass.flush_secs.push(r.total_time.as_secs_f64())
                            }
                            MaintenanceAction::Split(r) => {
                                pass.split_secs.push(r.total_time.as_secs_f64())
                            }
                            MaintenanceAction::Merged(r) => {
                                pass.merge_secs.push(r.total_time.as_secs_f64())
                            }
                            MaintenanceAction::Retrained(r) => {
                                pass.retrain_secs.push(r.total_time.as_secs_f64())
                            }
                            MaintenanceAction::Rebuilt(_) => {}
                        }
                    }
                    let ok = if report.flushes() == 0 {
                        Err("a round's writes did not trigger a flush".to_string())
                    } else {
                        Ok(())
                    };
                    self.checker.note("maintain", ok);
                }
                Err(e) => self.checker.note("maintain", Err(e.to_string())),
            }
            call.secs
        } else {
            let (report, call) =
                trace::call(&mut self.recorder, "core.flush_delta", || db.flush_delta());
            let outcome = match report {
                Ok(r) => {
                    pass.flush_secs.push(r.total_time.as_secs_f64());
                    match db.delta_len() {
                        Ok(0) => Ok(()),
                        Ok(n) => Err(format!("{n} rows left in the delta after a flush")),
                        Err(e) => Err(e.to_string()),
                    }
                }
                Err(e) => Err(e.to_string()),
            };
            self.checker.note("maintain", outcome);
            call.secs
        };
        pass.maintain_secs.push(secs);
    }

    /// Traced passes of quantized codecs also time one range retrain
    /// per round, so `core.retrain_ms` has something behind it.
    fn retrain_probe(&mut self, pass: &mut Pass) {
        if self.recorder.is_none() || !self.workload.codec.is_quantized() {
            return;
        }
        let Some(&(pid, _)) = self
            .db
            .partition_sizes()
            .ok()
            .as_ref()
            .and_then(|s| s.first())
        else {
            return;
        };
        let db = &self.db;
        let (report, _) = trace::call(&mut self.recorder, "core.retrain_partition", || {
            db.retrain_partition(pid)
        });
        match report {
            Ok(r) => {
                pass.retrain_secs.push(r.total_time.as_secs_f64());
                self.checker.note("retrain", Ok(()));
            }
            Err(e) => self.checker.note("retrain", Err(e.to_string())),
        }
    }

    fn checkpoint(&mut self, pass: &mut Pass) {
        let io0 = self.db.io_stats();
        let db = &self.db;
        let (done, call) = trace::call(&mut self.recorder, "core.checkpoint", || db.checkpoint());
        let outcome = match done {
            Ok(true) => Ok(()),
            Ok(false) => Err("checkpoint skipped with committed frames in the WAL".to_string()),
            Err(e) => Err(e.to_string()),
        };
        self.checker.note("checkpoint", outcome);
        pass.checkpoint_secs.push(call.secs);
        pass.checkpoint_pages += self.db.io_stats().since(&io0).main_writes;
    }

    /// Runs rounds `first..first + rounds`; `after_round` runs between
    /// rounds with the allocator peak already folded.
    pub fn run_pass(
        &mut self,
        first: usize,
        rounds: usize,
        mut after_round: impl FnMut(usize) -> Result<(), String>,
    ) -> Result<Pass, String> {
        let churn = self.workload.churns();
        let scale = self.scale;
        let inputs = self.inputs;
        let slots = inputs.script[first].len();
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let vfs0 = self.vfs.stats();
        for r in 0..rounds {
            let ops = &inputs.script[first + r];
            // Churn reads run mid-slice, over a live delta.
            let split = if churn { slots / 2 } else { 0 };
            let mut lap = Instant::now();
            let mut phase = |pass: &mut Pass, which: usize| {
                pass.phase_secs[which] += lap.elapsed().as_secs_f64();
                lap = Instant::now();
            };
            self.write_slice(&mut pass, &ops[..split], 0);
            phase(&mut pass, PHASE_WRITE);
            self.read_pass(&mut pass);
            phase(&mut pass, PHASE_READ);
            if (r + 1) % scale.cold_every == 0 {
                self.cold_probes(&mut pass);
                self.rewarm();
                phase(&mut pass, PHASE_COLD);
            }
            self.write_slice(&mut pass, &ops[split..], split);
            phase(&mut pass, PHASE_WRITE);
            self.maintain(&mut pass);
            self.retrain_probe(&mut pass);
            self.checkpoint(&mut pass);
            phase(&mut pass, PHASE_MAINTAIN);
            self.fold_peak();
            after_round(r)?;
            TrackingAlloc::reset_peak();
            phase(&mut pass, PHASE_BETWEEN);
        }
        pass.wall_secs = t0.elapsed().as_secs_f64();
        pass.vfs = self.vfs.stats().since(&vfs0);
        Ok(pass)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Ann,
    Post,
    Pre,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Ann => "ann",
            Class::Post => "postfilter",
            Class::Pre => "prefilter",
        }
    }
}
