//! Hybrid queries: vector similarity search with structured attribute
//! filters (§3.5), and the selectivity-based query optimizer (§3.5.1).
//!
//! Two physical plans exist:
//!
//! * **Pre-filtering** evaluates the predicate first (through attribute
//!   b-tree indexes / the FTS index when possible) and brute-forces the
//!   qualifying vectors — 100% recall, latency proportional to the
//!   qualifying set.
//! * **Post-filtering** runs the ANN scan with the predicate applied
//!   to the partitions' rows — fast, but recall suffers when the
//!   predicate is highly selective. The join is score-first: a wave of
//!   partitions is scored without a single probe, then
//!   `AttrProbe::join` takes the wave's rows nearest first and probes
//!   each until the result heap is full and rejects the next row. It
//!   probes exactly the rows ranked up to the `k`-th passing one, and
//!   returns the filter-first answer (top-k over the passing rows is
//!   unique under the `(distance, id)` order; every unprobed row has
//!   `k` passing rows ahead of it).
//!
//! The optimizer compares the estimated filter selectivity `F̂_filters`
//! (Eq. 3, from per-column histograms and FTS document frequencies)
//! against the IVF scan's own "selectivity" `F̂_IVF = n·t/|R|` (Eq. 2)
//! and picks pre-filtering iff `F̂_filters < F̂_IVF`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use micronn_linalg::{Neighbor, TopK};
use micronn_rel::{
    estimate_selectivity, CmpOp, Compiled, EncodedRow, Expr, RowReader, Table, Value,
};
use micronn_storage::ReadTxn;

use crate::db::{Inner, MicroNN};
use crate::error::{Error, Result};
use crate::exec::{score_candidates, Payload, ScanMetrics, ScanTotals};
use crate::search::{ivf_search, SearchResponse, SearchResult};
use crate::snapshot::Snapshot;
use crate::stats::{PlanUsed, QueryInfo};
use crate::telemetry::{stage, QueryTrace};

/// Attribute-filter context of a hybrid query: `compiled` is evaluated
/// against rows of `attrs`, through one [`AttrProbe`] per query.
pub(crate) struct FilterCtx<'a> {
    pub attrs: &'a Table,
    pub compiled: Compiled,
}

impl FilterCtx<'_> {
    /// A prober at snapshot `r` for one query's worth of lookups.
    pub fn probe<'a>(&'a self, r: &'a ReadTxn) -> AttrProbe<'a> {
        AttrProbe {
            rows: self.attrs.reader(r),
            compiled: &self.compiled,
        }
    }
}

/// Evaluates a filter on attribute rows fetched by asset id: a pinning
/// point reader plus in-place evaluation on the encoded row, so a probe
/// is one leaf fetch and no allocation.
pub(crate) struct AttrProbe<'a> {
    rows: RowReader<'a, ReadTxn>,
    compiled: &'a Compiled,
}

impl AttrProbe<'_> {
    /// Whether `asset`'s attributes satisfy the predicate (a missing
    /// attributes row never matches).
    pub fn passes(&mut self, asset: i64) -> Result<bool> {
        let compiled = self.compiled;
        let hit = self.rows.get_with(&[Value::Integer(asset)], |row| {
            EncodedRow::new(row).map(|row| compiled.eval_columns(&row))
        })?;
        Ok(hit.transpose()?.unwrap_or(false))
    }

    /// The join half of a filtered scan (§3.5): takes one wave's scored
    /// rows nearest first under the `(distance, id)` order, probing each
    /// and pushing the passing ones into `top`, and stops at the first
    /// row `top` rejects — every later row would be rejected too. In
    /// ascending order no row pushed here is evicted by a later one, so
    /// only rows ranked ahead of the `top.k()`-th passing row are probed.
    /// The order comes from one heapify and a pop per probe: the join
    /// usually stops long before the wave's end, where a sort would not.
    pub fn join<P: Payload>(
        &mut self,
        rows: impl IntoIterator<Item = Neighbor<P>>,
        top: &mut TopK<P>,
        tally: &mut ScanTotals,
    ) -> Result<()> {
        let mut rows: BinaryHeap<Reverse<Neighbor<P>>> = rows.into_iter().map(Reverse).collect();
        while let Some(Reverse(n)) = rows.pop() {
            if !top.accepts(n.id, n.distance) {
                break;
            }
            tally.candidates += 1;
            if self.passes(n.id as i64)? {
                top.push_with(n.id, n.distance, n.payload);
            } else {
                tally.filtered_out += 1;
            }
        }
        Ok(())
    }
}

/// Plan preference for hybrid queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanPreference {
    /// Let the optimizer choose (the paper's default behaviour).
    #[default]
    Auto,
    /// Always pre-filter.
    ForcePreFilter,
    /// Always post-filter.
    ForcePostFilter,
}

/// A full search request.
#[derive(Debug, Clone)]
pub struct SearchRequest {
    /// The query embedding.
    pub query: Vec<f32>,
    /// Number of neighbours to return.
    pub k: usize,
    /// Partitions to probe (`None` = the index default).
    pub probes: Option<usize>,
    /// Optional attribute filter.
    pub filter: Option<Expr>,
    /// Plan preference (benchmarks force plans; applications use Auto).
    pub plan: PlanPreference,
}

impl SearchRequest {
    /// A plain ANN request.
    pub fn new(query: Vec<f32>, k: usize) -> SearchRequest {
        SearchRequest {
            query,
            k,
            probes: None,
            filter: None,
            plan: PlanPreference::Auto,
        }
    }

    /// Sets the number of partitions to probe.
    pub fn with_probes(mut self, probes: usize) -> SearchRequest {
        self.probes = Some(probes);
        self
    }

    /// Adds an attribute filter.
    pub fn with_filter(mut self, filter: Expr) -> SearchRequest {
        self.filter = Some(filter);
        self
    }

    /// Forces a plan.
    pub fn with_plan(mut self, plan: PlanPreference) -> SearchRequest {
        self.plan = plan;
        self
    }
}

impl MicroNN {
    /// The plan the optimizer would choose for `filter` at `probes`
    /// partitions (exposed for inspection and benchmarks).
    pub fn explain_plan(&self, filter: &Expr, probes: Option<usize>) -> Result<PlanUsed> {
        let inner = &*self.inner;
        let r = inner.db.begin_read();
        choose_plan(
            inner,
            &r,
            filter,
            probes.unwrap_or(inner.cfg.default_probes),
        )
    }

    /// The optimizer's current selectivity estimate for `filter`
    /// (Eq. 3).
    pub fn estimate_filter_selectivity(&self, filter: &Expr) -> Result<f64> {
        let inner = &*self.inner;
        let r = inner.db.begin_read();
        let stats = inner.table_stats(&r)?;
        Ok(estimate_selectivity(
            &r,
            inner.tables.attrs(),
            &stats,
            filter,
        ))
    }
}

/// Compiles `expr` against the attributes table.
fn filter_ctx<'a>(inner: &'a Inner, expr: &Expr) -> Result<FilterCtx<'a>> {
    let attrs = inner.tables.attrs();
    Ok(FilterCtx {
        attrs,
        compiled: expr.compile(attrs.schema()).map_err(Error::Rel)?,
    })
}

impl Snapshot {
    /// [`MicroNN::search_with`] at this snapshot: every page read,
    /// cache lookup, and plan decision resolves at its commit seq, so
    /// the query sees one consistent index no matter what commits
    /// underneath it.
    pub fn search_with(&self, req: &SearchRequest) -> Result<SearchResponse> {
        let (inner, r) = (&*self.db.inner, &self.r);
        let mut trace = QueryTrace::new(inner.tel.detailed());
        let probes = req.probes.unwrap_or(inner.cfg.default_probes);
        let plan = match (&req.filter, req.plan) {
            (None, _) => PlanUsed::Ann,
            (Some(_), PlanPreference::ForcePreFilter) => PlanUsed::PreFilter,
            (Some(_), PlanPreference::ForcePostFilter) => PlanUsed::PostFilter,
            (Some(expr), PlanPreference::Auto) => choose_plan(inner, r, expr, probes)?,
        };
        let resp = match (&req.filter, plan) {
            (Some(expr), PlanUsed::PreFilter) => {
                pre_filter_search(inner, r, req, expr, &mut trace)?
            }
            (filter, plan) => {
                let ctx = filter.as_ref().map(|expr| filter_ctx(inner, expr));
                let ctx = ctx.transpose()?;
                ivf_search(
                    inner,
                    r,
                    &req.query,
                    req.k,
                    Some(probes),
                    ctx.as_ref(),
                    plan,
                    &mut trace,
                )?
            }
        };
        inner.tel.finish(&trace, &resp.info, req.k, None);
        Ok(resp)
    }

    /// [`MicroNN::exact`] at this snapshot.
    pub fn exact(&self, query: &[f32], k: usize, filter: Option<&Expr>) -> Result<SearchResponse> {
        let (inner, r) = (&*self.db.inner, &self.r);
        let mut trace = QueryTrace::new(inner.tel.detailed());
        let ctx = filter.map(|expr| filter_ctx(inner, expr)).transpose()?;
        let ctx = ctx.as_ref();
        let resp = ivf_search(inner, r, query, k, None, ctx, PlanUsed::Exact, &mut trace)?;
        inner.tel.finish(&trace, &resp.info, k, None);
        Ok(resp)
    }
}

/// The optimizer of §3.5.1.
fn choose_plan(inner: &Inner, r: &ReadTxn, expr: &Expr, probes: usize) -> Result<PlanUsed> {
    let total = inner.tables.vector_count(r)? as f64;
    if total <= 0.0 {
        return Ok(PlanUsed::PostFilter);
    }
    // Eq. 2: the IVF scan itself qualifies roughly n·t rows.
    let f_ivf = (probes as f64 * inner.cfg.target_partition_size as f64 / total).min(1.0);
    // Eq. 3: histogram/FTS estimate of the attribute filter.
    let stats = inner.table_stats(r)?;
    let f_filters = estimate_selectivity(r, inner.tables.attrs(), &stats, expr);
    Ok(if f_filters < f_ivf {
        PlanUsed::PreFilter
    } else {
        PlanUsed::PostFilter
    })
}

/// Pre-filtering plan: evaluate the predicate, then brute-force the
/// qualifying vectors through the executor's fetch-by-key scoring
/// tail. Guarantees 100% recall within the filter.
fn pre_filter_search(
    inner: &Inner,
    r: &ReadTxn,
    req: &SearchRequest,
    expr: &Expr,
    trace: &mut QueryTrace,
) -> Result<SearchResponse> {
    if req.query.len() != inner.dim {
        return Err(Error::DimensionMismatch {
            expected: inner.dim,
            got: req.query.len(),
        });
    }
    let ctx = filter_ctx(inner, expr)?;
    let attrs = ctx.attrs;
    let mut info = QueryInfo::new(PlanUsed::PreFilter);
    let mut examined = 0usize;

    // Access path: an index-backed candidate list when one exists,
    // otherwise a full attribute-table scan. Candidates still go
    // through the full (residual) predicate.
    let candidates = index_candidates(inner, r, expr)?;
    let mut qualifying: Vec<i64> = Vec::new();
    match candidates {
        Some(assets) => {
            examined = assets.len();
            let mut probe = ctx.probe(r);
            for asset in assets {
                if probe.passes(asset)? {
                    qualifying.push(asset);
                }
            }
        }
        None => {
            for row in attrs.scan(r)? {
                let row = row?;
                examined += 1;
                if ctx.compiled.eval(&row) {
                    qualifying.push(row[0].as_integer().unwrap_or(0));
                }
            }
        }
    }

    trace.stage(stage::FILTER_JOIN);

    // Brute-force NN over the qualifying set, each vector scored on its
    // pinned page with the partition scan's kernel.
    let metrics = ScanMetrics::default();
    let neighbors = score_candidates(inner, r, &req.query, &qualifying, req.k, &metrics)?;
    trace.stage(stage::PARTITION_SCAN);
    inner
        .tel
        .distance_computations
        .add(metrics.totals().distance_computations as u64);
    metrics.apply_to(&mut info);
    info.candidates = examined;
    Ok(SearchResponse {
        results: neighbors
            .into_iter()
            .map(|n| SearchResult {
                asset_id: n.id as i64,
                distance: n.distance,
            })
            .collect(),
        info,
    })
}

/// Collects candidate asset ids from indexed access paths, or `None`
/// when the predicate has no usable index. Conjunctions pick their most
/// selective indexed side; disjunctions union both sides (both must be
/// indexable).
fn index_candidates(inner: &Inner, r: &ReadTxn, expr: &Expr) -> Result<Option<Vec<i64>>> {
    let attrs = inner.tables.attrs();
    match expr {
        Expr::Cmp { column, op, value } => {
            let Ok(col) = attrs.schema().column_index(column) else {
                return Ok(None);
            };
            let Some(index) = attrs.index_on(&[col]) else {
                return Ok(None);
            };
            let pks = match op {
                CmpOp::Eq => index.lookup_eq(r, std::slice::from_ref(value))?,
                CmpOp::Lt => index.lookup_range(r, None, Some(value), false, true)?,
                CmpOp::Le => index.lookup_range(r, None, Some(value), false, false)?,
                CmpOp::Gt => index.lookup_range(r, Some(value), None, true, false)?,
                CmpOp::Ge => index.lookup_range(r, Some(value), None, false, false)?,
                CmpOp::Ne => return Ok(None),
            };
            Ok(Some(pks_to_assets(pks)))
        }
        Expr::Match { column, query } => {
            let Ok(col) = attrs.schema().column_index(column) else {
                return Ok(None);
            };
            let Some(fts) = attrs.fts_on(col) else {
                return Ok(None);
            };
            Ok(Some(pks_to_assets(fts.match_pks(r, query)?)))
        }
        Expr::And(a, b) => {
            // Prefer the side the estimator believes is rarer.
            let stats = inner.table_stats(r)?;
            let sa = estimate_selectivity(r, attrs, &stats, a);
            let sb = estimate_selectivity(r, attrs, &stats, b);
            let (first, second) = if sa <= sb { (a, b) } else { (b, a) };
            if let Some(c) = index_candidates(inner, r, first)? {
                return Ok(Some(c));
            }
            index_candidates(inner, r, second)
        }
        Expr::Or(a, b) => {
            let (Some(ca), Some(cb)) = (
                index_candidates(inner, r, a)?,
                index_candidates(inner, r, b)?,
            ) else {
                return Ok(None);
            };
            let mut set: std::collections::HashSet<i64> = ca.into_iter().collect();
            set.extend(cb);
            Ok(Some(set.into_iter().collect()))
        }
        Expr::True | Expr::Not(_) => Ok(None),
    }
}

fn pks_to_assets(pks: Vec<Vec<Value>>) -> Vec<i64> {
    pks.into_iter()
        .filter_map(|pk| pk.first().and_then(|v| v.as_integer()))
        .collect()
}
