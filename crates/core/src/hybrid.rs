//! Hybrid queries: vector similarity search with structured attribute
//! filters (§3.5), and the selectivity-based query optimizer (§3.5.1).
//!
//! Two physical plans exist:
//!
//! * **Pre-filtering** evaluates the predicate first and brute-forces
//!   the qualifying vectors — 100% recall, latency proportional to the
//!   qualifying set. A single indexed comparison is decided on the
//!   index entries themselves: one in-place walk of the index range,
//!   each entry's value tested as the row's would be, and no `attrs`
//!   read unless the entry's key cannot stand in for the value (a
//!   numeric of magnitude 2^53 or more). Other predicates take their
//!   candidates from an indexed or FTS side and probe each row, or
//!   evaluate every `attrs` row in place.
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
    decode_int_key, estimate_selectivity, CmpOp, Compiled, EncodedRow, Expr, IndexDef, RowReader,
    Table, Value,
};
use micronn_storage::ReadTxn;

use crate::db::{Inner, MicroNN};
use crate::error::{Error, Result};
use crate::exec::{CandidateScorer, Payload, ScanTotals};
use crate::search::{hits, ivf_search, SearchResponse};
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
    /// The order comes from one heapify of `rows`, in place, and a pop
    /// per probe: the join usually stops long before the wave's end,
    /// where a sort would not.
    pub fn join<P: Payload>(
        &mut self,
        rows: Vec<Neighbor<P>>,
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
            (filter, _) => {
                let ctx = filter.as_ref().map(|expr| filter_ctx(inner, expr));
                let ctx = ctx.transpose()?;
                let (query, probes) = ([&req.query], Some(probes));
                let run = ivf_search(inner, r, &query, req.k, probes, ctx.as_ref(), &mut trace)?;
                run.into_response()
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
        let resp = ivf_search(inner, r, &[query], k, None, ctx, &mut trace)?.into_response();
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

/// Pre-filtering plan: evaluate the predicate and brute-force each
/// qualifying vector as the filter finds it, through the executor's
/// fetch-by-key scoring tail. Guarantees 100% recall within the filter.
///
/// The access path, and what decides the predicate:
///
/// * A single indexed comparison is decided on the index entries
///   ([`IndexDef::visit_cmp`]): one in-place walk of the index range,
///   no `attrs` read. Only an entry whose key cannot stand in for the
///   row's value (a numeric of magnitude 2^53 or more) has its row
///   probed.
/// * Otherwise an indexed or FTS side of the predicate yields candidate
///   assets, and each candidate's row is probed with the whole
///   predicate.
/// * Otherwise every `attrs` row is evaluated in place, as the table
///   scan lends it.
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
    let mut probe = ctx.probe(r);
    let mut top = CandidateScorer::new(inner, r, &req.query, req.k);
    let mut examined = 0usize;
    if let Some((index, op, lit)) = indexed_cmp(ctx.attrs, expr) {
        index.visit_cmp(r, op, lit, |decided, pk| {
            examined += 1;
            let asset = decode_int_key(pk)?;
            if decided.map_or_else(|| probe.passes(asset), Ok)? {
                top.score(asset)?;
            }
            Ok::<_, Error>(())
        })?;
    } else if let Some(assets) = index_candidates(inner, r, expr)? {
        examined = assets.len();
        for asset in assets {
            if probe.passes(asset)? {
                top.score(asset)?;
            }
        }
    } else {
        ctx.attrs.visit_pk_prefix(r, &[], |key, row| {
            examined += 1;
            if ctx.compiled.eval_columns(&EncodedRow::new(row)?) {
                top.score(decode_int_key(key)?)?;
            }
            Ok::<_, Error>(())
        })?;
    }
    trace.stage(stage::FILTER_JOIN);

    let (neighbors, tally) = top.finish(inner.dim);
    inner
        .tel
        .distance_computations
        .add(tally.distance_computations as u64);
    let mut info = QueryInfo::new(PlanUsed::PreFilter);
    tally.apply_to(&mut info);
    info.candidates = examined;
    Ok(SearchResponse {
        results: hits(neighbors),
        info,
    })
}

/// The index and comparison of a predicate that is one indexed
/// comparison other than `!=` (which would walk nearly every entry).
fn indexed_cmp<'a>(attrs: &'a Table, expr: &'a Expr) -> Option<(&'a IndexDef, CmpOp, &'a Value)> {
    match expr {
        Expr::Cmp { column, op, value } if *op != CmpOp::Ne => {
            let col = attrs.schema().column_index(column).ok()?;
            Some((attrs.index_on(&[col])?, *op, value))
        }
        _ => None,
    }
}

/// Collects candidate asset ids from indexed access paths, or `None`
/// when the predicate has no usable index: an indexed comparison yields
/// the entries it does not rule out, an FTS match its documents.
/// Conjunctions pick their most selective indexed side; disjunctions
/// union both sides (both must be indexable).
fn index_candidates(inner: &Inner, r: &ReadTxn, expr: &Expr) -> Result<Option<Vec<i64>>> {
    let attrs = inner.tables.attrs();
    match expr {
        Expr::Cmp { .. } => {
            let Some((index, op, lit)) = indexed_cmp(attrs, expr) else {
                return Ok(None);
            };
            let mut assets = Vec::new();
            index.visit_cmp(r, op, lit, |decided, pk| {
                if decided != Some(false) {
                    assets.push(decode_int_key(pk)?);
                }
                Ok::<_, Error>(())
            })?;
            Ok(Some(assets))
        }
        Expr::Match { column, query } => {
            let Ok(col) = attrs.schema().column_index(column) else {
                return Ok(None);
            };
            let Some(fts) = attrs.fts_on(col) else {
                return Ok(None);
            };
            let pks = fts.match_pks(r, query)?;
            let assets = pks.iter().filter_map(|pk| pk.first()?.as_integer());
            Ok(Some(assets.collect()))
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
            let (Some(mut ca), Some(cb)) = (
                index_candidates(inner, r, a)?,
                index_candidates(inner, r, b)?,
            ) else {
                return Ok(None);
            };
            ca.extend(cb);
            ca.sort_unstable();
            ca.dedup();
            Ok(Some(ca))
        }
        Expr::True | Expr::Not(_) => Ok(None),
    }
}
