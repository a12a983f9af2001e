//! ANN and exact KNN search — the paper's Algorithm 2 and the
//! multi-query optimization of §3.4, run by one executor over the
//! unified scan layer.
//!
//! `ivf_search` takes a list of queries; a single query is a list of
//! one, so `search`, `exact` and `batch_search` share every phase:
//!
//! 1. **Probe selection.** Each query picks its partitions through
//!    `nearest_partitions` (ANN, including the two-level centroid index
//!    when present), or takes every partition (exact KNN, §3.3 "trivial
//!    but resource intensive"). The delta store is added for every
//!    query.
//! 2. **Scan.** Each probed partition is scanned once for the queries
//!    that probe it (§3.4 "groups queries per partition"): one job of
//!    the persistent worker pool's typed `parallel_indexed` primitive
//!    per partition, each running the executor's shared
//!    `PartitionScanner` frame into one private bounded `TopK` heap per
//!    member. Each query's heaps then merge and sort ("Parallel Sort" in
//!    Figure 3).
//! 3. **Re-rank.** Under a quantized codec (SQ8 or SQ4) the scan scores
//!    the separately clustered `codes` table — ~4× / ~8× fewer payload
//!    bytes — in the compressed domain and keeps an enlarged
//!    `rerank_factor·k` candidate pool whose entries carry the
//!    `(partition, vid)` they were read at; each query's pool is then
//!    fetched there and re-ranked on exact f32 distances. The delta
//!    partition never has codes and is always scanned in full
//!    precision, and exact KNN always reads full-precision vectors —
//!    exact semantics are codec-independent.
//!
//! Every member of a group is scored with the arithmetic a lone query
//! gets, so a query's answer does not depend on the batch it rides in.
//!
//! A filtered run takes exactly one query. Its post-filtering join of
//! §3.5 ("vectors in the requested partitions that don't satisfy the
//! predicate filter are therefore filtered before being considered in
//! the top-K") runs score first, in waves of `default_probes + 1`
//! partitions taken nearest first — one wave for an ANN query at the
//! default probe count, delta included. A wave is scored in parallel
//! without a single attribute probe; then one sequential join takes its
//! rows nearest first and probes each until the result heap is full and
//! rejects the next row. So a one-wave query probes
//! (`QueryInfo::candidates`) exactly the rows ranked up to the candidate
//! pool's last passing row, and none that a later passing row evicts.
//! Top-k over the passing rows is unique under the total `(distance,
//! id)` order and every unprobed row has `k` passing rows ahead of it,
//! so the answer is the filter-first answer, bit for bit.

use std::collections::BTreeMap;
use std::time::Instant;

use micronn_linalg::{merge_all, Neighbor, TopK};
use micronn_storage::ReadTxn;

use crate::catalog::Loc;
use crate::db::{Inner, DELTA_PARTITION};
use crate::error::{Error, Result};
use crate::exec::{
    rerank_exact, scan_pool_k, Below, BlockPool, PartitionScanner, Payload, ScanMetrics, ScanTotals,
};
use crate::hybrid::FilterCtx;
use crate::stats::{PlanUsed, QueryInfo};
use crate::telemetry::{stage, QueryTrace};

/// One search hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// Client asset id.
    pub asset_id: i64,
    /// Distance to the query under the index metric.
    pub distance: f32,
}

/// A search's results plus its execution statistics.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    pub results: Vec<SearchResult>,
    pub info: QueryInfo,
}

/// A ranked neighbour list as search hits.
pub(crate) fn hits(neighbors: Vec<Neighbor>) -> Vec<SearchResult> {
    neighbors
        .into_iter()
        .map(|n| SearchResult {
            asset_id: n.id as i64,
            distance: n.distance,
        })
        .collect()
}

/// What one run of [`ivf_search`] answered.
pub(crate) struct Answers {
    /// Each query's hits, in input order.
    pub results: Vec<Vec<SearchResult>>,
    /// The run's counters; `partitions_scanned` counts each distinct
    /// partition once, however many queries probed it.
    pub info: QueryInfo,
    /// `(query, vector)` distance computations of the scan, re-rank
    /// recomputations excluded.
    pub scan_distances: usize,
}

impl Answers {
    /// The answer to a one-query run.
    pub fn into_response(mut self) -> SearchResponse {
        debug_assert_eq!(self.results.len(), 1);
        SearchResponse {
            results: self.results.pop().unwrap_or_default(),
            info: self.info,
        }
    }
}

/// Runs queries at snapshot `r` (see the [module docs](crate::search)).
/// `probes = Some(n)` is ANN search (Algorithm 2): each query's `n`
/// nearest partitions plus the delta store, scored in the compressed
/// domain where the catalog is quantized and re-ranked exactly.
/// `probes = None` is exact KNN: every partition, full precision. A
/// `filter` takes exactly one query. The plan reported is the one these
/// inputs make: exact, post-filter or plain ANN.
pub(crate) fn ivf_search(
    inner: &Inner,
    r: &ReadTxn,
    queries: &[impl AsRef<[f32]>],
    k: usize,
    probes: Option<usize>,
    filter: Option<&FilterCtx<'_>>,
    trace: &mut QueryTrace,
) -> Result<Answers> {
    let dim = inner.dim;
    let mut flat = Vec::with_capacity(queries.len() * dim);
    for q in queries {
        let q = q.as_ref();
        if q.len() != dim {
            return Err(Error::DimensionMismatch {
                expected: dim,
                got: q.len(),
            });
        }
        flat.extend_from_slice(q);
    }
    let nq = queries.len();
    debug_assert!(
        filter.is_none() || nq == 1,
        "a filtered scan takes one query"
    );
    let query = |qi: usize| &flat[qi * dim..][..dim];

    // Probe selection, per query, in query order whatever the worker
    // count. An unbuilt index keeps everything in the delta store.
    let index = inner.clustering(r)?;
    let mut lists: Vec<Vec<i64>> = match (&index, probes) {
        (None, _) => vec![Vec::new(); nq],
        (Some(index), Some(n)) => inner
            .scan_pool
            .parallel_indexed(nq, |qi| Ok(index.nearest_partitions(query(qi), n)))?,
        (Some(index), None) => vec![index.partitions.to_vec(); nq],
    };
    for list in &mut lists {
        list.push(DELTA_PARTITION);
    }
    trace.stage(stage::PROBE_SELECT);

    let use_codec = probes.is_some() && inner.quantized();
    let metrics = ScanMetrics::default();
    let scanner = &PartitionScanner {
        inner,
        r,
        metrics: &metrics,
        use_codec,
        epoch: index.map_or(0, |index| index.epoch),
    };
    let (scan_k, timed) = (scan_pool_k(inner, k, use_codec), trace.detailed);
    let (partitions, ranked) = if use_codec {
        let (partitions, pools) =
            scan_partitions::<Loc>(scanner, &lists, &flat, scan_k, filter, timed)?;
        trace.stage(stage::PARTITION_SCAN);
        let ranked = inner.scan_pool.parallel_indexed(nq, |qi| {
            rerank_exact(inner, r, query(qi), &pools[qi], k, &metrics)
        })?;
        trace.stage(stage::RERANK);
        (partitions, ranked)
    } else {
        let scanned = scan_partitions::<()>(scanner, &lists, &flat, scan_k, filter, timed)?;
        trace.stage(stage::PARTITION_SCAN);
        scanned
    };
    // The joins run between the waves of the partition scan; report
    // their share as its own stage without subtracting it.
    let totals = metrics.totals();
    trace.stage_external(
        stage::FILTER_JOIN,
        std::time::Duration::from_nanos(totals.filter_nanos),
    );
    inner
        .tel
        .distance_computations
        .add(totals.distance_computations as u64);
    let mut info = QueryInfo::new(match (probes, filter) {
        (None, _) => PlanUsed::Exact,
        (Some(_), Some(_)) => PlanUsed::PostFilter,
        (Some(_), None) => PlanUsed::Ann,
    });
    info.partitions_scanned = partitions;
    metrics.apply_to(&mut info);
    Ok(Answers {
        results: ranked.into_iter().map(hits).collect(),
        info,
        scan_distances: totals.distance_computations,
    })
}

/// The scan phase of [`ivf_search`] (Algorithm 2 lines 3–11): scans
/// each query's probe list `lists[qi]` for the queries that are the
/// rows of the `nq × dim` matrix `flat`, and returns how many distinct
/// partitions it read with each query's sorted pool of `scan_k`
/// candidates. With the codec path active a pool holds
/// `rerank_factor·k` *approximate* candidates, located (`P = Loc`),
/// that must go through [`rerank_exact`](crate::exec::rerank_exact).
///
/// Unfiltered, every probed partition is one fan-out job that scans it
/// once for the queries that probe it (§3.4), into one heap per member,
/// and each query's heaps merge. Filtered, the one query's partitions
/// go in waves of `default_probes + 1`, in the given order (nearest
/// first for ANN), into one heap: each partition of a wave is one job
/// that collects, unprobed, the rows the heap would accept as the wave
/// begins ([`Below`]), and
/// [`AttrProbe::join`](crate::hybrid::AttrProbe::join) then probes the
/// wave's rows nearest first. The waves are fixed and the join is
/// sequential, so what is probed — and with it `QueryInfo` — is the
/// same for every worker count. A `timed` scan clocks each join (its
/// ordering and its probes) into [`ScanTotals::filter_nanos`].
fn scan_partitions<P: Payload>(
    scanner: &PartitionScanner<'_>,
    lists: &[Vec<i64>],
    flat: &[f32],
    scan_k: usize,
    filter: Option<&FilterCtx<'_>>,
    timed: bool,
) -> Result<(usize, Vec<Vec<Neighbor<P>>>)> {
    let inner = scanner.inner;
    let blocks = BlockPool::default();
    let Some(filter) = filter else {
        let mut groups: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (qi, list) in lists.iter().enumerate() {
            for &pid in list {
                groups.entry(pid).or_default().push(qi as u32);
            }
        }
        let groups: Vec<(i64, Vec<u32>)> = groups.into_iter().collect();
        let partials = inner.scan_pool.parallel_indexed(groups.len(), |i| {
            let (pid, members) = (groups[i].0, &groups[i].1[..]);
            let mut heaps: Vec<TopK<P>> =
                members.iter().map(|_| TopK::with_payload(scan_k)).collect();
            scanner.scan(pid, flat, members, &mut heaps, &blocks)?;
            Ok(heaps)
        })?;
        let mut per_query: Vec<Vec<TopK<P>>> = lists.iter().map(|_| Vec::new()).collect();
        for ((_, members), heaps) in groups.iter().zip(partials) {
            for (&qi, top) in members.iter().zip(heaps) {
                per_query[qi as usize].push(top);
            }
        }
        let pools = per_query
            .into_iter()
            .map(|heaps| merge_all(heaps, scan_k))
            .collect();
        return Ok((groups.len(), pools));
    };
    let partitions = &lists[0];
    let mut top = TopK::with_payload(scan_k);
    let mut probe = filter.probe(scanner.r);
    let wave = inner.cfg.default_probes + 1;
    for start in (0..partitions.len()).step_by(wave) {
        let bound = &top;
        let n = wave.min(partitions.len() - start);
        let rows = inner.scan_pool.parallel_indexed(n, |i| {
            let mut below = Below {
                bound,
                rows: Vec::new(),
            };
            let out = std::slice::from_mut(&mut below);
            scanner.scan(partitions[start + i], flat, &[0], out, &blocks)?;
            Ok(below.rows)
        })?;
        let t0 = timed.then(Instant::now);
        let mut tally = ScanTotals::default();
        probe.join(rows.into_iter().flatten(), &mut top, &mut tally)?;
        tally.filter_nanos = t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        scanner.metrics.absorb(&tally);
    }
    Ok((partitions.len(), vec![top.into_sorted()]))
}
