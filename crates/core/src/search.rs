//! ANN and exact KNN search — the paper's Algorithm 2 and the
//! multi-query optimization of §3.4, run by one executor over the
//! unified scan layer.
//!
//! `ivf_search` takes a list of queries; a single query is a list of
//! one, so `search`, `exact` and `batch_search` share every phase:
//!
//! 1. **Probe selection.** Each query picks its partitions through
//!    `nearest_partitions` (ANN: Algorithm 2's scan of the whole
//!    centroid table), or takes every partition (exact KNN, §3.3 "trivial
//!    but resource intensive"). The delta store is added for every
//!    query.
//! 2. **Scan.** Each probed partition is scanned once for the queries
//!    that probe it (§3.4 "groups queries per partition"): the worker
//!    pool's `fold_indexed` hands the partitions out one at a time, and
//!    each worker runs the executor's shared `PartitionScanner` frame
//!    into heaps it owns — one bounded `TopK` per query of the run, as
//!    Figure 3's workers each keep "its own heap of its current top-k
//!    vectors" — beside its own SQ4 scorers and scan tally. A
//!    partition's scan offers to the worker's heap of each member of
//!    its group, and every f32 row, SQ8 code row or SQ4 block is scored
//!    where the catalog walk lends it and offered at once. Each query's
//!    per-worker heaps then merge once and sort ("Parallel Sort" in
//!    Figure 3); with one worker there is nothing to merge. The
//!    workers' tallies are summed once, after the scan.
//! 3. **Re-rank.** Under a quantized codec (SQ8 or SQ4) the scan scores
//!    the separately clustered `codes` table — ~4× / ~8× fewer payload
//!    bytes — in the compressed domain and keeps an enlarged
//!    `rerank_factor·k` candidate pool whose entries carry the
//!    `(partition, vid)` they were read at; each query's pool is then
//!    fetched there, in key order and in phases that keep the lookups
//!    apart from the scoring (`exec::rerank_exact`), and re-ranked on
//!    exact f32 distances. The delta partition never has codes and is
//!    always scanned in full precision, and exact KNN always reads
//!    full-precision vectors — exact semantics are codec-independent.
//!
//! Every member of a group is scored with the arithmetic a lone query
//! gets, so a query's answer does not depend on the batch it rides in;
//! top-k under the total `(distance, id)` order is unique, so it does
//! not depend on which worker's heap a row landed in either.
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
    fetch_order, rerank_exact, scan_pool_k, Below, PartitionScanner, Payload, ScanTotals, Scratch,
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
    let scanner = &PartitionScanner {
        inner,
        r,
        codes: index.as_deref().filter(|_| use_codec),
    };
    let (scan_k, timed) = (scan_pool_k(inner, k, use_codec), trace.detailed);
    let (partitions, results, totals) = if use_codec {
        let (partitions, mut pools, mut totals) =
            scan_partitions::<Loc>(scanner, &lists, &flat, scan_k, filter, timed)?;
        trace.stage(stage::PARTITION_SCAN);
        for pool in &mut pools {
            pool.sort_unstable_by_key(fetch_order);
        }
        let ranked = inner
            .scan_pool
            .parallel_indexed(nq, |qi| rerank_exact(inner, r, query(qi), &pools[qi], k))?;
        trace.stage(stage::RERANK);
        let results = (ranked.into_iter())
            .map(|(top, tally)| {
                totals += tally;
                hits(top)
            })
            .collect();
        (partitions, results, totals)
    } else {
        let (partitions, pools, totals) =
            scan_partitions::<()>(scanner, &lists, &flat, scan_k, filter, timed)?;
        trace.stage(stage::PARTITION_SCAN);
        (partitions, pools.into_iter().map(hits).collect(), totals)
    };
    // The joins run between the waves of the partition scan; report
    // their share as its own stage without subtracting it.
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
    totals.apply_to(&mut info);
    Ok(Answers {
        results,
        info,
        scan_distances: totals.distance_computations,
    })
}

/// Each query's candidate pool, in query order.
type Pools<P> = Vec<Vec<Neighbor<P>>>;

/// The scan phase of [`ivf_search`] (Algorithm 2 lines 3–11): scans
/// each query's probe list `lists[qi]` for the queries that are the
/// rows of the `nq × dim` matrix `flat`, and returns how many distinct
/// partitions it read, each query's sorted pool of `scan_k` candidates
/// and what the scan counted. With the codec path active a pool holds
/// `rerank_factor·k` *approximate* candidates, located (`P = Loc`),
/// that must go through [`rerank_exact`].
///
/// Every scan is a fold over partitions in which each worker owns its
/// collectors and its [`Scratch`]; the workers' tallies are summed once
/// the fold returns. Unfiltered, every probed partition is one index of
/// one fold that scans it once for the queries that probe it (§3.4),
/// into the worker's heap of each member — one heap per query per
/// worker — and each query's per-worker heaps merge once. Filtered, the
/// one query's partitions go in waves of `default_probes + 1`, in the
/// given order (nearest first for ANN), into one heap: each wave is a
/// fold in which each worker collects, unprobed, the rows the heap
/// would accept as the wave begins ([`Below`]) into one list, and
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
) -> Result<(usize, Pools<P>, ScanTotals)> {
    let inner = scanner.inner;
    let mut totals = ScanTotals::default();
    let Some(filter) = filter else {
        let mut groups: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (qi, list) in lists.iter().enumerate() {
            for &pid in list {
                groups.entry(pid).or_default().push(qi as u32);
            }
        }
        let groups: Vec<(i64, Vec<u32>)> = groups.into_iter().collect();
        let nq = lists.len();
        let mut per_worker = inner.scan_pool.fold_indexed(
            groups.len(),
            || {
                let heaps = (0..nq).map(|_| TopK::with_payload(scan_k)).collect();
                (heaps, Scratch::default())
            },
            |(heaps, scratch): &mut (Vec<TopK<P>>, Scratch), i| {
                let (pid, members) = &groups[i];
                scanner.scan(*pid, flat, members, heaps, scratch)
            },
        )?;
        for (_, scratch) in &per_worker {
            totals += scratch.tally;
        }
        let pools = if per_worker.len() <= 1 {
            // One worker's heaps are the answers: nothing to merge.
            let (heaps, _) = per_worker.pop().unwrap_or_default();
            heaps.into_iter().map(TopK::into_sorted).collect()
        } else {
            let mut per_worker: Vec<_> = (per_worker.into_iter())
                .map(|(heaps, _)| heaps.into_iter())
                .collect();
            (0..nq)
                .map(|_| {
                    let heaps = per_worker.iter_mut().flat_map(Iterator::next).collect();
                    merge_all(heaps, scan_k)
                })
                .collect()
        };
        return Ok((groups.len(), pools, totals));
    };
    let partitions = &lists[0];
    let mut top = TopK::with_payload(scan_k);
    let mut probe = filter.probe(scanner.r);
    for wave in partitions.chunks(inner.cfg.default_probes + 1) {
        let bound = &top;
        let per_worker = inner.scan_pool.fold_indexed(
            wave.len(),
            || (Vec::new(), Scratch::default()),
            |(rows, scratch), i| {
                let below = &mut [Below { bound, rows }];
                scanner.scan(wave[i], flat, &[0], below, scratch)
            },
        )?;
        // One worker's list goes to the join whole, to be heapified in
        // place; more lists are appended to the first non-empty one.
        let mut rows = Vec::new();
        for (worker_rows, scratch) in per_worker {
            totals += scratch.tally;
            if rows.is_empty() {
                rows = worker_rows;
            } else {
                rows.extend(worker_rows);
            }
        }
        let t0 = timed.then(Instant::now);
        probe.join(rows, &mut top, &mut totals)?;
        totals.filter_nanos += t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
    }
    Ok((partitions.len(), vec![top.into_sorted()], totals))
}
