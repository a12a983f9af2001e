//! ANN and exact KNN search — the paper's Algorithm 2, expressed as
//! orchestration over the unified scan-executor layer.
//!
//! A search (1) scans the centroid table for the `n` nearest
//! partitions, (2) always adds the delta partition, (3) fans the
//! selected partitions out across the persistent worker pool with the
//! typed `parallel_indexed` primitive — each job runs the executor's
//! shared `PartitionScanner` frame into a private bounded `TopK` heap
//! — and (4) merges the per-partition heaps and sorts ("Parallel
//! Sort" in Figure 3).
//!
//! Under [`crate::codec::VectorCodec::F32`] (the default) the frame
//! decodes raw f32 rows, exactly as before. Under the quantized codecs
//! it scans the separately clustered `codes` table — ~4× (SQ8) / ~8×
//! (SQ4) fewer payload bytes — scoring codes in the compressed domain,
//! keeps an enlarged `rerank_factor·k` candidate pool whose entries
//! carry the `(partition, vid)` they were read at, and a final re-rank
//! pass fetches the survivors there and recomputes exact f32
//! distances. The delta partition never has codes and is always
//! scanned in full precision.
//!
//! The post-filtering join of §3.5 ("vectors in the requested
//! partitions that don't satisfy the predicate filter are therefore
//! filtered before being considered in the top-K") runs score first,
//! in waves of `default_probes + 1` partitions taken nearest first —
//! one wave for an ANN query at the default probe count, delta
//! included. A wave is scored in parallel without a single attribute
//! probe; then one sequential join takes its rows nearest first and
//! probes each until the result heap is full and rejects the next row.
//! So a one-wave query probes (`QueryInfo::candidates`) exactly the
//! rows ranked up to the candidate pool's last passing row, and none
//! that a later passing row evicts. Top-k over the passing rows is unique
//! under the total `(distance, id)` order and every unprobed row has
//! `k` passing rows ahead of it, so the answer is the filter-first
//! answer, bit for bit.

use std::time::Instant;

use micronn_linalg::{merge_all, Neighbor, TopK};
use micronn_storage::ReadTxn;

use crate::catalog::Loc;
use crate::db::{Inner, DELTA_PARTITION};
use crate::error::{Error, Result};
use crate::exec::{
    rerank_exact, scan_pool_k, Below, BlockPool, PartitionScanner, Payload, Queries, ScanMetrics,
    ScanTotals,
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

/// Scans `partitions` through `scanner`, returning the per-codec
/// candidate list (Algorithm 2 lines 3–11). `scanner.use_codec` selects
/// the compressed-domain scan for quantized catalogs; callers needing
/// exact semantics (exhaustive KNN) pass `false`. With the codec path
/// active the returned list holds `rerank_factor·k` *approximate*
/// candidates, located (`P = Loc`), that must go through
/// [`rerank_exact`](crate::exec::rerank_exact).
///
/// Unfiltered, every partition is one fan-out job into its own heap,
/// and the heaps merge. Filtered, the partitions go in waves of
/// `default_probes + 1`, in the given order (nearest first for ANN), into one
/// heap: each partition of a wave is one job that collects, unprobed,
/// the rows the heap would accept as the wave begins ([`Below`]), and
/// [`AttrProbe::join`](crate::hybrid::AttrProbe::join) then probes the
/// wave's rows nearest first. The waves are fixed and the join is
/// sequential, so what is probed — and with it `QueryInfo` — is the
/// same for every worker count. A `timed` scan clocks each join (its
/// ordering and its probes) into [`ScanTotals::filter_nanos`].
fn scan_partitions<P: Payload>(
    scanner: &PartitionScanner<'_>,
    partitions: &[i64],
    query: &[f32],
    k: usize,
    filter: Option<&FilterCtx<'_>>,
    timed: bool,
) -> Result<Vec<Neighbor<P>>> {
    let inner = scanner.inner;
    let scan_k = scan_pool_k(inner, k, scanner.use_codec);
    let blocks = BlockPool::default();
    let queries = Queries::One(query);
    let Some(filter) = filter else {
        let heaps = inner.scan_pool.parallel_indexed(partitions.len(), |i| {
            let mut top = TopK::with_payload(scan_k);
            let out = std::slice::from_mut(&mut top);
            scanner.scan(partitions[i], &queries, out, &blocks)?;
            Ok(top)
        })?;
        return Ok(merge_all(heaps, scan_k));
    };
    let mut top = TopK::with_payload(scan_k);
    let mut probe = filter.probe(scanner.r);
    let wave = inner.cfg.default_probes + 1;
    for start in (0..partitions.len()).step_by(wave) {
        let bound = &top;
        let n = wave.min(partitions.len() - start);
        let lists = inner.scan_pool.parallel_indexed(n, |i| {
            let mut below = Below {
                bound,
                rows: Vec::new(),
            };
            let out = std::slice::from_mut(&mut below);
            scanner.scan(partitions[start + i], &queries, out, &blocks)?;
            Ok(below.rows)
        })?;
        let t0 = timed.then(Instant::now);
        let mut tally = ScanTotals::default();
        probe.join(lists.into_iter().flatten(), &mut top, &mut tally)?;
        tally.filter_nanos = t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        scanner.metrics.absorb(&tally);
    }
    Ok(top.into_sorted())
}

/// One IVF search at snapshot `r`. `probes = Some(n)` is ANN search
/// (Algorithm 2): the `n` nearest partitions plus the delta store,
/// scored in the compressed domain where the catalog is quantized and
/// re-ranked exactly. `probes = None` is exact KNN: an exhaustive scan
/// over every partition (§3.3 "trivial but resource intensive") that
/// always reads full-precision vectors — exact semantics are
/// codec-independent.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ivf_search(
    inner: &Inner,
    r: &ReadTxn,
    query: &[f32],
    k: usize,
    probes: Option<usize>,
    filter: Option<&FilterCtx<'_>>,
    plan: PlanUsed,
    trace: &mut QueryTrace,
) -> Result<SearchResponse> {
    if query.len() != inner.dim {
        return Err(Error::DimensionMismatch {
            expected: inner.dim,
            got: query.len(),
        });
    }
    // An unbuilt index keeps everything in the delta store.
    let index = inner.clustering(r)?;
    let mut partitions: Vec<i64> = match (&index, probes) {
        (None, _) => Vec::new(),
        (Some(index), Some(n)) => index.nearest_partitions(query, n),
        (Some(index), None) => index.partitions.as_ref().clone(),
    };
    partitions.push(DELTA_PARTITION);
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
    let timed = trace.detailed;
    let neighbors = if use_codec {
        let pool = scan_partitions::<Loc>(scanner, &partitions, query, k, filter, timed)?;
        trace.stage(stage::PARTITION_SCAN);
        let top = rerank_exact(inner, r, query, &pool, k, &metrics)?;
        trace.stage(stage::RERANK);
        top
    } else {
        let top = scan_partitions::<()>(scanner, &partitions, query, k, filter, timed)?;
        trace.stage(stage::PARTITION_SCAN);
        top
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
    let mut info = QueryInfo::new(plan);
    info.partitions_scanned = partitions.len();
    metrics.apply_to(&mut info);
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
