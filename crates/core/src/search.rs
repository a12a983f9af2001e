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
//! The post-filtering join of §3.5 happens *inside* the scan frame
//! ("vectors in the requested partitions that don't satisfy the
//! predicate filter are therefore filtered before being considered in
//! the top-K"), score first: every row is scored, and its attributes
//! are probed only if the score could still enter the top-k. Top-k over
//! the passing rows is unique under the total `(distance, id)` order
//! and a row is skipped only when `k` passing rows already beat it, so
//! the answer is the filter-first answer, bit for bit.

use micronn_linalg::{merge_all, Neighbor, TopK};
use micronn_storage::ReadTxn;

use crate::catalog::Loc;
use crate::db::{Inner, DELTA_PARTITION};
use crate::error::{Error, Result};
use crate::exec::{
    rerank_exact, scan_pool_k, BlockPool, PartitionScanner, Payload, Queries, ScanMetrics,
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
/// Unfiltered, every partition is one fan-out job. Filtered, the
/// partitions are first scanned in the given (nearest-first) order,
/// inline, into one heap until it holds `scan_k` passing rows; its
/// threshold then becomes the fixed `prune_above` of the fan-out over
/// the rest. No job reads another's state, so what is probed — and
/// with it `QueryInfo` — is the same for every worker count.
fn scan_partitions<P: Payload>(
    mut scanner: PartitionScanner<'_>,
    partitions: &[i64],
    query: &[f32],
    k: usize,
) -> Result<Vec<Neighbor<P>>> {
    let inner = scanner.inner;
    let scan_k = scan_pool_k(inner, k, scanner.use_codec);
    let (queries, blocks) = (Queries::One(query), BlockPool::default());
    let scan_one = |scanner: &PartitionScanner<'_>, i: usize, top: &mut TopK<P>| {
        // Probe readahead: queue the next partition's leaves before
        // scoring this one, so its I/O overlaps our compute.
        if let Some(&next) = partitions.get(i + 1) {
            scanner.prefetch(next);
        }
        scanner.scan(partitions[i], &queries, std::slice::from_mut(top), &blocks)
    };
    let mut seeded = 0;
    let seed = match scanner.filter {
        None => None,
        Some(_) => {
            let mut seed = TopK::with_payload(scan_k);
            while seeded < partitions.len() && seed.len() < scan_k {
                scan_one(&scanner, seeded, &mut seed)?;
                seeded += 1;
            }
            scanner.prune_above = seed.threshold();
            Some(seed)
        }
    };
    let mut heaps = inner
        .scan_pool
        .parallel_indexed(partitions.len() - seeded, |i| {
            let mut top = TopK::with_payload(scan_k);
            scan_one(&scanner, seeded + i, &mut top)?;
            Ok(top)
        })?;
    heaps.extend(seed);
    Ok(merge_all(heaps, scan_k))
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
    let scanner = PartitionScanner {
        inner,
        r,
        filter,
        metrics: &metrics,
        use_codec,
        epoch: index.map_or(0, |index| index.epoch),
        time_filter: trace.detailed && filter.is_some(),
        prune_above: f32::INFINITY,
    };
    let neighbors = if use_codec {
        let pool = scan_partitions::<Loc>(scanner, &partitions, query, k)?;
        trace.stage(stage::PARTITION_SCAN);
        let top = rerank_exact(inner, r, query, &pool, k, &metrics)?;
        trace.stage(stage::RERANK);
        top
    } else {
        let top = scan_partitions::<()>(scanner, &partitions, query, k)?;
        trace.stage(stage::PARTITION_SCAN);
        top
    };
    // The filter share is nested inside the parallel partition scan;
    // report it as its own stage without subtracting (wall-clock vs
    // summed-across-workers differ anyway).
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
