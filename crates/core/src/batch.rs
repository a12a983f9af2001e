//! Batch query processing with multi-query optimization (§3.4).
//!
//! Given a batch of queries, MicroNN "first identifies the set of
//! clusters that each query needs to access, and groups queries per
//! partition. Then, instead of scanning a partition multiple times for
//! each query, distances between queries and the vectors in the
//! partition is calculated via a single matrix multiplication." Each
//! partition is therefore read from disk **once** for the whole batch
//! (the I/O amortization of Figure 9), and per-(partition, query)
//! results merge through the usual heap machinery.
//!
//! One deviation: no matrix multiplication. A group scan decodes each
//! f32 row once and scores it for every member of the group with the
//! single-query kernels (quantized codes are scored by the same
//! batched code kernels as a single query's), so a batch answers
//! exactly what [`search`](crate::MicroNN::search_with) answers at the
//! same probe count — ids, distance bits and order.
//!
//! All three MQO phases are one-liners over the scan pool's typed
//! `parallel_indexed` primitive: phase 1 fans the per-query probe
//! selections out (each query still goes through the exact
//! `nearest_partitions` routine of the single-query path, so probe
//! sets match it bit for bit), phase 2 fans out the shared partition
//! scans through the executor's `PartitionScanner` frame, and phase 3
//! fans out the per-query exact re-rank under a quantized codec (SQ8
//! or SQ4).
//! Results return in index order and the first error (by partition or
//! query index) is reported deterministically, whatever the worker
//! count.

use std::collections::HashMap;

use micronn_linalg::{merge_all, Neighbor, TopK};

use crate::catalog::Loc;
use crate::db::DELTA_PARTITION;
use crate::error::{Error, Result};
use crate::exec::{
    rerank_exact, scan_pool_k, BlockPool, PartitionScanner, Payload, Queries, ScanMetrics,
};
use crate::search::SearchResult;
use crate::stats::{PlanUsed, QueryInfo};
use crate::telemetry::{stage, QueryTrace};

/// Results of a batch search plus aggregate execution counters.
#[derive(Debug, Clone)]
pub struct BatchResponse {
    /// Per-query result lists, aligned with the input batch.
    pub results: Vec<Vec<SearchResult>>,
    /// Distinct partitions scanned for the whole batch (each exactly
    /// once — the MQO property).
    pub partitions_scanned: usize,
    /// Total `(query, vector)` distance computations (quantized scores
    /// and re-rank recomputations included).
    pub distance_computations: usize,
    /// Total vector-payload bytes read for the whole batch (same
    /// accounting as [`crate::QueryInfo::bytes_scanned`]).
    pub bytes_scanned: usize,
}

impl crate::snapshot::Snapshot {
    /// [`MicroNN::batch_search`](crate::MicroNN::batch_search) at this
    /// snapshot: the whole batch — probe selection, shared partition
    /// scans, re-rank — resolves every page at the same frozen commit
    /// seq.
    pub fn batch_search(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        probes: Option<usize>,
    ) -> Result<BatchResponse> {
        let (inner, r) = (&*self.db.inner, &self.r);
        if queries.is_empty() {
            return Ok(BatchResponse {
                results: vec![],
                partitions_scanned: 0,
                distance_computations: 0,
                bytes_scanned: 0,
            });
        }
        for q in queries {
            if q.len() != inner.dim {
                return Err(Error::DimensionMismatch {
                    expected: inner.dim,
                    got: q.len(),
                });
            }
        }
        let mut trace = QueryTrace::new(inner.tel.detailed());
        let probes = probes.unwrap_or(inner.cfg.default_probes);
        let nq = queries.len();
        let dim = inner.dim;
        let mut queries_flat = Vec::with_capacity(nq * dim);
        for q in queries {
            queries_flat.extend_from_slice(q);
        }

        // Phase 1: probe selection, per query, through the exact same
        // routine the single-query path uses (`nearest_partitions`,
        // including the two-level centroid index when present) — so
        // probe sets match the sequential path *bit for bit* — fanned
        // out across the scan pool with per-query lists returned in
        // query order, keeping the grouping deterministic regardless
        // of worker count.
        let mut groups: HashMap<i64, Vec<u32>> = HashMap::new();
        let index = inner.clustering(r)?;
        if let Some(index) = &index {
            let queries_flat = &queries_flat;
            let probe_lists: Vec<Vec<i64>> = inner.scan_pool.parallel_indexed(nq, |qi| {
                Ok(index.nearest_partitions(&queries_flat[qi * dim..(qi + 1) * dim], probes))
            })?;
            for (qi, list) in probe_lists.into_iter().enumerate() {
                for pid in list {
                    groups.entry(pid).or_default().push(qi as u32);
                }
            }
        }
        // The delta store serves every query.
        groups.insert(DELTA_PARTITION, (0..nq as u32).collect());

        let mut partitions: Vec<i64> = groups.keys().copied().collect();
        partitions.sort_unstable();
        trace.stage(stage::PROBE_SELECT);

        // Phase 2: scan each partition once for its query group through
        // the shared scan frame: each f32 row decoded once and scored
        // per member, or each chunk of codes scored per member.
        // Quantized scans keep enlarged, located per-query pools for
        // the re-rank pass.
        let metrics = ScanMetrics::default();
        let scanner = PartitionScanner {
            inner,
            r,
            metrics: &metrics,
            use_codec: true,
            epoch: index.map_or(0, |index| index.epoch),
        };
        let merged: Vec<Vec<Neighbor>> = if inner.quantized() {
            let pools = scan_groups::<Loc>(&scanner, &groups, &partitions, &queries_flat, nq, k)?;
            trace.stage(stage::PARTITION_SCAN);
            // Phase 3: quantized catalogs re-rank each query's merged
            // pool against the exact f32 vectors (the same pass as
            // single-query search), fanned out across the scan pool
            // like the other phases — the per-query pools are
            // independent.
            let pools = &pools;
            let ranked = inner.scan_pool.parallel_indexed(nq, |qi| {
                let query = &queries_flat[qi * dim..(qi + 1) * dim];
                rerank_exact(inner, r, query, &pools[qi], k, &metrics)
            })?;
            trace.stage(stage::RERANK);
            ranked
        } else {
            let merged = scan_groups::<()>(&scanner, &groups, &partitions, &queries_flat, nq, k)?;
            trace.stage(stage::PARTITION_SCAN);
            merged
        };
        // Exact re-rank recomputations count as distance work.
        let totals = metrics.totals();
        let distance_computations = totals.distance_computations + totals.reranked;
        inner
            .tel
            .distance_computations
            .add(distance_computations as u64);
        let info = QueryInfo {
            partitions_scanned: partitions.len(),
            vectors_scanned: totals.vectors_scanned,
            bytes_scanned: totals.bytes_scanned,
            reranked: totals.reranked,
            ..QueryInfo::new(PlanUsed::Ann)
        };
        inner.tel.finish(&trace, &info, k, Some(nq));
        let results = merged
            .into_iter()
            .map(|top| {
                top.into_iter()
                    .map(|n| SearchResult {
                        asset_id: n.id as i64,
                        distance: n.distance,
                    })
                    .collect()
            })
            .collect();
        Ok(BatchResponse {
            results,
            partitions_scanned: partitions.len(),
            distance_computations,
            bytes_scanned: totals.bytes_scanned,
        })
    }
}

/// Phase 2 and the merge half of phase 3: every probed partition (the
/// keys of `groups`, ascending) scanned once for the queries that probe
/// it, rows of the `nq × dim` batch `flat`, then each query's
/// per-partition heaps merged into its candidate list.
fn scan_groups<P: Payload>(
    scanner: &PartitionScanner<'_>,
    groups: &HashMap<i64, Vec<u32>>,
    partitions: &[i64],
    flat: &[f32],
    nq: usize,
    k: usize,
) -> Result<Vec<Vec<Neighbor<P>>>> {
    let (scan_k, blocks) = (scan_pool_k(scanner.inner, k, true), BlockPool::default());
    let partials: Vec<Vec<TopK<P>>> =
        scanner
            .inner
            .scan_pool
            .parallel_indexed(partitions.len(), |i| {
                let members = &groups[&partitions[i]];
                let mut heaps: Vec<TopK<P>> =
                    members.iter().map(|_| TopK::with_payload(scan_k)).collect();
                let queries = Queries::Group { flat, members };
                scanner.scan(partitions[i], &queries, &mut heaps, &blocks)?;
                Ok(heaps)
            })?;
    let mut per_query: Vec<Vec<TopK<P>>> = (0..nq).map(|_| Vec::new()).collect();
    for (i, heaps) in partials.into_iter().enumerate() {
        for (&qi, top) in groups[&partitions[i]].iter().zip(heaps) {
            per_query[qi as usize].push(top);
        }
    }
    Ok(per_query
        .into_iter()
        .map(|heaps| merge_all(heaps, scan_k))
        .collect())
}
