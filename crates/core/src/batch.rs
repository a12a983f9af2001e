//! Batch query processing with multi-query optimization (§3.4).
//!
//! Given a batch of queries, MicroNN "first identifies the set of
//! clusters that each query needs to access, and groups queries per
//! partition. Then, instead of scanning a partition multiple times for
//! each query, distances between queries and the vectors in the
//! partition is calculated via a single matrix multiplication." A
//! batch runs the one executor every query runs (see
//! [`search`](crate::search)), which scans each probed partition once
//! for the queries that probe it: a single query is a batch of one.
//! Each partition is therefore read from disk **once** for the whole
//! batch (the I/O amortization of Figure 9).
//!
//! One deviation: no matrix multiplication. A group scan scores each
//! f32 row in place per member with the single-query kernels
//! (quantized codes are scored by the same batched code kernels as a
//! single query's), so a batch answers exactly what
//! [`search`](crate::MicroNN::search_with) answers at the same probe
//! count — ids, distance bits and order.

use crate::error::Result;
use crate::search::{ivf_search, SearchResult};
use crate::telemetry::QueryTrace;

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
    /// seq. `probes = None` is the index default.
    pub fn batch_search(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        probes: Option<usize>,
    ) -> Result<BatchResponse> {
        if queries.is_empty() {
            return Ok(BatchResponse {
                results: vec![],
                partitions_scanned: 0,
                distance_computations: 0,
                bytes_scanned: 0,
            });
        }
        let (inner, r) = (&*self.db.inner, &self.r);
        let mut trace = QueryTrace::new(inner.tel.detailed());
        let probes = Some(probes.unwrap_or(inner.cfg.default_probes));
        let run = ivf_search(inner, r, queries, k, probes, None, &mut trace)?;
        let info = run.info;
        inner.tel.finish(&trace, &info, k, Some(queries.len()));
        Ok(BatchResponse {
            results: run.results,
            partitions_scanned: info.partitions_scanned,
            distance_computations: run.scan_distances + info.reranked,
            bytes_scanned: info.bytes_scanned,
        })
    }
}
