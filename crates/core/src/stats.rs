//! Database and query statistics.
//!
//! Figure 10d of the paper plots the number of database row changes of
//! incremental vs full rebuilds; Figures 5/6b plot memory; the
//! microbenchmarks rely on partition/vector scan counts. These types
//! expose all of that.

use micronn_storage::StoreStats;

/// Which hybrid-query plan executed (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanUsed {
    /// Plain ANN scan (no attribute filter).
    Ann,
    /// Exhaustive exact scan.
    Exact,
    /// Predicate evaluated first; brute-force search over qualifying
    /// vectors (100% recall).
    PreFilter,
    /// ANN scan with the predicate applied during partition scans.
    PostFilter,
}

impl std::fmt::Display for PlanUsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlanUsed::Ann => "ann",
            PlanUsed::Exact => "exact",
            PlanUsed::PreFilter => "pre-filter",
            PlanUsed::PostFilter => "post-filter",
        })
    }
}

/// Per-query execution statistics, populated from the unified
/// executor's scan counters (one block fed by every scan worker,
/// whatever the path — single-query, batch, or hybrid).
///
/// A post-filter scan scores every live row of the probed partitions,
/// in waves of `default_probes + 1` partitions, and then probes each
/// wave's rows nearest first until its top-k is full and rejects the
/// next row. So on that plan `vectors_scanned` and `bytes_scanned`
/// equal the unfiltered scan of the same partitions, `candidates` rows
/// were probed — in a one-wave query, exactly the rows ranked up to
/// and including the pool's last passing row, or every row when fewer
/// rows pass than the pool holds — `filtered_out` of them failed,
/// `candidates − filtered_out` passed, and `vectors_scanned −
/// candidates` were never looked up in the attribute table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryInfo {
    /// The plan that executed.
    pub plan: PlanUsed,
    /// Partitions scanned (including the delta store).
    pub partitions_scanned: usize,
    /// Vectors whose distance was computed.
    pub vectors_scanned: usize,
    /// Rows whose attributes were probed and failed the filter
    /// (post-filtering path; a pre-filter plan reports 0).
    pub filtered_out: usize,
    /// Rows whose attributes were examined: the candidate set of a
    /// pre-filtering plan, the rows the join of a post-filtering (or a
    /// filtered exact) scan probed (0 without a filter).
    pub candidates: usize,
    /// Vector-payload bytes read by the scan: `4·dim` per f32 row,
    /// `dim` per SQ8 code row, `16·dim` per scanned SQ4 interleaved
    /// block (32 packed rows at `dim/2` bytes each, counted whole —
    /// fastscan reads the block even for partially-dead slots), plus
    /// `4·dim` per re-ranked candidate — the Figure-5 "bytes scanned"
    /// axis. Asserted per codec by `tests/telemetry.rs`.
    pub bytes_scanned: usize,
    /// Candidates re-ranked against exact f32 vectors (quantized
    /// scans only).
    pub reranked: usize,
}

impl QueryInfo {
    pub(crate) fn new(plan: PlanUsed) -> QueryInfo {
        QueryInfo {
            plan,
            partitions_scanned: 0,
            vectors_scanned: 0,
            filtered_out: 0,
            candidates: 0,
            bytes_scanned: 0,
            reranked: 0,
        }
    }
}

/// Point-in-time state of a MicroNN index.
#[derive(Debug, Clone)]
pub struct DbStats {
    /// Total stored vectors (main index + delta).
    pub total_vectors: u64,
    /// Vectors in the delta store.
    pub delta_vectors: u64,
    /// IVF partitions (0 before the first build).
    pub partitions: u64,
    /// Mean vectors per main-index partition.
    pub avg_partition_size: f64,
    /// Smallest indexed partition (0 before the first build). The
    /// lifecycle monitor merges partitions below `merge_limit ×
    /// target_partition_size`.
    pub min_partition_size: u64,
    /// Largest indexed partition (0 before the first build). The
    /// lifecycle monitor splits partitions above `split_limit ×
    /// target_partition_size`.
    pub max_partition_size: u64,
    /// Mean partition size recorded right after the last full rebuild.
    pub baseline_partition_size: f64,
    /// Index epoch (bumped by rebuilds, flushes, analyze).
    pub epoch: i64,
    /// Cumulative row-level mutations performed by this handle
    /// (Figure 10d).
    pub row_changes: u64,
    /// Storage-engine counters.
    pub store: StoreStats,
    /// Bytes of page images resident in the buffer pool.
    pub resident_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_display() {
        assert_eq!(PlanUsed::PreFilter.to_string(), "pre-filter");
        assert_eq!(PlanUsed::Ann.to_string(), "ann");
    }

    #[test]
    fn query_info_starts_zeroed() {
        let q = QueryInfo::new(PlanUsed::Exact);
        assert_eq!(q.vectors_scanned, 0);
        assert_eq!(q.plan, PlanUsed::Exact);
    }
}
