//! The quantized-codec suite (`codec_suite/`) under SQ4: 4-bit fastscan
//! codes in 32-row blocks, ≈ 8× fewer payload bytes than f32 (≥ 6× end
//! to end with the re-rank reads).

mod codec_suite;

use codec_suite::Suite;
use micronn::VectorCodec;

const SQ4: Suite = Suite {
    codec: VectorCodec::Sq4,
    other: VectorCodec::Sq8,
    // 4-bit codes are coarser than 8-bit ones, so the exact re-rank
    // pool carries more of the recall budget.
    rerank_factor: 6,
    min_bytes_ratio: 6.0,
    // Blocks near-full right after the build: target 96 rows/partition
    // = 3 exact 32-row blocks, measured before any delta churn dilutes
    // occupancy, and every partition probed: worst case for bytes.
    bytes_shape: (4096, 96, 64),
};

#[test]
fn sq4_recall_at_10_vs_exact_including_after_maintenance() {
    SQ4.recall_at_10_vs_exact_including_after_maintenance();
}

#[test]
fn sq4_matches_f32_results_and_scans_6x_fewer_bytes() {
    SQ4.matches_f32_results_and_scans_fewer_bytes();
}

#[test]
fn sq4_catalog_persists_and_open_validates() {
    SQ4.catalog_persists_and_open_validates();
}

#[test]
fn sq4_hybrid_filters_respected_by_quantized_scans() {
    SQ4.hybrid_filters_respected_by_quantized_scans();
}

#[test]
fn sq4_batch_mqo_matches_single_query_pipeline() {
    SQ4.batch_mqo_matches_single_query_pipeline();
}

#[test]
fn sq4_upsert_replace_and_delete_stay_consistent() {
    SQ4.upsert_replace_and_delete_stay_consistent();
}

#[test]
fn sq4_range_drift_triggers_background_retrain() {
    SQ4.range_drift_triggers_background_retrain();
}

#[test]
fn sq4_crash_recovery_preserves_blocks_and_ranges() {
    SQ4.crash_recovery_preserves_codes_and_ranges();
}
