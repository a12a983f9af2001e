//! The quantized-codec suite (`codec_suite/`) under SQ8: per-vector u8
//! code rows, ≈ 4× fewer payload bytes than f32 (≥ 3× end to end with
//! the re-rank reads).

mod codec_suite;

use codec_suite::Suite;
use micronn::VectorCodec;

const SQ8: Suite = Suite {
    codec: VectorCodec::Sq8,
    other: VectorCodec::Sq4,
    rerank_factor: 4,
    min_bytes_ratio: 3.0,
    // The default test catalog: 16 of ~50 partitions probed, so the
    // re-rank reads weigh on the ratio.
    bytes_shape: (2500, 50, 16),
};

#[test]
fn sq8_recall_at_10_vs_exact_including_after_maintenance() {
    SQ8.recall_at_10_vs_exact_including_after_maintenance();
}

#[test]
fn sq8_matches_f32_results_and_scans_3x_fewer_bytes() {
    SQ8.matches_f32_results_and_scans_fewer_bytes();
}

#[test]
fn sq8_catalog_persists_and_open_validates() {
    SQ8.catalog_persists_and_open_validates();
}

#[test]
fn sq8_hybrid_filters_respected_by_quantized_scans() {
    SQ8.hybrid_filters_respected_by_quantized_scans();
}

#[test]
fn sq8_batch_mqo_matches_single_query_pipeline() {
    SQ8.batch_mqo_matches_single_query_pipeline();
}

#[test]
fn sq8_upsert_replace_and_delete_stay_consistent() {
    SQ8.upsert_replace_and_delete_stay_consistent();
}

#[test]
fn sq8_range_drift_triggers_background_retrain() {
    SQ8.range_drift_triggers_background_retrain();
}

#[test]
fn sq8_crash_recovery_preserves_codes_and_ranges() {
    SQ8.crash_recovery_preserves_codes_and_ranges();
}
