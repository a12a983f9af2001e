//! The on-disk density of the clustered `vectors` table: a probed
//! partition costs one page read per leaf its rows span, so ingest,
//! rebuild and delta flush — all ascending `(partition, vid)` runs —
//! must leave full leaves behind, and files whose leaves an earlier
//! build split in half must keep working.

use micronn::{Config, Metric, MicroNN, Occupancy, SyncMode, VectorCodec, VectorRecord};

const DIM: usize = 128;
const ROWS: usize = 4096;

fn vector(i: usize, generation: usize) -> Vec<f32> {
    let cluster = (i % 37) as f32;
    (0..DIM)
        .map(|d| cluster * 4.0 + ((i * 31 + d * 17 + generation * 7) % 101) as f32 / 101.0)
        .collect()
}

fn fill_of(db: &MicroNN, tree: &str) -> Occupancy {
    let trees = db.tree_fill().unwrap();
    trees.iter().find(|(t, _)| t == tree).expect(tree).1
}

/// Ingest in batches, rebuild, a round of replace-upserts, a delta
/// flush, a checkpoint: the `vectors` leaves stay dense and the main
/// file stays within a small multiple of the raw vector bytes. A
/// `vectors` cell at dimension 128 is 587 bytes, so six fit a leaf and
/// fill cannot exceed 0.863 (what pure ingest reaches); a rebuild ends
/// each ~100-row partition on a partly filled leaf, which is the rest
/// of the distance to 0.80. Leaves cut in half at every overflow held
/// four rows: 0.575, and 2.4× (F32) / 3.2× (SQ8) the raw bytes here.
#[test]
fn ingest_rebuild_and_flush_leave_dense_vector_leaves() {
    for codec in [VectorCodec::F32, VectorCodec::Sq8] {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("dense.mnn");
        let mut cfg = Config::new(DIM, Metric::L2);
        cfg.store.sync = SyncMode::Off;
        cfg.codec = codec;
        let db = MicroNN::create(&path, cfg).unwrap();
        let records: Vec<VectorRecord> = (0..ROWS)
            .map(|i| VectorRecord::new(i as i64, vector(i, 0)))
            .collect();
        for chunk in records.chunks(256) {
            db.upsert_batch(chunk).unwrap();
        }
        let ingested = fill_of(&db, "vectors");
        assert!(ingested.leaf_fill() >= 0.85, "{codec} ingest: {ingested:?}");

        db.rebuild().unwrap();
        // The rebuild lays each partition's leaves on ascending page
        // ids, reusing the ids the old tree held: runs break only where
        // those ids skip a page (8.0 pages per run here; 1.1 when rows
        // were relocated one at a time).
        let rebuilt = fill_of(&db, "vectors");
        assert!(
            rebuilt.pages_per_run() >= 5.0,
            "{codec}: {:.2} vectors pages per run after the rebuild ({rebuilt:?})",
            rebuilt.pages_per_run()
        );
        for i in 0..64 {
            let id = (i * 61 % ROWS) as i64;
            db.upsert(VectorRecord::new(id, vector(i, 1))).unwrap();
        }
        db.flush_delta().unwrap();
        db.checkpoint().unwrap();

        let vectors = fill_of(&db, "vectors");
        assert!(
            vectors.leaf_fill() >= 0.80,
            "{codec}: vectors leaf fill {:.3} ({vectors:?})",
            vectors.leaf_fill()
        );
        let report = db.verify_integrity().unwrap();
        assert!(report.is_clean(), "{codec}: {:?}", report.errors);
        assert_eq!(report.vectors_checked, ROWS as u64);
        let raw = (ROWS * (4 * DIM + 8)) as f64;
        let file = std::fs::metadata(&path).unwrap().len() as f64;
        // SQ8 keeps a code row (a quarter of the f32 bytes, plus its
        // key) beside every vector row.
        let bound = if codec == VectorCodec::F32 { 1.9 } else { 2.3 };
        assert!(
            file <= bound * raw,
            "{codec}: main file {file} bytes is {:.2}x the raw {raw}",
            file / raw
        );
    }
}

/// `fixtures/balanced_split.mnn` was written by the build before the
/// split rule changed: every leaf cut in half, separators that are full
/// keys, reserved header bytes all zero. It opens, verifies, takes
/// inserts, replaces and a rebuild, and verifies again.
#[test]
fn a_file_split_by_the_previous_rule_opens_verifies_and_accepts_inserts() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("old.mnn");
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/balanced_split.mnn"
    );
    std::fs::copy(fixture, &path).unwrap();
    std::fs::copy(format!("{fixture}-wal"), dir.path().join("old.mnn-wal")).unwrap();

    let db = MicroNN::open(&path, Config::default()).unwrap();
    let report = db.verify_integrity().unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert_eq!(report.vectors_checked, 240);
    let old = fill_of(&db, "vectors");
    assert!(
        old.leaf_fill() < 0.6,
        "the fixture has half-full leaves: {old:?}"
    );

    let probe = vec![0.25f32; 16];
    for id in 200..400i64 {
        let v = if id == 333 {
            probe.clone()
        } else {
            vec![id as f32; 16]
        };
        db.upsert(VectorRecord::new(id, v).with_attr("city", "Oslo"))
            .unwrap();
    }
    assert!(db.verify_integrity().unwrap().is_clean());
    assert_eq!(db.exact(&probe, 1, None).unwrap().results[0].asset_id, 333);
    db.rebuild().unwrap();
    let report = db.verify_integrity().unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert_eq!(report.vectors_checked, 400);
    assert_eq!(db.search(&probe, 1).unwrap().results[0].asset_id, 333);
}
