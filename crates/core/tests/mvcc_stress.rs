//! MVCC stress suite: multi-reader/multi-writer churn with snapshot
//! consistency proofs (the promotion of `exec_determinism`'s
//! concurrent smoke into a real suite).
//!
//! What is proven here:
//!
//! * **Frozen snapshots** — a search pinned *before* concurrent
//!   upserts/deletes/flushes/splits/merges returns **bit-identical**
//!   results when re-run on the same [`micronn::Snapshot`] after the
//!   churn, for both codecs.
//! * **Readers never block behind writers** — a full search completes
//!   while a write transaction is held open, and the reader-side path
//!   never touches the writer lock (`writer_lock_waits` telemetry
//!   stays flat across a reader-only phase).
//! * **Writers never block behind readers** — commits proceed at full
//!   rate while a pinned snapshot runs queries continuously.
//! * **The reader registry drains** — after every thread is done (or
//!   has panicked mid-read), `active_readers` is 0 and version GC can
//!   advance.
//! * **Crash safety under concurrency** — with the Begin/PagePut/Commit
//!   WAL records, a power cut at injected points during churn with a
//!   live pinned reader recovers to a clean, fsck-passing catalog.
//!
//! Scale: `MICRONN_MVCC_OPS` bounds the churn rounds and
//! `MICRONN_MVCC_CRASH_POINTS` the injection points (CI sets small
//! values; local runs can raise them).

use std::sync::atomic::{AtomicBool, Ordering};

use micronn::{
    AttributeDef, Config, Expr, MaintainerOptions, Metric, MicroNN, SearchRequest, SyncMode,
    ValueType, VectorCodec, VectorRecord,
};
use micronn_datasets::{generate, DatasetSpec};
use micronn_rel::Value;
use micronn_storage::{CrashPlan, PowerCut, SimVfs};

const DIM: usize = 16;
const K: usize = 10;

fn churn_rounds() -> usize {
    std::env::var("MICRONN_MVCC_OPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6)
}

/// Number of crash-injection points (`0` = every point, mirroring
/// `MICRONN_CRASH_POINTS`).
fn crash_points(total: u64) -> u64 {
    match std::env::var("MICRONN_MVCC_CRASH_POINTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
    {
        0 => total,
        n => n.min(total),
    }
}

fn dataset(n: usize, seed: u64) -> micronn_datasets::Dataset {
    generate(&DatasetSpec {
        name: "synthetic-mvcc",
        dim: DIM,
        n_vectors: n,
        n_queries: 12,
        metric: Metric::L2,
        clusters: 8,
        spread: 0.1,
        seed,
    })
}

fn config(codec: VectorCodec) -> Config {
    let mut c = Config::new(DIM, Metric::L2);
    c.store.sync = SyncMode::Off;
    c.target_partition_size = 40;
    c.default_probes = 6;
    c.codec = codec;
    c.rerank_factor = 4;
    c.workers = 4;
    c.attributes = vec![AttributeDef::indexed("g", ValueType::Integer)];
    c
}

fn build(path: &std::path::Path, codec: VectorCodec, ds: &micronn_datasets::Dataset) -> MicroNN {
    let db = MicroNN::create(path, config(codec)).unwrap();
    let records: Vec<VectorRecord> = (0..ds.len())
        .map(|i| VectorRecord::new(i as i64, ds.vector(i).to_vec()).with_attr("g", (i % 5) as i64))
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();
    db
}

/// One writer round: upserts, deletes, a delta flush, and (odd rounds)
/// a full lifecycle pass — enough to force splits/merges/retrains on
/// small partitions. Fallible so the crash-injection test can observe
/// the simulated-crash error instead of unwinding.
fn try_churn_round(
    db: &MicroNN,
    fresh: &micronn_datasets::Dataset,
    round: usize,
) -> micronn::Result<()> {
    let records: Vec<VectorRecord> = (0..60)
        .map(|i| {
            let src = (round * 60 + i) % fresh.len();
            VectorRecord::new(50_000 + (round * 60 + i) as i64, fresh.vector(src).to_vec())
                .with_attr("g", (src % 5) as i64)
        })
        .collect();
    db.upsert_batch(&records)?;
    let doomed: Vec<i64> = (0..25).map(|i| (round * 25 + i) as i64).collect();
    db.delete_batch(&doomed)?;
    db.flush_delta()?;
    if round % 2 == 1 {
        db.maybe_maintain()?;
    }
    Ok(())
}

fn churn_round(db: &MicroNN, fresh: &micronn_datasets::Dataset, round: usize) {
    try_churn_round(db, fresh, round).unwrap();
}

/// A result list from one snapshot must be bounded, sorted, deduped,
/// and finite.
fn check_well_formed(results: &[micronn::SearchResult]) {
    assert!(results.len() <= K);
    let mut seen = std::collections::HashSet::new();
    for w in results.windows(2) {
        assert!(
            (w[0].distance, w[0].asset_id) <= (w[1].distance, w[1].asset_id),
            "results not sorted: {w:?}"
        );
    }
    for r in results {
        assert!(seen.insert(r.asset_id), "duplicate id {}", r.asset_id);
        assert!(r.distance.is_finite());
    }
}

fn assert_bit_identical(a: &[micronn::SearchResult], b: &[micronn::SearchResult], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: result counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.asset_id, y.asset_id, "{what}: id at rank {i}");
        assert_eq!(
            x.distance.to_bits(),
            y.distance.to_bits(),
            "{what}: distance bits at rank {i}"
        );
    }
}

/// Tentpole proof: results from a pinned snapshot do not change while
/// flush/split/merge/retrain commit underneath it — re-running the
/// same queries on the same snapshot after heavy churn is
/// bit-identical to before, for both codecs.
fn pinned_snapshot_frozen(codec: VectorCodec) {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("frozen.mnn");
    let ds = dataset(1200, 31);
    let db = build(&path, codec, &ds);
    let filter = Expr::eq("g", Value::Integer(2));

    let snap = db.snapshot();
    let len_before = snap.len().unwrap();
    let baseline: Vec<_> = (0..ds.spec.n_queries)
        .map(|qi| {
            let q = ds.query(qi);
            (
                snap.search(q, K).unwrap().results,
                snap.search_with(&SearchRequest::new(q.to_vec(), K).with_filter(filter.clone()))
                    .unwrap()
                    .results,
                snap.exact(q, K, None).unwrap().results,
            )
        })
        .collect();
    let batch_queries: Vec<Vec<f32>> = (0..ds.spec.n_queries)
        .map(|qi| ds.query(qi).to_vec())
        .collect();
    let batch_baseline = snap.batch_search(&batch_queries, K, None).unwrap().results;

    let fresh = dataset(600, 77);
    for round in 0..churn_rounds() {
        churn_round(&db, &fresh, round);
    }
    // A rebuild rewrites `vectors` onto the page ids its old tree held —
    // among them the ones this snapshot resolves its partitions through.
    db.rebuild().unwrap();
    // The live view moved…
    assert_ne!(db.len().unwrap(), len_before, "churn must change the db");

    // …the pinned snapshot did not: same len, same bits, clean fsck.
    assert_eq!(snap.len().unwrap(), len_before);
    assert!(snap.verify_integrity().unwrap().is_clean());
    for (qi, (plain, filtered, exact)) in baseline.iter().enumerate() {
        let q = ds.query(qi);
        assert_bit_identical(
            &snap.search(q, K).unwrap().results,
            plain,
            &format!("{codec} plain q{qi}"),
        );
        assert_bit_identical(
            &snap
                .search_with(&SearchRequest::new(q.to_vec(), K).with_filter(filter.clone()))
                .unwrap()
                .results,
            filtered,
            &format!("{codec} filtered q{qi}"),
        );
        assert_bit_identical(
            &snap.exact(q, K, None).unwrap().results,
            exact,
            &format!("{codec} exact q{qi}"),
        );
    }
    let batch_after = snap.batch_search(&batch_queries, K, None).unwrap().results;
    assert_eq!(batch_after.len(), batch_baseline.len());
    for (qi, (a, b)) in batch_after.iter().zip(&batch_baseline).enumerate() {
        assert_bit_identical(a, b, &format!("{codec} batch q{qi}"));
    }
    drop(snap);
    assert_eq!(db.database().store().active_readers(), 0);
}

#[test]
fn pinned_snapshot_frozen_f32() {
    pinned_snapshot_frozen(VectorCodec::F32);
}

#[test]
fn pinned_snapshot_frozen_sq8() {
    pinned_snapshot_frozen(VectorCodec::Sq8);
}

/// Multi-reader/multi-writer: N reader threads assert per-snapshot
/// consistency (same snapshot queried twice is bit-identical) while a
/// writer and the background [`micronn::IndexMaintainer`] churn.
fn reader_writer_stress(codec: VectorCodec) {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("stress.mnn");
    let ds = dataset(1500, 41);
    let db = build(&path, codec, &ds);
    let maintainer = db.start_maintainer(MaintainerOptions::default());

    let before = db.io_stats();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let mut readers = Vec::new();
        for t in 0..3usize {
            let db = db.clone();
            let ds = &ds;
            let stop = &stop;
            readers.push(s.spawn(move || {
                let filter = Expr::eq("g", Value::Integer(1));
                let mut iters = 0usize;
                while !stop.load(Ordering::Relaxed) || iters < 20 {
                    let q = ds.query((iters + t) % ds.spec.n_queries);
                    // Pin one snapshot; everything inside must be
                    // self-consistent and repeatable.
                    let snap = db.snapshot();
                    let a = snap.search(q, K).unwrap();
                    check_well_formed(&a.results);
                    let b = snap.search(q, K).unwrap();
                    assert_bit_identical(
                        &a.results,
                        &b.results,
                        "same snapshot, same query, twice",
                    );
                    let f = snap
                        .search_with(&SearchRequest::new(q.to_vec(), K).with_filter(filter.clone()))
                        .unwrap();
                    check_well_formed(&f.results);
                    // Unpinned searches still work and are well-formed.
                    check_well_formed(&db.search(q, K).unwrap().results);
                    iters += 1;
                    if iters >= 150 {
                        break; // safety valve if the writer is slow
                    }
                }
            }));
        }
        let fresh = dataset(700, 99);
        for round in 0..churn_rounds() {
            churn_round(&db, &fresh, round);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader panicked");
        }
    });
    maintainer.stop();

    // Reader registry drained: nothing pins old versions, GC floor is
    // the committed seq again.
    let store = db.database().store();
    assert_eq!(store.active_readers(), 0, "reader registry must drain");
    assert_eq!(store.oldest_reader_snapshot(), None);
    let after = db.io_stats();
    assert!(
        after.reader_pins > before.reader_pins,
        "stress must have pinned snapshots"
    );
    assert!(db.verify_integrity().unwrap().is_clean());
}

#[test]
fn reader_writer_stress_f32() {
    reader_writer_stress(VectorCodec::F32);
}

#[test]
fn reader_writer_stress_sq8() {
    reader_writer_stress(VectorCodec::Sq8);
}

/// No reader-blocks-writer wait: a long-lived pinned snapshot queries
/// continuously while the writer commits at full rate — every commit
/// must land (and the snapshot must not see any of them).
#[test]
fn writers_never_wait_for_readers() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("wnb.mnn");
    let ds = dataset(800, 53);
    let db = build(&path, VectorCodec::F32, &ds);

    let snap = db.snapshot();
    let len_before = snap.len().unwrap();
    let stop = AtomicBool::new(false);
    let (reading, first_read) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        let reader = {
            let snap = &snap;
            let ds = &ds;
            let stop = &stop;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let q = ds.query(i % ds.spec.n_queries);
                    check_well_formed(&snap.search(q, K).unwrap().results);
                    if i == 0 {
                        reading.send(()).unwrap();
                    }
                    i += 1;
                }
                i
            })
        };
        // 50 commits while the snapshot reads hot — from its first
        // answer on, so the writer cannot finish before it starts.
        first_read.recv().unwrap();
        for i in 0..50i64 {
            db.upsert(VectorRecord::new(
                80_000 + i,
                ds.vector(i as usize % ds.len()).to_vec(),
            ))
            .unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(reader.join().unwrap() > 0, "reader must have run");
    });
    assert_eq!(db.len().unwrap(), len_before + 50, "every commit landed");
    assert_eq!(snap.len().unwrap(), len_before, "snapshot saw none of them");
}

/// No writer-blocks-reader wait: a search started *while a write
/// transaction is held open* completes without waiting for the writer,
/// and the reader-side path never touches the writer lock.
#[test]
fn readers_never_wait_for_writers() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("rnb.mnn");
    let ds = dataset(800, 67);
    let db = build(&path, VectorCodec::F32, &ds);

    // Hold the writer lock open (uncommitted transaction with dirty
    // pages) and run full searches underneath it, with a watchdog so a
    // regression fails fast instead of hanging the suite.
    let txn = db.database().begin_write().unwrap();
    let waits_before = db.io_stats().writer_lock_waits;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        let db2 = db.clone();
        let ds = &ds;
        s.spawn(move || {
            for qi in 0..ds.spec.n_queries {
                let resp = db2.search(ds.query(qi), K).unwrap();
                check_well_formed(&resp.results);
                let resp = db2.exact(ds.query(qi), K, None).unwrap();
                check_well_formed(&resp.results);
            }
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("searches must complete while a write txn is open");
    });
    // The reader-only phase never contended on the writer lock.
    assert_eq!(
        db.io_stats().writer_lock_waits,
        waits_before,
        "reads must not touch the writer lock"
    );
    txn.rollback();
}

/// Reader-registry leak regression (drop-guard satellite): a panic
/// while a snapshot is alive must still deregister the reader during
/// unwind.
#[test]
fn panicked_reader_still_deregisters() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("panic.mnn");
    let ds = dataset(300, 73);
    let db = build(&path, VectorCodec::F32, &ds);

    let db2 = db.clone();
    let ds2 = &ds;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let snap = db2.snapshot();
        let _ = snap.search(ds2.query(0), K).unwrap();
        panic!("boom with a live snapshot");
    }));
    assert!(outcome.is_err());
    assert_eq!(
        db.database().store().active_readers(),
        0,
        "unwind must drop the reader registration"
    );
    // Version GC is unblocked: a checkpoint folds the WAL fully.
    assert!(db.checkpoint().unwrap());
}

/// Retrain-vs-search interleaving regression (cache-invalidation race
/// satellite): concurrent searches across repeated quantizer retrains
/// must never score against a mix of old and new ranges — every result
/// set stays well-formed, and a pinned snapshot's results stay frozen
/// across each retrain.
#[test]
fn retrain_vs_search_interleaving() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("retrain.mnn");
    let ds = dataset(1000, 83);
    let db = build(&path, VectorCodec::Sq8, &ds);
    let partitions: Vec<i64> = db
        .partition_sizes()
        .unwrap()
        .into_iter()
        .map(|(p, _)| p)
        .collect();
    assert!(!partitions.is_empty());

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let searcher = {
            let db = db.clone();
            let ds = &ds;
            let stop = &stop;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let q = ds.query(i % ds.spec.n_queries);
                    let snap = db.snapshot();
                    let a = snap.search(q, K).unwrap();
                    check_well_formed(&a.results);
                    let b = snap.search(q, K).unwrap();
                    assert_bit_identical(&a.results, &b.results, "snapshot across retrain");
                    check_well_formed(&db.search(q, K).unwrap().results);
                    i += 1;
                }
            })
        };
        for round in 0..churn_rounds().max(3) {
            let p = partitions[round % partitions.len()];
            db.retrain_partition(p).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        searcher.join().expect("searcher panicked");
    });
    assert!(db.verify_integrity().unwrap().is_clean());
    assert_eq!(db.database().store().active_readers(), 0);
}

/// Crash injection during concurrent churn with a live pinned reader:
/// at every sampled injection point, recovery lands on a clean,
/// fsck-passing committed state under the Begin/PagePut/Commit WAL
/// records.
#[test]
fn crash_points_during_concurrent_churn_recover_clean() {
    let path = std::path::Path::new("/sim/mvcc.mnn");
    let ds = dataset(500, 91);
    let fresh = dataset(300, 17);

    // Clean pass to count mutating VFS ops.
    let total = {
        let sim = SimVfs::new();
        let mut cfg = config(VectorCodec::Sq8);
        cfg.store.sync = SyncMode::Normal;
        cfg.store.vfs = sim.handle();
        let db = MicroNN::create(path, cfg).unwrap();
        let records: Vec<VectorRecord> = (0..ds.len())
            .map(|i| {
                VectorRecord::new(i as i64, ds.vector(i).to_vec()).with_attr("g", (i % 5) as i64)
            })
            .collect();
        db.upsert_batch(&records).unwrap();
        db.rebuild().unwrap();
        sim.arm(CrashPlan {
            at_op: u64::MAX,
            torn_eighths: None,
        });
        for round in 0..3 {
            churn_round(&db, &fresh, round);
        }
        sim.ops()
    };
    assert!(total > 20, "churn too small to prove anything: {total}");

    let n = crash_points(total);
    let points: Vec<u64> = (1..=n).map(|i| i * total / n).collect();
    for at_op in points {
        let sim = SimVfs::new();
        let mut cfg = config(VectorCodec::Sq8);
        cfg.store.sync = SyncMode::Normal;
        cfg.store.vfs = sim.handle();
        let db = MicroNN::create(path, cfg.clone()).unwrap();
        let records: Vec<VectorRecord> = (0..ds.len())
            .map(|i| {
                VectorRecord::new(i as i64, ds.vector(i).to_vec()).with_attr("g", (i % 5) as i64)
            })
            .collect();
        db.upsert_batch(&records).unwrap();
        db.rebuild().unwrap();
        sim.arm(CrashPlan {
            at_op,
            torn_eighths: Some(4),
        });
        // Pin a reader, then churn until the injected crash fires;
        // reads from the pinned snapshot race the dying writer.
        let snap = db.snapshot();
        let mut crash_err = None;
        for round in 0..6 {
            let _ = snap.search(ds.query(round % ds.spec.n_queries), K);
            if let Err(e) = try_churn_round(&db, &fresh, round) {
                crash_err = Some(e.to_string());
                break;
            }
        }
        let err =
            crash_err.unwrap_or_else(|| panic!("at_op {at_op}: churn outran the crash point"));
        assert!(
            err.contains("simulated crash"),
            "at_op {at_op}: non-crash failure: {err}"
        );
        drop(snap);
        drop(db);
        sim.power_cut(PowerCut::DropUnsynced);
        let db = MicroNN::open(path, cfg).unwrap_or_else(|e| {
            panic!("at_op {at_op}: reopen failed: {e}");
        });
        let report = db.verify_integrity().unwrap();
        assert!(
            report.is_clean(),
            "at_op {at_op}: fsck found partial transactions: {:?}",
            report.errors
        );
        // Recovered database accepts new work.
        db.upsert(VectorRecord::new(99_999, vec![0.5; DIM]))
            .unwrap();
        assert!(db.contains(99_999).unwrap());
    }
}
