//! Robustness and edge-case behaviour of the public API: degenerate
//! parameters, empty states, oversized requests, and backup/restore.

use micronn::{
    AttributeDef, Config, Expr, Metric, MicroNN, PlanPreference, SearchRequest, SyncMode,
    ValueType, VectorRecord,
};

fn cfg(dim: usize) -> Config {
    let mut c = Config::new(dim, Metric::L2);
    c.store.sync = SyncMode::Off;
    c.target_partition_size = 16;
    c.attributes = vec![AttributeDef::indexed("tag", ValueType::Text)];
    c
}

fn seeded(db: &MicroNN, n: i64, dim: usize) {
    let recs: Vec<VectorRecord> = (0..n)
        .map(|i| {
            VectorRecord::new(i, vec![(i % 13) as f32; dim])
                .with_attr("tag", if i % 2 == 0 { "even" } else { "odd" })
        })
        .collect();
    db.upsert_batch(&recs).unwrap();
}

#[test]
fn search_empty_database() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("e.mnn"), cfg(4)).unwrap();
    let got = db.search(&[0.0; 4], 10).unwrap();
    assert!(got.results.is_empty());
    let got = db.exact(&[0.0; 4], 10, None).unwrap();
    assert!(got.results.is_empty());
    let got = db.batch_search(&[vec![0.0; 4]], 10, None).unwrap();
    assert_eq!(got.results.len(), 1);
    assert!(got.results[0].is_empty());
    // Rebuild of an empty collection is a no-op, not an error.
    let report = db.rebuild().unwrap();
    assert_eq!(report.vectors, 0);
}

#[test]
fn k_larger_than_collection() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("k.mnn"), cfg(4)).unwrap();
    seeded(&db, 5, 4);
    db.rebuild().unwrap();
    // A `k` past any collection asks for every row; it reserves
    // nothing in proportion to itself.
    for k in [100, 1 << 40, usize::MAX] {
        let got = db.search(&[1.0; 4], k).unwrap();
        assert_eq!(got.results.len(), 5, "k = {k}: everything, no padding");
        let got = db.exact(&[1.0; 4], k, None).unwrap();
        assert_eq!(got.results.len(), 5, "k = {k}");
        let got = db
            .batch_search(&[vec![1.0; 4], vec![2.0; 4]], k, None)
            .unwrap();
        assert!(got.results.iter().all(|r| r.len() == 5), "k = {k}");
    }
}

#[test]
fn k_zero_returns_empty() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("k0.mnn"), cfg(4)).unwrap();
    seeded(&db, 10, 4);
    let got = db.search(&[1.0; 4], 0).unwrap();
    assert!(got.results.is_empty());
}

#[test]
fn probes_exceeding_partition_count_clamp() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("p.mnn"), cfg(4)).unwrap();
    seeded(&db, 100, 4);
    db.rebuild().unwrap();
    let got = db
        .search_with(&SearchRequest::new(vec![1.0; 4], 10).with_probes(10_000))
        .unwrap();
    assert_eq!(got.results.len(), 10);
    // Clamped probes == exhaustive: equals exact.
    let exact = db.exact(&[1.0; 4], 10, None).unwrap();
    let a: Vec<i64> = got.results.iter().map(|r| r.asset_id).collect();
    let b: Vec<i64> = exact.results.iter().map(|r| r.asset_id).collect();
    assert_eq!(a, b);
}

#[test]
fn filter_matching_nothing() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("f.mnn"), cfg(4)).unwrap();
    seeded(&db, 50, 4);
    db.rebuild().unwrap();
    for plan in [
        PlanPreference::ForcePreFilter,
        PlanPreference::ForcePostFilter,
    ] {
        let got = db
            .search_with(
                &SearchRequest::new(vec![1.0; 4], 10)
                    .with_filter(Expr::eq("tag", "nonexistent"))
                    .with_plan(plan),
            )
            .unwrap();
        assert!(got.results.is_empty(), "{plan:?} must return empty");
    }
}

#[test]
fn duplicate_vectors_and_ties() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("d.mnn"), cfg(4)).unwrap();
    // 20 identical vectors: results must be deterministic (id order on
    // ties) and include exactly k of them.
    let recs: Vec<VectorRecord> = (0..20)
        .map(|i| VectorRecord::new(i, vec![5.0; 4]))
        .collect();
    db.upsert_batch(&recs).unwrap();
    db.rebuild().unwrap();
    let a = db.exact(&[5.0; 4], 7, None).unwrap();
    let b = db.exact(&[5.0; 4], 7, None).unwrap();
    assert_eq!(a.results, b.results);
    assert_eq!(a.results.len(), 7);
    assert!(a.results.iter().all(|r| r.distance == 0.0));
    let ids: Vec<i64> = a.results.iter().map(|r| r.asset_id).collect();
    assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6], "ties break by id");
}

#[test]
fn nan_and_extreme_vectors_do_not_poison_results() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("n.mnn"), cfg(4)).unwrap();
    db.upsert(VectorRecord::new(1, vec![1.0; 4])).unwrap();
    db.upsert(VectorRecord::new(2, vec![f32::MAX / 2.0; 4]))
        .unwrap();
    db.upsert(VectorRecord::new(3, vec![f32::NAN; 4])).unwrap();
    let got = db.search(&[1.0; 4], 3).unwrap();
    assert_eq!(got.results[0].asset_id, 1);
    // NaN distances sort last; the finite vectors come first.
    assert_eq!(got.results.len(), 3);
    assert!(!got.results[0].distance.is_nan());
    // A rebuild trains on the NaN row too, and must not write it into a
    // centroid: every centroid stays finite, so fsck is clean and every
    // partition can still win a finite vector.
    let rows: Vec<VectorRecord> = (10..70)
        .map(|i| VectorRecord::new(i, vec![(i % 5) as f32 + 2.0; 4]))
        .chain([VectorRecord::new(4, vec![f32::INFINITY, 0.0, 0.0, 0.0])])
        .collect();
    db.upsert_batch(&rows).unwrap();
    db.rebuild().unwrap();
    let report = db.verify_integrity().unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
    let got = db.search(&[1.0; 4], 3).unwrap();
    assert_eq!(got.results[0].asset_id, 1);
    assert_eq!(got.results[0].distance, 0.0);
    // A flush places a NaN row from the delta store without folding it
    // into its partition's centroid.
    db.upsert(VectorRecord::new(5, vec![f32::NAN; 4])).unwrap();
    assert_eq!(db.flush_delta().unwrap().flushed, 1);
    let report = db.verify_integrity().unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
}

#[test]
fn negative_and_large_asset_ids() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("ids.mnn"), cfg(4)).unwrap();
    for id in [i64::MIN, -1, 0, i64::MAX] {
        db.upsert(VectorRecord::new(id, vec![id as f32 % 100.0; 4]))
            .unwrap();
    }
    assert_eq!(db.len().unwrap(), 4);
    for id in [i64::MIN, -1, 0, i64::MAX] {
        assert!(db.contains(id).unwrap(), "id {id}");
        assert!(db.get_vector(id).unwrap().is_some());
    }
    let got = db.search(&[i64::MAX as f32 % 100.0; 4], 1).unwrap();
    assert!(!got.results.is_empty());
    db.delete(i64::MIN).unwrap();
    assert!(!db.contains(i64::MIN).unwrap());
}

#[test]
fn rebuild_twice_is_stable() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("r.mnn"), cfg(8)).unwrap();
    seeded(&db, 300, 8);
    db.rebuild().unwrap();
    let s1 = db.stats().unwrap();
    db.rebuild().unwrap();
    let s2 = db.stats().unwrap();
    assert_eq!(s1.total_vectors, s2.total_vectors);
    assert_eq!(s1.partitions, s2.partitions, "same data, same k");
    // Same query, same results.
    let a = db.exact(&[3.0; 8], 10, None).unwrap();
    db.rebuild().unwrap();
    let b = db.exact(&[3.0; 8], 10, None).unwrap();
    assert_eq!(
        a.results.iter().map(|r| r.asset_id).collect::<Vec<_>>(),
        b.results.iter().map(|r| r.asset_id).collect::<Vec<_>>()
    );
}

/// At dimension 256 a vector row spills its blob to an overflow chain,
/// which a rebuild moves with the row. Twice rebuilt, `exact` answers
/// what a brute-force scan of the inputs answers, bit for bit, and
/// every page of the file is owned once.
#[test]
fn rebuild_moves_rows_whose_vectors_spill() {
    const DIM: usize = 256;
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("r256.mnn"), cfg(DIM)).unwrap();
    let vectors: Vec<Vec<f32>> = (0..400usize)
        .map(|i| {
            (0..DIM)
                .map(|d| (i % 7 * 10) as f32 + ((i * 31 + d * 17) % 101) as f32 / 101.0)
                .collect()
        })
        .collect();
    let records: Vec<VectorRecord> = (vectors.iter().enumerate())
        .map(|(i, v)| VectorRecord::new(i as i64, v.clone()).with_attr("tag", "x"))
        .collect();
    db.upsert_batch(&records).unwrap();
    for _ in 0..2 {
        db.rebuild().unwrap();
        let report = db.verify_integrity().unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
        assert_eq!(report.unreachable_pages, 0);
        let spilled = db.tree_fill().unwrap();
        let vectors_fill = spilled.iter().find(|(t, _)| t == "vectors").unwrap().1;
        assert!(vectors_fill.overflow_pages >= 400, "{vectors_fill:?}");
        for q in [&vectors[3], &vectors[250]] {
            let mut brute: Vec<(u32, i64)> = (vectors.iter().enumerate())
                .map(|(i, v)| (Metric::L2.distance(q, v).to_bits(), i as i64))
                .collect();
            brute.sort_by(|a, b| {
                f32::from_bits(a.0)
                    .total_cmp(&f32::from_bits(b.0))
                    .then(a.1.cmp(&b.1))
            });
            let got: Vec<(u32, i64)> = (db.exact(q, 10, None).unwrap().results.iter())
                .map(|r| (r.distance.to_bits(), r.asset_id))
                .collect();
            assert_eq!(got, brute[..10], "query {:?}", &q[..2]);
        }
    }
}

/// A freelist head pointing at a live `vectors` leaf: the header of a
/// checkpointed file is edited behind the store's back. Reopened, the
/// first allocation refuses the page instead of zeroing it, every row
/// still reads back, and fsck names the leaf as owned twice.
#[test]
fn a_freelist_head_on_a_live_leaf_is_an_error_not_an_overwrite() {
    use micronn::StoreOptions;
    use micronn_storage::{OpenMode, PageData, PageRead, SimVfs};

    let sim = SimVfs::new();
    let path = std::path::Path::new("/sim/freelist.mnn");
    let mut c = cfg(8);
    c.store = StoreOptions {
        sync: SyncMode::Normal,
        vfs: sim.handle(),
        ..c.store
    };
    let db = MicroNN::create(path, c.clone()).unwrap();
    seeded(&db, 600, 8);
    db.rebuild().unwrap();
    assert!(db.checkpoint().unwrap());
    let r = db.database().begin_read();
    let trees = db.database().trees(&r).unwrap();
    let vectors = trees.iter().find(|(name, _)| name == "vectors").unwrap().1;
    let mut leaves = Vec::new();
    vectors
        .visit_pages(&r, |id| {
            leaves.push(id);
            true
        })
        .unwrap();
    let leaf = *(leaves.iter())
        .find(|&&id| r.page(id).unwrap().page_type() == 1)
        .expect("a vectors leaf");
    drop(r);
    let before: Vec<_> = (0..600).map(|i| db.get_vector(i).unwrap()).collect();
    drop(db);

    let file = sim.handle().open(path, OpenMode::Open).unwrap();
    let mut header = PageData::zeroed();
    file.read_exact_at(&mut header[..], 0).unwrap();
    header.put_u32(16, leaf); // freelist head
    header.put_u32(20, header.get_u32(20).max(1)); // free-page count
    file.write_all_at(&header[..], 0).unwrap();

    let db = MicroNN::open(path, c).unwrap();
    let failed = (1000..5000)
        .find_map(|i| db.upsert(VectorRecord::new(i, vec![1.5; 8])).err())
        .expect("some upsert allocates a page");
    assert!(
        failed
            .to_string()
            .contains(&format!("freelist head {leaf}")),
        "{failed}"
    );
    for (i, v) in before.iter().enumerate() {
        assert_eq!(&db.get_vector(i as i64).unwrap(), v, "asset {i}");
    }
    let report = db.verify_integrity().unwrap();
    let twice = format!("page {leaf} is owned twice: by vectors and by freelist");
    assert!(
        report.errors.iter().any(|e| e == &twice),
        "{:?}",
        report.errors
    );
}

/// Page accounting after every operation that reshapes `vectors`: a
/// build, a rebuild, a flush and a split each leave every page of the
/// file owned by exactly one tree, the header or the freelist.
#[test]
fn build_rebuild_flush_and_split_leave_no_page_unreachable() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("pages.mnn"), cfg(8)).unwrap();
    let check = |what: &str| {
        db.checkpoint().unwrap();
        let report = db.verify_integrity().unwrap();
        assert!(report.is_clean(), "{what}: {:?}", report.errors);
        assert_eq!(report.unreachable_pages, 0, "{what}");
    };
    seeded(&db, 500, 8);
    check("build");
    db.rebuild().unwrap();
    check("rebuild");
    let extra: Vec<VectorRecord> = (500..700)
        .map(|i| VectorRecord::new(i, vec![(i % 13) as f32 + 0.5; 8]).with_attr("tag", "odd"))
        .collect();
    db.upsert_batch(&extra).unwrap();
    assert!(db.flush_delta().unwrap().flushed > 0);
    check("flush");
    let largest = (db.partition_sizes().unwrap().into_iter())
        .max_by_key(|&(_, n)| n)
        .unwrap()
        .0;
    db.split_partition(largest).unwrap();
    check("split");
}

#[test]
fn flush_empty_delta_is_a_noop() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("fl.mnn"), cfg(4)).unwrap();
    seeded(&db, 50, 4);
    db.rebuild().unwrap();
    let report = db.flush_delta().unwrap();
    assert_eq!(report.flushed, 0);
    assert_eq!(report.partitions_touched, 0);
}

#[test]
fn backup_is_a_consistent_snapshot() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("src.mnn"), cfg(8)).unwrap();
    seeded(&db, 200, 8);
    db.rebuild().unwrap();
    let backup_path = dir.path().join("backup.mnn");
    db.backup_to(&backup_path).unwrap();
    // Mutate the original after the backup.
    db.delete_batch(&(0..100).collect::<Vec<i64>>()).unwrap();
    assert_eq!(db.len().unwrap(), 100);

    // The backup opens independently with the pre-mutation state.
    let mut open_cfg = Config::default();
    open_cfg.store.sync = SyncMode::Off;
    let restored = MicroNN::open(&backup_path, open_cfg).unwrap();
    assert_eq!(restored.len().unwrap(), 200);
    let got = restored.search(&[3.0; 8], 5).unwrap();
    assert!(!got.results.is_empty());
    // Hybrid machinery (indexes, stats) survived the copy.
    let got = restored
        .search_with(&SearchRequest::new(vec![3.0; 8], 5).with_filter(Expr::eq("tag", "even")))
        .unwrap();
    assert!(got.results.iter().all(|r| r.asset_id % 2 == 0));
}

#[test]
fn backup_under_concurrent_writer_is_consistent() {
    // The quiescent-backup test above proves the copy is usable; this
    // one proves the *snapshot* claim: backups taken while a writer is
    // churning upserts, deletes, and maintenance must each open
    // cleanly, pass the full integrity walk, and contain no torn
    // multi-table transaction.
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("src.mnn"), cfg(8)).unwrap();
    seeded(&db, 300, 8);
    db.rebuild().unwrap();

    let stop = std::sync::atomic::AtomicBool::new(false);
    let backups: Vec<std::path::PathBuf> = (0..5)
        .map(|i| dir.path().join(format!("backup-{i}.mnn")))
        .collect();
    std::thread::scope(|s| {
        let writer_db = db.clone();
        let stop_ref = &stop;
        s.spawn(move || {
            let mut i = 0i64;
            while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                let id = 1000 + (i % 200);
                writer_db
                    .upsert(VectorRecord::new(id, vec![(i % 17) as f32; 8]))
                    .unwrap();
                if i % 3 == 0 {
                    writer_db.delete(i % 300).unwrap();
                }
                if i % 25 == 0 {
                    writer_db.maybe_maintain().unwrap();
                }
                i += 1;
            }
        });
        for b in &backups {
            db.backup_to(b).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    for b in &backups {
        let mut open_cfg = Config::default();
        open_cfg.store.sync = SyncMode::Off;
        let restored = MicroNN::open(b, open_cfg).unwrap();
        let report = restored.verify_integrity().unwrap();
        assert!(
            report.is_clean(),
            "backup {} is torn: {:?}",
            b.display(),
            report.errors
        );
        assert!(restored.len().unwrap() > 0);
        // And it is a live database, not just a readable one.
        let got = restored.search(&[3.0; 8], 5).unwrap();
        assert!(!got.results.is_empty());
    }
    // The source itself stays clean after the churn.
    assert!(db.verify_integrity().unwrap().is_clean());
}

#[test]
fn create_on_existing_path_fails_cleanly() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("dup.mnn");
    let _db = MicroNN::create(&path, cfg(4)).unwrap();
    assert!(MicroNN::create(&path, cfg(4)).is_err());
}

#[test]
fn concurrent_batch_and_single_searches() {
    let dir = tempfile::tempdir().unwrap();
    let db = MicroNN::create(dir.path().join("c.mnn"), cfg(8)).unwrap();
    seeded(&db, 500, 8);
    db.rebuild().unwrap();
    // Batch and single searches share the worker pool; run them from
    // several threads at once to shake out pool deadlocks.
    std::thread::scope(|s| {
        for t in 0..4 {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..20 {
                    let q = vec![((t * 20 + i) % 13) as f32; 8];
                    if i % 2 == 0 {
                        let r = db.search(&q, 5).unwrap();
                        assert!(r.results.len() <= 5);
                    } else {
                        let qs = vec![q.clone(), q];
                        let r = db.batch_search(&qs, 5, None).unwrap();
                        assert_eq!(r.results.len(), 2);
                    }
                }
            });
        }
    });
}

/// Node images are validated once, where their bytes enter the buffer
/// pool, not on every fetch. A cell header corrupted *on disk* — in an
/// interior node or in a leaf — must still surface as
/// `StorageError::Corrupt` from every read path (the scan frame, the
/// point readers behind the filter join / `get_vector`, and fsck's
/// full walk), never as an out-of-bounds panic in the zero-copy cell
/// accessors.
#[test]
fn corrupt_cell_headers_on_disk_are_errors_on_every_read_path() {
    use micronn::{Error, StoreOptions};
    use micronn_rel::RelError;
    use micronn_storage::{OpenMode, SimVfs, StorageError, PAGE_SIZE};

    const LEAF: u8 = 1;
    const INTERIOR: u8 = 2;
    let is_corrupt =
        |e: &Error| matches!(e, Error::Rel(RelError::Storage(StorageError::Corrupt(_))));

    for kind in [INTERIOR, LEAF] {
        let sim = SimVfs::new();
        let path = std::path::Path::new("/sim/corrupt.mnn");
        let mut c = cfg(8);
        c.store = StoreOptions {
            sync: SyncMode::Normal,
            vfs: sim.handle(),
            ..c.store
        };
        c.workers = 1;
        let db = MicroNN::create(path, c).unwrap();
        seeded(&db, 3000, 8);
        db.rebuild().unwrap();
        assert!(
            db.checkpoint().unwrap(),
            "every image now lives in the main file"
        );

        // Overwrite the key length in the first cell header of every
        // node page of this kind, behind the open handle's back.
        let file = sim.handle().open(path, OpenMode::Open).unwrap();
        let pages = file.len().unwrap() as usize / PAGE_SIZE;
        let mut hit = 0;
        for id in 1..pages {
            let mut page = vec![0u8; PAGE_SIZE];
            let at = (id * PAGE_SIZE) as u64;
            file.read_exact_at(&mut page, at).unwrap();
            let ncells = u16::from_le_bytes([page[2], page[3]]);
            if page[0] != kind || ncells == 0 {
                continue;
            }
            let cell = u16::from_le_bytes([page[16], page[17]]) as u64;
            let key_len = if kind == LEAF { cell } else { cell + 4 };
            file.write_all_at(&[0xFF, 0xFF], at + key_len).unwrap();
            hit += 1;
        }
        assert!(hit > 0, "kind {kind}: the file has such pages");
        db.purge_caches();

        let q = vec![3.0f32; 8];
        let filtered = SearchRequest::new(q.clone(), 5)
            .with_filter(Expr::eq("tag", "even"))
            .with_plan(PlanPreference::ForcePostFilter);
        let outcomes = [
            ("search", db.search(&q, 5).err()),
            ("post-filter", db.search_with(&filtered).err()),
            ("exact", db.exact(&q, 5, None).err()),
            ("get_vector", db.get_vector(7).err()),
            ("fsck", db.verify_integrity().err()),
        ];
        for (what, err) in outcomes {
            let err = err.unwrap_or_else(|| panic!("kind {kind}: {what} read corrupt pages fine"));
            assert!(is_corrupt(&err), "kind {kind}: {what} failed with {err}");
        }
    }
}
