//! Failure injection: simulated crashes, torn writes, and corruption,
//! verifying that recovery always restores exactly the last committed
//! state (§2.1's durability/consistency requirements, inherited from
//! the WAL design). The byte-level corruption tests operate on real
//! files; the power-loss tests run the store on [`SimVfs`] and drop
//! unsynced writes at deterministic points.

use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;

use micronn_storage::{
    BTree, CrashPlan, PageId, PageRead, PowerCut, SimVfs, Store, StoreOptions, SyncMode, PAGE_SIZE,
};

fn opts() -> StoreOptions {
    StoreOptions {
        sync: SyncMode::Off,
        ..Default::default()
    }
}

/// Sets up a store with `commits` committed batches of 10 keys each,
/// returning the path (store dropped = simulated crash: no checkpoint,
/// no clean close).
fn build_and_crash(dir: &std::path::Path, commits: usize) -> std::path::PathBuf {
    let path = dir.join("db");
    let store = Store::create(&path, opts()).unwrap();
    let mut txn = store.begin_write().unwrap();
    let tree = BTree::create(&mut txn).unwrap();
    txn.set_root(0, tree.root());
    txn.commit().unwrap();
    for c in 0..commits {
        let mut txn = store.begin_write().unwrap();
        for i in 0..10 {
            tree.insert(
                &mut txn,
                format!("key-{c:03}-{i:02}").as_bytes(),
                format!("val-{c}-{i}").as_bytes(),
            )
            .unwrap();
        }
        txn.commit().unwrap();
    }
    path
}

fn count_rows(path: &std::path::Path) -> u64 {
    let store = Store::open(path, opts()).unwrap();
    let r = store.begin_read();
    let tree = BTree::open(r.root(0));
    tree.count(&r).unwrap()
}

#[test]
fn torn_wal_tail_loses_only_the_torn_commit() {
    let dir = tempfile::tempdir().unwrap();
    let path = build_and_crash(dir.path(), 5);
    let wal = {
        let mut os = path.as_os_str().to_owned();
        os.push("-wal");
        std::path::PathBuf::from(os)
    };
    // Tear the WAL: truncate to a point strictly inside the last
    // commit's frame batch.
    let len = std::fs::metadata(&wal).unwrap().len();
    let f = OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len - (PAGE_SIZE as u64 / 2)).unwrap();
    drop(f);
    // The torn commit (10 rows) is gone; everything earlier survives.
    let rows = count_rows(&path);
    assert!(rows < 50, "torn tail must drop the last commit, got {rows}");
    assert!(rows >= 40, "earlier commits must survive, got {rows}");
    assert_eq!(rows % 10, 0, "recovery lands on a commit boundary");
}

#[test]
fn corrupted_wal_byte_stops_recovery_at_prior_commit() {
    let dir = tempfile::tempdir().unwrap();
    let path = build_and_crash(dir.path(), 5);
    let wal = {
        let mut os = path.as_os_str().to_owned();
        os.push("-wal");
        std::path::PathBuf::from(os)
    };
    // Flip a payload byte roughly 60% into the log: checksum
    // validation must cut recovery there.
    let len = std::fs::metadata(&wal).unwrap().len();
    let f = OpenOptions::new().write(true).open(&wal).unwrap();
    let mut probe = [0u8; 1];
    let off = len * 6 / 10;
    // Read-modify-write so we definitely change the byte.
    OpenOptions::new()
        .read(true)
        .open(&wal)
        .unwrap()
        .read_exact_at(&mut probe, off)
        .unwrap();
    f.write_all_at(&[probe[0] ^ 0xFF], off).unwrap();
    drop(f);
    let rows = count_rows(&path);
    assert!(rows < 50, "corruption must drop later commits, got {rows}");
    assert_eq!(rows % 10, 0, "recovery lands on a commit boundary");
}

#[test]
fn corrupted_final_commit_frame_checksum_truncates_to_prior_commit() {
    // Regression: the final record of the log is the last transaction's
    // Commit marker. Corrupting its *stored checksum field* (not the
    // page payload) must make recovery drop exactly that transaction
    // and truncate the torn tail — never error the open.
    let dir = tempfile::tempdir().unwrap();
    let path = build_and_crash(dir.path(), 5);
    let wal = {
        let mut os = path.as_os_str().to_owned();
        os.push("-wal");
        std::path::PathBuf::from(os)
    };
    let len = std::fs::metadata(&wal).unwrap().len();
    // Record header layout ends with the checksum as its final 8
    // bytes, and a Commit record is header-only, so the stored
    // checksum of the last Commit occupies the last 8 bytes of
    // the file.
    let ck_off = len - 8;
    let f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&wal)
        .unwrap();
    let mut ck = [0u8; 8];
    f.read_exact_at(&mut ck, ck_off).unwrap();
    ck.iter_mut().for_each(|b| *b ^= 0xA5);
    f.write_all_at(&ck, ck_off).unwrap();
    drop(f);

    let rows = count_rows(&path);
    assert_eq!(rows, 40, "exactly the final commit is lost");
    // The torn tail was truncated: appends stay contiguous and new
    // commits land cleanly after recovery.
    let store = Store::open(&path, opts()).unwrap();
    let r = store.begin_read();
    let tree = BTree::open(r.root(0));
    drop(r);
    let mut txn = store.begin_write().unwrap();
    tree.insert(&mut txn, b"post-recovery", b"ok").unwrap();
    txn.commit().unwrap();
    let r = store.begin_read();
    assert_eq!(tree.count(&r).unwrap(), 41);
    assert_eq!(
        tree.get(&r, b"post-recovery").unwrap(),
        Some(b"ok".to_vec())
    );
}

/// Store options running on a simulated file system with full
/// durability (acked commits must survive a power cut).
fn sim_opts(sim: &SimVfs) -> StoreOptions {
    StoreOptions {
        sync: SyncMode::Normal,
        vfs: sim.handle(),
        ..Default::default()
    }
}

#[test]
fn power_cut_mid_checkpoint_loses_nothing() {
    // A checkpoint copies frames into the main file, syncs it, then
    // truncates the WAL. Crash it at *every* operation along the way
    // and drop all unsynced writes: the WAL replay must restore every
    // committed row no matter where the cut lands.
    let path = std::path::Path::new("/sim/db");
    let total = {
        let sim = SimVfs::new();
        let store = Store::create(path, sim_opts(&sim)).unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        txn.set_root(0, tree.root());
        txn.commit().unwrap();
        for c in 0..20u32 {
            let mut txn = store.begin_write().unwrap();
            tree.insert(&mut txn, &c.to_be_bytes(), b"v").unwrap();
            txn.commit().unwrap();
        }
        sim.arm(CrashPlan {
            at_op: u64::MAX,
            torn_eighths: None,
        });
        assert!(store.checkpoint().unwrap());
        sim.ops()
    };
    assert!(total >= 3, "checkpoint must issue several operations");
    for at_op in 1..=total {
        let sim = SimVfs::new();
        let store = Store::create(path, sim_opts(&sim)).unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        txn.set_root(0, tree.root());
        txn.commit().unwrap();
        for c in 0..20u32 {
            let mut txn = store.begin_write().unwrap();
            tree.insert(&mut txn, &c.to_be_bytes(), b"v").unwrap();
            txn.commit().unwrap();
        }
        sim.arm(CrashPlan {
            at_op,
            torn_eighths: Some(4),
        });
        assert!(
            store.checkpoint().is_err(),
            "checkpoint at op {at_op} must hit the injected crash"
        );
        drop(store);
        sim.power_cut(PowerCut::DropUnsynced);
        let store = Store::open(path, sim_opts(&sim)).unwrap();
        let r = store.begin_read();
        let tree = BTree::open(r.root(0));
        assert_eq!(
            tree.count(&r).unwrap(),
            20,
            "op {at_op}: committed rows lost"
        );
        for c in 0..20u32 {
            assert_eq!(
                tree.get(&r, &c.to_be_bytes()).unwrap(),
                Some(b"v".to_vec()),
                "op {at_op}: row {c} lost"
            );
        }
    }
}

/// A commit that reaches the checkpoint threshold checkpoints inside
/// itself, before its own group fsync. Cut power at every operation of
/// such a commit, keeping arbitrary subsets of unsynced writes: the
/// rewritten pages must recover all old or all new, never a mix of
/// main-file pages from a commit whose WAL records were lost.
#[test]
fn an_auto_checkpoint_never_copies_an_unsynced_commit() {
    const PAGES: usize = 8;
    let path = std::path::Path::new("/sim/db");
    let opts = |sim: &SimVfs| StoreOptions {
        checkpoint_after_frames: PAGES,
        ..sim_opts(sim)
    };
    // Fresh pages of 0xA0, left in the main file by the commit's own
    // auto-checkpoint.
    let setup = |sim: &SimVfs| {
        let store = Store::create(path, opts(sim)).unwrap();
        let mut txn = store.begin_write().unwrap();
        let ids: Vec<PageId> = (0..PAGES).map(|_| txn.allocate_page().unwrap()).collect();
        for &id in &ids {
            txn.page_mut(id).unwrap().fill(0xA0);
        }
        txn.commit().unwrap();
        assert_eq!(store.wal_frames(), 0, "the 0xA0 commit checkpointed");
        (store, ids)
    };
    // The rewrite to 0xB1, which checkpoints inside itself too.
    let rewrite = |store: &Store, ids: &[PageId]| {
        let mut txn = store.begin_write()?;
        for &id in ids {
            txn.page_mut(id)?.fill(0xB1);
        }
        txn.commit()
    };
    let total = {
        let sim = SimVfs::new();
        let (store, ids) = setup(&sim);
        sim.arm(CrashPlan {
            at_op: u64::MAX,
            torn_eighths: None,
        });
        rewrite(&store, &ids).unwrap();
        assert_eq!(store.wal_frames(), 0, "the rewrite checkpointed");
        sim.ops()
    };
    assert!(total > PAGES as u64, "{total} ops");
    for at_op in 1..=total {
        for seed in 0..32 {
            let sim = SimVfs::new();
            let (store, ids) = setup(&sim);
            sim.arm(CrashPlan {
                at_op,
                torn_eighths: None,
            });
            let crashed = rewrite(&store, &ids);
            assert!(crashed.is_err(), "op {at_op}: the crash must fire");
            drop(store);
            sim.power_cut(PowerCut::KeepSeeded(seed));
            let store = Store::open(path, opts(&sim)).unwrap();
            let r = store.begin_read();
            let firsts: Vec<u8> = ids.iter().map(|&id| r.page(id).unwrap()[0]).collect();
            for &id in &ids {
                let page = r.page(id).unwrap();
                assert!(
                    page.iter().all(|&b| b == page[0]),
                    "op {at_op}, seed {seed}: page {id} is torn"
                );
            }
            assert!(
                firsts.iter().all(|&b| b == 0xA0) || firsts.iter().all(|&b| b == 0xB1),
                "op {at_op}, seed {seed}: recovered a mix of old and new pages {firsts:x?}"
            );
        }
    }
}

#[test]
fn power_cut_drops_unsynced_commits_only_with_sync_off() {
    // With SyncMode::Off nothing is promised past the last sync; with
    // Normal, every acked commit survives DropUnsynced.
    for (sync, expect_all) in [(SyncMode::Off, false), (SyncMode::Normal, true)] {
        let sim = SimVfs::new();
        let path = std::path::Path::new("/sim/db");
        let mut o = sim_opts(&sim);
        o.sync = sync;
        {
            let store = Store::create(path, o.clone()).unwrap();
            let mut txn = store.begin_write().unwrap();
            let tree = BTree::create(&mut txn).unwrap();
            txn.set_root(0, tree.root());
            txn.commit().unwrap();
            for c in 0..5u32 {
                let mut txn = store.begin_write().unwrap();
                tree.insert(&mut txn, &c.to_be_bytes(), b"v").unwrap();
                txn.commit().unwrap();
            }
        }
        sim.power_cut(PowerCut::DropUnsynced);
        // Under SyncMode::Off even the header may be unsynced: the
        // open itself is allowed to fail (nothing was promised).
        let rows = match Store::open(path, o) {
            Ok(store) => {
                let r = store.begin_read();
                if r.root(0) != 0 {
                    BTree::open(r.root(0)).count(&r).unwrap()
                } else {
                    0
                }
            }
            Err(e) => {
                assert!(!expect_all, "SyncMode::Normal open failed: {e}");
                0
            }
        };
        if expect_all {
            assert_eq!(rows, 5, "SyncMode::Normal: every acked commit survives");
        } else {
            assert!(rows < 5, "SyncMode::Off: unsynced commits are lost");
        }
    }
}

#[test]
fn deleted_wal_falls_back_to_checkpointed_state() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("db");
    {
        let store = Store::create(&path, opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        txn.set_root(0, tree.root());
        txn.commit().unwrap();
        let mut txn = store.begin_write().unwrap();
        tree.insert(&mut txn, b"durable", b"yes").unwrap();
        txn.commit().unwrap();
        assert!(store.checkpoint().unwrap());
        // Post-checkpoint commit lives only in the WAL.
        let mut txn = store.begin_write().unwrap();
        tree.insert(&mut txn, b"volatile", b"maybe").unwrap();
        txn.commit().unwrap();
    }
    // Simulate losing the WAL file entirely (worst case).
    let mut os = path.as_os_str().to_owned();
    os.push("-wal");
    std::fs::remove_file(std::path::PathBuf::from(os)).unwrap();

    let store = Store::open(&path, opts()).unwrap();
    let r = store.begin_read();
    let tree = BTree::open(r.root(0));
    assert_eq!(tree.get(&r, b"durable").unwrap(), Some(b"yes".to_vec()));
    assert_eq!(tree.get(&r, b"volatile").unwrap(), None);
}

#[test]
fn corrupted_node_pages_error_instead_of_panicking() {
    // Regression (found by driving `fsck` over a byte-corrupted file):
    // garbage inside a B+tree node page used to panic in the zero-copy
    // cell accessors (out-of-range slice). Structural validation where
    // an image is loaded from disk must turn ANY byte corruption into
    // `StorageError::Corrupt` so fsck can report it and keep walking.
    let dir = tempfile::tempdir().unwrap();
    let path = build_and_crash(dir.path(), 8);
    // Fold the WAL into the main file, then shotgun bytes across it.
    {
        let store = Store::open(&path, opts()).unwrap();
        assert!(store.checkpoint().unwrap());
    }
    let len = std::fs::metadata(&path).unwrap().len();
    for trial in 0..16u64 {
        let original = std::fs::read(&path).unwrap();
        {
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            // Deterministic pseudo-random 64-byte blast per trial.
            let off = (trial * 2654435761) % (len - 64);
            f.write_all_at(&[0xFF; 64], off).unwrap();
        }
        let outcome = std::panic::catch_unwind(|| {
            let store = match Store::open(&path, opts()) {
                Ok(s) => s,
                Err(_) => return, // rejected loudly: fine
            };
            let r = store.begin_read();
            let tree = BTree::open(r.root(0));
            // Whatever the corruption hit, traversal must return
            // Ok or Err — never panic.
            let _ = tree.count(&r);
            let _ = tree.get(&r, b"key-003-05");
            if let Ok(cursor) =
                tree.range(&r, std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
            {
                for kv in cursor {
                    if kv.is_err() {
                        break;
                    }
                }
            }
        });
        assert!(outcome.is_ok(), "trial {trial}: corruption caused a panic");
        std::fs::write(&path, original).unwrap();
    }
}

#[test]
fn garbage_main_file_is_rejected_loudly() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("db");
    std::fs::write(&path, vec![0xAB; PAGE_SIZE]).unwrap();
    let err = Store::open(&path, opts()).unwrap_err();
    assert!(err.to_string().contains("header"), "got: {err}");
}

#[test]
fn repeated_crash_recover_cycles_converge() {
    // Crash-loop resilience: open → write → crash, many times; every
    // reopen must recover and accept new writes.
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("db");
    {
        let store = Store::create(&path, opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        txn.set_root(0, tree.root());
        txn.commit().unwrap();
    }
    for round in 0..10u32 {
        let store = Store::open(&path, opts()).unwrap();
        let r = store.begin_read();
        let tree = BTree::open(r.root(0));
        assert_eq!(tree.count(&r).unwrap(), round as u64);
        drop(r);
        let mut txn = store.begin_write().unwrap();
        tree.insert(&mut txn, &round.to_be_bytes(), b"x").unwrap();
        txn.commit().unwrap();
        // Leave an uncommitted txn hanging to make the crash dirtier.
        let mut txn = store.begin_write().unwrap();
        tree.insert(&mut txn, b"zzz-uncommitted", b"x").unwrap();
        std::mem::forget(txn);
        // store dropped here: crash.
    }
    assert_eq!(count_rows(&path), 10);
}

#[test]
fn checkpoint_crash_between_main_write_and_wal_reset_is_safe() {
    // If the process dies after copying frames into the main file but
    // before truncating the WAL, replaying the WAL is idempotent (same
    // page images). Simulate by copying the WAL aside, checkpointing,
    // then restoring the WAL as if truncation never happened.
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("db");
    let wal_path = {
        let mut os = path.as_os_str().to_owned();
        os.push("-wal");
        std::path::PathBuf::from(os)
    };
    {
        let store = Store::create(&path, opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        txn.set_root(0, tree.root());
        for i in 0..200u32 {
            tree.insert(&mut txn, &i.to_be_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        txn.commit().unwrap();
        std::fs::copy(&wal_path, dir.path().join("wal-backup")).unwrap();
        assert!(store.checkpoint().unwrap());
    }
    // "Un-truncate" the WAL: the main file already holds everything.
    std::fs::copy(dir.path().join("wal-backup"), &wal_path).unwrap();
    let store = Store::open(&path, opts()).unwrap();
    let r = store.begin_read();
    let tree = BTree::open(r.root(0));
    assert_eq!(tree.count(&r).unwrap(), 200);
    for i in [0u32, 57, 199] {
        assert_eq!(
            tree.get(&r, &i.to_be_bytes()).unwrap(),
            Some(i.to_le_bytes().to_vec())
        );
    }
}
