//! The crash-recovery harness: proves the durability claims stacked on
//! the WAL page store by actually crashing at *every* injection point.
//!
//! The database runs on [`SimVfs`], which counts every mutating file
//! operation (write, truncate, fsync). One clean pass measures the
//! workload's operation stream; the loop then re-runs the workload
//! once per injection point, interrupting the Nth operation — under
//! three power-loss policies per point — reopens the database from
//! the surviving bytes, and asserts:
//!
//! * reopen succeeds (WAL recovery stops at the last valid commit);
//! * [`MicroNN::verify_integrity`] — the `micronnctl fsck` walker —
//!   finds no partial multi-table transaction;
//! * every operation acknowledged before the crash is present: the
//!   recovered asset→vector map equals the in-memory model after the
//!   acked prefix (the in-flight operation may additionally have
//!   committed — its sync can land before the ack returns);
//! * the database accepts new writes after recovery.
//!
//! The workload covers upsert, delete, delta flush, partition split,
//! partition merge, checkpoint, and full rebuild, under the F32, SQ8,
//! and SQ4 codecs. `MICRONN_CRASH_POINTS` bounds the number of
//! injection points per run (`0` / unset = every point), mirroring the
//! `MICRONN_CHURN_OPS` pattern, so CI stays fast while local runs can
//! be exhaustive.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use micronn::{Config, Metric, MicroNN, SyncMode, VectorCodec, VectorRecord};
use micronn_storage::{CrashPlan, OpenMode, PowerCut, SimVfs, Vfs};

const DIM: usize = 8;

type Model = BTreeMap<i64, Vec<f32>>;

fn cfg(codec: VectorCodec, sim: &SimVfs) -> Config {
    let mut c = Config::new(DIM, Metric::L2);
    c.codec = codec;
    c.store.sync = SyncMode::Normal; // acked commits must survive power loss
    c.store.vfs = sim.handle();
    c.store.spill_after_pages = 16; // exercise the WAL spill path
    c.store.checkpoint_after_frames = 64; // and mid-workload checkpoints
    c.target_partition_size = 8;
    c.delta_flush_threshold = 16;
    c.split_limit = 1.5;
    c.merge_limit = 0.3;
    c.workers = 1;
    c
}

/// Deterministic vectors: ids below 1000 form four well-separated
/// clusters; ids from 1000 pile onto cluster 0 (split pressure).
fn vecf(id: i64) -> Vec<f32> {
    let (anchor, jitter) = if id >= 1000 {
        (0.0, (id - 1000) as f32 * 0.01)
    } else {
        ((id.rem_euclid(4)) as f32 * 100.0, id as f32 * 0.01)
    };
    (0..DIM).map(|j| anchor + jitter + j as f32 * 0.1).collect()
}

fn recs(ids: impl Iterator<Item = i64>) -> Vec<VectorRecord> {
    ids.map(|i| VectorRecord::new(i, vecf(i))).collect()
}

/// One workload step == one public API call (at most one acked commit
/// for model-visible steps; maintenance may commit several times but
/// never changes the asset→vector map).
#[derive(Debug, Clone)]
enum Step {
    Upsert(Vec<VectorRecord>),
    Delete(Vec<i64>),
    Flush,
    Maintain,
    Checkpoint,
    Rebuild,
}

fn workload() -> Vec<Step> {
    vec![
        Step::Upsert(recs(0..48)),
        Step::Rebuild,
        Step::Upsert(recs(48..72)),
        Step::Delete((0..72).step_by(5).collect()),
        Step::Flush,
        // Pile 30 vectors onto cluster 0 and fold them in: at least one
        // partition blows past split_limit × target.
        Step::Upsert(recs(1000..1030)),
        Step::Flush,
        Step::Maintain,
        // Empty out cluster 1: its partitions drop under merge_limit.
        Step::Delete((0..72).filter(|i| i % 4 == 1).collect()),
        Step::Maintain,
        Step::Checkpoint,
        Step::Upsert(recs(72..82)),
        // Re-upsert live assets with identical vectors, from a partition
        // and from the delta: commits that leave pages they dirtied
        // (the header, the row-count leaf) out of the log.
        Step::Upsert(recs([2, 3, 72, 73].into_iter())),
        Step::Rebuild,
    ]
}

fn apply_model(model: &mut Model, step: &Step) {
    match step {
        Step::Upsert(rs) => {
            for r in rs {
                model.insert(r.asset_id, r.vector.clone());
            }
        }
        Step::Delete(ids) => {
            for id in ids {
                model.remove(id);
            }
        }
        _ => {}
    }
}

fn apply_step(db: &MicroNN, step: &Step) -> micronn::Result<(usize, usize)> {
    match step {
        Step::Upsert(rs) => db.upsert_batch(rs).map(|()| (0, 0)),
        Step::Delete(ids) => db.delete_batch(ids).map(|_| (0, 0)),
        Step::Flush => db.flush_delta().map(|_| (0, 0)),
        Step::Maintain => db.maybe_maintain().map(|rep| (rep.splits(), rep.merges())),
        Step::Checkpoint => db.checkpoint().map(|_| (0, 0)),
        Step::Rebuild => db.rebuild().map(|_| (0, 0)),
    }
}

/// Runs the workload until completion or the first error. Returns the
/// number of acked steps, the model after every acked prefix, and the
/// error message if one interrupted the run.
fn run_workload(db: &MicroNN) -> (usize, Vec<Model>, (usize, usize), Option<String>) {
    let mut snapshots = vec![Model::new()];
    let mut model = Model::new();
    let mut acked = 0usize;
    let mut lifecycle = (0usize, 0usize);
    for step in workload() {
        match apply_step(db, &step) {
            Ok((s, m)) => {
                lifecycle.0 += s;
                lifecycle.1 += m;
                apply_model(&mut model, &step);
                snapshots.push(model.clone());
                acked += 1;
            }
            Err(e) => return (acked, snapshots, lifecycle, Some(e.to_string())),
        }
    }
    (acked, snapshots, lifecycle, None)
}

/// Asserts the recovered database equals `model` exactly.
fn assert_matches_model(db: &MicroNN, model: &Model) -> bool {
    if db.len().unwrap() != model.len() as u64 {
        return false;
    }
    model
        .iter()
        .all(|(&id, v)| db.get_vector(id).unwrap().as_ref() == Some(v))
}

fn crash_points_cap() -> u64 {
    std::env::var("MICRONN_CRASH_POINTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn db_path() -> PathBuf {
    PathBuf::from("/sim/crash.mnn")
}

/// Clean pass: measures the operation stream and asserts the workload
/// actually covers splits and merges (otherwise the loop would be
/// proving less than it claims).
fn measure(codec: VectorCodec) -> u64 {
    let sim = SimVfs::new();
    let db = MicroNN::create(db_path(), cfg(codec, &sim)).unwrap();
    sim.arm(CrashPlan {
        at_op: u64::MAX,
        torn_eighths: None,
    }); // count from here, never fire
    let (acked, _, (splits, merges), err) = run_workload(&db);
    assert_eq!(err, None, "clean run must not fail");
    assert_eq!(acked, workload().len());
    assert!(splits >= 1, "workload must exercise a partition split");
    assert!(merges >= 1, "workload must exercise a partition merge");
    assert!(db.verify_integrity().unwrap().is_clean());
    let (writes, syncs, _) = sim.recorded();
    assert!(writes > 0 && syncs > 0, "SimVfs records writes and syncs");
    sim.ops()
}

/// One crash run: returns a fingerprint of the recovered state (for
/// the determinism test).
fn crash_run(
    codec: VectorCodec,
    at_op: u64,
    torn_eighths: Option<u8>,
    policy: PowerCut,
) -> Vec<(i64, u64)> {
    let sim = SimVfs::new();
    let path = db_path();
    let db = MicroNN::create(&path, cfg(codec, &sim)).unwrap();
    sim.arm(CrashPlan {
        at_op,
        torn_eighths,
    });
    let (acked, snapshots, _, err) = run_workload(&db);
    let label = format!("codec {codec}, crash at op {at_op}, {policy:?}");
    let err = err.unwrap_or_else(|| panic!("{label}: workload finished before the crash point"));
    assert!(
        err.contains("simulated crash"),
        "{label}: workload failed with a non-crash error: {err}"
    );
    drop(db);
    sim.power_cut(policy);

    // Reopen from exactly the surviving bytes.
    let db = MicroNN::open(&path, cfg(codec, &sim))
        .unwrap_or_else(|e| panic!("{label}: reopen failed: {e}"));
    let report = db.verify_integrity().unwrap();
    assert!(
        report.is_clean(),
        "{label}: fsck found partial transactions: {:?} ({report})",
        report.errors
    );
    // Prefix consistency: every acked op is durable; the in-flight op
    // (the one the crash interrupted) may additionally have committed —
    // its WAL sync can land before the ack returns.
    let inflight = {
        let mut m = snapshots[acked].clone();
        if let Some(step) = workload().get(acked) {
            apply_model(&mut m, step);
        }
        m
    };
    let matched =
        assert_matches_model(&db, &snapshots[acked]) || assert_matches_model(&db, &inflight);
    assert!(
        matched,
        "{label}: recovered state matches neither the {acked}-op nor the {}-op prefix \
         (len {} vs {} / {})",
        acked + 1,
        db.len().unwrap(),
        snapshots[acked].len(),
        inflight.len(),
    );

    // The recovered database must accept new work.
    let probe = vec![-500.0; DIM]; // far from every workload cluster
    db.upsert(VectorRecord::new(99_999, probe.clone())).unwrap();
    assert!(db.contains(99_999).unwrap());
    let hits = db.search(&probe, 1).unwrap();
    assert_eq!(hits.results[0].asset_id, 99_999);
    assert!(db.delete(99_999).unwrap());
    assert!(db.verify_integrity().unwrap().is_clean());

    db.partition_sizes().unwrap()
}

/// The points to exercise: every injection point, or an evenly-strided
/// subset capped by `MICRONN_CRASH_POINTS`.
fn points(total: u64) -> Vec<u64> {
    let cap = crash_points_cap();
    if cap == 0 || total <= cap {
        (1..=total).collect()
    } else {
        let mut pts: Vec<u64> = (1..=cap).map(|i| i * total / cap).collect();
        pts.dedup();
        pts
    }
}

fn crash_loop(codec: VectorCodec) {
    let total = measure(codec);
    assert!(
        total > 50,
        "workload too small to prove anything: {total} ops"
    );
    for p in points(total) {
        // Process crash at an op boundary: everything written survives.
        crash_run(codec, p, None, PowerCut::KeepAll);
        // Power cut tearing the final write and losing every unsynced
        // write: only synced state survives.
        crash_run(codec, p, Some(4), PowerCut::DropUnsynced);
        // Power cut keeping a seed-deterministic arbitrary subset of
        // unsynced writes (drives reorder freely between barriers).
        crash_run(codec, p, Some(3), PowerCut::KeepSeeded(0x5EED ^ p));
    }
}

#[test]
fn crash_loop_f32() {
    crash_loop(VectorCodec::F32);
}

#[test]
fn crash_loop_sq8() {
    crash_loop(VectorCodec::Sq8);
}

#[test]
fn crash_loop_sq4() {
    // The SQ4 read-modify-write block appends (flush filling
    // tombstoned slots) ride the same transactions as the rows they
    // mirror, so every injection point must recover to a catalog the
    // fsck block-walk accepts.
    crash_loop(VectorCodec::Sq4);
}

/// Same seed → same failure: the whole crash enumeration is
/// deterministic, so any failing point reproduces exactly.
#[test]
fn crash_point_enumeration_is_deterministic() {
    let total = measure(VectorCodec::Sq8);
    for p in [total / 4, total / 2, total - 1] {
        let a = crash_run(VectorCodec::Sq8, p, Some(3), PowerCut::KeepSeeded(7));
        let b = crash_run(VectorCodec::Sq8, p, Some(3), PowerCut::KeepSeeded(7));
        assert_eq!(a, b, "crash at op {p} must recover identically");
    }
}

/// The operation count itself is stable across runs — a canary for
/// nondeterministic write ordering sneaking back into the write paths
/// (hash-ordered iteration, etc.).
#[test]
fn operation_stream_is_stable() {
    let a = measure(VectorCodec::F32);
    let b = measure(VectorCodec::F32);
    assert_eq!(a, b, "two clean runs must issue the same operation stream");
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    (bytes.iter()).fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One clean run of the crash script: `(ops, writes, syncs)` as the
/// VFS counted them, then the main file's and the WAL's bytes.
fn script_bytes(codec: VectorCodec) -> ((u64, u64, u64), Vec<u8>, Vec<u8>) {
    let sim = SimVfs::new();
    let db = MicroNN::create(db_path(), cfg(codec, &sim)).unwrap();
    sim.arm(CrashPlan {
        at_op: u64::MAX,
        torn_eighths: None,
    });
    let (_, _, _, err) = run_workload(&db);
    assert_eq!(err, None, "clean run must not fail");
    let read = |path: &Path| {
        let file = sim.open(path, OpenMode::Open).unwrap();
        let mut bytes = vec![0; file.len().unwrap() as usize];
        file.read_exact_at(&mut bytes, 0).unwrap();
        bytes
    };
    let (writes, syncs, _) = sim.recorded();
    let wal = read(Path::new("/sim/crash.mnn-wal"));
    ((sim.ops(), writes, syncs), read(&db_path()), wal)
}

/// The crash script writes the same bytes every time, per codec. Run
/// with `--nocapture`, the fingerprint lines it prints are the
/// byte-level comparison of two builds: a refactor that must not change
/// the file format prints the same lines before and after.
#[test]
fn script_is_byte_deterministic() {
    for codec in [VectorCodec::F32, VectorCodec::Sq8, VectorCodec::Sq4] {
        let (counts, main, wal) = script_bytes(codec);
        let again = script_bytes(codec);
        assert!(again == (counts, main.clone(), wal.clone()), "{codec}");
        let (ops, writes, syncs) = counts;
        println!(
            "fingerprint {codec}: ops {ops} writes {writes} syncs {syncs} \
             main {} {:016x} wal {} {:016x}",
            main.len(),
            fnv1a(&main),
            wal.len(),
            fnv1a(&wal)
        );
    }
}

/// Backups copy through the configured VFS (not the host file system),
/// so they work — and stay crash-testable — under simulation: a backup
/// taken mid-workload opens independently and passes the full
/// integrity walk.
#[test]
fn backup_goes_through_the_vfs() {
    let sim = SimVfs::new();
    let src = Path::new("/sim/backup-src.mnn");
    let dst = Path::new("/sim/backup-dst.mnn");
    let db = MicroNN::create(src, cfg(VectorCodec::Sq8, &sim)).unwrap();
    db.upsert_batch(&recs(0..60)).unwrap();
    db.rebuild().unwrap();
    db.upsert_batch(&recs(60..70)).unwrap(); // unflushed delta rides along
    db.backup_to(dst).unwrap();
    // Diverge the source after the backup.
    db.delete_batch(&(0..30).collect::<Vec<i64>>()).unwrap();

    let backup = MicroNN::open(dst, cfg(VectorCodec::Sq8, &sim)).unwrap();
    assert_eq!(backup.len().unwrap(), 70, "pre-divergence snapshot");
    assert!(backup.verify_integrity().unwrap().is_clean());
    assert_eq!(db.len().unwrap(), 40, "source unaffected by the backup");
    // Backing up onto the same destination again must not let a stale
    // destination WAL replay over the fresh copy.
    db.checkpoint().unwrap();
    db.backup_to(dst).unwrap();
    let backup = MicroNN::open(dst, cfg(VectorCodec::Sq8, &sim)).unwrap();
    assert_eq!(backup.len().unwrap(), 40);
    assert!(backup.verify_integrity().unwrap().is_clean());
}

/// `open_or_create` probes existence through the configured VFS, so a
/// simulated database reopens (rather than re-creates) after a crash.
#[test]
fn open_or_create_uses_the_vfs() {
    let sim = SimVfs::new();
    let path = Path::new("/sim/ooc.mnn");
    let db = MicroNN::open_or_create(path, cfg(VectorCodec::F32, &sim)).unwrap();
    db.upsert(VectorRecord::new(1, vecf(1))).unwrap();
    drop(db);
    let db = MicroNN::open_or_create(path, cfg(VectorCodec::F32, &sim)).unwrap();
    assert!(db.contains(1).unwrap(), "existing sim file was reopened");
}
