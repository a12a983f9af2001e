//! `micronnctl` whose stdout reader is gone (`micronnctl fsck db | head
//! -1`) ends quietly: no panic, and the exit status its work earned.

use std::process::{Command, Stdio};

use micronn::{Config, Metric, MicroNN, SyncMode, VectorRecord};

#[test]
fn fsck_and_status_survive_a_closed_stdout() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("db.mnn");
    let mut cfg = Config::new(4, Metric::L2);
    cfg.store.sync = SyncMode::Off;
    cfg.target_partition_size = 10;
    let db = MicroNN::create(&path, cfg).unwrap();
    let records: Vec<VectorRecord> = (0..100)
        .map(|i| VectorRecord::new(i, vec![i as f32, (i % 7) as f32, 1.0, -1.0]))
        .collect();
    db.upsert_batch(&records).unwrap();
    db.rebuild().unwrap();
    drop(db);

    for cmd in ["fsck", "status"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_micronnctl"))
            .arg(cmd)
            .arg(&path)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // Close the read end before the child has opened the database,
        // so every line it prints meets a broken pipe.
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{cmd}: {stderr}");
        assert!(out.status.success(), "{cmd}: {:?} {stderr}", out.status);
    }
}
