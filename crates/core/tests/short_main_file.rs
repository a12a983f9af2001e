//! A main file too short to hold its header page is corrupt, named as
//! such at every layer: `Store::open` returns `Corrupt` naming page 0,
//! `MicroNN::open` carries that error, and `micronnctl status` prints
//! it — never a bare "failed to fill whole buffer".

use std::process::Command;

use micronn::{Config, Error, Metric, MicroNN, SyncMode};
use micronn_rel::RelError;
use micronn_storage::{StorageError, Store, StoreOptions};

const MISSING: &str = "page 0 missing from main file";

#[test]
fn a_main_file_shorter_than_its_header_is_corrupt() {
    let dir = tempfile::tempdir().unwrap();
    let store_opts = || StoreOptions {
        sync: SyncMode::Off,
        ..Default::default()
    };
    let empty = dir.path().join("empty.mnn");
    std::fs::write(&empty, []).unwrap();
    let short = dir.path().join("short.mnn");
    std::fs::write(&short, [0u8; 100]).unwrap();
    let cut = dir.path().join("cut.mnn");
    let mut cfg = Config::new(4, Metric::L2);
    cfg.store = store_opts();
    MicroNN::create(&cut, cfg).unwrap().checkpoint().unwrap();
    let f = std::fs::OpenOptions::new().write(true).open(&cut).unwrap();
    f.set_len(100).unwrap();
    drop(f);

    for path in [&empty, &short, &cut] {
        let at = path.display();
        let err = Store::open(path, store_opts()).unwrap_err();
        assert!(
            matches!(err, StorageError::Corrupt(ref m) if m == MISSING),
            "{at}: Store::open gave {err:?}"
        );

        let err = MicroNN::open(path, Config::default()).unwrap_err();
        assert!(
            matches!(err, Error::Rel(RelError::Storage(StorageError::Corrupt(ref m))) if m == MISSING),
            "{at}: MicroNN::open gave {err:?}"
        );

        let out = Command::new(env!("CARGO_BIN_EXE_micronnctl"))
            .arg("status")
            .arg(path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{at}: status succeeded");
        assert!(stderr.contains(MISSING), "{at}: {stderr}");
        assert!(!stderr.contains("failed to fill"), "{at}: {stderr}");
    }
}
