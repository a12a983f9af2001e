//! `micronn-ledger`: the perf ledger of the MicroNN reproduction.
//! See `README.md` in this directory.

pub mod build;
pub mod inputs;
pub mod layers;
pub mod model;
pub mod quiet;
pub mod report;
pub mod rounds;
pub mod run;
pub mod trace;
pub mod vfs;
pub mod workload;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where run data and traces go: `ledger/out` from the repository
/// root (how the benchmark command runs), `out` from this package's
/// own directory (how `cargo test` runs). Both name the same place,
/// inside the checkout and ignored by git.
pub fn out_root() -> PathBuf {
    if std::path::Path::new("ledger/Cargo.toml").is_file() {
        PathBuf::from("ledger/out")
    } else {
        PathBuf::from("out")
    }
}

/// Creates a fresh, uniquely named directory under [`out_root`].
pub fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let root = out_root();
    loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&root).expect("create the ledger's out directory");
        match std::fs::create_dir(&dir) {
            Ok(()) => return dir,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => panic!("create {}: {e}", dir.display()),
        }
    }
}
