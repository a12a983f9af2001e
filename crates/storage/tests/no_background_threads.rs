//! A `Store` runs on its callers' threads only: opening, committing,
//! checkpointing and cold reads spawn nothing. Its own test binary, so
//! no other test's threads come and go while the count is taken.

#![cfg(target_os = "linux")]

use micronn_storage::{BTree, PageRead, Store, StoreOptions};

/// Threads of this process, as Linux lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn a_store_spawns_no_threads() {
    let before = threads();
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("db");

    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let mut txn = store.begin_write().unwrap();
    let tree = BTree::create(&mut txn).unwrap();
    txn.set_root(0, tree.root());
    txn.commit().unwrap();
    drop(store);

    let store = Store::open(&path, StoreOptions::default()).unwrap();
    let mut txn = store.begin_write().unwrap();
    for i in 0..2000u32 {
        let key = format!("key-{i:05}");
        tree.insert(&mut txn, key.as_bytes(), &[7u8; 100]).unwrap();
    }
    txn.commit().unwrap();
    assert!(store.checkpoint().unwrap());
    store.purge_cache();

    let r = store.begin_read();
    assert!(r.page_count() > 10, "the tree spans many pages");
    for id in 0..r.page_count() {
        r.page(id).unwrap();
    }
    assert!(store.stats().disk_reads() >= u64::from(r.page_count()));
    assert_eq!(threads(), before, "the store started a thread");
}
