//! `micronn-storage`: the transactional storage substrate of the MicroNN
//! reproduction.
//!
//! The MicroNN paper (§3.2) builds on SQLite in WAL mode for four
//! properties: page-granular disk residency, clustered B-tree storage,
//! write-ahead logging with snapshot-isolated readers and a single
//! serialized writer, and durable crash recovery. This crate implements
//! that substrate from scratch:
//!
//! * [`Store`] — a single-file page store with a page-image write-ahead
//!   log ([`wal`]), a bounded buffer pool ([`pool`]) with eviction and
//!   I/O accounting, and single-writer / multi-reader transactions with
//!   snapshot isolation ([`Store::begin_read`] / [`Store::begin_write`]).
//!   All file I/O flows through the [`vfs`] boundary: [`StdVfs`] in
//!   production, and the deterministic crash-injecting [`sim::SimVfs`]
//!   in the recovery harnesses.
//! * [`BTree`] — an ordered byte-key/byte-value B+tree with range scans,
//!   overflow chains for large values, and delete rebalancing. Tables in
//!   `micronn-rel` cluster rows on their encoded primary key through this
//!   tree, which is how the IVF partition locality of the paper is
//!   realized: a partition is one run of leaves in key order, and
//!   [`BTree::rewrite`] lays a rewritten tree's leaves on ascending page
//!   ids, which a cold scan reads a run at a time
//!   ([`PageRead::page_scan_run`]).
//!
//! # Example
//!
//! ```
//! use micronn_storage::{PageRead, Store, StoreOptions, BTree};
//!
//! let dir = tempfile::tempdir().unwrap();
//! let store = Store::create(dir.path().join("db.mnn"), StoreOptions::default()).unwrap();
//!
//! // Writer: create a tree, insert, commit.
//! let mut txn = store.begin_write().unwrap();
//! let tree = BTree::create(&mut txn).unwrap();
//! tree.insert(&mut txn, b"hello", b"world").unwrap();
//! txn.set_root(0, tree.root());
//! txn.commit().unwrap();
//!
//! // Reader: snapshot-isolated lookup.
//! let read = store.begin_read();
//! let tree = BTree::open(read.root(0));
//! assert_eq!(tree.get(&read, b"hello").unwrap().as_deref(), Some(&b"world"[..]));
//! ```

pub mod btree;
pub mod checksum;
pub mod error;
mod hash;
pub mod page;
pub mod pool;
pub mod sim;
pub mod stats;
pub mod store;
pub mod vfs;
pub mod wal;

pub use btree::{BTree, Cursor, Occupancy, PointReader};
pub use error::{Result, StorageError};
pub use page::{PageData, PageId, PAGE_SIZE};
pub use pool::Access;
pub use sim::{CrashPlan, PowerCut, SimVfs};
pub use stats::{IoStats, StoreStats};
pub use store::{PageRead, ReadTxn, Store, StoreOptions, SyncMode, WriteTxn, NUM_ROOTS};
pub use vfs::{OpenMode, StdVfs, Vfs, VfsFile};
