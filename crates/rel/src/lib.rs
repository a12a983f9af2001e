//! `micronn-rel`: the relational layer of the MicroNN reproduction.
//!
//! MicroNN "adopts a relational storage architecture and leverages a
//! SQLite relational database for efficient storage of vectors and
//! their associated metadata" (§3). This crate is that relational
//! database, built on the [`micronn_storage`] page store:
//!
//! * typed [`Value`]s and [`TableSchema`]s;
//! * order-preserving composite-key encoding ([`keys`]) so rows cluster
//!   on their primary key inside the B+tree — the mechanism behind the
//!   paper's partition data locality (§3.2);
//! * a persistent [`catalog`] of tables, secondary indexes, full-text
//!   indexes and column statistics;
//! * [`Table`] operations (upsert/delete/get/scan) that keep every
//!   index transactionally consistent;
//! * filter [`predicate`]s (comparisons, AND/OR/NOT, FTS `MATCH`);
//! * per-column histograms and the selectivity estimator of §3.5.1
//!   ([`stats`]), which the hybrid query optimizer builds on.
//!
//! # Example
//!
//! ```
//! use micronn_rel::{Database, TableSchema, ColumnDef, Value, ValueType, Expr};
//! use micronn_storage::StoreOptions;
//!
//! let dir = tempfile::tempdir().unwrap();
//! let db = Database::create(dir.path().join("app.db"), StoreOptions::default()).unwrap();
//!
//! let mut txn = db.begin_write().unwrap();
//! let photos = db.create_table(&mut txn, TableSchema::new(
//!     "photos",
//!     vec![
//!         ColumnDef::new("id", ValueType::Integer),
//!         ColumnDef::new("location", ValueType::Text),
//!     ],
//!     &["id"],
//! ).unwrap()).unwrap();
//! photos.upsert(&mut txn, vec![Value::Integer(1), Value::text("Seattle")]).unwrap();
//! txn.commit().unwrap();
//!
//! let r = db.begin_read();
//! let pred = Expr::eq("location", "Seattle").compile(photos.schema()).unwrap();
//! let hits: Vec<_> = photos.scan(&r).unwrap()
//!     .filter(|row| row.as_ref().map(|r| pred.eval(r)).unwrap_or(false))
//!     .collect();
//! assert_eq!(hits.len(), 1);
//! ```

pub mod catalog;
pub mod error;
pub mod fts;
pub mod keys;
pub mod predicate;
pub mod row;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use catalog::Database;
pub use error::{RelError, Result};
pub use keys::{decode_int_key, decode_key, encode_key, encode_key_into};
pub use predicate::{CmpOp, Columns, Compiled, Expr};
pub use row::{
    blob_into_f32, blob_to_f32, decode_row, encode_row, f32_to_blob, ints_then_blob, EncodedRow,
    RowDecoder,
};
pub use schema::{ColumnDef, TableSchema};
pub use stats::{
    analyze_table, estimate_cardinality, estimate_selectivity, ColumnStats, TableStats,
};
pub use table::{FtsDef, IndexDef, RowReader, Table};
pub use value::{Value, ValueRef, ValueType};
