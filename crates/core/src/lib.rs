//! # MicroNN — an on-device, disk-resident, updatable vector database
//!
//! A from-scratch reproduction of *"MicroNN: An On-device Disk-resident
//! Updatable Vector Database"* (Pound et al., SIGMOD 2025). MicroNN is
//! an embedded nearest-neighbour search engine for memory-constrained
//! environments:
//!
//! * **Disk-resident IVF index** over relational storage: vectors live
//!   in a table clustered on `(partition, vid)` so each partition is one
//!   contiguous key range (a run of B+tree leaves); queries run in
//!   bounded memory through a page cache (§3.1–3.3).
//! * **Streaming updates** with upsert/delete semantics through a delta
//!   store that every query scans, plus incremental maintenance: delta
//!   flushes, local partition splits/merges (the [`maintain::lifecycle`]
//!   subsystem with its background [`IndexMaintainer`]), and a
//!   growth-triggered full rebuild as a rare fallback (§3.6).
//! * **ACID semantics**: single serialized writer, snapshot-isolated
//!   readers, WAL crash recovery — provided by the bundled storage
//!   engine (the paper uses SQLite). The claims are enforced by a
//!   crash-injection harness that cuts power at every write/fsync and
//!   by [`MicroNN::verify_integrity`] (`micronnctl fsck`), which
//!   cross-checks every inter-table invariant (see [`integrity`]).
//! * **Hybrid queries**: attribute filters (comparisons + full-text
//!   `MATCH`) combined with vector search, with a selectivity-based
//!   optimizer choosing pre- vs post-filtering (§3.5).
//! * **Batch multi-query optimization**: partition scans shared across
//!   a query batch (§3.4) by the one executor every query runs (a
//!   single query is a batch of one); each row is scored in place per
//!   query with the single-query kernels, not by a matrix
//!   multiplication, so batch and single-query answers are identical.
//! * **Pluggable vector codecs** ([`VectorCodec`]): the default `F32`
//!   scans full-precision vectors; `Sq8` scans per-partition
//!   scalar-quantized u8 codes (~4× fewer payload bytes) and `Sq4`
//!   4-bit fastscan blocks (~8× fewer); both re-rank the top
//!   `rerank_factor·k` candidates exactly.
//!
//! ## Quickstart
//!
//! ```
//! use micronn::{AttributeDef, Config, Expr, MicroNN, Metric, Value, ValueType, VectorRecord};
//!
//! let dir = tempfile::tempdir().unwrap();
//! let mut config = Config::new(4, Metric::L2);
//! config.attributes = vec![AttributeDef::indexed("location", ValueType::Text)];
//! let db = MicroNN::create(dir.path().join("photos.mnn"), config).unwrap();
//!
//! // Ingest (upserts land in the delta store, searchable immediately).
//! for i in 0..500i64 {
//!     let v = vec![i as f32, (i % 7) as f32, 0.0, 1.0];
//!     let loc = if i % 10 == 0 { "Seattle" } else { "NYC" };
//!     db.upsert(VectorRecord::new(i, v).with_attr("location", loc)).unwrap();
//! }
//! // Build the IVF index (atomic; readers never block).
//! db.rebuild().unwrap();
//!
//! // Plain ANN.
//! let hits = db.search(&[42.0, 0.0, 0.0, 1.0], 5).unwrap();
//! assert_eq!(hits.results.len(), 5);
//!
//! // Hybrid: nearest neighbours in Seattle (optimizer picks the plan).
//! let req = micronn::SearchRequest::new(vec![42.0, 0.0, 0.0, 1.0], 5)
//!     .with_filter(Expr::eq("location", "Seattle"));
//! let hits = db.search_with(&req).unwrap();
//! assert!(!hits.results.is_empty());
//! # let _ = Value::Null;
//! ```

pub mod batch;
pub mod build;
mod catalog;
pub mod codec;
pub mod config;
pub mod db;
pub mod error;
mod exec;
pub mod hybrid;
pub mod integrity;
pub mod maintain;
mod pool;
pub mod search;
pub mod snapshot;
pub mod stats;
pub(crate) mod telemetry;

pub use batch::BatchResponse;
pub use build::{RebuildOptions, RebuildReport};
pub use codec::VectorCodec;
pub use config::{AttributeDef, Config, DeviceProfile};
pub use db::{MicroNN, VectorRecord, DELTA_PARTITION};
pub use error::{Error, Result};
#[cfg(feature = "rerank-oracle")]
#[doc(hidden)]
pub use exec::rerank_oracle;
pub use hybrid::{PlanPreference, SearchRequest};
pub use integrity::IntegrityReport;
pub use maintain::{
    FlushReport, IndexMaintainer, MaintainerOptions, MaintainerStats, MaintenanceAction,
    MaintenanceReport, MaintenanceStatus, MergeReport, RetrainReport, SplitReport,
};
pub use search::{SearchResponse, SearchResult};
pub use snapshot::Snapshot;
pub use stats::{DbStats, PlanUsed, QueryInfo};

// Re-export the vocabulary types callers need from the substrates.
pub use micronn_linalg::Metric;
pub use micronn_rel::{Expr, Value, ValueType};
pub use micronn_storage::{Occupancy, StoreOptions, SyncMode};
pub use micronn_telemetry::{
    CollectingSink, HistogramSnapshot, MetricSnapshot, RegistrySnapshot, SlowQueryRecord, Span,
    TraceSink,
};
