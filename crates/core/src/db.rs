//! The MicroNN database handle: streaming updates and the shared,
//! snapshot-keyed caches. The storage schema is `catalog.rs`'s.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use micronn_cluster::Clustering;
use micronn_linalg::{Metric, Sq8Params};
use micronn_rel::{Database, RelError, TableStats, Value};
use micronn_storage::PageRead;

use crate::build::CLUSTERING_SEED;
use crate::catalog::{Counter, Loc, Tables, Writer};
use crate::centroid_index::{self, CentroidIndex};
use crate::codec::VectorCodec;
use crate::config::Config;
use crate::error::{Error, Result};

/// The reserved partition id of the delta store (§3.6).
pub const DELTA_PARTITION: i64 = 0;

/// One vector record: the unit of ingestion.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorRecord {
    /// Client-assigned asset identifier (upsert key).
    pub asset_id: i64,
    /// The embedding; must match the index dimension.
    pub vector: Vec<f32>,
    /// Attribute values by name; attributes omitted here are NULL.
    pub attributes: Vec<(String, Value)>,
}

impl VectorRecord {
    /// A record with no attributes.
    pub fn new(asset_id: i64, vector: Vec<f32>) -> VectorRecord {
        VectorRecord {
            asset_id,
            vector,
            attributes: Vec::new(),
        }
    }

    /// Adds an attribute value.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<Value>) -> VectorRecord {
        self.attributes.push((name.into(), value.into()));
        self
    }
}

/// The loaded IVF quantizer: centroids, their partition ids, and (for
/// large `k`) the two-level centroid index of §3.2's extension.
#[derive(Clone)]
pub(crate) struct LoadedIndex {
    pub clustering: Arc<Clustering>,
    /// Partition id per centroid index.
    pub partitions: Arc<Vec<i64>>,
    pub super_index: Option<Arc<CentroidIndex>>,
    /// The index epoch this quantizer is the state of: what a scan
    /// hands to [`Inner::partition_params`], so it reads the epoch once.
    pub epoch: i64,
}

impl LoadedIndex {
    /// The `n` nearest partitions to `x` (ascending by centroid
    /// distance), through the hierarchy when one exists.
    pub fn nearest_partitions(&self, x: &[f32], n: usize) -> Vec<i64> {
        let ranked = match &self.super_index {
            Some(idx) => idx.nearest_n(&self.clustering, x, n),
            None => self.clustering.nearest_n(x, n),
        };
        ranked
            .into_iter()
            .map(|(ci, _)| self.partitions[ci])
            .collect()
    }
}

/// One value derived from a committed snapshot and shared between
/// readers: the centroid index and quantization ranges are keyed on
/// the index epoch, attribute statistics on the exact commit seq.
///
/// Protocol: only a committed read snapshot may look up or publish — a
/// mid-transaction writer may have changed rows before its epoch bump,
/// and a rolled-back writer's view never existed — and an entry
/// published from an older snapshot never replaces one from a newer.
pub(crate) struct SnapCache<K, V>(RwLock<Option<(K, u64, V)>>);

impl<K, V> Default for SnapCache<K, V> {
    fn default() -> Self {
        SnapCache(RwLock::new(None))
    }
}

impl<K: PartialEq, V> SnapCache<K, V> {
    /// What `f` makes of the cached value, if the reader is a committed
    /// snapshot (`snap`, its [`PageRead::committed_snapshot`]) and one
    /// was published under `key`.
    pub fn lookup<T>(
        &self,
        snap: Option<u64>,
        key: &K,
        f: impl FnOnce(&V) -> Option<T>,
    ) -> Option<T> {
        let guard = self.0.read();
        let entry = guard.as_ref().filter(|e| snap.is_some() && e.0 == *key);
        entry.and_then(|e| f(&e.2))
    }

    /// Publishes, under `key`, the value a reader at committed snapshot
    /// `snap` loaded; no-op for any other reader. `merge` receives the
    /// entry already cached under the same key, if any (equal keys
    /// imply equal underlying state, so folding the two together is
    /// sound); an entry under another key is replaced unless it came
    /// from a newer snapshot.
    pub fn publish(&self, snap: Option<u64>, key: K, merge: impl FnOnce(Option<V>) -> V) {
        let Some(seq) = snap else { return };
        let mut guard = self.0.write();
        *guard = match guard.take() {
            Some((k, s, v)) if k == key => Some((key, s.max(seq), merge(Some(v)))),
            Some(newer) if newer.1 > seq => Some(newer),
            _ => Some((key, seq, merge(None))),
        };
    }

    pub fn clear(&self) {
        *self.0.write() = None;
    }

    /// `(key, seq)` of the cached entry.
    #[cfg(test)]
    pub fn entry(&self) -> Option<(K, u64)>
    where
        K: Copy,
    {
        self.0.read().as_ref().map(|e| (e.0, e.1))
    }
}

pub(crate) struct Inner {
    pub db: Database,
    pub tables: Tables,
    pub dim: usize,
    pub metric: Metric,
    pub cfg: Config,
    /// The loaded quantizer, keyed on the index epoch.
    pub centroid_cache: SnapCache<i64, LoadedIndex>,
    /// Per-partition quantization ranges, keyed on the index epoch:
    /// ranges change only under maintenance, which bumps the epoch in
    /// the same transaction.
    pub quant_cache: SnapCache<i64, HashMap<i64, Arc<Sq8Params>>>,
    /// Attribute statistics keyed on the *commit seq* of the snapshot
    /// they were loaded from — any committed write (upsert, delete,
    /// flush) can change them, so the epoch alone is not a valid key.
    pub stats_cache: SnapCache<u64, Arc<TableStats>>,
    /// Persistent worker pool for parallel partition scans (Figure 3).
    /// Every query path fans out through its typed
    /// `parallel_indexed` primitive; no call site hand-rolls
    /// dispatch, error capture, or panic handling.
    pub scan_pool: crate::pool::ScanPool,
    /// Per-partition quantizer range-drift counters, `partition →
    /// (clamped rows, appended rows)`, fed by delta flushes that encode
    /// new rows under a partition's existing ranges. The maintainer
    /// reads [`Inner::drift_candidate`] to schedule retrains; every
    /// wholesale re-encode resets its partition's counter. In-process
    /// only (drift re-accumulates after reopen, which is fine — it is
    /// a heuristic, not an invariant).
    pub drift: Mutex<BTreeMap<i64, (u64, u64)>>,
    /// Telemetry hub: metrics registry, trace-sink mount point (shared
    /// with the store), and the slow-query log.
    pub tel: Arc<crate::telemetry::DbTelemetry>,
}

/// An embedded, disk-resident, updatable vector database (the paper's
/// MicroNN). Cheap to clone; safe to share across threads (one writer
/// at a time, any number of snapshot-isolated readers).
#[derive(Clone)]
pub struct MicroNN {
    pub(crate) inner: Arc<Inner>,
}

impl MicroNN {
    /// Creates a new index at `path`.
    pub fn create(path: impl AsRef<std::path::Path>, config: Config) -> Result<MicroNN> {
        config.validate()?;
        MicroNN::start(path.as_ref(), config, true)
    }

    /// Opens an existing index. Persisted parameters (dimension,
    /// metric, attribute schema) are loaded from the database; `config`
    /// supplies runtime knobs (probes, workers, thresholds, store
    /// options). A non-zero `config.dim` is validated against the file,
    /// and the knobs are then checked by [`Config::validate`].
    pub fn open(path: impl AsRef<std::path::Path>, config: Config) -> Result<MicroNN> {
        MicroNN::start(path.as_ref(), config, false)
    }

    fn start(path: &std::path::Path, mut config: Config, create: bool) -> Result<MicroNN> {
        // One trace-sink cell spans the whole stack: mount the hub's
        // cell into the store options before the store opens, so WAL
        // group commits and checkpoints land in the same sink as
        // query stages and maintenance actions.
        let tel = Arc::new(crate::telemetry::DbTelemetry::new(&config));
        config.store.trace = Arc::clone(&tel.sink);
        let db = if create {
            Database::create(path, config.store.clone())?
        } else {
            Database::open(path, config.store.clone())?
        };
        db.store()
            .io()
            .register_into(&tel.registry, "micronn_store_");
        if create {
            Tables::create(&db, &config)?;
        }
        let tables = Tables::open(&db, &mut config)?;
        // `open`'s runtime knobs meet the same rules as `create`'s, with
        // the persisted parameters loaded.
        config.validate()?;
        Ok(MicroNN {
            inner: Arc::new(Inner {
                tables,
                dim: config.dim,
                metric: config.metric,
                scan_pool: crate::pool::ScanPool::new(config.effective_workers()),
                cfg: config,
                db,
                centroid_cache: SnapCache::default(),
                quant_cache: SnapCache::default(),
                stats_cache: SnapCache::default(),
                drift: Mutex::new(BTreeMap::new()),
                tel,
            }),
        })
    }

    /// Opens `path`, creating it first if missing. Existence is probed
    /// through the configured [`micronn_storage::Vfs`], so this works
    /// under the simulated file system too.
    pub fn open_or_create(path: impl AsRef<std::path::Path>, config: Config) -> Result<MicroNN> {
        if config.store.vfs.exists(path.as_ref()) {
            MicroNN::open(path, config)
        } else {
            MicroNN::create(path, config)
        }
    }

    /// Index dimensionality.
    pub fn dim(&self) -> usize {
        self.inner.dim
    }

    /// Index metric.
    pub fn metric(&self) -> Metric {
        self.inner.metric
    }

    /// The vector codec this index was created with.
    pub fn codec(&self) -> VectorCodec {
        self.inner.cfg.codec
    }

    /// The underlying relational database (diagnostics, raw access).
    pub fn database(&self) -> &Database {
        &self.inner.db
    }

    // ------------------------------------------------------------------
    // Streaming updates (§3.6)
    // ------------------------------------------------------------------

    /// Inserts or replaces one record (upsert semantics on `asset_id`).
    pub fn upsert(&self, record: VectorRecord) -> Result<()> {
        self.upsert_batch(std::slice::from_ref(&record))
    }

    /// Inserts or replaces a batch of records in one transaction. New
    /// vectors land in the delta store, immediately visible to every
    /// subsequent search (Algorithm 2 always scans the delta
    /// partition).
    pub fn upsert_batch(&self, records: &[VectorRecord]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let inner = &*self.inner;
        let t = &inner.tables;
        let mut w = t.begin_write(&inner.db)?;
        let mut next_vid = t.counter(&w, Counter::NEXT_VID)?;
        let mut delta = t.counter(&w, Counter::DELTA_COUNT)?;
        for rec in records {
            if rec.vector.len() != inner.dim {
                return Err(Error::DimensionMismatch {
                    expected: inner.dim,
                    got: rec.vector.len(),
                });
            }
            // Replace: remove the previous vector row wherever it lives.
            if let Some(prev) = t.location(&w, rec.asset_id)? {
                inner.unlink_vector(&mut w, prev, &mut delta)?;
            }
            let vid = next_vid;
            next_vid += 1;
            w.put_vector((DELTA_PARTITION, vid), rec.asset_id, &rec.vector)?;
            delta += 1;
            w.set_location(rec.asset_id, (DELTA_PARTITION, vid))?;
            w.put_attrs(self.build_attr_row(rec)?)?;
        }
        w.set_counter(Counter::NEXT_VID, next_vid)?;
        w.set_counter(Counter::DELTA_COUNT, delta)?;
        w.commit()?;
        Ok(())
    }

    /// Deletes a single asset. Returns `true` if it existed.
    pub fn delete(&self, asset_id: i64) -> Result<bool> {
        Ok(self.delete_batch(&[asset_id])? == 1)
    }

    /// Deletes a batch of assets in one transaction; returns how many
    /// existed.
    pub fn delete_batch(&self, asset_ids: &[i64]) -> Result<usize> {
        if asset_ids.is_empty() {
            return Ok(0);
        }
        let inner = &*self.inner;
        let t = &inner.tables;
        let mut w = t.begin_write(&inner.db)?;
        let mut delta = t.counter(&w, Counter::DELTA_COUNT)?;
        let mut removed = 0usize;
        for &asset in asset_ids {
            let Some(prev) = w.take_location(asset)? else {
                continue;
            };
            inner.unlink_vector(&mut w, prev, &mut delta)?;
            w.remove_attrs(asset)?;
            removed += 1;
        }
        w.set_counter(Counter::DELTA_COUNT, delta)?;
        w.commit()?;
        Ok(removed)
    }

    /// Fetches the stored vector of an asset.
    pub fn get_vector(&self, asset_id: i64) -> Result<Option<Vec<f32>>> {
        let r = self.inner.db.begin_read();
        let Some(loc) = self.inner.tables.location(&r, asset_id)? else {
            return Ok(None);
        };
        let mut vector = Vec::with_capacity(self.inner.dim);
        if !self
            .inner
            .tables
            .vector_reader(&r)
            .append(loc, &mut vector)?
        {
            return Err(Error::Rel(RelError::Codec(format!(
                "asset {asset_id}: dangling vector reference"
            ))));
        }
        Ok(Some(vector))
    }

    /// Fetches the attributes of an asset as `(name, value)` pairs
    /// (NULLs omitted).
    pub fn get_attributes(&self, asset_id: i64) -> Result<Option<Vec<(String, Value)>>> {
        let r = self.inner.db.begin_read();
        let attrs = self.inner.tables.attrs();
        let Some(row) = attrs.get(&r, &[Value::Integer(asset_id)])? else {
            return Ok(None);
        };
        let schema = attrs.schema();
        Ok(Some(
            row.into_iter()
                .enumerate()
                .skip(1)
                .filter(|(_, v)| !v.is_null())
                .map(|(i, v)| (schema.columns[i].name.clone(), v))
                .collect(),
        ))
    }

    /// True if the asset exists.
    pub fn contains(&self, asset_id: i64) -> Result<bool> {
        let r = self.inner.db.begin_read();
        Ok(self.inner.tables.location(&r, asset_id)?.is_some())
    }

    /// Vectors currently staged in the delta store.
    pub fn delta_len(&self) -> Result<u64> {
        let r = self.inner.db.begin_read();
        Ok(self.inner.tables.counter(&r, Counter::DELTA_COUNT)? as u64)
    }

    /// Current `(partition id, vector count)` of every indexed
    /// partition, ascending by partition id. Sizes are maintained
    /// exactly across upserts, deletes, flushes, and lifecycle
    /// operations; the lifecycle policy and the `micronnctl status`
    /// histogram read them.
    pub fn partition_sizes(&self) -> Result<Vec<(i64, u64)>> {
        let r = self.inner.db.begin_read();
        self.inner.tables.partition_sizes(&r)
    }

    /// Cumulative storage-layer I/O counters (buffer-pool hit/miss,
    /// evictions, WAL/main reads and writes, fsyncs). Benchmarks diff
    /// two snapshots via [`micronn_storage::StoreStats::since`] to
    /// report cache hit rates per phase.
    pub fn io_stats(&self) -> micronn_storage::StoreStats {
        self.inner.db.store().stats()
    }

    /// Drops all in-process and page caches: the paper's ColdStart
    /// scenario (§4.1.4).
    pub fn purge_caches(&self) {
        self.inner.db.store().purge_cache();
        self.inner.centroid_cache.clear();
        self.inner.quant_cache.clear();
        self.inner.stats_cache.clear();
    }

    /// Checkpoints the WAL into the main database file.
    pub fn checkpoint(&self) -> Result<bool> {
        Ok(self.inner.db.store().checkpoint()?)
    }

    /// Online backup: checkpoints, then copies the main database file
    /// (plus the WAL if a pinned reader kept the checkpoint partial) to
    /// `dest`/`dest`-wal. The copy is taken under the writer lock via a
    /// brief write transaction, so it is a transactionally consistent
    /// snapshot; readers are never blocked. The copy itself goes
    /// through the configured [`micronn_storage::Vfs`], so backups work
    /// (and are crash-testable) under the simulated file system too.
    pub fn backup_to(&self, dest: impl AsRef<std::path::Path>) -> Result<()> {
        let dest = dest.as_ref();
        let store = self.inner.db.store();
        let vfs = &*self.inner.cfg.store.vfs;
        let _ = store.checkpoint()?;
        // Hold the writer lock (empty txn) while copying so no commit
        // lands mid-copy.
        let txn = self.inner.db.begin_write()?;
        vfs_copy(vfs, store.path(), dest)?;
        let wal_src = {
            let mut os = store.path().as_os_str().to_owned();
            os.push("-wal");
            std::path::PathBuf::from(os)
        };
        let wal_dest = {
            let mut os = dest.as_os_str().to_owned();
            os.push("-wal");
            std::path::PathBuf::from(os)
        };
        if vfs.exists(&wal_src) {
            vfs_copy(vfs, &wal_src, &wal_dest)?;
        } else if vfs.exists(&wal_dest) {
            // A stale WAL from an earlier backup at this destination
            // would replay over the fresh copy: truncate it to empty
            // (recovery treats a headerless WAL as absent).
            let f = vfs
                .open(&wal_dest, micronn_storage::OpenMode::CreateTruncate)
                .map_err(|e| Error::Config(format!("backup wal truncate failed: {e}")))?;
            f.sync()
                .map_err(|e| Error::Config(format!("backup wal truncate failed: {e}")))?;
        }
        txn.rollback();
        Ok(())
    }

    fn build_attr_row(&self, rec: &VectorRecord) -> Result<Vec<Value>> {
        let schema = self.inner.tables.attrs().schema();
        let mut row = vec![Value::Null; schema.arity()];
        row[0] = Value::Integer(rec.asset_id);
        for (name, value) in &rec.attributes {
            let idx = schema
                .column_index(name)
                .map_err(|_| Error::Config(format!("unknown attribute {name}")))?;
            row[idx] = value.clone();
        }
        Ok(row)
    }
}

impl std::fmt::Debug for MicroNN {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MicroNN")
            .field("dim", &self.inner.dim)
            .field("metric", &self.inner.metric)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Shared internal helpers
// ---------------------------------------------------------------------------

/// Copies `src` to `dest` (created/truncated) through the VFS, syncing
/// the destination before returning.
fn vfs_copy(
    vfs: &dyn micronn_storage::Vfs,
    src: &std::path::Path,
    dest: &std::path::Path,
) -> Result<()> {
    let fail = |e: std::io::Error| Error::Config(format!("backup copy failed: {e}"));
    let s = vfs
        .open(src, micronn_storage::OpenMode::Open)
        .map_err(fail)?;
    let d = vfs
        .open(dest, micronn_storage::OpenMode::CreateTruncate)
        .map_err(fail)?;
    let len = s.len().map_err(fail)?;
    let mut buf = vec![0u8; 1 << 20];
    let mut off = 0u64;
    while off < len {
        let n = ((len - off) as usize).min(buf.len());
        s.read_exact_at(&mut buf[..n], off).map_err(fail)?;
        d.write_all_at(&buf[..n], off).map_err(fail)?;
        off += n as u64;
    }
    d.sync().map_err(fail)?;
    Ok(())
}

/// Minimum appended rows before a partition's clamped fraction is
/// trusted as a drift signal (tiny samples are all noise).
pub(crate) const MIN_DRIFT_SAMPLE: u64 = 16;

impl Inner {
    /// Whether scans should read quantized codes (SQ8/SQ4 catalogs).
    pub(crate) fn quantized(&self) -> bool {
        self.cfg.codec.is_quantized()
    }

    /// Detaches the vector row at `(partition, vid)` from the index —
    /// the shared first half of a replace and a delete: its quantized
    /// code and its partition's size count (the lifecycle policy reads
    /// the sizes, so they stay exact), or the delta count, go with it.
    fn unlink_vector(&self, w: &mut Writer<'_>, at: Loc, delta: &mut i64) -> Result<()> {
        if at.0 == DELTA_PARTITION {
            *delta -= 1;
        } else {
            crate::codec::remove_code(w, at)?;
            w.adjust_size(at.0, -1)?;
        }
        w.remove_vector(at)
    }

    /// Accumulates a flush's clamped/appended counts for `partition`.
    pub(crate) fn note_drift(&self, partition: i64, clamped: u64, appended: u64) {
        if appended == 0 {
            return;
        }
        let mut map = self.drift.lock();
        let e = map.entry(partition).or_insert((0, 0));
        e.0 += clamped;
        e.1 += appended;
    }

    /// Forgets the drift counter of one partition (it was just
    /// re-encoded under fresh ranges, or retired).
    pub(crate) fn reset_drift(&self, partition: i64) {
        self.drift.lock().remove(&partition);
    }

    /// Forgets all drift counters (a rebuild re-encoded everything).
    pub(crate) fn clear_drift(&self) {
        self.drift.lock().clear();
    }

    /// The partition whose clamped-row fraction most exceeds `limit`
    /// (with at least [`MIN_DRIFT_SAMPLE`] appended rows), if any.
    pub(crate) fn drift_candidate(&self, limit: f64) -> Option<(i64, f64)> {
        let map = self.drift.lock();
        map.iter()
            .filter(|(_, (_, total))| *total >= MIN_DRIFT_SAMPLE)
            .map(|(pid, (clamped, total))| (*pid, *clamped as f64 / *total as f64))
            .filter(|(_, frac)| *frac > limit)
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Loads (or returns the cached) IVF quantizer: the centroid matrix
    /// plus the partition id per centroid, and — once `k` reaches
    /// [`centroid_index::THRESHOLD`] — the two-level centroid index.
    /// `None` before the first index build. This is the only way the
    /// cache is filled: every maintenance action bumps the epoch, and
    /// the next reader reloads from the committed centroid table.
    ///
    /// The epoch is read *under the caller's snapshot*. Epochs are
    /// monotone and every centroid/range change commits an epoch bump
    /// in the same transaction, so epoch equality between two
    /// snapshots implies identical centroid state — the [`SnapCache`]
    /// key.
    pub(crate) fn clustering<R: PageRead + ?Sized>(&self, r: &R) -> Result<Option<LoadedIndex>> {
        let epoch = self.tables.counter(r, Counter::EPOCH)?;
        let snap = r.committed_snapshot();
        let cache = &self.centroid_cache;
        if let Some(index) = cache.lookup(snap, &epoch, |i| Some(i.clone())) {
            return Ok(Some(index));
        }
        let mut partitions = Vec::new();
        let mut flat: Vec<f32> = Vec::new();
        for c in self.tables.centroids(r)? {
            if c.centroid.len() != self.dim {
                return Err(Error::Config(format!(
                    "centroid for partition {} has dim {}, index is {}",
                    c.partition,
                    c.centroid.len(),
                    self.dim
                )));
            }
            partitions.push(c.partition);
            flat.extend_from_slice(&c.centroid);
        }
        if partitions.is_empty() {
            return Ok(None);
        }
        let clustering = Arc::new(Clustering::new(flat, self.dim, self.metric));
        let super_index = (partitions.len() >= centroid_index::THRESHOLD)
            .then(|| Arc::new(CentroidIndex::build(&clustering, CLUSTERING_SEED)));
        let index = LoadedIndex {
            clustering,
            partitions: Arc::new(partitions),
            super_index,
            epoch,
        };
        cache.publish(snap, epoch, |_| index.clone());
        Ok(Some(index))
    }

    /// Loads (or returns the cached) quantization ranges of one
    /// partition (quantized catalogs; `None` for unquantized catalogs,
    /// the delta store, and never-encoded partitions). Ranges only
    /// change under maintenance — which bumps the epoch in the same
    /// transaction — so committed snapshots with a matching epoch
    /// share one map. `epoch` is the index epoch at `r`
    /// ([`LoadedIndex::epoch`]).
    pub(crate) fn partition_params<R: PageRead + ?Sized>(
        &self,
        r: &R,
        epoch: i64,
        partition: i64,
    ) -> Result<Option<Arc<Sq8Params>>> {
        if !self.quantized() {
            return Ok(None);
        }
        let snap = r.committed_snapshot();
        let cache = &self.quant_cache;
        let hit = |map: &HashMap<i64, Arc<Sq8Params>>| map.get(&partition).cloned();
        if let Some(p) = cache.lookup(snap, &epoch, hit) {
            return Ok(Some(p));
        }
        let loaded = self.tables.params(r, partition)?.map(Arc::new);
        if let Some(p) = &loaded {
            cache.publish(snap, epoch, |map| {
                let mut map = map.unwrap_or_default();
                map.insert(partition, p.clone());
                map
            });
        }
        Ok(loaded)
    }

    /// Loads (or returns the cached) attribute statistics.
    ///
    /// Unlike centroids and quantization ranges, attribute statistics
    /// change with *every* committed write (upserts and deletes touch
    /// `attrs` without bumping the epoch), so the cache is keyed on
    /// the snapshot's commit seq: a hit requires the reader to be
    /// pinned at exactly the seq the stats were loaded from.
    pub(crate) fn table_stats<R: PageRead + ?Sized>(&self, r: &R) -> Result<Arc<TableStats>> {
        let snap = r.committed_snapshot();
        let (cache, seq) = (&self.stats_cache, snap.unwrap_or_default());
        if let Some(stats) = cache.lookup(snap, &seq, |s| Some(s.clone())) {
            return Ok(stats);
        }
        let stats = Arc::new(TableStats::load(r, self.tables.attrs())?);
        cache.publish(snap, seq, |_| stats.clone());
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttributeDef;
    use micronn_rel::ValueType;
    use micronn_storage::SyncMode;

    fn test_config(dim: usize) -> Config {
        let mut c = Config::new(dim, Metric::L2);
        c.store.sync = SyncMode::Off;
        c.attributes = vec![
            AttributeDef::indexed("location", ValueType::Text),
            AttributeDef::new("taken_at", ValueType::Integer),
            AttributeDef::full_text("tags"),
        ];
        c
    }

    fn vecf(seed: u64, dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|i| ((seed * 31 + i as u64) % 97) as f32 / 97.0)
            .collect()
    }

    #[test]
    fn create_upsert_get_delete() {
        let dir = tempfile::tempdir().unwrap();
        let db = MicroNN::create(dir.path().join("x.mnn"), test_config(16)).unwrap();
        assert!(db.is_empty().unwrap());
        db.upsert(
            VectorRecord::new(1, vecf(1, 16))
                .with_attr("location", "Seattle")
                .with_attr("tags", "black cat"),
        )
        .unwrap();
        db.upsert(VectorRecord::new(2, vecf(2, 16))).unwrap();
        assert_eq!(db.len().unwrap(), 2);
        assert_eq!(db.delta_len().unwrap(), 2);
        assert!(db.contains(1).unwrap());
        assert_eq!(db.get_vector(1).unwrap().unwrap(), vecf(1, 16));
        let attrs = db.get_attributes(1).unwrap().unwrap();
        assert!(attrs.contains(&("location".into(), Value::text("Seattle"))));
        assert_eq!(db.get_attributes(2).unwrap().unwrap(), vec![]);

        // Upsert replaces.
        db.upsert(VectorRecord::new(1, vecf(9, 16))).unwrap();
        assert_eq!(db.len().unwrap(), 2);
        assert_eq!(db.get_vector(1).unwrap().unwrap(), vecf(9, 16));

        assert!(db.delete(1).unwrap());
        assert!(!db.delete(1).unwrap());
        assert_eq!(db.len().unwrap(), 1);
        assert!(db.get_vector(1).unwrap().is_none());
        assert_eq!(db.delta_len().unwrap(), 1);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let db = MicroNN::create(dir.path().join("x.mnn"), test_config(16)).unwrap();
        let err = db.upsert(VectorRecord::new(1, vecf(1, 8))).unwrap_err();
        assert!(matches!(
            err,
            Error::DimensionMismatch {
                expected: 16,
                got: 8
            }
        ));
        assert!(db.is_empty().unwrap(), "failed upsert leaves no residue");
    }

    #[test]
    fn unknown_attribute_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let db = MicroNN::create(dir.path().join("x.mnn"), test_config(8)).unwrap();
        let err = db
            .upsert(VectorRecord::new(1, vecf(1, 8)).with_attr("nope", 1i64))
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }

    #[test]
    fn reopen_restores_schema_and_data() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("x.mnn");
        {
            let db = MicroNN::create(&path, test_config(16)).unwrap();
            db.upsert(VectorRecord::new(7, vecf(7, 16)).with_attr("location", "NYC"))
                .unwrap();
        }
        let mut cfg = Config::default();
        cfg.store.sync = SyncMode::Off;
        let db = MicroNN::open(&path, cfg).unwrap();
        assert_eq!(db.dim(), 16);
        assert_eq!(db.metric(), Metric::L2);
        assert_eq!(db.len().unwrap(), 1);
        assert_eq!(db.get_vector(7).unwrap().unwrap(), vecf(7, 16));
        // Attribute schema (incl. index flags) reconstructed.
        let attrs = &db.inner.cfg.attributes;
        assert_eq!(attrs.len(), 3);
        assert!(attrs.iter().any(|a| a.name == "location" && a.indexed));
        assert!(attrs.iter().any(|a| a.name == "tags" && a.fts));
        // Wrong-dim open is rejected.
        let bad = Config {
            dim: 99,
            store: micronn_storage::StoreOptions {
                sync: SyncMode::Off,
                ..Default::default()
            },
            ..Config::default()
        };
        assert!(MicroNN::open(&path, bad).is_err());
    }

    /// A zero flush threshold makes every `maybe_maintain` pass commit
    /// 32 empty flushes: `create` refuses it, and so does `open`, whose
    /// runtime knobs the file does not persist.
    #[test]
    fn zero_delta_flush_threshold_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("x.mnn");
        let mut zero = test_config(8);
        zero.delta_flush_threshold = 0;
        let err = MicroNN::create(&path, zero.clone()).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        drop(MicroNN::create(&path, test_config(8)).unwrap());
        let err = MicroNN::open(&path, zero).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        MicroNN::open(&path, test_config(8)).unwrap();
    }

    /// Writer-rollback poisoning regression: a write transaction must
    /// neither hit nor publish the centroid/quant/stats caches — a
    /// mid-transaction writer can see centroid rows from *before* its
    /// own epoch bump, and a rolled-back writer's view never existed.
    #[test]
    fn write_txn_bypasses_all_caches() {
        let dir = tempfile::tempdir().unwrap();
        let db = MicroNN::create(dir.path().join("x.mnn"), test_config(8)).unwrap();
        let records: Vec<VectorRecord> = (0..60)
            .map(|i| VectorRecord::new(i, vecf(i as u64, 8)).with_attr("location", "A"))
            .collect();
        db.upsert_batch(&records).unwrap();
        db.rebuild().unwrap();
        db.purge_caches();

        let txn = db.inner.db.begin_write().unwrap();
        assert!(db.inner.clustering(&txn).unwrap().is_some());
        let _ = db.inner.table_stats(&txn).unwrap();
        assert!(
            db.inner.centroid_cache.entry().is_none(),
            "writer view must not publish the centroid cache"
        );
        assert!(
            db.inner.stats_cache.entry().is_none(),
            "writer view must not publish the stats cache"
        );
        txn.rollback();

        // A committed read snapshot does publish.
        let r = db.inner.db.begin_read();
        assert!(db.inner.clustering(&r).unwrap().is_some());
        let (_, seq) = db
            .inner
            .centroid_cache
            .entry()
            .expect("reader publishes the cache");
        assert_eq!(Some(seq), r.committed_snapshot());
    }

    /// Cache-invalidation race regression: a reader pinned *before* an
    /// epoch bump misses the post-bump cache entry (its epoch differs)
    /// and, after loading its own old view, must not clobber the entry
    /// published by a newer snapshot.
    #[test]
    fn older_snapshot_does_not_clobber_newer_cache_entry() {
        let dir = tempfile::tempdir().unwrap();
        let db = MicroNN::create(dir.path().join("x.mnn"), test_config(8)).unwrap();
        let records: Vec<VectorRecord> = (0..60)
            .map(|i| VectorRecord::new(i, vecf(i as u64, 8)))
            .collect();
        db.upsert_batch(&records).unwrap();
        db.rebuild().unwrap();

        let r_old = db.inner.db.begin_read(); // pinned before the bump
        db.rebuild().unwrap(); // bumps the epoch
        db.purge_caches();

        let r_new = db.inner.db.begin_read();
        assert!(db.inner.clustering(&r_new).unwrap().is_some());
        let (epoch_new, seq_new) = db.inner.centroid_cache.entry().unwrap();
        assert_eq!(Some(seq_new), r_new.committed_snapshot());

        // The old reader still gets a working (old-epoch) index…
        assert!(db.inner.clustering(&r_old).unwrap().is_some());
        // …but the shared cache still belongs to the newer snapshot.
        assert_eq!(
            db.inner.centroid_cache.entry(),
            Some((epoch_new, seq_new)),
            "older snapshot clobbered the newer cache entry"
        );
    }

    /// Stats staleness regression (flush-then-search): attribute
    /// statistics change with every committed write without an epoch
    /// bump, so the cache is keyed on the exact commit seq — a
    /// snapshot taken after new upserts must see the new counts, not a
    /// stale cached copy.
    #[test]
    fn stats_cache_is_keyed_on_commit_seq() {
        let dir = tempfile::tempdir().unwrap();
        let db = MicroNN::create(dir.path().join("x.mnn"), test_config(8)).unwrap();
        let recs = |base: i64| -> Vec<VectorRecord> {
            (base..base + 20)
                .map(|i| VectorRecord::new(i, vecf(i as u64, 8)).with_attr("location", "A"))
                .collect()
        };
        db.upsert_batch(&recs(0)).unwrap();

        let r1 = db.inner.db.begin_read();
        let s1 = db.inner.table_stats(&r1).unwrap();
        assert_eq!(s1.row_count, 20);

        db.upsert_batch(&recs(100)).unwrap(); // no epoch bump

        let r2 = db.inner.db.begin_read();
        let s2 = db.inner.table_stats(&r2).unwrap();
        assert_eq!(s2.row_count, 40, "stale stats served after commit");

        // The old snapshot still resolves its own (older) view, and
        // doing so does not evict the newer entry.
        assert_eq!(db.inner.table_stats(&r1).unwrap().row_count, 20);
        let (seq, _) = db.inner.stats_cache.entry().unwrap();
        assert_eq!(Some(seq), r2.committed_snapshot());
        assert_eq!(db.inner.table_stats(&r2).unwrap().row_count, 40);
    }

    /// `row_changes` counts committed rows only: a batch that fails
    /// half-way and an explicitly rolled-back transaction leave it
    /// where it was.
    #[test]
    fn row_changes_counts_only_committed_rows() {
        let dir = tempfile::tempdir().unwrap();
        let db = MicroNN::create(dir.path().join("x.mnn"), test_config(8)).unwrap();
        db.upsert(VectorRecord::new(1, vecf(1, 8))).unwrap();
        assert_eq!(db.stats().unwrap().row_changes, 3);

        let batch = [
            VectorRecord::new(2, vecf(2, 8)),
            VectorRecord::new(3, vecf(3, 4)),
        ];
        let err = db.upsert_batch(&batch).unwrap_err();
        assert!(matches!(err, Error::DimensionMismatch { .. }));
        let mut w = db.inner.tables.begin_write(&db.inner.db).unwrap();
        w.put_vector((DELTA_PARTITION, 99), 99, &vecf(9, 8))
            .unwrap();
        w.rollback();
        assert_eq!(
            db.stats().unwrap().row_changes,
            3,
            "uncommitted rows counted"
        );

        db.upsert(VectorRecord::new(2, vecf(2, 8))).unwrap();
        assert_eq!(db.stats().unwrap().row_changes, 6);
    }

    #[test]
    fn batch_upsert_is_atomic_per_batch() {
        let dir = tempfile::tempdir().unwrap();
        let db = MicroNN::create(dir.path().join("x.mnn"), test_config(8)).unwrap();
        let records: Vec<VectorRecord> = (0..100)
            .map(|i| VectorRecord::new(i, vecf(i as u64, 8)))
            .collect();
        db.upsert_batch(&records).unwrap();
        assert_eq!(db.len().unwrap(), 100);
        assert_eq!(db.delta_len().unwrap(), 100);
        assert_eq!(db.delete_batch(&[5, 6, 7, 999]).unwrap(), 3);
        assert_eq!(db.len().unwrap(), 97);
    }
}
