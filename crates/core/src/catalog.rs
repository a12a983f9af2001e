//! The on-disk IVF schema: the one module that knows which tables
//! exist, what their rows look like, and how a row change is counted.
//!
//! Storage schema (mirrors Figure 2 of the paper):
//!
//! | table       | primary key         | columns                         |
//! |-------------|---------------------|---------------------------------|
//! | `vectors`   | `(partition, vid)`  | `asset`, `vec` (f32 blob)       |
//! | `assets`    | `(asset)`           | `partition`, `vid`              |
//! | `centroids` | `(partition)`       | `centroid` (f32 blob), `size`   |
//! | `attrs`     | `(asset)`           | client-defined attribute columns|
//! | `meta`      | `(key)`             | `ival`, `tval`                  |
//! | `codes`*    | `(partition, vid)`  | `asset`, `code` (u8 blob)       |
//! | `codes`†    | `(partition, block)`| `members`, `packed` (blobs)     |
//! | `quants`*†  | `(partition)`       | `params` (f32 blob)             |
//!
//! `*` only with the [`VectorCodec::Sq8`] catalog, `†` only with
//! [`VectorCodec::Sq4`] (one row per 32-vector fastscan block):
//! quantized codes are a *separately clustered* payload so
//! compressed-domain scans touch ~4× (SQ8) / ~8× (SQ4) fewer bytes
//! than the f32 rows they mirror.
//!
//! The `vectors` table is clustered on `(partition, vid)`, so each IVF
//! partition is a contiguous key range (§3.2): a scan walks one run of
//! leaves, though not pages adjacent in the file. The delta store
//! is the reserved partition `0` (§3.6): upserts land there and are
//! folded into the index by [`crate::maintain`].
//!
//! Blob formats: `vec`, `centroid` and `params` are little-endian f32
//! arrays (`params` is `min[dim] ++ scale[dim]`); an SQ8 `code` is one
//! byte per dimension; an SQ4 `members` blob is a directory of
//! [`SQ4_BLOCK`] slots × 16 bytes (vid i64 LE ++ asset i64 LE; vid 0
//! marks an empty or tombstoned slot — vids start at 1) and `packed`
//! is the register-interleaved nibble payload (`16·dim` bytes).
//! Tombstoning a slot leaves its stale nibbles in place; scans and
//! fsck mask dead slots via the directory.
//!
//! Everything outside this module goes through the typed readers of
//! [`Tables`] and the typed writers of [`Writer`]; `attrs` is the one
//! table handed out as a [`Table`], because its schema is
//! client-defined. Readers return `Err` on a column of the wrong type.
//! A [`Writer`] tallies one row change per row upserted or deleted and
//! publishes the tally into [`Tables::row_changes`] only when the
//! transaction commits.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use micronn_linalg::{sq4_block_bytes, Metric, Sq8Params, SQ4_BLOCK, SQ4_MAX_DIM};
use micronn_rel::{
    analyze_table, blob_to_f32, f32_to_blob, ints_then_blob, ColumnDef, Database, RelError,
    RowDecoder, RowReader, Table, TableSchema, Value, ValueType,
};
use micronn_storage::{Occupancy, PageData, PageId, PageRead, StorageError, WriteTxn};

use crate::codec::VectorCodec;
use crate::config::{AttributeDef, Config};
use crate::error::{Error, Result};

// Immutable index parameters, written once at creation.
const M_DIM: &str = "dim";
const M_METRIC: &str = "metric";
const M_CODEC: &str = "codec";
const M_TARGET: &str = "target_partition_size";

/// An integer counter of the `meta` table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Counter(&'static str);

impl Counter {
    /// Next vector id to assign (vids start at 1).
    pub const NEXT_VID: Counter = Counter("next_vid");
    /// Index epoch (see [`Writer::bump_epoch`]).
    pub const EPOCH: Counter = Counter("epoch");
    /// Number of indexed partitions (0 before the first build).
    pub const PARTITIONS: Counter = Counter("k");
    /// Rows in the delta store.
    pub const DELTA_COUNT: Counter = Counter("delta_count");
    /// Average partition size right after the last rebuild, ×1000.
    pub const BASELINE_AVG: Counter = Counter("baseline_avg");
    /// Next partition id to allocate for a split (monotone; rebuild
    /// resets it to `k + 1`). `0` in pre-lifecycle files: consumers
    /// fall back to `max(pid) + 1`.
    pub const NEXT_PID: Counter = Counter("next_pid");
}

/// The schema of fixed table `name` — the module docs' table, as code.
/// The `codes` layout is the codec's: SQ8 stores one code row per
/// vector, SQ4 one row per 32-vector fastscan block.
fn schema(name: &str, codec: VectorCodec) -> Result<TableSchema> {
    use ValueType::{Blob, Integer, Text};
    let int = |col: &str| ColumnDef::new(col, Integer);
    let blob = |col: &str| ColumnDef::new(col, Blob);
    let payload = |col: &str| vec![int("partition"), int("vid"), int("asset"), blob(col)];
    let (pk, cols): (&[&str], _) = match name {
        "meta" => {
            let ival = ColumnDef::nullable("ival", Integer);
            let tval = ColumnDef::nullable("tval", Text);
            (&["key"], vec![ColumnDef::new("key", Text), ival, tval])
        }
        "vectors" => (&["partition", "vid"], payload("vec")),
        "assets" => (&["asset"], vec![int("asset"), int("partition"), int("vid")]),
        "centroids" => {
            let cols = vec![int("partition"), blob("centroid"), int("size")];
            (&["partition"], cols)
        }
        "codes" if codec == VectorCodec::Sq4 => {
            let cols = vec![
                int("partition"),
                int("block"),
                blob("members"),
                blob("packed"),
            ];
            (&["partition", "block"], cols)
        }
        "codes" => (&["partition", "vid"], payload("code")),
        "quants" => (&["partition"], vec![int("partition"), blob("params")]),
        _ => return Err(Error::Config(format!("no fixed table {name}"))),
    };
    Ok(TableSchema::new(name, cols, pk)?)
}

/// `(partition, vid)`: where a vector row lives.
pub(crate) type Loc = (i64, i64);

/// One row of a partition, owned.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Member {
    pub vid: i64,
    pub asset: i64,
    pub vector: Vec<f32>,
}

/// One `centroids` row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CentroidRow {
    pub partition: i64,
    pub centroid: Vec<f32>,
    pub size: i64,
}

/// One SQ4 `codes` row: a 32-slot fastscan block, both blobs
/// length-checked against the index dimension. `packed` is the
/// register-interleaved nibble payload.
pub(crate) struct Block<'a> {
    pub partition: i64,
    pub id: i64,
    dir: Cow<'a, [u8]>,
    pub packed: Cow<'a, [u8]>,
}

const SLOT_BYTES: usize = 16;

impl Block<'_> {
    /// An all-empty block.
    pub fn empty(partition: i64, id: i64, dim: usize) -> Block<'static> {
        let dir = vec![0u8; SQ4_BLOCK * SLOT_BYTES].into();
        let packed = vec![0u8; sq4_block_bytes(dim)].into();
        Block {
            partition,
            id,
            dir,
            packed,
        }
    }

    /// `(vid, asset)` of slot `j`; vid 0 marks an empty or tombstoned
    /// slot.
    pub fn slot(&self, j: usize) -> (i64, i64) {
        let (vid, asset) = self.dir[j * SLOT_BYTES..(j + 1) * SLOT_BYTES].split_at(8);
        let le = |b: &[u8]| i64::from_le_bytes(b.try_into().expect("8-byte slot half"));
        (le(vid), le(asset))
    }

    /// `(slot, vid, asset)` of every live slot, in slot order.
    pub fn live(&self) -> impl Iterator<Item = (usize, i64, i64)> + '_ {
        (0..SQ4_BLOCK).filter_map(|j| {
            let (vid, asset) = self.slot(j);
            (vid != 0).then_some((j, vid, asset))
        })
    }

    /// Writes slot `j` of the directory (`(0, 0)` tombstones it).
    pub fn set_slot(&mut self, j: usize, vid: i64, asset: i64) {
        let slot = &mut self.dir.to_mut()[j * SLOT_BYTES..(j + 1) * SLOT_BYTES];
        slot[..8].copy_from_slice(&vid.to_le_bytes());
        slot[8..].copy_from_slice(&asset.to_le_bytes());
    }

    pub fn into_owned(self) -> Block<'static> {
        let dir = self.dir.into_owned().into();
        let packed = self.packed.into_owned().into();
        Block {
            partition: self.partition,
            id: self.id,
            dir,
            packed,
        }
    }
}

fn ints(ids: &[i64]) -> Vec<Value> {
    ids.iter().map(|&i| Value::Integer(i)).collect()
}

fn not_integer(col: &str) -> Error {
    Error::Config(format!("{col} column is not an integer"))
}

fn int(dec: &mut RowDecoder<'_>, col: &str) -> Result<i64> {
    dec.next_ref()?.as_integer().ok_or_else(|| not_integer(col))
}

fn int_of(v: &Value, col: &str) -> Result<i64> {
    v.as_integer().ok_or_else(|| not_integer(col))
}

/// Walks `table`'s encoded rows in key order — one partition's, or all
/// — each lent to `f` straight out of its pinned leaf page
/// ([`Table::visit_pk_prefix`]): the one body under every scan below.
fn scan_rows<R: PageRead + ?Sized>(
    table: &Table,
    r: &R,
    partition: Option<i64>,
    mut f: impl FnMut(&[u8]) -> Result<()>,
) -> Result<()> {
    let prefix = partition.map(Value::Integer);
    table.visit_pk_prefix(r, prefix.as_slice(), |_, row| f(row))
}

/// The leading `N` integer columns of every row, without decoding the
/// payload columns behind them.
fn int_cols<const N: usize, R: PageRead + ?Sized>(
    table: &Table,
    r: &R,
    partition: Option<i64>,
) -> Result<Vec<[i64; N]>> {
    let mut rows = Vec::new();
    scan_rows(table, r, partition, |row| {
        let dec = &mut RowDecoder::new(row)?;
        let mut cols = [0i64; N];
        for col in &mut cols {
            *col = int(dec, "key")?;
        }
        rows.push(cols);
        Ok(())
    })?;
    Ok(rows)
}

/// Visits the rows of a `(partition, vid) → (asset, payload)` table —
/// `vectors` and SQ8 `codes` share the shape — as `(location, asset,
/// payload)`. The shape is fixed, so a row is read at constant offsets.
fn scan_payloads<R: PageRead + ?Sized>(
    table: &Table,
    r: &R,
    partition: Option<i64>,
    mut f: impl FnMut(Loc, i64, &[u8]) -> Result<()>,
) -> Result<()> {
    scan_rows(table, r, partition, |row| {
        let ([p, vid, asset], payload) = ints_then_blob(row)?;
        f((p, vid), asset, payload)
    })
}

fn payload_row((p, vid): Loc, asset: i64, payload: Vec<u8>) -> Vec<Value> {
    vec![p.into(), vid.into(), asset.into(), Value::Blob(payload)]
}

/// `blob`, the stored vector of row `at`, if it holds exactly `dim`
/// little-endian f32s; otherwise the corruption error naming the row.
/// Every reader of a vector blob checks it here before a kernel or a
/// decode touches it.
pub(crate) fn f32_row(at: Loc, blob: &[u8], dim: usize) -> Result<&[u8]> {
    if blob.len() == dim * 4 {
        return Ok(blob);
    }
    let ((p, vid), got, want) = (at, blob.len(), dim * 4);
    Err(Error::Rel(RelError::Codec(format!(
        "vector row ({p},{vid}) has {got} bytes, expected {want}"
    ))))
}

/// Appends the stored vector of row `at` to `out`, decoded; `Err`
/// (see [`f32_row`]) unless it holds exactly `dim` components.
pub(crate) fn extend_f32(out: &mut Vec<f32>, at: Loc, blob: &[u8], dim: usize) -> Result<()> {
    let le = |c: &[u8]| f32::from_le_bytes(c.try_into().expect("4-byte chunk"));
    out.extend(f32_row(at, blob, dim)?.chunks_exact(4).map(le));
    Ok(())
}

/// Quantization ranges are stored as `min[dim] ++ scale[dim]`.
fn params_from_blob(blob: &[u8], dim: usize) -> Result<Sq8Params> {
    let vals = blob_to_f32(blob)?;
    if vals.len() != dim * 2 {
        let (got, want) = (vals.len(), dim * 2);
        return Err(Error::Config(format!(
            "quantization params blob has {got} floats, expected {want}"
        )));
    }
    let (min, scale) = vals.split_at(dim);
    Ok(Sq8Params {
        min: min.to_vec(),
        scale: scale.to_vec(),
    })
}

/// `(ival, tval)` of `meta` row `key`, each `None` when the row is
/// absent or the column NULL.
fn read_meta<R: PageRead + ?Sized>(
    meta: &Table,
    r: &R,
    key: &str,
) -> Result<(Option<i64>, Option<String>)> {
    let Some(row) = meta.get(r, &[Value::text(key)])? else {
        return Ok((None, None));
    };
    match row.as_slice() {
        [_, Value::Null | Value::Integer(_), Value::Null | Value::Text(_)] => {
            Ok((row[1].as_integer(), row[2].as_text().map(str::to_owned)))
        }
        _ => Err(Error::Config(format!("meta row {key} is malformed"))),
    }
}

/// Handles to every table of the index plus the two creation-time
/// parameters their blob lengths depend on: the read half of the typed
/// surface.
pub(crate) struct Tables {
    vectors: Table,
    assets: Table,
    centroids: Table,
    attrs: Table,
    meta: Table,
    /// Quantized codes and per-partition quantization ranges — present
    /// only for quantized codecs.
    quantized: Option<(Table, Table)>,
    codec: VectorCodec,
    dim: usize,
    /// Committed row-level mutations (Figure 10d's "No. of DB row
    /// changes").
    row_changes: AtomicU64,
}

impl Tables {
    /// Creates every table of a new index and persists its immutable
    /// parameters, in one committed transaction.
    pub fn create(db: &Database, cfg: &Config) -> Result<()> {
        let mut txn = db.begin_write()?;
        let meta = db.create_table(&mut txn, schema("meta", cfg.codec)?)?;
        for name in ["vectors", "assets", "centroids"] {
            db.create_table(&mut txn, schema(name, cfg.codec)?)?;
        }
        // Attributes table: asset pk + client-defined columns (all
        // nullable: a record may omit any attribute).
        let mut attr_cols = vec![ColumnDef::new("asset", ValueType::Integer)];
        for a in &cfg.attributes {
            attr_cols.push(ColumnDef::nullable(a.name.clone(), a.ty));
        }
        let attrs = TableSchema::new("attrs", attr_cols, &["asset"])?;
        let mut attrs = db.create_table(&mut txn, attrs)?;
        for a in &cfg.attributes {
            if a.indexed {
                attrs = db.create_index(&mut txn, &attrs, &format!("by_{}", a.name), &[&a.name])?;
            }
            if a.fts {
                attrs = db.create_fts_index(&mut txn, &attrs, &a.name)?;
            }
        }
        if cfg.codec.is_quantized() {
            db.create_table(&mut txn, schema("codes", cfg.codec)?)?;
            db.create_table(&mut txn, schema("quants", cfg.codec)?)?;
        }
        let int = |v: i64| (Value::Integer(v), Value::Null);
        let text = |s: &str| (Value::Null, Value::text(s));
        let rows = [
            (M_DIM, int(cfg.dim as i64)),
            (M_METRIC, text(&cfg.metric.to_string())),
            (M_CODEC, text(cfg.codec.name())),
            (Counter::NEXT_VID.0, int(1)),
            (Counter::EPOCH.0, int(0)),
            (Counter::PARTITIONS.0, int(0)),
            (Counter::DELTA_COUNT.0, int(0)),
            (Counter::BASELINE_AVG.0, int(0)),
            (Counter::NEXT_PID.0, int(1)),
            (M_TARGET, int(cfg.target_partition_size as i64)),
        ];
        for (key, (ival, tval)) in rows {
            meta.upsert(&mut txn, vec![Value::text(key), ival, tval])?;
        }
        txn.commit()?;
        Ok(())
    }

    /// Opens the tables of an existing index and loads its persisted
    /// parameters (dimension, metric, codec, target partition size,
    /// attribute schema) into `cfg`. A non-zero `cfg.dim` and a
    /// quantized `cfg.codec` are validated against the file.
    pub fn open(db: &Database, cfg: &mut Config) -> Result<Tables> {
        let r = db.begin_read();
        // The typed readers below decode columns by position, so a
        // table must have exactly the schema this module defines.
        let open = |name: &str, codec: VectorCodec| -> Result<Table> {
            let table = db.open_table(&r, name)?;
            if *table.schema() != schema(name, codec)? {
                return Err(Error::Config(format!(
                    "table {name} does not have the expected schema"
                )));
            }
            Ok(table)
        };
        let meta = open("meta", cfg.codec)?;
        let missing = |key: &str| Error::Config(format!("meta key {key} missing"));
        let param = |key: &str| read_meta(&meta, &r, key);
        let dim = param(M_DIM)?.0.ok_or_else(|| missing(M_DIM))? as usize;
        let target = param(M_TARGET)?.0.ok_or_else(|| missing(M_TARGET))? as usize;
        let metric_name = param(M_METRIC)?.1.ok_or_else(|| missing(M_METRIC))?;
        let metric = Metric::parse(&metric_name)
            .ok_or_else(|| Error::Config(format!("unknown metric {metric_name}")))?;
        if cfg.dim != 0 && cfg.dim != dim {
            return Err(Error::DimensionMismatch {
                expected: dim,
                got: cfg.dim,
            });
        }
        // Codec is part of the catalog: files created before the codec
        // row existed read as plain f32. Asking for a quantized codec
        // the file does not carry cannot be honoured — the codes were
        // never written, or were written in the other quantized layout
        // (SQ8 rows vs SQ4 blocks) — so it is an open-time error
        // rather than a silent downgrade.
        let codec = match param(M_CODEC)?.1 {
            Some(name) => VectorCodec::parse(&name)
                .ok_or_else(|| Error::Config(format!("unknown vector codec {name}")))?,
            None => VectorCodec::F32,
        };
        if cfg.codec.is_quantized() && codec != cfg.codec {
            let asked = cfg.codec;
            return Err(Error::Config(format!(
                "index was created with codec {codec}; cannot open as {asked}"
            )));
        }
        // The stored dim comes from the file: an SQ4 catalog past the
        // scorer's u16 headroom would score silently wrong.
        if codec == VectorCodec::Sq4 && dim >= SQ4_MAX_DIM {
            return Err(Error::Config(format!(
                "sq4 catalog has dim {dim}; sq4 supports dim < {SQ4_MAX_DIM}"
            )));
        }
        (cfg.dim, cfg.metric, cfg.codec, cfg.target_partition_size) = (dim, metric, codec, target);
        // Reconstruct the attribute definitions from the stored schema.
        let attrs = db.open_table(&r, "attrs")?;
        cfg.attributes = (attrs.schema().columns.iter().enumerate().skip(1))
            .map(|(idx, c)| AttributeDef {
                name: c.name.clone(),
                ty: c.ty,
                indexed: attrs.index_on(&[idx]).is_some(),
                fts: attrs.fts_on(idx).is_some(),
            })
            .collect();
        // A quantized catalog must carry its codes and ranges tables.
        let lost =
            |what: &str| Error::Config(format!("{codec} catalog is missing its {what} table"));
        let quantized = if codec.is_quantized() {
            let codes = open("codes", codec).map_err(|_| lost("codes"))?;
            Some((codes, open("quants", codec).map_err(|_| lost("quants"))?))
        } else {
            None
        };
        Ok(Tables {
            vectors: open("vectors", codec)?,
            assets: open("assets", codec)?,
            centroids: open("centroids", codec)?,
            attrs,
            meta,
            quantized,
            codec,
            dim,
            row_changes: AtomicU64::new(0),
        })
    }

    /// The codec the `codes` layout was created for.
    pub fn codec(&self) -> VectorCodec {
        self.codec
    }

    /// The index dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The client-defined attributes table.
    pub fn attrs(&self) -> &Table {
        &self.attrs
    }

    /// The `(codes, quants)` tables of a quantized catalog.
    fn quantized(&self) -> Result<&(Table, Table)> {
        let missing = || Error::Config("quantized access to an unquantized catalog".into());
        self.quantized.as_ref().ok_or_else(missing)
    }

    /// Begins the exclusive write transaction.
    pub fn begin_write(&self, db: &Database) -> Result<Writer<'_>> {
        Ok(Writer {
            tables: self,
            txn: db.begin_write()?,
            changes: 0,
        })
    }

    /// Row changes of every transaction committed through this handle.
    pub fn row_changes(&self) -> u64 {
        self.row_changes.load(Ordering::Relaxed)
    }

    /// Reads a counter (0 when the row is absent or NULL).
    pub fn counter<R: PageRead + ?Sized>(&self, r: &R, c: Counter) -> Result<i64> {
        Ok(read_meta(&self.meta, r, c.0)?.0.unwrap_or(0))
    }

    /// Page counts and leaf fill of every B+tree of the index — each
    /// table's clustered tree under the table's name, each secondary
    /// index under `table.index` — in catalog order.
    pub fn occupancy<R: PageRead + ?Sized>(&self, r: &R) -> Result<Vec<(String, Occupancy)>> {
        let quantized = self
            .quantized
            .iter()
            .flat_map(|(codes, quants)| [codes, quants]);
        let always = [
            &self.vectors,
            &self.assets,
            &self.centroids,
            &self.attrs,
            &self.meta,
        ];
        let mut out = Vec::new();
        for table in always.into_iter().chain(quantized) {
            let name = &table.schema().name;
            out.push((name.clone(), table.data_tree().occupancy(r)?));
            for index in table.indexes() {
                let fill = index.tree.occupancy(r)?;
                out.push((format!("{name}.{}", index.name), fill));
            }
        }
        Ok(out)
    }

    /// Number of stored vectors (O(1)).
    pub fn vector_count<R: PageRead + ?Sized>(&self, r: &R) -> Result<u64> {
        Ok(self.vectors.row_count(r)?)
    }

    /// Visits the vector rows of one partition (or all), in key order,
    /// as `(location, asset, f32 blob)`, each blob lent from its pinned
    /// leaf unchecked: [`f32_row`] length-checks it, [`extend_f32`]
    /// also decodes it.
    pub fn scan_vectors<R: PageRead + ?Sized>(
        &self,
        r: &R,
        partition: Option<i64>,
        f: impl FnMut(Loc, i64, &[u8]) -> Result<()>,
    ) -> Result<()> {
        scan_payloads(&self.vectors, r, partition, f)
    }

    /// Materializes one partition's rows in ascending-vid order — the
    /// shared read behind delta flushes and per-partition re-encoding.
    /// Partitions are bounded (~`target_partition_size`), so buffering
    /// one is cheap.
    pub fn members<R: PageRead + ?Sized>(&self, r: &R, partition: i64) -> Result<Vec<Member>> {
        let mut members = Vec::new();
        let dim = self.dim;
        self.scan_vectors(r, Some(partition), |at @ (_, vid), asset, blob| {
            let mut vector = Vec::with_capacity(dim);
            extend_f32(&mut vector, at, blob, dim)?;
            members.push(Member { vid, asset, vector });
            Ok(())
        })?;
        Ok(members)
    }

    /// The location of every vector, in key order, without decoding a
    /// single payload.
    pub fn vector_keys<R: PageRead + ?Sized>(&self, r: &R) -> Result<Vec<Loc>> {
        let keys = int_cols::<2, R>(&self.vectors, r, None)?;
        Ok(keys.into_iter().map(|[p, vid]| (p, vid)).collect())
    }

    /// A reusable fetch-by-location reader over `vectors` (see
    /// [`VectorReader`]).
    pub fn vector_reader<'r, R: PageRead + ?Sized>(&self, r: &'r R) -> VectorReader<'r, R> {
        VectorReader {
            vectors: self.vectors.reader(r),
            dim: self.dim,
        }
    }

    /// A reusable asset → location reader over `assets` (see
    /// [`LocationReader`]).
    pub fn location_reader<'r, R: PageRead + ?Sized>(&self, r: &'r R) -> LocationReader<'r, R> {
        LocationReader(self.assets.reader(r))
    }

    /// Where `asset`'s vector lives, or `None` when it is not stored.
    pub fn location<R: PageRead + ?Sized>(&self, r: &R, asset: i64) -> Result<Option<Loc>> {
        self.location_reader(r).locate(asset)
    }

    /// Every `[asset, partition, vid]` location row, in asset order.
    pub fn locations<R: PageRead + ?Sized>(&self, r: &R) -> Result<Vec<[i64; 3]>> {
        int_cols::<3, R>(&self.assets, r, None)
    }

    fn centroid_row(dec: &mut RowDecoder<'_>) -> Result<CentroidRow> {
        let partition = int(dec, "partition")?;
        let centroid = blob_to_f32(dec.next_blob()?)?;
        let size = int(dec, "size")?;
        Ok(CentroidRow {
            partition,
            centroid,
            size,
        })
    }

    /// One partition's centroid row.
    pub fn centroid<R: PageRead + ?Sized>(
        &self,
        r: &R,
        partition: i64,
    ) -> Result<Option<CentroidRow>> {
        let row = self.centroids.get_raw(r, &[Value::Integer(partition)])?;
        row.map(|row| Self::centroid_row(&mut RowDecoder::new(&row)?))
            .transpose()
    }

    /// Every centroid row, ascending by partition id. Centroid lengths
    /// are the caller's to check against the index dimension.
    pub fn centroids<R: PageRead + ?Sized>(&self, r: &R) -> Result<Vec<CentroidRow>> {
        let mut rows = Vec::new();
        scan_rows(&self.centroids, r, None, |row| {
            rows.push(Self::centroid_row(&mut RowDecoder::new(row)?)?);
            Ok(())
        })?;
        Ok(rows)
    }

    /// `(partition id, size)` of every indexed partition, ascending by
    /// id, without decoding the centroids.
    pub fn partition_sizes<R: PageRead + ?Sized>(&self, r: &R) -> Result<Vec<(i64, u64)>> {
        let mut sizes = Vec::new();
        scan_rows(&self.centroids, r, None, |row| {
            let dec = &mut RowDecoder::new(row)?;
            let partition = int(dec, "partition")?;
            dec.skip()?; // centroid
            sizes.push((partition, int(dec, "size")?.max(0) as u64));
            Ok(())
        })?;
        Ok(sizes)
    }

    /// Visits the SQ8 code rows of one partition (or all), in key
    /// order, as `(location, asset, code)`; a code has exactly `dim`
    /// bytes.
    pub fn scan_codes<R: PageRead + ?Sized>(
        &self,
        r: &R,
        partition: Option<i64>,
        mut f: impl FnMut(Loc, i64, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let dim = self.dim;
        scan_payloads(&self.quantized()?.0, r, partition, |at, asset, code| {
            if code.len() != dim {
                let got = code.len();
                return Err(Error::Config(format!(
                    "stored code has {got} bytes, expected {dim}"
                )));
            }
            f(at, asset, code)
        })
    }

    /// Visits the SQ4 blocks of one partition (or all), in key order.
    pub fn scan_blocks<R: PageRead + ?Sized>(
        &self,
        r: &R,
        partition: Option<i64>,
        mut f: impl FnMut(Block<'_>) -> Result<()>,
    ) -> Result<()> {
        let want = (SQ4_BLOCK * SLOT_BYTES, sq4_block_bytes(self.dim));
        scan_rows(&self.quantized()?.0, r, partition, |row| {
            let dec = &mut RowDecoder::new(row)?;
            let (partition, id) = (int(dec, "partition")?, int(dec, "block")?);
            let (dir, packed) = (dec.next_blob()?, dec.next_blob()?);
            let got = (dir.len(), packed.len());
            if got != want {
                let what = format!("sq4 block ({partition},{id})");
                return Err(Error::Config(format!(
                    "{what}: members/packed bytes {got:?}, expected {want:?}"
                )));
            }
            f(Block {
                partition,
                id,
                dir: dir.into(),
                packed: packed.into(),
            })
        })
    }

    /// The second key column — vid (SQ8) or block id (SQ4) — of one
    /// partition's code rows, without decoding their payloads.
    pub fn code_keys<R: PageRead + ?Sized>(&self, r: &R, partition: i64) -> Result<Vec<i64>> {
        let keys = int_cols::<2, R>(&self.quantized()?.0, r, Some(partition))?;
        Ok(keys.into_iter().map(|[_, key]| key).collect())
    }

    fn ranges_row(&self, dec: &mut RowDecoder<'_>) -> Result<(i64, Sq8Params)> {
        let partition = int(dec, "partition")?;
        Ok((partition, params_from_blob(dec.next_blob()?, self.dim)?))
    }

    /// The quantization ranges of one partition; `None` when it has
    /// never been encoded (e.g. the delta store) or the catalog is not
    /// quantized.
    pub fn params<R: PageRead + ?Sized>(&self, r: &R, partition: i64) -> Result<Option<Sq8Params>> {
        let Some((_, quants)) = &self.quantized else {
            return Ok(None);
        };
        let row = quants.get_raw(r, &[Value::Integer(partition)])?;
        let row = row.map(|row| self.ranges_row(&mut RowDecoder::new(&row)?));
        Ok(row.transpose()?.map(|(_, params)| params))
    }

    /// Every `(partition, ranges)` row, ascending by partition id.
    pub fn all_params<R: PageRead + ?Sized>(&self, r: &R) -> Result<Vec<(i64, Sq8Params)>> {
        let mut all = Vec::new();
        scan_rows(&self.quantized()?.1, r, None, |row| {
            all.push(self.ranges_row(&mut RowDecoder::new(row)?)?);
            Ok(())
        })?;
        Ok(all)
    }
}

/// A write transaction over the catalog — the write half of the typed
/// surface — plus its row-change tally. Reads through it see the
/// transaction's own writes. Dropping it without [`Writer::commit`]
/// rolls back and discards the tally.
pub(crate) struct Writer<'a> {
    tables: &'a Tables,
    txn: WriteTxn,
    changes: u64,
}

impl PageRead for Writer<'_> {
    fn page(&self, id: PageId) -> std::result::Result<Arc<PageData>, StorageError> {
        self.txn.page(id)
    }
    fn page_scan(&self, id: PageId) -> std::result::Result<Arc<PageData>, StorageError> {
        self.txn.page_scan(id)
    }
    fn root(&self, slot: usize) -> PageId {
        self.txn.root(slot)
    }
    fn committed_snapshot(&self) -> Option<u64> {
        self.txn.committed_snapshot()
    }
}

impl<'a> Writer<'a> {
    /// The read half of the surface; pass `self` as the reader to see
    /// this transaction's own writes.
    pub fn tables(&self) -> &'a Tables {
        self.tables
    }

    /// Commits and publishes the row-change tally.
    pub fn commit(self) -> Result<()> {
        self.txn.commit()?;
        self.tables
            .row_changes
            .fetch_add(self.changes, Ordering::Relaxed);
        Ok(())
    }

    /// Abandons the transaction.
    pub fn rollback(self) {
        self.txn.rollback()
    }

    fn put(&mut self, table: &Table, row: Vec<Value>) -> Result<()> {
        table.upsert(&mut self.txn, row)?;
        self.changes += 1;
        Ok(())
    }

    fn remove(&mut self, table: &Table, pk: &[i64]) -> Result<Option<Vec<Value>>> {
        let old = table.delete(&mut self.txn, &ints(pk))?;
        self.changes += old.is_some() as u64;
        Ok(old)
    }

    /// Writes a counter. Not tallied as a row change.
    pub fn set_counter(&mut self, c: Counter, v: i64) -> Result<()> {
        let row = vec![Value::text(c.0), v.into(), Value::Null];
        self.tables.meta.upsert(&mut self.txn, row)?;
        Ok(())
    }

    /// Advances the index epoch — every transaction that changes
    /// centroid rows, quantization ranges or attribute statistics does
    /// this once, which is what invalidates the epoch-keyed caches.
    pub fn bump_epoch(&mut self) -> Result<()> {
        let epoch = self.tables.counter(self, Counter::EPOCH)? + 1;
        self.set_counter(Counter::EPOCH, epoch)
    }

    /// Writes one vector row.
    pub fn put_vector(&mut self, at: Loc, asset: i64, vector: &[f32]) -> Result<()> {
        self.put(
            &self.tables.vectors,
            payload_row(at, asset, f32_to_blob(vector)),
        )
    }

    /// Deletes one vector row (its asset row is the caller's business).
    pub fn remove_vector(&mut self, (p, vid): Loc) -> Result<()> {
        self.remove(&self.tables.vectors, &[p, vid]).map(drop)
    }

    /// Moves vector `vid` from partition `from` to `to`, payload
    /// untouched, and points its asset row at the new location.
    pub fn relocate(&mut self, from: i64, to: i64, vid: i64) -> Result<()> {
        let gone = || Error::Config(format!("vector ({from},{vid}) vanished mid-move"));
        let mut row = self
            .remove(&self.tables.vectors, &[from, vid])?
            .ok_or_else(gone)?;
        let asset = row[2].clone();
        row[0] = to.into();
        self.put(&self.tables.vectors, row)?;
        self.put(&self.tables.assets, vec![asset, to.into(), vid.into()])
    }

    /// Points `asset` at `(p, vid)`.
    pub fn set_location(&mut self, asset: i64, (p, vid): Loc) -> Result<()> {
        self.put(&self.tables.assets, ints(&[asset, p, vid]))
    }

    /// Deletes `asset`'s location row and returns what it held.
    pub fn take_location(&mut self, asset: i64) -> Result<Option<Loc>> {
        let Some(row) = self.remove(&self.tables.assets, &[asset])? else {
            return Ok(None);
        };
        Ok(Some((
            int_of(&row[1], "partition")?,
            int_of(&row[2], "vid")?,
        )))
    }

    /// Writes one attributes row (`asset` first, then one value per
    /// client-defined column).
    pub fn put_attrs(&mut self, row: Vec<Value>) -> Result<()> {
        self.put(&self.tables.attrs, row)
    }

    /// Deletes `asset`'s attributes row.
    pub fn remove_attrs(&mut self, asset: i64) -> Result<()> {
        self.remove(&self.tables.attrs, &[asset]).map(drop)
    }

    /// Rebuilds the attribute statistics (`ANALYZE`). Not tallied.
    pub fn analyze_attrs(&mut self) -> Result<()> {
        analyze_table(&mut self.txn, &self.tables.attrs)?;
        Ok(())
    }

    fn centroid_values(c: &CentroidRow) -> Vec<Value> {
        vec![
            c.partition.into(),
            Value::Blob(f32_to_blob(&c.centroid)),
            c.size.into(),
        ]
    }

    /// Writes one centroid row.
    pub fn put_centroid(&mut self, c: &CentroidRow) -> Result<()> {
        self.put(&self.tables.centroids, Self::centroid_values(c))
    }

    /// Deletes one centroid row.
    pub fn remove_centroid(&mut self, partition: i64) -> Result<()> {
        self.remove(&self.tables.centroids, &[partition]).map(drop)
    }

    /// Adjusts the stored size of one indexed partition by `delta`
    /// (clamped at zero); a partition without a centroid row is left
    /// alone.
    pub fn adjust_size(&mut self, partition: i64, delta: i64) -> Result<()> {
        let centroids = &self.tables.centroids;
        if let Some(mut row) = centroids.get(self, &ints(&[partition]))? {
            row[2] = (int_of(&row[2], "size")? + delta).max(0).into();
            self.put(centroids, row)?;
        }
        Ok(())
    }

    /// Replaces the whole centroid table (a rebuild). Wholesale
    /// replacement of the quantizer is not tallied: the row-change
    /// count of a rebuild is the rows it had to move.
    pub fn replace_centroids(&mut self, rows: &[CentroidRow]) -> Result<()> {
        let centroids = &self.tables.centroids;
        for stale in int_cols::<1, _>(centroids, self, None)? {
            centroids.delete(&mut self.txn, &ints(&stale))?;
        }
        for c in rows {
            centroids.upsert(&mut self.txn, Self::centroid_values(c))?;
        }
        Ok(())
    }

    /// Writes one SQ8 code row.
    pub fn put_code(&mut self, at: Loc, asset: i64, code: &[u8]) -> Result<()> {
        self.put(
            &self.tables.quantized()?.0,
            payload_row(at, asset, code.to_vec()),
        )
    }

    /// Writes one SQ4 block row.
    pub fn put_block(&mut self, b: Block<'_>) -> Result<()> {
        let (dir, packed) = (
            Value::Blob(b.dir.into_owned()),
            Value::Blob(b.packed.into_owned()),
        );
        self.put(
            &self.tables.quantized()?.0,
            vec![b.partition.into(), b.id.into(), dir, packed],
        )
    }

    /// Deletes one code row by its second key column (see
    /// [`Tables::code_keys`]).
    pub fn remove_code_row(&mut self, partition: i64, key: i64) -> Result<()> {
        self.remove(&self.tables.quantized()?.0, &[partition, key])
            .map(drop)
    }

    /// Writes one partition's quantization ranges.
    pub fn put_params(&mut self, partition: i64, p: &Sq8Params) -> Result<()> {
        let blob = f32_to_blob(&[&p.min[..], &p.scale[..]].concat());
        self.put(
            &self.tables.quantized()?.1,
            vec![partition.into(), Value::Blob(blob)],
        )
    }

    /// Drops one partition's code rows and its quantization ranges;
    /// no-op for unquantized catalogs.
    pub fn clear_partition_codes(&mut self, partition: i64) -> Result<()> {
        if let Some((_, quants)) = &self.tables.quantized {
            for key in self.tables.code_keys(self, partition)? {
                self.remove_code_row(partition, key)?;
            }
            self.remove(quants, &[partition])?;
        }
        Ok(())
    }

    /// Drops every code and quantization-range row (a rebuild
    /// re-encodes all partitions from scratch). Like
    /// [`Writer::replace_centroids`], not tallied.
    pub fn clear_codes(&mut self) -> Result<()> {
        if let Some((codes, quants)) = &self.tables.quantized {
            for pk in int_cols::<2, _>(codes, self, None)? {
                codes.delete(&mut self.txn, &ints(&pk))?;
            }
            for pk in int_cols::<1, _>(quants, self, None)? {
                quants.delete(&mut self.txn, &ints(&pk))?;
            }
        }
        Ok(())
    }

    /// The raw `codes` table and write transaction, for tests that
    /// hand-corrupt rows.
    #[cfg(test)]
    pub fn raw_codes(&mut self) -> (&Table, &mut WriteTxn) {
        (
            &self.tables.quantized().expect("quantized catalog").0,
            &mut self.txn,
        )
    }
}

/// Looks up where assets' vectors live, through a pinning point reader
/// over `assets`.
pub(crate) struct LocationReader<'r, R: PageRead + ?Sized>(RowReader<'r, R>);

impl<R: PageRead + ?Sized> LocationReader<'_, R> {
    /// Where `asset`'s vector lives, or `None` when it has none.
    pub fn locate(&mut self, asset: i64) -> Result<Option<Loc>> {
        let loc = self.0.get_with(&[Value::Integer(asset)], |row| {
            let mut dec = RowDecoder::new(row)?;
            dec.skip()?; // asset
            Ok((int(&mut dec, "partition")?, int(&mut dec, "vid")?))
        })?;
        loc.transpose()
    }
}

/// Fetches stored f32 vectors by location, through a pinning point
/// reader over `vectors`.
pub(crate) struct VectorReader<'r, R: PageRead + ?Sized> {
    vectors: RowReader<'r, R>,
    dim: usize,
}

impl<R: PageRead + ?Sized> VectorReader<'_, R> {
    /// Lends the vector stored at `at` to `f` as its `4·dim`
    /// little-endian bytes, straight from the pinned page (checked by
    /// [`f32_row`]); `None` if there is no such row.
    pub fn with<T>(&mut self, at: Loc, f: impl FnOnce(&[u8]) -> T) -> Result<Option<T>> {
        let dim = self.dim;
        let key = [Value::Integer(at.0), Value::Integer(at.1)];
        let found = self.vectors.get_with(&key, |row| {
            let (_, blob) = ints_then_blob::<3>(row)?;
            Ok(f(f32_row(at, blob, dim)?))
        })?;
        found.transpose()
    }

    /// Appends the vector stored at `at` to `out`, decoded; `false` if
    /// there is no such row.
    pub fn append(&mut self, at: Loc, out: &mut Vec<f32>) -> Result<bool> {
        let dim = self.dim;
        let found = self.with(at, |blob| extend_f32(out, at, blob, dim))?;
        found.transpose().map(|found| found.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micronn_rel::{encode_key, encode_row};
    use Value::{Blob, Integer as Int, Null};

    /// A fresh 2-d catalog with one text attribute.
    fn catalog(dir: &tempfile::TempDir, codec: VectorCodec) -> (Database, Tables) {
        let mut cfg = Config::new(2, Metric::L2);
        (cfg.codec, cfg.attributes) = (codec, vec![AttributeDef::new("tag", ValueType::Text)]);
        let path = dir.path().join(format!("{codec}.mnn"));
        let db = Database::create(path, cfg.store.clone()).unwrap();
        Tables::create(&db, &cfg).unwrap();
        let tables = Tables::open(&db, &mut Config::default()).unwrap();
        (db, tables)
    }

    /// Asserts `table` stores exactly `encode_row(row)` under exactly
    /// the key bytes `encode_key(key)`.
    fn assert_stored(w: &Writer<'_>, table: &Table, key: &[Value], row: &[Value]) {
        let mut rows = table
            .scan_pk_prefix_raw(w, &[])
            .unwrap()
            .map(|kv| kv.unwrap());
        let found = rows.find(|(k, _)| *k == encode_key(key));
        assert_eq!(found.map(|(_, v)| v), Some(encode_row(row)), "{key:?}");
    }

    /// Asserts that writing each of `bad` over the row under `key` —
    /// schema unchecked — fails `read`, and that `good` heals it.
    fn assert_rejected<T>(
        w: &mut Writer<'_>,
        table: &Table,
        key: &[Value],
        good: &[Value],
        bad: &[Vec<Value>],
        read: impl Fn(&Writer<'_>) -> Result<T>,
    ) {
        let tree = table.data_tree();
        for row in bad.iter().map(Vec::as_slice).chain([good]) {
            tree.insert(&mut w.txn, &encode_key(key), &encode_row(row))
                .unwrap();
            assert_eq!(read(w).is_ok(), row == good, "{row:?}");
        }
    }

    fn le(floats: &[f32]) -> Value {
        Blob(floats.iter().flat_map(|x| x.to_le_bytes()).collect())
    }

    #[test]
    fn golden_bytes_of_the_core_tables() {
        let dir = tempfile::tempdir().unwrap();
        let (db, t) = catalog(&dir, VectorCodec::F32);
        let mut w = t.begin_write(&db).unwrap();
        let text = Value::text;
        let centroid = CentroidRow {
            partition: 3,
            centroid: vec![0.5, 0.25],
            size: 9,
        };
        w.put_vector((3, 7), 42, &[1.0, -2.0]).unwrap();
        w.set_location(42, (3, 7)).unwrap();
        w.put_attrs(vec![Int(42), text("x")]).unwrap();
        w.put_centroid(&centroid).unwrap();
        w.set_counter(Counter::NEXT_VID, 8).unwrap();

        let vector = [Int(3), Int(7), Int(42), le(&[1.0, -2.0])];
        let centroid_row = [Int(3), le(&[0.5, 0.25]), Int(9)];
        assert_stored(&w, &t.vectors, &[Int(3), Int(7)], &vector);
        assert_stored(&w, &t.assets, &[Int(42)], &[Int(42), Int(3), Int(7)]);
        assert_stored(&w, &t.attrs, &[Int(42)], &[Int(42), text("x")]);
        assert_stored(&w, &t.centroids, &[Int(3)], &centroid_row);
        assert_stored(
            &w,
            &t.meta,
            &[text("next_vid")],
            &[text("next_vid"), Int(8), Null],
        );
        assert_stored(
            &w,
            &t.meta,
            &[text("metric")],
            &[text("metric"), Null, text("L2")],
        );

        // The typed readers round-trip what the typed writers wrote...
        let member = Member {
            vid: 7,
            asset: 42,
            vector: vec![1.0, -2.0],
        };
        assert_eq!(t.members(&w, 3).unwrap(), vec![member]);
        assert_eq!(t.vector_keys(&w).unwrap(), vec![(3, 7)]);
        assert_eq!(t.location(&w, 42).unwrap(), Some((3, 7)));
        assert_eq!(t.locations(&w).unwrap(), vec![[42, 3, 7]]);
        assert_eq!(t.centroid(&w, 3).unwrap(), Some(centroid.clone()));
        assert_eq!(t.centroids(&w).unwrap(), vec![centroid]);
        assert_eq!(t.partition_sizes(&w).unwrap(), vec![(3, 9)]);
        assert_eq!(t.counter(&w, Counter::NEXT_VID).unwrap(), 8);

        // ...and reject a column of the wrong type.
        let bad = [
            vec![Int(3), Int(7), text("?"), le(&[0.0; 2])],
            vec![Int(3), Int(7), Int(42), Null],
        ];
        assert_rejected(&mut w, &t.vectors, &[Int(3), Int(7)], &vector, &bad, |w| {
            t.members(w, 3)
        });
        let (good, bad) = (
            [Int(42), Int(3), Int(7)],
            [vec![Int(42), text("?"), Int(7)]],
        );
        assert_rejected(&mut w, &t.assets, &[Int(42)], &good, &bad, |w| {
            t.location(w, 42)
        });
        assert_rejected(&mut w, &t.assets, &[Int(42)], &good, &bad, |w| {
            t.locations(w)
        });
        let bad = [
            vec![Int(3), le(&[0.0; 2]), text("?")],
            vec![Int(3), Int(0), Int(9)],
        ];
        assert_rejected(&mut w, &t.centroids, &[Int(3)], &centroid_row, &bad, |w| {
            t.centroids(w)
        });
        assert_rejected(
            &mut w,
            &t.centroids,
            &[Int(3)],
            &centroid_row,
            &bad[..1],
            |w| t.partition_sizes(w),
        );
        let (good, bad) = (
            [text("epoch"), Int(0), Null],
            [vec![text("epoch"), text("?"), Null]],
        );
        assert_rejected(&mut w, &t.meta, &[text("epoch")], &good, &bad, |w| {
            t.counter(w, Counter::EPOCH)
        });

        // A move keeps the payload and rewrites the location.
        w.relocate(3, 5, 7).unwrap();
        assert_eq!(t.location(&w, 42).unwrap(), Some((5, 7)));
        assert_stored(
            &w,
            &t.vectors,
            &[Int(5), Int(7)],
            &[Int(5), Int(7), Int(42), le(&[1.0, -2.0])],
        );
    }

    #[test]
    fn golden_bytes_of_the_quantized_tables() {
        let dir = tempfile::tempdir().unwrap();
        let ranges = Sq8Params {
            min: vec![-1.5, 0.0],
            scale: vec![0.1, 2.0],
        };

        let (db, t) = catalog(&dir, VectorCodec::Sq8);
        let (codes, quants) = t.quantized().unwrap();
        let mut w = t.begin_write(&db).unwrap();
        w.put_code((3, 7), 42, &[5, 250]).unwrap();
        w.put_params(3, &ranges).unwrap();
        let code = [Int(3), Int(7), Int(42), Blob(vec![5, 250])];
        let params = [Int(3), le(&[-1.5, 0.0, 0.1, 2.0])];
        assert_stored(&w, codes, &[Int(3), Int(7)], &code);
        assert_stored(&w, quants, &[Int(3)], &params);
        let scan = |w: &Writer<'_>| {
            let mut seen = Vec::new();
            t.scan_codes(w, Some(3), |at, asset, code| {
                seen.push((at, asset, code.to_vec()));
                Ok(())
            })?;
            Ok(seen)
        };
        assert_eq!(scan(&w).unwrap(), vec![((3, 7), 42, vec![5, 250])]);
        assert_eq!(t.code_keys(&w, 3).unwrap(), vec![7]);
        assert_eq!(t.params(&w, 3).unwrap(), Some(ranges.clone()));
        assert_eq!(t.params(&w, 4).unwrap(), None);
        assert_eq!(t.all_params(&w).unwrap(), vec![(3, ranges)]);
        // A short code, a NULL asset; ranges of the wrong dimension or type.
        let bad = [
            vec![Int(3), Int(7), Int(42), Blob(vec![5])],
            vec![Int(3), Int(7), Null, Blob(vec![5, 250])],
        ];
        assert_rejected(&mut w, codes, &[Int(3), Int(7)], &code, &bad, scan);
        let bad = [vec![Int(3), le(&[0.0; 3])], vec![Int(3), Int(0)]];
        assert_rejected(&mut w, quants, &[Int(3)], &params, &bad, |w| t.params(w, 3));

        // SQ4: slot `j` of the directory is bytes `16j..16j+16`, vid
        // then asset, little-endian.
        let (db, t) = catalog(&dir, VectorCodec::Sq4);
        let (codes, _) = t.quantized().unwrap();
        let mut w = t.begin_write(&db).unwrap();
        let mut block = Block::empty(3, 0, 2);
        block.set_slot(1, 7, 42);
        block.packed.to_mut()[17] = 0xA5;
        w.put_block(block).unwrap();
        let (mut dir, mut packed) = (vec![0u8; 512], vec![0u8; 32]);
        dir[16..24].copy_from_slice(&7i64.to_le_bytes());
        dir[24..32].copy_from_slice(&42i64.to_le_bytes());
        packed[17] = 0xA5;
        let row = [Int(3), Int(0), Blob(dir.clone()), Blob(packed.clone())];
        assert_stored(&w, codes, &[Int(3), Int(0)], &row);
        let scan = |w: &Writer<'_>| {
            t.scan_blocks(w, Some(3), |b| {
                assert_eq!(
                    (b.partition, b.id, b.slot(0), b.slot(1)),
                    (3, 0, (0, 0), (7, 42))
                );
                assert_eq!(b.packed, packed);
                Ok(())
            })
        };
        scan(&w).unwrap();
        let bad = [vec![
            Int(3),
            Int(0),
            Blob(dir[1..].to_vec()),
            Blob(packed.clone()),
        ]];
        assert_rejected(&mut w, codes, &[Int(3), Int(0)], &row, &bad, scan);
    }

    #[test]
    fn an_sq4_file_past_the_scorer_headroom_does_not_open() {
        let dir = tempfile::tempdir().unwrap();
        for (dim, ok) in [(SQ4_MAX_DIM - 1, true), (SQ4_MAX_DIM, false)] {
            let mut cfg = Config::new(dim, Metric::L2);
            cfg.codec = VectorCodec::Sq4;
            let path = dir.path().join(format!("{dim}.mnn"));
            let db = Database::create(path, cfg.store.clone()).unwrap();
            // `Config::validate` refuses the second at create time;
            // write its catalog anyway, as a file from elsewhere could.
            Tables::create(&db, &cfg).unwrap();
            let opened = Tables::open(&db, &mut Config::default());
            assert_eq!(opened.is_ok(), ok, "dim {dim}");
            assert!(ok || matches!(opened, Err(Error::Config(_))), "dim {dim}");
        }
    }

    #[test]
    fn params_blob_round_trip() {
        let p = Sq8Params {
            min: vec![-1.5, 0.0, 3.25],
            scale: vec![0.1, 0.0, 2.0],
        };
        let blob = f32_to_blob(&[&p.min[..], &p.scale[..]].concat());
        assert_eq!(blob.len(), 3 * 2 * 4);
        assert_eq!(params_from_blob(&blob, 3).unwrap(), p);
        assert!(params_from_blob(&blob, 4).is_err());
    }
}
