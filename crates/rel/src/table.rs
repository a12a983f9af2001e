//! Tables: clustered row storage with secondary-index and full-text
//! maintenance.
//!
//! Rows are stored in a B+tree keyed by the memcomparable encoding of
//! the primary key, so a table keyed `(partition_id, vector_id)` keeps
//! each partition in one contiguous run of leaves — the clustered-index
//! property MicroNN relies on for partition-scan locality (§3.2). The
//! run is contiguous in key order, not in the file: its leaves' page
//! ids are scattered.
//! Every mutation keeps all secondary and full-text indexes and the
//! persistent row counter transactionally consistent.

use micronn_storage::{BTree, PageRead, PointReader, WriteTxn};

use crate::catalog::count_key as table_count_key;
use crate::error::{RelError, Result};
use crate::fts;
use crate::keys::{decode_key, encode_key, encode_key_into};
use crate::row::{decode_row, encode_row};
use crate::schema::TableSchema;
use crate::value::Value;

/// A secondary index: `encode_key(cols ++ pk) -> ()`.
#[derive(Debug, Clone)]
pub struct IndexDef {
    pub name: String,
    /// Column indexes (into the table schema) this index covers.
    pub cols: Vec<usize>,
    pub tree: BTree,
}

impl IndexDef {
    fn entry_key(&self, row: &[Value], pk_vals: &[Value]) -> Vec<u8> {
        let mut vals: Vec<Value> = self.cols.iter().map(|&c| row[c].clone()).collect();
        vals.extend(pk_vals.iter().cloned());
        encode_key(&vals)
    }

    pub(crate) fn insert_entry(
        &self,
        txn: &mut WriteTxn,
        row: &[Value],
        pk_vals: &[Value],
    ) -> Result<()> {
        self.tree.insert(txn, &self.entry_key(row, pk_vals), &[])?;
        Ok(())
    }

    fn remove_entry(&self, txn: &mut WriteTxn, row: &[Value], pk_vals: &[Value]) -> Result<()> {
        self.tree.delete(txn, &self.entry_key(row, pk_vals))?;
        Ok(())
    }

    /// Whether rows `a` and `b` of one primary key map to the same
    /// entry: their indexed columns encode to the same bytes.
    fn same_entry(&self, a: &[Value], b: &[Value]) -> bool {
        let cols =
            |row: &[Value]| -> Vec<Value> { self.cols.iter().map(|&c| row[c].clone()).collect() };
        encode_key(&cols(a)) == encode_key(&cols(b))
    }

    /// Scans index entries whose indexed columns equal `vals`,
    /// yielding decoded primary keys.
    pub fn lookup_eq<R: PageRead + ?Sized>(
        &self,
        r: &R,
        vals: &[Value],
    ) -> Result<Vec<Vec<Value>>> {
        debug_assert_eq!(vals.len(), self.cols.len());
        let prefix = encode_key(vals);
        let mut out = Vec::new();
        for kv in self.tree.scan_prefix(r, &prefix)? {
            let (k, _) = kv?;
            let mut decoded = decode_key(&k)?;
            let pk = decoded.split_off(self.cols.len());
            out.push(pk);
        }
        Ok(out)
    }

    /// Scans index entries with indexed column values in
    /// `[lo, hi]` (single-column indexes), yielding primary keys.
    pub fn lookup_range<R: PageRead + ?Sized>(
        &self,
        r: &R,
        lo: Option<&Value>,
        hi: Option<&Value>,
        lo_strict: bool,
        hi_strict: bool,
    ) -> Result<Vec<Vec<Value>>> {
        let start = match lo {
            Some(v) => std::ops::Bound::Included(encode_key(std::slice::from_ref(v))),
            None => std::ops::Bound::Unbounded,
        };
        let mut out = Vec::new();
        for kv in self.tree.range(r, start, std::ops::Bound::Unbounded)? {
            let (k, _) = kv?;
            let mut decoded = decode_key(&k)?;
            let pk = decoded.split_off(self.cols.len());
            let v = &decoded[0];
            if let Some(lo) = lo {
                if lo_strict && v.total_cmp(lo) == std::cmp::Ordering::Equal {
                    continue;
                }
            }
            if let Some(hi) = hi {
                match v.total_cmp(hi) {
                    std::cmp::Ordering::Greater => break,
                    std::cmp::Ordering::Equal if hi_strict => break,
                    _ => {}
                }
            }
            out.push(pk);
        }
        Ok(out)
    }
}

/// A full-text index over one TEXT column: a postings tree
/// `(token, pk) -> ()` plus a document-frequency tree `token -> df`.
#[derive(Debug, Clone)]
pub struct FtsDef {
    pub column: usize,
    pub postings: BTree,
    pub counts: BTree,
}

impl FtsDef {
    pub(crate) fn add_doc(
        &self,
        txn: &mut WriteTxn,
        row: &[Value],
        pk_vals: &[Value],
    ) -> Result<()> {
        let Some(text) = row[self.column].as_text() else {
            return Ok(());
        };
        for token in fts::tokenize_unique(text) {
            let mut key = encode_key(&[Value::text(token.clone())]);
            key.extend_from_slice(&encode_key(pk_vals));
            if self.postings.insert(txn, &key, &[])?.is_none() {
                self.bump_df(txn, &token, 1)?;
            }
        }
        Ok(())
    }

    pub(crate) fn remove_doc(
        &self,
        txn: &mut WriteTxn,
        row: &[Value],
        pk_vals: &[Value],
    ) -> Result<()> {
        let Some(text) = row[self.column].as_text() else {
            return Ok(());
        };
        for token in fts::tokenize_unique(text) {
            let mut key = encode_key(&[Value::text(token.clone())]);
            key.extend_from_slice(&encode_key(pk_vals));
            if self.postings.delete(txn, &key)?.is_some() {
                self.bump_df(txn, &token, -1)?;
            }
        }
        Ok(())
    }

    fn bump_df(&self, txn: &mut WriteTxn, token: &str, delta: i64) -> Result<()> {
        let key = encode_key(&[Value::text(token)]);
        let current = match self.counts.get(txn, &key)? {
            Some(bytes) => decode_row(&bytes)?
                .first()
                .and_then(|v| v.as_integer())
                .unwrap_or(0),
            None => 0,
        };
        let next = current + delta;
        if next <= 0 {
            self.counts.delete(txn, &key)?;
        } else {
            self.counts
                .insert(txn, &key, &encode_row(&[Value::Integer(next)]))?;
        }
        Ok(())
    }

    /// Document frequency of `token`.
    pub fn df<R: PageRead + ?Sized>(&self, r: &R, token: &str) -> Result<u64> {
        let key = encode_key(&[Value::text(fts::normalize(token))]);
        Ok(match self.counts.get(r, &key)? {
            Some(bytes) => decode_row(&bytes)?
                .first()
                .and_then(|v| v.as_integer())
                .unwrap_or(0) as u64,
            None => 0,
        })
    }

    /// Primary keys of documents containing *all* tokens of `query`
    /// (conjunctive match, like FTS5's implicit AND).
    pub fn match_pks<R: PageRead + ?Sized>(&self, r: &R, query: &str) -> Result<Vec<Vec<Value>>> {
        let tokens = fts::tokenize_unique(query);
        if tokens.is_empty() {
            return Ok(vec![]);
        }
        // Start from the rarest token to keep the candidate set small.
        let mut with_df: Vec<(u64, &String)> = Vec::with_capacity(tokens.len());
        for t in &tokens {
            with_df.push((self.df(r, t)?, t));
        }
        with_df.sort();
        if with_df[0].0 == 0 {
            return Ok(vec![]);
        }
        let mut candidates: Option<Vec<Vec<u8>>> = None;
        for (_, token) in with_df {
            let prefix = encode_key(&[Value::text(token.clone())]);
            match &mut candidates {
                None => {
                    let mut set = Vec::new();
                    for kv in self.postings.scan_prefix(r, &prefix)? {
                        let (k, _) = kv?;
                        set.push(k[prefix.len()..].to_vec());
                    }
                    candidates = Some(set);
                }
                Some(set) => {
                    // Keep only candidates present under this token.
                    let mut kept = Vec::with_capacity(set.len());
                    for pk_bytes in set.drain(..) {
                        let mut key = prefix.clone();
                        key.extend_from_slice(&pk_bytes);
                        if self.postings.contains_key(r, &key)? {
                            kept.push(pk_bytes);
                        }
                    }
                    *set = kept;
                    if set.is_empty() {
                        break;
                    }
                }
            }
        }
        candidates
            .unwrap_or_default()
            .into_iter()
            .map(|bytes| decode_key(&bytes))
            .collect()
    }
}

/// Repeated primary-key lookups against one table at one snapshot: a
/// storage [`PointReader`] (interior pages stay pinned between
/// lookups) plus the key buffer it encodes into. A lookup hands the
/// encoded row to a closure in place — wrap it in
/// [`EncodedRow`](crate::row::EncodedRow) or a
/// [`RowDecoder`](crate::row::RowDecoder) — and allocates nothing.
pub struct RowReader<'r, R: PageRead + ?Sized> {
    tree: PointReader<'r, R>,
    key: Vec<u8>,
}

impl<R: PageRead + ?Sized> RowReader<'_, R> {
    /// Looks up the row with primary key `pk` and passes its encoded
    /// bytes to `f`; `None` when there is no such row.
    pub fn get_with<T>(&mut self, pk: &[Value], f: impl FnOnce(&[u8]) -> T) -> Result<Option<T>> {
        encode_key_into(pk, &mut self.key);
        Ok(self.tree.get(&self.key, f)?)
    }
}

/// A handle to a table: schema plus the roots of its trees. Handles are
/// cheap to clone and remain valid for the life of the database file
/// (tree roots are stable), but index *lists* are fixed at open time —
/// re-open the table after creating an index.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    data: BTree,
    catalog: BTree,
    count_key: Vec<u8>,
    indexes: Vec<IndexDef>,
    fts: Vec<FtsDef>,
}

impl Table {
    pub(crate) fn assemble(
        schema: TableSchema,
        data: BTree,
        catalog: BTree,
        indexes: Vec<IndexDef>,
        fts: Vec<FtsDef>,
    ) -> Table {
        let count_key = table_count_key(&schema.name);
        Table {
            schema,
            data,
            catalog,
            count_key,
            indexes,
            fts,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The clustered data tree (for advanced scans by the vector layer).
    pub fn data_tree(&self) -> BTree {
        self.data
    }

    /// The catalog tree this table's metadata lives in.
    pub(crate) fn catalog_tree(&self) -> BTree {
        self.catalog
    }

    /// Secondary indexes loaded with this handle.
    pub fn indexes(&self) -> &[IndexDef] {
        &self.indexes
    }

    /// Full-text indexes loaded with this handle.
    pub fn fts_indexes(&self) -> &[FtsDef] {
        &self.fts
    }

    /// The index covering exactly `cols`, if any.
    pub fn index_on(&self, cols: &[usize]) -> Option<&IndexDef> {
        self.indexes.iter().find(|i| i.cols == cols)
    }

    /// The FTS index on `column`, if any.
    pub fn fts_on(&self, column: usize) -> Option<&FtsDef> {
        self.fts.iter().find(|f| f.column == column)
    }

    /// Inserts or replaces the row with the same primary key; returns
    /// the previous row if any. Maintains all indexes and the counter.
    /// A replace leaves alone every index entry and full-text document
    /// whose column it does not change: removing and re-inserting the
    /// same key dirties pages without guaranteeing identical bytes.
    pub fn upsert(&self, txn: &mut WriteTxn, row: Vec<Value>) -> Result<Option<Vec<Value>>> {
        self.schema.check_row(&row)?;
        let pk_vals = self.schema.pk_values(&row);
        let key = encode_key(&pk_vals);
        let old_bytes = self.data.insert(txn, &key, &encode_row(&row))?;
        let old_row = match old_bytes {
            Some(b) => Some(decode_row(&b)?),
            None => None,
        };
        let mut indexes: Vec<&IndexDef> = self.indexes.iter().collect();
        let mut fts: Vec<&FtsDef> = self.fts.iter().collect();
        if let Some(old) = &old_row {
            indexes.retain(|idx| !idx.same_entry(old, &row));
            fts.retain(|f| old[f.column] != row[f.column]);
            for idx in &indexes {
                idx.remove_entry(txn, old, &pk_vals)?;
            }
            for f in &fts {
                f.remove_doc(txn, old, &pk_vals)?;
            }
        } else {
            self.bump_count(txn, 1)?;
        }
        for idx in indexes {
            idx.insert_entry(txn, &row, &pk_vals)?;
        }
        for f in fts {
            f.add_doc(txn, &row, &pk_vals)?;
        }
        Ok(old_row)
    }

    /// Deletes by primary key; returns the removed row if it existed.
    pub fn delete(&self, txn: &mut WriteTxn, pk: &[Value]) -> Result<Option<Vec<Value>>> {
        let key = encode_key(pk);
        let Some(old_bytes) = self.data.delete(txn, &key)? else {
            return Ok(None);
        };
        let old = decode_row(&old_bytes)?;
        let pk_vals = self.schema.pk_values(&old);
        for idx in &self.indexes {
            idx.remove_entry(txn, &old, &pk_vals)?;
        }
        for f in &self.fts {
            f.remove_doc(txn, &old, &pk_vals)?;
        }
        self.bump_count(txn, -1)?;
        Ok(Some(old))
    }

    /// A reusable primary-key reader over this table at `r`'s
    /// snapshot — the form for loops of lookups (see [`RowReader`]).
    pub fn reader<'r, R: PageRead + ?Sized>(&self, r: &'r R) -> RowReader<'r, R> {
        RowReader {
            tree: self.data.point_reader(r),
            key: Vec::new(),
        }
    }

    /// Point lookup by primary key.
    pub fn get<R: PageRead + ?Sized>(&self, r: &R, pk: &[Value]) -> Result<Option<Vec<Value>>> {
        self.reader(r).get_with(pk, decode_row)?.transpose()
    }

    /// Raw point lookup (undecoded row bytes) — vector hot path.
    pub fn get_raw<R: PageRead + ?Sized>(&self, r: &R, pk: &[Value]) -> Result<Option<Vec<u8>>> {
        Ok(self.data.get(r, &encode_key(pk))?)
    }

    /// Whether a row with this primary key exists.
    pub fn contains<R: PageRead + ?Sized>(&self, r: &R, pk: &[Value]) -> Result<bool> {
        Ok(self.data.contains_key(r, &encode_key(pk))?)
    }

    /// Full scan in primary-key order, decoding rows.
    pub fn scan<'r, R: PageRead + ?Sized>(
        &self,
        r: &'r R,
    ) -> Result<impl Iterator<Item = Result<Vec<Value>>> + 'r> {
        Ok(self.data.scan_all(r)?.map(|kv| {
            let (_, v) = kv?;
            decode_row(&v)
        }))
    }

    /// Visits the rows whose primary key starts with `prefix` (e.g. all
    /// vectors of one partition) in key order, lending each raw `(key,
    /// row)` to `f` straight out of the pinned leaf page. This is the
    /// hot path of every partition scan: nothing is copied or allocated
    /// per row (an overflow-valued row is reassembled in one buffer
    /// reused for the whole visit). The first error — the walk's or
    /// `f`'s — ends the visit.
    pub fn visit_pk_prefix<R: PageRead + ?Sized, E: From<RelError>>(
        &self,
        r: &R,
        prefix: &[Value],
        mut f: impl FnMut(&[u8], &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let rows = self.data.scan_prefix(r, &encode_key(prefix));
        let mut rows = rows.map_err(RelError::from)?;
        while let Some(visited) = rows.next_with(&mut f).map_err(RelError::from)? {
            visited?;
        }
        Ok(())
    }

    /// [`Table::visit_pk_prefix`] as an iterator of owned `(key, row)`
    /// copies, for callers that hold rows; not a query path.
    pub fn scan_pk_prefix_raw<'r, R: PageRead + ?Sized>(
        &self,
        r: &'r R,
        prefix: &[Value],
    ) -> Result<impl Iterator<Item = Result<(Vec<u8>, Vec<u8>)>> + 'r> {
        Ok(self
            .data
            .scan_prefix(r, &encode_key(prefix))?
            .map(|kv| kv.map_err(RelError::from)))
    }

    /// Persistent row count (O(1): reads the catalog counter).
    pub fn row_count<R: PageRead + ?Sized>(&self, r: &R) -> Result<u64> {
        Ok(match self.catalog.get(r, &self.count_key)? {
            Some(bytes) => decode_row(&bytes)?
                .first()
                .and_then(|v| v.as_integer())
                .unwrap_or(0) as u64,
            None => 0,
        })
    }

    fn bump_count(&self, txn: &mut WriteTxn, delta: i64) -> Result<()> {
        let current = self.row_count(txn)? as i64;
        self.catalog.insert(
            txn,
            &self.count_key,
            &encode_row(&[Value::Integer(current + delta)]),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::schema::ColumnDef;
    use crate::value::ValueType;
    use micronn_storage::{StoreOptions, SyncMode};

    fn db() -> (tempfile::TempDir, Database) {
        let dir = tempfile::tempdir().unwrap();
        let db = Database::create(
            dir.path().join("db"),
            StoreOptions {
                sync: SyncMode::Off,
                ..Default::default()
            },
        )
        .unwrap();
        (dir, db)
    }

    fn photos(db: &Database) -> Table {
        let mut txn = db.begin_write().unwrap();
        let t = db
            .create_table(
                &mut txn,
                TableSchema::new(
                    "photos",
                    vec![
                        ColumnDef::new("id", ValueType::Integer),
                        ColumnDef::new("location", ValueType::Text),
                        ColumnDef::nullable("taken_at", ValueType::Integer),
                        ColumnDef::nullable("tags", ValueType::Text),
                    ],
                    &["id"],
                )
                .unwrap(),
            )
            .unwrap();
        let t = db
            .create_index(&mut txn, &t, "by_location", &["location"])
            .unwrap();
        let t = db
            .create_index(&mut txn, &t, "by_taken", &["taken_at"])
            .unwrap();
        let t = db.create_fts_index(&mut txn, &t, "tags").unwrap();
        txn.commit().unwrap();
        t
    }

    fn row(id: i64, loc: &str, at: i64, tags: &str) -> Vec<Value> {
        vec![
            Value::Integer(id),
            Value::text(loc),
            Value::Integer(at),
            Value::text(tags),
        ]
    }

    #[test]
    fn upsert_get_delete_with_count() {
        let (_d, db) = db();
        let t = photos(&db);
        let mut txn = db.begin_write().unwrap();
        assert!(t
            .upsert(&mut txn, row(1, "Seattle", 100, "cat yarn"))
            .unwrap()
            .is_none());
        assert!(t
            .upsert(&mut txn, row(2, "NYC", 200, "dog park"))
            .unwrap()
            .is_none());
        assert_eq!(t.row_count(&txn).unwrap(), 2);
        // Upsert replaces without changing the count.
        let old = t.upsert(&mut txn, row(1, "Tacoma", 101, "cat")).unwrap();
        assert_eq!(old.unwrap()[1], Value::text("Seattle"));
        assert_eq!(t.row_count(&txn).unwrap(), 2);
        let got = t.get(&txn, &[Value::Integer(1)]).unwrap().unwrap();
        assert_eq!(got[1], Value::text("Tacoma"));
        // Delete updates count and returns the row.
        let gone = t.delete(&mut txn, &[Value::Integer(2)]).unwrap().unwrap();
        assert_eq!(gone[1], Value::text("NYC"));
        assert!(t.delete(&mut txn, &[Value::Integer(2)]).unwrap().is_none());
        assert_eq!(t.row_count(&txn).unwrap(), 1);
        txn.commit().unwrap();
    }

    #[test]
    fn secondary_index_follows_updates() {
        let (_d, db) = db();
        let t = photos(&db);
        let mut txn = db.begin_write().unwrap();
        for i in 0..20 {
            let loc = if i % 3 == 0 { "Seattle" } else { "NYC" };
            t.upsert(&mut txn, row(i, loc, i * 10, "x")).unwrap();
        }
        txn.commit().unwrap();
        let r = db.begin_read();
        let idx = t.index_on(&[1]).unwrap();
        let seattle = idx.lookup_eq(&r, &[Value::text("Seattle")]).unwrap();
        assert_eq!(seattle.len(), 7); // 0,3,6,9,12,15,18
        assert!(seattle.contains(&vec![Value::Integer(0)]));

        // Move photo 0 to NYC: index entries migrate.
        let mut txn = db.begin_write().unwrap();
        t.upsert(&mut txn, row(0, "NYC", 0, "x")).unwrap();
        txn.commit().unwrap();
        let r = db.begin_read();
        let seattle = idx.lookup_eq(&r, &[Value::text("Seattle")]).unwrap();
        assert_eq!(seattle.len(), 6);
        assert!(!seattle.contains(&vec![Value::Integer(0)]));

        // Delete removes index entries.
        let mut txn = db.begin_write().unwrap();
        t.delete(&mut txn, &[Value::Integer(3)]).unwrap();
        txn.commit().unwrap();
        let r = db.begin_read();
        assert_eq!(
            idx.lookup_eq(&r, &[Value::text("Seattle")]).unwrap().len(),
            5
        );
    }

    #[test]
    fn index_range_lookup() {
        let (_d, db) = db();
        let t = photos(&db);
        let mut txn = db.begin_write().unwrap();
        for i in 0..50 {
            t.upsert(&mut txn, row(i, "x", i * 10, "x")).unwrap();
        }
        txn.commit().unwrap();
        let r = db.begin_read();
        let idx = t.index_on(&[2]).unwrap();
        let got = idx
            .lookup_range(
                &r,
                Some(&Value::Integer(100)),
                Some(&Value::Integer(150)),
                false,
                false,
            )
            .unwrap();
        // taken_at in [100, 150] -> ids 10..=15
        assert_eq!(got.len(), 6);
        let got = idx
            .lookup_range(
                &r,
                Some(&Value::Integer(100)),
                Some(&Value::Integer(150)),
                true,
                true,
            )
            .unwrap();
        assert_eq!(got.len(), 4); // strict: 110..140
        let got = idx
            .lookup_range(&r, None, Some(&Value::Integer(40)), false, false)
            .unwrap();
        assert_eq!(got.len(), 5); // 0,10,20,30,40
    }

    #[test]
    fn fts_match_conjunction() {
        let (_d, db) = db();
        let t = photos(&db);
        let mut txn = db.begin_write().unwrap();
        t.upsert(&mut txn, row(1, "a", 0, "black cat playing yarn"))
            .unwrap();
        t.upsert(&mut txn, row(2, "a", 0, "black dog")).unwrap();
        t.upsert(&mut txn, row(3, "a", 0, "white CAT sleeping"))
            .unwrap();
        txn.commit().unwrap();
        let r = db.begin_read();
        let f = t.fts_on(3).unwrap();
        assert_eq!(f.df(&r, "black").unwrap(), 2);
        assert_eq!(f.df(&r, "cat").unwrap(), 2, "case-insensitive");
        let hits = f.match_pks(&r, "black cat").unwrap();
        assert_eq!(hits, vec![vec![Value::Integer(1)]]);
        let hits = f.match_pks(&r, "cat").unwrap();
        assert_eq!(hits.len(), 2);
        assert!(f.match_pks(&r, "purple").unwrap().is_empty());
        assert!(f.match_pks(&r, "").unwrap().is_empty());

        // Updating a doc's text updates postings and dfs.
        let mut txn = db.begin_write().unwrap();
        t.upsert(&mut txn, row(1, "a", 0, "sunset beach")).unwrap();
        txn.commit().unwrap();
        let r = db.begin_read();
        assert_eq!(f.df(&r, "black").unwrap(), 1);
        assert_eq!(f.df(&r, "yarn").unwrap(), 0);
        assert_eq!(
            f.match_pks(&r, "sunset").unwrap(),
            vec![vec![Value::Integer(1)]]
        );
    }

    #[test]
    fn replace_touches_only_the_indexes_whose_columns_change() {
        let (_d, db) = db();
        let mut txn = db.begin_write().unwrap();
        let schema = TableSchema::new(
            "notes",
            vec![
                ColumnDef::new("id", ValueType::Integer),
                ColumnDef::new("cat", ValueType::Text),
                ColumnDef::new("tags", ValueType::Text),
                ColumnDef::new("n", ValueType::Integer),
            ],
            &["id"],
        );
        let t = db.create_table(&mut txn, schema.unwrap()).unwrap();
        let t = db.create_index(&mut txn, &t, "by_cat", &["cat"]).unwrap();
        let t = db.create_fts_index(&mut txn, &t, "tags").unwrap();
        let note = |id: i64, cat: &str, tags: &str, n: i64| {
            vec![
                Value::Integer(id),
                Value::text(cat),
                Value::text(tags),
                Value::Integer(n),
            ]
        };
        for id in 0..20 {
            t.upsert(&mut txn, note(id, "red", "cat yarn", id)).unwrap();
        }
        txn.commit().unwrap();
        let (idx, f) = (t.index_on(&[1]).unwrap(), t.fts_on(2).unwrap());
        let pks = |cat: &str| {
            let r = db.begin_read();
            let mut pks = idx.lookup_eq(&r, &[Value::text(cat)]).unwrap();
            pks.sort_by_key(|pk| pk[0].as_integer());
            pks
        };
        let df = |token: &str| f.df(&db.begin_read(), token).unwrap();
        let all_red = pks("red");
        let replace = |row: Vec<Value>| {
            let before = db.store().stats();
            let mut txn = db.begin_write().unwrap();
            assert!(t.upsert(&mut txn, row).unwrap().is_some());
            txn.commit().unwrap();
            db.store().stats().since(&before).wal_writes
        };

        // Only the unindexed column changes: the data leaf is the one
        // page logged; no index, FTS or catalog page is dirtied.
        assert_eq!(replace(note(3, "red", "cat yarn", 99)), 1);
        assert_eq!(pks("red"), all_red);
        assert_eq!((df("cat"), df("yarn")), (20, 20));

        // A changed indexed value moves the entry.
        assert!(replace(note(3, "blue", "cat yarn", 99)) > 1);
        assert!(!pks("red").contains(&vec![Value::Integer(3)]));
        assert_eq!(pks("red").len(), 19);
        assert_eq!(pks("blue"), vec![vec![Value::Integer(3)]]);
        assert_eq!((df("cat"), df("yarn")), (20, 20));

        // Changed text moves postings and document frequencies.
        assert!(replace(note(3, "blue", "cat ball", 99)) > 1);
        assert_eq!((df("cat"), df("yarn"), df("ball")), (20, 19, 1));
        let r = db.begin_read();
        assert_eq!(
            f.match_pks(&r, "ball").unwrap(),
            vec![vec![Value::Integer(3)]]
        );
        assert_eq!(f.match_pks(&r, "yarn").unwrap().len(), 19);
        assert_eq!(f.match_pks(&r, "cat").unwrap().len(), 20);
    }

    /// A committed `(partition_id, vector_id) -> embedding` table of
    /// `partitions × rows` rows.
    fn vectors(db: &Database, partitions: i64, rows: i64) -> Table {
        let mut txn = db.begin_write().unwrap();
        let t = db
            .create_table(
                &mut txn,
                TableSchema::new(
                    "vectors",
                    vec![
                        ColumnDef::new("partition_id", ValueType::Integer),
                        ColumnDef::new("vector_id", ValueType::Integer),
                        ColumnDef::new("embedding", ValueType::Blob),
                    ],
                    &["partition_id", "vector_id"],
                )
                .unwrap(),
            )
            .unwrap();
        for p in 0..partitions {
            for v in 0..rows {
                t.upsert(
                    &mut txn,
                    vec![
                        Value::Integer(p),
                        Value::Integer(v),
                        Value::blob(vec![p as u8; 16]),
                    ],
                )
                .unwrap();
            }
        }
        txn.commit().unwrap();
        t
    }

    #[test]
    fn composite_pk_clusters_scans() {
        let (_d, db) = db();
        let t = vectors(&db, 5, 30);
        let r = db.begin_read();
        // A partition prefix scan yields exactly that partition's rows,
        // in vector_id order.
        let rows: Vec<_> = t
            .scan_pk_prefix_raw(&r, &[Value::Integer(3)])
            .unwrap()
            .map(|kv| decode_row(&kv?.1))
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(rows.len(), 30);
        assert!(rows.iter().all(|row| row[0] == Value::Integer(3)));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[1], Value::Integer(i as i64));
        }
        assert_eq!(t.row_count(&r).unwrap(), 150);
    }

    #[test]
    fn visit_lends_the_scanned_rows_and_stops_at_the_first_error() {
        let (_d, db) = db();
        let t = vectors(&db, 5, 300);
        let r = db.begin_read();
        for prefix in [vec![], vec![Value::Integer(3)], vec![Value::Integer(9)]] {
            let owned: Vec<_> = t
                .scan_pk_prefix_raw(&r, &prefix)
                .unwrap()
                .collect::<Result<Vec<_>>>()
                .unwrap();
            let mut lent = Vec::new();
            t.visit_pk_prefix(&r, &prefix, |key, row| {
                lent.push((key.to_vec(), row.to_vec()));
                Ok::<(), RelError>(())
            })
            .unwrap();
            assert_eq!(lent, owned, "{prefix:?}");
        }
        let mut calls = 0;
        let refused = t.visit_pk_prefix(&r, &[Value::Integer(3)], |_, _| {
            calls += 1;
            if calls == 6 {
                return Err(RelError::Codec("refused".into()));
            }
            Ok(())
        });
        assert!(matches!(refused, Err(RelError::Codec(m)) if m == "refused"));
        assert_eq!(calls, 6, "nothing is visited after the error");
    }

    #[test]
    fn schema_violation_rejected_before_any_write() {
        let (_d, db) = db();
        let t = photos(&db);
        let mut txn = db.begin_write().unwrap();
        assert!(t
            .upsert(
                &mut txn,
                vec![
                    Value::text("oops"),
                    Value::text("x"),
                    Value::Null,
                    Value::Null
                ]
            )
            .is_err());
        assert_eq!(t.row_count(&txn).unwrap(), 0);
    }
}
