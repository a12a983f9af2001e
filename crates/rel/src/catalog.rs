//! The catalog: persistent metadata for tables, indexes, full-text
//! indexes, and column statistics, plus the [`Database`] handle that
//! ties the relational layer to a [`micronn_storage::Store`].
//!
//! Catalog entries live in a dedicated B+tree (header root slot 0),
//! keyed by memcomparable tuples:
//!
//! | key                           | payload                           |
//! |-------------------------------|-----------------------------------|
//! | `("t", table)`                | schema, data-tree root            |
//! | `("c", table)`                | row count                         |
//! | `("i", table, index)`         | column list, index-tree root      |
//! | `("f", table, column)`        | postings root, counts root        |
//! | `("s", table, column)`        | serialized histogram              |

use micronn_storage::{BTree, PageRead, ReadTxn, Store, StoreOptions, WriteTxn};

use crate::error::{RelError, Result};
use crate::keys::encode_key;
use crate::row::{decode_row, encode_row};
use crate::schema::{ColumnDef, TableSchema};
use crate::table::{FtsDef, IndexDef, Table};
use crate::value::{Value, ValueType};

/// Header root slot holding the catalog tree.
const CATALOG_ROOT_SLOT: usize = 0;

fn table_key(name: &str) -> Vec<u8> {
    encode_key(&[Value::text("t"), Value::text(name)])
}

pub(crate) fn count_key(name: &str) -> Vec<u8> {
    encode_key(&[Value::text("c"), Value::text(name)])
}

fn index_key(table: &str, index: &str) -> Vec<u8> {
    encode_key(&[Value::text("i"), Value::text(table), Value::text(index)])
}

fn fts_key(table: &str, column: &str) -> Vec<u8> {
    encode_key(&[Value::text("f"), Value::text(table), Value::text(column)])
}

pub(crate) fn stats_key(table: &str, column: &str) -> Vec<u8> {
    encode_key(&[Value::text("s"), Value::text(table), Value::text(column)])
}

fn encode_schema(schema: &TableSchema, data_root: u32) -> Vec<u8> {
    let mut vals = vec![
        Value::text(schema.name.clone()),
        Value::Integer(data_root as i64),
        Value::Integer(schema.columns.len() as i64),
    ];
    for c in &schema.columns {
        vals.push(Value::text(c.name.clone()));
        vals.push(Value::Integer(c.ty.tag() as i64));
        vals.push(Value::Integer(c.nullable as i64));
    }
    vals.push(Value::Integer(schema.pk.len() as i64));
    for &i in &schema.pk {
        vals.push(Value::Integer(i as i64));
    }
    encode_row(&vals)
}

fn decode_schema(bytes: &[u8]) -> Result<(TableSchema, u32)> {
    let vals = decode_row(bytes)?;
    let mut it = vals.into_iter();
    let bad = || RelError::Codec("malformed table catalog entry".into());
    let name = match it.next().ok_or_else(bad)? {
        Value::Text(s) => s,
        _ => return Err(bad()),
    };
    let root = it.next().and_then(|v| v.as_integer()).ok_or_else(bad)? as u32;
    let ncols = it.next().and_then(|v| v.as_integer()).ok_or_else(bad)? as usize;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let cname = match it.next().ok_or_else(bad)? {
            Value::Text(s) => s,
            _ => return Err(bad()),
        };
        let tag = it.next().and_then(|v| v.as_integer()).ok_or_else(bad)? as u8;
        let nullable = it.next().and_then(|v| v.as_integer()).ok_or_else(bad)? != 0;
        columns.push(ColumnDef {
            name: cname,
            ty: ValueType::from_tag(tag).ok_or_else(bad)?,
            nullable,
        });
    }
    let npk = it.next().and_then(|v| v.as_integer()).ok_or_else(bad)? as usize;
    let mut pk = Vec::with_capacity(npk);
    for _ in 0..npk {
        pk.push(it.next().and_then(|v| v.as_integer()).ok_or_else(bad)? as usize);
    }
    Ok((TableSchema { name, columns, pk }, root))
}

/// A relational database over a single [`Store`] file. Cheap to clone.
#[derive(Clone)]
pub struct Database {
    store: Store,
}

impl Database {
    /// Creates a new database file with an empty catalog.
    pub fn create(path: impl AsRef<std::path::Path>, opts: StoreOptions) -> Result<Database> {
        let store = Store::create(path, opts)?;
        let mut txn = store.begin_write()?;
        let catalog = BTree::create(&mut txn)?;
        txn.set_root(CATALOG_ROOT_SLOT, catalog.root());
        txn.commit()?;
        Ok(Database { store })
    }

    /// Opens an existing database (with WAL crash recovery).
    pub fn open(path: impl AsRef<std::path::Path>, opts: StoreOptions) -> Result<Database> {
        let store = Store::open(path, opts)?;
        Ok(Database { store })
    }

    /// The underlying page store (stats, checkpointing, cache purge).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Begins a snapshot-isolated read transaction.
    pub fn begin_read(&self) -> ReadTxn {
        self.store.begin_read()
    }

    /// Begins the exclusive write transaction.
    pub fn begin_write(&self) -> Result<WriteTxn> {
        Ok(self.store.begin_write()?)
    }

    fn catalog<R: PageRead + ?Sized>(r: &R) -> BTree {
        BTree::open(r.root(CATALOG_ROOT_SLOT))
    }

    /// Creates a table; fails if one with the same name exists.
    pub fn create_table(&self, txn: &mut WriteTxn, schema: TableSchema) -> Result<Table> {
        let catalog = Self::catalog(txn);
        let tkey = table_key(&schema.name);
        if catalog.get(txn, &tkey)?.is_some() {
            return Err(RelError::AlreadyExists(format!("table {}", schema.name)));
        }
        let data = BTree::create(txn)?;
        catalog.insert(txn, &tkey, &encode_schema(&schema, data.root()))?;
        catalog.insert(
            txn,
            &count_key(&schema.name),
            &encode_row(&[Value::Integer(0)]),
        )?;
        Ok(Table::assemble(schema, data, catalog, vec![], vec![]))
    }

    /// Opens a table and its indexes.
    pub fn open_table<R: PageRead + ?Sized>(&self, r: &R, name: &str) -> Result<Table> {
        let catalog = Self::catalog(r);
        let bytes = catalog
            .get(r, &table_key(name))?
            .ok_or_else(|| RelError::NotFound(format!("table {name}")))?;
        let (schema, root) = decode_schema(&bytes)?;
        // Load secondary indexes.
        let mut indexes = Vec::new();
        let iprefix = encode_key(&[Value::text("i"), Value::text(name)]);
        for kv in catalog.scan_prefix(r, &iprefix)? {
            let (k, v) = kv?;
            let key_vals = crate::keys::decode_key(&k)?;
            let index_name = match key_vals.get(2) {
                Some(Value::Text(s)) => s.clone(),
                _ => return Err(RelError::Codec("malformed index catalog key".into())),
            };
            let vals = decode_row(&v)?;
            let bad = || RelError::Codec("malformed index catalog entry".into());
            let root = vals.first().and_then(|v| v.as_integer()).ok_or_else(bad)? as u32;
            let ncols = vals.get(1).and_then(|v| v.as_integer()).ok_or_else(bad)? as usize;
            let mut cols = Vec::with_capacity(ncols);
            for i in 0..ncols {
                cols.push(
                    vals.get(2 + i)
                        .and_then(|v| v.as_integer())
                        .ok_or_else(bad)? as usize,
                );
            }
            indexes.push(IndexDef {
                name: index_name,
                cols,
                tree: BTree::open(root),
            });
        }
        // Load FTS indexes.
        let mut fts = Vec::new();
        let fprefix = encode_key(&[Value::text("f"), Value::text(name)]);
        for kv in catalog.scan_prefix(r, &fprefix)? {
            let (k, v) = kv?;
            let key_vals = crate::keys::decode_key(&k)?;
            let column_name = match key_vals.get(2) {
                Some(Value::Text(s)) => s.clone(),
                _ => return Err(RelError::Codec("malformed fts catalog key".into())),
            };
            let vals = decode_row(&v)?;
            let bad = || RelError::Codec("malformed fts catalog entry".into());
            let postings = vals.first().and_then(|v| v.as_integer()).ok_or_else(bad)? as u32;
            let counts = vals.get(1).and_then(|v| v.as_integer()).ok_or_else(bad)? as u32;
            fts.push(FtsDef {
                column: schema.column_index(&column_name)?,
                postings: BTree::open(postings),
                counts: BTree::open(counts),
            });
        }
        Ok(Table::assemble(
            schema,
            BTree::open(root),
            catalog,
            indexes,
            fts,
        ))
    }

    /// Drops a table, its indexes, and its statistics, freeing all
    /// their pages.
    pub fn drop_table(&self, txn: &mut WriteTxn, name: &str) -> Result<()> {
        let table = self.open_table(txn, name)?;
        let catalog = Self::catalog(txn);
        table.data_tree().destroy(txn)?;
        for idx in table.indexes() {
            idx.tree.destroy(txn)?;
        }
        for f in table.fts_indexes() {
            f.postings.destroy(txn)?;
            f.counts.destroy(txn)?;
        }
        // Remove every catalog entry mentioning the table.
        for kind in ["t", "c", "i", "f", "s"] {
            let prefix = encode_key(&[Value::text(kind), Value::text(name)]);
            let keys: Vec<Vec<u8>> = catalog
                .scan_prefix(txn, &prefix)?
                .map(|kv| kv.map(|(k, _)| k))
                .collect::<micronn_storage::Result<_>>()?;
            for k in keys {
                catalog.delete(txn, &k)?;
            }
        }
        Ok(())
    }

    /// Creates a secondary index on `cols` and backfills it from
    /// existing rows. Returns the refreshed table handle.
    pub fn create_index(
        &self,
        txn: &mut WriteTxn,
        table: &Table,
        index_name: &str,
        cols: &[&str],
    ) -> Result<Table> {
        let catalog = Self::catalog(txn);
        let schema = table.schema();
        let ikey = index_key(&schema.name, index_name);
        if catalog.get(txn, &ikey)?.is_some() {
            return Err(RelError::AlreadyExists(format!("index {index_name}")));
        }
        let col_indexes: Vec<usize> = cols
            .iter()
            .map(|c| schema.column_index(c))
            .collect::<Result<_>>()?;
        let tree = BTree::create(txn)?;
        let mut vals = vec![
            Value::Integer(tree.root() as i64),
            Value::Integer(col_indexes.len() as i64),
        ];
        for &c in &col_indexes {
            vals.push(Value::Integer(c as i64));
        }
        catalog.insert(txn, &ikey, &encode_row(&vals))?;
        let def = IndexDef {
            name: index_name.to_owned(),
            cols: col_indexes,
            tree,
        };
        // Backfill: every existing row gets an index entry.
        let rows: Vec<Vec<Value>> = table.scan(txn)?.collect::<Result<Vec<_>>>()?;
        for row in rows {
            def.insert_entry(txn, &row, &schema.pk_values(&row))?;
        }
        self.open_table(txn, &schema.name)
    }

    /// Creates a full-text index over a TEXT column and backfills it.
    /// Returns the refreshed table handle.
    pub fn create_fts_index(
        &self,
        txn: &mut WriteTxn,
        table: &Table,
        column: &str,
    ) -> Result<Table> {
        let catalog = Self::catalog(txn);
        let schema = table.schema();
        let col = schema.column_index(column)?;
        if schema.columns[col].ty != ValueType::Text {
            return Err(RelError::Schema(format!(
                "fts index requires a TEXT column, {column} is {}",
                schema.columns[col].ty
            )));
        }
        let fkey = fts_key(&schema.name, column);
        if catalog.get(txn, &fkey)?.is_some() {
            return Err(RelError::AlreadyExists(format!("fts index on {column}")));
        }
        let postings = BTree::create(txn)?;
        let counts = BTree::create(txn)?;
        catalog.insert(
            txn,
            &fkey,
            &encode_row(&[
                Value::Integer(postings.root() as i64),
                Value::Integer(counts.root() as i64),
            ]),
        )?;
        let def = FtsDef {
            column: col,
            postings,
            counts,
        };
        let rows: Vec<Vec<Value>> = table.scan(txn)?.collect::<Result<Vec<_>>>()?;
        for row in rows {
            def.add_doc(txn, &row, &schema.pk_values(&row))?;
        }
        self.open_table(txn, &schema.name)
    }

    /// Every B+tree of the database at `r`, named: the catalog tree
    /// (`catalog`), each table's clustered tree (the table's name), each
    /// secondary index (`table.index`) and the two trees of each
    /// full-text index (`table.column.postings`, `table.column.counts`).
    /// Every page of the file but the header and the free pages belongs
    /// to one of them.
    pub fn trees<R: PageRead + ?Sized>(&self, r: &R) -> Result<Vec<(String, BTree)>> {
        let mut out = vec![("catalog".to_owned(), Self::catalog(r))];
        for name in self.list_tables(r)? {
            let table = self.open_table(r, &name)?;
            out.push((name.clone(), table.data_tree()));
            for index in table.indexes() {
                out.push((format!("{name}.{}", index.name), index.tree));
            }
            for f in table.fts_indexes() {
                let column = &table.schema().columns[f.column].name;
                out.push((format!("{name}.{column}.postings"), f.postings));
                out.push((format!("{name}.{column}.counts"), f.counts));
            }
        }
        Ok(out)
    }

    /// Names of all tables.
    pub fn list_tables<R: PageRead + ?Sized>(&self, r: &R) -> Result<Vec<String>> {
        let catalog = Self::catalog(r);
        let prefix = encode_key(&[Value::text("t")]);
        let mut out = Vec::new();
        for kv in catalog.scan_prefix(r, &prefix)? {
            let (k, _) = kv?;
            if let Some(Value::Text(name)) = crate::keys::decode_key(&k)?.into_iter().nth(1) {
                out.push(name);
            }
        }
        Ok(out)
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("store", &self.store)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micronn_storage::SyncMode;

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

    fn photos_schema() -> TableSchema {
        TableSchema::new(
            "photos",
            vec![
                ColumnDef::new("id", ValueType::Integer),
                ColumnDef::new("location", ValueType::Text),
                ColumnDef::nullable("taken_at", ValueType::Integer),
            ],
            &["id"],
        )
        .unwrap()
    }

    #[test]
    fn create_open_table_roundtrip() {
        let (_d, db) = db();
        let mut txn = db.begin_write().unwrap();
        let t = db.create_table(&mut txn, photos_schema()).unwrap();
        assert_eq!(t.schema().name, "photos");
        txn.commit().unwrap();

        let r = db.begin_read();
        let t = db.open_table(&r, "photos").unwrap();
        assert_eq!(t.schema(), &photos_schema());
        assert_eq!(t.row_count(&r).unwrap(), 0);
        assert!(db.open_table(&r, "nope").is_err());
        assert_eq!(db.list_tables(&r).unwrap(), vec!["photos".to_string()]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let (_d, db) = db();
        let mut txn = db.begin_write().unwrap();
        db.create_table(&mut txn, photos_schema()).unwrap();
        assert!(matches!(
            db.create_table(&mut txn, photos_schema()),
            Err(RelError::AlreadyExists(_))
        ));
    }

    #[test]
    fn schema_codec_roundtrip() {
        let s = photos_schema();
        let bytes = encode_schema(&s, 42);
        let (s2, root) = decode_schema(&bytes).unwrap();
        assert_eq!(s, s2);
        assert_eq!(root, 42);
    }

    #[test]
    fn drop_table_frees_pages_and_catalog() {
        let (_d, db) = db();
        let mut txn = db.begin_write().unwrap();
        let t = db.create_table(&mut txn, photos_schema()).unwrap();
        for i in 0..500 {
            t.upsert(
                &mut txn,
                vec![
                    Value::Integer(i),
                    Value::text(format!("loc{}", i % 7)),
                    Value::Null,
                ],
            )
            .unwrap();
        }
        txn.commit().unwrap();
        let mut txn = db.begin_write().unwrap();
        db.drop_table(&mut txn, "photos").unwrap();
        txn.commit().unwrap();
        let r = db.begin_read();
        assert!(db.open_table(&r, "photos").is_err());
        assert!(db.list_tables(&r).unwrap().is_empty());
        assert!(db.store().freelist_len() > 0);
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        {
            let db = Database::create(
                &path,
                StoreOptions {
                    sync: SyncMode::Off,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut txn = db.begin_write().unwrap();
            let t = db.create_table(&mut txn, photos_schema()).unwrap();
            t.upsert(
                &mut txn,
                vec![Value::Integer(1), Value::text("Seattle"), Value::Null],
            )
            .unwrap();
            txn.commit().unwrap();
        }
        let db = Database::open(
            &path,
            StoreOptions {
                sync: SyncMode::Off,
                ..Default::default()
            },
        )
        .unwrap();
        let r = db.begin_read();
        let t = db.open_table(&r, "photos").unwrap();
        let row = t.get(&r, &[Value::Integer(1)]).unwrap().unwrap();
        assert_eq!(row[1], Value::text("Seattle"));
        assert_eq!(t.row_count(&r).unwrap(), 1);
    }
}
