//! Whole-database consistency checking (`fsck`).
//!
//! Every mutating operation in MicroNN — upsert, delete, delta flush,
//! partition split/merge, full rebuild — is one write transaction over
//! *several* tables (`vectors`, `assets`, `attrs`, `centroids`, `meta`,
//! and for quantized catalogs `codes` + `quants`). The WAL makes each such
//! transaction atomic; [`MicroNN::verify_integrity`](crate::MicroNN::verify_integrity) is the other half
//! of that durability claim: it walks the whole catalog from one read
//! snapshot and cross-checks every inter-table invariant, so a crash
//! test (or an operator via `micronnctl fsck`) can prove no partial
//! transaction is ever observable.
//!
//! Checked invariants:
//!
//! * `assets` ↔ `vectors` is a bijection: every asset row points at a
//!   live vector row whose `asset` column points back, and no vector
//!   row is unreferenced.
//! * Every asset has exactly one `attrs` row and vice versa.
//! * Every secondary index of `attrs` holds exactly the rows' entries:
//!   each entry names a live `attrs` row whose indexed column encodes to
//!   the entry's value, and each row has its entry. The pre-filter plan
//!   answers an indexed comparison from the entries alone.
//! * Vector blobs decode to exactly the index dimension.
//! * Every non-delta partition appearing in `vectors` has a centroid
//!   row of the right dimension, and each centroid's persisted `size`
//!   equals the partition's actual row count (the lifecycle policy
//!   reads these sizes).
//! * `meta` agrees with the data: `delta_count` equals the delta
//!   store's row count, `k` equals the centroid row count, `next_pid`
//!   exceeds every allocated partition id, `next_vid` exceeds every
//!   stored vid.
//! * Quantized catalogs: the code storage mirrors the non-delta half
//!   of `vectors` exactly and every code re-encodes bit-identically
//!   from its f32 row under the partition's stored quantization
//!   ranges, and every encoded partition has a well-formed `quants`
//!   row for an existing centroid. For SQ8 the mirror is row-for-row
//!   (same `(partition, vid)` keys, same asset); for SQ4 every
//!   indexed vector occupies exactly one *live* slot across the
//!   partition's blocked `(partition, block)` rows — tombstoned slots
//!   (vid 0) are skipped, and their stale nibbles are ignored.
//! * Every page has one owner: the header, one B+tree of the rel
//!   catalog (its nodes and overflow chains), or the freelist. A page
//!   reached twice, or a link past the end of the file, is a violation
//!   naming the page and its owners; a page reached by nothing is
//!   counted in [`IntegrityReport::unreachable_pages`] (space lost, not
//!   data).

use std::collections::{BTreeMap, BTreeSet};

use micronn_rel::{blob_to_f32, decode_key};
use micronn_storage::{Occupancy, PageId, PageRead, StorageError};

use crate::catalog::Counter;
use crate::db::DELTA_PARTITION;
use crate::error::Result;

/// Outcome of [`MicroNN::verify_integrity`](crate::MicroNN::verify_integrity): per-check counters plus
/// every violation found. `micronnctl fsck` prints it and exits
/// non-zero unless [`IntegrityReport::is_clean`].
#[derive(Debug, Clone, Default)]
pub struct IntegrityReport {
    /// Centroid rows walked (indexed partitions).
    pub partitions_walked: u64,
    /// Vector rows checked (delta store included).
    pub vectors_checked: u64,
    /// Asset rows cross-checked against their vector rows.
    pub assets_checked: u64,
    /// Quantized codes cross-checked — SQ8 code rows or live SQ4
    /// block slots (`0` for F32 catalogs).
    pub codes_checked: u64,
    /// Dangling or missing cross-references (each also appends to
    /// [`IntegrityReport::errors`]).
    pub orphans: u64,
    /// Human-readable description of every violation, in walk order.
    pub errors: Vec<String>,
    /// Page counts and leaf fill of every B+tree at the snapshot
    /// ([`Snapshot::tree_fill`](crate::Snapshot::tree_fill)): why a
    /// query reads as many pages as it does.
    pub tree_fill: Vec<(String, Occupancy)>,
    /// Pages of the file that neither the header, a tree nor the
    /// freelist reaches: space no allocation will hand out again.
    pub unreachable_pages: u64,
}

impl IntegrityReport {
    /// True when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    fn error(&mut self, msg: String) {
        self.errors.push(msg);
    }

    fn orphan(&mut self, msg: String) {
        self.orphans += 1;
        self.errors.push(msg);
    }
}

impl std::fmt::Display for IntegrityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "partitions walked: {}, vectors checked: {}, assets cross-checked: {}, \
             codes checked: {}, orphans: {}, errors: {}",
            self.partitions_walked,
            self.vectors_checked,
            self.assets_checked,
            self.codes_checked,
            self.orphans,
            self.errors.len()
        )
    }
}

/// Who owns each page of the file, filled in by the page walk of
/// [`Snapshot::verify_integrity`](crate::Snapshot::verify_integrity).
struct PageOwners {
    /// Index into `names` per page; [`PageOwners::NOBODY`] when unowned.
    owner: Vec<u32>,
    names: Vec<String>,
}

impl PageOwners {
    const NOBODY: u32 = u32::MAX;

    /// Page 0 belongs to the header.
    fn new(pages: u32) -> PageOwners {
        let mut owner = vec![Self::NOBODY; pages as usize];
        owner[0] = 0;
        PageOwners {
            owner,
            names: vec!["header".to_owned()],
        }
    }

    /// Starts the walk of the next owner.
    fn begin(&mut self, name: &str) {
        self.names.push(name.to_owned());
    }

    /// Gives `id` to the owner being walked; `false` (and a violation)
    /// when the page is past the end of the file or already owned.
    fn claim(&mut self, rep: &mut IntegrityReport, id: PageId) -> bool {
        let who = self.names.len() as u32 - 1;
        let name = &self.names[who as usize];
        match self.owner.get(id as usize).copied() {
            None => rep.error(format!(
                "page {id} of {name} is past the end of the {}-page file",
                self.owner.len()
            )),
            Some(Self::NOBODY) => {
                self.owner[id as usize] = who;
                return true;
            }
            Some(first) => rep.error(format!(
                "page {id} is owned twice: by {} and by {name}",
                self.names[first as usize]
            )),
        }
        false
    }

    fn unowned(&self) -> u64 {
        self.owner.iter().filter(|&&o| o == Self::NOBODY).count() as u64
    }
}

impl crate::snapshot::Snapshot {
    /// Page counts and leaf fill of every B+tree of the index at this
    /// snapshot, as `(tree, occupancy)` — a table's clustered tree
    /// under the table's name, a secondary index under `table.index`.
    /// A walk of each tree's leaf chain; no row is decoded.
    pub fn tree_fill(&self) -> Result<Vec<(String, Occupancy)>> {
        self.db.inner.tables.occupancy(&self.r)
    }

    /// [`MicroNN::verify_integrity`](crate::MicroNN::verify_integrity)
    /// at this snapshot: every table is walked at its commit seq, so
    /// fsck sees one frozen catalog even while writers and maintenance
    /// commit underneath.
    pub fn verify_integrity(&self) -> Result<IntegrityReport> {
        let (inner, r) = (&*self.db.inner, &self.r);
        let t = &inner.tables;
        let dim = inner.dim;
        let mut rep = IntegrityReport {
            tree_fill: self.tree_fill()?,
            ..Default::default()
        };

        // Pass 1 — vectors: decode every row, index (partition, vid) →
        // asset, count rows per partition. Quantized catalogs also keep
        // the decoded f32s for the code re-encoding check below.
        let mut by_key: BTreeMap<(i64, i64), i64> = BTreeMap::new();
        let mut f32s: BTreeMap<(i64, i64), Vec<f32>> = BTreeMap::new();
        let mut part_counts: BTreeMap<i64, i64> = BTreeMap::new();
        let mut max_vid = 0i64;
        t.scan_vectors(r, None, |(p, vid), asset, blob| {
            rep.vectors_checked += 1;
            max_vid = max_vid.max(vid);
            *part_counts.entry(p).or_insert(0) += 1;
            match blob_to_f32(blob) {
                Ok(v) if v.len() == dim => {
                    if inner.quantized() {
                        f32s.insert((p, vid), v);
                    }
                }
                Ok(v) => rep.error(format!(
                    "vector ({p},{vid}): dimension {} != index dimension {dim}",
                    v.len()
                )),
                Err(_) => rep.error(format!("vector ({p},{vid}): payload is not an f32 blob")),
            }
            if by_key.insert((p, vid), asset).is_some() {
                rep.error(format!("vector ({p},{vid}): duplicate primary key"));
            }
            Ok(())
        })?;

        // Pass 2 — assets ↔ vectors bijection, and assets ↔ attrs.
        let mut referenced: BTreeSet<(i64, i64)> = BTreeSet::new();
        let mut asset_ids: BTreeSet<i64> = BTreeSet::new();
        for [asset, p, vid] in t.locations(r)? {
            rep.assets_checked += 1;
            asset_ids.insert(asset);
            match by_key.get(&(p, vid)) {
                Some(&a) if a == asset => {
                    referenced.insert((p, vid));
                }
                Some(&a) => rep.orphan(format!(
                    "asset {asset} points at vector ({p},{vid}) which belongs to asset {a}"
                )),
                None => rep.orphan(format!(
                    "asset {asset} points at missing vector ({p},{vid})"
                )),
            }
        }
        for (&(p, vid), &asset) in &by_key {
            if !referenced.contains(&(p, vid)) {
                rep.orphan(format!(
                    "vector ({p},{vid}) of asset {asset} has no asset row pointing at it"
                ));
            }
        }
        // Each attribute row also names the entry it owes every
        // secondary index of `attrs`.
        let attrs = t.attrs();
        let mut attr_ids: BTreeSet<i64> = BTreeSet::new();
        let mut owed: Vec<BTreeSet<Vec<u8>>> = vec![BTreeSet::new(); attrs.indexes().len()];
        for row in attrs.scan(r)? {
            let row = row?;
            attr_ids.insert(row[0].as_integer().ok_or_else(|| {
                crate::Error::Config("attrs asset column is not an integer".into())
            })?);
            let pk = attrs.schema().pk_values(&row);
            for (index, owed) in attrs.indexes().iter().zip(&mut owed) {
                owed.insert(index.entry_key(&row, &pk));
            }
        }
        for &asset in &asset_ids {
            if !attr_ids.contains(&asset) {
                rep.orphan(format!("asset {asset} has no attributes row"));
            }
        }
        for &asset in &attr_ids {
            if !asset_ids.contains(&asset) {
                rep.orphan(format!("attributes row for {asset} has no asset row"));
            }
        }

        // Every index entry must be one a row owes, and every owed
        // entry must be there: the pre-filter plan decides a comparison
        // on the entries alone.
        let entry = |key: &[u8]| match decode_key(key) {
            Ok(values) => format!("{values:?}"),
            Err(_) => format!("{key:02x?}"),
        };
        for (index, mut owed) in attrs.indexes().iter().zip(owed) {
            let mut stray = Vec::new();
            index.tree.scan_all(r)?.visit(|key, _| {
                if !owed.remove(key) {
                    stray.push(entry(key));
                }
                Ok::<_, StorageError>(())
            })?;
            let name = &index.name;
            for e in stray {
                rep.orphan(format!(
                    "index attrs.{name}: entry {e} matches no attributes row"
                ));
            }
            for key in owed {
                let e = entry(&key);
                rep.orphan(format!(
                    "index attrs.{name}: attributes row has no entry {e}"
                ));
            }
        }

        // Pass 3 — centroids: dimensions, finite components, exact
        // sizes, id coverage.
        let mut centroid_pids: BTreeSet<i64> = BTreeSet::new();
        let mut max_pid = 0i64;
        for c in t.centroids(r)? {
            rep.partitions_walked += 1;
            let pid = c.partition;
            centroid_pids.insert(pid);
            max_pid = max_pid.max(pid);
            if pid == DELTA_PARTITION {
                rep.error("centroid row for the reserved delta partition 0".into());
            }
            if c.centroid.len() != dim {
                rep.error(format!("centroid {pid}: payload is not a {dim}-d f32 blob"));
            }
            if let Some(v) = c.centroid.iter().find(|v| !v.is_finite()) {
                // A non-finite centroid scores NaN or ∞ against every
                // vector: no flush or query ever picks its partition.
                rep.error(format!("centroid {pid}: component {v} is not finite"));
            }
            let actual = part_counts.get(&pid).copied().unwrap_or(0);
            if c.size != actual {
                rep.error(format!(
                    "centroid {pid}: persisted size {} != actual row count {actual}",
                    c.size
                ));
            }
        }
        for (&p, &n) in &part_counts {
            if p != DELTA_PARTITION && !centroid_pids.contains(&p) {
                rep.orphan(format!(
                    "{n} vector rows in partition {p} without a centroid"
                ));
            }
        }

        // Pass 4 — meta consistency.
        let delta_meta = t.counter(r, Counter::DELTA_COUNT)?;
        let delta_actual = part_counts.get(&DELTA_PARTITION).copied().unwrap_or(0);
        if delta_meta != delta_actual {
            rep.error(format!(
                "meta delta_count {delta_meta} != delta store row count {delta_actual}"
            ));
        }
        let k_meta = t.counter(r, Counter::PARTITIONS)?;
        if k_meta != centroid_pids.len() as i64 {
            rep.error(format!(
                "meta k {k_meta} != centroid row count {}",
                centroid_pids.len()
            ));
        }
        let next_pid = t.counter(r, Counter::NEXT_PID)?;
        if next_pid != 0 && next_pid <= max_pid {
            rep.error(format!(
                "meta next_pid {next_pid} is not past the largest partition id {max_pid}"
            ));
        }
        let next_vid = t.counter(r, Counter::NEXT_VID)?;
        if next_vid <= max_vid {
            rep.error(format!(
                "meta next_vid {next_vid} is not past the largest stored vid {max_vid}"
            ));
        }

        // Pass 5 — quantized catalogs: the code storage mirrors the
        // indexed vectors bit-for-bit under each partition's stored
        // ranges, one live code per vector whatever the layout (SQ8
        // row-per-vid, SQ4 blocked slots). A code, block or ranges blob
        // of the wrong length fails the walk itself.
        if inner.quantized() {
            // One encoder per encoded partition; re-encoding a vector
            // must reproduce its stored code exactly.
            let levels = inner.cfg.codec.levels();
            let encoders: BTreeMap<i64, micronn_linalg::Sq8Encoder> = (t.all_params(r)?.iter())
                .map(|(p, ranges)| (*p, ranges.encoder(levels)))
                .collect();
            for pid in encoders.keys().filter(|pid| !centroid_pids.contains(pid)) {
                rep.orphan(format!("quantization ranges for unknown partition {pid}"));
            }
            let mut code_keys: BTreeSet<(i64, i64)> = BTreeSet::new();
            let mut fresh = Vec::with_capacity(dim);
            crate::codec::visit_codes(t, r, |(p, vid), asset, code| {
                rep.codes_checked += 1;
                if p == DELTA_PARTITION {
                    return rep.error(format!("code ({p},{vid}) in the delta store"));
                }
                if !code_keys.insert((p, vid)) {
                    return rep.error(format!("vector ({p},{vid}) has more than one live code"));
                }
                match by_key.get(&(p, vid)) {
                    Some(&a) if a == asset => {}
                    Some(&a) => rep.orphan(format!(
                        "code ({p},{vid}) carries asset {asset}, vector row says {a}"
                    )),
                    None => return rep.orphan(format!("code ({p},{vid}) has no vector row")),
                }
                match (encoders.get(&p), f32s.get(&(p, vid))) {
                    (Some(enc), Some(v)) => {
                        fresh.clear();
                        enc.encode_row(v, &mut fresh);
                        if fresh != code {
                            rep.error(format!(
                                "code ({p},{vid}) does not re-encode from its f32 row \
                                 under partition {p}'s stored ranges"
                            ));
                        }
                    }
                    (None, _) => rep.orphan(format!(
                        "code ({p},{vid}) in partition without quantization ranges"
                    )),
                    _ => {} // undecodable vector already reported
                }
            })?;
            for &(p, vid) in by_key.keys() {
                if p != DELTA_PARTITION && !code_keys.contains(&(p, vid)) {
                    rep.orphan(format!("indexed vector ({p},{vid}) has no code row"));
                }
            }
        }

        // Pass 6 — pages: the header, every tree with its overflow
        // chains, then the freelist chain, each page claimed once.
        let mut owners = PageOwners::new(r.page_count());
        for (name, tree) in inner.db.trees(r)? {
            owners.begin(&name);
            tree.visit_pages(r, |id| owners.claim(&mut rep, id))?;
        }
        owners.begin("freelist");
        let mut free = r.freelist_head();
        while free != 0 && owners.claim(&mut rep, free) {
            free = r.page(free)?.get_u32(4);
        }
        rep.unreachable_pages = owners.unowned();

        Ok(rep)
    }
}

#[cfg(test)]
mod tests {
    use crate::catalog::{Block, Counter};
    use crate::config::Config;
    use crate::db::{MicroNN, VectorRecord};
    use micronn_linalg::Metric;
    use micronn_storage::SyncMode;

    fn build(dir: &std::path::Path, codec: crate::VectorCodec) -> MicroNN {
        let mut cfg = Config::new(8, Metric::L2);
        cfg.store.sync = SyncMode::Off;
        cfg.target_partition_size = 8;
        cfg.codec = codec;
        let db = MicroNN::create(dir.join("i.mnn"), cfg).unwrap();
        for i in 0..40i64 {
            db.upsert(VectorRecord::new(i, vec![(i % 5) as f32; 8]))
                .unwrap();
        }
        db.rebuild().unwrap();
        db
    }

    #[test]
    fn clean_database_passes_with_counts() {
        let dir = tempfile::tempdir().unwrap();
        for codec in [
            crate::VectorCodec::F32,
            crate::VectorCodec::Sq8,
            crate::VectorCodec::Sq4,
        ] {
            let d = dir.path().join(codec.name());
            std::fs::create_dir(&d).unwrap();
            let db = build(&d, codec);
            let rep = db.verify_integrity().unwrap();
            assert!(rep.is_clean(), "{codec}: {:?}", rep.errors);
            assert_eq!(rep.vectors_checked, 40);
            assert_eq!(rep.assets_checked, 40);
            assert!(rep.partitions_walked > 0);
            assert_eq!(rep.orphans, 0);
            if codec.is_quantized() {
                assert_eq!(rep.codes_checked, 40, "every indexed row has a code");
            } else {
                assert_eq!(rep.codes_checked, 0);
            }
        }
    }

    #[test]
    fn dangling_asset_row_is_reported() {
        let dir = tempfile::tempdir().unwrap();
        let db = build(dir.path(), crate::VectorCodec::F32);
        // Hand-corrupt: delete one vector row without its asset row.
        let t = &db.inner.tables;
        let mut w = t.begin_write(&db.inner.db).unwrap();
        let at = t.location(&w, 7).unwrap().unwrap();
        w.remove_vector(at).unwrap();
        w.commit().unwrap();

        let rep = db.verify_integrity().unwrap();
        assert!(!rep.is_clean());
        assert!(rep.orphans >= 1);
        assert!(
            rep.errors.iter().any(|e| e.contains("asset 7")),
            "{:?}",
            rep.errors
        );
    }

    /// An index entry without its row and a row without its entry,
    /// each written past the table layer, are both reported.
    #[test]
    fn stray_and_missing_index_entries_are_reported() {
        use micronn_rel::{encode_key, Value};
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = Config::new(8, Metric::L2);
        cfg.store.sync = SyncMode::Off;
        cfg.attributes = vec![crate::AttributeDef::indexed(
            "n",
            micronn_rel::ValueType::Integer,
        )];
        let db = MicroNN::create(dir.path().join("i.mnn"), cfg).unwrap();
        for i in 0..40i64 {
            let v = VectorRecord::new(i, vec![i as f32; 8]).with_attr("n", i % 4);
            db.upsert(v).unwrap();
        }
        assert!(db.verify_integrity().unwrap().is_clean());

        let t = &db.inner.tables;
        let mut w = t.begin_write(&db.inner.db).unwrap();
        let (attrs, txn) = w.raw_attrs();
        let tree = attrs.indexes()[0].tree;
        // Asset 5 has n = 1: an entry claiming n = 3 is stray, and
        // dropping asset 6's (n = 2) leaves its row without one.
        let key = |n: i64, asset: i64| encode_key(&[Value::Integer(n), Value::Integer(asset)]);
        tree.insert(txn, &key(3, 5), &[]).unwrap();
        assert!(tree.delete(txn, &key(2, 6)).unwrap().is_some());
        w.commit().unwrap();

        let rep = db.verify_integrity().unwrap();
        let said = |what: &str| rep.errors.iter().filter(|e| e.contains(what)).count();
        assert_eq!(rep.orphans, 2, "{:?}", rep.errors);
        assert_eq!(
            said("entry [Integer(3), Integer(5)] matches no attributes row"),
            1
        );
        assert_eq!(
            said("attributes row has no entry [Integer(2), Integer(6)]"),
            1
        );
    }

    #[test]
    fn wrong_partition_size_and_meta_drift_are_reported() {
        let dir = tempfile::tempdir().unwrap();
        let db = build(dir.path(), crate::VectorCodec::F32);
        let t = &db.inner.tables;
        let mut w = t.begin_write(&db.inner.db).unwrap();
        // Drift one centroid's persisted size and the delta counter.
        let mut row = t.centroids(&w).unwrap().swap_remove(0);
        row.size += 3;
        w.put_centroid(&row).unwrap();
        w.set_counter(Counter::DELTA_COUNT, 99).unwrap();
        w.commit().unwrap();

        let rep = db.verify_integrity().unwrap();
        assert!(!rep.is_clean());
        assert!(
            rep.errors.iter().any(|e| e.contains("persisted size")),
            "{:?}",
            rep.errors
        );
        assert!(
            rep.errors.iter().any(|e| e.contains("delta_count")),
            "{:?}",
            rep.errors
        );
    }

    #[test]
    fn tombstoned_sq4_slot_with_live_vector_is_reported() {
        let dir = tempfile::tempdir().unwrap();
        let db = build(dir.path(), crate::VectorCodec::Sq4);
        let t = &db.inner.tables;
        let mut w = t.begin_write(&db.inner.db).unwrap();
        // Hand-corrupt: tombstone one live slot while its vector row
        // stays — the mirror check must flag the missing code.
        let mut first: Option<Block<'static>> = None;
        t.scan_blocks(&w, None, |b| {
            first.get_or_insert_with(|| b.into_owned());
            Ok(())
        })
        .unwrap();
        let mut block = first.expect("catalog has a block");
        let (slot, ..) = block.live().next().expect("block has a live slot");
        block.set_slot(slot, 0, 0);
        w.put_block(block).unwrap();
        w.commit().unwrap();

        let rep = db.verify_integrity().unwrap();
        assert!(!rep.is_clean());
        assert!(
            rep.errors.iter().any(|e| e.contains("no code row")),
            "{:?}",
            rep.errors
        );
    }

    #[test]
    fn stale_code_row_is_reported() {
        let dir = tempfile::tempdir().unwrap();
        let db = build(dir.path(), crate::VectorCodec::Sq8);
        let t = &db.inner.tables;
        let mut w = t.begin_write(&db.inner.db).unwrap();
        // Remove one code row through the raw table: the mirrored
        // tables now disagree.
        let (codes, txn) = w.raw_codes();
        let key = {
            let row = codes.scan(txn).unwrap().next().unwrap().unwrap();
            [row[0].clone(), row[1].clone()]
        };
        codes.delete(txn, &key).unwrap();
        w.commit().unwrap();

        let rep = db.verify_integrity().unwrap();
        assert!(!rep.is_clean());
        assert!(
            rep.errors.iter().any(|e| e.contains("no code row")),
            "{:?}",
            rep.errors
        );
    }
}
