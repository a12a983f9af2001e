//! Repeated point lookups against one tree at one snapshot.
//!
//! The sibling of [`Cursor`](super::Cursor) for the other access
//! pattern of the query path: many `get`s of unrelated keys in one tree
//! (the §3.5 attribute probe, the re-rank and pre-filter vector
//! fetches). A [`PointReader`] keeps the interior pages it has
//! descended through pinned, so after the first lookup a probe costs
//! one pool fetch — the leaf — instead of one per level; it takes the
//! key as a borrowed slice and hands the value to a closure straight
//! out of the leaf image, so a lookup allocates nothing.
//!
//! Pinning needs no invalidation: a page image is immutable at a
//! snapshot, and the reader borrows its transaction, so a write
//! transaction cannot mutate pages while one of its readers is alive.
//!
//! [`PointReader::get_many`] looks up a list of keys in phases — every
//! key's descent and leaf fetch, then every key's cell search, then
//! every value — so that the memory misses of one key's lookup overlap
//! the next key's instead of queuing behind them.

use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::page::{page_type, prefetch, PageData, PageId};
use crate::store::PageRead;

use super::node::{self, ValRef};
use super::{fetch_node, val_bytes, BTree, ValBuf};

/// Interior pages one reader keeps pinned. Trees here are 2–4 levels
/// deep, so the root and the hot second-level nodes fit; past the cap
/// a descent simply fetches through the pool as a one-shot `get` does.
const MAX_PINNED: usize = 8;

/// No tree of 4 KiB pages over 32-bit page ids is deeper than this; a
/// longer descent means the child pointers form a cycle.
const MAX_DEPTH: usize = 32;

/// Keys [`PointReader::get_many`] takes through its phases at once, and
/// so the most leaves it holds pinned.
const MAX_BATCH: usize = 64;

/// A reusable point-lookup handle; see the module docs.
pub struct PointReader<'r, R: PageRead + ?Sized> {
    reader: &'r R,
    root: PageId,
    pinned: [Option<(PageId, Arc<PageData>)>; MAX_PINNED],
    /// Where spilled values are lent from.
    pub(super) buf: ValBuf,
    /// [`get_many`](Self::get_many)'s scratch: each key's leaf and, once
    /// searched, its cell.
    batch: Vec<(Arc<PageData>, Option<usize>)>,
}

impl<'r, R: PageRead + ?Sized> PointReader<'r, R> {
    pub(super) fn new(tree: BTree, reader: &'r R) -> Self {
        PointReader {
            reader,
            root: tree.root(),
            pinned: Default::default(),
            buf: ValBuf::default(),
            batch: Vec::new(),
        }
    }

    /// The one descent every point lookup in the crate shares: the leaf
    /// holding `key` and its cell index, or `None` when absent.
    pub(super) fn seek(&mut self, key: &[u8]) -> Result<Option<(Arc<PageData>, usize)>> {
        let leaf = self.leaf(key)?;
        Ok(node::leaf_search(&leaf, key).ok().map(|i| (leaf, i)))
    }

    /// The leaf whose key range holds `key`, reached through the pinned
    /// interiors.
    fn leaf(&mut self, key: &[u8]) -> Result<Arc<PageData>> {
        let mut id = self.root;
        for _ in 0..MAX_DEPTH {
            let pinned = self.pinned.iter().flatten().find(|(page, _)| *page == id);
            if let Some((_, interior)) = pinned {
                id = node::interior_descend(interior, key);
                continue;
            }
            let p = fetch_node(self.reader, id)?;
            if p.page_type() == page_type::BTREE_LEAF {
                return Ok(p);
            }
            let child = node::interior_descend(&p, key);
            if let Some(free) = self.pinned.iter_mut().find(|slot| slot.is_none()) {
                *free = Some((id, p));
            }
            id = child;
        }
        Err(StorageError::Corrupt(format!(
            "tree {}: descent exceeds {MAX_DEPTH} levels",
            self.root
        )))
    }

    /// Looks `key` up and passes its value to `f` as a slice of the
    /// leaf image, or of the overflow page when the value spilled to a
    /// one-page chain (of the reader's scratch buffer only for longer
    /// chains). `None` when the key is absent.
    pub fn get<T>(&mut self, key: &[u8], f: impl FnOnce(&[u8]) -> T) -> Result<Option<T>> {
        let Some((leaf, i)) = self.seek(key)? else {
            return Ok(None);
        };
        let value = node::leaf_val(&leaf, i);
        let value = val_bytes(self.reader, value, false, &mut self.buf)?;
        Ok(Some(f(value)))
    }

    /// Looks up the `n` keys `key(0)..key(n - 1)` and passes each
    /// present key's value to `f(i, value)`, in index order, lent as
    /// [`get`](Self::get) lends it; absent keys are skipped. Keys may
    /// repeat and come in any order; in key order, neighbouring keys
    /// find their interiors and leaves already in the CPU caches. Every
    /// key fetches its leaf from the pool, as `get` does. The keys go
    /// through three phases, at most 64 at a time
    /// (so at most 64 leaves are pinned at once):
    ///
    /// 1. each key descends through the pinned interiors and fetches
    ///    its leaf;
    /// 2. each key's cell is binary-searched in its leaf, and the cache
    ///    lines of an inline value are prefetched;
    /// 3. each value is handed to `f`.
    ///
    /// No phase waits on the memory a later key needs, so the misses of
    /// the keys in a batch overlap. The first error — the tree's or
    /// `f`'s — ends the lookup.
    pub fn get_many<'k, E: From<StorageError>>(
        &mut self,
        n: usize,
        key: impl Fn(usize) -> &'k [u8],
        mut f: impl FnMut(usize, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let mut batch = std::mem::take(&mut self.batch);
        batch.reserve(n.min(MAX_BATCH));
        for start in (0..n).step_by(MAX_BATCH) {
            let keys = start..n.min(start + MAX_BATCH);
            batch.clear();
            for i in keys.clone() {
                batch.push((self.leaf(key(i))?, None));
            }
            for ((leaf, cell), i) in batch.iter_mut().zip(keys.clone()) {
                *cell = node::leaf_search(leaf, key(i)).ok();
                if let Some(ValRef::Inline(value)) = cell.map(|c| node::leaf_val(leaf, c)) {
                    prefetch(value);
                }
            }
            for ((leaf, cell), i) in batch.iter().zip(keys) {
                if let Some(c) = *cell {
                    let value = node::leaf_val(leaf, c);
                    f(i, val_bytes(self.reader, value, false, &mut self.buf)?)?;
                }
            }
        }
        batch.clear();
        self.batch = batch;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Store, StoreOptions, SyncMode};

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    /// Every 50th value spills to an overflow chain.
    fn val(i: u32, gen: u8) -> Vec<u8> {
        let len = if i % 50 == 0 { 3000 + i as usize } else { 20 };
        (0..len).map(|j| (j as u32 + i) as u8 ^ gen).collect()
    }

    #[test]
    fn agrees_with_get_and_is_stable_across_a_commit() {
        let dir = tempfile::tempdir().unwrap();
        let opts = StoreOptions {
            sync: SyncMode::Off,
            ..Default::default()
        };
        let store = Store::create(dir.path().join("db"), opts).unwrap();
        let n = 4000u32;
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        // Even keys only, so odd keys are misses between present ones.
        for i in (0..n).step_by(2) {
            tree.insert(&mut txn, &key(i), &val(i, 0)).unwrap();
        }
        txn.commit().unwrap();

        let before = store.begin_read();
        assert!(tree.depth(&before).unwrap() >= 2, "descents cross levels");
        let mut old = tree.point_reader(&before);
        // Warm the pinned set before the commit below.
        assert!(old.get(&key(0), |_| ()).unwrap().is_some());

        let mut txn = store.begin_write().unwrap();
        for i in (0..n).step_by(2) {
            match i % 3 {
                0 => drop(tree.delete(&mut txn, &key(i)).unwrap()),
                1 => drop(tree.insert(&mut txn, &key(i), &val(i, 0xFF)).unwrap()),
                _ => {}
            }
        }
        txn.commit().unwrap();
        let after = store.begin_read();
        let mut new = tree.point_reader(&after);

        // Shuffled order: consecutive probes land in unrelated leaves.
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by_key(|i| i.wrapping_mul(2654435761) % 65_521);
        for &i in &order {
            let k = key(i);
            let want_old = (i % 2 == 0).then(|| val(i, 0));
            assert_eq!(old.get(&k, <[u8]>::to_vec).unwrap(), want_old, "old {i}");
            assert_eq!(tree.get(&before, &k).unwrap(), want_old);
            let want_new = tree.get(&after, &k).unwrap();
            assert_eq!(new.get(&k, <[u8]>::to_vec).unwrap(), want_new, "new {i}");
            assert_eq!(tree.contains_key(&after, &k).unwrap(), want_new.is_some());
            if i % 2 == 0 {
                let expect = match i % 3 {
                    0 => None,
                    1 => Some(val(i, 0xFF)),
                    _ => Some(val(i, 0)),
                };
                assert_eq!(want_new, expect, "committed state at {i}");
            }
        }
    }

    #[test]
    fn a_cycle_of_interior_pages_is_corruption_not_a_hang() {
        let dir = tempfile::tempdir().unwrap();
        let opts = StoreOptions {
            sync: SyncMode::Off,
            ..Default::default()
        };
        let store = Store::create(dir.path().join("db"), opts).unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        // The root is an interior node whose only child is itself.
        node::InteriorNode {
            cells: vec![],
            rightmost: tree.root(),
        }
        .write(txn.page_mut(tree.root()).unwrap());
        assert!(matches!(
            tree.get(&txn, b"k"),
            Err(StorageError::Corrupt(_))
        ));
        assert!(matches!(
            tree.contains_key(&txn, b"k"),
            Err(StorageError::Corrupt(_))
        ));
    }
}
