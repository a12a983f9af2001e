//! Forward range scans over a B+tree.
//!
//! A cursor descends once to the first qualifying leaf and then walks
//! the leaf sibling chain, so a partition scan (the inner loop of the
//! paper's Algorithm 2) touches each leaf page exactly once and in key
//! order — the locality the clustered layout provides. The walk works a
//! leaf at a time. The end bound is checked once per leaf, against the
//! leaf's last key, when the walk steps onto it; only the leaf the
//! bound cuts checks its cells one by one, and the walk ends there.
//!
//! Where the walk stays under the parent it descended through, the
//! store hands it the leaves it is bound to visit next — the following
//! children of that parent, while the separator before each lies within
//! the end bound — together with the one it asked for
//! ([`PageRead::page_scan_run`]). On a miss they are the file-adjacent
//! leaves, read in the same I/O: a tree written by [`BTree::rewrite`]
//! lays its leaves on ascending page ids. On a hit they are the cached
//! ones, taken under one pool lock. Each counts one hit or miss, as it
//! would fetched alone. When the walk steps onto a leaf, the next
//! handed-over leaf is prefetched into the CPU caches while this one's
//! rows are visited. The same separators end the walk at a leaf whose
//! separator is past the end bound, without reading the leaf after it.
//! Leaves a split allocated later sit wherever the allocator found
//! room, and are read one at a time, as are the leaves past the first
//! parent.
//!
//! There is one walk. It lends each `(key, value)` pair to a closure as
//! slices of pinned page images — the leaf, or the overflow page of a
//! value that spilled to a one-page chain — so a scan copies nothing
//! and allocates nothing per row. Only a value whose chain spans
//! several pages is reassembled, into the cursor's one scratch buffer.
//! [`Cursor::visit`] runs it to the end, a leaf's cells in one tight
//! loop: it is the hot path — every partition scan of the vector layer
//! runs on it. [`Cursor::next_with`] runs it one pair at a time, and
//! the owning [`Iterator`] is that with a copy of each pair taken, kept
//! for callers that want to hold rows.

use std::ops::{Bound, ControlFlow};
use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::page::{page_type, prefetch, PageData, PageId};
use crate::store::PageRead;

use super::node;
use super::{fetch_node, val_bytes, BTree, ValBuf};

/// A forward walk over `(key, value)` pairs in key order; see the
/// module docs for its two forms.
pub struct Cursor<'r, R: PageRead + ?Sized> {
    reader: &'r R,
    /// Current leaf image, pinned while its cells are visited; `None`
    /// once the walk is over (bound passed, chain exhausted, or an I/O
    /// error).
    leaf: Option<Arc<PageData>>,
    /// Next cell index within the current leaf.
    idx: usize,
    /// How many of the current leaf's cells lie within `end`
    /// ([`cells_within`]); fewer than all ends the walk in this leaf.
    limit: usize,
    /// Exclusive/inclusive upper bound.
    end: Bound<Vec<u8>>,
    /// Where spilled values are lent from, reused for the whole walk.
    buf: ValBuf,
    /// The parent of the current leaf and the leaf's slot in it, while
    /// the walk stays under the parent it descended through: its
    /// separators end the walk without reading the leaf past the end
    /// bound, and tell a miss which leaves after it to read along.
    parent: Option<(Arc<PageData>, usize)>,
    /// Leaves the store handed over with an earlier one — read along
    /// on a miss, or taken from the pool along with a hit — next one
    /// last.
    ahead: Vec<(PageId, Arc<PageData>)>,
}

impl BTree {
    /// Scans the whole tree in key order.
    pub fn scan_all<'r, R: PageRead + ?Sized>(&self, reader: &'r R) -> Result<Cursor<'r, R>> {
        self.range(reader, Bound::Unbounded, Bound::Unbounded)
    }

    /// Scans keys beginning with `prefix`.
    pub fn scan_prefix<'r, R: PageRead + ?Sized>(
        &self,
        reader: &'r R,
        prefix: &[u8],
    ) -> Result<Cursor<'r, R>> {
        let end = match prefix_successor(prefix) {
            Some(s) => Bound::Excluded(s),
            None => Bound::Unbounded,
        };
        self.range(reader, Bound::Included(prefix.to_vec()), end)
    }

    /// General range scan.
    pub fn range<'r, R: PageRead + ?Sized>(
        &self,
        reader: &'r R,
        start: Bound<Vec<u8>>,
        end: Bound<Vec<u8>>,
    ) -> Result<Cursor<'r, R>> {
        // Descend to the leaf that would contain the start bound. The
        // descent (and the first leaf) uses the point hint: interior
        // pages are the reusable working set the pool protects, and
        // one point-admitted leaf per scan cannot displace it.
        let seek_key: &[u8] = match &start {
            Bound::Included(k) | Bound::Excluded(k) => k,
            Bound::Unbounded => &[],
        };
        let mut id: PageId = self.root();
        let mut parent = None;
        let leaf = loop {
            let p = fetch_node(reader, id)?;
            match p.page_type() {
                page_type::BTREE_INTERIOR => {
                    let slot = node::interior_descend_index(&p, seek_key);
                    id = node::interior_child_at(&p, slot);
                    parent = Some((p, slot));
                }
                _ => break p,
            }
        };
        let idx = match &start {
            Bound::Unbounded => 0,
            Bound::Included(k) => match node::leaf_search(&leaf, k) {
                Ok(i) | Err(i) => i,
            },
            Bound::Excluded(k) => match node::leaf_search(&leaf, k) {
                Ok(i) => i + 1,
                Err(i) => i,
            },
        };
        Ok(Cursor {
            reader,
            limit: cells_within(&leaf, &end),
            leaf: Some(leaf),
            idx,
            end,
            buf: ValBuf::default(),
            parent,
            ahead: Vec::new(),
        })
    }
}

/// How many of `leaf`'s cells, from the first, lie within `end`: all of
/// them when its last key does — one comparison per leaf — else each
/// cell is checked up to the first past the bound, in the one leaf of
/// the walk the bound cuts.
fn cells_within(leaf: &PageData, end: &Bound<Vec<u8>>) -> usize {
    let n = node::ncells(leaf);
    if n == 0 || within(end, node::leaf_key(leaf, n - 1)) {
        return n;
    }
    (0..n)
        .take_while(|&i| within(end, node::leaf_key(leaf, i)))
        .count()
}

/// Whether `key` lies within the upper bound `end`.
#[inline]
fn within(end: &Bound<Vec<u8>>, key: &[u8]) -> bool {
    match end {
        Bound::Unbounded => true,
        Bound::Included(e) => key <= e.as_slice(),
        Bound::Excluded(e) => key < e.as_slice(),
    }
}

/// The leaves a walk goes on to after the child at `slot` of `parent`:
/// each next child, while the separator bounding the child before it
/// lies within the walk's end bound — every key of that child then
/// does, so the walk passes it. Nothing is read until the store asks,
/// which it does on a miss only.
struct Following<'a> {
    parent: &'a PageData,
    slot: usize,
    end: &'a Bound<Vec<u8>>,
}

impl Iterator for Following<'_> {
    type Item = PageId;

    fn next(&mut self) -> Option<PageId> {
        let (p, slot) = (self.parent, self.slot);
        if slot >= node::ncells(p) || !within(self.end, node::interior_key(p, slot)) {
            return None;
        }
        self.slot += 1;
        Some(node::interior_child_at(p, self.slot))
    }
}

/// Smallest byte string strictly greater than every string with the
/// given prefix, or `None` if the prefix is all `0xFF`.
pub fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut s = prefix.to_vec();
    while let Some(&last) = s.last() {
        if last == 0xFF {
            s.pop();
        } else {
            *s.last_mut().unwrap() += 1;
            return Some(s);
        }
    }
    None
}

impl<R: PageRead + ?Sized> Cursor<'_, R> {
    /// Lends every remaining pair in range to `f`, in key order, until
    /// the range ends or `f` fails; `f`'s error is returned as is. A
    /// leaf's cells are visited in one tight loop. Either error ends
    /// the walk: nothing is lent after it.
    pub fn visit<E: From<StorageError>>(
        &mut self,
        mut f: impl FnMut(&[u8], &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        self.walk(|key, value| f(key, value).map(|()| ControlFlow::Continue(())))
    }

    /// Visits the next pair in range: passes its key and value to `f`
    /// as borrowed slices and returns what `f` made of them, or `None`
    /// when the walk is over. An I/O or corruption error is returned
    /// once and ends the walk.
    pub fn next_with<T>(&mut self, f: impl FnOnce(&[u8], &[u8]) -> T) -> Result<Option<T>> {
        let (mut f, mut made) = (Some(f), None);
        self.walk(|key, value| {
            made = f.take().map(|f| f(key, value));
            Ok::<_, StorageError>(ControlFlow::Break(()))
        })?;
        Ok(made)
    }

    /// The walk: lends pairs to `f` until it breaks, fails, or the range
    /// ends. An error ends the walk.
    fn walk<E: From<StorageError>>(
        &mut self,
        mut f: impl FnMut(&[u8], &[u8]) -> std::result::Result<ControlFlow<()>, E>,
    ) -> std::result::Result<(), E> {
        let walked = self.walk_leaves(&mut f);
        if walked.is_err() {
            self.leaf = None;
        }
        walked
    }

    fn walk_leaves<E: From<StorageError>>(
        &mut self,
        f: &mut impl FnMut(&[u8], &[u8]) -> std::result::Result<ControlFlow<()>, E>,
    ) -> std::result::Result<(), E> {
        while self.ready()? {
            let Cursor {
                reader,
                leaf,
                idx,
                limit,
                buf,
                ..
            } = self;
            let leaf = leaf.as_deref().expect("a ready walk has a leaf");
            while *idx < *limit {
                let key = node::leaf_key(leaf, *idx);
                // Scan-hinted, like the leaf fetches: cursor reads are
                // sequential by construction, and spilled vector blobs
                // are the bulk of a partition scan's bytes, so neither
                // leaves nor their overflow chains may displace the
                // pool's protected segment.
                let value = val_bytes(*reader, node::leaf_val(leaf, *idx), true, buf)?;
                *idx += 1;
                if f(key, value)?.is_break() {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Brings the walk to a cell it may lend — the current leaf's next,
    /// else the first of the next leaf that has one — and says whether
    /// there is one; `false` ends the walk. The one place the walk checks
    /// its end bound and steps between leaves: the bound was settled for
    /// the whole leaf when the walk stepped onto it ([`cells_within`]),
    /// so a leaf it cut short is the last.
    fn ready(&mut self) -> Result<bool> {
        loop {
            let Some(leaf) = &self.leaf else {
                return Ok(false);
            };
            if self.idx < self.limit {
                return Ok(true);
            }
            let next = node::right_ptr(leaf);
            if self.limit < node::ncells(leaf) || next == 0 {
                break;
            }
            match &mut self.parent {
                Some((p, slot))
                    if *slot < node::ncells(p) && node::interior_child_at(p, *slot + 1) == next =>
                {
                    // Every key from `next` on lies past this leaf's
                    // separator: once that is past the end, so are they.
                    if !within(&self.end, node::interior_key(p, *slot)) {
                        break;
                    }
                    *slot += 1;
                }
                _ => self.parent = None,
            }
            let leaf = self.walk_onto(next)?;
            self.limit = cells_within(&leaf, &self.end);
            self.idx = 0;
            self.leaf = Some(leaf);
        }
        self.leaf = None;
        Ok(false)
    }

    /// Fetches `next`, the leaf after the current one: from the leaves
    /// the store handed over with an earlier one, else from the store —
    /// which, while the walk stays under its parent, may hand over the
    /// leaves after `next` with it. The leaf after `next`, when it was
    /// handed over, is prefetched into the CPU caches.
    fn walk_onto(&mut self, next: PageId) -> Result<Arc<PageData>> {
        let page = match self.ahead.pop() {
            Some((id, page)) if id == next => page,
            _ => {
                self.ahead.clear();
                let page = match &self.parent {
                    Some((parent, slot)) => {
                        let mut then = Following {
                            parent,
                            slot: *slot,
                            end: &self.end,
                        };
                        (self.reader).page_scan_run(next, &mut then, &mut self.ahead)?
                    }
                    None => (self.reader).page_scan(next)?,
                };
                self.ahead.reverse();
                page
            }
        };
        node::expect_node(&page, next)?;
        if let Some((_, after)) = self.ahead.last() {
            prefetch(&after[..]);
        }
        Ok(page)
    }
}

impl<R: PageRead + ?Sized> Iterator for Cursor<'_, R> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_with(|key, value| (key.to_vec(), value.to_vec()))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Store, StoreOptions, SyncMode};

    fn setup(n: u32) -> (tempfile::TempDir, Store, BTree) {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(
            dir.path().join("db"),
            StoreOptions {
                sync: SyncMode::Off,
                ..Default::default()
            },
        )
        .unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        for i in 0..n {
            tree.insert(
                &mut txn,
                format!("k{i:06}").as_bytes(),
                format!("v{i}").as_bytes(),
            )
            .unwrap();
        }
        txn.commit().unwrap();
        (dir, store, tree)
    }

    #[test]
    fn full_scan_in_order() {
        let (_d, store, tree) = setup(3000);
        let r = store.begin_read();
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        for kv in tree.scan_all(&r).unwrap() {
            let (k, v) = kv.unwrap();
            if let Some(p) = &prev {
                assert!(*p < k, "keys strictly ascending");
            }
            assert!(v.starts_with(b"v"));
            prev = Some(k);
            count += 1;
        }
        assert_eq!(count, 3000);
    }

    #[test]
    fn range_scan_bounds() {
        let (_d, store, tree) = setup(100);
        let r = store.begin_read();
        let collect = |start: Bound<Vec<u8>>, end: Bound<Vec<u8>>| -> Vec<String> {
            tree.range(&r, start, end)
                .unwrap()
                .map(|kv| String::from_utf8(kv.unwrap().0).unwrap())
                .collect()
        };
        let got = collect(
            Bound::Included(b"k000010".to_vec()),
            Bound::Excluded(b"k000013".to_vec()),
        );
        assert_eq!(got, vec!["k000010", "k000011", "k000012"]);
        let got = collect(
            Bound::Excluded(b"k000010".to_vec()),
            Bound::Included(b"k000013".to_vec()),
        );
        assert_eq!(got, vec!["k000011", "k000012", "k000013"]);
        // Start between keys.
        let got = collect(
            Bound::Included(b"k0000105".to_vec()),
            Bound::Excluded(b"k000013".to_vec()),
        );
        assert_eq!(got, vec!["k000011", "k000012"]);
        // Empty range.
        let got = collect(
            Bound::Included(b"k000050".to_vec()),
            Bound::Excluded(b"k000050".to_vec()),
        );
        assert!(got.is_empty());
    }

    #[test]
    fn range_scan_spans_leaves() {
        let (_d, store, tree) = setup(5000);
        let r = store.begin_read();
        assert!(tree.depth(&r).unwrap() >= 2);
        let got: Vec<_> = tree
            .range(
                &r,
                Bound::Included(b"k001000".to_vec()),
                Bound::Excluded(b"k004000".to_vec()),
            )
            .unwrap()
            .map(|kv| kv.unwrap())
            .collect();
        assert_eq!(got.len(), 3000);
        assert_eq!(got[0].0, b"k001000".to_vec());
        assert_eq!(got.last().unwrap().0, b"k003999".to_vec());
    }

    #[test]
    fn prefix_scan() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(
            dir.path().join("db"),
            StoreOptions {
                sync: SyncMode::Off,
                ..Default::default()
            },
        )
        .unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        for k in ["apple", "apricot", "banana", "band", "bandana", "cat"] {
            tree.insert(&mut txn, k.as_bytes(), b"x").unwrap();
        }
        txn.commit().unwrap();
        let r = store.begin_read();
        let got: Vec<String> = tree
            .scan_prefix(&r, b"ban")
            .unwrap()
            .map(|kv| String::from_utf8(kv.unwrap().0).unwrap())
            .collect();
        assert_eq!(got, vec!["banana", "band", "bandana"]);
        let got: Vec<String> = tree
            .scan_prefix(&r, b"ap")
            .unwrap()
            .map(|kv| String::from_utf8(kv.unwrap().0).unwrap())
            .collect();
        assert_eq!(got, vec!["apple", "apricot"]);
    }

    #[test]
    fn prefix_successor_edge_cases() {
        assert_eq!(prefix_successor(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_successor(&[0x01, 0xFF]), Some(vec![0x02]));
        assert_eq!(prefix_successor(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_successor(b""), None);
    }

    #[test]
    fn scan_empty_tree() {
        let (_d, store, tree) = setup(0);
        let r = store.begin_read();
        assert_eq!(tree.scan_all(&r).unwrap().count(), 0);
    }

    /// A value spilled to a one-page chain is lent straight from that
    /// page's image — the slice lies inside the pinned overflow page —
    /// and the reassembly buffer is never grown; only the multi-page
    /// value goes through it. The point reader lends the same way.
    #[test]
    fn a_one_page_overflow_value_is_lent_in_place() {
        let (_d, store, tree) = setup(0);
        let mut txn = store.begin_write().unwrap();
        let sizes = [2600usize, 20, 4000, 9000, 3000];
        let value = |i: usize| vec![i as u8 + 1; sizes[i]];
        for i in 0..sizes.len() {
            tree.insert(&mut txn, format!("k{i}").as_bytes(), &value(i))
                .unwrap();
        }
        txn.commit().unwrap();
        let r = store.begin_read();
        let lent_from_page = |buf: &ValBuf, (ptr, len): (usize, usize)| {
            buf.page.as_ref().is_some_and(|page| {
                let start = page.as_ptr() as usize;
                page.page_type() == page_type::OVERFLOW
                    && start < ptr
                    && ptr + len <= start + crate::page::PAGE_SIZE
            })
        };
        let mut cursor = tree.scan_all(&r).unwrap();
        for (i, &size) in sizes.iter().enumerate() {
            let (at, bytes) = cursor
                .next_with(|_, v| ((v.as_ptr() as usize, v.len()), v.to_vec()))
                .unwrap()
                .unwrap();
            assert_eq!(bytes, value(i), "value {i}");
            let one_page = size > 1024 && size <= super::super::OVERFLOW_CAPACITY;
            assert_eq!(lent_from_page(&cursor.buf, at), one_page, "value {i}");
            if i < 3 {
                assert_eq!(cursor.buf.scratch.capacity(), 0, "grown by value {i}");
            }
        }
        assert!(cursor.buf.scratch.capacity() >= 9000, "the chain used it");

        let mut reader = tree.point_reader(&r);
        for i in [0, 2, 4] {
            let at = reader
                .get(format!("k{i}").as_bytes(), |v| {
                    (v.as_ptr() as usize, v.len())
                })
                .unwrap()
                .unwrap();
            assert!(lent_from_page(&reader.buf, at), "value {i}");
        }
        assert_eq!(reader.buf.scratch.capacity(), 0);
    }

    #[test]
    fn scan_reads_overflow_values() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(
            dir.path().join("db"),
            StoreOptions {
                sync: SyncMode::Off,
                ..Default::default()
            },
        )
        .unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        let big = vec![0x5A; 9000];
        tree.insert(&mut txn, b"big", &big).unwrap();
        tree.insert(&mut txn, b"small", b"s").unwrap();
        txn.commit().unwrap();
        let r = store.begin_read();
        let all: Vec<_> = tree.scan_all(&r).unwrap().map(|kv| kv.unwrap()).collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1, big);
        assert_eq!(all[1].1, b"s".to_vec());
    }
}
