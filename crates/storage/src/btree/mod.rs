//! Disk-resident B+tree with copy-on-write pages.
//!
//! This provides the ordered clustered storage the paper gets from
//! SQLite's b-tree (§3.2): tables cluster rows on their encoded primary
//! key so that "the rows of the vector table are clustered on disk,
//! giving data locality to vectors in the same partition".
//!
//! Design notes:
//!
//! * **Stable roots.** A tree's root page id never changes: when the
//!   root splits, its content moves to a fresh page and the root is
//!   rewritten as an interior node; when it collapses, the last child
//!   is folded back in. Catalog entries can therefore store root ids
//!   permanently.
//! * **Overflow chains.** Values whose cell would exceed a quarter page
//!   spill entirely to a chain of overflow pages (like SQLite). Vector
//!   blobs (e.g. 512-d f32 = 2 KiB) typically spill; attribute rows
//!   stay inline.
//! * **Deletes rebalance.** Underfull nodes borrow from or merge with a
//!   sibling, so heavy delete workloads (partition rewrites during
//!   index rebuilds) do not strand mostly-empty pages.

pub mod cursor;
pub mod node;
pub mod point;

pub use cursor::Cursor;
pub use point::PointReader;

use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::page::{page_type, PageData, PageId, PAGE_SIZE};
use crate::store::{PageRead, WriteTxn};

use node::{
    expect_type, InteriorNode, LeafNode, OwnedVal, ValRef, MAX_INLINE_CELL, MAX_KEY_LEN,
    NODE_CAPACITY, UNDERFLOW_BYTES,
};

/// Bytes of payload stored per overflow page.
const OVERFLOW_CAPACITY: usize = PAGE_SIZE - 8;

/// Fetches a B+tree node page, checking only that it *is* a node. The
/// structural validation ([`node::validate`]) that keeps the zero-copy
/// cell accessors from slicing out of bounds ran once, when the store
/// loaded the image from disk; images written by this process come out
/// of [`LeafNode::write`] / [`InteriorNode::write`] and the in-place
/// leaf edits of [`node`], and are well-formed by construction. Every
/// traversal goes through this.
pub(crate) fn fetch_node<R: PageRead + ?Sized>(
    r: &R,
    id: PageId,
) -> Result<std::sync::Arc<crate::page::PageData>> {
    let p = r.page(id)?;
    node::expect_node(&p, id)?;
    Ok(p)
}

/// Page counts and leaf fill of one tree; see [`BTree::occupancy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Leaf pages.
    pub leaf_pages: u64,
    /// Runs of consecutive page ids along the leaf chain: `1` when every
    /// leaf sits on the page after the one before it, `leaf_pages` when
    /// no two neighbours are file-adjacent. A scan that misses the cache
    /// reads one run (of at most a few pages) per I/O.
    pub leaf_runs: u64,
    /// Interior pages.
    pub interior_pages: u64,
    /// Pages of the overflow chains hanging off the leaves.
    pub overflow_pages: u64,
    /// Bytes of leaf capacity that live cells occupy.
    pub leaf_used_bytes: u64,
}

impl Occupancy {
    /// Used ÷ capacity bytes over all leaves (`0.0` for no leaves).
    pub fn leaf_fill(&self) -> f64 {
        let capacity = self.leaf_pages * NODE_CAPACITY as u64;
        self.leaf_used_bytes as f64 / capacity.max(1) as f64
    }

    /// Leaf pages per run of consecutive page ids (`0.0` for no leaves).
    pub fn pages_per_run(&self) -> f64 {
        self.leaf_pages as f64 / self.leaf_runs.max(1) as f64
    }
}

/// A handle to a B+tree rooted at a fixed page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTree {
    root: PageId,
}

impl BTree {
    /// Allocates a new empty tree (a single empty leaf).
    pub fn create(txn: &mut WriteTxn) -> Result<BTree> {
        let root = txn.allocate_page()?;
        LeafNode::default().write(txn.page_mut(root)?);
        Ok(BTree { root })
    }

    /// Opens a tree by its root page id (from a catalog or header slot).
    pub fn open(root: PageId) -> BTree {
        BTree { root }
    }

    /// Root page id; stable for the lifetime of the tree.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// A reusable point reader over this tree at `r`'s snapshot.
    pub fn point_reader<'r, R: PageRead + ?Sized>(&self, r: &'r R) -> PointReader<'r, R> {
        PointReader::new(*self, r)
    }

    /// Point lookup. Returns the full value (overflow chains are
    /// reassembled). One-shot form of [`PointReader::get`].
    pub fn get<R: PageRead + ?Sized>(&self, r: &R, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let found = self.point_reader(r).seek(key)?;
        found
            .map(|(leaf, i)| read_val(r, node::leaf_val(&leaf, i)))
            .transpose()
    }

    /// Whether `key` is present (no value materialization).
    pub fn contains_key<R: PageRead + ?Sized>(&self, r: &R, key: &[u8]) -> Result<bool> {
        Ok(self.point_reader(r).seek(key)?.is_some())
    }

    /// Inserts or replaces; returns the previous value if any.
    pub fn insert(&self, txn: &mut WriteTxn, key: &[u8], val: &[u8]) -> Result<Option<Vec<u8>>> {
        if key.len() > MAX_KEY_LEN {
            return Err(StorageError::KeyTooLarge(key.len()));
        }
        match insert_rec(txn, self.root, key, val)? {
            Ins::Done(old) => Ok(old),
            Ins::Split { sep, right, old } => {
                // Stable-root split: move the (already split) root
                // content to a fresh page and replant the root as an
                // interior node over the two halves.
                let left = txn.allocate_page()?;
                let root_img = txn.page(self.root)?;
                *txn.page_mut(left)? = (*root_img).clone();
                let new_root = InteriorNode {
                    cells: vec![(left, sep)],
                    rightmost: right,
                };
                new_root.write(txn.page_mut(self.root)?);
                Ok(old)
            }
        }
    }

    /// Deletes `key`; returns its previous value if it existed.
    pub fn delete(&self, txn: &mut WriteTxn, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let res = delete_rec(txn, self.root, key, true)?.old;
        // Collapse an interior root with a single remaining child.
        let p = fetch_node(txn, self.root)?;
        if p.page_type() == page_type::BTREE_INTERIOR && node::ncells(&p) == 0 {
            let child = node::right_ptr(&p);
            let child_img = txn.page(child)?;
            *txn.page_mut(self.root)? = (*child_img).clone();
            txn.free_page(child)?;
        }
        Ok(res)
    }

    /// Removes every entry, freeing all pages except the root (which
    /// becomes an empty leaf).
    pub fn clear(&self, txn: &mut WriteTxn) -> Result<()> {
        free_subtree(txn, self.root, false)?;
        LeafNode::default().write(txn.page_mut(self.root)?);
        Ok(())
    }

    /// Tree height (1 = a single leaf). Diagnostic.
    pub fn depth<R: PageRead + ?Sized>(&self, r: &R) -> Result<usize> {
        let mut id = self.root;
        let mut d = 1;
        loop {
            let p = fetch_node(r, id)?;
            match p.page_type() {
                page_type::BTREE_INTERIOR => {
                    id = node::right_ptr(&p);
                    d += 1;
                }
                page_type::BTREE_LEAF => return Ok(d),
                t => {
                    return Err(StorageError::Corrupt(format!(
                        "page {id}: unexpected type {t} during descent"
                    )))
                }
            }
        }
    }

    /// How full the tree's pages are: a walk of the interior levels and
    /// of the leaf sibling chain (overflow chains are sized from their
    /// cells, not read). Diagnostic — `fsck`'s `leaf fill` line and the
    /// fill-factor tests read it.
    pub fn occupancy<R: PageRead + ?Sized>(&self, r: &R) -> Result<Occupancy> {
        let mut occ = Occupancy::default();
        // Interior pages, level by level, down to the parents of leaves.
        let mut level = vec![self.root];
        for _ in 1..self.depth(r)? {
            occ.interior_pages += level.len() as u64;
            let mut below = Vec::new();
            for id in level {
                let p = fetch_node(r, id)?;
                expect_type(&p, page_type::BTREE_INTERIOR, id)?;
                below.extend((0..node::ncells(&p)).map(|i| node::interior_child(&p, i)));
                below.push(node::right_ptr(&p));
            }
            level = below;
        }
        let mut id = leftmost_leaf(r, self.root)?;
        let mut prev = None;
        while id != 0 {
            let p = fetch_node(r, id)?;
            expect_type(&p, page_type::BTREE_LEAF, id)?;
            occ.leaf_pages += 1;
            occ.leaf_runs += u64::from(prev.map_or(true, |prev| id != prev + 1));
            prev = Some(id);
            occ.leaf_used_bytes += node::leaf_used_bytes(&p) as u64;
            for i in 0..node::ncells(&p) {
                if let ValRef::Overflow { total, .. } = node::leaf_val(&p, i) {
                    occ.overflow_pages += (total as u64).div_ceil(OVERFLOW_CAPACITY as u64);
                }
            }
            id = node::right_ptr(&p);
        }
        Ok(occ)
    }

    /// Visits every page of the tree once the tree is well formed: the
    /// nodes level by level from the root, each leaf followed by the
    /// overflow chains of its cells (a one-page chain is not read). `f`
    /// returns whether to go below the page it is handed, so a caller
    /// that has seen a page before can stop a walk of a corrupt tree
    /// from looping. Diagnostic (`fsck`'s page accounting) and the page
    /// list [`BTree::rewrite`] reuses.
    pub fn visit_pages<R: PageRead + ?Sized>(
        &self,
        r: &R,
        mut f: impl FnMut(PageId) -> bool,
    ) -> Result<()> {
        let mut level = vec![self.root];
        while !level.is_empty() {
            let mut below = Vec::new();
            for id in level {
                if !f(id) {
                    continue;
                }
                let p = fetch_node(r, id)?;
                if p.page_type() == page_type::BTREE_INTERIOR {
                    below.extend((0..=node::ncells(&p)).map(|i| node::interior_child_at(&p, i)));
                    continue;
                }
                for i in 0..node::ncells(&p) {
                    let ValRef::Overflow { total, head } = node::leaf_val(&p, i) else {
                        continue;
                    };
                    if total as usize <= OVERFLOW_CAPACITY {
                        f(head);
                        continue;
                    }
                    let mut link = head;
                    while link != 0 && f(link) {
                        let chunk = r.page(link)?;
                        expect_type(&chunk, page_type::OVERFLOW, link)?;
                        link = chunk.get_u32(4);
                    }
                }
            }
            level = below;
        }
        Ok(())
    }

    /// Rewrites the whole tree from `cells`, bottom up: `(key, value,
    /// fresh)` in strictly ascending key order, where `fresh` starts a
    /// new leaf even when the current one has room (a caller aligns
    /// leaves to groups of keys this way). Leaves are filled to
    /// capacity, each followed by the overflow chains of its cells; the
    /// interior levels, three quarters full, are written after the
    /// leaves, and the root keeps its page id.
    ///
    /// Pages come from the ones the tree held — leaves, interior and
    /// overflow pages, in ascending order, so leaves written one after
    /// another sit on consecutive page ids wherever those ids are
    /// consecutive — then from the freelist or the file tail; ids left
    /// over go to the freelist, the lowest at its head. No old page is
    /// read while it is overwritten: `cells` must not read the tree
    /// through `txn`, but at a snapshot taken before the rewrite (a
    /// [`crate::ReadTxn`] at the transaction's begin snapshot, when the
    /// transaction has not touched the tree).
    pub fn rewrite<I, E>(&self, txn: &mut WriteTxn, cells: I) -> std::result::Result<(), E>
    where
        I: IntoIterator<Item = std::result::Result<(Vec<u8>, Vec<u8>, bool), E>>,
        E: From<StorageError>,
    {
        let mut held = Vec::new();
        self.visit_pages(txn, |id| {
            held.push(id);
            true
        })?;
        held.retain(|&id| id != self.root);
        held.sort_unstable();
        let mut pages = Reuse(held.into_iter());

        // Leaves: `level` gets each finished leaf with the separator
        // between it and the next one, and whether it starts a group.
        let mut level: Vec<(PageId, Vec<u8>, bool)> = Vec::new();
        let mut leaf: Option<(PageId, LeafNode, usize, bool)> = None;
        for cell in cells {
            let (key, val, fresh) = cell?;
            if key.len() > MAX_KEY_LEN {
                return Err(StorageError::KeyTooLarge(key.len()).into());
            }
            let inline = node::LEAF_INLINE_OVERHEAD + key.len() + val.len() <= MAX_INLINE_CELL;
            let bytes = if inline {
                node::LEAF_INLINE_OVERHEAD + key.len() + val.len()
            } else {
                node::LEAF_OVERFLOW_OVERHEAD + key.len()
            };
            let prev = leaf.as_ref().and_then(|(_, node, ..)| node.cells.last());
            if prev.is_some_and(|(max, _)| key <= *max) {
                let root = self.root;
                return Err(StorageError::Corrupt(format!(
                    "tree {root}: rewrite keys out of order"
                ))
                .into());
            }
            // The first leaf starts a group too.
            let fresh = fresh || leaf.is_none();
            let full = leaf
                .as_ref()
                .is_some_and(|(_, _, used, _)| used + bytes > NODE_CAPACITY);
            if fresh || full {
                let id = pages.take(txn)?;
                if let Some((done, mut node, _, group)) = leaf.take() {
                    let max = &node.cells.last().expect("a leaf holds a cell").0;
                    level.push((done, node::separator(max, &key).to_vec(), group));
                    node.right_sibling = id;
                    write_run_leaf(txn, done, &node)?;
                }
                leaf = Some((id, LeafNode::default(), 0, fresh));
            }
            let stored = if inline {
                OwnedVal::Inline(val)
            } else {
                let head = write_overflow(txn, &val, |t| pages.take(t))?;
                OwnedVal::Overflow {
                    total: val.len() as u32,
                    head,
                }
            };
            let (_, node, used, _) = leaf.as_mut().expect("a leaf was just started");
            node.cells.push((key, stored));
            *used += bytes;
        }

        match leaf {
            None => LeafNode::default().write(txn.page_mut(self.root)?),
            Some((id, node, ..)) if level.is_empty() => {
                // One leaf: it is the root.
                write_run_leaf(txn, self.root, &node)?;
                txn.free_page(id)?;
            }
            Some((id, node, _, group)) => {
                write_run_leaf(txn, id, &node)?;
                level.push((id, Vec::new(), group));
                while level.len() > 1 {
                    level = interior_level(txn, level, &mut pages, self.root)?;
                }
            }
        }
        for id in pages.0.rev() {
            txn.free_page(id)?;
        }
        Ok(())
    }

    /// Number of entries, by full scan. Diagnostic; the relational
    /// layer maintains its own row counts.
    pub fn count<R: PageRead + ?Sized>(&self, r: &R) -> Result<u64> {
        let mut n = 0u64;
        let mut id = leftmost_leaf(r, self.root)?;
        loop {
            let p = fetch_node(r, id)?;
            n += node::ncells(&p) as u64;
            let next = node::right_ptr(&p);
            if next == 0 {
                return Ok(n);
            }
            id = next;
        }
    }
}

/// Writes a leaf [`BTree::rewrite`] filled in key order, with that
/// insertion run in its header ([`node::run_at`]) as inserts in key
/// order would have left it: an insert behind its last cell then keeps
/// the leaf full and opens a new page ([`LeafNode::split_off`]), where
/// a leaf without the evidence would be cut in half.
fn write_run_leaf(txn: &mut WriteTxn, id: PageId, leaf: &LeafNode) -> Result<()> {
    let page = txn.page_mut(id)?;
    leaf.write(page);
    let last = leaf.cells.len().checked_sub(1);
    node::note_insert(page, last.map(|i| (i, i.min(u8::MAX as usize) as u8)));
    Ok(())
}

/// Page ids for a tree being rewritten: the ids it held, ascending,
/// then fresh allocations.
struct Reuse(std::vec::IntoIter<PageId>);

impl Reuse {
    fn take(&mut self, txn: &mut WriteTxn) -> Result<PageId> {
        match self.0.next() {
            Some(id) => txn.claim_page(id).map(|()| id),
            None => txn.allocate_page(),
        }
    }
}

/// Bytes of an interior node [`BTree::rewrite`] fills before it ends
/// the node at the next group start. The room left takes the separators
/// of the leaf splits that later inserts cause; full nodes would each
/// split in half at the first one, and a tree with twice the interior
/// nodes costs point readers (which pin a few of them) more fetches.
const INTERIOR_FILL: usize = NODE_CAPACITY * 3 / 4;

/// Writes one interior level of [`BTree::rewrite`] over `children` —
/// each with the separator between it and the next (the last one's
/// unused) and whether it starts a group — and returns the level's
/// nodes the same way. A node takes children up to [`INTERIOR_FILL`],
/// then on to the next group start (or capacity), so that a group's
/// leaves share a parent, which a scan's coalesced reads follow. One
/// node is the root and goes into `root`.
fn interior_level(
    txn: &mut WriteTxn,
    children: Vec<(PageId, Vec<u8>, bool)>,
    pages: &mut Reuse,
    root: PageId,
) -> Result<Vec<(PageId, Vec<u8>, bool)>> {
    // Each node with the separator promoted past it.
    let mut nodes: Vec<(InteriorNode, Vec<u8>)> = Vec::new();
    let mut open: Option<(InteriorNode, Vec<u8>)> = None;
    for (child, sep, group) in children {
        let room = if group { INTERIOR_FILL } else { NODE_CAPACITY };
        match &mut open {
            // The open node's rightmost child becomes a cell, if its
            // separator still fits; `child` is the new rightmost.
            Some((node, promoted))
                if node.used_bytes() + node::INTERIOR_OVERHEAD + promoted.len() <= room =>
            {
                node.cells.push((node.rightmost, std::mem::take(promoted)));
                node.rightmost = child;
                *promoted = sep;
            }
            _ => {
                nodes.extend(open.take());
                let node = InteriorNode {
                    cells: Vec::new(),
                    rightmost: child,
                };
                open = Some((node, sep));
            }
        }
    }
    nodes.extend(open);
    // A last node left with one child takes the previous node's last
    // child (a closed node holds several), so every node holds a
    // separator.
    if let [.., (prev, prev_sep), (last, _)] = nodes.as_mut_slice() {
        if last.cells.is_empty() {
            let (child, sep) = prev.cells.pop().expect("a closed node holds cells");
            let moved = std::mem::replace(&mut prev.rightmost, child);
            last.cells.push((moved, std::mem::replace(prev_sep, sep)));
        }
    }
    let top = nodes.len() == 1;
    let mut level = Vec::with_capacity(nodes.len());
    for (node, promoted) in nodes {
        let id = if top { root } else { pages.take(txn)? };
        node.write(txn.page_mut(id)?);
        level.push((id, promoted, true));
    }
    Ok(level)
}

/// Finds the leftmost leaf under `id`.
pub(crate) fn leftmost_leaf<R: PageRead + ?Sized>(r: &R, mut id: PageId) -> Result<PageId> {
    loop {
        let p = fetch_node(r, id)?;
        match p.page_type() {
            page_type::BTREE_INTERIOR => {
                id = if node::ncells(&p) > 0 {
                    node::interior_child(&p, 0)
                } else {
                    node::right_ptr(&p)
                };
            }
            page_type::BTREE_LEAF => return Ok(id),
            t => {
                return Err(StorageError::Corrupt(format!(
                    "page {id}: unexpected type {t} during descent"
                )))
            }
        }
    }
}

/// Materializes a leaf value (follows overflow chains).
pub(crate) fn read_val<R: PageRead + ?Sized>(r: &R, v: ValRef<'_>) -> Result<Vec<u8>> {
    match v {
        ValRef::Inline(b) => Ok(b.to_vec()),
        ValRef::Overflow { total, head } => read_overflow(r, head, total),
    }
}

fn read_overflow<R: PageRead + ?Sized>(r: &R, head: PageId, total: u32) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    read_overflow_into(r, head, total, false, &mut out)?;
    Ok(out)
}

/// Where [`val_bytes`] lends a spilled value from: the pinned page of a
/// one-page overflow chain, or a reassembly buffer for a longer chain.
/// A walk or reader keeps one and reuses it for every value.
#[derive(Default)]
pub(crate) struct ValBuf {
    /// The overflow page the last one-page value was lent from.
    page: Option<Arc<PageData>>,
    /// Reassembly buffer for multi-page chains; never touched by
    /// one-page values.
    scratch: Vec<u8>,
}

/// The bytes of a leaf value, borrowed: the slice of the leaf image
/// itself when it is stored inline, the slice of its overflow page when
/// the chain is that one page (pinned in `buf` until the next value),
/// else `buf`'s scratch refilled from the chain (`scan`: read with the
/// scan admission hint). Only multi-page chains copy: at dim 128 an
/// SQ4 block (~2.6 KiB) spills to one page and is scanned in place.
#[inline]
pub(crate) fn val_bytes<'a, R: PageRead + ?Sized>(
    r: &R,
    v: ValRef<'a>,
    scan: bool,
    buf: &'a mut ValBuf,
) -> Result<&'a [u8]> {
    match v {
        ValRef::Inline(b) => Ok(b),
        ValRef::Overflow { total, head } => {
            if total as usize <= OVERFLOW_CAPACITY {
                let p = if scan {
                    r.page_scan(head)?
                } else {
                    r.page(head)?
                };
                // The whole value in one well-formed chunk; anything
                // else takes the checked path below, which reports it.
                let whole = p.page_type() == page_type::OVERFLOW
                    && total != 0
                    && p.get_u16(2) as u32 == total
                    && p.get_u32(4) == 0;
                if whole {
                    return Ok(&buf.page.insert(p)[8..8 + total as usize]);
                }
            }
            read_overflow_into(r, head, total, scan, &mut buf.scratch)?;
            Ok(&buf.scratch)
        }
    }
}

/// Reassembles an overflow chain into `out` (cleared first), so a
/// caller doing many lookups can reuse one buffer.
pub(crate) fn read_overflow_into<R: PageRead + ?Sized>(
    r: &R,
    head: PageId,
    total: u32,
    scan: bool,
    out: &mut Vec<u8>,
) -> Result<()> {
    // `total` comes from a cell on disk: cap the pre-allocation and
    // bail as soon as the chain outgrows it, so a corrupted length or
    // a cycle in the chain is an error, not an unbounded allocation.
    out.clear();
    out.reserve((total as usize).min(OVERFLOW_CAPACITY * 4));
    let mut id = head;
    while id != 0 {
        let p = if scan { r.page_scan(id)? } else { r.page(id)? };
        expect_type(&p, page_type::OVERFLOW, id)?;
        let len = p.get_u16(2) as usize;
        // Chunks are never empty (a zero-length chunk would also let a
        // cycle in the chain spin forever).
        if len == 0 || len > OVERFLOW_CAPACITY || out.len() + len > total as usize {
            return Err(StorageError::Corrupt(format!(
                "overflow chain {head}: malformed chunk on page {id}"
            )));
        }
        out.extend_from_slice(&p[8..8 + len]);
        id = p.get_u32(4);
    }
    if out.len() != total as usize {
        return Err(StorageError::Corrupt(format!(
            "overflow chain {head}: expected {total} bytes, found {}",
            out.len()
        )));
    }
    Ok(())
}

/// Writes `data` to a fresh overflow chain on pages `alloc` hands out
/// (zeroed, in the dirty set) and returns its head.
fn write_overflow(
    txn: &mut WriteTxn,
    data: &[u8],
    mut alloc: impl FnMut(&mut WriteTxn) -> Result<PageId>,
) -> Result<PageId> {
    debug_assert!(!data.is_empty());
    // Allocate the chain front to back, linking as we go.
    let mut chunks = data.chunks(OVERFLOW_CAPACITY).peekable();
    let head = alloc(txn)?;
    let mut cur = head;
    while let Some(chunk) = chunks.next() {
        let next = if chunks.peek().is_some() {
            alloc(txn)?
        } else {
            0
        };
        let p = txn.page_mut(cur)?;
        p.fill(0);
        p[0] = page_type::OVERFLOW;
        p.put_u16(2, chunk.len() as u16);
        p.put_u32(4, next);
        p[8..8 + chunk.len()].copy_from_slice(chunk);
        cur = next;
    }
    Ok(head)
}

fn free_overflow(txn: &mut WriteTxn, head: PageId) -> Result<()> {
    let mut id = head;
    while id != 0 {
        let p = txn.page(id)?;
        expect_type(&p, page_type::OVERFLOW, id)?;
        let next = p.get_u32(4);
        txn.free_page(id)?;
        id = next;
    }
    Ok(())
}

/// Converts a value into its stored representation, spilling large
/// values to an overflow chain.
fn make_val<'v>(txn: &mut WriteTxn, key_len: usize, val: &'v [u8]) -> Result<ValRef<'v>> {
    if node::LEAF_INLINE_OVERHEAD + key_len + val.len() <= MAX_INLINE_CELL {
        Ok(ValRef::Inline(val))
    } else {
        let head = write_overflow(txn, val, WriteTxn::allocate_page)?;
        Ok(ValRef::Overflow {
            total: val.len() as u32,
            head,
        })
    }
}

/// Consumes a stored value: returns its bytes and frees any chain.
fn take_val(txn: &mut WriteTxn, v: ValRef<'_>) -> Result<Vec<u8>> {
    let bytes = read_val(txn, v)?;
    if let ValRef::Overflow { head, .. } = v {
        free_overflow(txn, head)?;
    }
    Ok(bytes)
}

/// Steps of an insertion run ([`node::run_at`]) that count as evidence
/// of one when a leaf splits.
const RUN_EVIDENCE: u8 = 2;

enum Ins {
    Done(Option<Vec<u8>>),
    Split {
        /// Bound between the halves: the (left) split node keeps keys
        /// `<= sep`.
        sep: Vec<u8>,
        /// Newly allocated right node.
        right: PageId,
        old: Option<Vec<u8>>,
    },
}

/// The one insert path.
///
/// **Leaf edits.** A cell that fits the leaf's gap is written in place
/// ([`node::leaf_insert_at`] / [`node::leaf_replace_at`]). Otherwise
/// the leaf is materialized and rewritten — which compacts the holes
/// earlier removals left — and split if it is full.
///
/// **Split rule.** `(partition, vid)` rows, index entries and most other
/// keys arrive as ascending runs, and a run must leave full pages
/// behind, not half-full ones. The evidence of a run is kept in the
/// leaf's header ([`node::run_at`]): the new cell directly follows the
/// cell the previous insert into this leaf put there, which directly
/// followed the one before it ([`RUN_EVIDENCE`] steps; one adjacent
/// pair happens by chance in one split in eight of a seven-cell leaf
/// under random keys). With that evidence [`LeafNode::split_off`] cuts
/// at the new cell (see there); without it — random keys, descending
/// keys, the first inserts into a page written before the header field
/// existed — it cuts the bytes in half as it always did.
///
/// **Separator contract.** The separator promoted between two leaves is
/// [`node::separator`]`(left_max, right_min)`: `left_max <= s <
/// right_min`, a proper prefix of `right_min` where one qualifies. The
/// interior convention is unchanged — the left child holds keys `<= s`
/// — but `s` is no longer a key of the tree, only a bound, and being
/// short it leaves the rest of a run ending at `left_max` on the left
/// page. Redistribution after a delete promotes through the same
/// function.
fn insert_rec(txn: &mut WriteTxn, id: PageId, key: &[u8], val: &[u8]) -> Result<Ins> {
    let p = fetch_node(txn, id)?;
    match p.page_type() {
        page_type::BTREE_LEAF => {
            let pos = node::leaf_search(&p, key);
            let old = match pos {
                Ok(i) => Some(take_val(txn, node::leaf_val(&p, i))?),
                Err(_) => None,
            };
            // A new cell: the slot it lands in and the run it extends.
            let landed = pos.err().map(|i| (i, node::run_at(&p, i)));
            // Release the image before `page_mut`, or it is copied.
            drop(p);
            let stored = make_val(txn, key.len(), val)?;
            let page = txn.page_mut(id)?;
            let fitted = match pos {
                Ok(i) => node::leaf_replace_at(page, i, stored),
                Err(i) => node::leaf_insert_at(page, i, key, stored),
            };
            if fitted {
                return Ok(Ins::Done(old));
            }
            let mut leaf = LeafNode::parse(page);
            match pos {
                Ok(i) => leaf.cells[i].1 = stored.to_owned(),
                Err(i) => leaf.cells.insert(i, (key.to_vec(), stored.to_owned())),
            }
            if leaf.fits() {
                leaf.write(page);
                node::note_insert(page, landed);
                return Ok(Ins::Done(old));
            }
            let run_at = landed.and_then(|(i, run)| (run >= RUN_EVIDENCE).then_some(i));
            let mut right = leaf.split_off(run_at);
            let right_id = txn.allocate_page()?;
            right.right_sibling = leaf.right_sibling;
            leaf.right_sibling = right_id;
            let left_max = &leaf.cells.last().expect("left part non-empty").0;
            let sep = node::separator(left_max, &right.cells[0].0).to_vec();
            // The new cell's slot moves with it to whichever page got it.
            let cut = leaf.cells.len();
            let page = txn.page_mut(right_id)?;
            right.write(page);
            node::note_insert(
                page,
                landed.and_then(|(i, run)| Some((i.checked_sub(cut)?, run))),
            );
            let page = txn.page_mut(id)?;
            leaf.write(page);
            node::note_insert(page, landed.filter(|&(i, _)| i < cut));
            Ok(Ins::Split {
                sep,
                right: right_id,
                old,
            })
        }
        page_type::BTREE_INTERIOR => {
            let idx = node::interior_descend_index(&p, key);
            let child = node::interior_child_at(&p, idx);
            drop(p);
            match insert_rec(txn, child, key, val)? {
                Ins::Done(old) => Ok(Ins::Done(old)),
                Ins::Split { sep, right, old } => {
                    let p = fetch_node(txn, id)?;
                    let mut interior = InteriorNode::parse(&p);
                    drop(p);
                    if idx == interior.cells.len() {
                        // Rightmost child split: child keeps `<= sep`,
                        // the new right node becomes rightmost.
                        interior.cells.push((child, sep));
                        interior.rightmost = right;
                    } else {
                        // cells[idx] bounded the child; the child now
                        // covers `<= sep` and the new node inherits the
                        // old bound.
                        let old_bound = interior.cells[idx].1.clone();
                        interior.cells[idx] = (child, sep);
                        interior.cells.insert(idx + 1, (right, old_bound));
                    }
                    if interior.fits() {
                        interior.write(txn.page_mut(id)?);
                        return Ok(Ins::Done(old));
                    }
                    let (promoted, right_node) = interior.split_off();
                    let right_id = txn.allocate_page()?;
                    right_node.write(txn.page_mut(right_id)?);
                    interior.write(txn.page_mut(id)?);
                    Ok(Ins::Split {
                        sep: promoted,
                        right: right_id,
                        old,
                    })
                }
            }
        }
        t => Err(StorageError::Corrupt(format!(
            "page {id}: unexpected type {t} in insert"
        ))),
    }
}

struct Removed {
    old: Option<Vec<u8>>,
    underflow: bool,
}

fn delete_rec(txn: &mut WriteTxn, id: PageId, key: &[u8], is_root: bool) -> Result<Removed> {
    let p = fetch_node(txn, id)?;
    match p.page_type() {
        page_type::BTREE_LEAF => {
            let Ok(i) = node::leaf_search(&p, key) else {
                return Ok(Removed {
                    old: None,
                    underflow: false,
                });
            };
            let old = take_val(txn, node::leaf_val(&p, i))?;
            // Release the image before `page_mut`, or it is copied.
            drop(p);
            let page = txn.page_mut(id)?;
            node::leaf_remove_at(page, i);
            Ok(Removed {
                old: Some(old),
                underflow: !is_root && node::leaf_used_bytes(page) < UNDERFLOW_BYTES,
            })
        }
        page_type::BTREE_INTERIOR => {
            let idx = node::interior_descend_index(&p, key);
            let child = node::interior_child_at(&p, idx);
            drop(p);
            let res = delete_rec(txn, child, key, false)?;
            if res.old.is_none() || !res.underflow {
                return Ok(Removed {
                    old: res.old,
                    underflow: false,
                });
            }
            // The child went underfull: rebalance it with a sibling.
            let p = fetch_node(txn, id)?;
            let mut interior = InteriorNode::parse(&p);
            drop(p);
            rebalance_child(txn, &mut interior, idx)?;
            let underflow = !is_root && interior.used_bytes() < UNDERFLOW_BYTES;
            interior.write(txn.page_mut(id)?);
            Ok(Removed {
                old: res.old,
                underflow,
            })
        }
        t => Err(StorageError::Corrupt(format!(
            "page {id}: unexpected type {t} in delete"
        ))),
    }
}

/// Rebalances the child at position `pos` of `parent` (positions run
/// `0..=ncells`, with `ncells` = rightmost child) by merging with or
/// borrowing from an adjacent sibling, where `parent` has room for the
/// outcome ([`holds_separator`]). Mutates `parent` in memory; the
/// caller writes it back.
fn rebalance_child(txn: &mut WriteTxn, parent: &mut InteriorNode, pos: usize) -> Result<()> {
    let n = parent.cells.len();
    if n == 0 {
        return Ok(()); // single-child parent; root collapse handles it
    }
    // Work on the pair (left_pos, left_pos + 1).
    let left_pos = if pos < n { pos } else { pos - 1 };
    let child_at = |parent: &InteriorNode, i: usize| -> PageId {
        if i < parent.cells.len() {
            parent.cells[i].0
        } else {
            parent.rightmost
        }
    };
    let left_id = child_at(parent, left_pos);
    let right_id = child_at(parent, left_pos + 1);
    let lp = fetch_node(txn, left_id)?;
    let kind = lp.page_type();

    if kind == page_type::BTREE_LEAF {
        let mut left = LeafNode::parse(&lp);
        drop(lp);
        let rp = fetch_node(txn, right_id)?;
        expect_type(&rp, page_type::BTREE_LEAF, right_id)?;
        let right = LeafNode::parse(&rp);
        drop(rp);
        if left.used_bytes() + right.used_bytes() <= NODE_CAPACITY {
            // Merge right into left; drop the separator.
            left.right_sibling = right.right_sibling;
            left.cells.extend(right.cells);
            left.write(txn.page_mut(left_id)?);
            txn.free_page(right_id)?;
            remove_child(parent, left_pos, left_id);
        } else {
            // Redistribute evenly across the pair.
            let mut combined = LeafNode {
                cells: std::mem::take(&mut left.cells),
                right_sibling: right_id,
            };
            combined.cells.extend(right.cells);
            let mut new_right = combined.split_off(None);
            new_right.right_sibling = right.right_sibling;
            let left_max = &combined.cells.last().expect("non-empty").0;
            let sep = node::separator(left_max, &new_right.cells[0].0);
            if !holds_separator(parent, left_pos, sep) {
                return Ok(());
            }
            parent.cells[left_pos].1 = sep.to_vec();
            combined.write(txn.page_mut(left_id)?);
            new_right.write(txn.page_mut(right_id)?);
        }
    } else {
        let mut left = InteriorNode::parse(&lp);
        drop(lp);
        let rp = fetch_node(txn, right_id)?;
        expect_type(&rp, page_type::BTREE_INTERIOR, right_id)?;
        let right = InteriorNode::parse(&rp);
        drop(rp);
        let sep = parent.cells[left_pos].1.clone();
        // Conceptually concatenate: left cells, (left.rightmost, sep),
        // right cells, rightmost = right.rightmost.
        let mut combined = InteriorNode {
            cells: std::mem::take(&mut left.cells),
            rightmost: right.rightmost,
        };
        combined.cells.push((left.rightmost, sep));
        combined.cells.extend(right.cells);
        if combined.fits() {
            combined.write(txn.page_mut(left_id)?);
            txn.free_page(right_id)?;
            remove_child(parent, left_pos, left_id);
        } else {
            let (promoted, new_right) = combined.split_off();
            if !holds_separator(parent, left_pos, &promoted) {
                return Ok(());
            }
            parent.cells[left_pos].1 = promoted;
            combined.write(txn.page_mut(left_id)?);
            new_right.write(txn.page_mut(right_id)?);
        }
    }
    Ok(())
}

/// Whether `parent` still fits its page with the separator at `pos`
/// replaced by `sep`. A redistribution moves the boundary between two
/// children, and the separator at the new boundary can be longer than
/// the one it replaces; the delete path cannot split `parent`, so a
/// redistribution that would overflow it is skipped and the child stays
/// underfull — legal, and retried by the next delete that finds it so.
fn holds_separator(parent: &InteriorNode, pos: usize, sep: &[u8]) -> bool {
    parent.used_bytes() - parent.cells[pos].1.len() + sep.len() <= NODE_CAPACITY
}

/// After merging children `pos` and `pos+1` into the page of child
/// `pos` (`merged_id`), removes the separator at `pos` and rewires the
/// parent's child pointers.
fn remove_child(parent: &mut InteriorNode, pos: usize, merged_id: PageId) {
    let n = parent.cells.len();
    if pos + 1 < n {
        parent.cells[pos + 1].0 = merged_id;
        parent.cells.remove(pos);
    } else {
        // The right partner was the rightmost child.
        parent.rightmost = merged_id;
        parent.cells.remove(pos);
    }
}

fn free_subtree(txn: &mut WriteTxn, id: PageId, free_self: bool) -> Result<()> {
    let p = fetch_node(txn, id)?;
    match p.page_type() {
        page_type::BTREE_LEAF => {
            for i in 0..node::ncells(&p) {
                if let ValRef::Overflow { head, .. } = node::leaf_val(&p, i) {
                    free_overflow(txn, head)?;
                }
            }
        }
        page_type::BTREE_INTERIOR => {
            let interior = InteriorNode::parse(&p);
            drop(p);
            for (child, _) in &interior.cells {
                free_subtree(txn, *child, true)?;
            }
            free_subtree(txn, interior.rightmost, true)?;
        }
        t => {
            return Err(StorageError::Corrupt(format!(
                "page {id}: unexpected type {t} in free"
            )))
        }
    }
    if free_self {
        txn.free_page(id)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::node::OwnedVal;
    use crate::store::{Store, StoreOptions, SyncMode};

    fn mem_store() -> (tempfile::TempDir, Store) {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(
            dir.path().join("db"),
            StoreOptions {
                sync: SyncMode::Off,
                ..Default::default()
            },
        )
        .unwrap();
        (dir, store)
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    fn val(i: u32) -> Vec<u8> {
        format!("value-{i}-{}", "x".repeat((i % 37) as usize)).into_bytes()
    }

    #[test]
    fn occupancy_counts_every_page_of_the_tree() {
        let (_d, store) = mem_store();
        let mut txn = store.begin_write().unwrap();
        let before = txn.page_count();
        let tree = BTree::create(&mut txn).unwrap();
        let pages = |o: Occupancy| o.leaf_pages + o.interior_pages + o.overflow_pages;
        let empty = tree.occupancy(&txn).unwrap();
        assert_eq!((pages(empty), empty.leaf_used_bytes), (1, 0));
        for i in 0..3000 {
            // Every tenth value spills to a two-page overflow chain.
            let len = if i % 10 == 0 { 6000 } else { 40 };
            tree.insert(&mut txn, &key(i), &vec![1u8; len]).unwrap();
        }
        let occ = tree.occupancy(&txn).unwrap();
        assert!(tree.depth(&txn).unwrap() >= 2 && occ.interior_pages >= 1);
        assert_eq!(occ.overflow_pages, 300 * 2);
        assert_eq!(pages(occ), (txn.page_count() - before) as u64);
        assert!(occ.leaf_fill() > 0.9, "ascending keys: {occ:?}");
    }

    /// A redistribution moves a boundary, and the separator at the new
    /// boundary can be far longer than the short one it replaces. The
    /// delete path cannot split the parent, so when the parent has no
    /// room the pair is left as it is rather than the parent overflowed.
    #[test]
    fn a_redistribution_the_parent_cannot_hold_is_skipped() {
        let (_d, store) = mem_store();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        let long_key = |fill: u8, j: u8| [&[b'a'][..], &[fill; 300], &[j]].concat();
        let leaf_of = |keys: Vec<Vec<u8>>, right_sibling| LeafNode {
            cells: (keys.into_iter())
                .map(|k| (k, OwnedVal::Inline(vec![])))
                .collect(),
            right_sibling,
        };
        // Left: four 309-byte cells, underfull once one goes. Right:
        // thirteen, so the pair cannot merge and any even cut of it
        // falls between two keys that share 301 bytes.
        let [left_id, right_id, rest_id] = [(); 3].map(|_| txn.allocate_page().unwrap());
        let left = leaf_of((0..4).map(|j| long_key(0x10, j)).collect(), right_id);
        let right = leaf_of((10..23).map(|j| long_key(0x55, j)).collect(), rest_id);
        left.write(txn.page_mut(left_id).unwrap());
        right.write(txn.page_mut(right_id).unwrap());
        leaf_of(vec![b"zz".to_vec()], 0).write(txn.page_mut(rest_id).unwrap());
        // The root bounds them with two-byte separators and is
        // otherwise full of (here childless) two-byte separators.
        let mut root = InteriorNode {
            cells: vec![(left_id, b"a\x20".to_vec()), (right_id, b"b".to_vec())],
            rightmost: rest_id,
        };
        for hi in b'c'..=b'd' {
            root.cells
                .extend((0..200).map(|lo| (rest_id, vec![hi, lo])));
        }
        assert!(
            NODE_CAPACITY - root.used_bytes() < 100,
            "no room for 300 more bytes"
        );
        root.write(txn.page_mut(tree.root()).unwrap());

        assert!(tree.delete(&mut txn, &long_key(0x10, 0)).unwrap().is_some());
        let root_page = txn.page(tree.root()).unwrap();
        assert!(node::validate(&root_page, tree.root()).is_ok());
        assert_eq!(
            InteriorNode::parse(&root_page).cells,
            root.cells,
            "left alone"
        );
        for j in 1..4 {
            assert!(tree.contains_key(&txn, &long_key(0x10, j)).unwrap());
        }
        for j in 10..23 {
            assert!(tree.contains_key(&txn, &long_key(0x55, j)).unwrap());
        }
        assert_eq!(tree.count(&txn).unwrap(), 3 + 13 + 1);
    }

    /// Deletes leave holes; an insert that no hole and not the gap can
    /// take, but the page's total free space can, compacts the leaf
    /// instead of splitting it.
    #[test]
    fn a_fragmented_leaf_compacts_instead_of_splitting() {
        let (_d, store) = mem_store();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        // 13 cells of 2 + 5 + 12 + 290 = 309 bytes leave a 63-byte gap.
        for i in 0..13 {
            tree.insert(&mut txn, &key(i), &[i as u8; 290]).unwrap();
        }
        for i in (0..13).step_by(2) {
            tree.delete(&mut txn, &key(i)).unwrap();
        }
        let big = vec![0xEE; 900];
        tree.insert(&mut txn, &key(100), &big).unwrap();
        assert_eq!(tree.depth(&txn).unwrap(), 1, "one leaf still");
        assert_eq!(tree.get(&txn, &key(100)).unwrap(), Some(big));
        for i in (1..13).step_by(2) {
            assert_eq!(tree.get(&txn, &key(i)).unwrap(), Some(vec![i as u8; 290]));
        }
        assert_eq!(tree.count(&txn).unwrap(), 7);
    }

    #[test]
    fn insert_get_delete_small() {
        let (_d, store) = mem_store();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        assert_eq!(tree.insert(&mut txn, b"a", b"1").unwrap(), None);
        assert_eq!(tree.insert(&mut txn, b"b", b"2").unwrap(), None);
        assert_eq!(
            tree.insert(&mut txn, b"a", b"1new").unwrap(),
            Some(b"1".to_vec())
        );
        assert_eq!(tree.get(&txn, b"a").unwrap(), Some(b"1new".to_vec()));
        assert_eq!(tree.get(&txn, b"zz").unwrap(), None);
        assert_eq!(tree.delete(&mut txn, b"a").unwrap(), Some(b"1new".to_vec()));
        assert_eq!(tree.delete(&mut txn, b"a").unwrap(), None);
        assert_eq!(tree.get(&txn, b"a").unwrap(), None);
        assert_eq!(tree.get(&txn, b"b").unwrap(), Some(b"2".to_vec()));
        txn.commit().unwrap();
    }

    #[test]
    fn many_inserts_split_and_persist() {
        let (_d, store) = mem_store();
        let tree;
        {
            let mut txn = store.begin_write().unwrap();
            tree = BTree::create(&mut txn).unwrap();
            for i in 0..5000 {
                tree.insert(&mut txn, &key(i), &val(i)).unwrap();
            }
            txn.set_root(0, tree.root());
            txn.commit().unwrap();
        }
        let r = store.begin_read();
        assert!(tree.depth(&r).unwrap() >= 2, "tree must have split");
        assert_eq!(tree.count(&r).unwrap(), 5000);
        for i in (0..5000).step_by(97) {
            assert_eq!(tree.get(&r, &key(i)).unwrap(), Some(val(i)));
        }
    }

    #[test]
    fn reverse_and_shuffled_insert_orders() {
        for mode in 0..3 {
            let (_d, store) = mem_store();
            let mut txn = store.begin_write().unwrap();
            let tree = BTree::create(&mut txn).unwrap();
            let mut order: Vec<u32> = (0..2000).collect();
            match mode {
                0 => order.reverse(),
                1 => {
                    // Deterministic shuffle via multiplication hash.
                    order.sort_by_key(|i| i.wrapping_mul(2654435761) % 4096);
                }
                _ => {}
            }
            for &i in &order {
                tree.insert(&mut txn, &key(i), &val(i)).unwrap();
            }
            assert_eq!(tree.count(&txn).unwrap(), 2000);
            for i in 0..2000 {
                assert_eq!(
                    tree.get(&txn, &key(i)).unwrap(),
                    Some(val(i)),
                    "mode {mode}"
                );
            }
            txn.commit().unwrap();
        }
    }

    #[test]
    fn large_values_use_overflow_chains() {
        let (_d, store) = mem_store();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        // 2 KiB (a 512-d f32 vector) and 12 KiB (multi-page chain).
        let v2k = vec![7u8; 2048];
        let v12k: Vec<u8> = (0..12_288u32).map(|i| (i % 251) as u8).collect();
        tree.insert(&mut txn, b"small", b"inline").unwrap();
        tree.insert(&mut txn, b"two-k", &v2k).unwrap();
        tree.insert(&mut txn, b"twelve-k", &v12k).unwrap();
        assert_eq!(tree.get(&txn, b"two-k").unwrap(), Some(v2k.clone()));
        assert_eq!(tree.get(&txn, b"twelve-k").unwrap(), Some(v12k.clone()));
        // Replacing an overflow value frees its chain for reuse.
        let pages_before = txn.page_count();
        assert_eq!(
            tree.insert(&mut txn, b"twelve-k", b"tiny").unwrap(),
            Some(v12k)
        );
        let c = txn.allocate_page().unwrap(); // should reuse a freed page
        assert!(c < pages_before, "freed overflow pages are reused");
        txn.commit().unwrap();
    }

    #[test]
    fn delete_everything_rebalances_to_empty() {
        let (_d, store) = mem_store();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        let n = 3000u32;
        for i in 0..n {
            tree.insert(&mut txn, &key(i), &val(i)).unwrap();
        }
        assert!(tree.depth(&txn).unwrap() >= 2);
        // Delete in an interleaved order to exercise merges on both
        // leaf and interior levels.
        for i in (0..n).step_by(2) {
            assert!(tree.delete(&mut txn, &key(i)).unwrap().is_some());
        }
        for i in (1..n).step_by(2) {
            assert!(tree.delete(&mut txn, &key(i)).unwrap().is_some());
        }
        assert_eq!(tree.count(&txn).unwrap(), 0);
        assert_eq!(tree.depth(&txn).unwrap(), 1, "tree collapsed to a leaf");
        txn.commit().unwrap();
    }

    #[test]
    fn mixed_ops_match_btreemap_model() {
        // Fixed-width keys, then ragged ones: ids behind shared runs of
        // filler up to 240 bytes long, so neighbouring separators differ
        // widely in length and a redistribution can lengthen one.
        let ragged = |i: u32| {
            let filler = (i % 13 * 20) as usize;
            [&[(i % 7) as u8][..], &vec![0xAA; filler], &i.to_be_bytes()].concat()
        };
        type KeyOf<'a> = &'a dyn Fn(u32) -> Vec<u8>;
        let shapes: [(KeyOf, u32, u32); 2] = [(&key, 700, 8000), (&ragged, 9000, 60_000)];
        for (key_of, universe, ops) in shapes {
            let (_d, store) = mem_store();
            let mut txn = store.begin_write().unwrap();
            let tree = BTree::create(&mut txn).unwrap();
            let mut model = std::collections::BTreeMap::<Vec<u8>, Vec<u8>>::new();
            let mut state = 0x12345678u64;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u32
            };
            for _ in 0..ops {
                let op = next() % 10;
                let k = key_of(next() % universe);
                if op < 6 {
                    let v = val(next() % 1000);
                    let a = tree.insert(&mut txn, &k, &v).unwrap();
                    let b = model.insert(k, v);
                    assert_eq!(a, b);
                } else if op < 9 {
                    let a = tree.delete(&mut txn, &k).unwrap();
                    let b = model.remove(&k);
                    assert_eq!(a, b);
                } else {
                    let a = tree.get(&txn, &k).unwrap();
                    let b = model.get(&k).cloned();
                    assert_eq!(a, b);
                }
            }
            assert_eq!(tree.count(&txn).unwrap(), model.len() as u64);
            for (k, v) in &model {
                assert_eq!(tree.get(&txn, k).unwrap().as_ref(), Some(v));
            }
            txn.commit().unwrap();
        }
    }

    #[test]
    fn clear_frees_pages_for_reuse() {
        let (_d, store) = mem_store();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        for i in 0..2000 {
            tree.insert(&mut txn, &key(i), &val(i)).unwrap();
        }
        txn.commit().unwrap();
        let pages_full = store.page_count();

        let mut txn = store.begin_write().unwrap();
        tree.clear(&mut txn).unwrap();
        assert_eq!(tree.count(&txn).unwrap(), 0);
        txn.commit().unwrap();
        assert!(store.freelist_len() > 0, "cleared pages land on freelist");

        // Re-filling reuses freed pages rather than growing the file.
        let mut txn = store.begin_write().unwrap();
        for i in 0..2000 {
            tree.insert(&mut txn, &key(i), &val(i)).unwrap();
        }
        txn.commit().unwrap();
        assert!(
            store.page_count() <= pages_full + 2,
            "refill reuses freelist: {} vs {}",
            store.page_count(),
            pages_full
        );
    }

    #[test]
    fn key_too_large_is_rejected() {
        let (_d, store) = mem_store();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        let big = vec![1u8; MAX_KEY_LEN + 1];
        assert!(matches!(
            tree.insert(&mut txn, &big, b"v"),
            Err(StorageError::KeyTooLarge(_))
        ));
        // Exactly at the limit is fine.
        let ok = vec![1u8; MAX_KEY_LEN];
        tree.insert(&mut txn, &ok, b"v").unwrap();
        assert_eq!(tree.get(&txn, &ok).unwrap(), Some(b"v".to_vec()));
    }

    /// Every page `visit_pages` reaches, checked: nodes pass
    /// `node::validate`, overflow pages carry their type.
    fn tree_pages(tree: &BTree, r: &impl PageRead) -> Vec<PageId> {
        let mut pages = Vec::new();
        tree.visit_pages(r, |id| {
            pages.push(id);
            true
        })
        .unwrap();
        for &id in &pages {
            let p = r.page(id).unwrap();
            match p.page_type() {
                page_type::OVERFLOW => {}
                _ => node::validate(&p, id).unwrap(),
            }
        }
        pages
    }

    /// A tree grown by scattered inserts beside a second tree, so its
    /// pages interleave with the other's, is rewritten under new keys in
    /// groups: rows read at the begin snapshot come back under their new
    /// keys, each group on fresh full leaves, the leaves on ascending
    /// page ids, spilled values moved too; the root keeps its id, every
    /// page of the file is still accounted for, and a reader pinned
    /// before the rewrite still reads the old tree.
    #[test]
    fn rewrite_lays_groups_on_fresh_full_leaves_in_page_order() {
        let (_d, store) = mem_store();
        let mut txn = store.begin_write().unwrap();
        let (tree, other) = (
            BTree::create(&mut txn).unwrap(),
            BTree::create(&mut txn).unwrap(),
        );
        // Group 6 (below) holds the values that spill.
        let value = |i: u32| vec![i as u8; if i % 63 == 6 { 5000 } else { 300 }];
        for i in 0..600u32 {
            let i = i * 377 % 600;
            tree.insert(&mut txn, &key(i), &value(i)).unwrap();
            other.insert(&mut txn, &key(i), &val(i)).unwrap();
        }
        txn.commit().unwrap();
        let held = tree_pages(&tree, &store.begin_read()).len();
        let before = tree.occupancy(&store.begin_read()).unwrap();

        // Group `i % 7`, then `i`: the new key of row `i`.
        let new_key = |i: u32| format!("g{}-{i:08}", i % 7).into_bytes();
        let mut order: Vec<u32> = (0..600).collect();
        order.sort_by_key(|&i| new_key(i));
        let pinned = store.begin_read();
        let mut txn = store.begin_write().unwrap();
        let old = store.begin_read();
        let cells = order.iter().enumerate().map(|(n, &i)| {
            let fresh = n == 0 || order[n - 1] % 7 != i % 7;
            let v = tree.get(&old, &key(i))?.expect("every old row");
            Ok::<_, StorageError>((new_key(i), v, fresh))
        });
        tree.rewrite(&mut txn, cells).unwrap();
        drop(old);
        txn.commit().unwrap();

        let r = store.begin_read();
        for i in 0..600 {
            assert_eq!(
                tree.get(&r, &new_key(i)).unwrap(),
                Some(value(i)),
                "row {i}"
            );
            assert_eq!(tree.get(&r, &key(i)).unwrap(), None, "row {i}");
            assert_eq!(
                tree.get(&pinned, &key(i)).unwrap(),
                Some(value(i)),
                "pinned {i}"
            );
        }
        assert_eq!(tree.count(&r).unwrap(), 600);
        let pages = tree_pages(&tree, &r);
        assert!(
            pages.len() <= held,
            "{} pages, {held} held before",
            pages.len()
        );
        let after = tree.occupancy(&r).unwrap();
        assert!(
            after.leaf_pages < before.leaf_pages,
            "{after:?} vs {before:?}"
        );
        // Each group's leaves follow one another; spilled values and
        // the other tree's pages are the only gaps.
        assert!(after.pages_per_run() >= 3.0, "{after:?}");
        // Every leaf starts a group or follows a full one.
        let mut id = leftmost_leaf(&r, tree.root()).unwrap();
        let mut prev_group = None;
        while id != 0 {
            let p = fetch_node(&r, id).unwrap();
            let group = node::leaf_key(&p, 0)[1];
            let n = node::ncells(&p);
            assert!(
                node::leaf_key(&p, n - 1)[1] == group,
                "leaf {id} spans groups"
            );
            let next = node::right_ptr(&p);
            if next != 0 && prev_group.is_some_and(|g| g == group) {
                assert!(next > id, "leaves ascend: {id} -> {next}");
            }
            prev_group = Some(group);
            id = next;
        }
        let all: u64 = tree_pages(&other, &r).len() as u64 + pages.len() as u64 + 1;
        assert_eq!(
            all + store.freelist_len() as u64,
            store.page_count() as u64,
            "every page owned once"
        );
    }

    /// A rewrite down to one leaf leaves that leaf in the root, and a
    /// rewrite to nothing an empty root leaf; out-of-order keys are an
    /// error.
    #[test]
    fn rewrite_to_one_leaf_nothing_or_disorder() {
        let (_d, store) = mem_store();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        for i in 0..2000 {
            tree.insert(&mut txn, &key(i), &val(i)).unwrap();
        }
        txn.commit().unwrap();
        let grown = store.page_count();

        let mut txn = store.begin_write().unwrap();
        let cells = (0..3).map(|i| Ok::<_, StorageError>((key(i), val(i), false)));
        tree.rewrite(&mut txn, cells).unwrap();
        assert_eq!(tree.depth(&txn).unwrap(), 1);
        assert_eq!(tree.count(&txn).unwrap(), 3);
        assert_eq!(tree.get(&txn, &key(2)).unwrap(), Some(val(2)));
        txn.commit().unwrap();
        assert_eq!(store.page_count(), grown);
        assert_eq!(store.freelist_len(), grown - 2, "all but header and root");

        let mut txn = store.begin_write().unwrap();
        tree.rewrite(&mut txn, std::iter::empty::<Result<_>>())
            .unwrap();
        assert_eq!(tree.count(&txn).unwrap(), 0);
        let disorder = [key(5), key(4)].map(|k| Ok::<_, StorageError>((k, b"v".to_vec(), false)));
        assert!(matches!(
            tree.rewrite(&mut txn, disorder),
            Err(StorageError::Corrupt(_))
        ));
    }
}
