//! On-page layout of B+tree nodes.
//!
//! Both node kinds use a slotted-page layout: a fixed header, a sorted
//! array of 2-byte cell pointers growing downward from the header, and
//! cell content growing upward from the end of the page.
//!
//! ```text
//! leaf cell:      key_len:u16 | kind:u8 | [val_len:u16 | key | val]          (inline)
//!                 key_len:u16 | kind:u8 | total:u32 | head:u32 | key         (overflow)
//! interior cell:  child:u32 | key_len:u16 | key
//! ```
//!
//! Interior separator convention: a cell `(child, key)` means the
//! subtree under `child` holds keys `<= key`; keys greater than every
//! separator live under the node's rightmost child.
//!
//! Reads (`search`, `cell_key`, `leaf_val`) operate directly on the
//! page image with zero allocation — this is the ANN query hot path.
//!
//! Leaf mutations edit the slotted page in place ([`leaf_insert_at`],
//! [`leaf_replace_at`], [`leaf_remove_at`]): a new cell is written into
//! the gap below `content_start`, the pointer array is shifted by one
//! slot, and the bytes a removed cell occupied are zeroed and left as a
//! hole. A mutation therefore writes `O(cell)` bytes and allocates
//! nothing, however many cells the leaf holds (a removal also reads the
//! cell headers, to tell whether the leaf went underfull — holes are
//! not accounted anywhere). What still materializes
//! the node ([`LeafNode::parse`] / [`InteriorNode::parse`]), edits the
//! cell vector and rewrites the page ([`LeafNode::write`]) is everything
//! that moves cells between pages or needs the holes back: a leaf whose
//! gap is too small for the cell (the rewrite compacts it, and splits it
//! if it is full), merge and redistribute, and every interior-node
//! mutation — those happen once per leaf split or merge, not per row.
//!
//! Three header fields serve the in-place path. No cell lies below
//! `content_start` (bytes 4..6); [`validate`] checks that against the
//! pointer array, since an insert writes directly below it.
//! Leaf bytes 6..8 hold the slot of the most recent insert plus one,
//! and byte 12 how many inserts in a row, ending with that one, each
//! went directly behind the one before it ([`run_at`]) — both `0` in
//! every page written before the fields existed. They are the evidence
//! of an insertion run that the split rule in `btree::insert_rec` cuts
//! along: a hint — a wrong value costs fill, never correctness — that
//! [`LeafNode::write`] resets and no format version records.

use crate::error::{Result, StorageError};
use crate::page::{page_type, PageData, PageId, PAGE_SIZE};

/// Node header size (both kinds).
pub const NODE_HDR: usize = 16;
/// Usable bytes per node (cell pointers + cell content).
pub const NODE_CAPACITY: usize = PAGE_SIZE - NODE_HDR;
/// Maximum permitted key length. Guarantees an interior node always
/// fits at least three separators, which keeps splits well-defined.
pub const MAX_KEY_LEN: usize = 1024;
/// Leaf cells larger than this spill their value to an overflow chain,
/// guaranteeing at least four cells per leaf.
pub const MAX_INLINE_CELL: usize = NODE_CAPACITY / 4;
/// A node is underfull (eligible for merge) below this usage.
pub const UNDERFLOW_BYTES: usize = NODE_CAPACITY / 4;

// Header field offsets (shared by leaf and interior nodes).
const OFF_TYPE: usize = 0;
const OFF_NCELLS: usize = 2;
const OFF_CONTENT_START: usize = 4;
/// Leaf: slot of the most recent insert + 1 (0 = unknown). Interior: reserved.
const OFF_LAST_INSERT: usize = 6;
/// Leaf: right sibling page (0 = none). Interior: rightmost child.
const OFF_RIGHT: usize = 8;
/// Leaf: length of the insertion run ending at `OFF_LAST_INSERT`'s slot.
const OFF_RUN: usize = 12;
// 13..16 reserved.

const PTR_ARRAY: usize = NODE_HDR;

/// Per-cell byte overhead (pointer + fixed header) for a leaf inline cell.
pub const LEAF_INLINE_OVERHEAD: usize = 2 + 5;
/// Per-cell byte overhead for a leaf overflow cell.
pub const LEAF_OVERFLOW_OVERHEAD: usize = 2 + 11;
/// Per-cell byte overhead for an interior cell.
pub const INTERIOR_OVERHEAD: usize = 2 + 6;

/// A leaf value, either stored inline or spilled to an overflow chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OwnedVal {
    Inline(Vec<u8>),
    Overflow { total: u32, head: PageId },
}

impl OwnedVal {
    /// Bytes a cell with this value and a `key_len`-byte key takes from
    /// its node (pointer + content).
    pub fn cell_bytes(&self, key_len: usize) -> usize {
        2 + self.as_ref().body_len(key_len)
    }

    /// The borrowed form of this value.
    pub fn as_ref(&self) -> ValRef<'_> {
        match self {
            OwnedVal::Inline(v) => ValRef::Inline(v),
            OwnedVal::Overflow { total, head } => ValRef::Overflow {
                total: *total,
                head: *head,
            },
        }
    }
}

/// Borrowed form of a leaf value: what the accessors read out of a page
/// and what the in-place edits write into one.
#[derive(Debug, Clone, Copy)]
pub enum ValRef<'a> {
    Inline(&'a [u8]),
    Overflow { total: u32, head: PageId },
}

impl ValRef<'_> {
    /// Content bytes (everything but the pointer) of a cell with this
    /// value and a `key_len`-byte key.
    fn body_len(&self, key_len: usize) -> usize {
        match self {
            ValRef::Inline(v) => LEAF_INLINE_OVERHEAD - 2 + key_len + v.len(),
            ValRef::Overflow { .. } => LEAF_OVERFLOW_OVERHEAD - 2 + key_len,
        }
    }

    /// The owned form of this value.
    pub fn to_owned(self) -> OwnedVal {
        match self {
            ValRef::Inline(v) => OwnedVal::Inline(v.to_vec()),
            ValRef::Overflow { total, head } => OwnedVal::Overflow { total, head },
        }
    }
}

// ---------------------------------------------------------------------------
// Zero-copy page accessors (query hot path)
// ---------------------------------------------------------------------------

/// Number of cells in a node.
#[inline]
pub fn ncells(p: &PageData) -> usize {
    p.get_u16(OFF_NCELLS) as usize
}

/// Leaf right-sibling / interior rightmost-child pointer.
#[inline]
pub fn right_ptr(p: &PageData) -> PageId {
    p.get_u32(OFF_RIGHT)
}

#[inline]
fn cell_offset(p: &PageData, i: usize) -> usize {
    p.get_u16(PTR_ARRAY + 2 * i) as usize
}

/// Key of cell `i` in a leaf node.
#[inline]
pub fn leaf_key(p: &PageData, i: usize) -> &[u8] {
    let o = cell_offset(p, i);
    let klen = p.get_u16(o) as usize;
    let kstart = o + leaf_key_skip(p[o + 2]);
    &p[kstart..kstart + klen]
}

/// Bytes between the start of a leaf cell of `kind` and its key.
#[inline]
fn leaf_key_skip(kind: u8) -> usize {
    if kind == 0 {
        5
    } else {
        11
    }
}

/// Value of cell `i` in a leaf node.
#[inline]
pub fn leaf_val(p: &PageData, i: usize) -> ValRef<'_> {
    let o = cell_offset(p, i);
    let klen = p.get_u16(o) as usize;
    if p[o + 2] == 0 {
        let vlen = p.get_u16(o + 3) as usize;
        let vstart = o + 5 + klen;
        ValRef::Inline(&p[vstart..vstart + vlen])
    } else {
        ValRef::Overflow {
            total: p.get_u32(o + 3),
            head: p.get_u32(o + 7),
        }
    }
}

/// Key of cell `i` in an interior node.
#[inline]
pub fn interior_key(p: &PageData, i: usize) -> &[u8] {
    let o = cell_offset(p, i);
    let klen = p.get_u16(o + 4) as usize;
    &p[o + 6..o + 6 + klen]
}

/// Child pointer of cell `i` in an interior node.
#[inline]
pub fn interior_child(p: &PageData, i: usize) -> PageId {
    p.get_u32(cell_offset(p, i))
}

/// Child at position `slot` of an interior node, `0..=ncells`: cell
/// `slot`'s child, or the rightmost child for `slot == ncells`.
#[inline]
pub fn interior_child_at(p: &PageData, slot: usize) -> PageId {
    if slot == ncells(p) {
        right_ptr(p)
    } else {
        interior_child(p, slot)
    }
}

/// Binary search in a leaf: `Ok(i)` if cell `i` holds `key`, else
/// `Err(i)` with the insertion position.
pub fn leaf_search(p: &PageData, key: &[u8]) -> std::result::Result<usize, usize> {
    let n = ncells(p);
    let mut lo = 0;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match leaf_key(p, mid).cmp(key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Descend decision in an interior node: index of the first separator
/// `>= key` (whose child must be followed), or `ncells` for the
/// rightmost child.
pub fn interior_descend_index(p: &PageData, key: &[u8]) -> usize {
    let n = ncells(p);
    let mut lo = 0;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if interior_key(p, mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Child page to follow for `key`.
pub fn interior_descend(p: &PageData, key: &[u8]) -> PageId {
    interior_child_at(p, interior_descend_index(p, key))
}

/// Checks the node type byte, returning a corruption error on mismatch.
pub fn expect_type(p: &PageData, want: u8, page: PageId) -> Result<()> {
    if p.page_type() != want {
        return Err(StorageError::Corrupt(format!(
            "page {page}: expected node type {want}, found {}",
            p.page_type()
        )));
    }
    Ok(())
}

/// Checks that `p` is a B+tree node of either kind: the per-fetch half
/// of node checking (one byte compare). The `O(cells)` half,
/// [`validate`], runs once when the image is loaded from disk.
#[inline]
pub fn expect_node(p: &PageData, page: PageId) -> Result<()> {
    match p.page_type() {
        page_type::BTREE_LEAF | page_type::BTREE_INTERIOR => Ok(()),
        t => Err(StorageError::Corrupt(format!(
            "page {page}: unexpected type {t} during descent"
        ))),
    }
}

/// Structural validation of a node page: every cell pointer, and every
/// length those cells imply, must stay inside the page. Once a page
/// passes, the zero-copy accessors above cannot slice out of bounds —
/// so corrupted bytes surface as [`StorageError::Corrupt`] where the
/// image is loaded (the store's page-load function; `fsck` and recovery
/// report it from there) instead of panicking mid-traversal.
/// `O(cells)` of u16 reads, paid once per load, not per fetch.
pub fn validate(p: &PageData, page: PageId) -> Result<()> {
    let corrupt = |what: &str| {
        Err(StorageError::Corrupt(format!(
            "page {page}: malformed node ({what})"
        )))
    };
    let n = ncells(p);
    let content_floor = PTR_ARRAY + 2 * n;
    if content_floor > PAGE_SIZE {
        return corrupt("cell pointer array exceeds page");
    }
    // In-place inserts write directly below `content_start`, so it may
    // not lie above any cell (nor inside the pointer array).
    let content_start = p.get_u16(OFF_CONTENT_START) as usize;
    if content_start < content_floor || content_start > PAGE_SIZE {
        return corrupt("content start outside the cell area");
    }
    let kind = p.page_type();
    for i in 0..n {
        let o = cell_offset(p, i);
        if o < content_start {
            return corrupt("cell offset below content start");
        }
        match kind {
            page_type::BTREE_LEAF => {
                if o + 5 > PAGE_SIZE {
                    return corrupt("leaf cell header exceeds page");
                }
                let klen = p.get_u16(o) as usize;
                let end = match p[o + 2] {
                    0 => o + 5 + klen + p.get_u16(o + 3) as usize,
                    1 => o + 11 + klen,
                    _ => return corrupt("unknown leaf cell kind"),
                };
                if end > PAGE_SIZE {
                    return corrupt("leaf cell exceeds page");
                }
            }
            page_type::BTREE_INTERIOR => {
                if o + 6 > PAGE_SIZE {
                    return corrupt("interior cell header exceeds page");
                }
                if o + 6 + p.get_u16(o + 4) as usize > PAGE_SIZE {
                    return corrupt("interior cell exceeds page");
                }
            }
            t => {
                return Err(StorageError::Corrupt(format!(
                    "page {page}: unexpected type {t} during descent"
                )))
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// In-place leaf edits (mutation hot path)
// ---------------------------------------------------------------------------

/// Content bytes of the leaf cell at offset `o`.
#[inline]
fn leaf_cell_len(p: &PageData, o: usize) -> usize {
    let klen = p.get_u16(o) as usize;
    match p[o + 2] {
        0 => 5 + klen + p.get_u16(o + 3) as usize,
        _ => 11 + klen,
    }
}

/// Bytes of a leaf's capacity its cells occupy (pointers + content),
/// read off the cells themselves: holes left by in-place removals do
/// not count.
pub fn leaf_used_bytes(p: &PageData) -> usize {
    (0..ncells(p))
        .map(|i| 2 + leaf_cell_len(p, cell_offset(p, i)))
        .sum()
}

/// Length of the insertion run a new cell at slot `i` of this leaf
/// would extend: how many inserts in a row, up to the most recent one,
/// each went directly behind the one before it, counting the new cell's
/// own step — `0` when it does not directly follow the most recent
/// insert (or that insert is unknown).
#[inline]
pub fn run_at(p: &PageData, i: usize) -> u8 {
    if i > 0 && p.get_u16(OFF_LAST_INSERT) as usize == i {
        p[OFF_RUN].saturating_add(1)
    } else {
        0
    }
}

/// Records that the cell at `slot` is the most recent insert and
/// extends a run of `run` steps ([`run_at`]); `None` forgets the run.
#[inline]
pub fn note_insert(p: &mut PageData, insert: Option<(usize, u8)>) {
    let (slot, run) = insert.map_or((0, 0), |(slot, run)| (slot as u16 + 1, run));
    p.put_u16(OFF_LAST_INSERT, slot);
    p[OFF_RUN] = run;
}

/// Writes everything of a leaf cell except its key at offset `o` and
/// returns the offset the `klen` key bytes belong at.
fn put_leaf_cell(p: &mut PageData, o: usize, klen: usize, val: ValRef<'_>) -> usize {
    p.put_u16(o, klen as u16);
    match val {
        ValRef::Inline(v) => {
            p[o + 2] = 0;
            p.put_u16(o + 3, v.len() as u16);
            p[o + 5 + klen..o + 5 + klen + v.len()].copy_from_slice(v);
            o + 5
        }
        ValRef::Overflow { total, head } => {
            p[o + 2] = 1;
            p.put_u32(o + 3, total);
            p.put_u32(o + 7, head);
            o + 11
        }
    }
}

/// Offset at which `body` more content bytes (and `ptrs` more pointer
/// bytes) fit into the gap between the pointer array and
/// `content_start`, or `None` when the gap is too small.
fn claim_gap(p: &PageData, ptrs: usize, body: usize) -> Option<usize> {
    let floor = PTR_ARRAY + 2 * ncells(p) + ptrs;
    let start = p.get_u16(OFF_CONTENT_START) as usize;
    (start >= floor + body).then(|| start - body)
}

/// Inserts `(key, val)` as cell `i` of a leaf in place. `false` — and
/// an untouched page — when the gap cannot take the cell; the caller
/// then rewrites the leaf, which compacts it or splits it.
pub fn leaf_insert_at(p: &mut PageData, i: usize, key: &[u8], val: ValRef<'_>) -> bool {
    let Some(o) = claim_gap(p, 2, val.body_len(key.len())) else {
        return false;
    };
    let n = ncells(p);
    let run = run_at(p, i);
    let key_at = put_leaf_cell(p, o, key.len(), val);
    p[key_at..key_at + key.len()].copy_from_slice(key);
    p.copy_within(PTR_ARRAY + 2 * i..PTR_ARRAY + 2 * n, PTR_ARRAY + 2 * i + 2);
    p.put_u16(PTR_ARRAY + 2 * i, o as u16);
    p.put_u16(OFF_NCELLS, n as u16 + 1);
    p.put_u16(OFF_CONTENT_START, o as u16);
    note_insert(p, Some((i, run)));
    true
}

/// Replaces the value of leaf cell `i` in place: over the old value
/// when the cell keeps its size, else as a fresh cell in the gap, the
/// old one zeroed. `false` — and an untouched page — when the gap
/// cannot take the cell.
pub fn leaf_replace_at(p: &mut PageData, i: usize, val: ValRef<'_>) -> bool {
    let old = cell_offset(p, i);
    let klen = p.get_u16(old) as usize;
    let (old_len, old_key_at) = (leaf_cell_len(p, old), old + leaf_key_skip(p[old + 2]));
    let same_kind = (p[old + 2] == 0) == matches!(val, ValRef::Inline(_));
    if same_kind && val.body_len(klen) == old_len {
        put_leaf_cell(p, old, klen, val);
        return true;
    }
    let Some(o) = claim_gap(p, 0, val.body_len(klen)) else {
        return false;
    };
    let key_at = put_leaf_cell(p, o, klen, val);
    p.copy_within(old_key_at..old_key_at + klen, key_at);
    p[old..old + old_len].fill(0);
    p.put_u16(PTR_ARRAY + 2 * i, o as u16);
    p.put_u16(OFF_CONTENT_START, o as u16);
    true
}

/// Removes leaf cell `i` in place: its bytes are zeroed and stay a hole
/// until the next rewrite of the page.
pub fn leaf_remove_at(p: &mut PageData, i: usize) {
    let n = ncells(p);
    let o = cell_offset(p, i);
    let len = leaf_cell_len(p, o);
    p[o..o + len].fill(0);
    p.copy_within(
        PTR_ARRAY + 2 * (i + 1)..PTR_ARRAY + 2 * n,
        PTR_ARRAY + 2 * i,
    );
    p.put_u16(PTR_ARRAY + 2 * (n - 1), 0);
    p.put_u16(OFF_NCELLS, n as u16 - 1);
    if n == 1 {
        p.put_u16(OFF_CONTENT_START, PAGE_SIZE as u16);
    }
    // The run's last cell keeps its place in the order, or is gone.
    match (p.get_u16(OFF_LAST_INSERT) as usize).cmp(&(i + 1)) {
        std::cmp::Ordering::Less => {}
        std::cmp::Ordering::Equal => note_insert(p, None),
        std::cmp::Ordering::Greater => p.put_u16(OFF_LAST_INSERT, p.get_u16(OFF_LAST_INSERT) - 1),
    }
}

/// The separator to promote between two adjacent children: the shortest
/// proper prefix `s` of `right_min` with `left_max <= s < right_min`,
/// or `left_max` itself when `right_min` has none (the two differ only
/// in its last byte). Either way the left child holds keys `<= s`, and
/// every later key of a run ending at `left_max` — anything below
/// `right_min`'s distinguishing byte — still descends to the left
/// child, to fill it.
pub fn separator<'a>(left_max: &'a [u8], right_min: &'a [u8]) -> &'a [u8] {
    debug_assert!(left_max < right_min);
    let common = left_max
        .iter()
        .zip(right_min)
        .take_while(|(a, b)| a == b)
        .count();
    let len = if common == left_max.len() {
        common
    } else {
        common + 1
    };
    if len < right_min.len() {
        &right_min[..len]
    } else {
        left_max
    }
}

// ---------------------------------------------------------------------------
// Materialized nodes (mutation path)
// ---------------------------------------------------------------------------

/// A fully decoded leaf node.
#[derive(Debug, Clone, Default)]
pub struct LeafNode {
    pub cells: Vec<(Vec<u8>, OwnedVal)>,
    pub right_sibling: PageId,
}

impl LeafNode {
    /// Decodes a leaf page.
    pub fn parse(p: &PageData) -> LeafNode {
        debug_assert_eq!(p.page_type(), page_type::BTREE_LEAF);
        let n = ncells(p);
        let mut cells = Vec::with_capacity(n);
        for i in 0..n {
            cells.push((leaf_key(p, i).to_vec(), leaf_val(p, i).to_owned()));
        }
        LeafNode {
            cells,
            right_sibling: right_ptr(p),
        }
    }

    /// Total bytes the cells occupy (pointers + content).
    pub fn used_bytes(&self) -> usize {
        self.cells.iter().map(|(k, v)| v.cell_bytes(k.len())).sum()
    }

    /// Whether the node fits in one page.
    pub fn fits(&self) -> bool {
        self.used_bytes() <= NODE_CAPACITY
    }

    /// Serializes the node into `p`.
    pub fn write(&self, p: &mut PageData) {
        // Not a debug assertion: laying out cells that do not fit would
        // run the content into the pointer array and store the wreck.
        assert!(self.fits(), "leaf overflow must be split before write");
        p.fill(0);
        p[OFF_TYPE] = page_type::BTREE_LEAF;
        p.put_u16(OFF_NCELLS, self.cells.len() as u16);
        p.put_u32(OFF_RIGHT, self.right_sibling);
        let mut end = PAGE_SIZE;
        for (i, (key, val)) in self.cells.iter().enumerate() {
            let val = val.as_ref();
            end -= val.body_len(key.len());
            let key_at = put_leaf_cell(p, end, key.len(), val);
            p[key_at..key_at + key.len()].copy_from_slice(key);
            p.put_u16(PTR_ARRAY + 2 * i, end as u16);
        }
        p.put_u16(OFF_CONTENT_START, end as u16);
    }

    /// Splits an over-full (or to-be-rebalanced) cell vector in two and
    /// returns the right part; `self` keeps the left. `run_at` is the
    /// index of a just-inserted cell that directly follows the insert
    /// before it — an insertion run — and decides the cut:
    ///
    /// * the run reached the end of the leaf: the left page keeps every
    ///   old cell, full, and the new cell opens the right page;
    /// * the run sits in front of other keys: cut right after the new
    ///   cell, so the run goes on filling the left page (see
    ///   [`separator`]) instead of pushing the keys behind it around;
    /// * no run (`None`), or a left part that would not fit: the cut
    ///   that balances the bytes of the two parts.
    ///
    /// The caller links `self.right_sibling` to the new page.
    pub fn split_off(&mut self, run_at: Option<usize>) -> LeafNode {
        let bytes = |cells: &[(Vec<u8>, OwnedVal)]| -> usize {
            cells.iter().map(|(k, v)| v.cell_bytes(k.len())).sum()
        };
        let n = self.cells.len();
        let cut = match run_at {
            Some(i) if i + 1 == n => i,
            Some(i) if bytes(&self.cells[..=i]) <= NODE_CAPACITY => i + 1,
            _ => {
                let half = self.used_bytes() / 2;
                let mut acc = 0usize;
                let balanced = self.cells.iter().position(|(k, v)| {
                    acc += v.cell_bytes(k.len());
                    acc >= half
                });
                balanced.map_or(n, |i| i + 1)
            }
        };
        LeafNode {
            cells: self.cells.split_off(cut.clamp(1, n - 1)),
            right_sibling: self.right_sibling,
        }
    }
}

/// A fully decoded interior node.
#[derive(Debug, Clone, Default)]
pub struct InteriorNode {
    /// `(child, separator)`: `child` holds keys `<= separator`.
    pub cells: Vec<(PageId, Vec<u8>)>,
    pub rightmost: PageId,
}

impl InteriorNode {
    /// Decodes an interior page.
    pub fn parse(p: &PageData) -> InteriorNode {
        debug_assert_eq!(p.page_type(), page_type::BTREE_INTERIOR);
        let n = ncells(p);
        let mut cells = Vec::with_capacity(n);
        for i in 0..n {
            cells.push((interior_child(p, i), interior_key(p, i).to_vec()));
        }
        InteriorNode {
            cells,
            rightmost: right_ptr(p),
        }
    }

    /// Total bytes the cells occupy (pointers + content).
    pub fn used_bytes(&self) -> usize {
        self.cells
            .iter()
            .map(|(_, k)| INTERIOR_OVERHEAD + k.len())
            .sum()
    }

    /// Whether the node fits in one page.
    pub fn fits(&self) -> bool {
        self.used_bytes() <= NODE_CAPACITY
    }

    /// Serializes the node into `p`.
    pub fn write(&self, p: &mut PageData) {
        assert!(self.fits(), "interior overflow must be split before write");
        p.fill(0);
        p[OFF_TYPE] = page_type::BTREE_INTERIOR;
        p.put_u16(OFF_NCELLS, self.cells.len() as u16);
        p.put_u32(OFF_RIGHT, self.rightmost);
        let mut end = PAGE_SIZE;
        for (i, (child, key)) in self.cells.iter().enumerate() {
            let body = 6 + key.len();
            end -= body;
            let o = end;
            p.put_u32(o, *child);
            p.put_u16(o + 4, key.len() as u16);
            p[o + 6..o + 6 + key.len()].copy_from_slice(key);
            p.put_u16(PTR_ARRAY + 2 * i, o as u16);
        }
        p.put_u16(OFF_CONTENT_START, end as u16);
    }

    /// Splits, returning `(promoted separator, right node)`. `self`
    /// keeps the left half.
    pub fn split_off(&mut self) -> (Vec<u8>, InteriorNode) {
        debug_assert!(self.cells.len() >= 3);
        let total = self.used_bytes();
        let mut acc = 0usize;
        let mut cut = 0usize;
        for (i, (_, k)) in self.cells.iter().enumerate() {
            acc += INTERIOR_OVERHEAD + k.len();
            if acc >= total / 2 {
                cut = i;
                break;
            }
        }
        cut = cut.clamp(1, self.cells.len() - 2);
        // cells[cut] is promoted: left keeps [0, cut), its rightmost
        // becomes cells[cut].child; right takes (cut, n).
        let mut tail = self.cells.split_off(cut);
        let (mid_child, mid_key) = tail.remove(0);
        let right = InteriorNode {
            cells: tail,
            rightmost: self.rightmost,
        };
        self.rightmost = mid_child;
        (mid_key, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_with(cells: Vec<(Vec<u8>, OwnedVal)>) -> PageData {
        let node = LeafNode {
            cells,
            right_sibling: 77,
        };
        let mut p = PageData::zeroed();
        node.write(&mut p);
        p
    }

    #[test]
    fn leaf_roundtrip() {
        let cells = vec![
            (b"apple".to_vec(), OwnedVal::Inline(b"1".to_vec())),
            (
                b"banana".to_vec(),
                OwnedVal::Overflow {
                    total: 9000,
                    head: 42,
                },
            ),
            (b"cherry".to_vec(), OwnedVal::Inline(vec![0xAB; 100])),
        ];
        let p = leaf_with(cells.clone());
        assert_eq!(p.page_type(), page_type::BTREE_LEAF);
        assert_eq!(ncells(&p), 3);
        assert_eq!(right_ptr(&p), 77);
        let parsed = LeafNode::parse(&p);
        assert_eq!(parsed.cells, cells);
        assert_eq!(parsed.right_sibling, 77);
        // Zero-copy accessors agree.
        assert_eq!(leaf_key(&p, 1), b"banana");
        match leaf_val(&p, 1) {
            ValRef::Overflow { total, head } => {
                assert_eq!((total, head), (9000, 42));
            }
            _ => panic!("expected overflow"),
        }
        match leaf_val(&p, 2) {
            ValRef::Inline(v) => assert_eq!(v, &[0xAB; 100][..]),
            _ => panic!("expected inline"),
        }
    }

    #[test]
    fn leaf_search_positions() {
        let p = leaf_with(vec![
            (b"b".to_vec(), OwnedVal::Inline(vec![])),
            (b"d".to_vec(), OwnedVal::Inline(vec![])),
            (b"f".to_vec(), OwnedVal::Inline(vec![])),
        ]);
        assert_eq!(leaf_search(&p, b"a"), Err(0));
        assert_eq!(leaf_search(&p, b"b"), Ok(0));
        assert_eq!(leaf_search(&p, b"c"), Err(1));
        assert_eq!(leaf_search(&p, b"f"), Ok(2));
        assert_eq!(leaf_search(&p, b"g"), Err(3));
    }

    #[test]
    fn interior_roundtrip_and_descend() {
        let node = InteriorNode {
            cells: vec![(10, b"dog".to_vec()), (20, b"mouse".to_vec())],
            rightmost: 30,
        };
        let mut p = PageData::zeroed();
        node.write(&mut p);
        let parsed = InteriorNode::parse(&p);
        assert_eq!(parsed.cells, node.cells);
        assert_eq!(parsed.rightmost, 30);
        // child holds keys <= separator.
        assert_eq!(interior_descend(&p, b"cat"), 10);
        assert_eq!(interior_descend(&p, b"dog"), 10);
        assert_eq!(interior_descend(&p, b"elk"), 20);
        assert_eq!(interior_descend(&p, b"mouse"), 20);
        assert_eq!(interior_descend(&p, b"zebra"), 30);
    }

    #[test]
    fn in_place_edits_keep_order_and_zero_what_they_free() {
        let mut p = leaf_with(vec![
            (b"b".to_vec(), OwnedVal::Inline(vec![1; 10])),
            (b"d".to_vec(), OwnedVal::Inline(vec![2; 10])),
        ]);
        assert_eq!(run_at(&p, 1), 0, "a rewritten page knows of no run");
        assert!(leaf_insert_at(&mut p, 1, b"c", ValRef::Inline(&[3; 10])));
        assert_eq!(
            (run_at(&p, 2), run_at(&p, 1)),
            (1, 0),
            "directly behind it, or not"
        );
        assert!(leaf_insert_at(&mut p, 2, b"cc", ValRef::Inline(&[4; 10])));
        assert_eq!((run_at(&p, 3), run_at(&p, 2)), (2, 0));
        // Same size: over the old value. Other size: a fresh cell.
        let hole = p.get_u16(PTR_ARRAY + 2) as usize;
        assert!(leaf_replace_at(&mut p, 1, ValRef::Inline(&[5; 10])));
        assert_eq!(p.get_u16(PTR_ARRAY + 2) as usize, hole);
        assert!(leaf_replace_at(&mut p, 1, ValRef::Inline(&[6; 30])));
        assert!(p[hole..hole + 5 + 1 + 10].iter().all(|&b| b == 0));
        leaf_remove_at(&mut p, 0);
        assert_eq!(run_at(&p, 2), 2, "the run's slot moved down with its cell");
        let keys: Vec<&[u8]> = (0..ncells(&p)).map(|i| leaf_key(&p, i)).collect();
        assert_eq!(keys, [&b"c"[..], b"cc", b"d"]);
        assert!(matches!(leaf_val(&p, 0), ValRef::Inline(v) if v == [6; 30]));
        assert_eq!(leaf_used_bytes(&p), LeafNode::parse(&p).used_bytes());
        assert!(validate(&p, 1).is_ok());
        leaf_remove_at(&mut p, 1);
        assert_eq!(run_at(&p, 2), 0, "removing the run's last cell forgets it");
        // A gap too small refuses the cell and leaves the page alone.
        let before = p.clone();
        assert!(!leaf_insert_at(&mut p, 0, b"a", ValRef::Inline(&[0; 4080])));
        assert!(p == before);
    }

    #[test]
    fn content_start_above_a_cell_is_corruption() {
        let mut p = leaf_with(vec![(b"k".to_vec(), OwnedVal::Inline(vec![1; 10]))]);
        assert!(validate(&p, 1).is_ok());
        let start = p.get_u16(OFF_CONTENT_START);
        p.put_u16(OFF_CONTENT_START, start + 1);
        assert!(validate(&p, 1).is_err());
        p.put_u16(OFF_CONTENT_START, 10);
        assert!(validate(&p, 1).is_err());
    }

    #[test]
    fn separators_are_short_and_bound_both_sides() {
        // A differing byte with more behind it: the prefix up to it.
        assert_eq!(separator(b"part3-vid100", b"part4-vid007"), b"part4");
        // `left_max` a prefix of `right_min`: `left_max` is the shortest.
        assert_eq!(separator(b"ab", b"abc"), b"ab");
        // Differing only in `right_min`'s last byte: no proper prefix.
        assert_eq!(separator(b"abc", b"abd"), b"abc");
        assert_eq!(separator(b"abcxyz", b"abd"), b"abcxyz");
        assert_eq!(separator(b"", b"a"), b"");
    }

    #[test]
    fn leaf_split_follows_an_insertion_run() {
        let cells = |n: u32| -> Vec<(Vec<u8>, OwnedVal)> {
            (0..n)
                .map(|i| {
                    let key = format!("key{i:04}").into_bytes();
                    (key, OwnedVal::Inline(vec![0u8; 500]))
                })
                .collect()
        };
        let node = |n| LeafNode {
            cells: cells(n),
            right_sibling: 5,
        };
        // Run at the end of the leaf: the new cell alone moves right.
        let mut left = node(8);
        assert!(!left.fits());
        let right = left.split_off(Some(7));
        assert_eq!((left.cells.len(), right.cells.len()), (7, 1));
        // Run in front of other keys: cut right after the new cell.
        let mut left = node(8);
        let right = left.split_off(Some(2));
        assert_eq!((left.cells.len(), right.cells.len()), (3, 5));
        assert_eq!(right.right_sibling, 5);
        // A left part that cannot hold the new cell too: balanced.
        let mut left = node(8);
        left.cells[6].1 = OwnedVal::Inline(vec![0u8; 900]);
        let right = left.split_off(Some(6));
        assert!(left.fits() && right.fits());
        assert_eq!(left.cells.len() + right.cells.len(), 8);
    }

    #[test]
    fn leaf_split_balances_bytes() {
        let mut node = LeafNode::default();
        for i in 0..100u32 {
            node.cells.push((
                format!("key{i:04}").into_bytes(),
                OwnedVal::Inline(vec![0u8; 30]),
            ));
        }
        node.right_sibling = 5;
        let total = node.used_bytes();
        let right = node.split_off(None);
        assert!(!node.cells.is_empty() && !right.cells.is_empty());
        assert_eq!(right.right_sibling, 5);
        let l = node.used_bytes();
        let r = right.used_bytes();
        assert_eq!(l + r, total);
        assert!(l.abs_diff(r) < total / 3, "split is roughly even");
        // Ordering preserved across the cut.
        assert!(node.cells.last().unwrap().0 < right.cells[0].0);
    }

    #[test]
    fn interior_split_promotes_middle() {
        let mut node = InteriorNode {
            cells: (0..10u32)
                .map(|i| (i + 100, format!("k{i:02}").into_bytes()))
                .collect(),
            rightmost: 999,
        };
        let (sep, right) = node.split_off();
        // Promoted separator is greater than everything left, less than
        // everything right.
        assert!(node.cells.iter().all(|(_, k)| k < &sep));
        assert!(right.cells.iter().all(|(_, k)| k > &sep));
        assert_eq!(right.rightmost, 999);
        // Left's rightmost is the promoted cell's child.
        let promoted_child = node.rightmost;
        assert!((100..110).contains(&promoted_child));
    }

    #[test]
    fn capacity_accounting_matches_layout() {
        // A node reporting `fits()` must serialize without panicking,
        // even at the boundary.
        let mut node = LeafNode::default();
        while node.used_bytes() + LEAF_INLINE_OVERHEAD + 8 + 64 <= NODE_CAPACITY {
            let i = node.cells.len();
            node.cells.push((
                format!("k{i:06}x").into_bytes(),
                OwnedVal::Inline(vec![1; 64]),
            ));
        }
        assert!(node.fits());
        let mut p = PageData::zeroed();
        node.write(&mut p);
        assert_eq!(ncells(&p), node.cells.len());
        let reparsed = LeafNode::parse(&p);
        assert_eq!(reparsed.cells.len(), node.cells.len());
    }

    #[test]
    fn expect_type_detects_mismatch() {
        let p = leaf_with(vec![]);
        assert!(expect_type(&p, page_type::BTREE_LEAF, 1).is_ok());
        assert!(expect_type(&p, page_type::BTREE_INTERIOR, 1).is_err());
    }
}
