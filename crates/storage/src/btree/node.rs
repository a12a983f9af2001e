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
//! Mutations materialize the node ([`LeafNode::parse`] /
//! [`InteriorNode::parse`]), edit the cell vector, and rewrite the page
//! ([`LeafNode::write`]); a 4 KiB rebuild is cheap and makes split /
//! merge / redistribute logic straightforward to verify.

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
// 6..8 reserved.
/// Leaf: right sibling page (0 = none). Interior: rightmost child.
const OFF_RIGHT: usize = 8;
// 12..16 reserved.

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
    /// Bytes this value contributes to its cell.
    pub fn cell_bytes(&self, key_len: usize) -> usize {
        match self {
            OwnedVal::Inline(v) => LEAF_INLINE_OVERHEAD + key_len + v.len(),
            OwnedVal::Overflow { .. } => LEAF_OVERFLOW_OVERHEAD + key_len,
        }
    }
}

/// Borrowed view of a leaf value read directly from a page.
#[derive(Debug, Clone, Copy)]
pub enum ValRef<'a> {
    Inline(&'a [u8]),
    Overflow { total: u32, head: PageId },
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
    let kind = p[o + 2];
    let kstart = if kind == 0 { o + 5 } else { o + 11 };
    &p[kstart..kstart + klen]
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
    let i = interior_descend_index(p, key);
    if i == ncells(p) {
        right_ptr(p)
    } else {
        interior_child(p, i)
    }
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
    let kind = p.page_type();
    for i in 0..n {
        let o = cell_offset(p, i);
        if o < content_floor {
            return corrupt("cell offset inside pointer array");
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
            let key = leaf_key(p, i).to_vec();
            let val = match leaf_val(p, i) {
                ValRef::Inline(v) => OwnedVal::Inline(v.to_vec()),
                ValRef::Overflow { total, head } => OwnedVal::Overflow { total, head },
            };
            cells.push((key, val));
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
        debug_assert!(self.fits(), "leaf overflow must be split before write");
        p.fill(0);
        p[OFF_TYPE] = page_type::BTREE_LEAF;
        p.put_u16(OFF_NCELLS, self.cells.len() as u16);
        p.put_u32(OFF_RIGHT, self.right_sibling);
        let mut end = PAGE_SIZE;
        for (i, (key, val)) in self.cells.iter().enumerate() {
            let body = match val {
                OwnedVal::Inline(v) => 5 + key.len() + v.len(),
                OwnedVal::Overflow { .. } => 11 + key.len(),
            };
            end -= body;
            let o = end;
            p.put_u16(o, key.len() as u16);
            match val {
                OwnedVal::Inline(v) => {
                    p[o + 2] = 0;
                    p.put_u16(o + 3, v.len() as u16);
                    p[o + 5..o + 5 + key.len()].copy_from_slice(key);
                    p[o + 5 + key.len()..o + 5 + key.len() + v.len()].copy_from_slice(v);
                }
                OwnedVal::Overflow { total, head } => {
                    p[o + 2] = 1;
                    p.put_u32(o + 3, *total);
                    p.put_u32(o + 7, *head);
                    p[o + 11..o + 11 + key.len()].copy_from_slice(key);
                }
            }
            p.put_u16(PTR_ARRAY + 2 * i, o as u16);
        }
        p.put_u16(OFF_CONTENT_START, end as u16);
    }

    /// Splits the cell vector so both halves fit comfortably; returns
    /// the right half. `self` keeps the left half and its separator is
    /// `self.cells.last().key`.
    pub fn split_off(&mut self) -> LeafNode {
        let total = self.used_bytes();
        let mut acc = 0usize;
        let mut cut = 0usize;
        for (i, (k, v)) in self.cells.iter().enumerate() {
            acc += v.cell_bytes(k.len());
            if acc >= total / 2 {
                cut = i + 1;
                break;
            }
        }
        cut = cut.clamp(1, self.cells.len() - 1);
        let right_cells = self.cells.split_off(cut);
        let right = LeafNode {
            cells: right_cells,
            right_sibling: self.right_sibling,
        };
        // Caller links self.right_sibling to the new page id.
        right
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
        debug_assert!(self.fits(), "interior overflow must be split before write");
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
        let right = node.split_off();
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
