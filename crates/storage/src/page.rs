//! Fixed-size pages: the unit of disk I/O, WAL logging, and buffer-pool
//! caching.
//!
//! Every structure in the store (B+tree nodes, overflow chains, the
//! freelist, the header) lives in a 4 KiB page, mirroring SQLite's
//! default page size, which the paper relies on for its I/O accounting.

use std::ops::{Deref, DerefMut};

/// Size of every database page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page within the database file. Page `0` is the
/// header page; user data starts at page `1`.
pub type PageId = u32;

/// Page type tags stored in the first byte of every non-header page.
pub mod page_type {
    /// B+tree leaf node.
    pub const BTREE_LEAF: u8 = 1;
    /// B+tree interior node.
    pub const BTREE_INTERIOR: u8 = 2;
    /// Overflow-chain page holding a slice of a large value.
    pub const OVERFLOW: u8 = 3;
    /// Member of the free-page list.
    pub const FREE: u8 = 4;
}

/// An owned, heap-allocated page image.
///
/// Pages are shared through `Arc<PageData>`: the buffer pool hands out
/// clones, and the write transaction uses `Arc::make_mut` for
/// copy-on-write so that concurrent readers never observe in-flight
/// modifications.
#[derive(Clone, PartialEq, Eq)]
pub struct PageData(Box<[u8; PAGE_SIZE]>);

impl PageData {
    /// A zero-filled page.
    pub fn zeroed() -> Self {
        PageData(Box::new([0u8; PAGE_SIZE]))
    }

    /// Builds a page from a raw buffer of exactly [`PAGE_SIZE`] bytes:
    /// one copy, no zero fill first.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let page = bytes.to_vec().into_boxed_slice().try_into();
        PageData(page.expect("a page image is PAGE_SIZE bytes"))
    }

    /// Page type tag (first byte).
    pub fn page_type(&self) -> u8 {
        self.0[0]
    }

    // --- little-endian scalar accessors used by all page layouts ---

    /// Reads a `u16` at `off`.
    #[inline]
    pub fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.0[off], self.0[off + 1]])
    }

    /// Writes a `u16` at `off`.
    #[inline]
    pub fn put_u16(&mut self, off: usize, v: u16) {
        self.0[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u32` at `off`.
    #[inline]
    pub fn get_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.0[off..off + 4].try_into().unwrap())
    }

    /// Writes a `u32` at `off`.
    #[inline]
    pub fn put_u32(&mut self, off: usize, v: u32) {
        self.0[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u64` at `off`.
    #[inline]
    pub fn get_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.0[off..off + 8].try_into().unwrap())
    }

    /// Writes a `u64` at `off`.
    #[inline]
    pub fn put_u64(&mut self, off: usize, v: u64) {
        self.0[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// Asks the CPU to start loading `bytes` into its caches: one prefetch
/// per 64-byte line they touch, no loads, no faults. A hint with no
/// visible effect: a scan calls it on the leaf it visits next, so those
/// lines arrive while the current leaf's rows are scored, and a
/// many-key lookup on each value before it hands the first one over. A
/// no-op on targets without a prefetch instruction here.
#[inline]
pub fn prefetch(bytes: &[u8]) {
    let (start, len) = (bytes.as_ptr(), bytes.len());
    let base = start.wrapping_sub(start as usize % 64);
    let lines = (start as usize % 64 + len).div_ceil(64);
    for line in 0..lines {
        let at = base.wrapping_add(64 * line);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE is part of the x86_64 baseline, and a prefetch
        // never faults, whatever the address.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(at.cast());
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `prfm` is a hint: it reads no register but `at` and
        // never faults, whatever the address.
        unsafe {
            std::arch::asm!(
                "prfm pldl1keep, [{at}]",
                at = in(reg) at,
                options(nostack, readonly, preserves_flags)
            );
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        let _ = at;
    }
}

impl Deref for PageData {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for PageData {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl std::fmt::Debug for PageData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageData(type={})", self.page_type())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_all_zero() {
        let p = PageData::zeroed();
        assert!(p.iter().all(|&b| b == 0));
        assert_eq!(p.page_type(), 0);
    }

    #[test]
    fn scalar_roundtrips() {
        let mut p = PageData::zeroed();
        p.put_u16(10, 0xBEEF);
        p.put_u32(100, 0xDEAD_BEEF);
        p.put_u64(200, 0x0123_4567_89AB_CDEF);
        assert_eq!(p.get_u16(10), 0xBEEF);
        assert_eq!(p.get_u32(100), 0xDEAD_BEEF);
        assert_eq!(p.get_u64(200), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn from_bytes_roundtrip() {
        let mut raw = vec![0u8; PAGE_SIZE];
        raw[0] = page_type::BTREE_LEAF;
        raw[PAGE_SIZE - 1] = 0xAB;
        let p = PageData::from_bytes(&raw);
        assert_eq!(p.page_type(), page_type::BTREE_LEAF);
        assert_eq!(p[PAGE_SIZE - 1], 0xAB);
    }

    #[test]
    fn scalars_at_page_boundary() {
        let mut p = PageData::zeroed();
        p.put_u64(PAGE_SIZE - 8, u64::MAX);
        assert_eq!(p.get_u64(PAGE_SIZE - 8), u64::MAX);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = PageData::zeroed();
        a.put_u32(0, 7);
        let b = a.clone();
        a.put_u32(0, 9);
        assert_eq!(b.get_u32(0), 7);
        assert_eq!(a.get_u32(0), 9);
    }
}
