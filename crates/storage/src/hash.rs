//! Hashing for the maps keyed by page numbers.
//!
//! The buffer pool, the WAL index, the checkpoint version table and a
//! write transaction's dirty set are all consulted on every page
//! reference, keyed by a `PageId` or a `(PageId, version)` pair. Those
//! keys are small integers this process allocates itself — a page id is
//! bounds-checked against the page count before it is looked up — so
//! the collision resistance `std`'s SipHash buys is not worth a third
//! of the pool's hit path. [`PageHasher`] is one multiply per integer
//! written; the maps' results never depend on iteration order (commit
//! and checkpoint sort what they drain).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`PageHasher`].
pub(crate) type PageMap<K, V> = HashMap<K, V, BuildHasherDefault<PageHasher>>;

/// Multiply-shift hasher for integer keys.
#[derive(Default, Clone, Copy)]
pub(crate) struct PageHasher(u64);

/// 2^64 / golden ratio, odd: consecutive page ids land far apart.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(MULTIPLIER);
    }

    /// The product's high half is the well-mixed one; the table indexes
    /// by the low bits, so swap the halves.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}
