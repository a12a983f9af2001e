//! A B+tree insert that fits its leaf allocates a constant number of
//! times, whatever the leaf holds.
//!
//! Leaf mutations edit the slotted page in place, so the heap traffic
//! of an insert, a same-key replace or a delete is what the descent and
//! the returned old value cost — not two `Vec`s per cell of the leaf, as
//! when every mutation parsed and rewrote the node. This binary counts
//! with its own allocator, so it holds one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use micronn_storage::{BTree, Store, StoreOptions, SyncMode, WriteTxn};

/// Counts the allocations (and growing reallocations) of the thread
/// that asked for counting.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method hands its arguments, unchanged, to the same
// method of `System`, so the caller's side of the `GlobalAlloc` contract
// is exactly what `System` is owed and `System` keeps the implementor's
// side; `note` touches no allocator state and allocates nothing (a
// const-initialised `Cell<bool>` has no lazy initialiser or destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded as received; see the impl.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded as received; see the impl.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: forwarded as received; see the impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received; see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let out = f();
    COUNTED.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

fn key(i: u32) -> [u8; 8] {
    (i as u64).to_be_bytes()
}

/// Allocations of an insert, a replace and a delete in a single-leaf
/// tree already holding `cells` cells (the leaf's page is dirty, so
/// none of them pays the copy-on-write of a first touch).
fn edits(txn: &mut WriteTxn, cells: u32) -> [usize; 3] {
    let tree = BTree::create(txn).unwrap();
    for i in 0..cells {
        tree.insert(txn, &key(2 * i), &[i as u8; 20]).unwrap();
    }
    assert_eq!(tree.depth(txn).unwrap(), 1, "{cells} cells share one leaf");
    let (old, insert) = counted(|| tree.insert(txn, &key(3), &[7; 20]).unwrap());
    assert_eq!(old, None);
    let (old, replace) = counted(|| tree.insert(txn, &key(3), &[8; 20]).unwrap());
    assert_eq!(old, Some(vec![7; 20]));
    let (old, delete) = counted(|| tree.delete(txn, &key(3)).unwrap());
    assert_eq!(old, Some(vec![8; 20]));
    [insert, replace, delete]
}

#[test]
fn an_edit_that_fits_allocates_a_constant_not_per_cell() {
    let dir = tempfile::tempdir().unwrap();
    let opts = StoreOptions {
        sync: SyncMode::Off,
        ..Default::default()
    };
    let store = Store::create(dir.path().join("db"), opts).unwrap();
    let mut txn = store.begin_write().unwrap();
    let few = edits(&mut txn, 4);
    let many = edits(&mut txn, 100);
    assert_eq!(few, many, "allocations depend on the leaf's cell count");
    // Nothing for the insert; the old value's `Vec` for the other two.
    assert_eq!(many, [0, 1, 1]);
}
