//! `Table::visit_pk_prefix` allocates nothing per row.
//!
//! The partition scan's hot path lends rows out of pinned pages — the
//! leaf, or the one overflow page a spilled row fits in — so the heap
//! traffic of a warm visit is a constant (the encoded prefix and its
//! bounds) whatever the number of rows, plus — for rows stored in
//! multi-page overflow chains — one growth of the reassembly buffer each
//! time a longer row than any before it turns up. This binary counts
//! with its own allocator, so it holds one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use micronn_rel::{ColumnDef, Database, RelError, Table, TableSchema, Value, ValueType};
use micronn_storage::{StoreOptions, SyncMode};

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

/// A committed `(partition, vid) -> blob` table: partition `p` holds
/// `rows(p)` rows whose blobs are `len(p, vid)` bytes long.
fn table(
    db: &Database,
    name: &str,
    partitions: i64,
    rows: impl Fn(i64) -> i64,
    len: impl Fn(i64, i64) -> usize,
) -> Table {
    let columns = vec![
        ColumnDef::new("partition", ValueType::Integer),
        ColumnDef::new("vid", ValueType::Integer),
        ColumnDef::new("payload", ValueType::Blob),
    ];
    let schema = TableSchema::new(name, columns, &["partition", "vid"]).unwrap();
    let mut txn = db.begin_write().unwrap();
    let t = db.create_table(&mut txn, schema).unwrap();
    for p in 0..partitions {
        for vid in 0..rows(p) {
            let blob = vec![(p + vid) as u8; len(p, vid)];
            let row = vec![Value::Integer(p), Value::Integer(vid), Value::blob(blob)];
            t.upsert(&mut txn, row).unwrap();
        }
    }
    txn.commit().unwrap();
    t
}

/// `(rows visited, row bytes seen, allocations made)` of one warm visit
/// of `partition`.
fn visit(db: &Database, t: &Table, partition: i64) -> (usize, usize, usize) {
    let r = db.begin_read();
    let prefix = [Value::Integer(partition)];
    let walk = || {
        let (mut rows, mut bytes) = (0, 0);
        t.visit_pk_prefix(&r, &prefix, |key, row| {
            rows += 1;
            bytes += key.len() + row.len();
            Ok::<(), RelError>(())
        })
        .unwrap();
        (rows, bytes)
    };
    // Once to bring every page into the pool, once counted.
    let warmed = walk();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let counted = walk();
    COUNTED.with(|c| c.set(false));
    assert_eq!(warmed, counted);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (counted.0, counted.1, allocations)
}

#[test]
fn a_prefix_visit_allocates_a_constant_not_per_row() {
    let dir = tempfile::tempdir().unwrap();
    let opts = StoreOptions {
        sync: SyncMode::Off,
        ..Default::default()
    };
    let db = Database::create(dir.path().join("db"), opts).unwrap();

    // Inline rows: partition 1 holds 1 000 of them, partition 2 four
    // times as many (and four times the leaves), partition 4 200.
    let inline = table(
        &db,
        "inline",
        5,
        |p| [1000, 1000, 4000, 1000, 200][p as usize],
        |_, _| 64,
    );
    let (rows_1k, bytes_1k, allocs_1k) = visit(&db, &inline, 1);
    let (rows_4k, bytes_4k, allocs_4k) = visit(&db, &inline, 2);
    assert_eq!((rows_1k, rows_4k), (1000, 4000));
    assert_eq!(bytes_4k, 4 * bytes_1k);
    assert_eq!(
        allocs_4k, allocs_1k,
        "allocations must not follow the row count"
    );
    assert!(
        allocs_1k <= 8,
        "{allocs_1k} allocations for a constant's worth of work"
    );

    // Overflow rows: every blob spills to a chain. Lengths cycle through
    // four values, so the reassembly buffer grows at most four times —
    // in the first four rows — however many rows follow.
    let lengths = [3000, 5000, 9000, 13_000];
    let spilled = table(
        &db,
        "spilled",
        3,
        |p| 50 * [1, 1, 4][p as usize],
        |_, vid| lengths[vid as usize % 4],
    );
    let (rows_50, _, allocs_50) = visit(&db, &spilled, 1);
    let (rows_200, _, allocs_200) = visit(&db, &spilled, 2);
    assert_eq!((rows_50, rows_200), (50, 200));
    assert_eq!(
        allocs_200, allocs_50,
        "allocations must not follow the row count"
    );
    assert!(
        allocs_50 <= allocs_1k + lengths.len(),
        "{allocs_50} allocations: more than the buffer's growths"
    );

    // One-page overflow rows (an SQ4 block's size at dim 128) are lent
    // from their overflow page: the reassembly buffer never grows, so
    // 200 of them cost what 200 inline rows do.
    let one_page = table(&db, "one_page", 2, |_| 200, |_, _| 2600);
    let (rows_inline, _, allocs_inline) = visit(&db, &inline, 4);
    let (rows_spilled, bytes_spilled, allocs_spilled) = visit(&db, &one_page, 1);
    assert_eq!((rows_inline, rows_spilled), (200, 200));
    assert!(bytes_spilled > 200 * 2600, "every row was seen whole");
    assert!(
        allocs_spilled <= allocs_inline,
        "{allocs_spilled} allocations for one-page rows, {allocs_inline} for inline rows"
    );
}
