//! Property-based tests: the B+tree against a `BTreeMap` model under
//! random operation sequences (including commit/reopen boundaries), the
//! cursor's borrowed walk against its owning iterator, and WAL recovery
//! returning exactly the committed prefix.

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;

use micronn_storage::page::page_type;
use micronn_storage::{BTree, PageRead, StorageError, Store, StoreOptions, SyncMode};

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    Scan,
    Commit,
    Reopen,
    Checkpoint,
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small key universe so operations collide often.
    (0u32..400).prop_map(|i| format!("k{i:05}").into_bytes())
}

fn val_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Inline-sized values.
        proptest::collection::vec(any::<u8>(), 0..64),
        // Occasional overflow-sized values.
        proptest::collection::vec(any::<u8>(), 2000..4000),
    ]
}

/// Inline values, single-page overflow chains and chains of several
/// pages, mixed.
fn mixed_val_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        6 => proptest::collection::vec(any::<u8>(), 0..64),
        2 => proptest::collection::vec(any::<u8>(), 2000..4000),
        1 => proptest::collection::vec(any::<u8>(), 9000..14000),
    ]
}

fn bound_strategy() -> impl Strategy<Value = Bound<Vec<u8>>> {
    prop_oneof![
        1 => Just(Bound::Unbounded),
        2 => key_strategy().prop_map(Bound::Included),
        2 => key_strategy().prop_map(Bound::Excluded),
    ]
}

/// The `(key, value)` sequence of the borrowed walk over `[start, end]`.
fn borrowed_walk<R: PageRead>(
    tree: &BTree,
    r: &R,
    start: &Bound<Vec<u8>>,
    end: &Bound<Vec<u8>>,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut cursor = tree.range(r, start.clone(), end.clone()).unwrap();
    let mut seen = Vec::new();
    while let Some(kv) = cursor.next_with(|k, v| (k.to_vec(), v.to_vec())).unwrap() {
        seen.push(kv);
    }
    // Over is over.
    assert!(cursor.next_with(|_, _| ()).unwrap().is_none());
    seen
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (key_strategy(), val_strategy()).prop_map(|(k, v)| Op::Insert(k, v)),
        3 => key_strategy().prop_map(Op::Delete),
        2 => key_strategy().prop_map(Op::Get),
        1 => Just(Op::Scan),
        1 => Just(Op::Commit),
        1 => Just(Op::Reopen),
        1 => Just(Op::Checkpoint),
    ]
}

fn opts() -> StoreOptions {
    StoreOptions {
        sync: SyncMode::Off,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn btree_matches_model(ops in proptest::collection::vec(op_strategy(), 1..250)) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let mut store = Store::create(&path, opts()).unwrap();
        // Model of the *committed* state and of the pending txn state.
        let mut committed: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut pending = committed.clone();

        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        txn.set_root(0, tree.root());
        txn.commit().unwrap();
        let mut txn = Some(store.begin_write().unwrap());

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let t = txn.as_mut().unwrap();
                    let old = tree.insert(t, &k, &v).unwrap();
                    prop_assert_eq!(old, pending.insert(k, v));
                }
                Op::Delete(k) => {
                    let t = txn.as_mut().unwrap();
                    let old = tree.delete(t, &k).unwrap();
                    prop_assert_eq!(old, pending.remove(&k));
                }
                Op::Get(k) => {
                    let t = txn.as_ref().unwrap();
                    prop_assert_eq!(tree.get(t, &k).unwrap(), pending.get(&k).cloned());
                }
                Op::Scan => {
                    let t = txn.as_ref().unwrap();
                    let got: Vec<_> = tree
                        .scan_all(t)
                        .unwrap()
                        .map(|kv| kv.unwrap())
                        .collect();
                    let want: Vec<_> = pending
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                Op::Commit => {
                    txn.take().unwrap().commit().unwrap();
                    committed = pending.clone();
                    txn = Some(store.begin_write().unwrap());
                }
                Op::Reopen => {
                    // Abandon the open txn (rollback), drop every
                    // handle, and reopen from disk: only committed
                    // state survives.
                    drop(txn.take());
                    pending = committed.clone();
                    drop(store);
                    store = Store::open(&path, opts()).unwrap();
                    txn = Some(store.begin_write().unwrap());
                    // The tree root is stable; verify via header slot.
                    prop_assert_eq!(txn.as_ref().unwrap().root(0), tree.root());
                }
                Op::Checkpoint => {
                    // Roll back the open txn first so the checkpoint
                    // can run against a quiescent store.
                    drop(txn.take());
                    pending = committed.clone();
                    store.checkpoint().unwrap();
                    txn = Some(store.begin_write().unwrap());
                }
            }
        }
        // Final full validation against the model.
        let t = txn.as_ref().unwrap();
        let got: Vec<_> = tree.scan_all(t).unwrap().map(|kv| kv.unwrap()).collect();
        let want: Vec<_> = pending.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn snapshots_are_immutable_under_later_writes(
        initial in proptest::collection::btree_map(key_strategy(), val_strategy(), 1..40),
        later in proptest::collection::vec((key_strategy(), val_strategy()), 1..40),
    ) {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        for (k, v) in &initial {
            tree.insert(&mut txn, k, v).unwrap();
        }
        txn.commit().unwrap();

        let snapshot_reader = store.begin_read();
        // Mutate heavily after the snapshot.
        let mut txn = store.begin_write().unwrap();
        for (k, v) in &later {
            tree.insert(&mut txn, k, v).unwrap();
        }
        for k in initial.keys().take(initial.len() / 2) {
            tree.delete(&mut txn, k).unwrap();
        }
        txn.commit().unwrap();

        // The old reader still sees exactly the initial state.
        let got: Vec<_> = tree
            .scan_all(&snapshot_reader)
            .unwrap()
            .map(|kv| kv.unwrap())
            .collect();
        let want: Vec<_> = initial.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn borrowed_walk_yields_the_iterators_sequence(
        initial in proptest::collection::btree_map(key_strategy(), mixed_val_strategy(), 0..120),
        later in proptest::collection::vec((key_strategy(), mixed_val_strategy()), 1..40),
        bounds in proptest::collection::vec((bound_strategy(), bound_strategy()), 1..6),
    ) {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        // An empty tree walks to nothing, both ways.
        prop_assert!(borrowed_walk(&tree, &txn, &Bound::Unbounded, &Bound::Unbounded).is_empty());
        prop_assert_eq!(tree.scan_all(&txn).unwrap().count(), 0);
        for (k, v) in &initial {
            tree.insert(&mut txn, k, v).unwrap();
        }
        txn.commit().unwrap();

        // The pinned snapshot is walked only after a later commit has
        // rewritten and removed pages under it.
        let pinned = store.begin_read();
        let mut txn = store.begin_write().unwrap();
        for (k, v) in &later {
            tree.insert(&mut txn, k, v).unwrap();
        }
        for k in initial.keys().take(initial.len() / 2) {
            tree.delete(&mut txn, k).unwrap();
        }
        txn.commit().unwrap();
        let current = store.begin_read();

        let whole = (Bound::Unbounded, Bound::Unbounded);
        for (start, end) in bounds.iter().chain([&whole]) {
            for r in [&pinned, &current] {
                let owned: Vec<_> = tree
                    .range(r, start.clone(), end.clone())
                    .unwrap()
                    .map(|kv| kv.unwrap())
                    .collect();
                prop_assert_eq!(&borrowed_walk(&tree, r, start, end), &owned);
            }
            // And the sequence is the model's, at the pinned snapshot.
            let in_range = |k: &&Vec<u8>| {
                let after_start = match start {
                    Bound::Unbounded => true,
                    Bound::Included(s) => *k >= s,
                    Bound::Excluded(s) => *k > s,
                };
                let before_end = match end {
                    Bound::Unbounded => true,
                    Bound::Included(e) => *k <= e,
                    Bound::Excluded(e) => *k < e,
                };
                after_start && before_end
            };
            let want: Vec<_> = initial
                .iter()
                .filter(|(k, _)| in_range(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            prop_assert_eq!(borrowed_walk(&tree, &pinned, start, end), want);
        }
    }

    #[test]
    fn recovery_preserves_committed_prefix(
        batches in proptest::collection::vec(
            proptest::collection::vec((key_strategy(), val_strategy()), 1..10),
            1..8,
        ),
        crash_after in 0usize..8,
    ) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let tree_root;
        {
            let store = Store::create(&path, opts()).unwrap();
            let mut txn = store.begin_write().unwrap();
            let tree = BTree::create(&mut txn).unwrap();
            tree_root = tree.root();
            txn.set_root(0, tree_root);
            txn.commit().unwrap();
            let commit_upto = crash_after.min(batches.len());
            for (i, batch) in batches.iter().enumerate() {
                let mut txn = store.begin_write().unwrap();
                for (k, v) in batch {
                    tree.insert(&mut txn, k, v).unwrap();
                }
                if i < commit_upto {
                    txn.commit().unwrap();
                    for (k, v) in batch {
                        model.insert(k.clone(), v.clone());
                    }
                } else {
                    drop(txn); // "crash" before commit
                    break;
                }
            }
            // Store dropped without checkpoint: recovery must replay
            // the WAL on reopen.
        }
        let store = Store::open(&path, opts()).unwrap();
        let r = store.begin_read();
        let tree = BTree::open(r.root(0));
        prop_assert_eq!(tree.root(), tree_root);
        let got: Vec<_> = tree.scan_all(&r).unwrap().map(|kv| kv.unwrap()).collect();
        let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(got, want);
    }
}

/// A corrupt overflow chain surfaces as one `Err`, after which the
/// cursor — either form of it — yields nothing more. (What a failing
/// closure does to a walk is its caller's loop to decide:
/// `rel::Table::visit_pk_prefix` has that test.)
#[test]
fn a_corrupt_overflow_chain_surfaces_once_and_ends_the_walk() {
    let dir = tempfile::tempdir().unwrap();
    let store = Store::create(dir.path().join("db"), opts()).unwrap();
    let mut txn = store.begin_write().unwrap();
    let tree = BTree::create(&mut txn).unwrap();
    for i in 0..40u32 {
        let len = if i == 25 { 9000 } else { 20 };
        tree.insert(&mut txn, format!("k{i:05}").as_bytes(), &vec![i as u8; len])
            .unwrap();
    }

    // Break the middle of key 25's three-page chain: zero the chunk
    // length of its second overflow page.
    let chain: Vec<u32> = (1..txn.page_count())
        .filter(|&id| txn.page(id).unwrap().page_type() == page_type::OVERFLOW)
        .collect();
    assert_eq!(chain.len(), 3, "9000 bytes spill to three overflow pages");
    txn.page_mut(chain[1]).unwrap().put_u16(2, 0);

    let mut cursor = tree.scan_all(&txn).unwrap();
    let mut seen = 0;
    let err = loop {
        match cursor.next_with(|_, _| ()) {
            Ok(Some(())) => seen += 1,
            Ok(None) => panic!("the corrupt chain went unnoticed"),
            Err(e) => break e,
        }
    };
    assert_eq!(seen, 25, "rows before the corrupt one are visited");
    assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    assert!(cursor.next_with(|_, _| ()).unwrap().is_none());

    let outcomes: Vec<bool> = tree.scan_all(&txn).unwrap().map(|kv| kv.is_ok()).collect();
    assert_eq!(outcomes.len(), 26, "25 rows, one error, then nothing");
    assert!(outcomes[..25].iter().all(|ok| *ok) && !outcomes[25]);
}
