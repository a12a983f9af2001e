//! Property-based tests: the B+tree against a `BTreeMap` model under
//! random operation sequences (including commit/reopen boundaries) and
//! under interleaved insertion runs, in-place leaf edits against the
//! rewrite they replace, the separator contract, the cursor's borrowed
//! walk and its lending visit against its owning iterator (cold and
//! warm, stopped part-way by a failing closure), and WAL recovery returning exactly
//! the committed prefix. Beside them, sharing their separator walk, the
//! deterministic fill-factor contract of the split rule per insert
//! order.

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;

use micronn_storage::btree::node::{self, LeafNode, OwnedVal};
use micronn_storage::page::page_type;
use micronn_storage::{
    BTree, PageData, PageRead, StorageError, Store, StoreOptions, SyncMode, WriteTxn, PAGE_SIZE,
};

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

/// Keys of 1 to 40 bytes and, now and then, a few hundred, over a
/// small alphabet, so bounds drawn the same way fall between, on and
/// around stored keys.
fn mixed_key_strategy() -> impl Strategy<Value = Vec<u8>> {
    let bytes = |len| proptest::collection::vec(0u8..4, len);
    prop_oneof![8 => bytes(1..40), 1 => bytes(200..600)]
}

fn mixed_bound_strategy() -> impl Strategy<Value = Bound<Vec<u8>>> {
    prop_oneof![
        1 => Just(Bound::Unbounded),
        2 => mixed_key_strategy().prop_map(Bound::Included),
        2 => mixed_key_strategy().prop_map(Bound::Excluded),
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

/// One edit of a single leaf page: the selector picks the cell among
/// those present.
#[derive(Debug, Clone)]
enum LeafEdit {
    Insert(Vec<u8>, OwnedVal),
    Replace(usize, OwnedVal),
    Remove(usize),
}

/// Keys of every length a tree accepts, drawn from a small universe so
/// inserts collide with cells already present.
fn leaf_key_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        0u16..48,
        prop_oneof![6 => 1usize..24, 1 => 1000usize..=node::MAX_KEY_LEN],
    )
        .prop_map(|(id, len)| (0..len).map(|j| (id as usize * 31 + j * 7) as u8).collect())
}

fn leaf_val_strategy() -> impl Strategy<Value = OwnedVal> {
    prop_oneof![
        6 => proptest::collection::vec(any::<u8>(), 0..120).prop_map(OwnedVal::Inline),
        2 => proptest::collection::vec(any::<u8>(), 400..900).prop_map(OwnedVal::Inline),
        2 => (1u32..1_000_000, 1u32..50_000)
            .prop_map(|(total, head)| OwnedVal::Overflow { total, head }),
    ]
}

fn leaf_edit_strategy() -> impl Strategy<Value = LeafEdit> {
    prop_oneof![
        5 => (leaf_key_strategy(), leaf_val_strategy()).prop_map(|(k, v)| LeafEdit::Insert(k, v)),
        3 => (any::<usize>(), leaf_val_strategy()).prop_map(|(i, v)| LeafEdit::Replace(i, v)),
        3 => any::<usize>().prop_map(LeafEdit::Remove),
    ]
}

/// What `BTree::insert` does to a value too large for an inline cell.
fn storable(key: &[u8], val: OwnedVal) -> OwnedVal {
    match val {
        OwnedVal::Inline(v) if 2 + 5 + key.len() + v.len() > node::MAX_INLINE_CELL => {
            OwnedVal::Overflow {
                total: v.len() as u32,
                head: 7,
            }
        }
        other => other,
    }
}

/// The page as the rewrite path would lay the same cells out.
fn rewritten(cells: &[(Vec<u8>, OwnedVal)]) -> PageData {
    let mut p = PageData::zeroed();
    LeafNode {
        cells: cells.to_vec(),
        right_sibling: 9,
    }
    .write(&mut p);
    p
}

/// Every byte of the leaf outside its header, its pointer array and its
/// cells is zero. (Cell `i`'s offset is the `u16` at `16 + 2 * i`.)
fn dead_bytes_are_zero(p: &PageData, cells: &[(Vec<u8>, OwnedVal)]) -> bool {
    let mut live = vec![false; PAGE_SIZE];
    live[..16 + 2 * cells.len()].fill(true);
    for (i, (k, v)) in cells.iter().enumerate() {
        let at = p.get_u16(16 + 2 * i) as usize;
        live[at..at + v.cell_bytes(k.len()) - 2].fill(true);
    }
    p.iter().zip(live).all(|(&b, live)| live || b == 0)
}

/// Walks the subtree under `id`, checking each separator against the
/// keys either side of it — `max(left) <= s < min(right)`, and `s` no
/// longer than the (here equally long) keys it separates — and returns
/// the subtree's `(min, max)` key.
fn check_separators<R: PageRead>(r: &R, id: u32) -> (Vec<u8>, Vec<u8>) {
    let p = r.page(id).unwrap();
    let n = node::ncells(&p);
    if p.page_type() == page_type::BTREE_LEAF {
        return (
            node::leaf_key(&p, 0).to_vec(),
            node::leaf_key(&p, n - 1).to_vec(),
        );
    }
    let mut bounds: Vec<_> = (0..n)
        .map(|i| check_separators(r, node::interior_child(&p, i)))
        .collect();
    bounds.push(check_separators(r, node::right_ptr(&p)));
    for i in 0..n {
        let sep = node::interior_key(&p, i);
        assert!(bounds[i].1.as_slice() <= sep && sep < bounds[i + 1].0.as_slice());
        assert!(sep.len() <= bounds[i + 1].0.len());
    }
    (bounds[0].0.clone(), bounds[n].1.clone())
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

    /// In-place leaf edits leave the page the rewrite would: the same
    /// cells, a page `validate` accepts, zeroes wherever no cell lives —
    /// and an edit the gap cannot take leaves the page alone.
    #[test]
    fn leaf_edits_in_place_equal_a_rewrite(
        edits in proptest::collection::vec(leaf_edit_strategy(), 1..120),
    ) {
        let mut model: Vec<(Vec<u8>, OwnedVal)> = Vec::new();
        let mut page = rewritten(&model);
        for edit in edits {
            let before = page.clone();
            let mut next = model.clone();
            let fitted = match edit {
                LeafEdit::Insert(key, val) => match node::leaf_search(&page, &key) {
                    Ok(i) => {
                        next[i].1 = storable(&key, val);
                        node::leaf_replace_at(&mut page, i, next[i].1.as_ref())
                    }
                    Err(i) => {
                        let val = storable(&key, val);
                        next.insert(i, (key, val));
                        node::leaf_insert_at(&mut page, i, &next[i].0, next[i].1.as_ref())
                    }
                },
                LeafEdit::Replace(..) | LeafEdit::Remove(_) if model.is_empty() => continue,
                LeafEdit::Replace(pick, val) => {
                    let i = pick % model.len();
                    next[i].1 = storable(&next[i].0, val);
                    node::leaf_replace_at(&mut page, i, next[i].1.as_ref())
                }
                LeafEdit::Remove(pick) => {
                    let i = pick % model.len();
                    next.remove(i);
                    node::leaf_remove_at(&mut page, i);
                    true
                }
            };
            if !fitted {
                // The tree's fallback: rewrite (compacting the holes)
                // when the cells fit a page, else split — not modelled.
                prop_assert!(page == before, "a refused edit touched the page");
                let node = LeafNode { cells: next.clone(), right_sibling: 9 };
                if !node.fits() {
                    continue;
                }
                node.write(&mut page);
            }
            model = next;
            prop_assert!(node::validate(&page, 1).is_ok());
            prop_assert_eq!(&LeafNode::parse(&page).cells, &model);
            prop_assert_eq!(&LeafNode::parse(&rewritten(&model)).cells, &model);
            prop_assert_eq!(node::right_ptr(&page), 9);
            let used: usize = model.iter().map(|(k, v)| v.cell_bytes(k.len())).sum();
            prop_assert_eq!(node::leaf_used_bytes(&page), used);
            prop_assert!(dead_bytes_are_zero(&page, &model));
        }
    }

    /// `left_max <= s < right_min`, and `s` is a proper prefix of
    /// `right_min` — so never longer than it — unless none qualifies,
    /// when it is `left_max` itself.
    #[test]
    fn separator_bounds_both_sides(
        a in proptest::collection::vec(0u8..4, 0..12),
        mut b in proptest::collection::vec(0u8..4, 0..12),
    ) {
        if a == b {
            b.push(0);
        }
        let (left_max, right_min) = if a < b { (a, b) } else { (b, a) };
        let s = node::separator(&left_max, &right_min);
        prop_assert!(left_max.as_slice() <= s && s < right_min.as_slice());
        let proper_prefix = s.len() < right_min.len() && right_min.starts_with(s);
        prop_assert!(proper_prefix || s == left_max.as_slice());
        if !proper_prefix {
            // No shorter prefix of `right_min` reaches `left_max`.
            prop_assert!(right_min[..right_min.len() - 1] < left_max[..]);
        }
    }

    /// Ascending runs interleaved in a random pattern — what a rebuild
    /// or a delta flush feeds the `(partition, vid)` tree — against the
    /// model: point reads, scans, prefix scans, separators, and the
    /// same again after deleting a random half.
    #[test]
    fn interleaved_runs_match_model(
        groups in 1usize..12,
        value_len in prop_oneof![Just(24usize), Just(530usize)],
        picks in proptest::collection::vec((any::<usize>(), any::<bool>()), 200..1200),
    ) {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        let key = |g: usize, seq: u32| {
            let mut k = vec![b'g', g as u8];
            k.extend_from_slice(&seq.to_be_bytes());
            k
        };
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut next_seq = vec![0u32; groups];
        for &(pick, _) in &picks {
            let g = pick % groups;
            let (k, v) = (key(g, next_seq[g]), vec![pick as u8; value_len]);
            next_seq[g] += 1;
            prop_assert_eq!(tree.insert(&mut txn, &k, &v).unwrap(), None);
            model.insert(k, v);
        }
        let check = |txn: &micronn_storage::WriteTxn, model: &BTreeMap<Vec<u8>, Vec<u8>>| {
            let got: Vec<_> = tree.scan_all(txn).unwrap().map(|kv| kv.unwrap()).collect();
            let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(got, want);
            for g in 0..groups {
                let prefix = [b'g', g as u8];
                let got = tree.scan_prefix(txn, &prefix).unwrap().count();
                assert_eq!(got, model.keys().filter(|k| k.starts_with(&prefix)).count());
            }
            for (k, v) in model.iter().step_by(5) {
                assert_eq!(tree.get(txn, k).unwrap().as_ref(), Some(v));
            }
            if !model.is_empty() {
                check_separators(txn, tree.root());
            }
            let occ = tree.occupancy(txn).unwrap();
            let cell = 2 + 5 + 6 + value_len;
            assert_eq!(occ.leaf_used_bytes, (model.len() * cell) as u64);
        };
        check(&txn, &model);
        let doomed: Vec<Vec<u8>> = (model.keys().zip(&picks))
            .filter(|(_, (_, doomed))| *doomed)
            .map(|(k, _)| k.clone())
            .collect();
        for k in doomed {
            prop_assert_eq!(tree.delete(&mut txn, &k).unwrap(), model.remove(&k));
        }
        check(&txn, &model);
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
    fn lending_visit_yields_the_iterators_pairs(
        rows in proptest::collection::btree_map(mixed_key_strategy(), mixed_val_strategy(), 0..300),
        bounds in proptest::collection::vec((mixed_bound_strategy(), mixed_bound_strategy()), 1..6),
        stop in 1usize..200,
    ) {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        for (k, v) in &rows {
            tree.insert(&mut txn, k, v).unwrap();
        }
        txn.commit().unwrap();
        store.checkpoint().unwrap();

        let whole = (Bound::Unbounded, Bound::Unbounded);
        for (start, end) in bounds.iter().chain([&whole]) {
            // Cold, then warm: leaves read along with a miss, then
            // handed over along with a hit.
            store.purge_cache();
            for _ in 0..2 {
                let r = store.begin_read();
                let owned: Vec<_> = tree
                    .range(&r, start.clone(), end.clone())
                    .unwrap()
                    .map(|kv| kv.unwrap())
                    .collect();
                let mut lent = Vec::new();
                let mut cursor = tree.range(&r, start.clone(), end.clone()).unwrap();
                cursor
                    .visit(|k, v| {
                        lent.push((k.to_vec(), v.to_vec()));
                        Ok::<(), StorageError>(())
                    })
                    .unwrap();
                prop_assert_eq!(&lent, &owned);
                prop_assert!(cursor.next_with(|_, _| ()).unwrap().is_none());

                // A failing closure ends the walk at its row: the error
                // comes back as is, and nothing is lent after it.
                let mut cursor = tree.range(&r, start.clone(), end.clone()).unwrap();
                let mut calls = 0;
                let refused = cursor.visit(|_, _| {
                    calls += 1;
                    match calls == stop {
                        true => Err(StorageError::Corrupt(format!("refused at {calls}"))),
                        false => Ok(()),
                    }
                });
                if stop <= owned.len() {
                    let msg = format!("refused at {stop}");
                    prop_assert!(matches!(refused, Err(StorageError::Corrupt(m)) if m == msg));
                    prop_assert_eq!(calls, stop);
                    let mut more = 0;
                    cursor.visit(|_, _| { more += 1; Ok::<(), StorageError>(()) }).unwrap();
                    prop_assert_eq!(more, 0, "lent after the error");
                    prop_assert!(cursor.next_with(|_, _| ()).unwrap().is_none());
                } else {
                    prop_assert!(refused.is_ok());
                    prop_assert_eq!(calls, owned.len());
                }
            }
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

/// The key of long-keyed filler row `i`: 600 shared bytes, then `i`,
/// so separators stay ~600 bytes and an interior page holds about six.
fn wide_key(i: usize) -> Vec<u8> {
    let mut key = vec![7u8; 600];
    key.extend_from_slice(&(i as u32).to_be_bytes());
    key
}

/// Filler row `i`'s value: inline, or now and then spilled to a
/// one-page or a three-page overflow chain.
fn wide_val(i: usize) -> Vec<u8> {
    let len = match i % 11 {
        0 => 2600,
        5 => 9000,
        _ => 24,
    };
    (0..len).map(|j| (i * 31 + j) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A many-key lookup (`PointReader::get_many`) hands over, in the
    /// order asked, exactly what one `BTree::get` per key returns: keys
    /// of mixed length, absent, repeated and unsorted, more than one
    /// batch of them; values inline and spilled to one-page and
    /// multi-page chains; with the filler rows, a tree of more interior
    /// pages than a reader pins. A commit after the reader's snapshot
    /// changes nothing it hands over, and a reader at the new snapshot
    /// sees the commit.
    #[test]
    fn many_key_lookup_agrees_with_get(
        stored in proptest::collection::btree_map(mixed_key_strategy(), mixed_val_strategy(), 0..60),
        wide in prop_oneof![1 => Just(0usize), 1 => 300usize..420],
        // (what, index, key): a stored key, a filler key or any key.
        probes in proptest::collection::vec((0u8..3, 0usize..100_000, mixed_key_strategy()), 0..200),
        later in proptest::collection::vec((mixed_key_strategy(), mixed_val_strategy()), 0..30),
    ) {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        let mut model = stored.clone();
        for i in 0..wide {
            model.insert(wide_key(i), wide_val(i));
        }
        for (k, v) in &model {
            tree.insert(&mut txn, k, v).unwrap();
        }
        txn.commit().unwrap();

        let before = store.begin_read();
        if wide > 0 {
            let interiors = tree.occupancy(&before).unwrap().interior_pages;
            prop_assert!(interiors > 8, "{} interior pages", interiors);
        }
        let stored_keys: Vec<&Vec<u8>> = stored.keys().collect();
        let keys: Vec<Vec<u8>> = probes
            .iter()
            .map(|(what, i, any)| match what {
                0 if !stored_keys.is_empty() => stored_keys[i % stored_keys.len()].clone(),
                1 if wide > 0 => wide_key(i % wide),
                _ => any.clone(),
            })
            .collect();
        let many = |reader: &mut micronn_storage::PointReader<'_, _>| {
            let mut got = Vec::new();
            reader
                .get_many(keys.len(), |i| &keys[i], |i, v| {
                    got.push((i, v.to_vec()));
                    Ok::<_, StorageError>(())
                })
                .unwrap();
            got
        };
        let gets = |r: &_| -> Vec<(usize, Vec<u8>)> {
            keys.iter()
                .enumerate()
                .filter_map(|(i, k)| tree.get(r, k).unwrap().map(|v| (i, v)))
                .collect()
        };
        let want_before = gets(&before);
        let from_model: Vec<(usize, Vec<u8>)> = keys
            .iter()
            .enumerate()
            .filter_map(|(i, k)| model.get(k).map(|v| (i, v.clone())))
            .collect();
        prop_assert_eq!(&want_before, &from_model);
        let mut reader = tree.point_reader(&before);
        prop_assert_eq!(&many(&mut reader), &want_before);

        // A commit after the snapshot: the reader, its interiors pinned
        // and its scratch warm, still hands over the snapshot's values.
        let mut txn = store.begin_write().unwrap();
        for (k, v) in &later {
            tree.insert(&mut txn, k, v).unwrap();
        }
        for k in stored_keys.iter().step_by(2) {
            tree.delete(&mut txn, k).unwrap();
        }
        txn.commit().unwrap();
        prop_assert_eq!(&many(&mut reader), &want_before);
        let after = store.begin_read();
        prop_assert_eq!(many(&mut tree.point_reader(&after)), gets(&after));
    }
}

/// Builds 40 rows whose row 25 spills `len` bytes to an overflow chain,
/// lets `corrupt` damage that chain (given its pages in order), and
/// checks the damage surfaces as one `Err(Corrupt)` after the 25 rows
/// before it, after which the cursor — either form of it — yields
/// nothing more.
fn assert_corrupt_chain_surfaces_once(len: usize, corrupt: impl Fn(&mut WriteTxn, &[u32])) {
    let dir = tempfile::tempdir().unwrap();
    let store = Store::create(dir.path().join("db"), opts()).unwrap();
    let mut txn = store.begin_write().unwrap();
    let tree = BTree::create(&mut txn).unwrap();
    for i in 0..40u32 {
        let len = if i == 25 { len } else { 20 };
        tree.insert(&mut txn, format!("k{i:05}").as_bytes(), &vec![i as u8; len])
            .unwrap();
    }
    let chain: Vec<u32> = (1..txn.page_count())
        .filter(|&id| txn.page(id).unwrap().page_type() == page_type::OVERFLOW)
        .collect();
    assert_eq!(
        chain.len(),
        len.div_ceil(4088),
        "{len} bytes of overflow pages"
    );
    corrupt(&mut txn, &chain);

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
    let mut reader = tree.point_reader(&txn);
    let got = reader.get(b"k00025", |_| ());
    assert!(matches!(got, Err(StorageError::Corrupt(_))), "{got:?}");
}

/// A corrupt overflow chain surfaces as one `Err`, after which the
/// cursor yields nothing more — for a multi-page chain reassembled in
/// scratch, and for every way a one-page chunk, which the walk lends in
/// place, can lie about itself. (A failing closure ends a walk the same
/// way: `lending_visit_yields_the_iterators_pairs`.)
#[test]
fn a_corrupt_overflow_chain_surfaces_once_and_ends_the_walk() {
    // The middle of a three-page chain: chunk length zeroed.
    assert_corrupt_chain_surfaces_once(9000, |txn, chain| {
        txn.page_mut(chain[1]).unwrap().put_u16(2, 0);
    });
    let one_page = 2600;
    let set_len = |len: u16| {
        move |txn: &mut WriteTxn, chain: &[u32]| txn.page_mut(chain[0]).unwrap().put_u16(2, len)
    };
    // A one-page chunk of length 0, over the page's capacity, or
    // short / long of the value's total.
    assert_corrupt_chain_surfaces_once(one_page, set_len(0));
    assert_corrupt_chain_surfaces_once(one_page, set_len(4089));
    assert_corrupt_chain_surfaces_once(one_page, set_len(one_page as u16 - 1));
    assert_corrupt_chain_surfaces_once(one_page, set_len(one_page as u16 + 1));
    // A one-page chain that claims a next page: itself.
    assert_corrupt_chain_surfaces_once(one_page, |txn, chain| {
        txn.page_mut(chain[0]).unwrap().put_u32(4, chain[0]);
    });
    // A one-page chain whose page is not an overflow page.
    assert_corrupt_chain_surfaces_once(one_page, |txn, chain| {
        txn.page_mut(chain[0]).unwrap()[0] = page_type::BTREE_LEAF;
    });
}

/// A `(group, seq)` key shaped like the relational layer's
/// `(partition, vid)` primary keys: two tagged 16-byte numerics.
fn pair_key(group: u64, seq: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(34);
    for v in [group, seq] {
        k.push(0x20);
        k.extend_from_slice(&((v as f64).to_bits() | 1 << 63).to_be_bytes());
        k.extend_from_slice(&(v ^ 1 << 63).to_be_bytes());
    }
    k
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The five insert orders of the fill-factor tests, `n` keys each.
fn insert_order(order: &str, n: u64) -> Vec<Vec<u8>> {
    match order {
        "ascending" => (0..n).map(|i| pair_key(0, i)).collect(),
        "descending" => (0..n).rev().map(|i| pair_key(0, i)).collect(),
        // 200 ascending runs, interleaved one key at a time: the
        // order in which a rebuild or a delta flush relocates rows.
        "grouped" => (0..n / 200)
            .flat_map(|s| (0..200).map(move |g| pair_key(g, s)))
            .collect(),
        "random" => {
            let mut ids: Vec<u64> = (0..n).collect();
            let mut rng = 0x9E37_79B9_7F4A_7C15;
            for i in (1..ids.len()).rev() {
                ids.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
            }
            ids.into_iter().map(|i| pair_key(0, i)).collect()
        }
        other => panic!("unknown order {other}"),
    }
}

/// Everything the tree holds equals the model: point reads, the
/// full scan and one prefix scan per group.
fn assert_matches_model(
    tree: &BTree,
    txn: &micronn_storage::WriteTxn,
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    what: &str,
) {
    let scanned: Vec<_> = tree.scan_all(txn).unwrap().map(|kv| kv.unwrap()).collect();
    let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(scanned, expected, "{what}: full scan");
    for (k, v) in model.iter().step_by(7) {
        assert_eq!(tree.get(txn, k).unwrap().as_ref(), Some(v), "{what}: get");
    }
    for group in [0u64, 1, 57, 199] {
        let prefix = &pair_key(group, 0)[..17];
        let got = tree.scan_prefix(txn, prefix).unwrap().count();
        let want = model.keys().filter(|k| k.starts_with(prefix)).count();
        assert_eq!(got, want, "{what}: prefix scan of group {group}");
    }
}

/// Fill-factor contract of the split rule, per insert order and
/// value size: the tree equals the model before and after deleting
/// a random half, every separator bounds its children, and leaf
/// fill is at least `floor`. The floors for runs are the point of
/// the rule; the others are what the byte-balanced split this tree
/// used to make on every overflow measures on the same keys
/// (descending .5598/.4940, random .710/.700, grouped 24-byte .535),
/// less .02 where run detection or short separators can cost fill.
#[test]
fn fill_factor_by_insert_order() {
    let cases = [
        ("ascending", 530, 0.90),
        ("ascending", 24, 0.90),
        ("grouped", 530, 0.90),
        ("grouped", 24, 0.515),
        ("random", 530, 0.69),
        ("random", 24, 0.68),
        ("descending", 530, 0.559),
        ("descending", 24, 0.493),
    ];
    for (order, value_len, floor) in cases {
        let what = format!("{order}/{value_len}");
        let dir = tempfile::tempdir().unwrap();
        let store = Store::create(dir.path().join("db"), opts()).unwrap();
        let mut txn = store.begin_write().unwrap();
        let tree = BTree::create(&mut txn).unwrap();
        let mut model = BTreeMap::new();
        for (i, k) in insert_order(order, 20_000).into_iter().enumerate() {
            let v = vec![i as u8; value_len];
            assert_eq!(tree.insert(&mut txn, &k, &v).unwrap(), None);
            model.insert(k, v);
        }
        let occ = tree.occupancy(&txn).unwrap();
        assert!(
            occ.leaf_fill() >= floor,
            "{what}: leaf fill {:.3} below {floor} ({occ:?})",
            occ.leaf_fill()
        );
        assert_eq!(tree.count(&txn).unwrap(), model.len() as u64);
        assert_matches_model(&tree, &txn, &model, &what);
        check_separators(&txn, tree.root());

        let mut rng = 0x1234_5678_9ABC_DEF1;
        let doomed: Vec<Vec<u8>> = (model.keys())
            .filter(|_| xorshift(&mut rng) % 2 == 0)
            .cloned()
            .collect();
        for k in doomed {
            assert_eq!(
                tree.delete(&mut txn, &k).unwrap(),
                model.remove(&k),
                "{what}"
            );
        }
        assert_matches_model(&tree, &txn, &model, &format!("{what} after deletes"));
        check_separators(&txn, tree.root());
    }
}
