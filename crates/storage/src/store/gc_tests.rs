//! Version-GC tests: the commit-ordered queue against the full-map
//! sweep it replaced ([`sweep_dead`], kept as the oracle), under random and exhaustively enumerated interleavings of commits,
//! reader begins and drops, checkpoints and cache purges.
//!
//! Every step of every test ends in [`Harness::check`]: each live
//! reader (and the latest committed state) reads every page and sees
//! its snapshot's bytes, and no page has two cached versions at or
//! below the floor of the last GC pass (the sweep's post-condition).
//! Every step that triggers a pass — a reader drop that moves the
//! oldest snapshot, a checkpoint — also compares the resident key set
//! with what the sweep would have left.

use std::collections::HashMap;
use std::sync::Arc;

use micronn_telemetry::CollectingSink;
use proptest::prelude::*;

use super::{PageRead, ReadTxn, Store, StoreOptions, SyncMode, WriteTxn};
use crate::page::{page_type, PageId};
use crate::pool::{BufferPool, PoolKey};
use crate::sim::SimVfs;

/// What the model tracks of a page: `(type byte, payload byte)`.
type Cell = (u8, u8);
const FREE: Cell = (page_type::FREE, 0);

#[derive(Debug, Clone)]
enum Op {
    /// One write transaction: free a live page, rewrite the selected
    /// live pages, allocate `allocs` pages (reusing the freelist), then
    /// rewrite the first touched page `again` — under spilling that
    /// page is both spilled and dirty at commit.
    Commit {
        free: Option<usize>,
        writes: Vec<(usize, u8)>,
        allocs: usize,
        again: bool,
    },
    BeginRead,
    /// Drops the live reader at this index (modulo the live count).
    DropReader(usize),
    Checkpoint,
    Purge,
}

fn rewrite(writes: &[(usize, u8)]) -> Op {
    Op::Commit {
        free: None,
        writes: writes.to_vec(),
        allocs: 0,
        again: false,
    }
}

fn fill(txn: &mut WriteTxn, id: PageId, b: u8) -> Cell {
    let p = txn.page_mut(id).unwrap();
    p[0] = page_type::OVERFLOW; // arbitrary non-free type
    p[100] = b;
    (page_type::OVERFLOW, b)
}

/// Reads every page `view` can see (the header too, so its versions
/// are cached like any other page's) and returns pages `1..`.
fn cells(view: &impl PageRead, page_count: u32) -> Vec<Cell> {
    view.page(0).unwrap();
    (1..page_count)
        .map(|id| {
            let p = view.page(id).unwrap();
            (p[0], p[100])
        })
        .collect()
}

/// The full-map sweep the commit queue replaced, as the oracle: for
/// each page, every cached version older than the newest cached version
/// at or below `floor`.
fn sweep_dead(pool: &BufferPool, floor: u64) -> Vec<PoolKey> {
    let keys = pool.keys();
    let mut newest_le_floor: HashMap<PageId, u64> = HashMap::new();
    for &(page, version) in &keys {
        if version <= floor {
            let slot = newest_le_floor.entry(page).or_insert(version);
            *slot = (*slot).max(version);
        }
    }
    let dead =
        |(page, version): &PoolKey| newest_le_floor.get(page).is_some_and(|keep| version < keep);
    keys.into_iter().filter(dead).collect()
}

struct Harness {
    store: Store,
    sink: Arc<CollectingSink>,
    /// Latest committed content, indexed by page id (slot 0 unused).
    latest: Vec<Cell>,
    /// Live readers with the content their snapshot must show.
    readers: Vec<(ReadTxn, Vec<Cell>)>,
    /// Floor of the last GC pass.
    swept: u64,
}

impl Harness {
    /// A store holding `pages` freshly allocated pages.
    fn new(pages: usize) -> Harness {
        let opts = StoreOptions {
            sync: SyncMode::Off,
            checkpoint_after_frames: 0, // checkpoints are explicit steps
            spill_after_pages: 3,       // commits wider than this spill
            vfs: SimVfs::new().handle(),
            ..Default::default()
        };
        let sink = Arc::new(CollectingSink::new());
        opts.trace.set(Some(sink.clone()));
        let mut h = Harness {
            store: Store::create("/gc-db", opts).unwrap(),
            sink,
            latest: vec![FREE],
            readers: Vec::new(),
            swept: 0,
        };
        h.step(Op::Commit {
            free: None,
            writes: Vec::new(),
            allocs: pages,
            again: false,
        });
        h
    }

    fn pool(&self) -> &BufferPool {
        &self.store.inner.pool
    }

    /// Oldest live snapshot, capped by (and defaulting to) the
    /// committed seq: what no GC pass may exceed.
    fn floor(&self) -> u64 {
        let committed = self.store.committed_seq();
        let oldest = self.readers.iter().map(|(r, _)| r.snapshot()).min();
        oldest.map_or(committed, |o| o.min(committed))
    }

    /// The resident set the oracle leaves: everything resident now,
    /// minus the sweep's dead set when a pass at `floor` is due.
    fn resident_after_sweep(&mut self, floor: Option<u64>) -> Vec<PoolKey> {
        self.swept = floor.unwrap_or(self.swept);
        let dead = floor.map_or(Vec::new(), |f| sweep_dead(self.pool(), f));
        let mut keys = self.pool().keys();
        keys.retain(|k| !dead.contains(k));
        keys
    }

    fn step(&mut self, op: Op) {
        match op {
            Op::Commit {
                free,
                writes,
                allocs,
                again,
            } => self.commit(free, &writes, allocs, again),
            Op::BeginRead => {
                if self.readers.len() < 4 {
                    let reader = self.store.begin_read();
                    self.readers.push((reader, self.latest.clone()));
                }
            }
            Op::DropReader(i) => {
                if !self.readers.is_empty() {
                    let (reader, _) = self.readers.remove(i % self.readers.len());
                    let s = reader.snapshot();
                    let advances = self.readers.iter().all(|(r, _)| r.snapshot() > s);
                    let floor = advances.then(|| self.floor());
                    let expect = self.resident_after_sweep(floor);
                    drop(reader);
                    assert_eq!(self.pool().keys(), expect, "reader drop at {s}");
                }
            }
            Op::Checkpoint => {
                let committed = self.store.committed_seq();
                let due = self.store.wal_frames() > 0
                    && self.readers.iter().all(|(r, _)| r.snapshot() >= committed);
                let expect = self.resident_after_sweep(due.then_some(committed));
                assert_eq!(self.store.checkpoint().unwrap(), due);
                assert_eq!(self.pool().keys(), expect, "checkpoint at {committed}");
                if due {
                    assert_eq!(self.pool().gc_backlog(), 0, "a checkpoint drains the queue");
                }
            }
            Op::Purge => self.store.purge_cache(),
        }
        self.check();
    }

    fn commit(&mut self, free: Option<usize>, writes: &[(usize, u8)], allocs: usize, again: bool) {
        let mut next = self.latest.clone();
        let mut txn = self.store.begin_write().unwrap();
        let mut live: Vec<PageId> = (1..next.len() as PageId)
            .filter(|&id| next[id as usize] != FREE)
            .collect();
        if let Some(sel) = free.filter(|_| live.len() > 1) {
            let id = live.remove(sel % live.len());
            txn.free_page(id).unwrap();
            next[id as usize] = FREE;
        }
        let mut touched = Vec::new();
        for &(sel, b) in writes {
            if let Some(&id) = live.get(sel % live.len().max(1)) {
                next[id as usize] = fill(&mut txn, id, b);
                touched.push(id);
            }
        }
        for i in 0..allocs {
            let id = txn.allocate_page().unwrap();
            let cell = fill(&mut txn, id, 0x40 + i as u8);
            if id as usize == next.len() {
                next.push(cell);
            } else {
                next[id as usize] = cell;
            }
            touched.push(id);
        }
        if let Some(&id) = touched.first().filter(|_| again) {
            next[id as usize] = fill(&mut txn, id, 0xA5);
        }
        txn.commit().unwrap();
        self.latest = next;
    }

    /// Safety and completeness, after every step.
    fn check(&self) {
        // The latest state is read through a write transaction: it
        // reads at the committed seq and registers no reader, so the
        // check itself never moves the floor or triggers a pass.
        let txn = self.store.begin_write().unwrap();
        assert_eq!(cells(&txn, txn.page_count()), self.latest[1..], "latest");
        txn.rollback();
        for (reader, expect) in &self.readers {
            let s = reader.snapshot();
            assert_eq!(cells(reader, reader.page_count()), expect[1..], "at {s}");
        }
        let oldest = self.readers.iter().map(|(r, _)| r.snapshot()).min();
        assert_eq!(self.store.oldest_reader_snapshot(), oldest);
        assert!(self.swept <= self.floor());
        assert_eq!(
            sweep_dead(self.pool(), self.swept),
            vec![],
            "a page has two cached versions at or below the last floor {}",
            self.swept
        );
    }

    fn version_gc_spans(&self) -> Vec<u64> {
        let spans = self.sink.take();
        let gc = spans.iter().filter(|s| s.name == "version_gc");
        gc.map(|s| s.items).collect()
    }
}

#[test]
fn reader_drop_without_commits_does_no_gc_work() {
    let mut h = Harness::new(64);
    h.step(rewrite(&[(0, 1), (1, 2), (2, 3)]));
    // One reader drop collects what the two commits queued.
    h.step(Op::BeginRead);
    h.step(Op::DropReader(0));
    assert!(!h.pool().gc_pending());
    assert_eq!(
        h.version_gc_spans(),
        vec![3],
        "3 pages; the header is not logged, since the meta did not change"
    );

    let (before, resident) = (h.store.stats(), h.pool().keys());
    assert!(resident.len() >= 64);
    for _ in 0..1000 {
        drop(h.store.begin_read());
    }
    let delta = h.store.stats().since(&before);
    assert_eq!(delta.reader_pins, 1000);
    assert_eq!(delta.version_gc_examined, 0);
    assert_eq!(delta.version_gc_pages, 0);
    assert_eq!(h.pool().keys(), resident);
    assert_eq!(
        h.version_gc_spans(),
        vec![],
        "no span for a pass that drops nothing"
    );
}

#[test]
fn pinned_reader_holds_the_backlog_and_its_drop_drains_it() {
    const COMMITS: usize = 5;
    // Two pages; the header is not logged, since the meta did not change.
    const FRAMES: usize = 2;
    let mut h = Harness::new(4);
    h.step(Op::BeginRead);
    h.step(Op::DropReader(0));
    assert_eq!(h.pool().gc_backlog(), 0);
    h.step(Op::BeginRead); // the pin, live reader 0
    h.version_gc_spans();

    let pinned = h.store.stats();
    for i in 0..COMMITS {
        let (before, resident, backlog) = (h.store.stats(), h.pool().keys(), h.pool().gc_backlog());
        h.step(rewrite(&[(0, i as u8), (1, i as u8)]));
        // Readers above the pin come and go without moving the floor.
        h.step(Op::BeginRead);
        h.step(Op::DropReader(1));
        let frames = h.store.stats().since(&before).wal_writes as usize;
        assert_eq!(
            frames, FRAMES,
            "two pages, no header: the meta did not change"
        );
        assert!(h.pool().gc_backlog() <= backlog + frames);
        let now = h.pool().keys();
        assert!(
            resident.iter().all(|k| now.contains(k)),
            "dropped under the pin"
        );
    }
    let delta = h.store.stats().since(&pinned);
    assert_eq!((delta.version_gc_examined, delta.version_gc_pages), (0, 0));
    assert_eq!(h.pool().gc_backlog(), COMMITS * FRAMES);

    let superseded = sweep_dead(h.pool(), h.store.committed_seq()).len();
    assert_eq!(superseded, COMMITS * FRAMES);
    assert_eq!(h.version_gc_spans(), vec![]);
    h.step(Op::DropReader(0));
    let delta = h.store.stats().since(&pinned);
    assert_eq!(delta.version_gc_pages, superseded as u64);
    assert_eq!(delta.version_gc_examined, superseded as u64);
    assert_eq!(h.pool().gc_backlog(), 0);
    assert_eq!(h.version_gc_spans(), vec![superseded as u64]);
}

/// All orders of the actors' events that keep each actor's own order:
/// `left[a]` events remain for actor `a`.
fn interleavings(left: &mut [usize], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if left.iter().all(|&n| n == 0) {
        out.push(prefix.clone());
        return;
    }
    for actor in 0..left.len() {
        if left[actor] > 0 {
            left[actor] -= 1;
            prefix.push(actor);
            interleavings(left, prefix, out);
            prefix.pop();
            left[actor] += 1;
        }
    }
}

#[test]
fn every_order_of_two_readers_two_commits_and_a_checkpoint() {
    const WRITER: usize = 2;
    const CHECKPOINTER: usize = 3;
    // Readers 0 and 1 begin then drop; the writer commits twice.
    let mut orders = Vec::new();
    interleavings(&mut [2, 2, 2, 1], &mut Vec::new(), &mut orders);
    assert_eq!(orders.len(), 630);
    for order in orders {
        let mut h = Harness::new(4);
        h.step(rewrite(&[(0, 1), (1, 2)])); // garbage queued before anyone reads
        let mut live: Vec<usize> = Vec::new(); // reader actors, in `h.readers` order
        let mut commits = 0;
        for &actor in &order {
            let op = match actor {
                WRITER if commits == 0 => Op::Commit {
                    free: None,
                    writes: vec![(0, 0x11), (1, 0x12)],
                    allocs: 1,
                    again: false,
                },
                WRITER => Op::Commit {
                    free: Some(2),
                    writes: vec![(1, 0x21), (2, 0x22)],
                    allocs: 0,
                    again: true,
                },
                CHECKPOINTER => Op::Checkpoint,
                reader => match live.iter().position(|&a| a == reader) {
                    Some(at) => {
                        live.remove(at);
                        Op::DropReader(at)
                    }
                    None => {
                        live.push(reader);
                        Op::BeginRead
                    }
                },
            };
            commits += usize::from(actor == WRITER);
            h.step(op);
        }
        assert_eq!(h.store.active_readers(), 0, "{order:?}");
        // Whatever the last commits queued, the next read transaction
        // to end (the next query) collects.
        h.step(Op::BeginRead);
        h.step(Op::DropReader(0));
        assert_eq!(h.pool().gc_backlog(), 0, "{order:?}");
        assert!(!h.pool().gc_pending(), "{order:?}");
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let commit = (
        proptest::option::of(0usize..8),
        proptest::collection::vec((0usize..8, any::<u8>()), 0..6),
        0usize..3,
        any::<bool>(),
    );
    prop_oneof![
        4 => commit.prop_map(|(free, writes, allocs, again)| Op::Commit { free, writes, allocs, again }),
        3 => Just(Op::BeginRead),
        3 => (0usize..4).prop_map(Op::DropReader),
        1 => Just(Op::Checkpoint),
        1 => Just(Op::Purge),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn queue_gc_matches_the_sweep_oracle(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut h = Harness::new(4);
        for op in ops {
            h.step(op);
        }
    }
}
