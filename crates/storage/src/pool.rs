//! Bounded buffer pool (page cache) with scan-resistant eviction.
//!
//! The paper's core constraint (§2.1) is that the index "cannot be
//! buffered in memory unless it is serving an active use-case": memory
//! for cached pages must be strictly bounded and reclaimable. This pool
//! caches page images under a byte budget with a segmented,
//! scan-resistant policy in the LRU-K / CLOCK-Pro family:
//!
//! * New pages enter a **probationary** segment. A probationary page is
//!   promoted to the **protected** segment only after it is hit again
//!   by a point access — one-touch pages (the long tail of a partition
//!   sweep) never displace the hot set.
//! * Callers tag accesses with [`Access`]: `Point` for demand reads on
//!   the query path, `Scan` for bulk sequential reads (partition
//!   sweeps, checkpoints). A scan-tagged page earns its second chance
//!   only by being hit again before the probation hand reaches it, so
//!   the one-touch pages of a scan of any length go first and recycle
//!   a small probationary window instead of flushing the pool, while
//!   the pages every scan re-reads (a live delta's leaves) stay. A
//!   later point access "rescues" a scan page onto the normal
//!   promotion path.
//! * The protected segment is capped at 3/4 of the budget and evicts
//!   with CLOCK (second chance) back into probation, so even the hot
//!   set stays adaptive.
//!
//! Entries are keyed by `(page, version)`, where `version` is the WAL
//! sequence number of the frame the image came from (`0` for images
//! read from the main file since the last open). Versioned keys let
//! readers at different snapshots share one pool without ever observing
//! a page image newer than their snapshot — the cache is immutable data
//! plus an index, so no cached bytes are ever mutated in place.
//!
//! Superseded versions are collected from a **commit-ordered queue**,
//! not by sweeping the map: every commit hands the pool the keys its
//! frames replaced ([`BufferPool::note_superseded`]), and
//! [`BufferPool::gc`] pops the commits at or below the snapshot floor
//! and removes exactly those keys. The cost is proportional to the
//! garbage; with nothing due it is one atomic load. The queue holds
//! 16 bytes per WAL frame published since the floor last passed it, so
//! a long-pinned reader grows it by that much and its drop releases it.
//! Every image is cached by a live reader or writer resolving it at its
//! own snapshot, so no version is cached after its commit was popped.
//!
//! **Frames.** An evicted image that no reader still holds becomes a
//! spare frame, up to `MAX_RUN_PAGES` (16) of them, one run's worth,
//! and the next miss is read into it in place: once the pool is full,
//! a miss costs one read and no allocation (`BufferPool::take_frames`).
//! An image a reader holds is never refilled: its `Arc` is not the
//! pool's alone, so eviction just drops the pool's reference. `purge`
//! and version GC drop their frames for good.
//!
//! The pool's byte budget is the main lever behind the paper's
//! Small/Large device profiles (Figures 4, 5, 8), and `purge` implements
//! the ColdStart scenario of §4.1.4.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hash::PageMap;
use crate::page::{PageData, PageId, PAGE_SIZE};

/// Cache key: page number plus the WAL version of its image.
pub type PoolKey = (PageId, u64);

/// How a page is being touched, for admission and promotion decisions.
///
/// `Point` is the default for demand reads on the query path. `Scan`
/// marks bulk sequential access — full-partition sweeps, checkpoint
/// reads — whose pages should cycle through a probationary
/// window without displacing the protected working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Access {
    /// Demand read: eligible for promotion into the protected segment.
    #[default]
    Point,
    /// Bulk read: admitted probationary, with a second chance only once
    /// hit again; never promoted.
    Scan,
}

struct Entry {
    data: Arc<PageData>,
    /// CLOCK reference bit: set on hit, cleared on eviction scan.
    referenced: bool,
    /// True while the entry lives in the protected segment.
    protected: bool,
    /// True for scan-admitted entries that no point access has touched.
    scan: bool,
}

struct PoolInner {
    map: PageMap<PoolKey, Entry>,
    /// Probationary hand order; keys may be stale (removed from `map`
    /// or since promoted to the protected segment).
    probation: VecDeque<PoolKey>,
    /// Protected hand order; keys may be stale symmetrically.
    protected: VecDeque<PoolKey>,
    bytes: usize,
    protected_bytes: usize,
    /// Version-GC queue, ascending in commit seq: for each commit, the
    /// keys its frames superseded. A key becomes unreachable once the
    /// snapshot floor reaches its commit.
    superseded: VecDeque<(u64, Vec<PoolKey>)>,
    /// Evicted images held by the pool alone, for the next misses to
    /// refill: at most [`MAX_RUN_PAGES`].
    spare: Vec<Arc<PageData>>,
}

/// A byte-bounded page cache shared by all transactions of a store.
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    capacity: usize,
    evictions: AtomicU64,
    /// Commit seq at the head of the GC queue, [`GC_IDLE`] when empty.
    /// Written under the pool mutex; read without it as a hint only
    /// (`Relaxed`: it publishes no data, and a stale value merely
    /// leaves the garbage to the next GC trigger).
    gc_head: AtomicU64,
}

/// `gc_head` of an empty GC queue: above every commit seq.
const GC_IDLE: u64 = u64::MAX;

/// Accounted size of one cached page (image + bookkeeping estimate).
const ENTRY_BYTES: usize = PAGE_SIZE + 64;

/// Longest main-file read a scan miss makes, in pages (the leaf that
/// missed plus up to fifteen leaves the scan walks onto after it), and
/// so the most spare frames the pool keeps.
pub(crate) const MAX_RUN_PAGES: usize = 16;

/// Frames for one run's pages, filled by [`BufferPool::take_frames`].
pub(crate) type Frames = [Option<Arc<PageData>>; MAX_RUN_PAGES];

impl BufferPool {
    /// Creates a pool holding at most `capacity_bytes` of page images.
    /// A capacity of `0` disables caching entirely (every read goes to
    /// disk), which is useful for worst-case I/O measurements.
    pub fn new(capacity_bytes: usize) -> Self {
        BufferPool {
            inner: Mutex::new(PoolInner {
                map: PageMap::default(),
                probation: VecDeque::new(),
                protected: VecDeque::new(),
                bytes: 0,
                protected_bytes: 0,
                superseded: VecDeque::new(),
                spare: Vec::new(),
            }),
            capacity: capacity_bytes,
            evictions: AtomicU64::new(0),
            gc_head: AtomicU64::new(GC_IDLE),
        }
    }

    /// Protected segment cap: 3/4 of the budget, leaving a quarter as
    /// the probationary window scans recycle through.
    fn protected_cap(&self) -> usize {
        self.capacity - self.capacity / 4
    }

    /// Looks up a page image as a point access, marking it recently
    /// used and advancing it on the promotion path.
    pub fn get(&self, key: PoolKey) -> Option<Arc<PageData>> {
        self.get_with(key, Access::Point)
    }

    /// Looks up a page image with an explicit access kind. `Scan` hits
    /// refresh the reference bit but never promote, so bulk readers
    /// (checkpoints, sweeps) leave segment membership untouched.
    pub fn get_with(&self, key: PoolKey, access: Access) -> Option<Arc<PageData>> {
        self.hit(&mut self.inner.lock(), key, access)
    }

    /// [`BufferPool::get_with`] for each of `keys` in turn, under one
    /// lock: passes each image found to `found` and stops at the first
    /// key that is not resident. Returns how many were found.
    pub fn get_run(
        &self,
        keys: &[PoolKey],
        access: Access,
        mut found: impl FnMut(PoolKey, Arc<PageData>),
    ) -> usize {
        let mut inner = self.inner.lock();
        for (i, &key) in keys.iter().enumerate() {
            match self.hit(&mut inner, key, access) {
                Some(data) => found(key, data),
                None => return i,
            }
        }
        keys.len()
    }

    /// The body of a lookup, under the caller's lock.
    fn hit(&self, inner: &mut PoolInner, key: PoolKey, access: Access) -> Option<Arc<PageData>> {
        let entry = inner.map.get_mut(&key)?;
        entry.referenced = true;
        let data = Arc::clone(&entry.data);
        if access == Access::Point {
            if entry.scan {
                // First point touch rescues a scan page: it now earns
                // a second chance, and the next touch promotes it.
                entry.scan = false;
            } else if !entry.protected {
                entry.protected = true;
                inner.protected_bytes += ENTRY_BYTES;
                inner.protected.push_back(key);
                self.demote_to_protected_cap(inner);
            }
        }
        Some(data)
    }

    /// Frames for a miss of `keys[0]` and of the pages a run would
    /// read along after it (`keys[1..]`), under one lock: returns the
    /// run's length, the missed page plus the keys after it up to the
    /// first resident one, and hands a spare frame to each slot of
    /// `frames[..len]` while they last, leaving the rest `None` for the
    /// caller to allocate as it reads. Each frame handed out is the
    /// caller's alone (`Arc::get_mut` succeeds), to read an image into
    /// and then admit with [`BufferPool::insert_all`].
    pub(crate) fn take_frames(&self, keys: &[PoolKey], frames: &mut Frames) -> usize {
        let mut inner = self.inner.lock();
        let resident = keys[1..].iter().position(|k| inner.map.contains_key(k));
        let len = resident.map_or(keys.len(), |at| 1 + at);
        for frame in &mut frames[..len] {
            *frame = inner.spare.pop();
        }
        len
    }

    /// Inserts a page image as a point access.
    pub fn insert(&self, key: PoolKey, data: Arc<PageData>) {
        self.insert_with(key, data, Access::Point);
    }

    /// Inserts a page image, evicting cold entries if over budget.
    /// Inserting an already-present key refreshes its data (and a
    /// `Point` insert rescues a scan-tagged entry).
    pub fn insert_with(&self, key: PoolKey, data: Arc<PageData>, access: Access) {
        self.insert_all([(key, data)], access);
    }

    /// [`BufferPool::insert_with`] for each of `entries` in turn, under
    /// one lock.
    pub(crate) fn insert_all(
        &self,
        entries: impl IntoIterator<Item = (PoolKey, Arc<PageData>)>,
        access: Access,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        for (key, data) in entries {
            if let Some(e) = inner.map.get_mut(&key) {
                e.data = data;
                e.referenced = true;
                if access == Access::Point {
                    e.scan = false;
                }
                continue;
            }
            inner.map.insert(
                key,
                Entry {
                    data,
                    referenced: false,
                    protected: false,
                    scan: access == Access::Scan,
                },
            );
            inner.bytes += ENTRY_BYTES;
            inner.probation.push_back(key);
            self.evict_to_budget(&mut inner);
        }
        self.maybe_compact(&mut inner);
    }

    /// Shrinks the protected segment back under its cap by demoting
    /// CLOCK victims into probation (they get one more chance there).
    fn demote_to_protected_cap(&self, inner: &mut PoolInner) {
        let cap = self.protected_cap();
        let mut guard = inner.protected.len() * 2 + 8;
        while inner.protected_bytes > cap && guard > 0 {
            guard -= 1;
            let Some(key) = inner.protected.pop_front() else {
                break;
            };
            match inner.map.get_mut(&key) {
                // Stale: removed, or demoted and re-admitted probationary.
                None => {}
                Some(e) if !e.protected => {}
                Some(e) if e.referenced => {
                    e.referenced = false;
                    inner.protected.push_back(key);
                }
                Some(e) => {
                    e.protected = false;
                    inner.protected_bytes -= ENTRY_BYTES;
                    inner.probation.push_back(key);
                }
            }
        }
    }

    fn evict_to_budget(&self, inner: &mut PoolInner) {
        // Probation first: an entry not hit since it came in goes, one
        // that was gets one second chance. Each pass either evicts,
        // clears a bit, or drops a stale key, so the guard is ample.
        let mut guard = inner.probation.len() * 2 + 8;
        while inner.bytes > self.capacity && guard > 0 {
            guard -= 1;
            let Some(key) = inner.probation.pop_front() else {
                break;
            };
            match inner.map.get_mut(&key) {
                // Stale: entry already replaced/purged or promoted.
                None => {}
                Some(e) if e.protected => {}
                Some(e) if e.referenced => {
                    e.referenced = false;
                    inner.probation.push_back(key);
                }
                Some(_) => {
                    let e = inner.map.remove(&key).expect("matched above");
                    inner.bytes -= ENTRY_BYTES;
                    Self::retire(inner, e.data);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Still over budget (probation drained): evict from the
        // protected segment with plain CLOCK.
        let mut guard = inner.protected.len() * 2 + 8;
        while inner.bytes > self.capacity && guard > 0 {
            guard -= 1;
            let Some(key) = inner.protected.pop_front() else {
                break;
            };
            match inner.map.get_mut(&key) {
                None => {}
                Some(e) if !e.protected => {}
                Some(e) if e.referenced => {
                    e.referenced = false;
                    inner.protected.push_back(key);
                }
                Some(_) => {
                    let e = inner.map.remove(&key).expect("matched above");
                    inner.bytes -= ENTRY_BYTES;
                    inner.protected_bytes -= ENTRY_BYTES;
                    Self::retire(inner, e.data);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Keeps an evicted image as a spare frame when the pool holds it
    /// alone and has room; else drops the pool's reference, so a reader
    /// still holding the image keeps it unchanged.
    fn retire(inner: &mut PoolInner, mut data: Arc<PageData>) {
        if inner.spare.len() < MAX_RUN_PAGES && Arc::get_mut(&mut data).is_some() {
            inner.spare.push(data);
        }
    }

    /// Rebuilds both hand queues without stale or duplicate keys once
    /// bookkeeping outgrows the resident set, bounding queue memory at
    /// `O(resident pages)` regardless of churn.
    fn maybe_compact(&self, inner: &mut PoolInner) {
        if inner.probation.len() + inner.protected.len() > inner.map.len() * 2 + 32 {
            Self::compact(inner);
        }
    }

    fn compact(inner: &mut PoolInner) {
        let mut seen: HashSet<PoolKey> = HashSet::with_capacity(inner.map.len());
        let rebuild = |queue: &mut VecDeque<PoolKey>,
                       want_protected: bool,
                       map: &PageMap<PoolKey, Entry>,
                       seen: &mut HashSet<PoolKey>| {
            let mut fresh = VecDeque::with_capacity(map.len());
            for key in queue.drain(..) {
                let live = map.get(&key).is_some_and(|e| e.protected == want_protected);
                if live && seen.insert(key) {
                    fresh.push_back(key);
                }
            }
            *queue = fresh;
        };
        let map = std::mem::take(&mut inner.map);
        rebuild(&mut inner.probation, false, &map, &mut seen);
        rebuild(&mut inner.protected, true, &map, &mut seen);
        inner.map = map;
    }

    /// Drops every cached page. Models a cold application start
    /// (MicroNN-ColdStart in §4.1.4).
    pub fn purge(&self) {
        let mut inner = self.inner.lock();
        // The GC queue survives: a pinned reader may re-cache a
        // superseded version after the purge.
        inner.map.clear();
        inner.probation.clear();
        inner.protected.clear();
        inner.spare.clear();
        inner.bytes = 0;
        inner.protected_bytes = 0;
    }

    /// Queues the keys a commit superseded: for each page it published,
    /// the version that page resolved to just before. Once the snapshot
    /// floor reaches `commit_seq` no reader can resolve them again and
    /// [`BufferPool::gc`] drops them. Commits are serialized, so calls
    /// arrive in ascending `commit_seq`; call before the commit becomes
    /// visible, so no floor can reach it ahead of its queue entry.
    pub fn note_superseded(&self, commit_seq: u64, keys: Vec<PoolKey>) {
        if self.capacity == 0 {
            return; // nothing is ever cached
        }
        let mut inner = self.inner.lock();
        if inner.superseded.is_empty() {
            self.gc_head.store(commit_seq, Ordering::Relaxed);
        }
        inner.superseded.push_back((commit_seq, keys));
    }

    /// Whether any superseded key awaits collection (lock-free hint).
    pub fn gc_pending(&self) -> bool {
        self.gc_head.load(Ordering::Relaxed) != GC_IDLE
    }

    /// Snapshot-floor garbage collection: pops every queued commit at
    /// or below `floor` — which must not exceed any registered reader's
    /// snapshot — and drops the keys it superseded. Returns `(keys
    /// examined, entries dropped)`; they differ by the keys that were
    /// not resident. Called by the store when the oldest registered
    /// snapshot advances and after checkpoints; with nothing due it is
    /// one atomic load: no lock, no scan.
    pub fn gc(&self, floor: u64) -> (usize, usize) {
        if self.gc_head.load(Ordering::Relaxed) > floor {
            return (0, 0);
        }
        let mut inner = self.inner.lock();
        let inner = &mut *inner; // plain reborrow: disjoint field borrows below
        let (mut examined, mut dropped) = (0, 0);
        let due = inner.superseded.partition_point(|(seq, _)| *seq <= floor);
        for (_, keys) in inner.superseded.drain(..due) {
            examined += keys.len();
            for key in keys {
                if let Some(e) = inner.map.remove(&key) {
                    inner.bytes -= ENTRY_BYTES;
                    inner.protected_bytes -= usize::from(e.protected) * ENTRY_BYTES;
                    dropped += 1;
                }
            }
        }
        let head = inner.superseded.front().map_or(GC_IDLE, |(seq, _)| *seq);
        self.gc_head.store(head, Ordering::Relaxed);
        // The dropped keys stay behind in the hand queues as stale
        // entries; the compaction threshold bounds them.
        self.maybe_compact(inner);
        (examined, dropped)
    }

    /// Superseded keys queued for collection (the GC backlog).
    pub fn gc_backlog(&self) -> usize {
        let inner = self.inner.lock();
        inner.superseded.iter().map(|(_, keys)| keys.len()).sum()
    }

    /// Whether `key` is resident, without touching reference bits or
    /// segment membership.
    #[cfg(test)]
    fn contains(&self, key: PoolKey) -> bool {
        self.inner.lock().map.contains_key(&key)
    }

    /// Spare frames held for the next misses.
    #[cfg(test)]
    fn spare_frames(&self) -> usize {
        self.inner.lock().spare.len()
    }

    /// Every resident key, ascending.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> Vec<PoolKey> {
        let mut keys: Vec<PoolKey> = self.inner.lock().map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total keys across both hand queues, including stale ones. Tests
    /// use this to assert bookkeeping stays bounded by the resident set.
    pub fn queue_len(&self) -> usize {
        let inner = self.inner.lock();
        inner.probation.len() + inner.protected.len()
    }

    /// Bytes resident in the protected segment.
    pub fn protected_bytes(&self) -> usize {
        self.inner.lock().protected_bytes
    }

    /// Total evictions since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(b: u8) -> Arc<PageData> {
        let mut p = PageData::zeroed();
        p[0] = b;
        Arc::new(p)
    }

    /// A miss as the store serves it: a frame from the pool, every byte
    /// set to `byte`, admitted with `access`. Returns the frame's
    /// address.
    fn miss(pool: &BufferPool, key: PoolKey, byte: u8, access: Access) -> *const PageData {
        let mut frames = Frames::default();
        assert_eq!(pool.take_frames(&[key], &mut frames), 1);
        let mut frame = frames[0]
            .take()
            .unwrap_or_else(|| Arc::new(PageData::zeroed()));
        Arc::get_mut(&mut frame)
            .expect("the taker's alone")
            .fill(byte);
        let at = Arc::as_ptr(&frame);
        pool.insert_all([(key, frame)], access);
        at
    }

    #[test]
    fn an_image_a_reader_holds_is_never_refilled() {
        let pool = BufferPool::new(4 * ENTRY_BYTES);
        miss(&pool, (1, 0), 0xab, Access::Scan);
        let held = pool.get_with((1, 0), Access::Scan).expect("resident");
        let mut frames_seen = HashSet::new();
        for i in 0..2 * MAX_RUN_PAGES as u32 {
            frames_seen.insert(miss(&pool, (100 + i, 0), i as u8, Access::Scan));
        }
        assert!(!pool.contains((1, 0)), "the held page was evicted");
        assert!(
            frames_seen.len() < 2 * MAX_RUN_PAGES,
            "later misses refilled evicted frames"
        );
        assert!(!frames_seen.contains(&Arc::as_ptr(&held)));
        assert!(
            held.iter().all(|&b| b == 0xab),
            "the held image is unchanged"
        );
    }

    #[test]
    fn a_run_takes_frames_up_to_its_first_resident_page() {
        let pool = BufferPool::new(4 * ENTRY_BYTES);
        for i in 0..8u32 {
            pool.insert((i, 0), page(i as u8));
        }
        assert_eq!(pool.spare_frames(), 4);
        let keys = [(10, 0), (11, 0), (12, 0), (7, 0), (13, 0)];
        let mut frames = Frames::default();
        assert_eq!(pool.take_frames(&keys, &mut frames), 3);
        assert_eq!(pool.spare_frames(), 1, "three spare frames taken");
        assert!(frames[..3]
            .iter_mut()
            .all(|f| Arc::get_mut(f.as_mut().unwrap()).is_some()));
        assert!(frames[3..].iter().all(Option::is_none));
        // More pages than spare frames: the rest are the caller's to
        // allocate.
        let keys: Vec<PoolKey> = (20..28).map(|pg| (pg, 0)).collect();
        let mut frames = Frames::default();
        assert_eq!(pool.take_frames(&keys, &mut frames), 8);
        assert_eq!(pool.spare_frames(), 0);
        assert_eq!(frames.iter().filter(|f| f.is_some()).count(), 1);
    }

    #[test]
    fn spare_frames_never_exceed_a_run() {
        let pool = BufferPool::new(4 * ENTRY_BYTES);
        for i in 0..100u32 {
            pool.insert((i, 0), page(i as u8));
            assert!(pool.spare_frames() <= MAX_RUN_PAGES);
        }
        assert_eq!(pool.spare_frames(), MAX_RUN_PAGES);
        assert_eq!(pool.evictions(), 96);
    }

    #[test]
    fn purge_and_gc_leave_no_spare_frame() {
        let pool = BufferPool::new(4 * ENTRY_BYTES);
        for i in 0..8u32 {
            pool.insert((i, 0), page(i as u8));
        }
        assert_eq!(pool.spare_frames(), 4);
        pool.purge();
        assert_eq!(pool.spare_frames(), 0, "purge hands frames back");

        let pool = BufferPool::new(16 * ENTRY_BYTES);
        for pg in 0..8u32 {
            pool.insert((pg, 0), page(pg as u8));
            pool.insert((pg, 1), page(pg as u8));
        }
        pool.note_superseded(1, (0..8u32).map(|pg| (pg, 0)).collect());
        assert_eq!(pool.gc(1), (8, 8));
        assert_eq!(pool.spare_frames(), 0, "gc hands frames back");
    }

    #[test]
    fn a_scan_page_hit_again_gets_a_second_chance() {
        let pool = BufferPool::new(4 * ENTRY_BYTES);
        for i in 1..=4u32 {
            pool.insert_with((i, 0), page(i as u8), Access::Scan);
        }
        // Page 1 is hit again before the hand reaches it; page 2 is not.
        pool.get_with((1, 0), Access::Scan);
        pool.insert_with((5, 0), page(5), Access::Scan);
        assert!(pool.contains((1, 0)), "the re-read scan page stays");
        assert!(!pool.contains((2, 0)), "the one-touch scan page goes first");
        // Its chance is spent: untouched since, it goes in its turn,
        // after the three pages that entered before it went back.
        for i in 6..=9u32 {
            pool.insert_with((i, 0), page(i as u8), Access::Scan);
        }
        assert!(!pool.contains((1, 0)));
    }

    #[test]
    fn hit_and_miss() {
        let pool = BufferPool::new(10 * ENTRY_BYTES);
        assert!(pool.get((1, 0)).is_none());
        pool.insert((1, 0), page(7));
        assert_eq!(pool.get((1, 0)).unwrap()[0], 7);
        // Different version of the same page is a distinct entry.
        assert!(pool.get((1, 5)).is_none());
        pool.insert((1, 5), page(9));
        assert_eq!(pool.get((1, 0)).unwrap()[0], 7);
        assert_eq!(pool.get((1, 5)).unwrap()[0], 9);
    }

    #[test]
    fn stays_within_budget() {
        let pool = BufferPool::new(4 * ENTRY_BYTES);
        for i in 0..100u32 {
            pool.insert((i, 0), page(i as u8));
        }
        assert!(pool.resident_bytes() <= 4 * ENTRY_BYTES);
        assert!(pool.len() <= 4);
        assert!(pool.evictions() >= 96);
    }

    #[test]
    fn clock_prefers_evicting_cold_entries() {
        let pool = BufferPool::new(3 * ENTRY_BYTES);
        pool.insert((1, 0), page(1));
        pool.insert((2, 0), page(2));
        pool.insert((3, 0), page(3));
        // Touch 1 and 2 so page 3 is the cold one when 4 arrives.
        pool.get((1, 0));
        pool.get((2, 0));
        pool.insert((4, 0), page(4));
        assert!(pool.get((3, 0)).is_none(), "cold page evicted");
        assert!(pool.get((1, 0)).is_some());
        assert!(pool.get((2, 0)).is_some());
        assert!(pool.get((4, 0)).is_some());
    }

    #[test]
    fn scan_inserts_do_not_evict_protected_working_set() {
        let pool = BufferPool::new(8 * ENTRY_BYTES);
        // Build a hot set: insert + touch promotes into protected.
        for i in 0..4u32 {
            pool.insert((i, 0), page(i as u8));
            pool.get((i, 0));
        }
        assert_eq!(pool.protected_bytes(), 4 * ENTRY_BYTES);
        // A "full partition sweep" far larger than the budget.
        for i in 100..400u32 {
            pool.insert_with((i, 0), page(i as u8), Access::Scan);
        }
        for i in 0..4u32 {
            assert!(pool.contains((i, 0)), "hot page {i} survived the scan");
        }
        assert!(pool.resident_bytes() <= 8 * ENTRY_BYTES);
    }

    #[test]
    fn point_access_rescues_scan_page() {
        let pool = BufferPool::new(4 * ENTRY_BYTES);
        pool.insert_with((1, 0), page(1), Access::Scan);
        // Two point touches: untag, then promote.
        pool.get((1, 0));
        pool.get((1, 0));
        for i in 10..30u32 {
            pool.insert_with((i, 0), page(i as u8), Access::Scan);
        }
        assert!(pool.contains((1, 0)), "rescued page is protected");
    }

    #[test]
    fn scan_get_does_not_promote() {
        let pool = BufferPool::new(4 * ENTRY_BYTES);
        pool.insert((1, 0), page(1));
        pool.get_with((1, 0), Access::Scan);
        pool.get_with((1, 0), Access::Scan);
        assert_eq!(pool.protected_bytes(), 0, "scan hits never promote");
    }

    #[test]
    fn protected_segment_stays_under_cap() {
        let pool = BufferPool::new(8 * ENTRY_BYTES);
        for i in 0..50u32 {
            pool.insert((i, 0), page(i as u8));
            pool.get((i, 0));
        }
        assert!(pool.protected_bytes() <= 6 * ENTRY_BYTES);
        assert!(pool.resident_bytes() <= 8 * ENTRY_BYTES);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let pool = BufferPool::new(0);
        pool.insert((1, 0), page(1));
        assert!(pool.get((1, 0)).is_none());
        assert_eq!(pool.resident_bytes(), 0);
    }

    #[test]
    fn purge_empties_pool() {
        let pool = BufferPool::new(10 * ENTRY_BYTES);
        for i in 0..5u32 {
            pool.insert((i, 0), page(i as u8));
        }
        assert_eq!(pool.len(), 5);
        pool.purge();
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.resident_bytes(), 0);
        assert!(pool.get((0, 0)).is_none());
    }

    #[test]
    fn gc_drops_exactly_the_keys_queued_at_or_below_floor() {
        let pool = BufferPool::new(16 * ENTRY_BYTES);
        pool.insert((1, 0), page(1)); // base image, superseded by v3
        pool.insert((1, 3), page(2)); // superseded by v7
        pool.insert((1, 7), page(3)); // superseded by v12, above the floor
        pool.insert((1, 12), page(4)); // newest
        pool.insert((2, 2), page(5)); // only version of page 2
        pool.note_superseded(4, vec![(1, 0), (2, 0)]); // (2, 0) never cached
        pool.note_superseded(8, vec![(1, 3)]);
        pool.note_superseded(13, vec![(1, 7)]);
        assert_eq!(pool.gc(3), (0, 0), "nothing due below the first commit");
        assert_eq!(pool.gc(9), (3, 2));
        assert_eq!(pool.keys(), vec![(1, 7), (1, 12), (2, 2)]);
        assert_eq!(
            pool.gc_backlog(),
            1,
            "the commit above the floor stays queued"
        );
        assert_eq!(pool.resident_bytes(), 3 * ENTRY_BYTES);
        assert_eq!(pool.gc(13), (1, 1));
        assert!(!pool.gc_pending());
        assert_eq!(pool.gc(u64::MAX - 1), (0, 0));
    }

    #[test]
    fn gc_cycles_keep_queue_bounded() {
        // Regression: removing map entries without ever compacting the
        // hand queues grew them without bound across commit/GC cycles
        // while the pool stayed under budget.
        let pool = BufferPool::new(64 * ENTRY_BYTES);
        for cycle in 1..=200u64 {
            for pg in 0..8u32 {
                pool.insert((pg, cycle), page(pg as u8));
            }
            pool.note_superseded(cycle, (0..8u32).map(|pg| (pg, cycle - 1)).collect());
            pool.gc(cycle);
            assert_eq!(pool.len(), 8, "one live version per page");
        }
        assert_eq!(pool.gc_backlog(), 0);
        assert!(
            pool.queue_len() <= pool.len() * 2 + 32,
            "queue grew unboundedly: {} keys for {} resident pages",
            pool.queue_len(),
            pool.len()
        );
    }

    #[test]
    fn reinsert_refreshes_without_double_accounting() {
        let pool = BufferPool::new(10 * ENTRY_BYTES);
        pool.insert((1, 0), page(1));
        let before = pool.resident_bytes();
        pool.insert((1, 0), page(2));
        assert_eq!(pool.resident_bytes(), before);
        assert_eq!(pool.get((1, 0)).unwrap()[0], 2);
    }

    #[test]
    fn concurrent_stress_holds_budget_invariant() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let pool = Arc::new(BufferPool::new(16 * ENTRY_BYTES));
        let stop = Arc::new(AtomicBool::new(false));
        // Every image of key `(pg, ver)` has all bytes equal to this.
        let byte = |pg: u32, ver: u64| (pg as u64 * 8 + ver) as u8;
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut x = t.wrapping_mul(0x9e3779b97f4a7c15) | 1;
                // Images this thread keeps across later evictions, and
                // the byte each must still hold.
                let mut held: VecDeque<(Arc<PageData>, u8)> = VecDeque::new();
                for i in 0..4000u64 {
                    // xorshift: cheap deterministic per-thread stream.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let pg = (x % 64) as u32;
                    let ver = x % 8;
                    match x % 10 {
                        0..=3 => {
                            if let Some(image) = pool.get((pg, ver)) {
                                if held.len() == 8 {
                                    held.pop_front();
                                }
                                held.push_back((image, byte(pg, ver)));
                            }
                        }
                        4..=7 => {
                            let kind = if x % 2 == 0 {
                                Access::Point
                            } else {
                                Access::Scan
                            };
                            miss(&pool, (pg, ver), byte(pg, ver), kind);
                        }
                        8 => {
                            if x % 2 == 0 {
                                pool.note_superseded(i, vec![(pg, ver)]);
                            } else {
                                pool.gc(i);
                            }
                        }
                        _ => {
                            if i % 512 == 0 {
                                pool.purge();
                            }
                        }
                    }
                    for (image, b) in &held {
                        assert!(image.iter().all(|x| x == b), "a held image changed");
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(pool.resident_bytes() <= 16 * ENTRY_BYTES);
        assert_eq!(pool.resident_bytes(), pool.len() * ENTRY_BYTES);
        assert!(pool.protected_bytes() <= pool.resident_bytes());
        assert!(pool.spare_frames() <= MAX_RUN_PAGES);
    }
}
