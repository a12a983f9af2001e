//! I/O and cache accounting.
//!
//! The paper's evaluation leans heavily on I/O and memory counters:
//! Figure 5 (memory during query processing), Figure 6b (memory during
//! index construction), and Figure 10d (database row/page changes of
//! incremental vs full rebuild). All counters here are monotonically
//! increasing [`Counter`]s (relaxed atomics) so they can be sampled
//! cheaply from any thread and differenced around a measured region.
//!
//! The counters are `Arc`-shared [`micronn_telemetry::Counter`]s so a
//! store's traffic can be re-registered into a
//! [`micronn_telemetry::Registry`] (see [`IoStats::register_into`])
//! without double-counting: the registry and the store bump the same
//! atomics.

use std::sync::Arc;

use micronn_telemetry::{Counter, Registry};

/// Monotonic counters describing disk and cache traffic of a [`crate::Store`].
#[derive(Default)]
pub struct IoStats {
    /// Pages read from the main database file.
    pub main_reads: Arc<Counter>,
    /// Pages written to the main database file (checkpoints).
    pub main_writes: Arc<Counter>,
    /// Frames read from the WAL file.
    pub wal_reads: Arc<Counter>,
    /// Frames appended to the WAL file.
    pub wal_writes: Arc<Counter>,
    /// Buffer-pool hits.
    pub pool_hits: Arc<Counter>,
    /// Buffer-pool misses (page had to be fetched from disk).
    pub pool_misses: Arc<Counter>,
    /// Pages evicted from the buffer pool.
    pub pool_evictions: Arc<Counter>,
    /// Commits performed.
    pub commits: Arc<Counter>,
    /// Checkpoints performed.
    pub checkpoints: Arc<Counter>,
    /// Pages newly allocated.
    pub pages_allocated: Arc<Counter>,
    /// Pages returned to the freelist.
    pub pages_freed: Arc<Counter>,
    /// fsync calls issued — on create and open, by group commits and by
    /// checkpoints — except the WAL's fsync after a durable checkpoint
    /// truncates it, so the VFS sees `syncs + checkpoints` under a
    /// durable [`crate::SyncMode`]. The benchmark ledger pins that
    /// relation; a checkpoint span's `fsyncs` counts both.
    pub syncs: Arc<Counter>,
    /// Pages loaded into the pool by the readahead worker.
    pub prefetch_reads: Arc<Counter>,
    /// Readahead requests skipped because the page was already resident.
    pub prefetch_skipped: Arc<Counter>,
    /// Read transactions begun (snapshot pins).
    pub reader_pins: Arc<Counter>,
    /// Contended writer-lock acquisitions (another writer or checkpoint
    /// held the lock). Readers never touch the writer lock, so this
    /// staying flat while searches run proves the no-blocking contract.
    pub writer_lock_waits: Arc<Counter>,
    /// Cached page versions dropped by snapshot-floor garbage
    /// collection (superseded versions no live reader can resolve).
    pub version_gc_pages: Arc<Counter>,
    /// Superseded-version keys popped from the commit-ordered GC queue
    /// (resident or not): the work version GC did. Flat on a read-only
    /// stretch.
    pub version_gc_examined: Arc<Counter>,
    /// Dirty pages a commit did not log because their bytes equalled
    /// the begin-snapshot image, plus one per commit whose header page
    /// was skipped (meta unchanged).
    pub commit_pages_elided: Arc<Counter>,
}

impl IoStats {
    #[inline]
    pub(crate) fn bump(counter: &Counter) {
        counter.inc();
    }

    #[inline]
    pub(crate) fn add(counter: &Counter, n: u64) {
        counter.add(n);
    }

    /// Takes a point-in-time snapshot of all counters.
    pub fn snapshot(&self) -> StoreStats {
        StoreStats {
            main_reads: self.main_reads.get(),
            main_writes: self.main_writes.get(),
            wal_reads: self.wal_reads.get(),
            wal_writes: self.wal_writes.get(),
            pool_hits: self.pool_hits.get(),
            pool_misses: self.pool_misses.get(),
            pool_evictions: self.pool_evictions.get(),
            commits: self.commits.get(),
            checkpoints: self.checkpoints.get(),
            pages_allocated: self.pages_allocated.get(),
            pages_freed: self.pages_freed.get(),
            syncs: self.syncs.get(),
            prefetch_reads: self.prefetch_reads.get(),
            prefetch_skipped: self.prefetch_skipped.get(),
            reader_pins: self.reader_pins.get(),
            writer_lock_waits: self.writer_lock_waits.get(),
            version_gc_pages: self.version_gc_pages.get(),
            version_gc_examined: self.version_gc_examined.get(),
            commit_pages_elided: self.commit_pages_elided.get(),
        }
    }

    /// Registers every counter in `registry` under
    /// `{prefix}{counter_name}` (e.g. `micronn_store_pool_hits`).
    /// Registry snapshots then observe the store's live traffic — the
    /// same atomics, not copies.
    pub fn register_into(&self, registry: &Registry, prefix: &str) {
        let entries: [(&str, &Arc<Counter>); 19] = [
            ("main_reads", &self.main_reads),
            ("main_writes", &self.main_writes),
            ("wal_reads", &self.wal_reads),
            ("wal_writes", &self.wal_writes),
            ("pool_hits", &self.pool_hits),
            ("pool_misses", &self.pool_misses),
            ("pool_evictions", &self.pool_evictions),
            ("commits", &self.commits),
            ("checkpoints", &self.checkpoints),
            ("pages_allocated", &self.pages_allocated),
            ("pages_freed", &self.pages_freed),
            ("syncs", &self.syncs),
            ("prefetch_reads", &self.prefetch_reads),
            ("prefetch_skipped", &self.prefetch_skipped),
            ("reader_pins", &self.reader_pins),
            ("writer_lock_waits", &self.writer_lock_waits),
            ("version_gc_pages", &self.version_gc_pages),
            ("version_gc_examined", &self.version_gc_examined),
            ("commit_pages_elided", &self.commit_pages_elided),
        ];
        for (name, counter) in entries {
            registry.register_counter(&format!("{prefix}{name}"), Arc::clone(counter));
        }
    }
}

/// A point-in-time copy of [`IoStats`], supporting differencing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub main_reads: u64,
    pub main_writes: u64,
    pub wal_reads: u64,
    pub wal_writes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub commits: u64,
    pub checkpoints: u64,
    pub pages_allocated: u64,
    pub pages_freed: u64,
    pub syncs: u64,
    pub prefetch_reads: u64,
    pub prefetch_skipped: u64,
    pub reader_pins: u64,
    pub writer_lock_waits: u64,
    pub version_gc_pages: u64,
    pub version_gc_examined: u64,
    pub commit_pages_elided: u64,
}

impl StoreStats {
    /// Total pages fetched from disk (main file + WAL).
    pub fn disk_reads(&self) -> u64 {
        self.main_reads + self.wal_reads
    }

    /// Total pages pushed to disk (WAL frames + checkpoint writes).
    pub fn disk_writes(&self) -> u64 {
        self.main_writes + self.wal_writes
    }

    /// Pool hit ratio in `[0, 1]`; `1.0` when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            1.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Counter-wise difference `self - earlier`, for measuring a region.
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            main_reads: self.main_reads - earlier.main_reads,
            main_writes: self.main_writes - earlier.main_writes,
            wal_reads: self.wal_reads - earlier.wal_reads,
            wal_writes: self.wal_writes - earlier.wal_writes,
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
            pool_evictions: self.pool_evictions - earlier.pool_evictions,
            commits: self.commits - earlier.commits,
            checkpoints: self.checkpoints - earlier.checkpoints,
            pages_allocated: self.pages_allocated - earlier.pages_allocated,
            pages_freed: self.pages_freed - earlier.pages_freed,
            syncs: self.syncs - earlier.syncs,
            prefetch_reads: self.prefetch_reads - earlier.prefetch_reads,
            prefetch_skipped: self.prefetch_skipped - earlier.prefetch_skipped,
            reader_pins: self.reader_pins - earlier.reader_pins,
            writer_lock_waits: self.writer_lock_waits - earlier.writer_lock_waits,
            version_gc_pages: self.version_gc_pages - earlier.version_gc_pages,
            version_gc_examined: self.version_gc_examined - earlier.version_gc_examined,
            commit_pages_elided: self.commit_pages_elided - earlier.commit_pages_elided,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_diff() {
        let s = IoStats::default();
        IoStats::bump(&s.main_reads);
        IoStats::bump(&s.main_reads);
        IoStats::add(&s.wal_writes, 5);
        let a = s.snapshot();
        assert_eq!(a.main_reads, 2);
        assert_eq!(a.wal_writes, 5);
        IoStats::bump(&s.pool_hits);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.pool_hits, 1);
        assert_eq!(d.main_reads, 0);
    }

    #[test]
    fn derived_metrics() {
        let st = StoreStats {
            main_reads: 3,
            wal_reads: 2,
            main_writes: 1,
            wal_writes: 4,
            pool_hits: 9,
            pool_misses: 1,
            ..Default::default()
        };
        assert_eq!(st.disk_reads(), 5);
        assert_eq!(st.disk_writes(), 5);
        assert!((st.hit_ratio() - 0.9).abs() < 1e-12);
        assert_eq!(StoreStats::default().hit_ratio(), 1.0);
    }

    #[test]
    fn registry_sees_live_store_counters() {
        let s = IoStats::default();
        let r = Registry::new();
        s.register_into(&r, "store_");
        IoStats::bump(&s.commits);
        IoStats::add(&s.wal_writes, 3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("store_commits"), Some(1));
        assert_eq!(snap.counter("store_wal_writes"), Some(3));
        assert_eq!(snap.counter("store_main_reads"), Some(0));
    }
}
