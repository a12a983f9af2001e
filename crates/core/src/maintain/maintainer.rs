//! The background index maintainer: a dedicated thread driving the
//! maintenance ladder (flush → split/merge → rebuild fallback) while
//! searches and updates keep running.
//!
//! The maintainer owns nothing the foreground does not already share:
//! it clones the [`MicroNN`] handle and calls
//! [`MicroNN::maybe_maintain`] on a fixed cadence, so every operation
//! runs under the storage engine's single-writer/snapshot-reader
//! protocol — concurrent searches keep their snapshots and flip
//! atomically at each maintenance commit (the same cooperation the
//! `exec_determinism` concurrency smoke exercises). Errors are
//! recorded, not fatal: a transient failure (e.g. a candidate partition
//! emptied by a racing delete) leaves the maintainer running.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use micronn_telemetry::Counter;
use parking_lot::Mutex;

use crate::db::MicroNN;

/// Tuning knobs for [`MicroNN::start_maintainer`].
#[derive(Debug, Clone)]
pub struct MaintainerOptions {
    /// Pause between maintenance passes. Each pass runs to a healthy
    /// index (bounded), so the interval trades staleness for write-lock
    /// pressure; the default favours promptness for churn-heavy tests
    /// and on-device workloads.
    pub interval: Duration,
}

impl Default for MaintainerOptions {
    fn default() -> Self {
        MaintainerOptions {
            interval: Duration::from_millis(20),
        }
    }
}

/// The maintainer's counters live in the database's telemetry registry
/// (`micronn_maintainer_*_total`), so `micronnctl status` and the
/// Prometheus exporter see them without holding the
/// [`IndexMaintainer`] handle. The handles here share the registry's
/// atomics; counts are cumulative per index handle, surviving
/// maintainer restarts.
struct Shared {
    stop: AtomicBool,
    cycles: Arc<Counter>,
    flushes: Arc<Counter>,
    splits: Arc<Counter>,
    merges: Arc<Counter>,
    rebuilds: Arc<Counter>,
    retrains: Arc<Counter>,
    errors: Arc<Counter>,
    skips: Arc<Counter>,
    bytes_written: Arc<Counter>,
    last_error: Mutex<Option<String>>,
}

/// Point-in-time counters of a running (or stopped) maintainer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintainerStats {
    /// Maintenance passes completed (including no-op passes; idle
    /// cycles skipped by the quiet-index check are not counted).
    pub cycles: u64,
    /// Delta flushes performed.
    pub flushes: u64,
    /// Partition splits performed.
    pub splits: u64,
    /// Partition merges performed.
    pub merges: u64,
    /// Full rebuilds performed (rare once the lifecycle is on).
    pub rebuilds: u64,
    /// Quantizer range retrains performed (quantized codecs; drift
    /// triggered).
    pub retrains: u64,
    /// Passes that failed; the maintainer keeps running.
    pub errors: u64,
    /// Idle cycles skipped by the quiet-index check (no mutations since
    /// the last healthy pass), each saving a catalog scan.
    pub skips: u64,
    /// Disk bytes written by maintenance passes (store write counters
    /// sampled around each pass; the single-writer protocol keeps the
    /// attribution tight — the Figure 10d axis, in bytes).
    pub bytes_written: u64,
    /// Message of the most recent failure, if any.
    pub last_error: Option<String>,
}

/// Handle to the background maintenance thread. Dropping it stops the
/// thread (joining it); [`IndexMaintainer::stop`] does the same while
/// returning the final counters.
pub struct IndexMaintainer {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MicroNN {
    /// Spawns the background [`IndexMaintainer`] for this index. The
    /// thread shares this handle (cheap clone) and runs
    /// [`MicroNN::maybe_maintain`] every `opts.interval`, so flushes,
    /// splits, merges, and fallback rebuilds happen behind concurrent
    /// searches and updates without any caller-side polling.
    pub fn start_maintainer(&self, opts: MaintainerOptions) -> IndexMaintainer {
        let reg = &self.inner.tel.registry;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            cycles: reg.counter("micronn_maintainer_cycles_total"),
            flushes: reg.counter("micronn_maintainer_flushes_total"),
            splits: reg.counter("micronn_maintainer_splits_total"),
            merges: reg.counter("micronn_maintainer_merges_total"),
            rebuilds: reg.counter("micronn_maintainer_rebuilds_total"),
            retrains: reg.counter("micronn_maintainer_retrains_total"),
            errors: reg.counter("micronn_maintainer_errors_total"),
            skips: reg.counter("micronn_maintainer_skips_total"),
            bytes_written: reg.counter("micronn_maintainer_bytes_written_total"),
            last_error: Mutex::new(None),
        });
        let db = self.clone();
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("micronn-maintainer".into())
            .spawn(move || {
                // Quiet-index fast path: a verdict scans the centroid
                // table, which is wasted work on an idle database.
                // Every mutation through this handle (and its clones)
                // bumps `row_changes`, so an unchanged counter after a
                // healthy pass means nothing to do. A full pass still
                // runs periodically as a backstop for mutations from
                // other handles on the same file.
                const FORCE_FULL_EVERY: u32 = 64;
                let mut healthy_at: Option<u64> = None;
                let mut skipped = 0u32;
                while !thread_shared.stop.load(Ordering::Acquire) {
                    let quiet = healthy_at == Some(db.inner.tables.row_changes())
                        && skipped < FORCE_FULL_EVERY;
                    if quiet {
                        skipped += 1;
                        thread_shared.skips.inc();
                    } else {
                        skipped = 0;
                        let io_before = db.inner.db.store().stats();
                        match db.maybe_maintain() {
                            Ok(report) => {
                                thread_shared.flushes.add(report.flushes() as u64);
                                thread_shared.splits.add(report.splits() as u64);
                                thread_shared.merges.add(report.merges() as u64);
                                thread_shared.rebuilds.add(report.rebuilds() as u64);
                                thread_shared.retrains.add(report.retrains() as u64);
                                healthy_at = (report.status
                                    == crate::maintain::MaintenanceStatus::Healthy)
                                    .then(|| db.inner.tables.row_changes());
                            }
                            Err(e) => {
                                thread_shared.errors.inc();
                                *thread_shared.last_error.lock() = Some(e.to_string());
                                healthy_at = None;
                            }
                        }
                        let written = db.inner.db.store().stats().since(&io_before).disk_writes()
                            * micronn_storage::PAGE_SIZE as u64;
                        thread_shared.bytes_written.add(written);
                        thread_shared.cycles.inc();
                    }
                    // Sleep in short slices so stop() stays prompt even
                    // with long intervals.
                    let mut remaining = opts.interval;
                    while !remaining.is_zero() && !thread_shared.stop.load(Ordering::Acquire) {
                        let slice = remaining.min(Duration::from_millis(5));
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
            })
            .expect("spawn micronn-maintainer thread");
        IndexMaintainer {
            shared,
            handle: Some(handle),
        }
    }
}

impl IndexMaintainer {
    /// Counters so far; callable while the thread runs.
    pub fn stats(&self) -> MaintainerStats {
        MaintainerStats {
            cycles: self.shared.cycles.get(),
            flushes: self.shared.flushes.get(),
            splits: self.shared.splits.get(),
            merges: self.shared.merges.get(),
            rebuilds: self.shared.rebuilds.get(),
            retrains: self.shared.retrains.get(),
            errors: self.shared.errors.get(),
            skips: self.shared.skips.get(),
            bytes_written: self.shared.bytes_written.get(),
            last_error: self.shared.last_error.lock().clone(),
        }
    }

    /// Stops the thread, waits for the in-flight pass to finish, and
    /// returns the final counters.
    pub fn stop(mut self) -> MaintainerStats {
        self.join();
        self.stats()
    }

    fn join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for IndexMaintainer {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::db::VectorRecord;
    use micronn_linalg::Metric;
    use micronn_storage::SyncMode;

    #[test]
    fn maintainer_flushes_and_stops_cleanly() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = Config::new(8, Metric::L2);
        cfg.store.sync = SyncMode::Off;
        cfg.delta_flush_threshold = 50;
        cfg.target_partition_size = 40;
        let db = MicroNN::create(dir.path().join("m.mnn"), cfg).unwrap();
        for i in 0..400i64 {
            let v: Vec<f32> = (0..8)
                .map(|j| ((i * 13 + j) % 101) as f32 / 101.0)
                .collect();
            db.upsert(VectorRecord::new(i, v)).unwrap();
        }
        db.rebuild().unwrap();
        let maintainer = db.start_maintainer(MaintainerOptions {
            interval: Duration::from_millis(1),
        });
        // Stage past the flush threshold and wait for the background
        // flush to land.
        for i in 400..480i64 {
            let v: Vec<f32> = (0..8)
                .map(|j| ((i * 13 + j) % 101) as f32 / 101.0)
                .collect();
            db.upsert(VectorRecord::new(i, v)).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while db.delta_len().unwrap() >= 50 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = maintainer.stop();
        assert!(stats.cycles > 0);
        assert!(stats.flushes >= 1, "background flush must have run");
        assert_eq!(stats.errors, 0, "last error: {:?}", stats.last_error);
        assert!(db.delta_len().unwrap() < 50);
    }
}
