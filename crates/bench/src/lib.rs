//! `micronn-bench`: the harness regenerating every table and figure of
//! the MicroNN paper's evaluation (§4).
//!
//! Each bench target under `benches/` reproduces one experiment and
//! prints the same rows/series the paper reports:
//!
//! | target                | paper artifact                               |
//! |-----------------------|----------------------------------------------|
//! | `tab1_capabilities`   | Table 1 (capability matrix + feature probes) |
//! | `tab2_datasets`       | Table 2 (dataset inventory)                  |
//! | `fig4_query_latency`  | Fig. 4 (latency @90% recall, 3 modes × 2 DUTs)|
//! | `fig5_query_memory`   | Fig. 5 (memory during query processing)      |
//! | `fig6_index_build`    | Fig. 6 (build time + memory, all pages resident vs bounded) |
//! | `fig7_hybrid_optimizer` | Fig. 7 (latency/recall vs selectivity)     |
//! | `fig8_minibatch`      | Fig. 8 (mini-batch size vs recall/memory)    |
//! | `fig9_batch_mqo`      | Fig. 9 (batch scaling + amortized latency)   |
//! | `fig10_updates`       | Fig. 10 (full vs incremental rebuild)        |
//! | `ablations`           | design-choice ablations (MicroNN §3)         |
//!
//! Kernel, B+tree, WAL and telemetry costs have no bench target here:
//! the ledger (`ledger/`) times them as its `linalg.*`, `storage.*` and
//! `telemetry.*` layer rows.
//!
//! Scale: `MICRONN_BENCH_SCALE` (fraction of the paper's row counts,
//! default 0.01) or `FULL_SCALE=1` for paper-scale datasets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use micronn::{
    Config, MicroNN, RebuildReport, SearchRequest, StoreOptions, SyncMode, VectorCodec,
    VectorRecord,
};
use micronn_datasets::{ground_truth, recall, Dataset};

// ---------------------------------------------------------------------------
// Tracking allocator: the "memory usage" axis of Figures 5, 6b and 8b.
// ---------------------------------------------------------------------------

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A global allocator wrapper that tracks live and peak heap bytes —
/// the measurement device behind every memory figure. Install with:
///
/// ```no_run
/// #[global_allocator]
/// static ALLOC: micronn_bench::TrackingAlloc = micronn_bench::TrackingAlloc;
/// ```
pub struct TrackingAlloc;

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

impl TrackingAlloc {
    /// Currently live heap bytes.
    pub fn live() -> usize {
        LIVE.load(Ordering::Relaxed)
    }

    /// Peak live heap bytes since the last [`TrackingAlloc::reset_peak`].
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current live size, so a measured region
    /// reports its own high-water mark.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Scale and environment
// ---------------------------------------------------------------------------

/// Dataset scale: fraction of the paper's row counts. Default `0.01`;
/// `FULL_SCALE=1` restores paper scale; `MICRONN_BENCH_SCALE=<f>` sets
/// an explicit fraction.
pub fn bench_scale() -> f64 {
    if std::env::var("FULL_SCALE")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        return 1.0;
    }
    std::env::var("MICRONN_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.01)
}

/// Number of evaluation queries per dataset (kept modest so the whole
/// harness completes in minutes at the default scale).
pub fn bench_queries() -> usize {
    std::env::var("MICRONN_BENCH_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30)
}

/// The Table 2 dataset specs at bench scale, with per-dataset row
/// counts additionally capped (`MICRONN_BENCH_MAX_N`, default 20,000)
/// so the heavy datasets (DEEPImage 10M, GIST 960-d) stay laptop-sized
/// unless `FULL_SCALE=1`.
pub fn scaled_specs() -> Vec<micronn_datasets::DatasetSpec> {
    let full = std::env::var("FULL_SCALE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let cap: usize = std::env::var("MICRONN_BENCH_MAX_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if full { usize::MAX } else { 20_000 });
    let nq = bench_queries();
    micronn_datasets::table2_specs(bench_scale())
        .into_iter()
        .map(|mut s| {
            s.n_vectors = s.n_vectors.min(cap);
            s.n_queries = s.n_queries.min(nq.max(10));
            s
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Database construction helpers
// ---------------------------------------------------------------------------

/// Device profiles used throughout the evaluation: the paper's "Small
/// DUT" (single-digit GiB of RAM) and "Large DUT" (tens of GiB) differ,
/// for our purposes, in how much page cache the store may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceProfile {
    /// Memory-constrained device: 4 MiB page cache, 2 workers.
    Small,
    /// Roomier device: 32 MiB page cache, 4 workers.
    Large,
}

impl DeviceProfile {
    /// Store options for this profile (sync off: benchmarks measure
    /// compute + cache behaviour, not fsync latency).
    pub fn store_options(self) -> StoreOptions {
        match self {
            DeviceProfile::Small => StoreOptions {
                pool_bytes: 4 * 1024 * 1024,
                sync: SyncMode::Off,
                // Spill write transactions early: 2 MiB of dirty pages.
                spill_after_pages: 512,
                ..Default::default()
            },
            DeviceProfile::Large => StoreOptions {
                pool_bytes: 32 * 1024 * 1024,
                sync: SyncMode::Off,
                spill_after_pages: 2048,
                ..Default::default()
            },
        }
    }

    /// Worker threads for this profile.
    pub fn workers(self) -> usize {
        match self {
            DeviceProfile::Small => 2,
            DeviceProfile::Large => 4,
        }
    }
}

/// A MicroNN database ingested from a dataset, plus its temp dir (kept
/// alive for the measurement's duration).
pub struct BenchDb {
    pub db: MicroNN,
    pub dir: tempfile::TempDir,
}

/// Creates, ingests and builds a MicroNN index over `dataset` with the
/// given device profile. `target_partition_size` follows the paper's
/// default of 100 unless overridden.
pub fn build_micronn(
    dataset: &Dataset,
    profile: DeviceProfile,
    target_partition_size: usize,
) -> BenchDb {
    build_micronn_codec(dataset, profile, target_partition_size, VectorCodec::F32)
}

/// [`build_micronn`] with an explicit vector codec (the Figure 5
/// bytes-scanned comparison builds the same dataset under both
/// codecs).
pub fn build_micronn_codec(
    dataset: &Dataset,
    profile: DeviceProfile,
    target_partition_size: usize,
    codec: VectorCodec,
) -> BenchDb {
    build_with(dataset, profile, target_partition_size, |cfg| {
        cfg.codec = codec
    })
    .0
}

/// The paper's InMemory baseline (§4.1.4), "a completely memory
/// resident variation of the MicroNN IVF index": [`build_micronn`]'s
/// index with a page cache and spill budget no smaller than the file,
/// warmed by one `exact` pass so every page a search reads is resident.
/// Figure 6 times the build from the returned report.
pub fn build_resident(
    dataset: &Dataset,
    profile: DeviceProfile,
    target_partition_size: usize,
) -> (BenchDb, RebuildReport) {
    // Far above any dataset's space amplification; checked below.
    let budget = 4 * (dataset.vectors.len() * 4) + 16 * 1024 * 1024;
    let (bench, report) = build_with(dataset, profile, target_partition_size, |cfg| {
        cfg.store.pool_bytes = budget;
        cfg.store.spill_after_pages = budget / micronn_storage::PAGE_SIZE;
    });
    bench.db.checkpoint().expect("checkpoint");
    let file = bench.dir.path().join(DB_FILE).metadata().expect("file");
    assert!(file.len() <= budget as u64, "file outgrew the page cache");
    bench.db.exact(dataset.query(0), 1, None).expect("warm-up");
    (bench, report)
}

const DB_FILE: &str = "bench.mnn";

/// Creates, ingests and builds `dataset` under `profile`'s config as
/// `edit` adjusts it.
fn build_with(
    dataset: &Dataset,
    profile: DeviceProfile,
    target_partition_size: usize,
    edit: impl FnOnce(&mut Config),
) -> (BenchDb, RebuildReport) {
    let dir = tempfile::tempdir().expect("tempdir");
    let mut cfg = Config::new(dataset.spec.dim, dataset.spec.metric);
    cfg.store = profile.store_options();
    cfg.workers = profile.workers();
    cfg.target_partition_size = target_partition_size;
    edit(&mut cfg);
    let db = MicroNN::create(dir.path().join(DB_FILE), cfg).expect("create");
    ingest(&db, dataset);
    let report = db.rebuild().expect("rebuild");
    (BenchDb { db, dir }, report)
}

/// Ingests a dataset in chunked batches.
pub fn ingest(db: &MicroNN, dataset: &Dataset) {
    let mut batch = Vec::with_capacity(2000);
    for i in 0..dataset.len() {
        batch.push(VectorRecord::new(i as i64, dataset.vector(i).to_vec()));
        if batch.len() == 2000 {
            db.upsert_batch(&batch).expect("upsert");
            batch.clear();
        }
    }
    if !batch.is_empty() {
        db.upsert_batch(&batch).expect("upsert");
    }
}

/// Finds the smallest probe count reaching `target` mean recall@k over
/// the sample queries (the paper's "identify n ... to reach a recall of
/// 90% or higher", §4.1.3). Returns `(probes, achieved recall)`.
pub fn tune_probes(
    db: &MicroNN,
    dataset: &Dataset,
    gt: &[Vec<i64>],
    k: usize,
    n_queries: usize,
    target: f64,
) -> (usize, f64) {
    let max_probes = db.stats().expect("stats").partitions.max(1) as usize;
    let mut probes = 1usize;
    loop {
        let r = mean_recall_at(db, dataset, gt, k, n_queries, probes);
        if r >= target || probes >= max_probes {
            return (probes, r);
        }
        probes = (probes * 2).min(max_probes);
    }
}

/// Mean recall@k over the first `n_queries` dataset queries.
pub fn mean_recall_at(
    db: &MicroNN,
    dataset: &Dataset,
    gt: &[Vec<i64>],
    k: usize,
    n_queries: usize,
    probes: usize,
) -> f64 {
    let n = n_queries.min(dataset.spec.n_queries);
    let mut total = 0.0;
    for (qi, truth) in gt.iter().enumerate().take(n) {
        let got = db
            .search_with(&SearchRequest::new(dataset.query(qi).to_vec(), k).with_probes(probes))
            .expect("search");
        let ids: Vec<i64> = got.results.iter().map(|r| r.asset_id).collect();
        total += recall(&ids, truth);
    }
    total / n as f64
}

/// Computes ground truth for the first `n_queries` queries only.
pub fn sample_ground_truth(dataset: &Dataset, k: usize, n_queries: usize) -> Vec<Vec<i64>> {
    let mut slim = dataset.clone();
    slim.spec.n_queries = n_queries.min(dataset.spec.n_queries);
    slim.queries
        .truncate(slim.spec.n_queries * dataset.spec.dim);
    ground_truth(&slim, k, 4)
}

// ---------------------------------------------------------------------------
// Timing and reporting
// ---------------------------------------------------------------------------

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// Median of a sample (robust to scheduler-induced outliers).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 0 {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Linear-interpolated percentile of a sample; `p` in `[0, 100]`.
/// `percentile(xs, 50.0)` matches [`median`] on odd-length samples and
/// interpolates identically on even ones.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    v[lo] + (v[hi] - v[lo]) * frac
}

/// Records a millisecond latency sample into a telemetry histogram at
/// nanosecond resolution (the same unit the database's
/// `micronn_query_latency_ns` histogram uses) and returns its snapshot.
pub fn latency_histogram_ns(xs_ms: &[f64]) -> micronn_telemetry::HistogramSnapshot {
    let h = micronn_telemetry::Histogram::new();
    for &ms in xs_ms {
        h.record((ms * 1e6).round() as u64);
    }
    h.snapshot()
}

/// Histogram-estimated percentile in milliseconds, asserted to agree
/// with the exact [`percentile`] of the raw sample to within one width
/// of the bucket holding the upper order statistic — the error bound
/// `HistogramSnapshot::quantile` documents. Figure 4 reports its
/// p50/p99 through this, so the telemetry numbers are continuously
/// cross-checked against the hand-rolled math.
pub fn hist_percentile_ms(
    snap: &micronn_telemetry::HistogramSnapshot,
    xs_ms: &[f64],
    p: f64,
) -> f64 {
    if xs_ms.is_empty() {
        return 0.0;
    }
    let est_ns = snap.quantile(p / 100.0);
    let exact_ns = percentile(xs_ms, p) * 1e6;
    let mut v: Vec<u64> = xs_ms.iter().map(|&ms| (ms * 1e6).round() as u64).collect();
    v.sort_unstable();
    let hi = ((p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64).ceil() as usize;
    // +1ns absorbs the f64→ns rounding of the recorded samples.
    let tol_ns = micronn_telemetry::bucket_width(v[hi]) as f64 + 1.0;
    assert!(
        (est_ns - exact_ns).abs() <= tol_ns,
        "histogram p{p} = {est_ns:.0}ns vs exact {exact_ns:.0}ns \
         exceeds one bucket width ({tol_ns:.0}ns)"
    );
    est_ns / 1e6
}

/// Mean and standard deviation of a sample.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a header + separator.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// Formats bytes as MiB with one decimal.
pub fn mib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a duration as milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_math() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn percentile_math() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), median(&xs));
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert!((percentile(&xs, 75.0) - 4.0).abs() < 1e-12);
        let even = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&even, 50.0), median(&even));
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn histogram_percentiles_match_exact_within_a_bucket() {
        // A skewed latency-shaped sample: mostly sub-ms with a heavy
        // tail, in ms. hist_percentile_ms() asserts the agreement
        // internally; this test just drives it across the quantiles
        // Figure 4 prints.
        let mut s = 0x243F6A8885A308D3u64;
        let xs: Vec<f64> = (0..500)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let u = (s >> 11) as f64 / (1u64 << 53) as f64;
                0.05 + 30.0 * u * u * u // 0.05ms..30ms, cubed tail
            })
            .collect();
        let snap = latency_histogram_ns(&xs);
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            let est = hist_percentile_ms(&snap, &xs, p);
            assert!(est > 0.0);
        }
        assert_eq!(hist_percentile_ms(&snap, &[], 50.0), 0.0);
    }

    #[test]
    fn scale_defaults() {
        let s = bench_scale();
        assert!(s > 0.0 && s <= 1.0);
    }

    #[test]
    fn device_profiles_differ() {
        let s = DeviceProfile::Small.store_options();
        let l = DeviceProfile::Large.store_options();
        assert!(s.pool_bytes < l.pool_bytes);
        assert!(DeviceProfile::Small.workers() <= DeviceProfile::Large.workers());
    }

    #[test]
    fn formatting() {
        assert_eq!(mib(1024 * 1024), "1.0");
        assert_eq!(ms(Duration::from_millis(12)), "12.00");
    }
}
