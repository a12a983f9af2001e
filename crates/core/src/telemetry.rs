//! Per-database telemetry hub: the glue between the query executor,
//! the maintenance ladder, the storage engine, and the
//! `micronn-telemetry` registry.
//!
//! Every [`MicroNN`] handle owns one [`DbTelemetry`]:
//!
//! * a [`Registry`] holding the index's counters and latency
//!   histograms, with the storage engine's
//!   [`micronn_storage::IoStats`] re-registered into it (same atomics,
//!   no double counting);
//! * a shared [`SinkCell`] mounted into both the store options (WAL
//!   group commits, checkpoints) and the query/maintenance paths, so
//!   installing one [`TraceSink`] makes the whole stack visible;
//! * the slow-query ring log ([`Config::slow_query_ms`]).
//!
//! Overhead discipline: with no sink and no slow-query threshold, a
//! query costs two `Instant::now` calls plus a handful of relaxed
//! counter adds and one histogram record (the ledger's
//! `telemetry.hist_record_ns` row times the record). Stage timing, span
//! construction, and slow-log records only happen when
//! [`DbTelemetry::detailed`] is true; `telemetry.trace_overhead_ratio`
//! is a traced query's latency over an untraced one's.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use micronn_telemetry::{
    Counter, Histogram, Registry, RegistrySnapshot, SinkCell, SlowQueryLog, SlowQueryRecord, Span,
    TraceSink,
};
use parking_lot::Mutex;

use crate::config::Config;
use crate::db::MicroNN;
use crate::stats::{PlanUsed, QueryInfo};

/// Number of slow-query records retained (oldest evicted first).
const SLOW_LOG_CAPACITY: usize = 128;

/// Stage span names emitted by the query paths.
pub(crate) mod stage {
    /// Choosing which partitions to probe (centroid distances).
    pub const PROBE_SELECT: &str = "probe_select";
    /// Fan-out scan over the chosen partitions (includes any inline
    /// post-filtering; see `FILTER_JOIN` for the filter share).
    pub const PARTITION_SCAN: &str = "partition_scan";
    /// Exact re-ranking of quantized candidates.
    pub const RERANK: &str = "rerank";
    /// Attribute-predicate evaluation: candidate collection of a
    /// pre-filter plan, or a post-filter scan's joins (each wave's
    /// ordering plus its probes).
    pub const FILTER_JOIN: &str = "filter_join";
}

/// Per-query stage clock. Construction is two `Instant::now` calls;
/// when `detailed` is false every other method is a no-op, so the
/// disabled path adds nothing to the scan loops.
pub(crate) struct QueryTrace {
    pub detailed: bool,
    start: Instant,
    last: Instant,
    pub stages: Vec<(&'static str, Duration)>,
}

impl QueryTrace {
    pub fn new(detailed: bool) -> QueryTrace {
        let now = Instant::now();
        QueryTrace {
            detailed,
            start: now,
            last: now,
            stages: Vec::new(),
        }
    }

    /// Closes the stage running since the previous mark (or since
    /// construction) under `name`.
    pub fn stage(&mut self, name: &'static str) {
        if self.detailed {
            let now = Instant::now();
            self.stages.push((name, now - self.last));
            self.last = now;
        }
    }

    /// Records a stage whose duration was measured elsewhere (e.g. the
    /// filter share of a parallel scan, summed across workers).
    pub fn stage_external(&mut self, name: &'static str, d: Duration) {
        if self.detailed && !d.is_zero() {
            self.stages.push((name, d));
        }
    }

    pub fn total(&self) -> Duration {
        self.start.elapsed()
    }
}

/// The per-database telemetry hub; see the module docs.
pub(crate) struct DbTelemetry {
    pub registry: Arc<Registry>,
    pub sink: Arc<SinkCell>,
    pub slow_log: SlowQueryLog,
    slow_query_ms: Option<u64>,
    queries: Arc<Counter>,
    batches: Arc<Counter>,
    slow_queries: Arc<Counter>,
    query_latency: Arc<Histogram>,
    batch_latency: Arc<Histogram>,
    vectors_scanned: Arc<Counter>,
    bytes_scanned: Arc<Counter>,
    /// `micronn_filtered_out_total`: rows a post-filter scan probed in
    /// the attribute table and rejected. Rows the join never reached
    /// are not in it (they are `vectors_scanned − candidates` in the
    /// query's `QueryInfo`).
    filtered_out: Arc<Counter>,
    /// `micronn_filter_probes_total`: rows the post-filter join looked
    /// up in the attribute table, passing or not — the sum of
    /// `QueryInfo::candidates` over post-filter queries (and filtered
    /// exact scans, which run the same join; unfiltered ones add 0).
    filter_probes: Arc<Counter>,
    reranked: Arc<Counter>,
    partitions_scanned: Arc<Counter>,
    /// `micronn_distance_computations_total`: `(query, vector)` scores
    /// of the scans — f32 rows, quantized codes, and the pre-filter
    /// plan's brute-force tail. Re-rank recomputations are not in it:
    /// `micronn_reranked_total` counts them. A query adds the same
    /// whether it ran alone or in a batch.
    pub distance_computations: Arc<Counter>,
    maint_actions: Arc<Counter>,
    maint_bytes: Arc<Counter>,
    maint_fsyncs: Arc<Counter>,
    action_counters: Mutex<HashMap<&'static str, Arc<Counter>>>,
}

impl DbTelemetry {
    pub fn new(cfg: &Config) -> DbTelemetry {
        let registry = Arc::new(Registry::new());
        let sink = Arc::new(SinkCell::new());
        if cfg.trace {
            sink.set(Some(Arc::new(RegistrySink::new(Arc::clone(&registry)))));
        }
        DbTelemetry {
            queries: registry.counter("micronn_queries_total"),
            batches: registry.counter("micronn_batches_total"),
            slow_queries: registry.counter("micronn_slow_queries_total"),
            query_latency: registry.histogram("micronn_query_latency_ns"),
            batch_latency: registry.histogram("micronn_batch_latency_ns"),
            vectors_scanned: registry.counter("micronn_vectors_scanned_total"),
            bytes_scanned: registry.counter("micronn_bytes_scanned_total"),
            filtered_out: registry.counter("micronn_filtered_out_total"),
            filter_probes: registry.counter("micronn_filter_probes_total"),
            reranked: registry.counter("micronn_reranked_total"),
            partitions_scanned: registry.counter("micronn_partitions_scanned_total"),
            distance_computations: registry.counter("micronn_distance_computations_total"),
            maint_actions: registry.counter("micronn_maintenance_actions_total"),
            maint_bytes: registry.counter("micronn_maintenance_bytes_written_total"),
            maint_fsyncs: registry.counter("micronn_maintenance_fsyncs_total"),
            action_counters: Mutex::new(HashMap::new()),
            slow_log: SlowQueryLog::new(SLOW_LOG_CAPACITY),
            slow_query_ms: cfg.slow_query_ms,
            registry,
            sink,
        }
    }

    /// Whether query paths should collect per-stage timings: a sink is
    /// listening or the slow-query log is armed.
    #[inline]
    pub fn detailed(&self) -> bool {
        self.sink.enabled() || self.slow_query_ms.is_some()
    }

    /// Flows one finished query into the registry, the sink, and (past
    /// the threshold) the slow-query log. `batch` is `Some(nq)` for a
    /// shared-scan batch of `nq` queries, whose `info` sums the batch.
    pub fn finish(&self, trace: &QueryTrace, info: &QueryInfo, k: usize, batch: Option<usize>) {
        let total = trace.total();
        let (count, latency) = match batch {
            None => (&self.queries, &self.query_latency),
            Some(_) => (&self.batches, &self.batch_latency),
        };
        count.inc();
        latency.record(total.as_nanos() as u64);
        // A pre-filter plan's `candidates` is the set its access path
        // examined, not probes of the join.
        let probes = match info.plan {
            PlanUsed::PreFilter => 0,
            _ => info.candidates,
        };
        self.vectors_scanned.add(info.vectors_scanned as u64);
        self.bytes_scanned.add(info.bytes_scanned as u64);
        self.filtered_out.add(info.filtered_out as u64);
        self.filter_probes.add(probes as u64);
        self.reranked.add(info.reranked as u64);
        self.partitions_scanned.add(info.partitions_scanned as u64);
        if !trace.detailed {
            return;
        }
        if self.sink.enabled() {
            for &(name, d) in &trace.stages {
                self.sink.record(Span::new(name, d));
            }
            let (name, items, detail) = match batch {
                None => (
                    "query",
                    info.vectors_scanned,
                    format!("plan={} k={k}", info.plan),
                ),
                Some(nq) => ("batch", nq, format!("queries={nq} k={k}")),
            };
            self.sink.record(Span {
                name,
                duration: total,
                bytes: info.bytes_scanned as u64,
                items: items as u64,
                fsyncs: 0,
                detail,
            });
        }
        if self.over_threshold(total) {
            self.slow_queries.inc();
            self.slow_log.push(SlowQueryRecord {
                plan: match batch {
                    None => info.plan.to_string(),
                    Some(nq) => format!("batch[{nq}]"),
                },
                k,
                total,
                stages: trace.stages.clone(),
                partitions_scanned: info.partitions_scanned,
                vectors_scanned: info.vectors_scanned,
                filtered_out: info.filtered_out,
                candidates: info.candidates,
                bytes_scanned: info.bytes_scanned,
                reranked: info.reranked,
            });
        }
    }

    /// Counts one completed maintenance action and emits its span.
    pub fn note_maintenance(
        &self,
        name: &'static str,
        duration: Duration,
        bytes: u64,
        items: u64,
        fsyncs: u64,
    ) {
        self.maint_actions.inc();
        self.action_counter(name).inc();
        self.maint_bytes.add(bytes);
        self.maint_fsyncs.add(fsyncs);
        if self.sink.enabled() {
            self.sink.record(Span {
                name,
                duration,
                bytes,
                items,
                fsyncs,
                detail: String::new(),
            });
        }
    }

    fn over_threshold(&self, total: Duration) -> bool {
        self.slow_query_ms
            .is_some_and(|ms| total >= Duration::from_millis(ms))
    }

    fn action_counter(&self, name: &'static str) -> Arc<Counter> {
        let mut cache = self.action_counters.lock();
        Arc::clone(cache.entry(name).or_insert_with(|| {
            let suffix = name.strip_prefix("maintain_").unwrap_or(name);
            self.registry
                .counter(&format!("micronn_maintenance_{suffix}_total"))
        }))
    }
}

/// The built-in sink installed by [`Config::trace`] (`MICRONN_TRACE=1`):
/// materializes every span into the registry as a per-span-name latency
/// histogram plus byte/fsync counters, so traces are scrapeable without
/// any custom sink.
struct RegistrySink {
    registry: Arc<Registry>,
    per_name: Mutex<HashMap<&'static str, SpanMetrics>>,
}

struct SpanMetrics {
    latency: Arc<Histogram>,
    bytes: Arc<Counter>,
    fsyncs: Arc<Counter>,
}

impl RegistrySink {
    fn new(registry: Arc<Registry>) -> RegistrySink {
        RegistrySink {
            registry,
            per_name: Mutex::new(HashMap::new()),
        }
    }
}

impl TraceSink for RegistrySink {
    fn record(&self, span: &Span) {
        let mut cache = self.per_name.lock();
        let m = cache.entry(span.name).or_insert_with(|| SpanMetrics {
            latency: self
                .registry
                .histogram(&format!("micronn_span_{}_ns", span.name)),
            bytes: self
                .registry
                .counter(&format!("micronn_span_{}_bytes_total", span.name)),
            fsyncs: self
                .registry
                .counter(&format!("micronn_span_{}_fsyncs_total", span.name)),
        });
        m.latency.record(span.duration.as_nanos() as u64);
        m.bytes.add(span.bytes);
        m.fsyncs.add(span.fsyncs);
    }
}

/// Open guard for a maintenance-action span; see
/// [`MicroNN::maint_span`].
pub(crate) struct MaintGuard {
    name: &'static str,
    start: Instant,
    io: micronn_storage::StoreStats,
}

impl MicroNN {
    /// Point-in-time snapshot of this index's telemetry registry:
    /// query counters and latency histograms, maintenance counters,
    /// and the storage engine's live I/O counters. Render it with
    /// [`RegistrySnapshot::to_prometheus`] or
    /// [`RegistrySnapshot::to_json`].
    pub fn telemetry(&self) -> RegistrySnapshot {
        self.inner.tel.registry.snapshot()
    }

    /// The most recent queries that crossed [`Config::slow_query_ms`],
    /// oldest first, each with its full per-stage breakdown.
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        self.inner.tel.slow_log.entries()
    }

    /// Installs (or with `None`, removes) a trace sink. The sink
    /// receives a [`Span`] per query stage, per WAL group commit, per
    /// checkpoint, and per maintenance action, across every handle to
    /// this index in this process.
    pub fn set_trace_sink(&self, sink: Option<Arc<dyn TraceSink>>) {
        self.inner.tel.sink.set(sink);
    }

    /// Opens a maintenance span named `name` (e.g. `maintain_flush`),
    /// sampling the store counters so the close attributes I/O deltas.
    pub(crate) fn maint_span(&self, name: &'static str) -> MaintGuard {
        MaintGuard {
            name,
            start: Instant::now(),
            io: self.inner.db.store().stats(),
        }
    }

    /// Closes a maintenance span: counts the action in the registry
    /// and emits a [`Span`] carrying pages-written bytes and fsyncs.
    pub(crate) fn maint_finish(&self, guard: MaintGuard, items: u64) {
        let io = self.inner.db.store().stats().since(&guard.io);
        self.inner.tel.note_maintenance(
            guard.name,
            guard.start.elapsed(),
            io.disk_writes() * micronn_storage::PAGE_SIZE as u64,
            items,
            io.syncs,
        );
    }
}
