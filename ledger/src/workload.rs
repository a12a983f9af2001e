//! The four workloads and the database configuration each one runs.

use std::sync::Arc;

use micronn::{AttributeDef, Config, Metric, SyncMode, ValueType, VectorCodec};
use micronn_storage::Vfs;

use crate::inputs::{Scale, WriteShape, BUCKET_ATTR, DIM, PROBES};

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub codec: VectorCodec,
    /// Buffer-pool budget in bytes.
    pub pool_bytes: usize,
    pub shape: WriteShape,
}

/// Pool far larger than the ~25 MB file: reads never miss.
const WARM_POOL: usize = 128 << 20;
/// Pool under a tenth of the file: reads miss and evict.
const TIGHT_POOL: usize = 2 << 20;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "warm_f32",
        why: "F32 codec, pool far above the file, empty delta at read time: f32 kernels, scan frame and B+tree leaf walk do the work",
        codec: VectorCodec::F32,
        pool_bytes: WARM_POOL,
        shape: WriteShape::Replace,
    },
    Workload {
        name: "warm_sq8",
        why: "same as warm_f32 under SQ8: u8 code scan plus exact rerank, the SQ8-vs-SQ4 data point",
        codec: VectorCodec::Sq8,
        pool_bytes: WARM_POOL,
        shape: WriteShape::Replace,
    },
    Workload {
        name: "warm_sq4",
        why: "same as warm_f32 under SQ4: tiny kernel, so frame, block decode and rerank dominate and an f32-kernel gain predicts no change",
        codec: VectorCodec::Sq4,
        pool_bytes: WARM_POOL,
        shape: WriteShape::Replace,
    },
    Workload {
        name: "tight_churn_f32",
        why: "F32, pool under a tenth of the file, 512 mixed writes per round beside the reads and a live delta: pool miss/evict, VFS, WAL and maintenance do the work",
        codec: VectorCodec::F32,
        pool_bytes: TIGHT_POOL,
        shape: WriteShape::Churn,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Whether writes run beside the reads with `maybe_maintain()` as
    /// the maintenance call (else: `flush_delta()` before every read).
    pub fn churns(&self) -> bool {
        self.shape == WriteShape::Churn
    }

    /// The database configuration, identical for every build and
    /// reopen of a run. Flush policy: `SyncMode::Normal`, no frame-
    /// triggered checkpoints (the explicit per-round checkpoint
    /// replaces them), all I/O through `vfs`.
    pub fn config(&self, scale: &Scale, vfs: Arc<dyn Vfs>, workers: usize) -> Config {
        let mut cfg = Config::new(DIM, Metric::L2);
        cfg.codec = self.codec;
        cfg.target_partition_size = 100;
        cfg.default_probes = PROBES;
        cfg.workers = workers;
        cfg.attributes = vec![AttributeDef::indexed(BUCKET_ATTR, ValueType::Integer)];
        if self.churns() {
            // Four fifths of a round's ops stage a row in the delta, so
            // half a slice (256 rows at full scale) is always crossed
            // when `maybe_maintain()` runs: churn flushes every round.
            cfg.delta_flush_threshold = scale.churn_writes / 2;
        }
        // Never inherit tracing from the environment: gated numbers are
        // taken with no sink installed.
        cfg.trace = false;
        cfg.slow_query_ms = None;
        cfg.store.pool_bytes = self.pool_bytes;
        cfg.store.sync = SyncMode::Normal;
        cfg.store.checkpoint_after_frames = 0;
        // No readahead worker: the load is one thread. On this 2-core
        // box the worker's wake-ups made `ann_ms` 8 % slower and twice
        // as noisy (README, "Load shape"); the traced run measures it
        // separately as `storage.readahead_speedup`.
        cfg.store.prefetch_queue_pages = 0;
        cfg.store.vfs = vfs;
        cfg
    }
}
