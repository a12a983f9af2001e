//! Configuration: index parameters, attribute schema, and device
//! profiles.

use micronn_linalg::{Metric, SQ4_MAX_DIM};
use micronn_rel::ValueType;
use micronn_storage::{StoreOptions, SyncMode};

use crate::codec::VectorCodec;

/// A client-defined filterable attribute (§3.5): a typed column in the
/// attributes table, optionally b-tree indexed and/or full-text
/// indexed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeDef {
    pub name: String,
    pub ty: ValueType,
    /// Create a secondary b-tree index over this attribute.
    pub indexed: bool,
    /// Create a full-text index over this attribute (TEXT only).
    pub fts: bool,
}

impl AttributeDef {
    /// A plain (unindexed) attribute.
    pub fn new(name: impl Into<String>, ty: ValueType) -> AttributeDef {
        AttributeDef {
            name: name.into(),
            ty,
            indexed: false,
            fts: false,
        }
    }

    /// A b-tree indexed attribute.
    pub fn indexed(name: impl Into<String>, ty: ValueType) -> AttributeDef {
        AttributeDef {
            name: name.into(),
            ty,
            indexed: true,
            fts: false,
        }
    }

    /// A full-text indexed TEXT attribute.
    pub fn full_text(name: impl Into<String>) -> AttributeDef {
        AttributeDef {
            name: name.into(),
            ty: ValueType::Text,
            indexed: false,
            fts: true,
        }
    }
}

/// Configuration for creating a MicroNN index.
#[derive(Debug, Clone)]
pub struct Config {
    /// Vector dimensionality (fixed at creation).
    pub dim: usize,
    /// Distance metric (fixed at creation).
    pub metric: Metric,
    /// How vector payloads are stored and scanned (fixed at creation):
    /// full-precision [`VectorCodec::F32`], or quantized
    /// [`VectorCodec::Sq8`] / [`VectorCodec::Sq4`] with exact
    /// re-ranking.
    pub codec: VectorCodec,
    /// Quantized scans keep `rerank_factor × k` candidates and re-rank
    /// them against exact f32 vectors (ignored by [`VectorCodec::F32`];
    /// paper-style default: 4).
    pub rerank_factor: usize,
    /// Target vectors per IVF partition `t` (paper default: 100).
    pub target_partition_size: usize,
    /// Default number of partitions probed per ANN query `n`.
    pub default_probes: usize,
    /// Worker threads for parallel partition scans; `0` = one per
    /// available core (capped at 8, an on-device-friendly bound).
    pub workers: usize,
    /// Flush the delta store into the IVF index once it holds this many
    /// vectors (`maybe_maintain`; must be positive).
    pub delta_flush_threshold: usize,
    /// Enable local partition lifecycle maintenance (§3.6 extended):
    /// oversized partitions are split by local re-clustering and
    /// undersized partitions merged into their nearest neighbour, so
    /// growth rarely escalates to a full rebuild. The paper's growth
    /// trigger, a rebuild once the average partition size reaches 1.5×
    /// its post-build baseline, is then a rare fallback; without
    /// lifecycle maintenance it is the only answer to growth.
    pub lifecycle: bool,
    /// Split a partition once it holds more than
    /// `split_limit × target_partition_size` vectors (must exceed 1.0).
    pub split_limit: f64,
    /// Merge a partition once it holds fewer than
    /// `merge_limit × target_partition_size` vectors (in `[0, 1)`;
    /// `0` disables merging).
    pub merge_limit: f64,
    /// Client-defined filterable attributes.
    pub attributes: Vec<AttributeDef>,
    /// Queries slower than this many milliseconds are captured (with
    /// their full per-stage breakdown) in the slow-query ring log;
    /// `Some(0)` logs every query, `None` (the default) disables the
    /// log. Setting a threshold also enables stage timing.
    pub slow_query_ms: Option<u64>,
    /// Route spans (query stages, WAL group commits, checkpoints,
    /// maintenance actions) into the telemetry registry from the
    /// moment the index opens. Defaults to the `MICRONN_TRACE`
    /// environment variable (any value but `0` enables); a custom
    /// sink can be installed later via `MicroNN::set_trace_sink`.
    pub trace: bool,
    /// Storage engine tuning (buffer-pool bytes, sync mode, ...).
    pub store: StoreOptions,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            dim: 0,
            metric: Metric::L2,
            codec: VectorCodec::F32,
            rerank_factor: 4,
            target_partition_size: 100,
            default_probes: 8,
            workers: 0,
            delta_flush_threshold: 1024,
            lifecycle: true,
            split_limit: 1.5,
            merge_limit: 0.25,
            attributes: Vec::new(),
            slow_query_ms: None,
            trace: std::env::var("MICRONN_TRACE").is_ok_and(|v| !v.is_empty() && v != "0"),
            store: StoreOptions::default(),
        }
    }
}

impl Config {
    /// A config with the required fields set.
    pub fn new(dim: usize, metric: Metric) -> Config {
        Config {
            dim,
            metric,
            ..Default::default()
        }
    }

    /// Checks the invariants [`MicroNN::create`](crate::MicroNN::create)
    /// and [`MicroNN::open`](crate::MicroNN::open) both enforce (`open`
    /// after loading the persisted parameters).
    pub fn validate(&self) -> crate::error::Result<()> {
        if self.dim == 0 {
            return Err(crate::error::Error::Config("dim must be positive".into()));
        }
        if self.target_partition_size == 0 {
            return Err(crate::error::Error::Config(
                "target_partition_size must be positive".into(),
            ));
        }
        if self.delta_flush_threshold == 0 {
            return Err(crate::error::Error::Config(
                "delta_flush_threshold must be positive".into(),
            ));
        }
        if self.codec == VectorCodec::Sq4 && self.dim >= SQ4_MAX_DIM {
            return Err(crate::error::Error::Config(format!(
                "sq4 supports dim < {SQ4_MAX_DIM}, got {}",
                self.dim
            )));
        }
        if self.rerank_factor == 0 {
            return Err(crate::error::Error::Config(
                "rerank_factor must be positive".into(),
            ));
        }
        if self.split_limit <= 1.0 {
            return Err(crate::error::Error::Config(
                "split_limit must exceed 1.0".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.merge_limit) {
            return Err(crate::error::Error::Config(
                "merge_limit must be in [0, 1)".into(),
            ));
        }
        let mut names = std::collections::HashSet::new();
        for a in &self.attributes {
            if !names.insert(a.name.as_str()) {
                return Err(crate::error::Error::Config(format!(
                    "duplicate attribute {}",
                    a.name
                )));
            }
            if a.fts && a.ty != ValueType::Text {
                return Err(crate::error::Error::Config(format!(
                    "attribute {}: fts requires TEXT",
                    a.name
                )));
            }
            if a.name == "asset" {
                return Err(crate::error::Error::Config(
                    "attribute name 'asset' is reserved".into(),
                ));
            }
        }
        Ok(())
    }

    /// Effective worker-thread count.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(2)
                .min(8)
        }
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates_with_dim() {
        assert!(Config::new(128, Metric::L2).validate().is_ok());
        assert!(Config::default().validate().is_err(), "dim 0 rejected");
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = Config::new(8, Metric::L2);
        c.target_partition_size = 0;
        assert!(c.validate().is_err());
        let mut c = Config::new(8, Metric::L2);
        c.delta_flush_threshold = 0;
        assert!(c.validate().is_err(), "delta_flush_threshold 0");
        let mut c = Config::new(8, Metric::L2);
        c.attributes = vec![
            AttributeDef::new("a", ValueType::Integer),
            AttributeDef::new("a", ValueType::Text),
        ];
        assert!(c.validate().is_err(), "duplicate attr");
        let mut c = Config::new(8, Metric::L2);
        c.attributes = vec![AttributeDef {
            name: "x".into(),
            ty: ValueType::Integer,
            indexed: false,
            fts: true,
        }];
        assert!(c.validate().is_err(), "fts on non-text");
        let mut c = Config::new(8, Metric::L2);
        c.attributes = vec![AttributeDef::new("asset", ValueType::Integer)];
        assert!(c.validate().is_err(), "reserved name");
        let mut c = Config::new(8, Metric::L2);
        c.rerank_factor = 0;
        assert!(c.validate().is_err(), "rerank_factor 0");
        let mut c = Config::new(8, Metric::L2);
        c.split_limit = 1.0;
        assert!(c.validate().is_err(), "split_limit <= 1");
        let mut c = Config::new(8, Metric::L2);
        c.merge_limit = 1.0;
        assert!(c.validate().is_err(), "merge_limit >= 1");
    }

    #[test]
    fn sq4_dim_is_bounded_by_the_scorer_headroom() {
        for (codec, dim, ok) in [
            (VectorCodec::Sq4, SQ4_MAX_DIM - 1, true),
            (VectorCodec::Sq4, SQ4_MAX_DIM, false),
            (VectorCodec::Sq4, 65_536, false),
            (VectorCodec::Sq8, SQ4_MAX_DIM, true),
            (VectorCodec::F32, 65_536, true),
        ] {
            let mut c = Config::new(dim, Metric::L2);
            c.codec = codec;
            let got = c.validate();
            assert_eq!(got.is_ok(), ok, "{codec} dim {dim}: {got:?}");
            if let Err(e) = got {
                assert!(matches!(e, crate::error::Error::Config(_)), "{e:?}");
            }
        }
    }

    #[test]
    fn lifecycle_defaults() {
        let c = Config::new(8, Metric::L2);
        assert!(c.lifecycle);
        assert!(c.split_limit > 1.0);
        assert!((0.0..1.0).contains(&c.merge_limit));
        let mut c = Config::new(8, Metric::L2);
        c.merge_limit = 0.0; // merging disabled
        assert!(c.validate().is_ok());
    }

    #[test]
    fn codec_defaults_and_sq8_config() {
        let c = Config::new(8, Metric::L2);
        assert_eq!(c.codec, VectorCodec::F32);
        assert_eq!(c.rerank_factor, 4);
        let mut c = Config::new(8, Metric::L2);
        c.codec = VectorCodec::Sq8;
        assert!(c.validate().is_ok());
        c.codec = VectorCodec::Sq4;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn telemetry_defaults() {
        let c = Config::new(8, Metric::L2);
        assert_eq!(c.slow_query_ms, None, "slow-query log off by default");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn attribute_constructors() {
        let a = AttributeDef::indexed("loc", ValueType::Text);
        assert!(a.indexed && !a.fts);
        let a = AttributeDef::full_text("tags");
        assert!(a.fts && a.ty == ValueType::Text);
    }

    #[test]
    fn workers_defaulting() {
        let c = Config::new(4, Metric::L2);
        assert!(c.effective_workers() >= 1);
        let c = Config {
            workers: 3,
            ..Config::new(4, Metric::L2)
        };
        assert_eq!(c.effective_workers(), 3);
    }

    #[test]
    fn device_profiles_differ() {
        let s = DeviceProfile::Small.store_options();
        let l = DeviceProfile::Large.store_options();
        assert!(s.pool_bytes < l.pool_bytes);
        assert!(DeviceProfile::Small.workers() <= DeviceProfile::Large.workers());
    }
}
