//! A from-scratch build, timed stage by stage: create → ingest chunks
//! → `rebuild()` → `checkpoint()` → reopen.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use micronn::MicroNN;

use crate::inputs::{Inputs, Scale, BUILD_CHUNKS};
use crate::vfs::CountingVfs;
use crate::workload::Workload;

/// Build stages, in order: create, the ingest chunks, rebuild,
/// checkpoint, reopen.
pub const STAGES: usize = BUILD_CHUNKS + 4;
pub const STAGE_REBUILD: usize = BUILD_CHUNKS + 1;
pub const STAGE_REOPEN: usize = BUILD_CHUNKS + 3;

/// One from-scratch build.
pub struct Built {
    pub db: MicroNN,
    pub vfs: Arc<CountingVfs>,
    pub stage_secs: [f64; STAGES],
    pub train_secs: f64,
}

/// Runs one stage and appends its wall-clock seconds.
fn timed<T>(
    stage_secs: &mut Vec<f64>,
    what: &str,
    stage: impl FnOnce() -> micronn::Result<T>,
) -> Result<T, String> {
    let t0 = Instant::now();
    let out = stage().map_err(|e| format!("{what}: {e}"))?;
    stage_secs.push(t0.elapsed().as_secs_f64());
    Ok(out)
}

pub fn build(w: &Workload, scale: &Scale, inputs: &Inputs, dir: &Path) -> Result<Built, String> {
    let vfs = CountingVfs::new();
    let cfg = w.config(scale, vfs.handle(), 1);
    let path = dir.join("db.mnn");
    let mut secs = Vec::with_capacity(STAGES);
    let db = timed(&mut secs, "create", || MicroNN::create(&path, cfg.clone()))?;
    for chunk in &inputs.chunks {
        timed(&mut secs, "ingest", || db.upsert_batch(chunk))?;
    }
    let report = timed(&mut secs, "rebuild", || db.rebuild())?;
    timed(&mut secs, "checkpoint", || db.checkpoint())?;
    let db = timed(&mut secs, "reopen", || {
        drop(db);
        MicroNN::open(&path, cfg)
    })?;
    Ok(Built {
        db,
        vfs,
        stage_secs: secs.try_into().expect("one entry per stage"),
        train_secs: report.train_time.as_secs_f64(),
    })
}
