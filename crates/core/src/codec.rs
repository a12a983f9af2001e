//! The pluggable vector-codec layer of the scan pipeline.
//!
//! A [`VectorCodec`] decides how partition scans read vectors:
//!
//! * [`VectorCodec::F32`] — scans decode the raw f32 payload exactly
//!   as the paper's §3.3 loop does (the default).
//! * [`VectorCodec::Sq8`] — each indexed partition additionally keeps
//!   per-dimension scalar-quantized u8 codes in a *separate* clustered
//!   table (`codes`), laid out independently from the f32 payload so a
//!   quantized scan reads ~4× fewer bytes. Scans score codes with the
//!   asymmetric kernels of [`micronn_linalg::sq8`], then re-rank the
//!   top `rerank_factor · k` candidates against the exact vectors.
//! * [`VectorCodec::Sq4`] — 4-bit fastscan codes (~8× smaller than
//!   f32), stored as register-interleaved 32-row blocks
//!   ([`micronn_linalg::sq4`]). Scans score whole blocks via
//!   in-register shuffle lookups and re-rank exactly, like SQ8.
//!
//! `catalog.rs` owns how codes and ranges are laid out on disk; this
//! module is the only other one that tells SQ8 and SQ4 apart.
//!
//! The codec choice is part of the index catalog (persisted in the
//! `meta` table at creation, validated when a database is opened) and
//! is honoured by every layer that touches vector bytes: ingestion,
//! rebuild, delta flush, single-query search, batch MQO, and hybrid
//! plans. Both quantized codecs share the [`Sq8Params`] per-partition
//! affine-range representation; only the level count differs. Ranges are
//! retrained whenever maintenance rewrites a partition wholesale
//! (rebuild, split, merge, drift retrain); a delta flush appends new
//! rows *under the existing ranges* and reports how many clamped, so
//! the maintainer can schedule a retrain when ranges drift.

use micronn_linalg::{
    get_block_code, set_block_code, sq4_train, Sq8Params, SQ4_BLOCK, SQ4_LEVELS, SQ8_LEVELS,
};
use micronn_storage::PageRead;

use crate::catalog::{Block, Loc, Member, Tables, Writer};
use crate::error::Result;

/// How vector payloads are stored and scanned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VectorCodec {
    /// Full-precision f32 vectors only (the paper's layout).
    #[default]
    F32,
    /// f32 vectors plus per-partition scalar-quantized u8 codes;
    /// scans run in the compressed domain and re-rank exactly.
    Sq8,
    /// f32 vectors plus blocked 4-bit fastscan codes; scans run LUT
    /// lookups over packed 32-row blocks and re-rank exactly.
    Sq4,
}

impl VectorCodec {
    /// Catalog name of the codec.
    pub fn name(&self) -> &'static str {
        match self {
            VectorCodec::F32 => "f32",
            VectorCodec::Sq8 => "sq8",
            VectorCodec::Sq4 => "sq4",
        }
    }

    /// Parses a catalog name.
    pub fn parse(name: &str) -> Option<VectorCodec> {
        match name.to_ascii_lowercase().as_str() {
            "f32" => Some(VectorCodec::F32),
            "sq8" => Some(VectorCodec::Sq8),
            "sq4" => Some(VectorCodec::Sq4),
            _ => None,
        }
    }

    /// Whether scans read quantized codes instead of raw vectors.
    pub fn is_quantized(&self) -> bool {
        matches!(self, VectorCodec::Sq8 | VectorCodec::Sq4)
    }

    /// Whether codes are 32-slot fastscan blocks, one `(partition,
    /// block)` row each (SQ4), rather than one row per vector (SQ8).
    pub(crate) fn blocked(&self) -> bool {
        *self == VectorCodec::Sq4
    }

    /// Code levels per dimension for quantized codecs.
    pub(crate) fn levels(&self) -> u32 {
        match self {
            VectorCodec::Sq4 => SQ4_LEVELS,
            _ => SQ8_LEVELS,
        }
    }

    /// Trains quantization ranges for this codec.
    pub(crate) fn train(&self, data: &[f32], dim: usize) -> Sq8Params {
        match self {
            VectorCodec::Sq4 => sq4_train(data, dim),
            _ => Sq8Params::train(data, dim),
        }
    }
}

impl std::fmt::Display for VectorCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Retrains the quantization ranges of `partition` from its current
/// f32 rows and rewrites the partition's codes — the codec-aware half
/// of every maintenance operation that rewrites a partition wholesale
/// (rebuild, split, merge, drift retrain). Returns the number of
/// encoded vectors. No-op (returning 0) for non-quantized catalogs.
pub(crate) fn encode_partition(w: &mut Writer<'_>, partition: i64) -> Result<usize> {
    let tables = w.tables();
    let (codec, dim) = (tables.codec(), tables.dim());
    if !codec.is_quantized() {
        return Ok(0);
    }
    // Phase 1 (read-only): collect the partition's members (key order
    // → ascending vid, so block/slot assignment is deterministic).
    let members = tables.members(w, partition)?;
    // Phase 2 (write): retrain ranges, then append every member to a
    // partition without codes.
    let mut flat = Vec::with_capacity(members.len() * dim);
    for m in &members {
        flat.extend_from_slice(&m.vector);
    }
    let params = codec.train(&flat, dim);
    w.put_params(partition, &params)?;
    if codec.blocked() {
        // Blocks are rewritten wholesale: drop the partition's old
        // blocks (slot occupancy may have shifted), so the append packs
        // members 32 at a time from block 0.
        for stale in tables.code_keys(w, partition)? {
            w.remove_code_row(partition, stale)?;
        }
    }
    // SQ8 code rows are always a subset of the partition's current
    // members — rebuild wipes them all first, a flush only adds rows,
    // and upsert/delete remove a row's code in the same transaction —
    // so upserting by (partition, vid) replaces every live code and no
    // stale sweep is needed.
    append_partition(w, partition, &params, &members)?;
    Ok(members.len())
}

/// Encodes newly-flushed rows into `partition`'s code storage *under
/// its existing ranges* (no retrain — that is the maintainer's drift
/// decision). `rows` must be the members just moved into the
/// partition, in ascending-vid order. Returns how many rows clamp in
/// at least one dimension — the quantizer range-drift signal.
pub(crate) fn append_partition(
    w: &mut Writer<'_>,
    partition: i64,
    params: &Sq8Params,
    rows: &[Member],
) -> Result<usize> {
    let tables = w.tables();
    let (codec, dim) = (tables.codec(), tables.dim());
    let enc = params.encoder(codec.levels());
    let mut code_buf = Vec::with_capacity(dim);
    let mut clamped = 0usize;
    match codec {
        VectorCodec::Sq4 => {
            // Fill tombstoned/empty slots of existing blocks in
            // (block, slot) order, then append fresh blocks.
            let (mut open, mut fresh) = (Vec::new(), 0);
            tables.scan_blocks(w, Some(partition), |b| {
                fresh = b.id + 1; // key order: the last block has the largest id
                if b.live().count() < SQ4_BLOCK {
                    open.push(b.into_owned());
                }
                Ok(())
            })?;
            let (mut open, mut queue) = (open.into_iter(), rows.iter());
            while queue.len() > 0 {
                let mut block = open.next().unwrap_or_else(|| {
                    fresh += 1;
                    Block::empty(partition, fresh - 1, dim)
                });
                for slot in 0..SQ4_BLOCK {
                    if block.slot(slot).0 != 0 {
                        continue;
                    }
                    let Some(m) = queue.next() else { break };
                    block.set_slot(slot, m.vid, m.asset);
                    code_buf.clear();
                    clamped += enc.encode_row(&m.vector, &mut code_buf) as usize;
                    // `set_block_code` clears the slot's stale nibble
                    // before writing, so tombstone leftovers vanish.
                    for (d, &c) in code_buf.iter().enumerate() {
                        set_block_code(block.packed.to_mut(), d, slot, c);
                    }
                }
                w.put_block(block)?;
            }
        }
        _ => {
            for m in rows {
                code_buf.clear();
                clamped += enc.encode_row(&m.vector, &mut code_buf) as usize;
                w.put_code((partition, m.vid), m.asset, &code_buf)?;
            }
        }
    }
    Ok(clamped)
}

/// Removes one vector's code when it leaves an indexed partition
/// (replacement or delete). SQ8 deletes the `(partition, vid)` row;
/// SQ4 tombstones the vid's slot in its block directory (stale
/// nibbles stay behind and are masked by liveness). No-op for
/// non-quantized catalogs.
pub(crate) fn remove_code(w: &mut Writer<'_>, (partition, vid): Loc) -> Result<()> {
    let tables = w.tables();
    match tables.codec() {
        VectorCodec::F32 => {}
        VectorCodec::Sq8 => {
            w.remove_code_row(partition, vid)?;
        }
        VectorCodec::Sq4 => {
            let mut hit = None;
            tables.scan_blocks(w, Some(partition), |block| {
                let slot = (0..SQ4_BLOCK).find(|&j| block.slot(j).0 == vid);
                if let (None, Some(slot)) = (&hit, slot) {
                    hit = Some((block.into_owned(), slot));
                }
                Ok(())
            })?;
            if let Some((mut block, slot)) = hit {
                block.set_slot(slot, 0, 0);
                w.put_block(block)?;
            }
        }
    }
    Ok(())
}

/// Visits every live code of a quantized catalog in key order as
/// `(location, asset, code)`, one byte per dimension (an SQ8 row as
/// stored, an SQ4 slot's nibbles unpacked), for `verify_integrity`.
pub(crate) fn visit_codes<R: PageRead + ?Sized>(
    tables: &Tables,
    r: &R,
    mut f: impl FnMut(Loc, i64, &[u8]),
) -> Result<()> {
    if !tables.codec().blocked() {
        return tables.scan_codes(r, None, |at, asset, code| {
            f(at, asset, code);
            Ok(())
        });
    }
    let mut code = Vec::with_capacity(tables.dim());
    tables.scan_blocks(r, None, |block| {
        for (slot, vid, asset) in block.live() {
            code.clear();
            code.extend((0..tables.dim()).map(|d| get_block_code(&block.packed, d, slot)));
            f((block.partition, vid), asset, &code);
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_names_round_trip() {
        for codec in [VectorCodec::F32, VectorCodec::Sq8, VectorCodec::Sq4] {
            assert_eq!(VectorCodec::parse(codec.name()), Some(codec));
        }
        assert_eq!(VectorCodec::parse("SQ8"), Some(VectorCodec::Sq8));
        assert_eq!(VectorCodec::parse("SQ4"), Some(VectorCodec::Sq4));
        assert_eq!(VectorCodec::parse("pq"), None);
        assert_eq!(VectorCodec::default(), VectorCodec::F32);
        assert!(!VectorCodec::F32.is_quantized());
        assert!(VectorCodec::Sq8.is_quantized());
        assert!(VectorCodec::Sq4.is_quantized());
        assert_eq!(VectorCodec::Sq4.levels(), 15);
        assert_eq!(VectorCodec::Sq8.levels(), 255);
    }
}
