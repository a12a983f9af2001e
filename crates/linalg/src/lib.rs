//! `micronn-linalg`: SIMD-friendly numerics for the MicroNN
//! reproduction.
//!
//! The paper offloads distance computation to a hardware-accelerated
//! linear algebra library (its "Numerics Accelerator (SIMD)" box in
//! Figure 1). This crate plays that role portably:
//!
//! * [`distance`] — scalar and one-to-many distance kernels (L2,
//!   cosine, inner product) written as multi-accumulator loops that
//!   LLVM autovectorizes, and [`RowScorer`], which scores a stored row
//!   in place; every query path, batch groups of §3.4 included, scores
//!   f32 rows with these;
//! * [`matrix`] — the strip `Q·Rᵀ` kernel [`gemm_nt`], which no query
//!   path runs (the ledger times it);
//! * [`topk`] — bounded per-thread top-k heaps and the parallel merge
//!   of Algorithm 2;
//! * [`simd`] — the runtime dispatch layer: hand-written AVX2 (x86_64)
//!   and NEON (aarch64) kernels selected once per process, with the
//!   scalar reference loops as the portable (and bit-identical)
//!   fallback;
//! * [`sq8`] — per-dimension scalar quantization to u8 codes and the
//!   asymmetric f32×u8 kernels behind MicroNN's compressed-domain
//!   partition scans;
//! * [`sq4`] — the 4-bit fastscan codec: register-interleaved 32-row
//!   blocks scored via in-register shuffle lookups against quantized
//!   per-(query, partition) tables.

pub mod distance;
pub mod matrix;
pub mod simd;
pub mod sq4;
pub mod sq8;
pub mod topk;

pub use distance::{
    cosine_distance, distances_one_to_many, dot, l2_sq, norm, normalize, Metric, RowScorer,
};
pub use matrix::gemm_nt;
pub use simd::{kernels, scalar_kernels, Kernels};
pub use sq4::{
    get_block_code, set_block_code, sq4_block_bytes, sq4_train, Sq4Scorer, SQ4_BLOCK, SQ4_LEVELS,
    SQ4_MAX_DIM,
};
pub use sq8::{dot_norm_u8, dot_u8, l2_sq_u8, Sq8Encoder, Sq8Params, Sq8Scorer, SQ8_LEVELS};
pub use topk::{merge_all, Neighbor, TopK};
