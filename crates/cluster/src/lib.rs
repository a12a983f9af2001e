//! `micronn-cluster`: vector quantization for the MicroNN IVF index.
//!
//! Implements the paper's Algorithm 1 — mini-batch k-means (Sculley
//! \[35\]) with flexible balance constraints (Liu et al. \[22\]) over a
//! streaming [`VectorSource`] so that index construction runs in
//! `O(batch)` memory. It is the only clustering the index runs: a
//! build streams the whole collection through it, and a split
//! re-clusters one partition's rows with it over a [`SliceSource`],
//! the whole partition as one batch.

pub mod minibatch;
pub mod model;
pub mod source;

pub use minibatch::{assign_all, size_cv, train, MiniBatchConfig};
pub use model::Clustering;
pub use source::{SliceSource, SourceError, VectorSource};
