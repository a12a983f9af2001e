//! `micronn-cluster`: vector quantization for the MicroNN IVF index.
//!
//! Implements the paper's Algorithm 1 — mini-batch k-means (Sculley
//! \[35\]) with flexible balance constraints (Liu et al. \[22\]) over a
//! streaming [`VectorSource`] so that index construction runs in
//! `O(batch)` memory — plus full-memory Lloyd's k-means for the one
//! small set the index clusters in RAM: one partition's rows in a
//! split's local re-clustering.

pub mod lloyd;
pub mod minibatch;
pub mod model;
pub mod source;

pub use lloyd::LloydConfig;
pub use minibatch::{assign_all, size_cv, train, MiniBatchConfig};
pub use model::Clustering;
pub use source::{SliceSource, SourceError, VectorSource};
