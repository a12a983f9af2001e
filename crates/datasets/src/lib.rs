//! `micronn-datasets`: synthetic evaluation workloads for the MicroNN
//! reproduction.
//!
//! The paper evaluates on public benchmarks (MNIST, NYTimes, SIFT,
//! GLOVE, GIST, DEEPImage — Table 2), one Apple-internal corpus
//! (InternalA), and the Big-ANN Filtered Search track (Figure 7). None
//! of those can ship here, so this crate provides seeded synthetic
//! stand-ins with matching dimensionality, metric and (scalable) row
//! counts, plus exact ground truth and recall computation. The
//! [`synthetic`] and [`tags`] module docs say why each substitution
//! preserves the behaviour under test.

pub mod ground_truth;
pub mod synthetic;
pub mod tags;

pub use ground_truth::{exact_topk, ground_truth, mean_recall, recall};
pub use synthetic::{gaussian, generate, internal_a, table2_specs, Dataset, DatasetSpec};
pub use tags::{filtered_tags, TagQuery, TagWorkload, TaggedAsset};
