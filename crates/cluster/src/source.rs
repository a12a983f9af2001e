//! Streaming access to training vectors.
//!
//! The whole point of the paper's indexing algorithm (§3.1) is that
//! clustering must not require "the entire vector set to be buffered in
//! memory". [`VectorSource`] abstracts random-access batch gathering so
//! mini-batch k-means can stream samples straight from the disk
//!-resident vector table; [`SliceSource`] adapts an in-memory matrix
//! for benchmarks and tests.

use std::fmt;

/// Error raised by a vector source (e.g. a storage failure while
/// gathering a batch from disk).
#[derive(Debug)]
pub struct SourceError(pub Box<dyn std::error::Error + Send + Sync + 'static>);

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vector source error: {}", self.0)
    }
}

impl std::error::Error for SourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.0.as_ref())
    }
}

impl SourceError {
    /// Wraps any error as a source error.
    pub fn new(e: impl std::error::Error + Send + Sync + 'static) -> SourceError {
        SourceError(Box::new(e))
    }

    /// Wraps a message as a source error.
    pub fn msg(m: impl Into<String>) -> SourceError {
        #[derive(Debug)]
        struct Msg(String);
        impl fmt::Display for Msg {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }
        impl std::error::Error for Msg {}
        SourceError(Box::new(Msg(m.into())))
    }
}

/// Random-access batched vector supplier.
pub trait VectorSource {
    /// Number of vectors available.
    fn len(&self) -> usize;

    /// True when the source holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Appends the vectors at `ids` (row-major) to `out`. `out` is
    /// cleared first; after return it holds `ids.len() * dim` floats.
    fn gather(&self, ids: &[usize], out: &mut Vec<f32>) -> Result<(), SourceError>;
}

/// A [`VectorSource`] over a flat in-memory row-major matrix.
pub struct SliceSource<'a> {
    data: &'a [f32],
    dim: usize,
}

impl<'a> SliceSource<'a> {
    /// Wraps `data` (`len × dim`, row-major).
    pub fn new(data: &'a [f32], dim: usize) -> SliceSource<'a> {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "data length not a multiple of dim");
        SliceSource { data, dim }
    }
}

impl VectorSource for SliceSource<'_> {
    fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn gather(&self, ids: &[usize], out: &mut Vec<f32>) -> Result<(), SourceError> {
        out.clear();
        out.reserve(ids.len() * self.dim);
        for &id in ids {
            let start = id * self.dim;
            let row = self
                .data
                .get(start..start + self.dim)
                .ok_or_else(|| SourceError::msg(format!("vector id {id} out of range")))?;
            out.extend_from_slice(row);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_source_gathers() {
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let s = SliceSource::new(&data, 3);
        assert_eq!(s.len(), 4);
        assert_eq!(s.dim(), 3);
        let mut out = vec![99.0];
        s.gather(&[2, 0], &mut out).unwrap();
        assert_eq!(out, vec![6.0, 7.0, 8.0, 0.0, 1.0, 2.0]);
        assert!(s.gather(&[4], &mut out).is_err());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bad_shape_panics() {
        SliceSource::new(&[1.0; 7], 3);
    }

    #[test]
    fn error_wrapping() {
        let e = SourceError::msg("boom");
        assert!(e.to_string().contains("boom"));
        let io = std::io::Error::other("disk");
        let e = SourceError::new(io);
        assert!(std::error::Error::source(&e).is_some());
    }
}
