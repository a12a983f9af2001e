//! Compact row (record) encoding.
//!
//! Rows store every column (including primary-key columns, for
//! simplicity of decoding) as `tag | payload`:
//!
//! ```text
//! row     := ncols:u16 (value)*
//! value   := 0x00                      NULL
//!          | 0x01 i64:le               INTEGER
//!          | 0x02 f64:le               REAL
//!          | 0x03 len:u32 utf8-bytes   TEXT
//!          | 0x04 len:u32 bytes        BLOB
//! ```
//!
//! Unlike keys, rows need no ordering property — only compactness and
//! cheap decode. Vector blobs are stored as raw little-endian `f32`
//! bytes inside a BLOB so the query engine can reinterpret them without
//! a marshalling copy (the paper's "format expected by the matrix
//! multiplication library", §3.3).

use crate::error::{RelError, Result};
use crate::predicate::Columns;
use crate::value::{Value, ValueRef};

/// Encodes a row of values.
pub fn encode_row(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + values.len() * 9);
    out.extend_from_slice(&(values.len() as u16).to_le_bytes());
    for v in values {
        match v {
            Value::Null => out.push(0x00),
            Value::Integer(i) => {
                out.push(0x01);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Real(r) => {
                out.push(0x02);
                out.extend_from_slice(&r.to_le_bytes());
            }
            Value::Text(s) => {
                out.push(0x03);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Blob(b) => {
                out.push(0x04);
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
        }
    }
    out
}

/// Decodes a row produced by [`encode_row`].
pub fn decode_row(data: &[u8]) -> Result<Vec<Value>> {
    let mut dec = RowDecoder::new(data)?;
    let mut out = Vec::with_capacity(dec.remaining());
    while dec.remaining() > 0 {
        out.push(dec.next_value()?);
    }
    Ok(out)
}

/// Streaming row decoder; lets callers pull only the columns they need
/// (e.g. just the vector blob during a partition scan).
pub struct RowDecoder<'a> {
    data: &'a [u8],
    pos: usize,
    remaining: usize,
}

impl<'a> RowDecoder<'a> {
    /// Starts decoding `data`.
    pub fn new(data: &'a [u8]) -> Result<RowDecoder<'a>> {
        if data.len() < 2 {
            return Err(RelError::Codec("row too short".into()));
        }
        let n = u16::from_le_bytes(data[..2].try_into().unwrap()) as usize;
        Ok(RowDecoder {
            data,
            pos: 2,
            remaining: n,
        })
    }

    /// Columns not yet decoded.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.data.len() {
            return Err(RelError::Codec("row truncated".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decodes the next column as an owned [`Value`].
    #[inline]
    pub fn next_value(&mut self) -> Result<Value> {
        Ok(self.next_ref()?.to_value())
    }

    /// Decodes the next column borrowing text and blob content from
    /// the row bytes.
    #[inline]
    pub fn next_ref(&mut self) -> Result<ValueRef<'a>> {
        if self.remaining == 0 {
            return Err(RelError::Codec("row exhausted".into()));
        }
        self.remaining -= 1;
        let tag = self.take(1)?[0];
        Ok(match tag {
            0x00 => ValueRef::Null,
            0x01 => ValueRef::Integer(i64::from_le_bytes(self.take(8)?.try_into().unwrap())),
            0x02 => ValueRef::Real(f64::from_le_bytes(self.take(8)?.try_into().unwrap())),
            0x03 => {
                let len = u32::from_le_bytes(self.take(4)?.try_into().unwrap()) as usize;
                let bytes = self.take(len)?;
                ValueRef::Text(
                    std::str::from_utf8(bytes)
                        .map_err(|_| RelError::Codec("invalid utf-8 in row".into()))?,
                )
            }
            0x04 => {
                let len = u32::from_le_bytes(self.take(4)?.try_into().unwrap()) as usize;
                ValueRef::Blob(self.take(len)?)
            }
            t => return Err(RelError::Codec(format!("unknown row tag {t:#x}"))),
        })
    }

    /// Decodes the next column as a borrowed blob slice, avoiding the
    /// copy. Errors if the column is not a BLOB.
    pub fn next_blob(&mut self) -> Result<&'a [u8]> {
        if self.remaining == 0 {
            return Err(RelError::Codec("row exhausted".into()));
        }
        self.remaining -= 1;
        let tag = self.take(1)?[0];
        if tag != 0x04 {
            return Err(RelError::Codec(format!(
                "expected blob column, found tag {tag:#x}"
            )));
        }
        let len = u32::from_le_bytes(self.take(4)?.try_into().unwrap()) as usize;
        self.take(len)
    }

    /// Skips the next column without materializing it.
    pub fn skip(&mut self) -> Result<()> {
        if self.remaining == 0 {
            return Err(RelError::Codec("row exhausted".into()));
        }
        self.remaining -= 1;
        let tag = self.take(1)?[0];
        match tag {
            0x00 => {}
            0x01 | 0x02 => {
                self.take(8)?;
            }
            0x03 | 0x04 => {
                let len = u32::from_le_bytes(self.take(4)?.try_into().unwrap()) as usize;
                self.take(len)?;
            }
            t => return Err(RelError::Codec(format!("unknown row tag {t:#x}"))),
        }
        Ok(())
    }
}

/// Reads a row of exactly `N` INTEGER columns followed by one BLOB —
/// the shape of the clustered payload tables, `(partition, vid, asset,
/// vec)` — by one shape check and constant offsets instead of a
/// [`RowDecoder`] pass: this is what a partition scan pays per row.
/// Any other shape (a NULL, another type, a blob length that disagrees
/// with the row's) is an error.
pub fn ints_then_blob<const N: usize>(data: &[u8]) -> Result<([i64; N], &[u8])> {
    let blob_at = 2 + 9 * N + 5;
    let shaped = data.len() >= blob_at
        && data[..2] == (N as u16 + 1).to_le_bytes()
        && (0..N).all(|i| data[2 + 9 * i] == 0x01)
        && data[2 + 9 * N] == 0x04
        && u32::from_le_bytes(data[blob_at - 4..blob_at].try_into().unwrap()) as usize
            == data.len() - blob_at;
    if !shaped {
        return Err(RelError::Codec(format!(
            "row is not {N} integers and a blob"
        )));
    }
    let int = |i: usize| i64::from_le_bytes(data[3 + 9 * i..11 + 9 * i].try_into().unwrap());
    Ok((std::array::from_fn(int), &data[blob_at..]))
}

/// An encoded row checked once ([`EncodedRow::new`] walks every column)
/// and then read column by column in place: what a predicate evaluates
/// against when the row came straight out of a leaf page and building a
/// `Vec<Value>` would be the dominant cost.
#[derive(Debug, Clone, Copy)]
pub struct EncodedRow<'a> {
    data: &'a [u8],
}

impl<'a> EncodedRow<'a> {
    /// Validates `data` as a row produced by [`encode_row`].
    pub fn new(data: &'a [u8]) -> Result<EncodedRow<'a>> {
        let mut dec = RowDecoder::new(data)?;
        while dec.remaining() > 0 {
            dec.next_ref()?;
        }
        Ok(EncodedRow { data })
    }
}

impl Columns for EncodedRow<'_> {
    fn column(&self, col: usize) -> ValueRef<'_> {
        let read = || -> Result<ValueRef<'_>> {
            let mut dec = RowDecoder::new(self.data)?;
            for _ in 0..col {
                dec.skip()?;
            }
            dec.next_ref()
        };
        // `new` decoded every column, so only a column past the row's
        // end lands here; it reads as NULL (no comparison matches).
        read().unwrap_or(ValueRef::Null)
    }
}

/// Reinterprets a little-endian `f32` blob as a float vector. Copies
/// (alignment-safe) but performs no per-element marshalling.
pub fn blob_to_f32(blob: &[u8]) -> Result<Vec<f32>> {
    if blob.len() % 4 != 0 {
        return Err(RelError::Codec(format!(
            "vector blob length {} not a multiple of 4",
            blob.len()
        )));
    }
    Ok(blob
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Encodes a float vector as a little-endian `f32` blob.
pub fn f32_to_blob(v: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Decodes a little-endian `f32` blob directly into `out` (reuses the
/// caller's buffer: the scan hot path avoids per-row allocation).
pub fn blob_into_f32(blob: &[u8], out: &mut Vec<f32>) -> Result<()> {
    if blob.len() % 4 != 0 {
        return Err(RelError::Codec(format!(
            "vector blob length {} not a multiple of 4",
            blob.len()
        )));
    }
    out.clear();
    out.extend(
        blob.chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap())),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let row = vec![
            Value::Null,
            Value::Integer(i64::MIN),
            Value::Real(-2.5e77),
            Value::text("héllo"),
            Value::blob(vec![0u8, 1, 255]),
            Value::text(""),
            Value::blob(vec![]),
        ];
        assert_eq!(decode_row(&encode_row(&row)).unwrap(), row);
    }

    #[test]
    fn streaming_decoder_skip_and_blob() {
        let row = vec![
            Value::Integer(7),
            Value::blob(vec![9u8; 64]),
            Value::text("tail"),
        ];
        let bytes = encode_row(&row);
        let mut dec = RowDecoder::new(&bytes).unwrap();
        assert_eq!(dec.remaining(), 3);
        dec.skip().unwrap();
        let blob = dec.next_blob().unwrap();
        assert_eq!(blob, &[9u8; 64][..]);
        assert_eq!(dec.next_value().unwrap(), Value::text("tail"));
        assert_eq!(dec.remaining(), 0);
        assert!(dec.next_value().is_err());
    }

    #[test]
    fn encoded_row_reads_columns_in_place() {
        let row = vec![
            Value::Integer(-3),
            Value::Null,
            Value::text("héllo"),
            Value::Real(0.5),
            Value::blob(vec![1u8, 2]),
        ];
        let bytes = encode_row(&row);
        let enc = EncodedRow::new(&bytes).unwrap();
        for (i, v) in row.iter().enumerate() {
            assert_eq!(enc.column(i), v.as_ref(), "column {i}");
            assert_eq!(row.column(i), v.as_ref());
        }
        assert_eq!(enc.column(row.len()), ValueRef::Null, "past the end");
        // Corruption is reported once, up front.
        assert!(EncodedRow::new(&bytes[..bytes.len() - 1]).is_err());
        let mut bad_utf8 = encode_row(&[Value::text("ab")]);
        *bad_utf8.last_mut().unwrap() = 0xFF;
        assert!(EncodedRow::new(&bad_utf8).is_err());
    }

    #[test]
    fn ints_then_blob_agrees_with_the_decoder_and_rejects_other_shapes() {
        let blob = vec![7u8; 12];
        let row = |asset: Value, payload: Value| {
            encode_row(&[Value::Integer(3), Value::Integer(-9), asset, payload])
        };
        let good = row(Value::Integer(i64::MAX), Value::blob(blob.clone()));
        let (ints, payload) = ints_then_blob::<3>(&good).unwrap();
        assert_eq!((ints, payload), ([3, -9, i64::MAX], &blob[..]));
        let empty = row(Value::Integer(0), Value::blob(vec![]));
        let (ints, payload) = ints_then_blob::<3>(&empty).unwrap();
        assert_eq!((ints, payload), ([3, -9, 0], &[][..]));

        assert!(ints_then_blob::<2>(&good).is_err(), "wrong column count");
        assert!(ints_then_blob::<3>(&good[..good.len() - 1]).is_err());
        assert!(ints_then_blob::<3>(&good[..20]).is_err());
        let mut long = good.clone();
        long.push(0);
        assert!(ints_then_blob::<3>(&long).is_err(), "trailing bytes");
        for bad in [
            row(Value::Null, Value::blob(blob.clone())),
            row(Value::Real(1.0), Value::blob(blob.clone())),
            row(Value::Integer(1), Value::text("twelve bytes")),
            row(Value::Integer(1), Value::Null),
        ] {
            assert!(ints_then_blob::<3>(&bad).is_err());
        }
    }

    #[test]
    fn next_blob_rejects_non_blob() {
        let bytes = encode_row(&[Value::Integer(1)]);
        let mut dec = RowDecoder::new(&bytes).unwrap();
        assert!(dec.next_blob().is_err());
    }

    #[test]
    fn truncated_rows_error() {
        let bytes = encode_row(&[Value::text("hello world")]);
        for cut in [0, 1, 3, bytes.len() - 1] {
            assert!(decode_row(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn f32_blob_roundtrip() {
        let v = vec![0.0f32, -1.5, f32::MAX, 1e-30];
        let blob = f32_to_blob(&v);
        assert_eq!(blob.len(), 16);
        assert_eq!(blob_to_f32(&blob).unwrap(), v);
        let mut out = vec![99.0f32; 2];
        blob_into_f32(&blob, &mut out).unwrap();
        assert_eq!(out, v);
        assert!(blob_to_f32(&blob[..3]).is_err());
    }
}
