//! Order-preserving ("memcomparable") key encoding.
//!
//! Clustered primary keys and secondary-index keys are composite value
//! tuples that must compare correctly as raw byte strings inside the
//! B+tree. The encoding guarantees
//! `encode(a) < encode(b)  ⟺  a <ₜ b` under the total value order
//! ([`crate::Value::total_cmp`]) extended lexicographically to tuples:
//!
//! * each value starts with its type tag (NULL < numerics < TEXT < BLOB);
//! * integers and reals share a tag and are encoded as an
//!   order-preserving `u64` transform of their `f64`/`i64` value
//!   (integers beyond 2^53 fall back to a separate exact path);
//! * text and blobs use `0x00`-escaping with a `0x00 0x01` terminator
//!   so that a tuple prefix always sorts before its extensions.

use std::ops::Bound;

use micronn_storage::btree::cursor::prefix_successor;

use crate::error::{RelError, Result};
use crate::predicate::CmpOp;
use crate::value::{Value, ValueRef};

// Type tags, ordered to match `Value::total_cmp`'s class order.
const TAG_NULL: u8 = 0x10;
const TAG_NUMERIC: u8 = 0x20;
const TAG_TEXT: u8 = 0x30;
const TAG_BLOB: u8 = 0x40;

/// Encodes a tuple of values into a memcomparable byte string.
pub fn encode_key(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 12);
    encode_key_into(values, &mut out);
    out
}

/// [`encode_key`] into a caller-owned buffer (cleared first), for
/// callers encoding one key per lookup in a loop.
pub fn encode_key_into(values: &[Value], out: &mut Vec<u8>) {
    out.clear();
    for v in values {
        encode_value(v, out);
    }
}

pub(crate) fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Integer(i) => {
            out.push(TAG_NUMERIC);
            out.extend_from_slice(&numeric_sortable_integer(*i).to_be_bytes());
        }
        Value::Real(r) => {
            out.push(TAG_NUMERIC);
            out.extend_from_slice(&numeric_sortable_real(*r).to_be_bytes());
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            escape_into(s.as_bytes(), out);
        }
        Value::Blob(b) => {
            out.push(TAG_BLOB);
            escape_into(b, out);
        }
    }
}

/// Numerics (INTEGER and REAL) share one sort key domain so that
/// `Integer(2) < Real(2.5) < Integer(3)` holds byte-wise, matching the
/// comparison semantics used by predicates. The mapping is a
/// 16-byte pair: the order-preserving f64 transform followed by an
/// exact i64 tiebreak for integers too large for f64.
fn numeric_sortable_real(r: f64) -> u128 {
    let bits = r.to_bits();
    let hi: u64 = if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    };
    // Low half: midpoint tiebreak so a real sorts between the integers
    // it separates; exact integers use their own low half below.
    ((hi as u128) << 64) | (1u128 << 63)
}

fn numeric_sortable_integer(i: i64) -> u128 {
    let as_real = i as f64;
    let hi_bits = {
        let bits = as_real.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1 << 63)
        }
    };
    // Tiebreak: exact position of the integer relative to the rounded
    // f64. Offset by 1<<63 so it is unsigned-comparable; integers that
    // round down get a high tiebreak, those that round up a low one.
    let rounded = as_real as i64; // saturating for |i| near i64::MAX is fine: same bucket
    let delta = i.wrapping_sub(rounded);
    let lo = (delta as u64).wrapping_add(1 << 63);
    ((hi_bits as u128) << 64) | lo as u128
}

/// Escapes `0x00` as `0x00 0xFF` and terminates with `0x00 0x01`, the
/// classic order-preserving variable-length encoding.
fn escape_into(data: &[u8], out: &mut Vec<u8>) {
    for &b in data {
        if b == 0 {
            out.push(0x00);
            out.push(0xFF);
        } else {
            out.push(b);
        }
    }
    out.push(0x00);
    out.push(0x01);
}

/// Decodes a key produced by [`encode_key`]. Integers encoded via the
/// numeric path decode as `Real` when they originated as `Real`, and as
/// `Integer` when the tiebreak marks an exact integer; round-tripping
/// `encode_key(decode_key(k)) == k` holds for all valid keys.
pub fn decode_key(mut data: &[u8]) -> Result<Vec<Value>> {
    let (mut out, mut scratch) = (Vec::new(), Vec::new());
    while !data.is_empty() {
        let (v, rest) = decode_first(data, &mut scratch)?;
        out.push(v.to_value());
        data = rest;
    }
    Ok(out)
}

/// Decodes the first value of `key` in place and returns it with the
/// bytes after it — for an index entry, its primary key. Text and blob
/// content is borrowed from `key`; only content that holds an escaped
/// `0x00` byte is unescaped, into `scratch`. Nothing is allocated
/// unless `scratch` has to grow.
///
/// The value is in canonical form: a numeric that is a whole number
/// decodes as `Integer` whichever it was stored as. Below 2^53 that
/// compares exactly as the stored value does; see [`stands_in`].
pub(crate) fn decode_first<'k: 'v, 'v>(
    key: &'k [u8],
    scratch: &'v mut Vec<u8>,
) -> Result<(ValueRef<'v>, &'k [u8])> {
    let Some((&tag, rest)) = key.split_first() else {
        return Err(RelError::Codec("empty key".into()));
    };
    match tag {
        TAG_NULL => Ok((ValueRef::Null, rest)),
        TAG_NUMERIC => {
            if rest.len() < 16 {
                return Err(RelError::Codec("truncated numeric key".into()));
            }
            let hi = u64::from_be_bytes(rest[..8].try_into().unwrap());
            let lo = u64::from_be_bytes(rest[8..16].try_into().unwrap());
            let bits = if hi >> 63 == 1 { hi & !(1 << 63) } else { !hi };
            let r = f64::from_bits(bits);
            let delta = lo.wrapping_sub(1 << 63) as i64;
            // Canonicalization: an integer-valued key with zero tiebreak
            // decodes as Integer (so `Real(2.0)` and `Integer(2)` share
            // one canonical form — they are equal under SQL semantics).
            let v = if delta == 0 {
                if is_exact_i64(r) {
                    ValueRef::Integer(r as i64)
                } else {
                    ValueRef::Real(r)
                }
            } else {
                ValueRef::Integer((r as i64).wrapping_add(delta))
            };
            Ok((v, &rest[16..]))
        }
        TAG_TEXT | TAG_BLOB => {
            // The terminator is the first `0x00` not followed by `0xFF`.
            let (mut i, mut escaped) = (0, false);
            let end = loop {
                let Some(at) = rest[i..].iter().position(|&b| b == 0) else {
                    return Err(RelError::Codec("unterminated string key".into()));
                };
                i += at;
                match rest.get(i + 1) {
                    Some(0xFF) => (escaped, i) = (true, i + 2),
                    Some(0x01) => break i,
                    Some(b) => return Err(RelError::Codec(format!("bad escape byte {b:#x}"))),
                    None => return Err(RelError::Codec("truncated escape".into())),
                }
            };
            let bytes: &'v [u8] = if escaped {
                scratch.clear();
                let mut chunks = rest[..end].split(|&b| b == 0);
                scratch.extend_from_slice(chunks.next().unwrap_or_default());
                // After each `0x00` comes its `0xFF`: restore the zero.
                for chunk in chunks {
                    scratch.push(0);
                    scratch.extend_from_slice(&chunk[1..]);
                }
                scratch
            } else {
                &rest[..end]
            };
            let v = if tag == TAG_TEXT {
                ValueRef::Text(
                    std::str::from_utf8(bytes)
                        .map_err(|_| RelError::Codec("invalid utf-8 in text key".into()))?,
                )
            } else {
                ValueRef::Blob(bytes)
            };
            Ok((v, &rest[end + 2..]))
        }
        t => Err(RelError::Codec(format!("unknown key tag {t:#x}"))),
    }
}

/// Decodes a key that is one INTEGER — a single-integer primary key
/// such as an asset id — in place.
pub fn decode_int_key(key: &[u8]) -> Result<i64> {
    match decode_first(key, &mut Vec::new())? {
        (ValueRef::Integer(i), []) => Ok(i),
        _ => Err(RelError::Codec("key is not one integer".into())),
    }
}

/// Whether a value [`decode_first`] returned compares, under
/// [`ValueRef::compare`], exactly as the value that was encoded does.
/// Every value does but a numeric of magnitude 2^53 or more, ±∞
/// included: there a key cannot tell `Integer(2^60)` from
/// `Real(2^60)`, and against `Integer(2^60 + 1)` one is less and the
/// other equal. NULL, NaN, ±0.0, text and blobs all stand in.
pub(crate) fn stands_in(v: ValueRef<'_>) -> bool {
    const EXACT: f64 = (1u64 << 53) as f64;
    match v {
        ValueRef::Integer(i) => i.unsigned_abs() < 1 << 53,
        ValueRef::Real(r) => r.is_nan() || r.abs() < EXACT,
        _ => true,
    }
}

/// The key range an index walk for `value <op> lit` covers: every entry
/// whose value can satisfy the comparison lies in it, and it stays
/// inside `lit`'s type class (NULL, numeric, TEXT or BLOB), since
/// [`ValueRef::compare`] never matches across classes. The range only
/// narrows the walk; the comparison is decided per entry.
///
/// A text or blob literal bounds the range by its whole key. A numeric
/// one bounds it by the high half of its key alone, the `f64` it
/// rounds to: entries equal to the literal as `f64` share that half,
/// and only below 2^53 are they all equal to it under `compare`, so
/// only there does a strict operator leave them out. `±0.0` bound the
/// range by both zeros, which compare equal.
pub(crate) fn cmp_range(op: CmpOp, lit: &Value) -> (Bound<Vec<u8>>, Bound<Vec<u8>>) {
    let (tag, first, last, strict) = match lit {
        Value::Integer(_) | Value::Real(_) => {
            let r = lit.as_real().expect("a numeric literal");
            let high = |r: f64| {
                let mut k = vec![TAG_NUMERIC];
                k.extend_from_slice(&((numeric_sortable_real(r) >> 64) as u64).to_be_bytes());
                k
            };
            let (first, last) = if r == 0.0 {
                (high(-0.0), high(0.0))
            } else {
                (high(r), high(r))
            };
            (TAG_NUMERIC, first, last, stands_in(ValueRef::Real(r)))
        }
        _ => {
            let k = encode_key(std::slice::from_ref(lit));
            (k[0], k.clone(), k, true)
        }
    };
    // Just past every key that starts with `k`.
    let past = |k: Vec<u8>| prefix_successor(&k).expect("a key starts with a tag below 0xFF");
    let start = match op {
        CmpOp::Gt if strict => Bound::Included(past(last.clone())),
        CmpOp::Gt | CmpOp::Ge | CmpOp::Eq => Bound::Included(first.clone()),
        CmpOp::Lt | CmpOp::Le | CmpOp::Ne => Bound::Included(vec![tag]),
    };
    let end = match op {
        CmpOp::Lt if strict => Bound::Excluded(first),
        CmpOp::Lt | CmpOp::Le | CmpOp::Eq => Bound::Excluded(past(last)),
        CmpOp::Gt | CmpOp::Ge | CmpOp::Ne => Bound::Excluded(vec![tag + 1]),
    };
    (start, end)
}

fn is_exact_i64(r: f64) -> bool {
    r.fract() == 0.0 && r >= i64::MIN as f64 && r <= i64::MAX as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn enc1(v: Value) -> Vec<u8> {
        encode_key(std::slice::from_ref(&v))
    }

    #[test]
    fn integer_order_preserved() {
        let samples = [
            i64::MIN,
            i64::MIN + 1,
            -1_000_000_007,
            -256,
            -1,
            0,
            1,
            42,
            255,
            1 << 40,
            (1 << 53) + 1,
            i64::MAX - 1,
            i64::MAX,
        ];
        for &a in &samples {
            for &b in &samples {
                let ka = enc1(Value::Integer(a));
                let kb = enc1(Value::Integer(b));
                assert_eq!(ka.cmp(&kb), a.cmp(&b), "ints {a} vs {b}");
            }
        }
    }

    #[test]
    fn real_order_preserved() {
        let samples = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            0.5,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for &a in &samples {
            for &b in &samples {
                let ka = enc1(Value::Real(a));
                let kb = enc1(Value::Real(b));
                let want = a.partial_cmp(&b).unwrap_or(Ordering::Equal);
                let got = ka.cmp(&kb);
                if want != Ordering::Equal {
                    assert_eq!(got, want, "reals {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn mixed_numeric_order() {
        // Integer(2) < Real(2.5) < Integer(3); Real(2.0) ties Integer(2)
        // on the hi half and the tiebreak keeps them adjacent.
        let i2 = enc1(Value::Integer(2));
        let r25 = enc1(Value::Real(2.5));
        let i3 = enc1(Value::Integer(3));
        assert!(i2 < r25 && r25 < i3);
        let rm = enc1(Value::Real(-0.5));
        let i0 = enc1(Value::Integer(0));
        let im1 = enc1(Value::Integer(-1));
        assert!(im1 < rm && rm < i0);
    }

    #[test]
    fn text_order_and_prefix_rule() {
        let pairs = [
            ("", "a"),
            ("a", "ab"),
            ("ab", "b"),
            ("abc", "abd"),
            ("Zebra", "apple"), // byte order, capital first
        ];
        for (a, b) in pairs {
            assert!(enc1(Value::text(a)) < enc1(Value::text(b)), "{a:?} < {b:?}");
        }
    }

    #[test]
    fn embedded_nul_bytes() {
        let a = Value::blob(vec![1, 0, 2]);
        let b = Value::blob(vec![1, 0, 3]);
        let c = Value::blob(vec![1, 1]);
        assert!(enc1(a.clone()) < enc1(b.clone()));
        assert!(enc1(b.clone()) < enc1(c.clone()));
        // Roundtrip through decode.
        for v in [a, b, c, Value::blob(vec![0, 0, 0])] {
            let k = enc1(v.clone());
            assert_eq!(decode_key(&k).unwrap(), vec![v]);
        }
    }

    #[test]
    fn tuple_prefix_orders_before_extension() {
        let short = encode_key(&[Value::Integer(7)]);
        let long = encode_key(&[Value::Integer(7), Value::text("x")]);
        assert!(short < long);
        let t1 = encode_key(&[Value::text("a"), Value::Integer(2)]);
        let t2 = encode_key(&[Value::text("ab")]);
        assert!(t1 < t2, "first component dominates");
    }

    #[test]
    fn cross_type_class_order() {
        let null = enc1(Value::Null);
        let int = enc1(Value::Integer(i64::MIN));
        let text = enc1(Value::text(""));
        let blob = enc1(Value::blob(vec![]));
        assert!(null < int && int < text && text < blob);
    }

    #[test]
    fn decode_roundtrip() {
        let tuples: Vec<Vec<Value>> = vec![
            vec![Value::Null],
            vec![Value::Integer(-42), Value::text("hello"), Value::Null],
            vec![Value::blob(vec![0, 255, 0]), Value::Integer(i64::MAX)],
            vec![Value::text("πß")],
            vec![Value::Real(2.5)],
        ];
        for t in tuples {
            let k = encode_key(&t);
            assert_eq!(decode_key(&k).unwrap(), t);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_key(&[0x99]).is_err());
        assert!(decode_key(&[TAG_NUMERIC, 1, 2]).is_err());
        assert!(decode_key(&[TAG_TEXT, b'a']).is_err(), "unterminated");
        assert!(decode_key(&[TAG_TEXT, 0x00, 0x55]).is_err(), "bad escape");
    }

    #[test]
    fn large_integers_beyond_f64_precision_stay_ordered() {
        let base = (1i64 << 53) + 10;
        let mut prev = enc1(Value::Integer(base - 5));
        for i in (base - 4)..(base + 5) {
            let cur = enc1(Value::Integer(i));
            assert!(prev < cur, "ordering broken at {i}");
            assert_eq!(decode_key(&cur).unwrap(), vec![Value::Integer(i)]);
            prev = cur;
        }
    }
}
