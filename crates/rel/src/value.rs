//! Typed values: the cells of attribute rows.
//!
//! MicroNN stores "use-case specific attributes … in a separate
//! attribute table. Each vector can have its own attribute values, and
//! nearest neighbour queries can include relational constraints over
//! these attributes" (§3.2). The type system mirrors SQLite's storage
//! classes: NULL, INTEGER, REAL, TEXT, BLOB.

use std::cmp::Ordering;
use std::fmt;

/// The storage class of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    Null,
    Integer,
    Real,
    Text,
    Blob,
}

impl ValueType {
    /// Stable one-byte tag used by the row and key codecs.
    pub fn tag(self) -> u8 {
        match self {
            ValueType::Null => 0,
            ValueType::Integer => 1,
            ValueType::Real => 2,
            ValueType::Text => 3,
            ValueType::Blob => 4,
        }
    }

    /// Inverse of [`ValueType::tag`].
    pub fn from_tag(t: u8) -> Option<ValueType> {
        Some(match t {
            0 => ValueType::Null,
            1 => ValueType::Integer,
            2 => ValueType::Real,
            3 => ValueType::Text,
            4 => ValueType::Blob,
            _ => return None,
        })
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Null => "NULL",
            ValueType::Integer => "INTEGER",
            ValueType::Real => "REAL",
            ValueType::Text => "TEXT",
            ValueType::Blob => "BLOB",
        };
        f.write_str(s)
    }
}

/// A dynamically typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Integer(i64),
    Real(f64),
    Text(String),
    Blob(Vec<u8>),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// Convenience constructor for blob values.
    pub fn blob(b: impl Into<Vec<u8>>) -> Value {
        Value::Blob(b.into())
    }

    /// The value's storage class.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Null => ValueType::Null,
            Value::Integer(_) => ValueType::Integer,
            Value::Real(_) => ValueType::Real,
            Value::Text(_) => ValueType::Text,
            Value::Blob(_) => ValueType::Blob,
        }
    }

    /// True for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer content, if this is an integer.
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric content with INTEGER→REAL widening.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(r) => Some(*r),
            Value::Integer(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Text content, if this is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Blob content, if this is a blob.
    pub fn as_blob(&self) -> Option<&[u8]> {
        match self {
            Value::Blob(b) => Some(b),
            _ => None,
        }
    }

    /// This value as a borrowed [`ValueRef`].
    #[inline]
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Integer(i) => ValueRef::Integer(*i),
            Value::Real(r) => ValueRef::Real(*r),
            Value::Text(s) => ValueRef::Text(s),
            Value::Blob(b) => ValueRef::Blob(b),
        }
    }

    /// SQL-style three-valued comparison: `None` when either side is
    /// NULL or the types are incomparable. INTEGER and REAL compare
    /// numerically with each other.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        self.as_ref().compare(other)
    }

    /// Total order used for sorting and histogram construction:
    /// NULL < numerics < TEXT < BLOB, with NaN greatest among reals.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.as_ref().total_cmp(other)
    }
}

/// A [`Value`] borrowed from wherever it is stored — an owned `Value`
/// or the bytes of an encoded row — so predicates can read a column
/// without materializing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    Null,
    Integer(i64),
    Real(f64),
    Text(&'a str),
    Blob(&'a [u8]),
}

impl<'a> ValueRef<'a> {
    /// The one implementation of [`Value::compare`].
    #[inline]
    pub fn compare(self, other: &Value) -> Option<Ordering> {
        use ValueRef::*;
        match (self, other.as_ref()) {
            (Null, _) | (_, Null) => None,
            (Integer(a), Integer(b)) => Some(a.cmp(&b)),
            (Real(a), Real(b)) => a.partial_cmp(&b),
            (Integer(a), Real(b)) => (a as f64).partial_cmp(&b),
            (Real(a), Integer(b)) => a.partial_cmp(&(b as f64)),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Blob(a), Blob(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// The one implementation of [`Value::total_cmp`].
    pub(crate) fn total_cmp(self, other: &Value) -> Ordering {
        fn class(v: ValueRef<'_>) -> u8 {
            match v {
                ValueRef::Null => 0,
                ValueRef::Integer(_) | ValueRef::Real(_) => 1,
                ValueRef::Text(_) => 2,
                ValueRef::Blob(_) => 3,
            }
        }
        let other = other.as_ref();
        match class(self).cmp(&class(other)) {
            Ordering::Equal => {}
            o => return o,
        }
        use ValueRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Integer(a), Integer(b)) => a.cmp(&b),
            (Real(a), Real(b)) => a.total_cmp(&b),
            (Integer(a), Real(b)) => (a as f64).total_cmp(&b),
            (Real(a), Integer(b)) => a.total_cmp(&(b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Blob(a), Blob(b)) => a.cmp(b),
            _ => unreachable!("classes matched above"),
        }
    }

    /// Text content, if this is text.
    pub fn as_text(self) -> Option<&'a str> {
        match self {
            ValueRef::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Integer content, if this is an integer.
    pub fn as_integer(self) -> Option<i64> {
        match self {
            ValueRef::Integer(i) => Some(i),
            _ => None,
        }
    }

    /// An owned copy.
    #[inline]
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Integer(i) => Value::Integer(i),
            ValueRef::Real(r) => Value::Real(r),
            ValueRef::Text(s) => Value::Text(s.to_owned()),
            ValueRef::Blob(b) => Value::Blob(b.to_vec()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Blob(b) => write!(f, "blob({} bytes)", b.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Integer(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Text(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Value {
        Value::Blob(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip() {
        for t in [
            ValueType::Null,
            ValueType::Integer,
            ValueType::Real,
            ValueType::Text,
            ValueType::Blob,
        ] {
            assert_eq!(ValueType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(ValueType::from_tag(99), None);
    }

    #[test]
    fn sql_comparison_semantics() {
        assert_eq!(
            Value::Integer(3).compare(&Value::Integer(5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Integer(3).compare(&Value::Real(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Real(2.5).compare(&Value::Integer(2)),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Null.compare(&Value::Integer(1)), None);
        assert_eq!(Value::text("a").compare(&Value::Integer(1)), None);
        assert_eq!(
            Value::text("abc").compare(&Value::text("abd")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn total_order_is_total() {
        let vals = [
            Value::Null,
            Value::Integer(-5),
            Value::Real(f64::NAN),
            Value::Real(1.5),
            Value::text("z"),
            Value::blob(vec![1, 2]),
        ];
        for a in &vals {
            assert_eq!(a.total_cmp(a), Ordering::Equal);
            for b in &vals {
                let ab = a.total_cmp(b);
                let ba = b.total_cmp(a);
                assert_eq!(ab, ba.reverse());
            }
        }
        // Class ordering.
        assert_eq!(
            Value::Null.total_cmp(&Value::Integer(i64::MIN)),
            Ordering::Less
        );
        assert_eq!(
            Value::Integer(i64::MAX).total_cmp(&Value::text("")),
            Ordering::Less
        );
        assert_eq!(
            Value::text("zzz").total_cmp(&Value::blob(vec![])),
            Ordering::Less
        );
    }

    #[test]
    fn accessors_and_conversions() {
        let v: Value = 42i64.into();
        assert_eq!(v.as_integer(), Some(42));
        assert_eq!(v.as_real(), Some(42.0));
        let v: Value = "hello".into();
        assert_eq!(v.as_text(), Some("hello"));
        assert!(v.as_integer().is_none());
        let v: Value = vec![1u8, 2].into();
        assert_eq!(v.as_blob(), Some(&[1u8, 2][..]));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Real(0.5).as_real(), Some(0.5));
    }
}
