//! Dynamically typed SQL values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A SQL value. `Null` is a first-class member so that window ordering can
/// implement `NULLS FIRST` / `NULLS LAST` placement.
///
/// Floats are totally ordered via `f64::total_cmp`, which keeps sorting and
/// hashing consistent (NaN sorts after all other numbers).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float, totally ordered via `total_cmp`.
    Float(f64),
    /// Interned UTF-8 string; `Arc` keeps row cloning cheap.
    Str(Arc<str>),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// True iff this is `Null`.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Name of the runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Str(_) => "Str",
        }
    }

    /// Integer payload, if any.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric payload widened to `f64` (Int or Float).
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// String payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number of bytes this value occupies in the row codec; used for block
    /// accounting. Must stay in sync with `wf-storage`'s codec.
    pub fn encoded_len(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 1 + 8,
            Value::Float(_) => 1 + 8,
            Value::Str(s) => 1 + 4 + s.len(),
        }
    }

    /// Comparison where `Null` sorts *before* every non-null value and values
    /// of different types order by a fixed type rank (Int and Float compare
    /// numerically). Direction and NULL placement are applied by
    /// [`crate::ord::RowComparator`], not here.
    pub fn cmp_nulls_first(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            // Fixed cross-type rank: numbers < strings.
            (Int(_) | Float(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_) | Float(_)) => Ordering::Greater,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_nulls_first(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_nulls_first(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(v) => {
                1u8.hash(state);
                // Hash ints through their f64-compatible bits only when the
                // value is representable; equality between Int(2) and
                // Float(2.0) must imply equal hashes.
                (*v as f64).to_bits().hash(state);
            }
            Value::Float(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl Value {
    /// Append exactly the bytes [`Display`](fmt::Display) prints, without a
    /// formatter call or an allocation on the common variants: an integer
    /// goes through a stack digit buffer and a string is a byte copy.
    pub fn write_text(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        match self {
            Value::Null => out.extend_from_slice(b"NULL"),
            Value::Int(v) => {
                // 19 digits of `u64::MAX >> 1` plus the sign.
                let mut digits = [0u8; 20];
                let mut at = digits.len();
                let mut rest = v.unsigned_abs();
                loop {
                    at -= 1;
                    digits[at] = b'0' + (rest % 10) as u8;
                    rest /= 10;
                    if rest == 0 {
                        break;
                    }
                }
                if *v < 0 {
                    at -= 1;
                    digits[at] = b'-';
                }
                out.extend_from_slice(&digits[at..]);
            }
            // Writing to a `Vec` cannot fail.
            Value::Float(v) => write!(out, "{v}").expect("write to a Vec"),
            Value::Str(s) => out.extend_from_slice(s.as_bytes()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first_in_base_order() {
        assert_eq!(Value::Null.cmp(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(Value::Int(0).cmp(&Value::Null), Ordering::Greater);
        assert_eq!(Value::Null.cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).cmp(&Value::Int(2)), Ordering::Greater);
    }

    #[test]
    fn nan_is_ordered_and_equal_to_itself() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(Value::Float(f64::INFINITY).cmp(&nan), Ordering::Less);
    }

    #[test]
    fn strings_order_lexicographically_after_numbers() {
        assert_eq!(Value::str("a").cmp(&Value::str("b")), Ordering::Less);
        assert_eq!(Value::Int(999).cmp(&Value::str("0")), Ordering::Less);
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
        assert_eq!(hash_of(&Value::str("x")), hash_of(&Value::str("x")));
        assert_ne!(hash_of(&Value::Null), hash_of(&Value::Int(0)));
    }

    #[test]
    fn encoded_len_matches_variants() {
        assert_eq!(Value::Null.encoded_len(), 1);
        assert_eq!(Value::Int(1).encoded_len(), 9);
        assert_eq!(Value::Float(1.0).encoded_len(), 9);
        assert_eq!(Value::str("abc").encoded_len(), 8);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(2.0f64)), Value::Float(2.0));
        assert_eq!(Value::from("s"), Value::str("s"));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).as_int(), Some(4));
        assert_eq!(Value::Float(4.5).as_f64(), Some(4.5));
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::str("q").as_str(), Some("q"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.as_int(), None);
    }
}
