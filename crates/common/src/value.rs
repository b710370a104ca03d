//! Dynamically typed SQL values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A shared, immutable UTF-8 string behind one thin pointer, so that a
/// [`Value`] is 16 bytes, not the 24 a fat `Arc<str>` makes it. Clones share
/// the bytes. Equality, order, hash and `Display` are the string's own,
/// exactly as for `str` (the derives reach it through `Arc` and `Box`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Text(Arc<Box<str>>);

impl Text {
    /// The string.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// How many handles share these bytes (for tests that check a row was
    /// moved, not copied).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

impl Deref for Text {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text(Arc::new(s.into()))
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        Text(Arc::new(s.into_boxed_str()))
    }
}

impl From<Arc<str>> for Text {
    fn from(s: Arc<str>) -> Self {
        Text::from(&*s)
    }
}

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
    /// Shared UTF-8 string; the thin [`Text`] handle keeps row cloning
    /// cheap and the value 16 bytes.
    Str(Text),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<Text>) -> Self {
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
            Value::Str(s) => Some(s.as_str()),
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
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            // Fixed cross-type rank: numbers < strings.
            (Int(_) | Float(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_) | Float(_)) => Ordering::Greater,
        }
    }
}

/// An integer against a float, numerically. Beyond ±2^53 `i as f64`
/// rounds, so a tie there is broken on the exact values (a tied `f` is an
/// integer of magnitude at most 2^63, exact in `i128`); without it two
/// distinct ints would both equal one float and the order would not be
/// transitive.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    (i as f64)
        .total_cmp(&f)
        .then_with(|| (i as i128).cmp(&(f as i128)))
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

    /// Beyond ±2^53 an int and the float it rounds to are still ordered by
    /// their exact values, so the order stays total: every triple of a
    /// grid of edge values is transitive, and equality implies equal hashes.
    #[test]
    fn int_float_order_is_total_beyond_2_pow_53() {
        let p53 = 1i64 << 53;
        let mut grid = vec![Value::Null];
        for i in [
            0,
            1,
            -1,
            p53,
            p53 - 1,
            p53 + 1,
            p53 + 2,
            -p53,
            -p53 - 1,
            -p53 + 1,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ] {
            grid.push(Value::Int(i));
        }
        for f in [
            0.0,
            -0.0,
            1.0,
            (p53 as f64),
            -(p53 as f64),
            (p53 + 2) as f64,
            9.223372036854776e18,
            -9.223372036854776e18,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            0.5,
        ] {
            grid.push(Value::Float(f));
        }
        grid.push(Value::str(""));
        for a in &grid {
            assert_eq!(a.cmp(a), Ordering::Equal, "{a:?}");
            for b in &grid {
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?}");
                }
                for c in &grid {
                    if a <= b && b <= c {
                        assert!(a <= c, "{a:?} <= {b:?} <= {c:?}");
                    }
                }
            }
        }
        // The tie is broken only where the float rounding hid a difference.
        assert_eq!(
            Value::Int(p53 + 1).cmp(&Value::Float(p53 as f64)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Float(p53 as f64).cmp(&Value::Int(p53 + 1)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int(p53).cmp(&Value::Float(p53 as f64)),
            Ordering::Equal
        );
        assert_eq!(
            Value::Int(i64::MAX).cmp(&Value::Float(9.223372036854776e18)),
            Ordering::Less
        );
        // ±0 and NaN keep `total_cmp`'s placement.
        assert_eq!(Value::Int(0).cmp(&Value::Float(-0.0)), Ordering::Greater);
        assert_eq!(
            Value::Int(i64::MAX).cmp(&Value::Float(f64::NAN)),
            Ordering::Less
        );

        let mut sorted = [
            Value::Int(p53 + 1),
            Value::Float(p53 as f64),
            Value::Int(p53),
            Value::Int(p53 - 1),
            Value::Float((p53 + 2) as f64),
        ];
        sorted.sort();
        assert_eq!(
            sorted.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
            [
                "9007199254740991",
                "9007199254740992",
                "9007199254740992",
                "9007199254740993",
                "9007199254740994",
            ]
        );
        assert_eq!(sorted[3], Value::Int(p53 + 1));
    }

    /// A value is 16 bytes: the string handle is one thin pointer. A row is
    /// 32: its values' `Vec` plus the cached length and the origin, packed
    /// as two `u32`s.
    #[test]
    fn values_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Text>(), 8);
        assert_eq!(std::mem::size_of::<Value>(), 16);
        assert_eq!(std::mem::size_of::<crate::Row>(), 32);
    }

    /// A string value compares, orders, displays and hashes as its `str`
    /// does — the hasher sees the tag and then exactly what `str` feeds it,
    /// as it did when the payload was an `Arc<str>`.
    #[test]
    fn string_values_behave_as_their_str() {
        let long = "λ".repeat(32 * 1024);
        let strs = [
            "",
            "a",
            "ab",
            "é日本",
            "nul\0inside",
            "nul\0",
            long.as_str(),
        ];
        for a in strs {
            let va = Value::str(a);
            assert_eq!(va.to_string(), a);
            assert_eq!(format!("{va:?}"), format!("Str({a:?})"));
            assert_eq!(va.as_str(), Some(a));
            assert_eq!(va.encoded_len(), 1 + 4 + a.len());
            let mut text = Vec::new();
            va.write_text(&mut text);
            assert_eq!(text, a.as_bytes());
            let mut h = DefaultHasher::new();
            2u8.hash(&mut h);
            a.hash(&mut h);
            assert_eq!(hash_of(&va), h.finish());
            let from_arc: Arc<str> = Arc::from(a);
            assert_eq!(Value::str(from_arc), va);
            assert_eq!(Value::str(a.to_string()), va);
            for b in strs {
                assert_eq!(va.cmp(&Value::str(b)), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(va == Value::str(b), a == b);
            }
        }
        assert_eq!(long.len(), 64 * 1024);
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
