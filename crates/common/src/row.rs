//! Rows: fixed-width tuples of [`Value`]s.

use crate::attrs::AttrId;
use crate::value::Value;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A tuple. Window-function evaluation appends derived columns, so rows grow
/// by one column per evaluated function (the paper's evaluation model).
///
/// A row **carries its encoded length** — what `wf_storage::codec` writes
/// for it: a 2-byte arity header plus each value's encoding — because every
/// hand-off between operators asks for it (pool charges, sort budgets, spill
/// block accounting) and the answer only changes when the row does. The
/// values are private and change only in [`Row::new`] and [`Row::push`],
/// the two places that keep the cached length true
/// ([`Row::swap_columns`] moves values without changing their sum);
/// anything that adds another way to change a row's values must update the
/// length there as well.
#[derive(Debug, Clone)]
pub struct Row {
    values: Vec<Value>,
    encoded_len: usize,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        let encoded_len = 2 + values.iter().map(Value::encoded_len).sum::<usize>();
        Row {
            values,
            encoded_len,
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Column accessor.
    #[inline]
    pub fn get(&self, id: AttrId) -> &Value {
        &self.values[id.index()]
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Append a derived column (window-function output).
    pub fn push(&mut self, v: Value) {
        self.encoded_len += v.encoded_len();
        self.values.push(v);
    }

    /// Exchange the values of columns `a` and `b` (a projection reordering
    /// derived columns; the row's encoding keeps its length).
    pub fn swap_columns(&mut self, a: usize, b: usize) {
        self.values.swap(a, b);
    }

    /// Make room for `additional` more derived columns, so that a row
    /// receiving several window outputs grows once.
    pub fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
    }

    /// How many more values fit before the row must grow.
    pub fn spare_capacity(&self) -> usize {
        self.values.capacity() - self.values.len()
    }

    /// A copy with room for `spare` more values: the clone a scan hands out,
    /// sized once for the window columns its statement appends.
    pub fn clone_with_spare(&self, spare: usize) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + spare);
        values.extend_from_slice(&self.values);
        Row {
            values,
            encoded_len: self.encoded_len,
        }
    }

    /// Consume into the underlying values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Bytes this row occupies in the storage codec (2-byte arity header plus
    /// each value's encoding). Keeps block accounting honest without
    /// serializing on the hot path; a field read (see the type's docs).
    #[inline]
    pub fn encoded_len(&self) -> usize {
        self.encoded_len
    }
}

// Equality and hashing are over the values alone: the cached length is a
// function of them (equal values encode to equal lengths).
impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl Eq for Row {}

impl Hash for Row {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values.hash(state);
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// Convenience macro for building rows in tests and examples:
/// `row![1, 2.5, "x", Value::Null]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::row::Row::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_macro_and_accessors() {
        let r = row![1, 2.5, "x"];
        assert_eq!(r.arity(), 3);
        assert_eq!(r.get(AttrId::new(0)), &Value::Int(1));
        assert_eq!(r.get(AttrId::new(2)), &Value::str("x"));
    }

    #[test]
    fn push_appends_column() {
        let mut r = row![1];
        r.push(Value::Int(9));
        assert_eq!(r.arity(), 2);
        assert_eq!(r.get(AttrId::new(1)), &Value::Int(9));
    }

    #[test]
    fn encoded_len_sums_values() {
        let mut r = row![1, "ab"];
        // 2 header + 9 int + (1+4+2) str
        assert_eq!(r.encoded_len(), 2 + 9 + 7);
        // The cached length follows every push and survives a swap.
        r.push(Value::Null);
        r.push(Value::str("xyz"));
        r.swap_columns(0, 3);
        assert_eq!(r.encoded_len(), 2 + 9 + 7 + 1 + 8);
        assert_eq!(r, row!["xyz", "ab", Value::Null, 1]);
        assert_eq!(Row::new(vec![]).encoded_len(), 2);
    }

    #[test]
    fn display() {
        let mut r = row![1, "x"];
        r.push(Value::Null);
        assert_eq!(r.to_string(), "[1, x, NULL]");
    }
}
