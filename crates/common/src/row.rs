//! Rows: fixed-width tuples of [`Value`]s.

use crate::attrs::AttrId;
use crate::value::Value;
use std::fmt;

/// A tuple. Window-function evaluation appends derived columns, so rows grow
/// by one column per evaluated function (the paper's evaluation model).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
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
        self.values.push(v);
    }

    /// Make room for `additional` more derived columns, so that a row
    /// receiving several window outputs grows once.
    pub fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
    }

    /// Consume into the underlying values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Bytes this row occupies in the storage codec (2-byte arity header plus
    /// each value's encoding). Keeps block accounting honest without
    /// serializing on the hot path.
    pub fn encoded_len(&self) -> usize {
        2 + self.values.iter().map(Value::encoded_len).sum::<usize>()
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
        let r = row![1, "ab"];
        // 2 header + 9 int + (1+4+2) str
        assert_eq!(r.encoded_len(), 2 + 9 + 7);
    }

    #[test]
    fn display() {
        let mut r = row![1, "x"];
        r.push(Value::Null);
        assert_eq!(r.to_string(), "[1, x, NULL]");
    }
}
