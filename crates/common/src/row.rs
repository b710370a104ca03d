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
/// values are private and change only in [`Row::new`], [`Row::push`] and
/// [`Row::swap_columns`] (which moves values without changing their sum),
/// the places that keep the cached length true; anything that adds another
/// way to change a row's values must update the length there as well.
///
/// A row may also **remember its origin**: the index of the base-table row
/// it was cloned from. Only a scan's view sets it
/// (`wf_storage::SharedRows::narrow_at`), and it holds while the row's
/// leading values are that base row's, narrowed: [`Row::push`] (appending a
/// window column), [`Row::reserve`] and `clone` keep it; every other
/// constructor or mutator — [`Row::swap_columns`] included — gives a row
/// with no origin. A spill file writes a row that has one as its index and
/// appended columns instead of its bytes. Neither the origin nor the
/// capacity is part of a row's value: equality and hashing read the values
/// alone, and every charge reads [`Row::encoded_len`].
///
/// The length and the origin are packed as two `u32`s beside the values, so
/// a row is 32 bytes. The length of a row over 4 GiB does not fit and is
/// summed again when asked; a row whose index or length does not fit gets
/// no origin.
#[derive(Debug, Clone)]
pub struct Row {
    values: Vec<Value>,
    encoded_len: u32,
    origin: u32,
}

/// `Row::encoded_len`: the length does not fit, sum the values.
const LEN_UNKNOWN: u32 = u32::MAX;
/// `Row::origin`: no origin.
const NO_ORIGIN: u32 = u32::MAX;

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        let len = 2 + values.iter().map(Value::encoded_len).sum::<usize>();
        Row {
            values,
            encoded_len: u32::try_from(len).unwrap_or(LEN_UNKNOWN),
            origin: NO_ORIGIN,
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

    /// Append a derived column (window-function output). The origin, if
    /// any, is kept: the base columns are still in front.
    #[inline]
    pub fn push(&mut self, v: Value) {
        // An unknown length stays unknown: it is already `LEN_UNKNOWN`.
        let len = self.encoded_len as usize + v.encoded_len();
        self.values.push(v);
        match u32::try_from(len) {
            Ok(len) if len < LEN_UNKNOWN => self.encoded_len = len,
            _ => {
                self.encoded_len = LEN_UNKNOWN;
                self.origin = NO_ORIGIN;
            }
        }
    }

    /// Exchange the values of columns `a` and `b` (a projection reordering
    /// derived columns; the row's encoding keeps its length). The row
    /// forgets its origin: its leading values may no longer be the base
    /// row's.
    pub fn swap_columns(&mut self, a: usize, b: usize) {
        self.values.swap(a, b);
        self.origin = NO_ORIGIN;
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
    /// sized once for the window columns its statement appends. The copy
    /// has no origin; the view that clones it sets one.
    pub fn clone_with_spare(&self, spare: usize) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + spare);
        values.extend_from_slice(&self.values);
        Row {
            values,
            encoded_len: self.encoded_len,
            origin: NO_ORIGIN,
        }
    }

    /// The same row, remembering that it was cloned from base row `index`
    /// (see the type's docs: the scan's view is the one caller). An index
    /// or a length that does not fit leaves the row without an origin.
    #[inline]
    pub fn with_origin(mut self, index: usize) -> Row {
        self.origin = match u32::try_from(index) {
            Ok(i) if i != NO_ORIGIN && self.encoded_len != LEN_UNKNOWN => i,
            _ => NO_ORIGIN,
        };
        self
    }

    /// The base-table index this row was cloned from, if it remembers one.
    #[inline]
    pub fn origin(&self) -> Option<usize> {
        (self.origin != NO_ORIGIN).then_some(self.origin as usize)
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
        if self.encoded_len == LEN_UNKNOWN {
            return self.summed_len();
        }
        self.encoded_len as usize
    }

    /// The encoded length of a row too long to cache it.
    #[cold]
    #[inline(never)]
    fn summed_len(&self) -> usize {
        2 + self.values.iter().map(Value::encoded_len).sum::<usize>()
    }
}

// Equality and hashing are over the values alone: the cached length is a
// function of them (equal values encode to equal lengths), and the origin
// says where they came from, not what they are.
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

    /// Only `with_origin` gives a row an origin; appending, reserving and
    /// cloning keep it, and everything that can move a base value drops it.
    /// It is no part of the row's value.
    #[test]
    fn origin_follows_the_base_columns() {
        let base = row![7, "pad"];
        assert_eq!(base.origin(), None);
        let mut r = base.clone_with_spare(2);
        assert_eq!(r.origin(), None, "a clone with spare has no origin yet");
        r = r.with_origin(41);
        assert_eq!(r.origin(), Some(41));
        r.reserve(1);
        r.push(Value::Int(1));
        assert_eq!(r.clone().origin(), Some(41));
        assert_eq!(r, row![7, "pad", 1], "equality ignores the origin");
        let mut swapped = r.clone();
        swapped.swap_columns(0, 2);
        assert_eq!(swapped.origin(), None);
        assert_eq!(Row::new(r.values().to_vec()).origin(), None);
        assert_eq!(row![1].with_origin(u32::MAX as usize).origin(), None);
        assert_eq!(row![1].with_origin(usize::MAX).origin(), None);
    }

    #[test]
    fn display() {
        let mut r = row![1, "x"];
        r.push(Value::Null);
        assert_eq!(r.to_string(), "[1, x, NULL]");
    }
}
