//! Direction-aware ordering elements and row comparators.
//!
//! A physical sort key is a sequence of [`OrdElem`]s — attribute plus
//! direction plus NULL placement (`salary DESC NULLS LAST` in the paper's
//! Example 1). The property algebra in `wf-core` reasons over these
//! sequences; the executors in `wf-exec` compare rows with
//! [`RowComparator`].

use crate::attrs::{AttrId, AttrSeq, AttrSet};
use crate::row::Row;
use std::cmp::Ordering;
use std::fmt;

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Direction {
    #[default]
    Asc,
    Desc,
}

/// NULL placement within a sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NullOrder {
    /// NULLs sort before all non-null values (PostgreSQL default for ASC is
    /// actually NULLS LAST; we default to NULLS LAST to match).
    First,
    #[default]
    Last,
}

/// One element of a sort key: attribute, direction, NULL placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OrdElem {
    pub attr: AttrId,
    pub dir: Direction,
    pub nulls: NullOrder,
}

impl OrdElem {
    /// Ascending, NULLS LAST — the canonical element used for partition-key
    /// regions, where any consistent direction produces valid partitions.
    pub fn asc(attr: AttrId) -> Self {
        OrdElem {
            attr,
            dir: Direction::Asc,
            nulls: NullOrder::Last,
        }
    }

    /// Descending, NULLS LAST (the paper's Example 1).
    pub fn desc(attr: AttrId) -> Self {
        OrdElem {
            attr,
            dir: Direction::Desc,
            nulls: NullOrder::Last,
        }
    }

    /// Compare two rows on just this element.
    #[inline]
    pub fn compare(&self, left: &Row, right: &Row) -> Ordering {
        let l = left.get(self.attr);
        let r = right.get(self.attr);
        match (l.is_null(), r.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => match self.nulls {
                NullOrder::First => Ordering::Less,
                NullOrder::Last => Ordering::Greater,
            },
            (false, true) => match self.nulls {
                NullOrder::First => Ordering::Greater,
                NullOrder::Last => Ordering::Less,
            },
            (false, false) => {
                let base = l.cmp_nulls_first(r);
                match self.dir {
                    Direction::Asc => base,
                    Direction::Desc => base.reverse(),
                }
            }
        }
    }
}

impl fmt::Display for OrdElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.attr)?;
        if self.dir == Direction::Desc {
            write!(f, " desc")?;
        }
        if self.nulls == NullOrder::First {
            write!(f, " nulls first")?;
        }
        Ok(())
    }
}

/// A complete sort specification: an ordered list of [`OrdElem`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SortSpec {
    elems: Vec<OrdElem>,
}

impl SortSpec {
    /// Empty specification (`ε`).
    pub fn empty() -> Self {
        SortSpec { elems: Vec::new() }
    }

    /// From elements.
    pub fn new(elems: Vec<OrdElem>) -> Self {
        SortSpec { elems }
    }

    /// All-ascending specification over a plain attribute sequence.
    pub fn asc_over(seq: &AttrSeq) -> Self {
        SortSpec::new(seq.as_slice().iter().map(|&a| OrdElem::asc(a)).collect())
    }

    /// Length.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True when `ε`.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Element view.
    pub fn elems(&self) -> &[OrdElem] {
        &self.elems
    }

    /// Attribute sequence, dropping directions.
    pub fn attr_seq(&self) -> AttrSeq {
        AttrSeq::new(self.elems.iter().map(|e| e.attr).collect())
    }

    /// Attribute set.
    pub fn attr_set(&self) -> AttrSet {
        AttrSet::from_iter(self.elems.iter().map(|e| e.attr))
    }

    /// Concatenation.
    pub fn concat(&self, other: &SortSpec) -> SortSpec {
        SortSpec::new(
            self.elems
                .iter()
                .chain(other.elems.iter())
                .copied()
                .collect(),
        )
    }

    /// Exact-element prefix test (`self ≤ other`): every element must match
    /// attribute, direction *and* NULL placement.
    pub fn is_prefix_of(&self, other: &SortSpec) -> bool {
        self.len() <= other.len() && self.elems == other.elems[..self.len()]
    }

    /// Drop elements whose attribute is in `drop` (deleting constants from an
    /// ordering preserves it).
    pub fn without_attrs(&self, drop: &AttrSet) -> SortSpec {
        SortSpec::new(
            self.elems
                .iter()
                .copied()
                .filter(|e| !drop.contains(e.attr))
                .collect(),
        )
    }

    /// Every element's attribute `a` replaced by `map(a)`, directions and
    /// NULL placement kept.
    pub fn map_attrs(&self, map: impl Fn(AttrId) -> AttrId) -> SortSpec {
        SortSpec::new(
            self.elems
                .iter()
                .map(|e| OrdElem {
                    attr: map(e.attr),
                    ..*e
                })
                .collect(),
        )
    }

    /// Keep only the first occurrence of each attribute (later occurrences
    /// add no ordering information).
    pub fn dedup_attrs(&self) -> SortSpec {
        let mut seen = AttrSet::empty();
        let mut out = Vec::with_capacity(self.elems.len());
        for e in &self.elems {
            if !seen.contains(e.attr) {
                seen.insert(e.attr);
                out.push(*e);
            }
        }
        SortSpec::new(out)
    }

    /// Prefix of the given length.
    pub fn prefix(&self, n: usize) -> SortSpec {
        SortSpec::new(self.elems[..n.min(self.elems.len())].to_vec())
    }

    /// Suffix starting at `n`.
    pub fn suffix(&self, n: usize) -> SortSpec {
        SortSpec::new(self.elems[n.min(self.elems.len())..].to_vec())
    }
}

impl FromIterator<OrdElem> for SortSpec {
    fn from_iter<I: IntoIterator<Item = OrdElem>>(iter: I) -> Self {
        SortSpec::new(iter.into_iter().collect())
    }
}

impl fmt::Display for SortSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, e) in self.elems.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

/// Compares rows according to a [`SortSpec`]; optionally counts comparisons
/// through a callback so executors can report CPU work.
#[derive(Clone)]
pub struct RowComparator {
    elems: Vec<OrdElem>,
}

impl RowComparator {
    /// Build from a specification.
    pub fn new(spec: &SortSpec) -> Self {
        RowComparator {
            elems: spec.elems().to_vec(),
        }
    }

    /// Compare two rows element by element.
    #[inline]
    pub fn compare(&self, left: &Row, right: &Row) -> Ordering {
        for e in &self.elems {
            let ord = e.compare(left, right);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// True when the two rows are equal under this comparator (peers).
    #[inline]
    pub fn equal(&self, left: &Row, right: &Row) -> bool {
        self.compare(left, right) == Ordering::Equal
    }

    /// Number of key elements.
    pub fn arity(&self) -> usize {
        self.elems.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::Value;

    fn a(i: usize) -> AttrId {
        AttrId::new(i)
    }

    #[test]
    fn asc_desc_compare() {
        let r1 = row![1, 10];
        let r2 = row![1, 20];
        assert_eq!(OrdElem::asc(a(1)).compare(&r1, &r2), Ordering::Less);
        assert_eq!(OrdElem::desc(a(1)).compare(&r1, &r2), Ordering::Greater);
        assert_eq!(OrdElem::asc(a(0)).compare(&r1, &r2), Ordering::Equal);
    }

    #[test]
    fn null_placement() {
        let null_row = row![Value::Null];
        let int_row = row![5];
        let last = OrdElem {
            attr: a(0),
            dir: Direction::Asc,
            nulls: NullOrder::Last,
        };
        let first = OrdElem {
            attr: a(0),
            dir: Direction::Asc,
            nulls: NullOrder::First,
        };
        assert_eq!(last.compare(&null_row, &int_row), Ordering::Greater);
        assert_eq!(first.compare(&null_row, &int_row), Ordering::Less);
        assert_eq!(last.compare(&null_row, &null_row), Ordering::Equal);
        // Desc does not flip NULL placement (SQL semantics: placement is
        // explicit, not direction-relative).
        let desc_last = OrdElem {
            attr: a(0),
            dir: Direction::Desc,
            nulls: NullOrder::Last,
        };
        assert_eq!(desc_last.compare(&null_row, &int_row), Ordering::Greater);
    }

    #[test]
    fn comparator_lexicographic() {
        let spec = SortSpec::new(vec![OrdElem::asc(a(0)), OrdElem::desc(a(1))]);
        let cmp = RowComparator::new(&spec);
        assert_eq!(cmp.compare(&row![1, 5], &row![1, 9]), Ordering::Greater);
        assert_eq!(cmp.compare(&row![0, 5], &row![1, 9]), Ordering::Less);
        assert!(cmp.equal(&row![1, 5], &row![1, 5]));
    }

    #[test]
    fn spec_prefix_requires_exact_elements() {
        let ab = SortSpec::new(vec![OrdElem::asc(a(0)), OrdElem::asc(a(1))]);
        let ab_desc = SortSpec::new(vec![OrdElem::asc(a(0)), OrdElem::desc(a(1))]);
        assert!(SortSpec::new(vec![OrdElem::asc(a(0))]).is_prefix_of(&ab));
        assert!(!SortSpec::new(vec![OrdElem::desc(a(0))]).is_prefix_of(&ab));
        assert!(!ab.is_prefix_of(&ab_desc));
        assert!(SortSpec::empty().is_prefix_of(&ab));
    }

    #[test]
    fn spec_without_and_dedup() {
        let s = SortSpec::new(vec![
            OrdElem::asc(a(0)),
            OrdElem::desc(a(1)),
            OrdElem::asc(a(0)),
        ]);
        assert_eq!(s.dedup_attrs().len(), 2);
        let dropped = s.without_attrs(&AttrSet::from_iter([a(0)]));
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped.elems()[0].attr, a(1));
    }

    #[test]
    fn spec_prefix_suffix_concat() {
        let s = SortSpec::new(vec![
            OrdElem::asc(a(0)),
            OrdElem::asc(a(1)),
            OrdElem::asc(a(2)),
        ]);
        assert_eq!(s.prefix(2).attr_seq().as_slice(), &[a(0), a(1)]);
        assert_eq!(s.suffix(2).attr_seq().as_slice(), &[a(2)]);
        assert_eq!(s.prefix(9).len(), 3);
        assert_eq!(s.prefix(1).concat(&s.suffix(1)), s);
    }
}
