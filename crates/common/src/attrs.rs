//! Attribute algebra: ids, sets and sequences (paper §2).
//!
//! The paper manipulates window specifications with a small algebra over
//! attribute *sets* (`WPK`, hash keys, segment keys `X`) and attribute
//! *sequences* (`WOK`, sort keys `Y`): permutations, concatenation `X ∘ Y`,
//! longest common prefix `X ∧ Y`, and prefix tests `X ≤ Y`. This module
//! implements that algebra for plain attributes; direction-aware sequences
//! live in [`crate::ord`].

use std::fmt;

/// Identifier of an attribute: its position in a [`crate::Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(u16);

impl AttrId {
    /// Build from a column position.
    pub fn new(index: usize) -> Self {
        assert!(index <= u16::MAX as usize, "schema wider than u16::MAX");
        AttrId(index as u16)
    }

    /// Position in the schema.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A set of attributes, stored sorted and deduplicated so that set equality
/// is representation equality.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrSet {
    elems: Vec<AttrId>,
}

impl AttrSet {
    /// Empty set.
    pub fn empty() -> Self {
        AttrSet { elems: Vec::new() }
    }

    /// Build from any iterator; duplicates collapse.
    /// (Also available through `FromIterator`; the inherent method keeps
    /// call sites free of `use` noise.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(iter: impl IntoIterator<Item = AttrId>) -> Self {
        let mut elems: Vec<AttrId> = iter.into_iter().collect();
        elems.sort_unstable();
        elems.dedup();
        AttrSet { elems }
    }

    /// Number of attributes (`|X|`).
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Sorted member view.
    pub fn iter(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.elems.iter().copied()
    }

    /// Sorted member slice.
    pub fn as_slice(&self) -> &[AttrId] {
        &self.elems
    }

    /// Membership test.
    pub fn contains(&self, a: AttrId) -> bool {
        self.elems.binary_search(&a).is_ok()
    }

    /// `self ⊆ other`.
    pub fn is_subset(&self, other: &AttrSet) -> bool {
        self.elems.iter().all(|a| other.contains(*a))
    }

    /// `self ∪ other`.
    pub fn union(&self, other: &AttrSet) -> AttrSet {
        AttrSet::from_iter(self.iter().chain(other.iter()))
    }

    /// `self ∩ other`.
    pub fn intersect(&self, other: &AttrSet) -> AttrSet {
        AttrSet::from_iter(self.iter().filter(|a| other.contains(*a)))
    }

    /// `self − other`.
    pub fn difference(&self, other: &AttrSet) -> AttrSet {
        AttrSet::from_iter(self.iter().filter(|a| !other.contains(*a)))
    }

    /// Insert one attribute.
    pub fn insert(&mut self, a: AttrId) {
        if let Err(pos) = self.elems.binary_search(&a) {
            self.elems.insert(pos, a);
        }
    }

    /// Remove one attribute; returns whether it was present.
    pub fn remove(&mut self, a: AttrId) -> bool {
        match self.elems.binary_search(&a) {
            Ok(pos) => {
                self.elems.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

impl FromIterator<AttrId> for AttrSet {
    fn from_iter<I: IntoIterator<Item = AttrId>>(iter: I) -> Self {
        AttrSet::from_iter(iter)
    }
}

impl From<&[AttrId]> for AttrSet {
    fn from(s: &[AttrId]) -> Self {
        AttrSet::from_iter(s.iter().copied())
    }
}

/// A sequence of attributes (ordering keys ignore direction here).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct AttrSeq {
    elems: Vec<AttrId>,
}

impl AttrSeq {
    /// Empty sequence (`ε`).
    pub fn empty() -> Self {
        AttrSeq { elems: Vec::new() }
    }

    /// Build from attributes in order.
    pub fn new(elems: Vec<AttrId>) -> Self {
        AttrSeq { elems }
    }

    /// Length (`|X|`).
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True when `ε`.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Element view.
    pub fn as_slice(&self) -> &[AttrId] {
        &self.elems
    }

    /// The set of attributes occurring in the sequence (`attr(X)`).
    pub fn attr_set(&self) -> AttrSet {
        AttrSet::from_iter(self.elems.iter().copied())
    }

    /// Concatenation `self ∘ other`.
    pub fn concat(&self, other: &AttrSeq) -> AttrSeq {
        AttrSeq::new(
            self.elems
                .iter()
                .chain(other.elems.iter())
                .copied()
                .collect(),
        )
    }

    /// Longest common prefix `self ∧ other`.
    pub fn common_prefix(&self, other: &AttrSeq) -> AttrSeq {
        let n = self
            .elems
            .iter()
            .zip(other.elems.iter())
            .take_while(|(a, b)| a == b)
            .count();
        AttrSeq::new(self.elems[..n].to_vec())
    }

    /// Prefix test `self ≤ other`.
    pub fn is_prefix_of(&self, other: &AttrSeq) -> bool {
        self.len() <= other.len() && self.elems == other.elems[..self.len()]
    }

    /// Proper-prefix test `self < other`.
    pub fn is_proper_prefix_of(&self, other: &AttrSeq) -> bool {
        self.len() < other.len() && self.is_prefix_of(other)
    }

    /// Sequence with all attributes in `drop` removed (used when constants
    /// are deleted from an ordering).
    pub fn without(&self, drop: &AttrSet) -> AttrSeq {
        AttrSeq::new(
            self.elems
                .iter()
                .copied()
                .filter(|a| !drop.contains(*a))
                .collect(),
        )
    }
}

impl FromIterator<AttrId> for AttrSeq {
    fn from_iter<I: IntoIterator<Item = AttrId>>(iter: I) -> Self {
        AttrSeq::new(iter.into_iter().collect())
    }
}

impl fmt::Display for AttrSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.elems.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.elems.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: usize) -> AttrId {
        AttrId::new(i)
    }
    fn set(ids: &[usize]) -> AttrSet {
        AttrSet::from_iter(ids.iter().map(|&i| a(i)))
    }
    fn seq(ids: &[usize]) -> AttrSeq {
        AttrSeq::new(ids.iter().map(|&i| a(i)).collect())
    }

    #[test]
    fn set_dedup_and_order_independence() {
        assert_eq!(set(&[3, 1, 1, 2]), set(&[1, 2, 3]));
        assert_eq!(set(&[3, 1, 2]).len(), 3);
    }

    #[test]
    fn set_ops() {
        let x = set(&[1, 2, 3]);
        let y = set(&[2, 3, 4]);
        assert_eq!(x.union(&y), set(&[1, 2, 3, 4]));
        assert_eq!(x.intersect(&y), set(&[2, 3]));
        assert_eq!(x.difference(&y), set(&[1]));
        assert!(set(&[2]).is_subset(&x));
        assert!(!x.is_subset(&y));
        assert!(AttrSet::empty().is_subset(&x));
    }

    #[test]
    fn set_insert_remove() {
        let mut s = set(&[1, 3]);
        s.insert(a(2));
        assert_eq!(s, set(&[1, 2, 3]));
        s.insert(a(2));
        assert_eq!(s.len(), 3);
        assert!(s.remove(a(1)));
        assert!(!s.remove(a(1)));
        assert_eq!(s, set(&[2, 3]));
    }

    #[test]
    fn seq_concat_prefix() {
        let x = seq(&[1, 2]);
        let y = seq(&[3]);
        assert_eq!(x.concat(&y), seq(&[1, 2, 3]));
        assert!(x.is_prefix_of(&seq(&[1, 2, 3])));
        assert!(x.is_prefix_of(&x));
        assert!(!x.is_proper_prefix_of(&x));
        assert!(x.is_proper_prefix_of(&seq(&[1, 2, 3])));
        assert!(!seq(&[2, 1]).is_prefix_of(&seq(&[1, 2, 3])));
        assert!(AttrSeq::empty().is_prefix_of(&x));
    }

    #[test]
    fn seq_common_prefix() {
        assert_eq!(
            seq(&[1, 2, 3]).common_prefix(&seq(&[1, 2, 4])),
            seq(&[1, 2])
        );
        assert_eq!(seq(&[1]).common_prefix(&seq(&[2])), AttrSeq::empty());
        assert_eq!(seq(&[1, 2]).common_prefix(&seq(&[1, 2])), seq(&[1, 2]));
    }

    #[test]
    fn seq_without() {
        assert_eq!(seq(&[1, 2, 3, 2]).without(&set(&[2])), seq(&[1, 3]));
    }

    #[test]
    fn seq_attr_set() {
        assert_eq!(seq(&[3, 1, 3]).attr_set(), set(&[1, 3]));
    }
}
