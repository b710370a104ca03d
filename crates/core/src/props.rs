//! The segmented-relation property algebra (paper §3.1, Defs. 1–3).
//!
//! [`SegProps`] describes the physical property of the rows flowing between
//! operators: the relation is a sequence of segments pairwise disjoint on
//! `X`, each sorted on `Y` (`R_{X,Y}`); `grouped` marks the special case
//! `R^g_{X,Y}` where every segment is exactly one `X`-group, in which the
//! `X` attributes are *constant within each segment* and therefore act as
//! free ordering columns.
//!
//! Canonical form: when `grouped`, `X` attributes are removed from `Y`
//! (constants carry no ordering information), duplicate attributes in `Y`
//! are dropped, and `X = ∅` forces `grouped = false` (the whole relation is
//! one segment). All predicates below assume — and constructors enforce —
//! canonical form, which keeps matching a simple positional check.

use crate::spec::WindowSpec;
use wf_common::{AttrId, AttrSet, OrdElem, SortSpec};

/// Physical property `R_{X,Y}` (+ grouped flag) of a row stream.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SegProps {
    x: AttrSet,
    y: SortSpec,
    grouped: bool,
}

impl SegProps {
    /// Canonicalizing constructor.
    pub fn new(x: AttrSet, y: SortSpec, grouped: bool) -> Self {
        let grouped = grouped && !x.is_empty();
        let y = if grouped { y.without_attrs(&x) } else { y };
        let y = y.dedup_attrs();
        SegProps { x, y, grouped }
    }

    /// A totally unordered relation (`X = ∅`, `Y = ε`): one segment, no
    /// known order.
    pub fn unordered() -> Self {
        SegProps {
            x: AttrSet::empty(),
            y: SortSpec::empty(),
            grouped: false,
        }
    }

    /// A totally ordered relation `R_{∅,key}` (FS output).
    pub fn sorted(key: SortSpec) -> Self {
        SegProps::new(AttrSet::empty(), key, false)
    }

    /// Segment-key set `X`.
    pub fn x(&self) -> &AttrSet {
        &self.x
    }

    /// Within-segment ordering `Y` (canonical).
    pub fn y(&self) -> &SortSpec {
        &self.y
    }

    /// True for `R^g_{X,Y}`.
    pub fn is_grouped(&self) -> bool {
        self.grouped
    }

    /// The same property over attributes renamed by `map` (injective).
    pub fn map_attrs(&self, map: impl Fn(AttrId) -> AttrId) -> SegProps {
        SegProps {
            x: AttrSet::from_iter(self.x.iter().map(&map)),
            y: self.y.map_attrs(&map),
            grouped: self.grouped,
        }
    }

    /// Attributes constant within each segment (`X` when grouped, else ∅).
    pub fn constants(&self) -> AttrSet {
        if self.grouped {
            self.x.clone()
        } else {
            AttrSet::empty()
        }
    }

    // ------------------------------------------------------------------
    // Matching (Def. 2 / Thm. 1)
    // ------------------------------------------------------------------

    /// Does this relation match `wf` — i.e. can `wf` be evaluated by one
    /// sequential scan with no reordering?
    ///
    /// `R_{X,Y}` matches `wf = (WPK, WOK)` iff `X ⊆ WPK` and some
    /// permutation of `WPK` concatenated with `WOK` is a prefix of the
    /// effective ordering. With constants `C` (grouped case) removed from
    /// both sides, that reduces to: the first `|WPK − C|` attributes of `Y`
    /// are exactly the set `WPK − C` (any order, any direction — grouping
    /// only needs contiguity), followed element-wise by `WOK` exactly.
    pub fn matches(&self, wf: &WindowSpec) -> bool {
        let wpk = wf.wpk();
        if !self.x.is_subset(wpk) {
            return false;
        }
        let c = self.constants();
        let d = wpk.difference(&c);
        let k = d.len();
        let wok = wf.wok();
        let m = wok.len();
        if self.y.len() < k + m {
            return false;
        }
        let head: AttrSet = self.y.elems()[..k].iter().map(|e| e.attr).collect();
        if head != d {
            return false;
        }
        self.y.elems()[k..k + m] == *wok.elems()
    }

    /// Does this relation match every function in `wfs`?
    pub fn matches_all<'a>(&self, wfs: impl IntoIterator<Item = &'a WindowSpec>) -> bool {
        wfs.into_iter().all(|wf| self.matches(wf))
    }

    // ------------------------------------------------------------------
    // Segmented Sort (§3.3)
    // ------------------------------------------------------------------

    /// SS-reorderability (Def. 3 applied to SS): either `X ≠ ∅ ∧ X ⊆ WPK`,
    /// or `X = ∅` and some `perm(WPK) ∘ WOK` shares a non-empty prefix with
    /// `Y` (otherwise SS would degenerate to a full sort).
    pub fn ss_reorderable(&self, wf: &WindowSpec) -> bool {
        if !self.x.is_empty() {
            return self.x.is_subset(wf.wpk());
        }
        self.alpha_split(wf).consumed_y > 0
    }

    /// Compute the `α / β` decomposition for reordering this relation to
    /// match `wf` with SS, choosing the `WPK` permutation that maximizes
    /// `|α|` (§3.3, footnote 2).
    ///
    /// * `alpha` — the prefix already satisfied (directions adopted from
    ///   `Y`; constants appended free of charge),
    /// * `beta` — what each unit must be sorted on,
    /// * `consumed_y` — how many `Y` elements `α` actually uses (the
    ///   degeneration guard: `X = ∅` requires `consumed_y > 0`).
    ///
    /// `alpha ∘ beta` is always a valid `perm(WPK) ∘ WOK`.
    pub fn alpha_split(&self, wf: &WindowSpec) -> AlphaSplit {
        let c = self.constants().intersect(wf.wpk());
        let mut remaining_d = wf.wpk().difference(&c);
        let y = self.y.elems();
        let mut alpha: Vec<OrdElem> = Vec::new();
        let mut pos = 0usize;

        // Phase 1: consume Y elements that are partition-key attributes.
        while pos < y.len() && remaining_d.contains(y[pos].attr) {
            alpha.push(y[pos]);
            remaining_d.remove(y[pos].attr);
            pos += 1;
        }
        // Constants are free: they extend α without consuming Y.
        for a in c.iter() {
            alpha.push(OrdElem::asc(a));
        }
        // Phase 2: if WPK is exhausted, α can extend into WOK.
        let mut wok_consumed = 0usize;
        if remaining_d.is_empty() {
            for e in wf.wok().elems() {
                if pos < y.len() && y[pos] == *e {
                    alpha.push(*e);
                    pos += 1;
                    wok_consumed += 1;
                } else {
                    break;
                }
            }
        }
        // β: remaining partition attrs (canonical ascending) then the
        // unconsumed WOK suffix.
        let mut beta: Vec<OrdElem> = remaining_d.iter().map(OrdElem::asc).collect();
        beta.extend_from_slice(&wf.wok().elems()[wok_consumed..]);

        AlphaSplit {
            alpha: SortSpec::new(alpha),
            beta: SortSpec::new(beta),
            consumed_y: pos,
        }
    }

    /// Longest prefix of `key` that each segment already satisfies:
    /// constants are free, other elements must follow `Y` element-wise.
    /// This is the `α` of a Segmented Sort targeting `key` (a covering
    /// permutation possibly spanning several window functions).
    pub fn satisfied_prefix_of(&self, key: &SortSpec) -> usize {
        let c = self.constants();
        let y = self.y.elems();
        let mut pos = 0usize;
        let mut n = 0usize;
        for e in key.elems() {
            if c.contains(e.attr) {
                n += 1;
                continue;
            }
            if pos < y.len() && y[pos] == *e {
                pos += 1;
                n += 1;
            } else {
                break;
            }
        }
        n
    }

    // ------------------------------------------------------------------
    // Output properties (Thm. 2 and §3.2/3.3)
    // ------------------------------------------------------------------

    /// Property after a Full Sort on `key`: totally ordered.
    pub fn after_fs(key: SortSpec) -> SegProps {
        SegProps::sorted(key)
    }

    /// Property after a Hashed Sort on `whk` with per-bucket sort `key`:
    /// segments (buckets) disjoint on `whk`, each sorted on `key`. Buckets
    /// may hold several `whk`-groups, so the result is not grouped.
    pub fn after_hs(whk: AttrSet, key: SortSpec) -> SegProps {
        SegProps::new(whk, key, false)
    }

    /// Property after a Segmented Sort that reordered `self` to match `wf`:
    /// segmentation (and groupedness) preserved, within-segment ordering
    /// replaced by `α ∘ β`.
    pub fn after_ss(&self, split: &AlphaSplit) -> SegProps {
        SegProps::new(self.x.clone(), split.full_key(), self.grouped)
    }

    // ------------------------------------------------------------------
    // ORDER BY support (§5)
    // ------------------------------------------------------------------

    /// Length of the longest prefix of `order` this relation already
    /// satisfies globally. A relation with `X ≠ ∅` has multiple segments
    /// with no global order, so only `X = ∅` can satisfy anything.
    pub fn satisfied_order_prefix(&self, order: &SortSpec) -> usize {
        if !self.x.is_empty() {
            return 0;
        }
        order
            .elems()
            .iter()
            .zip(self.y.elems())
            .take_while(|(o, y)| o == y)
            .count()
    }

    /// Whether an ORDER BY is fully satisfied.
    pub fn satisfies_order(&self, order: &SortSpec) -> bool {
        self.satisfied_order_prefix(order) == order.len()
    }
}

impl std::fmt::Display for SegProps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.x.is_empty() && self.y.is_empty() {
            return write!(f, "R(unordered)");
        }
        write!(
            f,
            "R{}{},{}",
            if self.grouped { "g" } else { "" },
            self.x,
            self.y
        )
    }
}

/// Result of [`SegProps::alpha_split`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaSplit {
    /// Already-satisfied prefix (drives unit detection in the executor).
    pub alpha: SortSpec,
    /// Per-unit sort key.
    pub beta: SortSpec,
    /// Number of `Y` elements α consumes (0 ⇒ units are whole segments).
    pub consumed_y: usize,
}

impl AlphaSplit {
    /// The complete key `α ∘ β` — a valid `perm(WPK) ∘ WOK`.
    pub fn full_key(&self) -> SortSpec {
        self.alpha.concat(&self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::AttrId;

    fn a(i: usize) -> AttrId {
        AttrId::new(i)
    }
    fn aset(ids: &[usize]) -> AttrSet {
        AttrSet::from_iter(ids.iter().map(|&i| a(i)))
    }
    fn key(ids: &[usize]) -> SortSpec {
        SortSpec::new(ids.iter().map(|&i| OrdElem::asc(a(i))).collect())
    }
    /// wf = ({wpk}, (wok)) with ascending keys. Attrs: a=0, b=1, c=2, d=3.
    fn wf(wpk: &[usize], wok: &[usize]) -> WindowSpec {
        WindowSpec::rank("t", wpk.iter().map(|&i| a(i)).collect(), key(wok))
    }

    /// Paper Example 2: R∅,(a,b,c), R{a},(b,a,c), Rg{b},(a,c) all match
    /// wf = ({a,b}, (c)).
    #[test]
    fn example2_matching() {
        let target = wf(&[0, 1], &[2]);
        assert!(SegProps::sorted(key(&[0, 1, 2])).matches(&target));
        assert!(SegProps::new(aset(&[0]), key(&[1, 0, 2]), false).matches(&target));
        assert!(SegProps::new(aset(&[1]), key(&[0, 2]), true).matches(&target));
        // And some that must not match:
        assert!(!SegProps::sorted(key(&[0, 2, 1])).matches(&target));
        assert!(!SegProps::new(aset(&[3]), key(&[0, 1, 2]), false).matches(&target)); // X ⊄ WPK
        assert!(!SegProps::new(aset(&[1]), key(&[0, 2]), false).matches(&target)); // not grouped
        assert!(!SegProps::unordered().matches(&target));
    }

    #[test]
    fn trivial_spec_matches_single_segment_inputs_only() {
        let t = wf(&[], &[]);
        assert!(SegProps::unordered().matches(&t));
        assert!(SegProps::sorted(key(&[2])).matches(&t));
        // A multi-segment relation does NOT match (∅, ε): its single
        // window partition (the whole table) spans segment boundaries, and
        // Def. 2's X ⊆ WPK condition rejects exactly that.
        assert!(!SegProps::new(aset(&[0]), key(&[1]), true).matches(&t));
    }

    #[test]
    fn matching_requires_exact_wok_elements() {
        let target = WindowSpec::rank("t", vec![a(0)], SortSpec::new(vec![OrdElem::desc(a(1))]));
        assert!(!SegProps::sorted(key(&[0, 1])).matches(&target)); // asc b ≠ desc b
        let desc_y = SortSpec::new(vec![OrdElem::asc(a(0)), OrdElem::desc(a(1))]);
        assert!(SegProps::sorted(desc_y).matches(&target));
        // Direction inside the WPK region is irrelevant.
        let desc_head = SortSpec::new(vec![OrdElem::desc(a(0)), OrdElem::desc(a(1))]);
        assert!(SegProps::sorted(desc_head).matches(&target));
    }

    #[test]
    fn grouped_canonicalization_removes_x_from_y() {
        let p = SegProps::new(aset(&[1]), key(&[0, 1, 2]), true);
        assert_eq!(p.y().attr_seq().as_slice(), &[a(0), a(2)]);
        // Empty X cannot be grouped.
        let q = SegProps::new(AttrSet::empty(), key(&[0]), true);
        assert!(!q.is_grouped());
    }

    /// Paper Example 4: SS reordering targets for wf = ({a,b}, (c)).
    #[test]
    fn example4_alpha_splits() {
        let target = wf(&[0, 1], &[2]);

        // R∅,(a,d): α = (a), result R∅,(a,b,c).
        let r1 = SegProps::sorted(key(&[0, 3]));
        let s1 = r1.alpha_split(&target);
        assert_eq!(s1.alpha.attr_seq().as_slice(), &[a(0)]);
        assert_eq!(s1.beta.attr_seq().as_slice(), &[a(1), a(2)]);
        assert_eq!(s1.consumed_y, 1);
        assert!(r1.after_ss(&s1).matches(&target));

        // R{a},(a,b,d): α = (a,b), result R{a},(a,b,c).
        let r2 = SegProps::new(aset(&[0]), key(&[0, 1, 3]), false);
        let s2 = r2.alpha_split(&target);
        assert_eq!(s2.alpha.attr_seq().as_slice(), &[a(0), a(1)]);
        assert_eq!(s2.beta.attr_seq().as_slice(), &[a(2)]);
        assert!(r2.after_ss(&s2).matches(&target));

        // Rg{b},(a,d): α = (a,b) — the constant b extends α for free.
        let r3 = SegProps::new(aset(&[1]), key(&[0, 3]), true);
        let s3 = r3.alpha_split(&target);
        assert_eq!(s3.alpha.attr_seq().as_slice(), &[a(0), a(1)]);
        assert_eq!(s3.beta.attr_seq().as_slice(), &[a(2)]);
        assert_eq!(s3.consumed_y, 1);
        let out = r3.after_ss(&s3);
        assert!(out.matches(&target));
        assert!(out.is_grouped());
    }

    /// Paper Example 5: α empty, whole segments sorted.
    #[test]
    fn example5_empty_alpha() {
        let target = wf(&[0, 1], &[2]);
        // R{a},(d): α = ∅ (no prefix shared), β = perm(WPK)∘WOK.
        let r1 = SegProps::new(aset(&[0]), key(&[3]), false);
        assert!(r1.ss_reorderable(&target));
        let s1 = r1.alpha_split(&target);
        assert_eq!(s1.consumed_y, 0);
        assert!(s1.alpha.is_empty());
        assert_eq!(s1.beta.len(), 3);
        assert!(r1.after_ss(&s1).matches(&target));

        // R{b},(c): X={b} ⊆ WPK → SS-reorderable even though Y=(c) is not
        // usable as a prefix (c ∉ WPK, phase 1 stops immediately).
        let r2 = SegProps::new(aset(&[1]), key(&[2]), false);
        assert!(r2.ss_reorderable(&target));
        let s2 = r2.alpha_split(&target);
        assert_eq!(s2.consumed_y, 0);
        assert!(r2.after_ss(&s2).matches(&target));
    }

    #[test]
    fn ss_degeneration_guard_for_unsegmented_inputs() {
        // X = ∅ and no common prefix → SS would be a full sort → not
        // SS-reorderable (paper Example 6's setting).
        let target = wf(&[0], &[1]);
        assert!(!SegProps::unordered().ss_reorderable(&target));
        assert!(!SegProps::sorted(key(&[3])).ss_reorderable(&target));
        assert!(SegProps::sorted(key(&[0])).ss_reorderable(&target));
    }

    #[test]
    fn ss_requires_x_subset_of_wpk() {
        let target = wf(&[0], &[1]);
        let r = SegProps::new(aset(&[0, 2]), key(&[0]), false);
        assert!(!r.ss_reorderable(&target)); // {a,c} ⊄ {a}
    }

    /// Theorem 2 (spirit): SS-reorderability is preserved across SS
    /// reordering and window evaluation.
    #[test]
    fn theorem2_preservation() {
        let wf1 = wf(&[0], &[1]); // ({a},(b))
        let wf2 = wf(&[0], &[2]); // ({a},(c))
        let r = SegProps::sorted(key(&[0, 3])); // R∅,(a,d)
        assert!(r.ss_reorderable(&wf1));
        assert!(r.ss_reorderable(&wf2));
        let r1 = r.after_ss(&r.alpha_split(&wf1));
        // After reordering for wf1, wf2 is still SS-reorderable.
        assert!(r1.matches(&wf1));
        assert!(r1.ss_reorderable(&wf2));
    }

    #[test]
    fn after_hs_props() {
        let p = SegProps::after_hs(aset(&[0]), key(&[0, 1]));
        assert!(p.matches(&wf(&[0], &[1])));
        assert!(p.matches(&wf(&[0, 1], &[])));
        assert!(!p.matches(&wf(&[1], &[0])));
        assert!(!p.is_grouped());
    }

    #[test]
    fn order_by_support() {
        let p = SegProps::sorted(key(&[0, 1, 2]));
        assert!(p.satisfies_order(&key(&[0, 1])));
        assert_eq!(p.satisfied_order_prefix(&key(&[0, 2])), 1);
        let seg = SegProps::new(aset(&[0]), key(&[0, 1]), false);
        assert_eq!(
            seg.satisfied_order_prefix(&key(&[0])),
            0,
            "multi-segment ⇒ no global order"
        );
        assert!(SegProps::sorted(key(&[0])).satisfies_order(&SortSpec::empty()));
    }

    #[test]
    fn display_forms() {
        assert_eq!(SegProps::unordered().to_string(), "R(unordered)");
        let g = SegProps::new(aset(&[1]), key(&[0]), true);
        assert!(g.to_string().starts_with("Rg"));
    }

    #[test]
    fn satisfied_prefix_with_constants_and_directions() {
        // Grouped on {b}: b is constant, so (a, b, c) is satisfied up to c
        // by Y = (a, c...) — constants are free.
        let props = SegProps::new(aset(&[1]), key(&[0, 2]), true);
        let target = SortSpec::new(vec![
            OrdElem::asc(a(0)),
            OrdElem::asc(a(1)),
            OrdElem::asc(a(2)),
        ]);
        assert_eq!(props.satisfied_prefix_of(&target), 3);
        // Direction mismatch stops the prefix.
        let desc_target = SortSpec::new(vec![OrdElem::desc(a(0))]);
        assert_eq!(props.satisfied_prefix_of(&desc_target), 0);
        // Non-grouped: b is NOT constant.
        let flat = SegProps::new(aset(&[1]), key(&[0, 2]), false);
        assert_eq!(flat.satisfied_prefix_of(&target), 1);
    }

    #[test]
    fn alpha_split_with_desc_y_adopts_direction() {
        // Input sorted on (a desc): α must carry the desc element so the
        // executor's boundary detection runs over the real physical order.
        let y = SortSpec::new(vec![OrdElem::desc(a(0))]);
        let props = SegProps::new(AttrSet::empty(), y, false);
        let target = wf(&[0], &[1]);
        let split = props.alpha_split(&target);
        assert_eq!(split.alpha.elems()[0], OrdElem::desc(a(0)));
        assert_eq!(split.consumed_y, 1);
        assert!(props.after_ss(&split).matches(&target));
    }

    #[test]
    fn canonicalization_dedups_y() {
        let y = SortSpec::new(vec![
            OrdElem::asc(a(0)),
            OrdElem::asc(a(0)),
            OrdElem::asc(a(1)),
        ]);
        let p = SegProps::new(AttrSet::empty(), y, false);
        assert_eq!(p.y().len(), 2);
    }

    /// Matching implies SS-reorderable inputs stay consistent: a matched
    /// relation needs no reorder, and alpha_split on it consumes the whole
    /// key (β covers nothing new).
    #[test]
    fn matched_relation_alpha_consumes_everything() {
        let target = wf(&[0, 1], &[2]);
        let r = SegProps::sorted(key(&[1, 0, 2]));
        assert!(r.matches(&target));
        let s = r.alpha_split(&target);
        assert!(s.beta.is_empty());
        assert_eq!(s.consumed_y, 3);
    }
}
