//! Window-function specifications: `wf = (WPK, WOK)` plus the computed
//! function and frame.

use std::fmt;
use wf_common::{AttrId, AttrSet, OrdElem, Schema, SortSpec};
pub use wf_exec::window::{Bound, FrameSpec, FrameUnits, WindowFunction};

/// One window function as written in the query.
///
/// `WPK` (the PARTITION BY key) is kept in *written order* — the PSQL
/// baseline sorts on exactly that order — with the attribute set derived.
/// `WOK` (the ORDER BY key) is normalized on construction:
///
/// * later duplicates of an attribute are dropped (no extra ordering), and
/// * attributes already in `WPK` are dropped (constant within a partition).
///
/// After normalization `WPK ∩ attr(WOK) = ∅`, the precondition the paper's
/// algebra implicitly assumes.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSpec {
    /// Output column name.
    pub name: String,
    /// The computed function.
    pub func: WindowFunction,
    /// Optional explicit frame (None = SQL default).
    pub frame: Option<FrameSpec>,
    wpk_written: Vec<AttrId>,
    wpk_set: AttrSet,
    wok: SortSpec,
}

impl WindowSpec {
    /// Build and normalize a specification.
    pub fn new(
        name: impl Into<String>,
        func: WindowFunction,
        partition_by: Vec<AttrId>,
        order_by: SortSpec,
    ) -> Self {
        // Dedup WPK preserving written order.
        let mut wpk_written = Vec::with_capacity(partition_by.len());
        let mut wpk_set = AttrSet::empty();
        for a in partition_by {
            if !wpk_set.contains(a) {
                wpk_set.insert(a);
                wpk_written.push(a);
            }
        }
        let wok = order_by.dedup_attrs().without_attrs(&wpk_set);
        WindowSpec {
            name: name.into(),
            func,
            frame: None,
            wpk_written,
            wpk_set,
            wok,
        }
    }

    /// Rank over the given keys — the function used throughout the paper's
    /// experiments.
    pub fn rank(name: impl Into<String>, partition_by: Vec<AttrId>, order_by: SortSpec) -> Self {
        WindowSpec::new(name, WindowFunction::Rank, partition_by, order_by)
    }

    /// With an explicit frame.
    pub fn with_frame(mut self, frame: FrameSpec) -> Self {
        self.frame = Some(frame);
        self
    }

    /// The partition-key set `WPK`.
    pub fn wpk(&self) -> &AttrSet {
        &self.wpk_set
    }

    /// `WPK` in the order it was written (used by the PSQL baseline).
    pub fn wpk_written(&self) -> &[AttrId] {
        &self.wpk_written
    }

    /// The normalized ordering key `WOK`.
    pub fn wok(&self) -> &SortSpec {
        &self.wok
    }

    /// `|WPK| + |WOK|` — the length of any `perm(WPK) ∘ WOK` key.
    pub fn key_len(&self) -> usize {
        self.wpk_set.len() + self.wok.len()
    }

    /// The frame this call actually evaluates with: the explicit frame, or
    /// SQL's default (which depends on whether an ORDER BY is present) —
    /// exactly the substitution the window operator applies.
    pub fn resolved_frame(&self) -> FrameSpec {
        self.frame
            .unwrap_or_else(|| FrameSpec::default_for(!self.wok.is_empty()))
    }

    /// The spilled-segment evaluation class of this call (one-pass /
    /// ring-buffer / buffered) — see [`wf_exec::StreamableEval`].
    pub fn eval_class(&self) -> wf_exec::StreamableEval {
        wf_exec::StreamableEval::classify(&self.func, &self.resolved_frame())
    }

    /// The sort key `perm(WPK) ∘ WOK` for a *given* permutation of `WPK`
    /// (elements for the permutation region default to ascending).
    pub fn key_with_perm(&self, perm: &[AttrId]) -> SortSpec {
        debug_assert_eq!(
            AttrSet::from_iter(perm.iter().copied()),
            self.wpk_set,
            "permutation must cover WPK exactly"
        );
        let head: Vec<OrdElem> = perm.iter().map(|&a| OrdElem::asc(a)).collect();
        SortSpec::new(head).concat(&self.wok)
    }

    /// The written-order sort key (what PSQL uses).
    pub fn written_key(&self) -> SortSpec {
        self.key_with_perm(&self.wpk_written.clone())
    }

    /// The same call with every attribute `a` it reads replaced by
    /// `map(a)` — the call rebound over a narrowed schema. `map` must be
    /// injective, so the normalized keys keep their shape.
    pub fn map_attrs(&self, map: impl Fn(AttrId) -> AttrId) -> WindowSpec {
        let wpk_written: Vec<AttrId> = self.wpk_written.iter().map(|&a| map(a)).collect();
        WindowSpec {
            name: self.name.clone(),
            func: self.func.map_column(&map),
            frame: self.frame,
            wpk_set: AttrSet::from_iter(wpk_written.iter().copied()),
            wpk_written,
            wok: self.wok.map_attrs(&map),
        }
    }

    /// Human-readable form `({a,b}, (c))` with schema names.
    pub fn describe(&self, schema: &Schema) -> String {
        let wpk: Vec<&str> = self.wpk_written.iter().map(|&a| schema.name(a)).collect();
        let wok: Vec<String> = self
            .wok
            .elems()
            .iter()
            .map(|e| {
                let mut s = schema.name(e.attr).to_string();
                if e.dir == wf_common::Direction::Desc {
                    s.push_str(" desc");
                }
                s
            })
            .collect();
        format!("({{{}}}, ({}))", wpk.join(","), wok.join(","))
    }
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}=({}, {})", self.name, self.wpk_set, self.wok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: usize) -> AttrId {
        AttrId::new(i)
    }
    fn spec_of(wpk: &[usize], wok: &[usize]) -> WindowSpec {
        WindowSpec::rank(
            "w",
            wpk.iter().map(|&i| a(i)).collect(),
            SortSpec::new(wok.iter().map(|&i| OrdElem::asc(a(i))).collect()),
        )
    }

    #[test]
    fn wok_drops_wpk_attrs_and_duplicates() {
        let s = WindowSpec::rank(
            "w",
            vec![a(0)],
            SortSpec::new(vec![
                OrdElem::asc(a(0)), // in WPK → dropped
                OrdElem::asc(a(1)),
                OrdElem::desc(a(1)), // duplicate attr → dropped
                OrdElem::asc(a(2)),
            ]),
        );
        assert_eq!(s.wok().len(), 2);
        assert_eq!(s.wok().attr_seq().as_slice(), &[a(1), a(2)]);
        assert_eq!(s.key_len(), 3);
    }

    #[test]
    fn wpk_written_order_preserved_dedup() {
        let s = WindowSpec::rank("w", vec![a(2), a(0), a(2)], SortSpec::empty());
        assert_eq!(s.wpk_written(), &[a(2), a(0)]);
        assert_eq!(s.wpk().len(), 2);
    }

    #[test]
    fn written_key_uses_written_order() {
        let s = spec_of(&[2, 0], &[1]);
        let key = s.written_key();
        assert_eq!(key.attr_seq().as_slice(), &[a(2), a(0), a(1)]);
    }

    #[test]
    fn key_with_perm_concats_wok() {
        let s = spec_of(&[0, 1], &[2]);
        let key = s.key_with_perm(&[a(1), a(0)]);
        assert_eq!(key.attr_seq().as_slice(), &[a(1), a(0), a(2)]);
    }

    #[test]
    fn wok_direction_survives_normalization() {
        let s = WindowSpec::rank("w", vec![a(0)], SortSpec::new(vec![OrdElem::desc(a(1))]));
        assert_eq!(s.wok().elems()[0], OrdElem::desc(a(1)));
    }
}
