//! **Segmented Sort (SS)** — reorder an already-segmented relation by
//! sorting only the pieces that need it (paper §3.3).
//!
//! Given input `R_{X,Y}` and a target key `perm(WPK) ∘ WOK = α ∘ β` where
//! `α = (perm(WPK) ∘ WOK) ∧ Y` is the prefix the input already satisfies:
//!
//! * if `α` is non-empty, each segment is a sequence of `α`-groups; sorting
//!   every `α`-group on `β` yields `R_{X, α∘β}`;
//! * if `α` is empty (possible only when `X ≠ ∅`), each whole segment is
//!   sorted on `β`.
//!
//! Units are detected by `α`-value change *within* segments — segment
//! boundaries always terminate a unit — so the input's segmentation is
//! preserved exactly. Units normally fit in memory (that is SS's whole
//! advantage); oversized units fall back to the shared external sort.

use crate::env::OpEnv;
use crate::operator::{drain, Operator, Segment, SegmentSource};
use crate::segment::{RunSplitter, SegmentedRows};
use crate::sorter::{sort_rows, sort_stream_to_handle, SortKey};
use wf_common::{AttrSet, Result, Row, RowComparator, SortSpec};

/// The SS operator — the one the paper's pipelining argument is really
/// about: it is **fully streaming**. Each pull takes exactly one upstream
/// segment, sorts the `α`-groups inside it, and emits it; memory is bounded
/// by the largest segment, never the relation.
///
/// Boundary reuse (§3.3/§3.5): when the segment carries a boundary layer
/// covering `α`'s attributes — e.g. the partition layer a preceding window
/// step proved — unit boundaries are taken from it instead of comparing
/// every adjacent row pair. The emitted segment keeps the incoming layers
/// that survive within-unit permutation (attribute sets ⊆ `attr(α)`) and
/// adds the `α` layer itself, so the *next* window step detects its
/// partitions for free.
pub struct SegmentedSortOp<I> {
    input: I,
    alpha: SortSpec,
    alpha_cmp: RowComparator,
    alpha_attrs: AttrSet,
    beta: SortKey,
    env: OpEnv,
}

impl<I: Operator> SegmentedSortOp<I> {
    /// Sort each `α`-group (or each whole segment when `alpha` is empty) on
    /// `beta`.
    pub fn new(input: I, alpha: SortSpec, beta: SortSpec, env: OpEnv) -> Self {
        SegmentedSortOp {
            alpha_cmp: RowComparator::new(&alpha),
            alpha_attrs: alpha.attr_set(),
            alpha,
            input,
            beta: SortKey::new(&beta),
            env,
        }
    }

    /// Sort one segment's units, preserving the segment as a whole. The
    /// materialized path — used when the segment is already in memory.
    fn sort_segment(&self, seg: Segment) -> Result<Segment> {
        let (rows, mut bounds) = seg.into_parts()?;
        let env = &self.env;
        let end = rows.len();
        if self.alpha.is_empty() {
            // Whole segment is one unit; the full reorder invalidates any
            // carried layers.
            env.tracker.move_rows(rows.len() as u64);
            let sorted = sort_rows(rows, &self.beta, env)?;
            return Ok(Segment::from_handle(
                env.store.admit(sorted)?,
                crate::segment::SegmentBounds::none(),
            ));
        }
        // Unit starts: reuse a carried boundary layer when one covers α's
        // attributes, else walk the segment comparing adjacent α values.
        let mut unit_starts: Vec<usize> = Vec::new();
        crate::segment::detect_runs(
            &bounds,
            &self.alpha_attrs,
            &rows,
            0,
            end,
            |a, b| self.alpha_cmp.equal(a, b),
            &env.tracker,
            &mut unit_starts,
        );

        // The units leave the segment front to back, by move; every row is
        // in exactly one of them.
        env.tracker.move_rows(end as u64);
        let mut rows = rows.into_iter();
        let mut out: Vec<Row> = Vec::with_capacity(end);
        let mut unit: Vec<Row> = Vec::new();
        for (k, &start) in unit_starts.iter().enumerate() {
            let stop = unit_starts.get(k + 1).copied().unwrap_or(end);
            if stop - start == 1 {
                // Sorted as it stands: no budget to ask for, nothing to
                // charge.
                out.extend(rows.next());
                continue;
            }
            unit.extend(rows.by_ref().take(stop - start));
            unit = sort_rows(unit, &self.beta, env)?;
            out.append(&mut unit);
        }
        // Within-unit permutation preserves exactly the layers whose runs
        // are unions of units.
        bounds.retain_subsets_of(&self.alpha_attrs);
        bounds.add_layer(self.alpha_attrs.clone(), unit_starts);
        Ok(Segment::from_handle(env.store.admit(out)?, bounds))
    }

    /// The streaming path for spilled segments: detect unit boundaries on
    /// the fly (reusing carried layers with the exact charging of the
    /// materialized path), hold **one unit at a time** — registered with
    /// the store's residency ledger — sort it, and stream the output
    /// through a store builder. Residency: `O(M + largest unit)`.
    fn sort_segment_streaming(&self, seg: Segment) -> Result<Segment> {
        let env = &self.env;
        let (n, mut stream, mut bounds) = seg.into_stream();
        if self.alpha.is_empty() {
            // Whole segment is one unit sorted on β; stream it straight
            // into the external sorter.
            env.tracker.move_rows(n as u64);
            let (handle, _, _) = sort_stream_to_handle(stream, &self.beta, env, &[])?;
            return Ok(Segment::from_handle(
                handle,
                crate::segment::SegmentBounds::none(),
            ));
        }
        let mut splitter = RunSplitter::new(&bounds, &self.alpha_attrs, n);
        let mut out = env.store.builder();
        let mut unit_starts: Vec<usize> = Vec::new();
        let mut unit: Vec<Row> = Vec::new();
        let mut hold = env.store.hold(0, 0);
        let mut lo = 0usize;
        let mut idx = 0usize;
        while let Some(row) = stream.next_row()? {
            let boundary = match unit.last() {
                None => true,
                Some(prev) => splitter.is_boundary(
                    idx,
                    prev,
                    &row,
                    |a, b| self.alpha_cmp.equal(a, b),
                    false,
                    &env.tracker,
                ),
            };
            if boundary && !unit.is_empty() {
                env.tracker.move_rows(unit.len() as u64);
                unit_starts.push(lo);
                for r in sort_rows(std::mem::take(&mut unit), &self.beta, env)? {
                    out.push(r)?;
                }
                hold = env.store.hold(0, 0);
                lo = idx;
            }
            hold.grow(row.encoded_len(), 1);
            unit.push(row);
            idx += 1;
        }
        if !unit.is_empty() {
            env.tracker.move_rows(unit.len() as u64);
            unit_starts.push(lo);
            for r in sort_rows(unit, &self.beta, env)? {
                out.push(r)?;
            }
        }
        drop(hold);
        bounds.retain_subsets_of(&self.alpha_attrs);
        bounds.add_layer(self.alpha_attrs.clone(), unit_starts);
        Ok(Segment::from_handle(out.finish()?, bounds))
    }
}

impl<I: Operator> Operator for SegmentedSortOp<I> {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        match self.input.next_segment()? {
            None => Ok(None),
            Some(seg) if seg.is_spilled() => Ok(Some(self.sort_segment_streaming(seg)?)),
            Some(seg) => Ok(Some(self.sort_segment(seg)?)),
        }
    }
}

/// Sort each `α`-group (or each segment when `alpha` is empty) on `beta`.
///
/// `alpha` must be a prefix the input already satisfies; this operator does
/// not re-verify it (the planner's property algebra guarantees it), but unit
/// detection only relies on equality of `alpha` values, so a violated
/// precondition degrades to smaller sorted pieces rather than UB. Thin
/// wrapper over [`SegmentedSortOp`] for batch callers.
pub fn segmented_sort(
    input: SegmentedRows,
    alpha: &SortSpec,
    beta: &SortSpec,
    env: &OpEnv,
) -> Result<SegmentedRows> {
    let mut op = SegmentedSortOp::new(
        SegmentSource::new(input, env),
        alpha.clone(),
        beta.clone(),
        env.clone(),
    );
    drain(&mut op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::{row, AttrId, OrdElem};

    fn key(ids: &[usize]) -> SortSpec {
        SortSpec::new(ids.iter().map(|&i| OrdElem::asc(AttrId::new(i))).collect())
    }

    /// Input sorted on (a): α=(a), sort α-groups on (b).
    #[test]
    fn sorts_alpha_groups_on_beta() {
        let rows = vec![
            row![1, 9],
            row![1, 3],
            row![1, 5],
            row![2, 2],
            row![2, 1],
            row![3, 7],
        ];
        let env = OpEnv::with_memory_blocks(8);
        let out = segmented_sort(
            SegmentedRows::single_segment(rows),
            &key(&[0]),
            &key(&[1]),
            &env,
        )
        .unwrap();
        let pairs: Vec<(i64, i64)> = out
            .rows()
            .iter()
            .map(|r| {
                (
                    r.get(AttrId::new(0)).as_int().unwrap(),
                    r.get(AttrId::new(1)).as_int().unwrap(),
                )
            })
            .collect();
        assert_eq!(pairs, vec![(1, 3), (1, 5), (1, 9), (2, 1), (2, 2), (3, 7)]);
        assert_eq!(out.segment_count(), 1);
        // No I/O: units are tiny.
        assert_eq!(env.tracker.snapshot().io_blocks(), 0);
    }

    /// α empty: sort whole segments on β, preserving boundaries.
    #[test]
    fn empty_alpha_sorts_whole_segments() {
        let rows = vec![row![5], row![1], row![3], row![9], row![2]];
        let segs = SegmentedRows::from_parts(rows, vec![0, 3]);
        let env = OpEnv::with_memory_blocks(8);
        let out = segmented_sort(segs, &SortSpec::empty(), &key(&[0]), &env).unwrap();
        let vals: Vec<i64> = out
            .rows()
            .iter()
            .map(|r| r.get(AttrId::new(0)).as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![1, 3, 5, 2, 9]);
        assert_eq!(out.seg_starts(), &[0, 3]);
    }

    /// Units never cross segment boundaries even when α values repeat
    /// across adjacent segments.
    #[test]
    fn units_stop_at_segment_boundaries() {
        // Two segments, both with α-value a=1; b values must be sorted
        // within each segment only.
        let rows = vec![
            row![1, 9, 100],
            row![1, 5, 100],
            row![1, 8, 200],
            row![1, 2, 200],
        ];
        let segs = SegmentedRows::from_parts(rows, vec![0, 2]);
        let env = OpEnv::with_memory_blocks(8);
        let out = segmented_sort(segs, &key(&[0]), &key(&[1]), &env).unwrap();
        let b: Vec<i64> = out
            .rows()
            .iter()
            .map(|r| r.get(AttrId::new(1)).as_int().unwrap())
            .collect();
        assert_eq!(b, vec![5, 9, 2, 8]);
        // Segment membership (column c) untouched.
        let c: Vec<i64> = out
            .rows()
            .iter()
            .map(|r| r.get(AttrId::new(2)).as_int().unwrap())
            .collect();
        assert_eq!(c, vec![100, 100, 200, 200]);
    }

    /// Oversized units fall back to external sort and stay correct.
    #[test]
    fn oversized_unit_spills() {
        let rows: Vec<Row> = (0..3000)
            .map(|i| {
                row![
                    1i64,
                    ((i * 7919) % 3000) as i64,
                    "padding-padding-padding-pad"
                ]
            })
            .collect();
        let env = OpEnv::with_memory_blocks(2);
        let out = segmented_sort(
            SegmentedRows::single_segment(rows),
            &key(&[0]),
            &key(&[1]),
            &env,
        )
        .unwrap();
        assert_eq!(out.len(), 3000);
        assert!(out.segments_sorted_by(&RowComparator::new(&key(&[0, 1]))));
        assert!(env.tracker.snapshot().io_blocks() > 0);
    }

    #[test]
    fn multi_alpha_groups_multi_segments() {
        // Segments: [a=1, a=2], [a=2, a=3]; α=(a); β=(b).
        let rows = vec![
            row![1, 4],
            row![1, 2],
            row![2, 8],
            row![2, 6],
            // -- new segment
            row![2, 3],
            row![2, 1],
            row![3, 5],
        ];
        let segs = SegmentedRows::from_parts(rows, vec![0, 4]);
        let env = OpEnv::with_memory_blocks(8);
        let out = segmented_sort(segs, &key(&[0]), &key(&[1]), &env).unwrap();
        let pairs: Vec<(i64, i64)> = out
            .rows()
            .iter()
            .map(|r| {
                (
                    r.get(AttrId::new(0)).as_int().unwrap(),
                    r.get(AttrId::new(1)).as_int().unwrap(),
                )
            })
            .collect();
        assert_eq!(
            pairs,
            vec![(1, 2), (1, 4), (2, 6), (2, 8), (2, 1), (2, 3), (3, 5)]
        );
    }

    #[test]
    fn empty_input() {
        let env = OpEnv::with_memory_blocks(2);
        let out = segmented_sort(SegmentedRows::empty(), &key(&[0]), &key(&[1]), &env).unwrap();
        assert!(out.is_empty());
    }

    /// SS must do far less comparison work than a full sort when the input
    /// is already segmented into many small units (the paper's
    /// O(n log(n/k)) vs O(n log n) argument).
    #[test]
    fn cheaper_than_full_sort_on_many_units() {
        let rows: Vec<Row> = (0..4000)
            .map(|i| row![(i / 10) as i64, ((i * 31) % 97) as i64, "pad-pad-pad-pad"]) // 400 α-groups
            .collect();
        let env_ss = OpEnv::with_memory_blocks(4);
        segmented_sort(
            SegmentedRows::single_segment(rows.clone()),
            &key(&[0]),
            &key(&[1]),
            &env_ss,
        )
        .unwrap();
        let env_fs = OpEnv::with_memory_blocks(4);
        crate::full_sort::full_sort(SegmentedRows::single_segment(rows), &key(&[0, 1]), &env_fs)
            .unwrap();
        let ss = env_ss.tracker.snapshot();
        let fs = env_fs.tracker.snapshot();
        assert!(ss.io_blocks() == 0, "small units should not spill");
        assert!(fs.io_blocks() > 0, "full sort at tiny M must spill");
        assert!(ss.comparisons < fs.comparisons);
    }

    /// Units leave the segment by move — one-row units without a sort —
    /// and are charged what the model says: rows against a stable per-unit
    /// sort, `rows_moved`, `comparisons` (boundary scan + `len·⌈log₂ len⌉`
    /// per unit), no key encoded, no copy of a row left behind, and the
    /// output handed to the store.
    #[test]
    fn units_are_moved_and_charged_per_the_model() {
        use wf_common::{Text, Value};

        struct Once(Option<Segment>);
        impl Operator for Once {
            fn next_segment(&mut self) -> Result<Option<Segment>> {
                Ok(self.0.take())
            }
        }

        let payload = Text::from("shared-payload");
        let sizes = [1usize, 1, 3, 1, 25, 2, 1, 40];
        let mut rows: Vec<Row> = Vec::new();
        let mut sort_cmp = 0u64;
        for (unit, &len) in sizes.iter().cycle().take(120).enumerate() {
            for j in 0..len {
                rows.push(Row::new(vec![
                    Value::Int(unit as i64),
                    Value::Int(((j * 7919) % 13) as i64),
                    Value::Str(payload.clone()),
                ]));
            }
            if len > 1 {
                sort_cmp += len as u64 * (usize::BITS - (len - 1).leading_zeros()) as u64;
            }
        }
        let n = rows.len();
        let mut expect = rows.clone();
        expect.sort_by_key(|r| {
            let int = |i| r.get(AttrId::new(i)).as_int().unwrap();
            (int(0), int(1))
        });
        let env = OpEnv::with_memory_blocks(64);
        let handle = env.store.admit(rows.clone()).unwrap();
        let seg = Segment::from_handle(handle, crate::segment::SegmentBounds::none());
        let mut op = SegmentedSortOp::new(Once(Some(seg)), key(&[0]), key(&[1]), env.clone());
        let out = op.next_segment().unwrap().unwrap();
        assert_eq!(env.store.snapshot().resident_rows, n);
        let out = out.into_rows().unwrap();
        assert_eq!(out, expect);
        assert_eq!(env.store.snapshot().resident_rows, 0);
        // Input, expectation, output and the local handle — nothing else.
        assert_eq!(payload.ref_count(), 3 * n + 1);
        let work = env.tracker.snapshot();
        assert_eq!(work.rows_moved, n as u64);
        assert_eq!(work.comparisons, (n as u64 - 1) + sort_cmp);
        assert_eq!(work.key_encodes, 0);
    }
}
