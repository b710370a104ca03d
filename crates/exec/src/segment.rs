//! The segmented-rows representation flowing between operators.
//!
//! A [`SegmentedRows`] is the physical realization of the paper's segmented
//! relation `R_{X,Y}`: rows in order plus the start index of every segment.
//! FS produces a single segment; HS produces one segment per bucket; SS
//! refines or coarsens unit boundaries; window evaluation preserves
//! boundaries untouched. Keeping boundaries as explicit metadata mirrors how
//! the paper's PostgreSQL operators pipeline complete window partitions and
//! lets Segmented Sort handle the `α = ε` case (sort whole segments) without
//! guessing boundaries from values.

use wf_common::{AttrSet, Row, RowComparator};
use wf_storage::CostTracker;

/// One boundary layer: the invariant is that `starts` are exactly the
/// start indices of the **maximal runs** of segment rows that are equal on
/// every attribute in `attrs` (`starts[0] == 0` for a non-empty segment).
/// Layers are produced where the equality comparisons are paid anyway —
/// window partition/peer detection, SS unit detection — and reused
/// downstream instead of re-deriving the same boundaries (§3.3/§3.5
/// matched-prefix pipelining).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryLayer {
    /// Attribute set the runs are equal on.
    pub attrs: AttrSet,
    /// Start index of each maximal run, strictly increasing from 0.
    pub starts: Vec<usize>,
}

/// Boundary metadata carried on one segment: a small set of layers keyed by
/// attribute set. Valid only while the segment's row *order* is unchanged
/// (appending columns is fine — layers address attributes by stable index).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentBounds {
    layers: Vec<BoundaryLayer>,
}

impl SegmentBounds {
    /// No layers.
    pub fn none() -> Self {
        SegmentBounds::default()
    }

    /// True when no layer is carried.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer view.
    pub fn layers(&self) -> &[BoundaryLayer] {
        &self.layers
    }

    /// Record a layer. Empty attribute sets carry no information and are
    /// skipped; a layer for an already-known attribute set is replaced.
    pub fn add_layer(&mut self, attrs: AttrSet, starts: Vec<usize>) {
        if attrs.is_empty() {
            return;
        }
        debug_assert!(starts.first().is_none_or(|&s| s == 0));
        debug_assert!(starts.windows(2).all(|w| w[0] < w[1]));
        if let Some(existing) = self.layers.iter_mut().find(|l| l.attrs == attrs) {
            existing.starts = starts;
        } else {
            self.layers.push(BoundaryLayer { attrs, starts });
        }
    }

    /// Keep only layers whose attribute set is a subset of `keep` — the
    /// layers that stay valid when rows are permuted only *within* runs of
    /// equal `keep` values (SS unit sorts).
    pub fn retain_subsets_of(&mut self, keep: &AttrSet) {
        self.layers.retain(|l| l.attrs.is_subset(keep));
    }

    /// Append to `out` the start indices of the maximal runs of
    /// `rows[lo..hi]` equal on `target`, derived from the carried layers;
    /// returns `false` (nothing appended) when no layer applies and the
    /// caller must fall back to a scan — [`detect_runs`] does both.
    ///
    /// * A layer with `attrs == target` answers with **zero** comparisons:
    ///   its starts *are* the run boundaries.
    /// * A layer with `attrs ⊇ target` has finer runs (rows equal on a
    ///   superset are equal on the subset), so target boundaries can only
    ///   occur at layer starts: one `eq` check per candidate start instead
    ///   of one per row. The cheapest superset layer — fewest candidate
    ///   starts strictly inside `(lo, hi)` — wins; counting *in range*
    ///   keeps the choice identical whether a caller sees the full segment
    ///   or a [`SegmentBounds::window`] of it, which is what makes the
    ///   streaming (spill-backed) operator paths charge exactly the
    ///   comparisons the materialized paths do.
    ///
    /// Layer starts are sorted, so the ones inside `(lo, hi)` are found by
    /// binary search: a caller asking once per partition pays for its own
    /// partition's starts, not for the whole segment's.
    ///
    /// `eq` must implement equality on exactly `target`'s attributes; each
    /// invocation charges one comparison to `tracker`.
    #[allow(clippy::too_many_arguments)]
    pub fn runs_equal_on(
        &self,
        target: &AttrSet,
        rows: &[Row],
        lo: usize,
        hi: usize,
        mut eq: impl FnMut(&Row, &Row) -> bool,
        tracker: &CostTracker,
        out: &mut Vec<usize>,
    ) -> bool {
        debug_assert!(lo <= hi && hi <= rows.len());
        if lo >= hi {
            return true;
        }
        if target.is_empty() {
            // Every row is trivially equal on the empty attribute set: one
            // run, no comparisons (a global window's partition detection).
            out.push(lo);
            return true;
        }
        if let Some(layer) = self.layers.iter().find(|l| l.attrs == *target) {
            out.push(lo);
            out.extend_from_slice(starts_inside(&layer.starts, lo, hi));
            return true;
        }
        let Some(layer) = self
            .layers
            .iter()
            .filter(|l| target.is_subset(&l.attrs))
            .min_by_key(|l| starts_inside(&l.starts, lo, hi).len())
        else {
            return false;
        };
        let candidates = starts_inside(&layer.starts, lo, hi);
        out.push(lo);
        out.extend(
            candidates
                .iter()
                .copied()
                .filter(|&s| !eq(&rows[s - 1], &rows[s])),
        );
        tracker.compare(candidates.len() as u64);
        true
    }

    /// A view of these bounds restricted to the row window `[lo, hi)`, with
    /// starts re-based to the window (`lo` becomes 0). Layers stay valid
    /// because a window of maximal runs is still a set of maximal runs
    /// (split at most at the window edges). Used by the streaming operator
    /// paths, which buffer one partition/unit at a time: calling
    /// [`SegmentBounds::runs_equal_on`] on the window with relative indices
    /// yields the same boundaries and charges the same comparisons as
    /// calling it on the full segment with `(lo, hi)`.
    pub fn window(&self, lo: usize, hi: usize) -> SegmentBounds {
        let layers = self
            .layers
            .iter()
            .map(|l| BoundaryLayer {
                attrs: l.attrs.clone(),
                starts: std::iter::once(0)
                    .chain(starts_inside(&l.starts, lo, hi).iter().map(|&s| s - lo))
                    .collect(),
            })
            .collect();
        SegmentBounds { layers }
    }
}

/// The entries of the sorted `starts` strictly inside `(lo, hi)`.
fn starts_inside(starts: &[usize], lo: usize, hi: usize) -> &[usize] {
    let from = starts.partition_point(|&s| s <= lo);
    let to = from + starts[from..].partition_point(|&s| s < hi);
    &starts[from..to]
}

/// Streaming run detection with the exact charging of
/// [`SegmentBounds::runs_equal_on`] / [`scan_runs`]: built once per segment
/// from the carried layers, then asked row by row whether index `idx`
/// starts a new run. The spill-backed operator paths (window partitions, SS
/// units, peer groups) use this so their comparison counters stay
/// bit-identical to the materialized paths.
pub struct RunSplitter {
    mode: SplitMode,
}

enum SplitMode {
    /// An exact layer: boundaries are its starts, zero comparisons.
    Exact { starts: Vec<usize>, pos: usize },
    /// A superset layer: boundaries only at its starts, one charged `eq`
    /// per candidate.
    Candidates { starts: Vec<usize>, pos: usize },
    /// No applicable layer: one charged `eq` per adjacent pair.
    Scan,
}

impl RunSplitter {
    /// Splitter for runs equal on `target` over a segment of `n` rows with
    /// the given carried bounds (ignored when `reuse` is off).
    pub fn new(bounds: &SegmentBounds, target: &AttrSet, n: usize, reuse: bool) -> Self {
        if reuse && target.is_empty() {
            // Trivially one run (see `runs_equal_on`): no boundaries, no
            // comparisons.
            return RunSplitter {
                mode: SplitMode::Exact {
                    starts: Vec::new(),
                    pos: 0,
                },
            };
        }
        if reuse {
            if let Some(layer) = bounds.layers.iter().find(|l| l.attrs == *target) {
                return RunSplitter {
                    mode: SplitMode::Exact {
                        starts: layer.starts.iter().copied().filter(|&s| s < n).collect(),
                        pos: 0,
                    },
                };
            }
            if let Some(layer) = bounds
                .layers
                .iter()
                .filter(|l| target.is_subset(&l.attrs))
                .min_by_key(|l| starts_inside(&l.starts, 0, n).len())
            {
                return RunSplitter {
                    mode: SplitMode::Candidates {
                        starts: layer.starts.iter().copied().filter(|&s| s < n).collect(),
                        pos: 0,
                    },
                };
            }
        }
        RunSplitter {
            mode: SplitMode::Scan,
        }
    }

    /// Does row `idx` (≥ 1) start a new run? `prev`/`cur` are the adjacent
    /// rows `idx - 1` and `idx`. When `forced` the caller has already
    /// proven a boundary at `idx` (e.g. a partition start forcing a peer
    /// boundary): the splitter records it without charging — mirroring the
    /// materialized paths, which never compare across such boundaries.
    pub fn is_boundary(
        &mut self,
        idx: usize,
        prev: &Row,
        cur: &Row,
        mut eq: impl FnMut(&Row, &Row) -> bool,
        forced: bool,
        tracker: &CostTracker,
    ) -> bool {
        let candidate = match &mut self.mode {
            SplitMode::Exact { starts, pos } | SplitMode::Candidates { starts, pos } => {
                while *pos < starts.len() && starts[*pos] < idx {
                    *pos += 1;
                }
                let hit = *pos < starts.len() && starts[*pos] == idx;
                if hit {
                    *pos += 1;
                }
                hit
            }
            SplitMode::Scan => true,
        };
        if forced {
            return true;
        }
        match self.mode {
            SplitMode::Exact { .. } => candidate,
            SplitMode::Candidates { .. } | SplitMode::Scan => {
                if !candidate {
                    return false;
                }
                tracker.compare(1);
                !eq(prev, cur)
            }
        }
    }
}

/// Append to `out` the start indices of the maximal runs of `rows[lo..hi]`
/// equal under `eq`, found by scanning adjacent pairs — one comparison
/// charged per pair. The scan fallback behind
/// [`SegmentBounds::runs_equal_on`].
pub fn scan_runs(
    rows: &[Row],
    lo: usize,
    hi: usize,
    mut eq: impl FnMut(&Row, &Row) -> bool,
    tracker: &CostTracker,
    out: &mut Vec<usize>,
) {
    debug_assert!(lo <= hi && hi <= rows.len());
    if lo >= hi {
        return;
    }
    out.push(lo);
    for i in lo + 1..hi {
        if !eq(&rows[i - 1], &rows[i]) {
            out.push(i);
        }
    }
    tracker.compare((hi - lo - 1) as u64);
}

/// Run detection as every materialized operator path does it: from the
/// carried layers when `reuse` is on and one applies
/// ([`SegmentBounds::runs_equal_on`]), by scanning otherwise
/// ([`scan_runs`]) — so run detection and its counter accounting live in
/// one place. Appends the run starts of `rows[lo..hi]` to `out`.
#[allow(clippy::too_many_arguments)]
pub fn detect_runs(
    bounds: &SegmentBounds,
    reuse: bool,
    target: &AttrSet,
    rows: &[Row],
    lo: usize,
    hi: usize,
    mut eq: impl FnMut(&Row, &Row) -> bool,
    tracker: &CostTracker,
    out: &mut Vec<usize>,
) {
    if !(reuse && bounds.runs_equal_on(target, rows, lo, hi, &mut eq, tracker, out)) {
        scan_runs(rows, lo, hi, eq, tracker, out);
    }
}

/// Rows plus segment boundaries. Invariant: `seg_starts` is strictly
/// increasing, starts with 0 when non-empty, and every entry is a valid row
/// index. An empty relation has no segments. Each segment may carry
/// [`SegmentBounds`] (boundary layers proven upstream); `bounds` is either
/// empty (no metadata) or exactly one entry per segment.
#[derive(Debug, Clone)]
pub struct SegmentedRows {
    rows: Vec<Row>,
    seg_starts: Vec<usize>,
    bounds: Vec<SegmentBounds>,
}

impl PartialEq for SegmentedRows {
    /// Equality is over the physical relation (rows + boundaries); carried
    /// bounds metadata is derived state and never affects row output.
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.seg_starts == other.seg_starts
    }
}

impl SegmentedRows {
    /// A single segment holding all rows (FS output; also any unordered
    /// input, which is trivially one segment).
    pub fn single_segment(rows: Vec<Row>) -> Self {
        let seg_starts = if rows.is_empty() { vec![] } else { vec![0] };
        SegmentedRows {
            rows,
            seg_starts,
            bounds: Vec::new(),
        }
    }

    /// Build from explicit parts; debug-asserts the invariant.
    pub fn from_parts(rows: Vec<Row>, seg_starts: Vec<usize>) -> Self {
        debug_assert!(
            seg_starts.windows(2).all(|w| w[0] < w[1]),
            "segment starts must be strictly increasing"
        );
        debug_assert!(rows.is_empty() && seg_starts.is_empty() || seg_starts.first() == Some(&0));
        debug_assert!(seg_starts.iter().all(|&s| s < rows.len().max(1)));
        SegmentedRows {
            rows,
            seg_starts,
            bounds: Vec::new(),
        }
    }

    /// Like [`SegmentedRows::from_parts`] with per-segment boundary
    /// metadata (`bounds.len()` must be `seg_starts.len()` or 0).
    pub fn from_parts_with_bounds(
        rows: Vec<Row>,
        seg_starts: Vec<usize>,
        bounds: Vec<SegmentBounds>,
    ) -> Self {
        debug_assert!(bounds.is_empty() || bounds.len() == seg_starts.len());
        let mut out = SegmentedRows::from_parts(rows, seg_starts);
        out.bounds = bounds;
        out
    }

    /// Empty relation.
    pub fn empty() -> Self {
        SegmentedRows {
            rows: vec![],
            seg_starts: vec![],
            bounds: vec![],
        }
    }

    /// All rows in physical order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Consume into rows, discarding boundaries.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of segments (`k` in the cost models).
    pub fn segment_count(&self) -> usize {
        self.seg_starts.len()
    }

    /// Segment start indices.
    pub fn seg_starts(&self) -> &[usize] {
        &self.seg_starts
    }

    /// Boundary metadata of segment `i` (empty when none was carried).
    pub fn segment_bounds(&self, i: usize) -> SegmentBounds {
        self.bounds.get(i).cloned().unwrap_or_default()
    }

    /// Consume into per-segment `(rows, bounds)` pairs, front to back.
    pub fn into_segments(self) -> Vec<(Vec<Row>, SegmentBounds)> {
        let SegmentedRows {
            mut rows,
            seg_starts,
            mut bounds,
        } = self;
        if bounds.is_empty() {
            bounds = vec![SegmentBounds::none(); seg_starts.len()];
        }
        let mut out: Vec<(Vec<Row>, SegmentBounds)> = Vec::with_capacity(seg_starts.len());
        // Split back to front so each split_off is O(segment).
        for (&start, b) in seg_starts.iter().zip(bounds).rev() {
            out.push((rows.split_off(start), b));
        }
        debug_assert!(rows.is_empty());
        out.reverse();
        out
    }

    /// Iterate `(start, end)` half-open ranges of segments.
    pub fn segment_ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.rows.len();
        self.seg_starts
            .iter()
            .enumerate()
            .map(move |(i, &s)| (s, self.seg_starts.get(i + 1).copied().unwrap_or(n)))
    }

    /// Slice of one segment by index.
    pub fn segment(&self, i: usize) -> &[Row] {
        let start = self.seg_starts[i];
        let end = self
            .seg_starts
            .get(i + 1)
            .copied()
            .unwrap_or(self.rows.len());
        &self.rows[start..end]
    }

    /// Verify that every segment is sorted under `cmp` (test helper; does
    /// not charge comparisons).
    pub fn segments_sorted_by(&self, cmp: &RowComparator) -> bool {
        self.segment_ranges().all(|(s, e)| {
            self.rows[s..e]
                .windows(2)
                .all(|w| cmp.compare(&w[0], &w[1]) != std::cmp::Ordering::Greater)
        })
    }

    /// Verify pairwise disjointness of segments on `attrs` (test helper,
    /// O(n²) over segments).
    pub fn segments_disjoint_on(&self, attrs: &AttrSet) -> bool {
        use std::collections::HashSet;
        let mut seen: HashSet<Vec<wf_common::Value>> = HashSet::new();
        for (s, e) in self.segment_ranges() {
            let mut local: HashSet<Vec<wf_common::Value>> = HashSet::new();
            for row in &self.rows[s..e] {
                let key: Vec<wf_common::Value> = attrs.iter().map(|a| row.get(a).clone()).collect();
                local.insert(key);
            }
            for key in local {
                if !seen.insert(key) {
                    return false;
                }
            }
        }
        true
    }

    /// Concatenate several segmented relations, keeping each input's
    /// boundaries (used by parallel execution to stitch worker outputs).
    pub fn concat(parts: Vec<SegmentedRows>) -> SegmentedRows {
        let mut rows = Vec::new();
        let mut seg_starts = Vec::new();
        let mut bounds: Vec<SegmentBounds> = Vec::new();
        let any_bounds = parts.iter().any(|p| !p.bounds.is_empty());
        for part in parts {
            let offset = rows.len();
            seg_starts.extend(part.seg_starts.iter().map(|s| s + offset));
            if any_bounds {
                let n = part.seg_starts.len();
                if part.bounds.is_empty() {
                    bounds.extend((0..n).map(|_| SegmentBounds::none()));
                } else {
                    bounds.extend(part.bounds);
                }
            }
            rows.extend(part.rows);
        }
        SegmentedRows {
            rows,
            seg_starts,
            bounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::{row, AttrId, OrdElem, SortSpec};

    fn aset(ids: &[usize]) -> AttrSet {
        AttrSet::from_iter(ids.iter().map(|&i| AttrId::new(i)))
    }

    #[test]
    fn single_segment_shape() {
        let s = SegmentedRows::single_segment(vec![row![1], row![2]]);
        assert_eq!(s.segment_count(), 1);
        assert_eq!(s.segment(0).len(), 2);
        let e = SegmentedRows::single_segment(vec![]);
        assert_eq!(e.segment_count(), 0);
        assert!(e.is_empty());
    }

    #[test]
    fn segment_ranges_cover_rows() {
        let s = SegmentedRows::from_parts(vec![row![1], row![2], row![3], row![4]], vec![0, 2, 3]);
        let ranges: Vec<_> = s.segment_ranges().collect();
        assert_eq!(ranges, vec![(0, 2), (2, 3), (3, 4)]);
        assert_eq!(s.segment(1), &[row![3]]);
    }

    #[test]
    fn sortedness_check() {
        let spec = SortSpec::new(vec![OrdElem::asc(AttrId::new(0))]);
        let cmp = RowComparator::new(&spec);
        let good = SegmentedRows::from_parts(vec![row![1], row![2], row![0]], vec![0, 2]);
        assert!(good.segments_sorted_by(&cmp));
        let bad = SegmentedRows::from_parts(vec![row![2], row![1], row![0]], vec![0, 2]);
        assert!(!bad.segments_sorted_by(&cmp));
    }

    #[test]
    fn disjointness_check() {
        let s = SegmentedRows::from_parts(vec![row![1, 9], row![1, 8], row![2, 7]], vec![0, 2]);
        assert!(s.segments_disjoint_on(&aset(&[0])));
        let overlapping =
            SegmentedRows::from_parts(vec![row![1, 9], row![2, 8], row![2, 7]], vec![0, 2]);
        assert!(!overlapping.segments_disjoint_on(&aset(&[0])));
        // Disjoint on (a,b) pairs even though `a` overlaps.
        assert!(overlapping.segments_disjoint_on(&aset(&[0, 1])));
    }

    #[test]
    fn concat_offsets_boundaries() {
        let a = SegmentedRows::from_parts(vec![row![1], row![2]], vec![0, 1]);
        let b = SegmentedRows::from_parts(vec![row![3]], vec![0]);
        let c = SegmentedRows::concat(vec![a, b, SegmentedRows::empty()]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.seg_starts(), &[0, 1, 2]);
    }
}
