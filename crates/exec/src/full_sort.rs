//! **Full Sort (FS)** — the conventional reordering operator.
//!
//! Sorts the entire input on `perm(WPK) ∘ WOK` with the external merge sort
//! from [`crate::sorter`]. The output is a single segment, totally ordered
//! on the sort key (`R_{∅, key}` in the paper's notation).
//!
//! The input is consumed as a **row stream** — upstream segments are read
//! block at a time straight into replacement-selection run formation, never
//! buffered as a whole — and the output goes through the environment's
//! segment store, so FS holds `M` during the sort and the pool budget for
//! its output. When asked ([`FullSortOp::with_recorded_prefixes`]) it
//! records partition-boundary layers for free during the final merge: the
//! positions where a leading key prefix changes are known from rows the
//! merge already visits, so downstream window steps start with a boundary
//! layer even after a total reorder.

use crate::env::OpEnv;
use crate::operator::{drain, Operator, Segment, SegmentSource};
use crate::segment::SegmentedRows;
use crate::sorter::{sort_stream_to_handle, SortKey};
use wf_common::{AttrSet, Result, Row, SortSpec};
use wf_storage::SegmentReader;

/// Iterator over every row an upstream operator yields, pulling segments
/// lazily so only one segment's stream is open at a time.
pub(crate) struct UpstreamRows<'a, I: Operator> {
    op: &'a mut I,
    cur: Option<SegmentReader>,
}

impl<'a, I: Operator> UpstreamRows<'a, I> {
    pub(crate) fn new(op: &'a mut I) -> Self {
        UpstreamRows { op, cur: None }
    }
}

impl<I: Operator> Iterator for UpstreamRows<'_, I> {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Result<Row>> {
        loop {
            if let Some(stream) = &mut self.cur {
                match stream.next_row() {
                    Ok(Some(row)) => return Some(Ok(row)),
                    Ok(None) => self.cur = None,
                    Err(e) => return Some(Err(e)),
                }
            }
            match self.op.next_segment() {
                Ok(Some(seg)) => {
                    let (_, stream, _) = seg.into_stream();
                    self.cur = Some(stream);
                }
                Ok(None) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// The FS operator: consumes its input as a row stream on the first pull (a
/// total sort is blocking by nature), sorts within the memory budget, and
/// emits the result as one totally ordered, store-managed segment. A total
/// reorder invalidates any upstream boundary metadata; the output carries
/// only the layers FS itself recorded during the final merge.
pub struct FullSortOp<I> {
    input: I,
    key: SortKey,
    record: Vec<AttrSet>,
    env: OpEnv,
    done: bool,
}

impl<I: Operator> FullSortOp<I> {
    /// Sort everything `input` yields on `key`.
    pub fn new(input: I, key: SortSpec, env: OpEnv) -> Self {
        FullSortOp {
            input,
            key: SortKey::new(&key),
            record: Vec::new(),
            env,
            done: false,
        }
    }

    /// Record boundary layers for these attribute-set prefixes of the sort
    /// key during the final merge (free — the merge visits every adjacent
    /// output pair anyway). The sets must be prefixes of the sort key's
    /// attribute sequence for the layers to be maximal runs.
    pub fn with_recorded_prefixes(mut self, sets: Vec<AttrSet>) -> Self {
        self.record = sets;
        self
    }
}

impl<I: Operator> Operator for FullSortOp<I> {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let (handle, bounds, n) = sort_stream_to_handle(
            UpstreamRows::new(&mut self.input),
            &self.key,
            &self.env,
            &self.record,
        )?;
        if n == 0 {
            return Ok(None);
        }
        Ok(Some(Segment::from_handle(handle, bounds)))
    }
}

/// Sort all rows on `key`; returns one totally ordered segment. Thin wrapper
/// over [`FullSortOp`] for batch callers.
pub fn full_sort(input: SegmentedRows, key: &SortSpec, env: &OpEnv) -> Result<SegmentedRows> {
    let mut op = FullSortOp::new(SegmentSource::new(input, env), key.clone(), env.clone());
    drain(&mut op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::{row, AttrId, OrdElem, Row, RowComparator};

    fn key(ids: &[usize]) -> SortSpec {
        SortSpec::new(ids.iter().map(|&i| OrdElem::asc(AttrId::new(i))).collect())
    }

    #[test]
    fn produces_single_totally_ordered_segment() {
        let env = OpEnv::with_memory_blocks(2);
        let rows: Vec<Row> = (0..2000)
            .map(|i| {
                row![
                    (i * 37 % 101) as i64,
                    (i * 13 % 7) as i64,
                    "padding-padding"
                ]
            })
            .collect();
        let out = full_sort(SegmentedRows::single_segment(rows), &key(&[0, 1]), &env).unwrap();
        assert_eq!(out.segment_count(), 1);
        assert_eq!(out.len(), 2000);
        let cmp = RowComparator::new(&key(&[0, 1]));
        assert!(out.segments_sorted_by(&cmp));
    }

    #[test]
    fn respects_descending_keys() {
        let env = OpEnv::with_memory_blocks(16);
        let rows: Vec<Row> = (0..50).map(|i| row![i as i64]).collect();
        let spec = SortSpec::new(vec![OrdElem::desc(AttrId::new(0))]);
        let out = full_sort(SegmentedRows::single_segment(rows), &spec, &env).unwrap();
        let first = out.rows()[0].get(AttrId::new(0)).as_int().unwrap();
        let last = out.rows()[49].get(AttrId::new(0)).as_int().unwrap();
        assert_eq!((first, last), (49, 0));
    }

    #[test]
    fn empty_input() {
        let env = OpEnv::with_memory_blocks(2);
        let out = full_sort(SegmentedRows::empty(), &key(&[0]), &env).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.segment_count(), 0);
    }

    #[test]
    fn ignores_input_segmentation() {
        let env = OpEnv::with_memory_blocks(8);
        let s = SegmentedRows::from_parts(vec![row![3], row![1], row![2]], vec![0, 1, 2]);
        let out = full_sort(s, &key(&[0]), &env).unwrap();
        assert_eq!(out.segment_count(), 1);
        let vals: Vec<i64> = out
            .rows()
            .iter()
            .map(|r| r.get(AttrId::new(0)).as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    /// At a tiny pool the FS output is a spilled segment, and its resident
    /// footprint never approaches the relation.
    #[test]
    fn output_spills_at_tiny_pool() {
        let env = OpEnv::with_memory_blocks(2);
        let rows: Vec<Row> = (0..3000)
            .map(|i| row![(i * 37 % 101) as i64, "padding-padding-padding"])
            .collect();
        let total_bytes: usize = rows.iter().map(Row::encoded_len).sum();
        let mut op = FullSortOp::new(
            SegmentSource::new(SegmentedRows::single_segment(rows), &env),
            key(&[0]),
            env.clone(),
        );
        let seg = op.next_segment().unwrap().unwrap();
        assert!(seg.is_spilled());
        assert_eq!(seg.len(), 3000);
        let snap = env.store.snapshot();
        assert!(snap.spill_blocks_written > 0);
        assert!(
            snap.peak_resident_bytes < total_bytes / 4,
            "peak {} vs total {}",
            snap.peak_resident_bytes,
            total_bytes
        );
    }

    /// Recorded prefix layers ride on the output segment.
    #[test]
    fn records_prefix_layers_when_asked() {
        let env = OpEnv::with_memory_blocks(4);
        let rows: Vec<Row> = (0..500)
            .map(|i| row![(i % 5) as i64, (i % 17) as i64, "pad-pad-pad-pad-pad"])
            .collect();
        let wpk = AttrSet::from_iter([AttrId::new(0)]);
        let mut op = FullSortOp::new(
            SegmentSource::new(SegmentedRows::single_segment(rows), &env),
            key(&[0, 1]),
            env.clone(),
        )
        .with_recorded_prefixes(vec![wpk.clone()]);
        let seg = op.next_segment().unwrap().unwrap();
        let layer = seg
            .bounds
            .layers()
            .iter()
            .find(|l| l.attrs == wpk)
            .expect("recorded layer");
        assert_eq!(layer.starts.len(), 5, "one run per distinct WPK value");
    }
}
