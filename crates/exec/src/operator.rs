//! The pull-based, segment-at-a-time operator interface.
//!
//! The paper's operators (§3) pipeline **complete window partitions**
//! between Segmented Sort and window evaluation: a reorder operator emits a
//! *segment* — a bucket (HS), a sorted run of complete partitions (FS), or a
//! refined unit run (SS) — and the window operator consumes it without ever
//! needing to see the rest of the relation. [`Operator`] is the physical
//! realization of that contract:
//!
//! ```text
//! trait Operator { fn next_segment(&mut self) -> Result<Option<Segment>>; }
//! ```
//!
//! A [`Segment`] pairs boundary metadata ([`SegmentBounds`]) with a
//! [`wf_storage::SegmentHandle`] over its rows. The environment's
//! [`wf_storage::SegmentStore`] alone decides whether those rows are
//! memory-resident or spilled. Operators *consume* segments as streaming
//! block iterators ([`Segment::into_stream`]) or materialize them
//! ([`Segment::into_parts`]) when an algorithm genuinely needs random
//! access; they *produce* every segment through the store, so a chain's
//! physical resident set is bounded by the pool budget plus the largest
//! unit any single operator must hold.
//!
//! Every physical operator implements it:
//!
//! * [`TableScan`] — leaf over a [`wf_storage::Table`]; one segment backed
//!   by a zero-copy handle over the table's own rows (a heap table is
//!   trivially `R_{∅,ε}`); downstream operators stream it row by row, or —
//!   the filter — read it by reference ([`Segment::shared_rows`]), instead
//!   of receiving a clone of the relation. A scan narrowed to the columns a
//!   statement reads ([`TableScan::with_columns`]) hands out the same view,
//!   and each row is cut down to those columns where it is cloned anyway.
//!   Scan I/O is charged on the first pull, for the whole heap,
//! * [`crate::full_sort::FullSortOp`] — blocking; one totally ordered
//!   segment, fed to the external sorter as a row stream,
//! * [`crate::hashed_sort::HashedSortOp`] — partition phase on first pull,
//!   then **one bucket per pull**, each sorted lazily at emission,
//! * [`crate::segmented_sort::SegmentedSortOp`] — fully streaming; holds
//!   one unit at a time even for spilled segments,
//! * [`crate::window::WindowOp`] — fully streaming; evaluates every window
//!   call sharing a `(WPK, WOK)` in one pass per segment; spilled segments
//!   are streamed through the same evaluators within the residency of each
//!   call's class (Shi & Wang-style spilling aggregation for the SQL-default
//!   frame) instead of materialized,
//! * [`crate::relational::FilterOp`], [`crate::relational::GroupByHashOp`],
//!   [`crate::relational::GroupBySortOp`] — the upstream relational ops,
//! * [`crate::scheduler::ParallelChainOp`] — scatter and worker chains on
//!   first pull, then the workers' finished output segment by segment.
//!
//! Cost accounting is unchanged by construction: operators charge the same
//! [`wf_storage::CostTracker`] counters at the same granularity as the
//! materialized implementations, and the segment store's pool traffic is
//! metered separately (see `wf_storage::segstore`) — the tests in
//! `tests/pipeline_equivalence.rs` and `tests/memory_stress.rs` assert
//! exact equality of outputs *and* work counters across both the
//! batch/streaming and the bounded/unbounded-pool axes.
//!
//! **The segment is the grain of a hand-off.** A resident segment is
//! charged, sized and moved once, not once per row: rows carry their
//! encoded length ([`Row::encoded_len`] is a field read),
//! [`SegmentStore::admit`] makes one charge for the whole `Vec` and adopts
//! it as the handle, operators move rows out of a materialized segment
//! instead of copying them, and a counter that grows by one per row is
//! charged once per segment with the count. §3.5 prices the reorders and
//! takes the hand-off between them as free; this is what keeps it close to
//! that. The spilled paths — the builder loop past the pool, the streaming
//! SS, the window stream — stay row-at-a-time, because there each row
//! crosses the device boundary by itself.

use crate::env::OpEnv;
use crate::segment::{SegmentBounds, SegmentedRows};
use std::collections::VecDeque;
use std::sync::Arc;
use wf_common::{AttrId, Result, Row};
use wf_storage::{SegmentHandle, SegmentReader, SegmentStore, SharedRows, Table};

/// One segment flowing between operators: a store handle over its rows in
/// order plus the boundary layers the chain has already proven over them
/// (see [`SegmentBounds`]). Operators that reorder rows must drop or filter
/// the bounds; operators that preserve row order pass them through and may
/// add layers.
#[derive(Debug)]
pub struct Segment {
    handle: SegmentHandle,
    pub bounds: SegmentBounds,
}

impl Segment {
    /// A store-managed segment.
    pub fn from_handle(handle: SegmentHandle, bounds: SegmentBounds) -> Self {
        Segment { handle, bounds }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.handle.len()
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the rows live on the spill device (streaming consumption
    /// is then the only way to stay within the residency bound).
    pub fn is_spilled(&self) -> bool {
        self.handle.is_spilled()
    }

    /// The table rows behind this segment when it is a scan's shared view
    /// of them — a filter tests them by reference here and clones (and
    /// narrows) only the rows it keeps.
    pub fn shared_rows(&self) -> Option<&SharedRows> {
        self.handle.as_shared_rows()
    }

    /// Materialize into rows plus bounds (charges pool reads for a spilled
    /// segment; releases the pool charge of a resident one).
    pub fn into_parts(self) -> Result<(Vec<Row>, SegmentBounds)> {
        Ok((self.handle.into_rows()?, self.bounds))
    }

    /// Materialize into rows, discarding bounds.
    pub fn into_rows(self) -> Result<Vec<Row>> {
        self.handle.into_rows()
    }

    /// Decompose into the store handle plus bounds — how the parallel
    /// scheduler ships finished worker segments across the reassembly step.
    pub(crate) fn into_handle(self) -> (SegmentHandle, SegmentBounds) {
        (self.handle, self.bounds)
    }

    /// Consume as a streaming row reader; returns `(row count, reader,
    /// bounds)`.
    pub fn into_stream(self) -> (usize, SegmentReader, SegmentBounds) {
        (self.handle.len(), self.handle.read(), self.bounds)
    }
}

/// A pull-based operator yielding one segment of complete window partitions
/// at a time. `Ok(None)` signals exhaustion; implementations need not be
/// fused (behaviour after exhaustion is `Ok(None)` for all in-tree
/// operators).
pub trait Operator {
    /// Pull the next segment. Segments are non-empty unless documented
    /// otherwise; [`drain`] skips empty ones defensively.
    fn next_segment(&mut self) -> Result<Option<Segment>>;
}

// Box<dyn Operator> chains need the trait on the box itself.
impl<O: Operator + ?Sized> Operator for Box<O> {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        (**self).next_segment()
    }
}

/// Drain an operator into a materialized [`SegmentedRows`], preserving the
/// segment boundaries and bounds metadata it emitted.
pub fn drain(op: &mut dyn Operator) -> Result<SegmentedRows> {
    let mut rows: Vec<Row> = Vec::new();
    let mut seg_starts: Vec<usize> = Vec::new();
    let mut bounds: Vec<SegmentBounds> = Vec::new();
    while let Some(seg) = op.next_segment()? {
        if seg.is_empty() {
            continue;
        }
        seg_starts.push(rows.len());
        let (seg_rows, seg_bounds) = seg.into_parts()?;
        bounds.push(seg_bounds);
        rows.extend(seg_rows);
    }
    Ok(SegmentedRows::from_parts_with_bounds(
        rows, seg_starts, bounds,
    ))
}

/// Leaf operator over an already-materialized segmented relation: yields its
/// segments (with any carried bounds) in order, admitting each to the store
/// on the pull that hands it out, as an upstream operator would. The adapter
/// behind every free-function wrapper, which therefore runs in its
/// environment's pool like any chain.
pub struct SegmentSource {
    segments: VecDeque<(Vec<Row>, SegmentBounds)>,
    store: Arc<SegmentStore>,
}

impl SegmentSource {
    /// Split a segmented relation into its segments, to be admitted to
    /// `env`'s store one per pull.
    pub fn new(input: SegmentedRows, env: &OpEnv) -> Self {
        SegmentSource {
            segments: input.into_segments().into(),
            store: Arc::clone(&env.store),
        }
    }
}

impl Operator for SegmentSource {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        let Some((rows, bounds)) = self.segments.pop_front() else {
            return Ok(None);
        };
        Ok(Some(Segment::from_handle(self.store.admit(rows)?, bounds)))
    }
}

/// Leaf operator scanning a heap table: charges one sequential scan on the
/// first pull and emits all rows as a single segment (an unordered table is
/// the trivial segmented relation `R_{∅,ε}`). The segment is backed by a
/// **zero-copy shared handle** over the table's rows — the heap table is
/// modeled as on-disk, so it never counts toward pipeline residency, and
/// downstream operators stream it block-at-a-time instead of receiving a
/// clone of the whole relation.
///
/// A statement that reads only some columns scans through
/// [`TableScan::with_columns`]: the view is the same table `Arc`, and every
/// row leaves it as the kept columns only, at the clone a reader of the
/// view makes anyway ([`SharedRows`]). The heap is still read whole, so the
/// scan's charge does not change.
///
/// A chain that appends window columns scans through
/// [`TableScan::with_spare`]: the same clone leaves room for them, so no
/// window operator downstream reallocates a row.
pub struct TableScan<'a> {
    table: &'a Table,
    columns: Option<Arc<[AttrId]>>,
    spare: usize,
    env: OpEnv,
    done: bool,
}

impl<'a> TableScan<'a> {
    /// Scan over `table` charging `env`'s tracker.
    pub fn new(table: &'a Table, env: OpEnv) -> Self {
        TableScan {
            table,
            columns: None,
            spare: 0,
            env,
            done: false,
        }
    }

    /// Hand rows out narrowed to `columns` (base positions, in output
    /// order).
    pub fn with_columns(mut self, columns: &[AttrId]) -> Self {
        self.columns = Some(Arc::from(columns));
        self
    }

    /// Hand rows out with room for `spare` more values each: the columns the
    /// statement's window functions append.
    pub fn with_spare(mut self, spare: usize) -> Self {
        self.spare = spare;
        self
    }

    /// The view this scan hands its rows out through.
    pub fn view(&self) -> SharedRows {
        SharedRows::new(self.table.shared_rows(), self.columns.clone()).with_spare(self.spare)
    }
}

impl Operator for TableScan<'_> {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        self.table.charge_scan(&self.env.tracker);
        if self.table.is_empty() {
            return Ok(None);
        }
        Ok(Some(Segment::from_handle(
            SegmentStore::shared(self.view()),
            SegmentBounds::none(),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::{row, DataType, Schema};

    #[test]
    fn segment_source_yields_segments_in_order() {
        let s = SegmentedRows::from_parts(vec![row![1], row![2], row![3], row![4]], vec![0, 2, 3]);
        let env = OpEnv::with_memory_blocks(4);
        let mut src = SegmentSource::new(s.clone(), &env);
        let rows = |o: Option<Segment>| o.map(|s| s.into_rows().unwrap());
        assert_eq!(
            rows(src.next_segment().unwrap()),
            Some(vec![row![1], row![2]])
        );
        assert_eq!(rows(src.next_segment().unwrap()), Some(vec![row![3]]));
        assert_eq!(rows(src.next_segment().unwrap()), Some(vec![row![4]]));
        assert!(src.next_segment().unwrap().is_none());
        // Round trip through drain.
        let mut src2 = SegmentSource::new(s.clone(), &env);
        assert_eq!(drain(&mut src2).unwrap(), s);
        assert_eq!(env.store.snapshot().resident_bytes, 0);
    }

    /// Each segment is admitted on the pull that hands it out: the pool
    /// holds the segments pulled and not yet consumed, never the relation.
    #[test]
    fn segment_source_admits_one_segment_per_pull() {
        let rows: Vec<Row> = (0..4).map(|i| row![i]).collect();
        let bytes = |r: &[Row]| r.iter().map(Row::encoded_len).sum::<usize>();
        let s = SegmentedRows::from_parts(rows.clone(), vec![0, 2]);
        let env = OpEnv::with_memory_blocks(4);
        let mut src = SegmentSource::new(s, &env);
        assert_eq!(env.store.snapshot().resident_bytes, 0);
        let first = src.next_segment().unwrap().unwrap();
        assert_eq!(env.store.snapshot().resident_bytes, bytes(&rows[..2]));
        drop(first);
        let second = src.next_segment().unwrap().unwrap();
        assert_eq!(env.store.snapshot().resident_bytes, bytes(&rows[2..]));
        assert_eq!(second.into_rows().unwrap(), rows[2..]);
        assert_eq!(env.store.snapshot().resident_bytes, 0);
    }

    #[test]
    fn empty_source_drains_empty() {
        let mut src = SegmentSource::new(SegmentedRows::empty(), &OpEnv::with_memory_blocks(4));
        assert_eq!(drain(&mut src).unwrap(), SegmentedRows::empty());
    }

    #[test]
    fn table_scan_charges_once_and_is_fused() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        let mut t = Table::new(schema);
        t.push(row![1]);
        t.push(row![2]);
        let env = OpEnv::with_memory_blocks(4);
        let mut scan = TableScan::new(&t, env.clone());
        let seg = scan.next_segment().unwrap().unwrap();
        assert_eq!(seg.len(), 2);
        // The scan's segment is a zero-copy view, never pool-charged.
        assert!(!seg.is_spilled());
        assert_eq!(env.store.snapshot().resident_bytes, 0);
        assert!(scan.next_segment().unwrap().is_none());
        assert!(scan.next_segment().unwrap().is_none());
        let s = env.tracker.snapshot();
        assert_eq!(s.blocks_read, t.block_count());
        assert_eq!(s.rows_moved, 2);
    }

    #[test]
    fn table_scan_segment_streams_rows() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        let mut t = Table::new(schema);
        for i in 0..5 {
            t.push(row![i]);
        }
        let env = OpEnv::with_memory_blocks(4);
        let mut scan = TableScan::new(&t, env.clone());
        let seg = scan.next_segment().unwrap().unwrap();
        let (n, stream, _) = seg.into_stream();
        assert_eq!(n, 5);
        let got: Vec<Row> = stream.map(|r| r.unwrap()).collect();
        assert_eq!(got, t.rows());
    }

    /// A narrowed scan charges what the full scan does and hands out the
    /// kept columns only, in the listed order.
    #[test]
    fn narrowed_table_scan_charges_the_heap_and_keeps_its_columns() {
        let schema = Schema::of(&[
            ("a", DataType::Int),
            ("pad", DataType::Str),
            ("b", DataType::Int),
        ]);
        let mut t = Table::new(schema);
        for i in 0..40 {
            t.push(row![i, "padding-padding", -i]);
        }
        let env = OpEnv::with_memory_blocks(4);
        let mut scan =
            TableScan::new(&t, env.clone()).with_columns(&[AttrId::new(2), AttrId::new(0)]);
        let seg = scan.next_segment().unwrap().unwrap();
        assert_eq!(seg.len(), 40);
        let got = seg.into_rows().unwrap();
        let want: Vec<Row> = (0..40).map(|i| row![-i, i]).collect();
        assert_eq!(got, want);
        let s = env.tracker.snapshot();
        assert_eq!(s.blocks_read, t.block_count(), "the heap is read whole");
        assert_eq!(s.rows_moved, 40);
        assert_eq!(env.store.snapshot().resident_bytes, 0);
    }

    #[test]
    fn empty_table_scan_still_charges_scan() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        let t = Table::new(schema);
        let env = OpEnv::with_memory_blocks(4);
        let mut scan = TableScan::new(&t, env.clone());
        assert!(scan.next_segment().unwrap().is_none());
        assert_eq!(env.tracker.snapshot().blocks_read, 0);
    }
}
