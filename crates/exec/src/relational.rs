//! Minimal relational operators for the non-window part of a window query.
//!
//! The paper's §5 integrates window planning with the rest of the query:
//! the windowed table is *produced* by some plan (scan, filter, GROUP BY),
//! and different upstream plans deliver different physical properties at
//! different costs. This module supplies that upstream machinery:
//!
//! * [`filter`] — predicate scan,
//! * [`group_by_hash`] — hash aggregation; output is *grouped* on the keys
//!   (`R^g_{keys, ε}`: every group contiguous, groups unordered),
//! * [`group_by_sort`] — sort-based aggregation; output is *sorted* on the
//!   keys (`R_{∅, keys}`),
//!
//! so `wf_core::integrated` can weigh "hash GROUP BY + cheap chain" against
//! "sort GROUP BY + even cheaper chain" exactly as §5 describes.

use crate::env::OpEnv;
use crate::operator::{Operator, Segment, TableScan};
use crate::segment::SegmentBounds;
use crate::sorter::SortKey;
use crate::util::hash_row_on;
use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use wf_common::{AttrId, AttrSet, DataType, Error, Field, Result, Row, Schema, SortSpec, Value};
use wf_storage::{SegmentBuilder, Table};

/// A simple column-vs-literal predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    Eq(AttrId, Value),
    Ne(AttrId, Value),
    Lt(AttrId, Value),
    Le(AttrId, Value),
    Gt(AttrId, Value),
    Ge(AttrId, Value),
    /// Inclusive range.
    Between(AttrId, Value, Value),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Evaluate against a row. SQL three-valued logic collapsed to boolean:
    /// comparisons with NULL are false.
    pub fn matches(&self, row: &Row) -> bool {
        use std::cmp::Ordering::*;
        use Predicate::*;
        let cmp = |a: &AttrId, v: &Value| order(row.get(*a), v);
        match self {
            Eq(a, v) => cmp(a, v) == Some(Equal),
            Ne(a, v) => matches!(cmp(a, v), Some(o) if o != Equal),
            Lt(a, v) => cmp(a, v) == Some(Less),
            Le(a, v) => matches!(cmp(a, v), Some(o) if o != Greater),
            Gt(a, v) => cmp(a, v) == Some(Greater),
            Ge(a, v) => matches!(cmp(a, v), Some(o) if o != Less),
            Between(a, lo, hi) => {
                let x = row.get(*a);
                matches!(order(x, lo), Some(o) if o != Less)
                    && matches!(order(x, hi), Some(o) if o != Greater)
            }
            And(l, r) => l.matches(row) && r.matches(row),
        }
    }
}

/// `lhs` against a literal; `None` when either side is NULL. Int against
/// Int — the common WHERE — is decided here without the general
/// `Value::cmp_nulls_first` dispatch (the same order).
#[inline]
fn order(lhs: &Value, v: &Value) -> Option<std::cmp::Ordering> {
    match (lhs, v) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
        (Value::Null, _) | (_, Value::Null) => None,
        _ => Some(lhs.cmp_nulls_first(v)),
    }
}

/// The filter operator: streams segments through the predicate, preserving
/// segmentation (a subset of a segment of complete partitions is still a
/// run of complete partitions of the filtered relation). Charges one
/// comparison per input row and one row move per surviving row, once per
/// segment; segments filtered down to nothing are skipped.
///
/// A table scan's segment is the table's own rows ([`Segment::shared_rows`]):
/// those are tested by reference and only the survivors are cloned, so a
/// selective predicate costs the rows it keeps, not the rows it reads.
///
/// Carried boundary layers are **remapped** through the kept-row mapping
/// instead of dropped: deleting rows inside a run keeps the remaining rows
/// equal on the layer's attributes, so each surviving run's boundary moves
/// to the count of rows kept before it. A layer is only discarded when one
/// of its runs is filtered out entirely — the two newly adjacent runs could
/// then hold equal values, which would break the maximal-runs invariant.
pub struct FilterOp<I> {
    input: I,
    pred: Predicate,
    env: OpEnv,
}

impl<I: Operator> FilterOp<I> {
    /// Keep only rows matching `pred`.
    pub fn new(input: I, pred: Predicate, env: OpEnv) -> Self {
        FilterOp { input, pred, env }
    }
}

/// One carried layer being remapped through the kept-row mapping.
struct LayerRemap {
    attrs: AttrSet,
    old_starts: Vec<usize>,
    pos: usize,
    /// Kept-row count at each old boundary, in order.
    new_starts: Vec<usize>,
}

impl LayerRemap {
    /// Note that input row `idx` is about to be processed with `kept` rows
    /// already emitted.
    fn observe(&mut self, idx: usize, kept: usize) {
        if self.pos < self.old_starts.len() && self.old_starts[self.pos] == idx {
            self.pos += 1;
            self.new_starts.push(kept);
        }
    }

    /// Finish: `Some(starts)` when every run kept at least one row (the
    /// remap is then exact), `None` otherwise.
    fn finish(self, kept: usize) -> Option<Vec<usize>> {
        if kept == 0 {
            return None;
        }
        // A run emptied ⇔ two boundaries map to the same kept count, or the
        // last run kept nothing.
        let distinct = self.new_starts.windows(2).all(|w| w[0] < w[1]);
        let last_nonempty = self.new_starts.last().is_none_or(|&s| s < kept);
        (distinct && last_nonempty).then_some(self.new_starts)
    }
}

impl<I: Operator> Operator for FilterOp<I> {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        loop {
            let Some(seg) = self.input.next_segment()? else {
                return Ok(None);
            };
            let shared = seg.shared_rows().cloned();
            let (n, stream, bounds) = seg.into_stream();
            let mut remaps: Vec<LayerRemap> = bounds
                .layers()
                .iter()
                .map(|l| LayerRemap {
                    attrs: l.attrs.clone(),
                    old_starts: l.starts.clone(),
                    pos: 0,
                    new_starts: Vec::new(),
                })
                .collect();
            let mut builder = self.env.store.builder();
            let mut sink = |row| builder.push(row);
            // A scan's rows are tested where they lie, at the table's full
            // width (the predicate names base columns), and cloned — narrowed
            // to the statement's columns — only when kept; any other
            // segment's rows are owned already.
            let kept = match &shared {
                Some(table) => keep_matching(
                    &self.pred,
                    table.base().iter().map(Ok),
                    &mut remaps,
                    |row: &Row| sink(table.project(row)),
                )?,
                None => keep_matching(&self.pred, stream, &mut remaps, &mut sink)?,
            };
            self.env.tracker.compare(n as u64);
            self.env.tracker.move_rows(kept as u64);
            if kept == 0 {
                continue;
            }
            let mut out_bounds = SegmentBounds::none();
            for r in remaps {
                let attrs = r.attrs.clone();
                if let Some(starts) = r.finish(kept) {
                    out_bounds.add_layer(attrs, starts);
                }
            }
            return Ok(Some(Segment::from_handle(builder.finish()?, out_bounds)));
        }
    }
}

/// Hand the rows of `input` that match `pred` to `keep`, remapping the
/// carried layers; returns how many were kept.
fn keep_matching<R: Borrow<Row>>(
    pred: &Predicate,
    input: impl Iterator<Item = Result<R>>,
    remaps: &mut [LayerRemap],
    mut keep: impl FnMut(R) -> Result<()>,
) -> Result<usize> {
    let mut kept = 0;
    for (idx, row) in input.enumerate() {
        let row = row?;
        for r in remaps.iter_mut() {
            r.observe(idx, kept);
        }
        if pred.matches(row.borrow()) {
            kept += 1;
            keep(row)?;
        }
    }
    Ok(kept)
}

/// Filter a table; charges one scan plus the output rows moved. Thin
/// wrapper over [`TableScan`] → [`FilterOp`] for batch callers.
pub fn filter(table: &Table, pred: &Predicate, env: &OpEnv) -> Result<Table> {
    let mut op = FilterOp::new(
        TableScan::new(table, env.clone()),
        pred.clone(),
        env.clone(),
    );
    let mut out = Table::new(table.schema().clone());
    while let Some(seg) = op.next_segment()? {
        for row in seg.into_rows()? {
            out.push(row);
        }
    }
    Ok(out)
}

/// Aggregates supported by the GROUP BY operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupAgg {
    CountStar,
    Count(AttrId),
    Sum(AttrId),
    Min(AttrId),
    Max(AttrId),
    Avg(AttrId),
}

impl GroupAgg {
    fn name(&self, schema: &Schema) -> String {
        match self {
            GroupAgg::CountStar => "count".into(),
            GroupAgg::Count(a) => format!("count_{}", schema.name(*a)),
            GroupAgg::Sum(a) => format!("sum_{}", schema.name(*a)),
            GroupAgg::Min(a) => format!("min_{}", schema.name(*a)),
            GroupAgg::Max(a) => format!("max_{}", schema.name(*a)),
            GroupAgg::Avg(a) => format!("avg_{}", schema.name(*a)),
        }
    }

    fn data_type(&self, schema: &Schema) -> DataType {
        match self {
            GroupAgg::CountStar | GroupAgg::Count(_) => DataType::Int,
            GroupAgg::Avg(_) => DataType::Float,
            GroupAgg::Sum(a) | GroupAgg::Min(a) | GroupAgg::Max(a) => schema.field(*a).data_type,
        }
    }
}

/// Running state of one aggregate for one group.
#[derive(Debug, Clone)]
struct AggState {
    count: i64,
    sum: f64,
    all_int: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    fn new() -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            all_int: true,
            min: None,
            max: None,
        }
    }

    fn update(&mut self, agg: &GroupAgg, row: &Row) -> Result<()> {
        let col = match agg {
            GroupAgg::CountStar => {
                self.count += 1;
                return Ok(());
            }
            GroupAgg::Count(a)
            | GroupAgg::Sum(a)
            | GroupAgg::Min(a)
            | GroupAgg::Max(a)
            | GroupAgg::Avg(a) => *a,
        };
        let v = row.get(col);
        if v.is_null() {
            return Ok(());
        }
        self.count += 1;
        match v {
            Value::Int(x) => self.sum += *x as f64,
            Value::Float(x) => {
                self.all_int = false;
                self.sum += *x;
            }
            _ if matches!(agg, GroupAgg::Sum(_) | GroupAgg::Avg(_)) => {
                return Err(Error::TypeMismatch {
                    expected: "numeric".into(),
                    found: v.type_name().into(),
                })
            }
            _ => {}
        }
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
        Ok(())
    }

    fn finish(&self, agg: &GroupAgg) -> Value {
        match agg {
            GroupAgg::CountStar | GroupAgg::Count(_) => Value::Int(self.count),
            GroupAgg::Sum(_) => {
                if self.count == 0 {
                    Value::Null
                } else if self.all_int {
                    Value::Int(self.sum as i64)
                } else {
                    Value::Float(self.sum)
                }
            }
            GroupAgg::Avg(_) => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            GroupAgg::Min(_) => self.min.clone().unwrap_or(Value::Null),
            GroupAgg::Max(_) => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Output schema of a GROUP BY: key columns (in given order) then one
/// column per aggregate.
pub fn group_by_schema(schema: &Schema, keys: &[AttrId], aggs: &[GroupAgg]) -> Result<Schema> {
    let mut fields: Vec<Field> = keys.iter().map(|&a| schema.field(a).clone()).collect();
    for agg in aggs {
        fields.push(Field::new(agg.name(schema), agg.data_type(schema)));
    }
    Schema::new(fields)
}

/// Hash-based GROUP BY as an operator. The output relation is *grouped* on
/// the keys with every output row its own group, so it is emitted as **one
/// segment per group row** — the physical form of `R^g_{keys, ε}`, §5's
/// "interesting grouping" variant. The aggregation itself is blocking (runs
/// on the first pull); emission is row-at-a-time.
pub struct GroupByHashOp<I> {
    input: Option<I>,
    keys: Vec<AttrId>,
    aggs: Vec<GroupAgg>,
    env: OpEnv,
    out: VecDeque<Row>,
}

impl<I: Operator> GroupByHashOp<I> {
    /// Aggregate `aggs` grouped on `keys`.
    pub fn new(input: I, keys: Vec<AttrId>, aggs: Vec<GroupAgg>, env: OpEnv) -> Self {
        GroupByHashOp {
            input: Some(input),
            keys,
            aggs,
            env,
            out: VecDeque::new(),
        }
    }

    /// Consume the input; queue the finished group rows in ascending key
    /// hash, then insertion order.
    fn aggregate(&mut self, mut input: I) -> Result<()> {
        let (keys, aggs) = (&self.keys, &self.aggs);
        let key_set = AttrSet::from_iter(keys.iter().copied());
        // Hash → collided groups, each (key values, aggregate states).
        type GroupBucket = Vec<(Vec<Value>, Vec<AggState>)>;
        let mut groups: HashMap<u64, GroupBucket> = HashMap::new();
        for row in crate::full_sort::UpstreamRows::new(&mut input) {
            let row = row?;
            self.env.tracker.hash(1);
            let h = hash_row_on(&row, &key_set);
            let key_vals: Vec<Value> = keys.iter().map(|&a| row.get(a).clone()).collect();
            let bucket = groups.entry(h).or_default();
            let state = match bucket.iter_mut().find(|(k, _)| *k == key_vals) {
                Some((_, s)) => s,
                None => {
                    bucket.push((key_vals.clone(), vec![AggState::new(); aggs.len()]));
                    &mut bucket.last_mut().expect("just pushed").1
                }
            };
            for (agg, st) in aggs.iter().zip(state.iter_mut()) {
                st.update(agg, &row)?;
            }
        }
        let mut hashes: Vec<u64> = groups.keys().copied().collect();
        hashes.sort_unstable(); // deterministic (but not key-ordered) output
        for h in hashes {
            for (key_vals, states) in &groups[&h] {
                let mut vals = key_vals.clone();
                for (agg, st) in aggs.iter().zip(states) {
                    vals.push(st.finish(agg));
                }
                self.out.push_back(Row::new(vals));
            }
        }
        Ok(())
    }
}

impl<I: Operator> Operator for GroupByHashOp<I> {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        if let Some(input) = self.input.take() {
            self.aggregate(input)?;
        }
        match self.out.pop_front() {
            None => Ok(None),
            Some(row) => {
                self.env.tracker.move_rows(1);
                let handle = self.env.store.admit(vec![row])?;
                Ok(Some(Segment::from_handle(handle, SegmentBounds::none())))
            }
        }
    }
}

/// Hash-based GROUP BY over a table. Thin wrapper over [`TableScan`] →
/// [`GroupByHashOp`] for batch callers; the table output flattens the
/// one-segment-per-group structure.
pub fn group_by_hash(
    table: &Table,
    keys: &[AttrId],
    aggs: &[GroupAgg],
    env: &OpEnv,
) -> Result<Table> {
    let schema = group_by_schema(table.schema(), keys, aggs)?;
    let mut op = GroupByHashOp::new(
        TableScan::new(table, env.clone()),
        keys.to_vec(),
        aggs.to_vec(),
        env.clone(),
    );
    let mut out = Table::new(schema);
    while let Some(seg) = op.next_segment()? {
        for row in seg.into_rows()? {
            out.push(row);
        }
    }
    Ok(out)
}

/// Sort-based GROUP BY as an operator: sorts its input on the keys
/// (streamed through the shared external sorter, charged like any
/// reorder), aggregates adjacent runs off the sorted stream — holding one
/// group's state, never the sorted relation — and emits a single totally
/// ordered segment — `R_{∅, keys}`, §5's "interesting order" variant.
pub struct GroupBySortOp<I> {
    input: Option<I>,
    keys: Vec<AttrId>,
    aggs: Vec<GroupAgg>,
    env: OpEnv,
}

impl<I: Operator> GroupBySortOp<I> {
    /// Aggregate `aggs` grouped on `keys`, output sorted on `keys`.
    pub fn new(input: I, keys: Vec<AttrId>, aggs: Vec<GroupAgg>, env: OpEnv) -> Self {
        GroupBySortOp {
            input: Some(input),
            keys,
            aggs,
            env,
        }
    }
}

impl<I: Operator> Operator for GroupBySortOp<I> {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        let Some(mut input) = self.input.take() else {
            return Ok(None);
        };
        let env = &self.env;
        let key_spec = SortSpec::new(
            self.keys
                .iter()
                .map(|&a| wf_common::OrdElem::asc(a))
                .collect(),
        );
        let key = SortKey::new(&key_spec);
        let cmp = key.comparator();
        let (sorted, _, _) = crate::sorter::sort_stream_to_handle(
            crate::full_sort::UpstreamRows::new(&mut input),
            &key,
            env,
            &[],
        )?;

        let mut out = env.store.builder();
        let mut reader = sorted.read();
        let mut run_start: Option<Row> = None;
        let mut states = vec![AggState::new(); self.aggs.len()];
        let finish_group = |start: &Row, states: &mut Vec<AggState>, out: &mut SegmentBuilder| {
            let mut vals: Vec<Value> = self.keys.iter().map(|&a| start.get(a).clone()).collect();
            for (agg, st) in self.aggs.iter().zip(states.iter()) {
                vals.push(st.finish(agg));
            }
            env.tracker.move_rows(1);
            *states = vec![AggState::new(); self.aggs.len()];
            out.push(Row::new(vals))
        };
        while let Some(row) = reader.next_row()? {
            let same_group = match &run_start {
                None => true,
                Some(start) => {
                    env.tracker.compare(1);
                    cmp.equal(start, &row)
                }
            };
            if !same_group {
                let start = run_start.take().expect("open run");
                finish_group(&start, &mut states, &mut out)?;
            }
            if run_start.is_none() {
                run_start = Some(row.clone());
            }
            for (agg, st) in self.aggs.iter().zip(states.iter_mut()) {
                st.update(agg, &row)?;
            }
        }
        if let Some(start) = run_start {
            finish_group(&start, &mut states, &mut out)?;
        }
        if out.is_empty() {
            return Ok(None);
        }
        Ok(Some(Segment::from_handle(
            out.finish()?,
            SegmentBounds::none(),
        )))
    }
}

/// Sort-based GROUP BY over a table. Thin wrapper over [`TableScan`] →
/// [`GroupBySortOp`] for batch callers.
pub fn group_by_sort(
    table: &Table,
    keys: &[AttrId],
    aggs: &[GroupAgg],
    env: &OpEnv,
) -> Result<Table> {
    let schema = group_by_schema(table.schema(), keys, aggs)?;
    let mut op = GroupBySortOp::new(
        TableScan::new(table, env.clone()),
        keys.to_vec(),
        aggs.to_vec(),
        env.clone(),
    );
    let mut out = Table::new(schema);
    while let Some(seg) = op.next_segment()? {
        for row in seg.into_rows()? {
            out.push(row);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::{row, Text};

    fn sample() -> Table {
        let schema = Schema::of(&[
            ("g", DataType::Int),
            ("v", DataType::Int),
            ("w", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for (g, v, w) in [
            (2, 10, 1.5),
            (1, 5, 2.0),
            (2, 20, 0.5),
            (1, 7, 1.0),
            (3, 1, 9.0),
            (1, 9, 4.5),
        ] {
            t.push(row![g, v, w]);
        }
        t
    }

    fn a(i: usize) -> AttrId {
        AttrId::new(i)
    }

    #[test]
    fn predicates() {
        let r = row![5, Value::Null];
        assert!(Predicate::Eq(a(0), Value::Int(5)).matches(&r));
        assert!(Predicate::Between(a(0), Value::Int(5), Value::Int(9)).matches(&r));
        assert!(!Predicate::Lt(a(0), Value::Int(5)).matches(&r));
        assert!(Predicate::Le(a(0), Value::Int(5)).matches(&r));
        assert!(Predicate::Ne(a(0), Value::Int(4)).matches(&r));
        // NULL comparisons are false.
        assert!(!Predicate::Eq(a(1), Value::Null).matches(&r));
        assert!(!Predicate::Gt(a(1), Value::Int(0)).matches(&r));
        let both = Predicate::And(
            Box::new(Predicate::Ge(a(0), Value::Int(5))),
            Box::new(Predicate::Lt(a(0), Value::Int(6))),
        );
        assert!(both.matches(&r));

        // Truth per row: NULLs never match, Int and Float compare
        // numerically, floats by total order (-0.0 < 0.0, NaN above every
        // number and equal to itself), numbers rank below strings.
        let rows = [
            row![1, 2.5, "a"],
            row![Value::Null, Value::Null, Value::Null],
            row![5, -0.0, ""],
            row![-3, f64::NAN, "zz"],
        ];
        use Predicate::*;
        let (int, float, s) = (Value::Int, Value::Float, Value::str);
        let table: Vec<(Predicate, [bool; 4])> = vec![
            (Eq(a(0), int(5)), [false, false, true, false]),
            (Eq(a(0), float(5.0)), [false, false, true, false]),
            (Ne(a(0), int(1)), [false, false, true, true]),
            (Lt(a(0), float(2.0)), [true, false, false, true]),
            (Le(a(1), int(0)), [false, false, true, false]),
            (Gt(a(1), float(0.0)), [true, false, false, true]),
            (Eq(a(1), float(-0.0)), [false, false, true, false]),
            (Eq(a(1), float(0.0)), [false, false, false, false]),
            (Eq(a(1), float(f64::NAN)), [false, false, false, true]),
            (Ge(a(2), s("a")), [true, false, false, true]),
            (Between(a(0), int(-3), int(1)), [true, false, false, true]),
            (Between(a(2), s(""), s("a")), [true, false, true, false]),
            (Eq(a(0), Value::Null), [false, false, false, false]),
            (Ne(a(0), Value::Null), [false, false, false, false]),
            (Lt(a(0), s("x")), [true, false, true, true]),
            (Gt(a(2), int(100)), [true, false, true, true]),
            (
                And(Box::new(Ge(a(0), int(-3))), Box::new(Lt(a(1), float(3.0)))),
                [true, false, true, false],
            ),
        ];
        for (p, want) in table {
            let got: Vec<bool> = rows.iter().map(|r| p.matches(r)).collect();
            assert_eq!(got, want, "predicate {p:?}");
        }
    }

    /// Over a scan, the filter reads the table's rows by reference: a string
    /// held only by discarded rows is never cloned, and the charges are one
    /// comparison per row read and one move per row kept.
    #[test]
    fn filter_clones_only_the_rows_it_keeps() {
        let schema = Schema::of(&[("k", DataType::Int), ("s", DataType::Str)]);
        let dropped = Text::from("dropped");
        let kept = Text::from("kept");
        let mut t = Table::new(schema);
        for i in 0..100 {
            let s = if i % 10 == 0 { &kept } else { &dropped };
            t.push(Row::new(vec![Value::Int(i), Value::Str(s.clone())]));
        }
        let (dropped_refs, kept_refs) = (dropped.ref_count(), kept.ref_count());

        // The scan charges its own tracker, so `env` sees only the filter.
        let env = OpEnv::with_memory_blocks(8);
        let scan = TableScan::new(&t, OpEnv::with_memory_blocks(8));
        let pred = Predicate::Eq(a(1), Value::str("kept"));
        let mut op = FilterOp::new(scan, pred, env.clone());
        let out = op.next_segment().unwrap().unwrap().into_rows().unwrap();
        assert!(op.next_segment().unwrap().is_none());

        assert_eq!(out.len(), 10);
        assert_eq!(dropped.ref_count(), dropped_refs);
        assert_eq!(kept.ref_count(), kept_refs + 10);
        let work = env.tracker.snapshot();
        assert_eq!(work.comparisons, 100);
        assert_eq!(work.rows_moved, 10);
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let t = sample();
        let env = OpEnv::with_memory_blocks(8);
        let out = filter(&t, &Predicate::Eq(a(0), Value::Int(1)), &env).unwrap();
        assert_eq!(out.row_count(), 3);
        assert!(out.rows().iter().all(|r| r.get(a(0)).as_int() == Some(1)));
        assert!(env.tracker.snapshot().blocks_read >= t.block_count());
    }

    fn check_groups(out: &Table) {
        // Expected: g=1 → count 3, sum 21, min 5, max 9, avg 7.0
        //           g=2 → count 2, sum 30; g=3 → count 1, sum 1.
        let mut seen = std::collections::HashMap::new();
        for r in out.rows() {
            let g = r.get(a(0)).as_int().unwrap();
            let cnt = r.get(a(1)).as_int().unwrap();
            let sum = r.get(a(2)).as_int().unwrap();
            let mn = r.get(a(3)).as_int().unwrap();
            let mx = r.get(a(4)).as_int().unwrap();
            let avg = r.get(a(5)).as_f64().unwrap();
            seen.insert(g, (cnt, sum, mn, mx, avg));
        }
        assert_eq!(seen[&1], (3, 21, 5, 9, 7.0));
        assert_eq!(seen[&2], (2, 30, 10, 20, 15.0));
        assert_eq!(seen[&3], (1, 1, 1, 1, 1.0));
        assert_eq!(seen.len(), 3);
    }

    fn aggs() -> Vec<GroupAgg> {
        vec![
            GroupAgg::CountStar,
            GroupAgg::Sum(a(1)),
            GroupAgg::Min(a(1)),
            GroupAgg::Max(a(1)),
            GroupAgg::Avg(a(1)),
        ]
    }

    #[test]
    fn hash_and_sort_group_by_agree() {
        let t = sample();
        let env = OpEnv::with_memory_blocks(8);
        let hashed = group_by_hash(&t, &[a(0)], &aggs(), &env).unwrap();
        check_groups(&hashed);
        let sorted = group_by_sort(&t, &[a(0)], &aggs(), &env).unwrap();
        check_groups(&sorted);
        // Sort-based output is ordered on the key.
        let gs: Vec<i64> = sorted
            .rows()
            .iter()
            .map(|r| r.get(a(0)).as_int().unwrap())
            .collect();
        assert_eq!(gs, vec![1, 2, 3]);
    }

    #[test]
    fn group_by_schema_names_and_types() {
        let t = sample();
        let s = group_by_schema(t.schema(), &[a(0)], &aggs()).unwrap();
        assert_eq!(s.len(), 6);
        assert_eq!(s.field(a(1)).name, "count");
        assert_eq!(s.field(a(2)).name, "sum_v");
        assert_eq!(s.field(a(5)).data_type, DataType::Float);
    }

    #[test]
    fn sum_of_floats_stays_float() {
        let t = sample();
        let env = OpEnv::with_memory_blocks(8);
        let out = group_by_hash(&t, &[a(0)], &[GroupAgg::Sum(a(2))], &env).unwrap();
        let g1 = out
            .rows()
            .iter()
            .find(|r| r.get(a(0)).as_int() == Some(1))
            .unwrap();
        assert_eq!(g1.get(a(1)), &Value::Float(7.5));
    }

    #[test]
    fn null_keys_form_their_own_group() {
        let schema = Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]);
        let mut t = Table::new(schema);
        t.push(row![Value::Null, 1]);
        t.push(row![Value::Null, 2]);
        t.push(row![1, 3]);
        let env = OpEnv::with_memory_blocks(8);
        let out = group_by_hash(&t, &[a(0)], &[GroupAgg::CountStar], &env).unwrap();
        assert_eq!(out.row_count(), 2);
        let null_group = out.rows().iter().find(|r| r.get(a(0)).is_null()).unwrap();
        assert_eq!(null_group.get(a(1)).as_int(), Some(2));
    }

    #[test]
    fn empty_input_empty_output() {
        let t = Table::new(sample().schema().clone());
        let env = OpEnv::with_memory_blocks(8);
        assert!(group_by_hash(&t, &[a(0)], &aggs(), &env)
            .unwrap()
            .is_empty());
        assert!(group_by_sort(&t, &[a(0)], &aggs(), &env)
            .unwrap()
            .is_empty());
    }
}
