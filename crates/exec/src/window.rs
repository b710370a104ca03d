//! The window-function operator: sequentially scans a matched (reordered)
//! input and appends one derived column per window call (paper §1's
//! evaluation model). One operator evaluates a whole **window group** —
//! every call sharing a `(WPK, WOK)` — in one pass per segment; see
//! [`WindowOp`].
//!
//! Partition boundaries are detected by a change in the `WPK` values or a
//! segment boundary — sound because a matched input delivers every
//! `WPK`-group contiguously and adjacent segments are disjoint on a subset
//! of `WPK`. Within a partition the rows are ordered on `WOK`, which is how
//! peers (ties) are detected.
//!
//! **Boundary reuse (§3.3/§3.5).** When the incoming segment carries a
//! [`SegmentBounds`] layer covering `WPK` (or `WPK ∪ attr(WOK)` for peers)
//! — proven by an upstream window step over a shared key prefix, by SS
//! unit detection, or recorded for free by an FS/HS final merge — the
//! operator takes the boundaries from the layer instead of re-running
//! equality comparisons over every adjacent row pair. Symmetrically, the
//! boundaries this step *does* establish are attached to the outgoing
//! segment, so the next step of the chain pays for them at most once.
//!
//! **Spilled segments (Shi & Wang, arXiv:2007.10385).** A segment that the
//! store spilled is *streamed*, never materialized: partitions are split
//! off on the fly (with the exact comparison charging of the materialized
//! path), and a per-call [`StreamableEval`] class decides the evaluation
//! discipline:
//!
//! * **one-pass** (`O(M)`) — SQL-default-frame `count`/`sum`/`avg`/`min`/
//!   `max` run the spilling aggregation: rows flow through a store-managed
//!   staging segment while a running accumulator snapshots one value per
//!   peer group, then rows and values are zipped back out. `ntile` stages
//!   the same way (bucket sizes need the partition's cardinality), and so
//!   do `percent_rank`/`cume_dist` (peer groups resolve on the first pass,
//!   the cardinality is known at partition end, the staged rows replay
//!   with their group's value);
//! * **ring-buffer** (`O(M + frame)`) — `row_number`/`rank`/`dense_rank`,
//!   `lag`/`lead`, and bounded-ROWS-frame readers (`first_value`/
//!   `last_value`/`nth_value` and the aggregates) evaluate from a ring of
//!   at most the frame extent plus per-peer-group rank state (see
//!   [`RingEval`](StreamableEval::Ring));
//! * **buffered** (`O(M + partition)`) — everything else buffers **one
//!   partition at a time** (registered with the store's residency ledger:
//!   the `largest unit` term of the bound) and reuses the materialized
//!   evaluation code verbatim.
//!
//! Across all three, rows and modeled counters are bit-identical to the
//! resident (materialized) path — the oversized-partition equivalence
//! suite is the proof obligation.
//!
//! Functions implemented: the ranking family (`row_number`, `rank`,
//! `dense_rank`, `ntile`), the distribution family (`percent_rank`,
//! `cume_dist`), the reference family (`lag`, `lead`, `first_value`,
//! `last_value`, `nth_value`) and frame-aware aggregates (`count`, `sum`,
//! `avg`, `min`, `max`, variance/stddev) with ROWS and RANGE frames. The
//! SQL-default frame `RANGE UNBOUNDED PRECEDING..CURRENT ROW` takes a
//! running-accumulator fast path: one forward pass per partition, no
//! prefix arrays.

use crate::env::OpEnv;
use crate::operator::{drain, Operator, Segment, SegmentSource};
use crate::segment::{RunSplitter, SegmentBounds, SegmentedRows};
use wf_common::{
    AttrId, AttrSet, DataType, Error, Result, Row, RowComparator, Schema, SortSpec, Value,
};

/// A window function. `WPK`/`WOK`/frames live in the enclosing spec
/// (`wf-core`); this enum is the computation per partition.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowFunction {
    /// 1-based position within the partition.
    RowNumber,
    /// Rank with gaps.
    Rank,
    /// Rank without gaps.
    DenseRank,
    /// `(rank - 1) / (rows - 1)`, 0 for a single-row partition.
    PercentRank,
    /// `peers_end / rows`.
    CumeDist,
    /// Bucket number 1..=n, larger buckets first.
    Ntile(u64),
    /// Value of `col` `offset` rows before the current row.
    Lag {
        col: AttrId,
        offset: u64,
        default: Option<Value>,
    },
    /// Value of `col` `offset` rows after the current row.
    Lead {
        col: AttrId,
        offset: u64,
        default: Option<Value>,
    },
    /// First value of `col` in the frame.
    FirstValue(AttrId),
    /// Last value of `col` in the frame.
    LastValue(AttrId),
    /// `n`-th (1-based) value of `col` in the frame.
    NthValue(AttrId, u64),
    /// `count(*)` (None) or `count(col)` (non-null) over the frame.
    Count(Option<AttrId>),
    /// Sum over the frame (NULLs skipped; NULL for an all-null frame).
    Sum(AttrId),
    /// Average over the frame.
    Avg(AttrId),
    /// Minimum over the frame.
    Min(AttrId),
    /// Maximum over the frame.
    Max(AttrId),
    /// Population variance over the frame (NULL for an empty frame).
    VarPop(AttrId),
    /// Sample variance over the frame (NULL when fewer than two rows).
    VarSamp(AttrId),
    /// Population standard deviation.
    StddevPop(AttrId),
    /// Sample standard deviation.
    StddevSamp(AttrId),
}

impl WindowFunction {
    /// Result column type given the input schema.
    pub fn result_type(&self, schema: &Schema) -> DataType {
        match self {
            WindowFunction::RowNumber
            | WindowFunction::Rank
            | WindowFunction::DenseRank
            | WindowFunction::Ntile(_)
            | WindowFunction::Count(_) => DataType::Int,
            WindowFunction::PercentRank
            | WindowFunction::CumeDist
            | WindowFunction::Avg(_)
            | WindowFunction::VarPop(_)
            | WindowFunction::VarSamp(_)
            | WindowFunction::StddevPop(_)
            | WindowFunction::StddevSamp(_) => DataType::Float,
            WindowFunction::Lag { col, .. }
            | WindowFunction::Lead { col, .. }
            | WindowFunction::FirstValue(col)
            | WindowFunction::LastValue(col)
            | WindowFunction::NthValue(col, _)
            | WindowFunction::Min(col)
            | WindowFunction::Max(col) => schema.field(*col).data_type,
            WindowFunction::Sum(col) => schema.field(*col).data_type,
        }
    }

    /// True for functions that read a frame (aggregates and value
    /// functions); ranking and row-reference functions ignore frames.
    pub fn uses_frame(&self) -> bool {
        matches!(
            self,
            WindowFunction::FirstValue(_)
                | WindowFunction::LastValue(_)
                | WindowFunction::NthValue(..)
                | WindowFunction::Count(_)
                | WindowFunction::Sum(_)
                | WindowFunction::Avg(_)
                | WindowFunction::Min(_)
                | WindowFunction::Max(_)
                | WindowFunction::VarPop(_)
                | WindowFunction::VarSamp(_)
                | WindowFunction::StddevPop(_)
                | WindowFunction::StddevSamp(_)
        )
    }
}

/// ROWS counts physical rows; RANGE works on peer groups / key distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameUnits {
    Rows,
    Range,
}

/// One frame bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    UnboundedPreceding,
    /// ROWS: row offset; RANGE: key distance (numeric WOK required).
    Preceding(i64),
    CurrentRow,
    Following(i64),
    UnboundedFollowing,
}

/// A window frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameSpec {
    pub units: FrameUnits,
    pub start: Bound,
    pub end: Bound,
}

impl FrameSpec {
    /// SQL's default frame: `RANGE UNBOUNDED PRECEDING .. CURRENT ROW` when
    /// an ORDER BY is present, else the whole partition.
    pub fn default_for(has_order: bool) -> FrameSpec {
        if has_order {
            FrameSpec {
                units: FrameUnits::Range,
                start: Bound::UnboundedPreceding,
                end: Bound::CurrentRow,
            }
        } else {
            FrameSpec {
                units: FrameUnits::Range,
                start: Bound::UnboundedPreceding,
                end: Bound::UnboundedFollowing,
            }
        }
    }

    /// Whole-partition frame.
    pub fn whole_partition() -> FrameSpec {
        FrameSpec::default_for(false)
    }

    /// True for `RANGE UNBOUNDED PRECEDING .. CURRENT ROW` — SQL's default
    /// frame under an ORDER BY, the one-pass spilling aggregation's case.
    pub fn is_sql_default(&self) -> bool {
        self.units == FrameUnits::Range
            && self.start == Bound::UnboundedPreceding
            && self.end == Bound::CurrentRow
    }

    /// True when both bounds are physical-row offsets (`PRECEDING(k)`,
    /// `CURRENT ROW`, `FOLLOWING(k)`): the frame spans at most a constant
    /// number of rows around the current one, which is what makes
    /// ring-buffer evaluation `O(frame)`.
    pub fn is_bounded_rows(&self) -> bool {
        let bounded = |b: Bound| {
            matches!(
                b,
                Bound::Preceding(_) | Bound::CurrentRow | Bound::Following(_)
            )
        };
        self.units == FrameUnits::Rows && bounded(self.start) && bounded(self.end)
    }

    /// True when both bounds are numeric RANGE offsets (`x PRECEDING` /
    /// `y FOLLOWING`): the frame is a key-distance window around the
    /// current row's key. Neither bound touches CURRENT ROW, so no peer
    /// resolution is involved, and both frame edges slide monotonically
    /// with the (sorted) key — which is what lets the sliding aggregates
    /// ring-stream these frames instead of buffering the partition.
    pub fn is_offset_range(&self) -> bool {
        let off = |b: Bound| matches!(b, Bound::Preceding(_) | Bound::Following(_));
        self.units == FrameUnits::Range && off(self.start) && off(self.end)
    }
}

/// How the window operator evaluates **spilled** partitions for one window
/// call — the per-call dispatch over the three streaming disciplines.
/// Resident segments always take the materialized path; this class only
/// governs segments the store spilled, where it decides the tracked
/// residency of the evaluation:
///
/// * [`StreamableEval::OnePass`] — Shi & Wang-style single pass with
///   store-staged rows (the stage spills past the pool budget): `O(M)`.
/// * [`StreamableEval::Ring`] — ring buffer of at most the frame extent
///   plus per-peer-group rank state: `O(M + frame)`.
/// * [`StreamableEval::Buffered`] — one whole partition buffered:
///   `O(M + partition)`, the fallback for frames that genuinely need
///   random access (peer-anchored RANGE frames, unbounded ROWS lookahead).
///
/// Variants are ordered weakest-first so a chain mixing several window
/// calls is governed by the `min` (weakest) member — see
/// [`StreamableEval::weakest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StreamableEval {
    /// One whole partition buffered: `O(M + partition)` residency.
    Buffered,
    /// Ring buffer of the frame extent: `O(M + frame)` residency.
    Ring,
    /// Single streaming pass with store-staged rows: `O(M)` residency.
    OnePass,
}

impl StreamableEval {
    /// Classify one window call. `frame` must already be resolved (the
    /// SQL-default substitution applied).
    pub fn classify(func: &WindowFunction, frame: &FrameSpec) -> Self {
        use WindowFunction::*;
        if frame.is_sql_default() && matches!(func, Count(_) | Sum(_) | Avg(_) | Min(_) | Max(_)) {
            return StreamableEval::OnePass;
        }
        match func {
            // Frame-less: rank state / row counters stream with O(1) state;
            // ntile stages the partition through the store (it needs the
            // partition's cardinality before the first bucket is known),
            // and the distribution functions stage the same way — the
            // staged-replay trick: peer groups resolve on the first pass,
            // the partition cardinality is known at partition end, and the
            // staged rows replay with their group's value.
            RowNumber | Rank | DenseRank => StreamableEval::Ring,
            Ntile(_) | PercentRank | CumeDist => StreamableEval::OnePass,
            // Row references: a ring of `offset` rows.
            Lag { .. } | Lead { .. } => StreamableEval::Ring,
            // Frame readers over a bounded physical-row window. The
            // variance family joins via its sum/sum-of-squares prefix
            // lanes — same sliding-window discipline as SUM/AVG.
            FirstValue(_) | LastValue(_) | NthValue(..) | Count(_) | Sum(_) | Avg(_) | Min(_)
            | Max(_) | VarPop(_) | VarSamp(_) | StddevPop(_) | StddevSamp(_)
                if frame.is_bounded_rows() =>
            {
                StreamableEval::Ring
            }
            // Pure-offset RANGE frames: both edges are key-distance bounds
            // that slide monotonically with the sorted key, so the sliding
            // aggregates resolve them with two monotone pointers over a
            // ring instead of buffering the partition.
            Count(_) | Sum(_) | Avg(_) | Min(_) | Max(_) if frame.is_offset_range() => {
                StreamableEval::Ring
            }
            _ => StreamableEval::Buffered,
        }
    }

    /// The weakest class among several calls — what governs a chain's
    /// overall residency when window calls of different classes mix
    /// (`OnePass` for an empty iterator: no window step holds anything).
    pub fn weakest(classes: impl IntoIterator<Item = StreamableEval>) -> Self {
        classes.into_iter().min().unwrap_or(StreamableEval::OnePass)
    }

    /// Stable lowercase label (reports, plan explain, bench JSON).
    pub fn label(self) -> &'static str {
        match self {
            StreamableEval::Buffered => "buffered",
            StreamableEval::Ring => "ring",
            StreamableEval::OnePass => "one-pass",
        }
    }

    /// Tracked-residency bound of the class, for display.
    pub fn bound(self) -> &'static str {
        match self {
            StreamableEval::Buffered => "O(M + partition)",
            StreamableEval::Ring => "O(M + frame)",
            StreamableEval::OnePass => "O(M)",
        }
    }
}

impl std::fmt::Display for StreamableEval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One call of a window group: the computation and its (resolved) frame.
struct Call {
    func: WindowFunction,
    frame: FrameSpec,
    /// Slot of this call's per-row frame ranges in [`Scratch::ranges`] —
    /// one slot per *distinct* frame of the group, so calls sharing a frame
    /// share its resolution. `None` for calls that never resolve ranges:
    /// frame-less functions and the running default-frame aggregates.
    ranges_slot: Option<usize>,
}

impl Call {
    /// SQL-default-frame `count`/`sum`/`avg`/`min`/`max`: the running
    /// accumulator (resident) and one-pass (spilled) case.
    fn is_running_default(&self) -> bool {
        use WindowFunction::*;
        self.frame.is_sql_default()
            && matches!(self.func, Count(_) | Sum(_) | Avg(_) | Min(_) | Max(_))
    }

    /// True when evaluating this call over a resident partition resolves
    /// its peer groups: the ranking/distribution functions always, frame
    /// readers when a `RANGE` bound is `CURRENT ROW` (the SQL-default frame
    /// included).
    fn needs_peers(&self) -> bool {
        use WindowFunction::*;
        match self.func {
            Rank | DenseRank | PercentRank | CumeDist => true,
            RowNumber | Ntile(_) | Lag { .. } | Lead { .. } => false,
            _ => {
                self.frame.units == FrameUnits::Range
                    && (self.frame.start == Bound::CurrentRow
                        || self.frame.end == Bound::CurrentRow)
            }
        }
    }

    fn eval_class(&self) -> StreamableEval {
        StreamableEval::classify(&self.func, &self.frame)
    }

    /// Upper bound on the encoded length of one value of this call, given
    /// the longest value of the input rows: a number, or — for the functions
    /// that copy a column value — that longest value or the call's default.
    fn value_len_bound(&self, longest_input: usize) -> usize {
        use WindowFunction::*;
        let number = Value::Int(0).encoded_len();
        match &self.func {
            Lag { default, .. } | Lead { default, .. } => {
                longest_input.max(default.as_ref().map_or(number, Value::encoded_len))
            }
            FirstValue(_) | LastValue(_) | NthValue(..) | Min(_) | Max(_) => {
                longest_input.max(number)
            }
            _ => number,
        }
    }
}

/// What every call of a window group shares: the keys, the calls and the
/// environment — immutable while segments flow.
struct Group {
    wpk: AttrSet,
    wok: SortSpec,
    wok_cmp: RowComparator,
    /// `WPK ∪ attr(WOK)` — peer groups are exactly the maximal runs equal
    /// on this set (the `WPK` part never changes within a partition).
    union_attrs: AttrSet,
    calls: Vec<Call>,
    env: OpEnv,
}

/// Working state of a window group, owned by the operator and reused —
/// cleared, never reallocated — across partitions and segments. What the
/// calls of a group share is resolved **once**: the partition starts per
/// segment; the peer groups and the frame ranges of each distinct frame per
/// partition, by the first call that reads them.
#[derive(Default)]
struct Scratch {
    /// Partition starts of the segment.
    part_starts: Vec<usize>,
    /// Absolute peer-group starts of the partitions resolved so far.
    peer_starts: Vec<usize>,
    /// Per row of the partition: start / exclusive end of its peer group
    /// (partition-relative). Empty until a call resolves them.
    gs: Vec<usize>,
    ge: Vec<usize>,
    /// Per distinct frame (see [`Call::ranges_slot`]), per row of the
    /// partition: the frame as a half-open partition-relative index range.
    /// Empty until a call resolves them.
    ranges: Vec<Vec<(usize, usize)>>,
    /// Per call, its values over the partition.
    columns: Vec<Vec<Value>>,
    /// Prefix arrays and sparse-table levels of the frame readers.
    bufs: FrameBufs,
}

impl Scratch {
    fn begin_partition(&mut self) {
        self.gs.clear();
        self.ge.clear();
        self.ranges.iter_mut().for_each(Vec::clear);
    }
}

/// Encoded size of a resident segment's rows, followed call by call to make
/// the store's admission decisions ahead of the store.
struct SegSize {
    bytes: usize,
    /// Encoded length of the longest single value.
    longest_value: usize,
}

impl SegSize {
    fn of(rows: &[Row]) -> SegSize {
        let mut size = SegSize {
            bytes: 0,
            longest_value: 0,
        };
        for row in rows {
            size.bytes += row.encoded_len();
            for v in row.values() {
                size.longest_value = size.longest_value.max(v.encoded_len());
            }
        }
        size
    }
}

/// The window operator as a pull-based pipeline stage: a **window group**.
/// It evaluates every window function that shares one `(WPK, WOK)` — a
/// single function is the group of one — over each upstream segment (which
/// contains only complete window partitions by the segmented-relation
/// contract), appends one derived column per call in call order, and emits
/// the segment with row order and boundaries untouched.
///
/// PostgreSQL, where the paper's scheme was built, runs all functions of
/// one window clause inside a single WindowAgg node; the paper costs a
/// chain by its reorders because, once a relation *matches*, every function
/// of the cover set evaluates off the one reordered relation. The runtime
/// therefore folds every run of matched plan steps on one `(WPK, WOK)` into
/// one operator ([`group_len`]).
///
/// **Resident segments** take one pass, partition by partition: one
/// materialization, one partition-start derivation, and per partition —
/// while its rows are in cache — peer groups resolved once for the group,
/// frame ranges once per distinct frame, every call evaluated into a column
/// buffer and the values appended to the rows; the buffers (columns, prefix
/// arrays, sparse-table levels) are reused across partitions and segments,
/// and the segment is handed to the store once. When several calls would
/// fail, the first in call order surfaces its error, exactly as a chain of
/// single-call operators would.
///
/// **Modeled cost is unchanged by grouping.** What the group no longer
/// repeats — the 2nd…K-th partition and peer scan when boundary reuse is
/// off, one row hand-off per call — is charged as a count, and the boundary
/// layers evolve in the same sequence, so rows, emitted layers and every
/// modeled counter equal those of K chained single-call operators in both
/// positions of `reuse_bounds`.
///
/// **Spilled segments** run their calls back to back through the streaming
/// disciplines (see [`StreamableEval`]) and drop into the resident path as
/// soon as an intermediate comes back resident. Conversely the resident
/// path stops where a chain of single-call operators would have spilled an
/// intermediate, spills it and streams on — the same sequence of residency
/// decisions, hence the same pool traffic.
pub struct WindowOp<I> {
    input: I,
    group: Group,
    scratch: Scratch,
}

/// How many of `steps` (head first) one [`WindowOp`] evaluates: the head
/// plus every directly following step that is `matched` — needs no reorder
/// of its own — on the head's `keys`, its `(WPK, WOK)`. The one grouping
/// rule behind the serial runtime's chains and the scheduler's worker
/// chains.
pub fn group_len<'a, S, K: PartialEq>(
    steps: &'a [S],
    keys: impl Fn(&'a S) -> K,
    matched: impl Fn(&S) -> bool,
) -> usize {
    let Some(head) = steps.first() else { return 0 };
    let head_keys = keys(head);
    1 + steps[1..]
        .iter()
        .take_while(|s| matched(s) && keys(s) == head_keys)
        .count()
}

impl<I: Operator> WindowOp<I> {
    /// Evaluate the single call `func` over a matched input — the group of
    /// one. `frame` defaults per SQL when `None` (see
    /// [`FrameSpec::default_for`]).
    pub fn new(
        input: I,
        wpk: AttrSet,
        wok: SortSpec,
        func: WindowFunction,
        frame: Option<FrameSpec>,
        env: OpEnv,
    ) -> Self {
        WindowOp::group(input, wpk, wok, vec![(func, frame)], env)
    }

    /// Evaluate `calls` — window functions sharing `(wpk, wok)` — over a
    /// matched input, appending their columns in call order.
    pub fn group(
        input: I,
        wpk: AttrSet,
        wok: SortSpec,
        calls: Vec<(WindowFunction, Option<FrameSpec>)>,
        env: OpEnv,
    ) -> Self {
        let mut frames: Vec<FrameSpec> = Vec::new();
        let calls: Vec<Call> = calls
            .into_iter()
            .map(|(func, frame)| {
                let frame = frame.unwrap_or_else(|| FrameSpec::default_for(!wok.is_empty()));
                let mut call = Call {
                    func,
                    frame,
                    ranges_slot: None,
                };
                if call.func.uses_frame() && !call.is_running_default() {
                    let slot = frames.iter().position(|f| *f == frame).unwrap_or_else(|| {
                        frames.push(frame);
                        frames.len() - 1
                    });
                    call.ranges_slot = Some(slot);
                }
                call
            })
            .collect();
        let columns = vec![Vec::new(); calls.len()];
        WindowOp {
            input,
            group: Group {
                wok_cmp: RowComparator::new(&wok),
                union_attrs: wpk.union(&wok.attr_set()),
                wpk,
                wok,
                calls,
                env,
            },
            scratch: Scratch {
                ranges: vec![Vec::new(); frames.len()],
                columns,
                ..Scratch::default()
            },
        }
    }

    /// The evaluation class of the group: the weakest of its calls' classes
    /// (see [`StreamableEval::classify`]) — which streaming disciplines
    /// spilled segments take, and therefore the operator's tracked
    /// residency.
    pub fn eval_class(&self) -> StreamableEval {
        StreamableEval::weakest(self.group.calls.iter().map(Call::eval_class))
    }
}

impl<I: Operator> Operator for WindowOp<I> {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        let Some(mut seg) = self.input.next_segment()? else {
            return Ok(None);
        };
        let WindowOp { group, scratch, .. } = self;
        let mut next = 0;
        while next < group.calls.len() {
            if seg.is_spilled() {
                let _span = group.env.trace.span("window", "eval_spilled");
                seg = group.eval_spilled(scratch, seg, &group.calls[next])?;
                next += 1;
            } else {
                let _span = group.env.trace.span("window", "eval");
                (seg, next) = group.eval_resident(scratch, seg, next)?;
            }
        }
        Ok(Some(seg))
    }
}

impl Group {
    /// The materialized path, for a segment already in memory: evaluate
    /// `calls[first..]` over it and return the segment plus the index of the
    /// next call still to run (`calls.len()` unless the walk stopped where
    /// an intermediate would have spilled).
    ///
    /// A segment boundary always starts a new partition (adjacent segments
    /// are disjoint on a subset of `WPK`); within the segment partitions
    /// break on `WPK`-value changes — taken from a carried boundary layer
    /// when the chain already proved them, detected by scanning otherwise.
    fn eval_resident(
        &self,
        scratch: &mut Scratch,
        seg: Segment,
        first: usize,
    ) -> Result<(Segment, usize)> {
        let env = &self.env;
        let store_backed = seg.is_store_backed();
        let (mut rows, mut bounds) = seg.into_parts()?;
        let n = rows.len();
        scratch.part_starts.clear();
        crate::segment::detect_runs(
            &bounds,
            env.reuse_bounds,
            &self.wpk,
            &rows,
            0,
            n,
            |a, b| self.wpk_eq(a, b),
            &env.tracker,
            &mut scratch.part_starts,
        );
        // A chain of single-call operators hands every intermediate to the
        // store; one that does not fit the pool spills and its successor
        // streams it. Follow the encoded size call by call to stop exactly
        // there (an unbounded pool admits everything).
        let may_spill =
            store_backed && first + 1 < self.calls.len() && env.store.budget_bytes().is_some();
        let mut size = may_spill.then(|| SegSize::of(&rows));
        let mut next = first;
        while next < self.calls.len() {
            // Calls whose intermediates provably fit the pool go in one
            // pass; one that might not goes alone, and its actual size
            // decides.
            let pass = &self.calls[next..];
            let pass = &pass[..self.resident_run(pass, n, size.as_ref())];
            self.eval_pass(
                scratch,
                pass,
                next > first,
                &mut rows,
                &mut bounds,
                &mut size,
            )?;
            next += pass.len();
            if next < self.calls.len() && size.as_ref().is_some_and(|s| !env.store.fits(s.bytes)) {
                break;
            }
        }
        let seg = if store_backed {
            Segment::from_handle(env.store.admit(rows)?, bounds)
        } else {
            Segment::with_bounds(rows, bounds)
        };
        Ok((seg, next))
    }

    /// How many of `calls` (at least one) can run over an `n`-row resident
    /// segment of `size` before an intermediate could outgrow the pool —
    /// judged by an upper bound on what each call appends.
    fn resident_run(&self, calls: &[Call], n: usize, size: Option<&SegSize>) -> usize {
        let Some(size) = size else {
            return calls.len();
        };
        let mut bytes = size.bytes;
        calls
            .iter()
            .take_while(|call| {
                bytes += n * call.value_len_bound(size.longest_value);
                self.env.store.fits(bytes)
            })
            .count()
            .max(1)
    }

    /// Evaluate `calls` over the resident `rows`, partition by partition,
    /// and append their values. `rescan` says whether the first call's own
    /// operator would have derived the partition starts again (it is not
    /// the first call over this materialization).
    ///
    /// Boundary layers evolve as along a chain of single-call operators:
    /// each would hand on the peer groups (when it resolved them, for every
    /// partition) and then the partitions, replacing layers already there.
    fn eval_pass(
        &self,
        scratch: &mut Scratch,
        calls: &[Call],
        rescan: bool,
        rows: &mut [Row],
        bounds: &mut SegmentBounds,
        size: &mut Option<SegSize>,
    ) -> Result<()> {
        let env = &self.env;
        let n = rows.len();
        if !env.reuse_bounds {
            // Without boundary reuse every call's own operator scans the
            // segment's adjacent pairs for partition starts again.
            let rescans = calls.len() - usize::from(!rescan);
            env.tracker.compare((rescans * n.saturating_sub(1)) as u64);
        }
        env.tracker.move_rows((calls.len() * n) as u64);
        if n == 0 {
            return Ok(());
        }
        // The first call to resolve peers sees the partition layer of the
        // calls before it.
        let peers_first = calls[0].needs_peers();
        if !peers_first {
            bounds.add_layer(self.wpk.clone(), scratch.part_starts.clone());
        }
        scratch.peer_starts.clear();
        // The failing call with the lowest index wins, wherever in the
        // segment it fails: after a failure only the calls before it go on.
        let mut live = calls.len();
        let mut failure = None;
        for pi in 0..scratch.part_starts.len() {
            let lo = scratch.part_starts[pi];
            let hi = scratch.part_starts.get(pi + 1).copied().unwrap_or(n);
            scratch.begin_partition();
            for (slot, call) in calls[..live].iter().enumerate() {
                if let Err(e) = self.eval_partition(scratch, call, slot, rows, bounds, lo, hi) {
                    failure = Some(e);
                    live = slot;
                    break;
                }
            }
            if failure.is_some() {
                continue;
            }
            let part = &mut rows[lo..hi];
            // Several values: grow each row once (one push grows it as well
            // by itself).
            if calls.len() > 1 {
                for row in part.iter_mut() {
                    row.reserve(calls.len());
                }
            }
            for column in &mut scratch.columns[..calls.len()] {
                if let Some(size) = size {
                    size.bytes += column.iter().map(Value::encoded_len).sum::<usize>();
                }
                for (row, v) in part.iter_mut().zip(column.drain(..)) {
                    row.push(v);
                }
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        if calls.iter().any(Call::needs_peers) {
            bounds.add_layer(self.union_attrs.clone(), scratch.peer_starts.clone());
        }
        if peers_first {
            bounds.add_layer(self.wpk.clone(), scratch.part_starts.clone());
        }
        Ok(())
    }

    /// Evaluate `call` over the partition `rows[lo..hi]` into
    /// `scratch.columns[slot]`. Peer groups and frame ranges of the
    /// partition are resolved here, right before they are first read — so
    /// errors surface in the order a per-call evaluation meets them.
    #[allow(clippy::too_many_arguments)]
    fn eval_partition(
        &self,
        scratch: &mut Scratch,
        call: &Call,
        slot: usize,
        rows: &[Row],
        bounds: &SegmentBounds,
        lo: usize,
        hi: usize,
    ) -> Result<()> {
        if call.needs_peers() {
            self.resolve_peers(scratch, rows, bounds, lo, hi);
        }
        let part = &rows[lo..hi];
        let Scratch {
            gs,
            ge,
            ranges,
            columns,
            bufs,
            ..
        } = scratch;
        let ranges: &[(usize, usize)] = match call.ranges_slot {
            None => &[],
            Some(slot) => {
                let resolved = &mut ranges[slot];
                if resolved.is_empty() {
                    frame_ranges(part, &self.wok, &call.frame, gs, ge, resolved)?;
                }
                resolved
            }
        };
        let out = &mut columns[slot];
        out.clear();
        eval_values(part, call, gs, ge, ranges, bufs, &self.env, out)
    }

    /// Make the peer groups of partition `rows[lo..hi]` available in the
    /// scratch (`gs`/`ge` per row, absolute starts in `peer_starts`).
    ///
    /// Peer groups are maximal runs equal under the WOK comparator; since
    /// `WPK` values are constant within a partition, they coincide with the
    /// maximal runs equal on `WPK ∪ attr(WOK)` — which is what a carried
    /// union layer proves, making reuse sound.
    ///
    /// The first call of a pass that needs them resolves them, from a
    /// carried layer or by scanning. For every later call its own operator
    /// would resolve them again: for free from the union layer the first
    /// one attached, or — without boundary reuse — by the same scan, which
    /// is charged here as a count.
    fn resolve_peers(
        &self,
        scratch: &mut Scratch,
        rows: &[Row],
        bounds: &SegmentBounds,
        lo: usize,
        hi: usize,
    ) {
        let env = &self.env;
        if !scratch.gs.is_empty() {
            if !env.reuse_bounds {
                env.tracker.compare((hi - lo - 1) as u64);
            }
            return;
        }
        let from = scratch.peer_starts.len();
        crate::segment::detect_runs(
            bounds,
            env.reuse_bounds,
            &self.union_attrs,
            rows,
            lo,
            hi,
            |a, b| self.wok_cmp.equal(a, b),
            &env.tracker,
            &mut scratch.peer_starts,
        );
        let starts = &scratch.peer_starts[from..];
        scratch.gs.resize(hi - lo, 0);
        scratch.ge.resize(hi - lo, 0);
        for (k, &s) in starts.iter().enumerate() {
            let e = starts.get(k + 1).copied().unwrap_or(hi);
            scratch.gs[s - lo..e - lo].fill(s - lo);
            scratch.ge[s - lo..e - lo].fill(e - lo);
        }
    }

    /// The streaming path for a spilled segment and one call: split
    /// partitions on the fly, evaluate each within the residency bound of
    /// the call's [`StreamableEval`] class, and stream the output through a
    /// store builder. Outputs — rows, boundary layers, modeled counters —
    /// are bit-identical to [`Group::eval_resident`].
    fn eval_spilled(&self, scratch: &mut Scratch, seg: Segment, call: &Call) -> Result<Segment> {
        let env = &self.env;
        let (n, stream, bounds) = seg.into_stream();
        let mut out = env.store.builder();
        let mut part_starts: Vec<usize> = Vec::new();
        let mut peer_starts: Vec<usize> = Vec::new();
        let mut resolved = 0usize;
        let mut nparts = 0usize;
        match call.eval_class() {
            StreamableEval::OnePass if matches!(call.func, WindowFunction::Ntile(_)) => self
                .stream_ntile(
                    call,
                    n,
                    stream,
                    &bounds,
                    &mut out,
                    &mut part_starts,
                    &mut nparts,
                )?,
            StreamableEval::OnePass
                if matches!(
                    call.func,
                    WindowFunction::PercentRank | WindowFunction::CumeDist
                ) =>
            {
                self.stream_distribution(
                    call,
                    n,
                    stream,
                    &bounds,
                    &mut out,
                    &mut part_starts,
                    &mut peer_starts,
                    &mut resolved,
                    &mut nparts,
                )?
            }
            StreamableEval::OnePass => self.stream_default_agg(
                call,
                n,
                stream,
                &bounds,
                &mut out,
                &mut part_starts,
                &mut peer_starts,
                &mut resolved,
                &mut nparts,
            )?,
            StreamableEval::Ring => self.stream_ring(
                call,
                n,
                stream,
                &bounds,
                &mut out,
                &mut part_starts,
                &mut peer_starts,
                &mut resolved,
                &mut nparts,
            )?,
            StreamableEval::Buffered => self.stream_buffered_partitions(
                scratch,
                call,
                n,
                stream,
                &bounds,
                &mut out,
                &mut part_starts,
                &mut peer_starts,
                &mut resolved,
                &mut nparts,
            )?,
        }
        env.tracker.move_rows(n as u64);
        let mut out_bounds = bounds;
        if n > 0 {
            if resolved == nparts && nparts == part_starts.len() {
                out_bounds.add_layer(self.union_attrs.clone(), peer_starts);
            }
            out_bounds.add_layer(self.wpk.clone(), part_starts);
        }
        Ok(Segment::from_handle(out.finish()?, out_bounds))
    }

    /// Generic spilled evaluation: buffer one partition at a time (the
    /// `largest unit` term of the residency bound, registered with the
    /// store) and reuse the materialized per-partition evaluator.
    #[allow(clippy::too_many_arguments)]
    fn stream_buffered_partitions(
        &self,
        scratch: &mut Scratch,
        call: &Call,
        n: usize,
        mut stream: crate::operator::SegStream,
        bounds: &SegmentBounds,
        out: &mut wf_storage::SegmentBuilder,
        part_starts: &mut Vec<usize>,
        peer_starts: &mut Vec<usize>,
        resolved: &mut usize,
        nparts: &mut usize,
    ) -> Result<()> {
        let env = &self.env;
        let wpk_eq = |a: &Row, b: &Row| self.wpk_eq(a, b);
        let mut splitter = RunSplitter::new(bounds, &self.wpk, n, env.reuse_bounds);
        let mut cur: Vec<Row> = Vec::new();
        let mut hold = env.store.hold(0, 0);
        let mut lo = 0usize;
        let mut idx = 0usize;
        // Evaluate one buffered partition (rows relative, `lo` absolute)
        // and stream it out with its derived column.
        let mut flush = |mut rows: Vec<Row>, lo: usize| -> Result<()> {
            let len = rows.len();
            part_starts.push(lo);
            // A window of the carried bounds answers peer queries with the
            // exact boundaries and comparison charges of the absolute view.
            let wbounds = bounds.window(lo, lo + len);
            scratch.peer_starts.clear();
            scratch.begin_partition();
            self.eval_partition(scratch, call, 0, &rows, &wbounds, 0, len)?;
            for (row, v) in rows.iter_mut().zip(scratch.columns[0].drain(..)) {
                row.push(v);
            }
            if call.needs_peers() {
                *resolved += 1;
                peer_starts.extend(scratch.peer_starts.iter().map(|s| s + lo));
            }
            *nparts += 1;
            for row in rows {
                out.push(row)?;
            }
            Ok(())
        };
        while let Some(row) = stream.next_row()? {
            let boundary = match cur.last() {
                None => true,
                Some(prev) => splitter.is_boundary(idx, prev, &row, wpk_eq, false, &env.tracker),
            };
            if boundary && !cur.is_empty() {
                flush(std::mem::take(&mut cur), lo)?;
                hold = env.store.hold(0, 0);
                lo = idx;
            }
            hold.grow(row.encoded_len(), 1);
            cur.push(row);
            idx += 1;
        }
        if !cur.is_empty() {
            flush(cur, lo)?;
        }
        drop(hold);
        Ok(())
    }

    /// Shi & Wang-style one-pass spilling aggregation for the SQL-default
    /// frame: partition rows are staged through the store while a running
    /// accumulator snapshots one value per peer group; at partition end the
    /// staged rows are read back and zipped with their group's value. Never
    /// holds more than the pool budget, even for partitions ≫ `M`.
    #[allow(clippy::too_many_arguments)]
    fn stream_default_agg(
        &self,
        call: &Call,
        n: usize,
        mut stream: crate::operator::SegStream,
        bounds: &SegmentBounds,
        out: &mut wf_storage::SegmentBuilder,
        part_starts: &mut Vec<usize>,
        peer_starts: &mut Vec<usize>,
        resolved: &mut usize,
        nparts: &mut usize,
    ) -> Result<()> {
        let env = &self.env;
        let wpk_eq = |a: &Row, b: &Row| self.wpk_eq(a, b);
        let mut part_split = RunSplitter::new(bounds, &self.wpk, n, env.reuse_bounds);
        let mut peer_split = RunSplitter::new(bounds, &self.union_attrs, n, env.reuse_bounds);
        let mut agg = RunningAgg::new(&call.func, env);
        let mut prev: Option<Row> = None;
        let mut lo = 0usize;
        let mut idx = 0usize;
        while let Some(row) = stream.next_row()? {
            let part_boundary = match &prev {
                None => true,
                Some(p) => part_split.is_boundary(idx, p, &row, wpk_eq, false, &env.tracker),
            };
            if part_boundary && idx > 0 {
                agg.finish_partition(env, out, lo, peer_starts)?;
                *resolved += 1;
                *nparts += 1;
                lo = idx;
            }
            if part_boundary {
                part_starts.push(idx);
            }
            let peer_boundary = match &prev {
                None => true,
                Some(p) => peer_split.is_boundary(
                    idx,
                    p,
                    &row,
                    |a, b| self.wok_cmp.equal(a, b),
                    part_boundary,
                    &env.tracker,
                ),
            };
            if peer_boundary {
                agg.close_group();
            }
            agg.consume(&row, env)?;
            prev = Some(self.key_shadow(&row));
            agg.stage(row)?;
            idx += 1;
        }
        if idx > 0 {
            agg.finish_partition(env, out, lo, peer_starts)?;
            *resolved += 1;
            *nparts += 1;
        }
        Ok(())
    }

    /// Row equality on exactly the partition key `WPK` — the one
    /// definition every evaluation path (materialized, one-pass, ring,
    /// buffered) splits partitions with, so their boundary decisions can
    /// never drift apart.
    fn wpk_eq(&self, a: &Row, b: &Row) -> bool {
        self.wpk.iter().all(|attr| a.get(attr) == b.get(attr))
    }

    /// Projection of `row` to `WPK ∪ attr(WOK)` (other columns NULL).
    /// Boundary checks only read those attributes, so the streaming paths
    /// keep this shadow of the previous row instead of cloning whole rows
    /// through their hot loops.
    fn key_shadow(&self, row: &Row) -> Row {
        Row::new(
            (0..row.arity())
                .map(|i| {
                    let id = wf_common::AttrId::new(i);
                    if self.union_attrs.contains(id) {
                        row.get(id).clone()
                    } else {
                        Value::Null
                    }
                })
                .collect(),
        )
    }

    /// One-pass `ntile` over spilled partitions: rows are staged through
    /// the store (the stage spills past the pool budget, so residency stays
    /// `O(M)` even for partitions ≫ `M`) while a row counter runs; at
    /// partition end the bucket sizes are known and the staged rows are
    /// replayed with their tile numbers. No peer resolution and no
    /// comparison charges — exactly like the materialized `ntile`.
    #[allow(clippy::too_many_arguments)]
    fn stream_ntile(
        &self,
        call: &Call,
        n: usize,
        mut stream: crate::operator::SegStream,
        bounds: &SegmentBounds,
        out: &mut wf_storage::SegmentBuilder,
        part_starts: &mut Vec<usize>,
        nparts: &mut usize,
    ) -> Result<()> {
        let env = &self.env;
        let tiles = match call.func {
            WindowFunction::Ntile(t) => t.max(1) as usize,
            _ => unreachable!("dispatched on Ntile"),
        };
        let wpk_eq = |a: &Row, b: &Row| self.wpk_eq(a, b);
        let mut part_split = RunSplitter::new(bounds, &self.wpk, n, env.reuse_bounds);
        let mut stage = env.store.builder();
        let flush = |stage: &mut wf_storage::SegmentBuilder,
                     out: &mut wf_storage::SegmentBuilder|
         -> Result<()> {
            let staged = std::mem::replace(stage, env.store.builder()).finish()?;
            let len = staged.len();
            let base = len / tiles;
            let extra = len % tiles;
            let mut reader = staged.read();
            let mut j = 0usize;
            while let Some(mut row) = reader.next_row()? {
                // Tiles 0..extra hold base+1 rows, the rest base rows —
                // the same spread-the-remainder rule as the materialized
                // path.
                let tile = if j < extra * (base + 1) {
                    j / (base + 1)
                } else {
                    extra + (j - extra * (base + 1)) / base.max(1)
                };
                row.push(Value::Int(tile as i64 + 1));
                out.push(row)?;
                j += 1;
            }
            Ok(())
        };
        let mut prev: Option<Row> = None;
        let mut idx = 0usize;
        while let Some(row) = stream.next_row()? {
            let part_boundary = match &prev {
                None => true,
                Some(p) => part_split.is_boundary(idx, p, &row, wpk_eq, false, &env.tracker),
            };
            if part_boundary && idx > 0 {
                flush(&mut stage, out)?;
                *nparts += 1;
            }
            if part_boundary {
                part_starts.push(idx);
            }
            prev = Some(self.key_shadow(&row));
            stage.push(row)?;
            idx += 1;
        }
        if idx > 0 {
            flush(&mut stage, out)?;
            *nparts += 1;
        }
        Ok(())
    }

    /// One-pass streaming of the distribution functions (`percent_rank`,
    /// `cume_dist`) over spilled partitions — the staged-replay trick:
    /// rows are staged through the store (the stage spills past the pool
    /// budget, keeping residency `O(M)` for partitions ≫ `M`) while peer
    /// groups resolve on the fly with the exact comparison charges of the
    /// materialized path; at partition end the cardinality is known, so
    /// the staged rows replay with their group's value — `gs / (n - 1)`
    /// for `percent_rank` (0 for a single-row partition), `ge / n` for
    /// `cume_dist`, in the materialized path's exact float arithmetic.
    #[allow(clippy::too_many_arguments)]
    fn stream_distribution(
        &self,
        call: &Call,
        n: usize,
        mut stream: crate::operator::SegStream,
        bounds: &SegmentBounds,
        out: &mut wf_storage::SegmentBuilder,
        part_starts: &mut Vec<usize>,
        peer_starts: &mut Vec<usize>,
        resolved: &mut usize,
        nparts: &mut usize,
    ) -> Result<()> {
        let env = &self.env;
        let want_pr = matches!(call.func, WindowFunction::PercentRank);
        let wpk_eq = |a: &Row, b: &Row| self.wpk_eq(a, b);
        let mut part_split = RunSplitter::new(bounds, &self.wpk, n, env.reuse_bounds);
        let mut peer_split = RunSplitter::new(bounds, &self.union_attrs, n, env.reuse_bounds);
        let mut stage = env.store.builder();
        // Rows per closed peer group of the open partition, plus the open
        // group's row count — O(groups) state, never the rows themselves.
        let mut groups: Vec<usize> = Vec::new();
        let mut open = 0usize;
        let flush = |stage: &mut wf_storage::SegmentBuilder,
                     groups: &mut Vec<usize>,
                     open: &mut usize,
                     lo: usize,
                     out: &mut wf_storage::SegmentBuilder,
                     peer_starts: &mut Vec<usize>|
         -> Result<()> {
            if *open > 0 {
                groups.push(std::mem::take(open));
            }
            let staged = std::mem::replace(stage, env.store.builder()).finish()?;
            let len = staged.len();
            let mut reader = staged.read();
            let mut gs = 0usize;
            for &g in groups.iter() {
                peer_starts.push(lo + gs);
                let ge = gs + g;
                let value = if want_pr {
                    if len <= 1 {
                        Value::Float(0.0)
                    } else {
                        Value::Float(gs as f64 / (len - 1) as f64)
                    }
                } else {
                    Value::Float(ge as f64 / len as f64)
                };
                for _ in 0..g {
                    let mut row = reader
                        .next_row()?
                        .ok_or_else(|| Error::Execution("staged partition truncated".into()))?;
                    row.push(value.clone());
                    out.push(row)?;
                }
                gs = ge;
            }
            groups.clear();
            Ok(())
        };
        let mut prev: Option<Row> = None;
        let mut lo = 0usize;
        let mut idx = 0usize;
        while let Some(row) = stream.next_row()? {
            let part_boundary = match &prev {
                None => true,
                Some(p) => part_split.is_boundary(idx, p, &row, wpk_eq, false, &env.tracker),
            };
            if part_boundary && idx > 0 {
                flush(&mut stage, &mut groups, &mut open, lo, out, peer_starts)?;
                *resolved += 1;
                *nparts += 1;
                lo = idx;
            }
            if part_boundary {
                part_starts.push(idx);
            }
            let peer_boundary = match &prev {
                None => true,
                Some(p) => peer_split.is_boundary(
                    idx,
                    p,
                    &row,
                    |a, b| self.wok_cmp.equal(a, b),
                    part_boundary,
                    &env.tracker,
                ),
            };
            if peer_boundary && open > 0 {
                groups.push(std::mem::take(&mut open));
            }
            open += 1;
            prev = Some(self.key_shadow(&row));
            stage.push(row)?;
            idx += 1;
        }
        if idx > 0 {
            flush(&mut stage, &mut groups, &mut open, lo, out, peer_starts)?;
            *resolved += 1;
            *nparts += 1;
        }
        Ok(())
    }

    /// Ring-buffer streaming for spilled partitions: ranking functions,
    /// `lag`/`lead`, bounded-ROWS frame readers (including the variance
    /// family), and pure-offset RANGE aggregates evaluate with at most the
    /// frame extent staged plus per-peer-group rank state — `O(M + frame)`
    /// tracked residency instead of buffering the partition. Partition and
    /// peer boundaries are detected with the
    /// exact comparison charges of the materialized path (via
    /// [`RunSplitter`]); value computation mirrors the materialized
    /// evaluators bit for bit (see [`RingEval`]).
    #[allow(clippy::too_many_arguments)]
    fn stream_ring(
        &self,
        call: &Call,
        n: usize,
        mut stream: crate::operator::SegStream,
        bounds: &SegmentBounds,
        out: &mut wf_storage::SegmentBuilder,
        part_starts: &mut Vec<usize>,
        peer_starts: &mut Vec<usize>,
        resolved: &mut usize,
        nparts: &mut usize,
    ) -> Result<()> {
        let env = &self.env;
        let wpk_eq = |a: &Row, b: &Row| self.wpk_eq(a, b);
        let mut part_split = RunSplitter::new(bounds, &self.wpk, n, env.reuse_bounds);
        // Only the ranking functions resolve peers (the materialized path
        // resolves them for exactly those) — resolving them for other
        // functions would charge comparisons the materialized path never
        // pays.
        let needs_peers = matches!(call.func, WindowFunction::Rank | WindowFunction::DenseRank);
        let mut peer_split =
            needs_peers.then(|| RunSplitter::new(bounds, &self.union_attrs, n, env.reuse_bounds));
        let mut ring = RingEval::new(&call.func, &call.frame, &self.wok, env)?;
        let mut prev: Option<Row> = None;
        let mut idx = 0usize;
        while let Some(row) = stream.next_row()? {
            let part_boundary = match &prev {
                None => true,
                Some(p) => part_split.is_boundary(idx, p, &row, wpk_eq, false, &env.tracker),
            };
            if part_boundary && idx > 0 {
                ring.finish_partition(env, out)?;
                if needs_peers {
                    *resolved += 1;
                }
                *nparts += 1;
            }
            if part_boundary {
                part_starts.push(idx);
            }
            let peer_boundary = match &mut peer_split {
                None => false,
                Some(split) => match &prev {
                    None => true,
                    Some(p) => split.is_boundary(
                        idx,
                        p,
                        &row,
                        |a, b| self.wok_cmp.equal(a, b),
                        part_boundary,
                        &env.tracker,
                    ),
                },
            };
            if peer_boundary {
                peer_starts.push(idx);
            }
            prev = Some(self.key_shadow(&row));
            ring.push(row, peer_boundary, out)?;
            idx += 1;
        }
        if idx > 0 {
            ring.finish_partition(env, out)?;
            if needs_peers {
                *resolved += 1;
            }
            *nparts += 1;
        }
        Ok(())
    }
}

/// Per-partition running state of the streaming default-frame aggregation.
/// Accumulates exactly like [`running_default_frame`] — integer sums in
/// `i128`, float classification over the whole partition, min/max charging
/// one comparison per non-null value after the first — and snapshots the
/// state at every peer-group close so the staged rows can be zipped with
/// their group's value at partition end.
struct RunningAgg {
    func: WindowFunction,
    /// Staged partition rows (store-managed; spills past the pool budget).
    stage: Option<wf_storage::SegmentBuilder>,
    /// `(rows in group, state snapshot at group end)` per closed group.
    groups: Vec<(usize, GroupSnap)>,
    open_rows: usize,
    cnt: i64,
    sum_i: i128,
    sum_f: f64,
    all_int: bool,
    extremum: Option<Value>,
}

/// Accumulator snapshot at a peer-group close.
struct GroupSnap {
    cnt: i64,
    sum_i: i128,
    sum_f: f64,
    extremum: Option<Value>,
}

impl RunningAgg {
    fn new(func: &WindowFunction, env: &OpEnv) -> Self {
        RunningAgg {
            func: func.clone(),
            stage: Some(env.store.builder()),
            groups: Vec::new(),
            open_rows: 0,
            cnt: 0,
            sum_i: 0,
            sum_f: 0.0,
            all_int: true,
            extremum: None,
        }
    }

    /// Close the currently open peer group (no-op when empty).
    fn close_group(&mut self) {
        if self.open_rows == 0 {
            return;
        }
        self.groups.push((
            self.open_rows,
            GroupSnap {
                cnt: self.cnt,
                sum_i: self.sum_i,
                sum_f: self.sum_f,
                extremum: self.extremum.clone(),
            },
        ));
        self.open_rows = 0;
    }

    /// Fold one row's value into the running state.
    fn consume(&mut self, row: &Row, env: &OpEnv) -> Result<()> {
        use WindowFunction::*;
        match &self.func {
            Count(col) => {
                self.cnt += match col {
                    None => 1,
                    Some(c) => i64::from(!row.get(*c).is_null()),
                };
            }
            Sum(col) | Avg(col) => match row.get(*col) {
                Value::Int(x) => {
                    self.sum_i += *x as i128;
                    self.sum_f += *x as f64;
                    self.cnt += 1;
                }
                Value::Float(x) => {
                    self.all_int = false;
                    self.sum_f += *x;
                    self.cnt += 1;
                }
                Value::Null => {}
                other => {
                    return Err(Error::TypeMismatch {
                        expected: "numeric".into(),
                        found: other.type_name().into(),
                    })
                }
            },
            Min(col) | Max(col) => {
                let v = row.get(*col);
                if !v.is_null() {
                    let want_min = matches!(self.func, Min(_));
                    match &self.extremum {
                        None => self.extremum = Some(v.clone()),
                        Some(c) => {
                            env.tracker.compare(1);
                            if (want_min && v < c) || (!want_min && v > c) {
                                self.extremum = Some(v.clone());
                            }
                        }
                    }
                }
            }
            other => {
                return Err(Error::Execution(format!(
                    "{other:?} is not a streamable default-frame aggregate"
                )))
            }
        }
        self.open_rows += 1;
        Ok(())
    }

    /// Stage the row itself for the end-of-partition zip.
    fn stage(&mut self, row: Row) -> Result<()> {
        self.stage.as_mut().expect("stage open").push(row)
    }

    /// Finalize the partition: resolve each group's value (the type
    /// classification is partition-global, exactly like the materialized
    /// path), read the staged rows back and emit them with their values.
    fn finish_partition(
        &mut self,
        env: &OpEnv,
        out: &mut wf_storage::SegmentBuilder,
        lo: usize,
        peer_starts: &mut Vec<usize>,
    ) -> Result<()> {
        use WindowFunction::*;
        self.close_group();
        let values: Vec<Value> = self
            .groups
            .iter()
            .map(|(_, s)| match &self.func {
                Count(_) => Value::Int(s.cnt),
                Sum(_) => {
                    if s.cnt == 0 {
                        Value::Null
                    } else if self.all_int {
                        Value::Int(s.sum_i.clamp(i64::MIN as i128, i64::MAX as i128) as i64)
                    } else {
                        Value::Float(s.sum_f)
                    }
                }
                Avg(_) => {
                    if s.cnt == 0 {
                        Value::Null
                    } else if self.all_int {
                        Value::Float(s.sum_i as f64 / s.cnt as f64)
                    } else {
                        Value::Float(s.sum_f / s.cnt as f64)
                    }
                }
                Min(_) | Max(_) => s.extremum.clone().unwrap_or(Value::Null),
                _ => unreachable!("gated in consume"),
            })
            .collect();
        let stage = self.stage.take().expect("stage open").finish()?;
        let mut reader = stage.read();
        let mut pos = lo;
        for ((group_rows, _), value) in self.groups.iter().zip(values) {
            peer_starts.push(pos);
            pos += group_rows;
            for _ in 0..*group_rows {
                let mut row = reader
                    .next_row()?
                    .ok_or_else(|| Error::Execution("staged partition truncated".into()))?;
                row.push(value.clone());
                out.push(row)?;
            }
        }
        // Reset for the next partition.
        self.stage = Some(env.store.builder());
        self.groups.clear();
        self.open_rows = 0;
        self.cnt = 0;
        self.sum_i = 0;
        self.sum_f = 0.0;
        self.all_int = true;
        self.extremum = None;
        Ok(())
    }
}

/// Per-partition state of the ring-buffer streaming path
/// ([`StreamableEval::Ring`]).
///
/// The ring stages at most `hist + delay + 1` rows — the frame extent:
/// `delay` rows of lookahead (a row is evaluated once the last row its
/// frame can read has arrived, or the partition ends) plus `hist` rows of
/// lookback (rows an upcoming frame may still read). Residency is tracked
/// row by row through a [`wf_storage::RingCharge`], never a unit hold, so
/// the store's high-water mark shows `O(M + frame)`.
///
/// Bit-identity with the materialized evaluators:
/// * `rank`/`dense_rank` take their values from the peer boundaries the
///   caller detects (with the materialized path's exact comparison
///   charges); `row_number` and `lag`/`lead` are pure index arithmetic;
/// * `sum`/`avg` answer frames from *sequential prefix accumulators* — the
///   same association order as the materialized prefix arrays, so float
///   results match bit for bit — and stage provisionally-valued rows until
///   partition end, when the partition-global int/float classification
///   (the materialized path's rule) is known;
/// * `count(col)` answers frames from the same prefix deque (`O(1)` per
///   row); `min`/`max` run a monotonic deque over the sliding frame —
///   popping strictly-worse entries keeps the *leftmost* extremum, exactly
///   the sparse table's tie rule, in `O(n)` total — and charge the sparse
///   table's deterministic build comparisons at partition end, keeping
///   modeled counters identical;
/// * the variance family (`var_pop`/`var_samp`/`stddev_pop`/`stddev_samp`)
///   adds a sum-of-squares prefix lane and applies the materialized path's
///   sum-of-squares identity verbatim (same association order, same
///   clamping) — bit-identical floats, zero extra comparisons;
/// * pure-offset RANGE frames resolve through [`RangeState`]'s monotone
///   pointers — the same half-open ranges as the materialized binary
///   searches (NULL peer regions included), equally uncharged.
struct RingEval {
    func: WindowFunction,
    frame: FrameSpec,
    /// Rows before the current one that upcoming frames may still read.
    hist: usize,
    /// Rows after row `i` that must arrive before `i` can be evaluated.
    delay: usize,
    /// Staged rows `[base, received)`, partition-relative.
    ring: std::collections::VecDeque<Row>,
    base: usize,
    next_emit: usize,
    received: usize,
    charge: wf_storage::RingCharge,
    /// Ranking state of the open peer group.
    rank: i64,
    dense: i64,
    /// Sum/Avg/Count(col)/variance: prefix accumulators for indexes
    /// `[pbase, received]` — `(exact int sum, float sum, float sum of
    /// squares, non-null count)` over rows `0..j`. The sum-of-squares lane
    /// is populated by the variance family only.
    prefixes: std::collections::VecDeque<(i128, f64, f64, i64)>,
    pbase: usize,
    all_int: bool,
    /// Pure-offset RANGE frames: streamed mirror of the materialized
    /// binary-search frame resolution (see [`RangeState`]). `None` in
    /// ROWS / frame-less modes.
    range: Option<RangeState>,
    /// Min/Max: monotonic deque of rel indices with non-null values —
    /// front is the frame's leftmost extremum; `next_add` is the first
    /// index not yet offered to it. O(n) total over a partition.
    minmax: std::collections::VecDeque<usize>,
    next_add: usize,
    /// Sum/Avg: provisionally valued rows awaiting the partition-global
    /// type class (store-staged; spills past the pool budget).
    stage: Option<wf_storage::SegmentBuilder>,
}

/// Streaming state for pure-offset RANGE frames (`x PRECEDING .. y
/// FOLLOWING` in key space). Because the partition arrives sorted on the
/// single numeric ordering key, both frame edges are monotone in the row
/// index: the materialized path's per-row binary searches collapse into two
/// pointers (`fs`/`fe`) that only ever advance — `O(n)` per partition, and
/// (like the binary searches) uncharged. NULL-key rows form their own peer
/// region at whichever end the sort placed them.
struct RangeState {
    /// The single ordering key (validated lazily, per row, exactly like
    /// [`range_key`] — so an empty input never errors).
    wok: SortSpec,
    /// Frame-start key delta: `Preceding(k) → -k`, `Following(k) → +k`.
    start_delta: i64,
    /// Frame-end key delta, same encoding.
    end_delta: i64,
    /// Ascending-normalized keys of rows `[kbase, received)`, aligned with
    /// the row ring; `(key, is_null)` as produced by [`range_key_row`].
    keys: std::collections::VecDeque<(f64, bool)>,
    kbase: usize,
    /// Monotone frame pointers: `fs` = first index with key ≥ key(i) +
    /// start_delta, `fe` = one past the last with key ≤ key(i) + end_delta.
    fs: usize,
    fe: usize,
    /// The NULL peer region `[null_start, null_end)`; `null_end == None`
    /// means it runs to the partition end (NULLs sorted last).
    null_start: Option<usize>,
    null_end: Option<usize>,
}

impl RingEval {
    fn new(func: &WindowFunction, frame: &FrameSpec, wok: &SortSpec, env: &OpEnv) -> Result<Self> {
        use WindowFunction::*;
        if func.uses_frame() {
            // Mirror `frame_ranges`' offset validation.
            for b in [frame.start, frame.end] {
                if let Bound::Preceding(k) | Bound::Following(k) = b {
                    if k < 0 {
                        return Err(Error::InvalidQuery(
                            "frame offset must not be negative".into(),
                        ));
                    }
                }
            }
        }
        let preceding = |b: Bound| match b {
            Bound::Preceding(k) => k.max(0) as usize,
            _ => 0,
        };
        let following = |b: Bound| match b {
            Bound::Following(k) => k.max(0) as usize,
            _ => 0,
        };
        let (hist, delay) = match func {
            Lag { offset, .. } => (*offset as usize, 0),
            Lead { offset, .. } => (0, *offset as usize),
            // RANGE offsets are key distances, not row counts: retention
            // and readiness come from the key pointers instead (see
            // `RangeState`), so hist/delay stay zero there.
            _ if func.uses_frame() && frame.units == FrameUnits::Rows => (
                preceding(frame.start).max(preceding(frame.end)),
                following(frame.start).max(following(frame.end)),
            ),
            _ => (0, 0),
        };
        let range = (func.uses_frame() && frame.units == FrameUnits::Range).then(|| {
            let delta = |b: Bound| match b {
                Bound::Preceding(k) => -k,
                Bound::Following(k) => k,
                _ => 0,
            };
            RangeState {
                wok: wok.clone(),
                start_delta: delta(frame.start),
                end_delta: delta(frame.end),
                keys: std::collections::VecDeque::new(),
                kbase: 0,
                fs: 0,
                fe: 0,
                null_start: None,
                null_end: None,
            }
        });
        let stage = matches!(func, Sum(_) | Avg(_)).then(|| env.store.builder());
        Ok(RingEval {
            func: func.clone(),
            frame: *frame,
            hist,
            delay,
            ring: std::collections::VecDeque::new(),
            base: 0,
            next_emit: 0,
            received: 0,
            charge: env.store.ring_charge(),
            rank: 0,
            dense: 0,
            prefixes: std::collections::VecDeque::from([(0i128, 0f64, 0f64, 0i64)]),
            pbase: 0,
            all_int: true,
            range,
            minmax: std::collections::VecDeque::new(),
            next_add: 0,
            stage,
        })
    }

    /// One partition row arrived (`peer_boundary`: it starts a new peer
    /// group — meaningful for the ranking functions only). Emits every row
    /// whose lookahead is now satisfied.
    fn push(
        &mut self,
        row: Row,
        peer_boundary: bool,
        out: &mut wf_storage::SegmentBuilder,
    ) -> Result<()> {
        use WindowFunction::*;
        if peer_boundary {
            self.rank = self.received as i64 + 1;
            self.dense += 1;
        }
        if let Some(r) = &mut self.range {
            // Resolve the ordering key first — the materialized path
            // validates it (in `frame_ranges`) before touching the
            // aggregate column.
            let (k, knull) = range_key_row(&r.wok, &row)?;
            if knull {
                if r.null_start.is_none() {
                    r.null_start = Some(self.received);
                }
            } else if r.null_start.is_some() && r.null_end.is_none() {
                r.null_end = Some(self.received);
            }
            r.keys.push_back((k, knull));
        }
        match &self.func {
            Sum(col) | Avg(col) => {
                let &(pi, pf, pq, pc) = self.prefixes.back().expect("prefix seeded");
                let (di, df, dc) = match row.get(*col) {
                    Value::Int(x) => (*x as i128, *x as f64, 1),
                    Value::Float(x) => {
                        self.all_int = false;
                        (0, *x, 1)
                    }
                    Value::Null => (0, 0.0, 0),
                    other => {
                        return Err(Error::TypeMismatch {
                            expected: "numeric".into(),
                            found: other.type_name().into(),
                        })
                    }
                };
                self.prefixes.push_back((pi + di, pf + df, pq, pc + dc));
            }
            VarPop(col) | VarSamp(col) | StddevPop(col) | StddevSamp(col) => {
                let &(pi, pf, pq, pc) = self.prefixes.back().expect("prefix seeded");
                let (x, dc) = match row.get(*col) {
                    Value::Int(v) => (*v as f64, 1),
                    Value::Float(v) => (*v, 1),
                    Value::Null => (0.0, 0),
                    other => {
                        return Err(Error::TypeMismatch {
                            expected: "numeric".into(),
                            found: other.type_name().into(),
                        })
                    }
                };
                self.prefixes.push_back((pi, pf + x, pq + x * x, pc + dc));
            }
            Count(Some(col)) => {
                let &(pi, pf, pq, pc) = self.prefixes.back().expect("prefix seeded");
                self.prefixes
                    .push_back((pi, pf, pq, pc + i64::from(!row.get(*col).is_null())));
            }
            _ => {}
        }
        self.charge.enter(row.encoded_len());
        self.ring.push_back(row);
        self.received += 1;
        if self.range.is_some() {
            while self.range_ready() {
                self.emit_next(self.received, out)?;
            }
        } else {
            while self.next_emit + self.delay < self.received {
                self.emit_next(self.received, out)?;
            }
        }
        Ok(())
    }

    /// Pure-offset RANGE emission gate for row `next_emit`: the partition
    /// arrives key-sorted, so once the *latest* key passes the frame's end
    /// target the frame can no longer grow. A NULL-key row's frame is the
    /// NULL peer region, complete once a non-NULL key follows it (NULLs
    /// are contiguous under the sort); rows the gate never releases are
    /// flushed at partition end, when the length is exact.
    fn range_ready(&self) -> bool {
        let Some(r) = &self.range else { return false };
        if self.next_emit >= self.received {
            return false;
        }
        let (ki, inull) = r.keys[self.next_emit - r.kbase];
        let (kl, lnull) = r.keys[self.received - 1 - r.kbase];
        if inull {
            !lnull
        } else {
            // A NULL key in the tail sorts past every numeric target —
            // the same side rule the materialized binary search applies.
            lnull || kl > ki + r.end_delta as f64
        }
    }

    /// Resolve the pure-offset RANGE frame of row `i` — the same half-open
    /// range the materialized binary searches produce, computed with the
    /// monotone `fs`/`fe` sweeps (each pointer passes a row at most once:
    /// `O(n)` per partition). Uncharged, like the binary searches.
    fn range_frame(&mut self, i: usize, avail: usize) -> (usize, usize) {
        let r = self.range.as_mut().expect("range mode");
        let (ki, inull) = r.keys[i - r.kbase];
        if inull {
            let s = r.null_start.expect("null key was recorded");
            let e = r.null_end.unwrap_or(avail);
            return (s.min(avail), e.max(s).min(avail));
        }
        let ts = ki + r.start_delta as f64;
        let te = ki + r.end_delta as f64;
        // NULL keys before the current row count as "below any numeric
        // target" (the binary searches' `mid < i` side rule); ones at or
        // past it stop the sweep.
        while r.fs < self.received {
            let (k, knull) = r.keys[r.fs - r.kbase];
            if (knull && r.fs < i) || (!knull && k < ts) {
                r.fs += 1;
            } else {
                break;
            }
        }
        while r.fe < self.received {
            let (k, knull) = r.keys[r.fe - r.kbase];
            if (knull && r.fe < i) || (!knull && k <= te) {
                r.fe += 1;
            } else {
                break;
            }
        }
        let s = r.fs.min(avail);
        (s, r.fe.max(s).min(avail))
    }

    /// Evaluate and emit the next pending row. `avail` is the number of
    /// partition rows known so far — the exact partition length at
    /// partition end, and large enough mid-stream that the frame clamps
    /// cannot bite (lookahead guarantees every readable row has arrived).
    fn emit_next(&mut self, avail: usize, out: &mut wf_storage::SegmentBuilder) -> Result<()> {
        use WindowFunction::*;
        let i = self.next_emit;
        let mut row = self.ring[i - self.base].clone();
        match &self.func {
            RowNumber => row.push(Value::Int(i as i64 + 1)),
            Rank => row.push(Value::Int(self.rank)),
            DenseRank => row.push(Value::Int(self.dense)),
            Lag {
                col,
                offset,
                default,
            } => {
                let v = i
                    .checked_sub(*offset as usize)
                    .map(|j| self.ring[j - self.base].get(*col).clone())
                    .unwrap_or_else(|| default.clone().unwrap_or(Value::Null));
                row.push(v);
            }
            Lead {
                col,
                offset,
                default,
            } => {
                let j = i + *offset as usize;
                let v = if j < avail {
                    self.ring[j - self.base].get(*col).clone()
                } else {
                    default.clone().unwrap_or(Value::Null)
                };
                row.push(v);
            }
            _ => {
                // Frame readers: bounded-ROWS frames resolve exactly like
                // `frame_ranges`; pure-offset RANGE frames replay the
                // materialized binary searches via the monotone pointers.
                let (s, e) = if self.range.is_some() {
                    self.range_frame(i, avail)
                } else {
                    let s = rows_bound_start(self.frame.start, i, avail).min(avail);
                    let e = rows_bound_end(self.frame.end, i, avail).max(s).min(avail);
                    (s, e)
                };
                if let Sum(_) | Avg(_) = &self.func {
                    // Provisional value: prefix differences, resolved at
                    // partition end once the type class is known.
                    let (si, sf, _, sc) = self.prefix_diff(s, e);
                    row.push(Value::Int(sc));
                    row.push(Value::Int((si >> 64) as i64));
                    row.push(Value::Int(si as u64 as i64));
                    row.push(Value::Float(sf));
                    self.stage.as_mut().expect("sum/avg stage").push(row)?;
                    self.next_emit += 1;
                    self.evict();
                    return Ok(());
                }
                if let Min(col) | Max(col) = self.func {
                    row.push(self.slide_minmax(col, s, e));
                } else {
                    row.push(self.frame_value(s, e));
                }
            }
        }
        out.push(row)?;
        self.next_emit += 1;
        self.evict();
        Ok(())
    }

    /// Value of a direct-emission frame reader over `[s, e)`.
    fn frame_value(&self, s: usize, e: usize) -> Value {
        use WindowFunction::*;
        let at = |j: usize| &self.ring[j - self.base];
        match &self.func {
            FirstValue(col) => {
                if s < e {
                    at(s).get(*col).clone()
                } else {
                    Value::Null
                }
            }
            LastValue(col) => {
                if s < e {
                    at(e - 1).get(*col).clone()
                } else {
                    Value::Null
                }
            }
            NthValue(col, k) => {
                let idx = s + (*k).max(1) as usize - 1;
                if idx < e {
                    at(idx).get(*col).clone()
                } else {
                    Value::Null
                }
            }
            Count(None) => Value::Int((e - s) as i64),
            // Non-null count from the prefix deque: O(1), exact integers.
            Count(Some(_)) => Value::Int(self.prefix_diff(s, e).3),
            // Variance family: the materialized path's sum-of-squares
            // identity over the same f64 prefix lanes — identical
            // association order, so results match bit for bit.
            VarPop(_) | VarSamp(_) | StddevPop(_) | StddevSamp(_) => {
                let (_, sum, sq, cnt) = self.prefix_diff(s, e);
                let sample = matches!(self.func, VarSamp(_) | StddevSamp(_));
                let sqrt = matches!(self.func, StddevPop(_) | StddevSamp(_));
                let cnt = cnt as f64;
                let min_n = if sample { 2.0 } else { 1.0 };
                if cnt < min_n {
                    Value::Null
                } else {
                    let ssd = (sq - sum * sum / cnt).max(0.0);
                    let var = ssd / if sample { cnt - 1.0 } else { cnt };
                    Value::Float(if sqrt { var.sqrt() } else { var })
                }
            }
            other => unreachable!("{other:?} is not a ring frame reader"),
        }
    }

    /// Sliding min/max over `[s, e)` via the monotonic deque: each row is
    /// offered and evicted at most once across a partition (`O(n)` total).
    /// Popping only *strictly* worse back entries keeps the earliest of
    /// equal values, so the front is the frame's **leftmost** extremum —
    /// exactly the sparse table's tie rule. Actual comparisons here are
    /// not charged: the sparse table's deterministic build charge is
    /// mirrored at partition end.
    fn slide_minmax(&mut self, col: AttrId, s: usize, e: usize) -> Value {
        let want_min = matches!(self.func, WindowFunction::Min(_));
        // Evict entries the frame has slid past *first*: they may already
        // have aged out of the ring (`s ≥ base` holds, indices below `s`
        // need not), so they must never be dereferenced again.
        while self.minmax.front().is_some_and(|&f| f < s) {
            self.minmax.pop_front();
        }
        while self.next_add < e {
            let j = self.next_add;
            self.next_add += 1;
            let v = self.ring[j - self.base].get(col);
            if v.is_null() {
                continue;
            }
            while let Some(&b) = self.minmax.back() {
                let bv = self.ring[b - self.base].get(col);
                if (want_min && bv > v) || (!want_min && bv < v) {
                    self.minmax.pop_back();
                } else {
                    break;
                }
            }
            self.minmax.push_back(j);
        }
        // Entries offered this round may still precede `s` when the frame
        // sits ahead of the current row (e.g. both bounds FOLLOWING) —
        // pop them too before answering; index compares only, no deref.
        while self.minmax.front().is_some_and(|&f| f < s) {
            self.minmax.pop_front();
        }
        match self.minmax.front() {
            Some(&f) if f < e => self.ring[f - self.base].get(col).clone(),
            _ => Value::Null,
        }
    }

    /// `prefix[e] - prefix[s]` — the materialized prefix arrays' exact
    /// arithmetic, including float association order.
    fn prefix_diff(&self, s: usize, e: usize) -> (i128, f64, f64, i64) {
        let pe = self.prefixes[e - self.pbase];
        let ps = self.prefixes[s - self.pbase];
        (pe.0 - ps.0, pe.1 - ps.1, pe.2 - ps.2, pe.3 - ps.3)
    }

    /// Drop ring rows (and prefix/key entries) no upcoming frame can read.
    fn evict(&mut self) {
        let keep = match &self.range {
            // Pure-offset RANGE: retain everything the slower frame
            // pointer (or a not-yet-emitted row) may still read. `fe`
            // joins the floor so degenerate end-before-start frames never
            // outrun their own start pointer's reads.
            Some(r) => self.next_emit.min(r.fs).min(r.fe),
            None => self.next_emit.saturating_sub(self.hist),
        };
        while self.base < keep {
            if let Some(row) = self.ring.pop_front() {
                self.charge.leave(row.encoded_len());
            }
            self.base += 1;
        }
        while self.pbase < keep {
            self.prefixes.pop_front();
            self.pbase += 1;
        }
        if let Some(r) = &mut self.range {
            while r.kbase < keep {
                r.keys.pop_front();
                r.kbase += 1;
            }
        }
    }

    /// The partition ended: flush pending rows (the partition length is now
    /// exact), settle the min/max model charge, resolve staged sum/avg
    /// rows, and reset for the next partition.
    fn finish_partition(
        &mut self,
        env: &OpEnv,
        out: &mut wf_storage::SegmentBuilder,
    ) -> Result<()> {
        use WindowFunction::*;
        let n = self.received;
        while self.next_emit < n {
            self.emit_next(n, out)?;
        }
        if matches!(self.func, Min(_) | Max(_)) {
            // Mirror of the materialized sparse-table build: its comparison
            // charge is a deterministic function of the partition length,
            // so charging it here keeps modeled counters bit-identical
            // across the resident and spilled paths.
            let mut width = 1usize;
            let mut total = 0u64;
            while width * 2 <= n {
                total += (n - width * 2 + 1) as u64;
                width *= 2;
            }
            env.tracker.compare(total);
        }
        if let Some(stage) = self.stage.take() {
            // Sum/Avg: the partition-global type class is now known —
            // resolve the provisionally valued rows in order.
            let want_avg = matches!(self.func, Avg(_));
            let staged = stage.finish()?;
            let mut reader = staged.read();
            while let Some(staged_row) = reader.next_row()? {
                let mut vals = staged_row.into_values();
                let (
                    Some(Value::Float(sf)),
                    Some(Value::Int(lo)),
                    Some(Value::Int(hi)),
                    Some(Value::Int(cnt)),
                ) = (vals.pop(), vals.pop(), vals.pop(), vals.pop())
                else {
                    return Err(Error::Execution("sum/avg stage layout corrupted".into()));
                };
                let si = ((hi as i128) << 64) | (lo as u64 as i128);
                let v = if cnt == 0 {
                    Value::Null
                } else if want_avg {
                    if self.all_int {
                        Value::Float(si as f64 / cnt as f64)
                    } else {
                        Value::Float(sf / cnt as f64)
                    }
                } else if self.all_int {
                    Value::Int(si.clamp(i64::MIN as i128, i64::MAX as i128) as i64)
                } else {
                    Value::Float(sf)
                };
                let mut row = Row::new(vals);
                row.push(v);
                out.push(row)?;
            }
            self.stage = Some(env.store.builder());
        }
        while let Some(row) = self.ring.pop_front() {
            self.charge.leave(row.encoded_len());
        }
        self.base = 0;
        self.next_emit = 0;
        self.received = 0;
        self.rank = 0;
        self.dense = 0;
        self.prefixes.clear();
        self.prefixes.push_back((0, 0.0, 0.0, 0));
        self.pbase = 0;
        self.all_int = true;
        self.minmax.clear();
        self.next_add = 0;
        if let Some(r) = &mut self.range {
            r.keys.clear();
            r.kbase = 0;
            r.fs = 0;
            r.fe = 0;
            r.null_start = None;
            r.null_end = None;
        }
        Ok(())
    }
}

/// Evaluate `func` over a matched input: appends one column to every row and
/// preserves row order and segmentation. `frame` defaults per SQL when
/// `None`. The batch callers' wrapper over [`WindowOp`] — the group of one.
pub fn evaluate_window(
    input: SegmentedRows,
    wpk: &AttrSet,
    wok: &SortSpec,
    func: &WindowFunction,
    frame: Option<FrameSpec>,
    env: &OpEnv,
) -> Result<SegmentedRows> {
    let mut op = WindowOp::new(
        SegmentSource::new(input),
        wpk.clone(),
        wok.clone(),
        func.clone(),
        frame,
        env.clone(),
    );
    drain(&mut op)
}

/// Append `call`'s value for every row of the partition `part` to `out`.
/// `gs`/`ge` are the partition's peer bounds (per row, partition-relative;
/// empty unless [`Call::needs_peers`]) and `ranges` its resolved frames
/// (empty unless the call has a [`Call::ranges_slot`]).
#[allow(clippy::too_many_arguments)]
fn eval_values(
    part: &[Row],
    call: &Call,
    gs: &[usize],
    ge: &[usize],
    ranges: &[(usize, usize)],
    bufs: &mut FrameBufs,
    env: &OpEnv,
    out: &mut Vec<Value>,
) -> Result<()> {
    let n = part.len();
    match &call.func {
        WindowFunction::RowNumber => out.extend((1..=n as i64).map(Value::Int)),
        WindowFunction::Rank => out.extend(gs.iter().map(|&s| Value::Int(s as i64 + 1))),
        WindowFunction::DenseRank => {
            let mut dense = 0i64;
            let mut last = usize::MAX;
            for &s in gs {
                if s != last {
                    dense += 1;
                    last = s;
                }
                out.push(Value::Int(dense));
            }
        }
        WindowFunction::PercentRank => out.extend(gs.iter().map(|&s| {
            if n <= 1 {
                Value::Float(0.0)
            } else {
                Value::Float(s as f64 / (n - 1) as f64)
            }
        })),
        WindowFunction::CumeDist => {
            out.extend(ge.iter().map(|&e| Value::Float(e as f64 / n as f64)))
        }
        WindowFunction::Ntile(tiles) => {
            let t = (*tiles).max(1) as usize;
            let base = n / t;
            let extra = n % t;
            // Tiles past the `n`-th are empty (`base == 0`, `extra == n`).
            for tile in 0..t.min(n) {
                let size = base + usize::from(tile < extra);
                out.extend(std::iter::repeat_n(Value::Int(tile as i64 + 1), size));
            }
        }
        WindowFunction::Lag {
            col,
            offset,
            default,
        } => {
            let d = default.clone().unwrap_or(Value::Null);
            out.extend((0..n).map(|i| {
                i.checked_sub(*offset as usize)
                    .map_or_else(|| d.clone(), |j| part[j].get(*col).clone())
            }));
        }
        WindowFunction::Lead {
            col,
            offset,
            default,
        } => {
            let d = default.clone().unwrap_or(Value::Null);
            out.extend((0..n).map(|i| {
                part.get(i + *offset as usize)
                    .map_or_else(|| d.clone(), |r| r.get(*col).clone())
            }));
        }
        _ if call.is_running_default() => running_default_frame(part, &call.func, ge, env, out)?,
        _ => eval_framed(part, call, ranges, bufs, env, out)?,
    }
    Ok(())
}

/// Resolve the frame of each row of `part` as a half-open partition-relative
/// index range, appended to `out`. `gs`/`ge` are the partition's peer
/// bounds, read only by `RANGE` frames with a `CURRENT ROW` bound.
fn frame_ranges(
    part: &[Row],
    wok: &SortSpec,
    frame: &FrameSpec,
    gs: &[usize],
    ge: &[usize],
    out: &mut Vec<(usize, usize)>,
) -> Result<()> {
    // SQL: "frame offset must not be negative" — reject rather than clamp
    // (ROWS) or flip direction (RANGE).
    for b in [frame.start, frame.end] {
        if let Bound::Preceding(k) | Bound::Following(k) = b {
            if k < 0 {
                return Err(Error::InvalidQuery(
                    "frame offset must not be negative".into(),
                ));
            }
        }
    }
    let n = part.len();
    match frame.units {
        FrameUnits::Rows => out.extend((0..n).map(|i| {
            let s = rows_bound_start(frame.start, i, n);
            let e = rows_bound_end(frame.end, i, n);
            (s.min(n), e.max(s).min(n))
        })),
        FrameUnits::Range => {
            for i in 0..n {
                let s = match frame.start {
                    Bound::UnboundedPreceding => 0,
                    Bound::CurrentRow => gs[i],
                    Bound::Preceding(k) => range_offset_start(part, wok, i, -k)?,
                    Bound::Following(k) => range_offset_start(part, wok, i, k)?,
                    Bound::UnboundedFollowing => {
                        return Err(Error::InvalidQuery(
                            "frame start cannot be UNBOUNDED FOLLOWING".into(),
                        ))
                    }
                };
                let e = match frame.end {
                    Bound::UnboundedFollowing => n,
                    Bound::CurrentRow => ge[i],
                    Bound::Preceding(k) => range_offset_end(part, wok, i, -k)?,
                    Bound::Following(k) => range_offset_end(part, wok, i, k)?,
                    Bound::UnboundedPreceding => {
                        return Err(Error::InvalidQuery(
                            "frame end cannot be UNBOUNDED PRECEDING".into(),
                        ))
                    }
                };
                out.push((s.min(n), e.max(s).min(n)));
            }
        }
    }
    Ok(())
}

fn rows_bound_start(b: Bound, i: usize, n: usize) -> usize {
    match b {
        Bound::UnboundedPreceding => 0,
        Bound::Preceding(k) => i.saturating_sub(k.max(0) as usize),
        Bound::CurrentRow => i,
        Bound::Following(k) => (i + k.max(0) as usize).min(n),
        Bound::UnboundedFollowing => n,
    }
}

fn rows_bound_end(b: Bound, i: usize, n: usize) -> usize {
    match b {
        Bound::UnboundedPreceding => 0,
        Bound::Preceding(k) => (i + 1).saturating_sub(k.max(0) as usize),
        Bound::CurrentRow => i + 1,
        Bound::Following(k) => (i + 1 + k.max(0) as usize).min(n),
        Bound::UnboundedFollowing => n,
    }
}

/// RANGE with a numeric offset needs a single numeric ordering key.
fn range_key(part: &[Row], wok: &SortSpec, i: usize) -> Result<(f64, bool)> {
    range_key_row(wok, &part[i])
}

/// [`range_key`] over a single streamed row: the ascending-normalized
/// numeric key (or the NULL marker), with the materialized path's exact
/// validation and error messages.
fn range_key_row(wok: &SortSpec, row: &Row) -> Result<(f64, bool)> {
    if wok.len() != 1 {
        return Err(Error::InvalidQuery(
            "RANGE with offset requires exactly one ORDER BY key".into(),
        ));
    }
    let e = wok.elems()[0];
    let v = row.get(e.attr);
    if v.is_null() {
        return Ok((0.0, true));
    }
    let f = v.as_f64().ok_or_else(|| {
        Error::InvalidQuery("RANGE with offset requires a numeric ORDER BY key".into())
    })?;
    // Normalize to ascending space.
    Ok((
        if e.dir == wf_common::Direction::Desc {
            -f
        } else {
            f
        },
        false,
    ))
}

/// First index whose key ≥ key(i) + delta (ascending-normalized); NULLs form
/// their own peer region at whichever end the sort placed them.
fn range_offset_start(part: &[Row], wok: &SortSpec, i: usize, delta: i64) -> Result<usize> {
    let (ki, null) = range_key(part, wok, i)?;
    if null {
        // NULL frame = the NULL peer region.
        return null_region(part, wok, i).map(|(s, _)| s);
    }
    let target = ki + delta as f64;
    // Binary search over non-null ascending keys.
    let mut lo = 0usize;
    let mut hi = part.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        let (km, is_null) = range_key(part, wok, mid)?;
        if is_null {
            // NULLs sit at one end; decide side by comparing to i.
            if mid < i {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        } else if km < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// One past the last index whose key ≤ key(i) + delta.
fn range_offset_end(part: &[Row], wok: &SortSpec, i: usize, delta: i64) -> Result<usize> {
    let (ki, null) = range_key(part, wok, i)?;
    if null {
        return null_region(part, wok, i).map(|(_, e)| e);
    }
    let target = ki + delta as f64;
    let mut lo = 0usize;
    let mut hi = part.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        let (km, is_null) = range_key(part, wok, mid)?;
        if is_null {
            if mid < i {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        } else if km <= target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// The contiguous run of NULL-key rows containing `i`.
fn null_region(part: &[Row], wok: &SortSpec, i: usize) -> Result<(usize, usize)> {
    let attr = wok.elems()[0].attr;
    let mut s = i;
    while s > 0 && part[s - 1].get(attr).is_null() {
        s -= 1;
    }
    let mut e = i + 1;
    while e < part.len() && part[e].get(attr).is_null() {
        e += 1;
    }
    Ok((s, e))
}

/// Drive an incremental running aggregate over monotone (ROWS-frame) ranges
/// with two pointers: `update(state, row_index, add)` is called exactly once
/// per row entering (`add = true`) and leaving (`add = false`) the sliding
/// window, and `emit` sees the state once per frame — O(n) total instead of
/// O(n·frame) recomputation. Degenerate empty frames that jump past the
/// current window restart it.
fn sliding_rows_agg<S: Clone>(
    ranges: &[(usize, usize)],
    init: S,
    mut update: impl FnMut(&mut S, usize, bool),
    mut emit: impl FnMut(&S),
) {
    let mut lo = 0usize;
    let mut hi = 0usize;
    let mut state = init.clone();
    for &(s, e) in ranges {
        debug_assert!(s <= e);
        if s >= hi {
            // Disjoint jump: restart the window rather than draining
            // row-by-row through rows the frame never contained.
            lo = s;
            hi = s;
            state = init.clone();
        }
        while hi < e {
            update(&mut state, hi, true);
            hi += 1;
        }
        while lo < s {
            update(&mut state, lo, false);
            lo += 1;
        }
        emit(&state);
    }
}

/// Whether every non-null value of `col` over `part` is an integer (`Err`
/// for a non-numeric one): any float anywhere makes the whole partition
/// float-typed — the one classification rule of `sum`/`avg`, whatever the
/// frame.
fn all_int(part: &[Row], col: AttrId) -> Result<bool> {
    let mut all_int = true;
    for row in part {
        match row.get(col) {
            Value::Int(_) | Value::Null => {}
            Value::Float(_) => all_int = false,
            other => {
                return Err(Error::TypeMismatch {
                    expected: "numeric".into(),
                    found: other.type_name().into(),
                })
            }
        }
    }
    Ok(all_int)
}

/// The SQL-default frame `RANGE UNBOUNDED PRECEDING .. CURRENT ROW`
/// evaluated as a **running accumulator** (see [`Call::is_running_default`]):
/// every frame is `[0, peer_end)`, so one forward pass per partition answers
/// every row — no prefix arrays, no sparse table.
///
/// Outputs are bit-identical to the generic path: integer sums accumulate
/// exactly in `i128`; float sums add the same values in the same order the
/// prefix arrays do.
fn running_default_frame(
    part: &[Row],
    func: &WindowFunction,
    ge: &[usize],
    env: &OpEnv,
    out: &mut Vec<Value>,
) -> Result<()> {
    use WindowFunction::*;
    let mut consumed = 0usize;
    match func {
        Count(col) => {
            let mut cnt = 0i64;
            for &e in ge {
                while consumed < e {
                    cnt += match col {
                        None => 1,
                        Some(c) => i64::from(!part[consumed].get(*c).is_null()),
                    };
                    consumed += 1;
                }
                out.push(Value::Int(cnt));
            }
        }
        Sum(col) | Avg(col) => {
            let all_int = all_int(part, *col)?;
            let want_avg = matches!(func, Avg(_));
            let mut sum_i = 0i128;
            let mut sum_f = 0f64;
            let mut cnt = 0i64;
            for &e in ge {
                while consumed < e {
                    match part[consumed].get(*col) {
                        Value::Int(x) => {
                            sum_i += *x as i128;
                            sum_f += *x as f64;
                            cnt += 1;
                        }
                        Value::Float(x) => {
                            sum_f += *x;
                            cnt += 1;
                        }
                        _ => {}
                    }
                    consumed += 1;
                }
                out.push(if cnt == 0 {
                    Value::Null
                } else if want_avg {
                    if all_int {
                        Value::Float(sum_i as f64 / cnt as f64)
                    } else {
                        Value::Float(sum_f / cnt as f64)
                    }
                } else if all_int {
                    Value::Int(sum_i.clamp(i64::MIN as i128, i64::MAX as i128) as i64)
                } else {
                    Value::Float(sum_f)
                });
            }
        }
        Min(col) | Max(col) => {
            let want_min = matches!(func, Min(_));
            let mut cur: Option<&Value> = None;
            let mut compared = 0u64;
            for &e in ge {
                while consumed < e {
                    let v = part[consumed].get(*col);
                    if !v.is_null() {
                        match cur {
                            None => cur = Some(v),
                            Some(c) => {
                                compared += 1;
                                if (want_min && v < c) || (!want_min && v > c) {
                                    cur = Some(v);
                                }
                            }
                        }
                    }
                    consumed += 1;
                }
                out.push(cur.cloned().unwrap_or(Value::Null));
            }
            env.tracker.compare(compared);
        }
        other => unreachable!("{other:?} is not a running default-frame aggregate"),
    }
    Ok(())
}

/// Reusable buffers of the frame readers: prefix arrays (exact integer sum,
/// float sum, float sum of squares, non-null count) and the sparse table of
/// `min`/`max`. Cleared and refilled per partition, never reallocated.
#[derive(Default)]
struct FrameBufs {
    sum_i: Vec<i128>,
    sum_f: Vec<f64>,
    sum_sq: Vec<f64>,
    cnt: Vec<i64>,
    extrema: SparseExtrema,
}

/// Evaluate a frame reader over the partition's resolved frame `ranges`.
fn eval_framed(
    part: &[Row],
    call: &Call,
    ranges: &[(usize, usize)],
    bufs: &mut FrameBufs,
    env: &OpEnv,
    out: &mut Vec<Value>,
) -> Result<()> {
    let n = part.len();
    let rows_frame = call.frame.units == FrameUnits::Rows;
    let value_at = |col: AttrId, idx: usize, e: usize| {
        if idx < e {
            part[idx].get(col).clone()
        } else {
            Value::Null
        }
    };
    match &call.func {
        WindowFunction::FirstValue(col) => {
            out.extend(ranges.iter().map(|&(s, e)| value_at(*col, s, e)))
        }
        WindowFunction::LastValue(col) => out.extend(ranges.iter().map(|&(s, e)| {
            if s < e {
                part[e - 1].get(*col).clone()
            } else {
                Value::Null
            }
        })),
        WindowFunction::NthValue(col, k) => {
            let k = (*k).max(1) as usize;
            out.extend(ranges.iter().map(|&(s, e)| value_at(*col, s + k - 1, e)))
        }
        WindowFunction::Count(None) => {
            out.extend(ranges.iter().map(|&(s, e)| Value::Int((e - s) as i64)))
        }
        WindowFunction::Count(Some(col)) => {
            let qualifies = |i: usize| i64::from(!part[i].get(*col).is_null());
            if rows_frame {
                // Incremental two-pointer count: ROWS-frame bounds are
                // monotone in the row index, so the window slides — each
                // row is added and removed exactly once, O(n) total with no
                // prefix array.
                sliding_rows_agg(
                    ranges,
                    0i64,
                    |cnt, i, add| *cnt += if add { qualifies(i) } else { -qualifies(i) },
                    |&cnt| out.push(Value::Int(cnt)),
                );
            } else {
                // RANGE bounds come from peer groups / binary searches;
                // answer from prefix counts instead.
                let pref = &mut bufs.cnt;
                pref.clear();
                pref.push(0);
                for i in 0..n {
                    pref.push(pref[i] + qualifies(i));
                }
                out.extend(ranges.iter().map(|&(s, e)| Value::Int(pref[e] - pref[s])));
            }
        }
        WindowFunction::Sum(col) | WindowFunction::Avg(col) => {
            // Classify the column once: integer columns take the exact
            // paths; any float falls back to float prefix sums (below).
            let all_int = all_int(part, *col)?;
            let want_avg = matches!(call.func, WindowFunction::Avg(_));
            let finish = |sum: i128, cnt: i64| -> Value {
                if cnt == 0 {
                    Value::Null
                } else if want_avg {
                    Value::Float(sum as f64 / cnt as f64)
                } else {
                    // The i128 accumulator cannot overflow, but the i64
                    // result type can; saturate rather than wrap.
                    Value::Int(sum.clamp(i64::MIN as i128, i64::MAX as i128) as i64)
                }
            };
            if all_int && rows_frame {
                // Incremental two-pointer running aggregate with *exact*
                // integer accumulation (i128 — the frame-internal running
                // sum cannot overflow): each row enters and leaves the
                // running sum once, O(n) total and no f64 rounding on the
                // int path.
                sliding_rows_agg(
                    ranges,
                    (0i128, 0i64),
                    |(sum, cnt), i, add| {
                        if let Some(x) = part[i].get(*col).as_int() {
                            let sign: i64 = if add { 1 } else { -1 };
                            *sum += sign as i128 * x as i128;
                            *cnt += sign;
                        }
                    },
                    |&(sum, cnt)| out.push(finish(sum, cnt)),
                );
                return Ok(());
            }
            let pref_cnt = &mut bufs.cnt;
            pref_cnt.clear();
            pref_cnt.push(0);
            if all_int {
                // RANGE over an integer column: exact i128 prefix sums.
                let pref_sum = &mut bufs.sum_i;
                pref_sum.clear();
                pref_sum.push(0);
                for i in 0..n {
                    let (add, cnt) = match part[i].get(*col).as_int() {
                        Some(x) => (x as i128, 1),
                        None => (0, 0),
                    };
                    pref_sum.push(pref_sum[i] + add);
                    pref_cnt.push(pref_cnt[i] + cnt);
                }
                out.extend(
                    ranges.iter().map(|&(s, e)| {
                        finish(pref_sum[e] - pref_sum[s], pref_cnt[e] - pref_cnt[s])
                    }),
                );
                return Ok(());
            }
            // Numeric-safety fallback for floats: incremental add/remove
            // drifts under cancellation, so float frames are answered from
            // prefix sums (two reads per frame, no row revisits).
            let pref_sum = &mut bufs.sum_f;
            pref_sum.clear();
            pref_sum.push(0.0);
            for i in 0..n {
                let (add, cnt) = match part[i].get(*col) {
                    Value::Int(x) => (*x as f64, 1),
                    Value::Float(x) => (*x, 1),
                    _ => (0.0, 0),
                };
                pref_sum.push(pref_sum[i] + add);
                pref_cnt.push(pref_cnt[i] + cnt);
            }
            out.extend(ranges.iter().map(|&(s, e)| {
                let cnt = pref_cnt[e] - pref_cnt[s];
                if cnt == 0 {
                    return Value::Null;
                }
                let sum = pref_sum[e] - pref_sum[s];
                Value::Float(if want_avg { sum / cnt as f64 } else { sum })
            }));
        }
        WindowFunction::VarPop(col)
        | WindowFunction::VarSamp(col)
        | WindowFunction::StddevPop(col)
        | WindowFunction::StddevSamp(col) => {
            // Prefix sums of x and x² give every frame's variance in O(1).
            let FrameBufs {
                sum_f: pref_sum,
                sum_sq: pref_sq,
                cnt: pref_cnt,
                ..
            } = bufs;
            pref_sum.clear();
            pref_sum.push(0.0);
            pref_sq.clear();
            pref_sq.push(0.0);
            pref_cnt.clear();
            pref_cnt.push(0);
            for i in 0..n {
                let (x, cnt) = match part[i].get(*col) {
                    Value::Int(x) => (*x as f64, 1),
                    Value::Float(x) => (*x, 1),
                    Value::Null => (0.0, 0),
                    other => {
                        return Err(Error::TypeMismatch {
                            expected: "numeric".into(),
                            found: other.type_name().into(),
                        })
                    }
                };
                pref_sum.push(pref_sum[i] + x);
                pref_sq.push(pref_sq[i] + x * x);
                pref_cnt.push(pref_cnt[i] + cnt);
            }
            let sample = matches!(
                call.func,
                WindowFunction::VarSamp(_) | WindowFunction::StddevSamp(_)
            );
            let sqrt = matches!(
                call.func,
                WindowFunction::StddevPop(_) | WindowFunction::StddevSamp(_)
            );
            out.extend(ranges.iter().map(|&(s, e)| {
                let cnt = (pref_cnt[e] - pref_cnt[s]) as f64;
                let min_n = if sample { 2.0 } else { 1.0 };
                if cnt < min_n {
                    return Value::Null;
                }
                let sum = pref_sum[e] - pref_sum[s];
                let sq = pref_sq[e] - pref_sq[s];
                // Numerically clamped: catastrophic cancellation can
                // produce tiny negatives for constant frames.
                let ssd = (sq - sum * sum / cnt).max(0.0);
                let var = ssd / if sample { cnt - 1.0 } else { cnt };
                Value::Float(if sqrt { var.sqrt() } else { var })
            }));
        }
        WindowFunction::Min(col) | WindowFunction::Max(col) => {
            let want_min = matches!(call.func, WindowFunction::Min(_));
            let table = &mut bufs.extrema;
            table.build(part, *col, want_min, env);
            out.extend(ranges.iter().map(|&(s, e)| {
                table
                    .query(part, *col, want_min, s, e)
                    .map_or(Value::Null, |i| part[i].get(*col).clone())
            }));
        }
        other => {
            return Err(Error::Execution(format!(
                "{other:?} is not a framed function"
            )))
        }
    }
    Ok(())
}

/// Sparse table for O(1) min/max over arbitrary frames, skipping NULLs.
/// Entries are row indices — `levels[j][i]` is the position of the extremum
/// of `[i, i + 2^(j+1))`, level 0 (`[i, i + 1)`) being the identity — so a
/// build clones no value, and the level buffers are reused across
/// partitions.
#[derive(Default)]
struct SparseExtrema {
    levels: Vec<Vec<usize>>,
}

impl SparseExtrema {
    fn build(&mut self, part: &[Row], col: AttrId, want_min: bool, env: &OpEnv) {
        let n = part.len();
        let mut width = 1usize;
        let mut depth = 0usize;
        while width * 2 <= n {
            if self.levels.len() == depth {
                self.levels.push(Vec::new());
            }
            let (below, level) = self.levels.split_at_mut(depth);
            let level = &mut level[0];
            level.clear();
            let at = |i: usize| below.last().map_or(i, |prev| prev[i]);
            level.extend(
                (0..=n - width * 2).map(|i| Self::pick(part, col, want_min, at(i), at(i + width))),
            );
            env.tracker.compare(level.len() as u64);
            width *= 2;
            depth += 1;
        }
    }

    /// The position of the better of rows `a` and `b`, the earlier one on a
    /// tie; a NULL loses to anything (two NULLs yield a NULL position).
    fn pick(part: &[Row], col: AttrId, want_min: bool, a: usize, b: usize) -> usize {
        let (va, vb) = (part[a].get(col), part[b].get(col));
        let a_wins = vb.is_null() || (!va.is_null() && if want_min { va <= vb } else { va >= vb });
        if a_wins {
            a
        } else {
            b
        }
    }

    /// Position of the extremum of `[s, e)` (`None` for an empty frame; a
    /// position holding NULL for an all-NULL one).
    fn query(
        &self,
        part: &[Row],
        col: AttrId,
        want_min: bool,
        s: usize,
        e: usize,
    ) -> Option<usize> {
        if s >= e {
            return None;
        }
        let j = (usize::BITS - 1 - (e - s).leading_zeros()) as usize; // floor(log2)
        let at = |i: usize| if j == 0 { i } else { self.levels[j - 1][i] };
        Some(Self::pick(part, col, want_min, at(s), at(e - (1 << j))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::{row, OrdElem};

    fn a(i: usize) -> AttrId {
        AttrId::new(i)
    }
    fn aset(ids: &[usize]) -> AttrSet {
        AttrSet::from_iter(ids.iter().map(|&i| a(i)))
    }
    fn spec(ids: &[usize]) -> SortSpec {
        SortSpec::new(ids.iter().map(|&i| OrdElem::asc(a(i))).collect())
    }

    fn run(
        rows: Vec<Row>,
        wpk: &[usize],
        wok: &SortSpec,
        func: WindowFunction,
        frame: Option<FrameSpec>,
    ) -> Vec<Value> {
        let env = OpEnv::with_memory_blocks(64);
        let out = evaluate_window(
            SegmentedRows::single_segment(rows),
            &aset(wpk),
            wok,
            &func,
            frame,
            &env,
        )
        .unwrap();
        let last = out.rows()[0].arity() - 1;
        out.rows().iter().map(|r| r.get(a(last)).clone()).collect()
    }

    /// The paper's Example 1: rank over salary desc nulls last, global.
    #[test]
    fn example1_globalrank() {
        // (empnum, salary); sorted by salary desc nulls last already.
        let rows = vec![
            row![1, 84000],
            row![6, 79000],
            row![4, 78000],
            row![5, 75000],
            row![10, 75000],
            row![8, 55000],
            row![9, 53000],
            row![7, 51000],
            row![3, Value::Null],
            row![2, Value::Null],
        ];
        let wok = SortSpec::new(vec![OrdElem::desc(a(1))]);
        let vals = run(rows, &[], &wok, WindowFunction::Rank, None);
        let got: Vec<i64> = vals.iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 4, 6, 7, 8, 9, 9]);
    }

    #[test]
    fn rank_within_partitions() {
        // (dept, salary) grouped by dept, each sorted desc.
        let rows = vec![
            row![1, 78000],
            row![1, 75000],
            row![1, 53000],
            row![2, 51000],
            row![2, Value::Null],
        ];
        let wok = SortSpec::new(vec![OrdElem::desc(a(1))]);
        let vals = run(rows, &[0], &wok, WindowFunction::Rank, None);
        let got: Vec<i64> = vals.iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3, 1, 2]);
    }

    #[test]
    fn row_number_and_dense_rank() {
        let rows = vec![row![1, 5], row![1, 5], row![1, 7], row![2, 1]];
        let wok = spec(&[1]);
        let rn: Vec<i64> = run(rows.clone(), &[0], &wok, WindowFunction::RowNumber, None)
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(rn, vec![1, 2, 3, 1]);
        let dr: Vec<i64> = run(rows, &[0], &wok, WindowFunction::DenseRank, None)
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(dr, vec![1, 1, 2, 1]);
    }

    #[test]
    fn percent_rank_and_cume_dist() {
        let rows = vec![row![10], row![20], row![20], row![30]];
        let wok = spec(&[0]);
        let pr: Vec<f64> = run(rows.clone(), &[], &wok, WindowFunction::PercentRank, None)
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(pr, vec![0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0]);
        let cd: Vec<f64> = run(rows, &[], &wok, WindowFunction::CumeDist, None)
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(cd, vec![0.25, 0.75, 0.75, 1.0]);
    }

    #[test]
    fn ntile_spreads_remainder() {
        let rows: Vec<Row> = (0..7).map(|i| row![i as i64]).collect();
        let tiles: Vec<i64> = run(rows, &[], &spec(&[0]), WindowFunction::Ntile(3), None)
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(tiles, vec![1, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn lag_lead_with_defaults() {
        let rows: Vec<Row> = (1..=4).map(|i| row![i as i64]).collect();
        let lag = run(
            rows.clone(),
            &[],
            &spec(&[0]),
            WindowFunction::Lag {
                col: a(0),
                offset: 1,
                default: Some(Value::Int(-1)),
            },
            None,
        );
        assert_eq!(
            lag,
            vec![Value::Int(-1), Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        let lead = run(
            rows,
            &[],
            &spec(&[0]),
            WindowFunction::Lead {
                col: a(0),
                offset: 2,
                default: None,
            },
            None,
        );
        assert_eq!(
            lead,
            vec![Value::Int(3), Value::Int(4), Value::Null, Value::Null]
        );
    }

    #[test]
    fn running_sum_default_frame_respects_peers() {
        // Default RANGE frame: peers included in the running sum.
        let rows = vec![row![1, 10], row![1, 20], row![2, 5]];
        let wok = spec(&[0]);
        let sums = run(rows, &[], &wok, WindowFunction::Sum(a(1)), None);
        // Rows 1 and 2 are peers on key=1 → both see 30.
        assert_eq!(sums, vec![Value::Int(30), Value::Int(30), Value::Int(35)]);
    }

    #[test]
    fn rows_frame_moving_average() {
        let rows: Vec<Row> = [1, 2, 3, 4, 5].iter().map(|&i| row![i as i64]).collect();
        let frame = FrameSpec {
            units: FrameUnits::Rows,
            start: Bound::Preceding(1),
            end: Bound::CurrentRow,
        };
        let avgs: Vec<f64> = run(
            rows,
            &[],
            &spec(&[0]),
            WindowFunction::Avg(a(0)),
            Some(frame),
        )
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
        assert_eq!(avgs, vec![1.0, 1.5, 2.5, 3.5, 4.5]);
    }

    #[test]
    fn rows_frame_centered_window_count() {
        let rows: Vec<Row> = (0..5).map(|i| row![i as i64]).collect();
        let frame = FrameSpec {
            units: FrameUnits::Rows,
            start: Bound::Preceding(1),
            end: Bound::Following(1),
        };
        let counts: Vec<i64> = run(
            rows,
            &[],
            &spec(&[0]),
            WindowFunction::Count(None),
            Some(frame),
        )
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
        assert_eq!(counts, vec![2, 3, 3, 3, 2]);
    }

    #[test]
    fn range_numeric_offset_frame() {
        // Keys 1,2,4,7: RANGE BETWEEN 2 PRECEDING AND CURRENT ROW.
        let rows = vec![row![1], row![2], row![4], row![7]];
        let frame = FrameSpec {
            units: FrameUnits::Range,
            start: Bound::Preceding(2),
            end: Bound::CurrentRow,
        };
        let counts: Vec<i64> = run(
            rows,
            &[],
            &spec(&[0]),
            WindowFunction::Count(None),
            Some(frame),
        )
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
        assert_eq!(counts, vec![1, 2, 2, 1]);
    }

    #[test]
    fn min_max_over_frames_with_nulls() {
        let rows = vec![row![Value::Null], row![3], row![1], row![2]];
        let frame = FrameSpec {
            units: FrameUnits::Rows,
            start: Bound::UnboundedPreceding,
            end: Bound::CurrentRow,
        };
        // Input deliberately unordered on the value column; ROWS frames.
        let mins = run(
            rows.clone(),
            &[],
            &SortSpec::empty(),
            WindowFunction::Min(a(0)),
            Some(frame),
        );
        assert_eq!(
            mins,
            vec![Value::Null, Value::Int(3), Value::Int(1), Value::Int(1)]
        );
        let maxs = run(
            rows,
            &[],
            &SortSpec::empty(),
            WindowFunction::Max(a(0)),
            Some(frame),
        );
        assert_eq!(
            maxs,
            vec![Value::Null, Value::Int(3), Value::Int(3), Value::Int(3)]
        );
    }

    #[test]
    fn first_last_nth_value() {
        let rows = vec![row![10], row![20], row![30]];
        let whole = FrameSpec::whole_partition();
        assert_eq!(
            run(
                rows.clone(),
                &[],
                &spec(&[0]),
                WindowFunction::FirstValue(a(0)),
                Some(whole)
            ),
            vec![Value::Int(10); 3]
        );
        assert_eq!(
            run(
                rows.clone(),
                &[],
                &spec(&[0]),
                WindowFunction::LastValue(a(0)),
                Some(whole)
            ),
            vec![Value::Int(30); 3]
        );
        assert_eq!(
            run(
                rows.clone(),
                &[],
                &spec(&[0]),
                WindowFunction::NthValue(a(0), 2),
                Some(whole)
            ),
            vec![Value::Int(20); 3]
        );
        assert_eq!(
            run(
                rows,
                &[],
                &spec(&[0]),
                WindowFunction::NthValue(a(0), 9),
                Some(whole)
            ),
            vec![Value::Null; 3]
        );
    }

    #[test]
    fn sum_skips_nulls_and_empty_frame_is_null() {
        let rows = vec![row![Value::Null], row![Value::Null]];
        let sums = run(rows, &[], &spec(&[0]), WindowFunction::Sum(a(0)), None);
        assert_eq!(sums, vec![Value::Null, Value::Null]);
    }

    #[test]
    fn segment_boundary_forces_partition_break() {
        // Same WPK value in two different segments must be two partitions
        // (segments are disjoint on X ⊆ WPK, so this cannot happen for valid
        // inputs, but the operator must not rely on it).
        let env = OpEnv::with_memory_blocks(8);
        let segs = SegmentedRows::from_parts(vec![row![1, 1], row![1, 2]], vec![0, 1]);
        let out = evaluate_window(
            segs,
            &aset(&[0]),
            &spec(&[1]),
            &WindowFunction::RowNumber,
            None,
            &env,
        )
        .unwrap();
        let rn: Vec<i64> = out
            .rows()
            .iter()
            .map(|r| r.get(a(2)).as_int().unwrap())
            .collect();
        assert_eq!(rn, vec![1, 1]);
    }

    #[test]
    fn empty_input_ok() {
        let env = OpEnv::with_memory_blocks(8);
        let out = evaluate_window(
            SegmentedRows::empty(),
            &aset(&[0]),
            &spec(&[1]),
            &WindowFunction::Rank,
            None,
            &env,
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn variance_and_stddev() {
        let rows = vec![
            row![2],
            row![4],
            row![4],
            row![4],
            row![5],
            row![5],
            row![7],
            row![9],
        ];
        let whole = FrameSpec::whole_partition();
        let vp = run(
            rows.clone(),
            &[],
            &SortSpec::empty(),
            WindowFunction::VarPop(a(0)),
            Some(whole),
        );
        assert_eq!(vp[0], Value::Float(4.0));
        let sp = run(
            rows.clone(),
            &[],
            &SortSpec::empty(),
            WindowFunction::StddevPop(a(0)),
            Some(whole),
        );
        assert_eq!(sp[0], Value::Float(2.0));
        let vs = run(
            rows.clone(),
            &[],
            &SortSpec::empty(),
            WindowFunction::VarSamp(a(0)),
            Some(whole),
        );
        let v = vs[0].as_f64().unwrap();
        assert!((v - 32.0 / 7.0).abs() < 1e-12);
        // Sample variance of a single row is NULL.
        let single = run(
            vec![row![3]],
            &[],
            &SortSpec::empty(),
            WindowFunction::VarSamp(a(0)),
            Some(whole),
        );
        assert_eq!(single, vec![Value::Null]);
        // Population variance of a constant frame is exactly zero.
        let consts = run(
            vec![row![5], row![5], row![5]],
            &[],
            &SortSpec::empty(),
            WindowFunction::VarPop(a(0)),
            Some(whole),
        );
        assert!(consts.iter().all(|v| v == &Value::Float(0.0)));
    }

    #[test]
    fn variance_skips_nulls() {
        let rows = vec![row![Value::Null], row![2], row![4]];
        let whole = FrameSpec::whole_partition();
        let vp = run(
            rows,
            &[],
            &SortSpec::empty(),
            WindowFunction::VarPop(a(0)),
            Some(whole),
        );
        assert_eq!(vp[0], Value::Float(1.0));
    }

    #[test]
    fn sliding_stddev_over_rows_frame() {
        let rows: Vec<Row> = [1i64, 2, 3, 4].iter().map(|&v| row![v]).collect();
        let frame = FrameSpec {
            units: FrameUnits::Rows,
            start: Bound::Preceding(1),
            end: Bound::CurrentRow,
        };
        let sd = run(
            rows,
            &[],
            &spec(&[0]),
            WindowFunction::StddevPop(a(0)),
            Some(frame),
        );
        assert_eq!(sd[0], Value::Float(0.0));
        assert_eq!(sd[1], Value::Float(0.5));
        assert_eq!(sd[2], Value::Float(0.5));
    }

    #[test]
    fn range_offset_with_descending_key() {
        // Keys 9,7,4,1 descending; RANGE BETWEEN 2 PRECEDING AND CURRENT
        // ROW counts rows whose key is within 2 *above* the current one.
        let rows = vec![row![9], row![7], row![4], row![1]];
        let wok = SortSpec::new(vec![OrdElem::desc(a(0))]);
        let frame = FrameSpec {
            units: FrameUnits::Range,
            start: Bound::Preceding(2),
            end: Bound::CurrentRow,
        };
        let counts: Vec<i64> = run(rows, &[], &wok, WindowFunction::Count(None), Some(frame))
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(counts, vec![1, 2, 1, 1]);
    }

    #[test]
    fn range_offset_null_rows_form_their_own_frame() {
        // NULLS LAST ascending: the two NULL rows see only each other.
        let rows = vec![row![1], row![2], row![Value::Null], row![Value::Null]];
        let frame = FrameSpec {
            units: FrameUnits::Range,
            start: Bound::Preceding(10),
            end: Bound::CurrentRow,
        };
        let counts: Vec<i64> = run(
            rows,
            &[],
            &spec(&[0]),
            WindowFunction::Count(None),
            Some(frame),
        )
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
        assert_eq!(counts, vec![1, 2, 2, 2]);
    }

    #[test]
    fn range_offset_requires_single_numeric_key() {
        let rows = vec![row![1, 2], row![2, 3]];
        let frame = FrameSpec {
            units: FrameUnits::Range,
            start: Bound::Preceding(1),
            end: Bound::CurrentRow,
        };
        let env = OpEnv::with_memory_blocks(8);
        // Two ORDER BY keys → error.
        let r = evaluate_window(
            SegmentedRows::single_segment(rows.clone()),
            &aset(&[]),
            &spec(&[0, 1]),
            &WindowFunction::Sum(a(0)),
            Some(frame),
            &env,
        );
        assert!(r.is_err());
        // String key → error.
        let srows = vec![row!["x"], row!["y"]];
        let r2 = evaluate_window(
            SegmentedRows::single_segment(srows),
            &aset(&[]),
            &spec(&[0]),
            &WindowFunction::Sum(a(0)),
            Some(frame),
            &env,
        );
        assert!(r2.is_err());
    }

    #[test]
    fn ntile_more_tiles_than_rows() {
        let rows: Vec<Row> = (0..3).map(|i| row![i as i64]).collect();
        let tiles: Vec<i64> = run(rows, &[], &spec(&[0]), WindowFunction::Ntile(10), None)
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(tiles, vec![1, 2, 3]);
    }

    #[test]
    fn empty_rows_frame_yields_null_aggregates() {
        // ROWS BETWEEN 3 FOLLOWING AND 2 FOLLOWING is empty for every row.
        let rows: Vec<Row> = (0..4).map(|i| row![i as i64]).collect();
        let frame = FrameSpec {
            units: FrameUnits::Rows,
            start: Bound::Following(3),
            end: Bound::Following(2),
        };
        let sums = run(
            rows,
            &[],
            &spec(&[0]),
            WindowFunction::Sum(a(0)),
            Some(frame),
        );
        assert!(sums.iter().all(|v| v.is_null()));
    }

    /// The running-accumulator fast path for the SQL-default frame must
    /// match a brute-force per-row aggregation over `[0, peer_end)` —
    /// including the i64 clamp on huge integer sums, NULL skipping, float
    /// partitions and value-function tie handling. This is the pin against
    /// the generic prefix-array policy drifting from the fast path.
    #[test]
    fn running_default_frame_matches_brute_force() {
        // (key, value): peers on key; values mix ints (incl. near-overflow),
        // floats and NULLs across separate partitions per type class.
        let int_rows = vec![
            row![1, 5],
            row![1, Value::Null],
            row![2, i64::MAX - 1],
            row![2, i64::MAX - 2],
            row![3, -7],
        ];
        let float_rows = vec![
            row![1, 0.25],
            row![1, -0.25],
            row![2, Value::Null],
            row![2, 3.5],
            row![3, 0.125],
        ];
        let wok = spec(&[0]);
        let cmp = RowComparator::new(&wok);
        let peer_end = |rows: &[Row], i: usize| {
            let mut e = i + 1;
            while e < rows.len() && cmp.equal(&rows[e - 1], &rows[e]) {
                e += 1;
            }
            let mut s = i;
            while s > 0 && cmp.equal(&rows[s - 1], &rows[s]) {
                s -= 1;
            }
            let mut e2 = s + 1;
            while e2 < rows.len() && cmp.equal(&rows[e2 - 1], &rows[e2]) {
                e2 += 1;
            }
            e.max(e2)
        };
        for rows in [int_rows, float_rows] {
            // Brute force: aggregate part[0..peer_end) per row.
            let frame_vals = |i: usize| -> Vec<&Value> {
                (0..peer_end(&rows, i))
                    .map(|j| rows[j].get(a(1)))
                    .filter(|v| !v.is_null())
                    .collect()
            };
            let expect_sum: Vec<Value> = (0..rows.len())
                .map(|i| {
                    let vals = frame_vals(i);
                    if vals.is_empty() {
                        return Value::Null;
                    }
                    if vals.iter().all(|v| v.as_int().is_some()) {
                        let s: i128 = vals.iter().map(|v| v.as_int().unwrap() as i128).sum();
                        Value::Int(s.clamp(i64::MIN as i128, i64::MAX as i128) as i64)
                    } else {
                        Value::Float(vals.iter().map(|v| v.as_f64().unwrap()).sum())
                    }
                })
                .collect();
            let got_sum = run(rows.clone(), &[], &wok, WindowFunction::Sum(a(1)), None);
            assert_eq!(got_sum, expect_sum, "sum over {rows:?}");

            let expect_cnt: Vec<Value> = (0..rows.len())
                .map(|i| Value::Int(frame_vals(i).len() as i64))
                .collect();
            let got_cnt = run(
                rows.clone(),
                &[],
                &wok,
                WindowFunction::Count(Some(a(1))),
                None,
            );
            assert_eq!(got_cnt, expect_cnt, "count over {rows:?}");

            let expect_min: Vec<Value> = (0..rows.len())
                .map(|i| {
                    frame_vals(i)
                        .into_iter()
                        .min()
                        .cloned()
                        .unwrap_or(Value::Null)
                })
                .collect();
            let got_min = run(rows.clone(), &[], &wok, WindowFunction::Min(a(1)), None);
            assert_eq!(got_min, expect_min, "min over {rows:?}");

            let expect_max: Vec<Value> = (0..rows.len())
                .map(|i| {
                    frame_vals(i)
                        .into_iter()
                        .max()
                        .cloned()
                        .unwrap_or(Value::Null)
                })
                .collect();
            let got_max = run(rows.clone(), &[], &wok, WindowFunction::Max(a(1)), None);
            assert_eq!(got_max, expect_max, "max over {rows:?}");
        }
    }

    /// The fast path clamps an overflowing running integer sum exactly like
    /// the generic path: saturate at the i64 boundary, never wrap.
    #[test]
    fn running_default_frame_sum_saturates() {
        let rows = vec![row![1, i64::MAX], row![2, i64::MAX], row![3, 1]];
        let sums = run(rows, &[], &spec(&[0]), WindowFunction::Sum(a(1)), None);
        assert_eq!(sums[1], Value::Int(i64::MAX));
        assert_eq!(sums[2], Value::Int(i64::MAX));
    }

    /// The dispatch table: which (function, frame) pairs stream one-pass,
    /// which ring-buffer, and which fall back to buffering a partition.
    #[test]
    fn streamable_eval_classification() {
        use StreamableEval::*;
        let default = FrameSpec::default_for(true);
        let whole = FrameSpec::whole_partition();
        let sliding = FrameSpec {
            units: FrameUnits::Rows,
            start: Bound::Preceding(2),
            end: Bound::CurrentRow,
        };
        let rows_unbounded = FrameSpec {
            units: FrameUnits::Rows,
            start: Bound::UnboundedPreceding,
            end: Bound::CurrentRow,
        };
        let range_offset = FrameSpec {
            units: FrameUnits::Range,
            start: Bound::Preceding(2),
            end: Bound::CurrentRow,
        };
        let range_window = FrameSpec {
            units: FrameUnits::Range,
            start: Bound::Preceding(2),
            end: Bound::Following(2),
        };
        let cases = [
            // SQL-default-frame aggregates: the Shi & Wang one-pass.
            (WindowFunction::Sum(AttrId::new(0)), default, OnePass),
            (WindowFunction::Count(None), default, OnePass),
            // ntile stages one pass through the store.
            (WindowFunction::Ntile(4), default, OnePass),
            // Ranking and navigation stream with ring/rank state.
            (WindowFunction::RowNumber, default, Ring),
            (WindowFunction::Rank, default, Ring),
            (WindowFunction::DenseRank, whole, Ring),
            (
                WindowFunction::Lag {
                    col: AttrId::new(0),
                    offset: 3,
                    default: None,
                },
                default,
                Ring,
            ),
            // Bounded-ROWS frame readers ring; other frames buffer.
            (WindowFunction::Sum(AttrId::new(0)), sliding, Ring),
            (WindowFunction::Min(AttrId::new(0)), sliding, Ring),
            (WindowFunction::FirstValue(AttrId::new(0)), sliding, Ring),
            (WindowFunction::NthValue(AttrId::new(0), 2), sliding, Ring),
            (
                WindowFunction::Sum(AttrId::new(0)),
                rows_unbounded,
                Buffered,
            ),
            // A CURRENT ROW bound makes the RANGE frame peer-anchored:
            // that still buffers. Pure-offset RANGE rings for the sliding
            // aggregates, but not for positional readers or variance.
            (WindowFunction::Sum(AttrId::new(0)), range_offset, Buffered),
            (WindowFunction::Sum(AttrId::new(0)), range_window, Ring),
            (WindowFunction::Min(AttrId::new(0)), range_window, Ring),
            (WindowFunction::Count(None), range_window, Ring),
            (
                WindowFunction::FirstValue(AttrId::new(0)),
                range_window,
                Buffered,
            ),
            (
                WindowFunction::VarPop(AttrId::new(0)),
                range_window,
                Buffered,
            ),
            (WindowFunction::LastValue(AttrId::new(0)), whole, Buffered),
            // Distribution functions stage one pass through the store
            // (staged replay: partition cardinality first); the variance
            // family rings over bounded ROWS frames like sum/avg.
            (WindowFunction::PercentRank, default, OnePass),
            (WindowFunction::CumeDist, default, OnePass),
            (WindowFunction::PercentRank, whole, OnePass),
            (WindowFunction::VarPop(AttrId::new(0)), sliding, Ring),
            (WindowFunction::StddevSamp(AttrId::new(0)), sliding, Ring),
            (
                WindowFunction::VarSamp(AttrId::new(0)),
                rows_unbounded,
                Buffered,
            ),
        ];
        for (func, frame, expect) in cases {
            assert_eq!(
                StreamableEval::classify(&func, &frame),
                expect,
                "{func:?} over {frame:?}"
            );
        }
        // Mixed-call chains are governed by the weakest member.
        assert_eq!(StreamableEval::weakest([OnePass, Ring, Buffered]), Buffered);
        assert_eq!(StreamableEval::weakest([OnePass, Ring]), Ring);
        assert_eq!(StreamableEval::weakest([]), OnePass);
    }

    #[test]
    fn result_type_mapping() {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Float)]);
        assert_eq!(WindowFunction::Rank.result_type(&schema), DataType::Int);
        assert_eq!(
            WindowFunction::Avg(a(1)).result_type(&schema),
            DataType::Float
        );
        assert_eq!(
            WindowFunction::Min(a(1)).result_type(&schema),
            DataType::Float
        );
        assert_eq!(
            WindowFunction::CumeDist.result_type(&schema),
            DataType::Float
        );
        assert_eq!(
            WindowFunction::Lag {
                col: a(0),
                offset: 1,
                default: None
            }
            .result_type(&schema),
            DataType::Int
        );
    }
}
