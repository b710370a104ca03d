//! The window-function operator: sequentially scans a matched (reordered)
//! input and appends one derived column per window call (paper §1's
//! evaluation model). One operator evaluates a whole **window group** —
//! every call sharing a `(WPK, WOK)` — in one pass per resident segment;
//! see [`WindowOp`]. Whether a segment is resident or spilled is the
//! segment store's decision alone: the operator reads what it is handed
//! and hands its output back to the store.
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
//! **One evaluator core.** Every function family — ranking (`row_number`,
//! `rank`, `dense_rank`), offset (`lag`, `lead`), staged (`ntile`,
//! `percent_rank`, `cume_dist` and the SQL-default-frame `count`/`sum`/
//! `avg`/`min`/`max`, whose values only the partition's end settles) and
//! framed (`first_value`/`last_value`/`nth_value`, `count`, `sum`, `avg`,
//! `min`, `max`, variance/stddev over ROWS and RANGE frames) — is written
//! once, in `window/eval.rs`, against a *partition cursor*: the rows of the
//! open partition that can still be read, its length once known, its peer
//! groups, the frame of a row, and a sink for one value per row. Two things
//! implement the cursor. A **resident** segment is evaluated through a
//! borrowed slice: everything has arrived, nothing is charged, and each
//! call values a whole partition in one loop into a reused column buffer.
//! A **spilled** segment (Shi & Wang, arXiv:2007.10385) is *streamed*,
//! never materialized, through `window/stream.rs`: one walker splits
//! partitions and peer groups off the row stream and feeds the same
//! evaluators row by row, holding of the open partition what the call's
//! [`StreamableEval`] class allows:
//!
//! * **one-pass** (`O(M)`) — the staged family: each row is read once as it
//!   arrives and staged through the store (the stage spills past the pool
//!   budget); the values follow at partition end and meet their rows on a
//!   replay of the stage;
//! * **ring-buffer** (`O(M + frame)`) — ranking, offset and the frame
//!   readers over bounded ROWS frames or pure-offset RANGE frames: a ring,
//!   charged row by row, of the rows a frame or offset can still reach
//!   (`sum`/`avg` first stage the partition once to learn whether it holds
//!   a float, then replay it through the ring);
//! * **buffered** (`O(M + partition)`) — everything else holds **one
//!   partition at a time**, registered with the store's residency ledger
//!   (the `largest unit` term of the bound), and evaluates it as the
//!   resident slice it then is.
//!
//! Residency is thus a property of the cursor's buffer, not a second set of
//! evaluators: rows and modeled counters of the two cursors agree because
//! the same code computes them, and the oversized-partition suite checks
//! both against independent brute-force references.
//!
//! The resident driver nevertheless stays columnar and partition-major
//! rather than running everything through the stream: sending resident
//! segments down the row-at-a-time stream was measured at 50.4 → 315.2 ms
//! on the benchmark's `window_fanout` statement (`stmt_p25_ms`, 24 calls
//! over ≈ 14 300 partitions of under two rows) and 76.1 → 97.0 ms on
//! `inmem_chain` — the cost of a per-row driver (ring, store builder, one
//! pass per call), not of any function's arithmetic.

mod eval;
mod stream;

use crate::env::OpEnv;
use crate::operator::{drain, Operator, Segment, SegmentSource};
use crate::segment::{SegmentBounds, SegmentedRows};
use eval::{Cursor, Evaluator, FrameResolver, Rows};
use std::ops::Range;
use wf_common::{AttrId, AttrSet, DataType, Result, Row, RowComparator, Schema, SortSpec, Value};

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

    /// The input column the function reads (`None` for ranking functions
    /// and `count(*)`).
    pub fn column(&self) -> Option<AttrId> {
        use WindowFunction::*;
        match self {
            RowNumber | Rank | DenseRank | PercentRank | CumeDist | Ntile(_) | Count(None) => None,
            Lag { col, .. } | Lead { col, .. } | NthValue(col, _) => Some(*col),
            FirstValue(col) | LastValue(col) | Count(Some(col)) | Sum(col) | Avg(col)
            | Min(col) | Max(col) | VarPop(col) | VarSamp(col) | StddevPop(col)
            | StddevSamp(col) => Some(*col),
        }
    }

    /// The same function reading `map(col)` for its input column — the
    /// function rebound over a narrowed schema.
    pub fn map_column(&self, map: impl Fn(AttrId) -> AttrId) -> WindowFunction {
        use WindowFunction::*;
        let mut f = self.clone();
        match &mut f {
            RowNumber | Rank | DenseRank | PercentRank | CumeDist | Ntile(_) | Count(None) => {}
            Lag { col, .. } | Lead { col, .. } | NthValue(col, _) => *col = map(*col),
            FirstValue(col) | LastValue(col) | Count(Some(col)) | Sum(col) | Avg(col)
            | Min(col) | Max(col) | VarPop(col) | VarSamp(col) | StddevPop(col)
            | StddevSamp(col) => *col = map(*col),
        }
        f
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

/// How much of a **spilled** partition the window operator holds while it
/// evaluates one window call — what the stream's buffer behind the partition
/// cursor is. A resident segment is evaluated through a slice, which holds
/// everything and charges nothing; this class only governs segments the
/// store spilled, where it decides the tracked residency of the evaluation:
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
    /// Slot of this call's frame in [`Scratch::frames`] — one slot per
    /// *distinct* frame of the group, so calls sharing a frame share its
    /// resolution. `None` for calls that never resolve frames: frame-less
    /// functions and the running default-frame aggregates.
    frame_slot: Option<usize>,
    /// Whether evaluating this call resolves the partition's peer groups:
    /// the ranking/distribution functions always, frame readers when a
    /// `RANGE` bound is `CURRENT ROW` (the SQL-default frame included).
    needs_peers: bool,
}

impl Call {
    /// The call `func` over `frame`, its frame filed among the group's
    /// distinct `frames` when it resolves any.
    fn new(func: WindowFunction, frame: FrameSpec, frames: &mut Vec<FrameSpec>) -> Call {
        use WindowFunction::*;
        let needs_peers = match func {
            Rank | DenseRank | PercentRank | CumeDist => true,
            RowNumber | Ntile(_) | Lag { .. } | Lead { .. } => false,
            _ => {
                frame.units == FrameUnits::Range
                    && (frame.start == Bound::CurrentRow || frame.end == Bound::CurrentRow)
            }
        };
        // SQL-default-frame `count`/`sum`/`avg`/`min`/`max` run a running
        // accumulator, one-pass when spilled, and resolve no frames.
        let running_default =
            frame.is_sql_default() && matches!(func, Count(_) | Sum(_) | Avg(_) | Min(_) | Max(_));
        let frame_slot = (func.uses_frame() && !running_default).then(|| {
            frames.iter().position(|f| *f == frame).unwrap_or_else(|| {
                frames.push(frame);
                frames.len() - 1
            })
        });
        Call {
            func,
            frame,
            frame_slot,
            needs_peers,
        }
    }

    fn eval_class(&self) -> StreamableEval {
        StreamableEval::classify(&self.func, &self.frame)
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

/// One distinct frame of a group: its resolver — or why the frame is
/// invalid, raised when a call reading it is first evaluated — and, over a
/// resident partition, every row's frame, resolved by the first call that
/// reads them.
struct SharedFrame {
    resolver: Result<FrameResolver>,
    ranges: Vec<(usize, usize)>,
}

/// Working state of a window group, owned by the operator and reused —
/// cleared, never reallocated — across partitions and segments. What the
/// calls of a group share is resolved **once**: the partition starts per
/// segment; the peer groups and the frames of each distinct frame per
/// partition, by the first call that reads them.
struct Scratch {
    /// Partition starts of the segment.
    part_starts: Vec<usize>,
    /// Absolute peer-group starts of the partitions resolved so far.
    peer_starts: Vec<usize>,
    /// Where the open partition's peer groups begin in `peer_starts`;
    /// `None` until a call resolves them.
    peers_from: Option<usize>,
    /// Per distinct frame (see [`Call::frame_slot`]).
    frames: Vec<SharedFrame>,
    /// Per call, its evaluator and its values over the partition.
    evals: Vec<Evaluator>,
    columns: Vec<Vec<Value>>,
}

impl Scratch {
    fn begin_partition(&mut self) {
        self.peers_from = None;
        self.frames.iter_mut().for_each(|f| f.ranges.clear());
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
/// frames once per distinct frame, every call evaluated into a column
/// buffer and the values appended to the rows; the buffers are reused
/// across partitions and segments, and the segment is handed to the store
/// once. When several calls would fail, the first in call order surfaces
/// its error, exactly as a chain of single-call operators would.
///
/// **Modeled cost is unchanged by grouping.** What the group no longer
/// repeats — one row hand-off per call — is charged as a count. Along a
/// chain the 2nd…K-th call reads its partition and peer starts off the
/// layers the first one attached, at no charge, so the group charges none
/// either. The boundary layers evolve in the same sequence, so rows,
/// emitted layers and every modeled counter equal those of K chained
/// single-call operators.
///
/// **Residency is the store's decision.** A resident segment runs every
/// call still to run in one pass and is handed to the store once, which
/// keeps it resident or spills it. A spilled segment streams through its
/// calls one at a time, each within the residency of its
/// [`StreamableEval`] class, and joins the resident pass as soon as an
/// intermediate comes back resident. A chain of single-call operators
/// hands the store every intermediate; the group hands it fewer, so it
/// spills no more than the chain does.
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
                Call::new(func, frame, &mut frames)
            })
            .collect();
        let scratch = Scratch {
            part_starts: Vec::new(),
            peer_starts: Vec::new(),
            peers_from: None,
            frames: frames
                .iter()
                .map(|frame| SharedFrame {
                    resolver: FrameResolver::new(frame),
                    ranges: Vec::new(),
                })
                .collect(),
            evals: calls
                .iter()
                .map(|c| Evaluator::new(&c.func, c.frame_slot.is_some()))
                .collect(),
            columns: vec![Vec::new(); calls.len()],
        };
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
            scratch,
        }
    }

    /// The evaluation class of the group: the weakest of its calls' classes
    /// (see [`StreamableEval::classify`]) — how much of a spilled segment's
    /// partitions the operator holds, and therefore its tracked residency.
    pub fn eval_class(&self) -> StreamableEval {
        StreamableEval::weakest(self.group.calls.iter().map(Call::eval_class))
    }
}

impl<I: Operator> Operator for WindowOp<I> {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        let WindowOp {
            input,
            group,
            scratch,
        } = self;
        let Some(mut seg) = input.next_segment()? else {
            // An invalid frame is an error whatever the data, no data
            // included; over data the call reading it fails in call order.
            let invalid = |c: &Call| scratch.frames[c.frame_slot?].resolver.as_ref().err();
            let invalid = group.calls.iter().find_map(invalid);
            return invalid.map_or(Ok(None), |e| Err(e.clone()));
        };
        // Spilled, the segment streams call by call until an intermediate
        // comes back resident; the calls left then run in one pass.
        let mut next = 0;
        while next < group.calls.len() && seg.is_spilled() {
            let _span = group.env.trace.span("window", "eval_spilled");
            seg = group.eval_spilled(scratch, seg, next)?;
            next += 1;
        }
        if next < group.calls.len() {
            let _span = group.env.trace.span("window", "eval");
            seg = group.eval_resident(scratch, seg, next)?;
        }
        Ok(Some(seg))
    }
}

impl Group {
    /// The resident pass, for a segment already in memory: evaluate
    /// `calls[first..]` over it and hand the result to the store.
    ///
    /// A segment boundary always starts a new partition (adjacent segments
    /// are disjoint on a subset of `WPK`); within the segment partitions
    /// break on `WPK`-value changes — taken from a carried boundary layer
    /// when the chain already proved them, detected by scanning otherwise.
    fn eval_resident(&self, scratch: &mut Scratch, seg: Segment, first: usize) -> Result<Segment> {
        let env = &self.env;
        let (mut rows, mut bounds) = seg.into_parts()?;
        scratch.part_starts.clear();
        crate::segment::detect_runs(
            &bounds,
            &self.wpk,
            &rows,
            0,
            rows.len(),
            |a, b| self.wpk_eq(a, b),
            &env.tracker,
            &mut scratch.part_starts,
        );
        self.eval_pass(scratch, first, &mut rows, &mut bounds)?;
        Ok(Segment::from_handle(env.store.admit(rows)?, bounds))
    }

    /// Evaluate `calls[first..]` over the resident `rows`, partition by
    /// partition, and append their values.
    ///
    /// Boundary layers evolve as along a chain of single-call operators:
    /// each would hand on the peer groups (when it resolved them, for every
    /// partition) and then the partitions, replacing layers already there.
    fn eval_pass(
        &self,
        scratch: &mut Scratch,
        first: usize,
        rows: &mut [Row],
        bounds: &mut SegmentBounds,
    ) -> Result<()> {
        let env = &self.env;
        let n = rows.len();
        let calls = &self.calls[first..];
        env.tracker.move_rows((calls.len() * n) as u64);
        if n == 0 {
            return Ok(());
        }
        // The first call to resolve peers sees the partition layer of the
        // calls before it.
        let peers_first = calls[0].needs_peers;
        if !peers_first {
            bounds.add_layer(self.wpk.clone(), scratch.part_starts.clone());
        }
        scratch.peer_starts.clear();
        // A pass that failed over an earlier segment left its evaluators
        // mid-partition.
        scratch.evals[first..].iter_mut().for_each(Evaluator::reset);
        // The failing call with the lowest index wins, wherever in the
        // segment it fails: after a failure only the calls before it go on.
        let mut live = calls.len();
        let mut failure = None;
        for pi in 0..scratch.part_starts.len() {
            let lo = scratch.part_starts[pi];
            let hi = scratch.part_starts.get(pi + 1).copied().unwrap_or(n);
            scratch.begin_partition();
            for slot in 0..live {
                if let Err(e) =
                    self.eval_partition(scratch, first + slot, slot, rows, bounds, lo..hi)
                {
                    failure = Some(e);
                    live = slot;
                    break;
                }
            }
            if failure.is_some() {
                continue;
            }
            let columns = &mut scratch.columns[..calls.len()];
            // Row by row: each row grows once and takes its values while it
            // is at hand.
            for (i, row) in rows[lo..hi].iter_mut().enumerate() {
                row.reserve(columns.len());
                for column in columns.iter_mut() {
                    row.push(std::mem::replace(&mut column[i], Value::Null));
                }
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        if calls.iter().any(|c| c.needs_peers) {
            bounds.add_layer(self.union_attrs.clone(), scratch.peer_starts.clone());
        }
        if peers_first {
            bounds.add_layer(self.wpk.clone(), scratch.part_starts.clone());
        }
        Ok(())
    }

    /// Evaluate call `k` over the partition `rows[part]` into
    /// `scratch.columns[slot]`, through a cursor over the slice. Peer groups
    /// and frames of the partition are resolved here, right before they are
    /// first read — so errors surface in the order a per-call evaluation
    /// meets them.
    fn eval_partition(
        &self,
        scratch: &mut Scratch,
        k: usize,
        slot: usize,
        rows: &[Row],
        bounds: &SegmentBounds,
        part: Range<usize>,
    ) -> Result<()> {
        let call = &self.calls[k];
        if call.needs_peers {
            self.resolve_peers(scratch, rows, bounds, part.clone());
        }
        let Scratch {
            peer_starts,
            peers_from,
            frames,
            evals,
            columns,
            ..
        } = scratch;
        let out = &mut columns[slot];
        out.clear();
        let mut cursor = SliceCursor {
            groups: peers_from.map_or(&[][..], |from| &peer_starts[from..]),
            lo: part.start,
            rows: &rows[part],
            ranges: &[],
            out,
        };
        if let Some(slot) = call.frame_slot {
            let SharedFrame { resolver, ranges } = &mut frames[slot];
            let resolver = resolver.as_mut().map_err(|e| e.clone())?;
            if ranges.is_empty() {
                resolver.reset();
                for i in 0..cursor.rows.len() {
                    let frame = resolver.resolve(&self.wok, &cursor, i)?;
                    ranges.push(frame.expect("a slice holds every row a frame reads"));
                }
            }
            cursor.ranges = ranges;
        }
        evals[k].advance(&call.func, &mut cursor, &self.env.tracker)
    }

    /// Make the peer groups of partition `rows[part]` available in the
    /// scratch (absolute starts, `peer_starts[peers_from..]`).
    ///
    /// Peer groups are maximal runs equal under the WOK comparator; since
    /// `WPK` values are constant within a partition, they coincide with the
    /// maximal runs equal on `WPK ∪ attr(WOK)` — which is what a carried
    /// union layer proves, making reuse sound.
    ///
    /// The first call of a pass that needs them resolves them, from a
    /// carried layer or by scanning. Every later call's own operator would
    /// read them for free from the union layer the first one attached.
    fn resolve_peers(
        &self,
        scratch: &mut Scratch,
        rows: &[Row],
        bounds: &SegmentBounds,
        part: Range<usize>,
    ) {
        let env = &self.env;
        if scratch.peers_from.is_some() {
            return;
        }
        scratch.peers_from = Some(scratch.peer_starts.len());
        crate::segment::detect_runs(
            bounds,
            &self.union_attrs,
            rows,
            part.start,
            part.end,
            |a, b| self.wok_cmp.equal(a, b),
            &env.tracker,
            &mut scratch.peer_starts,
        );
    }

    /// Row equality on exactly the partition key `WPK` — the one definition
    /// the resident pass and the stream split partitions with.
    fn wpk_eq(&self, a: &Row, b: &Row) -> bool {
        self.wpk.iter().all(|attr| a.get(attr) == b.get(attr))
    }
}

/// The cursor over a resident partition: all of it is there, nothing is
/// charged, nothing ever leaves; frames come resolved once for the group and
/// values go into the call's column buffer.
struct SliceCursor<'a> {
    rows: &'a [Row],
    /// Absolute starts of the partition's peer groups (empty when no call
    /// has resolved them) and of the partition itself.
    groups: &'a [usize],
    lo: usize,
    ranges: &'a [(usize, usize)],
    out: &'a mut Vec<Value>,
}

impl Rows for SliceCursor<'_> {
    fn base(&self) -> usize {
        0
    }
    fn received(&self) -> usize {
        self.rows.len()
    }
    fn total(&self) -> Option<usize> {
        Some(self.rows.len())
    }
    fn row(&self, i: usize) -> &Row {
        &self.rows[i]
    }
    fn group_start(&self, g: usize) -> Option<usize> {
        self.groups.get(g).map(|s| s - self.lo)
    }
}

impl Cursor for SliceCursor<'_> {
    fn frame(&mut self, i: usize) -> Result<Option<(usize, usize)>> {
        Ok(Some(self.ranges[i]))
    }
    fn emit(&mut self, v: Value) -> Result<()> {
        self.out.push(v);
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
        SegmentSource::new(input, env),
        wpk.clone(),
        wok.clone(),
        func.clone(),
        frame,
        env.clone(),
    );
    drain(&mut op)
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

    /// A leaf handing out one prepared segment.
    struct Once(Option<Segment>);

    impl Operator for Once {
        fn next_segment(&mut self) -> Result<Option<Segment>> {
            Ok(self.0.take())
        }
    }

    /// The call's column over `rows` as one segment, evaluated through both
    /// cursors — the resident slice, and the stream over a spilled handle
    /// (the segment is admitted into a pool something else has filled, and
    /// everything the stream stages or emits spills as well). The two must
    /// agree, value for value or error for error.
    fn try_run(
        rows: Vec<Row>,
        wpk: &[usize],
        wok: &SortSpec,
        func: WindowFunction,
        frame: Option<FrameSpec>,
    ) -> Result<Vec<Value>> {
        let column = |out: SegmentedRows| -> Vec<Value> {
            let last = out.rows()[0].arity() - 1;
            out.rows().iter().map(|r| r.get(a(last)).clone()).collect()
        };
        let env = OpEnv::with_memory_blocks(64);
        let input = SegmentedRows::single_segment(rows.clone());
        let resident = evaluate_window(input, &aset(wpk), wok, &func, frame, &env).map(column);

        let env = OpEnv::with_memory_blocks(1);
        let _full = env.store.hold(wf_storage::BLOCK_SIZE, 0);
        let seg = Segment::from_handle(env.store.admit(rows)?, SegmentBounds::none());
        assert!(seg.is_spilled(), "a full pool admits nothing");
        let mut op = WindowOp::new(Once(Some(seg)), aset(wpk), wok.clone(), func, frame, env);
        let streamed = drain(&mut op).map(column);
        assert_eq!(streamed, resident, "the two cursors disagree");
        resident
    }

    fn run(
        rows: Vec<Row>,
        wpk: &[usize],
        wok: &SortSpec,
        func: WindowFunction,
        frame: Option<FrameSpec>,
    ) -> Vec<Value> {
        try_run(rows, wpk, wok, func, frame).unwrap()
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

    /// Rows scanned with room for a group's columns leave it full and
    /// ungrown: every call's value lands in the allocation the scan made
    /// (spare capacity exactly used, none added).
    #[test]
    fn window_group_over_a_scanned_segment_grows_no_row() {
        use crate::operator::TableScan;
        use wf_common::{DataType, Schema};
        use wf_storage::Table;
        let schema = Schema::of(&[
            ("p", DataType::Int),
            ("o", DataType::Int),
            ("x", DataType::Int),
            ("s", DataType::Str),
        ]);
        let mut t = Table::new(schema);
        for i in 0..300i64 {
            t.push(row![i / 25, i % 7, i, "pad"]);
        }
        let calls = vec![
            (WindowFunction::Rank, None),
            (WindowFunction::Sum(a(2)), None),
            (WindowFunction::RowNumber, None),
        ];
        let env = OpEnv::with_memory_blocks(64);
        let scan = TableScan::new(&t, env.clone()).with_spare(calls.len());
        let mut op = WindowOp::group(scan, aset(&[0]), spec(&[]), calls, env);
        let out = drain(&mut op).unwrap();
        assert_eq!(out.rows().len(), 300);
        for (r, base) in out.rows().iter().zip(t.rows()) {
            assert_eq!(&r.values()[..4], base.values());
            assert_eq!(r.arity(), 7);
            assert_eq!(r.spare_capacity(), 0, "{r}");
        }
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
        // Two ORDER BY keys → error.
        let sum = WindowFunction::Sum(a(0));
        let r = try_run(rows, &[], &spec(&[0, 1]), sum.clone(), Some(frame));
        assert!(r.is_err());
        // String key → error.
        let srows = vec![row!["x"], row!["y"]];
        let r2 = try_run(srows, &[], &spec(&[0]), sum, Some(frame));
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
