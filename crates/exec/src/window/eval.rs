//! The evaluator core: every function family's arithmetic, written once
//! against a **partition cursor**.
//!
//! A cursor ([`Rows`] + [`Cursor`]) is what an evaluator sees of the open
//! partition: the rows still readable, the partition's length once it is
//! known, its peer groups, the frame of a row, and a sink taking one value
//! per row in row order. Whether those rows are a resident slice or the
//! bounded buffer of a stream is the cursor's business; an evaluator only
//! ever asks "has enough of the partition arrived to value the next row?"
//! and values it. Over a slice the answer is always yes and one
//! [`Evaluator::advance`] values the whole partition in a tight loop; over
//! a stream the same code runs once per arriving row.

use super::{Bound, FrameSpec, FrameUnits, WindowFunction};
use std::cell::Cell;
use std::collections::VecDeque;
use wf_common::{AttrId, Direction, Error, Result, Row, SortSpec, Value};
use wf_storage::CostTracker;

/// The rows of the open partition that may still be read. Indices are
/// partition-relative.
pub(super) trait Rows {
    /// First index still readable: rows `[base, received)` are.
    fn base(&self) -> usize;
    /// How many rows of the partition have been seen.
    fn received(&self) -> usize;
    /// The partition's length, once known.
    fn total(&self) -> Option<usize>;
    /// Row `i`, `base <= i < received`.
    fn row(&self, i: usize) -> &Row;
    /// Start of the partition's `g`-th peer group, `None` until its first
    /// row has been seen. Answered only for calls that resolve peers.
    fn group_start(&self, g: usize) -> Option<usize>;
    /// Whether every row of the partition has been seen.
    fn complete(&self) -> bool {
        self.total() == Some(self.received())
    }
}

/// A partition cursor: the readable rows plus the frames and the value sink.
/// Its driver calls [`Evaluator::advance`] whenever rows have arrived, and
/// exactly once with the partition [`Rows::complete`].
pub(super) trait Cursor: Rows {
    /// The frame of row `i < received` as a half-open range, `None` while
    /// rows it may read are still to come. Asked in row order.
    fn frame(&mut self, i: usize) -> Result<Option<(usize, usize)>>;
    /// The value of the next row — values are emitted in row order.
    fn emit(&mut self, v: Value) -> Result<()>;
}

/// Resolves the frame of each row of a partition, rows in order, as a
/// half-open partition-relative range: ROWS bounds by arithmetic, RANGE
/// offsets by two pointers over the sorted key, `CURRENT ROW` under RANGE
/// from the peer groups. Every pointer only ever advances, so a partition
/// costs `O(n)`, uncharged, and a stream needs no row behind [`Self::floor`].
#[derive(Debug, Clone, Copy)]
pub(super) struct FrameResolver {
    frame: FrameSpec,
    /// Peer group of the row resolved last.
    g: usize,
    /// RANGE offsets: the first index whose key reaches the start target,
    /// and one past the last whose key stays within the end target.
    fs: usize,
    fe: usize,
    /// RANGE offsets: the run of NULL-key rows — its start, and how far its
    /// end has been followed. NULLs sort to one end of the partition and
    /// are one another's only frame.
    nulls: Option<(usize, usize)>,
}

impl FrameResolver {
    /// The one place a frame is validated — by its shape alone, whatever
    /// its units and whatever the data.
    pub(super) fn new(frame: &FrameSpec) -> Result<Self> {
        for b in [frame.start, frame.end] {
            if matches!(b, Bound::Preceding(k) | Bound::Following(k) if k < 0) {
                return Err(Error::InvalidQuery(
                    "frame offset must not be negative".into(),
                ));
            }
        }
        if frame.start == Bound::UnboundedFollowing {
            return Err(Error::InvalidQuery(
                "frame start cannot be UNBOUNDED FOLLOWING".into(),
            ));
        }
        if frame.end == Bound::UnboundedPreceding {
            return Err(Error::InvalidQuery(
                "frame end cannot be UNBOUNDED PRECEDING".into(),
            ));
        }
        Ok(FrameResolver {
            frame: *frame,
            g: 0,
            fs: 0,
            fe: 0,
            nulls: None,
        })
    }

    /// Back to the start of a partition.
    pub(super) fn reset(&mut self) {
        (self.g, self.fs, self.fe, self.nulls) = (0, 0, 0, None);
    }

    /// The frame of row `i`, or `None` while a row it may read has not
    /// arrived. Call with non-decreasing `i`.
    pub(super) fn resolve<R: Rows>(
        &mut self,
        wok: &SortSpec,
        rows: &R,
        i: usize,
    ) -> Result<Option<(usize, usize)>> {
        // Until the length is known no clamp to it can bite: a frame that
        // reaches past what has arrived is not ready.
        let n = rows.total().unwrap_or(usize::MAX);
        let (start, end) = (self.frame.start, self.frame.end);
        let (s, e) = match self.frame.units {
            FrameUnits::Rows => (
                match start {
                    Bound::Preceding(k) => i.saturating_sub(k as usize),
                    Bound::Following(k) => i.saturating_add(k as usize),
                    Bound::CurrentRow => i,
                    Bound::UnboundedPreceding | Bound::UnboundedFollowing => 0,
                },
                match end {
                    Bound::Preceding(k) => (i + 1).saturating_sub(k as usize),
                    Bound::Following(k) => (i + 1).saturating_add(k as usize),
                    Bound::CurrentRow => i + 1,
                    Bound::UnboundedPreceding | Bound::UnboundedFollowing => n,
                },
            ),
            FrameUnits::Range => {
                let s = self.range_bound(wok, rows, i, start, true)?;
                let e = self.range_bound(wok, rows, i, end, false)?;
                let (Some(s), Some(e)) = (s, e) else {
                    return Ok(None);
                };
                (s, e)
            }
        };
        let s = s.min(n);
        let e = e.max(s).min(n);
        Ok((e <= rows.received()).then_some((s, e)))
    }

    /// One bound of a RANGE frame (`None`: not known yet).
    fn range_bound<R: Rows>(
        &mut self,
        wok: &SortSpec,
        rows: &R,
        i: usize,
        bound: Bound,
        start: bool,
    ) -> Result<Option<usize>> {
        let delta = match bound {
            Bound::UnboundedPreceding => return Ok(Some(0)),
            Bound::UnboundedFollowing => return Ok(rows.total()),
            Bound::CurrentRow => {
                while rows.group_start(self.g + 1).is_some_and(|s| s <= i) {
                    self.g += 1;
                }
                let g = if start { self.g } else { self.g + 1 };
                let at_end = || rows.total().filter(|_| !start && rows.complete());
                return Ok(rows.group_start(g).or_else(at_end));
            }
            Bound::Preceding(k) => -k,
            Bound::Following(k) => k,
        };
        let (key, null) = range_key(wok, rows.row(i))?;
        if null {
            let (from, mut to) = self.nulls.unwrap_or((i, i + 1));
            while to < rows.received() && range_key(wok, rows.row(to))?.1 {
                to += 1;
            }
            self.nulls = Some((from, to));
            let closed = to < rows.received() || rows.complete();
            return Ok(if start {
                Some(from)
            } else {
                closed.then_some(to)
            });
        }
        let target = key + delta as f64;
        let ptr = if start { &mut self.fs } else { &mut self.fe };
        while *ptr < rows.received() {
            let (k, null) = range_key(wok, rows.row(*ptr))?;
            // NULL keys before the current row sort below every target,
            // those after it above.
            let below = match (null, start) {
                (true, _) => *ptr < i,
                (false, true) => k < target,
                (false, false) => k <= target,
            };
            if !below {
                return Ok(Some(*ptr));
            }
            *ptr += 1;
        }
        Ok(rows.complete().then_some(*ptr))
    }

    /// Lowest index the frame of row `next` or of any later row can read:
    /// a stream may drop the rows below it.
    pub(super) fn floor(&self, next: usize) -> usize {
        match self.frame.units {
            FrameUnits::Rows => {
                let behind = |b: Bound| match b {
                    Bound::UnboundedPreceding => usize::MAX,
                    Bound::Preceding(k) => k as usize,
                    _ => 0,
                };
                next.saturating_sub(behind(self.frame.start).max(behind(self.frame.end)))
            }
            FrameUnits::Range => next.min(self.fs).min(self.fe),
        }
    }
}

/// The ordering key of `row` for a RANGE offset — there must be exactly
/// one, and numeric — normalized to ascending, and whether it is NULL.
fn range_key(wok: &SortSpec, row: &Row) -> Result<(f64, bool)> {
    let [elem] = wok.elems() else {
        return Err(Error::InvalidQuery(
            "RANGE with offset requires exactly one ORDER BY key".into(),
        ));
    };
    let v = row.get(elem.attr);
    if v.is_null() {
        return Ok((0.0, true));
    }
    let f = v.as_f64().ok_or_else(|| {
        Error::InvalidQuery("RANGE with offset requires a numeric ORDER BY key".into())
    })?;
    Ok((if elem.dir == Direction::Desc { -f } else { f }, false))
}

/// Running totals of a column: exact integer sum, float sum, float sum of
/// squares, non-null count.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    int: i128,
    sum: f64,
    sq: f64,
    cnt: i64,
}

impl Totals {
    /// Fold `v` in. A `numeric` column rejects anything but numbers and
    /// NULLs, and a float anywhere clears `all_int`.
    fn add(&mut self, v: &Value, numeric: bool, all_int: &Cell<bool>) -> Result<()> {
        let x = match v {
            Value::Null => return Ok(()),
            Value::Int(x) => {
                self.int += *x as i128;
                *x as f64
            }
            Value::Float(x) => {
                all_int.set(false);
                *x
            }
            other if numeric => {
                return Err(Error::TypeMismatch {
                    expected: "numeric".into(),
                    found: other.type_name().into(),
                })
            }
            _ => 0.0,
        };
        self.sum += x;
        self.sq += x * x;
        self.cnt += 1;
        Ok(())
    }

    /// `sum` / `avg` of these totals. One float in the partition makes
    /// every frame of it float-typed; an integer sum is exact in `i128`
    /// and saturates into its `i64` result.
    fn sum_or_avg(&self, all_int: bool, avg: bool) -> Value {
        match (self.cnt, avg, all_int) {
            (0, ..) => Value::Null,
            // The same rounding either way; `i128` converts through a call.
            (n, true, true) => {
                let int = i64::try_from(self.int).map_or(self.int as f64, |small| small as f64);
                Value::Float(int / n as f64)
            }
            (n, true, false) => Value::Float(self.sum / n as f64),
            (_, false, true) => {
                Value::Int(self.int.clamp(i64::MIN as i128, i64::MAX as i128) as i64)
            }
            (_, false, false) => Value::Float(self.sum),
        }
    }

    /// Variance or standard deviation by the sum-of-squares identity,
    /// clamped at zero against cancellation.
    fn variance(&self, sample: bool, sqrt: bool) -> Value {
        let n = self.cnt as f64;
        if n < if sample { 2.0 } else { 1.0 } {
            return Value::Null;
        }
        let ssd = (self.sq - self.sum * self.sum / n).max(0.0);
        let var = ssd / if sample { n - 1.0 } else { n };
        Value::Float(if sqrt { var.sqrt() } else { var })
    }
}

/// Prefix totals over the rows folded so far, entry `j` covering rows
/// `0..j`: a frame's totals are the difference of two entries, in the same
/// float association order however the frame slides. Entries below `base`
/// are dropped as the cursor's rows are.
#[derive(Debug, Default)]
struct Lanes {
    pre: VecDeque<Totals>,
    base: usize,
}

impl Lanes {
    fn reset(&mut self) {
        self.pre.clear();
        self.base = 0;
    }

    /// Rows folded so far.
    fn end(&self) -> usize {
        (self.base + self.pre.len()).saturating_sub(1)
    }

    fn push(&mut self, v: &Value, numeric: bool, all_int: &Cell<bool>) -> Result<()> {
        if self.pre.is_empty() {
            self.pre.push_back(Totals::default());
        }
        let mut next = *self.pre.back().expect("seeded with the empty prefix");
        next.add(v, numeric, all_int)?;
        self.pre.push_back(next);
        Ok(())
    }

    /// Totals of rows `[s, e)`.
    fn over(&self, s: usize, e: usize) -> Totals {
        let (a, b) = (self.pre[s - self.base], self.pre[e - self.base]);
        Totals {
            int: b.int - a.int,
            sum: b.sum - a.sum,
            sq: b.sq - a.sq,
            cnt: b.cnt - a.cnt,
        }
    }

    fn drop_below(&mut self, keep: usize) {
        while self.base < keep {
            self.pre.pop_front();
            self.base += 1;
        }
    }
}

/// The modeled cost of `min`/`max` over the frames of an `n`-row partition:
/// what a sparse table over the rows spends building itself, one comparison
/// per entry of every level — the structure the cost model prices these
/// functions by. The evaluation itself slides a deque and is not charged.
fn extrema_model_charge(n: usize) -> u64 {
    let mut width = 1usize;
    let mut total = 0u64;
    while width * 2 <= n {
        total += (n - width * 2 + 1) as u64;
        width *= 2;
    }
    total
}

/// The evaluator of one window call: per-partition state of its function
/// family. Built once per call and reused from partition to partition — it
/// allocates nothing after its buffers have grown.
pub(super) enum Evaluator {
    /// `row_number`, `rank`, `dense_rank`: from the row index and the peer
    /// boundaries.
    Ranking { next: usize, g: usize },
    /// `lag`, `lead`: a row at a fixed distance.
    Offset { next: usize },
    /// A value per run of rows that only the partition's end settles:
    /// `ntile`, `percent_rank`, `cume_dist` and the SQL-default-frame
    /// aggregates.
    Staged(Staged),
    /// Everything that reads a frame.
    Framed(Framed),
}

impl Evaluator {
    /// The evaluator of `func`; `framed`: the call resolves frames.
    pub(super) fn new(func: &WindowFunction, framed: bool) -> Self {
        use WindowFunction::*;
        match func {
            RowNumber | Rank | DenseRank => Evaluator::Ranking { next: 0, g: 0 },
            Lag { .. } | Lead { .. } => Evaluator::Offset { next: 0 },
            _ if framed => Evaluator::Framed(Framed::default()),
            _ => Evaluator::Staged(Staged::default()),
        }
    }

    /// Back to the start of a partition, from wherever a failed evaluation
    /// left off.
    pub(super) fn reset(&mut self) {
        match self {
            Evaluator::Ranking { next, g } => (*next, *g) = (0, 0),
            Evaluator::Offset { next } => *next = 0,
            Evaluator::Staged(s) => s.reset(),
            Evaluator::Framed(f) => f.reset(),
        }
    }

    /// Whether the evaluator must have looked at every row of the partition
    /// before it can value one: `sum`/`avg` over a frame, for whether the
    /// partition holds a float. A driver that cannot show the whole
    /// partition at once passes every row to [`Evaluator::observe`] first
    /// and then replays them.
    pub(super) fn scans_first(&self, func: &WindowFunction) -> bool {
        use WindowFunction::*;
        matches!((self, func), (Evaluator::Framed(_), Sum(_) | Avg(_)))
    }

    /// The first look at `row` of an evaluator that [`Self::scans_first`].
    pub(super) fn observe(&mut self, func: &WindowFunction, row: &Row) -> Result<()> {
        if let (Evaluator::Framed(f), WindowFunction::Sum(col) | WindowFunction::Avg(col)) =
            (self, func)
        {
            Totals::default().add(row.get(*col), true, &f.all_int)?;
            f.classified = true;
        }
        Ok(())
    }

    /// Value every row that what has arrived of the partition settles. Once
    /// the partition is complete the evaluator stands at the start of the
    /// next one.
    pub(super) fn advance<C: Cursor>(
        &mut self,
        func: &WindowFunction,
        cur: &mut C,
        tracker: &CostTracker,
    ) -> Result<()> {
        use WindowFunction::*;
        match self {
            Evaluator::Ranking { next, g } => {
                while *next < cur.received() {
                    let i = *next;
                    while cur.group_start(*g + 1).is_some_and(|s| s <= i) {
                        *g += 1;
                    }
                    let v = match func {
                        RowNumber => i + 1,
                        Rank => cur.group_start(*g).expect("peers are resolved") + 1,
                        _ => *g + 1,
                    };
                    *next += 1;
                    cur.emit(Value::Int(v as i64))?;
                }
                if cur.complete() {
                    (*next, *g) = (0, 0);
                }
            }
            Evaluator::Offset { next } => {
                let (Lag {
                    col,
                    offset,
                    default,
                }
                | Lead {
                    col,
                    offset,
                    default,
                }) = func
                else {
                    unreachable!("{func:?} is not a row reference")
                };
                let ahead = matches!(func, Lead { .. });
                while *next < cur.received() {
                    let j = if ahead {
                        next.checked_add(*offset as usize)
                    } else {
                        next.checked_sub(*offset as usize)
                    };
                    let v = match j {
                        Some(j) if j < cur.received() => cur.row(j).get(*col).clone(),
                        // Row `j` may still arrive.
                        Some(j) if cur.total().is_none_or(|n| j < n) => break,
                        _ => default.clone().unwrap_or(Value::Null),
                    };
                    *next += 1;
                    cur.emit(v)?;
                }
                if cur.complete() {
                    *next = 0;
                }
            }
            Evaluator::Staged(s) => {
                s.advance(func, cur, tracker)?;
                if cur.complete() {
                    s.reset();
                }
            }
            Evaluator::Framed(f) => {
                f.advance(func, cur, tracker)?;
                if cur.complete() {
                    f.reset();
                }
            }
        }
        Ok(())
    }
}

/// Emit `value()` for a run of `count` rows.
fn emit_run<C: Cursor>(cur: &mut C, count: usize, value: impl Fn() -> Value) -> Result<()> {
    (0..count).try_for_each(|_| cur.emit(value()))
}

/// State of the staged family. `ntile` and the distribution functions need
/// nothing but the partition's length and peer groups. The SQL-default-frame
/// aggregates (`RANGE UNBOUNDED PRECEDING .. CURRENT ROW`: every frame is
/// `[0, peer end)`) fold each row into a running accumulator as it arrives
/// and keep it as every closed peer group left it — `O(groups)`, never the
/// rows.
#[derive(Default)]
pub(super) struct Staged {
    folded: usize,
    all_int: Cell<bool>,
    totals: Totals,
    closed_totals: Vec<Totals>,
    /// `min`/`max`: the extremum so far, and the comparisons it took — one
    /// per non-null value after the partition's first.
    best: Option<Value>,
    closed_bests: Vec<Option<Value>>,
    compared: u64,
}

impl Staged {
    fn reset(&mut self) {
        self.folded = 0;
        self.all_int.set(true);
        self.totals = Totals::default();
        self.closed_totals.clear();
        self.best = None;
        self.closed_bests.clear();
        self.compared = 0;
    }

    fn advance<C: Cursor>(
        &mut self,
        func: &WindowFunction,
        cur: &mut C,
        tracker: &CostTracker,
    ) -> Result<()> {
        use WindowFunction::*;
        let Staged {
            folded,
            all_int,
            totals,
            closed_totals,
            best,
            closed_bests,
            compared,
        } = self;
        // The running aggregates: how a row folds into the accumulator, and
        // the value of a peer group the accumulator stood at when it closed.
        match func {
            Count(None) => {
                let fold = |t: &mut Totals, _: &Row| {
                    t.cnt += 1;
                    Ok(())
                };
                running(folded, totals, closed_totals, cur, fold, |t| {
                    Value::Int(t.cnt)
                })
            }
            Count(Some(col)) => {
                let fold = |t: &mut Totals, row: &Row| t.add(row.get(*col), false, all_int);
                running(folded, totals, closed_totals, cur, fold, |t| {
                    Value::Int(t.cnt)
                })
            }
            Sum(col) | Avg(col) => {
                let avg = matches!(func, Avg(_));
                let fold = |t: &mut Totals, row: &Row| t.add(row.get(*col), true, all_int);
                let value = |t: &Totals| t.sum_or_avg(all_int.get(), avg);
                running(folded, totals, closed_totals, cur, fold, value)
            }
            Min(col) | Max(col) => {
                let min = matches!(func, Min(_));
                let fold = |best: &mut Option<Value>, row: &Row| {
                    let v = row.get(*col);
                    match best {
                        _ if v.is_null() => {}
                        None => *best = Some(v.clone()),
                        Some(held) => {
                            *compared += 1;
                            if if min { v < held } else { v > held } {
                                *best = Some(v.clone());
                            }
                        }
                    }
                    Ok(())
                };
                let value = |best: &Option<Value>| best.clone().unwrap_or(Value::Null);
                running(folded, best, closed_bests, cur, fold, value)?;
                if cur.complete() {
                    tracker.compare(*compared);
                }
                Ok(())
            }
            _ if !cur.complete() => Ok(()),
            Ntile(tiles) => {
                // Spread the remainder over the first tiles; tiles past the
                // `n`-th are empty.
                let (n, t) = (cur.received(), (*tiles).max(1) as usize);
                (0..t.min(n)).try_for_each(|tile| {
                    let size = n / t + usize::from(tile < n % t);
                    emit_run(cur, size, || Value::Int(tile as i64 + 1))
                })
            }
            _ => {
                let (n, mut g) = (cur.received(), 0);
                while let Some(s) = cur.group_start(g) {
                    let e = cur.group_start(g + 1).unwrap_or(n);
                    let v = match func {
                        CumeDist => e as f64 / n as f64,
                        _ if n <= 1 => 0.0,
                        _ => s as f64 / (n - 1) as f64,
                    };
                    emit_run(cur, e - s, || Value::Float(v))?;
                    g += 1;
                }
                Ok(())
            }
        }
    }
}

/// Fold the rows that have arrived into `acc`, keeping in `closed` what it
/// stood at when each peer group closed; over the complete partition, emit
/// every group's `value` for its rows.
fn running<C: Cursor, A: Clone>(
    folded: &mut usize,
    acc: &mut A,
    closed: &mut Vec<A>,
    cur: &mut C,
    mut fold: impl FnMut(&mut A, &Row) -> Result<()>,
    value: impl Fn(&A) -> Value,
) -> Result<()> {
    // The row opening the next peer group closes the open one.
    let mut opens = cur.group_start(closed.len() + 1);
    while *folded < cur.received() {
        if opens == Some(*folded) {
            closed.push(acc.clone());
            opens = cur.group_start(closed.len() + 1);
        }
        fold(acc, cur.row(*folded))?;
        *folded += 1;
    }
    if !cur.complete() {
        return Ok(());
    }
    let mut s = 0;
    for (g, at_close) in closed.iter().chain([&*acc]).enumerate() {
        let e = cur.group_start(g + 1).unwrap_or(*folded);
        emit_run(cur, e - s, || value(at_close))?;
        s = e;
    }
    Ok(())
}

/// State of the framed family: prefix lanes for `count(col)`, `sum`, `avg`
/// and the variance family, a sliding deque for `min`/`max`; `first_value`,
/// `last_value`, `nth_value` and `count(*)` read the frame directly.
#[derive(Default)]
pub(super) struct Framed {
    next: usize,
    lanes: Lanes,
    all_int: Cell<bool>,
    /// [`Evaluator::observe`] has seen the whole partition.
    classified: bool,
    /// `min`/`max`: indices of non-null rows of the current frame, each
    /// better than all behind it — the front is the frame's leftmost
    /// extremum — and the first index not yet offered. Frames only slide
    /// forward, so every row enters and leaves once.
    window: VecDeque<usize>,
    offered: usize,
}

impl Framed {
    fn reset(&mut self) {
        self.next = 0;
        self.lanes.reset();
        self.all_int.set(true);
        self.classified = false;
        self.window.clear();
        self.offered = 0;
    }

    fn advance<C: Cursor>(
        &mut self,
        func: &WindowFunction,
        cur: &mut C,
        tracker: &CostTracker,
    ) -> Result<()> {
        use WindowFunction::*;
        if let Count(Some(col)) | Sum(col) | Avg(col) | VarPop(col) | VarSamp(col)
        | StddevPop(col) | StddevSamp(col) = func
        {
            self.lanes.drop_below(cur.base());
            let numeric = !matches!(func, Count(_));
            while self.lanes.end() < cur.received() {
                let v = cur.row(self.lanes.end()).get(*col);
                self.lanes.push(v, numeric, &self.all_int)?;
            }
            // Int or float is a property of the whole partition.
            if matches!(func, Sum(_) | Avg(_)) && !(self.classified || cur.complete()) {
                return Ok(());
            }
        }
        let Framed {
            next,
            lanes,
            all_int,
            window,
            offered,
            ..
        } = self;
        // The value at `i` if the frame, ending at `e`, reaches it.
        let at = |cur: &C, i: usize, e: usize, col: &AttrId| {
            if i < e {
                cur.row(i).get(*col).clone()
            } else {
                Value::Null
            }
        };
        match func {
            FirstValue(col) => each_frame(next, cur, |cur, s, e| at(cur, s, e, col)),
            LastValue(col) => each_frame(next, cur, |cur, s, e| at(cur, e.max(s + 1) - 1, e, col)),
            NthValue(col, k) => {
                let k = (*k).max(1) as usize - 1;
                each_frame(next, cur, |cur, s, e| at(cur, s.saturating_add(k), e, col))
            }
            Count(None) => each_frame(next, cur, |_, s, e| Value::Int((e - s) as i64)),
            Count(Some(_)) => each_frame(next, cur, |_, s, e| Value::Int(lanes.over(s, e).cnt)),
            Sum(_) | Avg(_) => {
                let avg = matches!(func, Avg(_));
                each_frame(next, cur, |_, s, e| {
                    lanes.over(s, e).sum_or_avg(all_int.get(), avg)
                })
            }
            Min(col) | Max(col) => {
                let min = matches!(func, Min(_));
                each_frame(next, cur, |cur, s, e| {
                    slide(window, offered, cur, *col, min, s, e)
                })?;
                if cur.complete() {
                    tracker.compare(extrema_model_charge(cur.received()));
                }
                Ok(())
            }
            VarPop(_) | VarSamp(_) | StddevPop(_) | StddevSamp(_) => {
                let sample = matches!(func, VarSamp(_) | StddevSamp(_));
                let sqrt = matches!(func, StddevPop(_) | StddevSamp(_));
                each_frame(next, cur, |_, s, e| lanes.over(s, e).variance(sample, sqrt))
            }
            other => Err(Error::Execution(format!(
                "{other:?} is not a framed function"
            ))),
        }
    }
}

/// Emit `value(cursor, s, e)` for every row from `next` on whose frame
/// `[s, e)` is settled.
fn each_frame<C: Cursor>(
    next: &mut usize,
    cur: &mut C,
    mut value: impl FnMut(&C, usize, usize) -> Value,
) -> Result<()> {
    while *next < cur.received() {
        let Some((s, e)) = cur.frame(*next)? else {
            break;
        };
        let v = value(cur, s, e);
        *next += 1;
        cur.emit(v)?;
    }
    Ok(())
}

/// The extremum of `col` over `[s, e)`, NULLs skipped. Popping only strictly
/// worse entries keeps the earliest of equal values.
fn slide<C: Cursor>(
    window: &mut VecDeque<usize>,
    offered: &mut usize,
    cur: &C,
    col: AttrId,
    min: bool,
    s: usize,
    e: usize,
) -> Value {
    // Entries the frame has slid past may have left the cursor: they go
    // before anything is dereferenced.
    while window.front().is_some_and(|&f| f < s) {
        window.pop_front();
    }
    while *offered < e {
        let j = *offered;
        *offered += 1;
        let v = cur.row(j).get(col);
        if v.is_null() {
            continue;
        }
        while window.back().is_some_and(|&b| {
            let held = cur.row(b).get(col);
            if min {
                held > v
            } else {
                held < v
            }
        }) {
            window.pop_back();
        }
        window.push_back(j);
    }
    // A frame ahead of the current row was offered rows before `s`.
    while window.front().is_some_and(|&f| f < s) {
        window.pop_front();
    }
    match window.front() {
        Some(&f) if f < e => cur.row(f).get(col).clone(),
        _ => Value::Null,
    }
}
