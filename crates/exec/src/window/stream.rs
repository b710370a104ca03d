//! The cursor over a **spilled** segment: one walker that splits partitions
//! and peer groups off the row stream and holds of the open partition only
//! what the call's [`StreamableEval`] class allows — the same evaluators
//! run against it that run over a resident slice.

use super::eval::{Cursor, FrameResolver, Rows};
use super::{Group, Scratch, StreamableEval, WindowFunction};
use crate::operator::Segment;
use crate::segment::{RunSplitter, SegmentBounds};
use std::collections::VecDeque;
use wf_common::{AttrId, Error, Result, Row, SortSpec, Value};
use wf_storage::{ResidencyHold, RingCharge, SegmentBuilder, SegmentReader};

/// How the stream holds the rows of the open partition.
#[derive(Clone, Copy, PartialEq)]
enum Hold {
    /// `O(M + frame)`: a ring, charged row by row, of the rows a frame or
    /// offset can still reach; a row leaves for the output as it is valued.
    Ring,
    /// `O(M + frame)` for `sum`/`avg` over a frame, which must know whether
    /// the partition holds a float before valuing a row: the partition is
    /// staged through the store while the evaluator looks at each row, then
    /// replayed through the ring.
    Scanned,
    /// `O(M)`: every row is read once as it arrives and staged through the
    /// store (the stage spills past the pool); the values follow at
    /// partition end and meet their rows on a replay of the stage.
    Staged,
    /// `O(M + partition)`: the whole partition, registered with the store's
    /// ledger, evaluated as the resident slice it then is.
    Whole,
}

/// The stream's buffer over the open partition and its book-keeping over
/// the segment.
struct Stream<'a> {
    hold: Hold,
    wok: &'a SortSpec,
    /// Rows `[base, received)` of the open partition, `total` once it is
    /// closed, `next_emit` the first one not yet valued.
    ring: VecDeque<Row>,
    base: usize,
    received: usize,
    total: Option<usize>,
    next_emit: usize,
    /// Residency of the ring (row by row) and of a whole partition.
    charge: RingCharge,
    unit: ResidencyHold,
    /// Rows behind the next one that `lag` still reads.
    behind: usize,
    frames: Option<FrameResolver>,
    stage: SegmentBuilder,
    replay: Option<SegmentReader>,
    out: SegmentBuilder,
    /// Absolute starts of the segment's partitions and — when the call
    /// resolves peers — peer groups; the open partition starts at `lo` and
    /// its groups at `peer_starts[groups_from]`.
    part_starts: Vec<usize>,
    peer_starts: Vec<usize>,
    lo: usize,
    groups_from: usize,
}

impl Rows for Stream<'_> {
    fn base(&self) -> usize {
        self.base
    }
    fn received(&self) -> usize {
        self.received
    }
    fn total(&self) -> Option<usize> {
        self.total
    }
    fn row(&self, i: usize) -> &Row {
        &self.ring[i - self.base]
    }
    fn group_start(&self, g: usize) -> Option<usize> {
        let start = self.peer_starts.get(self.groups_from + g)?;
        Some(start - self.lo)
    }
}

impl Cursor for Stream<'_> {
    fn frame(&mut self, i: usize) -> Result<Option<(usize, usize)>> {
        let mut frames = self.frames.expect("a frame reader has a resolver");
        let frame = frames.resolve(self.wok, self, i);
        self.frames = Some(frames);
        frame
    }

    fn emit(&mut self, v: Value) -> Result<()> {
        if let Some(replay) = &mut self.replay {
            let mut row = replay
                .next_row()?
                .ok_or_else(|| Error::Execution("staged partition truncated".into()))?;
            row.push(v);
            return self.out.push(row);
        }
        let i = self.next_emit;
        self.next_emit += 1;
        let keep = match &self.frames {
            Some(frames) => frames.floor(self.next_emit),
            None => self.next_emit.saturating_sub(self.behind),
        };
        // The row goes out while the ring is still charged for it; one
        // that nothing reads again moves out, one still in reach is copied.
        let last_use = keep > i && self.base == i;
        let mut row = if last_use {
            self.ring.pop_front().expect("row i is in the ring")
        } else {
            self.ring[i - self.base].clone()
        };
        let leaving = last_use.then(|| row.encoded_len());
        row.push(v);
        self.out.push(row)?;
        if let Some(bytes) = leaving {
            self.charge.leave(bytes);
            self.base += 1;
        }
        while self.base < keep {
            let row = self.ring.pop_front().expect("rows up to keep are valued");
            self.charge.leave(row.encoded_len());
            self.base += 1;
        }
        Ok(())
    }
}

impl Stream<'_> {
    /// A row of the open partition enters the ring.
    fn enter(&mut self, row: Row) {
        self.charge.enter(row.encoded_len());
        self.ring.push_back(row);
        self.received += 1;
    }

    /// The stage so far as a reader, and a fresh stage in its place.
    fn restage(&mut self, fresh: SegmentBuilder) -> Result<SegmentReader> {
        Ok(std::mem::replace(&mut self.stage, fresh).finish()?.read())
    }

    /// Row `idx` of the segment opens a partition.
    fn open_partition(&mut self, idx: usize) {
        self.part_starts.push(idx);
        self.lo = idx;
        self.groups_from = self.peer_starts.len();
        (self.base, self.received, self.total, self.next_emit) = (0, 0, None, 0);
        if let Some(frames) = &mut self.frames {
            frames.reset();
        }
    }
}

impl Group {
    /// Evaluate call `k` over a spilled segment: split partitions (and, for
    /// a call that resolves them, peer groups) off the stream with the
    /// comparison charges of the resident pass, evaluate each partition
    /// within the residency of the call's [`StreamableEval`] class, and
    /// stream the output through a store builder.
    pub(super) fn eval_spilled(
        &self,
        scratch: &mut Scratch,
        seg: Segment,
        k: usize,
    ) -> Result<Segment> {
        let env = &self.env;
        let call = &self.calls[k];
        let (n, mut rows, bounds) = seg.into_stream();
        let hold = match call.eval_class() {
            StreamableEval::OnePass => Hold::Staged,
            StreamableEval::Ring if scratch.evals[k].scans_first(&call.func) => Hold::Scanned,
            StreamableEval::Ring => Hold::Ring,
            StreamableEval::Buffered => Hold::Whole,
        };
        let frames = match call.frame_slot {
            Some(slot) => Some(scratch.frames[slot].resolver.clone()?),
            None => None,
        };
        let mut s = Stream {
            hold,
            wok: &self.wok,
            ring: VecDeque::new(),
            base: 0,
            received: 0,
            total: None,
            next_emit: 0,
            charge: env.store.ring_charge(),
            unit: env.store.hold(0, 0),
            behind: match call.func {
                WindowFunction::Lag { offset, .. } => offset as usize,
                _ => 0,
            },
            frames,
            stage: env.store.builder(),
            replay: None,
            out: env.store.builder(),
            part_starts: Vec::new(),
            peer_starts: Vec::new(),
            lo: 0,
            groups_from: 0,
        };
        scratch.evals[k].reset();
        let mut part_split = RunSplitter::new(&bounds, &self.wpk, n, env.reuse_bounds);
        // A whole partition resolves its peers as a resident one does.
        let mut peer_split = (call.needs_peers && hold != Hold::Whole)
            .then(|| RunSplitter::new(&bounds, &self.union_attrs, n, env.reuse_bounds));
        let mut prev: Option<Row> = None;
        let mut idx = 0usize;
        while let Some(row) = rows.next_row()? {
            let new_part = prev.as_ref().is_none_or(|p| {
                let eq = |a: &Row, b: &Row| self.wpk_eq(a, b);
                part_split.is_boundary(idx, p, &row, eq, false, &env.tracker)
            });
            if new_part {
                if idx > 0 {
                    self.close_partition(scratch, &mut s, k, &bounds)?;
                }
                s.open_partition(idx);
            }
            if let Some(split) = &mut peer_split {
                let new_group = prev.as_ref().is_none_or(|p| {
                    let eq = |a: &Row, b: &Row| self.wok_cmp.equal(a, b);
                    split.is_boundary(idx, p, &row, eq, new_part, &env.tracker)
                });
                if new_group {
                    s.peer_starts.push(idx);
                }
            }
            prev = Some(self.key_shadow(&row));
            self.arrive(scratch, &mut s, k, row)?;
            idx += 1;
        }
        if idx > 0 {
            self.close_partition(scratch, &mut s, k, &bounds)?;
        }
        env.tracker.move_rows(n as u64);
        let mut out_bounds = bounds;
        if n > 0 {
            if call.needs_peers {
                out_bounds.add_layer(self.union_attrs.clone(), s.peer_starts);
            }
            out_bounds.add_layer(self.wpk.clone(), s.part_starts);
        }
        Ok(Segment::from_handle(s.out.finish()?, out_bounds))
    }

    /// Projection of `row` to `WPK ∪ attr(WOK)` (other columns NULL).
    /// Boundary checks only read those attributes, so the walker keeps this
    /// shadow of the previous row instead of a copy of it.
    fn key_shadow(&self, row: &Row) -> Row {
        Row::new(
            (0..row.arity())
                .map(|i| {
                    let id = AttrId::new(i);
                    if self.union_attrs.contains(id) {
                        row.get(id).clone()
                    } else {
                        Value::Null
                    }
                })
                .collect(),
        )
    }

    /// A row of the open partition has arrived.
    fn arrive(&self, scratch: &mut Scratch, s: &mut Stream, k: usize, row: Row) -> Result<()> {
        let (eval, func) = (&mut scratch.evals[k], &self.calls[k].func);
        match s.hold {
            Hold::Ring => {
                s.enter(row);
                eval.advance(func, s, &self.env.tracker)
            }
            Hold::Scanned => {
                eval.observe(func, &row)?;
                s.stage.push(row)
            }
            Hold::Staged => {
                s.ring.push_back(row);
                s.received += 1;
                eval.advance(func, s, &self.env.tracker)?;
                s.base += 1;
                s.stage.push(s.ring.pop_front().expect("the row just read"))
            }
            Hold::Whole => {
                s.unit.grow(row.encoded_len(), 1);
                s.ring.push_back(row);
                Ok(())
            }
        }
    }

    /// The open partition is complete: value what is left of it and hand
    /// its rows on.
    fn close_partition(
        &self,
        scratch: &mut Scratch,
        s: &mut Stream,
        k: usize,
        bounds: &SegmentBounds,
    ) -> Result<()> {
        let (env, call) = (&self.env, &self.calls[k]);
        if s.hold == Hold::Whole {
            // A window of the carried bounds answers peer queries with the
            // boundaries and comparison charges of the absolute view.
            let len = s.ring.len();
            let window = bounds.window(s.lo, s.lo + len);
            scratch.peer_starts.clear();
            scratch.begin_partition();
            self.eval_partition(scratch, k, 0, s.ring.make_contiguous(), &window, 0..len)?;
            if call.needs_peers {
                let starts = scratch.peer_starts.iter().map(|p| p + s.lo);
                s.peer_starts.extend(starts);
            }
            for (mut row, v) in s.ring.drain(..).zip(scratch.columns[0].drain(..)) {
                row.push(v);
                s.out.push(row)?;
            }
            s.unit = env.store.hold(0, 0);
            return Ok(());
        }
        let eval = &mut scratch.evals[k];
        match s.hold {
            Hold::Scanned => {
                let mut staged = s.restage(env.store.builder())?;
                while let Some(row) = staged.next_row()? {
                    s.enter(row);
                    eval.advance(&call.func, s, &env.tracker)?;
                }
            }
            Hold::Staged => s.replay = Some(s.restage(env.store.builder())?),
            _ => {}
        }
        s.total = Some(s.received);
        eval.advance(&call.func, s, &env.tracker)?;
        s.replay = None;
        while let Some(row) = s.ring.pop_front() {
            s.charge.leave(row.encoded_len());
        }
        Ok(())
    }
}
