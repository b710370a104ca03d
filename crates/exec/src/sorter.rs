//! The shared sort machinery: in-memory sorts with comparison counting and
//! the external merge sort used by FS (whole relation), HS (oversized
//! buckets) and SS (oversized units).
//!
//! External sort follows the paper's cost-model assumptions (§3.4): run
//! formation by **replacement selection** (expected run length `2M`) and
//! **F-way merge** where `F` is bounded by the memory budget, iterating
//! until a single run remains. The final merge streams its output without
//! writing it back, which is why Eq. 1 charges `2·B·(⌈log_F(B/2M)⌉ + 1)`
//! including the output but not the input read.
//!
//! **Streaming inputs.** Run formation consumes a row *iterator*, not a
//! buffered `Vec<Row>`: [`sort_stream_to_handle`] feeds rows straight from
//! upstream segment readers into the replacement-selection heap and emits
//! the final merge into a [`wf_storage::SegmentStore`] builder, so a
//! blocking sort's resident set is `M` plus the pool budget — never the
//! relation. The `Vec` entry point [`sort_rows`] remains for unit sorts and
//! makes the identical in-memory/external decision (accumulating rows
//! against the ledger overflows exactly when the total exceeds `M`), so
//! both paths charge bit-identical counters on the same input.
//!
//! **One key path.** Every sort compares rows through a [`SortKey`], the
//! [`RowComparator`] of its specification: the in-memory sort is a stable
//! `sort_by`, and the replacement-selection and merge heaps hold plain
//! rows. Runs spill plain rows (`SpillFile::push`) and the merges read them
//! back as rows. The paper prices a reorder in comparisons and block I/O,
//! never in how a key is encoded, and the in-memory comparison charge is
//! the model's deterministic `n·⌈log₂n⌉`.
//!
//! **Stability.** Every sort path is **stable**: the in-memory sort keeps
//! tied rows in input order, replacement selection breaks heap ties on
//! arrival order (tied keys are never demoted to a later run, so runs hold
//! ties in arrival order and later runs hold later ties), and the merges
//! break ties on run formation rank. The engine's sorted output is
//! therefore a deterministic function of the input order alone — the same
//! rows in the same order at any `M`, which is the property that lets the
//! parallel scheduler (`crate::scheduler`) sort disjoint shards
//! independently and reassemble the exact serial output by ordered merge.
//! The tie-breaks ride on comparisons that were already charged, so
//! comparison *counts* stay the model's.
//!
//! **Boundary recording.** The sorted output visits every adjacent row pair
//! anyway, so FS/HS record partition-boundary layers *for free* during the
//! final merge (or the in-memory output scan): [`sort_stream_to_handle`]
//! takes the attribute-set prefixes to watch and returns a
//! [`SegmentBounds`] with one layer per prefix — the §3.3/§3.5 matched-
//! prefix layers a downstream window step starts from without re-deriving.
//! The equality checks are metadata derivation piggybacked on rows the
//! merge already moved; they never enter modeled time.

use crate::env::OpEnv;
use crate::segment::SegmentBounds;
use crate::util::HeapBy;
use std::cmp::Ordering;
use wf_common::{AttrSet, Result, Row, RowComparator, SortSpec, Value};
use wf_storage::{IoMeter, MemoryLedger, SegmentHandle, SegmentReader, SpillFile, SpillReader};

/// A sort key: the comparator for one specification. Build once per
/// operator, share across segments.
#[derive(Clone)]
pub struct SortKey {
    cmp: RowComparator,
}

impl SortKey {
    /// The key of `spec`.
    pub fn new(spec: &SortSpec) -> Self {
        SortKey {
            cmp: RowComparator::new(spec),
        }
    }

    /// The underlying comparator (boundary detection, tests).
    pub fn comparator(&self) -> &RowComparator {
        &self.cmp
    }
}

/// Sort a slice in memory, charging the model's `n·⌈log₂n⌉` comparisons.
///
/// A stable `sort_by` on the comparator: tied rows keep their input order.
/// The charge is the model's, a function of `n` alone, not a count of the
/// comparator's calls.
pub fn sort_in_memory(rows: &mut [Row], key: &SortKey, env: &OpEnv) {
    let n = rows.len();
    if n <= 1 {
        return;
    }
    let log2_ceil = (usize::BITS - (n - 1).leading_zeros()) as u64;
    env.tracker.compare(n as u64 * log2_ceil);
    let _span = env
        .trace
        .span_with("sort", || format!("in_memory.comparator n={n}"));
    rows.sort_by(|a, b| key.cmp.compare(a, b));
}

/// Sort `rows` under `key` within the environment's memory budget.
///
/// If the rows fit in `M` they are sorted in place with no I/O; otherwise
/// the external path (replacement selection + F-way merge) runs, charging
/// block reads/writes to the tracker. The result is fully sorted either way.
pub fn sort_rows(rows: Vec<Row>, key: &SortKey, env: &OpEnv) -> Result<Vec<Row>> {
    let mut ledger = env.ledger()?;
    let total_bytes: usize = rows.iter().map(Row::encoded_len).sum();
    if ledger.fits(total_bytes) {
        let mut rows = rows;
        sort_in_memory(&mut rows, key, env);
        return Ok(rows);
    }
    external_sort(rows, key, env, &mut ledger)
}

/// Sort a row *stream* under `key` into a store-managed segment handle,
/// never holding more than `M` (sort working memory) plus the pool budget.
///
/// Rows are accumulated against a fresh ledger; if the stream ends within
/// budget the buffered rows are sorted in memory (the identical decision
/// [`sort_rows`] makes from the total byte count), otherwise run formation
/// takes over the not-yet-consumed remainder of the stream. The sorted
/// output goes through the environment's segment store — resident when it
/// fits the pool, spilled when it does not — and `record` names the
/// attribute-set prefixes whose change positions are recorded as boundary
/// layers on the way out (see module docs).
///
/// Returns `(handle, bounds, row count)`.
pub fn sort_stream_to_handle(
    mut rows: impl Iterator<Item = Result<Row>>,
    key: &SortKey,
    env: &OpEnv,
    record: &[AttrSet],
) -> Result<(SegmentHandle, SegmentBounds, usize)> {
    let mut ledger = env.ledger()?;
    let mut buf: Vec<Row> = Vec::new();
    let mut overflow: Option<Row> = None;
    for r in rows.by_ref() {
        let row = r?;
        let bytes = row.encoded_len();
        if ledger.fits(bytes) {
            ledger.charge(bytes);
            buf.push(row);
        } else {
            overflow = Some(row);
            break;
        }
    }
    if overflow.is_none() {
        // Everything fits `M`: in-memory sort, then hand to the store.
        sort_in_memory(&mut buf, key, env);
        let n = buf.len();
        let bounds = record_prefix_layers(&buf, record);
        return Ok((env.store.admit(buf)?, bounds, n));
    }
    // External path — the same decision point as `sort_rows`: the total
    // exceeds the budget exactly when accumulation overflowed.
    ledger.release_all();
    let chained = buf.into_iter().chain(overflow).map(Ok).chain(rows.by_ref());
    let runs = form_runs_from(chained, key, env, &mut ledger)?;
    ledger.release_all();
    merge_runs_to_handle(runs, key, env, record)
}

/// Scan `rows` once and record, for every attribute set in `record`, the
/// start positions of its maximal equal runs — the boundary layers a sort
/// can emit for free. Uncharged metadata derivation (see module docs).
pub(crate) fn record_prefix_layers(rows: &[Row], record: &[AttrSet]) -> SegmentBounds {
    let mut bounds = SegmentBounds::none();
    if rows.is_empty() {
        return bounds;
    }
    for attrs in record {
        if attrs.is_empty() {
            continue;
        }
        let mut starts = vec![0usize];
        for i in 1..rows.len() {
            if !attrs.iter().all(|a| rows[i - 1].get(a) == rows[i].get(a)) {
                starts.push(i);
            }
        }
        bounds.add_layer(attrs.clone(), starts);
    }
    bounds
}

/// Streaming equivalent of [`record_prefix_layers`] for the final merge:
/// observes rows in output order and accumulates one layer per prefix.
/// Shared with the parallel scheduler's ordered merge, which records the
/// same layers at the same (free) price.
pub(crate) struct PrefixRecorder {
    sets: Vec<WatchedPrefix>,
    idx: usize,
}

/// One watched attribute set: its run starts so far and the previous row's
/// values on it — all a boundary check reads, kept in a buffer that is
/// overwritten row by row, so observing a row never copies it.
struct WatchedPrefix {
    attrs: AttrSet,
    starts: Vec<usize>,
    prev: Vec<Value>,
}

impl PrefixRecorder {
    pub(crate) fn new(record: &[AttrSet]) -> Self {
        let sets = record
            .iter()
            .filter(|a| !a.is_empty())
            .map(|a| WatchedPrefix {
                attrs: a.clone(),
                starts: Vec::new(),
                prev: Vec::new(),
            })
            .collect();
        PrefixRecorder { sets, idx: 0 }
    }

    pub(crate) fn observe(&mut self, row: &Row) {
        for set in &mut self.sets {
            let here = || set.attrs.iter().map(|a| row.get(a));
            if self.idx == 0 || !here().eq(&set.prev) {
                set.starts.push(self.idx);
            }
            // Every row, not only at a boundary: the slice scan compares
            // neighbours, and value equality is not transitive where an
            // `Int` meets a `Float` past 2^53.
            set.prev.clear();
            set.prev.extend(here().cloned());
        }
        self.idx += 1;
    }

    pub(crate) fn finish(self) -> SegmentBounds {
        let mut bounds = SegmentBounds::none();
        for set in self.sets {
            if !set.starts.is_empty() {
                bounds.add_layer(set.attrs, set.starts);
            }
        }
        bounds
    }
}

/// One input of a k-way merge: a sorted row stream and the rank its ties
/// break on, lowest first.
struct Source<S> {
    stream: S,
    rank: u64,
}

/// One sorted run on the spill device. Its rank is the formation rank
/// (arrival precedence): replacement selection emits tied keys into the
/// earliest-formed run that can take them, so merging ties rank-first
/// reproduces input arrival order. Intermediate merge passes propagate the
/// minimum rank of their inputs.
type Run = Source<SpillReader>;

/// Replacement-selection run formation over a row stream.
///
/// The heap holds as many rows as fit in `M`; each output row is appended to
/// the current run, and an incoming row joins the current run if it does not
/// precede the last row written, otherwise it is tagged for the next run.
/// Random input therefore yields runs of about `2M` (Knuth), matching Eq. 1.
fn form_runs_from(
    mut input: impl Iterator<Item = Result<Row>>,
    key: &SortKey,
    env: &OpEnv,
    ledger: &mut MemoryLedger,
) -> Result<Vec<Run>> {
    // Covers replacement selection *and* the run writes it interleaves with
    // (the external sort's spill-write phase).
    let _span = env.trace.span("sort", "run_formation");
    let cmp = key.cmp.clone();
    // (run_tag, arrival seq, row) ordered by tag, then key, then
    // arrival — the arrival tie-break makes run formation **stable**: tied
    // keys leave the heap in input order (they are never demoted to the
    // next run, so stability within a run is stability overall). A
    // deterministic, M-independent tie order is what lets the parallel
    // scheduler's sharded sorts reassemble the exact serial output.
    let mut heap = HeapBy::new(move |a: &(u64, u64, Row), b: &(u64, u64, Row)| {
        a.0.cmp(&b.0)
            .then_with(|| cmp.compare(&a.2, &b.2))
            .then(a.1.cmp(&b.1))
    });

    // Fill the heap up to the budget (a single oversized row is force-charged
    // so progress is always possible).
    let mut pending: Option<Row> = None;
    let mut seq = 0u64;
    for r in input.by_ref() {
        let row = r?;
        let bytes = row.encoded_len();
        if heap.is_empty() || ledger.fits(bytes) {
            ledger.charge(bytes);
            heap.push((0, seq, row));
            seq += 1;
            if !ledger.fits(0) {
                break;
            }
        } else {
            pending = Some(row);
            break;
        }
        if ledger.used_bytes() >= ledger.budget_bytes() {
            break;
        }
    }
    drain_heap_with_input(pending, input, heap, seq, key, env, ledger)
}

fn drain_heap_with_input(
    mut pending: Option<Row>,
    mut input: impl Iterator<Item = Result<Row>>,
    mut heap: HeapBy<(u64, u64, Row), impl FnMut(&(u64, u64, Row), &(u64, u64, Row)) -> Ordering>,
    mut seq: u64,
    key: &SortKey,
    env: &OpEnv,
    ledger: &mut MemoryLedger,
) -> Result<Vec<Run>> {
    let mut runs: Vec<Run> = Vec::new();
    let mut current_tag = 0u64;
    let mut current_file: Option<SpillFile> = None;
    let mut extra_cmp: u64 = 0;

    while let Some((tag, _, last)) = heap.pop() {
        ledger.release(last.encoded_len());
        if tag != current_tag || current_file.is_none() {
            if let Some(f) = current_file.take() {
                let rank = runs.len() as u64;
                runs.push(Run {
                    stream: f.into_reader()?,
                    rank,
                });
            }
            current_file = Some(env.store.spill_file(IoMeter::Model(env.tracker.clone()))?);
            current_tag = tag;
        }
        let file = current_file.as_mut().expect("file just ensured");
        file.push(&last)?;
        env.tracker.move_rows(1);
        // `last` is now the last tuple written to the current run; incoming
        // tuples that precede it must wait for the next run. Ties join the
        // current run (preserving stability).
        loop {
            let next = match pending.take() {
                Some(r) => Some(r),
                None => input.next().transpose()?,
            };
            let Some(next) = next else { break };
            let bytes = next.encoded_len();
            if !ledger.fits(bytes) && !heap.is_empty() {
                pending = Some(next);
                break;
            }
            ledger.charge(bytes);
            extra_cmp += 1;
            let tag_for_next = if key.cmp.compare(&next, &last) == Ordering::Less {
                current_tag + 1
            } else {
                current_tag
            };
            heap.push((tag_for_next, seq, next));
            seq += 1;
            if !ledger.fits(0) {
                break;
            }
        }
        env.tracker
            .compare(heap.take_comparisons() + std::mem::take(&mut extra_cmp));
    }
    if let Some(f) = current_file.take() {
        let rank = runs.len() as u64;
        runs.push(Run {
            stream: f.into_reader()?,
            rank,
        });
    }
    env.tracker.compare(heap.take_comparisons() + extra_cmp);
    Ok(runs)
}

/// Merge fan-in: one block per input run plus one output block, minimum 2.
pub fn merge_fan_in(mem_blocks: u64) -> usize {
    (mem_blocks.saturating_sub(1)).max(2) as usize
}

/// Reduce `runs` to at most one merge fan-in's worth with balanced
/// intermediate passes, **in formation-rank order**: each pass merges
/// adjacent groups of `f` runs into a fresh pass output, so every
/// intermediate run covers a contiguous arrival interval and the min-rank
/// tie-break in [`merge_into`] stays faithful to arrival order at every
/// level. (Appending merged runs back onto the same work list would let a
/// later batch mix non-contiguous ranks — e.g. `[run 4, merged(0,1)]`
/// carrying min-rank 0 — which breaks ties differently per fan-in and
/// makes the tie order depend on `M`.)
fn reduce_runs(mut runs: Vec<Run>, key: &SortKey, env: &OpEnv) -> Result<Vec<Run>> {
    let f = merge_fan_in(env.mem_blocks);
    while runs.len() > f {
        // One span per intermediate pass: each reads every remaining run
        // back from the spill device and writes the merged outputs to it.
        let n_runs = runs.len();
        let _span = env
            .trace
            .span_with("sort", || format!("merge_pass runs={n_runs} fan_in={f}"));
        let mut next: Vec<Run> = Vec::with_capacity(runs.len().div_ceil(f));
        let mut iter = runs.into_iter().peekable();
        while iter.peek().is_some() {
            let batch: Vec<Run> = iter.by_ref().take(f).collect();
            if batch.len() == 1 {
                next.extend(batch);
                continue;
            }
            let rank = batch.iter().map(|r| r.rank).min().unwrap_or(0);
            let mut out = env.store.spill_file(IoMeter::Model(env.tracker.clone()))?;
            merge_into(batch, SpillReader::next_row, key, env, |row| out.push(&row))?;
            next.push(Run {
                stream: out.into_reader()?,
                rank,
            });
        }
        runs = next;
    }
    Ok(runs)
}

/// Merge runs down to a single materialized stream; intermediate passes
/// write new runs, the final pass emits rows directly.
fn merge_runs(runs: Vec<Run>, key: &SortKey, env: &OpEnv) -> Result<Vec<Row>> {
    let runs = reduce_runs(runs, key, env)?;
    let _span = env.trace.span("sort", "final_merge");
    let mut result = Vec::new();
    merge_into(runs, SpillReader::next_row, key, env, |row| {
        result.push(row);
        Ok(())
    })?;
    Ok(result)
}

/// Like [`merge_runs`] but the final pass streams into a segment-store
/// builder (bounded residency) and records boundary layers on the way.
fn merge_runs_to_handle(
    runs: Vec<Run>,
    key: &SortKey,
    env: &OpEnv,
    record: &[AttrSet],
) -> Result<(SegmentHandle, SegmentBounds, usize)> {
    let runs = reduce_runs(runs, key, env)?;
    let _span = env.trace.span("sort", "final_merge");
    merge_to_handle(runs, SpillReader::next_row, key, env, record)
}

/// K-way ordered merge of already-sorted, store-managed segments into one
/// store-managed segment — the parallel scheduler's reassembly step
/// (`wf_exec::scheduler`). Charges one comparison per heap comparison and
/// one row move per emitted row to the *caller's* tracker (the merge is
/// serial chain work, not worker work), and records boundary layers for
/// the `record` prefixes exactly like the final merge of a serial sort.
/// Ties across inputs break by input index; inputs whose key sets include
/// the shard key never produce such ties, so the merged order equals the
/// serial sort's.
pub(crate) fn merge_sorted_handles(
    handles: Vec<SegmentHandle>,
    key: &SortKey,
    env: &OpEnv,
    record: &[AttrSet],
) -> Result<(SegmentHandle, SegmentBounds, usize)> {
    let n_handles = handles.len();
    let _span = env
        .trace
        .span_with("sort", || format!("merge_handles inputs={n_handles}"));
    let sources = (0..).zip(handles).map(|(rank, h)| Source {
        stream: h.read(),
        rank,
    });
    merge_to_handle(sources.collect(), SegmentReader::next_row, key, env, record)
}

/// [`merge_into`] streaming into a segment-store builder, recording the
/// `record` prefixes' boundary layers on the way. Returns `(handle, bounds,
/// row count)`.
fn merge_to_handle<S>(
    sources: Vec<Source<S>>,
    next: impl FnMut(&mut S) -> Result<Option<Row>>,
    key: &SortKey,
    env: &OpEnv,
    record: &[AttrSet],
) -> Result<(SegmentHandle, SegmentBounds, usize)> {
    let mut builder = env.store.builder();
    let mut recorder = PrefixRecorder::new(record);
    let mut n = 0usize;
    merge_into(sources, next, key, env, |row| {
        recorder.observe(&row);
        builder.push(row)?;
        n += 1;
        Ok(())
    })?;
    Ok((builder.finish()?, recorder.finish(), n))
}

/// The k-way merge: `next` reads each source's sorted rows and `emit` is
/// handed the rows in order. Ties break by source rank. For runs that is
/// formation rank: replacement selection puts tied keys into the current
/// run in arrival order (never a later one), so rank order *is* arrival
/// order for ties — the merge preserves the stable total order end to end.
fn merge_into<S>(
    sources: Vec<Source<S>>,
    mut next: impl FnMut(&mut S) -> Result<Option<Row>>,
    key: &SortKey,
    env: &OpEnv,
    mut emit: impl FnMut(Row) -> Result<()>,
) -> Result<()> {
    let (mut streams, ranks): (Vec<S>, Vec<u64>) =
        sources.into_iter().map(|s| (s.stream, s.rank)).unzip();
    let cmp = key.cmp.clone();
    let mut heap = HeapBy::new(move |a: &(Row, usize), b: &(Row, usize)| {
        cmp.compare(&a.0, &b.0).then(ranks[a.1].cmp(&ranks[b.1]))
    });
    for (i, s) in streams.iter_mut().enumerate() {
        if let Some(row) = next(s)? {
            heap.push((row, i));
        }
    }
    while let Some((row, i)) = heap.pop() {
        emit(row)?;
        env.tracker.move_rows(1);
        if let Some(row) = next(&mut streams[i])? {
            heap.push((row, i));
        }
    }
    env.tracker.compare(heap.take_comparisons());
    Ok(())
}

/// External sort (run formation + merge) of rows that overflowed `ledger`.
fn external_sort(
    rows: Vec<Row>,
    key: &SortKey,
    env: &OpEnv,
    ledger: &mut MemoryLedger,
) -> Result<Vec<Row>> {
    if rows.len() <= 1 {
        return Ok(rows);
    }
    ledger.release_all();
    let runs = form_runs_from(rows.into_iter().map(Ok), key, env, ledger)?;
    ledger.release_all();
    merge_runs(runs, key, env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::{row, AttrId, OrdElem, SortSpec};
    use wf_storage::BLOCK_SIZE;

    fn cmp_on0() -> SortKey {
        SortKey::new(&SortSpec::new(vec![OrdElem::asc(AttrId::new(0))]))
    }

    fn make_rows(n: usize, seed: u64) -> Vec<Row> {
        // Simple LCG keeps the crate free of dev-only rand here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                row![(state >> 33) as i64 % 10_000, "padding-padding-padding"]
            })
            .collect()
    }

    fn assert_sorted(rows: &[Row], key: &SortKey) {
        for w in rows.windows(2) {
            assert_ne!(
                key.comparator().compare(&w[0], &w[1]),
                Ordering::Greater,
                "rows out of order"
            );
        }
    }

    fn form_runs(
        rows: Vec<Row>,
        key: &SortKey,
        env: &OpEnv,
        ledger: &mut MemoryLedger,
    ) -> Result<Vec<Run>> {
        form_runs_from(rows.into_iter().map(Ok), key, env, ledger)
    }

    #[test]
    fn in_memory_path_no_io() {
        let env = OpEnv::with_memory_blocks(1024);
        let rows = make_rows(500, 1);
        let sorted = sort_rows(rows.clone(), &cmp_on0(), &env).unwrap();
        assert_eq!(sorted.len(), rows.len());
        assert_sorted(&sorted, &cmp_on0());
        let s = env.tracker.snapshot();
        assert_eq!(s.io_blocks(), 0, "in-memory sort must not touch the device");
        assert!(s.comparisons > 0);
    }

    #[test]
    fn external_path_sorts_and_charges_io() {
        // ~40 rows per block; 4000 rows ≈ 100+ blocks against a 4-block M.
        let env = OpEnv::with_memory_blocks(4);
        let rows = make_rows(4000, 2);
        let sorted = sort_rows(rows.clone(), &cmp_on0(), &env).unwrap();
        assert_eq!(sorted.len(), rows.len());
        assert_sorted(&sorted, &cmp_on0());
        let s = env.tracker.snapshot();
        assert!(s.blocks_written > 0);
        assert!(
            s.blocks_read >= s.blocks_written,
            "every written block is read back"
        );
    }

    #[test]
    fn external_sort_is_multiset_preserving() {
        let env = OpEnv::with_memory_blocks(2);
        let rows = make_rows(1500, 3);
        let mut expected: Vec<i64> = rows
            .iter()
            .map(|r| r.get(AttrId::new(0)).as_int().unwrap())
            .collect();
        expected.sort_unstable();
        let sorted = sort_rows(rows, &cmp_on0(), &env).unwrap();
        let got: Vec<i64> = sorted
            .iter()
            .map(|r| r.get(AttrId::new(0)).as_int().unwrap())
            .collect();
        assert_eq!(got, expected);
    }

    /// Tie order is stable (arrival order) and independent of `M` — even
    /// when a small fan-in forces multi-level intermediate merges. The
    /// payload column distinguishes tied keys, so any rank-propagation
    /// slip in the merge cascade shows up as a row-order diff.
    #[test]
    fn external_sort_tie_order_is_m_independent() {
        let mut state = 7u64;
        let rows: Vec<Row> = (0..4000)
            .map(|i: i64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                row![((state >> 33) % 40) as i64, i, "padding-padding-padding"]
            })
            .collect();
        let reference =
            sort_rows(rows.clone(), &cmp_on0(), &OpEnv::with_memory_blocks(1024)).unwrap();
        // In-memory reference is stable by construction: ties in arrival order.
        for w in reference.windows(2) {
            if w[0].get(AttrId::new(0)) == w[1].get(AttrId::new(0)) {
                assert!(
                    w[0].get(AttrId::new(1)).as_int().unwrap()
                        < w[1].get(AttrId::new(1)).as_int().unwrap(),
                    "reference must be stable"
                );
            }
        }
        for m in [1u64, 2, 3, 4, 7] {
            let sorted =
                sort_rows(rows.clone(), &cmp_on0(), &OpEnv::with_memory_blocks(m)).unwrap();
            assert_eq!(sorted, reference, "M={m}");
        }
    }

    #[test]
    fn replacement_selection_runs_are_about_2m() {
        // Sorted-ish input would give one run; random gives ~2M runs.
        let env = OpEnv::with_memory_blocks(4);
        let rows = make_rows(4000, 4);
        let bytes: usize = rows.iter().map(Row::encoded_len).sum();
        let blocks = bytes.div_ceil(BLOCK_SIZE) as u64;
        let mut ledger = env.ledger().unwrap();
        let runs = form_runs(rows, &cmp_on0(), &env, &mut ledger).unwrap();
        // Expected ≈ B / 2M, allow generous slack either way.
        let expected = blocks.div_ceil(2 * env.mem_blocks);
        assert!(
            (runs.len() as u64) <= expected * 2 && (runs.len() as u64) >= expected / 2,
            "runs={} expected≈{}",
            runs.len(),
            expected
        );
    }

    #[test]
    fn presorted_input_forms_single_run() {
        let env = OpEnv::with_memory_blocks(4);
        let mut rows = make_rows(3000, 5);
        rows.sort_by(|a, b| cmp_on0().comparator().compare(a, b));
        let mut ledger = env.ledger().unwrap();
        let runs = form_runs(rows, &cmp_on0(), &env, &mut ledger).unwrap();
        assert_eq!(
            runs.len(),
            1,
            "replacement selection turns sorted input into one run"
        );
    }

    #[test]
    fn tiny_memory_still_sorts() {
        let env = OpEnv::with_memory_blocks(1);
        let rows = make_rows(800, 6);
        let sorted = sort_rows(rows, &cmp_on0(), &env).unwrap();
        assert_sorted(&sorted, &cmp_on0());
        assert_eq!(sorted.len(), 800);
    }

    #[test]
    fn empty_and_single_inputs() {
        let env = OpEnv::with_memory_blocks(2);
        assert!(sort_rows(vec![], &cmp_on0(), &env).unwrap().is_empty());
        let one = sort_rows(vec![row![42, "x"]], &cmp_on0(), &env).unwrap();
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn duplicates_preserved() {
        let env = OpEnv::with_memory_blocks(1);
        let rows: Vec<Row> = (0..1000)
            .map(|i| row![i % 3, "padpadpadpadpadpad"])
            .collect();
        let sorted = sort_rows(rows, &cmp_on0(), &env).unwrap();
        assert_eq!(sorted.len(), 1000);
        let zeros = sorted
            .iter()
            .filter(|r| r.get(AttrId::new(0)).as_int() == Some(0))
            .count();
        assert!((333..=334).contains(&zeros));
        assert_sorted(&sorted, &cmp_on0());
    }

    #[test]
    fn merge_fan_in_floor() {
        assert_eq!(merge_fan_in(1), 2);
        assert_eq!(merge_fan_in(2), 2);
        assert_eq!(merge_fan_in(3), 2);
        assert_eq!(merge_fan_in(10), 9);
    }

    #[test]
    fn more_memory_means_fewer_or_equal_io_blocks() {
        let rows = make_rows(6000, 7);
        let env_small = OpEnv::with_memory_blocks(2);
        let env_large = OpEnv::with_memory_blocks(64);
        sort_rows(rows.clone(), &cmp_on0(), &env_small).unwrap();
        sort_rows(rows, &cmp_on0(), &env_large).unwrap();
        let small = env_small.tracker.snapshot().io_blocks();
        let large = env_large.tracker.snapshot().io_blocks();
        assert!(
            large <= small,
            "large-M I/O ({large}) must not exceed small-M I/O ({small})"
        );
    }

    /// The streaming entry point makes the same in-memory/external decision
    /// and charges the same modeled counters as the `Vec` entry point.
    #[test]
    fn stream_and_vec_sorts_charge_identical_counters() {
        for (n, mem) in [(400usize, 1024u64), (4000, 4), (1500, 2)] {
            let rows = make_rows(n, 8);
            let env_vec = OpEnv::with_memory_blocks(mem);
            let sorted_vec = sort_rows(rows.clone(), &cmp_on0(), &env_vec).unwrap();

            let env_stream = OpEnv::with_memory_blocks(mem);
            let (handle, _, count) =
                sort_stream_to_handle(rows.into_iter().map(Ok), &cmp_on0(), &env_stream, &[])
                    .unwrap();
            assert_eq!(count, n);
            let sorted_stream = handle.into_rows().unwrap();
            assert_eq!(sorted_vec, sorted_stream, "n={n} M={mem}");
            assert_eq!(
                env_vec.tracker.snapshot().modeled_counters(),
                env_stream.tracker.snapshot().modeled_counters(),
                "n={n} M={mem}"
            );
        }
    }

    /// Boundary recording marks exactly the prefix-change positions of the
    /// sorted output, on both the in-memory and external paths.
    #[test]
    fn recorded_layers_match_output_runs() {
        let spec = SortSpec::new(vec![
            OrdElem::asc(AttrId::new(0)),
            OrdElem::asc(AttrId::new(1)),
        ]);
        let sk = SortKey::new(&spec);
        let wpk = AttrSet::from_iter([AttrId::new(0)]);
        for mem in [1024u64, 2] {
            let rows: Vec<Row> = (0..1000)
                .map(|i| row![(i % 7) as i64, ((i * 31) % 11) as i64, "pad-pad-pad-pad"])
                .collect();
            let env = OpEnv::with_memory_blocks(mem);
            let (handle, bounds, _) = sort_stream_to_handle(
                rows.into_iter().map(Ok),
                &sk,
                &env,
                std::slice::from_ref(&wpk),
            )
            .unwrap();
            let sorted = handle.into_rows().unwrap();
            let layer = bounds
                .layers()
                .iter()
                .find(|l| l.attrs == wpk)
                .expect("wpk layer recorded");
            let mut expect = vec![0usize];
            for i in 1..sorted.len() {
                if sorted[i - 1].get(AttrId::new(0)) != sorted[i].get(AttrId::new(0)) {
                    expect.push(i);
                }
            }
            assert_eq!(layer.starts, expect, "M={mem}");
        }
    }

    /// SplitMix64 — independent streams per seed, good avalanche; drives
    /// the adversarial-value generators below.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Rows whose sort keys hit the comparator's edges: NaN and ±0.0
    /// floats, empty strings and strings containing NUL bytes, ints beyond
    /// 2^53 (lossy under an f64 cast), NULLs, and plain values.
    fn adversarial_rows(n: usize, seed: u64, include_lossy: bool) -> Vec<Row> {
        use wf_common::Value;
        let mut st = seed;
        (0..n)
            .map(|_| {
                let r = splitmix64(&mut st);
                let v = match r % 12 {
                    0 => Value::Float(f64::NAN),
                    1 => Value::Float(0.0),
                    2 => Value::Float(-0.0),
                    3 => Value::Str("".into()),
                    4 => Value::Str("a\0b".into()),
                    5 => Value::Str("\0".into()),
                    6 if include_lossy => Value::Int((1i64 << 53) + 1 + (r >> 32) as i64),
                    7 => Value::Null,
                    8 => Value::Float(((r >> 16) as i64 as f64) / 7.0),
                    9 => Value::Str(format!("s{}", r % 50).into()),
                    _ => Value::Int((r % 1000) as i64 - 500),
                };
                Row::new(vec![v, Value::Int((splitmix64(&mut st) % 97) as i64)])
            })
            .collect()
    }

    /// In memory and external, the sorter returns exactly what a std stable
    /// sort on the comparator returns, on adversarial key distributions.
    #[test]
    fn sorts_equal_a_stable_comparator_sort_on_adversarial_values() {
        let spec = SortSpec::new(vec![
            OrdElem::asc(AttrId::new(0)),
            OrdElem::desc(AttrId::new(1)),
        ]);
        let sk = SortKey::new(&spec);
        for (seed, include_lossy) in [(11u64, false), (12, true), (13, false), (14, true)] {
            let rows = adversarial_rows(1200, seed, include_lossy);
            let mut expect = rows.clone();
            expect.sort_by(|a, b| sk.comparator().compare(a, b));
            for mem in [1024u64, 3] {
                let env = OpEnv::with_memory_blocks(mem);
                let sorted = sort_rows(rows.clone(), &sk, &env).unwrap();
                assert_eq!(sorted, expect, "seed={seed} lossy={include_lossy} M={mem}");
                assert_eq!(env.tracker.snapshot().key_encodes, 0);
            }
        }
    }

    /// The in-memory comparison charge is the deterministic `n·⌈log₂n⌉`
    /// regardless of key distribution.
    #[test]
    fn in_memory_comparison_charge_is_the_model_formula() {
        for n in [0usize, 1, 2, 3, 4, 500, 1000] {
            let expected = match n {
                0 | 1 => 0,
                n => n as u64 * (usize::BITS - (n - 1).leading_zeros()) as u64,
            };
            let env = OpEnv::with_memory_blocks(1 << 20);
            let mut rows = make_rows(n, n as u64);
            sort_in_memory(&mut rows, &cmp_on0(), &env);
            assert_eq!(env.tracker.snapshot().comparisons, expected, "n={n}");
        }
    }

    /// Rows with equal keys keep input order in memory.
    #[test]
    fn in_memory_sort_is_stable() {
        let rows: Vec<Row> = (0..800).map(|i| row![(i % 5) as i64, i as i64]).collect();
        let env = OpEnv::with_memory_blocks(1 << 20);
        let mut sorted = rows.clone();
        sort_in_memory(&mut sorted, &cmp_on0(), &env);
        let mut expect = rows;
        expect.sort_by(|a, b| {
            a.get(AttrId::new(0))
                .as_int()
                .cmp(&b.get(AttrId::new(0)).as_int())
        });
        assert_eq!(sorted, expect, "stable sort must preserve arrival order");
    }

    /// An external sort with intermediate merge passes returns the in-memory
    /// sort's rows and encodes no key on any pass.
    #[test]
    fn external_runs_match_the_in_memory_sort() {
        let spec = SortSpec::new(vec![OrdElem::asc(AttrId::new(0))]);
        let sk = SortKey::new(&spec);
        let rows = adversarial_rows(3000, 21, false);
        let env = OpEnv::with_memory_blocks(2);
        let external = sort_rows(rows.clone(), &sk, &env).unwrap();
        let work = env.tracker.snapshot();
        assert!(work.io_blocks() > 0, "must spill");
        assert_eq!(work.key_encodes, 0);
        let mut in_memory = rows.clone();
        sort_in_memory(&mut in_memory, &sk, &OpEnv::with_memory_blocks(1 << 20));
        assert_eq!(external, in_memory);
        // More runs than one merge takes: at least one intermediate pass.
        let runs = form_runs(rows, &sk, &env, &mut env.ledger().unwrap()).unwrap();
        assert!(runs.len() > merge_fan_in(env.mem_blocks));
    }

    /// A sort key far longer than any length field of the spill format
    /// sorts externally like any other.
    #[test]
    fn wide_keys_sort_externally() {
        let wide = |c: char| format!("{}{c}", "w".repeat(70_000));
        let rows: Vec<Row> = ['d', 'b', 'a', 'c']
            .into_iter()
            .enumerate()
            .map(|(i, c)| row![wide(c), i as i64])
            .collect();
        let env = OpEnv::with_memory_blocks(1);
        let sorted = sort_rows(rows.clone(), &cmp_on0(), &env).unwrap();
        assert!(env.tracker.snapshot().io_blocks() > 0, "must spill");
        let mut expect = rows;
        expect.sort_by(|a, b| cmp_on0().comparator().compare(a, b));
        assert_eq!(sorted, expect);
    }

    /// The streaming recorder marks the boundaries the slice scan marks —
    /// values equal across types (`2` and `2.0`) included — and holds no
    /// copy of a row it was shown.
    #[test]
    fn prefix_recorder_matches_the_slice_scan_without_copying_rows() {
        use wf_common::{Text, Value};
        let payload = Text::from("payload-no-boundary-check-reads");
        let mut st = 5u64;
        let rows: Vec<Row> = (0..400)
            .map(|i| {
                let a = (i / 40) as i64;
                let b = if splitmix64(&mut st).is_multiple_of(2) {
                    Value::Int((i / 8) as i64)
                } else {
                    Value::Float((i / 8) as f64)
                };
                Row::new(vec![Value::Int(a), b, Value::Str(payload.clone())])
            })
            .collect();
        let sets = [
            AttrSet::from_iter([AttrId::new(0)]),
            AttrSet::from_iter([AttrId::new(0), AttrId::new(1)]),
        ];
        let mut recorder = PrefixRecorder::new(&sets);
        for row in &rows {
            recorder.observe(row);
            assert_eq!(payload.ref_count(), rows.len() + 1);
        }
        let streamed = recorder.finish();
        let scanned = record_prefix_layers(&rows, &sets);
        assert_eq!(streamed.layers().len(), 2);
        for (a, b) in streamed.layers().iter().zip(scanned.layers()) {
            assert_eq!((&a.attrs, &a.starts), (&b.attrs, &b.starts));
        }
        assert_eq!(streamed.layers()[0].starts.len(), 10);
        assert_eq!(streamed.layers()[1].starts.len(), 50);
    }
}
