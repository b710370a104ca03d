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
//! **Normalized keys.** Every sort path compares rows through a
//! [`SortKey`], which pairs the [`RowComparator`] with a
//! [`wf_common::KeyNormalizer`]. When the environment enables
//! `norm_keys` (the default), each row's sort key is encoded once into a
//! byte-comparable buffer and every subsequent comparison is a `memcmp` —
//! the byte order is proven equal to the comparator order, so outputs,
//! comparison *counts* and spill I/O are bit-identical to the comparator
//! path (a row whose key cannot be normalized simply falls back to the
//! comparator for its comparisons). Keys carried through the external-sort
//! heaps are stored in a **fixed-width inline buffer** (`InlineKey`) when
//! they fit (the common case: a handful of numeric key columns), so keying
//! a row costs zero heap allocations; only oversized keys spill to a
//! `Vec<u8>`. Keys live only in memory: a run spills plain rows
//! (`SpillFile::push`), and every merge keys each row it reads back, so a
//! row's key is encoded once per pass over it — at run formation and at
//! each merge that reads it. The in-memory sort is an **LSD radix sort** over
//! 8-byte big-endian key prefixes (comparator fallback for non-normalizable
//! inputs, full-key resolution for prefix ties) with the row index as the
//! final tie-break — stable output, no merge buffer, and in the common case
//! no comparator dispatch at all. Its comparison charge is the model's
//! deterministic `n·⌈log₂n⌉` in every configuration.
//!
//! **Stability.** Every sort path is **stable**: the in-memory sort breaks
//! ties on the original index, replacement selection breaks heap ties on
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
//! merge already moved; like key encoding they never enter modeled time.

use crate::env::OpEnv;
use crate::segment::SegmentBounds;
use crate::util::HeapBy;
use std::cmp::Ordering;
use wf_common::{AttrSet, KeyNormalizer, Result, Row, RowComparator, SortSpec, Value};
use wf_storage::{IoMeter, MemoryLedger, SegmentHandle, SegmentReader, SpillFile, SpillReader};

/// A sort key: the comparator plus the normalized-key encoder for the same
/// specification. Build once per operator, share across segments.
#[derive(Clone)]
pub struct SortKey {
    cmp: RowComparator,
    norm: KeyNormalizer,
}

impl SortKey {
    /// Key machinery for `spec`.
    pub fn new(spec: &SortSpec) -> Self {
        SortKey {
            cmp: RowComparator::new(spec),
            norm: KeyNormalizer::new(spec),
        }
    }

    /// The underlying comparator (boundary detection, tests).
    pub fn comparator(&self) -> &RowComparator {
        &self.cmp
    }
}

/// Inline capacity of a carried normalized key. 23 bytes + 1 length byte
/// keeps the enum at 24 bytes and covers two numeric key columns (9 bytes
/// each) with room to spare; longer keys (strings, wide composites) fall
/// back to one heap allocation.
const INLINE_KEY_CAP: usize = 23;

/// A normalized sort key as carried through the external-sort heaps:
/// fixed-width inline storage for small keys, heap fallback for large ones.
/// Replaces the one-`Vec<u8>`-per-keyed-row allocation the heaps used to
/// make (see the fig3 microbench's allocation counts).
pub(crate) enum InlineKey {
    Inline { len: u8, buf: [u8; INLINE_KEY_CAP] },
    Heap(Vec<u8>),
}

impl InlineKey {
    fn from_slice(s: &[u8]) -> Self {
        if s.len() <= INLINE_KEY_CAP {
            let mut buf = [0u8; INLINE_KEY_CAP];
            buf[..s.len()].copy_from_slice(s);
            InlineKey::Inline {
                len: s.len() as u8,
                buf,
            }
        } else {
            InlineKey::Heap(s.to_vec())
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            InlineKey::Inline { len, buf } => &buf[..*len as usize],
            InlineKey::Heap(v) => v,
        }
    }
}

/// A row with its (optional) normalized key, as carried through the
/// external-sort heaps.
struct KeyedRow {
    key: Option<InlineKey>,
    row: Row,
}

impl KeyedRow {
    /// Key `row`, encoding through `scratch` (reused across rows so small
    /// keys never allocate).
    fn new(row: Row, sk: &SortKey, env: &OpEnv, scratch: &mut Vec<u8>) -> Self {
        let key = if env.norm_keys {
            scratch.clear();
            if sk.norm.encode_into(&row, scratch) {
                env.tracker.encode_keys(1);
                Some(InlineKey::from_slice(scratch))
            } else {
                None
            }
        } else {
            None
        };
        KeyedRow { key, row }
    }

    /// Byte comparison when both sides are normalized, comparator
    /// otherwise. Both define the same total order, so mixing is sound.
    #[inline]
    fn compare(&self, other: &KeyedRow, cmp: &RowComparator) -> Ordering {
        match (&self.key, &other.key) {
            (Some(a), Some(b)) => a.as_slice().cmp(b.as_slice()),
            _ => cmp.compare(&self.row, &other.row),
        }
    }
}

/// Sort a slice in memory, charging the model's `n·⌈log₂n⌉` comparisons.
///
/// Two backends produce the identical stable permutation:
///
/// * **LSD radix** (taken whenever every row's key normalized): stable
///   counting-sort passes over the 8-byte big-endian key prefix, least
///   significant byte first, skipping bytes that are uniform across the
///   input; equal-prefix runs (keys longer than the prefix, or genuinely
///   tied) are resolved by the full arena slices with the original index as
///   the final tie-break. No comparator callbacks at all in the common case.
///   Below `RADIX_MIN_ROWS` rows the same `(prefix, index)` pairs are
///   ordered by comparing them — the same permutation for less than the
///   passes' fixed cost.
/// * **Comparator fallback** (normalization off, or any lossy value):
///   `sort_unstable_by` over `(prefix, index)` exactly as before.
///
/// Because the radix backend makes no comparator callbacks, the comparison
/// *charge* is the model's deterministic `n·⌈log₂n⌉` in **every**
/// configuration — the count is a function of `n` alone, so equivalence
/// suites that flip `norm_keys` or swap backends still see bit-identical
/// modeled counters.
pub fn sort_in_memory(rows: &mut [Row], key: &SortKey, env: &OpEnv) {
    let n = rows.len();
    if n <= 1 {
        return;
    }
    // Encode all keys into a shared arena; spans[i] = None → fallback row.
    let (arena, spans) = if env.norm_keys {
        let mut arena: Vec<u8> = Vec::with_capacity(n * 12);
        let mut spans: Vec<Option<(u32, u32)>> = Vec::with_capacity(n);
        let mut encoded = 0u64;
        for row in rows.iter() {
            let start = arena.len() as u32;
            if key.norm.encode_into(row, &mut arena) {
                spans.push(Some((start, arena.len() as u32)));
                encoded += 1;
            } else {
                spans.push(None);
            }
        }
        env.tracker.encode_keys(encoded);
        (arena, spans)
    } else {
        (Vec::new(), vec![None; n])
    };

    // Decorate each index with the key's first 8 bytes (zero-padded,
    // big-endian): the radix backend's digit source, and a register compare
    // for most fallback comparisons. Zero padding is sound: two distinct
    // keys of one spec differ at a byte before either ends, so a padded
    // prefix never contradicts the full comparison — it can only tie.
    let all_encoded = spans.iter().all(Option::is_some);
    let mut perm: Vec<(u64, u32)> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let p = match s {
                Some((start, end)) if all_encoded => {
                    let k = &arena[*start as usize..*end as usize];
                    let mut p = [0u8; 8];
                    let take = k.len().min(8);
                    p[..take].copy_from_slice(&k[..take]);
                    u64::from_be_bytes(p)
                }
                _ => 0,
            };
            (p, i as u32)
        })
        .collect();
    // Model charge: n·⌈log₂n⌉ — deterministic in n so both backends (and
    // every toggle configuration) charge the same comparisons.
    let log2_ceil = (usize::BITS - (n - 1).leading_zeros()) as u64;
    env.tracker.compare(n as u64 * log2_ceil);
    if all_encoded {
        let _span = env
            .trace
            .span_with("sort", || format!("in_memory.radix n={n}"));
        if n < RADIX_MIN_ROWS {
            // `(prefix, index)` in tuple order is what the stable radix
            // passes arrive at from index order.
            perm.sort_unstable();
        } else {
            radix_sort_prefixes(&mut perm);
        }
        // Radix is stable and `perm` started in index order, so equal-prefix
        // runs are already index-ordered; only runs whose *full* keys may
        // still differ (key longer than the prefix) need the slice compare.
        let full = |i: u32| {
            let (s, e) = spans[i as usize].expect("all rows encoded on this path");
            &arena[s as usize..e as usize]
        };
        let mut i = 0usize;
        while i < n {
            let mut j = i + 1;
            while j < n && perm[j].0 == perm[i].0 {
                j += 1;
            }
            if j - i > 1 && full(perm[i].1).len() > 8 {
                perm[i..j].sort_unstable_by(|&(_, ia), &(_, ib)| {
                    full(ia).cmp(full(ib)).then(ia.cmp(&ib))
                });
            }
            i = j;
        }
    } else {
        let _span = env
            .trace
            .span_with("sort", || format!("in_memory.comparator n={n}"));
        perm.sort_unstable_by(|&(pa, ia), &(pb, ib)| {
            pa.cmp(&pb)
                .then_with(|| match (spans[ia as usize], spans[ib as usize]) {
                    (Some((sa, ea)), Some((sb, eb))) => {
                        arena[sa as usize..ea as usize].cmp(&arena[sb as usize..eb as usize])
                    }
                    _ => key.cmp.compare(&rows[ia as usize], &rows[ib as usize]),
                })
                .then(ia.cmp(&ib))
        });
    }
    apply_permutation(rows, &mut perm);
}

/// Inputs shorter than this order their `(prefix, index)` pairs by
/// comparison instead of by radix passes: a pass costs a 256-counter
/// histogram whatever `n` is, and a hash bucket or an SS unit is often a
/// couple of dozen rows. Both produce the same permutation, so this is a
/// wall-clock cutover only; the value is where the two cross in
/// `benches/segment_handoff.rs` (`sort_in_memory` at n = 2 … 1 560).
const RADIX_MIN_ROWS: usize = 128;

/// LSD radix sort of `(prefix, index)` pairs on the 8 prefix bytes: one
/// stable counting-sort pass per byte, least significant first, skipping
/// bytes that are uniform across the input (sorted data's high bytes, short
/// keys' padding). Ping-pongs between two buffers; O(n) per pass.
fn radix_sort_prefixes(perm: &mut [(u64, u32)]) {
    let n = perm.len();
    let mut aux: Vec<(u64, u32)> = vec![(0, 0); n];
    let mut in_perm = true; // which buffer currently holds the data
    for byte in 0..8u32 {
        let shift = byte * 8;
        let src: &[(u64, u32)] = if in_perm { perm } else { &aux };
        let mut counts = [0usize; 256];
        for &(p, _) in src {
            counts[((p >> shift) & 0xFF) as usize] += 1;
        }
        if counts.contains(&n) {
            continue; // every key shares this byte — the pass is a no-op
        }
        let mut sum = 0usize;
        for c in counts.iter_mut() {
            let here = *c;
            *c = sum;
            sum += here;
        }
        // Split borrows: counting-scatter from one buffer into the other.
        if in_perm {
            for &e in perm.iter() {
                let b = ((e.0 >> shift) & 0xFF) as usize;
                aux[counts[b]] = e;
                counts[b] += 1;
            }
        } else {
            for &e in aux.iter() {
                let b = ((e.0 >> shift) & 0xFF) as usize;
                perm[counts[b]] = e;
                counts[b] += 1;
            }
        }
        in_perm = !in_perm;
    }
    if !in_perm {
        perm.copy_from_slice(&aux);
    }
}

/// Rearrange `rows` so that position `i` holds the row previously at
/// `perm[i].1` (in-place cycle walk; consumes the permutation).
fn apply_permutation(rows: &mut [Row], perm: &mut [(u64, u32)]) {
    for i in 0..rows.len() {
        if perm[i].1 as usize == i {
            continue;
        }
        let mut cur = i;
        loop {
            let src = perm[cur].1 as usize;
            perm[cur].1 = cur as u32;
            if src == i {
                break;
            }
            rows.swap(cur, src);
            cur = src;
        }
    }
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
/// layers on the way out (gated on `env.reuse_bounds`; see module docs).
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
        let bounds = record_prefix_layers(&buf, record, env);
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
/// can emit for free. Uncharged metadata derivation (see module docs);
/// disabled when boundary reuse is off.
pub(crate) fn record_prefix_layers(rows: &[Row], record: &[AttrSet], env: &OpEnv) -> SegmentBounds {
    let mut bounds = SegmentBounds::none();
    if !env.reuse_bounds || rows.is_empty() {
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
    pub(crate) fn new(record: &[AttrSet], env: &OpEnv) -> Self {
        let sets = if env.reuse_bounds {
            record
                .iter()
                .filter(|a| !a.is_empty())
                .map(|a| WatchedPrefix {
                    attrs: a.clone(),
                    starts: Vec::new(),
                    prev: Vec::new(),
                })
                .collect()
        } else {
            Vec::new()
        };
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
/// Rows are normalized once on entry; heap comparisons are then `memcmp`s.
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
    let mut scratch: Vec<u8> = Vec::new();
    // (run_tag, arrival seq, keyed row) ordered by tag, then key, then
    // arrival — the arrival tie-break makes run formation **stable**: tied
    // keys leave the heap in input order (they are never demoted to the
    // next run, so stability within a run is stability overall). A
    // deterministic, M-independent tie order is what lets the parallel
    // scheduler's sharded sorts reassemble the exact serial output.
    let mut heap = HeapBy::new(move |a: &(u64, u64, KeyedRow), b: &(u64, u64, KeyedRow)| {
        match a.0.cmp(&b.0) {
            Ordering::Equal => a.2.compare(&b.2, &cmp).then(a.1.cmp(&b.1)),
            other => other,
        }
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
            heap.push((0, seq, KeyedRow::new(row, key, env, &mut scratch)));
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
    drain_heap_with_input(pending, input, heap, seq, key, env, ledger, &mut scratch)
}

#[allow(clippy::too_many_arguments)]
fn drain_heap_with_input(
    mut pending: Option<Row>,
    mut input: impl Iterator<Item = Result<Row>>,
    mut heap: HeapBy<
        (u64, u64, KeyedRow),
        impl FnMut(&(u64, u64, KeyedRow), &(u64, u64, KeyedRow)) -> Ordering,
    >,
    mut seq: u64,
    key: &SortKey,
    env: &OpEnv,
    ledger: &mut MemoryLedger,
    scratch: &mut Vec<u8>,
) -> Result<Vec<Run>> {
    let mut runs: Vec<Run> = Vec::new();
    let mut current_tag = 0u64;
    let mut current_file: Option<SpillFile> = None;
    let mut extra_cmp: u64 = 0;

    while let Some((tag, _, keyed)) = heap.pop() {
        ledger.release(keyed.row.encoded_len());
        if tag != current_tag || current_file.is_none() {
            if let Some(f) = current_file.take() {
                let rank = runs.len() as u64;
                runs.push(Run {
                    stream: f.into_reader()?,
                    rank,
                });
            }
            current_file = Some(SpillFile::with_config(
                &env.spill,
                IoMeter::Model(env.tracker.clone()),
            )?);
            current_tag = tag;
        }
        let file = current_file.as_mut().expect("file just ensured");
        file.push(&keyed.row)?;
        env.tracker.move_rows(1);
        // `keyed` is now the last tuple written to the current run; incoming
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
            let next = KeyedRow::new(next, key, env, scratch);
            let tag_for_next = if next.compare(&keyed, &key.cmp) == Ordering::Less {
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
            let mut out = SpillFile::with_config(&env.spill, IoMeter::Model(env.tracker.clone()))?;
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
    let mut recorder = PrefixRecorder::new(record, env);
    let mut n = 0usize;
    merge_into(sources, next, key, env, |row| {
        recorder.observe(&row);
        builder.push(row)?;
        n += 1;
        Ok(())
    })?;
    Ok((builder.finish()?, recorder.finish(), n))
}

/// The k-way merge: `next` reads each source's sorted rows, every row read
/// is keyed on arrival (one `encode_keys` per normalizable row), and `emit`
/// is handed the rows in order. Ties break by source rank. For runs that is
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
    let mut scratch: Vec<u8> = Vec::new();
    let mut heap = HeapBy::new(move |a: &(KeyedRow, usize), b: &(KeyedRow, usize)| {
        a.0.compare(&b.0, &cmp).then(ranks[a.1].cmp(&ranks[b.1]))
    });
    for (i, s) in streams.iter_mut().enumerate() {
        if let Some(row) = next(s)? {
            heap.push((KeyedRow::new(row, key, env, &mut scratch), i));
        }
    }
    while let Some((keyed, i)) = heap.pop() {
        emit(keyed.row)?;
        env.tracker.move_rows(1);
        if let Some(row) = next(&mut streams[i])? {
            heap.push((KeyedRow::new(row, key, env, &mut scratch), i));
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

    /// Rows whose sort keys hit every normalization edge: NaN and ±0.0
    /// floats, empty strings and strings containing NUL bytes, ints beyond
    /// 2^53 (lossy under an f64 cast, so normalization refuses them and the
    /// whole sort falls back to the comparator), NULLs, and plain values.
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

    /// The radix backend (normalized keys) and the comparator backend must
    /// produce the identical stable order and identical modeled counters on
    /// adversarial key distributions — including inputs where a lossy int
    /// forces the whole sort onto the comparator path.
    #[test]
    fn radix_matches_comparator_on_adversarial_values() {
        let spec = SortSpec::new(vec![
            OrdElem::asc(AttrId::new(0)),
            OrdElem::desc(AttrId::new(1)),
        ]);
        let sk = SortKey::new(&spec);
        for (seed, include_lossy) in [(11u64, false), (12, true), (13, false), (14, true)] {
            for mem in [1024u64, 3] {
                let rows = adversarial_rows(1200, seed, include_lossy);
                let env_norm = OpEnv::with_memory_blocks(mem);
                // A tracker of its own: `with_toggles` shares the original's.
                let env_cmp = OpEnv::with_memory_blocks(mem).with_toggles(false, true);
                let a = sort_rows(rows.clone(), &sk, &env_norm).unwrap();
                let b = sort_rows(rows, &sk, &env_cmp).unwrap();
                assert_eq!(a, b, "seed={seed} lossy={include_lossy} M={mem}");
                assert_eq!(
                    env_norm.tracker.snapshot().modeled_counters(),
                    env_cmp.tracker.snapshot().modeled_counters(),
                    "seed={seed} lossy={include_lossy} M={mem}"
                );
            }
        }
    }

    /// The in-memory comparison charge is the deterministic `n·⌈log₂n⌉`
    /// regardless of backend or key distribution.
    #[test]
    fn in_memory_comparison_charge_is_the_model_formula() {
        for n in [2usize, 3, 4, 500, 1000] {
            let expected = n as u64 * (usize::BITS - (n - 1).leading_zeros()) as u64;
            for norm in [true, false] {
                let env = OpEnv::with_memory_blocks(1 << 20).with_toggles(norm, true);
                let mut rows = make_rows(n, n as u64);
                sort_in_memory(&mut rows, &cmp_on0(), &env);
                assert_eq!(
                    env.tracker.snapshot().comparisons,
                    expected,
                    "n={n} norm={norm}"
                );
            }
        }
    }

    /// Stability under the radix backend: rows with equal keys keep input
    /// order, including keys that tie only in the 8-byte prefix.
    #[test]
    fn radix_sort_is_stable() {
        // Key 9 bytes (int column): values differing only in the low byte
        // share the 8-byte prefix, so the full-key resolve pass runs.
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

    /// An external sort on normalized keys returns the comparator path's
    /// rows and modeled counters, and encodes one key per row per pass: at
    /// run formation, then once more for every row a merge reads back from
    /// a run.
    #[test]
    fn external_runs_match_the_comparator_path() {
        let spec = SortSpec::new(vec![OrdElem::asc(AttrId::new(0))]);
        let sk = SortKey::new(&spec);
        let rows = adversarial_rows(3000, 21, false);
        let env_norm = OpEnv::with_memory_blocks(2);
        let env_cmp = OpEnv::with_memory_blocks(2).with_toggles(false, true);
        let a = sort_rows(rows.clone(), &sk, &env_norm).unwrap();
        let b = sort_rows(rows.clone(), &sk, &env_cmp).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            env_norm.tracker.snapshot().modeled_counters(),
            env_cmp.tracker.snapshot().modeled_counters(),
        );
        // The rows the merges read back, from the runs' sizes and the
        // passes `reduce_runs` makes over them (a lone run is not re-read
        // until the final merge).
        let n = rows.len() as u64;
        let env = OpEnv::with_memory_blocks(2);
        let runs = form_runs(rows, &sk, &env, &mut env.ledger().unwrap()).unwrap();
        let mut sizes: Vec<u64> = runs.iter().map(|r| r.stream.remaining_rows()).collect();
        let mut read_back = n; // the final merge
        let f = merge_fan_in(env.mem_blocks);
        while sizes.len() > f {
            for batch in sizes.chunks(f).filter(|c| c.len() > 1) {
                read_back += batch.iter().sum::<u64>();
            }
            sizes = sizes.chunks(f).map(|c| c.iter().sum()).collect();
        }
        assert!(read_back > n, "at least one intermediate pass");
        assert_eq!(env_norm.tracker.snapshot().key_encodes, n + read_back);
        assert_eq!(env_cmp.tracker.snapshot().key_encodes, 0);
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

    #[test]
    fn inline_key_round_trips() {
        let small = InlineKey::from_slice(&[1, 2, 3]);
        assert_eq!(small.as_slice(), &[1, 2, 3]);
        assert!(matches!(small, InlineKey::Inline { .. }));
        let big_bytes: Vec<u8> = (0..100).collect();
        let big = InlineKey::from_slice(&big_bytes);
        assert_eq!(big.as_slice(), big_bytes.as_slice());
        assert!(matches!(big, InlineKey::Heap(_)));
        // Boundary: exactly the inline capacity stays inline.
        let edge = InlineKey::from_slice(&[7u8; INLINE_KEY_CAP]);
        assert!(matches!(edge, InlineKey::Inline { .. }));
    }

    /// One permutation whichever backend orders the pairs: every length
    /// from 0 across the radix cutover, duplicate keys, keys that tie on the
    /// 8-byte prefix and differ after it, and (every other round) a row
    /// whose key does not normalize, which sends the whole input to the
    /// comparator — against a stable comparator sort, with the model's
    /// counters.
    #[test]
    fn in_memory_sort_is_one_permutation_across_the_cutover() {
        assert!((2..300).contains(&RADIX_MIN_ROWS), "lengths straddle it");
        let sk = SortKey::new(&SortSpec::new(vec![
            OrdElem::asc(AttrId::new(0)),
            OrdElem::desc(AttrId::new(1)),
        ]));
        let mut st = 99u64;
        for n in 0..=300usize {
            let lossy = n % 2 == 1;
            let mut rows: Vec<Row> = (0..n)
                .map(|i| {
                    let r = splitmix64(&mut st);
                    // The first key column fills the prefix by itself, so
                    // the second only ever shows in the full-key compare.
                    row![
                        (r % 7) as i64,
                        format!("longer-than-the-prefix-{}", (r >> 8) % 5),
                        i as i64
                    ]
                })
                .collect();
            if lossy {
                rows[n / 2] = row![(1i64 << 53) + 1, "x", (n / 2) as i64];
            }
            let mut expect = rows.clone();
            expect.sort_by(|a, b| sk.comparator().compare(a, b));
            let charge = |n: usize| match n {
                0 | 1 => 0,
                n => n as u64 * (usize::BITS - (n - 1).leading_zeros()) as u64,
            };
            for norm in [true, false] {
                let env = OpEnv::with_memory_blocks(1 << 20).with_toggles(norm, true);
                let mut sorted = rows.clone();
                sort_in_memory(&mut sorted, &sk, &env);
                assert_eq!(sorted, expect, "n={n} norm={norm}");
                let work = env.tracker.snapshot();
                assert_eq!(work.comparisons, charge(n), "n={n} norm={norm}");
                let encodable = if norm && n > 1 {
                    n - usize::from(lossy)
                } else {
                    0
                };
                assert_eq!(work.key_encodes, encodable as u64, "n={n} norm={norm}");
            }
            // The pairs themselves: tuple order is what the radix passes
            // reach from index order.
            let pairs: Vec<(u64, u32)> = (0..n as u32)
                .map(|i| ((splitmix64(&mut st) % 5) << (8 * (i % 8)), i))
                .collect();
            let (mut by_radix, mut by_compare) = (pairs.clone(), pairs);
            radix_sort_prefixes(&mut by_radix);
            by_compare.sort_unstable();
            assert_eq!(by_radix, by_compare, "n={n}");
        }
    }

    /// The streaming recorder marks the boundaries the slice scan marks —
    /// values equal across types (`2` and `2.0`) included — and holds no
    /// copy of a row it was shown.
    #[test]
    fn prefix_recorder_matches_the_slice_scan_without_copying_rows() {
        use std::sync::Arc;
        use wf_common::Value;
        let env = OpEnv::with_memory_blocks(4);
        let payload: Arc<str> = Arc::from("payload-no-boundary-check-reads");
        let mut st = 5u64;
        let rows: Vec<Row> = (0..400)
            .map(|i| {
                let a = (i / 40) as i64;
                let b = if splitmix64(&mut st).is_multiple_of(2) {
                    Value::Int((i / 8) as i64)
                } else {
                    Value::Float((i / 8) as f64)
                };
                Row::new(vec![Value::Int(a), b, Value::Str(Arc::clone(&payload))])
            })
            .collect();
        let sets = [
            AttrSet::from_iter([AttrId::new(0)]),
            AttrSet::from_iter([AttrId::new(0), AttrId::new(1)]),
        ];
        let mut recorder = PrefixRecorder::new(&sets, &env);
        for row in &rows {
            recorder.observe(row);
            assert_eq!(Arc::strong_count(&payload), rows.len() + 1);
        }
        let streamed = recorder.finish();
        let scanned = record_prefix_layers(&rows, &sets, &env);
        assert_eq!(streamed.layers().len(), 2);
        for (a, b) in streamed.layers().iter().zip(scanned.layers()) {
            assert_eq!((&a.attrs, &a.starts), (&b.attrs, &b.starts));
        }
        assert_eq!(streamed.layers()[0].starts.len(), 10);
        assert_eq!(streamed.layers()[1].starts.len(), 50);
    }
}
