//! The spill-backed segment store — a buffer manager for the segments that
//! flow between operators.
//!
//! The paper's cost model (§4) runs every reorder step in `M` buffer pages
//! with everything else on disk, and Shi & Wang (arXiv:2007.10385) extend
//! the same discipline to window evaluation itself. This module is the
//! mechanism: a [`SegmentStore`] owns a ledger-governed pool of row bytes,
//! and every inter-operator segment lives in a [`SegmentHandle`] that is
//! transparently **memory-resident** (charged against the pool budget) or
//! **spilled** (written to the spill device). Operators read handles back as
//! streaming block iterators ([`SegmentReader`]), so a chain's physical
//! resident set is `O(pool budget + largest unit)` instead of `O(N)`.
//!
//! Metering is split deliberately:
//!
//! * pool spill traffic goes to [`PoolCounters`] — informational, never part
//!   of modeled time, because the paper's model does not price pipeline
//!   buffering. This keeps a chain's **modeled counters bit-identical**
//!   whether the pool is bounded or unbounded (the pre-store pipeline);
//! * residency is tracked in the store's internal ledger with high-water
//!   marks ([`StoreSnapshot::peak_resident_bytes`]), which is what the
//!   `memory_stress` suite asserts against `O(M + largest unit)`;
//! * operators that must hold a whole unit (an oversized window partition,
//!   an SS unit) register the buffer with [`SegmentStore::hold`], so forced
//!   over-budget residency is visible in the same high-water mark.

use crate::backend::SpillConfig;
use crate::block::blocks_for_bytes;
use crate::cost::PoolCounters;
use crate::spill::{IoMeter, SpillFile, SpillReader};
use std::sync::{Arc, Mutex};
use wf_common::{AttrId, Result, Row, TraceSink};

/// Residency accounting (behind the store's mutex).
#[derive(Debug, Default)]
struct PoolState {
    used_bytes: usize,
    used_rows: usize,
    peak_bytes: usize,
    peak_rows: usize,
    /// High-water marks since the last [`SegmentStore::begin_concurrent_phase`]
    /// — what the parent itself held *while* a parallel phase's workers ran,
    /// the base the workers' peaks fold onto.
    phase_peak_bytes: usize,
    phase_peak_rows: usize,
    spilled_segments: u64,
    /// Per-shard high-water marks folded in by
    /// [`SegmentStore::absorb_concurrent`]: index `i` holds the largest peak
    /// any concurrent phase's worker `i` ever reached (elementwise max
    /// across phases). Empty until a parallel phase runs.
    worker_peak_bytes: Vec<usize>,
}

impl PoolState {
    #[inline]
    fn note_peaks(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.used_bytes);
        self.peak_rows = self.peak_rows.max(self.used_rows);
        self.phase_peak_bytes = self.phase_peak_bytes.max(self.used_bytes);
        self.phase_peak_rows = self.phase_peak_rows.max(self.used_rows);
    }
}

/// A snapshot of the store's residency and spill statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Bytes currently resident in the pool.
    pub resident_bytes: usize,
    /// Rows currently resident in the pool.
    pub resident_rows: usize,
    /// Maximum bytes ever resident simultaneously (including forced holds).
    pub peak_resident_bytes: usize,
    /// Maximum rows ever resident simultaneously.
    pub peak_resident_rows: usize,
    /// Segments that overflowed the pool and were spilled.
    pub spilled_segments: u64,
    /// Pool blocks written to the spill device.
    pub spill_blocks_written: u64,
    /// Pool blocks read back from the spill device.
    pub spill_blocks_read: u64,
}

impl StoreSnapshot {
    /// Peak residency in whole blocks (ceiling).
    pub fn peak_resident_blocks(&self) -> u64 {
        blocks_for_bytes(self.peak_resident_bytes)
    }
}

/// The buffer manager. Shared (`Arc`) by every operator of a chain; cheap
/// interior locking (the lock guards a handful of counters, never I/O).
pub struct SegmentStore {
    /// Pool budget in bytes; `None` means unbounded (the pre-store pipeline:
    /// every segment stays resident and nothing ever pool-spills).
    budget: Option<usize>,
    /// Backend + compression + read-ahead configuration for pool spill
    /// files. Shared (cloned) into every sub-account, so one store's whole
    /// tree reports into the same backend counters.
    spill: SpillConfig,
    pool_io: Arc<PoolCounters>,
    state: Mutex<PoolState>,
    /// Set only on accounts created by [`SegmentStore::pooled_sub_store`]:
    /// every charge/release is mirrored up the chain so the root ledger's
    /// high-water mark tracks the true combined residency of all live
    /// sub-accounts, while spill *decisions* keep consulting only the local
    /// budget (never the parent's occupancy) — which is what keeps each
    /// query's placement and counters deterministic under concurrency.
    parent: Option<Arc<SegmentStore>>,
    /// Span recorder for pool spill-out events; the shared no-op sink until
    /// [`SegmentStore::set_trace`] swaps it in. Behind its own mutex so the
    /// store stays `Sync` without widening the state lock; it is read once
    /// per *segment overflow*, never per row.
    trace: Mutex<Arc<TraceSink>>,
}

impl SegmentStore {
    /// A store with the given pool budget in blocks (`None` = unbounded)
    /// spilling through the given backend configuration.
    pub fn with_spill(budget_blocks: Option<u64>, spill: SpillConfig) -> Arc<Self> {
        Arc::new(SegmentStore {
            budget: budget_blocks.map(|b| b as usize * crate::block::BLOCK_SIZE),
            spill,
            pool_io: Arc::new(PoolCounters::new()),
            state: Mutex::new(PoolState::default()),
            parent: None,
            trace: Mutex::new(TraceSink::disabled()),
        })
    }

    /// The spill configuration this store (and its sub-accounts) use.
    pub fn spill_config(&self) -> &SpillConfig {
        &self.spill
    }

    /// Attach a span recorder; pool spill-outs record `spill` spans on it.
    /// Tracing never alters charging, spill decisions, or counters.
    pub fn set_trace(&self, trace: Arc<TraceSink>) {
        *self.trace.lock().expect("trace lock") = trace;
    }

    /// The store's current span recorder.
    pub fn trace(&self) -> Arc<TraceSink> {
        self.trace.lock().expect("trace lock").clone()
    }

    /// Pool budget in bytes (`None` = unbounded).
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget
    }

    /// Current statistics.
    pub fn snapshot(&self) -> StoreSnapshot {
        let s = self.state.lock().expect("store lock");
        StoreSnapshot {
            resident_bytes: s.used_bytes,
            resident_rows: s.used_rows,
            peak_resident_bytes: s.peak_bytes,
            peak_resident_rows: s.peak_rows,
            spilled_segments: s.spilled_segments,
            spill_blocks_written: self.pool_io.blocks_written(),
            spill_blocks_read: self.pool_io.blocks_read(),
        }
    }

    /// Charge residency if it still fits the budget; one lock acquisition,
    /// so concurrent builders on a shared store can never jointly overshoot
    /// (which would also make the high-water mark timing-dependent).
    fn try_charge(&self, bytes: usize, rows: usize) -> bool {
        {
            let mut s = self.state.lock().expect("store lock");
            if let Some(b) = self.budget {
                if s.used_bytes + bytes > b {
                    return false;
                }
            }
            s.used_bytes += bytes;
            s.used_rows += rows;
            s.note_peaks();
        }
        // The admission decision is strictly local; the parent ledger only
        // *observes* the residency (see `pooled_sub_store`). The local lock
        // is dropped first — locks are never held across the chain.
        if let Some(p) = &self.parent {
            p.charge(bytes, rows);
        }
        true
    }

    /// Charge residency (unconditional; the caller decided).
    fn charge(&self, bytes: usize, rows: usize) {
        {
            let mut s = self.state.lock().expect("store lock");
            s.used_bytes += bytes;
            s.used_rows += rows;
            s.note_peaks();
        }
        if let Some(p) = &self.parent {
            p.charge(bytes, rows);
        }
    }

    /// Release residency previously charged.
    fn release(&self, bytes: usize, rows: usize) {
        {
            let mut s = self.state.lock().expect("store lock");
            s.used_bytes = s.used_bytes.saturating_sub(bytes);
            s.used_rows = s.used_rows.saturating_sub(rows);
        }
        if let Some(p) = &self.parent {
            p.release(bytes, rows);
        }
    }

    fn note_spills(&self, segments: u64) {
        self.state.lock().expect("store lock").spilled_segments += segments;
        if let Some(p) = &self.parent {
            p.note_spills(segments);
        }
    }

    /// A per-worker **ledger sub-account** of this store: an independent
    /// residency ledger with its own budget of `budget_blocks` (`None` or an
    /// unbounded parent → unbounded child) that shares the parent's spill
    /// medium and pool-I/O counters.
    ///
    /// Parallel chains give every worker one sub-account so that spill
    /// decisions depend only on that worker's own deterministic usage —
    /// never on how the OS interleaved the other workers — which is what
    /// keeps a parallel execution's pool counters and segment placement
    /// bit-identical across thread counts. The parent folds the workers'
    /// high-water marks back in with [`SegmentStore::absorb_concurrent`].
    pub fn sub_store(self: &Arc<Self>, budget_blocks: Option<u64>) -> Arc<SegmentStore> {
        let budget = match (self.budget, budget_blocks) {
            // An unbounded parent is the pre-store reference configuration:
            // children must not spill either, or bounded-vs-unbounded
            // equivalence would break for parallel chains.
            (None, _) => None,
            (Some(_), None) => None,
            (Some(_), Some(b)) => Some(b.max(1) as usize * crate::block::BLOCK_SIZE),
        };
        Arc::new(SegmentStore {
            budget,
            spill: self.spill.clone(),
            pool_io: Arc::clone(&self.pool_io),
            state: Mutex::new(PoolState::default()),
            parent: None,
            trace: Mutex::new(self.trace()),
        })
    }

    /// A **pooled** ledger sub-account: like [`SegmentStore::sub_store`] it
    /// has an independent budget so its spill decisions depend only on its
    /// own deterministic usage, but unlike a worker sub-account every
    /// charge/release, spill event and pool block transfer is *forwarded* up
    /// to this store, so the shared ledger's residency, high-water mark and
    /// pool I/O genuinely track the combined footprint of all sub-accounts
    /// while the child's own [`SegmentStore::snapshot`] counts only what the
    /// child (one statement) did.
    ///
    /// This is the cross-**query** flavor of the PR 5 mechanism: the
    /// admission governor hands each admitted query one pooled sub-account
    /// budgeted from the global pool, so `Σ per-query budgets ≤ pool` bounds
    /// global residency to `O(pool + largest unit)` while each query's
    /// counters stay bit-identical to a solo run under the same per-query
    /// budget. Do **not** use this for parallel workers *inside* a chain —
    /// those fold their peaks back via [`SegmentStore::absorb_concurrent`],
    /// and forwarding would double-count them. A worker does use a one-block
    /// pooled account of its own to park finished segments on the device:
    /// they then count in the worker's ledger, and take at most one block of
    /// its budget.
    ///
    /// The child's budget follows the requested `budget_blocks` verbatim
    /// (`None` = unbounded child) — an unbounded *parent* here only means
    /// the global ledger is purely observational.
    pub fn pooled_sub_store(self: &Arc<Self>, budget_blocks: Option<u64>) -> Arc<SegmentStore> {
        Arc::new(SegmentStore {
            budget: budget_blocks.map(|b| b.max(1) as usize * crate::block::BLOCK_SIZE),
            spill: self.spill.clone(),
            pool_io: Arc::new(PoolCounters::mirroring(Arc::clone(&self.pool_io))),
            state: Mutex::new(PoolState::default()),
            parent: Some(Arc::clone(self)),
            trace: Mutex::new(self.trace()),
        })
    }

    /// Mark the start of a concurrent (parallel-worker) phase: the phase
    /// watermark resets to the current residency, so the next
    /// [`SegmentStore::absorb_concurrent`] folds the workers' peaks onto
    /// exactly what the parent held *during* this phase — an upper bound
    /// on the true instantaneous combined peak (parent-in-phase +
    /// concurrent workers) that neither understates overlap nor compounds
    /// across sequential parallel phases.
    pub fn begin_concurrent_phase(&self) {
        let mut s = self.state.lock().expect("store lock");
        s.phase_peak_bytes = s.used_bytes;
        s.phase_peak_rows = s.used_rows;
    }

    /// Fold the final snapshots of concurrent sub-accounts back into this
    /// store, **deterministically**: the high-water mark takes
    /// `max(own peak, in-phase peak + Σ worker peaks)`. Parent residency
    /// at any instant of the workers' run never exceeded the in-phase
    /// watermark (see [`SegmentStore::begin_concurrent_phase`]), so the
    /// fold bounds the true combined peak without depending on how worker
    /// lifetimes overlapped — and without accumulating across phases.
    /// Spilled-segment counts are summed; pool block I/O needs no folding
    /// because sub-accounts share the parent's counters.
    ///
    /// Call after the workers' output handles have been consumed (their
    /// resident charges released), in a fixed worker order.
    pub fn absorb_concurrent(&self, workers: &[StoreSnapshot]) {
        let peak_bytes: usize = workers.iter().map(|w| w.peak_resident_bytes).sum();
        let peak_rows: usize = workers.iter().map(|w| w.peak_resident_rows).sum();
        let spilled: u64 = workers.iter().map(|w| w.spilled_segments).sum();
        // Worker accounts do not forward; their spill events reach this
        // ledger — and a pooled account's parent — here.
        self.note_spills(spilled);
        let mut s = self.state.lock().expect("store lock");
        s.peak_bytes = s.peak_bytes.max(s.phase_peak_bytes + peak_bytes);
        s.peak_rows = s.peak_rows.max(s.phase_peak_rows + peak_rows);
        // The phase is over; rebase so a later phase folds onto its own
        // watermark, not this one's.
        s.phase_peak_bytes = s.used_bytes;
        s.phase_peak_rows = s.used_rows;
        // Keep the per-shard peaks visible for observability (EXPLAIN
        // ANALYZE): elementwise max across phases by shard index.
        if s.worker_peak_bytes.len() < workers.len() {
            s.worker_peak_bytes.resize(workers.len(), 0);
        }
        for (slot, w) in s.worker_peak_bytes.iter_mut().zip(workers) {
            *slot = (*slot).max(w.peak_resident_bytes);
        }
    }

    /// Per-shard residency peaks recorded by concurrent phases, in whole
    /// blocks by shard index (empty when no parallel phase ran). The fold in
    /// [`SegmentStore::absorb_concurrent`] sums these onto the parent's
    /// in-phase watermark; this accessor exposes the addends so EXPLAIN
    /// ANALYZE and the benchmark can show how evenly the pool budget was
    /// used across workers.
    pub fn worker_peak_blocks(&self) -> Vec<u64> {
        self.state
            .lock()
            .expect("store lock")
            .worker_peak_bytes
            .iter()
            .map(|&b| blocks_for_bytes(b))
            .collect()
    }

    /// Start building a segment: rows pushed stay resident while the pool
    /// budget allows and overflow transparently to the spill device.
    pub fn builder(self: &Arc<Self>) -> SegmentBuilder {
        SegmentBuilder {
            store: Arc::clone(self),
            rows: Vec::new(),
            bytes: 0,
            spill: None,
        }
    }

    /// Admit an already-materialized segment: resident if it fits the pool,
    /// spilled otherwise.
    ///
    /// The segment is the unit of accounting: its rows' encoded lengths are
    /// summed, **one** charge is made — this ledger locked once, a pooled
    /// parent once — and the `Vec` becomes the resident handle as it is.
    /// This is the decision, and the ledger state, of pushing the rows
    /// through a [`SegmentBuilder`] one by one: the running charge of that
    /// loop only grows, so it keeps every row exactly when the total fits,
    /// and `n` small charges end at the `used` and `peak` of one charge of
    /// their sum. A segment that does not fit takes the builder loop itself,
    /// which fills the pool with the prefix that fits, releases it and
    /// spills — so the transient peak and the pool traffic of an overflow
    /// are the builder's, not an imitation of them.
    pub fn admit(self: &Arc<Self>, rows: Vec<Row>) -> Result<SegmentHandle> {
        let bytes = rows.iter().map(Row::encoded_len).sum();
        if self.try_charge(bytes, rows.len()) {
            return Ok(SegmentHandle::Resident(ResidentSeg {
                store: Arc::clone(self),
                bytes,
                row_count: rows.len(),
                rows,
            }));
        }
        let mut b = self.builder();
        for row in rows {
            b.push(row)?;
        }
        b.finish()
    }

    /// A handle over shared base-table rows: zero-copy and charged to
    /// nothing — the heap table is modeled as *on disk* (its scan is charged
    /// separately), so it never counts toward pipeline residency.
    pub fn shared(rows: SharedRows) -> SegmentHandle {
        SegmentHandle::Shared { rows, idx: None }
    }

    /// A by-index view over shared base-table rows: the rows at `idx`, in
    /// that order, cloned as they are read. Uncharged for the reason
    /// [`SegmentStore::shared`] is; the parallel scheduler hands each worker
    /// its shard of a scanned table this way instead of copying the rows
    /// through the pool.
    pub fn shared_subset(rows: SharedRows, idx: Vec<usize>) -> SegmentHandle {
        SegmentHandle::Shared {
            rows,
            idx: Some(idx),
        }
    }

    /// Register `bytes`/`rows` of operator-held unit memory (e.g. one
    /// buffered window partition) with the residency ledger. The charge may
    /// exceed the budget — a unit must be held *somewhere* — and is released
    /// when the returned guard drops; the high-water mark records it either
    /// way, which is exactly the `largest unit` term of the residency bound.
    pub fn hold(self: &Arc<Self>, bytes: usize, rows: usize) -> ResidencyHold {
        self.charge(bytes, rows);
        ResidencyHold {
            store: Arc::clone(self),
            bytes,
            rows,
        }
    }

    /// Row-granular residency tracking for ring-buffer evaluation: the
    /// charge grows as rows enter the ring and shrinks as they age out, so
    /// the ledger follows the live ring occupancy — `O(frame)`, never a
    /// whole buffered unit (contrast [`SegmentStore::hold`], whose charge
    /// only grows). Remaining charge is released when the guard drops.
    pub fn ring_charge(self: &Arc<Self>) -> RingCharge {
        RingCharge {
            store: Arc::clone(self),
            bytes: 0,
            rows: 0,
        }
    }
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("budget", &self.budget)
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// RAII charge of operator-held unit memory (see [`SegmentStore::hold`]).
pub struct ResidencyHold {
    store: Arc<SegmentStore>,
    bytes: usize,
    rows: usize,
}

impl ResidencyHold {
    /// Grow the hold by one more row of `bytes` bytes.
    pub fn grow(&mut self, bytes: usize, rows: usize) {
        self.store.charge(bytes, rows);
        self.bytes += bytes;
        self.rows += rows;
    }
}

impl Drop for ResidencyHold {
    fn drop(&mut self) {
        self.store.release(self.bytes, self.rows);
    }
}

/// Shrinkable residency charge backing a ring buffer (see
/// [`SegmentStore::ring_charge`]).
pub struct RingCharge {
    store: Arc<SegmentStore>,
    bytes: usize,
    rows: usize,
}

impl RingCharge {
    /// A row of `bytes` bytes entered the ring.
    pub fn enter(&mut self, bytes: usize) {
        self.store.charge(bytes, 1);
        self.bytes += bytes;
        self.rows += 1;
    }

    /// A row of `bytes` bytes aged out of the ring.
    pub fn leave(&mut self, bytes: usize) {
        let bytes = bytes.min(self.bytes);
        let rows = usize::from(self.rows > 0);
        self.store.release(bytes, rows);
        self.bytes -= bytes;
        self.rows -= rows;
    }
}

impl Drop for RingCharge {
    fn drop(&mut self) {
        self.store.release(self.bytes, self.rows);
    }
}

/// Incrementally builds one segment. Rows are buffered resident until the
/// pool would overflow; from then on the whole segment (buffered prefix
/// first) goes to a pool spill file.
pub struct SegmentBuilder {
    store: Arc<SegmentStore>,
    rows: Vec<Row>,
    bytes: usize,
    spill: Option<SpillFile>,
}

impl SegmentBuilder {
    /// Append one row.
    pub fn push(&mut self, row: Row) -> Result<()> {
        if let Some(file) = &mut self.spill {
            file.push(&row)?;
            return Ok(());
        }
        let bytes = row.encoded_len();
        if self.store.try_charge(bytes, 1) {
            self.bytes += bytes;
            self.rows.push(row);
            return Ok(());
        }
        // Overflow: move the buffered prefix and this row to the device.
        let buffered = self.rows.len();
        let trace = self.store.trace();
        let _span = trace.span_with("spill", || format!("pool.spill_out prefix_rows={buffered}"));
        let mut file =
            SpillFile::with_config(&self.store.spill, IoMeter::Pool(self.store.pool_io.clone()))?;
        for r in self.rows.drain(..) {
            file.push(&r)?;
        }
        self.store
            .release(std::mem::take(&mut self.bytes), buffered);
        file.push(&row)?;
        self.store.note_spills(1);
        self.spill = Some(file);
        Ok(())
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        match &self.spill {
            Some(f) => f.row_count() as usize,
            None => self.rows.len(),
        }
    }

    /// True when nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish the segment.
    pub fn finish(mut self) -> Result<SegmentHandle> {
        match self.spill.take() {
            Some(file) => {
                let rows = file.row_count();
                Ok(SegmentHandle::Spilled {
                    reader: file.into_reader()?,
                    rows,
                })
            }
            None => {
                // Hand the charge over to the handle; the builder's Drop
                // then releases nothing.
                let rows = std::mem::take(&mut self.rows);
                let bytes = std::mem::take(&mut self.bytes);
                Ok(SegmentHandle::Resident(ResidentSeg {
                    store: Arc::clone(&self.store),
                    bytes,
                    row_count: rows.len(),
                    rows,
                }))
            }
        }
    }
}

impl Drop for SegmentBuilder {
    /// A builder abandoned mid-segment (an error unwinding through an
    /// operator) must not leak its resident charge.
    fn drop(&mut self) {
        self.store.release(self.bytes, self.rows.len());
        self.bytes = 0;
    }
}

/// A memory-resident segment; its bytes are charged to the pool until the
/// handle is consumed or dropped.
pub struct ResidentSeg {
    store: Arc<SegmentStore>,
    bytes: usize,
    row_count: usize,
    rows: Vec<Row>,
}

impl Drop for ResidentSeg {
    fn drop(&mut self) {
        self.store.release(self.bytes, self.row_count);
        self.bytes = 0;
        self.row_count = 0;
    }
}

/// A heap table's rows as a scan hands them out: the table's own `Arc`,
/// never copied whole, seen through the columns the statement reads.
///
/// With every column kept (`columns` is `None`) a row reads as the table
/// holds it. With a column list each row reads as those columns, in that
/// order: the narrowing happens at the clone that reading a shared view
/// makes anyway ([`SegmentHandle::into_rows`], [`SegmentReader`], and the
/// callers that test [`SharedRows::base`] by reference and keep a few), so it
/// costs no pass of its own and nothing is ever held at the table's width.
/// The same clone leaves room for the `spare` values the statement appends
/// (one per window function), so a row is allocated once, at its output
/// width.
#[derive(Debug, Clone)]
pub struct SharedRows {
    rows: Arc<Vec<Row>>,
    columns: Option<Arc<[AttrId]>>,
    spare: usize,
}

impl SharedRows {
    /// `rows` read through `columns` (base positions, in output order), or
    /// whole when `None`.
    pub fn new(rows: Arc<Vec<Row>>, columns: Option<Arc<[AttrId]>>) -> Self {
        SharedRows {
            rows,
            columns,
            spare: 0,
        }
    }

    /// Hand out rows with room for `spare` more values each.
    pub fn with_spare(mut self, spare: usize) -> Self {
        self.spare = spare;
        self
    }

    /// The table's rows at full width — what a caller testing rows by
    /// reference reads before it keeps any.
    pub fn base(&self) -> &Arc<Vec<Row>> {
        &self.rows
    }

    /// The base column that the statement's column `attr` reads.
    pub fn base_attr(&self, attr: AttrId) -> AttrId {
        self.columns.as_ref().map_or(attr, |c| c[attr.index()])
    }

    /// A base row as the statement sees it: a clone, narrowed, with room for
    /// the values the statement appends.
    pub fn project(&self, row: &Row) -> Row {
        match &self.columns {
            None => row.clone_with_spare(self.spare),
            Some(cols) => {
                let mut values = Vec::with_capacity(cols.len() + self.spare);
                values.extend(cols.iter().map(|&a| row.get(a).clone()));
                Row::new(values)
            }
        }
    }

    /// [`Row::encoded_len`] of [`SharedRows::project`]`(row)`, without the
    /// clone.
    pub fn projected_len(&self, row: &Row) -> usize {
        match &self.columns {
            None => row.encoded_len(),
            Some(cols) => {
                2 + cols
                    .iter()
                    .map(|&a| row.get(a).encoded_len())
                    .sum::<usize>()
            }
        }
    }

    /// Every row, as the statement sees it: adopted without a copy when no
    /// other handle shares them and they are handed out as they are.
    fn into_rows(self) -> Vec<Row> {
        if self.columns.is_none() && self.spare == 0 {
            return Arc::try_unwrap(self.rows).unwrap_or_else(|a| a.as_ref().clone());
        }
        self.rows.iter().map(|r| self.project(r)).collect()
    }
}

impl From<Arc<Vec<Row>>> for SharedRows {
    /// Every column of `rows`.
    fn from(rows: Arc<Vec<Row>>) -> Self {
        SharedRows::new(rows, None)
    }
}

/// One segment managed by the store: resident in the pool, spilled to the
/// device, or a zero-copy view of shared base-table rows. Single-consumer:
/// reading or materializing consumes the handle.
pub enum SegmentHandle {
    /// Resident in the pool (budget-charged; released on consumption/drop).
    Resident(ResidentSeg),
    /// A view over shared rows (the heap table; modeled as on-disk, never
    /// pool-charged): all of them, or only those at `idx`, in that order.
    Shared {
        rows: SharedRows,
        idx: Option<Vec<usize>>,
    },
    /// Spilled to the pool device; read back block at a time.
    Spilled { reader: SpillReader, rows: u64 },
}

impl SegmentHandle {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            SegmentHandle::Resident(r) => r.rows.len(),
            SegmentHandle::Shared { rows, idx } => idx.as_ref().map_or(rows.base().len(), Vec::len),
            SegmentHandle::Spilled { rows, .. } => *rows as usize,
        }
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the segment lives on the spill device.
    pub fn is_spilled(&self) -> bool {
        matches!(self, SegmentHandle::Spilled { .. })
    }

    /// The shared base-table rows behind this handle, if it is a view over
    /// all of them — an operator that keeps few of them (a filter) reads them
    /// by reference here instead of streaming a clone of every row. A
    /// by-index view answers `None`: its rows are not the whole table.
    pub fn as_shared_rows(&self) -> Option<&SharedRows> {
        match self {
            SegmentHandle::Shared { rows, idx: None } => Some(rows),
            _ => None,
        }
    }

    /// Materialize all rows (charges pool reads for a spilled segment;
    /// releases the pool charge of a resident one).
    pub fn into_rows(self) -> Result<Vec<Row>> {
        match self {
            SegmentHandle::Resident(mut r) => {
                let rows = std::mem::take(&mut r.rows);
                r.store.release(
                    std::mem::take(&mut r.bytes),
                    std::mem::take(&mut r.row_count),
                );
                Ok(rows)
            }
            SegmentHandle::Shared { rows, idx: None } => Ok(rows.into_rows()),
            SegmentHandle::Shared {
                rows,
                idx: Some(idx),
            } => Ok(idx.iter().map(|&i| rows.project(&rows.base()[i])).collect()),
            SegmentHandle::Spilled { mut reader, .. } => reader.read_all(),
        }
    }

    /// Stream the rows front to back, one block at a time.
    pub fn read(self) -> SegmentReader {
        match self {
            SegmentHandle::Resident(mut r) => {
                let rows = std::mem::take(&mut r.rows);
                SegmentReader::Resident {
                    iter: rows.into_iter(),
                    _guard: r,
                }
            }
            SegmentHandle::Shared { rows, idx } => SegmentReader::Shared { rows, idx, next: 0 },
            SegmentHandle::Spilled { reader, .. } => SegmentReader::Spilled(reader),
        }
    }
}

impl std::fmt::Debug for SegmentHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            SegmentHandle::Resident(_) => "resident",
            SegmentHandle::Shared { .. } => "shared",
            SegmentHandle::Spilled { .. } => "spilled",
        };
        write!(f, "SegmentHandle<{kind}, {} rows>", self.len())
    }
}

/// Streaming reader over a [`SegmentHandle`]. Resident segments keep their
/// pool charge until the reader drops (the rows are still in memory while
/// being iterated); spilled segments charge pool reads block by block.
pub enum SegmentReader {
    /// Rows held in the pool; `_guard` releases the charge on drop.
    Resident {
        iter: std::vec::IntoIter<Row>,
        _guard: ResidentSeg,
    },
    /// Shared base-table rows (all, or those at `idx`), cloned lazily.
    Shared {
        rows: SharedRows,
        idx: Option<Vec<usize>>,
        next: usize,
    },
    /// Spilled rows decoded block at a time.
    Spilled(SpillReader),
}

impl SegmentReader {
    /// Next row, or `None` at the end.
    pub fn next_row(&mut self) -> Result<Option<Row>> {
        match self {
            SegmentReader::Resident { iter, .. } => Ok(iter.next()),
            SegmentReader::Shared { rows, idx, next } => {
                let i = match idx {
                    Some(idx) => idx.get(*next).copied(),
                    None => Some(*next),
                };
                *next += 1;
                Ok(i.and_then(|i| rows.base().get(i)).map(|r| rows.project(r)))
            }
            SegmentReader::Spilled(r) => r.next_row(),
        }
    }
}

impl Iterator for SegmentReader {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Result<Row>> {
        self.next_row().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BLOCK_SIZE;
    use wf_common::{row, Value};

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| row![i as i64, "padding-padding-padding"])
            .collect()
    }

    #[test]
    fn small_segment_stays_resident() {
        let store = SegmentStore::with_spill(Some(4), SpillConfig::mem());
        let h = store.admit(rows(10)).unwrap();
        assert!(!h.is_spilled());
        assert_eq!(h.len(), 10);
        let snap = store.snapshot();
        assert!(snap.resident_bytes > 0);
        assert_eq!(snap.resident_rows, 10);
        assert_eq!(snap.spill_blocks_written, 0);
        let back = h.into_rows().unwrap();
        assert_eq!(back, rows(10));
        drop(back);
        // Charge released at consumption; rows-vec materialization keeps
        // the byte charge until the handle dropped, which it has.
        assert_eq!(store.snapshot().resident_bytes, 0);
    }

    #[test]
    fn oversized_segment_spills_and_round_trips() {
        let store = SegmentStore::with_spill(Some(1), SpillConfig::mem());
        let input = rows(2000); // far beyond one block
        let h = store.admit(input.clone()).unwrap();
        assert!(h.is_spilled());
        assert_eq!(h.len(), 2000);
        let snap = store.snapshot();
        assert_eq!(snap.spilled_segments, 1);
        assert!(snap.spill_blocks_written > 0);
        // The resident prefix was released when the segment overflowed.
        assert!(snap.resident_bytes <= BLOCK_SIZE);
        let back = h.into_rows().unwrap();
        assert_eq!(back, input);
        let snap = store.snapshot();
        assert_eq!(snap.spill_blocks_read, snap.spill_blocks_written);
    }

    #[test]
    fn unbounded_store_never_spills() {
        let store = SegmentStore::with_spill(None, SpillConfig::mem());
        let h = store.admit(rows(5000)).unwrap();
        assert!(!h.is_spilled());
        assert_eq!(store.snapshot().spill_blocks_written, 0);
        assert!(store.snapshot().peak_resident_bytes > BLOCK_SIZE);
    }

    #[test]
    fn streaming_reader_yields_rows_in_order() {
        let store = SegmentStore::with_spill(Some(1), SpillConfig::mem());
        for n in [0usize, 3, 1500] {
            let h = store.admit(rows(n)).unwrap();
            let mut got = Vec::new();
            let mut r = h.read();
            while let Some(row) = r.next_row().unwrap() {
                got.push(row);
            }
            assert_eq!(got, rows(n), "n={n}");
        }
    }

    #[test]
    fn shared_handle_is_uncharged() {
        let base = Arc::new(rows(100));
        let store = SegmentStore::with_spill(Some(1), SpillConfig::mem());
        let h = SegmentStore::shared(Arc::clone(&base).into());
        assert_eq!(h.len(), 100);
        assert!(!h.is_spilled());
        assert_eq!(store.snapshot().resident_bytes, 0);
        assert!(Arc::ptr_eq(h.as_shared_rows().unwrap().base(), &base));
        assert_eq!(h.into_rows().unwrap(), *base);
        assert!(store.admit(rows(3)).unwrap().as_shared_rows().is_none());
    }

    /// A by-index view reads the chosen rows in the given order both ways
    /// and never passes for the whole table.
    #[test]
    fn shared_subset_reads_the_chosen_rows_in_order() {
        let base = Arc::new(rows(100));
        let idx = vec![7, 3, 99, 3];
        let want: Vec<Row> = idx.iter().map(|&i| base[i].clone()).collect();
        let h = SegmentStore::shared_subset(Arc::clone(&base).into(), idx.clone());
        assert_eq!(h.len(), 4);
        assert!(!h.is_spilled());
        assert!(h.as_shared_rows().is_none(), "a subset is not the table");
        let streamed: Vec<Row> = h.read().map(|r| r.unwrap()).collect();
        assert_eq!(streamed, want);
        let h = SegmentStore::shared_subset(Arc::clone(&base).into(), idx);
        assert_eq!(h.into_rows().unwrap(), want);
        assert!(SegmentStore::shared_subset(base.into(), Vec::new()).is_empty());
    }

    /// A narrowed view reads every row as its kept columns, in the listed
    /// order, on each read path — whole, by index, streamed — and says how
    /// long each projected row encodes without building it.
    #[test]
    fn narrowed_view_reads_only_its_columns() {
        let base = Arc::new(
            (0..50)
                .map(|i| row![i as i64, format!("pad-{i}"), i as i64 * 10])
                .collect::<Vec<_>>(),
        );
        let cols: Arc<[AttrId]> = Arc::from([AttrId::new(2), AttrId::new(0)]);
        let view = SharedRows::new(Arc::clone(&base), Some(cols));
        let want: Vec<Row> = base
            .iter()
            .map(|r| row![r.values()[2].clone(), r.values()[0].clone()])
            .collect();
        for r in base.iter() {
            assert_eq!(view.projected_len(r), view.project(r).encoded_len());
        }
        assert_eq!(view.base_attr(AttrId::new(0)), AttrId::new(2));
        let h = SegmentStore::shared(view.clone());
        assert!(h.as_shared_rows().is_some());
        assert_eq!(h.into_rows().unwrap(), want);
        let streamed: Vec<Row> = SegmentStore::shared(view.clone())
            .read()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(streamed, want);
        let h = SegmentStore::shared_subset(view, vec![4, 1]);
        assert_eq!(
            h.into_rows().unwrap(),
            vec![want[4].clone(), want[1].clone()]
        );
        assert_eq!(base.len(), 50, "the table itself is untouched");
    }

    /// A view with spare `k` hands out every row with room for `k` more
    /// values, on each clone path — whole, by index, streamed, narrowed and
    /// `project` — and the rows themselves are the ones a view without spare
    /// hands out.
    #[test]
    fn spare_view_hands_out_rows_with_room_to_grow() {
        let base = Arc::new(
            (0..20)
                .map(|i| row![i as i64, format!("pad-{i}"), -(i as i64)])
                .collect::<Vec<_>>(),
        );
        let cols: Arc<[AttrId]> = Arc::from([AttrId::new(2), AttrId::new(0)]);
        for columns in [None, Some(cols)] {
            let plain = SharedRows::new(Arc::clone(&base), columns.clone());
            let want: Vec<Row> = base.iter().map(|r| plain.project(r)).collect();
            for k in [0, 1, 4] {
                let view = SharedRows::new(Arc::clone(&base), columns.clone()).with_spare(k);
                let check = |rows: &[Row]| {
                    for r in rows {
                        assert_eq!(r.spare_capacity(), k, "{columns:?}");
                    }
                };
                let projected: Vec<Row> = base.iter().map(|r| view.project(r)).collect();
                check(&projected);
                assert_eq!(projected, want);
                let whole = SegmentStore::shared(view.clone()).into_rows().unwrap();
                check(&whole);
                assert_eq!(whole, want);
                let streamed: Vec<Row> = SegmentStore::shared(view.clone())
                    .read()
                    .map(|r| r.unwrap())
                    .collect();
                check(&streamed);
                assert_eq!(streamed, want);
                let idx = vec![5, 0, 19];
                let picked = SegmentStore::shared_subset(view.clone(), idx.clone())
                    .into_rows()
                    .unwrap();
                check(&picked);
                let streamed: Vec<Row> = SegmentStore::shared_subset(view, idx)
                    .read()
                    .map(|r| r.unwrap())
                    .collect();
                check(&streamed);
                assert_eq!(picked, streamed);
                assert_eq!(
                    picked,
                    vec![want[5].clone(), want[0].clone(), want[19].clone()]
                );
            }
        }
        // Pushing `k` values into a spare-`k` row fills it without growing.
        let mut r = SharedRows::from(Arc::clone(&base))
            .with_spare(2)
            .project(&base[3]);
        r.push(Value::Int(1));
        r.push(Value::str("w"));
        assert_eq!(r.spare_capacity(), 0);
        assert_eq!(r.encoded_len(), base[3].encoded_len() + 9 + 6);
    }

    #[test]
    fn hold_tracks_forced_unit_memory() {
        let store = SegmentStore::with_spill(Some(1), SpillConfig::mem());
        {
            let mut g = store.hold(10 * BLOCK_SIZE, 500);
            g.grow(BLOCK_SIZE, 10);
            let snap = store.snapshot();
            assert_eq!(snap.resident_bytes, 11 * BLOCK_SIZE);
            assert_eq!(snap.resident_rows, 510);
        }
        let snap = store.snapshot();
        assert_eq!(snap.resident_bytes, 0);
        assert_eq!(snap.peak_resident_bytes, 11 * BLOCK_SIZE);
        assert_eq!(snap.peak_resident_rows, 510);
    }

    #[test]
    fn ring_charge_follows_occupancy() {
        let store = SegmentStore::with_spill(Some(1), SpillConfig::mem());
        {
            let mut ring = store.ring_charge();
            for _ in 0..4 {
                ring.enter(100);
            }
            assert_eq!(store.snapshot().resident_bytes, 400);
            assert_eq!(store.snapshot().resident_rows, 4);
            ring.leave(100);
            ring.leave(100);
            // The ledger tracks the live ring, not its high point …
            assert_eq!(store.snapshot().resident_bytes, 200);
            assert_eq!(store.snapshot().resident_rows, 2);
        }
        // … and the guard releases the remainder on drop.
        let snap = store.snapshot();
        assert_eq!(snap.resident_bytes, 0);
        assert_eq!(snap.resident_rows, 0);
        assert_eq!(snap.peak_resident_bytes, 400);
        assert_eq!(snap.peak_resident_rows, 4);
    }

    #[test]
    fn abandoned_builder_releases_its_charge() {
        let store = SegmentStore::with_spill(Some(64), SpillConfig::mem());
        {
            let mut b = store.builder();
            for r in rows(50) {
                b.push(r).unwrap();
            }
            assert!(store.snapshot().resident_bytes > 0);
            // Dropped without finish() — an error unwinding mid-segment.
        }
        let snap = store.snapshot();
        assert_eq!(snap.resident_bytes, 0);
        assert_eq!(snap.resident_rows, 0);
    }

    #[test]
    fn sub_store_has_independent_budget_and_shared_pool_io() {
        let parent = SegmentStore::with_spill(Some(64), SpillConfig::mem());
        let child = parent.sub_store(Some(1));
        // Child spills by its own 1-block budget even though the parent has
        // plenty of room…
        let h = child.admit(rows(2000)).unwrap();
        assert!(h.is_spilled());
        assert_eq!(parent.snapshot().resident_bytes, 0);
        // …and its pool traffic shows up in the parent's shared counters.
        assert!(parent.snapshot().spill_blocks_written > 0);
        assert_eq!(
            parent.snapshot().spill_blocks_written,
            child.snapshot().spill_blocks_written
        );
        drop(h);
        // An unbounded parent hands out unbounded children regardless of the
        // requested budget (the pre-store reference configuration).
        let unbounded = SegmentStore::with_spill(None, SpillConfig::mem());
        let uchild = unbounded.sub_store(Some(1));
        let h2 = uchild.admit(rows(2000)).unwrap();
        assert!(!h2.is_spilled());
    }

    #[test]
    fn absorb_concurrent_sums_worker_peaks() {
        let parent = SegmentStore::with_spill(Some(64), SpillConfig::mem());
        let a = parent.sub_store(Some(8));
        let b = parent.sub_store(Some(8));
        let ha = a.admit(rows(30)).unwrap();
        let hb = b.admit(rows(50)).unwrap();
        let (pa, pb) = (a.snapshot(), b.snapshot());
        drop(ha);
        drop(hb);
        // Parent residency that peaked *during* the phase counts toward
        // the fold even if released before absorb time.
        parent.begin_concurrent_phase();
        let own = parent.admit(rows(10)).unwrap();
        drop(own);
        parent.absorb_concurrent(&[a.snapshot(), b.snapshot()]);
        let snap = parent.snapshot();
        assert_eq!(
            snap.peak_resident_rows,
            10 + pa.peak_resident_rows + pb.peak_resident_rows
        );
        assert_eq!(parent.snapshot().resident_rows, 0);
    }

    #[test]
    fn worker_peaks_are_recorded_per_shard() {
        let parent = SegmentStore::with_spill(Some(64), SpillConfig::mem());
        assert!(parent.worker_peak_blocks().is_empty(), "no phase yet");
        parent.begin_concurrent_phase();
        let a = parent.sub_store(Some(8));
        let b = parent.sub_store(Some(8));
        let ha = a.admit(rows(30)).unwrap();
        let hb = b.admit(rows(500)).unwrap();
        drop(ha);
        drop(hb);
        parent.absorb_concurrent(&[a.snapshot(), b.snapshot()]);
        let peaks = parent.worker_peak_blocks();
        assert_eq!(peaks.len(), 2);
        assert!(peaks[1] > peaks[0], "shard 1 held far more: {peaks:?}");
        // A later, smaller phase must not shrink the recorded peaks.
        parent.begin_concurrent_phase();
        let c = parent.sub_store(Some(8));
        let hc = c.admit(rows(1)).unwrap();
        drop(hc);
        parent.absorb_concurrent(&[c.snapshot()]);
        assert_eq!(parent.worker_peak_blocks(), peaks);
    }

    #[test]
    fn sub_store_inherits_trace_sink() {
        let parent = SegmentStore::with_spill(Some(64), SpillConfig::mem());
        assert!(!parent.trace().is_enabled());
        parent.set_trace(TraceSink::enabled());
        assert!(parent.trace().is_enabled());
        assert!(parent.sub_store(Some(8)).trace().is_enabled());
    }

    #[test]
    fn pool_spill_out_records_a_span() {
        let store = SegmentStore::with_spill(Some(1), SpillConfig::mem());
        let sink = TraceSink::enabled();
        store.set_trace(Arc::clone(&sink));
        let h = store.admit(rows(2000)).unwrap();
        assert!(h.is_spilled());
        let records = sink.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].cat, "spill");
        assert!(records[0].name.starts_with("pool.spill_out"));
        assert_eq!(sink.open_spans(), 0);
    }

    /// Sequential parallel phases fold onto their own watermarks: the
    /// reported peak is the max over phases, never their sum.
    #[test]
    fn absorb_concurrent_does_not_compound_across_phases() {
        let parent = SegmentStore::with_spill(Some(64), SpillConfig::mem());
        let run_phase = |n: usize| {
            parent.begin_concurrent_phase();
            let w = parent.sub_store(Some(8));
            let h = w.admit(rows(n)).unwrap();
            drop(h);
            parent.absorb_concurrent(&[w.snapshot()]);
        };
        run_phase(40);
        let after_one = parent.snapshot().peak_resident_rows;
        run_phase(40);
        assert_eq!(
            parent.snapshot().peak_resident_rows,
            after_one,
            "identical sequential phases must not double the peak"
        );
        run_phase(60);
        assert!(parent.snapshot().peak_resident_rows > after_one);
        assert_eq!(parent.snapshot().peak_resident_rows, 60);
    }

    #[test]
    fn pooled_sub_store_forwards_residency_to_parent() {
        let pool = SegmentStore::with_spill(Some(64), SpillConfig::mem());
        let a = pool.pooled_sub_store(Some(8));
        let b = pool.pooled_sub_store(Some(8));
        let ha = a.admit(rows(30)).unwrap();
        let hb = b.admit(rows(50)).unwrap();
        // The shared ledger sees the *combined* live residency…
        let snap = pool.snapshot();
        assert_eq!(snap.resident_rows, 80);
        assert_eq!(
            snap.resident_bytes,
            a.snapshot().resident_bytes + b.snapshot().resident_bytes
        );
        assert_eq!(snap.peak_resident_rows, 80);
        drop(ha);
        drop(hb);
        // …and every release flows back.
        let snap = pool.snapshot();
        assert_eq!(snap.resident_rows, 0);
        assert_eq!(snap.resident_bytes, 0);
        assert_eq!(snap.peak_resident_rows, 80);
    }

    #[test]
    fn pooled_sub_store_spills_by_local_budget_only() {
        // A roomy pool must not save a sub-account from its own budget:
        // spill decisions depend only on the account's deterministic usage,
        // never on how much of the pool other queries happen to occupy.
        let pool = SegmentStore::with_spill(Some(10_000), SpillConfig::mem());
        let q = pool.pooled_sub_store(Some(1));
        let h = q.admit(rows(2000)).unwrap();
        assert!(h.is_spilled());
        assert_eq!(q.snapshot().spilled_segments, 1);
        // The spill event is mirrored into the shared ledger…
        assert_eq!(pool.snapshot().spilled_segments, 1);
        // …as is the pool I/O.
        assert!(pool.snapshot().spill_blocks_written > 0);
        // The overflowed prefix's charge was released through to the parent.
        drop(h);
        assert_eq!(pool.snapshot().resident_bytes, 0);
    }

    #[test]
    fn pooled_sub_store_pool_io_is_its_own_and_mirrors_up() {
        // One account per statement: each reports only the blocks it moved
        // (worker sub-accounts included), the shared pool reports the sum.
        let pool = SegmentStore::with_spill(Some(64), SpillConfig::mem());
        let mut per_statement = Vec::new();
        for _ in 0..3 {
            let q = pool.pooled_sub_store(Some(1));
            q.admit(rows(2000)).unwrap().into_rows().unwrap();
            let worker = q.sub_store(Some(1));
            worker.admit(rows(500)).unwrap().into_rows().unwrap();
            per_statement.push(q.snapshot());
        }
        let first = per_statement[0];
        assert!(first.spill_blocks_written > 0);
        assert_eq!(first.spill_blocks_read, first.spill_blocks_written);
        assert!(
            per_statement.iter().all(|s| *s == first),
            "{per_statement:?}"
        );
        let total = pool.snapshot();
        assert_eq!(total.spill_blocks_written, 3 * first.spill_blocks_written);
        assert_eq!(total.spill_blocks_read, 3 * first.spill_blocks_read);
    }

    #[test]
    fn pooled_sub_store_counters_do_not_depend_on_pool_occupancy() {
        // The same input through the same per-query budget must place
        // segments identically whether the pool is empty or mostly occupied
        // by a neighbor — the bit-identity contract under concurrency.
        let solo_pool = SegmentStore::with_spill(Some(64), SpillConfig::mem());
        let solo = solo_pool.pooled_sub_store(Some(2));
        let h1 = solo.admit(rows(400)).unwrap();
        let solo_snap = solo.snapshot();
        let solo_spilled = h1.is_spilled();
        drop(h1);

        let busy_pool = SegmentStore::with_spill(Some(64), SpillConfig::mem());
        let neighbor = busy_pool.pooled_sub_store(Some(60));
        let _big = neighbor.admit(rows(3000)).unwrap();
        let q = busy_pool.pooled_sub_store(Some(2));
        let h2 = q.admit(rows(400)).unwrap();
        assert_eq!(h2.is_spilled(), solo_spilled);
        let snap = q.snapshot();
        assert_eq!(snap.peak_resident_bytes, solo_snap.peak_resident_bytes);
        assert_eq!(snap.spilled_segments, solo_snap.spilled_segments);
    }

    #[test]
    fn pooled_sub_store_hold_reaches_parent_high_water() {
        let pool = SegmentStore::with_spill(Some(4), SpillConfig::mem());
        let q = pool.pooled_sub_store(Some(2));
        {
            let _g = q.hold(3 * BLOCK_SIZE, 90);
            assert_eq!(pool.snapshot().resident_bytes, 3 * BLOCK_SIZE);
        }
        assert_eq!(pool.snapshot().resident_bytes, 0);
        assert_eq!(pool.snapshot().peak_resident_bytes, 3 * BLOCK_SIZE);
    }

    /// `admit` is the builder loop, charged once: the same segments through
    /// `admit` and through `builder()/push/finish` leave the ledger — the
    /// account's own and a pooled parent's — in the same state after every
    /// step, the segments that overflow included.
    #[test]
    fn admit_matches_the_builder_loop_step_by_step() {
        type Setup = fn() -> (Arc<SegmentStore>, Arc<SegmentStore>, Option<ResidencyHold>);
        let setups: [(&str, Setup); 3] = [
            ("bounded store", || {
                let s = SegmentStore::with_spill(Some(3), SpillConfig::mem());
                (Arc::clone(&s), s, None)
            }),
            ("pooled sub-store", || {
                let pool = SegmentStore::with_spill(Some(64), SpillConfig::mem());
                (pool.pooled_sub_store(Some(3)), pool, None)
            }),
            ("store pre-filled by a hold", || {
                let s = SegmentStore::with_spill(Some(4), SpillConfig::mem());
                let hold = s.hold(2 * BLOCK_SIZE + 100, 7);
                (Arc::clone(&s), s, Some(hold))
            }),
        ];
        for (name, setup) in setups {
            let (fast, fast_parent, _fast_hold) = setup();
            let (slow, slow_parent, _slow_hold) = setup();
            let mut live: Vec<(SegmentHandle, SegmentHandle)> = Vec::new();
            let mut state = 0x5EED_u64;
            let mut spilled = 0;
            for step in 0..60 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Mixed sizes: empty, a few rows, up to twice the budget.
                let n = match (state >> 33) % 5 {
                    0 => 0,
                    1 => 1,
                    2 => 24,
                    3 => 150,
                    _ => 1200,
                };
                let a = fast.admit(rows(n)).unwrap();
                let mut b = slow.builder();
                for r in rows(n) {
                    b.push(r).unwrap();
                }
                let b = b.finish().unwrap();
                assert_eq!(a.is_spilled(), b.is_spilled(), "{name} step {step} n={n}");
                spilled += usize::from(a.is_spilled());
                live.push((a, b));
                // Hold a few segments at a time, so that the pool is partly
                // full when the next one arrives.
                if (state >> 40).is_multiple_of(3) {
                    live.remove(0);
                }
                assert_eq!(fast.snapshot(), slow.snapshot(), "{name} step {step}");
                assert_eq!(
                    fast_parent.snapshot(),
                    slow_parent.snapshot(),
                    "{name} step {step} (parent)"
                );
            }
            assert!(spilled > 0 && spilled < 60, "{name}: both halves ran");
            for (a, b) in live.drain(..) {
                assert_eq!(a.into_rows().unwrap(), b.into_rows().unwrap(), "{name}");
            }
            assert_eq!(fast.snapshot(), slow.snapshot(), "{name} drained");
            assert_eq!(fast_parent.snapshot(), slow_parent.snapshot(), "{name}");
        }
    }

    #[test]
    fn peak_accounts_concurrent_segments() {
        let store = SegmentStore::with_spill(Some(64), SpillConfig::mem());
        let a = store.admit(rows(50)).unwrap();
        let b = store.admit(rows(50)).unwrap();
        let peak = store.snapshot().peak_resident_rows;
        assert_eq!(peak, 100);
        drop(a);
        drop(b);
        assert_eq!(store.snapshot().resident_rows, 0);
        assert_eq!(store.snapshot().peak_resident_rows, 100);
    }
}
