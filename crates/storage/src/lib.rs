//! # wf-storage
//!
//! The storage substrate beneath the wfopt executors:
//!
//! * [`block`] — the block (page) model; all I/O is charged in blocks,
//! * [`cost`] — a thread-safe tracker of block reads/writes, comparisons and
//!   hashes plus a calibrated time model (the benchmark harness reports the
//!   modeled time, see DESIGN.md §2),
//! * [`codec`] — the row serialization format used by spill files, plus the
//!   zero-dependency LZ block compressor backends may apply at rest,
//! * [`backend`] — pluggable spill media behind the
//!   [`backend::SpillBackend`] adapter trait: in-memory, or one local temp
//!   file carved into slots (the spill arena),
//! * [`spill`] — append-only spill files over a configured backend, owning
//!   all block-granular meter charging,
//! * [`prefetch`] — the async read-ahead pipeline that fetches upcoming
//!   spill blocks while the current one evaluates,
//! * [`mem`] — the sort-memory ledger (the paper's `M`),
//! * [`segstore`] — the spill-backed segment store: a ledger-governed pool
//!   of row blocks behind [`segstore::SegmentHandle`]s, which is how
//!   operator chains keep their physical resident set at
//!   `O(M + largest unit)` (pool spill traffic is metered separately from
//!   modeled I/O — see the module docs),
//! * [`table`] — an in-memory heap table with block accounting; a scan
//!   hands out the table's own rows, shared, never a copy.
//!
//! The paper ran on PostgreSQL over SATA disks; this crate substitutes a
//! simulated block device that *counts* every block transferred, so the
//! experiments reproduce the paper's I/O behaviour (pass counts, spill
//! fractions) at laptop scale.

#![forbid(unsafe_code)]

pub mod backend;
pub mod block;
pub mod bytebuf;
pub mod codec;
pub mod cost;
#[cfg(test)]
mod faulty;
pub mod mem;
pub mod prefetch;
pub mod segstore;
pub mod spill;
pub mod table;

pub use backend::{
    BackendFile, BackendStats, LocalFileBackend, MemBackend, SpillBackend, SpillBackendKind,
    SpillConfig,
};
pub use block::{blocks_for_bytes, BLOCK_SIZE};
pub use cost::{CostSnapshot, CostTracker, CostWeights, PoolCounters};
pub use mem::MemoryLedger;
pub use prefetch::Prefetcher;
pub use segstore::{
    ResidencyHold, RingCharge, SegmentBuilder, SegmentHandle, SegmentReader, SegmentStore,
    SharedRows, StoreSnapshot,
};
pub use spill::{IoMeter, SpillFile, SpillReader};
pub use table::Table;
