//! # wf-exec
//!
//! Physical operators for the wfopt engine, all implementing the pull-based
//! segment-at-a-time [`Operator`] trait ([`operator`] module):
//!
//! * [`operator`] — the `Operator` trait itself plus the leaves
//!   ([`TableScan`], [`SegmentSource`]) and the [`drain`] adapter that
//!   materializes a chain into a [`SegmentedRows`],
//! * [`full_sort`](mod@full_sort) — **FS**: external merge sort (replacement-selection run
//!   formation + F-way merge bounded by the memory budget `M`); blocking,
//!   emits one totally ordered segment,
//! * [`hashed_sort`](mod@hashed_sort) — **HS**: hash partitioning into buckets of complete
//!   window partitions with victim spilling and the MFV optimization
//!   (paper §3.2); emits **one lazily sorted bucket per pull**,
//! * [`segmented_sort`](mod@segmented_sort) — **SS**: per-unit sorts of `α`-groups inside the
//!   segments of an already-segmented input (paper §3.3); fully streaming,
//! * [`window`] — the window-function operator proper: partition and peer
//!   detection, ranking / distribution / reference / aggregate functions
//!   with ROWS and RANGE frames; fully streaming,
//! * [`relational`] — filter and hash/sort GROUP BY upstream operators,
//! * [`scheduler`] — the planner-driven parallel execution subsystem:
//!   partition-sharded worker pool, per-worker ledger sub-accounts, whole
//!   chain-parallel spans (in-worker window evaluation behind the
//!   `ReorderOp::Par` plan node) and their deterministic reassembly,
//! * [`segment`] — the segmented-rows representation flowing between
//!   operators (segment boundaries are physical metadata, mirroring how the
//!   paper's PostgreSQL operators pipeline window partitions).
//!
//! The free functions (`full_sort`, `hashed_sort`, `segmented_sort`,
//! `evaluate_window`, …) are thin wrappers that build the corresponding
//! operator over a [`SegmentSource`] and drain it — batch callers and the
//! streaming runtime share one implementation.
//!
//! All operators charge their I/O (in blocks), comparisons and hashes to a
//! shared [`wf_storage::CostTracker`], which is what the benchmark harness
//! converts into modeled execution time.

#![forbid(unsafe_code)]

pub mod env;
pub mod full_sort;
pub mod hashed_sort;
pub mod operator;
pub mod relational;
pub mod scheduler;
pub mod segment;
pub mod segmented_sort;
pub mod sorter;
pub mod util;
pub mod window;

pub use env::OpEnv;
pub use full_sort::{full_sort, FullSortOp};
pub use hashed_sort::{hashed_sort, HashedSortOp, HsOptions};
pub use operator::{drain, Operator, Segment, SegmentSource, TableScan};
pub use relational::{
    filter, group_by_hash, group_by_sort, FilterOp, GroupAgg, GroupByHashOp, GroupBySortOp,
    Predicate,
};
pub use scheduler::{per_worker_blocks, resolve_threads, ChainStage, ParInner, ParallelChainOp};
pub use segment::{BoundaryLayer, RunSplitter, SegmentBounds, SegmentedRows};
pub use segmented_sort::{segmented_sort, SegmentedSortOp};
pub use sorter::SortKey;
pub use window::{
    evaluate_window, group_len, Bound, FrameSpec, FrameUnits, StreamableEval, WindowFunction,
    WindowOp,
};
