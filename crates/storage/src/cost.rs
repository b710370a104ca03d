//! Execution cost tracking and the calibrated time model.
//!
//! The paper measures wall-clock plan execution time on a 14.3 GB table over
//! SATA disks. At laptop scale with a simulated device, wall time alone no
//! longer reflects I/O, so every operator charges its work here:
//!
//! * block reads / writes (spill traffic),
//! * key comparisons (run formation heaps, merges, in-memory sorts),
//! * hash computations (Hashed Sort's partitioning phase),
//! * rows moved between operators.
//!
//! [`CostWeights`] converts a [`CostSnapshot`] into *modeled milliseconds*
//! with constants calibrated to commodity hardware of the paper's era
//! (sequential ~100 MB/s disk, ~10 ns per comparison). The benchmark harness
//! reports modeled time next to measured wall time; DESIGN.md §2 documents
//! this substitution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-safe counters for the segment-store pool's spill traffic.
///
/// Pool I/O is deliberately **not** part of [`CostTracker`]'s counters: the
/// paper's cost model prices reorder I/O (sort runs, hash buckets) but
/// assumes pipeline buffering between operators is free. The segment store
/// makes that buffering physically bounded — and the blocks it moves to keep
/// residency under the pool budget are a physical artifact of the bound,
/// not modeled work. Keeping them here preserves the invariant that the
/// modeled counters of a chain are bit-identical whether the pool is
/// bounded or not (see `wf_storage::segstore`).
#[derive(Debug, Default)]
pub struct PoolCounters {
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
    /// Counters every charge is mirrored into — how a per-statement account
    /// stays per statement while the shared pool's totals stay cumulative.
    parent: Option<Arc<PoolCounters>>,
}

impl PoolCounters {
    /// Fresh counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh counters that also charge everything to `parent`.
    pub fn mirroring(parent: Arc<PoolCounters>) -> Self {
        PoolCounters {
            parent: Some(parent),
            ..Self::default()
        }
    }

    /// Charge `n` pool block reads.
    #[inline]
    pub fn read_blocks(&self, n: u64) {
        self.blocks_read.fetch_add(n, Ordering::Relaxed);
        if let Some(p) = &self.parent {
            p.read_blocks(n);
        }
    }

    /// Charge `n` pool block writes.
    #[inline]
    pub fn write_blocks(&self, n: u64) {
        self.blocks_written.fetch_add(n, Ordering::Relaxed);
        if let Some(p) = &self.parent {
            p.write_blocks(n);
        }
    }

    /// Total pool blocks read back so far.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read.load(Ordering::Relaxed)
    }

    /// Total pool blocks written so far.
    pub fn blocks_written(&self) -> u64 {
        self.blocks_written.load(Ordering::Relaxed)
    }
}

/// Thread-safe accumulation of execution work. Cheap to share (`Arc`), cheap
/// to update (relaxed atomics).
#[derive(Debug, Default)]
pub struct CostTracker {
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
    comparisons: AtomicU64,
    hashes: AtomicU64,
    rows_moved: AtomicU64,
}

impl CostTracker {
    /// Fresh tracker with all counters zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `n` block reads.
    #[inline]
    pub fn read_blocks(&self, n: u64) {
        self.blocks_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Charge `n` block writes.
    #[inline]
    pub fn write_blocks(&self, n: u64) {
        self.blocks_written.fetch_add(n, Ordering::Relaxed);
    }

    /// Charge `n` key comparisons.
    #[inline]
    pub fn compare(&self, n: u64) {
        self.comparisons.fetch_add(n, Ordering::Relaxed);
    }

    /// Charge `n` hash computations.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn hash(&self, n: u64) {
        self.hashes.fetch_add(n, Ordering::Relaxed);
    }

    /// Charge `n` row movements (copies between operators/buffers).
    #[inline]
    pub fn move_rows(&self, n: u64) {
        self.rows_moved.fetch_add(n, Ordering::Relaxed);
    }

    /// Fold a finished snapshot into this tracker — how a parallel
    /// scheduler merges its workers' private trackers back into the chain's
    /// shared one. Callers absorb workers in a fixed (shard) order so the
    /// main tracker's totals are a deterministic function of the shards,
    /// independent of thread scheduling.
    pub fn absorb(&self, s: &CostSnapshot) {
        self.read_blocks(s.blocks_read);
        self.write_blocks(s.blocks_written);
        self.compare(s.comparisons);
        self.hash(s.hashes);
        self.move_rows(s.rows_moved);
    }

    /// Current totals.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            blocks_written: self.blocks_written.load(Ordering::Relaxed),
            comparisons: self.comparisons.load(Ordering::Relaxed),
            hashes: self.hashes.load(Ordering::Relaxed),
            rows_moved: self.rows_moved.load(Ordering::Relaxed),
            key_encodes: 0,
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.blocks_read.store(0, Ordering::Relaxed);
        self.blocks_written.store(0, Ordering::Relaxed);
        self.comparisons.store(0, Ordering::Relaxed);
        self.hashes.store(0, Ordering::Relaxed);
        self.rows_moved.store(0, Ordering::Relaxed);
    }
}

/// An immutable view of the counters; supports differencing so callers can
/// attribute work to a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostSnapshot {
    pub blocks_read: u64,
    pub blocks_written: u64,
    pub comparisons: u64,
    pub hashes: u64,
    pub rows_moved: u64,
    /// Always 0: rows are compared through their comparator, so no sort
    /// key is ever encoded. Kept because the benchmark reads the field
    /// (`sort.key_encodes`); it never enters modeled time.
    pub key_encodes: u64,
}

impl CostSnapshot {
    /// Total blocks transferred in either direction.
    pub fn io_blocks(&self) -> u64 {
        self.blocks_read + self.blocks_written
    }

    /// The counters the paper's cost model prices (everything except
    /// `key_encodes`, which is always 0). Equivalence tests compare these.
    pub fn modeled_counters(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.blocks_read,
            self.blocks_written,
            self.comparisons,
            self.hashes,
            self.rows_moved,
        )
    }

    /// Work performed since `earlier` (saturating).
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            blocks_read: self.blocks_read.saturating_sub(earlier.blocks_read),
            blocks_written: self.blocks_written.saturating_sub(earlier.blocks_written),
            comparisons: self.comparisons.saturating_sub(earlier.comparisons),
            hashes: self.hashes.saturating_sub(earlier.hashes),
            rows_moved: self.rows_moved.saturating_sub(earlier.rows_moved),
            key_encodes: self.key_encodes.saturating_sub(earlier.key_encodes),
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            blocks_read: self.blocks_read + other.blocks_read,
            blocks_written: self.blocks_written + other.blocks_written,
            comparisons: self.comparisons + other.comparisons,
            hashes: self.hashes + other.hashes,
            rows_moved: self.rows_moved + other.rows_moved,
            key_encodes: self.key_encodes + other.key_encodes,
        }
    }
}

/// Converts counters to modeled time. Defaults are calibrated to the paper's
/// hardware class: an 8 KiB block at ~100 MB/s sequential ≈ 80 µs; a key
/// comparison ≈ 10 ns; a hash ≈ 15 ns; a row move ≈ 20 ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Microseconds per block read or written.
    pub us_per_block_io: f64,
    /// Nanoseconds per key comparison.
    pub ns_per_comparison: f64,
    /// Nanoseconds per hash computation.
    pub ns_per_hash: f64,
    /// Nanoseconds per row moved.
    pub ns_per_row_move: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            us_per_block_io: 80.0,
            ns_per_comparison: 10.0,
            ns_per_hash: 15.0,
            ns_per_row_move: 20.0,
        }
    }
}

impl CostWeights {
    /// Modeled execution time in milliseconds for the given work.
    pub fn modeled_ms(&self, s: &CostSnapshot) -> f64 {
        let io_us = s.io_blocks() as f64 * self.us_per_block_io;
        let cpu_ns = s.comparisons as f64 * self.ns_per_comparison
            + s.hashes as f64 * self.ns_per_hash
            + s.rows_moved as f64 * self.ns_per_row_move;
        io_us / 1_000.0 + cpu_ns / 1_000_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = CostTracker::new();
        t.read_blocks(3);
        t.write_blocks(2);
        t.compare(10);
        t.hash(4);
        t.move_rows(7);
        let s = t.snapshot();
        assert_eq!(s.blocks_read, 3);
        assert_eq!(s.blocks_written, 2);
        assert_eq!(s.io_blocks(), 5);
        assert_eq!(s.comparisons, 10);
        assert_eq!(s.hashes, 4);
        assert_eq!(s.rows_moved, 7);
    }

    #[test]
    fn since_diffs_and_plus_sums() {
        let t = CostTracker::new();
        t.read_blocks(5);
        let a = t.snapshot();
        t.read_blocks(2);
        t.compare(1);
        let b = t.snapshot();
        let d = b.since(&a);
        assert_eq!(d.blocks_read, 2);
        assert_eq!(d.comparisons, 1);
        let sum = a.plus(&d);
        assert_eq!(sum.blocks_read, b.blocks_read);
    }

    #[test]
    fn reset_zeroes() {
        let t = CostTracker::new();
        t.read_blocks(5);
        t.reset();
        assert_eq!(t.snapshot(), CostSnapshot::default());
    }

    #[test]
    fn modeled_time_weighs_io_heavier_than_cpu() {
        let w = CostWeights::default();
        let io = CostSnapshot {
            blocks_read: 1000,
            ..Default::default()
        };
        let cpu = CostSnapshot {
            comparisons: 1000,
            ..Default::default()
        };
        assert!(w.modeled_ms(&io) > 1000.0 * w.modeled_ms(&cpu));
    }

    #[test]
    fn absorb_adds_every_counter() {
        let worker = CostTracker::new();
        worker.read_blocks(3);
        worker.write_blocks(2);
        worker.compare(10);
        worker.hash(4);
        worker.move_rows(7);
        let main = CostTracker::new();
        main.compare(1);
        main.absorb(&worker.snapshot());
        let s = main.snapshot();
        assert_eq!(
            (s.blocks_read, s.blocks_written, s.comparisons, s.hashes),
            (3, 2, 11, 4)
        );
        assert_eq!((s.rows_moved, s.key_encodes), (7, 0));
    }

    #[test]
    fn tracker_is_shareable_across_threads() {
        let t = Arc::new(CostTracker::new());
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            for _ in 0..100 {
                t2.compare(1);
            }
        });
        for _ in 0..100 {
            t.compare(1);
        }
        h.join().unwrap();
        assert_eq!(t.snapshot().comparisons, 200);
    }
}
