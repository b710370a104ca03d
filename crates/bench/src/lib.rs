//! # wf-bench
//!
//! The benchmark harness that regenerates every figure and table of the
//! paper's evaluation (§6). The `repro` binary drives the experiments;
//! Criterion benches wrap smaller versions for `cargo bench`.
//!
//! Scaling (DESIGN.md §2/§5): the paper runs a 14.3 GB table with unit
//! reorder memories of 10–1000 MB. We keep the *ratio* `B(R)/M` — each
//! paper-MB value maps to a block budget via [`paper_mb_to_blocks`] — and
//! report the calibrated time model over measured I/O-block and comparison
//! counters next to wall time.

pub mod experiments;
pub mod explain;
pub mod microbench;
pub mod queries;
pub mod report;

/// The paper's table size in MB (14.3 GB), the anchor of the `M` mapping.
pub const PAPER_TABLE_MB: f64 = 14_300.0;

/// Map a paper memory size (MB against 14.3 GB) to a block budget against
/// a table of `table_blocks` blocks, preserving `B/M`.
pub fn paper_mb_to_blocks(m_mb: f64, table_blocks: u64) -> u64 {
    ((m_mb / PAPER_TABLE_MB) * table_blocks as f64)
        .round()
        .max(2.0) as u64
}

/// The `M` axis of Fig. 3/4 (paper MB).
pub const FIG3_MEMORIES_MB: [f64; 8] = [10.0, 25.0, 50.0, 75.0, 100.0, 150.0, 500.0, 1000.0];

/// The `M` axis of the multi-function experiments (Figs. 5–8).
pub const QUERY_MEMORIES_MB: [f64; 3] = [50.0, 75.0, 150.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_mapping_preserves_ratio() {
        let blocks = 10_600;
        assert_eq!(paper_mb_to_blocks(10.0, blocks), 7);
        assert_eq!(paper_mb_to_blocks(150.0, blocks), 111);
        assert_eq!(paper_mb_to_blocks(1000.0, blocks), 741);
        // Floor of 2 blocks.
        assert_eq!(paper_mb_to_blocks(0.001, blocks), 2);
    }
}
