//! The machine-independent floor under the benchmark: `wfbench`'s four
//! in-process statements, configured as `benchmark/src/inproc.rs` configures
//! them over a scaled-down table, must keep their modeled cost and their
//! peak pool residency within a factor of two — either way — of the values
//! recorded here. The upper edge catches a plan or an operator that starts
//! doing twice the work; the lower edge catches a workload that silently
//! stops spilling. Both numbers come from deterministic counters, so the
//! constants hold on any machine; `wfbench check` compares the same counts
//! parent-vs-change to the digit on traced sets, this test only bounds them.
//!
//! Every engine knob is pinned in the config (worker threads, spill
//! backend, compression, read-ahead), so the `WF_WORKERS` /
//! `WF_SPILL_BACKEND` CI legs read the same constants: backends and thread
//! counts are invisible to the counters by contract.

mod common;

use common::{CHAIN_SQL, FANOUT_SQL, PAR_SQL};
use wfopt::datagen::WsConfig;
use wfopt::prelude::*;

/// Two fifths of the smallest benchmark table: a few seconds unoptimised.
const ROWS: usize = 10_000;

struct Case {
    name: &'static str,
    sql: &'static str,
    /// Pool (= per-query budget) in blocks, from the table's block count.
    pool: fn(u64) -> u64,
    /// File backend with LZSS; the in-memory backend otherwise.
    file_spill: bool,
    workers: usize,
    /// `report.modeled_ms` and `report.store.peak_resident_blocks()` at
    /// commit `dc7da6e`; `par_chain`'s `peak_blocks` re-recorded on top of
    /// `c9dc2c7`, when its scatter stopped copying the scanned table into
    /// the pool and its workers started parking finished buckets.
    modeled_ms: f64,
    peak_blocks: u64,
}

const CASES: [Case; 4] = [
    Case {
        name: "inmem_chain",
        sql: CHAIN_SQL,
        pool: |table| 4 * table,
        file_spill: false,
        workers: 1,
        modeled_ms: 25.18,
        peak_blocks: 51,
    },
    Case {
        name: "spill_chain",
        sql: CHAIN_SQL,
        pool: |_| 12,
        file_spill: true,
        workers: 1,
        modeled_ms: 295.41,
        peak_blocks: 12,
    },
    Case {
        name: "window_fanout",
        sql: FANOUT_SQL,
        pool: |table| 4 * table,
        file_spill: false,
        workers: 1,
        modeled_ms: 26.80,
        peak_blocks: 2,
    },
    Case {
        name: "par_chain",
        sql: PAR_SQL,
        pool: |table| (table / 8).max(2),
        file_spill: false,
        workers: 4,
        modeled_ms: 151.03,
        peak_blocks: 7,
    },
];

#[test]
fn benchmark_statements_stay_within_2x_of_their_recorded_cost_and_residency() {
    let table = WsConfig {
        rows: ROWS,
        seed: 42,
        ..WsConfig::default()
    }
    .generate();
    for case in &CASES {
        let pool = (case.pool)(table.block_count());
        let db = DatabaseConfig::new()
            .scheme(Scheme::Cso)
            .memory_blocks(pool)
            .max_concurrent(1)
            .per_query_blocks(pool)
            .worker_threads(case.workers)
            .spill_backend(if case.file_spill {
                SpillBackendKind::File
            } else {
                SpillBackendKind::Mem
            })
            .compress_spill(case.file_spill)
            .prefetch_blocks(0)
            .open();
        db.register("web_sales", table.clone()).unwrap();
        let report = db.session().execute(case.sql).unwrap().report;
        assert_eq!(report.table.row_count(), ROWS, "{}", case.name);

        let peak = report.store.peak_resident_blocks();
        // `--nocapture` prints what to record when a change moves them.
        println!(
            "{}: modeled_ms {:.2}, peak_blocks {peak}",
            case.name, report.modeled_ms
        );
        let within = |x: f64, recorded: f64| recorded / 2.0 < x && x < recorded * 2.0;
        assert!(
            within(report.modeled_ms, case.modeled_ms),
            "{}: modeled {:.3} ms left the 2x band around {:.3} ms",
            case.name,
            report.modeled_ms,
            case.modeled_ms
        );
        assert!(
            within(peak as f64, case.peak_blocks as f64),
            "{}: peak residency {peak} blocks left the 2x band around {}",
            case.name,
            case.peak_blocks
        );
        // One residency peak per scheduler worker, none from a serial plan.
        let par_workers = if case.workers > 1 { case.workers } else { 0 };
        assert_eq!(
            report.worker_peak_blocks.len(),
            par_workers,
            "{}",
            case.name
        );
        if case.workers > 1 {
            // The scatter holds nothing, but no shard fits its worker's
            // budget, so the workers park finished buckets on the device:
            // a residency in the band means the spilling still happens.
            assert!(
                report.store.spill_blocks_written > 0,
                "{} must pool-spill",
                case.name
            );
        }
        if case.file_spill {
            // The scan only reads: a block written is a block spilled.
            assert!(report.work.blocks_written > 0, "{} must spill", case.name);
        }
    }
}
