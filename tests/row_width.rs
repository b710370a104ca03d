//! Rows are allocated once, at their output width: the scan clones each row
//! with room for the statement's window columns, so the rows of an
//! in-memory `SELECT *` statement come back exactly full. A row that grew
//! on a window push instead would carry the spare of a doubled allocation.
//!
//! A spilled row is rebuilt the same way: a row cloned from the scan is
//! written as its base index and the window columns it gained, and read
//! back through the scan's view, so it comes back at its output width too —
//! and the device holds a fraction of the bytes the spill is charged for.

use wfopt::datagen::WsConfig;
use wfopt::prelude::*;

const CHAIN: &str = "SELECT *, \
    rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r1, \
    rank() OVER (PARTITION BY ws_item_sk, ws_bill_customer_sk ORDER BY ws_sold_date_sk) AS r2, \
    rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_ship_date_sk) AS r3, \
    sum(ws_quantity) OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_date_sk) AS s4 \
    FROM web_sales";

const FILTERED_GROUP: &str = "SELECT *, \
    rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r, \
    sum(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS s \
    FROM web_sales WHERE ws_quantity > 40";

#[test]
fn in_memory_statements_return_rows_at_output_width() {
    let table = WsConfig::small(3_000).generate();
    let base = table.schema().len();
    for (sql, windows) in [(CHAIN, 4), (FILTERED_GROUP, 2)] {
        for workers in [1, 2] {
            let db = DatabaseConfig::new()
                .memory_blocks(1 << 14)
                .worker_threads(workers)
                .open();
            db.register("web_sales", table.clone()).unwrap();
            let out = db.query(sql).unwrap();
            assert!(out.row_count() > 100, "{sql}");
            for r in out.rows() {
                assert_eq!(r.arity(), base + windows);
                assert_eq!(r.spare_capacity(), 0, "workers={workers}: {sql}");
            }
        }
    }
}

/// The four-window chain under a 12-block pool spills through every reorder.
/// Its rows come back as the in-memory run's do: the same rows, each exactly
/// full. A row decoded at the width it was written at would double on its
/// next window push and come back with spare room.
#[test]
fn spilled_statements_return_rows_at_output_width() {
    let table = WsConfig::small(20_000).generate();
    let run = |blocks: u64| {
        let db = DatabaseConfig::new()
            .memory_blocks(blocks)
            .max_concurrent(1)
            .open();
        db.register("web_sales", table.clone()).unwrap();
        let out = db.session().prepare(CHAIN).unwrap().execute().unwrap();
        assert_eq!(db.spill_stats().live_objects, 0);
        out
    };
    let resident = run(1 << 14);
    let spilled = run(12);
    assert_eq!(
        resident.report.work.blocks_written, 0,
        "the resident run spilled"
    );
    assert!(spilled.report.work.blocks_written > 0, "the chain spilled");
    // The two plans differ, and so does the order rows leave in: match
    // them on `ws_order_number`, which is unique.
    // them on `ws_order_number`, which is unique. (By reference: a clone
    // would not keep the capacity).
    fn by_order(rows: &[Row]) -> Vec<&Row> {
        let mut rows: Vec<&Row> = rows.iter().collect();
        rows.sort_by(|a, b| a.values()[7].cmp(&b.values()[7]));
        rows
    }
    let (spilled, resident) = (
        by_order(spilled.table.rows()),
        by_order(resident.table.rows()),
    );
    assert_eq!(spilled.len(), 20_000);
    for (s, r) in spilled.into_iter().zip(resident) {
        assert!(s == r, "{s} vs {r}");
        assert_eq!(s.spare_capacity(), r.spare_capacity(), "{s}");
        assert_eq!(s.spare_capacity(), 0, "{s}");
    }
}

/// On the mem backend without compression, with a padding string that
/// differs on every row, the bytes put on the device are at most 0.3 of the
/// logical bytes charged: every spilled row is written as a reference, six
/// bytes plus its window columns, while the charges count whole rows.
#[test]
fn spilled_rows_take_a_fraction_of_their_charged_bytes() {
    let base = WsConfig::small(20_000).generate();
    let mut table = Table::new(base.schema().clone());
    for (i, row) in base.rows().iter().enumerate() {
        let mut values = row.values().to_vec();
        let pad = values.last_mut().unwrap();
        *pad = Value::str(format!("{i:x}").repeat(135).split_at(135).0);
        table.push(Row::new(values));
    }
    let db = DatabaseConfig::new()
        .memory_blocks(12)
        .max_concurrent(1)
        .spill_backend(SpillBackendKind::Mem)
        .compress_spill(false)
        .open();
    db.register("web_sales", table).unwrap();
    let out = db.session().prepare(CHAIN).unwrap().execute().unwrap();
    let charged_blocks = out.report.work.blocks_written + out.report.store.spill_blocks_written;
    let logical = charged_blocks * wfopt::storage::BLOCK_SIZE as u64;
    let physical = db.spill_stats().bytes_written;
    assert!(charged_blocks > 1_000, "{charged_blocks} blocks charged");
    assert!(
        10 * physical <= 3 * logical,
        "{physical} bytes written for {logical} charged"
    );
    assert_eq!(db.spill_stats().live_objects, 0);
}
