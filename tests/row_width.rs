//! Rows are allocated once, at their output width: the scan clones each row
//! with room for the statement's window columns, so the rows of an
//! in-memory `SELECT *` statement come back exactly full. A row that grew
//! on a window push instead would carry the spare of a doubled allocation.

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
