//! Shared helpers for integration tests: an *independent* window-function
//! reference evaluator (hash partitions + per-group stable sort, no engine
//! code), random tables, and result comparison keyed by a unique id column.

// Not every integration-test binary uses every helper.
#![allow(dead_code)]

use std::collections::HashMap;
use wfopt::prelude::*;

/// Compute `rank()` for `spec` over `table` without any engine machinery:
/// group rows by WPK values, sort each group by WOK, assign ranks with
/// ties. Returns `unique_key -> rank`.
pub fn reference_rank(
    table: &Table,
    spec: &wfopt::core::spec::WindowSpec,
    key_col: AttrId,
) -> HashMap<i64, i64> {
    let mut groups: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
    for row in table.rows() {
        let k: Vec<Value> = spec.wpk().iter().map(|a| row.get(a).clone()).collect();
        groups.entry(k).or_default().push(row);
    }
    let cmp = RowComparator::new(spec.wok());
    let mut out = HashMap::new();
    for (_, mut rows) in groups {
        rows.sort_by(|a, b| cmp.compare(a, b));
        let mut rank = 0i64;
        for (i, row) in rows.iter().enumerate() {
            if i == 0 || !cmp.equal(rows[i - 1], row) {
                rank = i as i64 + 1;
            }
            out.insert(row.get(key_col).as_int().expect("int key"), rank);
        }
    }
    out
}

/// Extract `unique_key -> value` for an output column.
pub fn column_by_key(table: &Table, key_col: AttrId, val_col: AttrId) -> HashMap<i64, Value> {
    table
        .rows()
        .iter()
        .map(|r| {
            (
                r.get(key_col).as_int().expect("int key"),
                r.get(val_col).clone(),
            )
        })
        .collect()
}

/// A small random table: `id` (unique), plus `cols` integer columns with
/// the given distinct counts; deterministic in `seed`.
pub fn random_table(rows: usize, distincts: &[u64], seed: u64) -> Table {
    let mut fields = vec![("id", DataType::Int)];
    let names: Vec<String> = (0..distincts.len()).map(|i| format!("c{i}")).collect();
    for name in &names {
        fields.push((name.as_str(), DataType::Int));
    }
    let schema = Schema::of(&fields);
    let mut table = Table::new(schema);
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for id in 0..rows {
        let mut vals = vec![Value::Int(id as i64)];
        for &d in distincts {
            vals.push(Value::Int((next() % d.max(1)) as i64));
        }
        table.push(Row::new(vals));
    }
    table
}

// The benchmark's in-process statements — text of `benchmark/src/spec.rs`,
// which no test can import (the harness is a workspace of its own).

/// `inmem_chain` / `spill_chain`: four windows over three partition keys.
pub const CHAIN_SQL: &str = "SELECT *, \
    rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r1, \
    rank() OVER (PARTITION BY ws_item_sk, ws_bill_customer_sk ORDER BY ws_sold_date_sk) AS r2, \
    rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_ship_date_sk) AS r3, \
    sum(ws_quantity) OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_date_sk) AS s4 \
    FROM web_sales";

/// `window_fanout`: 24 functions in four named windows over one partitioning
/// and order.
pub const FANOUT_SQL: &str = "SELECT *, \
    rank() OVER w AS f_rank, \
    row_number() OVER w AS f_rn, \
    dense_rank() OVER w AS f_dr, \
    sum(ws_quantity) OVER w AS f_rsum, \
    count(*) OVER w AS f_cnt, \
    lag(ws_quantity, 1) OVER w AS f_lag, \
    lead(ws_quantity, 2) OVER w AS f_lead, \
    cume_dist() OVER w AS f_cd, \
    ntile(4) OVER w AS f_nt, \
    avg(ws_quantity) OVER w_ring AS f_mavg, \
    min(ws_quantity) OVER w_ring AS f_mmin, \
    max(ws_quantity) OVER w_ring AS f_mmax, \
    stddev_samp(ws_quantity) OVER w_ring AS f_msd, \
    first_value(ws_quantity) OVER w_ring AS f_first, \
    var_samp(ws_quantity) OVER w_ring AS f_mvar, \
    sum(ws_quantity) OVER w_range AS f_rgsum, \
    count(*) OVER w_range AS f_rgcnt, \
    min(ws_quantity) OVER w_range AS f_rgmin, \
    max(ws_quantity) OVER w_range AS f_rgmax, \
    avg(ws_quantity) OVER w_range AS f_rgavg, \
    sum(ws_quantity) OVER w_tail AS f_tail, \
    max(ws_quantity) OVER w_tail AS f_tmax, \
    last_value(ws_quantity) OVER w_tail AS f_tlast, \
    count(*) OVER w_tail AS f_tcnt \
    FROM web_sales \
    WINDOW w AS (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk), \
    w_ring AS (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk \
        ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING), \
    w_range AS (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk \
        RANGE BETWEEN 3600 PRECEDING AND 3600 FOLLOWING), \
    w_tail AS (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk \
        ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING)";

/// `par_chain`: a rank and a one-pass sum sharing the partition key.
pub const PAR_SQL: &str = "SELECT *, \
    rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r, \
    sum(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_warehouse_sk) AS s \
    FROM web_sales";
