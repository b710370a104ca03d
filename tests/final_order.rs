//! A statement's final ORDER BY runs in the statement's pool like every
//! other reorder: its input is read through the result's shared rows, its
//! output goes through the store, and nothing stays behind — no residency,
//! no spill object, no spill file — whatever the per-query budget and the
//! spill medium.

mod common;

use common::random_table;
use wfopt::prelude::*;

/// One statement whose final ORDER BY the chain does not deliver, with a
/// projection.
struct Case {
    sql: &'static str,
    /// Whether its rank is partitioned on `c0` (else global).
    partitioned: bool,
    /// Its SELECT list as positions in `(id, c0, c1, rank)`.
    columns: &'static [usize],
    /// The ORDER BY over the projected row: (column, descending).
    key: &'static [(usize, bool)],
    /// How many of its elements the chain's output already satisfies.
    prefix: usize,
}

const CASES: &[Case] = &[
    // Hashed Sort on c0, then a full sort of the result.
    Case {
        sql: "SELECT id, c0, rank() OVER (PARTITION BY c0 ORDER BY c1) AS r FROM t \
              ORDER BY r DESC, id",
        partitioned: true,
        columns: &[0, 1, 3],
        key: &[(2, true), (0, false)],
        prefix: 0,
    },
    // Full Sort on c1, then a segmented sort of each c1 group on id.
    Case {
        sql: "SELECT c1, id, rank() OVER (ORDER BY c1) AS g FROM t ORDER BY c1, id DESC",
        partitioned: false,
        columns: &[2, 0, 3],
        key: &[(0, false), (1, true)],
        prefix: 1,
    },
];

/// The case's projected rows from first principles, sorted on its key.
fn reference(table: &Table, case: &Case) -> Vec<Row> {
    let int = |r: &Row, i: usize| r.get(AttrId::new(i)).as_int().unwrap();
    let base = table.rows();
    let mut rows: Vec<Row> = base
        .iter()
        .map(|row| {
            let peers_below = base
                .iter()
                .filter(|o| !case.partitioned || int(o, 1) == int(row, 1))
                .filter(|o| int(o, 2) < int(row, 2))
                .count();
            let full = [
                int(row, 0),
                int(row, 1),
                int(row, 2),
                1 + peers_below as i64,
            ];
            Row::new(case.columns.iter().map(|&c| Value::Int(full[c])).collect())
        })
        .collect();
    rows.sort_by(|a, b| {
        case.key
            .iter()
            .map(|&(c, desc)| {
                let o = int(a, c).cmp(&int(b, c));
                if desc {
                    o.reverse()
                } else {
                    o
                }
            })
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Live `wfopt-spill-*` names this process has in the temp directory.
fn spill_files() -> usize {
    let prefix = format!("wfopt-spill-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            name.to_string_lossy().starts_with(&prefix)
        })
        .count()
}

#[test]
fn final_order_by_sorts_in_the_pool_and_leaves_nothing_behind() {
    let table = random_table(3_000, &[40, 25], 7);
    let expected: Vec<Vec<Row>> = CASES.iter().map(|c| reference(&table, c)).collect();
    // 1 and 4 blocks spill the ~15-block result; 1 << 16 never does.
    for blocks in [1u64, 4, 1 << 16] {
        for backend in [SpillBackendKind::Mem, SpillBackendKind::File] {
            let db = DatabaseConfig::new()
                .scheme(Scheme::Cso)
                .memory_blocks(blocks)
                .max_concurrent(1)
                .per_query_blocks(blocks)
                .spill_backend(backend)
                .open();
            db.register("t", table.clone()).unwrap();
            for (case, expected) in CASES.iter().zip(&expected) {
                let ctx = format!("{} at {blocks} blocks on {backend:?}", case.sql);
                let prepared = db.session().prepare(case.sql).expect(&ctx);
                let order = prepared.window_query().order_by.clone().expect(&ctx);
                let props = &prepared.plan().final_props;
                assert!(!props.satisfies_order(&order), "{ctx}");
                assert_eq!(props.satisfied_order_prefix(&order), case.prefix, "{ctx}");
                let out = prepared.execute().expect(&ctx);
                assert_eq!(out.table.rows(), &expected[..], "{ctx}");
                assert_eq!(db.pool_snapshot().resident_bytes, 0, "{ctx}");
                assert_eq!(db.spill_stats().live_objects, 0, "{ctx}");
                assert_eq!(spill_files(), 0, "{ctx}");
            }
        }
    }
}
