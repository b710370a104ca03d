//! Column pruning: a statement with a column list scans, plans and reorders
//! only the base columns it reads (`WindowQuery::prune_unread`), and its
//! rows are those of the `SELECT *` form with the list projected afterwards
//! — in order under a final ORDER BY, as a multiset otherwise — for every
//! planning scheme, spill backend and worker count. A list naming every
//! column is the `SELECT *` statement: same plan, same counters.

use wfopt::datagen::WsConfig;
use wfopt::prelude::*;

/// One explicit-list statement: its SELECT list, the window calls of that
/// list (what the `SELECT *` form appends), and what follows `FROM`.
struct Case {
    what: &'static str,
    list: &'static str,
    windows: &'static str,
    tail: &'static str,
}

const CASES: &[Case] = &[
    Case {
        what: "ORDER BY on an unselected column",
        list: "ws_item_sk, \
            rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r",
        windows: "rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r",
        tail: "ORDER BY ws_order_number DESC",
    },
    Case {
        what: "WHERE on an unselected column",
        list: "ws_quantity, ws_item_sk, \
            sum(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS s",
        windows: "sum(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS s",
        tail: "WHERE ws_warehouse_sk BETWEEN 2 AND 9",
    },
    Case {
        what: "window argument and PARTITION BY columns unselected",
        list: "ws_sold_time_sk, \
            sum(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS s, \
            max(ws_bill_customer_sk) OVER (PARTITION BY ws_warehouse_sk) AS m",
        windows: "sum(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS s, \
            max(ws_bill_customer_sk) OVER (PARTITION BY ws_warehouse_sk) AS m",
        tail: "",
    },
    Case {
        what: "a window-only list that reads no base column",
        list: "row_number() OVER () AS rn",
        windows: "row_number() OVER () AS rn",
        tail: "",
    },
    Case {
        what: "the served medium statement",
        list: "ws_item_sk, ws_sold_time_sk, ws_quantity, \
            rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r, \
            sum(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS s",
        windows: "rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r, \
            sum(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS s",
        tail: "",
    },
];

/// Every column of `web_sales`, in table order, plus one window.
const EVERY_COLUMN_SQL: &str = "SELECT ws_sold_date_sk, ws_sold_time_sk, ws_ship_date_sk, \
    ws_item_sk, ws_bill_customer_sk, ws_warehouse_sk, ws_quantity, ws_order_number, \
    ws_padding, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r \
    FROM web_sales";
const EVERY_COLUMN_STAR_SQL: &str = "SELECT *, \
    rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales";

fn table() -> Table {
    WsConfig::small(1_500).generate()
}

/// A database over `table` with a pool a fifth of the table, so that the
/// `SELECT *` forms spill and the narrowed ones may not.
fn database(table: &Table, scheme: Scheme, backend: SpillBackendKind, workers: usize) -> Database {
    let db = DatabaseConfig::new()
        .scheme(scheme)
        .memory_blocks((table.block_count() / 5).max(2))
        .max_concurrent(1)
        .worker_threads(workers)
        .spill_backend(backend)
        .compress_spill(false)
        .open();
    db.register("web_sales", table.clone()).unwrap();
    db
}

/// `table`'s columns named by `schema`, in that order.
fn project_by_name(table: &Table, schema: &Schema) -> Vec<Row> {
    let columns: Vec<AttrId> = schema
        .fields()
        .iter()
        .map(|f| table.schema().resolve(&f.name).unwrap())
        .collect();
    table
        .rows()
        .iter()
        .map(|r| Row::new(columns.iter().map(|&a| r.get(a).clone()).collect()))
        .collect()
}

fn sorted(rows: &[Row]) -> Vec<String> {
    let mut keys: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
    keys.sort();
    keys
}

#[test]
fn explicit_lists_equal_the_star_form_projected() {
    let table = table();
    let schemes = [Scheme::Cso, Scheme::Bfo, Scheme::Psql];
    let backends = [SpillBackendKind::Mem, SpillBackendKind::File];
    for scheme in schemes {
        for backend in backends {
            for workers in [1, 4] {
                let db = database(&table, scheme, backend, workers);
                for case in CASES {
                    let at = format!("{} ({scheme}, {backend:?}, {workers} workers)", case.what);
                    let list = format!("SELECT {} FROM web_sales {}", case.list, case.tail);
                    let star = format!("SELECT *, {} FROM web_sales {}", case.windows, case.tail);
                    let prepared = db.session().prepare(&list).unwrap();
                    let read = prepared.window_query().scan_columns.as_ref();
                    assert!(
                        read.is_some_and(|c| c.len() < table.schema().len()),
                        "{at}: the scan is narrowed"
                    );
                    let got = prepared.execute().unwrap().table;
                    let want = db.query(&star).unwrap();
                    assert_eq!(got.row_count(), want.row_count(), "{at}");
                    let want = project_by_name(&want, got.schema());
                    if case.tail.contains("ORDER BY") {
                        assert_eq!(got.rows(), want.as_slice(), "{at}: in order");
                    } else {
                        assert_eq!(sorted(got.rows()), sorted(&want), "{at}");
                    }
                }
                assert_eq!(db.spill_stats().live_objects, 0, "no spill object leaks");
            }
        }
    }
}

/// Naming every column is `SELECT *`: nothing is pruned, and the plan, the
/// rows and every counter are the star statement's.
#[test]
fn a_list_naming_every_column_is_the_star_statement() {
    let table = table();
    for workers in [1, 4] {
        // One database per statement: a database's store counters add up
        // across its statements.
        let run = |sql| {
            let db = database(&table, Scheme::Cso, SpillBackendKind::Mem, workers);
            db.session().execute(sql).unwrap()
        };
        let listed = run(EVERY_COLUMN_SQL);
        let star = run(EVERY_COLUMN_STAR_SQL);
        assert!(star.report.work.blocks_written > 0, "the statement spills");
        assert!(listed.plan.scan_columns.is_none());
        assert_eq!(listed.plan.chain_string(), star.plan.chain_string());
        assert_eq!(listed.plan.est_cost, star.plan.est_cost);
        assert_eq!(listed.report.work, star.report.work);
        assert_eq!(listed.report.modeled_ms, star.report.modeled_ms);
        assert_eq!(
            listed.report.store.peak_resident_bytes,
            star.report.store.peak_resident_bytes
        );
        assert_eq!(
            listed.report.store.spill_blocks_written,
            star.report.store.spill_blocks_written
        );
        assert_eq!(listed.table.rows(), star.table.rows());
        assert!(!listed.explain().contains("scan columns:"));
    }
}

/// A narrowed statement plans on the narrowed width: fewer blocks to move,
/// and its EXPLAIN names the columns the scan keeps.
#[test]
fn a_narrowed_statement_plans_and_explains_its_width() {
    let table = table();
    let db = database(&table, Scheme::Cso, SpillBackendKind::Mem, 1);
    let medium = &CASES[4];
    let list = format!("SELECT {} FROM web_sales", medium.list);
    let star = format!("SELECT *, {} FROM web_sales", medium.windows);
    let narrow = db.session().execute(&list).unwrap();
    let wide = db.session().execute(&star).unwrap();
    let weights = wfopt::storage::CostWeights::default();
    assert!(narrow.plan.est_cost.ms(&weights) < wide.plan.est_cost.ms(&weights));
    assert!(
        narrow.report.work.io_blocks() < wide.report.work.io_blocks(),
        "{} vs {} blocks",
        narrow.report.work.io_blocks(),
        wide.report.work.io_blocks()
    );
    let line = "scan columns: 3 of 9 (ws_sold_time_sk, ws_item_sk, ws_quantity)";
    assert!(narrow.explain().contains(line), "{}", narrow.explain());
    assert!(db.explain(&list).unwrap().contains(line));
    // The step labels stay as pinned.
    assert_eq!(narrow.report.step_metrics[0].label, "scan+filter");
}

/// Duplicate output names fail at prepare time, before planning and
/// admission, for SQL and hand-built queries alike.
#[test]
fn duplicate_output_names_fail_before_admission() {
    let table = table();
    let db = database(&table, Scheme::Cso, SpillBackendKind::Mem, 1);
    let statements = [
        "SELECT ws_item_sk, ws_item_sk, \
         rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales",
        "SELECT ws_item_sk, rank() OVER (ORDER BY ws_quantity) AS r, \
         rank() OVER (ORDER BY ws_sold_time_sk) AS r FROM web_sales",
        "SELECT ws_item_sk, rank() OVER (ORDER BY ws_sold_time_sk) AS ws_quantity \
         FROM web_sales",
        "SELECT *, rank() OVER (ORDER BY ws_sold_time_sk) AS ws_quantity FROM web_sales",
    ];
    for sql in statements {
        let err = db.session().prepare(sql).unwrap_err();
        assert!(
            matches!(&err, Error::InvalidQuery(m) if m.contains("duplicate output column")),
            "{sql}: {err}"
        );
    }
    let schema = table.schema().clone();
    let built = QueryBuilder::new(&schema)
        .rank("ws_item_sk", &["ws_warehouse_sk"], &[])
        .build()
        .unwrap();
    let err = db.session().prepare_query("web_sales", built).unwrap_err();
    assert!(matches!(err, Error::InvalidQuery(_)), "{err}");
    assert_eq!(db.admission_stats().admitted, 0, "nothing was admitted");
}
