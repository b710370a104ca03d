//! The embedded `Database` façade through the session API: SQL in, tables
//! out, with projections, named windows, final ORDER BY, scheme selection
//! and the full [`QueryOutcome`] surface.

use wfopt::prelude::*;

fn sales_table() -> Table {
    let schema = Schema::of(&[
        ("store", DataType::Str),
        ("day", DataType::Int),
        ("revenue", DataType::Int),
    ]);
    let mut t = Table::new(schema);
    let data = [
        ("a", 1, 100),
        ("a", 2, 150),
        ("a", 3, 120),
        ("b", 1, 80),
        ("b", 2, 95),
        ("b", 3, 60),
    ];
    for (s, d, r) in data {
        t.push(Row::new(vec![s.into(), d.into(), r.into()]));
    }
    t
}

fn sales_db_with(cfg: DatabaseConfig) -> Database {
    let db = cfg.open();
    db.register("sales", sales_table()).unwrap();
    db
}

fn sales_db() -> Database {
    sales_db_with(DatabaseConfig::new())
}

#[test]
fn basic_query_appends_columns() {
    let db = sales_db();
    let out = db
        .query("SELECT *, rank() OVER (PARTITION BY store ORDER BY revenue DESC) AS r FROM sales")
        .unwrap();
    assert_eq!(out.schema().len(), 4);
    assert_eq!(out.row_count(), 6);
    let r = out.schema().resolve("r").unwrap();
    let store = out.schema().resolve("store").unwrap();
    let rev = out.schema().resolve("revenue").unwrap();
    for row in out.rows() {
        let is_best = row.get(r).as_int() == Some(1);
        if is_best && row.get(store).as_str() == Some("a") {
            assert_eq!(row.get(rev).as_int(), Some(150));
        }
        if is_best && row.get(store).as_str() == Some("b") {
            assert_eq!(row.get(rev).as_int(), Some(95));
        }
    }
}

#[test]
fn projection_and_order_by() {
    let db = sales_db();
    let out = db
        .query(
            "SELECT store, rank() OVER (PARTITION BY store ORDER BY revenue DESC) AS r \
             FROM sales ORDER BY store, r",
        )
        .unwrap();
    assert_eq!(out.schema().len(), 2, "projection keeps only store and r");
    let names: Vec<&str> = out
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    assert_eq!(names, vec!["store", "r"]);
    // Sorted by (store, r).
    let vals: Vec<(String, i64)> = out
        .rows()
        .iter()
        .map(|row| {
            (
                row.get(AttrId::new(0)).as_str().unwrap().to_string(),
                row.get(AttrId::new(1)).as_int().unwrap(),
            )
        })
        .collect();
    let mut sorted = vals.clone();
    sorted.sort();
    assert_eq!(vals, sorted);
}

#[test]
fn named_windows_through_database() {
    let db = sales_db();
    let out = db
        .query(
            "SELECT *, rank() OVER w AS r, sum(revenue) OVER w AS running \
             FROM sales WINDOW w AS (PARTITION BY store ORDER BY day)",
        )
        .unwrap();
    let running = out.schema().resolve("running").unwrap();
    let store = out.schema().resolve("store").unwrap();
    let day = out.schema().resolve("day").unwrap();
    for row in out.rows() {
        if row.get(store).as_str() == Some("a") && row.get(day).as_int() == Some(3) {
            assert_eq!(row.get(running).as_int(), Some(370));
        }
    }
}

#[test]
fn explain_shows_chain() {
    let db = sales_db();
    let text = db
        .explain(
            "SELECT *, rank() OVER (PARTITION BY store ORDER BY revenue) AS a, \
             rank() OVER (PARTITION BY store ORDER BY day) AS b FROM sales",
        )
        .unwrap();
    assert!(text.contains("ws"), "{text}");
    assert!(
        text.contains("SS→") || text.contains("FS→") || text.contains("HS→"),
        "{text}"
    );
}

#[test]
fn schemes_configurable_and_equivalent() {
    let sql = "SELECT *, rank() OVER (PARTITION BY store ORDER BY revenue) AS r FROM sales \
               ORDER BY store, day";
    let cso = sales_db_with(DatabaseConfig::new().scheme(Scheme::Cso))
        .query(sql)
        .unwrap();
    let psql = sales_db_with(DatabaseConfig::new().scheme(Scheme::Psql))
        .query(sql)
        .unwrap();
    assert_eq!(
        cso.rows(),
        psql.rows(),
        "schemes must agree row for row after ORDER BY"
    );
}

#[test]
fn order_by_column_dropped_by_projection() {
    // ORDER BY references `revenue`, which the projection then drops —
    // ordering must still be applied (order before project).
    let db = sales_db();
    let out = db
        .query(
            "SELECT store, rank() OVER (ORDER BY revenue) AS r FROM sales              ORDER BY revenue DESC",
        )
        .unwrap();
    assert_eq!(out.schema().len(), 2);
    // Highest revenue (150, store a, global rank 6) first.
    let r = out.schema().resolve("r").unwrap();
    let ranks: Vec<i64> = out
        .rows()
        .iter()
        .map(|row| row.get(r).as_int().unwrap())
        .collect();
    assert_eq!(ranks, vec![6, 5, 4, 3, 2, 1]);
}

#[test]
fn errors_are_reported() {
    let db = sales_db();
    assert!(db.query("SELECT *, rank() OVER () AS r FROM nope").is_err());
    assert!(db
        .query("SELECT *, nosuch() OVER () AS r FROM sales")
        .is_err());
    assert!(db.query("not sql at all").is_err());
    assert!(db.table("missing").is_err());
}

#[test]
fn tiny_memory_database_still_correct() {
    // A per-query budget of one block: the ledger floor still allows
    // execution.
    let db = sales_db_with(DatabaseConfig::new().per_query_blocks(1));
    let out = db
        .query("SELECT *, rank() OVER (ORDER BY revenue) AS r FROM sales")
        .unwrap();
    let r = out.schema().resolve("r").unwrap();
    let ranks: Vec<i64> = out
        .rows()
        .iter()
        .map(|row| row.get(r).as_int().unwrap())
        .collect();
    let mut sorted = ranks.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![1, 2, 3, 4, 5, 6]);
}

#[test]
fn query_detailed_returns_named_outcome() {
    let db = sales_db();
    let outcome = db
        .session()
        .execute("SELECT *, rank() OVER (PARTITION BY store ORDER BY revenue) AS r FROM sales")
        .unwrap();
    assert_eq!(outcome.table.row_count(), 6);
    assert!(!outcome.plan.steps.is_empty());
    assert_eq!(outcome.report.table.row_count(), 6);
    assert!(
        outcome.explain().contains("model ms"),
        "{}",
        outcome.explain()
    );
    assert!(outcome.wall >= outcome.report.wall);
    assert_eq!(outcome.queue_wait.as_nanos(), 0, "uncontended database");
    assert_eq!(outcome.admission.admitted, 1);
    assert!(outcome.trace.is_none(), "tracing is opt-in per session");
}

#[test]
fn prepared_query_is_reusable() {
    let db = sales_db();
    let prepared = db
        .session()
        .prepare("SELECT *, rank() OVER (ORDER BY revenue) AS r FROM sales")
        .unwrap();
    assert_eq!(prepared.table_name(), "sales");
    // A handle taken before anything ran, as each statement is given one.
    let handle = db.table("sales").unwrap();
    let first = prepared.execute().unwrap();
    let scanned = db.table("sales").unwrap().shared_rows();
    let second = prepared.execute().unwrap();
    assert_eq!(first.table.rows(), second.table.rows());
    // One copy of the rows per registered table: both executions and every
    // handle scan the same allocation …
    let again = db.table("sales").unwrap().shared_rows();
    assert!(std::sync::Arc::ptr_eq(&scanned, &again));
    assert!(std::sync::Arc::ptr_eq(&scanned, &handle.shared_rows()));
    // … until the table is replaced.
    db.register("sales", sales_table()).unwrap();
    let replaced = db.table("sales").unwrap().shared_rows();
    assert!(!std::sync::Arc::ptr_eq(&scanned, &replaced));
    assert_eq!(
        first.report.work, second.report.work,
        "modeled counters identical run to run"
    );
    assert_eq!(db.admission_stats().admitted, 2);
    assert_eq!(db.admission_stats().completed, 2);
}

#[test]
fn register_is_case_insensitive_like_the_catalog() {
    let db = DatabaseConfig::new().open();
    db.register("Sales", sales_table()).unwrap();
    assert!(db.table("SALES").is_ok());
    assert!(db.schema("sales").is_ok());
    let out = db
        .query("SELECT *, rank() OVER (ORDER BY revenue) AS r FROM SaLeS")
        .unwrap();
    assert_eq!(out.row_count(), 6);
}

/// What the removed `Database::with_*` builder shims did, through the config.
#[test]
fn deprecated_builder_shims_still_compile_and_run() {
    let db = DatabaseConfig::new()
        .scheme(Scheme::Psql)
        .per_query_blocks(8)
        .open();
    db.register("sales", sales_table()).unwrap();
    assert_eq!(db.config().resolved_per_query_blocks(), 8);
    let out = db
        .query("SELECT *, rank() OVER (ORDER BY revenue) AS r FROM sales")
        .unwrap();
    assert_eq!(out.row_count(), 6);
}

/// The scheme is fixed when a database is opened, not state its handles
/// share and can rewrite: two databases over the same table plan the same
/// statement each by its own config, interleaved, and every handle's
/// EXPLAIN names the scheme its `config()` reports.
#[test]
fn databases_with_different_schemes_plan_independently() {
    // Two windows on one partition key: CSO sorts once and re-sorts within
    // partitions, PSQL sorts once per function.
    let sql = "SELECT *, rank() OVER (PARTITION BY store ORDER BY revenue) AS r1, \
               rank() OVER (PARTITION BY store ORDER BY day) AS r2 FROM sales";
    let cso_cfg = DatabaseConfig::new().scheme(Scheme::Cso);
    let psql_cfg = DatabaseConfig::new().scheme(Scheme::Psql);
    let cso = sales_db_with(cso_cfg.clone());
    let cso_handle = cso.clone();
    let psql = sales_db_with(psql_cfg.clone());
    for _ in 0..2 {
        for (db, cfg, scheme) in [
            (&cso, &cso_cfg, Scheme::Cso),
            (&psql, &psql_cfg, Scheme::Psql),
            (&cso_handle, &cso_cfg, Scheme::Cso),
        ] {
            assert_eq!(db.config(), cfg);
            let explain = db.explain(sql).unwrap();
            assert!(explain.contains(&format!("[{scheme};")), "{explain}");
        }
    }
    assert_ne!(cso.explain(sql).unwrap(), psql.explain(sql).unwrap());
}
