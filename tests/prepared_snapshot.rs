//! A prepared statement runs on the table it was planned on. `prepare`
//! looks the FROM table up once and keeps that registry entry — rows and
//! statistics — so re-registering the name afterwards changes what later
//! statements see, never what an already prepared one runs on.

use std::sync::{Arc, Barrier};
use std::thread;
use wfopt::prelude::*;

const SQL: &str = "SELECT *, rank() OVER (PARTITION BY c0 ORDER BY c1) AS r FROM t";

/// `(c0, c1)` rows whose rank partitioned on `c0` differs from the rank
/// partitioned on `c1`.
fn pairs() -> Vec<(i64, i64)> {
    (0..60).map(|i| (i % 4, (i * 7) % 9)).collect()
}

/// `t(c0, c1)`.
fn original() -> Table {
    let mut t = Table::new(Schema::of(&[("c0", DataType::Int), ("c1", DataType::Int)]));
    for (a, b) in pairs() {
        t.push(Row::new(vec![a.into(), b.into()]));
    }
    t
}

/// The same rows with the columns swapped: `t(c1, c0)`.
fn swapped() -> Table {
    let mut t = Table::new(Schema::of(&[("c1", DataType::Int), ("c0", DataType::Int)]));
    for (a, b) in pairs() {
        t.push(Row::new(vec![b.into(), a.into()]));
    }
    t
}

/// A one-column `t(c0)`.
fn narrow() -> Table {
    let mut t = Table::new(Schema::of(&[("c0", DataType::Int)]));
    for i in 0..5i64 {
        t.push(Row::new(vec![i.into()]));
    }
    t
}

fn database() -> Database {
    DatabaseConfig::new().max_concurrent(2).open()
}

/// `SQL`'s result on a fresh database holding only `table`.
fn fresh(table: Table) -> Table {
    let db = database();
    db.register("t", table).unwrap();
    db.query(SQL).unwrap()
}

fn same(a: &Table, b: &Table) -> bool {
    a.schema() == b.schema() && a.rows() == b.rows()
}

#[test]
fn a_prepared_statement_ignores_a_swapped_replacement() {
    let want = fresh(original());
    assert!(
        !same(&want, &fresh(swapped())),
        "the two tables must give different results"
    );
    let db = database();
    db.register("t", original()).unwrap();
    let prepared = db.session().prepare(SQL).unwrap();
    db.register("t", swapped()).unwrap();
    let got = prepared.execute().unwrap();
    assert!(same(&got.table, &want), "{:?}", got.table.rows());
    assert!(same(&prepared.execute().unwrap().table, &want), "again");
    // A statement prepared now sees the replacement.
    let now = db.session().execute(SQL).unwrap();
    assert!(same(&now.table, &fresh(swapped())));
}

#[test]
fn a_prepared_statement_survives_a_narrower_replacement() {
    let want = fresh(original());
    let db = database();
    db.register("t", original()).unwrap();
    let prepared = db.session().prepare(SQL).unwrap();
    db.register("t", narrow()).unwrap();
    let got = prepared.execute().unwrap();
    assert!(same(&got.table, &want), "{:?}", got.table.rows());
    // The replacement has no `c1`: new statements fail to bind, cleanly.
    let err = db.session().prepare(SQL).unwrap_err();
    assert!(matches!(err, Error::UnknownAttribute(_)), "{err}");
}

#[test]
fn statements_racing_re_registration_see_one_whole_table() {
    let results = [fresh(original()), fresh(swapped())];
    let db = database();
    db.register("t", original()).unwrap();
    // Both threads start together, so their loops overlap.
    let start = Arc::new(Barrier::new(2));
    let writer = {
        let db = db.clone();
        let start = Arc::clone(&start);
        thread::spawn(move || {
            start.wait();
            for i in 0..200 {
                let table = if i % 2 == 0 { swapped() } else { original() };
                db.register("t", table).unwrap();
                thread::yield_now();
            }
        })
    };
    let reader = {
        let db = db.clone();
        thread::spawn(move || {
            start.wait();
            for i in 0..200 {
                let out = db.session().execute(SQL).unwrap();
                assert!(
                    results.iter().any(|r| same(&out.table, r)),
                    "iteration {i}: {:?}",
                    out.table.rows()
                );
            }
        })
    };
    writer.join().expect("the writer does not panic");
    reader
        .join()
        .expect("every statement ran on one whole table");
}

#[test]
fn prepare_query_rejects_a_query_built_on_another_schema() {
    let db = database();
    db.register("t", original()).unwrap();
    for other in [swapped(), narrow()] {
        let schema = other.schema().clone();
        let query = QueryBuilder::new(&schema)
            .rank("r", &["c0"], &[])
            .build()
            .unwrap();
        let err = db.session().prepare_query("t", query).unwrap_err();
        assert!(matches!(err, Error::InvalidQuery(_)), "{err}");
    }
    assert_eq!(db.admission_stats().admitted, 0, "nothing was admitted");
    // On the table's own schema the same builder plans and runs.
    let schema = original().schema().clone();
    let query = QueryBuilder::new(&schema)
        .rank("r", &["c0"], &[("c1", false)])
        .build()
        .unwrap();
    let out = db.session().prepare_query("t", query).unwrap().execute();
    assert!(same(&out.unwrap().table, &fresh(original())));
    // `SELECT c0, r`, already narrowed to the one column it reads, is on
    // its table's schema too.
    let mut query = QueryBuilder::new(&schema)
        .rank("r", &["c0"], &[])
        .build()
        .unwrap();
    query.projection = Some(vec![AttrId::new(0), AttrId::new(2)]);
    let narrowed = query.prune_unread();
    assert_eq!(narrowed.scan_columns, Some(vec![AttrId::new(0)]));
    let out = db.session().prepare_query("t", narrowed).unwrap().execute();
    assert_eq!(out.unwrap().table.row_count(), pairs().len());
}

#[test]
fn explain_analyze_is_rendered_on_request() {
    let db = database();
    db.register("t", original()).unwrap();
    let out = db.session().execute(SQL).unwrap();
    let text = out.explain();
    assert!(text.starts_with("input: R(unordered)\n"), "{text}");
    assert!(text.contains("model ms"), "{text}");
    for m in &out.report.step_metrics {
        assert!(text.contains(&m.label), "missing {}:\n{text}", m.label);
    }
    assert_eq!(text, out.explain(), "rendering is a pure function");
}
