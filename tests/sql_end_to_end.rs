//! SQL front end → planner → executor → ORDER BY, end to end — through the
//! session API: every statement runs via `Session::prepare` → `execute`.

mod common;

use common::{column_by_key, random_table, reference_rank};
use wfopt::prelude::*;

fn run_sql(sql: &str, table: &Table, scheme: Scheme, mem: u64) -> (Table, WindowQuery) {
    let db = DatabaseConfig::new()
        .scheme(scheme)
        .per_query_blocks(mem)
        .open();
    db.register("t", table.clone()).unwrap();
    let prepared = db.session().prepare(sql).expect("parse+bind+plan");
    let query = prepared.window_query().clone();
    let out = prepared.execute().expect("execute").table;
    (out, query)
}

#[test]
fn rank_via_sql_matches_reference() {
    let table = random_table(600, &[9, 31], 11);
    let (out, query) = run_sql(
        "SELECT *, rank() OVER (PARTITION BY c0 ORDER BY c1) AS r FROM t",
        &table,
        Scheme::Cso,
        8,
    );
    let expected = reference_rank(&table, &query.specs[0], AttrId::new(0));
    let got = column_by_key(&out, AttrId::new(0), AttrId::new(3));
    for (id, rank) in expected {
        assert_eq!(got[&id].as_int(), Some(rank));
    }
}

#[test]
fn where_clause_filters_before_windows() {
    let table = random_table(500, &[8, 40], 19);
    let (out, query) = run_sql(
        "SELECT *, rank() OVER (PARTITION BY c0 ORDER BY c1) AS r FROM t \
         WHERE c1 >= 10 AND c0 <> 3",
        &table,
        Scheme::Cso,
        8,
    );
    assert!(query.filter.is_some());
    let c0 = AttrId::new(1);
    let c1 = AttrId::new(2);
    let expected_rows = table
        .rows()
        .iter()
        .filter(|r| r.get(c1).as_int().unwrap() >= 10 && r.get(c0).as_int().unwrap() != 3)
        .count();
    assert!(expected_rows > 0 && expected_rows < table.row_count());
    assert_eq!(out.row_count(), expected_rows);
    assert!(out
        .rows()
        .iter()
        .all(|r| r.get(c1).as_int().unwrap() >= 10 && r.get(c0).as_int().unwrap() != 3));
    // Ranks are computed over the *filtered* relation: build the reference
    // on a pre-filtered table.
    let mut filtered = Table::new(table.schema().clone());
    for row in table.rows() {
        if row.get(c1).as_int().unwrap() >= 10 && row.get(c0).as_int().unwrap() != 3 {
            filtered.push(row.clone());
        }
    }
    let expected = reference_rank(&filtered, &query.specs[0], AttrId::new(0));
    let got = column_by_key(&out, AttrId::new(0), AttrId::new(3));
    for (id, rank) in expected {
        assert_eq!(got[&id].as_int(), Some(rank), "id {id}");
    }
}

#[test]
fn order_by_is_applied() {
    let table = random_table(300, &[7, 50], 12);
    let (out, _) = run_sql(
        "SELECT *, rank() OVER (PARTITION BY c0 ORDER BY c1) AS r \
         FROM t ORDER BY c0 DESC, r",
        &table,
        Scheme::Cso,
        16,
    );
    // Verify (c0 desc, r asc) ordering.
    let c0 = AttrId::new(1);
    let r = AttrId::new(3);
    for w in out.rows().windows(2) {
        let a = (
            w[0].get(c0).as_int().unwrap(),
            w[0].get(r).as_int().unwrap(),
        );
        let b = (
            w[1].get(c0).as_int().unwrap(),
            w[1].get(r).as_int().unwrap(),
        );
        assert!(
            a.0 > b.0 || (a.0 == b.0 && a.1 <= b.1),
            "ordering violated: {a:?} then {b:?}"
        );
    }
}

#[test]
fn aggregates_and_frames_via_sql() {
    // Deterministic small table for exact frame checks.
    let schema = Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]);
    let mut table = Table::new(schema);
    for (g, v) in [(1, 10), (1, 20), (1, 30), (2, 5), (2, 15)] {
        table.push(Row::new(vec![g.into(), v.into()]));
    }
    let (out, _) = run_sql(
        "SELECT *, sum(v) OVER (PARTITION BY g ORDER BY v) AS rsum, \
         avg(v) OVER (PARTITION BY g ORDER BY v ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) \
         AS mavg FROM t",
        &table,
        Scheme::Cso,
        8,
    );

    // Collect by (g, v) since ids are absent here.
    let mut by_gv = std::collections::HashMap::new();
    for row in out.rows() {
        let g = row.get(AttrId::new(0)).as_int().unwrap();
        let v = row.get(AttrId::new(1)).as_int().unwrap();
        let rsum = row.get(AttrId::new(2)).as_int().unwrap();
        let mavg = row.get(AttrId::new(3)).as_f64().unwrap();
        by_gv.insert((g, v), (rsum, mavg));
    }
    assert_eq!(by_gv[&(1, 10)], (10, 10.0));
    assert_eq!(by_gv[&(1, 20)], (30, 15.0));
    assert_eq!(by_gv[&(1, 30)], (60, 25.0));
    assert_eq!(by_gv[&(2, 5)], (5, 5.0));
    assert_eq!(by_gv[&(2, 15)], (20, 10.0));
}

#[test]
fn multiple_window_functions_one_statement() {
    let table = random_table(400, &[6, 17, 29], 13);
    let (out, query) = run_sql(
        "SELECT *, \
         rank() OVER (PARTITION BY c0 ORDER BY c1) AS r1, \
         rank() OVER (PARTITION BY c0 ORDER BY c2) AS r2, \
         rank() OVER (ORDER BY c1) AS r3 \
         FROM t",
        &table,
        Scheme::Cso,
        8,
    );
    for (i, spec) in query.specs.iter().enumerate() {
        let got = column_by_key(&out, AttrId::new(0), AttrId::new(4 + i));
        let expected = reference_rank(&table, spec, AttrId::new(0));
        for (id, rank) in expected {
            assert_eq!(got[&id].as_int(), Some(rank), "column {}", spec.name);
        }
    }
}

/// String literals with multi-byte characters match the stored values they
/// spell, through `Database::query`.
#[test]
fn non_ascii_string_literals_filter_by_equality() {
    let schema = Schema::of(&[("id", DataType::Int), ("s", DataType::Str)]);
    let mut table = Table::new(schema);
    let words = ["naïve", "é", "多字节", "🦀", "naive", "e"];
    for (id, word) in words.iter().cycle().take(24).enumerate() {
        table.push(Row::new(vec![Value::Int(id as i64), Value::str(*word)]));
    }
    let db = DatabaseConfig::new().open();
    db.register("t", table).unwrap();
    for word in &words[..4] {
        let sql =
            format!("SELECT *, row_number() OVER (ORDER BY id) AS rn FROM t WHERE s = '{word}'");
        let out = db.query(&sql).unwrap();
        assert_eq!(out.row_count(), 4, "{word}");
        for row in out.rows() {
            assert_eq!(row.get(AttrId::new(1)).as_str(), Some(*word));
        }
    }
}
