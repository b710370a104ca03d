//! The SQL front end with frames and the full function library: moving
//! averages, running totals, ntile buckets and value references — prepared
//! and executed through a database session. A second statement names its
//! columns: the scan keeps only those it reads, and the rows are the
//! `SELECT *` form's with the list projected afterwards (checked here).
//!
//! ```sh
//! cargo run --example sql_frontend
//! ```

use wfopt::prelude::*;

fn main() -> Result<()> {
    let schema = Schema::of(&[
        ("day", DataType::Int),
        ("store", DataType::Str),
        ("revenue", DataType::Int),
    ]);
    let mut table = Table::new(schema);
    let revenue = [310, 295, 340, 280, 365, 390, 355, 320, 410, 375];
    for (i, r) in revenue.iter().enumerate() {
        let store = if i % 2 == 0 { "downtown" } else { "airport" };
        table.push(Row::new(vec![
            (i as i64 / 2 + 1).into(),
            store.into(),
            (*r).into(),
        ]));
    }

    let db = DatabaseConfig::new().per_query_blocks(64).open();
    db.register("daily_sales", table)?;

    let sql = "SELECT *, \
        sum(revenue) OVER (PARTITION BY store ORDER BY day) AS running_total, \
        avg(revenue) OVER (PARTITION BY store ORDER BY day \
                           ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS moving_avg_3d, \
        ntile(2) OVER (ORDER BY revenue DESC) AS revenue_half, \
        lag(revenue, 1, 0) OVER (PARTITION BY store ORDER BY day) AS prev_day, \
        max(revenue) OVER (PARTITION BY store) AS store_best \
        FROM daily_sales";

    let prepared = db.session().prepare(sql)?;
    println!(
        "table: {}, {} window functions\n",
        prepared.table_name(),
        prepared.window_query().specs.len()
    );
    println!("EXPLAIN:\n{}\n", prepared.explain());

    let outcome = prepared.execute()?;
    let out = &outcome.table;
    let names: Vec<&str> = out
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    println!("{}", names.join(" | "));
    for row in out.rows() {
        let cells: Vec<String> = row.values().iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join(" | "));
    }

    // An explicit list reads `store` and `revenue` only: `day` is dropped at
    // the scan, and every reorder moves two-column rows.
    let window = "sum(revenue) OVER (PARTITION BY store ORDER BY revenue) AS running";
    let listed = format!("SELECT revenue, store, {window} FROM daily_sales ORDER BY revenue");
    let starred = format!("SELECT *, {window} FROM daily_sales ORDER BY revenue");
    let explain = db.explain(&listed)?;
    println!("\nEXPLAIN {listed}:\n{explain}");
    assert!(
        explain.contains("scan columns: 2 of 3 (store, revenue)"),
        "the scan is pruned"
    );
    let narrow = db.query(&listed)?;
    let wide = db.query(&starred)?;
    let columns: Vec<AttrId> = ["revenue", "store", "running"]
        .iter()
        .map(|name| wide.schema().resolve(name))
        .collect::<Result<_>>()?;
    let projected: Vec<Row> = wide
        .rows()
        .iter()
        .map(|r| Row::new(columns.iter().map(|&a| r.get(a).clone()).collect()))
        .collect();
    assert_eq!(
        narrow.rows(),
        projected.as_slice(),
        "rows of the SELECT * form"
    );
    println!(
        "{} rows, equal to the SELECT * form projected",
        narrow.row_count()
    );
    Ok(())
}
