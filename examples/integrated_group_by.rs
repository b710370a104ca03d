//! Integrated window-query optimization (paper §5): the windowed table is
//! produced by a GROUP BY, and the optimizer weighs *hash* aggregation
//! (grouped output, cheap) against *sort* aggregation (sorted output, more
//! expensive upstream but the window chain then needs only a Segmented
//! Sort).
//!
//! ```sh
//! cargo run --release --example integrated_group_by
//! ```

use wfopt::core::integrated::{optimize_integrated, InputVariant};
use wfopt::core::SegProps;
use wfopt::datagen::{WsColumn, WsConfig};
use wfopt::exec::{filter, group_by_hash, group_by_sort, GroupAgg, Predicate};
use wfopt::prelude::*;

fn main() -> Result<()> {
    // SELECT item, count(*), sum(quantity),
    //        rank() OVER (PARTITION BY item_group ORDER BY sales) ...
    // FROM web_sales WHERE quantity <= 50 GROUP BY item_group, item
    let cfg = WsConfig {
        rows: 60_000,
        d_item: 3_000,
        ..WsConfig::default()
    };
    let base = cfg.generate();
    let item = WsColumn::Item.attr();
    let qty = WsColumn::Quantity.attr();

    let env = ExecEnv::with_memory_blocks(32);
    let filtered = filter(&base, &Predicate::Le(qty, Value::Int(50)), env.op_env())?;
    println!(
        "filtered: {} of {} rows",
        filtered.row_count(),
        base.row_count()
    );

    // The windowed table: per-item sales summary. Two upstream plans:
    let keys = [item];
    let aggs = [GroupAgg::CountStar, GroupAgg::Sum(qty)];

    let env_hash = ExecEnv::with_memory_blocks(32);
    let by_hash = group_by_hash(&filtered, &keys, &aggs, env_hash.op_env())?;
    let hash_cost = env_hash
        .weights()
        .modeled_ms(&env_hash.tracker().snapshot());

    let env_sort = ExecEnv::with_memory_blocks(32);
    let by_sort = group_by_sort(&filtered, &keys, &aggs, env_sort.op_env())?;
    let sort_cost = env_sort
        .weights()
        .modeled_ms(&env_sort.tracker().snapshot());

    println!(
        "group_by_hash: {} groups, {:.1} modeled ms (grouped output)",
        by_hash.row_count(),
        hash_cost
    );
    println!(
        "group_by_sort: {} groups, {:.1} modeled ms (sorted output)\n",
        by_sort.row_count(),
        sort_cost
    );

    // Window functions over the summary: rank items by total quantity,
    // and a global rank by order count.
    let schema = by_hash.schema().clone();
    let query = QueryBuilder::new(&schema)
        .rank(
            "rank_by_volume",
            &["ws_item_sk"],
            &[("sum_ws_quantity", true)],
        )
        .rank("global_by_count", &[], &[("count", true)])
        .build()?;

    // §5: hand both variants (with their true setup costs) to the
    // integrated optimizer.
    let key_attr = schema.resolve("ws_item_sk")?;
    let variants = vec![
        InputVariant {
            label: "hash GROUP BY (grouped)".into(),
            props: SegProps::new(AttrSet::from_iter([key_attr]), SortSpec::empty(), true),
            segments: by_hash.row_count() as u64,
            setup_cost_ms: hash_cost,
        },
        InputVariant {
            label: "sort GROUP BY (sorted)".into(),
            props: SegProps::sorted(SortSpec::new(vec![OrdElem::asc(key_attr)])),
            segments: 1,
            setup_cost_ms: sort_cost,
        },
    ];
    let stats = TableStats::from_table(&by_hash);
    let best = optimize_integrated(&query, &variants, &stats, Scheme::Cso, &env)?;
    println!(
        "chosen variant: {} → chain {} (total {:.1} modeled ms, final order: {:?})",
        variants[best.variant].label,
        best.plan.chain_string(),
        best.total_ms,
        best.plan.final_order
    );

    // Execute the chosen combination end to end, served through a session:
    // register the winning GROUP BY output and run the window query on it.
    let table = if best.variant == 0 { by_hash } else { by_sort };
    let db = DatabaseConfig::new()
        .scheme(Scheme::Cso)
        .per_query_blocks(32)
        .open();
    db.register("item_summary", table)?;
    let outcome = db
        .session()
        .prepare_query("item_summary", query)?
        .execute()?;
    println!(
        "served chain:   {} ({:.1} modeled ms)",
        outcome.plan.chain_string(),
        outcome.report.modeled_ms
    );
    println!("\ntop items by volume:");
    let rank_col = outcome.table.schema().resolve("rank_by_volume")?;
    let mut rows: Vec<&Row> = outcome.table.rows().iter().collect();
    rows.sort_by_key(|r| r.get(rank_col).as_int().unwrap_or(i64::MAX));
    for row in rows.iter().take(5) {
        println!("{row}");
    }
    Ok(())
}
