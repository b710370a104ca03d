//! A statement's final ORDER BY runs in the statement's pool like every
//! other reorder: its input is read through the result's shared rows, its
//! output goes through the store, and nothing stays behind — no residency,
//! no spill object, no spill file — whatever the per-query budget and the
//! spill medium.

mod common;

use common::random_table;
use wfopt::core::plan::order_by_cost;
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

/// The final ORDER BY is part of the statement's execution, not a pass
/// after it: against the same statement without it, its sort's comparisons
/// and run I/O are in `report.work`, its pool traffic in `report.store`,
/// EXPLAIN ANALYZE has a row for it, and `est_cost` carries its price —
/// for a full sort and for a segmented sort of a satisfied prefix.
#[test]
fn the_final_sort_is_metered_reported_and_priced() {
    let table = random_table(3_000, &[40, 25], 7);
    let blocks = 4u64;
    let run = |sql: &str| {
        let db = DatabaseConfig::new()
            .scheme(Scheme::Cso)
            .memory_blocks(blocks)
            .max_concurrent(1)
            .per_query_blocks(blocks)
            .spill_backend(SpillBackendKind::Mem)
            .open();
        db.register("t", table.clone()).unwrap();
        db.session().prepare(sql).unwrap().execute().unwrap()
    };
    let cases = [
        (
            "SELECT *, rank() OVER (PARTITION BY c0 ORDER BY c1) AS r FROM t",
            "ORDER BY r DESC, id",
            "FS→ ORDER BY",
            "output: R{},(r desc,id)",
        ),
        (
            "SELECT *, rank() OVER (ORDER BY c1) AS g FROM t",
            "ORDER BY c1, id DESC",
            "SS→ ORDER BY",
            "output: R{},(c1,id desc)",
        ),
    ];
    for (sql, tail, label, output) in cases {
        let plain = run(sql);
        let sorted = run(&format!("{sql} {tail}"));
        let (p, s) = (&plain.report, &sorted.report);
        assert_eq!(s.table.row_count(), p.table.row_count(), "{label}");

        assert!(s.work.comparisons > p.work.comparisons, "{label}");
        // A full sort of the ~15-block result writes runs at 4 blocks; a
        // segmented sort's c1 groups each fit, so it writes none.
        if label.starts_with("FS") {
            assert!(s.work.blocks_written > p.work.blocks_written, "{label}");
        }
        assert!(
            s.store.spill_blocks_written > p.store.spill_blocks_written,
            "{label}: {:?} vs {:?}",
            s.store,
            p.store
        );

        let last = s.step_metrics.last().unwrap();
        assert_eq!(last.label, label);
        assert_eq!(last.rows, s.table.row_count() as u64, "{label}");
        assert!(last.work.comparisons > 0, "{label}");
        assert_eq!(s.step_metrics.len(), p.step_metrics.len() + 1, "{label}");
        assert!(sorted.explain().contains(label), "{}", sorted.explain());
        assert!(!plain.explain().contains("ORDER BY"), "{}", plain.explain());
        // The properties lines name their columns, as the step lines do,
        // and the output line gives the order rows leave in: the final
        // sort's, not the chain's.
        let text = sorted.explain();
        assert!(text.starts_with("input: R(unordered)\n"), "{text}");
        assert!(text.contains(&format!("\n{output}\n")), "{text}");
        assert!(!text.contains('#'), "{text}");

        // The chain is the same; the estimate grows by the sort's price.
        assert_eq!(sorted.plan.chain_string(), plain.plan.chain_string());
        let order = sorted.plan.order_by.as_ref().unwrap();
        let stats = TableStats::from_table(&table);
        let (_, price) = order_by_cost(&plain.plan.final_props, order, &stats, blocks);
        let weights = ExecEnv::with_memory_blocks(blocks).weights();
        let want = plain.plan.est_cost.ms(&weights) + price.ms(&weights);
        let got = sorted.plan.est_cost.ms(&weights);
        assert!(price.ms(&weights) > 0.0, "{label}");
        assert!(
            (got - want).abs() <= 1e-9 * want,
            "{label}: {got} vs {want}"
        );
    }
}
