//! Columnar-vs-row bit-identity: the columnar block path (`RowBatch`
//! lanes through TableScan, the vectorized FilterOp, the sorters, scatter
//! hashing) is a wall-clock optimization and must be invisible to every
//! deterministic observable. For identical plans, toggling
//! `ExecEnv::with_columnar` must leave
//!
//! * the output rows,
//! * the modeled counters (comparisons, I/O, key encodes, …),
//! * the pool statistics (spill traffic, peak tracked residency), and
//! * the recorded boundary layers
//!
//! bit-identical — across FS/HS/SS/Par reorders, bounded and unbounded
//! pools, and memory budgets from `M = 1` to fully resident. The
//! bounded-vs-unbounded modeled-counter invariant of PRs 3–5 must also
//! keep holding on the columnar path itself.

mod common;

use wfopt::core::cost::TableStats;
use wfopt::core::plan::{finalize_chain, PlanContext, PlanStep, ReorderOp};
use wfopt::core::props::SegProps;
use wfopt::core::runtime::{execute_plan, ExecEnv};
use wfopt::core::spec::WindowSpec;
use wfopt::exec::{
    drain, ChainStage, FullSortOp, Operator, ParInner, ParallelChainOp, TableScan, WindowOp,
};
use wfopt::prelude::*;

fn a(i: usize) -> AttrId {
    AttrId::new(i)
}
fn key(ids: &[usize]) -> SortSpec {
    SortSpec::new(ids.iter().map(|&i| OrdElem::asc(a(i))).collect())
}
fn aset(ids: &[usize]) -> AttrSet {
    AttrSet::from_iter(ids.iter().map(|&i| a(i)))
}

/// (p: int partition key, k: int order key with ties, v: int value with
/// NULLs, f: float with NULLs and a -0.0 sprinkle, s: low-cardinality
/// strings with NULLs and an empty string) — every columnar lane type,
/// with validity bitmaps in play, in scrambled order.
fn build_table(rows_n: usize) -> Table {
    let schema = Schema::of(&[
        ("p", DataType::Int),
        ("k", DataType::Int),
        ("v", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Str),
    ]);
    let mut t = Table::new(schema);
    let mut state = 0x243f6a8885a308d3u64;
    let mut rows = Vec::new();
    for _ in 0..rows_n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = state >> 16;
        let v = if r % 13 == 5 {
            Value::Null
        } else {
            Value::Int((r % 1000) as i64 - 500)
        };
        let f = match r % 11 {
            0 => Value::Null,
            1 => Value::Float(-0.0),
            _ => Value::Float(((r >> 8) % 1000) as f64 / 8.0 - 60.0),
        };
        let s = match r % 9 {
            0 => Value::Null,
            1 => Value::str(""),
            n => Value::str(format!("s{}", n % 7).as_str()),
        };
        rows.push((
            state,
            Row::new(vec![
                Value::Int((r % 24) as i64),
                Value::Int(((r >> 8) % 50) as i64),
                v,
                f,
                s,
            ]),
        ));
    }
    rows.sort_by_key(|(s, _)| *s);
    for (_, r) in rows {
        t.push(r);
    }
    t
}

/// Three window calls spanning the reorder family: rank over the int
/// keys (FS or Par∘FS), rank over the float order key (SS), rank
/// partitioned by the *string* column (HS — scatter hashing over the Str
/// lane).
fn specs() -> Vec<WindowSpec> {
    vec![
        WindowSpec::rank("r_pk", vec![a(0)], key(&[1])),
        WindowSpec::rank("r_pf", vec![a(0)], key(&[3])),
        WindowSpec::rank("r_sk", vec![a(4)], key(&[1])),
    ]
}

/// `reorder0 → r_pk  SS→ r_pf  HS→ r_sk` with `reorder0` either the
/// serial FS or `Par{FS}`; a WHERE predicate rides the plan so the
/// vectorized FilterOp sits between the scan and the first reorder.
fn chain_plan(stats: &TableStats, m: u64, workers: Option<usize>) -> wfopt::core::plan::Plan {
    let ctx = PlanContext::new(stats, m);
    let fs = ReorderOp::Fs { key: key(&[0, 1]) };
    let first = match workers {
        None => fs,
        Some(w) => ReorderOp::Par {
            inner: Box::new(fs),
            workers: w,
        },
    };
    let raw = vec![
        PlanStep {
            wf: 0,
            reorder: first,
        },
        PlanStep {
            wf: 1,
            reorder: ReorderOp::Ss {
                alpha: key(&[0]),
                beta: key(&[3]),
            },
        },
        PlanStep {
            wf: 2,
            reorder: ReorderOp::Hs {
                whk: aset(&[4]),
                key: key(&[4, 1]),
                n_buckets: 16,
                mfv: vec![],
            },
        },
    ];
    let mut plan = finalize_chain("columnar", &specs(), &SegProps::unordered(), 1, raw, &ctx);
    assert_eq!(plan.repairs, 0, "chain must be accepted as declared");
    plan.filter = Some(wfopt::exec::Predicate::Gt(a(2), Value::Int(-350)));
    plan
}

/// Rows + modeled counters + pool statistics of one execution.
#[allow(clippy::type_complexity)]
fn run(
    table: &Table,
    plan: &wfopt::core::plan::Plan,
    env: &ExecEnv,
) -> (Vec<Row>, wfopt::storage::CostSnapshot, (u64, u64, u64)) {
    let report = execute_plan(plan, table, env).unwrap();
    let snap = env.store_snapshot();
    (
        report.table.rows().to_vec(),
        report.work,
        (
            snap.spill_blocks_written,
            snap.spill_blocks_read,
            snap.peak_resident_blocks(),
        ),
    )
}

/// The acceptance matrix: {serial FS, Par(4)} × M ∈ {1, 2, 256} ×
/// {bounded, unbounded} pools. For each cell, columnar off (the
/// row-at-a-time reference) and columnar on (the default) must agree on
/// rows, modeled counters, and pool statistics — and the bounded vs
/// unbounded modeled counters must agree with each other on the columnar
/// path.
#[test]
fn columnar_toggle_is_invisible_to_rows_and_counters() {
    let table = build_table(6_000);
    let stats = TableStats::from_table(&table);
    for workers in [None, Some(4usize)] {
        for m in [1u64, 2, 256] {
            let plan = chain_plan(&stats, m, workers);
            let mut per_pool = Vec::new();
            for unbounded in [false, true] {
                let mk = |columnar: bool| {
                    let env = ExecEnv::with_memory_blocks(m).with_columnar(columnar);
                    if unbounded {
                        env.with_unbounded_pool()
                    } else {
                        env
                    }
                };
                let env_row = mk(false);
                let env_col = mk(true);
                let (rows_r, work_r, pool_r) = run(&table, &plan, &env_row);
                let (rows_c, work_c, pool_c) = run(&table, &plan, &env_col);
                assert_eq!(
                    rows_c, rows_r,
                    "workers={workers:?} M={m} unbounded={unbounded}: rows"
                );
                assert_eq!(
                    work_c, work_r,
                    "workers={workers:?} M={m} unbounded={unbounded}: modeled counters"
                );
                assert_eq!(
                    pool_c, pool_r,
                    "workers={workers:?} M={m} unbounded={unbounded}: pool counters"
                );
                if unbounded {
                    assert_eq!(pool_c.0, 0, "unbounded pool never spills");
                } else if m <= 2 {
                    assert!(pool_c.0 > 0, "tiny bounded pool must spill (M={m})");
                }
                per_pool.push(work_c);
            }
            // Bounded vs unbounded on the columnar path: the PR 3–5
            // modeled-counter invariant keeps holding over blocks.
            assert_eq!(
                per_pool[0], per_pool[1],
                "workers={workers:?} M={m}: bounded vs unbounded modeled counters"
            );
        }
    }
}

/// Boundary layers recorded through the columnar sorters equal the row
/// path's, at the operator level where segments are visible — for both
/// the serial FS chain and a one-stage parallel span — and are non-vacuous.
#[test]
fn columnar_boundary_layers_match_row_path() {
    use wfopt::exec::window::WindowFunction;
    let table = build_table(4_000);
    let wpk = aset(&[0]);
    let wok = key(&[1]);
    let record = vec![wpk.clone(), aset(&[0, 1])];

    let collect = |parallel: bool, columnar: bool| {
        let env = ExecEnv::with_memory_blocks(4).with_columnar(columnar);
        let op_env = env.op_env().clone();
        let scan = TableScan::new(&table, op_env.clone());
        let mut chain: Box<dyn Operator> = if parallel {
            let stage = ChainStage {
                ss: None,
                wpk: wpk.clone(),
                wok: wok.clone(),
                func: WindowFunction::Rank,
                frame: None,
            };
            let inner = ParInner::Fs { key: key(&[0, 1]) };
            Box::new(
                ParallelChainOp::new(scan, inner, wpk.clone(), 4, vec![stage], op_env)
                    .with_recorded_prefixes(record.clone()),
            )
        } else {
            let sort = FullSortOp::new(scan, key(&[0, 1]), op_env.clone())
                .with_recorded_prefixes(record.clone());
            Box::new(WindowOp::new(
                sort,
                wpk.clone(),
                wok.clone(),
                WindowFunction::Rank,
                None,
                op_env,
            ))
        };
        let out = drain(chain.as_mut()).unwrap();
        let bounds: Vec<_> = (0..out.segment_count())
            .map(|i| out.segment_bounds(i))
            .collect();
        (out.into_rows(), bounds)
    };

    for parallel in [false, true] {
        let (rows_r, bounds_r) = collect(parallel, false);
        let (rows_c, bounds_c) = collect(parallel, true);
        assert_eq!(rows_c, rows_r, "parallel={parallel}: rows");
        assert_eq!(bounds_c, bounds_r, "parallel={parallel}: boundary layers");
        assert!(
            bounds_r
                .iter()
                .any(|b| b.layers().iter().any(|l| l.attrs == wpk)),
            "recorded layers must be live, not vacuous"
        );
    }
}
