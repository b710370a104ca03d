//! Parallel-vs-serial bit-identity for planned `ReorderOp::Par` chains.
//!
//! The scheduler's determinism contract (`wf_exec::scheduler`):
//!
//! * a `Par { Fs }` chain produces **the same rows** as the serial `Fs`
//!   chain, for any worker (shard) count — the ordered merge restores the
//!   stable serial sort order;
//! * for a fixed plan, modeled counters, pool counters and peak residency
//!   are **invariant under the thread count** (`1`, `2`, `4` threads) and
//!   under the bounded/unbounded pool toggle (modeled counters);
//! * boundary layers recorded by the parallel sort equal the serial sort's
//!   and hand off to downstream window steps identically;
//! * a parallel chain's tracked residency stays governed:
//!   `O(M + Σ_w M_w + largest unit)`, far below the relation.
//!
//! Chains mix the Par step with downstream SS and HS steps so the parallel
//! node is exercised inside real multi-reorder plans, not in isolation.

use wfopt::core::cost::TableStats;
use wfopt::core::plan::{finalize_chain, PlanContext, PlanStep, ReorderOp};
use wfopt::core::planner::{optimize, Scheme};
use wfopt::core::props::SegProps;
use wfopt::core::query::WindowQuery;
use wfopt::core::runtime::{execute_plan, ExecEnv};
use wfopt::core::spec::WindowSpec;
use wfopt::exec::{
    drain, FullSortOp, Operator, ParRoute, ParallelChainOp, TableScan, WindowOp, WorkerChain,
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

/// (p: partition key ~24 values, k: order key with ties, v: value,
/// w: second partition key ~16 values) in scrambled order.
fn build_table(rows_n: usize) -> Table {
    let schema = Schema::of(&[
        ("p", DataType::Int),
        ("k", DataType::Int),
        ("v", DataType::Int),
        ("w", DataType::Int),
    ]);
    let mut t = Table::new(schema);
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut rows = Vec::new();
    for i in 0..rows_n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = state >> 16;
        rows.push((
            state,
            Row::new(vec![
                Value::Int((r % 24) as i64),
                Value::Int(((r >> 8) % 50) as i64),
                Value::Int(((r >> 16) % 1000) as i64 - 500),
                Value::Int(((r >> 24) % 16) as i64),
            ]),
        ));
        let _ = i;
    }
    rows.sort_by_key(|(s, _)| *s);
    for (_, r) in rows {
        t.push(r);
    }
    t
}

/// Three window calls exercising the Par step plus downstream SS and HS:
/// rank over ({p},(k)), percent_rank over ({p},(v)) (the newly streamed
/// distribution class), rank over ({w},(k)).
fn specs() -> Vec<WindowSpec> {
    vec![
        WindowSpec::rank("r_pk", vec![a(0)], key(&[1])),
        WindowSpec::new(
            "pr_pv",
            wfopt::core::spec::WindowFunction::PercentRank,
            vec![a(0)],
            key(&[2]),
        ),
        WindowSpec::rank("r_wk", vec![a(3)], key(&[1])),
    ]
}

/// A chain `reorder0 → wf0  SS→ wf1  HS→ wf2` where `reorder0` is either
/// the serial FS or the parallel FS at `workers` shards.
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
                beta: key(&[2]),
            },
        },
        PlanStep {
            wf: 2,
            reorder: ReorderOp::Hs {
                whk: aset(&[3]),
                key: key(&[3, 1]),
                n_buckets: 16,
                mfv: vec![],
            },
        },
    ];
    let plan = finalize_chain("test", &specs(), &SegProps::unordered(), 1, raw, &ctx);
    assert_eq!(plan.repairs, 0, "chain must be accepted as declared");
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

/// The acceptance matrix: worker counts {1, 2, 4} × thread counts
/// {1, 2, 4} × pool sizes {M = 2, large}: rows always equal the serial
/// chain's; per (plan, pool), counters and pool statistics are invariant
/// under the thread count; bounded vs unbounded pools agree on modeled
/// counters.
#[test]
fn par_chain_bit_identity_across_workers_threads_and_pools() {
    let table = build_table(6_000);
    let stats = TableStats::from_table(&table);
    for m in [2u64, 256] {
        let serial_env = ExecEnv::with_memory_blocks(m).with_par_workers(1);
        let serial_plan = chain_plan(&stats, m, None);
        let (serial_rows, serial_work, _) = run(&table, &serial_plan, &serial_env);

        for workers in [1usize, 2, 4] {
            let plan = chain_plan(&stats, m, Some(workers));
            let mut reference: Option<(wfopt::storage::CostSnapshot, (u64, u64, u64))> = None;
            for threads in [1usize, 2, 4] {
                let env = ExecEnv::with_memory_blocks(m).with_worker_threads(threads);
                let (rows, work, pool) = run(&table, &plan, &env);
                assert_eq!(
                    rows, serial_rows,
                    "M={m} workers={workers} threads={threads}: rows vs serial chain"
                );
                match &reference {
                    None => reference = Some((work, pool)),
                    Some((r_work, r_pool)) => {
                        assert_eq!(
                            &work, r_work,
                            "M={m} workers={workers} threads={threads}: modeled counters"
                        );
                        assert_eq!(
                            &pool, r_pool,
                            "M={m} workers={workers} threads={threads}: pool counters"
                        );
                    }
                }
            }
            // Bounded vs unbounded pool: identical rows and modeled
            // counters — pool traffic stays physical for parallel chains.
            let env_u = ExecEnv::with_memory_blocks(m).with_unbounded_pool();
            let (rows_u, work_u, pool_u) = run(&table, &plan, &env_u);
            assert_eq!(
                rows_u, serial_rows,
                "M={m} workers={workers}: unbounded rows"
            );
            assert_eq!(
                work_u,
                reference.as_ref().unwrap().0,
                "M={m} workers={workers}: unbounded modeled counters"
            );
            assert_eq!(pool_u.0, 0, "unbounded pool never spills");
        }
        // The serial chain and the 1-worker Par chain differ only by the
        // scatter + merge accounting, never in rows — and the serial
        // chain's counters are untouched by this PR's machinery.
        assert!(serial_work.comparisons > 0);
    }
}

/// Boundary layers: a one-stage parallel span (sort and rank inside the
/// workers, ordered merge) emits the same rows under the same layers as
/// the serial sort feeding the serial window step — compared at the
/// operator level where segments are visible.
#[test]
fn par_chain_layers_match_serial() {
    use wfopt::exec::window::WindowFunction;
    let table = build_table(4_000);
    let wpk = aset(&[0]);
    let wok = key(&[1]);
    let union = aset(&[0, 1]);
    let record = vec![wpk.clone(), union.clone()];

    let collect = |parallel: bool| {
        let env = ExecEnv::with_memory_blocks(4);
        let op_env = env.op_env().clone();
        let scan = TableScan::new(&table, op_env.clone());
        let mut chain: Box<dyn Operator> = if parallel {
            let (wpk, wok, record) = (wpk.clone(), wok.clone(), record.clone());
            let chain: WorkerChain = std::sync::Arc::new(move |source, env| {
                let sort = FullSortOp::new(source, key(&[0, 1]), env.clone())
                    .with_recorded_prefixes(record.clone());
                Box::new(WindowOp::new(
                    sort,
                    wpk.clone(),
                    wok.clone(),
                    WindowFunction::Rank,
                    None,
                    env.clone(),
                ))
            });
            let route = ParRoute::Merge {
                order: key(&[0, 1]),
            };
            Box::new(ParallelChainOp::new(
                scan,
                route,
                aset(&[0]),
                4,
                chain,
                op_env,
            ))
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

    let (serial_rows, serial_bounds) = collect(false);
    let (par_rows, par_bounds) = collect(true);
    assert_eq!(par_rows, serial_rows);
    assert_eq!(par_bounds, serial_bounds, "layers after the window step");
    // The recorded layers actually exist (reuse is live, not vacuous).
    assert!(serial_bounds
        .iter()
        .any(|b| b.layers().iter().any(|l| l.attrs == wpk)));
}

/// Governed residency: a 4-worker chain at a tiny pool stays within a
/// small constant of `M + Σ_w M_w + largest unit` — never relation-sized —
/// and the high-water mark includes the workers' folded-back peaks.
#[test]
fn par_chain_residency_is_governed() {
    let table = build_table(12_000);
    let stats = TableStats::from_table(&table);
    let m = 2u64;
    let workers = 4usize;
    let plan = chain_plan(&stats, m, Some(workers));
    let env = ExecEnv::with_memory_blocks(m);
    let report = execute_plan(&plan, &table, &env).unwrap();
    assert_eq!(report.table.row_count(), table.row_count());
    let snap = env.store_snapshot();
    assert!(snap.spill_blocks_written > 0, "tiny pool must spill");

    let block = wfopt::storage::BLOCK_SIZE;
    // Whole-chain spans run the window (and fused SS) inside the workers,
    // so the governed form is `M + Σ_w (M_w + unit_w) + unit`: each worker
    // concurrently holds its per-worker budget plus its largest in-span
    // unit (a `p` partition, ~1/24 of the relation), and the serial HS step
    // downstream holds its largest bucket (~1/16 via `w`).
    let worker_unit = table.byte_size() / 20;
    let unit_bytes = table.byte_size() / 14;
    let budget_bytes = (m as usize) * block; // M, and Σ_w M_w ≤ M by construction
    let bound = 2 * (2 * budget_bytes + workers * (block + worker_unit) + unit_bytes);
    assert!(
        snap.peak_resident_bytes <= bound,
        "peak {} exceeds governed bound {bound}",
        snap.peak_resident_bytes
    );
    assert!(
        snap.peak_resident_bytes < table.byte_size() / 2,
        "peak {} is relation-sized ({})",
        snap.peak_resident_bytes,
        table.byte_size()
    );
}

/// One window workload per `StreamableEval` class, for the in-worker
/// evaluation matrix: a running sum over the SQL-default frame
/// (one-pass), a rank (ring), and a suffix sum over `ROWS CURRENT ROW ..
/// UNBOUNDED FOLLOWING` (buffered).
fn class_specs() -> Vec<(&'static str, WindowSpec, wfopt::exec::StreamableEval)> {
    use wfopt::core::spec::WindowFunction;
    use wfopt::exec::{Bound, FrameSpec, FrameUnits, StreamableEval};
    vec![
        (
            "one_pass",
            WindowSpec::new("s_run", WindowFunction::Sum(a(2)), vec![a(0)], key(&[1])),
            StreamableEval::OnePass,
        ),
        (
            "ring",
            WindowSpec::rank("r", vec![a(0)], key(&[1])),
            StreamableEval::Ring,
        ),
        (
            "buffered",
            WindowSpec::new("s_tail", WindowFunction::Sum(a(2)), vec![a(0)], key(&[1])).with_frame(
                FrameSpec {
                    units: FrameUnits::Rows,
                    start: Bound::CurrentRow,
                    end: Bound::UnboundedFollowing,
                },
            ),
            StreamableEval::Buffered,
        ),
    ]
}

/// In-worker window evaluation across every `StreamableEval` class: a
/// `Par{Fs}` span produces bit-identical rows to the serial FS chain for
/// each class, across workers {1, 2, 4} × threads {1, 3} × bounded and
/// unbounded pools, with modeled counters invariant per fixed plan.
#[test]
fn par_chain_in_worker_eval_classes_match_serial() {
    let table = build_table(4_000);
    let stats = TableStats::from_table(&table);
    let m = 2u64;
    let ctx = PlanContext::new(&stats, m);
    for (class_name, spec, expected_class) in class_specs() {
        assert_eq!(spec.eval_class(), expected_class, "{class_name}");
        let specs = vec![spec];
        let step = |reorder| vec![PlanStep { wf: 0, reorder }];
        let serial_plan = finalize_chain(
            "serial",
            &specs,
            &SegProps::unordered(),
            1,
            step(ReorderOp::Fs { key: key(&[0, 1]) }),
            &ctx,
        );
        assert_eq!(serial_plan.repairs, 0);
        let (serial_rows, ..) = run(&table, &serial_plan, &ExecEnv::with_memory_blocks(m));

        for workers in [1usize, 2, 4] {
            let plan = finalize_chain(
                "par",
                &specs,
                &SegProps::unordered(),
                1,
                step(ReorderOp::Par {
                    inner: Box::new(ReorderOp::Fs { key: key(&[0, 1]) }),
                    workers,
                }),
                &ctx,
            );
            assert_eq!(plan.repairs, 0);
            let mut reference: Option<wfopt::storage::CostSnapshot> = None;
            for (threads, bounded) in [(1usize, true), (3, true), (1, false)] {
                let env = if bounded {
                    ExecEnv::with_memory_blocks(m).with_worker_threads(threads)
                } else {
                    ExecEnv::with_memory_blocks(m).with_unbounded_pool()
                };
                let (rows, work, _) = run(&table, &plan, &env);
                assert_eq!(
                    rows, serial_rows,
                    "{class_name} workers={workers} threads={threads} bounded={bounded}"
                );
                match &reference {
                    None => reference = Some(work),
                    Some(r) => assert_eq!(
                        &work, r,
                        "{class_name} workers={workers} threads={threads} bounded={bounded}: counters"
                    ),
                }
            }
        }
    }
}

/// A `Par{Hs}` span with a fused SS stage: rows are invariant across
/// workers, threads and pool boundedness (the ascending-bucket interleave
/// is schedule-free), the output multiset equals the serial HS chain's,
/// and modeled counters are invariant per fixed plan.
#[test]
fn par_hs_chain_matrix() {
    let table = build_table(5_000);
    let stats = TableStats::from_table(&table);
    let m = 2u64;
    let ctx = PlanContext::new(&stats, m);
    let specs = vec![
        WindowSpec::rank("r_pk", vec![a(0)], key(&[1])),
        WindowSpec::new(
            "pr_pv",
            wfopt::core::spec::WindowFunction::PercentRank,
            vec![a(0)],
            key(&[2]),
        ),
    ];
    let raw = |head| {
        vec![
            PlanStep {
                wf: 0,
                reorder: head,
            },
            PlanStep {
                wf: 1,
                reorder: ReorderOp::Ss {
                    alpha: key(&[0]),
                    beta: key(&[2]),
                },
            },
        ]
    };
    let hs = ReorderOp::Hs {
        whk: aset(&[0]),
        key: key(&[0, 1]),
        n_buckets: 16,
        mfv: vec![],
    };
    let serial_plan = finalize_chain(
        "serial",
        &specs,
        &SegProps::unordered(),
        1,
        raw(hs.clone()),
        &ctx,
    );
    assert_eq!(serial_plan.repairs, 0);
    let (serial_rows, ..) = run(&table, &serial_plan, &ExecEnv::with_memory_blocks(m));
    let sorted = |rows: &[Row]| {
        let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        v.sort();
        v
    };

    let mut par_rows: Option<Vec<Row>> = None;
    for workers in [1usize, 2, 4] {
        let plan = finalize_chain(
            "par",
            &specs,
            &SegProps::unordered(),
            1,
            raw(ReorderOp::Par {
                inner: Box::new(hs.clone()),
                workers,
            }),
            &ctx,
        );
        assert_eq!(plan.repairs, 0);
        let mut reference: Option<wfopt::storage::CostSnapshot> = None;
        for (threads, bounded) in [(1usize, true), (3, true), (1, false)] {
            let env = if bounded {
                ExecEnv::with_memory_blocks(m).with_worker_threads(threads)
            } else {
                ExecEnv::with_memory_blocks(m).with_unbounded_pool()
            };
            let (rows, work, _) = run(&table, &plan, &env);
            match &par_rows {
                None => {
                    assert_eq!(sorted(&rows), sorted(&serial_rows), "multiset vs serial HS");
                    par_rows = Some(rows);
                }
                Some(r) => assert_eq!(
                    &rows, r,
                    "workers={workers} threads={threads} bounded={bounded}: rows"
                ),
            }
            match &reference {
                None => reference = Some(work),
                Some(r) => assert_eq!(
                    &work, r,
                    "workers={workers} threads={threads} bounded={bounded}: counters"
                ),
            }
        }
    }
}

/// End-to-end through the planner: with a worker budget the optimizer
/// emits the Par node — because its own model prices that plan below the
/// serial one — the report labels the step, and the output equals the
/// serial plan's output.
#[test]
fn planned_par_chain_end_to_end() {
    let table = build_table(6_000);
    let stats = TableStats::from_table(&table);
    let query = WindowQuery::new(table.schema().clone(), specs());

    let env_par = ExecEnv::with_memory_blocks(4).with_par_workers(4);
    let plan = optimize(&query, &stats, Scheme::Cso, &env_par).unwrap();
    assert!(
        plan.steps
            .iter()
            .any(|s| matches!(s.reorder, ReorderOp::Par { .. })),
        "cost model must favor Par at tiny M: {}",
        plan.chain_string()
    );
    assert!(plan.chain_string().contains("PAR→"));
    let report = execute_plan(&plan, &table, &env_par).unwrap();
    assert!(report.step_metrics.iter().any(|m| m.label.contains("PAR→")));

    let env_serial = ExecEnv::with_memory_blocks(4).with_par_workers(1);
    let serial_plan = optimize(&query, &stats, Scheme::Cso, &env_serial).unwrap();
    assert!(serial_plan
        .steps
        .iter()
        .all(|s| !matches!(s.reorder, ReorderOp::Par { .. })));
    let w = env_par.weights();
    let (par_est, serial_est) = (plan.est_cost.ms(&w), serial_plan.est_cost.ms(&w));
    assert!(
        par_est < serial_est,
        "the planner emits Par only where its model prices it cheaper: \
         {par_est:.3} ms ({}) vs {serial_est:.3} ms ({})",
        plan.chain_string(),
        serial_plan.chain_string()
    );
    let serial = execute_plan(&serial_plan, &table, &env_serial).unwrap();
    // Same SELECT-ordered output multiset; chains may order rows
    // differently (different reorder shapes), so compare sorted.
    let sort_all = |t: &Table| {
        let mut v: Vec<Vec<u8>> = t
            .rows()
            .iter()
            .map(|r| format!("{r:?}").into_bytes())
            .collect();
        v.sort();
        v
    };
    assert_eq!(sort_all(&report.table), sort_all(&serial.table));
}

/// (p: partition key ~256 values, k: order key, v: value, pad) in
/// scrambled order: many small partitions, so hash buckets are small next
/// to a worker's shard.
fn build_wide_table(rows_n: usize) -> Table {
    let schema = Schema::of(&[
        ("p", DataType::Int),
        ("k", DataType::Int),
        ("v", DataType::Int),
        ("pad", DataType::Str),
    ]);
    let mut state = 0x2545f4914f6cdd1du64;
    let rows = (0..rows_n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 16;
            Row::new(vec![
                Value::Int((r % 256) as i64),
                Value::Int(((r >> 8) % 50) as i64),
                Value::Int(((r >> 16) % 1000) as i64 - 500),
                Value::Str(format!("pad-{:024}", r >> 20).into()),
            ])
        })
        .collect();
    Table::from_rows(schema, rows).unwrap()
}

/// A bounded `Par{Hs}` span over a table scan evaluates its buckets
/// resident whenever a bucket fits the worker's budget `M_w`, even though
/// no worker's shard does: the scatter hands each worker its rows by index,
/// and a worker parks what it has finished on the spill device instead of
/// keeping it in the budget its next bucket needs. So no window step takes
/// its spilled path, the pool writes about what the span emits, the
/// statement holds nothing resident beyond its workers' peaks, and rows and
/// modeled counters equal the unbounded pool's.
#[test]
fn bounded_par_hs_span_evaluates_its_buckets_resident() {
    let table = build_wide_table(12_000);
    let stats = TableStats::from_table(&table);
    // M_w = M/2 or M/4: above every bucket, below every shard.
    let m = table.block_count() / 2;
    let ctx = PlanContext::new(&stats, m);
    let specs = vec![
        WindowSpec::rank("r_pk", vec![a(0)], key(&[1])),
        WindowSpec::new(
            "pr_pv",
            wfopt::core::spec::WindowFunction::PercentRank,
            vec![a(0)],
            key(&[2]),
        ),
    ];
    for workers in [2usize, 4] {
        let raw = vec![
            PlanStep {
                wf: 0,
                reorder: ReorderOp::Par {
                    inner: Box::new(ReorderOp::Hs {
                        whk: aset(&[0]),
                        key: key(&[0, 1]),
                        n_buckets: 32,
                        mfv: vec![],
                    }),
                    workers,
                },
            },
            PlanStep {
                wf: 1,
                reorder: ReorderOp::Ss {
                    alpha: key(&[0]),
                    beta: key(&[2]),
                },
            },
        ];
        let plan = finalize_chain("par", &specs, &SegProps::unordered(), 1, raw, &ctx);
        assert_eq!(plan.repairs, 0);
        let sink = wfopt::common::TraceSink::enabled();
        let env = ExecEnv::with_memory_blocks(m).with_trace(std::sync::Arc::clone(&sink));
        let report = execute_plan(&plan, &table, &env).unwrap();

        let spilled_evals = sink
            .records()
            .iter()
            .filter(|r| r.cat == "window" && r.name == "eval_spilled")
            .count();
        assert_eq!(spilled_evals, 0, "workers={workers}: spilled window passes");
        let written = report.store.spill_blocks_written;
        assert!(
            written > 0,
            "workers={workers}: no shard fits M_w, so some segment is parked"
        );
        assert!(
            written <= 2 * table.block_count(),
            "workers={workers}: {written} pool blocks written for a {}-block table",
            table.block_count()
        );
        let worker_peaks: u64 = report.worker_peak_blocks.iter().sum();
        assert_eq!(report.worker_peak_blocks.len(), workers);
        assert!(
            report.store.peak_resident_blocks() <= worker_peaks,
            "workers={workers}: statement peak {} above the workers' {:?}",
            report.store.peak_resident_blocks(),
            report.worker_peak_blocks
        );

        let unbounded = execute_plan(
            &plan,
            &table,
            &ExecEnv::with_memory_blocks(m).with_unbounded_pool(),
        )
        .unwrap();
        assert_eq!(unbounded.store.spill_blocks_written, 0);
        assert_eq!(
            report.table.rows(),
            unbounded.table.rows(),
            "workers={workers}"
        );
        assert_eq!(report.work, unbounded.work, "workers={workers}");
    }
}
