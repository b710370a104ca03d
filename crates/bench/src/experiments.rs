//! Experiment drivers — one per figure/table of the paper's §6.

use crate::queries;
use crate::report::{ms, ReportTable};
use crate::{paper_mb_to_blocks, FIG3_MEMORIES_MB, QUERY_MEMORIES_MB};
use std::time::Instant;
use wf_common::{OrdElem, SortSpec, Value};
use wf_core::cost::{hs_bucket_count, TableStats};
use wf_core::plan::{finalize_chain, PlanContext, PlanStep, ReorderOp};
use wf_core::planner::{optimize, plan_bfo, plan_cso, plan_orcl, plan_psql, BfoOptions, Scheme};
use wf_core::props::SegProps;
use wf_core::query::WindowQuery;
use wf_core::runtime::{execute_plan, ExecEnv};
use wf_core::spec::WindowSpec;
use wf_datagen::{random_specs, WsColumn, WsConfig};
use wf_exec::{evaluate_window, SegmentedRows};
use wf_storage::Table;

/// Harness configuration (row count scales every experiment together).
#[derive(Debug, Clone)]
pub struct Harness {
    pub rows: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Harness { rows: 200_000 }
    }
}

impl Harness {
    pub fn ws_config(&self) -> WsConfig {
        // Keep the "medium" Q1 regime: item buckets well below the
        // smallest M.
        WsConfig {
            rows: self.rows,
            d_item: (self.rows as u64 / 20).max(64),
            d_bill: (self.rows as u64 / 10).max(64),
            ..WsConfig::default()
        }
    }
}

/// Execute a single hand-built reorder+eval step and report
/// (modeled ms, io blocks, wall ms).
fn run_single_op(
    table: &Table,
    input_props: &SegProps,
    spec: &WindowSpec,
    op: ReorderOp,
    stats: &TableStats,
    m_blocks: u64,
) -> (f64, u64, f64) {
    let env = ExecEnv::with_memory_blocks(m_blocks);
    let ctx = PlanContext::new(stats, m_blocks);
    let plan = finalize_chain(
        "micro",
        std::slice::from_ref(spec),
        input_props,
        1,
        vec![PlanStep { wf: 0, reorder: op }],
        &ctx,
    );
    let report = execute_plan(&plan, table, &env).expect("micro-benchmark step");
    (
        report.modeled_ms,
        report.work.io_blocks(),
        report.wall.as_secs_f64() * 1000.0,
    )
}

fn fs_op(spec: &WindowSpec) -> ReorderOp {
    ReorderOp::Fs {
        key: wf_core::plan::default_fs_key(spec),
    }
}

fn hs_op(spec: &WindowSpec, stats: &TableStats, mem_blocks: u64) -> ReorderOp {
    ReorderOp::Hs {
        whk: spec.wpk().clone(),
        key: wf_core::plan::default_fs_key(spec),
        n_buckets: hs_bucket_count(stats, spec.wpk(), mem_blocks),
        mfv: vec![],
    }
}

/// Figure 3 (a)–(c): FS vs HS across the memory axis for Q1/Q2/Q3.
pub fn run_fig3(h: &Harness) {
    let cfg = h.ws_config();
    let table = cfg.generate();
    let stats = TableStats::from_table(&table);
    let b = table.block_count();
    println!(
        "web_sales: {} rows, {} blocks ({} MB-equivalent of the paper's 14.3 GB)\n",
        table.row_count(),
        b,
        b * 8 / 1024
    );
    for (fig, spec) in [
        ("fig3a_q1", queries::q1()),
        ("fig3b_q2", queries::q2()),
        ("fig3c_q3", queries::q3()),
    ] {
        let mut t = ReportTable::new(
            &format!("{fig}: plan execution, FS vs HS (modeled ms | io blocks)"),
            &[
                "M(paper MB)",
                "M(blocks)",
                "FS ms",
                "HS ms",
                "FS io",
                "HS io",
                "FS wall",
                "HS wall",
            ],
        );
        for &m_mb in &FIG3_MEMORIES_MB {
            let m = paper_mb_to_blocks(m_mb, b);
            let (fs_ms, fs_io, fs_wall) = run_single_op(
                &table,
                &SegProps::unordered(),
                &spec,
                fs_op(&spec),
                &stats,
                m,
            );
            let (hs_ms, hs_io, hs_wall) = run_single_op(
                &table,
                &SegProps::unordered(),
                &spec,
                hs_op(&spec, &stats, m),
                &stats,
                m,
            );
            t.row(vec![
                format!("{m_mb}"),
                format!("{m}"),
                format!("{fs_ms:.1}"),
                format!("{hs_ms:.1}"),
                format!("{fs_io}"),
                format!("{hs_io}"),
                ms(fs_wall),
                ms(hs_wall),
            ]);
        }
        t.emit(fig);
    }
}

/// Figure 4 (a)/(b): SS vs FS vs HS on the sorted/grouped variants.
pub fn run_fig4(h: &Harness) {
    let cfg = h.ws_config();
    let spec = queries::q4_q5();
    let qty = WsColumn::Quantity.attr();
    let item = WsColumn::Item.attr();
    let variants: [(&str, Table, SegProps); 2] = [
        (
            "fig4a_q4_sorted",
            cfg.generate_sorted_on(WsColumn::Quantity),
            SegProps::sorted(SortSpec::new(vec![OrdElem::asc(qty)])),
        ),
        (
            "fig4b_q5_grouped",
            cfg.generate_grouped_on(WsColumn::Quantity),
            SegProps::new(
                wf_common::AttrSet::from_iter([qty]),
                SortSpec::empty(),
                true,
            ),
        ),
    ];
    for (fig, table, props) in variants {
        let stats = TableStats::from_table(&table);
        let b = table.block_count();
        let split = props.alpha_split(&spec);
        let ss = ReorderOp::Ss {
            alpha: split.alpha.clone(),
            beta: split.beta.clone(),
        };
        let mut t = ReportTable::new(
            &format!("{fig}: FS vs HS vs SS (modeled ms)"),
            &[
                "M(paper MB)",
                "M(blocks)",
                "FS ms",
                "HS ms",
                "SS ms",
                "SS io",
            ],
        );
        for &m_mb in &FIG3_MEMORIES_MB {
            let m = paper_mb_to_blocks(m_mb, b);
            let (fs_ms, _, _) = run_single_op(&table, &props, &spec, fs_op(&spec), &stats, m);
            let (hs_ms, _, _) =
                run_single_op(&table, &props, &spec, hs_op(&spec, &stats, m), &stats, m);
            let (ss_ms, ss_io, _) = run_single_op(&table, &props, &spec, ss.clone(), &stats, m);
            t.row(vec![
                format!("{m_mb}"),
                format!("{m}"),
                format!("{fs_ms:.1}"),
                format!("{hs_ms:.1}"),
                format!("{ss_ms:.1}"),
                format!("{ss_io}"),
            ]);
        }
        let _ = item;
        t.emit(fig);
    }
}

/// Schemes compared for one of Q6–Q9: plans (Tables 4/6/8/10) and
/// execution times (Figs. 5–8).
pub fn run_query_experiment(name: &str, query: &WindowQuery, h: &Harness, with_ablations: bool) {
    let cfg = h.ws_config();
    let table = cfg.generate();
    let stats = TableStats::from_table(&table);
    let b = table.block_count();

    let mut plans = ReportTable::new(
        &format!("{name}: execution plans per scheme (paper Tables 4/6/8/10)"),
        &["M(paper MB)", "scheme", "plan", "est ms", "repairs"],
    );
    let mut times = ReportTable::new(
        &format!("{name}: plan execution times (paper Figs. 5–8)"),
        &["M(paper MB)", "scheme", "modeled ms", "io blocks", "wall"],
    );

    let mut schemes: Vec<Scheme> = vec![Scheme::Bfo, Scheme::Cso];
    if with_ablations {
        schemes.push(Scheme::CsoNoHs);
        schemes.push(Scheme::CsoNoSs);
    }
    schemes.push(Scheme::Orcl);
    schemes.push(Scheme::Psql);

    for &m_mb in &QUERY_MEMORIES_MB {
        let m = paper_mb_to_blocks(m_mb, b);
        for &scheme in &schemes {
            let env = ExecEnv::with_memory_blocks(m);
            let plan = optimize(query, &stats, scheme, &env).expect("planning");
            plans.row(vec![
                format!("{m_mb}"),
                scheme.name().into(),
                plan.chain_string(),
                format!("{:.0}", plan.est_cost.ms(&env.weights())),
                format!("{}", plan.repairs),
            ]);
            let report = execute_plan(&plan, &table, &env).expect("execution");
            times.row(vec![
                format!("{m_mb}"),
                scheme.name().into(),
                format!("{:.1}", report.modeled_ms),
                format!("{}", report.work.io_blocks()),
                ms(report.wall.as_secs_f64() * 1000.0),
            ]);
        }
    }
    plans.emit(&format!("{name}_plans"));
    times.emit(&format!("{name}_times"));
}

/// Table 11: optimizer overhead vs number of window functions.
pub fn run_table11(h: &Harness) {
    let cfg = h.ws_config();
    let stats = TableStats::synthetic(
        cfg.rows as u64,
        (cfg.rows * 214) as u64,
        vec![
            (WsColumn::SoldDate.attr(), cfg.d_date),
            (WsColumn::SoldTime.attr(), cfg.d_time),
            (WsColumn::ShipDate.attr(), cfg.d_ship),
            (WsColumn::Item.attr(), cfg.d_item),
            (WsColumn::Bill.attr(), cfg.d_bill),
        ],
    );
    let pool = queries::table11_pool();
    let mut t = ReportTable::new(
        "table11: optimization overhead (ms) vs #window functions",
        &["#wfs", "BFO", "CSO", "ORCL", "PSQL"],
    );
    for n in 6..=10 {
        let specs = random_specs(n, &pool, 1244 + n as u64);
        let query = WindowQuery::new(cfg.schema(), specs);
        let ctx = PlanContext::new(&stats, 37);
        let time_it = |f: &dyn Fn()| -> f64 {
            // Warm once, then best of 3.
            f();
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    f();
                    t0.elapsed().as_secs_f64() * 1000.0
                })
                .fold(f64::INFINITY, f64::min)
        };
        let bfo = time_it(&|| {
            let _ = plan_bfo(&query, &ctx, &BfoOptions::default());
        });
        let cso = time_it(&|| {
            let _ = plan_cso(&query, &ctx);
        });
        let orcl = time_it(&|| {
            let _ = plan_orcl(&query, &ctx);
        });
        let psql = time_it(&|| {
            let _ = plan_psql(&query, &ctx);
        });
        t.row(vec![
            format!("{n}"),
            format!("{bfo:.2}"),
            format!("{cso:.3}"),
            format!("{orcl:.3}"),
            format!("{psql:.3}"),
        ]);
    }
    t.emit("table11_overheads");
}

/// Ablation: the MFV optimization of HS on a skewed table (§3.2).
pub fn run_ablate_hs(h: &Harness) {
    let cfg = h.ws_config();
    let mut table = cfg.generate();
    // Skew: 30% of rows share one hot item value, whose partition alone
    // exceeds any small M.
    let item = WsColumn::Item.attr();
    let schema = table.schema().clone();
    let rows: Vec<wf_common::Row> = table
        .rows()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut vals = r.values().to_vec();
            if i % 10 < 3 {
                vals[item.index()] = Value::Int(0);
            }
            wf_common::Row::new(vals)
        })
        .collect();
    table = Table::from_rows(schema, rows).unwrap();
    let stats = TableStats::from_table(&table);
    let spec = queries::q1();
    let b = table.block_count();

    let mut t = ReportTable::new(
        "ablate_hs: HS with vs without the MFV optimization (skewed item)",
        &["M(paper MB)", "HS ms", "HS+MFV ms", "HS io", "HS+MFV io"],
    );
    for &m_mb in &[10.0, 25.0, 50.0] {
        let m = paper_mb_to_blocks(m_mb, b);
        let plain = hs_op(&spec, &stats, m);
        let (p_ms, p_io, _) =
            run_single_op(&table, &SegProps::unordered(), &spec, plain, &stats, m);
        // MFV path: executed directly (the planner API stays cost-based).
        let env = ExecEnv::with_memory_blocks(m);
        let opts = wf_exec::HsOptions {
            n_buckets: hs_bucket_count(&stats, spec.wpk(), m),
            mfv_values: vec![vec![Value::Int(0)]],
            stable_emission: false,
        };
        let t0 = Instant::now();
        let key = wf_core::plan::default_fs_key(&spec);
        let sorted = wf_exec::hashed_sort(
            SegmentedRows::single_segment(table.rows().to_vec()),
            spec.wpk(),
            &key,
            &opts,
            env.op_env(),
        )
        .unwrap();
        let _ = evaluate_window(
            sorted,
            spec.wpk(),
            spec.wok(),
            &spec.func,
            None,
            env.op_env(),
        )
        .unwrap();
        let _wall = t0.elapsed();
        let work = env.tracker().snapshot();
        let m_ms = env.weights().modeled_ms(&work);
        t.row(vec![
            format!("{m_mb}"),
            format!("{p_ms:.1}"),
            format!("{m_ms:.1}"),
            format!("{p_io}"),
            format!("{}", work.io_blocks()),
        ]);
    }
    t.emit("ablate_hs_mfv");
}

/// Ablation: SS sensitivity to unit count (DESIGN.md's design-choice
/// callout — smaller units, cheaper SS).
pub fn run_ablate_ss(h: &Harness) {
    let mut t = ReportTable::new(
        "ablate_ss: SS vs FS as the segment count of the input varies",
        &["segments (D(quantity))", "SS ms", "FS ms", "SS/FS"],
    );
    for d_qty in [10u64, 100, 1_000, 10_000] {
        let cfg = WsConfig {
            d_quantity: d_qty,
            ..h.ws_config()
        };
        let table = cfg.generate_sorted_on(WsColumn::Quantity);
        let stats = TableStats::from_table(&table);
        let b = table.block_count();
        let m = paper_mb_to_blocks(50.0, b);
        let spec = queries::q4_q5();
        let props = SegProps::sorted(SortSpec::new(vec![OrdElem::asc(WsColumn::Quantity.attr())]));
        let split = props.alpha_split(&spec);
        let ss = ReorderOp::Ss {
            alpha: split.alpha,
            beta: split.beta,
        };
        let (ss_ms, _, _) = run_single_op(&table, &props, &spec, ss, &stats, m);
        let (fs_ms, _, _) = run_single_op(&table, &props, &spec, fs_op(&spec), &stats, m);
        t.row(vec![
            format!("{d_qty}"),
            format!("{ss_ms:.1}"),
            format!("{fs_ms:.1}"),
            format!("{:.3}", ss_ms / fs_ms),
        ]);
    }
    t.emit("ablate_ss_units");
}

/// §3.5: parallel evaluation speedup — the path the engine runs: the
/// planner weighs `Par` reorders under a worker budget and the scheduler
/// executes the chain it chose.
pub fn run_parallel(h: &Harness) {
    let cfg = h.ws_config();
    let table = cfg.generate();
    let stats = TableStats::from_table(&table);
    let query = WindowQuery::new(cfg.schema(), vec![queries::q1()]);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut t = ReportTable::new(
        &format!(
            "parallel: single window function, hash-partitioned workers (§3.5) — host has \
             {cores} core(s); speedup requires cores > 1"
        ),
        &["workers", "wall ms", "speedup"],
    );
    let mut base = 0.0;
    for workers in [1usize, 2, 4, 8] {
        let env = ExecEnv::with_memory_blocks(64).with_par_workers(workers);
        let plan = optimize(&query, &stats, Scheme::Cso, &env).expect("planning");
        let report = execute_plan(&plan, &table, &env).expect("execution");
        let wall = report.wall.as_secs_f64() * 1000.0;
        if workers == 1 {
            base = wall;
        }
        t.row(vec![
            format!("{workers}"),
            format!("{wall:.1}"),
            format!("{:.2}x", base / wall),
        ]);
    }
    t.emit("parallel_speedup");
}

/// §5: integrated optimization over GROUP BY variants — the tightly
/// integrated approach must never lose to either fixed upstream plan.
pub fn run_integrated(h: &Harness) {
    use wf_core::integrated::{optimize_integrated, InputVariant};
    use wf_exec::{group_by_hash, group_by_sort, GroupAgg};

    let cfg = h.ws_config();
    let base = cfg.generate();
    let item = WsColumn::Item.attr();
    let qty = WsColumn::Quantity.attr();
    let keys = [item];
    let aggs = [GroupAgg::CountStar, GroupAgg::Sum(qty)];

    let mut t = ReportTable::new(
        "integrated (§5): window chain over hash vs sort GROUP BY variants",
        &[
            "M(paper MB)",
            "hash total ms",
            "sort total ms",
            "chosen",
            "chain",
        ],
    );
    for &m_mb in &QUERY_MEMORIES_MB {
        let m = paper_mb_to_blocks(m_mb, base.block_count());

        let env_hash = ExecEnv::with_memory_blocks(m);
        let by_hash = group_by_hash(&base, &keys, &aggs, env_hash.op_env()).unwrap();
        let hash_cost = env_hash
            .weights()
            .modeled_ms(&env_hash.tracker().snapshot());
        let env_sort = ExecEnv::with_memory_blocks(m);
        let _by_sort = group_by_sort(&base, &keys, &aggs, env_sort.op_env()).unwrap();
        let sort_cost = env_sort
            .weights()
            .modeled_ms(&env_sort.tracker().snapshot());

        let schema = by_hash.schema().clone();
        let key_attr = schema.resolve("ws_item_sk").unwrap();
        let specs = vec![
            WindowSpec::rank(
                "r1",
                vec![key_attr],
                SortSpec::new(vec![OrdElem::desc(
                    schema.resolve("sum_ws_quantity").unwrap(),
                )]),
            ),
            WindowSpec::rank(
                "r2",
                vec![key_attr],
                SortSpec::new(vec![OrdElem::asc(schema.resolve("count").unwrap())]),
            ),
        ];
        let query = WindowQuery::new(schema, specs);
        let variants = vec![
            InputVariant {
                label: "hash".into(),
                props: SegProps::new(
                    wf_common::AttrSet::from_iter([key_attr]),
                    SortSpec::empty(),
                    true,
                ),
                segments: by_hash.row_count() as u64,
                setup_cost_ms: hash_cost,
            },
            InputVariant {
                label: "sort".into(),
                props: SegProps::sorted(SortSpec::new(vec![OrdElem::asc(key_attr)])),
                segments: 1,
                setup_cost_ms: sort_cost,
            },
        ];
        let stats = TableStats::from_table(&by_hash);
        let env = ExecEnv::with_memory_blocks(m);
        let best = optimize_integrated(&query, &variants, &stats, Scheme::Cso, &env).unwrap();
        // Per-variant totals for the table.
        let mut totals = Vec::new();
        for v in &variants {
            let one =
                optimize_integrated(&query, std::slice::from_ref(v), &stats, Scheme::Cso, &env)
                    .unwrap();
            totals.push(one.total_ms);
        }
        t.row(vec![
            format!("{m_mb}"),
            format!("{:.1}", totals[0]),
            format!("{:.1}", totals[1]),
            variants[best.variant].label.clone(),
            best.plan.chain_string(),
        ]);
    }
    t.emit("integrated_group_by");
}

/// All multi-function query experiments.
pub fn run_queries(h: &Harness) {
    let cfg = h.ws_config();
    run_query_experiment("q6", &queries::q6(&cfg), h, true);
    run_query_experiment("q7", &queries::q7(&cfg), h, false);
    run_query_experiment("q8", &queries::q8(&cfg), h, false);
    run_query_experiment("q9", &queries::q9(&cfg), h, false);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full pipeline at toy scale: every experiment entry point runs.
    #[test]
    fn smoke_all_experiments_tiny() {
        let h = Harness { rows: 3_000 };
        run_fig3(&h);
        run_fig4(&h);
        run_query_experiment("q6_smoke", &queries::q6(&h.ws_config()), &h, true);
        run_ablate_ss(&Harness { rows: 2_000 });
        run_ablate_hs(&Harness { rows: 2_000 });
        run_parallel(&Harness { rows: 2_000 });
    }
}
