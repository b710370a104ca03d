//! Old-vs-new pipeline identity: the batch free functions (materializing a
//! full `SegmentedRows` between stages) and the pull-based operator chains
//! (streaming one segment at a time) must produce **identical rows,
//! identical segment boundaries, and identical cost counters** across
//! FS/HS/SS chains — and `execute_plan`'s pipelined runtime must match a
//! hand-rolled batch composition of the same plan, with an exact per-step
//! work breakdown.

mod common;

use common::random_table;
use wfopt::core::plan::{finalize_chain, PlanContext, PlanStep, ReorderOp};
use wfopt::core::spec::WindowSpec;
use wfopt::core::SegProps;
use wfopt::exec::window::WindowFunction;
use wfopt::exec::{
    drain, evaluate_window, full_sort, hashed_sort, segmented_sort, FullSortOp, HashedSortOp,
    HsOptions, Operator, SegmentSource, SegmentedRows, SegmentedSortOp, TableScan, WindowOp,
};
use wfopt::prelude::*;

fn a(i: usize) -> AttrId {
    AttrId::new(i)
}

fn asc(ids: &[usize]) -> SortSpec {
    SortSpec::new(ids.iter().map(|&i| OrdElem::asc(a(i))).collect())
}

fn aset(ids: &[usize]) -> AttrSet {
    AttrSet::from_iter(ids.iter().map(|&i| a(i)))
}

/// Batch: FS → window, each stage fully materialized.
fn batch_fs_window(table: &Table, env: &ExecEnv) -> SegmentedRows {
    let key = asc(&[1, 2]);
    let input = SegmentedRows::single_segment(table.rows().to_vec());
    table.charge_scan(env.tracker());
    let sorted = full_sort(input, &key, env.op_env()).unwrap();
    evaluate_window(
        sorted,
        &aset(&[1]),
        &asc(&[2]),
        &WindowFunction::Rank,
        None,
        env.op_env(),
    )
    .unwrap()
}

/// Streaming: the same chain as pull-based operators.
fn streamed_fs_window(table: &Table, env: &ExecEnv) -> SegmentedRows {
    let scan = TableScan::new(table, env.op_env().clone());
    let fs = FullSortOp::new(scan, asc(&[1, 2]), env.op_env().clone());
    let mut win = WindowOp::new(
        fs,
        aset(&[1]),
        asc(&[2]),
        WindowFunction::Rank,
        None,
        env.op_env().clone(),
    );
    drain(&mut win).unwrap()
}

#[test]
fn fs_window_chain_identical_rows_and_work() {
    let table = random_table(3_000, &[20, 40], 11);
    for mem in [2u64, 64] {
        let env_batch = ExecEnv::with_memory_blocks(mem);
        let batch = batch_fs_window(&table, &env_batch);
        let env_stream = ExecEnv::with_memory_blocks(mem);
        let streamed = streamed_fs_window(&table, &env_stream);
        assert_eq!(
            batch, streamed,
            "M={mem}: rows and boundaries must be identical"
        );
        assert_eq!(
            env_batch.tracker().snapshot(),
            env_stream.tracker().snapshot(),
            "M={mem}: cost counters must be identical"
        );
    }
}

#[test]
fn hs_window_chain_identical_rows_and_work() {
    let table = random_table(4_000, &[30, 50], 12);
    let whk = aset(&[1]);
    let key = asc(&[1, 2]);
    let opts = HsOptions::with_buckets(16);
    for mem in [2u64, 64] {
        // Batch.
        let env_b = ExecEnv::with_memory_blocks(mem);
        table.charge_scan(env_b.tracker());
        let sorted = hashed_sort(
            SegmentedRows::single_segment(table.rows().to_vec()),
            &whk,
            &key,
            &opts,
            env_b.op_env(),
        )
        .unwrap();
        let batch = evaluate_window(
            sorted,
            &whk,
            &asc(&[2]),
            &WindowFunction::Rank,
            None,
            env_b.op_env(),
        )
        .unwrap();

        // Streaming: each bucket flows through the window operator as it is
        // sorted.
        let env_s = ExecEnv::with_memory_blocks(mem);
        let scan = TableScan::new(&table, env_s.op_env().clone());
        let hs = HashedSortOp::new(
            scan,
            whk.clone(),
            key.clone(),
            opts.clone(),
            env_s.op_env().clone(),
        );
        let mut win = WindowOp::new(
            hs,
            whk.clone(),
            asc(&[2]),
            WindowFunction::Rank,
            None,
            env_s.op_env().clone(),
        );
        let streamed = drain(&mut win).unwrap();

        assert_eq!(batch, streamed, "M={mem}");
        assert_eq!(
            env_b.tracker().snapshot(),
            env_s.tracker().snapshot(),
            "M={mem}"
        );
    }
}

#[test]
fn ss_chain_identical_rows_and_work() {
    let table = random_table(2_000, &[12, 33], 13);
    // Build a segmented input (HS output) first, then SS it both ways.
    let env_setup = ExecEnv::with_memory_blocks(32);
    let segmented = hashed_sort(
        SegmentedRows::single_segment(table.rows().to_vec()),
        &aset(&[1]),
        &asc(&[1, 2]),
        &HsOptions::with_buckets(8),
        env_setup.op_env(),
    )
    .unwrap();

    let env_b = ExecEnv::with_memory_blocks(8);
    let batch = segmented_sort(segmented.clone(), &asc(&[1]), &asc(&[2]), env_b.op_env()).unwrap();

    let env_s = ExecEnv::with_memory_blocks(8);
    let mut ss = SegmentedSortOp::new(
        SegmentSource::new(segmented.clone(), env_s.op_env()),
        asc(&[1]),
        asc(&[2]),
        env_s.op_env().clone(),
    );
    let streamed = drain(&mut ss).unwrap();

    assert_eq!(batch, streamed);
    assert_eq!(env_b.tracker().snapshot(), env_s.tracker().snapshot());
    // SS preserves the input's segmentation exactly.
    assert_eq!(streamed.seg_starts(), segmented.seg_starts());
}

/// Per-bucket emission really streams: the HS operator hands out exactly
/// the segments the batch call materializes, one pull at a time, in order.
#[test]
fn hashed_sort_op_streams_buckets_in_batch_order() {
    let table = random_table(1_500, &[9, 21], 14);
    let whk = aset(&[1]);
    let key = asc(&[1, 2]);
    let opts = HsOptions::with_buckets(8);

    let env_b = ExecEnv::with_memory_blocks(16);
    let batch = hashed_sort(
        SegmentedRows::single_segment(table.rows().to_vec()),
        &whk,
        &key,
        &opts,
        env_b.op_env(),
    )
    .unwrap();

    let env_s = ExecEnv::with_memory_blocks(16);
    let mut op = HashedSortOp::new(
        SegmentSource::new(
            SegmentedRows::single_segment(table.rows().to_vec()),
            env_s.op_env(),
        ),
        whk,
        key,
        opts,
        env_s.op_env().clone(),
    );
    for i in 0..batch.segment_count() {
        let seg = op.next_segment().unwrap().expect("bucket per pull");
        let rows = seg.into_rows().unwrap();
        assert_eq!(rows.as_slice(), batch.segment(i), "bucket {i}");
    }
    assert!(op.next_segment().unwrap().is_none());
}

/// The pipelined runtime's per-step breakdown is exact: step work sums to
/// the total minus the initial scan, and equals the batch executor's
/// attribution.
#[test]
fn execute_plan_step_breakdown_sums_to_total() {
    let table = random_table(3_000, &[15, 25, 35], 15);
    let specs = vec![
        WindowSpec::rank("r1", vec![a(1)], asc(&[2])),
        WindowSpec::rank("r2", vec![a(2)], asc(&[3])),
    ];
    let query = WindowQuery::new(table.schema().clone(), specs);
    let stats = TableStats::from_table(&table);
    for mem in [2u64, 16] {
        let env = ExecEnv::with_memory_blocks(mem);
        let plan = optimize(&query, &stats, Scheme::Cso, &env).unwrap();
        let report = execute_plan(&plan, &table, &env).unwrap();
        assert_eq!(report.step_metrics.len(), plan.steps.len() + 1);

        let mut steps_sum = wfopt::storage::CostSnapshot::default();
        for step in &report.step_metrics[1..] {
            steps_sum = steps_sum.plus(&step.work);
        }
        // total = scan + steps; the scan is the only unattributed work.
        let scan = wfopt::storage::CostSnapshot {
            blocks_read: table.block_count(),
            rows_moved: table.row_count() as u64,
            ..Default::default()
        };
        assert_eq!(steps_sum.plus(&scan), report.work, "M={mem}");
    }
}

/// End to end: `execute_plan` (pipelined) equals a hand-rolled batch
/// composition of the same finalized plan — identical output rows and
/// identical total work.
#[test]
fn execute_plan_matches_batch_composition_of_same_plan() {
    let table = random_table(2_500, &[18, 28], 16);
    let specs = vec![
        WindowSpec::rank("r1", vec![a(1)], asc(&[2])),
        WindowSpec::rank("r2", vec![], asc(&[1])),
    ];
    let stats = TableStats::from_table(&table);
    let ctx = PlanContext::new(&stats, 8);
    let raw = vec![
        PlanStep {
            wf: 0,
            reorder: ReorderOp::None,
        },
        PlanStep {
            wf: 1,
            reorder: ReorderOp::None,
        },
    ];
    // finalize_chain repairs in the cheapest reorders; both executors run
    // the identical repaired plan.
    let plan = finalize_chain("test", &specs, &SegProps::unordered(), 1, raw, &ctx);

    // Pipelined runtime.
    let env_p = ExecEnv::with_memory_blocks(8);
    let report = execute_plan(&plan, &table, &env_p).unwrap();

    // Batch composition, mirroring the runtime's boundary-layer recording
    // (FS/HS record WPK / WPK ∪ WOK prefix layers during their merges).
    let env_b = ExecEnv::with_memory_blocks(8);
    table.charge_scan(env_b.tracker());
    let mut current = SegmentedRows::single_segment(table.rows().to_vec());
    for step in &plan.steps {
        let spec = &plan.specs[step.wf];
        let mut record = Vec::new();
        if !spec.wpk().is_empty() {
            record.push(spec.wpk().clone());
        }
        let union = spec.wpk().union(&spec.wok().attr_set());
        if !union.is_empty() && Some(&union) != record.first() {
            record.push(union);
        }
        current = match &step.reorder {
            ReorderOp::None => current,
            ReorderOp::Fs { key } => {
                let mut op = FullSortOp::new(
                    SegmentSource::new(current, env_b.op_env()),
                    key.clone(),
                    env_b.op_env().clone(),
                )
                .with_recorded_prefixes(record);
                drain(&mut op).unwrap()
            }
            ReorderOp::Hs {
                whk,
                key,
                n_buckets,
                mfv,
            } => {
                let mut op = HashedSortOp::new(
                    SegmentSource::new(current, env_b.op_env()),
                    whk.clone(),
                    key.clone(),
                    HsOptions {
                        n_buckets: *n_buckets,
                        mfv_values: mfv.clone(),
                        stable_emission: false,
                    },
                    env_b.op_env().clone(),
                )
                .with_recorded_prefixes(record);
                drain(&mut op).unwrap()
            }
            ReorderOp::Ss { alpha, beta } => {
                segmented_sort(current, alpha, beta, env_b.op_env()).unwrap()
            }
            // This test plans with a serial context (PlanContext::workers
            // = 1), so no Par node can appear; parallel-vs-serial identity
            // has its own suite (tests/parallel_equivalence.rs).
            ReorderOp::Par { .. } => unreachable!("serial planning context never emits Par"),
        };
        current = evaluate_window(
            current,
            spec.wpk(),
            spec.wok(),
            &spec.func,
            spec.frame,
            env_b.op_env(),
        )
        .unwrap();
    }

    assert_eq!(report.table.rows(), current.rows());
    assert_eq!(report.work, env_b.tracker().snapshot());
}
