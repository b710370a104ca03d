//! Sort-order and boundary-reuse suite:
//!
//! * **One key path** — FS/HS/SS output equals what std's stable `sort_by`
//!   on `RowComparator::compare` makes of the same rows in arrival order,
//!   in memory and external, over keys with NaN, ±0.0, NULL, descending
//!   strings, `Int`-vs-`Float` ties and ints beyond 2^53.
//! * **Boundary reuse** — a downstream step whose partition key an upstream
//!   boundary layer covers derives no boundary again: the per-step
//!   comparison counts of such chains are pinned exactly.

mod common;

use common::random_table;
use wfopt::core::plan::{finalize_chain, PlanContext, PlanStep, ReorderOp};
use wfopt::core::spec::WindowSpec;
use wfopt::core::SegProps;
use wfopt::datagen::rng::SplitMix64;
use wfopt::exec::{full_sort, hashed_sort, segmented_sort, HsOptions, OpEnv, SegmentedRows};
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

/// Table with int, string and mixed numeric/NULL key columns. `v` holds
/// NULLs, ±0.0, NaN, floats, ints equal to some of those floats, and ints
/// beyond 2^53 (inexact as `f64`, far from every float in the column).
fn mixed_table(rows: usize, seed: u64) -> Table {
    let schema = Schema::of(&[
        ("id", DataType::Int),
        ("g", DataType::Int),
        ("s", DataType::Str),
        ("v", DataType::Float),
    ]);
    let mut t = Table::new(schema);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let big = 1i64 << 53;
    for id in 0..rows {
        let g = rng.random_below(23) as i64;
        let s = format!("cat-{}", rng.random_below(7));
        let v = match rng.random_below(12) {
            0 => Value::Null,
            1 => Value::Float(-0.0),
            2 => Value::Float(f64::NAN),
            3 => Value::Float(0.0),
            4 | 5 => Value::Int(rng.random_below(125) as i64 - 40),
            6 => {
                let far = big + 1 + rng.random_below(5) as i64;
                Value::Int(if rng.random_below(2) == 0 { far } else { -far })
            }
            _ => Value::Float(rng.random_below(1_000) as f64 / 8.0 - 40.0),
        };
        t.push(Row::new(vec![
            Value::Int(id as i64),
            Value::Int(g),
            Value::str(s),
            v,
        ]));
    }
    t
}

/// std's stable sort on `key`'s comparator.
fn std_sorted(mut rows: Vec<Row>, key: &SortSpec) -> Vec<Row> {
    let cmp = RowComparator::new(key);
    rows.sort_by(|x, y| cmp.compare(x, y));
    rows
}

/// Rows back in arrival order: `id` is the row's position in the table.
fn by_id(rows: &[Row]) -> Vec<Row> {
    let mut rows = rows.to_vec();
    rows.sort_by_key(|r| r.get(a(0)).as_int().expect("int id"));
    rows
}

/// The engine's sorts compare through the comparator alone: no key is
/// encoded, and the smallest budget takes the external path.
fn assert_comparator_only(env: &OpEnv, mem: u64) {
    let work = env.tracker.snapshot();
    assert_eq!(work.key_encodes, 0, "M={mem}");
    if mem == 2 {
        assert!(work.io_blocks() > 0, "M={mem} must sort externally");
    }
}

#[test]
fn fs_byte_keys_equal_comparator_path() {
    let table = mixed_table(3_000, 21);
    // Key spans int, string (desc) and mixed-numeric-with-NULLs columns.
    let key = SortSpec::new(vec![
        OrdElem::asc(a(1)),
        OrdElem::desc(a(2)),
        OrdElem::asc(a(3)),
    ]);
    let expect = std_sorted(table.rows().to_vec(), &key);
    for mem in [2u64, 64] {
        let env = OpEnv::with_memory_blocks(mem);
        let input = SegmentedRows::single_segment(table.rows().to_vec());
        let out = full_sort(input, &key, &env).unwrap();
        assert_eq!(out.seg_starts(), &[0], "M={mem}");
        assert_eq!(out.rows(), expect.as_slice(), "M={mem}");
        assert_comparator_only(&env, mem);
    }
}

#[test]
fn hs_byte_keys_equal_comparator_path() {
    let table = mixed_table(4_000, 22);
    let whk = aset(&[1]);
    let key = SortSpec::new(vec![OrdElem::asc(a(1)), OrdElem::desc(a(3))]);
    for mem in [2u64, 64] {
        let env = OpEnv::with_memory_blocks(mem);
        let input = SegmentedRows::single_segment(table.rows().to_vec());
        let out = hashed_sort(input, &whk, &key, &HsOptions::with_buckets(16), &env).unwrap();
        assert_eq!(out.len(), table.row_count(), "M={mem}");
        assert!(out.segments_disjoint_on(&whk), "M={mem}");
        // Each bucket holds its rows as a stable sort of their arrival.
        for i in 0..out.segment_count() {
            let bucket = out.segment(i);
            assert_eq!(
                bucket,
                std_sorted(by_id(bucket), &key),
                "M={mem} bucket {i}"
            );
        }
        assert_comparator_only(&env, mem);
    }
}

#[test]
fn ss_byte_keys_equal_comparator_path() {
    let table = mixed_table(2_500, 23);
    for mem in [2u64, 64] {
        let env = OpEnv::with_memory_blocks(mem);
        // Segment the input first, then SS each segment's units on β.
        let segmented = hashed_sort(
            SegmentedRows::single_segment(table.rows().to_vec()),
            &aset(&[1]),
            &asc(&[1]),
            &HsOptions::with_buckets(8),
            &env,
        )
        .unwrap();
        let out = segmented_sort(segmented.clone(), &asc(&[1]), &asc(&[2, 3]), &env).unwrap();
        assert_eq!(out.seg_starts(), segmented.seg_starts(), "M={mem}");
        // A segment ordered on α, stably sorted on α ++ β, is each α-unit
        // stably sorted on β.
        for i in 0..out.segment_count() {
            let expect = std_sorted(segmented.segment(i).to_vec(), &asc(&[1, 2, 3]));
            assert_eq!(out.segment(i), expect.as_slice(), "M={mem} segment {i}");
        }
        assert_comparator_only(&env, mem);
    }
}

/// Per-step comparisons of a report, in chain order.
fn step_comparisons(report: &ExecReport) -> Vec<(&str, u64)> {
    report
        .step_metrics
        .iter()
        .map(|s| (s.label.as_str(), s.work.comparisons))
        .collect()
}

/// Two window functions over the *same* partition key: the second step's
/// partition and peer detection reuse the first step's boundary layers, so
/// it charges no comparison at all (its work sits on the group's head).
#[test]
fn shared_wpk_chain_reuses_boundaries() {
    let table = random_table(4_000, &[25, 60], 31);
    let query = QueryBuilder::new(table.schema())
        .rank("r1", &["c0"], &[("c1", false)])
        .rank("r2", &["c0"], &[("c1", false)])
        .build()
        .unwrap();
    let stats = TableStats::from_table(&table);
    let expect = [
        (Scheme::Cso, 4u64, [("HS→ r1", 34_544), ("→ r2", 0)]),
        (Scheme::Cso, 64, [("HS→ r1", 34_544), ("→ r2", 0)]),
        (Scheme::Psql, 4, [("FS→ r1", 84_119), ("→ r2", 0)]),
        (Scheme::Psql, 64, [("FS→ r1", 48_000), ("→ r2", 0)]),
    ];
    for (scheme, mem, steps) in expect {
        // A serial plan whatever `WF_WORKERS` says.
        let env = ExecEnv::with_memory_blocks(mem).with_par_workers(1);
        let plan = optimize(&query, &stats, scheme, &env).unwrap();
        let report = execute_plan(&plan, &table, &env).unwrap();
        let mut want = vec![("scan+filter", 0)];
        want.extend(steps);
        assert_eq!(step_comparisons(&report), want, "{scheme} M={mem}");
    }
}

/// SS unit detection feeds the window operator's partition detection: an
/// HS → wf → SS → wf chain re-derives no boundary the chain already knows.
#[test]
fn ss_chain_reuses_unit_boundaries() {
    let table = random_table(3_000, &[18, 40, 40], 32);
    let specs = vec![
        WindowSpec::rank("r1", vec![a(1)], asc(&[2])),
        WindowSpec::rank("r2", vec![a(1)], asc(&[3])),
    ];
    let stats = TableStats::from_table(&table);
    let ctx = PlanContext::new(&stats, 16);
    let raw = vec![
        PlanStep {
            wf: 0,
            reorder: ReorderOp::Hs {
                whk: aset(&[1]),
                key: asc(&[1, 2]),
                n_buckets: 16,
                mfv: vec![],
            },
        },
        PlanStep {
            wf: 1,
            reorder: ReorderOp::Ss {
                alpha: asc(&[1]),
                beta: asc(&[3]),
            },
        },
    ];
    let plan = finalize_chain("test", &specs, &SegProps::unordered(), 1, raw, &ctx);
    assert_eq!(plan.repairs, 0, "hand-built chain must be valid");

    let env = ExecEnv::with_memory_blocks(16);
    let report = execute_plan(&plan, &table, &env).unwrap();
    assert_eq!(
        step_comparisons(&report),
        [("scan+filter", 0), ("HS→ r1", 26_334), ("SS→ r2", 26_982)]
    );
}

/// Every scheme's plan computes the same values for every row.
#[test]
fn all_toggle_combinations_agree_end_to_end() {
    let table = mixed_table(1_500, 33);
    let query = QueryBuilder::new(table.schema())
        .rank("r", &["g"], &[("v", true)])
        .window(
            "sum_id",
            wfopt::core::spec::WindowFunction::Sum(a(0)),
            &["g"],
            &[("s", false)],
        )
        .build()
        .unwrap();
    let stats = TableStats::from_table(&table);
    let mut reference: Option<Vec<Row>> = None;
    for scheme in [Scheme::Cso, Scheme::Bfo, Scheme::Psql, Scheme::Orcl] {
        let env = ExecEnv::with_memory_blocks(8);
        let plan = optimize(&query, &stats, scheme, &env).unwrap();
        let rows = by_id(execute_plan(&plan, &table, &env).unwrap().table.rows());
        match &reference {
            None => reference = Some(rows),
            Some(want) => assert_eq!(&rows, want, "{scheme}"),
        }
    }
}
