//! Frame semantics at the edges: RANGE peer groups, empty frames,
//! single-row partitions, `UNBOUNDED FOLLOWING`, NULL ordering — plus
//! regression tests pinning `FrameSpec::default_for` / `whole_partition` to
//! the SQL defaults (no ORDER BY ⇒ unbounded both ends; ORDER BY ⇒
//! `RANGE UNBOUNDED PRECEDING .. CURRENT ROW`) and the incremental
//! ROWS-frame aggregates against brute-force recomputation.

use wfopt::common::row;
use wfopt::datagen::rng::SplitMix64;
use wfopt::exec::{
    evaluate_window, Bound, FrameSpec, FrameUnits, OpEnv, SegmentedRows, WindowFunction,
};
use wfopt::prelude::*;
use wfopt::Database;

fn a(i: usize) -> AttrId {
    AttrId::new(i)
}

fn asc(ids: &[usize]) -> SortSpec {
    SortSpec::new(ids.iter().map(|&i| OrdElem::asc(a(i))).collect())
}

/// Evaluate one window function over rows already in matched order; returns
/// the appended column.
fn run(
    rows: Vec<Row>,
    wpk: &[usize],
    wok: &SortSpec,
    func: WindowFunction,
    frame: Option<FrameSpec>,
) -> Vec<Value> {
    let env = OpEnv::with_memory_blocks(64);
    let out = evaluate_window(
        SegmentedRows::single_segment(rows),
        &AttrSet::from_iter(wpk.iter().map(|&i| a(i))),
        wok,
        &func,
        frame,
        &env,
    )
    .unwrap();
    if out.is_empty() {
        return vec![];
    }
    let last = out.rows()[0].arity() - 1;
    out.rows().iter().map(|r| r.get(a(last)).clone()).collect()
}

// ---------------------------------------------------------------------------
// FrameSpec defaults (regression: SQL default frames)
// ---------------------------------------------------------------------------

#[test]
fn default_frame_without_order_by_is_unbounded_both_ends() {
    let f = FrameSpec::default_for(false);
    assert_eq!(f.units, FrameUnits::Range);
    assert_eq!(f.start, Bound::UnboundedPreceding);
    assert_eq!(f.end, Bound::UnboundedFollowing);
    assert_eq!(FrameSpec::whole_partition(), f);
}

#[test]
fn default_frame_with_order_by_is_range_up_to_current_row() {
    let f = FrameSpec::default_for(true);
    assert_eq!(f.units, FrameUnits::Range);
    assert_eq!(f.start, Bound::UnboundedPreceding);
    assert_eq!(f.end, Bound::CurrentRow);
}

/// Behavioral pin via SQL: without ORDER BY every row sees the partition
/// total; with ORDER BY the running sum includes peers of the current row.
#[test]
fn sql_default_frames_match_sql_semantics() {
    let db = Database::new();
    let schema = Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]);
    let mut t = Table::new(schema);
    for (g, v) in [(1, 10), (1, 20), (1, 20), (1, 50), (2, 7)] {
        t.push(Row::new(vec![g.into(), v.into()]));
    }
    db.register("t", t).unwrap();

    // No ORDER BY: whole-partition frame.
    let out = db
        .query("SELECT g, v, sum(v) OVER (PARTITION BY g) AS s FROM t ORDER BY g, v")
        .unwrap();
    let sums: Vec<i64> = out
        .rows()
        .iter()
        .map(|r| r.get(a(2)).as_int().unwrap())
        .collect();
    assert_eq!(sums, vec![100, 100, 100, 100, 7]);

    // ORDER BY: running frame, ties (the two 20s) are peers and share a sum.
    let out = db
        .query(
            "SELECT g, v, sum(v) OVER (PARTITION BY g ORDER BY v) AS s FROM t \
                ORDER BY g, v",
        )
        .unwrap();
    let sums: Vec<i64> = out
        .rows()
        .iter()
        .map(|r| r.get(a(2)).as_int().unwrap())
        .collect();
    assert_eq!(sums, vec![10, 50, 50, 100, 7]);
}

// ---------------------------------------------------------------------------
// RANGE frames with ties / peer groups
// ---------------------------------------------------------------------------

#[test]
fn range_current_row_bounds_cover_whole_peer_group() {
    // Keys 1,2,2,3 — the peer pair must share identical frames in both
    // directions.
    let rows = vec![row![1], row![2], row![2], row![3]];
    let frame = FrameSpec {
        units: FrameUnits::Range,
        start: Bound::CurrentRow,
        end: Bound::CurrentRow,
    };
    let counts: Vec<i64> = run(
        rows,
        &[],
        &asc(&[0]),
        WindowFunction::Count(None),
        Some(frame),
    )
    .iter()
    .map(|v| v.as_int().unwrap())
    .collect();
    assert_eq!(counts, vec![1, 2, 2, 1]);
}

#[test]
fn range_numeric_offset_with_ties() {
    // Keys 1,1,3,3,6: RANGE BETWEEN 2 PRECEDING AND CURRENT ROW.
    let rows = vec![row![1], row![1], row![3], row![3], row![6]];
    let frame = FrameSpec {
        units: FrameUnits::Range,
        start: Bound::Preceding(2),
        end: Bound::CurrentRow,
    };
    let counts: Vec<i64> = run(
        rows,
        &[],
        &asc(&[0]),
        WindowFunction::Count(None),
        Some(frame),
    )
    .iter()
    .map(|v| v.as_int().unwrap())
    .collect();
    // Rows with key 3 see both 1s and both 3s; key 6 sees only itself.
    assert_eq!(counts, vec![2, 2, 4, 4, 1]);
}

// ---------------------------------------------------------------------------
// Empty frames
// ---------------------------------------------------------------------------

#[test]
fn empty_rows_frame_yields_nulls_and_zero_count() {
    let rows: Vec<Row> = (0..4).map(|i| row![i as i64]).collect();
    let frame = FrameSpec {
        units: FrameUnits::Rows,
        start: Bound::Following(5),
        end: Bound::Following(4),
    };
    assert!(run(
        rows.clone(),
        &[],
        &asc(&[0]),
        WindowFunction::Sum(a(0)),
        Some(frame)
    )
    .iter()
    .all(Value::is_null));
    assert!(run(
        rows.clone(),
        &[],
        &asc(&[0]),
        WindowFunction::Avg(a(0)),
        Some(frame)
    )
    .iter()
    .all(Value::is_null));
    assert!(run(
        rows.clone(),
        &[],
        &asc(&[0]),
        WindowFunction::Min(a(0)),
        Some(frame)
    )
    .iter()
    .all(Value::is_null));
    assert!(run(
        rows.clone(),
        &[],
        &asc(&[0]),
        WindowFunction::FirstValue(a(0)),
        Some(frame)
    )
    .iter()
    .all(Value::is_null));
    let counts: Vec<i64> = run(
        rows,
        &[],
        &asc(&[0]),
        WindowFunction::Count(None),
        Some(frame),
    )
    .iter()
    .map(|v| v.as_int().unwrap())
    .collect();
    assert_eq!(counts, vec![0; 4]);
}

#[test]
fn shrinking_then_empty_rows_frame() {
    // ROWS BETWEEN 1 PRECEDING AND 2 PRECEDING is empty everywhere; the
    // two-pointer window must never go negative or panic.
    let rows: Vec<Row> = (0..6).map(|i| row![i as i64]).collect();
    let frame = FrameSpec {
        units: FrameUnits::Rows,
        start: Bound::Preceding(1),
        end: Bound::Preceding(2),
    };
    let sums = run(
        rows,
        &[],
        &asc(&[0]),
        WindowFunction::Sum(a(0)),
        Some(frame),
    );
    assert!(sums.iter().all(Value::is_null));
}

// ---------------------------------------------------------------------------
// Single-row partitions
// ---------------------------------------------------------------------------

#[test]
fn single_row_partitions_every_function() {
    // Partition key is unique → every partition has exactly one row.
    let rows: Vec<Row> = (0..5).map(|i| row![i as i64, (i * 10) as i64]).collect();
    let wok = asc(&[1]);
    let cases: Vec<(WindowFunction, Value)> = vec![
        (WindowFunction::RowNumber, Value::Int(1)),
        (WindowFunction::Rank, Value::Int(1)),
        (WindowFunction::DenseRank, Value::Int(1)),
        (WindowFunction::PercentRank, Value::Float(0.0)),
        (WindowFunction::CumeDist, Value::Float(1.0)),
        (WindowFunction::Count(None), Value::Int(1)),
        (
            WindowFunction::Lag {
                col: a(1),
                offset: 1,
                default: None,
            },
            Value::Null,
        ),
        (
            WindowFunction::Lead {
                col: a(1),
                offset: 1,
                default: None,
            },
            Value::Null,
        ),
    ];
    for (func, expected) in cases {
        let vals = run(rows.clone(), &[0], &wok, func.clone(), None);
        assert!(
            vals.iter().all(|v| v == &expected),
            "{func:?}: expected {expected:?} everywhere, got {vals:?}"
        );
    }
    // Sum of a single-row partition is the row's value.
    let sums = run(rows.clone(), &[0], &wok, WindowFunction::Sum(a(1)), None);
    let expected: Vec<Value> = rows.iter().map(|r| r.get(a(1)).clone()).collect();
    assert_eq!(sums, expected);
}

// ---------------------------------------------------------------------------
// UNBOUNDED FOLLOWING
// ---------------------------------------------------------------------------

#[test]
fn unbounded_following_reverse_running_sum() {
    let rows: Vec<Row> = [1i64, 2, 3, 4].iter().map(|&v| row![v]).collect();
    let frame = FrameSpec {
        units: FrameUnits::Rows,
        start: Bound::CurrentRow,
        end: Bound::UnboundedFollowing,
    };
    let sums: Vec<i64> = run(
        rows,
        &[],
        &asc(&[0]),
        WindowFunction::Sum(a(0)),
        Some(frame),
    )
    .iter()
    .map(|v| v.as_int().unwrap())
    .collect();
    assert_eq!(sums, vec![10, 9, 7, 4]);
}

#[test]
fn range_unbounded_following_with_peers() {
    // Keys 1,2,2,3 with RANGE CURRENT ROW .. UNBOUNDED FOLLOWING: the frame
    // starts at the peer group's start.
    let rows = vec![row![1], row![2], row![2], row![3]];
    let frame = FrameSpec {
        units: FrameUnits::Range,
        start: Bound::CurrentRow,
        end: Bound::UnboundedFollowing,
    };
    let sums: Vec<i64> = run(
        rows,
        &[],
        &asc(&[0]),
        WindowFunction::Sum(a(0)),
        Some(frame),
    )
    .iter()
    .map(|v| v.as_int().unwrap())
    .collect();
    assert_eq!(sums, vec![8, 7, 7, 3]);
}

/// A frame that starts at `UNBOUNDED FOLLOWING` or ends at `UNBOUNDED
/// PRECEDING` is invalid by its shape: whatever its units, and whether or
/// not there is a row to evaluate it over.
#[test]
fn unbounded_following_as_start_is_rejected() {
    let env = OpEnv::with_memory_blocks(8);
    for units in [FrameUnits::Rows, FrameUnits::Range] {
        for (start, end, message) in [
            (
                Bound::UnboundedFollowing,
                Bound::UnboundedFollowing,
                "frame start cannot be UNBOUNDED FOLLOWING",
            ),
            (
                Bound::UnboundedFollowing,
                Bound::CurrentRow,
                "frame start cannot be UNBOUNDED FOLLOWING",
            ),
            (
                Bound::CurrentRow,
                Bound::UnboundedPreceding,
                "frame end cannot be UNBOUNDED PRECEDING",
            ),
        ] {
            for rows in [vec![row![1], row![2]], vec![]] {
                let populated = !rows.is_empty();
                let r = evaluate_window(
                    SegmentedRows::single_segment(rows),
                    &AttrSet::empty(),
                    &asc(&[0]),
                    &WindowFunction::Sum(a(0)),
                    Some(FrameSpec { units, start, end }),
                    &env,
                );
                assert_eq!(
                    r.unwrap_err(),
                    Error::InvalidQuery(message.into()),
                    "{units:?} {start:?}..{end:?}, populated: {populated}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// NULL ordering
// ---------------------------------------------------------------------------

#[test]
fn nulls_last_running_aggregates_skip_nulls_but_count_star_does_not() {
    // ASC NULLS LAST: 10, 20, NULL, NULL.
    let rows = vec![row![10], row![20], row![Value::Null], row![Value::Null]];
    let frame = FrameSpec {
        units: FrameUnits::Rows,
        start: Bound::UnboundedPreceding,
        end: Bound::CurrentRow,
    };
    let sums = run(
        rows.clone(),
        &[],
        &asc(&[0]),
        WindowFunction::Sum(a(0)),
        Some(frame),
    );
    assert_eq!(
        sums,
        vec![
            Value::Int(10),
            Value::Int(30),
            Value::Int(30),
            Value::Int(30)
        ]
    );
    let count_star: Vec<i64> = run(
        rows.clone(),
        &[],
        &asc(&[0]),
        WindowFunction::Count(None),
        Some(frame),
    )
    .iter()
    .map(|v| v.as_int().unwrap())
    .collect();
    assert_eq!(count_star, vec![1, 2, 3, 4]);
    let count_col: Vec<i64> = run(
        rows,
        &[],
        &asc(&[0]),
        WindowFunction::Count(Some(a(0))),
        Some(frame),
    )
    .iter()
    .map(|v| v.as_int().unwrap())
    .collect();
    assert_eq!(count_col, vec![1, 2, 2, 2]);
}

#[test]
fn nulls_first_descending_rank_via_sql() {
    let db = Database::new();
    let schema = Schema::of(&[("id", DataType::Int), ("v", DataType::Int)]);
    let mut t = Table::new(schema);
    t.push(Row::new(vec![1.into(), 5.into()]));
    t.push(Row::new(vec![2.into(), Value::Null]));
    t.push(Row::new(vec![3.into(), 9.into()]));
    db.register("t", t).unwrap();
    // PostgreSQL default for DESC: NULLS FIRST → the NULL row ranks 1.
    let out = db
        .query("SELECT id, rank() OVER (ORDER BY v DESC) AS r FROM t ORDER BY id")
        .unwrap();
    let ranks: Vec<i64> = out
        .rows()
        .iter()
        .map(|r| r.get(a(1)).as_int().unwrap())
        .collect();
    assert_eq!(ranks, vec![3, 1, 2]);
}

// ---------------------------------------------------------------------------
// Incremental ROWS aggregates vs brute force
// ---------------------------------------------------------------------------

fn brute_force_sum(rows: &[Row], col: AttrId, s: usize, e: usize) -> (i64, i64) {
    let mut sum = 0i64;
    let mut cnt = 0i64;
    for r in &rows[s..e] {
        if let Some(x) = r.get(col).as_int() {
            sum += x;
            cnt += 1;
        }
    }
    (sum, cnt)
}

#[test]
fn sliding_sum_avg_count_match_brute_force_on_random_frames() {
    let mut rng = SplitMix64::seed_from_u64(99);
    for case in 0..40 {
        let n = 1 + rng.random_below_usize(60);
        let rows: Vec<Row> = (0..n)
            .map(|_| {
                if rng.next_u64().is_multiple_of(5) {
                    row![Value::Null]
                } else {
                    row![rng.random_below(1000) as i64 - 500]
                }
            })
            .collect();
        let bound = |r: &mut SplitMix64| match r.random_below(5) {
            0 => Bound::UnboundedPreceding,
            1 => Bound::Preceding(r.random_below(6) as i64),
            2 => Bound::CurrentRow,
            3 => Bound::Following(r.random_below(6) as i64),
            _ => Bound::UnboundedFollowing,
        };
        let (start, end) = loop {
            let s = bound(&mut rng);
            let e = bound(&mut rng);
            if s != Bound::UnboundedFollowing && e != Bound::UnboundedPreceding {
                break (s, e);
            }
        };
        let frame = FrameSpec {
            units: FrameUnits::Rows,
            start,
            end,
        };

        let sums = run(
            rows.clone(),
            &[],
            &SortSpec::empty(),
            WindowFunction::Sum(a(0)),
            Some(frame),
        );
        let counts = run(
            rows.clone(),
            &[],
            &SortSpec::empty(),
            WindowFunction::Count(Some(a(0))),
            Some(frame),
        );
        let avgs = run(
            rows.clone(),
            &[],
            &SortSpec::empty(),
            WindowFunction::Avg(a(0)),
            Some(frame),
        );

        // Reference: recompute each frame from scratch.
        let lo = |i: usize| match start {
            Bound::UnboundedPreceding => 0usize,
            Bound::Preceding(k) => i.saturating_sub(k.max(0) as usize),
            Bound::CurrentRow => i,
            Bound::Following(k) => (i + k.max(0) as usize).min(n),
            Bound::UnboundedFollowing => n,
        };
        let hi = |i: usize| match end {
            Bound::UnboundedPreceding => 0usize,
            Bound::Preceding(k) => (i + 1).saturating_sub(k.max(0) as usize),
            Bound::CurrentRow => i + 1,
            Bound::Following(k) => (i + 1 + k.max(0) as usize).min(n),
            Bound::UnboundedFollowing => n,
        };
        for i in 0..n {
            let s = lo(i).min(n);
            let e = hi(i).max(s).min(n);
            let (sum, cnt) = brute_force_sum(&rows, a(0), s, e);
            assert_eq!(counts[i].as_int(), Some(cnt), "case {case} count row {i}");
            if cnt == 0 {
                assert!(sums[i].is_null(), "case {case} sum row {i}");
                assert!(avgs[i].is_null(), "case {case} avg row {i}");
            } else {
                assert_eq!(sums[i].as_int(), Some(sum), "case {case} sum row {i}");
                let avg = avgs[i].as_f64().unwrap();
                assert!(
                    (avg - sum as f64 / cnt as f64).abs() < 1e-9,
                    "case {case} avg row {i}"
                );
            }
        }
    }
}

/// The exact-integer path: sums beyond f64's 2^53 mantissa stay exact (the
/// old prefix-f64 accumulation would round these).
#[test]
fn large_int_sums_are_exact_over_rows_frames() {
    let big = (1i64 << 60) + 7;
    let rows = vec![row![big], row![big], row![big]];
    let frame = FrameSpec {
        units: FrameUnits::Rows,
        start: Bound::UnboundedPreceding,
        end: Bound::CurrentRow,
    };
    let sums: Vec<i64> = run(
        rows,
        &[],
        &SortSpec::empty(),
        WindowFunction::Sum(a(0)),
        Some(frame),
    )
    .iter()
    .map(|v| v.as_int().unwrap())
    .collect();
    assert_eq!(sums, vec![big, 2 * big, 3 * big]);
}

/// Sums that exceed i64 saturate instead of wrapping.
#[test]
fn overflowing_int_sum_saturates() {
    let rows = vec![row![i64::MAX], row![i64::MAX], row![i64::MIN]];
    let whole = FrameSpec {
        units: FrameUnits::Rows,
        start: Bound::UnboundedPreceding,
        end: Bound::CurrentRow,
    };
    let sums = run(
        rows,
        &[],
        &SortSpec::empty(),
        WindowFunction::Sum(a(0)),
        Some(whole),
    );
    assert_eq!(sums[0], Value::Int(i64::MAX));
    assert_eq!(
        sums[1],
        Value::Int(i64::MAX),
        "2×i64::MAX must saturate, not wrap to -2"
    );
    assert_eq!(sums[2], Value::Int(i64::MAX - 1));
}

/// SQL requires an error for negative frame offsets — both units, both
/// through the operator and through SQL.
#[test]
fn negative_frame_offsets_are_rejected() {
    let env = OpEnv::with_memory_blocks(8);
    for units in [FrameUnits::Rows, FrameUnits::Range] {
        for (start, end) in [
            (Bound::Preceding(-1), Bound::CurrentRow),
            (Bound::CurrentRow, Bound::Following(-2)),
        ] {
            let r = evaluate_window(
                SegmentedRows::single_segment(vec![row![1], row![2]]),
                &AttrSet::empty(),
                &asc(&[0]),
                &WindowFunction::Sum(a(0)),
                Some(FrameSpec { units, start, end }),
                &env,
            );
            assert!(r.is_err(), "{units:?} {start:?}..{end:?} must error");
        }
    }

    let db = Database::new();
    let schema = Schema::of(&[("v", DataType::Int)]);
    let mut t = Table::new(schema);
    t.push(Row::new(vec![1.into()]));
    db.register("t", t).unwrap();
    let r = db.query(
        "SELECT *, sum(v) OVER (ORDER BY v RANGE BETWEEN -1 PRECEDING AND CURRENT ROW) \
         AS s FROM t",
    );
    assert!(r.is_err(), "negative offset must be rejected end to end");
}

/// Floats take the numeric-safety fallback and still answer every frame.
#[test]
fn float_columns_use_fallback_and_stay_finite() {
    let rows = vec![row![1.5f64], row![2.5f64], row![Value::Null], row![4.0f64]];
    let frame = FrameSpec {
        units: FrameUnits::Rows,
        start: Bound::Preceding(1),
        end: Bound::CurrentRow,
    };
    let sums = run(
        rows,
        &[],
        &SortSpec::empty(),
        WindowFunction::Sum(a(0)),
        Some(frame),
    );
    assert_eq!(sums[0], Value::Float(1.5));
    assert_eq!(sums[1], Value::Float(4.0));
    assert_eq!(sums[2], Value::Float(2.5));
    assert_eq!(sums[3], Value::Float(4.0));
}
