//! Micro-benchmarks of the window-function operator itself: ranking,
//! frame-based aggregates and sliding frames over a matched input (100
//! partitions of 500 rows: per-row cost) — each over a resident segment
//! and, for one function per family, over the same rows as a spilled handle
//! (`spilled_*`: what the row-at-a-time stream costs per row·call next to
//! the resident pass) — and the per-partition and per-segment cost the
//! benchmark's `window_fanout` workload is made of: window groups of 1, 8
//! and 24 calls over two-row partitions in 1 024 segments, and boundary
//! reuse over one segment of 50 000 partitions.

use wf_bench::microbench::BenchGroup;
use wf_common::AttrSet;
use wf_common::{row, AttrId, OrdElem, Row, SortSpec};
use wf_exec::{
    drain, evaluate_window, Bound, FrameSpec, FrameUnits, OpEnv, Operator, Segment, SegmentBounds,
    SegmentSource, SegmentedRows, WindowFunction, WindowOp,
};

/// A leaf handing out one prepared segment.
struct Once(Option<Segment>);

impl Operator for Once {
    fn next_segment(&mut self) -> wf_common::Result<Option<Segment>> {
        Ok(self.0.take())
    }
}

/// `rows` admitted into a pool that something else fills for the moment: a
/// spilled handle, in an environment whose pool (8 blocks) is then free for
/// the evaluation's own stage and output.
fn spilled_segment(rows: Vec<Row>) -> (Segment, OpEnv) {
    let env = OpEnv::with_memory_blocks(8);
    let full = env.store.hold(8 * wf_storage::BLOCK_SIZE, 0);
    let handle = env
        .store
        .admit(rows)
        .expect("spill to the in-memory backend");
    drop(full);
    assert!(handle.is_spilled());
    (Segment::from_handle(handle, SegmentBounds::none()), env)
}

fn matched_input(n: usize) -> SegmentedRows {
    // Sorted on (g, v): 100 partitions.
    let mut rows: Vec<Row> = (0..n)
        .map(|i| row![(i % 100) as i64, ((i * 7919) % 100_000) as i64])
        .collect();
    rows.sort_by_key(|r| {
        (
            r.get(AttrId::new(0)).as_int().unwrap(),
            r.get(AttrId::new(1)).as_int().unwrap(),
        )
    });
    SegmentedRows::single_segment(rows)
}

/// `n` rows sorted on `(g, v)` in two-row partitions, cut into `segments`
/// segments of whole partitions — a hashed sort's output in miniature.
fn fanout_input(n: usize, segments: usize) -> SegmentedRows {
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            row![
                (i / 2) as i64,
                ((i * 7919) % 7200) as i64 + (i % 2) as i64 * 7200
            ]
        })
        .collect();
    let partitions = n / 2;
    let starts = (0..segments).map(|s| s * partitions / segments * 2);
    SegmentedRows::from_parts(rows, starts.collect())
}

/// The 24 calls of the `window_fanout` statement, in its four frames.
fn fanout_calls(val: AttrId) -> Vec<(WindowFunction, Option<FrameSpec>)> {
    use WindowFunction::*;
    let frame = |units, start, end| Some(FrameSpec { units, start, end });
    let ring = frame(FrameUnits::Rows, Bound::Preceding(3), Bound::Following(1));
    let range = frame(
        FrameUnits::Range,
        Bound::Preceding(3600),
        Bound::Following(3600),
    );
    let tail = frame(
        FrameUnits::Rows,
        Bound::CurrentRow,
        Bound::UnboundedFollowing,
    );
    let (lag, lead) = (
        Lag {
            col: val,
            offset: 1,
            default: None,
        },
        Lead {
            col: val,
            offset: 2,
            default: None,
        },
    );
    vec![
        (Rank, None),
        (RowNumber, None),
        (DenseRank, None),
        (Sum(val), None),
        (Count(None), None),
        (lag, None),
        (lead, None),
        (CumeDist, None),
        (Ntile(4), None),
        (Avg(val), ring),
        (Min(val), ring),
        (Max(val), ring),
        (StddevSamp(val), ring),
        (FirstValue(val), ring),
        (VarSamp(val), ring),
        (Sum(val), range),
        (Count(None), range),
        (Min(val), range),
        (Max(val), range),
        (Avg(val), range),
        (Sum(val), tail),
        (Max(val), tail),
        (LastValue(val), tail),
        (Count(None), tail),
    ]
}

/// One resident segment of `n` one-row partitions carrying exact `WPK` and
/// `WPK ∪ WOK` layers: every partition asks the layers for its own runs.
fn one_row_partitions(n: usize, wpk: &AttrSet, union: &AttrSet) -> SegmentedRows {
    let rows: Vec<Row> = (0..n as i64).map(|i| row![i, i]).collect();
    let mut bounds = SegmentBounds::none();
    bounds.add_layer(wpk.clone(), (0..n).collect());
    bounds.add_layer(union.clone(), (0..n).collect());
    SegmentedRows::from_parts_with_bounds(rows, vec![0], vec![bounds])
}

fn main() {
    let n = 50_000;
    let input = matched_input(n);
    let wpk = AttrSet::from_iter([AttrId::new(0)]);
    let wok = SortSpec::new(vec![OrdElem::asc(AttrId::new(1))]);
    let val = AttrId::new(1);

    let sliding = FrameSpec {
        units: FrameUnits::Rows,
        start: Bound::Preceding(50),
        end: Bound::Following(50),
    };
    let cases: Vec<(&str, WindowFunction, Option<FrameSpec>)> = vec![
        ("rank", WindowFunction::Rank, None),
        ("dense_rank", WindowFunction::DenseRank, None),
        ("cume_dist", WindowFunction::CumeDist, None),
        ("running_sum", WindowFunction::Sum(val), None),
        ("sliding_avg", WindowFunction::Avg(val), Some(sliding)),
        ("sliding_min", WindowFunction::Min(val), Some(sliding)),
        (
            "lag",
            WindowFunction::Lag {
                col: val,
                offset: 3,
                default: None,
            },
            None,
        ),
    ];

    let mut group = BenchGroup::new("window_ops");
    for (name, func, frame) in &cases {
        group.bench(name, || {
            let env = OpEnv::with_memory_blocks(1024);
            evaluate_window(input.clone(), &wpk, &wok, func, *frame, &env).unwrap();
        });
    }
    // The same calls over a spilled handle (`dense_rank` runs `rank`'s code).
    for (name, func, frame) in cases.iter().filter(|c| c.0 != "dense_rank") {
        group.bench(&format!("spilled_{name}"), || {
            let (seg, env) = spilled_segment(input.rows().to_vec());
            let (wpk, wok) = (wpk.clone(), wok.clone());
            let mut op = WindowOp::new(Once(Some(seg)), wpk, wok, func.clone(), *frame, env);
            let out = op.next_segment().unwrap().expect("one segment");
            assert_eq!(out.len(), n);
        });
    }

    // One fixed batch, one budget: only the number of grouped calls varies.
    let fanout = fanout_input(20_000, 1024);
    let calls = fanout_calls(val);
    for (name, k) in [("fanout_k1", 1), ("fanout_k8", 8), ("fanout_k24", 24)] {
        group.bench(name, || {
            let env = OpEnv::with_memory_blocks(1024);
            let mut op = WindowOp::group(
                SegmentSource::new(fanout.clone(), &env),
                wpk.clone(),
                wok.clone(),
                calls[..k].to_vec(),
                env,
            );
            drain(&mut op).unwrap();
        });
    }

    let union = wpk.union(&wok.attr_set());
    let singles = one_row_partitions(50_000, &wpk, &union);
    group.bench("one_segment_50k_partitions", || {
        let env = OpEnv::with_memory_blocks(1024);
        evaluate_window(
            singles.clone(),
            &wpk,
            &wok,
            &WindowFunction::Rank,
            None,
            &env,
        )
        .unwrap();
    });
    group.finish();
}
