//! Window groups: one [`WindowOp`] over K calls sharing a `(WPK, WOK)` is
//! indistinguishable — rows, segment starts, emitted boundary layers and
//! every modeled counter — from K chained single-call operators. Its pool
//! traffic is at most the chain's: the chain hands the store every
//! intermediate, the group a resident segment's output only.
//!
//! The matrix (SplitMix64-seeded like `tests/property_based.rs`): every
//! `WindowFunction` variant × frame class (SQL default, `ROWS k PRECEDING ..
//! j FOLLOWING`, `RANGE ±d`, `CURRENT ROW .. UNBOUNDED FOLLOWING`, whole
//! partition) × K ∈ {1, 2, 5, 24} × `M` ∈ {2 blocks, 16 blocks, unbounded},
//! over partitioned, global (`WPK = ∅`) and all-one-row-partition inputs,
//! behind a Full Sort or a Hashed Sort that records none, some or all of the
//! boundary layers (one that records none makes every step scan for its
//! boundaries).
//!
//! Beside it: segments that change residency inside a group, error and
//! residency parity, the group's evaluation class, the linear-in-partitions
//! scaling of boundary reuse, and the report shape of the benchmark's
//! 24-function statement.

mod common;

use common::FANOUT_SQL;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use wfopt::datagen::rng::SplitMix64;
use wfopt::datagen::WsConfig;
use wfopt::exec::window::{Bound, FrameSpec, FrameUnits, StreamableEval};
use wfopt::exec::{
    drain, evaluate_window, FullSortOp, HashedSortOp, HsOptions, OpEnv, Operator, Segment,
    SegmentBounds, SegmentedRows, TableScan, WindowOp,
};
use wfopt::prelude::*;
use wfopt::storage::{CostSnapshot, SegmentHandle, StoreSnapshot, BLOCK_SIZE};

type Call = (WindowFunction, Option<FrameSpec>);

fn a(i: usize) -> AttrId {
    AttrId::new(i)
}

const P: usize = 0; // partition key
const K: usize = 1; // order key, with ties
const V: usize = 2; // int value, some NULLs
const F: usize = 3; // float value, some NULLs
const U: usize = 4; // unique id
const S: usize = 5; // a string (the non-numeric column)

/// `parts × per_part` rows, scrambled so the sorts work for a living.
fn build_table(parts: i64, per_part: i64, seed: u64) -> Table {
    let schema = Schema::of(&[
        ("p", DataType::Int),
        ("k", DataType::Int),
        ("v", DataType::Int),
        ("f", DataType::Float),
        ("u", DataType::Int),
        ("s", DataType::Str),
    ]);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut rows = Vec::new();
    for p in 0..parts {
        for i in 0..per_part {
            let x = rng.next_u64();
            let v = if i % 7 == 3 {
                Value::Null
            } else {
                Value::Int((x >> 33) as i64 % 1000 - 500)
            };
            let f = if i % 5 == 2 {
                Value::Null
            } else {
                Value::Float(((x >> 21) as i64 % 1000) as f64 / 8.0 - 60.0)
            };
            rows.push((
                x,
                vec![
                    Value::Int(p),
                    Value::Int(i / 3),
                    v,
                    f,
                    Value::Int(0),
                    Value::Str(format!("s{}", x % 11).into()),
                ],
            ));
        }
    }
    rows.sort_by_key(|(x, _)| *x);
    let mut t = Table::new(schema);
    for (u, (_, mut values)) in rows.into_iter().enumerate() {
        values[U] = Value::Int(u as i64);
        t.push(Row::new(values));
    }
    t
}

/// One of every `WindowFunction` variant (`count` in both forms), over the
/// int and the float column.
fn functions() -> Vec<WindowFunction> {
    use WindowFunction::*;
    vec![
        RowNumber,
        Rank,
        DenseRank,
        PercentRank,
        CumeDist,
        Ntile(3),
        Lag {
            col: a(V),
            offset: 1,
            default: None,
        },
        Lead {
            col: a(F),
            offset: 2,
            default: Some(Value::Int(-1)),
        },
        FirstValue(a(V)),
        LastValue(a(F)),
        NthValue(a(V), 2),
        Count(None),
        Count(Some(a(V))),
        Sum(a(V)),
        Avg(a(F)),
        Min(a(V)),
        Max(a(F)),
        VarPop(a(V)),
        VarSamp(a(F)),
        StddevPop(a(F)),
        StddevSamp(a(V)),
    ]
}

fn frame(units: FrameUnits, start: Bound, end: Bound) -> Option<FrameSpec> {
    Some(FrameSpec { units, start, end })
}

/// The five frame classes.
fn frames() -> Vec<Option<FrameSpec>> {
    vec![
        None,
        frame(FrameUnits::Rows, Bound::Preceding(2), Bound::Following(1)),
        frame(FrameUnits::Range, Bound::Preceding(1), Bound::Following(1)),
        frame(
            FrameUnits::Rows,
            Bound::CurrentRow,
            Bound::UnboundedFollowing,
        ),
        Some(FrameSpec::whole_partition()),
    ]
}

/// Every function × every frame class.
fn universe() -> Vec<Call> {
    let frames = frames();
    functions()
        .into_iter()
        .flat_map(|f| frames.iter().map(move |fr| (f.clone(), *fr)))
        .collect()
}

/// Shuffle the universe and cut it into groups of `k` calls (the last one
/// topped up from the front), so every call is a member of some group.
fn groups_of(k: usize, rng: &mut SplitMix64) -> Vec<Vec<Call>> {
    let mut calls = universe();
    rng.shuffle(&mut calls);
    let pad: Vec<Call> = calls[..(k - calls.len() % k) % k].to_vec();
    calls.extend(pad);
    calls.chunks(k).map(<[Call]>::to_vec).collect()
}

#[derive(Debug, Clone, Copy)]
struct Config {
    mem: Option<u64>,
}

impl Config {
    fn all() -> Vec<Config> {
        [Some(2), Some(16), None]
            .into_iter()
            .map(|mem| Config { mem })
            .collect()
    }

    /// A fresh environment: own tracker, own store.
    fn env(&self) -> OpEnv {
        match self.mem {
            Some(m) => OpEnv::with_memory_blocks(m),
            None => OpEnv::with_memory_blocks(1 << 16).with_unbounded_pool(),
        }
    }
}

/// What sits under the window operators.
#[derive(Debug, Clone)]
struct Shape {
    wpk: AttrSet,
    wok: SortSpec,
    /// Hashed Sort on `WPK` (else Full Sort).
    hashed: bool,
    /// Boundary layers the reorder records on its output.
    record: Vec<AttrSet>,
}

impl Shape {
    fn new(wpk: &[usize], hashed: bool, record: usize) -> Shape {
        let wpk = AttrSet::from_iter(wpk.iter().map(|&i| a(i)));
        let wok = SortSpec::new(vec![OrdElem::asc(a(K))]);
        let union = wpk.union(&wok.attr_set());
        let record = match record % 4 {
            0 => vec![],
            1 => vec![wpk.clone()],
            2 => vec![wpk.clone(), union],
            // A superset layer only: boundaries are candidates to verify.
            _ => vec![union],
        };
        Shape {
            // Hashing needs a key to hash on.
            hashed: hashed && !wpk.is_empty(),
            wpk,
            wok,
            record,
        }
    }

    fn sort_key(&self) -> SortSpec {
        SortSpec::new(
            self.wpk
                .iter()
                .map(OrdElem::asc)
                .chain(self.wok.elems().iter().copied())
                .collect(),
        )
    }

    fn reorder<'t>(&self, table: &'t Table, env: &OpEnv) -> Box<dyn Operator + 't> {
        let scan = TableScan::new(table, env.clone());
        if self.hashed {
            Box::new(
                HashedSortOp::new(
                    scan,
                    self.wpk.clone(),
                    self.sort_key(),
                    HsOptions::with_buckets(8),
                    env.clone(),
                )
                .with_recorded_prefixes(self.record.clone()),
            )
        } else {
            Box::new(
                FullSortOp::new(scan, self.sort_key(), env.clone())
                    .with_recorded_prefixes(self.record.clone()),
            )
        }
    }
}

/// Everything observable about one execution.
#[derive(Debug, PartialEq)]
struct Outcome {
    rows: SegmentedRows,
    bounds: Vec<SegmentBounds>,
    work: CostSnapshot,
    store: StoreSnapshot,
}

/// `input → WindowOp{calls}` (grouped) or `input → WindowOp(c1) → … →
/// WindowOp(cK)` (chained).
fn windows<'t>(
    input: Box<dyn Operator + 't>,
    shape: &Shape,
    calls: &[Call],
    env: &OpEnv,
    grouped: bool,
) -> Box<dyn Operator + 't> {
    if grouped {
        return Box::new(WindowOp::group(
            input,
            shape.wpk.clone(),
            shape.wok.clone(),
            calls.to_vec(),
            env.clone(),
        ));
    }
    calls.iter().fold(input, |op, (func, frame)| {
        Box::new(WindowOp::new(
            op,
            shape.wpk.clone(),
            shape.wok.clone(),
            func.clone(),
            *frame,
            env.clone(),
        ))
    })
}

fn finish(mut op: Box<dyn Operator + '_>, env: &OpEnv) -> Result<Outcome> {
    let rows = drain(&mut *op)?;
    drop(op);
    Ok(Outcome {
        bounds: (0..rows.segment_count())
            .map(|i| rows.segment_bounds(i))
            .collect(),
        rows,
        work: env.tracker.snapshot(),
        store: env.store.snapshot(),
    })
}

fn run(table: &Table, shape: &Shape, calls: &[Call], cfg: Config, grouped: bool) -> Outcome {
    let env = cfg.env();
    let op = windows(shape.reorder(table, &env), shape, calls, &env, grouped);
    finish(op, &env).unwrap_or_else(|e| panic!("{calls:?} under {cfg:?}: {e}"))
}

fn assert_group_equals_chain(table: &Table, shape: &Shape, calls: &[Call], cfg: Config) {
    let chained = run(table, shape, calls, cfg, false);
    let grouped = run(table, shape, calls, cfg, true);
    let ctx = || format!("{calls:?}\nover {shape:?}\nunder {cfg:?}");
    assert_eq!(
        grouped.rows,
        chained.rows,
        "rows / segment starts: {}",
        ctx()
    );
    assert_eq!(grouped.bounds, chained.bounds, "boundary layers: {}", ctx());
    assert_eq!(grouped.work, chained.work, "modeled counters: {}", ctx());
    let budget = cfg.mem.map(|m| m as usize * BLOCK_SIZE);
    assert_pool_traffic_at_most(&grouped.store, &chained.store, budget, &ctx());
    assert_eq!(
        grouped.rows.rows()[0].arity(),
        table.schema().len() + calls.len()
    );
}

/// The group spills no more than the chain it replaces, and both let go of
/// every resident byte. Its peak is the chain's at most, or else within the
/// pool `budget`: a spilling admission fills the pool up to the last whole
/// row that fits, and the group's wider rows stop at a different byte.
fn assert_pool_traffic_at_most(
    group: &StoreSnapshot,
    chain: &StoreSnapshot,
    budget: Option<usize>,
    ctx: &str,
) {
    assert!(
        group.spill_blocks_written <= chain.spill_blocks_written,
        "spill blocks written {} > {}: {ctx}",
        group.spill_blocks_written,
        chain.spill_blocks_written
    );
    assert!(
        group.spilled_segments <= chain.spilled_segments,
        "spilled segments {} > {}: {ctx}",
        group.spilled_segments,
        chain.spilled_segments
    );
    let bound = chain.peak_resident_bytes.max(budget.unwrap_or(0));
    assert!(
        group.peak_resident_bytes <= bound,
        "peak resident bytes {} > {} (chain {}): {ctx}",
        group.peak_resident_bytes,
        bound,
        chain.peak_resident_bytes
    );
    assert_eq!(group.resident_bytes, 0, "group residency left: {ctx}");
    assert_eq!(chain.resident_bytes, 0, "chain residency left: {ctx}");
}

/// The full matrix over partitioned input (12 partitions of 30 rows, peer
/// groups of 3).
#[test]
fn group_equals_chain_for_every_function_frame_k_and_config() {
    let table = build_table(12, 30, 0xF00D);
    let mut rng = SplitMix64::seed_from_u64(0x6120_0513);
    let mut cases = 0usize;
    for k in [1usize, 2, 5, 24] {
        for calls in groups_of(k, &mut rng) {
            let shape = Shape::new(&[P], rng.random_below(2) == 1, rng.random_below(4) as usize);
            for cfg in Config::all() {
                assert_group_equals_chain(&table, &shape, &calls, cfg);
                cases += 1;
            }
        }
    }
    // 105 calls: 105 + 53 + 21 + 5 groups, 3 configurations each.
    assert_eq!(cases, (105 + 53 + 21 + 5) * 3);
}

/// A global window (`WPK = ∅`: one partition per segment, no WPK layer to
/// hand on) and all-one-row partitions (`WPK` = the unique id).
#[test]
fn group_equals_chain_over_global_and_one_row_partitions() {
    let table = build_table(6, 40, 0xBEEF);
    let mut rng = SplitMix64::seed_from_u64(0x0E0E);
    for wpk in [&[][..], &[U][..]] {
        for k in [2usize, 5, 24] {
            for calls in groups_of(k, &mut rng).into_iter().take(6) {
                let shape = Shape::new(wpk, rng.random_below(2) == 1, rng.random_below(4) as usize);
                for cfg in Config::all() {
                    assert_group_equals_chain(&table, &shape, &calls, cfg);
                }
            }
        }
    }
}

/// A leaf handing out prepared store-backed segments. The ballast — pool
/// residency held while the segments were admitted — is let go on the first
/// pull, as an upstream operator releases what it no longer needs.
struct Feed {
    segments: VecDeque<Segment>,
    ballast: Option<SegmentHandle>,
}

impl Operator for Feed {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        self.ballast = None;
        Ok(self.segments.pop_front())
    }
}

/// Rows of partition-sorted `(p, k, v, f, u, s)`, as a matched input.
fn sorted_rows(parts: i64, per_part: i64) -> Vec<Row> {
    let table = build_table(parts, per_part, 0xCAFE);
    let mut rows = table.rows().to_vec();
    rows.sort_by_key(|r| {
        (
            r.get(a(P)).as_int(),
            r.get(a(K)).as_int(),
            r.get(a(U)).as_int(),
        )
    });
    rows
}

fn bytes_of(rows: &[Row]) -> usize {
    rows.iter().map(Row::encoded_len).sum()
}

/// Calls of every streaming class, peers needed early and late.
fn mixed_calls() -> Vec<Call> {
    use WindowFunction::*;
    vec![
        (RowNumber, None),
        (Rank, None),
        (Sum(a(V)), None),
        (
            Max(a(F)),
            frame(
                FrameUnits::Rows,
                Bound::CurrentRow,
                Bound::UnboundedFollowing,
            ),
        ),
        (CumeDist, None),
        (
            Avg(a(V)),
            frame(FrameUnits::Rows, Bound::Preceding(2), Bound::Following(1)),
        ),
        (LastValue(a(V)), None),
    ]
}

/// A segment enters the group **spilled** (the pool was full when it was
/// admitted) and comes back **resident** from the first call's streaming
/// pass, so the remaining calls take the fused resident path.
#[test]
fn spilled_segment_turns_resident_mid_group() {
    let shape = Shape::new(&[P], false, 0);
    let calls = mixed_calls();
    let run = |grouped: bool| {
        let env = OpEnv::with_memory_blocks(5);
        let rows = sorted_rows(8, 25);
        assert!(bytes_of(&rows) < 2 * BLOCK_SIZE, "the segment alone fits");
        let ballast = env.store.admit(sorted_rows(70, 10)).unwrap();
        assert!(!ballast.is_spilled(), "the ballast is resident");
        let seg = Segment::from_handle(env.store.admit(rows).unwrap(), SegmentBounds::none());
        assert!(seg.is_spilled(), "admitted into a full pool");
        let feed = Feed {
            segments: VecDeque::from([seg]),
            ballast: Some(ballast),
        };
        let out = finish(windows(Box::new(feed), &shape, &calls, &env, grouped), &env).unwrap();
        // Only the input ever spilled: every intermediate was resident.
        assert_eq!(out.store.spilled_segments, 1);
        assert_eq!(out.store.resident_bytes, 0);
        out
    };
    assert_eq!(run(true), run(false));
}

/// The reverse: a segment enters **resident** and outgrows the pool as
/// columns are appended. The chain hands every intermediate to the store
/// and spills each one past the first; the group runs every call in one
/// pass and the store spills its output once.
#[test]
fn resident_segment_spills_once_after_the_group() {
    let shape = Shape::new(&[P], false, 0);
    let calls = mixed_calls();
    // Fits two blocks with one derived column, not with two.
    let rows = sorted_rows(10, 25);
    let (base, col) = (bytes_of(&rows), rows.len() * Value::Int(0).encoded_len());
    assert!(base + col <= 2 * BLOCK_SIZE && base + 2 * col > 2 * BLOCK_SIZE);
    let run = |grouped: bool| {
        let env = OpEnv::with_memory_blocks(2);
        let seg = Segment::from_handle(
            env.store.admit(rows.clone()).unwrap(),
            SegmentBounds::none(),
        );
        assert!(!seg.is_spilled(), "enters resident");
        let feed = Feed {
            segments: VecDeque::from([seg]),
            ballast: None,
        };
        finish(windows(Box::new(feed), &shape, &calls, &env, grouped), &env).unwrap()
    };
    let (group, chain) = (run(true), run(false));
    assert_eq!(group.store.spilled_segments, 1, "the group's output only");
    assert_eq!(chain.store.spilled_segments, calls.len() as u64 - 1);
    assert_eq!(group.rows, chain.rows);
    assert_eq!(group.bounds, chain.bounds);
    assert_eq!(group.work, chain.work);
    let budget = Some(2 * BLOCK_SIZE);
    assert_pool_traffic_at_most(&group.store, &chain.store, budget, "one oversized segment");
}

/// The error a failing call raises, the state it leaves behind, and which
/// call wins when several would fail.
#[test]
fn errors_surface_from_a_group_exactly_as_from_single_call_operators() {
    use WindowFunction::*;
    let table = build_table(5, 80, 0xE44);
    let single_key = Shape::new(&[P], false, 2);
    let str_key = Shape {
        wok: SortSpec::new(vec![OrdElem::asc(a(S))]),
        ..single_key.clone()
    };
    let two_keys = Shape {
        wok: SortSpec::new(vec![OrdElem::asc(a(K)), OrdElem::asc(a(U))]),
        ..single_key.clone()
    };
    let range1 = frame(FrameUnits::Range, Bound::Preceding(1), Bound::Following(1));
    let bad: Vec<(&str, &Shape, Call, Error)> = vec![
        (
            "negative ROWS offset",
            &single_key,
            (
                Sum(a(V)),
                frame(FrameUnits::Rows, Bound::Preceding(-1), Bound::CurrentRow),
            ),
            Error::InvalidQuery("frame offset must not be negative".into()),
        ),
        (
            "negative RANGE offset",
            &single_key,
            (
                Count(None),
                frame(FrameUnits::Range, Bound::Preceding(1), Bound::Following(-2)),
            ),
            Error::InvalidQuery("frame offset must not be negative".into()),
        ),
        (
            "RANGE offset over a non-numeric key",
            &str_key,
            (Sum(a(V)), range1),
            Error::InvalidQuery("RANGE with offset requires a numeric ORDER BY key".into()),
        ),
        (
            "RANGE offset over two keys",
            &two_keys,
            (Min(a(V)), range1),
            Error::InvalidQuery("RANGE with offset requires exactly one ORDER BY key".into()),
        ),
        (
            "SUM over a string, running",
            &single_key,
            (Sum(a(S)), None),
            Error::TypeMismatch {
                expected: "numeric".into(),
                found: "Str".into(),
            },
        ),
        (
            "SUM over a string, framed",
            &single_key,
            (
                Sum(a(S)),
                frame(FrameUnits::Rows, Bound::Preceding(1), Bound::CurrentRow),
            ),
            Error::TypeMismatch {
                expected: "numeric".into(),
                found: "Str".into(),
            },
        ),
    ];
    // Pool of 2 blocks: the sorted segment arrives spilled; 64: resident.
    for mem in [2u64, 64] {
        for (what, shape, call, expected) in &bad {
            let attempt = |calls: &[Call], grouped: bool| {
                let env = OpEnv::with_memory_blocks(mem);
                let op = windows(shape.reorder(&table, &env), shape, calls, &env, grouped);
                let err = finish(op, &env).expect_err(what);
                assert_eq!(
                    env.store.snapshot().resident_bytes,
                    0,
                    "{what} (M={mem}, grouped={grouped}) left a residency charge"
                );
                err
            };
            // Alone, and behind and before healthy calls.
            let alone = [call.clone()];
            let among = [
                (RowNumber, None),
                (Rank, None),
                call.clone(),
                (CumeDist, None),
            ];
            for calls in [&alone[..], &among[..]] {
                let from_group = attempt(calls, true);
                assert_eq!(&from_group, expected, "{what} (M={mem})");
                assert_eq!(from_group, attempt(calls, false), "{what} (M={mem})");
            }
        }
        // Two failing calls: the first in evaluation order wins.
        let (_, shape, first, first_err) = &bad[0];
        let (_, _, second, second_err) = &bad[4];
        for (calls, expected) in [
            ([first.clone(), second.clone()], first_err),
            ([second.clone(), first.clone()], second_err),
        ] {
            let env = OpEnv::with_memory_blocks(mem);
            let op = windows(shape.reorder(&table, &env), shape, &calls, &env, true);
            assert_eq!(&finish(op, &env).expect_err("two bad calls"), expected);
        }
    }
}

/// A group's evaluation class is the weakest of its calls'.
#[test]
fn group_eval_class_is_the_weakest_of_its_calls() {
    use WindowFunction::*;
    let rows_frame = frame(FrameUnits::Rows, Bound::Preceding(2), Bound::Following(1));
    let tail = frame(
        FrameUnits::Rows,
        Bound::CurrentRow,
        Bound::UnboundedFollowing,
    );
    let class_of = |calls: Vec<Call>| {
        let feed = Feed {
            segments: VecDeque::new(),
            ballast: None,
        };
        let wok = SortSpec::new(vec![OrdElem::asc(a(K))]);
        let classes: Vec<StreamableEval> = calls
            .iter()
            .map(|(f, fr)| StreamableEval::classify(f, &fr.unwrap_or(FrameSpec::default_for(true))))
            .collect();
        let op = WindowOp::group(
            feed,
            AttrSet::from_iter([a(P)]),
            wok,
            calls,
            OpEnv::with_memory_blocks(4),
        );
        assert_eq!(op.eval_class(), StreamableEval::weakest(classes));
        op.eval_class()
    };
    assert_eq!(class_of(vec![(Sum(a(V)), None)]), StreamableEval::OnePass);
    assert_eq!(
        class_of(vec![
            (Sum(a(V)), None),
            (Rank, None),
            (Avg(a(V)), rows_frame)
        ]),
        StreamableEval::Ring
    );
    assert_eq!(
        class_of(vec![(Sum(a(V)), None), (Max(a(V)), tail), (Rank, None)]),
        StreamableEval::Buffered
    );
}

/// One resident segment of `n` one-row partitions `(p = i, k = i)`,
/// carrying the given layers over `{p}` and `{p, k}` (every row its own
/// run).
fn one_row_partitions(n: usize, layers: &[AttrSet]) -> SegmentedRows {
    let rows: Vec<Row> = (0..n as i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i)]))
        .collect();
    let mut bounds = SegmentBounds::none();
    for attrs in layers {
        bounds.add_layer(attrs.clone(), (0..n).collect());
    }
    SegmentedRows::from_parts_with_bounds(rows, vec![0], vec![bounds])
}

/// Rank over `n` one-row partitions carrying `layers`: the ranks, the exact
/// comparison count, and how long the evaluation took.
fn rank_one_row_partitions(n: usize, layers: &[AttrSet], comparisons: u64) -> Duration {
    let wpk = AttrSet::from_iter([a(0)]);
    let wok = SortSpec::new(vec![OrdElem::asc(a(1))]);
    let input = one_row_partitions(n, layers);
    let env = OpEnv::with_memory_blocks(1 << 16);
    let t = Instant::now();
    let out = evaluate_window(input, &wpk, &wok, &WindowFunction::Rank, None, &env).unwrap();
    let took = t.elapsed();
    assert!(out.rows().iter().all(|r| r.get(a(2)) == &Value::Int(1)));
    assert_eq!(env.tracker.snapshot().comparisons, comparisons, "n={n}");
    took
}

/// The layers of [`rank_one_row_partitions`]: exact ones for `WPK` and
/// `WPK ∪ WOK`, or the superset layer alone.
fn one_row_layers() -> ([AttrSet; 2], [AttrSet; 1]) {
    let wpk = AttrSet::from_iter([a(0)]);
    let union = wpk.union(&AttrSet::from_iter([a(1)]));
    ([wpk, union.clone()], [union])
}

/// Boundary reuse over a resident segment of one-row partitions costs what
/// the layers leave to verify: exact layers answer partition and peer
/// detection with no comparison; a superset layer alone has each of its
/// `n − 1` candidate boundaries verified once for the partitions, and none
/// lies inside a one-row partition.
#[test]
fn rank_over_one_row_partitions_scales_linearly() {
    let (exact, superset) = one_row_layers();
    for n in [10_000usize, 40_000] {
        rank_one_row_partitions(n, &exact, 0);
        rank_one_row_partitions(n, &superset, n as u64 - 1);
    }
}

/// The same in wall time: each partition's peer query reads its own slice of
/// the carried layer (`partition_point`), not the whole layer. From 10 000 to
/// 160 000 partitions linear is 16× and quadratic 256×; the bound sits a
/// factor of four from either, so that a noisy host separates the two
/// hypotheses (the 2-core sandbox reads 20–26×: the larger input also
/// leaves the cache).
#[test]
#[ignore = "wall-clock ratio; run by CI's release leg"]
fn rank_over_one_row_partitions_scales_linearly_on_the_wall() {
    const SMALL: usize = 10_000;
    const LARGE: usize = 160_000;
    let (exact, superset) = one_row_layers();
    let best_of_3 = |n: usize, layers: &[AttrSet], comparisons: u64| -> Duration {
        (0..3)
            .map(|_| rank_one_row_partitions(n, layers, comparisons))
            .min()
            .unwrap()
    };
    let (small, large) = (best_of_3(SMALL, &exact, 0), best_of_3(LARGE, &exact, 0));
    assert!(
        large < small * 64,
        "exact layers: {SMALL} partitions {small:?}, {LARGE} partitions {large:?}"
    );
    let (small, large) = (
        best_of_3(SMALL, &superset, SMALL as u64 - 1),
        best_of_3(LARGE, &superset, LARGE as u64 - 1),
    );
    assert!(
        large < small * 64,
        "superset layer: {SMALL} partitions {small:?}, {LARGE} partitions {large:?}"
    );
}

/// One sort, one window group — and still one report slot, one EXPLAIN
/// line and one evaluation class per plan step.
#[test]
fn fanout_statement_reports_one_slot_per_step() {
    const ROWS: usize = 25_000;
    let table = WsConfig {
        rows: ROWS,
        seed: 42,
        ..WsConfig::default()
    }
    .generate();
    let pool = 4 * table.block_count();
    let db = DatabaseConfig::new()
        .scheme(Scheme::Cso)
        .memory_blocks(pool)
        .worker_threads(1)
        .open();
    db.register("web_sales", table).unwrap();
    let session = db.session();
    let out = session.execute(FANOUT_SQL).unwrap();
    let (plan, report) = (&out.plan, &out.report);

    // The plan: one reorder, then 23 matched steps in the head's group.
    assert_eq!(plan.steps.len(), 24);
    assert_eq!(plan.reorder_count(), 1);
    assert_eq!(plan.group_heads(), vec![0; 24]);

    // The report: slot 0 is the scan, then one slot per step under the
    // step's own label; the head's slot carries the group's work.
    let slots = &report.step_metrics;
    assert_eq!(slots.len(), 25);
    assert_eq!(report.eval_classes.len(), 24);
    assert_eq!(slots[0].label, "scan+filter");
    let head = &slots[1].label;
    assert!(!head.starts_with("→ "), "the head has the reorder: {head}");
    let mut steps_work = CostSnapshot::default();
    for slot in &slots[1..] {
        assert_eq!(slot.rows, ROWS as u64, "{}", slot.label);
        assert!(slot.segments >= 1, "{}", slot.label);
        steps_work = steps_work.plus(&slot.work);
    }
    for member in &slots[2..] {
        assert!(member.label.starts_with("→ f_"), "{}", member.label);
        assert_eq!(member.work, CostSnapshot::default(), "{}", member.label);
    }
    assert_eq!(steps_work, report.work.since(&slots[0].work));
    assert_eq!(
        report.work.rows_moved,
        26 * ROWS as u64,
        "scan + sort + 24 hand-offs"
    );
    assert_eq!(report.table.row_count(), ROWS);

    // EXPLAIN and EXPLAIN ANALYZE name the group on every member line.
    let explain = session.explain(FANOUT_SQL).unwrap();
    assert_eq!(
        explain
            .matches(&format!("(matched; group of {head})"))
            .count(),
        23,
        "{explain}"
    );
    let env = ExecEnv::with_memory_blocks(pool).with_par_workers(1);
    let (_, analyze) = explain_analyze(plan, &db.table("web_sales").unwrap(), &env).unwrap();
    assert_eq!(
        analyze.matches(&format!("  (group of {head})")).count(),
        23,
        "{analyze}"
    );
}
