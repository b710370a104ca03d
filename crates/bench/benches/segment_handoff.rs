//! Micro-benchmarks of the resident hand-off between operators — what a
//! segment costs to charge, size and move, apart from the sorting and the
//! window evaluation around it. One operator, one fixed batch, one budget
//! per case; every run gets an input of its own, prepared outside the clock:
//!
//! * `admit`: 1 024 segments of 24 rows into a statement's pooled
//!   sub-account (the `inmem_chain` statement hands ~1 022 such buckets from
//!   every operator to the next),
//! * `ss_*`: Segmented Sort over one resident segment of 25 000 rows cut
//!   into 25 000 one-row units and into 1 000 units of 25,
//! * `sort_in_memory_n*`: ~25 000 rows sorted as buckets of `n` rows.

use wf_bench::microbench::{iterations, BenchGroup};
use wf_common::{row, AttrId, OrdElem, Row, SortSpec};
use wf_exec::sorter::sort_in_memory;
use wf_exec::{OpEnv, Operator, Segment, SegmentBounds, SegmentedSortOp, SortKey};
use wf_storage::{SegmentStore, SpillConfig};

const ROWS: usize = 25_000;

/// A leaf handing out one prepared segment.
struct Once(Option<Segment>);

impl Operator for Once {
    fn next_segment(&mut self) -> wf_common::Result<Option<Segment>> {
        Ok(self.0.take())
    }
}

fn asc(cols: &[usize]) -> SortSpec {
    SortSpec::new(cols.iter().map(|&c| OrdElem::asc(AttrId::new(c))).collect())
}

/// `n` rows of `(unit, shuffled key, sequence, padding)`, `unit_len` rows to
/// a unit, units in order.
fn rows(n: usize, unit_len: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            row![
                (i / unit_len) as i64,
                ((i * 7919) % 10_007) as i64,
                i as i64,
                "padding-padding-padding"
            ]
        })
        .collect()
}

/// One copy of `proto` per run of a case (the warm-up included), handed out
/// by the returned closure, so that no case times the cloning of its input.
fn stock<T: Clone>(proto: &T) -> impl FnMut() -> T {
    let mut copies = vec![proto.clone(); iterations() + 1];
    move || copies.pop().expect("one input per run")
}

fn main() {
    let mut g = BenchGroup::new("segment_handoff");

    let pool = SegmentStore::with_spill(Some(8192), SpillConfig::mem());
    let segments: Vec<Vec<Row>> = rows(1024 * 24, 24)
        .chunks(24)
        .map(<[Row]>::to_vec)
        .collect();
    let mut input = stock(&segments);
    g.bench("admit_1024x24_pooled", || {
        let statement = pool.pooled_sub_store(Some(4096));
        let handles: Vec<_> = input()
            .into_iter()
            .map(|seg| statement.admit(seg).expect("fits the pool"))
            .collect();
        assert!(handles.iter().all(|h| !h.is_spilled()));
    });

    for (id, unit_len) in [("ss_25000x1", 1), ("ss_1000x25", 25)] {
        let env = OpEnv::with_memory_blocks(4096);
        let mut input = stock(&rows(ROWS, unit_len));
        g.bench(id, || {
            let handle = env.store.admit(input()).expect("fits the pool");
            let source = Once(Some(Segment::from_handle(handle, SegmentBounds::none())));
            let mut op = SegmentedSortOp::new(source, asc(&[0]), asc(&[1, 2]), env.clone());
            let out = op.next_segment().expect("sorts").expect("one segment");
            assert_eq!(out.len(), ROWS);
        });
    }

    let env = OpEnv::with_memory_blocks(4096);
    let key = SortKey::new(&asc(&[1, 2]));
    for n in [2usize, 8, 24, 64, 128, 256, 1560] {
        let buckets: Vec<Vec<Row>> = rows(ROWS / n * n, n)
            .chunks(n)
            .map(<[Row]>::to_vec)
            .collect();
        let mut input = stock(&buckets);
        g.bench(&format!("sort_in_memory_n{n}"), || {
            for mut bucket in input() {
                sort_in_memory(&mut bucket, &key, &env);
                std::hint::black_box(&bucket);
            }
        });
    }

    g.finish();
}
