//! **Hashed Sort (HS)** — hash partitioning followed by per-bucket sorts
//! (paper §3.2).
//!
//! The partitioning phase hashes every row on the hash key `WHK ⊆ WPK` into
//! one of `n_buckets` buckets, consuming the upstream segments as row
//! streams (never materializing the input). Buckets stay memory-resident
//! while the unit reorder memory `M` allows; when memory fills, the largest
//! in-memory bucket is chosen as the victim and flushed to a spill file, and
//! any subsequent tuple for a spilled bucket goes straight to its file. At
//! the end of the phase, memory-resident buckets are sorted (internally)
//! before the disk-resident ones, exactly as §3.2 prescribes.
//!
//! The **MFV optimization**: rows whose hash-key value is declared "most
//! frequent" (its partition alone would overflow `M`) bypass partitioning
//! and are pipelined directly into a sort that runs before any bucket,
//! saving up to one round-trip of I/O for them.
//!
//! Output: one segment per non-empty bucket, each handed to the segment
//! store (resident within the pool budget, spilled past it). Spilled
//! buckets are *streamed* from their file into the sorter — never
//! materialized first — so HS's resident set stays `O(M)` even when a
//! bucket is far larger. Buckets are disjoint on `WHK` by construction, and
//! each is sorted on the sort key, so the output is the segmented relation
//! `R_{WHK, key}`. Like FS, the per-bucket sorts record partition-boundary
//! layers for free when asked ([`HashedSortOp::with_recorded_prefixes`]).

use crate::env::OpEnv;
use crate::operator::{drain, Operator, Segment, SegmentSource};
use crate::segment::SegmentedRows;
use crate::sorter::{record_prefix_layers, sort_in_memory, sort_stream_to_handle, SortKey};
use crate::util::hash_row_on;
use std::collections::{HashSet, VecDeque};
use wf_common::{AttrSet, Error, Result, Row, SortSpec, Value};
use wf_storage::{IoMeter, MemoryLedger, SpillFile};

/// Tuning knobs for Hashed Sort.
#[derive(Debug, Clone)]
pub struct HsOptions {
    /// Number of physical buckets. The planner usually passes
    /// `min(D(WHK), cap)`; capped because real systems bound partition
    /// fan-out by available buffers.
    pub n_buckets: usize,
    /// Hash-key values (projected on `WHK`, in canonical attribute order)
    /// whose rows are pipelined directly to the first sort (MFV
    /// optimization). Empty disables the optimization.
    pub mfv_values: Vec<Vec<Value>>,
    /// Emit buckets in ascending bucket-index order instead of §3.2's
    /// memory-then-disk order. The default order depends on which buckets
    /// victim-spilling happened to evict — a function of `M` — while the
    /// parallel scheduler's `Par{Hs}` path needs an emission order that is
    /// a pure function of the hash, identical in every worker and pool
    /// configuration. (MFV rows, when configured, still go first.)
    pub stable_emission: bool,
}

impl HsOptions {
    /// `n` buckets, no MFV optimization, §3.2 emission order.
    pub fn with_buckets(n_buckets: usize) -> Self {
        HsOptions {
            n_buckets,
            mfv_values: Vec::new(),
            stable_emission: false,
        }
    }
}

enum Bucket {
    Mem { rows: Vec<Row>, bytes: usize },
    Spilled { file: SpillFile },
}

/// One bucket awaiting emission. The sort happens lazily, at the moment the
/// downstream pulls the bucket — that is what makes HS a *per-segment*
/// streaming operator: bucket `k` flows through window evaluation while
/// buckets `k+1..n` still sit unsorted in memory or on disk.
enum PendingBucket {
    /// §3.2's MFV rows: pipelined past partitioning, sorted before any
    /// bucket (externally if needed).
    Mfv(Vec<Row>),
    /// Memory-resident bucket: internal sort at emission.
    Mem(Vec<Row>),
    /// Spilled bucket: streamed from its file into the sorter.
    Disk(SpillFile),
}

/// The HS operator: hash-partitions its whole input on the first pull
/// (partitioning is blocking), then emits **one sorted bucket per pull** —
/// MFV rows first, then memory-resident buckets, then spilled buckets,
/// exactly the emission order §3.2 prescribes.
pub struct HashedSortOp<I> {
    input: Option<I>,
    whk: AttrSet,
    key: SortKey,
    options: HsOptions,
    record: Vec<AttrSet>,
    env: OpEnv,
    queue: VecDeque<PendingBucket>,
}

impl<I: Operator> HashedSortOp<I> {
    /// Hash-partition everything `input` yields on `whk`, sorting each
    /// bucket on `key`.
    pub fn new(input: I, whk: AttrSet, key: SortSpec, options: HsOptions, env: OpEnv) -> Self {
        HashedSortOp {
            input: Some(input),
            whk,
            key: SortKey::new(&key),
            options,
            record: Vec::new(),
            env,
            queue: VecDeque::new(),
        }
    }

    /// Record boundary layers for these sort-key prefixes on every emitted
    /// bucket (see [`crate::full_sort::FullSortOp::with_recorded_prefixes`]).
    pub fn with_recorded_prefixes(mut self, sets: Vec<AttrSet>) -> Self {
        self.record = sets;
        self
    }

    /// The blocking partitioning phase (run on first pull): scatter rows
    /// into buckets with victim spilling, then queue non-empty buckets for
    /// lazy emission.
    fn partition_phase(&mut self, mut input: I) -> Result<()> {
        if self.whk.is_empty() {
            return Err(Error::Execution(
                "hashed sort requires a non-empty hash key".into(),
            ));
        }
        if self.options.n_buckets == 0 {
            return Err(Error::Execution(
                "hashed sort requires at least one bucket".into(),
            ));
        }
        let env = &self.env;
        let mut ledger = env.ledger()?;
        let n = self.options.n_buckets;
        let _span = env
            .trace
            .span_with("sort", || format!("hs.partition buckets={n}"));

        let mfv: HashSet<Vec<Value>> = self.options.mfv_values.iter().cloned().collect();
        let mut mfv_rows: Vec<Row> = Vec::new();

        let mut buckets: Vec<Bucket> = (0..n)
            .map(|_| Bucket::Mem {
                rows: Vec::new(),
                bytes: 0,
            })
            .collect();

        while let Some(seg) = input.next_segment()? {
            let (_, mut stream, _) = seg.into_stream();
            // Every row of the segment is hashed; every one that is not an
            // MFV row moves once, into its bucket or its bucket's file.
            // Both are charged per segment, below.
            let (mut hashed, mut moved) = (0u64, 0u64);
            while let Some(row) = stream.next_row()? {
                hashed += 1;
                if !mfv.is_empty() {
                    let key_val: Vec<Value> = self.whk.iter().map(|a| row.get(a).clone()).collect();
                    if mfv.contains(&key_val) {
                        // Pipelined straight to the (first) sort: no
                        // partition I/O, no ledger charge — the sort owns
                        // its memory.
                        mfv_rows.push(row);
                        continue;
                    }
                }
                let idx = (hash_row_on(&row, &self.whk) % n as u64) as usize;
                let bytes = row.encoded_len();
                match &mut buckets[idx] {
                    Bucket::Spilled { file } => file.push(&row)?,
                    Bucket::Mem { .. } => {
                        while !ledger.fits(bytes) {
                            if !spill_victim(&mut buckets, &mut ledger, env, idx)? {
                                break; // nothing left to evict; force-charge below
                            }
                        }
                        match &mut buckets[idx] {
                            Bucket::Mem { rows, bytes: b } => {
                                ledger.charge(bytes);
                                *b += bytes;
                                rows.push(row);
                            }
                            // The current bucket itself became the victim.
                            Bucket::Spilled { file } => file.push(&row)?,
                        }
                    }
                }
                moved += 1;
            }
            env.tracker.hash(hashed);
            env.tracker.move_rows(moved);
        }

        // Emission order: MFV first, then — by default — memory-resident
        // buckets before spilled ones (§3.2); with `stable_emission`,
        // buckets go out in ascending index order regardless of residency.
        if !mfv_rows.is_empty() {
            self.queue.push_back(PendingBucket::Mfv(mfv_rows));
        }
        if self.options.stable_emission {
            for bucket in buckets {
                match bucket {
                    Bucket::Mem { rows, .. } if !rows.is_empty() => {
                        self.queue.push_back(PendingBucket::Mem(rows))
                    }
                    Bucket::Spilled { file } if file.row_count() > 0 => {
                        self.queue.push_back(PendingBucket::Disk(file))
                    }
                    _ => {}
                }
            }
            return Ok(());
        }
        let (mem_buckets, disk_buckets): (Vec<Bucket>, Vec<Bucket>) = buckets
            .into_iter()
            .partition(|b| matches!(b, Bucket::Mem { .. }));
        for bucket in mem_buckets {
            if let Bucket::Mem { rows, .. } = bucket {
                if !rows.is_empty() {
                    self.queue.push_back(PendingBucket::Mem(rows));
                }
            }
        }
        for bucket in disk_buckets {
            if let Bucket::Spilled { file } = bucket {
                if file.row_count() > 0 {
                    self.queue.push_back(PendingBucket::Disk(file));
                }
            }
        }
        Ok(())
    }

    /// Sort a materialized bucket and hand it to the store.
    fn emit_rows(&self, rows: Vec<Row>) -> Result<Segment> {
        let (handle, bounds, _) =
            sort_stream_to_handle(rows.into_iter().map(Ok), &self.key, &self.env, &self.record)?;
        Ok(Segment::from_handle(handle, bounds))
    }
}

impl<I: Operator> Operator for HashedSortOp<I> {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        if let Some(input) = self.input.take() {
            self.partition_phase(input)?;
        }
        let pending = self.queue.pop_front();
        let _span = pending
            .is_some()
            .then(|| self.env.trace.span("sort", "hs.bucket_sort"));
        match pending {
            None => Ok(None),
            Some(PendingBucket::Mfv(rows)) => Ok(Some(self.emit_rows(rows)?)),
            Some(PendingBucket::Mem(mut rows)) => {
                sort_in_memory(&mut rows, &self.key, &self.env);
                let bounds = record_prefix_layers(&rows, &self.record);
                Ok(Some(Segment::from_handle(
                    self.env.store.admit(rows)?,
                    bounds,
                )))
            }
            Some(PendingBucket::Disk(file)) => {
                // Stream the spilled bucket straight into the sorter: the
                // read-back charges the same blocks the old materialize-
                // then-sort path did, but at most `M` of the bucket is ever
                // resident.
                let mut reader = file.into_reader()?;
                let (handle, bounds, _) = sort_stream_to_handle(
                    std::iter::from_fn(move || reader.next_row().transpose()),
                    &self.key,
                    &self.env,
                    &self.record,
                )?;
                Ok(Some(Segment::from_handle(handle, bounds)))
            }
        }
    }
}

/// Hash-partition `input` on `whk` and sort each bucket on `key`. Thin
/// wrapper over [`HashedSortOp`] for batch callers.
pub fn hashed_sort(
    input: SegmentedRows,
    whk: &AttrSet,
    key: &SortSpec,
    options: &HsOptions,
    env: &OpEnv,
) -> Result<SegmentedRows> {
    let mut op = HashedSortOp::new(
        SegmentSource::new(input, env),
        whk.clone(),
        key.clone(),
        options.clone(),
        env.clone(),
    );
    drain(&mut op)
}

/// Flush the largest memory-resident bucket to disk. Returns false when no
/// in-memory bucket with rows remains. `prefer_not` is only evicted last
/// (it is the bucket currently being appended to).
fn spill_victim(
    buckets: &mut [Bucket],
    ledger: &mut MemoryLedger,
    env: &OpEnv,
    prefer_not: usize,
) -> Result<bool> {
    let mut victim: Option<(usize, usize)> = None; // (index, bytes)
    for (i, b) in buckets.iter().enumerate() {
        if let Bucket::Mem { bytes, rows } = b {
            if rows.is_empty() {
                continue;
            }
            let better = match victim {
                None => true,
                Some((vi, vb)) => {
                    // Largest first; avoid the active bucket unless it is
                    // the only candidate.
                    if (vi == prefer_not) != (i == prefer_not) {
                        vi == prefer_not
                    } else {
                        *bytes > vb
                    }
                }
            };
            if better {
                victim = Some((i, *bytes));
            }
        }
    }
    let Some((idx, bytes)) = victim else {
        return Ok(false);
    };
    let mut file = env.store.spill_file(IoMeter::Model(env.tracker.clone()))?;
    if let Bucket::Mem { rows, .. } = &mut buckets[idx] {
        for row in rows.drain(..) {
            file.push(&row)?;
        }
    }
    ledger.release(bytes);
    buckets[idx] = Bucket::Spilled { file };
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::{row, AttrId, OrdElem, RowComparator};

    fn aset(ids: &[usize]) -> AttrSet {
        AttrSet::from_iter(ids.iter().map(|&i| AttrId::new(i)))
    }
    fn key(ids: &[usize]) -> SortSpec {
        SortSpec::new(ids.iter().map(|&i| OrdElem::asc(AttrId::new(i))).collect())
    }

    fn input(n: usize, distinct: i64) -> SegmentedRows {
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let k = (i as i64 * 2654435761) % distinct;
                row![k, (n - i) as i64, "some-padding-to-make-rows-wider"]
            })
            .collect();
        SegmentedRows::single_segment(rows)
    }

    fn check_valid_output(out: &SegmentedRows, whk: &AttrSet, sort: &SortSpec, n: usize) {
        assert_eq!(out.len(), n);
        assert!(
            out.segments_disjoint_on(whk),
            "buckets must be disjoint on WHK"
        );
        assert!(
            out.segments_sorted_by(&RowComparator::new(sort)),
            "buckets must be sorted"
        );
    }

    #[test]
    fn in_memory_buckets_no_io() {
        let env = OpEnv::with_memory_blocks(1024);
        let out = hashed_sort(
            input(2000, 50),
            &aset(&[0]),
            &key(&[0, 1]),
            &HsOptions::with_buckets(50),
            &env,
        )
        .unwrap();
        check_valid_output(&out, &aset(&[0]), &key(&[0, 1]), 2000);
        assert_eq!(env.tracker.snapshot().io_blocks(), 0);
        assert_eq!(env.tracker.snapshot().hashes, 2000);
    }

    #[test]
    fn small_memory_spills_and_still_correct() {
        let env = OpEnv::with_memory_blocks(2);
        let out = hashed_sort(
            input(3000, 40),
            &aset(&[0]),
            &key(&[0, 1]),
            &HsOptions::with_buckets(40),
            &env,
        )
        .unwrap();
        check_valid_output(&out, &aset(&[0]), &key(&[0, 1]), 3000);
        assert!(
            env.tracker.snapshot().blocks_written > 0,
            "tiny M must spill"
        );
    }

    #[test]
    fn more_buckets_than_values_leaves_empty_buckets_out() {
        let env = OpEnv::with_memory_blocks(64);
        let out = hashed_sort(
            input(100, 3),
            &aset(&[0]),
            &key(&[0]),
            &HsOptions::with_buckets(64),
            &env,
        )
        .unwrap();
        assert!(out.segment_count() <= 3);
        check_valid_output(&out, &aset(&[0]), &key(&[0]), 100);
    }

    #[test]
    fn single_bucket_degenerates_to_sorted_whole() {
        let env = OpEnv::with_memory_blocks(8);
        let out = hashed_sort(
            input(500, 10),
            &aset(&[0]),
            &key(&[0, 1]),
            &HsOptions::with_buckets(1),
            &env,
        )
        .unwrap();
        assert_eq!(out.segment_count(), 1);
        assert!(out.segments_sorted_by(&RowComparator::new(&key(&[0, 1]))));
    }

    #[test]
    fn mfv_rows_bypass_partitioning() {
        let env = OpEnv::with_memory_blocks(512);
        let mut opts = HsOptions::with_buckets(8);
        opts.mfv_values = vec![vec![Value::Int(0)]];
        let out = hashed_sort(input(400, 4), &aset(&[0]), &key(&[0, 1]), &opts, &env).unwrap();
        check_valid_output(&out, &aset(&[0]), &key(&[0, 1]), 400);
        // First segment must be exactly the MFV value's rows.
        let first = out.segment(0);
        assert!(first
            .iter()
            .all(|r| r.get(AttrId::new(0)).as_int() == Some(0)));
        assert_eq!(first.len(), 100);
    }

    #[test]
    fn empty_hash_key_rejected() {
        let env = OpEnv::with_memory_blocks(8);
        let r = hashed_sort(
            input(10, 2),
            &AttrSet::empty(),
            &key(&[0]),
            &HsOptions::with_buckets(4),
            &env,
        );
        assert!(r.is_err());
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let env = OpEnv::with_memory_blocks(8);
        let out = hashed_sort(
            SegmentedRows::empty(),
            &aset(&[0]),
            &key(&[0]),
            &HsOptions::with_buckets(4),
            &env,
        )
        .unwrap();
        assert!(out.is_empty());
        assert_eq!(out.segment_count(), 0);
    }

    #[test]
    fn hs_io_is_stable_across_memory_sizes() {
        // The paper's observation: HS performance is flat w.r.t. M because
        // partition+read-back is ~2 passes regardless (Fig. 3). I/O at
        // moderate M must not exceed a small multiple of I/O at large M.
        // Both budgets stay well below B(R) — the regime the paper studies.
        let base = input(12000, 64);
        let env_small = OpEnv::with_memory_blocks(4);
        let env_large = OpEnv::with_memory_blocks(16);
        hashed_sort(
            base.clone(),
            &aset(&[0]),
            &key(&[0, 1]),
            &HsOptions::with_buckets(64),
            &env_small,
        )
        .unwrap();
        hashed_sort(
            base,
            &aset(&[0]),
            &key(&[0, 1]),
            &HsOptions::with_buckets(64),
            &env_large,
        )
        .unwrap();
        let small = env_small.tracker.snapshot().io_blocks() as f64;
        let large = (env_large.tracker.snapshot().io_blocks() as f64).max(1.0);
        assert!(
            small / large < 3.0,
            "HS I/O should be roughly flat: {small} vs {large}"
        );
    }

    /// With `stable_emission`, buckets come out in ascending bucket-index
    /// order — a pure function of the hash — so a memory budget small
    /// enough to force victim spilling emits the exact same sequence as an
    /// ample one, where the default §3.2 order would shuffle spilled
    /// buckets to the back.
    #[test]
    fn stable_emission_is_pool_independent() {
        let whk = aset(&[0]);
        let sort = key(&[0, 1]);
        let opts = HsOptions {
            n_buckets: 24,
            mfv_values: Vec::new(),
            stable_emission: true,
        };
        let mut reference: Option<Vec<Vec<Row>>> = None;
        for mem in [2u64, 512] {
            let env = OpEnv::with_memory_blocks(mem);
            let out = hashed_sort(input(3000, 24), &whk, &sort, &opts, &env).unwrap();
            check_valid_output(&out, &whk, &sort, 3000);
            let segs: Vec<Vec<Row>> = (0..out.segment_count())
                .map(|i| out.segment(i).to_vec())
                .collect();
            match &reference {
                None => {
                    assert!(env.tracker.snapshot().blocks_written > 0, "M=2 must spill");
                    reference = Some(segs);
                }
                Some(r) => assert_eq!(&segs, r, "emission order must not depend on M"),
            }
        }
    }

    /// Emitted buckets carry recorded WHK layers when asked.
    #[test]
    fn buckets_record_prefix_layers() {
        let env = OpEnv::with_memory_blocks(64);
        let mut op = HashedSortOp::new(
            SegmentSource::new(input(600, 12), &env),
            aset(&[0]),
            key(&[0, 1]),
            HsOptions::with_buckets(4),
            env.clone(),
        )
        .with_recorded_prefixes(vec![aset(&[0])]);
        let mut buckets = 0;
        while let Some(seg) = op.next_segment().unwrap() {
            let layer = seg
                .bounds
                .layers()
                .iter()
                .find(|l| l.attrs == aset(&[0]))
                .expect("whk layer");
            assert!(!layer.starts.is_empty());
            buckets += 1;
        }
        assert!(buckets > 1);
    }
}
