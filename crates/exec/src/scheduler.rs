//! The parallel execution scheduler — a partition-sharded chain span over a
//! worker pool (paper §3.5, made planner-visible by `ReorderOp::Par`).
//!
//! [`ParallelChainOp`] is the physical operator behind a planned `Par` span:
//! the head reorder (FS *or* HS), its window call, and any follow-up SS +
//! window stages whose partition keys cover the shard key. The scheduler
//! does not know those operators: the runtime hands it a [`WorkerChain`]
//! that builds them over a worker's shard — with the same lowering as the
//! serial chain's steps — and a [`ParRoute`] that says how the workers'
//! output comes back together. The scheduler owns scatter, threads,
//! parking and reassembly. One span runs four phases:
//!
//! 1. **Scatter** — every input row is hashed on the shard key (a subset of
//!    the window partition key, so every window partition lands wholly
//!    inside one shard) and routed to one of `workers` shards, charging one
//!    hash per row. Shard assignment is a pure function of the row values —
//!    never of timing. When the input is a table scan's shared view of the
//!    table ([`Segment::shared_rows`]) the scatter routes row *indices*:
//!    each worker reads an uncharged by-index view
//!    ([`wf_storage::SegmentStore::shared_subset`]) that clones its rows in
//!    scatter order, so no row is copied into the pool, encoded or decoded.
//!    Any other input (a filter's rows, an earlier reorder's output) is
//!    copied into one pool segment per shard, as the input's kind — not a
//!    setting — decides.
//! 2. **Parallel chains** — each shard runs the whole span chain inside its
//!    own worker environment: a **fresh tracker** and a **ledger
//!    sub-account** of the chain's [`wf_storage::SegmentStore`] sized to
//!    the per-worker unit reorder memory `M_w = ⌊M / workers⌋`. Shards are
//!    distributed over at most `threads` OS threads (`std::thread::scope`)
//!    with a fixed shard → worker assignment (worker `t` takes shards
//!    `t, t + threads, …`); because every shard's work happens against
//!    shard-private state, the thread count changes wall clock and nothing
//!    else. A worker's finished segments wait for the reassembly. When its
//!    shard's encoded bytes fit `M_w` (or the pool is unbounded) they wait
//!    resident. When they do not, the worker **parks** each finished segment
//!    on the spill device as soon as it is done, through a one-block pooled
//!    account of its own: otherwise finished buckets would fill `M_w` and
//!    every later bucket would take the spilled window and SS paths. Parked
//!    segments count in the worker's own snapshot (spilled segments,
//!    peaks), so the fold of phase 4 reports them.
//! 3. **Deterministic reassembly** — the workers' private trackers are
//!    absorbed into the chain's tracker **in shard order**, and only
//!    *finished rows* are reassembled: a k-way **ordered merge** on the
//!    span's final ordering for an FS head (rows equal on the whole key
//!    always share a shard and each shard preserves input order through a
//!    stable sort, so the merged output is bit-identical to the serial
//!    chain's — including the boundary layers, re-recorded for free during
//!    the merge), an ascending-global-bucket interleave for an HS head.
//! 4. **Residency fold-back** — the workers' high-water marks are folded
//!    into the chain store with
//!    [`wf_storage::SegmentStore::absorb_concurrent`] and reported
//!    deterministically (sum of worker peaks, independent of how worker
//!    lifetimes overlapped).
//!
//! **Residency bound.** A worker holds the bucket (or unit) it is working
//! on within `M_w`, plus at most one block of parked segments when it
//! parks, so a span's tracked residency is `O(P + Σ_w (M_w + unit_w))`,
//! where `P` is what the chain held while the workers ran: nothing for a
//! scanned table, the shard segments (at most `M`) otherwise.
//!
//! **Determinism contract.** For a fixed plan (fixed `workers`), output
//! rows, boundary layers, modeled counters *and* pool counters are
//! bit-identical whatever `threads` resolves to — the scheduler only ever
//! parallelizes work that lives in shard-private state. Output rows and
//! layers additionally equal the serial chain's; modeled counters of the
//! `Par` span itself differ from the serial steps' (that difference is
//! exactly what the planner's cost decision weighs).

use crate::env::OpEnv;
use crate::operator::{Operator, Segment};
use crate::segment::SegmentBounds;
use crate::sorter::{merge_sorted_handles, SortKey};
use crate::util::hash_row_on;
use std::collections::VecDeque;
use std::sync::Arc;
use wf_common::{AttrSet, Error, Result, SortSpec};
use wf_storage::{SegmentBuilder, SegmentHandle, SegmentStore};

/// Resolve how many OS threads a parallel operator may use: the
/// environment's [`OpEnv::worker_threads`] override when set (the
/// `WF_WORKERS` variable), else the plan node's worker count — clamped to
/// `[1, shards]` since extra threads would idle.
pub fn resolve_threads(env: &OpEnv, plan_workers: usize, shards: usize) -> usize {
    let t = if env.worker_threads > 0 {
        env.worker_threads
    } else {
        plan_workers
    };
    t.clamp(1, shards.max(1))
}

/// Per-worker unit reorder memory for `workers` shards of an `M`-block
/// budget: `M_w = ⌊M / workers⌋`, floor one block — the executor-side twin
/// of the cost model's `workers × M_w ≤ M` constraint.
pub fn per_worker_blocks(mem_blocks: u64, workers: usize) -> u64 {
    (mem_blocks / workers.max(1) as u64).max(1)
}

/// Run shard-indexed `jobs` over at most `threads` scoped worker threads
/// with the fixed shard→worker assignment (worker `t` takes jobs
/// `t, t + threads, …`). Returns one slot per shard in `0..shards`:
/// `Some(result)` for jobs that ran, `None` where the owning thread
/// panicked (a panicking thread loses its whole batch, completed siblings
/// included — callers should report the panic, not blame a specific
/// unaccounted shard).
fn run_sharded<J, R>(
    shards: usize,
    threads: usize,
    jobs: Vec<(usize, J)>,
    f: impl Fn(usize, J) -> Result<R> + Sync,
) -> Vec<Option<Result<R>>>
where
    J: Send,
    R: Send,
{
    let threads = threads.max(1);
    let mut batches: Vec<Vec<(usize, J)>> = (0..threads).map(|_| Vec::new()).collect();
    for job in jobs {
        batches[job.0 % threads].push(job);
    }
    let f = &f;
    let outputs: Vec<Vec<(usize, Result<R>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| {
                scope.spawn(move || {
                    batch
                        .into_iter()
                        .map(|(i, j)| (i, f(i, j)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut slots: Vec<Option<Result<R>>> = (0..shards).map(|_| None).collect();
    for out in outputs {
        for (i, r) in out {
            slots[i] = Some(r);
        }
    }
    slots
}

/// Fold the workers' private trackers into the chain's tracker **in
/// worker order** — the counter half of the deterministic reassembly
/// choreography.
fn absorb_worker_trackers(env: &OpEnv, worker_envs: &[OpEnv]) {
    for w in worker_envs {
        env.tracker.absorb(&w.tracker.snapshot());
    }
}

/// Fold the workers' residency high-water marks into the chain's store —
/// the residency half of the reassembly choreography. Call once the
/// workers' output handles have been consumed (their sub-account peaks are
/// final).
fn absorb_worker_stores(env: &OpEnv, worker_envs: &[OpEnv]) {
    let snaps: Vec<_> = worker_envs.iter().map(|e| e.store.snapshot()).collect();
    env.store.absorb_concurrent(&snaps);
}

/// One worker's input as the scatter leaves it: its rows in input order,
/// as by-index views of a scanned table and pool segments of anything
/// else, and their encoded size — what tells the worker whether its
/// finished segments can stay in its budget.
#[derive(Default)]
struct Shard {
    pieces: Vec<SegmentHandle>,
    building: Option<SegmentBuilder>,
    bytes: usize,
}

impl Shard {
    /// Close the pool segment being built, if any, so that a piece routed
    /// after it follows it.
    fn seal(&mut self) -> Result<()> {
        if let Some(b) = self.building.take().filter(|b| !b.is_empty()) {
            self.pieces.push(b.finish()?);
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.pieces.iter().map(SegmentHandle::len).sum()
    }
}

/// What phase 1 hands to phase 2: one [`Shard`] per worker and, for an HS
/// head, which global buckets are non-empty — the interleave order of the
/// final emission.
struct Scatter {
    shards: Vec<Shard>,
    bucket_nonempty: Vec<bool>,
}

/// Leaf operator yielding a shard's pieces in order — the input of an
/// in-worker chain.
struct HandleSource {
    pieces: std::vec::IntoIter<SegmentHandle>,
}

impl Operator for HandleSource {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        Ok(self
            .pieces
            .next()
            .map(|h| Segment::from_handle(h, SegmentBounds::none())))
    }
}

/// How a span's finished worker segments come back together — decided by
/// the reorder at the span's head, which the runtime lowers.
#[derive(Debug, Clone)]
pub enum ParRoute {
    /// A Full Sort head: row `r` goes to shard `hash(r) % workers`, each
    /// worker emits at most one segment, and the outputs are k-way merged on
    /// `order`, the ordering the span's rows end in (the shard key is a
    /// subset of it, so rows equal on it never straddle shards).
    Merge {
        /// The span's final ordering: the last in-worker SS's `α ∘ β`,
        /// else the head sort key.
        order: SortSpec,
    },
    /// A Hashed Sort head over **globally numbered** buckets: bucket
    /// `b = hash % n_buckets` goes to worker `b % workers`, and each worker
    /// re-derives the same bucket ids with the same hash function and emits
    /// its non-empty buckets in ascending id, so the outputs interleave back
    /// in ascending global bucket order — a pure function of the row values,
    /// never of which buckets happened to spill.
    Interleave {
        /// Global bucket count (shared by the scatter and every worker).
        n_buckets: usize,
    },
}

/// Builds one worker's chain over its shard, in the worker's environment —
/// the span's head reorder, its window groups and every fused stage, lowered
/// by the same code that lowers serial steps. Called once per worker, on the
/// worker's thread.
pub type WorkerChain = Arc<dyn Fn(Box<dyn Operator>, &OpEnv) -> Box<dyn Operator> + Send + Sync>;

/// Run one worker's chain over its shard. Returns the finished segments in
/// emission order — at most one for a merged span, one per non-empty bucket
/// (ascending bucket id) for an interleaved one.
///
/// With `park`, each finished segment still in memory is written to the
/// spill device at once (module docs, phase 2) instead of being held in the
/// budget the worker's next bucket needs.
fn run_worker(
    shard: Vec<SegmentHandle>,
    park: bool,
    chain: &WorkerChain,
    env: &OpEnv,
) -> Result<Vec<(SegmentHandle, SegmentBounds)>> {
    let source = HandleSource {
        pieces: shard.into_iter(),
    };
    let mut op = chain(Box::new(source), env);
    // A pooled one-block account of the worker's: what it parks counts in
    // the worker's own snapshot (spilled segments, peaks), and at most one
    // block of it — small segments it keeps resident — counts against the
    // worker's budget.
    let park = park.then(|| env.store.pooled_sub_store(Some(1)));
    let mut out = Vec::new();
    while let Some(seg) = op.next_segment()? {
        out.push(match &park {
            Some(park) if !seg.is_spilled() => {
                let (rows, bounds) = seg.into_parts()?;
                (park.admit(rows)?, bounds)
            }
            _ => seg.into_handle(),
        });
    }
    Ok(out)
}

enum ChainState {
    /// Nothing pulled yet — the scatter and the workers run on first pull.
    Pending,
    /// HS head: finished bucket segments queued in ascending global bucket
    /// order; the workers' residency folds back when the queue drains.
    Emitting {
        queue: VecDeque<(SegmentHandle, SegmentBounds)>,
        shard_envs: Vec<OpEnv>,
    },
    Done,
}

/// The chain-parallel operator behind a planned `Par` span: scatter on the
/// shard key, run the **whole span** — built by the [`WorkerChain`] the
/// runtime hands in — inside each worker, then reassemble *finished rows*
/// deterministically along the [`ParRoute`]:
///
/// * **Merge** (FS head) — each worker emits at most one finished segment
///   (FS is single-segment and every later stage is 1:1); the non-empty
///   worker outputs are k-way ordered-merged on the span's final ordering,
///   with the boundary layers every worker proved re-recorded for free
///   during the merge. Rows, layers and the segment structure equal the
///   serial chain's.
/// * **Interleave** (HS head) — each worker emits one finished segment per
///   non-empty bucket in ascending global bucket id; the final emission
///   interleaves them back into one ascending bucket-id sequence (pure
///   concatenation — no row merge), one segment per pull. The output is a
///   deterministic permutation of the serial `Hs` chain's segments,
///   invariant across worker, thread and pool configurations.
///
/// Counter and residency choreography (module docs): fresh per-worker
/// trackers absorbed in shard order, ledger sub-accounts at
/// `M_w = ⌊M / workers⌋` folded back via `absorb_concurrent` — so for a
/// fixed plan, modeled and pool counters are invariant under the thread
/// count and the residency stays governed at `O(M + Σ_w (M_w + unit_w))`.
pub struct ParallelChainOp<I> {
    input: I,
    route: ParRoute,
    /// Scatter key: the head spec's WPK for an FS head, `WHK` for HS.
    shard_attrs: AttrSet,
    workers: usize,
    chain: WorkerChain,
    env: OpEnv,
    state: ChainState,
}

impl<I: Operator> ParallelChainOp<I> {
    /// A span over `input`, scattered on `shard_attrs` to `workers` shards,
    /// each running the chain `chain` builds. For a merged route the shard
    /// key must be a subset of the merge order; for an interleaved one it is
    /// the hash key the workers' Hashed Sort buckets on.
    pub fn new(
        input: I,
        route: ParRoute,
        shard_attrs: AttrSet,
        workers: usize,
        chain: WorkerChain,
        env: OpEnv,
    ) -> Self {
        if let ParRoute::Merge { order } = &route {
            debug_assert!(
                shard_attrs.is_subset(&order.attr_set()),
                "shard key must be a subset of the merge order"
            );
        }
        ParallelChainOp {
            input,
            route,
            shard_attrs,
            workers: workers.max(1),
            chain,
            env,
            state: ChainState::Pending,
        }
    }

    /// Phase 1: hash every input row on the shard key and route it to its
    /// worker. A scan's shared view of the table is routed by row index —
    /// each worker gets an uncharged by-index view, no row is copied — and
    /// any other input is copied into pool segments, one per worker.
    fn scatter(&mut self) -> Result<Scatter> {
        let shards = self.workers;
        let env = &self.env;
        let n_buckets = match &self.route {
            ParRoute::Interleave { n_buckets } => (*n_buckets).max(1),
            ParRoute::Merge { .. } => 0,
        };
        let mut bucket_nonempty = vec![false; n_buckets];
        let _span = env
            .trace
            .span_with("par", || format!("scatter shards={shards}"));
        let mut route = |h: u64| -> usize {
            if n_buckets == 0 {
                (h % shards as u64) as usize
            } else {
                let b = (h % n_buckets as u64) as usize;
                bucket_nonempty[b] = true;
                b % shards
            }
        };
        let mut out: Vec<Shard> = (0..shards).map(|_| Shard::default()).collect();
        while let Some(seg) = self.input.next_segment()? {
            // Every row is hashed once; charged once per segment.
            let n = seg.len();
            if let Some(table) = seg.shared_rows() {
                // The shard key read at the table's width; columns keep base
                // order under narrowing, so the values hash in the same
                // order as on the narrowed row.
                let base_attrs =
                    AttrSet::from_iter(self.shard_attrs.iter().map(|a| table.base_attr(a)));
                let mut idx: Vec<Vec<usize>> = vec![Vec::new(); shards];
                for (i, row) in table.base().iter().enumerate() {
                    let s = route(hash_row_on(row, &base_attrs));
                    idx[s].push(i);
                    out[s].bytes += table.narrowed_len(row);
                }
                for (shard, idx) in out.iter_mut().zip(idx) {
                    shard.seal()?;
                    if !idx.is_empty() {
                        let view = SegmentStore::shared_subset(table.clone(), idx);
                        shard.pieces.push(view);
                    }
                }
            } else {
                let (_, mut stream, _) = seg.into_stream();
                while let Some(row) = stream.next_row()? {
                    let shard = &mut out[route(hash_row_on(&row, &self.shard_attrs))];
                    shard.bytes += row.encoded_len();
                    shard
                        .building
                        .get_or_insert_with(|| env.store.builder())
                        .push(row)?;
                }
            }
            env.tracker.hash(n as u64);
        }
        for shard in &mut out {
            shard.seal()?;
        }
        Ok(Scatter {
            shards: out,
            bucket_nonempty,
        })
    }

    /// One environment per worker: a fresh tracker and a ledger sub-account
    /// of `M_w = ⌊M / workers⌋` blocks.
    fn shard_envs(&self) -> Vec<OpEnv> {
        let m_w = per_worker_blocks(self.env.mem_blocks, self.workers);
        (0..self.workers).map(|_| self.env.shard_env(m_w)).collect()
    }

    /// Phase 2: every worker runs the whole span chain over its shard on the
    /// scoped pool; then their trackers are absorbed in shard order and the
    /// first error, by shard index, is returned. A worker whose shard does
    /// not fit its budget parks its finished segments.
    fn run_workers(
        &self,
        shards: Vec<Shard>,
        shard_envs: &[OpEnv],
    ) -> Result<Vec<VecDeque<(SegmentHandle, SegmentBounds)>>> {
        let env = &self.env;
        let jobs: Vec<_> = shards
            .into_iter()
            .zip(shard_envs)
            .enumerate()
            .map(|(i, (shard, shard_env))| {
                let park = shard_env
                    .store
                    .budget_bytes()
                    .is_some_and(|b| shard.bytes > b);
                (i, (shard.pieces, park, shard_env.clone()))
            })
            .collect();
        let threads = resolve_threads(env, self.workers, self.workers);
        let chain = &self.chain;
        let finished = run_sharded(
            self.workers,
            threads,
            jobs,
            |i, (shard, park, shard_env)| {
                // Opened on the worker's OS thread → one timeline lane per
                // worker, with the whole in-worker chain nested beneath it.
                let _span = shard_env
                    .trace
                    .span_with("worker", || format!("chain_worker shard={i}"));
                run_worker(shard, park, chain, &shard_env)
            },
        );
        absorb_worker_trackers(env, shard_envs);
        finished
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Some(segs) => segs.map(VecDeque::from),
                None => Err(Error::Execution(format!(
                    "a parallel chain worker thread panicked (shard {i} unaccounted)"
                ))),
            })
            .collect()
    }

    /// Scatter, workers, and (for FS) the final merge — everything up to
    /// the first emission.
    fn run_span(&mut self) -> Result<ChainState> {
        self.env.store.begin_concurrent_phase();
        let Scatter {
            shards,
            bucket_nonempty,
        } = self.scatter()?;
        let env = &self.env;
        let total: usize = shards.iter().map(Shard::len).sum();
        if total == 0 {
            return Ok(ChainState::Done);
        }
        let shard_envs = self.shard_envs();
        let mut per_worker = self.run_workers(shards, &shard_envs)?;

        if let ParRoute::Merge { order } = &self.route {
            // FS head: merge the non-empty workers' finished rows on the
            // span's final ordering, re-recording exactly the boundary
            // layers every worker proved (their attribute sets agree by
            // construction; intersect defensively, in first-worker order).
            let mut handles: Vec<SegmentHandle> = Vec::new();
            let mut record: Option<Vec<AttrSet>> = None;
            for queue in per_worker {
                for (handle, bounds) in queue {
                    match &mut record {
                        None => {
                            record = Some(bounds.layers().iter().map(|l| l.attrs.clone()).collect())
                        }
                        Some(sets) => {
                            sets.retain(|a| bounds.layers().iter().any(|l| &l.attrs == a))
                        }
                    }
                    handles.push(handle);
                }
            }
            let key = SortKey::new(order);
            let merge_span = env.trace.span("par", "merge");
            let (out, bounds, n) =
                merge_sorted_handles(handles, &key, env, &record.unwrap_or_default())?;
            debug_assert_eq!(n, total, "merge must reassemble every scattered row");
            drop(merge_span);
            absorb_worker_stores(env, &shard_envs);
            let mut queue = VecDeque::new();
            queue.push_back((out, bounds));
            return Ok(ChainState::Emitting {
                queue,
                shard_envs: Vec::new(),
            });
        }

        // HS head: interleave the workers' finished buckets back into
        // ascending global bucket order. Worker `b % workers` emitted its
        // non-empty buckets ascending, and every stage is 1:1 per segment,
        // so the fronts line up exactly with the scatter's non-empty set.
        let mut queue = VecDeque::new();
        for (b, nonempty) in bucket_nonempty.iter().enumerate() {
            if *nonempty {
                let w = b % self.workers;
                let seg = per_worker[w].pop_front().ok_or_else(|| {
                    Error::Execution(format!(
                        "parallel chain bucket {b} missing from worker {w}'s output"
                    ))
                })?;
                queue.push_back(seg);
            }
        }
        debug_assert!(
            per_worker.iter().all(|q| q.is_empty()),
            "workers must emit exactly the scattered non-empty buckets"
        );
        Ok(ChainState::Emitting { queue, shard_envs })
    }
}

impl<I: Operator> Operator for ParallelChainOp<I> {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        if matches!(self.state, ChainState::Pending) {
            self.state = self.run_span()?;
        }
        match &mut self.state {
            ChainState::Pending => unreachable!("span ran above"),
            ChainState::Done => Ok(None),
            ChainState::Emitting { queue, shard_envs } => match queue.pop_front() {
                Some((handle, bounds)) => Ok(Some(Segment::from_handle(handle, bounds))),
                None => {
                    // The workers' handles are fully consumed — their
                    // sub-account peaks are final, fold them back. (An FS
                    // head already folded back at merge time and left the
                    // list empty.)
                    if !shard_envs.is_empty() {
                        absorb_worker_stores(&self.env, shard_envs);
                    }
                    self.state = ChainState::Done;
                    Ok(None)
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_sort::FullSortOp;
    use crate::hashed_sort::{HashedSortOp, HsOptions};
    use crate::operator::SegmentSource;
    use crate::segment::SegmentedRows;
    use crate::window::{WindowFunction, WindowOp};
    use wf_common::{row, AttrId, OrdElem, Row, SortSpec};

    fn key(ids: &[usize]) -> SortSpec {
        SortSpec::new(ids.iter().map(|&i| OrdElem::asc(AttrId::new(i))).collect())
    }
    fn aset(ids: &[usize]) -> AttrSet {
        AttrSet::from_iter(ids.iter().map(|&i| AttrId::new(i)))
    }
    fn sample(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                row![
                    (i * 37 % 23) as i64,
                    (i * 13 % 101) as i64,
                    i as i64,
                    "padding-padding-padding"
                ]
            })
            .collect()
    }

    #[test]
    fn helpers_clamp_sanely() {
        let env = OpEnv::with_memory_blocks(4).with_worker_threads(0);
        assert_eq!(resolve_threads(&env, 4, 4), 4);
        assert_eq!(resolve_threads(&env, 8, 4), 4, "clamped to shard count");
        let forced = env.with_worker_threads(2);
        assert_eq!(resolve_threads(&forced, 4, 4), 2);
        assert_eq!(per_worker_blocks(8, 4), 2);
        assert_eq!(per_worker_blocks(2, 4), 1, "floor one block");
        assert_eq!(per_worker_blocks(8, 0), 8);
    }

    /// Degenerate budgets and shard counts stay sane: a pool smaller than
    /// the worker count still grants every worker one block, and a zero
    /// shard count resolves to one thread instead of zero.
    #[test]
    fn helpers_survive_degenerate_budgets() {
        assert_eq!(per_worker_blocks(1, 4), 1, "M < workers floors at 1");
        assert_eq!(per_worker_blocks(0, 4), 1, "M = 0 floors at 1");
        assert_eq!(per_worker_blocks(0, 0), 1);
        let env = OpEnv::with_memory_blocks(4).with_worker_threads(0);
        assert_eq!(resolve_threads(&env, 4, 0), 1, "no shards → one thread");
        let forced = env.with_worker_threads(16);
        assert_eq!(resolve_threads(&forced, 2, 3), 3, "override clamps too");
    }

    /// The span of an FS head: a Full Sort on `(0, 1)` recording `record`,
    /// then `func` over `PARTITION BY 0 ORDER BY 1`.
    fn fs_chain(func: WindowFunction, record: Vec<AttrSet>) -> WorkerChain {
        Arc::new(move |source, env| {
            let fs = FullSortOp::new(source, key(&[0, 1]), env.clone())
                .with_recorded_prefixes(record.clone());
            Box::new(WindowOp::new(
                fs,
                aset(&[0]),
                key(&[1]),
                func.clone(),
                None,
                env.clone(),
            ))
        })
    }

    /// The span of an HS head: a Hashed Sort on column 0 into `n_buckets`
    /// global buckets, emitted in ascending id, then `func` over
    /// `PARTITION BY 0 ORDER BY 1`.
    fn hs_chain(n_buckets: usize, func: WindowFunction) -> WorkerChain {
        Arc::new(move |source, env| {
            let opts = HsOptions {
                n_buckets,
                mfv_values: Vec::new(),
                stable_emission: true,
            };
            let hs = HashedSortOp::new(source, aset(&[0]), key(&[0, 1]), opts, env.clone());
            Box::new(WindowOp::new(
                hs,
                aset(&[0]),
                key(&[1]),
                func.clone(),
                None,
                env.clone(),
            ))
        })
    }

    fn merge_on_01() -> ParRoute {
        ParRoute::Merge {
            order: key(&[0, 1]),
        }
    }

    /// A one-stage FS span over `rows` in `env`: shard on column 0, sort on
    /// `(0, 1)`, rank inside the workers. Returns rows and boundary layers.
    fn run_rank_span(
        rows: Vec<Row>,
        env: &OpEnv,
    ) -> (Vec<Row>, Vec<crate::segment::BoundaryLayer>) {
        let mut op = ParallelChainOp::new(
            SegmentSource::new(SegmentedRows::single_segment(rows), env),
            merge_on_01(),
            aset(&[0]),
            4,
            fs_chain(WindowFunction::Rank, vec![aset(&[0])]),
            env.clone(),
        );
        let seg = op.next_segment().unwrap().unwrap();
        assert!(op.next_segment().unwrap().is_none(), "blocking single emit");
        let layers = seg.bounds.layers().to_vec();
        (seg.into_rows().unwrap(), layers)
    }

    /// Thread count changes nothing but wall clock: rows, boundary layers,
    /// modeled counters and pool counters are identical across overrides.
    #[test]
    fn thread_count_is_invisible_to_counters() {
        let rows = sample(2500);
        let run = |threads: usize| {
            let env = OpEnv::with_memory_blocks(2).with_worker_threads(threads);
            let out = run_rank_span(rows.clone(), &env);
            let pool = env.store.snapshot();
            (
                out,
                env.tracker.snapshot(),
                (pool.spill_blocks_written, pool.peak_resident_bytes),
            )
        };
        let reference = run(1);
        assert!(reference.2 .0 > 0, "a 2-block pool must spill");
        for threads in [2usize, 4] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    /// Bounded vs unbounded pool: identical rows, layers and modeled
    /// counters — the parallel path preserves the store invariant.
    #[test]
    fn bounded_and_unbounded_pools_agree() {
        let rows = sample(2000);
        let env_b = OpEnv::with_memory_blocks(2);
        let env_u = OpEnv::with_memory_blocks(2).with_unbounded_pool();
        assert_eq!(
            run_rank_span(rows.clone(), &env_b),
            run_rank_span(rows, &env_u)
        );
        assert_eq!(env_b.tracker.snapshot(), env_u.tracker.snapshot());
        assert_eq!(env_u.store.snapshot().spill_blocks_written, 0);
    }

    /// Rows with heavy ties on the sort key `(0, 1)` and a distinguishing
    /// payload column: stability violations show up as row-order diffs.
    fn tied_sample(n: usize) -> Vec<Row> {
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = state >> 16;
                row![(r % 24) as i64, ((r >> 8) % 50) as i64, (r >> 16) as i64]
            })
            .collect()
    }

    /// Tie order within equal sort keys survives the span: scatter, the
    /// in-worker stable sort, the in-worker window and the merge all
    /// preserve arrival order, matching the serial chain row-for-row.
    #[test]
    fn fs_chain_span_preserves_tie_order() {
        let rows = tied_sample(4000);
        let env = OpEnv::with_memory_blocks(4);
        let serial = serial_fs_chain(rows.clone(), &env);
        for workers in [2usize, 4] {
            let env_p = OpEnv::with_memory_blocks(2);
            let mut op = ParallelChainOp::new(
                SegmentSource::new(SegmentedRows::single_segment(rows.clone()), &env_p),
                merge_on_01(),
                aset(&[0]),
                workers,
                fs_chain(WindowFunction::Rank, vec![aset(&[0]), aset(&[0, 1])]),
                env_p.clone(),
            );
            let seg = op.next_segment().unwrap().unwrap();
            let out = seg.into_rows().unwrap();
            assert_eq!(out, serial[0].0, "workers={workers}");
        }

        // Same probe through the one-pass (staged) window path: a running
        // sum over the SQL-default frame.
        let serial_sum = {
            let env = OpEnv::with_memory_blocks(4);
            let fs = FullSortOp::new(
                SegmentSource::new(SegmentedRows::single_segment(rows.clone()), &env),
                key(&[0, 1]),
                env.clone(),
            )
            .with_recorded_prefixes(vec![aset(&[0]), aset(&[0, 1])]);
            let mut win = WindowOp::new(
                fs,
                aset(&[0]),
                key(&[1]),
                WindowFunction::Sum(AttrId::new(2)),
                None,
                env.clone(),
            );
            let mut out = Vec::new();
            while let Some(seg) = win.next_segment().unwrap() {
                out.extend(seg.into_rows().unwrap());
            }
            out
        };
        for workers in [2usize, 4] {
            let env_p = OpEnv::with_memory_blocks(2);
            let mut op = ParallelChainOp::new(
                SegmentSource::new(SegmentedRows::single_segment(rows.clone()), &env_p),
                merge_on_01(),
                aset(&[0]),
                workers,
                fs_chain(
                    WindowFunction::Sum(AttrId::new(2)),
                    vec![aset(&[0]), aset(&[0, 1])],
                ),
                env_p.clone(),
            );
            let mut out = Vec::new();
            while let Some(seg) = op.next_segment().unwrap() {
                out.extend(seg.into_rows().unwrap());
            }
            assert_eq!(out, serial_sum, "sum workers={workers}");
        }
    }

    fn serial_fs_chain(
        rows: Vec<Row>,
        env: &OpEnv,
    ) -> Vec<(Vec<Row>, Vec<crate::segment::BoundaryLayer>)> {
        let fs = FullSortOp::new(
            SegmentSource::new(SegmentedRows::single_segment(rows), env),
            key(&[0, 1]),
            env.clone(),
        )
        .with_recorded_prefixes(vec![aset(&[0]), aset(&[0, 1])]);
        let mut win = WindowOp::new(
            fs,
            aset(&[0]),
            key(&[1]),
            WindowFunction::Rank,
            None,
            env.clone(),
        );
        let mut out = Vec::new();
        while let Some(seg) = win.next_segment().unwrap() {
            let layers = seg.bounds.layers().to_vec();
            out.push((seg.into_rows().unwrap(), layers));
        }
        out
    }

    /// FS-head chain span: rows *and* boundary layers equal the serial
    /// FS → Window chain's, for every worker count — including workers
    /// exceeding the distinct shard values and a pool smaller than the
    /// worker count.
    #[test]
    fn fs_chain_span_matches_serial_chain() {
        let rows = sample(2_000);
        let env = OpEnv::with_memory_blocks(4);
        let serial = serial_fs_chain(rows.clone(), &env);
        assert_eq!(serial.len(), 1, "FS chain emits one segment");
        for (workers, m) in [(1usize, 4u64), (2, 4), (4, 4), (4, 2), (31, 4)] {
            let env_p = OpEnv::with_memory_blocks(m);
            let mut op = ParallelChainOp::new(
                SegmentSource::new(SegmentedRows::single_segment(rows.clone()), &env_p),
                merge_on_01(),
                aset(&[0]),
                workers,
                fs_chain(WindowFunction::Rank, vec![aset(&[0]), aset(&[0, 1])]),
                env_p.clone(),
            );
            let seg = op.next_segment().unwrap().unwrap();
            let layers = seg.bounds.layers().to_vec();
            let out = seg.into_rows().unwrap();
            assert!(op.next_segment().unwrap().is_none());
            assert_eq!(out, serial[0].0, "workers={workers} M={m}");
            assert_eq!(layers, serial[0].1, "workers={workers} M={m}");
        }
    }

    /// HS-head chain span: one finished bucket per pull in ascending global
    /// bucket order — the exact same segments whatever the worker count,
    /// and the same rows (as a multiset, per bucket) as the serial
    /// HS → Window chain.
    #[test]
    fn hs_chain_span_is_worker_count_invariant() {
        let rows = sample(2_000);
        let n_buckets = 16usize;

        // Serial chain, stable emission so bucket order is comparable.
        let env_s = OpEnv::with_memory_blocks(4);
        let hs = HashedSortOp::new(
            SegmentSource::new(SegmentedRows::single_segment(rows.clone()), &env_s),
            aset(&[0]),
            key(&[0, 1]),
            HsOptions {
                n_buckets,
                mfv_values: Vec::new(),
                stable_emission: true,
            },
            env_s.clone(),
        );
        let mut win = WindowOp::new(
            hs,
            aset(&[0]),
            key(&[1]),
            WindowFunction::Rank,
            None,
            env_s.clone(),
        );
        let mut serial = Vec::new();
        while let Some(seg) = win.next_segment().unwrap() {
            serial.push(seg.into_rows().unwrap());
        }

        for workers in [1usize, 2, 4] {
            let env_p = OpEnv::with_memory_blocks(4);
            let mut op = ParallelChainOp::new(
                SegmentSource::new(SegmentedRows::single_segment(rows.clone()), &env_p),
                ParRoute::Interleave { n_buckets },
                aset(&[0]),
                workers,
                hs_chain(n_buckets, WindowFunction::Rank),
                env_p.clone(),
            );
            let mut par = Vec::new();
            while let Some(seg) = op.next_segment().unwrap() {
                par.push(seg.into_rows().unwrap());
            }
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    /// Leaf yielding prepared segments in order.
    struct Segments(VecDeque<Segment>);

    impl Operator for Segments {
        fn next_segment(&mut self) -> Result<Option<Segment>> {
            Ok(self.0.pop_front())
        }
    }

    /// An input that is partly a table's shared view and partly pool rows
    /// reaches each worker in input order: by-index views and pool segments
    /// interleave as they arrived, so the stable in-worker sort breaks ties
    /// exactly as the serial sort does.
    #[test]
    fn mixed_input_keeps_arrival_order_in_every_shard() {
        let rows = tied_sample(3000);
        let (head, tail) = rows.split_at(1000);
        for workers in [2usize, 4] {
            let env = OpEnv::with_memory_blocks(4);
            let input = Segments(VecDeque::from([
                Segment::from_handle(
                    SegmentStore::shared(Arc::new(head.to_vec()).into()),
                    SegmentBounds::none(),
                ),
                Segment::from_handle(
                    env.store.admit(tail.to_vec()).unwrap(),
                    SegmentBounds::none(),
                ),
                Segment::from_handle(
                    SegmentStore::shared(Arc::new(head.to_vec()).into()),
                    SegmentBounds::none(),
                ),
            ]));
            let mut want = rows.clone();
            want.extend_from_slice(head);
            let mut op = ParallelChainOp::new(
                input,
                merge_on_01(),
                aset(&[0]),
                workers,
                fs_chain(WindowFunction::Rank, vec![aset(&[0]), aset(&[0, 1])]),
                env.clone(),
            );
            let out = op.next_segment().unwrap().unwrap().into_rows().unwrap();
            assert_eq!(out, serial_fs_chain(want, &env)[0].0, "workers={workers}");
            drop(op);
            assert_eq!(env.store.snapshot().resident_bytes, 0);
        }
    }

    /// A worker that fails partway through its buckets leaks nothing: the
    /// span returns the typed error, and once it is dropped no ledger holds
    /// a byte and the spill backend holds no object — neither the segments
    /// the workers had parked nor anything of the shards.
    #[test]
    fn a_worker_error_mid_span_leaks_nothing() {
        use wf_common::{DataType, Schema};
        use wf_storage::{LocalFileBackend, SpillConfig, Table};

        let n_buckets = 16usize;
        let bucket_of = |r: &Row| (hash_row_on(r, &aset(&[0])) % n_buckets as u64) as usize;
        let mut rows: Vec<Row> = (0..4000)
            .map(|i| {
                row![
                    (i * 7 % 64) as i64,
                    (i / 64) as i64,
                    i as i64,
                    "padding-padding-padding"
                ]
            })
            .collect();
        // `sum(v)` fails on the partition of the last bucket only, so the
        // worker owning it has parked its earlier buckets by then.
        let last = rows.iter().map(bucket_of).max().unwrap();
        let bad = rows
            .iter()
            .find(|r| bucket_of(r) == last)
            .unwrap()
            .get(AttrId::new(0))
            .clone();
        for r in rows.iter_mut().filter(|r| *r.get(AttrId::new(0)) == bad) {
            *r = row![bad.clone(), 0i64, "not a number", "padding-padding-padding"];
        }
        let schema = Schema::of(&[
            ("p", DataType::Int),
            ("k", DataType::Int),
            ("v", DataType::Int),
            ("pad", DataType::Str),
        ]);
        let table = Table::from_rows(schema, rows).unwrap();

        let dir = std::env::temp_dir().join(format!("wfopt-par-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = SpillConfig {
            backend: LocalFileBackend::in_dir(dir.clone()),
            compress: false,
            prefetch_blocks: 0,
        };
        // M_w = 4 blocks: each bucket fits, no shard does.
        let env = OpEnv::with_memory_blocks(8).with_spill(cfg.clone());
        let span = || {
            ParallelChainOp::new(
                crate::operator::TableScan::new(&table, env.clone()),
                ParRoute::Interleave { n_buckets },
                aset(&[0]),
                2,
                hs_chain(n_buckets, WindowFunction::Sum(AttrId::new(2))),
                env.clone(),
            )
        };
        let is_type_mismatch = |e: &Error| matches!(e, Error::TypeMismatch { .. });

        // Through the operator interface.
        let mut op = span();
        let err = op.next_segment().unwrap_err();
        assert!(is_type_mismatch(&err), "{err:?}");
        drop(op);
        assert_eq!(env.store.snapshot().resident_bytes, 0);
        assert_eq!(cfg.stats().live_objects, 0);

        // Phase by phase, to read every worker's ledger after the failure.
        let mut op = span();
        let scatter = op.scatter().unwrap();
        let shard_envs = op.shard_envs();
        let err = op.run_workers(scatter.shards, &shard_envs).unwrap_err();
        assert!(is_type_mismatch(&err), "{err:?}");
        let parked: u64 = shard_envs
            .iter()
            .map(|e| e.store.snapshot().spilled_segments)
            .sum();
        assert!(parked > 0, "buckets were parked before the error");
        drop(op);
        for (i, e) in shard_envs.iter().enumerate() {
            assert_eq!(e.store.snapshot().resident_bytes, 0, "worker {i}");
        }
        assert_eq!(env.store.snapshot().resident_bytes, 0);
        assert_eq!(cfg.stats().live_objects, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chain_span_empty_input_yields_nothing() {
        let env = OpEnv::with_memory_blocks(2);
        let mut op = ParallelChainOp::new(
            SegmentSource::new(SegmentedRows::empty(), &env),
            merge_on_01(),
            aset(&[0]),
            4,
            fs_chain(WindowFunction::Rank, vec![]),
            env,
        );
        assert!(op.next_segment().unwrap().is_none());
    }
}
