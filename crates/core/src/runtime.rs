//! Plan execution: compiles a [`Plan`] into a chained tree of pull-based
//! [`Operator`]s and drives it **one segment at a time**.
//!
//! One reorder operator per reordering step, one window operator per
//! **window group** — a step plus every directly following step that is
//! matched on its `(WPK, WOK)` ([`window_group_len`]): once the relation
//! matches, every function on those keys evaluates off the one reordered
//! relation. The chain for `ws HS→ f1 → f2 → f3 FS→ g1` is
//!
//! ```text
//! TableScan → HashedSortOp → WindowOp{f1, f2, f3} → FullSortOp → WindowOp{g1}
//! ```
//!
//! and the driver pulls segments off the last operator: after a Hashed Sort,
//! each bucket flows through window evaluation while the remaining buckets
//! are still unsorted — the paper's complete-partition pipelining (§3.2/3.3)
//! rather than fully-materialized hand-offs between steps.
//!
//! This module is the one place a plan becomes operators. A `PAR→` span's
//! workers run chains built by the same group lowering as serial steps
//! (the scheduler only scatters, runs and reassembles them), and the
//! statement's tail joins the chain: when the chain's output does not
//! satisfy the final ORDER BY, a `SegmentedSortOp` (a satisfied prefix) or
//! `FullSortOp` sorts it as the last step, and rows take their output
//! columns — SELECT order, then the projection — as they leave.
//!
//! Cost attribution: every reorder-plus-group subtree is wrapped in a
//! `Metered` shim that charges the shared tracker delta of each pull to its
//! slots, minus whatever nested upstream slots charged during the same pull
//! — so the per-step breakdown in [`ExecReport::step_metrics`] is exact even though
//! the steps' work interleaves in time. The report keeps **one slot per plan
//! step** (plus one for the final sort): work and wall of a group (as of a
//! `PAR→` span) are not separable per function and land on the head's slot,
//! while every member slot counts the rows and segments that flowed through
//! it. Totals are unchanged from the batch executor: the operators charge
//! the identical counters.

use crate::plan::{
    par_shard_attrs, par_span_len, step_label, window_group_len, FinalOrder, Plan, PlanStep,
    ReorderOp,
};
use crate::spec::WindowSpec;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wf_common::{AttrId, Error, Field, Result, Row, TraceSink};
use wf_exec::{
    FilterOp, FullSortOp, HashedSortOp, HsOptions, OpEnv, Operator, ParRoute, ParallelChainOp,
    Segment, SegmentedSortOp, TableScan, WindowOp, WorkerChain,
};
use wf_storage::{CostSnapshot, CostTracker, CostWeights, StoreSnapshot, Table, BLOCK_SIZE};

/// Execution environment: unit reorder memory, spill backend, cost weights.
#[derive(Clone)]
pub struct ExecEnv {
    op_env: OpEnv,
    weights: CostWeights,
    /// Worker budget the planners may spend on `ReorderOp::Par` nodes
    /// (shard count of emitted parallel reorders). `1` keeps plans serial.
    /// Defaults from the `WF_WORKERS` environment variable (unset → 1) so a
    /// CI matrix can force parallel planning across a whole suite; pin with
    /// [`ExecEnv::with_par_workers`] where plans must stay reproducible.
    par_workers: usize,
}

impl ExecEnv {
    /// Environment with the given unit reorder memory (in blocks), a fresh
    /// tracker and the environment-selected spill backend (in-memory by
    /// default).
    pub fn with_memory_blocks(blocks: u64) -> Self {
        let op_env = OpEnv::with_memory_blocks(blocks);
        ExecEnv {
            par_workers: op_env.worker_threads.max(1),
            op_env,
            weights: CostWeights::default(),
        }
    }

    /// Environment running inside a **caller-provided segment store** — the
    /// serving path: the admission governor budgets each admitted query with
    /// a pooled sub-account of the shared store, and this constructor turns
    /// that account into a full execution environment (`M` derived from the
    /// account's budget, fresh tracker).
    pub fn with_store(store: Arc<wf_storage::SegmentStore>) -> Self {
        let op_env = OpEnv::with_store(store);
        ExecEnv {
            par_workers: op_env.worker_threads.max(1),
            op_env,
            weights: CostWeights::default(),
        }
    }

    /// Same environment with the planner worker budget pinned (shares the
    /// tracker and store).
    pub fn with_par_workers(&self, workers: usize) -> Self {
        ExecEnv {
            par_workers: workers.max(1),
            ..self.clone()
        }
    }

    /// Worker budget for parallel planning (≥ 1).
    pub fn par_workers(&self) -> usize {
        self.par_workers
    }

    /// Same environment with the executor's worker-thread override pinned
    /// (see `wf_exec::OpEnv::worker_threads`); plan shapes are unaffected.
    pub fn with_worker_threads(&self, threads: usize) -> Self {
        ExecEnv {
            op_env: self.op_env.with_worker_threads(threads),
            ..self.clone()
        }
    }

    /// Memory budget in blocks (the paper's `M`).
    pub fn mem_blocks(&self) -> u64 {
        self.op_env.mem_blocks
    }

    /// The shared work counters.
    pub fn tracker(&self) -> &Arc<CostTracker> {
        &self.op_env.tracker
    }

    /// Time-model weights.
    pub fn weights(&self) -> CostWeights {
        self.weights
    }

    /// The operator-level environment.
    pub fn op_env(&self) -> &OpEnv {
        &self.op_env
    }

    /// Same environment with a different memory budget (shares the
    /// tracker).
    pub fn with_blocks(&self, blocks: u64) -> Self {
        ExecEnv {
            op_env: self.op_env.with_blocks(blocks),
            ..self.clone()
        }
    }

    /// Same environment with a different spill configuration (backend,
    /// compression, read-ahead); rows and all counters are invariant under
    /// this knob — only wall time may move.
    pub fn with_spill(&self, spill: wf_storage::SpillConfig) -> Self {
        ExecEnv {
            op_env: self.op_env.with_spill(spill),
            ..self.clone()
        }
    }

    /// Same environment with an unbounded segment pool — the pre-store
    /// pipeline's residency behaviour, used as the reference side of the
    /// residency equivalence suite.
    pub fn with_unbounded_pool(&self) -> Self {
        ExecEnv {
            op_env: self.op_env.with_unbounded_pool(),
            ..self.clone()
        }
    }

    /// Residency and pool-spill statistics of this environment's segment
    /// store.
    pub fn store_snapshot(&self) -> StoreSnapshot {
        self.op_env.store.snapshot()
    }

    /// Same environment with the given span recorder attached: operators,
    /// sorter phases, scheduler workers and the segment store all record
    /// wall-clock spans on it. Tracing only reads the clock — rows, modeled
    /// counters and pool counters are bit-identical with it on or off.
    pub fn with_trace(&self, trace: Arc<TraceSink>) -> Self {
        ExecEnv {
            op_env: self.op_env.with_trace(trace),
            ..self.clone()
        }
    }

    /// The environment's span recorder (the shared no-op sink by default).
    pub fn trace(&self) -> &Arc<TraceSink> {
        &self.op_env.trace
    }
}

/// Result of executing a plan.
#[derive(Debug)]
pub struct ExecReport {
    /// The statement's result: the windowed table with one appended column
    /// per function in SELECT order, sorted on the plan's final ORDER BY
    /// and cut to its projection.
    pub table: Table,
    /// Work performed by this execution (tracker delta).
    pub work: CostSnapshot,
    /// Modeled execution time under the environment's weights.
    pub modeled_ms: f64,
    /// Wall-clock time (secondary metric; the simulated device makes I/O
    /// free in wall time).
    pub wall: Duration,
    /// Per-step execution metrics in chain order: slot 0 is the table scan
    /// plus any WHERE filter, slot `k + 1` is plan step `k`, and a last
    /// slot (`FS→ ORDER BY` / `SS→ ORDER BY`) is the final ORDER BY's sort
    /// when the chain's output does not already satisfy it. Each carries
    /// the modeled work counters and the measured side — own wall time,
    /// rows and segments emitted — that EXPLAIN ANALYZE compares them
    /// against.
    pub step_metrics: Vec<StepMetrics>,
    /// Peak resident pool blocks per parallel worker shard, recorded when
    /// scheduler phases absorb their workers (empty for serial plans).
    pub worker_peak_blocks: Vec<u64>,
    /// Segment-store residency and pool-spill statistics for this
    /// execution (peak resident bytes/rows, pool blocks moved). Pool
    /// traffic never enters `work` or `modeled_ms` — see
    /// `wf_storage::segstore`.
    pub store: StoreSnapshot,
    /// Per-step residency class of the window evaluation (`(label, class)`
    /// in chain order): which spilled-segment streaming discipline the
    /// step's `WindowOp` dispatches to — one-pass (`O(M)`), ring-buffer
    /// (`O(M + frame)`) or buffered (`O(M + partition)`). Resident
    /// segments always take the materialized path; the class governs what
    /// the store's high-water mark may charge to this step.
    pub eval_classes: Vec<(String, wf_exec::StreamableEval)>,
}

impl ExecReport {
    /// The weakest residency class across the chain — what bounds the
    /// execution's window-evaluation residency when calls of different
    /// classes mix.
    pub fn weakest_eval_class(&self) -> wf_exec::StreamableEval {
        wf_exec::StreamableEval::weakest(self.eval_classes.iter().map(|(_, c)| *c))
    }
}

/// One chain step's measured execution metrics (see
/// [`ExecReport::step_metrics`]).
#[derive(Debug, Clone)]
pub struct StepMetrics {
    /// Report label (`scan+filter` for slot 0, `ARROW name` per plan step).
    pub label: String,
    /// Modeled work counters attributed to this step.
    pub work: CostSnapshot,
    /// Wall time attributed to this step (elapsed in its pulls minus what
    /// nested upstream steps spent during the same pulls).
    pub wall: Duration,
    /// Rows this step emitted downstream.
    pub rows: u64,
    /// Segments this step emitted downstream.
    pub segments: u64,
    /// Residency class of the step's window evaluation (`None` for the
    /// scan slot).
    pub eval_class: Option<wf_exec::StreamableEval>,
}

/// One slot of per-step execution accounting: the modeled work counters
/// plus the measured side EXPLAIN ANALYZE compares them against (own wall
/// time, rows and segments emitted).
#[derive(Clone, Copy, Default)]
struct StepExec {
    work: CostSnapshot,
    wall: Duration,
    rows: u64,
    segments: u64,
}

/// Shared per-step accounting. Slot 0 is the table scan; slot `k + 1`
/// is plan step `k` (its reorder plus its window evaluation).
type MeterCells = Rc<RefCell<Vec<StepExec>>>;

/// Wraps the operator subtree of one step — or of the run of steps one
/// operator evaluates together (a window group, a `PAR→` span) — and
/// attributes tracker deltas to its slots. Because pulls recurse into
/// upstream (already-metered) operators, the shim subtracts whatever
/// upstream slots accumulated during the same pull — the remainder is
/// exactly these steps' own work. Wall time is attributed the same way
/// (elapsed minus upstream wall), and each pull is wrapped in a `step` span
/// so the timeline shows the chain's nesting; neither touches the tracker,
/// so tracing never changes modeled counters.
///
/// Work and wall inside one operator are not separable per step: they land
/// on the head's slot (`slots.start`), while every covered slot counts the
/// rows and segments that flowed through it.
struct Metered<O> {
    inner: O,
    tracker: Arc<CostTracker>,
    cells: MeterCells,
    slots: std::ops::Range<usize>,
    label: Rc<str>,
    trace: Arc<TraceSink>,
}

impl<O> Metered<O> {
    fn new(
        inner: O,
        tracker: Arc<CostTracker>,
        cells: MeterCells,
        slots: std::ops::Range<usize>,
        label: Rc<str>,
        trace: Arc<TraceSink>,
    ) -> Self {
        Metered {
            inner,
            tracker,
            cells,
            slots,
            label,
            trace,
        }
    }

    fn upstream_sum(&self) -> (CostSnapshot, Duration) {
        self.cells.borrow()[..self.slots.start].iter().fold(
            (CostSnapshot::default(), Duration::ZERO),
            |(work, wall), c| (work.plus(&c.work), wall + c.wall),
        )
    }
}

impl<O: Operator> Operator for Metered<O> {
    fn next_segment(&mut self) -> Result<Option<Segment>> {
        let _span = self.trace.span_with("step", || self.label.to_string());
        let (upstream_before, upstream_wall_before) = self.upstream_sum();
        let before = self.tracker.snapshot();
        let start = Instant::now();
        let result = self.inner.next_segment();
        let elapsed = start.elapsed();
        let delta = self.tracker.snapshot().since(&before);
        let (upstream_after, upstream_wall_after) = self.upstream_sum();
        let upstream_delta = upstream_after.since(&upstream_before);
        let own = delta.since(&upstream_delta);
        let own_wall = elapsed.saturating_sub(upstream_wall_after - upstream_wall_before);
        let mut cells = self.cells.borrow_mut();
        let head = &mut cells[self.slots.start];
        head.work = head.work.plus(&own);
        head.wall += own_wall;
        if let Ok(Some(seg)) = &result {
            for slot in &mut cells[self.slots.clone()] {
                slot.rows += seg.len() as u64;
                slot.segments += 1;
            }
        }
        result
    }
}

/// Compile a plan into its operator chain over `table`: the scan (and
/// filter), every window group behind its reorder, every `PAR→` span, and
/// the sort the final ORDER BY needs, each behind its `Metered` shim.
/// Returns the chain's sink plus where each output column (base columns,
/// then one per window function in SELECT order) sits in the chain's rows:
/// the chain evaluates window functions in its own order.
fn build_chain<'a>(
    plan: &Plan,
    table: &'a Table,
    base_len: usize,
    env: &ExecEnv,
    cells: &MeterCells,
) -> Result<(Box<dyn Operator + 'a>, Vec<usize>)> {
    let specs = &plan.specs;
    // Slot 0 is the scan plus the WHERE filter (when the plan carries one):
    // filtering streams through the scan's segments before any reorder, and
    // a narrowed scan's rows leave the filter at the narrowed width. Rows
    // leave the scan with room for one value per window function, so the
    // steps below push into them without reallocating.
    let mut scan = TableScan::new(table, env.op_env().clone()).with_spare(specs.len());
    if let Some(columns) = &plan.scan_columns {
        scan = scan.with_columns(columns);
    }
    // The statement's store: the env's account, whose spill files (and its
    // `PAR→` workers') write a row cloned from the scan's view as its index
    // and appended columns. Each file holds the view, so the rows its
    // references name stay readable for as long as it does.
    let op_env = &OpEnv {
        store: env.op_env().store.with_view(scan.view()),
        ..env.op_env().clone()
    };
    let meter = |op: Box<dyn Operator + 'a>, slots: std::ops::Range<usize>, label: String| {
        Box::new(Metered::new(
            op,
            Arc::clone(env.tracker()),
            Rc::clone(cells),
            slots,
            Rc::from(label),
            Arc::clone(&op_env.trace),
        )) as Box<dyn Operator + 'a>
    };
    let source: Box<dyn Operator + 'a> = match &plan.filter {
        Some(pred) => Box::new(FilterOp::new(scan, pred.clone(), op_env.clone())),
        None => Box::new(scan),
    };
    let mut op = meter(source, 0..1, "scan+filter".to_string());
    let mut eval_order: Vec<usize> = Vec::with_capacity(plan.steps.len());
    let mut k = 0;
    while k < plan.steps.len() {
        let step = &plan.steps[k];
        // One shim per window group or `PAR→` span keeps the report at one
        // entry per plan step: work inside one operator is not separable
        // per function.
        let len = match &step.reorder {
            ReorderOp::Par { inner, workers } => {
                let span = par_span_len(&plan.steps, specs, k);
                op = Box::new(par_span(op, plan, k..k + span, inner, *workers, op_env)?);
                span
            }
            reorder => {
                let len = window_group_len(&plan.steps, specs, k);
                op = lower_group(op, reorder, &plan.steps[k..k + len], specs, op_env, false);
                len
            }
        };
        op = meter(op, k + 1..k + 1 + len, step_label(step, specs));
        eval_order.extend(plan.steps[k..k + len].iter().map(|s| s.wf));
        k += len;
    }

    // Output column `j` of the SELECT order sits in chain column
    // `chain_col[j]`: base columns stay put, window columns follow the
    // evaluation order.
    let mut chain_col: Vec<usize> = (0..base_len + specs.len()).collect();
    for (slot, &wf) in eval_order.iter().enumerate() {
        chain_col[base_len + wf] = base_len + slot;
    }
    // The final ORDER BY sorts the chain's rows where they are, on keys
    // remapped to the chain's columns: the last metered step.
    if let (Some(order), Some(label)) = (&plan.order_by, plan.final_order.label()) {
        let order = order.map_attrs(|a| AttrId::new(chain_col[a.index()]));
        op = match plan.final_order {
            FinalOrder::PartialSort { prefix_len } => Box::new(SegmentedSortOp::new(
                op,
                order.prefix(prefix_len),
                order.suffix(prefix_len),
                op_env.clone(),
            )),
            _ => Box::new(FullSortOp::new(op, order, op_env.clone())),
        };
        let slot = cells.borrow().len();
        cells.borrow_mut().push(StepExec::default());
        op = meter(op, slot..slot + 1, label.to_string());
    }
    Ok((op, chain_col))
}

/// Lower one window group: `reorder` in front of the group's head step,
/// then one window operator evaluating the head and every matched member
/// off the one reordered relation. The serial chain and every `PAR→`
/// worker build their steps here; `stable_buckets` makes a Hashed Sort
/// emit its buckets in ascending id, which a worker's output needs for
/// the interleave ([`ParRoute::Interleave`]).
fn lower_group<'a>(
    op: Box<dyn Operator + 'a>,
    reorder: &ReorderOp,
    group: &[PlanStep],
    specs: &[WindowSpec],
    env: &OpEnv,
    stable_buckets: bool,
) -> Box<dyn Operator + 'a> {
    let spec = &specs[group[0].wf];
    // Sort-key prefixes whose boundary layers FS/HS record for free during
    // their final merge: the partition key and the partition ∪ order key
    // (peer groups) — exactly what this group's window evaluation (and any
    // matched-prefix successor) starts from.
    let mut record = Vec::new();
    if !spec.wpk().is_empty() {
        record.push(spec.wpk().clone());
    }
    let union = spec.wpk().union(&spec.wok().attr_set());
    if !union.is_empty() && Some(&union) != record.first() {
        record.push(union);
    }
    let op: Box<dyn Operator + 'a> = match reorder {
        ReorderOp::None => op,
        ReorderOp::Fs { key } => {
            Box::new(FullSortOp::new(op, key.clone(), env.clone()).with_recorded_prefixes(record))
        }
        ReorderOp::Hs {
            whk,
            key,
            n_buckets,
            mfv,
        } => {
            let opts = HsOptions {
                n_buckets: *n_buckets,
                mfv_values: mfv.clone(),
                stable_emission: stable_buckets,
            };
            Box::new(
                HashedSortOp::new(op, whk.clone(), key.clone(), opts, env.clone())
                    .with_recorded_prefixes(record),
            )
        }
        ReorderOp::Ss { alpha, beta } => Box::new(SegmentedSortOp::new(
            op,
            alpha.clone(),
            beta.clone(),
            env.clone(),
        )),
        ReorderOp::Par { .. } => unreachable!("PAR→ spans are lowered by par_span"),
    };
    Box::new(WindowOp::group(
        op,
        spec.wpk().clone(),
        spec.wok().clone(),
        group
            .iter()
            .map(|s| (specs[s.wf].func.clone(), specs[s.wf].frame))
            .collect(),
        env.clone(),
    ))
}

/// A `PAR→` span over plan steps `span`: shard on the head's scatter key,
/// and in each worker run the head's `inner` reorder and every window group
/// of the span, lowered by [`lower_group`]. The inner reorder decides how
/// finished rows come back: a Full Sort merges on the order the span's rows
/// end in, a Hashed Sort interleaves its buckets. Any other inner — or a
/// Hashed Sort with MFV values, whose extra leading segment the interleave
/// cannot place — is a malformed plan (`finalize_chain` never emits one).
fn par_span<'a>(
    input: Box<dyn Operator + 'a>,
    plan: &Plan,
    span: std::ops::Range<usize>,
    inner: &ReorderOp,
    workers: usize,
    env: &OpEnv,
) -> Result<ParallelChainOp<Box<dyn Operator + 'a>>> {
    let steps = plan.steps[span.clone()].to_vec();
    let route = match inner {
        ReorderOp::Fs { key } => ParRoute::Merge {
            order: steps
                .iter()
                .rev()
                .find_map(|s| match &s.reorder {
                    ReorderOp::Ss { alpha, beta } => Some(alpha.concat(beta)),
                    _ => None,
                })
                .unwrap_or_else(|| key.clone()),
        },
        ReorderOp::Hs { n_buckets, mfv, .. } if mfv.is_empty() => ParRoute::Interleave {
            n_buckets: *n_buckets,
        },
        other => {
            return Err(Error::Planning(format!(
                "a PAR→ span needs a Full Sort or a Hashed Sort without MFV values at its \
                 head, not {other:?}"
            )))
        }
    };
    let shard = par_shard_attrs(&plan.steps[span.start], &plan.specs);
    let (specs, head) = (plan.specs.clone(), inner.clone());
    let chain: WorkerChain = Arc::new(move |source, env| {
        let mut op = source;
        let mut i = 0;
        while i < steps.len() {
            let len = window_group_len(&steps, &specs, i);
            let reorder = if i == 0 { &head } else { &steps[i].reorder };
            op = lower_group(op, reorder, &steps[i..i + len], &specs, env, true);
            i += len;
        }
        op
    });
    Ok(ParallelChainOp::new(
        input,
        route,
        shard,
        workers,
        chain,
        env.clone(),
    ))
}

/// How a chain row becomes an output row: output column `j` is chain
/// column `columns[j]` — the evaluation-order permutation and the
/// projection in one map, worked out once per statement. A permutation of
/// every column swaps values in place (the identity: none), anything else
/// builds each row from the values it picks.
enum ColumnMap {
    Swaps(Vec<(usize, usize)>),
    Pick(Vec<usize>),
}

impl ColumnMap {
    fn new(columns: Vec<usize>, width: usize) -> Self {
        let mut seen = vec![false; width];
        let permutation = columns.len() == width
            && columns
                .iter()
                .all(|&c| !std::mem::replace(&mut seen[c], true));
        if !permutation {
            return ColumnMap::Pick(columns);
        }
        // at[p] = the chain column whose value sits at position p.
        let mut at: Vec<usize> = (0..width).collect();
        let mut swaps = Vec::new();
        for (j, &want) in columns.iter().enumerate() {
            let k = j + at[j..]
                .iter()
                .position(|&c| c == want)
                .expect("a permutation holds every column");
            if k != j {
                at.swap(j, k);
                swaps.push((j, k));
            }
        }
        ColumnMap::Swaps(swaps)
    }

    fn apply(&self, rows: &mut [Row]) {
        match self {
            ColumnMap::Swaps(swaps) if swaps.is_empty() => {}
            ColumnMap::Swaps(swaps) => {
                for row in rows {
                    for &(a, b) in swaps {
                        row.swap_columns(a, b);
                    }
                }
            }
            ColumnMap::Pick(columns) => {
                for row in rows {
                    let values = row.values();
                    *row = Row::new(columns.iter().map(|&c| values[c].clone()).collect());
                }
            }
        }
    }
}

/// Execute a finalized plan over `table`: the window chain, then the final
/// ORDER BY and the projection the plan carries.
///
/// The initial table scan is charged (the windowed table is read once);
/// intermediate results flow in memory, and every reorder — the final sort
/// included — charges its own spill I/O and comparisons, exactly like the
/// paper's measured plan execution times.
pub fn execute_plan(plan: &Plan, table: &Table, env: &ExecEnv) -> Result<ExecReport> {
    let specs = &plan.specs;
    let tracker = env.tracker();
    let start_snapshot = tracker.snapshot();
    let start = Instant::now();
    let input = plan.scan_schema(table.schema())?;
    let base_len = input.len();

    // Compile the chain and drive it segment by segment: downstream steps
    // consume each bucket / run while upstream ones still hold the rest.
    // Rows take their output columns as they leave it.
    let cells: MeterCells = Rc::new(RefCell::new(vec![
        StepExec::default();
        plan.steps.len() + 1
    ]));
    let (mut op, chain_col) = build_chain(plan, table, base_len, env, &cells)?;
    let columns = match &plan.projection {
        Some(projection) => projection.iter().map(|a| chain_col[a.index()]).collect(),
        None => chain_col,
    };
    let map = ColumnMap::new(columns, base_len + specs.len());
    let mut rows: Vec<Row> = Vec::new();
    while let Some(seg) = op.next_segment()? {
        let mut seg_rows = seg.into_rows()?;
        map.apply(&mut seg_rows);
        rows.append(&mut seg_rows);
    }
    drop(op);

    // Measured per-step metrics: the scan slot, one slot per plan step and
    // the final sort's, if it ran. A step's residency class comes from the
    // plan (recorded at finalize time, same source as `eval_classes`).
    let step_metrics: Vec<StepMetrics> = cells
        .borrow()
        .iter()
        .enumerate()
        .map(|(idx, exec)| StepMetrics {
            label: match idx.checked_sub(1) {
                None => "scan+filter".to_string(),
                Some(k) => match plan.steps.get(k) {
                    Some(step) => step_label(step, specs),
                    None => plan.final_order.label().unwrap_or_default().to_string(),
                },
            },
            work: exec.work,
            wall: exec.wall,
            rows: exec.rows,
            segments: exec.segments,
            eval_class: idx
                .checked_sub(1)
                .and_then(|k| plan.eval_classes.get(k).copied()),
        })
        .collect();

    // Output schema in SELECT order, projected.
    let mut schema = input.clone();
    for spec in specs {
        let dt = spec.func.result_type(&input);
        schema = schema.with_appended(Field::new(spec.name.clone(), dt))?;
    }
    if let Some(projection) = &plan.projection {
        schema = schema.select(projection)?;
    }

    let work = tracker.snapshot().since(&start_snapshot);
    let table_out = Table::from_rows(schema, rows)?;
    // The classes were recorded on the plan at finalize time — the single
    // source of truth; the executed specs must classify identically (the
    // chain dispatches on the same (function, frame) pairs).
    debug_assert!(
        plan.steps
            .iter()
            .zip(&plan.eval_classes)
            .all(|(step, &class)| specs[step.wf].eval_class() == class),
        "plan eval classes diverged from the executed specs"
    );
    let eval_classes = plan
        .steps
        .iter()
        .zip(&plan.eval_classes)
        .map(|(step, &class)| (specs[step.wf].name.clone(), class))
        .collect();
    Ok(ExecReport {
        table: table_out,
        modeled_ms: env.weights.modeled_ms(&work),
        work,
        wall: start.elapsed(),
        step_metrics,
        worker_peak_blocks: env.op_env().store.worker_peak_blocks(),
        store: env.store_snapshot(),
        eval_classes,
    })
}

/// EXPLAIN ANALYZE: execute `plan` and render it ([`render_analyze`]).
/// Returns the report too, so callers can reuse the execution instead of
/// re-running it.
pub fn explain_analyze(plan: &Plan, table: &Table, env: &ExecEnv) -> Result<(ExecReport, String)> {
    let report = execute_plan(plan, table, env)?;
    let text = render_analyze(plan, table.schema(), &report, env.weights());
    Ok((report, text))
}

/// The EXPLAIN ANALYZE text of an executed plan: its EXPLAIN tree over the
/// source `schema`, followed by a per-step table comparing the modeled time
/// against the measured wall — the modeled-vs-measured delta is the
/// headline — alongside actual rows, segments, comparisons, spill bytes and
/// each step's residency class, with store residency/pool-traffic footers.
/// `spill B` counts spill traffic only: the scan's read of the table is
/// modeled I/O, not spill, so the scan row shows 0 and `total` leaves it out.
pub fn render_analyze(
    plan: &Plan,
    schema: &wf_common::Schema,
    report: &ExecReport,
    weights: CostWeights,
) -> String {
    const HEADERS: [&str; 9] = [
        "step", "wall ms", "model ms", "Δ ms", "rows", "segs", "cmp", "spill B", "class",
    ];
    let spill_bytes = |work: &CostSnapshot| work.io_blocks() * BLOCK_SIZE as u64;
    let scan_bytes = report
        .step_metrics
        .first()
        .map_or(0, |m| spill_bytes(&m.work));
    let mut rows: Vec<Vec<String>> = Vec::new();
    // A window group's wall and work are its head's row; say so on the
    // members' rows (slot `k + 1` is plan step `k`).
    let heads = plan.group_heads();
    for (slot, m) in report.step_metrics.iter().enumerate() {
        let wall_ms = m.wall.as_secs_f64() * 1e3;
        let model_ms = weights.modeled_ms(&m.work);
        let step = match slot.checked_sub(1) {
            Some(k) if heads.get(k).is_some_and(|&head| head != k) => {
                format!(
                    "{}  (group of {})",
                    m.label,
                    report.step_metrics[heads[k] + 1].label
                )
            }
            _ => m.label.clone(),
        };
        rows.push(vec![
            step,
            format!("{wall_ms:.3}"),
            format!("{model_ms:.3}"),
            format!("{:+.3}", model_ms - wall_ms),
            m.rows.to_string(),
            m.segments.to_string(),
            m.work.comparisons.to_string(),
            if slot == 0 { 0 } else { spill_bytes(&m.work) }.to_string(),
            m.eval_class
                .map_or_else(|| "-".to_string(), |c| c.to_string()),
        ]);
    }
    let total_wall = report.wall.as_secs_f64() * 1e3;
    rows.push(vec![
        "total".to_string(),
        format!("{total_wall:.3}"),
        format!("{:.3}", report.modeled_ms),
        format!("{:+.3}", report.modeled_ms - total_wall),
        report.table.row_count().to_string(),
        report
            .step_metrics
            .iter()
            .map(|m| m.segments)
            .sum::<u64>()
            .to_string(),
        report.work.comparisons.to_string(),
        spill_bytes(&report.work)
            .saturating_sub(scan_bytes)
            .to_string(),
        if report.eval_classes.is_empty() {
            "-".to_string()
        } else {
            report.weakest_eval_class().to_string()
        },
    ]);

    // Hand-aligned table: first column left-aligned, numeric columns right-
    // aligned. Widths count chars, not bytes (the Δ header is multi-byte).
    let mut widths: Vec<usize> = HEADERS.iter().map(|h| h.chars().count()).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let pad = " ".repeat(w - cell.chars().count());
            if i == 0 {
                line.push_str(cell);
                line.push_str(&pad);
            } else {
                line.push_str(&pad);
                line.push_str(cell);
            }
        }
        line.truncate(line.trim_end().len());
        line.push('\n');
        line
    };
    let rule = widths
        .iter()
        .map(|w| "-".repeat(*w))
        .collect::<Vec<_>>()
        .join("  ");

    let mut out = plan.explain(schema);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push('\n');
    out.push_str(&fmt_row(&HEADERS.map(String::from)));
    out.push_str(&rule);
    out.push('\n');
    let (steps, total) = rows.split_at(rows.len() - 1);
    for row in steps {
        out.push_str(&fmt_row(row));
    }
    out.push_str(&rule);
    out.push('\n');
    out.push_str(&fmt_row(&total[0]));
    out.push_str(&format!(
        "peak residency: {} blocks ({} rows)\n",
        report.store.peak_resident_blocks(),
        report.store.peak_resident_rows
    ));
    if !report.worker_peak_blocks.is_empty() {
        let peaks = report
            .worker_peak_blocks
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("worker peaks: [{peaks}] blocks\n"));
    }
    out.push_str(&format!(
        "pool traffic: {} blocks out, {} blocks in ({} segments spilled)\n",
        report.store.spill_blocks_written,
        report.store.spill_blocks_read,
        report.store.spilled_segments
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableStats;
    use crate::planner::{optimize, Scheme};
    use crate::query::QueryBuilder;
    use wf_common::{row, DataType, Schema, SortSpec};

    fn sample_table() -> Table {
        let schema = Schema::of(&[
            ("empnum", DataType::Int),
            ("dept", DataType::Int),
            ("salary", DataType::Int),
        ]);
        let mut t = Table::new(schema);
        // The paper's Example 1 data (dept NULL → Value::Null).
        let rows: Vec<(i64, Option<i64>, Option<i64>)> = vec![
            (1, None, None),
            (2, None, Some(84000)),
            (3, Some(2), None),
            (4, Some(1), Some(78000)),
            (5, Some(1), Some(75000)),
            (6, Some(3), Some(79000)),
            (7, Some(2), Some(51000)),
            (8, Some(3), Some(55000)),
            (9, Some(1), Some(53000)),
            (10, Some(3), Some(75000)),
        ];
        for (e, d, s) in rows {
            t.push(row![e, d, s]);
        }
        t
    }

    /// End-to-end reproduction of the paper's Example 1 output columns.
    #[test]
    fn example1_end_to_end() {
        let table = sample_table();
        let schema = table.schema().clone();
        let query = QueryBuilder::new(&schema)
            .rank("rank_in_dept", &["dept"], &[("salary", true)])
            .rank("globalrank", &[], &[("salary", true)])
            .build()
            .unwrap();
        let stats = TableStats::from_table(&table);
        let env = ExecEnv::with_memory_blocks(64);
        for scheme in [Scheme::Cso, Scheme::Psql, Scheme::Orcl, Scheme::Bfo] {
            let plan = optimize(&query, &stats, scheme, &env).unwrap();
            let report = execute_plan(&plan, &table, &env).unwrap();
            let out = &report.table;
            assert_eq!(out.row_count(), 10);
            let s = out.schema().clone();
            let empnum = s.resolve("empnum").unwrap();
            let rid = s.resolve("rank_in_dept").unwrap();
            let gr = s.resolve("globalrank").unwrap();
            // Expected from the paper's sample output.
            let expected: std::collections::HashMap<i64, (i64, i64)> = [
                (4, (1, 3)),
                (5, (2, 4)),
                (9, (3, 7)),
                (7, (1, 8)),
                (3, (2, 9)),
                (6, (1, 2)),
                (10, (2, 4)),
                (8, (3, 6)),
                (2, (1, 1)),
                (1, (2, 9)),
            ]
            .into_iter()
            .collect();
            for r in out.rows() {
                let e = r.get(empnum).as_int().unwrap();
                let got = (r.get(rid).as_int().unwrap(), r.get(gr).as_int().unwrap());
                assert_eq!(got, expected[&e], "scheme {scheme}: empnum {e}");
            }
        }
    }

    #[test]
    fn report_contains_per_step_breakdown() {
        let table = sample_table();
        let schema = table.schema().clone();
        let query = QueryBuilder::new(&schema)
            .rank("r", &["dept"], &[("salary", false)])
            .build()
            .unwrap();
        let stats = TableStats::from_table(&table);
        let env = ExecEnv::with_memory_blocks(64);
        let plan = optimize(&query, &stats, Scheme::Cso, &env).unwrap();
        let report = execute_plan(&plan, &table, &env).unwrap();
        assert_eq!(report.step_metrics.len(), 2, "the scan and one step");
        assert!(report.modeled_ms > 0.0);
        assert!(report.work.rows_moved > 0);
    }

    /// The report carries one residency class per chain step, and the
    /// weakest member governs — here a rank (ring class) chain.
    #[test]
    fn report_records_eval_classes() {
        let table = sample_table();
        let schema = table.schema().clone();
        let query = QueryBuilder::new(&schema)
            .rank("r", &["dept"], &[("salary", false)])
            .build()
            .unwrap();
        let stats = TableStats::from_table(&table);
        let env = ExecEnv::with_memory_blocks(64);
        let plan = optimize(&query, &stats, Scheme::Cso, &env).unwrap();
        assert_eq!(plan.eval_classes, vec![wf_exec::StreamableEval::Ring]);
        assert_eq!(plan.weakest_eval_class(), wf_exec::StreamableEval::Ring);
        let report = execute_plan(&plan, &table, &env).unwrap();
        assert_eq!(report.eval_classes.len(), 1);
        assert_eq!(report.eval_classes[0].0, "r");
        assert_eq!(report.eval_classes[0].1, wf_exec::StreamableEval::Ring);
        assert_eq!(report.weakest_eval_class(), wf_exec::StreamableEval::Ring);
    }

    /// `step_metrics` carries the scan slot plus one slot per plan step
    /// under the step's label, and the slots' work sums to the total.
    #[test]
    fn step_metrics_cover_scan_and_reconcile_with_the_total() {
        let table = sample_table();
        let schema = table.schema().clone();
        let query = QueryBuilder::new(&schema)
            .rank("r", &["dept"], &[("salary", false)])
            .build()
            .unwrap();
        let stats = TableStats::from_table(&table);
        // Pinned serial: the CI matrix forces `WF_WORKERS=4` over the suite.
        let env = ExecEnv::with_memory_blocks(64).with_par_workers(1);
        let plan = optimize(&query, &stats, Scheme::Cso, &env).unwrap();
        let report = execute_plan(&plan, &table, &env).unwrap();
        assert_eq!(report.step_metrics.len(), plan.steps.len() + 1);
        assert_eq!(report.step_metrics[0].label, "scan+filter");
        assert_eq!(report.step_metrics[0].eval_class, None);
        for (m, step) in report.step_metrics[1..].iter().zip(&plan.steps) {
            assert_eq!(m.label, step_label(step, &query.specs));
            assert!(m.eval_class.is_some());
        }
        let slots_work = report
            .step_metrics
            .iter()
            .fold(CostSnapshot::default(), |sum, m| sum.plus(&m.work));
        assert_eq!(slots_work, report.work);
        // The last step emits the chain's output rows.
        assert_eq!(report.step_metrics.last().unwrap().rows, 10);
        assert!(report.step_metrics.iter().all(|m| m.segments >= 1));
        assert!(report.worker_peak_blocks.is_empty(), "serial plan");
    }

    #[test]
    fn explain_analyze_renders_per_step_table() {
        let table = sample_table();
        let schema = table.schema().clone();
        let query = QueryBuilder::new(&schema)
            .rank("a", &["dept"], &[("salary", false)])
            .rank("b", &[], &[("salary", false)])
            .build()
            .unwrap();
        let stats = TableStats::from_table(&table);
        let env = ExecEnv::with_memory_blocks(64);
        let plan = optimize(&query, &stats, Scheme::Cso, &env).unwrap();
        let (report, text) = explain_analyze(&plan, &table, &env).unwrap();
        assert_eq!(report.table.row_count(), 10);
        // EXPLAIN tree first, then the measured table and footers.
        assert!(text.starts_with("input:"), "{text}");
        for needle in [
            "wall ms",
            "model ms",
            "Δ ms",
            "spill B",
            "scan+filter",
            "total",
            "peak residency:",
            "pool traffic:",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // One table line per step metric, plus header/rules/total.
        let table_lines = text
            .lines()
            .filter(|l| l.starts_with("scan+filter") || l.contains('→') && l.contains('.'))
            .count();
        assert!(table_lines >= report.step_metrics.len(), "{text}");
    }

    /// `spill B` is spill traffic only: a statement that spills nothing
    /// shows 0 on every row, the scan's (modeled) read of the table
    /// included.
    #[test]
    fn spill_column_counts_spill_traffic_only() {
        let table = sample_table();
        let schema = table.schema().clone();
        let query = QueryBuilder::new(&schema)
            .rank("a", &["dept"], &[("salary", false)])
            .rank("b", &[], &[("salary", false)])
            .build()
            .unwrap();
        let stats = TableStats::from_table(&table);
        let env = ExecEnv::with_memory_blocks(64);
        let plan = optimize(&query, &stats, Scheme::Cso, &env).unwrap();
        let (report, text) = explain_analyze(&plan, &table, &env).unwrap();
        assert!(
            report.step_metrics[0].work.blocks_read > 0,
            "the scan reads"
        );
        assert_eq!(report.store.spill_blocks_written, 0);
        let rows: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.starts_with("step"))
            .filter(|l| !l.starts_with("step") && !l.starts_with('-'))
            .take_while(|l| !l.starts_with("peak residency"))
            .collect();
        assert_eq!(rows.len(), report.step_metrics.len() + 1, "{text}");
        for row in rows {
            let cells: Vec<&str> = row.split_whitespace().collect();
            assert_eq!(cells[cells.len() - 2], "0", "{row}\n{text}");
        }
    }

    /// The final ORDER BY and the projection run inside the chain: sorted on
    /// a window column the chain evaluates out of SELECT order, then cut to
    /// a reordered subset of the columns, the result is the unsorted,
    /// unprojected result sorted (stably) and projected by hand.
    #[test]
    fn final_order_and_projection_are_the_chain_tail() {
        let table = sample_table();
        let schema = table.schema().clone();
        // One sort on (dept, salary, empnum) serves both: every scheme but
        // PSQL's SELECT order evaluates `b` first and `a` off its output.
        let query = QueryBuilder::new(&schema)
            .rank("a", &["dept"], &[("salary", false)])
            .rank(
                "b",
                &[],
                &[("dept", false), ("salary", false), ("empnum", false)],
            )
            .build()
            .unwrap();
        let env = ExecEnv::with_memory_blocks(64).with_par_workers(1);
        let stats = TableStats::from_table(&table);
        for scheme in [Scheme::Cso, Scheme::Psql, Scheme::Orcl, Scheme::Bfo] {
            let plain = optimize(&query, &stats, scheme, &env).unwrap();
            let all = execute_plan(&plain, &table, &env).unwrap().table;
            let (a, b) = (AttrId::new(3), AttrId::new(4));
            // ORDER BY a DESC, b; SELECT b, empnum, a.
            let order = SortSpec::new(vec![
                wf_common::OrdElem::desc(a),
                wf_common::OrdElem::asc(b),
            ]);
            let projection = vec![b, AttrId::new(0), a];
            let mut q = query.clone();
            q.order_by = Some(order.clone());
            q.projection = Some(projection.clone());
            let plan = optimize(&q, &stats, scheme, &env).unwrap();
            assert_eq!(plan.final_order, FinalOrder::FullSort, "{scheme}");
            assert_eq!(plan.steps[0].wf, usize::from(scheme != Scheme::Psql));
            let report = execute_plan(&plan, &table, &env).unwrap();
            let mut want = all.rows().to_vec();
            let cmp = wf_common::RowComparator::new(&order);
            want.sort_by(|x, y| cmp.compare(x, y));
            let want: Vec<Row> = want
                .iter()
                .map(|r| Row::new(projection.iter().map(|&c| r.get(c).clone()).collect()))
                .collect();
            assert_eq!(report.table.rows(), &want[..], "{scheme}");
            let names: Vec<&str> = report
                .table
                .schema()
                .fields()
                .iter()
                .map(|f| f.name.as_str())
                .collect();
            assert_eq!(names, ["b", "empnum", "a"], "{scheme}");
            assert_eq!(report.step_metrics.last().unwrap().label, "FS→ ORDER BY");
        }
    }

    /// A `PAR→` node whose inner reorder the scheduler cannot reassemble —
    /// neither a Full Sort nor a Hashed Sort, or a Hashed Sort with MFV
    /// values — fails with a planning error instead of running as something
    /// else. `finalize_chain` never emits one; a plan built by hand can.
    #[test]
    fn malformed_par_spans_are_planning_errors() {
        let table = sample_table();
        let schema = table.schema().clone();
        let query = QueryBuilder::new(&schema)
            .rank("r", &["dept"], &[("salary", false)])
            .build()
            .unwrap();
        let env = ExecEnv::with_memory_blocks(64).with_par_workers(1);
        let stats = TableStats::from_table(&table);
        let mut plan = optimize(&query, &stats, Scheme::Cso, &env).unwrap();
        let (dept, salary) = (AttrId::new(1), AttrId::new(2));
        let dept_key = SortSpec::new(vec![wf_common::OrdElem::asc(dept)]);
        let salary_key = SortSpec::new(vec![wf_common::OrdElem::asc(salary)]);
        let hs = |mfv: Vec<Vec<wf_common::Value>>| ReorderOp::Hs {
            whk: wf_common::AttrSet::from_iter([dept]),
            key: dept_key.concat(&salary_key),
            n_buckets: 4,
            mfv,
        };
        let par = |inner: ReorderOp| ReorderOp::Par {
            inner: Box::new(inner),
            workers: 2,
        };
        for inner in [
            ReorderOp::None,
            ReorderOp::Ss {
                alpha: dept_key.clone(),
                beta: salary_key.clone(),
            },
            par(hs(Vec::new())),
            hs(vec![vec![wf_common::Value::Int(1)]]),
        ] {
            plan.steps[0].reorder = par(inner.clone());
            let err = execute_plan(&plan, &table, &env).unwrap_err();
            assert!(matches!(err, Error::Planning(_)), "{inner:?}: {err}");
        }
        // The well-formed span runs.
        plan.steps[0].reorder = par(hs(Vec::new()));
        assert_eq!(
            execute_plan(&plan, &table, &env).unwrap().table.row_count(),
            10
        );
    }

    #[test]
    fn env_with_blocks_shares_tracker() {
        let env = ExecEnv::with_memory_blocks(8);
        let env2 = env.with_blocks(16);
        env.tracker().compare(5);
        assert_eq!(env2.tracker().snapshot().comparisons, 5);
        assert_eq!(env2.mem_blocks(), 16);
    }
}
