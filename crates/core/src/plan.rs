//! Executable window-function chains.
//!
//! A [`Plan`] is the paper's *window function chain*: an ordered list of
//! window evaluations, each optionally preceded by a reordering operator.
//! Plans are produced by the planners in [`crate::planner`] and finalized
//! by [`finalize_chain`], which walks the chain through the property
//! algebra, verifies every evaluation is matched, *repairs* any gap with
//! the cheapest applicable reorder, and attaches cost estimates. Repair
//! guarantees that heuristic planners can never produce an incorrect plan —
//! only a more expensive one, which the estimate then reflects honestly.

use crate::cost::{
    fs_cost, hs_bucket_count, hs_cost, par_fs_cost, par_hs_cost, ss_cost, ss_reorder_cost,
    ss_units, window_scan_cost, Cost, TableStats,
};
use crate::cover::KeyPattern;
use crate::props::SegProps;
use crate::spec::WindowSpec;
use wf_common::{AttrId, AttrSet, Result, Schema, SortSpec};
use wf_storage::CostWeights;

/// The reordering operator in front of one window evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum ReorderOp {
    /// Input already matches — evaluate directly.
    None,
    /// Full Sort on `key`.
    Fs { key: SortSpec },
    /// Hashed Sort: hash on `whk`, sort buckets on `key`. `mfv` lists
    /// hash-key values pipelined straight to the first sort (§3.2's MFV
    /// optimization, chosen from the statistics' hot values).
    Hs {
        whk: AttrSet,
        key: SortSpec,
        n_buckets: usize,
        mfv: Vec<Vec<wf_common::Value>>,
    },
    /// Segmented Sort: `α`-groups sorted on `β`.
    Ss { alpha: SortSpec, beta: SortSpec },
    /// Partition-parallel reordering (paper §3.5 made planner-visible):
    /// shard on (a subset of) the step's `WPK`, run `inner` on every shard
    /// with one `workers`-th of the unit reorder memory each, and
    /// ordered-merge the shards back — output rows, boundary layers and
    /// physical properties are identical to executing `inner` serially
    /// (see `wf_exec::scheduler`); only the cost differs. `workers` is the
    /// shard count (the determinism domain), not the thread count.
    Par {
        inner: Box<ReorderOp>,
        workers: usize,
    },
}

impl ReorderOp {
    /// Paper-style arrow label (`→`, `FS→`, `HS→`, `SS→`, `PAR→`).
    pub fn arrow(&self) -> &'static str {
        match self {
            ReorderOp::None => "→",
            ReorderOp::Fs { .. } => "FS→",
            ReorderOp::Hs { .. } => "HS→",
            ReorderOp::Ss { .. } => "SS→",
            ReorderOp::Par { .. } => "PAR→",
        }
    }

    /// Residency rank of the reorder for the planner's equal-cost tiebreak:
    /// lower is better — a smaller "largest unit" the chain must keep
    /// around. `None` reorders nothing; SS holds one unit; HS one expected
    /// bucket; Par `M/w` of sort memory per worker plus the merge; FS
    /// streams the whole relation through `M`-bounded machinery but leaves
    /// the largest downstream segments.
    pub fn residency_rank(&self) -> u8 {
        match self {
            ReorderOp::None => 0,
            ReorderOp::Ss { .. } => 1,
            ReorderOp::Hs { .. } => 2,
            ReorderOp::Par { .. } => 3,
            ReorderOp::Fs { .. } => 4,
        }
    }
}

/// How the chain's output meets the statement's final ORDER BY (paper §5).
#[derive(Debug, Clone, PartialEq)]
pub enum FinalOrder {
    /// No ORDER BY clause.
    NotRequired,
    /// The chain's output already satisfies it.
    Satisfied,
    /// A partial sort suffices: `prefix_len` leading elements already hold,
    /// so a Segmented Sort orders each group of them on the rest.
    PartialSort { prefix_len: usize },
    /// A full sort is needed.
    FullSort,
}

impl FinalOrder {
    /// The label of the sort this leaves at the end of the chain, in the
    /// execution reports; `None` when no sort runs.
    pub fn label(&self) -> Option<&'static str> {
        match self {
            FinalOrder::NotRequired | FinalOrder::Satisfied => None,
            FinalOrder::PartialSort { .. } => Some("SS→ ORDER BY"),
            FinalOrder::FullSort => Some("FS→ ORDER BY"),
        }
    }
}

/// Classify `order` against the chain's final properties and price the sort
/// it leaves: nothing when the properties satisfy it, a segmented sort when
/// they satisfy a prefix, a full sort otherwise.
pub fn order_by_cost(
    props: &SegProps,
    order: &SortSpec,
    stats: &TableStats,
    mem_blocks: u64,
) -> (FinalOrder, Cost) {
    if order.is_empty() {
        return (FinalOrder::NotRequired, Cost::zero());
    }
    if props.satisfies_order(order) {
        return (FinalOrder::Satisfied, Cost::zero());
    }
    let prefix = props.satisfied_order_prefix(order);
    if prefix > 0 {
        // Partial sort: the satisfied prefix segments the work like SS.
        let alpha = order.prefix(prefix);
        let u = ss_units(stats, props.x(), &alpha, 1);
        return (
            FinalOrder::PartialSort { prefix_len: prefix },
            ss_cost(stats, mem_blocks, 1, u),
        );
    }
    (FinalOrder::FullSort, fs_cost(stats, mem_blocks))
}

/// One link of the chain: reorder (maybe) then evaluate `specs[wf]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    pub wf: usize,
    pub reorder: ReorderOp,
}

/// A finalized, costed window-function chain.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which scheme produced it (display only).
    pub scheme: String,
    /// The window functions the steps index into.
    pub specs: Vec<WindowSpec>,
    pub steps: Vec<PlanStep>,
    pub input_props: SegProps,
    pub final_props: SegProps,
    /// Estimated cost under the paper's models.
    pub est_cost: Cost,
    /// Number of reorders the finalizer had to insert (0 for a planner
    /// whose chain was already consistent).
    pub repairs: usize,
    /// WHERE predicate pushed below the chain (the runtime inserts a
    /// `FilterOp` directly after the table scan). Set by
    /// [`crate::planner::optimize`] from the query.
    pub filter: Option<wf_exec::Predicate>,
    /// The base-table columns the scan keeps, when the query reads fewer
    /// than all of them (`WindowQuery::scan_columns`): every attribute of
    /// the plan indexes this narrowed schema, except the filter's, which
    /// tests the table's rows before they are narrowed. Set by
    /// [`crate::planner::optimize`] from the query.
    pub scan_columns: Option<Vec<AttrId>>,
    /// The statement's final ORDER BY over its output columns — the scan's
    /// columns, then one per window function in SELECT order. Set by
    /// [`crate::planner::optimize`] from the query.
    pub order_by: Option<SortSpec>,
    /// How the chain's output meets [`Plan::order_by`], classified once by
    /// [`crate::planner::optimize`], which adds the sort's price to
    /// `est_cost`; the runtime appends the sort it names to the chain.
    pub final_order: FinalOrder,
    /// The output columns the statement keeps, over the same columns as
    /// [`Plan::order_by`]; `None` keeps every one. Set by
    /// [`crate::planner::optimize`] from the query.
    pub projection: Option<Vec<AttrId>>,
    /// Per-step spilled-segment evaluation class (one-pass / ring-buffer /
    /// buffered), recorded at finalize time — one entry per `steps` entry —
    /// so EXPLAIN output and the execution report can say which residency
    /// discipline each window call takes.
    pub eval_classes: Vec<wf_exec::StreamableEval>,
}

impl Plan {
    /// The weakest evaluation class across the chain's window calls — a
    /// mixed-call query's residency is governed by its weakest member
    /// (`O(M + partition)` dominates `O(M + frame)` dominates `O(M)`).
    pub fn weakest_eval_class(&self) -> wf_exec::StreamableEval {
        wf_exec::StreamableEval::weakest(self.eval_classes.iter().copied())
    }

    /// Number of FS/HS/SS reorders in the chain.
    pub fn reorder_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.reorder != ReorderOp::None)
            .count()
    }

    /// Paper-notation chain, e.g. `ws FS→ wf5 → wf4 → wf3 HS→ wf1 → wf2`.
    pub fn chain_string(&self) -> String {
        let mut out = String::from("ws");
        for step in &self.steps {
            out.push(' ');
            out.push_str(step.reorder.arrow());
            out.push(' ');
            out.push_str(&self.specs[step.wf].name);
        }
        out
    }

    /// For every step, the index of the head of its **window group**: the
    /// run of steps one window operator evaluates together off one
    /// reordered relation ([`window_group_len`]). A step that is its own
    /// head opens a group (of one, unless matched steps follow).
    pub fn group_heads(&self) -> Vec<usize> {
        let mut heads = Vec::with_capacity(self.steps.len());
        while heads.len() < self.steps.len() {
            let head = heads.len();
            let len = window_group_len(&self.steps, &self.specs, head);
            heads.extend(std::iter::repeat_n(head, len));
        }
        heads
    }

    /// The schema the chain runs over: `table`'s, narrowed to
    /// [`Plan::scan_columns`] when the scan keeps fewer columns.
    pub fn scan_schema(&self, table: &Schema) -> Result<Schema> {
        match &self.scan_columns {
            Some(columns) => table.select(columns),
            None => Ok(table.clone()),
        }
    }

    /// Chain with schema-resolved key details (for EXPLAIN-style output),
    /// given the table's schema. A matched step evaluated by the window
    /// operator of an earlier step says so: `(matched; group of HS→
    /// f_rank)`; a scan that keeps fewer columns than the table has names
    /// them on a `scan columns:` line.
    pub fn explain(&self, table: &Schema) -> String {
        let specs = &self.specs;
        let heads = self.group_heads();
        let member_of = |i: usize| {
            (heads[i] != i)
                .then(|| format!("group of {}", step_label(&self.steps[heads[i]], specs)))
        };
        let schema = &self
            .scan_schema(table)
            .expect("the plan's scan columns are distinct columns of its table");
        // Output columns: the scan's, then the window functions'.
        let col = |a: AttrId| match a.index().checked_sub(schema.len()) {
            Some(w) => specs[w].name.clone(),
            None => schema.name(a).to_string(),
        };
        let col: &dyn Fn(AttrId) -> String = &col;
        let mut out = format!("input: {}\n", props_names(&self.input_props, col));
        if self.scan_columns.is_some() {
            let names: Vec<&str> = schema.fields().iter().map(|f| f.name.as_str()).collect();
            out.push_str(&format!(
                "scan columns: {} of {} ({})\n",
                names.len(),
                table.len(),
                names.join(", ")
            ));
        }
        if let Some(pred) = &self.filter {
            out.push_str(&format!("  ── Filter {pred:?}\n"));
        }
        let mut i = 0;
        while i < self.steps.len() {
            let step = &self.steps[i];
            let spec = &specs[step.wf];
            match &step.reorder {
                ReorderOp::None => match member_of(i) {
                    Some(group) => out.push_str(&format!("  ── (matched; {group})\n")),
                    None => out.push_str("  ── (matched)\n"),
                },
                ReorderOp::Fs { key } => {
                    out.push_str(&format!("  ── FullSort key={}\n", names(key, col)))
                }
                ReorderOp::Hs {
                    whk,
                    key,
                    n_buckets,
                    mfv,
                } => out.push_str(&format!(
                    "  ── HashedSort whk={{{}}} key={} buckets={}{}\n",
                    set_names(whk, col),
                    names(key, col),
                    n_buckets,
                    if mfv.is_empty() {
                        String::new()
                    } else {
                        format!(" mfv={}", mfv.len())
                    }
                )),
                ReorderOp::Ss { alpha, beta } => out.push_str(&format!(
                    "  ── SegmentedSort α={} β={}\n",
                    names(alpha, col),
                    names(beta, col)
                )),
                ReorderOp::Par { inner, workers } => {
                    // The whole span runs inside the workers: head reorder,
                    // this step's window, and every fused SS + window stage.
                    // Only finished rows come back through the merge.
                    let span = par_span_len(&self.steps, specs, i);
                    let shard = par_shard_attrs(step, specs);
                    let head = match inner.as_ref() {
                        ReorderOp::Fs { key } => format!("FullSort key={}", names(key, col)),
                        ReorderOp::Hs {
                            whk,
                            key,
                            n_buckets,
                            ..
                        } => format!(
                            "HashedSort whk={{{}}} key={} buckets={}",
                            set_names(whk, col),
                            names(key, col),
                            n_buckets
                        ),
                        other => format!("{other:?}"),
                    };
                    let mut ops = vec![head];
                    for s in &self.steps[i..i + span] {
                        if let ReorderOp::Ss { alpha, beta } = &s.reorder {
                            ops.push(format!(
                                "SegmentedSort α={} β={}",
                                names(alpha, col),
                                names(beta, col)
                            ));
                        }
                        ops.push(format!("Window {}", specs[s.wf].name));
                    }
                    out.push_str(&format!(
                        "  ── Parallel workers={} shard={{{}}} [{}] ∘ Merge\n",
                        workers,
                        set_names(&shard, col),
                        ops.join(" ∘ ")
                    ));
                    for (j, s) in self.steps.iter().enumerate().skip(i).take(span) {
                        let sp = &specs[s.wf];
                        out.push_str(&format!(
                            "  {} {} [{}] (in-worker{})\n",
                            sp.name,
                            sp.describe(schema),
                            sp.eval_class(),
                            member_of(j).map_or_else(String::new, |g| format!("; {g}"))
                        ));
                    }
                    i += span;
                    continue;
                }
            }
            out.push_str(&format!(
                "  {} {} [{}]\n",
                spec.name,
                spec.describe(schema),
                spec.eval_class()
            ));
            i += 1;
        }
        if let Some(order) = &self.order_by {
            let sort = match self.final_order {
                FinalOrder::NotRequired => None,
                FinalOrder::Satisfied => Some(format!("{} (satisfied)", names(order, col))),
                FinalOrder::PartialSort { prefix_len: p } => Some(format!(
                    "SegmentedSort α={} β={}",
                    names(&order.prefix(p), col),
                    names(&order.suffix(p), col)
                )),
                FinalOrder::FullSort => Some(format!("FullSort key={}", names(order, col))),
            };
            if let Some(sort) = sort {
                out.push_str(&format!("  ── ORDER BY {sort}\n"));
            }
        }
        // Rows leave in the order the last step gives them: a final sort's,
        // when one runs, else the chain's.
        let output = match (&self.order_by, &self.final_order) {
            (Some(order), FinalOrder::PartialSort { .. } | FinalOrder::FullSort) => {
                SegProps::sorted(order.clone())
            }
            _ => self.final_props.clone(),
        };
        out.push_str(&format!("output: {}", props_names(&output, col)));
        out
    }
}

/// [`SegProps`]' `Display` with column names for attribute ids.
fn props_names(props: &SegProps, name: &dyn Fn(AttrId) -> String) -> String {
    if props.x().is_empty() && props.y().is_empty() {
        return "R(unordered)".to_string();
    }
    let g = if props.is_grouped() { "g" } else { "" };
    let (x, y) = (set_names(props.x(), name), names(props.y(), name));
    format!("R{g}{{{x}}},{y}")
}

fn set_names(attrs: &AttrSet, name: &dyn Fn(AttrId) -> String) -> String {
    attrs.iter().map(name).collect::<Vec<_>>().join(",")
}

fn names(key: &SortSpec, name: &dyn Fn(AttrId) -> String) -> String {
    let parts: Vec<String> = key
        .elems()
        .iter()
        .map(|e| {
            let mut s = name(e.attr);
            if e.dir == wf_common::Direction::Desc {
                s.push_str(" desc");
            }
            s
        })
        .collect();
    format!("({})", parts.join(","))
}

/// Planner context shared by all schemes.
#[derive(Clone)]
pub struct PlanContext<'a> {
    pub stats: &'a TableStats,
    /// Unit reorder memory in blocks (the paper's `M`).
    pub mem_blocks: u64,
    pub weights: CostWeights,
    /// CSO(v1) disables HS; CSO(v2) disables SS (§6.2's ablations).
    pub allow_hs: bool,
    pub allow_ss: bool,
    /// Worker budget for parallel reorders: `1` (the default) keeps every
    /// plan serial; `w > 1` lets the planners weigh `ReorderOp::Par` nodes
    /// that split the unit reorder memory `w` ways (`workers × M_w ≤ M`)
    /// against one big sort. Set from `ExecEnv::par_workers` by
    /// [`crate::planner::optimize`].
    pub workers: usize,
}

impl<'a> PlanContext<'a> {
    pub fn new(stats: &'a TableStats, mem_blocks: u64) -> Self {
        PlanContext {
            stats,
            mem_blocks,
            weights: CostWeights::default(),
            allow_hs: true,
            allow_ss: true,
            workers: 1,
        }
    }
}

/// The default FS key for a single function: its canonical covering
/// permutation.
pub fn default_fs_key(spec: &WindowSpec) -> SortSpec {
    KeyPattern::for_spec(spec).linearize()
}

/// The scatter key of a `Par` step: the step spec's WPK for an FS inner,
/// the hash key for an HS inner. Empty for non-`Par` steps.
pub fn par_shard_attrs(step: &PlanStep, specs: &[WindowSpec]) -> AttrSet {
    match &step.reorder {
        ReorderOp::Par { inner, .. } => match inner.as_ref() {
            ReorderOp::Hs { whk, .. } => whk.clone(),
            _ => specs[step.wf].wpk().clone(),
        },
        _ => AttrSet::empty(),
    }
}

/// Length of the chain-parallel span starting at step `k`, **including the
/// `Par` step itself** — 0 when step `k` is not a `Par` node. A follow-up
/// step fuses into the span (runs inside the workers, on the worker's shard)
/// when its reorder needs no cross-shard data movement and its window
/// partitions stay whole within a shard:
///
/// * `None` reorders — provided the step's WPK covers the shard key,
/// * `Ss` reorders — additionally the declared `α` must cover the shard key,
///   so SS units never straddle shards.
///
/// Any other reorder (FS, HS, a second Par) ends the span: it needs the
/// whole relation. This one predicate is shared by the cost model
/// ([`finalize_chain`]'s span discount), EXPLAIN ([`Plan::explain`]) and the
/// runtime's lowering, so they can never disagree about span membership.
pub fn par_span_len(steps: &[PlanStep], specs: &[WindowSpec], k: usize) -> usize {
    let ReorderOp::Par { .. } = &steps[k].reorder else {
        return 0;
    };
    let shard = par_shard_attrs(&steps[k], specs);
    let mut len = 1;
    for step in &steps[k + 1..] {
        let spec = &specs[step.wf];
        let joins = match &step.reorder {
            ReorderOp::None => shard.is_subset(spec.wpk()),
            ReorderOp::Ss { alpha, .. } => {
                shard.is_subset(spec.wpk()) && shard.is_subset(&alpha.attr_set())
            }
            _ => false,
        };
        if !joins {
            break;
        }
        len += 1;
    }
    len
}

/// `ARROW name` — a step's label in EXPLAIN and the execution reports.
pub fn step_label(step: &PlanStep, specs: &[WindowSpec]) -> String {
    format!("{} {}", step.reorder.arrow(), specs[step.wf].name)
}

/// Number of steps, from step `k` on, that one window operator evaluates
/// together: step `k` plus every directly following step that needs no
/// reorder of its own and has step `k`'s `(WPK, WOK)` — once a relation
/// matches a window function it matches every function on the same keys, so
/// they all evaluate off the one reordered relation (`wf_exec::WindowOp`).
/// Shared by the runtime's lowering — of serial steps and of a `PAR→`
/// span's worker chains alike — EXPLAIN and the execution reports.
pub fn window_group_len(steps: &[PlanStep], specs: &[WindowSpec], k: usize) -> usize {
    let keys = |s: &PlanStep| (specs[s.wf].wpk(), specs[s.wf].wok());
    1 + steps[k + 1..]
        .iter()
        .take_while(|s| s.reorder == ReorderOp::None && keys(s) == keys(&steps[k]))
        .count()
}

/// At (near-)equal modeled cost, plans should prefer the reorder with the
/// gentler residency profile (smaller largest unit / stronger streaming
/// class downstream) — the pool-aware tiebreak. Cost comparisons treat
/// values within this relative tolerance as ties.
const COST_TIE_EPS: f64 = 1e-9;

/// True when two modeled costs are equal up to the planner's tolerance —
/// the single definition every scheme's tiebreak compares with.
pub fn costs_tie(a: f64, b: f64) -> bool {
    (a - b).abs() <= COST_TIE_EPS * b.abs().max(1.0)
}

/// `a` beats `b` under cost-then-residency: strictly cheaper wins; a tie
/// falls to [`ReorderOp::residency_rank`] (lower wins).
pub fn better_reorder(a: (&ReorderOp, f64), b: (&ReorderOp, f64)) -> bool {
    if costs_tie(a.1, b.1) {
        a.0.residency_rank() < b.0.residency_rank()
    } else {
        a.1 < b.1
    }
}

/// Choose the cheapest applicable reorder for `spec` given the current
/// properties (used for repair and by the PSQL/ORCL baselines' forced-FS
/// variants through the `allow_*` switches). Equal-cost candidates fall to
/// the residency tiebreak ([`better_reorder`]).
pub fn cheapest_reorder(
    props: &SegProps,
    segments: u64,
    spec: &WindowSpec,
    ctx: &PlanContext<'_>,
) -> (ReorderOp, Cost) {
    let mut best: Option<(ReorderOp, Cost)> = None;
    let mut consider = |op: ReorderOp, cost: Cost| {
        let better = match &best {
            None => true,
            Some((bop, c)) => {
                better_reorder((&op, cost.ms(&ctx.weights)), (bop, c.ms(&ctx.weights)))
            }
        };
        if better {
            best = Some((op, cost));
        }
    };

    if ctx.allow_ss && props.ss_reorderable(spec) {
        let split = props.alpha_split(spec);
        let cost = ss_reorder_cost(ctx.stats, props, segments, spec, ctx.mem_blocks);
        consider(
            ReorderOp::Ss {
                alpha: split.alpha.clone(),
                beta: split.beta.clone(),
            },
            cost,
        );
    }
    let key = default_fs_key(spec);
    consider(
        ReorderOp::Fs { key: key.clone() },
        fs_cost(ctx.stats, ctx.mem_blocks),
    );
    if ctx.allow_hs && !spec.wpk().is_empty() {
        let whk = spec.wpk().clone();
        let cost = hs_cost(ctx.stats, &whk, ctx.mem_blocks);
        let n_buckets = hs_bucket_count(ctx.stats, &whk, ctx.mem_blocks);
        let mfv = ctx.stats.mfv_for(&whk, ctx.mem_blocks);
        consider(
            ReorderOp::Hs {
                whk,
                key: key.clone(),
                n_buckets,
                mfv,
            },
            cost,
        );
    }
    // Partition-parallel reorders: only with a worker budget and a
    // non-empty WPK to shard on (the partition-sharded distribution rule).
    if ctx.workers > 1 && !spec.wpk().is_empty() {
        consider(
            ReorderOp::Par {
                inner: Box::new(ReorderOp::Fs { key: key.clone() }),
                workers: ctx.workers,
            },
            par_fs_cost(ctx.stats, ctx.mem_blocks, ctx.workers, spec.wpk()),
        );
        if ctx.allow_hs {
            // Per-worker Hashed Sort over globally numbered buckets. The
            // bucket count is sized to the *worker's* memory grant so an
            // expected bucket fits `M_w`; the MFV bypass stays off — its
            // emission order is residency-dependent, which the parallel
            // interleave cannot tolerate.
            let whk = spec.wpk().clone();
            let m_w = wf_exec::per_worker_blocks(ctx.mem_blocks, ctx.workers);
            let n_buckets = hs_bucket_count(ctx.stats, &whk, m_w);
            consider(
                ReorderOp::Par {
                    inner: Box::new(ReorderOp::Hs {
                        whk: whk.clone(),
                        key,
                        n_buckets,
                        mfv: Vec::new(),
                    }),
                    workers: ctx.workers,
                },
                par_hs_cost(ctx.stats, &whk, ctx.mem_blocks, ctx.workers),
            );
        }
    }
    best.expect("FS is always applicable")
}

/// Apply a reorder to the tracked `(props, segments)` planning state.
pub fn apply_reorder(
    op: &ReorderOp,
    props: &SegProps,
    segments: u64,
    spec: &WindowSpec,
    stats: &TableStats,
) -> (SegProps, u64) {
    match op {
        ReorderOp::None => (props.clone(), segments),
        ReorderOp::Fs { key } => (SegProps::after_fs(key.clone()), 1),
        ReorderOp::Hs {
            whk,
            key,
            n_buckets,
            ..
        } => (
            SegProps::after_hs(whk.clone(), key.clone()),
            stats.distinct_set(whk).min(*n_buckets as u64).max(1),
        ),
        ReorderOp::Ss { alpha, beta } => {
            let _ = spec;
            (
                SegProps::new(props.x().clone(), alpha.concat(beta), props.is_grouped()),
                segments,
            )
        }
        // The ordered merge restores the inner reorder's exact output: same
        // physical properties, same segment count.
        ReorderOp::Par { inner, .. } => apply_reorder(inner, props, segments, spec, stats),
    }
}

/// Estimated cost of executing a reorder in the current state.
pub fn reorder_cost(
    op: &ReorderOp,
    props: &SegProps,
    segments: u64,
    spec: &WindowSpec,
    ctx: &PlanContext<'_>,
) -> Cost {
    match op {
        ReorderOp::None => Cost::zero(),
        ReorderOp::Fs { .. } => fs_cost(ctx.stats, ctx.mem_blocks),
        ReorderOp::Hs { whk, .. } => hs_cost(ctx.stats, whk, ctx.mem_blocks),
        ReorderOp::Ss { alpha, .. } => {
            let _ = spec;
            let u = crate::cost::ss_units(ctx.stats, props.x(), alpha, segments);
            crate::cost::ss_cost(ctx.stats, ctx.mem_blocks, segments, u)
        }
        ReorderOp::Par { inner, workers } => match inner.as_ref() {
            ReorderOp::Fs { .. } => par_fs_cost(ctx.stats, ctx.mem_blocks, *workers, spec.wpk()),
            ReorderOp::Hs { whk, .. } => par_hs_cost(ctx.stats, whk, ctx.mem_blocks, *workers),
            other => reorder_cost(other, props, segments, spec, ctx),
        },
    }
}

/// Walk a raw chain, validate each step against the property algebra,
/// repair gaps with the cheapest applicable reorder, and cost the result.
pub fn finalize_chain(
    scheme: &str,
    specs: &[WindowSpec],
    input_props: &SegProps,
    input_segments: u64,
    raw_steps: Vec<PlanStep>,
    ctx: &PlanContext<'_>,
) -> Plan {
    let mut props = input_props.clone();
    let mut segments = input_segments;
    let mut steps = Vec::with_capacity(raw_steps.len());
    let mut step_costs: Vec<(Cost, Cost)> = Vec::with_capacity(raw_steps.len());
    let mut repairs = 0usize;

    for step in raw_steps {
        let spec = &specs[step.wf];
        // Validate the declared reorder; fall back to repair if it would
        // not leave the input matched.
        let valid = {
            let (p2, _) = apply_reorder(&step.reorder, &props, segments, spec, ctx.stats);
            let applicable = match &step.reorder {
                ReorderOp::None | ReorderOp::Fs { .. } => true,
                ReorderOp::Hs { whk, .. } => !whk.is_empty() && whk.is_subset(spec.wpk()),
                // The declared α must really be satisfied by the input —
                // the executor detects unit boundaries on α values.
                ReorderOp::Ss { alpha, .. } => {
                    props.ss_reorderable(spec) && props.satisfied_prefix_of(alpha) >= alpha.len()
                }
                // The executor shards on the step's WPK — or, for an HS
                // inner, on the hash key (a subset of the WPK) — so window
                // partitions stay whole inside one worker.
                ReorderOp::Par { inner, workers } => {
                    *workers >= 1
                        && match inner.as_ref() {
                            ReorderOp::Fs { .. } => !spec.wpk().is_empty(),
                            // No MFV bypass: its leading segment has no
                            // place in the ascending-bucket interleave.
                            ReorderOp::Hs { whk, mfv, .. } => {
                                !whk.is_empty() && whk.is_subset(spec.wpk()) && mfv.is_empty()
                            }
                            _ => false,
                        }
                }
            };
            applicable && p2.matches(spec)
        };
        let reorder = if valid {
            step.reorder
        } else {
            repairs += 1;
            cheapest_reorder(&props, segments, spec, ctx).0
        };
        let r_cost = reorder_cost(&reorder, &props, segments, spec, ctx);
        let (p2, s2) = apply_reorder(&reorder, &props, segments, spec, ctx.stats);
        debug_assert!(p2.matches(spec), "finalized step must be matched");
        props = p2;
        segments = s2;
        step_costs.push((r_cost, window_scan_cost(ctx.stats)));
        steps.push(PlanStep {
            wf: step.wf,
            reorder,
        });
    }

    // Cost the finalized chain span-aware: a `Par` head's own cost is
    // already an elapsed estimate, and everything fused into its span —
    // the in-worker window scans (the head step's included) and any SS
    // reorders — spreads over the effective workers, so those terms scale
    // by `1/w_eff`. Steps outside a span sum serially as before.
    let mut total = Cost::zero();
    let mut i = 0;
    while i < steps.len() {
        let span = par_span_len(&steps, specs, i);
        if span == 0 {
            total = total.plus(&step_costs[i].0).plus(&step_costs[i].1);
            i += 1;
            continue;
        }
        let ReorderOp::Par { workers, .. } = &steps[i].reorder else {
            unreachable!("span starts at a Par step");
        };
        let shard = par_shard_attrs(&steps[i], specs);
        let w_eff = (*workers as u64).min(ctx.stats.distinct_set(&shard)).max(1) as f64;
        let inv = 1.0 / w_eff;
        total = total
            .plus(&step_costs[i].0)
            .plus(&step_costs[i].1.scaled(inv));
        for cost in step_costs.iter().take(i + span).skip(i + 1) {
            total = total.plus(&cost.0.scaled(inv)).plus(&cost.1.scaled(inv));
        }
        i += span;
    }

    let eval_classes = steps.iter().map(|s| specs[s.wf].eval_class()).collect();
    Plan {
        scheme: scheme.to_string(),
        specs: specs.to_vec(),
        steps,
        input_props: input_props.clone(),
        final_props: props,
        est_cost: total,
        repairs,
        filter: None,
        scan_columns: None,
        order_by: None,
        final_order: FinalOrder::NotRequired,
        projection: None,
        eval_classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::{AttrId, OrdElem};

    fn a(i: usize) -> AttrId {
        AttrId::new(i)
    }
    fn key(ids: &[usize]) -> SortSpec {
        SortSpec::new(ids.iter().map(|&i| OrdElem::asc(a(i))).collect())
    }
    fn wf(wpk: &[usize], wok: &[usize]) -> WindowSpec {
        WindowSpec::rank(
            format!("wf{}", wpk.first().copied().unwrap_or(9)),
            wpk.iter().map(|&i| a(i)).collect(),
            key(wok),
        )
    }
    fn stats() -> TableStats {
        TableStats::synthetic(
            400_000,
            10_600 * wf_storage::BLOCK_SIZE as u64,
            vec![(a(0), 20_000), (a(1), 40_000), (a(2), 100)],
        )
    }

    #[test]
    fn finalize_accepts_consistent_chain() {
        let specs = vec![wf(&[0], &[1]), wf(&[0], &[2])];
        let s = stats();
        let ctx = PlanContext::new(&s, 37);
        let raw = vec![
            PlanStep {
                wf: 0,
                reorder: ReorderOp::Hs {
                    whk: AttrSet::from_iter([a(0)]),
                    key: key(&[0, 1]),
                    n_buckets: 64,
                    mfv: vec![],
                },
            },
            PlanStep {
                wf: 1,
                reorder: ReorderOp::Ss {
                    alpha: key(&[0]),
                    beta: key(&[2]),
                },
            },
        ];
        let plan = finalize_chain("test", &specs, &SegProps::unordered(), 1, raw, &ctx);
        assert_eq!(plan.repairs, 0);
        assert_eq!(plan.reorder_count(), 2);
        assert!(plan.est_cost.io_blocks > 0.0);
        assert_eq!(plan.chain_string(), "ws HS→ wf0 SS→ wf0");
    }

    #[test]
    fn finalize_repairs_missing_reorder() {
        let specs = vec![wf(&[0], &[1])];
        let s = stats();
        let ctx = PlanContext::new(&s, 37);
        let raw = vec![PlanStep {
            wf: 0,
            reorder: ReorderOp::None,
        }];
        let plan = finalize_chain("test", &specs, &SegProps::unordered(), 1, raw, &ctx);
        assert_eq!(plan.repairs, 1);
        assert_ne!(plan.steps[0].reorder, ReorderOp::None);
        assert!(plan.final_props.matches(&specs[0]));
    }

    #[test]
    fn finalize_repairs_invalid_ss() {
        // SS declared but input is unordered → not SS-reorderable.
        let specs = vec![wf(&[0], &[1])];
        let s = stats();
        let ctx = PlanContext::new(&s, 37);
        let raw = vec![PlanStep {
            wf: 0,
            reorder: ReorderOp::Ss {
                alpha: key(&[0]),
                beta: key(&[1]),
            },
        }];
        let plan = finalize_chain("test", &specs, &SegProps::unordered(), 1, raw, &ctx);
        assert_eq!(plan.repairs, 1);
    }

    #[test]
    fn matched_input_needs_no_reorder() {
        let specs = vec![wf(&[0], &[1])];
        let s = stats();
        let ctx = PlanContext::new(&s, 37);
        let raw = vec![PlanStep {
            wf: 0,
            reorder: ReorderOp::None,
        }];
        let plan = finalize_chain(
            "test",
            &specs,
            &SegProps::sorted(key(&[0, 1])),
            1,
            raw,
            &ctx,
        );
        assert_eq!(plan.repairs, 0);
        assert_eq!(plan.reorder_count(), 0);
    }

    #[test]
    fn cheapest_reorder_prefers_ss_when_applicable() {
        let specs = [wf(&[0], &[1])];
        let s = stats();
        let ctx = PlanContext::new(&s, 37);
        let props = SegProps::sorted(key(&[0, 2]));
        let (op, _) = cheapest_reorder(&props, 1, &specs[0], &ctx);
        assert!(matches!(op, ReorderOp::Ss { .. }));
    }

    #[test]
    fn cheapest_reorder_hs_vs_fs_by_memory() {
        let specs = [wf(&[0], &[1])];
        let s = stats();
        let small = PlanContext::new(&s, 37);
        let large = PlanContext::new(&s, 111);
        let (op_small, _) = cheapest_reorder(&SegProps::unordered(), 1, &specs[0], &small);
        let (op_large, _) = cheapest_reorder(&SegProps::unordered(), 1, &specs[0], &large);
        assert!(matches!(op_small, ReorderOp::Hs { .. }), "small M → HS");
        assert!(matches!(op_large, ReorderOp::Fs { .. }), "large M → FS");
    }

    #[test]
    fn disallowing_ops_respected() {
        let specs = [wf(&[0], &[1])];
        let s = stats();
        let mut ctx = PlanContext::new(&s, 37);
        ctx.allow_hs = false;
        let (op, _) = cheapest_reorder(&SegProps::unordered(), 1, &specs[0], &ctx);
        assert!(matches!(op, ReorderOp::Fs { .. }));
        let props = SegProps::sorted(key(&[0, 2]));
        ctx.allow_ss = false;
        ctx.allow_hs = true;
        let (op2, _) = cheapest_reorder(&props, 1, &specs[0], &ctx);
        assert!(!matches!(op2, ReorderOp::Ss { .. }));
    }

    /// With a worker budget, the repair/choice path weighs the partition-
    /// parallel reorders and picks one where the elapsed model favors it.
    #[test]
    fn cheapest_reorder_emits_par_with_worker_budget() {
        let specs = [wf(&[0], &[1])];
        let s = stats();
        let mut ctx = PlanContext::new(&s, 37);
        ctx.workers = 4;
        let (op, _) = cheapest_reorder(&SegProps::unordered(), 1, &specs[0], &ctx);
        match &op {
            ReorderOp::Par { inner, workers } => {
                assert_eq!(*workers, 4);
                assert!(
                    matches!(inner.as_ref(), ReorderOp::Fs { .. } | ReorderOp::Hs { .. }),
                    "parallel inner is a full or hashed sort, got {inner:?}"
                );
            }
            other => panic!("expected Par, got {other:?}"),
        }
        // No budget → never Par; empty WPK → nothing to shard on.
        ctx.workers = 1;
        let (serial, _) = cheapest_reorder(&SegProps::unordered(), 1, &specs[0], &ctx);
        assert!(!matches!(serial, ReorderOp::Par { .. }));
        ctx.workers = 4;
        let global = wf(&[], &[1]);
        let (op2, _) = cheapest_reorder(&SegProps::unordered(), 1, &global, &ctx);
        assert!(!matches!(op2, ReorderOp::Par { .. }));
    }

    /// The residency tiebreak: when every candidate costs the same (zero
    /// weights), the reorder with the smaller largest unit wins — SS over
    /// HS over Par over FS.
    #[test]
    fn equal_cost_falls_to_residency_rank() {
        let s = stats();
        let mut ctx = PlanContext::new(&s, 37);
        ctx.weights = wf_storage::CostWeights {
            us_per_block_io: 0.0,
            ns_per_comparison: 0.0,
            ns_per_hash: 0.0,
            ns_per_row_move: 0.0,
        };
        ctx.workers = 4;
        let spec = wf(&[0], &[1]);
        // SS applicable → SS wins the tie.
        let props = SegProps::sorted(key(&[0, 2]));
        let (op, _) = cheapest_reorder(&props, 1, &spec, &ctx);
        assert!(matches!(op, ReorderOp::Ss { .. }), "{op:?}");
        // No SS → HS beats Par beats FS.
        let (op2, _) = cheapest_reorder(&SegProps::unordered(), 1, &spec, &ctx);
        assert!(matches!(op2, ReorderOp::Hs { .. }), "{op2:?}");
        ctx.allow_hs = false;
        let (op3, _) = cheapest_reorder(&SegProps::unordered(), 1, &spec, &ctx);
        assert!(matches!(op3, ReorderOp::Par { .. }), "{op3:?}");
        assert!(ReorderOp::None.residency_rank() < op3.residency_rank());
    }

    /// The finalizer accepts a well-formed Par step (FS inner, non-empty
    /// WPK) and repairs malformed ones instead of executing them.
    #[test]
    fn finalize_validates_par_nodes() {
        let s = stats();
        let ctx = PlanContext::new(&s, 37);
        let specs = vec![wf(&[0], &[1])];
        let good = vec![PlanStep {
            wf: 0,
            reorder: ReorderOp::Par {
                inner: Box::new(ReorderOp::Fs { key: key(&[0, 1]) }),
                workers: 4,
            },
        }];
        let plan = finalize_chain("test", &specs, &SegProps::unordered(), 1, good, &ctx);
        assert_eq!(plan.repairs, 0);
        assert!(plan.final_props.matches(&specs[0]));
        assert_eq!(plan.chain_string(), "ws PAR→ wf0");

        // Non-FS inner → repaired.
        let bad_inner = vec![PlanStep {
            wf: 0,
            reorder: ReorderOp::Par {
                inner: Box::new(ReorderOp::None),
                workers: 4,
            },
        }];
        let plan2 = finalize_chain("test", &specs, &SegProps::unordered(), 1, bad_inner, &ctx);
        assert_eq!(plan2.repairs, 1);

        // Empty WPK → nothing to shard on → repaired.
        let global = vec![wf(&[], &[1])];
        let bad_wpk = vec![PlanStep {
            wf: 0,
            reorder: ReorderOp::Par {
                inner: Box::new(ReorderOp::Fs { key: key(&[1]) }),
                workers: 4,
            },
        }];
        let plan3 = finalize_chain("test", &global, &SegProps::unordered(), 1, bad_wpk, &ctx);
        assert_eq!(plan3.repairs, 1);
        assert!(!matches!(plan3.steps[0].reorder, ReorderOp::Par { .. }));
    }

    /// An HS inner carrying MFV values is repaired: the MFV rows would go
    /// out as an extra leading segment, which the ascending-bucket
    /// interleave of the workers' output has no place for. The same node
    /// without them is accepted.
    #[test]
    fn finalize_repairs_par_hs_with_mfv_values() {
        let s = stats();
        let ctx = PlanContext::new(&s, 37);
        let specs = vec![wf(&[0], &[1])];
        let par_hs = |mfv: Vec<Vec<wf_common::Value>>| {
            vec![PlanStep {
                wf: 0,
                reorder: ReorderOp::Par {
                    inner: Box::new(ReorderOp::Hs {
                        whk: AttrSet::from_iter([a(0)]),
                        key: key(&[0, 1]),
                        n_buckets: 16,
                        mfv,
                    }),
                    workers: 4,
                },
            }]
        };
        let plain = finalize_chain(
            "test",
            &specs,
            &SegProps::unordered(),
            1,
            par_hs(vec![]),
            &ctx,
        );
        assert_eq!(plain.repairs, 0);
        let hot = vec![vec![wf_common::Value::Int(7)]];
        let plan = finalize_chain("test", &specs, &SegProps::unordered(), 1, par_hs(hot), &ctx);
        assert_eq!(plan.repairs, 1);
        let mfv_left = match &plan.steps[0].reorder {
            ReorderOp::Par { inner, .. } => {
                matches!(inner.as_ref(), ReorderOp::Hs { mfv, .. } if !mfv.is_empty())
            }
            _ => false,
        };
        assert!(!mfv_left, "{:?}", plan.steps[0].reorder);
    }

    #[test]
    fn chain_string_formats_paper_style() {
        let specs = vec![wf(&[0], &[1]), wf(&[0], &[2])];
        let plan = Plan {
            scheme: "CSO".into(),
            specs: specs.clone(),
            steps: vec![
                PlanStep {
                    wf: 0,
                    reorder: ReorderOp::Fs { key: key(&[0, 1]) },
                },
                PlanStep {
                    wf: 1,
                    reorder: ReorderOp::None,
                },
            ],
            input_props: SegProps::unordered(),
            final_props: SegProps::unordered(),
            est_cost: Cost::zero(),
            repairs: 0,
            filter: None,
            scan_columns: None,
            order_by: None,
            final_order: FinalOrder::NotRequired,
            projection: None,
            eval_classes: vec![wf_exec::StreamableEval::Ring; 2],
        };
        assert_eq!(plan.chain_string(), "ws FS→ wf0 → wf0");
        assert_eq!(plan.weakest_eval_class(), wf_exec::StreamableEval::Ring);
    }
}
