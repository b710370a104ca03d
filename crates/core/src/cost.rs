//! The paper's cost models (§3.4, Eqs. 1–3) plus CPU terms.
//!
//! The I/O formulas are the paper's, in blocks:
//!
//! * **FS** (Eq. 1): `2·B·(⌈log_F(B/2M)⌉ + 1)` — replacement-selection runs
//!   of `2M`, F-way merge.
//! * **HS** (Eq. 2): `2·B·(1 − N′/N) + Σ sort(Rᵢ)` with `N = D(WHK)`
//!   buckets, `N′ = ⌊M·N/B⌋` never-spilled.
//! * **SS** (Eq. 3): `Σ sort(Uᵢ)` over `k·u` units, `u` estimated from
//!   `D(α)` under the paper's uniformity assumptions.
//!
//! CPU terms (comparisons, hashes) follow the paper's complexity analysis
//! (`O(n log(n/k))` for SS vs `O(n log n)` for FS) and are converted to
//! time with the same [`CostWeights`] the tracker uses, so planned and
//! measured costs are directly comparable.

use crate::props::SegProps;
use crate::spec::WindowSpec;
use std::collections::HashMap;
use wf_common::{AttrId, AttrSet, SortSpec, Value};
use wf_storage::{blocks_for_bytes, CostWeights, Table};

/// Statistics about the windowed table: cardinality, width and per-column
/// distinct counts (the paper assumes uniform, uncorrelated attributes).
#[derive(Debug, Clone)]
pub struct TableStats {
    rows: u64,
    bytes: u64,
    distinct: HashMap<AttrId, u64>,
    /// Encoded bytes per column, summed over the rows (values only; each
    /// row adds a 2-byte arity header) — what sizes `B` for a statement
    /// that reads some of the columns ([`TableStats::narrowed`]).
    column_bytes: HashMap<AttrId, u64>,
    /// Most frequent values per column (top few, with counts) — the
    /// histogram information §3.2's MFV optimization needs.
    hot: HashMap<AttrId, Vec<(Value, u64)>>,
}

impl TableStats {
    /// Exact statistics from a materialized table.
    pub fn from_table(table: &Table) -> Self {
        let mut distinct = HashMap::new();
        let mut column_bytes = HashMap::new();
        let mut hot = HashMap::new();
        for i in 0..table.schema().len() {
            let attr = AttrId::new(i);
            let mut counts: HashMap<&Value, u64> = HashMap::new();
            let mut bytes = 0;
            for row in table.rows() {
                let value = row.get(attr);
                bytes += value.encoded_len() as u64;
                *counts.entry(value).or_insert(0) += 1;
            }
            distinct.insert(attr, counts.len() as u64);
            column_bytes.insert(attr, bytes);
            let mut top: Vec<(Value, u64)> =
                counts.into_iter().map(|(v, c)| (v.clone(), c)).collect();
            top.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            top.truncate(3);
            hot.insert(attr, top);
        }
        TableStats {
            rows: table.row_count() as u64,
            bytes: table.byte_size() as u64,
            distinct,
            column_bytes,
            hot,
        }
    }

    /// Synthetic statistics (for planning without data).
    pub fn synthetic(rows: u64, bytes: u64, distinct: Vec<(AttrId, u64)>) -> Self {
        TableStats {
            rows,
            bytes,
            distinct: distinct.into_iter().collect(),
            column_bytes: HashMap::new(),
            hot: HashMap::new(),
        }
    }

    /// Declare hot values for a column (synthetic histograms).
    pub fn with_hot_values(mut self, attr: AttrId, values: Vec<(Value, u64)>) -> Self {
        self.hot.insert(attr, values);
        self
    }

    /// Average encoded row width.
    pub fn avg_row_bytes(&self) -> u64 {
        self.bytes.checked_div(self.rows).unwrap_or(0)
    }

    /// The MFV set for a Hashed Sort on `whk` with memory `m` blocks
    /// (§3.2): hash-key values whose rows alone exceed the sorting memory
    /// are pipelined straight to the first sort. Only single-attribute hash
    /// keys carry histogram information.
    pub fn mfv_for(&self, whk: &AttrSet, m_blocks: u64) -> Vec<Vec<Value>> {
        if whk.len() != 1 {
            return Vec::new();
        }
        let attr = whk.iter().next().expect("len checked");
        let budget = m_blocks.saturating_mul(wf_storage::BLOCK_SIZE as u64);
        let row_bytes = self.avg_row_bytes().max(1);
        self.hot
            .get(&attr)
            .map(|tops| {
                tops.iter()
                    .filter(|(_, count)| count.saturating_mul(row_bytes) > budget)
                    .map(|(v, _)| vec![v.clone()])
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Statistics for the rows surviving a WHERE predicate, estimated with
    /// the classic selectivity heuristics (System R): equality selects
    /// `1/D(attr)`, inequality `1/3`, BETWEEN `1/4`, `<>` leaves
    /// `1 − 1/D`, AND multiplies. Cardinality and byte size scale by the
    /// selectivity; per-column distinct counts cap at the surviving row
    /// count (an equality predicate pins its column to one value); MFV
    /// counts scale the same way. Planners cost plans on these *post-filter*
    /// statistics, since every reorder runs downstream of the filter.
    pub fn with_predicate(&self, pred: &wf_exec::Predicate) -> TableStats {
        let sel = self.selectivity(pred).clamp(0.0, 1.0);
        let rows = ((self.rows as f64 * sel).round() as u64).max(1);
        let bytes = ((self.bytes as f64 * sel).round() as u64).max(1);
        let mut distinct = self.distinct.clone();
        for d in distinct.values_mut() {
            *d = (*d).min(rows);
        }
        let pinned = eq_pinned_attrs(pred);
        for (attr, _) in &pinned {
            distinct.insert(*attr, 1);
        }
        let mut hot: HashMap<AttrId, Vec<(Value, u64)>> = self
            .hot
            .iter()
            .map(|(a, tops)| {
                (
                    *a,
                    tops.iter()
                        .map(|(v, c)| (v.clone(), ((*c as f64 * sel).round() as u64).max(1)))
                        .collect(),
                )
            })
            .collect();
        // An equality-pinned column's histogram is exact: every surviving
        // row holds the predicate's value (uniform scaling would shrink
        // that value's count by 1/D and hide an oversized MFV partition
        // the filter in fact selects).
        for (attr, value) in pinned {
            hot.insert(attr, vec![(value, rows)]);
        }
        let column_bytes = self
            .column_bytes
            .iter()
            .map(|(a, b)| (*a, (*b as f64 * sel).round() as u64))
            .collect();
        TableStats {
            rows,
            bytes,
            distinct,
            column_bytes,
            hot,
        }
    }

    /// Statistics of the same rows read as `columns` only (base attributes;
    /// column `i` of the result is `columns[i]`): cardinality, distinct
    /// counts and hot values carry over, and the width is the kept columns'
    /// bytes plus each row's header — the narrowed `B` the cost models
    /// price every reorder with. Without per-column bytes (synthetic
    /// statistics) the width stays the whole row's.
    pub fn narrowed(&self, columns: &[AttrId]) -> TableStats {
        fn renumber<V: Clone>(map: &HashMap<AttrId, V>, columns: &[AttrId]) -> HashMap<AttrId, V> {
            columns
                .iter()
                .enumerate()
                .filter_map(|(i, a)| map.get(a).map(|v| (AttrId::new(i), v.clone())))
                .collect()
        }
        let bytes = if self.column_bytes.is_empty() {
            self.bytes
        } else {
            2 * self.rows + columns.iter().map(|a| self.column_bytes[a]).sum::<u64>()
        };
        TableStats {
            rows: self.rows,
            bytes,
            distinct: renumber(&self.distinct, columns),
            column_bytes: renumber(&self.column_bytes, columns),
            hot: renumber(&self.hot, columns),
        }
    }

    /// Estimated fraction of rows satisfying `pred`.
    fn selectivity(&self, pred: &wf_exec::Predicate) -> f64 {
        use wf_exec::Predicate::*;
        match pred {
            Eq(a, _) => 1.0 / self.distinct(*a) as f64,
            Ne(a, _) => 1.0 - 1.0 / self.distinct(*a) as f64,
            Lt(..) | Le(..) | Gt(..) | Ge(..) => 1.0 / 3.0,
            Between(..) => 1.0 / 4.0,
            And(l, r) => self.selectivity(l) * self.selectivity(r),
        }
    }

    /// `T(R)`.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// `B(R)` in blocks.
    pub fn blocks(&self) -> u64 {
        blocks_for_bytes(self.bytes as usize).max(1)
    }

    /// `D(attr)`; defaults to `rows` (unique) when unknown.
    pub fn distinct(&self, attr: AttrId) -> u64 {
        self.distinct
            .get(&attr)
            .copied()
            .unwrap_or(self.rows)
            .max(1)
    }

    /// `D(attrs)` under independence: capped product of per-attribute
    /// distinct counts.
    pub fn distinct_set(&self, attrs: &AttrSet) -> u64 {
        let mut d: u64 = 1;
        for a in attrs.iter() {
            d = d.saturating_mul(self.distinct(a));
            if d >= self.rows {
                return self.rows.max(1);
            }
        }
        d.max(1)
    }

    /// `D` over the attributes of a sort key.
    pub fn distinct_key(&self, key: &SortSpec) -> u64 {
        self.distinct_set(&key.attr_set())
    }
}

/// Attributes pinned to a single value by an equality somewhere in the
/// conjunction (their post-filter distinct count is 1), with the value.
fn eq_pinned_attrs(pred: &wf_exec::Predicate) -> Vec<(AttrId, Value)> {
    use wf_exec::Predicate::*;
    match pred {
        Eq(a, v) => vec![(*a, v.clone())],
        And(l, r) => {
            let mut out = eq_pinned_attrs(l);
            out.extend(eq_pinned_attrs(r));
            out
        }
        _ => Vec::new(),
    }
}

/// A planned amount of work, in the same units the tracker counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    pub io_blocks: f64,
    pub comparisons: f64,
    pub hashes: f64,
}

impl Cost {
    /// Zero cost.
    pub fn zero() -> Self {
        Cost::default()
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &Cost) -> Cost {
        Cost {
            io_blocks: self.io_blocks + other.io_blocks,
            comparisons: self.comparisons + other.comparisons,
            hashes: self.hashes + other.hashes,
        }
    }

    /// Modeled milliseconds under the weights.
    pub fn ms(&self, w: &CostWeights) -> f64 {
        self.io_blocks * w.us_per_block_io / 1_000.0
            + self.comparisons * w.ns_per_comparison / 1_000_000.0
            + self.hashes * w.ns_per_hash / 1_000_000.0
    }

    /// Component-wise scaling — how the chain-parallel model turns a serial
    /// in-span stage cost into an elapsed (critical-path) estimate: the
    /// stage's work spreads over the effective workers, so its elapsed cost
    /// is the serial cost times `1/w_eff`.
    pub fn scaled(&self, f: f64) -> Cost {
        Cost {
            io_blocks: self.io_blocks * f,
            comparisons: self.comparisons * f,
            hashes: self.hashes * f,
        }
    }
}

fn log2(x: f64) -> f64 {
    x.max(2.0).log2()
}

/// Merge fan-in for a budget of `m` blocks (mirrors the executor).
fn fan_in(m: u64) -> f64 {
    (m.saturating_sub(1)).max(2) as f64
}

/// Cost of sorting `b` blocks / `t` tuples with memory `m` (the common
/// subroutine of all three operator models).
///
/// I/O is `2·b·p` where `p = max(1, ⌈log_F(b/2M)⌉)`: one round trip for run
/// formation + read-back, plus one per *intermediate* merge level — the
/// final merge streams its output (Eq. 1 with the paper's "just one pass of
/// table I/O" reading at large `M`).
fn sort_cost(b: f64, t: f64, m: u64) -> Cost {
    let mf = m as f64;
    if b <= mf {
        // Internal sort: no I/O.
        return Cost {
            io_blocks: 0.0,
            comparisons: t * log2(t),
            hashes: 0.0,
        };
    }
    let runs0 = (b / (2.0 * mf)).ceil().max(1.0);
    let f = fan_in(m);
    let passes = if runs0 <= 1.0 {
        1.0
    } else {
        runs0.log(f).ceil().max(1.0)
    };
    let io = 2.0 * b * passes;
    // Run formation comparisons grow with the heap (rows in M), plus one
    // heap comparison chain per row per merge pass.
    let rows_in_m = (t * mf / b).max(2.0);
    let cmp = t * log2(rows_in_m) + t * passes * log2(f.min(runs0) + 1.0);
    Cost {
        io_blocks: io,
        comparisons: cmp,
        hashes: 0.0,
    }
}

/// HS partition traffic is scattered across all open bucket buffers rather
/// than one sequential stream; the paper's measurements (Fig. 3, large `M`)
/// show HS paying a small constant factor over FS's sequential passes. The
/// planner models that with this penalty on partition I/O.
const HS_PARTITION_IO_PENALTY: f64 = 1.15;

/// Eq. 1 — Full Sort of the whole relation.
pub fn fs_cost(stats: &TableStats, m: u64) -> Cost {
    sort_cost(stats.blocks() as f64, stats.rows() as f64, m)
}

/// Modeled **elapsed** cost of a partition-parallel Full Sort over `w`
/// workers (`ReorderOp::Par { inner: Fs }`): the relation is hash-scattered
/// (one hash per row, serial), every worker sorts `B/w` blocks with
/// `M_w = ⌊M/w⌋` of the unit reorder memory (`workers × M_w ≤ M`), and the
/// sorted shards are ordered-merged back serially (one heap comparison per
/// row over a `w`-ary heap).
///
/// Unlike the other operator models, this is a *critical-path* estimate:
/// the per-worker sort term appears once because the workers run
/// concurrently, so the value is comparable to the serial operators' costs
/// as elapsed time, while a parallel execution's *measured* counters sum
/// all workers' work. The planner trades this estimate against
/// [`fs_cost`]'s one big sort — the `workers × M_w ≤ M` vs `M` decision.
pub fn par_fs_cost(stats: &TableStats, m: u64, workers: usize, shard_key: &AttrSet) -> Cost {
    let w = workers.max(1) as u64;
    if w == 1 {
        return fs_cost(stats, m);
    }
    let b = stats.blocks() as f64;
    let t = stats.rows() as f64;
    // The executor's own formula, so planner and scheduler can never
    // disagree about a worker's memory grant.
    let m_w = wf_exec::per_worker_blocks(m, workers);
    // Rows can only spread over as many shards as the shard key has
    // distinct values: a low-cardinality WPK leaves workers idle, and the
    // busy ones still sort with the split memory grant. With one
    // effective shard the model correctly prices Par worse than the
    // serial FS (same sort at M/w, plus scatter and merge).
    let w_eff = w.min(stats.distinct_set(shard_key)).max(1) as f64;
    let unit = sort_cost(b / w_eff, t / w_eff, m_w);
    let merge_cmp = t * log2(w as f64 + 1.0);
    Cost {
        io_blocks: unit.io_blocks,
        comparisons: unit.comparisons + merge_cmp,
        hashes: t,
    }
}

/// Modeled **elapsed** cost of a partition-parallel Hashed Sort over `w`
/// workers (`ReorderOp::Par { inner: Hs }`): the relation is hash-scattered
/// on `WHK` (one hash per row, serial), and every worker runs Eq. 2 over
/// its `1/w_eff` share of the blocks, rows and buckets with
/// `M_w = ⌊M/w⌋` — the in-worker partitioning re-hashes the worker's share,
/// hence the `t + t/w_eff` hash term. The final reassembly is a pure
/// bucket-order interleave (no row merge), so no merge comparisons appear.
/// Effective parallelism caps at `D(WHK)` exactly like [`par_fs_cost`].
pub fn par_hs_cost(stats: &TableStats, whk: &AttrSet, m: u64, workers: usize) -> Cost {
    let w = workers.max(1) as u64;
    if w == 1 {
        return hs_cost(stats, whk, m);
    }
    let b = stats.blocks() as f64;
    let t = stats.rows() as f64;
    let m_w = wf_exec::per_worker_blocks(m, workers);
    let n = stats.distinct_set(whk) as f64;
    let w_eff = (w as f64).min(n).max(1.0);
    let b_w = b / w_eff;
    let t_w = t / w_eff;
    let n_w = (n / w_eff).max(1.0);
    let n_mem = ((m_w as f64) * n_w / b_w).floor().min(n_w);
    let partition_io = 2.0 * b_w * (1.0 - n_mem / n_w) * HS_PARTITION_IO_PENALTY;
    let bucket = sort_cost(b_w / n_w, t_w / n_w, m_w);
    Cost {
        io_blocks: partition_io + n_w * bucket.io_blocks,
        comparisons: n_w * bucket.comparisons,
        hashes: t + t / w_eff,
    }
}

/// Eq. 2 — Hashed Sort with hash key `whk`.
pub fn hs_cost(stats: &TableStats, whk: &AttrSet, m: u64) -> Cost {
    let b = stats.blocks() as f64;
    let t = stats.rows() as f64;
    let n = stats.distinct_set(whk) as f64;
    let n_mem = ((m as f64) * n / b).floor().min(n);
    let partition_io = 2.0 * b * (1.0 - n_mem / n) * HS_PARTITION_IO_PENALTY;
    let bucket = sort_cost(b / n, t / n, m);
    Cost {
        io_blocks: partition_io + n * bucket.io_blocks,
        comparisons: n * bucket.comparisons,
        hashes: t,
    }
}

/// Unit-count estimate for SS (§3.4): `u` units per segment given `k`
/// segments and the α attributes.
pub fn ss_units(stats: &TableStats, x: &AttrSet, alpha: &SortSpec, k: u64) -> u64 {
    if alpha.is_empty() {
        return 1;
    }
    let t = stats.rows().max(1);
    let k = k.max(1);
    let d_alpha = stats.distinct_key(alpha);
    let alpha_attrs = alpha.attr_set();
    let u = if alpha_attrs.intersect(x).is_empty() {
        (t / k).min(d_alpha)
    } else {
        (t / k).min((d_alpha / k).max(1))
    };
    u.max(1)
}

/// Eq. 3 — Segmented Sort over `k` segments × `u` units each.
pub fn ss_cost(stats: &TableStats, m: u64, k: u64, u: u64) -> Cost {
    let b = stats.blocks() as f64;
    let t = stats.rows() as f64;
    let units = (k.max(1) * u.max(1)) as f64;
    let unit = sort_cost(b / units, t / units, m);
    Cost {
        io_blocks: units * unit.io_blocks,
        // Boundary detection: one α comparison per row.
        comparisons: units * unit.comparisons + t,
        hashes: 0.0,
    }
}

/// Number of physical HS buckets the planner requests.
///
/// Fan-out is bounded (`MAX_BUCKETS`) like real systems, **but never so low
/// that an average bucket overflows the unit reorder memory**: with `B`
/// table blocks hashed over `n` buckets the expected bucket is `B/n`
/// blocks, so the pool budget demands `n ≥ ⌈B/M⌉`. More buckets than
/// distinct hash-key values cannot shrink buckets further (every value
/// hashes whole), so the pool-aware floor stops at `D(WHK)` — a single
/// oversized value is the MFV optimization's territory, not the bucket
/// count's.
pub fn hs_bucket_count(stats: &TableStats, whk: &AttrSet, mem_blocks: u64) -> usize {
    const MAX_BUCKETS: u64 = 1024;
    let d = stats.distinct_set(whk);
    let capped = d.clamp(1, MAX_BUCKETS);
    let pool_floor = stats.blocks().div_ceil(mem_blocks.max(1)).min(d.max(1));
    capped.max(pool_floor) as usize
}

/// Cost of the window-function invocation itself: one streaming pass.
pub fn window_scan_cost(stats: &TableStats) -> Cost {
    Cost {
        io_blocks: 0.0,
        comparisons: stats.rows() as f64,
        hashes: 0.0,
    }
}

/// Planner-facing estimate for one SS reorder given input properties.
pub fn ss_reorder_cost(
    stats: &TableStats,
    props: &SegProps,
    segments: u64,
    wf: &WindowSpec,
    m: u64,
) -> Cost {
    let split = props.alpha_split(wf);
    let u = ss_units(stats, props.x(), &split.alpha, segments);
    ss_cost(stats, m, segments, u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::{row, DataType, Row, Schema};

    fn a(i: usize) -> AttrId {
        AttrId::new(i)
    }

    fn stats(rows: u64, blocks: u64, d: &[(usize, u64)]) -> TableStats {
        TableStats::synthetic(
            rows,
            blocks * wf_storage::BLOCK_SIZE as u64,
            d.iter().map(|&(i, n)| (a(i), n)).collect(),
        )
    }

    #[test]
    fn from_table_counts_distincts() {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let mut t = Table::new(schema);
        for i in 0..10 {
            t.push(row![i % 3, i]);
        }
        let s = TableStats::from_table(&t);
        assert_eq!(s.rows(), 10);
        assert_eq!(s.distinct(a(0)), 3);
        assert_eq!(s.distinct(a(1)), 10);
        assert_eq!(
            s.distinct_set(&AttrSet::from_iter([a(0), a(1)])),
            10,
            "capped at rows"
        );
    }

    /// Narrowed statistics keep the rows and each kept column's distinct
    /// count, renumbered, and are exactly as wide as the table projected
    /// onto the kept columns.
    #[test]
    fn narrowed_stats_are_as_wide_as_the_kept_columns() {
        let schema = Schema::of(&[
            ("k", DataType::Int),
            ("pad", DataType::Str),
            ("v", DataType::Int),
        ]);
        let mut t = Table::new(schema);
        for i in 0..500 {
            t.push(row![i % 7, "padding-padding-padding-padding", i]);
        }
        let s = TableStats::from_table(&t);
        let kept = [a(2), a(0)];
        let n = s.narrowed(&kept);
        let projected: u64 = t
            .rows()
            .iter()
            .map(|r| {
                Row::new(kept.iter().map(|&c| r.get(c).clone()).collect()).encoded_len() as u64
            })
            .sum();
        assert_eq!(n.rows(), 500);
        assert_eq!(n.avg_row_bytes(), projected / 500);
        assert_eq!(
            n.blocks(),
            wf_storage::blocks_for_bytes(projected as usize).max(1)
        );
        assert!(n.blocks() < s.blocks());
        assert_eq!(n.distinct(a(0)), 500, "column 0 is v");
        assert_eq!(n.distinct(a(1)), 7, "column 1 is k");
        // A filter scales the per-column bytes with the rows.
        let f = s
            .with_predicate(&wf_exec::Predicate::Eq(a(0), 3.into()))
            .narrowed(&kept);
        assert_eq!(f.rows(), 71);
        assert!(f.avg_row_bytes().abs_diff(n.avg_row_bytes()) <= 1);
    }

    #[test]
    fn fs_io_decreases_with_memory() {
        let s = stats(100_000, 10_000, &[]);
        let small = fs_cost(&s, 8);
        let medium = fs_cost(&s, 100);
        let large = fs_cost(&s, 20_000);
        assert!(small.io_blocks > medium.io_blocks);
        assert!(medium.io_blocks > large.io_blocks);
        assert_eq!(large.io_blocks, 0.0, "fits in memory → internal");
    }

    #[test]
    fn eq1_shape_single_merge_pass() {
        // B = 10_000, M = 200: runs = 25, F = 199 → one round trip → 2B.
        let s = stats(100_000, 10_000, &[]);
        let c = fs_cost(&s, 200);
        assert_eq!(c.io_blocks, 2.0 * 10_000.0);
        // M = 8: runs = 625, F = 7 → ⌈log₇ 625⌉ = 4 passes → 8B.
        let c2 = fs_cost(&s, 8);
        assert_eq!(c2.io_blocks, 8.0 * 10_000.0);
    }

    /// The paper's Table 4/6/8/10 regime: the cost models must pick HS at
    /// the 50/75 paper-MB equivalents and FS at the 150 one (B ≈ 10.6k
    /// blocks ↔ the paper's 14.3 GB).
    #[test]
    fn fs_hs_crossover_matches_paper_memories() {
        let s = stats(400_000, 10_600, &[(0, 20_000)]);
        let whk = AttrSet::from_iter([a(0)]);
        let w = CostWeights::default();
        let m_50 = 37u64; // 50 MB-equivalent
        let m_75 = 56u64;
        let m_150 = 111u64;
        assert!(hs_cost(&s, &whk, m_50).ms(&w) < fs_cost(&s, m_50).ms(&w));
        assert!(hs_cost(&s, &whk, m_75).ms(&w) < fs_cost(&s, m_75).ms(&w));
        assert!(fs_cost(&s, m_150).ms(&w) < hs_cost(&s, &whk, m_150).ms(&w));
    }

    /// The parallel FS model: elapsed cost shrinks with workers (shards
    /// sort concurrently) despite the serial scatter and merge terms, and
    /// one worker degenerates to the serial model exactly.
    #[test]
    fn par_fs_cost_shrinks_with_workers() {
        let s = stats(400_000, 10_600, &[(0, 20_000), (1, 2)]);
        let wide = AttrSet::from_iter([a(0)]);
        let w = CostWeights::default();
        let m = 37;
        assert_eq!(par_fs_cost(&s, m, 1, &wide), fs_cost(&s, m));
        let serial = fs_cost(&s, m).ms(&w);
        let par4 = par_fs_cost(&s, m, 4, &wide).ms(&w);
        assert!(par4 < serial, "par {par4} vs serial {serial}");
        assert!(
            par_fs_cost(&s, m, 4, &wide).hashes > 0.0,
            "scatter is priced"
        );
        // More workers with the same M keep the memory constraint: the
        // model never assumes more than M across the pool.
        let par8 = par_fs_cost(&s, m, 8, &wide).ms(&w);
        assert!(par8 < serial);
        // A low-cardinality shard key caps the effective parallelism: one
        // distinct value means one busy worker sorting everything at the
        // split grant — priced worse than the serial sort, never better.
        let narrow = AttrSet::from_iter([a(1)]);
        let skewed = par_fs_cost(&s, m, 4, &narrow).ms(&w);
        assert!(
            par_fs_cost(&s, m, 4, &narrow).comparisons > par_fs_cost(&s, m, 4, &wide).comparisons
        );
        let single = stats(400_000, 10_600, &[(1, 1)]);
        let degenerate = par_fs_cost(&single, m, 4, &narrow).ms(&w);
        assert!(
            degenerate > fs_cost(&single, m).ms(&w),
            "one shard: Par must price worse than serial FS"
        );
        let _ = skewed;
    }

    /// WHERE-selectivity statistics: equality scales cardinality by
    /// `1/D(attr)` and pins the attribute's distinct count to one; other
    /// distinct counts cap at the surviving rows; AND multiplies.
    #[test]
    fn with_predicate_scales_cardinalities() {
        use wf_exec::Predicate;
        let s = stats(400_000, 10_600, &[(0, 1_800), (1, 20_000)]);
        let eq = s.with_predicate(&Predicate::Eq(a(0), Value::Int(7)));
        assert_eq!(eq.rows(), (400_000.0_f64 / 1_800.0).round() as u64);
        assert_eq!(eq.distinct(a(0)), 1, "equality pins the column");
        assert!(eq.distinct(a(1)) <= eq.rows(), "capped at survivors");
        assert!(eq.blocks() < s.blocks());

        let range = s.with_predicate(&Predicate::Gt(a(1), Value::Int(0)));
        assert_eq!(range.rows(), (400_000.0_f64 / 3.0).round() as u64);
        assert_eq!(range.distinct(a(0)), 1_800, "no pinning without equality");

        // An equality-pinned column's histogram becomes exact: every
        // surviving row holds the predicate's value, so an oversized MFV
        // partition the filter selects stays visible to mfv_for.
        let skewed = s
            .clone()
            .with_hot_values(a(0), vec![(Value::Int(7), 399_000)]);
        let hit = skewed.with_predicate(&Predicate::Eq(a(0), Value::Int(7)));
        assert_eq!(
            hit.mfv_for(&AttrSet::from_iter([a(0)]), 4),
            vec![vec![Value::Int(7)]],
            "selected hot value keeps its (surviving) mass"
        );

        let conj = s.with_predicate(&Predicate::And(
            Box::new(Predicate::Gt(a(1), Value::Int(0))),
            Box::new(Predicate::Between(a(0), Value::Int(1), Value::Int(9))),
        ));
        assert_eq!(conj.rows(), (400_000.0_f64 / 12.0).round() as u64);
        // Never below one row: planning stays well-defined.
        let tiny = stats(2, 1, &[(0, 2)]);
        assert!(
            tiny.with_predicate(&Predicate::Eq(a(0), Value::Int(0)))
                .rows()
                >= 1
        );
    }

    /// The parallel HS model: one worker degenerates to Eq. 2 exactly;
    /// more workers shrink the elapsed estimate (shares partition and sort
    /// concurrently) while the scatter's extra hashes stay priced; a
    /// low-cardinality hash key caps the effective parallelism.
    #[test]
    fn par_hs_cost_shrinks_with_workers() {
        let s = stats(400_000, 10_600, &[(0, 20_000), (1, 2)]);
        let wide = AttrSet::from_iter([a(0)]);
        let w = CostWeights::default();
        let m = 37;
        assert_eq!(par_hs_cost(&s, &wide, m, 1), hs_cost(&s, &wide, m));
        let serial = hs_cost(&s, &wide, m).ms(&w);
        let par4 = par_hs_cost(&s, &wide, m, 4);
        assert!(
            par4.ms(&w) < serial,
            "par {} vs serial {serial}",
            par4.ms(&w)
        );
        assert!(
            par4.hashes > hs_cost(&s, &wide, m).hashes,
            "scatter re-hash is priced"
        );
        // D(WHK)=2 caps w_eff at 2: the narrow key's elapsed estimate is
        // worse than the wide key's at the same worker count, and its
        // scatter still pays the bigger per-worker share's re-hash.
        let narrow = AttrSet::from_iter([a(1)]);
        let skewed = par_hs_cost(&s, &narrow, m, 4);
        assert!(skewed.ms(&w) > par4.ms(&w));
        assert!(skewed.hashes > par4.hashes);
    }

    #[test]
    fn cost_scaled_is_componentwise() {
        let c = Cost {
            io_blocks: 10.0,
            comparisons: 6.0,
            hashes: 4.0,
        };
        let half = c.scaled(0.5);
        assert_eq!(half.io_blocks, 5.0);
        assert_eq!(half.comparisons, 3.0);
        assert_eq!(half.hashes, 2.0);
    }

    #[test]
    fn hs_flat_io_and_beats_fs_at_small_memory() {
        // Medium partition count: buckets fit memory → HS ≈ 2B while FS
        // multi-passes.
        let s = stats(400_000, 10_000, &[(0, 20_000)]);
        let whk = AttrSet::from_iter([a(0)]);
        let m = 8;
        let hs = hs_cost(&s, &whk, m);
        let fs = fs_cost(&s, m);
        assert!(
            hs.io_blocks < fs.io_blocks,
            "HS {} vs FS {}",
            hs.io_blocks,
            fs.io_blocks
        );
        // Flatness: HS I/O barely moves across M.
        let hs_big = hs_cost(&s, &whk, 120);
        assert!((hs.io_blocks - hs_big.io_blocks).abs() / hs.io_blocks < 0.2);
    }

    #[test]
    fn fs_beats_hs_at_large_memory() {
        let s = stats(400_000, 10_000, &[(0, 20_000)]);
        let whk = AttrSet::from_iter([a(0)]);
        let w = CostWeights::default();
        // One-pass regime for FS.
        let m = 120;
        let fs = fs_cost(&s, m).ms(&w);
        let hs = hs_cost(&s, &whk, m).ms(&w);
        assert!(fs < hs, "FS {fs} should beat HS {hs} at M=120 blocks");
    }

    #[test]
    fn ss_cheapest_of_all() {
        let s = stats(400_000, 10_000, &[(0, 100), (1, 20_000)]);
        let m = 8;
        let alpha = SortSpec::new(vec![wf_common::OrdElem::asc(a(0))]);
        let u = ss_units(&s, &AttrSet::empty(), &alpha, 1);
        let ss = ss_cost(&s, m, 1, u);
        let fs = fs_cost(&s, m);
        let hs = hs_cost(&s, &AttrSet::from_iter([a(0)]), m);
        let w = CostWeights::default();
        assert!(ss.ms(&w) < fs.ms(&w));
        assert!(ss.ms(&w) < hs.ms(&w));
    }

    #[test]
    fn ss_units_paper_cases() {
        let s = stats(72_000, 1_000, &[(0, 100), (1, 7_200)]);
        // α empty → one unit per segment.
        assert_eq!(ss_units(&s, &AttrSet::empty(), &SortSpec::empty(), 5), 1);
        // α disjoint from X: u = min(T/k, D(α)).
        let alpha = SortSpec::new(vec![wf_common::OrdElem::asc(a(0))]);
        assert_eq!(ss_units(&s, &AttrSet::from_iter([a(1)]), &alpha, 10), 100);
        // α overlapping X: u = min(T/k, D(α)/k).
        let alpha_x = SortSpec::new(vec![wf_common::OrdElem::asc(a(1))]);
        assert_eq!(ss_units(&s, &AttrSet::from_iter([a(1)]), &alpha_x, 10), 720);
    }

    #[test]
    fn bucket_count_capped() {
        let s = stats(1_000_000, 50_000, &[(0, 5), (1, 900_000)]);
        // A generous budget leaves the classic clamp: min(D, 1024).
        let m = s.blocks();
        assert_eq!(hs_bucket_count(&s, &AttrSet::from_iter([a(0)]), m), 5);
        assert_eq!(hs_bucket_count(&s, &AttrSet::from_iter([a(1)]), m), 1024);
    }

    #[test]
    fn bucket_count_respects_pool_budget() {
        let s = stats(1_000_000, 50_000, &[(0, 5), (1, 900_000)]);
        let blocks = s.blocks();
        // Tiny budget: enough buckets that an expected bucket fits M —
        // ⌈B/M⌉, above the 1024 fan-out cap when the budget demands it.
        let m = 4;
        let n = hs_bucket_count(&s, &AttrSet::from_iter([a(1)]), m) as u64;
        assert_eq!(n, blocks.div_ceil(m));
        assert!(blocks.div_ceil(n) <= m, "expected bucket must fit M");
        // …but never more buckets than distinct values: extra buckets
        // cannot split a single hash-key value.
        assert_eq!(hs_bucket_count(&s, &AttrSet::from_iter([a(0)]), 1), 5);
    }

    #[test]
    fn mfv_detection_from_hot_values() {
        use wf_common::row;
        use wf_common::{DataType, Schema};
        // 60% of rows share item=0; its partition alone exceeds 4 blocks.
        let schema = Schema::of(&[("item", DataType::Int), ("pad", DataType::Str)]);
        let mut t = Table::new(schema);
        let pad = "x".repeat(120);
        for i in 0..1000 {
            t.push(row![if i % 10 < 6 { 0i64 } else { i as i64 }, pad.clone()]);
        }
        let s = TableStats::from_table(&t);
        let whk = AttrSet::from_iter([a(0)]);
        let mfv_small = s.mfv_for(&whk, 4);
        assert_eq!(mfv_small, vec![vec![Value::Int(0)]]);
        // With a huge budget nothing qualifies.
        assert!(s.mfv_for(&whk, 1_000_000).is_empty());
        // Multi-attribute hash keys carry no histogram.
        assert!(s.mfv_for(&AttrSet::from_iter([a(0), a(1)]), 4).is_empty());
        // Synthetic stats without hot values yield nothing.
        let syn = TableStats::synthetic(1000, 100_000, vec![(a(0), 10)]);
        assert!(syn.mfv_for(&whk, 4).is_empty());
        // ... unless declared explicitly.
        let syn2 = TableStats::synthetic(1000, 1_000_000, vec![(a(0), 10)])
            .with_hot_values(a(0), vec![(Value::Int(7), 900)]);
        assert_eq!(syn2.mfv_for(&whk, 4), vec![vec![Value::Int(7)]]);
    }

    #[test]
    fn cost_arithmetic() {
        let c1 = Cost {
            io_blocks: 10.0,
            comparisons: 5.0,
            hashes: 1.0,
        };
        let c2 = c1.plus(&Cost::zero());
        assert_eq!(c1, c2);
        let w = CostWeights::default();
        assert!(c1.ms(&w) > 0.0);
    }
}
