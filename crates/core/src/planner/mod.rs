//! The four optimization schemes the paper evaluates (§6), plus the CSO
//! ablations used for Q6 (Fig. 5).

mod bfo;
mod cso;
mod orcl;
mod psql;

pub use bfo::{plan_bfo, BfoOptions};
pub use cso::plan_cso;
pub use orcl::plan_orcl;
pub use psql::plan_psql;

use crate::cost::TableStats;
use crate::plan::{order_by_cost, Plan, PlanContext};
use crate::query::WindowQuery;
use crate::runtime::ExecEnv;
use wf_common::Result;

/// Which optimizer to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Cover-set based optimization (§4) — the paper's contribution.
    Cso,
    /// CSO with Hashed Sort disabled (Q6's CSO(v1)).
    CsoNoHs,
    /// CSO with Segmented Sort disabled (Q6's CSO(v2)).
    CsoNoSs,
    /// Brute force: exhaustive search over orders, operators and keys.
    Bfo,
    /// Oracle 8i: ordering groups (= cover sets) with FS-only reordering.
    Orcl,
    /// PostgreSQL 9.1: SELECT order, FS-only, written-order sort keys,
    /// reorder skipped when the input matches.
    Psql,
}

impl Scheme {
    /// All schemes, in the order the paper's figures list them.
    pub fn all() -> [Scheme; 6] {
        [
            Scheme::Bfo,
            Scheme::Cso,
            Scheme::CsoNoHs,
            Scheme::CsoNoSs,
            Scheme::Orcl,
            Scheme::Psql,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Cso => "CSO",
            Scheme::CsoNoHs => "CSO(v1)",
            Scheme::CsoNoSs => "CSO(v2)",
            Scheme::Bfo => "BFO",
            Scheme::Orcl => "ORCL",
            Scheme::Psql => "PSQL",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Optimize a window query under the given scheme. `env` supplies the unit
/// reorder memory and the parallel worker budget; `stats` the table
/// statistics the cost models need.
///
/// When the query carries a WHERE predicate, planning runs on the
/// **post-filter** statistics (`TableStats::with_predicate`): every reorder
/// executes downstream of the filter, so pre-filter cardinalities would
/// overestimate each operator uniformly *except* where they flip a
/// decision — the FS/HS crossover, HS bucket counts, and the parallel
/// worker trade all move with the surviving row count.
///
/// A final ORDER BY is classified against the chain's output here, once
/// ([`crate::plan::FinalOrder`]), and the sort it leaves is part of
/// `est_cost`.
///
/// `stats` are always the base table's. A query narrowed to the columns it
/// reads ([`WindowQuery::scan_columns`]) plans on the narrowed statistics
/// (`TableStats::narrowed`): the same rows, only as wide as the kept
/// columns, so every reorder is priced at the width it moves.
pub fn optimize(
    query: &WindowQuery,
    stats: &TableStats,
    scheme: Scheme,
    env: &ExecEnv,
) -> Result<Plan> {
    let filtered;
    let stats = match &query.filter {
        Some(pred) => {
            filtered = stats.with_predicate(pred);
            &filtered
        }
        None => stats,
    };
    let narrowed;
    let stats = match &query.scan_columns {
        Some(columns) => {
            narrowed = stats.narrowed(columns);
            &narrowed
        }
        None => stats,
    };
    let mut ctx = PlanContext::new(stats, env.mem_blocks());
    ctx.weights = env.weights();
    ctx.workers = env.par_workers();
    let mut plan = match scheme {
        Scheme::Cso => plan_cso(query, &ctx),
        Scheme::CsoNoHs => {
            ctx.allow_hs = false;
            plan_cso(query, &ctx)
        }
        Scheme::CsoNoSs => {
            ctx.allow_ss = false;
            plan_cso(query, &ctx)
        }
        Scheme::Bfo => plan_bfo(query, &ctx, &BfoOptions::default()),
        Scheme::Orcl => plan_orcl(query, &ctx),
        Scheme::Psql => plan_psql(query, &ctx),
    }?;
    // The WHERE predicate (if any), the scan's columns and the statement's
    // tail ride on the plan: the runtime narrows the scan, inserts a
    // FilterOp between it and the first reorder, and ends the chain with
    // the sort the final ORDER BY leaves (priced here, on the same
    // post-filter statistics as the chain) and the projection.
    plan.filter = query.filter.clone();
    plan.scan_columns = query.scan_columns.clone();
    if let Some(order) = &query.order_by {
        let (final_order, cost) = order_by_cost(&plan.final_props, order, stats, env.mem_blocks());
        plan.final_order = final_order;
        plan.est_cost = plan.est_cost.plus(&cost);
    }
    plan.order_by = query.order_by.clone();
    plan.projection = query.projection.clone();
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ReorderOp;
    use crate::spec::WindowSpec;
    use wf_common::{AttrId, DataType, OrdElem, Schema, SortSpec, Value};

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Cso.name(), "CSO");
        assert_eq!(Scheme::all().len(), 6);
        assert_eq!(Scheme::CsoNoHs.to_string(), "CSO(v1)");
    }

    fn a(i: usize) -> AttrId {
        AttrId::new(i)
    }

    fn schema5() -> Schema {
        Schema::of(&[
            ("date", DataType::Int),
            ("time", DataType::Int),
            ("ship", DataType::Int),
            ("item", DataType::Int),
            ("bill", DataType::Int),
        ])
    }

    fn stats() -> TableStats {
        TableStats::synthetic(
            400_000,
            10_600 * wf_storage::BLOCK_SIZE as u64,
            vec![
                (a(0), 1_800),
                (a(1), 86_400),
                (a(2), 1_800),
                (a(3), 20_000),
                (a(4), 40_000),
            ],
        )
    }

    fn one_rank_query() -> WindowQuery {
        WindowQuery::new(
            schema5(),
            vec![WindowSpec::rank(
                "w",
                vec![a(3)],
                SortSpec::new(vec![OrdElem::asc(a(1))]),
            )],
        )
    }

    /// WHERE selectivity drives the reorder decision: at large `M` the
    /// unfiltered plan takes FS (the paper's 150 MB regime), but a highly
    /// selective equality shrinks the post-filter input until HS's
    /// hash-then-tiny-sorts beats the full n·log n — plans must be costed
    /// on what actually flows into the reorder.
    #[test]
    fn filter_selectivity_flips_reorder_choice() {
        let s = stats();
        let env = ExecEnv::with_memory_blocks(111).with_par_workers(1);
        let unfiltered = optimize(&one_rank_query(), &s, Scheme::Cso, &env).unwrap();
        assert!(
            matches!(unfiltered.steps[0].reorder, ReorderOp::Fs { .. }),
            "{}",
            unfiltered.chain_string()
        );
        let mut q = one_rank_query();
        q.filter = Some(wf_exec::Predicate::Eq(a(0), Value::Int(7)));
        let filtered = optimize(&q, &s, Scheme::Cso, &env).unwrap();
        assert!(
            matches!(filtered.steps[0].reorder, ReorderOp::Hs { .. }),
            "{}",
            filtered.chain_string()
        );
        assert!(filtered.filter.is_some(), "predicate still rides the plan");
        assert!(filtered.est_cost.ms(&env.weights()) < unfiltered.est_cost.ms(&env.weights()));
    }

    /// The HS fan-out must be provisioned from what survives the WHERE:
    /// the emitted bucket count equals `hs_bucket_count` over the
    /// post-filter statistics, strictly below the pre-filter sizing under
    /// a selective predicate.
    #[test]
    fn hs_bucket_count_uses_post_filter_cardinality() {
        let s = stats();
        let m = 111u64;
        let env = ExecEnv::with_memory_blocks(m).with_par_workers(1);
        let pred = wf_exec::Predicate::Eq(a(0), Value::Int(7));
        let mut q = one_rank_query();
        q.filter = Some(pred.clone());
        let plan = optimize(&q, &s, Scheme::Cso, &env).unwrap();
        let ReorderOp::Hs { whk, n_buckets, .. } = &plan.steps[0].reorder else {
            panic!(
                "expected HS under the selective filter: {}",
                plan.chain_string()
            );
        };
        let post = crate::cost::hs_bucket_count(&s.with_predicate(&pred), whk, m);
        let pre = crate::cost::hs_bucket_count(&s, whk, m);
        assert_eq!(*n_buckets, post, "buckets sized from post-filter stats");
        assert!(
            post < pre,
            "selective WHERE must shrink the fan-out ({post} vs {pre})"
        );
    }

    /// With a worker budget, CSO and BFO emit the parallel reorder where
    /// the elapsed model favors it, and EXPLAIN prints the node with its
    /// worker count. Without the budget the same query plans serial.
    #[test]
    fn planners_emit_par_with_worker_budget() {
        let s = stats();
        let q = one_rank_query();
        for scheme in [Scheme::Cso, Scheme::Bfo] {
            let env = ExecEnv::with_memory_blocks(37).with_par_workers(4);
            let plan = optimize(&q, &s, scheme, &env).unwrap();
            let par_steps = plan
                .steps
                .iter()
                .filter(|st| matches!(st.reorder, ReorderOp::Par { .. }))
                .count();
            assert_eq!(par_steps, 1, "{scheme}: {}", plan.chain_string());
            assert_eq!(plan.repairs, 0, "{scheme}");
            let explain = plan.explain(&schema5());
            assert!(
                explain.contains("Parallel workers=4"),
                "{scheme}: {explain}"
            );
            assert!(explain.contains("shard={item}"), "{scheme}: {explain}");

            let serial_env = ExecEnv::with_memory_blocks(37).with_par_workers(1);
            let serial = optimize(&q, &s, scheme, &serial_env).unwrap();
            assert!(
                serial
                    .steps
                    .iter()
                    .all(|st| !matches!(st.reorder, ReorderOp::Par { .. })),
                "{scheme}: {}",
                serial.chain_string()
            );
        }
    }
}
