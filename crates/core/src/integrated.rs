//! Integrated window-query optimization (paper §5).
//!
//! The loose approach optimizes the non-window query, the window chain and
//! the final ORDER BY separately; the tight approach enumerates *interesting
//! property* variants of the windowed table (e.g. a GROUP BY can deliver a
//! grouped or sorted table at some extra cost) and picks the combination
//! that minimizes chain cost **plus** the residual ORDER BY cost — which is
//! zero when the chain's final properties already satisfy the ORDER BY, a
//! partial (segmented) sort when a prefix is satisfied, and a full sort
//! otherwise. [`optimize`] classifies and prices the ORDER BY with every
//! chain ([`crate::plan::FinalOrder`]) and the runtime runs that sort as the
//! chain's last step; this module only weighs the input variants.

use crate::cost::TableStats;
use crate::plan::Plan;
use crate::planner::{optimize, Scheme};
use crate::props::SegProps;
use crate::query::WindowQuery;
use crate::runtime::ExecEnv;
use wf_common::Result;

/// One way the upstream plan could deliver the windowed table.
#[derive(Debug, Clone)]
pub struct InputVariant {
    /// Label for reports (e.g. "heap", "sorted by group-by").
    pub label: String,
    /// Physical properties delivered.
    pub props: SegProps,
    /// Physical segment count delivered.
    pub segments: u64,
    /// Extra cost (modeled ms) of producing this variant instead of the
    /// cheapest one.
    pub setup_cost_ms: f64,
}

impl InputVariant {
    /// The plain heap table: unordered, free.
    pub fn heap() -> Self {
        InputVariant {
            label: "heap".into(),
            props: SegProps::unordered(),
            segments: 1,
            setup_cost_ms: 0.0,
        }
    }
}

/// Result of integrated optimization.
#[derive(Debug)]
pub struct IntegratedPlan {
    /// Index of the chosen input variant.
    pub variant: usize,
    /// The chain, with its final ORDER BY classified and priced
    /// ([`Plan::final_order`]).
    pub plan: Plan,
    /// Chain + ORDER BY + variant setup, modeled ms.
    pub total_ms: f64,
}

/// Pick the best (variant, chain) combination for a query with an optional
/// ORDER BY (§5's tightly integrated approach).
pub fn optimize_integrated(
    query: &WindowQuery,
    variants: &[InputVariant],
    stats: &TableStats,
    scheme: Scheme,
    env: &ExecEnv,
) -> Result<IntegratedPlan> {
    let weights = env.weights();
    let mut best: Option<IntegratedPlan> = None;
    for (vi, variant) in variants.iter().enumerate() {
        let mut q = query.clone();
        q.input_props = variant.props.clone();
        q.input_segments = variant.segments;
        // `optimize` prices the ORDER BY with the chain.
        let plan = optimize(&q, stats, scheme, env)?;
        let total_ms = variant.setup_cost_ms + plan.est_cost.ms(&weights);
        if best.as_ref().is_none_or(|b| total_ms < b.total_ms) {
            best = Some(IntegratedPlan {
                variant: vi,
                plan,
                total_ms,
            });
        }
    }
    best.ok_or_else(|| wf_common::Error::Planning("no input variants supplied".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FinalOrder;
    use crate::query::QueryBuilder;
    use wf_common::{AttrId, DataType, OrdElem, Schema, SortSpec};

    fn a(i: usize) -> AttrId {
        AttrId::new(i)
    }
    fn key(ids: &[usize]) -> SortSpec {
        SortSpec::new(ids.iter().map(|&i| OrdElem::asc(a(i))).collect())
    }
    fn schema() -> Schema {
        Schema::of(&[
            ("g", DataType::Int),
            ("v", DataType::Int),
            ("w", DataType::Int),
        ])
    }
    fn stats() -> TableStats {
        TableStats::synthetic(
            400_000,
            10_600 * wf_storage::BLOCK_SIZE as u64,
            vec![(a(0), 500), (a(1), 50_000), (a(2), 50_000)],
        )
    }

    /// A GROUP BY-sorted variant is worth a modest setup cost because the
    /// chain then needs only SS.
    #[test]
    fn sorted_variant_wins_when_cheap_enough() {
        let s = schema();
        let q = QueryBuilder::new(&s)
            .rank("r", &["g"], &[("v", false)])
            .build()
            .unwrap();
        let st = stats();
        let env = ExecEnv::with_memory_blocks(37);
        let variants = vec![
            InputVariant::heap(),
            InputVariant {
                label: "sorted by g".into(),
                props: SegProps::sorted(key(&[0])),
                segments: 1,
                setup_cost_ms: 10.0,
            },
        ];
        let best = optimize_integrated(&q, &variants, &st, Scheme::Cso, &env).unwrap();
        assert_eq!(best.variant, 1, "sorted variant should win");
        // And with an absurd setup cost the heap wins.
        let pricey = vec![
            InputVariant::heap(),
            InputVariant {
                label: "sorted by g".into(),
                props: SegProps::sorted(key(&[0])),
                segments: 1,
                setup_cost_ms: 1e12,
            },
        ];
        let best2 = optimize_integrated(&q, &pricey, &st, Scheme::Cso, &env).unwrap();
        assert_eq!(best2.variant, 0);
    }

    /// ORDER BY satisfied by the chain output costs nothing; a conflicting
    /// one forces a final sort that the total reflects.
    #[test]
    fn order_by_influences_total() {
        let s = schema();
        let q_sat = QueryBuilder::new(&s)
            .rank("r", &["g"], &[("v", false)])
            .order_by(&[("g", false), ("v", false)])
            .build()
            .unwrap();
        let q_full = QueryBuilder::new(&s)
            .rank("r", &["g"], &[("v", false)])
            .order_by(&[("w", false)])
            .build()
            .unwrap();
        let st = stats();
        // Large memory → the serial chain ends with FS (total order) and
        // the satisfied case needs nothing. Pinned serial: under a worker
        // budget the planner may prefer a Par{Hs} chain whose grouped
        // output changes the final-order classification this test pins.
        let env = ExecEnv::with_memory_blocks(111).with_par_workers(1);
        let sat =
            optimize_integrated(&q_sat, &[InputVariant::heap()], &st, Scheme::Cso, &env).unwrap();
        assert_eq!(sat.plan.final_order, FinalOrder::Satisfied);
        let full =
            optimize_integrated(&q_full, &[InputVariant::heap()], &st, Scheme::Cso, &env).unwrap();
        assert_eq!(full.plan.final_order, FinalOrder::FullSort);
        assert!(full.total_ms > sat.total_ms);
    }

    #[test]
    fn partial_sort_detected() {
        let s = schema();
        let q = QueryBuilder::new(&s)
            .rank("r", &["g"], &[("v", false)])
            .order_by(&[("g", false), ("w", false)])
            .build()
            .unwrap();
        let st = stats();
        // Pinned serial for the same reason as `order_by_influences_total`.
        let env = ExecEnv::with_memory_blocks(111).with_par_workers(1);
        let best =
            optimize_integrated(&q, &[InputVariant::heap()], &st, Scheme::Cso, &env).unwrap();
        assert_eq!(
            best.plan.final_order,
            FinalOrder::PartialSort { prefix_len: 1 }
        );
    }

    #[test]
    fn no_variants_is_an_error() {
        let s = schema();
        let q = QueryBuilder::new(&s)
            .rank("r", &["g"], &[])
            .build()
            .unwrap();
        let st = stats();
        let env = ExecEnv::with_memory_blocks(37);
        assert!(optimize_integrated(&q, &[], &st, Scheme::Cso, &env).is_err());
    }
}
