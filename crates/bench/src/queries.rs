//! The paper's benchmark queries, expressed against the `web_sales`
//! generator schema.
//!
//! * Table 1: Q1–Q5 (micro-benchmark, single `rank()` each),
//! * Tables 3/5/7/9: the window-function sets of Q6–Q9. Attribute
//!   abbreviations per Table 2: `date = ws_sold_date_sk`,
//!   `time = ws_sold_time_sk`, `ship = ws_ship_date_sk`,
//!   `item = ws_item_sk`, `bill = ws_bill_customer_sk`,
//! * the two-window parallel chain `repro explain par` plans and traces.

use wf_common::{OrdElem, SortSpec};
use wf_core::query::WindowQuery;
use wf_core::spec::{WindowFunction, WindowSpec};
use wf_datagen::{WsColumn, WsConfig};

fn spec(name: &str, wpk: &[WsColumn], wok: &[WsColumn]) -> WindowSpec {
    WindowSpec::rank(
        name,
        wpk.iter().map(|c| c.attr()).collect(),
        SortSpec::new(wok.iter().map(|c| OrdElem::asc(c.attr())).collect()),
    )
}

use WsColumn::{
    Bill, Item, Quantity, ShipDate as Ship, SoldDate as Date, SoldTime as Time, Warehouse,
};

/// Q1 (Table 1): WPK = {item}, WOK = (time) — "medium" partition count.
pub fn q1() -> WindowSpec {
    spec("rank_q1", &[Item], &[Time])
}

/// Q2 (Table 1): WPK = {item, bill} — "extremely large" partition count.
pub fn q2() -> WindowSpec {
    spec("rank_q2", &[Item, Bill], &[Time])
}

/// Q3 (Table 1): WPK = {warehouse} — 16 partitions.
pub fn q3() -> WindowSpec {
    spec("rank_q3", &[Warehouse], &[Time])
}

/// Q4/Q5 (Table 1): WPK = {quantity}, WOK = (item), over `web_sales_s` /
/// `web_sales_g`.
pub fn q4_q5() -> WindowSpec {
    spec("rank_q45", &[Quantity], &[Item])
}

/// Q6 (Table 3).
pub fn q6(cfg: &WsConfig) -> WindowQuery {
    WindowQuery::new(
        cfg.schema(),
        vec![spec("wf1", &[Item], &[Date]), spec("wf2", &[Item], &[Bill])],
    )
}

/// Q7 (Table 5) — the Oracle running example.
pub fn q7(cfg: &WsConfig) -> WindowQuery {
    WindowQuery::new(
        cfg.schema(),
        vec![
            spec("wf1", &[Date, Time, Ship], &[]),
            spec("wf2", &[Time, Date], &[]),
            spec("wf3", &[Item], &[]),
            spec("wf4", &[], &[Item, Bill]),
            spec("wf5", &[Date, Time, Item, Bill], &[Ship]),
        ],
    )
}

/// Q8 (Table 7) — Q7 with item moved into wf4's WPK and bill into wf5's
/// WOK.
pub fn q8(cfg: &WsConfig) -> WindowQuery {
    WindowQuery::new(
        cfg.schema(),
        vec![
            spec("wf1", &[Date, Time, Ship], &[]),
            spec("wf2", &[Time, Date], &[]),
            spec("wf3", &[Item], &[]),
            spec("wf4", &[Item], &[Bill]),
            spec("wf5", &[Date, Time, Item], &[Bill, Ship]),
        ],
    )
}

/// Q9 (Table 9) — eight window functions.
pub fn q9(cfg: &WsConfig) -> WindowQuery {
    WindowQuery::new(
        cfg.schema(),
        vec![
            spec("wf1", &[Item], &[Bill, Date]),
            spec("wf2", &[Item, Time], &[Date]),
            spec("wf3", &[Item], &[Time]),
            spec("wf4", &[], &[Item, Date]),
            spec("wf5", &[Bill, Date], &[Time]),
            spec("wf6", &[Bill], &[Time]),
            spec("wf7", &[Date, Time], &[]),
            spec("wf8", &[], &[Time]),
        ],
    )
}

/// Worker budget `repro explain par` plans [`par_chain_query`] under.
pub const PAR_WORKERS: usize = 4;

/// The parallel chain: a rank and a one-pass SUM sharing the partition key,
/// so the planner can run both inside one `Par` span (the benchmark's
/// `par_chain` statement is the same query as SQL).
pub fn par_chain_query(cfg: &WsConfig) -> WindowQuery {
    WindowQuery::new(
        cfg.schema(),
        vec![
            spec("r", &[Item], &[Time]),
            WindowSpec::new(
                "s",
                WindowFunction::Sum(Quantity.attr()),
                vec![Item.attr()],
                SortSpec::new(vec![OrdElem::asc(Warehouse.attr())]),
            ),
        ],
    )
}

/// The attribute pool for Table 11's random queries (Table 2's columns).
pub fn table11_pool() -> Vec<wf_common::AttrId> {
    vec![
        Date.attr(),
        Time.attr(),
        Ship.attr(),
        Item.attr(),
        Bill.attr(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_arities_match_paper() {
        let cfg = WsConfig::default();
        assert_eq!(q6(&cfg).specs.len(), 2);
        assert_eq!(q7(&cfg).specs.len(), 5);
        assert_eq!(q8(&cfg).specs.len(), 5);
        assert_eq!(q9(&cfg).specs.len(), 8);
        assert_eq!(q1().wpk().len(), 1);
        assert_eq!(q2().wpk().len(), 2);
        assert_eq!(q3().wpk().len(), 1);
        assert_eq!(q4_q5().wok().len(), 1);
        assert_eq!(table11_pool().len(), 5);
    }

    #[test]
    fn q8_differs_from_q7_as_described() {
        let cfg = WsConfig::default();
        let q7 = q7(&cfg);
        let q8 = q8(&cfg);
        // wf4: item moves from WOK into WPK.
        assert!(q7.specs[3].wpk().is_empty());
        assert!(q8.specs[3].wpk().contains(WsColumn::Item.attr()));
        // wf5: bill moves from WPK into WOK.
        assert!(q7.specs[4].wpk().contains(WsColumn::Bill.attr()));
        assert!(!q8.specs[4].wpk().contains(WsColumn::Bill.attr()));
    }
}
