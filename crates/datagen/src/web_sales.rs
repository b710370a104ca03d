//! The synthetic `web_sales` table.
//!
//! The paper uses TPC-DS SF-100 `web_sales`: 72 M tuples, 14.3 GB, 214 B
//! average width, uniform attributes. This generator reproduces the *shape*
//! at laptop scale: configurable row count, per-column distinct counts
//! chosen so each experiment stays in the paper's regime (see DESIGN.md
//! §5's scaling notes), and a padding column for realistic row width.

use crate::rng::SplitMix64;
use wf_common::{AttrId, DataType, Row, Schema, Text, Value};
use wf_storage::Table;

/// Columns of the generated table, in schema order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WsColumn {
    SoldDate,
    SoldTime,
    ShipDate,
    Item,
    Bill,
    Warehouse,
    Quantity,
    OrderNumber,
    Padding,
}

impl WsColumn {
    /// Attribute id (schema position).
    pub fn attr(self) -> AttrId {
        AttrId::new(self as usize)
    }

    /// Column name (paper Table 2 abbreviations in comments).
    pub fn name(self) -> &'static str {
        match self {
            WsColumn::SoldDate => "ws_sold_date_sk", // date
            WsColumn::SoldTime => "ws_sold_time_sk", // time
            WsColumn::ShipDate => "ws_ship_date_sk", // ship
            WsColumn::Item => "ws_item_sk",          // item
            WsColumn::Bill => "ws_bill_customer_sk", // bill
            WsColumn::Warehouse => "ws_warehouse_sk",
            WsColumn::Quantity => "ws_quantity",
            WsColumn::OrderNumber => "ws_order_number",
            WsColumn::Padding => "ws_padding",
        }
    }
}

/// Generator configuration. Defaults follow DESIGN.md's scaling of the
/// paper's SF-100 table.
#[derive(Debug, Clone)]
pub struct WsConfig {
    pub rows: usize,
    pub d_date: u64,
    pub d_time: u64,
    pub d_ship: u64,
    /// "Medium" partition count for Q1 (paper: 204 000 of 72 M).
    pub d_item: u64,
    /// Together with `d_item`, makes (item, bill) ≈ unique for Q2.
    pub d_bill: u64,
    /// "Extremely small" partition count for Q3 (paper: 16).
    pub d_warehouse: u64,
    /// TPC-DS domain 1..=100, used by Q4/Q5.
    pub d_quantity: u64,
    /// Bytes of string padding per row (≈ 214-byte paper rows).
    pub padding: usize,
    pub seed: u64,
}

impl Default for WsConfig {
    fn default() -> Self {
        WsConfig {
            rows: 400_000,
            d_date: 1_800,
            d_time: 43_200,
            d_ship: 1_800,
            d_item: 20_000,
            d_bill: 40_000,
            d_warehouse: 16,
            d_quantity: 100,
            padding: 135,
            seed: 42,
        }
    }
}

impl WsConfig {
    /// A small configuration for tests.
    pub fn small(rows: usize) -> Self {
        WsConfig {
            rows,
            d_item: (rows as u64 / 20).max(4),
            d_bill: (rows as u64 / 10).max(4),
            ..WsConfig::default()
        }
    }

    /// The table schema.
    pub fn schema(&self) -> Schema {
        Schema::of(&[
            (WsColumn::SoldDate.name(), DataType::Int),
            (WsColumn::SoldTime.name(), DataType::Int),
            (WsColumn::ShipDate.name(), DataType::Int),
            (WsColumn::Item.name(), DataType::Int),
            (WsColumn::Bill.name(), DataType::Int),
            (WsColumn::Warehouse.name(), DataType::Int),
            (WsColumn::Quantity.name(), DataType::Int),
            (WsColumn::OrderNumber.name(), DataType::Int),
            (WsColumn::Padding.name(), DataType::Str),
        ])
    }

    /// Generate the base (unordered) table.
    pub fn generate(&self) -> Table {
        let mut rng = SplitMix64::seed_from_u64(self.seed);
        let mut table = Table::new(self.schema());
        let pad = Text::from("x".repeat(self.padding));
        for order in 0..self.rows {
            let row = Row::new(vec![
                Value::Int(rng.random_below(self.d_date) as i64),
                Value::Int(rng.random_below(self.d_time) as i64),
                Value::Int(rng.random_below(self.d_ship) as i64),
                Value::Int(rng.random_below(self.d_item) as i64),
                Value::Int(rng.random_below(self.d_bill) as i64),
                Value::Int(rng.random_below(self.d_warehouse) as i64),
                Value::Int(1 + rng.random_below(self.d_quantity) as i64),
                Value::Int(order as i64),
                Value::Str(pad.clone()),
            ]);
            table.push(row);
        }
        table
    }

    /// `web_sales_s`: the base table totally sorted on a column
    /// (§6.1 part 2 sorts on `ws_quantity`).
    pub fn generate_sorted_on(&self, col: WsColumn) -> Table {
        let base = self.generate();
        let schema = base.schema().clone();
        let mut rows = base.into_rows();
        let attr = col.attr();
        rows.sort_by(|a, b| a.get(attr).cmp(b.get(attr)));
        Table::from_rows(schema, rows).expect("sorted variant keeps schema")
    }

    /// `web_sales_g`: grouped (each value's rows contiguous) but neither
    /// the groups nor the rows within a group are sorted.
    pub fn generate_grouped_on(&self, col: WsColumn) -> Table {
        let base = self.generate();
        let schema = base.schema().clone();
        let attr = col.attr();
        // Bucket rows by value, then emit buckets in hash order (arbitrary
        // but deterministic, and decidedly not sorted).
        let mut buckets: std::collections::HashMap<Value, Vec<Row>> =
            std::collections::HashMap::new();
        for row in base.into_rows() {
            buckets.entry(row.get(attr).clone()).or_default().push(row);
        }
        let mut keyed: Vec<(u64, Vec<Row>)> = buckets
            .into_iter()
            .map(|(v, rows)| {
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                v.hash(&mut h);
                (h.finish(), rows)
            })
            .collect();
        keyed.sort_by_key(|(h, _)| *h);
        let mut out = Table::new(schema);
        for (_, rows) in keyed {
            for r in rows {
                out.push(r);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_in_seed() {
        let cfg = WsConfig::small(500);
        let t1 = cfg.generate();
        let t2 = cfg.generate();
        assert_eq!(t1.rows(), t2.rows());
        let t3 = WsConfig {
            seed: 7,
            ..WsConfig::small(500)
        }
        .generate();
        assert_ne!(t1.rows(), t3.rows());
    }

    #[test]
    fn respects_domains_and_row_count() {
        let cfg = WsConfig::small(2_000);
        let t = cfg.generate();
        assert_eq!(t.row_count(), 2_000);
        let wh = WsColumn::Warehouse.attr();
        let q = WsColumn::Quantity.attr();
        for row in t.rows() {
            let w = row.get(wh).as_int().unwrap();
            assert!((0..16).contains(&w));
            let qty = row.get(q).as_int().unwrap();
            assert!((1..=100).contains(&qty));
        }
        // Order numbers unique.
        let orders: HashSet<i64> = t
            .rows()
            .iter()
            .map(|r| r.get(WsColumn::OrderNumber.attr()).as_int().unwrap())
            .collect();
        assert_eq!(orders.len(), 2_000);
    }

    #[test]
    fn row_width_near_paper() {
        let t = WsConfig {
            rows: 10,
            ..WsConfig::default()
        }
        .generate();
        let w = t.avg_row_bytes();
        assert!(
            (200..=228).contains(&w),
            "avg width {w} should approximate 214 B"
        );
    }

    #[test]
    fn sorted_variant_is_sorted() {
        let t = WsConfig::small(1_000).generate_sorted_on(WsColumn::Quantity);
        let q = WsColumn::Quantity.attr();
        assert!(t.rows().windows(2).all(|w| w[0].get(q) <= w[1].get(q)));
        assert_eq!(t.row_count(), 1_000);
    }

    #[test]
    fn grouped_variant_is_grouped_not_sorted() {
        let t = WsConfig::small(2_000).generate_grouped_on(WsColumn::Quantity);
        let q = WsColumn::Quantity.attr();
        // Grouped: each value appears in exactly one contiguous run.
        let mut seen: HashSet<i64> = HashSet::new();
        let mut last: Option<i64> = None;
        for row in t.rows() {
            let v = row.get(q).as_int().unwrap();
            if last != Some(v) {
                assert!(seen.insert(v), "value {v} appeared in two runs");
                last = Some(v);
            }
        }
        // Not sorted: with 100 groups in hash order, ascending order is
        // essentially impossible.
        let sorted = t.rows().windows(2).all(|w| w[0].get(q) <= w[1].get(q));
        assert!(!sorted, "grouped variant should not be fully sorted");
    }

    #[test]
    fn schema_resolves_paper_columns() {
        let s = WsConfig::default().schema();
        assert_eq!(s.resolve("ws_item_sk").unwrap(), WsColumn::Item.attr());
        assert_eq!(s.resolve("ws_quantity").unwrap(), WsColumn::Quantity.attr());
        assert_eq!(s.len(), 9);
    }
}
