//! In-memory heap tables with block accounting.
//!
//! A [`Table`] stands in for the paper's windowed table: the output of the
//! non-window part of the query, over which the window-function chain runs.
//! Tables know their size in blocks (`B(R)` in the cost models) and charge
//! scan I/O to a [`CostTracker`] when asked, so a table scan costs the same
//! as reading it from the simulated device.

use crate::block::blocks_for_bytes;
use crate::cost::CostTracker;
use std::sync::Arc;
use wf_common::{Error, Result, Row, Schema};

/// A schema plus rows. Rows live behind an `Arc` so a table scan can hand
/// out zero-copy shared views ([`Table::shared_rows`]) instead of cloning
/// the relation; mutation goes through copy-on-write (`Arc::make_mut`).
/// Clones share the rows, so every statement a catalog hands a clone to
/// scans the same allocation; a mutation detaches only the handle it goes
/// through.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    rows: Arc<Vec<Row>>,
    bytes: usize,
}

impl Table {
    /// Empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            rows: Arc::new(Vec::new()),
            bytes: 0,
        }
    }

    /// Build from parts, validating arity: one pass over the rows, then the
    /// `Vec` is adopted as it is.
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        let mut bytes = 0;
        for row in &rows {
            check_arity(row, &schema)?;
            bytes += row.encoded_len();
        }
        Ok(Table {
            schema,
            rows: Arc::new(rows),
            bytes,
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Zero-copy shared view of the rows (what a streaming table scan hands
    /// to the operator chain).
    pub fn shared_rows(&self) -> Arc<Vec<Row>> {
        Arc::clone(&self.rows)
    }

    /// Consume into rows.
    pub fn into_rows(self) -> Vec<Row> {
        Arc::try_unwrap(self.rows).unwrap_or_else(|a| a.as_ref().clone())
    }

    /// Number of tuples — `T(R)`.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total encoded bytes.
    pub fn byte_size(&self) -> usize {
        self.bytes
    }

    /// Size in blocks — `B(R)`.
    pub fn block_count(&self) -> u64 {
        blocks_for_bytes(self.bytes)
    }

    /// Append a row without arity checking (hot path; debug-asserted).
    pub fn push(&mut self, row: Row) {
        debug_assert_eq!(row.arity(), self.schema.len(), "row arity mismatch");
        self.bytes += row.encoded_len();
        Arc::make_mut(&mut self.rows).push(row);
    }

    /// Append a row, checking arity.
    pub fn try_push(&mut self, row: Row) -> Result<()> {
        check_arity(&row, &self.schema)?;
        self.push(row);
        Ok(())
    }

    /// Charge one sequential scan of this table to the tracker.
    pub fn charge_scan(&self, tracker: &CostTracker) {
        tracker.read_blocks(self.block_count());
        tracker.move_rows(self.row_count() as u64);
    }

    /// Average encoded row width in bytes (0 for empty tables).
    pub fn avg_row_bytes(&self) -> usize {
        if self.rows.is_empty() {
            0
        } else {
            self.bytes / self.rows.len()
        }
    }
}

fn check_arity(row: &Row, schema: &Schema) -> Result<()> {
    if row.arity() == schema.len() {
        return Ok(());
    }
    Err(Error::SchemaMismatch(format!(
        "row arity {} does not match schema arity {}",
        row.arity(),
        schema.len()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BLOCK_SIZE;
    use wf_common::{row, DataType};

    fn schema2() -> Schema {
        Schema::of(&[("a", DataType::Int), ("b", DataType::Str)])
    }

    #[test]
    fn push_tracks_bytes_and_blocks() {
        let mut t = Table::new(schema2());
        assert_eq!(t.block_count(), 0);
        let r = row![1, "hello"];
        let len = r.encoded_len();
        t.push(r);
        assert_eq!(t.byte_size(), len);
        assert_eq!(t.block_count(), 1);
        assert_eq!(t.avg_row_bytes(), len);
    }

    #[test]
    fn try_push_rejects_wrong_arity() {
        let mut t = Table::new(schema2());
        assert!(t.try_push(row![1]).is_err());
        assert!(t.try_push(row![1, "x"]).is_ok());
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn from_rows_validates() {
        assert!(Table::from_rows(schema2(), vec![row![1, "x"], row![2]]).is_err());
        let t = Table::from_rows(schema2(), vec![row![1, "x"], row![2, "y"]]).unwrap();
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn charge_scan_reads_block_count() {
        let mut t = Table::new(schema2());
        // Enough rows to exceed one block.
        let per_row = row![1, "some string"].encoded_len();
        let n = BLOCK_SIZE / per_row + 10;
        for i in 0..n {
            t.push(row![i as i64, "some string"]);
        }
        assert!(t.block_count() >= 2);
        let tracker = CostTracker::new();
        t.charge_scan(&tracker);
        let s = tracker.snapshot();
        assert_eq!(s.blocks_read, t.block_count());
        assert_eq!(s.rows_moved, t.row_count() as u64);
    }

    #[test]
    fn empty_table_avg_is_zero() {
        assert_eq!(Table::new(schema2()).avg_row_bytes(), 0);
    }

    /// Clones share the rows — a scan of any of them hands out the same
    /// allocation — and a mutation detaches only the handle it goes through.
    #[test]
    fn clones_share_the_rows_until_one_is_mutated() {
        let original = Table::from_rows(schema2(), vec![row![1, "x"], row![2, "y"]]).unwrap();
        let mut clone = original.clone();
        let rows = clone.shared_rows();
        assert!(Arc::ptr_eq(&rows, &original.shared_rows()));

        clone.push(row![3, "z"]);
        assert!(Arc::ptr_eq(&rows, &original.shared_rows()), "original");
        assert!(!Arc::ptr_eq(&rows, &clone.shared_rows()));
        assert_eq!(clone.row_count(), 3);
    }
}
