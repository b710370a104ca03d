//! In-memory heap tables with block accounting.
//!
//! A [`Table`] stands in for the paper's windowed table: the output of the
//! non-window part of the query, over which the window-function chain runs.
//! Tables know their size in blocks (`B(R)` in the cost models) and charge
//! scan I/O to a [`CostTracker`] when asked, so a table scan costs the same
//! as reading it from the simulated device.

use crate::block::blocks_for_bytes;
use crate::colblock::RowBatch;
use crate::cost::CostTracker;
use std::sync::{Arc, OnceLock};
use wf_common::{Error, Result, Row, Schema};

/// A schema plus rows. Rows live behind an `Arc` so a table scan can hand
/// out zero-copy shared views ([`Table::shared_rows`]) instead of cloning
/// the relation; mutation goes through copy-on-write (`Arc::make_mut`).
/// The columnar view ([`Table::shared_batch`]) is built lazily and cached
/// in a cell that **clones share**, so whichever handle scans first builds
/// it for all of them (a catalog hands every statement a clone); a mutation
/// gives the mutated handle a fresh cell and leaves the others' intact —
/// the same copy-on-write the rows get.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    rows: Arc<Vec<Row>>,
    bytes: usize,
    batch: Arc<OnceLock<Arc<RowBatch>>>,
}

impl Table {
    /// Empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            rows: Arc::new(Vec::new()),
            bytes: 0,
            batch: Arc::default(),
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
            batch: Arc::default(),
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

    /// Zero-copy shared columnar view of the rows, built on first use and
    /// cached (table rows have uniform arity, so columnarization never
    /// fails). This is what a columnar table scan hands downstream.
    pub fn shared_batch(&self) -> Arc<RowBatch> {
        Arc::clone(self.batch.get_or_init(|| {
            Arc::new(RowBatch::from_rows(&self.rows).expect("uniform table arity"))
        }))
    }

    /// Mutable row access (used by in-place sorters in tests;
    /// copy-on-write when the rows are shared).
    pub fn rows_mut(&mut self) -> &mut Vec<Row> {
        self.invalidate_batch();
        Arc::make_mut(&mut self.rows)
    }

    /// Forget the columnar view of this handle only: clear the cell when no
    /// clone shares it, swap in a fresh one when some do.
    fn invalidate_batch(&mut self) {
        match Arc::get_mut(&mut self.batch) {
            Some(cell) => drop(cell.take()),
            None => self.batch = Arc::default(),
        }
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
        self.invalidate_batch();
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

    #[test]
    fn shared_batch_caches_and_invalidates_on_mutation() {
        let mut t = Table::from_rows(schema2(), vec![row![1, "x"], row![2, "y"]]).unwrap();
        let b1 = t.shared_batch();
        assert_eq!(b1.to_rows(), t.rows());
        // Cached: same allocation on repeat.
        assert!(Arc::ptr_eq(&b1, &t.shared_batch()));
        t.push(row![3, "z"]);
        let b2 = t.shared_batch();
        assert!(!Arc::ptr_eq(&b1, &b2));
        assert_eq!(b2.to_rows(), t.rows());
        t.rows_mut()[0] = row![9, "w"];
        assert_eq!(t.shared_batch().row(0), row![9, "w"]);
    }

    /// Clones share the columnar cache — whichever handle scans first builds
    /// it for all — and a mutation detaches only the handle it goes through.
    #[test]
    fn clones_share_the_batch_until_one_is_mutated() {
        let original = Table::from_rows(schema2(), vec![row![1, "x"], row![2, "y"]]).unwrap();
        // Taken before first use, as a catalog hands a table to a statement.
        let mut clone = original.clone();
        let batch = clone.shared_batch();
        assert!(Arc::ptr_eq(&batch, &original.shared_batch()));
        assert!(Arc::ptr_eq(&batch, &original.clone().shared_batch()));

        clone.push(row![3, "z"]);
        assert!(Arc::ptr_eq(&batch, &original.shared_batch()), "original");
        assert_eq!(original.shared_batch().to_rows(), original.rows());
        let rebuilt = clone.shared_batch();
        assert!(!Arc::ptr_eq(&batch, &rebuilt));
        assert_eq!(rebuilt.to_rows(), clone.rows());

        let mut other = original.clone();
        other.rows_mut()[0] = row![9, "w"];
        assert!(Arc::ptr_eq(&batch, &original.shared_batch()), "original");
        assert_eq!(other.shared_batch().row(0), row![9, "w"]);
        assert_eq!(original.shared_batch().row(0), row![1, "x"]);
    }
}
