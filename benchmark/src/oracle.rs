//! Correctness oracle: each distinct statement's expected result, computed
//! once through a path the measured engine does not take (`Scheme::Psql`:
//! one full sort per window, one worker, in-memory backend), kept as a row
//! count and a 64-bit checksum.

use wfopt::prelude::*;

/// Row count plus a checksum of the rows: order-insensitive (a wrapping sum
/// of mixed row hashes) unless the statement has an ORDER BY, in which case
/// each row's position is folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

/// Accumulates a [`Digest`] row by row.
#[derive(Debug, Clone, Copy)]
pub struct Digester {
    ordered: bool,
    rows: u64,
    sum: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// MurmurHash3's finalizer: spreads a row hash over all 64 bits so that a
/// wrapping sum of them does not cancel structured differences.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

impl Digester {
    pub fn new(ordered: bool) -> Self {
        Digester {
            ordered,
            rows: 0,
            sum: 0,
        }
    }

    fn add(&mut self, row_hash: u64) {
        let position = if self.ordered { self.rows } else { 0 };
        self.sum = self
            .sum
            .wrapping_add(mix(row_hash ^ position.wrapping_mul(FNV_PRIME)));
        self.rows += 1;
    }

    /// One result row as the session API returns it.
    pub fn row(&mut self, row: &Row) {
        let mut h = FNV_OFFSET;
        for v in row.values() {
            h = match v {
                Value::Null => fnv(h, &[0]),
                Value::Int(i) => fnv(fnv(h, &[1]), &i.to_le_bytes()),
                Value::Float(f) => fnv(fnv(h, &[2]), &f.to_bits().to_le_bytes()),
                Value::Str(s) => fnv(fnv(h, &[3]), s.as_bytes()),
            };
        }
        self.add(h);
    }

    /// One result row as `repro serve` writes it: tab-separated cell text.
    pub fn line(&mut self, line: &str) {
        self.add(fnv(FNV_OFFSET, line.as_bytes()));
    }

    pub fn finish(self) -> Digest {
        Digest {
            rows: self.rows,
            sum: self.sum,
        }
    }
}

/// Digest of a result table; `perturb` flips one value of the first row, the
/// planted fault the tests use to show the oracle notices.
pub fn digest_table(table: &Table, ordered: bool, perturb: bool) -> Digest {
    let mut d = Digester::new(ordered);
    for (i, row) in table.rows().iter().enumerate() {
        if perturb && i == 0 {
            let mut values = row.values().to_vec();
            if let Some(last) = values.last_mut() {
                *last = match last {
                    Value::Int(v) => Value::Int(v.wrapping_add(1)),
                    _ => Value::Int(0),
                };
            }
            d.row(&Row::new(values));
        } else {
            d.row(row);
        }
    }
    d.finish()
}

/// Digest of a result table in the server's text rendering.
pub fn digest_table_as_text(table: &Table, ordered: bool) -> Digest {
    let mut d = Digester::new(ordered);
    let mut line = String::new();
    for row in table.rows() {
        line.clear();
        for (i, v) in row.values().iter().enumerate() {
            if i > 0 {
                line.push('\t');
            }
            line.push_str(&v.to_string());
        }
        d.line(&line);
    }
    d.finish()
}

/// The independent path: PSQL planning (a full sort per window, no hashed or
/// segmented sort), one worker thread, the in-memory backend. The pool is an
/// eighth of the table, so each sort's output is a spilled segment and the
/// windows stream over it: over one resident 100 000-row segment the window
/// operator takes ~13 s on the four-window chain, against ~1 s this way.
pub fn oracle_database(table: &Table) -> Result<Database> {
    let db = DatabaseConfig::new()
        .scheme(Scheme::Psql)
        .memory_blocks((table.block_count() / 8).max(2))
        .max_concurrent(1)
        .worker_threads(1)
        .spill_backend(SpillBackendKind::Mem)
        .compress_spill(false)
        .prefetch_blocks(0)
        .open();
    db.register("web_sales", table.clone())?;
    Ok(db)
}

/// Whether a statement's result order is part of its contract.
pub fn is_ordered(db: &Database, sql: &str) -> Result<bool> {
    Ok(db.session().prepare(sql)?.window_query().order_by.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[(i64, i64)]) -> Table {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
        let mut t = Table::new(schema);
        for (a, b) in rows {
            t.push(Row::new(vec![(*a).into(), (*b).into()]));
        }
        t
    }

    #[test]
    fn unordered_digest_ignores_row_order_and_ordered_does_not() {
        let fwd = table(&[(1, 2), (3, 4), (5, 6)]);
        let rev = table(&[(5, 6), (3, 4), (1, 2)]);
        assert_eq!(
            digest_table(&fwd, false, false),
            digest_table(&rev, false, false)
        );
        assert_ne!(
            digest_table(&fwd, true, false),
            digest_table(&rev, true, false)
        );
        assert_eq!(
            digest_table(&fwd, true, false),
            digest_table(&fwd, true, false)
        );
    }

    #[test]
    fn digest_sees_a_changed_value_a_moved_value_and_a_missing_row() {
        let base = digest_table(&table(&[(1, 2), (3, 4)]), false, false);
        assert_ne!(base, digest_table(&table(&[(1, 2), (3, 5)]), false, false));
        assert_ne!(base, digest_table(&table(&[(1, 4), (3, 2)]), false, false));
        assert_ne!(base, digest_table(&table(&[(1, 2)]), false, false));
        assert_ne!(base, digest_table(&table(&[(1, 2), (3, 4)]), false, true));
    }

    #[test]
    fn text_digest_matches_lines_read_off_the_wire() {
        let t = table(&[(1, 2), (30, -4)]);
        let mut d = Digester::new(false);
        d.line("30\t-4");
        d.line("1\t2");
        assert_eq!(d.finish(), digest_table_as_text(&t, false));
    }
}
