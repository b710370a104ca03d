//! Randomized (deterministic-seed) tests for the storage layer: codec
//! round-trips on arbitrary rows and spill files preserving arbitrary row
//! sequences — whole rows and references into a scan's view, mixed — with
//! exact block accounting.
//!
//! These were originally `proptest` properties; the workspace builds without
//! external dependencies, so they now enumerate a fixed seeded sample of the
//! same input space (mixed-type rows, empty rows, long strings, extremes).

use std::sync::Arc;
use wf_common::{AttrId, Row, Value};
use wf_storage::bytebuf::ByteBuf;
use wf_storage::codec::{decode_row, encode_row, REFERENCE_HEADER};
use wf_storage::{
    blocks_for_bytes, CostTracker, IoMeter, SegmentStore, SharedRows, SpillConfig, SpillFile,
};

/// SplitMix64 — the same tiny deterministic generator the test helpers use.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn value(&mut self) -> Value {
        match self.next() % 4 {
            0 => Value::Null,
            1 => Value::Int(self.next() as i64),
            2 => Value::Float(f64::from_bits(self.next() % (1 << 62))),
            _ => {
                let len = (self.next() % 41) as usize;
                let s: String = (0..len)
                    .map(|_| char::from_u32(32 + (self.next() % 95) as u32).unwrap())
                    .collect();
                Value::str(s)
            }
        }
    }

    fn row(&mut self) -> Row {
        let arity = (self.next() % 8) as usize;
        Row::new((0..arity).map(|_| self.value()).collect())
    }

    /// A row that grew the way window evaluation grows one: `new`, then a
    /// few `push`es (with a `reserve` or a column swap in between).
    fn grown_row(&mut self) -> Row {
        let mut row = self.row();
        for _ in 0..self.next() % 6 {
            row.reserve((self.next() % 3) as usize);
            row.push(self.value());
            if row.arity() >= 2 {
                row.swap_columns(0, row.arity() - 1);
            }
        }
        row
    }
}

#[test]
fn codec_round_trips_and_encoded_len_is_exact() {
    let mut rng = Rng(1);
    let mut cases: Vec<Row> = (0..64).map(|_| rng.row()).collect();
    cases.extend((0..64).map(|_| rng.grown_row()));
    cases.push(Row::new(vec![]));
    cases.push(Row::new(vec![
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(f64::NAN),
        Value::str(String::new()),
    ]));
    for row in cases {
        let mut buf = ByteBuf::new();
        encode_row(&row, &mut buf);
        assert_eq!(
            buf.len(),
            row.encoded_len(),
            "encoded_len must match codec: {row:?}"
        );
        // The length a row carries is the one its values add up to, however
        // the row came to hold them.
        let summed: usize = row.values().iter().map(Value::encoded_len).sum();
        assert_eq!(row.encoded_len(), 2 + summed, "{row:?}");
        let mut cursor = buf.as_slice();
        let back = decode_row(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(back, row);
    }
}

#[test]
fn spill_files_preserve_sequences() {
    let mut rng = Rng(2);
    for case in 0..32 {
        let n = (rng.next() % 120) as usize;
        let rows: Vec<Row> = (0..n).map(|_| rng.row()).collect();
        let tracker = Arc::new(CostTracker::new());
        let mut f =
            SpillFile::with_config(&SpillConfig::mem(), IoMeter::Model(Arc::clone(&tracker)))
                .unwrap();
        for r in &rows {
            f.push(r).unwrap();
        }
        let mut reader = f.into_reader().unwrap();
        let back = reader.read_all().unwrap();
        assert_eq!(back, rows, "case {case}");

        let bytes: usize = rows.iter().map(Row::encoded_len).sum();
        let s = tracker.snapshot();
        let min_blocks = blocks_for_bytes(bytes);
        assert!(s.blocks_written >= min_blocks, "case {case}");
        assert!(
            s.blocks_written <= min_blocks + 1,
            "case {case}: at most one trailing partial block"
        );
        assert_eq!(s.blocks_read, s.blocks_written, "case {case}");
    }
}

/// Files mixing whole rows and references into a scan's view — every
/// column, or two of them — on the mem backend, raw and compressed: the
/// rows come back equal, references with their origin and the view's room
/// for the columns still to come; blocks are charged exactly as the
/// full-width stream crosses them, on the way out and, row by row, on the
/// way back (a reader dropped halfway has paid for the blocks its rows
/// reached); the raw device holds exactly the entries' bytes; and nothing
/// is left live.
#[test]
fn mixed_entries_round_trip_with_exact_block_accounting() {
    let mut rng = Rng(3);
    let base: Arc<Vec<Row>> = Arc::new(
        (0..500)
            .map(|_| {
                let mut values: Vec<Value> = (0..3).map(|_| rng.value()).collect();
                values.push(Value::str("p".repeat(100)));
                Row::new(values)
            })
            .collect(),
    );
    let two: Arc<[AttrId]> = Arc::from([AttrId::new(3), AttrId::new(1)]);
    for case in 0..48 {
        let (columns, width) = match case % 2 {
            0 => (None, 4),
            _ => (Some(Arc::clone(&two)), 2),
        };
        let compress = case % 4 >= 2;
        let view = SharedRows::new(Arc::clone(&base), columns).with_spare(3);
        let store = SegmentStore::with_spill(None, SpillConfig::mem().with_compress(compress))
            .with_view(view.clone());
        let n = (rng.next() % 900) as usize;
        let rows: Vec<Row> = (0..n)
            .map(|_| match rng.next() % 3 {
                0 => rng.grown_row(),
                _ => {
                    let mut r = view.narrow_at((rng.next() % 500) as usize);
                    for _ in 0..rng.next() % 4 {
                        r.push(rng.value());
                    }
                    r
                }
            })
            .collect();
        let tracker = Arc::new(CostTracker::new());
        let mut f = store
            .spill_file(IoMeter::Model(Arc::clone(&tracker)))
            .unwrap();
        for r in &rows {
            f.push(r).unwrap();
        }
        let logical: usize = rows.iter().map(Row::encoded_len).sum();
        let physical: usize = rows
            .iter()
            .map(|r| match r.origin() {
                Some(_) => {
                    REFERENCE_HEADER
                        + r.values()[width..]
                            .iter()
                            .map(Value::encoded_len)
                            .sum::<usize>()
                }
                None => r.encoded_len(),
            })
            .sum();
        let mut reader = f.into_reader().unwrap();
        let s = tracker.snapshot();
        assert_eq!(s.blocks_written, blocks_for_bytes(logical), "case {case}");
        if !compress {
            let stats = store.spill_config().stats();
            assert_eq!(stats.bytes_written, physical as u64, "case {case}");
        }

        // Half the rows, then the reader is dropped: charged for the blocks
        // those rows reach into.
        let half = n / 2;
        let mut back = Vec::with_capacity(n);
        for _ in 0..half {
            back.push(reader.next_row().unwrap().unwrap());
        }
        let prefix: usize = rows[..half].iter().map(Row::encoded_len).sum();
        assert_eq!(
            tracker.snapshot().blocks_read,
            blocks_for_bytes(prefix),
            "case {case}"
        );
        back.extend(reader.read_all().unwrap());
        assert!(reader.next_row().unwrap().is_none());
        assert_eq!(back, rows, "case {case}");
        for (b, r) in back.iter().zip(&rows) {
            assert_eq!(b.origin(), r.origin(), "case {case}");
            assert_eq!(b.encoded_len(), r.encoded_len(), "case {case}");
            if r.origin().is_some() {
                assert_eq!(b.arity() + b.spare_capacity(), width + 3, "case {case}");
            }
        }
        assert_eq!(
            tracker.snapshot().blocks_read,
            s.blocks_written,
            "case {case}"
        );
        drop(reader);
        assert_eq!(store.spill_config().stats().live_objects, 0, "case {case}");
    }
}
