//! Append-only spill files with block-granular I/O accounting.
//!
//! Sorted runs (Full Sort), spilled hash buckets (Hashed Sort) and oversized
//! segment units (Segmented Sort) all live in spill files. A [`SpillFile`]
//! buffers encoded rows and writes whole logical blocks to a pluggable
//! [`SpillBackend`](crate::backend::SpillBackend), charging the shared
//! [`CostTracker`]; a [`SpillReader`] streams them back, charging reads the
//! same way.
//!
//! The charging layer lives entirely here and is expressed in *logical*
//! uncompressed [`BLOCK_SIZE`] blocks. Everything physical — which medium
//! holds the bytes ([`crate::backend`]), whether blocks are compressed at
//! rest ([`crate::codec::compress_block`]), and whether reads are served by
//! the async read-ahead pipeline ([`crate::prefetch`]) — happens below this
//! line and therefore cannot change modeled or pool counters, only wall
//! time.

use crate::backend::{BackendFile, SpillConfig};
use crate::block::BLOCK_SIZE;
use crate::bytebuf::ByteBuf;
use crate::codec::{compress_block, decompress_block, encode_row, try_decode_row, RowError};
use crate::cost::{CostTracker, PoolCounters};
use crate::prefetch::Prefetcher;
use std::sync::Arc;
use wf_common::{Error, Result, Row};

/// Where a spill file's block traffic is charged.
///
/// Reorder spills (sort runs, hash buckets) are work the paper's cost model
/// prices and charge the [`CostTracker`]; segment-store pool spills exist
/// only to bound physical residency and charge the informational
/// [`PoolCounters`] instead (see [`crate::segstore`]).
#[derive(Clone)]
pub enum IoMeter {
    /// Modeled reorder I/O.
    Model(Arc<CostTracker>),
    /// Segment-store pool traffic (never enters modeled time).
    Pool(Arc<PoolCounters>),
}

impl IoMeter {
    #[inline]
    fn read_blocks(&self, n: u64) {
        match self {
            IoMeter::Model(t) => t.read_blocks(n),
            IoMeter::Pool(p) => p.read_blocks(n),
        }
    }

    #[inline]
    fn write_blocks(&self, n: u64) {
        match self {
            IoMeter::Model(t) => t.write_blocks(n),
            IoMeter::Pool(p) => p.write_blocks(n),
        }
    }
}

/// Writer for one spill file. Rows are encoded back to back
/// ([`crate::codec::encode_row`], the one entry format) into a block-sized
/// buffer and written out block by block; every logical block write is
/// charged to the meter (compression may shrink the physical payload, never
/// the charge). A sorted run is such a file, and the merge that reads it
/// back compares its rows through the sort's comparator.
pub struct SpillFile {
    file: Box<dyn BackendFile>,
    buffer: ByteBuf,
    meter: IoMeter,
    rows: u64,
    /// Logical (uncompressed) bytes flushed so far.
    bytes: u64,
    /// Compress blocks at rest (already negotiated against the backend).
    compress: bool,
    /// Read-ahead depth the reader should use.
    prefetch: usize,
}

impl SpillFile {
    /// Create a spill file on a configured backend, with the config's
    /// compression (post-negotiation) and read-ahead settings.
    pub fn with_config(cfg: &SpillConfig, meter: IoMeter) -> Result<Self> {
        Ok(SpillFile {
            file: cfg.backend.open()?,
            buffer: ByteBuf::with_capacity(2 * BLOCK_SIZE),
            meter,
            rows: 0,
            bytes: 0,
            compress: cfg.effective_compress(),
            prefetch: cfg.prefetch_blocks,
        })
    }

    /// Hand one logical block to the backend, compressing at rest when
    /// negotiated. Charging happens at the call sites, in logical blocks.
    fn write_physical(&mut self, block: &[u8]) -> Result<()> {
        if self.compress {
            self.file.append_block(&compress_block(block))
        } else {
            self.file.append_block(block)
        }
    }

    /// Append one row.
    pub fn push(&mut self, row: &Row) -> Result<()> {
        encode_row(row, &mut self.buffer);
        self.rows += 1;
        while self.buffer.len() >= BLOCK_SIZE {
            let block = self.buffer.split_to(BLOCK_SIZE);
            self.write_physical(&block)?;
            self.meter.write_blocks(1);
            self.bytes += BLOCK_SIZE as u64;
        }
        Ok(())
    }

    /// Number of rows appended so far.
    pub fn row_count(&self) -> u64 {
        self.rows
    }

    /// Finish writing, flushing the trailing partial block, and return a
    /// reader positioned at the start. The reader reads back through the
    /// same backend handle — dropping it (including on the abort paths:
    /// cancel, timeout, error unwind) deletes the underlying storage.
    pub fn into_reader(mut self) -> Result<SpillReader> {
        if !self.buffer.is_empty() {
            let block = self.buffer.split_to(self.buffer.len());
            self.write_physical(&block)?;
            self.meter.write_blocks(1);
            self.bytes += block.len() as u64;
        }
        let blocks = self.file.block_count();
        // Read-ahead only pays off with something to read ahead *to*; a
        // single-block file is served directly, without spinning up threads.
        let source = if self.prefetch > 0 && blocks > 1 {
            let file: Arc<dyn BackendFile> = Arc::from(self.file);
            let counters = Arc::clone(file.counters());
            BlockSource::Prefetch(Prefetcher::new(
                file,
                blocks,
                self.prefetch,
                self.compress,
                counters,
            ))
        } else {
            BlockSource::Direct {
                file: self.file,
                next: 0,
                decompress: self.compress,
            }
        };
        Ok(SpillReader {
            source,
            meter: self.meter,
            offset: 0,
            total: self.bytes,
            pending: ByteBuf::new(),
            remaining_rows: self.rows,
        })
    }
}

/// How a reader obtains the next decompressed logical block: a synchronous
/// cold read per block, or the async read-ahead pipeline.
enum BlockSource {
    Direct {
        file: Box<dyn BackendFile>,
        next: u64,
        decompress: bool,
    },
    Prefetch(Prefetcher),
}

impl BlockSource {
    fn next_block(&mut self) -> Result<Vec<u8>> {
        match self {
            BlockSource::Direct {
                file,
                next,
                decompress,
            } => {
                let payload = file.read_block(*next)?;
                *next += 1;
                if *decompress {
                    decompress_block(&payload)
                } else {
                    Ok(payload)
                }
            }
            BlockSource::Prefetch(pf) => pf.next_block(),
        }
    }
}

/// Streaming reader over a finished spill file: decodes its rows in order
/// and charges each logical block as it arrives. Owns the backend handle;
/// drop deletes the underlying storage.
pub struct SpillReader {
    source: BlockSource,
    meter: IoMeter,
    /// Logical bytes consumed from the backend so far.
    offset: u64,
    /// Total logical bytes in the file.
    total: u64,
    pending: ByteBuf,
    remaining_rows: u64,
}

impl SpillReader {
    /// Rows left to read.
    pub fn remaining_rows(&self) -> u64 {
        self.remaining_rows
    }

    /// Read the next row, or `None` at end of file.
    pub fn next_row(&mut self) -> Result<Option<Row>> {
        if self.remaining_rows == 0 {
            return Ok(None);
        }
        loop {
            // Try to decode from what we have; top up a block at a time.
            if let Some(row) = self.decode_pending()? {
                self.remaining_rows -= 1;
                return Ok(Some(row));
            }
            self.fill_pending()?;
        }
    }

    /// Top up the pending buffer with one logical block and charge it.
    /// Charging happens here — at consumption — whether the block came from
    /// a cold read or was already prefetched, which is what keeps counters
    /// identical across read pipelines. Every block but the last was written
    /// full, so a block of any other length is damage, and the reader stops
    /// there rather than reading past the file's last block.
    fn fill_pending(&mut self) -> Result<()> {
        if self.offset >= self.total {
            return Err(Error::Execution(
                "spill file ended with rows still expected".into(),
            ));
        }
        let block = self.source.next_block()?;
        let written = (self.total - self.offset).min(BLOCK_SIZE as u64);
        if block.len() as u64 != written {
            return Err(Error::Execution(format!(
                "spill block of {} bytes where {written} were written",
                block.len()
            )));
        }
        self.offset += block.len() as u64;
        self.meter.read_blocks(1);
        self.pending.extend_from_slice(&block);
        Ok(())
    }

    /// Decode one row from the front of the pending buffer, consuming its
    /// bytes. `None` when the row continues past what has been read — the
    /// caller tops up and retries; bytes that cannot start a row, and a row
    /// needing more bytes than the file has left, are an error here, at the
    /// row they occur in, and nothing more is read.
    fn decode_pending(&mut self) -> Result<Option<Row>> {
        let mut cursor: &[u8] = self.pending.as_slice();
        match try_decode_row(&mut cursor) {
            Ok(row) => {
                let used = self.pending.len() - cursor.len();
                self.pending.advance(used);
                Ok(Some(row))
            }
            Err(RowError::Truncated { what, need }) => {
                let left = self.pending.len() as u64 + (self.total - self.offset);
                if need as u64 > left {
                    return Err(RowError::Corrupt(format!(
                        "{what} runs past the end of the file ({need} bytes needed, {left} left)"
                    ))
                    .into());
                }
                Ok(None)
            }
            Err(corrupt) => Err(corrupt.into()),
        }
    }

    /// Drain into a vector (reads and charges everything).
    pub fn read_all(&mut self) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.remaining_rows as usize);
        while let Some(r) = self.next_row()? {
            out.push(r);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{LocalFileBackend, ObjectStoreConfig, SpillBackendKind};
    use crate::faulty::{Fault, FaultyBackend, SplitMix};
    use wf_common::{row, Value};

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| row![i as i64, format!("value-{i}"), (i as f64) * 0.5])
            .collect()
    }

    /// A spill file on the in-memory backend charging `tracker`.
    fn mem_spill(tracker: &Arc<CostTracker>) -> SpillFile {
        SpillFile::with_config(&SpillConfig::mem(), IoMeter::Model(Arc::clone(tracker))).unwrap()
    }

    fn spill_round_trip_cfg(cfg: &SpillConfig, n: usize) {
        let tracker = Arc::new(CostTracker::new());
        let mut f = SpillFile::with_config(cfg, IoMeter::Model(Arc::clone(&tracker))).unwrap();
        let rows = sample_rows(n);
        for r in &rows {
            f.push(r).unwrap();
        }
        assert_eq!(f.row_count(), n as u64);
        let mut reader = f.into_reader().unwrap();
        let back = reader.read_all().unwrap();
        assert_eq!(back, rows);
        assert!(reader.next_row().unwrap().is_none());

        let s = tracker.snapshot();
        let bytes: usize = rows.iter().map(|r| r.encoded_len()).sum();
        let expected_blocks = crate::block::blocks_for_bytes(bytes);
        assert_eq!(
            s.blocks_written,
            expected_blocks.max(if n > 0 { 1 } else { 0 })
        );
        assert_eq!(s.blocks_read, s.blocks_written);
    }

    #[test]
    fn sim_store_round_trip_small() {
        spill_round_trip_cfg(&SpillConfig::mem(), 10);
    }

    #[test]
    fn sim_store_round_trip_multi_block() {
        spill_round_trip_cfg(&SpillConfig::mem(), 2000);
    }

    #[test]
    fn file_store_round_trip() {
        spill_round_trip_cfg(&SpillConfig::file(), 500);
    }

    #[test]
    fn every_backend_compression_prefetch_combo_round_trips_identically() {
        // The tentpole invariant at its smallest: same rows, same charged
        // blocks, regardless of backend, compression, or read-ahead.
        for kind in [
            SpillBackendKind::Mem,
            SpillBackendKind::File,
            SpillBackendKind::ObjectStore(ObjectStoreConfig::default()),
        ] {
            for compress in [false, true] {
                for prefetch in [0usize, 2] {
                    let cfg = SpillConfig::of_kind(kind)
                        .with_compress(compress)
                        .with_prefetch(prefetch);
                    spill_round_trip_cfg(&cfg, 1200);
                }
            }
        }
    }

    #[test]
    fn compressed_file_shrinks_physical_bytes_but_not_charges() {
        let cfg = SpillConfig::file().with_compress(true);
        assert!(cfg.effective_compress());
        spill_round_trip_cfg(&cfg, 3000);
        let s = cfg.stats();
        assert!(s.put_requests > 1);
        // "value-{i}" rows are repetitive; at-rest bytes must shrink well
        // below the logical volume the meter charged for.
        assert!(s.bytes_written < s.put_requests * BLOCK_SIZE as u64 / 2);
    }

    #[test]
    fn empty_spill_reads_nothing() {
        let tracker = Arc::new(CostTracker::new());
        let f = mem_spill(&tracker);
        let mut r = f.into_reader().unwrap();
        assert!(r.next_row().unwrap().is_none());
        assert_eq!(tracker.snapshot().io_blocks(), 0);
    }

    #[test]
    fn rows_spanning_block_boundaries() {
        // A long string forces rows to straddle block boundaries.
        let tracker = Arc::new(CostTracker::new());
        let mut f = mem_spill(&tracker);
        let big = "x".repeat(BLOCK_SIZE / 2 + 100);
        let rows: Vec<Row> = (0..8).map(|i| row![i as i64, big.clone()]).collect();
        for r in &rows {
            f.push(r).unwrap();
        }
        let back = f.into_reader().unwrap().read_all().unwrap();
        assert_eq!(back, rows);
    }

    /// Bytes of one row written by [`fixed_width_file`]: a power of two, so
    /// every block of the file starts at a row boundary.
    const ENTRY: usize = 128;
    /// Offset of a row's first value tag (after its `u16` arity).
    const FIRST_TAG: usize = 2;

    /// `blocks` full blocks of [`ENTRY`]-byte rows on `cfg`.
    fn fixed_width_file(cfg: &SpillConfig, blocks: usize) -> SpillReader {
        let tracker = Arc::new(CostTracker::new());
        let mut f = SpillFile::with_config(cfg, IoMeter::Model(tracker)).unwrap();
        let fill = "p".repeat(ENTRY - FIRST_TAG - 9 - 5);
        for i in 0..blocks * BLOCK_SIZE / ENTRY {
            f.push(&row![i as i64, fill.as_str()]).unwrap();
        }
        f.into_reader().unwrap()
    }

    /// Read until the first error; `(rows read before it, the error)`.
    fn read_until_error(reader: &mut SpillReader) -> (usize, Error) {
        let mut rows = 0;
        loop {
            match reader.next_row() {
                Ok(Some(_)) => rows += 1,
                Ok(None) => panic!("the injected fault never surfaced"),
                Err(e) => return (rows, e),
            }
        }
    }

    /// Overwrite the first row of block 2 of a 40-block file at `at` with
    /// `patch`, compressed and not, with and without read-ahead: the reader
    /// fails at that row with `message`, having read no further block than
    /// read-ahead already held, and frees the file when dropped.
    fn damage_block_two(at: usize, patch: &'static [u8], message: &str) {
        const BLOCKS: usize = 40;
        const BAD: u64 = 2;
        for compress in [false, true] {
            for prefetch in [0usize, 2] {
                let rewrite = move |block: &mut Vec<u8>| {
                    let mut raw = match compress {
                        true => decompress_block(block).unwrap(),
                        false => block.clone(),
                    };
                    raw[at..at + patch.len()].copy_from_slice(patch);
                    *block = if compress { compress_block(&raw) } else { raw };
                };
                let backend = FaultyBackend::on_read(
                    LocalFileBackend::new(),
                    BAD,
                    Fault::Corrupt(Box::new(rewrite)),
                );
                let cfg = SpillConfig {
                    backend: backend.clone(),
                    compress,
                    prefetch_blocks: prefetch,
                };
                let mut reader = fixed_width_file(&cfg, BLOCKS);
                assert_eq!(cfg.stats().put_requests, BLOCKS as u64);

                let (rows, err) = read_until_error(&mut reader);
                let case = format!("compress={compress} prefetch={prefetch}");
                assert_eq!(rows, BAD as usize * BLOCK_SIZE / ENTRY, "{case}");
                match &err {
                    Error::Execution(msg) => assert!(msg.contains(message), "{case}: {msg}"),
                    other => panic!("{case}: {other:?}"),
                }
                assert!(backend.reads() <= BAD + 1 + prefetch as u64, "{case}");
                assert!(reader.pending.len() <= BLOCK_SIZE, "{case}");
                drop(reader);
                assert_eq!(cfg.stats().live_objects, 0, "{case}");
            }
        }
    }

    #[test]
    fn corrupt_block_surfaces_at_its_row_and_stops_the_reader() {
        damage_block_two(FIRST_TAG, &[0x7f], "unknown value tag 0x7f");
    }

    /// A string length rewritten to `u32::MAX` asks for more than the file
    /// holds: corruption at that row, not a reason to read to the end.
    #[test]
    fn damaged_length_field_surfaces_at_its_row_without_reading_on() {
        // The length follows the int (tag + 8 bytes) and the string's tag.
        let message = "string body runs past the end of the file";
        damage_block_two(FIRST_TAG + 9 + 1, &[0xff; 4], message);
    }

    /// 1 000 seeded files of 1–8 blocks, raw or compressed, with and
    /// without read-ahead, one block of each replaced by noise, given a
    /// flipped bit or truncated on its way back: every read is a row, the
    /// end once every row was read, or a typed error, at which reading
    /// stops — never a panic, never a read past the file's blocks, and the
    /// file is freed on drop.
    #[test]
    fn garbage_spill_files_never_panic_the_reader() {
        let mut rng = SplitMix(27);
        let mut outcomes = [0usize; 2]; // [read to the end, stopped at an error]
        for case in 0..1_000u64 {
            let (compress, prefetch) = (case % 2 == 1, 2 * (case / 2 % 2) as usize);
            // Mixed rows (none near a block long), into the last block.
            let blocks = 1 + rng.below(8);
            let mut rows = Vec::new();
            let mut bytes = 0;
            while bytes <= (blocks as usize - 1) * BLOCK_SIZE {
                let text = "v".repeat(rng.below(300) as usize);
                let r = match rng.below(3) {
                    0 => row![rng.next() as i64, text.as_str()],
                    1 => row![Value::Null, (rng.next() >> 11) as f64],
                    _ => row![text.as_str(), rng.below(9) as i64, Value::Null],
                };
                bytes += r.encoded_len();
                rows.push(r);
            }
            let (damage, seed, bad) = (rng.below(3), rng.next(), rng.below(blocks));
            let rewrite = move |block: &mut Vec<u8>| {
                let mut noise = SplitMix(seed);
                match damage {
                    0 => *block = noise.noise(block.len()),
                    1 if !block.is_empty() => {
                        let at = noise.below(block.len() as u64) as usize;
                        block[at] ^= 1 << noise.below(8);
                    }
                    _ => block.truncate(noise.below(block.len() as u64 + 1) as usize),
                }
            };
            let backend = FaultyBackend::on_read(
                LocalFileBackend::new(),
                bad,
                Fault::Corrupt(Box::new(rewrite)),
            );
            let cfg = SpillConfig {
                backend: backend.clone(),
                compress,
                prefetch_blocks: prefetch,
            };
            let tracker = Arc::new(CostTracker::new());
            let mut f = SpillFile::with_config(&cfg, IoMeter::Model(tracker)).unwrap();
            for r in &rows {
                f.push(r).unwrap();
            }
            let mut reader = f.into_reader().unwrap();
            assert_eq!(cfg.stats().put_requests, blocks, "case {case}");
            let mut read = 0;
            let stopped = loop {
                match reader.next_row() {
                    Ok(Some(_)) => read += 1,
                    Ok(None) => break false,
                    Err(Error::Execution(_)) => break true,
                    Err(other) => panic!("case {case}: untyped error {other:?}"),
                }
                assert!(read <= rows.len(), "case {case}");
            };
            assert!(stopped || read == rows.len(), "case {case}");
            assert!(backend.reads() <= blocks + prefetch as u64, "case {case}");
            outcomes[stopped as usize] += 1;
            drop(reader);
            assert_eq!(cfg.stats().live_objects, 0, "case {case}");
        }
        assert!(outcomes.iter().all(|&n| n > 50), "{outcomes:?}");
    }

    #[test]
    fn invalid_utf8_and_damaged_frames_are_corruption_not_truncation() {
        // Plain entry: arity, a 9-byte int, the string's tag and length, body.
        const STRING_BODY: usize = 2 + 9 + 5;
        type Damage = fn(&mut Vec<u8>);
        let cases: [(bool, Damage, &str); 2] = [
            (false, |b| b[STRING_BODY] = 0xff, "invalid utf-8"),
            (true, |b| b[0] = 9, "unknown compression mode"),
        ];
        for (compress, damage, message) in cases {
            let backend = FaultyBackend::on_read(
                LocalFileBackend::new(),
                1,
                Fault::Corrupt(Box::new(damage)),
            );
            let cfg = SpillConfig {
                backend: backend.clone(),
                compress,
                prefetch_blocks: 0,
            };
            let mut reader = fixed_width_file(&cfg, 8);
            let (rows, err) = read_until_error(&mut reader);
            assert_eq!(rows, BLOCK_SIZE / ENTRY);
            assert!(err.to_string().contains(message), "{err}");
            assert_eq!(backend.reads(), 2);
            drop(reader);
            assert_eq!(cfg.stats().live_objects, 0);
        }
    }

    #[test]
    fn failed_read_request_is_a_typed_error_and_releases_the_object() {
        let backend = FaultyBackend::on_read(LocalFileBackend::new(), 3, Fault::Fail);
        let cfg = SpillConfig {
            backend: backend.clone(),
            compress: true,
            prefetch_blocks: 0,
        };
        let mut reader = fixed_width_file(&cfg, 8);
        let (rows, err) = read_until_error(&mut reader);
        assert_eq!(rows, 3 * BLOCK_SIZE / ENTRY);
        assert!(matches!(&err, Error::Execution(m) if m.contains("injected fault")));
        assert_eq!(backend.reads(), 4);
        drop(reader);
        assert_eq!(cfg.stats().live_objects, 0);
    }

    /// A file backend over a private directory. With the spill arena the
    /// directory must stay empty throughout (the one temp file is unlinked
    /// while open), so leaks are read off `live_objects` and slot reuse off
    /// `footprint_bytes`.
    struct ArenaProbe {
        dir: std::path::PathBuf,
        cfg: SpillConfig,
    }

    impl ArenaProbe {
        fn new(tag: &str, compress: bool, prefetch_blocks: usize) -> Self {
            let dir =
                std::env::temp_dir().join(format!("wfopt-spilltest-{}-{tag}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let cfg = SpillConfig {
                backend: LocalFileBackend::in_dir(dir.clone()),
                compress,
                prefetch_blocks,
            };
            ArenaProbe { dir, cfg }
        }

        fn spill(&self, rows: usize) -> SpillFile {
            let tracker = Arc::new(CostTracker::new());
            let mut f = SpillFile::with_config(&self.cfg, IoMeter::Model(tracker)).unwrap();
            for r in sample_rows(rows) {
                f.push(&r).unwrap();
            }
            f
        }

        /// `(live objects, arena bytes)`, after checking the dir is empty.
        fn observe(&self) -> (u64, u64) {
            assert_eq!(std::fs::read_dir(&self.dir).unwrap().count(), 0);
            let s = self.cfg.stats();
            (s.live_objects, s.footprint_bytes)
        }

        /// The aborted object is gone, and an identical successor fits in
        /// the slots it gave back.
        fn assert_released_and_reused(self, rows: usize, footprint: u64) {
            assert_eq!(self.observe(), (0, footprint));
            let mut again = self.spill(rows).into_reader().unwrap();
            assert_eq!(again.read_all().unwrap(), sample_rows(rows));
            assert_eq!(self.observe(), (1, footprint), "freed slots are reused");
            drop(again);
            assert_eq!(self.observe(), (0, footprint));
            std::fs::remove_dir_all(&self.dir).unwrap();
        }
    }

    #[test]
    fn spill_file_is_removed_when_reader_drops() {
        let probe = ArenaProbe::new("reader-drop", false, 0);
        let mut reader = probe.spill(1000).into_reader().unwrap();
        let (live, footprint) = probe.observe();
        assert_eq!(live, 1);
        assert!(footprint > 0);
        // Simulate an aborted query: drop mid-stream, before EOF.
        reader.next_row().unwrap().unwrap();
        drop(reader);
        probe.assert_released_and_reused(1000, footprint);
    }

    #[test]
    fn spill_file_is_removed_when_prefetching_reader_drops() {
        let probe = ArenaProbe::new("prefetch-drop", true, 2);
        let mut reader = probe.spill(2000).into_reader().unwrap();
        let (live, footprint) = probe.observe();
        assert_eq!(live, 1);
        reader.next_row().unwrap().unwrap();
        drop(reader); // joins the prefetch workers, then frees the slots
        probe.assert_released_and_reused(2000, footprint);
    }

    #[test]
    fn writer_drop_before_reader_deletes_file() {
        let probe = ArenaProbe::new("writer-drop", false, 0);
        let f = probe.spill(1000);
        let (live, footprint) = probe.observe();
        assert_eq!(live, 1);
        assert!(footprint > 0, "full blocks were flushed before the abort");
        drop(f); // aborted before into_reader
        assert_eq!(probe.observe(), (0, footprint));
        let again = probe.spill(1000);
        assert_eq!(probe.observe(), (1, footprint), "freed slots are reused");
        drop(again);
        assert_eq!(probe.observe(), (0, footprint));
        std::fs::remove_dir_all(&probe.dir).unwrap();
    }
}
