//! Single-layer probes: one operator, one fixed batch, one budget, timed from
//! outside through the layer's public function.

use crate::stats;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wfopt::datagen::WsColumn;
use wfopt::exec::sorter::sort_rows;
use wfopt::exec::{OpEnv, SortKey};
use wfopt::prelude::*;
use wfopt::storage::bytebuf::ByteBuf;
use wfopt::storage::codec::{compress_block, decompress_block, encode_row};
use wfopt::storage::{SpillBackend, BLOCK_SIZE};

/// Rows of the fixed sort batch and blocks of the fixed codec/backend batch.
const SORT_BATCH: usize = 20_000;
const BLOCK_BATCH: usize = 256;
const REPS: usize = 3;

fn median_secs(mut f: impl FnMut() -> f64) -> f64 {
    let times: Vec<f64> = (0..REPS).map(|_| f()).collect();
    stats::median(&times)
}

/// Rows per second of `sorter::sort_rows` over the table's first
/// [`SORT_BATCH`] rows on `(item, sold_time)`, within `mem_blocks` and
/// spilling through `spill` beyond it.
pub fn sort_rows_per_s(table: &Table, mem_blocks: u64, spill: SpillConfig) -> Result<f64> {
    let batch: Vec<Row> = table.rows().iter().take(SORT_BATCH).cloned().collect();
    let key = SortKey::new(&SortSpec::new(vec![
        OrdElem::asc(WsColumn::Item.attr()),
        OrdElem::asc(WsColumn::SoldTime.attr()),
    ]));
    let env = OpEnv::with_memory_blocks(mem_blocks).with_spill(spill);
    let mut failure = None;
    let secs = median_secs(|| {
        let rows = batch.clone();
        let t = Instant::now();
        match sort_rows(rows, &key, &env) {
            Ok(sorted) => drop(black_box(sorted)),
            Err(e) => failure = Some(e),
        }
        t.elapsed().as_secs_f64()
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(batch.len() as f64 / secs),
    }
}

/// The table's rows in the spill codec's encoding, cut into logical blocks.
pub fn encoded_blocks(table: &Table) -> Vec<Vec<u8>> {
    let mut buf = ByteBuf::new();
    for row in table.rows() {
        encode_row(row, &mut buf);
        if buf.len() >= BLOCK_BATCH * BLOCK_SIZE {
            break;
        }
    }
    buf.as_slice()
        .chunks(BLOCK_SIZE)
        .take(BLOCK_BATCH)
        .map(<[u8]>::to_vec)
        .collect()
}

/// `(compress, decompress)` throughput of the LZSS block codec in MB/s of
/// uncompressed bytes.
pub fn codec_mb_per_s(blocks: &[Vec<u8>]) -> Result<(f64, f64)> {
    let raw_mb = blocks.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let mut frames = Vec::new();
    let compress = median_secs(|| {
        let t = Instant::now();
        frames = blocks.iter().map(|b| compress_block(b)).collect();
        t.elapsed().as_secs_f64()
    });
    let mut failure = None;
    let decompress = median_secs(|| {
        let t = Instant::now();
        for frame in &frames {
            match decompress_block(frame) {
                Ok(raw) => drop(black_box(raw)),
                Err(e) => failure = Some(e),
            }
        }
        t.elapsed().as_secs_f64()
    });
    match failure {
        Some(e) => Err(e),
        None => Ok((raw_mb / compress, raw_mb / decompress)),
    }
}

/// `(append, read)` microseconds per block through one `BackendFile`.
pub fn backend_us_per_block(
    backend: Arc<dyn SpillBackend>,
    blocks: &[Vec<u8>],
) -> Result<(f64, f64)> {
    let mut file = backend.open()?;
    let t = Instant::now();
    for block in blocks {
        file.append_block(block)?;
    }
    let append = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for idx in 0..blocks.len() as u64 {
        black_box(file.read_block(idx)?);
    }
    let read = t.elapsed().as_secs_f64();
    let per_block = 1e6 / blocks.len().max(1) as f64;
    Ok((append * per_block, read * per_block))
}
