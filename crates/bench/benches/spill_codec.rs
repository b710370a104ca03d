//! Micro-benchmarks of the spill block codec — the layer between a spill
//! file's logical blocks and the backend's physical bytes. One function, one
//! fixed batch per case:
//!
//! * `compress_rows` / `decompress_rows`: every 8 KiB block of a 50 000-row
//!   seed-42 `web_sales` in the spill row format — the entries run
//!   formation writes and the merges read in the benchmark's `spill_chain`
//!   workload,
//! * `compress_noise` / `decompress_noise`: as many blocks of SplitMix64
//!   bytes, which no LZ pass shrinks — the stored-raw path,
//! * `sort_rows_spill_12_blocks`: `sort_rows` over the table's first 20 000
//!   rows within 12 blocks, spilling to a compressed file backend: the codec
//!   with the sorter, the reader and the arena around it.

use wf_bench::microbench::BenchGroup;
use wf_common::{OrdElem, Row, SortSpec};
use wf_datagen::rng::SplitMix64;
use wf_datagen::{WsColumn, WsConfig};
use wf_exec::sorter::sort_rows;
use wf_exec::{OpEnv, SortKey};
use wf_storage::bytebuf::ByteBuf;
use wf_storage::codec::{compress_block, decompress_block, encode_row};
use wf_storage::{SpillConfig, BLOCK_SIZE};

const SORT_BATCH: usize = 20_000;

fn row_blocks(rows: &[Row]) -> Vec<Vec<u8>> {
    let mut buf = ByteBuf::new();
    for row in rows {
        encode_row(row, &mut buf);
    }
    buf.as_slice()
        .chunks(BLOCK_SIZE)
        .map(<[u8]>::to_vec)
        .collect()
}

fn noise_blocks(n: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::seed_from_u64(42);
    (0..n)
        .map(|_| {
            (0..BLOCK_SIZE / 8)
                .flat_map(|_| rng.next_u64().to_le_bytes())
                .collect()
        })
        .collect()
}

fn bench_codec(g: &mut BenchGroup, tag: &str, blocks: &[Vec<u8>]) {
    let mb = blocks.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let frames: Vec<Vec<u8>> = blocks.iter().map(|b| compress_block(b)).collect();
    g.bench_rate(&format!("compress_{tag}"), mb, "MB", || {
        for block in blocks {
            std::hint::black_box(compress_block(std::hint::black_box(block)));
        }
    });
    g.bench_rate(&format!("decompress_{tag}"), mb, "MB", || {
        for frame in &frames {
            let raw = decompress_block(std::hint::black_box(frame)).expect("a valid frame");
            std::hint::black_box(raw);
        }
    });
}

fn main() {
    let mut g = BenchGroup::new("spill_codec");

    let table = WsConfig {
        rows: 50_000,
        seed: 42,
        ..WsConfig::default()
    }
    .generate();
    let rows = row_blocks(table.rows());
    bench_codec(&mut g, "rows", &rows);
    bench_codec(&mut g, "noise", &noise_blocks(rows.len()));

    let key = SortKey::new(&SortSpec::new(vec![
        OrdElem::asc(WsColumn::Item.attr()),
        OrdElem::asc(WsColumn::SoldTime.attr()),
    ]));
    let env = OpEnv::with_memory_blocks(12).with_spill(SpillConfig::file().with_compress(true));
    let batch = &table.rows()[..SORT_BATCH];
    g.bench_rate(
        "sort_rows_spill_12_blocks",
        SORT_BATCH as f64,
        "rows",
        || {
            let sorted = sort_rows(batch.to_vec(), &key, &env).expect("sorts");
            assert_eq!(sorted.len(), SORT_BATCH);
            std::hint::black_box(sorted);
        },
    );

    g.finish();
}
