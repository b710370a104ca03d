//! The spill-backend invariant, end to end: for one plan at one memory
//! budget, every backend (in-memory, local file) ×
//! compression {off, on} × read-ahead {0, 2} must produce **bit-identical
//! rows, modeled counters, and pool counters**. Backends live entirely
//! below the charging layer, so only wall time — and the informational
//! backend traffic stats — may differ.
//!
//! Plus: property round-trips of the block compressor over
//! SplitMix64-generated row payloads, and the file backend's spill arena
//! seen from the outside — no directory entry at any time, every slot
//! returned (`live_objects`) and reused (`footprint_bytes`) however a query
//! ends.

mod common;

use common::random_table;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use wfopt::core::spec::WindowSpec;
use wfopt::datagen::WsConfig;
use wfopt::prelude::*;
use wfopt::sql::{parse_window_query, Catalog};
use wfopt::storage::backend::SLOT_SIZE;
use wfopt::storage::bytebuf::ByteBuf;
use wfopt::storage::codec::{compress_block, decode_row, decompress_block, encode_row};
use wfopt::storage::{
    CostTracker, IoMeter, LocalFileBackend, SegmentStore, SpillFile, StoreSnapshot,
};

fn spec(name: &str, wpk: &[usize], wok: &[usize]) -> WindowSpec {
    WindowSpec::rank(
        name,
        wpk.iter().map(|&i| AttrId::new(i)).collect(),
        SortSpec::new(wok.iter().map(|&i| OrdElem::asc(AttrId::new(i))).collect()),
    )
}

/// Everything a backend is *not* allowed to change about an execution.
#[derive(Debug, PartialEq)]
struct Observables {
    rows: Vec<Row>,
    modeled: (u64, u64, u64, u64, u64),
    pool: (u64, u64, u64, u64, u64),
}

fn pool_counters(s: &StoreSnapshot) -> (u64, u64, u64, u64, u64) {
    (
        s.spilled_segments,
        s.spill_blocks_written,
        s.spill_blocks_read,
        s.peak_resident_blocks(),
        s.peak_resident_rows as u64,
    )
}

fn run(table: &Table, mem_blocks: u64, spill: SpillConfig) -> Observables {
    let query = WindowQuery::new(
        table.schema().clone(),
        vec![spec("r1", &[1], &[2]), spec("r2", &[], &[2, 1])],
    );
    let stats = TableStats::from_table(table);
    let env = ExecEnv::with_memory_blocks(mem_blocks).with_spill(spill);
    let plan = optimize(&query, &stats, Scheme::Cso, &env).unwrap();
    let report = execute_plan(&plan, table, &env).unwrap();
    Observables {
        rows: report.table.rows().to_vec(),
        modeled: report.work.modeled_counters(),
        pool: pool_counters(&env.store_snapshot()),
    }
}

#[test]
fn backends_compression_and_prefetch_are_counter_invisible() {
    let table = random_table(6_000, &[40, 900], 7);
    for m in [1u64, 2, 256] {
        // Reference: the default configuration (in-memory, raw, cold reads).
        let reference = run(&table, m, SpillConfig::mem());
        assert!(
            !reference.rows.is_empty(),
            "M={m}: reference produced no rows"
        );
        for kind in [SpillBackendKind::Mem, SpillBackendKind::File] {
            for compress in [false, true] {
                for prefetch in [0usize, 2] {
                    let cfg = SpillConfig::of_kind(kind)
                        .with_compress(compress)
                        .with_prefetch(prefetch);
                    let got = run(&table, m, cfg);
                    assert_eq!(
                        got, reference,
                        "M={m} kind={kind:?} compress={compress} prefetch={prefetch}: \
                         rows/modeled/pool counters must be bit-identical"
                    );
                }
            }
        }
    }
}

#[test]
fn spilling_config_reports_backend_traffic() {
    let table = random_table(6_000, &[40, 900], 7);
    let cfg = SpillConfig::of_kind(SpillBackendKind::File)
        .with_compress(true)
        .with_prefetch(2);
    run(&table, 1, cfg.clone());
    let s = cfg.stats();
    assert_eq!(s.backend, "file");
    assert!(s.put_requests > 0, "M=1 must spill");
    assert!(s.get_requests > 0);
    assert!(s.delete_requests > 0, "every spill file must be deleted");
    assert!(
        s.prefetch_hits + s.prefetch_misses > 0,
        "prefetch depth 2 must route multi-block reads through the pipeline"
    );
    // Compression is on and the payload is repetitive integer rows: the
    // at-rest bytes must undercut the logical block volume.
    assert!(s.bytes_written < s.put_requests * wfopt::storage::BLOCK_SIZE as u64);
}

#[test]
fn mem_backend_declines_compression() {
    let cfg = SpillConfig::mem().with_compress(true);
    assert!(!cfg.effective_compress());
    let table = random_table(3_000, &[25, 500], 11);
    run(&table, 1, cfg.clone());
    let s = cfg.stats();
    // Declined negotiation = raw blocks: every full block is exactly
    // BLOCK_SIZE physical bytes, so volume ≥ (puts - files) full blocks.
    assert!(s.put_requests > 0);
    assert!(s.bytes_written > (s.put_requests.saturating_sub(s.delete_requests)) * 4096);
}

/// A file-backend config over a fresh private directory.
fn arena_in_private_dir(
    tag: &str,
    compress: bool,
    prefetch_blocks: usize,
) -> (PathBuf, SpillConfig) {
    let dir = std::env::temp_dir().join(format!("wfopt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = SpillConfig {
        backend: LocalFileBackend::in_dir(dir.clone()),
        compress,
        prefetch_blocks,
    };
    (dir, cfg)
}

fn entries(dir: &Path) -> usize {
    std::fs::read_dir(dir).unwrap().count()
}

/// Run `work` while a second thread keeps listing `dir`; returns the most
/// entries any listing saw (before, during or after) and `work`'s result.
/// Only for arenas whose file already exists: creating it puts a name in the
/// directory for the instant between `open` and `unlink`.
fn most_entries_while<T>(dir: &Path, work: impl FnOnce() -> T) -> (usize, T) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut most = entries(dir);
            while !done.load(Ordering::Acquire) {
                most = most.max(entries(dir));
            }
            most.max(entries(dir))
        });
        let out = work();
        done.store(true, Ordering::Release);
        (watcher.join().expect("watcher thread"), out)
    })
}

#[test]
fn aborted_queries_leave_no_spill_files_behind() {
    let (dir, cfg) = arena_in_private_dir("abort-test", false, 2);
    let table = random_table(4_000, &[30, 700], 3);

    // A query dropped mid-stream: one of its pool-spilled segments is being
    // read back when the reader goes away.
    let store = SegmentStore::with_spill(Some(1), cfg.clone());
    let mut reader = store.admit(table.rows().to_vec()).unwrap().read();
    reader.next_row().unwrap().unwrap();
    let mid = cfg.stats();
    assert_eq!((mid.live_objects, entries(&dir)), (1, 0));
    assert!(mid.footprint_bytes > 0);
    drop(reader);
    let aborted = cfg.stats();
    assert_eq!((aborted.live_objects, entries(&dir)), (0, 0));
    // The next object gets the aborted one's slots back.
    let again = store.admit(table.rows().to_vec()).unwrap();
    assert_eq!(cfg.stats().live_objects, 1);
    assert_eq!(cfg.stats().footprint_bytes, aborted.footprint_bytes);
    drop(again);

    // A whole spilling query through the same arena.
    let (most, _) = most_entries_while(&dir, || run(&table, 1, cfg.clone()));
    let s = cfg.stats();
    assert!(s.delete_requests > 2, "the run must have spilled");
    assert_eq!((s.live_objects, most), (0, 0));

    // Cancellation before execution must not leak either.
    let db = DatabaseConfig::new()
        .memory_blocks(8)
        .max_concurrent(1)
        .per_query_blocks(1)
        .spill_backend(SpillBackendKind::File)
        .open();
    db.register("t", random_table(4_000, &[30], 3)).unwrap();
    let token = CancelToken::new();
    token.cancel();
    let session = db.session().with_cancel(token);
    assert!(session
        .query("SELECT *, rank() OVER (PARTITION BY c0 ORDER BY id) AS r FROM t")
        .is_err());
    assert_eq!(db.spill_stats().live_objects, 0);
    assert_eq!(entries(&dir), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The benchmark's `spill_chain` statement (`FS→HS→HS→SS` at a 12-block
/// pool): two Hashed Sorts victim-spill ~1 024 small buckets each.
const CHAIN_SQL: &str = "SELECT *, \
    rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r1, \
    rank() OVER (PARTITION BY ws_item_sk, ws_bill_customer_sk ORDER BY ws_sold_date_sk) AS r2, \
    rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_ship_date_sk) AS r3, \
    sum(ws_quantity) OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_date_sk) AS s4 \
    FROM web_sales";

fn web_sales(rows: usize) -> Table {
    WsConfig {
        rows,
        seed: 42,
        ..WsConfig::default()
    }
    .generate()
}

#[test]
fn spill_chain_statement_creates_at_most_one_file_and_never_shows_it() {
    let (dir, cfg) = arena_in_private_dir("chain-test", true, 0);
    let table = web_sales(40_000);
    let mut catalog = Catalog::new();
    catalog.register("web_sales", table.schema().clone());
    let (_, query) = parse_window_query(CHAIN_SQL, &catalog).unwrap();
    let stats = TableStats::from_table(&table);
    // Serial plan and execution whatever `WF_WORKERS` says: the arena's
    // high-water mark is only run-to-run exact without racing workers.
    let env = ExecEnv::with_memory_blocks(12)
        .with_par_workers(1)
        .with_spill(cfg.clone());
    let plan = optimize(&query, &stats, Scheme::Cso, &env).unwrap();
    let hashed_sorts = plan
        .steps
        .iter()
        .filter(|s| matches!(s.reorder, ReorderOp::Hs { .. }))
        .count();
    assert_eq!(hashed_sorts, 2, "plan: {}", plan.chain_string());

    assert_eq!(entries(&dir), 0);
    let report = execute_plan(&plan, &table, &env).unwrap();
    assert_eq!(report.table.row_count(), 40_000);
    assert_eq!(
        entries(&dir),
        0,
        "the arena's one file was unlinked while open"
    );
    let first = cfg.stats();
    assert!(first.delete_requests >= 2_048, "{first:?}");
    assert_eq!(first.live_objects, 0);
    assert!(first.footprint_bytes > 0);

    // Every slot came back, so an identical second run fits in the file the
    // first one created — and, creating none, shows a free-running observer
    // an empty directory throughout its 2 048 object lifetimes.
    let (most, _) = most_entries_while(&dir, || execute_plan(&plan, &table, &env).unwrap());
    let second = cfg.stats();
    assert_eq!((most, second.live_objects), (0, 0));
    assert_eq!(second.delete_requests, 2 * first.delete_requests);
    assert_eq!(second.footprint_bytes, first.footprint_bytes);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn database_on_the_file_backend_returns_every_slot_however_a_statement_ends() {
    let db = DatabaseConfig::new()
        .memory_blocks(12)
        .max_concurrent(1)
        .per_query_blocks(12)
        .worker_threads(1)
        .spill_backend(SpillBackendKind::File)
        .compress_spill(true)
        .prefetch_blocks(0)
        .open();
    db.register("web_sales", web_sales(40_000)).unwrap();

    assert_eq!(db.spill_stats().footprint_bytes, 0, "nothing spilled yet");
    let out = db.session().execute(CHAIN_SQL).unwrap();
    assert_eq!(out.table.row_count(), 40_000);
    let first = db.spill_stats();
    assert!(first.delete_requests >= 2_048, "{first:?}");
    assert_eq!(first.live_objects, 0);

    // Cancelled.
    let token = CancelToken::new();
    token.cancel();
    let err = db
        .session()
        .with_cancel(token)
        .execute(CHAIN_SQL)
        .unwrap_err();
    assert!(matches!(err, Error::Canceled(_)), "{err}");
    assert_eq!(db.spill_stats().live_objects, 0);

    // Timed out in the admission queue behind a held permit.
    let permit = db.governor().admit(None, None).unwrap();
    let err = db
        .session()
        .with_timeout(std::time::Duration::from_millis(20))
        .execute(CHAIN_SQL)
        .unwrap_err();
    assert!(matches!(err, Error::Admission(_)), "{err}");
    drop(permit);
    assert_eq!(db.spill_stats().live_objects, 0);

    db.session().execute(CHAIN_SQL).unwrap();
    let second = db.spill_stats();
    assert_eq!(second.live_objects, 0);
    assert_eq!(second.footprint_bytes, first.footprint_bytes);
}

#[test]
fn churning_threads_and_a_prefetching_reader_share_one_arena() {
    const CHURN_ROWS: usize = 600;
    const STREAM_ROWS: usize = 6_000;
    let (dir, cfg) = arena_in_private_dir("share-test", true, 0);
    let rows_of = |tag: i64, n: usize| -> Vec<Row> {
        (0..n as i64)
            .map(|i| {
                Row::new(vec![
                    tag.into(),
                    i.into(),
                    Value::str(format!("row-{tag}-{i}")),
                ])
            })
            .collect()
    };
    let spill = |cfg: &SpillConfig, rows: &[Row]| {
        let meter = IoMeter::Model(Arc::new(CostTracker::new()));
        let mut f = SpillFile::with_config(cfg, meter).unwrap();
        for r in rows {
            f.push(r).unwrap();
        }
        f.into_reader().unwrap()
    };

    let barrier = Barrier::new(5);
    std::thread::scope(|scope| {
        for t in 0..4i64 {
            let (cfg, barrier, spill, rows_of) = (&cfg, &barrier, &spill, &rows_of);
            scope.spawn(move || {
                barrier.wait();
                for round in 0..100 {
                    let rows = rows_of(t * 1_000 + round, CHURN_ROWS);
                    assert_eq!(spill(cfg, &rows).read_all().unwrap(), rows);
                }
            });
        }
        // The fifth object streams through the read-ahead workers while the
        // others allocate, free and overwrite slots all around it.
        let streamed = rows_of(-1, STREAM_ROWS);
        let mut reader = spill(&cfg.clone().with_prefetch(2), &streamed);
        barrier.wait();
        for expected in &streamed {
            assert_eq!(reader.next_row().unwrap().as_ref(), Some(expected));
        }
        assert!(reader.next_row().unwrap().is_none());
    });

    let s = cfg.stats();
    assert_eq!(s.live_objects, 0);
    assert_eq!(s.delete_requests, 401);
    assert!(s.prefetch_hits + s.prefetch_misses > 0);
    // Recycling under concurrency: the file never outgrew the five objects
    // that can be live at once (each far below a raw block per codec block).
    let raw_blocks = |rows: usize| (rows * 64).div_ceil(wfopt::storage::BLOCK_SIZE) as u64;
    let bound = (4 * raw_blocks(CHURN_ROWS) + raw_blocks(STREAM_ROWS)) * SLOT_SIZE as u64;
    assert!(
        s.footprint_bytes <= bound,
        "{} > {bound}",
        s.footprint_bytes
    );
    assert_eq!(entries(&dir), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Codec property tests (SplitMix64-driven)
// ---------------------------------------------------------------------------

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn random_row(rng: &mut SplitMix64) -> Row {
    let arity = (rng.next() % 6) as usize;
    let values = (0..arity)
        .map(|_| match rng.next() % 4 {
            0 => Value::Null,
            1 => Value::Int(rng.next() as i64),
            2 => Value::Float(f64::from_bits(rng.next() % (1 << 62))),
            _ => {
                let len = (rng.next() % 40) as usize;
                Value::str(
                    (0..len)
                        .map(|_| char::from(b'a' + (rng.next() % 26) as u8))
                        .collect::<String>(),
                )
            }
        })
        .collect();
    Row::new(values)
}

fn compressed_round_trip(rows: &[Row], trial: usize) {
    let mut buf = ByteBuf::new();
    for r in rows {
        encode_row(r, &mut buf);
    }
    let frame = compress_block(buf.as_slice());
    let raw = decompress_block(&frame).unwrap();
    assert_eq!(raw, buf.as_slice(), "trial {trial}: payload mismatch");
    let mut cursor: &[u8] = &raw;
    for r in rows {
        assert_eq!(&decode_row(&mut cursor).unwrap(), r, "trial {trial}");
    }
    assert!(cursor.is_empty());
}

#[test]
fn compressed_row_blocks_round_trip() {
    let mut rng = SplitMix64(0xC0FFEE);
    for trial in 0..50 {
        let rows: Vec<Row> = (0..(rng.next() % 200))
            .map(|_| random_row(&mut rng))
            .collect();
        compressed_round_trip(&rows, trial);
    }
}

/// A sorted run's blocks through the compressor and back. Runs hold plain
/// rows and key them again on read-back, so a run block is rows in key order
/// with the key among the columns: here a leading key of up to 24
/// high-entropy characters (NULL one time in five) ahead of random values.
#[test]
fn compressed_keyed_blocks_round_trip() {
    let mut rng = SplitMix64(0xBEEF);
    for trial in 0..30 {
        let mut rows: Vec<Row> = (0..(rng.next() % 120))
            .map(|_| {
                let key = if rng.next().is_multiple_of(5) {
                    Value::Null
                } else {
                    let len = (rng.next() % 24) as usize;
                    Value::str(
                        (0..len)
                            .map(|_| char::from(rng.next() as u8))
                            .collect::<String>(),
                    )
                };
                let mut values = vec![key];
                values.extend(random_row(&mut rng).into_values());
                Row::new(values)
            })
            .collect();
        rows.sort_by(|a, b| a.values()[0].cmp(&b.values()[0]));
        compressed_round_trip(&rows, trial);
    }
}

#[test]
fn database_spill_knobs_flow_into_stats() {
    let db = DatabaseConfig::new()
        .memory_blocks(8)
        .max_concurrent(1)
        .per_query_blocks(1)
        .spill_backend(SpillBackendKind::File)
        .compress_spill(true)
        .prefetch_blocks(2)
        .open();
    let table = random_table(4_000, &[30], 5);
    db.register("t", table).unwrap();
    let out = db
        .session()
        .query("SELECT *, rank() OVER (PARTITION BY c0 ORDER BY id) AS r FROM t")
        .unwrap();
    assert_eq!(out.row_count(), 4_000);
    let s = db.spill_stats();
    assert_eq!(s.backend, "file");
    assert!(s.put_requests > 0, "M=1 must spill");
    assert_eq!(s.put_requests, s.get_requests);
    assert!(s.prefetch_hits + s.prefetch_misses > 0);
    assert!(db.spill_config().effective_compress());
    let unset = DatabaseConfig::new().resolved_spill_config();
    assert_eq!(unset.prefetch_blocks, 0, "read-ahead is opt-in");
}
