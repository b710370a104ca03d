//! Concurrency contract of the served session API.
//!
//! The core guarantee: because every admitted query runs against its own
//! pooled ledger sub-account whose spill decisions depend only on the
//! per-query budget, a query's rows *and* modeled counters are bit-identical
//! whether it runs alone or next to 63 neighbours — while the shared pool's
//! high-water mark stays governed.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use wfopt::datagen::WsConfig;
use wfopt::prelude::*;
use wfopt::storage::StoreSnapshot;

const SQL: &str = "SELECT *, \
    rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r, \
    sum(ws_quantity) OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_date_sk) AS s \
    FROM web_sales";

fn sales(rows: usize) -> Table {
    WsConfig {
        rows,
        d_item: (rows as u64 / 20).max(8),
        d_bill: (rows as u64 / 10).max(8),
        ..WsConfig::default()
    }
    .generate()
}

/// `worker_threads(1)` pins planning and execution so plans (and therefore
/// counters) cannot vary with the CI worker matrix.
fn served_db(table: &Table, max_concurrent: usize, pool_blocks: u64, per_query: u64) -> Database {
    let db = DatabaseConfig::new()
        .memory_blocks(pool_blocks)
        .max_concurrent(max_concurrent)
        .per_query_blocks(per_query)
        .queue_depth(128)
        .worker_threads(1)
        .open();
    db.register("web_sales", table.clone()).unwrap();
    db
}

fn fingerprint(outcome: &QueryOutcome) -> (Vec<String>, String, u64) {
    (
        outcome.table.rows().iter().map(|r| r.to_string()).collect(),
        format!("{:?}", outcome.report.work),
        outcome.report.modeled_ms.to_bits(),
    )
}

fn assert_identical_under_load(threads: usize, rows: usize) {
    let table = sales(rows);

    // Reference: the same statement, same per-query budget, run solo.
    let solo_db = served_db(&table, 1, 64, 8);
    let reference = fingerprint(&solo_db.session().execute(SQL).unwrap());

    let db = served_db(&table, 4, 64, 8);
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let session = db.session();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                fingerprint(&session.execute(SQL).unwrap())
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let got = h.join().expect("worker panicked");
        assert_eq!(
            got, reference,
            "query {i} of {threads} diverged from the solo run"
        );
    }

    let stats = db.admission_stats();
    assert_eq!(stats.admitted, threads as u64);
    assert_eq!(stats.completed, threads as u64);
    assert_eq!(stats.rejected, 0);
    assert!(stats.peak_in_flight <= 4, "peak {}", stats.peak_in_flight);
}

#[test]
fn eight_concurrent_queries_are_bit_identical_to_serial() {
    assert_identical_under_load(8, 6_000);
}

#[test]
fn sixty_four_concurrent_queries_are_bit_identical_to_serial() {
    assert_identical_under_load(64, 3_000);
}

#[test]
fn pool_residency_stays_governed_under_concurrency() {
    let table = sales(12_000);

    // Solo high-water mark of one spilling query (budget 2 blocks against a
    // much larger table), measured through the same forwarding path.
    let solo_db = served_db(&table, 1, 64, 2);
    let solo = solo_db.session().execute(SQL).unwrap();
    assert!(
        solo.report.store.spilled_segments > 0,
        "expected the 2-block budget to force spilling"
    );
    let solo_peak = solo_db.pool_snapshot().peak_resident_blocks();
    assert!(solo_peak > 0);

    let db = served_db(&table, 8, 64, 2);
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let session = db.session();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                session.execute(SQL).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }

    let peak = db.pool_snapshot().peak_resident_blocks();
    let pool_budget = 64;
    assert!(
        peak <= 8 * solo_peak && peak <= pool_budget,
        "pool peak {peak} blocks exceeds 8x solo peak ({solo_peak}) or budget ({pool_budget})"
    );
    assert!(db.admission_stats().peak_in_flight <= 8);
}

#[test]
fn waiters_queue_and_drain_in_fifo_order() {
    let table = sales(2_000);
    let db = served_db(&table, 1, 64, 8);

    // Hold the only slot so the next arrival must queue.
    let permit = db.governor().admit(None, None).unwrap();
    let session = db.session();
    let waiter = thread::spawn(move || session.execute(SQL).map(|o| o.table.row_count()));

    // The waiter is parked in the FIFO, not running.
    let mut spins = 0;
    while db.admission_stats().queued < 1 {
        assert!(spins < 400, "waiter never queued");
        spins += 1;
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(db.governor().in_flight(), 1);

    drop(permit);
    let rows = waiter.join().unwrap().unwrap();
    assert_eq!(rows, 2_000);
    let stats = db.admission_stats();
    assert_eq!(stats.queued, 1);
    assert!(stats.max_queue_wait > Duration::ZERO);
}

#[test]
fn queue_timeout_is_a_clean_error_and_the_pool_survives() {
    let table = sales(2_000);
    let db = served_db(&table, 1, 64, 8);

    let permit = db.governor().admit(None, None).unwrap();
    let err = db
        .session()
        .with_timeout(Duration::from_millis(40))
        .execute(SQL)
        .unwrap_err();
    assert!(matches!(err, Error::Admission(_)), "got {err}");
    assert_eq!(db.admission_stats().timed_out, 1);

    // The shared store is not poisoned: release the slot and run normally.
    drop(permit);
    let outcome = db.session().execute(SQL).unwrap();
    assert_eq!(outcome.table.row_count(), 2_000);
    // Two completions: the manually held permit plus the real query.
    assert_eq!(db.admission_stats().completed, 2);
}

#[test]
fn cancellation_aborts_a_queued_query_cleanly() {
    let table = sales(2_000);
    let db = served_db(&table, 1, 64, 8);

    let permit = db.governor().admit(None, None).unwrap();
    let token = CancelToken::new();
    let session = db.session().with_cancel(token.clone());
    let waiter = thread::spawn(move || session.execute(SQL));

    let mut spins = 0;
    while db.admission_stats().queued < 1 {
        assert!(spins < 400, "waiter never queued");
        spins += 1;
        thread::sleep(Duration::from_millis(5));
    }
    token.cancel();
    let err = waiter.join().unwrap().unwrap_err();
    assert!(matches!(err, Error::Canceled(_)), "got {err}");
    assert_eq!(db.admission_stats().canceled, 1);

    drop(permit);
    let outcome = db.session().execute(SQL).unwrap();
    assert_eq!(outcome.table.row_count(), 2_000);
}

/// `ExecReport.store` describes one statement: its pooled sub-account has
/// pool counters of its own that mirror up, so the report stops growing with
/// the database's age while `Database::pool_snapshot()` stays cumulative.
#[test]
fn exec_report_store_is_per_statement_and_sums_to_the_pool() {
    let table = sales(6_000);
    let pool_blocks = |s: &StoreSnapshot| {
        (
            s.spilled_segments,
            s.spill_blocks_written,
            s.spill_blocks_read,
        )
    };
    // A Par plan (worker sub-accounts share their statement's counters) and
    // a serial one, sequentially and then from two sessions at once.
    for workers in [1usize, 2] {
        let db = DatabaseConfig::new()
            .memory_blocks(64)
            .max_concurrent(2)
            .per_query_blocks(2)
            .worker_threads(workers)
            .open();
        db.register("web_sales", table.clone()).unwrap();

        let before = db.pool_snapshot();
        let stores: Vec<StoreSnapshot> = (0..4)
            .map(|_| db.session().execute(SQL).unwrap().report.store)
            .collect();
        let first = stores[0];
        assert!(first.spill_blocks_written > 0, "2 blocks must pool-spill");
        assert_eq!(first.spill_blocks_read, first.spill_blocks_written);
        for (i, s) in stores.iter().enumerate() {
            assert_eq!(*s, first, "workers={workers}: statement {i} differs");
        }
        let after = db.pool_snapshot();
        let (segments, written, read) = pool_blocks(&first);
        assert_eq!(
            pool_blocks(&after),
            (
                before.spilled_segments + 4 * segments,
                before.spill_blocks_written + 4 * written,
                before.spill_blocks_read + 4 * read
            ),
            "workers={workers}: the pool counts the sum of its statements"
        );

        let barrier = Barrier::new(2);
        let concurrent: Vec<StoreSnapshot> = thread::scope(|scope| {
            let sessions: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let session = db.session();
                        barrier.wait();
                        (0..2)
                            .map(|_| session.execute(SQL).unwrap().report.store)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            sessions
                .into_iter()
                .flat_map(|h| h.join().expect("session thread"))
                .collect()
        });
        for s in &concurrent {
            assert_eq!(*s, first, "workers={workers}: a neighbour leaked in");
        }
        assert_eq!(
            pool_blocks(&db.pool_snapshot()),
            (
                after.spilled_segments + 4 * segments,
                after.spill_blocks_written + 4 * written,
                after.spill_blocks_read + 4 * read
            )
        );
    }
}
