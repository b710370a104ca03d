//! The four in-process workloads: one client sends one SQL statement through
//! `wfopt::session` in a closed loop and verifies every result.

use crate::hostspeed;
use crate::layers::{self, ms, FrontEnd, Samples};
use crate::oracle::{self, Digest};
use crate::probes;
use crate::result::{nproc, Run};
use crate::run::{self, Diagnostics, Options};
use crate::spec::{self, InProc, Pool};
use crate::stats;
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wfopt::datagen::WsConfig;
use wfopt::prelude::*;
use wfopt::storage::{LocalFileBackend, MemBackend};

/// Discarded statements at the end of each set-up, verified like the rest.
const WARMUPS: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spill {
    Mem,
    FileRaw,
    FileLzss,
}

/// Every knob pinned: nothing is left to the environment.
fn config(w: &InProc, table_blocks: u64, workers: usize, spill: Spill) -> DatabaseConfig {
    let pool = w.pool.blocks(table_blocks);
    DatabaseConfig::new()
        .scheme(Scheme::Cso)
        .memory_blocks(pool)
        .max_concurrent(1)
        .per_query_blocks(pool)
        .worker_threads(workers)
        .spill_backend(match spill {
            Spill::Mem => SpillBackendKind::Mem,
            Spill::FileRaw | Spill::FileLzss => SpillBackendKind::File,
        })
        .compress_spill(spill == Spill::FileLzss)
        .prefetch_blocks(0)
}

struct Client<'a> {
    sql: &'a str,
    expected: Digest,
    ordered: bool,
}

impl Client<'_> {
    /// One statement, SQL text in, verified rows out; the latency of a
    /// statement that fails or returns the wrong rows is withheld.
    fn statement(&self, session: &Session, plant_fault: bool) -> (Duration, bool) {
        let t = Instant::now();
        let result = session.execute(self.sql);
        let latency = t.elapsed();
        let ok = match result {
            Ok(out) => oracle::digest_table(&out.table, self.ordered, plant_fault) == self.expected,
            Err(e) => {
                eprintln!("statement failed: {e}");
                false
            }
        };
        (latency, ok)
    }
}

struct SetUp {
    db: Database,
    total: Duration,
    register: Duration,
    warmup: Duration,
}

/// `DatabaseConfig::open` + `register` + the warm-up statements.
fn set_up(cfg: DatabaseConfig, table: &Table, client: &Client) -> Result<SetUp, String> {
    let t0 = Instant::now();
    let db = cfg.open();
    let t1 = Instant::now();
    db.register("web_sales", table.clone())
        .map_err(|e| e.to_string())?;
    let register = t1.elapsed();
    let t2 = Instant::now();
    let session = db.session();
    for _ in 0..WARMUPS {
        if !client.statement(&session, false).1 {
            return Err("a warm-up statement failed the oracle".into());
        }
    }
    Ok(SetUp {
        db,
        total: t0.elapsed(),
        register,
        warmup: t2.elapsed(),
    })
}

/// Latency of the statement on a database of its own: the faster of two
/// verified statements, the first of which also warms up.
fn side_ms(cfg: DatabaseConfig, table: &Table, client: &Client) -> Result<f64, String> {
    let db = cfg.open();
    db.register("web_sales", table.clone())
        .map_err(|e| e.to_string())?;
    let session = db.session();
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let (latency, ok) = client.statement(&session, false);
        if !ok {
            return Err("a side statement failed the oracle".into());
        }
        best = best.min(ms(latency));
    }
    Ok(best)
}

pub fn run(opts: &Options, w: &InProc) -> Result<Run, String> {
    let rows = opts.rows.unwrap_or(w.rows);
    let workers = if w.parallel { nproc().min(4) } else { 1 };

    // Inputs and expected result: outside `setup_s`.
    let t = Instant::now();
    let table = WsConfig {
        rows,
        seed: opts.seed,
        ..WsConfig::default()
    }
    .generate();
    let datagen = t.elapsed();
    let table_blocks = table.block_count();
    let expected;
    let ordered;
    {
        let oracle_db = oracle::oracle_database(&table).map_err(|e| e.to_string())?;
        ordered = oracle::is_ordered(&oracle_db, w.sql).map_err(|e| e.to_string())?;
        let result = oracle_db
            .session()
            .query(w.sql)
            .map_err(|e| e.to_string())?;
        expected = oracle::digest_table(&result, ordered, false);
    }
    let client = Client {
        sql: w.sql,
        expected,
        ordered,
    };
    let main_spill = if w.file_spill {
        Spill::FileLzss
    } else {
        Spill::Mem
    };

    let mut setups = Vec::new();
    for _ in 0..spec::SETUP_REPS {
        setups.push(set_up(
            config(w, table_blocks, workers, main_spill),
            &table,
            &client,
        )?);
    }
    let median_s = |part: fn(&SetUp) -> Duration| {
        stats::median(
            &setups
                .iter()
                .map(|s| part(s).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let setup_s = median_s(|s| s.total);
    let register_s = median_s(|s| s.register);
    let warmup_s = median_s(|s| s.warmup);
    let db = setups.pop().expect("SETUP_REPS >= 1").db;
    drop(setups);

    // The oracle's and the earlier set-ups' memory is gone; peak RSS from here
    // on is the measured engine's.
    run::reset_peak_rss();

    let session = db.session();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut spent = Duration::ZERO;
    let mut samples = Samples::default();
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut last_traced = None;
    let front = opts
        .trace
        .then(|| FrontEnd::new(&table, w.pool.blocks(table_blocks), Some(workers)));
    // The untraced run times the host's own kernel before every statement and
    // reports its timings at the host's nominal speed (`hostspeed`).
    let kernel = (!opts.trace).then(hostspeed::Kernel::new);
    let mut kernel_ms = Vec::new();

    // A traced run makes a second statement whatever the first took: the
    // first is untraced, and without a traced one it has nothing to report.
    while spent.as_secs_f64() < opts.seconds || (front.is_some() && attempted < 2) {
        let plant = opts.plant_fault && attempted == 0;
        attempted += 1;
        // The traced run alternates traced and untraced statements, so their
        // ratio is taken under the same conditions.
        match &front {
            Some(front) if attempted.is_multiple_of(2) => {
                let traced =
                    layers::trace_statement(&db, front, w.sql, attempted, &mut rec, &mut samples);
                match traced {
                    Ok(t) => {
                        spent += t.latency;
                        let verify = rec.open("verify", attempted, None);
                        let ok = oracle::digest_table(&t.table, ordered, false) == expected;
                        rec.close(verify);
                        if ok {
                            traced_ms.push(ms(t.latency));
                            last_traced = Some(t.engine);
                        } else {
                            failed += 1;
                        }
                    }
                    Err(e) => {
                        eprintln!("traced statement failed: {e}");
                        failed += 1;
                        spent += Duration::from_millis(1);
                    }
                }
            }
            _ => {
                if let Some(kernel) = &kernel {
                    kernel_ms.push(ms(kernel.run()));
                }
                let (latency, ok) = client.statement(&session, plant);
                spent += latency;
                if ok {
                    plain_ms.push(ms(latency));
                } else {
                    failed += 1;
                }
            }
        }
    }

    let mut counts = BTreeMap::new();
    counts.insert("warmup_per_setup".to_string(), WARMUPS);
    counts.insert("setups".to_string(), spec::SETUP_REPS as u64);
    counts.insert("measured".to_string(), attempted);
    counts.insert("traced".to_string(), traced_ms.len() as u64);
    counts.insert("input_rows".to_string(), rows as u64);
    counts.insert("worker_threads".to_string(), workers as u64);
    counts.insert("pool_blocks".to_string(), w.pool.blocks(table_blocks));

    let plain_secs = plain_ms.iter().sum::<f64>() / 1e3;
    let diagnostics = Diagnostics::new(&plain_ms, rows, plain_secs);
    let mut metrics = BTreeMap::new();
    let mut run_diagnostics = diagnostics.of_run(opts.trace);
    if !opts.trace {
        let raw_ms = stats::percentile(&plain_ms, spec::LATENCY_QUANTILE);
        let host_speed = hostspeed::speed(&kernel_ms);
        metrics.insert("stmt_p25_ms".to_string(), raw_ms * host_speed);
        metrics.insert("peak_rss_mb".to_string(), run::peak_rss_mb(None));
        metrics.insert("setup_s".to_string(), setup_s * host_speed);
        run_diagnostics.insert("stmt_p25_raw_ms".to_string(), raw_ms);
        run_diagnostics.insert("setup_raw_s".to_string(), setup_s);
        run_diagnostics.insert("host_speed".to_string(), host_speed);
    } else {
        diagnostics.record(&mut samples);
        layers::admission(&db.admission_stats(), &mut samples);
        samples.set(
            "spill.prefetch_hit_rate",
            db.spill_stats().prefetch_hit_rate(),
        );
        samples.set("setup.datagen_s", datagen.as_secs_f64());
        samples.set("setup.register_s", register_s);
        samples.set("setup.warmup_s", warmup_s);
        samples.set("run.fail_ratio", failed as f64 / attempted.max(1) as f64);
        let plain_p50 = stats::median(&plain_ms);
        if plain_p50 > 0.0 {
            samples.set(
                "trace.overhead_ratio",
                stats::median(&traced_ms) / plain_p50,
            );
        }
        side_measurements(
            w,
            &table,
            table_blocks,
            workers,
            &client,
            plain_p50,
            &mut samples,
        )?;
        metrics = samples.medians();

        if let Some(engine) = &last_traced {
            let exec_ms = stats::median(samples.values("runtime.exec_ms"));
            run::write_trace_files(opts, std::slice::from_ref(&rec), engine, exec_ms)?;
        }
    }

    let mut all_ms = plain_ms;
    all_ms.extend(&traced_ms);
    Ok(Run {
        workload: opts.workload.name.to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        attempted,
        failed,
        samples: all_ms.len(),
        latency_quartiles_ms: stats::quartiles(&all_ms),
        counts,
        metrics,
        diagnostics: run_diagnostics,
    })
}

/// What only a second database or a single operator can show: sort, codec and
/// backend probes, the backend and codec shares of the spilling statement,
/// and the parallel plan against the serial one.
fn side_measurements(
    w: &InProc,
    table: &Table,
    table_blocks: u64,
    workers: usize,
    client: &Client,
    main_p50_ms: f64,
    samples: &mut Samples,
) -> Result<(), String> {
    let e = |err: Error| err.to_string();
    if matches!(w.pool, Pool::TimesTable(_)) {
        let rate = probes::sort_rows_per_s(table, w.pool.blocks(table_blocks), SpillConfig::mem())
            .map_err(e)?;
        samples.set("sort.probe_inmem_rows_per_s", rate);
    }
    if w.file_spill {
        let pool = w.pool.blocks(table_blocks);
        let spill = SpillConfig::file().with_compress(true);
        samples.set(
            "sort.probe_spill_rows_per_s",
            probes::sort_rows_per_s(table, pool, spill).map_err(e)?,
        );
        let blocks = probes::encoded_blocks(table);
        let (compress, decompress) = probes::codec_mb_per_s(&blocks).map_err(e)?;
        samples.set("codec.compress_mb_per_s", compress);
        samples.set("codec.decompress_mb_per_s", decompress);
        let (append, read) =
            probes::backend_us_per_block(LocalFileBackend::new(), &blocks).map_err(e)?;
        samples.set("backend.file_append_us", append);
        samples.set("backend.file_read_us", read);
        let mem: Arc<MemBackend> = MemBackend::new();
        let (append, read) = probes::backend_us_per_block(mem, &blocks).map_err(e)?;
        samples.set("backend.mem_append_us", append);
        samples.set("backend.mem_read_us", read);

        // The same statement with the backend and the codec swapped out.
        let mem_ms = side_ms(config(w, table_blocks, workers, Spill::Mem), table, client)?;
        let raw_ms = side_ms(
            config(w, table_blocks, workers, Spill::FileRaw),
            table,
            client,
        )?;
        samples.set("spill.backend_delta_ms", raw_ms - mem_ms);
        samples.set("spill.codec_delta_ms", main_p50_ms - raw_ms);
    }
    if w.parallel && main_p50_ms > 0.0 {
        let serial_ms = side_ms(config(w, table_blocks, 1, Spill::Mem), table, client)?;
        samples.set("par.speedup_vs_serial", serial_ms / main_p50_ms);
    }
    Ok(())
}
