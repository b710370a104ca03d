//! Per-layer attribution of one statement, taken from outside the engine:
//! timed calls into `wf_sql::parse`, `wf_sql::bind` and `optimize`, the
//! public result structs of `QueryOutcome`, and the engine's own trace folded
//! into self time.

use crate::stats;
use crate::trace::{parse_chrome, Fold, Recorder};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use wfopt::prelude::*;
use wfopt::sql::Catalog;
use wfopt::storage::BLOCK_SIZE;

/// Samples per per-layer metric, one per traced statement; a metric's value
/// is their median.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, vec![value]);
    }

    pub fn values(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn medians(&self) -> BTreeMap<String, f64> {
        self.0
            .iter()
            .map(|(k, v)| (k.to_string(), stats::median(v)))
            .collect()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What the front-end probes need besides the SQL text: the catalog the
/// binder resolves against and the statistics and environment `optimize`
/// plans under — the same ones `Session::prepare` builds internally.
pub struct FrontEnd {
    pub catalog: Catalog,
    pub stats: TableStats,
    pub plan_env: ExecEnv,
    pub input_rows: u64,
    pub input_bytes: u64,
}

impl FrontEnd {
    pub fn new(table: &Table, per_query_blocks: u64, workers: Option<usize>) -> Self {
        let mut catalog = Catalog::new();
        catalog.register("web_sales", table.schema().clone());
        let env = ExecEnv::with_memory_blocks(per_query_blocks);
        FrontEnd {
            catalog,
            stats: TableStats::from_table(table),
            plan_env: match workers {
                Some(n) => env.with_par_workers(n).with_worker_threads(n),
                None => env,
            },
            input_rows: table.row_count() as u64,
            input_bytes: table.byte_size() as u64,
        }
    }
}

/// One statement's engine spans and where the harness's `execute` span for
/// it began: what the trace files are written from.
pub struct EngineTrace {
    pub fold: Fold,
    pub execute_start_us: u64,
}

/// One traced statement.
pub struct Traced {
    /// The result, for verification.
    pub table: Table,
    /// `prepare` + `execute`: what an untraced `Session::execute` covers.
    pub latency: Duration,
    pub engine: EngineTrace,
}

/// Run `sql` once with the harness's spans around each layer call and the
/// engine's tracing on, and add what it shows to `samples`.
pub fn trace_statement(
    db: &Database,
    front: &FrontEnd,
    sql: &str,
    stmt: u64,
    rec: &mut Recorder,
    samples: &mut Samples,
) -> std::result::Result<Traced, String> {
    let e = |err: Error| err.to_string();
    let root = rec.open("statement", stmt, None);

    // Front end, layer by layer. `prepare` below repeats this work inside the
    // engine; these calls exist to time each layer on its own.
    let (ast, parse_d) = rec.time("parse", stmt, Some(root), || wfopt::sql::parse(sql));
    let ast = ast.map_err(e)?;
    let (query, bind_d) = rec.time("bind", stmt, Some(root), || {
        wfopt::sql::bind(&ast, &front.catalog)
    });
    let query = query.map_err(e)?;
    let (plan, optimize_d) = rec.time("optimize", stmt, Some(root), || {
        optimize(&query, &front.stats, Scheme::Cso, &front.plan_env)
    });
    let plan = plan.map_err(e)?;

    let before = db.spill_stats();
    let pool_before = db.pool_snapshot();
    let session = db.session().with_trace(true);
    let (prepared, prepare_d) = rec.time("prepare", stmt, Some(root), || session.prepare(sql));
    let prepared = prepared.map_err(e)?;
    let execute = rec.open("execute", stmt, Some(root));
    let execute_start_us = rec.spans[execute].start_us;
    let t = Instant::now();
    let outcome = prepared.execute();
    let exec_d = t.elapsed();
    rec.close(execute);
    rec.close(root);
    let outcome = outcome.map_err(e)?;
    let after = db.spill_stats();
    let pool_after = db.pool_snapshot();

    let events = match &outcome.trace {
        Some(text) => parse_chrome(text)?,
        None => return Err("the engine returned no trace".into()),
    };
    let fold = Fold::new(events);
    let exec_ms = ms(exec_d);
    let report = &outcome.report;

    samples.push("sql.parse_us", us(parse_d));
    samples.push("sql.bind_us", us(bind_d));
    samples.push("planner.optimize_us", us(optimize_d));
    samples.push("planner.reorder_ops", plan.reorder_count() as f64);
    samples.push(
        "planner.est_ms",
        plan.est_cost.ms(&front.plan_env.weights()),
    );
    if report.modeled_ms > 0.0 {
        samples.push(
            "planner.model_residual",
            ms(report.wall) / report.modeled_ms,
        );
    }

    samples.push("runtime.exec_ms", exec_ms);
    samples.push("runtime.modeled_ms", report.modeled_ms);
    samples.push("runtime.rows_moved", report.work.rows_moved as f64);
    samples.push(
        "runtime.finish_ms",
        ms(outcome
            .wall
            .saturating_sub(outcome.queue_wait)
            .saturating_sub(report.wall)),
    );
    samples.push("admission.queue_wait_ms", ms(outcome.queue_wait));

    // Step walls by the reorder operator in front of each step.
    let step_ms = |prefix: &str| -> f64 {
        report
            .step_metrics
            .iter()
            .filter(|s| s.label.starts_with(prefix))
            .map(|s| ms(s.wall))
            .sum()
    };
    let scan = report.step_metrics.first();
    let scan_ms = scan.map_or(0.0, |s| ms(s.wall));
    samples.push("runtime.scan_ms", scan_ms);
    samples.push("reorder.fs_ms", step_ms("FS→"));
    samples.push("reorder.hs_ms", step_ms("HS→"));
    samples.push("reorder.ss_ms", step_ms("SS→"));
    samples.push("window.pure_step_ms", step_ms("→"));
    if outcome.plan.filter.is_some() {
        samples.push("filter.scan_ms", scan_ms);
        let kept = scan.map_or(0, |s| s.rows);
        samples.push(
            "filter.selectivity",
            kept as f64 / front.input_rows.max(1) as f64,
        );
    }

    samples.push("sort.comparisons", report.work.comparisons as f64);
    samples.push("sort.key_encodes", report.work.key_encodes as f64);
    samples.push("sort.hashes", report.work.hashes as f64);
    samples.push("sort.io_blocks", report.work.io_blocks() as f64);

    // Engine spans, every lane: time a layer was busy, workers included.
    let all = |keys: &[&str]| fold.self_ms(keys, None);
    samples.push(
        "sort.in_memory_ms",
        all(&["sort/in_memory.radix", "sort/in_memory.comparator"]),
    );
    samples.push("sort.run_formation_ms", all(&["sort/run_formation"]));
    samples.push(
        "sort.merge_ms",
        all(&["sort/merge_pass", "sort/final_merge", "sort/merge_handles"]),
    );
    samples.push("sort.hs_partition_ms", all(&["sort/hs.partition"]));
    samples.push("sort.hs_bucket_ms", all(&["sort/hs.bucket_sort"]));
    let eval = all(&["window/eval"]);
    let eval_spilled = all(&["window/eval_spilled"]);
    samples.push("window.eval_ms", eval);
    samples.push("window.eval_spilled_ms", eval_spilled);
    if eval + eval_spilled > 0.0 {
        let evaluated = report.table.row_count() as f64 * outcome.plan.specs.len() as f64;
        samples.push(
            "window.rows_per_s",
            evaluated / ((eval + eval_spilled) / 1e3),
        );
    }
    samples.push("window.share", (eval + eval_spilled) / exec_ms);
    samples.push("pool.spill_out_ms", all(&["spill/pool.spill_out"]));

    // Scheduler: spans exist only under a `PAR→` step.
    let mut workers = fold.durations_ms("worker/chain_worker");
    workers.extend(fold.durations_ms("worker/sort_worker"));
    let worker_max = workers.iter().copied().fold(0.0, f64::max);
    if !workers.is_empty() {
        let sum: f64 = workers.iter().sum();
        samples.push("par.scatter_ms", all(&["par/scatter"]));
        samples.push("par.merge_ms", all(&["par/merge"]));
        samples.push("par.worker_max_ms", worker_max);
        samples.push("par.worker_sum_ms", sum);
        samples.push("par.worker_skew", worker_max / (sum / workers.len() as f64));
        let peak = report.worker_peak_blocks.iter().copied().max().unwrap_or(0);
        samples.push("par.worker_peak_blocks_max", peak as f64);
    }

    // What the driver thread's time is covered by: every named layer span on
    // its lane, the scan step, and — while it waits inside a parallel span —
    // the slowest worker. The rest of `execute` is in no layer's span.
    if let Some(lane) = fold.driver_lane() {
        let attributed: f64 = fold
            .by_key(Some(lane))
            .iter()
            .filter(|(key, _)| !key.starts_with("step/") || key.as_str() == "step/scan+filter")
            .map(|(_, v)| *v)
            .sum::<f64>()
            + worker_max;
        samples.push("runtime.unattributed_ms", (exec_ms - attributed).max(0.0));
    }

    // The shared pool's ledger, before and after: `ExecReport.store` keeps
    // counting across a database's statements, so it is not per execution.
    samples.push(
        "pool.peak_resident_blocks",
        pool_after.peak_resident_blocks() as f64,
    );
    samples.push(
        "pool.spill_blocks_written",
        (pool_after.spill_blocks_written - pool_before.spill_blocks_written) as f64,
    );
    samples.push(
        "pool.spill_blocks_read",
        (pool_after.spill_blocks_read - pool_before.spill_blocks_read) as f64,
    );

    // Backend traffic of this statement alone: exact with one client.
    let puts = after.put_requests - before.put_requests;
    let written = after.bytes_written - before.bytes_written;
    samples.push("spill.put_requests", puts as f64);
    samples.push(
        "spill.get_requests",
        (after.get_requests - before.get_requests) as f64,
    );
    samples.push("spill.bytes_written", written as f64);
    samples.push(
        "spill.bytes_read",
        (after.bytes_read - before.bytes_read) as f64,
    );
    samples.push(
        "spill.bytes_per_input_byte",
        written as f64 / front.input_bytes.max(1) as f64,
    );
    if written > 0 && db.spill_config().effective_compress() {
        // Logical blocks are BLOCK_SIZE except each file's last: an upper
        // estimate of the logical bytes, hence of the ratio.
        samples.push(
            "codec.ratio",
            (puts * BLOCK_SIZE as u64) as f64 / written as f64,
        );
    }

    Ok(Traced {
        table: outcome.table,
        latency: prepare_d + exec_d,
        engine: EngineTrace {
            fold,
            execute_start_us,
        },
    })
}

/// Admission counters of a database the harness owns, and the percentiles of
/// the queue waits seen per statement.
pub fn admission(stats: &AdmissionStats, samples: &mut Samples) {
    let waits = samples.values("admission.queue_wait_ms").to_vec();
    samples.set("admission.queue_wait_p50_ms", stats::median(&waits));
    samples.set(
        "admission.queue_wait_p90_ms",
        stats::percentile(&waits, 0.9),
    );
    samples.set("admission.queued", stats.queued as f64);
    samples.set("admission.rejected", stats.rejected as f64);
    samples.set("admission.timed_out", stats.timed_out as f64);
    samples.set("admission.peak_in_flight", stats.peak_in_flight as f64);
}

/// Self time per span key of one statement, driver lane and all lanes: the
/// list a later in-program tracing change starts from.
pub fn breakdown_json(workload: &str, fold: &Fold, exec_ms: f64) -> String {
    let object = |map: BTreeMap<String, f64>| {
        map.iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let driver = fold
        .driver_lane()
        .map(|l| fold.by_key(Some(l)))
        .unwrap_or_default();
    let all = fold.by_key(None);
    format!(
        "{{\"workload\":\"{workload}\",\"exec_ms\":{exec_ms},\
         \"driver_lane_self_ms\":{{{}}},\"all_lanes_self_ms\":{{{}}}}}\n",
        object(driver),
        object(all)
    )
}
