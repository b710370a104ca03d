//! The served workload: `repro serve` as a child process, `nproc` client
//! threads each on one connection, a seeded mix of point, medium and full
//! statements over the line protocol, every reply verified as it is read.

use crate::layers::{self, ms, FrontEnd, Samples};
use crate::oracle::{self, Digest, Digester};
use crate::result::{nproc, Run};
use crate::run::{self, Diagnostics, Options};
use crate::spec::{self, Served};
use crate::stats;
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use wfopt::datagen::rng::SplitMix64;
use wfopt::datagen::WsConfig;
use wfopt::prelude::*;

pub const CLASSES: [&str; 3] = ["point", "medium", "full"];
const POINT: usize = 0;

/// `~1 %` of the item domain per point statement.
const POINT_SHARE: u64 = 100;
/// A reply slower than this counts as a timeout, i.e. a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Point statements the traced run repeats on its in-process mirror.
const MIRROR_STATEMENTS: usize = 24;

// The full class is the slowest (whole width, 1.4 MB of text) and holds the
// top 15 % of the mix, so p90 falls inside it. Point and medium come in either
// order — today a point reply (two socket writes) stalls ~40 ms on the server's
// Nagle/delayed-ACK interplay and a medium reply (one sort, five narrow
// columns, a steady stream of segments) does not — and p50 falls inside point
// both ways: below it lie 0 % or 25 % of the statements, through it 60 % or 85 %.
const MEDIUM_SQL: &str = "SELECT ws_item_sk, ws_sold_time_sk, ws_quantity, \
    rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r, \
    sum(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS s \
    FROM web_sales";
const FULL_SQL: &str = "SELECT *, \
    rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales";

pub struct Statement {
    pub class: usize,
    pub sql: String,
    expected: Digest,
}

/// The table `repro serve --rows N` generates: its own fixed seed, not ours.
fn server_table(rows: usize) -> (Table, WsConfig) {
    let cfg = WsConfig {
        rows,
        ..WsConfig::default()
    };
    (cfg.generate(), cfg)
}

/// The distinct statements of a run — `point_pool` seeded point statements,
/// the medium and the full one — each with its expected reply.
fn statements(w: &Served, seed: u64, table: &Table, d_item: u64) -> Result<Vec<Statement>, String> {
    let e = |err: Error| err.to_string();
    let oracle_db = oracle::oracle_database(table).map_err(e)?;
    let mut rng = SplitMix64::seed_from_u64(seed);
    let width = (d_item / POINT_SHARE).max(1);
    let mut sqls: Vec<(usize, String)> = (0..w.point_pool)
        .map(|_| {
            let lo = rng.random_below(d_item - width + 1);
            let sql = format!(
                "SELECT *, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r \
                 FROM web_sales WHERE ws_item_sk BETWEEN {lo} AND {}",
                lo + width - 1
            );
            (POINT, sql)
        })
        .collect();
    sqls.push((1, MEDIUM_SQL.to_string()));
    sqls.push((2, FULL_SQL.to_string()));
    sqls.into_iter()
        .map(|(class, sql)| {
            let result = oracle_db.session().query(&sql).map_err(e)?;
            Ok(Statement {
                class,
                expected: oracle::digest_table_as_text(&result, false),
                sql,
            })
        })
        .collect()
}

/// Draw a class from the mix (shares in percent).
pub fn draw_class(rng: &mut SplitMix64, mix: [u64; 3]) -> usize {
    let r = rng.random_below(mix.iter().sum());
    if r < mix[0] {
        0
    } else if r < mix[0] + mix[1] {
        1
    } else {
        2
    }
}

/// The `repro serve` child. Dropping it kills and reaps the process, so no
/// path out of a run leaves one behind.
struct Server {
    child: Child,
    /// Held open until the process exits: it prints a summary on the way out.
    stdout: BufReader<ChildStdout>,
    port: u16,
    ready: Duration,
}

impl Server {
    fn spawn(repro: &Path, rows: usize, threads: usize) -> Result<Server, String> {
        let t = Instant::now();
        let mut child = Command::new(repro)
            .args([
                "serve",
                "--port",
                "0",
                "--rows",
                &rows.to_string(),
                "--threads",
                &threads.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", repro.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            stdout,
            port: 0,
            ready: Duration::ZERO,
        };
        // "serving web_sales (N rows) on 127.0.0.1:PORT (...)": printed once
        // the table is generated and the listener bound.
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's banner: {e}"))?;
        server.port = line
            .split("127.0.0.1:")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("no port in the server's banner: {line:?}"))?;
        server.ready = t.elapsed();
        Ok(server)
    }

    /// `.shutdown` over `conn`, then wait for the process to drain and exit.
    fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        conn.send(".shutdown")?;
        let ack = conn.read_line()?.to_string();
        drop(conn); // the server's handler thread returns once its client is gone
        if ack != "ok bye" {
            return Err(format!("unexpected shutdown reply {ack:?}"));
        }
        // The accept loop notices the flag on its next connection.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("the server did not exit after .shutdown".into()),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What one reply carried.
struct Reply {
    digest: Digest,
    server_wall_ms: f64,
    queue_ms: f64,
    bytes: u64,
    /// Request written → status line read.
    first_line: Duration,
}

/// One client connection of the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn connect(port: u16) -> Result<Conn, String> {
        let e = |err: std::io::Error| format!("connecting to the server: {err}");
        let stream = TcpStream::connect(("127.0.0.1", port)).map_err(e)?;
        stream.set_nodelay(true).map_err(e)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(e)?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone().map_err(e)?),
            writer: stream,
            line: String::new(),
        })
    }

    /// A fresh connection to the same server.
    fn connect_like(other: &Conn) -> Result<Conn, String> {
        let port = other
            .writer
            .peer_addr()
            .map_err(|e| format!("peer address: {e}"))?
            .port();
        Conn::connect(port)
    }

    fn send(&mut self, request: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("sending: {e}"))
    }

    /// The next line without its terminator; an error on EOF or timeout.
    fn read_line(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("the server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end_matches(['\n', '\r'])),
            Err(e) => Err(format!("reading a reply: {e}")),
        }
    }

    /// One statement: `ok rows cols wall_ms queue_ms`, a header line, the
    /// rows, a lone `.`. An `err` line is an error.
    fn statement(&mut self, sql: &str) -> Result<Reply, String> {
        let t = Instant::now();
        self.send(sql)?;
        let status = self.read_line()?.to_string();
        let first_line = t.elapsed();
        let mut fields = status.split_whitespace();
        if fields.next() != Some("ok") {
            return Err(format!("server replied {status:?}"));
        }
        let mut number = || fields.next().and_then(|f| f.parse::<f64>().ok());
        let (Some(rows), Some(_cols), Some(server_wall_ms), Some(queue_ms)) =
            (number(), number(), number(), number())
        else {
            return Err(format!("malformed status line {status:?}"));
        };
        let mut bytes = status.len() as u64 + 1;
        bytes += self.read_line()?.len() as u64 + 1; // header
        let mut digester = Digester::new(false);
        loop {
            let line = self.read_line()?;
            bytes += line.len() as u64 + 1;
            if line == "." {
                break;
            }
            digester.line(line);
        }
        let digest = digester.finish();
        if digest.rows != rows as u64 {
            return Err(format!(
                "status line said {rows} rows, {} arrived",
                digest.rows
            ));
        }
        Ok(Reply {
            digest,
            server_wall_ms,
            queue_ms,
            bytes,
            first_line,
        })
    }

    /// `.stats`: `key value` lines up to the terminator; numeric ones kept.
    fn stats(&mut self) -> Result<BTreeMap<String, f64>, String> {
        self.send(".stats")?;
        if self.read_line()? != "ok stats" {
            return Err("unexpected .stats reply".into());
        }
        let mut out = BTreeMap::new();
        loop {
            let line = self.read_line()?;
            if line == "." {
                return Ok(out);
            }
            if let Some((k, v)) = line.split_once(' ') {
                if let Ok(v) = v.parse::<f64>() {
                    out.insert(k.to_string(), v);
                }
            }
        }
    }
}

struct SetUp {
    server: Server,
    conns: Vec<Conn>,
    total: Duration,
    warmup: Duration,
}

/// Spawn the server, wait until it is ready, connect every client, and send
/// the warm-up statements: one of each class on each connection, verified.
fn set_up(repro: &Path, rows: usize, stmts: &[Statement], clients: usize) -> Result<SetUp, String> {
    let t0 = Instant::now();
    let server = Server::spawn(repro, rows, clients)?;
    let mut conns = (0..clients)
        .map(|_| Conn::connect(server.port))
        .collect::<Result<Vec<_>, _>>()?;
    let t1 = Instant::now();
    // Every connection, not one: a fresh TCP connection acknowledges its first
    // segments at once, and a reply read in that phase skips the ~40 ms
    // delayed-ACK stall every later reply of that size pays.
    for conn in &mut conns {
        for (class, name) in CLASSES.iter().enumerate() {
            let stmt = stmts
                .iter()
                .find(|s| s.class == class)
                .ok_or("a class has no statement")?;
            if conn.statement(&stmt.sql)?.digest != stmt.expected {
                return Err(format!("the {name} warm-up statement failed the oracle"));
            }
        }
    }
    Ok(SetUp {
        server,
        conns,
        total: t0.elapsed(),
        warmup: t1.elapsed(),
    })
}

/// One verified statement as a client saw it.
struct Sample {
    class: usize,
    latency_ms: f64,
    server_wall_ms: f64,
    queue_ms: f64,
    bytes: u64,
    rows_out: u64,
    spanned: bool,
}

struct ClientResult {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    recorder: Recorder,
}

/// A closed-loop client: the next statement goes out when the previous reply
/// has been read and verified.
fn client(
    idx: usize,
    mut conn: Conn,
    w: &Served,
    stmts: &[Statement],
    epoch: Instant,
    deadline: Instant,
    opts: &Options,
) -> (ClientResult, Conn) {
    // The class and constant stream of this client: the run's seed, split by
    // client so that no two clients send the same sequence.
    let mut rng =
        SplitMix64::seed_from_u64(opts.seed ^ (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let points: Vec<&Statement> = stmts.iter().filter(|s| s.class == POINT).collect();
    let mut out = ClientResult {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        recorder: Recorder::new(epoch, idx as u64),
    };
    while Instant::now() < deadline {
        let class = draw_class(&mut rng, w.mix);
        let stmt = if class == POINT {
            points[rng.random_below_usize(points.len())]
        } else {
            stmts
                .iter()
                .find(|s| s.class == class)
                .expect("one statement per class")
        };
        out.attempted += 1;
        let stmt_id = out.attempted * 1000 + idx as u64;
        // The traced run records spans on every second statement; the other
        // half is the untraced side of `trace.overhead_ratio`.
        let spanned = opts.trace && out.attempted.is_multiple_of(2);
        let t = Instant::now();
        let reply = conn.statement(&stmt.sql);
        let latency = t.elapsed();
        if spanned {
            let root = out.recorder.record("statement", stmt_id, None, t, latency);
            if let Ok(r) = &reply {
                // Request written → status line: the server's work and the
                // first segment's trip; the rest is reading rows.
                out.recorder
                    .record("first_line", stmt_id, Some(root), t, r.first_line);
                let rest = latency.saturating_sub(r.first_line);
                out.recorder
                    .record("rows", stmt_id, Some(root), t + r.first_line, rest);
            }
        }
        let plant = opts.plant_fault && idx == 0 && out.attempted == 1;
        match reply {
            Ok(r) if r.digest == stmt.expected && !plant => out.samples.push(Sample {
                class,
                latency_ms: ms(latency),
                server_wall_ms: r.server_wall_ms,
                queue_ms: r.queue_ms,
                bytes: r.bytes,
                rows_out: r.digest.rows,
                spanned,
            }),
            Ok(_) => out.failed += 1,
            Err(e) => {
                eprintln!("client {idx}: {e}");
                out.failed += 1;
                // The connection's state is unknown after an error.
                match Conn::connect_like(&conn) {
                    Ok(fresh) => conn = fresh,
                    Err(_) => break,
                }
            }
        }
    }
    (out, conn)
}

fn repro_binary(opts: &Options) -> Result<PathBuf, String> {
    if let Some(path) = &opts.repro {
        return Ok(path.clone());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name("repro");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found: build it with `cargo build --release -p wf-bench --bin repro` \
             into the same target directory, or pass --repro PATH",
            path.display()
        ))
    }
}

pub fn run(opts: &Options, w: &Served) -> Result<Run, String> {
    let repro = repro_binary(opts)?;
    let rows = opts.rows.unwrap_or(w.rows);
    let clients = nproc();

    // Inputs and expected replies: outside `setup_s`.
    let t = Instant::now();
    let (table, ws) = server_table(rows);
    let datagen = t.elapsed();
    let stmts = statements(w, opts.seed, &table, ws.d_item)?;

    let mut samples = Samples::default();
    let mut mirror_trace = None;
    let epoch = Instant::now();
    if opts.trace {
        mirror_trace = Some(mirror(&table, &stmts, epoch, &mut samples)?);
    }

    let mut totals = Vec::new();
    let mut readies = Vec::new();
    let mut warmups = Vec::new();
    let mut live = None;
    for rep in 0..spec::SETUP_REPS {
        let s = set_up(&repro, rows, &stmts, clients)?;
        totals.push(s.total.as_secs_f64());
        readies.push(s.server.ready.as_secs_f64());
        warmups.push(s.warmup.as_secs_f64());
        if rep + 1 < spec::SETUP_REPS {
            let SetUp {
                server, mut conns, ..
            } = s;
            let first = conns.swap_remove(0);
            drop(conns); // handler threads return once their client is gone
            server.shutdown(first)?;
        } else {
            live = Some(s);
        }
    }
    let SetUp { server, conns, .. } = live.expect("SETUP_REPS >= 1");

    // Measured window: every client in its own thread, one connection each.
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let results: Vec<(ClientResult, Conn, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(idx, conn)| {
                let stmts = &stmts;
                scope.spawn(move || {
                    let (result, conn) = client(idx, conn, w, stmts, epoch, deadline, opts);
                    (result, conn, start.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = results
        .iter()
        .map(|(_, _, finished)| finished.as_secs_f64())
        .fold(0.0, f64::max);

    let mut conns = Vec::new();
    let mut all = Vec::new();
    let mut recorders = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (result, conn, _) in results {
        attempted += result.attempted;
        failed += result.failed;
        all.extend(result.samples);
        recorders.push(result.recorder);
        conns.push(conn);
    }

    // Server-side counters and memory, then a clean shutdown.
    let mut first = conns.swap_remove(0);
    drop(conns);
    let server_stats = first.stats()?;
    let peak_rss_mb = run::peak_rss_mb(Some(server.child.id()));
    server.shutdown(first)?;

    let lat = |keep: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        all.iter()
            .filter(|s| keep(s))
            .map(|s| s.latency_ms)
            .collect()
    };
    let every = lat(&|_| true);
    let verified = every.len() as f64;

    let mut counts = BTreeMap::new();
    counts.insert("clients".to_string(), clients as u64);
    counts.insert("setups".to_string(), spec::SETUP_REPS as u64);
    counts.insert(
        "warmup_per_setup".to_string(),
        (CLASSES.len() * clients) as u64,
    );
    counts.insert("measured".to_string(), attempted);
    counts.insert("input_rows".to_string(), rows as u64);
    for (class, name) in CLASSES.iter().enumerate() {
        counts.insert(name.to_string(), lat(&|s| s.class == class).len() as u64);
    }

    let diagnostics = Diagnostics::new(&every, rows, wall);
    let mut metrics = BTreeMap::new();
    if !opts.trace {
        metrics.insert("stmt_p25_ms".to_string(), mix_p25_ms(w, &all));
        metrics.insert("peak_rss_mb".to_string(), peak_rss_mb);
        metrics.insert("setup_s".to_string(), stats::median(&totals));
    } else {
        diagnostics.record(&mut samples);
        let stat = |k: &str| server_stats.get(k).copied().unwrap_or(0.0);
        let completed = stat("completed").max(1.0);
        let wire: Vec<f64> = all
            .iter()
            .map(|s| s.latency_ms - s.server_wall_ms)
            .collect();
        let queue: Vec<f64> = all.iter().map(|s| s.queue_ms).collect();
        samples.set("server.ready_s", stats::median(&readies));
        samples.set("server.wire_ms_p50", stats::median(&wire));
        samples.set(
            "server.bytes_out_per_stmt",
            all.iter().map(|s| s.bytes).sum::<u64>() as f64 / verified.max(1.0),
        );
        samples.set(
            "server.rows_out_per_s",
            all.iter().map(|s| s.rows_out).sum::<u64>() as f64 / wall,
        );
        samples.set(
            "served.point_p50_ms",
            stats::median(&lat(&|s| s.class == 0)),
        );
        samples.set(
            "served.medium_p50_ms",
            stats::median(&lat(&|s| s.class == 1)),
        );
        samples.set("served.full_p50_ms", stats::median(&lat(&|s| s.class == 2)));
        samples.set("admission.queue_wait_p50_ms", stats::median(&queue));
        samples.set(
            "admission.queue_wait_p90_ms",
            stats::percentile(&queue, 0.9),
        );
        samples.set("admission.queued", stat("queued"));
        samples.set("admission.rejected", stat("rejected"));
        samples.set("admission.timed_out", stat("timed_out"));
        samples.set("admission.peak_in_flight", stat("peak_in_flight"));
        // The server's own pool spills: traffic per completed statement.
        samples.set("spill.put_requests", stat("spill_put_requests") / completed);
        samples.set("spill.get_requests", stat("spill_get_requests") / completed);
        samples.set(
            "spill.bytes_written",
            stat("spill_bytes_written") / completed,
        );
        samples.set("spill.bytes_read", stat("spill_bytes_read") / completed);
        samples.set(
            "spill.bytes_per_input_byte",
            stat("spill_bytes_written") / completed / table.byte_size().max(1) as f64,
        );
        samples.set("spill.prefetch_hit_rate", stat("prefetch_hit_rate"));
        samples.set("setup.datagen_s", datagen.as_secs_f64());
        samples.set("setup.warmup_s", stats::median(&warmups));
        samples.set("run.fail_ratio", failed as f64 / attempted.max(1) as f64);
        let plain = stats::median(&lat(&|s| !s.spanned));
        if plain > 0.0 {
            samples.set(
                "trace.overhead_ratio",
                stats::median(&lat(&|s| s.spanned)) / plain,
            );
        }
        metrics = samples.medians();

        if let Some((mirror_rec, engine)) = mirror_trace {
            recorders.push(mirror_rec);
            let exec_ms = stats::median(samples.values("runtime.exec_ms"));
            run::write_trace_files(opts, &recorders, &engine, exec_ms)?;
        }
    }

    Ok(Run {
        workload: opts.workload.name.to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        attempted,
        failed,
        samples: every.len(),
        latency_quartiles_ms: stats::quartiles(&every),
        counts,
        metrics,
        diagnostics: diagnostics.of_run(opts.trace),
    })
}

/// Each class's lower-quartile latency, weighted by the mix: what a statement
/// drawn from the mix costs while the host is quiet. Per class, because the
/// pooled quartile falls between two classes and jumps from one to the other
/// with the mix a seed happens to draw. A class the run never drew (tiny runs
/// only) leaves its share to the others.
fn mix_p25_ms(w: &Served, all: &[Sample]) -> f64 {
    let mut weighted = 0.0;
    let mut weight = 0.0;
    for (class, share) in w.mix.iter().enumerate() {
        let lat: Vec<f64> = all
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.latency_ms)
            .collect();
        if !lat.is_empty() {
            weighted += stats::percentile(&lat, spec::LATENCY_QUANTILE) * *share as f64;
            weight += *share as f64;
        }
    }
    if weight > 0.0 {
        weighted / weight
    } else {
        0.0
    }
}

/// The server cannot be traced from outside, so the traced run repeats point
/// statements in-process on a database configured as `repro serve` configures
/// its own (`ServeOptions::default`: 4 concurrent queries of 64 blocks), and
/// attributes the SQL front end, planner, runtime, sort, window and filter
/// layers there.
fn mirror(
    table: &Table,
    stmts: &[Statement],
    epoch: Instant,
    samples: &mut Samples,
) -> Result<(Recorder, layers::EngineTrace), String> {
    const MAX_CONCURRENT: usize = 4;
    const PER_QUERY_BLOCKS: u64 = 64;
    let db = DatabaseConfig::new()
        .memory_blocks(PER_QUERY_BLOCKS * MAX_CONCURRENT as u64)
        .max_concurrent(MAX_CONCURRENT)
        .per_query_blocks(PER_QUERY_BLOCKS)
        .open();
    db.register("web_sales", table.clone())
        .map_err(|e| e.to_string())?;
    let front = FrontEnd::new(table, PER_QUERY_BLOCKS, None);
    let mut rec = Recorder::new(epoch, 1000);
    let mut last = None;
    let points = stmts.iter().filter(|s| s.class == POINT).cycle();
    for (i, stmt) in points.take(MIRROR_STATEMENTS).enumerate() {
        let traced = layers::trace_statement(&db, &front, &stmt.sql, i as u64, &mut rec, samples)?;
        if oracle::digest_table_as_text(&traced.table, false) != stmt.expected {
            return Err("a mirrored statement failed the oracle".into());
        }
        last = Some(traced.engine);
    }
    // The queue waits that count on this workload are the server's, taken
    // from its reply lines.
    samples.set("admission.queue_wait_ms", 0.0);
    Ok((rec, last.ok_or("no point statement to mirror")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_puts_p50_and_p90_strictly_inside_one_class() {
        let Some(spec::Kind::Served(w)) = spec::workload("served_mixed").map(|w| w.kind) else {
            panic!("served_mixed is the served workload");
        };
        for seed in [spec::DEFAULT_SEED, spec::HELD_OUT_SEED, 1, 2, 3] {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let n = 600;
            let mut seen = [0usize; 3];
            for _ in 0..n {
                seen[draw_class(&mut rng, w.mix)] += 1;
            }
            // The p-th percentile lies in the class whose cumulative share,
            // in latency order, first exceeds p. Full is slowest; point and
            // medium may come in either order.
            let share = |class: usize| seen[class] as f64 / n as f64;
            assert!(
                share(0) > 0.53,
                "seed {seed}: point first, p50 inside it ({})",
                share(0)
            );
            assert!(
                share(1) < 0.47,
                "seed {seed}: medium first, p50 past it ({})",
                share(1)
            );
            let below_full = share(0) + share(1);
            assert!(
                below_full < 0.88,
                "seed {seed}: p90 inside full ({below_full})"
            );
        }
    }

    #[test]
    fn point_statements_follow_the_seed() {
        let Some(spec::Kind::Served(w)) = spec::workload("served_mixed").map(|w| w.kind) else {
            panic!("served_mixed is the served workload");
        };
        let (table, ws) = server_table(400);
        let sqls = |seed| -> Vec<String> {
            statements(&w, seed, &table, ws.d_item)
                .unwrap()
                .into_iter()
                .map(|s| s.sql)
                .collect()
        };
        assert_eq!(sqls(7), sqls(7));
        assert_ne!(sqls(7), sqls(8));
        assert_eq!(sqls(7).len(), w.point_pool + 2);
    }
}
