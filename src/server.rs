//! `repro serve` — a thin line-protocol TCP front end over the served
//! session API, plus the matching `repro client`.
//!
//! Zero external dependencies: `std::net` sockets, a fixed thread pool of
//! connection handlers, and one SQL statement per line. The server holds a
//! single [`Database`] (a generated `web_sales` table) whose admission
//! governor — not the socket layer — bounds how many statements execute at
//! once; extra connections simply park in the FIFO.
//!
//! ## Protocol
//!
//! Requests are lines of at most 64 KiB:
//!
//! * a SQL statement → `ok <rows> <cols> <wall_ms> <queue_ms>`, a
//!   tab-separated header line, the rows (tab-separated), then a lone `.`;
//! * `.stats` → `ok stats`, `key value` lines, then `.`;
//! * `.shutdown` → `ok bye`, then the server drains and exits;
//! * anything that fails → `err <message>` on one line (connection stays
//!   usable): a statement the engine rejects, a line over the limit
//!   (`err statement too long`; the line is discarded up to its newline) or
//!   one that is not UTF-8.
//!
//! A cell is the value's `Display` text (`NULL` for a null) with four bytes
//! escaped as two-character sequences — `\\` for a backslash, `\t`, `\n`,
//! `\r` — so that no string splits its cell or its row. A header or row
//! line that begins with `.` is sent with a second `.` in front
//! (dot-stuffing), so that no row reads as the terminator; a reader drops
//! the first `.` of every body line that is not the terminator, then splits
//! on tabs, then unescapes each cell. A reply holding none of those bytes —
//! every reply over `web_sales` — is plain tab-separated text.
//!
//! ## The reply path
//!
//! Every socket, accepted or connected, has `TCP_NODELAY` set. A reply is
//! framed — status line, header, rows, terminator — into one reusable
//! per-connection byte buffer (`wire::ReplyBuf`) and handed to the socket
//! in `write_all` calls of 128 KiB or more: a reply that fits is exactly
//! one write, and a larger one is never held whole. Without either, a reply
//! leaves as several small segments, Nagle's algorithm holds the second
//! until the first is acknowledged, and the client's delayed ACK arrives
//! ~40 ms later. Cells go into the buffer through
//! [`Value::write_text`](wf_common::Value::write_text), with no
//! per-cell or per-row allocation.

mod wire;

use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use wf_datagen::WsConfig;

use crate::session::{Database, DatabaseConfig};
use wire::{Connection, ReplyBuf, Request};

/// Knobs for [`run_serve`]; mirrors the `repro serve` flags.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen port (0 picks a free one; the bound port is printed).
    pub port: u16,
    /// Rows in the generated `web_sales` table.
    pub rows: usize,
    /// Connection-handler threads (independent of the admission limit).
    pub threads: usize,
    /// Queries allowed to execute simultaneously.
    pub max_concurrent: usize,
    /// Per-query block budget.
    pub per_query_blocks: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            port: 7878,
            rows: 8_000,
            threads: 8,
            max_concurrent: 4,
            per_query_blocks: 64,
        }
    }
}

fn open_database(opts: &ServeOptions) -> Database {
    let table = WsConfig {
        rows: opts.rows,
        ..WsConfig::default()
    }
    .generate();
    let db = DatabaseConfig::new()
        .memory_blocks(opts.per_query_blocks * opts.max_concurrent as u64)
        .max_concurrent(opts.max_concurrent)
        .per_query_blocks(opts.per_query_blocks)
        .open();
    db.register("web_sales", table)
        .expect("register generated table");
    db
}

fn sanitize(msg: &str) -> String {
    msg.replace(['\n', '\r'], "; ")
}

fn frame_stats(db: &Database, reply: &mut ReplyBuf) {
    let s = db.admission_stats();
    let sp = db.spill_stats();
    reply.line("ok stats");
    reply.line(format_args!("admitted {}", s.admitted));
    reply.line(format_args!("completed {}", s.completed));
    reply.line(format_args!("queued {}", s.queued));
    reply.line(format_args!("rejected {}", s.rejected));
    reply.line(format_args!("timed_out {}", s.timed_out));
    reply.line(format_args!("peak_in_flight {}", s.peak_in_flight));
    reply.line(format_args!("spill_backend {}", sp.backend));
    reply.line(format_args!("spill_put_requests {}", sp.put_requests));
    reply.line(format_args!("spill_get_requests {}", sp.get_requests));
    reply.line(format_args!("spill_bytes_written {}", sp.bytes_written));
    reply.line(format_args!("spill_bytes_read {}", sp.bytes_read));
    reply.line(format_args!("spill_live_objects {}", sp.live_objects));
    reply.line(format_args!("prefetch_hits {}", sp.prefetch_hits));
    reply.line(format_args!("prefetch_misses {}", sp.prefetch_misses));
    reply.line(format_args!(
        "prefetch_hit_rate {:.3}",
        sp.prefetch_hit_rate()
    ));
    reply.end();
}

/// Execute `sql` and frame its reply, handing full chunks to `sock` on the
/// way. An error is the socket's: what the engine rejects is an `err` line.
fn frame_statement(
    db: &Database,
    sql: &str,
    reply: &mut ReplyBuf,
    sock: &mut impl Write,
) -> io::Result<()> {
    match db.session().execute(sql) {
        Ok(outcome) => {
            let schema = outcome.table.schema();
            reply.line(format_args!(
                "ok {} {} {:.3} {:.3}",
                outcome.table.row_count(),
                schema.len(),
                outcome.wall.as_secs_f64() * 1e3,
                outcome.queue_wait.as_secs_f64() * 1e3,
            ));
            reply.header(schema.fields().iter().map(|f| f.name.as_str()));
            for row in outcome.table.rows() {
                reply.row(row.values());
                reply.flush_if_full(sock)?;
            }
            reply.end();
        }
        Err(e) => reply.line(format_args!("err {}", sanitize(&e.to_string()))),
    }
    Ok(())
}

/// Serve one connection until the client goes away or asks for shutdown.
fn handle_connection(stream: &TcpStream, db: &Database, shutdown: &AtomicBool) {
    if let Err(e) = stream.set_nodelay(true) {
        eprintln!("serve: set_nodelay failed: {e}");
    }
    stream.set_read_timeout(Some(Duration::from_secs(300))).ok();
    // `&TcpStream` reads and writes: no second handle to the socket.
    let mut reader = BufReader::new(stream);
    let mut sock = stream;
    let mut reply = ReplyBuf::new();
    let mut request = Vec::new();
    loop {
        match wire::read_request(&mut reader, &mut request) {
            Ok(Request::Eof) | Err(_) => return, // client went away
            Ok(Request::TooLong) => reply.line("err statement too long"),
            Ok(Request::Line) => match std::str::from_utf8(&request).map(str::trim) {
                Err(_) => reply.line("err statement is not valid UTF-8"),
                Ok("") => continue,
                Ok(".shutdown") => {
                    // Flag first: the client pokes the accept loop the moment
                    // it reads the ack, and that poke must observe the flag.
                    shutdown.store(true, Ordering::SeqCst);
                    reply.line("ok bye");
                    let _ = reply.flush(&mut sock);
                    return;
                }
                Ok(".stats") => frame_stats(db, &mut reply),
                // The accepted end's socket option, for the test that pins it.
                #[cfg(test)]
                Ok(".nodelay") => reply.line(format_args!(
                    "nodelay {}",
                    stream.nodelay().unwrap_or(false)
                )),
                Ok(sql) => {
                    if frame_statement(db, sql, &mut reply, &mut sock).is_err() {
                        return;
                    }
                }
            },
        }
        if reply.flush(&mut sock).is_err() {
            return;
        }
    }
}

/// Answer connections to `listener` from `threads` handler threads until a
/// client sends `.shutdown`, then drain.
fn serve(listener: TcpListener, db: &Database, threads: usize) {
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..threads.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let db = db.clone();
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || loop {
                // A receiver is valid whatever a thread holding it did, so a
                // poisoned lock does not take this handler out of the pool.
                let conn = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                match conn {
                    Ok(stream) => handle_connection(&stream, &db, &shutdown),
                    Err(_) => return, // sender dropped: draining
                }
            })
        })
        .collect();

    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) => {
                eprintln!("serve: accept failed: {e}");
                break;
            }
        }
    }
    drop(tx);
    for w in workers {
        if w.join().is_err() {
            eprintln!("serve: a handler thread panicked");
        }
    }
}

/// Serve until a client sends `.shutdown`. Returns `false` on a bind error.
pub fn run_serve(opts: &ServeOptions) -> bool {
    let listener = match TcpListener::bind(("127.0.0.1", opts.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("serve: bind 127.0.0.1:{} failed: {e}", opts.port);
            return false;
        }
    };
    let port = listener.local_addr().map(|a| a.port()).unwrap_or(opts.port);
    let db = open_database(opts);
    println!(
        "serving web_sales ({} rows) on 127.0.0.1:{port} \
         ({} handler threads, {} concurrent queries, M={} blocks)",
        opts.rows, opts.threads, opts.max_concurrent, opts.per_query_blocks
    );
    serve(listener, &db, opts.threads);
    let s = db.admission_stats();
    println!(
        "served {} statements ({} queued, {} rejected, peak {} in flight); bye",
        s.completed, s.queued, s.rejected, s.peak_in_flight
    );
    true
}

/// Unblock the accept loop after `.shutdown` flipped the flag: handlers
/// can't break `listener.incoming()` themselves, so the shutdown path pokes
/// the listener with one throwaway connection.
fn poke(port: u16) {
    let _ = TcpStream::connect(("127.0.0.1", port));
}

/// Body lines `repro client` echoes per reply before it prints `...`.
const ECHOED_LINES: usize = 6;

/// `repro client`: send each statement over one connection, print the
/// responses (cells as the server held them), return `false` if any
/// statement failed. With `time`, each reply is followed by a
/// `time latency_ms <client> [wall_ms <server>]` line: request written to
/// terminator read, next to the wall the server reported.
pub fn run_client(port: u16, statements: &[String], time: bool) -> bool {
    // Retry the connect so CI can launch `serve &` and `client` back to back.
    let mut stream = None;
    for _ in 0..50 {
        match TcpStream::connect(("127.0.0.1", port)) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => thread::sleep(Duration::from_millis(100)),
        }
    }
    let Some(mut conn) = stream.and_then(|s| Connection::new(s).ok()) else {
        eprintln!("client: could not connect to 127.0.0.1:{port}");
        return false;
    };
    let mut ok = true;
    for stmt in statements {
        let sent = Instant::now();
        if conn.send(stmt).is_err() {
            eprintln!("client: connection lost");
            return false;
        }
        let status = match conn.status() {
            Ok(Some(status)) => status.to_string(),
            Ok(None) | Err(_) => {
                eprintln!("client: server closed the connection");
                return stmt.trim() == ".shutdown" && ok;
            }
        };
        // Body: echo the first lines, read up to the terminator.
        let mut echoed = Vec::new();
        let mut body = 0usize;
        if wire::has_body(&status) {
            loop {
                match conn.body_line() {
                    Ok(None) => break,
                    Ok(Some(line)) => {
                        if body < ECHOED_LINES {
                            let cells: Vec<_> = wire::cells(line).collect();
                            echoed.push(cells.join("\t"));
                        }
                        body += 1;
                    }
                    Err(_) => {
                        eprintln!("client: truncated response");
                        return false;
                    }
                }
            }
        }
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        println!("{status}");
        for line in &echoed {
            println!("{line}");
        }
        if body > ECHOED_LINES {
            println!("...");
        }
        if time {
            // Only a statement's reply carries the server's wall.
            match wire::wall_ms(&status) {
                Some(wall_ms) => println!("time latency_ms {latency_ms:.3} wall_ms {wall_ms:.3}"),
                None => println!("time latency_ms {latency_ms:.3}"),
            }
        }
        if status.starts_with("err") {
            ok = false;
        } else if status == "ok bye" {
            // Shutdown acknowledged; the accept loop still needs a poke.
            poke(port);
            return ok;
        }
    }
    ok
}

#[cfg(test)]
mod tests;
