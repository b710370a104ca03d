//! `repro serve` — a thin line-protocol TCP front end over the served
//! session API, plus the matching `repro client`.
//!
//! Zero external dependencies: `std::net` sockets, a fixed thread pool of
//! connection handlers, and one SQL statement per line. The server holds a
//! single [`wfopt::Database`] (a generated `web_sales` table) whose
//! admission governor — not the socket layer — bounds how many statements
//! execute at once; extra connections simply park in the FIFO.
//!
//! ## Protocol
//!
//! Requests are lines:
//!
//! * a SQL statement → `ok <rows> <cols> <wall_ms> <queue_ms>`, a
//!   tab-separated header line, the rows (tab-separated), then a lone `.`;
//! * `.stats` → `ok stats`, `key value` lines, then `.`;
//! * `.shutdown` → `ok bye`, then the server drains and exits;
//! * anything that fails → `err <message>` (connection stays usable).

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use wf_datagen::WsConfig;
use wfopt::{Database, DatabaseConfig};

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

fn handle_connection(stream: TcpStream, db: &Database, shutdown: &AtomicBool) {
    stream.set_read_timeout(Some(Duration::from_secs(300))).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return, // client went away
            Ok(_) => {}
        }
        let stmt = line.trim();
        if stmt.is_empty() {
            continue;
        }
        let result = match stmt {
            ".shutdown" => {
                // Flag first: the client pokes the accept loop the moment it
                // reads the ack, and that poke must observe the flag.
                shutdown.store(true, Ordering::SeqCst);
                let _ = writeln!(writer, "ok bye");
                let _ = writer.flush();
                return;
            }
            ".stats" => {
                let s = db.admission_stats();
                let sp = db.spill_stats();
                writeln!(writer, "ok stats")
                    .and_then(|_| writeln!(writer, "admitted {}", s.admitted))
                    .and_then(|_| writeln!(writer, "completed {}", s.completed))
                    .and_then(|_| writeln!(writer, "queued {}", s.queued))
                    .and_then(|_| writeln!(writer, "rejected {}", s.rejected))
                    .and_then(|_| writeln!(writer, "timed_out {}", s.timed_out))
                    .and_then(|_| writeln!(writer, "peak_in_flight {}", s.peak_in_flight))
                    .and_then(|_| writeln!(writer, "spill_backend {}", sp.backend))
                    .and_then(|_| writeln!(writer, "spill_put_requests {}", sp.put_requests))
                    .and_then(|_| writeln!(writer, "spill_get_requests {}", sp.get_requests))
                    .and_then(|_| writeln!(writer, "spill_bytes_written {}", sp.bytes_written))
                    .and_then(|_| writeln!(writer, "spill_bytes_read {}", sp.bytes_read))
                    .and_then(|_| writeln!(writer, "spill_live_objects {}", sp.live_objects))
                    .and_then(|_| writeln!(writer, "prefetch_hits {}", sp.prefetch_hits))
                    .and_then(|_| writeln!(writer, "prefetch_misses {}", sp.prefetch_misses))
                    .and_then(|_| {
                        writeln!(writer, "prefetch_hit_rate {:.3}", sp.prefetch_hit_rate())
                    })
                    .and_then(|_| writeln!(writer, "."))
            }
            sql => match db.session().execute(sql) {
                Ok(outcome) => {
                    let schema = outcome.table.schema();
                    let header: Vec<&str> =
                        schema.fields().iter().map(|f| f.name.as_str()).collect();
                    writeln!(
                        writer,
                        "ok {} {} {:.3} {:.3}",
                        outcome.table.row_count(),
                        schema.len(),
                        outcome.wall.as_secs_f64() * 1e3,
                        outcome.queue_wait.as_secs_f64() * 1e3,
                    )
                    .and_then(|_| writeln!(writer, "{}", header.join("\t")))
                    .and_then(|_| {
                        for row in outcome.table.rows() {
                            let cells: Vec<String> =
                                row.values().iter().map(|v| v.to_string()).collect();
                            writeln!(writer, "{}", cells.join("\t"))?;
                        }
                        writeln!(writer, ".")
                    })
                }
                Err(e) => writeln!(writer, "err {}", sanitize(&e.to_string())),
            },
        };
        if result.is_err() || writer.flush().is_err() {
            return;
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

    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..opts.threads.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let db = db.clone();
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || loop {
                let conn = rx.lock().expect("handler queue").recv();
                match conn {
                    Ok(stream) => handle_connection(stream, &db, &shutdown),
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
        let _ = w.join();
    }
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
pub(crate) fn poke(port: u16) {
    let _ = TcpStream::connect(("127.0.0.1", port));
}

/// `repro client`: send each statement over one connection, print the
/// responses, return `false` if any statement failed.
pub fn run_client(port: u16, statements: &[String]) -> bool {
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
    let Some(stream) = stream else {
        eprintln!("client: could not connect to 127.0.0.1:{port}");
        return false;
    };
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = BufWriter::new(stream);
    let mut ok = true;
    for stmt in statements {
        if writeln!(writer, "{stmt}")
            .and_then(|_| writer.flush())
            .is_err()
        {
            eprintln!("client: connection lost");
            return false;
        }
        let mut status = String::new();
        if reader.read_line(&mut status).unwrap_or(0) == 0 {
            eprintln!("client: server closed the connection");
            return stmt.trim() == ".shutdown" && ok;
        }
        let status = status.trim_end();
        println!("{status}");
        if status.starts_with("err") {
            ok = false;
            continue;
        }
        if status == "ok bye" {
            // Shutdown acknowledged; the accept loop still needs a poke.
            poke(port);
            return ok;
        }
        // Body: echo until the `.` terminator (print at most 5 data lines).
        let mut body = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                eprintln!("client: truncated response");
                return false;
            }
            let l = line.trim_end();
            if l == "." {
                break;
            }
            if body <= 5 {
                println!("{l}");
            } else if body == 6 {
                println!("...");
            }
            body += 1;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke over a real socket: serve on an ephemeral port in a
    /// thread, run queries and a shutdown through the public client, and
    /// check the server drains cleanly.
    #[test]
    fn serve_query_stats_shutdown_roundtrip() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        drop(listener); // free it for run_serve

        let opts = ServeOptions {
            port,
            rows: 500,
            threads: 2,
            max_concurrent: 2,
            per_query_blocks: 16,
        };
        let server = thread::spawn(move || run_serve(&opts));

        let statements = vec![
            "SELECT *, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r \
             FROM web_sales"
                .to_string(),
            "not sql at all".to_string(), // must come back as err, not kill the server
            ".stats".to_string(),
            ".shutdown".to_string(),
        ];
        // One statement failed, so the client reports false...
        assert!(!run_client(port, &statements));
        // ...but the server still drained cleanly.
        assert!(server.join().expect("server thread"));
    }

    #[test]
    fn protocol_lines_are_single_line() {
        assert_eq!(sanitize("a\nb\r\nc"), "a; b; ; c");
    }
}
