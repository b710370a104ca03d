//! The reply path over real sockets: framing, the bounded request side, and
//! the wire time of a reply.

use std::io::{self, Write};
use std::net::TcpListener;

use wf_common::{DataType, Row, Schema, Value};
use wf_datagen::rng::SplitMix64;
use wf_storage::table::Table;

use super::wire::{cells, has_body, wall_ms, FLUSH_MARK, MAX_REQUEST};
use super::*;

/// Held by the tests that load both cores for seconds, so that the one that
/// reads a clock does not share them with the other.
static HEAVY: Mutex<()> = Mutex::new(());

fn heavy() -> std::sync::MutexGuard<'static, ()> {
    HEAVY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `serve` on an ephemeral port in a thread, over a database the test keeps
/// a handle to.
struct TestServer {
    port: u16,
    thread: thread::JoinHandle<()>,
}

impl TestServer {
    fn start(db: &Database, threads: usize) -> TestServer {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let db = db.clone();
        TestServer {
            port,
            thread: thread::spawn(move || serve(listener, &db, threads)),
        }
    }

    fn stream(&self) -> TcpStream {
        let stream = TcpStream::connect(("127.0.0.1", self.port)).unwrap();
        // A test that would hang fails instead.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream
    }

    fn connect(&self) -> Connection {
        Connection::new(self.stream()).unwrap()
    }

    /// `.shutdown`, then the drain: every handler thread must come back.
    fn stop(self) {
        let reply = request(&mut self.connect(), ".shutdown");
        assert_eq!(reply.status, "ok bye");
        poke(self.port);
        self.thread.join().expect("the server drains");
    }
}

/// One reply as it crossed the wire: body lines with the dot-stuffing
/// undone, cells still escaped.
struct Reply {
    status: String,
    lines: Vec<String>,
    bytes: usize,
}

impl Reply {
    /// The decoded cells of the rows (the first body line is the header).
    fn rows(&self) -> Vec<Vec<String>> {
        self.lines[1..]
            .iter()
            .map(|line| cells(line).map(|c| c.into_owned()).collect())
            .collect()
    }
}

fn read_reply(conn: &mut Connection) -> Reply {
    let status = conn.status().unwrap().expect("a status line").to_string();
    let mut bytes = status.len() + 1;
    let mut lines = Vec::new();
    if has_body(&status) {
        while let Some(line) = conn.body_line().unwrap() {
            bytes += line.len() + 1;
            lines.push(line.to_string());
        }
        bytes += 2;
    }
    Reply {
        status,
        lines,
        bytes,
    }
}

fn request(conn: &mut Connection, statement: &str) -> Reply {
    conn.send(statement).unwrap();
    read_reply(conn)
}

/// What `Display` makes of a result: the reply's cells before escaping.
fn display_rows(table: &Table) -> Vec<Vec<String>> {
    table
        .rows()
        .iter()
        .map(|row| row.values().iter().map(|v| v.to_string()).collect())
        .collect()
}

fn served_web_sales(rows: usize) -> Database {
    open_database(&ServeOptions {
        rows,
        ..ServeOptions::default()
    })
}

/// End-to-end smoke through the public entry points: serve on an ephemeral
/// port in a thread, run queries and a shutdown through the public client,
/// and check the server drains cleanly.
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
    assert!(!run_client(port, &statements, true));
    // ...but the server still drained cleanly.
    assert!(server.join().expect("server thread"));
}

#[test]
fn protocol_lines_are_single_line() {
    assert_eq!(sanitize("a\nb\r\nc"), "a; b; ; c");
}

/// `write_text` is `Display` byte for byte, and so is a framed row of values
/// that hold none of the escaped bytes.
#[test]
fn write_text_equals_display_byte_for_byte() {
    let mut values = vec![Value::Null];
    values.extend([0, 1, -1, 9, 10, -10, i64::MIN, i64::MAX].map(Value::Int));
    values.extend(
        [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e21,
            1e-7,
            0.1,
            f64::MIN_POSITIVE,
            f64::MAX,
        ]
        .map(Value::Float),
    );
    values.extend(["", "plain ascii", "naïve — 多字节 🦀", ".", "a\tb\\c\r\n"].map(Value::str));
    let mut rng = SplitMix64::seed_from_u64(0x7E47);
    for _ in 0..2000 {
        // Every magnitude, not only 19-digit ones.
        let int = rng.next_u64() as i64 >> rng.random_below(64);
        values.push(Value::Int(int));
        values.push(Value::Float(f64::from_bits(rng.next_u64())));
        let text: String = (0..rng.random_below(12))
            .map(|_| char::from_u32(0x20 + rng.random_below(0x2fe0) as u32).unwrap_or('?'))
            .collect();
        values.push(Value::str(text));
    }
    let mut out = Vec::new();
    let mut reply = ReplyBuf::new();
    let mut sink = Vec::new();
    for value in &values {
        out.clear();
        value.write_text(&mut out);
        let display = value.to_string();
        assert_eq!(out, display.as_bytes(), "{value:?}");
        if !display.contains(['\\', '\t', '\n', '\r']) && !display.starts_with('.') {
            reply.row(std::slice::from_ref(value));
            reply.flush(&mut sink).unwrap();
            assert_eq!(sink, format!("{display}\n").as_bytes(), "{value:?}");
            sink.clear();
        }
    }
}

/// Strings the engine can legally return — tabs, line breaks, backslashes, a
/// lone `.` — cross the socket without splitting a cell, a row or a reply.
#[test]
fn hostile_strings_round_trip_over_a_socket() {
    let texts = [
        ".",
        "..",
        ".x",
        "tab\there",
        "line\nbreak",
        "cr\rlf\r\n",
        "back\\slash",
        "\\t is not a tab",
        "",
        "plain",
    ];
    let schema = Schema::of(&[("s", DataType::Str), ("id", DataType::Int)]);
    let mut table = Table::new(schema);
    for (id, text) in texts.iter().enumerate() {
        table.push(Row::new(vec![Value::str(*text), Value::Int(id as i64)]));
    }
    let db = DatabaseConfig::new().open();
    db.register("t", table).unwrap();
    let server = TestServer::start(&db, 2);
    let mut conn = server.connect();

    // `s` leads the row, so a `.` opens a line; the one-column projection
    // makes a row whose whole line is the terminator's text.
    for sql in [
        "SELECT *, row_number() OVER (ORDER BY id) AS n FROM t",
        "SELECT s, row_number() OVER (ORDER BY id) AS n FROM t",
        "SELECT lag(s, 1, '.') OVER (ORDER BY id) AS l FROM t",
        // A carriage return inside a statement reaches the result as data.
        "SELECT lag(s, 1, 'de\rfault') OVER (ORDER BY id) AS l FROM t",
    ] {
        let expected = display_rows(&db.session().query(sql).unwrap());
        let reply = request(&mut conn, sql);
        assert!(
            reply.status.starts_with("ok 10 "),
            "{sql}: {}",
            reply.status
        );
        assert_eq!(reply.rows(), expected, "{sql}");
    }
    // An error is one line whatever the statement held, and the connection
    // is in step afterwards.
    let reply = request(&mut conn, "SELECT 'a\rb' \r FROM nowhere");
    assert!(reply.status.starts_with("err "), "{}", reply.status);
    assert_eq!(request(&mut conn, ".stats").status, "ok stats");
    drop(conn);
    server.stop();
}

/// A line far over the limit, a line that is not UTF-8 and a client that
/// walks away mid-reply each cost the server nothing: the connection (where
/// there still is one) stays usable and every handler thread stays in the
/// pool.
#[test]
fn hostile_requests_leave_every_handler_alive() {
    const THREADS: usize = 3;
    let _alone = heavy();
    let db = served_web_sales(8_000);
    let server = TestServer::start(&db, THREADS);

    // 1 MiB of garbage on one line.
    let mut stream = server.stream();
    let mut garbage = vec![b'x'; 1 << 20];
    garbage.push(b'\n');
    stream.write_all(&garbage).unwrap();
    let mut conn = Connection::new(stream).unwrap();
    assert_eq!(read_reply(&mut conn).status, "err statement too long");
    // Exactly at the limit is a statement (if not a valid one).
    let at_limit = "x".repeat(MAX_REQUEST);
    assert!(request(&mut conn, &at_limit)
        .status
        .starts_with("err parse error"));
    assert_eq!(request(&mut conn, ".stats").status, "ok stats");
    drop(conn);

    // Invalid UTF-8.
    let mut stream = server.stream();
    stream
        .write_all(b"SELECT \xff\xfe FROM web_sales\n")
        .unwrap();
    let mut conn = Connection::new(stream).unwrap();
    assert_eq!(
        read_reply(&mut conn).status,
        "err statement is not valid UTF-8"
    );
    assert_eq!(request(&mut conn, ".stats").status, "ok stats");
    drop(conn);

    // Three 1.4 MB replies requested, the status line of the first read,
    // then gone.
    let full = "SELECT *, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r \
                FROM web_sales";
    let mut conn = server.connect();
    conn.send(&format!("{full}\n{full}\n{full}")).unwrap();
    assert!(conn.status().unwrap().unwrap().starts_with("ok 8000 "));
    drop(conn);

    // Every handler serves one connection at a time, so THREADS connections
    // answered while all of them are open are THREADS live handlers.
    let mut open: Vec<Connection> = (0..THREADS).map(|_| server.connect()).collect();
    for conn in &mut open {
        let reply = request(conn, ".stats");
        assert_eq!(reply.status, "ok stats");
        assert!(reply.lines.iter().any(|l| l.starts_with("completed ")));
    }
    drop(open);
    server.stop();
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// What framing `table`'s rows costs in this build (a debug build spends
/// ~20 ms on 1.4 MB), so that the wire test below reads the same in every
/// profile.
fn framing_ms(table: &Table) -> f64 {
    let mut reply = ReplyBuf::new();
    let mut sink = Vec::new();
    let passes = (0..5).map(|_| {
        sink.clear();
        let started = Instant::now();
        for row in table.rows() {
            reply.row(row.values());
            reply.flush_if_full(&mut sink).unwrap();
        }
        reply.flush(&mut sink).unwrap();
        started.elapsed().as_secs_f64() * 1e3
    });
    median(passes.collect())
}

/// The three reply sizes of a served statement, with the bytes each puts on
/// the wire.
fn wire_statements() -> [(&'static str, std::ops::Range<usize>); 3] {
    [
        // ~1 % of the item domain: ~13 KB.
        (
            "SELECT *, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r \
             FROM web_sales WHERE ws_item_sk BETWEEN 1000 AND 1199",
            4_000..40_000,
        ),
        // Five narrow columns of every row: ~150 KB.
        (
            "SELECT ws_item_sk, ws_sold_time_sk, ws_quantity, \
             rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r, \
             sum(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS s \
             FROM web_sales",
            100_000..250_000,
        ),
        // The whole width of every row: ~1.4 MB.
        (
            "SELECT *, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r \
             FROM web_sales",
            1_000_000..2_000_000,
        ),
    ]
}

/// At `repro serve`'s defaults (8 000 rows, a 64-block budget) the medium
/// statement reads three of the nine columns; narrowed to them its input is
/// ~29 blocks, it fits the budget, and nothing spills: no spill object is
/// opened and no block is put. The full `SELECT *` statement reads every
/// column, so its 209-block input still spills through the Hashed Sort's
/// bucket files, and is charged as 209 blocks of whole rows. What reaches
/// the device is no longer those rows: each spilled row came from the scan,
/// so its entry is its row index and its one window column, a few bytes
/// instead of ~214. The objects and puts asserted below are that residue;
/// the charge, priced in whole tuples as the paper prices a reorder, stays.
#[test]
fn served_medium_statement_spills_nothing_at_the_defaults() {
    let db = open_database(&ServeOptions::default());
    let [_, (medium, _), (full, _)] = wire_statements();
    let spilled = |sql: &str| {
        let before = db.spill_stats();
        db.query(sql).unwrap();
        let after = db.spill_stats();
        (
            after.delete_requests - before.delete_requests,
            after.put_requests - before.put_requests,
        )
    };
    assert_eq!(spilled(medium), (0, 0), "spill objects, block puts");
    let (objects, puts) = spilled(full);
    assert!(objects > 0 && puts > 0, "{objects} objects, {puts} puts");
    assert_eq!(db.spill_stats().live_objects, 0);
}

/// The wire regression, as state: a Nagle / delayed-ACK stall (a 40 ms
/// kernel timer on every reply) needs `TCP_NODELAY` off at one end, so both
/// ends of a served connection must have it on — and replies of every size
/// arrive byte for byte.
#[test]
fn no_reply_waits_for_an_acknowledgement() {
    let db = served_web_sales(8_000);
    let server = TestServer::start(&db, 2);
    let stream = server.stream();
    let client_end = stream.try_clone().unwrap();
    let mut conn = Connection::new(stream).unwrap();
    assert!(client_end.nodelay().unwrap(), "the client's end");
    drop(client_end); // a second handle would keep the connection open past `conn`
    assert_eq!(
        request(&mut conn, ".nodelay").status,
        "nodelay true",
        "the accepted end"
    );
    for (sql, size) in wire_statements() {
        let expected = db.session().query(sql).unwrap();
        let reply = request(&mut conn, sql);
        assert!(size.contains(&reply.bytes), "{} bytes: {sql}", reply.bytes);
        let tabbed: Vec<String> = display_rows(&expected)
            .iter()
            .map(|row| row.join("\t"))
            .collect();
        assert_eq!(reply.lines[1..], tabbed[..], "{sql}");
    }
    drop(conn);
    server.stop();
}

/// The same in wall time: on one warmed connection, what a reply costs
/// beyond the server's own wall and the framing is a loopback copy, whatever
/// the host's speed; the stall would add 40 ms.
#[test]
#[ignore = "wall-clock bound; run by CI's release leg"]
fn no_reply_waits_for_an_acknowledgement_on_the_wall() {
    const REPS: usize = 20;
    let _alone = heavy();
    let db = served_web_sales(8_000);
    let server = TestServer::start(&db, 2);
    let mut conn = server.connect();
    for (sql, _) in wire_statements() {
        let framing = framing_ms(&db.session().query(sql).unwrap());
        let bytes = request(&mut conn, sql).bytes; // warms the connection
        let wire_ms: Vec<f64> = (0..REPS)
            .map(|_| {
                // Read as `repro client` reads: every line, none kept.
                let sent = Instant::now();
                conn.send(sql).unwrap();
                let status = conn.status().unwrap().expect("a status line");
                let wall_ms = wall_ms(status).expect("an ok status");
                while conn.body_line().unwrap().is_some() {}
                sent.elapsed().as_secs_f64() * 1e3 - wall_ms - framing
            })
            .collect();
        let typical = median(wire_ms.clone());
        assert!(
            typical < 15.0,
            "{bytes} bytes: median latency - wall_ms - framing ({framing:.1} ms) = \
             {typical:.1} ms ({wire_ms:.1?})"
        );
    }
    drop(conn);
    server.stop();
}

/// Counts the writes that reach the socket.
struct CountingSocket {
    stream: TcpStream,
    writes: Vec<usize>,
}

impl Write for CountingSocket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // One entry per `write_all`: the rest of a short write is not a new
        // chunk.
        self.stream.write_all(buf)?;
        self.writes.push(buf.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// A reply one byte under the flush mark is one write; at the mark and one
/// byte over it, the rows leave when they reach it and the terminator
/// follows. All three arrive whole.
#[test]
fn replies_around_the_flush_mark_round_trip() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let port = listener.local_addr().unwrap().port();
    let status = "ok 1 1 0.000 0.000";
    let framing = status.len() + 1 + "s\n".len() + 1; // status, header, the row's newline
    for (rows_end, writes) in [
        (FLUSH_MARK - 1, vec![FLUSH_MARK + 1]),
        (FLUSH_MARK, vec![FLUSH_MARK, 2]),
        (FLUSH_MARK + 1, vec![FLUSH_MARK + 1, 2]),
    ] {
        let text = "y".repeat(rows_end - framing);
        let row = [Value::str(text.as_str())];
        let reader = thread::spawn(move || {
            let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
            read_reply(&mut Connection::new(stream).unwrap())
        });
        let (stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        let mut sock = CountingSocket {
            stream,
            writes: Vec::new(),
        };
        let mut reply = ReplyBuf::new();
        reply.line(status);
        reply.header(["s"]);
        reply.row(&row);
        reply.flush_if_full(&mut sock).unwrap();
        reply.end();
        reply.flush(&mut sock).unwrap();
        assert_eq!(sock.writes, writes, "rows end at {rows_end}");
        drop(sock);

        let got = reader.join().unwrap();
        assert_eq!(got.status, status);
        assert_eq!(got.lines, ["s", text.as_str()]);
        assert_eq!(got.bytes, rows_end + 2);
    }
}
