//! Framing of the line protocol: the one encoder and the one decoder of the
//! bytes that cross the socket. The server frames replies through
//! [`ReplyBuf`] and reads requests through [`read_request`]; `repro client`
//! and the tests read replies through [`Connection`].

use std::borrow::Cow;
use std::fmt;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;

use wf_common::Value;

/// A reply leaves for the socket whenever this many bytes of it are framed:
/// a reply that fits is one write, a larger one never holds more than one
/// chunk (plus the row that crossed the mark) in memory, and the client
/// digests a chunk while the next one is encoded.
pub(crate) const FLUSH_MARK: usize = 128 * 1024;

/// The longest request line the server reads into memory.
pub(crate) const MAX_REQUEST: usize = 64 * 1024;

/// The line that ends a reply body.
const TERMINATOR: &str = ".";

/// Append `text` with `\`, tab, newline and carriage return written as the
/// two-character sequences `\\`, `\t`, `\n`, `\r`: a cell can then hold any
/// string without splitting its row or its line.
fn escape(text: &str, out: &mut Vec<u8>) {
    let bytes = text.as_bytes();
    let mut from = 0;
    for (at, byte) in bytes.iter().enumerate() {
        let code = match byte {
            b'\\' => b'\\',
            b'\t' => b't',
            b'\n' => b'n',
            b'\r' => b'r',
            _ => continue,
        };
        out.extend_from_slice(&bytes[from..at]);
        out.extend_from_slice(&[b'\\', code]);
        from = at + 1;
    }
    out.extend_from_slice(&bytes[from..]);
}

/// Undo [`escape`]. A backslash before any other character, or at the end,
/// is kept as it is.
fn unescape(cell: &str) -> Cow<'_, str> {
    if !cell.contains('\\') {
        return Cow::Borrowed(cell);
    }
    let mut out = String::with_capacity(cell.len());
    let mut chars = cell.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.extend(['\\', other]),
            None => out.push('\\'),
        }
    }
    Cow::Owned(out)
}

/// The cells of one header or row line as the server held them.
pub(crate) fn cells(line: &str) -> impl Iterator<Item = Cow<'_, str>> {
    line.split('\t').map(unescape)
}

/// True when `status` opens a body that runs up to the terminator line.
pub(crate) fn has_body(status: &str) -> bool {
    status.starts_with("ok") && status != "ok bye"
}

/// The server's wall of an `ok <rows> <cols> <wall_ms> <queue_ms>` status;
/// `None` for every other status line.
pub(crate) fn wall_ms(status: &str) -> Option<f64> {
    let fields = status.strip_prefix("ok ")?;
    fields.split_whitespace().nth(2)?.parse().ok()
}

/// The server's per-connection reply buffer. Lines are framed into it and
/// handed to the socket in `write_all` calls of [`FLUSH_MARK`] bytes or
/// more, and once at the end of the reply.
pub(crate) struct ReplyBuf {
    buf: Vec<u8>,
}

impl ReplyBuf {
    pub(crate) fn new() -> ReplyBuf {
        ReplyBuf { buf: Vec::new() }
    }

    /// A status, `err` or `key value` line. `text` must hold no newline.
    pub(crate) fn line(&mut self, text: impl fmt::Display) {
        // Writing to a `Vec` cannot fail.
        writeln!(self.buf, "{text}").expect("write to a Vec");
    }

    /// The column names of a result, framed like a row.
    pub(crate) fn header<'a>(&mut self, names: impl IntoIterator<Item = &'a str>) {
        self.data_line(names, escape);
    }

    /// One result row: tab-separated cells in `Display`'s text, escaped.
    pub(crate) fn row(&mut self, values: &[Value]) {
        self.data_line(values, |value, out| match value {
            Value::Str(text) => escape(text, out),
            other => other.write_text(out),
        });
    }

    /// A body line. One that begins with `.` gets a second `.` in front, so
    /// that no data reads as the terminator.
    fn data_line<T>(
        &mut self,
        cells: impl IntoIterator<Item = T>,
        mut encode: impl FnMut(T, &mut Vec<u8>),
    ) {
        let start = self.buf.len();
        for (i, cell) in cells.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(b'\t');
            }
            encode(cell, &mut self.buf);
        }
        if self.buf.get(start) == Some(&b'.') {
            self.buf.insert(start, b'.');
        }
        self.buf.push(b'\n');
    }

    /// The terminator of a reply body.
    pub(crate) fn end(&mut self) {
        self.buf.extend_from_slice(TERMINATOR.as_bytes());
        self.buf.push(b'\n');
    }

    /// Hand the framed bytes to `sock` if they have reached [`FLUSH_MARK`].
    pub(crate) fn flush_if_full(&mut self, sock: &mut impl Write) -> io::Result<()> {
        if self.buf.len() >= FLUSH_MARK {
            self.flush(sock)?;
        }
        Ok(())
    }

    /// Hand whatever is framed to `sock`.
    pub(crate) fn flush(&mut self, sock: &mut impl Write) -> io::Result<()> {
        let sent = sock.write_all(&self.buf);
        self.buf.clear();
        sent
    }
}

/// What [`read_request`] found on the connection.
pub(crate) enum Request {
    /// A line (without its newline) is in the buffer.
    Line,
    /// A line longer than [`MAX_REQUEST`] was read and dropped.
    TooLong,
    /// The client closed the connection.
    Eof,
}

/// Read one request line into `line`, holding at most [`MAX_REQUEST`] bytes
/// of it: a longer line is consumed up to its newline and reported, not
/// stored. Bytes before an end of stream count as a line.
pub(crate) fn read_request(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<Request> {
    line.clear();
    let mut too_long = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let newline = available.iter().position(|&b| b == b'\n');
        let chunk = &available[..newline.unwrap_or(available.len())];
        if !too_long && line.len() + chunk.len() > MAX_REQUEST {
            too_long = true;
            line.clear();
        }
        if !too_long {
            line.extend_from_slice(chunk);
        }
        let at_eof = available.is_empty();
        let used = chunk.len() + usize::from(newline.is_some());
        reader.consume(used);
        if newline.is_some() || at_eof {
            return Ok(if too_long {
                Request::TooLong
            } else if at_eof && line.is_empty() {
                Request::Eof
            } else {
                Request::Line
            });
        }
    }
}

/// The client's end of a connection: requests out, replies in.
pub(crate) struct Connection {
    reader: BufReader<TcpStream>,
    line: String,
}

impl Connection {
    /// Take over a connected socket. `TCP_NODELAY` on this side too: a
    /// request is one small write and must not wait for an acknowledgement.
    pub(crate) fn new(stream: TcpStream) -> io::Result<Connection> {
        stream.set_nodelay(true)?;
        Ok(Connection {
            reader: BufReader::with_capacity(64 * 1024, stream),
            line: String::new(),
        })
    }

    /// Send one request line.
    pub(crate) fn send(&mut self, request: &str) -> io::Result<()> {
        let mut sock = self.reader.get_ref();
        sock.write_all(format!("{request}\n").as_bytes())
    }

    /// The next line without its line ending; `None` at end of stream.
    fn next_line(&mut self) -> io::Result<Option<&str>> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Ok(None);
        }
        Ok(Some(self.line.trim_end_matches(['\n', '\r'])))
    }

    /// The status line of the next reply; `None` if the server closed the
    /// connection instead.
    pub(crate) fn status(&mut self) -> io::Result<Option<&str>> {
        self.next_line()
    }

    /// The next body line of a reply whose status [`has_body`], with the
    /// dot-stuffing undone (split it with [`cells`]); `None` at the
    /// terminator. A stream that ends first is an error.
    pub(crate) fn body_line(&mut self) -> io::Result<Option<&str>> {
        match self.next_line()? {
            None => Err(ErrorKind::UnexpectedEof.into()),
            Some(TERMINATOR) => Ok(None),
            Some(line) => Ok(Some(line.strip_prefix('.').unwrap_or(line))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn framed(rows: &[Vec<Value>]) -> String {
        let mut reply = ReplyBuf::new();
        for row in rows {
            reply.row(row);
        }
        String::from_utf8(reply.buf).unwrap()
    }

    #[test]
    fn cells_without_special_bytes_are_display_joined_by_tabs() {
        let row = vec![
            Value::Null,
            Value::Int(-7),
            Value::Float(2.5),
            Value::str("a b"),
            Value::str(""),
        ];
        let display: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        assert_eq!(framed(&[row]), format!("{}\n", display.join("\t")));
    }

    #[test]
    fn escaping_and_dot_stuffing_round_trip() {
        for text in [
            ".",
            "..",
            ".x",
            "x.",
            "",
            "a\tb",
            "a\nb\r\n",
            "\\",
            "\\t",
            "back\\slash\\",
            "tab\tnl\ncr\rend",
            "é\t→\n",
        ] {
            let line = framed(&[vec![Value::str(text), Value::Int(1)]]);
            assert_eq!(line.matches('\n').count(), 1, "{text:?} splits its row");
            let line = line.strip_suffix('\n').unwrap();
            assert_ne!(line, TERMINATOR);
            assert_eq!(line.matches('\t').count(), 1, "{text:?} splits its cell");
            let line = line.strip_prefix('.').unwrap_or(line);
            let back: Vec<String> = cells(line).map(Cow::into_owned).collect();
            assert_eq!(back, [text, "1"]);
        }
        // A one-column row whose text is the terminator.
        assert_eq!(framed(&[vec![Value::str(".")]]), "..\n");
        // Sequences the encoder never writes survive decoding.
        assert_eq!(unescape("a\\qb\\"), "a\\qb\\");
    }

    #[test]
    fn request_lines_are_bounded() {
        let long = vec![b'x'; MAX_REQUEST + 1];
        let mut input = Vec::new();
        input.extend_from_slice(b"first\n");
        input.extend_from_slice(&long);
        input.extend_from_slice(b"\n");
        input.extend_from_slice(&long[..MAX_REQUEST]);
        input.extend_from_slice(b"\n\nlast");
        // A small reader buffer, so that lines span several fills.
        let mut reader = BufReader::with_capacity(1000, Cursor::new(input));
        let mut line = Vec::new();
        let mut next = |line: &mut Vec<u8>| read_request(&mut reader, line).unwrap();
        assert!(matches!(next(&mut line), Request::Line));
        assert_eq!(line, b"first");
        assert!(matches!(next(&mut line), Request::TooLong));
        assert!(line.is_empty());
        assert!(matches!(next(&mut line), Request::Line));
        assert_eq!(line.len(), MAX_REQUEST);
        assert!(matches!(next(&mut line), Request::Line));
        assert!(line.is_empty());
        assert!(matches!(next(&mut line), Request::Line));
        assert_eq!(line, b"last");
        assert!(matches!(next(&mut line), Request::Eof));
    }
}
