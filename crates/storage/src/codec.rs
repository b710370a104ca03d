//! Row serialization for spill files.
//!
//! Format (little-endian):
//!
//! ```text
//! entry     := row | reference
//! row       := arity:u16 value*                 -- arity < 0x8000
//! reference := (0x8000 | appended):u16 index:u32 value*
//! value     := 0x00                      -- NULL
//!            | 0x01 i64                  -- Int
//!            | 0x02 f64-bits             -- Float
//!            | 0x03 len:u32 utf8-bytes   -- Str
//! ```
//!
//! A `row` holds every value. A `reference` stands for a row cloned from a
//! statement's scan view (`Row::origin`): base row `index` as the view
//! narrows it, followed by the `appended` values written after it — the
//! window columns the row gained since the scan. Only a spill file whose
//! config carries that view writes or reads one ([`crate::SpillFile`]); the
//! top bit of the header tells the two apart, so a plain row is at most
//! 32 767 columns wide.
//!
//! [`wf_common::Value::encoded_len`] mirrors these sizes so block accounting
//! can be computed without serializing: [`Row::encoded_len`] is the length
//! of the row's `row` entry whichever entry is written.
//!
//! Decoding reads from a `&mut &[u8]` cursor: on success the slice is
//! advanced past the entry; on error the cursor state is unspecified. A
//! buffer that ends inside an entry and bytes that cannot be an entry are
//! different failures (`RowError`): the spill reader tops up on the first
//! and stops on the second. A plain row decodes at exactly its width; a
//! reference decodes through the view, so its strings are the table's own
//! and it keeps the view's room for the columns still to be appended.

use crate::bytebuf::ByteBuf;
use crate::segstore::SharedRows;
use wf_common::{Error, Result, Row, Value};

const TAG_NULL: u8 = 0x00;
const TAG_INT: u8 = 0x01;
const TAG_FLOAT: u8 = 0x02;
const TAG_STR: u8 = 0x03;

/// The header bit that marks a reference entry.
const REFERENCE: u16 = 0x8000;
/// The widest plain row, and the most values a reference appends.
pub(crate) const MAX_ENTRY_VALUES: usize = (REFERENCE - 1) as usize;
/// Bytes of a reference entry ahead of its values (header and index).
pub const REFERENCE_HEADER: usize = 2 + 4;

/// Append the encoding of `row` to `buf`.
pub fn encode_row(row: &Row, buf: &mut ByteBuf) {
    buf.put_u16_le(row.arity() as u16);
    encode_values(row.values(), buf);
}

/// Append a reference entry for `row`: base row `index` of a view `width`
/// columns wide, then the row's values past `width`.
pub(crate) fn encode_reference(row: &Row, index: u32, width: usize, buf: &mut ByteBuf) {
    let appended = &row.values()[width..];
    buf.put_u16_le(REFERENCE | appended.len() as u16);
    buf.put_u32_le(index);
    encode_values(appended, buf);
}

fn encode_values(values: &[Value], buf: &mut ByteBuf) {
    for v in values {
        match v {
            Value::Null => buf.put_u8(TAG_NULL),
            Value::Int(i) => {
                buf.put_u8(TAG_INT);
                buf.put_i64_le(*i);
            }
            Value::Float(f) => {
                buf.put_u8(TAG_FLOAT);
                buf.put_u64_le(f.to_bits());
            }
            Value::Str(s) => {
                buf.put_u8(TAG_STR);
                buf.put_u32_le(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
        }
    }
}

/// Why a row failed to decode. The spill reader decodes against whatever
/// prefix of the file it holds, so it must tell "the row continues in the
/// next block" (top up and retry) from "these bytes are no row" (stop).
#[derive(Debug)]
pub(crate) enum RowError {
    /// The buffer ended inside the named field; the entry needs at least
    /// `need` bytes, counted from its first byte. A reader that has fewer
    /// than that left in the whole file holds a damaged length field.
    Truncated { what: &'static str, need: usize },
    /// The bytes present cannot start any row.
    Corrupt(String),
}

impl From<RowError> for Error {
    fn from(e: RowError) -> Error {
        match e {
            RowError::Truncated { what, .. } => corrupt(&format!("truncated {what}")),
            RowError::Corrupt(msg) => corrupt(&msg),
        }
    }
}

/// Split `n` bytes off the cursor. A truncation's `need` is counted from
/// the cursor here; [`try_decode_entry`] rebases it to the start of the
/// entry.
fn take<'a>(
    cursor: &mut &'a [u8],
    n: usize,
    what: &'static str,
) -> std::result::Result<&'a [u8], RowError> {
    if cursor.len() < n {
        return Err(RowError::Truncated { what, need: n });
    }
    let (head, tail) = cursor.split_at(n);
    *cursor = tail;
    Ok(head)
}

/// Decode one plain row from the front of `cursor`, advancing it. Returns
/// an error on truncated or corrupt input, and on a reference entry.
pub fn decode_row(cursor: &mut &[u8]) -> Result<Row> {
    Ok(try_decode_entry(cursor, None)?)
}

/// Decode one entry, rebuilding a reference through `view`, with the two
/// failure kinds kept apart. A truncation's `need` counts from the entry's
/// first byte (`take` leaves the cursor at the field that failed).
pub(crate) fn try_decode_entry(
    cursor: &mut &[u8],
    view: Option<&SharedRows>,
) -> std::result::Result<Row, RowError> {
    let start = cursor.len();
    entry_fields(cursor, view).map_err(|e| match e {
        RowError::Truncated { what, need } => RowError::Truncated {
            what,
            need: start - cursor.len() + need,
        },
        corrupt => corrupt,
    })
}

fn entry_fields(
    cursor: &mut &[u8],
    view: Option<&SharedRows>,
) -> std::result::Result<Row, RowError> {
    let header_bytes = take(cursor, 2, "arity")?;
    let header = u16::from_le_bytes([header_bytes[0], header_bytes[1]]);
    if header & REFERENCE == 0 {
        let mut values = Vec::with_capacity(header as usize);
        for _ in 0..header {
            values.push(value(cursor)?);
        }
        return Ok(Row::new(values));
    }
    let appended = (header & !REFERENCE) as usize;
    let b = take(cursor, 4, "row index")?;
    let index = u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize;
    let Some(view) = view else {
        return Err(RowError::Corrupt(
            "row reference in a spill file that has no table view".into(),
        ));
    };
    if index >= view.base().len() {
        return Err(RowError::Corrupt(format!(
            "row reference {index} past the table's {} rows",
            view.base().len()
        )));
    }
    // Every value takes at least its tag byte.
    if cursor.len() < appended {
        return Err(RowError::Truncated {
            what: "appended values",
            need: appended,
        });
    }
    let mut row = view.narrow_at(index);
    for _ in 0..appended {
        row.push(value(cursor)?);
    }
    Ok(row)
}

fn value(cursor: &mut &[u8]) -> std::result::Result<Value, RowError> {
    let tag = take(cursor, 1, "value tag")?[0];
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_INT => {
            let b = take(cursor, 8, "int")?;
            Value::Int(i64::from_le_bytes(b.try_into().expect("8 bytes")))
        }
        TAG_FLOAT => {
            let b = take(cursor, 8, "float")?;
            Value::Float(f64::from_bits(u64::from_le_bytes(
                b.try_into().expect("8 bytes"),
            )))
        }
        TAG_STR => {
            let b = take(cursor, 4, "string length")?;
            let len = u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize;
            let body = take(cursor, len, "string body")?;
            let s = std::str::from_utf8(body)
                .map_err(|_| RowError::Corrupt("invalid utf-8 in string value".into()))?;
            Value::str(s)
        }
        other => return Err(RowError::Corrupt(format!("unknown value tag {other:#x}"))),
    })
}

fn corrupt(msg: &str) -> Error {
    Error::Execution(format!("spill codec: {msg}"))
}

// ---------------------------------------------------------------------------
// Block compression (zero-dependency LZSS-style codec)
// ---------------------------------------------------------------------------
//
// Spill blocks are highly self-similar — repeated arity headers, value tags,
// and the shared prefixes of sorted neighbours — so a tiny greedy LZ with a single-probe hash table
// recovers most of the easy redundancy without pulling in a dependency.
//
// Framing: `mode:u8 raw_len:u32le payload`.
//   mode 0 → payload is the raw block verbatim (compression didn't help);
//   mode 1 → payload is an LZ token stream:
//     token := 1lllllll dist:u16le   -- copy (l + MIN_MATCH) bytes from
//                                       `dist` bytes back (dist ≥ 1)
//            | 0lllllll byte{l+1}    -- run of l+1 literal bytes
//
// The compressor. One greedy pass: hash the four bytes at `i`, look at the
// one earlier position the table remembers for that hash, overwrite the slot
// with `i`, and — when those four bytes really are equal and within a u16
// distance — take the longest match up to MAX_MATCH, emit pending literals
// and the copy token, and jump past it (positions inside a match are never
// entered). That *parse* fixes the frame: which position a slot holds, when a
// probe succeeds and how far a match runs are functions of the input alone,
// and `tests::reference` spells them out a byte at a time. The kernels answer
// the same questions with fewer instructions:
//   * a slot holds `position + 1` in the narrowest integer that fits the
//     input (u16 for anything under 65 535 bytes, i.e. every spill block; u32
//     otherwise), 0 meaning empty — a 16 KiB table to clear per 8 KiB block,
//     and it stays in L1;
//   * the four-byte probe is one u32 load and compare, and the same load
//     feeds the hash;
//   * a match is extended eight bytes per step: xor the two words, and the
//     first differing byte is `trailing_zeros / 8` (little-endian loads);
//   * tokens are written by index into a buffer sized for the worst case (all
//     literals) up front, so a literal run of a few bytes — the common one —
//     is one fixed-width copy (below), not a `memcpy` call.
// None of this can move a byte of the frame, and the frame is a contract:
// every backend's physical bytes, the arena's slot use and the request
// counters are functions of it. `frames_are_the_reference_compressors_byte_
// for_byte` holds the kernels to it — run `cargo test -p wf-storage codec`
// after touching this section.
//
// Fixed-width copies. Most tokens move under ten bytes, and a copy of
// unknown length is a library call. Where source and destination both have
// WIDE_COPY bytes available, both kernels copy exactly WIDE_COPY bytes and
// advance by the true length: the surplus lands on bytes that the next token
// overwrites (and that nothing reads before then — a match only reaches back
// over finished output). Near either end of a buffer the exact-length copy
// runs instead.
//
// The decoder trusts nothing in the frame. Every compressed block decodes to
// exactly `raw_len` bytes, and two bounds hold *before* memory is committed:
//   * `raw_len` may not exceed what the payload could honestly yield — a
//     token is at least 3 bytes for at most MAX_MATCH of output — so a
//     hostile header cannot make the decoder reserve more than ~44× the bytes
//     it was handed;
//   * a token that would carry the output past `raw_len` fails there, not
//     after the whole stream has been expanded.
// A match that overlaps its own output (`dist < len`, i.e. RLE) is copied in
// doubling steps: whatever has been written since the match's source starts
// repeats with period `dist`, so each step can append all of it again.

/// Bytes of framing (`mode:u8 raw_len:u32le`) ahead of every payload — also
/// the most a frame can exceed its raw block by (the stored-raw fallback).
pub const FRAME_HEADER: usize = 5;
/// Stored-raw frame marker.
const MODE_RAW: u8 = 0;
/// LZ token-stream frame marker.
const MODE_LZ: u8 = 1;
/// Shortest back-reference worth a 3-byte token.
const MIN_MATCH: usize = 4;
/// Longest match a single copy token encodes (`MIN_MATCH + 127`).
const MAX_MATCH: usize = MIN_MATCH + 0x7f;
/// Longest literal run a single token encodes.
const MAX_LITERAL_RUN: usize = 0x80;
/// Farthest back a u16 distance can reach.
const MAX_DISTANCE: usize = u16::MAX as usize;
const HASH_BITS: u32 = 13;
/// Bytes of a copy token (`1lllllll dist:u16le`), the densest a payload gets.
const COPY_TOKEN: usize = 3;

/// Width of the fixed-width copies (see *Fixed-width copies* above).
const WIDE_COPY: usize = 16;

/// A hash-table slot: `position + 1`, 0 for "never seen".
trait Slot: Copy + Default {
    fn holding(position: usize) -> Self;
    /// The position held plus one.
    fn get(self) -> usize;
}

impl Slot for u16 {
    #[inline]
    fn holding(position: usize) -> Self {
        (position + 1) as u16
    }
    #[inline]
    fn get(self) -> usize {
        self as usize
    }
}

impl Slot for u32 {
    #[inline]
    fn holding(position: usize) -> Self {
        (position + 1) as u32
    }
    #[inline]
    fn get(self) -> usize {
        self as usize
    }
}

#[inline]
fn load_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"))
}

/// Length of the common prefix of `a` and `b` (equal lengths), a word at a
/// time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut words_a = a.chunks_exact(8);
    let mut words_b = b.chunks_exact(8);
    let mut len = 0;
    for (wa, wb) in words_a.by_ref().zip(words_b.by_ref()) {
        let diff = u64::from_le_bytes(wa.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(wb.try_into().expect("8 bytes"));
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    let tail = words_a
        .remainder()
        .iter()
        .zip(words_b.remainder())
        .take_while(|(x, y)| x == y)
        .count();
    len + tail
}

/// Append `src[start..end]` as literal tokens at `out[o..]`; returns the new
/// end of output. `out` has [`WIDE_COPY`] bytes of slack past the worst case.
#[inline]
fn flush_literals(src: &[u8], start: usize, end: usize, out: &mut [u8], mut o: usize) -> usize {
    let mut at = start;
    while at < end {
        let run = (end - at).min(MAX_LITERAL_RUN);
        out[o] = (run - 1) as u8;
        o += 1;
        if run <= WIDE_COPY && at + WIDE_COPY <= src.len() {
            out[o..o + WIDE_COPY].copy_from_slice(&src[at..at + WIDE_COPY]);
        } else {
            out[o..o + run].copy_from_slice(&src[at..at + run]);
        }
        o += run;
        at += run;
    }
    o
}

/// The greedy LZ pass over `raw`, writing tokens from `out[o..]`; returns the
/// end of output. `S` must be able to hold `raw.len()`.
fn lz_pass<S: Slot>(raw: &[u8], out: &mut [u8], mut o: usize) -> usize {
    let mut table = [S::default(); 1 << HASH_BITS];
    let mut i = 0usize;
    let mut literal_start = 0usize;
    while i + MIN_MATCH <= raw.len() {
        let word = load_u32(raw, i);
        let h = (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize;
        let seen = table[h].get();
        table[h] = S::holding(i);
        // `seen` is candidate + 1, so the distance is `i + 1 - seen`.
        if seen != 0 && i + 1 - seen <= MAX_DISTANCE && load_u32(raw, seen - 1) == word {
            let candidate = seen - 1;
            let limit = (raw.len() - i).min(MAX_MATCH);
            let len = MIN_MATCH
                + common_prefix(
                    &raw[candidate + MIN_MATCH..candidate + limit],
                    &raw[i + MIN_MATCH..i + limit],
                );
            o = flush_literals(raw, literal_start, i, out, o);
            let dist = ((i - candidate) as u16).to_le_bytes();
            out[o..o + COPY_TOKEN].copy_from_slice(&[
                0x80 | (len - MIN_MATCH) as u8,
                dist[0],
                dist[1],
            ]);
            o += COPY_TOKEN;
            i += len;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(raw, literal_start, raw.len(), out, o)
}

/// Compress one spill block. Always produces a valid frame: if the LZ pass
/// doesn't beat storing the block raw, the raw frame is emitted instead.
pub fn compress_block(raw: &[u8]) -> Vec<u8> {
    // All literals: one token byte per MAX_LITERAL_RUN. A copy token is
    // shorter than the bytes it stands for, so no parse emits more.
    let worst = FRAME_HEADER + raw.len() + raw.len().div_ceil(MAX_LITERAL_RUN);
    let mut out = vec![0u8; worst + WIDE_COPY];
    out[0] = MODE_LZ;
    out[1..FRAME_HEADER].copy_from_slice(&(raw.len() as u32).to_le_bytes());

    let end = if raw.len() < u16::MAX as usize {
        lz_pass::<u16>(raw, &mut out, FRAME_HEADER)
    } else {
        lz_pass::<u32>(raw, &mut out, FRAME_HEADER)
    };

    if end < FRAME_HEADER + raw.len() {
        out.truncate(end);
    } else {
        out[0] = MODE_RAW;
        out[FRAME_HEADER..FRAME_HEADER + raw.len()].copy_from_slice(raw);
        out.truncate(FRAME_HEADER + raw.len());
    }
    out
}

/// The most output a payload of `payload_len` bytes can honestly encode:
/// all copy tokens, all of the longest match.
fn max_decoded_len(payload_len: usize) -> usize {
    payload_len.div_ceil(COPY_TOKEN).saturating_mul(MAX_MATCH)
}

/// Decompress one frame produced by [`compress_block`].
pub fn decompress_block(frame: &[u8]) -> Result<Vec<u8>> {
    if frame.len() < FRAME_HEADER {
        return Err(corrupt("truncated compressed block header"));
    }
    let mode = frame[0];
    let raw_len = u32::from_le_bytes(frame[1..FRAME_HEADER].try_into().expect("4 bytes")) as usize;
    let payload = &frame[FRAME_HEADER..];
    match mode {
        MODE_RAW => {
            if payload.len() != raw_len {
                return Err(corrupt("stored block length mismatch"));
            }
            Ok(payload.to_vec())
        }
        MODE_LZ => lz_decode(payload, raw_len),
        other => Err(corrupt(&format!("unknown compression mode {other:#x}"))),
    }
}

/// Expand an LZ token stream into exactly `raw_len` bytes.
fn lz_decode(payload: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    if raw_len > max_decoded_len(payload.len()) {
        return Err(corrupt("block length exceeds what its payload can encode"));
    }
    let overrun = || corrupt("decompressed length mismatch");
    let mut out = vec![0u8; raw_len];
    let mut pos = 0usize;
    let mut at = 0usize;
    while at < payload.len() {
        let tok = payload[at];
        let room = raw_len - pos;
        if tok & 0x80 != 0 {
            let len = (tok & 0x7f) as usize + MIN_MATCH;
            let Some(d) = payload.get(at + 1..at + COPY_TOKEN) else {
                return Err(corrupt("truncated match distance"));
            };
            let dist = u16::from_le_bytes([d[0], d[1]]) as usize;
            if dist == 0 || dist > pos {
                return Err(corrupt("match distance out of range"));
            }
            if len > room {
                return Err(overrun());
            }
            let start = pos - dist;
            if len <= WIDE_COPY && dist >= WIDE_COPY && room >= WIDE_COPY {
                let (done, rest) = out.split_at_mut(pos);
                rest[..WIDE_COPY].copy_from_slice(&done[start..start + WIDE_COPY]);
            } else if dist >= len {
                out.copy_within(start..start + len, pos);
            } else {
                let mut copied = 0;
                while copied < len {
                    let n = (dist + copied).min(len - copied);
                    out.copy_within(start..start + n, pos + copied);
                    copied += n;
                }
            }
            at += COPY_TOKEN;
            pos += len;
        } else {
            let run = tok as usize + 1;
            let body = at + 1;
            if run <= WIDE_COPY && room >= WIDE_COPY && body + WIDE_COPY <= payload.len() {
                out[pos..pos + WIDE_COPY].copy_from_slice(&payload[body..body + WIDE_COPY]);
            } else {
                let Some(literals) = payload.get(body..body + run) else {
                    return Err(corrupt("truncated literal run"));
                };
                if run > room {
                    return Err(overrun());
                }
                out[pos..pos + run].copy_from_slice(literals);
            }
            at = body + run;
            pos += run;
        }
    }
    if pos != raw_len {
        return Err(overrun());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::SplitMix;
    use std::sync::Arc;
    use wf_common::row;

    fn round_trip(r: &Row) -> Row {
        let mut buf = ByteBuf::new();
        encode_row(r, &mut buf);
        assert_eq!(buf.len(), r.encoded_len(), "encoded_len must match codec");
        let mut cursor = buf.as_slice();
        let back = decode_row(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        back
    }

    #[test]
    fn round_trips_all_types() {
        let mut r = row![1i64, 2.5f64, "hello"];
        r.push(Value::Null);
        assert_eq!(round_trip(&r), r);
    }

    /// The bytes of a row are the format's, whatever handle a string value
    /// holds: pinned byte for byte, with `encoded_len` equal to their count,
    /// for empty, multi-byte, NUL-bearing and 64 KiB strings.
    #[test]
    fn string_rows_encode_to_the_pinned_bytes() {
        let r = row![7i64, "", "é\0", Value::Null, 1.5f64];
        let mut buf = ByteBuf::new();
        encode_row(&r, &mut buf);
        let mut want = vec![5, 0, TAG_INT, 7, 0, 0, 0, 0, 0, 0, 0];
        want.extend([TAG_STR, 0, 0, 0, 0]);
        want.extend([TAG_STR, 3, 0, 0, 0, 0xc3, 0xa9, 0]);
        want.push(TAG_NULL);
        want.push(TAG_FLOAT);
        want.extend(1.5f64.to_bits().to_le_bytes());
        assert_eq!(buf.as_slice(), want.as_slice());
        assert_eq!(round_trip(&r), r);

        let long = "日".repeat(64 * 1024 / 3 + 1);
        let r = row![long.as_str()];
        let mut buf = ByteBuf::new();
        encode_row(&r, &mut buf);
        assert_eq!(&buf.as_slice()[..7], &[1, 0, TAG_STR, 2, 0, 1, 0]);
        assert_eq!(&buf.as_slice()[7..], long.as_bytes());
        assert_eq!(round_trip(&r).values()[0].as_str(), Some(long.as_str()));
    }

    #[test]
    fn round_trips_empty_row() {
        let r = Row::new(vec![]);
        assert_eq!(round_trip(&r), r);
    }

    #[test]
    fn round_trips_extremes() {
        let r = row![i64::MIN, i64::MAX, f64::NEG_INFINITY, f64::NAN, ""];
        let back = round_trip(&r);
        // NaN compares equal under total order semantics.
        assert_eq!(back, r);
    }

    #[test]
    fn multiple_rows_stream() {
        let rows = vec![row![1], row![2, "x"], row![Value::Null]];
        let mut buf = ByteBuf::new();
        for r in &rows {
            encode_row(r, &mut buf);
        }
        let mut cursor = buf.as_slice();
        for r in &rows {
            assert_eq!(&decode_row(&mut cursor).unwrap(), r);
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = ByteBuf::new();
        encode_row(&row![123, "abcdef"], &mut buf);
        for cut in [1, 3, 10] {
            let full = buf.as_slice();
            let mut short = &full[..full.len() - cut];
            assert!(decode_row(&mut short).is_err());
            // The field that ran out is whole in `full`: the need it reports
            // is past what is held and no later than the entry's end.
            let mut short = &full[..full.len() - cut];
            assert!(matches!(
                try_decode_entry(&mut short, None),
                Err(RowError::Truncated { need, .. }) if need > full.len() - cut && need <= full.len()
            ));
        }
    }

    /// A reference entry rebuilds base row `index` through the view — its
    /// origin and the view's spare room kept — and appends the values after
    /// it. A cut one reports what the whole entry needs; one read without a
    /// view, or past the view's table, is corruption.
    #[test]
    fn reference_entries_decode_through_the_view() {
        let view = SharedRows::from(Arc::new(vec![row![1, "a"], row![2, "bb"]])).with_spare(2);
        let mut row = view.narrow_at(1);
        row.push(Value::Int(7));
        let mut buf = ByteBuf::new();
        encode_reference(&row, 1, 2, &mut buf);
        assert_eq!(buf.len(), REFERENCE_HEADER + 9);
        let mut cursor = buf.as_slice();
        let back = try_decode_entry(&mut cursor, Some(&view)).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(back, row);
        assert_eq!((back.origin(), back.spare_capacity()), (Some(1), 1));
        assert_eq!(back.encoded_len(), row.encoded_len());

        let mut short = &buf.as_slice()[..buf.len() - 1];
        assert!(matches!(
            try_decode_entry(&mut short, Some(&view)),
            Err(RowError::Truncated { need, .. }) if need == buf.len()
        ));
        let err = decode_row(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("no table view"), "{err}");
        let one_row = SharedRows::from(Arc::new(vec![row![1, "a"]]));
        assert!(matches!(
            try_decode_entry(&mut buf.as_slice(), Some(&one_row)),
            Err(RowError::Corrupt(m)) if m.contains("row reference 1 past the table's 1 rows")
        ));
    }

    #[test]
    fn unknown_tag_errors() {
        let mut buf = ByteBuf::new();
        buf.put_u16_le(1);
        buf.put_u8(0x7f);
        let mut cursor = buf.as_slice();
        assert!(decode_row(&mut cursor).is_err());
        let mut cursor = buf.as_slice();
        assert!(matches!(
            try_decode_entry(&mut cursor, None),
            Err(RowError::Corrupt(_))
        ));
    }

    fn compress_round_trip(raw: &[u8]) -> usize {
        let frame = compress_block(raw);
        assert_eq!(decompress_block(&frame).unwrap(), raw);
        frame.len()
    }

    #[test]
    fn compression_round_trips_empty_and_tiny() {
        compress_round_trip(&[]);
        compress_round_trip(&[42]);
        compress_round_trip(b"abc");
    }

    #[test]
    fn compression_shrinks_repetitive_blocks() {
        let raw: Vec<u8> = b"the quick brown fox jumps over the lazy dog "
            .iter()
            .cycle()
            .take(8192)
            .copied()
            .collect();
        let size = compress_round_trip(&raw);
        assert!(size < raw.len() / 4, "{size} should be < {}", raw.len() / 4);
    }

    #[test]
    fn compression_handles_overlapping_matches() {
        // Pure RLE: dist 1, len > dist → overlapping copy.
        let raw = vec![7u8; 5000];
        let size = compress_round_trip(&raw);
        assert!(size < 200);
    }

    #[test]
    fn incompressible_blocks_are_stored_raw() {
        let raw = SplitMix(0x1234_5678_9abc_def0).noise(4096);
        let frame = compress_block(&raw);
        assert_eq!(frame[0], MODE_RAW);
        assert_eq!(frame.len(), raw.len() + 5);
        assert_eq!(decompress_block(&frame).unwrap(), raw);
    }

    /// The codec as it was first written, one byte at a time. It *defines*
    /// the frame: [`compress_block`] must produce these bytes for every
    /// input, and both decoders must read them back.
    mod reference {
        use super::super::*;

        pub fn compress(raw: &[u8]) -> Vec<u8> {
            let mut out = vec![MODE_LZ];
            out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
            let hash = |i: usize| {
                let v = u32::from_le_bytes([raw[i], raw[i + 1], raw[i + 2], raw[i + 3]]);
                (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
            };
            let literals = |from: usize, to: usize, out: &mut Vec<u8>| {
                for run in raw[from..to].chunks(MAX_LITERAL_RUN) {
                    out.push((run.len() - 1) as u8);
                    out.extend_from_slice(run);
                }
            };
            let mut table = vec![None::<usize>; 1 << HASH_BITS];
            let mut i = 0usize;
            let mut literal_start = 0usize;
            while i + MIN_MATCH <= raw.len() {
                let h = hash(i);
                let earlier = table[h].replace(i).filter(|&c| {
                    i - c <= MAX_DISTANCE && raw[c..c + MIN_MATCH] == raw[i..i + MIN_MATCH]
                });
                if let Some(candidate) = earlier {
                    let mut len = MIN_MATCH;
                    let limit = (raw.len() - i).min(MAX_MATCH);
                    while len < limit && raw[candidate + len] == raw[i + len] {
                        len += 1;
                    }
                    literals(literal_start, i, &mut out);
                    out.push(0x80 | (len - MIN_MATCH) as u8);
                    out.extend_from_slice(&((i - candidate) as u16).to_le_bytes());
                    i += len;
                    literal_start = i;
                } else {
                    i += 1;
                }
            }
            literals(literal_start, raw.len(), &mut out);
            if out.len() < FRAME_HEADER + raw.len() {
                return out;
            }
            let mut stored = vec![MODE_RAW];
            stored.extend_from_slice(&(raw.len() as u32).to_le_bytes());
            stored.extend_from_slice(raw);
            stored
        }

        /// `None` for any frame that is not exactly one block.
        pub fn decompress(frame: &[u8]) -> Option<Vec<u8>> {
            let raw_len = u32::from_le_bytes(frame.get(1..FRAME_HEADER)?.try_into().ok()?) as usize;
            let mut payload = &frame[FRAME_HEADER..];
            if frame[0] == MODE_RAW {
                return (payload.len() == raw_len).then(|| payload.to_vec());
            }
            if frame[0] != MODE_LZ {
                return None;
            }
            let mut out = Vec::new();
            while let Some((&tok, rest)) = payload.split_first() {
                if tok & 0x80 != 0 {
                    let len = (tok & 0x7f) as usize + MIN_MATCH;
                    let dist = u16::from_le_bytes([*rest.first()?, *rest.get(1)?]) as usize;
                    if dist == 0 || dist > out.len() {
                        return None;
                    }
                    let start = out.len() - dist;
                    for k in 0..len {
                        out.push(out[start + k]);
                    }
                    payload = &rest[2..];
                } else {
                    let run = tok as usize + 1;
                    out.extend_from_slice(rest.get(..run)?);
                    payload = &rest[run..];
                }
            }
            (out.len() == raw_len).then_some(out)
        }
    }

    /// `(distance, length)` of every copy token in an LZ frame.
    fn copy_tokens(frame: &[u8]) -> Vec<(usize, usize)> {
        let mut tokens = Vec::new();
        if frame[0] != MODE_LZ {
            return tokens;
        }
        let payload = &frame[FRAME_HEADER..];
        let mut at = 0;
        while at < payload.len() {
            let tok = payload[at];
            if tok & 0x80 != 0 {
                let dist = u16::from_le_bytes([payload[at + 1], payload[at + 2]]) as usize;
                tokens.push((dist, (tok & 0x7f) as usize + MIN_MATCH));
                at += COPY_TOKEN;
            } else {
                at += 2 + tok as usize;
            }
        }
        tokens
    }

    /// `web_sales`-shaped rows in the spill encoding. With `keyed`, each row
    /// is preceded by a `u16` length and its normalized `(item, sold_time)`
    /// key: bytes less regular than plain rows, for the compressor only.
    fn web_sales_bytes(rows: usize, keyed: bool, rng: &mut SplitMix) -> Vec<u8> {
        let padding = "x".repeat(135);
        let mut buf = ByteBuf::new();
        for order in 0..rows {
            let (time, item) = (rng.below(43_200) as i64, rng.below(20_000) as i64);
            let r = row![
                rng.below(1_800) as i64,
                time,
                rng.below(1_800) as i64,
                item,
                rng.below(40_000) as i64,
                rng.below(16) as i64,
                1 + rng.below(100) as i64,
                order as i64,
                padding.as_str()
            ];
            if keyed {
                let mut key = vec![1u8];
                key.extend_from_slice(&((item as u64) ^ (1 << 63)).to_be_bytes());
                key.push(1);
                key.extend_from_slice(&((time as u64) ^ (1 << 63)).to_be_bytes());
                buf.put_u16_le(key.len() as u16);
                buf.put_slice(&key);
            }
            encode_row(&r, &mut buf);
        }
        buf.as_slice().to_vec()
    }

    /// `marker`, `gap` zero bytes, `marker` again, a zero tail: the second
    /// marker's probe finds the first exactly `marker.len() + gap` back (the
    /// zeros between are swallowed by matches, which enter no positions).
    fn far_apart(gap: usize) -> Vec<u8> {
        let marker = b"spill-codec-marker";
        let mut raw = marker.to_vec();
        raw.resize(raw.len() + gap, 0);
        raw.extend_from_slice(marker);
        raw.resize(raw.len() + 100, 0);
        raw
    }

    fn same_frames_inputs() -> Vec<Vec<u8>> {
        let mut rng = SplitMix(42);
        let mut inputs: Vec<Vec<u8>> = Vec::new();
        for keyed in [false, true] {
            let bytes = web_sales_bytes(600, keyed, &mut rng);
            inputs.extend(bytes.chunks(8192).map(<[u8]>::to_vec));
            // The same bytes as one large block: the wide-slot pass.
            inputs.push(bytes);
        }
        for len in (0..=12).chain([8191, 8192, 8193, 65_534, 65_535, 65_536, 70_000]) {
            inputs.push(vec![7u8; len]);
            inputs.push(rng.noise(len));
            // Mixed: noise, a repeat of it, a run, text, more noise.
            let mut mixed = Vec::with_capacity(len);
            while mixed.len() < len {
                let piece_len = 1 + rng.below(300) as usize;
                let piece = rng.noise(piece_len);
                mixed.extend_from_slice(&piece);
                mixed.extend_from_slice(&piece[..piece.len() / 2]);
                mixed.resize(mixed.len() + rng.below(400) as usize, rng.below(4) as u8);
                mixed.extend_from_slice(b"the quick brown fox jumps over the lazy dog");
            }
            mixed.truncate(len);
            inputs.push(mixed);
        }
        let marker = 18;
        for distance in [MAX_DISTANCE - 1, MAX_DISTANCE, MAX_DISTANCE + 1] {
            inputs.push(far_apart(distance - marker));
        }
        inputs
    }

    #[test]
    fn frames_are_the_reference_compressors_byte_for_byte() {
        let mut longest = 0;
        let mut farthest = 0;
        let mut lz_frames = 0;
        for raw in same_frames_inputs() {
            let frame = compress_block(&raw);
            assert!(
                frame == reference::compress(&raw),
                "frame differs for an input of {} bytes",
                raw.len()
            );
            assert!(decompress_block(&frame).unwrap() == raw, "{}", raw.len());
            assert!(reference::decompress(&frame).unwrap() == raw);
            for (dist, len) in copy_tokens(&frame) {
                farthest = farthest.max(dist);
                longest = longest.max(len);
            }
            lz_frames += (frame[0] == MODE_LZ) as usize;
        }
        assert!(lz_frames >= 50, "{lz_frames} inputs compressed at all");
        assert_eq!(longest, MAX_MATCH);
        assert_eq!(farthest, MAX_DISTANCE, "and never one byte farther");
    }

    #[test]
    fn hostile_headers_reserve_nothing_and_overlong_streams_stop_early() {
        // 2 GiB claimed by a 2-byte payload.
        let err = decompress_block(&[MODE_LZ, 0xff, 0xff, 0xff, 0x7f, 0x00, b'a']).unwrap_err();
        assert!(err
            .to_string()
            .contains("exceeds what its payload can encode"));
        // 4 bytes claimed, then 1 000 maximal matches: fails on the first.
        let mut frame = vec![MODE_LZ, 4, 0, 0, 0, 0x00, b'a'];
        for _ in 0..1000 {
            frame.extend_from_slice(&[0xff, 1, 0]);
        }
        let err = decompress_block(&frame).unwrap_err();
        assert!(err.to_string().contains("length mismatch"), "{err}");
        // The bound itself is reachable: one literal, then maximal matches.
        let mut frame = vec![MODE_LZ, 0, 0, 0, 0, 0x00, b'a'];
        for _ in 0..10 {
            frame.extend_from_slice(&[0xff, 1, 0]);
        }
        let raw_len = 1 + 10 * MAX_MATCH;
        frame[1..FRAME_HEADER].copy_from_slice(&(raw_len as u32).to_le_bytes());
        assert_eq!(decompress_block(&frame).unwrap(), vec![b'a'; raw_len]);
    }

    #[test]
    fn garbage_frames_never_panic_or_over_allocate() {
        let mut rng = SplitMix(977);
        let valid: Vec<Vec<u8>> = same_frames_inputs()
            .iter()
            .filter(|raw| raw.len() <= 8193)
            .map(|raw| compress_block(raw))
            .collect();
        let mut accepted = 0;
        for round in 0..10_000 {
            let mut frame = match round % 4 {
                0 => {
                    let len = rng.below(200) as usize;
                    let mut f = rng.noise(len);
                    if let Some(mode) = f.first_mut() {
                        *mode %= 3;
                    }
                    f
                }
                _ => valid[rng.below(valid.len() as u64) as usize].clone(),
            };
            match round % 4 {
                1 if !frame.is_empty() => {
                    let at = rng.below(frame.len() as u64) as usize;
                    frame[at] ^= 1 << rng.below(8);
                }
                2 => frame.truncate(rng.below(frame.len() as u64 + 1) as usize),
                3 if frame.len() >= FRAME_HEADER => {
                    let claimed = match rng.below(3) {
                        0 => rng.next() as u32,
                        1 => rng.below(1 << 20) as u32,
                        _ => max_decoded_len(frame.len() - FRAME_HEADER) as u32 + 1,
                    };
                    frame[1..FRAME_HEADER].copy_from_slice(&claimed.to_le_bytes());
                }
                _ => {}
            }
            let decoded = decompress_block(&frame);
            if frame.len() >= FRAME_HEADER {
                // Both decoders accept the same frames and agree on them.
                assert_eq!(
                    decoded.as_ref().ok(),
                    reference::decompress(&frame).as_ref()
                );
            }
            if let Ok(v) = decoded {
                let raw_len = u32::from_le_bytes(frame[1..FRAME_HEADER].try_into().unwrap());
                assert_eq!(v.len(), raw_len as usize);
                assert!(v.capacity() <= max_decoded_len(frame.len() - FRAME_HEADER));
                accepted += 1;
            }
        }
        assert!(accepted > 100, "{accepted} damaged frames still decoded");
    }

    #[test]
    fn corrupt_compressed_frames_error() {
        assert!(decompress_block(&[]).is_err());
        assert!(decompress_block(&[MODE_LZ, 0, 0]).is_err());
        assert!(decompress_block(&[9, 0, 0, 0, 0]).is_err(), "unknown mode");
        // Stored frame whose payload length disagrees with raw_len.
        assert!(decompress_block(&[MODE_RAW, 5, 0, 0, 0, 1, 2]).is_err());
        // Match distance pointing before the start of output.
        let bad = [MODE_LZ, 4, 0, 0, 0, 0x80, 9, 0];
        assert!(decompress_block(&bad).is_err());
        // Token stream that decodes to the wrong length.
        let short = [MODE_LZ, 9, 0, 0, 0, 0x01, b'a', b'b'];
        assert!(decompress_block(&short).is_err());
    }
}
