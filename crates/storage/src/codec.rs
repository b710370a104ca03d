//! Row serialization for spill files.
//!
//! Format (little-endian):
//!
//! ```text
//! row   := arity:u16 value*
//! value := 0x00                      -- NULL
//!        | 0x01 i64                  -- Int
//!        | 0x02 f64-bits             -- Float
//!        | 0x03 len:u32 utf8-bytes   -- Str
//! ```
//!
//! [`wf_common::Value::encoded_len`] mirrors these sizes so block accounting
//! can be computed without serializing.
//!
//! Decoding reads from a `&mut &[u8]` cursor: on success the slice is
//! advanced past the row; on error the cursor state is unspecified and the
//! caller should treat the buffer as truncated.

use crate::bytebuf::ByteBuf;
use wf_common::{Error, Result, Row, Value};

const TAG_NULL: u8 = 0x00;
const TAG_INT: u8 = 0x01;
const TAG_FLOAT: u8 = 0x02;
const TAG_STR: u8 = 0x03;

/// Append the encoding of `row` to `buf`.
pub fn encode_row(row: &Row, buf: &mut ByteBuf) {
    buf.put_u16_le(row.arity() as u16);
    for v in row.values() {
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

fn take<'a>(cursor: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8]> {
    if cursor.len() < n {
        return Err(corrupt(&format!("truncated {what}")));
    }
    let (head, tail) = cursor.split_at(n);
    *cursor = tail;
    Ok(head)
}

/// Decode one row from the front of `cursor`, advancing it. Returns an error
/// on truncated or corrupt input.
pub fn decode_row(cursor: &mut &[u8]) -> Result<Row> {
    let arity_bytes = take(cursor, 2, "arity")?;
    let arity = u16::from_le_bytes([arity_bytes[0], arity_bytes[1]]) as usize;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        let tag = take(cursor, 1, "value tag")?[0];
        let v = match tag {
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
                    .map_err(|_| corrupt("invalid utf-8 in string value"))?;
                Value::str(s.to_string())
            }
            other => return Err(corrupt(&format!("unknown value tag {other:#x}"))),
        };
        values.push(v);
    }
    Ok(Row::new(values))
}

fn corrupt(msg: &str) -> Error {
    Error::Execution(format!("spill codec: {msg}"))
}

/// Sentinel key length marking a keyless entry.
const NO_KEY: u16 = u16::MAX;

/// Append a key-carrying entry: `klen:u16 key-bytes row`. `klen = 0xFFFF`
/// marks a keyless entry (the row failed normalized-key encoding and the
/// reader must fall back to the comparator). Key bytes are the normalized
/// byte-comparable sort key; persisting them alongside the row lets run
/// read-back reuse the key instead of re-encoding it.
pub fn encode_keyed_row(key: Option<&[u8]>, row: &Row, buf: &mut ByteBuf) {
    match key {
        Some(k) => {
            assert!(
                k.len() < NO_KEY as usize,
                "normalized key longer than u16 framing"
            );
            buf.put_u16_le(k.len() as u16);
            buf.put_slice(k);
        }
        None => buf.put_u16_le(NO_KEY),
    }
    encode_row(row, buf);
}

/// Decode one key-carrying entry from the front of `cursor`, advancing it.
pub fn decode_keyed_row(cursor: &mut &[u8]) -> Result<(Option<Vec<u8>>, Row)> {
    let klen_bytes = take(cursor, 2, "key length")?;
    let klen = u16::from_le_bytes([klen_bytes[0], klen_bytes[1]]);
    let key = if klen == NO_KEY {
        None
    } else {
        Some(take(cursor, klen as usize, "key bytes")?.to_vec())
    };
    let row = decode_row(cursor)?;
    Ok((key, row))
}

/// Bytes the keyed framing adds on top of [`Row::encoded_len`].
pub fn keyed_overhead(key: Option<&[u8]>) -> usize {
    2 + key.map_or(0, <[u8]>::len)
}

// ---------------------------------------------------------------------------
// Block compression (zero-dependency LZSS-style codec)
// ---------------------------------------------------------------------------
//
// Spill blocks are highly self-similar — repeated arity headers, value tags,
// and key prefixes — so a tiny greedy LZ with a single-probe hash table
// recovers most of the easy redundancy without pulling in a dependency.
//
// Framing: `mode:u8 raw_len:u32le payload`.
//   mode 0 → payload is the raw block verbatim (compression didn't help);
//   mode 1 → payload is an LZ token stream:
//     token := 1lllllll dist:u16le   -- copy (l + MIN_MATCH) bytes from
//                                       `dist` bytes back (dist ≥ 1)
//            | 0lllllll byte{l+1}    -- run of l+1 literal bytes
//
// Every compressed block decodes to exactly `raw_len` bytes; anything else
// is a corruption error.

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

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

fn flush_literals(src: &[u8], start: usize, end: usize, out: &mut Vec<u8>) {
    let mut at = start;
    while at < end {
        let run = (end - at).min(MAX_LITERAL_RUN);
        out.push((run - 1) as u8);
        out.extend_from_slice(&src[at..at + run]);
        at += run;
    }
}

/// Compress one spill block. Always produces a valid frame: if the LZ pass
/// doesn't beat storing the block raw, the raw frame is emitted instead.
pub fn compress_block(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 2 + 16);
    out.push(MODE_LZ);
    out.extend_from_slice(&(raw.len() as u32).to_le_bytes());

    let mut table = [usize::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut literal_start = 0usize;
    while i + MIN_MATCH <= raw.len() {
        let h = hash4(raw, i);
        let candidate = table[h];
        table[h] = i;
        let matched = candidate != usize::MAX
            && i - candidate <= MAX_DISTANCE
            && raw[candidate..candidate + MIN_MATCH] == raw[i..i + MIN_MATCH];
        if matched {
            let mut len = MIN_MATCH;
            let limit = (raw.len() - i).min(MAX_MATCH);
            while len < limit && raw[candidate + len] == raw[i + len] {
                len += 1;
            }
            flush_literals(raw, literal_start, i, &mut out);
            out.push(0x80 | (len - MIN_MATCH) as u8);
            out.extend_from_slice(&((i - candidate) as u16).to_le_bytes());
            i += len;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(raw, literal_start, raw.len(), &mut out);

    if out.len() < FRAME_HEADER + raw.len() {
        out
    } else {
        let mut stored = Vec::with_capacity(FRAME_HEADER + raw.len());
        stored.push(MODE_RAW);
        stored.extend_from_slice(&(raw.len() as u32).to_le_bytes());
        stored.extend_from_slice(raw);
        stored
    }
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
        MODE_LZ => {
            let mut out = Vec::with_capacity(raw_len);
            let mut cursor = payload;
            while !cursor.is_empty() {
                let tok = take(&mut cursor, 1, "compression token")?[0];
                if tok & 0x80 != 0 {
                    let len = (tok & 0x7f) as usize + MIN_MATCH;
                    let d = take(&mut cursor, 2, "match distance")?;
                    let dist = u16::from_le_bytes([d[0], d[1]]) as usize;
                    if dist == 0 || dist > out.len() {
                        return Err(corrupt("match distance out of range"));
                    }
                    // Byte-at-a-time: a distance shorter than the match
                    // length means the copy overlaps its own output (RLE).
                    let start = out.len() - dist;
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                } else {
                    let run = (tok & 0x7f) as usize + 1;
                    out.extend_from_slice(take(&mut cursor, run, "literal run")?);
                }
            }
            if out.len() != raw_len {
                return Err(corrupt("decompressed length mismatch"));
            }
            Ok(out)
        }
        other => Err(corrupt(&format!("unknown compression mode {other:#x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        }
    }

    #[test]
    fn keyed_entries_round_trip() {
        let mut buf = ByteBuf::new();
        let r1 = row![1, "x"];
        let r2 = row![2.5f64, Value::Null];
        encode_keyed_row(Some(&[0x01, 0xFF, 0x00]), &r1, &mut buf);
        encode_keyed_row(None, &r2, &mut buf);
        encode_keyed_row(Some(&[]), &r1, &mut buf);
        let mut cursor = buf.as_slice();
        let (k1, back1) = decode_keyed_row(&mut cursor).unwrap();
        assert_eq!(k1.as_deref(), Some(&[0x01, 0xFF, 0x00][..]));
        assert_eq!(back1, r1);
        let (k2, back2) = decode_keyed_row(&mut cursor).unwrap();
        assert_eq!(k2, None);
        assert_eq!(back2, r2);
        let (k3, back3) = decode_keyed_row(&mut cursor).unwrap();
        assert_eq!(k3.as_deref(), Some(&[][..]));
        assert_eq!(back3, r1);
        assert!(cursor.is_empty());
    }

    #[test]
    fn keyed_overhead_matches_encoding() {
        for key in [None, Some(&[1u8, 2, 3][..]), Some(&[][..])] {
            let mut buf = ByteBuf::new();
            let r = row![7, "abc"];
            encode_keyed_row(key, &r, &mut buf);
            assert_eq!(buf.len(), keyed_overhead(key) + r.encoded_len());
        }
    }

    #[test]
    fn truncated_keyed_entry_errors() {
        let mut buf = ByteBuf::new();
        encode_keyed_row(Some(&[9u8; 8]), &row![1], &mut buf);
        let full = buf.as_slice();
        for cut in [1, 5, full.len() - 1] {
            let mut short = &full[..full.len() - cut];
            assert!(decode_keyed_row(&mut short).is_err());
        }
    }

    #[test]
    fn unknown_tag_errors() {
        let mut buf = ByteBuf::new();
        buf.put_u16_le(1);
        buf.put_u8(0x7f);
        let mut cursor = buf.as_slice();
        assert!(decode_row(&mut cursor).is_err());
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
        // A SplitMix64 byte stream has no 4-byte repeats to speak of.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut raw = Vec::with_capacity(4096);
        while raw.len() < 4096 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            raw.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        let frame = compress_block(&raw);
        assert_eq!(frame[0], MODE_RAW);
        assert_eq!(frame.len(), raw.len() + 5);
        assert_eq!(decompress_block(&frame).unwrap(), raw);
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
