//! A minimal growable byte buffer with little-endian append helpers and
//! front consumption — the subset of the `bytes` crate the spill codec
//! needs, kept in-tree so the workspace builds without external
//! dependencies.

/// Append-at-back, consume-at-front byte buffer.
///
/// The spill writer appends encoded rows and splits whole blocks off the
/// front; the reader appends device blocks and consumes decoded rows off the
/// front. Both patterns touch at most a block or a row at a time, so the
/// `Vec::drain`-based front consumption is not a hot spot.
#[derive(Debug, Default, Clone)]
pub struct ByteBuf {
    data: Vec<u8>,
}

impl ByteBuf {
    /// Empty buffer.
    pub fn new() -> Self {
        ByteBuf::default()
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteBuf {
            data: Vec::with_capacity(cap),
        }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Bytes allocated, buffered or not.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Make room for exactly `additional` more bytes (see
    /// [`Vec::reserve_exact`]).
    pub fn reserve_exact(&mut self, additional: usize) {
        self.data.reserve_exact(additional);
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Drop all contents.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// The buffered bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Append a `u16` little-endian.
    pub fn put_u16_le(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` little-endian.
    pub fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64` little-endian.
    pub fn put_i64_le(&mut self, v: i64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` little-endian.
    pub fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes.
    pub fn put_slice(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Alias of [`Self::put_slice`] matching `Vec` naming.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Remove and return the first `n` bytes (must be available).
    pub fn split_to(&mut self, n: usize) -> Vec<u8> {
        assert!(n <= self.data.len(), "split_to past end");
        let tail = self.data.split_off(n);
        std::mem::replace(&mut self.data, tail)
    }

    /// Discard the first `n` bytes (must be available).
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.data.len(), "advance past end");
        self.data.drain(..n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_and_split_round_trip() {
        let mut b = ByteBuf::with_capacity(16);
        b.put_u8(7);
        b.put_u16_le(0x0102);
        b.put_u32_le(0x03040506);
        b.put_i64_le(-1);
        b.put_u64_le(u64::MAX);
        b.put_slice(b"xy");
        assert_eq!(b.len(), 1 + 2 + 4 + 8 + 8 + 2);
        let head = b.split_to(3);
        assert_eq!(head, vec![7, 0x02, 0x01]);
        assert_eq!(b.len(), 22);
        b.advance(4);
        assert_eq!(b.len(), 18);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn split_to_keeps_remainder_in_order() {
        let mut b = ByteBuf::new();
        b.put_slice(&[1, 2, 3, 4, 5]);
        let front = b.split_to(2);
        assert_eq!(front, vec![1, 2]);
        assert_eq!(b.as_slice(), &[3, 4, 5]);
    }
}
