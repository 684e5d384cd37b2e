//! Little-endian byte codec and CRC-32, shared by the snapshot container
//! and the section payload encoders that live in higher crates.
//!
//! The writer is infallible (it grows a `Vec<u8>`); the reader is fully
//! bounds-checked and returns a typed [`CodecError`] instead of panicking,
//! so corrupt payloads surface as recoverable errors.

// Decodes on-disk bytes at serve boot: failures must flow through typed
// errors, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;

/// A decode failure: truncated input, a bad tag byte, or invalid UTF-8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decode operations.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

/// Appends fixed-width little-endian primitives to a growable buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Has nothing been written?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes (no length prefix).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Reads fixed-width little-endian primitives from a byte slice, fully
/// bounds-checked.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has the whole input been consumed?
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "need {n} bytes at offset {}, only {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> CodecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> CodecResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> CodecResult<i64> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting overflow.
    pub fn get_usize(&mut self) -> CodecResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError(format!("length {v} exceeds usize")))
    }

    /// Reads a one-byte `bool`, rejecting values other than 0/1.
    pub fn get_bool(&mut self) -> CodecResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CodecError(format!("bad bool byte {v}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> CodecResult<String> {
        let n = self.get_usize()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|e| CodecError(format!("invalid UTF-8: {e}")))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        self.take(n)
    }
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_usize(99);
        w.put_bool(true);
        w.put_str("héllo\nworld");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_usize().unwrap(), 99);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "héllo\nworld");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(r.get_u64().is_err());
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 3);
        let mut w = ByteWriter::new();
        w.put_str("abc");
        let mut bytes = w.into_bytes();
        bytes.truncate(9); // length prefix says 3, only 1 byte present
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn bad_bool_is_rejected() {
        let mut r = ByteReader::new(&[9]);
        assert!(r.get_bool().is_err());
    }
}
