//! Minimal binary encoding primitives.
//!
//! All integers are little-endian. Variable-length collections are prefixed
//! with a `u32` length that readers bound-check against the remaining input,
//! so malformed datagrams produce [`WireError`]s instead of panics or huge
//! allocations.

use std::error::Error;
use std::fmt;

/// Error decoding a wire value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// Bytes needed to continue decoding.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A length prefix exceeded the bytes remaining in the input.
    LengthOverrun {
        /// Declared length.
        declared: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// Context for the failing decode (e.g. type name).
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Trailing bytes remained after a complete decode where none were
    /// expected.
    TrailingBytes {
        /// Number of leftover bytes.
        count: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remaining"
                )
            }
            WireError::LengthOverrun {
                declared,
                remaining,
            } => {
                write!(
                    f,
                    "declared length {declared} exceeds remaining input {remaining}"
                )
            }
            WireError::BadTag { what, tag } => write!(f, "invalid tag {tag:#04x} for {what}"),
            WireError::BadUtf8 => write!(f, "string field was not valid utf-8"),
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after complete value")
            }
        }
    }
}

impl Error for WireError {}

/// Append-only binary writer.
///
/// ```
/// use mocha_wire::io::{ByteWriter, ByteReader};
///
/// let mut w = ByteWriter::new();
/// w.put_u32(7);
/// w.put_str("hello");
/// let bytes = w.into_bytes();
///
/// let mut r = ByteReader::new(&bytes);
/// assert_eq!(r.get_u32().unwrap(), 7);
/// assert_eq!(r.get_string().unwrap(), "hello");
/// r.finish().unwrap();
/// ```
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Creates a writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Creates a writer that appends to `buf`, keeping its contents and
    /// capacity — for callers that encode into a buffer they reuse.
    pub fn appending_to(buf: Vec<u8>) -> ByteWriter {
        ByteWriter { buf }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(u32::try_from(v.len()).expect("byte slice longer than u32::MAX"));
        self.put_raw(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Bounds-checked binary reader over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if the input is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool encoded as one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadTag`] for values other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than 2 bytes remain.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i32`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than 4 bytes remain.
    pub fn get_i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32` length prefix, validates it against the remaining
    /// input, and returns that many bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::LengthOverrun`] if the prefix exceeds the
    /// remaining input — the defence against adversarial or corrupt length
    /// fields triggering huge allocations.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::LengthOverrun {
                declared: len,
                remaining: self.remaining(),
            });
        }
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadUtf8`] if the bytes are not valid UTF-8, or a
    /// length error as for [`get_bytes`](Self::get_bytes).
    pub fn get_string(&mut self) -> Result<String, WireError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Reads all remaining bytes.
    pub fn get_rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Asserts the input is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TrailingBytes`] if input remains.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                count: self.remaining(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_i32(-42);
        w.put_i64(-1_000_000_000_000);
        w.put_f64(3.5);
        w.put_bytes(b"abc");
        w.put_str("héllo");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_i32().unwrap(), -42);
        assert_eq!(r.get_i64().unwrap(), -1_000_000_000_000);
        assert_eq!(r.get_f64().unwrap().to_bits(), 3.5f64.to_bits());
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_string().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn eof_is_an_error_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(
            r.get_u32(),
            Err(WireError::UnexpectedEof {
                needed: 4,
                remaining: 2
            })
        ));
    }

    #[test]
    fn length_overrun_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(1_000_000); // declared length far beyond actual content
        w.put_raw(b"xy");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_bytes(),
            Err(WireError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn bad_bool_tag_is_rejected() {
        let mut r = ByteReader::new(&[7]);
        assert!(matches!(
            r.get_bool(),
            Err(WireError::BadTag {
                what: "bool",
                tag: 7
            })
        ));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_string(), Err(WireError::BadUtf8));
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { count: 3 }));
    }

    #[test]
    fn get_rest_consumes_everything() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_rest(), &[2, 3]);
        assert!(r.is_empty());
        r.finish().unwrap();
    }

    #[test]
    fn errors_display_meaningfully() {
        let e = WireError::UnexpectedEof {
            needed: 4,
            remaining: 1,
        };
        assert!(e.to_string().contains("unexpected end"));
        let e = WireError::BadTag {
            what: "Msg",
            tag: 0x99,
        };
        assert!(e.to_string().contains("Msg"));
    }
}
