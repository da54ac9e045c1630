//! A bounds-checked read cursor over a byte span, plus the little-endian
//! primitive and varint codecs both the encoder and decoder share.
//!
//! All multi-byte integers on the wire are **little-endian**; open-ended
//! counts and lengths are **LEB128 varints** (7 data bits per byte, high
//! bit = continuation, at most 10 bytes for a `u64`); floats are the IEEE
//! 754 bit pattern of an `f64` as a little-endian `u64`. Strings are a
//! varint byte length followed by UTF-8 bytes.

use crate::error::WireError;

/// Longest legal LEB128 encoding of a `u64`.
const MAX_VARINT_BYTES: usize = 10;

/// A read position inside a borrowed byte span. Every read is
/// bounds-checked and returns a typed [`WireError`] on overrun — the
/// cursor cannot panic on any input. The default cursor is over no bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes `n` bytes, or reports what was missing.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        let available = self.remaining();
        if n > available {
            return Err(WireError::Truncated {
                context,
                needed: n,
                available,
            });
        }
        let span = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(span)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let span = self.take(2, context)?;
        Ok(u16::from_le_bytes([span[0], span[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let span = self.take(4, context)?;
        Ok(u32::from_le_bytes([span[0], span[1], span[2], span[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let span = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            span[0], span[1], span[2], span[3], span[4], span[5], span[6], span[7],
        ]))
    }

    /// Reads an `f64` stored as the little-endian bits of its IEEE 754
    /// representation — bit-exact round trips, NaN payloads included.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a LEB128 varint.
    pub fn varint(&mut self, context: &'static str) -> Result<u64, WireError> {
        let mut value: u64 = 0;
        for i in 0..MAX_VARINT_BYTES {
            let Some(&byte) = self.buf.get(self.pos + i) else {
                return Err(WireError::BadVarint { context });
            };
            let data = u64::from(byte & 0x7f);
            // The 10th byte may only contribute the final bit of a u64.
            if i == MAX_VARINT_BYTES - 1 && byte > 0x01 {
                return Err(WireError::BadVarint { context });
            }
            value |= data << (7 * i);
            if byte & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(value);
            }
        }
        Err(WireError::BadVarint { context })
    }

    /// Reads a varint and narrows it to a count no larger than the bytes
    /// still available — a cheap structural bound (every record is at
    /// least one byte) that keeps hostile counts from driving huge
    /// allocations downstream.
    pub fn count(&mut self, context: &'static str) -> Result<usize, WireError> {
        let raw = self.varint(context)?;
        let available = self.remaining() as u64;
        if raw > available {
            return Err(WireError::BadVarint { context });
        }
        // `raw <= available <= usize::MAX` on every supported target.
        Ok(raw as usize)
    }

    /// Reads a length-prefixed UTF-8 string as a borrowed span.
    pub fn str(&mut self, context: &'static str) -> Result<&'a str, WireError> {
        let len = self.count(context)?;
        let span = self.take(len, context)?;
        std::str::from_utf8(span).map_err(|_| WireError::BadUtf8 { context })
    }

    /// Skips a length-prefixed string without validating its UTF-8 (used
    /// to delimit records before their string lists are iterated).
    pub fn skip_str(&mut self, context: &'static str) -> Result<(), WireError> {
        let len = self.count(context)?;
        self.take(len, context)?;
        Ok(())
    }

    /// Skips `n` varints by their last bytes alone (a byte under `0x80`
    /// ends a varint), decoding none: how a run of varints is delimited
    /// for a pass that decodes, and so checks, them later.
    pub fn skip_varints(&mut self, n: usize, context: &'static str) -> Result<(), WireError> {
        if n == 0 {
            return Ok(());
        }
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        let mut left = n;
        for (at, &byte) in rest.iter().enumerate() {
            if byte < 0x80 {
                left -= 1;
                if left == 0 {
                    self.pos += at + 1;
                    return Ok(());
                }
            }
        }
        Err(WireError::BadVarint { context })
    }

    /// The span between `mark` (an earlier clone of this cursor) and the
    /// current position.
    pub fn span_since(&self, mark: &Cursor<'a>) -> &'a [u8] {
        &self.buf[mark.pos.min(self.pos)..self.pos]
    }
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, value: u16) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends an `f64` as the little-endian bytes of its bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, value: f64) {
    put_u64(buf, value.to_bits());
}

/// Appends a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends a varint-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, value: &str) {
    put_varint(buf, value.len() as u64);
    buf.extend_from_slice(value.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u16(&mut buf, 0xbeef);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 7);
        put_f64(&mut buf, -0.125);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u16("a").unwrap(), 0xbeef);
        assert_eq!(c.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(c.u64("c").unwrap(), u64::MAX - 7);
        assert_eq!(c.f64("d").unwrap(), -0.125);
        assert!(c.is_empty());
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for value in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.varint("v").unwrap(), value, "value {value}");
            assert!(c.is_empty());
        }
    }

    #[test]
    fn varint_rejects_unterminated_and_overlong() {
        // Continuation bit set on every byte: never terminates.
        let unterminated = [0x80u8; 12];
        assert_eq!(
            Cursor::new(&unterminated).varint("v"),
            Err(WireError::BadVarint { context: "v" })
        );
        // Ten bytes whose tenth contributes more than the final bit.
        let overlong = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert_eq!(
            Cursor::new(&overlong).varint("v"),
            Err(WireError::BadVarint { context: "v" })
        );
        // u64::MAX itself still decodes: tenth byte is exactly 0x01.
        let mut max = Vec::new();
        put_varint(&mut max, u64::MAX);
        assert_eq!(max.len(), 10);
        assert_eq!(Cursor::new(&max).varint("v").unwrap(), u64::MAX);
    }

    #[test]
    fn truncated_reads_report_context_and_sizes() {
        let mut c = Cursor::new(&[1, 2]);
        assert_eq!(
            c.u32("field"),
            Err(WireError::Truncated {
                context: "field",
                needed: 4,
                available: 2
            })
        );
    }

    #[test]
    fn count_is_bounded_by_remaining_bytes() {
        // A count of 1000 with only a handful of bytes behind it is
        // structurally impossible and must be rejected, not allocated.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1000);
        buf.extend_from_slice(&[0; 4]);
        assert_eq!(
            Cursor::new(&buf).count("rows"),
            Err(WireError::BadVarint { context: "rows" })
        );
        let mut ok = Vec::new();
        put_varint(&mut ok, 3);
        ok.extend_from_slice(&[0; 3]);
        assert_eq!(Cursor::new(&ok).count("rows").unwrap(), 3);
    }

    #[test]
    fn strings_round_trip_and_reject_bad_utf8() {
        let mut buf = Vec::new();
        put_str(&mut buf, "très big");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.str("s").unwrap(), "très big");

        let bad = [2u8, 0xff, 0xfe];
        assert_eq!(
            Cursor::new(&bad).str("s"),
            Err(WireError::BadUtf8 { context: "s" })
        );
        // skip_str does not care about UTF-8, only framing.
        assert!(Cursor::new(&bad).skip_str("s").is_ok());
    }

    #[test]
    fn skip_varints_finds_the_last_bytes() {
        let mut buf = Vec::new();
        for value in [0, 127, 128, u64::MAX, 5] {
            put_varint(&mut buf, value);
        }
        let mut cursor = Cursor::new(&buf);
        cursor.skip_varints(0, "none").unwrap();
        cursor.skip_varints(4, "four").unwrap();
        assert_eq!(cursor.remaining(), 1);
        assert_eq!(cursor.varint("last"), Ok(5));
        // Past the end, and a varint with no last byte, are typed errors.
        let mut cursor = Cursor::new(&buf);
        assert_eq!(
            cursor.skip_varints(6, "six"),
            Err(WireError::BadVarint { context: "six" })
        );
        let mut cursor = Cursor::new(&[0x80, 0x80]);
        assert_eq!(
            cursor.skip_varints(1, "open"),
            Err(WireError::BadVarint { context: "open" })
        );
    }

    #[test]
    fn span_since_recovers_the_consumed_range() {
        let buf = [9u8, 8, 7, 6];
        let mut c = Cursor::new(&buf);
        let mark = c;
        c.u8("a").unwrap();
        c.u8("b").unwrap();
        assert_eq!(c.span_since(&mark), &[9, 8]);
        assert_eq!(c.remaining(), 2);
    }
}
