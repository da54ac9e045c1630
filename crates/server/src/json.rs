//! The reply bodies' JSON, written straight into bytes.
//!
//! Every body the server sends is one object printed the way
//! `serde_json::to_string_pretty` prints a `Value` tree: two-space
//! indents, `"key": value`, an empty object or array as `{}` or `[]`,
//! strings escaped as JSON requires (`\"`, `\\`, `\n`, `\r`, `\t`, `\b`,
//! `\f`, the other control characters as `\u00XX`), integral floats below
//! 1e16 with a `.0`, every other finite float in Rust's shortest
//! round-trip form and a non-finite one as `null`. A tree's keys come out
//! in ascending order (its map is a `BTreeMap`); here the caller writes
//! them in that order. The tests of [`crate::routes`] compare every body
//! shape the server sends with the tree's text, on adversarial strings
//! and floats.

use std::fmt::{self, Display, Write as _};
use std::io::Write as _;

/// A JSON writer over a byte buffer: open a container, write its
/// members, close it. One flag is its whole state beyond the depth: a
/// member opens its parent, so once a nested container closes, every
/// container around it has a member.
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut Vec<u8>,
    depth: usize,
    /// Whether the innermost open container has no member yet.
    empty: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Self {
            out,
            depth: 0,
            empty: true,
        }
    }

    /// Writes an object whose members `members` writes.
    pub fn object(&mut self, members: impl FnOnce(&mut Self)) {
        self.open(b'{');
        members(self);
        self.close(b'}');
    }

    /// Writes an array whose elements `elements` writes, each after
    /// [`element`](Self::element).
    pub fn array(&mut self, elements: impl FnOnce(&mut Self)) {
        self.open(b'[');
        elements(self);
        self.close(b']');
    }

    /// Begins the next member of the innermost object: its key. The
    /// value written next is the member's.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.member();
        self.str(key);
        self.out.extend_from_slice(b": ");
        self
    }

    /// Begins the next element of the innermost array.
    pub fn element(&mut self) -> &mut Self {
        self.member();
        self
    }

    /// A string value.
    pub fn str(&mut self, value: &str) {
        self.out.push(b'"');
        escape_into(self.out, value);
        self.out.push(b'"');
    }

    /// A string value: `value` as `Display` writes it.
    pub fn display(&mut self, value: impl Display) {
        self.out.push(b'"');
        // Writing into a `Vec` cannot fail, and neither can a `Display`
        // of the server's own types.
        let _ = write!(Escaped(self.out), "{value}");
        self.out.push(b'"');
    }

    /// An unsigned integer value.
    pub fn u64(&mut self, value: u64) {
        let _ = write!(self.out, "{value}");
    }

    /// A float value.
    pub fn f64(&mut self, value: f64) {
        if !value.is_finite() {
            self.out.extend_from_slice(b"null");
        } else if value.fract() == 0.0 && value.abs() < 1e16 {
            let _ = write!(self.out, "{value:.1}");
        } else {
            let _ = write!(self.out, "{value}");
        }
    }

    /// A boolean value.
    pub fn bool(&mut self, value: bool) {
        let text: &[u8] = if value { b"true" } else { b"false" };
        self.out.extend_from_slice(text);
    }

    fn open(&mut self, bracket: u8) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: u8) {
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.out.push(bracket);
        self.empty = false;
    }

    fn member(&mut self) {
        if !self.empty {
            self.out.push(b',');
        }
        self.empty = false;
        self.newline();
    }

    fn newline(&mut self) {
        self.out.push(b'\n');
        self.out.resize(self.out.len() + 2 * self.depth, b' ');
    }
}

/// Appends `text` to `out` escaped for a JSON string. Runs of bytes that
/// need no escape are copied whole; every byte of a multi-byte character
/// is ≥ 0x80 and so is one of them.
fn escape_into(out: &mut Vec<u8>, text: &str) {
    let bytes = text.as_bytes();
    let mut start = 0;
    for (at, &byte) in bytes.iter().enumerate() {
        let escape: &[u8] = match byte {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[start..at]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.extend_from_slice(escape);
        }
        start = at + 1;
    }
    out.extend_from_slice(&bytes[start..]);
}

/// A `fmt::Write` that escapes what it is given into a JSON string.
struct Escaped<'a>(&'a mut Vec<u8>);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        escape_into(self.0, text);
        Ok(())
    }
}
