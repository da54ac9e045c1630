//! Typed decode failures. Every way arbitrary bytes can fail to be a
//! snapshot maps to exactly one variant here — the decoder never panics.

use crate::section::SectionTag;
use std::fmt;

/// Why a byte buffer is not a valid snapshot.
///
/// The variants partition the failure space: framing problems
/// ([`BadMagic`](Self::BadMagic) through
/// [`TrailingBytes`](Self::TrailingBytes)) are detected while walking the
/// container, payload problems ([`BadVarint`](Self::BadVarint) through
/// [`BadRecord`](Self::BadRecord)) while parsing records inside a
/// CRC-verified section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The first eight bytes are not the `SURVWIRE` magic.
    BadMagic {
        /// What the buffer held instead (zero-padded if shorter).
        found: [u8; 8],
    },
    /// The header names a format version this decoder does not speak.
    UnsupportedVersion {
        /// The version the header carries.
        found: u16,
    },
    /// The buffer ended before a fixed-size field or a length-prefixed
    /// span was complete — a short section, a cut-off header, or a string
    /// whose length prefix overruns its section.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A section's payload does not hash to the CRC-32 its frame carries.
    CrcMismatch {
        /// The section whose payload is damaged.
        tag: SectionTag,
        /// The checksum stored in the frame.
        stored: u32,
        /// The checksum computed over the payload.
        computed: u32,
    },
    /// The same known section appears twice.
    DuplicateSection {
        /// The repeated tag.
        tag: SectionTag,
    },
    /// A required section is absent.
    MissingSection {
        /// The missing tag.
        tag: SectionTag,
    },
    /// Known sections appear out of their canonical order.
    OutOfOrderSection {
        /// The tag that arrived early.
        tag: SectionTag,
    },
    /// Bytes remain after the last section frame the header announced.
    TrailingBytes {
        /// How many bytes are left over.
        count: usize,
    },
    /// A varint ran past its 10-byte maximum or past the buffer.
    BadVarint {
        /// What the varint was encoding.
        context: &'static str,
    },
    /// A string field is not valid UTF-8.
    BadUtf8 {
        /// Which field failed to decode.
        context: &'static str,
    },
    /// A record inside a structurally sound section is semantically
    /// malformed (an impossible count, an unknown enum code, a dangling
    /// table index).
    BadRecord {
        /// The section holding the record.
        section: SectionTag,
        /// What is wrong with it.
        detail: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic { found } => {
                write!(f, "bad magic: expected `SURVWIRE`, found {found:?}")
            }
            Self::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this decoder speaks version {})",
                crate::FORMAT_VERSION
            ),
            Self::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated snapshot: {context} needs {needed} bytes, {available} available"
            ),
            Self::CrcMismatch {
                tag,
                stored,
                computed,
            } => write!(
                f,
                "CRC mismatch in section {tag}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::DuplicateSection { tag } => write!(f, "duplicate section {tag}"),
            Self::MissingSection { tag } => write!(f, "missing required section {tag}"),
            Self::OutOfOrderSection { tag } => {
                write!(f, "section {tag} out of canonical order")
            }
            Self::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after the last section")
            }
            Self::BadVarint { context } => write!(f, "malformed varint while reading {context}"),
            Self::BadUtf8 { context } => write!(f, "invalid UTF-8 in {context}"),
            Self::BadRecord { section, detail } => {
                write!(f, "malformed record in section {section}: {detail}")
            }
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::section::TAG_ROWS;

    #[test]
    fn display_names_the_failure() {
        let cases: Vec<(WireError, &str)> = vec![
            (WireError::BadMagic { found: [0; 8] }, "bad magic"),
            (
                WireError::UnsupportedVersion { found: 9 },
                "unsupported snapshot version 9",
            ),
            (
                WireError::Truncated {
                    context: "section frame",
                    needed: 16,
                    available: 3,
                },
                "needs 16 bytes, 3 available",
            ),
            (
                WireError::CrcMismatch {
                    tag: TAG_ROWS,
                    stored: 1,
                    computed: 2,
                },
                "CRC mismatch in section ROWS",
            ),
            (
                WireError::DuplicateSection { tag: TAG_ROWS },
                "duplicate section ROWS",
            ),
            (
                WireError::MissingSection { tag: TAG_ROWS },
                "missing required section ROWS",
            ),
            (
                WireError::OutOfOrderSection { tag: TAG_ROWS },
                "out of canonical order",
            ),
            (WireError::TrailingBytes { count: 5 }, "5 trailing bytes"),
            (
                WireError::BadVarint { context: "count" },
                "malformed varint",
            ),
            (WireError::BadUtf8 { context: "name" }, "invalid UTF-8"),
            (
                WireError::BadRecord {
                    section: TAG_ROWS,
                    detail: "count exceeds payload",
                },
                "malformed record in section ROWS",
            ),
        ];
        for (error, needle) in cases {
            let text = error.to_string();
            assert!(text.contains(needle), "{text:?} misses {needle:?}");
        }
    }
}
