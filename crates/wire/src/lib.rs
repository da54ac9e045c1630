//! `surveyor-wire` — the versioned binary snapshot format for mined
//! Surveyor worlds.
//!
//! A snapshot captures everything the pipeline mined — the knowledge
//! base, the evidence counters, the provenance samples and the fitted
//! per-(type, property) models — in one self-describing byte buffer that
//! can be written to disk and loaded back without re-mining. The decided
//! pairs are not stored: each is a function of its model row and its
//! entity's evidence counts, and loaders derive them. The format is fully specified in `FORMAT.md`
//! at the repository root; this crate is its reference implementation
//! and has **zero dependencies**.
//!
//! # Shape of the format
//!
//! A snapshot is a 16-byte header (the [`MAGIC`] `SURVWIRE`, a
//! little-endian [`FORMAT_VERSION`], a reserved word, and a section
//! count) followed by framed sections. Each frame carries a four-byte
//! tag, a payload length, and a CRC-32 of the payload, so damage is
//! detected before any record is parsed. Writers emit six required
//! sections in [`CANONICAL_ORDER`], optionally followed by the
//! incremental-mining sections `INCR` and `GRPF`; readers skip unknown
//! tags, which is the forward-compatibility hook for additive revisions.
//!
//! Inside a payload, integers are little-endian, open-ended counts are
//! LEB128 varints, floats are IEEE 754 bit patterns (bit-exact round
//! trips), and strings are length-prefixed UTF-8. Property references
//! are indexes into the snapshot's own sorted property table — never
//! process-local interner ids, which depend on thread interleaving.
//!
//! # Encoding and decoding
//!
//! ```
//! use surveyor_wire::{decode, encode, Snapshot, SnapshotProperty, SnapshotReader};
//!
//! let mut snapshot = Snapshot::default();
//! snapshot.properties.push(SnapshotProperty {
//!     adverbs: vec!["very".to_string()],
//!     adjective: "big".to_string(),
//! });
//!
//! let bytes = encode(&snapshot);
//! assert_eq!(&bytes[..8], b"SURVWIRE");
//!
//! // One-call decode materializes the owned form...
//! assert_eq!(decode(&bytes).unwrap(), snapshot);
//!
//! // ...while the reader streams records without per-record allocation.
//! let reader = SnapshotReader::new(&bytes).unwrap();
//! let property = reader.properties().next().unwrap().unwrap();
//! assert_eq!(property.adjective, "big"); // borrowed from `bytes`
//! ```
//!
//! Encoding is deterministic: equal snapshots produce identical bytes,
//! which is what makes `mine → save → load` verifiable by byte
//! comparison downstream. [`encode`] is [`write_snapshot`] fed from an owned
//! [`Snapshot`]; a producer that holds its world in other shapes
//! implements [`SnapshotSource`] and writes the same bytes without
//! building one.
//!
//! # Hostile input
//!
//! The decoder never panics. Every malformed buffer maps to a typed
//! [`WireError`]:
//!
//! ```
//! use surveyor_wire::{SnapshotReader, WireError};
//!
//! let err = SnapshotReader::new(b"not a snapshot").map(|_| ()).unwrap_err();
//! assert!(matches!(err, WireError::BadMagic { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc32;
mod cursor;
mod decode;
mod diff;
mod encode;
mod error;
mod section;
mod snapshot;

pub use decode::{
    decode, AttrList, EntityRecord, List, ListItem, PropertyRecord, ProvenanceRecord, Records,
    SectionRecord, SnapshotReader, StrList, TypeRecord, U64List,
};
pub use diff::{diff_snapshots, SectionDelta, SnapshotDiff};
pub use encode::{encode, write_snapshot, Fingerprints, SnapshotSource};
pub use error::WireError;
pub use section::{
    SectionTag, CANONICAL_ORDER, KNOWN_ORDER, REQUIRED_SECTIONS, TAG_ENTITIES, TAG_EVIDENCE,
    TAG_FINGERPRINTS, TAG_INCREMENTAL, TAG_MODELS, TAG_PROPERTIES, TAG_PROVENANCE, TAG_TYPES,
};
pub use snapshot::{
    group_fingerprints, EvidenceRow, Fnv64, GroupFingerprintRow, GroupFingerprinter,
    IncrementalState, ModelRow, ProvenanceRow, Snapshot, SnapshotEntity, SnapshotProperty,
    SnapshotType,
};

/// The eight magic bytes every snapshot starts with.
pub const MAGIC: [u8; 8] = *b"SURVWIRE";

/// The format version this crate reads and writes. Version 1 also stored
/// every entity's decision and each model's EM traces; it is refused.
pub const FORMAT_VERSION: u16 = 2;
