//! Section tags and the canonical section order.

use std::fmt;

/// A four-byte ASCII section tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SectionTag(pub [u8; 4]);

impl fmt::Display for SectionTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.0 {
            if b.is_ascii_graphic() {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        Ok(())
    }
}

/// Snapshot-local property table (deduplicated, sorted).
pub const TAG_PROPERTIES: SectionTag = SectionTag(*b"PROP");
/// Entity types of the knowledge base.
pub const TAG_TYPES: SectionTag = SectionTag(*b"TYPE");
/// Entities of the knowledge base.
pub const TAG_ENTITIES: SectionTag = SectionTag(*b"ENTS");
/// Evidence counters per (entity, property) pair.
pub const TAG_EVIDENCE: SectionTag = SectionTag(*b"EVID");
/// Supporting-document samples per (entity, property) pair.
pub const TAG_PROVENANCE: SectionTag = SectionTag(*b"PROV");
/// Fitted model parameters per (type, property).
pub const TAG_MODELS: SectionTag = SectionTag(*b"MODL");
/// Optional: incremental-mining state (ingested shard ranges, replay
/// queue, configuration digests).
pub const TAG_INCREMENTAL: SectionTag = SectionTag(*b"INCR");
/// Optional: per-(type, property) group fingerprints for dirty-group
/// detection between snapshots.
pub const TAG_FINGERPRINTS: SectionTag = SectionTag(*b"GRPF");

/// Every required section, in the canonical on-disk order. A writer emits
/// exactly these; a reader requires all of them, in this order, and skips
/// unknown tags in between (the forward-compat hook for additive
/// revisions).
pub const CANONICAL_ORDER: [SectionTag; 6] = [
    TAG_PROPERTIES,
    TAG_TYPES,
    TAG_ENTITIES,
    TAG_EVIDENCE,
    TAG_PROVENANCE,
    TAG_MODELS,
];

/// Every section this reader understands, required and optional, in the
/// canonical on-disk order. Optional sections follow the required six;
/// a reader accepts any subset of the optional tail as long as relative
/// order is preserved.
pub const KNOWN_ORDER: [SectionTag; 8] = [
    TAG_PROPERTIES,
    TAG_TYPES,
    TAG_ENTITIES,
    TAG_EVIDENCE,
    TAG_PROVENANCE,
    TAG_MODELS,
    TAG_INCREMENTAL,
    TAG_FINGERPRINTS,
];

/// How many leading entries of [`KNOWN_ORDER`] are required. Positions at
/// or past this index are optional: a decoder skips them without error
/// when absent.
pub const REQUIRED_SECTIONS: usize = 6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_render_as_ascii() {
        assert_eq!(TAG_PROPERTIES.to_string(), "PROP");
        assert_eq!(TAG_MODELS.to_string(), "MODL");
        assert_eq!(
            SectionTag([0x41, 0x00, 0x42, 0xff]).to_string(),
            "A\\x00B\\xff"
        );
    }

    #[test]
    fn canonical_order_is_duplicate_free() {
        for (i, a) in CANONICAL_ORDER.iter().enumerate() {
            for b in &CANONICAL_ORDER[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn known_order_extends_canonical_order() {
        assert_eq!(&KNOWN_ORDER[..REQUIRED_SECTIONS], &CANONICAL_ORDER[..]);
        for (i, a) in KNOWN_ORDER.iter().enumerate() {
            for b in &KNOWN_ORDER[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(KNOWN_ORDER[REQUIRED_SECTIONS], TAG_INCREMENTAL);
        assert_eq!(KNOWN_ORDER[REQUIRED_SECTIONS + 1], TAG_FINGERPRINTS);
    }
}
