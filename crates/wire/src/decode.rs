//! The zero-copy snapshot decoder.
//!
//! [`SnapshotReader::new`] verifies the container in one pass — magic,
//! version, section framing, checksums, canonical order — and stores one
//! borrowed byte span per section. Record access after that is lazy:
//! each section's [`Records`] iterator ([`SnapshotReader::evidence`] and
//! friends) parses records straight out of the snapshot bytes and hands
//! out borrowed `&str` spans and sub-iterators instead of allocating per
//! record. Every read is bounds-checked; no input can make the decoder
//! panic.

use crate::crc32::crc32;
use crate::cursor::Cursor;
use crate::error::WireError;
use crate::section::{
    SectionTag, CANONICAL_ORDER, KNOWN_ORDER, REQUIRED_SECTIONS, TAG_ENTITIES, TAG_EVIDENCE,
    TAG_FINGERPRINTS, TAG_INCREMENTAL, TAG_MODELS, TAG_PROPERTIES, TAG_PROVENANCE, TAG_TYPES,
};
use crate::snapshot::{
    EvidenceRow, GroupFingerprintRow, IncrementalState, ModelRow, ProvenanceRow, Snapshot,
    SnapshotEntity, SnapshotProperty, SnapshotType,
};
use crate::{FORMAT_VERSION, MAGIC};
use std::fmt::Debug;
use std::marker::PhantomData;

/// Positions of the known sections inside [`KNOWN_ORDER`].
const SEC_PROPERTIES: usize = 0;
const SEC_TYPES: usize = 1;
const SEC_ENTITIES: usize = 2;
const SEC_EVIDENCE: usize = 3;
const SEC_PROVENANCE: usize = 4;
const SEC_MODELS: usize = 5;
const SEC_INCREMENTAL: usize = 6;
const SEC_FINGERPRINTS: usize = 7;

/// Decodes a snapshot buffer into its owned form in one call.
///
/// Shorthand for [`SnapshotReader::new`] followed by
/// [`SnapshotReader::to_snapshot`]; use the reader directly to stream
/// records without materializing the whole world.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, WireError> {
    SnapshotReader::new(bytes)?.to_snapshot()
}

/// A validated, zero-copy view over an encoded snapshot.
///
/// Construction walks the container once (header, frames, CRCs); record
/// payloads are only parsed when the corresponding iterator is consumed.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotReader<'a> {
    version: u16,
    /// Every section frame, in file order: what
    /// [`section_sizes`](Self::section_sizes) walks again.
    frames: &'a [u8],
    /// Per-section record bytes (payload minus its leading counts),
    /// indexed like [`KNOWN_ORDER`]. The `INCR` slot is unused (its
    /// payload is not count-prefixed; see `incr_body`).
    bodies: [&'a [u8]; 8],
    /// Per-section record counts, already bounded by the payload size.
    counts: [usize; 8],
    provenance_sample_size: u64,
    /// Raw payload of the optional `INCR` section, parsed on demand by
    /// [`SnapshotReader::incremental`].
    incr_body: Option<&'a [u8]>,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the container and returns a reader over it.
    pub fn new(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut magic = [0u8; 8];
        for (slot, &byte) in magic.iter_mut().zip(bytes.iter()) {
            *slot = byte;
        }
        if bytes.len() < MAGIC.len() || magic != MAGIC {
            return Err(WireError::BadMagic { found: magic });
        }
        let mut cursor = Cursor::new(bytes);
        cursor.take(MAGIC.len(), "magic")?;
        let version = cursor.u16("header version")?;
        if version != FORMAT_VERSION {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        cursor.u16("header reserved")?; // writers write 0; readers ignore
        let section_count = cursor.u32("header section count")?;
        let header_end = cursor;

        let mut bodies: [&'a [u8]; 8] = [&[]; 8];
        let mut counts = [0usize; 8];
        let mut provenance_sample_size = 0u64;
        let mut incr_body: Option<&'a [u8]> = None;
        let mut seen = [false; 8];
        let mut next_expected = 0usize;
        for _ in 0..section_count {
            let tag_bytes = cursor.take(4, "section tag")?;
            let tag = SectionTag([tag_bytes[0], tag_bytes[1], tag_bytes[2], tag_bytes[3]]);
            let payload_len = cursor.u64("section length")?;
            let stored = cursor.u32("section checksum")?;
            let available = cursor.remaining();
            let payload_len = match usize::try_from(payload_len) {
                Ok(len) if len <= available => len,
                _ => {
                    return Err(WireError::Truncated {
                        context: "section payload",
                        needed: usize::try_from(payload_len).unwrap_or(usize::MAX),
                        available,
                    })
                }
            };
            let payload = cursor.take(payload_len, "section payload")?;
            let computed = crc32(payload);
            if stored != computed {
                return Err(WireError::CrcMismatch {
                    tag,
                    stored,
                    computed,
                });
            }
            let Some(position) = KNOWN_ORDER.iter().position(|t| *t == tag) else {
                continue; // unknown section: skip (forward compatibility)
            };
            if seen[position] {
                return Err(WireError::DuplicateSection { tag });
            }
            if position < next_expected {
                return Err(WireError::OutOfOrderSection { tag });
            }
            // Jumping past a *required* section is an order violation;
            // skipped optional sections are simply absent.
            if position > next_expected && next_expected < REQUIRED_SECTIONS {
                return Err(WireError::OutOfOrderSection { tag });
            }
            if position == SEC_INCREMENTAL {
                incr_body = Some(payload);
            } else {
                let mut payload_cursor = Cursor::new(payload);
                if position == SEC_PROVENANCE {
                    provenance_sample_size = payload_cursor.varint("provenance sample size")?;
                }
                counts[position] = payload_cursor.count(COUNT_CONTEXTS[position])?;
                bodies[position] =
                    payload_cursor.take(payload_cursor.remaining(), "section body")?;
            }
            seen[position] = true;
            next_expected = position + 1;
        }
        let frames = cursor.span_since(&header_end);
        if next_expected < CANONICAL_ORDER.len() {
            return Err(WireError::MissingSection {
                tag: CANONICAL_ORDER[next_expected],
            });
        }
        if !cursor.is_empty() {
            return Err(WireError::TrailingBytes {
                count: cursor.remaining(),
            });
        }
        Ok(Self {
            version,
            frames,
            bodies,
            counts,
            provenance_sample_size,
            incr_body,
        })
    }

    /// The format version the header carries.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Every section's tag and payload length, in file order, unknown
    /// sections included: where a snapshot's bytes are. The file is a
    /// 16-byte header plus, per section, a 16-byte frame header and the
    /// payload, so these lengths add up to the file's with nothing over.
    pub fn section_sizes(&self) -> Vec<(SectionTag, u64)> {
        let mut cursor = Cursor::new(self.frames);
        let mut sizes = Vec::new();
        // The frames were walked and bounded in `new`: this cannot fail.
        while let (Ok(tag), Ok(len), Ok(_)) = (
            cursor.take(4, "section tag"),
            cursor.u64("section length"),
            cursor.u32("section checksum"),
        ) {
            sizes.push((SectionTag([tag[0], tag[1], tag[2], tag[3]]), len));
            let skipped = usize::try_from(len).map(|len| cursor.take(len, "section payload"));
            if !matches!(skipped, Ok(Ok(_))) {
                break;
            }
        }
        sizes
    }

    /// The provenance sample bound stored in section `PROV`.
    pub fn provenance_sample_size(&self) -> u64 {
        self.provenance_sample_size
    }

    /// The records of the section in slot `section` of [`KNOWN_ORDER`].
    fn records<R: SectionRecord<'a>>(&self, section: usize) -> Records<'a, R> {
        Records {
            cursor: Cursor::new(self.bodies[section]),
            remaining: self.counts[section],
            finished: false,
            state: R::State::default(),
            record: PhantomData,
        }
    }

    /// Iterates the property table (section `PROP`).
    pub fn properties(&self) -> Records<'a, PropertyRecord<'a>> {
        self.records(SEC_PROPERTIES)
    }

    /// Iterates the entity types (section `TYPE`).
    pub fn types(&self) -> Records<'a, TypeRecord<'a>> {
        self.records(SEC_TYPES)
    }

    /// Iterates the entities (section `ENTS`).
    pub fn entities(&self) -> Records<'a, EntityRecord<'a>> {
        self.records(SEC_ENTITIES)
    }

    /// Iterates the evidence counters (section `EVID`).
    pub fn evidence(&self) -> Records<'a, EvidenceRow> {
        self.records(SEC_EVIDENCE)
    }

    /// Iterates the provenance samples (section `PROV`).
    pub fn provenance(&self) -> Records<'a, ProvenanceRecord<'a>> {
        self.records(SEC_PROVENANCE)
    }

    /// Iterates the fitted models (section `MODL`).
    pub fn models(&self) -> Records<'a, ModelRow> {
        self.records(SEC_MODELS)
    }

    /// Iterates the group fingerprints (optional section `GRPF`); empty
    /// when the snapshot does not carry one.
    pub fn fingerprints(&self) -> Records<'a, GroupFingerprintRow> {
        self.records(SEC_FINGERPRINTS)
    }

    /// Whether the snapshot carries the optional `INCR` section.
    pub fn has_incremental(&self) -> bool {
        self.incr_body.is_some()
    }

    /// Parses and validates the optional incremental-state section
    /// (`INCR`). `Ok(None)` when the snapshot does not carry one.
    pub fn incremental(&self) -> Result<Option<IncrementalState>, WireError> {
        let Some(body) = self.incr_body else {
            return Ok(None);
        };
        let mut cursor = Cursor::new(body);
        let rho = cursor.varint("incremental rho")?;
        let config_digest = cursor.u64("config digest")?;
        let corpus_digest = cursor.u64("corpus digest")?;
        let range_count = cursor.count("ingested range count")?;
        let mut ingested = Vec::with_capacity(range_count);
        for _ in 0..range_count {
            let start = cursor.varint("ingested range start")?;
            let end = cursor.varint("ingested range end")?;
            if start >= end {
                return Err(WireError::BadRecord {
                    section: TAG_INCREMENTAL,
                    detail: "empty ingested range",
                });
            }
            if ingested
                .last()
                .is_some_and(|&(_, prev_end)| start <= prev_end)
            {
                return Err(WireError::BadRecord {
                    section: TAG_INCREMENTAL,
                    detail: "ingested ranges not sorted, disjoint, and merged",
                });
            }
            ingested.push((start, end));
        }
        let pending_count = cursor.count("pending shard count")?;
        let mut pending = Vec::with_capacity(pending_count);
        for _ in 0..pending_count {
            let shard = cursor.varint("pending shard")?;
            if pending.last().is_some_and(|&prev| shard <= prev) {
                return Err(WireError::BadRecord {
                    section: TAG_INCREMENTAL,
                    detail: "pending shards not strictly increasing",
                });
            }
            pending.push(shard);
        }
        if !cursor.is_empty() {
            return Err(WireError::BadRecord {
                section: TAG_INCREMENTAL,
                detail: "trailing bytes in section",
            });
        }
        Ok(Some(IncrementalState {
            rho,
            config_digest,
            corpus_digest,
            ingested,
            pending,
        }))
    }

    /// Materializes the whole snapshot into its owned form, validating
    /// every record (including string payloads the lazy iterators defer).
    pub fn to_snapshot(&self) -> Result<Snapshot, WireError> {
        fn strings(list: StrList<'_>) -> Result<Vec<String>, WireError> {
            list.map(|s| s.map(str::to_owned)).collect()
        }
        // Fields are read in section order, so the first bad record in
        // the file is the error returned.
        Ok(Snapshot {
            properties: collect(self.properties(), |record| {
                Ok(SnapshotProperty {
                    adverbs: strings(record.adverbs)?,
                    adjective: record.adjective.to_owned(),
                })
            })?,
            types: collect(self.types(), |record| {
                Ok(SnapshotType {
                    name: record.name.to_owned(),
                    head_nouns: strings(record.head_nouns)?,
                    context_cues: strings(record.context_cues)?,
                })
            })?,
            entities: collect(self.entities(), |record| {
                Ok(SnapshotEntity {
                    name: record.name.to_owned(),
                    aliases: strings(record.aliases)?,
                    type_index: record.type_index,
                    attributes: (record.attributes)
                        .map(|pair| pair.map(|(key, value)| (key.to_owned(), value)))
                        .collect::<Result<_, _>>()?,
                })
            })?,
            evidence: collect(self.evidence(), Ok)?,
            provenance_sample_size: self.provenance_sample_size,
            provenance: collect(self.provenance(), |record| {
                Ok(ProvenanceRow {
                    entity: record.entity,
                    property: record.property,
                    documents: record.documents.collect(),
                })
            })?,
            models: collect(self.models(), Ok)?,
            incremental: self.incremental()?,
            fingerprints: collect(self.fingerprints(), Ok)?,
        })
    }
}

/// Every record of `records`, each mapped by `owned`, in a vector sized
/// to the declared count.
fn collect<'a, R: SectionRecord<'a>, T>(
    records: Records<'a, R>,
    mut owned: impl FnMut(R) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let mut rows = Vec::with_capacity(records.len());
    for record in records {
        rows.push(owned(record?)?);
    }
    Ok(rows)
}

/// Count-field contexts, indexed like [`KNOWN_ORDER`]. The `INCR` slot
/// is a placeholder — that payload is not count-prefixed.
const COUNT_CONTEXTS: [&str; 8] = [
    "property count",
    "type count",
    "entity count",
    "evidence row count",
    "provenance row count",
    "model row count",
    "incremental state",
    "fingerprint row count",
];

/// A record of one section: how [`Records`] parses it.
pub trait SectionRecord<'a>: Sized {
    /// The section, named by its trailing-bytes error.
    const TAG: SectionTag;
    /// What parsing carries from one record to the next: nothing, but
    /// for `GRPF`, whose rows must ascend.
    type State: Debug + Clone + Default;
    /// Parses the record at `cursor`.
    fn parse(cursor: &mut Cursor<'a>, state: &mut Self::State) -> Result<Self, WireError>;
}

/// The records of one section, parsed lazily out of the snapshot bytes.
/// Once the declared count is read, bytes left in the section are one
/// trailing-bytes error; any error ends the iteration.
#[derive(Debug, Clone)]
pub struct Records<'a, R: SectionRecord<'a>> {
    cursor: Cursor<'a>,
    remaining: usize,
    finished: bool,
    state: R::State,
    record: PhantomData<R>,
}

impl<'a, R: SectionRecord<'a>> Records<'a, R> {
    /// Records left to yield: the declared count, already bounded by the
    /// payload size when the container was validated — what a consumer
    /// reserves for before it streams the records.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// Whether no records are left (or the section was empty).
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }
}

impl<'a, R: SectionRecord<'a>> Iterator for Records<'a, R> {
    type Item = Result<R, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        if self.remaining == 0 {
            self.finished = true;
            return (!self.cursor.is_empty()).then_some(Err(WireError::BadRecord {
                section: R::TAG,
                detail: "trailing bytes in section",
            }));
        }
        self.remaining -= 1;
        let record = R::parse(&mut self.cursor, &mut self.state);
        self.finished = record.is_err();
        Some(record)
    }
}

/// An item of a [`List`]: how it is skipped while its record is
/// delimited, and read when the list is iterated.
pub trait ListItem<'a>: Sized {
    /// Skips one item, checking its framing; `context` names it.
    fn skip(cursor: &mut Cursor<'a>, context: &'static str) -> Result<(), WireError>;
    /// Reads one item whose framing was checked.
    fn read(cursor: &mut Cursor<'a>, context: &'static str) -> Result<Self, WireError>;
}

impl<'a> ListItem<'a> for &'a str {
    fn skip(cursor: &mut Cursor<'a>, context: &'static str) -> Result<(), WireError> {
        cursor.skip_str(context)
    }

    /// UTF-8 is checked here, not when the record was delimited.
    fn read(cursor: &mut Cursor<'a>, context: &'static str) -> Result<Self, WireError> {
        cursor.str(context)
    }
}

/// An attribute: its key, named by the list's context, and its value.
impl<'a> ListItem<'a> for (&'a str, f64) {
    fn skip(cursor: &mut Cursor<'a>, context: &'static str) -> Result<(), WireError> {
        cursor.skip_str(context)?;
        cursor.take(8, "attribute value").map(drop)
    }

    fn read(cursor: &mut Cursor<'a>, context: &'static str) -> Result<Self, WireError> {
        Ok((cursor.str(context)?, cursor.f64("attribute value")?))
    }
}

/// A lazy list inside one record, borrowed from the snapshot. A bad item
/// ends the list.
#[derive(Debug, Clone)]
pub struct List<'a, T> {
    cursor: Cursor<'a>,
    remaining: usize,
    context: &'static str,
    item: PhantomData<T>,
}

/// A lazy list of length-prefixed strings.
pub type StrList<'a> = List<'a, &'a str>;

/// A lazy list of `(key, value)` attribute pairs.
pub type AttrList<'a> = List<'a, (&'a str, f64)>;

impl<'a, T: ListItem<'a>> List<'a, T> {
    /// Skims a counted list at `cursor` (framing checked, strings'
    /// UTF-8 deferred) and returns a lazy iterator over its span.
    fn skim(
        cursor: &mut Cursor<'a>,
        count_context: &'static str,
        context: &'static str,
    ) -> Result<Self, WireError> {
        let remaining = cursor.count(count_context)?;
        let mark = *cursor;
        for _ in 0..remaining {
            T::skip(cursor, context)?;
        }
        Ok(Self {
            cursor: Cursor::new(cursor.span_since(&mark)),
            remaining,
            context,
            item: PhantomData,
        })
    }

    /// Items left to yield.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// Whether the list is exhausted (or was empty).
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }
}

impl<'a, T: ListItem<'a>> Iterator for List<'a, T> {
    type Item = Result<T, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let item = T::read(&mut self.cursor, self.context);
        if item.is_err() {
            self.remaining = 0;
        }
        Some(item)
    }
}

/// A lazy list of varint `u64`s borrowed from the snapshot. Framing was
/// validated when the owning record was delimited, so iteration is
/// infallible.
#[derive(Debug, Clone)]
pub struct U64List<'a> {
    cursor: Cursor<'a>,
    remaining: usize,
    context: &'static str,
}

impl<'a> U64List<'a> {
    fn new(span: &'a [u8], count: usize, context: &'static str) -> Self {
        Self {
            cursor: Cursor::new(span),
            remaining: count,
            context,
        }
    }

    /// Values left to yield.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// Whether the list is exhausted (or was empty).
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }
}

impl<'a> Iterator for U64List<'a> {
    type Item = u64;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.cursor.varint(self.context) {
            Ok(v) => Some(v),
            Err(_) => {
                // Unreachable: the span was skimmed before being handed out.
                self.remaining = 0;
                None
            }
        }
    }

    /// Exact (the span was skimmed), so `collect` allocates once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// One property-table record, borrowed from section `PROP`.
#[derive(Debug, Clone)]
pub struct PropertyRecord<'a> {
    /// Preceding adverbs, leftmost first.
    pub adverbs: StrList<'a>,
    /// The head adjective.
    pub adjective: &'a str,
}

impl<'a> SectionRecord<'a> for PropertyRecord<'a> {
    const TAG: SectionTag = TAG_PROPERTIES;
    type State = ();

    fn parse(cursor: &mut Cursor<'a>, _: &mut ()) -> Result<Self, WireError> {
        Ok(Self {
            adverbs: List::skim(cursor, "adverb count", "adverb")?,
            adjective: cursor.str("adjective")?,
        })
    }
}

/// One entity-type record, borrowed from section `TYPE`.
#[derive(Debug, Clone)]
pub struct TypeRecord<'a> {
    /// Lowercase type name.
    pub name: &'a str,
    /// Generic nouns denoting the type.
    pub head_nouns: StrList<'a>,
    /// Disambiguation cue words.
    pub context_cues: StrList<'a>,
}

impl<'a> SectionRecord<'a> for TypeRecord<'a> {
    const TAG: SectionTag = TAG_TYPES;
    type State = ();

    fn parse(cursor: &mut Cursor<'a>, _: &mut ()) -> Result<Self, WireError> {
        Ok(Self {
            name: cursor.str("type name")?,
            head_nouns: List::skim(cursor, "head noun count", "head noun")?,
            context_cues: List::skim(cursor, "context cue count", "context cue")?,
        })
    }
}

/// One entity record, borrowed from section `ENTS`.
#[derive(Debug, Clone)]
pub struct EntityRecord<'a> {
    /// Canonical display name.
    pub name: &'a str,
    /// Alternative surface forms.
    pub aliases: StrList<'a>,
    /// Index into the type table.
    pub type_index: u32,
    /// Objective attributes, sorted by key.
    pub attributes: AttrList<'a>,
}

impl<'a> SectionRecord<'a> for EntityRecord<'a> {
    const TAG: SectionTag = TAG_ENTITIES;
    type State = ();

    fn parse(cursor: &mut Cursor<'a>, _: &mut ()) -> Result<Self, WireError> {
        Ok(Self {
            name: cursor.str("entity name")?,
            aliases: List::skim(cursor, "alias count", "alias")?,
            type_index: cursor.u32("entity type index")?,
            attributes: List::skim(cursor, "attribute count", "attribute key")?,
        })
    }
}

/// Evidence rows are plain `Copy` values — nothing to borrow.
impl<'a> SectionRecord<'a> for EvidenceRow {
    const TAG: SectionTag = TAG_EVIDENCE;
    type State = ();

    fn parse(cursor: &mut Cursor<'a>, _: &mut ()) -> Result<Self, WireError> {
        Ok(Self {
            entity: cursor.u32("evidence entity")?,
            property: cursor.u32("evidence property")?,
            positive: cursor.varint("positive count")?,
            negative: cursor.varint("negative count")?,
        })
    }
}

/// One provenance record, borrowed from section `PROV`.
#[derive(Debug, Clone)]
pub struct ProvenanceRecord<'a> {
    /// The entity.
    pub entity: u32,
    /// Index into the property table.
    pub property: u32,
    /// Supporting document ids, ascending.
    pub documents: U64List<'a>,
}

impl<'a> SectionRecord<'a> for ProvenanceRecord<'a> {
    const TAG: SectionTag = TAG_PROVENANCE;
    type State = ();

    fn parse(cursor: &mut Cursor<'a>, _: &mut ()) -> Result<Self, WireError> {
        let entity = cursor.u32("provenance entity")?;
        let property = cursor.u32("provenance property")?;
        let count = cursor.count("document count")?;
        let mark = *cursor;
        for _ in 0..count {
            cursor.varint("document id")?;
        }
        Ok(Self {
            entity,
            property,
            documents: U64List::new(cursor.span_since(&mark), count, "document id"),
        })
    }
}

impl<'a> SectionRecord<'a> for ModelRow {
    const TAG: SectionTag = TAG_MODELS;
    type State = ();

    fn parse(cursor: &mut Cursor<'a>, _: &mut ()) -> Result<Self, WireError> {
        Ok(Self {
            type_index: cursor.u32("model type index")?,
            property: cursor.u32("model property")?,
            p_agree: cursor.f64("p_agree")?,
            rate_pos: cursor.f64("rate_pos")?,
            rate_neg: cursor.f64("rate_neg")?,
            iterations: cursor.varint("iteration count")?,
            converged: cursor.u8("convergence code")?,
            log_likelihood: cursor.f64("log likelihood")?,
        })
    }
}

/// Fingerprint rows must ascend on `(type_index, property)` with no key
/// twice: the state is the previous row's key.
impl<'a> SectionRecord<'a> for GroupFingerprintRow {
    const TAG: SectionTag = TAG_FINGERPRINTS;
    type State = Option<(u32, u32)>;

    fn parse(cursor: &mut Cursor<'a>, last_key: &mut Self::State) -> Result<Self, WireError> {
        let type_index = cursor.u32("fingerprint type index")?;
        let property = cursor.u32("fingerprint property")?;
        let key = (type_index, property);
        if last_key.is_some_and(|prev| key <= prev) {
            return Err(WireError::BadRecord {
                section: TAG_FINGERPRINTS,
                detail: "fingerprint rows out of order",
            });
        }
        *last_key = Some(key);
        Ok(Self {
            type_index,
            property,
            entities: cursor.varint("fingerprint entity count")?,
            total: cursor.varint("fingerprint statement total")?,
            fingerprint: cursor.u64("fingerprint digest")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{put_u16, put_u32, put_u64, put_varint};
    use crate::encode::encode;
    use crate::snapshot::{EvidenceRow, SnapshotProperty};

    /// A container holding the given `(tag, payload)` frames.
    fn container(sections: &[([u8; 4], Vec<u8>)]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, FORMAT_VERSION);
        put_u16(&mut out, 0);
        put_u32(&mut out, sections.len() as u32);
        for (tag, payload) in sections {
            out.extend_from_slice(tag);
            put_u64(&mut out, payload.len() as u64);
            put_u32(&mut out, crc32(payload));
            out.extend_from_slice(payload);
        }
        out
    }

    /// The six canonical frames of an empty world.
    fn empty_sections() -> Vec<([u8; 4], Vec<u8>)> {
        vec![
            (*b"PROP", vec![0]),
            (*b"TYPE", vec![0]),
            (*b"ENTS", vec![0]),
            (*b"EVID", vec![0]),
            (*b"PROV", vec![0, 0]),
            (*b"MODL", vec![0]),
        ]
    }

    fn sample() -> Snapshot {
        Snapshot {
            properties: vec![
                SnapshotProperty {
                    adverbs: vec![],
                    adjective: "big".into(),
                },
                SnapshotProperty {
                    adverbs: vec!["very".into()],
                    adjective: "big".into(),
                },
            ],
            types: vec![SnapshotType {
                name: "city".into(),
                head_nouns: vec!["city".into(), "town".into()],
                context_cues: vec!["mayor".into()],
            }],
            entities: vec![SnapshotEntity {
                name: "Paris".into(),
                aliases: vec!["Lutetia".into()],
                type_index: 0,
                attributes: vec![("population".into(), 2.1e6)],
            }],
            evidence: vec![EvidenceRow {
                entity: 0,
                property: 0,
                positive: 12,
                negative: 3,
            }],
            provenance_sample_size: 16,
            provenance: vec![ProvenanceRow {
                entity: 0,
                property: 0,
                documents: vec![5, 900, 90_001],
            }],
            models: vec![ModelRow {
                type_index: 0,
                property: 0,
                p_agree: 0.9,
                rate_pos: 2.5,
                rate_neg: 0.25,
                iterations: 7,
                converged: 0,
                log_likelihood: -42.5,
            }],
            incremental: None,
            fingerprints: vec![],
        }
    }

    /// The sample world with incremental state and fingerprints attached.
    fn incremental_sample() -> Snapshot {
        let mut snapshot = sample();
        snapshot.incremental = Some(IncrementalState {
            rho: 40,
            config_digest: 0xdead_beef_cafe_f00d,
            corpus_digest: 0x1234_5678_9abc_def0,
            ingested: vec![(0, 3), (5, 8)],
            pending: vec![3, 4],
        });
        snapshot.fingerprints = crate::snapshot::group_fingerprints(&snapshot);
        snapshot
    }

    #[test]
    fn round_trip_is_value_and_byte_identical() {
        let snapshot = sample();
        let bytes = encode(&snapshot);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
        assert_eq!(encode(&decoded), bytes);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snapshot = Snapshot::default();
        let bytes = encode(&snapshot);
        assert_eq!(decode(&bytes).unwrap(), snapshot);
        // The handcrafted empty container is the same thing.
        assert_eq!(bytes, container(&empty_sections()));
    }

    #[test]
    fn bad_magic_is_reported_with_what_was_found() {
        assert_eq!(
            SnapshotReader::new(b"NOTWIRE!rest").map(|_| ()),
            Err(WireError::BadMagic {
                found: *b"NOTWIRE!"
            })
        );
        // Shorter than the magic itself: zero-padded report.
        assert_eq!(
            SnapshotReader::new(b"SUR").map(|_| ()),
            Err(WireError::BadMagic {
                found: *b"SUR\0\0\0\0\0"
            })
        );
        assert_eq!(
            SnapshotReader::new(b"").map(|_| ()),
            Err(WireError::BadMagic { found: [0; 8] })
        );
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = encode(&Snapshot::default());
        bytes[8] = 0x63; // version 0x0063
        assert_eq!(
            SnapshotReader::new(&bytes).map(|_| ()),
            Err(WireError::UnsupportedVersion { found: 0x63 })
        );
        // Version 1 stored decisions this reader no longer parses: it is
        // refused, never read as a version-2 file.
        bytes[8] = 1;
        assert_eq!(
            SnapshotReader::new(&bytes).map(|_| ()),
            Err(WireError::UnsupportedVersion { found: 1 })
        );
    }

    #[test]
    fn truncation_at_every_prefix_is_a_typed_error() {
        let bytes = encode(&sample());
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).expect_err("prefix decoded");
            match err {
                WireError::BadMagic { .. }
                | WireError::Truncated { .. }
                | WireError::CrcMismatch { .. }
                | WireError::MissingSection { .. } => {}
                other => panic!("prefix of {len} bytes gave unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn crc_mismatch_names_the_section() {
        let bytes = encode(&sample());
        // Flip one byte inside the first section's payload (header is
        // 16 bytes, frame is 16 bytes, payload follows).
        let mut damaged = bytes.clone();
        damaged[32] ^= 0x01;
        match SnapshotReader::new(&damaged) {
            Err(WireError::CrcMismatch { tag, .. }) => assert_eq!(tag, TAG_PROPERTIES),
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_section_is_rejected() {
        let mut sections = empty_sections();
        sections.push((*b"MODL", vec![0]));
        assert_eq!(
            SnapshotReader::new(&container(&sections)).map(|_| ()),
            Err(WireError::DuplicateSection { tag: TAG_MODELS })
        );
    }

    #[test]
    fn missing_section_names_the_first_absent_tag() {
        let mut sections = empty_sections();
        sections.remove(4); // drop PROV
        assert_eq!(
            SnapshotReader::new(&container(&sections)).map(|_| ()),
            Err(WireError::OutOfOrderSection { tag: TAG_MODELS })
        );
        sections.truncate(4); // PROP..EVID only
        assert_eq!(
            SnapshotReader::new(&container(&sections)).map(|_| ()),
            Err(WireError::MissingSection {
                tag: TAG_PROVENANCE
            })
        );
        assert_eq!(
            SnapshotReader::new(&container(&[])).map(|_| ()),
            Err(WireError::MissingSection {
                tag: TAG_PROPERTIES
            })
        );
    }

    #[test]
    fn out_of_order_sections_are_rejected() {
        let mut sections = empty_sections();
        sections.swap(0, 1);
        assert_eq!(
            SnapshotReader::new(&container(&sections)).map(|_| ()),
            Err(WireError::OutOfOrderSection { tag: TAG_TYPES })
        );
    }

    #[test]
    fn trailing_bytes_after_last_section_are_rejected() {
        let mut bytes = container(&empty_sections());
        bytes.extend_from_slice(&[1, 2, 3]);
        // The header still says 6 sections, so the tail is garbage.
        assert_eq!(
            SnapshotReader::new(&bytes).map(|_| ()),
            Err(WireError::TrailingBytes { count: 3 })
        );
    }

    #[test]
    fn unknown_sections_are_skipped_for_forward_compat() {
        let mut sections = empty_sections();
        sections.insert(3, (*b"XTRA", vec![9, 9, 9]));
        sections.push((*b"ZEND", vec![]));
        let bytes = container(&sections);
        let reader = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(reader.to_snapshot().unwrap(), Snapshot::default());
    }

    #[test]
    fn section_trailing_bytes_are_a_bad_record() {
        let mut sections = empty_sections();
        sections[3].1.push(0xaa); // EVID declares 0 rows but has a byte
        let bytes = container(&sections);
        let reader = SnapshotReader::new(&bytes).unwrap();
        let err = reader.to_snapshot().expect_err("decoded");
        assert_eq!(
            err,
            WireError::BadRecord {
                section: TAG_EVIDENCE,
                detail: "trailing bytes in section",
            }
        );
    }

    #[test]
    fn impossible_record_count_is_rejected_without_allocating() {
        let mut sections = empty_sections();
        // EVID claims u64::MAX rows in a 10-byte payload.
        let mut payload = Vec::new();
        put_varint(&mut payload, u64::MAX);
        sections[3].1 = payload;
        assert_eq!(
            SnapshotReader::new(&container(&sections)).map(|_| ()),
            Err(WireError::BadVarint {
                context: "evidence row count"
            })
        );
    }

    #[test]
    fn invalid_utf8_is_deferred_to_string_access() {
        let mut sections = empty_sections();
        // One type whose sole head noun is invalid UTF-8; name is fine.
        let mut payload = Vec::new();
        put_varint(&mut payload, 1); // one type
        let name = "city";
        put_varint(&mut payload, name.len() as u64);
        payload.extend_from_slice(name.as_bytes());
        put_varint(&mut payload, 1); // one head noun
        put_varint(&mut payload, 2);
        payload.extend_from_slice(&[0xff, 0xfe]);
        put_varint(&mut payload, 0); // no cues
        sections[1].1 = payload;
        let bytes = container(&sections);
        let reader = SnapshotReader::new(&bytes).unwrap();
        // The record itself parses (framing is sound)...
        let record = reader.types().next().unwrap().unwrap();
        assert_eq!(record.name, "city");
        // ...but reading the noun surfaces the typed error.
        assert_eq!(
            record.head_nouns.clone().next().unwrap(),
            Err(WireError::BadUtf8 {
                context: "head noun"
            })
        );
        assert_eq!(
            reader.to_snapshot().expect_err("materialized"),
            WireError::BadUtf8 {
                context: "head noun"
            }
        );
    }

    #[test]
    fn reader_exposes_header_fields_and_lazy_iterators() {
        let snapshot = sample();
        let bytes = encode(&snapshot);
        let reader = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(reader.version(), FORMAT_VERSION);
        assert_eq!(reader.provenance_sample_size(), 16);
        assert_eq!(reader.properties().count(), 2);
        let first = reader.properties().next().unwrap().unwrap();
        assert_eq!(first.adjective, "big");
        assert!(first.adverbs.is_empty());
        let entity = reader.entities().next().unwrap().unwrap();
        assert_eq!(entity.name, "Paris");
        assert_eq!(
            entity.aliases.collect::<Result<Vec<_>, _>>().unwrap(),
            vec!["Lutetia"]
        );
        let prov = reader.provenance().next().unwrap().unwrap();
        assert_eq!(prov.documents.collect::<Vec<_>>(), vec![5, 900, 90_001]);
        let model = reader.models().next().unwrap().unwrap();
        assert_eq!((model.p_agree, model.iterations), (0.9, 7));
        assert_eq!(model.log_likelihood, -42.5);
    }

    #[test]
    fn section_sizes_account_for_every_byte() {
        // The header and one frame header per section, plus the payloads,
        // are the file: unknown and optional sections counted alike.
        let mut sections = empty_sections();
        sections.insert(3, (*b"XTRA", vec![9, 9, 9]));
        let handmade = container(&sections);
        for bytes in [
            encode(&sample()),
            encode(&incremental_sample()),
            encode(&Snapshot::default()),
            handmade,
        ] {
            let sizes = SnapshotReader::new(&bytes).unwrap().section_sizes();
            let framed: u64 = sizes.iter().map(|&(_, len)| 16 + len).sum();
            assert_eq!(16 + framed, bytes.len() as u64, "{sizes:?}");
        }
        let sizes = SnapshotReader::new(&encode(&incremental_sample()))
            .unwrap()
            .section_sizes();
        let tags: Vec<String> = sizes.iter().map(|(tag, _)| tag.to_string()).collect();
        assert_eq!(
            tags,
            ["PROP", "TYPE", "ENTS", "EVID", "PROV", "MODL", "INCR", "GRPF"]
        );
        // A model row is its key, three parameters, a one-byte iteration
        // count, the code and the likelihood: 42 bytes and a count byte.
        assert_eq!(sizes[5].1, 1 + 42);
    }

    #[test]
    fn incremental_snapshot_round_trips() {
        let snapshot = incremental_sample();
        let bytes = encode(&snapshot);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
        assert_eq!(encode(&decoded), bytes);

        let reader = SnapshotReader::new(&bytes).unwrap();
        assert!(reader.has_incremental());
        let state = reader.incremental().unwrap().unwrap();
        assert_eq!(state, snapshot.incremental.clone().unwrap());
        let rows: Vec<_> = reader
            .fingerprints()
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(rows, snapshot.fingerprints);
    }

    #[test]
    fn plain_snapshot_encodes_six_sections() {
        // Without incremental state the byte stream is the six required
        // sections alone.
        let bytes = encode(&sample());
        assert_eq!(&bytes[12..16], &6u32.to_le_bytes());
        let reader = SnapshotReader::new(&bytes).unwrap();
        assert!(!reader.has_incremental());
        assert_eq!(reader.incremental().unwrap(), None);
        assert_eq!(reader.fingerprints().count(), 0);
    }

    #[test]
    fn optional_sections_may_appear_independently() {
        // INCR without GRPF.
        let mut snapshot = incremental_sample();
        snapshot.fingerprints.clear();
        assert_eq!(decode(&encode(&snapshot)).unwrap(), snapshot);
        // GRPF without INCR.
        let mut snapshot = incremental_sample();
        snapshot.incremental = None;
        assert_eq!(decode(&encode(&snapshot)).unwrap(), snapshot);
    }

    #[test]
    fn duplicate_and_misordered_optional_sections_are_rejected() {
        let bytes = encode(&incremental_sample());
        let reader = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(reader.version(), FORMAT_VERSION);

        // Rebuild the raw frames so they can be rearranged: required
        // six from the empty world plus handcrafted INCR/GRPF.
        let incr_payload = || {
            let mut p = vec![0]; // rho = 0
            put_u64(&mut p, 0); // config digest
            put_u64(&mut p, 0); // corpus digest
            p.push(0); // no ingested ranges
            p.push(0); // no pending shards
            p
        };
        let grpf_payload = || vec![0]; // zero rows

        let mut sections = empty_sections();
        sections.push((*b"INCR", incr_payload()));
        sections.push((*b"INCR", incr_payload()));
        assert_eq!(
            SnapshotReader::new(&container(&sections)).map(|_| ()),
            Err(WireError::DuplicateSection {
                tag: TAG_INCREMENTAL
            })
        );

        // GRPF before INCR violates the canonical order.
        let mut sections = empty_sections();
        sections.push((*b"GRPF", grpf_payload()));
        sections.push((*b"INCR", incr_payload()));
        assert_eq!(
            SnapshotReader::new(&container(&sections)).map(|_| ()),
            Err(WireError::OutOfOrderSection {
                tag: TAG_INCREMENTAL
            })
        );

        // An optional section before the required six is out of order
        // (it would skip every required section).
        let mut sections = empty_sections();
        sections.insert(0, (*b"INCR", incr_payload()));
        assert_eq!(
            SnapshotReader::new(&container(&sections)).map(|_| ()),
            Err(WireError::OutOfOrderSection {
                tag: TAG_INCREMENTAL
            })
        );
    }

    #[test]
    fn malformed_incremental_state_is_a_bad_record() {
        let build = |ranges: &[(u64, u64)], pending: &[u64], trailing: bool| {
            let mut p = vec![40]; // rho
            put_u64(&mut p, 1);
            put_u64(&mut p, 2);
            put_varint(&mut p, ranges.len() as u64);
            for &(s, e) in ranges {
                put_varint(&mut p, s);
                put_varint(&mut p, e);
            }
            put_varint(&mut p, pending.len() as u64);
            for &shard in pending {
                put_varint(&mut p, shard);
            }
            if trailing {
                p.push(0xaa);
            }
            let mut sections = empty_sections();
            sections.push((*b"INCR", p));
            container(&sections)
        };
        let detail_of = |bytes: &[u8]| {
            let reader = SnapshotReader::new(bytes).unwrap();
            match reader.incremental().expect_err("parsed") {
                WireError::BadRecord { section, detail } => {
                    assert_eq!(section, TAG_INCREMENTAL);
                    detail
                }
                other => panic!("expected BadRecord, got {other:?}"),
            }
        };
        assert_eq!(
            detail_of(&build(&[(3, 3)], &[], false)),
            "empty ingested range"
        );
        assert_eq!(
            detail_of(&build(&[(0, 2), (2, 4)], &[], false)),
            "ingested ranges not sorted, disjoint, and merged"
        );
        assert_eq!(
            detail_of(&build(&[(0, 2)], &[5, 5], false)),
            "pending shards not strictly increasing"
        );
        assert_eq!(
            detail_of(&build(&[(0, 2)], &[5], true)),
            "trailing bytes in section"
        );
        // Valid state parses.
        let reader_bytes = build(&[(0, 2), (4, 6)], &[2, 3], false);
        let reader = SnapshotReader::new(&reader_bytes).unwrap();
        let state = reader.incremental().unwrap().unwrap();
        assert_eq!(state.ingested, vec![(0, 2), (4, 6)]);
        assert_eq!(state.pending, vec![2, 3]);
        assert_eq!(state.ingested_count(), 4);
    }

    #[test]
    fn misordered_fingerprint_rows_are_a_bad_record() {
        let mut payload = Vec::new();
        put_varint(&mut payload, 2);
        for _ in 0..2 {
            put_u32(&mut payload, 0); // type index
            put_u32(&mut payload, 7); // property (repeated key)
            put_varint(&mut payload, 1);
            put_varint(&mut payload, 1);
            put_u64(&mut payload, 99);
        }
        let mut sections = empty_sections();
        sections.push((*b"GRPF", payload));
        let bytes = container(&sections);
        let reader = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(
            reader.to_snapshot().expect_err("decoded"),
            WireError::BadRecord {
                section: TAG_FINGERPRINTS,
                detail: "fingerprint rows out of order",
            }
        );
    }
}
