//! The zero-copy snapshot decoder.
//!
//! [`SnapshotReader::new`] verifies the container in one pass — magic,
//! version, section framing, checksums, canonical order, and the framing
//! of the small `ENTS` columns that come before the entity names — and
//! stores one borrowed byte span per section. Record access after that is lazy:
//! each section's [`Records`] iterator ([`SnapshotReader::rows`] and
//! friends) parses records straight out of the snapshot bytes and hands
//! out borrowed `&str` spans and sub-iterators instead of allocating per
//! record. Every read is bounds-checked; no input can make the decoder
//! panic.

use crate::crc32::crc32;
use crate::cursor::Cursor;
use crate::error::WireError;
use crate::section::{
    SectionTag, CANONICAL_ORDER, KNOWN_ORDER, REQUIRED_SECTIONS, TAG_ENTITIES, TAG_INCREMENTAL,
    TAG_MODELS, TAG_PROPERTIES, TAG_ROWS, TAG_TYPES,
};
use crate::snapshot::{
    EvidenceRow, IncrementalState, ModelRow, PairRow, Snapshot, SnapshotEntity, SnapshotProperty,
    SnapshotType,
};
use crate::{FORMAT_VERSION, MAGIC};
use std::fmt::Debug;
use std::marker::PhantomData;

/// Positions of the known sections inside [`KNOWN_ORDER`].
const SEC_PROPERTIES: usize = 0;
const SEC_TYPES: usize = 1;
const SEC_ENTITIES: usize = 2;
const SEC_ROWS: usize = 3;
const SEC_MODELS: usize = 4;
const SEC_INCREMENTAL: usize = 5;

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
    /// Every section frame, in file order: what
    /// [`section_sizes`](Self::section_sizes) walks again.
    frames: &'a [u8],
    /// Per-section record bytes (payload minus its leading counts),
    /// indexed like [`KNOWN_ORDER`]. The `INCR` slot is unused (its
    /// payload is not count-prefixed; see `incr_body`).
    bodies: [&'a [u8]; 6],
    /// Per-section record counts, already bounded by the payload size.
    counts: [usize; 6],
    /// The `ENTS` columns read in step with its names (the `ENTS` body).
    entity_columns: EntityColumns<'a>,
    sample_size: u64,
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

        let mut bodies: [&'a [u8]; 6] = [&[]; 6];
        let mut counts = [0usize; 6];
        let mut entity_columns = EntityColumns::default();
        let mut sample_size = 0u64;
        let mut incr_body: Option<&'a [u8]> = None;
        let mut seen = [false; 6];
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
            } else if position == SEC_ENTITIES {
                let (count, columns, names) = EntityColumns::split(payload)?;
                (counts[position], entity_columns, bodies[position]) = (count, columns, names);
            } else {
                let mut payload_cursor = Cursor::new(payload);
                if position == SEC_ROWS {
                    sample_size = payload_cursor.varint("sample size")?;
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
            frames,
            bodies,
            counts,
            entity_columns,
            sample_size,
            incr_body,
        })
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

    /// The document sample bound stored in section `ROWS`.
    pub fn sample_size(&self) -> u64 {
        self.sample_size
    }

    /// The records of the section in slot `section` of [`KNOWN_ORDER`],
    /// parsing from `state`.
    fn records<R: SectionRecord<'a>>(&self, section: usize, state: R::State) -> Records<'a, R> {
        Records {
            cursor: Cursor::new(self.bodies[section]),
            remaining: self.counts[section],
            finished: false,
            state,
            record: PhantomData,
        }
    }

    /// Iterates the property table (section `PROP`).
    pub fn properties(&self) -> Records<'a, PropertyRecord<'a>> {
        self.records(SEC_PROPERTIES, ())
    }

    /// Iterates the entity types (section `TYPE`).
    pub fn types(&self) -> Records<'a, TypeRecord<'a>> {
        self.records(SEC_TYPES, ())
    }

    /// Iterates the entities (section `ENTS`): each record is read from
    /// the four columns in step — a name, the type of the run it falls
    /// in, and its aliases and attributes when a sparse entry names it.
    pub fn entities(&self) -> Records<'a, EntityRecord<'a>> {
        self.records(SEC_ENTITIES, self.entity_columns)
    }

    /// Iterates the pairs' counters and document samples (section
    /// `ROWS`), their gaps added back.
    pub fn rows(&self) -> Records<'a, PairRecord<'a>> {
        self.records(SEC_ROWS, 0)
    }

    /// Iterates the fitted models (section `MODL`).
    pub fn models(&self) -> Records<'a, ModelRow> {
        self.records(SEC_MODELS, ())
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
            sample_size: self.sample_size,
            rows: collect(self.rows(), |record| {
                Ok(PairRow {
                    entity: record.entity,
                    property: record.property,
                    positive: record.positive,
                    negative: record.negative,
                    documents: record.documents.collect::<Result<_, _>>()?,
                })
            })?,
            models: collect(self.models(), Ok)?,
            incremental: self.incremental()?,
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
const COUNT_CONTEXTS: [&str; 6] = [
    "property count",
    "type count",
    "entity count",
    "row count",
    "model row count",
    "incremental state",
];

/// A record of one section: how [`Records`] parses it.
pub trait SectionRecord<'a>: Sized {
    /// The section, named by its trailing-bytes error.
    const TAG: SectionTag;
    /// What parsing carries from one record to the next: nothing, but
    /// for `ENTS`, whose records are read from columns in step, and for
    /// `ROWS`, whose entities are gaps from the row before.
    type State: Debug + Clone;
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

    /// A list of no items.
    fn empty(context: &'static str) -> Self {
        Self {
            cursor: Cursor::default(),
            remaining: 0,
            context,
            item: PhantomData,
        }
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

/// A row's document ids, decoded lazily out of the snapshot: each a
/// shard gap and a local id, the local a gap too when the shard is the
/// previous document's. The row was delimited by the varints' last bytes
/// alone, so the one decode is here: a bad varint, or a gap whose sum
/// overflows its `u32`, is the item's typed error, and ends the list.
#[derive(Debug, Clone)]
pub struct Documents<'a> {
    cursor: Cursor<'a>,
    remaining: usize,
    /// The previous document's `(shard, local)`; `(0, 0)` before the
    /// first, whose ids are then absolute.
    last: (u32, u32),
}

impl<'a> Documents<'a> {
    /// Delimits `count` documents at `cursor` (two varints each) and
    /// returns a lazy iterator over their span.
    fn skim(cursor: &mut Cursor<'a>, count: usize) -> Result<Self, WireError> {
        let mark = *cursor;
        cursor.skip_varints(2 * count, "document id")?;
        Ok(Self {
            cursor: Cursor::new(cursor.span_since(&mark)),
            remaining: count,
            last: (0, 0),
        })
    }

    /// Reads the document after `last`.
    fn step(&mut self) -> Result<u64, WireError> {
        let shard_gap = self.cursor.varint("document shard gap")?;
        let local = self.cursor.varint("document local id")?;
        let shard = (u32::try_from(shard_gap).ok()).and_then(|gap| self.last.0.checked_add(gap));
        let local = (u32::try_from(local).ok()).and_then(|local| match shard_gap {
            0 => self.last.1.checked_add(local),
            _ => Some(local),
        });
        let Some(last) = shard.zip(local) else {
            return Err(WireError::BadRecord {
                section: TAG_ROWS,
                detail: "document id out of range",
            });
        };
        self.last = last;
        Ok(u64::from(last.0) << 32 | u64::from(last.1))
    }

    /// Documents left to yield.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// Whether the list is exhausted (or was empty).
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }
}

impl Iterator for Documents<'_> {
    type Item = Result<u64, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let document = self.step();
        self.remaining = match document {
            Ok(_) => self.remaining - 1,
            Err(_) => 0,
        };
        Some(document)
    }

    /// Exact unless an item fails, which ends the list.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Documents<'_> {}

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

/// A `BadRecord` error in section `ENTS`.
fn bad_entity_column(detail: &'static str) -> WireError {
    WireError::BadRecord {
        section: TAG_ENTITIES,
        detail,
    }
}

/// The `ENTS` columns that sit before the names, each with a cursor that
/// [`EntityRecord::parse`] moves on one entity at a time: the type runs,
/// and the sparse alias and attribute lists (FORMAT.md §3.3).
/// [`EntityColumns::split`] has checked their framing and every rule
/// between them and the entity count, so reading them again cannot fail
/// on bytes a reader was built from.
#[derive(Debug, Clone, Copy, Default)]
pub struct EntityColumns<'a> {
    /// The entity the next record is.
    entity: u64,
    /// The `(type, run length)` pairs not yet started.
    runs: Cursor<'a>,
    /// The current run's type and how many of its entities are left.
    run: (u32, u64),
    aliases: Sparse<'a>,
    attributes: Sparse<'a>,
}

impl<'a> EntityColumns<'a> {
    /// Walks the leading columns of an `ENTS` payload, checking their
    /// framing and rules — runs that cover the entities exactly and are
    /// never empty, sparse entries for ascending entities in range, each
    /// with at least one item — and returns the entity count, the
    /// columns, and the names column, which is the rest of the payload.
    fn split(payload: &'a [u8]) -> Result<(usize, Self, &'a [u8]), WireError> {
        let mut cursor = Cursor::new(payload);
        let count = cursor.count("entity count")?;
        let runs = cursor.count("type run count")?;
        let start = cursor;
        let mut covered = 0u64;
        for _ in 0..runs {
            u32::try_from(cursor.varint("run type index")?)
                .map_err(|_| bad_entity_column("type index out of range"))?;
            let length = cursor.varint("type run length")?;
            if length == 0 {
                return Err(bad_entity_column("zero-length type run"));
            }
            covered = (covered.checked_add(length))
                .filter(|&covered| covered <= count as u64)
                .ok_or(bad_entity_column("type runs past the entity count"))?;
        }
        if covered < count as u64 {
            return Err(bad_entity_column("type runs short of the entity count"));
        }
        let runs = Cursor::new(cursor.span_since(&start));
        let aliases = Sparse::skim::<&str>(&mut cursor, count, ALIAS_CONTEXTS)?;
        let attributes = Sparse::skim::<(&str, f64)>(&mut cursor, count, ATTRIBUTE_CONTEXTS)?;
        let columns = Self {
            entity: 0,
            runs,
            run: (0, 0),
            aliases,
            attributes,
        };
        Ok((
            count,
            columns,
            cursor.take(cursor.remaining(), "entity names")?,
        ))
    }

    /// The type of the next entity, starting the next run when this one
    /// is spent.
    fn next_type(&mut self) -> Result<u32, WireError> {
        if self.run.1 == 0 {
            let type_index = u32::try_from(self.runs.varint("run type index")?)
                .map_err(|_| bad_entity_column("type index out of range"))?;
            self.run = (type_index, self.runs.varint("type run length")?);
        }
        self.run.1 = self.run.1.saturating_sub(1);
        Ok(self.run.0)
    }
}

/// What a sparse column's errors name: its entries' entity gaps and item
/// counts, its items, and its two rules.
struct SparseContexts {
    entries: &'static str,
    gap: &'static str,
    count: &'static str,
    item: &'static str,
    not_ascending: &'static str,
    past_count: &'static str,
    empty: &'static str,
}

const ALIAS_CONTEXTS: SparseContexts = SparseContexts {
    entries: "alias entry count",
    gap: "alias entity gap",
    count: "alias count",
    item: "alias",
    not_ascending: "alias entities not ascending",
    past_count: "alias entity past the entity count",
    empty: "alias entry with no aliases",
};

const ATTRIBUTE_CONTEXTS: SparseContexts = SparseContexts {
    entries: "attribute entry count",
    gap: "attribute entity gap",
    count: "attribute count",
    item: "attribute key",
    not_ascending: "attribute entities not ascending",
    past_count: "attribute entity past the entity count",
    empty: "attribute entry with no attributes",
};

/// A sparse column of `ENTS`: `(entity gap, item list)` entries for the
/// entities that have items, read as the records reach them.
#[derive(Debug, Clone, Copy, Default)]
struct Sparse<'a> {
    /// The entries after [`next`](Self::next)'s gap.
    cursor: Cursor<'a>,
    /// Entries whose gap is not yet read.
    remaining: usize,
    /// The entity of the entry the cursor is at; `None` once every entry
    /// is read, or before the first gap.
    next: Option<u64>,
    gap: &'static str,
    count: &'static str,
    item: &'static str,
}

impl<'a> Sparse<'a> {
    /// Walks a sparse column at `cursor` for a section of `entities`
    /// entities, checking its rules, and returns it positioned at its
    /// first entry.
    fn skim<T: ListItem<'a>>(
        cursor: &mut Cursor<'a>,
        entities: usize,
        contexts: SparseContexts,
    ) -> Result<Self, WireError> {
        let entries = cursor.count(contexts.entries)?;
        let start = *cursor;
        let mut last: Option<u64> = None;
        for _ in 0..entries {
            let gap = cursor.varint(contexts.gap)?;
            let entity = match last {
                None => Some(gap),
                Some(_) if gap == 0 => return Err(bad_entity_column(contexts.not_ascending)),
                Some(last) => last.checked_add(gap),
            };
            let entity = (entity.filter(|&entity| entity < entities as u64))
                .ok_or(bad_entity_column(contexts.past_count))?;
            let items = cursor.count(contexts.count)?;
            if items == 0 {
                return Err(bad_entity_column(contexts.empty));
            }
            for _ in 0..items {
                T::skip(cursor, contexts.item)?;
            }
            last = Some(entity);
        }
        let mut sparse = Self {
            cursor: Cursor::new(cursor.span_since(&start)),
            remaining: entries,
            next: None,
            gap: contexts.gap,
            count: contexts.count,
            item: contexts.item,
        };
        sparse.advance()?;
        Ok(sparse)
    }

    /// Reads the next entry's gap, if any is left.
    fn advance(&mut self) -> Result<(), WireError> {
        self.next = match self.remaining {
            0 => None,
            _ => {
                self.remaining -= 1;
                let gap = self.cursor.varint(self.gap)?;
                Some(self.next.map_or(gap, |last| last.saturating_add(gap)))
            }
        };
        Ok(())
    }

    /// The items of `entity`: its entry's list when the cursor is at it,
    /// else none.
    fn items<T: ListItem<'a>>(&mut self, entity: u64) -> Result<List<'a, T>, WireError> {
        if self.next != Some(entity) {
            return Ok(List::empty(self.item));
        }
        let list = List::skim(&mut self.cursor, self.count, self.item)?;
        self.advance()?;
        Ok(list)
    }
}

/// The state is the columns beside the names.
impl<'a> SectionRecord<'a> for EntityRecord<'a> {
    const TAG: SectionTag = TAG_ENTITIES;
    type State = EntityColumns<'a>;

    fn parse(cursor: &mut Cursor<'a>, columns: &mut EntityColumns<'a>) -> Result<Self, WireError> {
        let entity = columns.entity;
        columns.entity += 1;
        Ok(Self {
            name: cursor.str("entity name")?,
            type_index: columns.next_type()?,
            aliases: columns.aliases.items(entity)?,
            attributes: columns.attributes.items(entity)?,
        })
    }
}

/// One row of section `ROWS`, its gaps added back and its documents
/// borrowed.
#[derive(Debug, Clone)]
pub struct PairRecord<'a> {
    /// The entity (row index into `ENTS`).
    pub entity: u32,
    /// Index into the property table.
    pub property: u32,
    /// Positive statement count.
    pub positive: u64,
    /// Negative statement count.
    pub negative: u64,
    /// Supporting document ids, ascending.
    pub documents: Documents<'a>,
}

impl PairRecord<'_> {
    /// The row's key and counts.
    pub fn evidence(&self) -> EvidenceRow {
        EvidenceRow {
            entity: self.entity,
            property: self.property,
            positive: self.positive,
            negative: self.negative,
        }
    }
}

/// The state is the previous row's entity, which the next one's gap is
/// added to.
impl<'a> SectionRecord<'a> for PairRecord<'a> {
    const TAG: SectionTag = TAG_ROWS;
    type State = u32;

    fn parse(cursor: &mut Cursor<'a>, last_entity: &mut u32) -> Result<Self, WireError> {
        let out_of_range = |detail| WireError::BadRecord {
            section: TAG_ROWS,
            detail,
        };
        let gap = cursor.varint("entity gap")?;
        let entity = (u32::try_from(gap).ok())
            .and_then(|gap| last_entity.checked_add(gap))
            .ok_or(out_of_range("entity out of range"))?;
        *last_entity = entity;
        let property = u32::try_from(cursor.varint("row property")?)
            .map_err(|_| out_of_range("property out of range"))?;
        let positive = cursor.varint("positive count")?;
        let negative = cursor.varint("negative count")?;
        let count = cursor.count("document count")?;
        Ok(Self {
            entity,
            property,
            positive,
            negative,
            documents: Documents::skim(cursor, count)?,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{put_u16, put_u32, put_u64, put_varint};
    use crate::encode::encode;
    use crate::snapshot::{SnapshotEntity, SnapshotProperty};

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

    /// The five canonical frames of an empty world.
    fn empty_sections() -> Vec<([u8; 4], Vec<u8>)> {
        vec![
            (*b"PROP", vec![0]),
            (*b"TYPE", vec![0]),
            (*b"ENTS", vec![0, 0, 0, 0]),
            (*b"ROWS", vec![0, 0]),
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
            sample_size: 16,
            rows: vec![PairRow {
                entity: 0,
                property: 0,
                positive: 12,
                negative: 3,
                documents: vec![5, 900, 3 << 32 | 7],
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
        }
    }

    /// The sample world with incremental state attached.
    fn incremental_sample() -> Snapshot {
        let mut snapshot = sample();
        snapshot.incremental = Some(IncrementalState {
            rho: 40,
            config_digest: 0xdead_beef_cafe_f00d,
            corpus_digest: 0x1234_5678_9abc_def0,
            ingested: vec![(0, 3), (5, 8)],
            pending: vec![3, 4],
        });
        snapshot
    }

    /// `bytes` with one more frame, `tag` around `payload`, after the
    /// frame in slot `after`, and the header's section count one higher.
    fn with_frame(bytes: &[u8], after: usize, tag: [u8; 4], payload: &[u8]) -> Vec<u8> {
        let mut at = 16;
        for _ in 0..=after {
            at += 16 + u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        }
        let mut out = bytes[..at].to_vec();
        out.extend_from_slice(&tag);
        put_u64(&mut out, payload.len() as u64);
        put_u32(&mut out, crc32(payload));
        out.extend_from_slice(payload);
        out.extend_from_slice(&bytes[at..]);
        let sections = u32::from_le_bytes(out[12..16].try_into().unwrap()) + 1;
        out[12..16].copy_from_slice(&sections.to_le_bytes());
        out
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
        // Version 1 stored decisions, versions 1 and 2 the separate
        // `EVID` and `PROV` sections, and versions 1 to 3 an `ENTS` record
        // per entity, that this reader no longer parses: each is refused,
        // never read as a version-4 file.
        for old in [1, 2, 3] {
            bytes[8] = old;
            assert_eq!(
                SnapshotReader::new(&bytes).map(|_| ()),
                Err(WireError::UnsupportedVersion {
                    found: u16::from(old)
                })
            );
        }
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
        sections.remove(3); // drop ROWS
        assert_eq!(
            SnapshotReader::new(&container(&sections)).map(|_| ()),
            Err(WireError::OutOfOrderSection { tag: TAG_MODELS })
        );
        sections.truncate(3); // PROP..ENTS only
        assert_eq!(
            SnapshotReader::new(&container(&sections)).map(|_| ()),
            Err(WireError::MissingSection { tag: TAG_ROWS })
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
        // The header still says 5 sections, so the tail is garbage.
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
        sections[3].1.push(0xaa); // ROWS declares 0 rows but has a byte
        let bytes = container(&sections);
        let reader = SnapshotReader::new(&bytes).unwrap();
        let err = reader.to_snapshot().expect_err("decoded");
        assert_eq!(
            err,
            WireError::BadRecord {
                section: TAG_ROWS,
                detail: "trailing bytes in section",
            }
        );
    }

    #[test]
    fn gaps_that_overflow_are_a_bad_record() {
        // One ROWS payload: sample size 4, then the given rows, each an
        // entity gap, property, counts and its documents' varints.
        let rows = |rows: &[(u64, u64, &[u64])]| {
            let mut payload = vec![4];
            put_varint(&mut payload, rows.len() as u64);
            for &(gap, property, documents) in rows {
                put_varint(&mut payload, gap);
                put_varint(&mut payload, property);
                payload.extend_from_slice(&[1, 0]);
                put_varint(&mut payload, documents.len() as u64 / 2);
                for &value in documents {
                    put_varint(&mut payload, value);
                }
            }
            let mut sections = empty_sections();
            sections[3].1 = payload;
            container(&sections)
        };
        let verdict = |bytes: Vec<u8>| {
            let reader = SnapshotReader::new(&bytes).unwrap();
            match reader.to_snapshot() {
                Ok(snapshot) => Ok(snapshot.rows),
                Err(WireError::BadRecord { section, detail }) => {
                    assert_eq!(section, TAG_ROWS);
                    Err(detail)
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        };
        let max = u64::from(u32::MAX);
        // The extremes decode: an entity gap of u32::MAX, the last shard
        // and local id, a shard gap that lands on u32::MAX.
        let edge = verdict(rows(&[(max, max, &[0, max, max, 0, 0, max])])).unwrap();
        assert_eq!((edge[0].entity, edge[0].property), (u32::MAX, u32::MAX));
        assert_eq!(edge[0].documents, vec![max, max << 32, u64::MAX]);
        assert_eq!(
            verdict(rows(&[(max, 0, &[]), (1, 0, &[])])),
            Err("entity out of range")
        );
        assert_eq!(
            verdict(rows(&[(max + 1, 0, &[])])),
            Err("entity out of range")
        );
        assert_eq!(
            verdict(rows(&[(0, max + 1, &[])])),
            Err("property out of range")
        );
        for documents in [
            &[max + 1, 0][..],   // a shard past u32::MAX
            &[0, max + 1],       // a local id past it
            &[max, 0, 1, 0],     // a shard gap past the last shard
            &[0, max, 0, 1],     // a local gap past the last local id
            &[5, 9, 0, max - 8], // … by one
        ] {
            assert_eq!(
                verdict(rows(&[(0, 0, documents)])),
                Err("document id out of range"),
                "{documents:?}"
            );
        }
        // A zero gap decodes: repeated ids are the loader's to refuse.
        let repeated = verdict(rows(&[(0, 0, &[2, 3, 0, 0])])).unwrap();
        assert_eq!(repeated[0].documents, vec![2 << 32 | 3, 2 << 32 | 3]);
    }

    /// The reader's verdict on a world whose `ENTS` payload is `payload`
    /// and whose one type is `city`.
    fn entity_columns(payload: Vec<u8>) -> Result<Vec<SnapshotEntity>, WireError> {
        let mut sections = empty_sections();
        sections[1].1 = vec![1, 4, b'c', b'i', b't', b'y', 0, 0];
        sections[2].1 = payload;
        let bytes = container(&sections);
        SnapshotReader::new(&bytes)?
            .to_snapshot()
            .map(|snapshot| snapshot.entities)
    }

    /// An `ENTS` payload: the entity count, the runs, the alias and
    /// attribute columns as raw varints, then one-letter names.
    fn columns(count: u64, runs: &[(u64, u64)], aliases: &[u64], attributes: &[u64]) -> Vec<u8> {
        let mut payload = Vec::new();
        put_varint(&mut payload, count);
        put_varint(&mut payload, runs.len() as u64);
        for &(type_index, length) in runs {
            put_varint(&mut payload, type_index);
            put_varint(&mut payload, length);
        }
        for &value in aliases.iter().chain(attributes) {
            put_varint(&mut payload, value);
        }
        for _ in 0..count.min(64) {
            payload.extend_from_slice(&[1, b'e']);
        }
        payload
    }

    #[test]
    fn entity_columns_are_read_in_step() {
        // Entities 0 and 2 have aliases, 1 and 2 attributes; two runs.
        let mut payload = columns(3, &[(0, 2), (0, 1)], &[], &[]);
        payload.truncate(6);
        payload.extend_from_slice(&[2, 0, 1, 1, b'a', 2, 2, 1, b'b', 1, b'c']);
        payload.extend_from_slice(&[2, 1, 1, 1, b'k']);
        payload.extend_from_slice(&4.0f64.to_bits().to_le_bytes());
        payload.extend_from_slice(&[1, 1, 1, b'j']);
        payload.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        payload.extend_from_slice(&[1, b'x', 1, b'y', 1, b'z']);
        let entities = entity_columns(payload).unwrap();
        let owned = |name: &str, aliases: &[&str], attributes: &[(&str, f64)]| SnapshotEntity {
            name: name.into(),
            aliases: aliases.iter().map(|&a| a.into()).collect(),
            type_index: 0,
            attributes: attributes.iter().map(|&(k, v)| (k.into(), v)).collect(),
        };
        assert_eq!(
            entities,
            vec![
                owned("x", &["a"], &[]),
                owned("y", &[], &[("k", 4.0)]),
                owned("z", &["b", "c"], &[("j", 0.5)]),
            ]
        );
    }

    #[test]
    fn entity_columns_that_break_a_rule_are_a_bad_record() {
        let bad = |payload| match entity_columns(payload) {
            Err(WireError::BadRecord { section, detail }) => {
                assert_eq!(section, TAG_ENTITIES);
                detail
            }
            other => panic!("expected BadRecord, got {other:?}"),
        };
        // Type runs must cover the entities exactly, one or more each.
        assert_eq!(
            bad(columns(2, &[(0, 3)], &[0], &[0])),
            "type runs past the entity count"
        );
        assert_eq!(
            bad(columns(2, &[(0, 1), (0, u64::MAX)], &[0], &[0])),
            "type runs past the entity count"
        );
        assert_eq!(
            bad(columns(2, &[(0, 1)], &[0], &[0])),
            "type runs short of the entity count"
        );
        assert_eq!(
            bad(columns(2, &[(0, 0), (0, 2)], &[0], &[0])),
            "zero-length type run"
        );
        assert_eq!(
            bad(columns(1, &[(1 << 32, 1)], &[0], &[0])),
            "type index out of range"
        );
        // Sparse entries name ascending entities below the count, each
        // with at least one item.
        let alias = |gap| [gap, 1, 1, u64::from(b'a')];
        let two = |first: [u64; 4], second: [u64; 4]| {
            let mut entries = vec![2];
            entries.extend(first.iter().chain(&second));
            entries
        };
        assert_eq!(
            bad(columns(2, &[(0, 2)], &two(alias(1), alias(1)), &[0])),
            "alias entity past the entity count"
        );
        assert_eq!(
            bad(columns(2, &[(0, 2)], &[1, u64::MAX, 1, 1, 97], &[0])),
            "alias entity past the entity count"
        );
        assert_eq!(
            bad(columns(2, &[(0, 2)], &two(alias(1), alias(0)), &[0])),
            "alias entities not ascending"
        );
        assert_eq!(
            bad(columns(2, &[(0, 2)], &[1, 0, 0], &[0])),
            "alias entry with no aliases"
        );
        assert_eq!(
            bad(columns(2, &[(0, 2)], &[0], &[1, 2, 1, 1, 107])),
            "attribute entity past the entity count"
        );
        // An attribute is its key and eight bytes of value.
        let attribute = [1, 1, 1, 107, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut repeated = vec![2];
        repeated.extend(attribute.iter().chain(&[0]).chain(&attribute[1..]));
        assert_eq!(
            bad(columns(2, &[(0, 2)], &[0], &repeated)),
            "attribute entities not ascending"
        );
        assert_eq!(
            bad(columns(2, &[(0, 2)], &[0], &[1, 0, 0])),
            "attribute entry with no attributes"
        );
        // A name left over once every entity has one.
        let mut payload = columns(1, &[(0, 1)], &[0], &[0]);
        payload.extend_from_slice(&[1, b'e']);
        assert_eq!(bad(payload), "trailing bytes in section");
        // The valid neighbours of these files read.
        assert_eq!(
            entity_columns(columns(2, &[(0, 1), (0, 1)], &[0], &[0]))
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            entity_columns(columns(2, &[(0, 2)], &two(alias(0), alias(1)), &[0])).unwrap()[1]
                .aliases,
            vec!["a".to_owned()]
        );
    }

    #[test]
    fn entity_counts_past_the_section_are_refused_without_allocating() {
        let refused = |payload| match entity_columns(payload) {
            Err(WireError::BadVarint { context }) => context,
            other => panic!("expected BadVarint, got {other:?}"),
        };
        let huge = u64::MAX >> 1;
        let mut payload = Vec::new();
        put_varint(&mut payload, huge);
        assert_eq!(refused(payload), "entity count");
        assert_eq!(
            refused(
                columns(1, &[], &[], &[])
                    .into_iter()
                    .take(1)
                    .chain([100])
                    .collect()
            ),
            "type run count"
        );
        assert_eq!(
            refused(columns(1, &[(0, 1)], &[huge], &[0])),
            "alias entry count"
        );
        assert_eq!(
            refused(columns(1, &[(0, 1)], &[1, 0, huge], &[0])),
            "alias count"
        );
        assert_eq!(
            refused(columns(1, &[(0, 1)], &[0], &[huge])),
            "attribute entry count"
        );
        assert_eq!(
            refused(columns(1, &[(0, 1)], &[0], &[1, 0, huge])),
            "attribute count"
        );
    }

    #[test]
    fn impossible_record_count_is_rejected_without_allocating() {
        let mut sections = empty_sections();
        // ROWS claims u64::MAX rows in an 11-byte payload.
        let mut payload = vec![0];
        put_varint(&mut payload, u64::MAX);
        sections[3].1 = payload;
        assert_eq!(
            SnapshotReader::new(&container(&sections)).map(|_| ()),
            Err(WireError::BadVarint {
                context: "row count"
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
        assert_eq!(reader.sample_size(), 16);
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
        let row = reader.rows().next().unwrap().unwrap();
        assert_eq!((row.entity, row.positive, row.negative), (0, 12, 3));
        assert_eq!(row.documents.len(), 3);
        assert_eq!(
            row.documents.collect::<Result<Vec<_>, _>>(),
            Ok(vec![5, 900, 3 << 32 | 7])
        );
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
        assert_eq!(tags, ["PROP", "TYPE", "ENTS", "ROWS", "MODL", "INCR"]);
        // A model row is its key, three parameters, a one-byte iteration
        // count, the code and the likelihood: 42 bytes and a count byte.
        assert_eq!(sizes[4].1, 1 + 42);
        // The row: entity gap, property, two counts and a document count
        // (one byte each), then the documents as (shard gap, local) pairs:
        // (0, 5), (0, 895 in two bytes), (3, 7). After the sample size
        // and the row count, 14 bytes.
        assert_eq!(sizes[3].1, 2 + 5 + 2 + 3 + 2);
    }

    #[test]
    fn incremental_snapshot_round_trips() {
        let snapshot = incremental_sample();
        let bytes = encode(&snapshot);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
        assert_eq!(encode(&decoded), bytes);

        let reader = SnapshotReader::new(&bytes).unwrap();
        let state = reader.incremental().unwrap().unwrap();
        assert_eq!(state, snapshot.incremental.clone().unwrap());
    }

    #[test]
    fn plain_snapshot_encodes_five_sections() {
        // Without incremental state the byte stream is the five required
        // sections alone.
        let bytes = encode(&sample());
        assert_eq!(&bytes[12..16], &5u32.to_le_bytes());
        let reader = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(reader.incremental().unwrap(), None);
    }

    #[test]
    fn optional_sections_may_appear_independently() {
        // `INCR` present or absent, and a retired `GRPF` frame after the
        // last section or not: four files, two snapshots.
        for snapshot in [sample(), incremental_sample()] {
            let bytes = encode(&snapshot);
            let last = snapshot.incremental.map_or(4, |_| 5);
            let old = with_frame(&bytes, last, *b"GRPF", &[0]);
            assert_eq!(decode(&old).unwrap(), decode(&bytes).unwrap());
        }
    }

    #[test]
    fn duplicate_and_misordered_optional_sections_are_rejected() {
        // The canonical layout reads.
        SnapshotReader::new(&encode(&incremental_sample())).unwrap();

        // Rebuild the raw frames so they can be rearranged: required
        // five from the empty world plus a handcrafted INCR.
        let incr_payload = || {
            let mut p = vec![0]; // rho = 0
            put_u64(&mut p, 0); // config digest
            put_u64(&mut p, 0); // corpus digest
            p.push(0); // no ingested ranges
            p.push(0); // no pending shards
            p
        };

        let mut sections = empty_sections();
        sections.push((*b"INCR", incr_payload()));
        sections.push((*b"INCR", incr_payload()));
        assert_eq!(
            SnapshotReader::new(&container(&sections)).map(|_| ()),
            Err(WireError::DuplicateSection {
                tag: TAG_INCREMENTAL
            })
        );

        // An optional section before the required five is out of order
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
    }

    #[test]
    fn a_retired_grpf_frame_is_skipped_unparsed() {
        // Rows that the record parser this format used to have refused
        // (a key twice), and a payload that is no rows at all: each is
        // skipped after its checksum, wherever the frame stands — also
        // before `INCR`, where that parser's reader refused it as out of
        // order.
        let mut rows = Vec::new();
        put_varint(&mut rows, 2);
        for _ in 0..2 {
            put_u32(&mut rows, 0); // type index
            put_u32(&mut rows, 7); // property (repeated key)
            put_varint(&mut rows, 1);
            put_varint(&mut rows, 1);
            put_u64(&mut rows, 99);
        }
        let bytes = encode(&incremental_sample());
        for payload in [rows, vec![0xff; 3], vec![]] {
            for after in [0, 4, 5] {
                let old = with_frame(&bytes, after, *b"GRPF", &payload);
                assert_eq!(decode(&old).unwrap(), incremental_sample(), "{after}");
            }
        }
        // Its checksum is still checked.
        let mut damaged = with_frame(&bytes, 5, *b"GRPF", &[1, 2, 3]);
        let last = damaged.len() - 1;
        damaged[last] ^= 1;
        assert!(matches!(
            SnapshotReader::new(&damaged),
            Err(WireError::CrcMismatch { tag, .. }) if tag.0 == *b"GRPF"
        ));
    }
}
