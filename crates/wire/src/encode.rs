//! The snapshot writer.
//!
//! One writer owns everything about the bytes: the header and its section
//! count, each section's frame and CRC, every record's layout, and the
//! buffer reservation. It reads its records from a
//! [`SnapshotSource`] — borrowed, section by section, in on-disk order —
//! so a producer that holds its world in other shapes (the pipeline's
//! knowledge base and tables) writes bytes without building an owned
//! [`Snapshot`] first, and [`encode`] is the same writer fed from one.
//!
//! Writing is infallible and deterministic: the bytes are a function of
//! the records the source yields, and every section carries an explicit,
//! sorted order (see the invariants on [`Snapshot`]).

use crate::crc32::crc32;
use crate::cursor::{put_f64, put_str, put_u16, put_u32, put_u64, put_varint};
use crate::section::{
    SectionTag, TAG_ENTITIES, TAG_INCREMENTAL, TAG_MODELS, TAG_PROPERTIES, TAG_ROWS, TAG_TYPES,
};
use crate::snapshot::{
    EvidenceRow, IncrementalState, ModelRow, PairRow, Snapshot, SnapshotEntity, SnapshotProperty,
    SnapshotType,
};
use crate::{FORMAT_VERSION, MAGIC};

/// A snapshot as [`write_snapshot`] reads it: each section's records, borrowed, in
/// the order they go on disk. Every sequence must already satisfy the
/// ordering invariants documented on [`Snapshot`]; the writer does not
/// sort.
pub trait SnapshotSource {
    /// `PROP`: each property's adverbs and adjective, sorted and
    /// deduplicated.
    fn properties(&self) -> impl ExactSizeIterator<Item = (&[String], &str)>;
    /// `TYPE`: each type's name, head nouns and context cues.
    fn types(&self) -> impl ExactSizeIterator<Item = (&str, &[String], &[String])>;
    /// `ENTS`: each entity's name, aliases, type index and attributes
    /// (sorted by key); the row number is the entity id.
    fn entities(
        &self,
    ) -> impl ExactSizeIterator<
        Item = (
            &str,
            &[String],
            u32,
            impl ExactSizeIterator<Item = (&str, f64)>,
        ),
    >;
    /// The document sample bound (documents kept per pair).
    fn sample_size(&self) -> u64;
    /// `ROWS`: each pair's counters and documents, sorted by
    /// `(entity, property)` with no pair twice, documents strictly
    /// ascending. Rows and documents are written as gaps from the one
    /// before, so the bytes of a source out of this order do not decode.
    fn rows(&self) -> impl ExactSizeIterator<Item = (EvidenceRow, &[u64])>;
    /// `MODL` rows, sorted by `(type_index, property)`.
    fn models(&self) -> impl ExactSizeIterator<Item = ModelRow>;
    /// The `INCR` section's state; `None` writes no `INCR`.
    fn incremental(&self) -> Option<&IncrementalState>;
}

impl SnapshotSource for Snapshot {
    fn properties(&self) -> impl ExactSizeIterator<Item = (&[String], &str)> {
        (self.properties.iter()).map(|p| (p.adverbs.as_slice(), p.adjective.as_str()))
    }

    fn types(&self) -> impl ExactSizeIterator<Item = (&str, &[String], &[String])> {
        (self.types.iter()).map(|t| {
            (
                t.name.as_str(),
                t.head_nouns.as_slice(),
                t.context_cues.as_slice(),
            )
        })
    }

    fn entities(
        &self,
    ) -> impl ExactSizeIterator<
        Item = (
            &str,
            &[String],
            u32,
            impl ExactSizeIterator<Item = (&str, f64)>,
        ),
    > {
        self.entities.iter().map(|e| {
            (
                e.name.as_str(),
                e.aliases.as_slice(),
                e.type_index,
                (e.attributes.iter()).map(|(key, value)| (key.as_str(), *value)),
            )
        })
    }

    fn sample_size(&self) -> u64 {
        self.sample_size
    }

    fn rows(&self) -> impl ExactSizeIterator<Item = (EvidenceRow, &[u64])> {
        (self.rows.iter()).map(|row| (row.evidence(), row.documents.as_slice()))
    }

    fn models(&self) -> impl ExactSizeIterator<Item = ModelRow> {
        self.models.iter().cloned()
    }

    fn incremental(&self) -> Option<&IncrementalState> {
        self.incremental.as_ref()
    }
}

impl Snapshot {
    /// The owned form of what [`write_snapshot`] writes from `source`:
    /// `decode(&write_snapshot(source))` equals it.
    pub fn from_source(source: &impl SnapshotSource) -> Self {
        Snapshot {
            properties: (source.properties())
                .map(|(adverbs, adjective)| SnapshotProperty {
                    adverbs: adverbs.to_vec(),
                    adjective: adjective.to_owned(),
                })
                .collect(),
            types: (source.types())
                .map(|(name, head_nouns, context_cues)| SnapshotType {
                    name: name.to_owned(),
                    head_nouns: head_nouns.to_vec(),
                    context_cues: context_cues.to_vec(),
                })
                .collect(),
            entities: (source.entities())
                .map(|(name, aliases, type_index, attributes)| SnapshotEntity {
                    name: name.to_owned(),
                    aliases: aliases.to_vec(),
                    type_index,
                    attributes: (attributes.map(|(key, value)| (key.to_owned(), value))).collect(),
                })
                .collect(),
            sample_size: source.sample_size(),
            rows: (source.rows())
                .map(|(row, documents)| PairRow {
                    entity: row.entity,
                    property: row.property,
                    positive: row.positive,
                    negative: row.negative,
                    documents: documents.to_vec(),
                })
                .collect(),
            models: source.models().collect(),
            incremental: source.incremental().cloned(),
        }
    }
}

/// Encodes an owned snapshot: [`write_snapshot`] fed from it.
pub fn encode(snapshot: &Snapshot) -> Vec<u8> {
    write_snapshot(snapshot)
}

/// Writes a snapshot in the wire format of [`FORMAT_VERSION`].
///
/// The five required sections are always written; the optional `INCR`
/// follows only when [`SnapshotSource::incremental`] is set, and the
/// header counts what was written.
///
/// Every section is written straight into the output buffer behind a
/// placeholder frame; its length and CRC are patched in once the payload
/// is there, so no payload is built in a buffer of its own and copied.
pub fn write_snapshot(source: &impl SnapshotSource) -> Vec<u8> {
    let mut w = Writer {
        out: Vec::with_capacity(size_hint(source)),
        sections: 0,
    };
    w.out.extend_from_slice(&MAGIC);
    put_u16(&mut w.out, FORMAT_VERSION);
    put_u16(&mut w.out, 0); // reserved
    put_u32(&mut w.out, 0); // section count, patched below

    w.section(TAG_PROPERTIES, |buf| {
        let properties = source.properties();
        put_varint(buf, properties.len() as u64);
        for (adverbs, adjective) in properties {
            put_strs(buf, adverbs);
            put_str(buf, adjective);
        }
    });
    w.section(TAG_TYPES, |buf| {
        let types = source.types();
        put_varint(buf, types.len() as u64);
        for (name, head_nouns, context_cues) in types {
            put_str(buf, name);
            put_strs(buf, head_nouns);
            put_strs(buf, context_cues);
        }
    });
    w.section(TAG_ENTITIES, |buf| {
        // One pass fills the four columns; the names, the bulk, go last.
        let entities = source.entities();
        put_varint(buf, entities.len() as u64);
        let mut names = Vec::with_capacity(entities.len() * 16);
        let mut runs: Vec<(u32, u64)> = Vec::new();
        let (mut aliases, mut attribute_lists) = (Sparse::default(), Sparse::default());
        for (entity, (name, entity_aliases, type_index, attributes)) in entities.enumerate() {
            put_str(&mut names, name);
            match runs.last_mut() {
                Some((run_type, length)) if *run_type == type_index => *length += 1,
                _ => runs.push((type_index, 1)),
            }
            if !entity_aliases.is_empty() {
                put_strs(aliases.entry(entity as u64), entity_aliases);
            }
            if attributes.len() > 0 {
                let list = attribute_lists.entry(entity as u64);
                put_varint(list, attributes.len() as u64);
                for (key, value) in attributes {
                    put_str(list, key);
                    put_f64(list, value);
                }
            }
        }
        put_varint(buf, runs.len() as u64);
        for (type_index, length) in runs {
            put_varint(buf, u64::from(type_index));
            put_varint(buf, length);
        }
        aliases.write(buf);
        attribute_lists.write(buf);
        buf.extend_from_slice(&names);
    });
    w.section(TAG_ROWS, |buf| {
        put_varint(buf, source.sample_size());
        let rows = source.rows();
        put_varint(buf, rows.len() as u64);
        let mut entity = 0u32;
        for (row, documents) in rows {
            // Wrapping gaps: a source out of order writes a gap no decoder
            // can add back without overflow, never a panic here.
            put_varint(buf, u64::from(row.entity.wrapping_sub(entity)));
            entity = row.entity;
            put_varint(buf, u64::from(row.property));
            put_varint(buf, row.positive);
            put_varint(buf, row.negative);
            put_varint(buf, documents.len() as u64);
            let (mut shard, mut local) = (0u32, 0u32);
            for &document in documents {
                let (next_shard, next_local) = ((document >> 32) as u32, document as u32);
                let shard_gap = next_shard.wrapping_sub(shard);
                let local_gap = match shard_gap {
                    0 => next_local.wrapping_sub(local),
                    _ => next_local,
                };
                put_varint(buf, u64::from(shard_gap));
                put_varint(buf, u64::from(local_gap));
                (shard, local) = (next_shard, next_local);
            }
        }
    });
    w.section(TAG_MODELS, |buf| {
        let models = source.models();
        put_varint(buf, models.len() as u64);
        for row in models {
            put_u32(buf, row.type_index);
            put_u32(buf, row.property);
            put_f64(buf, row.p_agree);
            put_f64(buf, row.rate_pos);
            put_f64(buf, row.rate_neg);
            put_varint(buf, row.iterations);
            buf.push(row.converged);
            put_f64(buf, row.log_likelihood);
        }
    });
    if let Some(state) = source.incremental() {
        w.section(TAG_INCREMENTAL, |buf| {
            put_varint(buf, state.rho);
            put_u64(buf, state.config_digest);
            put_u64(buf, state.corpus_digest);
            put_varint(buf, state.ingested.len() as u64);
            for &(start, end) in &state.ingested {
                put_varint(buf, start);
                put_varint(buf, end);
            }
            put_varint(buf, state.pending.len() as u64);
            for &shard in &state.pending {
                put_varint(buf, shard);
            }
        });
    }

    let sections = w.sections;
    w.out[12..16].copy_from_slice(&sections.to_le_bytes());
    w.out
}

/// The output buffer and how many sections it holds.
struct Writer {
    out: Vec<u8>,
    sections: u32,
}

impl Writer {
    /// Appends one framed section: tag, payload length, CRC-32, payload.
    fn section(&mut self, tag: SectionTag, payload: impl FnOnce(&mut Vec<u8>)) {
        let out = &mut self.out;
        out.extend_from_slice(&tag.0);
        let frame = out.len();
        out.extend_from_slice(&[0; 12]); // length + checksum, patched below
        let start = out.len();
        payload(out);
        let len = (out.len() - start) as u64;
        let crc = crc32(&out[start..]);
        out[frame..frame + 8].copy_from_slice(&len.to_le_bytes());
        out[frame + 8..start].copy_from_slice(&crc.to_le_bytes());
        self.sections += 1;
    }
}

/// A sparse column of `ENTS` being written: its entries' bytes, how many
/// there are, and the entity of the last one, which the next one's gap is
/// taken from.
#[derive(Default)]
struct Sparse {
    entries: u64,
    last: u64,
    bytes: Vec<u8>,
}

impl Sparse {
    /// Starts `entity`'s entry and returns the buffer its list goes in.
    fn entry(&mut self, entity: u64) -> &mut Vec<u8> {
        put_varint(&mut self.bytes, entity - self.last);
        (self.entries, self.last) = (self.entries + 1, entity);
        &mut self.bytes
    }

    /// Appends the column: its entry count, then the entries.
    fn write(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.entries);
        buf.extend_from_slice(&self.bytes);
    }
}

/// A counted list of strings.
fn put_strs(buf: &mut Vec<u8>, strings: &[String]) {
    put_varint(buf, strings.len() as u64);
    for s in strings {
        put_str(buf, s);
    }
}

/// A cheap estimate of the encoded size, from row counts and typical row
/// widths, so the output buffer starts near its final size instead of
/// doubling its way up from empty. Only a capacity: a low estimate costs a
/// reallocation, a high one some slack.
fn size_hint(source: &impl SnapshotSource) -> usize {
    16 + 6 * 16
        + source.properties().len() * 16
        + source.types().len() * 64
        + source.entities().len() * 24
        + source.rows().len() * 14
        + source.models().len() * 44
}
