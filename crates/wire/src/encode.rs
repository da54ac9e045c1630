//! The snapshot writer.
//!
//! One writer owns everything about the bytes: the header and its section
//! count, each section's frame and CRC, every record's layout, the buffer
//! reservation, and the `GRPF` fold. It reads its records from a
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
    SectionTag, TAG_ENTITIES, TAG_EVIDENCE, TAG_FINGERPRINTS, TAG_INCREMENTAL, TAG_MODELS,
    TAG_PROPERTIES, TAG_PROVENANCE, TAG_TYPES,
};
use crate::snapshot::{
    group_fingerprints, EvidenceRow, GroupFingerprintRow, GroupFingerprinter, IncrementalState,
    ModelRow, ProvenanceRow, Snapshot, SnapshotEntity, SnapshotProperty, SnapshotType,
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
    /// `EVID` rows, sorted by `(entity, property)`.
    fn evidence(&self) -> impl ExactSizeIterator<Item = EvidenceRow>;
    /// `PROV`'s sample bound (documents kept per pair).
    fn provenance_sample_size(&self) -> u64;
    /// `PROV` rows as `(entity, property, documents)`, sorted by
    /// `(entity, property)`, documents ascending.
    fn provenance(&self) -> impl ExactSizeIterator<Item = (u32, u32, &[u64])>;
    /// `MODL` rows, sorted by `(type_index, property)`.
    fn models(&self) -> impl ExactSizeIterator<Item = ModelRow>;
    /// The `INCR` section's state; `None` writes no `INCR`.
    fn incremental(&self) -> Option<&IncrementalState>;
    /// Where the `GRPF` rows come from.
    fn fingerprints(&self) -> Fingerprints<'_>;
}

/// The origin of a snapshot's `GRPF` rows. Either way the section is
/// written only when it has rows.
#[derive(Debug, Clone, Copy)]
pub enum Fingerprints<'a> {
    /// These rows, as stored (an owned [`Snapshot`]'s, verified or not).
    Stored(&'a [GroupFingerprintRow]),
    /// Folded with [`GroupFingerprinter`] from the `EVID` rows as they are
    /// written, each with its entity's type from the `ENTS` rows written
    /// before them — no second pass over the evidence. A row whose entity
    /// is out of range is skipped, as [`crate::group_fingerprints`] skips
    /// it.
    Folded,
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

    fn evidence(&self) -> impl ExactSizeIterator<Item = EvidenceRow> {
        self.evidence.iter().copied()
    }

    fn provenance_sample_size(&self) -> u64 {
        self.provenance_sample_size
    }

    fn provenance(&self) -> impl ExactSizeIterator<Item = (u32, u32, &[u64])> {
        (self.provenance.iter()).map(|row| (row.entity, row.property, row.documents.as_slice()))
    }

    fn models(&self) -> impl ExactSizeIterator<Item = ModelRow> {
        self.models.iter().cloned()
    }

    fn incremental(&self) -> Option<&IncrementalState> {
        self.incremental.as_ref()
    }

    fn fingerprints(&self) -> Fingerprints<'_> {
        Fingerprints::Stored(&self.fingerprints)
    }
}

impl Snapshot {
    /// The owned form of what [`write_snapshot`] writes from `source`:
    /// `decode(&write_snapshot(source))` equals it.
    pub fn from_source(source: &impl SnapshotSource) -> Self {
        let mut snapshot = Snapshot {
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
            evidence: source.evidence().collect(),
            provenance_sample_size: source.provenance_sample_size(),
            provenance: (source.provenance())
                .map(|(entity, property, documents)| ProvenanceRow {
                    entity,
                    property,
                    documents: documents.to_vec(),
                })
                .collect(),
            models: source.models().collect(),
            incremental: source.incremental().cloned(),
            fingerprints: Vec::new(),
        };
        snapshot.fingerprints = match source.fingerprints() {
            Fingerprints::Stored(rows) => rows.to_vec(),
            Fingerprints::Folded => group_fingerprints(&snapshot),
        };
        snapshot
    }
}

/// Encodes an owned snapshot: [`write_snapshot`] fed from it, `GRPF` from its
/// stored [`Snapshot::fingerprints`].
pub fn encode(snapshot: &Snapshot) -> Vec<u8> {
    write_snapshot(snapshot)
}

/// Writes a snapshot in the wire format of [`FORMAT_VERSION`].
///
/// The six required sections are always written; the optional `INCR` and
/// `GRPF` follow only when [`SnapshotSource::incremental`] is set or the
/// fingerprint rows are non-empty, and the header counts what was written.
///
/// Every section is written straight into the output buffer behind a
/// placeholder frame; its length and CRC are patched in once the payload
/// is there, so no payload is built in a buffer of its own and copied.
pub fn write_snapshot(source: &impl SnapshotSource) -> Vec<u8> {
    let fingerprints = source.fingerprints();
    let fold = matches!(fingerprints, Fingerprints::Folded);
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
    // The fold needs each evidence row's entity type: kept from here.
    let mut entity_types = Vec::new();
    w.section(TAG_ENTITIES, |buf| {
        let entities = source.entities();
        put_varint(buf, entities.len() as u64);
        if fold {
            entity_types.reserve_exact(entities.len());
        }
        for (name, aliases, type_index, attributes) in entities {
            put_str(buf, name);
            put_strs(buf, aliases);
            put_u32(buf, type_index);
            put_varint(buf, attributes.len() as u64);
            for (key, value) in attributes {
                put_str(buf, key);
                put_f64(buf, value);
            }
            if fold {
                entity_types.push(type_index);
            }
        }
    });
    let mut fingerprinter = fold.then(GroupFingerprinter::new);
    w.section(TAG_EVIDENCE, |buf| {
        let evidence = source.evidence();
        put_varint(buf, evidence.len() as u64);
        for row in evidence {
            put_u32(buf, row.entity);
            put_u32(buf, row.property);
            put_varint(buf, row.positive);
            put_varint(buf, row.negative);
            if let Some(fingerprinter) = &mut fingerprinter {
                if let Some(&type_index) = entity_types.get(row.entity as usize) {
                    fingerprinter.add(type_index, &row);
                }
            }
        }
    });
    w.section(TAG_PROVENANCE, |buf| {
        put_varint(buf, source.provenance_sample_size());
        let provenance = source.provenance();
        put_varint(buf, provenance.len() as u64);
        for (entity, property, documents) in provenance {
            put_u32(buf, entity);
            put_u32(buf, property);
            put_varint(buf, documents.len() as u64);
            for &doc in documents {
                put_varint(buf, doc);
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
    let folded = fingerprinter.map(GroupFingerprinter::finish);
    let rows = match fingerprints {
        Fingerprints::Stored(rows) => rows,
        Fingerprints::Folded => folded.as_deref().unwrap_or_default(),
    };
    if !rows.is_empty() {
        w.section(TAG_FINGERPRINTS, |buf| {
            put_varint(buf, rows.len() as u64);
            for row in rows {
                put_u32(buf, row.type_index);
                put_u32(buf, row.property);
                put_varint(buf, row.entities);
                put_varint(buf, row.total);
                put_u64(buf, row.fingerprint);
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
    let fingerprints = match source.fingerprints() {
        Fingerprints::Stored(rows) => rows.len(),
        Fingerprints::Folded => source.models().len(),
    };
    16 + 8 * 16
        + source.properties().len() * 16
        + source.types().len() * 64
        + source.entities().len() * 48
        + source.evidence().len() * 10
        + source.provenance().len() * 20
        + source.models().len() * 44
        + fingerprints * 20
}
