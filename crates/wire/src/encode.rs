//! The snapshot encoder.
//!
//! Encoding is infallible and deterministic: the same [`Snapshot`] value
//! always produces the same bytes, because every collection in the model
//! carries an explicit, sorted order (see the invariants on [`Snapshot`]).

use crate::crc32::crc32;
use crate::cursor::{put_f64, put_str, put_u16, put_u32, put_u64, put_varint};
use crate::section::{
    SectionTag, TAG_ENTITIES, TAG_EVIDENCE, TAG_FINGERPRINTS, TAG_INCREMENTAL, TAG_MODELS,
    TAG_PROPERTIES, TAG_PROVENANCE, TAG_TYPES,
};
use crate::snapshot::Snapshot;
use crate::{FORMAT_VERSION, MAGIC};

/// Encodes a snapshot into the wire format of [`FORMAT_VERSION`].
///
/// The six required sections are always emitted; the optional `INCR`
/// and `GRPF` sections follow only when [`Snapshot::incremental`] is set
/// or [`Snapshot::fingerprints`] is non-empty.
///
/// Every section is written straight into the output buffer behind a
/// placeholder frame; its length and CRC are patched in once the payload
/// is there, so no payload is built in a buffer of its own and copied.
pub fn encode(snapshot: &Snapshot) -> Vec<u8> {
    let section_count = 6
        + u32::from(snapshot.incremental.is_some())
        + u32::from(!snapshot.fingerprints.is_empty());
    let mut out = Vec::with_capacity(size_hint(snapshot));
    out.extend_from_slice(&MAGIC);
    put_u16(&mut out, FORMAT_VERSION);
    put_u16(&mut out, 0); // reserved
    put_u32(&mut out, section_count);
    section(&mut out, TAG_PROPERTIES, snapshot, encode_properties);
    section(&mut out, TAG_TYPES, snapshot, encode_types);
    section(&mut out, TAG_ENTITIES, snapshot, encode_entities);
    section(&mut out, TAG_EVIDENCE, snapshot, encode_evidence);
    section(&mut out, TAG_PROVENANCE, snapshot, encode_provenance);
    section(&mut out, TAG_MODELS, snapshot, encode_models);
    if snapshot.incremental.is_some() {
        section(&mut out, TAG_INCREMENTAL, snapshot, encode_incremental);
    }
    if !snapshot.fingerprints.is_empty() {
        section(&mut out, TAG_FINGERPRINTS, snapshot, encode_fingerprints);
    }
    out
}

/// Appends one framed section: tag, payload length, CRC-32, payload.
fn section(
    out: &mut Vec<u8>,
    tag: SectionTag,
    snapshot: &Snapshot,
    payload: fn(&mut Vec<u8>, &Snapshot),
) {
    out.extend_from_slice(&tag.0);
    let frame = out.len();
    out.extend_from_slice(&[0; 12]); // length + checksum, patched below
    let start = out.len();
    payload(out, snapshot);
    let len = (out.len() - start) as u64;
    let crc = crc32(&out[start..]);
    out[frame..frame + 8].copy_from_slice(&len.to_le_bytes());
    out[frame + 8..start].copy_from_slice(&crc.to_le_bytes());
}

/// A cheap estimate of the encoded size, from row counts and typical row
/// widths, so the output buffer starts near its final size instead of
/// doubling its way up from empty. Only a capacity: a low estimate costs a
/// reallocation, a high one some slack.
fn size_hint(snapshot: &Snapshot) -> usize {
    16 + 8 * 16
        + snapshot.properties.len() * 16
        + snapshot.types.len() * 64
        + snapshot.entities.len() * 48
        + snapshot.evidence.len() * 10
        + snapshot.provenance.len() * 20
        + snapshot.models.len() * 44
        + snapshot.fingerprints.len() * 20
}

fn encode_properties(buf: &mut Vec<u8>, snapshot: &Snapshot) {
    put_varint(buf, snapshot.properties.len() as u64);
    for property in &snapshot.properties {
        put_varint(buf, property.adverbs.len() as u64);
        for adverb in &property.adverbs {
            put_str(buf, adverb);
        }
        put_str(buf, &property.adjective);
    }
}

fn encode_types(buf: &mut Vec<u8>, snapshot: &Snapshot) {
    put_varint(buf, snapshot.types.len() as u64);
    for t in &snapshot.types {
        put_str(buf, &t.name);
        put_varint(buf, t.head_nouns.len() as u64);
        for noun in &t.head_nouns {
            put_str(buf, noun);
        }
        put_varint(buf, t.context_cues.len() as u64);
        for cue in &t.context_cues {
            put_str(buf, cue);
        }
    }
}

fn encode_entities(buf: &mut Vec<u8>, snapshot: &Snapshot) {
    put_varint(buf, snapshot.entities.len() as u64);
    for entity in &snapshot.entities {
        put_str(buf, &entity.name);
        put_varint(buf, entity.aliases.len() as u64);
        for alias in &entity.aliases {
            put_str(buf, alias);
        }
        put_u32(buf, entity.type_index);
        put_varint(buf, entity.attributes.len() as u64);
        for (key, value) in &entity.attributes {
            put_str(buf, key);
            put_f64(buf, *value);
        }
    }
}

fn encode_evidence(buf: &mut Vec<u8>, snapshot: &Snapshot) {
    put_varint(buf, snapshot.evidence.len() as u64);
    for row in &snapshot.evidence {
        put_u32(buf, row.entity);
        put_u32(buf, row.property);
        put_varint(buf, row.positive);
        put_varint(buf, row.negative);
    }
}

fn encode_provenance(buf: &mut Vec<u8>, snapshot: &Snapshot) {
    put_varint(buf, snapshot.provenance_sample_size);
    put_varint(buf, snapshot.provenance.len() as u64);
    for row in &snapshot.provenance {
        put_u32(buf, row.entity);
        put_u32(buf, row.property);
        put_varint(buf, row.documents.len() as u64);
        for &doc in &row.documents {
            put_varint(buf, doc);
        }
    }
}

fn encode_models(buf: &mut Vec<u8>, snapshot: &Snapshot) {
    put_varint(buf, snapshot.models.len() as u64);
    for row in &snapshot.models {
        put_u32(buf, row.type_index);
        put_u32(buf, row.property);
        put_f64(buf, row.p_agree);
        put_f64(buf, row.rate_pos);
        put_f64(buf, row.rate_neg);
        put_varint(buf, row.iterations);
        buf.push(row.converged);
        put_f64(buf, row.log_likelihood);
    }
}

fn encode_incremental(buf: &mut Vec<u8>, snapshot: &Snapshot) {
    let Some(state) = &snapshot.incremental else {
        // Unreachable in practice: the caller gates on `is_some`.
        return;
    };
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
}

fn encode_fingerprints(buf: &mut Vec<u8>, snapshot: &Snapshot) {
    put_varint(buf, snapshot.fingerprints.len() as u64);
    for row in &snapshot.fingerprints {
        put_u32(buf, row.type_index);
        put_u32(buf, row.property);
        put_varint(buf, row.entities);
        put_varint(buf, row.total);
        put_u64(buf, row.fingerprint);
    }
}
