//! Property-based suites for the wire format: valid snapshots round-trip
//! byte-identically, and no byte buffer — random, mutated, or truncated —
//! can make the decoder panic.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use surveyor_wire::{
    decode, encode, IncrementalState, ModelRow, PairRow, Snapshot, SnapshotEntity,
    SnapshotProperty, SnapshotType, MAGIC,
};

fn word() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z]{0,9}",
        Just("très grand".to_string()),
        Just("ぴかぴか".to_string()),
        Just(String::new()),
    ]
}

fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e6f64..1.0e6,
        Just(0.0),
        Just(-0.0),
        Just(f64::MIN_POSITIVE),
        Just(f64::MAX),
    ]
}

fn property_s() -> impl Strategy<Value = SnapshotProperty> {
    (prop::collection::vec(word(), 0..3), word())
        .prop_map(|(adverbs, adjective)| SnapshotProperty { adverbs, adjective })
}

fn type_s() -> impl Strategy<Value = SnapshotType> {
    (
        word(),
        prop::collection::vec(word(), 0..3),
        prop::collection::vec(word(), 0..3),
    )
        .prop_map(|(name, head_nouns, context_cues)| SnapshotType {
            name,
            head_nouns,
            context_cues,
        })
}

/// An entity of the `ENTS` columns: most are bare, so aliases and
/// attributes are scattered among them, and most are of type 0, so the
/// type runs interleave with runs of one.
fn entity_s() -> impl Strategy<Value = SnapshotEntity> {
    (
        word(),
        prop_oneof![
            Just(Vec::new()),
            Just(Vec::new()),
            prop::collection::vec(word(), 1..3),
        ],
        prop_oneof![Just(0), Just(0), 0u32..8],
        prop_oneof![
            Just(Vec::new()),
            Just(Vec::new()),
            prop::collection::vec((word(), finite_f64()), 1..3),
        ],
    )
        .prop_map(|(name, aliases, type_index, attributes)| SnapshotEntity {
            name,
            aliases,
            type_index,
            attributes,
        })
}

/// A 32-bit half of a document id, or an entity: small, or at either end.
fn half() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..64,
        Just(0),
        Just(u32::MAX),
        Just(u32::MAX - 1),
        0u32..=u32::MAX,
    ]
}

/// A document id `shard << 32 | local`, either half at its extremes.
fn document_s() -> impl Strategy<Value = u64> {
    prop_oneof![
        (half(), half()).prop_map(|(shard, local)| u64::from(shard) << 32 | u64::from(local)),
        Just(u64::MAX),
        Just(0),
        0u64..=u64::MAX,
    ]
}

/// `ROWS` rows in key order with strictly ascending documents, as a
/// writer must hand them over: keyed and deduplicated by construction,
/// entities from 0 to `u32::MAX` (so an entity gap of `u32::MAX` occurs)
/// and documents across shard boundaries.
fn rows_s() -> impl Strategy<Value = Vec<PairRow>> {
    prop::collection::vec(
        (
            (half(), 0u32..16),
            (
                0u64..10_000,
                prop_oneof![0u64..10_000, Just(u64::MAX)],
                prop::collection::vec(document_s(), 0..6),
            ),
        ),
        0..6,
    )
    .prop_map(|rows| {
        let sorted: BTreeMap<(u32, u32), (u64, u64, Vec<u64>)> = rows.into_iter().collect();
        (sorted.into_iter())
            .map(|((entity, property), (positive, negative, documents))| {
                let documents: BTreeSet<u64> = documents.into_iter().collect();
                PairRow {
                    entity,
                    property,
                    positive,
                    negative,
                    documents: documents.into_iter().collect(),
                }
            })
            .collect()
    })
}

fn model_s() -> impl Strategy<Value = ModelRow> {
    (
        (0u32..8, 0u32..16),
        (finite_f64(), finite_f64(), finite_f64(), finite_f64()),
        (0u64..500, 0u8..3),
    )
        .prop_map(
            |(
                (type_index, property),
                (p_agree, rate_pos, rate_neg, log_likelihood),
                (iterations, converged),
            )| ModelRow {
                type_index,
                property,
                p_agree,
                rate_pos,
                rate_neg,
                iterations,
                converged,
                log_likelihood,
            },
        )
}

/// Canonical ingested ranges: strictly increasing, disjoint, and
/// non-adjacent, built from (gap, length) pairs so the invariant holds
/// by construction.
fn incremental_s() -> impl Strategy<Value = Option<IncrementalState>> {
    let state = (
        0u64..1000,
        0u64..u64::MAX,
        0u64..u64::MAX,
        prop::collection::vec((1u64..5, 1u64..5), 0..4),
        prop::collection::vec(0u64..64, 0..4),
    )
        .prop_map(|(rho, config_digest, corpus_digest, pieces, mut pending)| {
            let mut ingested = Vec::with_capacity(pieces.len());
            let mut cursor = 0u64;
            for (gap, len) in pieces {
                let start = cursor + gap;
                ingested.push((start, start + len));
                cursor = start + len;
            }
            pending.sort_unstable();
            pending.dedup();
            IncrementalState {
                rho,
                config_digest,
                corpus_digest,
                ingested,
                pending,
            }
        });
    (prop::bool::ANY, state).prop_map(|(present, state)| present.then_some(state))
}

/// `(checksum offset, payload range)` of the frame in slot `index`:
/// `ENTS` is the third, `ROWS` the fourth.
fn frame(bytes: &[u8], index: usize) -> (usize, std::ops::Range<usize>) {
    let mut at = 16;
    for _ in 0..index {
        at += 16 + u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
    }
    let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
    (at + 12, at + 16..at + 16 + len)
}

/// Damage inside the payload of frame `index`, its checksum made right
/// again, reaches the record decoding: `Ok` or a typed error, never a
/// panic — and what decodes, re-encodes to a snapshot that decodes. The
/// payload cut short and framed again never decodes.
fn reframed_damage(
    snapshot: &Snapshot,
    index: usize,
    position: u64,
    mask: u8,
    cut: u64,
) -> Result<(), TestCaseError> {
    let bytes = encode(snapshot);
    let (crc_at, payload) = frame(&bytes, index);
    let mut damaged = bytes.clone();
    let at = payload.start + (position % payload.len() as u64) as usize;
    damaged[at] ^= mask;
    let crc = crc32(&damaged[payload.clone()]);
    damaged[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    if let Ok(decoded) = decode(&damaged) {
        prop_assert!(decode(&encode(&decoded)).is_ok());
    }
    let len = (cut % payload.len() as u64) as usize;
    let mut short = bytes[..payload.start + len].to_vec();
    short[crc_at - 8..crc_at].copy_from_slice(&(len as u64).to_le_bytes());
    let crc = crc32(&short[payload.start..]);
    short[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    short.extend_from_slice(&bytes[payload.end..]);
    prop_assert!(
        decode(&short).is_err(),
        "frame {index} cut to {len} bytes decoded"
    );
    Ok(())
}

/// CRC-32/ISO-HDLC, bit by bit, to frame a damaged payload again.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
        }
    }
    crc ^ 0xffff_ffff
}

fn snapshot_s() -> impl Strategy<Value = Snapshot> {
    (
        (
            prop::collection::vec(property_s(), 0..4),
            prop::collection::vec(type_s(), 0..3),
            prop::collection::vec(entity_s(), 0..8),
        ),
        (prop_oneof![0u64..64, Just(u64::MAX)], rows_s()),
        prop::collection::vec(model_s(), 0..3),
        incremental_s(),
    )
        .prop_map(
            |((properties, types, entities), (sample_size, rows), models, incremental)| Snapshot {
                properties,
                types,
                entities,
                sample_size,
                rows,
                models,
                incremental,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// encode → decode → encode is the identity on both the value and
    /// the bytes.
    #[test]
    fn round_trips_are_byte_identical(snapshot in snapshot_s()) {
        let bytes = encode(&snapshot);
        let decoded = decode(&bytes).map_err(|e| {
            TestCaseError::Fail(format!("decode failed: {e}"))
        })?;
        prop_assert_eq!(&decoded, &snapshot);
        prop_assert_eq!(encode(&decoded), bytes);
    }

    /// Arbitrary bytes decode to `Ok` or a typed error — never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = decode(&data);
        // Also past the magic gate, so section walking sees the fuzz.
        let mut framed = MAGIC.to_vec();
        framed.extend_from_slice(&data);
        let _ = decode(&framed);
    }

    /// Single-byte corruptions of a valid snapshot decode to `Ok` or a
    /// typed error — never a panic. (CRC catches payload damage; header
    /// damage maps to framing errors.)
    #[test]
    fn mutated_snapshots_never_panic(
        snapshot in snapshot_s(),
        position in 0u64..u64::MAX,
        mask in 1u8..=255,
    ) {
        let mut bytes = encode(&snapshot);
        let index = (position % bytes.len() as u64) as usize;
        bytes[index] ^= mask;
        let _ = decode(&bytes);
    }

    /// Damage inside a `ROWS` payload reaches the gap decoding.
    #[test]
    fn reframed_row_damage_never_panics(
        snapshot in snapshot_s(),
        position in 0u64..u64::MAX,
        mask in 1u8..=255,
        cut in 0u64..u64::MAX,
    ) {
        reframed_damage(&snapshot, 3, position, mask, cut)?;
    }

    /// Damage inside an `ENTS` payload reaches the columns: the type
    /// runs, the sparse entries' gaps and counts, and the names.
    #[test]
    fn reframed_entity_damage_never_panics(
        snapshot in snapshot_s(),
        position in 0u64..u64::MAX,
        mask in 1u8..=255,
        cut in 0u64..u64::MAX,
    ) {
        reframed_damage(&snapshot, 2, position, mask, cut)?;
    }

    /// A `GRPF` frame — the retired per-group fingerprint section — is
    /// skipped after its checksum and never parsed: whatever its payload
    /// and wherever it stands, the file decodes to what it does without
    /// the frame.
    #[test]
    fn a_retired_grpf_frame_is_skipped_unparsed(
        snapshot in snapshot_s(),
        payload in prop::collection::vec(0u8..=255, 0..48),
        after in 0usize..6,
    ) {
        let bytes = encode(&snapshot);
        let sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let (_, previous) = frame(&bytes, after % sections as usize);
        let mut old = bytes[..previous.end].to_vec();
        old.extend_from_slice(b"GRPF");
        old.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        old.extend_from_slice(&crc32(&payload).to_le_bytes());
        old.extend_from_slice(&payload);
        old.extend_from_slice(&bytes[previous.end..]);
        old[12..16].copy_from_slice(&(sections + 1).to_le_bytes());
        prop_assert_eq!(decode(&old).unwrap(), snapshot);
    }

    /// Every strict prefix of a valid snapshot is rejected with an error.
    #[test]
    fn truncated_snapshots_are_typed_errors(
        snapshot in snapshot_s(),
        cut in 0u64..u64::MAX,
    ) {
        let bytes = encode(&snapshot);
        let len = (cut % bytes.len() as u64) as usize;
        prop_assert!(decode(&bytes[..len]).is_err(), "prefix of {len} decoded");
    }

    /// Floats survive the wire bit-exactly, NaN payloads included.
    #[test]
    fn floats_round_trip_bit_exact(bits in 0u64..=u64::MAX) {
        let value = f64::from_bits(bits);
        let snapshot = Snapshot {
            models: vec![ModelRow {
                p_agree: value,
                log_likelihood: value,
                ..ModelRow::default()
            }],
            ..Snapshot::default()
        };
        let decoded = decode(&encode(&snapshot)).map_err(|e| {
            TestCaseError::Fail(format!("decode failed: {e}"))
        })?;
        prop_assert_eq!(decoded.models[0].p_agree.to_bits(), bits);
        prop_assert_eq!(decoded.models[0].log_likelihood.to_bits(), bits);
    }
}
