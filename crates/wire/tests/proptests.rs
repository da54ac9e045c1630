//! Property-based suites for the wire format: valid snapshots round-trip
//! byte-identically, and no byte buffer — random, mutated, or truncated —
//! can make the decoder panic.

use proptest::prelude::*;
use surveyor_wire::{
    decode, encode, EvidenceRow, GroupFingerprintRow, IncrementalState, ModelRow, ProvenanceRow,
    Snapshot, SnapshotEntity, SnapshotProperty, SnapshotType, MAGIC,
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

fn entity_s() -> impl Strategy<Value = SnapshotEntity> {
    (
        word(),
        prop::collection::vec(word(), 0..3),
        0u32..8,
        prop::collection::vec((word(), finite_f64()), 0..3),
    )
        .prop_map(|(name, aliases, type_index, attributes)| SnapshotEntity {
            name,
            aliases,
            type_index,
            attributes,
        })
}

fn evidence_s() -> impl Strategy<Value = EvidenceRow> {
    (0u32..64, 0u32..16, 0u64..10_000, 0u64..10_000).prop_map(
        |(entity, property, positive, negative)| EvidenceRow {
            entity,
            property,
            positive,
            negative,
        },
    )
}

fn provenance_s() -> impl Strategy<Value = ProvenanceRow> {
    (
        0u32..64,
        0u32..16,
        prop::collection::vec(0u64..u64::MAX, 0..5),
    )
        .prop_map(|(entity, property, documents)| ProvenanceRow {
            entity,
            property,
            documents,
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

/// Fingerprint rows sorted by `(type_index, property)` by construction.
fn fingerprints_s() -> impl Strategy<Value = Vec<GroupFingerprintRow>> {
    prop::collection::vec(
        (
            (0u32..8, 0u32..16),
            (0u64..64, 0u64..10_000, 0u64..u64::MAX),
        ),
        0..4,
    )
    .prop_map(|rows| {
        let sorted: std::collections::BTreeMap<(u32, u32), (u64, u64, u64)> =
            rows.into_iter().collect();
        sorted
            .into_iter()
            .map(
                |((type_index, property), (entities, total, fingerprint))| GroupFingerprintRow {
                    type_index,
                    property,
                    entities,
                    total,
                    fingerprint,
                },
            )
            .collect()
    })
}

fn snapshot_s() -> impl Strategy<Value = Snapshot> {
    (
        (
            prop::collection::vec(property_s(), 0..4),
            prop::collection::vec(type_s(), 0..3),
            prop::collection::vec(entity_s(), 0..4),
        ),
        (
            prop::collection::vec(evidence_s(), 0..6),
            0u64..64,
            prop::collection::vec(provenance_s(), 0..4),
        ),
        prop::collection::vec(model_s(), 0..3),
        (incremental_s(), fingerprints_s()),
    )
        .prop_map(
            |(
                (properties, types, entities),
                (evidence, provenance_sample_size, provenance),
                models,
                (incremental, fingerprints),
            )| Snapshot {
                properties,
                types,
                entities,
                evidence,
                provenance_sample_size,
                provenance,
                models,
                incremental,
                fingerprints,
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
