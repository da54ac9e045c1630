//! The three loaders — `surveyor::load_snapshot`,
//! `surveyor::load_snapshot_with_state` and
//! `ServedState::from_snapshot_bytes` — give one verdict on every
//! snapshot, and never panic: a stale fingerprint table, CRC-valid
//! snapshots that are *semantically* hostile (written through
//! `wire::encode`, so no checksum or framing rule stands in the way), and
//! one-byte damage inside re-framed sections. What all three accept, the
//! served store renders exactly as the store built from the loaded output.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use surveyor::prelude::*;
use surveyor::wire::{
    encode, group_fingerprints, EvidenceRow, IncrementalState, ModelRow, ProvenanceRow, Snapshot,
};
use surveyor::{
    load_snapshot, load_snapshot_with_state, snapshot_output, CorpusSource, SnapshotError,
    SubjectiveKb, Surveyor, SurveyorConfig, SurveyorOutput,
};
use surveyor_server::ServedState;

/// Two types, adverb-graded properties, aliases and attributes, a
/// combination below the threshold (so evidence and provenance exist for
/// pairs no group decides) — small, and every section populated.
fn mined_output() -> SurveyorOutput {
    let mut b = KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal", "creature"], &["zoo"]);
    let city = b.add_type("city", &["city"], &[]);
    for name in ["Kitten", "Puppy", "Tiger", "Spider", "Moose"] {
        b.add_entity(name, animal)
            .alias(&format!("the {name}"))
            .attribute("legs", 4.0)
            .finish();
    }
    for name in ["Arlen", "Bedrock", "Quahog", "Gotham"] {
        b.add_entity(name, city).finish();
    }
    let kb = Arc::new(b.build());
    let params = DomainParams {
        p_agree: 0.9,
        rate_pos: 18.0,
        rate_neg: 5.0,
        ..DomainParams::default()
    };
    let sparse = DomainParams {
        rate_pos: 0.4,
        rate_neg: 0.2,
        ..DomainParams::default()
    };
    let world = WorldBuilder::new(kb.clone(), 11)
        .domain("animal", Property::adjective("cute"), params.clone())
        .domain(
            "animal",
            Property::with_adverbs(&["very"], "small"),
            params.clone(),
        )
        .domain("city", Property::adjective("big"), params)
        .domain("city", Property::adjective("calm"), sparse)
        .build();
    let generator = CorpusGenerator::new(world, CorpusConfig::default());
    let config = SurveyorConfig {
        rho: 20,
        threads: 2,
        ..Default::default()
    };
    Surveyor::new(kb, config).run(&CorpusSource::new(&generator))
}

fn mined() -> Snapshot {
    let snapshot = snapshot_output(&mined_output());
    assert!(snapshot.models.len() >= 3, "three combinations modeled");
    assert!(snapshot.provenance.len() >= 4 && snapshot.evidence.len() >= 4);
    snapshot
}

#[test]
fn every_loader_derives_the_decisions_the_mine_made() {
    // No decision is on disk: a loaded output's are derived from `MODL`
    // and `EVID`, and must be the mined ones bit for bit; the served
    // store, built from the same derivation, must render as they do.
    let output = mined_output();
    let bits = |output: &SurveyorOutput| -> Vec<Vec<(u32, u64)>> {
        (output.results.iter())
            .map(|r| {
                (r.decisions.iter())
                    .map(|(e, d)| (e.0, d.probability.map_or(u64::MAX, f64::to_bits)))
                    .collect()
            })
            .collect()
    };
    let bytes = encode(&snapshot_output(&output));
    let (with_state, _) = load_snapshot_with_state(&bytes).unwrap();
    assert_eq!(bits(&load_snapshot(&bytes).unwrap()), bits(&output));
    assert_eq!(bits(&with_state), bits(&output));
    let served = ServedState::from_snapshot_bytes(&bytes, 1, "derived").unwrap();
    assert_eq!(
        served.store.to_json(),
        SubjectiveKb::from_output(&output, output.kb()).to_json()
    );
    assert_eq!(agreed("the mined world", &bytes), None);
}

/// Each loader's outcome on `bytes`, as its error text; a panic in any of
/// them fails the test. The store is the served one.
fn verdicts(context: &str, bytes: &[u8]) -> ([Option<SnapshotError>; 3], Option<SubjectiveKb>) {
    let run = |name: &str, load: &dyn Fn() -> Result<Option<SubjectiveKb>, SnapshotError>| {
        catch_unwind(AssertUnwindSafe(load))
            .unwrap_or_else(|_| panic!("{context}: {name} panicked"))
    };
    let plain = run("load_snapshot", &|| load_snapshot(bytes).map(|_| None));
    let with_state = run("load_snapshot_with_state", &|| {
        load_snapshot_with_state(bytes).map(|_| None)
    });
    let served = run("ServedState::from_snapshot_bytes", &|| {
        ServedState::from_snapshot_bytes(bytes, 1, "test").map(|state| Some(state.store))
    });
    let (served_err, store) = match served {
        Ok(store) => (None, store),
        Err(e) => (Some(e), None),
    };
    ([plain.err(), with_state.err(), served_err], store)
}

/// One verdict from all three, `Ok` or `Corrupt`; and for an accepted
/// snapshot, one store whichever way it is built.
fn agreed(context: &str, bytes: &[u8]) -> Option<SnapshotError> {
    let ([plain, with_state, served], store) = verdicts(context, bytes);
    assert_eq!(plain, with_state, "{context}: the two output loaders");
    assert_eq!(
        plain, served,
        "{context}: output loader against served state"
    );
    if let Some(store) = store {
        let loaded = load_snapshot(bytes).expect("accepted a moment ago");
        let reference = SubjectiveKb::from_output(&loaded, loaded.kb());
        assert_eq!(store.len(), reference.len(), "{context}: len");
        assert_eq!(store.to_json(), reference.to_json(), "{context}: store");
    }
    plain
}

/// Applies `edit` to a mined snapshot and takes the agreed verdict twice:
/// without a fingerprint table, and with one recomputed after the edit
/// (so the edit is judged by its own rule, not by a stale fingerprint).
fn hostile(context: &str, edit: impl Fn(&mut Snapshot)) -> Option<&'static str> {
    let mut bad = mined();
    edit(&mut bad);
    let plain = agreed(context, &encode(&bad));
    bad.incremental = Some(IncrementalState {
        rho: 20,
        ..Default::default()
    });
    bad.fingerprints = group_fingerprints(&bad);
    let context = format!("{context}, fingerprinted");
    let fingerprinted = agreed(&context, &encode(&bad));
    assert_eq!(plain, fingerprinted, "{context}");
    match plain {
        None => None,
        Some(SnapshotError::Corrupt(detail)) => Some(detail),
        Some(SnapshotError::Wire(e)) => {
            panic!("{context}: wire error {e} from an encoded snapshot")
        }
    }
}

#[test]
fn a_stale_fingerprint_gets_one_verdict_from_every_loader() {
    let mut snapshot = mined();
    snapshot.incremental = Some(IncrementalState {
        rho: 20,
        ..Default::default()
    });
    snapshot.fingerprints = group_fingerprints(&snapshot);
    assert!(!snapshot.fingerprints.is_empty());
    assert_eq!(agreed("fresh fingerprints", &encode(&snapshot)), None);

    let stale = Some(SnapshotError::Corrupt(
        "group fingerprints do not match evidence",
    ));
    let mut more_evidence = snapshot.clone();
    more_evidence.evidence[0].positive += 1;
    assert_eq!(agreed("one more statement", &encode(&more_evidence)), stale);
    let mut other_digest = snapshot.clone();
    other_digest.fingerprints[0].fingerprint ^= 1;
    assert_eq!(agreed("another digest", &encode(&other_digest)), stale);
    let mut missing_row = snapshot;
    missing_row.fingerprints.pop();
    assert_eq!(agreed("a group short", &encode(&missing_row)), stale);
}

#[test]
fn hostile_names_are_one_verdict_and_served_as_loaded() {
    // The one panic a byte flip never reached: `KnowledgeBaseBuilder`
    // asserts on a second type of one lowercased name.
    assert_eq!(
        hostile("type names equal once lowercased", |s| {
            let mut twin = s.types[0].clone();
            twin.name = twin.name.to_uppercase();
            s.types.push(twin);
        }),
        Some("duplicate type name")
    );
    assert_eq!(
        hostile("type names equal only after Unicode lowercasing", |s| {
            s.types[0].name = "straße".to_owned();
            let mut twin = s.types[0].clone();
            twin.name = "STRAßE".to_owned();
            s.types.push(twin);
        }),
        Some("duplicate type name")
    );
    // Names are display strings, not keys: equal ones are served, and a
    // lookup by either spelling finds both entities.
    for (context, rename) in [
        ("entity names equal after case folding", "KITTEN"),
        ("entity names equal", "Kitten"),
        ("empty entity name", ""),
    ] {
        assert_eq!(
            hostile(context, |s| s.entities[1].name = rename.to_owned()),
            None
        );
    }
    let mut twins = mined();
    twins.entities[1].name = "KITTEN".to_owned();
    let state = ServedState::from_snapshot_bytes(&encode(&twins), 1, "twins").unwrap();
    let found: Vec<&str> = (state.store.opinions_of_entity("kitten").iter())
        .map(|(_, opinion)| opinion.entity_name)
        .collect();
    assert!(found.contains(&"Kitten") && found.contains(&"KITTEN"));

    assert_eq!(
        hostile("an alias shared by two entities", |s| {
            let alias = s.entities[0].aliases[0].clone();
            s.entities[1].aliases.push(alias.clone());
            s.entities[5].aliases.push(alias);
        }),
        None
    );
    assert_eq!(
        hostile("an alias equal to another entity's name", |s| {
            s.entities[0].aliases.push("Puppy".to_owned());
        }),
        None
    );
    assert_eq!(
        hostile("empty type name", |s| s.types[1].name = String::new()),
        None
    );
    assert_eq!(
        hostile("entity of a type the table does not hold", |s| {
            s.entities[0].type_index = s.types.len() as u32;
        }),
        Some("entity type index out of range")
    );
    assert_eq!(
        hostile("property rows that resolve to one property", |s| {
            let mut twin = s.properties[0].clone();
            twin.adjective = twin.adjective.to_uppercase();
            s.properties.insert(1, twin);
        }),
        Some("property table not in ascending order")
    );
}

#[test]
fn hostile_rows_are_one_verdict_and_served_as_loaded() {
    assert_eq!(
        hostile("a combination modeled twice", |s| {
            let model = s.models[0].clone();
            s.models.insert(1, model);
        }),
        Some("model rows not in ascending order")
    );
    assert_eq!(
        hostile("model rows out of order", |s| s.models.swap(0, 1)),
        Some("model rows not in ascending order")
    );
    assert_eq!(
        hostile("a model whose combination has no evidence", |s| {
            let (type_index, property) = (s.models[0].type_index, s.models[0].property);
            let entities = &s.entities;
            s.evidence.retain(|row| {
                (entities[row.entity as usize].type_index, row.property) != (type_index, property)
            });
        }),
        None
    );
    assert_eq!(
        hostile("a model for a combination below the threshold", |s| {
            // `calm` has evidence and no model: give it one, in key order.
            let modelled: Vec<(u32, u32)> = (s.models.iter())
                .map(|m| (m.type_index, m.property))
                .collect();
            let calm = (s.evidence.iter())
                .map(|row| (s.entities[row.entity as usize].type_index, row.property))
                .find(|key| !modelled.contains(key))
                .expect("an unmodeled combination with evidence");
            let model = ModelRow {
                type_index: calm.0,
                property: calm.1,
                ..s.models[0].clone()
            };
            s.models.push(model);
            s.models.sort_by_key(|m| (m.type_index, m.property));
        }),
        None
    );
    for (context, params) in [
        ("parameters that decide nothing", (0.5, 2.0, 2.0)),
        (
            "parameters that saturate every posterior",
            (0.99, 5_000.0, 0.01),
        ),
        (
            "parameters that make every statement impossible",
            (1.0, 0.0, 0.0),
        ),
    ] {
        assert_eq!(
            hostile(context, |s| {
                for m in &mut s.models {
                    (m.p_agree, m.rate_pos, m.rate_neg) = params;
                }
            }),
            None
        );
    }

    assert_eq!(
        hostile("counts that overflow u64 when summed", |s| {
            s.evidence[0].positive = u64::MAX - 1;
            s.evidence[1].negative = 2;
        }),
        Some("evidence counts overflow")
    );
    assert_eq!(
        hostile("one count overflowing on its own row", |s| {
            s.evidence[0].positive = u64::MAX;
            s.evidence[0].negative = 1;
        }),
        Some("evidence counts overflow")
    );
    assert_eq!(
        hostile("counts at the edge of u64", |s| {
            for row in &mut s.evidence {
                (row.positive, row.negative) = (0, 0);
            }
            s.evidence[0].positive = u64::MAX;
        }),
        None
    );
    assert_eq!(
        hostile("counts at u32::MAX", |s| {
            s.evidence[0].positive = u64::from(u32::MAX);
            s.evidence[1].negative = u64::from(u32::MAX);
        }),
        None
    );
    assert_eq!(
        hostile("evidence for a pair no group decides", |s| {
            // The last entity is a city; property 0 belongs to animals.
            let entity = s.entities.len() as u32 - 1;
            let property = s.properties.len() as u32 - 1;
            s.evidence
                .retain(|row| (row.entity, row.property) != (entity, property));
            s.evidence.push(EvidenceRow {
                entity,
                property,
                positive: 3,
                negative: 4,
            });
        }),
        None
    );
    assert_eq!(
        hostile("evidence rows out of order", |s| s.evidence.swap(0, 1)),
        Some("evidence rows not in ascending order")
    );
    assert_eq!(
        hostile("an evidence row twice", |s| {
            let first = s.evidence[0];
            s.evidence.insert(0, first);
        }),
        Some("evidence rows not in ascending order")
    );
    assert_eq!(
        hostile("evidence for an entity the table does not hold", |s| {
            let entities = s.entities.len() as u32;
            s.evidence.push(EvidenceRow {
                entity: entities,
                property: 0,
                positive: 1,
                negative: 0,
            });
        }),
        Some("evidence entity out of range")
    );
    assert_eq!(hostile("no evidence at all", |s| s.evidence.clear()), None);

    assert_eq!(
        hostile("a provenance row for an undecided pair", |s| {
            // Below the threshold: `calm` has evidence and no model.
            let modelled: Vec<(u32, u32)> = (s.models.iter())
                .map(|m| (m.type_index, m.property))
                .collect();
            let undecided = (s.provenance.iter()).any(|row| {
                let type_index = s.entities[row.entity as usize].type_index;
                !modelled.contains(&(type_index, row.property))
            });
            assert!(undecided, "the mined world already holds such a row");
            // And one for a pair nothing was ever said about.
            let entity = s.entities.len() as u32 - 1;
            let property = s.properties.len() as u32 - 1;
            s.provenance
                .retain(|row| (row.entity, row.property) != (entity, property));
            s.provenance.push(ProvenanceRow {
                entity,
                property,
                documents: vec![1, 2, u64::MAX],
            });
        }),
        None
    );
    assert_eq!(
        hostile("provenance without evidence", |s| s.evidence.clear()),
        None
    );
    assert_eq!(
        hostile("a sample larger than its declared size", |s| {
            s.provenance_sample_size = 0;
            s.provenance[0].documents = (0..64).collect();
        }),
        None
    );
    assert_eq!(
        hostile("documents out of order", |s| {
            s.provenance[0].documents = vec![9, 3, 3, 0];
        }),
        None
    );
    assert_eq!(
        hostile("provenance rows out of order", |s| s.provenance.swap(0, 1)),
        Some("provenance rows not in ascending order")
    );
    assert_eq!(
        hostile("provenance for a property the table does not hold", |s| {
            s.provenance[0].property = s.properties.len() as u32;
        }),
        Some("provenance property out of range")
    );
}

/// A named edit of one `MODL` row.
type ModelEdit = (&'static str, fn(&mut ModelRow));

#[test]
fn hostile_models_are_one_verdict() {
    let set = |edit: fn(&mut ModelRow)| move |s: &mut Snapshot| edit(&mut s.models[0]);
    let out_of_domain: [ModelEdit; 8] = [
        ("agreement above one", |m| m.p_agree = 1.5),
        ("negative agreement", |m| m.p_agree = -0.1),
        ("NaN agreement", |m| m.p_agree = f64::NAN),
        ("negative rate", |m| m.rate_pos = -1.0),
        ("infinite rate", |m| m.rate_neg = f64::INFINITY),
        ("NaN rate", |m| m.rate_neg = f64::NAN),
        ("negative infinite rate", |m| m.rate_pos = f64::NEG_INFINITY),
        ("agreement just above one", |m| {
            m.p_agree = 1.0 + f64::EPSILON
        }),
    ];
    for (context, edit) in out_of_domain {
        assert_eq!(
            hostile(context, set(edit)),
            Some("model parameters out of range")
        );
    }
    let in_domain: [ModelEdit; 5] = [
        ("the corners of the domain", |m| {
            (m.p_agree, m.rate_pos, m.rate_neg) = (0.0, 0.0, f64::MAX);
        }),
        ("a NaN likelihood", |m| m.log_likelihood = f64::NAN),
        ("a huge iteration count", |m| m.iterations = u64::MAX >> 1),
        ("every convergence code", |m| m.converged = 2),
        ("negative zero rate", |m| m.rate_pos = -0.0),
    ];
    for (context, edit) in in_domain {
        assert_eq!(hostile(context, set(edit)), None);
    }
    assert_eq!(
        hostile("an unknown convergence code", set(|m| m.converged = 3)),
        Some("unknown convergence code")
    );
    assert_eq!(
        hostile("a model for a type the table does not hold", |s| {
            let last = s.models.len() - 1;
            s.models[last].type_index = s.types.len() as u32;
        }),
        Some("model type index out of range")
    );
    assert_eq!(
        hostile("a model for a property the table does not hold", |s| {
            let last = s.models.len() - 1;
            s.models[last].property = s.properties.len() as u32;
        }),
        Some("model property out of range")
    );
    assert_eq!(
        hostile("rows and no tables", |s| {
            s.types.clear();
            s.entities.clear();
        }),
        Some("evidence entity out of range")
    );
}

/// CRC-32/ISO-HDLC one bit at a time, so a damaged payload can be framed
/// again with a checksum that is right.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
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

/// `(checksum offset, payload range)` of every frame of a valid snapshot.
fn frames(bytes: &[u8]) -> Vec<(usize, std::ops::Range<usize>)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let mut at = 16;
    (0..count)
        .map(|_| {
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            let payload = at + 16..at + 16 + len;
            at = payload.end;
            (payload.start - 4, payload)
        })
        .collect()
}

#[test]
fn damage_inside_valid_frames_is_one_verdict() {
    // The structure-aware mutations of `tests/snapshot_roundtrip.rs`, on
    // all three loaders: one byte of one section's payload changed and the
    // frame's CRC made right again, so the damage reaches the record
    // parsers and the cross-reference rules.
    let mut snapshot = mined();
    snapshot.incremental = Some(IncrementalState {
        rho: 20,
        ..Default::default()
    });
    snapshot.fingerprints = group_fingerprints(&snapshot);
    let bytes = encode(&snapshot);
    let frames = frames(&bytes);
    assert_eq!(frames.len(), 8, "all eight sections");

    let mut rng = 0x2015_u64;
    let mut next = move || {
        // splitmix64
        rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let (mut accepted, mut rejected) = (0, 0);
    for round in 0..2_700 {
        let (checksum_at, payload) = &frames[round % frames.len()];
        let mut bad = bytes.clone();
        let at = payload.start + (next() % payload.len() as u64) as usize;
        bad[at] ^= 1 + (next() % 255) as u8;
        let crc = crc32_bitwise(&bad[payload.clone()]);
        bad[*checksum_at..checksum_at + 4].copy_from_slice(&crc.to_le_bytes());
        match agreed(&format!("round {round}, byte {at}"), &bad) {
            None => accepted += 1,
            Some(_) => rejected += 1,
        }
    }
    // Both outcomes occur, so the mutations did get past the checksum
    // and did reach the checks.
    assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
}
