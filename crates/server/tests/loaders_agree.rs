//! The three loaders — `surveyor::load_snapshot`,
//! `surveyor::load_snapshot_with_state` and
//! `ServedState::from_snapshot_bytes` — give one verdict on every
//! snapshot, and never panic: a frame of the retired `GRPF` section,
//! CRC-valid snapshots that are *semantically* hostile (written through
//! `wire::encode`, so no checksum or framing rule stands in the way), and
//! one-byte damage inside re-framed sections. What all three accept, the
//! served store renders exactly as the store built from the loaded output;
//! and an update's output, before any save, builds the store its saved
//! bytes serve and a from-scratch mine builds.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use surveyor::extract::run_sharded_fault_tolerant;
use surveyor::prelude::*;
use surveyor::wire::{decode, encode, Fnv64, IncrementalState, ModelRow, PairRow, Snapshot};
use surveyor::{
    diff_snapshots, load_snapshot, load_snapshot_with_state, load_store, save_snapshot,
    save_snapshot_with_state, snapshot_output, CorpusSource, SnapshotError, SubjectiveKb, Surveyor,
    SurveyorConfig, SurveyorOutput, WarmStart,
};
use surveyor_server::ServedState;

/// Two types, adverb-graded properties, aliases and attributes, a
/// combination below the threshold (so rows with counts and documents
/// exist for pairs no group decides) — small, and every section populated:
/// the pipeline and the generator of its eight shards.
fn mining() -> (Surveyor, CorpusGenerator) {
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
    (Surveyor::new(kb, config), generator)
}

/// A mine of every shard of [`mining`]'s world.
fn mined_output() -> SurveyorOutput {
    let (surveyor, generator) = mining();
    surveyor.run(&CorpusSource::new(&generator))
}

fn mined() -> Snapshot {
    let snapshot = snapshot_output(&mined_output());
    assert!(snapshot.models.len() >= 3, "three combinations modeled");
    assert!(snapshot.rows.len() >= 4);
    assert!(snapshot.rows.iter().all(|row| !row.documents.is_empty()));
    snapshot
}

#[test]
fn every_loader_derives_the_decisions_the_mine_made() {
    // No decision is on disk: a loaded output's are derived from `MODL`
    // and the `ROWS` counts, and must be the mined ones bit for bit; the served
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
    let mined_store = SubjectiveKb::from_output(&output, output.kb());
    assert_eq!(served.store.to_json(), mined_store.to_json());
    assert_eq!(agreed("the mined world", &bytes), None);

    // An update's output, straight out of `apply_delta` with no save or
    // load in between: its store is the one its saved bytes serve, and
    // the one the mine of base ∪ delta builds.
    let (surveyor, generator) = mining();
    let (retry, policy) = (RetryPolicy::no_retries(), FailurePolicy::FailFast);
    let shards = |start, end| ShardSubset::range(CorpusSource::new(&generator), start, end);
    let base = (surveyor.try_run(&shards(0, 6), &retry, &policy).unwrap()).output;
    let delta = run_sharded_fault_tolerant(
        &shards(6, 8),
        surveyor.kb(),
        &surveyor.config().extraction,
        2,
        &retry,
        &policy,
        None,
    )
    .unwrap()
    .output;
    let (updated, stats) = surveyor.apply_delta(base, delta, WarmStart::Exact);
    assert!(stats.groups_refit > 0 && stats.delta_pairs > 0, "{stats:?}");
    let updated_store = SubjectiveKb::from_output(&updated, updated.kb());
    let saved_store = load_store(&save_snapshot(&updated)).unwrap();
    assert_eq!(updated_store.len(), mined_store.len());
    assert_eq!(updated_store.to_json(), saved_store.to_json());
    assert_eq!(updated_store.to_json(), mined_store.to_json());
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

/// Applies `edit` to a mined snapshot and takes the agreed verdict.
fn hostile(context: &str, edit: impl Fn(&mut Snapshot)) -> Option<&'static str> {
    let mut bad = mined();
    edit(&mut bad);
    match agreed(context, &encode(&bad)) {
        None => None,
        Some(SnapshotError::Corrupt(detail)) => Some(detail),
        Some(SnapshotError::Wire(e)) => {
            panic!("{context}: wire error {e} from an encoded snapshot")
        }
    }
}

/// A LEB128 varint, as the format writes counts.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// The payload of the `GRPF` section, now retired, as this format's
/// writer put it after `INCR`: one row per (type, property) group with
/// evidence, in key order — the type and property as `u32`s, the group's
/// entity count and statement total as varints, and the FNV-1a digest of
/// its rows' `(entity, positive, negative)` in entity order.
fn retired_fingerprints(snapshot: &Snapshot) -> Vec<u8> {
    let mut groups: BTreeMap<(u32, u32), (u64, u64, Fnv64)> = BTreeMap::new();
    for row in &snapshot.rows {
        let key = (
            snapshot.entities[row.entity as usize].type_index,
            row.property,
        );
        let (entities, total, digest) = groups.entry(key).or_insert((0, 0, Fnv64::new()));
        digest.write(&row.entity.to_le_bytes());
        digest.write_u64(row.positive);
        digest.write_u64(row.negative);
        (*entities, *total) = (*entities + 1, *total + row.positive + row.negative);
    }
    let mut payload = Vec::new();
    put_varint(&mut payload, groups.len() as u64);
    for ((type_index, property), (entities, total, digest)) in groups {
        payload.extend_from_slice(&type_index.to_le_bytes());
        payload.extend_from_slice(&property.to_le_bytes());
        put_varint(&mut payload, entities);
        put_varint(&mut payload, total);
        payload.extend_from_slice(&digest.finish().to_le_bytes());
    }
    payload
}

/// `bytes` with a `GRPF` frame of `payload` and checksum `crc` after its
/// last section, counted in the header — as this format's writer framed it.
fn with_retired_frame(bytes: &[u8], payload: &[u8], crc: u32) -> Vec<u8> {
    let mut old = bytes.to_vec();
    old.extend_from_slice(b"GRPF");
    old.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    old.extend_from_slice(&crc.to_le_bytes());
    old.extend_from_slice(payload);
    let count = u32::from_le_bytes(old[12..16].try_into().unwrap());
    old[12..16].copy_from_slice(&(count + 1).to_le_bytes());
    old
}

#[test]
fn a_retired_grpf_frame_is_skipped_and_dropped_on_save() {
    // A file written before `GRPF` retired: the current bytes with the
    // fingerprint frame after `INCR` and one more section counted.
    let output = mined_output();
    let state = IncrementalState {
        rho: 20,
        ..Default::default()
    };
    let current = save_snapshot_with_state(&output, &state);
    let payload = retired_fingerprints(&decode(&current).unwrap());
    let old = with_retired_frame(&current, &payload, crc32_bitwise(&payload));
    assert_eq!(frames(&old).len(), 7);

    // Every loader returns what it returns without the frame.
    assert_eq!(agreed("a retired GRPF frame", &old), None);
    let (loaded, loaded_state) = load_snapshot_with_state(&old).unwrap();
    let (reference, _) = load_snapshot_with_state(&current).unwrap();
    assert_eq!(loaded_state, Some(state.clone()));
    assert_eq!(save_snapshot(&loaded), save_snapshot(&reference));
    let plain = load_snapshot(&old).unwrap();
    assert_eq!(save_snapshot(&plain), save_snapshot(&reference));
    assert_eq!(
        load_store(&old).unwrap().to_json(),
        load_store(&current).unwrap().to_json()
    );

    // A save drops the frame, one more save is a fixed point, and
    // `surveyor diff` calls the old file and the saved one identical.
    let saved = save_snapshot_with_state(&loaded, &state);
    assert_eq!(saved, current);
    let (again, again_state) = load_snapshot_with_state(&saved).unwrap();
    assert_eq!(
        save_snapshot_with_state(&again, &again_state.unwrap()),
        saved
    );
    let diff = diff_snapshots(&decode(&old).unwrap(), &decode(&saved).unwrap()).unwrap();
    assert!(diff.is_identical(), "{diff:?}");
}

#[test]
fn a_stale_fingerprint_gets_one_verdict_from_every_loader() {
    // The retired `GRPF` frame is skipped unparsed, so digests that no
    // longer match the evidence draw the verdict the file draws without
    // them; a frame whose checksum is stale draws one rejection.
    let mut snapshot = mined();
    snapshot.incremental = Some(IncrementalState {
        rho: 20,
        ..Default::default()
    });
    let fresh = retired_fingerprints(&snapshot);
    assert!(!fresh.is_empty());
    let bytes = encode(&snapshot);
    let framed =
        |bytes: &[u8], payload: &[u8]| with_retired_frame(bytes, payload, crc32_bitwise(payload));
    assert_eq!(agreed("fresh fingerprints", &framed(&bytes, &fresh)), None);

    let mut more_evidence = snapshot.clone();
    more_evidence.rows[0].positive += 1;
    let more = encode(&more_evidence);
    assert_eq!(agreed("one more statement, unframed", &more), None);
    assert_eq!(agreed("one more statement", &framed(&more, &fresh)), None);
    let mut other_digest = fresh.clone();
    *other_digest.last_mut().unwrap() ^= 1;
    assert_eq!(
        agreed("another digest", &framed(&bytes, &other_digest)),
        None
    );
    let mut fewer_groups = snapshot.clone();
    let group =
        |s: &Snapshot, row: &PairRow| (s.entities[row.entity as usize].type_index, row.property);
    let last = group(&snapshot, snapshot.rows.last().unwrap());
    fewer_groups
        .rows
        .retain(|row| group(&snapshot, row) != last);
    let a_group_short = retired_fingerprints(&fewer_groups);
    assert_eq!(a_group_short[0] + 1, fresh[0]);
    assert_eq!(
        agreed("a group short", &framed(&bytes, &a_group_short)),
        None
    );

    let stale_crc = with_retired_frame(&bytes, &other_digest, crc32_bitwise(&fresh));
    assert!(matches!(
        agreed("a stale checksum", &stale_crc),
        Some(SnapshotError::Wire(
            surveyor::wire::WireError::CrcMismatch { .. }
        ))
    ));
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
            s.rows.retain(|row| {
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
            let calm = (s.rows.iter())
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
            s.rows[0].positive = u64::MAX - 1;
            s.rows[1].negative = 2;
        }),
        Some("evidence counts overflow")
    );
    assert_eq!(
        hostile("one count overflowing on its own row", |s| {
            s.rows[0].positive = u64::MAX;
            s.rows[0].negative = 1;
        }),
        Some("evidence counts overflow")
    );
    assert_eq!(
        hostile("counts at the edge of u64", |s| {
            for row in &mut s.rows {
                (row.positive, row.negative) = (0, 0);
            }
            s.rows[0].positive = u64::MAX;
        }),
        None
    );
    assert_eq!(
        hostile("counts at u32::MAX", |s| {
            s.rows[0].positive = u64::from(u32::MAX);
            s.rows[1].negative = u64::from(u32::MAX);
        }),
        None
    );
    assert_eq!(
        hostile("evidence for a pair no group decides", |s| {
            // The last entity is a city; property 0 belongs to animals.
            let entity = s.entities.len() as u32 - 1;
            let property = s.properties.len() as u32 - 1;
            s.rows
                .retain(|row| (row.entity, row.property) != (entity, property));
            s.rows.push(PairRow {
                entity,
                property,
                positive: 3,
                negative: 4,
                documents: vec![],
            });
        }),
        None
    );
    assert_eq!(
        hostile("rows out of order", |s| {
            // Two rows of one entity: across entities the gap would not
            // decode, which is the wire layer's refusal.
            assert_eq!(s.rows[0].entity, s.rows[1].entity);
            s.rows.swap(0, 1);
        }),
        Some("rows not in ascending order")
    );
    assert_eq!(
        hostile("a row twice", |s| {
            let first = s.rows[0].clone();
            s.rows.insert(0, first);
        }),
        Some("rows not in ascending order")
    );
    assert_eq!(
        hostile("a row for an entity the table does not hold", |s| {
            let entities = s.entities.len() as u32;
            s.rows.push(PairRow {
                entity: entities,
                property: 0,
                positive: 1,
                negative: 0,
                documents: vec![7],
            });
        }),
        Some("row entity out of range")
    );
    // Without rows, `calm` — below the threshold, so no model — is
    // referenced by nothing and would not be written back; without it
    // too, the snapshot loads.
    assert_eq!(
        hostile("no rows, and a property nothing refers to", |s| s
            .rows
            .clear()),
        Some("property referenced by no row")
    );
    assert_eq!(
        hostile("no rows at all", |s| {
            let calm = (s.properties.iter())
                .position(|p| p.adjective == "calm")
                .unwrap() as u32;
            assert!(s.models.iter().all(|m| m.property != calm));
            s.rows.clear();
            s.properties.remove(calm as usize);
            for model in &mut s.models {
                model.property -= u32::from(model.property > calm);
            }
        }),
        None
    );

    assert_eq!(
        hostile("documents for an undecided pair", |s| {
            // Below the threshold: `calm` has rows and no model.
            let modelled: Vec<(u32, u32)> = (s.models.iter())
                .map(|m| (m.type_index, m.property))
                .collect();
            let undecided = (s.rows.iter()).any(|row| {
                let type_index = s.entities[row.entity as usize].type_index;
                !modelled.contains(&(type_index, row.property)) && !row.documents.is_empty()
            });
            assert!(undecided, "the mined world already holds such a row");
            // And a sample for a pair nothing was ever counted for, at
            // the ends of the id space.
            let entity = s.entities.len() as u32 - 1;
            let property = s.properties.len() as u32 - 1;
            s.rows
                .retain(|row| (row.entity, row.property) != (entity, property));
            s.rows.push(PairRow {
                entity,
                property,
                positive: 0,
                negative: 0,
                documents: vec![0, 1, u64::MAX],
            });
        }),
        None
    );
    // An update merges into a sample by binary search and truncates it
    // to the sample size, so a longer sample or a repeated id would make
    // update ≢ from-scratch: both are refused at load.
    assert_eq!(
        hostile("a sample larger than its declared size", |s| {
            s.sample_size = 0;
            s.rows[0].documents = (0..64).collect();
        }),
        Some("document sample larger than the sample size")
    );
    assert_eq!(
        hostile("a document id twice", |s| {
            s.rows[0].documents = vec![0, 3 << 32 | 9, 3 << 32 | 9];
        }),
        Some("document ids not strictly ascending")
    );
    assert_eq!(
        hostile("rows for a property the table does not hold", |s| {
            s.rows[0].property = s.properties.len() as u32;
        }),
        Some("row property out of range")
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
        Some("row entity out of range")
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
    let bytes = encode(&snapshot);
    let frames = frames(&bytes);
    assert_eq!(frames.len(), 6, "all six sections");

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
