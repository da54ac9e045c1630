//! Snapshot round-trip fixture: mine → save → load must reproduce the
//! whole mined world byte for byte. The saved bytes are a pure function
//! of the mined output, so re-encoding the loaded world reproduces them
//! exactly; the loaded world's store JSON, evidence, and triples match
//! the mined originals; and none of this depends on how many worker
//! threads did the mining — or on a chaos plan quarantining a shard.

use std::sync::Arc;
use surveyor::prelude::*;
use surveyor::wire::IncrementalState;
use surveyor::{
    load_snapshot, load_snapshot_with_state, output_from_snapshot, save_snapshot,
    save_snapshot_with_state, Fault, SubjectiveKb,
};
use surveyor_corpus::{presets, CorpusGenerator};

const SHARDS: usize = 8;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Two domains over two types, with adverb-graded properties, so the
/// snapshot's property table holds more than bare adjectives.
fn world(seed: u64) -> (Arc<KnowledgeBase>, surveyor_corpus::World) {
    let mut b = KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    let city = b.add_type("city", &["city"], &[]);
    for name in [
        "Kitten", "Puppy", "Pony", "Koala", "Tiger", "Spider", "Scorpion", "Rat", "Crow", "Moose",
    ] {
        b.add_entity(name, animal).finish();
    }
    for name in [
        "Arlen",
        "Bedrock",
        "Quahog",
        "Springfield",
        "Shelbyville",
        "Langley",
        "Sunnydale",
        "Gotham",
        "Metropolis",
        "Riverdale",
    ] {
        b.add_entity(name, city).finish();
    }
    let kb = Arc::new(b.build());
    let params = DomainParams {
        p_agree: 0.9,
        rate_pos: 18.0,
        rate_neg: 5.0,
        opinions: OpinionRule::RandomShare(0.5),
        plural_subjects: true,
        ..DomainParams::default()
    };
    let world = WorldBuilder::new(kb.clone(), seed)
        .domain("animal", Property::adjective("cute"), params.clone())
        .domain("city", Property::adjective("big"), params)
        .build();
    (kb, world)
}

fn generator(seed: u64) -> (Arc<KnowledgeBase>, CorpusGenerator) {
    let (kb, world) = world(seed);
    let generator = CorpusGenerator::new(
        world,
        CorpusConfig {
            num_shards: SHARDS,
            ..CorpusConfig::default()
        },
    );
    (kb, generator)
}

fn surveyor(kb: Arc<KnowledgeBase>, threads: usize) -> Surveyor {
    Surveyor::new(
        kb,
        SurveyorConfig {
            rho: 20,
            threads,
            ..SurveyorConfig::default()
        },
    )
}

/// The serialized views that must survive the binary round trip.
fn fingerprint(output: &SurveyorOutput, kb: &Arc<KnowledgeBase>) -> (String, String, String) {
    let store = SubjectiveKb::from_output(output, kb).to_json();
    let evidence = output.evidence.to_json();
    let decisions = serde_json::to_string(&output.triples()).expect("triples serialize");
    (store, evidence, decisions)
}

/// Asserts the full save → load → re-save contract on one mined output.
fn assert_round_trip(output: &SurveyorOutput, kb: &Arc<KnowledgeBase>, context: &str) {
    let bytes = save_snapshot(output);
    assert_eq!(&bytes[..8], b"SURVWIRE", "{context}: magic");
    let loaded = load_snapshot(&bytes).expect("own snapshot decodes");
    assert_eq!(
        fingerprint(output, kb),
        fingerprint(&loaded, loaded.kb()),
        "{context}: loaded world diverges from the mined one"
    );
    assert_eq!(
        output.decided_pairs(),
        loaded.decided_pairs(),
        "{context}: decided-pair count"
    );
    // Encoding is canonical: the loaded world re-encodes to the exact
    // same bytes.
    assert_eq!(
        bytes,
        save_snapshot(&loaded),
        "{context}: re-encode is not byte-identical"
    );
}

#[test]
fn snapshots_round_trip_byte_identically_across_thread_counts() {
    let (kb, generator) = generator(17);
    let mut reference: Option<Vec<u8>> = None;
    for threads in THREAD_COUNTS {
        let output = surveyor(kb.clone(), threads).run(&CorpusSource::new(&generator));
        assert!(output.decided_pairs() > 0);
        assert_round_trip(&output, &kb, &format!("{threads} threads"));
        // Thread count may not leak into the snapshot bytes either: the
        // same world snapshots to the same file however it was mined.
        let bytes = save_snapshot(&output);
        match &reference {
            None => reference = Some(bytes),
            Some(reference) => {
                assert_eq!(reference, &bytes, "snapshot differs at {threads} threads");
            }
        }
    }
}

#[test]
fn snapshots_round_trip_under_chaos() {
    // A transient shard (recovers via retry) and a permanent one (always
    // quarantined): the snapshot must capture exactly the degraded world
    // the run produced, and still round-trip byte-identically.
    let plan = FaultPlan::none()
        .with(2, Fault::Transient { failures: 1 })
        .with(5, Fault::Permanent);
    let (kb, generator) = generator(17);
    let injector = FaultInjector::new(CorpusSource::new(&generator), plan);
    let run = surveyor(kb.clone(), 4)
        .try_run(
            &injector,
            &RetryPolicy::immediate(),
            &FailurePolicy::Degrade {
                min_shard_coverage: 0.5,
            },
        )
        .expect("7 of 8 shards survive the plan");
    assert_eq!(run.coverage.quarantined_shards(), vec![5]);
    assert_round_trip(&run.output, &kb, "chaos run");

    // The degraded snapshot differs from the clean one — the quarantined
    // shard's statements are genuinely absent.
    let clean = surveyor(kb.clone(), 4).run(&CorpusSource::new(&generator));
    assert_ne!(
        save_snapshot(&run.output),
        save_snapshot(&clean),
        "chaos snapshot should not equal the clean snapshot"
    );
}

#[test]
fn loaded_worlds_answer_queries_like_mined_ones() {
    let (kb, generator) = generator(17);
    let output = surveyor(kb.clone(), 4).run(&CorpusSource::new(&generator));
    let loaded = load_snapshot(&save_snapshot(&output)).expect("own snapshot decodes");
    let mined_store = SubjectiveKb::from_output(&output, &kb);
    let loaded_store = SubjectiveKb::from_output(&loaded, loaded.kb());
    for (type_name, property) in [("animal", "cute"), ("city", "big")] {
        let property = Property::adjective(property);
        let mined: Vec<&str> = mined_store
            .query(type_name, &property)
            .iter()
            .map(|h| h.entity_name)
            .collect();
        let loaded: Vec<&str> = loaded_store
            .query(type_name, &property)
            .iter()
            .map(|h| h.entity_name)
            .collect();
        assert_eq!(mined, loaded, "query results differ for {type_name}");
        assert!(!mined.is_empty(), "no hits for {type_name}");
    }
}

#[test]
fn corrupting_any_single_byte_is_an_error_or_the_same_world() {
    // Flip one byte at a stride through the snapshot: every flip must
    // either fail with a typed error (CRC catches payload damage, the
    // validators catch the rest) — or, for the rare flip the CRC layer
    // cannot see (inside an unknown-section-skip scenario this format
    // never produces), still decode. It must never panic.
    let (kb, generator) = generator(17);
    let output = surveyor(kb.clone(), 2).run(&CorpusSource::new(&generator));
    let bytes = save_snapshot(&output);
    for pos in (0..bytes.len()).step_by(211) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x55;
        let _ = load_snapshot(&bad);
    }
    // And the unmodified bytes still decode after all that cloning.
    assert!(load_snapshot(&bytes).is_ok());
}

/// Small worlds of the two shapes the benchmark mines: a few dense
/// combinations, and a long tail of sparse ones.
fn preset_outputs(seed: u64) -> Vec<(&'static str, SurveyorOutput)> {
    let mine = |world: surveyor_corpus::World, rho: u64| {
        let kb = world.kb().clone();
        let generator = CorpusGenerator::new(
            world,
            CorpusConfig {
                num_shards: 4,
                ..CorpusConfig::default()
            },
        );
        let config = SurveyorConfig {
            rho,
            threads: 2,
            ..SurveyorConfig::default()
        };
        Surveyor::new(kb, config).run(&CorpusSource::new(&generator))
    };
    vec![
        ("table2", mine(presets::table2_world_sized(seed, 12), 100)),
        (
            "long tail",
            mine(presets::long_tail_world(6, 150, 4, seed), 25),
        ),
    ]
}

fn some_state() -> IncrementalState {
    IncrementalState {
        rho: 25,
        config_digest: 0x5eed,
        corpus_digest: 0,
        ingested: vec![(0, 4)],
        pending: Vec::new(),
    }
}

#[test]
fn loading_bytes_equals_loading_the_decoded_snapshot() {
    // `load_snapshot*` read the sections off the bytes; `decode` +
    // `output_from_snapshot` go through the owned model. One world, two
    // routes, the same output — with and without `INCR`/`GRPF`.
    for seed in [3, 11] {
        for (preset, output) in preset_outputs(seed) {
            assert!(output.decided_pairs() > 0, "{preset}/{seed}: empty world");
            for bytes in [
                save_snapshot(&output),
                save_snapshot_with_state(&output, &some_state()),
            ] {
                let context = format!("{preset}/{seed}/{} bytes", bytes.len());
                let decoded = surveyor::wire::decode(&bytes).expect("own snapshot decodes");
                let reference = output_from_snapshot(&decoded).expect("own snapshot loads");
                let (with_state, state) =
                    load_snapshot_with_state(&bytes).expect("own snapshot loads");
                assert_eq!(state, decoded.incremental, "{context}: state");
                let plain = load_snapshot(&bytes).expect("own snapshot loads");
                for loaded in [&plain, &with_state] {
                    assert_eq!(
                        fingerprint(loaded, loaded.kb()),
                        fingerprint(&reference, reference.kb()),
                        "{context}: store, evidence or triples"
                    );
                    assert_eq!(loaded.triples(), output.triples(), "{context}: triples");
                    let again = match &state {
                        Some(state) => save_snapshot_with_state(loaded, state),
                        None => save_snapshot(loaded),
                    };
                    assert_eq!(again, bytes, "{context}: re-encoded bytes");
                }
            }
        }
    }
}

/// CRC-32/ISO-HDLC one bit at a time: the definition, written out here so
/// the test can re-frame a payload it has damaged (and so the wire
/// crate's table-driven sum is checked against something that shares no
/// code with it).
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
            let frame = (at + 12, payload.clone());
            assert_eq!(
                u32::from_le_bytes(bytes[at + 12..at + 16].try_into().unwrap()),
                crc32_bitwise(&bytes[payload.clone()]),
                "stored checksum of the frame at {at}"
            );
            at = payload.end;
            frame
        })
        .collect()
}

#[test]
fn damage_inside_valid_frames_is_an_error_or_a_world_never_a_panic() {
    // What a checksum cannot catch: one byte of a payload changed and the
    // frame's CRC made right again, so the damage reaches the record
    // parsers and the cross-reference checks. Whatever it hits — a count,
    // an index, a code, a float, a string — every loader answers `Ok` or
    // `Err`, all the same; and what they accept, the store builder and
    // the encoder accept too.
    let (kb, generator) = generator(17);
    let output = surveyor(kb, 2).run(&CorpusSource::new(&generator));
    let bytes = save_snapshot_with_state(&output, &some_state());
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

        let plain = load_snapshot(&bad);
        let served = surveyor::load_store(&bad);
        match load_snapshot_with_state(&bad) {
            Ok((loaded, _)) => {
                accepted += 1;
                assert!(plain.is_ok(), "round {round}: one loader accepted");
                let store = SubjectiveKb::from_output(&loaded, loaded.kb());
                assert!(store.len() <= loaded.decided_pairs());
                // The store filled straight from the bytes is that store.
                let served = served.unwrap_or_else(|e| panic!("round {round}: {e}"));
                assert_eq!(served.to_json(), store.to_json(), "round {round}");
                let _ = save_snapshot(&loaded);
            }
            Err(e) => {
                rejected += 1;
                assert_eq!(plain.err(), Some(e.clone()), "round {round}");
                assert_eq!(served.err(), Some(e), "round {round}");
            }
        }
    }
    // Both outcomes occur, so the mutations did get past the checksum
    // and did reach the checks.
    assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
}
