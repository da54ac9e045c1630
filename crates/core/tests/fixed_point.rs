//! Every file the loaders accept is a fixed point of load → save
//! (FORMAT.md §4). The files come from a generator of whole snapshots the
//! loader accepts — structurally valid and semantically arbitrary: a
//! sample bound of 0 or 1, rows without documents, models for groups
//! with no evidence or below any threshold, a model at the `pA` grid's
//! floor, types with no entities, `INCR` present and absent, a frame of
//! the retired `GRPF` section (an arbitrary payload, its checksum right)
//! present and absent, and entities with aliases or with two or more
//! attributes among bare ones, in interleaved type runs. Over them:
//!
//! - `save(load(b)) == b` for encoder output, and `b` without its `GRPF`
//!   frame when it has one;
//! - `save(load(b))` is a fixed point of load → save, also for accepted
//!   files that are not encoder output (one byte of a section changed and
//!   its checksum made right again);
//! - `surveyor diff b save(load(b))` reports no difference, for those
//!   files too;
//! - an update with an empty delta writes `save(load(b))`;
//! - the output's loader and the served store's give each file one
//!   verdict, and serve an accepted one alike.

use proptest::prelude::*;
use std::collections::BTreeSet;
use surveyor::extract::ExtractionOutput;
use surveyor::wire::{
    decode, encode, IncrementalState, ModelRow, PairRow, Snapshot, SnapshotEntity,
    SnapshotProperty, SnapshotType,
};
use surveyor::{
    diff_snapshots, load_snapshot_with_state, load_store, save_snapshot, save_snapshot_with_state,
    SnapshotError, SubjectiveKb, Surveyor, SurveyorConfig, SurveyorOutput, WarmStart,
};

/// SplitMix64: the generator's one source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True one time in `n`.
    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// Up to `max` picks from `items`, repeats allowed.
    fn words(&mut self, items: &[&str], max: u64) -> Vec<String> {
        (0..self.below(max + 1))
            .map(|_| self.pick(items).to_owned())
            .collect()
    }
}

/// Lowercase, as the knowledge base and the property table store them.
const WORDS: [&str; 8] = ["big", "calm", "cute", "old", "très", "ぴかぴか", "", "x"];
const ADVERBS: [&str; 3] = ["very", "densely", "quite"];
const TYPE_NAMES: [&str; 5] = ["city", "animal", "river", "ぴかぴか", ""];
/// Display names are kept as written, case and all.
const NAMES: [&str; 6] = ["Kitten", "KITTEN", "Tiger", "Saint-Étienne", "", "a b"];

/// A snapshot the loader accepts, in the form the product writes it — the
/// property table holds exactly the properties rows and models refer to —
/// and its file: the encoding, one time in two with a `GRPF` frame after
/// the last section, as files written before that section was retired
/// may carry.
fn accepted(seed: u64) -> (Snapshot, Vec<u8>) {
    let mut rng = Rng(seed);
    let properties: BTreeSet<SnapshotProperty> = (0..1 + rng.below(5))
        .map(|_| SnapshotProperty {
            adverbs: rng.words(&ADVERBS, 1),
            adjective: rng.pick(&WORDS).to_owned(),
        })
        .collect();
    let properties: Vec<SnapshotProperty> = properties.into_iter().collect();
    let names: BTreeSet<&str> = (0..rng.below(5)).map(|_| rng.pick(&TYPE_NAMES)).collect();
    let types: Vec<SnapshotType> = (names.into_iter())
        .map(|name| SnapshotType {
            name: name.to_owned(),
            head_nouns: rng.words(&WORDS, 2),
            context_cues: rng.words(&WORDS, 1),
        })
        .collect();

    // Runs of one type, interleaved; most entities bare.
    let mut entities: Vec<SnapshotEntity> = Vec::new();
    if !types.is_empty() {
        let mut type_index = 0;
        for _ in 0..rng.below(17) {
            if rng.one_in(3) {
                type_index = rng.below(types.len() as u64) as u32;
            }
            let aliases = match rng.one_in(4) {
                true => (0..1 + rng.below(2))
                    .map(|_| rng.pick(&NAMES).to_owned())
                    .collect(),
                false => Vec::new(),
            };
            let mut attributes = Vec::new();
            if rng.one_in(2) {
                let keys: BTreeSet<&str> =
                    (0..2 + rng.below(3)).map(|_| rng.pick(&WORDS)).collect();
                for key in keys {
                    let value = rng.pick(&[4.0, -0.0, 2.1e6, f64::MAX, f64::MIN_POSITIVE]);
                    attributes.push((key.to_owned(), value));
                }
            }
            entities.push(SnapshotEntity {
                name: rng.pick(&NAMES).to_owned(),
                aliases,
                type_index,
                attributes,
            });
        }
    }

    let sample_size = rng.pick(&[0, 1, 2, 5]);
    let mut rows = Vec::new();
    for entity in 0..entities.len() as u32 {
        for property in 0..properties.len() as u32 {
            if !rng.one_in(3) {
                continue;
            }
            let count = rng.below(sample_size + 1);
            let documents: BTreeSet<u64> = (0..count)
                .map(|_| rng.below(3) << 32 | rng.below(50))
                .collect();
            rows.push(PairRow {
                entity,
                property,
                positive: rng.below(40),
                negative: match rng.below(3) {
                    0 => 0,
                    _ => rng.below(40),
                },
                documents: documents.into_iter().collect(),
            });
        }
    }
    // Groups with evidence or without, above any threshold or below it.
    let mut models = Vec::new();
    for type_index in 0..types.len() as u32 {
        for property in 0..properties.len() as u32 {
            if rng.one_in(3) {
                models.push(ModelRow {
                    type_index,
                    property,
                    p_agree: match rng.below(4) {
                        0 => 0.5,
                        1 => 0.5 + rng.below(50) as f64 / 100.0,
                        _ => rng.pick(&[0.0, 1.0]),
                    },
                    rate_pos: rng.pick(&[0.0, 1.5, 40.0]),
                    rate_neg: rng.pick(&[0.0, 0.25, 9.0]),
                    iterations: rng.below(300),
                    converged: rng.below(3) as u8,
                    log_likelihood: -(rng.below(5_000) as f64) / 8.0,
                });
            }
        }
    }

    // A writer only writes the properties something refers to.
    let mut referenced = vec![false; properties.len()];
    for property in (rows.iter().map(|row| row.property)).chain(models.iter().map(|m| m.property)) {
        referenced[property as usize] = true;
    }
    let mut rank = Vec::with_capacity(properties.len());
    let mut kept = Vec::new();
    for (property, is_referenced) in properties.into_iter().zip(&referenced) {
        rank.push(kept.len() as u32);
        if *is_referenced {
            kept.push(property);
        }
    }
    for property in (rows.iter_mut().map(|row| &mut row.property))
        .chain(models.iter_mut().map(|m| &mut m.property))
    {
        *property = rank[*property as usize];
    }

    let mut snapshot = Snapshot {
        properties: kept,
        types,
        entities,
        sample_size,
        rows,
        models,
        incremental: None,
    };
    if rng.one_in(2) {
        snapshot.incremental = Some(IncrementalState {
            rho: rng.below(50),
            config_digest: rng.next(),
            corpus_digest: match rng.one_in(2) {
                true => 0,
                false => rng.next(),
            },
            ingested: vec![(0, 1 + rng.below(4))],
            pending: (0..rng.below(2)).map(|_| 7).collect(),
        });
    }
    let mut bytes = encode(&snapshot);
    if rng.one_in(2) {
        let payload: Vec<u8> = (0..rng.below(40)).map(|_| rng.next() as u8).collect();
        bytes.extend_from_slice(b"GRPF");
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) + 1;
        bytes[12..16].copy_from_slice(&sections.to_le_bytes());
    }
    (snapshot, bytes)
}

/// What the loaders make of `bytes`, one verdict: the pipeline output's
/// loader and the served store's refuse the same files with the same
/// error, and what both accept the store renders as the output's store.
fn load(bytes: &[u8]) -> Result<(SurveyorOutput, Option<IncrementalState>), SnapshotError> {
    let loaded = load_snapshot_with_state(bytes);
    match (&loaded, load_store(bytes)) {
        (Ok((output, _)), Ok(store)) => assert_eq!(
            store.to_json(),
            SubjectiveKb::from_output(output, output.kb()).to_json()
        ),
        (Err(error), Err(store_error)) => assert_eq!(*error, store_error),
        (output, store) => panic!(
            "the loaders disagree: {:?} against {:?}",
            output.as_ref().err(),
            store.err()
        ),
    }
    loaded
}

/// The writer for a loaded file: with its state when it carried one.
fn save(output: &SurveyorOutput, state: Option<&IncrementalState>) -> Vec<u8> {
    match state {
        Some(state) => save_snapshot_with_state(output, state),
        None => save_snapshot(output),
    }
}

/// What an update with an empty delta writes over the loaded file.
fn update_with_empty_delta(output: SurveyorOutput, state: Option<&IncrementalState>) -> Vec<u8> {
    let config = SurveyorConfig {
        rho: state.map_or(SurveyorConfig::default().rho, |state| state.rho),
        threads: 1,
        ..SurveyorConfig::default()
    };
    let surveyor = Surveyor::new(output.kb().clone(), config);
    let (updated, stats) =
        surveyor.apply_delta(output, ExtractionOutput::default(), WarmStart::Exact);
    assert_eq!((stats.groups_dirty, stats.groups_refit), (0, 0));
    save(&updated, state)
}

/// CRC-32/ISO-HDLC one bit at a time, to frame a changed payload again.
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

/// `bytes` with one byte of one section's payload changed by `mask` and
/// that section's checksum made right again: a file no encoder wrote,
/// that the loader may still accept.
fn reframed(bytes: &[u8], position: u64, mask: u8) -> Vec<u8> {
    let mut frames = Vec::new();
    let mut at = 16;
    while at < bytes.len() {
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        if len > 0 {
            frames.push((at + 12, at + 16..at + 16 + len));
        }
        at += 16 + len;
    }
    let (crc_at, payload) = frames[(position % frames.len() as u64) as usize].clone();
    let mut changed = bytes.to_vec();
    changed[payload.start + (position >> 8) as usize % payload.len()] ^= mask;
    let crc = crc32(&changed[payload]);
    changed[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    changed
}

proptest! {
    /// The law on encoder output: byte identity (a `GRPF` frame aside),
    /// an empty diff, and an empty update that writes the same bytes.
    #[test]
    fn encoder_output_re_saves_byte_identically(seed in 0u64..=u64::MAX) {
        let (snapshot, bytes) = accepted(seed);
        let (output, state) = load(&bytes)
            .map_err(|e| TestCaseError::fail(format!("refused: {e}")))?;
        let saved = save(&output, state.as_ref());
        prop_assert!(saved == encode(&snapshot), "save(load(b)) != b for {snapshot:?}");
        let diff = diff_snapshots(&decode(&bytes).unwrap(), &decode(&saved).unwrap()).unwrap();
        prop_assert!(diff.is_identical(), "{diff:?}");
        prop_assert!(update_with_empty_delta(output, state.as_ref()) == saved);
    }

    /// The law on every accepted file, encoder output or not: one load →
    /// save reaches a file that load → save, and an empty update, leave
    /// as it is, and that `surveyor diff` calls identical to the first.
    #[test]
    fn accepted_files_reach_a_fixed_point_in_one_save(
        seed in 0u64..=u64::MAX,
        position in 0u64..=u64::MAX,
        // `0x20` turns a lowercase ASCII letter uppercase and `1` moves an
        // index, a count or a letter by one: the flips that break the
        // rules on strings and tables a writer always keeps.
        mask in prop_oneof![Just(0x20u8), Just(1u8), 1u8..=255],
    ) {
        let bytes = reframed(&accepted(seed).1, position, mask);
        let Ok((output, state)) = load(&bytes) else {
            return Ok(());
        };
        let saved = save(&output, state.as_ref());
        let diff = diff_snapshots(&decode(&bytes).unwrap(), &decode(&saved).unwrap())
            .map_err(|e| TestCaseError::fail(format!("diff refused an accepted file: {e}")))?;
        prop_assert!(diff.is_identical(), "{diff:?}");
        let (again, again_state) = load(&saved)
            .map_err(|e| TestCaseError::fail(format!("a re-saved file is refused: {e}")))?;
        prop_assert_eq!(&again_state, &state);
        prop_assert!(save(&again, again_state.as_ref()) == saved, "not a fixed point");
        prop_assert!(update_with_empty_delta(output, state.as_ref()) == saved);
    }
}
