//! The snapshot a save writes is the owned export, encoded: for every
//! preset world, with and without incremental state, and for the edge
//! cases of the optional sections — an output with no evidence (so no
//! `GRPF`) and one with no provenance — `save_snapshot*` returns exactly
//! `wire::encode(&snapshot_output*(…))`, and those bytes decode back to
//! that export.

use std::sync::Arc;
use surveyor::extract::{EvidenceTable, ProvenanceTable};
use surveyor::prelude::*;
use surveyor::wire::{self, IncrementalState};
use surveyor::{
    save_snapshot, save_snapshot_with_state, snapshot_output, snapshot_output_with_state,
};
use surveyor_corpus::presets;

fn mine(world: World, rho: u64) -> SurveyorOutput {
    let kb = Arc::clone(world.kb());
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
}

fn state(rho: u64) -> IncrementalState {
    IncrementalState {
        rho,
        config_digest: 0x5eed,
        corpus_digest: 7,
        ingested: vec![(0, 3)],
        pending: vec![3],
    }
}

/// Both saves of `output` against their owned exports.
fn assert_saves_encode_the_export(name: &str, output: &SurveyorOutput, rho: u64) {
    let export = snapshot_output(output);
    let bytes = save_snapshot(output);
    assert_eq!(bytes, wire::encode(&export), "{name}: save_snapshot");
    assert_eq!(wire::decode(&bytes).unwrap(), export, "{name}: decode");
    assert!(export.incremental.is_none() && export.fingerprints.is_empty());

    let state = state(rho);
    let export = snapshot_output_with_state(output, &state);
    let bytes = save_snapshot_with_state(output, &state);
    assert_eq!(
        bytes,
        wire::encode(&export),
        "{name}: save_snapshot_with_state"
    );
    assert_eq!(wire::decode(&bytes).unwrap(), export, "{name}: decode");
    assert_eq!(export.incremental.as_ref(), Some(&state));
    // Fingerprints are written exactly when there is evidence to take
    // them over.
    assert_eq!(
        export.fingerprints.is_empty(),
        export.evidence.is_empty(),
        "{name}"
    );
}

#[test]
fn saves_of_the_preset_worlds_are_their_encoded_exports() {
    for (name, world, rho) in [
        ("table2", presets::table2_world(2015), 100),
        ("cities", presets::big_cities_world(5), 40),
        ("longtail", presets::long_tail_world(12, 40, 4, 3), 25),
    ] {
        let output = mine(world, rho);
        assert!(output.evidence.total_statements() > 0, "{name}");
        assert!(output.provenance.pair_count() > 0, "{name}");
        assert_saves_encode_the_export(name, &output, rho);
    }
}

#[test]
fn saves_without_evidence_or_provenance_are_their_encoded_exports() {
    let world = presets::long_tail_world(6, 20, 3, 9);
    let kb = Arc::clone(world.kb());

    let empty = Surveyor::new(kb, SurveyorConfig::default()).run_on_evidence(EvidenceTable::new());
    assert_eq!(empty.evidence.total_statements(), 0);
    assert_saves_encode_the_export("no evidence", &empty, 1);

    let mut unsourced = mine(world, 25);
    unsourced.provenance = ProvenanceTable::new(unsourced.provenance.sample_size());
    assert!(unsourced.evidence.total_statements() > 0);
    assert_saves_encode_the_export("no provenance", &unsourced, 25);
}
