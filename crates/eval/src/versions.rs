//! Table 4 (Appendix B): the four extraction-pattern versions.
//!
//! The paper reports, per version, the number of extracted statements —
//! V2 (permissive patterns, no checks) extracts roughly twice as much as
//! the shipped V4, while V3 (complement-only) extracts an order of
//! magnitude less. We regenerate those counts over the synthetic snapshot
//! and additionally report *extraction precision* against the generator's
//! intent: the fraction of extractions that correspond to genuine
//! statements (aspect/part-of distractors and subject-attributive
//! mis-reads count against it), quantifying the quality argument the
//! paper makes narratively.

use serde::Serialize;
use surveyor_corpus::{CorpusConfig, CorpusGenerator, World};
use surveyor_extract::{extract_documents, EvidenceTable, PatternVersion};
use surveyor_nlp::AnnotatedDocument;

/// One Table 4 row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VersionRow {
    /// Which version.
    pub version: PatternVersion,
    /// Table 4 "Modifiers" column.
    pub modifiers: String,
    /// Table 4 "Verbs" column.
    pub verbs: String,
    /// Table 4 "Check" column.
    pub checks: bool,
    /// Extracted statements (Table 4 "Statements").
    pub statements: u64,
    /// Distinct entity-property pairs.
    pub pairs: usize,
    /// Fraction of extractions on properties the generator actually
    /// asserted (higher = cleaner extractions).
    pub on_target_share: f64,
}

/// Runs all four versions over the same materialized snapshot.
pub fn run_versions(world: &World, corpus_config: CorpusConfig) -> Vec<VersionRow> {
    let generator = CorpusGenerator::new(world.clone(), corpus_config);
    let lexicon = generator.lexicon();
    // Materialize the annotated snapshot once; extraction itself is cheap
    // compared to parsing, and all versions must see identical documents.
    let docs: Vec<AnnotatedDocument> = (0..generator.shard_count())
        .flat_map(|s| generator.shard_annotated(s, &lexicon, None))
        .collect();

    // Properties the generator asserts on purpose (per type).
    let intended: std::collections::BTreeSet<(u32, String)> = world
        .domains()
        .iter()
        .map(|d| (d.type_id.0, d.property.to_string()))
        .collect();

    PatternVersion::all()
        .into_iter()
        .map(|version| {
            let config = version.config();
            let table: EvidenceTable = extract_documents(&docs, world.kb(), &config);
            let mut on_target = 0u64;
            let mut total = 0u64;
            for ((entity, property), counts) in table.iter() {
                let type_id = world.kb().entity(*entity).notable_type().0;
                let n = counts.total();
                total += n;
                if intended.contains(&(type_id, property.resolve().to_string())) {
                    on_target += n;
                }
            }
            VersionRow {
                version,
                modifiers: version.modifiers_label().to_owned(),
                verbs: version.verbs_label().to_owned(),
                checks: config.intrinsic_checks,
                statements: table.total_statements(),
                pairs: table.pair_count(),
                on_target_share: if total == 0 {
                    0.0
                } else {
                    on_target as f64 / total as f64
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use surveyor_corpus::presets::table2_world;

    fn rows() -> Vec<VersionRow> {
        run_versions(
            &table2_world(31),
            CorpusConfig {
                num_shards: 2,
                ..CorpusConfig::default()
            },
        )
    }

    #[test]
    fn four_rows_in_table_order() {
        let rows = rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].version, PatternVersion::V1);
        assert_eq!(rows[3].version, PatternVersion::V4);
        assert_eq!(rows[3].modifiers, "amod+acomp");
        assert_eq!(rows[3].verbs, "to be");
        assert!(rows[3].checks);
    }

    #[test]
    fn count_ordering_matches_table4() {
        let rows = rows();
        let count = |v: PatternVersion| rows.iter().find(|r| r.version == v).unwrap().statements;
        // Paper: V2 > V1 > V4 > V3.
        assert!(count(PatternVersion::V2) > count(PatternVersion::V4));
        assert!(count(PatternVersion::V4) > count(PatternVersion::V3));
        assert!(count(PatternVersion::V2) >= count(PatternVersion::V1));
    }

    #[test]
    fn checked_versions_are_cleaner() {
        let rows = rows();
        let share = |v: PatternVersion| {
            rows.iter()
                .find(|r| r.version == v)
                .unwrap()
                .on_target_share
        };
        assert!(
            share(PatternVersion::V4) > share(PatternVersion::V2),
            "V4 {} vs V2 {}",
            share(PatternVersion::V4),
            share(PatternVersion::V2)
        );
    }
}
