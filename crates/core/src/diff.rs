//! `surveyor diff`'s comparison of two snapshots: the sections on disk
//! (`surveyor_wire::diff_snapshots`) plus the one the format does not
//! store — each combination's decisions, derived by the loader from both
//! files. A combination reports as changed when any of its entities'
//! verdict or posterior moved: a flip, or a probability that differs in a
//! bit.

use crate::pipeline::SurveyorOutput;
use crate::snapshot::{output_from_snapshot, SnapshotError};
use std::collections::BTreeMap;
use surveyor_model::Decision;
use surveyor_wire::{SectionDelta, Snapshot, SnapshotDiff};

/// Compares two decoded snapshots section by section, with the decisions
/// each one's models imply as a `decisions` section after `models`.
/// Fails when either snapshot does not load.
pub fn diff_snapshots(a: &Snapshot, b: &Snapshot) -> Result<SnapshotDiff, SnapshotError> {
    let decisions = SectionDelta::compare(
        "decisions",
        decisions_by_group(&output_from_snapshot(a)?),
        decisions_by_group(&output_from_snapshot(b)?),
    );
    let mut diff = surveyor_wire::diff_snapshots(a, b);
    let after_models = (diff.sections.iter())
        .position(|section| section.section == "models")
        .map_or(diff.sections.len(), |at| at + 1);
    diff.sections.insert(after_models, decisions);
    Ok(diff)
}

/// Per combination, keyed `type × property` like the wire sections, every
/// entity's verdict and posterior bits, keyed by the entity's name.
type GroupDecisions = Vec<(String, u8, Option<u64>)>;

fn decisions_by_group(output: &SurveyorOutput) -> BTreeMap<String, GroupDecisions> {
    let kb = output.kb();
    (output.results.iter())
        .map(|result| {
            let key = format!(
                "{} × {}",
                kb.entity_type(result.key.type_id).name(),
                result.key.property.resolve()
            );
            let mut rows: GroupDecisions = (result.decisions.iter())
                .map(|(entity, d)| {
                    let code = match d.decision {
                        Decision::Unsolved => 0,
                        Decision::Positive => 1,
                        Decision::Negative => 2,
                    };
                    let name = kb.entity(*entity).name().to_owned();
                    (name, code, d.probability.map(f64::to_bits))
                })
                .collect();
            rows.sort();
            (key, rows)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Surveyor, SurveyorConfig};
    use crate::snapshot::snapshot_output;
    use std::sync::Arc;
    use surveyor_extract::{EvidenceTable, Polarity, Statement};
    use surveyor_kb::{KnowledgeBaseBuilder, Property};

    fn world() -> Snapshot {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        for name in ["Kitten", "Puppy", "Spider", "Rock"] {
            b.add_entity(name, animal).finish();
        }
        let kb = Arc::new(b.build());
        let cute = Property::adjective("cute");
        let mut table = EvidenceTable::new();
        for (name, pos, neg) in [("Kitten", 40, 1), ("Puppy", 25, 1), ("Spider", 1, 9)] {
            let entity = kb.entity_by_name(name).unwrap();
            for polarity in [Polarity::Positive, Polarity::Negative] {
                let n = if polarity == Polarity::Positive {
                    pos
                } else {
                    neg
                };
                for _ in 0..n {
                    table.add(&Statement::new(entity, &cute, polarity));
                }
            }
        }
        let config = SurveyorConfig {
            rho: 10,
            ..SurveyorConfig::default()
        };
        snapshot_output(&Surveyor::new(kb, config).run_on_evidence(table))
    }

    #[test]
    fn identical_snapshots_diff_empty_in_every_section() {
        let a = world();
        let diff = diff_snapshots(&a, &a.clone()).unwrap();
        assert!(diff.is_identical(), "{diff:?}");
        let sections: Vec<&str> = diff.sections.iter().map(|s| s.section).collect();
        assert_eq!(sections[5..], ["models", "decisions", "incremental"]);
        assert_eq!(sections.len(), 8);
        assert_eq!(diff.sections[6].count_a, 1);
    }

    #[test]
    fn decision_flip_is_a_change() {
        // Swapping the two rates turns the chatty class negative: the
        // model row changes, and so does every derived verdict.
        let a = world();
        let mut b = world();
        let model = &mut b.models[0];
        (model.rate_pos, model.rate_neg) = (model.rate_neg, model.rate_pos);
        let diff = diff_snapshots(&a, &b).unwrap();
        assert_eq!(diff.sections[5].changed, vec!["animal × cute"]);
        assert_eq!(diff.sections[6].section, "decisions");
        assert_eq!(diff.sections[6].changed, vec!["animal × cute"]);
        // A snapshot that does not load has no decisions to compare.
        let mut bad = world();
        bad.models[0].p_agree = 2.0;
        assert_eq!(
            diff_snapshots(&a, &bad).unwrap_err(),
            SnapshotError::Corrupt("model parameters out of range")
        );
    }
}
