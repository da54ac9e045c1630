//! Section-by-section comparison of two snapshots.
//!
//! `wire diff` answers the operational question "what changed between
//! these two `.swire` files?" without loading either into a pipeline:
//! every section is keyed by its *stable identity* (names and surface
//! forms, never dense table indexes), so re-ordering the entity table or
//! re-interning properties does not masquerade as a content change —
//! only genuinely added, removed, or changed rows report.
//!
//! The crate stays zero-dep: this module emits plain owned structures;
//! human and JSON rendering belong to the CLI. Decisions are not a wire
//! section: the loader derives them, and `surveyor::diff_snapshots` adds
//! their comparison to this one.

use crate::snapshot::{Snapshot, SnapshotProperty};
use std::collections::BTreeMap;

/// The per-section comparison result. Key lists are sorted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SectionDelta {
    /// Section name (`properties`, `types`, `entities`, `evidence`,
    /// `provenance`, `models`, `incremental`, `fingerprints`; the loader
    /// adds `decisions`).
    pub section: &'static str,
    /// Row count in the first snapshot.
    pub count_a: usize,
    /// Row count in the second snapshot.
    pub count_b: usize,
    /// Keys present only in the second snapshot.
    pub added: Vec<String>,
    /// Keys present only in the first snapshot.
    pub removed: Vec<String>,
    /// Keys present in both with different content.
    pub changed: Vec<String>,
}

impl SectionDelta {
    /// Compares one section's rows of two snapshots, each keyed by its
    /// stable identity: keys in one map only are added or removed, keys
    /// in both with unequal values changed.
    pub fn compare<V: PartialEq>(
        section: &'static str,
        a: BTreeMap<String, V>,
        b: BTreeMap<String, V>,
    ) -> Self {
        let mut delta = Self {
            section,
            count_a: a.len(),
            count_b: b.len(),
            ..Self::default()
        };
        for (key, value) in &a {
            match b.get(key) {
                None => delta.removed.push(key.clone()),
                Some(other) if other != value => delta.changed.push(key.clone()),
                Some(_) => {}
            }
        }
        for key in b.keys() {
            if !a.contains_key(key) {
                delta.added.push(key.clone());
            }
        }
        delta
    }

    /// Whether the section is identical across the two snapshots.
    pub fn is_identical(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty()
    }

    /// Total number of differing keys.
    pub fn difference_count(&self) -> usize {
        self.added.len() + self.removed.len() + self.changed.len()
    }
}

/// The full comparison of two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDiff {
    /// Whether the provenance sample bounds differ.
    pub sample_size_changed: bool,
    /// One delta per section, in canonical section order.
    pub sections: Vec<SectionDelta>,
}

impl SnapshotDiff {
    /// Whether the two snapshots are semantically identical.
    pub fn is_identical(&self) -> bool {
        !self.sample_size_changed && self.sections.iter().all(SectionDelta::is_identical)
    }

    /// Total differing keys across all sections.
    pub fn difference_count(&self) -> usize {
        self.sections
            .iter()
            .map(SectionDelta::difference_count)
            .sum()
    }
}

fn property_display(p: &SnapshotProperty) -> String {
    let mut s = String::new();
    for adverb in &p.adverbs {
        s.push_str(adverb);
        s.push(' ');
    }
    s.push_str(&p.adjective);
    s
}

/// Index→name helpers resolved against one snapshot's own tables, so a
/// dangling index (possible in hand-built snapshots) renders as a
/// placeholder instead of failing the diff.
struct Names<'a>(&'a Snapshot);

impl Names<'_> {
    fn entity(&self, index: u32) -> String {
        (self.0.entities.get(index as usize))
            .map(|e| e.name.clone())
            .unwrap_or_else(|| format!("#entity{index}"))
    }

    fn type_name(&self, index: u32) -> String {
        (self.0.types.get(index as usize))
            .map(|t| t.name.clone())
            .unwrap_or_else(|| format!("#type{index}"))
    }

    fn property(&self, index: u32) -> String {
        (self.0.properties.get(index as usize))
            .map(property_display)
            .unwrap_or_else(|| format!("#property{index}"))
    }

    /// The key of an `(entity, property)` row: `EVID`, `PROV`.
    fn pair(&self, entity: u32, property: u32) -> String {
        format!("{} × {}", self.entity(entity), self.property(property))
    }

    /// The key of a `(type, property)` row: `MODL`, `GRPF`.
    fn group(&self, type_index: u32, property: u32) -> String {
        format!(
            "{} × {}",
            self.type_name(type_index),
            self.property(property)
        )
    }
}

/// Compares one section of `a` and `b`: `rows` keys one snapshot's rows
/// by stable identity and is called for each side.
fn section<V: PartialEq>(
    name: &'static str,
    a: &Snapshot,
    b: &Snapshot,
    rows: impl Fn(&Snapshot, Names<'_>) -> BTreeMap<String, V>,
) -> SectionDelta {
    SectionDelta::compare(name, rows(a, Names(a)), rows(b, Names(b)))
}

/// Compares two decoded snapshots section by section.
pub fn diff_snapshots(a: &Snapshot, b: &Snapshot) -> SnapshotDiff {
    let sections = vec![
        section("properties", a, b, |s, _| {
            (s.properties.iter())
                .map(|p| (property_display(p), ()))
                .collect()
        }),
        section("types", a, b, |s, _| {
            (s.types.iter())
                .map(|t| {
                    let value = (t.head_nouns.clone(), t.context_cues.clone());
                    (t.name.clone(), value)
                })
                .collect()
        }),
        section("entities", a, b, |s, names| {
            (s.entities.iter())
                .map(|e| {
                    let type_name = names.type_name(e.type_index);
                    let value = (e.aliases.clone(), type_name, e.attributes.clone());
                    (e.name.clone(), value)
                })
                .collect()
        }),
        section("evidence", a, b, |s, names| {
            (s.evidence.iter())
                .map(|row| {
                    let value = (row.positive, row.negative);
                    (names.pair(row.entity, row.property), value)
                })
                .collect()
        }),
        section("provenance", a, b, |s, names| {
            (s.provenance.iter())
                .map(|row| {
                    let value = row.documents.clone();
                    (names.pair(row.entity, row.property), value)
                })
                .collect()
        }),
        // Model parameters compare bit-exact: snapshots round-trip floats
        // exactly, so any bit difference is a real content change. The
        // log-likelihood is telemetry, not identity.
        section("models", a, b, |s, names| {
            (s.models.iter())
                .map(|m| {
                    let value = (
                        m.p_agree.to_bits(),
                        m.rate_pos.to_bits(),
                        m.rate_neg.to_bits(),
                        m.iterations,
                        m.converged,
                    );
                    (names.group(m.type_index, m.property), value)
                })
                .collect()
        }),
        // The optional incremental state compares field by field, so the
        // report names what moved (e.g. newly ingested ranges, a drained
        // replay queue) instead of a single opaque "changed".
        section("incremental", a, b, |s, _| {
            let Some(state) = &s.incremental else {
                return BTreeMap::new();
            };
            let ingested: Vec<String> = (state.ingested.iter())
                .map(|(start, end)| format!("[{start}, {end})"))
                .collect();
            BTreeMap::from([
                ("rho".to_owned(), state.rho.to_string()),
                (
                    "config digest".to_owned(),
                    format!("{:016x}", state.config_digest),
                ),
                (
                    "corpus digest".to_owned(),
                    format!("{:016x}", state.corpus_digest),
                ),
                ("ingested shards".to_owned(), ingested.join(" ")),
                ("pending shards".to_owned(), format!("{:?}", state.pending)),
            ])
        }),
        // Group fingerprints make "which groups did the delta dirty?" a
        // first-class diff answer: a changed key here is a dirtied group.
        section("fingerprints", a, b, |s, names| {
            (s.fingerprints.iter())
                .map(|row| {
                    let value = (row.entities, row.total, row.fingerprint);
                    (names.group(row.type_index, row.property), value)
                })
                .collect()
        }),
    ];
    SnapshotDiff {
        sample_size_changed: a.provenance_sample_size != b.provenance_sample_size,
        sections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{EvidenceRow, ModelRow, SnapshotEntity, SnapshotType};

    fn world() -> Snapshot {
        Snapshot {
            properties: vec![
                SnapshotProperty {
                    adverbs: vec![],
                    adjective: "big".into(),
                },
                SnapshotProperty {
                    adverbs: vec!["very".into()],
                    adjective: "safe".into(),
                },
            ],
            types: vec![SnapshotType {
                name: "city".into(),
                head_nouns: vec!["city".into()],
                context_cues: vec![],
            }],
            entities: vec![
                SnapshotEntity {
                    name: "Springfield".into(),
                    aliases: vec![],
                    type_index: 0,
                    attributes: vec![("population".into(), 167_000.0)],
                },
                SnapshotEntity {
                    name: "Shelbyville".into(),
                    aliases: vec![],
                    type_index: 0,
                    attributes: vec![],
                },
            ],
            evidence: vec![EvidenceRow {
                entity: 0,
                property: 0,
                positive: 10,
                negative: 2,
            }],
            provenance_sample_size: 3,
            provenance: vec![],
            models: vec![ModelRow {
                type_index: 0,
                property: 0,
                p_agree: 0.9,
                rate_pos: 1.5,
                rate_neg: 0.2,
                iterations: 12,
                converged: 1,
                log_likelihood: -4.2,
            }],
            incremental: None,
            fingerprints: vec![],
        }
    }

    #[test]
    fn identical_snapshots_diff_empty() {
        let a = world();
        let diff = diff_snapshots(&a, &a.clone());
        assert!(diff.is_identical());
        assert_eq!(diff.difference_count(), 0);
        assert_eq!(diff.sections.len(), 8);
    }

    #[test]
    fn dirtied_group_reports_in_fingerprints_section() {
        let mut a = world();
        a.fingerprints = crate::snapshot::group_fingerprints(&a);
        a.incremental = Some(crate::IncrementalState {
            rho: 40,
            config_digest: 1,
            corpus_digest: 2,
            ingested: vec![(0, 3)],
            pending: vec![],
        });
        // The updated snapshot ingested one more shard and grew the
        // evidence of the only group.
        let mut b = a.clone();
        b.evidence[0].positive += 5;
        b.fingerprints = crate::snapshot::group_fingerprints(&b);
        b.incremental.as_mut().unwrap().ingest_range(3, 4);

        let diff = diff_snapshots(&a, &b);
        assert!(!diff.is_identical());
        let fingerprints = &diff.sections[7];
        assert_eq!(fingerprints.section, "fingerprints");
        assert_eq!(fingerprints.changed, vec!["city × big"]);
        let incremental = &diff.sections[6];
        assert_eq!(incremental.section, "incremental");
        assert_eq!(incremental.changed, vec!["ingested shards"]);
    }

    #[test]
    fn added_entity_reports_in_entities_section() {
        let a = world();
        let mut b = world();
        b.entities.push(SnapshotEntity {
            name: "Ogdenville".into(),
            aliases: vec![],
            type_index: 0,
            attributes: vec![],
        });
        let diff = diff_snapshots(&a, &b);
        assert!(!diff.is_identical());
        let entities = &diff.sections[2];
        assert_eq!(entities.section, "entities");
        assert_eq!(entities.count_a, 2);
        assert_eq!(entities.count_b, 3);
        assert_eq!(entities.added, vec!["Ogdenville"]);
        assert!(entities.removed.is_empty());
    }

    #[test]
    fn changed_evidence_counts_report_as_changed() {
        let a = world();
        let mut b = world();
        b.evidence[0].positive = 99;
        let diff = diff_snapshots(&a, &b);
        let evidence = &diff.sections[3];
        assert_eq!(evidence.changed, vec!["Springfield × big"]);
        assert!(evidence.added.is_empty() && evidence.removed.is_empty());
    }

    #[test]
    fn model_parameter_drift_is_a_change() {
        let a = world();
        let mut b = world();
        b.models[0].p_agree = 0.91;
        let diff = diff_snapshots(&a, &b);
        let models = &diff.sections[5];
        assert_eq!(models.changed, vec!["city × big"]);
        // The log-likelihood is telemetry, not identity: it alone does
        // not flag the model row.
        let mut c = world();
        c.models[0].log_likelihood = -9.9;
        assert!(diff_snapshots(&a, &c).is_identical());
    }

    #[test]
    fn reordered_entity_table_is_not_a_difference() {
        let a = world();
        let mut b = world();
        // Swap the entity table and fix up every index reference; the
        // content is identical, only dense ids moved.
        b.entities.swap(0, 1);
        b.evidence[0].entity = 1;
        let diff = diff_snapshots(&a, &b);
        assert!(
            diff.is_identical(),
            "index renumbering must not report: {diff:?}"
        );
    }

    #[test]
    fn sample_size_mismatch_flags() {
        let a = world();
        let mut b = world();
        b.provenance_sample_size = 9;
        let diff = diff_snapshots(&a, &b);
        assert!(diff.sample_size_changed);
        assert!(!diff.is_identical());
    }
}
