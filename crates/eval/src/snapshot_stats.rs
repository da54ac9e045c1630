//! Figure 9: extraction statistics over the full snapshot.
//!
//! (a) statements per knowledge-base entity (percentiles; heavily skewed —
//! "most entities are rarely mentioned while few popular entities are the
//! subject of most extracted statements"),
//! (b) statements per property-type combination (skewed again),
//! (c) per type, the number of properties above the ρ = 100 threshold.

use serde::Serialize;
use surveyor_extract::{EvidenceTable, GroupedEvidence};
use surveyor_kb::KnowledgeBase;
use surveyor_prob::percentile_sorted_or_zero;

/// Percentile grid used for all three sub-figures.
pub const PERCENTILES: [u8; 11] = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95];

/// The Figure 9 artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SnapshotStats {
    /// Total extracted statements.
    pub statements_total: u64,
    /// Distinct entity-property pairs with evidence.
    pub pairs_with_evidence: usize,
    /// Distinct (type, property) combinations with evidence.
    pub combinations_total: usize,
    /// Combinations meeting the occurrence threshold.
    pub combinations_above_rho: usize,
    /// (percentile, statements per entity) — Figure 9(a). Includes the
    /// zero counts of never-mentioned entities.
    pub per_entity: Vec<(u8, f64)>,
    /// (percentile, statements per combination) — Figure 9(b), over
    /// combinations with at least one statement.
    pub per_combination: Vec<(u8, f64)>,
    /// (percentile, properties above ρ per type) — Figure 9(c), over all
    /// types.
    pub properties_per_type: Vec<(u8, f64)>,
}

/// Computes the Figure 9 statistics.
pub fn snapshot_stats(evidence: &EvidenceTable, kb: &KnowledgeBase, rho: u64) -> SnapshotStats {
    // (a) statements per entity, all KB entities.
    let mention_totals = evidence.mention_totals();
    let mut per_entity_counts: Vec<f64> = kb
        .entities()
        .iter()
        .map(|e| mention_totals.get(&e.id()).copied().unwrap_or(0) as f64)
        .collect();
    per_entity_counts.sort_by(|a, b| a.total_cmp(b));

    // (b) statements per combination.
    let grouped = GroupedEvidence::from_table(evidence, kb);
    let mut per_combo: Vec<f64> = grouped
        .iter()
        .map(|(_, g)| g.total_statements() as f64)
        .collect();
    per_combo.sort_by(|a, b| a.total_cmp(b));

    // (c) properties above rho per type.
    let mut per_type = vec![0.0f64; kb.types().len()];
    for (key, group) in grouped.iter() {
        if group.total_statements() >= rho {
            per_type[key.type_id.index()] += 1.0;
        }
    }
    per_type.sort_by(|a, b| a.total_cmp(b));

    SnapshotStats {
        statements_total: evidence.total_statements(),
        pairs_with_evidence: evidence.pair_count(),
        combinations_total: grouped.len(),
        combinations_above_rho: grouped.above_threshold(rho).count(),
        per_entity: PERCENTILES
            .iter()
            .map(|&q| (q, percentile_sorted_or_zero(&per_entity_counts, q as f64)))
            .collect(),
        per_combination: PERCENTILES
            .iter()
            .map(|&q| (q, percentile_sorted_or_zero(&per_combo, q as f64)))
            .collect(),
        properties_per_type: PERCENTILES
            .iter()
            .map(|&q| (q, percentile_sorted_or_zero(&per_type, q as f64)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surveyor::prelude::*;
    use surveyor::CorpusSource;
    use surveyor_corpus::presets::{long_tail_world, table2_world};
    use surveyor_corpus::CorpusGenerator;
    use surveyor_extract::run_sharded_full;

    fn evidence_for(world: &surveyor_corpus::World) -> EvidenceTable {
        let generator = CorpusGenerator::new(
            world.clone(),
            CorpusConfig {
                num_shards: 4,
                ..CorpusConfig::default()
            },
        );
        let source = CorpusSource::new(&generator);
        run_sharded_full(&source, world.kb(), &ExtractionConfig::paper_final(), 2).evidence
    }

    #[test]
    fn percentile_curves_are_monotone() {
        let world = table2_world(13);
        let evidence = evidence_for(&world);
        let stats = snapshot_stats(&evidence, world.kb(), 50);
        for series in [
            &stats.per_entity,
            &stats.per_combination,
            &stats.properties_per_type,
        ] {
            for w in series.windows(2) {
                assert!(w[1].1 >= w[0].1, "series not monotone: {series:?}");
            }
        }
    }

    #[test]
    fn long_tail_world_shows_heavy_skew() {
        let world = long_tail_world(20, 40, 4, 9);
        let evidence = evidence_for(&world);
        let stats = snapshot_stats(&evidence, world.kb(), 10);
        // Figure 9(a): "all percentiles up to the 95th are close to zero"
        // — the median entity has no statements.
        let median = stats.per_entity.iter().find(|(q, _)| *q == 50).unwrap().1;
        assert_eq!(median, 0.0, "median entity statements should be 0");
        // But statements exist.
        assert!(stats.statements_total > 100);
        // Some combinations stay below the threshold.
        assert!(stats.combinations_above_rho < stats.combinations_total);
    }

    #[test]
    fn totals_are_consistent() {
        let world = table2_world(13);
        let evidence = evidence_for(&world);
        let stats = snapshot_stats(&evidence, world.kb(), 1);
        assert_eq!(stats.statements_total, evidence.total_statements());
        assert!(stats.pairs_with_evidence >= stats.combinations_total);
        assert!(stats.combinations_above_rho <= stats.combinations_total);
    }
}
