//! The evaluation protocol of §7.3: test cases judged by a worker panel.
//!
//! For every (type, property, entity) triple of an evaluation world, 20
//! simulated AMT workers vote; tied cases are removed ("Only for 4% of the
//! cases we got ties. We removed these cases from our test set"), and the
//! panel majority becomes the reference label — exactly as the paper uses
//! AMT as its approximation of the dominant opinion.

use surveyor_corpus::World;
use surveyor_crowd::{CrowdVerdict, Panel, TestCase};
use surveyor_kb::{EntityId, Property, TypeId};
use surveyor_prob::{Rng, SeedStream};

/// One judged test case.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalCase {
    /// Entity type.
    pub type_id: TypeId,
    /// Type name (for display).
    pub type_name: String,
    /// The property.
    pub property: Property,
    /// The judged entity.
    pub entity: EntityId,
    /// Entity display name.
    pub entity_name: String,
    /// The panel's votes.
    pub verdict: CrowdVerdict,
    /// The panel majority — the evaluation's reference label.
    pub crowd_majority: bool,
    /// The world's planted dominant opinion (for calibration checks; the
    /// paper could not observe this, only the crowd approximation).
    pub planted_truth: bool,
}

/// A judged evaluation suite.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSuite {
    /// Judged, tie-free cases.
    pub cases: Vec<EvalCase>,
    /// Tied cases removed (paper: ~4%).
    pub ties_removed: usize,
    /// Workers per case.
    pub panel_size: usize,
}

impl EvalSuite {
    /// Builds and judges the suite for a world: every entity of every
    /// domain becomes a test case, or only the first `per_type_limit`
    /// entities of each type — the curated evaluation entities (the paper
    /// judged 20 well-known entities per type while the knowledge base
    /// held many more).
    ///
    /// Per-case worker agreement varies around the domain's true
    /// agreement `pA*` (`wa = 1 − 2(1−pA)·u`, `u ~ U(0,1)`, clamped to
    /// `[0.5, 0.995]`): its mean is `pA*`, reproducing both the §7.3
    /// inter-domain differences and the intra-domain spread of Figure 11.
    pub fn from_world_limited(
        world: &World,
        panel_seed: u64,
        per_type_limit: Option<usize>,
    ) -> Self {
        let panel = Panel::paper(panel_seed);
        let mut cases = Vec::new();
        let mut ties_removed = 0;
        for domain in world.domains() {
            let type_name = world.kb().entity_type(domain.type_id).name().to_owned();
            let entities = world.kb().entities_of_type(domain.type_id);
            let stream = SeedStream::new(panel_seed)
                .child("agreement")
                .child(&type_name)
                .child(&domain.property.to_string());
            let mut rng = Rng::new(stream.seed());
            let judged = per_type_limit.unwrap_or(entities.len()).min(entities.len());
            for (i, &entity) in entities.iter().take(judged).enumerate() {
                // Mixture: ~30% of combinations are "obvious" to workers
                // (near-unanimous panels — kittens are cute), the rest vary
                // uniformly below the domain agreement. This reproduces
                // the bimodal Figure 11 spectrum (~180/500 unanimous while
                // ~100/500 sit below 75% agreement).
                let u = rng.unit();
                let base = domain
                    .params
                    .crowd_agreement
                    .unwrap_or(domain.params.p_agree);
                let wa = if rng.chance(0.3) {
                    0.99
                } else {
                    (1.0 - 2.0 * (1.0 - base) * u).clamp(0.5, 0.995)
                };
                let case = TestCase {
                    type_id: domain.type_id,
                    property: domain.property.clone(),
                    entity,
                    truth: domain.opinions[i],
                    worker_agreement: wa,
                };
                let verdict = panel.judge(&case);
                let Some(majority) = verdict.majority() else {
                    ties_removed += 1;
                    continue;
                };
                cases.push(EvalCase {
                    type_id: domain.type_id,
                    type_name: type_name.clone(),
                    property: domain.property.clone(),
                    entity,
                    entity_name: world.kb().entity(entity).name().to_owned(),
                    verdict,
                    crowd_majority: majority,
                    planted_truth: domain.opinions[i],
                });
            }
        }
        Self {
            cases,
            ties_removed,
            panel_size: panel.workers_per_case(),
        }
    }

    /// Cases whose worker agreement is at least `threshold` (Figure 12's
    /// x-axis).
    pub fn at_agreement(&self, threshold: usize) -> Vec<&EvalCase> {
        self.cases
            .iter()
            .filter(|c| c.verdict.agreement() >= threshold)
            .collect()
    }

    /// Mean worker agreement over all cases.
    pub fn mean_agreement(&self) -> f64 {
        let verdicts: Vec<CrowdVerdict> = self.cases.iter().map(|c| c.verdict).collect();
        surveyor_crowd::mean_agreement(&verdicts)
    }

    /// Number of unanimous cases.
    pub fn unanimous_cases(&self) -> usize {
        self.cases.iter().filter(|c| c.verdict.unanimous()).count()
    }

    /// The Figure 10 data: per-entity positive vote counts for one
    /// (type, property) combination, in entity order.
    pub fn votes_for(&self, type_name: &str, property: &Property) -> Vec<(String, usize)> {
        self.cases
            .iter()
            .filter(|c| c.type_name == type_name && &c.property == property)
            .map(|c| (c.entity_name.clone(), c.verdict.votes_positive))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surveyor_corpus::presets::table2_world;

    fn suite() -> EvalSuite {
        // The paper's protocol: 20 curated entities per type.
        EvalSuite::from_world_limited(&table2_world(7), 99, Some(20))
    }

    #[test]
    fn suite_has_about_500_cases() {
        let s = suite();
        assert_eq!(s.cases.len() + s.ties_removed, 500);
        // Ties are rare (paper: ~4%).
        assert!(s.ties_removed < 50, "ties = {}", s.ties_removed);
        assert_eq!(s.panel_size, 20);
    }

    #[test]
    fn agreement_statistics_match_paper_shape() {
        let s = suite();
        let mean = s.mean_agreement();
        assert!(
            (15.5..=18.5).contains(&mean),
            "mean agreement {mean} out of paper range"
        );
        // A substantial block of (near-)unanimous cases (paper: ~180/500).
        let unanimous = s.unanimous_cases();
        assert!(unanimous > 50 && unanimous < 350, "unanimous = {unanimous}");
    }

    #[test]
    fn crowd_majority_mostly_matches_planted_truth() {
        let s = suite();
        let matches = s
            .cases
            .iter()
            .filter(|c| c.crowd_majority == c.planted_truth)
            .count();
        let rate = matches as f64 / s.cases.len() as f64;
        assert!(rate > 0.9, "crowd recovers planted truth at {rate}");
    }

    #[test]
    fn agreement_filter_is_monotone() {
        let s = suite();
        let mut prev = usize::MAX;
        for t in 11..=20 {
            let n = s.at_agreement(t).len();
            assert!(n <= prev);
            prev = n;
        }
    }

    #[test]
    fn figure10_votes_cover_20_animals() {
        let s = suite();
        let votes = s.votes_for("animal", &Property::adjective("cute"));
        // 20 animals minus possible ties.
        assert!(votes.len() >= 18, "votes for cute animals: {}", votes.len());
        assert!(votes.iter().all(|(_, v)| *v <= 20));
    }

    #[test]
    fn suites_are_deterministic_per_seed() {
        let world = table2_world(7);
        let a = EvalSuite::from_world_limited(&world, 99, Some(20));
        let b = EvalSuite::from_world_limited(&world, 99, Some(20));
        assert_eq!(a, b);
        let c = EvalSuite::from_world_limited(&world, 100, Some(20));
        assert_ne!(a, c);
    }

    #[test]
    fn unlimited_suite_judges_every_entity() {
        let world = table2_world(7);
        let s = EvalSuite::from_world_limited(&world, 99, None);
        assert_eq!(s.cases.len() + s.ties_removed, 25 * 500);
    }
}
