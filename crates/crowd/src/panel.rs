//! Worker panels and verdicts.

use surveyor_kb::{EntityId, Property, TypeId};
use surveyor_prob::{Rng, SeedStream};

/// One evaluation test case: an entity-property combination with its
/// planted dominant opinion and the simulated worker pool's agreement
/// probability.
#[derive(Debug, Clone, PartialEq)]
pub struct TestCase {
    /// The entity type.
    pub type_id: TypeId,
    /// The subjective property.
    pub property: Property,
    /// The judged entity.
    pub entity: EntityId,
    /// The planted dominant opinion (ground truth).
    pub truth: bool,
    /// Probability an individual worker votes with the dominant opinion.
    /// The paper found this varies per combination (§7.3: dangerous
    /// animals 18/20 vs. boring sports 15/20).
    pub worker_agreement: f64,
}

/// The votes of one worker panel on one test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrowdVerdict {
    /// Workers answering "the property applies".
    pub votes_positive: usize,
    /// Workers answering "the property does not apply".
    pub votes_negative: usize,
}

impl CrowdVerdict {
    /// Total panel size.
    pub fn panel_size(&self) -> usize {
        self.votes_positive + self.votes_negative
    }

    /// The majority opinion; `None` on a tie (the paper removed the ~4%
    /// tied cases from its test set).
    pub fn majority(&self) -> Option<bool> {
        match self.votes_positive.cmp(&self.votes_negative) {
            std::cmp::Ordering::Greater => Some(true),
            std::cmp::Ordering::Less => Some(false),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// Worker agreement: "the number of AMT workers that share the same
    /// opinion" (§7.3) — i.e. the larger vote count.
    pub fn agreement(&self) -> usize {
        self.votes_positive.max(self.votes_negative)
    }

    /// Whether the panel was unanimous.
    pub fn unanimous(&self) -> bool {
        self.votes_positive == 0 || self.votes_negative == 0
    }
}

/// A deterministic worker panel.
#[derive(Debug, Clone, Copy)]
pub struct Panel {
    seed: u64,
    workers_per_case: usize,
}

impl Panel {
    /// A panel of `workers_per_case` simulated workers (the paper used 20).
    ///
    /// # Panics
    /// Panics if `workers_per_case == 0`.
    pub fn new(seed: u64, workers_per_case: usize) -> Self {
        assert!(workers_per_case > 0, "panel must have workers");
        Self {
            seed,
            workers_per_case,
        }
    }

    /// The paper's configuration: 20 workers.
    pub fn paper(seed: u64) -> Self {
        Self::new(seed, 20)
    }

    /// Panel size.
    pub fn workers_per_case(&self) -> usize {
        self.workers_per_case
    }

    /// Collects votes on one test case. Deterministic per
    /// (panel seed, type, property, entity).
    pub fn judge(&self, case: &TestCase) -> CrowdVerdict {
        let stream = SeedStream::new(self.seed)
            .child("case")
            .child(&case.property.to_string())
            .index(case.type_id.index() as u64)
            .index(case.entity.index() as u64);
        let mut rng = Rng::new(stream.seed());
        let p = case.worker_agreement.clamp(0.0, 1.0);
        let mut votes_positive = 0;
        for _ in 0..self.workers_per_case {
            let follows_majority = rng.chance(p);
            let vote = if follows_majority {
                case.truth
            } else {
                !case.truth
            };
            if vote {
                votes_positive += 1;
            }
        }
        CrowdVerdict {
            votes_positive,
            votes_negative: self.workers_per_case - votes_positive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(entity: u32, truth: bool, agreement: f64) -> TestCase {
        TestCase {
            type_id: TypeId(0),
            property: Property::adjective("cute"),
            entity: EntityId(entity),
            truth,
            worker_agreement: agreement,
        }
    }

    #[test]
    fn verdict_majority_and_agreement() {
        let v = CrowdVerdict {
            votes_positive: 17,
            votes_negative: 3,
        };
        assert_eq!(v.majority(), Some(true));
        assert_eq!(v.agreement(), 17);
        assert!(!v.unanimous());
        let tie = CrowdVerdict {
            votes_positive: 10,
            votes_negative: 10,
        };
        assert_eq!(tie.majority(), None);
        let unan = CrowdVerdict {
            votes_positive: 0,
            votes_negative: 20,
        };
        assert!(unan.unanimous());
        assert_eq!(unan.majority(), Some(false));
    }

    #[test]
    fn judging_is_deterministic() {
        let panel = Panel::paper(9);
        let c = case(3, true, 0.85);
        assert_eq!(panel.judge(&c), panel.judge(&c));
    }

    #[test]
    fn different_entities_get_independent_panels() {
        let panel = Panel::paper(9);
        let verdicts: Vec<CrowdVerdict> =
            (0..50).map(|e| panel.judge(&case(e, true, 0.8))).collect();
        let distinct: std::collections::HashSet<usize> =
            verdicts.iter().map(|v| v.votes_positive).collect();
        assert!(distinct.len() > 3, "panels look identical: {distinct:?}");
    }

    #[test]
    fn high_agreement_recovers_truth() {
        let panel = Panel::paper(5);
        for e in 0..100 {
            let truth = e % 2 == 0;
            let v = panel.judge(&case(e, truth, 0.92));
            assert_eq!(v.majority(), Some(truth), "entity {e}");
        }
    }

    #[test]
    fn mean_agreement_tracks_worker_accuracy() {
        let panel = Panel::paper(5);
        let verdicts: Vec<CrowdVerdict> = (0..300)
            .map(|e| panel.judge(&case(e, true, 0.85)))
            .collect();
        let mean: f64 =
            verdicts.iter().map(|v| v.agreement() as f64).sum::<f64>() / verdicts.len() as f64;
        // E[max(k, 20-k)] with k ~ Bin(20, .85) is ~17.
        assert!((16.0..18.0).contains(&mean), "mean agreement {mean}");
    }

    #[test]
    fn panel_size_is_respected() {
        let panel = Panel::new(1, 7);
        let v = panel.judge(&case(0, true, 0.5));
        assert_eq!(v.panel_size(), 7);
    }

    #[test]
    #[should_panic(expected = "workers")]
    fn empty_panel_panics() {
        let _ = Panel::new(0, 0);
    }
}
