//! Linking subjective to objective properties (paper §9, future work).
//!
//! "We could for instance try to find a lower bound on the population count
//! of a city starting from which an average user would call that city big.
//! Inferring and exploiting such relationships should allow to improve
//! precision and coverage."
//!
//! This module implements that extension: given the pipeline's decisions
//! for one (type, property) combination and an objective attribute from
//! the knowledge base, it finds the attribute threshold that best explains
//! the mined opinions (an optimal decision stump over the log-attribute),
//! reports how strongly the subjective property is aligned with the
//! attribute, and can use the discovered link to adjudicate entities the
//! model left uncertain.

use std::sync::Arc;
use surveyor_kb::{KnowledgeBase, Property, TypeId};
use surveyor_model::Decision;

use crate::pipeline::SurveyorOutput;

/// Which side of the threshold carries the property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDirection {
    /// The property applies to entities **above** the threshold
    /// (`big` ↔ population).
    Above,
    /// The property applies to entities **below** the threshold
    /// (`cheap` ↔ price).
    Below,
}

/// A discovered subjective↔objective relationship.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveLink {
    /// The attribute key (e.g. `"population"`).
    pub attribute: String,
    /// The boundary attribute value: the paper's "lower bound … starting
    /// from which an average user would call that city big".
    pub threshold: f64,
    /// Which side of the threshold the property occupies.
    pub direction: LinkDirection,
    /// Fraction of decided entities consistent with the stump (0.5 = no
    /// relationship, 1.0 = perfectly aligned).
    pub agreement: f64,
    /// Decided entities with the attribute present.
    pub samples: usize,
}

impl ObjectiveLink {
    /// Predicts the property for an attribute value using the link.
    pub fn predict(&self, attribute_value: f64) -> bool {
        match self.direction {
            LinkDirection::Above => attribute_value >= self.threshold,
            LinkDirection::Below => attribute_value < self.threshold,
        }
    }
}

/// Discovers the attribute threshold best aligned with the mined opinions
/// of one combination.
///
/// Returns `None` when fewer than `min_samples` decided entities carry the
/// attribute, or when every decided entity shares one polarity (no
/// boundary to place).
pub fn link_objective(
    output: &SurveyorOutput,
    kb: &Arc<KnowledgeBase>,
    type_id: TypeId,
    property: &Property,
    attribute: &str,
    min_samples: usize,
) -> Option<ObjectiveLink> {
    // Collect (attribute, decided-positive) pairs.
    let mut points: Vec<(f64, bool)> = kb
        .entities_of_type(type_id)
        .iter()
        .filter_map(|&e| {
            let decision = output.opinion(e, property)?;
            let value = kb.entity(e).attribute(attribute)?;
            match decision.decision {
                Decision::Positive => Some((value, true)),
                Decision::Negative => Some((value, false)),
                Decision::Unsolved => None,
            }
        })
        .collect();
    if points.len() < min_samples.max(2) {
        return None;
    }
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total_pos = points.iter().filter(|(_, p)| *p).count();
    let total = points.len();
    if total_pos == 0 || total_pos == total {
        return None;
    }

    // Sweep all split positions: prefix_pos[i] = positives among the first
    // i points. "Above" stump at split i classifies points[i..] positive:
    // correct = (total_pos - prefix_pos[i]) + (i - prefix_pos[i]).
    let mut best: Option<(usize, LinkDirection, usize)> = None; // (correct, dir, split)
    let mut prefix_pos = 0usize;
    for split in 0..=total {
        let above_correct = (total_pos - prefix_pos) + (split - prefix_pos);
        let below_correct = total - above_correct;
        for (correct, dir) in [
            (above_correct, LinkDirection::Above),
            (below_correct, LinkDirection::Below),
        ] {
            if best.is_none_or(|(c, _, _)| correct > c) {
                best = Some((correct, dir, split));
            }
        }
        if let Some(&(_, positive)) = points.get(split) {
            prefix_pos += usize::from(positive);
        }
    }
    let (correct, direction, split) = best?;

    // The threshold sits between the last below-point and first above-point
    // (geometric mean respects the log scale the studies use).
    let threshold = if split == 0 {
        points[0].0
    } else if split == total {
        points[total - 1].0
    } else {
        (points[split - 1].0.max(1e-12) * points[split].0.max(1e-12)).sqrt()
    };

    Some(ObjectiveLink {
        attribute: attribute.to_owned(),
        threshold,
        direction,
        agreement: correct as f64 / total as f64,
        samples: total,
    })
}

/// Uses a discovered link to adjudicate entities whose combination was not
/// modeled or whose posterior sat exactly on the fence, returning
/// `(entity_name, predicted_positive)` pairs — the paper's "improve
/// precision and coverage" suggestion.
pub fn adjudicate_with_link(
    output: &SurveyorOutput,
    kb: &Arc<KnowledgeBase>,
    type_id: TypeId,
    property: &Property,
    link: &ObjectiveLink,
) -> Vec<(String, bool)> {
    kb.entities_of_type(type_id)
        .iter()
        .filter_map(|&e| {
            let undecided = match output.opinion(e, property) {
                None => true,
                Some(d) => d.decision == Decision::Unsolved,
            };
            if !undecided {
                return None;
            }
            let value = kb.entity(e).attribute(&link.attribute)?;
            Some((kb.entity(e).name().to_owned(), link.predict(value)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Surveyor, SurveyorConfig};
    use surveyor_extract::{EvidenceTable, Polarity, Statement};
    use surveyor_kb::KnowledgeBaseBuilder;

    /// Cities with populations; those above 1000 get positive evidence.
    fn fixture(threshold: f64) -> (Arc<KnowledgeBase>, SurveyorOutput, TypeId) {
        let mut b = KnowledgeBaseBuilder::new();
        let city = b.add_type("city", &["city"], &[]);
        let populations = [
            100.0, 200.0, 400.0, 700.0, 900.0, 1_500.0, 3_000.0, 8_000.0, 20_000.0, 60_000.0,
        ];
        for (i, &pop) in populations.iter().enumerate() {
            b.add_entity(&format!("City{i}"), city)
                .attribute("population", pop)
                .finish();
        }
        let kb = Arc::new(b.build());
        let big = Property::adjective("big");
        let mut table = EvidenceTable::new();
        for (i, &pop) in populations.iter().enumerate() {
            let e = kb.entity_by_name(&format!("City{i}")).unwrap();
            let (pos, neg) = if pop >= threshold { (20, 1) } else { (1, 6) };
            for _ in 0..pos {
                table.add(&Statement::new(e, &big, Polarity::Positive));
            }
            for _ in 0..neg {
                table.add(&Statement::new(e, &big, Polarity::Negative));
            }
        }
        let surveyor = Surveyor::new(
            kb.clone(),
            SurveyorConfig {
                rho: 10,
                ..SurveyorConfig::default()
            },
        );
        let output = surveyor.run_on_evidence(table);
        (kb, output, city)
    }

    #[test]
    fn discovers_the_planted_threshold() {
        let (kb, output, city) = fixture(1_000.0);
        let link = link_objective(
            &output,
            &kb,
            city,
            &Property::adjective("big"),
            "population",
            5,
        )
        .expect("link found");
        assert_eq!(link.direction, LinkDirection::Above);
        assert!(
            link.threshold > 900.0 && link.threshold < 1_500.0,
            "threshold {}",
            link.threshold
        );
        assert!(link.agreement > 0.9, "agreement {}", link.agreement);
        assert_eq!(link.samples, 10);
        // Prediction uses the boundary.
        assert!(link.predict(5_000.0));
        assert!(!link.predict(500.0));
    }

    #[test]
    fn no_link_without_enough_samples() {
        let (kb, output, city) = fixture(1_000.0);
        assert!(link_objective(
            &output,
            &kb,
            city,
            &Property::adjective("big"),
            "population",
            50,
        )
        .is_none());
        // Unknown attribute: nothing to link.
        assert!(link_objective(
            &output,
            &kb,
            city,
            &Property::adjective("big"),
            "altitude",
            2,
        )
        .is_none());
    }

    #[test]
    fn below_direction_is_detected() {
        // "cheap" applies below a price threshold: invert the evidence.
        let mut b = KnowledgeBaseBuilder::new();
        let city = b.add_type("city", &["city"], &[]);
        let prices = [10.0, 20.0, 40.0, 80.0, 160.0, 320.0];
        for (i, &price) in prices.iter().enumerate() {
            b.add_entity(&format!("City{i}"), city)
                .attribute("price", price)
                .finish();
        }
        let kb = Arc::new(b.build());
        let cheap = Property::adjective("cheap");
        let mut table = EvidenceTable::new();
        for (i, &price) in prices.iter().enumerate() {
            let e = kb.entity_by_name(&format!("City{i}")).unwrap();
            let (pos, neg) = if price < 100.0 { (15, 1) } else { (1, 8) };
            for _ in 0..pos {
                table.add(&Statement::new(e, &cheap, Polarity::Positive));
            }
            for _ in 0..neg {
                table.add(&Statement::new(e, &cheap, Polarity::Negative));
            }
        }
        let surveyor = Surveyor::new(
            kb.clone(),
            SurveyorConfig {
                rho: 10,
                ..SurveyorConfig::default()
            },
        );
        let output = surveyor.run_on_evidence(table);
        let link = link_objective(&output, &kb, city, &cheap, "price", 3).expect("link found");
        assert_eq!(link.direction, LinkDirection::Below);
        assert!(link.predict(15.0));
        assert!(!link.predict(300.0));
    }

    #[test]
    fn adjudicates_unmodeled_entities() {
        let (kb, output, city) = fixture(1_000.0);
        let big = Property::adjective("big");
        let link = link_objective(&output, &kb, city, &big, "population", 5).unwrap();
        // Build a second KB view with an extra entity lacking decisions by
        // rebuilding output with a higher rho so nothing is modeled.
        let surveyor = Surveyor::new(
            kb.clone(),
            SurveyorConfig {
                rho: u64::MAX,
                ..SurveyorConfig::default()
            },
        );
        let empty_output = surveyor.run_on_evidence(output.evidence.clone());
        let verdicts = adjudicate_with_link(&empty_output, &kb, city, &big, &link);
        assert_eq!(
            verdicts.len(),
            10,
            "all entities undecided -> all adjudicated"
        );
        let city9 = verdicts.iter().find(|(n, _)| n == "City9").unwrap();
        assert!(city9.1, "60k population city predicted big");
        let city0 = verdicts.iter().find(|(n, _)| n == "City0").unwrap();
        assert!(!city0.1);
    }
}
