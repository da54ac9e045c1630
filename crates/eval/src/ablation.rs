//! Ablations of Surveyor's design choices.
//!
//! The paper argues for three design decisions (§5.1, §7.5): detecting
//! negations (vs. occurrence-only counting), learning parameters per
//! (type, property) combination (vs. one global model), and the agnostic
//! ½ decision threshold (vs. trading precision for recall). Each ablation
//! disables one choice and rescored the judged suite.

use crate::metrics::Metrics;
use crate::testcases::EvalSuite;
use rustc_hash::FxHashMap;
use serde::Serialize;
use surveyor::prelude::*;
use surveyor::{CorpusSource, SurveyorOutput};
use surveyor_corpus::{CorpusGenerator, World};
use surveyor_extract::GroupedEvidence;
use surveyor_kb::{EntityId, KnowledgeBase, Property};
use surveyor_model::{fit, posterior_positive, ModelParams, ObservedCounts};

/// The ablation artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AblationReport {
    /// The unablated Surveyor scores (reference).
    pub standard: Metrics,
    /// Negation detection disabled: every statement counted as positive
    /// (the occurrence-only reading of prior work [2, 4, 5]).
    pub negation_blind: Metrics,
    /// One global parameter set fitted over all combinations pooled,
    /// instead of per-combination models.
    ///
    /// Note: the paper justified per-combination modeling through observed
    /// parameter heterogeneity (§7.3) rather than an ablation. On
    /// synthetic worlds, pooling can *win* overall — it borrows statistical
    /// strength and its large pooled `λ++` acts as an implicit
    /// "unmentioned ⇒ negative" prior — while per-combination models are
    /// the only ones that can represent inverted-bias combinations at all.
    /// EXPERIMENTS.md discusses the comparison.
    pub global_params: Metrics,
    /// Standard Surveyor restricted to *inverted-bias* combinations
    /// (`rate_neg* > rate_pos*`, e.g. `calm cities`).
    pub standard_inverted: Metrics,
    /// Negation-blind Surveyor on the inverted-bias subset — where
    /// ignoring negations is most destructive (every complaint reads as
    /// an endorsement).
    pub negation_blind_inverted: Metrics,
    /// Decision-threshold sweep: decide `+` above `τ`, `-` below `1-τ`,
    /// unsolved between — the precision/recall trade of §3.
    pub thresholds: Vec<(f64, Metrics)>,
    /// EM iteration-budget sweep.
    pub em_iterations: Vec<(usize, Metrics)>,
}

/// Per-combination counts aligned with `kb.entities_of_type`.
fn combination_counts(
    output: &SurveyorOutput,
    kb: &KnowledgeBase,
    rho: u64,
) -> Vec<(surveyor_kb::TypeId, Property, Vec<ObservedCounts>)> {
    GroupedEvidence::from_table(&output.evidence, kb)
        .above_threshold(rho)
        .map(|(key, group)| {
            let counts: Vec<ObservedCounts> = kb
                .entities_of_type(key.type_id)
                .iter()
                .map(|&e| {
                    let c = group.counts(e);
                    ObservedCounts::new(c.positive, c.negative)
                })
                .collect();
            (key.type_id, key.property.resolve(), counts)
        })
        .collect()
}

/// Scores the suite given a per-pair probability lookup, optionally
/// restricted to a case filter.
fn score_probabilities_filtered(
    suite: &EvalSuite,
    probabilities: &FxHashMap<(EntityId, Property), f64>,
    tau: f64,
    keep: impl Fn(&crate::testcases::EvalCase) -> bool,
) -> Metrics {
    let selected: Vec<&crate::testcases::EvalCase> =
        suite.cases.iter().filter(|c| keep(c)).collect();
    let decisions: Vec<Decision> = selected
        .iter()
        .map(
            |c| match probabilities.get(&(c.entity, c.property.clone())) {
                Some(&p) if p > tau => Decision::Positive,
                Some(&p) if p < 1.0 - tau => Decision::Negative,
                _ => Decision::Unsolved,
            },
        )
        .collect();
    let truths: Vec<bool> = selected.iter().map(|c| c.crowd_majority).collect();
    Metrics::score(&decisions, &truths)
}

/// Scores the suite given a per-pair probability lookup.
fn score_probabilities(
    suite: &EvalSuite,
    probabilities: &FxHashMap<(EntityId, Property), f64>,
    tau: f64,
) -> Metrics {
    score_probabilities_filtered(suite, probabilities, tau, |_| true)
}

/// Probability table from per-combination fits, with an optional count
/// transform (for the negation-blind variant) and EM configuration.
fn probabilities_with(
    combos: &[(surveyor_kb::TypeId, Property, Vec<ObservedCounts>)],
    kb: &KnowledgeBase,
    em: &EmConfig,
    transform: impl Fn(ObservedCounts) -> ObservedCounts,
) -> FxHashMap<(EntityId, Property), f64> {
    let mut probabilities = FxHashMap::default();
    for (type_id, property, counts) in combos {
        let transformed: Vec<ObservedCounts> = counts.iter().map(|&c| transform(c)).collect();
        let fitted = fit(&transformed, em);
        for (&entity, &c) in kb.entities_of_type(*type_id).iter().zip(&transformed) {
            probabilities.insert(
                (entity, property.clone()),
                posterior_positive(c, &fitted.params),
            );
        }
    }
    probabilities
}

/// Probability table from one global fit over all combinations pooled.
fn global_probabilities(
    combos: &[(surveyor_kb::TypeId, Property, Vec<ObservedCounts>)],
    kb: &KnowledgeBase,
    em: &EmConfig,
) -> FxHashMap<(EntityId, Property), f64> {
    let pooled: Vec<ObservedCounts> = combos
        .iter()
        .flat_map(|(_, _, counts)| counts.iter().copied())
        .collect();
    let params: ModelParams = if pooled.is_empty() {
        ModelParams::new(0.8, 1.0, 1.0)
    } else {
        fit(&pooled, em).params
    };
    let mut probabilities = FxHashMap::default();
    for (type_id, property, counts) in combos {
        for (&entity, &c) in kb.entities_of_type(*type_id).iter().zip(counts) {
            probabilities.insert((entity, property.clone()), posterior_positive(c, &params));
        }
    }
    probabilities
}

/// Runs all ablations on one world.
pub fn run_ablations(
    world: &World,
    corpus_config: CorpusConfig,
    surveyor_config: SurveyorConfig,
    panel_seed: u64,
) -> AblationReport {
    let generator = CorpusGenerator::new(world.clone(), corpus_config);
    let surveyor = Surveyor::new(world.kb().clone(), surveyor_config.clone());
    let output = surveyor.run(&CorpusSource::new(&generator));
    let suite = EvalSuite::from_world_limited(world, panel_seed, Some(20));
    let kb = world.kb();
    let combos = combination_counts(&output, kb, surveyor_config.rho);
    let em = &surveyor_config.em;

    let standard_probs = probabilities_with(&combos, kb, em, |c| c);
    let standard = score_probabilities(&suite, &standard_probs, 0.5);

    let blind_probs = probabilities_with(&combos, kb, em, |c| {
        ObservedCounts::new(c.positive + c.negative, 0)
    });
    let negation_blind = score_probabilities(&suite, &blind_probs, 0.5);

    let global_probs = global_probabilities(&combos, kb, em);
    let global_params = score_probabilities(&suite, &global_probs, 0.5);

    // Inverted-bias subset: combinations whose true world parameters have
    // rate_neg > rate_pos.
    let inverted: std::collections::HashSet<(u32, String)> = world
        .domains()
        .iter()
        .filter(|d| d.params.rate_neg > d.params.rate_pos)
        .map(|d| (d.type_id.0, d.property.to_string()))
        .collect();
    let is_inverted =
        |c: &crate::testcases::EvalCase| inverted.contains(&(c.type_id.0, c.property.to_string()));
    let standard_inverted = score_probabilities_filtered(&suite, &standard_probs, 0.5, is_inverted);
    let negation_blind_inverted =
        score_probabilities_filtered(&suite, &blind_probs, 0.5, is_inverted);

    let thresholds = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
        .into_iter()
        .map(|tau| (tau, score_probabilities(&suite, &standard_probs, tau)))
        .collect();

    let em_iterations = [1usize, 2, 3, 5, 10, 50]
        .into_iter()
        .map(|iters| {
            let config = EmConfig {
                max_iterations: iters,
                ..em.clone()
            };
            let probs = probabilities_with(&combos, kb, &config, |c| c);
            (iters, score_probabilities(&suite, &probs, 0.5))
        })
        .collect();

    AblationReport {
        standard,
        negation_blind,
        global_params,
        standard_inverted,
        negation_blind_inverted,
        thresholds,
        em_iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surveyor_corpus::presets::table2_world;

    fn report() -> AblationReport {
        run_ablations(
            &table2_world(19),
            CorpusConfig {
                num_shards: 2,
                ..CorpusConfig::default()
            },
            SurveyorConfig {
                rho: 100,
                threads: 2,
                ..SurveyorConfig::default()
            },
            321,
        )
    }

    #[test]
    fn negation_detection_matters() {
        let r = report();
        // The paper's emphasized design choice: distinguishing negative
        // statements. On the full suite the effect is small when negative
        // statements are globally rare; allow noise.
        assert!(
            r.standard.f1 >= r.negation_blind.f1 - 0.03,
            "negation blind {} should not clearly beat standard {}",
            r.negation_blind.f1,
            r.standard.f1
        );
        // Inverted-bias subset metrics are reported for inspection; both
        // variants struggle there (the agnostic ½ prior is the binding
        // constraint — see EXPERIMENTS.md), so no superiority is asserted.
        assert!((0.0..=1.0).contains(&r.standard_inverted.f1));
        assert!((0.0..=1.0).contains(&r.negation_blind_inverted.f1));
        // The global-parameter variant is reported, not asserted superior:
        // see the field docs. Sanity: it must be a valid score.
        assert!((0.0..=1.0).contains(&r.global_params.f1));
    }

    #[test]
    fn threshold_trade_is_monotone_in_coverage() {
        let r = report();
        let mut prev_cov = f64::INFINITY;
        for (tau, m) in &r.thresholds {
            assert!(
                m.coverage <= prev_cov + 1e-12,
                "coverage must shrink with tau (tau={tau})"
            );
            prev_cov = m.coverage;
        }
        // The base point uses tau = 0.5 and matches the standard run.
        assert_eq!(r.thresholds[0].1, r.standard);
    }

    #[test]
    fn em_iteration_budget_converges() {
        let r = report();
        let last = r.em_iterations.last().unwrap().1;
        // 10 iterations should already be as good as 50.
        let ten = r.em_iterations.iter().find(|(n, _)| *n == 10).unwrap().1;
        assert!((ten.f1 - last.f1).abs() < 0.05);
    }
}
