//! Table 3 and Figure 12: comparing Surveyor against the baselines on the
//! judged test suite.

use crate::metrics::Metrics;
use crate::testcases::EvalSuite;
use serde::Serialize;
use surveyor::prelude::*;
use surveyor::{CorpusSource, SurveyorOutput};
use surveyor_corpus::CorpusGenerator;
use surveyor_model::{
    MajorityVote, ObservedCounts, OpinionModel, ScaledMajorityVote, WebChildBaseline,
};

/// One row of Table 3.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MethodRow {
    /// Method name.
    pub method: String,
    /// Aggregate scores.
    pub metrics: Metrics,
}

/// One Figure 12 point: scores of every method at an agreement threshold.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AgreementPoint {
    /// Minimum worker agreement.
    pub threshold: usize,
    /// Number of cases meeting the threshold (Figure 11).
    pub cases: usize,
    /// Per-method scores at this threshold.
    pub rows: Vec<MethodRow>,
}

/// The full §7.4 comparison artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ComparisonReport {
    /// Table 3 rows (all test cases).
    pub table3: Vec<MethodRow>,
    /// Figure 12 series (thresholds 11..=20).
    pub figure12: Vec<AgreementPoint>,
    /// Number of judged cases.
    pub cases: usize,
    /// Ties removed (§7.3).
    pub ties_removed: usize,
    /// Mean worker agreement (paper: ~17/20).
    pub mean_agreement: f64,
    /// Unanimous cases (paper: ~180).
    pub unanimous_cases: usize,
}

/// WebChild baseline configuration used by the comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebChildConfig {
    /// Minimum total mentions for KB membership.
    pub membership_threshold: u64,
    /// Minimum co-occurrence count to assert the property.
    pub association_threshold: u64,
}

impl Default for WebChildConfig {
    fn default() -> Self {
        Self {
            membership_threshold: 8,
            association_threshold: 2,
        }
    }
}

/// Every method's decision on each case, in Table 3's row order.
pub struct MethodDecisions {
    /// Method name → decision per case (parallel to the cases decided).
    pub per_method: Vec<(String, Vec<Decision>)>,
}

/// Decides every `(entity, property)` case with every method, given a
/// completed Surveyor run: the three baselines from the case's counts
/// (scaled majority vote with the global polarity ratio, WebChild's KB
/// membership from corpus-wide mention totals), Surveyor from the
/// pipeline output (unsolved when the combination fell below ρ or the
/// posterior sits exactly at ½). Table 3 and Table 5 both decide here.
pub fn method_decisions<'p>(
    output: &SurveyorOutput,
    cases: impl IntoIterator<Item = (EntityId, &'p Property)>,
    webchild: WebChildConfig,
) -> MethodDecisions {
    let cases: Vec<(EntityId, &Property)> = cases.into_iter().collect();
    let counts: Vec<ObservedCounts> = cases
        .iter()
        .map(|&(entity, property)| {
            let counts = output.evidence.counts(entity, property);
            ObservedCounts::new(counts.positive, counts.negative)
        })
        .collect();
    let (tp, tn) = output.evidence.polarity_totals();
    let mention_totals = output.evidence.mention_totals();
    let mentions: Vec<u64> = cases
        .iter()
        .map(|(entity, _)| mention_totals.get(entity).copied().unwrap_or(0))
        .collect();
    let webchild = WebChildBaseline::new(
        webchild.membership_threshold,
        webchild.association_threshold,
        mentions,
    );
    let baseline = |model: &dyn OpinionModel| {
        let decisions = model.decide_group(&counts);
        let decisions = decisions.into_iter().map(|d| d.decision).collect();
        (model.name().to_owned(), decisions)
    };
    let surveyor = cases
        .iter()
        .map(|&(entity, property)| {
            (output.opinion(entity, property))
                .map(|d| d.decision)
                .unwrap_or(Decision::Unsolved)
        })
        .collect();
    MethodDecisions {
        per_method: vec![
            baseline(&MajorityVote),
            baseline(&ScaledMajorityVote::from_totals(tp, tn)),
            baseline(&webchild),
            ("Surveyor".to_owned(), surveyor),
        ],
    }
}

/// Scores every method on the `selected` cases against `truths` (one
/// reference label per case).
pub(crate) fn score_subset(
    decisions: &MethodDecisions,
    truths: &[bool],
    selected: &[usize],
) -> Vec<MethodRow> {
    let t: Vec<bool> = selected.iter().map(|&i| truths[i]).collect();
    decisions
        .per_method
        .iter()
        .map(|(name, all)| {
            let d: Vec<Decision> = selected.iter().map(|&i| all[i]).collect();
            MethodRow {
                method: name.clone(),
                metrics: Metrics::score(&d, &t),
            }
        })
        .collect()
}

/// Runs the full §7.4 comparison: corpus generation → extraction →
/// Surveyor → crowd judging → Table 3 + Figure 12.
pub fn run_comparison(
    world: &surveyor_corpus::World,
    corpus_config: CorpusConfig,
    surveyor_config: SurveyorConfig,
    webchild: WebChildConfig,
    panel_seed: u64,
    per_type_limit: Option<usize>,
) -> ComparisonReport {
    let generator = CorpusGenerator::new(world.clone(), corpus_config);
    let surveyor = Surveyor::new(world.kb().clone(), surveyor_config);
    let output = surveyor.run(&CorpusSource::new(&generator));
    let suite = EvalSuite::from_world_limited(world, panel_seed, per_type_limit);
    let cases = suite.cases.iter().map(|c| (c.entity, &c.property));
    let decisions = method_decisions(&output, cases, webchild);
    report_from_parts(&suite, &decisions)
}

/// Builds the report from the suite's decisions (`repro table3` reuses
/// them for its confidence intervals).
pub fn report_from_parts(suite: &EvalSuite, decisions: &MethodDecisions) -> ComparisonReport {
    let truths: Vec<bool> = suite.cases.iter().map(|c| c.crowd_majority).collect();
    let all: Vec<usize> = (0..suite.cases.len()).collect();
    let table3 = score_subset(decisions, &truths, &all);

    let figure12 = (11..=suite.panel_size)
        .map(|threshold| {
            let selected: Vec<usize> = suite
                .cases
                .iter()
                .enumerate()
                .filter(|(_, c)| c.verdict.agreement() >= threshold)
                .map(|(i, _)| i)
                .collect();
            AgreementPoint {
                threshold,
                cases: selected.len(),
                rows: score_subset(decisions, &truths, &selected),
            }
        })
        .collect();

    ComparisonReport {
        table3,
        figure12,
        cases: suite.cases.len(),
        ties_removed: suite.ties_removed,
        mean_agreement: suite.mean_agreement(),
        unanimous_cases: suite.unanimous_cases(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surveyor_corpus::presets::table2_world;

    fn small_report() -> ComparisonReport {
        let world = table2_world(21);
        run_comparison(
            &world,
            CorpusConfig {
                num_shards: 4,
                ..CorpusConfig::default()
            },
            SurveyorConfig {
                rho: 100,
                threads: 2,
                ..SurveyorConfig::default()
            },
            WebChildConfig::default(),
            500,
            Some(20),
        )
    }

    #[test]
    fn comparison_produces_four_methods() {
        let report = small_report();
        assert_eq!(report.table3.len(), 4);
        let names: Vec<&str> = report.table3.iter().map(|r| r.method.as_str()).collect();
        assert_eq!(
            names,
            [
                "Majority Vote",
                "Scaled Majority Vote",
                "WebChild",
                "Surveyor"
            ]
        );
        assert_eq!(report.figure12.len(), 10);
    }

    #[test]
    fn surveyor_wins_on_coverage_and_f1() {
        let report = small_report();
        let get = |name: &str| {
            report
                .table3
                .iter()
                .find(|r| r.method == name)
                .unwrap()
                .metrics
        };
        let sv = get("Surveyor");
        let mv = get("Majority Vote");
        assert!(
            sv.coverage > 1.5 * mv.coverage,
            "surveyor coverage {} vs mv {}",
            sv.coverage,
            mv.coverage
        );
        assert!(sv.f1 > mv.f1);
        assert!(sv.precision > mv.precision);
    }

    #[test]
    fn figure12_thresholds_shrink_case_sets() {
        let report = small_report();
        let mut prev = usize::MAX;
        for point in &report.figure12 {
            assert!(point.cases <= prev);
            prev = point.cases;
            assert_eq!(point.rows.len(), 4);
        }
    }
}
