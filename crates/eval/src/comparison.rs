//! Table 3 and Figure 12: comparing Surveyor against the baselines on the
//! judged test suite.

use crate::metrics::Metrics;
use crate::testcases::{EvalCase, EvalSuite};
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

/// Per-method decisions on a judged suite, given a completed Surveyor run.
pub struct MethodDecisions {
    /// Method name → decision per suite case (parallel to `suite.cases`).
    pub per_method: Vec<(String, Vec<Decision>)>,
}

/// Computes every method's decision for every case of the suite.
pub fn method_decisions(
    suite: &EvalSuite,
    output: &SurveyorOutput,
    webchild: WebChildConfig,
) -> MethodDecisions {
    let case_counts: Vec<ObservedCounts> = suite
        .cases
        .iter()
        .map(|c| {
            let counts = output.evidence.counts(c.entity, &c.property);
            ObservedCounts::new(counts.positive, counts.negative)
        })
        .collect();

    // Majority vote.
    let mv: Vec<Decision> = MajorityVote
        .decide_group(&case_counts)
        .into_iter()
        .map(|d| d.decision)
        .collect();

    // Scaled majority vote with the global polarity ratio.
    let (tp, tn) = output.evidence.polarity_totals();
    let smv_model = ScaledMajorityVote::from_totals(tp, tn);
    let smv: Vec<Decision> = smv_model
        .decide_group(&case_counts)
        .into_iter()
        .map(|d| d.decision)
        .collect();

    // WebChild: KB membership from corpus-wide mention totals.
    let mention_totals = output.evidence.mention_totals();
    let mentions: Vec<u64> = suite
        .cases
        .iter()
        .map(|c| mention_totals.get(&c.entity).copied().unwrap_or(0))
        .collect();
    let wc_model = WebChildBaseline::new(
        webchild.membership_threshold,
        webchild.association_threshold,
        mentions,
    );
    let wc: Vec<Decision> = wc_model
        .decide_group(&case_counts)
        .into_iter()
        .map(|d| d.decision)
        .collect();

    // Surveyor: from the pipeline output (unsolved when the combination
    // fell below ρ or the posterior sits exactly at ½).
    let sv: Vec<Decision> = suite
        .cases
        .iter()
        .map(|c| {
            output
                .opinion(c.entity, &c.property)
                .map(|d| d.decision)
                .unwrap_or(Decision::Unsolved)
        })
        .collect();

    MethodDecisions {
        per_method: vec![
            ("Majority Vote".to_owned(), mv),
            ("Scaled Majority Vote".to_owned(), smv),
            ("WebChild".to_owned(), wc),
            ("Surveyor".to_owned(), sv),
        ],
    }
}

fn score_subset(
    decisions: &MethodDecisions,
    cases: &[EvalCase],
    selected: &[usize],
) -> Vec<MethodRow> {
    decisions
        .per_method
        .iter()
        .map(|(name, all)| {
            let d: Vec<Decision> = selected.iter().map(|&i| all[i]).collect();
            let t: Vec<bool> = selected.iter().map(|&i| cases[i].crowd_majority).collect();
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
    report_from_parts(&suite, &output, webchild)
}

/// Builds the report from already-computed parts (used by ablations that
/// reuse one extraction run).
pub fn report_from_parts(
    suite: &EvalSuite,
    output: &SurveyorOutput,
    webchild: WebChildConfig,
) -> ComparisonReport {
    let decisions = method_decisions(suite, output, webchild);
    let all: Vec<usize> = (0..suite.cases.len()).collect();
    let table3 = score_subset(&decisions, &suite.cases, &all);

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
                rows: score_subset(&decisions, &suite.cases, &selected),
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
