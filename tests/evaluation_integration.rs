//! Integration tests for the evaluation harness: comparison report
//! structure, crowd statistics, and snapshot statistics consistency.

use surveyor::prelude::*;
use surveyor::CorpusSource;
use surveyor_eval::comparison::{run_comparison, WebChildConfig};
use surveyor_eval::snapshot_stats::snapshot_stats;
use surveyor_eval::EvalSuite;

fn fast_corpus() -> CorpusConfig {
    CorpusConfig {
        num_shards: 4,
        ..CorpusConfig::default()
    }
}

fn fast_surveyor() -> SurveyorConfig {
    SurveyorConfig {
        rho: 100,
        threads: 2,
        ..SurveyorConfig::default()
    }
}

#[test]
fn comparison_report_structure_and_orderings() {
    let world = surveyor_corpus::presets::table2_world(77);
    let report = run_comparison(
        &world,
        fast_corpus(),
        fast_surveyor(),
        WebChildConfig::default(),
        123,
        Some(20),
    );
    // 500 test cases minus ties (paper protocol).
    assert_eq!(report.cases + report.ties_removed, 500);
    assert!(report.ties_removed < 60);
    assert_eq!(report.table3.len(), 4);

    let get = |name: &str| {
        report
            .table3
            .iter()
            .find(|r| r.method == name)
            .unwrap_or_else(|| panic!("missing method {name}"))
            .metrics
    };
    let mv = get("Majority Vote");
    let smv = get("Scaled Majority Vote");
    let sv = get("Surveyor");
    // The paper's headline orderings.
    assert!(sv.coverage > 0.9, "surveyor coverage {}", sv.coverage);
    assert!(sv.precision > mv.precision + 0.15);
    assert!(sv.f1 > smv.f1 + 0.1);
    assert!(smv.precision >= mv.precision - 0.02, "scaling should help");
    // Baselines hover near half coverage.
    assert!(mv.coverage > 0.3 && mv.coverage < 0.75);
}

#[test]
fn figure12_surveyor_precision_rises_with_agreement() {
    let world = surveyor_corpus::presets::table2_world(77);
    let report = run_comparison(
        &world,
        fast_corpus(),
        fast_surveyor(),
        WebChildConfig::default(),
        123,
        Some(20),
    );
    let sv_at = |threshold: usize| {
        report
            .figure12
            .iter()
            .find(|p| p.threshold == threshold)
            .unwrap()
            .rows
            .iter()
            .find(|r| r.method == "Surveyor")
            .unwrap()
            .metrics
            .precision
    };
    // Precision at near-unanimous agreement beats precision over all
    // cases (the paper's 77% → 87% effect, in direction).
    assert!(
        sv_at(19) >= sv_at(11) - 0.01,
        "high-agreement {} vs all {}",
        sv_at(19),
        sv_at(11)
    );
    // Figure 11's monotone case counts.
    let mut prev = usize::MAX;
    for p in &report.figure12 {
        assert!(p.cases <= prev);
        prev = p.cases;
    }
}

#[test]
fn crowd_statistics_match_protocol() {
    let world = surveyor_corpus::presets::table2_world(77);
    let suite = EvalSuite::from_world_limited(&world, 123, Some(20));
    let mean = suite.mean_agreement();
    assert!((15.5..=19.0).contains(&mean), "mean agreement {mean}");
    assert!(
        suite.unanimous_cases() > 80,
        "unanimous {}",
        suite.unanimous_cases()
    );
    assert_eq!(suite.panel_size, 20);
    // Figure 10 renders all 20 animals (minus possible ties).
    let votes = suite.votes_for("animal", &Property::adjective("cute"));
    assert!(votes.len() >= 18);
    // Designated cute animals poll high; designated non-cute poll low.
    let vote = |name: &str| votes.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    if let (Some(kitten), Some(spider)) = (vote("Kitten"), vote("Spider")) {
        // Kitten is planted cute, spider not; panels vary per seed, so
        // only the majority direction is asserted.
        assert!(kitten > 10, "kitten votes {kitten}");
        assert!(spider < 10, "spider votes {spider}");
    }
}

#[test]
fn snapshot_statistics_are_internally_consistent() {
    let world = surveyor_corpus::presets::long_tail_world(15, 60, 5, 3);
    let generator = CorpusGenerator::new(world.clone(), fast_corpus());
    let source = CorpusSource::new(&generator);
    let evidence = surveyor::extract::run_sharded_full(
        &source,
        world.kb(),
        &ExtractionConfig::paper_final(),
        2,
    )
    .evidence;
    let stats = snapshot_stats(&evidence, world.kb(), 20);
    assert_eq!(stats.statements_total, evidence.total_statements());
    assert!(stats.combinations_above_rho <= stats.combinations_total);
    assert!(stats.pairs_with_evidence >= stats.combinations_total);
    // Skew: the median entity is mentioned far less than the p95 entity.
    let p50 = stats.per_entity.iter().find(|(q, _)| *q == 50).unwrap().1;
    let p95 = stats.per_entity.iter().find(|(q, _)| *q == 95).unwrap().1;
    assert!(p95 >= p50, "p95 {p95} vs p50 {p50}");
}

#[test]
fn comparison_is_deterministic() {
    let world = surveyor_corpus::presets::table2_world(9);
    let run = || {
        run_comparison(
            &world,
            fast_corpus(),
            fast_surveyor(),
            WebChildConfig::default(),
            42,
            Some(20),
        )
    };
    assert_eq!(run(), run());
}
