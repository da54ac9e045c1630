//! Observability integration: an observed end-to-end run must emit a
//! versioned report with all five pipeline phases, extraction counters,
//! and EM telemetry — without changing the pipeline's output.

use std::sync::Arc;
use surveyor::obs::{MetricsRegistry, REPORT_VERSION};
use surveyor::prelude::*;
use surveyor::CorpusSource;

fn observed_run() -> (Arc<MetricsRegistry>, SurveyorOutput, SurveyorOutput) {
    let mut b = KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    for name in [
        "Kitten", "Puppy", "Pony", "Koala", "Tiger", "Spider", "Scorpion", "Rat", "Crow", "Moose",
    ] {
        b.add_entity(name, animal).finish();
    }
    let kb = Arc::new(b.build());
    let params = DomainParams {
        p_agree: 0.9,
        rate_pos: 20.0,
        rate_neg: 3.0,
        opinions: OpinionRule::RandomShare(0.5),
        plural_subjects: true,
        ..DomainParams::default()
    };
    let world = WorldBuilder::new(kb.clone(), 17)
        .domain("animal", Property::adjective("cute"), params.clone())
        .domain("animal", Property::adjective("dangerous"), params)
        .build();
    let config = SurveyorConfig {
        rho: 10,
        threads: 2,
        ..SurveyorConfig::default()
    };

    let registry = Arc::new(MetricsRegistry::new());
    let generator = CorpusGenerator::new(world.clone(), CorpusConfig::default())
        .with_observer(registry.clone());
    let observed = Surveyor::new(kb.clone(), config.clone())
        .with_observer(registry.clone())
        .run(&CorpusSource::new(&generator));

    let plain_generator = CorpusGenerator::new(world, CorpusConfig::default());
    let plain = Surveyor::new(kb, config).run(&CorpusSource::new(&plain_generator));
    (registry, observed, plain)
}

#[test]
fn report_covers_all_phases_and_round_trips() {
    let (registry, observed, plain) = observed_run();

    // Observation must not perturb the pipeline.
    assert_eq!(observed.triples(), plain.triples());
    assert!(!observed.triples().is_empty());

    let report = registry.report();
    assert_eq!(report.version, REPORT_VERSION);

    // All five pipeline phases present with nonzero wall time, plus the
    // overlapping corpus-generation phase.
    for phase in ["extract", "group", "model", "decide", "index"] {
        let p = report
            .phase(phase)
            .unwrap_or_else(|| panic!("missing phase {phase}"));
        assert!(p.seconds > 0.0, "phase {phase} has zero duration");
        assert!(p.items > 0, "phase {phase} processed no items");
        assert!(p.per_second > 0.0, "phase {phase} has zero throughput");
    }
    assert!(report.phase("corpus").is_some());

    // Extraction and corpus counters flow through.
    for counter in [
        "extract.documents",
        "extract.sentences",
        "extract.sentences_skipped",
        "extract.statements",
        "corpus.documents",
        "corpus.sentences",
    ] {
        assert!(
            report.counters.get(counter).copied().unwrap_or(0) > 0,
            "counter {counter} is zero"
        );
    }
    assert!(report.counters["extract.sentences_skipped"] < report.counters["extract.sentences"]);
    let docs = report.counters["extract.documents"];
    assert_eq!(report.phase("extract").unwrap().items, docs);

    // EM telemetry: one group per modeled combination, deterministically
    // ordered, with consistent traces and a convergence-reason counter
    // total matching the group count.
    assert_eq!(report.em_groups.len(), observed.modeled_combinations());
    let mut keys: Vec<(String, String)> = report
        .em_groups
        .iter()
        .map(|g| (g.type_name.clone(), g.property.clone()))
        .collect();
    let sorted = {
        let mut s = keys.clone();
        s.sort();
        s
    };
    assert_eq!(keys, sorted, "EM groups are not sorted");
    keys.dedup();
    assert_eq!(keys.len(), report.em_groups.len(), "duplicate EM groups");
    for g in &report.em_groups {
        assert!(g.iterations >= 1);
        // The degenerate-stop iteration records no Q' value.
        let expected_trace = g.iterations as usize - usize::from(g.converged == "degenerate");
        assert_eq!(g.q_trace.len(), expected_trace);
        assert!(g.log_likelihood.is_finite());
        assert!(
            ["tolerance", "max_iterations", "degenerate"].contains(&g.converged.as_str()),
            "unknown convergence reason {:?}",
            g.converged
        );
    }
    // Every fitted group increments exactly one convergence-reason counter.
    let reason_total: u64 = report
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("em.converged."))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(reason_total as usize, report.em_groups.len());
    assert!(report.histograms.contains_key("em.iterations"));

    // What EM saw: every entity of every modelled group, as the distinct
    // (c+, c-) pairs its work is per — at most one per entity, at least
    // one per group.
    let entities: u64 = report.em_groups.iter().map(|g| g.entities).sum();
    assert_eq!(report.counters["model.entities"], entities);
    let pairs = report.counters["model.distinct_pairs"];
    assert!(
        (report.em_groups.len() as u64..=entities).contains(&pairs),
        "{pairs} distinct pairs over {entities} entities"
    );

    // The JSON artifact carries the versioned schema's contents.
    let json: serde_json::Value = serde_json::from_str(&report.to_json()).expect("report JSON");
    assert_eq!(json["version"].as_u64(), Some(u64::from(report.version)));
    assert_eq!(
        json["phases"].as_array().unwrap().len(),
        report.phases.len()
    );
    assert_eq!(
        json["counters"],
        serde_json::to_value(&report.counters).unwrap()
    );
    assert_eq!(
        json["em_groups"].as_array().unwrap().len(),
        report.em_groups.len()
    );

    // And renders a human table naming every phase.
    let table = report.render();
    for phase in ["extract", "group", "model", "decide", "index"] {
        assert!(table.contains(phase), "render misses {phase}");
    }
}
