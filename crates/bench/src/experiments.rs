//! One driver per paper artifact; each returns rendered text plus a JSON
//! value for machine-readable archiving.

use crate::render;
use serde_json::{json, Value};
use std::time::Instant;
use surveyor::nlp::{annotate, annotate_with, AnnotateScratch, Lexicon};
use surveyor::prelude::*;
use surveyor::CorpusSource;
use surveyor_corpus::presets;
use surveyor_corpus::CorpusGenerator;
use surveyor_eval::comparison::WebChildConfig;
use surveyor_eval::empirical::run_empirical;
use surveyor_eval::random_sample::run_random_sample;
use surveyor_eval::snapshot_stats::snapshot_stats;
use surveyor_eval::versions::run_versions;
use surveyor_eval::{ablation, EvalSuite};
use surveyor_extract::{run_sharded_full, EvidenceTable};
use surveyor_kb::seed as kbseed;
use surveyor_model::{fit, posterior_positive, CountTable, EmConfig, ModelParams, ObservedCounts};

/// Configuration shared by all experiment drivers.
#[derive(Debug, Clone)]
pub struct ReproConfig {
    /// Master seed.
    pub seed: u64,
    /// Corpus shards.
    pub shards: usize,
    /// Extraction worker threads.
    pub threads: usize,
    /// Occurrence threshold ρ.
    pub rho: u64,
    /// Crowd panel seed.
    pub panel_seed: u64,
}

impl Default for ReproConfig {
    fn default() -> Self {
        Self {
            seed: 2015,
            shards: 8,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            rho: 100,
            panel_seed: 500,
        }
    }
}

impl ReproConfig {
    fn corpus(&self) -> CorpusConfig {
        CorpusConfig {
            num_shards: self.shards,
            ..CorpusConfig::default()
        }
    }

    fn surveyor(&self) -> SurveyorConfig {
        SurveyorConfig {
            rho: self.rho,
            threads: self.threads,
            ..SurveyorConfig::default()
        }
    }
}

/// Table 1: example extractions for the three patterns of Figure 4.
pub fn table1(_cfg: &ReproConfig) -> (String, Value) {
    let mut b = surveyor_kb::KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    let city = b.add_type("city", &["city"], &[]);
    let sport = b.add_type("sport", &["sport"], &[]);
    b.add_entity("Snake", animal).finish();
    b.add_entity("Chicago", city).finish();
    b.add_entity("Soccer", sport).finish();
    let kb = b.build();
    let lexicon = Lexicon::new();

    let sentences = [
        ("Snakes are dangerous animals.", "Adjectival modifier"),
        ("Chicago is very big.", "Adjectival complement"),
        ("Soccer is a fast and exciting sport.", "Conjunction"),
    ];
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for (text, pattern) in sentences {
        let doc = annotate(0, text, &kb, &lexicon);
        for s in &doc.sentences {
            for st in surveyor_extract::extract_sentence(
                s,
                &kb,
                &surveyor_extract::ExtractionConfig::paper_final(),
            ) {
                let entity = kb.entity(st.entity).name().to_owned();
                let property = st.property.resolve().to_string();
                rows.push(vec![
                    text.to_owned(),
                    pattern.to_owned(),
                    entity.clone(),
                    property.clone(),
                ]);
                artifacts.push(json!({
                    "statement": text, "pattern": pattern,
                    "entity": entity, "property": property,
                    "polarity": format!("{:?}", st.polarity),
                }));
            }
        }
    }
    let text = format!(
        "Table 1 — example extractions\n{}",
        render::table(&["Statement", "Pattern", "Entity", "Property"], &rows)
    );
    (text, Value::Array(artifacts))
}

/// Table 2: the evaluated property-type matrix.
pub fn table2(_cfg: &ReproConfig) -> (String, Value) {
    let rows: Vec<Vec<String>> = kbseed::table2_matrix()
        .into_iter()
        .map(|(t, props)| vec![t.to_owned(), props.join(", ")])
        .collect();
    let text = format!(
        "Table 2 — evaluated property-type combinations\n{}",
        render::table(&["Entity Type", "Properties"], &rows)
    );
    let value = json!(kbseed::table2_matrix()
        .into_iter()
        .map(|(t, p)| json!({"type": t, "properties": p}))
        .collect::<Vec<_>>());
    (text, value)
}

/// Figure 5: negation-path polarity on the paper's example sentence.
pub fn fig5(_cfg: &ReproConfig) -> (String, Value) {
    let mut b = surveyor_kb::KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    b.add_entity("Snake", animal).finish();
    let kb = b.build();
    let lexicon = Lexicon::new();
    let sentence = "I don't think that snakes are never dangerous.";
    let doc = annotate(0, sentence, &kb, &lexicon);
    let s = &doc.sentences[0];
    let mut lines = vec![format!("Figure 5 — \"{sentence}\"")];
    for line in s.tree.render(&s.tokens).lines() {
        lines.push(format!("  {line}"));
    }
    let stmts = surveyor_extract::extract_sentence(
        s,
        &kb,
        &surveyor_extract::ExtractionConfig::paper_final(),
    );
    for st in &stmts {
        lines.push(format!(
            "  extraction: ({}, {}) polarity {:?}  [two negations cancel]",
            kb.entity(st.entity).name(),
            st.property.resolve(),
            st.polarity
        ));
    }
    let value = json!({
        "sentence": sentence,
        "extractions": stmts.len(),
        "polarity": stmts.first().map(|s| format!("{:?}", s.polarity)),
    });
    (lines.join("\n") + "\n", value)
}

/// Figure 6: the two count distributions of Example 3 and the ⟨60,3⟩
/// posterior.
pub fn fig6(_cfg: &ReproConfig) -> (String, Value) {
    let params = ModelParams::new(0.9, 100.0, 5.0);
    let mut lines = vec![
        "Figure 6 — log-probabilities under Example 3 (pA=0.9, np+S=100, np-S=5)".to_owned(),
        "posterior Pr(D=+ | c+, c-) over a grid:".to_owned(),
        "        c+:   0     20     40     60     80    100".to_owned(),
    ];
    for c_neg in [0u64, 2, 4, 6, 8, 10] {
        let mut row = format!("  c-={c_neg:>2}  ");
        for c_pos in [0u64, 20, 40, 60, 80, 100] {
            let p = posterior_positive(ObservedCounts::new(c_pos, c_neg), &params);
            row.push_str(&format!("{p:>7.3}"));
        }
        lines.push(row);
    }
    let p63 = posterior_positive(ObservedCounts::new(60, 3), &params);
    lines.push(format!(
        "tuple X = (60, 3): Pr(positive dominant opinion) = {p63:.6} (paper: clearly positive)"
    ));
    let value = json!({"pa": 0.9, "np_pos": 100.0, "np_neg": 5.0, "posterior_60_3": p63});
    (lines.join("\n") + "\n", value)
}

/// Figure 3: the Californian big-cities empirical study.
pub fn fig3(cfg: &ReproConfig) -> (String, Value) {
    let world = presets::big_cities_world(cfg.seed);
    let study = run_empirical(
        &world,
        kbseed::ATTR_POPULATION,
        cfg.corpus(),
        SurveyorConfig {
            rho: 50,
            threads: cfg.threads,
            ..SurveyorConfig::default()
        },
    );
    let mut text = String::from("Figure 3 — 461 Californian cities, property `big`\n");
    text.push_str("\n(a) positive statements vs population (log x):\n");
    let pos_points: Vec<(f64, f64)> = study
        .points
        .iter()
        .map(|p| (p.attribute, p.positive as f64))
        .collect();
    text.push_str(&render::scatter_logx(&pos_points, 10, 56));
    text.push_str("\n(b) negative statements vs population (log x):\n");
    let neg_points: Vec<(f64, f64)> = study
        .points
        .iter()
        .map(|p| (p.attribute, p.negative as f64))
        .collect();
    text.push_str(&render::scatter_logx(&neg_points, 8, 56));
    let polarity_points = |value: fn(&surveyor_eval::EmpiricalPoint) -> f64| -> Vec<(f64, f64)> {
        study
            .points
            .iter()
            .map(|p| (p.attribute, value(p)))
            .collect()
    };
    text.push_str("\n(c) majority-vote polarity (+1 / 0=N / -1) vs population:\n");
    text.push_str(&render::scatter_logx(
        &polarity_points(|p| match p.majority {
            Decision::Positive => 1.0,
            Decision::Unsolved => 0.0,
            Decision::Negative => -1.0,
        }),
        7,
        56,
    ));
    text.push_str("\n(d) probabilistic-model polarity vs population:\n");
    text.push_str(&render::scatter_logx(
        &polarity_points(|p| match p.model {
            Decision::Positive => 1.0,
            Decision::Unsolved => 0.0,
            Decision::Negative => -1.0,
        }),
        7,
        56,
    ));
    text.push_str(&format!(
        "\nSpearman(population, polarity): majority vote {:.3}, model {:.3}\n\
         coverage: majority vote {:.3}, model {:.3}\n\
         accuracy vs planted opinion: majority vote {:.3}, model {:.3}\n",
        study.majority_spearman.unwrap_or(0.0),
        study.model_spearman.unwrap_or(0.0),
        study.majority_coverage,
        study.model_coverage,
        study.majority_accuracy,
        study.model_accuracy,
    ));
    let value = serde_json::to_value(&study).expect("serializable study");
    (text, value)
}

/// Figure 13: the Appendix A studies (countries / lakes / mountains).
pub fn fig13(cfg: &ReproConfig) -> (String, Value) {
    let studies = [
        (
            "Wealthy countries (GDP per capita)",
            presets::wealthy_countries_world(cfg.seed),
            kbseed::ATTR_GDP_PER_CAPITA,
        ),
        (
            "Big lakes in Switzerland (area km2)",
            presets::big_lakes_world(cfg.seed),
            kbseed::ATTR_AREA_KM2,
        ),
        (
            "High mountains on the British Isles (relative height m)",
            presets::high_mountains_world(cfg.seed),
            kbseed::ATTR_RELATIVE_HEIGHT_M,
        ),
    ];
    let mut text = String::from("Figure 13 — Appendix A empirical studies\n");
    let mut rows = Vec::new();
    let mut values = Vec::new();
    for (label, world, attr) in studies {
        let study = run_empirical(
            &world,
            attr,
            cfg.corpus(),
            SurveyorConfig {
                rho: 20,
                threads: cfg.threads,
                ..SurveyorConfig::default()
            },
        );
        rows.push(vec![
            label.to_owned(),
            render::f3(study.majority_spearman.unwrap_or(0.0)),
            render::f3(study.model_spearman.unwrap_or(0.0)),
            render::f3(study.majority_coverage),
            render::f3(study.model_coverage),
        ]);
        values.push(serde_json::to_value(&study).expect("serializable"));
    }
    text.push_str(&render::table(
        &[
            "Scenario",
            "MV corr",
            "Model corr",
            "MV coverage",
            "Model coverage",
        ],
        &rows,
    ));
    (text, Value::Array(values))
}

/// Figure 9: extraction statistics over a large synthetic snapshot.
pub fn fig9(cfg: &ReproConfig) -> (String, Value) {
    let world = presets::long_tail_world(40, 120, 8, cfg.seed);
    let generator = CorpusGenerator::new(world.clone(), cfg.corpus());
    let source = CorpusSource::new(&generator);
    let evidence = run_sharded_full(
        &source,
        world.kb(),
        &surveyor_extract::ExtractionConfig::paper_final(),
        cfg.threads,
    )
    .evidence;
    let stats = snapshot_stats(&evidence, world.kb(), cfg.rho.min(25));
    let series = |name: &str, data: &[(u8, f64)]| -> String {
        let items: Vec<(String, f64)> = data.iter().map(|(q, v)| (format!("p{q}"), *v)).collect();
        format!("{name}\n{}", render::bars(&items, 40))
    };
    let text = format!(
        "Figure 9 — extraction statistics ({} statements, {} pairs, {} combinations, {} above threshold)\n\n{}\n{}\n{}",
        stats.statements_total,
        stats.pairs_with_evidence,
        stats.combinations_total,
        stats.combinations_above_rho,
        series("(a) statements per KB entity (percentiles):", &stats.per_entity),
        series(
            "(b) statements per property-type combination (percentiles):",
            &stats.per_combination
        ),
        series(
            "(c) properties above threshold per type (percentiles):",
            &stats.properties_per_type
        ),
    );
    let value = serde_json::to_value(&stats).expect("serializable stats");
    (text, value)
}

/// Figures 10 and 11: the crowd data.
pub fn fig10_11(cfg: &ReproConfig) -> (String, Value) {
    let world = presets::table2_world(cfg.seed);
    let suite = EvalSuite::from_world_limited(&world, cfg.panel_seed, Some(20));
    let votes = suite.votes_for("animal", &Property::adjective("cute"));
    let mut text = String::from("Figure 10 — workers calling the animal \"cute\" (of 20):\n");
    let items: Vec<(String, f64)> = votes
        .iter()
        .map(|(name, v)| (name.clone(), *v as f64))
        .collect();
    text.push_str(&render::bars(&items, 20));
    text.push_str(&format!(
        "\nFigure 11 — test cases with agreement above threshold (of {} cases, {} ties removed, mean agreement {:.1}, {} unanimous):\n",
        suite.cases.len(),
        suite.ties_removed,
        suite.mean_agreement(),
        suite.unanimous_cases(),
    ));
    let hist: Vec<(String, f64)> = (11..=20)
        .map(|t| (format!(">= {t}"), suite.at_agreement(t).len() as f64))
        .collect();
    text.push_str(&render::bars(&hist, 40));
    let value = json!({
        "figure10_votes": votes,
        "figure11_histogram": (11..=20)
            .map(|t| json!({"threshold": t, "cases": suite.at_agreement(t).len()}))
            .collect::<Vec<_>>(),
        "mean_agreement": suite.mean_agreement(),
        "unanimous": suite.unanimous_cases(),
        "ties_removed": suite.ties_removed,
    });
    (text, value)
}

/// Table 3 and Figure 12: the method comparison (with bootstrap 95% CIs).
pub fn table3_fig12(cfg: &ReproConfig) -> (String, Value) {
    let world = presets::table2_world(cfg.seed);
    let generator = CorpusGenerator::new(world.clone(), cfg.corpus());
    let surveyor = Surveyor::new(world.kb().clone(), cfg.surveyor());
    let output = surveyor.run(&CorpusSource::new(&generator));
    let suite = surveyor_eval::EvalSuite::from_world_limited(&world, cfg.panel_seed, Some(20));
    let report =
        surveyor_eval::comparison::report_from_parts(&suite, &output, WebChildConfig::default());
    // Bootstrap 95% CIs on precision per method.
    let decisions =
        surveyor_eval::comparison::method_decisions(&suite, &output, WebChildConfig::default());
    let truths: Vec<bool> = suite.cases.iter().map(|c| c.crowd_majority).collect();
    let mut text = format!(
        "Table 3 — comparison on {} judged test cases ({} ties removed)\n",
        report.cases, report.ties_removed
    );
    let rows: Vec<Vec<String>> = report
        .table3
        .iter()
        .map(|r| {
            let d = &decisions
                .per_method
                .iter()
                .find(|(n, _)| n == &r.method)
                .expect("method decisions")
                .1;
            let ci = surveyor_eval::bootstrap::bootstrap_metrics(d, &truths, 500, 0.95, 99);
            vec![
                r.method.clone(),
                render::f3(r.metrics.coverage),
                render::f3(r.metrics.precision),
                format!(
                    "[{}, {}]",
                    render::f3(ci.precision.lower),
                    render::f3(ci.precision.upper)
                ),
                render::f3(r.metrics.f1),
            ]
        })
        .collect();
    text.push_str(&render::table(
        &["Approach", "Coverage", "Precision", "95% CI (prec)", "F1"],
        &rows,
    ));
    text.push_str(
        "\nFigure 12 — precision (top) and coverage (bottom) vs worker-agreement threshold:\n",
    );
    let methods: Vec<&str> = report.table3.iter().map(|r| r.method.as_str()).collect();
    for metric in ["precision", "coverage"] {
        text.push_str(&format!("\n{metric}:\n  threshold:"));
        for p in &report.figure12 {
            text.push_str(&format!("{:>7}", p.threshold));
        }
        text.push('\n');
        for method in &methods {
            text.push_str(&format!("  {method:<20}"));
            for p in &report.figure12 {
                let m = p
                    .rows
                    .iter()
                    .find(|r| &r.method == method)
                    .expect("method row");
                let v = if metric == "precision" {
                    m.metrics.precision
                } else {
                    m.metrics.coverage
                };
                text.push_str(&format!("{v:>7.3}"));
            }
            text.push('\n');
        }
    }
    let value = serde_json::to_value(&report).expect("serializable report");
    (text, value)
}

/// Table 4: the extraction pattern versions.
pub fn table4(cfg: &ReproConfig) -> (String, Value) {
    let world = presets::table2_world(cfg.seed);
    let rows_data = run_versions(&world, cfg.corpus());
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                format!("{:?}", r.version),
                r.modifiers.clone(),
                r.verbs.clone(),
                if r.checks { "yes" } else { "no" }.to_owned(),
                r.statements.to_string(),
                r.pairs.to_string(),
                render::f3(r.on_target_share),
            ]
        })
        .collect();
    let text = format!(
        "Table 4 — extraction pattern versions\n{}",
        render::table(
            &[
                "Vers.",
                "Modifiers",
                "Verbs",
                "Check",
                "Statements",
                "Pairs",
                "On-target"
            ],
            &rows,
        )
    );
    let value = serde_json::to_value(&rows_data).expect("serializable rows");
    (text, value)
}

/// Table 5: the random-sample comparison.
pub fn table5(cfg: &ReproConfig) -> (String, Value) {
    let world = presets::long_tail_world(40, 120, 8, cfg.seed);
    let report = run_random_sample(
        &world,
        cfg.corpus(),
        SurveyorConfig {
            rho: 25,
            threads: cfg.threads,
            ..SurveyorConfig::default()
        },
        WebChildConfig::default(),
        100,
        7,
        80,
        cfg.seed ^ 0xD,
    );
    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.method.clone(),
                render::f3(r.coverage),
                render::f3(r.precision),
                render::f3(r.f1),
            ]
        })
        .collect();
    let text = format!(
        "Table 5 — random sample ({} cases, {} judged)\n{}",
        report.sampled_cases,
        report.judged_cases,
        render::table(&["Approach", "Coverage", "Precision", "F1"], &rows)
    );
    let value = serde_json::to_value(&report).expect("serializable report");
    (text, value)
}

/// Ablations of the design choices.
pub fn ablations(cfg: &ReproConfig) -> (String, Value) {
    let world = presets::table2_world(cfg.seed);
    let report = ablation::run_ablations(&world, cfg.corpus(), cfg.surveyor(), cfg.panel_seed);
    let m = |m: &surveyor_eval::Metrics| {
        vec![
            render::f3(m.coverage),
            render::f3(m.precision),
            render::f3(m.f1),
        ]
    };
    let mut rows = vec![
        [vec!["Surveyor (standard)".to_owned()], m(&report.standard)].concat(),
        [vec!["negation-blind".to_owned()], m(&report.negation_blind)].concat(),
        [
            vec!["global parameters".to_owned()],
            m(&report.global_params),
        ]
        .concat(),
        [
            vec!["standard (inverted-bias combos)".to_owned()],
            m(&report.standard_inverted),
        ]
        .concat(),
        [
            vec!["negation-blind (inverted-bias combos)".to_owned()],
            m(&report.negation_blind_inverted),
        ]
        .concat(),
    ];
    for (tau, metrics) in &report.thresholds {
        rows.push([vec![format!("threshold tau={tau}")], m(metrics)].concat());
    }
    for (iters, metrics) in &report.em_iterations {
        rows.push([vec![format!("EM iterations={iters}")], m(metrics)].concat());
    }
    // The §4 antonym alternative, on its dedicated two-property world.
    let antonym = surveyor_eval::antonym::run_antonym_ablation(cfg.seed, 400);
    rows.push(
        [
            vec!["antonym world: raw evidence".to_owned()],
            m(&antonym.without_folding),
        ]
        .concat(),
    );
    rows.push(
        [
            vec!["antonym world: small folded into not-big".to_owned()],
            m(&antonym.with_folding),
        ]
        .concat(),
    );
    let text = format!(
        "Ablations — design choices of Sections 4 and 5\n{}\n\
         (antonym world: {} of {} entities are neither big nor small — the\n\
          band that antonym folding misreads, paper Section 4)\n",
        render::table(&["Variant", "Coverage", "Precision", "F1"], &rows),
        antonym.medium_entities,
        antonym.entities,
    );
    let value = serde_json::json!({
        "design_choices": serde_json::to_value(&report).expect("serializable report"),
        "antonym": serde_json::to_value(&antonym).expect("serializable antonym report"),
    });
    (text, value)
}

/// Region-specific mining (§2 extension): divergence and per-region
/// accuracy as the second region's opinion-flip probability grows.
pub fn regions(cfg: &ReproConfig) -> (String, Value) {
    // A dense world: each region sees only half the corpus, so rates are
    // high enough that per-region decisions stay well determined.
    let mut b = surveyor::kb::KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    let city = b.add_type("city", &["city"], &[]);
    for i in 0..80 {
        b.add_entity(&format!("Critter{i}"), animal).finish();
        b.add_entity(&format!("Metroville{i}"), city).finish();
    }
    let kb = std::sync::Arc::new(b.build());
    let dense = |share: f64| surveyor::prelude::DomainParams {
        p_agree: 0.92,
        rate_pos: 30.0,
        rate_neg: 5.0,
        opinions: surveyor::prelude::OpinionRule::RandomShare(share),
        ..surveyor::prelude::DomainParams::default()
    };
    let world = surveyor::prelude::WorldBuilder::new(kb, cfg.seed)
        .domain("animal", Property::adjective("cute"), dense(0.5))
        .domain("animal", Property::adjective("dangerous"), dense(0.4))
        .domain("city", Property::adjective("big"), dense(0.3))
        .build();
    let mut rows = Vec::new();
    let mut values = Vec::new();
    for flip in [0.0, 0.2, 0.4, 0.6] {
        let report =
            surveyor_eval::region::run_region_experiment(&world, flip, cfg.shards, 40, cfg.threads);
        rows.push(vec![
            format!("{flip:.1}"),
            render::f3(report.divergence),
            render::f3(report.accuracy_a),
            render::f3(report.accuracy_b),
            report.compared_pairs.to_string(),
        ]);
        values.push(serde_json::to_value(&report).expect("serializable report"));
    }
    let text = format!(
        "Region-specific mining (§2) — two author regions, region B flips a\n\
         fraction of region A's dominant opinions; each region's corpus slice\n\
         is mined separately\n{}",
        render::table(
            &[
                "Flip prob",
                "Divergence",
                "Accuracy A",
                "Accuracy B",
                "Pairs"
            ],
            &rows,
        )
    );
    (text, Value::Array(values))
}

/// Scale experiment (§7.1): extraction time against worker threads, and
/// what one EM fit costs as a group's entities grow and as its mention
/// volume grows. A fit costs O(distinct `(c+, c−)` pairs × iterations)
/// plus one accumulation per entity, so every EM row reports the group's
/// distinct pairs beside its time.
pub fn scale(cfg: &ReproConfig) -> (String, Value) {
    use rand::{rngs::StdRng, SeedableRng};
    use surveyor_prob::Poisson;

    // Extraction vs worker threads; a larger sharded corpus so per-shard
    // work dominates scheduling overhead.
    let world = presets::table2_world(cfg.seed);
    let generator = CorpusGenerator::new(
        world.clone(),
        CorpusConfig {
            num_shards: 64,
            ..CorpusConfig::default()
        },
    );
    let source = CorpusSource::new(&generator);
    let mut rows = Vec::new();
    let mut values = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (seconds, table) = timed(TIMED_RUNS, || {
            run_sharded_full(
                &source,
                world.kb(),
                &surveyor_extract::ExtractionConfig::paper_final(),
                threads,
            )
            .evidence
        });
        rows.push(vec![
            format!("extraction, {threads} threads"),
            format!("{seconds:.3}s"),
            format!("{} statements", table.total_statements()),
        ]);
        values.push(
            json!({"phase": "extraction", "threads": threads, "seconds": seconds,
                           "statements": table.total_statements()}),
        );
    }

    // One group of `m` entities: every `every`-th draws its counts at the
    // `high` rates, the rest at the `low` ones, each rate times `volume`.
    let draw = |m: usize, every: usize, high: (f64, f64), low: (f64, f64), volume: f64| {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        (0..m)
            .map(|i| {
                let (lp, ln) = if i % every == 0 { high } else { low };
                ObservedCounts::new(
                    Poisson::new(lp * volume).sample(&mut rng),
                    Poisson::new(ln * volume).sample(&mut rng),
                )
            })
            .collect::<Vec<_>>()
    };
    // EM vs entities at fixed per-entity rates, then EM vs mention volume
    // at 20k entities with every rate scaled ×1/×10/×100.
    let groups = [1_000usize, 10_000, 100_000]
        .map(|m| ("em", m, 1.0, draw(m, 5, (40.0, 1.0), (2.0, 0.5), 1.0)))
        .into_iter()
        .chain([1.0, 10.0, 100.0].map(|volume| {
            let counts = draw(20_000, 4, (30.0, 1.0), (2.0, 0.6), volume);
            ("em_mention_volume", 20_000, volume, counts)
        }));
    for (phase, m, volume, counts) in groups {
        let distinct_pairs = CountTable::new(&counts).distinct_pairs();
        let (seconds, fitted) = timed(TIMED_RUNS, || fit(&counts, &EmConfig::default()));
        rows.push(vec![
            if phase == "em" {
                format!("EM, {m} entities")
            } else {
                format!("EM, {m} entities, mentions ×{volume}")
            },
            format!("{:.2}ms", seconds * 1e3),
            format!(
                "{distinct_pairs} distinct pairs, {} iterations",
                fitted.iterations
            ),
        ]);
        values.push(
            json!({"phase": phase, "entities": m, "mention_volume": volume,
                           "seconds": seconds, "distinct_pairs": distinct_pairs,
                           "iterations": fitted.iterations}),
        );
    }
    let text = format!(
        "Scale (§7.1) — extraction and EM, median of {TIMED_RUNS} runs\n{}",
        render::table(&["Stage", "Time", "Detail"], &rows)
    );
    (text, Value::Array(values))
}

/// Timed runs per configuration, after one discarded warm-up run.
const TIMED_RUNS: usize = 5;

/// Runs `run` once to warm up, then `timed_runs` times on the clock;
/// returns the median seconds and the last run's result.
fn timed<T>(timed_runs: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    median_of(timed_runs, || clock(&mut run))
}

/// Calls `sample` once to warm up, then `runs` times; each call returns
/// the seconds it measured and a result. Returns the median seconds and
/// the last result. Each result is dropped before the next call, off the
/// clock.
fn median_of<T>(runs: usize, mut sample: impl FnMut() -> (f64, T)) -> (f64, T) {
    let (_, mut result) = sample();
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        drop(result);
        let seconds;
        (seconds, result) = sample();
        samples.push(seconds);
    }
    (median(&mut samples), result)
}

/// Seconds one call of `run` takes, and its result.
fn clock<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let result = run();
    (start.elapsed().as_secs_f64(), result)
}

/// Median of a sample set (0 for an empty one), sorting it in place.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    surveyor_prob::stats::percentile_sorted_or_zero(samples, 50.0)
}

/// The timing-methodology block embedded in every bench artifact.
fn timing_block(timed_runs: usize) -> Value {
    json!({"warmup_runs": 1, "timed_runs": timed_runs, "statistic": "median"})
}

/// FNV-1a fingerprint of a materialized corpus: folds every document's id,
/// region, and text bytes, so two sweeps collide only if they produced
/// byte-identical shards (up to hash collision).
fn fingerprint_shards(shards: &[Vec<surveyor_corpus::RawDocument>]) -> u64 {
    let mut hash = surveyor::wire::Fnv64::new();
    for doc in shards.iter().flatten() {
        hash.write_u64(doc.id);
        hash.write(&doc.region.to_le_bytes());
        hash.write(doc.text.as_bytes());
    }
    hash.finish()
}

/// `bench scale`: thread-scaling sweep over `table2_world` grown to ten
/// times its entities per type (background 4,800; 60 with `quick`),
/// timing the generation, extraction, and model phases separately at
/// 1/2/4/8 workers — the numbers behind `BENCH_scale.json`
/// (`schema_version` 2).
///
/// Besides the speedup curves the artifact records `host_cpus` (speedup is
/// bounded by physical parallelism — on a 1-CPU host every curve is flat
/// and that is the honest result), a determinism block asserting that
/// document fingerprints, statement counts, and decided pairs are
/// identical across thread counts, and the interner cache
/// counters that prove the steady-state extraction path stays off the
/// global table.
///
/// `quick` shrinks the corpus and run count so `scripts/verify.sh` can
/// smoke-test the artifact schema in seconds.
pub fn scale_sweep(cfg: &ReproConfig, quick: bool) -> (String, Value) {
    use std::sync::Arc;
    use surveyor::nlp::AnnotatedDocument;
    use surveyor::obs::MetricsRegistry;
    use surveyor_corpus::RawDocument;
    use surveyor_extract::ShardSource;

    /// Pre-generated raw shards; annotation happens inside `shard`, so it
    /// is part of the measured extraction phase.
    struct RawShards<'a> {
        shards: Vec<Vec<RawDocument>>,
        kb: &'a surveyor_kb::KnowledgeBase,
        lexicon: &'a Lexicon,
    }

    impl ShardSource for RawShards<'_> {
        fn shard_count(&self) -> usize {
            self.shards.len()
        }

        fn shard(&self, index: usize) -> std::borrow::Cow<'_, [AnnotatedDocument]> {
            let mut scratch = AnnotateScratch::default();
            std::borrow::Cow::Owned(
                self.shards[index]
                    .iter()
                    .map(|d| annotate_with(d.id, &d.text, self.kb, self.lexicon, &mut scratch))
                    .collect(),
            )
        }
    }

    let background_per_type = if quick { 60 } else { 4800 };
    let num_shards = if quick { 16 } else { 64 };
    let timed_runs = if quick { 3 } else { TIMED_RUNS };
    let thread_counts = [1usize, 2, 4, 8];
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let world = presets::table2_world_sized(cfg.seed, background_per_type);
    let generator = CorpusGenerator::new(
        world.clone(),
        CorpusConfig {
            num_shards,
            ..CorpusConfig::default()
        },
    );
    let lexicon = generator.lexicon();

    // Generation sweep: parallel corpus materialization at each worker
    // count. The last sweep's output (byte-identical across worker counts
    // by construction, cross-checked below) feeds the extraction source.
    let mut rows = Vec::new();
    let mut generation = Vec::new();
    let mut document_fingerprints = Vec::new();
    let mut shards: Vec<Vec<RawDocument>> = Vec::new();
    let mut generation_t1 = 0.0f64;
    for threads in thread_counts {
        let seconds;
        (seconds, shards) = timed(timed_runs, || generator.all_shards_text(threads));
        if threads == 1 {
            generation_t1 = seconds;
        }
        let speedup = generation_t1 / seconds;
        let docs: usize = shards.iter().map(Vec::len).sum();
        document_fingerprints.push(fingerprint_shards(&shards));
        rows.push(vec![
            format!("generation, {threads} threads"),
            format!("{seconds:.2}s"),
            format!("{speedup:.2}x"),
            format!("{docs} documents"),
        ]);
        generation.push(json!({
            "threads": threads, "seconds": seconds, "speedup": speedup,
            "documents": docs,
        }));
    }
    let documents: usize = shards.iter().map(Vec::len).sum();
    let source = RawShards {
        shards,
        kb: world.kb(),
        lexicon: &lexicon,
    };
    let extraction_config = surveyor_extract::ExtractionConfig::paper_final();

    // Extraction sweep; the last run's evidence feeds the model sweep.
    let mut extraction = Vec::new();
    let mut statement_counts = Vec::new();
    let mut evidence = EvidenceTable::new();
    let mut extraction_t1 = 0.0f64;
    for threads in thread_counts {
        let seconds;
        (seconds, evidence) = timed(timed_runs, || {
            run_sharded_full(&source, world.kb(), &extraction_config, threads).evidence
        });
        if threads == 1 {
            extraction_t1 = seconds;
        }
        let speedup = extraction_t1 / seconds;
        statement_counts.push(evidence.total_statements());
        rows.push(vec![
            format!("extraction, {threads} threads"),
            format!("{seconds:.2}s"),
            format!("{speedup:.2}x"),
            format!("{} statements", evidence.total_statements()),
        ]);
        extraction.push(json!({
            "threads": threads, "seconds": seconds, "speedup": speedup,
            "statements": evidence.total_statements(),
        }));
    }

    // Model (interpretation) sweep over the same evidence.
    let mut model = Vec::new();
    let mut decided_counts = Vec::new();
    let mut model_t1 = 0.0f64;
    for threads in thread_counts {
        let surveyor = Surveyor::new(
            world.kb().clone(),
            SurveyorConfig {
                rho: cfg.rho,
                threads,
                ..SurveyorConfig::default()
            },
        );
        let (seconds, output) = timed(timed_runs, || surveyor.run_on_evidence(evidence.clone()));
        let decided = output.decided_pairs();
        if threads == 1 {
            model_t1 = seconds;
        }
        let speedup = model_t1 / seconds;
        decided_counts.push(decided);
        rows.push(vec![
            format!("model, {threads} threads"),
            format!("{seconds:.3}s"),
            format!("{speedup:.2}x"),
            format!("{decided} decided pairs"),
        ]);
        model.push(json!({
            "threads": threads, "seconds": seconds, "speedup": speedup,
            "decided_pairs": decided,
        }));
    }

    let documents_identical = document_fingerprints.windows(2).all(|w| w[0] == w[1]);
    let statements_identical = statement_counts.windows(2).all(|w| w[0] == w[1]);
    let decided_identical = decided_counts.windows(2).all(|w| w[0] == w[1]);

    // One observed run surfaces the interner cache counters: steady-state
    // extraction is lock-free exactly when global lookups stay a small
    // constant (the vocabulary) while hits scale with the corpus.
    let registry = Arc::new(MetricsRegistry::new());
    let threads_max = *thread_counts.last().unwrap_or(&1);
    let _ = surveyor_extract::run_sharded_fault_tolerant(
        &source,
        world.kb(),
        &extraction_config,
        threads_max,
        &surveyor_extract::RetryPolicy::no_retries(),
        &surveyor_extract::FailurePolicy::FailFast,
        Some(&registry),
    );
    let cache_hits = registry.counter_value("extract.intern.cache_hits");
    let global_lookups = registry.counter_value("extract.intern.global_lookups");
    let hit_rate = if cache_hits + global_lookups > 0 {
        cache_hits as f64 / (cache_hits + global_lookups) as f64
    } else {
        0.0
    };

    let text = format!(
        "Thread scaling — {documents} documents, {num_shards} shards, {host_cpus} host CPUs\n{}\nintern cache: {cache_hits} hits, {global_lookups} global lookups ({:.1}% local)",
        render::table(&["Stage", "Median time", "Speedup", "Detail"], &rows),
        hit_rate * 100.0,
    );
    let value = json!({
        "schema_version": 2,
        "preset": "table2_world_sized",
        "background_per_type": background_per_type,
        "seed": cfg.seed, "shards": num_shards,
        "documents": documents,
        "host_cpus": host_cpus,
        "quick": quick,
        "timing": timing_block(timed_runs),
        "phases": json!({
            "generation": generation,
            "extraction": extraction,
            "model": model,
        }),
        "determinism": json!({
            "documents_identical": documents_identical,
            "statements_identical": statements_identical,
            "decided_pairs_identical": decided_identical,
            "document_fingerprints": document_fingerprints,
            "statements": statement_counts,
            "decided_pairs": decided_counts,
        }),
        "intern_cache": json!({
            "hits": cache_hits,
            "global_lookups": global_lookups,
            "hit_rate": hit_rate,
        }),
    });
    (text, value)
}

/// `bench snapshot`: binary snapshot throughput — the numbers behind
/// `BENCH_snapshot.json`.
///
/// Mines the `table2_world` preset once, then times four things over
/// the same mined world: re-mining it from the corpus (the cost a
/// snapshot avoids), encoding it to `surveyor-wire` bytes, validating the
/// container of those bytes (`SnapshotReader::new`: framing and one CRC
/// per section, before any record is parsed), and loading them back
/// into a full [`SurveyorOutput`]. The headline number is
/// `speedup_load_vs_remine`; the artifact also asserts the round trip
/// is byte-identical (load → re-encode reproduces the input exactly).
///
/// `quick` shrinks the corpus and run count so `scripts/verify.sh` can
/// smoke-test the artifact schema in seconds.
pub fn snapshot_bench(cfg: &ReproConfig, quick: bool) -> (String, Value) {
    let num_shards = if quick { 16 } else { 64 };
    let timed_runs = if quick { 3 } else { TIMED_RUNS };

    let world = presets::table2_world(cfg.seed);
    let generator = CorpusGenerator::new(
        world.clone(),
        CorpusConfig {
            num_shards,
            ..CorpusConfig::default()
        },
    );
    let source = CorpusSource::new(&generator);
    let surveyor = Surveyor::new(world.kb().clone(), cfg.surveyor());

    // Re-mine timings: the full pipeline (generation + extraction +
    // grouping + EM + decisions) a snapshot load replaces.
    let (remine_seconds, output) = timed(timed_runs, || surveyor.run(&source));

    // Encode timings.
    let (encode_seconds, bytes) = timed(timed_runs, || surveyor::save_snapshot(&output));
    let megabytes = bytes.len() as f64 / (1024.0 * 1024.0);
    let encode_mb_s = megabytes / encode_seconds.max(f64::EPSILON);
    // Where the bytes are: each section's payload, from the frame table.
    let sections: serde_json::Map = surveyor::wire::SnapshotReader::new(&bytes)
        .expect("own snapshot validates")
        .section_sizes()
        .into_iter()
        .map(|(tag, len)| (tag.to_string(), json!(len)))
        .collect();

    // Container validation: what a reader pays before the first record.
    // One pass over 0.5 MB is a fraction of a millisecond, so a sample
    // is the mean of a few back-to-back passes.
    const VALIDATE_PASSES: u32 = 8;
    let (validate_passes_seconds, ()) = timed(timed_runs, || {
        for _ in 0..VALIDATE_PASSES {
            let reader = surveyor::wire::SnapshotReader::new(std::hint::black_box(&bytes));
            std::hint::black_box(reader.expect("own snapshot validates"));
        }
    });
    let validate_seconds = validate_passes_seconds / f64::from(VALIDATE_PASSES);
    let validate_mb_s = megabytes / validate_seconds.max(f64::EPSILON);

    // Load timings: bytes back to a full mined world.
    let (load_seconds, loaded) = timed(timed_runs, || {
        surveyor::load_snapshot(&bytes).expect("own snapshot decodes")
    });
    let decode_mb_s = megabytes / load_seconds.max(f64::EPSILON);
    let speedup = remine_seconds / load_seconds.max(f64::EPSILON);

    // Round-trip fidelity: the loaded world re-encodes to the exact same
    // bytes, and its queryable store is the same JSON.
    let byte_identical = surveyor::save_snapshot(&loaded) == bytes
        && surveyor::SubjectiveKb::from_output(&loaded, loaded.kb()).to_json()
            == surveyor::SubjectiveKb::from_output(&output, output.kb()).to_json();

    let rows = vec![
        vec![
            "re-mine".to_owned(),
            format!("{remine_seconds:.3}s"),
            format!("{} statements", output.evidence.total_statements()),
        ],
        vec![
            "encode".to_owned(),
            format!("{encode_seconds:.4}s"),
            format!("{:.1} MB/s, {} bytes", encode_mb_s, bytes.len()),
        ],
        vec![
            "validate".to_owned(),
            format!("{validate_seconds:.5}s"),
            format!("{validate_mb_s:.1} MB/s (framing + CRC)"),
        ],
        vec![
            "load".to_owned(),
            format!("{load_seconds:.4}s"),
            format!("{decode_mb_s:.1} MB/s (bytes -> output)"),
        ],
        vec![
            "speedup".to_owned(),
            format!("{speedup:.0}x"),
            format!("byte identical: {byte_identical}"),
        ],
    ];
    let text = format!(
        "Snapshot throughput — load vs re-mine (table2_world, {num_shards} shards)\n{}",
        render::table(&["Stage", "Median time", "Detail"], &rows)
    );
    let value = json!({
        "schema_version": 1,
        "preset": "table2_world", "seed": cfg.seed, "shards": num_shards,
        "quick": quick,
        "timing": timing_block(timed_runs),
        "snapshot_bytes": bytes.len(),
        "section_bytes": Value::Object(sections),
        "format_version": surveyor::wire::FORMAT_VERSION,
        "remine_seconds": remine_seconds,
        "encode_seconds": encode_seconds,
        "encode_mb_s": encode_mb_s,
        "validate_seconds": validate_seconds,
        "validate_mb_s": validate_mb_s,
        "load_seconds": load_seconds,
        "decode_mb_s": decode_mb_s,
        "speedup_load_vs_remine": speedup,
        "byte_identical": byte_identical,
        "statements": output.evidence.total_statements(),
        "decided_pairs": output.decided_pairs(),
    });
    (text, value)
}

/// One HTTP/1.1 exchange against a bench server: connect, send `request`
/// verbatim, read to EOF (the server closes every connection), and parse
/// the status line. `None` covers every transport failure — in the chaos
/// phase a vanished response is an expected outcome, not a panic.
fn http_exchange(addr: std::net::SocketAddr, request: &[u8]) -> Option<(u16, String)> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    let patience = Some(std::time::Duration::from_secs(10));
    stream.set_read_timeout(patience).ok()?;
    stream.set_write_timeout(patience).ok()?;
    stream.write_all(request).ok()?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply).ok()?;
    let status = reply.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()?;
    Some((status, reply))
}

/// `GET path` against a bench server.
fn http_get(addr: std::net::SocketAddr, path: &str) -> Option<(u16, String)> {
    http_exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes(),
    )
}

/// `POST path` against a bench server.
fn http_post(addr: std::net::SocketAddr, path: &str) -> Option<(u16, String)> {
    http_exchange(
        addr,
        format!("POST {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes(),
    )
}

/// `GET path` as a well-behaved client under chaos: honors the server's
/// backpressure by retrying briefly on a shed `503` or queue-expired
/// `408`. Those are *correct* overload answers, not wrong answers — the
/// invariant the chaos phase pins is that a valid query is never
/// answered incorrectly or dropped, not that the server never sheds.
fn http_get_patient(addr: std::net::SocketAddr, path: &str) -> Option<(u16, String)> {
    let mut last = None;
    for _ in 0..5 {
        last = http_get(addr, path);
        match last {
            Some((503, _)) | Some((408, _)) | None => {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            _ => break,
        }
    }
    last
}

/// Mean `SubjectiveKb::find_opinion` time, in nanoseconds, over a few
/// stored pairs spread evenly across `store` and looked up many times
/// over — few and fixed, so that stores of different sizes are probed
/// with the same working set, one that fits the caches and the TLB, and
/// what is compared is the lookup, not the memory behind it. Median of
/// `TIMED_RUNS` timed runs after one warm-up run.
fn mean_find_opinion_ns(store: &surveyor::SubjectiveKb) -> f64 {
    const PROBES: usize = 256;
    const ROUNDS: usize = 64;
    let probes: Vec<(&str, &Property)> = store
        .combinations()
        .flat_map(|b| b.opinions().map(move |o| (o.entity_name, b.property)))
        .step_by((store.len() / PROBES).max(1))
        .take(PROBES)
        .collect();
    assert!(!probes.is_empty(), "store holds no pair to look up");
    let (seconds, ()) = timed(TIMED_RUNS, || {
        for _ in 0..ROUNDS {
            for &(entity, property) in &probes {
                let hit = store.find_opinion(std::hint::black_box(entity), property);
                assert!(std::hint::black_box(hit).is_some(), "stored pair not found");
            }
        }
    });
    seconds * 1e9 / (ROUNDS * probes.len()) as f64
}

/// `bench serve`: the lookup row and chaos resilience of the query
/// server — the numbers behind `BENCH_serve.json`.
///
/// Mines the `table2_world` preset once and snapshots it. A **lookup
/// row** times `find_opinion` on the served store and on a store mined
/// from the same world with ten times the entities per type: a lookup
/// answered from the entity index costs what the entity's own opinions
/// cost, so the two must read alike (`--assert-lookup-flat`: ratio ≤ 3),
/// where a scan would read 10×.
///
/// The chaos phase then boots a deliberately tight `surveyor-server` on a
/// loopback port (2 workers, 4-slot queue, debug routes) and drives a
/// seeded [`FaultPlan`] of hostile clients — malformed request bytes,
/// slowloris partial writes, mid-request disconnects, worker panics, and
/// concurrent corrupt-reload attempts — interleaved with valid queries
/// whose answers are asserted against the mined store. An overload burst
/// against stalled workers pins the shed counter, one valid reload pins
/// the accept path, and the server is shut down via `POST /ctl/shutdown`
/// (the graceful drain path, not the test hook). Request throughput and
/// latency are the ledger's `serve_*` metrics, not this artifact's.
///
/// `quick` shrinks the corpus and the chaos op count so
/// `scripts/verify.sh` can smoke-test the artifact schema in seconds.
pub fn serve_bench(cfg: &ReproConfig, quick: bool) -> (String, Value) {
    use std::io::Write as _;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;
    use surveyor::obs::MetricsRegistry;
    use surveyor_extract::{Fault, FaultPlan};
    use surveyor_server::{percent_encode, ServedState, ServerConfig};

    // Mine once, snapshot to bytes: the chaos server serves that index.
    let num_shards = if quick { 4 } else { 16 };
    let world = presets::table2_world(cfg.seed);
    let generator = CorpusGenerator::new(
        world.clone(),
        CorpusConfig {
            num_shards,
            ..CorpusConfig::default()
        },
    );
    let surveyor = Surveyor::new(
        world.kb().clone(),
        SurveyorConfig {
            rho: 40,
            threads: cfg.threads,
            ..SurveyorConfig::default()
        },
    );
    let output = surveyor.run(&CorpusSource::new(&generator));
    let bytes = surveyor::save_snapshot(&output);
    let state = Arc::new(
        ServedState::from_snapshot_bytes(&bytes, 1, "bench").expect("own snapshot serves"),
    );
    let associations = state.store.len();

    // ---- Lookup row: the same world at 1x and 10x entities per type. ----
    let lookup_small_ns = mean_find_opinion_ns(&state.store);
    // `table2_world` has 20 curated + 480 background entities per type.
    let large_world = presets::table2_world_sized(cfg.seed, 10 * 500 - 20);
    let large_kb = large_world.kb().clone();
    let large_generator = CorpusGenerator::new(
        large_world,
        CorpusConfig {
            num_shards,
            ..CorpusConfig::default()
        },
    );
    let large_store = surveyor::SubjectiveKb::from_output(
        &Surveyor::new(large_kb.clone(), surveyor.config().clone())
            .run(&CorpusSource::new(&large_generator)),
        &large_kb,
    );
    let lookup_large_pairs = large_store.len();
    let lookup_large_ns = mean_find_opinion_ns(&large_store);
    drop(large_store);
    let lookup_ratio = lookup_large_ns / lookup_small_ns.max(f64::EPSILON);

    // Query targets: every stored opinion, as a percent-encoded `/decide`
    // path plus the verdict the store will answer with. The expected bit
    // comes from `find_opinion` (what the route calls), not the block the
    // pair was enumerated from — when an entity carries the same property
    // under two types, the route answers from the most confident block.
    let targets: Vec<(String, bool)> = state
        .store
        .combinations()
        .flat_map(|block| {
            block
                .opinions()
                .map(move |o| (o.entity_name, block.property))
        })
        .take(256)
        .map(|(entity, property)| {
            let (_, opinion) = state
                .store
                .find_opinion(entity, property)
                .expect("enumerated pair resolves");
            (
                format!(
                    "/decide/{}/{}",
                    percent_encode(entity),
                    percent_encode(&property.to_string())
                ),
                opinion.positive,
            )
        })
        .collect();
    assert!(!targets.is_empty(), "mined snapshot decided no pairs");

    // ---- Chaos phase: a tight server under a seeded fault plan. ----
    let chaos_registry = Arc::new(MetricsRegistry::new());
    let chaos = surveyor_server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 4,
            request_budget: Duration::from_secs(2),
            retry_after_seconds: 1,
            debug_routes: true,
        },
        state.clone(),
        chaos_registry.clone(),
    )
    .expect("bind loopback");
    let chaos_addr = chaos.addr();

    // Reload candidates on disk: one corrupt (bit-flipped CRC region),
    // one valid. Unique names so parallel bench runs cannot collide.
    let pid = std::process::id();
    let corrupt_path =
        std::env::temp_dir().join(format!("surveyor_bench_corrupt_{}_{pid}.swire", cfg.seed));
    let valid_path =
        std::env::temp_dir().join(format!("surveyor_bench_valid_{}_{pid}.swire", cfg.seed));
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff;
    std::fs::write(&corrupt_path, &corrupt).expect("write corrupt reload candidate");
    std::fs::write(&valid_path, &bytes).expect("write valid reload candidate");
    let corrupt_route = format!(
        "/ctl/reload?path={}",
        percent_encode(corrupt_path.to_str().expect("utf8 temp path"))
    );

    let ops = if quick { 48 } else { 192 };
    let plan = FaultPlan::from_seed(cfg.seed, ops);
    let valid_sent = AtomicUsize::new(0);
    let valid_ok = AtomicUsize::new(0);
    let malformed_sent = AtomicUsize::new(0);
    let slowloris_sent = AtomicUsize::new(0);
    let disconnects_sent = AtomicUsize::new(0);
    let corrupt_reloads = AtomicUsize::new(0);
    let corrupt_rejected = AtomicUsize::new(0);
    let panics_injected = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let plan = &plan;
            let targets = &targets;
            let corrupt_route = corrupt_route.as_str();
            let valid_sent = &valid_sent;
            let valid_ok = &valid_ok;
            let malformed_sent = &malformed_sent;
            let slowloris_sent = &slowloris_sent;
            let disconnects_sent = &disconnects_sent;
            let corrupt_reloads = &corrupt_reloads;
            let corrupt_rejected = &corrupt_rejected;
            let panics_injected = &panics_injected;
            scope.spawn(move || {
                for i in (worker..ops).step_by(4) {
                    // The seeded plan decides most ops, but three classes
                    // are pinned to fixed op slots so every run exercises
                    // them regardless of how the seed rolls: concurrent
                    // corrupt reloads (i % 12 == 5), slowloris (== 11),
                    // and mid-request disconnects (== 3).
                    let fault = match i % 12 {
                        5 => Some(Fault::Permanent),
                        11 => Some(Fault::Slow { millis: 0 }),
                        3 => Some(Fault::Slow { millis: 1 }),
                        _ => plan.fault(i),
                    };
                    match fault {
                        Some(Fault::Panic) => {
                            panics_injected.fetch_add(1, Ordering::Relaxed);
                            let _ = http_post(chaos_addr, "/ctl/panic");
                        }
                        Some(Fault::Transient { failures }) => {
                            malformed_sent.fetch_add(1, Ordering::Relaxed);
                            let junk = format!("GET /\u{1}bad op{i} x{failures}\r\n\r\n");
                            let _ = http_exchange(chaos_addr, junk.as_bytes());
                        }
                        Some(Fault::Permanent) => {
                            // Concurrent corrupt-reload attempt: must be
                            // rejected, and the very next valid query must
                            // still answer from the old index.
                            corrupt_reloads.fetch_add(1, Ordering::Relaxed);
                            for _ in 0..5 {
                                match http_post(chaos_addr, corrupt_route) {
                                    Some((422, _)) => {
                                        corrupt_rejected.fetch_add(1, Ordering::Relaxed);
                                        break;
                                    }
                                    // Shed or queue-expired: back off and
                                    // retry like a real client would.
                                    Some((503, _)) | Some((408, _)) | None => {
                                        std::thread::sleep(Duration::from_millis(25));
                                    }
                                    Some(_) => break,
                                }
                            }
                            let (path, positive) = &targets[i % targets.len()];
                            valid_sent.fetch_add(1, Ordering::Relaxed);
                            if let Some((200, body)) = http_get_patient(chaos_addr, path) {
                                if body.contains(&format!("\"positive\": {positive}")) {
                                    valid_ok.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Some(Fault::Slow { millis: 0 }) => {
                            // Slowloris: dribble a partial head, then hang
                            // up without ever finishing it.
                            slowloris_sent.fetch_add(1, Ordering::Relaxed);
                            if let Ok(mut s) = std::net::TcpStream::connect(chaos_addr) {
                                let _ = s.write_all(b"GET /healthz HT");
                                std::thread::sleep(Duration::from_millis(50));
                                let _ = s.write_all(b"TP/1.1\r\nHost:");
                            }
                        }
                        Some(Fault::Slow { .. }) => {
                            // Mid-request disconnect.
                            disconnects_sent.fetch_add(1, Ordering::Relaxed);
                            if let Ok(mut s) = std::net::TcpStream::connect(chaos_addr) {
                                let _ = s.write_all(b"GET /decide/nobody");
                            }
                        }
                        None => {
                            let (path, positive) = &targets[i % targets.len()];
                            valid_sent.fetch_add(1, Ordering::Relaxed);
                            if let Some((200, body)) = http_get_patient(chaos_addr, path) {
                                if body.contains(&format!("\"positive\": {positive}")) {
                                    valid_ok.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                }
            });
        }
    });
    let valid_sent = valid_sent.into_inner();
    let valid_ok = valid_ok.into_inner();
    let malformed_sent = malformed_sent.into_inner();
    let slowloris_sent = slowloris_sent.into_inner();
    let disconnects_sent = disconnects_sent.into_inner();
    let corrupt_reloads = corrupt_reloads.into_inner();
    let corrupt_rejected = corrupt_rejected.into_inner();
    let panics_injected = panics_injected.into_inner();

    // One valid reload must still be accepted after all that abuse.
    let accepted_reload = matches!(
        http_post(
            chaos_addr,
            &format!(
                "/ctl/reload?path={}",
                percent_encode(valid_path.to_str().expect("utf8 temp path"))
            ),
        ),
        Some((200, _))
    );

    // Overload burst: stall both workers, then pile 24 connections onto
    // the 4-slot queue — the overflow must shed as immediate 503s.
    let burst = 24usize;
    let shed_503 = std::thread::scope(|scope| {
        let stallers: Vec<_> = (0..2)
            .map(|_| scope.spawn(move || http_post(chaos_addr, "/ctl/stall?ms=600")))
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        let shed = AtomicUsize::new(0);
        std::thread::scope(|inner| {
            for _ in 0..burst {
                let shed = &shed;
                inner.spawn(move || {
                    if let Some((503, reply)) = http_get(chaos_addr, "/healthz") {
                        assert!(
                            reply.contains("Retry-After:"),
                            "shed reply lacks Retry-After"
                        );
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        for s in stallers {
            let _ = s.join();
        }
        shed.into_inner()
    });

    // Graceful drain via the control route, then join every thread.
    let graceful = matches!(http_post(chaos_addr, "/ctl/shutdown"), Some((200, _)));
    chaos.join();
    let _ = std::fs::remove_file(&corrupt_path);
    let _ = std::fs::remove_file(&valid_path);

    let counter = |name: &str| chaos_registry.counter_value(name);
    let chaos_metrics = json!({
        "requests": counter("serve.requests"),
        "shed": counter("serve.shed"),
        "panics": counter("serve.panics"),
        "deadline_expired": counter("serve.deadline_expired"),
        "malformed": counter("serve.malformed"),
        "disconnects": counter("serve.disconnects"),
        "reload_ok": counter("serve.reload.ok"),
        "reload_rejected": counter("serve.reload.rejected"),
    });

    let text = format!(
        "Serve — {associations} associations, {} query targets\n\
         lookup: find_opinion {lookup_small_ns:.0} ns at {associations} pairs, \
         {lookup_large_ns:.0} ns at {lookup_large_pairs} pairs (ratio {lookup_ratio:.2})\n\
         chaos: {ops} ops — {valid_ok}/{valid_sent} valid queries answered correctly, \
         {}/{} corrupt reloads rejected, {} panics injected, \
         {shed_503}/{burst} shed in overload burst, accepted reload: {accepted_reload}, \
         graceful shutdown: {graceful}",
        targets.len(),
        corrupt_rejected,
        corrupt_reloads,
        panics_injected,
    );
    let all_valid_answered = valid_sent > 0 && valid_sent == valid_ok;
    let value = json!({
        "schema_version": 2,
        "preset": "table2_world",
        "seed": cfg.seed,
        "shards": num_shards,
        "quick": quick,
        "associations": associations,
        "targets": targets.len(),
        "lookup": json!({
            "small": json!({ "pairs": associations, "find_opinion_ns": lookup_small_ns }),
            "large": json!({ "pairs": lookup_large_pairs, "find_opinion_ns": lookup_large_ns }),
            "ratio": lookup_ratio,
        }),
        "chaos": json!({
            "ops": ops,
            "valid_queries": valid_sent,
            "valid_ok": valid_ok,
            "all_valid_answered": all_valid_answered,
            "malformed": malformed_sent,
            "slowloris": slowloris_sent,
            "disconnects": disconnects_sent,
            "corrupt_reloads": corrupt_reloads,
            "corrupt_reloads_rejected": corrupt_rejected,
            "panics_injected": panics_injected,
            "overload": json!({ "burst": burst, "shed_503": shed_503 }),
            "accepted_reload": accepted_reload,
            "graceful_shutdown": graceful,
            "metrics": chaos_metrics,
        }),
    });
    (text, value)
}

/// `bench incremental`: delta-ingestion cost vs from-scratch mining,
/// behind `BENCH_incremental.json`.
///
/// Four measurements over the long-tail preset (many (type, property)
/// groups, so a small delta leaves most groups untouched):
///
/// 1. **Delta sweep** — fixed corpus, growing delta: update wall time
///    must track the delta size, not the corpus size, and every updated
///    output must re-encode byte-identical to the from-scratch mine of
///    the whole corpus. Each timed update is paired with a timed
///    from-scratch mine, and a row's `speedup_vs_scratch` is the median
///    of its paired ratios. Beside it, `load_ms` and `save_ms` time the
///    rest of what `surveyor update` does — loading the base's snapshot
///    bytes and saving the updated output's — each on its own clock and
///    reported, not gated.
/// 2. **Corpus sweep** — fixed absolute delta, growing corpus: the
///    from-scratch time grows with the corpus while the update time
///    stays roughly flat.
/// 3. **Thread determinism** — the byte-identity of (1) holds at 1, 2,
///    4, and 8 worker threads.
/// 4. **Chaos replay** — a base mined under seeded fault injection
///    quarantines shards into the replay queue; updating it (delta plus
///    replay) converges bit-for-bit to the clean from-scratch bytes.
pub fn incremental_bench(cfg: &ReproConfig, quick: bool) -> (String, Value) {
    use surveyor::wire::IncrementalState;
    use surveyor::WarmStart;

    let num_shards: usize = if quick { 20 } else { 40 };
    // Every timed run here is milliseconds, so `quick` keeps all five:
    // the delta-scaling gate reads a median of paired ratios.
    let timed_runs = TIMED_RUNS;
    // 5%, 10%, 20%, and 50% of the corpus.
    let delta_sizes: Vec<usize> = [20, 10, 5, 2].iter().map(|d| num_shards / d).collect();
    let fixed_delta = num_shards / 10;
    // The long-tail preset's per-domain rates are deliberately low; the
    // default ρ = 100 would leave every group below threshold and the EM
    // phase idle. ρ = 25 keeps a healthy population of modeled groups so
    // updates exercise dirty-group refits and carried groups alike.
    let rho = cfg.rho.min(25);
    // A leaner EM search than the default (half the pA grid, one restart
    // instead of three). Applied identically to the from-scratch and
    // incremental sides, so speedups stay apples-to-apples; it keeps the
    // constant per-group refit cost from drowning the delta-proportional
    // extraction cost at bench scale.
    let em = EmConfig {
        pa_grid: (50..100).step_by(4).map(|p| p as f64 / 100.0).collect(),
        restart_shares: vec![0.5],
        ..EmConfig::default()
    };

    let world = presets::long_tail_world(40, 120, 8, cfg.seed);
    let kb = world.kb().clone();
    let make_generator = |shards: usize| {
        CorpusGenerator::new(
            world.clone(),
            CorpusConfig {
                num_shards: shards,
                ..CorpusConfig::default()
            },
        )
    };
    let surveyor = Surveyor::new(
        kb.clone(),
        SurveyorConfig {
            rho,
            em: em.clone(),
            threads: cfg.threads,
            ..SurveyorConfig::default()
        },
    );
    let retry = RetryPolicy::default();
    let policy = FailurePolicy::FailFast;

    let generator = make_generator(num_shards);
    let source = CorpusSource::new(&generator);

    // Mines shards `[0, upto)` of a generator — the base snapshot an
    // update later extends.
    let mine_base = |surv: &Surveyor, gen: &CorpusGenerator, upto: usize| {
        let subset = ShardSubset::range(CorpusSource::new(gen), 0, upto);
        surv.try_run(&subset, &retry, &policy)
            .expect("clean base mine")
            .output
    };

    // One update of `base` by shards `[from, to)` of `gen`, timed; the
    // base is cloned and the delta built off the clock, mirroring the real
    // flow where the base comes off disk.
    let time_update = |gen: &CorpusGenerator, base: &SurveyorOutput, from, to| {
        let input = base.clone();
        let delta = ShardSubset::range(CorpusSource::new(gen), from, to);
        clock(|| {
            surveyor
                .try_update(input, &delta, &retry, &policy, WarmStart::Exact)
                .expect("clean update")
        })
    };

    // From-scratch reference: the full corpus, mined cold.
    let scratch_bytes = surveyor::save_snapshot(&surveyor.run(&source));

    // (1) Delta sweep: base = all but the last `d` shards, delta = the
    // rest. Every timed update runs right after a timed from-scratch mine
    // of the whole corpus, and a row's speedup is the median of those
    // paired ratios: a stretch of a slow host slows both sides of a pair.
    let mut delta_rows = Vec::new();
    let mut sweep_table = Vec::new();
    let mut scratch_samples = Vec::new();
    for &d in &delta_sizes {
        let base_shards = num_shards - d;
        let base = mine_base(&surveyor, &generator, base_shards);
        let (mut scratch_row, mut update_row, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        let mut outcome = None;
        for run in 0..=timed_runs {
            let (scratch_seconds, _) = clock(|| surveyor.run(&source));
            let (update_seconds, out) = time_update(&generator, &base, base_shards, num_shards);
            if run > 0 {
                scratch_row.push(scratch_seconds);
                update_row.push(update_seconds);
                ratios.push(scratch_seconds / update_seconds.max(f64::EPSILON));
            }
            outcome = Some(out);
        }
        scratch_samples.extend_from_slice(&scratch_row);
        let scratch_seconds = median(&mut scratch_row);
        let update_seconds = median(&mut update_row);
        let speedup = median(&mut ratios);
        let outcome = outcome.expect("at least one update ran");
        let byte_identical = surveyor::save_snapshot(&outcome.output) == scratch_bytes;
        let state = |shards: usize| IncrementalState {
            rho,
            config_digest: surveyor.config().digest(),
            corpus_digest: 0,
            ingested: vec![(0, shards as u64)],
            pending: Vec::new(),
        };
        let base_bytes = surveyor::save_snapshot_with_state(&base, &state(base_shards));
        let (load_seconds, _) = timed(timed_runs, || {
            surveyor::load_snapshot_with_state(&base_bytes).expect("base snapshot loads")
        });
        let (save_seconds, _) = timed(timed_runs, || {
            surveyor::save_snapshot_with_state(&outcome.output, &state(num_shards))
        });
        let stats = outcome.stats;
        sweep_table.push(vec![
            format!("{d}/{num_shards}"),
            format!("{:.0}%", d as f64 / num_shards as f64 * 100.0),
            format!("{scratch_seconds:.3}s"),
            format!("{update_seconds:.3}s"),
            format!("{:.1}ms", load_seconds * 1e3),
            format!("{:.1}ms", save_seconds * 1e3),
            format!("{speedup:.1}x"),
            format!(
                "{}/{} refit, {} carried",
                stats.groups_refit, stats.groups_total, stats.groups_carried
            ),
            byte_identical.to_string(),
        ]);
        delta_rows.push(json!({
            "delta_shards": d,
            "delta_fraction": d as f64 / num_shards as f64,
            "scratch_seconds": scratch_seconds,
            "update_seconds": update_seconds,
            "load_ms": load_seconds * 1e3,
            "save_ms": save_seconds * 1e3,
            "speedup_vs_scratch": speedup,
            "byte_identical": byte_identical,
            "groups_total": stats.groups_total,
            "groups_dirty": stats.groups_dirty,
            "groups_carried": stats.groups_carried,
            "groups_refit": stats.groups_refit,
            "delta_pairs": stats.delta_pairs,
            "delta_statements": stats.delta_statements,
        }));
    }
    let scratch_seconds = median(&mut scratch_samples);

    // (2) Corpus sweep: the same absolute delta against growing corpora.
    // Each corpus size is its own world realization (shard contents
    // depend on the shard count), so times are comparable only within a
    // row — which is the point: scratch grows, update does not.
    let mut corpus_rows = Vec::new();
    let mut corpus_table = Vec::new();
    for n in [num_shards / 4, num_shards / 2, num_shards] {
        let generator_n = make_generator(n);
        let (scratch_n, _) = timed(timed_runs, || {
            surveyor.run(&CorpusSource::new(&generator_n))
        });
        let base = mine_base(&surveyor, &generator_n, n - fixed_delta);
        let (update_n, _) = median_of(timed_runs, || {
            time_update(&generator_n, &base, n - fixed_delta, n)
        });
        corpus_table.push(vec![
            format!("{n}"),
            format!("{fixed_delta}"),
            format!("{scratch_n:.3}s"),
            format!("{update_n:.3}s"),
            format!("{:.2}", update_n / scratch_n.max(f64::EPSILON)),
        ]);
        corpus_rows.push(json!({
            "shards": n,
            "delta_shards": fixed_delta,
            "scratch_seconds": scratch_n,
            "update_seconds": update_n,
            "update_fraction_of_scratch": update_n / scratch_n.max(f64::EPSILON),
        }));
    }

    // (3) Thread determinism: scratch and update must hit the reference
    // bytes at every worker count.
    let base_shards = num_shards - fixed_delta;
    let threads = [1usize, 2, 4, 8];
    let mut byte_identical_all_threads = true;
    for &t in &threads {
        let surveyor_t = Surveyor::new(
            kb.clone(),
            SurveyorConfig {
                rho,
                em: em.clone(),
                threads: t,
                ..SurveyorConfig::default()
            },
        );
        let scratch_t = surveyor_t.run(&source);
        let base_t = mine_base(&surveyor_t, &generator, base_shards);
        let delta = ShardSubset::range(CorpusSource::new(&generator), base_shards, num_shards);
        let updated_t = surveyor_t
            .try_update(base_t, &delta, &retry, &policy, WarmStart::Exact)
            .expect("clean update");
        byte_identical_all_threads &= surveyor::save_snapshot(&scratch_t) == scratch_bytes
            && surveyor::save_snapshot(&updated_t.output) == scratch_bytes;
    }

    // (4) Chaos replay: mine the base under a fault plan that
    // permanently kills at least one base shard, then update (delta +
    // replay queue) without faults and demand the clean bytes.
    let max_attempts = retry.max_attempts;
    let chaos_seed = (0..1000)
        .find(|&s| {
            FaultPlan::from_seed(s, num_shards)
                .expected_quarantine(max_attempts)
                .iter()
                .any(|&shard| shard < base_shards)
        })
        .expect("some seed quarantines a base shard");
    let injector = FaultInjector::new(
        CorpusSource::new(&generator),
        FaultPlan::from_seed(chaos_seed, num_shards),
    );
    let chaotic_base = ShardSubset::range(injector, 0, base_shards);
    let degraded = surveyor
        .try_run(
            &chaotic_base,
            &retry,
            &FailurePolicy::Degrade {
                min_shard_coverage: 0.0,
            },
        )
        .expect("degraded run survives");
    let quarantined: Vec<usize> = degraded.coverage.quarantined_shards();
    // Replay queue ∪ delta range, in shard order — exactly what the CLI
    // `update` command requests.
    let mut replay: Vec<usize> = quarantined.clone();
    replay.extend(base_shards..num_shards);
    replay.sort_unstable();
    let replay_delta = ShardSubset::new(CorpusSource::new(&generator), replay);
    let replayed = surveyor
        .try_update(
            degraded.output,
            &replay_delta,
            &retry,
            &policy,
            WarmStart::Exact,
        )
        .expect("replay update");
    let byte_identical_after_replay = surveyor::save_snapshot(&replayed.output) == scratch_bytes;

    let text = format!(
        "Incremental mining — update vs from-scratch (long_tail_world, {num_shards} shards, \
         from-scratch {scratch_seconds:.3}s)\n{}\n\
         Fixed {fixed_delta}-shard delta against growing corpora\n{}\n\
         byte-identical at 1/2/4/8 threads: {byte_identical_all_threads}\n\
         chaos replay (seed {chaos_seed}, quarantined {quarantined:?}) -> clean bytes: \
         {byte_identical_after_replay}",
        render::table(
            &[
                "Delta",
                "Fraction",
                "Scratch",
                "Update",
                "Load",
                "Save",
                "Speedup",
                "Groups",
                "Identical"
            ],
            &sweep_table
        ),
        render::table(
            &["Shards", "Delta", "Scratch", "Update", "Update/scratch"],
            &corpus_table
        ),
    );
    let value = json!({
        "schema_version": 3,
        "preset": "long_tail_world",
        "seed": cfg.seed,
        "shards": num_shards,
        "rho": rho,
        "quick": quick,
        "timing": timing_block(timed_runs),
        "from_scratch_seconds": scratch_seconds,
        "delta_sweep": delta_rows,
        "corpus_sweep": corpus_rows,
        "determinism": json!({
            "threads": threads.to_vec(),
            "byte_identical_all_threads": byte_identical_all_threads,
            "chaos": json!({
                "seed": chaos_seed,
                "quarantined_shards": quarantined,
                "byte_identical_after_replay": byte_identical_after_replay,
            }),
        }),
    });
    (text, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReproConfig {
        ReproConfig {
            seed: 5,
            shards: 2,
            threads: 2,
            rho: 40,
            panel_seed: 9,
        }
    }

    #[test]
    fn table1_extracts_all_three_patterns() {
        let (text, value) = table1(&tiny());
        assert!(text.contains("Snake"));
        assert!(text.contains("very big"));
        assert!(text.contains("exciting"));
        assert!(value.as_array().unwrap().len() >= 4);
    }

    #[test]
    fn fig5_detects_double_negation() {
        let (text, value) = fig5(&tiny());
        assert!(text.contains("Positive"), "{text}");
        assert_eq!(value["polarity"], "Positive");
    }

    #[test]
    fn fig6_posterior_is_positive_for_60_3() {
        let (_, value) = fig6(&tiny());
        assert!(value["posterior_60_3"].as_f64().unwrap() > 0.99);
    }

    #[test]
    fn table2_lists_five_types() {
        let (text, value) = table2(&tiny());
        assert!(text.contains("animal"));
        assert_eq!(value.as_array().unwrap().len(), 5);
    }
}
