//! EM golden: one FNV-64 digest per preset world over every fitted
//! (type, property) group of a seed-2015 mine — the fitted parameters,
//! iteration count, convergence reason, `Q'` trace, mixture
//! log-likelihood and every entity's decision probability, all as raw
//! bits. Any change to EM or decision arithmetic that moves a single ulp
//! anywhere fails here; a deliberate change (say, a different summation
//! order) regenerates the digests in the same change that makes it.
//!
//! To regenerate: run `cargo test --test em_golden -- --nocapture` and
//! copy the printed digests into `GOLDEN`.

use surveyor::prelude::*;
use surveyor::wire::Fnv64;
use surveyor::{CorpusSource, DomainResult};
use surveyor_corpus::{presets, World};

const SEED: u64 = 2015;

/// `(preset, digest)` — the digests are of the model's arithmetic, not of
/// any file format.
const GOLDEN: [(&str, u64); 3] = [
    ("cities", 0xd64a53b6c15e0ef0),   // 1 group
    ("table2", 0x2c2c616af45c30fe),   // 24 groups
    ("longtail", 0x339b63860f22d4f6), // 222 groups
];

/// The preset world and its ρ: the paper's 100, and for the sparse
/// long-tail world the 25 its benchmark workload mines at.
fn world(preset: &str) -> (World, u64) {
    match preset {
        "cities" => (presets::big_cities_world(SEED), 100),
        "table2" => (presets::table2_world(SEED), 100),
        "longtail" => (presets::long_tail_world(40, 120, 8, SEED), 25),
        other => panic!("unknown preset {other}"),
    }
}

fn mine(preset: &str) -> Vec<DomainResult> {
    let (world, rho) = world(preset);
    let generator = CorpusGenerator::new(
        world.clone(),
        CorpusConfig {
            num_shards: 8,
            ..CorpusConfig::default()
        },
    );
    let surveyor = Surveyor::new(
        world.kb().clone(),
        SurveyorConfig {
            rho,
            threads: 2,
            ..SurveyorConfig::default()
        },
    );
    surveyor.run(&CorpusSource::new(&generator)).results
}

fn digest(results: &[DomainResult]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(results.len() as u64);
    for result in results {
        let fit = &result.fit;
        h.write_u64(result.key.type_id.0 as u64);
        h.write(result.key.property.resolve().to_string().as_bytes());
        for value in [fit.params.p_agree, fit.params.rate_pos, fit.params.rate_neg] {
            h.write_u64(value.to_bits());
        }
        h.write_u64(fit.iterations as u64);
        h.write_u64(fit.converged.code() as u64);
        h.write_u64(fit.q_trace.len() as u64);
        for q in &fit.q_trace {
            h.write_u64(q.to_bits());
        }
        h.write_u64(fit.log_likelihood.to_bits());
        h.write_u64(result.decisions.len() as u64);
        for (entity, decision) in &result.decisions {
            h.write_u64(entity.0 as u64);
            h.write_u64(decision.probability.map_or(u64::MAX, f64::to_bits));
        }
    }
    h.finish()
}

#[test]
fn every_fitted_group_of_the_preset_worlds_is_bit_for_bit_the_golden() {
    let mut failures = Vec::new();
    for (preset, want) in GOLDEN {
        let results = mine(preset);
        assert!(!results.is_empty(), "{preset}: no group was modelled");
        let got = digest(&results);
        println!("(\"{preset}\", {got:#018x}), // {} groups", results.len());
        if got != want {
            failures.push(format!("{preset}: {got:#018x} != golden {want:#018x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "EM golden moved:\n{}",
        failures.join("\n")
    );
}
