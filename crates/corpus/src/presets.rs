//! Preset worlds for the paper's experiments.
//!
//! Each preset pins a knowledge base, a set of (type, property) domains,
//! and behavioral parameters chosen to reproduce the *shape* of the
//! corresponding evaluation: polarity bias (negative statements are much
//! rarer than positive ones for most properties — §2), occurrence bias
//! (dominant-positive entities are mentioned more), per-combination
//! parameter variation (§7.3 found agreement differs between `dangerous
//! animals`, `dangerous sports`, and `boring sports`), and long-tail
//! sparsity (most entities are never mentioned — Figure 9).

use crate::generator::{CorpusConfig, CorpusGenerator, RegionSpec};
use crate::world::{DomainParams, OpinionRule, PopularityRule, World, WorldBuilder};
use std::sync::Arc;
use surveyor_kb::seed::{
    self, ATTR_AREA_KM2, ATTR_GDP_PER_CAPITA, ATTR_POPULATION, ATTR_RELATIVE_HEIGHT_M,
};
use surveyor_kb::Property;

/// The §2 / Figure 3 empirical study: 461 Californian cities and the
/// property `big`. Opinions follow population through a soft threshold;
/// popularity follows population, producing the "big cities are mentioned
/// more" occurrence bias of Figures 3(a)/3(b).
pub fn big_cities_world(seed: u64) -> World {
    let (kb, _) = seed::california_cities(seed);
    WorldBuilder::new(Arc::new(kb), seed)
        .domain(
            "city",
            Property::adjective("big"),
            DomainParams {
                p_agree: 0.88,
                rate_pos: 18.0,
                rate_neg: 2.0,
                opinions: OpinionRule::AttributeThreshold {
                    attr: ATTR_POPULATION.to_owned(),
                    threshold: 300_000.0,
                    softness: 0.8,
                },
                popularity: PopularityRule::ByAttribute {
                    attr: ATTR_POPULATION.to_owned(),
                    exponent: 0.55,
                },
                aspect_noise: 0.3,
                part_of_noise: 0.15,
                filler_noise: 0.5,
                extended_verb_share: 0.12,
                double_negation_share: 0.02,
                plural_subjects: false,
                crowd_agreement: None,
                author_jitter: 0.0,
                spurious_positive_rate: 0.4,
                spurious_negative_rate: 0.0,
            },
        )
        .build()
}

/// Per-combination behavioral profile for the Table 2 matrix. Columns:
/// `(property, pA*, rate_pos, rate_neg, positive_share, crowd_agreement)`.
///
/// The profiles encode the §7.3 observations: agreement is higher for
/// `dangerous animals` (0.93) than `dangerous sports` (0.85) than `boring
/// sports` (0.78); `cute` has a strong positive polarity bias (people
/// rarely write "X is not cute"); `calm`/`quiet` lean the other way.
type Profile = (&'static str, f64, f64, f64, f64, f64);

const ANIMAL_PROFILES: [Profile; 5] = [
    ("dangerous", 0.95, 11.8, 0.21, 0.17, 0.93),
    ("cute", 0.95, 15.5, 0.21, 0.22, 0.90),
    ("big", 0.95, 9.7, 0.21, 0.12, 0.88),
    ("friendly", 0.95, 8.9, 0.21, 0.17, 0.86),
    ("deadly", 0.95, 7.7, 0.16, 0.12, 0.92),
];

const CELEBRITY_PROFILES: [Profile; 5] = [
    ("cool", 0.94, 11.8, 0.21, 0.22, 0.82),
    ("crazy", 0.93, 6.7, 0.21, 0.12, 0.80),
    ("pretty", 0.95, 12.6, 0.21, 0.22, 0.85),
    // Inverted polarity bias and deliberately sparse: this combination
    // falls below the occurrence threshold.
    ("quiet", 0.84, 2.6, 3.37, 0.20, 0.78),
    ("young", 0.95, 7.7, 0.21, 0.12, 0.88),
];

const CITY_PROFILES: [Profile; 5] = [
    ("big", 0.95, 13.7, 0.28, 0.12, 0.90),
    // "calm"-like properties invert the bias: people complain more than
    // they praise (the paper's "safe cities" observation).
    ("calm", 0.86, 3.1, 4.06, 0.25, 0.80),
    ("cheap", 0.88, 4.6, 2.70, 0.20, 0.84),
    ("hectic", 0.93, 6.2, 0.21, 0.12, 0.81),
    ("multicultural", 0.95, 8.2, 0.21, 0.22, 0.87),
];

const PROFESSION_PROFILES: [Profile; 5] = [
    ("dangerous", 0.95, 8.9, 0.21, 0.12, 0.90),
    ("exciting", 0.94, 9.7, 0.23, 0.22, 0.82),
    ("rare", 0.95, 4.1, 0.16, 0.12, 0.85),
    ("solid", 0.92, 4.9, 0.21, 0.22, 0.79),
    ("vital", 0.95, 6.7, 0.16, 0.27, 0.88),
];

const SPORT_PROFILES: [Profile; 5] = [
    ("addictive", 0.95, 8.2, 0.21, 0.22, 0.83),
    ("boring", 0.84, 3.1, 3.60, 0.15, 0.78),
    ("dangerous", 0.95, 9.7, 0.28, 0.17, 0.85),
    ("fast", 0.95, 8.9, 0.21, 0.22, 0.87),
    ("popular", 0.95, 12.6, 0.28, 0.27, 0.89),
];

/// Curated opinions for the most legible combinations, so Figure 10 shows
/// the paper's pattern (kittens and puppies near 20 votes, spiders and
/// scorpions near 0). Undesignated and background entities draw from the
/// profile's share.
fn designated(type_name: &str, property: &str) -> Option<Vec<String>> {
    let names: &[&str] = match (type_name, property) {
        ("animal", "cute") => &["Kitten", "Puppy", "Pony", "Koala"],
        ("animal", "dangerous") => &["Tiger", "Lion", "Alligator", "White shark"],
        ("animal", "deadly") => &["White shark", "Scorpion", "Alligator"],
        ("animal", "big") => &["Moose", "Camel", "Grizzly bear", "Lion"],
        ("animal", "friendly") => &["Puppy", "Pony", "Kitten"],
        ("city", "big") => &["Tokyo", "Mumbai", "Shanghai", "Cairo", "Lagos"],
        ("sport", "dangerous") => &["Boxing", "Skydiving", "Motocross"],
        ("sport", "fast") => &["Motocross", "Hockey", "Table tennis"],
        ("sport", "popular") => &["Soccer", "Cricket", "Hockey"],
        ("profession", "dangerous") => &["Firefighter", "Stuntman", "Miner"],
        _ => return None,
    };
    Some(names.iter().map(|n| (*n).to_owned()).collect())
}

fn profile_params(profile: &Profile, plural: bool, sparse: bool) -> DomainParams {
    let (_, pa, rate_pos, rate_neg, share, crowd) = *profile;
    let sparsity = if sparse { 0.06 } else { 1.0 };
    DomainParams {
        p_agree: pa,
        rate_pos: rate_pos * sparsity,
        rate_neg: rate_neg * sparsity,
        opinions: OpinionRule::RandomShare(share),
        popularity: PopularityRule::LogNormal { sigma: 1.3 },
        aspect_noise: 0.25,
        part_of_noise: 1.7,
        filler_noise: 0.15,
        extended_verb_share: 0.15,
        double_negation_share: 0.02,
        plural_subjects: plural,
        crowd_agreement: Some(crowd),
        author_jitter: 0.08,
        // Inverted-bias properties attract drive-by complaints; everything
        // else attracts contextual positive usages. Sparse combinations
        // scale the whole channel down.
        spurious_positive_rate: sparsity
            * if rate_neg > rate_pos * 0.5 {
                0.05
            } else {
                0.05 * rate_pos
            },
        spurious_negative_rate: sparsity
            * if rate_neg > rate_pos * 0.5 {
                0.06 * rate_neg
            } else {
                0.0
            },
    }
}

/// The evaluation world behind Table 3 and Figures 10–12: the five Table 2
/// types × five properties, 20 entities each.
///
/// One combination (`quiet celebrities`) is deliberately sparse so it
/// falls below the ρ = 100 occurrence threshold, reproducing Surveyor's
/// slightly-below-1 coverage in Table 3.
pub fn table2_world(seed: u64) -> World {
    table2_world_sized(seed, 480)
}

/// [`table2_world`] with a configurable number of background entities per
/// type (0 restricts the world to the 100 curated evaluation entities).
pub fn table2_world_sized(seed: u64, background_per_type: usize) -> World {
    let kb = Arc::new(seed::table2_kb_extended(background_per_type, seed));
    let mut builder = WorldBuilder::new(kb, seed);
    let groups: [(&str, bool, &[Profile; 5]); 5] = [
        ("animal", true, &ANIMAL_PROFILES),
        ("celebrity", false, &CELEBRITY_PROFILES),
        ("city", false, &CITY_PROFILES),
        ("profession", true, &PROFESSION_PROFILES),
        ("sport", false, &SPORT_PROFILES),
    ];
    for (type_name, plural, profiles) in groups {
        for profile in profiles.iter() {
            let sparse = type_name == "celebrity" && profile.0 == "quiet";
            let mut params = profile_params(profile, plural, sparse);
            if let Some(positive) = designated(type_name, profile.0) {
                // Background entities keep the profile share; curated ones
                // are pinned.
                params.opinions = OpinionRule::DesignatedNames {
                    positive,
                    background_share: (profile.4 * 0.6).max(0.05),
                };
            }
            builder = builder.domain(type_name, Property::adjective(profile.0), params);
        }
    }
    builder.build()
}

fn appendix_a_params(
    attr: &str,
    threshold: f64,
    softness: f64,
    rate_pos: f64,
    rate_neg: f64,
) -> DomainParams {
    DomainParams {
        p_agree: 0.88,
        rate_pos,
        rate_neg,
        opinions: OpinionRule::AttributeThreshold {
            attr: attr.to_owned(),
            threshold,
            softness,
        },
        popularity: PopularityRule::ByAttribute {
            attr: attr.to_owned(),
            exponent: 0.5,
        },
        aspect_noise: 0.2,
        part_of_noise: 0.1,
        filler_noise: 0.4,
        extended_verb_share: 0.12,
        double_negation_share: 0.02,
        plural_subjects: false,
        crowd_agreement: None,
        author_jitter: 0.0,
        spurious_positive_rate: 0.3,
        spurious_negative_rate: 0.0,
    }
}

/// Appendix A: `wealthy country` with GDP-per-capita ground truth.
pub fn wealthy_countries_world(seed: u64) -> World {
    let (kb, _) = seed::wealthy_countries();
    WorldBuilder::new(Arc::new(kb), seed)
        .domain(
            "country",
            Property::adjective("wealthy"),
            appendix_a_params(ATTR_GDP_PER_CAPITA, 30_000.0, 0.6, 12.0, 1.8),
        )
        .build()
}

/// Appendix A: `big lake` over Swiss lakes — deliberately sparse: "as our
/// knowledge base is large, it contains many entities for which no
/// statements can be collected".
pub fn big_lakes_world(seed: u64) -> World {
    let (kb, _) = seed::swiss_lakes();
    WorldBuilder::new(Arc::new(kb), seed)
        .domain(
            "lake",
            Property::adjective("big"),
            appendix_a_params(ATTR_AREA_KM2, 60.0, 0.5, 6.0, 0.9),
        )
        .build()
}

/// Appendix A: `high mountain` over British mountains, sparse like lakes.
pub fn high_mountains_world(seed: u64) -> World {
    let (kb, _) = seed::british_mountains();
    WorldBuilder::new(Arc::new(kb), seed)
        .domain(
            "mountain",
            Property::adjective("high"),
            appendix_a_params(ATTR_RELATIVE_HEIGHT_M, 800.0, 0.22, 6.0, 0.9),
        )
        .build()
}

/// The Appendix D long-tail world: `num_types` obscure domains ×
/// `props_per_type` properties with very low mention rates — most entities
/// are never written about, collapsing the count-based baselines' coverage
/// (Table 5: majority-vote coverage 0.077).
pub fn long_tail_world(
    num_types: usize,
    entities_per_type: usize,
    props_per_type: usize,
    seed: u64,
) -> World {
    let kb = Arc::new(seed::long_tail_kb(num_types, entities_per_type, seed));
    let mut builder = WorldBuilder::new(kb.clone(), seed);
    let pool = seed::ADJECTIVE_POOL;
    for (ti, t) in kb.types().iter().enumerate() {
        let type_name = t.name().to_owned();
        for pi in 0..props_per_type {
            let adjective = pool[(ti * 7 + pi * 3) % pool.len()];
            // Vary parameters deterministically per combination; rates are
            // low and popularity extremely skewed.
            let pa = 0.78 + 0.02 * ((ti + pi) % 9) as f64;
            let rate_pos = 0.25 + 0.12 * ((ti * 5 + pi) % 7) as f64;
            let rate_neg = 0.05 + 0.04 * ((ti + pi * 2) % 5) as f64;
            builder = builder.domain(
                &type_name,
                Property::adjective(adjective),
                DomainParams {
                    p_agree: pa,
                    rate_pos,
                    rate_neg,
                    opinions: OpinionRule::RandomShare(0.15 + 0.04 * ((pi % 5) as f64)),
                    popularity: PopularityRule::ZipfByIndex { exponent: 1.1 },
                    aspect_noise: 0.02,
                    part_of_noise: 0.0,
                    filler_noise: 0.05,
                    extended_verb_share: 0.15,
                    double_negation_share: 0.01,
                    plural_subjects: false,
                    crowd_agreement: None,
                    author_jitter: 0.15,
                    spurious_positive_rate: 0.02,
                    spurious_negative_rate: 0.0,
                },
            );
        }
    }
    builder.build()
}

/// A two-region world for the region-specific mode of §2: the same
/// entities, but region `"east"` disagrees with region `"west"` on a
/// third of them.
pub fn regional_generator(seed: u64) -> CorpusGenerator {
    let world = table2_world(seed);
    let config = CorpusConfig {
        regions: vec![
            RegionSpec {
                name: "west".to_owned(),
                weight: 1.0,
                opinion_flip: 0.0,
            },
            RegionSpec {
                name: "east".to_owned(),
                weight: 1.0,
                opinion_flip: 0.33,
            },
        ],
        ..CorpusConfig::default()
    };
    CorpusGenerator::new(world, config)
}

/// A named delta-ingestion recipe for incremental mining.
///
/// The generator's shard contents are fixed by `(world seed, num_shards)`:
/// shard `i` of an `n`-shard world is the same documents no matter how many
/// shards are actually realized. A delta preset therefore describes one
/// world split into a *base* prefix and a *delta* suffix — a base snapshot
/// mined from shards `[0, base_shards)` can later ingest shards
/// `[base_shards, num_shards)` and must land byte-identical to mining all
/// `num_shards` from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaPreset {
    /// The name `surveyor update --delta-preset` looks up.
    pub name: &'static str,
    /// The world preset the base snapshot was mined from (`cities`,
    /// `table2`, or `longtail` — the CLI's `--preset` vocabulary).
    pub world: &'static str,
    /// Total shard count of the world. The base snapshot must have been
    /// mined with `--shards` equal to this.
    pub num_shards: usize,
    /// Shards `[0, base_shards)` belong to the base snapshot; the delta is
    /// `[base_shards, num_shards)`.
    pub base_shards: usize,
}

impl DeltaPreset {
    /// Shard indexes the delta ingests, as a half-open range.
    pub fn delta_range(&self) -> std::ops::Range<usize> {
        self.base_shards..self.num_shards
    }
}

/// Every delta preset the CLI and bench harness know about. Sorted by
/// name; each entry keeps `0 < base_shards < num_shards` so both the base
/// and the delta are non-empty.
pub const DELTA_PRESETS: &[DeltaPreset] = &[
    DeltaPreset {
        name: "cities-tail",
        world: "cities",
        num_shards: 4,
        base_shards: 3,
    },
    DeltaPreset {
        name: "longtail-tail",
        world: "longtail",
        num_shards: 8,
        base_shards: 7,
    },
    DeltaPreset {
        name: "table2-half",
        world: "table2",
        num_shards: 8,
        base_shards: 4,
    },
    DeltaPreset {
        name: "table2-tail",
        world: "table2",
        num_shards: 8,
        base_shards: 6,
    },
];

/// Look up a delta preset by name.
pub fn delta_preset(name: &str) -> Option<&'static DeltaPreset> {
    DELTA_PRESETS.iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_cities_world_shape() {
        let w = big_cities_world(7);
        assert_eq!(w.domains().len(), 1);
        assert_eq!(w.kb().len(), 461);
        let d = &w.domains()[0];
        let big = d.opinions.iter().filter(|&&o| o).count();
        // Only a minority of Californian cities are big.
        assert!(big > 5 && big < 120, "big = {big}");
    }

    #[test]
    fn table2_world_has_25_domains() {
        let w = table2_world(7);
        assert_eq!(w.domains().len(), 25);
        // Parameter variation across combinations is present.
        let pas: std::collections::BTreeSet<u64> = w
            .domains()
            .iter()
            .map(|d| (d.params.p_agree * 100.0) as u64)
            .collect();
        assert!(pas.len() > 5, "expected varied agreement, got {pas:?}");
    }

    #[test]
    fn table2_polarity_bias_is_property_specific() {
        let w = table2_world(7);
        let cute = w
            .domains()
            .iter()
            .find(|d| d.property.head() == "cute")
            .unwrap();
        let calm = w
            .domains()
            .iter()
            .find(|d| d.property.head() == "calm")
            .unwrap();
        let cute_ratio = cute.params.rate_pos / cute.params.rate_neg;
        let calm_ratio = calm.params.rate_pos / calm.params.rate_neg;
        assert!(cute_ratio > 4.0 * calm_ratio);
    }

    #[test]
    fn appendix_a_worlds_build() {
        assert_eq!(wealthy_countries_world(3).domains().len(), 1);
        assert_eq!(big_lakes_world(3).domains().len(), 1);
        assert_eq!(high_mountains_world(3).domains().len(), 1);
    }

    #[test]
    fn long_tail_world_scale() {
        let w = long_tail_world(10, 20, 4, 5);
        assert_eq!(w.domains().len(), 40);
        assert_eq!(w.kb().len(), 200);
        // Rates are genuinely low.
        assert!(w.domains().iter().all(|d| d.params.rate_pos < 1.5));
    }

    #[test]
    fn delta_presets_are_well_formed() {
        assert!(!DELTA_PRESETS.is_empty());
        for p in DELTA_PRESETS {
            assert!(p.base_shards > 0, "{}: empty base", p.name);
            assert!(p.base_shards < p.num_shards, "{}: empty delta", p.name);
            assert_eq!(delta_preset(p.name), Some(p));
        }
        // Sorted and unique by name, so the CLI's error message can list
        // them in a stable order.
        let names: Vec<&str> = DELTA_PRESETS.iter().map(|p| p.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted);
        assert_eq!(delta_preset("no-such-delta"), None);
    }

    #[test]
    fn regional_generator_has_two_regions() {
        let g = regional_generator(5);
        assert_eq!(g.config().regions.len(), 2);
        // Some opinions differ between regions.
        let diffs: usize = (0..g.world().domains().len())
            .map(|di| {
                (0..g.world().domains()[di].opinions.len())
                    .filter(|&ei| g.region_opinion(0, di, ei) != g.region_opinion(1, di, ei))
                    .count()
            })
            .sum();
        assert!(diffs > 50, "diffs = {diffs}");
    }
}
