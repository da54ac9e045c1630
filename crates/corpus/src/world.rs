//! Ground-truth worlds: who actually holds which opinion, and how authors
//! behave (the generative side of paper Figure 7).

use std::sync::Arc;
use surveyor_kb::{KnowledgeBase, Property, TypeId};
use surveyor_prob::{Rng, SeedStream};

/// How dominant opinions are assigned to the entities of a domain.
#[derive(Debug, Clone, PartialEq)]
pub enum OpinionRule {
    /// Independent Bernoulli with the given positive share.
    RandomShare(f64),
    /// Sigmoid over the log of an objective attribute: entities above the
    /// threshold are positive with high probability ("big" correlates with
    /// population, §2). `softness` is the logistic scale in log-space;
    /// smaller is sharper. Entities missing the attribute are negative.
    AttributeThreshold {
        /// Attribute key (e.g. `"population"`).
        attr: String,
        /// Threshold value at which the probability is ½.
        threshold: f64,
        /// Logistic softness in natural-log units.
        softness: f64,
    },
    /// Explicitly designated positives by canonical entity name; everyone
    /// else is positive with `background_share`. Used to plant plausible
    /// opinions for curated entities (kittens are cute, spiders are not —
    /// Figure 10).
    DesignatedNames {
        /// Canonical names of positive entities.
        positive: Vec<String>,
        /// Positive probability for undesignated entities.
        background_share: f64,
    },
}

/// How per-entity popularity multipliers are assigned (scales all statement
/// rates; models that some entities are simply written about more).
#[derive(Debug, Clone, PartialEq)]
pub enum PopularityRule {
    /// Every entity has multiplier 1 — the world matches the paper's model
    /// exactly.
    Uniform,
    /// Multiplier proportional to `(attr / median)^exponent`, clamped to
    /// `[0.05, 20]`: popular cities are big cities (Figure 3a).
    ByAttribute {
        /// Attribute key.
        attr: String,
        /// Power-law exponent.
        exponent: f64,
    },
    /// Zipf weight by entity index within the type (rank 1 = first entity),
    /// normalized to mean 1 — the long-tail skew of Figure 9.
    ZipfByIndex {
        /// Zipf exponent.
        exponent: f64,
    },
    /// Zipf weights assigned over a deterministic random permutation of
    /// the entities, normalized to mean 1. Unlike [`Self::ZipfByIndex`],
    /// popularity is uncorrelated with insertion order, so curated
    /// evaluation entities span the whole popularity spectrum.
    ZipfShuffled {
        /// Zipf exponent.
        exponent: f64,
    },
    /// Independent log-normal multipliers with mean 1
    /// (`exp(N(−σ²/2, σ²))`). Bounded dispersion: entities vary in how
    /// much is written about them without the extreme Zipf head that
    /// would let popularity masquerade as an opinion class.
    LogNormal {
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
}

/// Behavioral parameters of one (type, property) domain — the ground-truth
/// counterparts of the model parameters `⟨pA, np+S, np-S⟩`.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainParams {
    /// True author-agreement probability `pA*`.
    pub p_agree: f64,
    /// Expected positive statements for a positive-opinion author pool at
    /// popularity 1 (`np+S*`).
    pub rate_pos: f64,
    /// Expected negative statements analog (`np-S*`).
    pub rate_neg: f64,
    /// Opinion assignment rule.
    pub opinions: OpinionRule,
    /// Popularity multipliers.
    pub popularity: PopularityRule,
    /// Expected non-intrinsic "aspect" distractor sentences per entity
    /// ("X is bad for parking") — extracted by unchecked pattern versions,
    /// filtered by V3/V4.
    pub aspect_noise: f64,
    /// Expected part-of distractor sentences per entity ("southern X is
    /// warm") — extracted wrongly by V1/V2.
    pub part_of_noise: f64,
    /// Expected neutral filler sentences per entity (no property claim).
    pub filler_noise: f64,
    /// Fraction of realized statements that use constructions only the
    /// extended verb class recognizes ("I find X cute", "X seems big");
    /// inflates V1/V2 counts relative to V4 (Table 4).
    pub extended_verb_share: f64,
    /// Fraction of statements realized with a double negation (Figure 5).
    pub double_negation_share: f64,
    /// Whether plural-subject realizations are natural for the type
    /// ("Kittens are cute"); false for named places.
    pub plural_subjects: bool,
    /// Agreement probability of *crowd workers* judging this combination
    /// (§7.3). Defaults to the author agreement `p_agree` when `None`;
    /// the two populations differ in practice — Web authors are more
    /// contrarian than survey takers.
    pub crowd_agreement: Option<f64>,
    /// Half-width of a per-entity skewed jitter on the author agreement,
    /// `pa_i = clamp(pA − jitter·u², 0.5, 1)`: a minority of entities is
    /// heavily contrarian on the Web even when crowd workers are
    /// unanimous.
    pub author_jitter: f64,
    /// Flat per-entity rate of *spurious positive* statements added
    /// regardless of opinion: contextual or relative usages ("Reykjavik is
    /// a big city — for Iceland") that the extractor correctly reads as
    /// positive claims. This channel is what collapses count-based
    /// majority voting in the paper (its precision stays low even at
    /// perfect worker agreement, Figure 12) while the probabilistic model
    /// absorbs it into `λ+-`.
    pub spurious_positive_rate: f64,
    /// The symmetric channel for inverted-bias properties (drive-by
    /// complaints: "X is not calm" about perfectly calm towns).
    pub spurious_negative_rate: f64,
}

impl Default for DomainParams {
    fn default() -> Self {
        Self {
            p_agree: 0.9,
            rate_pos: 30.0,
            rate_neg: 3.0,
            opinions: OpinionRule::RandomShare(0.4),
            popularity: PopularityRule::Uniform,
            aspect_noise: 0.5,
            part_of_noise: 0.0,
            filler_noise: 1.0,
            extended_verb_share: 0.15,
            double_negation_share: 0.02,
            plural_subjects: false,
            crowd_agreement: None,
            author_jitter: 0.0,
            spurious_positive_rate: 0.0,
            spurious_negative_rate: 0.0,
        }
    }
}

impl DomainParams {
    fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.p_agree), "p_agree out of range");
        assert!(
            self.rate_pos >= 0.0 && self.rate_neg >= 0.0,
            "negative rates"
        );
        assert!(
            (0.0..=1.0).contains(&self.extended_verb_share),
            "extended_verb_share out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.double_negation_share),
            "double_negation_share out of range"
        );
        if let PopularityRule::ZipfByIndex { exponent }
        | PopularityRule::ZipfShuffled { exponent } = self.popularity
        {
            assert!(
                exponent.is_finite() && exponent > 0.0,
                "Zipf exponent must be positive"
            );
        }
    }
}

/// A fully instantiated domain: entities with planted opinions and
/// popularity multipliers.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSpec {
    /// The entity type.
    pub type_id: TypeId,
    /// The subjective property.
    pub property: Property,
    /// Behavioral parameters.
    pub params: DomainParams,
    /// Per-entity dominant opinion, parallel to
    /// `kb.entities_of_type(type_id)`.
    pub opinions: Vec<bool>,
    /// Per-entity popularity multiplier, same order.
    pub popularity: Vec<f64>,
    /// Per-entity author agreement (jittered around `params.p_agree`).
    pub agreements: Vec<f64>,
}

impl DomainSpec {
    /// Expected `(positive, negative)` statement rates for entity index
    /// `i` of the type — the Poisson rates the generator samples from.
    pub fn rates(&self, i: usize) -> (f64, f64) {
        self.rates_for(i, self.opinions[i])
    }

    /// Like [`Self::rates`], with an explicit opinion (used by the
    /// generator's region-specific opinion overrides).
    pub fn rates_for(&self, i: usize, opinion: bool) -> (f64, f64) {
        let pa = self.agreements[i];
        let pop = self.popularity[i];
        let (base_pos, base_neg) = if opinion {
            (pa * self.params.rate_pos, (1.0 - pa) * self.params.rate_neg)
        } else {
            ((1.0 - pa) * self.params.rate_pos, pa * self.params.rate_neg)
        };
        // Spurious statements are popularity-independent: contextual
        // usages ("big for Iceland") concern obscure entities as much as
        // famous ones, so the channel is additive after the popularity
        // multiplier.
        (
            pop * base_pos + self.params.spurious_positive_rate,
            pop * base_neg + self.params.spurious_negative_rate,
        )
    }
}

/// A ground-truth world over a knowledge base.
#[derive(Debug, Clone)]
pub struct World {
    kb: Arc<KnowledgeBase>,
    domains: Vec<DomainSpec>,
    seed: u64,
}

impl World {
    /// The knowledge base.
    pub fn kb(&self) -> &Arc<KnowledgeBase> {
        &self.kb
    }

    /// All domains.
    pub fn domains(&self) -> &[DomainSpec] {
        &self.domains
    }

    /// The master seed the world was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Looks up a domain by type and property.
    pub fn domain(&self, type_id: TypeId, property: &Property) -> Option<&DomainSpec> {
        self.domains
            .iter()
            .find(|d| d.type_id == type_id && &d.property == property)
    }
}

/// Builder for [`World`].
#[derive(Debug)]
pub struct WorldBuilder {
    kb: Arc<KnowledgeBase>,
    domains: Vec<DomainSpec>,
    seed: u64,
}

impl WorldBuilder {
    /// Starts a world over a knowledge base with a master seed.
    pub fn new(kb: Arc<KnowledgeBase>, seed: u64) -> Self {
        Self {
            kb,
            domains: Vec::new(),
            seed,
        }
    }

    /// Adds a domain for `(type, property)` with the given behavioral
    /// parameters; opinions and popularity are instantiated immediately
    /// and deterministically from the world seed.
    ///
    /// # Panics
    /// Panics if the type name is unknown or parameters are invalid.
    pub fn domain(mut self, type_name: &str, property: Property, params: DomainParams) -> Self {
        params.validate();
        #[expect(
            clippy::panic,
            reason = "type names come from the same WorldConfig that registered them"
        )]
        let type_id = self
            .kb
            .type_by_name(type_name)
            .unwrap_or_else(|| panic!("unknown type: {type_name}"));
        let entities = self.kb.entities_of_type(type_id);
        let stream = SeedStream::new(self.seed)
            .child("domain")
            .child(type_name)
            .child(&property.to_string());
        let mut rng = Rng::new(stream.seed());

        let opinions: Vec<bool> = entities
            .iter()
            .map(|&e| match &params.opinions {
                OpinionRule::RandomShare(share) => rng.chance((*share).clamp(0.0, 1.0)),
                OpinionRule::AttributeThreshold {
                    attr,
                    threshold,
                    softness,
                } => {
                    let Some(value) = self.kb.entity(e).attribute(attr) else {
                        return false;
                    };
                    let z =
                        (value.max(f64::MIN_POSITIVE).ln() - threshold.ln()) / softness.max(1e-6);
                    let p = 1.0 / (1.0 + (-z).exp());
                    rng.chance(p.clamp(0.0, 1.0))
                }
                OpinionRule::DesignatedNames {
                    positive,
                    background_share,
                } => {
                    let name = self.kb.entity(e).name();
                    if positive.iter().any(|p| p == name) {
                        true
                    } else {
                        rng.chance(background_share.clamp(0.0, 1.0))
                    }
                }
            })
            .collect();

        let popularity: Vec<f64> = match &params.popularity {
            PopularityRule::Uniform => vec![1.0; entities.len()],
            PopularityRule::ByAttribute { attr, exponent } => {
                let values: Vec<f64> = entities
                    .iter()
                    .map(|&e| self.kb.entity(e).attribute(attr).unwrap_or(0.0).max(1e-9))
                    .collect();
                let mut sorted = values.clone();
                sorted.sort_by(|a, b| a.total_cmp(b));
                // An empty type has no median and no popularity.
                match sorted.get(sorted.len() / 2) {
                    None => Vec::new(),
                    Some(median) => values
                        .iter()
                        .map(|v| (v / median).powf(*exponent).clamp(0.05, 20.0))
                        .collect(),
                }
            }
            PopularityRule::ZipfByIndex { exponent } => {
                zipf_mean_one(1..=entities.len(), *exponent)
            }
            PopularityRule::LogNormal { sigma } => {
                (0..entities.len())
                    .map(|_| {
                        // Box-Muller from two uniforms.
                        let u1 = rng.uniform(1e-12, 1.0);
                        let u2 = rng.unit();
                        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                        // Clamp the head: a single mega-popular entity
                        // would otherwise dominate a small type's counts.
                        (z * sigma - sigma * sigma / 2.0).exp().clamp(0.02, 8.0)
                    })
                    .collect()
            }
            PopularityRule::ZipfShuffled { exponent } => {
                let mut ranks: Vec<usize> = (1..=entities.len()).collect();
                rng.shuffle(&mut ranks);
                zipf_mean_one(ranks.into_iter(), *exponent)
            }
        };

        let agreements: Vec<f64> = (0..entities.len())
            .map(|_| {
                if params.author_jitter > 0.0 {
                    // Skewed draw (j·u²): most entities stay near the
                    // domain agreement; a minority is heavily contrarian.
                    let u = rng.unit();
                    (params.p_agree - params.author_jitter * u * u).clamp(0.5, 1.0)
                } else {
                    params.p_agree
                }
            })
            .collect();
        self.domains.push(DomainSpec {
            type_id,
            property,
            params,
            opinions,
            popularity,
            agreements,
        });
        self
    }

    /// Finalizes the world.
    pub fn build(self) -> World {
        World {
            kb: self.kb,
            domains: self.domains,
            seed: self.seed,
        }
    }
}

/// Zipf weights `r^−s` of `ranks`, normalized to mean 1 (empty for an
/// empty type).
fn zipf_mean_one(ranks: impl Iterator<Item = usize>, exponent: f64) -> Vec<f64> {
    let weights: Vec<f64> = ranks.map(|r| (r as f64).powf(-exponent)).collect();
    let mean = weights.iter().sum::<f64>() / weights.len().max(1) as f64;
    weights.iter().map(|w| w / mean).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use surveyor_kb::seed::{california_cities, ATTR_POPULATION};
    use surveyor_kb::KnowledgeBaseBuilder;

    fn small_kb() -> Arc<KnowledgeBase> {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        for name in ["Kitten", "Tiger", "Spider", "Puppy"] {
            b.add_entity(name, animal).finish();
        }
        Arc::new(b.build())
    }

    #[test]
    fn domain_instantiation_is_deterministic() {
        let kb = small_kb();
        let w1 = WorldBuilder::new(kb.clone(), 5)
            .domain(
                "animal",
                Property::adjective("cute"),
                DomainParams::default(),
            )
            .build();
        let w2 = WorldBuilder::new(kb, 5)
            .domain(
                "animal",
                Property::adjective("cute"),
                DomainParams::default(),
            )
            .build();
        assert_eq!(w1.domains()[0].opinions, w2.domains()[0].opinions);
    }

    #[test]
    fn different_seeds_differ() {
        let kb = small_kb();
        // With only 4 entities collisions are likely; use many seeds and
        // require at least one difference.
        let base = WorldBuilder::new(kb.clone(), 0)
            .domain(
                "animal",
                Property::adjective("cute"),
                DomainParams::default(),
            )
            .build()
            .domains()[0]
            .opinions
            .clone();
        let any_different = (1..20).any(|s| {
            WorldBuilder::new(kb.clone(), s)
                .domain(
                    "animal",
                    Property::adjective("cute"),
                    DomainParams::default(),
                )
                .build()
                .domains()[0]
                .opinions
                != base
        });
        assert!(any_different);
    }

    #[test]
    fn attribute_threshold_respects_population() {
        let (kb, _) = california_cities(3);
        let kb = Arc::new(kb);
        let params = DomainParams {
            opinions: OpinionRule::AttributeThreshold {
                attr: ATTR_POPULATION.to_owned(),
                threshold: 250_000.0,
                softness: 0.5,
            },
            ..DomainParams::default()
        };
        let world = WorldBuilder::new(kb.clone(), 9)
            .domain("city", Property::adjective("big"), params)
            .build();
        let domain = &world.domains()[0];
        let entities = kb.entities_of_type(domain.type_id);
        // Los Angeles (3.9M) must be big; a sub-1000 town must not be.
        let la = entities
            .iter()
            .position(|&e| kb.entity(e).name() == "Los Angeles")
            .unwrap();
        assert!(domain.opinions[la]);
        let small_idx = entities
            .iter()
            .position(|&e| kb.entity(e).attribute(ATTR_POPULATION).unwrap() < 1_000.0)
            .unwrap();
        assert!(!domain.opinions[small_idx]);
        // And the big share is small: most Californian cities are not big.
        let big_share =
            domain.opinions.iter().filter(|&&o| o).count() as f64 / domain.opinions.len() as f64;
        assert!(big_share < 0.3, "big share {big_share}");
    }

    #[test]
    fn rates_encode_agreement_and_bias() {
        let kb = small_kb();
        let params = DomainParams {
            p_agree: 0.9,
            rate_pos: 100.0,
            rate_neg: 5.0,
            opinions: OpinionRule::RandomShare(1.0),
            ..DomainParams::default()
        };
        let world = WorldBuilder::new(kb, 1)
            .domain("animal", Property::adjective("cute"), params)
            .build();
        let d = &world.domains()[0];
        assert!(d.opinions.iter().all(|&o| o));
        let (lp, ln) = d.rates(0);
        assert!((lp - 90.0).abs() < 1e-9);
        assert!((ln - 0.5).abs() < 1e-9);
    }

    #[test]
    fn popularity_by_attribute_orders_multipliers() {
        let (kb, _) = california_cities(3);
        let kb = Arc::new(kb);
        let params = DomainParams {
            popularity: PopularityRule::ByAttribute {
                attr: ATTR_POPULATION.to_owned(),
                exponent: 0.5,
            },
            ..DomainParams::default()
        };
        let world = WorldBuilder::new(kb.clone(), 2)
            .domain("city", Property::adjective("big"), params)
            .build();
        let d = &world.domains()[0];
        let entities = kb.entities_of_type(d.type_id);
        let la = entities
            .iter()
            .position(|&e| kb.entity(e).name() == "Los Angeles")
            .unwrap();
        let tiny = entities
            .iter()
            .position(|&e| kb.entity(e).attribute(ATTR_POPULATION).unwrap() < 1_000.0)
            .unwrap();
        assert!(d.popularity[la] > d.popularity[tiny]);
    }

    #[test]
    fn zipf_popularity_has_mean_one() {
        let kb = small_kb();
        let params = DomainParams {
            popularity: PopularityRule::ZipfByIndex { exponent: 1.0 },
            ..DomainParams::default()
        };
        let world = WorldBuilder::new(kb, 2)
            .domain("animal", Property::adjective("cute"), params)
            .build();
        let pops = &world.domains()[0].popularity;
        let mean: f64 = pops.iter().sum::<f64>() / pops.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9);
        assert!(pops[0] > pops[3]);
    }

    #[test]
    fn ground_truth_lookup() {
        let kb = small_kb();
        let world = WorldBuilder::new(kb.clone(), 5)
            .domain(
                "animal",
                Property::adjective("cute"),
                DomainParams::default(),
            )
            .build();
        // A domain's planted opinions run parallel to its type's entities:
        // an entity's ground truth is the opinion at its position there.
        let d = &world.domains()[0];
        let entities = kb.entities_of_type(d.type_id);
        assert_eq!(d.opinions.len(), entities.len());
        let kitten = kb.entity_by_name("Kitten").unwrap();
        assert_eq!(entities.iter().position(|&e| e == kitten), Some(0));
    }

    #[test]
    fn an_empty_type_builds_and_generates_nothing_under_every_popularity_rule() {
        let mut b = KnowledgeBaseBuilder::new();
        b.add_type("ghost", &["ghost"], &[]);
        let kb = Arc::new(b.build());
        for popularity in [
            PopularityRule::Uniform,
            PopularityRule::ByAttribute {
                attr: ATTR_POPULATION.to_owned(),
                exponent: 0.5,
            },
            PopularityRule::ZipfByIndex { exponent: 1.1 },
            PopularityRule::ZipfShuffled { exponent: 1.1 },
            PopularityRule::LogNormal { sigma: 0.8 },
        ] {
            let params = DomainParams {
                popularity: popularity.clone(),
                ..DomainParams::default()
            };
            let world = WorldBuilder::new(kb.clone(), 3)
                .domain("ghost", Property::adjective("scary"), params)
                .build();
            assert!(world.domains()[0].popularity.is_empty(), "{popularity:?}");
            let generator = crate::CorpusGenerator::new(world, crate::CorpusConfig::default());
            for shard in 0..generator.shard_count() {
                assert!(generator.shard_text(shard).is_empty(), "{popularity:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown type")]
    fn unknown_type_panics() {
        let kb = small_kb();
        let _ = WorldBuilder::new(kb, 0).domain(
            "starship",
            Property::adjective("fast"),
            DomainParams::default(),
        );
    }
}
