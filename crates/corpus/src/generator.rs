//! Sharded document generation.
//!
//! The generator materializes any shard independently: per-entity statement
//! counts follow Poisson laws, and a Poisson variable splits across `S`
//! shards as `S` independent Poissons of rate `λ/S` — so shard `i` can be
//! generated without touching any other shard, exactly like the paper's
//! distributed snapshot processing. All randomness derives from
//! `(world seed, shard index)`, making every shard bit-reproducible.

use crate::templates::{Realizer, SentenceBuf};
use crate::world::World;
use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;
use surveyor_nlp::{annotate_with, AnnotateScratch, AnnotatedDocument, Lexicon};
use surveyor_obs::{claim_map, MetricsRegistry};
use surveyor_prob::{Poisson, Rng, SeedStream};

/// A Web region with its own author population.
///
/// "Surveyor can produce region-specific results if the input is
/// restricted to Web sites with specific domain extensions" (§2): each
/// region gets a share of the author pool, and may hold different dominant
/// opinions (each entity's opinion flips with `opinion_flip` probability,
/// deterministically per region).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSpec {
    /// Region name (e.g. `"us"`, `"cn"`).
    pub name: String,
    /// Share of the author pool (normalized across regions).
    pub weight: f64,
    /// Probability that this region's dominant opinion on an entity
    /// differs from the global one.
    pub opinion_flip: f64,
}

impl RegionSpec {
    /// A single global region covering all authors.
    pub fn global() -> Self {
        Self {
            name: "global".to_owned(),
            weight: 1.0,
            opinion_flip: 0.0,
        }
    }
}

/// Corpus shape configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// Number of independently generable shards.
    pub num_shards: usize,
    /// Author regions (defaults to one global region).
    pub regions: Vec<RegionSpec>,
}

/// Mean sentences per document (geometric distribution, min 1).
const MEAN_SENTENCES_PER_DOCUMENT: f64 = 2.0;

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            num_shards: 8,
            regions: vec![RegionSpec::global()],
        }
    }
}

/// A raw (un-annotated) generated document.
#[derive(Debug, Clone, PartialEq)]
pub struct RawDocument {
    /// Stable document id (`shard * 2^32 + sequence`).
    pub id: u64,
    /// Index into the corpus config's region list.
    pub region: u32,
    /// Document text.
    pub text: String,
}

/// Reusable per-worker generation scratch.
///
/// Holds one [`SentenceBuf`] arena per region plus the realized property
/// surface, so a worker that materializes many shards in a row
/// ([`CorpusGenerator::all_shards_text`]) pays the arena allocations once
/// and reuses them for every subsequent shard — the same discipline as
/// `AnnotateScratch` on the annotation side.
#[derive(Debug, Default)]
pub struct GenScratch {
    /// One sentence arena per region.
    regions: Vec<SentenceBuf>,
    /// The current domain's property surface ("very cute"), realized once
    /// per domain instead of once per sentence.
    property: String,
}

/// Generates the synthetic Web snapshot for a [`World`].
#[derive(Debug, Clone)]
pub struct CorpusGenerator {
    world: World,
    config: CorpusConfig,
    /// Optional metrics sink: when set, [`shard_text`] accumulates a
    /// `corpus` phase (generation wall time + documents) and
    /// `corpus.documents` / `corpus.sentences` counters.
    ///
    /// [`shard_text`]: Self::shard_text
    observer: Option<Arc<MetricsRegistry>>,
    /// `region_opinions[r]` is, per domain, the per-entity opinion vector
    /// for region `r` (flips applied deterministically).
    region_opinions: Vec<Vec<Vec<bool>>>,
    /// `cell_laws[d][e · regions + r]` holds the five per-shard count laws
    /// of entity `e` of domain `d` in region `r`, in draw order: positive,
    /// negative, aspect, part-of, filler. They do not depend on the shard,
    /// so every shard reads them instead of recomputing them.
    cell_laws: Vec<Vec<[Poisson; 5]>>,
}

impl CorpusGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics on an empty region list, zero shards, non-positive
    /// weights, or a negative or non-finite statement rate.
    pub fn new(world: World, config: CorpusConfig) -> Self {
        assert!(config.num_shards > 0, "need at least one shard");
        assert!(!config.regions.is_empty(), "need at least one region");
        let total_weight: f64 = config.regions.iter().map(|r| r.weight).sum();
        assert!(total_weight > 0.0, "region weights must sum positive");
        let region_weights: Vec<f64> = config
            .regions
            .iter()
            .map(|r| r.weight / total_weight)
            .collect();

        let mut region_opinions = Vec::with_capacity(config.regions.len());
        for region in &config.regions {
            let stream = SeedStream::new(world.seed())
                .child("region")
                .child(&region.name);
            let mut per_domain = Vec::with_capacity(world.domains().len());
            for (di, domain) in world.domains().iter().enumerate() {
                let mut rng = Rng::new(stream.index(di as u64).seed());
                let opinions: Vec<bool> = domain
                    .opinions
                    .iter()
                    .map(|&o| {
                        if region.opinion_flip > 0.0 && rng.chance(region.opinion_flip) {
                            !o
                        } else {
                            o
                        }
                    })
                    .collect();
                per_domain.push(opinions);
            }
            region_opinions.push(per_domain);
        }

        let shards = config.num_shards as f64;
        let cell_laws = world
            .domains()
            .iter()
            .enumerate()
            .map(|(di, domain)| {
                let params = &domain.params;
                let mut laws = Vec::with_capacity(domain.popularity.len() * region_weights.len());
                for (ei, &pop) in domain.popularity.iter().enumerate() {
                    for (ri, region_weight) in region_weights.iter().enumerate() {
                        let (rate_pos, rate_neg) =
                            domain.rates_for(ei, region_opinions[ri][di][ei]);
                        let scale = region_weight / shards;
                        laws.push(
                            [
                                rate_pos * scale,
                                rate_neg * scale,
                                params.aspect_noise * pop * scale,
                                params.part_of_noise * pop * scale,
                                params.filler_noise * pop * scale,
                            ]
                            .map(Poisson::new),
                        );
                    }
                }
                laws
            })
            .collect();

        Self {
            world,
            config,
            observer: None,
            region_opinions,
            cell_laws,
        }
    }

    /// Attaches a metrics registry: subsequent [`shard_text`] calls
    /// record generation throughput into it. Generated documents are
    /// identical with or without an observer.
    ///
    /// [`shard_text`]: Self::shard_text
    pub fn with_observer(mut self, observer: Arc<MetricsRegistry>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The underlying world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The corpus configuration.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.config.num_shards
    }

    /// Index of a region by name.
    pub fn region_index(&self, name: &str) -> Option<u32> {
        self.config
            .regions
            .iter()
            .position(|r| r.name == name)
            .map(|i| i as u32)
    }

    /// The dominant opinion a region's author pool holds (after flips).
    pub fn region_opinion(&self, region: u32, domain_index: usize, entity_index: usize) -> bool {
        self.region_opinions[region as usize][domain_index][entity_index]
    }

    /// A lexicon covering every word the generator can emit: core
    /// vocabulary plus all domain properties and type head nouns.
    pub fn lexicon(&self) -> Lexicon {
        let mut lex = Lexicon::new();
        for domain in self.world.domains() {
            lex.add_adjective(domain.property.head());
            for adverb in domain.property.adverbs() {
                lex.add_adverb(adverb);
            }
        }
        for t in self.world.kb().types() {
            for noun in t.head_nouns() {
                lex.add_noun(noun);
            }
        }
        lex
    }

    /// Expected total statements across the whole corpus (all shards,
    /// all regions) — used to size experiments and by sanity tests.
    pub fn expected_statements(&self) -> f64 {
        self.world
            .domains()
            .iter()
            .map(|d| {
                (0..d.opinions.len())
                    .map(|i| {
                        let (lp, ln) = d.rates(i);
                        lp + ln
                    })
                    .sum::<f64>()
            })
            .sum()
    }

    /// Generates the raw documents of one shard.
    ///
    /// # Panics
    /// Panics if `shard >= shard_count()`.
    pub fn shard_text(&self, shard: usize) -> Vec<RawDocument> {
        self.shard_text_with(shard, &mut GenScratch::default())
    }

    /// [`shard_text`](Self::shard_text) with caller-owned scratch buffers,
    /// for loops that materialize many shards (the parallel fan-out and
    /// the bench shard sources). Output is byte-identical to
    /// [`shard_text`](Self::shard_text) regardless of scratch reuse.
    ///
    /// # Panics
    /// Panics if `shard >= shard_count()`.
    pub fn shard_text_with(&self, shard: usize, scratch: &mut GenScratch) -> Vec<RawDocument> {
        assert!(shard < self.config.num_shards, "shard out of range");
        #[expect(
            clippy::disallowed_methods,
            reason = "feeds the obs phase report only, never the generated text"
        )]
        let gen_start = self.observer.as_ref().map(|_| Instant::now());
        let stream = SeedStream::new(self.world.seed())
            .child("shard")
            .index(shard as u64);
        let mut rng = Rng::new(stream.seed());

        // Sentence arenas per region: one flat text buffer plus spans,
        // reused across shards. No per-sentence `String` exists anywhere.
        if scratch.regions.len() < self.config.regions.len() {
            scratch
                .regions
                .resize_with(self.config.regions.len(), SentenceBuf::new);
        }
        for buf in &mut scratch.regions {
            buf.clear();
        }
        for (di, domain) in self.world.domains().iter().enumerate() {
            let etype = self.world.kb().entity_type(domain.type_id);
            let head_noun = etype
                .head_nouns()
                .first()
                .map(String::as_str)
                .unwrap_or(etype.name());
            let realizer = Realizer::new(head_noun, domain.params.plural_subjects);
            // One property realization per domain, not one per sentence.
            scratch.property.clear();
            let _ = write!(scratch.property, "{}", domain.property);
            let entities = self.world.kb().entities_of_type(domain.type_id);
            let regions = self.config.regions.len();
            // Entities outermost, then regions: the draw order every
            // generated corpus is pinned to (`tests/draw_order.rs`).
            for (&entity, cells) in entities
                .iter()
                .zip(self.cell_laws[di].chunks_exact(regions))
            {
                // Most cells are silent: name the entity only on a sentence.
                let name = || self.world.kb().entity(entity).name();
                for (buf, [pos, neg, aspect, part_of, filler]) in
                    scratch.regions.iter_mut().zip(cells)
                {
                    // Both statement counts are drawn before either is
                    // realized; each noise count just before its sentences.
                    let (n_pos, n_neg) = (pos.sample(&mut rng), neg.sample(&mut rng));
                    for _ in 0..n_pos {
                        realizer.statement_into(
                            &mut rng,
                            name(),
                            &scratch.property,
                            true,
                            domain.params.extended_verb_share,
                            domain.params.double_negation_share,
                            buf,
                        );
                    }
                    for _ in 0..n_neg {
                        realizer.statement_into(
                            &mut rng,
                            name(),
                            &scratch.property,
                            false,
                            domain.params.extended_verb_share,
                            domain.params.double_negation_share,
                            buf,
                        );
                    }
                    for _ in 0..aspect.sample(&mut rng) {
                        realizer.aspect_noise_into(&mut rng, name(), buf);
                    }
                    for _ in 0..part_of.sample(&mut rng) {
                        realizer.part_of_noise_into(&mut rng, name(), buf);
                    }
                    for _ in 0..filler.sample(&mut rng) {
                        realizer.filler_into(&mut rng, name(), buf);
                    }
                }
            }
        }

        // The exact sentence total is known before packing; counting here
        // keeps the observer from re-scanning document text afterwards.
        let total_sentences: u64 = if self.observer.is_some() {
            scratch.regions.iter().map(|b| b.len() as u64).sum()
        } else {
            0
        };

        // Pack region-homogeneous documents. Only the spans are shuffled
        // (the arena text stays put); the shuffle consumes randomness
        // purely as a function of slice length, so the draw sequence is
        // identical to the old owned-`String` shuffle.
        let mut documents = Vec::new();
        let mut seq: u64 = 0;
        let continue_prob = 1.0 - 1.0 / MEAN_SENTENCES_PER_DOCUMENT;
        for (ri, buf) in scratch
            .regions
            .iter_mut()
            .enumerate()
            .take(self.config.regions.len())
        {
            rng.shuffle(buf.spans_mut());
            let count = buf.len();
            let mut i = 0;
            while i < count {
                let mut text = String::new();
                while i < count {
                    if !text.is_empty() {
                        text.push(' ');
                    }
                    text.push_str(buf.sentence(i));
                    i += 1;
                    if !rng.chance(continue_prob) {
                        break;
                    }
                }
                documents.push(RawDocument {
                    id: (shard as u64) << 32 | seq,
                    region: ri as u32,
                    text,
                });
                seq += 1;
            }
        }
        if let (Some(obs), Some(start)) = (&self.observer, gen_start) {
            // Shards generate inside extraction workers, so the `corpus`
            // phase accumulates per-shard slices (it overlaps the
            // `extract` phase rather than adding to it).
            obs.record_phase("corpus", start.elapsed(), documents.len() as u64);
            obs.add("corpus.documents", documents.len() as u64);
            obs.add("corpus.sentences", total_sentences);
        }
        documents
    }

    /// Generates and annotates one shard; `region_filter` restricts the
    /// output to one region (the §2 region-specific mode).
    pub fn shard_annotated(
        &self,
        shard: usize,
        lexicon: &Lexicon,
        region_filter: Option<u32>,
    ) -> Vec<AnnotatedDocument> {
        let mut scratch = AnnotateScratch::default();
        self.shard_text(shard)
            .into_iter()
            .filter(|d| region_filter.is_none_or(|r| d.region == r))
            .map(|d| annotate_with(d.id, &d.text, self.world.kb(), lexicon, &mut scratch))
            .collect()
    }

    /// Materializes every shard's raw documents over `workers` threads of
    /// the [`claim_map`] pool, one [`GenScratch`] per worker.
    ///
    /// Shards are independently generable by construction (all randomness
    /// derives from `(world seed, shard index)`) and come back in shard
    /// order, so the result is byte-identical to calling
    /// [`shard_text`](Self::shard_text) serially for every shard, for any
    /// worker count.
    pub fn all_shards_text(&self, workers: usize) -> Vec<Vec<RawDocument>> {
        claim_map(
            self.config.num_shards,
            workers,
            GenScratch::default,
            |scratch, shard| self.shard_text_with(shard, scratch),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{DomainParams, OpinionRule, WorldBuilder};
    use std::sync::Arc;
    use surveyor_kb::{KnowledgeBaseBuilder, Property};

    fn world(seed: u64) -> World {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        for name in ["Kitten", "Tiger", "Spider", "Puppy", "Koala"] {
            b.add_entity(name, animal).finish();
        }
        let kb = Arc::new(b.build());
        WorldBuilder::new(kb, seed)
            .domain(
                "animal",
                Property::adjective("cute"),
                DomainParams {
                    rate_pos: 20.0,
                    rate_neg: 4.0,
                    opinions: OpinionRule::RandomShare(0.5),
                    plural_subjects: true,
                    ..DomainParams::default()
                },
            )
            .build()
    }

    #[test]
    fn shards_are_deterministic() {
        let g1 = CorpusGenerator::new(world(3), CorpusConfig::default());
        let g2 = CorpusGenerator::new(world(3), CorpusConfig::default());
        assert_eq!(g1.shard_text(0), g2.shard_text(0));
        assert_eq!(g1.shard_text(5), g2.shard_text(5));
    }

    #[test]
    fn observer_records_generation_throughput_without_changing_output() {
        let obs = Arc::new(MetricsRegistry::new());
        let plain = CorpusGenerator::new(world(3), CorpusConfig::default());
        let observed =
            CorpusGenerator::new(world(3), CorpusConfig::default()).with_observer(obs.clone());
        assert_eq!(plain.shard_text(0), observed.shard_text(0));

        let docs = obs.counter_value("corpus.documents");
        assert_eq!(docs, plain.shard_text(0).len() as u64);
        assert!(obs.counter_value("corpus.sentences") >= docs);
        let report = obs.report();
        let phase = report.phase("corpus").expect("corpus phase recorded");
        assert_eq!(phase.items, docs);
        assert!(phase.seconds > 0.0);
    }

    #[test]
    fn parallel_materialization_matches_serial() {
        let one_region = CorpusGenerator::new(world(3), CorpusConfig::default());
        for g in [one_region, crate::presets::regional_generator(2015)] {
            let serial: Vec<Vec<RawDocument>> =
                (0..g.shard_count()).map(|s| g.shard_text(s)).collect();
            for workers in [1, 2, 4, 8] {
                assert_eq!(serial, g.all_shards_text(workers), "{workers} workers");
            }
        }
    }

    #[test]
    fn scratch_reuse_does_not_change_output() {
        let g = CorpusGenerator::new(world(3), CorpusConfig::default());
        let mut scratch = GenScratch::default();
        for s in 0..g.shard_count() {
            assert_eq!(g.shard_text(s), g.shard_text_with(s, &mut scratch));
        }
    }

    #[test]
    fn shards_differ_from_each_other() {
        let g = CorpusGenerator::new(world(3), CorpusConfig::default());
        assert_ne!(g.shard_text(0), g.shard_text(1));
    }

    #[test]
    fn document_ids_are_unique_across_shards() {
        let g = CorpusGenerator::new(world(3), CorpusConfig::default());
        let mut ids = std::collections::HashSet::new();
        for s in 0..g.shard_count() {
            for d in g.shard_text(s) {
                assert!(ids.insert(d.id), "duplicate id {}", d.id);
            }
        }
        assert!(!ids.is_empty());
    }

    #[test]
    fn total_sentences_near_expectation() {
        let g = CorpusGenerator::new(world(11), CorpusConfig::default());
        let expected = g.expected_statements();
        let mut total_statement_sentences = 0usize;
        for s in 0..g.shard_count() {
            for d in g.shard_text(s) {
                // Count property-bearing sentences (contain "cute").
                total_statement_sentences += d.text.matches("cute").count();
            }
        }
        let observed = total_statement_sentences as f64;
        assert!(
            (observed - expected).abs() < 4.0 * expected.sqrt() + 10.0,
            "observed {observed}, expected {expected}"
        );
    }

    #[test]
    fn annotation_produces_mentions() {
        let g = CorpusGenerator::new(world(7), CorpusConfig::default());
        let lex = g.lexicon();
        let docs = g.shard_annotated(0, &lex, None);
        let mentions: usize = docs.iter().map(|d| d.mention_count()).sum();
        assert!(mentions > 0);
    }

    #[test]
    fn regions_partition_documents() {
        let config = CorpusConfig {
            regions: vec![
                RegionSpec {
                    name: "us".into(),
                    weight: 2.0,
                    opinion_flip: 0.0,
                },
                RegionSpec {
                    name: "cn".into(),
                    weight: 1.0,
                    opinion_flip: 0.5,
                },
            ],
            ..CorpusConfig::default()
        };
        let g = CorpusGenerator::new(world(5), config);
        assert_eq!(g.region_index("us"), Some(0));
        assert_eq!(g.region_index("cn"), Some(1));
        assert_eq!(g.region_index("mars"), None);
        let mut counts = [0usize; 2];
        for s in 0..g.shard_count() {
            for d in g.shard_text(s) {
                // Count sentences, not documents: document sizes vary.
                counts[d.region as usize] += d.text.matches('.').count();
            }
        }
        // The us region has twice the weight: roughly twice the sentences.
        assert!(
            counts[0] > counts[1],
            "counts {counts:?} (us should dominate)"
        );
        // Region filter keeps only the requested region; the minority
        // region appears in at least one shard.
        let lex = g.lexicon();
        let filtered: usize = (0..g.shard_count())
            .map(|s| g.shard_annotated(s, &lex, Some(1)).len())
            .sum();
        assert!(filtered > 0);
    }

    #[test]
    fn region_flip_changes_some_opinions() {
        let config = CorpusConfig {
            regions: vec![
                RegionSpec::global(),
                RegionSpec {
                    name: "flipped".into(),
                    weight: 1.0,
                    opinion_flip: 1.0,
                },
            ],
            ..CorpusConfig::default()
        };
        let g = CorpusGenerator::new(world(5), config);
        for ei in 0..5 {
            assert_ne!(
                g.region_opinion(0, 0, ei),
                g.region_opinion(1, 0, ei),
                "entity {ei}"
            );
        }
    }

    #[test]
    fn lexicon_knows_domain_properties() {
        let g = CorpusGenerator::new(world(5), CorpusConfig::default());
        let lex = g.lexicon();
        assert_eq!(lex.lookup("cute"), Some(surveyor_nlp::Pos::Adjective));
    }

    #[test]
    #[should_panic(expected = "shard out of range")]
    fn shard_out_of_range_panics() {
        let g = CorpusGenerator::new(world(5), CorpusConfig::default());
        let _ = g.shard_text(99);
    }
}
