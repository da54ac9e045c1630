//! The extraction patterns of paper Figure 4.
//!
//! Three patterns connect an entity mention to a property over the
//! dependency tree:
//!
//! - **Adjectival complement** (Fig. 4b): the entity is `nsubj` of a
//!   predicate adjective with a copula ("Chicago is very big"). The verb
//!   class of the copula is configurable (Table 4: full copula class vs.
//!   "to be"); in copula-class mode, small clauses ("I find kittens cute")
//!   also qualify.
//! - **Adjectival modifier** (Fig. 4a): an `amod` edge onto a noun that
//!   either corefers with an entity mention ("Snakes are dangerous
//!   *animals*") or is the mention itself ("I love the cute *kitten*").
//!   With intrinsicness checks on, the direct-mention variant is rejected
//!   when the mention is a clause subject — this is what filters the
//!   part-of reading "southern France is warm" while keeping "Greece is a
//!   southern country" (§4).
//! - **Conjunction** (Fig. 4c): conjoined adjectives inherit the match
//!   ("Soccer is a fast and *exciting* sport").
//!
//! Intrinsicness constriction: with checks on, a prepositional sub-tree on
//! the pattern's top node rejects the match ("New York is bad *for
//! parking*").

use crate::config::{ExtractionConfig, VerbSet};
use crate::evidence::Statement;
use crate::polarity::statement_polarity;
use surveyor_kb::{CacheStats, EntityId, InternCache, KnowledgeBase, PropertyId};
use surveyor_nlp::coref::predicate_nominal_corefs;
use surveyor_nlp::lexicon::is_to_be_word;
use surveyor_nlp::{AnnotatedSentence, DepRel, DepTree, Pos};

/// Reusable per-worker extraction state: the property-surface scratch
/// buffer plus the worker-local [`InternCache`].
///
/// One context lives for a whole worker's run and is threaded through
/// every sentence, so the steady-state hot path (a repeat property
/// surface) costs one local hash probe — no allocation, no locks, no
/// shared memory.
#[derive(Debug, Default)]
pub struct ExtractContext {
    /// Scratch for assembling the canonical property surface.
    surface: String,
    /// Worker-local surface → id and id → property cache.
    cache: InternCache,
}

impl ExtractContext {
    /// A fresh context with a cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The interner cache's hit/fallback tallies so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// Interns the property at an adjective token: its adverb modifiers
/// (surface order) plus the adjective itself. The surface form is assembled
/// in the context's scratch buffer and interned through the worker-local
/// cache, so a property seen before costs no allocation and no locks.
#[expect(
    clippy::expect_used,
    reason = "the tokenizer never yields an empty adjective token"
)]
fn property_at(sentence: &AnnotatedSentence, adj: usize, cx: &mut ExtractContext) -> PropertyId {
    let tokens = &sentence.tokens;
    cx.surface.clear();
    // Children come in token order, which is surface order.
    for i in sentence.tree.children_with_rel(adj, DepRel::Advmod) {
        if tokens[i].pos == Pos::Adverb {
            cx.surface.push_str(tokens.lower_of(i));
            cx.surface.push(' ');
        }
    }
    cx.surface.push_str(tokens.lower_of(adj));
    let id = cx.cache.intern_surface(&cx.surface);
    id.expect("adjective surface is non-empty")
}

/// Whether the pattern's top node carries a prepositional constriction
/// sub-tree (non-intrinsic statement, §4).
fn has_constriction(tree: &DepTree, top: usize) -> bool {
    tree.has_child_with_rel(top, DepRel::Prep)
}

/// Emits a statement for adjective `adj` about `entity`, plus conjunction
/// expansions, respecting the constriction check on conjuncts.
fn emit_matches(
    sentence: &AnnotatedSentence,
    entity: EntityId,
    adj: usize,
    config: &ExtractionConfig,
    cx: &mut ExtractContext,
    out: &mut Vec<Statement>,
) {
    let tokens = &sentence.tokens;
    let tree = &sentence.tree;
    out.push(Statement {
        entity,
        property: property_at(sentence, adj, cx),
        polarity: statement_polarity(tree, adj),
    });
    if config.conj {
        for conj in tree.children_with_rel(adj, DepRel::Conj) {
            if tokens[conj].pos != Pos::Adjective {
                continue;
            }
            if config.intrinsic_checks && has_constriction(tree, conj) {
                continue;
            }
            out.push(Statement {
                entity,
                property: property_at(sentence, conj, cx),
                polarity: statement_polarity(tree, conj),
            });
        }
    }
}

/// Adjectival-complement matches for one sentence.
fn match_acomp(
    sentence: &AnnotatedSentence,
    config: &ExtractionConfig,
    cx: &mut ExtractContext,
    out: &mut Vec<Statement>,
) {
    let tokens = &sentence.tokens;
    let tree = &sentence.tree;
    for mention in &sentence.mentions {
        let head = mention.head();
        if tree.rel(head) != DepRel::Nsubj {
            continue;
        }
        let Some(pred) = tree.head(head) else {
            continue;
        };
        if tokens[pred].pos != Pos::Adjective {
            continue;
        }
        // Governor admissibility.
        let first_cop = tree.children_with_rel(pred, DepRel::Cop).next();
        let admissible = if let Some(cop) = first_cop {
            match config.verbs {
                VerbSet::ToBe => is_to_be_word(tokens.lower_of(cop)),
                VerbSet::CopulaClass => true,
            }
        } else {
            // Cop-less adjectival small clause ("I find kittens cute"):
            // admitted only by the extended verb class.
            config.verbs == VerbSet::CopulaClass && tree.rel(pred) == DepRel::Ccomp
        };
        if !admissible {
            continue;
        }
        if config.intrinsic_checks && has_constriction(tree, pred) {
            continue;
        }
        emit_matches(sentence, mention.entity, pred, config, cx, out);
    }
}

/// Adjectival-modifier matches for one sentence.
fn match_amod(
    sentence: &AnnotatedSentence,
    kb: &KnowledgeBase,
    config: &ExtractionConfig,
    cx: &mut ExtractContext,
    out: &mut Vec<Statement>,
) {
    let tokens = &sentence.tokens;
    let tree = &sentence.tree;

    // (a) Predicate-nominal coreference: amod on a type noun coreferent
    // with the mention.
    for link in predicate_nominal_corefs(tokens, tree, &sentence.mentions, kb) {
        if config.intrinsic_checks && has_constriction(tree, link.noun) {
            continue;
        }
        let entity = sentence.mentions[link.mention].entity;
        // Attributive modifiers plus relative-clause predicates ("a city
        // that is big") — both assert the property of the coreferent noun.
        for rel in [DepRel::Amod, DepRel::Rcmod] {
            for adj in tree.children_with_rel(link.noun, rel) {
                if tokens[adj].pos != Pos::Adjective {
                    continue;
                }
                emit_matches(sentence, entity, adj, config, cx, out);
            }
        }
    }

    // (b) Direct modification of the mention head.
    for mention in &sentence.mentions {
        let head = mention.head();
        let mut amods = tree.children_with_rel(head, DepRel::Amod).peekable();
        if amods.peek().is_none() {
            continue;
        }
        if config.intrinsic_checks {
            // Part-of filter: an attributive adjective on a *subject*
            // mention modifies a part or aspect ("southern France is
            // warm"), not the entity as a whole.
            if tree.rel(head) == DepRel::Nsubj {
                continue;
            }
            if has_constriction(tree, head) {
                continue;
            }
        }
        for adj in amods {
            if tokens[adj].pos != Pos::Adjective {
                continue;
            }
            // Skip adjectives inside the mention span itself ("White shark"
            // must not yield (shark, white)).
            if mention.covers(adj) {
                continue;
            }
            emit_matches(sentence, mention.entity, adj, config, cx, out);
        }
    }
}

/// Per-pattern hit counters for one extraction pass. Hits are counted
/// before deduplication — they measure how often each Figure 4 pattern
/// fires, which the observability layer surfaces as
/// `extract.pattern_hits.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternCounts {
    /// Statements produced by the adjectival-complement pattern (4b).
    pub acomp: u64,
    /// Statements produced by the adjectival-modifier pattern (4a).
    pub amod: u64,
    /// Sentences no pattern was tried on: every pattern needs an entity
    /// mention and an adjective, and these had none of one or the other
    /// (`extract.sentences_skipped`).
    pub skipped: u64,
}

impl PatternCounts {
    /// Merges another tally into this one.
    pub fn merge(&mut self, other: PatternCounts) {
        self.acomp += other.acomp;
        self.amod += other.amod;
        self.skipped += other.skipped;
    }
}

/// Extracts all evidence statements from one annotated sentence under a
/// configuration. Duplicate (entity, property, polarity) triples within a
/// sentence are deduplicated.
pub fn extract_sentence(
    sentence: &AnnotatedSentence,
    kb: &KnowledgeBase,
    config: &ExtractionConfig,
) -> Vec<Statement> {
    let mut out = Vec::new();
    extract_sentence_into(
        sentence,
        kb,
        config,
        &mut PatternCounts::default(),
        &mut ExtractContext::new(),
        &mut out,
    );
    out
}

/// The worker entry point: like [`extract_sentence`] but tallying which
/// pattern produced each raw match into `counts` and writing into a
/// caller-owned buffer through a long-lived [`ExtractContext`], so a
/// worker pays no per-sentence allocation and — once the context's cache
/// is warm — no locks.
pub fn extract_sentence_into(
    sentence: &AnnotatedSentence,
    kb: &KnowledgeBase,
    config: &ExtractionConfig,
    counts: &mut PatternCounts,
    cx: &mut ExtractContext,
    out: &mut Vec<Statement>,
) {
    out.clear();
    // Every pattern ends at `emit_matches` with an entity from a mention
    // and a token tagged `Adjective`: a sentence without either cannot
    // yield a statement.
    if sentence.mentions.is_empty() || !sentence.tokens.iter().any(|t| t.pos == Pos::Adjective) {
        counts.skipped += 1;
        return;
    }
    if config.acomp {
        match_acomp(sentence, config, cx, out);
        counts.acomp += out.len() as u64;
    }
    if config.amod {
        let before = out.len();
        match_amod(sentence, kb, config, cx, out);
        counts.amod += (out.len() - before) as u64;
    }
    if out.len() > 1 {
        // Order on the resolved property (ids reflect discovery order), so
        // per-sentence statement order is reproducible across runs. Only
        // multi-statement sentences — the rare case — pay the resolution,
        // and the context's cache makes repeat resolutions lock-free.
        for s in out.iter() {
            cx.cache.ensure_resolved(s.property);
        }
        let cache = &cx.cache;
        out.sort_by(|a, b| {
            let key = |s: &Statement| {
                (
                    s.entity,
                    cache.peek(s.property),
                    s.polarity == crate::Polarity::Negative,
                )
            };
            key(a).cmp(&key(b))
        });
        out.dedup();
    }
}

/// `extract_sentence_into` and everything under it as they were before
/// the early-out and the iterator tree queries, kept as the oracle of
/// `crate::differential`: the tree queries build the vectors they used to
/// return, and no sentence is skipped. Not to be edited.
#[cfg(test)]
pub(crate) mod reference {
    use super::{ExtractContext, PatternCounts};
    use crate::config::{ExtractionConfig, VerbSet};
    use crate::evidence::{Polarity, Statement};
    use surveyor_kb::{EntityId, KnowledgeBase, PropertyId};
    use surveyor_nlp::coref::CorefLink;
    use surveyor_nlp::lexicon::is_to_be_word as is_to_be;
    use surveyor_nlp::{AnnotatedSentence, DepRel, DepTree, Mention, Pos, TokenizedSentence};

    fn children_with_rel(tree: &DepTree, i: usize, rel: DepRel) -> Vec<usize> {
        (0..tree.len())
            .filter(|&j| tree.head(j) == Some(i) && tree.rel(j) == rel)
            .collect()
    }

    fn has_child_with_rel(tree: &DepTree, i: usize, rel: DepRel) -> bool {
        (0..tree.len()).any(|j| tree.head(j) == Some(i) && tree.rel(j) == rel)
    }

    fn path_to_root(tree: &DepTree, i: usize) -> Vec<usize> {
        let mut path = vec![i];
        let mut cur = i;
        while let Some(h) = tree.head(cur) {
            path.push(h);
            cur = h;
            if path.len() > tree.len() {
                break;
            }
        }
        path
    }

    fn statement_polarity(tree: &DepTree, property_token: usize) -> Polarity {
        let mut negations = 0usize;
        for node in path_to_root(tree, property_token) {
            if has_child_with_rel(tree, node, DepRel::Neg) {
                negations += 1;
            }
        }
        if negations % 2 == 0 {
            Polarity::Positive
        } else {
            Polarity::Negative
        }
    }

    fn predicate_nominal_corefs(
        tokens: &TokenizedSentence,
        tree: &DepTree,
        mentions: &[Mention],
        kb: &KnowledgeBase,
    ) -> Vec<CorefLink> {
        let mut links = Vec::new();
        for (mi, mention) in mentions.iter().enumerate() {
            let head = mention.head();
            if head >= tree.len() || tree.rel(head) != DepRel::Nsubj {
                continue;
            }
            let Some(pred) = tree.head(head) else {
                continue;
            };
            if tokens[pred].pos != Pos::Noun {
                continue;
            }
            if !has_child_with_rel(tree, pred, DepRel::Cop) {
                continue;
            }
            let etype = kb.entity_type(kb.entity(mention.entity).notable_type());
            if etype.matches_head_noun(tokens.lower_of(pred)) {
                links.push(CorefLink {
                    noun: pred,
                    mention: mi,
                });
            }
        }
        links
    }

    fn property_at(
        sentence: &AnnotatedSentence,
        adj: usize,
        cx: &mut ExtractContext,
    ) -> PropertyId {
        let tokens = &sentence.tokens;
        let tree = &sentence.tree;
        let mut adverbs: Vec<usize> = children_with_rel(tree, adj, DepRel::Advmod)
            .into_iter()
            .filter(|&i| tokens[i].pos == Pos::Adverb)
            .collect();
        adverbs.sort_unstable();
        cx.surface.clear();
        for &i in &adverbs {
            cx.surface.push_str(tokens.lower_of(i));
            cx.surface.push(' ');
        }
        cx.surface.push_str(tokens.lower_of(adj));
        let id = cx.cache.intern_surface(&cx.surface);
        id.expect("adjective surface is non-empty")
    }

    fn has_constriction(tree: &DepTree, top: usize) -> bool {
        has_child_with_rel(tree, top, DepRel::Prep)
    }

    fn emit_matches(
        sentence: &AnnotatedSentence,
        entity: EntityId,
        adj: usize,
        config: &ExtractionConfig,
        cx: &mut ExtractContext,
        out: &mut Vec<Statement>,
    ) {
        let tokens = &sentence.tokens;
        let tree = &sentence.tree;
        out.push(Statement {
            entity,
            property: property_at(sentence, adj, cx),
            polarity: statement_polarity(tree, adj),
        });
        if config.conj {
            for conj in children_with_rel(tree, adj, DepRel::Conj) {
                if tokens[conj].pos != Pos::Adjective {
                    continue;
                }
                if config.intrinsic_checks && has_constriction(tree, conj) {
                    continue;
                }
                out.push(Statement {
                    entity,
                    property: property_at(sentence, conj, cx),
                    polarity: statement_polarity(tree, conj),
                });
            }
        }
    }

    fn match_acomp(
        sentence: &AnnotatedSentence,
        config: &ExtractionConfig,
        cx: &mut ExtractContext,
        out: &mut Vec<Statement>,
    ) {
        let tokens = &sentence.tokens;
        let tree = &sentence.tree;
        for mention in &sentence.mentions {
            let head = mention.head();
            if tree.rel(head) != DepRel::Nsubj {
                continue;
            }
            let Some(pred) = tree.head(head) else {
                continue;
            };
            if tokens[pred].pos != Pos::Adjective {
                continue;
            }
            let cops = children_with_rel(tree, pred, DepRel::Cop);
            let admissible = if let Some(&cop) = cops.first() {
                match config.verbs {
                    VerbSet::ToBe => is_to_be(tokens.lower_of(cop)),
                    VerbSet::CopulaClass => true,
                }
            } else {
                config.verbs == VerbSet::CopulaClass && tree.rel(pred) == DepRel::Ccomp
            };
            if !admissible {
                continue;
            }
            if config.intrinsic_checks && has_constriction(tree, pred) {
                continue;
            }
            emit_matches(sentence, mention.entity, pred, config, cx, out);
        }
    }

    fn match_amod(
        sentence: &AnnotatedSentence,
        kb: &KnowledgeBase,
        config: &ExtractionConfig,
        cx: &mut ExtractContext,
        out: &mut Vec<Statement>,
    ) {
        let tokens = &sentence.tokens;
        let tree = &sentence.tree;
        for link in predicate_nominal_corefs(tokens, tree, &sentence.mentions, kb) {
            if config.intrinsic_checks && has_constriction(tree, link.noun) {
                continue;
            }
            let entity = sentence.mentions[link.mention].entity;
            for rel in [DepRel::Amod, DepRel::Rcmod] {
                for adj in children_with_rel(tree, link.noun, rel) {
                    if tokens[adj].pos != Pos::Adjective {
                        continue;
                    }
                    emit_matches(sentence, entity, adj, config, cx, out);
                }
            }
        }
        for mention in &sentence.mentions {
            let head = mention.head();
            let amods = children_with_rel(tree, head, DepRel::Amod);
            if amods.is_empty() {
                continue;
            }
            if config.intrinsic_checks {
                if tree.rel(head) == DepRel::Nsubj {
                    continue;
                }
                if has_constriction(tree, head) {
                    continue;
                }
            }
            for adj in amods {
                if tokens[adj].pos != Pos::Adjective {
                    continue;
                }
                if mention.covers(adj) {
                    continue;
                }
                emit_matches(sentence, mention.entity, adj, config, cx, out);
            }
        }
    }

    pub(crate) fn extract_sentence_into(
        sentence: &AnnotatedSentence,
        kb: &KnowledgeBase,
        config: &ExtractionConfig,
        counts: &mut PatternCounts,
        cx: &mut ExtractContext,
        out: &mut Vec<Statement>,
    ) {
        out.clear();
        if config.acomp {
            match_acomp(sentence, config, cx, out);
            counts.acomp += out.len() as u64;
        }
        if config.amod {
            let before = out.len();
            match_amod(sentence, kb, config, cx, out);
            counts.amod += (out.len() - before) as u64;
        }
        if out.len() > 1 {
            for s in out.iter() {
                cx.cache.ensure_resolved(s.property);
            }
            let cache = &cx.cache;
            out.sort_by(|a, b| {
                let key = |s: &Statement| {
                    (
                        s.entity,
                        cache.peek(s.property),
                        s.polarity == Polarity::Negative,
                    )
                };
                key(a).cmp(&key(b))
            });
            out.dedup();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PatternVersion;
    use crate::Polarity;
    use surveyor_kb::KnowledgeBaseBuilder;
    use surveyor_nlp::{annotate, Lexicon};

    fn kb() -> KnowledgeBase {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        let city = b.add_type("city", &["city"], &[]);
        let sport = b.add_type("sport", &["sport"], &[]);
        let country = b.add_type("country", &["country"], &[]);
        b.add_entity("Snake", animal).finish();
        b.add_entity("Kitten", animal).finish();
        b.add_entity("Chicago", city).finish();
        b.add_entity("New York", city).finish();
        b.add_entity("Soccer", sport).finish();
        b.add_entity("France", country).finish();
        b.add_entity("Greece", country).finish();
        b.build()
    }

    fn extract_with(text: &str, config: &ExtractionConfig) -> Vec<(String, String, Polarity)> {
        let kb = kb();
        let lex = Lexicon::new();
        let doc = annotate(0, text, &kb, &lex);
        let mut out = Vec::new();
        for s in &doc.sentences {
            for st in extract_sentence(s, &kb, config) {
                out.push((
                    kb.entity(st.entity).name().to_owned(),
                    st.property.resolve().to_string(),
                    st.polarity,
                ));
            }
        }
        out
    }

    fn extract_v4(text: &str) -> Vec<(String, String, Polarity)> {
        extract_with(text, &ExtractionConfig::paper_final())
    }

    #[test]
    fn table1_row1_amod_with_coref() {
        let got = extract_v4("Snakes are dangerous animals.");
        assert_eq!(
            got,
            vec![("Snake".into(), "dangerous".into(), Polarity::Positive)]
        );
    }

    #[test]
    fn table1_row2_acomp_with_adverb() {
        let got = extract_v4("Chicago is very big.");
        assert_eq!(
            got,
            vec![("Chicago".into(), "very big".into(), Polarity::Positive)]
        );
    }

    #[test]
    fn table1_row3_conjunction() {
        let got = extract_v4("Soccer is a fast and exciting sport.");
        // Both "fast" (amod) and "exciting" (conj) extract, per the paper's
        // note on the third example.
        assert_eq!(got.len(), 2);
        assert!(got.contains(&("Soccer".into(), "fast".into(), Polarity::Positive)));
        assert!(got.contains(&("Soccer".into(), "exciting".into(), Polarity::Positive)));
    }

    #[test]
    fn negative_statement() {
        let got = extract_v4("Chicago is not big.");
        assert_eq!(
            got,
            vec![("Chicago".into(), "big".into(), Polarity::Negative)]
        );
        let got = extract_v4("New York is not a big city.");
        assert_eq!(
            got,
            vec![("New York".into(), "big".into(), Polarity::Negative)]
        );
    }

    #[test]
    fn double_negation_positive() {
        let got = extract_v4("I don't think that snakes are never dangerous.");
        assert_eq!(
            got,
            vec![("Snake".into(), "dangerous".into(), Polarity::Positive)]
        );
    }

    #[test]
    fn constriction_filtered_in_v4_not_v2() {
        let text = "New York is bad for parking.";
        assert!(extract_v4(text).is_empty());
        let v2 = extract_with(text, &PatternVersion::V2.config());
        assert_eq!(
            v2,
            vec![("New York".into(), "bad".into(), Polarity::Positive)]
        );
    }

    #[test]
    fn part_of_amod_filtered_in_v4_not_v1() {
        let text = "southern France is warm.";
        let v4 = extract_v4(text);
        // "warm" extracts via acomp; "southern" must NOT extract.
        assert_eq!(
            v4,
            vec![("France".into(), "warm".into(), Polarity::Positive)]
        );
        let v1 = extract_with(text, &PatternVersion::V1.config());
        // V1 has no checks: the spurious (France, southern) appears, and no
        // acomp pattern runs.
        assert_eq!(
            v1,
            vec![("France".into(), "southern".into(), Polarity::Positive)]
        );
    }

    #[test]
    fn greece_southern_country_extracts_via_coref() {
        let got = extract_v4("Greece is a southern country.");
        assert_eq!(
            got,
            vec![("Greece".into(), "southern".into(), Polarity::Positive)]
        );
    }

    #[test]
    fn attributive_object_mention_extracts_in_v4() {
        let got = extract_v4("I love the cute kitten.");
        assert_eq!(
            got,
            vec![("Kitten".into(), "cute".into(), Polarity::Positive)]
        );
    }

    #[test]
    fn small_clause_only_with_copula_class() {
        let text = "I find kittens cute.";
        assert!(extract_v4(text).is_empty());
        let v2 = extract_with(text, &PatternVersion::V2.config());
        assert_eq!(
            v2,
            vec![("Kitten".into(), "cute".into(), Polarity::Positive)]
        );
    }

    #[test]
    fn extended_copula_only_with_copula_class() {
        let text = "Chicago seems big.";
        assert!(extract_v4(text).is_empty());
        let v2 = extract_with(text, &PatternVersion::V2.config());
        assert_eq!(
            v2,
            vec![("Chicago".into(), "big".into(), Polarity::Positive)]
        );
    }

    #[test]
    fn v3_has_no_amod() {
        let v3 = extract_with(
            "Snakes are dangerous animals.",
            &PatternVersion::V3.config(),
        );
        assert!(v3.is_empty());
        let v3 = extract_with("Chicago is big.", &PatternVersion::V3.config());
        assert_eq!(v3.len(), 1);
    }

    #[test]
    fn no_extraction_without_mention() {
        assert!(extract_v4("The weather is nice.").is_empty());
    }

    #[test]
    fn no_extraction_for_objective_only_sentences() {
        assert!(extract_v4("Chicago has parks.").is_empty());
    }

    #[test]
    fn mention_internal_adjective_is_not_extracted() {
        // "White shark" as an entity name must not yield (shark, white); we
        // approximate with a lowercase attributive over a mention.
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        b.add_entity("White shark", animal).finish();
        let kb = b.build();
        let lex = Lexicon::new();
        let doc = annotate(0, "I love the white shark.", &kb, &lex);
        let stmts = extract_sentence(&doc.sentences[0], &kb, &ExtractionConfig::paper_final());
        assert!(stmts.is_empty(), "got {stmts:?}");
    }

    #[test]
    fn relative_clause_extracts_like_amod() {
        let got = extract_v4("Chicago is a city that is very big.");
        assert_eq!(
            got,
            vec![("Chicago".into(), "very big".into(), Polarity::Positive)]
        );
        let got = extract_v4("Chicago is a city that is not big.");
        assert_eq!(
            got,
            vec![("Chicago".into(), "big".into(), Polarity::Negative)]
        );
        // V3 (acomp-only) does not use the relative-clause reading.
        let v3 = extract_with(
            "Chicago is a city that is big.",
            &PatternVersion::V3.config(),
        );
        assert!(v3.is_empty(), "{v3:?}");
    }

    #[test]
    fn passive_report_only_with_copula_class() {
        let text = "Chicago is considered big.";
        assert!(extract_v4(text).is_empty());
        let v2 = extract_with(text, &PatternVersion::V2.config());
        assert_eq!(
            v2,
            vec![("Chicago".into(), "big".into(), Polarity::Positive)]
        );
        // Negated report flips polarity.
        let v2 = extract_with(
            "Chicago is not considered big.",
            &PatternVersion::V2.config(),
        );
        assert_eq!(
            v2,
            vec![("Chicago".into(), "big".into(), Polarity::Negative)]
        );
    }

    #[test]
    fn dedup_within_sentence() {
        // A sentence matching both coref-amod and direct paths must not
        // double-count the same triple.
        let got = extract_v4("Soccer is a fast and fast sport.");
        let fast_count = got.iter().filter(|(_, p, _)| p == "fast").count();
        assert_eq!(fast_count, 1);
    }
}
