//! Sentence-local coreference.
//!
//! The adjectival-modifier extraction pattern requires the modified noun to
//! be *coreferential* with an entity mention (paper §4): in "Snakes are
//! dangerous animals", the predicate nominal "animals" corefers with the
//! subject mention "Snakes", so `amod(animals, dangerous)` yields the
//! extraction (snake, dangerous). In "southern France is warm" no such link
//! exists for "France"'s would-be coreferent, so the intrinsicness filter
//! can tell the two cases apart.
//!
//! Only the high-precision case is implemented: a predicate nominal whose
//! clause subject is an entity mention and whose head word is a head noun
//! of the mention's entity type.

use crate::parser::{DepRel, DepTree};
use crate::tagger::Mention;
use crate::token::{Pos, TokenizedSentence};
use surveyor_kb::KnowledgeBase;

/// A coreference link: `noun` (token index of a predicate nominal) refers
/// to the same entity as `mention` (index into the mention list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorefLink {
    /// Token index of the coreferent noun.
    pub noun: usize,
    /// Index into the sentence's mention list.
    pub mention: usize,
}

/// Finds predicate-nominal coreference links in one sentence, in mention
/// order.
///
/// A link is produced when:
/// - some mention's head token is the `nsubj` of a noun `N`,
/// - `N` carries a copula child (it is a predicate nominal), and
/// - `N`'s lowercase form is a head noun of the mention's entity type
///   (plural-tolerant).
pub fn predicate_nominal_corefs<'a>(
    tokens: &'a TokenizedSentence,
    tree: &'a DepTree,
    mentions: &'a [Mention],
    kb: &'a KnowledgeBase,
) -> impl Iterator<Item = CorefLink> + 'a {
    mentions
        .iter()
        .enumerate()
        .filter_map(move |(mi, mention)| {
            let head = mention.head();
            if head >= tree.len() || tree.rel(head) != DepRel::Nsubj {
                return None;
            }
            let pred = tree.head(head)?;
            if tokens[pred].pos != Pos::Noun || !tree.has_child_with_rel(pred, DepRel::Cop) {
                return None;
            }
            let etype = kb.entity_type(kb.entity(mention.entity).notable_type());
            etype
                .matches_head_noun(tokens.lower_of(pred))
                .then_some(CorefLink {
                    noun: pred,
                    mention: mi,
                })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicon::Lexicon;
    use crate::parser::parse;
    use crate::tagger::tag_entities;
    use crate::token::tokenize;
    use surveyor_kb::KnowledgeBaseBuilder;

    fn setup(s: &str) -> (TokenizedSentence, DepTree, Vec<Mention>, KnowledgeBase) {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        let country = b.add_type("country", &["country"], &[]);
        b.add_entity("Snake", animal).finish();
        b.add_entity("France", country).finish();
        b.add_entity("Greece", country).finish();
        let kb = b.build();
        let lex = Lexicon::new();
        let mut toks = tokenize(s);
        lex.tag(&mut toks);
        let tree = parse(&toks).unwrap();
        let mentions = tag_entities(&toks, &kb);
        (toks, tree, mentions, kb)
    }

    #[test]
    fn predicate_nominal_link_found() {
        let (toks, tree, mentions, kb) = setup("Snakes are dangerous animals");
        let links: Vec<_> = predicate_nominal_corefs(&toks, &tree, &mentions, &kb).collect();
        assert_eq!(links.len(), 1);
        assert_eq!(toks.lower_of(links[0].noun), "animals");
        assert_eq!(mentions[links[0].mention].start, 0);
    }

    #[test]
    fn greece_southern_country_coref() {
        let (toks, tree, mentions, kb) = setup("Greece is a southern country");
        let links: Vec<_> = predicate_nominal_corefs(&toks, &tree, &mentions, &kb).collect();
        assert_eq!(links.len(), 1);
        assert_eq!(toks.lower_of(links[0].noun), "country");
    }

    #[test]
    fn attributive_subject_has_no_link() {
        // "southern France is warm": no predicate nominal at all.
        let (toks, tree, mentions, kb) = setup("southern France is warm");
        assert_eq!(mentions.len(), 1);
        let links: Vec<_> = predicate_nominal_corefs(&toks, &tree, &mentions, &kb).collect();
        assert!(links.is_empty());
    }

    #[test]
    fn wrong_type_noun_is_not_coreferent() {
        // "France is a dangerous animal" — head noun mismatch for country.
        let (toks, tree, mentions, kb) = setup("France is a dangerous animal");
        assert_eq!(mentions.len(), 1);
        let links: Vec<_> = predicate_nominal_corefs(&toks, &tree, &mentions, &kb).collect();
        assert!(links.is_empty());
    }

    #[test]
    fn non_subject_mention_has_no_link() {
        let (toks, tree, mentions, kb) = setup("I love France");
        assert_eq!(mentions.len(), 1);
        let links: Vec<_> = predicate_nominal_corefs(&toks, &tree, &mentions, &kb).collect();
        assert!(links.is_empty());
    }
}
