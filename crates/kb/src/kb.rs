//! The [`KnowledgeBase`] store.

use crate::entity::Entity;
use crate::ids::{EntityId, TypeId};
use rustc_hash::FxHashMap;
use std::sync::OnceLock;

/// An entity type (paper: "most notable type" of a Freebase entity).
///
/// Beyond the name, a type carries two extraction-relevant vocabularies:
///
/// - `head_nouns`: generic nouns that denote the type in text (`"animal"`,
///   `"city"`). The extractor uses them for the predicate-nominal
///   coreference check ("Snakes are dangerous *animals*") and the entity
///   tagger uses them as disambiguation context.
/// - `context_cues`: further words whose presence in a sentence makes a
///   reading of an ambiguous alias as this type more plausible.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityType {
    id: TypeId,
    name: String,
    head_nouns: Vec<String>,
    context_cues: Vec<String>,
}

impl EntityType {
    pub(crate) fn new(
        id: TypeId,
        name: String,
        head_nouns: Vec<String>,
        context_cues: Vec<String>,
    ) -> Self {
        Self {
            id,
            name,
            head_nouns,
            context_cues,
        }
    }

    /// The type id.
    pub fn id(&self) -> TypeId {
        self.id
    }

    /// Type name (lowercase), e.g. `"animal"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Generic nouns denoting the type.
    pub fn head_nouns(&self) -> &[String] {
        &self.head_nouns
    }

    /// Disambiguation cue words.
    pub fn context_cues(&self) -> &[String] {
        &self.context_cues
    }

    /// Whether `word` (lowercase) is a head noun of this type, allowing a
    /// trailing plural `s` ("animals" matches head noun "animal").
    pub fn matches_head_noun(&self, word: &str) -> bool {
        self.head_nouns.iter().any(|h| {
            h == word
                || (word.len() == h.len() + 1
                    && word.ends_with('s')
                    && word.starts_with(h.as_str()))
        })
    }
}

/// Normalizes a surface form for alias lookups: lowercase, collapsed
/// whitespace.
pub fn normalize_surface(s: &str) -> String {
    // One buffer per surface form. ASCII words (nearly all of them) are
    // lowered in place; only a non-ASCII word goes through the allocating
    // Unicode lowering, word by word so that context rules (final sigma)
    // see each word on its own.
    let mut out = String::with_capacity(s.len());
    for word in s.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        if word.is_ascii() {
            let start = out.len();
            out.push_str(word);
            out[start..].make_ascii_lowercase();
        } else {
            out.push_str(&word.to_lowercase());
        }
    }
    out
}

/// The knowledge base: typed entities with alias and type indexes.
///
/// Construction goes through [`crate::KnowledgeBaseBuilder`]; the built
/// store is immutable and cheap to share (`Arc<KnowledgeBase>` in the
/// parallel extraction runner). Types, entities and the per-type entity
/// lists are built with it; the name indexes (surface form → entities,
/// first token → longest form, type name → type) are built by the first
/// name lookup, after which every lookup is an O(1) hash probe. A
/// knowledge base that never links a mention — one loaded from a
/// snapshot — never builds them.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    types: Vec<EntityType>,
    entities: Vec<Entity>,
    by_type: Vec<Vec<EntityId>>,
    names: OnceLock<NameIndex>,
}

/// The name lookups of a [`KnowledgeBase`], derived from its types and
/// entities.
#[derive(Debug, Clone)]
struct NameIndex {
    /// normalized surface form -> candidate entities (ambiguity possible).
    aliases: FxHashMap<String, Vec<EntityId>>,
    /// first token of a normalized surface form -> token count of the
    /// longest form that starts with it (the entity tagger's gate).
    longest_by_first_token: FxHashMap<String, usize>,
    max_alias_tokens: usize,
    /// normalized type name -> type id.
    types: FxHashMap<String, TypeId>,
}

impl NameIndex {
    fn new(types: &[EntityType], entities: &[Entity]) -> Self {
        let mut aliases: FxHashMap<String, Vec<EntityId>> = FxHashMap::default();
        let mut longest_by_first_token: FxHashMap<String, usize> = FxHashMap::default();
        let mut max_alias_tokens = 0;
        for e in entities {
            for form in e.surface_forms() {
                let norm = normalize_surface(form);
                let mut parts = norm.split(' ');
                let first = parts.next().unwrap_or_default();
                let tokens = 1 + parts.count();
                max_alias_tokens = max_alias_tokens.max(tokens);
                match longest_by_first_token.get_mut(first) {
                    Some(longest) => *longest = (*longest).max(tokens),
                    None => {
                        longest_by_first_token.insert(first.to_owned(), tokens);
                    }
                }
                let slot = aliases.entry(norm).or_default();
                if !slot.contains(&e.id()) {
                    slot.push(e.id());
                }
            }
        }
        Self {
            aliases,
            longest_by_first_token,
            max_alias_tokens,
            types: types.iter().map(|t| (t.name.clone(), t.id)).collect(),
        }
    }
}

impl KnowledgeBase {
    pub(crate) fn from_parts(types: Vec<EntityType>, entities: Vec<Entity>) -> Self {
        let mut by_type = vec![Vec::new(); types.len()];
        for e in &entities {
            by_type[e.notable_type().index()].push(e.id());
        }
        Self {
            types,
            entities,
            by_type,
            names: OnceLock::new(),
        }
    }

    /// The name indexes, built by the first caller; racing first callers
    /// wait for the one that builds them.
    fn names(&self) -> &NameIndex {
        self.names
            .get_or_init(|| NameIndex::new(&self.types, &self.entities))
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether the knowledge base holds no entities.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// All entity types.
    pub fn types(&self) -> &[EntityType] {
        &self.types
    }

    /// A type by id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this knowledge base.
    pub fn entity_type(&self, id: TypeId) -> &EntityType {
        &self.types[id.index()]
    }

    /// Looks up a type by (lowercase) name.
    pub fn type_by_name(&self, name: &str) -> Option<TypeId> {
        self.names().types.get(&name.to_lowercase()).copied()
    }

    /// An entity by id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this knowledge base.
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.index()]
    }

    /// All entities.
    pub fn entities(&self) -> &[Entity] {
        &self.entities
    }

    /// Entity ids of a type, in insertion order.
    pub fn entities_of_type(&self, t: TypeId) -> &[EntityId] {
        &self.by_type[t.index()]
    }

    /// Looks up an entity by exact canonical name or alias (normalized).
    /// Returns `None` when the form is unknown **or ambiguous**.
    pub fn entity_by_name(&self, name: &str) -> Option<EntityId> {
        match self.candidates(&normalize_surface(name)) {
            [only] => Some(*only),
            _ => None,
        }
    }

    /// Candidate entities for a normalized surface form (may be empty or,
    /// for ambiguous aliases, hold several entities).
    pub fn candidates(&self, normalized: &str) -> &[EntityId] {
        (self.names().aliases.get(normalized))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Longest alias length in tokens; the entity tagger's match window.
    pub fn max_alias_tokens(&self) -> usize {
        self.names().max_alias_tokens
    }

    /// Token count of the longest normalized surface form whose first
    /// token is `first_token`; `0` when no form starts with it. A window
    /// of more tokens than this cannot be a key of
    /// [`candidates`](Self::candidates), nor can any window whose first
    /// token reads `0` — the entity tagger probes neither.
    pub fn longest_form_from(&self, first_token: &str) -> usize {
        (self.names().longest_by_first_token.get(first_token))
            .copied()
            .unwrap_or(0)
    }

    /// Whether a normalized surface form maps to more than one entity.
    pub fn is_ambiguous(&self, normalized: &str) -> bool {
        self.candidates(normalized).len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KnowledgeBaseBuilder;

    fn kb() -> KnowledgeBase {
        let mut b = KnowledgeBaseBuilder::new();
        let city = b.add_type("city", &["city", "town"], &["downtown", "mayor"]);
        let animal = b.add_type("animal", &["animal"], &["zoo", "wildlife"]);
        b.add_entity("San Francisco", city)
            .alias("SF")
            .attribute("population", 870_000.0)
            .finish();
        b.add_entity("Phoenix", city).finish();
        // Deliberately ambiguous alias: a mythical-bird "entity".
        b.add_entity("Phoenix Bird", animal)
            .alias("Phoenix")
            .finish();
        b.add_entity("Kitten", animal).finish();
        b.build()
    }

    #[test]
    fn basic_lookup() {
        let kb = kb();
        assert_eq!(kb.len(), 4);
        let sf = kb.entity_by_name("san francisco").unwrap();
        assert_eq!(kb.entity(sf).name(), "San Francisco");
        assert_eq!(kb.entity(sf).attribute("population"), Some(870_000.0));
    }

    #[test]
    fn alias_lookup_and_ambiguity() {
        let kb = kb();
        // "SF" resolves uniquely.
        assert!(kb.entity_by_name("sf").is_some());
        // "Phoenix" is both a city (canonical) and an animal alias.
        assert!(kb.is_ambiguous("phoenix"));
        assert_eq!(kb.candidates("phoenix").len(), 2);
        assert_eq!(kb.entity_by_name("phoenix"), None);
    }

    #[test]
    fn entities_of_type_partition() {
        let kb = kb();
        let city = kb.type_by_name("city").unwrap();
        let animal = kb.type_by_name("animal").unwrap();
        assert_eq!(kb.entities_of_type(city).len(), 2);
        assert_eq!(kb.entities_of_type(animal).len(), 2);
        let total: usize = kb
            .types()
            .iter()
            .map(|t| kb.entities_of_type(t.id()).len())
            .sum();
        assert_eq!(total, kb.len());
    }

    #[test]
    fn head_noun_matching_allows_plural() {
        let kb = kb();
        let animal = kb.type_by_name("animal").unwrap();
        assert!(kb.entity_type(animal).matches_head_noun("animal"));
        assert!(kb.entity_type(animal).matches_head_noun("animals"));
        assert!(!kb.entity_type(animal).matches_head_noun("animate"));
    }

    #[test]
    fn max_alias_tokens_reflects_longest_form() {
        let kb = kb();
        assert_eq!(kb.max_alias_tokens(), 2); // "San Francisco", "Phoenix Bird"
    }

    #[test]
    fn first_token_table_bounds_every_surface_form() {
        let kb = kb();
        // "San Francisco" and "SF"; "Phoenix" and "Phoenix Bird".
        assert_eq!(kb.longest_form_from("san"), 2);
        assert_eq!(kb.longest_form_from("sf"), 1);
        assert_eq!(kb.longest_form_from("phoenix"), 2);
        assert_eq!(kb.longest_form_from("kitten"), 1);
        // Second tokens and unknown words start nothing.
        assert_eq!(kb.longest_form_from("francisco"), 0);
        assert_eq!(kb.longest_form_from("bird"), 0);
        assert_eq!(kb.longest_form_from(""), 0);
        // The table is the alias index seen from its first tokens: no form
        // is longer than its entry, and some form is as long.
        let mut longest = 0;
        for entity in kb.entities() {
            for form in entity.surface_forms() {
                let norm = normalize_surface(form);
                let first = norm.split(' ').next().unwrap();
                let tokens = norm.split(' ').count();
                assert!(kb.longest_form_from(first) >= tokens, "{form}");
                longest = longest.max(kb.longest_form_from(first));
            }
        }
        assert_eq!(longest, kb.max_alias_tokens());
    }

    /// Every name lookup of `kb`, on forms that resolve, are ambiguous,
    /// start a longer form, or name nothing.
    fn lookups(kb: &KnowledgeBase) -> impl PartialEq + std::fmt::Debug {
        let forms = ["san francisco", "sf", "phoenix", "kitten", "atlantis"];
        let tokens = ["san", "sf", "phoenix", "francisco", "bird", ""];
        (
            forms.map(|f| kb.candidates(f).to_vec()),
            forms.map(|f| kb.entity_by_name(f)),
            forms.map(|f| kb.is_ambiguous(f)),
            tokens.map(|t| kb.longest_form_from(t)),
            kb.max_alias_tokens(),
            ["city", "Animal", "mountain"].map(|t| kb.type_by_name(t)),
        )
    }

    #[test]
    fn racing_first_lookups_build_one_index_and_agree() {
        let fresh = kb();
        let expected = lookups(&kb());
        let barrier = std::sync::Barrier::new(8);
        let answers: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        lookups(&fresh)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for answer in answers {
            assert_eq!(answer, expected);
        }
    }

    #[test]
    fn normalize_surface_collapses_case_and_space() {
        assert_eq!(normalize_surface("  San   FRANCISCO "), "san francisco");
    }

    #[test]
    fn normalize_surface_matches_the_per_word_definition() {
        // The definition: lower each word on its own, join with single
        // spaces.
        fn per_word(s: &str) -> String {
            s.split_whitespace()
                .map(|w| w.to_lowercase())
                .collect::<Vec<_>>()
                .join(" ")
        }
        for s in [
            "",
            " ",
            "\t\n",
            "Kitten",
            "  San   FRANCISCO ",
            "São PAULO",
            "ŁÓDŹ",
            "ΟΔΟΣ ΑΘΗΝΑΣ", // final sigma, twice
            "Σ ΣΣ aΣ",
            "İstanbul ǅ ẞ",            // lowerings that change byte length
            "Zürich\u{a0}HB\u{2003}x", // non-ASCII white space splits too
            "mixed ÅSCII and ascii WORDS",
            "DŽ\u{301}x",
        ] {
            assert_eq!(normalize_surface(s), per_word(s), "{s:?}");
        }
    }

    #[test]
    fn unknown_forms_resolve_to_empty() {
        let kb = kb();
        assert!(kb.candidates("atlantis").is_empty());
        assert_eq!(kb.entity_by_name("Atlantis"), None);
    }
}
