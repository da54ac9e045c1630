//! Fluent construction of knowledge bases.

use crate::entity::Entity;
use crate::ids::{EntityId, TypeId};
use crate::kb::{EntityType, KnowledgeBase};
use std::collections::BTreeMap;

/// Builder for a [`KnowledgeBase`].
///
/// ```
/// use surveyor_kb::KnowledgeBaseBuilder;
/// let mut b = KnowledgeBaseBuilder::new();
/// let animal = b.add_type("animal", &["animal"], &["zoo"]);
/// b.add_entity("Kitten", animal).alias("kitty").finish();
/// let kb = b.build();
/// assert_eq!(kb.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct KnowledgeBaseBuilder {
    types: Vec<EntityType>,
    entities: Vec<Entity>,
}

impl KnowledgeBaseBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a type of this name (compared lowercased, as
    /// [`add_type`](Self::add_type) stores it) is already registered —
    /// the check a caller holding names from outside the program makes
    /// before `add_type`, which panics on a duplicate.
    pub fn has_type(&self, name: &str) -> bool {
        let name = name.to_lowercase();
        self.types.iter().any(|t| t.name() == name)
    }

    /// Registers an entity type.
    ///
    /// `head_nouns` are generic nouns denoting the type (used by the
    /// coreference check and disambiguation); `context_cues` are further
    /// disambiguation words. All vocabulary is lowercased.
    ///
    /// # Panics
    /// Panics if a type with the same name already exists.
    pub fn add_type(&mut self, name: &str, head_nouns: &[&str], context_cues: &[&str]) -> TypeId {
        assert!(!self.has_type(name), "duplicate type name: {name}");
        let name = name.to_lowercase();
        #[expect(clippy::expect_used, reason = "a KB cannot reach 2^32 types")]
        let id = TypeId(u32::try_from(self.types.len()).expect("type count fits in u32"));
        self.types.push(EntityType::new(
            id,
            name,
            head_nouns.iter().map(|s| s.to_lowercase()).collect(),
            context_cues.iter().map(|s| s.to_lowercase()).collect(),
        ));
        id
    }

    /// Starts an entity record; call [`EntityBuilder::finish`] to commit it.
    ///
    /// # Panics
    /// Panics if `notable_type` was not created by this builder.
    pub fn add_entity<'a>(&'a mut self, name: &str, notable_type: TypeId) -> EntityBuilder<'a> {
        assert!(
            notable_type.index() < self.types.len(),
            "unknown type id {notable_type}"
        );
        EntityBuilder {
            builder: self,
            name: name.to_owned(),
            notable_type,
            aliases: Vec::new(),
            attributes: BTreeMap::new(),
        }
    }

    /// Number of entities added so far.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Finishes construction.
    pub fn build(self) -> KnowledgeBase {
        KnowledgeBase::from_parts(self.types, self.entities)
    }
}

/// In-progress entity record; created by
/// [`KnowledgeBaseBuilder::add_entity`].
#[derive(Debug)]
pub struct EntityBuilder<'a> {
    builder: &'a mut KnowledgeBaseBuilder,
    name: String,
    notable_type: TypeId,
    aliases: Vec<String>,
    attributes: BTreeMap<String, f64>,
}

impl EntityBuilder<'_> {
    /// Adds an alternative surface form.
    pub fn alias(mut self, alias: &str) -> Self {
        self.aliases.push(alias.to_owned());
        self
    }

    /// Adds an objective numeric attribute (e.g. `"population"`).
    pub fn attribute(mut self, key: &str, value: f64) -> Self {
        self.attributes.insert(key.to_owned(), value);
        self
    }

    /// Commits the entity and returns its id.
    pub fn finish(self) -> EntityId {
        #[expect(clippy::expect_used, reason = "a KB cannot reach 2^32 entities")]
        let id =
            EntityId(u32::try_from(self.builder.entities.len()).expect("entity count fits in u32"));
        self.builder.entities.push(Entity::new(
            id,
            self.name,
            self.aliases,
            self.notable_type,
            self.attributes,
        ));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_insertion_order() {
        let mut b = KnowledgeBaseBuilder::new();
        let t = b.add_type("sport", &["sport"], &[]);
        let a = b.add_entity("Soccer", t).finish();
        let c = b.add_entity("Chess", t).finish();
        assert_eq!(a, EntityId(0));
        assert_eq!(c, EntityId(1));
        let kb = b.build();
        assert_eq!(kb.entity(a).name(), "Soccer");
        assert_eq!(kb.entities_of_type(t), [a, c]);
    }

    #[test]
    #[should_panic(expected = "duplicate type name")]
    fn duplicate_type_panics() {
        let mut b = KnowledgeBaseBuilder::new();
        b.add_type("city", &[], &[]);
        b.add_type("City", &[], &[]);
    }

    #[test]
    #[should_panic(expected = "unknown type id")]
    fn unknown_type_panics() {
        let mut b = KnowledgeBaseBuilder::new();
        let _ = b.add_entity("Ghost", TypeId(3));
    }

    #[test]
    fn attributes_and_aliases_round_trip() {
        let mut b = KnowledgeBaseBuilder::new();
        let t = b.add_type("lake", &["lake"], &[]);
        let id = b
            .add_entity("Lake Geneva", t)
            .alias("Lac Leman")
            .attribute("area_km2", 580.0)
            .finish();
        let kb = b.build();
        assert_eq!(kb.entity(id).aliases(), ["Lac Leman"]);
        assert_eq!(kb.entity(id).attribute("area_km2"), Some(580.0));
        assert_eq!(kb.entity_by_name("lac leman"), Some(id));
    }

    #[test]
    fn entity_count_tracks_commits() {
        let mut b = KnowledgeBaseBuilder::new();
        let t = b.add_type("x", &[], &[]);
        assert_eq!(b.entity_count(), 0);
        b.add_entity("A", t).finish();
        assert_eq!(b.entity_count(), 1);
    }
}
