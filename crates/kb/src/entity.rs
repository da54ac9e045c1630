//! Entity records.

use crate::ids::{EntityId, TypeId};
use std::collections::BTreeMap;

/// An entity stored in the knowledge base.
///
/// Mirrors the slice of Freebase the paper relies on: a canonical name,
/// alternative surface forms (aliases) used by the entity tagger, the *most
/// notable type* ("the knowledge base may actually associate multiple types
/// with an entity but we use only the most notable type", §3), and objective
/// numeric attributes such as population used by the empirical studies.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    id: EntityId,
    name: String,
    aliases: Vec<String>,
    notable_type: TypeId,
    /// Objective attributes keyed by attribute name (e.g. `"population"`).
    /// A `BTreeMap` keeps serialization and iteration deterministic.
    attributes: BTreeMap<String, f64>,
}

impl Entity {
    pub(crate) fn new(
        id: EntityId,
        name: String,
        aliases: Vec<String>,
        notable_type: TypeId,
        attributes: BTreeMap<String, f64>,
    ) -> Self {
        Self {
            id,
            name,
            aliases,
            notable_type,
            attributes,
        }
    }

    /// The entity id.
    pub fn id(&self) -> EntityId {
        self.id
    }

    /// Canonical (display) name, e.g. `"San Francisco"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Alternative surface forms, not including the canonical name.
    pub fn aliases(&self) -> &[String] {
        &self.aliases
    }

    /// All surface forms: canonical name first, then aliases.
    pub fn surface_forms(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.name.as_str()).chain(self.aliases.iter().map(String::as_str))
    }

    /// The most notable type.
    pub fn notable_type(&self) -> TypeId {
        self.notable_type
    }

    /// An objective attribute by name (e.g. `"population"`).
    pub fn attribute(&self, key: &str) -> Option<f64> {
        self.attributes.get(key).copied()
    }

    /// All objective attributes.
    pub fn attributes(&self) -> &BTreeMap<String, f64> {
        &self.attributes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Entity {
        let mut attrs = BTreeMap::new();
        attrs.insert("population".to_owned(), 870_000.0);
        Entity::new(
            EntityId(1),
            "San Francisco".to_owned(),
            vec!["SF".to_owned(), "Frisco".to_owned()],
            TypeId(0),
            attrs,
        )
    }

    #[test]
    fn accessors() {
        let e = sample();
        assert_eq!(e.id(), EntityId(1));
        assert_eq!(e.name(), "San Francisco");
        assert_eq!(e.aliases(), ["SF", "Frisco"]);
        assert_eq!(e.notable_type(), TypeId(0));
        assert_eq!(e.attribute("population"), Some(870_000.0));
        assert_eq!(e.attribute("area"), None);
    }

    #[test]
    fn surface_forms_lead_with_canonical_name() {
        let e = sample();
        let forms: Vec<&str> = e.surface_forms().collect();
        assert_eq!(forms, ["San Francisco", "SF", "Frisco"]);
    }
}
