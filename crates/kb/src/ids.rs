//! Compact, type-safe identifiers.
//!
//! Entities and types are referred to by dense `u32` indexes throughout the
//! pipeline; the newtypes below prevent accidentally indexing one table with
//! the other's id — a real hazard in the extraction counters where both
//! appear side by side.

use serde::Serialize;
use std::fmt;

/// Identifier of an entity within a [`crate::KnowledgeBase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct EntityId(pub u32);

/// Identifier of an entity type within a [`crate::KnowledgeBase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct TypeId(pub u32);

impl EntityId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl TypeId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(EntityId(3).to_string(), "e3");
        assert_eq!(TypeId(9).to_string(), "t9");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(EntityId(1) < EntityId(2));
        assert!(TypeId(0) < TypeId(10));
    }

    #[test]
    fn index_round_trip() {
        assert_eq!(EntityId(7).index(), 7);
        assert_eq!(TypeId(5).index(), 5);
    }
}
