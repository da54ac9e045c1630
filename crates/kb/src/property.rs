//! Subjective properties.
//!
//! Paper §2: "A subjective property in our scenario is an adjective,
//! optionally associated with preceding adverbs" — e.g. `cute`, `densely
//! populated`, `very small`. Properties are compared case-insensitively on
//! their normalized form.

use serde::Serialize;
use std::fmt;

/// A subjective property: an adjective with zero or more preceding adverbs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Property {
    adverbs: Vec<String>,
    adjective: String,
}

impl Property {
    /// A bare-adjective property (`cute`, `big`, …).
    pub fn adjective(adjective: &str) -> Self {
        Self {
            adverbs: Vec::new(),
            adjective: adjective.to_lowercase(),
        }
    }

    /// An adverb-qualified property (`very big`, `densely populated`, …).
    ///
    /// Adverbs are stored in surface order (leftmost first).
    pub fn with_adverbs(adverbs: &[&str], adjective: &str) -> Self {
        Self {
            adverbs: adverbs.iter().map(|a| a.to_lowercase()).collect(),
            adjective: adjective.to_lowercase(),
        }
    }

    /// Parses a space-separated surface form; the final token is the
    /// adjective, everything before it an adverb.
    ///
    /// Returns `None` for an empty string.
    pub fn parse(surface: &str) -> Option<Self> {
        let tokens: Vec<&str> = surface.split_whitespace().collect();
        let (&adjective, adverbs) = tokens.split_last()?;
        Some(Self {
            adverbs: adverbs.iter().map(|a| a.to_lowercase()).collect(),
            adjective: adjective.to_lowercase(),
        })
    }

    /// The head adjective.
    pub fn head(&self) -> &str {
        &self.adjective
    }

    /// The adverbs, leftmost first.
    pub fn adverbs(&self) -> &[String] {
        &self.adverbs
    }

    /// Whether the property is a bare adjective.
    pub fn is_bare(&self) -> bool {
        self.adverbs.is_empty()
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for adverb in &self.adverbs {
            write!(f, "{adverb} ")?;
        }
        write!(f, "{}", self.adjective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_adjective() {
        let p = Property::adjective("Cute");
        assert_eq!(p.head(), "cute");
        assert!(p.is_bare());
        assert_eq!(p.to_string(), "cute");
    }

    #[test]
    fn adverb_qualified() {
        let p = Property::with_adverbs(&["very"], "big");
        assert_eq!(p.to_string(), "very big");
        assert!(!p.is_bare());
        assert_eq!(p.adverbs(), ["very"]);
    }

    #[test]
    fn multiple_adverbs_preserve_order() {
        let p = Property::with_adverbs(&["really", "very"], "small");
        assert_eq!(p.to_string(), "really very small");
    }

    #[test]
    fn parse_round_trips_display() {
        for s in ["cute", "very big", "densely populated", "really very small"] {
            let p = Property::parse(s).unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_empty_is_none() {
        assert_eq!(Property::parse(""), None);
        assert_eq!(Property::parse("   "), None);
    }

    #[test]
    fn comparison_is_case_insensitive_via_normalization() {
        assert_eq!(Property::adjective("BIG"), Property::adjective("big"));
        assert_eq!(
            Property::with_adverbs(&["Very"], "Big"),
            Property::parse("very big").unwrap()
        );
    }

    #[test]
    fn distinct_properties_differ() {
        assert_ne!(Property::adjective("big"), Property::adjective("small"));
        assert_ne!(
            Property::adjective("big"),
            Property::with_adverbs(&["very"], "big")
        );
    }
}
