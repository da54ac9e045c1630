//! Antonym folding — the §4 design alternative the paper rejected.
//!
//! "We considered taking into account antonym relationships between
//! adjectives when identifying negations, e.g., interpreting the statement
//! *Palo Alto is small* as negation of *Palo Alto is big*. We decided
//! against it … even if two adjectives are registered as antonyms, they
//! usually do not represent the exact opposite of each other. Users who
//! consider a city as not big do not necessarily consider it small."
//!
//! This module implements the rejected alternative so its cost can be
//! *measured*: an antonym lexicon and table-level folding (counts about
//! the negative pole become flipped-polarity counts about the canonical
//! pole). The evaluation crate's ablation shows exactly the failure mode
//! the paper predicted.

use crate::evidence::{EvidenceEntry, EvidenceTable};
use rustc_hash::FxHashMap;
use surveyor_kb::Property;

/// A directed antonym lexicon: each negative-pole adjective maps to its
/// canonical positive-pole partner.
#[derive(Debug, Clone, Default)]
pub struct AntonymLexicon {
    /// negative pole → canonical pole.
    to_canonical: FxHashMap<String, String>,
}

/// WordNet-style core antonym pairs `(canonical, opposite)`.
const CORE_PAIRS: &[(&str, &str)] = &[
    ("big", "small"),
    ("big", "tiny"),
    ("dangerous", "safe"),
    ("dangerous", "harmless"),
    ("cheap", "expensive"),
    ("fast", "slow"),
    ("loud", "quiet"),
    ("young", "old"),
    ("warm", "cold"),
    ("exciting", "boring"),
    ("pretty", "ugly"),
    ("common", "rare"),
    ("modern", "ancient"),
    ("simple", "complex"),
];

impl AntonymLexicon {
    /// An empty lexicon (folding becomes the identity).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The built-in core pairs.
    pub fn core() -> Self {
        let mut lex = Self::default();
        for (canonical, opposite) in CORE_PAIRS {
            lex.add_pair(canonical, opposite);
        }
        lex
    }

    /// Registers `opposite` as the antonym of the canonical `canonical`.
    pub fn add_pair(&mut self, canonical: &str, opposite: &str) {
        self.to_canonical
            .insert(opposite.to_lowercase(), canonical.to_lowercase());
    }

    /// The canonical partner of a negative-pole adjective, if registered.
    pub fn canonical_of(&self, adjective: &str) -> Option<&str> {
        self.to_canonical.get(adjective).map(String::as_str)
    }

    /// Number of registered directed pairs.
    pub fn len(&self) -> usize {
        self.to_canonical.len()
    }

    /// Whether no pairs are registered.
    pub fn is_empty(&self) -> bool {
        self.to_canonical.is_empty()
    }

    /// Folds a whole evidence table: every counter row about a registered
    /// negative pole is merged, polarity-flipped, into its canonical
    /// pole's row ("Palo Alto is small" counts against "Palo Alto is
    /// big"). Only **bare-adjective** properties fold — the paper's second
    /// objection ("adverb-adjective combinations for which it is often
    /// impossible to find any antonyms at all").
    pub fn fold_table(&self, table: &EvidenceTable) -> EvidenceTable {
        let entries = table
            .to_entries()
            .into_iter()
            .map(|entry| {
                if !entry.property.is_bare() {
                    return entry;
                }
                match self.canonical_of(entry.property.head()) {
                    None => entry,
                    Some(canonical) => EvidenceEntry {
                        entity: entry.entity,
                        property: Property::adjective(canonical),
                        // Polarity flip swaps the counters.
                        positive: entry.negative,
                        negative: entry.positive,
                    },
                }
            })
            .collect();
        EvidenceTable::from_entries(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::{Polarity, Statement};
    use surveyor_kb::EntityId;

    fn stmt(prop: &str, polarity: Polarity) -> Statement {
        Statement::new(EntityId(1), &Property::parse(prop).unwrap(), polarity)
    }

    fn table(statements: &[Statement]) -> EvidenceTable {
        let mut table = EvidenceTable::new();
        for statement in statements {
            table.add(statement);
        }
        table
    }

    #[test]
    fn canonicalizes_negative_pole_with_flip() {
        let lex = AntonymLexicon::core();
        let big = Property::adjective("big");
        // "Palo Alto is small" -> negation of "Palo Alto is big" (§4).
        let folded = lex.fold_table(&table(&[stmt("small", Polarity::Positive)]));
        assert_eq!(folded.counts(EntityId(1), &big).negative, 1);
        // "X is not small" -> "X is big" — the dangerous implication.
        let folded = lex.fold_table(&table(&[stmt("small", Polarity::Negative)]));
        assert_eq!(folded.counts(EntityId(1), &big).positive, 1);
        assert_eq!(folded.pair_count(), 1);
    }

    #[test]
    fn canonical_pole_and_unknown_words_pass_through() {
        let lex = AntonymLexicon::core();
        for statements in [
            [stmt("big", Polarity::Positive)],
            [stmt("plaid", Polarity::Negative)],
        ] {
            let table = table(&statements);
            assert_eq!(lex.fold_table(&table), table);
        }
    }

    #[test]
    fn adverb_qualified_properties_are_never_folded() {
        let lex = AntonymLexicon::core();
        let table = table(&[stmt("very small", Polarity::Positive)]);
        assert_eq!(lex.fold_table(&table), table);
    }

    #[test]
    fn fold_table_merges_counters() {
        let lex = AntonymLexicon::core();
        let table = table(&[
            stmt("big", Polarity::Positive),
            stmt("big", Polarity::Positive),
            stmt("small", Polarity::Positive), // -> (big, -)
            stmt("small", Polarity::Negative), // -> (big, +)
        ]);
        let folded = lex.fold_table(&table);
        let counts = folded.counts(EntityId(1), &Property::adjective("big"));
        assert_eq!(counts.positive, 3);
        assert_eq!(counts.negative, 1);
        assert_eq!(folded.pair_count(), 1);
        assert_eq!(folded.total_statements(), 4);
    }

    #[test]
    fn empty_lexicon_is_identity() {
        let lex = AntonymLexicon::empty();
        assert!(lex.is_empty());
        let mut table = EvidenceTable::new();
        table.add(&stmt("small", Polarity::Positive));
        assert_eq!(lex.fold_table(&table), table);
    }

    #[test]
    fn custom_pairs() {
        let mut lex = AntonymLexicon::empty();
        lex.add_pair("calm", "hectic");
        assert_eq!(lex.canonical_of("hectic"), Some("calm"));
        assert_eq!(lex.canonical_of("calm"), None);
        assert_eq!(lex.len(), 1);
    }
}
