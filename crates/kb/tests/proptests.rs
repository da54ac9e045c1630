//! Property-based tests for the knowledge base: builder/lookup round
//! trips and property parsing.

use proptest::prelude::*;
use surveyor_kb::kb::normalize_surface;
use surveyor_kb::{KnowledgeBaseBuilder, Property, PropertyId};

fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Z][a-z]{1,10}( [A-Z][a-z]{1,10})?"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn property_parse_display_round_trip(
        adverbs in prop::collection::vec("[a-z]{2,10}", 0..3),
        adjective in "[a-z]{2,12}",
    ) {
        let surface = adverbs
            .iter()
            .map(String::as_str)
            .chain(std::iter::once(adjective.as_str()))
            .collect::<Vec<_>>()
            .join(" ");
        let p = Property::parse(&surface).unwrap();
        prop_assert_eq!(p.to_string(), surface);
        prop_assert_eq!(p.head(), adjective.as_str());
        prop_assert_eq!(p.adverbs().len(), adverbs.len());
    }

    #[test]
    fn interning_round_trips_losslessly(
        adverbs in prop::collection::vec("[a-z]{2,10}", 0..3),
        adjective in "[a-z]{2,12}",
    ) {
        let p = Property::with_adverbs(
            &adverbs.iter().map(String::as_str).collect::<Vec<_>>(),
            &adjective,
        );
        // Property → id → Property loses nothing.
        let id = PropertyId::intern(&p);
        prop_assert_eq!(id.resolve(), p.clone());
        // Interning again (by property or by surface form) is stable.
        prop_assert_eq!(PropertyId::intern(&p), id);
        prop_assert_eq!(PropertyId::intern_surface(&p.to_string()), Some(id));
        prop_assert_eq!(PropertyId::lookup(&p), Some(id));
    }

    #[test]
    fn builder_lookup_round_trip(names in prop::collection::hash_set(name_strategy(), 1..24)) {
        let mut b = KnowledgeBaseBuilder::new();
        let t = b.add_type("thing", &["thing"], &[]);
        let names: Vec<String> = names.into_iter().collect();
        // Skip name sets that collide after normalization.
        let mut norms = std::collections::HashSet::new();
        if !names.iter().all(|n| norms.insert(normalize_surface(n))) {
            return Ok(());
        }
        let mut ids = Vec::new();
        for name in &names {
            ids.push(b.add_entity(name, t).finish());
        }
        let kb = b.build();
        prop_assert_eq!(kb.len(), names.len());
        for (name, id) in names.iter().zip(&ids) {
            prop_assert_eq!(kb.entity_by_name(name), Some(*id));
            prop_assert_eq!(kb.entity(*id).name(), name.as_str());
            // Lookup is case-insensitive.
            prop_assert_eq!(kb.entity_by_name(&name.to_uppercase()), Some(*id));
        }
    }

    #[test]
    fn entities_of_type_partitions_the_kb(
        a_count in 0usize..16,
        b_count in 0usize..16,
    ) {
        let mut b = KnowledgeBaseBuilder::new();
        let ta = b.add_type("alpha", &[], &[]);
        let tb = b.add_type("beta", &[], &[]);
        for i in 0..a_count {
            b.add_entity(&format!("A{i}"), ta).finish();
        }
        for i in 0..b_count {
            b.add_entity(&format!("B{i}"), tb).finish();
        }
        let kb = b.build();
        prop_assert_eq!(kb.entities_of_type(ta).len(), a_count);
        prop_assert_eq!(kb.entities_of_type(tb).len(), b_count);
        prop_assert_eq!(kb.len(), a_count + b_count);
    }

    #[test]
    fn normalize_surface_is_idempotent(s in "[a-zA-Z ]{0,30}") {
        let once = normalize_surface(&s);
        prop_assert_eq!(normalize_surface(&once), once);
    }

    #[test]
    fn ambiguous_aliases_are_never_silently_resolved(name in name_strategy()) {
        let mut b = KnowledgeBaseBuilder::new();
        let t1 = b.add_type("one", &[], &[]);
        let t2 = b.add_type("two", &[], &[]);
        b.add_entity(&name, t1).finish();
        b.add_entity(&format!("{name} Other"), t2).alias(&name).finish();
        let kb = b.build();
        prop_assert!(kb.is_ambiguous(&normalize_surface(&name)));
        prop_assert_eq!(kb.entity_by_name(&name), None);
    }
}
