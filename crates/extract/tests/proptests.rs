//! Property-based tests for the extraction pipeline: polarity parity under
//! stacked negations, counter-merge algebra, and version monotonicity.

use proptest::prelude::*;
use surveyor_extract::{
    extract_sentence, EvidenceTable, ExtractionConfig, PatternVersion, Polarity, Statement,
};
use surveyor_kb::{EntityId, KnowledgeBaseBuilder, Property};
use surveyor_nlp::{annotate, Lexicon};

fn kb() -> surveyor_kb::KnowledgeBase {
    let mut b = KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    b.add_entity("Snake", animal).finish();
    b.build()
}

fn statement_strategy() -> impl Strategy<Value = Statement> {
    (
        0u32..16,
        prop_oneof![
            Just("big".to_owned()),
            Just("cute".to_owned()),
            Just("very big".to_owned()),
            Just("dangerous".to_owned())
        ],
        prop::bool::ANY,
    )
        .prop_map(|(e, p, pos)| {
            Statement::new(
                EntityId(e),
                &Property::parse(&p).unwrap(),
                if pos {
                    Polarity::Positive
                } else {
                    Polarity::Negative
                },
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn polarity_parity_follows_negation_count(use_never in prop::bool::ANY, embed_neg in prop::bool::ANY) {
        // Build "I (don't) think that snakes are (never) dangerous."
        let matrix = if embed_neg { "I don't think that" } else { "I think that" };
        let inner = if use_never { "are never dangerous" } else { "are dangerous" };
        let sentence = format!("{matrix} snakes {inner}.");
        let kb = kb();
        let lex = Lexicon::new();
        let doc = annotate(0, &sentence, &kb, &lex);
        let stmts = extract_sentence(&doc.sentences[0], &kb, &ExtractionConfig::paper_final());
        prop_assert_eq!(stmts.len(), 1, "sentence: {}", sentence);
        let negations = usize::from(use_never) + usize::from(embed_neg);
        let expected = if negations % 2 == 0 { Polarity::Positive } else { Polarity::Negative };
        prop_assert_eq!(stmts[0].polarity, expected, "sentence: {}", sentence);
    }

    #[test]
    fn table_merge_is_commutative_and_associative(
        xs in prop::collection::vec(statement_strategy(), 0..40),
        ys in prop::collection::vec(statement_strategy(), 0..40),
        zs in prop::collection::vec(statement_strategy(), 0..40),
    ) {
        let build = |stmts: &[Statement]| {
            let mut t = EvidenceTable::new();
            for s in stmts { t.add(s); }
            t
        };
        let (a, b, c) = (build(&xs), build(&ys), build(&zs));

        // (a + b) + c == a + (b + c)
        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        let mut right_inner = b.clone();
        right_inner.merge(c.clone());
        let mut right = a.clone();
        right.merge(right_inner);
        prop_assert_eq!(&left, &right);

        // a + b == b + a
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn totals_equal_sum_of_counts(xs in prop::collection::vec(statement_strategy(), 0..60)) {
        let mut t = EvidenceTable::new();
        for s in &xs { t.add(s); }
        let by_iter: u64 = t.iter().map(|(_, c)| c.total()).sum();
        prop_assert_eq!(by_iter, t.total_statements());
        prop_assert_eq!(t.total_statements(), xs.len() as u64);
        let (p, n) = t.polarity_totals();
        prop_assert_eq!(p + n, t.total_statements());
    }

    #[test]
    fn v2_superset_of_v4_on_copular_text(adjective in prop_oneof![
        Just("big"), Just("cute"), Just("dangerous")
    ], negated in prop::bool::ANY) {
        // On plain copular sentences the permissive V2 extracts at least
        // whatever the checked V4 extracts.
        let sentence = if negated {
            format!("Snakes are not {adjective}.")
        } else {
            format!("Snakes are {adjective}.")
        };
        let kb = kb();
        let lex = Lexicon::new();
        let doc = annotate(0, &sentence, &kb, &lex);
        let v4 = extract_sentence(&doc.sentences[0], &kb, &PatternVersion::V4.config());
        let v2 = extract_sentence(&doc.sentences[0], &kb, &PatternVersion::V2.config());
        for s in &v4 {
            prop_assert!(v2.contains(s), "v2 missing {s:?} for: {sentence}");
        }
    }
}
