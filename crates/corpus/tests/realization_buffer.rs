//! Differential property tests for the allocation-free realization path:
//! the buffered `*_into` writers must produce byte-for-byte the text the
//! old per-sentence `format!` implementation produced, for arbitrary
//! entities, properties, share parameters, and RNG seeds.
//!
//! The reference functions below are verbatim copies of the pre-buffering
//! implementation (per-call `String` allocation, `to_lowercase` tail
//! probe). Both sides draw from clones of the same seeded RNG, so any
//! divergence in draw order or rendering shows up as a mismatch.

use proptest::prelude::*;
use surveyor_corpus::templates::{pluralize, Realizer, SentenceBuf};
use surveyor_prob::Rng;

const ASPECTS: &[&str] = &[
    "parking",
    "tourists",
    "families",
    "beginners",
    "children",
    "business",
];

const DIRECTIONS: &[&str] = &["southern", "northern", "eastern", "western"];

/// The old allocating pluralizer, kept as the reference oracle.
fn ref_pluralize(name: &str) -> String {
    let (head, last) = match name.rfind(' ') {
        Some(i) => (&name[..=i], &name[i + 1..]),
        None => ("", name),
    };
    let lower = last.to_lowercase();
    let plural = if lower.ends_with('s') || lower.ends_with('x') || lower.ends_with("ch") {
        format!("{last}es")
    } else if lower.ends_with('y')
        && !matches!(
            lower.as_bytes().get(lower.len().wrapping_sub(2)),
            Some(b'a' | b'e' | b'i' | b'o' | b'u')
        )
    {
        format!("{}ies", &last[..last.len() - 1])
    } else {
        format!("{last}s")
    };
    format!("{head}{plural}")
}

/// The old `Realizer::statement`: per-template `format!`, early-return
/// dispatch on the share draws.
#[allow(clippy::too_many_arguments)]
fn ref_statement(
    rng: &mut Rng,
    head_noun: &str,
    plural_ok: bool,
    entity: &str,
    property: &str,
    positive: bool,
    extended_verb_share: f64,
    double_negation_share: f64,
) -> String {
    if rng.chance(extended_verb_share.clamp(0.0, 1.0)) {
        return ref_extended_verb(rng, entity, property, positive);
    }
    if rng.chance(double_negation_share.clamp(0.0, 1.0)) {
        return ref_double_negation(rng, entity, property, positive);
    }
    if positive {
        ref_plain_positive(rng, head_noun, plural_ok, entity, property)
    } else {
        ref_plain_negative(rng, head_noun, plural_ok, entity, property)
    }
}

fn ref_plain_positive(
    rng: &mut Rng,
    noun: &str,
    plural_ok: bool,
    entity: &str,
    property: &str,
) -> String {
    let weights: &[(u32, u8)] = if plural_ok {
        &[
            (14, 0),
            (22, 1),
            (8, 2),
            (6, 3),
            (16, 4),
            (10, 5),
            (6, 6),
            (12, 7),
            (6, 8),
        ]
    } else {
        &[(16, 0), (26, 1), (10, 2), (8, 3), (18, 4), (14, 7), (8, 8)]
    };
    let total: u32 = weights.iter().map(|(w, _)| w).sum();
    let mut roll = rng.below(total as usize) as u32;
    let mut id = 0u8;
    for &(w, t) in weights {
        if roll < w {
            id = t;
            break;
        }
        roll -= w;
    }
    match id {
        0 => format!("{entity} is {property}."),
        1 => format!("{entity} is a {property} {noun}."),
        2 => format!("I think that {entity} is {property}."),
        3 => format!("I think {entity} is {property}."),
        4 => format!("I love the {property} {entity}."),
        5 => format!("{} are {property}.", ref_pluralize(entity)),
        6 => format!(
            "{} are {property} {}.",
            ref_pluralize(entity),
            ref_pluralize(noun)
        ),
        7 => format!("We saw the {property} {entity}."),
        _ => format!("{entity} is a {noun} that is {property}."),
    }
}

fn ref_plain_negative(
    rng: &mut Rng,
    noun: &str,
    plural_ok: bool,
    entity: &str,
    property: &str,
) -> String {
    let choice = if plural_ok {
        rng.below(6)
    } else {
        rng.below(5)
    };
    match choice {
        0 => format!("{entity} is not {property}."),
        1 => format!("{entity} is not a {property} {noun}."),
        2 => format!("I don't think that {entity} is {property}."),
        3 => format!("I do not believe {entity} is {property}."),
        4 => format!("{entity} is never {property}."),
        _ => format!("{} are not {property}.", ref_pluralize(entity)),
    }
}

fn ref_extended_verb(rng: &mut Rng, entity: &str, property: &str, positive: bool) -> String {
    match (positive, rng.below(3)) {
        (true, 0) => format!("I find {entity} {property}."),
        (true, 1) => format!("{entity} is considered {property}."),
        (true, _) => format!("{entity} seems {property}."),
        (false, 0) => format!("{entity} does not seem {property}."),
        (false, 1) => format!("{entity} is not considered {property}."),
        (false, _) => format!("I don't find {entity} {property}."),
    }
}

fn ref_double_negation(rng: &mut Rng, entity: &str, property: &str, positive: bool) -> String {
    if positive {
        if rng.chance(0.5) {
            format!("I don't think that {entity} is never {property}.")
        } else {
            format!("I do not believe {entity} is never {property}.")
        }
    } else {
        format!("I don't think that {entity} is {property}.")
    }
}

fn ref_aspect_noise(rng: &mut Rng, entity: &str) -> String {
    let aspect = ASPECTS[rng.below(ASPECTS.len())];
    let adjective = if rng.chance(0.5) { "good" } else { "bad" };
    format!("{entity} is {adjective} for {aspect}.")
}

fn ref_part_of_noise(rng: &mut Rng, entity: &str) -> String {
    let direction = DIRECTIONS[rng.below(DIRECTIONS.len())];
    let predicate = if rng.chance(0.5) { "warm" } else { "cold" };
    let season = if rng.chance(0.5) { "summer" } else { "winter" };
    format!("{direction} {entity} is {predicate} in the {season}.")
}

fn ref_filler(rng: &mut Rng, entity: &str) -> String {
    match rng.below(4) {
        0 => format!("I visited {entity} during the summer."),
        1 => format!("People love {entity}."),
        2 => format!("We saw {entity} at the weekend."),
        _ => format!("{entity} is in the north."),
    }
}

/// ASCII names: the buffered pluralizer's byte-tail probe is equivalent
/// to the old `to_lowercase` probe exactly on ASCII, which is the only
/// alphabet the corpus generator emits.
fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z]{1,12}( [A-Za-z]{1,12})?"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pluralize_matches_reference(name in name_strategy()) {
        prop_assert_eq!(pluralize(&name), ref_pluralize(&name));
    }

    #[test]
    fn statements_match_reference(
        seed in 0u64..u64::MAX,
        head_noun in "[a-z]{2,10}",
        plural_ok in prop::bool::ANY,
        entity in name_strategy(),
        property in "[a-z]{2,10}",
        positive in prop::bool::ANY,
        evs in 0.0f64..1.0,
        dns in 0.0f64..1.0,
    ) {
        let realizer = Realizer::new(&head_noun, plural_ok);
        let mut new_rng = Rng::new(seed);
        let mut ref_rng = new_rng.clone();
        for _ in 0..8 {
            let mut buf = SentenceBuf::new();
            realizer.statement_into(
                &mut new_rng, &entity, &property, positive, evs, dns, &mut buf,
            );
            let want = ref_statement(
                &mut ref_rng, &head_noun, plural_ok, &entity, &property, positive, evs, dns,
            );
            prop_assert_eq!(buf.sentence(0), want.as_str());
        }
    }

    #[test]
    fn buffered_accumulation_matches_reference_sequence(
        seed in 0u64..u64::MAX,
        entity in name_strategy(),
        property in "[a-z]{2,10}",
        count in 1usize..12,
    ) {
        // Many statements into ONE reused buffer: each recorded sentence
        // must equal the corresponding reference string, proving commit
        // bookkeeping never bleeds bytes across sentences.
        let realizer = Realizer::new("animal", true);
        let mut new_rng = Rng::new(seed);
        let mut ref_rng = new_rng.clone();
        let mut buf = SentenceBuf::new();
        let mut want = Vec::with_capacity(count);
        for i in 0..count {
            let positive = i % 2 == 0;
            realizer.statement_into(
                &mut new_rng, &entity, &property, positive, 0.2, 0.1, &mut buf,
            );
            want.push(ref_statement(
                &mut ref_rng, "animal", true, &entity, &property, positive, 0.2, 0.1,
            ));
        }
        prop_assert_eq!(buf.len(), count);
        for (i, want) in want.iter().enumerate() {
            prop_assert_eq!(buf.sentence(i), want.as_str());
        }
    }

    #[test]
    fn noise_and_filler_match_reference(seed in 0u64..u64::MAX, entity in name_strategy()) {
        let realizer = Realizer::new("city", false);
        let mut new_rng = Rng::new(seed);
        let mut ref_rng = new_rng.clone();
        let mut buf = SentenceBuf::new();
        realizer.aspect_noise_into(&mut new_rng, &entity, &mut buf);
        realizer.part_of_noise_into(&mut new_rng, &entity, &mut buf);
        realizer.filler_into(&mut new_rng, &entity, &mut buf);
        prop_assert_eq!(buf.sentence(0), ref_aspect_noise(&mut ref_rng, &entity).as_str());
        prop_assert_eq!(buf.sentence(1), ref_part_of_noise(&mut ref_rng, &entity).as_str());
        prop_assert_eq!(buf.sentence(2), ref_filler(&mut ref_rng, &entity).as_str());
    }
}
