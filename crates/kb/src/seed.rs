//! Seed datasets for every experiment in the paper.
//!
//! The paper's knowledge base is a Freebase extension; we ship determinstic
//! seed builders for each domain the evaluation touches:
//!
//! - [`california_cities`]: 461 Californian cities with population counts
//!   (the §2 empirical study / Figure 3). A core of real cities anchors the
//!   population distribution; the long tail is synthesized, matching the
//!   paper's observation that most Californian cities are small.
//! - [`table2_kb`] / [`table2_matrix`]: the five evaluation domains of
//!   Table 2 (Animals, Celebrities, Cities, Professions, Sports), 20
//!   entities each, including the exact animal list of Figure 10.
//! - [`wealthy_countries`], [`swiss_lakes`], [`british_mountains`]: the
//!   Appendix A domains with their objective attributes.
//! - [`long_tail_kb`]: randomly named long-tail domains reproducing the
//!   Appendix D setting ("Hiatal hernia", "Maria Lusitano", "Ford Cougar" —
//!   obscure entities nobody writes about).

use crate::builder::KnowledgeBaseBuilder;
use crate::ids::TypeId;
use crate::kb::KnowledgeBase;
use surveyor_prob::Rng;

/// Attribute key: city population.
pub const ATTR_POPULATION: &str = "population";
/// Attribute key: GDP per capita in USD.
pub const ATTR_GDP_PER_CAPITA: &str = "gdp_per_capita";
/// Attribute key: lake area in square kilometers.
pub const ATTR_AREA_KM2: &str = "area_km2";
/// Attribute key: relative mountain height in meters.
pub const ATTR_RELATIVE_HEIGHT_M: &str = "relative_height_m";

/// Real Californian cities anchoring the Fig. 3 population distribution.
const CA_CITY_ANCHORS: &[(&str, f64)] = &[
    ("Los Angeles", 3_898_747.0),
    ("San Diego", 1_386_932.0),
    ("San Jose", 1_013_240.0),
    ("San Francisco", 873_965.0),
    ("Fresno", 542_107.0),
    ("Sacramento", 524_943.0),
    ("Long Beach", 466_742.0),
    ("Oakland", 440_646.0),
    ("Bakersfield", 403_455.0),
    ("Anaheim", 346_824.0),
    ("Stockton", 320_804.0),
    ("Riverside", 314_998.0),
    ("Santa Ana", 310_227.0),
    ("Irvine", 307_670.0),
    ("Chula Vista", 275_487.0),
    ("Fremont", 230_504.0),
    ("Santa Clarita", 228_673.0),
    ("San Bernardino", 222_101.0),
    ("Modesto", 218_464.0),
    ("Fontana", 208_393.0),
    ("Moreno Valley", 208_634.0),
    ("Glendale", 196_543.0),
    ("Huntington Beach", 198_711.0),
    ("Oxnard", 202_063.0),
    ("Rancho Cucamonga", 174_453.0),
    ("Santa Rosa", 178_127.0),
    ("Oceanside", 174_068.0),
    ("Elk Grove", 176_124.0),
    ("Garden Grove", 171_949.0),
    ("Corona", 157_136.0),
    ("Hayward", 162_954.0),
    ("Lancaster", 173_516.0),
    ("Palmdale", 169_450.0),
    ("Sunnyvale", 155_805.0),
    ("Pomona", 151_713.0),
    ("Escondido", 151_038.0),
    ("Torrance", 147_067.0),
    ("Roseville", 147_773.0),
    ("Pasadena", 138_699.0),
    ("Fullerton", 143_617.0),
    ("Visalia", 141_384.0),
    ("Santa Monica", 93_076.0),
    ("Berkeley", 124_321.0),
    ("Palo Alto", 68_572.0),
    ("Cupertino", 60_381.0),
    ("Mountain View", 82_376.0),
    ("Redwood City", 84_292.0),
    ("Santa Barbara", 88_665.0),
    ("Davis", 66_850.0),
    ("Monterey", 30_218.0),
    ("Sausalito", 7_269.0),
    ("Carmel", 3_220.0),
    ("Ferndale", 1_371.0),
    ("Amador City", 200.0),
    ("Vernon", 222.0),
];

const NAME_PREFIXES: &[&str] = &[
    "Oak", "Pine", "Cedar", "Maple", "Willow", "River", "Lake", "Hill", "Stone", "Clear", "Fair",
    "Glen", "Spring", "Sun", "Moon", "Gold", "Silver", "Iron", "Crystal", "Shadow", "Bright",
    "North", "South", "East", "West", "Mill", "Fox", "Eagle", "Deer", "Bear", "Elm", "Ash",
    "Birch", "Rose", "Sage", "Canyon", "Mesa", "Vista", "Sierra", "Palm",
];

const NAME_SUFFIXES: &[&str] = &[
    "ville", "dale", "field", "wood", "brook", "ton", "burg", "port", "haven", "crest", "ridge",
    "grove", "ford", "mont", "view", "side", "bury", "ham", "worth", "shire",
];

/// Deterministically generates a unique synthetic place/entity name.
fn synth_name(rng: &mut Rng, used: &mut std::collections::HashSet<String>) -> String {
    loop {
        let prefix = NAME_PREFIXES[rng.below(NAME_PREFIXES.len())];
        let suffix = NAME_SUFFIXES[rng.below(NAME_SUFFIXES.len())];
        let name = if rng.chance(0.15) {
            // Two-word form, e.g. "Oak Ridge Springs" style variance.
            let second = NAME_SUFFIXES[rng.below(NAME_SUFFIXES.len())];
            format!(
                "{prefix}{suffix} {}{second}",
                NAME_PREFIXES[rng.below(NAME_PREFIXES.len())]
            )
        } else {
            format!("{prefix}{suffix}")
        };
        if used.insert(name.clone()) {
            return name;
        }
    }
}

/// The 461-city Californian KB of the §2 empirical study.
///
/// Returns the knowledge base and the `city` type id. Deterministic for a
/// given `seed` (the anchors are fixed; only tail names/populations are
/// synthesized).
pub fn california_cities(seed: u64) -> (KnowledgeBase, TypeId) {
    let mut b = KnowledgeBaseBuilder::new();
    let city = b.add_type(
        "city",
        &["city", "town"],
        &["california", "downtown", "mayor"],
    );
    let mut used: std::collections::HashSet<String> = CA_CITY_ANCHORS
        .iter()
        .map(|(n, _)| (*n).to_owned())
        .collect();
    for (name, pop) in CA_CITY_ANCHORS {
        b.add_entity(name, city)
            .attribute(ATTR_POPULATION, *pop)
            .finish();
    }
    let mut rng = Rng::new(seed);
    while b.entity_count() < 461 {
        let name = synth_name(&mut rng, &mut used);
        // Log-uniform population between 250 and 150k: most CA cities are
        // small, matching Fig. 3's x-axis span.
        let log_pop = rng.uniform(250.0_f64.ln(), 150_000.0_f64.ln());
        b.add_entity(&name, city)
            .attribute(ATTR_POPULATION, log_pop.exp().round())
            .finish();
    }
    (b.build(), city)
}

/// The exact 20 animals of paper Figure 10.
pub const FIG10_ANIMALS: &[&str] = &[
    "Pony",
    "Spider",
    "Koala",
    "Rat",
    "Scorpion",
    "Crow",
    "Kitten",
    "Monkey",
    "Octopus",
    "Beaver",
    "Goose",
    "Tiger",
    "Moose",
    "Frog",
    "Grizzly bear",
    "Alligator",
    "Puppy",
    "Camel",
    "White shark",
    "Lion",
];

const CELEBRITIES: &[&str] = &[
    "Ava Sterling",
    "Marco Venturi",
    "Lena Okafor",
    "Dmitri Volkov",
    "Sofia Marchetti",
    "Jasper Quinn",
    "Priya Raman",
    "Hugo Lindqvist",
    "Mei Tanaka",
    "Rafael Duarte",
    "Clara Beaumont",
    "Niko Petrov",
    "Imani Diallo",
    "Felix Gruber",
    "Yara Haddad",
    "Oscar Nilsson",
    "Talia Rosen",
    "Mateo Vargas",
    "Ingrid Solberg",
    "Kenji Mori",
];

const WORLD_CITIES: &[(&str, f64)] = &[
    ("Tokyo", 13_960_000.0),
    ("Mexico City", 9_209_944.0),
    ("Mumbai", 12_442_373.0),
    ("Shanghai", 24_870_895.0),
    ("Cairo", 9_540_000.0),
    ("London", 8_982_000.0),
    ("Paris", 2_161_000.0),
    ("New York", 8_336_817.0),
    ("Reykjavik", 131_136.0),
    ("Zurich", 421_878.0),
    ("Vienna", 1_897_000.0),
    ("Lagos", 14_862_000.0),
    ("Singapore", 5_685_807.0),
    ("Amsterdam", 872_680.0),
    ("Marrakesh", 928_850.0),
    ("Wellington", 212_700.0),
    ("Quebec City", 531_902.0),
    ("Ljubljana", 295_504.0),
    ("Porto", 231_962.0),
    ("Bruges", 118_284.0),
];

const PROFESSIONS: &[&str] = &[
    "Firefighter",
    "Accountant",
    "Surgeon",
    "Teacher",
    "Astronaut",
    "Librarian",
    "Stuntman",
    "Nurse",
    "Electrician",
    "Fisherman",
    "Archivist",
    "Pilot",
    "Miner",
    "Chef",
    "Actuary",
    "Paramedic",
    "Welder",
    "Farmer",
    "Lifeguard",
    "Blacksmith",
];

const SPORTS: &[&str] = &[
    "Soccer",
    "Chess",
    "Boxing",
    "Skydiving",
    "Golf",
    "Rugby",
    "Curling",
    "Surfing",
    "Marathon",
    "Cricket",
    "Fencing",
    "Rock climbing",
    "Table tennis",
    "Hockey",
    "Snowboarding",
    "Darts",
    "Judo",
    "Rowing",
    "Badminton",
    "Motocross",
];

/// Table 2: the evaluated property-type matrix — five types, five subjective
/// properties each.
pub fn table2_matrix() -> Vec<(&'static str, [&'static str; 5])> {
    vec![
        ("animal", ["dangerous", "cute", "big", "friendly", "deadly"]),
        ("celebrity", ["cool", "crazy", "pretty", "quiet", "young"]),
        ("city", ["big", "calm", "cheap", "hectic", "multicultural"]),
        (
            "profession",
            ["dangerous", "exciting", "rare", "solid", "vital"],
        ),
        (
            "sport",
            ["addictive", "boring", "dangerous", "fast", "popular"],
        ),
    ]
}

/// The evaluation knowledge base behind Table 3 / Figures 10-12: the five
/// Table 2 types with 20 curated entities each (the Figure 10 animal list
/// verbatim).
pub fn table2_kb() -> KnowledgeBase {
    table2_kb_extended(0, 0)
}

/// The Table 2 knowledge base extended with `background_per_type`
/// synthetic long-tail entities per type.
///
/// The paper's knowledge base is vast: the ρ-threshold counts statements
/// over *all* entities of a type, while the evaluation judges only 20
/// well-known ones. Background entities recreate that separation — they
/// soak up statements so combinations clear ρ even when individual
/// evaluation entities have few or none. The curated 20 are always the
/// first entities of each type.
pub fn table2_kb_extended(background_per_type: usize, seed: u64) -> KnowledgeBase {
    let mut b = KnowledgeBaseBuilder::new();
    let animal = b.add_type(
        "animal",
        &["animal", "creature"],
        &["zoo", "wildlife", "pet"],
    );
    let celebrity = b.add_type(
        "celebrity",
        &["celebrity", "star"],
        &["movie", "famous", "stage"],
    );
    let city = b.add_type(
        "city",
        &["city", "town"],
        &["downtown", "mayor", "district"],
    );
    let profession = b.add_type("profession", &["profession", "job"], &["career", "work"]);
    let sport = b.add_type("sport", &["sport", "game"], &["match", "league", "players"]);
    for name in FIG10_ANIMALS {
        b.add_entity(name, animal).finish();
    }
    for name in CELEBRITIES {
        b.add_entity(name, celebrity).finish();
    }
    for (name, pop) in WORLD_CITIES {
        b.add_entity(name, city)
            .attribute(ATTR_POPULATION, *pop)
            .finish();
    }
    for name in PROFESSIONS {
        b.add_entity(name, profession).finish();
    }
    for name in SPORTS {
        b.add_entity(name, sport).finish();
    }
    if background_per_type > 0 {
        let mut rng = Rng::new(seed ^ 0x7ab2_e11e);
        let mut used: std::collections::HashSet<String> =
            b_entity_names(&[FIG10_ANIMALS, CELEBRITIES, PROFESSIONS, SPORTS])
                .chain(WORLD_CITIES.iter().map(|(n, _)| (*n).to_owned()))
                .collect();
        for t in [animal, celebrity, city, profession, sport] {
            for _ in 0..background_per_type {
                let name = synth_name(&mut rng, &mut used);
                b.add_entity(&name, t).finish();
            }
        }
    }
    b.build()
}

fn b_entity_names<'a>(lists: &'a [&'a [&'a str]]) -> impl Iterator<Item = String> + 'a {
    lists.iter().flat_map(|l| l.iter().map(|n| (*n).to_owned()))
}

const COUNTRIES: &[(&str, f64)] = &[
    ("Luxembourg", 113_196.0),
    ("Norway", 102_465.0),
    ("Qatar", 93_352.0),
    ("Switzerland", 84_669.0),
    ("Australia", 64_863.0),
    ("Denmark", 59_795.0),
    ("Singapore City", 56_284.0),
    ("United States", 53_042.0),
    ("Sweden", 60_430.0),
    ("Netherlands", 50_793.0),
    ("Austria", 50_547.0),
    ("Canada", 52_305.0),
    ("Germany", 46_268.0),
    ("France", 42_560.0),
    ("Japan", 38_634.0),
    ("Italy", 35_370.0),
    ("Spain", 29_863.0),
    ("South Korea", 25_890.0),
    ("Portugal", 21_618.0),
    ("Greece", 21_843.0),
    ("Poland", 13_648.0),
    ("Hungary", 13_404.0),
    ("Turkey", 10_721.0),
    ("Mexico", 10_307.0),
    ("Brazil", 11_208.0),
    ("China", 6_807.0),
    ("Thailand", 5_779.0),
    ("Indonesia", 3_475.0),
    ("India", 1_498.0),
    ("Vietnam", 1_911.0),
    ("Nigeria", 2_979.0),
    ("Kenya", 1_245.0),
    ("Bangladesh", 958.0),
    ("Ethiopia", 505.0),
    ("Madagascar", 463.0),
    ("Nepal", 694.0),
    ("Mali", 715.0),
    ("Chad", 1_046.0),
    ("Niger", 415.0),
    ("Malawi", 226.0),
];

/// Appendix A: countries with IMF-2013-style GDP per capita.
pub fn wealthy_countries() -> (KnowledgeBase, TypeId) {
    let mut b = KnowledgeBaseBuilder::new();
    let country = b.add_type("country", &["country", "nation"], &["economy", "capital"]);
    for (name, gdp) in COUNTRIES {
        b.add_entity(name, country)
            .attribute(ATTR_GDP_PER_CAPITA, *gdp)
            .finish();
    }
    (b.build(), country)
}

const SWISS_LAKES: &[(&str, f64)] = &[
    ("Lake Geneva", 580.0),
    ("Lake Constance", 536.0),
    ("Lake Neuchatel", 218.0),
    ("Lake Maggiore", 212.0),
    ("Lake Lucerne", 114.0),
    ("Lake Zurich", 88.0),
    ("Lake Lugano", 49.0),
    ("Lake Thun", 48.0),
    ("Lake Biel", 39.0),
    ("Lake Zug", 38.0),
    ("Lake Brienz", 30.0),
    ("Lake Walen", 24.0),
    ("Lake Murten", 23.0),
    ("Lake Sempach", 14.0),
    ("Lake Hallwil", 10.0),
    ("Lake Greifen", 8.5),
    ("Lake Sarnen", 7.4),
    ("Lake Aegeri", 7.2),
    ("Lake Baldegg", 5.2),
    ("Lake Pfaeffikon", 3.3),
    ("Lake Lauerz", 3.1),
    ("Lake Sihl", 10.8),
    ("Lake Klontal", 3.3),
    ("Lake Oeschinen", 1.1),
    ("Lake Lungern", 2.0),
    ("Lake Cauma", 0.1),
    ("Lake Blausee", 0.007),
    ("Lake Seealp", 0.13),
    ("Lake Moesa", 0.2),
    ("Lake Melch", 0.54),
];

/// Appendix A: Swiss lakes with areas in square kilometers. The named
/// lakes are padded with small synthetic alpine lakes (most Swiss lakes
/// are tiny), giving the model a realistic long tail to learn from.
pub fn swiss_lakes() -> (KnowledgeBase, TypeId) {
    let mut b = KnowledgeBaseBuilder::new();
    let lake = b.add_type("lake", &["lake"], &["shore", "water"]);
    for (name, area) in SWISS_LAKES {
        b.add_entity(name, lake)
            .attribute(ATTR_AREA_KM2, *area)
            .finish();
    }
    let mut rng = Rng::new(0x1a4e);
    let mut used: std::collections::HashSet<String> =
        SWISS_LAKES.iter().map(|(n, _)| (*n).to_owned()).collect();
    while b.entity_count() < 80 {
        let base = synth_name(&mut rng, &mut used);
        let name = format!("Lake {base}");
        if !used.insert(name.clone()) {
            continue;
        }
        let area = rng.uniform(0.01_f64.ln(), 8.0_f64.ln()).exp();
        b.add_entity(&name, lake)
            .attribute(ATTR_AREA_KM2, (area * 100.0).round() / 100.0)
            .finish();
    }
    (b.build(), lake)
}

const BRITISH_MOUNTAINS: &[(&str, f64)] = &[
    ("Ben Nevis", 1_345.0),
    ("Ben Macdui", 950.0),
    ("Snowdon", 1_038.0),
    ("Scafell Pike", 912.0),
    ("Carrauntoohil", 1_039.0),
    ("Slieve Donard", 822.0),
    ("Ben Lomond", 833.0),
    ("Helvellyn", 712.0),
    ("Tryfan", 917.0),
    ("Cadair Idris", 893.0),
    ("Pen y Fan", 886.0),
    ("Goat Fell", 874.0),
    ("The Cheviot", 815.0),
    ("Skiddaw", 931.0),
    ("Cross Fell", 893.0),
    ("Plynlimon", 752.0),
    ("Merrick", 843.0),
    ("Kinder Scout", 636.0),
    ("Black Mountain", 802.0),
    ("Mam Tor", 517.0),
    ("Worcestershire Beacon", 425.0),
    ("Leith Hill", 294.0),
    ("Cleeve Hill", 330.0),
    ("Dunkery Beacon", 519.0),
    ("Yes Tor", 619.0),
    ("Holyhead Mountain", 220.0),
    ("Arnside Knott", 159.0),
    ("Box Hill", 224.0),
    ("Bredon Hill", 299.0),
    ("Win Green", 277.0),
];

/// Appendix A: mountains on the British Isles with relative heights,
/// padded with synthetic minor hills (the British Isles have far more
/// low hills than mountains).
pub fn british_mountains() -> (KnowledgeBase, TypeId) {
    let mut b = KnowledgeBaseBuilder::new();
    let mountain = b.add_type("mountain", &["mountain", "peak"], &["summit", "climb"]);
    for (name, height) in BRITISH_MOUNTAINS {
        b.add_entity(name, mountain)
            .attribute(ATTR_RELATIVE_HEIGHT_M, *height)
            .finish();
    }
    let mut rng = Rng::new(0xbeac);
    let mut used: std::collections::HashSet<String> = BRITISH_MOUNTAINS
        .iter()
        .map(|(n, _)| (*n).to_owned())
        .collect();
    while b.entity_count() < 80 {
        let base = synth_name(&mut rng, &mut used);
        let name = if rng.chance(0.5) {
            format!("{base} Hill")
        } else {
            format!("{base} Fell")
        };
        if !used.insert(name.clone()) {
            continue;
        }
        let height = rng.uniform(90.0, 650.0).round();
        b.add_entity(&name, mountain)
            .attribute(ATTR_RELATIVE_HEIGHT_M, height)
            .finish();
    }
    (b.build(), mountain)
}

/// Long-tail domain nouns for the Appendix D random-sample study.
const LONG_TAIL_DOMAINS: &[(&str, &str)] = &[
    ("disease", "condition"),
    ("artist", "painter"),
    ("car model", "vehicle"),
    ("novel", "book"),
    ("village", "settlement"),
    ("beetle", "insect"),
    ("asteroid", "rock"),
    ("enzyme", "protein"),
    ("orchid", "flower"),
    ("shipwreck", "wreck"),
    ("dialect", "language"),
    ("comet", "object"),
    ("fungus", "organism"),
    ("manuscript", "document"),
    ("glacier", "icefield"),
    ("synthesizer", "instrument"),
    ("moth", "insect"),
    ("fresco", "painting"),
    ("typeface", "font"),
    ("locomotive", "engine"),
];

/// Adjective pool for synthesized long-tail properties.
pub const ADJECTIVE_POOL: &[&str] = &[
    "rare",
    "major",
    "obscure",
    "famous",
    "fragile",
    "robust",
    "ancient",
    "modern",
    "beautiful",
    "dull",
    "complex",
    "simple",
    "valuable",
    "cheap",
    "dangerous",
    "harmless",
    "big",
    "small",
    "fast",
    "slow",
    "loud",
    "quiet",
    "popular",
    "weird",
    "elegant",
    "remote",
    "common",
    "brittle",
    "vivid",
    "gloomy",
];

/// Builds a long-tail knowledge base of `num_types` obscure domains with
/// `entities_per_type` synthetic entities each (Appendix D; also the bulk of
/// the Figure 9 snapshot statistics).
pub fn long_tail_kb(num_types: usize, entities_per_type: usize, seed: u64) -> KnowledgeBase {
    let mut b = KnowledgeBaseBuilder::new();
    let mut rng = Rng::new(seed);
    let mut used = std::collections::HashSet::new();
    for i in 0..num_types {
        let (base, head2) = LONG_TAIL_DOMAINS[i % LONG_TAIL_DOMAINS.len()];
        let name = if i < LONG_TAIL_DOMAINS.len() {
            base.to_owned()
        } else {
            format!("{base} group {}", i / LONG_TAIL_DOMAINS.len())
        };
        // Head noun is the final word of the type name ("car model" -> "model").
        let head = base.rsplit(' ').next().unwrap_or(base);
        let t = b.add_type(&name, &[head, head2], &[]);
        for _ in 0..entities_per_type {
            let entity_name = synth_name(&mut rng, &mut used);
            b.add_entity(&entity_name, t).finish();
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn california_has_461_cities() {
        let (kb, city) = california_cities(7);
        assert_eq!(kb.len(), 461);
        assert_eq!(kb.entities_of_type(city).len(), 461);
        // Every city has a population.
        assert!(kb
            .entities()
            .iter()
            .all(|e| e.attribute(ATTR_POPULATION).is_some()));
    }

    #[test]
    fn california_is_deterministic_per_seed() {
        let (a, _) = california_cities(42);
        let (b, _) = california_cities(42);
        let names_a: Vec<&str> = a.entities().iter().map(|e| e.name()).collect();
        let names_b: Vec<&str> = b.entities().iter().map(|e| e.name()).collect();
        assert_eq!(names_a, names_b);
        let (c, _) = california_cities(43);
        let names_c: Vec<&str> = c.entities().iter().map(|e| e.name()).collect();
        assert_ne!(names_a, names_c);
    }

    #[test]
    fn california_population_spans_orders_of_magnitude() {
        let (kb, _) = california_cities(7);
        let pops: Vec<f64> = kb
            .entities()
            .iter()
            .map(|e| e.attribute(ATTR_POPULATION).unwrap())
            .collect();
        let max = pops.iter().cloned().fold(0.0, f64::max);
        let min = pops.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 3_000_000.0);
        assert!(min < 1_000.0);
    }

    #[test]
    fn table2_kb_has_five_types_of_twenty() {
        let kb = table2_kb();
        assert_eq!(kb.types().len(), 5);
        assert_eq!(kb.len(), 100);
        for t in kb.types() {
            assert_eq!(kb.entities_of_type(t.id()).len(), 20, "type {}", t.name());
        }
    }

    #[test]
    fn table2_matrix_matches_paper() {
        let matrix = table2_matrix();
        assert_eq!(matrix.len(), 5);
        let kb = table2_kb();
        for (type_name, props) in &matrix {
            assert!(kb.type_by_name(type_name).is_some(), "missing {type_name}");
            assert_eq!(props.len(), 5);
        }
        // Spot-check the paper's rows.
        assert_eq!(
            matrix[0].1,
            ["dangerous", "cute", "big", "friendly", "deadly"]
        );
        assert_eq!(
            matrix[4].1,
            ["addictive", "boring", "dangerous", "fast", "popular"]
        );
    }

    #[test]
    fn fig10_animals_are_present() {
        let kb = table2_kb();
        for name in FIG10_ANIMALS {
            assert!(kb.entity_by_name(name).is_some(), "missing animal {name}");
        }
        assert_eq!(FIG10_ANIMALS.len(), 20);
    }

    #[test]
    fn appendix_a_domains_have_attributes() {
        let (countries, _) = wealthy_countries();
        assert!(countries.len() >= 30);
        assert!(countries
            .entities()
            .iter()
            .all(|e| e.attribute(ATTR_GDP_PER_CAPITA).is_some()));
        let (lakes, _) = swiss_lakes();
        assert!(lakes.len() >= 25);
        assert!(lakes
            .entities()
            .iter()
            .all(|e| e.attribute(ATTR_AREA_KM2).is_some()));
        let (mountains, _) = british_mountains();
        assert!(mountains.len() >= 25);
        assert!(mountains
            .entities()
            .iter()
            .all(|e| e.attribute(ATTR_RELATIVE_HEIGHT_M).is_some()));
    }

    #[test]
    fn long_tail_kb_shape() {
        let kb = long_tail_kb(30, 50, 5);
        assert_eq!(kb.types().len(), 30);
        assert_eq!(kb.len(), 1_500);
        // Names are unique across the whole KB.
        let mut names: Vec<&str> = kb.entities().iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 1_500);
    }

    #[test]
    fn long_tail_types_wrap_domain_list() {
        let kb = long_tail_kb(25, 2, 5);
        assert!(kb.type_by_name("disease").is_some());
        assert!(kb.type_by_name("disease group 1").is_some());
    }
}
