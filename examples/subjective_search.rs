//! The paper's motivating use case: answering **subjective queries** from
//! structured data, plus the §9 future-work extension linking subjective
//! properties to objective ones.
//!
//! ```sh
//! cargo run --release --example subjective_search
//! ```
//!
//! Mines a multi-domain corpus into a [`surveyor::SubjectiveKb`], then
//! answers queries like `big cities` and `dangerous sports`, persists the
//! mined world as a binary snapshot and serves the same store from its
//! bytes, and discovers the population threshold at which the average Web
//! author starts calling a city "big".

use surveyor::prelude::*;
use surveyor::{
    adjudicate_with_link, link_objective, load_store, save_snapshot, CorpusSource, SubjectiveKb,
};

fn main() {
    // A ready-made multi-domain world (Table 2's 25 combinations).
    let world = surveyor_corpus::presets::table2_world(2015);
    let kb = world.kb().clone();
    let generator = CorpusGenerator::new(world, CorpusConfig::default());

    println!("mining the snapshot (25 property-type combinations)...");
    let surveyor = Surveyor::new(kb.clone(), SurveyorConfig::default());
    let output = surveyor.run(&CorpusSource::new(&generator));
    let store = SubjectiveKb::from_output(&output, &kb);
    println!(
        "subjective knowledge base: {} associations across {} combinations\n",
        store.len(),
        store.combinations().len(),
    );

    // 1. The search-engine scenario: subjective queries over structured data.
    for (type_name, property) in [
        ("city", Property::adjective("big")),
        ("sport", Property::adjective("dangerous")),
        ("animal", Property::adjective("cute")),
    ] {
        println!("query: \"{property} {type_name}\" (top hits)");
        for hit in store.query(type_name, &property).into_iter().take(6) {
            println!(
                "  {:<16} Pr = {:.3}  (evidence +{}/-{})",
                hit.entity_name, hit.probability, hit.positive_statements, hit.negative_statements
            );
        }
        println!();
    }

    // 2. Persist and serve — the snapshot is what a search engine would
    //    serve from; `load_store` builds the same store from its bytes.
    let bytes = save_snapshot(&output);
    let served = load_store(&bytes).expect("own snapshot loads");
    assert_eq!(served.to_json(), store.to_json());
    println!(
        "persisted a {}-byte snapshot; the store served from it answers {} `big city` hits\n",
        bytes.len(),
        served.query("city", &Property::adjective("big")).len(),
    );

    // 3. §9 future work: connect `big` to the objective population count.
    let city_type = kb.type_by_name("city").expect("city type");
    let big = Property::adjective("big");
    match link_objective(&output, &kb, city_type, &big, "population", 8) {
        Some(link) => {
            println!(
                "objective link: `big city` aligns with population {} {:.0} \
                 (agreement {:.0}% over {} decided cities)",
                match link.direction {
                    surveyor::LinkDirection::Above => ">=",
                    surveyor::LinkDirection::Below => "<",
                },
                link.threshold,
                link.agreement * 100.0,
                link.samples,
            );
            let adjudicated = adjudicate_with_link(&output, &kb, city_type, &big, &link);
            println!(
                "the link adjudicates {} cities the model left undecided",
                adjudicated.len()
            );
        }
        None => println!("no objective link found for `big city`"),
    }
}
