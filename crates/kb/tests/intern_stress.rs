//! Concurrency stress for the global interner: many threads interning an
//! overlapping property set must agree on every id, never deadlock, and
//! leave the dense id space hole-free.

use std::collections::BTreeMap;
use surveyor_kb::{InternCache, Property, PropertyId};

/// The overlapping vocabulary every thread interns: a shared core (maximal
/// contention on the same entries) plus adverb variants of each.
fn vocabulary() -> Vec<Property> {
    let mut out = Vec::new();
    for adjective in [
        "stress-big",
        "stress-cute",
        "stress-dangerous",
        "stress-calm",
        "stress-boring",
        "stress-fast",
        "stress-vital",
        "stress-rare",
    ] {
        out.push(Property::adjective(adjective));
        for adverb in ["very", "really", "quite", "extremely"] {
            out.push(Property::with_adverbs(&[adverb], adjective));
        }
    }
    out
}

#[test]
fn threads_agree_on_ids_without_deadlock() {
    let vocab = vocabulary();
    let mut handles = Vec::new();
    for worker in 0..8 {
        let vocab = vocab.clone();
        handles.push(std::thread::spawn(move || {
            let mut seen: BTreeMap<String, PropertyId> = BTreeMap::new();
            // Each worker walks the shared vocabulary many times from a
            // different offset, interleaving first-inserts and re-interns.
            for round in 0..50 {
                for i in 0..vocab.len() {
                    let p = &vocab[(i + worker * 7 + round) % vocab.len()];
                    let id = PropertyId::intern(p);
                    assert_eq!(id.resolve(), *p, "id resolves to a different property");
                    let prev = seen.insert(p.to_string(), id);
                    if let Some(prev) = prev {
                        assert_eq!(prev, id, "id changed between rounds for {p}");
                    }
                }
            }
            seen
        }));
    }
    let maps: Vec<BTreeMap<String, PropertyId>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Every thread assigned the same id to the same property.
    let reference = &maps[0];
    assert_eq!(reference.len(), vocabulary().len());
    for other in &maps[1..] {
        assert_eq!(reference, other, "threads disagree on interned ids");
    }
}

#[test]
fn surface_and_property_paths_race_to_one_id() {
    // Half the threads intern by property, half by canonical surface;
    // both paths must converge on a single id per property.
    let vocab = vocabulary();
    let mut handles = Vec::new();
    for worker in 0..8 {
        let vocab = vocab.clone();
        handles.push(std::thread::spawn(move || {
            let mut cache = InternCache::new();
            let mut ids = Vec::new();
            for p in &vocab {
                let id = if worker % 2 == 0 {
                    PropertyId::intern(p)
                } else {
                    cache
                        .intern_surface(&p.to_string())
                        .expect("vocabulary surfaces are non-blank")
                };
                ids.push(id);
            }
            // A warming pass, then a pass that must be all local hits.
            for (p, &id) in vocab.iter().zip(&ids) {
                assert_eq!(cache.intern_surface(&p.to_string()), Some(id));
            }
            let warmed = cache.stats();
            for (p, &id) in vocab.iter().zip(&ids) {
                assert_eq!(cache.intern_surface(&p.to_string()), Some(id));
            }
            assert_eq!(
                cache.stats().hits,
                warmed.hits + vocab.len() as u64,
                "warm-cache pass was not all hits"
            );
            assert_eq!(
                cache.stats().global_lookups,
                warmed.global_lookups,
                "warm-cache pass touched the global table"
            );
            ids
        }));
    }
    let all: Vec<Vec<PropertyId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for other in &all[1..] {
        assert_eq!(&all[0], other, "surface and property paths disagree");
    }
}
