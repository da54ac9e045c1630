//! Regression tests: serialized observability artifacts must not depend on
//! the order in which metrics were registered or workers finished.
//!
//! The registry's hot-path maps are hash maps (fast, arbitrary iteration
//! order); [`MetricsRegistry::report`] is the boundary where that order is
//! laundered into sorted form. These tests pin that boundary: if someone
//! swaps a `BTreeMap` back to a hash map in the report path, or stops
//! sorting EM groups, the JSON diverges between insertion orders and these
//! tests fail.

use surveyor_obs::{EmGroupReport, MetricsRegistry};

fn em_group(type_name: &str, property: &str, entities: u64) -> EmGroupReport {
    EmGroupReport {
        type_name: type_name.to_owned(),
        property: property.to_owned(),
        entities,
        iterations: 7,
        converged: "tolerance".to_owned(),
        log_likelihood: -12.5,
        final_delta: 1e-7,
        q_trace: vec![-20.0, -13.0, -12.5],
        delta_trace: vec![0.5, 0.1, 1e-7],
    }
}

/// Populates a registry with the same facts in the caller's chosen order.
fn populate(names: &[&str], groups: &[(&str, &str, u64)]) -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    for name in names {
        // Values derive from the name, not the position, so the same facts
        // land in the registry no matter the registration order.
        let v = name.len() as u64;
        reg.add(&format!("counter.{name}"), v * 10);
        reg.set_gauge(&format!("gauge.{name}"), v as f64 + 0.25);
        reg.observe(&format!("hist.{name}"), v as f64);
    }
    for &(t, p, n) in groups {
        reg.record_em_group(em_group(t, p, n));
    }
    reg
}

#[test]
fn report_json_is_independent_of_registration_order() {
    let names = ["statements", "documents", "entities", "retries"];
    let groups = [
        ("city", "safe", 40),
        ("animal", "cute", 12),
        ("city", "big", 9),
    ];

    let forward = populate(&names, &groups).report();

    let mut rev_names = names;
    rev_names.reverse();
    let mut rev_groups = groups;
    rev_groups.reverse();
    let reverse = populate(&rev_names, &rev_groups).report();

    assert_eq!(forward, reverse);
    assert_eq!(forward.to_json(), reverse.to_json());
}

#[test]
fn report_round_trips_through_json_in_sorted_order() {
    let reg = populate(&["zulu", "alpha", "mike"], &[("animal", "cute", 3)]);
    let json = reg.report().to_json();
    // Counter keys are written sorted — BTreeMap order, not insertion order.
    let at = |key: &str| {
        json.find(key)
            .unwrap_or_else(|| panic!("{key} missing:\n{json}"))
    };
    let keys = ["counter.alpha", "counter.mike", "counter.zulu"];
    let positions: Vec<usize> = keys.iter().map(|key| at(key)).collect();
    assert!(positions.is_sorted(), "{keys:?} out of order:\n{json}");
}
