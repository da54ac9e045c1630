//! Property-based tests for the crowd simulator.

use proptest::prelude::*;
use surveyor_crowd::{cases_at_or_above, mean_agreement, CrowdVerdict, Panel, TestCase};
use surveyor_kb::{EntityId, Property, TypeId};

fn case(entity: u32, truth: bool, agreement: f64) -> TestCase {
    TestCase {
        type_id: TypeId(0),
        property: Property::adjective("cute"),
        entity: EntityId(entity),
        truth,
        worker_agreement: agreement,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn verdicts_partition_the_panel(
        seed in 0u64..1000,
        entity in 0u32..1000,
        truth in prop::bool::ANY,
        wa in 0.0f64..1.0,
        size in 1usize..40,
    ) {
        let panel = Panel::new(seed, size);
        let v = panel.judge(&case(entity, truth, wa));
        prop_assert_eq!(v.panel_size(), size);
        prop_assert!(v.agreement() * 2 >= size);
        prop_assert!(v.agreement() <= size);
    }

    #[test]
    fn judging_is_deterministic(seed in 0u64..1000, entity in 0u32..100, wa in 0.0f64..1.0) {
        let panel = Panel::paper(seed);
        let c = case(entity, true, wa);
        prop_assert_eq!(panel.judge(&c), panel.judge(&c));
    }

    #[test]
    fn perfect_agreement_is_unanimous_and_correct(
        seed in 0u64..500,
        entity in 0u32..100,
        truth in prop::bool::ANY,
    ) {
        let panel = Panel::paper(seed);
        let v = panel.judge(&case(entity, truth, 1.0));
        prop_assert!(v.unanimous());
        prop_assert_eq!(v.majority(), Some(truth));
    }

    #[test]
    fn histogram_is_monotone_and_consistent(
        votes in prop::collection::vec(0usize..=20, 1..64),
    ) {
        let verdicts: Vec<CrowdVerdict> = votes
            .iter()
            .map(|&p| CrowdVerdict { votes_positive: p, votes_negative: 20 - p })
            .collect();
        // The Figure 11 series, one count per agreement threshold.
        let hist: Vec<usize> = (11..=20)
            .map(|t| cases_at_or_above(&verdicts, t))
            .collect();
        for w in hist.windows(2) {
            prop_assert!(w[1] <= w[0]);
        }
        for (t, &n) in (11..=20).zip(&hist) {
            let direct = verdicts.iter().filter(|v| v.agreement() >= t).count();
            prop_assert_eq!(n, direct);
        }
        let mean = mean_agreement(&verdicts);
        prop_assert!((10.0..=20.0).contains(&mean));
    }
}
